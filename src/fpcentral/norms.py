"""Vector and operator norms, the exact cut norm, and permutation-minimized
matrix distances.

The cut norm here is the unscaled one: the maximum over index subsets S, T
of the absolute submatrix sum ``|sum_{i in S, j in T} a_ij|``.  For a fixed
row subset S with column sums c, the best T takes the positive or the
negative columns, whichever carry more mass, and

    max(sum_j c_j^+, sum_j c_j^-) = (sum_j |c_j| + |sum_j c_j|) / 2.

The exact computation splits the rows into a low and a high half and
tabulates the column sums of every subset of each half once (one GEMM per
half).  The column sums of a row subset are then one high-half entry plus
one low-half entry, so all 2^n row subsets cost O(2^n * n), swept in blocks
of high-half subsets sized to stay in cache (256 KiB).  Every table entry,
block total and swept value is bounded by twice the absolute sum of the
matrix, so a matrix of integers with that bound below 2^15 is swept in
int16, four times as many subsets per block as in float64 (a +-1 matrix, or
the difference of two 0/1 graphs, has a bound of at most 968 at n <= 22).
The float GEMM that builds its tables is exact on such integers, so the
values, the ties and the witness are those of the float sweep, bit for
bit.  The permutation sweep computes the column sums of every row subset
of a whole stack of small candidate differences with one GEMM against the
subset-indicator matrix.

``cut_norm_heuristic`` starts from the matrix.  It alternates between the
sign-optimal columns and rows of the matrix scaled by a power of two while
the sum strictly rises, from 3 + 4k starts, k = CUT_HEURISTIC_RESTARTS: the
full row set, the rows of positive and of negative sum, and for each of the
k strongest rows (then columns) the lines of positive, and of negative,
inner product with it (a column set starts from its sign-optimal rows).  A
side keeps its zero-sum lines; the witness does not.  Relabeling relabels
each start and scaling by 2^k scales each sum, so only ties and rounding
move the witness.

Every operator norm is of one operand (``graphs``), a list of entries or
an array: a one-signed matrix's 2-norm is the rounded-up upper end of a
Perron bracket of ``M.T @ M`` (``_perron_root``, also eigen centrality's
loop), closed or not, cheaper than a dense SVD on the large graphs it
serves, a mixed-sign one's is LAPACK's, and the 1- and inf-norms add each
column's or row's absolute entries in index order, over the list or tiles
of an array.  A difference is the operand ``minus`` makes: two lists
merge in O(entries), and two arrays stay a pair whose 2-norm lists the
entries by row tiles below the cut, so two graphs that differ in a few
edges cost a short list, not an n x n matrix.  The exact permutation
sweep instead takes the 2-norms of its whole stack of small candidate
differences from one stacked LAPACK SVD (``numpy.linalg.norm(d, 2,
axis=(1, 2))``), exact to rounding.

The exact permutation sweep skips candidates that provably cannot beat the
best value found so far, with two kinds of lower bound:

- a floor that holds for every relabeling: the largest gap between the
  sorted absolute column sums (1-norm) or row sums (inf-norm) of A and B,
  ``|sum(A - B)|`` (cut norm), and ``max_i |lambda_i(A) - lambda_i(B)|``
  over sorted eigenvalues when both matrices are symmetric (2-norm, by
  Weyl's inequality; 0 otherwise).  The sweep stops once its best value
  reaches the floor.
- a prefix bound: in lexicographic order the candidates form blocks of 24
  that share their first n - 4 images, and the difference restricted to
  those assigned rows and columns is a principal submatrix of every
  candidate difference of the block.  None of the four norms grows when
  rows and columns are dropped, so the block is skipped when that bound
  exceeds the best value by more than a 1e-12 relative margin.

Both only drop candidates that compare worse under the sweep's strict
``<``, so the value and the first minimizer stay those of the full sweep.
With integer weights and the 1-, inf- or cut norm this holds bit for bit;
otherwise the floors are rounded, and a sweep that stops at one can keep a
candidate that ties the minimum to within rounding of the weights.

The exhaustive searches refuse a larger n with SizeLimitError before any
work: the exact cut norm above MAX_CUT_EXACT_N = 22 and the exact
relabeling sweep above MAX_PERM_EXACT_N = 8.
"""

import math
from typing import NamedTuple

import numpy as np

from .errors import NumericalError, ParameterError, SizeLimitError
from .graphs import Permutation, _Dense, _operand
from .graphs import _pow2_normalize, _refuse_non_finite, degree_vector, max_asymmetry

# the largest n of the exhaustive searches: the exact cut norm (2^n row
# subsets) and the exact relabeling sweep (n! permutations)
MAX_CUT_EXACT_N = 22
MAX_PERM_EXACT_N = 8
# a Perron bracket's step budget, and a one-signed 2-norm's relative width
PERRON_MAX_ITERATIONS = 500
GRAM_TOL = 1e-12
# a 2-norm's peak exponent beyond which its products could overflow
_POW2_EXTREME = 256
# the strongest rows, and columns, whose alignments start cut_norm_heuristic
CUT_HEURISTIC_RESTARTS = 7
_TINY = np.finfo(float).tiny
# bytes of one block of row-subset values in cut_norm_exact (256 KiB)
_CUT_BLOCK = 1 << 18
# candidate permutations evaluated per vectorized step of the exact sweep
_PERM_CHUNK = 500
# a bound on a block of candidates (_lex_blocks) must exceed the best
# value by this relative margin, far above the rounding of an n <= 8
# distance, before its block is skipped
_PRUNE_MARGIN = 1e-12


def _canon_p(p):
    if p in (1, "1"):
        return 1
    if p in (2, "2"):
        return 2
    if p in (math.inf, np.inf, "inf"):
        return math.inf
    raise ParameterError(f"norm index must be 1, 2 or inf, got {p!r}")


def vector_norm(v, p):
    """The p-norm of a vector for p in {1, 2, inf}.

    The 2-norm is sqrt(sum(v * v)).  Only when that sum overflows, or falls
    below the normal range for a nonzero v, is it taken again over v scaled
    by the power of two that puts max|v| in [1, 2) (``_pow2_normalize``),
    so that entries beyond about 1e154 or below about 1e-154 keep a finite
    norm with full precision.
    """
    p = _canon_p(p)
    v = np.asarray(v, dtype=float)
    if p == 1:
        return float(np.abs(v).sum())  # the methods skip np.sum's dispatch, same bits
    if p == 2:
        with np.errstate(over="ignore"):
            total = float((v * v).sum())
            if math.isfinite(total) and (total >= _TINY or not v.any()):
                return math.sqrt(total)
            scaled, e = _pow2_normalize(v)  # inf and NaN entries stay as they are
            return float(np.ldexp(math.sqrt(float(np.sum(scaled * scaled))), e))
    return float(np.max(np.abs(v), initial=0.0))


def _perron_root(product, x, tol, gram=False):
    """The Perron root of a non-negative B by power steps of its ``product``
    x -> B x from ``x``, non-negative like each step: ``(lo, hi, x,
    closed)``, the last bracket [lo, hi], ``closed`` once it is at most
    ``tol`` wide with x its vector, else after ``PERRON_MAX_ITERATIONS``
    steps with x the next, x scaled to max-abs one.  The upper end is max_i
    (B x)_i / x_i over x_i > 0 (Collatz-Wielandt), at least the root at
    every step.  Eigen centrality's B = A.T takes the min as its lower end
    and steps by B + I, which makes a periodic graph converge.  A ``gram``
    B = M^T M takes the Rayleigh quotient x.Bx / x.x, which meets the upper
    end also when B is reducible, steps by B, and its ``tol`` is relative.
    """
    with np.errstate(divide="ignore", invalid="ignore"):  # an entry of x that is zero
        for _ in range(PERRON_MAX_ITERATIONS):
            y = product(x)
            ratios = y / x  # NaN at a zero column's 0 / 0, which fmax skips
            lo = float(x @ y) / float(x @ x) if gram else float(ratios.min())
            hi = float(np.fmax.reduce(ratios))
            if hi - lo <= (tol * lo if gram else tol):
                return lo, hi, x, True
            x = y if gram else x + y
            x /= x.max()
    return lo, hi, x, False


def _two_norm(op):
    """The largest singular value of the operand ``op`` (its ``iterand``); 0
    if it has no entry, NaN and inf entries refused.  M is scaled, as a
    copy, only if its peak's exponent is beyond +-_POW2_EXTREME.

    A one-signed M brackets M^T M from its column 2-norms, a label-free
    start, and the root of the bracket's upper end, closed or not, is
    rounded up by gamma_{k+4}, gamma_j = j u / (1 - j u) (Higham, Accuracy
    and Stability of Numerical Algorithms, 3.1): each product adds at most
    k same-signed terms, k the most entries of a row or column, and the
    ratio, root and rounding up add a rounding each.  Only a mixed-sign M
    takes LAPACK's SVD of the array of the rows and columns that hold an
    entry: for [[a, a], [b, -b]], b > a, every start that commutes with
    relabelings misses the top pair.
    """
    op = op.iterand()
    low, high = float(op.vals.min(initial=0.0)), float(op.vals.max(initial=0.0))
    if not (math.isfinite(low) and math.isfinite(high)):  # min and max keep a NaN
        raise ParameterError("operator_norm expects finite entries")
    if low == high:
        return 0.0
    e = math.frexp(max(high, -low))[1] - 1
    if abs(e) <= _POW2_EXTREME:
        e = 0
    op = op._replace(vals=np.ldexp(op.vals, -e)) if e else op
    if low >= 0.0 or high <= 0.0:
        x, k = op.gram_start()
        hi = _perron_root(lambda x: op.rmatvec(op.matvec(x)), x / x.max(), GRAM_TOL, gram=True)[1]
        ku = (k + 4) * 2.0**-53
        return float(np.ldexp(math.sqrt(hi) * (1.0 + ku / (1.0 - ku)), e))
    rows, cols = (np.flatnonzero(op.abs_sums(axis)) for axis in (1, 0))
    return float(np.ldexp(np.linalg.norm(op.submatrix(rows, cols), 2), e))


def _square_finite(m, caller, finite=True):
    """``m`` as a float array, refused unless square and, with ``finite``,
    unless its entries are finite."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ParameterError(f"{caller} expects a square matrix")
    if finite:
        _refuse_non_finite(m, caller)
    return m


def _operator_norm(op, p):
    """The p-norm of the operand ``op``, the one body of every operator
    norm: its 2-norm is ``_two_norm``'s, and its 1- and inf-norms are the
    largest of its absolute column or row sums (``abs_sums``).  A difference that
    overflows, or of equal infinities, is refused."""
    with np.errstate(over="ignore", invalid="ignore"):
        if p == 2:
            value = _two_norm(op)
        else:
            value = float(op.abs_sums(0 if p == 1 else 1).max())
    if not math.isfinite(value):  # a bracket's upper end is NaN once its products overflow
        raise NumericalError(f"the {p}-norm of this matrix overflows float64")
    return value


def operator_norm(m, p):
    """Induced operator p-norm of a square matrix, p in {1, 2, inf}.

    p=1 is the maximum absolute column sum, p=inf the maximum absolute row
    sum, each line added in index order in tiles (``graphs._abs_sums``).
    p=2 is the largest singular value (``_two_norm``), over the list of
    ``m``'s non-zero entries when they are at most 1/32 of all, else over
    the whole of ``m``.  A one-signed ``m`` takes the upper end of a
    bracket of ``m.T @ m``, rounded up, at or above the exact value and
    within 1e-12 of it once the bracket closes, else after 500 steps; it
    forms no array.  Only a mixed-sign ``m`` takes LAPACK's SVD of the rows
    and columns that hold an entry, which forms their array.  An empty
    matrix and non-finite entries raise ParameterError; a norm beyond
    float64 raises NumericalError.
    """
    p = _canon_p(p)
    m = _square_finite(m, "operator_norm", finite=False)
    if not m.size:
        raise ParameterError("operator_norm expects a non-empty matrix")
    return _operator_norm(_operand(m) if p == 2 else _Dense(m), p)


class CutNormWitness(NamedTuple):
    """A cut-norm value together with index sets that attain it, an
    immutable record (``_replace`` copies it)."""

    value: float
    S: tuple
    T: tuple


def _subset_bits(k):
    """The ``(2^k, k)`` indicator matrix of all subsets of {0..k-1}: row s
    holds the bits of s, lowest bit first."""
    return ((np.arange(1 << k)[:, None] >> np.arange(k)) & 1).astype(float)


def _lex_first(masks):
    """The lexicographically first of distinct subset bitmasks, ordering
    subsets by their sorted index tuples (empty set first).

    Each step keeps the masks whose next lowest index is smallest, so at
    most n + 1 vector filter steps run, whatever the number of masks.
    """
    rest = masks
    while True:
        done = rest == 0
        if done.any():
            return int(masks[np.argmax(done)])
        low = rest & -rest
        keep = low == low.min()
        masks = masks[keep]
        rest = rest[keep] ^ low[keep]


def _check_cut_sums(m):
    """The absolute sum of ``m``, a bound on every cut sum; ``m`` is refused
    when it overflows."""
    with np.errstate(over="ignore"):
        mass = float(np.abs(m).sum())
    if not math.isfinite(mass):
        raise NumericalError("cut sums of this matrix overflow float64")
    return mass


def _sweep_dtype(m, mass):
    """int16 when every entry of ``m`` is an integer and ``2 * mass``, a
    bound on every value the sweep of ``cut_norm_exact`` forms, fits in it;
    float64 otherwise."""
    if 2 * mass < 2**15 and np.array_equal(m, np.trunc(m)):
        return np.int16
    return np.float64


def cut_norm_exact(m):
    """Exact cut norm with a maximizing witness (S, T).

    Covers all 2^n row subsets S; ties resolve to the lexicographically
    smallest S (sorted index tuples, empty set first).  For that S the two
    sign-optimal column sets are compared and ties resolve to the
    lexicographically smaller T.  The value is recomputed from the witness.
    The sweep runs in int16 when every entry is an integer and twice the
    absolute sum, which bounds every value it forms, is below 2^15; its
    integer arithmetic is exact, so the witness and value are those of the
    float64 sweep that any other matrix takes.
    Limited to n <= 22 (the heuristic covers larger matrices).  Non-finite
    entries raise ParameterError; entries whose absolute sum overflows
    raise NumericalError.
    """
    m = _square_finite(m, "cut_norm_exact")
    n = m.shape[0]
    if n > MAX_CUT_EXACT_N:
        raise SizeLimitError(
            f"exact cut norm is limited to n <= {MAX_CUT_EXACT_N}, got n={n}; "
            "use cut_norm_heuristic for a certified lower bound"
        )
    dtype = _sweep_dtype(m, _check_cut_sums(m))
    # row mask = s_hi << h | s_lo; tables hold the column sums of every
    # subset of each half, one column per subset, and their totals; the
    # float GEMM and sums are exact on integers, so casting keeps the values
    h = n // 2
    lo = np.ascontiguousarray((_subset_bits(h) @ m[:h]).T)
    hi = np.ascontiguousarray((_subset_bits(n - h) @ m[h:]).T)
    lo, hi, lo_total, hi_total = (
        x.astype(dtype, copy=False) for x in (lo, hi, lo.sum(axis=0), hi.sum(axis=0))
    )
    width = lo.shape[1]
    step = max(1, _CUT_BLOCK // (width * lo.itemsize))
    best_val = -1
    ties = []
    # both buffers are made once, so the sweep allocates nothing per block
    term, block = np.empty((step, width), dtype), np.empty((step, width), dtype)
    for s0 in range(0, hi.shape[1], step):
        s1 = min(s0 + step, hi.shape[1])
        # twice the value of every row subset of the block
        vals = np.add(hi_total[s0:s1, None], lo_total, out=block[: s1 - s0])
        np.abs(vals, out=vals)
        t = term[: s1 - s0]
        for j in range(n):
            np.add(hi[j, s0:s1, None], lo[j], out=t)
            np.abs(t, out=t)
            vals += t
        top = vals.max()
        if top < best_val:
            continue
        if top > best_val:
            best_val, ties = top, []
        ties.append(np.flatnonzero(vals == top) + s0 * width)
    mask = _lex_first(np.concatenate(ties))
    s_tuple = tuple(i for i in range(n) if (mask >> i) & 1)
    # the side of S's column sums with more mass, the lexicographically
    # smaller on a tie
    c = m[list(s_tuple)].sum(axis=0)
    sides = [(-abs(float(np.where(side, c, 0.0).sum())), tuple(np.flatnonzero(side).tolist()))
             for side in (c > 0, c < 0)]
    t_tuple = min(sides)[1]
    return CutNormWitness(abs(float(m[np.ix_(s_tuple, t_tuple)].sum())), s_tuple, t_tuple)


def _sign_side(c):
    """``(mass, side)``: the 0/1 indicator of the line sums ``c`` at or above
    zero, or at or below it when the negative ones carry more mass.  A zero
    sum adds no mass, but it moves the next step off a plateau of ties."""
    vp, vm = float(c[c > 0].sum()), -float(c[c < 0].sum())
    return (vp, (c >= 0) * 1.0) if vp >= vm else (vm, (c <= 0) * 1.0)


def _alternate(w, s):
    """``(mass, s, t)``: the columns best for the rows ``s``, then the rows
    best for those columns, while the mass strictly rises.  The mass is a
    function of the columns, so none come back; 1000 steps cap the climb."""
    best = (-1.0, s, s)
    for _ in range(1000):
        t = _sign_side(s @ w)[1]
        mass, s = _sign_side(w @ t)
        if mass <= best[0]:
            break
        best = (mass, s, t)
    return best


def cut_norm_heuristic(m):
    """Alternating-maximization lower bound on the cut norm from starts that
    the matrix gives (module docstring).  Its value is the witness's box
    sum, as in ``cut_norm_exact``, so never above the exact cut norm.  Ties
    in the ranking of the strongest lines, or of equal sums, are the only
    label dependence left.  Non-finite entries raise ParameterError, an
    overflowing absolute sum NumericalError."""
    m = _square_finite(m, "cut_norm_heuristic")
    _check_cut_sums(m)
    w, k = _pow2_normalize(m)[0], CUT_HEURISTIC_RESTARTS

    def strongest(axis):  # by |line sum|, then line 1-norm, descending, then index
        return np.lexsort((-np.abs(w).sum(axis=axis), -np.abs(w.sum(axis=axis))))[:k]

    rows = w.sum(axis=1)
    by_row = w @ w[strongest(1)].T  # each row's inner product with a strong row
    by_col = w.T @ w[:, strongest(0)]
    starts = [np.ones(m.shape[0]), rows > 0, rows < 0]
    starts += [side for a in by_row.T for side in (a > 0, a < 0)]
    starts += [_sign_side(w @ side)[1] for a in by_col.T for side in (a > 0, a < 0)]
    t = max((_alternate(w, s * 1.0) for s in starts), key=lambda r: r[0])[2]
    # without zero-sum lines: the rows best for t, then the columns best for them
    r = w @ t
    c = (_sign_side(r)[1] * (r != 0)) @ w
    S, T = (tuple(np.flatnonzero(_sign_side(x)[1] * (x != 0)).tolist()) for x in (r, c))
    return CutNormWitness(abs(float(m[np.ix_(S, T)].sum())), S, T)


class PermutedDistanceResult(NamedTuple):
    """Distance between two graphs minimized over node relabelings, an
    immutable record (``_replace`` copies it).

    ``evaluated`` counts the candidate relabelings whose full distance was
    computed: 1 in greedy mode, at most n! in exact mode.
    """

    value: float
    permutation: Permutation
    certified: bool
    mode: str
    norm: str
    evaluated: int


def _canon_matrix_norm(norm):
    if norm in ("cut", "CUT"):
        return "cut"
    p = _canon_p(norm)
    return {1: "1", 2: "2", math.inf: "inf"}[p]


def _matrix_distance(d, norm):
    return cut_norm_exact(d).value if norm == "cut" else operator_norm(d, norm)


def _batched_cut(mats):
    """Exact cut norms of a stack of square matrices (values only)."""
    k, n, _ = mats.shape
    bits = _subset_bits(n)
    # col[S, j, p]: column j summed over the rows in S, for matrix p
    col = bits @ mats.transpose(1, 2, 0).reshape(n, n * k)
    total = bits @ mats.sum(axis=2).T
    np.abs(col, out=col)
    vals = col.reshape(-1, n, k).sum(axis=1)
    vals += np.abs(total)
    return vals.max(axis=0) / 2


def _abs_line_sums(d, norm):
    """|d|'s column ("1") or row ("inf") sums, of a matrix or each of a stack,
    in index order: numpy adds a C-contiguous array's rows one by one."""
    return np.abs(d if norm == "1" else np.swapaxes(d, -1, -2), order="C").sum(axis=-2)


def _stack_norms(d, norm):
    """``norm`` of every matrix of the stack ``d``; the 2-norm is the
    largest singular value from a stacked LAPACK SVD."""
    if norm in ("1", "inf"):
        return _abs_line_sums(d, norm).max(axis=-1)
    if norm == "2":
        return np.linalg.norm(d, 2, axis=(1, 2))
    return _batched_cut(d)


def _chunk_values(a_w, b_w, perm_block, norm):
    """``norm(A^pi - B)`` for every permutation pi in ``perm_block``."""
    inv = np.argsort(perm_block, axis=1)
    return _stack_norms(a_w[inv[:, :, None], inv[:, None, :]] - b_w, norm)


def _relabeling_floor(a_w, b_w, norm):
    """A lower bound on ``norm(A^pi - B)`` that holds for every pi; 0 when
    the bound is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        if norm == "cut":
            floor = abs(a_w.sum() - b_w.sum())
        elif norm == "2":
            if max_asymmetry(a_w) or max_asymmetry(b_w):
                return 0.0
            floor = np.abs(np.linalg.eigvalsh(a_w) - np.linalg.eigvalsh(b_w)).max()
        else:
            floor = np.abs(
                np.sort(_abs_line_sums(a_w, norm)) - np.sort(_abs_line_sums(b_w, norm))
            ).max()
    floor = float(floor)
    return floor if math.isfinite(floor) else 0.0


def _prefix_bounds(a_w, b_w, prefixes, norm):
    """For each assigned prefix pi(0..d-1), ``norm`` of the principal
    submatrix ``A[:d, :d] - B[prefix][:, prefix]``, a lower bound on the
    distance of every candidate that extends it; 0 when not finite."""
    d = prefixes.shape[1]
    if d == 0:
        return np.zeros(prefixes.shape[0])
    sub = a_w[:d, :d] - b_w[prefixes[:, :, None], prefixes[:, None, :]]
    with np.errstate(over="ignore", invalid="ignore"):
        bounds = _stack_norms(sub, norm)
    bounds[~np.isfinite(bounds)] = 0.0
    return bounds


def _lex_permutations(n):
    """All n! permutations of ``range(n)`` as rows, in lexicographic order
    (the order of ``itertools.permutations``)."""
    perms = np.zeros((1, 0), dtype=int)
    for k in range(1, n + 1):
        # first symbol i, then the (k-1)-permutations relabeled onto the
        # other k - 1 symbols in increasing order, which keeps the order
        m = perms.shape[0]
        out = np.empty((k * m, k), dtype=int)
        for i in range(k):
            out[i * m : (i + 1) * m, 0] = i
            out[i * m : (i + 1) * m, 1:] = np.delete(np.arange(k), i)[perms]
        perms = out
    return perms


def _lex_blocks(perms):
    """``(blocks, d)``: the rows of ``perms = _lex_permutations(n)`` in
    blocks of (n - d)! rows that share their first ``d = max(n - 4, 0)``."""
    n = perms.shape[1]
    d = max(n - 4, 0)
    return perms.reshape(-1, math.factorial(n - d), n), d


def min_permuted_distance(a, b, norm, mode="exact"):
    """Minimize ``norm(A^pi - B)`` over node relabelings pi of the first graph.

    Parameters
    ----------
    a, b : Graph
        Graphs on the same number of nodes.
    norm : {1, 2, "inf", "cut"}
        Matrix norm used for the distance.
    mode : {"exact", "greedy"}
        "exact" searches all n! permutations (n <= 8) in lexicographic order
        and returns the true minimum together with its lexicographically
        first minimizer.  It takes the 2-norm of every candidate it
        evaluates from a stacked LAPACK SVD.  It evaluates the identity
        first and stops once the best value reaches a floor that no
        relabeling can beat (see the module docstring).  It skips each
        block of 24 candidates sharing their first n - 4 images whose
        assigned principal submatrix already has a larger norm than the
        best value, beyond a 1e-12 relative margin.  A skipped candidate
        cannot win the strict ``<`` comparison of a full sweep, so the limit
        and the first-minimizer rule are those of the full sweep (up to
        rounding ties at a floor on inputs that are not integer-valued).
        "greedy" pairs nodes by sorted degree sequence (ties by node index)
        and reports that single permutation's distance, an upper bound on
        the infimum; such results carry certified=False.

    Returns
    -------
    PermutedDistanceResult

    The exact sweep raises NumericalError when a candidate it evaluates has
    a NaN distance or every candidate's distance overflows to inf.
    """
    norm = _canon_matrix_norm(norm)
    if a.n != b.n:
        raise ParameterError("graphs must have the same number of nodes")
    if mode not in ("exact", "greedy"):
        raise ParameterError(f"unknown mode {mode!r}")
    n = a.n
    if mode == "greedy":
        with np.errstate(over="ignore"):  # an infinite degree still sorts
            order_a = np.lexsort((np.arange(n), degree_vector(a)))
            order_b = np.lexsort((np.arange(n), degree_vector(b)))
        mapping = np.empty(n, dtype=int)
        mapping[order_a] = order_b
        p = Permutation(mapping)
        # a relabeled by p, as ``permute`` places it, less b, in one array
        d = np.empty((n, n))
        d[np.ix_(mapping, mapping)] = a.weights
        d -= b.weights
        value = _matrix_distance(d, norm)
        return PermutedDistanceResult(
            value=value, permutation=p, certified=False, mode=mode, norm=norm,
            evaluated=1,
        )
    if n > MAX_PERM_EXACT_N:
        raise SizeLimitError(
            f"exact permutation search is limited to n <= {MAX_PERM_EXACT_N}, got n={n}"
        )
    a_w, b_w = a.weights, b.weights
    blocks, d = _lex_blocks(_lex_permutations(n))
    size = blocks.shape[1]
    best_val, best_perm, evaluated = math.inf, None, 0

    def sweep(block):
        nonlocal best_val, best_perm, evaluated
        vals = _chunk_values(a_w, b_w, block, norm)
        evaluated += block.shape[0]
        k = int(np.argmin(vals))  # the first NaN, if there is one
        if math.isnan(vals[k]):
            raise NumericalError(f"a {norm}-norm distance of the sweep is NaN")
        if vals[k] < best_val:
            best_val = float(vals[k])
            best_perm = block[k]

    floor = _relabeling_floor(a_w, b_w, norm)
    sweep(blocks[0, :1])  # the identity
    if best_val > floor:
        bounds = _prefix_bounds(a_w, b_w, blocks[:, 0, :d], norm)
    start = 0
    while best_val > floor and start < blocks.shape[0]:
        live = np.flatnonzero(bounds[start:] <= best_val * (1.0 + _PRUNE_MARGIN))
        if live.size == 0:
            break
        live = live[: max(1, _PERM_CHUNK // size)] + start
        # the identity, row 0 of block 0, is done
        candidates = blocks[live].reshape(-1, n)[1 if live[0] == 0 else 0 :]
        if candidates.size:
            sweep(candidates)
        start = int(live[-1]) + 1
    if math.isinf(best_val):
        raise NumericalError(f"every {norm}-norm distance of the sweep overflows")
    return PermutedDistanceResult(
        value=best_val, permutation=Permutation(best_perm), certified=True,
        mode=mode, norm=norm, evaluated=evaluated,
    )
