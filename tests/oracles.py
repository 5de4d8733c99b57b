"""Independent brute-force oracles, and the tests' fixture scaffolding.

Everything here is deliberately naive: full enumeration and textbook
formulas only, sharing nothing with the package under test beyond numpy,
its error types, ``Graph``, ``StepGraphon`` and ``MAX_DENSE_N``.  Derived
expected values in the test files were frozen from these.

The fixture generators (``GraphGeneratorSpec``, ``generate``), ``is_binary``
and the equivariance checker at the end are test scaffolding rather than
oracles; the checker also relabels through the package's ``permute``.
``apply_map`` is one step of the package's own iteration map, and
``constants_empirical`` samples the contraction constants through it and
the package's norms into a record of its own (``EmpiricalConstants``);
no certificate takes them, since every certificate derives its analytic
constants from its inputs.  Both take a family and its alpha, as
``solve`` does.  ``katz_reference``, ``pagerank_reference`` and
``pagerank_kernel_reference`` are textbook numpy forms of the closed
forms and of the PageRank kernel, whose degrees are ``sequential_sums``,
a loop that adds a matrix's lines in index order.
"""

import itertools
import json
import math
import numbers

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from fpcentral import (
    Graph,
    InputFormatError,
    ParameterError,
    Permutation,
    StepGraphon,
    operator_norm,
    permute,
    solve,
    vector_norm,
)
from fpcentral.centrality import _iteration_map, _operand, native_norm_index
from fpcentral.io import MAX_DENSE_N


def cut_norm_brute(m):
    """max_{S,T} |sum_{i in S, j in T} m_ij| over all 4^n index pairs."""
    m = np.asarray(m, dtype=float)
    n = m.shape[0]
    masks = ((np.arange(2 ** n)[:, None] >> np.arange(n)) & 1).astype(float)
    box = masks @ m @ masks.T
    return float(np.max(np.abs(box)))


def _lex_subset_masks(n):
    """All subsets of {0..n-1} as bitmasks, ordered lexicographically by
    their sorted index tuples (empty set first)."""
    masks = np.zeros(1, dtype=np.int64)
    for f in range(n - 1, -1, -1):
        bit = np.int64(1) << np.int64(f)
        masks = np.concatenate(
            (np.zeros(1, dtype=np.int64), bit + masks, masks[1:])
        )
    return masks


def _split_by_sign(c):
    """Positive-sum or negative-sum columns, whichever is larger in absolute
    value; ties go to the lexicographically smaller set."""
    vp = float(np.where(c > 0, c, 0.0).sum())
    vm = float(-np.where(c < 0, c, 0.0).sum())
    tp = tuple(np.flatnonzero(c > 0).tolist())
    tm = tuple(np.flatnonzero(c < 0).tolist())
    if vp > vm:
        return vp, tp
    if vm > vp:
        return vm, tm
    return vp, min(tp, tm)


def cut_norm_rows_reference(m):
    """Exact cut norm by enumerating all 2^n row subsets, O(2^n * n^2).

    Row subsets S are visited in lexicographic order of their sorted index
    tuples and the first maximizer is kept; T is the sign-optimal column
    set of that S (ties to the lexicographically smaller set).  Returns
    ``(value, S, T)`` with the value recomputed from the witness.
    """
    m = np.asarray(m, dtype=float)
    n = m.shape[0]
    masks = _lex_subset_masks(n)
    shifts = np.arange(n, dtype=np.int64)
    best_val = -1.0
    best_mask = 0
    chunk = 65_536
    for start in range(0, masks.shape[0], chunk):
        mk = masks[start : start + chunk]
        bits = ((mk[:, None] >> shifts) & 1).astype(float)
        col = bits @ m
        vp = np.where(col > 0, col, 0.0).sum(axis=1)
        vm = -np.where(col < 0, col, 0.0).sum(axis=1)
        vals = np.maximum(vp, vm)
        k = int(np.argmax(vals))
        if float(vals[k]) > best_val:
            best_val = float(vals[k])
            best_mask = int(mk[k])
    s = tuple(i for i in range(n) if (best_mask >> i) & 1)
    c = m[list(s), :].sum(axis=0) if s else np.zeros(n)
    _, t = _split_by_sign(c)
    value = abs(float(m[np.ix_(s, t)].sum())) if s and t else 0.0
    return value, s, t


def matrix_norm_brute(d, norm):
    d = np.asarray(d, dtype=float)
    if norm == "cut":
        return cut_norm_brute(d)
    if norm in (1, np.inf):
        return float(np.max(sequential_sums(np.abs(d), 0 if norm == 1 else 1), initial=0.0))
    return float(np.linalg.norm(d, 2))


def min_permuted_distance_brute(a, b, norm):
    """min over all n! relabelings of ||A^pi - B|| by direct enumeration."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    n = a.shape[0]
    best = np.inf
    for perm in itertools.permutations(range(n)):
        m = np.array(perm)
        best = min(best, matrix_norm_brute(a[np.ix_(m, m)] - b, norm))
    return best


def min_permuted_distance_lex_reference(a, b, norm):
    """The unpruned exact relabeling sweep: all n! relabelings in
    lexicographic order, 500 at a time, keeping the first strict minimum.

    Returns ``(value, permutation)``.  The permutation maps node i of ``a``
    to node ``permutation[i]``, so its candidate difference is
    ``a[inv][:, inv] - b`` with ``inv`` the inverse permutation.  ``norm``
    is 1, 2, ``np.inf`` or ``"cut"``; the cut norm takes, for every row
    subset, the larger of the positive and the negative column mass.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    n = a.shape[0]
    perms = np.array(list(itertools.permutations(range(n))), dtype=int)
    bits = ((np.arange(2 ** n)[:, None] >> np.arange(n)) & 1).astype(float)
    best_val, best_perm = np.inf, None
    for start in range(0, perms.shape[0], 500):
        block = perms[start : start + 500]
        inv = np.argsort(block, axis=1)
        d = a[inv[:, :, None], inv[:, None, :]] - b
        if norm == 1:
            vals = np.abs(d).sum(axis=1).max(axis=1)
        elif norm == np.inf:
            vals = np.abs(d).sum(axis=2).max(axis=1)
        elif norm == "cut":
            col = bits @ d
            vp = np.maximum(col, 0.0).sum(axis=2)
            vm = -np.minimum(col, 0.0).sum(axis=2)
            vals = np.maximum(vp, vm).max(axis=1)
        else:
            vals = np.linalg.norm(d, 2, axis=(1, 2))
        k = int(np.argmin(vals))
        if vals[k] < best_val:
            best_val, best_perm = float(vals[k]), block[k]
    return best_val, tuple(best_perm.tolist())


def automorphisms_brute(weights):
    """All relabelings p with w[p(i), p(j)] == w[i, j], by direct check."""
    w = np.asarray(weights, dtype=float)
    n = w.shape[0]
    out = []
    for perm in itertools.permutations(range(n)):
        m = np.array(perm)
        if np.array_equal(w[np.ix_(m, m)], w):
            out.append(tuple(perm))
    return out


def permutation_cost_brute(src, dst, p):
    """min over all n! orderings of ||src[pi] - dst||_p."""
    src = np.asarray(src, dtype=float)
    dst = np.asarray(dst, dtype=float)
    best = np.inf
    for perm in itertools.permutations(range(src.shape[0])):
        diff = src[np.array(perm)] - dst
        if p == 1:
            val = float(np.abs(diff).sum())
        else:
            val = float(np.sqrt((diff ** 2).sum()))
        best = min(best, val)
    return best


def eigencentrality_lapack_reference(g):
    """Eigenvector centrality from one full LAPACK eigendecomposition with
    eigenvectors: ``eigh`` for a symmetric graph, ``eig`` of A.T otherwise.

    Makes the same decisions as ``fpcentral.eigencentrality`` (ranking by
    descending real part, the complex, 1e-8 gap and zero-eigenvalue
    checks, orientation to a non-negative sum) and raises ``ValueError``
    with the package's message where the package refuses.  Returns
    ``(vector, value, gap, rho)``.
    """
    w = g.weights
    if not w.any():
        raise ValueError(
            "the zero matrix has leading eigenvalue zero; eigencentrality is undefined"
        )
    if g.symmetric:
        evals, evecs = np.linalg.eigh(w)
    else:
        evals, evecs = np.linalg.eig(w.T)
    k = np.argsort(-evals.real, kind="stable")[0]
    lam_c = evals[k]
    others = np.delete(evals, k)
    gap = float(np.min(np.abs(others - lam_c))) if others.size else np.inf
    if abs(lam_c.imag) > 1e-8 * max(1.0, abs(lam_c)):
        raise ValueError(
            "the dominant eigenvalue is complex; no simple real leading eigenvalue"
        )
    if gap < 1e-8:
        raise ValueError("leading eigenvalue is not simple")
    lam = float(lam_c.real)
    if abs(lam) < 1e-12:
        raise ValueError("leading eigenvalue is zero; the centrality equation is undefined")
    v = evecs[:, k].real
    v = v / np.linalg.norm(v)
    if float(v.sum()) < 0.0:
        v = -v
    rho = np.abs(v) if float(np.min(v)) >= -1e-12 else None
    return v, lam, gap, rho


def strongly_connected(w):
    """Whether every node reaches every other along the non-zero entries of
    ``w``: the transitive closure of (w != 0) | I by repeated boolean
    squaring, each squaring doubling the path length it covers."""
    w = np.asarray(w)
    n = w.shape[0]
    reach = (w != 0.0) | np.eye(n, dtype=bool)
    for _ in range(max(1, math.ceil(math.log2(n)))):
        reach = (reach.astype(float) @ reach.astype(float)) > 0.0
    return bool(reach.all())


def takes_the_perron_route(g):
    """Whether ``eigencentrality`` proves ``g``'s leading eigenvalue simple
    (Perron-Frobenius) instead of measuring its gap: a graph with no
    negative weight that is strongly connected (connected, if symmetric)."""
    return bool(g.weights.min() >= 0.0) and strongly_connected(g.weights)


def random_pmf(rng, n):
    v = rng.random(n) + 1e-3
    return v / v.sum()


def random_symmetric(rng, n, low=-1.0, high=1.0):
    m = rng.uniform(low, high, size=(n, n))
    m = (m + m.T) / 2.0
    return np.clip(m, low, high)


def random_binary_symmetric(rng, n, p=0.5):
    upper = rng.random((n, n)) < p
    w = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            if upper[i, j]:
                w[i, j] = w[j, i] = 1.0
    return w


def parse_edge_list_reference(text):
    """The reference for ``io.parse_edge_list``, one line at a time: a
    Graph from edge-list text, or the InputFormatError of its first faulty
    line."""
    entries = {}
    max_index = -1

    def parse_index(token, lineno):
        try:
            value = int(token)
        except ValueError:
            raise InputFormatError(
                f"line {lineno}: {token!r} is not an integer node index",
                line=lineno,
            ) from None
        if value < 0:
            raise InputFormatError(
                f"line {lineno}: node indices must be non-negative", line=lineno
            )
        return value

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) == 1:
            max_index = max(max_index, parse_index(parts[0], lineno))
            continue
        if len(parts) > 3:
            raise InputFormatError(
                f"line {lineno}: expected 'i j w' with at most three fields",
                line=lineno,
            )
        i = parse_index(parts[0], lineno)
        j = parse_index(parts[1], lineno)
        weight = 1.0
        if len(parts) == 3:
            try:
                weight = float(parts[2])
            except ValueError:
                raise InputFormatError(
                    f"line {lineno}: {parts[2]!r} is not a real weight",
                    line=lineno,
                ) from None
            if not np.isfinite(weight):
                raise InputFormatError(
                    f"line {lineno}: weights must be finite", line=lineno
                )
        entries[(i, j)] = weight
        max_index = max(max_index, i, j)
    if max_index < 0:
        raise InputFormatError("edge list declares no nodes")
    n = max_index + 1
    if n > MAX_DENSE_N:
        raise InputFormatError(
            f"edge list declares {n} nodes; dense graphs are limited to n <= {MAX_DENSE_N}"
        )
    weights = np.zeros((n, n))
    for (i, j), weight in entries.items():
        weights[i, j] = weight
    return Graph(weights)



def parse_matrix_json_reference(text, kind):
    """The reference for reading a graph (``kind`` "graph") or step graphon
    ("graphon") JSON text: ``json.loads``, a check that every entry of a
    list of rows is a JSON number, and a Graph or StepGraphon built from
    the nested lists, or the InputFormatError of the first fault."""
    key, size_key, noun = {"graph": ("weights", "n", "matrix"),
                           "graphon": ("values", "k", "values")}[kind]
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputFormatError(
            f"line {exc.lineno}: invalid JSON: {exc.msg}", line=exc.lineno
        ) from exc
    if not isinstance(obj, dict):
        raise InputFormatError("expected a JSON object")
    if key not in obj:
        raise InputFormatError(f"{kind} JSON requires a {key!r} key")
    rows = obj[key]
    try:
        if isinstance(rows, list) and all(isinstance(row, list) for row in rows):
            for x in itertools.chain.from_iterable(rows):
                if type(x) not in (int, float):
                    raise ValueError(f"entries must be JSON numbers, got {json.dumps(x):.40}")
        if kind == "graph":
            built = Graph(rows)
        else:
            c = obj.get("c")
            finite = isinstance(c, numbers.Real) and not isinstance(c, bool)
            try:
                finite = finite and math.isfinite(c)
            except OverflowError:
                finite = False
            if c is not None and not finite:
                raise InputFormatError("bad 'c' value: expected null or a finite real number")
            built = StepGraphon(rows, c=c)
    except (ParameterError, ValueError, TypeError, OverflowError) as exc:
        raise InputFormatError(f"bad {key!r} value: {exc}") from exc
    size = getattr(built, size_key)
    declared = obj.get(size_key)
    if isinstance(declared, bool):
        raise InputFormatError(f"bad {size_key!r} value: expected null or a number")
    if declared is not None and declared != size:
        raise InputFormatError(
            f"declared {size_key}={declared} does not match the {size}x{size} {noun}"
        )
    return built


@dataclass
class GraphGeneratorSpec:
    """Deterministic fixture generator description.

    ``edge_prob`` and ``seed`` are required for ``erdos_renyi`` and must be
    absent for every other kind.
    """

    kind: str
    n: int
    edge_prob: float | None = None
    seed: int | None = None

    _KINDS = ("cycle", "complete", "star", "path", "erdos_renyi")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ParameterError(f"unknown generator kind {self.kind!r}")
        if not isinstance(self.n, (int, np.integer)) or self.n < 1:
            raise ParameterError("n must be a positive integer")
        if self.kind == "erdos_renyi":
            if self.edge_prob is None or self.seed is None:
                raise ParameterError("erdos_renyi requires edge_prob and seed")
            if not 0.0 <= self.edge_prob <= 1.0:
                raise ParameterError("edge_prob must lie in [0, 1]")
        elif self.edge_prob is not None or self.seed is not None:
            raise ParameterError(
                "edge_prob and seed are only valid for erdos_renyi"
            )


def generate(spec):
    """Build the graph described by ``spec``.

    The named families (cycle, complete, star, path) are unweighted 0/1
    symmetric graphs with zero diagonal.  ``erdos_renyi`` is symmetric 0/1
    with independent upper-triangle edges; the same seed always reproduces
    the identical matrix.
    """
    n = spec.n
    w = np.zeros((n, n))  # the upper triangle; mirrored below
    if spec.kind in ("cycle", "path"):
        w[np.arange(n - 1), np.arange(1, n)] = 1.0
        if spec.kind == "cycle" and n > 2:
            w[0, n - 1] = 1.0
    elif spec.kind == "complete":
        w = np.triu(np.ones((n, n)), 1)
    elif spec.kind == "star":
        w[0, 1:] = 1.0
    else:  # erdos_renyi
        rng = np.random.default_rng(spec.seed)
        w = np.triu(rng.random((n, n)) < spec.edge_prob, 1).astype(float)
    return Graph(w + w.T)


def is_binary(g):
    """True iff every weight is exactly 0 or 1."""
    w = g.weights
    return bool(np.all((w == 0.0) | (w == 1.0)))


def permute_vector(v, p):
    """Apply ``p`` to a node vector: output entry ``p(i)`` equals input ``i``."""
    out = np.empty_like(v)
    out[p.mapping] = v
    return out


def inverse(p):
    """The permutation q with q(p(i)) = i."""
    inv = np.empty(p.n, dtype=int)
    inv[p.mapping] = np.arange(p.n)
    return Permutation(inv)


def apply_map(family, alpha, g, x):
    """One application of f(A, x) for ``family`` and ``alpha``, through the
    package's own iteration map; the eigen family has none."""
    if family == "eigen":
        raise ParameterError(
            "the eigen family has no standalone iteration map; use solve() or "
            "eigencentrality()"
        )
    return _iteration_map(_operand(family, alpha, g))(x)


def check_equivariance(f, g, trials=50, seed=0):
    """Sample random relabelings and feature vectors and test
    P f(A, x) = f(P A P.T, P x) within 1e-9 in the max norm, for a map
    ``f(g, x)`` such as ``functools.partial(apply_map, family, alpha)``.

    Returns True iff the identity held for every sampled trial.
    """
    if trials < 1:
        raise ParameterError("trials must be at least 1")
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        p = Permutation(rng.permutation(g.n))
        x = rng.standard_normal(g.n)
        lhs = permute_vector(f(g, x), p)
        rhs = f(permute(g, p), permute_vector(x, p))
        if float(np.max(np.abs(lhs - rhs), initial=0.0)) > 1e-9:
            return False
    return True


def sequential_sums(m, axis):
    """The column (axis 0) or row (axis 1) sums of a square matrix, each
    line's terms added left to right in index order: running sums that
    start at +0.0 take one line of the matrix at a time."""
    m = np.asarray(m, dtype=float)
    total = np.zeros(m.shape[0])
    for k in range(m.shape[0]):
        total = total + (m[k] if axis == 0 else m[:, k])
    return total


def pagerank_kernel_reference(g):
    """The PageRank kernel A^T D^-1, D the row sums of A added in index
    order, with the columns of zero out-degree nodes zero."""
    w = g.weights
    d = sequential_sums(w, 1)
    kernel = w.T / np.where(d != 0.0, d, 1.0)
    kernel[:, d == 0.0] = 0.0
    return kernel


def katz_reference(g, alpha):
    """The Katz closed form: (I - alpha A^T) rho = 1 by one numpy solve."""
    n = g.n
    return np.linalg.solve(np.eye(n) - alpha * g.weights.T, np.ones(n))


def pagerank_reference(g, alpha):
    """The PageRank closed form: (I - alpha A^T D^-1) rho = (1 - alpha)/n
    by one numpy solve."""
    n = g.n
    lhs = np.eye(n) - alpha * pagerank_kernel_reference(g)
    return np.linalg.solve(lhs, np.full(n, (1.0 - alpha) / n))


def density_reference(values, family, alpha):
    """A step graphon's katz or pagerank density by one numpy solve on its
    lift M = values/k: (I - alpha M^T) x = 1 for katz, and k times the x of
    (I - alpha M^T D^-1) x = (1 - alpha)/k for pagerank."""
    k = values.shape[0]
    g = Graph(values / k)
    return katz_reference(g, alpha) if family == "katz" else k * pagerank_reference(g, alpha)


def _effective_matrix(family, g):
    """M_A, the matrix a family acts through: the PageRank kernel
    A^T D^-1 for pagerank, the weights A otherwise."""
    return pagerank_kernel_reference(g) if family == "pagerank" else g.weights


def _ball_point(rng, n, radius, p):
    direction = rng.standard_normal(n)
    scale = vector_norm(direction, p)
    if scale == 0.0:
        direction = np.ones(n)
        scale = vector_norm(direction, p)
    return direction * (radius * rng.random() / scale)


class EmpiricalConstants(NamedTuple):
    """Sampled contraction constants: lower bounds on the suprema."""

    L0: float
    L1: float
    Lg: float
    norm_p: float
    feasible_radius: float
    method: str = "empirical"


def _analytic_radius(family, alpha, g, p):
    """The a priori iterate radius ||b||_p / (1 - L0) + 1 of the analytic
    constants, with b the constant term: the all-ones vector for katz,
    (1 - alpha)/n per node for pagerank."""
    l0 = alpha * operator_norm(_effective_matrix(family, g), p)
    b_norm = math.sqrt(g.n) if family == "katz" else 1.0 - alpha
    return b_norm / (1.0 - l0) + 1.0


def constants_empirical(g, family, alpha, samples, seed):
    """Sampled estimates of the contraction constants of ``family`` and
    ``alpha`` on ``g``.

    Draws points in the feasible ball and takes ratio maxima: L0 from
    ||f(A, x) - f(A, x_A)|| / ||x - x_A|| against the solved fixed point,
    L1 from perturbations of unit operator norm, Lg from pairs through
    the output map.  The estimates are lower bounds on the suprema, so
    certificates built from them are not certified.
    """
    if samples < 2:
        raise ParameterError("samples must be at least 2")
    if family == "eigen":
        raise ParameterError("the eigen family has no iterated map to sample")
    p = native_norm_index(family)
    radius = _analytic_radius(family, alpha, g, p)
    x_fixed = solve(g, family, alpha).feature_x
    rng = np.random.default_rng(seed)
    n = g.n
    l0_est = 0.0
    l1_est = 0.0
    lg_est = 0.0
    base = apply_map(family, alpha, g, x_fixed)
    m_g = _effective_matrix(family, g)
    for _ in range(samples):
        x = _ball_point(rng, n, radius, p)
        denom = vector_norm(x - x_fixed, p)
        if denom > 1e-12:
            l0_est = max(l0_est, vector_norm(apply_map(family, alpha, g, x) - base, p) / denom)
        perturb = rng.standard_normal((n, n))
        other = Graph(g.weights + perturb / operator_norm(perturb, p))
        deviation = operator_norm(m_g - _effective_matrix(family, other), p)
        if deviation > 1e-12:
            y = _ball_point(rng, n, radius, p)
            l1_est = max(
                l1_est,
                vector_norm(
                    apply_map(family, alpha, g, y) - apply_map(family, alpha, other, y), p
                )
                / deviation,
            )
        # canonical g is the identity, so its ratio on a distinct pair is 1;
        # the pair is still drawn to keep the seeded stream
        u = _ball_point(rng, n, radius, p)
        v = _ball_point(rng, n, radius, p)
        if vector_norm(u - v, p) > 1e-12:
            lg_est = 1.0
    return EmpiricalConstants(
        L0=l0_est, L1=l1_est, Lg=lg_est, norm_p=p, feasible_radius=radius,
    )
