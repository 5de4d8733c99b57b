"""Dense graph representation, permutations and automorphisms.

Orientation convention, fixed once for the whole package: ``weights[i, j]``
is the weight of the link from node ``i`` to node ``j``, and the canonical
centralities act through the transpose ``A.T``.  Negative weights are
allowed; symmetry is detected, not required.

A matrix takes one of two forms.  With at most ``ENTRY_SHARE`` of its n x n
entries non-zero it is also held as the list of them (``_Entries``), on
which a product with the matrix or its transpose costs O(entries) instead
of O(n^2): there a product over the list beats a dense BLAS product
(measured on full-support matrices, break-even about 1/16 at n = 1000 to
2000, about 1/32 at n = 200).  Any other matrix is its whole array.
"""

import math
from typing import NamedTuple

import numpy as np

from .errors import ParameterError, SizeLimitError
from .limits import MAX_AUTOMORPHISM_N, exact_limit

MATRIX_TOL = 1e-12
# rows or columns per tile of the n x n passes that make no n x n temporary
_TILE = 128
ENTRY_SHARE = 1 / 32
_NO_ZEROS = np.empty(0, dtype=np.intp)


class _Entries(NamedTuple):
    """The non-zero entries ``vals`` at ``(rows, cols)`` of an n x n matrix M
    and its products over them alone.  Each product adds a row's (or a
    column's) terms in the order of the list; ``np.bincount`` returns
    integers for an empty list, hence the cast.  ``zeros`` holds the
    row-major flat indices of M's -0.0 entries, which only ``dense`` reads."""

    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    n: int
    zeros: np.ndarray = _NO_ZEROS

    def matvec(self, x):
        """M x."""
        return np.bincount(self.rows, self.vals * x[self.cols], self.n).astype(float, copy=False)

    def rmatvec(self, y):
        """M^T y."""
        return np.bincount(self.cols, self.vals * y[self.rows], self.n).astype(float, copy=False)

    def scaled(self, factor):
        """The entries of ``factor * M``, with the bits of that product."""
        return self._replace(vals=self.vals * factor)

    def dense(self):
        """M as a new n x n array, the only place a list forms one."""
        m = np.zeros((self.n, self.n))
        m[self.rows, self.cols] = self.vals
        m.flat[self.zeros] = -0.0
        return m


def _nonzero_entries(m):
    """The ``_Entries`` of a square matrix's non-zero entries (NaN and inf
    included), in row-major order, when at most ``ENTRY_SHARE`` of its
    entries are non-zero, None otherwise: one count of them and, only when
    that count is below the cut, one list."""
    nonzero = np.not_equal(m, 0.0, order="C")
    if np.count_nonzero(nonzero) > ENTRY_SHARE * m.size:
        return None
    rows, cols = np.divmod(np.flatnonzero(nonzero), m.shape[1])
    del nonzero
    return _Entries(rows, cols, m[rows, cols], m.shape[0])


def _list_asymmetry(e):
    """``max_asymmetry`` of a row-major list's matrix, bit for bit: each
    entry's mirror is found in the sorted flat indices, 0.0 if absent."""
    flat = e.rows * e.n + e.cols
    mirror = e.cols * e.n + e.rows
    at = np.searchsorted(flat, mirror)
    at[at == flat.size] = 0
    found = np.where(flat[at] == mirror, e.vals[at], 0.0)
    return float(np.max(np.abs(e.vals - found), initial=0.0))


def _tiles(n):
    """Slices of ``_TILE`` consecutive lines that cover ``range(n)``.  A
    last slice one line wide is merged into the one before it: numpy sums a
    single contiguous line pairwise, but a wider tile line by line, and
    only the latter gives the bits of the whole matrix's sums."""
    cuts = [*range(0, n, _TILE), n]
    if n > 1 and n % _TILE == 1:
        del cuts[-2]
    return [slice(i, j) for i, j in zip(cuts, cuts[1:])]


def max_asymmetry(w):
    """The largest ``|w[i, j] - w[j, i]|`` of a square matrix, 0.0 if empty.

    Exactly the largest entry of ``|w - w^T|``, since ``a - b`` is exactly
    ``-(b - a)`` in floating point, but taken over square tiles of the upper
    triangle, each against its mirror tile, so both stay in cache and no
    n x n temporary is made.
    """
    n = w.shape[0]
    t = _TILE
    peaks = [0.0]
    for i in range(0, n, t):
        for j in range(i, n, t):
            d = w[i : i + t, j : j + t] - w[j : j + t, i : i + t].T
            peaks.append(np.max(np.abs(d, out=d)))
    return float(np.max(peaks))


def _pow2_exponent(m):
    """The ``e`` that puts the peak |entry| of an array in [1, 2); 0 for zero or empty."""
    peak = max(float(m.max(initial=0.0)), -float(m.min(initial=0.0)))
    return math.frexp(peak)[1] - 1 if peak else 0


def _pow2_normalize(m, out=None):
    """``(m * 2^-e, e)`` with ``e = _pow2_exponent(m)``, ``m`` itself for e = 0,
    written to ``out`` when given (``m`` itself may be ``out``).  The scaling
    is exact, so results on the scaled array scale back bit for bit."""
    e = _pow2_exponent(m)
    return (np.ldexp(m, -e, out=out) if e else m), e


def matrix_tol(m):
    """The one rule for matrix entries: they count as equal within 1e-12
    times 2^e, ``e = _pow2_exponent(m)``, so no decision depends on scale."""
    return math.ldexp(MATRIX_TOL, _pow2_exponent(m))


class Graph:
    """A dense weighted graph on the node set ``{0, ..., n-1}``.

    Parameters
    ----------
    weights : (n, n) array_like
        Entry ``(i, j)`` is the weight of the directed link from ``i`` to
        ``j``.  Must be square and non-empty with finite entries (step
        graphon values are checked here too).

    Attributes
    ----------
    n : int
        Number of nodes.
    weights : (n, n) ndarray
        The weight matrix, signs of zeros included: the array held (a
        defensive copy, never aliased), or one formed anew from the list.
    symmetric : bool
        True iff the matrix equals its transpose within ``matrix_tol``.

    A graph holds one operand, ``_held``: the list of its non-zero entries
    (an ``_Entries``, also ``_entries``) when they are at most
    ``ENTRY_SHARE`` of its n x n entries, else its array (``_entries`` is
    None).  The symmetry check and the tolerance run over what it holds.
    ``Graph._adopt(w)`` takes a fresh float64 array without the copy, and
    ``Graph._adopt_list(n, rows, cols, vals, zeros)`` a finite matrix as a
    row-major list of its non-zero entries (and maybe zeros).
    """

    def __init__(self, weights):
        self._check_and_set(np.array(weights, dtype=float))

    @classmethod
    def _adopt(cls, w):
        return cls.__new__(cls)._check_and_set(w)

    @classmethod
    def _adopt_list(cls, n, rows, cols, vals, zeros=_NO_ZEROS):
        zero = vals == 0.0
        signed = zero & np.signbit(vals)
        zeros = np.concatenate([zeros, rows[signed] * n + cols[signed]])
        e = _Entries(rows[~zero], cols[~zero], vals[~zero], n, zeros)
        if e.vals.size > ENTRY_SHARE * n * n:
            return cls._adopt(e.dense())
        return cls.__new__(cls)._set(e)

    def _check_and_set(self, w):
        if w.size == 0:
            raise ParameterError("the matrix is empty")
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ParameterError("the matrix is not square")
        if not np.all(np.isfinite(w)):
            raise ParameterError("the matrix has non-finite entries")
        listed = _nonzero_entries(w)
        if listed is not None:
            # the bit pattern of -0.0 is the smallest int64
            w = listed._replace(zeros=np.flatnonzero(w.view(np.int64) == np.iinfo(np.int64).min))
        return self._set(w)

    def _set(self, held):
        self._held, self._entries = held, held if isinstance(held, _Entries) else None
        if self._entries is None:
            self.n, self.symmetric = len(held), max_asymmetry(held) <= matrix_tol(held)
        else:
            self.n, self.symmetric = held.n, _list_asymmetry(held) <= matrix_tol(held.vals)
        return self

    @property
    def weights(self):
        return self._held.dense() if isinstance(self._held, _Entries) else self._held

    @property
    def _array(self):
        """The weights when the products run over the whole array, else None."""
        return self.weights if self._entries is None else None

    def _values(self):
        """The weights, or the listed ones: with 0.0, the weights' extremes."""
        return self.weights if self._entries is None else self._entries.vals

    def __repr__(self):
        return f"Graph(n={self.n}, symmetric={self.symmetric})"


class Permutation:
    """A bijection on ``{0, ..., n-1}`` stored as an integral index array."""

    def __init__(self, mapping):
        m = np.asarray(mapping)
        if m.dtype.kind == "f" and not np.all(np.isfinite(m) & (m == np.round(m))):
            raise ParameterError("mapping entries must be integers")
        m = m.astype(int, copy=False)
        if m.ndim != 1:
            raise ParameterError("mapping must be a flat index sequence")
        n = m.shape[0]
        if n < 1 or not np.array_equal(np.sort(m), np.arange(n)):
            raise ParameterError("mapping must be a bijection on 0..n-1")
        self.mapping = m
        self.n = n

    @classmethod
    def identity(cls, n):
        return cls(np.arange(n))

    def inverse(self):
        inv = np.empty(self.n, dtype=int)
        inv[self.mapping] = np.arange(self.n)
        return Permutation(inv)

    def compose(self, other):
        """Return self after other: (self . other)(i) = self(other(i))."""
        if other.n != self.n:
            raise ParameterError("permutation sizes differ")
        return Permutation(self.mapping[other.mapping])

    def __eq__(self, other):
        return isinstance(other, Permutation) and np.array_equal(
            self.mapping, other.mapping
        )

    def __hash__(self):
        return hash(tuple(self.mapping.tolist()))

    def __repr__(self):
        return f"Permutation({self.mapping.tolist()})"


def permute(g, p):
    """Relabel ``g`` by ``p``: entry ``(p(i), p(j))`` of the output equals
    entry ``(i, j)`` of the input."""
    if p.n != g.n:
        raise ParameterError("permutation size does not match graph")
    w = g.weights
    out = np.empty_like(w)
    m = p.mapping
    out[np.ix_(m, m)] = w
    return Graph._adopt(out)


def permute_vector(v, p):
    """Apply ``p`` to a node vector: output entry ``p(i)`` equals input ``i``."""
    v = np.asarray(v, dtype=float)
    if v.shape[0] != p.n:
        raise ParameterError("permutation size does not match vector")
    out = np.empty_like(v)
    out[p.mapping] = v
    return out


def is_automorphism(g, p):
    """True iff relabeling by ``p`` leaves the weight matrix unchanged
    within ``matrix_tol`` (on 0/1 weights that is exact equality)."""
    w = g.weights
    return bool(np.max(np.abs(permute(g, p).weights - w)) <= matrix_tol(w))


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


def enumerate_automorphisms(g):
    """All automorphisms of ``g``, in lexicographic order of the mapping.

    Brute force over the ``n!`` candidate permutations, so the node count
    is capped at 9 (lower if FPC_MAX_EXACT_N says so), skipping each block
    of 24 that share their first n - 4 images once the principal submatrix
    they assign differs from ``g``'s by more than ``matrix_tol``.  The
    identity is always present in the result.
    """
    limit = exact_limit(MAX_AUTOMORPHISM_N)
    if g.n > limit:
        raise SizeLimitError(
            f"automorphism enumeration is limited to n <= {limit}, got n={g.n}"
        )
    w = g.weights
    tol = matrix_tol(w)
    blocks, d = _lex_blocks(_lex_permutations(g.n))
    heads = blocks[:, 0, :d]
    sub = w[heads[:, :, None], heads[:, None, :]]
    close = np.all(np.abs(sub - w[:d, :d]) <= tol, axis=(1, 2))
    perms = blocks[close].reshape(-1, g.n)
    keep = []
    chunk = 100_000
    for start in range(0, perms.shape[0], chunk):
        block = perms[start : start + chunk]
        # permuted[k, i, j] = w[block[k, i], block[k, j]]
        permuted = w[block[:, :, None], block[:, None, :]]
        match = np.all(np.abs(permuted - w) <= tol, axis=(1, 2))
        keep.append(block[match])
    return [Permutation(row) for row in np.concatenate(keep, axis=0)]


def degree_vector(g):
    """Row sums of the weight matrix: entry ``j`` is the out-mass of node j.

    A listed graph sums tiles of whole rows formed from its list: numpy
    sums each row alone, from +0.0, so the bits are the whole matrix's."""
    e = g._entries
    if e is None:
        return g.weights.sum(axis=1)
    sums = np.empty(e.n)
    for s in _tiles(e.n):
        lo, hi = np.searchsorted(e.rows, (s.start, s.stop))
        tile = np.zeros((s.stop - s.start, e.n))
        tile[e.rows[lo:hi] - s.start, e.cols[lo:hi]] = e.vals[lo:hi]
        sums[s] = tile.sum(axis=1)
    return sums
