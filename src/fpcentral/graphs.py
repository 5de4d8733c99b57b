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


class _Entries(NamedTuple):
    """The non-zero entries ``vals`` at ``(rows, cols)`` of an n x n matrix M
    and its products over them alone.  Each product adds a row's (or a
    column's) terms in the order of the list; ``np.bincount`` returns
    integers for an empty list, hence the cast."""

    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    n: int

    def matvec(self, x):
        """M x."""
        return np.bincount(self.rows, self.vals * x[self.cols], self.n).astype(float, copy=False)

    def rmatvec(self, y):
        """M^T y."""
        return np.bincount(self.cols, self.vals * y[self.rows], self.n).astype(float, copy=False)

    def scaled(self, factor):
        """The entries of ``factor * M``, with the bits of that product."""
        return self._replace(vals=self.vals * factor)


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
        The weight matrix (a defensive copy, never aliased).
    symmetric : bool
        True iff the matrix equals its transpose within ``matrix_tol``.

    A graph also holds its non-zero entries as ``_entries`` (an
    ``_Entries``) when they are at most ``ENTRY_SHARE`` of its n x n
    entries, and None otherwise.  They come from one count of the
    non-zero entries and, only below that cut, one list of them; the
    symmetry check and the tolerance are then taken over that list.

    ``Graph._adopt(w, nonzero)`` is the private path for a fresh float64
    array that no one else holds, such as a parsed edge list or a
    graphon's lift: it runs the same checks and keeps ``w`` itself as the
    weights, without the copy.  ``nonzero``, when given, is a
    ``(rows, cols, vals)`` list, row-major, that holds every non-zero entry
    of a finite ``w`` (and maybe some zeros): the graph then takes its
    entries, its symmetry and its tolerance from that list, and no pass
    over the n x n matrix is made.
    """

    def __init__(self, weights):
        self._check_and_set(np.array(weights, dtype=float))

    @classmethod
    def _adopt(cls, w, nonzero=None):
        g = cls.__new__(cls)
        g._check_and_set(w, nonzero)
        return g

    def _check_and_set(self, w, nonzero=None):
        if w.size == 0:
            raise ParameterError("the matrix is empty")
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ParameterError("the matrix is not square")
        n = w.shape[0]
        if nonzero is None:
            if not np.all(np.isfinite(w)):
                raise ParameterError("the matrix has non-finite entries")
            listed = self._entries = _nonzero_entries(w)
        else:
            rows, cols, vals = nonzero
            keep = vals != 0.0
            if not keep.all():
                rows, cols, vals = rows[keep], cols[keep], vals[keep]
            listed = _Entries(rows, cols, vals, n)
            self._entries = listed if vals.size <= ENTRY_SHARE * w.size else None
        if listed is None:
            asymmetry, tol = max_asymmetry(w), matrix_tol(w)
        else:
            # exactly the tiled value: |w_ij - w_ji| is listed at (i, j) or
            # at (j, i) whenever it is not zero
            asymmetry = float(np.max(np.abs(listed.vals - w[listed.cols, listed.rows]), initial=0.0))
            tol = matrix_tol(listed.vals)
        self.weights = w
        self.n = n
        self.symmetric = asymmetry <= tol

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
    out = np.empty_like(g.weights)
    m = p.mapping
    out[np.ix_(m, m)] = g.weights
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
    return bool(np.max(np.abs(permute(g, p).weights - g.weights)) <= matrix_tol(g.weights))


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
    """Row sums of the weight matrix: entry ``j`` is the out-mass of node j."""
    return g.weights.sum(axis=1)
