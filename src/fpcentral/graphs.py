"""Dense graph representation and permutations.

Orientation convention, fixed once for the whole package: ``weights[i, j]``
is the weight of the link from node ``i`` to node ``j``, and the canonical
centralities act through the transpose ``A.T``.  Negative weights are
allowed; symmetry is detected, not required.

Every matrix the package computes with is one operand, in one of two forms
that only this module tells apart.  With at most ``ENTRY_SHARE`` of its
n x n entries non-zero it is the list of them (``_Entries``), on which a
product with the matrix or its transpose costs O(entries) instead of
O(n^2): there a product over the list beats a dense BLAS product
(measured on full-support matrices, break-even about 1/16 at n = 1000 to
2000, about 1/32 at n = 200).  Any other matrix is its whole array
(``_Dense``).  Both answer the same methods and hold their values as
``vals``, whose extremes with 0.0 are the matrix's.  Every row and column
sum adds its terms left to right in index order, on both forms and in any
layout; products keep each form's order (BLAS, ``np.bincount``).
"""

import math
from typing import NamedTuple

import numpy as np

from .errors import ParameterError

MATRIX_TOL = 1e-12
# rows or columns per tile of the n x n passes that make no n x n temporary
_TILE = 128
ENTRY_SHARE = 1 / 32


def _refuse_non_finite(m, caller):
    if not np.isfinite(m).all():
        raise ParameterError(f"{caller} expects finite entries")


class _Entries(NamedTuple):
    """The non-zero entries ``vals`` at ``(rows, cols)`` of an n x n matrix M
    and its products over them alone, each adding a line's terms in the
    order of the list (``np.bincount`` returns integers for an empty list,
    hence the casts).  A graph's list is row-major; a PageRank kernel's
    goes column by column, and no method after ``digest_into`` reads it."""

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

    def abs_sums(self, axis):
        """``|M|.sum(axis)``, each line's absolute entries added in the
        list's order; non-finite entries are refused."""
        _refuse_non_finite(self.vals, "operator_norm")
        lines = self.cols if axis == 0 else self.rows
        return np.bincount(lines, np.abs(self.vals), self.n).astype(float, copy=False)

    def gram_start(self):
        """M's column 2-norms, and the most entries of a row or a column."""
        k = max(np.bincount(self.rows).max(), np.bincount(self.cols).max())
        return np.sqrt(np.bincount(self.cols, self.vals * self.vals, self.n)), int(k)

    def submatrix(self, rows, cols):
        """M's sorted ``rows`` and ``cols``, which hold every entry, as an array."""
        m = np.zeros((rows.size, cols.size))
        m[np.searchsorted(rows, self.rows), np.searchsorted(cols, self.cols)] = self.vals
        return m

    def scaled(self, factor):
        """The entries of ``factor * M``, with the bits of that product."""
        return self._replace(vals=self.vals * factor)

    def minus(self, other):
        """M - O: the merge of two lists below the cut, else the arrays'."""
        if isinstance(other, _Entries):
            merged = _merged_difference(self, other)
            if merged is not None:
                return merged
        return _Difference(self.dense(), other.dense())

    def iterand(self):
        return self

    def dense(self):
        """M as a new n x n array, the only place a list forms one."""
        m = np.zeros((self.n, self.n))
        m[self.rows, self.cols] = self.vals
        return m

    def digest_into(self, h):
        """Hash M as the tag ``entries``, then n and the entry count, then
        rows and cols as int64 and vals as float64: O(entries) bytes."""
        h.update(f"entries{(self.n, self.vals.size)}".encode())
        for buf in (self.rows, self.cols):
            h.update(np.ascontiguousarray(buf, dtype=np.int64))
        h.update(np.ascontiguousarray(self.vals, dtype=float))

    def row_sums(self):
        """M's row sums in the list's order, index order in a row-major list."""
        return np.bincount(self.rows, self.vals, self.n).astype(float, copy=False)

    def asymmetry(self):
        """``max_asymmetry`` of a row-major list's matrix, bit for bit: each
        entry's mirror is found in the sorted flat indices, 0.0 if absent.
        The mirrors are looked up in their own sorted order, since a binary
        search over sorted keys runs several times faster than over the
        column-major order in which they arrive."""
        flat = self.rows * self.n + self.cols
        mirror = self.cols * self.n + self.rows
        order = np.argsort(mirror)
        mirror = mirror[order]
        at = np.searchsorted(flat, mirror)
        at[at == flat.size] = 0
        found = np.where(flat[at] == mirror, self.vals[at], 0.0)
        return float(np.max(np.abs(self.vals[order] - found), initial=0.0))

    def kernel(self, d):
        """M^T D^-1 for row sums ``d``: ``vals / d[rows]`` at rows of
        non-zero degree, the IEEE division ``_Dense.kernel`` makes.  It has
        no more entries than M, so it is below the cut as M is."""
        rows, cols, vals = self.rows, self.cols, self.vals
        keep = d[rows] != 0.0
        if not keep.all():
            rows, cols, vals = rows[keep], cols[keep], vals[keep]
        return _Entries(cols, rows, vals / d[rows], self.n)

    def divided(self, k):
        """The graph of M / k, as ``vals / k``."""
        return Graph._adopt_list(self.n, self.rows, self.cols, self.vals / k)

    def relabeled(self, m):
        """The graph whose entry ``(m[i], m[j])`` is M's entry ``(i, j)``: the
        list with its indices mapped, sorted row-major again, in O(entries)."""
        rows, cols = m[self.rows], m[self.cols]
        order = np.argsort(rows * self.n + cols)
        return Graph._holding(_Entries(rows[order], cols[order], self.vals[order], self.n))

    def spelled_rows(self, sep):
        """Each row as ``sep.join`` of its entries' float reprs: a row of
        zeros with the reprs of its listed entries in place of their "0.0",
        made a row at a time, so a row costs its listed entries."""
        zeros = sep.join(["0.0"] * self.n)
        starts = np.searchsorted(self.rows, np.arange(self.n + 1)).tolist()
        offsets = self.cols * (len(sep) + 3)
        for lo, hi in zip(starts, starts[1:]):
            pieces, at = [], 0
            for start, x in zip(offsets[lo:hi].tolist(), self.vals[lo:hi].tolist()):
                pieces += zeros[at:start], float.__repr__(x)
                at = start + 3
            yield "".join([*pieces, zeros[at:]]) if pieces else zeros


class _Dense(NamedTuple):
    """The whole n x n array ``vals`` of M, with BLAS's products.  ``scaled``
    writes an array the operand may write, such as a kernel it formed; a
    graph holds its array read-only, so no operand writes a graph's."""

    vals: np.ndarray

    @property
    def n(self):
        return self.vals.shape[0]

    def matvec(self, x):
        return self.vals @ x

    def rmatvec(self, y):
        return self.vals.T @ y

    def abs_sums(self, axis):
        return _abs_sums(self.vals, None, axis)

    def gram_start(self):
        nonzero = self.vals != 0.0
        k = max(np.count_nonzero(nonzero, axis=0).max(), np.count_nonzero(nonzero, axis=1).max())
        return np.sqrt(np.einsum("ij,ij->j", self.vals, self.vals)), int(k)

    def submatrix(self, rows, cols):
        """M itself when ``rows`` and ``cols`` are all, else a new array."""
        return self.vals if rows.size == cols.size == self.n else self.vals[np.ix_(rows, cols)]

    def scaled(self, factor):
        m = self.vals
        return _Dense(np.multiply(m, factor, out=m if m.flags.writeable else None))

    def minus(self, other):
        return _Difference(self.vals, other.dense())

    def iterand(self):
        return self

    def dense(self):
        return self.vals

    def digest_into(self, h):
        """Hash M as the str of its shape, then its float64 buffer."""
        arr = np.ascontiguousarray(self.vals, dtype=float)
        h.update(str(arr.shape).encode())
        h.update(arr)

    def row_sums(self):
        return np.concatenate([_lines(self.vals, s, 1).sum(axis=0) for s in _tiles(self.n)])

    def asymmetry(self):
        return max_asymmetry(self.vals)

    def kernel(self, d):
        d = d[:, None]
        return _Dense(np.divide(self.vals, d, out=np.zeros_like(self.vals), where=d != 0.0).T)

    def divided(self, k):
        return Graph._adopt(self.vals / k)

    def relabeled(self, m):
        out = np.empty_like(self.vals)
        out[np.ix_(m, m)] = self.vals
        return Graph._adopt(out)

    def spelled_rows(self, sep):
        return (sep.join(map(float.__repr__, row.tolist())) for row in self.vals)


class _Difference(NamedTuple):
    """``a - b`` of two arrays, kept as the pair for a norm: its absolute
    sums are tiled over both, and its 2-norm iterates the list of its
    entries by row tiles below the cut, else the array ``a - b``."""

    a: np.ndarray
    b: np.ndarray

    def abs_sums(self, axis):
        return _abs_sums(self.a, self.b, axis)

    def iterand(self):
        listed = _difference_entries(self.a, self.b)
        return _Dense(self.a - self.b) if listed is None else listed


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


def _operand(m):
    """A square array as the list of its entries below the cut, else itself
    (a list, a non-empty tuple, is true)."""
    return _nonzero_entries(m) or _Dense(m)


def _abs_sums(a, b, axis):
    """``np.abs(a - b).sum(axis)``, or of ``a`` when ``b`` is None, in tiles
    of whole lines (``_lines``), with no n x n temporary; non-finite entries
    are refused."""
    sums = np.empty(a.shape[0])
    for s in _tiles(a.shape[0]):
        tile = _lines(a, s, axis)
        if b is not None:
            tile -= b[:, s] if axis == 0 else b[s].T
        np.abs(tile, out=tile)
        _refuse_non_finite(tile, "operator_norm")
        sums[s] = tile.sum(axis=0)
        del tile  # before the next tile is made
    return sums


def _lines(m, s, axis):
    """Columns (axis 0) or rows (1) ``s`` of ``m`` as the columns of a new C-contiguous
    array, which numpy sums along axis 0 row by row: each line in index order."""
    return np.array(m[:, s] if axis == 0 else m[s].T, order="C")


def _difference_entries(a, b):
    """The ``_Entries`` of ``a - b``, NaN and inf included, listed in
    row-major order by row tiles, or None as soon as they pass the cut.
    Each tile goes before the next is made."""
    n = a.shape[0]
    rows, cols, vals = [np.empty(0, dtype=np.intp)], [np.empty(0, dtype=np.intp)], [np.empty(0)]
    count = 0
    for s in _tiles(n):
        d = a[s] - b[s]
        r, c = np.divmod(np.flatnonzero(d != 0.0), n)
        count += r.size
        if count > ENTRY_SHARE * a.size:
            return None
        rows.append(r + s.start)
        cols.append(c)
        vals.append(d[r, c])
        del d
    return _Entries(*map(np.concatenate, (rows, cols, vals)), n)


def _merged_difference(ea, eb):
    """The list ``_difference_entries`` makes of ``a - b``, bit for bit,
    merged from the ``_Entries`` of both matrices in any order of entries
    (a PageRank kernel's list comes column by column): the union of their
    row-major flat indices, the IEEE difference there, 0.0 taken for an
    index that one list lacks, exact zeros dropped; None when the
    difference passes the cut.  It makes no n x n array: the union is one
    sort of both lists' indices, less each index equal to the one before
    it, where each list is looked up in sorted order (as in ``asymmetry``)."""
    n = ea.n
    keyed = []
    for e in (ea, eb):
        keys = e.rows * n + e.cols
        order = np.argsort(keys) if np.any(keys[1:] < keys[:-1]) else slice(None)
        keyed.append((keys[order], e.vals[order]))
    (fa, va), (fb, vb) = keyed
    flat = np.sort(np.concatenate((fa, fb)))
    first = np.ones(flat.size, dtype=bool)
    np.not_equal(flat[1:], flat[:-1], out=first[1:])
    flat = flat[first]
    d = np.zeros(flat.size)
    d[np.searchsorted(flat, fa)] = va
    del fa, keyed
    with np.errstate(over="ignore", invalid="ignore"):
        # 0.0 - v is -v exactly, as a - b is where b's array holds v
        d[np.searchsorted(flat, fb)] -= vb
    keep = d != 0.0
    if np.count_nonzero(keep) > ENTRY_SHARE * (n * n):
        return None
    return _Entries(*np.divmod(flat[keep], n), d[keep], n)


def _tiles(n):
    """Slices of ``_TILE`` consecutive lines that cover ``range(n)``.  A
    last slice one line wide is merged into the one before it: numpy sums a
    tile of one line, a contiguous array, pairwise, not in index order."""
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


def _strongly_connected(op):
    """Whether every node of the operand ``op``, with no negative entry,
    reaches every other along its non-zero entries: a reach search from
    node 0 along the links (``rmatvec``), then one against them
    (``matvec``), each level a product with the indicator of the nodes
    last reached, positive exactly at the nodes one step on."""
    for step in (op.rmatvec, op.matvec):
        frontier = seen = np.arange(op.n) == 0
        while frontier.any():
            hit = step(frontier.astype(float)) > 0.0
            frontier, seen = hit & ~seen, seen | hit
        if not seen.all():
            return False
    return True


def _pow2_exponent(m):
    """The ``e`` that puts the peak |entry| of an array in [1, 2); 0 for zero or empty."""
    peak = max(float(m.max(initial=0.0)), -float(m.min(initial=0.0)))
    return math.frexp(peak)[1] - 1 if peak else 0


def _pow2_normalize(m):
    """``(m * 2^-e, e)`` with ``e = _pow2_exponent(m)``, ``m`` itself for e = 0.
    The scaling is exact, so results on the scaled array scale back bit for bit."""
    e = _pow2_exponent(m)
    return (np.ldexp(m, -e) if e else m), e


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
        The weight matrix, each zero +0.0, read-only: the array held (a
        defensive copy, never aliased), or one formed anew from the list.
        A write through it raises on both forms.
    symmetric : bool
        True iff the matrix equals its transpose within ``matrix_tol``.

    A graph holds one operand, ``_held``: the list of its non-zero entries
    when they are at most ``ENTRY_SHARE`` of all, else its array, read-only.
    ``Graph._adopt(w)`` takes a fresh float64 array without the copy,
    ``Graph._adopt_list(n, rows, cols, vals)`` a finite matrix as a
    row-major list of its entries, whose zeros it drops, and
    ``Graph._holding(op)`` an operand, handed over, with no cut taken.
    """

    def __init__(self, weights):
        self._check_and_set(np.array(weights, dtype=float))

    @classmethod
    def _adopt(cls, w):
        return cls.__new__(cls)._check_and_set(w)

    @classmethod
    def _adopt_list(cls, n, rows, cols, vals):
        keep = vals != 0.0
        e = _Entries(rows[keep], cols[keep], vals[keep], n)
        if e.vals.size > ENTRY_SHARE * n * n:
            return cls._adopt(e.dense())
        return cls._holding(e)

    @classmethod
    def _holding(cls, held):
        return cls.__new__(cls)._set(held)

    def _check_and_set(self, w):
        if w.size == 0:
            raise ParameterError("the matrix is empty")
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ParameterError("the matrix is not square")
        if not np.all(np.isfinite(w)):
            raise ParameterError("the matrix has non-finite entries")
        return self._set(_operand(w))

    def _set(self, held):
        if isinstance(held, _Dense):
            np.add(held.vals, 0.0, out=held.vals)  # -0.0 + 0.0 is +0.0, any other entry kept
            m = held.vals.view()
            m.flags.writeable = False
            held = _Dense(m)
        self._held, self.n = held, held.n
        self.symmetric = held.asymmetry() <= matrix_tol(held.vals)
        return self

    @property
    def weights(self):
        m = self._held.dense()
        m.flags.writeable = False
        return m

    def __repr__(self):
        return f"Graph(n={self.n}, symmetric={self.symmetric})"


class Permutation:
    """A bijection on ``{0, ..., n-1}`` stored as an integral index array."""

    def __init__(self, mapping):
        m = np.asarray(mapping)
        if not (m.dtype.kind in "iu" or m.dtype.kind == "f"
                and np.all((m == np.round(m)) & (abs(m) < 2.0**63))):
            raise ParameterError("mapping entries must be integers")
        m = m.astype(int, copy=False)
        if m.ndim != 1:
            raise ParameterError("mapping must be a flat index sequence")
        n = m.shape[0]
        if n < 1 or not np.array_equal(np.sort(m), np.arange(n)):
            raise ParameterError("mapping must be a bijection on 0..n-1")
        self.mapping = m
        self.n = n

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
    return g._held.relabeled(p.mapping)


def degree_vector(g):
    """Row sums of the weight matrix: entry ``j`` is the out-mass of node j,
    each row added left to right in index order, with the same bits on
    both forms."""
    return g._held.row_sums()
