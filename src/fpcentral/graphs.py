"""Dense graph representation, permutations, automorphisms and generators.

Orientation convention, fixed once for the whole package: ``weights[i, j]``
is the weight of the link from node ``i`` to node ``j``, and the canonical
centralities act through the transpose ``A.T``.  Negative weights are
allowed; symmetry is detected, not required.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, SizeLimitError
from .limits import MAX_AUTOMORPHISM_N, exact_limit

SYMMETRY_TOL = 1e-12
WEIGHT_MATCH_TOL = 1e-12
_SYMMETRY_TILE = 128


def max_asymmetry(w):
    """The largest ``|w[i, j] - w[j, i]|`` of a square matrix, 0.0 if empty.

    Exactly the largest entry of ``|w - w^T|``, since ``a - b`` is exactly
    ``-(b - a)`` in floating point, but taken over square tiles of the upper
    triangle, each against its mirror tile, so both stay in cache and no
    n x n temporary is made.
    """
    n = w.shape[0]
    t = _SYMMETRY_TILE
    peaks = [0.0]
    for i in range(0, n, t):
        for j in range(i, n, t):
            d = w[i : i + t, j : j + t] - w[j : j + t, i : i + t].T
            peaks.append(np.max(np.abs(d, out=d)))
    return float(np.max(peaks))


def _pow2_normalize(m):
    """``(m * 2^-e, e)`` for the integer ``e`` that puts the largest absolute
    entry of a non-empty array in [1, 2); ``m`` itself and ``e = 0`` when it
    already lies there or ``m`` is zero.  Power-of-two scaling is exact, so
    results computed on the scaled array scale back bit for bit.
    """
    peak = max(float(m.max()), -float(m.min()))
    e = math.frexp(peak)[1] - 1 if peak else 0
    return (np.ldexp(m, -e) if e else m), e


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
        True iff the matrix equals its transpose within 1e-12.
    """

    def __init__(self, weights):
        w = np.array(weights, dtype=float)
        if w.size == 0:
            raise ParameterError("the matrix is empty")
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ParameterError("the matrix is not square")
        if not np.all(np.isfinite(w)):
            raise ParameterError("the matrix has non-finite entries")
        self.weights = w
        self.n = w.shape[0]
        self.symmetric = max_asymmetry(w) <= SYMMETRY_TOL

    def is_binary(self):
        """True iff every weight is exactly 0 or 1."""
        w = self.weights
        return bool(np.all((w == 0.0) | (w == 1.0)))

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


def permute(g, p):
    """Relabel ``g`` by ``p``: entry ``(p(i), p(j))`` of the output equals
    entry ``(i, j)`` of the input."""
    if p.n != g.n:
        raise ParameterError("permutation size does not match graph")
    out = np.empty_like(g.weights)
    m = p.mapping
    out[np.ix_(m, m)] = g.weights
    return Graph(out)


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
    within 1e-12 (on 0/1 weights that is exact equality)."""
    return bool(np.max(np.abs(permute(g, p).weights - g.weights)) <= WEIGHT_MATCH_TOL)


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
    they assign differs from ``g``'s by more than 1e-12.  The identity is
    always present in the result.
    """
    limit = exact_limit(MAX_AUTOMORPHISM_N)
    if g.n > limit:
        raise SizeLimitError(
            f"automorphism enumeration is limited to n <= {limit}, got n={g.n}"
        )
    w = g.weights
    blocks, d = _lex_blocks(_lex_permutations(g.n))
    heads = blocks[:, 0, :d]
    sub = w[heads[:, :, None], heads[:, None, :]]
    close = np.all(np.abs(sub - w[:d, :d]) <= WEIGHT_MATCH_TOL, axis=(1, 2))
    perms = blocks[close].reshape(-1, g.n)
    keep = []
    chunk = 100_000
    for start in range(0, perms.shape[0], chunk):
        block = perms[start : start + chunk]
        # permuted[k, i, j] = w[block[k, i], block[k, j]]
        permuted = w[block[:, :, None], block[:, None, :]]
        match = np.all(np.abs(permuted - w) <= WEIGHT_MATCH_TOL, axis=(1, 2))
        keep.append(block[match])
    return [Permutation(row) for row in np.concatenate(keep, axis=0)]


def degree_vector(g):
    """Row sums of the weight matrix: entry ``j`` is the out-mass of node j."""
    return g.weights.sum(axis=1)
