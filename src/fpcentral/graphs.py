"""Dense graph representation, permutations, automorphisms and generators.

Orientation convention, fixed once for the whole package: ``weights[i, j]``
is the weight of the link from node ``i`` to node ``j``, and the canonical
centralities act through the transpose ``A.T``.  Negative weights are
allowed; symmetry is detected, not required.
"""

import itertools
from dataclasses import dataclass, field

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


class Graph:
    """A dense weighted graph on the node set ``{0, ..., n-1}``.

    Parameters
    ----------
    weights : (n, n) array_like
        Entry ``(i, j)`` is the weight of the directed link from ``i`` to
        ``j``.  Must be square with finite entries.

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
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ParameterError("weights must be a square matrix")
        if w.shape[0] < 1:
            raise ParameterError("a graph needs at least one node")
        if not np.all(np.isfinite(w)):
            raise ParameterError("weights must be finite")
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
    """A bijection on ``{0, ..., n-1}`` stored as an index array."""

    def __init__(self, mapping):
        m = np.asarray(mapping, dtype=int)
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
    w = np.zeros((n, n))
    if spec.kind == "cycle":
        for i in range(n):
            j = (i + 1) % n
            if i != j:
                w[i, j] = 1.0
                w[j, i] = 1.0
    elif spec.kind == "complete":
        w = np.ones((n, n)) - np.eye(n)
    elif spec.kind == "star":
        for i in range(1, n):
            w[0, i] = 1.0
            w[i, 0] = 1.0
    elif spec.kind == "path":
        for i in range(n - 1):
            w[i, i + 1] = 1.0
            w[i + 1, i] = 1.0
    else:  # erdos_renyi
        rng = np.random.default_rng(spec.seed)
        upper = rng.random((n, n)) < spec.edge_prob
        for i in range(n):
            for j in range(i + 1, n):
                if upper[i, j]:
                    w[i, j] = 1.0
                    w[j, i] = 1.0
    return Graph(w)


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
    """True iff relabeling by ``p`` leaves the weight matrix unchanged.

    Comparison is exact for 0/1 graphs and within 1e-12 otherwise.
    """
    if p.n != g.n:
        raise ParameterError("permutation size does not match graph")
    permuted = permute(g, p).weights
    if g.is_binary():
        return bool(np.array_equal(permuted, g.weights))
    return bool(np.max(np.abs(permuted - g.weights), initial=0.0) <= WEIGHT_MATCH_TOL)


def enumerate_automorphisms(g):
    """All automorphisms of ``g``, in lexicographic order of the mapping.

    Brute force over all ``n!`` candidate permutations, so the node count
    is capped at 9 (lower if FPC_MAX_EXACT_N says so).  The identity is
    always present in the result.
    """
    limit = exact_limit(MAX_AUTOMORPHISM_N)
    if g.n > limit:
        raise SizeLimitError(
            f"automorphism enumeration is limited to n <= {limit}, got n={g.n}"
        )
    w = g.weights
    n = g.n
    binary = g.is_binary()
    perms = np.array(list(itertools.permutations(range(n))), dtype=int)
    keep = []
    chunk = 100_000
    for start in range(0, perms.shape[0], chunk):
        block = perms[start : start + chunk]
        # permuted[k, i, j] = w[block[k, i], block[k, j]]
        permuted = w[block[:, :, None], block[:, None, :]]
        if binary:
            mask = np.all(permuted == w, axis=(1, 2))
        else:
            mask = np.all(np.abs(permuted - w) <= WEIGHT_MATCH_TOL, axis=(1, 2))
        keep.append(block[mask])
    found = np.concatenate(keep, axis=0)
    return [Permutation(row) for row in found]


def degree_vector(g):
    """Row sums of the weight matrix: entry ``j`` is the out-mass of node j."""
    return g.weights.sum(axis=1)
