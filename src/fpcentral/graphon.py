"""Step-function graphons on uniform partitions of [0, 1].

A step graphon is a symmetric bounded kernel that is constant on the k x k
cells of the uniform partition; the induced integral operator is
(A v)(x) = int_0^1 A(x, y) v(y) dy, which on a matched partition is the
matrix action (1/k) values @ v.  So a graphon is computed as its scaled
lift, the finite graph values/k, whose operator norms, spectrum and fixed
points are the graphon's: Katz densities are the finite Katz centralities
of that graph and PageRank densities k times its finite PageRank.
Conversely a finite symmetric graph lifts to the k = n step graphon with
the same weight matrix; under that lift spectra scale by 1/n, cut norms by
1/n^2, and graphon PageRank is n times the finite PageRank.
"""

import math
import numbers

import numpy as np

from .centrality import (SOLVE_MAX_ITERATIONS, _iteration_map, _prepare, eigencentrality,
                         native_norm_index)
from .errors import NonConvergenceError, NumericalError, ParameterError
from .graphs import Graph, matrix_tol
from .norms import vector_norm


class StepFunction:
    """A real-valued function on [0, 1] constant on k uniform blocks."""

    def __init__(self, values):
        values = np.array(values, dtype=float)
        if values.ndim != 1 or values.shape[0] < 1:
            raise ParameterError("step function values must form a nonempty vector")
        if not np.all(np.isfinite(values)):
            raise ParameterError("step function values must be finite")
        self.values = values
        self.k = values.shape[0]

    def __repr__(self):
        return f"StepFunction(k={self.k})"


class StepGraphon:
    """A symmetric kernel on [0, 1]^2 constant on k x k uniform cells.

    ``values[i][j]`` is the kernel value on block (i, j); ``c`` bounds the
    absolute values (c = 1 with values in [0, 1] is the classical graphon
    space, arbitrary c covers signed kernels such as differences).  The
    values pass the checks of ``Graph``, symmetry included.  ``c`` is None
    (the peak |value|) or a finite real number, not a bool, that the peak
    exceeds by at most ``graphs.matrix_tol`` of the values.

    A graphon holds only the Graph of its values; ``values`` is its
    ``weights``, and ``StepGraphon._adopt(g, c)`` takes it without a copy.
    """

    def __init__(self, values, c=None):
        self._set(Graph(values), c)

    @classmethod
    def _adopt(cls, g, c=None):
        w = cls.__new__(cls)
        w._set(g, c)
        return w

    def _set(self, g, c):
        if not g.symmetric:
            raise ParameterError("the matrix is not symmetric")
        # max |value| and its tolerance over what the graph holds
        held = g._held.vals
        peak = max(0.0, float(held.max(initial=0.0)), -float(held.min(initial=0.0)))
        if c is None:
            c = peak
        elif not _is_finite_real(c):
            raise ParameterError(
                f"graphon bound c must be None or a finite real number, got {c!r:.40}"
            )
        elif peak > c + matrix_tol(held):
            raise ParameterError(f"graphon values exceed the declared bound c={c}")
        self._graph = g
        self.k = g.n
        self.c = float(c)

    @property
    def values(self):
        return self._graph.weights

    def __repr__(self):
        return f"StepGraphon(k={self.k}, c={self.c})"


def _is_finite_real(value):
    """True for a real number, not a bool, that is a finite float64."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, numbers.Real):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer beyond float64
        return False


def lift(g, c=None):
    """A finite symmetric graph as a step graphon with n blocks that holds ``g``, uncopied."""
    return StepGraphon._adopt(g, c)


def integral(f):
    """The integral of a step function over [0, 1]."""
    return float(f.values.mean())


def _lift_graph(w):
    """The finite graph values/k, whose matrix action is the graphon
    operator on block values: each value divided by k, in the form the
    values are held."""
    return w._graph._held.divided(w.k)


def _check_pagerank_values(w):
    values = w._graph._held.vals
    if values.min(initial=0.0) < 0.0 or values.max(initial=0.0) > 1.0:
        raise ParameterError("graphon pagerank requires values in [0, 1]")


def _density(prep):
    """The katz or pagerank density of a graphon as block values, the fixed
    point of solve()'s map (``centrality._iteration_map``) on the record of
    its lift, which it uses up.  From the all-ones vector, once the residual
    ||f(x) - x|| is at most 1e-12 ||x|| in the native norm, the steps go on
    while it falls, and the last iterate before it rose is kept.  The guards
    are solve()'s, but a signed katz density is returned as it is."""
    p = native_norm_index(prep.family)
    f = _iteration_map(prep)
    x, settled = np.ones(prep.g.n), None  # (x, residual) once within the bound
    size = vector_norm(x, p)  # at least ||x||: a norm taken, plus the residuals since
    with np.errstate(over="ignore", invalid="ignore"):  # stopped at a non-finite residual
        for _ in range(SOLVE_MAX_ITERATIONS):
            fx = f(x)
            residual = vector_norm(fx - x, p)
            if not math.isfinite(residual):
                raise NumericalError(
                    "the fixed-point iteration overflows float64; rescale the weights"
                )
            if settled is not None and residual >= settled[1]:
                return settled[0] if prep.family == "katz" else prep.g.n * settled[0]
            if settled is None and residual <= 1e-12 * size:
                size = vector_norm(x, p)
            if settled is not None or residual <= 1e-12 * size:
                settled = x, residual
            x, size = fx, size + residual
    raise NonConvergenceError(f"no fixed point within {SOLVE_MAX_ITERATIONS} iterations "
                              f"(residual {residual:.3e})", last_iterate=x, residual=residual)


def graphon_pagerank(w, alpha):
    """PageRank density of a graphon with values in [0, 1].

    Solves rho = alpha (A o D^{-1}) rho + (1 - alpha) 1 where D(y) is the
    degree function int A(x, y) dx and kernel columns with zero degree are
    zero.  The density is k times the finite PageRank of the lift values/k,
    iterated as solve() iterates it (``_density``); with positive degrees
    everywhere it is a probability density (non-negative, unit integral).
    """
    g = _lift_graph(w)
    _check_pagerank_values(w)
    return StepFunction(_density(_prepare("pagerank", alpha, g)))


def graphon_katz(w, alpha):
    """Katz density of a graphon: the solution of (I - alpha A) rho = 1,
    which is the finite Katz centrality of the lift values/k.  It requires
    alpha below the reciprocal of the graphon operator norm; alpha itself
    may exceed 1 when the values are small."""
    return StepFunction(_density(_prepare("katz", alpha, _lift_graph(w))))


def graphon_eigencentrality(w):
    """Leading eigenpair of the graphon operator.

    Returns (rho, lam) with rho the eigenfunction normalized to unit
    L^2([0, 1]) norm and oriented to non-negative integral.  The
    computation runs the finite eigenroutine on values/k, whose spectrum is
    exactly the graphon operator's.  Values that are non-negative and
    connected take its Perron route, which proves lam simple; others take
    its spectrum route, whose gap check applies to that spectrum.
    """
    res = eigencentrality(_lift_graph(w))
    rho = StepFunction(res.vector * math.sqrt(w.k))
    return rho, res.value
