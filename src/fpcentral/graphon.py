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

from .centrality import eigencentrality, katz_closed_form, pagerank_closed_form
from .errors import ParameterError
from .graphs import Graph, Permutation, permute
from .norms import cut_norm_exact, operator_norm

VALUE_MATCH_TOL = 1e-12


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
    values pass the checks of ``Graph`` (square, non-empty, finite) and must
    be symmetric within its 1e-12.  ``c`` must be None (the largest
    absolute value) or a finite real number that is not a bool.
    """

    def __init__(self, values, c=None):
        g = Graph(values)
        if not g.symmetric:
            raise ParameterError("the matrix is not symmetric")
        values = g.weights
        peak = float(np.max(np.abs(values), initial=0.0))
        if c is None:
            c = peak
        elif not _is_finite_real(c):
            raise ParameterError(
                f"graphon bound c must be None or a finite real number, got {c!r:.40}"
            )
        elif peak > c + VALUE_MATCH_TOL:
            raise ParameterError(f"graphon values exceed the declared bound c={c}")
        self.values = values
        self.k = values.shape[0]
        self.c = float(c)

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
    """Represent a finite symmetric graph as a step graphon with n blocks."""
    if not g.symmetric:
        raise ParameterError("only symmetric graphs lift to graphons")
    return StepGraphon(g.weights, c=c)


def resample(f, k):
    """Rewrite a step function on a refinement of its partition (k must be
    a multiple of f.k); exact, no quadrature."""
    if k < 1 or k % f.k != 0:
        raise ParameterError(f"cannot resample {f.k} blocks to {k}")
    return StepFunction(np.repeat(f.values, k // f.k))


def refine(w, k):
    """Rewrite a step graphon on a refinement of its partition."""
    if k < 1 or k % w.k != 0:
        raise ParameterError(f"cannot refine {w.k} blocks to {k}")
    reps = k // w.k
    return StepGraphon(np.kron(w.values, np.ones((reps, reps))), c=w.c)


def integral(f):
    """The integral of a step function over [0, 1]."""
    return float(f.values.mean())


def step_lp_norm(f, p):
    """The L^p([0, 1]) norm of a step function, p in {1, 2, inf}."""
    v = np.abs(f.values)
    if p in (1, "1"):
        return float(v.mean())
    if p in (2, "2"):
        return float(math.sqrt((v * v).mean()))
    if p in (math.inf, "inf", float("inf")):
        return float(v.max())
    raise ParameterError(f"p must be one of 1, 2, inf, got {p!r}")


def apply(w, v):
    """The graphon operator acting on a step function.

    Partitions are matched by exact resampling when one refines the other
    (block counts where one divides the other); anything else has no exact
    common step representation here and is rejected.
    """
    if v.k != w.k:
        if w.k % v.k == 0:
            v = resample(v, w.k)
        elif v.k % w.k == 0:
            w = refine(w, v.k)
        else:
            raise ParameterError(
                f"incommensurate partitions: {w.k} and {v.k} blocks"
            )
    return StepFunction(w.values @ v.values / w.k)


def _lift_graph(w):
    """The finite graph values/k, whose matrix action is the graphon
    operator on block values."""
    return Graph(w.values / w.k)


def graphon_degree(w):
    """The degree function D(y) = int A(x, y) dx as block values."""
    return w.values.mean(axis=0)


def graphon_pagerank(w, alpha):
    """PageRank density of a graphon with values in [0, 1].

    Solves rho = alpha (A o D^{-1}) rho + (1 - alpha) 1 where D(y) is the
    degree function int A(x, y) dx and kernel columns with zero degree are
    zero.  The density is k times the finite PageRank of the lift values/k,
    from one guarded direct solve; with positive degrees everywhere it is a
    probability density (non-negative, unit integral).
    """
    vals = w.values
    if np.min(vals) < 0.0 or np.max(vals) > 1.0:
        raise ParameterError("graphon pagerank requires values in [0, 1]")
    return StepFunction(w.k * pagerank_closed_form(_lift_graph(w), alpha))


def graphon_katz(w, alpha):
    """Katz density of a graphon: the solution of (I - alpha A) rho = 1,
    which is the finite Katz centrality of the lift values/k.  It requires
    alpha below the reciprocal of the graphon operator norm; alpha itself
    may exceed 1 when the values are small."""
    return StepFunction(katz_closed_form(_lift_graph(w), alpha))


def graphon_eigencentrality(w):
    """Leading eigenpair of the graphon operator.

    Returns (rho, lam) with rho the eigenfunction normalized to unit
    L^2([0, 1]) norm and oriented to non-negative integral.  The
    computation runs the finite symmetric eigenroutine on values/k, whose
    spectrum is exactly the graphon operator's; the simplicity gap check
    applies to that spectrum.
    """
    res = eigencentrality(_lift_graph(w), "largest")
    rho = StepFunction(res.vector * math.sqrt(w.k))
    return rho, res.value


def graphon_cut_norm(w):
    """Cut norm of a step graphon: sup over measurable S, T of the absolute
    integral of the kernel over S x T.  For a step kernel the supremum is
    attained on unions of blocks, so it equals the matrix cut norm of the
    values scaled by 1/k^2."""
    return cut_norm_exact(w.values).value / w.k**2


def graphon_op_norm(w):
    """L^2 -> L^2 operator norm of a step graphon (opnorm2 of the values
    scaled by 1/k)."""
    return operator_norm(w.values, 2) / w.k


def block_permute(w, p):
    """Relabel the blocks of a step graphon (a measure-preserving map)."""
    if not isinstance(p, Permutation):
        p = Permutation(p)
    return StepGraphon(permute(Graph(w.values), p).weights, c=w.c)
