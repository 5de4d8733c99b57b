"""Fixed-point centralities on finite graphs.

A centrality here is rho = g(x) where x solves x = f(A, x) for a
permutation-equivariant pair (f, g).  The canonical families are

* ``eigen``:     x = (1/lambda_1) A.T x, the leading-eigenvector equation;
* ``katz``:      x = alpha A.T x + 1,    requiring alpha ||A||_2 < 1;
* ``pagerank``:  x = alpha A.T D^{-1} x + (1 - alpha)/n, with D the diagonal
  of row sums of A and zero kernel columns at zero out-degree nodes, so the
  result may sum to less than one (reported as is, never renormalized).

For all three g is the identity.  Native norms: 1-norm for pagerank, 2-norm
otherwise.  Katz and PageRank act through one matrix M_A, the weights A for
katz and the kernel A.T D^{-1} for pagerank.  Each input is prepared once
(``_prepare``): the record holds its L0 and M_A as one operand (``graphs``)
in the form of the graph's, whose products x -> M_A x and y -> M_A^T y
every iteration step takes: over a list of entries they cost O(entries).

Katz and PageRank are iterated (``solve``) or, for the graphon densities,
solved directly (``_solve_direct``).  The eigen family
takes its leading eigenvalue from a bracket where Perron-Frobenius proves it
simple, else from the spectrum of A.T from LAPACK without eigenvectors,
which the simplicity checks need, and then the leading eigenvector by
inverse iteration.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    NonConvergenceError,
    NumericalError,
    ParameterError,
    SimplicityError,
)
from .graphs import Graph, _Dense, _pow2_normalize, _strongly_connected, degree_vector
from .graphs import _operand as _matrix_operand
from .norms import _operator_norm, operator_norm, vector_norm

FAMILIES = ("eigen", "katz", "pagerank")
PHI_CHOICES = ("identity", "exp", "exp_neg", "abs")

GAP_TOL = 1e-8
NEGATIVE_RHO_TOL = 1e-12
# solve()'s residual bound, in the family's native norm, and its step budget
SOLVE_TOL = 1e-10
SOLVE_MAX_ITERATIONS = 100_000
SOLVE_RESIDUAL_TOL = 1e-10
# Inverse iteration stops once ||A.T v - lam v||_2 <= this factor times
# sqrt(n) eps ||A.T||_inf for a unit v.  The rounding floor of that residual
# (the eigenvalue's own error plus one matrix-vector product) grows about
# like sqrt(n): measured 0.1 to 0.4 times sqrt(n) at n = 1000 to 4000.
INVERSE_RESIDUAL_FACTOR = 4.0
# A singular or non-finite shifted solve moves the shift by this many
# eps ||A.T||_inf; at most this many solves are made.
INVERSE_SHIFT_ULPS = 2.0
INVERSE_MAX_SOLVES = 8
# The Collatz-Wielandt bracket of the Perron root closes within this many
# power steps, or the spectrum is taken instead.
PERRON_MAX_ITERATIONS = 500


def native_norm_index(family):
    """The norm each family's contraction argument lives in."""
    return 1 if family == "pagerank" else 2


@dataclass
class CentralityResult:
    """Solver output: rho = g(x) plus the fixed-point feature x and
    iteration diagnostics."""

    rho: np.ndarray
    feature_x: np.ndarray
    iterations: int
    residual: float
    contraction_estimate: float


def _degrees(g):
    """The out-degrees D of the kernel A.T D^{-1}; one past float64 is
    refused, since dividing by it would zero its column and lose its mass."""
    with np.errstate(over="ignore"):
        d = degree_vector(g)
    if not np.isfinite(d).all():
        raise NumericalError("an out-degree overflows float64; rescale the weights")
    return d


class _Prepared(NamedTuple):
    """One input as its family's map sees it, built once (``_prepare``).

    ``op`` is M_A as an operand (``graphs``): the graph's for katz and
    eigen, the kernel A^T D^-1 for pagerank; ``l0`` its contraction
    modulus, None for eigen.
    """

    family: str
    alpha: float | None
    g: Graph
    op: object
    l0: float | None


def _operand(family, alpha, g):
    """The record of ``g`` without its L0: M_A."""
    op = g._held.kernel(_degrees(g)) if family == "pagerank" else g._held
    return _Prepared(family, alpha, g, op, None)


def _prepare(family, alpha, g):
    """The record of ``g`` for a family: M_A, and L0 for katz and pagerank.

    The one place that checks the contraction rule, in this order: the
    family is one of ``FAMILIES``; eigen takes no alpha; katz needs
    alpha > 0 and pagerank 0 < alpha < 1; and L0 = alpha ||A||_2 (katz) or
    alpha ||A^T D^-1||_1 (pagerank), of a graph or of a graphon's lift, is
    below 1.
    """
    if family not in FAMILIES:
        raise ParameterError(f"unknown family {family!r}")
    if family == "eigen":
        if alpha is not None:
            raise ParameterError(f"alpha is not a {family} parameter")
        return _operand(family, alpha, g)
    if alpha is None or not (alpha > 0.0 if family == "katz" else 0.0 < alpha < 1.0):
        domain = "alpha > 0" if family == "katz" else "0 < alpha < 1"
        raise ParameterError(f"{family} requires {domain}, got alpha={alpha}")
    prep = _operand(family, alpha, g)
    l0 = alpha * _operator_norm(prep.op, native_norm_index(family))
    if not l0 < 1.0:
        label = "alpha * ||A||_2" if family == "katz" else "alpha * ||A^T D^-1||_1"
        raise ParameterError(f"{family} requires {label} < 1, got {l0:.6g}")
    return prep._replace(l0=l0)


def _iteration_map(prep):
    """f(A, .) as a function of x from a katz or pagerank record:
    x -> alpha (A.T x) + 1 for katz, without forming alpha A.T, and
    x -> (alpha M) x + (1 - alpha)/n for pagerank, with alpha M as
    ``scaled`` makes it: a dense kernel is scaled in place, which uses the
    record up."""
    alpha = prep.alpha
    if prep.family == "katz":
        return lambda x: alpha * prep.op.rmatvec(x) + 1.0
    b = (1.0 - alpha) / prep.g.n
    scaled = prep.op.scaled(alpha)
    return lambda x: scaled.matvec(x) + b


def solve(g, family, alpha=None):
    """Iterate x_{k+1} = f(A, x_k) to the fixed point and report rho = g(x).

    Parameters
    ----------
    g : Graph
    family : one of ``FAMILIES``
        The eigen family dispatches to eigencentrality(); the others are
        iterated from the all-ones vector until the residual is at most
        ``SOLVE_TOL``, within ``SOLVE_MAX_ITERATIONS`` steps.
    alpha : float, optional
        Required for katz and pagerank, refused for eigen (``_prepare``).

    Returns
    -------
    CentralityResult
        ``residual`` is ||f(A, x) - x|| at the returned x in the family's
        native norm, guaranteed at most ``SOLVE_TOL`` on success.
        ``contraction_estimate`` is the largest observed ratio of
        consecutive residuals.

    Raises
    ------
    ParameterError
        A refusal of ``_prepare``, or a fixed point with negative entries
        (the caller should then normalize feature_x explicitly).
    NonConvergenceError
        Budget exhausted; carries the last iterate and residual.
    NumericalError
        A step overflows float64, so its residual is not finite.

    Each step is one product with M_A, in the form the graph holds it
    (``graphs``): over its list of non-zero entries in O(entries), or a
    dense BLAS product.
    """
    return _solve(_prepare(family, alpha, g))


def _solve(prep):
    """solve() on a record, which the solve uses up (``_iteration_map``)."""
    g = prep.g
    if prep.family == "eigen":
        eig = eigencentrality(g)
        if eig.rho is None:
            raise ParameterError(
                "the leading eigenvector has mixed signs; apply normalize() "
                "to feature_x instead"
            )
        return CentralityResult(
            rho=eig.rho,
            feature_x=eig.vector,
            iterations=eig.iterations,
            residual=eig.residual,
            contraction_estimate=0.0,
        )
    p = native_norm_index(prep.family)
    x = np.ones(g.n)
    f = _iteration_map(prep)
    contraction = 0.0
    prev_residual = None
    residual = math.inf
    # a product past float64 ends the solve at its first non-finite residual
    with np.errstate(over="ignore", invalid="ignore"):
        for iteration in range(1, SOLVE_MAX_ITERATIONS + 1):
            fx = f(x)
            residual = vector_norm(fx - x, p)
            if not math.isfinite(residual):
                raise NumericalError(
                    "the fixed-point iteration overflows float64; rescale the weights"
                )
            if prev_residual is not None and prev_residual > 0.0:
                contraction = max(contraction, residual / prev_residual)
            if residual <= SOLVE_TOL:
                if float(np.min(x)) < -NEGATIVE_RHO_TOL:
                    raise ParameterError(
                        "fixed point has negative entries; centralities must be "
                        "non-negative, apply normalize() to feature_x"
                    )
                return CentralityResult(
                    rho=np.maximum(x, 0.0),
                    feature_x=x,
                    iterations=iteration,
                    residual=residual,
                    contraction_estimate=contraction,
                )
            prev_residual = residual
            x = fx
    raise NonConvergenceError(
        f"no fixed point within {SOLVE_MAX_ITERATIONS} iterations "
        f"(residual {residual:.3e})",
        last_iterate=x,
        residual=residual,
    )


def _solve_direct(prep):
    """Direct solve of (I - alpha A.T) rho = 1 on a katz record, or of
    (I - alpha A.T D^{-1}) rho = ((1 - alpha)/n) 1 on a pagerank one.

    The record's L0 < 1 (``_prepare``) makes the system nonsingular, but
    the solve is guarded anyway: it raises NumericalError on a singular
    system, on non-finite output, or when the backward error
    ||lhs x - rhs||_inf exceeds 1e-10 times ||lhs||_inf ||x||_inf +
    ||rhs||_inf.  PageRank columns at zero out-degree nodes are zero, so
    mass can leak: the result may sum to less than one and is reported
    without renormalization.  The left side is built in the one array
    alpha M_A makes, never the graph's (a dense kernel is scaled in place,
    which uses the record up), transposed for katz: 0 - m_ij everywhere,
    then 1 added on the diagonal, the bits of ``np.eye(n) - m``.
    """
    family, alpha, n = prep.family, prep.alpha, prep.g.n
    lhs = prep.op.scaled(alpha).dense()
    if family == "katz":
        lhs, rhs = lhs.T, np.ones(n)
    else:
        rhs = np.full(n, (1.0 - alpha) / n)
    np.subtract(0.0, lhs, out=lhs)
    diagonal = np.arange(n)
    lhs[diagonal, diagonal] += 1.0
    try:
        x = np.linalg.solve(lhs, rhs)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"{family} system is singular: {exc}") from exc
    if not np.all(np.isfinite(x)):
        raise NumericalError(f"{family} solve produced non-finite values")
    residual = vector_norm(lhs @ x - rhs, math.inf)
    scale = operator_norm(lhs, math.inf) * vector_norm(x, math.inf) + vector_norm(rhs, math.inf)
    if residual > SOLVE_RESIDUAL_TOL * scale:
        raise NumericalError(f"{family} solve residual {residual:.3e} exceeds its bound")
    return x


@dataclass
class EigenResult:
    """Leading eigenpair of A.T with simplicity diagnostics.

    ``vector`` is the oriented unit eigenvector (2-norm one, entry sum at
    least zero).  ``rho`` is its absolute value when the oriented vector is
    entrywise non-negative within 1e-12, and None otherwise; callers with a
    mixed-sign eigenvector pick a ``normalize`` phi themselves.  ``gap`` is
    the distance from the leading eigenvalue to the rest of the spectrum, or
    None on the Perron route, which proves it simple (``eigencentrality``).
    ``iterations`` is the number of inverse-iteration solves that produced
    the vector, normally 1.
    """

    vector: np.ndarray
    value: float
    gap: float | None
    rho: np.ndarray | None
    iterations: int
    residual: float


def _perron_root(w, tol):
    """The Perron root of A.T for the array ``w`` of a non-negative,
    strongly connected graph, or None if its bracket does not close.

    Power steps on A.T + I from the all-ones vector, by the products of
    ``w``'s operand (over its list below the cut), keep x positive, so
    min_i (A.T x)_i / x_i <= rho <= max_i (A.T x)_i / x_i (Collatz-Wielandt).
    The + I makes a periodic graph, such as a directed cycle, converge.  The
    midpoint is returned once the bracket is at most ``tol`` wide.
    """
    op = _matrix_operand(w)
    x = np.ones(w.shape[0])
    with np.errstate(divide="ignore", invalid="ignore"):  # an entry of x that underflows
        for _ in range(PERRON_MAX_ITERATIONS):
            y = op.rmatvec(x)
            ratios = y / x
            lo, hi = float(ratios.min()), float(ratios.max())
            if hi - lo <= tol:
                return 0.5 * (lo + hi)
            x += y
            x /= x.max()
    return None


def _inverse_iteration(m, lam, ulp):
    """An eigenvector of ``m`` for its simple real eigenvalue ``lam``.

    Each step solves (m - sigma I) y = v with sigma = lam, from the fixed
    start v = 1 + arange(n)/n (an all-ones start is orthogonal to many
    eigenvectors of regular graphs), and continues from y scaled to max-abs
    one.  It stops once the unit vector's residual ||m u - lam u||_2 is at
    most INVERSE_RESIDUAL_FACTOR sqrt(n) ``ulp`` (eps ||m||_inf).  When
    sigma is an exact eigenvalue the solve is singular or non-finite; sigma
    then moves up by INVERSE_SHIFT_ULPS ulp and the step is repeated.

    Each solve shifts the diagonal of ``m`` itself, which must be the
    caller's own array, and restores it before the solve's outcome is used,
    so no shifted copy is made.

    Returns ``(v, solves)``: v scaled to max-abs one, and the number of
    solves made, failed ones included.  Raises NumericalError after
    INVERSE_MAX_SOLVES solves.
    """
    n = m.shape[0]
    tol = INVERSE_RESIDUAL_FACTOR * math.sqrt(n)
    diagonal = np.arange(n)
    own = m[diagonal, diagonal]
    v = 1.0 + diagonal / n
    sigma = lam
    residual = math.inf
    for solves in range(1, INVERSE_MAX_SOLVES + 1):
        m[diagonal, diagonal] = own - sigma
        try:
            y = np.linalg.solve(m, v)
        except np.linalg.LinAlgError:
            y = None
        finally:
            m[diagonal, diagonal] = own
        if y is None or not np.all(np.isfinite(y)):
            sigma += INVERSE_SHIFT_ULPS * ulp
            continue
        v = y / np.max(np.abs(y))
        u = v / math.sqrt(float(v @ v))
        # in units of ulp, so that squaring cannot overflow for huge weights
        residual = float(np.linalg.norm((m @ u - lam * u) / ulp))
        if residual <= tol:
            return v, solves
    raise NumericalError(
        f"inverse iteration for eigenvalue {lam:.6g} did not converge in "
        f"{INVERSE_MAX_SOLVES} solves (residual {residual:.3g} eps ||A.T||_inf)"
    )


def eigencentrality(g):
    """Eigenvector centrality of a simple leading eigenvalue, the one with
    the largest real part, found by one of two routes:

    * Perron: a directed graph with no negative weight that is strongly
      connected.  Perron-Frobenius proves its leading eigenvalue simple, so
      no gap is measured: the value is the midpoint of a Collatz-Wielandt
      bracket (``_perron_root``), or the spectrum's if that does not close.
    * spectrum: the whole spectrum of A.T from LAPACK without eigenvectors,
      ``numpy.linalg.eigvalsh`` for a symmetric graph and
      ``numpy.linalg.eigvals`` otherwise, checked for a real leading
      eigenvalue at least 1e-8 from the rest.

    Its eigenvector comes from inverse iteration on A.T - lambda I.  All of
    this runs on A scaled by the exact power of two that puts max |a_ij| in
    [1, 2) (``graphs._pow2_normalize``), so no check depends on the scale.

    Returns
    -------
    EigenResult
        ``value`` is the leading eigenvalue of A, ``gap`` its distance to
        the rest of the spectrum of A (None on the Perron route),
        ``residual`` the fixed-point residual ||(1/lambda) A.T v - v||_2,
        and ``iterations`` the number of inverse-iteration solves.

    Raises
    ------
    SimplicityError
        If the gap of the scaled matrix falls below 1e-8 (the defining
        equation assumes a simple eigenvalue), or if the leading
        eigenvalue is complex.
    ParameterError
        A zero matrix, or a zero leading eigenvalue (below 1e-12 scaled).
    NumericalError
        If the leading eigenvalue of A exceeds float64, or inverse
        iteration does not reach its residual bound.
    """
    w = g._held.dense()  # a list forms an array of its own, scaled in place
    w, e = _pow2_normalize(w, out=w if w.flags.writeable else None)
    if not w.any():
        raise ParameterError(
            "the zero matrix has leading eigenvalue zero; eigencentrality is undefined"
        )
    ulp = np.finfo(float).eps * _operator_norm(_Dense(w.T), math.inf)  # no n x n temporary
    lam = gap_a = None
    if not g.symmetric and w.min() >= 0.0 and _strongly_connected(w):
        lam = _perron_root(w, INVERSE_RESIDUAL_FACTOR * math.sqrt(g.n) * ulp)
    if lam is None:
        evals = np.linalg.eigvalsh(w) if g.symmetric else np.linalg.eigvals(w.T)
        lead = int(np.argmax(evals.real))  # the first of equal real parts
        lam_c = evals[lead]
        others = np.delete(evals, lead)
        gap = float(np.min(np.abs(others - lam_c))) if others.size else math.inf
        if abs(lam_c.imag) > GAP_TOL * max(1.0, abs(lam_c)):
            raise SimplicityError(
                "the dominant eigenvalue is complex; no simple real leading eigenvalue"
            )
        lam = float(lam_c.real)
        with np.errstate(over="ignore"):  # an infinite gap of A is still simple
            gap_a = float(np.ldexp(gap, e))
        if gap < GAP_TOL:
            raise SimplicityError(
                "leading eigenvalue is not simple "
                f"(gap {gap_a:.3e} < {math.ldexp(GAP_TOL, e):.3g})"
            )
    if abs(lam) < 1e-12:
        raise ParameterError("leading eigenvalue is zero; the centrality equation is undefined")
    with np.errstate(over="ignore"):
        value = float(np.ldexp(lam, e))
    if math.isinf(value):
        raise NumericalError("the leading eigenvalue of this matrix overflows float64")
    if not w.flags.writeable:  # the graph's array, which inverse iteration must not write
        w = w.copy(order="K")
    v, solves = _inverse_iteration(w.T, lam, ulp)
    v = v / vector_norm(v, 2)
    if float(v.sum()) < 0.0:
        v = -v
    rho = np.abs(v) if float(np.min(v)) >= -NEGATIVE_RHO_TOL else None
    residual = vector_norm(w.T @ v - lam * v, 2) / abs(lam)
    return EigenResult(
        vector=v, value=value, gap=gap_a, rho=rho, iterations=solves, residual=float(residual),
    )


def normalize(v, phi="identity"):
    """A monotone reshaping ``phi``, one of ``PHI_CHOICES``, followed by
    division by the sum, producing a probability vector:
    rho_i = phi(c_i) / sum_j phi(c_j).

    The exp variants are computed with the usual max/min shift, which
    changes nothing after division.  The identity requires non-negative
    input (the output must be a probability vector); a non-positive
    denominator is an error for every phi.
    """
    if phi not in PHI_CHOICES:
        raise ParameterError(f"phi must be one of {PHI_CHOICES}, got {phi!r}")
    v = np.asarray(v, dtype=float)
    if phi == "identity":
        if np.any(v < 0.0):
            raise ParameterError("identity normalizer requires non-negative input")
        image = v.astype(float)
    elif phi == "exp":
        image = np.exp(v - np.max(v))
    elif phi == "exp_neg":
        image = np.exp(-(v - np.min(v)))
    else:
        image = np.abs(v)
    total = float(image.sum())
    if not total > 0.0:
        raise ParameterError("normalizer denominator must be positive")
    return image / total


def grassmann_distance(x, y):
    """Principal angle between the spans of two nonzero vectors, in
    [0, pi/2]; the natural difference measure for eigenvector-type results,
    which are only defined up to their linear span."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    nx = vector_norm(x, 2)
    ny = vector_norm(y, 2)
    if nx == 0.0 or ny == 0.0:
        raise ParameterError("grassmann distance requires nonzero vectors")
    cosine = min(abs(float(x @ y)) / (nx * ny), 1.0)
    return float(math.acos(cosine))
