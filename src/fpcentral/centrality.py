"""Fixed-point centralities on finite graphs.

A centrality here is rho = g(x) where x solves x = f(A, x) for a
permutation-equivariant pair (f, g).  The canonical families are

* ``eigen``:     x = (1/lambda_1) A.T x, the leading-eigenvector equation;
* ``katz``:      x = alpha A.T x + 1,    requiring alpha < 1/opnorm2(A);
* ``pagerank``:  x = alpha A.T D^{-1} x + (1 - alpha)/n, with D the diagonal
  of row sums of A and zero kernel columns at zero out-degree nodes, so the
  result may sum to less than one (reported as is, never renormalized);
* ``affine``:    x = M x + b, a plumbing family for property tests.

For all canonical families g is the identity.  Native norms: 1-norm for
pagerank, 2-norm otherwise.

Katz and PageRank are iterated (``solve``) or solved directly (the closed
forms).  The eigen family takes the spectrum of A.T from LAPACK without
eigenvectors, which the simplicity checks need, and then the one selected
eigenvector by inverse iteration.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    NonConvergenceError,
    NumericalError,
    ParameterError,
    SimplicityError,
)
from .graphs import Permutation, _pow2_normalize, degree_vector, permute, permute_vector
from .norms import operator_norm, vector_norm

FAMILIES = ("eigen", "katz", "pagerank", "affine")
PHI_CHOICES = ("identity", "exp", "exp_neg", "abs")

GAP_TOL = 1e-8
NEGATIVE_RHO_TOL = 1e-12
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


@dataclass
class FixedPointMap:
    """A named, parameterized fixed-point family (f, g).

    ``alpha`` is required for katz and pagerank and must lie in (0, 1); the
    katz bound alpha < 1/opnorm2(A) is checked when the map is bound to a
    graph (in solve and the closed forms).  The affine family is
    x -> affine_M x + affine_b and ignores the graph; it exists to exercise
    the solver and the equivariance checker.
    """

    family: str
    alpha: float | None = None
    affine_M: np.ndarray | None = None
    affine_b: np.ndarray | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ParameterError(f"unknown family {self.family!r}")
        if self.family in ("katz", "pagerank"):
            if self.alpha is None:
                raise ParameterError(f"{self.family} requires alpha")
            if not 0.0 < self.alpha < 1.0:
                raise ParameterError("alpha must lie in (0, 1)")
        else:
            if self.alpha is not None:
                raise ParameterError(f"alpha is not a {self.family} parameter")
        if self.family == "affine":
            if self.affine_M is None or self.affine_b is None:
                raise ParameterError("affine requires affine_M and affine_b")
            m = np.asarray(self.affine_M, dtype=float)
            b = np.asarray(self.affine_b, dtype=float)
            if m.ndim != 2 or m.shape[0] != m.shape[1] or b.shape != (m.shape[0],):
                raise ParameterError("affine_M must be square and match affine_b")
            self.affine_M = m
            self.affine_b = b
        elif self.affine_M is not None or self.affine_b is not None:
            raise ParameterError("affine_M/affine_b only apply to the affine family")


def native_norm_index(family):
    """The norm each family's contraction argument lives in."""
    return 1 if family == "pagerank" else 2


@dataclass
class SolveConfig:
    """Iteration controls for solve()."""

    tolerance: float = 1e-10
    max_iterations: int = 100_000
    initial: np.ndarray | None = None

    def __post_init__(self):
        if not self.tolerance > 0:
            raise ParameterError("tolerance must be positive")
        if self.max_iterations < 1:
            raise ParameterError("max_iterations must be at least 1")


@dataclass
class CentralityResult:
    """Solver output: rho = g(x) plus the fixed-point feature x and
    iteration diagnostics."""

    rho: np.ndarray
    feature_x: np.ndarray
    iterations: int
    residual: float
    contraction_estimate: float


def pagerank_kernel(g):
    """The kernel A.T D^{-1} with columns of zero out-degree nodes zeroed."""
    w = g.weights
    d = degree_vector(g)
    scaled = np.zeros_like(w)
    nz = d != 0.0
    scaled[nz] = w[nz] / d[nz, None]
    return scaled.T


def _iteration_map(map_, g):
    """(M, b) with f(A, x) = M x + b for the iterated families."""
    if map_.family == "katz":
        return map_.alpha * g.weights.T, 1.0
    if map_.family == "pagerank":
        kernel = pagerank_kernel(g)
        kernel *= map_.alpha
        return kernel, (1.0 - map_.alpha) / g.n
    if map_.family == "affine":
        if map_.affine_M.shape[0] != g.n:
            raise ParameterError("affine map size does not match the graph")
        return map_.affine_M, map_.affine_b
    raise ParameterError(
        "the eigen family has no standalone iteration map; use solve() or "
        "eigencentrality()"
    )


def apply_map(map_, g, x):
    """One application of f(A, x) for the given family."""
    x = np.asarray(x, dtype=float)
    if x.shape != (g.n,):
        raise ParameterError("feature vector length must equal the node count")
    m, b = _iteration_map(map_, g)
    return m @ x + b


def _check_katz_bound(g, alpha):
    op2 = operator_norm(g.weights, 2)
    if alpha * op2 >= 1.0:
        raise ParameterError(
            f"katz requires alpha < 1/opnorm2(A) = {1.0 / op2 if op2 > 0 else math.inf:.6g}, "
            f"got alpha={alpha}"
        )


def solve(g, map_, cfg=None):
    """Iterate x_{k+1} = f(A, x_k) to the fixed point and report rho = g(x).

    Parameters
    ----------
    g : Graph
    map_ : FixedPointMap
        The eigen family dispatches to eigencentrality(); the others are
        iterated from the configured start (all-ones by default).
    cfg : SolveConfig, optional

    Returns
    -------
    CentralityResult
        ``residual`` is ||f(A, x) - x|| at the returned x in the family's
        native norm, guaranteed at most the tolerance on success.
        ``contraction_estimate`` is the largest observed ratio of
        consecutive residuals.

    Raises
    ------
    ParameterError
        Parameter bound violations, or a fixed point with negative entries
        (the caller should then normalize feature_x explicitly).
    NonConvergenceError
        Budget exhausted; carries the last iterate and residual.
    """
    cfg = cfg if cfg is not None else SolveConfig()
    if map_.family == "eigen":
        eig = eigencentrality(g, "largest")
        if eig.rho is None:
            raise ParameterError(
                "the leading eigenvector has mixed signs; apply a Normalizer "
                "to feature_x instead"
            )
        return CentralityResult(
            rho=eig.rho,
            feature_x=eig.vector,
            iterations=eig.iterations,
            residual=eig.residual,
            contraction_estimate=0.0,
        )
    if map_.family == "katz":
        _check_katz_bound(g, map_.alpha)
    p = native_norm_index(map_.family)
    if cfg.initial is not None:
        x = np.asarray(cfg.initial, dtype=float).copy()
        if x.shape != (g.n,):
            raise ParameterError("initial vector length must equal the node count")
    else:
        x = np.ones(g.n)
    m, b = _iteration_map(map_, g)
    contraction = 0.0
    prev_residual = None
    residual = math.inf
    for iteration in range(1, cfg.max_iterations + 1):
        fx = m @ x + b
        residual = vector_norm(fx - x, p)
        if prev_residual is not None and prev_residual > 0.0:
            contraction = max(contraction, residual / prev_residual)
        if residual <= cfg.tolerance:
            if float(np.min(x)) < -NEGATIVE_RHO_TOL:
                raise ParameterError(
                    "fixed point has negative entries; centralities must be "
                    "non-negative, apply a Normalizer to feature_x"
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
        f"no fixed point within {cfg.max_iterations} iterations "
        f"(residual {residual:.3e})",
        last_iterate=x,
        residual=residual,
    )


def _solve_direct(lhs, rhs, label):
    """One guarded LAPACK solve of lhs x = rhs.

    Raises NumericalError on a singular system, on non-finite output, or
    when the backward error ||lhs x - rhs||_inf exceeds 1e-10 times
    ||lhs||_inf ||x||_inf + ||rhs||_inf.
    """
    try:
        x = np.linalg.solve(lhs, rhs)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"{label} system is singular: {exc}") from exc
    if not np.all(np.isfinite(x)):
        raise NumericalError(f"{label} solve produced non-finite values")
    residual = vector_norm(lhs @ x - rhs, math.inf)
    scale = operator_norm(lhs, math.inf) * vector_norm(x, math.inf) + vector_norm(rhs, math.inf)
    if residual > SOLVE_RESIDUAL_TOL * scale:
        raise NumericalError(f"{label} solve residual {residual:.3e} exceeds its bound")
    return x


def katz_closed_form(g, alpha):
    """Direct solve of (I - alpha A.T) rho = 1.

    Requires 0 < alpha < 1/opnorm2(A); under that bound the system is
    nonsingular, but the solve is guarded anyway.
    """
    if alpha is None or not alpha > 0.0:
        raise ParameterError("alpha must be positive")
    _check_katz_bound(g, alpha)
    return _solve_direct(np.eye(g.n) - alpha * g.weights.T, np.ones(g.n), "katz")


def pagerank_closed_form(g, alpha):
    """Direct solve of (I - alpha A.T D^{-1}) rho = ((1 - alpha)/n) 1.

    Columns of the kernel at zero out-degree nodes are zero, so mass can
    leak and the result may sum to less than one; it is reported without
    renormalization.
    """
    if alpha is None or not 0.0 < alpha < 1.0:
        raise ParameterError("alpha must lie in (0, 1)")
    lhs = np.eye(g.n) - alpha * pagerank_kernel(g)
    return _solve_direct(lhs, np.full(g.n, (1.0 - alpha) / g.n), "pagerank")


@dataclass
class EigenResult:
    """Leading (or selected) eigenpair of A.T with simplicity diagnostics.

    ``vector`` is the oriented unit eigenvector (2-norm one, entry sum at
    least zero).  ``rho`` is its absolute value when the oriented vector is
    entrywise non-negative within 1e-12, and None otherwise; callers with a
    mixed-sign eigenvector pick a Normalizer themselves.  ``gap`` is the
    distance from the selected eigenvalue to the rest of the spectrum.
    ``iterations`` is the number of inverse-iteration solves that produced
    the vector, normally 1.
    """

    vector: np.ndarray
    value: float
    gap: float
    rho: np.ndarray | None
    iterations: int
    residual: float


def _inverse_iteration(m, lam):
    """An eigenvector of ``m`` for its simple real eigenvalue ``lam``.

    Each step solves (m - sigma I) y = v with sigma = lam, from the fixed
    start v = 1 + arange(n)/n (an all-ones start is orthogonal to many
    eigenvectors of regular graphs), and continues from y scaled to max-abs
    one.  It stops once the unit vector's residual ||m u - lam u||_2 is at
    most INVERSE_RESIDUAL_FACTOR sqrt(n) eps ||m||_inf.  When sigma is an
    exact eigenvalue the solve is singular or non-finite; sigma then moves
    up by INVERSE_SHIFT_ULPS eps ||m||_inf and the step is repeated.

    Returns ``(v, solves)``: v scaled to max-abs one, and the number of
    solves made, failed ones included.  Raises NumericalError after
    INVERSE_MAX_SOLVES solves.
    """
    n = m.shape[0]
    ulp = np.finfo(float).eps * float(np.max(np.sum(np.abs(m), axis=1)))
    tol = INVERSE_RESIDUAL_FACTOR * math.sqrt(n)
    diagonal = np.arange(n)
    v = 1.0 + diagonal / n
    sigma = lam
    residual = math.inf
    for solves in range(1, INVERSE_MAX_SOLVES + 1):
        shifted = m.copy(order="K")
        shifted[diagonal, diagonal] -= sigma
        try:
            y = np.linalg.solve(shifted, v)
        except np.linalg.LinAlgError:
            y = None
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


def eigencentrality(g, which="largest"):
    """Eigenvector centrality with an explicit simplicity check.

    The whole spectrum of A.T comes from LAPACK without eigenvectors:
    ``numpy.linalg.eigvalsh`` for a symmetric graph,
    ``numpy.linalg.eigvals`` otherwise.  Eigenvalues are ranked by
    descending real part.  Once the selected eigenvalue passes every check,
    its eigenvector comes from inverse iteration on A.T - lambda I.  All of
    this runs on A scaled by the exact power of two that puts max |a_ij| in
    [1, 2) (``graphs._pow2_normalize``), so the gap and zero checks below do
    not depend on the weight scale.  The route is chosen by ``g.symmetric``.

    Parameters
    ----------
    g : Graph
    which : "largest" or int
        "largest" selects the eigenvalue with the largest real part.  An
        integer k selects the k-th largest eigenvalue (0-based, algebraic
        order); that route requires a symmetric graph with at most 2000
        nodes.

    Returns
    -------
    EigenResult
        ``value`` is the selected eigenvalue of A, ``gap`` its distance to
        the rest of the spectrum of A, ``residual`` the fixed-point residual
        ||(1/lambda) A.T v - v||_2, and ``iterations`` the number of
        inverse-iteration solves.

    Raises
    ------
    SimplicityError
        If the gap of the scaled matrix falls below 1e-8 (the defining
        equation assumes a simple eigenvalue), or if the selected
        eigenvalue is complex.
    ParameterError
        Zero selected eigenvalue (below 1e-12 scaled), invalid ``which``,
        or a non-symmetric graph on the index route.
    NumericalError
        If the selected eigenvalue of A exceeds float64, or inverse
        iteration does not reach its residual bound.
    """
    w, e = _pow2_normalize(g.weights)
    n = g.n
    if isinstance(which, (int, np.integer)) and not isinstance(which, bool):
        if not g.symmetric:
            raise ParameterError("eigenvalue selection by index requires a symmetric graph")
        if n > 2000:
            raise ParameterError("full eigendecomposition is limited to n <= 2000")
        if not 0 <= which < n:
            raise ParameterError(f"eigenvalue index must lie in [0, {n})")
        k, role = int(which), "selected"
    elif which == "largest":
        if not w.any():
            raise ParameterError(
                "the zero matrix has leading eigenvalue zero; eigencentrality is undefined"
            )
        k, role = 0, "leading"
    else:
        raise ParameterError(f"which must be 'largest' or an integer index, got {which!r}")
    evals = np.linalg.eigvalsh(w) if g.symmetric else np.linalg.eigvals(w.T)
    order = np.argsort(-evals.real, kind="stable")
    lam_c = evals[order[k]]
    others = np.delete(evals, order[k])
    gap = float(np.min(np.abs(others - lam_c))) if others.size else math.inf
    if abs(lam_c.imag) > GAP_TOL * max(1.0, abs(lam_c)):
        raise SimplicityError(
            "the dominant eigenvalue is complex; no simple real leading eigenvalue"
        )
    lam = float(lam_c.real)
    with np.errstate(over="ignore"):  # an infinite gap of A is still simple
        value = float(np.ldexp(lam, e))
        gap_a = float(np.ldexp(gap, e))
    if gap < GAP_TOL:
        raise SimplicityError(
            f"{role} eigenvalue is not simple "
            f"(gap {gap_a:.3e} < {math.ldexp(GAP_TOL, e):.3g})"
        )
    if abs(lam) < 1e-12:
        raise ParameterError(f"{role} eigenvalue is zero; the centrality equation is undefined")
    if math.isinf(value):
        raise NumericalError(f"the {role} eigenvalue of this matrix overflows float64")
    v, solves = _inverse_iteration(w.T, lam)
    v = v / vector_norm(v, 2)
    if float(v.sum()) < 0.0:
        v = -v
    rho = np.abs(v) if float(np.min(v)) >= -NEGATIVE_RHO_TOL else None
    residual = vector_norm(w.T @ v - lam * v, 2) / abs(lam)
    return EigenResult(
        vector=v, value=value, gap=gap_a, rho=rho, iterations=solves, residual=float(residual),
    )


@dataclass(frozen=True)
class Normalizer:
    """A monotone reshaping phi followed by division by the sum, producing
    a probability vector: rho_i = phi(c_i) / sum_j phi(c_j)."""

    phi: str = "identity"

    def __post_init__(self):
        if self.phi not in PHI_CHOICES:
            raise ParameterError(f"phi must be one of {PHI_CHOICES}, got {self.phi!r}")


def normalize(v, normalizer="identity"):
    """Apply a Normalizer: the phi image divided by its sum.

    The exp variants are computed with the usual max/min shift, which
    changes nothing after division.  The identity requires non-negative
    input (the output must be a probability vector); a non-positive
    denominator is an error for every phi.
    """
    if isinstance(normalizer, str):
        normalizer = Normalizer(normalizer)
    v = np.asarray(v, dtype=float)
    if normalizer.phi == "identity":
        if np.any(v < 0.0):
            raise ParameterError("identity normalizer requires non-negative input")
        image = v.astype(float)
    elif normalizer.phi == "exp":
        image = np.exp(v - np.max(v))
    elif normalizer.phi == "exp_neg":
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


def check_equivariance(map_, g, trials=50, seed=0):
    """Sample random relabelings and feature vectors and test
    P f(A, x) = f(P A P.T, P x) within 1e-9 in the max norm.

    Returns True iff the identity held for every sampled trial.
    """
    if trials < 1:
        raise ParameterError("trials must be at least 1")
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        p = Permutation(rng.permutation(g.n))
        x = rng.standard_normal(g.n)
        lhs = permute_vector(apply_map(map_, g, x), p)
        rhs = apply_map(map_, permute(g, p), permute_vector(x, p))
        if float(np.max(np.abs(lhs - rhs), initial=0.0)) > 1e-9:
            return False
    return True
