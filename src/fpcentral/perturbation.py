"""Machine-checked perturbation certificates for fixed-point centralities.

The contraction route: with L0 < 1 the contraction modulus of f(A, .) on
a feasible ball of radius R, L1 the graph-sensitivity constant, and Lg
the Lipschitz constant of the output map g,

    ||rho_A - rho_B|| <= L1 Lg / (1 - L0) * ||A - B||_op.

Variants swap the right-hand side for a minimum over relabelings
(Wasserstein form), or for sqrt(8 * cut-distance) on symmetric matrices
with entries in [-1, 1].  A certificate records both sides, the constants
actually used, a content digest of the inputs, and whether every
ingredient was computed exactly (``certified``); heuristic or sampled
ingredients clear the flag but never weaken ``holds``, which always
compares the two sides as computed.

All seven certificates run through one body, ``_certify``, on a pair of
inputs as the finite code sees them.  Two adapters build that pair:

* a graph enters as itself, with coordinate weight 1, solved by solve();
* a step graphon enters as its scaled lift, the graph values/k, with
  coordinate weight 1/k; its densities come from graphon_katz and
  graphon_pagerank.

The weight w is the measure of one coordinate, so every graphon quantity
is the finite one on values/k: operator norms are unchanged, the
L^p([0, 1]) norm is ||v||_{p,w} = w^(1/p) ||v||_p, the mass of a density
is w * sum(rho), the cut distance is w times the cut norm of the lifts'
difference, and W_p between densities is w^(1/p - 1) times W_p between
the probability vectors w * rho / mass.

Two conventions are recorded in ``notes`` wherever they apply: PageRank
perturbations are measured on the effective kernels A^T D^{-1} (the raw
weight difference does not bound the kernel difference), and the
feasible radius is enlarged when a fixed point falls outside the a
priori iterate ball, with L1 recomputed from the enlarged radius.
"""

import hashlib
import math

from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

from .centrality import apply_map, native_norm_index, pagerank_kernel, solve
from .errors import ParameterError
from .graphon import _lift_graph, graphon_katz, graphon_pagerank
from .graphs import Graph
from .norms import min_permuted_distance, operator_norm, vector_norm
from .transport import wasserstein

HOLDS_TOL = 1e-9
_NORM_PS = (1, 2, math.inf)
_SUBSET_NOTE = (
    "block relabelings are a strict subset of the measure-preserving "
    "bijections; the right-hand side is an upper bound on the true infimum"
)


@dataclass(frozen=True)
class LipschitzConstants:
    """The constants of the contraction route, tied to a norm index and to
    the feasible ball of radius ``feasible_radius`` they were computed on.

    ``method`` is "analytic" for closed-form constants (L0 < 1 enforced)
    and "empirical" for sampled ratio maxima, which are lower bounds on
    the true suprema and therefore never yield certified certificates.
    """

    L0: float
    L1: float
    Lg: float
    norm_p: float
    method: str
    feasible_radius: float

    def __post_init__(self):
        if self.norm_p not in _NORM_PS:
            raise ParameterError(f"norm_p must be one of {_NORM_PS}")
        if self.method not in ("analytic", "empirical"):
            raise ParameterError("method must be 'analytic' or 'empirical'")
        if self.L0 < 0.0 or self.L1 < 0.0 or self.Lg < 0.0:
            raise ParameterError("constants must be non-negative")
        if self.method == "analytic" and not self.L0 < 1.0:
            raise ParameterError(
                f"analytic constants require L0 < 1, got L0={self.L0:.6g}; "
                "the contraction hypothesis fails for this graph and map"
            )
        if not self.feasible_radius > 0.0:
            raise ParameterError("feasible_radius must be positive")


@dataclass(frozen=True)
class BoundCertificate:
    """One checked instance of a perturbation inequality."""

    bound: float
    observed: float
    holds: bool
    slack: float
    certified: bool
    norm: str
    constants: LipschitzConstants
    inputs_digest: str
    notes: tuple

    def to_dict(self):
        return {
            "bound": self.bound,
            "observed": self.observed,
            "holds": self.holds,
            "slack": self.slack,
            "certified": self.certified,
            "norm": self.norm,
            "constants": {
                "L0": self.constants.L0,
                "L1": self.constants.L1,
                "Lg": self.constants.Lg,
                "R": self.constants.feasible_radius,
                "method": self.constants.method,
            },
            "inputs_digest": self.inputs_digest,
            "notes": list(self.notes),
        }


def _digest(*parts):
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            arr = np.ascontiguousarray(part, dtype=float)
            h.update(str(arr.shape).encode())
            h.update(arr.tobytes())
        else:
            h.update(repr(part).encode())
        h.update(b"|")
    return h.hexdigest()


def _certificate(bound, observed, certified, norm_p, consts, digest, notes):
    bound = float(bound)
    observed = float(observed)
    return BoundCertificate(
        bound=bound,
        observed=observed,
        holds=observed <= bound + HOLDS_TOL,
        slack=bound - observed,
        certified=certified,
        norm="inf" if norm_p == math.inf else str(int(norm_p)),
        constants=consts,
        inputs_digest=digest,
        notes=tuple(notes),
    )


def _l1(family, alpha, radius):
    return alpha * radius if family == "katz" else radius


def _analytic(g, weight, family, alpha):
    """constants_analytic on the matrix of ``g``, whose coordinates have
    measure ``weight``: R = ||b||_{p,weight}/(1 - L0) + 1 for the constant
    term b, with ||1||_{2,weight} = sqrt(weight n) for katz and
    ||b||_{1,weight} = 1 - alpha for pagerank."""
    if family == "katz":
        if alpha is None or not alpha > 0.0:
            raise ParameterError("alpha must be positive")
        l0, label = alpha * operator_norm(g.weights, 2), "alpha * ||A||_2"
        b_norm = math.sqrt(weight * g.n)
    elif family == "pagerank":
        if alpha is None or not 0.0 < alpha < 1.0:
            raise ParameterError("alpha must lie in (0, 1)")
        l0, label = alpha * operator_norm(pagerank_kernel(g), 1), "alpha * ||M||_1"
        b_norm = 1.0 - alpha
    else:
        raise ParameterError("analytic constants exist for the katz and pagerank families")
    if l0 >= 1.0:
        raise ParameterError(f"contraction hypothesis fails: {label} = {l0:.6g} >= 1")
    radius = b_norm / (1.0 - l0) + 1.0
    return LipschitzConstants(
        L0=l0, L1=_l1(family, alpha, radius), Lg=1.0, norm_p=native_norm_index(family),
        method="analytic", feasible_radius=radius,
    )


def constants_analytic(g, map_):
    """Closed-form contraction constants for the katz and pagerank maps.

    katz (2-norm): L0 = alpha ||A||_2, R = sqrt(n)/(1 - L0) + 1 (the
    a priori bound on iterates from the all-ones start, plus margin),
    L1 = alpha R, Lg = 1.  pagerank (1-norm): L0 = alpha ||A^T D^-1||_1,
    R = (1 - alpha)/(1 - L0) + 1, L1 = R, Lg = 1.

    The eigen family is refused: its fixed-point map has contraction
    modulus 1, so the route does not apply; grassmann_distance is the
    descriptive alternative.
    """
    if map_.family == "eigen":
        raise ParameterError(
            "eigencentrality has no contraction certificate (the linear map "
            "has L0 = 1); use grassmann_distance as a descriptive diff"
        )
    return _analytic(g, 1.0, map_.family, map_.alpha)


def _ball_point(rng, n, radius, p):
    direction = rng.standard_normal(n)
    scale = vector_norm(direction, p)
    if scale == 0.0:
        direction = np.ones(n)
        scale = vector_norm(direction, p)
    return direction * (radius * rng.random() / scale)


def _affine_radius(map_):
    modulus = operator_norm(map_.affine_M, 2)
    if modulus < 1.0:
        return vector_norm(map_.affine_b, 2) / (1.0 - modulus) + 1.0
    try:
        n = map_.affine_M.shape[0]
        fixed = np.linalg.solve(np.eye(n) - map_.affine_M, map_.affine_b)
    except np.linalg.LinAlgError as exc:
        raise ParameterError(
            "affine map has no usable feasible radius (I - M singular)"
        ) from exc
    return vector_norm(fixed, 2) + 1.0


def constants_empirical(g, map_, samples, seed):
    """Sampled estimates of the contraction constants.

    Draws points in the feasible ball and takes ratio maxima: L0 from
    ||f(A, x) - f(A, x_A)|| / ||x - x_A|| against the solved fixed point,
    L1 from perturbations of unit operator norm, Lg from pairs through
    the output map.  The estimates are lower bounds on the suprema, so
    certificates built from them are not certified.
    """
    if samples < 2:
        raise ParameterError("samples must be at least 2")
    if map_.family == "eigen":
        raise ParameterError("the eigen family has no iterated map to sample")
    p = native_norm_index(map_.family)
    if map_.family == "affine":
        radius = _affine_radius(map_)
    else:
        analytic = constants_analytic(g, map_)
        radius = analytic.feasible_radius
    x_fixed = solve(g, map_).feature_x
    rng = np.random.default_rng(seed)
    n = g.n
    l0_est = 0.0
    l1_est = 0.0
    lg_est = 0.0
    base = apply_map(map_, g, x_fixed)
    for _ in range(samples):
        x = _ball_point(rng, n, radius, p)
        denom = vector_norm(x - x_fixed, p)
        if denom > 1e-12:
            l0_est = max(l0_est, vector_norm(apply_map(map_, g, x) - base, p) / denom)
        perturb = rng.standard_normal((n, n))
        if map_.family == "pagerank":
            other = Graph(g.weights + perturb / operator_norm(perturb, 1))
            deviation = operator_norm(
                pagerank_kernel(g) - pagerank_kernel(other), 1
            )
        else:
            perturb /= operator_norm(perturb, p)
            other = Graph(g.weights + perturb)
            deviation = operator_norm(g.weights - other.weights, p)
        if deviation > 1e-12:
            y = _ball_point(rng, n, radius, p)
            l1_est = max(
                l1_est,
                vector_norm(apply_map(map_, g, y) - apply_map(map_, other, y), p)
                / deviation,
            )
        # canonical g is the identity, so its ratio on a distinct pair is 1;
        # the pair is still drawn to keep the seeded stream
        u = _ball_point(rng, n, radius, p)
        v = _ball_point(rng, n, radius, p)
        if vector_norm(u - v, p) > 1e-12:
            lg_est = 1.0
    return LipschitzConstants(
        L0=l0_est, L1=l1_est, Lg=lg_est, norm_p=p,
        method="empirical", feasible_radius=radius,
    )


class _Pair(NamedTuple):
    """Two inputs as the finite code sees them.

    ``graphs`` carry the matrices the right-hand sides measure and
    ``weight`` the measure of one coordinate.  ``solve`` returns the
    (centrality, fixed-point feature) of each input in those coordinates.
    """

    graphs: tuple
    weight: float
    solve: Callable
    kernel_note: str
    mass_label: str


def _graph_pair(a, b, map_):
    """Finite adapter: the graphs themselves, weight 1, solved by solve()."""
    if a.n != b.n:
        raise ParameterError("graphs must have the same number of nodes")

    def solve_pair():
        return [(res.rho, res.feature_x) for res in (solve(a, map_), solve(b, map_))]

    return _Pair(
        (a, b), 1.0, solve_pair,
        "perturbation measured on effective kernels A^T D^-1", "centrality sums",
    )


def _step_pair(a, b, family, alpha):
    """Step adapter: the lifts values/k, weight 1/k, with the graphon
    densities as both centralities and features."""
    if a.k != b.k:
        raise ParameterError("graphons must have the same number of blocks")
    density = graphon_katz if family == "katz" else graphon_pagerank

    def solve_pair():
        return [(rho, rho) for rho in (density(a, alpha).values, density(b, alpha).values)]

    return _Pair(
        (_lift_graph(a), _lift_graph(b)), 1.0 / a.k, solve_pair,
        "perturbation measured on effective kernels A o D^-1", "density masses",
    )


def _norm(v, p, weight):
    """||v||_{p,weight}: the l^p norm for weight 1, the L^p([0, 1]) norm of
    block values for weight 1/k."""
    return vector_norm(v, p) * weight ** (1.0 / p)


def _enlarged(consts, family, alpha, xa_norm, xb_norm):
    """Grow the feasible ball to contain both fixed points and recompute
    the radius-dependent L1 for analytic constants."""
    needed = max(consts.feasible_radius, xa_norm + 1.0, xb_norm + 1.0)
    notes = [f"fixed-point feature norms: {xa_norm:.12g}, {xb_norm:.12g}"]
    if needed <= consts.feasible_radius:
        return consts, notes
    l1 = _l1(family, alpha, needed) if consts.method == "analytic" else consts.L1
    notes.append(
        f"feasible radius enlarged from {consts.feasible_radius:.12g} to "
        f"{needed:.12g} to contain both fixed points"
    )
    return replace(consts, L1=l1, feasible_radius=needed), notes


def _check_cut_inputs(a, b, weight, p):
    if not (a.symmetric and b.symmetric):
        raise ParameterError("the cut-norm bound requires symmetric graphs")
    if max(np.abs(a.weights).max(), np.abs(b.weights).max()) / weight > 1.0 + 1e-12:
        raise ParameterError("the cut-norm bound requires entries in [-1, 1]")
    if p != 2:
        raise ParameterError("the cut-norm bound lives in the 2-norm route")


def _certify(kind, pair, family, alpha, consts, certified, digest, mode="exact",
             convention="permutation_cost", closing_notes=()):
    """The one certificate body; ``kind`` picks the two sides.

    * "theorem": ||rho_A - rho_B||_{p,w} against ||M_A - M_B||_p, with M
      the effective matrix (the PageRank kernel, else the weights);
    * "wasserstein": W_p of the normalized centralities against
      min_pi ||M_A^pi - M_B||_p;
    * "cut": the same W_p against sqrt(8 w min_pi ||A^pi - B||_cut).

    The right side is scaled by L1 Lg / (1 - L0) after enlarging the
    feasible radius to contain both fixed points.  Both Wasserstein kinds
    normalize the centralities to unit mass w * sum(rho) unless both
    masses are already within 1e-9 of one, folding the normalizer into g:
    Lg grows by 1/s + R ||1||_{q,w} / s^2, s the smaller mass and q the
    dual index.
    """
    if consts.L0 >= 1.0:
        raise ParameterError(
            "certificate refused: L0 >= 1 violates the contraction hypothesis"
        )
    p = consts.norm_p
    a, b = pair.graphs
    w = pair.weight
    if kind == "wasserstein" and p not in (1, 2):
        raise ParameterError("Wasserstein certificates require norm_p in {1, 2}")
    if kind == "cut":
        _check_cut_inputs(a, b, w, p)
    (rho_a, x_a), (rho_b, x_b) = pair.solve()
    consts, notes = _enlarged(consts, family, alpha, _norm(x_a, p, w), _norm(x_b, p, w))
    lg = consts.Lg
    if kind == "theorem":
        observed = _norm(rho_a - rho_b, p, w)
    else:
        if min(float(np.min(rho_a)), float(np.min(rho_b))) < -1e-12:
            raise ParameterError("a centrality has negative values and cannot be a density")
        mass_a, mass_b = w * float(rho_a.sum()), w * float(rho_b.sum())
        pmf_a, pmf_b = w * rho_a, w * rho_b
        if abs(mass_a - 1.0) > 1e-9 or abs(mass_b - 1.0) > 1e-9:
            s_min = min(mass_a, mass_b)
            if s_min <= 0.0:
                raise ParameterError(
                    "centralities cannot be normalized: non-positive total mass"
                )
            dual_one = 1.0 if p == 1 else math.sqrt(w * rho_a.shape[0])
            fold = 1.0 / s_min + consts.feasible_radius * dual_one / s_min**2
            lg *= fold
            notes.append(
                f"normalizer folded into g: Lg scaled by {fold:.12g} "
                f"({pair.mass_label} {mass_a:.12g}, {mass_b:.12g})"
            )
            pmf_a, pmf_b = pmf_a / mass_a, pmf_b / mass_b
        observed = wasserstein(pmf_a, pmf_b, p, convention)[0] * w ** (1.0 / p - 1.0)
    if kind == "cut":
        sweep = min_permuted_distance(a, b, "cut", mode=mode).value
        right = math.sqrt(8.0 * w * sweep)
    else:
        if family == "pagerank":
            notes.append(pair.kernel_note)
            eff_a, eff_b = pagerank_kernel(a), pagerank_kernel(b)
        else:
            eff_a, eff_b = a.weights, b.weights
        if kind == "theorem":
            right = operator_norm(eff_a - eff_b, p)
        else:
            right = min_permuted_distance(Graph(eff_a), Graph(eff_b), p, mode=mode).value
    if convention != "permutation_cost":
        notes.append(
            f"observed side uses the {convention} ground metric; the bound is "
            "proved through the permutation_cost comparison quantity"
        )
    notes.extend(closing_notes)
    bound = consts.L1 * lg / (1.0 - consts.L0) * right
    return _certificate(bound, observed, certified, p, replace(consts, Lg=lg), digest, notes)


def theorem1_certificate(a, b, map_, consts):
    """Certificate for the basic variation bound
    ||rho_A - rho_B|| <= L1 Lg / (1 - L0) ||A - B||_op in consts.norm_p.

    Both centralities are solved to tolerance; the feasible radius is
    enlarged if either fixed point escapes it (with L1 recomputed), and
    PageRank perturbations are measured on the effective kernels.  The
    certificate is certified iff the constants are analytic.
    """
    digest = _digest(
        a.weights, b.weights, map_.family, map_.alpha, "theorem1",
        consts.method, consts.norm_p,
    )
    return _certify(
        "theorem", _graph_pair(a, b, map_), map_.family, map_.alpha, consts,
        consts.method == "analytic", digest,
    )


def prop6_certificate(a, b, map_, consts, perm_mode="exact",
                      convention="permutation_cost"):
    """Certificate for the Wasserstein variation bound
    W_p(rho_A, rho_B) <= L1 Lg / (1 - L0) min_pi ||A^pi - B||_op,p.

    Centralities are normalized to probability vectors first (the
    normalizer is folded into g, scaling Lg); the right side minimizes
    over relabelings in the requested mode.  Certified only when the
    permutation search is exact, the convention is permutation_cost (the
    comparison quantity the bound is proved through), and the constants
    are analytic.
    """
    digest = _digest(
        a.weights, b.weights, map_.family, map_.alpha, "prop6",
        consts.method, consts.norm_p, perm_mode, convention,
    )
    certified = (
        consts.method == "analytic"
        and perm_mode == "exact"
        and convention == "permutation_cost"
    )
    return _certify(
        "wasserstein", _graph_pair(a, b, map_), map_.family, map_.alpha, consts,
        certified, digest, mode=perm_mode, convention=convention,
    )


def prop7_certificate(a, b, map_, consts, convention="permutation_cost"):
    """Certificate for the cut-norm variation bound
    W_2(rho_A, rho_B) <= L1 Lg / (1 - L0) sqrt(8 delta_cut(A, B))
    for symmetric matrices with entries in [-1, 1], where delta_cut
    minimizes the cut norm of the difference over relabelings (always the
    exact search, so n is capped).
    """
    digest = _digest(
        a.weights, b.weights, map_.family, map_.alpha, "prop7",
        consts.method, convention,
    )
    certified = consts.method == "analytic" and convention == "permutation_cost"
    return _certify(
        "cut", _graph_pair(a, b, map_), map_.family, map_.alpha, consts,
        certified, digest, convention=convention,
    )


def _step_certificate(kind, name, a, b, family, alpha, mode="exact"):
    """A graphon certificate: the finite one on the lifts values/k.  Only
    theorem2 is certified; block relabelings only bound the infimum over
    measure-preserving bijections from above."""
    pair = _step_pair(a, b, family, alpha)
    consts = _analytic(pair.graphs[0], pair.weight, family, alpha)
    theorem = kind == "theorem"
    digest = _digest(
        a.values, b.values, family, alpha, name, consts.norm_p if theorem else mode
    )
    return _certify(
        kind, pair, family, alpha, consts, theorem, digest, mode=mode,
        closing_notes=() if theorem else (_SUBSET_NOTE,),
    )


def theorem2_certificate(a, b, family, alpha):
    """Graphon analogue of theorem1_certificate: the same contraction
    bound with the scaled step-kernel operator norms and L^p([0, 1])
    distances between the block densities."""
    return _step_certificate("theorem", "theorem2", a, b, family, alpha)


def prop9_certificate(a, b, family, alpha, mode="exact"):
    """Graphon analogue of prop6_certificate: W_p between normalized block
    densities against the relabeling-minimized scaled operator norm.
    Never certified: block relabelings only bound the infimum over
    measure-preserving bijections from above (the inequality direction
    keeps holds = true meaningful)."""
    return _step_certificate("wasserstein", "prop9", a, b, family, alpha, mode)


def prop10_certificate(a, b, family, alpha, mode="exact"):
    """Graphon analogue of prop7_certificate: W_2 against
    sqrt(8 * block cut distance) for graphons with values in [-1, 1].
    Never certified, for the same relabeling-subset reason as
    prop9_certificate."""
    return _step_certificate("cut", "prop10", a, b, family, alpha, mode)
