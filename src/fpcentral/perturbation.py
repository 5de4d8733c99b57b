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

Each certificate runs in one order: the records of both inputs
(``centrality._prepare``), then the right-hand side, taken from those
records, then the solve of each record, then the observed side.  The
right-hand side is a property of the inputs alone, and no record is read
after its solve, so each solve uses its record up (a dense PageRank
kernel is scaled in place).  The theorem's right side is the norm of one
operand, ``minus`` of the two records' (``graphs``), and the digest hashes
each input's operand: on two lists of entries both cost O(entries), not
O(n^2).

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

from .centrality import NEGATIVE_RHO_TOL, _prepare, _solve, native_norm_index
from .errors import ParameterError
from .graphs import Graph
from .norms import _operator_norm, min_permuted_distance, vector_norm

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
    """The SHA-256 of ``parts``, each followed by ``|``.  An input (a Graph
    or a StepGraphon) is hashed as its matrix, by its operand
    (``digest_into``): a list of entries in O(entries) bytes, an array as
    its shape and buffer; every other part as its repr."""
    h = hashlib.sha256()
    for part in parts:
        g = getattr(part, "_graph", part)  # a StepGraphon's Graph
        if isinstance(g, Graph):
            g._held.digest_into(h)
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


def _analytic(prep, weight):
    """constants_analytic on the record of an input whose coordinates have
    measure ``weight``: R = ||b||_{p,weight}/(1 - L0) + 1 for the constant
    term b, with ||1||_{2,weight} = sqrt(weight n) for katz and
    ||b||_{1,weight} = 1 - alpha for pagerank."""
    family, alpha, l0 = prep.family, prep.alpha, prep.l0
    b_norm = math.sqrt(weight * prep.g.n) if family == "katz" else 1.0 - alpha
    radius = b_norm / (1.0 - l0) + 1.0
    return LipschitzConstants(
        L0=l0, L1=_l1(family, alpha, radius), Lg=1.0, norm_p=native_norm_index(family),
        method="analytic", feasible_radius=radius,
    )


def _analytic_record(g, family, alpha):
    """The record whose L0 analytic constants take; refuses eigen."""
    if family not in ("katz", "pagerank"):
        raise ParameterError("analytic constants exist for the katz and pagerank families")
    return _prepare(family, alpha, g)


def _record(g, map_):
    """The record of a graph that constants_analytic and the finite
    certificates share."""
    if map_.family == "eigen":
        raise ParameterError(
            "eigencentrality has no contraction certificate (the linear map "
            "has L0 = 1); use grassmann_distance as a descriptive diff"
        )
    return _analytic_record(g, map_.family, map_.alpha)


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
    return _analytic(_record(g, map_), 1.0)


class _Pair(NamedTuple):
    """Two inputs as the finite code sees them: their records
    (``centrality._prepare``), both built before either is solved; the
    measure ``weight`` of one coordinate; and ``fixed_point``, which solves
    one record, using it up, to the (centrality, fixed-point feature) of its
    input in those coordinates."""

    preps: tuple
    weight: float
    fixed_point: Callable
    kernel_note: str
    mass_label: str


def _iterated(prep):
    """The centrality and the feature of a graph, iterated on its record."""
    res = _solve(prep)
    return res.rho, res.feature_x


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
    if max(np.abs(g._held.vals).max(initial=0.0) for g in (a, b)) / weight > 1.0 + 1e-12:
        raise ParameterError("the cut-norm bound requires entries in [-1, 1]")
    if p != 2:
        raise ParameterError("the cut-norm bound lives in the 2-norm route")


def _difference_right(prep_a, prep_b, p):
    """||M_A - M_B||_p from two records, of the operand ``minus`` makes:
    two lists merge in O(entries) below the cut, with no M formed, into the
    list that two arrays make by row tiles, so the bits are the same."""
    return _operator_norm(prep_a.op.minus(prep_b.op), p)


def _certify(kind, pair, consts, certified, digest, mode="exact", closing_notes=()):
    """The one certificate body; ``kind`` picks the two sides.

    * "theorem": ||rho_A - rho_B||_{p,w} against ||M_A - M_B||_p, with M
      the effective matrix (the PageRank kernel, else the weights);
    * "wasserstein": W_p of the normalized centralities against
      min_pi ||M_A^pi - M_B||_p;
    * "cut": the same W_p against sqrt(8 w min_pi ||A^pi - B||_cut).

    The order is fixed: ``pair`` holds both records, the right side is
    taken from them, each record is then solved, which uses it up, and the
    observed side is computed last.  The right side is scaled by
    L1 Lg / (1 - L0) after enlarging the feasible radius to contain both
    fixed points.  Both Wasserstein kinds normalize the centralities to
    unit mass w * sum(rho) unless both masses are already within 1e-9 of
    one, folding the normalizer into g: Lg grows by
    1/s + R ||1||_{q,w} / s^2, s the smaller mass and q the dual index.
    """
    if consts.L0 >= 1.0:
        raise ParameterError(
            "certificate refused: L0 >= 1 violates the contraction hypothesis"
        )
    p = consts.norm_p
    prep_a, prep_b = pair.preps
    family, alpha = prep_a.family, prep_a.alpha
    w = pair.weight
    if kind == "wasserstein" and p not in (1, 2):
        raise ParameterError("Wasserstein certificates require norm_p in {1, 2}")
    if kind == "cut":
        a, b = prep_a.g, prep_b.g
        _check_cut_inputs(a, b, w, p)
        right = math.sqrt(8.0 * w * min_permuted_distance(a, b, "cut", mode=mode).value)
    elif kind == "theorem":
        right = _difference_right(prep_a, prep_b, p)
    else:
        # the inputs themselves, or graphs that adopt the kernels, which
        # the solves below scale only after this sweep
        a, b = (
            Graph._adopt(prep.op.dense()) if family == "pagerank" else prep.g for prep in pair.preps
        )
        right = min_permuted_distance(a, b, p, mode=mode).value
    (rho_a, x_a), (rho_b, x_b) = map(pair.fixed_point, pair.preps)
    consts, notes = _enlarged(consts, family, alpha, _norm(x_a, p, w), _norm(x_b, p, w))
    lg = consts.Lg
    if kind == "theorem":
        observed = _norm(rho_a - rho_b, p, w)
    else:
        from .transport import PMF_TOL, wasserstein

        if min(float(np.min(rho_a)), float(np.min(rho_b))) < -NEGATIVE_RHO_TOL:
            raise ParameterError("a centrality has negative values and cannot be a density")
        mass_a, mass_b = w * float(rho_a.sum()), w * float(rho_b.sum())
        pmf_a, pmf_b = w * rho_a, w * rho_b
        if abs(mass_a - 1.0) > PMF_TOL or abs(mass_b - 1.0) > PMF_TOL:
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
        observed = wasserstein(pmf_a, pmf_b, p) * w ** (1.0 / p - 1.0)
    if kind != "cut" and family == "pagerank":
        notes.append(pair.kernel_note)
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
    return _graph_certificate("theorem1", a, b, map_, consts)


def prop6_certificate(a, b, map_, consts, perm_mode="exact"):
    """Certificate for the Wasserstein variation bound
    W_p(rho_A, rho_B) <= L1 Lg / (1 - L0) min_pi ||A^pi - B||_op,p.

    Centralities are normalized to probability vectors first (the
    normalizer is folded into g, scaling Lg); W_p is the minimum over
    relabelings of their distance (``transport.wasserstein``), and the
    right side minimizes over relabelings in the requested mode.
    Certified only when the permutation search is exact and the constants
    are analytic.
    """
    return _graph_certificate("prop6", a, b, map_, consts, perm_mode=perm_mode)


def prop7_certificate(a, b, map_, consts):
    """Certificate for the cut-norm variation bound
    W_2(rho_A, rho_B) <= L1 Lg / (1 - L0) sqrt(8 delta_cut(A, B))
    for symmetric matrices with entries in [-1, 1], where delta_cut
    minimizes the cut norm of the difference over relabelings (always the
    exact search, so n is capped).
    """
    return _graph_certificate("prop7", a, b, map_, consts)


def _graph_certificate(bound, a, b, map_, consts, perm_mode="exact", prep_a=None):
    """theorem1, prop6 or prop7 on two graphs; ``prep_a`` is a's record
    (``_record``) when the caller has built it.  Only prop6 takes a
    ``perm_mode``; prop7 always runs the exact search.  The digests of prop6
    and prop7 hash the name of their Wasserstein side, "permutation_cost",
    so recorded inputs_digest values stay comparable."""
    kind, parts = {
        "theorem1": ("theorem", (consts.norm_p,)),
        "prop6": ("wasserstein", (consts.norm_p, perm_mode, "permutation_cost")),
        "prop7": ("cut", ("permutation_cost",)),
    }[bound]
    digest = _digest(a, b, map_.family, map_.alpha, bound, consts.method, *parts)
    certified = consts.method == "analytic" and perm_mode == "exact"
    if a.n != b.n:
        raise ParameterError("graphs must have the same number of nodes")
    family, alpha = map_.family, map_.alpha
    if prep_a is None:
        prep_a = _prepare(family, alpha, a)
    pair = _Pair(
        (prep_a, _prepare(family, alpha, b)), 1.0, _iterated,
        "perturbation measured on effective kernels A^T D^-1", "centrality sums",
    )
    return _certify(kind, pair, consts, certified, digest, mode=perm_mode)


def _step_certificate(kind, name, a, b, family, alpha, mode="exact"):
    """A graphon certificate: the finite one on the lifts values/k, whose
    densities are both centralities and features.  Only theorem2 is
    certified; block relabelings only bound the infimum over
    measure-preserving bijections from above."""
    from .graphon import _check_pagerank_values, _density, _lift_graph

    if a.k != b.k:
        raise ParameterError("graphons must have the same number of blocks")
    lifts = (_lift_graph(a), _lift_graph(b))
    prep_a = _analytic_record(lifts[0], family, alpha)
    if family == "pagerank":
        _check_pagerank_values(a)
        _check_pagerank_values(b)
    pair = _Pair(
        (prep_a, _prepare(family, alpha, lifts[1])), 1.0 / a.k,
        lambda prep: (_density(prep),) * 2,
        "perturbation measured on effective kernels A o D^-1", "density masses",
    )
    consts = _analytic(prep_a, pair.weight)
    theorem = kind == "theorem"
    digest = _digest(a, b, family, alpha, name, consts.norm_p if theorem else mode)
    return _certify(
        kind, pair, consts, theorem, digest, mode=mode,
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
