"""Machine-checked perturbation certificates for fixed-point centralities.

The contraction route: with L0 < 1 the contraction modulus of f(A, .) on
a feasible ball of radius R, L1 the graph-sensitivity constant, and Lg
the Lipschitz constant of the output map g,

    ||rho_A - rho_B|| <= L1 Lg / (1 - L0) * ||A - B||_op.

Variants swap the right-hand side for a minimum over relabelings
(Wasserstein form), or for sqrt(8 * cut-distance) on symmetric matrices
with entries in [-1, 1].  A certificate records both sides, the constants
it used, a content digest of the inputs, and whether every ingredient was
computed exactly (``certified``); a greedy search or block relabelings
clear the flag but never weaken ``holds``, which always compares the two
sides as computed.

All six certificates take the same arguments, ``(a, b, family, alpha)``,
plus the search ``mode`` where a relabeling is searched, and run through
one body, ``_certify``, on a pair of inputs as the finite code sees them.
No caller supplies constants: each certificate takes the closed-form
(analytic) ones from the record of its first input.  Two adapters build
the pair:

* ``_graph_certificate``: a graph enters as itself, with coordinate
  weight 1, and is iterated as solve() iterates it;
* ``_step_certificate``: a step graphon enters as its scaled lift, the
  graph values/k, with coordinate weight 1/k; its densities are those of
  graphon_katz and graphon_pagerank, iterated on the lift's record.

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
from typing import Callable, NamedTuple

import numpy as np

from .centrality import NEGATIVE_RHO_TOL, _prepare, _solve, native_norm_index
from .errors import ParameterError
from .graphs import Graph
from .norms import _operator_norm, min_permuted_distance, vector_norm

HOLDS_TOL = 1e-9
_SUBSET_NOTE = (
    "block relabelings are a strict subset of the measure-preserving "
    "bijections; the right-hand side is an upper bound on the true infimum"
)


class LipschitzConstants(NamedTuple):
    """The analytic constants of the contraction route, tied to a norm index
    and to the feasible ball of radius ``feasible_radius`` they were
    computed on (``_analytic``); an immutable record (``_replace`` copies
    it)."""

    L0: float
    L1: float
    Lg: float
    norm_p: float
    feasible_radius: float


class BoundCertificate(NamedTuple):
    """One checked instance of a perturbation inequality, an immutable
    record (``_replace`` copies it).  A payload is built by ``to_dict``,
    never from the record itself, which the JSON writer would spell as a
    list."""

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
                "method": "analytic",
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
    """The closed-form contraction constants on the record of an input whose
    coordinates have measure ``weight``.

    katz (2-norm): L0 = alpha ||A||_2, R = ||1||_{2,weight}/(1 - L0) + 1
    (the a priori bound on iterates from the all-ones start, plus margin),
    with ||1||_{2,weight} = sqrt(weight n), L1 = alpha R, Lg = 1.
    pagerank (1-norm): L0 = alpha ||A^T D^-1||_1,
    R = (1 - alpha)/(1 - L0) + 1, L1 = R, Lg = 1.
    """
    family, alpha, l0 = prep.family, prep.alpha, prep.l0
    b_norm = math.sqrt(weight * prep.g.n) if family == "katz" else 1.0 - alpha
    radius = b_norm / (1.0 - l0) + 1.0
    return LipschitzConstants(
        L0=l0, L1=_l1(family, alpha, radius), Lg=1.0, norm_p=native_norm_index(family),
        feasible_radius=radius,
    )


def _first_record(family, alpha, g):
    """The record of a certificate's first input, whose L0 its constants
    take.  The eigen family is refused: its fixed-point map has contraction
    modulus 1, so the route does not apply."""
    if family == "eigen":
        raise ParameterError(
            "eigencentrality has no contraction certificate (the linear map "
            "has L0 = 1); use grassmann_distance as a descriptive diff"
        )
    return _prepare(family, alpha, g)


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
    the radius-dependent L1.  The note spells both radii in full (``repr``),
    so that an enlargement by the last bits shows them."""
    needed = max(consts.feasible_radius, xa_norm + 1.0, xb_norm + 1.0)
    notes = [f"fixed-point feature norms: {xa_norm:.12g}, {xb_norm:.12g}"]
    if needed <= consts.feasible_radius:
        return consts, notes
    notes.append(
        f"feasible radius enlarged from {consts.feasible_radius!r} to "
        f"{needed!r} to contain both fixed points"
    )
    return consts._replace(L1=_l1(family, alpha, needed), feasible_radius=needed), notes


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


# each certificate's kind, and the parts its digest hashes after the two
# inputs, the family, alpha and its name, given the native norm index p and
# the search mode; the finite ones hash the name of their constants and of
# their Wasserstein side, so recorded inputs_digest values stay comparable
_BOUNDS = {
    "theorem1": ("theorem", lambda p, mode: ("analytic", p)),
    "prop6": ("wasserstein", lambda p, mode: ("analytic", p, mode, "permutation_cost")),
    "prop7": ("cut", lambda p, mode: ("analytic", "permutation_cost")),
    "theorem2": ("theorem", lambda p, mode: (p,)),
    "prop9": ("wasserstein", lambda p, mode: (mode,)),
    "prop10": ("cut", lambda p, mode: (mode,)),
}
# graphon bounds whose relabelings are blocks (_SUBSET_NOTE): never certified
_BLOCK_RELABELED = ("prop9", "prop10")


def _certify(name, a, b, pair, mode="exact"):
    """The one certificate body; the bound ``name`` picks its kind, which
    picks the two sides:

    * "theorem": ||rho_A - rho_B||_{p,w} against ||M_A - M_B||_p, with M
      the effective matrix (the PageRank kernel, else the weights);
    * "wasserstein": W_p of the normalized centralities against
      min_pi ||M_A^pi - M_B||_p;
    * "cut": the same W_p against sqrt(8 w min_pi ||A^pi - B||_cut).

    The constants are the analytic ones of a's record, in its native norm
    p.  The order is fixed: ``pair`` holds both records, the right side is
    taken from them, each record is then solved, which uses it up, and the
    observed side is computed last.  The right side is scaled by
    L1 Lg / (1 - L0) after enlarging the feasible radius to contain both
    fixed points.  Both Wasserstein kinds normalize the centralities to
    unit mass w * sum(rho) unless both masses are already within 1e-9 of
    one, folding the normalizer into g: Lg grows by
    1/s + R ||1||_{q,w} / s^2, s the smaller mass and q the dual index.
    A certificate is certified when its search is exact and its
    relabelings are not only blocks.
    """
    kind, digested = _BOUNDS[name]
    prep_a, prep_b = pair.preps
    family, alpha = prep_a.family, prep_a.alpha
    w = pair.weight
    consts = _analytic(prep_a, w)
    p = consts.norm_p
    digest = _digest(a, b, family, alpha, name, *digested(p, mode))
    if kind == "cut":
        ga, gb = prep_a.g, prep_b.g
        _check_cut_inputs(ga, gb, w, p)
        right = math.sqrt(8.0 * w * min_permuted_distance(ga, gb, "cut", mode=mode).value)
    elif kind == "theorem":
        right = _difference_right(prep_a, prep_b, p)
    else:
        # the inputs themselves, or graphs that adopt the kernels, which
        # the solves below scale only after this sweep
        ga, gb = (
            Graph._adopt(prep.op.dense()) if family == "pagerank" else prep.g for prep in pair.preps
        )
        right = min_permuted_distance(ga, gb, p, mode=mode).value
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
    block_relabeled = name in _BLOCK_RELABELED
    if block_relabeled:
        notes.append(_SUBSET_NOTE)
    bound = consts.L1 * lg / (1.0 - consts.L0) * right
    certified = mode == "exact" and not block_relabeled
    return _certificate(bound, observed, certified, p, consts._replace(Lg=lg), digest, notes)


def _graph_certificate(name, a, b, family, alpha, mode="exact"):
    """theorem1, prop6 or prop7 on two graphs: each enters as itself, with
    coordinate weight 1, and is iterated (``solve``)."""
    prep_a = _first_record(family, alpha, a)
    if a.n != b.n:
        raise ParameterError("graphs must have the same number of nodes")
    pair = _Pair(
        (prep_a, _prepare(family, alpha, b)), 1.0, _iterated,
        "perturbation measured on effective kernels A^T D^-1", "centrality sums",
    )
    return _certify(name, a, b, pair, mode)


def _step_certificate(name, a, b, family, alpha, mode="exact"):
    """theorem2, prop9 or prop10 on two step graphons: each enters as its
    lift values/k, with coordinate weight 1/k, whose density (``_density``)
    is both its centrality and its feature."""
    from .graphon import _check_pagerank_values, _density, _lift_graph

    prep_a = _first_record(family, alpha, _lift_graph(a))
    if a.k != b.k:
        raise ParameterError("graphons must have the same number of blocks")
    if family == "pagerank":
        _check_pagerank_values(a)
        _check_pagerank_values(b)
    pair = _Pair(
        (prep_a, _prepare(family, alpha, _lift_graph(b))), 1.0 / a.k,
        lambda prep: (_density(prep).values,) * 2,
        "perturbation measured on effective kernels A o D^-1", "density masses",
    )
    return _certify(name, a, b, pair, mode)


def theorem1_certificate(a, b, family, alpha):
    """Certificate for the basic variation bound
    ||rho_A - rho_B|| <= L1 Lg / (1 - L0) ||A - B||_op in the family's
    native norm, with the analytic constants of a.

    Both centralities are solved to the rounding floor; the feasible radius
    is enlarged if either fixed point escapes it (with L1 recomputed), and
    PageRank perturbations are measured on the effective kernels.
    """
    return _graph_certificate("theorem1", a, b, family, alpha)


def prop6_certificate(a, b, family, alpha, mode="exact"):
    """Certificate for the Wasserstein variation bound
    W_p(rho_A, rho_B) <= L1 Lg / (1 - L0) min_pi ||A^pi - B||_op,p.

    Centralities are normalized to probability vectors first (the
    normalizer is folded into g, scaling Lg); W_p is the minimum over
    relabelings of their distance (``transport.wasserstein``), and the
    right side minimizes over relabelings in the requested mode.
    Certified only when the permutation search is exact.
    """
    return _graph_certificate("prop6", a, b, family, alpha, mode)


def prop7_certificate(a, b, family, alpha):
    """Certificate for the cut-norm variation bound
    W_2(rho_A, rho_B) <= L1 Lg / (1 - L0) sqrt(8 delta_cut(A, B))
    for symmetric matrices with entries in [-1, 1], where delta_cut
    minimizes the cut norm of the difference over relabelings (always the
    exact search, so n is capped).
    """
    return _graph_certificate("prop7", a, b, family, alpha)


def theorem2_certificate(a, b, family, alpha):
    """Graphon analogue of theorem1_certificate: the same contraction
    bound with the scaled step-kernel operator norms and L^p([0, 1])
    distances between the block densities."""
    return _step_certificate("theorem2", a, b, family, alpha)


def prop9_certificate(a, b, family, alpha, mode="exact"):
    """Graphon analogue of prop6_certificate: W_p between normalized block
    densities against the relabeling-minimized scaled operator norm.
    Never certified: block relabelings only bound the infimum over
    measure-preserving bijections from above (the inequality direction
    keeps holds = true meaningful)."""
    return _step_certificate("prop9", a, b, family, alpha, mode)


def prop10_certificate(a, b, family, alpha, mode="exact"):
    """Graphon analogue of prop7_certificate: W_2 against
    sqrt(8 * block cut distance) for graphons with values in [-1, 1].
    Never certified, for the same relabeling-subset reason as
    prop9_certificate."""
    return _step_certificate("prop10", a, b, family, alpha, mode)
