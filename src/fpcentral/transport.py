"""Wasserstein distances between centrality distributions on node sets.

The ground metric on nodes is a modeling choice, so it is a named
convention rather than a silent default:

* ``grid_embedding``: node i sits at i/n on the line, d(i, j) = |i - j|/n;
  W_p has the classical one-dimensional closed form via the monotone
  (sorted cumulative mass) coupling, realized here as an explicit plan.
* ``discrete_metric``: d(i, j) = 1 for i != j; W_1 is total variation and
  W_2 its square root, with the overlap coupling as the plan.
* ``permutation_cost``: min over node relabelings of ||src^pi - dst||_p.
  A permutation coupling is only marginal-feasible when dst is literally a
  relabeling of src, so this is a bound surrogate used by the certificate
  route, not a true Wasserstein distance; no plan is produced.
"""

from dataclasses import dataclass

import numpy as np

from .centrality import NEGATIVE_RHO_TOL
from .errors import NumericalError, ParameterError, SizeLimitError
from .limits import MAX_PLAN_N, exact_limit
from .norms import vector_norm

PMF_TOL = 1e-9
CONVENTIONS = ("grid_embedding", "discrete_metric", "permutation_cost")


@dataclass(frozen=True)
class TransportConvention:
    """A named ground-metric convention for node distributions."""

    tag: str

    def __post_init__(self):
        if self.tag not in CONVENTIONS:
            raise ParameterError(f"convention must be one of {CONVENTIONS}, got {self.tag!r}")


@dataclass(frozen=True)
class TransportPlan:
    """A coupling gamma with marginals (src, dst) and its transport cost
    sum_ij gamma_ij d(i, j)^p under the convention's ground metric."""

    gamma: np.ndarray
    cost: float


def _check_pmf(v, name):
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or v.shape[0] < 1:
        raise ParameterError(f"{name} must be a nonempty vector")
    if not np.all(np.isfinite(v)):
        raise ParameterError(f"{name} must be finite")
    if float(np.min(v)) < -NEGATIVE_RHO_TOL:
        raise ParameterError(f"{name} has negative entries")
    if abs(float(v.sum()) - 1.0) > PMF_TOL:
        raise ParameterError(f"{name} must sum to 1 within {PMF_TOL}")
    return np.maximum(v, 0.0)


def _check_marginals(gamma, src, dst):
    row_err = float(np.max(np.abs(gamma.sum(axis=1) - src)))
    col_err = float(np.max(np.abs(gamma.sum(axis=0) - dst)))
    if max(row_err, col_err) > PMF_TOL:
        raise NumericalError(
            f"transport plan violates its marginals (errors {row_err:.3e}, {col_err:.3e})"
        )


def _monotone_coupling(src, dst):
    """The sorted cumulative-mass coupling, optimal on the line for any
    convex cost in |i - j|."""
    n = src.shape[0]
    gamma = np.zeros((n, n))
    a = src.copy()
    b = dst.copy()
    i = j = 0
    while i < n and j < n:
        moved = min(a[i], b[j])
        if moved > 0.0:
            gamma[i, j] += moved
            a[i] -= moved
            b[j] -= moved
        if a[i] <= b[j]:
            i += 1
        else:
            j += 1
    return gamma


def _overlap_coupling(src, dst):
    """Keep the common mass in place; ship each surplus proportionally to
    the deficits.  Off-diagonal mass equals the total variation distance."""
    common = np.minimum(src, dst)
    gamma = np.diag(common)
    surplus = src - common
    deficit = dst - common
    total = float(surplus.sum())
    if total > 0.0:
        gamma += np.outer(surplus, deficit) / total
    return gamma


def _permutation_cost(src, dst, p):
    """min over relabelings pi of ||src^pi - dst||_p: the sorted matching,
    optimal for every p >= 1 by the rearrangement inequality."""
    return vector_norm(np.sort(src) - np.sort(dst), p)


def wasserstein(src, dst, p, convention):
    """W_p between two node pmfs under a named ground-metric convention.

    Parameters
    ----------
    src, dst : array_like
        Probability vectors of equal length (entries >= 0, sums within
        1e-9 of one).
    p : {1, 2}
    convention : TransportConvention or str

    Returns
    -------
    (value, plan)
        ``plan`` is a TransportPlan realizing the value for the two true
        metrics and None for permutation_cost, which is the minimum over
        relabelings of ||src^pi - dst||_p rather than a coupling infimum.
        That minimum is the sorted matching for every n: by the
        rearrangement inequality it is optimal for p >= 1.

    Raises
    ------
    ParameterError
        Non-pmf input, length mismatch, p outside {1, 2}.
    SizeLimitError
        Plan-producing conventions beyond the exact-plan size cap.
    """
    if isinstance(convention, str):
        convention = TransportConvention(convention)
    if p not in (1, 2):
        raise ParameterError(f"p must be 1 or 2, got {p!r}")
    src = _check_pmf(src, "src")
    dst = _check_pmf(dst, "dst")
    if src.shape[0] != dst.shape[0]:
        raise ParameterError("src and dst must have the same length")
    n = src.shape[0]
    if convention.tag == "permutation_cost":
        return _permutation_cost(src, dst, p), None
    limit = exact_limit(MAX_PLAN_N)
    if n > limit:
        raise SizeLimitError(f"exact plans are limited to n <= {limit}, got n={n}")
    if convention.tag == "grid_embedding":
        gamma = _monotone_coupling(src, dst)
        idx = np.arange(n)
        ground = np.abs(idx[:, None] - idx[None, :]) / n
    else:
        gamma = _overlap_coupling(src, dst)
        ground = 1.0 - np.eye(n)
    _check_marginals(gamma, src, dst)
    cost = float((gamma * ground**p).sum())
    return cost ** (1.0 / p), TransportPlan(gamma=gamma, cost=cost)
