"""The Wasserstein side of the relabeling certificates.

The maps are permutation-equivariant, so the comparison quantity their
Wasserstein bounds are proved through is the minimum over node
relabelings pi of ||src^pi - dst||_p between two node pmfs.  It is the
sorted matching: by the rearrangement inequality, optimal for p >= 1.
"""

import numpy as np

from .centrality import NEGATIVE_RHO_TOL
from .errors import ParameterError
from .norms import vector_norm

PMF_TOL = 1e-9


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


def wasserstein(src, dst, p):
    """min over relabelings pi of ||src^pi - dst||_p for two node pmfs
    (entries >= 0, sums within ``PMF_TOL`` of one) of equal length, p in
    {1, 2}: ||sort(src) - sort(dst)||_p.

    Raises ParameterError on a non-pmf input, a length mismatch or another p.
    """
    if p not in (1, 2):
        raise ParameterError(f"p must be 1 or 2, got {p!r}")
    src = _check_pmf(src, "src")
    dst = _check_pmf(dst, "dst")
    if src.shape[0] != dst.shape[0]:
        raise ParameterError("src and dst must have the same length")
    return vector_norm(np.sort(src) - np.sort(dst), p)
