"""Hard size limits for the exhaustive searches: the exact cut norm (2^n
row subsets) and the exact relabeling sweep (n! permutations).

The environment variable ``FPC_MAX_EXACT_N`` may lower any of these
thresholds for a run (useful to keep CI wall time bounded); it can never
raise them above the built-in caps.
"""

import os

from .errors import ParameterError

MAX_CUT_EXACT_N = 22
MAX_PERM_EXACT_N = 8
# node count of an edge-list graph; not an exact search, so FPC_MAX_EXACT_N
# does not lower it
MAX_DENSE_N = 5000

_ENV_VAR = "FPC_MAX_EXACT_N"


def exact_limit(builtin):
    """Return ``builtin`` clamped by the FPC_MAX_EXACT_N override, if set."""
    raw = os.environ.get(_ENV_VAR)
    if raw is None:
        return builtin
    try:
        value = int(raw)
    except ValueError:
        raise ParameterError(
            f"{_ENV_VAR} must be an integer, got {raw!r}"
        ) from None
    if value < 0:
        raise ParameterError(f"{_ENV_VAR} must be non-negative, got {value}")
    return min(builtin, value)
