"""Fixed-point centralities on graphs and step graphons, with
perturbation-bound certificates.

The package computes eigenvector, Katz, and PageRank centralities as
fixed points ``x = f(A, x)``, mirrors them on step graphons, and checks
how far two centrality profiles can drift when the underlying kernel is
perturbed: each ``*_certificate`` function returns an explicit bound,
the observed deviation, and whether the bound holds.

Importing the package loads none of its modules: each public name, and
each submodule named as an attribute (``fpcentral.norms``), is imported
on first use (PEP 562), so a caller, the ``fpc`` command line among
them, pays only for the modules it touches.
"""

import importlib

__version__ = "0.1.0"

# home module of each public name
_HOMES = {
    "centrality": (
        "CentralityResult", "EigenResult", "eigencentrality", "grassmann_distance",
        "normalize", "solve",
    ),
    "errors": (
        "FpcError", "InputFormatError", "NonConvergenceError", "NumericalError",
        "ParameterError", "SimplicityError", "SizeLimitError",
    ),
    "graphon": (
        "StepFunction", "StepGraphon", "graphon_eigencentrality", "graphon_katz",
        "graphon_pagerank", "integral", "lift",
    ),
    "graphs": ("Graph", "Permutation", "degree_vector", "permute"),
    "io": (
        "graph_to_dict", "graphon_to_dict", "parse_edge_list", "parse_graph_json",
        "parse_graphon_json", "read_graph", "read_graphon", "write_graph", "write_graphon",
    ),
    "limits": ("exact_limit",),
    "norms": (
        "CutNormWitness", "PermutedDistanceResult", "cut_norm_exact", "cut_norm_heuristic",
        "min_permuted_distance", "operator_norm", "vector_norm",
    ),
    "perturbation": (
        "BoundCertificate", "LipschitzConstants", "prop6_certificate", "prop7_certificate",
        "prop9_certificate", "prop10_certificate", "theorem1_certificate",
        "theorem2_certificate",
    ),
    "transport": ("wasserstein",),
}
_HOME_OF = {name: module for module, names in _HOMES.items() for name in names}

__all__ = ["__version__", *_HOME_OF]


def __getattr__(name):
    if name in _HOMES:  # a submodule, such as ``fpcentral.norms``
        return importlib.import_module(f"{__name__}.{name}")
    module = _HOME_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
