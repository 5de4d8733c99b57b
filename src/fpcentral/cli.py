"""Command-line front end.

Subcommands: ``centrality`` (solve one graph), ``compare`` (perturbation
certificate between two graphs), ``graphon lift|centrality|compare``
(the step-graphon mirrors), and ``norms`` (operator and cut norms with
witnesses).  All structured output is JSON (deterministic key order);
``--csv`` additionally emits a flat table for plotting.

Exit codes: 0 success (and certificate holds), 1 certificate checked but
does not hold, 2 parameter/size/simplicity error, 3 numerical failure or
non-convergence, 4 I/O or parse error.
"""

import argparse
import hashlib
import sys

from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .centrality import FixedPointMap, eigencentrality, normalize, solve
from .errors import (
    InputFormatError,
    NonConvergenceError,
    NumericalError,
    ParameterError,
    SimplicityError,
    SizeLimitError,
)
from .graphon import (
    graphon_eigencentrality,
    graphon_katz,
    graphon_pagerank,
    integral,
    lift,
)
from .io import _write_json, graphon_to_dict, read_graph, read_graphon
from .norms import cut_norm_exact, cut_norm_heuristic, operator_norm
from .perturbation import (
    constants_analytic,
    prop6_certificate,
    prop7_certificate,
    prop9_certificate,
    prop10_certificate,
    theorem1_certificate,
    theorem2_certificate,
)

_NORM_KINDS = {"1": 1, "2": 2, "inf": float("inf")}


def _file_digest(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _manifest(command, paths, parameters):
    return {
        "command": command,
        "inputs": [{"path": str(p), "sha256": _file_digest(p)} for p in paths],
        "parameters": {k: v for k, v in parameters.items() if v is not None},
        "tool_version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }


def _emit(payload, args, csv_table):
    """Write the JSON payload; with --csv, also the table that the callable
    ``csv_table`` builds, which is not called otherwise."""
    if args.output:
        with open(args.output, "w") as fp:
            _write_json(payload, fp)
        if args.csv:
            Path(args.output).with_suffix(".csv").write_text(csv_table())
    else:
        _write_json(payload, sys.stdout)
        if args.csv:
            sys.stdout.write(csv_table())


def _build_map(args):
    if args.family in ("katz", "pagerank") and args.alpha is None:
        raise ParameterError(f"--alpha is required for {args.family}")
    return FixedPointMap(args.family, alpha=args.alpha)


def _normalizer_name(flag):
    return flag.replace("-", "_")


def cmd_centrality(args):
    g = read_graph(args.input)
    if args.family == "eigen":
        if args.alpha is not None:
            raise ParameterError("--alpha does not apply to the eigen family")
        res = eigencentrality(g, "largest")
        feature, rho = res.vector, res.rho
        iterations, residual = res.iterations, res.residual
    else:
        out = solve(g, _build_map(args))
        feature, rho = out.feature_x, out.rho
        iterations, residual = out.iterations, out.residual
    if args.normalizer is not None:
        rho = normalize(feature, _normalizer_name(args.normalizer))
    elif rho is None:
        raise ParameterError(
            "the leading eigenvector has mixed signs; pass --normalizer"
        )
    payload = {
        "rho": [float(x) for x in rho],
        "feature_x": [float(x) for x in feature],
        "iterations": iterations,
        "residual": residual,
        "manifest": _manifest(
            "centrality",
            [args.input],
            {"family": args.family, "alpha": args.alpha, "normalizer": args.normalizer},
        ),
    }
    _emit(payload, args, lambda: "node,rho,feature_x\n" + "".join(
        f"{i},{float(r)!r},{float(x)!r}\n" for i, (r, x) in enumerate(zip(rho, feature))
    ))
    return 0


def _certificate_csv(cert):
    return (
        "bound,observed,holds,slack,certified\n"
        f"{cert.bound!r},{cert.observed!r},{cert.holds},{cert.slack!r},{cert.certified}\n"
    )


def cmd_compare(args):
    a = read_graph(args.input_a)
    b = read_graph(args.input_b)
    map_ = _build_map(args)
    consts = constants_analytic(a, map_)
    if args.bound == "theorem1":
        cert = theorem1_certificate(a, b, map_, consts)
    elif args.bound == "prop6":
        cert = prop6_certificate(
            a, b, map_, consts, perm_mode=args.perm_mode, jobs=args.jobs
        )
    else:
        cert = prop7_certificate(a, b, map_, consts, jobs=args.jobs)
    payload = cert.to_dict()
    payload["manifest"] = _manifest(
        "compare",
        [args.input_a, args.input_b],
        {
            "family": args.family,
            "alpha": args.alpha,
            "bound": args.bound,
            "perm_mode": args.perm_mode,
            "jobs": args.jobs,
        },
    )
    _emit(payload, args, lambda: _certificate_csv(cert))
    return 0 if cert.holds else 1


def cmd_graphon_lift(args):
    g = read_graph(args.input)
    w = lift(g)
    _emit(graphon_to_dict(w), args, lambda: "".join(
        ",".join(map(float.__repr__, row)) + "\n" for row in w.values.tolist()
    ))
    return 0


def cmd_graphon_centrality(args):
    w = read_graphon(args.input)
    if args.family == "eigen":
        if args.alpha is not None:
            raise ParameterError("--alpha does not apply to the eigen family")
        rho, lam = graphon_eigencentrality(w)
        extras = {"lambda": float(lam)}
    elif args.family == "katz":
        if args.alpha is None:
            raise ParameterError("--alpha is required for katz")
        rho = graphon_katz(w, args.alpha)
        extras = {}
    else:
        if args.alpha is None:
            raise ParameterError("--alpha is required for pagerank")
        rho = graphon_pagerank(w, args.alpha)
        extras = {
            "integral": integral(rho),
            "non_negative": bool(float(np.min(rho.values)) >= -1e-12),
        }
    payload = {
        "rho": [float(x) for x in rho.values],
        **extras,
        "manifest": _manifest(
            "graphon centrality",
            [args.input],
            {"family": args.family, "alpha": args.alpha},
        ),
    }
    _emit(payload, args, lambda: "block,rho\n" + "".join(
        f"{i},{float(x)!r}\n" for i, x in enumerate(rho.values)
    ))
    return 0


def cmd_graphon_compare(args):
    a = read_graphon(args.input_a)
    b = read_graphon(args.input_b)
    if args.bound == "theorem2":
        cert = theorem2_certificate(a, b, args.family, args.alpha)
    elif args.bound == "prop9":
        cert = prop9_certificate(a, b, args.family, args.alpha, mode=args.perm_mode)
    else:
        cert = prop10_certificate(a, b, args.family, args.alpha, mode=args.perm_mode)
    payload = cert.to_dict()
    payload["manifest"] = _manifest(
        "graphon compare",
        [args.input_a, args.input_b],
        {
            "family": args.family,
            "alpha": args.alpha,
            "bound": args.bound,
            "perm_mode": args.perm_mode,
        },
    )
    _emit(payload, args, lambda: _certificate_csv(cert))
    return 0 if cert.holds else 1


def cmd_norms(args):
    g = read_graph(args.input)
    m = g.weights
    if args.norm == "cut":
        if args.mode == "exact":
            witness = cut_norm_exact(m)
        else:
            witness = cut_norm_heuristic(m, seed=args.seed)
        payload = {
            "kind": "cut",
            "value": witness.value,
            "witness": {"S": list(witness.S), "T": list(witness.T)},
        }
    else:
        payload = {"kind": args.norm, "value": operator_norm(m, _NORM_KINDS[args.norm])}
    payload["manifest"] = _manifest(
        "norms",
        [args.input],
        {"norm": args.norm, "mode": args.mode if args.norm == "cut" else None,
         "seed": args.seed if args.norm == "cut" else None},
    )
    _emit(payload, args, lambda: f"kind,value\n{payload['kind']},{payload['value']!r}\n")
    return 0


def _positive_int(text):
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_output_flags(sub):
    sub.add_argument("-o", "--output", help="write JSON here instead of stdout")
    sub.add_argument(
        "--csv",
        action="store_true",
        help="additionally emit a flat CSV table (next to --output, or appended "
        "to stdout)",
    )


def _add_family_flags(sub, families):
    sub.add_argument("--family", required=True, choices=families)
    sub.add_argument("--alpha", type=float, help="katz/pagerank damping parameter")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fpc",
        description="Fixed-point centralities, graphon mirrors, and "
        "perturbation-bound certificates.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)

    cent = subparsers.add_parser("centrality", help="solve a centrality on one graph")
    cent.add_argument("input", help="edge-list or graph JSON file")
    _add_family_flags(cent, ("eigen", "katz", "pagerank"))
    cent.add_argument(
        "--normalizer",
        choices=("identity", "exp", "exp-neg", "abs"),
        help="project the feature vector to a probability vector",
    )
    _add_output_flags(cent)
    cent.set_defaults(handler=cmd_centrality)

    comp = subparsers.add_parser(
        "compare", help="perturbation-bound certificate between two graphs"
    )
    comp.add_argument("input_a")
    comp.add_argument("input_b")
    _add_family_flags(comp, ("eigen", "katz", "pagerank"))
    comp.add_argument(
        "--bound", choices=("theorem1", "prop6", "prop7"), default="theorem1"
    )
    comp.add_argument("--perm-mode", choices=("exact", "greedy"), default="exact")
    comp.add_argument("--jobs", type=_positive_int, default=1)
    _add_output_flags(comp)
    comp.set_defaults(handler=cmd_compare)

    graphon = subparsers.add_parser("graphon", help="step-graphon commands")
    gsub = graphon.add_subparsers(dest="graphon_command", required=True)

    glift = gsub.add_parser("lift", help="represent a symmetric graph as a graphon")
    glift.add_argument("input")
    _add_output_flags(glift)
    glift.set_defaults(handler=cmd_graphon_lift)

    gcent = gsub.add_parser("centrality", help="graphon centrality on block values")
    gcent.add_argument("input", help="step-graphon JSON file")
    _add_family_flags(gcent, ("eigen", "katz", "pagerank"))
    _add_output_flags(gcent)
    gcent.set_defaults(handler=cmd_graphon_centrality)

    gcomp = gsub.add_parser("compare", help="graphon perturbation certificate")
    gcomp.add_argument("input_a")
    gcomp.add_argument("input_b")
    _add_family_flags(gcomp, ("katz", "pagerank"))
    gcomp.add_argument(
        "--bound", choices=("theorem2", "prop9", "prop10"), default="theorem2"
    )
    gcomp.add_argument("--perm-mode", choices=("exact", "greedy"), default="exact")
    _add_output_flags(gcomp)
    gcomp.set_defaults(handler=cmd_graphon_compare)

    norms = subparsers.add_parser("norms", help="operator and cut norms")
    norms.add_argument("input")
    norms.add_argument("--norm", required=True, choices=("1", "2", "inf", "cut"))
    norms.add_argument(
        "--mode",
        choices=("exact", "heuristic"),
        default="exact",
        help="cut norm only: exhaustive search or alternating maximization",
    )
    norms.add_argument("--seed", type=int, default=0, help="heuristic restart seed")
    _add_output_flags(norms)
    norms.set_defaults(handler=cmd_norms)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except InputFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (NonConvergenceError, NumericalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ParameterError, SizeLimitError, SimplicityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
