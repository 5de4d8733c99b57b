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
import contextlib
import os
import sys

from . import __version__
from .errors import (
    InputFormatError,
    NonConvergenceError,
    NumericalError,
    ParameterError,
    SimplicityError,
    SizeLimitError,
)

# Each handler imports the layers it runs, so a command loads only the
# modules it needs and ``--version`` loads neither numpy nor any layer.

_INPUTS = ("input", "input_a", "input_b")
# parsed options that are not parameters of the computation
_NOT_RECORDED = (*_INPUTS, "command", "graphon_command", "handler", "output", "csv")
# the bounds whose relabeling search --perm-mode picks
_SEARCHED = ("prop6", "prop9", "prop10")
# exit code of each error class; all other exceptions propagate
_EXIT_CODES = {
    InputFormatError: 4, OSError: 4,
    NonConvergenceError: 3, NumericalError: 3,
    ParameterError: 2, SizeLimitError: 2, SimplicityError: 2,
}


def _manifest(args, *inputs):
    """The command, its inputs and every parsed option that is set, except
    input paths, output routing, ``--mode`` off the cut norm and
    ``--perm-mode`` off a bound that takes no mode; ``inputs``, read from
    those paths, carry the SHA-256 of their bytes."""
    from datetime import datetime, timezone

    options = vars(args)
    skip = _NOT_RECORDED + (() if options.get("norm", "cut") == "cut" else ("mode",))
    skip += () if options.get("bound") in _SEARCHED else ("perm_mode",)
    paths = [options[k] for k in _INPUTS if k in options]
    command = (args.command, options.get("graphon_command"))
    return {
        "command": " ".join(c for c in command if c),
        "inputs": [{"path": str(p), "sha256": x._sha256} for p, x in zip(paths, inputs)],
        "parameters": {k: v for k, v in options.items() if k not in skip and v is not None},
        "tool_version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }


def _emit(payload, args, csv_table):
    """Write the JSON payload; with --csv, also the table that the callable
    ``csv_table`` builds, which is not called otherwise."""
    from .io import _write_json

    if args.output:
        with open(args.output, "w") as fp:
            _write_json(payload, fp)
        if args.csv:
            from pathlib import Path

            Path(args.output).with_suffix(".csv").write_text(csv_table())
    else:
        _write_json(payload, sys.stdout)
        if args.csv:
            sys.stdout.write(csv_table())


def _check_alpha(args):
    """``--alpha`` is required for katz and pagerank and refused for eigen;
    checked after the inputs are read, so a bad file reports first."""
    if args.family == "eigen":
        if args.alpha is not None:
            raise ParameterError("--alpha does not apply to the eigen family")
    elif args.alpha is None:
        raise ParameterError(f"--alpha is required for {args.family}")


def cmd_centrality(args):
    from .centrality import eigencentrality, normalize, solve
    from .io import read_graph

    g = read_graph(args.input)
    _check_alpha(args)
    if args.family == "eigen":
        res = eigencentrality(g)
        feature, rho = res.vector, res.rho
        iterations, residual = res.iterations, res.residual
    else:
        out = solve(g, args.family, args.alpha)
        feature, rho = out.feature_x, out.rho
        iterations, residual = out.iterations, out.residual
    if args.normalizer is not None:
        rho = normalize(feature, args.normalizer.replace("-", "_"))
    elif rho is None:
        raise ParameterError(
            "the leading eigenvector has mixed signs; pass --normalizer"
        )
    payload = {
        "rho": [float(x) for x in rho],
        "feature_x": [float(x) for x in feature],
        "iterations": iterations,
        "residual": residual,
        "manifest": _manifest(args, g),
    }
    _emit(payload, args, lambda: "node,rho,feature_x\n" + "".join(
        f"{i},{float(r)!r},{float(x)!r}\n" for i, (r, x) in enumerate(zip(rho, feature))
    ))
    return 0


def cmd_compare(args):
    """``compare`` and ``graphon compare``: the certificate of ``--bound``
    on two graphs or two step graphons; exit 0 if it holds, else 1.  A
    greedy ``--perm-mode`` is refused for a bound that searches no
    relabeling greedily, which would ignore it."""
    from . import perturbation

    if args.command == "graphon":
        from .io import read_graphon as read
    else:
        from .io import read_graph as read
    a = read(args.input_a)
    b = read(args.input_b)
    _check_alpha(args)
    searched = args.bound in _SEARCHED
    if args.perm_mode == "greedy" and not searched:
        raise ParameterError(
            "--perm-mode greedy applies only to --bound prop6, prop9 and prop10, "
            f"not to {args.bound}"
        )
    certificate = getattr(perturbation, f"{args.bound}_certificate")
    mode = {"mode": args.perm_mode} if searched else {}
    cert = certificate(a, b, args.family, args.alpha, **mode)
    _emit({**cert.to_dict(), "manifest": _manifest(args, a, b)}, args, lambda: (
        "bound,observed,holds,slack,certified\n"
        f"{cert.bound!r},{cert.observed!r},{cert.holds},{cert.slack!r},{cert.certified}\n"
    ))
    return 0 if cert.holds else 1


def cmd_graphon_lift(args):
    from .graphon import lift
    from .io import _csv_rows, _graphon_payload, _read_graph

    # a graph read without a digest: the payload has no manifest
    w = lift(_read_graph(args.input, hashed=False))
    _emit(_graphon_payload(w), args, lambda: "".join(
        row + "\n" for row in _csv_rows(w._graph)
    ))
    return 0


def cmd_graphon_centrality(args):
    import numpy as np

    from .centrality import NEGATIVE_RHO_TOL
    from .graphon import graphon_eigencentrality, graphon_katz, graphon_pagerank, integral
    from .io import read_graphon

    w = read_graphon(args.input)
    _check_alpha(args)
    if args.family == "eigen":
        rho, lam = graphon_eigencentrality(w)
        extras = {"lambda": float(lam)}
    else:
        rho = (graphon_katz if args.family == "katz" else graphon_pagerank)(w, args.alpha)
        extras = {"iterations": rho.iterations, "residual": rho.residual}
    if args.family == "pagerank":
        extras.update(
            integral=integral(rho),
            non_negative=bool(float(np.min(rho.values)) >= -NEGATIVE_RHO_TOL),
        )
    payload = {
        "rho": [float(x) for x in rho.values],
        **extras,
        "manifest": _manifest(args, w),
    }
    _emit(payload, args, lambda: "block,rho\n" + "".join(
        f"{i},{float(x)!r}\n" for i, x in enumerate(rho.values)
    ))
    return 0


def cmd_norms(args):
    from .io import read_graph
    from .norms import _canon_p, _operator_norm, cut_norm_exact, cut_norm_heuristic

    g = read_graph(args.input)
    if args.norm == "cut":
        m = g.weights
        if args.mode == "exact":
            witness = cut_norm_exact(m)
        else:
            witness = cut_norm_heuristic(m)
        payload = {
            "kind": "cut",
            "value": witness.value,
            "witness": {"S": list(witness.S), "T": list(witness.T)},
        }
    else:
        # the graph's own operand, whose list operator_norm would find again
        value = _operator_norm(g._held, _canon_p(args.norm))
        payload = {"kind": args.norm, "value": value}
    payload["manifest"] = _manifest(args, g)
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


def _add_compare_flags(sub, families, bounds):
    sub.add_argument("input_a")
    sub.add_argument("input_b")
    _add_family_flags(sub, families)
    sub.add_argument("--bound", choices=bounds, default=bounds[0])
    sub.add_argument("--perm-mode", choices=("exact", "greedy"), default="exact")


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
    _add_compare_flags(comp, ("eigen", "katz", "pagerank"), ("theorem1", "prop6", "prop7"))
    comp.add_argument("--jobs", type=_positive_int, default=1,
                      help="accepted and recorded in the manifest; it changes nothing")
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
    _add_compare_flags(gcomp, ("katz", "pagerank"), ("theorem2", "prop9", "prop10"))
    _add_output_flags(gcomp)
    gcomp.set_defaults(handler=cmd_compare)

    norms = subparsers.add_parser("norms", help="operator and cut norms")
    norms.add_argument("input")
    norms.add_argument("--norm", required=True, choices=("1", "2", "inf", "cut"))
    norms.add_argument(
        "--mode",
        choices=("exact", "heuristic"),
        default="exact",
        help="cut norm only: exhaustive search or alternating maximization",
    )
    _add_output_flags(norms)
    norms.set_defaults(handler=cmd_norms)

    return parser


# the getter and setter of the OpenBLAS thread count, first pair found wins
_BLAS_THREADS = tuple(
    (f"{lib}_get_num_threads{suffix}", f"{lib}_set_num_threads{suffix}")
    for lib in ("scipy_openblas", "openblas") for suffix in ("64_", "")
)


@contextlib.contextmanager
def _one_blas_thread():
    """Run the body with the OpenBLAS that numpy's core links set to one
    thread, then give the caller's count back, so an output does not depend
    on the thread count.  The count is read and set through ``ctypes`` by
    the first pair of ``_BLAS_THREADS`` that the core's library or its
    dependencies export; where none is, as with another BLAS, nothing is set."""
    import ctypes

    import numpy  # noqa: F401 -- every handler loads it, and it loads the BLAS

    core = sys.modules.get("numpy._core._multiarray_umath") or sys.modules.get(
        "numpy.core._multiarray_umath")
    try:
        lib = ctypes.CDLL(core.__file__)
    except (AttributeError, OSError):  # no such module, or its library does not load
        lib = None
    pairs = [(getattr(lib, g), getattr(lib, s)) for g, s in _BLAS_THREADS
             if hasattr(lib, g) and hasattr(lib, s)]
    if not pairs:
        yield
        return
    get, set_ = pairs[0]
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    threads = get()
    set_(1)
    try:
        yield
    finally:
        set_(threads)


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        with _one_blas_thread():
            return args.handler(args)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES.items() if isinstance(exc, cls))


def run():
    """Process entry of ``fpc`` and ``python -m fpcentral.cli``: run ``main()``, flush
    stdout and stderr, and end by ``os._exit`` with its code, skipping the interpreter's
    teardown and ``atexit`` hooks.  A failed flush (a reader closed the pipe) ends with
    exit 4 and one ``error:`` line, main's own if its write failed already; ``os._exit``
    drops the bytes stuck in the buffer.  Another exception exits as usual."""
    try:
        code = main()
    except SystemExit as exc:
        code = exc.code or 0
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except OSError as exc:
        if code != 4:
            with contextlib.suppress(OSError):
                print(f"error: {exc}", file=sys.stderr)
        code = 4
    os._exit(code)


if __name__ == "__main__":
    sys.exit(run())
