"""Every subcommand, family and bound of ``fpc`` over a grid of edge inputs.

Each call runs ``cli.main`` in-process with warnings as errors.  Whatever
the input, a call must return exit code 0 with JSON on stdout that holds
no ``NaN`` or ``Infinity``, or 2, 3 or 4 with one ``error:`` line on
stderr, and raise nothing out of ``main``.  Every certificate the sweep
asks for holds, so no call exits 1.  A PageRank that exits 0 on an input
where every node has an out-edge is a probability vector: it sums to 1
within ``PMF_TOL``.
"""

import contextlib
import io
import json
import math

import pytest

from fpcentral.cli import main
from fpcentral.io import MAX_DENSE_N
from fpcentral.transport import PMF_TOL

NAN, INF, TINY = math.nan, math.inf, 5e-324
TRIANGLE = [[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]]
PATH = [[0.0, 1.0, 0.0, 0.0], [1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 1.0],
        [0.0, 0.0, 1.0, 0.0]]

# each input as a matrix, written both as an edge list and as graphon
# values; None where the input is not a matrix
MATRICES = {
    "empty": [],
    "one-node": [[0.0]],
    "self-loops": [[1.0, 1.0, 0.0], [1.0, 1.0, 1.0], [0.0, 1.0, 1.0]],
    "signed-zeros": [[-0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [-0.0, 1.0, -0.0]],
    "subnormal": [[TINY * x for x in row] for row in TRIANGLE],
    "huge": [[1e308 * x for x in row] for row in PATH],
    "negative": [[0.0, -1.0, 2.0], [-1.0, 0.0, 1.0], [2.0, 1.0, 0.0]],
    "nan": [[0.0, NAN], [1.0, 0.0]],
    "inf": [[0.0, INF], [1.0, 0.0]],
    # node 2 has no out-edge: a sink, and an isolated node (a graphon block
    # of no mass)
    "dangling": [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]],
    "isolated": [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
    "too-many-nodes": None,
}
FAMILIES = (("eigen",), ("katz", "--alpha", "0.1"), ("pagerank", "--alpha", "0.85"),
            # a katz alpha small enough for the 1e308 weights
            ("katz", "--alpha", "2.5e-309"))
BOUNDS = ("theorem1", "prop6", "prop7")
GRAPHON_BOUNDS = ("theorem2", "prop9", "prop10")
NORMS = (("1",), ("2",), ("inf",), ("cut",), ("cut", "--mode", "heuristic"))
# Graphon PageRank solves on the lift values/k, where values 5e-324 divided
# by k = 3 underflow to 0: every block dangles and the density keeps only
# the (1 - alpha) teleport mass (test_graphon_pagerank_of_subnormal_values)
GRAPHON_PAGERANK_UNDERFLOWS = {"subnormal"}


def _edge_list(m):
    """Every entry that is not +0.0, then the last node, so n is kept."""
    lines = [f"{i} {j} {w!r}\n" for i, row in enumerate(m) for j, w in enumerate(row)
             if w != 0.0 or math.copysign(1.0, w) < 0]
    return "".join(lines) + (f"{len(m) - 1}\n" if m else "")


def _partner(m):
    """``m`` with one entry moved, the second input of a compare."""
    m = [list(row) for row in m]
    if len(m) > 1:
        m[0][1] = m[1][0] = 0.5
    return m


def _call(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 2, 3, 4), argv
    if code:
        assert out == "", argv
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), argv
        return code, None

    def refuse(constant):
        raise AssertionError(f"{constant} in the output of {argv}")

    assert err == "", argv
    return code, json.loads(out, parse_constant=refuse)


def _check_pagerank(payload, m, mass):
    if payload is not None and not any(sum(row) == 0.0 for row in m):
        assert abs(mass(payload) - 1.0) <= PMF_TOL


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", sorted(MATRICES))
def test_every_command_on_an_edge_input(tmp_path, name):
    m = MATRICES[name]
    graph, partner = tmp_path / "a.txt", tmp_path / "b.txt"
    if m is None:  # one node past the dense limit
        graph.write_text(f"{MAX_DENSE_N}\n")
        partner.write_text(f"{MAX_DENSE_N}\n")
        m = []
    else:
        graph.write_text(_edge_list(m))
        partner.write_text(_edge_list(_partner(m)))
        graphon, graphon_b = tmp_path / "w.json", tmp_path / "wb.json"
        graphon.write_text(json.dumps({"values": m}))
        graphon_b.write_text(json.dumps({"values": _partner(m)}))
    a, b = str(graph), str(partner)
    _call("graphon", "lift", a)
    for norm in NORMS:
        _call("norms", a, "--norm", *norm)
    for family in FAMILIES:
        flags = ("--family", *family)
        _, payload = _call("centrality", a, *flags)
        if family[0] == "pagerank":
            _check_pagerank(payload, m, lambda p: math.fsum(p["rho"]))
        for bound in BOUNDS:
            for other in (a, b):
                _call("compare", a, other, *flags, "--bound", bound)
        if name == "too-many-nodes":
            continue
        w, wb = str(graphon), str(graphon_b)
        _, payload = _call("graphon", "centrality", w, *flags)
        if family[0] == "pagerank" and name not in GRAPHON_PAGERANK_UNDERFLOWS:
            _check_pagerank(payload, m, lambda p: p["integral"])
        if family[0] == "eigen":
            continue
        for bound in GRAPHON_BOUNDS:
            for other in (w, wb):
                _call("graphon", "compare", w, other, *flags, "--bound", bound)


@pytest.mark.xfail(strict=True, reason="the lift values/k underflow to 0")
def test_graphon_pagerank_of_subnormal_values(tmp_path):
    # the same values as a graph sum to 1; PageRank does not change when
    # all weights are scaled
    path = tmp_path / "w.json"
    path.write_text(json.dumps({"values": MATRICES["subnormal"]}))
    code, payload = _call("graphon", "centrality", str(path), "--family", "pagerank",
                          "--alpha", "0.85")
    assert code == 0
    assert abs(payload["integral"] - 1.0) <= PMF_TOL
