"""Reading and writing graphs and step graphons.

Two input formats for graphs: an edge-list text format (one `i j w` entry
per line, 0-based node indices, optional weight defaulting to 1, `#`
comments and blank lines ignored, a bare `i` declares an isolated node)
and a JSON object `{"n": int, "weights": [[...], ...]}`.  An edge-list
line sets the single entry a_ij, so symmetric graphs list both
directions.  Step graphons use the JSON object
`{"k": int, "c": real, "values": [[...], ...]}`.

All parse failures raise InputFormatError with a line number where one
makes sense.
"""

import json

from pathlib import Path

import numpy as np

from .errors import InputFormatError, ParameterError
from .graphon import StepGraphon
from .graphs import Graph
from .limits import MAX_DENSE_N


def parse_edge_list(text):
    """Build a Graph from edge-list text; node count is one past the
    largest index mentioned, at most MAX_DENSE_N = 5000."""
    entries = {}
    max_index = -1

    def parse_index(token, lineno):
        try:
            value = int(token)
        except ValueError:
            raise InputFormatError(
                f"line {lineno}: {token!r} is not an integer node index",
                line=lineno,
            ) from None
        if value < 0:
            raise InputFormatError(
                f"line {lineno}: node indices must be non-negative", line=lineno
            )
        return value

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) == 1:
            max_index = max(max_index, parse_index(parts[0], lineno))
            continue
        if len(parts) > 3:
            raise InputFormatError(
                f"line {lineno}: expected 'i j w' with at most three fields",
                line=lineno,
            )
        i = parse_index(parts[0], lineno)
        j = parse_index(parts[1], lineno)
        weight = 1.0
        if len(parts) == 3:
            try:
                weight = float(parts[2])
            except ValueError:
                raise InputFormatError(
                    f"line {lineno}: {parts[2]!r} is not a real weight",
                    line=lineno,
                ) from None
            if not np.isfinite(weight):
                raise InputFormatError(
                    f"line {lineno}: weights must be finite", line=lineno
                )
        entries[(i, j)] = weight
        max_index = max(max_index, i, j)
    if max_index < 0:
        raise InputFormatError("edge list declares no nodes")
    n = max_index + 1
    if n > MAX_DENSE_N:
        raise InputFormatError(
            f"edge list declares {n} nodes; dense graphs are limited to n <= {MAX_DENSE_N}"
        )
    weights = np.zeros((n, n))
    for (i, j), weight in entries.items():
        weights[i, j] = weight
    return Graph(weights)


def parse_graph_json(text):
    """Build a Graph from `{"n": int, "weights": [[...], ...]}` text."""
    obj = _load_json(text)
    if "weights" not in obj:
        raise InputFormatError("graph JSON requires a 'weights' key")
    try:
        graph = Graph(np.array(obj["weights"], dtype=float))
    except (ParameterError, ValueError) as exc:
        raise InputFormatError(f"bad 'weights' value: {exc}") from exc
    declared = obj.get("n")
    if declared is not None and declared != graph.n:
        raise InputFormatError(
            f"declared n={declared} does not match the {graph.n}x{graph.n} matrix"
        )
    return graph


def parse_graphon_json(text):
    """Build a StepGraphon from `{"k": int, "c": real, "values": [[...]]}`
    text; c is optional and defaults to the largest absolute value."""
    obj = _load_json(text)
    if "values" not in obj:
        raise InputFormatError("graphon JSON requires a 'values' key")
    try:
        graphon = StepGraphon(np.array(obj["values"], dtype=float), c=obj.get("c"))
    except (ParameterError, ValueError) as exc:
        raise InputFormatError(f"bad 'values' value: {exc}") from exc
    declared = obj.get("k")
    if declared is not None and declared != graphon.k:
        raise InputFormatError(
            f"declared k={declared} does not match the {graphon.k}x{graphon.k} values"
        )
    return graphon


def _load_json(text):
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputFormatError(
            f"line {exc.lineno}: invalid JSON: {exc.msg}", line=exc.lineno
        ) from exc
    if not isinstance(obj, dict):
        raise InputFormatError("expected a JSON object")
    return obj


def read_graph(path):
    """Read a graph file, sniffing JSON (first character `{`) versus the
    edge-list text format."""
    text = Path(path).read_text()
    if text.lstrip().startswith("{"):
        return parse_graph_json(text)
    return parse_edge_list(text)


def read_graphon(path):
    """Read a step-graphon JSON file."""
    return parse_graphon_json(Path(path).read_text())


def graph_to_dict(g):
    return {"n": g.n, "weights": [[float(x) for x in row] for row in g.weights]}


def graphon_to_dict(w):
    return {
        "k": w.k,
        "c": float(w.c),
        "values": [[float(x) for x in row] for row in w.values],
    }


def write_graph(g, path):
    Path(path).write_text(json.dumps(graph_to_dict(g), indent=2, sort_keys=True) + "\n")


def write_graphon(w, path):
    Path(path).write_text(
        json.dumps(graphon_to_dict(w), indent=2, sort_keys=True) + "\n"
    )
