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
from .graphon import StepGraphon, _is_finite_real
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
    return _parse_matrix(_load_json(text), "graph", Graph, "weights", "n", "matrix")


def parse_graphon_json(text):
    """Build a StepGraphon from `{"k": int, "c": real, "values": [[...]]}`
    text; c is optional (null or a finite real number) and defaults to the
    largest absolute value."""
    obj = _load_json(text)

    def build(values):
        c = obj.get("c")
        if c is not None and not _is_finite_real(c):
            raise InputFormatError(
                "bad 'c' value: expected null or a finite real number"
            )
        return StepGraphon(values, c=c)

    return _parse_matrix(obj, "graphon", build, "values", "k", "values")


def _parse_matrix(obj, kind, build, key, size_key, noun):
    """``build(obj[key])``, whose faults become InputFormatError; a
    declared size ``obj[size_key]`` must be absent, null or equal to the
    built one's."""
    if key not in obj:
        raise InputFormatError(f"{kind} JSON requires a {key!r} key")
    try:
        built = build(obj[key])
    except (ParameterError, ValueError, TypeError, OverflowError) as exc:
        raise InputFormatError(f"bad {key!r} value: {exc}") from exc
    size = getattr(built, size_key)
    declared = obj.get(size_key)
    if isinstance(declared, bool):
        raise InputFormatError(f"bad {size_key!r} value: expected null or a number")
    if declared is not None and declared != size:
        raise InputFormatError(
            f"declared {size_key}={declared} does not match the {size}x{size} {noun}"
        )
    return built


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
    return {"n": g.n, "weights": g.weights.tolist()}


def graphon_to_dict(w):
    return {"k": w.k, "c": float(w.c), "values": w.values.tolist()}


def _write_json(payload, fp):
    """Write ``payload`` to the text stream ``fp`` exactly as
    ``json.dumps(payload, indent=2, sort_keys=True) + "\n"`` spells it.

    A list whose items are all finite floats is one join of their reprs, so
    a matrix costs one join per row instead of one encoder step per entry;
    every other value goes through the json encoder.  It is the package's
    only JSON writer, so every command and file spells JSON the same way.
    """
    _write_value(payload, fp, "\n")
    fp.write("\n")


def _write_value(value, fp, newline):
    inner = newline + "  "
    if isinstance(value, dict):
        if not value:
            fp.write("{}")
            return
        sep = "{" + inner
        for key, item in sorted(value.items()):
            fp.write(f"{sep}{json.dumps(_json_key(key))}: ")
            _write_value(item, fp, inner)
            sep = "," + inner
        fp.write(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            fp.write("[]")
            return
        try:
            row = ("," + inner).join(map(float.__repr__, value))
        except TypeError:  # not all floats
            row = None
        # finite float reprs hold no "n"; json spells nan and inf differently
        if row is not None and "n" not in row:
            fp.write(f"[{inner}{row}{newline}]")
            return
        sep = "[" + inner
        for item in value:
            fp.write(sep)
            _write_value(item, fp, inner)
            sep = "," + inner
        fp.write(newline + "]")
    else:
        fp.write(json.dumps(value))


def _json_key(key):
    """The string json.dumps makes of a dict key."""
    if isinstance(key, str):
        return key
    if key is None or isinstance(key, (bool, int, float)):
        return json.dumps(key)
    raise TypeError(
        f"keys must be str, int, float, bool or None, not {type(key).__name__}"
    )


def write_graph(g, path):
    with open(path, "w") as fp:
        _write_json(graph_to_dict(g), fp)


def write_graphon(w, path):
    with open(path, "w") as fp:
        _write_json(graphon_to_dict(w), fp)
