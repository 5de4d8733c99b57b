"""Reading and writing graphs and step graphons.

Two input formats for graphs: an edge-list text format (one `i j w` entry
per line, 0-based node indices, optional weight defaulting to 1, `#`
comments and blank lines ignored, a bare `i` declares an isolated node)
and a JSON object `{"n": int, "weights": [[...], ...]}`.  An edge-list
line sets the single entry a_ij, so symmetric graphs list both
directions.  Step graphons use the JSON object
`{"k": int, "c": real, "values": [[...], ...]}`.

Files are read as bytes.  A JSON matrix that is listed, with at most
``graphs.ENTRY_SHARE`` of its entries spelled other than ``0.0`` (the
form the writer gives a sparse matrix), is read from those entries
(``_listed_object``): its rows are checked in numpy passes over their
bytes, and only the other entries are parsed in Python.  Every other file
is decoded as ``Path.read_text`` decodes it and read by ``json.loads`` or
the edge-list parser, and so is a listed one with any fault, so values
and errors do not depend on the path taken.

An edge list declares at most MAX_DENSE_N = 5000 nodes, checked before
any array is made.  All parse failures raise InputFormatError with a line
number where one makes sense; bytes that are not text in the locale's
encoding, JSON nested past the parser's recursion limit and integers past
Python's digit limit raise it too.
"""

import json
import math

from io import BytesIO, TextIOWrapper
from itertools import chain, compress
from operator import itemgetter
from pathlib import Path

import numpy as np

from .errors import InputFormatError, ParameterError
from .graphs import ENTRY_SHARE, Graph, _Dense

# the largest node count of an edge-list graph, refused before any array
MAX_DENSE_N = 5000


def parse_edge_list(text):
    """Build a Graph from edge-list text; node count is one past the
    largest index mentioned, at most MAX_DENSE_N.

    Indices are read by ``int`` and weights by ``float``, so both take
    Python's spellings (``+1``, ``1_0``, ``1e3``), and a weight must be
    finite.  When several lines set one entry, the last one wins.  The text
    is parsed in vectorized passes over chunks of lines; only at a fault are
    the lines walked one by one, to report the first faulty line.  The
    graph adopts the parsed list of its entries (``Graph._adopt_list``), so
    no n x n array is made below the cut.
    """
    lines = text.splitlines()
    if "#" in text:
        lines = [line.partition("#")[0] for line in lines]
    try:
        max_index, src, dst, weight = _edge_columns(lines)
    except (ValueError, OverflowError):
        # With no faulty line, an index beyond int64 overflowed; it is
        # refused below as too many nodes.
        max_index, src, dst, weight = _check_lines(map(str.split, lines)), None, None, None
    del lines
    if max_index < 0:
        raise InputFormatError("edge list declares no nodes")
    n = max_index + 1
    if n > MAX_DENSE_N:
        raise InputFormatError(
            f"edge list declares {n} nodes; dense graphs are limited to n <= {MAX_DENSE_N}"
        )
    # np.unique keeps the first of equal entries, so the reversed lines
    # keep the last line that sets each entry
    flat, first = np.unique((src * n + dst)[::-1], return_index=True)
    # the sorted flat indices list every entry in row-major order
    return Graph._adopt_list(n, *np.divmod(flat, n), weight[::-1][first])


def _edge_columns(lines):
    """``(largest index, i, j, w)`` of an edge list's ``lines``, split
    ``_EDGE_LINES`` at a time; raises ValueError on a faulty line and
    OverflowError on an index beyond int64."""
    top, columns = -1, [(np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0))]
    for start in range(0, len(lines), _EDGE_LINES):
        fields = list(map(str.split, lines[start : start + _EDGE_LINES]))
        size = np.fromiter(map(len, fields), np.intp, len(fields))
        if size.max(initial=0) > 3:
            raise ValueError("a line has more than three fields")
        is_edge = size >= 2
        edges = list(compress(fields, is_edge))
        k = len(edges)
        tokens = chain(
            map(itemgetter(0), edges),
            map(itemgetter(1), edges),
            map(itemgetter(0), compress(fields, size == 1)),
        )
        index = np.fromiter(map(int, tokens), np.int64)
        if (index < 0).any():
            raise ValueError("a node index is negative")
        weight = np.ones(k)
        heavy = size[is_edge] == 3
        weight[heavy] = np.fromiter(map(float, map(itemgetter(2), compress(edges, heavy))), float)
        if not np.isfinite(weight).all():
            raise ValueError("a weight is not finite")
        top = max(top, int(index.max(initial=-1)))
        columns.append((index[:k], index[k : 2 * k], weight))
    return (top, *map(np.concatenate, zip(*columns)))


def _check_lines(fields):
    """Raise the InputFormatError of the first faulty line of an edge list
    split into ``fields``, one token list per line; with none, return the
    largest node index."""
    max_index = -1
    for lineno, parts in enumerate(fields, start=1):
        if len(parts) > 3:
            raise InputFormatError(
                f"line {lineno}: expected 'i j w' with at most three fields",
                line=lineno,
            )
        for token in parts[:2]:
            try:
                index = int(token)
            except ValueError:
                raise InputFormatError(
                    f"line {lineno}: {token!r:.40} is not an integer node index",
                    line=lineno,
                ) from None
            if index < 0:
                raise InputFormatError(
                    f"line {lineno}: node indices must be non-negative", line=lineno
                )
            max_index = max(max_index, index)
        if len(parts) == 3:
            try:
                weight = float(parts[2])
            except ValueError:
                raise InputFormatError(
                    f"line {lineno}: {parts[2]!r:.40} is not a real weight",
                    line=lineno,
                ) from None
            if not math.isfinite(weight):
                raise InputFormatError(
                    f"line {lineno}: weights must be finite", line=lineno
                )
    return max_index


def parse_graph_json(text):
    """Build a Graph from `{"n": int, "weights": [[...], ...]}` text."""
    return _graph_from_json(_load_json(text))


def parse_graphon_json(text):
    """Build a StepGraphon from `{"k": int, "c": real, "values": [[...]]}`
    text; c is optional (null or a finite real number) and defaults to the
    largest absolute value."""
    return _graphon_from_json(_load_json(text))


def _graph_from_json(obj):
    return _parse_matrix(obj, "graph", _as_graph, "weights", "n", "matrix")


def _graphon_from_json(obj):
    from .graphon import StepGraphon, _is_finite_real

    def build(values):
        c = obj.get("c")
        if c is not None and not _is_finite_real(c):
            raise InputFormatError(
                "bad 'c' value: expected null or a finite real number"
            )
        return StepGraphon._adopt(_as_graph(values), c=c)

    return _parse_matrix(obj, "graphon", build, "values", "k", "values")


def _as_graph(rows):
    """The Graph of a list of rows, or the Graph ``_listed_object`` built."""
    return rows if isinstance(rows, Graph) else Graph(rows)


def _parse_matrix(obj, kind, build, key, size_key, noun):
    """``build(obj[key])``, whose faults become InputFormatError; a list of
    rows may hold only JSON numbers (numpy would read " 1e3 " and true as
    numbers), and a declared size ``obj[size_key]`` must be absent, null or
    equal to the built one's."""
    if key not in obj:
        raise InputFormatError(f"{kind} JSON requires a {key!r} key")
    rows = obj[key]
    try:
        if isinstance(rows, list) and all(isinstance(row, list) for row in rows):
            if not set(map(type, chain.from_iterable(rows))) <= {int, float}:
                bad = next(x for x in chain.from_iterable(rows) if type(x) not in (int, float))
                raise ValueError(f"entries must be JSON numbers, got {json.dumps(bad):.40}")
        built = build(rows)
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
    except RecursionError:
        raise InputFormatError("invalid JSON: nested too deeply") from None
    except ValueError as exc:  # an integer past sys.get_int_max_str_digits()
        raise InputFormatError(f"invalid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise InputFormatError("expected a JSON object")
    return obj


def _decode(data):
    """A file's bytes as the text ``Path.read_text`` makes of them (the
    locale's encoding, universal newlines); bytes that do not decode raise
    InputFormatError."""
    try:
        return TextIOWrapper(BytesIO(data)).read()
    except UnicodeDecodeError as exc:
        raise InputFormatError(
            f"byte {exc.start}: not {exc.encoding} text ({exc.reason})"
        ) from None


# JSON whitespace, and the bytes of the rows of a listed matrix
_WHITESPACE = b" \t\n\r"
_MATRIX_BYTES = b"0123456789.eE+-,[]"
# bytes of a file per chunk of the rows of a listed matrix, and lines of an
# edge list split at a time
_CHUNK = 1 << 18
_EDGE_LINES = 1024


def _listed_object(data, key):
    """The JSON object of a file's bytes ``data`` whose matrix ``key`` is
    listed, with the Graph of that matrix in place of its rows; None for any
    other file, which the json path then reads as before.

    A listed matrix is the object's last member, a square list of rows of
    JSON numbers in an ASCII file, of which at most ``graphs.ENTRY_SHARE``
    are spelled other than ``0.0``.  Its rows are checked in numpy passes
    over their bytes (``_listed_chunk``), so that only the tokens that are
    not ``0.0`` are parsed in Python, as ``json.loads`` parses them; the
    graph adopts the list of them (``Graph._adopt_list``).  The rest of the
    object is read by ``json.loads`` with a 0 for the matrix.
    """
    quoted = b'"%s"' % key.encode()
    at = data.find(quoted)
    colon = data.find(b":", at + len(quoted))
    start = data.find(b"[", colon)
    end = data.rfind(b"}")
    close = data.rfind(b"]", 0, end)
    if min(at, colon, start, close) < 0 or start > close:
        return None
    around = data[at + len(quoted) : colon] + data[colon + 1 : start] + data[close + 1 :]
    doc = data[: colon + 1] + b"0" + data[close + 1 :]
    if around.translate(None, _WHITESPACE) != b"}" or not doc.isascii():
        return None
    members = []
    try:
        obj = json.loads(doc, object_pairs_hook=lambda pairs: members.append(pairs) or dict(pairs))
    except (ValueError, RecursionError):
        return None
    # the 0 is the value of the last member of the outermost object
    names = [name for name, _ in members[-1]] if isinstance(obj, dict) else []
    if names[-1:] != [key] or names.count(key) != 1:
        return None
    listed = _listed_entries(data, start + 1, close)
    if listed is None:
        return None
    n, rows, cols, tokens = listed
    try:
        # one list of the tokens, each a JSON number, converted as the json
        # path converts its lists
        vals = np.array(json.loads(b"[%s]" % b",".join(tokens)), dtype=float)
    except (ValueError, OverflowError):  # no number, or an integer beyond float64
        return None
    if not np.isfinite(vals).all():
        return None
    obj[key] = Graph._adopt_list(n, rows, cols, vals)
    return obj


def _listed_entries(data, pos, close):
    """``(n, rows, cols, tokens)`` of the rows of a listed n x n matrix in
    ``data[pos:close]``: the row, column and bytes of each token that is
    not ``0.0``, in row-major order.  None if those bytes spell no square
    list of rows, or more than ``ENTRY_SHARE`` of its tokens are not
    ``0.0``, which shows in the chunk where they pass that share."""
    n, done, rows, cols, tokens = None, 0, [], [], []
    gap = b""  # what stands between two rows, whitespace aside
    while True:
        head = data.find(b"[", pos, close)
        between = data[pos : close if head < 0 else head].translate(None, _WHITESPACE)
        if head < 0 and gap and not between:
            break
        if head < 0 or between != gap:
            return None
        pos = data.find(b"]", head + _CHUNK, close)
        pos = close if pos < 0 else pos + 1
        chunk = _listed_chunk(data[head:pos], n, len(tokens))
        if chunk is None:
            return None
        n, m, row, col, found = chunk
        rows.append(row + done)
        cols.append(col)
        tokens += found
        done += m
        if done > n:
            return None
        gap = b","
    if done != n:
        return None
    return n, np.concatenate(rows), np.concatenate(cols), tokens


def _listed_chunk(raw, n, listed):
    """``(n, m, rows, cols, tokens)`` of the bytes ``raw`` of m whole rows
    ``[...], ..., [...]`` of a listed n x n matrix, with n the length of its
    first row when None is given, and the row (in ``raw``), column and bytes
    of each token that is not ``0.0``; ``listed`` such tokens are known
    already.  None for any other bytes.

    The checks are numpy passes over the bytes without whitespace: the
    brackets are the first ``[``, the last ``]`` and a ``],[`` between two
    rows, no token is empty, and each row holds n tokens.  Each ``0.0`` takes 4 bytes with
    its separator, so the columns follow from the byte offsets and lengths
    of the other tokens alone; whitespace may stand only beside a
    separator, which a count of adjacent number bytes before and after its
    removal shows.
    """
    s = raw.translate(None, _WHITESPACE)
    if s.translate(None, _MATRIX_BYTES):
        return None
    a = np.frombuffer(s, np.uint8)
    sep = a == 44  # ","
    sep |= np.subtract(a, 91, dtype=np.uint8) < 3  # "[" or "]"; "\" is no matrix byte
    opens = np.flatnonzero(a == 91)
    closes = np.flatnonzero(a == 93)
    m = opens.size
    if (
        not m or closes.size != m or opens[0] or closes[-1] != a.size - 1
        or not np.array_equal(opens[1:], closes[:-1] + 2) or (a[closes[:-1] + 1] != 44).any()
        # past the "]," and ",[" of each join, two adjacent separators
        # would bound an empty token
        or np.count_nonzero(sep[1:] & sep[:-1]) != 2 * (m - 1)
    ):
        return None
    if n is None:
        n = int(np.count_nonzero(a[: closes[0]] == 44)) + 1
    num = ~sep
    # zero[j]: the token at j + 1 is "0.0"
    zero = sep[:-4] & sep[4:]
    zero &= a[1:-3] == 48
    zero &= a[2:-2] == 46
    zero &= a[3:-1] == 48
    first = sep[:-1] & num[1:]  # a token starts at j + 1
    first[:-3] &= ~zero
    last = num[:-1] & sep[1:]  # a token ends at j
    last[3:] &= ~zero
    starts = np.flatnonzero(first) + 1
    if listed + starts.size > ENTRY_SHARE * n * n:
        return None
    ends = np.flatnonzero(last)
    lead = np.zeros(starts.size + 1, np.int64)  # bytes of the tokens before, with separators
    np.cumsum(ends - starts + 2, out=lead[1:])
    row = np.searchsorted(opens, starts) - 1
    bounds = np.searchsorted(row, np.arange(m + 1))
    if ((closes - opens - np.diff(lead[bounds])) // 4 + np.diff(bounds) != n).any():
        return None
    if len(raw) != a.size:
        inner = np.frombuffer(raw, np.uint8)
        inner = (inner > 32) & (inner != 44) & (np.subtract(inner, 91, dtype=np.uint8) > 2)
        if np.count_nonzero(inner[1:] & inner[:-1]) != np.count_nonzero(num) - m * n:
            return None
    before = bounds[row]
    col = (starts - opens[row] - 1 - lead[:-1] + lead[before]) // 4 + np.arange(starts.size) - before
    return n, m, row, col, [s[i : j + 1] for i, j in zip(starts.tolist(), ends.tolist())]


def _sha256(data):
    """The hex SHA-256 of ``data``.  ``hashlib`` is imported here, so a
    command that records no digest never loads OpenSSL (3.6 MiB)."""
    import hashlib

    return hashlib.sha256(data).hexdigest()


def read_graph(path):
    """Read a graph file, sniffing JSON (first character `{`) versus the
    edge-list text format; a listed JSON matrix is read from its entries
    (``_listed_object``); ``_sha256`` is the digest of the bytes read."""
    return _read_graph(path, hashed=True)


def _read_graph(path, hashed):
    """``read_graph``; without ``hashed``, ``_sha256`` is None."""
    data = Path(path).read_bytes()
    digest = _sha256(data) if hashed else None
    obj = _listed_object(data, "weights")
    if obj is not None:
        g = _graph_from_json(obj)
    else:
        text = _decode(data)
        del data
        g = parse_graph_json(text) if text.lstrip().startswith("{") else parse_edge_list(text)
    g._sha256 = digest
    return g


def read_graphon(path):
    """Read a step-graphon JSON file, a listed one from its entries
    (``_listed_object``); on the json path the file's bytes are dropped
    once decoded and its text once parsed, before the values array is
    built.  ``_sha256`` is set as ``read_graph`` sets it."""
    data = Path(path).read_bytes()
    digest = _sha256(data)
    obj = _listed_object(data, "values")
    if obj is None:
        text = _decode(data)
        del data
        obj = _load_json(text)
        del text
    w = _graphon_from_json(obj)
    w._sha256 = digest
    return w


def _graph_payload(g):
    return {"n": g.n, "weights": g}


def _graphon_payload(w):
    return {"k": w.k, "c": float(w.c), "values": w._graph}


def graph_to_dict(g):
    return {**_graph_payload(g), "weights": g.weights.tolist()}


def graphon_to_dict(w):
    return {**_graphon_payload(w), "values": w.values.tolist()}


def _write_json(payload, fp):
    """Write ``payload`` to the text stream ``fp`` exactly as
    ``json.dumps(payload, indent=2, sort_keys=True) + "\n"`` spells it,
    with a numpy array spelled as its ``tolist()``.

    A list whose items are all finite floats is one join of their reprs, so
    a matrix costs one join per row instead of one encoder step per entry;
    an array is spelled one row at a time, so no list of all its entries is
    made, and a Graph's weights by its operand (``spelled_rows``), from
    its list of entries when it holds one.  Every other value goes through
    the json encoder.  It is the package's only JSON writer, so
    every command and file spells JSON the same way.
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
    elif isinstance(value, Graph):
        sep = "[" + inner
        for row in value._held.spelled_rows("," + inner + "  "):
            fp.write(f"{sep}[{inner}  {row}{inner}]")
            sep = "," + inner
        fp.write(newline + "]")
    elif isinstance(value, np.ndarray):
        # a matrix is written a row at a time, as the list of its row views
        _write_value(list(value) if value.ndim > 1 else value.tolist(), fp, newline)
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


def _csv_rows(m):
    """The lines of a Graph's weights, or of a 2-D float64 array, as CSV,
    without line ends: the float reprs of each row, joined by commas; a
    Graph's from its list of entries when it holds one."""
    return (m._held if isinstance(m, Graph) else _Dense(m)).spelled_rows(",")


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
        _write_json(_graph_payload(g), fp)


def write_graphon(w, path):
    with open(path, "w") as fp:
        _write_json(_graphon_payload(w), fp)
