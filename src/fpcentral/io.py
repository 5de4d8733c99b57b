"""Reading and writing graphs and step graphons.

Two input formats for graphs: an edge-list text format (one `i j w` entry
per line, 0-based node indices, optional weight defaulting to 1, `#`
comments and blank lines ignored, a bare `i` declares an isolated node)
and a JSON object `{"n": int, "weights": [[...], ...]}`.  An edge-list
line sets the single entry a_ij, so symmetric graphs list both
directions.  Step graphons use the JSON object
`{"k": int, "c": real, "values": [[...], ...]}`.

Files are read as bytes.  A listed JSON matrix, with at most
``graphs.ENTRY_SHARE`` of its entries spelled other than ``0.0`` (the
writer's form of a sparse matrix), is read from those entries
(``_listed_object``); any other file is decoded as ``Path.read_text``
decodes it and read by ``json.loads`` or ``parse_edge_list``.  Numpy passes
over bytes check a listed matrix's rows and tokenize an ASCII edge list, so
only the other entries, or the weights, are parsed in Python; a file with a
fault or a spelling they do not read takes ``json.loads`` or the line
walker, so values and errors do not depend on the path taken.  A listed
matrix's runs of ``0.0`` repeat with the width of one entry, so one shifted
comparison of a chunk's bytes finds where they break, and only the bytes
near a break are checked byte by byte (``_without_zeros``).

An edge list declares at most MAX_DENSE_N = 5000 nodes, checked before
any array is made.  All parse failures raise InputFormatError with a line
number where one makes sense; bytes that are not text in the locale's
encoding, JSON nested past the parser's recursion limit and integers past
Python's digit limit raise it too.
"""

import json
import math
import re

from io import BytesIO, TextIOWrapper
from itertools import chain
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
    is read in vectorized passes over chunks of its bytes (``_scan_edges``)
    or, where they find a fault or a spelling they do not read, a line at a
    time (``_check_lines``), which names the first faulty line.  The graph
    adopts the list of its entries (``Graph._adopt_list``), so no n x n
    array is made below the cut.
    """
    try:
        max_index, src, dst, weight = _scan_edges(text)
    except ValueError:  # a text the passes do not read, or a fault
        max_index, src, dst, weight = _check_lines(text.splitlines())
    if max_index < 0:
        raise InputFormatError("edge list declares no nodes")
    n = max_index + 1
    if n > MAX_DENSE_N:
        raise InputFormatError(
            f"edge list declares {n} nodes; dense graphs are limited to n <= {MAX_DENSE_N}"
        )
    src, dst = np.asarray(src, np.int64), np.asarray(dst, np.int64)
    flat, weight = src * n + dst, np.asarray(weight, float)
    if not (flat[1:] > flat[:-1]).all():  # not each entry once, in row-major order
        # np.unique keeps the first of equal entries, so the reversed lines
        # keep the last line that sets each entry; they sort row-major
        flat, first = np.unique(flat[::-1], return_index=True)
        (src, dst), weight = np.divmod(flat, n), weight[::-1][first]
    return Graph._adopt_list(n, src, dst, weight)


def _scan_edges(text):
    """``(largest index, i, j, w)`` of an edge list, from numpy passes over
    chunks of its bytes that end at a newline.  Tokens, ``a[first:end]``,
    are the runs of bytes above the blank; an index is summed from its
    digits by place value, and only a weight is parsed in Python, by
    ``float`` on its bytes.  A fault, a byte outside ``_EDGE_BYTES`` and
    comments, or an index that is not 1 to 18 digits raises ValueError."""
    top, start, columns = -1, 0, [(np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0))]
    while start < len(text):
        stop = text.rfind("\n", start, start + _EDGE_CHUNK) + 1
        stop = stop or text.find("\n", start + _EDGE_CHUNK) + 1 or len(text)
        chunk = _COMMENT.sub(b"", text[start:stop].encode())
        start = stop
        if chunk.translate(None, _EDGE_BYTES):
            raise ValueError("a byte the passes do not read")
        a = np.frombuffer(chunk, np.uint8)
        first, end = np.flatnonzero(np.diff(a > 32, prepend=False, append=False)).reshape(-1, 2).T
        # a line's first token is the chunk's or the first after a newline
        head = np.zeros(first.size + 1, bool)
        head[np.searchsorted(first, np.flatnonzero(a == 10))] = head[0] = True
        head = np.flatnonzero(head[:-1])
        size = np.diff(head, append=first.size)  # fields of each line with any
        heavy = head[size == 3] + 2  # the weight tokens
        width = end - first
        width[heavy] = 0
        value = np.zeros(first.size, np.int64)
        for place in range(width.max(initial=0) - 1, -1, -1):
            digit = np.subtract(a[end - 1 - place], 48, dtype=np.uint8)
            digit *= width > place
            if place > 17 or digit.max() > 9:
                raise ValueError("an index is not a run of at most 18 digits")
            value = value * 10 + digit
        edges = head[size > 1]
        weight = np.ones(edges.size)
        tokens = [chunk[i:j] for i, j in zip(first[heavy].tolist(), end[heavy].tolist())]
        weight[size[size > 1] == 3] = np.fromiter(map(float, tokens), float, heavy.size)
        if size.max(initial=0) > 3 or not np.isfinite(weight).all():
            raise ValueError("a line has more than three fields, or a weight is not finite")
        top = max(top, int(value.max(initial=-1)))
        columns.append((value[edges], value[edges + 1], weight))
    return (top, *map(np.concatenate, zip(*columns)))


def _check_lines(lines):
    """``(largest index, i, j, w)`` of an edge list's ``lines``, read one at
    a time: the columns are tuples, as an index may pass int64.  A faulty
    line raises InputFormatError."""
    max_index, edges = -1, []
    for line, text in enumerate(lines, start=1):
        parts = text.partition("#")[0].split()
        if len(parts) > 3:
            raise _fault(line, "expected 'i j w' with at most three fields")
        entry = []
        for token in parts[:2]:
            try:
                entry.append(int(token))
            except ValueError:
                raise _fault(line, f"{token!r:.40} is not an integer node index") from None
            if entry[-1] < 0:
                raise _fault(line, "node indices must be non-negative")
            max_index = max(max_index, entry[-1])
        if len(parts) > 1:
            try:
                weight = float(parts[2]) if len(parts) == 3 else 1.0
            except ValueError:
                raise _fault(line, f"{parts[2]!r:.40} is not a real weight") from None
            if not math.isfinite(weight):
                raise _fault(line, "weights must be finite")
            edges.append((*entry, weight))
    return (max_index, *(list(zip(*edges)) or [(), (), ()]))


def _fault(line, message):
    return InputFormatError(f"line {line}: {message}", line=line)


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
            raise InputFormatError("bad 'c' value: expected null or a finite real number")
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
        raise InputFormatError(f"line {exc.lineno}: invalid JSON: {exc.msg}", line=exc.lineno) from exc
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
        raise InputFormatError(f"byte {exc.start}: not {exc.encoding} text ({exc.reason})") from None


# JSON whitespace; a table that turns each byte in the rows of a listed
# matrix into its class: 1 whitespace, 2 a byte of a number, 3 ",", 4 "["
# and 5 "]", and 0 any byte that they may not hold
_WHITESPACE = b" \t\n\r"
_CLASSES = {**dict.fromkeys(_WHITESPACE, 1), **dict.fromkeys(b"0123456789.eE+-", 2), 44: 3, 91: 4, 93: 5}
_BYTE_CLASS = bytes(_CLASSES.get(b, 0) for b in range(256))
# a "0.0" token after a comma, with its whitespace and the comma after it,
# twice in a row: the unit of a run of zeros, whose width is the run's period
_ZERO_UNIT = re.compile(rb",([ \t\n\r]*0\.0[ \t\n\r]*,)\1")
# bytes per chunk of the rows of a listed matrix, cut at the end of a row:
# a chunk costs two passes over its bytes, one bool per byte, and a fixed
# number of numpy calls over the rest; characters per chunk of an edge
# list's lines, its comment (up to a line break or non-ASCII byte) and the
# bytes ``_scan_edges`` reads outside comments
_CHUNK = 1 << 20
_EDGE_CHUNK = 1 << 14
_COMMENT = re.compile(rb"#[^\n\r\v\f\x1c-\x1e\x80-\xff]*")
_EDGE_BYTES = b"0123456789 \t\n.eE+-"


def _listed_object(data, key):
    """The JSON object of a file's bytes ``data`` whose matrix ``key`` is
    listed, with the Graph of that matrix in place of its rows; None for any
    other file, which the json path then reads as before.

    A listed matrix is the object's last member, a square list of rows of
    JSON numbers in an ASCII file, of which at most ``graphs.ENTRY_SHARE``
    are spelled other than ``0.0``.  Its rows are checked in numpy passes
    over their bytes (``_listed_entries``), so that only the tokens that
    are not ``0.0`` are parsed in Python, by one ``json.loads``; the graph
    adopts the list of them (``Graph._adopt_list``).  The rest of the
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
        # the tokens, each a JSON number, converted as the json path
        # converts its lists
        vals = np.array(json.loads(b"[%s]" % tokens), dtype=float)
    except (ValueError, OverflowError):  # no number, or an integer beyond float64
        return None
    if not np.isfinite(vals).all():
        return None
    obj[key] = Graph._adopt_list(n, rows, cols, vals)
    return obj


def _listed_entries(data, pos, close):
    """``(n, rows, cols, tokens)`` of the rows of a listed n x n matrix in
    ``data[pos:close]``: the row and column of each token that is not
    ``0.0``, in row-major order, and those tokens joined by commas.  None if
    those bytes spell no square list of rows, or more than ``ENTRY_SHARE``
    of its tokens are not ``0.0``, which shows in the chunk where they pass
    that share.

    Each chunk of whole rows loses its runs of zeros (``_without_zeros``),
    whose unit is the first ``_ZERO_UNIT`` found, and what is left is
    checked and listed (``_chunk_entries``)."""
    a = np.frombuffer(data, np.uint8)
    n, unit, done, listed, rows, cols, tokens = None, None, 0, 0, [], [], []
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
        if unit is None:  # looked for in the chunk's first row
            found = _ZERO_UNIT.search(data, head, data.find(b"]", head, pos) + 1 or pos)
            unit = found and found[1]
        chunk = _chunk_entries(*_without_zeros(a[head:pos], unit), n, listed)
        if chunk is None:
            return None
        n, m, row, col, joined = chunk
        rows.append(row + done)
        cols.append(col)
        tokens.append(joined)
        listed += row.size
        done += m
        if done > n:
            return None
        gap = b","
    if done != n:
        return None
    return n, np.concatenate(rows), np.concatenate(cols), b",".join(t for t in tokens if t)


def _without_zeros(c, unit):
    """``(kept, at, zeros)``: the bytes ``c`` of rows of a matrix less its
    runs of the bytes ``unit``, a ``0.0`` token with its whitespace and the
    comma after it, each run past its first unit; ``zeros[i]`` units were
    taken out just before ``kept[at[i]]``.  ``kept`` is ``c`` when there is
    no unit or no such run.

    A run is where ``c`` repeats with the unit's width p, between two breaks
    (offsets i with ``c[i] != c[i + p]``, found by one shifted comparison).
    Its first p bytes past a comma are checked against ``unit`` and kept,
    and the whole units after them are taken out.  Each unit taken out
    follows a kept one, so the tokens and separators around every kept
    byte are as they were, and the chunk reads as it would whole, less
    those zeros.
    """
    none = np.empty(0, np.intp)
    p = len(unit or b"")
    if not p or c.size < 3 * p:
        return c, none, none
    # c[i] == c[i + p] for start <= i < stop: c[start : stop + p] has period p
    stop = np.append(np.flatnonzero(c[p:] != c[:-p]), c.size - p)
    start = np.append(0, stop[:-1] + 1)
    long = stop - start >= 2 * p  # room for a kept unit and one to take out
    start, stop = start[long], stop[long]
    units = np.ndarray((c.size - p + 1, p), np.uint8, c, 0, (1, 1))  # units[i] is c[i : i + p]
    first = start + np.argmax(units[start] == 44, axis=1) + 1 + p  # past the kept unit
    count = (stop + p - first) // p
    ok = (count > 0) & (units[first].view(f"S{p}")[:, 0] == unit)
    if not ok.any():
        return c, none, none
    first, count = first[ok], count[ok]
    removed = np.cumsum(count * p)
    at = first - removed + count * p
    size = c.size - removed[-1]
    kept = c.take(np.arange(size) + np.repeat(np.append(0, removed), np.diff(at, prepend=0, append=size)))
    return kept, at, count


def _chunk_entries(kept, at, zeros, n, listed):
    """``(n, m, rows, cols, tokens)`` of the bytes ``kept`` of m whole rows
    ``[...], ..., [...]`` of a listed n x n matrix, with ``zeros[i]``
    ``0.0`` tokens taken out just before ``kept[at[i]]``, and n the length
    of its first row when None is given: the row (in ``kept``) and column of
    each token that is not ``0.0``, and those tokens joined by commas;
    ``listed`` such tokens are known already.  None for any other bytes.

    A token is a run of number bytes.  The checks are passes over the
    events, the separators and the first byte of each token: the brackets
    are the first ``[``, the last ``]`` and a ``],[`` between two rows, and
    tokens and separators take turns everywhere else, so no token is empty
    and no whitespace splits one; each row holds n tokens.
    """
    spelled = kept.tobytes()
    cls = np.frombuffer(spelled.translate(_BYTE_CLASS), np.uint8)
    num = cls == 2
    if not cls.all() or num[-1]:  # a byte that no row holds, or a token last
        return None
    # kept[0] is "[": a token starts past each even edge and ends at each odd one
    edges = np.flatnonzero(num[1:] != num[:-1])
    starts, ends = edges[::2] + 1, edges[1::2]
    three = np.flatnonzero(ends - starts == 2)
    z = starts[three]
    zero = np.zeros(starts.size, bool)
    zero[three] = (kept[z] == 48) & (kept[z + 1] == 46) & (kept[z + 2] == 48)  # "0.0"
    tok = np.flatnonzero(~zero)
    taken = np.append(0, np.cumsum(zeros))  # zeros taken out before each offset
    if n is None:  # the tokens before the first "]"
        end = spelled.find(b"]")
        n = int(np.searchsorted(starts, end) + taken[np.searchsorted(at, end, "right")])
    if listed + tok.size > ENTRY_SHARE * n * n:
        return None
    event = cls > 2
    event[starts] = True
    event = np.flatnonzero(event)
    kind = cls[event]
    opens = np.flatnonzero(kind == 4)
    closes = np.flatnonzero(kind == 5)
    sep = kind > 2
    m = opens.size
    if (
        not m or closes.size != m or opens[0] or closes[-1] != kind.size - 1
        or not np.array_equal(opens[1:], closes[:-1] + 2) or (kind[closes[:-1] + 1] != 3).any()
        # past the "]," and ",[" of each join, two events alike are two
        # separators with no token between them, or two parts of a token
        or np.count_nonzero(sep[1:] == sep[:-1]) != 2 * (m - 1)
    ):
        return None
    before = taken[np.searchsorted(at, event[opens], "right")]
    if ((closes - opens) // 2 + taken[np.searchsorted(at, event[closes], "right")] - before != n).any():
        return None
    starts, ends = starts[tok], ends[tok]
    tok = np.flatnonzero(~sep)[tok]  # the event of each listed token
    row = np.searchsorted(opens, tok) - 1
    col = (tok - opens[row]) // 2 + taken[np.searchsorted(at, starts, "right")] - before[row]
    # the listed tokens, each with the byte after it made a comma
    width = ends - starts + 2
    lead = np.cumsum(width) - width
    joined = kept[np.arange(width.sum()) + np.repeat(starts - lead, width)]
    joined[lead + width - 1] = 44
    return n, m, row, col, joined[:-1].tobytes()


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
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def write_graph(g, path):
    with open(path, "w") as fp:
        _write_json(_graph_payload(g), fp)


def write_graphon(w, path):
    with open(path, "w") as fp:
        _write_json(_graphon_payload(w), fp)
