import io
import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpcentral import (
    Graph,
    InputFormatError,
    StepGraphon,
    cut_norm_exact,
    graph_to_dict,
    graphon_to_dict,
    lift,
    parse_edge_list,
    parse_graph_json,
    parse_graphon_json,
    read_graph,
    read_graphon,
    theorem1_certificate,
    write_graph,
    write_graphon,
)
from fpcentral.cli import main
from fpcentral.graphs import ENTRY_SHARE, _Entries
from fpcentral.io import _csv_rows, _listed_object, _write_json

from oracles import parse_edge_list_reference, parse_matrix_json_reference


class TestEdgeList:
    def test_basic_directed_entries(self):
        g = parse_edge_list("0 1 0.5\n1 0 2.0\n")
        assert g.n == 2
        assert g.weights[0, 1] == 0.5
        assert g.weights[1, 0] == 2.0

    def test_weight_defaults_to_one(self):
        g = parse_edge_list("0 2\n")
        assert g.n == 3
        assert g.weights[0, 2] == 1.0

    def test_comments_and_blank_lines(self):
        text = "# a header\n\n0 1 1  # trailing note\n\n   \n1 0 1\n"
        g = parse_edge_list(text)
        assert g.weights[0, 1] == 1.0 and g.weights[1, 0] == 1.0

    def test_single_token_declares_isolated_node(self):
        g = parse_edge_list("0\n3\n")
        assert g.n == 4
        assert np.array_equal(g.weights, np.zeros((4, 4)))

    def test_duplicate_entry_last_wins(self):
        g = parse_edge_list("0 1 1\n0 1 0.25\n")
        assert g.weights[0, 1] == 0.25

    def test_negative_weights_are_legal(self):
        g = parse_edge_list("0 1 -0.5\n")
        assert g.weights[0, 1] == -0.5

    def test_self_loop(self):
        g = parse_edge_list("0 0 2\n")
        assert g.weights[0, 0] == 2.0

    def test_non_integer_index(self):
        with pytest.raises(InputFormatError, match="line 1"):
            parse_edge_list("a b\n")

    def test_error_carries_line_number(self):
        with pytest.raises(InputFormatError) as exc:
            parse_edge_list("0 1 1\n0 x\n")
        assert exc.value.line == 2

    def test_negative_index(self):
        with pytest.raises(InputFormatError, match="non-negative"):
            parse_edge_list("-1 0\n")

    def test_too_many_fields(self):
        with pytest.raises(InputFormatError, match="line 1"):
            parse_edge_list("0 1 1 1\n")

    def test_bad_weight(self):
        with pytest.raises(InputFormatError, match="real weight"):
            parse_edge_list("0 1 heavy\n")
        with pytest.raises(InputFormatError, match="finite"):
            parse_edge_list("0 1 inf\n")

    def test_empty_input(self):
        with pytest.raises(InputFormatError, match="no nodes"):
            parse_edge_list("# only a comment\n")

    def test_node_count_cap_refuses_before_allocating(self):
        # one line asking for a 100000 x 100000 matrix (80 GB)
        with pytest.raises(InputFormatError, match="n <= 5000"):
            parse_edge_list("100000\n")

    def test_an_index_beyond_int64_is_too_many_nodes(self):
        text = "0 1\n2 99999999999999999999 1\n"
        with pytest.raises(InputFormatError, match="declares 100000000000000000000 nodes"):
            parse_edge_list(text)

    def test_peak_memory_is_about_one_matrix(self):
        # the n x n matrix, which Graph adopts without a copy, plus its
        # n x n boolean finiteness check; the token lists are freed before
        # the matrix is allocated
        n = 1000
        rng = np.random.default_rng(1000)
        upper = np.triu(rng.random((n, n)) < 8 / (n - 1), 1)
        rows, cols = np.nonzero(upper | upper.T)
        text = f"{n - 1}\n" + "".join(f"{i} {j}\n" for i, j in zip(rows.tolist(), cols.tolist()))
        del upper, rows, cols
        tracemalloc.start()
        try:
            parse_edge_list(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * n * n * 8


def _mostly(ok, rare, odds=8):
    """``rare`` once in ``odds`` draws, ``ok`` otherwise."""
    return st.integers(1, odds).flatmap(lambda r: rare if r == 1 else ok)


_INDEX_OK = st.integers(0, 12).map(str) | st.sampled_from(["+1", "1_0", "007", "-0", "\u0663"])
_INDEX = _mostly(_INDEX_OK, st.sampled_from(
    ["-1", "-7", "a", "1.0", "1e1", "0x1", "1__0", "5000",
     "99999999999999999999", "-99999999999999999999"]
), odds=16)
_WEIGHT_OK = (
    st.floats(allow_nan=False, allow_infinity=False).map(repr)
    | st.integers(-3, 3).map(str)
    | st.sampled_from(["+2", "1_0.5", "-0.0", "-0", "1e-320", "\u0663.5"])
)
_WEIGHT = _mostly(_WEIGHT_OK, st.sampled_from(
    ["nan", "-nan", "inf", "-inf", "Infinity", "1e400", "heavy", "0x1p3", "1,5", "1__0"]
), odds=4)
_LINE_BREAKS = st.sampled_from(
    ["\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
)
_COMMENTS = st.sampled_from(["", "# note", " #0 1 2 3 4", "#", "  # -1 x"])


def _edge_lists(index, weight, faulty_lines):
    """Edge-list texts from lines of the given tokens: bare indices, edges
    with and without a weight, blank and comment lines, and, when
    ``faulty_lines``, lines of more than three fields."""
    shape = st.one_of(
        st.tuples(index),
        st.tuples(index, index),
        st.tuples(index, index, weight),
        st.just(()),
    )
    if faulty_lines:
        shape = _mostly(shape, st.lists(index | weight, min_size=4, max_size=5), odds=30)
    line = st.tuples(
        shape,
        st.sampled_from([" ", "\t", "  ", " \t "]),
        st.sampled_from(["", " ", "\t"]),
        _COMMENTS,
        _LINE_BREAKS,
    ).map(lambda t: t[2] + t[1].join(t[0]) + t[2] + t[3] + t[4])
    return st.tuples(st.lists(line, max_size=12), st.booleans()).map(
        lambda t: "".join(t[0]) if t[1] else "".join(t[0]).rstrip("\n")
    )


def _outcome(parse, text):
    """The graph's weight bytes and symmetric flag, or the error's type,
    message and line."""
    try:
        g = parse(text)
    except InputFormatError as exc:
        return type(exc), str(exc), exc.line
    return g.weights.shape, g.weights.tobytes(), g.symmetric


class TestEdgeListAgainstReference:
    """``parse_edge_list`` reads every text as the per-line reference does."""

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(_edge_lists(_INDEX_OK, _WEIGHT_OK, faulty_lines=False))
    def test_valid_texts(self, text):
        assert _outcome(parse_edge_list, text) == _outcome(parse_edge_list_reference, text)

    @settings(max_examples=600, deadline=None, derandomize=True, database=None)
    @given(_edge_lists(_INDEX, _WEIGHT, faulty_lines=True))
    def test_any_texts(self, text):
        assert _outcome(parse_edge_list, text) == _outcome(parse_edge_list_reference, text)

    FAULTS = ("0 1 2 3", "a 1", "1 1.0", "-1 0", "0 1 x", "0 1 nan", "0 1 1e400",
              "-99999999999999999999 0", "-4")

    def test_the_first_faulty_line_is_named(self):
        for first, second in itertools.permutations(self.FAULTS, 2):
            text = f"0 1\n{first}\n2 3 0.5\n{second}\n99999999999999999999\n"
            outcome = _outcome(parse_edge_list, text)
            assert outcome == _outcome(parse_edge_list_reference, text)
            assert outcome[2] == 2

    def test_duplicates_keep_the_last_line(self):
        text = "0 1 1\n1 0 3\n0 1 -0.0\n2\n1 0 2\n0 1 0.25\n"
        g = parse_edge_list(text)
        assert g.weights[0, 1] == 0.25 and g.weights[1, 0] == 2.0
        assert _outcome(parse_edge_list, text) == _outcome(parse_edge_list_reference, text)


class TestGraphJson:
    def test_round_trip(self):
        g = Graph(np.array([[0.0, 1.5], [0.0, 0.0]]))
        text = json.dumps(graph_to_dict(g))
        back = parse_graph_json(text)
        assert np.array_equal(back.weights, g.weights)

    def test_n_is_optional(self):
        g = parse_graph_json('{"weights": [[0, 1], [1, 0]]}')
        assert g.n == 2

    def test_n_mismatch(self):
        with pytest.raises(InputFormatError, match="does not match"):
            parse_graph_json('{"n": 3, "weights": [[0, 1], [1, 0]]}')

    def test_missing_weights(self):
        with pytest.raises(InputFormatError, match="weights"):
            parse_graph_json('{"n": 2}')

    @pytest.mark.parametrize("n", ["true", "false"])
    def test_boolean_n_is_refused(self, n):
        # true == 1 used to pass as a declared size
        with pytest.raises(InputFormatError, match="bad 'n' value"):
            parse_graph_json('{"n": %s, "weights": [[0]]}' % n)
        assert parse_graph_json('{"n": 1.0, "weights": [[0]]}').n == 1

    def test_ragged_matrix(self):
        with pytest.raises(InputFormatError):
            parse_graph_json('{"weights": [[0, 1], [1]]}')

    def test_invalid_json_reports_line(self):
        with pytest.raises(InputFormatError, match="line"):
            parse_graph_json('{"weights": [[0, 1],\n [1, 0]\n')

    def test_non_object(self):
        with pytest.raises(InputFormatError, match="object"):
            parse_graph_json("[1, 2, 3]")


class TestGraphonJson:
    def test_round_trip(self):
        w = StepGraphon(np.array([[0.5, 0.2], [0.2, 0.8]]))
        back = parse_graphon_json(json.dumps(graphon_to_dict(w)))
        assert np.array_equal(back.values, w.values)
        assert back.c == w.c

    def test_c_defaults_to_peak(self):
        w = parse_graphon_json('{"values": [[0.7]]}')
        assert w.c == 0.7

    def test_c_below_peak(self):
        with pytest.raises(InputFormatError):
            parse_graphon_json('{"c": 0.5, "values": [[0.7]]}')

    def test_asymmetric_values(self):
        with pytest.raises(InputFormatError):
            parse_graphon_json('{"values": [[0.1, 0.9], [0.2, 0.1]]}')

    def test_k_mismatch(self):
        with pytest.raises(InputFormatError, match="does not match"):
            parse_graphon_json('{"k": 3, "values": [[0.5]]}')

    @pytest.mark.parametrize("k", ["true", "false"])
    def test_boolean_k_is_refused(self, k):
        with pytest.raises(InputFormatError, match="bad 'k' value"):
            parse_graphon_json('{"k": %s, "values": [[0.5]]}' % k)
        assert parse_graphon_json('{"k": null, "values": [[0.5]]}').k == 1

    def test_missing_values_is_reported_before_a_bad_c(self):
        with pytest.raises(InputFormatError, match="requires a 'values' key"):
            parse_graphon_json('{"c": "x"}')


@pytest.mark.parametrize(
    "parse, key", [(parse_graph_json, "weights"), (parse_graphon_json, "values")],
    ids=["graph", "graphon"],
)
class TestMatrixEntriesAreJsonNumbers:
    @pytest.mark.parametrize(
        "rows, shown",
        [
            ('[[0, "1"], ["1", 0]]', '"1"'),
            ('[[0.5, true], [true, 0]]', "true"),
            ("[[true, false], [false, true]]", "true"),
            ("[[0, null], [null, 0]]", "null"),
        ],
        ids=["string", "mixed-booleans", "all-booleans", "null"],
    )
    def test_other_entries_are_refused(self, parse, key, rows, shown):
        with pytest.raises(InputFormatError) as exc:
            parse('{"%s": %s}' % (key, rows))
        assert str(exc.value) == f"bad {key!r} value: entries must be JSON numbers, got {shown}"

    def test_integers_that_float64_holds_are_accepted(self, parse, key):
        built = parse('{"%s": [[%d, 0], [0, 1]]}' % (key, 10**30))
        matrix = built.weights if key == "weights" else built.values
        assert matrix.tolist() == [[1e30, 0.0], [0.0, 1.0]]
        with pytest.raises(InputFormatError, match="int too large to convert to float"):
            parse('{"%s": [[%d]]}' % (key, 10**400))


class TestFiles:
    def test_read_graph_sniffs_json(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_text('  {"weights": [[0, 1], [1, 0]]}\n')
        assert read_graph(path).n == 2

    def test_read_graph_sniffs_edge_list(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1 1\n1 0 1\n")
        assert read_graph(path).weights[0, 1] == 1.0

    def test_write_graph_is_deterministic(self, tmp_path):
        g = Graph(np.array([[0.0, 0.25], [0.25, 0.0]]))
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        write_graph(g, p1)
        write_graph(g, p2)
        assert p1.read_text() == p2.read_text()
        assert np.array_equal(read_graph(p1).weights, g.weights)

    def test_write_read_graphon(self, tmp_path):
        w = StepGraphon(np.array([[0.5, 0.1], [0.1, 0.9]]), c=1.0)
        path = tmp_path / "w.json"
        write_graphon(w, path)
        back = read_graphon(path)
        assert np.array_equal(back.values, w.values)
        assert back.c == 1.0

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            read_graph(tmp_path / "absent.txt")


def _built(built):
    """The bits of a read Graph or StepGraphon: shape, matrix bytes (so the
    sign of each zero), list of entries, and symmetric flag or k and c."""
    if isinstance(built, Graph):
        m, e, rest = built.weights, built._held, (built.n, built.symmetric)
    else:
        m, e, rest = built.values, built._graph._held, (built.k, np.float64(built.c).tobytes())
    entries = (e.rows.tolist(), e.cols.tolist(), e.vals.tobytes()) if isinstance(e, _Entries) else None
    return type(built), m.shape, m.tobytes(), entries, rest


def _read_outcome(kind, path):
    """What ``read_graph`` or ``read_graphon`` makes of a file."""
    try:
        return _built((read_graph if kind == "graph" else read_graphon)(path))
    except InputFormatError as exc:
        return type(exc), str(exc), exc.line


def _reference_outcome(kind, path):
    """What the json path makes of a file: its text, sniffed as
    ``read_graph`` sniffs it, read by ``parse_matrix_json_reference``."""
    text = path.read_text()
    try:
        if kind == "graph" and not text.lstrip().startswith("{"):
            return _built(parse_edge_list(text))
        return _built(parse_matrix_json_reference(text, kind))
    except InputFormatError as exc:
        return type(exc), str(exc), exc.line


# tokens json.loads reads as finite numbers
_TOKEN_OK = _mostly(
    st.floats(allow_nan=False, allow_infinity=False).map(repr)
    | st.integers(-(10**30), 10**30).map(str),
    st.sampled_from(["-0", "0", "-0.0", "0e0", "-0E-0", "1E5", "2.5e+3", "1e-320", "0.00", "10"]),
    odds=3,
)
# tokens it refuses, or reads as something other than a finite number
_TOKEN_BAD = st.sampled_from([
    "1.", ".5", "+1", "01", "-01", "1e", "1e+", "--1", "1.5.2", "0x1", "1e400", "-1e400",
    "1" + "0" * 400, "NaN", "Infinity", "-Infinity", "true", "null", '"1"', "1 2", "0 .0",
    "1e 5", "- 1", "", "[0.0]", "{}", "000", "0-0", "010",
])
_PADS = st.lists(st.sampled_from(["", " ", "\t", "\n", "\r\n", "  \n\t ", "\r"]), min_size=1, max_size=5)


def _spell(rows, layout, pads):
    """The JSON text of a list of rows of tokens: as the package's writer
    lays it out, compact, as json.dumps spaces it, or with the whitespace
    ``pads`` in turn around every bracket and comma."""
    if layout == "writer":
        return "[" + ",".join(
            "\n    [\n      " + ",\n      ".join(row) + "\n    ]" for row in rows
        ) + "\n  ]"
    if layout in ("compact", "dumps"):
        sep = "," if layout == "compact" else ", "
        return "[" + sep.join("[" + sep.join(row) + "]" for row in rows) + "]"
    pad = itertools.cycle(pads)
    out = ["["]
    for i, row in enumerate(rows):
        out += [next(pad), "," if i else "", next(pad), "[", next(pad)]
        for j, token in enumerate(row):
            out += [next(pad), "," if j else "", next(pad), token]
        out += [next(pad), "]"]
    return "".join(out) + next(pad) + "]"


@st.composite
def _matrix_documents(draw, faults):
    """``(kind, bytes)`` of graph and step-graphon JSON files, most of them
    listed matrices around the cut of ``graphs.ENTRY_SHARE``; with
    ``faults``, most files have one fault: bad tokens, bad rows, a bad or
    misplaced member, or bad bytes around the object."""
    kind = draw(st.sampled_from(["graph", "graphon"]))
    key, size_key = ("weights", "n") if kind == "graph" else ("values", "k")
    fault = draw(st.sampled_from([None, "token", "rows", "member", "place", "bytes"])) if faults else None
    n = draw(st.integers(1, 20))
    rows = [["0.0"] * n for _ in range(n)]
    token = _mostly(_TOKEN_OK, _TOKEN_BAD, odds=2) if fault == "token" else _TOKEN_OK
    for _ in range(draw(st.integers(0, max(1, n * n // 40)))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        rows[i][j] = draw(token)
        if draw(st.integers(0, 5)):
            rows[j][i] = rows[i][j]
    if fault == "rows":
        i = draw(st.integers(0, n - 1))
        change = draw(st.sampled_from(["ragged", "extra", "short", "long", "empty", "nested", "gap"]))
        if change == "ragged":
            rows[i].pop()
        elif change == "extra":
            rows[i].append("0.0")
        elif change == "short":
            rows.pop()
        elif change == "long":
            rows.append(["0.0"] * n)
        elif change == "empty":
            rows[i] = []
        elif change == "nested":
            rows[i][-1] = "[0.0]"
        else:  # an empty token besides the row's n
            rows[i].insert(draw(st.integers(0, n)), "")
    matrix = _spell(rows, draw(st.sampled_from(["writer", "compact", "dumps", "padded"])), draw(_PADS))
    members = []
    c = draw(st.sampled_from([None, "1.0", "null", "0.5", "2", "1e-300"]
                             + (['"x"', "true", "1e400"] if fault == "member" else [])))
    if c is not None:
        members.append(f'"c": {c}')
    size = draw(st.sampled_from([None, str(n), "null", f"{n}.0"]
                                + ([str(n + 1), "true"] if fault == "member" else [])))
    if size is not None:
        members.append(f'"{size_key}": {size}')
    if fault == "member":
        extra = draw(st.sampled_from([
            None, f'"note": "{key}"', f'"x": {{"{key}": 1}}', f'"q\\"{key}": [[1.0]]',
            f'"{key}": [[1.0]]', '"é": 1',
        ]))
        if extra is not None:
            members.insert(draw(st.integers(0, len(members))), extra)
    place = draw(st.integers(0, len(members))) if fault == "place" else len(members)
    members.insert(place, f'"{key}": {matrix}')
    text = "{" + ", ".join(members) + "}"
    if draw(st.booleans()):
        text = "{\n  " + ",\n  ".join(members) + "\n}\n"
    if draw(st.integers(0, 5)) == 0:
        text = text.replace("\n", "\r\n")
    if fault == "bytes":
        text = draw(st.sampled_from(["", " \n", "\ufeff", "\x0c"])) + text
        text += draw(st.sampled_from(["", "\n\n ", " x", ",", "\x00", "}"]))
    return kind, text.encode()


def _one_entry_document(token, members="", layout="writer"):
    """The text of an 8 x 8 matrix with ``token`` at (0, 1) and (1, 0), the
    last member after ``members``: listed, if the token is a number."""
    rows = [["0.0"] * 8 for _ in range(8)]
    rows[0][1] = rows[1][0] = token
    return '{%s"values": %s}\n' % (members, _spell(rows, layout, ["\t"]))


class TestMatrixJsonAgainstReference:
    """``read_graph`` and ``read_graphon`` read every JSON file as the json
    path does (``oracles.parse_matrix_json_reference``), bit for bit, list
    of entries included, or fail with its error; a listed matrix is read
    from its entries (``io._listed_object``), any other file by the json
    path itself."""

    @pytest.fixture(scope="class")
    def folder(self, tmp_path_factory):
        return tmp_path_factory.mktemp("listed")

    def _check(self, folder, kind, data):
        path = folder / "m.json"
        path.write_bytes(data)
        outcome = _read_outcome(kind, path)
        assert outcome == _reference_outcome(kind, path)
        return outcome

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(_matrix_documents(faults=False))
    def test_valid_files(self, folder, document):
        self._check(folder, *document)

    @settings(max_examples=600, deadline=None, derandomize=True, database=None)
    @given(_matrix_documents(faults=True))
    def test_any_files(self, folder, document):
        self._check(folder, *document)

    CASES = {
        # name: (text, listed)
        "plain": (_one_entry_document("0.5"), True),
        "compact": (_one_entry_document("0.5", layout="compact"), True),
        "spaced": (_one_entry_document("0.5", layout="dumps"), True),
        "tabs": (_one_entry_document("0.5", layout="padded"), True),
        "crlf": (_one_entry_document("0.5").replace("\n", "\r\n"), True),
        "bom": ("\ufeff" + _one_entry_document("0.5"), False),
        "non-ascii": (_one_entry_document("0.5", members='"é": 1, '), False),
        "negative-zero": (_one_entry_document("-0.0"), True),
        "integer-zero": (_one_entry_document("0"), True),
        "integer-negative-zero": (_one_entry_document("-0"), True),
        "subnormal": (_one_entry_document("1e-320"), True),
        "long-integer": (_one_entry_document("1" + "0" * 30), True),
        "exponent": (_one_entry_document("2.5E+3"), True),
        "trailing-point": (_one_entry_document("1."), False),
        "leading-point": (_one_entry_document(".5"), False),
        "plus": (_one_entry_document("+1"), False),
        "leading-zero": (_one_entry_document("01"), False),
        "overflow": (_one_entry_document("1e400"), False),
        "huge-integer": (_one_entry_document("1" + "0" * 400), False),
        "nan": (_one_entry_document("NaN"), False),
        "infinity": (_one_entry_document("Infinity"), False),
        "true": (_one_entry_document("true"), False),
        "null": (_one_entry_document("null"), False),
        "string": (_one_entry_document('"1"'), False),
        "split-token": (_one_entry_document("1 2"), False),
        "split-zero": (_one_entry_document("0 .0", layout="dumps"), False),
        "duplicate": (_one_entry_document("0.5", members='"values": [[1.0]], '), False),
        "escaped-duplicate": (_one_entry_document("0.5", members='"\\u0076alues": [[1.0]], '), False),
        "escaped-last-key": ('{"\\u0076alues": 1, "\\"values": [[0.0]]}', False),
        "zero-like": (_one_entry_document("000"), False),
        "not-last": ('{"values": [[0.0]], "k": 1}', False),
        "nested": ('{"values": [[[0.0]]]}', False),
        "empty-row": ('{"values": [[]]}', False),
        "empty": ('{"values": []}', False),
        "trailing-comma": ('{"values": [[0.0],]}', False),
        "empty-token": ('{"values": [[0.0,,0.0], [0.0, 0.0]]}', False),
        "joined-rows": ('{"values": [[0.0]][[0.0,,0.0]]}', False),
        "before-matrix": ('{"values": x [[0.0]]}', False),
        "before-first-row": ('{"values": [x [0.0]]}', False),
        "after-last-row": ('{"values": [[0.0] 5]}', False),
        "ragged": ('{"values": [[0.0, 0.0], [0.0]]}', False),
        "not-square": ('{"values": [[0.0, 0.0]]}', False),
        "k-mismatch": (_one_entry_document("0.5", members='"k": 9, '), True),
        "bad-c": (_one_entry_document("0.5", members='"c": "x", '), True),
        "c-below-peak": (_one_entry_document("0.5", members='"c": 0.25, '), True),
        "asymmetric": (_one_entry_document("0.5").replace("0.5", "0.25", 1), True),
    }

    @pytest.mark.parametrize("kind", ["graph", "graphon"])
    @pytest.mark.parametrize("name", list(CASES))
    def test_cases(self, folder, kind, name):
        text, listed = self.CASES[name]
        if kind == "graph":
            text = text.replace('"values"', '"weights"').replace('"k"', '"n"')
            text = text.replace("\\u0076alues", "\\u0077eights")
        data = text.encode()
        key = "weights" if kind == "graph" else "values"
        assert (_listed_object(data, key) is not None) == listed
        outcome = self._check(folder, kind, data)
        if name == "negative-zero":
            assert np.signbit(np.frombuffer(outcome[2], float)[1])
        if name == "integer-negative-zero":
            assert not np.signbit(np.frombuffer(outcome[2], float)).any()

    def test_a_dense_matrix_is_refused_after_its_first_chunk(self, monkeypatch):
        # the rows of a matrix far above the cut are not all looked at
        from fpcentral import io as fio

        seen = []
        chunk = fio._listed_chunk
        monkeypatch.setattr(fio, "_CHUNK", 1 << 12)
        monkeypatch.setattr(fio, "_listed_chunk", lambda *args: seen.append(1) or chunk(*args))
        data = json.dumps({"values": np.full((100, 100), 0.5).tolist()}).encode()
        assert fio._listed_object(data, "values") is None
        assert len(seen) == 1

    def test_rows_are_read_across_chunks(self, folder, monkeypatch):
        # chunks of a few rows each, cut at whichever row ends after 1 KiB
        from fpcentral import io as fio

        monkeypatch.setattr(fio, "_CHUNK", 1 << 10)
        rng = np.random.default_rng(2100)
        for layout in ("writer", "compact", "dumps"):
            rows = [["0.0"] * 90 for _ in range(90)]
            for i, j in rng.integers(90, size=(60, 2)):
                rows[i][j] = rows[j][i] = repr(float(rng.normal()))
            data = ('{"values": %s}' % _spell(rows, layout, [" ", "\n"])).encode()
            assert fio._listed_object(data, "values") is not None
            assert self._check(folder, "graphon", data)[3] is not None
            # no comma between two rows, within a chunk or between two
            broken = data.replace(b"],", b"]")
            assert broken != data and fio._listed_object(broken, "values") is None
            self._check(folder, "graphon", broken)


def _written(payload):
    out = io.StringIO()
    _write_json(payload, out)
    return out.getvalue()


def _dumped(payload):
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


_EDGE_FLOATS = st.sampled_from(
    [-0.0, 0.0, 5e-324, -5e-324, 1e-300, 1e16, -1e16, 1e22, 1.0, -3.0, 0.1, 2.5]
)
_FLOATS = _EDGE_FLOATS | st.floats()
_MATRICES = st.integers(1, 5).flatmap(
    lambda k: st.lists(st.lists(_FLOATS, min_size=k, max_size=k), min_size=k, max_size=k)
)
_SCALARS = st.none() | st.booleans() | st.integers() | _FLOATS | st.text(max_size=6)
_JSON_VALUES = st.recursive(
    _SCALARS | _MATRICES,
    lambda inner: st.lists(inner, max_size=4)
    | st.tuples(inner, inner)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4)
    | st.dictionaries(st.integers(), inner, max_size=3),
    max_leaves=24,
)


class TestJsonWriter:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(_JSON_VALUES)
    def test_matches_json_dumps(self, payload):
        assert _written(payload) == _dumped(payload)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(_MATRICES)
    def test_float_matrices_match_json_dumps(self, rows):
        payload = {"k": len(rows), "c": 1.0, "values": rows}
        assert _written(payload) == _dumped(payload)

    def test_edge_floats_in_a_matrix(self):
        rows = [[-0.0, 5e-324, 1e-300], [1e16, 2.0, -1e16], [float("nan"), float("inf"), 0.1]]
        for payload in (rows, rows[:2], [[7.0]], [[]], [], {}, {"m": rows}):
            assert _written(payload) == _dumped(payload)

    def test_graph_and_graphon_payloads(self):
        rng = np.random.default_rng(11)
        m = rng.random((7, 7))
        m = m + m.T
        for payload in (graphon_to_dict(lift(Graph(m))), graph_to_dict(Graph(m)),
                        graphon_to_dict(StepGraphon(np.array([[-0.0]])))):
            assert _written(payload) == _dumped(payload)

    def test_certificate_and_norm_payloads(self):
        a = Graph(np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]]))
        b = Graph(np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]]))
        cert = theorem1_certificate(a, b, "katz", 0.2)
        witness = cut_norm_exact(a.weights - b.weights)
        for payload in (
            cert.to_dict(),
            {"kind": "cut", "value": witness.value,
             "witness": {"S": list(witness.S), "T": list(witness.T)}},
        ):
            assert _written(payload) == _dumped(payload)

    def test_unserializable_values_raise_like_json(self):
        for payload in ({"a": object()}, [np.int64(3)], {(1, 2): 0.0}):
            with pytest.raises(TypeError):
                _dumped(payload)
            with pytest.raises(TypeError):
                _written(payload)

    def test_arrays_are_spelled_as_their_lists(self):
        for a in (np.array([[0.5, -0.0], [1e16, 5e-324]]), np.zeros((0, 3)),
                  np.arange(3.0), np.ones((2, 1)), np.asfortranarray(np.eye(3))):
            assert _written({"m": a, "k": [a]}) == _dumped({"m": a.tolist(), "k": [a.tolist()]})

    def test_write_graphon_matches_json_dumps(self, tmp_path):
        w = StepGraphon(np.array([[0.5, 0.1], [0.1, 1e16]]))
        path = tmp_path / "w.json"
        write_graphon(w, path)
        assert path.read_text() == _dumped(graphon_to_dict(w))
        g = Graph(np.array([[0.0, -0.0], [5e-324, 1.0]]))
        write_graph(g, path)
        assert path.read_text() == _dumped(graph_to_dict(g))


# entries of a listed matrix: negative, subnormal, large and small, whose
# reprs take every form json.dumps gives a finite float
_LISTED_VALUES = [1.0, -3.0, 0.1, 5e-324, -5e-324, 1e16, -1e16, 1e-05, 2.5e-300, 1e22, 7.0]
# values json spells as no entry of a list would be spelled
_ODD_VALUES = {"-0.0": -0.0, "nan": math.nan, "inf": math.inf, "-inf": -math.inf}


def _matrix_with(count, shape=(64, 64), seed=1800):
    rng = np.random.default_rng([seed, count])
    m = np.zeros(shape)
    flat = rng.choice(m.size, count, replace=False)
    m.flat[flat] = rng.choice(_LISTED_VALUES, count)
    return m, flat


def _dense_csv(m):
    return [",".join(map(float.__repr__, row)) for row in m.tolist()]


class TestListedMatrixWriter:
    """A Graph with at most ``graphs.ENTRY_SHARE`` of its entries non-zero
    is spelled from the list of them, byte for byte as json.dumps spells
    its weights' ``tolist()``; a 64 x 64 matrix is listed up to 128
    entries.  A 2-D array is spelled as its rows, however few its entries.
    Each matrix written as a graph's weights reads back with its bits, or
    with the json path's error when no graph holds it."""

    @staticmethod
    def _spelled(m):
        """The JSON spelling of ``m``, and the JSON and CSV spellings of
        ``Graph(m)`` when ``m`` is square and finite, against json.dumps
        and the row reprs; the Graph, or None."""
        assert _written({"m": m, "k": [m]}) == _dumped({"m": m.tolist(), "k": [m.tolist()]})
        if m.shape[0] != m.shape[1] or not np.isfinite(m).all():
            return None
        g = Graph(m)
        want = np.asarray(m, dtype=float).tolist()
        assert _written({"m": g, "k": [g]}) == _dumped({"m": want, "k": [want]})
        assert list(_csv_rows(g)) == _dense_csv(np.asarray(m, dtype=float))
        return g

    @staticmethod
    def _round_trip(m, folder):
        path = folder / "m.json"
        with open(path, "w") as fp:
            _write_json({"weights": m}, fp)
        outcome = _read_outcome("graph", path)
        assert outcome == _reference_outcome("graph", path)
        if m.shape[0] == m.shape[1] and np.isfinite(m).all():
            assert outcome[2] == np.asarray(m, dtype=float).tobytes()

    @pytest.mark.parametrize("count", [0, 1, 127, 128, 129, 300])
    @pytest.mark.parametrize("shape", [(64, 64), (2, 2048), (2048, 2)])
    def test_at_below_and_above_the_cut(self, count, shape, tmp_path):
        m, _ = _matrix_with(count, shape)
        assert list(_csv_rows(m)) == _dense_csv(m)
        g = self._spelled(m)
        if g is not None:
            assert isinstance(g._held, _Entries) == (count <= ENTRY_SHARE * m.size)
        self._round_trip(m, tmp_path)

    @pytest.mark.parametrize("odd", list(_ODD_VALUES))
    @pytest.mark.parametrize("count", [1, 127, 128, 129])
    def test_odd_entries_keep_their_spelling(self, count, odd, tmp_path):
        m, flat = _matrix_with(count)
        at = 5 if odd == "-0.0" else flat[count // 2]  # -0.0 is not listed
        m.flat[at] = _ODD_VALUES[odd]
        assert list(_csv_rows(m)) == _dense_csv(m)
        g = self._spelled(m)
        if g is not None and count <= 128:  # -0.0: a list that spells its array's rows
            assert isinstance(g._held, _Entries) and g._held.zeros.size == 1
        self._round_trip(m, tmp_path)

    def test_orders_and_types_other_than_c_float64_are_spelled_as_lists(self, tmp_path):
        m, _ = _matrix_with(40)
        for a in (np.asfortranarray(m), m.astype(np.float32), m[:, ::2], (m != 0).astype(int)):
            self._spelled(a)
            self._round_trip(a, tmp_path)

    def test_lift_of_a_listed_graph_writes_the_dense_bytes(self, tmp_path):
        # a symmetric 1000-node ring with chords read from an edge list
        rng = np.random.default_rng(1801)
        n = 1000
        m = np.zeros((n, n))
        m[np.arange(n), np.roll(np.arange(n), 1)] = 1.0
        chords = rng.integers(n, size=(2 * n, 2))
        m[chords[:, 0], chords[:, 1]] = rng.choice(_LISTED_VALUES[:4], 2 * n)
        m = np.triu(m, 1)
        m = m + m.T
        rows, cols = np.nonzero(m)
        path = tmp_path / "g.txt"
        path.write_text("".join(f"{i} {j} {float(m[i, j])!r}\n" for i, j in zip(rows, cols)))
        assert isinstance(read_graph(path)._held, _Entries)
        out = tmp_path / "lift.json"
        assert main(["graphon", "lift", str(path), "-o", str(out), "--csv"]) == 0
        # the dense spelling: the writer's list path, which json.dumps
        # pins down in the tests above
        want = _written({"k": n, "c": float(np.max(np.abs(m))), "values": m.tolist()})
        assert out.read_text() == want
        assert out.with_suffix(".csv").read_text() == "".join(
            line + "\n" for line in _dense_csv(m)
        )
        back = read_graphon(out)
        assert isinstance(back._graph._held, _Entries) and back.values.tobytes() == m.tobytes()


class TestSignedZeros:
    """A listed graph holds only its list of non-zero entries, and the
    places of its -0.0 entries beside it, so the weights it forms, and the
    lift that ``fpc graphon lift`` writes, keep the sign of every zero."""

    @staticmethod
    def _matrix(n=64):
        # a symmetric ring with weights, and -0.0 on the diagonal and at a
        # mirrored pair off the ring
        m = np.zeros((n, n))
        m[np.arange(n), np.roll(np.arange(n), 1)] = 0.3
        m = np.maximum(m, m.T)
        m[np.arange(0, n, 7), np.arange(0, n, 7)] = -0.0
        m[2, 9] = m[9, 2] = -0.0
        assert np.count_nonzero(m) <= ENTRY_SHARE * m.size
        return m

    def test_an_edge_list_keeps_its_negative_zeros(self):
        m = self._matrix()
        rows, cols = np.nonzero(np.signbit(m) | (m != 0.0))
        g = parse_edge_list("".join(
            f"{i} {j} {float(m[i, j])!r}\n" for i, j in zip(rows.tolist(), cols.tolist())
        ))
        assert isinstance(g._held, _Entries) and g._held.zeros.size == np.count_nonzero(np.signbit(m))
        assert g.weights.tobytes() == m.tobytes()
        assert Graph(m).weights.tobytes() == m.tobytes()

    def test_the_lift_of_an_edge_list_writes_them(self, tmp_path):
        m = self._matrix()
        rows, cols = np.nonzero(np.signbit(m) | (m != 0.0))
        path = tmp_path / "g.txt"
        path.write_text("".join(
            f"{i} {j} {float(m[i, j])!r}\n" for i, j in zip(rows.tolist(), cols.tolist())
        ))
        out = tmp_path / "lift.json"
        assert main(["graphon", "lift", str(path), "-o", str(out), "--csv"]) == 0
        assert out.read_text() == _written({"k": m.shape[0], "c": 0.3, "values": m.tolist()})
        assert '"values"' in out.read_text() and "-0.0" in out.read_text()
        assert out.with_suffix(".csv").read_text() == "".join(
            line + "\n" for line in _dense_csv(m)
        )
        back = read_graphon(out)
        assert isinstance(back._graph._held, _Entries) and back.values.tobytes() == m.tobytes()
