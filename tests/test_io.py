import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpcentral import (
    FixedPointMap,
    Graph,
    InputFormatError,
    StepGraphon,
    constants_analytic,
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
from fpcentral.io import _write_json


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

    def test_exact_search_override_does_not_lower_the_node_cap(self, monkeypatch):
        monkeypatch.setenv("FPC_MAX_EXACT_N", "3")
        assert parse_edge_list("0 9\n").n == 10


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
        map_ = FixedPointMap("katz", alpha=0.2)
        cert = theorem1_certificate(a, b, map_, constants_analytic(a, map_))
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

    def test_write_graphon_matches_json_dumps(self, tmp_path):
        w = StepGraphon(np.array([[0.5, 0.1], [0.1, 1e16]]))
        path = tmp_path / "w.json"
        write_graphon(w, path)
        assert path.read_text() == _dumped(graphon_to_dict(w))
        g = Graph(np.array([[0.0, -0.0], [5e-324, 1.0]]))
        write_graph(g, path)
        assert path.read_text() == _dumped(graph_to_dict(g))
