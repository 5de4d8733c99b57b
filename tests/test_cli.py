import ast
import hashlib
import inspect
import json
import math
import os
import re
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import fpcentral
from fpcentral.cli import _emit, build_parser, main

from oracles import sequential_sums
from test_norms import SWEEP_LIMIT_PAIR

K3_EDGES = "0 1 1\n1 0 1\n1 2 1\n2 1 1\n2 0 1\n0 2 1\n"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


@pytest.fixture
def k3(tmp_path):
    path = tmp_path / "k3.txt"
    path.write_text(K3_EDGES)
    return str(path)


class TestCentrality:
    def test_k3_pagerank(self, capsys, k3):
        code, payload, _ = run_json(
            capsys, "centrality", k3, "--family", "pagerank", "--alpha", "0.85"
        )
        assert code == 0
        assert np.allclose(payload["rho"], [1.0 / 3.0] * 3, atol=1e-8)
        assert payload["manifest"]["parameters"]["family"] == "pagerank"
        assert payload["manifest"]["inputs"][0]["sha256"]

    def test_zero_edge_two_node_katz(self, capsys, tmp_path):
        path = tmp_path / "empty2.txt"
        path.write_text("0\n1\n")
        code, payload, _ = run_json(
            capsys, "centrality", str(path), "--family", "katz", "--alpha", "0.5"
        )
        assert code == 0
        assert np.allclose(payload["rho"], [1.0, 1.0], atol=1e-10)

    def test_malformed_line_exits_4_with_line_number(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("a b\n")
        code, out, err = run(
            capsys, "centrality", str(path), "--family", "katz", "--alpha", "0.5"
        )
        assert code == 4
        assert "line 1" in err

    def test_missing_file_exits_4(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "centrality", str(tmp_path / "nope.txt"),
            "--family", "katz", "--alpha", "0.5",
        )
        assert code == 4

    def test_katz_without_alpha_exits_2(self, capsys, k3):
        code, _, err = run(capsys, "centrality", k3, "--family", "katz")
        assert code == 2
        assert "--alpha" in err

    def test_eigen_with_alpha_exits_2(self, capsys, k3):
        code, _, err = run(
            capsys, "centrality", k3, "--family", "eigen", "--alpha", "0.5"
        )
        assert code == 2

    def test_eigen_on_k3(self, capsys, k3):
        code, payload, _ = run_json(capsys, "centrality", k3, "--family", "eigen")
        assert code == 0
        assert np.allclose(payload["rho"], [1.0 / np.sqrt(3.0)] * 3, atol=1e-8)
        # inverse-iteration solves: none, since K_3 takes the Perron route
        # and the all-ones start is its vector
        assert payload["iterations"] == 0

    def test_eigen_residual_with_huge_weights_is_finite(self, capsys, tmp_path):
        # squaring entries near 1e200 overflowed the residual's 2-norm, which
        # wrote "residual": Infinity, not valid JSON
        path = tmp_path / "huge.txt"
        path.write_text("0 1 1e200\n1 0 1e200\n1 2 1e200\n2 1 1e200\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, err = run(capsys, "centrality", str(path), "--family", "eigen")
        assert code == 0, err
        payload = json.loads(out, parse_constant=lambda name: pytest.fail(name))
        assert 0.0 <= payload["residual"] <= 1e-14
        assert np.allclose(payload["rho"], [0.5, 0.5**0.5, 0.5], atol=1e-12)

    @pytest.mark.parametrize("loop, solves", [("", 0), ("2 2 -1e308\n", 1)],
                             ids=["perron-route", "spectrum-route"])
    def test_eigen_gap_with_weights_near_the_float_limit_is_quiet(
            self, capsys, tmp_path, loop, solves):
        # every check runs on the weights scaled by 2^-1023.  The directed
        # graph takes the Perron route, whose bracket proves its value
        # simple.  A loop of negative weight sends it to the spectrum route,
        # where the gap of the scaled weights is about 2.4; only the gap of A
        # scaled back overflows to inf, which must not warn
        path = tmp_path / "limit.txt"
        path.write_text("0 1 1e308\n1 2 1e308\n2 0 1e308\n1 0 1e308\n0 2 1e308\n" + loop)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "centrality", str(path), "--family", "eigen")
        assert (code, err) == (0, "")
        payload = json.loads(out, parse_constant=lambda name: pytest.fail(name))
        assert payload["iterations"] == solves

    def test_mixed_sign_eigenvector_needs_normalizer(self, capsys, tmp_path):
        path = tmp_path / "neg.txt"
        path.write_text("0 1 -1\n1 0 -1\n")
        code, _, err = run(capsys, "centrality", str(path), "--family", "eigen")
        assert code == 2
        assert "--normalizer" in err
        code, payload, _ = run_json(
            capsys, "centrality", str(path), "--family", "eigen",
            "--normalizer", "abs",
        )
        assert code == 0
        assert np.allclose(payload["rho"], [0.5, 0.5], atol=1e-10)

    def test_normalizer_exp_neg_spelling(self, capsys, k3):
        code, payload, _ = run_json(
            capsys, "centrality", k3, "--family", "pagerank", "--alpha", "0.85",
            "--normalizer", "exp-neg",
        )
        assert code == 0
        assert sum(payload["rho"]) == pytest.approx(1.0)

    def test_nonconvergence_exits_3(self, capsys, tmp_path):
        path = tmp_path / "slow.txt"
        path.write_text("0 1 1\n1 0 1\n")
        code, _, err = run(
            capsys, "centrality", str(path), "--family", "katz",
            "--alpha", "0.9999999",
        )
        assert code == 3

    def test_output_file_and_csv(self, capsys, k3, tmp_path):
        out_path = tmp_path / "result.json"
        code, stdout, _ = run(
            capsys, "centrality", k3, "--family", "pagerank", "--alpha", "0.85",
            "-o", str(out_path), "--csv",
        )
        assert code == 0
        assert stdout == ""
        payload = json.loads(out_path.read_text())
        assert len(payload["rho"]) == 3
        csv_text = (tmp_path / "result.csv").read_text()
        assert csv_text.startswith("node,rho,feature_x\n")
        assert len(csv_text.strip().splitlines()) == 4

    def test_csv_to_stdout(self, capsys, k3):
        code, out, _ = run(
            capsys, "centrality", k3, "--family", "pagerank", "--alpha", "0.85",
            "--csv",
        )
        assert code == 0
        assert "\n}\nnode,rho,feature_x\n" in out

    def test_deterministic_output_modulo_timestamp(self, capsys, k3):
        args = ("centrality", k3, "--family", "pagerank", "--alpha", "0.85")
        _, first, _ = run_json(capsys, *args)
        _, second, _ = run_json(capsys, *args)
        first["manifest"].pop("timestamp")
        second["manifest"].pop("timestamp")
        assert first == second


class TestCompare:
    def test_identical_files_hold_with_zero_slack(self, capsys, k3):
        code, payload, _ = run_json(
            capsys, "compare", k3, k3, "--family", "katz", "--alpha", "0.2"
        )
        assert code == 0
        assert payload["holds"] is True
        assert payload["slack"] == pytest.approx(0.0, abs=1e-12)
        assert payload["bound"] == pytest.approx(0.0, abs=1e-12)

    def test_c6_vs_perturbed_c6(self, capsys, tmp_path):
        lines_a = []
        lines_b = []
        for i in range(6):
            j = (i + 1) % 6
            w = "0.9" if i == 0 else "1"
            lines_a += [f"{i} {j} 1", f"{j} {i} 1"]
            lines_b += [f"{i} {j} {w}", f"{j} {i} {w}"]
        pa = tmp_path / "c6.txt"
        pb = tmp_path / "c6p.txt"
        pa.write_text("\n".join(lines_a) + "\n")
        pb.write_text("\n".join(lines_b) + "\n")
        code, payload, _ = run_json(
            capsys, "compare", str(pa), str(pb), "--family", "katz",
            "--alpha", "0.25", "--bound", "theorem1",
        )
        assert code == 0
        assert payload["holds"] is True
        assert payload["certified"] is True
        assert set(payload["constants"]) == {"L0", "L1", "Lg", "R", "method"}

    def test_size_mismatch_exits_2(self, capsys, k3, tmp_path):
        small = tmp_path / "k2.txt"
        small.write_text("0 1 1\n1 0 1\n")
        code, _, err = run(
            capsys, "compare", k3, str(small), "--family", "katz", "--alpha", "0.2"
        )
        assert code == 2

    def test_prop6_and_prop7(self, capsys, k3, tmp_path):
        other = tmp_path / "p3.txt"
        other.write_text("0 1 1\n1 0 1\n1 2 1\n2 1 1\n")
        for bound in ("prop6", "prop7"):
            code, payload, _ = run_json(
                capsys, "compare", k3, str(other), "--family", "katz",
                "--alpha", "0.2", "--bound", bound,
            )
            assert code == 0
            assert payload["holds"] is True

    def test_prop6_katz_at_the_exact_permutation_limit(self, capsys, tmp_path):
        paths = []
        for name, w in zip("ab", SWEEP_LIMIT_PAIR):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps({"weights": w.tolist()}))
            paths.append(str(path))
        code, payload, _ = run_json(
            capsys, "compare", *paths, "--family", "katz", "--alpha", "0.1",
            "--bound", "prop6",
        )
        assert code == 0
        assert payload["holds"] is True

    def test_greedy_mode_is_refused_where_no_greedy_search_runs(self, capsys, tmp_path):
        # theorem1 and theorem2 search no relabeling and prop7 always runs
        # its exact search; they used to exit 0, certified, and record
        # "perm_mode": "greedy"
        cycle = "0 1 1\n1 0 1\n1 2 1\n2 1 1\n2 3 1\n3 2 1\n3 0 1\n0 3 1\n"
        c4, chord = tmp_path / "c4.txt", tmp_path / "c4chord.txt"
        c4.write_text(cycle)
        chord.write_text(cycle + "0 2 1\n2 0 1\n")
        graphon = tmp_path / "w.json"
        graphon.write_text(GRAPHON_2)
        message = "applies only to --bound prop6, prop9 and prop10, not to {}\n"
        for argv in (("compare", str(c4), str(chord), "--bound", "theorem1"),
                     ("compare", str(c4), str(chord), "--bound", "prop7"),
                     ("graphon", "compare", str(graphon), str(graphon), "--bound", "theorem2")):
            code, out, err = run(capsys, *argv, "--family", "katz", "--alpha", "0.1",
                                 "--perm-mode", "greedy")
            assert (code, out) == (2, ""), argv
            assert err.startswith("error: --perm-mode greedy ")
            assert err.endswith(message.format(argv[-1])), err
        code, payload, _ = run_json(capsys, "compare", str(c4), str(chord), "--family",
                                    "katz", "--alpha", "0.1", "--bound", "prop6",
                                    "--perm-mode", "greedy")
        assert code == 0 and payload["certified"] is False

    def test_csv_row(self, capsys, k3):
        code, out, _ = run(
            capsys, "compare", k3, k3, "--family", "katz", "--alpha", "0.2", "--csv"
        )
        assert code == 0
        assert "bound,observed,holds,slack,certified" in out


class TestGraphonCommands:
    def test_lift_k2_emits_bare_graphon_json(self, capsys, tmp_path):
        path = tmp_path / "k2.txt"
        path.write_text("0 1 1\n1 0 1\n")
        code, payload, _ = run_json(capsys, "graphon", "lift", str(path))
        assert code == 0
        assert payload == {"c": 1.0, "k": 2, "values": [[0.0, 1.0], [1.0, 0.0]]}

    def test_lift_requires_symmetry(self, capsys, tmp_path):
        path = tmp_path / "arrow.txt"
        path.write_text("0 1 1\n")
        code, _, err = run(capsys, "graphon", "lift", str(path))
        assert code == 2

    def test_constant_graphon_pagerank(self, capsys, tmp_path):
        path = tmp_path / "w.json"
        path.write_text('{"values": [[0.5]]}\n')
        code, payload, _ = run_json(
            capsys, "graphon", "centrality", str(path),
            "--family", "pagerank", "--alpha", "0.85",
        )
        assert code == 0
        assert np.allclose(payload["rho"], [1.0], atol=1e-10)
        assert payload["integral"] == pytest.approx(1.0, abs=1e-10)
        assert payload["non_negative"] is True

    def test_graphon_katz_and_eigen(self, capsys, tmp_path):
        path = tmp_path / "w.json"
        path.write_text('{"values": [[0.5]]}\n')
        code, payload, _ = run_json(
            capsys, "graphon", "centrality", str(path),
            "--family", "katz", "--alpha", "0.5",
        )
        assert code == 0
        assert np.allclose(payload["rho"], [4.0 / 3.0], atol=1e-10)
        code, payload, _ = run_json(
            capsys, "graphon", "centrality", str(path), "--family", "eigen"
        )
        assert code == 0
        assert payload["lambda"] == pytest.approx(0.5, abs=1e-10)

    def test_graphon_katz_and_pagerank_report_their_loop(self, capsys, tmp_path):
        from fpcentral import StepGraphon, graphon_katz, graphon_pagerank

        values = [[0.0, 1.0, 0.5], [1.0, 0.0, 0.25], [0.5, 0.25, 1.0]]
        path = tmp_path / "w.json"
        path.write_text(json.dumps({"values": values}))
        for family, density in (("katz", graphon_katz), ("pagerank", graphon_pagerank)):
            code, payload, _ = run_json(capsys, "graphon", "centrality", str(path),
                                        "--family", family, "--alpha", "0.5")
            rho = density(StepGraphon(values), 0.5)
            assert code == 0 and payload["rho"] == rho.values.tolist()
            assert (payload["iterations"], payload["residual"]) == (rho.iterations, rho.residual)
            assert payload["iterations"] > 1 and 0.0 <= payload["residual"] <= 1e-12 * 3
        _, payload, _ = run_json(capsys, "graphon", "centrality", str(path), "--family", "eigen")
        assert "iterations" not in payload and "residual" not in payload

    def test_compare_theorem2(self, capsys, tmp_path):
        pa = tmp_path / "a.json"
        pb = tmp_path / "b.json"
        pa.write_text('{"values": [[0.5]]}\n')
        pb.write_text('{"values": [[0.45]]}\n')
        code, payload, _ = run_json(
            capsys, "graphon", "compare", str(pa), str(pb),
            "--family", "katz", "--alpha", "0.5",
        )
        assert code == 0
        assert payload["holds"] is True
        assert payload["certified"] is True

    def test_compare_prop9_prop10(self, capsys, tmp_path):
        pa = tmp_path / "a.json"
        pb = tmp_path / "b.json"
        pa.write_text('{"values": [[0.6, 0.2], [0.2, 0.6]]}\n')
        pb.write_text('{"values": [[0.5, 0.25], [0.25, 0.6]]}\n')
        for bound in ("prop9", "prop10"):
            code, payload, _ = run_json(
                capsys, "graphon", "compare", str(pa), str(pb),
                "--family", "katz", "--alpha", "0.5", "--bound", bound,
            )
            assert code == 0
            assert payload["holds"] is True
            assert payload["certified"] is False

    def test_mismatched_block_counts_exit_2(self, capsys, tmp_path):
        pa = tmp_path / "a.json"
        pb = tmp_path / "b.json"
        pa.write_text('{"values": [[0.5]]}\n')
        pb.write_text('{"values": [[0.5, 0.5], [0.5, 0.5]]}\n')
        code, _, err = run(
            capsys, "graphon", "compare", str(pa), str(pb),
            "--family", "katz", "--alpha", "0.5",
        )
        assert code == 2
        assert "blocks" in err


class TestCompareCallsItsCertificate:
    """``compare`` and ``graphon compare`` call the public certificate of
    their ``--bound`` once, so a trace of that function sees the command, and
    print what the library call returns, with the manifest added."""

    CASES = [
        ("compare", "theorem1", "katz", "0.3", ()),
        ("compare", "prop6", "pagerank", "0.85", ("--perm-mode", "greedy")),
        ("compare", "prop7", "katz", "0.3", ()),
        ("graphon", "theorem2", "pagerank", "0.85", ()),
        ("graphon", "prop9", "katz", "0.5", ("--perm-mode", "greedy")),
        ("graphon", "prop10", "katz", "0.5", ()),
    ]

    @pytest.mark.parametrize("command, bound, family, alpha, flags", CASES,
                             ids=[case[1] for case in CASES])
    def test_one_call_and_the_same_payload(
            self, capsys, tmp_path, monkeypatch, command, bound, family, alpha, flags):
        from fpcentral import perturbation
        from fpcentral.io import read_graph, read_graphon

        names = [f"{case[1]}_certificate" for case in self.CASES]
        originals = {name: getattr(perturbation, name) for name in names}
        calls = []
        for name, fn in originals.items():
            def counted(*args, name=name, fn=fn, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            monkeypatch.setattr(perturbation, name, counted)
        if command == "graphon":
            texts = [GRAPHON_2, '{"values": [[0.5, 0.3], [0.3, 0.4]]}']
            argv, read = ["graphon", "compare"], read_graphon
        else:
            texts = [K3_EDGES, K3_EDGES.replace("2 0 1\n0 2 1", "2 0 0.5\n0 2 0.5")]
            argv, read = ["compare"], read_graph
        paths = []
        for i, text in enumerate(texts):
            paths.append(tmp_path / f"in{i}")
            paths[-1].write_text(text)
        code, payload, err = run_json(
            capsys, *argv, *map(str, paths), "--family", family, "--alpha", alpha,
            "--bound", bound, *flags,
        )
        assert (code, err) == (0, "")
        assert calls == [f"{bound}_certificate"]
        mode = {"mode": flags[1]} if flags else {}
        library = originals[f"{bound}_certificate"](
            *map(read, paths), family, float(alpha), **mode
        )
        del payload["manifest"]
        assert payload == library.to_dict()


# a JSON integer beyond float64: numpy used to raise OverflowError
HUGE_INT = "1" + "0" * 400


class TestMalformedJsonNumbers:
    def run_graphon(self, capsys, tmp_path, text):
        path = tmp_path / "w.json"
        path.write_text(text)
        return run(
            capsys, "graphon", "centrality", str(path),
            "--family", "pagerank", "--alpha", "0.85",
        )

    def test_huge_integer_weight_exits_4(self, capsys, tmp_path):
        path = tmp_path / "g.json"
        path.write_text('{"weights": [[%s]]}' % HUGE_INT)
        code, _, err = run(capsys, "norms", str(path), "--norm", "1")
        assert code == 4
        assert "bad 'weights' value" in err

    def test_huge_integer_graphon_value_exits_4(self, capsys, tmp_path):
        code, _, err = self.run_graphon(capsys, tmp_path, '{"values": [[%s]]}' % HUGE_INT)
        assert code == 4
        assert "bad 'values' value" in err

    @pytest.mark.parametrize(
        "c", ['"x"', "[1]", "true", "1e999", HUGE_INT],
        ids=["string", "list", "boolean", "infinite", "huge-integer"],
    )
    def test_graphon_bound_must_be_a_finite_real(self, capsys, tmp_path, c):
        # a string or a list used to raise TypeError, and 1e999 was taken as
        # c = inf
        code, _, err = self.run_graphon(
            capsys, tmp_path, '{"values": [[0.5]], "c": %s}' % c
        )
        assert code == 4
        assert "bad 'c' value" in err

    def test_null_and_integer_bounds_are_accepted(self, capsys, tmp_path):
        for c in ("null", "1", "0.5"):
            code, _, _ = self.run_graphon(
                capsys, tmp_path, '{"values": [[0.5]], "c": %s}' % c
            )
            assert code == 0



class TestUnreadableInputs:
    """A file that is not UTF-8 text, JSON nested past the parser's
    recursion limit, or an integer past Python's digit limit, is a parse
    error (exit 4), not a traceback."""

    GRAPH = ("centrality", "{path}", "--family", "eigen")
    GRAPHON = ("graphon", "centrality", "{path}", "--family", "eigen")

    @pytest.mark.parametrize(
        "argv, data, start",
        [
            (GRAPH, b"0 1\n1 \xff\n", 6),
            (GRAPH, b'{"weights": [[0.0, 1.0], [1.0, 0.0\xff]]}', 34),
            (GRAPHON, b'{"values": [[0.5\xff]]}', 16),
        ],
        ids=["edge-list", "graph-json", "graphon"],
    )
    def test_bytes_that_are_not_utf8_exit_4(self, capsys, tmp_path, argv, data, start):
        path = tmp_path / "in.txt"
        path.write_bytes(data)
        code, out, err = run(capsys, *(a.replace("{path}", str(path)) for a in argv))
        assert (code, out) == (4, "")
        assert err == f"error: byte {start}: not utf-8 text (invalid start byte)\n"

    @pytest.mark.parametrize("argv, key", [(GRAPH, "weights"), (GRAPHON, "values")],
                             ids=["graph", "graphon"])
    def test_deeply_nested_json_exits_4(self, capsys, tmp_path, argv, key):
        path = tmp_path / "in.json"
        path.write_text('{"%s": %s0.5%s}' % (key, "[" * 100_000, "]" * 100_000))
        code, out, err = run(capsys, *(a.replace("{path}", str(path)) for a in argv))
        assert (code, out, err) == (4, "", "error: invalid JSON: nested too deeply\n")

    @pytest.mark.parametrize("argv, key", [(GRAPH, "weights"), (GRAPHON, "values")],
                             ids=["graph", "graphon"])
    def test_integers_past_the_digit_limit_exit_4(self, capsys, tmp_path, argv, key):
        # json.loads raises a plain ValueError for an integer of more than
        # sys.get_int_max_str_digits() digits (4300 by default)
        path = tmp_path / "in.json"
        path.write_text('{"%s": [[%s]]}' % (key, "1" * 5000))
        code, out, err = run(capsys, *(a.replace("{path}", str(path)) for a in argv))
        assert (code, out) == (4, "")
        assert err.startswith("error: invalid JSON: Exceeds the limit (4300 digits)")

    @pytest.mark.parametrize("line, message", [
        ("1" * 5000 + " 1", "'" + "1" * 39 + " is not an integer node index"),
        ("0 1 " + "9" * 5000 + "x", "'" + "9" * 39 + " is not a real weight"),
    ], ids=["index", "weight"])
    def test_a_long_faulty_edge_list_token_is_quoted_to_40_characters(
            self, capsys, tmp_path, line, message):
        # as the JSON path quotes a faulty entry
        path = tmp_path / "in.txt"
        path.write_text(line + "\n")
        code, out, err = run(capsys, "centrality", str(path), "--family", "eigen")
        assert (code, out, err) == (4, "", f"error: line 1: {message}\n")

class TestManifestDigests:
    """A manifest records the SHA-256 of the bytes each input was read
    from, taken by the reader, so a command reads each input once."""

    @pytest.mark.parametrize("argv", [
        ("centrality", "{g}", "--family", "eigen"),
        ("compare", "{g}", "{h}", "--family", "katz", "--alpha", "0.1"),
        ("norms", "{g}", "--norm", "cut"),
        ("graphon", "centrality", "{w}", "--family", "eigen"),
        ("graphon", "compare", "{w}", "{v}", "--family", "katz", "--alpha", "0.5"),
    ], ids=["centrality", "compare", "norms", "graphon-centrality", "graphon-compare"])
    def test_each_input_is_read_once_and_hashed(self, capsys, tmp_path, monkeypatch, argv):
        import builtins

        paths = {"g": tmp_path / "g.txt", "h": tmp_path / "h.json",
                 "w": tmp_path / "w.json", "v": tmp_path / "v.json"}
        paths["g"].write_text(K3_EDGES)
        paths["h"].write_text(json.dumps({"weights": (np.ones((3, 3)) - np.eye(3)).tolist()}))
        paths["w"].write_text(json.dumps({"values": [[0.5, 0.25], [0.25, 0.0]]}))
        paths["v"].write_text(json.dumps({"k": 2, "values": [[0.5, 0.0], [0.0, 0.5]]}))
        opened = []
        read_bytes, open_ = Path.read_bytes, builtins.open
        monkeypatch.setattr(Path, "read_bytes", lambda self: opened.append(self) or read_bytes(self))
        monkeypatch.setattr(builtins, "open", lambda file, mode="r", *args, **kwargs: (
            "r" in mode and opened.append(Path(file))) or open_(file, mode, *args, **kwargs))
        code, payload, err = run_json(capsys, *(a.format(**paths) for a in argv))
        assert code == 0, err
        inputs = [Path(a.format(**paths)) for a in argv if a.startswith("{")]
        assert sorted(opened) == sorted(inputs)
        assert payload["manifest"]["inputs"] == [
            {"path": str(p), "sha256": hashlib.sha256(p.read_bytes()).hexdigest()} for p in inputs
        ]


class TestNorms:
    def test_identity_operator_norm(self, capsys, tmp_path):
        path = tmp_path / "eye.json"
        path.write_text(json.dumps({"weights": np.eye(5).tolist()}))
        code, payload, _ = run_json(capsys, "norms", str(path), "--norm", "2")
        assert code == 0
        assert payload["value"] == pytest.approx(1.0, abs=1e-9)
        assert payload["kind"] == "2"

    def test_ones_cut_norm_with_witness(self, capsys, tmp_path):
        path = tmp_path / "ones.json"
        path.write_text(json.dumps({"weights": np.ones((3, 3)).tolist()}))
        code, payload, _ = run_json(capsys, "norms", str(path), "--norm", "cut")
        assert code == 0
        assert payload["value"] == 9.0
        assert payload["witness"] == {"S": [0, 1, 2], "T": [0, 1, 2]}

    def test_cut_norm_size_cap_exits_2(self, capsys, tmp_path):
        path = tmp_path / "big.txt"
        path.write_text("22\n")
        code, _, err = run(capsys, "norms", str(path), "--norm", "cut")
        assert code == 2

    def test_oversized_edge_list_exits_4(self, capsys, tmp_path):
        path = tmp_path / "huge.txt"
        path.write_text("100000\n")
        code, _, err = run(capsys, "norms", str(path), "--norm", "2")
        assert code == 4
        assert "n <= 5000" in err

    def test_heuristic_mode(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        rng = np.random.default_rng(60)
        path.write_text(json.dumps({"weights": rng.uniform(-1, 1, (6, 6)).tolist()}))
        code, payload, _ = run_json(
            capsys, "norms", str(path), "--norm", "cut", "--mode", "heuristic"
        )
        assert code == 0
        exact_code, exact_payload, _ = run_json(
            capsys, "norms", str(path), "--norm", "cut"
        )
        assert payload["value"] <= exact_payload["value"] + 1e-12

    def test_one_and_inf_norms(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"weights": [[1.0, 2.0], [0.0, 1.0]]}))
        code, payload, _ = run_json(capsys, "norms", str(path), "--norm", "1")
        assert payload["value"] == 3.0
        code, payload, _ = run_json(capsys, "norms", str(path), "--norm", "inf")
        assert payload["value"] == 3.0

    @pytest.mark.parametrize("share", [0.02, 0.5], ids=["listed", "dense"])
    def test_one_and_inf_norms_add_each_line_in_index_order(self, capsys, tmp_path, share):
        # log-normal weights, so the order of the additions shows in the bits
        rng = np.random.default_rng(4001)
        m = np.where(rng.random((300, 300)) < share, rng.lognormal(size=(300, 300)), 0.0)
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"weights": m.tolist()}))
        for norm, axis in (("1", 0), ("inf", 1)):
            code, payload, _ = run_json(capsys, "norms", str(path), "--norm", norm)
            assert code == 0 and payload["value"] == float(sequential_sums(m, axis).max())


class TestOutput:
    def _lift_input(self, tmp_path):
        rng = np.random.default_rng(12)
        m = np.triu(rng.random((6, 6)), 1)
        m[0, 1] = 1e16
        m[2, 3] = 5e-324
        m = m + m.T
        path = tmp_path / "g.json"
        path.write_text(json.dumps({"weights": m.tolist()}))
        return path, m

    def test_lift_json_and_csv_bytes(self, capsys, tmp_path):
        path, m = self._lift_input(tmp_path)
        plain, with_csv = tmp_path / "plain.json", tmp_path / "with_csv.json"
        assert run(capsys, "graphon", "lift", str(path), "-o", str(plain))[0] == 0
        assert not (tmp_path / "plain.csv").exists()
        assert run(capsys, "graphon", "lift", str(path), "-o", str(with_csv), "--csv")[0] == 0
        body = plain.read_bytes()
        assert with_csv.read_bytes() == body
        expected = {"k": 6, "c": float(np.max(np.abs(m))), "values": m.tolist()}
        assert body.decode() == json.dumps(expected, indent=2, sort_keys=True) + "\n"
        rows = "".join(",".join(repr(float(x)) for x in row) + "\n" for row in m)
        assert (tmp_path / "with_csv.csv").read_text() == rows
        code, out, _ = run(capsys, "graphon", "lift", str(path), "--csv")
        assert code == 0 and out == body.decode() + rows

    def test_csv_table_is_built_only_on_request(self, capsys):
        def refuse():
            raise AssertionError("the CSV table was built without --csv")

        _emit({"value": 1.0}, build_parser().parse_args(["norms", "m", "--norm", "1"]), refuse)
        assert capsys.readouterr().out == '{\n  "value": 1.0\n}\n'

    def test_every_command_writes_json_dumps_bytes(self, capsys, k3, tmp_path):
        lifted = tmp_path / "k3.json"
        assert run(capsys, "graphon", "lift", k3, "-o", str(lifted))[0] == 0
        calls = (
            ("centrality", k3, "--family", "pagerank", "--alpha", "0.85"),
            ("centrality", k3, "--family", "eigen"),
            ("compare", k3, k3, "--family", "katz", "--alpha", "0.2", "--bound", "prop7"),
            ("graphon", "lift", k3),
            ("graphon", "centrality", str(lifted), "--family", "katz", "--alpha", "0.5"),
            ("graphon", "compare", str(lifted), str(lifted), "--family", "pagerank",
             "--alpha", "0.85", "--bound", "prop9"),
            ("norms", k3, "--norm", "cut"),
            ("norms", k3, "--norm", "2"),
        )
        for argv in calls:
            code, out, _ = run(capsys, *argv)
            assert code == 0, argv
            # json.loads then json.dumps gives back text json.dumps wrote
            assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


class TestParser:
    def test_jobs_below_one_is_a_usage_error(self, capsys, k3):
        for bound in ("theorem1", "prop6", "prop7"):
            for jobs in ("0", "-1", "two"):
                with pytest.raises(SystemExit) as exc:
                    main(["compare", k3, k3, "--family", "katz", "--alpha", "0.2",
                          "--bound", bound, "--jobs", jobs])
                assert exc.value.code == 2
                assert "--jobs" in capsys.readouterr().err

    def test_jobs_help_says_it_changes_nothing(self, capsys):
        with pytest.raises(SystemExit):
            main(["compare", "--help"])
        assert "changes nothing" in " ".join(capsys.readouterr().out.split())

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "fpc" in capsys.readouterr().out

    def test_unknown_subcommand_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_cli_import_leaves_out_scipy_optimize(self):
        src = str(Path(fpcentral.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        code = "import fpcentral.cli, sys; assert 'scipy.optimize' not in sys.modules"
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    def test_commands_run_without_scipy(self, tmp_path):
        # the runtime is numpy-only: every command runs with scipy blocked
        (tmp_path / "k3.txt").write_text(K3_EDGES)
        (tmp_path / "a.json").write_text('{"values": [[0.6, 0.2], [0.2, 0.6]]}\n')
        (tmp_path / "b.json").write_text('{"values": [[0.5, 0.25], [0.25, 0.6]]}\n')
        calls = [
            ["centrality", "k3.txt", "--family", "pagerank", "--alpha", "0.85"],
            ["compare", "k3.txt", "k3.txt", "--family", "katz", "--alpha", "0.3",
             "--bound", "prop7"],
            ["graphon", "compare", "a.json", "b.json", "--family", "katz",
             "--alpha", "0.5", "--bound", "prop10"],
            ["norms", "k3.txt", "--norm", "cut"],
        ]
        code = (
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "import fpcentral\n"
            "from fpcentral.cli import main\n"
            f"codes = [main(argv) for argv in {calls!r}]\n"
            "assert codes == [0, 0, 0, 0], codes\n"
        )
        src = str(Path(fpcentral.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp_path,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    def test_console_script_is_installed(self):
        exe = shutil.which("fpc")
        assert exe is not None, "fpc console script not on PATH; reinstall the package"
        proc = subprocess.run([exe, "--version"], capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.startswith("fpc ")


class TestStartup:
    """Each command loads only the modules it runs."""

    def python(self, code, cwd=None):
        """The stdout of ``code`` run in a fresh interpreter on this source."""
        src = str(Path(fpcentral.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                              cwd=cwd, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    def loaded(self, tmp_path, *argv):
        """The exit code, stdout and fpcentral modules of one command run in
        a fresh interpreter, and every module it loaded."""
        (tmp_path / "k3.txt").write_text(K3_EDGES)
        code = (
            "import contextlib, io, json, sys\n"
            "from fpcentral.cli import main\n"
            "out = io.StringIO()\n"
            "with contextlib.redirect_stdout(out):\n"
            "    try:\n"
            f"        rc = main({list(argv)!r})\n"
            "    except SystemExit as exc:\n"
            "        rc = exc.code\n"
            "print(json.dumps([rc, out.getvalue(), sorted(sys.modules)]))\n"
        )
        rc, out, modules = json.loads(self.python(code, cwd=tmp_path))
        layers = {m.removeprefix("fpcentral.") for m in modules if m.startswith("fpcentral.")}
        return rc, out, layers, set(modules)

    def test_version_loads_neither_numpy_nor_a_layer(self, tmp_path):
        rc, out, layers, modules = self.loaded(tmp_path, "--version")
        assert (rc, out) == (0, f"fpc {fpcentral.__version__}\n")
        assert layers == {"cli", "errors"}
        assert "numpy" not in modules

    @pytest.mark.parametrize("argv", [
        ("centrality", "k3.txt", "--family", "pagerank", "--alpha", "0.85"),
        *(("compare", "k3.txt", "k3.txt", "--family", "katz", "--alpha", "0.3",
           "--bound", bound) for bound in ("theorem1", "prop6", "prop7")),
        ("graphon", "lift", "k3.txt", "-o", "w.json"),
        ("graphon", "centrality", "a.json", "--family", "eigen"),
        ("graphon", "compare", "a.json", "b.json", "--family", "katz", "--alpha", "0.5",
         "--bound", "prop9"),
        ("norms", "k3.txt", "--norm", "cut"),
    ], ids=["centrality", "compare-theorem1", "compare-prop6", "compare-prop7", "graphon-lift",
            "graphon-centrality", "graphon-compare", "norms"])
    def test_no_command_loads_dataclasses(self, tmp_path, argv):
        # the result records are NamedTuples: no class body is generated by
        # exec when their modules are imported
        (tmp_path / "a.json").write_text('{"values": [[0.6, 0.2], [0.2, 0.6]]}\n')
        (tmp_path / "b.json").write_text('{"values": [[0.5, 0.25], [0.25, 0.6]]}\n')
        rc, _, _, modules = self.loaded(tmp_path, *argv)
        assert rc == 0
        assert "dataclasses" not in modules

    @pytest.mark.parametrize("argv", [
        *(("centrality", "k3.txt", "--family", family, *alpha) for family, alpha in (
            ("katz", ("--alpha", "0.3")), ("pagerank", ("--alpha", "0.85")), ("eigen", ()))),
        *(("compare", "k3.txt", "k3.txt", "--family", "katz", "--alpha", "0.3",
           "--bound", bound) for bound in ("theorem1", "prop6", "prop7")),
        ("compare", "k3.txt", "k3.txt", "--family", "pagerank", "--alpha", "0.85",
         "--bound", "theorem1"),
        ("graphon", "centrality", "a.json", "--family", "katz", "--alpha", "0.5"),
        *(("graphon", "compare", "a.json", "b.json", "--family", "katz", "--alpha", "0.5",
           "--bound", bound) for bound in ("theorem2", "prop9", "prop10")),
        *(("norms", "k3.txt", "--norm", norm) for norm in ("1", "2", "inf", "cut")),
        ("norms", "k3.txt", "--norm", "cut", "--mode", "heuristic"),
    ], ids=lambda argv: "-".join(a.lstrip("-") for a in argv if "." not in a or a[0].isdigit()))
    def test_no_command_loads_numpy_random(self, tmp_path, argv):
        # no runtime code draws a random number: the cut heuristic's starts
        # come from the matrix.  A bare ``import numpy`` does not load
        # numpy.random
        (tmp_path / "a.json").write_text('{"values": [[0.6, 0.2], [0.2, 0.6]]}\n')
        (tmp_path / "b.json").write_text('{"values": [[0.5, 0.25], [0.25, 0.6]]}\n')
        rc, _, _, modules = self.loaded(tmp_path, *argv)
        assert rc == 0
        assert "numpy.random" not in modules

    def test_a_listed_compare_loads_no_numpy_ma(self, tmp_path):
        # the merged difference of two lists sorts their indices; the
        # np.union1d it used imported numpy.ma on its first call (5.7 ms)
        ring = [(i, (i + 1) % 100) for i in range(100)]
        for name, last in (("a.txt", 1.0), ("b.txt", 0.5)):
            lines = [f"{i} {j} 1\n{j} {i} 1\n" for i, j in ring[:-1]]
            (tmp_path / name).write_text("".join(lines) + f"99 0 {last}\n0 99 {last}\n")
        rc, _, _, modules = self.loaded(tmp_path, "compare", "a.txt", "b.txt", "--family", "katz",
                                        "--alpha", "0.3")
        assert rc == 0
        assert "numpy.ma" not in modules

    @pytest.mark.parametrize("flags", [("--norm", "2"), ("--norm", "cut", "--mode", "heuristic")])
    def test_norms_loads_no_centrality_graphon_perturbation_or_transport(
            self, tmp_path, flags):
        rc, _, layers, _ = self.loaded(tmp_path, "norms", "k3.txt", *flags)
        assert rc == 0
        assert layers == {"cli", "errors", "graphs", "io", "norms"}

    @pytest.mark.parametrize("family", [("--family", "eigen"),
                                        ("--family", "pagerank", "--alpha", "0.85")])
    def test_centrality_loads_neither_perturbation_nor_transport(self, tmp_path, family):
        rc, _, layers, _ = self.loaded(tmp_path, "centrality", "k3.txt", *family)
        assert rc == 0
        assert not layers & {"graphon", "perturbation", "transport"}

    def test_graphon_lift_loads_no_solver(self, tmp_path):
        # the graphon layer imports the solvers where they run
        rc, _, layers, _ = self.loaded(tmp_path, "graphon", "lift", "k3.txt", "-o", "w.json")
        assert rc == 0
        assert layers == {"cli", "errors", "graphon", "graphs", "io"}

    def test_graphon_lift_loads_no_hashlib(self, tmp_path):
        # its payload records no digest, so OpenSSL stays out of the process
        (tmp_path / "k3.txt").write_text(K3_EDGES)
        out = self.python(
            "import sys\n"
            "from fpcentral.cli import main\n"
            "rc = main(['graphon', 'lift', 'k3.txt', '-o', 'w.json'])\n"
            "print(rc, sorted({'hashlib', '_hashlib'} & set(sys.modules)))\n",
            cwd=tmp_path,
        )
        assert out == "0 []\n"
        assert json.loads((tmp_path / "w.json").read_text())["k"] == 3

    def test_theorem1_compare_loads_neither_graphon_nor_transport(self, tmp_path):
        rc, _, layers, _ = self.loaded(tmp_path, "compare", "k3.txt", "k3.txt",
                                       "--family", "katz", "--alpha", "0.3")
        assert rc == 0
        assert "perturbation" in layers
        assert not layers & {"graphon", "transport"}

    def test_every_public_name_resolves_to_its_home_object(self):
        # before first use: dir lists every public name and no layer is loaded
        self.python(
            "import sys, fpcentral\n"
            "assert set(fpcentral.__all__) <= set(dir(fpcentral))\n"
            "assert [m for m in sys.modules if m.startswith('fpcentral.')] == []\n"
            "assert fpcentral.norms is sys.modules['fpcentral.norms']\n"
        )
        for name in fpcentral.__all__:
            if name == "__version__":
                continue
            obj = getattr(fpcentral, name)
            assert obj.__module__.startswith("fpcentral."), name
            assert getattr(sys.modules[obj.__module__], name) is obj, name
        with pytest.raises(AttributeError, match="no attribute 'not_a_name'"):
            fpcentral.not_a_name

    def test_the_runtime_exports_no_test_only_name(self, capsys, k3):
        # helpers that only the tests called; the ones they still need live
        # in tests/oracles.py, or are the private functions the commands run
        test_only = {
            "graphs": ("enumerate_automorphisms", "is_automorphism", "permute_vector"),
            "centrality": ("apply_map", "FixedPointMap", "SolveConfig", "Normalizer",
                           "katz_closed_form", "pagerank_closed_form", "pagerank_kernel"),
            "graphon": ("resample", "refine", "step_lp_norm", "apply", "graphon_degree",
                        "graphon_cut_norm", "graphon_op_norm", "block_permute"),
            "norms": ("difference_norm",),
            "transport": ("TransportConvention", "TransportPlan"),
        }
        for home, names in test_only.items():
            for name in names:
                with pytest.raises(AttributeError):
                    getattr(fpcentral, name)
                assert not hasattr(getattr(fpcentral, home), name), name
        assert not hasattr(fpcentral.transport, "CONVENTIONS")
        # the size limits are constants of the modules that enforce them
        for name in ("limits", "exact_limit"):
            with pytest.raises(AttributeError):
                getattr(fpcentral, name)
        assert not (Path(fpcentral.__file__).parent / "limits.py").exists()
        for name in ("identity", "inverse", "compose"):
            assert not hasattr(fpcentral.Permutation, name), name
        # constants are derived by each certificate, never built by a caller
        with pytest.raises(AttributeError):
            fpcentral.constants_analytic
        for name in ("constants_analytic", "_record", "_analytic_record"):
            assert not hasattr(fpcentral.perturbation, name), name
        fields = set(fpcentral.LipschitzConstants._fields)
        assert "method" not in fields
        assert not hasattr(fpcentral.cli, "cmd_graphon_compare")
        # settings that every caller left at one value are module constants
        takes = {
            fpcentral.solve: ["g", "family", "alpha"],
            fpcentral.normalize: ["v", "phi"],
            fpcentral.norms._two_norm: ["op"],
            fpcentral.cut_norm_heuristic: ["m"],
        }
        for fn, params in takes.items():
            assert list(inspect.signature(fn).parameters) == params, fn.__name__
        with pytest.raises(SystemExit) as exc:
            main(["norms", k3, "--norm", "cut", "--mode", "heuristic", "--seed", "3"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 3" in capsys.readouterr().err

    def test_each_result_record_is_immutable_and_replaced_by_a_copy(self):
        g = fpcentral.Graph(np.ones((3, 3)) - np.eye(3))
        cert = fpcentral.theorem1_certificate(g, g, "katz", 0.2)
        records = [
            fpcentral.solve(g, "katz", 0.2),
            fpcentral.eigencentrality(g),
            fpcentral.cut_norm_exact(g.weights),
            fpcentral.min_permuted_distance(g, g, 1),
            cert.constants,
            cert,
        ]
        assert [type(r).__name__ for r in records] == [
            "CentralityResult", "EigenResult", "CutNormWitness", "PermutedDistanceResult",
            "LipschitzConstants", "BoundCertificate"]
        for record in records:
            name = record._fields[0]
            first = getattr(record, name)
            with pytest.raises(AttributeError):
                setattr(record, name, None)
            with pytest.raises(AttributeError):
                record.extra = None
            copy = record._replace(**{name: None})
            assert type(copy) is type(record) and copy is not record
            assert getattr(copy, name) is None and getattr(record, name) is first
            assert list(record._asdict()) == list(record._fields)

    def test_no_module_reads_the_environment(self):
        # a run depends only on its command line and its input files
        banned = {"environ", "environb", "getenv", "getenvb", "putenv", "unsetenv"}
        found = []
        for path in sorted(Path(fpcentral.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Attribute) and node.attr in banned:
                    found.append(f"{path.name}:{node.lineno} os.{node.attr}")
                elif isinstance(node, ast.ImportFrom) and node.module == "os":
                    found += [f"{path.name}:{node.lineno} from os import {a.name}"
                              for a in node.names if a.name in banned]
        assert found == []

    def test_the_readme_library_example_runs(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        example = readme.split("## Library use", 1)[1].split("```python\n", 1)[1]
        out = self.python(example.split("```", 1)[0]).splitlines()
        assert out[0] == "[1.66666667 1.66666667]"
        # L0 = alpha ||A||_2 with the 2-norm rounded up: a few ulps above 0.4
        assert out[1].startswith("True ") and out[1].endswith(" 0.4000000000000003")
        assert out[2] == "[1. 1.]"


P3_EDGES = "0 1 {w}\n1 0 {w}\n1 2 {w}\n2 1 {w}\n"
GRAPHON_2 = '{"values": [[0.5, 0.2], [0.2, 0.5]]}'


@pytest.fixture
def graphon2(tmp_path):
    path = tmp_path / "w2.json"
    path.write_text(GRAPHON_2)
    return str(path)


class TestWorkCounts:
    """How many PageRank kernels, operator norms and lists of non-zero
    entries a command builds: each input is prepared once, and its record
    serves the constants, the solve and the right side."""

    @pytest.fixture
    def counts(self, monkeypatch):
        """Count the dense PageRank kernels formed (``graphs._Dense.kernel``)
        as kernels; the calls of ``norms._operator_norm``, the one body of
        every operator norm, as norms; and the calls of ``graphs._entries``
        that list the entries of one array, i.e. whose matrix is below the
        count cut, as lists.  Through every fpcentral module that names
        them."""
        import importlib

        from fpcentral import graphs, norms

        for layer in ("graphon", "io", "perturbation", "transport"):
            importlib.import_module(f"fpcentral.{layer}")
        counts = {"kernels": 0, "norms": 0, "lists": 0}

        def counted(key, fn, listed=lambda *args: True):
            def wrapper(*args, **kwargs):
                counts[key] += listed(*args)
                return fn(*args, **kwargs)
            return wrapper

        def lists(a, b=None):
            return b is None and np.count_nonzero(a) <= graphs.ENTRY_SHARE * a.size

        kernel = graphs._Dense.kernel
        monkeypatch.setattr(graphs._Dense, "kernel", counted("kernels", kernel))
        for key, fn, listed in (("norms", norms._operator_norm, None),
                                ("lists", graphs._entries, lists)):
            wrapper = counted(key, fn) if listed is None else counted(key, fn, listed)
            for name, module in list(sys.modules.items()):
                if name.startswith("fpcentral") and vars(module).get(fn.__name__) is fn:
                    monkeypatch.setattr(module, fn.__name__, wrapper)
        return counts

    @staticmethod
    def _write(tmp_path, matrices, as_edges=False):
        paths = {}
        for name, w in matrices.items():
            key = "values" if name.startswith("w") else "weights"
            if as_edges and key == "weights":
                paths[name] = tmp_path / f"{name}.txt"
                rows, cols = np.nonzero(w)
                paths[name].write_text(f"{w.shape[0] - 1}\n" + "".join(
                    f"{i} {j} {float(w[i, j])!r}\n" for i, j in zip(rows.tolist(), cols.tolist())
                ))
            else:
                paths[name] = tmp_path / f"{name}.json"
                paths[name].write_text(json.dumps({key: w.tolist()}))
        return paths

    @staticmethod
    def _sparse(n=96, directed=False):
        """An n-node ring with chords, mean degree about 3; directed, it is
        strongly connected."""
        rng = np.random.default_rng(15)
        a = np.zeros((n, n))
        a[np.arange(n), np.roll(np.arange(n), 1)] = 1.0
        chords = rng.integers(n, size=(n // 2, 2))
        a[chords[:, 0], chords[:, 1]] = rng.random(n // 2) + 0.5
        np.fill_diagonal(a, 0.0)
        return a if directed else np.maximum(a, a.T)

    ARGV = [
        ("centrality", "{a}", "--family", "pagerank", "--alpha", "0.85"),
        ("graphon", "centrality", "{wa}", "--family", "pagerank", "--alpha", "0.85"),
        ("compare", "{a}", "{b}", "--family", "pagerank", "--alpha", "0.85"),
        ("graphon", "compare", "{wa}", "{wb}", "--family", "pagerank", "--alpha", "0.85"),
        ("compare", "{a}", "{b}", "--family", "katz", "--alpha", "0.1"),
    ]
    IDS = ["centrality", "graphon-centrality", "theorem1", "theorem2", "theorem1-katz"]

    @pytest.mark.parametrize(
        "argv, kernels, norms",
        [(argv, *expect) for argv, expect in zip(ARGV, [(1, 1), (1, 1), (2, 3), (2, 3), (0, 3)])],
        ids=IDS,
    )
    def test_each_solve_builds_its_kernel_once(
            self, capsys, tmp_path, counts, argv, kernels, norms):
        rng = np.random.default_rng(14)
        a = rng.random((6, 6))
        b = a.copy()
        b[0, 1] = 0.0
        paths = self._write(tmp_path, {"a": a, "b": b, "wa": (a + a.T) / 2, "wb": (b + b.T) / 2})
        code, _, err = run(capsys, *(arg.format(**paths) for arg in argv))
        assert code == 0, err
        assert counts == {"kernels": kernels, "norms": norms, "lists": 0}

    @pytest.mark.parametrize("as_edges", [False, True], ids=["json", "edge-list"])
    @pytest.mark.parametrize(
        "argv, kernels, norms",
        [(argv, *expect) for argv, expect in zip(ARGV, [(0, 1), (0, 1), (0, 3), (0, 3), (0, 3)])],
        ids=IDS,
    )
    def test_each_sparse_input_lists_its_entries_at_most_once(
            self, capsys, tmp_path, counts, argv, kernels, norms, as_edges):
        # every input is below the cut, so the products run over entry
        # lists, no PageRank kernel is formed, the theorem's right side
        # merges the two lists, and an edge list or a listed JSON matrix
        # hands its entries over as it is parsed, so none are listed again
        a = self._sparse()
        b = a.copy()
        b[0, 1] = b[1, 0] = 0.0
        d = self._sparse(directed=True)
        paths = self._write(
            tmp_path, {"a": a, "b": b, "wa": a / a.max(), "wb": b / a.max(), "d": d}, as_edges
        )
        code, _, err = run(capsys, *(arg.format(**paths) for arg in argv))
        assert code == 0, err
        assert counts == {"kernels": kernels, "norms": norms, "lists": 0}

    @pytest.mark.parametrize("argv", ARGV[2:], ids=IDS[2:])
    def test_a_listed_theorem_costs_its_entries(
            self, capsys, tmp_path, counts, monkeypatch, argv):
        # the right side merges the two entry lists, with no PageRank
        # kernel and no tiled pass over a difference, and the digest hashes
        # the lists alone
        from types import SimpleNamespace

        from fpcentral import graphs, perturbation

        tiled = []
        for name in ("_entries", "_abs_sums"):
            fn = getattr(graphs, name)
            monkeypatch.setattr(graphs, name, lambda a, b=None, *rest, fn=fn:
                                tiled.append(b is not None) or fn(a, b, *rest))
        hashed = []

        class Counted:
            def __init__(self):
                self.h = hashlib.sha256()

            def update(self, data):
                hashed.append(memoryview(data).nbytes)
                self.h.update(data)

            def hexdigest(self):
                return self.h.hexdigest()

        monkeypatch.setattr(perturbation, "hashlib", SimpleNamespace(sha256=Counted))
        a = self._sparse(400)
        b = a.copy()
        b[0, 1] = b[1, 0] = 0.0
        paths = self._write(tmp_path, {"a": a, "b": b, "wa": a / a.max(), "wb": b / a.max()})
        code, _, err = run(capsys, *(arg.format(**paths) for arg in argv))
        assert code == 0, err
        assert counts["kernels"] == 0 and not any(tiled)
        # rows, cols and vals of both lists, 8 bytes each, and the parameters
        assert 0 < sum(hashed) <= 24 * (np.count_nonzero(a) + np.count_nonzero(b)) + 256

    def test_two_norm_of_an_edge_list_iterates_on_its_parsed_entries(
            self, capsys, tmp_path, counts):
        paths = self._write(tmp_path, {"a": self._sparse()}, as_edges=True)
        code, _, err = run(capsys, "norms", str(paths["a"]), "--norm", "2")
        assert code == 0, err
        assert counts == {"kernels": 0, "norms": 1, "lists": 0}

    @pytest.mark.parametrize("p", ["1", "inf"])
    def test_one_and_inf_norms_of_an_edge_list_sum_its_parsed_entries(
            self, capsys, tmp_path, counts, monkeypatch, p):
        from fpcentral import graphs

        tiled = []
        monkeypatch.setattr(graphs, "_abs_sums", lambda *args: tiled.append(args))
        a = self._sparse()
        paths = self._write(tmp_path, {"a": a}, as_edges=True)
        code, out, err = run(capsys, "norms", str(paths["a"]), "--norm", p)
        assert code == 0, err
        assert counts == {"kernels": 0, "norms": 1, "lists": 0} and not tiled
        want = np.abs(a).sum(axis=0 if p == "1" else 1).max()
        assert json.loads(out)["value"] == pytest.approx(want, rel=1e-15, abs=0.0)


    @pytest.fixture
    def arrays(self, monkeypatch):
        """The n of every n x n array formed from a list of entries
        (``graphs._Entries.dense``, the one place that forms one)."""
        from fpcentral import graphs

        formed = []
        dense = graphs._Entries.dense
        monkeypatch.setattr(graphs._Entries, "dense", lambda e: formed.append(e.n) or dense(e))
        return formed

    # each call, and the arrays it forms from listed inputs: none where only
    # products, norms and the writer run (the Perron route of eigen and the
    # graphon densities included), one per LAPACK call (the spectrum of
    # eigen and its inverse iteration share one)
    FORMED = [
        (("centrality", "{d}", "--family", "eigen"), 0),
        (("centrality", "{s}", "--family", "eigen"), 1),
        (("centrality", "{a}", "--family", "katz", "--alpha", "0.1"), 0),
        (("centrality", "{a}", "--family", "pagerank", "--alpha", "0.85"), 0),
        (("compare", "{a}", "{b}", "--family", "katz", "--alpha", "0.1"), 0),
        (("compare", "{a}", "{b}", "--family", "pagerank", "--alpha", "0.85"), 0),
        (("norms", "{a}", "--norm", "1"), 0),
        (("norms", "{a}", "--norm", "2"), 0),
        (("norms", "{a}", "--norm", "inf"), 0),
        (("graphon", "lift", "{a}"), 0),
        (("centrality", "{a}", "--family", "eigen"), 0),
        (("graphon", "centrality", "{wa}", "--family", "eigen"), 0),
        (("graphon", "centrality", "{wa}", "--family", "katz", "--alpha", "0.5"), 0),
        (("graphon", "centrality", "{wa}", "--family", "pagerank", "--alpha", "0.85"), 0),
        (("graphon", "compare", "{wa}", "{wb}", "--family", "katz", "--alpha", "0.5"), 0),
        (("graphon", "compare", "{wa}", "{wb}", "--family", "pagerank", "--alpha", "0.85"), 0),
    ]

    @pytest.mark.parametrize("as_edges", [False, True], ids=["json", "edge-list"])
    @pytest.mark.parametrize("argv, formed", FORMED, ids=[
        "-".join(a for a in argv if not a.startswith(("{", "-", "0"))) + f"-{i}"
        for i, (argv, _) in enumerate(FORMED)
    ])
    def test_a_listed_input_forms_an_array_only_for_a_lapack_call(
            self, capsys, tmp_path, arrays, argv, formed, as_edges):
        a = self._sparse()
        b = a.copy()
        b[0, 1] = b[1, 0] = 0.0
        d = self._sparse(directed=True)
        s = a.copy()  # signed, so its eigen call takes the spectrum route
        s[0, 1] = s[1, 0] = -0.01
        paths = self._write(tmp_path, {
            "a": a, "b": b, "wa": a / a.max(), "wb": b / a.max(), "d": d, "s": s,
        }, as_edges)
        code, _, err = run(capsys, *(arg.format(**paths) for arg in argv))
        assert code == 0, err
        assert arrays == [a.shape[0]] * formed

    @pytest.mark.parametrize("argv", ARGV, ids=IDS)
    def test_an_input_above_the_cut_forms_no_array(self, capsys, tmp_path, arrays, argv):
        rng = np.random.default_rng(14)
        a = rng.random((6, 6))
        b = a.copy()
        b[0, 1] = 0.0
        paths = self._write(tmp_path, {"a": a, "b": b, "wa": (a + a.T) / 2, "wb": (b + b.T) / 2})
        code, _, err = run(capsys, *(arg.format(**paths) for arg in argv))
        assert code == 0, err
        assert arrays == []


class TestAlphaRule:
    """One rule: --alpha is required for katz and pagerank and refused for
    eigen, with one message each, checked after the inputs are read."""

    def test_eigen_with_alpha_exits_2(self, capsys, k3, graphon2):
        for argv in (
            ("centrality", k3),
            ("compare", k3, k3),
            ("graphon", "centrality", graphon2),
        ):
            code, out, err = run(capsys, *argv, "--family", "eigen", "--alpha", "0.5")
            assert (code, out) == (2, ""), argv
            assert err == "error: --alpha does not apply to the eigen family\n", argv

    def test_katz_and_pagerank_without_alpha_exit_2(self, capsys, k3, graphon2):
        for family in ("katz", "pagerank"):
            for argv in (
                ("centrality", k3),
                ("compare", k3, k3),
                ("graphon", "centrality", graphon2),
                ("graphon", "compare", graphon2, graphon2),
            ):
                code, out, err = run(capsys, *argv, "--family", family)
                assert (code, out) == (2, ""), argv
                assert err == f"error: --alpha is required for {family}\n", argv

    def test_a_bad_file_is_reported_first(self, capsys, k3, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("0 1 x\n")
        for argv in (
            ("centrality", str(bad), "--family", "katz"),
            ("compare", k3, str(bad), "--family", "eigen", "--alpha", "0.5"),
            ("graphon", "compare", str(bad), str(bad), "--family", "pagerank"),
        ):
            code, _, err = run(capsys, *argv)
            assert code == 4, argv
            assert "--alpha" not in err


class TestGraphonValuesAreCheckedByGraph:
    @pytest.mark.parametrize(
        "values, fault",
        [
            ("[[0.5, 0.2, 0.1], [0.2, 0.5, 0.1]]", "is not square"),
            ("[0.5, 0.2]", "is not square"),
            ("[]", "is empty"),
            ("[[]]", "is empty"),
            ("[[0.5, NaN], [NaN, 0.5]]", "has non-finite entries"),
            ("[[0.5, 0.2], [0.3, 0.5]]", "is not symmetric"),
        ],
        ids=["non-square", "vector", "empty", "empty-row", "nan", "asymmetric"],
    )
    def test_bad_values_exit_4_naming_the_fault(self, capsys, tmp_path, values, fault):
        path = tmp_path / "w.json"
        path.write_text('{"values": %s}' % values)
        code, out, err = run(capsys, "graphon", "centrality", str(path), "--family", "eigen")
        assert (code, out) == (4, "")
        assert err == f"error: bad 'values' value: the matrix {fault}\n"

    @pytest.mark.parametrize(
        "argv, text",
        [
            (("centrality", "{path}", "--family", "eigen"), '{"n": true, "weights": [[0]]}'),
            (("graphon", "centrality", "{path}", "--family", "eigen"),
             '{"k": true, "values": [[0.5]]}'),
        ],
        ids=["n", "k"],
    )
    def test_boolean_sizes_exit_4(self, capsys, tmp_path, argv, text):
        path = tmp_path / "in.json"
        path.write_text(text)
        code, _, err = run(capsys, *(a.replace("{path}", str(path)) for a in argv))
        assert code == 4
        assert "value: expected null or a number" in err

    @pytest.mark.parametrize(
        "argv, text, fault",
        [
            (("norms", "{path}", "--norm", "1"), '{"weights": [[0, " 1e3 "], [true, 0]]}',
             "'weights' value: entries must be JSON numbers, got \" 1e3 \""),
            (("graphon", "centrality", "{path}", "--family", "eigen"),
             '{"values": [[0.5, true], [true, 0.5]]}',
             "'values' value: entries must be JSON numbers, got true"),
        ],
        ids=["string-weight", "boolean-value"],
    )
    def test_entries_that_are_not_json_numbers_exit_4(self, capsys, tmp_path, argv, text, fault):
        # numpy reads " 1e3 " as 1000.0 and true as 1.0; both used to exit 0
        path = tmp_path / "in.json"
        path.write_text(text)
        code, out, err = run(capsys, *(a.replace("{path}", str(path)) for a in argv))
        assert (code, out, err) == (4, "", f"error: bad {fault}\n")


class TestExitCodes:
    """One call per error class, each with its documented exit code."""

    CASES = {
        "InputFormatError": (4, "0 1 x\n", ("centrality", "{path}", "--family", "katz",
                                            "--alpha", "0.5")),
        "OSError": (4, None, ("centrality", "{path}", "--family", "katz", "--alpha", "0.5")),
        "NonConvergenceError": (3, "0 1 1\n1 0 1\n", ("centrality", "{path}", "--family",
                                                      "katz", "--alpha", "0.9999999")),
        "NumericalError": (3, "0 1 1e308\n2 1 1e308\n1 0 1\n", ("norms", "{path}",
                                                                "--norm", "1")),
        "ParameterError": (2, K3_EDGES, ("centrality", "{path}", "--family", "katz")),
        "SizeLimitError": (2, "22\n", ("norms", "{path}", "--norm", "cut")),
        "SimplicityError": (2, "0 1\n1 0\n2 3\n3 2\n", ("centrality", "{path}",
                                                       "--family", "eigen")),
    }

    @pytest.mark.parametrize("error", sorted(CASES))
    def test_error_class_exit_code(self, capsys, tmp_path, error):
        code, text, argv = self.CASES[error]
        path = tmp_path / "input.txt"
        if text is not None:
            path.write_text(text)
        got, out, err = run(capsys, *(a.replace("{path}", str(path)) for a in argv))
        assert (got, out) == (code, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_every_error_class_has_a_case(self):
        from fpcentral import cli

        assert {cls.__name__ for cls in cli._EXIT_CODES} == set(self.CASES)


class TestManifest:
    """The manifest records every parsed option except the input paths and
    the output routing; --mode only for the cut norm, and --perm-mode only
    for the bounds that take a mode."""

    def manifest(self, capsys, tmp_path, *argv):
        out_path = tmp_path / "out.json"
        code, stdout, _ = run(capsys, *argv, "-o", str(out_path), "--csv")
        assert code in (0, 1) and stdout == ""
        return json.loads(out_path.read_text())["manifest"]

    def test_parameters_of_every_command(self, capsys, k3, graphon2, tmp_path):
        cases = [
            (("centrality", k3, "--family", "pagerank", "--alpha", "0.85",
              "--normalizer", "exp-neg"),
             "centrality", [k3],
             {"family": "pagerank", "alpha": 0.85, "normalizer": "exp-neg"}),
            (("centrality", k3, "--family", "eigen"), "centrality", [k3], {"family": "eigen"}),
            (("compare", k3, k3, "--family", "katz", "--alpha", "0.2", "--bound", "prop6",
              "--perm-mode", "greedy", "--jobs", "3"),
             "compare", [k3, k3],
             {"family": "katz", "alpha": 0.2, "bound": "prop6", "perm_mode": "greedy",
              "jobs": 3}),
            (("graphon", "centrality", graphon2, "--family", "katz", "--alpha", "0.5"),
             "graphon centrality", [graphon2], {"family": "katz", "alpha": 0.5}),
            (("graphon", "compare", graphon2, graphon2, "--family", "pagerank",
              "--alpha", "0.85", "--bound", "prop9"),
             "graphon compare", [graphon2, graphon2],
             {"family": "pagerank", "alpha": 0.85, "bound": "prop9", "perm_mode": "exact"}),
            (("norms", k3, "--norm", "2", "--mode", "heuristic"),
             "norms", [k3], {"norm": "2"}),
            (("norms", k3, "--norm", "cut", "--mode", "heuristic"),
             "norms", [k3], {"norm": "cut", "mode": "heuristic"}),
        ]
        for argv, command, paths, parameters in cases:
            manifest = self.manifest(capsys, tmp_path, *argv)
            assert manifest["command"] == command, argv
            assert [entry["path"] for entry in manifest["inputs"]] == paths, argv
            assert manifest["parameters"] == parameters, argv
            assert manifest["tool_version"] == fpcentral.__version__

    def test_perm_mode_only_where_the_bound_takes_a_mode(self, capsys, k3, graphon2,
                                                         tmp_path):
        # theorem1 and theorem2 search no relabeling, and prop7 always
        # searches exactly
        katz = ("--family", "katz", "--alpha", "0.2")
        for argv in (("compare", k3, k3, *katz),
                     ("compare", k3, k3, *katz, "--bound", "prop7"),
                     ("graphon", "compare", graphon2, graphon2, *katz)):
            parameters = self.manifest(capsys, tmp_path, *argv)["parameters"]
            assert "perm_mode" not in parameters, argv
            assert parameters["bound"] in ("theorem1", "prop7", "theorem2"), argv


class TestScaleFreeEigen:
    @pytest.mark.parametrize("weight", ["1e-300", "1e-9", "1e-8", "1", "1e300"])
    def test_path_is_accepted_at_every_weight_scale(self, capsys, tmp_path, weight):
        # at 1e-9 and below the path used to exit 2 as "not simple"
        path = tmp_path / "p3.txt"
        path.write_text(P3_EDGES.format(w=weight))
        code, payload, err = run_json(capsys, "centrality", str(path), "--family", "eigen")
        assert (code, err) == (0, "")
        assert np.allclose(payload["feature_x"], [0.5, np.sqrt(0.5), 0.5], atol=1e-14)

    def test_power_of_two_scalings_give_the_same_feature(self, capsys, tmp_path):
        rng = np.random.default_rng(42)
        sym = rng.random((6, 6))
        directed = rng.random((6, 6)) * (rng.random((6, 6)) < 0.7)
        # Graph's symmetry tolerance scales with the peak entry, so the
        # directed graph stays directed at every scale
        for w in (sym + sym.T, directed):
            features = []
            for k in (-900, -20, 0, 20, 900):
                path = tmp_path / f"g{k}.json"
                path.write_text(json.dumps({"weights": np.ldexp(w, k).tolist()}))
                code, payload, _ = run_json(capsys, "centrality", str(path), "--family", "eigen")
                assert code == 0
                features.append(payload["feature_x"])
            assert all(f == features[0] for f in features)

    def test_an_eigenvalue_beyond_float64_exits_3(self, capsys, tmp_path):
        # K_3 at weight 1e308 has leading eigenvalue 2e308
        path = tmp_path / "k3.txt"
        path.write_text("".join(f"{i} {j} 1e308\n" for i in range(3) for j in range(3) if i != j))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "centrality", str(path), "--family", "eigen")
        assert (code, out) == (3, "")
        assert err == "error: the leading eigenvalue of this matrix overflows float64\n"


class TestNormsStayFinite:
    REPRODUCER = "0 1 1e308\n2 1 1e308\n1 0 1\n"

    def run_quiet(self, capsys, tmp_path, text, *flags):
        path = tmp_path / "m.txt"
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return run(capsys, "norms", str(path), *flags)

    def test_overflowing_sums_exit_3(self, capsys, tmp_path):
        for flags in (("--norm", "1"), ("--norm", "cut", "--mode", "heuristic")):
            code, out, err = self.run_quiet(capsys, tmp_path, self.REPRODUCER, *flags)
            assert (code, out) == (3, ""), flags
            assert "overflow" in err

    @pytest.mark.parametrize(
        "text, expected",
        [(REPRODUCER, 2**0.5 * 1e308), ("0 1 1e200\n1 0 1e200\n", 1e200),
         ("0 1 1e-200\n1 0 1e-200\n", 1e-200)],
        ids=["1e308", "1e200", "1e-200"],
    )
    def test_two_norm_of_huge_and_tiny_entries(self, capsys, tmp_path, text, expected):
        code, out, err = self.run_quiet(capsys, tmp_path, text, "--norm", "2")
        assert (code, err) == (0, "")
        payload = json.loads(out, parse_constant=lambda name: pytest.fail(name))
        assert payload["value"] == pytest.approx(expected, rel=1e-15)


class TestPageRankDegreeOverflow:
    def test_an_out_degree_beyond_float64_exits_3(self, capsys, tmp_path):
        # the path 0-1-2-3 at weight 1e308: nodes 1 and 2 have out-degree
        # 2e308, which used to zero their kernel columns, with a warning, and
        # give a rho summing to 0.214
        ha = tmp_path / "ha.txt"
        ha.write_text(P3_EDGES.format(w="1e308") + "2 3 1e308\n3 2 1e308\n")
        hd = tmp_path / "hd.txt"
        hd.write_text(P3_EDGES.format(w="1e308") + "2 3 5e307\n3 2 5e307\n")
        flags = ("--family", "pagerank", "--alpha", "0.85")
        for argv in (("centrality", str(ha)), ("compare", str(ha), str(hd))):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code, out, err = run(capsys, *argv, *flags)
            assert (code, out) == (3, ""), argv
            assert err == "error: an out-degree overflows float64; rescale the weights\n"

    def test_out_degrees_just_below_float64_max_are_solved(self, capsys, tmp_path):
        # out-degree 1.6e308 is finite: the kernel is the one of weight 1,
        # so rho is too
        rhos = []
        for w in ("8e307", "1"):
            path = tmp_path / f"p4_{w}.txt"
            path.write_text(P3_EDGES.format(w=w) + f"2 3 {w}\n3 2 {w}\n")
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code, payload, err = run_json(
                    capsys, "centrality", str(path), "--family", "pagerank", "--alpha", "0.85"
                )
            assert (code, err) == (0, "")
            rhos.append(np.array(payload["rho"]))
        assert rhos[0].sum() == pytest.approx(1.0, abs=1e-9)
        assert np.allclose(rhos[0], rhos[1], rtol=1e-12, atol=0.0)

    def test_the_library_refuses_it_too(self):
        w = np.zeros((4, 4))
        for i in range(3):
            w[i, i + 1] = w[i + 1, i] = 1e308
        g = fpcentral.Graph(w)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(fpcentral.NumericalError, match="out-degree overflows"):
                fpcentral.solve(g, "pagerank", 0.85)
            with pytest.raises(fpcentral.NumericalError, match="out-degree overflows"):
                fpcentral.centrality._degrees(g)


class TestKatzIterationOverflow:
    def test_an_iterate_beyond_float64_exits_3(self, capsys, tmp_path):
        # the path 0-1-2-3 at weight 1e308 with alpha 2.5e-309, so
        # L0 = 0.40: A.T x overflows before alpha scales it, and the solve
        # used to iterate on NaN for 100000 steps, with two warnings
        ha = tmp_path / "ha.txt"
        ha.write_text(P3_EDGES.format(w="1e308") + "2 3 1e308\n3 2 1e308\n")
        hd = tmp_path / "hd.txt"
        hd.write_text(P3_EDGES.format(w="1e308") + "2 3 5e307\n3 2 5e307\n")
        flags = ("--family", "katz", "--alpha", "2.5e-309")
        for argv in (("centrality", str(ha)),
                     ("compare", str(ha), str(hd), "--bound", "prop6", "--perm-mode", "greedy")):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code, out, err = run(capsys, *argv, *flags)
            assert (code, out) == (3, ""), argv
            assert err == "error: the fixed-point iteration overflows float64; rescale the weights\n"


class TestNearCriticalGraphon:
    def test_the_found_pair_exits_3_without_a_false_alarm(self, capsys, tmp_path):
        # B's lift has Katz L0 = 1 - 1e-8, so its density, iterated as a
        # graph's is, exhausts the step budget: the theorem2 bound, which
        # rests on a 2-norm that reads low there, is never reported
        import time

        from test_norms import FOUND_PAIR

        paths = []
        for name, values in zip("ab", FOUND_PAIR):
            paths.append(tmp_path / f"{name}.json")
            paths[-1].write_text(json.dumps({"values": values.tolist()}))
        start = time.perf_counter()
        code, out, err = run(capsys, "graphon", "compare", *map(str, paths),
                             "--family", "katz", "--alpha", "1", "--bound", "theorem2")
        elapsed = time.perf_counter() - start
        assert (code, out) == (3, "") and err.startswith("error: no fixed point within ")
        assert elapsed <= 2.0


class TestThreadCount:
    @staticmethod
    def _outputs(tmp_path, calls, threads):
        """The stdout of each of ``calls`` run by ``main`` in one child process
        at ``OPENBLAS_NUM_THREADS=threads``, without the timestamp."""
        code = (
            "import contextlib, io, json\n"
            "from fpcentral.cli import main\n"
            "outs = []\n"
            f"for argv in {calls!r}:\n"
            "    out = io.StringIO()\n"
            "    with contextlib.redirect_stdout(out):\n"
            "        assert main(argv) == 0, argv\n"
            "    outs.append(out.getvalue())\n"
            "print(json.dumps(outs))\n"
        )
        src = str(Path(fpcentral.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads}
        proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp_path,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        return [re.sub(r'"timestamp": "[^"]*"', "", out) for out in json.loads(proc.stdout)]

    def test_listed_graphon_outputs_do_not_depend_on_the_blas_threads(self, tmp_path):
        # every density and certificate of a listed lift runs on products
        # over its list, which call no threaded BLAS routine
        from fpcentral.graphs import _Entries
        from fpcentral.io import read_graphon

        a = TestWorkCounts._sparse(300)
        b = a.copy()
        b[0, 1] = b[1, 0] = 0.0
        for name, w in (("wa", a), ("wb", b)):
            (tmp_path / f"{name}.json").write_text(json.dumps({"values": (w / a.max()).tolist()}))
        assert isinstance(read_graphon(str(tmp_path / "wa.json"))._graph._held, _Entries)
        alpha = float(0.5 * 300 * a.max() / np.linalg.norm(a, 2))  # L0 = 0.5 on the lift
        katz = ("--family", "katz", "--alpha", repr(alpha))
        pagerank = ("--family", "pagerank", "--alpha", "0.85")
        calls = [
            *(["graphon", "centrality", "wa.json", *family] for family in (katz, pagerank)),
            *(["graphon", "compare", "wa.json", "wb.json", "--bound", "theorem2", *family]
              for family in (katz, pagerank)),
        ]
        runs = [self._outputs(tmp_path, calls, threads) for threads in ("1", "2")]
        differ = [argv for argv, one, two in zip(calls, *runs) if one != two]
        assert not differ

    def test_dense_centralities_do_not_depend_on_the_blas_threads(self, tmp_path):
        # a 30%-dense 1500-node graph is held as its array, so its products
        # and its spectrum are BLAS and LAPACK calls; run at 2 threads, each
        # of these outputs differed from 1 thread before cli.main ran its
        # handler on one
        n = 1500
        rng = np.random.default_rng(n)
        upper = np.triu(rng.random((n, n)) < 0.3, 1)
        rows, cols = np.nonzero(upper | upper.T)
        (tmp_path / "g.txt").write_text(f"{n - 1}\n" + "".join(
            f"{i} {j}\n" for i, j in zip(rows.tolist(), cols.tolist())))
        calls = [["centrality", "g.txt", "--family", *family] for family in (
            ("katz", "--alpha", "0.002"), ("pagerank", "--alpha", "0.85"), ("eigen",))]
        runs = [self._outputs(tmp_path, calls, threads) for threads in ("1", "2")]
        differ = [argv for argv, one, two in zip(calls, *runs) if one != two]
        assert not differ

    @pytest.mark.parametrize("known", [True, False], ids=["known-symbol", "no-known-symbol"])
    def test_main_runs_its_handler_on_one_blas_thread_and_gives_the_count_back(
            self, monkeypatch, known):
        # library use keeps the caller's count: main sets one thread only
        # while its handler runs, and none where it finds no known symbol
        import ctypes

        from fpcentral import cli

        lib = ctypes.CDLL(sys.modules["numpy._core._multiarray_umath"].__file__)
        get, set_ = next((getattr(lib, g), getattr(lib, s)) for g, s in cli._BLAS_THREADS
                         if hasattr(lib, g))
        if not known:
            monkeypatch.setattr(cli, "_BLAS_THREADS", (("no_get_threads", "no_set_threads"),))
        seen = []
        monkeypatch.setattr(cli, "cmd_norms", lambda args: seen.append(get()) or 0)
        before = get()
        set_(2)
        try:
            assert main(["norms", "k3.txt", "--norm", "1"]) == 0
            assert seen == [1 if known else 2] and get() == 2
        finally:
            set_(before)


class TestProcessExit:
    """``python -m fpcentral.cli`` ends through ``run()``, which skips the
    interpreter's teardown: its exit code and streams are those of ``main``
    run in this process, and no ``atexit`` hook runs after it."""

    SRC = str(Path(fpcentral.__file__).resolve().parents[1])
    # every certificate fails when its tolerance is -inf
    FAILS = "import math\nfrom fpcentral import perturbation\nperturbation.HOLDS_TOL = -math.inf\n"
    HOOK = "import atexit, sys\natexit.register(lambda: sys.stderr.write('teardown ran\\n'))\n"
    PAGERANK = ("centrality", "k3.txt", "--family", "pagerank", "--alpha", "0.85")
    CASES = {  # the exit code and the call
        "exit-0": (0, PAGERANK),
        "certificate-fails": (1, ("compare", "k3.txt", "k3.txt", "--family", "katz",
                                  "--alpha", "0.3")),
        "exit-2": (2, ("centrality", "k3.txt", "--family", "katz")),
        "exit-3": (3, ("centrality", "p2.txt", "--family", "katz", "--alpha", "0.9999999")),
        "exit-4": (4, ("centrality", "missing.txt", "--family", "katz", "--alpha", "0.5")),
        "version": (0, ("--version",)),
        "help": (0, ("compare", "--help")),
        "usage-error": (2, ("frobnicate",)),
        "csv-to-stdout": (0, (*PAGERANK, "--csv")),
    }

    @pytest.fixture
    def work(self, tmp_path):
        (tmp_path / "k3.txt").write_text(K3_EDGES)
        (tmp_path / "p2.txt").write_text("0 1 1\n1 0 1\n")
        return tmp_path

    def child(self, cwd, argv, prelude="", env=None, **streams):
        """``python -m fpcentral.cli argv`` in ``cwd``, its stdout
        block-buffered unless ``env`` says otherwise; with a prelude, the
        prelude runs first and then the module, as ``-m`` runs it."""
        env = {**os.environ, "PYTHONPATH": self.SRC, "COLUMNS": "80", "PYTHONUNBUFFERED": "",
               **(env or {})}
        entry = ["-m", "fpcentral.cli"] if not prelude else ["-c", prelude + (
            "import runpy\nrunpy.run_module('fpcentral.cli', run_name='__main__', alter_sys=True)\n")]
        streams = streams or {"capture_output": True, "text": True}
        return subprocess.run([sys.executable, *entry, *argv], cwd=cwd, env=env, timeout=120,
                              **streams)

    @staticmethod
    def untimed(text):
        return re.sub(r'"timestamp": "[^"]*"', '"timestamp": ""', text)

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_a_process_ends_as_main_returns(self, capsys, monkeypatch, work, case):
        expected, argv = self.CASES[case]
        prelude = self.FAILS if case == "certificate-fails" else ""
        proc = self.child(work, argv, prelude)
        monkeypatch.chdir(work)
        monkeypatch.setenv("COLUMNS", "80")
        if prelude:
            from fpcentral import perturbation

            monkeypatch.setattr(perturbation, "HOLDS_TOL", -math.inf)
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        assert code == expected
        assert (proc.returncode, self.untimed(proc.stdout), proc.stderr) == (
            code, self.untimed(out), err)

    @pytest.mark.parametrize("argv", [PAGERANK, ("--version",), ("frobnicate",)],
                             ids=["computed", "version", "usage-error"])
    def test_no_atexit_hook_runs(self, work, argv):
        proc = self.child(work, argv, self.HOOK)
        assert proc.returncode == (2 if argv == ("frobnicate",) else 0)
        assert "teardown ran" not in proc.stderr

    def test_another_exception_ends_the_process_as_usual(self, work):
        # a traceback, exit 1 and the interpreter's teardown
        boom = ("import fpcentral.centrality\n"
                "def solve(*args): raise RuntimeError('boom')\n"
                "fpcentral.centrality.solve = solve\n")
        proc = self.child(work, self.PAGERANK, self.HOOK + boom)
        assert proc.returncode == 1
        assert "Traceback" in proc.stderr and "RuntimeError: boom" in proc.stderr
        assert proc.stderr.endswith("teardown ran\n")

    def test_the_console_script_enters_through_run(self):
        import tomllib

        pyproject = tomllib.loads((Path(self.SRC).parent / "pyproject.toml").read_text())
        assert pyproject["project"]["scripts"] == {"fpc": "fpcentral.cli:run"}

    BUFFERED = {"PYTHONIOENCODING": "utf-8", "PYTHONUNBUFFERED": ""}
    UNBUFFERED = {"PYTHONIOENCODING": "utf-8", "PYTHONUNBUFFERED": "1"}
    BROKEN_PIPE = "error: [Errno 32] Broken pipe\n"

    @pytest.mark.parametrize("env", [BUFFERED, UNBUFFERED], ids=["buffered", "unbuffered"])
    def test_a_reader_that_closes_early_gives_exit_4(self, tmp_path, env):
        # the JSON of 2000 nodes is larger than a pipe's buffer, so a write
        # in main fails once the reader is gone.  That write may leave bytes
        # in a block-buffered stdout, for the final flush to fail on too;
        # either way one error line and exit 4
        n = 2000
        (tmp_path / "ring.txt").write_text("".join(
            f"{i} {(i + 1) % n} 1\n{(i + 1) % n} {i} 1\n{i} {(7 * i + 3) % n} 1\n"
            for i in range(n)))
        proc = subprocess.Popen(
            [sys.executable, "-m", "fpcentral.cli", "centrality", "ring.txt", "--family",
             "pagerank", "--alpha", "0.85"], cwd=tmp_path, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True,
            env={**os.environ, "PYTHONPATH": self.SRC, **env})
        proc.stdout.read(10)
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
        assert (proc.returncode, err) == (4, self.BROKEN_PIPE)

    @pytest.mark.parametrize("env", [BUFFERED, UNBUFFERED], ids=["buffered", "unbuffered"])
    def test_a_pipe_closed_before_the_final_flush(self, work, env):
        # block-buffered, a small payload reaches the pipe only at the final
        # flush, which fails in run(); unbuffered, main's write fails
        read, write = os.pipe()
        os.close(read)
        try:
            proc = self.child(work, self.PAGERANK, env=env, stdout=write,
                              stderr=subprocess.PIPE, text=True)
        finally:
            os.close(write)
        assert (proc.returncode, proc.stderr) == (4, self.BROKEN_PIPE)
