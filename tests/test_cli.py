import json
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import fpcentral
from fpcentral.cli import _emit, build_parser, main

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
        # inverse-iteration solves; a second one only when the shift is singular
        assert payload["iterations"] in (1, 2)

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

    def test_eigen_gap_with_weights_near_the_float_limit_is_quiet(self, capsys, tmp_path):
        # the spectral gap of these weights overflows to inf, which reads as
        # simple and must not warn
        path = tmp_path / "limit.txt"
        path.write_text("0 1 1e308\n1 2 1e308\n2 0 1e308\n1 0 1e308\n0 2 1e308\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "centrality", str(path), "--family", "eigen")
        assert (code, err) == (0, "")
        payload = json.loads(out, parse_constant=lambda name: pytest.fail(name))
        assert payload["iterations"] >= 1

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

    def test_heuristic_mode_with_seed(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        rng = np.random.default_rng(60)
        path.write_text(json.dumps({"weights": rng.uniform(-1, 1, (6, 6)).tolist()}))
        code, payload, _ = run_json(
            capsys, "norms", str(path), "--norm", "cut",
            "--mode", "heuristic", "--seed", "3",
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


P3_EDGES = "0 1 {w}\n1 0 {w}\n1 2 {w}\n2 1 {w}\n"
GRAPHON_2 = '{"values": [[0.5, 0.2], [0.2, 0.5]]}'


@pytest.fixture
def graphon2(tmp_path):
    path = tmp_path / "w2.json"
    path.write_text(GRAPHON_2)
    return str(path)


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
    the output routing; --mode and --seed only for the cut norm."""

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
            (("norms", k3, "--norm", "2", "--mode", "heuristic", "--seed", "5"),
             "norms", [k3], {"norm": "2"}),
            (("norms", k3, "--norm", "cut", "--mode", "heuristic", "--seed", "5"),
             "norms", [k3], {"norm": "cut", "mode": "heuristic", "seed": 5}),
        ]
        for argv, command, paths, parameters in cases:
            manifest = self.manifest(capsys, tmp_path, *argv)
            assert manifest["command"] == command, argv
            assert [entry["path"] for entry in manifest["inputs"]] == paths, argv
            assert manifest["parameters"] == parameters, argv
            assert manifest["tool_version"] == fpcentral.__version__


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
        # Graph's 1e-12 symmetry test is absolute: the directed graph reads
        # as symmetric below about 2^-40, so it is not scaled that far down
        for w, scalings in ((sym + sym.T, (-900, -20, 0, 20, 900)),
                            (directed, (-20, 0, 20, 900))):
            features = []
            for k in scalings:
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
