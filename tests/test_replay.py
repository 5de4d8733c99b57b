"""``tools/replay.py``: the benchmark's plans replayed under two trees, with
every moved JSON field counted."""

import importlib.util
import io
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "replay.py"


def _tool():
    spec = importlib.util.spec_from_file_location("replay", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_fields_that_move_are_counted_with_their_largest_relative_move():
    replay = _tool()
    stats = {}
    old = {"rho": [1.0, 2.0, 0.0, 4.0, 1], "holds": True, "notes": ["a"], "only_old": 1}
    new = {"rho": [1.0, 2.5, -0.0, 3.0, 1.0], "holds": True, "notes": ["b", "c"]}
    replay.compare_values(old, new, "", stats)
    # 2.0 -> 2.5 rose and 4.0 -> 3.0 fell; 0.0 -> -0.0 and 1 -> 1.0 are
    # spelled anew but equal, so they moved in no direction
    assert stats["rho[]"] == [5, 4, 0.25, 1, 1]
    assert stats["holds"] == [1, 0, 0.0, 0, 0]
    assert stats["notes[]"] == [2, 2, math.inf, 0, 0]
    assert stats["only_old"] == [1, 1, math.inf, 0, 0]
    out = io.StringIO()
    assert replay.report([("sweep-tiny", 41, 1, 0, 0, 1)], {"compare": stats}, out) == 4
    lines = out.getvalue().splitlines()
    assert lines[3].split() == ["field", "values", "moved", "rose", "fell", "largest",
                                "relative", "move"]
    assert "compare rho[] 5 4 1 1 0.25" in [" ".join(line.split()) for line in lines]
    assert lines[-1] == "1 calls, 1 differences in exit codes, streams or files; 3 of 4 fields moved"


def test_moves_of_numbers_have_a_sign_and_other_moves_none():
    replay = _tool()
    assert replay._move(1.0, 2.0) == (0.5, 1)
    assert replay._move(2.0, 1.0) == (0.5, -1)
    assert replay._move(0.0, -0.0) == (0.0, 0)
    assert replay._move("a", "b") == (math.inf, 0)
    assert replay._move(True, False) == (math.inf, 0)


def test_this_tree_replayed_against_itself_moves_nothing():
    proc = subprocess.run(
        [sys.executable, str(TOOL), "--base", str(ROOT), "--workload", "sweep-tiny",
         "--seed", "41"],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    last = proc.stdout.splitlines()[-1]
    assert last.startswith("38 calls, 0 differences in exit codes, streams or files; 0 of ")
    assert last.endswith(" fields moved")
