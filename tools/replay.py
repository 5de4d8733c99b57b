"""Replay the benchmark's plans under two trees and report what moved.

    python3 tools/replay.py --base DIR [--workload W ...] [--seed S ...]

Run from anywhere; the tree replayed is the checkout this file lies in, and
DIR is the root of another checkout (for example the parent commit, from
``git archive``).  For each workload and seed (all three workloads and seeds
41 and 3401 by default) it writes the plan's inputs once, with this tree's
``perfbench/inputs.py``, then runs every call of the plan as a
``python -m fpcentral.cli`` process, once with ``DIR/src`` and once with this
tree's ``src``, each tree in its own pass directory with one BLAS thread.

It compares each call's exit code, standard output and standard error, and
its output file, after masking the manifest's timestamp and the name of the
pass directory.  It prints, per command and JSON field, how many values it
compared, how many moved and the largest relative move.  Numbers move when
their JSON spellings differ, and their relative move is |a - b| / max(|a|,
|b|); any other value moves when its spelling differs, by an infinite
relative move, as does a key or list item that only one side has.  The exit
status is 0 when no call and no field differ, 1 otherwise.

The orchestrator imports only the standard library, as ``perfbench/run.py``
does; the inputs are written by a child process.
"""

import argparse
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("dense-large", "exact-small", "sweep-tiny")
SEEDS = (41, 3401)
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
PASSES = ("pass-base", "pass-tree")
_TIMESTAMP = re.compile(r'"timestamp": "[^"]*"')


def _masked(text, pass_dir):
    return _TIMESTAMP.sub('"timestamp": "*"', text.replace(pass_dir, "{pass}"))


def run_plan(commands, work, src, pass_dir):
    """Every call of a plan under the package in ``src``, one process each,
    in plan order (a lift is written before the calls that read it): a list
    of (exit code, stdout, stderr, output file or None), masked."""
    env = dict(os.environ, PYTHONPATH=src, **dict.fromkeys(BLAS_VARS, "1"))
    os.makedirs(os.path.join(work, pass_dir))
    results = []
    for command in commands:
        argv = [a.replace("{pass}", pass_dir) for a in command["argv"]]
        proc = subprocess.run(
            [sys.executable, "-m", "fpcentral.cli", *argv], cwd=work, env=env,
            stdin=subprocess.DEVNULL, capture_output=True, text=True,
        )
        path = os.path.join(work, command["out"].replace("{pass}", pass_dir))
        out = None
        if os.path.exists(path):
            with open(path) as f:
                out = _masked(f.read(), pass_dir)
        results.append((proc.returncode, _masked(proc.stdout, pass_dir),
                        _masked(proc.stderr, pass_dir), out))
    return results


def _move(a, b):
    """The relative move from ``a`` to ``b``, two parsed JSON values."""
    numbers = all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in (a, b))
    if numbers and math.isfinite(a) and math.isfinite(b):
        top = max(abs(a), abs(b))
        return abs(a - b) / top if top else 0.0
    return math.inf


def compare_values(a, b, field, stats):
    """Fold the leaves of two parsed JSON values into ``stats``: field name
    -> [values compared, values moved, largest relative move]."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            name = f"{field}.{key}" if field else key
            if key in a and key in b:
                compare_values(a[key], b[key], name, stats)
            else:
                _count(stats, name, math.inf)
    elif isinstance(a, list) and isinstance(b, list):
        for x, y in zip(a, b):
            compare_values(x, y, field + "[]", stats)
        for _ in range(abs(len(a) - len(b))):
            _count(stats, field + "[]", math.inf)
    else:
        moved = json.dumps(a) != json.dumps(b)
        _count(stats, field, _move(a, b) if moved else None)


def _count(stats, name, move):
    row = stats.setdefault(name, [0, 0, 0.0])
    row[0] += 1
    if move is not None:
        row[1] += 1
        row[2] = max(row[2], move)


def replay(base, workloads, seeds, work):
    """Run the plans under both trees; returns (per-plan rows, field stats)."""
    plans, stats = [], {}
    for workload in workloads:
        for seed in seeds:
            root = os.path.join(work, f"{workload}-{seed}")
            subprocess.run([sys.executable, os.path.join(ROOT, "perfbench", "inputs.py"),
                            "--workload", workload, "--seed", str(seed), "--dir", root],
                           check=True)
            with open(os.path.join(root, "plan.json")) as f:
                commands = json.load(f)["commands"]
            trees = (os.path.join(base, "src"), os.path.join(ROOT, "src"))
            with ThreadPoolExecutor(2) as pool:
                old, new = pool.map(run_plan, [commands] * 2, [root] * 2, trees, PASSES)
            differ = [0, 0, 0]
            for command, x, y in zip(commands, old, new):
                differ[0] += x[0] != y[0]
                differ[1] += x[1:3] != y[1:3]
                differ[2] += x[3] != y[3]
                name = " ".join(a for a in command["argv"][:2] if not a.startswith(("{", "in/")))
                if x[3] is not None and y[3] is not None:
                    fields = stats.setdefault(name, {})
                    try:
                        compare_values(json.loads(x[3]), json.loads(y[3]), "", fields)
                    except ValueError:
                        _count(fields, "(not JSON)", None if x[3] == y[3] else math.inf)
            plans.append((workload, seed, len(commands), *differ))
    return plans, stats


def report(plans, stats, out=sys.stdout):
    """Print the summary; returns the number of differing calls and moved fields."""
    print(f"{'workload':<12} {'seed':>5} {'calls':>6} {'exit':>5} {'streams':>8} {'files':>6}",
          file=out)
    for workload, seed, calls, codes, streams, files in plans:
        print(f"{workload:<12} {seed:>5} {calls:>6} {codes:>5} {streams:>8} {files:>6}", file=out)
    rows = [(f"{command} {field}", *row) for command, fields in sorted(stats.items())
            for field, row in sorted(fields.items())]
    width = max((len(r[0]) for r in rows), default=5)
    print(f"\n{'field':<{width}} {'values':>8} {'moved':>6}  largest relative move", file=out)
    for name, values, moved, largest in rows:
        print(f"{name:<{width}} {values:>8} {moved:>6}  {largest:.3g}", file=out)
    calls = sum(p[2] for p in plans)
    differing = sum(sum(p[3:]) for p in plans)
    moved = sum(1 for r in rows if r[2])
    print(f"\n{calls} calls, {differing} differences in exit codes, streams or files; "
          f"{moved} of {len(rows)} fields moved", file=out)
    return differing + moved


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="root of the checkout to compare against")
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--seed", action="append", type=int)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(args.base, "src", "fpcentral", "cli.py")):
        parser.error(f"{args.base} holds no src/fpcentral")
    work = tempfile.mkdtemp(prefix="fpc-replay-")
    try:
        plans, stats = replay(os.path.abspath(args.base), args.workload or WORKLOADS,
                              args.seed or SEEDS, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 1 if report(plans, stats) else 0


if __name__ == "__main__":
    sys.exit(main())
