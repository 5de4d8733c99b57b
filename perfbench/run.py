"""Benchmark of the ``fpc`` command line, end to end and layer by layer.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout of the repository.  The benchmark writes the
inputs of workload W for seed N (perfbench/inputs.py), then:

* ``--trace 0`` times ``fpc --version`` a few times (set-up), and runs the
  workload's command list as a user does, one ``python -m fpcentral.cli``
  process after another, in whole passes until S seconds have gone.  It
  reports the end-to-end metrics named in BENCHMARK.json, as medians over
  the passes.  Wall times are scaled to a fixed machine speed
  (``CpuClock``); the unscaled pass time goes to standard error.
* ``--trace 1`` replays the same passes in this one process through
  ``fpcentral.cli.main`` with spans around the layers' public functions
  (perfbench/tracing.py), and reports the per-layer metrics.

Both modes check every result against numpy references
(perfbench/checks.py) and print, as the last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

This process imports nothing beyond the standard library before it starts
the ``fpc`` processes: a child's maximum resident set size includes the
memory of the process that started it.
"""

import argparse
import contextlib
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("dense-large", "exact-small", "sweep-tiny")
CLASSES = ("centrality", "compare", "graphon", "norms")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = "1"
SETUP_REPEATS = 5
IMPORT_REPEATS = 3
IMPORT_PROBE = ("import time; t = time.perf_counter(); import fpcentral.cli; "
                "print(time.perf_counter() - t)")
SPEED_LOOP = 100_000       # iterations of the interpreter probe
SPEED_REFERENCE_S = 0.007   # its time at the speed the scaled figures refer to
MEMORY_BYTES = 16 << 20     # bytes the memory probe copies
MEMORY_REFERENCE_S = 0.0015  # its time at the speed the scaled figures refer to
WINDOW_S = 8.0              # probes this close to a call set its speed


def speed_probe():
    """Seconds for a fixed pure-Python loop, the fastest of three tries."""
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(SPEED_LOOP):
            total += i * i % 7
        best = min(best, time.perf_counter() - start)
    return best


def memory_probe(source):
    """Seconds to copy ``source`` into a newly allocated bytes object, the
    fastest of three tries."""
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        copy = bytes(source)
        best = min(best, time.perf_counter() - start)
        del copy
    return best


class CpuClock:
    """Scales wall times to the machine speed at which ``speed_probe`` takes
    SPEED_REFERENCE_S and ``memory_probe`` takes MEMORY_REFERENCE_S.

    On a shared machine the speed a process gets drifts over tens of
    seconds by more than the changes the benchmark has to show.  A slow
    period slows interpreted Python (start-up, imports, Python loops) about
    twice as much as memory-bound numpy work (large allocations and copies),
    and an ``fpc`` call mixes both (measurements in perfbench/README.md).
    Both probes run before the first call and after every call.  A call's
    wall time is multiplied by the geometric mean of the two speed ratios,
    each taken over the median of that probe within WINDOW_S of the call;
    one probe pair jitters by about 10% from one call to the next.  The
    probes run in this process between calls, so no change to the program
    moves them.
    """

    def __init__(self):
        self.source = bytearray(MEMORY_BYTES)
        self.samples = []  # (time, speed_probe, memory_probe)
        self.sample()

    def sample(self):
        self.samples.append((time.perf_counter(), speed_probe(), memory_probe(self.source)))

    def scale(self, start, wall):
        """``wall`` of the call started at ``start``, at the reference speed;
        call it once the probes after the call have run."""
        near = [s for s in self.samples
                if start - WINDOW_S <= s[0] <= start + wall + WINDOW_S]
        cpu = statistics.median(s[1] for s in near)
        mem = statistics.median(s[2] for s in near)
        return wall * math.sqrt(SPEED_REFERENCE_S / cpu * MEMORY_REFERENCE_S / mem)


def run_python(args, env, cwd, stderr_path=os.devnull):
    """Run ``python args`` to its end; returns (exit code, start time, wall
    seconds, maximum resident set size in MiB) of that process alone."""
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], cwd=cwd, env=env,
                                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, start, wall, usage.ru_maxrss / 1024.0


def python_output(args, env, cwd):
    """Run ``python args``, which must succeed, and return its last stdout line."""
    out = subprocess.run([sys.executable, *args], env=env, cwd=cwd, check=True,
                         stdout=subprocess.PIPE, text=True).stdout.strip()
    return out.splitlines()[-1] if out else ""


def expand(argv, pass_dir):
    return [a.replace("{pass}", pass_dir) for a in argv]


def cli_pass(commands, work, env, pass_dir, clock):
    """One pass, each call in its own ``fpc`` process."""
    os.makedirs(os.path.join(work, pass_dir))
    status, calls, rss = [], [], 0.0
    for index, command in enumerate(commands):
        err_path = os.path.join(work, pass_dir, f"c{index:02d}.err")
        rc, start, wall, peak = run_python(
            ["-m", "fpcentral.cli", *expand(command["argv"], pass_dir)], env, work, err_path)
        clock.sample()
        calls.append((command["cls"], start, wall))
        rss = max(rss, peak)
        with open(err_path, errors="replace") as f:
            status.append({"rc": rc, "stderr": f.read()})
    walls, unscaled = dict.fromkeys(CLASSES, 0.0), 0.0
    for cls, start, wall in calls:
        walls[cls] += clock.scale(start, wall)
        unscaled += wall
    metrics = {"wall_s": sum(walls.values()), "peak_rss_mib": rss, "unscaled_wall_s": unscaled}
    metrics.update({f"{c}_s": walls[c] for c in CLASSES})
    return status, metrics


def replay_pass(commands, work, pass_dir, main):
    """One pass in this process through ``fpcentral.cli.main``."""
    os.makedirs(os.path.join(work, pass_dir))
    status = []
    start = time.perf_counter()
    for command in commands:
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                rc = main(expand(command["argv"], pass_dir))
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 2
            except Exception:
                traceback.print_exc(file=err)
                rc = 1
        status.append({"rc": rc, "stderr": err.getvalue()})
    return status, time.perf_counter() - start


def timed_passes(seconds, run_pass):
    """Whole passes until ``seconds`` have gone, at least one."""
    results, start = [], time.perf_counter()
    while not results or time.perf_counter() - start < seconds:
        results.append(run_pass(f"p{len(results)}"))
    return results


def measure_end_to_end(commands, work, env, seconds):
    run_python(["-m", "fpcentral.cli", "--version"], env, work)  # bytecode compiled once
    clock = CpuClock()
    setup = []
    for _ in range(SETUP_REPEATS):
        setup.append(run_python(["-m", "fpcentral.cli", "--version"], env, work)[1:3])
        clock.sample()
    setup = [clock.scale(start, wall) for start, wall in setup]
    passes = timed_passes(seconds, lambda p: cli_pass(commands, work, env, p, clock))
    status = {f"p{i}": s for i, (s, _) in enumerate(passes)}
    metrics = {name: statistics.median(m[name] for _, m in passes) for name in passes[0][1]}
    metrics["setup_s"] = statistics.median(setup)
    print(f"unscaled wall time of a pass: {metrics['unscaled_wall_s']:.3f} s", file=sys.stderr)
    return status, metrics


def measure_layers(commands, work, env, seconds, root):
    imports = [float(python_output(["-c", IMPORT_PROBE], env, work))
               for _ in range(IMPORT_REPEATS)]
    sys.path.insert(0, os.path.join(root, "src"))
    import fpcentral.cli
    from tracing import Tracer, layer_totals, span_cost

    tracer = Tracer()
    tracer.install()
    cost = span_cost()
    previous = os.getcwd()
    os.chdir(work)
    rows = []

    def traced_pass(pass_dir):
        tracer.spans = []
        status, wall = replay_pass(commands, work, pass_dir, fpcentral.cli.main)
        totals = layer_totals(tracer.spans)
        row = {f"{name}.{field}": value for name, fields in totals.items()
               for field, value in fields.items()}
        row.update({"trace.spans": len(tracer.spans), "trace.replay_wall_s": wall,
                    "trace.overhead_s": len(tracer.spans) * cost})
        rows.append(row)
        return status

    try:
        passes = timed_passes(seconds, traced_pass)
    finally:
        os.chdir(previous)
        tracer.uninstall()
    status = {f"p{i}": s for i, s in enumerate(passes)}

    def layer_metric(name):
        if name == "cli.import_s":
            return statistics.median(imports)
        return statistics.median(row.get(name, 0) for row in rows)

    return status, layer_metric


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    spec_path = os.path.join(root, "BENCHMARK.json")
    if not (os.path.isfile(os.path.join(root, "src", "fpcentral", "cli.py"))
            and os.path.isfile(spec_path)):
        sys.exit("perfbench: run from the repository root (src/fpcentral and "
                 "BENCHMARK.json not found)")
    with open(spec_path) as f:
        spec = json.load(f)
    # one BLAS thread here (the traced run imports numpy) and in every child
    os.environ.update(dict.fromkeys(BLAS_VARS, BLAS_THREADS))
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    work = os.path.join(root, ".perfbench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        python_output([os.path.join(HERE, "inputs.py"), "--workload", args.workload,
                       "--seed", str(args.seed), "--dir", work], env, root)
        with open(os.path.join(work, "plan.json")) as f:
            commands = json.load(f)["commands"]
        if args.trace:
            status, metric = measure_layers(commands, work, env, args.seconds, root)
            wanted = spec["per_layer"]
        else:
            status, values = measure_end_to_end(commands, work, env, args.seconds)
            metric = values.__getitem__
            wanted = spec["end_to_end"]
        with open(os.path.join(work, "status.json"), "w") as f:
            json.dump(status, f)
        verdict = json.loads(python_output([os.path.join(HERE, "checks.py"), "--dir", work],
                                           env, root))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(work))
    for error in verdict["errors"][:20]:
        print(f"check failed: {error}", file=sys.stderr)
    attempted = len(commands) * len(status)
    result = {
        "correct": not verdict["errors"],
        "attempted": attempted,
        "failed": verdict["failed"],
        "metrics": {m["name"]: {"value": metric(m["name"]), "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
