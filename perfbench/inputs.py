"""Input generation and command plans for the three benchmark workloads.

Run as ``python perfbench/inputs.py --workload W --seed S --dir D``: writes
the generated input files under ``D/in`` and the command plan to
``D/plan.json``.  The same workload and seed always give the same files.

A plan entry is one ``fpc`` call: its class (centrality, compare, graphon or
norms), its argument list, where it writes its JSON result, and what the
checker must verify about that result.  ``{pass}`` in an argument stands for
the directory of the current pass, so one pass can feed the files it wrote
(graphon lifts) to later calls of the same pass.
"""

import argparse
import json
import os

import numpy as np

PAGERANK_ALPHA = 0.85
SMALL_KATZ_ALPHA = 0.1    # below 1/||A||_2 for every 0/1 graph with n <= 8
STEP_KATZ_ALPHA = 0.5     # graphon operator norm of a [0, 1] step graphon is <= 1

# A fixed 8-node pair (not drawn from the seed) on which the exact 2-norm
# permutation sweep of ``fpc compare --bound prop6 --family katz`` stops with
# "batched singular-value iteration did not converge" in its first chunk.
SIGMA_FAULT_PAIR = (
    ["00001100", "00110100", "01001110", "01001011",
     "10110100", "11101000", "00110000", "00010000"],
    ["00001100", "00110100", "01001111", "01001011",
     "10110110", "11101000", "00111000", "00110000"],
)
SIGMA_FAULT_MESSAGE = "batched singular-value iteration did not converge"


def write_edges(path, a):
    """Edge-list file of matrix ``a``: ``i j`` for unit weights, ``i j w``
    otherwise, and a bare ``n-1`` line so isolated last nodes still count."""
    rows, cols = np.nonzero(a)
    weights = a[rows, cols]
    lines = [f"{a.shape[0] - 1}\n"]
    for i, j, w in zip(rows.tolist(), cols.tolist(), weights.tolist()):
        lines.append(f"{i} {j}\n" if w == 1.0 else f"{i} {j} {w!r}\n")
    with open(path, "w") as f:
        f.writelines(lines)


def ring(n, rng, directed):
    """A cycle through all nodes in random order: keeps every node connected
    (strongly, when directed), so no node is isolated or dangling."""
    order = rng.permutation(n)
    a = np.zeros((n, n))
    a[order, np.roll(order, -1)] = 1.0
    return a if directed else np.maximum(a, a.T)


def drop_edges(a, share, rng, keep):
    """Copy of ``a`` without ``share`` of its edges, never touching the
    edges of ``keep``; symmetric graphs lose both directions."""
    symmetric = np.array_equal(a, a.T)
    candidates = (np.triu(a, 1) if symmetric else a) * (keep == 0)
    idx = np.argwhere(candidates)
    gone = idx[rng.choice(len(idx), max(1, int(share * len(idx))), replace=False)]
    b = a.copy()
    b[gone[:, 0], gone[:, 1]] = 0.0
    if symmetric:
        b[gone[:, 1], gone[:, 0]] = 0.0
    return b


def perturb(a, count, rng, keep):
    """Symmetric copy of ``a`` with ``count`` node pairs outside ``keep``
    toggled: all additions when enough pairs are absent, all removals
    otherwise.  The edge count changes, so the copy is never a relabeling of
    ``a``; on a relabeled copy the exact bounds are 0 and the observed side is
    left with rounding noise."""
    free = np.triu(keep == 0, 1)
    absent = np.argwhere(free & (a == 0))
    pool = absent if len(absent) >= count else np.argwhere(free & (a != 0))
    b = a.copy()
    for i, j in pool[rng.choice(len(pool), count, replace=False)]:
        b[i, j] = b[j, i] = 1.0 - b[i, j]
    return b


def connected_graph(n, degree, rng, directed=False):
    """0/1 Erdos-Renyi graph of the given mean degree overlaid on a ring;
    returns the graph and the ring."""
    cycle = ring(n, rng, directed)
    p = degree / (n - 1)
    a = (rng.random((n, n)) < p).astype(float)
    np.fill_diagonal(a, 0.0)
    if not directed:
        a = np.triu(a, 1)
        a = a + a.T
    return np.maximum(a, cycle), cycle


def step_graphon(k, rng):
    v = rng.random((k, k))
    return (v + v.T) / 2.0


def nudge_graphon(v, rng):
    """Copy of ``v`` with three symmetric cells moved by up to 0.1, inward
    when the move would leave [0, 1]."""
    w = v.copy()
    for _ in range(3):
        i, j = rng.integers(v.shape[0], size=2)
        step = rng.uniform(-0.1, 0.1)
        value = w[i, j] + step
        w[i, j] = w[j, i] = value if 0.0 <= value <= 1.0 else w[i, j] - step
    return w


def signed_matrix(n, rng):
    """Half the entries +1 or -1, the rest 0: every cut sum is an integer,
    exact in floating point."""
    present = rng.random((n, n)) < 0.5
    return np.where(present, rng.choice([-1.0, 1.0], size=(n, n)), 0.0)


class Plan:
    """Collects input files and ``fpc`` calls for one workload."""

    def __init__(self, root):
        self.root = root
        self.commands = []
        os.makedirs(os.path.join(root, "in"), exist_ok=True)

    def graph(self, name, a):
        path = f"in/{name}.txt"
        write_edges(os.path.join(self.root, path), a)
        return path

    def graphon(self, name, values):
        path = f"in/{name}.json"
        with open(os.path.join(self.root, path), "w") as f:
            json.dump({"k": values.shape[0], "c": 1.0, "values": values.tolist()}, f)
        return path

    def add(self, cls, argv, check, expect="ok"):
        out = f"{{pass}}/c{len(self.commands):02d}.json"
        self.commands.append({
            "cls": cls, "argv": argv + ["-o", out], "out": out,
            "check": check, "expect": expect,
        })
        return out

    def centrality(self, graph, family, alpha=None):
        argv = ["centrality", graph, "--family", family]
        if alpha is not None:
            argv += ["--alpha", repr(alpha)]
        self.add("centrality", argv,
                 {"kind": "centrality", "graph": graph, "family": family, "alpha": alpha})

    def compare(self, a, b, family, alpha, bound, extra=(), expect="ok"):
        argv = ["compare", a, b, "--family", family, "--alpha", repr(alpha),
                "--bound", bound, *extra]
        self.add("compare", argv,
                 {"kind": "compare", "a": a, "b": b, "family": family,
                  "alpha": alpha, "bound": bound}, expect)

    def lift(self, graph):
        return self.add("graphon", ["graphon", "lift", graph],
                        {"kind": "lift", "graph": graph})

    def graphon_centrality(self, source, family, alpha=None):
        """``source`` is a step-graphon input file or a (lift output, graph)
        pair; a lift is checked against the finite graph it came from."""
        path, lifted = (source, None) if isinstance(source, str) else source
        argv = ["graphon", "centrality", path, "--family", family]
        if alpha is not None:
            argv += ["--alpha", repr(alpha)]
        self.add("graphon", argv,
                 {"kind": "graphon_centrality", "graphon": path, "lift_of": lifted,
                  "family": family, "alpha": alpha})

    def graphon_compare(self, a, b, family, alpha, bound):
        (pa, la), (pb, lb) = [(s, None) if isinstance(s, str) else s for s in (a, b)]
        argv = ["graphon", "compare", pa, pb, "--family", family,
                "--alpha", repr(alpha), "--bound", bound]
        self.add("graphon", argv,
                 {"kind": "graphon_compare", "a": pa, "b": pb, "a_lift_of": la,
                  "b_lift_of": lb, "family": family, "alpha": alpha, "bound": bound})

    def norms(self, graph, norm, mode=None):
        argv = ["norms", graph, "--norm", norm]
        if mode is not None:
            argv += ["--mode", mode]
        self.add("norms", argv,
                 {"kind": "norms", "graph": graph, "norm": norm, "mode": mode or "exact"})


def katz_alpha(*graphs):
    """Katz parameter with alpha ||A||_2 <= 1/2 for every given graph: the
    largest absolute row sum bounds the 2-norm of a symmetric matrix."""
    return 0.5 / max(float(np.abs(a).sum(axis=1).max()) for a in graphs)


# The symmetric 1000-node pair of dense-large does not depend on the seed.
# Its power iterations (``eigen`` on the graph and on its lift) stop on a
# random gap inside the bulk of the spectrum, so their cost varies threefold
# between random graphs of one size (1.1 to 3.0 s in-process); a seeded pair
# would swing a pass by about 15% and hide changes smaller than that.
FIXED_SYMMETRIC_SEED = 2022

# A class of only a few calls per pass runs each of them this many times.
# One call's scaled time varies by about 10% between runs, and a class
# total over two or three calls would carry most of that.
CALL_REPEATS = 2


def dense_large(plan, rng):
    d, d_ring = connected_graph(1000, 8, rng, directed=True)
    big, big_ring = connected_graph(2000, 8, rng)
    fixed = np.random.default_rng(FIXED_SYMMETRIC_SEED)
    s, s_ring = connected_graph(1000, 8, fixed)
    d_path = plan.graph("directed", d)
    d_cut = plan.graph("directed_cut", drop_edges(d, 0.01, rng, d_ring))
    s_path = plan.graph("symmetric", s)
    s_cut_matrix = drop_edges(s, 0.01, fixed, s_ring)
    s_cut = plan.graph("symmetric_cut", s_cut_matrix)
    big_path = plan.graph("symmetric_2000", big)
    big_cut = plan.graph("symmetric_2000_cut", drop_edges(big, 0.01, rng, big_ring))
    alpha = katz_alpha(s, s_cut_matrix)
    big_alpha = katz_alpha(big)

    plan.centrality(d_path, "pagerank", PAGERANK_ALPHA)
    plan.centrality(d_path, "eigen")
    plan.centrality(s_path, "eigen")
    plan.centrality(big_path, "katz", big_alpha)
    for _ in range(CALL_REPEATS):
        plan.compare(s_path, s_cut, "katz", alpha, "theorem1")
        plan.compare(d_path, d_cut, "pagerank", PAGERANK_ALPHA, "theorem1")
        plan.compare(big_path, big_cut, "katz", big_alpha, "theorem1")
    lift_a = (plan.lift(s_path), s_path)
    lift_b = (plan.lift(s_cut), s_cut)
    plan.graphon_centrality(lift_a, "pagerank", PAGERANK_ALPHA)
    plan.graphon_centrality(lift_a, "katz", alpha * s.shape[0])
    plan.graphon_centrality(lift_a, "eigen")
    plan.graphon_compare(lift_a, lift_b, "pagerank", PAGERANK_ALPHA, "theorem2")
    for _ in range(CALL_REPEATS):
        plan.norms(big_path, "1")
        plan.norms(big_path, "2")


def small_pair(n, rng, changes=2):
    a, cycle = connected_graph(n, n / 2, rng)
    return a, perturb(a, changes, rng, cycle)


def exact_small(plan, rng):
    pairs = {}
    for name, n in (("g6a", 6), ("g6b", 6), ("g7", 7), ("g8", 8)):
        a, b = small_pair(n, rng)
        pairs[name] = (plan.graph(f"{name}_a", a), plan.graph(f"{name}_b", b))
    fault = [np.array([[float(c) for c in row] for row in rows]) for rows in SIGMA_FAULT_PAIR]
    fault_pair = (plan.graph("fault8_a", fault[0]), plan.graph("fault8_b", fault[1]))
    steps = {}
    for k in (6, 7, 8):
        v = step_graphon(k, rng)
        steps[k] = (plan.graphon(f"w{k}_a", v), plan.graphon(f"w{k}_b", nudge_graphon(v, rng)))
    cuts = {n: plan.graph(f"signed{n}", signed_matrix(n, rng)) for n in (18, 20, 22)}

    plan.compare(*pairs["g6a"], "katz", SMALL_KATZ_ALPHA, "prop6")
    plan.compare(*pairs["g6b"], "katz", SMALL_KATZ_ALPHA, "prop6")
    plan.compare(*fault_pair, "katz", SMALL_KATZ_ALPHA, "prop6", expect="sigma_fault")
    plan.compare(*pairs["g7"], "pagerank", PAGERANK_ALPHA, "prop6")
    plan.compare(*pairs["g8"], "pagerank", PAGERANK_ALPHA, "prop6")
    plan.compare(*pairs["g8"], "katz", SMALL_KATZ_ALPHA, "prop7", extra=["--jobs", "1"])
    plan.compare(*pairs["g8"], "katz", SMALL_KATZ_ALPHA, "prop7", extra=["--jobs", "2"])
    plan.graphon_compare(*steps[8], "pagerank", PAGERANK_ALPHA, "prop9")
    plan.graphon_compare(*steps[6], "pagerank", PAGERANK_ALPHA, "prop9")
    plan.graphon_compare(*steps[7], "katz", STEP_KATZ_ALPHA, "prop10")
    plan.graphon_compare(*steps[6], "katz", STEP_KATZ_ALPHA, "prop10")
    for n in (22, 20, 18):
        plan.norms(cuts[n], "cut")
    plan.norms(cuts[22], "cut", "heuristic")
    plan.norms(cuts[20], "cut", "heuristic")
    for name in ("g6a", "g7", "g8"):
        plan.centrality(pairs[name][0], "katz", SMALL_KATZ_ALPHA)
        plan.centrality(pairs[name][0], "pagerank", PAGERANK_ALPHA)
    plan.centrality(pairs["g7"][1], "eigen")
    plan.graphon_centrality(steps[8][0], "pagerank", PAGERANK_ALPHA)
    plan.graphon_centrality(steps[8][0], "katz", STEP_KATZ_ALPHA)
    plan.graphon_centrality(steps[7][0], "eigen")
    plan.graphon_centrality(steps[6][1], "pagerank", PAGERANK_ALPHA)


SWEEP_COPIES = 8


def sweep_tiny(plan, rng):
    base, cycle = connected_graph(24, 4, rng)
    copies = [perturb(base, int(rng.integers(1, 4)), rng, cycle)
              for _ in range(SWEEP_COPIES)]
    base_path = plan.graph("base", base)
    paths = [plan.graph(f"copy{i:02d}", c) for i, c in enumerate(copies)]
    diffs = [plan.graph(f"diff{i}", base - copies[i]) for i in range(2)]
    alpha = katz_alpha(base, *copies)

    for path in paths:
        plan.compare(base_path, path, "katz", alpha, "theorem1")
        plan.compare(base_path, path, "pagerank", PAGERANK_ALPHA, "theorem1")
    families = (("katz", alpha), ("pagerank", PAGERANK_ALPHA), ("eigen", None))
    for i, path in enumerate(paths):
        plan.centrality(path, *families[i % 3])
    lift_a = (plan.lift(base_path), base_path)
    lift_b = (plan.lift(paths[0]), paths[0])
    plan.graphon_centrality(lift_a, "pagerank", PAGERANK_ALPHA)
    plan.graphon_centrality(lift_a, "katz", alpha * base.shape[0])
    plan.graphon_centrality(lift_a, "eigen")
    plan.graphon_compare(lift_a, lift_b, "pagerank", PAGERANK_ALPHA, "theorem2")
    for _ in range(CALL_REPEATS):
        plan.norms(diffs[0], "1")
        plan.norms(diffs[0], "2")
        plan.norms(diffs[1], "inf")
        plan.norms(diffs[1], "cut", "heuristic")


WORKLOADS = {"dense-large": dense_large, "exact-small": exact_small, "sweep-tiny": sweep_tiny}


def spread_classes(commands):
    """The calls reordered so that each class is spread evenly over the
    pass, keeping the order within a class (a lift stays before the calls
    that read it).  The speed a call gets drifts within seconds, so a class
    run back to back would sample one short stretch of it."""
    position = {}
    for cls in {c["cls"] for c in commands}:
        members = [i for i, c in enumerate(commands) if c["cls"] == cls]
        for rank, i in enumerate(members):
            position[i] = (rank + 0.5) / len(members)
    return [commands[i] for i in sorted(range(len(commands)), key=lambda i: (position[i], i))]


def prepare(workload, seed, root):
    """Write the inputs and plan of ``workload`` for ``seed`` under ``root``."""
    plan = Plan(root)
    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(workload)])
    WORKLOADS[workload](plan, rng)
    with open(os.path.join(root, "plan.json"), "w") as f:
        json.dump({"workload": workload, "seed": seed,
                   "commands": spread_classes(plan.commands)}, f, indent=1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--dir", required=True)
    args = parser.parse_args()
    prepare(args.workload, args.seed, args.dir)


if __name__ == "__main__":
    main()
