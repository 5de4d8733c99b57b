"""Checks every ``fpc`` result of a benchmark run against references
computed here with numpy alone, apart from the package's solvers.

Run as ``python perfbench/checks.py --dir D``: reads ``D/plan.json`` and
``D/status.json`` (exit code and stderr of every call of every pass), checks
the JSON each call wrote, and prints one JSON object with the errors found
and the number of calls that failed.
"""

import argparse
import json
import math
import os
import sys

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from inputs import SIGMA_FAULT_MESSAGE  # noqa: E402

SOLVE_TOL = 1e-8      # centralities and observed sides, in the native norm
ANGLE_TOL = 1e-6      # radians between eigenvectors
NORM2_RTOL = 1e-8     # operator 2-norm against the numpy reference
EXACT_TOL = 1e-9      # sums of integer weights


def read_edges(path):
    entries, top = [], -1
    with open(path) as f:
        for line in f:
            parts = line.split()
            if len(parts) == 1:
                top = max(top, int(parts[0]))
            elif parts:
                i, j = int(parts[0]), int(parts[1])
                entries.append((i, j, float(parts[2]) if len(parts) == 3 else 1.0))
                top = max(top, i, j)
    a = np.zeros((top + 1, top + 1))
    for i, j, w in entries:
        a[i, j] = w
    return a


def read_step(path):
    with open(path) as f:
        return np.array(json.load(f)["values"], dtype=float)


def pnorm(v, p):
    return float(np.abs(v).sum()) if p == 1 else float(np.sqrt(v @ v))


def native_p(family):
    return 1 if family == "pagerank" else 2


def finite_pagerank(a, alpha):
    """Solve (I - alpha A^T D^-1) r = (1 - alpha)/n, D the out-degrees,
    with zero columns at nodes without out-edges."""
    n = a.shape[0]
    d = a.sum(axis=1)
    scaled = np.divide(a, d[:, None], out=np.zeros_like(a), where=d[:, None] != 0)
    return np.linalg.solve(np.eye(n) - alpha * scaled.T, np.full(n, (1 - alpha) / n))


def finite_katz(a, alpha):
    n = a.shape[0]
    return np.linalg.solve(np.eye(n) - alpha * a.T, np.ones(n))


def finite_centrality(a, family, alpha):
    return finite_pagerank(a, alpha) if family == "pagerank" else finite_katz(a, alpha)


def step_centrality(w, family, alpha):
    """Block densities of a step graphon: (I - (alpha/k) K) rho = (1 - alpha)
    with K = W scaled by the column means (pagerank), or
    (I - (alpha/k) W) rho = 1 (katz)."""
    k = w.shape[0]
    if family == "pagerank":
        kernel = w / w.mean(axis=0)
        return np.linalg.solve(np.eye(k) - (alpha / k) * kernel, np.full(k, 1 - alpha))
    return np.linalg.solve(np.eye(k) - (alpha / k) * w, np.ones(k))


def leading_vector(m):
    """Eigenvector of m^T for the eigenvalue of largest real part."""
    if np.array_equal(m, m.T):
        values, vectors = np.linalg.eigh(m)
        return float(values[-1]), vectors[:, -1]
    values, vectors = np.linalg.eig(m.T)
    i = int(np.argmax(values.real))
    return float(values[i].real), vectors[:, i].real


def angle(x, y):
    cos = abs(float(x @ y)) / (np.linalg.norm(x) * np.linalg.norm(y))
    return math.acos(min(cos, 1.0))


def cut_norm(m):
    """Exact unscaled cut norm by enumerating all 2^n row subsets: the
    column sums of every subset of the top rows plus those of every subset
    of the bottom rows; for fixed rows the best columns take the positive
    or the negative sums."""
    n = m.shape[0]
    half = n // 2

    def subset_sums(rows):
        sums = np.zeros((1, n))
        for row in rows:
            sums = np.concatenate((sums, sums + row))
        return sums

    top, bottom = subset_sums(m[:half]), subset_sums(m[half:])
    best = 0.0
    for c in top:
        col = bottom + c
        best = max(best, float(np.maximum(np.where(col > 0, col, 0).sum(axis=1),
                                          -np.where(col < 0, col, 0).sum(axis=1)).max()))
    return best


def step_norm(v, p):
    """The L^p([0, 1]) norm of a step function with block values v."""
    return float(np.abs(v).mean()) if p == 1 else float(np.sqrt((v * v).mean()))


def sorted_cost(x, y, p, mean=False):
    """Minimum over relabelings of the p-distance between two vectors; the
    sorted matching attains it for p in {1, 2}.  ``mean`` gives the
    L^p([0, 1]) form of step functions."""
    d = np.sort(x) - np.sort(y)
    return step_norm(d, p) if mean else pnorm(d, p)


class Checker:
    """Computes references once per input and checks results against them."""

    def __init__(self, root):
        self.root = root
        self.cache = {}

    def memo(self, key, compute):
        if key not in self.cache:
            self.cache[key] = compute()
        return self.cache[key]

    def graph(self, path):
        return self.memo(("graph", path), lambda: read_edges(os.path.join(self.root, path)))

    def finite(self, path, family, alpha):
        return self.memo(("finite", path, family, alpha),
                         lambda: finite_centrality(self.graph(path), family, alpha))

    def leading(self, key, matrix):
        return self.memo(("leading",) + key, lambda: leading_vector(matrix()))

    def step_matrix(self, path, lifted):
        if lifted is not None:
            return self.graph(lifted)
        return self.memo(("step", path), lambda: read_step(os.path.join(self.root, path)))

    def density(self, path, lifted, family, alpha):
        """Graphon centrality reference.  For a lift, the finite solution of
        the source graph: pagerank density = n x finite pagerank, and katz
        with parameter alpha equals finite katz with alpha/n."""
        if lifted is not None:
            n = self.graph(lifted).shape[0]
            if family == "pagerank":
                return n * self.finite(lifted, "pagerank", alpha)
            return self.finite(lifted, "katz", alpha / n)
        return self.memo(("density", path, family, alpha),
                         lambda: step_centrality(self.step_matrix(path, None), family, alpha))

    def check(self, spec, out):
        return getattr(self, "check_" + spec["kind"])(spec, out)

    def check_centrality(self, spec, out):
        family = spec["family"]
        if family == "eigen":
            _, ref = self.leading((spec["graph"],), lambda: self.graph(spec["graph"]))
            gap = angle(np.array(out["feature_x"]), ref)
            return [] if gap <= ANGLE_TOL else [f"eigenvector off by {gap:.3e} rad"]
        ref = self.finite(spec["graph"], family, spec["alpha"])
        err = pnorm(np.array(out["rho"]) - ref, native_p(family))
        return [] if err <= SOLVE_TOL else [f"rho off the direct solve by {err:.3e}"]

    def certificate(self, out, observed, certified=None):
        errors = []
        if out["holds"] is not True:
            errors.append("certificate does not hold")
        if not out["bound"] >= out["observed"]:
            errors.append(f"bound {out['bound']!r} < observed {out['observed']!r}")
        if abs(out["observed"] - observed) > SOLVE_TOL * max(1.0, abs(observed)):
            errors.append(f"observed {out['observed']!r}, reference {observed!r}")
        if certified is not None and out["certified"] is not certified:
            errors.append(f"certified is {out['certified']}, expected {certified}")
        return errors

    def check_compare(self, spec, out):
        family, p = spec["family"], native_p(spec["family"])
        ra = self.finite(spec["a"], family, spec["alpha"])
        rb = self.finite(spec["b"], family, spec["alpha"])
        if spec["bound"] == "theorem1":
            observed = pnorm(ra - rb, p)
        else:
            observed = sorted_cost(ra / ra.sum(), rb / rb.sum(), p)
        return self.certificate(out, observed)

    def check_lift(self, spec, out):
        a = self.graph(spec["graph"])
        if out["k"] != a.shape[0] or not np.array_equal(np.array(out["values"]), a):
            return ["lift values differ from the graph weights"]
        return []

    def check_graphon_centrality(self, spec, out):
        path, lifted, family = spec["graphon"], spec["lift_of"], spec["family"]
        rho = np.array(out["rho"])
        if family == "eigen":
            w = self.step_matrix(path, lifted)
            k = w.shape[0]
            lam, ref = self.leading((path, lifted), lambda: w / k)
            errors = []
            if abs(out["lambda"] - lam) > 1e-8 * abs(lam):
                errors.append(f"lambda {out['lambda']!r}, reference {lam!r}")
            if angle(rho, ref) > ANGLE_TOL:
                errors.append("graphon eigenfunction off the reference")
            return errors
        ref = self.density(path, lifted, family, spec["alpha"])
        errors = []
        err = step_norm(rho - ref, native_p(family))
        if err > SOLVE_TOL:
            errors.append(f"graphon {family} off the reference by {err:.3e}")
        if family == "pagerank":
            if float(rho.min()) < 0.0 or out["non_negative"] is not True:
                errors.append("pagerank density has negative values")
            if abs(out["integral"] - 1.0) > 1e-9 or abs(float(rho.mean()) - 1.0) > 1e-9:
                errors.append(f"pagerank density integral {out['integral']!r} != 1")
        return errors

    def check_graphon_compare(self, spec, out):
        family, p = spec["family"], native_p(spec["family"])
        ra = self.density(spec["a"], spec["a_lift_of"], family, spec["alpha"])
        rb = self.density(spec["b"], spec["b_lift_of"], family, spec["alpha"])
        if spec["bound"] == "theorem2":
            return self.certificate(out, step_norm(ra - rb, p))
        observed = sorted_cost(ra / ra.mean(), rb / rb.mean(), p, mean=True)
        return self.certificate(out, observed, certified=False)

    def check_norms(self, spec, out):
        m = self.graph(spec["graph"])
        norm = spec["norm"]
        if norm == "1":
            ref = float(np.abs(m).sum(axis=0).max())
        elif norm == "inf":
            ref = float(np.abs(m).sum(axis=1).max())
        elif norm == "2":
            # a symmetric matrix's 2-norm is its largest absolute eigenvalue,
            # which eigvalsh gets at a third of the cost of the SVD
            symmetric = np.array_equal(m, m.T)
            ref = (float(np.abs(np.linalg.eigvalsh(m)).max()) if symmetric
                   else float(np.linalg.norm(m, 2)))
            err = abs(out["value"] - ref) / ref
            return [] if err <= NORM2_RTOL else [f"2-norm off by {err:.3e} relative"]
        else:
            ref = self.memo(("cut", spec["graph"]), lambda: cut_norm(m))
            s, t = out["witness"]["S"], out["witness"]["T"]
            errors = []
            attained = abs(float(m[np.ix_(s, t)].sum())) if s and t else 0.0
            if abs(attained - out["value"]) > EXACT_TOL:
                errors.append(f"witness attains {attained!r}, not {out['value']!r}")
            if spec["mode"] == "exact" and abs(out["value"] - ref) > EXACT_TOL:
                errors.append(f"exact cut norm {out['value']!r}, reference {ref!r}")
            if spec["mode"] == "heuristic" and out["value"] > ref + EXACT_TOL:
                errors.append(f"heuristic cut {out['value']!r} exceeds exact {ref!r}")
            return errors
        return [] if abs(out["value"] - ref) <= EXACT_TOL * max(1.0, ref) else [
            f"{norm}-norm {out['value']!r}, reference {ref!r}"]


def verify(root):
    """Check every call of every pass; returns (errors, failed calls)."""
    with open(os.path.join(root, "plan.json")) as f:
        commands = json.load(f)["commands"]
    with open(os.path.join(root, "status.json")) as f:
        passes = json.load(f)
    checker = Checker(root)
    errors, failed = [], 0
    for pass_dir, statuses in passes.items():
        for index, (command, status) in enumerate(zip(commands, statuses)):
            where = f"{pass_dir} call {index} ({' '.join(command['argv'][:2])})"
            if status["rc"] != 0:
                failed += 1
                if not (command["expect"] == "sigma_fault" and status["rc"] == 3
                        and SIGMA_FAULT_MESSAGE in status["stderr"]):
                    errors.append(f"{where}: exit {status['rc']}: {status['stderr'][-300:]}")
                continue
            with open(os.path.join(root, command["out"].replace("{pass}", pass_dir))) as f:
                out = json.load(f)
            errors.extend(f"{where}: {e}" for e in checker.check(command["check"], out))
    return errors, failed


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dir", required=True)
    args = parser.parse_args()
    errors, failed = verify(args.dir)
    print(json.dumps({"errors": errors, "failed": failed}))


if __name__ == "__main__":
    main()
