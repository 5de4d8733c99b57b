"""Frozen certificate cases: seeded inputs for all six certificate
functions, run through the public API.

``cases()`` maps a case id to a thunk that returns a BoundCertificate (or
raises).  ``run_case`` turns the outcome into the JSON stored in
``golden_certificates.json``: the certificate payload, or the exception
class name.  To record the golden file from a source tree:

    PYTHONPATH=<tree>/src:tests python tests/golden_cases.py tests/golden_certificates.json

Case ids read ``bound/family/mode/side/input``, where ``side`` is
``permutation_cost``, the Wasserstein side of prop6 and prop7, or ``-``.
"""

import json
import sys

import numpy as np

from fpcentral import (
    Graph,
    Permutation,
    StepGraphon,
    lift,
    permute,
    prop6_certificate,
    prop7_certificate,
    prop9_certificate,
    prop10_certificate,
    theorem1_certificate,
    theorem2_certificate,
)

from oracles import random_binary_symmetric, random_symmetric

STEP_KS = (1, 2, 3, 5, 7, 8, 12)
EXACT_LIMIT = 7  # exact sweeps stay at n <= 7 but for the one n = 8 case


def _katz_alpha(*mats, margin=0.5):
    """A Katz alpha below 1/||A||_2 for every matrix, rounded so that it does
    not depend on the norm code under test."""
    sigma = max(float(np.linalg.norm(m, 2)) for m in mats)
    return round(margin / max(sigma, 1e-9), 6)


def _nudge(rng, a, scale, low=0.0, high=1.0):
    return np.clip(a + random_symmetric(rng, a.shape[0], -scale, scale), low, high)


def _finite_pairs(rng):
    pairs = {}
    for n in (3, 5, 7):
        base = random_symmetric(rng, n, 0.0, 1.0)
        pairs[f"sym{n}"] = (base, _nudge(rng, base, 0.1))
    for n in (4, 6, 7):
        pairs[f"bin{n}"] = (
            random_binary_symmetric(rng, n, 0.5),
            random_binary_symmetric(rng, n, 0.5),
        )
    for n in (4, 6):
        base = rng.random((n, n)) + 0.05
        pairs[f"dir{n}"] = (base, base + 0.1 * rng.random((n, n)))
    signed = random_symmetric(rng, 5, -1.0, 1.0)
    pairs["signed5"] = (signed, _nudge(rng, signed, 0.1, -1.0, 1.0))
    chord = np.zeros((6, 6))
    for i in range(5):
        chord[i, i + 1] = chord[i + 1, i] = 1.0
    chord[0, 3] = chord[3, 0] = 1.0
    relabeled = permute(Graph(chord), Permutation(np.arange(6)[::-1])).weights
    pairs["relabel6"] = (chord, relabeled)
    return pairs


def _finite_cases(cases):
    rng = np.random.default_rng(2209)
    pairs = _finite_pairs(rng)
    big = rng.random((30, 30))
    pairs_theorem = dict(pairs, dir30=(big, big + 0.05 * rng.random((30, 30))))

    def add(bound, fn, family, search, label, name, a, b, **kw):
        if family == "katz":
            alpha = _katz_alpha(a, b)
        else:
            alpha = 0.85 if "dir" in name else 0.5

        def thunk():
            return fn(Graph(a), Graph(b), family, alpha, **kw)

        cases[f"{bound}/{family}/{search}/{label}/{name}"] = thunk

    for name, (a, b) in pairs_theorem.items():
        for family in ("katz", "pagerank"):
            add("theorem1", theorem1_certificate, family, "-", "-", name, a, b)
    for name, (a, b) in pairs.items():
        for family in ("katz", "pagerank"):
            for mode in ("exact", "greedy"):
                add("prop6", prop6_certificate, family, mode, "permutation_cost",
                    name, a, b, mode=mode)
        if "dir" not in name:
            add("prop7", prop7_certificate, "katz", "exact", "permutation_cost", name, a, b)
    # the one exact sweep at n = 8, the documented permutation limit
    a8 = random_binary_symmetric(rng, 8, 0.5)
    b8 = random_binary_symmetric(rng, 8, 0.5)
    add("prop6", prop6_certificate, "katz", "exact", "permutation_cost", "bin8",
        a8, b8)
    add("prop6", prop6_certificate, "pagerank", "exact", "permutation_cost",
        "bin8", a8, b8)
    _finite_error_cases(cases, pairs)


def _finite_error_cases(cases, pairs):
    sym_a, sym_b = pairs["sym5"]
    katz = ("katz", _katz_alpha(sym_a, sym_b))
    dir_a, dir_b = pairs["dir4"]

    def graphs(fn, a, b, family, alpha):
        return lambda: fn(Graph(a), Graph(b), family, alpha)

    errors = {
        "prop7/katz/dir4": graphs(prop7_certificate, dir_a, dir_b, *katz),
        "prop7/pagerank/sym5": graphs(prop7_certificate, sym_a, sym_b, "pagerank", 0.85),
        "prop7/katz/large-entries": graphs(
            prop7_certificate, 2.0 * sym_a, 2.0 * sym_b,
            "katz", _katz_alpha(2.0 * sym_a, 2.0 * sym_b),
        ),
        "prop6/katz/size-mismatch": graphs(prop6_certificate, sym_a, sym_a[:4, :4], *katz),
        "theorem1/katz/alpha-too-large": graphs(
            theorem1_certificate, sym_a, sym_b, "katz", 0.99
        ),
    }
    for name, thunk in errors.items():
        bound, family, label = name.split("/")
        cases[f"{bound}/{family}/error/-/{label}"] = thunk


def _step_pairs(rng):
    pairs = {}
    for k in STEP_KS + (60,):
        base = random_symmetric(rng, k, 0.0, 1.0)
        pairs[f"w{k}"] = (base, _nudge(rng, base, 0.05))
    for k in (3, 5):
        signed = random_symmetric(rng, k, -1.0, 1.0)
        pairs[f"signed{k}"] = (signed, _nudge(rng, signed, 0.05, -1.0, 1.0))
    # signed, with a katz density that is negative in one block at alpha 1.2
    flip = np.array([[0.9, -0.9], [-0.9, 0.0]])
    pairs["flip2"] = (flip, 0.9 * flip)
    small = random_symmetric(rng, 5, 0.0, 0.05)
    pairs["small5"] = (small, _nudge(rng, small, 0.005, 0.0, 0.05))
    for n in (5, 6, 7):
        a = random_binary_symmetric(rng, n, 0.5)
        b = random_binary_symmetric(rng, n, 0.5)
        pairs[f"lift{n}"] = (lift(Graph(a)).values, lift(Graph(b)).values)
    return pairs


def _step_alpha(name, a, b):
    """[0, 1] step graphons have operator norm at most 1; lifts take the
    finite alpha scaled by n; the small graphon takes alpha > 1."""
    if name.startswith("lift"):
        return _katz_alpha(a / a.shape[0], b / b.shape[0])
    if name.startswith("small"):
        return 3.0
    if name.startswith("flip"):
        return 1.2
    return 0.5


def _step_cases(cases):
    rng = np.random.default_rng(7022)
    pairs = _step_pairs(rng)

    def add(bound, fn, family, label, name, a, b, **kw):
        alpha = _step_alpha(name, a, b) if family == "katz" else 0.85

        def thunk():
            return fn(StepGraphon(a), StepGraphon(b), family, alpha, **kw)

        cases[f"{bound}/{family}/{label}/-/{name}"] = thunk

    for name, (a, b) in pairs.items():
        k = a.shape[0]
        for family in ("katz", "pagerank"):
            add("theorem2", theorem2_certificate, family, "-", name, a, b)
            modes = ("exact", "greedy") if k <= EXACT_LIMIT else ("greedy",)
            for mode in modes:
                add("prop9", prop9_certificate, family, mode, name, a, b, mode=mode)
        for mode in ("exact", "greedy") if k <= EXACT_LIMIT else ("greedy",):
            add("prop10", prop10_certificate, "katz", mode, name, a, b, mode=mode)
    _step_error_cases(cases, pairs)


def _step_error_cases(cases, pairs):
    w5a, w5b = pairs["w5"]

    def step(fn, a, b, family, alpha, **kw):
        return lambda: fn(StepGraphon(a), StepGraphon(b), family, alpha, **kw)

    errors = {
        "prop10/pagerank/w5": step(prop10_certificate, w5a, w5b, "pagerank", 0.85),
        "theorem2/katz/k-mismatch": step(theorem2_certificate, w5a, w5a[:3, :3],
                                          "katz", 0.5),
        "prop9/katz/k-mismatch": step(prop9_certificate, w5a, w5a[:3, :3], "katz", 0.5),
        "theorem2/katz/alpha-zero": step(theorem2_certificate, w5a, w5b, "katz", 0.0),
        "theorem2/pagerank/alpha-one": step(theorem2_certificate, w5a, w5b,
                                             "pagerank", 1.0),
        "theorem2/katz/L0-fails": step(theorem2_certificate, w5a, w5b, "katz", 50.0),
        "theorem2/eigen/w5": step(theorem2_certificate, w5a, w5b, "eigen", 0.5),
        "prop9/katz/exact-k12": step(prop9_certificate, *pairs["w12"], "katz", 0.5),
        "prop10/katz/large-values": step(prop10_certificate, 2.0 * w5a, 2.0 * w5b,
                                          "katz", 0.2),
    }
    for name, thunk in errors.items():
        bound, family, label = name.split("/")
        cases[f"{bound}/{family}/error/-/{label}"] = thunk


def cases():
    out = {}
    _finite_cases(out)
    _step_cases(out)
    return out


def run_case(thunk):
    try:
        cert = thunk()
    except Exception as exc:  # the class is the recorded outcome
        return {"error": type(exc).__name__}
    return cert.to_dict()


def main(path):
    golden = {case_id: run_case(thunk) for case_id, thunk in cases().items()}
    with open(path, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{len(golden)} cases, "
          f"{sum('error' in v for v in golden.values())} errors -> {path}")


if __name__ == "__main__":
    main(sys.argv[1])
