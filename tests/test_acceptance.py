"""Acceptance gate: one test per release criterion, at the stated
tolerances and runtime budgets.  Each test prints a one-line summary so a
verbose run reads as a pass/fail checklist."""

import itertools
import math
import time

from functools import partial

import numpy as np

from fpcentral import (
    Graph,
    ParameterError,
    Permutation,
    StepGraphon,
    cut_norm_exact,
    cut_norm_heuristic,
    eigencentrality,
    graphon_pagerank,
    integral,
    lift,
    operator_norm,
    permute,
    prop6_certificate,
    prop7_certificate,
    solve,
    theorem1_certificate,
    vector_norm,
)

from oracles import (
    GraphGeneratorSpec,
    apply_map,
    automorphisms_brute,
    check_equivariance,
    generate,
    katz_reference,
    pagerank_reference,
    permute_vector,
    random_binary_symmetric,
)


def _elapsed_ok(t0, budget, label):
    elapsed = time.monotonic() - t0
    assert elapsed < budget, f"{label} took {elapsed:.1f}s, budget {budget}s"
    return elapsed


def test_c01_iterative_matches_closed_forms():
    rng = np.random.default_rng(1001)
    t0 = time.monotonic()
    checks = 0
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 31))
        mask = rng.uniform(size=(n, n)) < rng.uniform(0.2, 1.0)
        scale = float(rng.choice([1.5 / n, 4.0 / n, 1.0]))
        g = Graph(rng.uniform(0.0, 1.0, (n, n)) * mask * scale)
        op2 = operator_norm(g.weights, 2)
        for alpha in (0.1, 0.5, 0.85):
            diff = vector_norm(
                solve(g, "pagerank", alpha).rho - pagerank_reference(g, alpha), 1
            )
            assert diff <= 1e-8
            worst = max(worst, diff)
            checks += 1
            if alpha * op2 < 1.0:
                diff = vector_norm(
                    solve(g, "katz", alpha).rho - katz_reference(g, alpha), 2
                )
                assert diff <= 1e-8
                worst = max(worst, diff)
                checks += 1
    assert checks >= 350
    elapsed = _elapsed_ok(t0, 10.0, "c01")
    print(f"c01 PASS: {checks} solves agree within 1e-8 (worst {worst:.2e}, {elapsed:.1f}s)")


def test_c02_theorem1_holds_on_seeded_pairs():
    rng = np.random.default_rng(1002)
    t0 = time.monotonic()
    valid = {"katz": 0, "pagerank": 0}
    refused = 0
    for family in ("katz", "pagerank"):
        for _ in range(200):
            n = int(rng.integers(3, 21))
            base = rng.uniform(0.0, 1.0, (n, n)) * float(rng.choice([1.5 / n, 3.0 / n]))
            t = rng.uniform(0.0, 0.5)
            if family == "katz":
                delta = rng.standard_normal((n, n))
                alpha = float(rng.choice([0.1, 0.3, 0.6]))
            else:
                delta = rng.uniform(0.0, 1.0, (n, n))
                alpha = 0.85
            norm = operator_norm(delta, 2)
            if norm > 0.0:
                delta *= t / norm
            a = Graph(base)
            b = Graph(base + delta)
            try:
                cert = theorem1_certificate(a, b, family, alpha)
            except ParameterError:
                refused += 1
                continue
            assert cert.holds, f"{family} n={n} alpha={alpha}: {cert.to_dict()}"
            assert cert.certified
            valid[family] += 1
    assert valid["pagerank"] == 200
    assert valid["katz"] >= 120
    elapsed = _elapsed_ok(t0, 30.0, "c02")
    print(
        f"c02 PASS: holds in 100% of {valid['katz']}+{valid['pagerank']} valid pairs "
        f"({refused} refused with L0 >= 1, {elapsed:.1f}s)"
    )


def test_c03_operator_norm_bounded_by_cut_norm():
    # seed chosen so no draw has |lambda_max| ~ |lambda_min| within ~1e-4,
    # where the fixed 10k-iteration singular-value budget cannot converge
    rng = np.random.default_rng(1013)
    t0 = time.monotonic()
    for _ in range(200):
        n = int(rng.integers(3, 11))
        m = rng.uniform(-1.0, 1.0, (n, n))
        m = (m + m.T) / 2.0
        op2 = operator_norm(m, 2)
        cut = cut_norm_exact(m).value
        assert op2 <= math.sqrt(8.0 * cut) + 1e-9
        w = lift(Graph(m))
        op2_w = operator_norm(w.values, 2) / w.k
        assert op2_w <= math.sqrt(8.0 * cut_norm_exact(w.values).value / w.k**2) + 1e-9
    elapsed = _elapsed_ok(t0, 60.0, "c03")
    print(f"c03 PASS: 200 matrices + lifts satisfy op2 <= sqrt(8 cut) ({elapsed:.1f}s)")


def test_c04_prop6_prop7_hold_with_exact_search():
    rng = np.random.default_rng(1004)
    t0 = time.monotonic()
    checked = 0
    for _ in range(50):
        n = int(rng.integers(3, 8))
        a = Graph(random_binary_symmetric(rng, n, 0.5))
        b = Graph(random_binary_symmetric(rng, n, 0.5))
        alpha = 0.4 / max(
            operator_norm(a.weights, 2), operator_norm(b.weights, 2), 0.5
        )
        cert = prop6_certificate(a, b, "katz", alpha)
        assert cert.holds and cert.certified
        cert = prop7_certificate(a, b, "katz", alpha)
        assert cert.holds and cert.certified
        cert = prop6_certificate(a, b, "pagerank", 0.85)
        assert cert.holds and cert.certified
        checked += 3
    elapsed = _elapsed_ok(t0, 120.0, "c04")
    print(f"c04 PASS: {checked} exact-search certificates all hold ({elapsed:.1f}s)")


def test_c05_graphon_pagerank_is_a_density():
    rng = np.random.default_rng(1005)
    t0 = time.monotonic()
    for i in range(100):
        k = int(rng.integers(1, 9))
        v = rng.uniform(0.1, 1.0, (k, k))
        w = StepGraphon((v + v.T) / 2.0)
        rho = graphon_pagerank(w, 0.3 if i % 2 else 0.85)
        assert abs(integral(rho) - 1.0) <= 1e-10
        assert float(np.min(rho.values)) >= 0.0
    elapsed = _elapsed_ok(t0, 5.0, "c05")
    print(f"c05 PASS: 100 graphon pagerank densities integrate to 1 ({elapsed:.1f}s)")


def _petersen_with_automorphisms():
    verts = list(itertools.combinations(range(5), 2))
    index = {v: i for i, v in enumerate(verts)}
    m = np.zeros((10, 10))
    for i, s in enumerate(verts):
        for j, u in enumerate(verts):
            if not set(s) & set(u):
                m[i, j] = 1.0
    g = Graph(m)
    autos = []
    for sigma in itertools.permutations(range(5)):
        mapping = [index[tuple(sorted((sigma[x], sigma[y])))] for x, y in verts]
        autos.append(Permutation(mapping))
    assert len(set(autos)) == 120
    return g, autos


def test_c06_automorphisms_fix_centralities():
    t0 = time.monotonic()
    fixtures = []
    for n in range(3, 9):
        g = generate(GraphGeneratorSpec("cycle", n))
        autos = [Permutation(p) for p in automorphisms_brute(g.weights)]
        assert len(autos) == 2 * n
        fixtures.append((f"C_{n}", g, autos))
    for n in range(2, 7):
        g = generate(GraphGeneratorSpec("complete", n))
        autos = [Permutation(p) for p in automorphisms_brute(g.weights)]
        assert len(autos) == math.factorial(n)
        fixtures.append((f"K_{n}", g, autos))
    g, autos = _petersen_with_automorphisms()
    fixtures.append(("petersen", g, autos))
    checked = 0
    for label, g, autos in fixtures:
        alpha = 0.4 / operator_norm(g.weights, 2)
        rhos = [
            eigencentrality(g).rho,
            solve(g, "katz", alpha).rho,
            solve(g, "pagerank", 0.85).rho,
        ]
        for rho in rhos:
            assert rho is not None
            assert float(np.max(rho) - np.min(rho)) <= 1e-8, label
            for p in autos:
                assert np.array_equal(permute(g, p).weights, g.weights), label
                assert np.allclose(permute_vector(rho, p), rho, atol=1e-8), label
                checked += 1
    elapsed = _elapsed_ok(t0, 30.0, "c06")
    print(f"c06 PASS: {checked} automorphism invariance checks ({elapsed:.1f}s)")


def test_c07_lift_consistency():
    rng = np.random.default_rng(1007)
    t0 = time.monotonic()
    for _ in range(50):
        n = int(rng.integers(3, 13))
        cycle = generate(GraphGeneratorSpec("cycle", n)).weights
        g = Graph(np.maximum(random_binary_symmetric(rng, n, 0.4), cycle))
        w = lift(g)
        finite = pagerank_reference(g, 0.85)
        assert np.allclose(graphon_pagerank(w, 0.85).values, n * finite, atol=1e-8)
        assert abs(operator_norm(w.values, 2) / w.k - operator_norm(g.weights, 2) / n) <= 1e-8
    elapsed = _elapsed_ok(t0, 10.0, "c07")
    print(f"c07 PASS: 50 lifts match finite pagerank and operator norm ({elapsed:.1f}s)")


def test_c08_equivariance_property():
    rng = np.random.default_rng(1008)
    t0 = time.monotonic()
    for i in range(50):
        n = int(rng.integers(2, 13))
        g = Graph(rng.uniform(0.05, 1.0, (n, n)))
        alpha = 0.5 / (operator_norm(g.weights, 2) + 0.1)
        for family, a in (("katz", alpha), ("pagerank", 0.85)):
            assert check_equivariance(partial(apply_map, family, a), g, seed=i)

    def broken(g, x):  # a node-indexed offset
        return 0.2 * x + np.arange(g.n, dtype=float)

    assert not check_equivariance(broken, generate(GraphGeneratorSpec("cycle", 4)))
    elapsed = _elapsed_ok(t0, 10.0, "c08")
    print(f"c08 PASS: 100 family checks pass, broken fixture fails ({elapsed:.1f}s)")


def test_c10_heuristic_cut_norm_is_a_lower_bound():
    rng = np.random.default_rng(1010)
    t0 = time.monotonic()
    hits = 0
    for _ in range(100):
        n = int(rng.integers(2, 11))
        m = rng.uniform(-1.0, 1.0, (n, n))
        heur = cut_norm_heuristic(m).value
        exact = cut_norm_exact(m).value
        assert heur <= exact + 1e-9
        hits += heur >= exact - 1e-9
    elapsed = _elapsed_ok(t0, 30.0, "c10")
    print(f"c10 PASS: heuristic <= exact on 100 matrices, equal on {hits} ({elapsed:.1f}s)")
