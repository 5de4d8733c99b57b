import math
import warnings

from functools import partial
from typing import NamedTuple

import numpy as np
import pytest

from fpcentral import (
    Graph,
    NonConvergenceError,
    NumericalError,
    ParameterError,
    Permutation,
    SimplicityError,
    eigencentrality,
    grassmann_distance,
    graphon_katz,
    graphon_pagerank,
    lift,
    normalize,
    operator_norm,
    permute,
    solve,
    vector_norm,
)
from fpcentral import centrality
from fpcentral import norms
from fpcentral.centrality import _degrees, _prepare, native_norm_index
from fpcentral.graphs import _Dense, _Entries, _strongly_connected
from fpcentral.graphon import StepGraphon, _lift_graph, graphon_eigencentrality
from oracles import (
    GraphGeneratorSpec,
    apply_map,
    automorphisms_brute,
    check_equivariance,
    density_reference,
    eigencentrality_lapack_reference,
    generate,
    katz_reference,
    pagerank_reference,
    permute_vector,
    strongly_connected,
    takes_the_perron_route,
)


def _c2():
    return Graph(np.array([[0.0, 1.0], [1.0, 0.0]]))


def _directed_3_cycle():
    w = np.zeros((3, 3))
    w[0, 1] = w[1, 2] = w[2, 0] = 1.0
    return Graph(w)


def _single_edge():
    return Graph(np.array([[0.0, 1.0], [0.0, 0.0]]))


def _katz(g, alpha):
    """The Katz centrality of a symmetric graph through its lift: the
    density at n alpha, since the lift acts as A/n."""
    return graphon_katz(lift(g), g.n * alpha).values


def _pagerank(g, alpha):
    """The PageRank of a symmetric graph through its lift: the density / n."""
    return graphon_pagerank(lift(g), alpha).values / g.n


def _kernel(g):
    """The PageRank kernel A^T D^-1 that solve() iterates, as an array."""
    return g._held.kernel(_degrees(g)).dense()


class TestFamilyAndAlpha:
    def test_alpha_required_for_katz_and_pagerank(self):
        for family in ("katz", "pagerank"):
            with pytest.raises(ParameterError):
                solve(_c2(), family)
            with pytest.raises(ParameterError):
                solve(_c2(), family, 0.0)
        with pytest.raises(ParameterError):
            solve(_c2(), "pagerank", 1.0)
        # katz alpha = 1.0 is refused only once alpha ||A||_2 >= 1
        with pytest.raises(ParameterError, match="katz requires"):
            solve(_c2(), "katz", 1.0)
        assert np.allclose(solve(Graph(0.5 * _c2().weights), "katz", 1.0).rho, [2.0, 2.0])

    def test_alpha_forbidden_for_eigen(self):
        with pytest.raises(ParameterError, match="alpha is not a eigen parameter"):
            solve(_c2(), "eigen", 0.5)

    def test_unknown_family(self):
        for family in ("betweenness", "affine"):
            with pytest.raises(ParameterError, match="unknown family"):
                solve(_c2(), family)

    def test_refusals_come_before_the_graph_is_read(self, monkeypatch):
        # each refusal is made on (family, alpha) alone, in this order
        def no_operand(family, alpha, g):
            raise AssertionError("the graph was read")

        monkeypatch.setattr(centrality, "_operand", no_operand)
        cases = (
            ("affine", 0.5, "unknown family 'affine'"),
            ("eigen", 0.5, "alpha is not a eigen parameter"),
            ("pagerank", 1.0, r"pagerank requires 0 < alpha < 1, got alpha=1.0"),
            ("katz", None, r"katz requires alpha > 0, got alpha=None"),
        )
        for family, alpha, message in cases:
            with pytest.raises(ParameterError, match=message):
                _prepare(family, alpha, _c2())


class TestApplyMap:
    def test_katz_uses_transposed_weights(self):
        g = _single_edge()
        out = apply_map("katz", 0.5, g, np.array([1.0, 0.0]))
        # node 1 receives from node 0: A.T x puts the mass on index 1
        assert np.allclose(out, np.array([1.0, 1.5]))

    def test_eigen_has_no_update_map(self):
        with pytest.raises(ParameterError):
            apply_map("eigen", None, _c2(), np.ones(2))


class TestSolve:
    def test_katz_c2_example(self):
        res = solve(_c2(), "katz", 0.5)
        assert np.allclose(res.rho, [2.0, 2.0], atol=1e-8)
        assert res.residual <= 1e-10

    def test_katz_zero_matrix_gives_ones(self):
        res = solve(Graph(np.zeros((3, 3))), "katz", 0.7)
        assert np.allclose(res.rho, np.ones(3), atol=1e-10)

    def test_pagerank_directed_3_cycle(self):
        res = solve(_directed_3_cycle(), "pagerank", 0.85)
        assert np.allclose(res.rho, np.full(3, 1.0 / 3.0), atol=1e-8)

    def test_iterative_matches_closed_form_on_seeded_graphs(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            n = int(rng.integers(2, 10))
            g = Graph(rng.random((n, n)) * (rng.random((n, n)) < 0.6))
            pr = solve(g, "pagerank", 0.85)
            assert vector_norm(pr.rho - pagerank_reference(g, 0.85), 1) <= 1e-8
            alpha = 0.5 / (operator_norm(g.weights, 2) + 1.0)
            kz = solve(g, "katz", alpha)
            assert vector_norm(kz.rho - katz_reference(g, alpha), 2) <= 1e-8

    def test_katz_contraction_hypothesis_enforced(self):
        g = Graph(np.full((4, 4), 1.0))
        with pytest.raises(ParameterError):
            solve(g, "katz", 0.5)

    def test_slow_contraction_exhausts_budget(self):
        with pytest.raises(NonConvergenceError) as exc:
            solve(_c2(), "katz", 0.9999999)
        assert exc.value.last_iterate is not None
        assert exc.value.residual > 0.0

    def test_the_budget_is_the_module_constant(self, monkeypatch):
        res = solve(_c2(), "katz", 0.5)
        assert res.residual <= 1e-12 * vector_norm(res.feature_x, 2)
        monkeypatch.setattr(centrality, "SOLVE_MAX_ITERATIONS", res.iterations)
        assert solve(_c2(), "katz", 0.5).feature_x.tolist() == res.feature_x.tolist()
        monkeypatch.setattr(centrality, "SOLVE_MAX_ITERATIONS", res.iterations - 1)
        with pytest.raises(NonConvergenceError, match=f"within {res.iterations - 1} "):
            solve(_c2(), "katz", 0.5)

    def test_solves_match_a_numpy_solve_on_seeded_graphs(self):
        rng = np.random.default_rng(42)
        for n in (5, 40, 300):
            m = rng.random((n, n)) * (rng.random((n, n)) < min(1.0, 4.0 / n))
            rows, cols = np.nonzero(m)
            forms = (_Entries(rows, cols, m[rows, cols], n), _Dense(m.copy()))
            alphas = {"katz": 0.5 / np.linalg.norm(m, 2), "pagerank": 0.85}
            for held in forms:
                g = Graph._holding(held)
                for family, alpha in alphas.items():
                    want = (katz_reference if family == "katz" else pagerank_reference)(g, alpha)
                    p = native_norm_index(family)
                    err = vector_norm(solve(g, family, alpha).rho - want, p)
                    assert err <= 1e-12 * vector_norm(want, p), (n, type(held), family, err)

    def test_a_graph_and_its_lift_reach_the_same_outcome(self):
        # one loop decides both: settling takes some 2e4 steps at
        # L0 = 1 - 1e-3, within the budget, and some 2e6 at 1 - 1e-5
        rng = np.random.default_rng(30)
        m = np.triu((rng.random((30, 30)) < 0.2).astype(float), 1)
        m[np.arange(29), np.arange(1, 30)] = 1.0  # a path through every node
        g = Graph(m + m.T)
        w = lift(g)
        norm = np.linalg.norm(g.weights, 2)
        for gap in (1e-3, 1e-5):
            l0 = 1.0 - gap
            calls = (
                (partial(solve, g, "katz", l0 / norm), partial(graphon_katz, w, 30 * l0 / norm)),
                (partial(solve, g, "pagerank", l0), partial(graphon_pagerank, w, l0)),
            )
            for finite, density in calls:
                if gap == 1e-5:
                    for call in (finite, density):
                        with pytest.raises(NonConvergenceError):
                            call()
                    continue
                res, rho = finite(), density()
                family = finite.args[1]
                scale, p = (1.0, 2) if family == "katz" else (30.0, 1)
                assert np.allclose(scale * res.rho, rho.values, rtol=1e-9, atol=0.0)
                assert res.residual <= 1e-12 * vector_norm(res.feature_x, p)
                assert rho.residual <= 1e-12 * vector_norm(rho.values / scale, p)

    def test_one_loop_iterates_the_map(self):
        import ast
        from pathlib import Path

        callers = set()  # (called name, calling function) over every module
        for path in Path(centrality.__file__).parent.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.FunctionDef):
                    callers.update((n.func.id, node.name) for n in ast.walk(node)
                                   if isinstance(n, ast.Call) and isinstance(n.func, ast.Name))
        assert {f for name, f in callers if name == "_iteration_map"} == {"_fixed_point"}
        assert {f for name, f in callers if name == "_fixed_point"} == {"_solve", "_density"}
        assert not hasattr(centrality, "SOLVE_TOL")

    def test_contraction_estimate_is_reported(self):
        res = solve(_c2(), "katz", 0.5)
        assert 0.0 < res.contraction_estimate <= 0.5 + 1e-9

    def test_negative_fixed_point_suggests_normalizer(self):
        # an in-star with weights -1: ||A||_2 = 2, so L0 = 0.9, and the
        # center's fixed point is x_0 = 1 - 0.45 * 4 = -0.8
        w = np.zeros((5, 5))
        w[1:, 0] = -1.0
        with pytest.raises(ParameterError, match="normalize"):
            solve(Graph(w), "katz", 0.45)

    def test_eigen_with_a_mixed_sign_vector_is_refused(self):
        # eigenvalues 3 and -1; the leading eigenvector (1, -1) has no rho
        with pytest.raises(ParameterError, match="mixed signs"):
            solve(Graph(np.array([[1.0, -2.0], [-2.0, 1.0]])), "eigen")

    def test_eigen_family_dispatches(self):
        g = generate(GraphGeneratorSpec("cycle", 4))
        res = solve(g, "eigen")
        assert np.allclose(res.rho, np.full(4, 0.5), atol=1e-8)

    def test_pagerank_refused_unless_l0_is_below_one(self):
        # a signed graph whose kernel has 1-norm 3; solve used to iterate
        # to NaN and give up after its budget
        g = Graph(np.array([[0.0, 2.0, -1.0], [1.0, 0.0, 0.0], [1.0, 1.0, 0.0]]))
        message = r"pagerank requires alpha \* \|\|A\^T D\^-1\|\|_1 < 1, got 2.55"
        with pytest.raises(ParameterError, match=message):
            solve(g, "pagerank", 0.85)

    def test_native_norm_index(self):
        assert native_norm_index("pagerank") == 1
        assert native_norm_index("katz") == 2
        assert native_norm_index("eigen") == 2


class TestDensityLoop:
    """The graphon densities, iterated on their lifts by solve()'s loop
    (``graphon._density``)."""

    def test_katz_zero_matrix(self):
        assert np.allclose(_katz(Graph(np.zeros((3, 3))), 0.3), np.ones(3))

    def test_katz_c2(self):
        assert np.allclose(_katz(_c2(), 0.5), [2.0, 2.0])

    def test_katz_path(self):
        # x = 0.5 A x + 1 on the path 0-1-2: x_0 = 1 + x_1 / 2 and x_1 = 1 + x_0
        assert np.allclose(_katz(_undirected(3, ((0, 1), (1, 2))), 0.5), [3.0, 4.0, 3.0])

    def test_katz_alpha_at_spectral_boundary(self):
        g = Graph(2.0 * np.array([[0.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(ParameterError, match="katz requires"):
            _katz(g, 0.5)

    def test_pagerank_triangle(self):
        got = _pagerank(_undirected(3, ((0, 1), (1, 2), (0, 2))), 0.85)
        assert np.allclose(got, np.full(3, 1.0 / 3.0), atol=1e-12)

    def test_pagerank_k2(self):
        assert np.allclose(_pagerank(_c2(), 0.5), [0.5, 0.5])

    def test_pagerank_dangling_node_mass_leaks(self):
        got = _pagerank(_undirected(3, ((0, 1),)), 0.5)
        assert np.allclose(got, [1.0 / 3.0, 1.0 / 3.0, 1.0 / 6.0])
        # the isolated block's column is zero, the lost mass is reported, not patched
        assert got.sum() == pytest.approx(5.0 / 6.0)

    def test_alpha_validation(self):
        for bad in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ParameterError):
                _katz(_c2(), bad)
            with pytest.raises(ParameterError):
                _pagerank(_c2(), bad)

    def test_densities_match_a_numpy_solve_on_seeded_lifts(self):
        rng = np.random.default_rng(16)
        for k in (5, 40, 130):
            values = np.triu(rng.random((k, k)) * (rng.random((k, k)) < 0.2))
            values += np.triu(values, 1).T
            rows, cols = np.nonzero(values)
            forms = (_Entries(rows, cols, values[rows, cols], k), _Dense(values.copy()))
            norm = np.linalg.norm(values, 2) / k
            for held in forms:
                w = StepGraphon._adopt(Graph._holding(held))
                for family, alpha in (("katz", 0.5 / norm if norm else 0.5), ("pagerank", 0.85)):
                    got = (graphon_katz if family == "katz" else graphon_pagerank)(w, alpha)
                    want = density_reference(values, family, alpha)
                    p = native_norm_index(family)
                    err = vector_norm(got.values - want, p)
                    assert err <= 1e-12 * vector_norm(want, p), (k, type(held), family, err)

    def test_densities_take_no_lapack_solve(self, monkeypatch):
        def refused(*args):
            raise AssertionError("a density called LAPACK")

        monkeypatch.setattr(np.linalg, "solve", refused)
        monkeypatch.setattr(np.linalg, "lstsq", refused)
        w = lift(_undirected(4, ((0, 1), (1, 2), (2, 3), (0, 3))))
        assert np.allclose(graphon_katz(w, 1.0).values, 2.0)
        assert np.allclose(graphon_pagerank(w, 0.85).values, 1.0)

    def test_a_near_critical_graphon_exhausts_the_budget(self, monkeypatch):
        # L0 = 1 - 1e-4 on both families: some 3e5 steps to settle
        monkeypatch.setattr(centrality, "SOLVE_MAX_ITERATIONS", 1000)
        w = StepGraphon(np.ones((2, 2)))
        for density in (graphon_katz, graphon_pagerank):
            with pytest.raises(NonConvergenceError, match="^no fixed point within 1000 ") as exc:
                density(w, 1.0 - 1e-4)
            assert exc.value.residual > 0.0 and exc.value.last_iterate.shape == (2,)

    def test_an_iterate_beyond_float64_is_refused(self):
        # values/2 = 8.5e307 off the diagonal and L0 = 0.9: the density is
        # 10, but A.T x overflows once x passes about 2.1
        w = StepGraphon(np.array([[0.0, 1.7e308], [1.7e308, 0.0]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="iteration overflows float64"):
                graphon_katz(w, 0.9 / 8.5e307)

    def test_a_signed_katz_density_is_returned_signed(self):
        # a star with weights -1 at L0 = 0.9: its center's Katz value is
        # (1 - 1.8) / (1 - 0.81), a fixed point that solve() refuses
        g = Graph(-_undirected(5, ((0, 1), (0, 2), (0, 3), (0, 4))).weights)
        assert _katz(g, 0.45)[0] == pytest.approx(-0.8 / 0.19, rel=1e-12)
        with pytest.raises(ParameterError, match="normalize"):
            solve(g, "katz", 0.45)


def _undirected(n, edges):
    w = np.zeros((n, n))
    for i, j in edges:
        w[i, j] = w[j, i] = 1.0
    return Graph(w)


_ORBIT_GRAPHS = {
    # node 0 pendant on 1; 2 and 3 swap
    "paw": lambda: _undirected(4, ((0, 1), (1, 2), (2, 3), (1, 3))),
    "star": lambda: generate(GraphGeneratorSpec("star", 6)),
    "path": lambda: generate(GraphGeneratorSpec("path", 5)),
    # triangles 0-1-2 and 3-4-5 joined by the edge 2-3: a group of order 8
    "bridged-triangles": lambda: _undirected(
        6, ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3))
    ),
}


def _centrality(family, g):
    if family == "eigen":
        return eigencentrality(g).rho
    alpha = 0.4 / operator_norm(g.weights, 2) if family == "katz" else 0.85
    return solve(g, family, alpha).rho


class TestAutomorphismInvariance:
    """Every automorphism of a graph fixes each of its centralities, also
    where the orbits differ and the centrality is not constant."""

    @pytest.mark.parametrize("name", sorted(_ORBIT_GRAPHS))
    @pytest.mark.parametrize("family", ["katz", "pagerank", "eigen"])
    def test_automorphisms_fix_the_centrality(self, family, name):
        g = _ORBIT_GRAPHS[name]()
        rho = _centrality(family, g)
        assert rho is not None
        assert float(np.max(rho) - np.min(rho)) > 1e-3
        autos = automorphisms_brute(g.weights)
        assert len(autos) > 1
        for mapping in autos:
            p = Permutation(np.array(mapping))
            assert np.array_equal(permute(g, p).weights, g.weights)
            assert np.max(np.abs(permute_vector(rho, p) - rho)) <= 1e-10 * np.max(np.abs(rho))

    @pytest.mark.parametrize("n", [6, 7])
    def test_nudged_cycle_keeps_only_the_symmetries_of_its_edge(self, n):
        # a weighted n-cycle, even and odd, with edge {0, 1} made heavier keeps the two
        # dihedral symmetries that map that edge onto itself, the identity
        # and i -> 1 - i, and no centrality is fixed by the others
        w = 0.7 * generate(GraphGeneratorSpec("cycle", n)).weights
        w[0, 1] = w[1, 0] = 0.701
        g = Graph(w)
        dihedral = sorted(
            tuple((r + s * i) % n for i in range(n)) for r in range(n) for s in (1, -1)
        )
        kept = [tuple(range(n)), tuple((1 - i) % n for i in range(n))]
        assert automorphisms_brute(w) == sorted(kept)
        for family in ("katz", "pagerank", "eigen"):
            rho = _centrality(family, g)
            for mapping in dihedral:
                moved = np.max(np.abs(permute_vector(rho, Permutation(np.array(mapping))) - rho))
                if mapping in kept:
                    assert moved <= 1e-10 * np.max(np.abs(rho)), family
                else:
                    assert moved > 1e-6 * np.max(np.abs(rho)), family


class TestPagerankKernel:
    def test_directed_3_cycle_is_permutation_matrix(self):
        k = _kernel(_directed_3_cycle())
        assert np.allclose(k.sum(axis=0), np.ones(3))
        assert set(np.unique(k)) == {0.0, 1.0}

    def test_dangling_column_is_zero(self):
        k = _kernel(_single_edge())
        assert np.allclose(k[:, 1], 0.0)
        assert np.allclose(k.sum(axis=0), [1.0, 0.0])

    def test_a_listed_row_of_zero_degree_has_no_kernel_entries(self):
        # a directed ring whose row 5 also holds -1 twice and sums to 0: the
        # list drops that row's entries where the array's kernel is 0 there,
        # and each kernel row keeps at most one entry, so both forms agree
        # bit for bit, the solve too
        n = 64
        m = np.zeros((n, n))
        m[np.arange(n), np.roll(np.arange(n), -1)] = 1.0
        m[5, 6], m[5, 20], m[5, 40] = 2.0, -1.0, -1.0
        listed, dense = Graph(m), Graph._holding(_Dense(m.copy()))
        assert isinstance(listed._held, _Entries) and not isinstance(dense._held, _Entries)
        d = _degrees(listed)
        assert d[5] == 0.0 and d.tobytes() == _degrees(dense).tobytes()
        kernel = listed._held.kernel(d)
        assert kernel.vals.size == n - 1
        assert kernel.dense().tobytes() == dense._held.kernel(d).dense().tobytes()
        assert not kernel.dense()[:, 5].any()
        got, want = (solve(g, "pagerank", 0.85) for g in (listed, dense))
        assert got.feature_x.tobytes() == want.feature_x.tobytes()
        assert got.iterations == want.iterations


class TestEigencentrality:
    def test_c4(self):
        g = generate(GraphGeneratorSpec("cycle", 4))
        res = eigencentrality(g)
        assert res.value == pytest.approx(2.0, abs=1e-9)
        assert np.allclose(res.rho, np.full(4, 0.5), atol=1e-8)
        # connected and non-negative: the Perron route proves 2 simple, and
        # the all-ones start is its vector
        assert res.gap is None and res.iterations == 0

    def test_p3(self):
        g = generate(GraphGeneratorSpec("path", 3))
        res = eigencentrality(g)
        assert res.value == pytest.approx(math.sqrt(2.0), abs=1e-9)
        expected = np.array([1.0, math.sqrt(2.0), 1.0])
        expected /= np.linalg.norm(expected)
        assert np.allclose(res.vector, expected, atol=1e-8)

    def test_k2(self):
        res = eigencentrality(_c2())
        assert res.value == pytest.approx(1.0, abs=1e-10)
        assert np.allclose(res.rho, np.full(2, 1.0 / math.sqrt(2.0)), atol=1e-9)

    def test_matches_dense_eigensolver_on_seeded_symmetric(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            w = rng.random((n, n))
            w = w + w.T
            g = Graph(w)
            res = eigencentrality(g)
            vals, vecs = np.linalg.eigh(w)
            assert res.value == pytest.approx(float(vals[-1]), abs=1e-8)
            assert grassmann_distance(res.vector, vecs[:, -1]) <= 1e-6

    def test_matches_dense_eigensolver_on_seeded_directed(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            n = int(rng.integers(2, 40))
            w = rng.random((n, n)) * (rng.random((n, n)) < 0.6)
            g = Graph(w)
            assert not g.symmetric
            res = eigencentrality(g)
            vals, vecs = np.linalg.eig(w.T)
            top = int(np.argmax(vals.real))
            assert res.value == pytest.approx(float(vals[top].real), abs=1e-8)
            assert grassmann_distance(res.vector, vecs[:, top].real) <= 1e-6

    def test_directed_cycle_has_real_dominant_eigenvalue(self):
        res = eigencentrality(_directed_3_cycle())
        assert res.value == pytest.approx(1.0, abs=1e-9)
        assert np.allclose(res.rho, np.full(3, 1.0 / math.sqrt(3.0)), atol=1e-8)

    def test_complex_dominant_pair_is_refused(self):
        w = np.zeros((3, 3))
        w[0, 1] = w[1, 2] = 1.0
        w[2, 0] = -1.0
        # strongly connected, but its negative weight keeps it off the Perron route
        assert strongly_connected(w) and not takes_the_perron_route(Graph(w))
        with pytest.raises(SimplicityError, match="dominant eigenvalue is complex"):
            eigencentrality(Graph(w))

    def test_degenerate_leading_eigenvalue_is_refused(self):
        two_edges = np.zeros((4, 4))
        two_edges[0, 1] = two_edges[1, 0] = 1.0
        two_edges[2, 3] = two_edges[3, 2] = 1.0
        with pytest.raises(SimplicityError):
            eigencentrality(Graph(two_edges))

    def test_zero_matrix_is_refused(self):
        with pytest.raises(ParameterError):
            eigencentrality(Graph(np.zeros((3, 3))))

    def test_zero_leading_eigenvalue_is_refused(self):
        # eigenvalues 0 and -1: a simple leading eigenvalue that is zero
        with pytest.raises(ParameterError, match="leading eigenvalue is zero"):
            eigencentrality(Graph(np.array([[0.0, 0.0], [0.0, -1.0]])))

    def test_mixed_sign_vector_has_no_rho(self):
        res = eigencentrality(Graph(np.array([[0.0, -1.0], [-1.0, 0.0]])))
        assert res.value == pytest.approx(1.0, abs=1e-10)
        assert res.rho is None

    def test_residual_is_small(self):
        g = generate(GraphGeneratorSpec("cycle", 5))
        assert eigencentrality(g).residual <= 1e-8

    @pytest.mark.parametrize("weight", [1e-300, 1e-9, 1e-8, 1.0, 1e300])
    def test_path_is_accepted_at_every_weight_scale(self, weight):
        # the gap and zero checks are absolute; at 1e-9 and below the path
        # used to be refused as "not simple"
        w = generate(GraphGeneratorSpec("path", 3)).weights * weight
        res = eigencentrality(Graph(w))
        assert res.value == pytest.approx(math.sqrt(2.0) * weight, rel=1e-14)
        assert res.gap is None
        assert np.allclose(res.vector, [0.5, math.sqrt(0.5), 0.5], atol=1e-14)
        # the signed path takes the spectrum route: eigenvalues -sqrt 2, 0
        # and sqrt 2, whose vector has mixed signs
        signed = eigencentrality(Graph(-w))
        assert signed.value == pytest.approx(math.sqrt(2.0) * weight, rel=1e-14)
        assert signed.gap == pytest.approx(math.sqrt(2.0) * weight, rel=1e-14)
        assert np.allclose(signed.vector, [0.5, -math.sqrt(0.5), 0.5], atol=1e-14)
        assert signed.rho is None

    def test_power_of_two_scalings_give_the_same_bits(self):
        rng = np.random.default_rng(40)
        sym = rng.random((7, 7))
        # Graph's symmetry tolerance scales with the peak entry, so the
        # directed graph stays directed at every scale
        cases = [generate(GraphGeneratorSpec("path", 3)).weights, sym + sym.T,
                 rng.random((6, 6)) * (rng.random((6, 6)) < 0.7), sym + sym.T - 1.0]
        for w in cases:
            base = eigencentrality(Graph(w))
            # all but the signed case take the Perron route at every scale
            assert (base.gap is None) == takes_the_perron_route(Graph(w)) == (w is not cases[3])
            for k in (-1000, -900, -300, -1, 1, 7, 300, 900, 1000):
                res = eigencentrality(Graph(np.ldexp(w, k)))
                assert np.array_equal(res.vector, base.vector), k
                assert res.value == np.ldexp(base.value, k), k
                if base.gap is None:
                    assert res.gap is None, k
                else:
                    assert res.gap == np.ldexp(base.gap, k), k
                assert res.residual == base.residual, k

    def test_not_simple_reports_the_gap_of_a(self):
        # weights near 1000 are scaled by 2^-9: the 1e-8 gap test of the
        # scaled matrix is a gap of 2^9 * 1e-8 = 5.12e-6 for A
        def diagonal(gap):
            return Graph(np.diag([1000.0, 1000.0 - gap, 1.0]))

        with pytest.raises(SimplicityError, match=r"\(gap 1\.000e-06 < 5\.12e-06\)$"):
            eigencentrality(diagonal(1e-6))
        res = eigencentrality(diagonal(1e-5))
        assert res.value == 1000.0
        assert res.gap == pytest.approx(1e-5, rel=1e-6)

    @pytest.mark.filterwarnings("error")
    def test_an_eigenvalue_beyond_float64_raises(self):
        # K_3 has leading eigenvalue 2; at weight 1e308 that is 2e308
        w = generate(GraphGeneratorSpec("complete", 3)).weights * 1e308
        with pytest.raises(NumericalError, match="leading eigenvalue of this matrix overflows"):
            eigencentrality(Graph(w))
        res = eigencentrality(Graph(w * 0.65))
        assert res.value == pytest.approx(1.3e308, rel=1e-15)
        assert res.gap is None
        # K_3 and a node with a loop of weight -1 take the spectrum route:
        # at 6.5e307 the gap of A, 3 * 6.5e307, overflows but the value
        # does not; an infinite gap still means a simple eigenvalue
        signed = np.zeros((4, 4))
        signed[:3, :3] = w * 0.65
        signed[3, 3] = -0.65e308
        res = eigencentrality(Graph(signed))
        assert res.value == pytest.approx(1.3e308, rel=1e-15)
        assert res.gap == math.inf

    def test_zero_one_graphs_are_not_rescaled(self, monkeypatch):
        # max |a_ij| = 1 already lies in [1, 2): no scaled copy is made
        ldexp = np.ldexp

        def scalars_only(x, k):
            assert np.ndim(x) == 0, "a 0/1 graph was rescaled"
            return ldexp(x, k)

        monkeypatch.setattr(np, "ldexp", scalars_only)
        res = eigencentrality(generate(GraphGeneratorSpec("cycle", 5)))
        assert res.value == pytest.approx(2.0, abs=1e-12)


def _seeded_eigen_graph(index):
    """Graph ``index`` of 200: symmetric or directed, 0/1, integer or real
    weights, n = 1..60."""
    rng = np.random.default_rng([2401, index])
    n = int(rng.integers(1, 61))
    w = rng.random((n, n)) < rng.uniform(0.1, 0.9)
    kind = index % 3
    if kind == 1:
        w = w * rng.integers(1, 10, (n, n))
    elif kind == 2:
        w = w * rng.random((n, n))
    w = np.asarray(w, dtype=float)
    if index % 2 == 0:
        w = np.triu(w) + np.triu(w, 1).T
    return Graph(w)


def _two_blocks_near_gap():
    """Two 4-cliques of weights a and b whose Perron values differ by about
    1e-6, coupled by c per cross pair, so the leading eigenvector spreads
    over both.  Returns the graph and its exact leading eigenvector: the
    block-constant vector of the leading eigenvector of [[3a, 4c], [4c, 3b]]."""
    a, b, c = 1.0, 1.0 + 1e-6 / 3.0, 1e-7
    j = np.ones((4, 4)) - np.eye(4)
    w = np.zeros((8, 8))
    w[:4, :4] = a * j
    w[4:, 4:] = b * j
    w[:4, 4:] = w[4:, :4] = c
    theta = 0.5 * math.atan2(8.0 * c, 3.0 * (a - b))
    exact = np.repeat([math.cos(theta), math.sin(theta)], 4) / 2.0
    return Graph(w), exact


def _bracket_cannot_close(g):
    """Whether the Perron bracket of ``g`` cannot close: at the rate
    |mu_2| / mu_1 of the two largest moduli of A.T + I, for A scaled to a
    peak entry in [1, 2), a unit width stays above the bracket's tolerance
    after ``PERRON_MAX_ITERATIONS`` steps."""
    w = g.weights / 2.0 ** (math.frexp(np.abs(g.weights).max())[1] - 1)
    moduli = np.sort(np.abs(np.linalg.eigvals(w.T + np.eye(g.n))))
    ulp = np.finfo(float).eps * np.abs(w).sum(axis=0).max()
    tol = centrality.INVERSE_RESIDUAL_FACTOR * math.sqrt(g.n) * ulp
    return (moduli[-2] / moduli[-1]) ** norms.PERRON_MAX_ITERATIONS > tol


class TestEigenAgainstLapack:
    """The Perron bracket, or eigenvalues without vectors plus inverse
    iteration, against the full eig/eigh decomposition: the same decisions,
    values to 1e-12 relative, unit vectors to 1e-10 in max-abs.  The gap is
    LAPACK's wherever the spectrum route runs, and None where the bracket
    proved the value simple and its own vector passed."""

    @staticmethod
    def _assert_matches(g, vector_tol=1e-10):
        vec, value, gap, rho = eigencentrality_lapack_reference(g)
        res = eigencentrality(g)
        assert abs(res.value - value) <= 1e-12 * max(1.0, abs(value))
        if res.gap is None:
            assert takes_the_perron_route(g) and res.iterations == 0
        else:
            # off the route, or on it with a bracket too slow to close
            assert not takes_the_perron_route(g) or _bracket_cannot_close(g)
            assert res.gap == pytest.approx(gap, rel=1e-9, abs=1e-12 * max(1.0, abs(value)))
            assert 1 <= res.iterations <= 2
        assert np.max(np.abs(res.vector - vec)) <= vector_tol
        assert (res.rho is None) == (rho is None)
        return res

    def test_seeded_graphs(self):
        compared = routed = 0
        for index in range(200):
            g = _seeded_eigen_graph(index)
            try:
                eigencentrality_lapack_reference(g)
            except ValueError as exc:
                with pytest.raises((ParameterError, SimplicityError)) as info:
                    eigencentrality(g)
                assert str(info.value).startswith(str(exc))
                continue
            routed += self._assert_matches(g).gap is None
            compared += 1
        assert compared >= 150 and routed >= 170

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_complete_graphs(self, n):
        res = self._assert_matches(generate(GraphGeneratorSpec("complete", n)))
        assert res.value == pytest.approx(n - 1.0, rel=1e-14)
        assert res.gap is None

    def test_an_exact_eigenvalue_moves_the_shift(self):
        # K_4 and an isolated node take the spectrum route; eigvalsh returns
        # the Perron value 3 exactly, so the first shifted solve is singular
        # and the shift moves
        w = np.zeros((5, 5))
        w[:4, :4] = generate(GraphGeneratorSpec("complete", 4)).weights
        res = self._assert_matches(Graph(w))
        assert res.value == 3.0 and res.gap == 3.0
        assert res.iterations == 2

    def test_c4(self):
        self._assert_matches(generate(GraphGeneratorSpec("cycle", 4)))

    def test_one_node_self_loop(self):
        res = self._assert_matches(Graph(np.array([[2.5]])))
        assert res.vector.tolist() == [1.0]
        assert res.value == 2.5

    def test_non_finite_solve_moves_the_shift(self, monkeypatch):
        solve_ = np.linalg.solve
        calls = []

        def first_overflows(a, b):
            calls.append(a[0, 0])
            return np.full_like(b, np.inf) if len(calls) == 1 else solve_(a, b)

        monkeypatch.setattr(np.linalg, "solve", first_overflows)
        # a path and an isolated node take the spectrum route
        w = np.zeros((4, 4))
        w[:3, :3] = generate(GraphGeneratorSpec("path", 3)).weights
        res = self._assert_matches(Graph(w))
        assert res.iterations == 2
        assert calls[1] < calls[0]

    def test_gap_near_1e_minus_6(self):
        # rounding the eigenvalue alone moves a vector by about
        # eps ||A|| / gap = 5e-10 here: eigh is 2.9e-10 off the exact vector
        # and inverse iteration 1.6e-10, so both are held to 1e-9
        g, exact = _two_blocks_near_gap()
        res = self._assert_matches(g, vector_tol=1e-9)
        assert 1e-6 < res.gap < 2e-6
        assert np.max(np.abs(res.vector - exact)) <= 1e-9
        assert min(exact[:4].min(), exact[4:].min()) > 0.1

    def test_weights_scaled_by_1e6(self):
        for index in (0, 1, 2, 3):
            g = _seeded_eigen_graph(index)
            self._assert_matches(Graph(g.weights * 1e6))

    def test_nearly_real_complex_pair_exhausts_the_solves(self):
        # 2 +- 1e-8 i passes the complex check (imaginary part at most
        # 1e-8 |lambda|) and the gap check (2e-8), but no real v has
        # A.T v = 2 v; a full decomposition returned the real part (1, 0)
        with pytest.raises(NumericalError, match="8 solves"):
            eigencentrality(Graph(np.array([[2.0, 1e-8], [-1e-8, 2.0]])))

    def test_no_eigenvector_decomposition(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("full eigendecomposition called")

        monkeypatch.setattr(np.linalg, "eig", refuse)
        monkeypatch.setattr(np.linalg, "eigh", refuse)
        rng = np.random.default_rng(3)
        directed = Graph(rng.random((12, 12)))
        symmetric = generate(GraphGeneratorSpec("path", 5))
        assert not directed.symmetric and symmetric.symmetric
        for g in (directed, symmetric):
            res = eigencentrality(g)
            assert res.rho is not None and res.residual <= 1e-13
        rho, lam = graphon_eigencentrality(StepGraphon(np.array([[0.5, 0.2], [0.2, 0.7]])))
        assert lam == pytest.approx(float(np.linalg.eigvalsh([[0.5, 0.2], [0.2, 0.7]])[-1]) / 2)
        assert np.all(rho.values > 0.0)


def _ring_with_chords(n):
    """A directed n-node ring with n // 2 weighted chords: strongly connected."""
    rng = np.random.default_rng(28)
    w = np.zeros((n, n))
    w[np.arange(n), np.roll(np.arange(n), -1)] = 1.0
    chords = rng.integers(n, size=(n // 2, 2))
    w[chords[:, 0], chords[:, 1]] = rng.random(n // 2) + 0.5
    np.fill_diagonal(w, 0.0)
    return w


def _cycle(weights):
    """The directed cycle 0 -> 1 -> ... -> 0 with these arc weights."""
    n = len(weights)
    w = np.zeros((n, n))
    w[np.arange(n), np.roll(np.arange(n), -1)] = weights
    return w


def _joined_cycles():
    """A directed 3-cycle of weight 2 with one arc into a 4-cycle of weight
    1: not strongly connected, and its leading eigenvalue 2 is simple."""
    w = np.zeros((7, 7))
    w[:3, :3] = _cycle([2.0] * 3)
    w[3:, 3:] = _cycle([1.0] * 4)
    w[2, 3] = 1.0
    return w


def _listed_symmetric(n, seed):
    """A symmetric 0/1 graph on n nodes: a ring and about 2n random edges,
    below the cut of ``graphs.ENTRY_SHARE``."""
    rng = np.random.default_rng(seed)
    w = np.triu(rng.random((n, n)) < 4.0 / n, 1) * 1.0
    ring = np.arange(n)
    w[ring, np.roll(ring, -1)] = 1.0
    w = np.maximum(w, w.T)
    np.fill_diagonal(w, 0.0)
    return w


def _symmetric_blocks(k, seed):
    """Symmetric step-graphon values in (0, 1] on k blocks."""
    v = np.random.default_rng(seed).uniform(0.05, 1.0, (k, k))
    return np.maximum(v, v.T)


def _complete_bipartite(a, b):
    w = np.zeros((a + b, a + b))
    w[:a, a:] = w[a:, :a] = 1.0
    return w


def _two_dense_blocks(n, seed):
    """Two symmetric 30%-dense 0/1 blocks of n/2 nodes joined by one edge."""
    rng = np.random.default_rng(seed)
    h = n // 2
    w = np.zeros((n, n))
    for block in (slice(0, h), slice(h, n)):
        upper = np.triu(rng.random((h, h)) < 0.3, 1) * 1.0
        w[block, block] = upper + upper.T
    w[h - 1, h] = w[h, h - 1] = 1.0
    return w


def _triangle_and_edge():
    """A triangle and a separate edge: symmetric, not connected, and its
    leading eigenvalue 2 is simple."""
    w = np.zeros((5, 5))
    w[:3, :3] = np.ones((3, 3)) - np.eye(3)
    w[3, 4] = w[4, 3] = 1.0
    return w


def _coupled_cliques(c):
    """Two 4-cliques coupled by c one way and 2c the other: strongly
    connected, with leading eigenvalues 3 +- 4 sqrt(2) c."""
    j = np.ones((4, 4)) - np.eye(4)
    w = np.zeros((8, 8))
    w[:4, :4] = w[4:, 4:] = j
    w[:4, 4:] = c
    w[4:, :4] = 2.0 * c
    return w


class _Counting(NamedTuple):
    """The operand ``op``, which appends the name of each product it takes
    to ``calls``."""

    op: object
    calls: list

    @property
    def n(self):
        return self.op.n

    def matvec(self, x):
        self.calls.append("matvec")
        return self.op.matvec(x)

    def rmatvec(self, y):
        self.calls.append("rmatvec")
        return self.op.rmatvec(y)


class TestPerronRoute:
    """A graph with no negative weight that is strongly connected (connected,
    if symmetric) takes its leading eigenvalue and its vector from the
    Collatz-Wielandt bracket: no spectrum and no solve.  Every other graph,
    and one whose bracket does not close within its budget, takes the
    spectrum route, bit for bit."""

    ROUTED = {
        "listed-ring-with-chords": Graph(_ring_with_chords(200)),
        "dense-6": Graph(np.random.default_rng(6).random((6, 6)) + 0.1),
        "3-cycle": Graph(_cycle([1.0] * 3)),
        "4-cycle": Graph(_cycle([1.0] * 4)),
        # periodic, with a Perron vector other than the all-ones start
        "weighted-3-cycle": Graph(_cycle([1.0, 2.0, 3.0])),
        "weighted-4-cycle": Graph(_cycle([1.0, 1.5, 0.5, 2.0])),
        "listed-symmetric": Graph(_listed_symmetric(300, 2411)),
        "lift": _lift_graph(StepGraphon(_symmetric_blocks(40, 2412))),
        # bipartite: its eigenvalue -sqrt 12 makes A.T + I contract at
        # (sqrt 12 - 1) / (sqrt 12 + 1) per step
        "K3,4": Graph(_complete_bipartite(3, 4)),
    }

    @staticmethod
    def _spectrum_route(monkeypatch, g):
        """eigencentrality(g) with the Perron route closed."""
        with monkeypatch.context() as m:
            m.setattr(centrality, "_strongly_connected", lambda op: False)
            return eigencentrality(g)

    @staticmethod
    def _assert_same_bits(res, ref):
        assert np.array_equal(res.vector, ref.vector)
        assert (res.value, res.gap, res.residual, res.iterations) == (
            ref.value, ref.gap, ref.residual, ref.iterations)
        assert (res.rho is None) == (ref.rho is None)

    @staticmethod
    def _count_brackets(monkeypatch):
        """Patch each bracket of eigen centrality to count the products it
        takes of the graph's operand: the list the counts go to, one count
        per bracket."""
        counts = []
        perron_root = centrality._perron_root

        def counted(product, *args):
            calls = []

            def step(x):
                calls.append(x)
                return product(x)

            try:
                return perron_root(step, *args)
            finally:
                counts.append(len(calls))

        monkeypatch.setattr(centrality, "_perron_root", counted)
        return counts

    @pytest.mark.parametrize("name", list(ROUTED))
    def test_the_route_takes_no_spectrum(self, monkeypatch, name):
        g = self.ROUTED[name]
        assert takes_the_perron_route(g)
        assert isinstance(g._held, _Entries) == name.startswith("listed")
        assert g.symmetric == (name in ("listed-symmetric", "lift", "K3,4"))
        vec, value, _, rho = eigencentrality_lapack_reference(g)

        def refuse(*args, **kwargs):
            raise AssertionError("the spectrum was taken, a system solved or an array formed")

        for spectrum_or_solve in ("eigvals", "eigvalsh", "solve"):
            monkeypatch.setattr(np.linalg, spectrum_or_solve, refuse)
        monkeypatch.setattr(_Entries, "dense", refuse)  # a list forms no array
        counts = self._count_brackets(monkeypatch)
        res = eigencentrality(g)
        assert res.gap is None and res.iterations == 0
        assert abs(res.value - value) <= 1e-12 * abs(value)
        assert np.max(np.abs(res.vector - vec)) <= 1e-10
        assert rho is not None and res.rho is not None
        assert len(counts) == 1 and 1 <= counts[0] < norms.PERRON_MAX_ITERATIONS

    def test_two_dense_blocks_run_the_budget(self, monkeypatch):
        # two 30%-dense blocks joined by one edge: their Perron values are
        # close, so the bracket contracts too slowly to close in the budget;
        # it runs every step, as a directed graph's does, before the spectrum
        g = Graph(_two_dense_blocks(200, 2413))
        assert takes_the_perron_route(g) and not isinstance(g._held, _Entries)
        assert g.symmetric and _bracket_cannot_close(g)
        ref = self._spectrum_route(monkeypatch, g)
        counts = self._count_brackets(monkeypatch)
        res = eigencentrality(g)
        assert counts == [norms.PERRON_MAX_ITERATIONS]
        assert res.gap is not None
        self._assert_same_bits(res, ref)

    def test_twin_cliques_with_a_tiny_gap_are_accepted(self, monkeypatch):
        # two 4-cliques joined node by node with weight c: eigenvalues
        # 3 +- c, a gap of 2c below 1e-8, which the spectrum route refuses.
        # The graph is regular, so the all-ones start is the Perron vector,
        # and the bracket proves 3 + c simple at once
        c = 1e-10
        w = np.zeros((8, 8))
        w[:4, :4] = w[4:, 4:] = np.ones((4, 4)) - np.eye(4)
        w[np.arange(4), np.arange(4, 8)] = w[np.arange(4, 8), np.arange(4)] = c
        g = Graph(w)
        res = eigencentrality(g)
        assert res.value == pytest.approx(3.0 + c, rel=1e-15)
        assert res.gap is None and res.iterations == 0
        assert np.array_equal(res.vector, np.full(8, 1.0 / math.sqrt(8.0)))
        with pytest.raises(SimplicityError, match="leading eigenvalue is not simple"):
            self._spectrum_route(monkeypatch, g)

    @pytest.mark.parametrize("w", [
        np.array([[0.0, 1.0, 0.5], [-0.25, 0.0, 1.0], [1.0, 0.5, 0.0]]),
        _joined_cycles(),
        np.array([[0.0, 1.0, -0.5], [1.0, 0.0, 1.0], [-0.5, 1.0, 0.0]]),
        _triangle_and_edge(),
    ], ids=["negative-weight", "joined-cycles", "symmetric-negative-weight", "triangle-and-edge"])
    def test_other_graphs_take_the_spectrum_route(self, monkeypatch, w):
        g = Graph(w)
        assert not takes_the_perron_route(g)
        ref = self._spectrum_route(monkeypatch, g)

        def refuse(*args):
            raise AssertionError("a bracket was tried")

        monkeypatch.setattr(centrality, "_perron_root", refuse)
        res = eigencentrality(g)
        assert res.gap is not None and res.rho is not None
        self._assert_same_bits(res, ref)

    def test_a_bracket_that_does_not_close_takes_the_spectrum_route(self, monkeypatch):
        g = self.ROUTED["listed-ring-with-chords"]
        ref = self._spectrum_route(monkeypatch, g)
        monkeypatch.setattr(norms, "PERRON_MAX_ITERATIONS", 2)
        res = eigencentrality(g)
        assert res.gap == ref.gap and res.gap > 0.1
        self._assert_same_bits(res, ref)

    def test_a_near_degenerate_graph_is_refused_as_today(self, monkeypatch):
        # the bracket contracts at (3 - 4 sqrt(2) c + 1) / (3 + 4 sqrt(2) c + 1)
        # per step and cannot close; the spectrum's gap 8 sqrt(2) c is below 1e-8
        g = Graph(_coupled_cliques(5e-10))
        assert takes_the_perron_route(g)
        brackets = []
        perron_root = centrality._perron_root

        def recorded(*args):
            brackets.append(perron_root(*args))
            return brackets[-1]

        monkeypatch.setattr(centrality, "_perron_root", recorded)
        counts = self._count_brackets(monkeypatch)
        message = r"^leading eigenvalue is not simple \(gap 5\.657e-09 < 1e-08\)$"
        with pytest.raises(SimplicityError, match=message):
            eigencentrality(g)
        # the bracket runs the whole budget and hands over unclosed
        assert [closed for *_, closed in brackets] == [False] and counts == [norms.PERRON_MAX_ITERATIONS]
        with pytest.raises(SimplicityError, match=message):
            self._spectrum_route(monkeypatch, g)

    def test_a_log_normal_symmetric_graph_closes_its_bracket(self):
        # weights over many orders of magnitude: the bracket's width shrinks
        # slowly at first and then closes well within the budget
        rng = np.random.default_rng([31, 0])
        w = np.triu(np.exp(3.0 * rng.standard_normal((30, 30))), 1)
        g = Graph(w + w.T)
        assert g.symmetric and takes_the_perron_route(g)
        vec, value, _, _ = eigencentrality_lapack_reference(g)
        res = eigencentrality(g)
        assert res.gap is None and res.iterations == 0
        assert abs(res.value - value) <= 1e-12 * abs(value)
        assert np.max(np.abs(res.vector - vec)) <= 1e-12

    def test_one_bracket_rule(self):
        import ast
        import inspect
        from pathlib import Path

        assert list(inspect.signature(norms._perron_root).parameters) == [
            "product", "x", "tol", "gram"]
        callers = set()  # functions of any module that call _perron_root
        for path in Path(centrality.__file__).parent.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.FunctionDef) and any(
                        isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                        and n.func.id == "_perron_root" for n in ast.walk(node)):
                    callers.add(node.name)
        assert callers == {"_two_norm", "eigencentrality"}

    @staticmethod
    def _both_forms(w):
        """The list of ``w``'s non-zero entries, at any density, and its array."""
        rows, cols = np.nonzero(w)
        return _Entries(rows, cols, w[rows, cols], w.shape[0]), _Dense(w)

    def test_the_reach_search_agrees_with_the_closure(self):
        # the products of either form, on the same non-negative matrices
        rng = np.random.default_rng(2801)
        for _ in range(300):
            n = int(rng.integers(1, 40))
            w = rng.random((n, n)) * (rng.random((n, n)) < rng.uniform(0.0, 4.0 / n))
            for op in self._both_forms(w):
                assert _strongly_connected(op) == strongly_connected(w), (op, w)
        for w in (*(g.weights for g in self.ROUTED.values()), _joined_cycles(), np.zeros((1, 1))):
            for op in self._both_forms(w):
                assert _strongly_connected(op) == strongly_connected(w)

    def test_the_reach_search_takes_one_product_per_level(self):
        # a directed 5-cycle: node 0 reaches the last node in 4 steps, and a
        # fifth product finds no new node, along the links and against them
        for op in self._both_forms(_cycle([1.0] * 5)):
            calls = []
            assert _strongly_connected(_Counting(op, calls))
            assert calls == ["rmatvec"] * 5 + ["matvec"] * 5


class TestNormalize:
    def test_identity_example(self):
        assert np.allclose(normalize(np.array([1.0, 3.0])), [0.25, 0.75])

    def test_identity_point_mass(self):
        assert np.allclose(normalize(np.array([0.0, 0.0, 7.0])), [0.0, 0.0, 1.0])

    def test_exp_softmax_of_logs(self):
        got = normalize(np.array([math.log(1.0), math.log(2.0)]), "exp")
        assert np.allclose(got, [1.0 / 3.0, 2.0 / 3.0])

    def test_exp_neg_prefers_small_entries(self):
        got = normalize(np.array([0.0, math.log(2.0)]), "exp_neg")
        assert np.allclose(got, [2.0 / 3.0, 1.0 / 3.0])

    def test_abs(self):
        assert np.allclose(normalize(np.array([-1.0, 3.0]), "abs"), [0.25, 0.75])

    def test_identity_rejects_negative(self):
        with pytest.raises(ParameterError):
            normalize(np.array([-1.0, 2.0]))

    def test_zero_denominator(self):
        with pytest.raises(ParameterError):
            normalize(np.zeros(3))

    def test_exp_shift_stability(self):
        got = normalize(np.array([1000.0, 1001.0]), "exp")
        assert np.isfinite(got).all()
        assert got.sum() == pytest.approx(1.0)

    def test_phi_is_checked_against_its_choices(self):
        assert np.allclose(normalize(np.array([1.0, 1.0]), "identity"), [0.5, 0.5])
        with pytest.raises(ParameterError, match="phi must be one of"):
            normalize(np.array([1.0, 1.0]), "softplus")


class TestGrassmannDistance:
    def test_same_span(self):
        v = np.array([1.0, 2.0, -1.0])
        assert grassmann_distance(v, 3.0 * v) == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal(self):
        got = grassmann_distance(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        assert got == pytest.approx(math.pi / 2.0, abs=1e-12)

    def test_45_degrees(self):
        got = grassmann_distance(np.array([1.0, 0.0]), np.array([1.0, 1.0]))
        assert got == pytest.approx(math.pi / 4.0, abs=1e-12)

    def test_zero_vector_rejected(self):
        with pytest.raises(ParameterError):
            grassmann_distance(np.zeros(2), np.ones(2))


class TestEquivariance:
    def test_katz_is_equivariant(self):
        rng = np.random.default_rng(13)
        for _ in range(5):
            g = Graph(rng.random((6, 6)))
            assert check_equivariance(partial(apply_map, "katz", 0.3), g)

    def test_pagerank_is_equivariant_with_positive_out_degrees(self):
        rng = np.random.default_rng(14)
        for _ in range(5):
            g = Graph(rng.random((6, 6)) + 0.05)
            assert check_equivariance(partial(apply_map, "pagerank", 0.85), g)

    def test_node_indexed_offset_breaks_equivariance(self):
        def offset(g, x):
            return 0.1 * x + np.arange(g.n, dtype=float)

        assert not check_equivariance(offset, Graph(np.zeros((5, 5))))
