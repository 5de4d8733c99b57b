import math

from functools import partial

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
from fpcentral.centrality import (
    _degrees,
    _operand,
    _prepare,
    _solve_direct,
    native_norm_index,
)
from fpcentral.graphs import _Entries, _strongly_connected
from fpcentral.graphon import StepGraphon, graphon_eigencentrality
from oracles import (
    GraphGeneratorSpec,
    apply_map,
    automorphisms_brute,
    check_equivariance,
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
    """The Katz closed form that graphon_katz solves, on a graph."""
    return _solve_direct(_prepare("katz", alpha, g))


def _pagerank(g, alpha):
    """The PageRank closed form that graphon_pagerank solves, on a graph."""
    return _solve_direct(_prepare("pagerank", alpha, g))


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

    def test_tolerance_and_budget_are_the_module_constants(self, monkeypatch):
        res = solve(_c2(), "katz", 0.5)
        assert res.residual <= centrality.SOLVE_TOL
        monkeypatch.setattr(centrality, "SOLVE_TOL", 1e-6)
        coarse = solve(_c2(), "katz", 0.5)
        assert coarse.residual <= 1e-6 and coarse.iterations < res.iterations
        assert np.allclose(coarse.rho, [2.0, 2.0], atol=1e-4)
        monkeypatch.setattr(centrality, "SOLVE_MAX_ITERATIONS", coarse.iterations - 1)
        with pytest.raises(NonConvergenceError, match=f"within {coarse.iterations - 1} "):
            solve(_c2(), "katz", 0.5)

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

    def test_eigen_family_dispatches(self):
        g = generate(GraphGeneratorSpec("cycle", 4))
        res = solve(g, "eigen")
        assert np.allclose(res.rho, np.full(4, 0.5), atol=1e-8)

    def test_native_norm_index(self):
        assert native_norm_index("pagerank") == 1
        assert native_norm_index("katz") == 2
        assert native_norm_index("eigen") == 2


class TestClosedForms:
    def test_katz_zero_matrix(self):
        g = Graph(np.zeros((3, 3)))
        assert np.allclose(_katz(g, 0.3), np.ones(3))

    def test_katz_c2(self):
        assert np.allclose(_katz(_c2(), 0.5), [2.0, 2.0])

    def test_katz_directed_edge(self):
        assert np.allclose(_katz(_single_edge(), 0.5), [1.0, 1.5])

    def test_katz_alpha_at_spectral_boundary(self):
        g = Graph(2.0 * np.array([[0.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(ParameterError, match="katz requires"):
            _katz(g, 0.5)

    def test_pagerank_refused_unless_l0_is_below_one(self):
        # a signed graph whose kernel has 1-norm 3; solve used to iterate
        # to NaN and give up after its budget
        g = Graph(np.array([[0.0, 2.0, -1.0], [1.0, 0.0, 0.0], [1.0, 1.0, 0.0]]))
        message = r"pagerank requires alpha \* \|\|A\^T D\^-1\|\|_1 < 1, got 2.55"
        with pytest.raises(ParameterError, match=message):
            solve(g, "pagerank", 0.85)
        with pytest.raises(ParameterError, match=message):
            _pagerank(g, 0.85)

    def test_pagerank_directed_3_cycle(self):
        got = _pagerank(_directed_3_cycle(), 0.85)
        assert np.allclose(got, np.full(3, 1.0 / 3.0), atol=1e-12)

    def test_pagerank_k2(self):
        assert np.allclose(_pagerank(_c2(), 0.5), [0.5, 0.5])

    def test_pagerank_dangling_node_mass_leaks(self):
        got = _pagerank(_single_edge(), 0.5)
        assert np.allclose(got, [0.25, 0.375])
        # dangling column is zeroed, the lost mass is reported, not patched
        assert got.sum() == pytest.approx(0.625)

    def test_alpha_validation(self):
        for bad in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ParameterError):
                _katz(_c2(), bad)
            with pytest.raises(ParameterError):
                _pagerank(_c2(), bad)

    def test_inexact_solve_is_refused(self, monkeypatch):
        # a solve that returns a slightly wrong vector must not pass silently
        real_solve = np.linalg.solve
        monkeypatch.setattr(
            np.linalg, "solve", lambda lhs, rhs: real_solve(lhs, rhs) * (1.0 + 1e-6)
        )
        g = generate(GraphGeneratorSpec("cycle", 5))
        w = lift(g)
        for call in (
            lambda: _katz(g, 0.2),
            lambda: _pagerank(g, 0.85),
            lambda: graphon_katz(w, 0.8),
            lambda: graphon_pagerank(w, 0.85),
        ):
            with pytest.raises(NumericalError):
                call()


    @pytest.mark.parametrize("n", [1, 2, 7, 130])
    def test_left_side_in_place_has_the_bits_of_eye_minus(self, n, monkeypatch):
        solved = []
        lapack = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve",
                            lambda lhs, rhs: solved.append(lhs) or lapack(lhs, rhs))
        rng = np.random.default_rng(n)
        signed = rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.5)
        signed[0, -1] = -0.0
        binary = (rng.random((n, n)) < 0.3) * 1.0
        for m in (signed, np.asfortranarray(signed), binary):
            for alpha in (0.3, 1e-300, 7.5):
                # records without the contraction check, so any alpha goes
                g = Graph(m)
                cases = [("katz", alpha * m.T)]
                if m is binary:
                    cases.append(("pagerank", alpha * _kernel(g)))
                for family, scaled in cases:
                    _solve_direct(_operand(family, alpha, g))
                    got, expected = solved.pop(), np.eye(n) - scaled
                    # viewed as integers, so the signs of zeros count too
                    assert np.array_equal(got.view(np.int64), expected.view(np.int64))

    def test_closed_forms_solve_the_same_system_as_eye_minus(self):
        rng = np.random.default_rng(16)
        for n, directed in ((5, False), (40, True), (130, False)):
            w = (rng.random((n, n)) < 0.2) * 1.0
            if not directed:
                w = np.triu(w, 1) + np.triu(w, 1).T
            g = Graph(w)
            alpha = 0.5 / operator_norm(w, 2) if w.any() else 0.5
            katz = np.linalg.solve(np.eye(n) - alpha * w.T, np.ones(n))
            assert np.array_equal(_katz(g, alpha), katz)
            kernel = _kernel(g)
            pagerank = np.linalg.solve(np.eye(n) - 0.85 * kernel, np.full(n, (1.0 - 0.85) / n))
            assert np.array_equal(_pagerank(g, 0.85), pagerank)


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


class TestEigencentrality:
    def test_c4(self):
        g = generate(GraphGeneratorSpec("cycle", 4))
        res = eigencentrality(g)
        assert res.value == pytest.approx(2.0, abs=1e-9)
        assert np.allclose(res.rho, np.full(4, 0.5), atol=1e-8)
        assert res.gap == pytest.approx(2.0, abs=1e-8)

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
        assert res.gap == pytest.approx(math.sqrt(2.0) * weight, rel=1e-14)
        assert np.allclose(res.vector, [0.5, math.sqrt(0.5), 0.5], atol=1e-14)

    def test_power_of_two_scalings_give_the_same_bits(self):
        rng = np.random.default_rng(40)
        sym = rng.random((7, 7))
        # Graph's symmetry tolerance scales with the peak entry, so the
        # directed graph stays directed at every scale
        cases = [generate(GraphGeneratorSpec("path", 3)).weights, sym + sym.T,
                 rng.random((6, 6)) * (rng.random((6, 6)) < 0.7)]
        for w in cases:
            base = eigencentrality(Graph(w))
            # the directed case takes the Perron route at every scale
            assert (base.gap is None) == takes_the_perron_route(Graph(w)) == (w is cases[2])
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
        # at 6.5e307 the gap of A, 3 * 6.5e307, overflows but the value
        # does not; an infinite gap still means a simple eigenvalue
        res = eigencentrality(Graph(w * 0.65))
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


class TestEigenAgainstLapack:
    """Eigenvalues without vectors plus inverse iteration against the full
    eig/eigh decomposition: the same decisions, values to 1e-12 relative,
    unit vectors to 1e-10 in max-abs."""

    @staticmethod
    def _assert_matches(g, vector_tol=1e-10):
        vec, value, gap, rho = eigencentrality_lapack_reference(g)
        res = eigencentrality(g)
        assert abs(res.value - value) <= 1e-12 * max(1.0, abs(value))
        if takes_the_perron_route(g):
            assert res.gap is None
        else:
            assert res.gap == pytest.approx(gap, rel=1e-9, abs=1e-12 * max(1.0, abs(value)))
        assert np.max(np.abs(res.vector - vec)) <= vector_tol
        assert (res.rho is None) == (rho is None)
        assert 1 <= res.iterations <= 2
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
            self._assert_matches(g)
            compared += 1
            routed += takes_the_perron_route(g)
        assert compared >= 150 and routed >= 80

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_complete_graphs(self, n):
        res = self._assert_matches(generate(GraphGeneratorSpec("complete", n)))
        assert res.value == pytest.approx(n - 1.0, rel=1e-14)
        if n in (4, 5):
            # eigvalsh returns the Perron values 3 and 4 exactly, so the
            # first shifted solve is singular and the shift moves
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
        res = self._assert_matches(generate(GraphGeneratorSpec("path", 3)))
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


def _coupled_cliques(c):
    """Two 4-cliques coupled by c one way and 2c the other: strongly
    connected, with leading eigenvalues 3 +- 4 sqrt(2) c."""
    j = np.ones((4, 4)) - np.eye(4)
    w = np.zeros((8, 8))
    w[:4, :4] = w[4:, 4:] = j
    w[:4, 4:] = c
    w[4:, :4] = 2.0 * c
    return w


class TestPerronRoute:
    """A directed graph with no negative weight that is strongly connected
    takes its leading eigenvalue from the Collatz-Wielandt bracket and no
    spectrum; every other graph, and one whose bracket does not close, takes
    the spectrum route, bit for bit."""

    ROUTED = {
        "listed-ring-with-chords": _ring_with_chords(200),
        "dense-6": np.random.default_rng(6).random((6, 6)) + 0.1,
        "3-cycle": _cycle([1.0] * 3),
        "4-cycle": _cycle([1.0] * 4),
        # periodic, with a Perron vector other than the all-ones start
        "weighted-3-cycle": _cycle([1.0, 2.0, 3.0]),
        "weighted-4-cycle": _cycle([1.0, 1.5, 0.5, 2.0]),
    }

    @staticmethod
    def _spectrum_route(monkeypatch, g):
        """eigencentrality(g) with the Perron route closed."""
        with monkeypatch.context() as m:
            m.setattr(centrality, "_strongly_connected", lambda w: False)
            return eigencentrality(g)

    @staticmethod
    def _assert_same_bits(res, ref):
        assert np.array_equal(res.vector, ref.vector)
        assert (res.value, res.gap, res.residual, res.iterations) == (
            ref.value, ref.gap, ref.residual, ref.iterations)
        assert (res.rho is None) == (ref.rho is None)

    @pytest.mark.parametrize("name", list(ROUTED))
    def test_the_route_takes_no_spectrum(self, monkeypatch, name):
        g = Graph(self.ROUTED[name])
        assert takes_the_perron_route(g)
        assert isinstance(g._held, _Entries) == (name == "listed-ring-with-chords")
        vec, value, _, rho = eigencentrality_lapack_reference(g)

        def refuse(*args, **kwargs):
            raise AssertionError("the spectrum was taken")

        monkeypatch.setattr(np.linalg, "eigvals", refuse)
        res = eigencentrality(g)
        assert res.gap is None
        assert abs(res.value - value) <= 1e-12 * abs(value)
        assert np.max(np.abs(res.vector - vec)) <= 1e-10
        assert rho is not None and res.rho is not None
        assert 1 <= res.iterations <= 2

    @pytest.mark.parametrize("w", [
        np.array([[0.0, 1.0, 0.5], [-0.25, 0.0, 1.0], [1.0, 0.5, 0.0]]),
        _joined_cycles(),
    ], ids=["negative-weight", "joined-cycles"])
    def test_other_graphs_take_the_spectrum_route(self, monkeypatch, w):
        g = Graph(w)
        assert not g.symmetric and not takes_the_perron_route(g)
        ref = self._spectrum_route(monkeypatch, g)

        def refuse(*args):
            raise AssertionError("a bracket was tried")

        monkeypatch.setattr(centrality, "_perron_root", refuse)
        res = eigencentrality(g)
        assert res.gap is not None and res.rho is not None
        self._assert_same_bits(res, ref)

    def test_a_bracket_that_does_not_close_takes_the_spectrum_route(self, monkeypatch):
        g = Graph(self.ROUTED["listed-ring-with-chords"])
        ref = self._spectrum_route(monkeypatch, g)
        monkeypatch.setattr(centrality, "PERRON_MAX_ITERATIONS", 2)
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
        monkeypatch.setattr(centrality, "_perron_root",
                            lambda w, tol: brackets.append(perron_root(w, tol)))
        message = r"^leading eigenvalue is not simple \(gap 5\.657e-09 < 1e-08\)$"
        with pytest.raises(SimplicityError, match=message):
            eigencentrality(g)
        assert brackets == [None]
        with pytest.raises(SimplicityError, match=message):
            self._spectrum_route(monkeypatch, g)

    def test_the_reach_search_agrees_with_the_closure(self):
        rng = np.random.default_rng(2801)
        for _ in range(300):
            n = int(rng.integers(1, 40))
            w = rng.random((n, n)) * (rng.random((n, n)) < rng.uniform(0.0, 4.0 / n))
            assert _strongly_connected(w) == strongly_connected(w), w
        for w in (*self.ROUTED.values(), _joined_cycles(), np.zeros((1, 1))):
            assert _strongly_connected(w) == strongly_connected(w)


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
