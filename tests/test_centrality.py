import math

import numpy as np
import pytest

from fpcentral import (
    FixedPointMap,
    Graph,
    GraphGeneratorSpec,
    NonConvergenceError,
    Normalizer,
    NumericalError,
    ParameterError,
    SimplicityError,
    SolveConfig,
    apply_map,
    check_equivariance,
    eigencentrality,
    generate,
    grassmann_distance,
    graphon_katz,
    graphon_pagerank,
    katz_closed_form,
    lift,
    normalize,
    operator_norm,
    pagerank_closed_form,
    pagerank_kernel,
    solve,
    vector_norm,
)
from fpcentral.centrality import native_norm_index
from fpcentral.graphon import StepGraphon, graphon_eigencentrality
from oracles import eigencentrality_lapack_reference


def _c2():
    return Graph(np.array([[0.0, 1.0], [1.0, 0.0]]))


def _directed_3_cycle():
    w = np.zeros((3, 3))
    w[0, 1] = w[1, 2] = w[2, 0] = 1.0
    return Graph(w)


def _single_edge():
    return Graph(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestFixedPointMap:
    def test_alpha_required_for_katz_and_pagerank(self):
        for family in ("katz", "pagerank"):
            with pytest.raises(ParameterError):
                FixedPointMap(family)
            with pytest.raises(ParameterError):
                FixedPointMap(family, alpha=0.0)
            with pytest.raises(ParameterError):
                FixedPointMap(family, alpha=1.0)

    def test_alpha_forbidden_for_eigen(self):
        with pytest.raises(ParameterError):
            FixedPointMap("eigen", alpha=0.5)

    def test_affine_requires_matching_shapes(self):
        with pytest.raises(ParameterError):
            FixedPointMap("affine", affine_M=np.eye(2), affine_b=np.zeros(3))
        with pytest.raises(ParameterError):
            FixedPointMap("affine")

    def test_unknown_family(self):
        with pytest.raises(ParameterError):
            FixedPointMap("betweenness")


class TestApplyMap:
    def test_katz_uses_transposed_weights(self):
        g = _single_edge()
        m = FixedPointMap("katz", alpha=0.5)
        out = apply_map(m, g, np.array([1.0, 0.0]))
        # node 1 receives from node 0: A.T x puts the mass on index 1
        assert np.allclose(out, np.array([1.0, 1.5]))

    def test_eigen_has_no_update_map(self):
        with pytest.raises(ParameterError):
            apply_map(FixedPointMap("eigen"), _c2(), np.ones(2))


class TestSolve:
    def test_katz_c2_example(self):
        res = solve(_c2(), FixedPointMap("katz", alpha=0.5))
        assert np.allclose(res.rho, [2.0, 2.0], atol=1e-8)
        assert res.residual <= 1e-10

    def test_katz_zero_matrix_gives_ones(self):
        res = solve(Graph(np.zeros((3, 3))), FixedPointMap("katz", alpha=0.7))
        assert np.allclose(res.rho, np.ones(3), atol=1e-10)

    def test_pagerank_directed_3_cycle(self):
        res = solve(_directed_3_cycle(), FixedPointMap("pagerank", alpha=0.85))
        assert np.allclose(res.rho, np.full(3, 1.0 / 3.0), atol=1e-8)

    def test_iterative_matches_closed_form_on_seeded_graphs(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            n = int(rng.integers(2, 10))
            g = Graph(rng.random((n, n)) * (rng.random((n, n)) < 0.6))
            pr = solve(g, FixedPointMap("pagerank", alpha=0.85))
            assert vector_norm(pr.rho - pagerank_closed_form(g, 0.85), 1) <= 1e-8
            alpha = 0.5 / (operator_norm(g.weights, 2) + 1.0)
            kz = solve(g, FixedPointMap("katz", alpha=alpha))
            assert vector_norm(kz.rho - katz_closed_form(g, alpha), 2) <= 1e-8

    def test_katz_contraction_hypothesis_enforced(self):
        g = Graph(np.full((4, 4), 1.0))
        with pytest.raises(ParameterError):
            solve(g, FixedPointMap("katz", alpha=0.5))

    def test_slow_contraction_exhausts_budget(self):
        with pytest.raises(NonConvergenceError) as exc:
            solve(_c2(), FixedPointMap("katz", alpha=0.9999999))
        assert exc.value.last_iterate is not None
        assert exc.value.residual > 0.0

    def test_custom_config(self):
        res = solve(
            _c2(),
            FixedPointMap("katz", alpha=0.5),
            SolveConfig(tolerance=1e-6, initial=np.array([5.0, -3.0])),
        )
        assert res.residual <= 1e-6
        assert np.allclose(res.rho, [2.0, 2.0], atol=1e-4)

    def test_contraction_estimate_is_reported(self):
        res = solve(_c2(), FixedPointMap("katz", alpha=0.5))
        assert 0.0 < res.contraction_estimate <= 0.5 + 1e-9

    def test_affine_fixed_point(self):
        rng = np.random.default_rng(11)
        m = rng.random((3, 3))
        m *= 0.5 / np.linalg.norm(m, 2)
        b = rng.random(3)
        res = solve(
            Graph(np.zeros((3, 3))), FixedPointMap("affine", affine_M=m, affine_b=b)
        )
        expected = np.linalg.solve(np.eye(3) - m, b)
        assert np.allclose(res.rho, expected, atol=1e-8)

    def test_negative_fixed_point_suggests_normalizer(self):
        m = FixedPointMap(
            "affine", affine_M=0.5 * np.eye(2), affine_b=np.array([-1.0, 1.0])
        )
        with pytest.raises(ParameterError, match="[Nn]ormalizer"):
            solve(Graph(np.zeros((2, 2))), m)

    def test_eigen_family_dispatches(self):
        g = generate(GraphGeneratorSpec("cycle", 4))
        res = solve(g, FixedPointMap("eigen"))
        assert np.allclose(res.rho, np.full(4, 0.5), atol=1e-8)

    def test_native_norm_index(self):
        assert native_norm_index("pagerank") == 1
        assert native_norm_index("katz") == 2
        assert native_norm_index("eigen") == 2


class TestClosedForms:
    def test_katz_zero_matrix(self):
        g = Graph(np.zeros((3, 3)))
        assert np.allclose(katz_closed_form(g, 0.3), np.ones(3))

    def test_katz_c2(self):
        assert np.allclose(katz_closed_form(_c2(), 0.5), [2.0, 2.0])

    def test_katz_directed_edge(self):
        assert np.allclose(katz_closed_form(_single_edge(), 0.5), [1.0, 1.5])

    def test_katz_alpha_at_spectral_boundary(self):
        g = Graph(2.0 * np.array([[0.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(ParameterError, match="katz requires"):
            katz_closed_form(g, 0.5)

    def test_pagerank_directed_3_cycle(self):
        got = pagerank_closed_form(_directed_3_cycle(), 0.85)
        assert np.allclose(got, np.full(3, 1.0 / 3.0), atol=1e-12)

    def test_pagerank_k2(self):
        assert np.allclose(pagerank_closed_form(_c2(), 0.5), [0.5, 0.5])

    def test_pagerank_dangling_node_mass_leaks(self):
        got = pagerank_closed_form(_single_edge(), 0.5)
        assert np.allclose(got, [0.25, 0.375])
        # dangling column is zeroed, the lost mass is reported, not patched
        assert got.sum() == pytest.approx(0.625)

    def test_alpha_validation(self):
        for bad in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ParameterError):
                katz_closed_form(_c2(), bad)
            with pytest.raises(ParameterError):
                pagerank_closed_form(_c2(), bad)

    def test_inexact_solve_is_refused(self, monkeypatch):
        # a solve that returns a slightly wrong vector must not pass silently
        real_solve = np.linalg.solve
        monkeypatch.setattr(
            np.linalg, "solve", lambda lhs, rhs: real_solve(lhs, rhs) * (1.0 + 1e-6)
        )
        g = generate(GraphGeneratorSpec("cycle", 5))
        w = lift(g)
        for call in (
            lambda: katz_closed_form(g, 0.2),
            lambda: pagerank_closed_form(g, 0.85),
            lambda: graphon_katz(w, 0.8),
            lambda: graphon_pagerank(w, 0.85),
        ):
            with pytest.raises(NumericalError):
                call()


class TestPagerankKernel:
    def test_directed_3_cycle_is_permutation_matrix(self):
        k = pagerank_kernel(_directed_3_cycle())
        assert np.allclose(k.sum(axis=0), np.ones(3))
        assert set(np.unique(k)) == {0.0, 1.0}

    def test_dangling_column_is_zero(self):
        k = pagerank_kernel(_single_edge())
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
        with pytest.raises(SimplicityError):
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

    def test_index_route_smallest_eigenvalue(self):
        g = generate(GraphGeneratorSpec("path", 3))
        res = eigencentrality(g, which=2)
        assert res.value == pytest.approx(-math.sqrt(2.0), abs=1e-10)
        assert res.gap == pytest.approx(math.sqrt(2.0), abs=1e-10)
        assert res.rho is None
        expected = np.array([0.5, -math.sqrt(2.0) / 2.0, 0.5])
        assert np.allclose(np.abs(res.vector), np.abs(expected), atol=1e-10)

    def test_index_route_refuses_zero_eigenvalue(self):
        g = generate(GraphGeneratorSpec("path", 3))
        with pytest.raises(ParameterError, match="zero"):
            eigencentrality(g, which=1)

    def test_index_route_requires_simple_eigenvalue(self):
        g = generate(GraphGeneratorSpec("complete", 3))
        with pytest.raises(SimplicityError):
            eigencentrality(g, which=1)  # spectrum {2, -1, -1}

    def test_index_route_requires_symmetry(self):
        with pytest.raises(ParameterError):
            eigencentrality(_directed_3_cycle(), which=1)

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
        every = (-1000, -900, -300, -1, 1, 7, 300, 900)
        # Graph's 1e-12 symmetry test is absolute: below about 2^-40 this
        # directed graph reads as symmetric, so it is scaled down less
        cases = [(generate(GraphGeneratorSpec("path", 3)).weights, every),
                 (sym + sym.T, every),
                 (rng.random((6, 6)) * (rng.random((6, 6)) < 0.7), (-30, -1, 1, 7, 300, 900))]
        for w, scalings in cases:
            base = eigencentrality(Graph(w))
            for k in scalings:
                res = eigencentrality(Graph(np.ldexp(w, k)))
                assert np.array_equal(res.vector, base.vector), k
                assert res.value == np.ldexp(base.value, k), k
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
    def _assert_matches(g, which="largest", up_to_sign=False, vector_tol=1e-10):
        vec, value, gap, rho = eigencentrality_lapack_reference(g, which)
        res = eigencentrality(g, which)
        assert abs(res.value - value) <= 1e-12 * max(1.0, abs(value))
        assert res.gap == pytest.approx(gap, rel=1e-9, abs=1e-12 * max(1.0, abs(value)))
        diff = np.max(np.abs(res.vector - vec))
        if up_to_sign:
            diff = min(diff, np.max(np.abs(res.vector + vec)))
        assert diff <= vector_tol
        assert (res.rho is None) == (rho is None)
        assert 1 <= res.iterations <= 2
        return res

    def test_seeded_graphs(self):
        compared = 0
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
        assert compared >= 150

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

    def test_cube_smallest_eigenvalue(self):
        # the eigenvector for -3 alternates in sign and sums to 0, so its
        # orientation by the sum is arbitrary
        w = np.array([[float(bin(i ^ j).count("1") == 1) for j in range(8)] for i in range(8)])
        res = self._assert_matches(Graph(w), which=7, up_to_sign=True)
        assert res.value == pytest.approx(-3.0, abs=1e-13)
        assert abs(res.vector.sum()) <= 1e-14

    def test_start_is_not_orthogonal_to_the_alternating_vector(self):
        # the eigenvector of C_8 for -2 alternates in sign: it is orthogonal
        # to an all-ones start, which would leave its direction to rounding
        res = self._assert_matches(
            generate(GraphGeneratorSpec("cycle", 8)), which=7, up_to_sign=True
        )
        assert res.iterations == 1

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

    def test_normalizer_object_and_bad_phi(self):
        assert np.allclose(
            normalize(np.array([1.0, 1.0]), Normalizer("identity")), [0.5, 0.5]
        )
        with pytest.raises(ParameterError):
            Normalizer("softplus")


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
            assert check_equivariance(FixedPointMap("katz", alpha=0.3), g)

    def test_pagerank_is_equivariant_with_positive_out_degrees(self):
        rng = np.random.default_rng(14)
        for _ in range(5):
            g = Graph(rng.random((6, 6)) + 0.05)
            assert check_equivariance(FixedPointMap("pagerank", alpha=0.85), g)

    def test_node_indexed_offset_breaks_equivariance(self):
        m = FixedPointMap(
            "affine", affine_M=0.1 * np.eye(5), affine_b=np.arange(5, dtype=float)
        )
        g = Graph(np.zeros((5, 5)))
        assert not check_equivariance(m, g)
