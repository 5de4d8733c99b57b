import itertools
import math

import numpy as np
import pytest

from fpcentral import (
    Graph,
    GraphGeneratorSpec,
    ParameterError,
    Permutation,
    StepFunction,
    StepGraphon,
    apply,
    block_permute,
    cut_norm_exact,
    generate,
    graphon_cut_norm,
    graphon_degree,
    graphon_eigencentrality,
    graphon_katz,
    graphon_op_norm,
    graphon_pagerank,
    integral,
    katz_closed_form,
    lift,
    min_permuted_distance,
    operator_norm,
    permute,
    refine,
    resample,
    step_lp_norm,
)

from oracles import cut_norm_brute, random_binary_symmetric, random_symmetric


def _constant(value, k=1, c=None):
    return StepGraphon(np.full((k, k), float(value)), c=c)


class TestContainers:
    def test_step_function_validation(self):
        with pytest.raises(ParameterError):
            StepFunction(np.array([]))
        with pytest.raises(ParameterError):
            StepFunction(np.ones((2, 2)))
        with pytest.raises(ParameterError):
            StepFunction(np.array([1.0, np.nan]))

    def test_step_graphon_requires_symmetry(self):
        with pytest.raises(ParameterError):
            StepGraphon(np.array([[0.0, 1.0], [0.5, 0.0]]))

    def test_step_graphon_symmetry_tolerance_is_the_graphs(self):
        # Graph's own 1e-12 check decides
        for gap, symmetric in ((5e-13, True), (3e-12, False)):
            values = np.array([[0.0, 0.5], [0.5 + gap, 0.0]])
            assert Graph(values).symmetric is symmetric
            if symmetric:
                StepGraphon(values)
            else:
                with pytest.raises(ParameterError, match="the matrix is not symmetric"):
                    StepGraphon(values)

    def test_step_graphon_peak_vs_c(self):
        with pytest.raises(ParameterError):
            StepGraphon(np.array([[2.0]]), c=1.0)
        w = StepGraphon(np.array([[-0.5]]))
        assert w.c == 0.5

    @pytest.mark.parametrize(
        "c", [math.inf, -math.inf, float("nan"), True, False, np.bool_(True), "x", [1.0], 10**400],
        ids=["inf", "-inf", "nan", "true", "false", "numpy-bool", "string", "list", "huge-int"],
    )
    def test_step_graphon_refuses_a_bad_c(self, c):
        # c was checked only on the JSON path: inf, nan and True were taken,
        # and a string raised TypeError
        with pytest.raises(ParameterError, match="finite real number"):
            StepGraphon(np.array([[0.5]]), c=c)

    def test_step_graphon_accepts_real_c(self):
        for c in (1, 0.5, np.float64(2.0), np.int64(3)):
            assert StepGraphon(np.array([[0.5]]), c=c).c == float(c)

    def test_c_defaults_to_peak(self):
        w = StepGraphon(np.array([[0.3, 0.7], [0.7, 0.1]]))
        assert w.c == 0.7
        assert w.k == 2


class TestLift:
    def test_k2(self):
        w = lift(Graph(np.array([[0.0, 1.0], [1.0, 0.0]])))
        assert np.array_equal(w.values, np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert w.k == 2 and w.c == 1.0

    def test_zero_graph(self):
        w = lift(Graph(np.zeros((3, 3))))
        assert np.array_equal(w.values, np.zeros((3, 3)))

    def test_requires_symmetry(self):
        with pytest.raises(ParameterError):
            lift(Graph(np.array([[0.0, 1.0], [0.0, 0.0]])))

    def test_custom_c(self):
        g = Graph(np.array([[0.0, 0.5], [0.5, 0.0]]))
        assert lift(g, c=2.0).c == 2.0
        with pytest.raises(ParameterError):
            lift(g, c=0.25)

    def test_c4_operator_norm(self):
        g = generate(GraphGeneratorSpec("cycle", 4))
        w = lift(g)
        assert graphon_op_norm(w) == pytest.approx(
            operator_norm(g.weights, 2) / 4.0, abs=1e-10
        )
        assert graphon_op_norm(w) == pytest.approx(0.5, abs=1e-9)


class TestResampleRefine:
    def test_resample_repeats_blocks(self):
        f = resample(StepFunction(np.array([1.0, 2.0])), 4)
        assert np.array_equal(f.values, np.array([1.0, 1.0, 2.0, 2.0]))

    def test_resample_preserves_integral(self):
        f = StepFunction(np.array([0.2, 0.9, 0.4]))
        assert integral(resample(f, 9)) == pytest.approx(integral(f), abs=1e-15)

    def test_resample_rejects_incompatible_k(self):
        with pytest.raises(ParameterError):
            resample(StepFunction(np.array([1.0, 2.0])), 3)

    def test_refine_is_kron_with_ones(self):
        w = StepGraphon(np.array([[0.1, 0.6], [0.6, 0.2]]))
        r = refine(w, 4)
        assert r.k == 4
        assert np.array_equal(r.values, np.kron(w.values, np.ones((2, 2))))

    def test_refine_preserves_norms(self):
        rng = np.random.default_rng(20)
        w = StepGraphon(random_symmetric(rng, 3, 0.0, 1.0))
        r = refine(w, 9)
        assert graphon_op_norm(r) == pytest.approx(graphon_op_norm(w), abs=1e-9)
        assert graphon_cut_norm(r) == pytest.approx(graphon_cut_norm(w), abs=1e-10)

    def test_refine_rejects_non_multiple(self):
        w = StepGraphon(np.zeros((2, 2)))
        with pytest.raises(ParameterError):
            refine(w, 5)


class TestStepNorms:
    def test_integral_is_mean(self):
        assert integral(StepFunction(np.array([1.0, 3.0]))) == 2.0

    def test_lp_norms(self):
        f = StepFunction(np.array([1.0, -1.0]))
        assert step_lp_norm(f, 1) == 1.0
        assert step_lp_norm(f, 2) == 1.0
        assert step_lp_norm(f, math.inf) == 1.0
        g = StepFunction(np.array([3.0, 0.0]))
        assert step_lp_norm(g, 1) == 1.5
        assert step_lp_norm(g, 2) == pytest.approx(math.sqrt(4.5))
        assert step_lp_norm(g, math.inf) == 3.0


class TestApply:
    def test_constant_half_on_ones(self):
        out = apply(_constant(0.5), StepFunction(np.ones(3)))
        assert np.allclose(out.values, np.full(3, 0.5))

    def test_zero_graphon(self):
        out = apply(_constant(0.0, k=2), StepFunction(np.array([3.0, -1.0])))
        assert np.array_equal(out.values, np.zeros(2))

    def test_lift_k2_on_indicator(self):
        w = lift(Graph(np.array([[0.0, 1.0], [1.0, 0.0]])))
        out = apply(w, StepFunction(np.array([1.0, 0.0])))
        assert np.allclose(out.values, np.array([0.0, 0.5]))

    def test_commensurate_resampling_both_directions(self):
        w = StepGraphon(np.array([[0.2, 0.8], [0.8, 0.4]]))
        fine = apply(w, StepFunction(np.array([1.0, 0.0, 0.0, 1.0])))
        assert fine.k == 4
        coarse = apply(w, StepFunction(np.array([1.0])))
        assert coarse.k == 2
        # a refined graphon acting on the matching refined step agrees
        ref = apply(refine(w, 4), StepFunction(np.array([1.0, 0.0, 0.0, 1.0])))
        assert np.allclose(fine.values, ref.values)

    def test_incommensurate_blocks_rejected(self):
        w = StepGraphon(np.zeros((2, 2)))
        with pytest.raises(ParameterError, match="incommensurate"):
            apply(w, StepFunction(np.zeros(3)))


class TestGraphonPagerank:
    def test_constant_half(self):
        rho = graphon_pagerank(_constant(0.5), 0.85)
        assert np.allclose(rho.values, np.ones(1), atol=1e-12)

    def test_two_disconnected_blocks(self):
        w = StepGraphon(np.array([[1.0, 0.0], [0.0, 1.0]]))
        rho = graphon_pagerank(w, 0.5)
        assert np.allclose(rho.values, np.ones(2), atol=1e-12)

    def test_integrates_to_one_with_positive_degree(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            k = int(rng.integers(1, 7))
            w = StepGraphon(np.clip(random_symmetric(rng, k, 0.05, 1.0), 0.05, 1.0))
            rho = graphon_pagerank(w, 0.85)
            assert integral(rho) == pytest.approx(1.0, abs=1e-10)
            assert float(np.min(rho.values)) >= -1e-12

    def test_requires_w0_values(self):
        with pytest.raises(ParameterError):
            graphon_pagerank(_constant(1.5), 0.5)
        with pytest.raises(ParameterError):
            graphon_pagerank(_constant(-0.2), 0.5)

    def test_alpha_validation(self):
        with pytest.raises(ParameterError):
            graphon_pagerank(_constant(0.5), 1.0)

    def test_degree_and_kernel(self):
        w = StepGraphon(np.array([[1.0, 0.0], [0.0, 0.0]]))
        assert np.allclose(graphon_degree(w), [0.5, 0.0])
        rho = graphon_pagerank(w, 0.5)
        # block 2 is dangling: its column contributes nothing
        assert float(np.min(rho.values)) >= 0.0


class TestGraphonKatz:
    def test_zero_graphon(self):
        rho = graphon_katz(_constant(0.0, k=2), 0.5)
        assert np.allclose(rho.values, np.ones(2))

    def test_constant_half(self):
        rho = graphon_katz(_constant(0.5), 0.5)
        assert np.allclose(rho.values, np.full(1, 4.0 / 3.0), atol=1e-12)

    def test_lift_matches_finite_katz_at_scaled_alpha(self):
        g = generate(GraphGeneratorSpec("cycle", 4))
        rho = graphon_katz(lift(g), 0.8)
        assert np.allclose(rho.values, katz_closed_form(g, 0.2), atol=1e-10)

    def test_contraction_hypothesis(self):
        with pytest.raises(ParameterError):
            graphon_katz(_constant(2.0), 0.6)


class TestGraphonEigen:
    def test_constant_graphon(self):
        rho, lam = graphon_eigencentrality(_constant(0.7))
        assert lam == pytest.approx(0.7, abs=1e-10)
        assert np.allclose(rho.values, np.ones(1), atol=1e-9)

    def test_lift_c4(self):
        rho, lam = graphon_eigencentrality(lift(generate(GraphGeneratorSpec("cycle", 4))))
        assert lam == pytest.approx(0.5, abs=1e-9)
        assert np.allclose(rho.values, np.ones(4), atol=1e-8)
        assert step_lp_norm(rho, 2) == pytest.approx(1.0, abs=1e-9)

    def test_block_diagonal_concentrates(self):
        w = StepGraphon(np.array([[0.9, 0.0], [0.0, 0.3]]))
        rho, lam = graphon_eigencentrality(w)
        assert lam == pytest.approx(0.45, abs=1e-10)
        assert np.allclose(rho.values, [math.sqrt(2.0), 0.0], atol=1e-8)

    def test_zero_graphon_refused(self):
        with pytest.raises(ParameterError):
            graphon_eigencentrality(_constant(0.0, k=2))


class TestGraphonNorms:
    def test_cut_norm_constant_one(self):
        assert graphon_cut_norm(_constant(1.0)) == pytest.approx(1.0, abs=1e-12)

    def test_cut_norm_zero(self):
        assert graphon_cut_norm(_constant(0.0, k=3)) == 0.0

    def test_cut_norm_of_lift(self):
        rng = np.random.default_rng(22)
        for _ in range(10):
            n = int(rng.integers(2, 9))
            a = random_binary_symmetric(rng, n, 0.5)
            got = graphon_cut_norm(lift(Graph(a)))
            assert got == pytest.approx(cut_norm_exact(a).value / n ** 2, abs=1e-12)
            assert got == pytest.approx(cut_norm_brute(a) / n ** 2, abs=1e-12)

    def test_cut_norm_refinement_invariance(self):
        rng = np.random.default_rng(23)
        w = StepGraphon(random_symmetric(rng, 4, -1.0, 1.0))
        assert graphon_cut_norm(refine(w, 8)) == pytest.approx(
            graphon_cut_norm(w), abs=1e-12
        )

    def test_op_norm_constant(self):
        assert graphon_op_norm(_constant(0.8)) == pytest.approx(0.8, abs=1e-10)

    def test_op_norm_lift_k2(self):
        w = lift(Graph(np.array([[0.0, 1.0], [1.0, 0.0]])))
        assert graphon_op_norm(w) == pytest.approx(0.5, abs=1e-10)

    def test_lemma1_on_seeded_graphons(self):
        rng = np.random.default_rng(24)
        for _ in range(30):
            k = int(rng.integers(1, 8))
            w = StepGraphon(random_symmetric(rng, k, -1.0, 1.0))
            assert graphon_op_norm(w) <= math.sqrt(8.0 * graphon_cut_norm(w)) + 1e-9


def _block_cut_distance(a, b, mode="exact"):
    """The cut norm of the values' difference minimized over block
    relabelings: k^2 times the block cut distance of the graphons."""
    return min_permuted_distance(Graph(a.values), Graph(b.values), "cut", mode=mode)


class TestCutDistance:
    def test_identical(self):
        rng = np.random.default_rng(25)
        w = StepGraphon(random_symmetric(rng, 4, 0.0, 1.0))
        res = _block_cut_distance(w, w)
        assert res.value == 0.0
        assert res.certified

    def test_block_relabeling_is_free(self):
        rng = np.random.default_rng(26)
        w = StepGraphon(random_symmetric(rng, 5, 0.0, 1.0))
        moved = block_permute(w, Permutation(np.array([2, 0, 4, 1, 3])))
        assert _block_cut_distance(w, moved).value == pytest.approx(0.0, abs=1e-12)

    def test_matches_factorial_brute_force(self):
        rng = np.random.default_rng(27)
        a = StepGraphon(random_symmetric(rng, 5, 0.0, 1.0))
        b = StepGraphon(random_symmetric(rng, 5, 0.0, 1.0))
        got = _block_cut_distance(a, b).value
        best = min(
            cut_norm_brute(a.values[np.ix_(m, m)] - b.values)
            for m in (np.array(p) for p in itertools.permutations(range(5)))
        )
        assert got == pytest.approx(best, abs=1e-12)

    def test_greedy_mode_upper_bounds(self):
        rng = np.random.default_rng(28)
        a = StepGraphon(random_symmetric(rng, 5, 0.0, 1.0))
        b = StepGraphon(random_symmetric(rng, 5, 0.0, 1.0))
        exact = _block_cut_distance(a, b)
        greedy = _block_cut_distance(a, b, mode="greedy")
        assert greedy.value >= exact.value - 1e-12

    def test_k_mismatch(self):
        with pytest.raises(ParameterError):
            _block_cut_distance(_constant(0.5), _constant(0.5, k=2))


class TestBlockPermute:
    def test_norm_invariance(self):
        rng = np.random.default_rng(29)
        w = StepGraphon(random_symmetric(rng, 4, -1.0, 1.0))
        p = Permutation(np.array([3, 1, 0, 2]))
        moved = block_permute(w, p)
        assert graphon_op_norm(moved) == pytest.approx(graphon_op_norm(w), abs=1e-9)
        assert graphon_cut_norm(moved) == pytest.approx(graphon_cut_norm(w), abs=1e-12)

    def test_size_check(self):
        with pytest.raises(ParameterError):
            block_permute(_constant(0.5, k=2), Permutation(np.arange(3)))

    def test_matches_permute_on_the_values(self):
        rng = np.random.default_rng(30)
        for k in (1, 3, 6):
            w = StepGraphon(random_symmetric(rng, k, -1.0, 1.0), c=2.0)
            mapping = rng.permutation(k)
            for p in (Permutation(mapping), mapping.tolist()):
                moved = block_permute(w, p)
                expected = permute(Graph(w.values), Permutation(mapping)).weights
                assert np.array_equal(moved.values, expected)
                assert moved.c == 2.0 and moved.k == k
