import itertools
import math

import numpy as np
import pytest

from fpcentral import (
    Graph,
    ParameterError,
    Permutation,
    StepFunction,
    StepGraphon,
    cut_norm_exact,
    graphon_eigencentrality,
    graphon_katz,
    graphon_pagerank,
    integral,
    lift,
    min_permuted_distance,
    operator_norm,
    permute,
)

from fpcentral.graphs import _Dense, _Entries
from oracles import (
    GraphGeneratorSpec,
    cut_norm_brute,
    generate,
    katz_reference,
    permute_vector,
    random_binary_symmetric,
    random_symmetric,
)


def _constant(value, k=1, c=None):
    return StepGraphon(np.full((k, k), float(value)), c=c)


def _op_norm(w):
    """The L^2 -> L^2 operator norm of a step graphon: the 2-norm of its
    values over k."""
    return operator_norm(w.values, 2) / w.k


def _cut_norm(w):
    """The cut norm of a step graphon: the cut norm of its values over k^2."""
    return cut_norm_exact(w.values).value / w.k**2


def _refined(w, m):
    """The same graphon on the partition of m * k blocks."""
    return StepGraphon(np.kron(w.values, np.ones((m, m))))


def _relabeled(w, p):
    """The graphon with its blocks relabeled by ``p``."""
    return StepGraphon(permute(Graph(w.values), p).weights)


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
        # Graph's own rule decides: 1e-12 times 2^-1 for the peak 0.5
        for gap, symmetric in ((2.5e-13, True), (3e-12, False)):
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

    def test_step_graphon_bound_is_checked_at_the_values_scale(self):
        # the margin over c is the matrix tolerance of the values, so a tiny
        # c is enforced: values 1e10 times the bound used to pass
        with pytest.raises(ParameterError, match="exceed the declared bound"):
            StepGraphon(np.array([[1e-20]]), c=1e-30)
        for k in (-60, 0, 60):
            peak, tol = math.ldexp(1.5, k), math.ldexp(1e-12, k)
            StepGraphon(np.array([[peak]]), c=peak - tol / 2)
            with pytest.raises(ParameterError, match="exceed the declared bound"):
                StepGraphon(np.array([[peak]]), c=peak - 2 * tol)

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


    @pytest.mark.parametrize("scale", [-60, 0, 60])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_listed_and_dense_values_give_the_same_c_and_errors(self, scale, sign):
        # a listed graph's peak and tolerance come from its list of entries,
        # with the bits and the refusals of the pass over the whole matrix
        m = np.zeros((64, 64))
        m[0, 0] = sign * math.ldexp(1.5, scale)  # the peak, first in the list
        m[2, 3] = m[3, 2] = math.ldexp(-0.75, scale)
        m[5, 5] = -0.0
        peak, tol = math.ldexp(1.5, scale), math.ldexp(1e-12, scale)
        for values in (m, np.zeros((64, 64)), -np.zeros((64, 64))):
            top = float(np.max(np.abs(values)))
            for c in (None, top, top - tol / 2, top - 2 * tol, 0.0, -0.0, peak * 2):
                outcomes = []
                listed = Graph(values)
                assert isinstance(listed._held, _Entries)
                # the same matrix held as its array, whatever its density;
                # both forms hold +0.0 for -0.0
                for g in (listed, Graph._holding(_Dense(values.copy()))):
                    assert g.weights.tobytes() == (values + 0.0).tobytes()
                    try:
                        outcomes.append(np.float64(StepGraphon._adopt(g, c).c).tobytes())
                    except ParameterError as exc:
                        outcomes.append(str(exc))
                assert outcomes[0] == outcomes[1], (c, outcomes)

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
        assert _op_norm(w) == pytest.approx(operator_norm(g.weights, 2) / 4.0, abs=1e-10)
        assert _op_norm(w) == pytest.approx(0.5, abs=1e-9)


class TestResampleRefine:
    def test_refine_preserves_norms(self):
        rng = np.random.default_rng(20)
        w = StepGraphon(random_symmetric(rng, 3, 0.0, 1.0))
        r = _refined(w, 3)
        assert _op_norm(r) == pytest.approx(_op_norm(w), abs=1e-9)
        assert _cut_norm(r) == pytest.approx(_cut_norm(w), abs=1e-10)

    def test_refine_leaves_every_centrality_unchanged(self):
        # the same graphon written on a finer partition has the same katz,
        # pagerank and eigen densities and the same eigenvalue
        def assert_same(coarse, fine):
            expected = np.repeat(coarse.values, fine.k // coarse.k)
            assert np.max(np.abs(fine.values - expected)) <= 1e-13 * np.max(np.abs(expected))

        rng = np.random.default_rng(20261019)
        for _ in range(60):
            k, m = int(rng.integers(2, 9)), int(rng.integers(2, 4))
            u = rng.random((k, k))
            w = StepGraphon((u + u.T) / 2.0)
            r = _refined(w, m)
            alpha = 0.5 / _op_norm(w)
            assert_same(graphon_katz(w, alpha), graphon_katz(r, alpha))
            assert_same(graphon_pagerank(w, 0.85), graphon_pagerank(r, 0.85))
            (rho, lam), (rho_r, lam_r) = graphon_eigencentrality(w), graphon_eigencentrality(r)
            assert_same(rho, rho_r)
            assert lam_r == pytest.approx(lam, rel=1e-13, abs=0.0)


class TestStepNorms:
    def test_integral_is_mean(self):
        assert integral(StepFunction(np.array([1.0, 3.0]))) == 2.0


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
        rho = graphon_pagerank(w, 0.5)
        # block 2 is dangling: its column contributes nothing
        assert float(np.min(rho.values)) >= 0.0

    def test_zero_graphon_keeps_only_the_teleport_mass(self):
        # every column is dangling, so rho = (1 - alpha) 1
        rho = graphon_pagerank(_constant(0.0, k=3), 0.85)
        assert np.allclose(rho.values, np.full(3, 0.15), atol=1e-15)

    def test_density_solves_its_equation(self):
        # rho = alpha (A o D^-1) rho + (1 - alpha) 1 with D(y) = int A(x, y) dx,
        # on graphons whose last block is dangling
        rng = np.random.default_rng(31)
        for k in (1, 3, 5):
            v = np.zeros((k + 1, k + 1))
            v[:k, :k] = random_symmetric(rng, k, 0.0, 1.0)
            w = StepGraphon(v)
            rho = graphon_pagerank(w, 0.7).values
            degree = v.mean(axis=0)
            kernel = np.divide(v, degree, out=np.zeros_like(v), where=degree > 0)
            expected = 0.7 * (kernel @ rho) / w.k + 0.3
            assert np.max(np.abs(rho - expected)) <= 1e-12
            assert rho[k] == pytest.approx(0.3, abs=1e-15)


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
        assert np.allclose(rho.values, katz_reference(g, 0.2), atol=1e-10)

    def test_contraction_hypothesis(self):
        with pytest.raises(ParameterError):
            graphon_katz(_constant(2.0), 0.6)

    def test_density_solves_its_equation(self):
        # (I - alpha A) rho = 1 with (A v)(x) = int A(x, y) v(y) dy, on
        # signed graphons
        rng = np.random.default_rng(32)
        for k in (1, 4, 7):
            w = StepGraphon(random_symmetric(rng, k, -1.0, 1.0))
            alpha = 0.5 / _op_norm(w)
            rho = graphon_katz(w, alpha).values
            residual = rho - alpha * (w.values @ rho) / w.k - 1.0
            assert np.max(np.abs(residual)) <= 1e-12 * np.max(np.abs(rho))


class TestGraphonEigen:
    def test_constant_graphon(self):
        rho, lam = graphon_eigencentrality(_constant(0.7))
        assert lam == pytest.approx(0.7, abs=1e-10)
        assert np.allclose(rho.values, np.ones(1), atol=1e-9)

    def test_lift_c4(self):
        rho, lam = graphon_eigencentrality(lift(generate(GraphGeneratorSpec("cycle", 4))))
        assert lam == pytest.approx(0.5, abs=1e-9)
        assert np.allclose(rho.values, np.ones(4), atol=1e-8)
        assert math.sqrt(np.mean(rho.values**2)) == pytest.approx(1.0, abs=1e-9)

    def test_block_diagonal_concentrates(self):
        w = StepGraphon(np.array([[0.9, 0.0], [0.0, 0.3]]))
        rho, lam = graphon_eigencentrality(w)
        assert lam == pytest.approx(0.45, abs=1e-10)
        assert np.allclose(rho.values, [math.sqrt(2.0), 0.0], atol=1e-8)

    def test_zero_graphon_refused(self):
        with pytest.raises(ParameterError):
            graphon_eigencentrality(_constant(0.0, k=2))

    def test_pair_solves_its_equation(self):
        # A rho = lam rho, with rho of unit L^2 norm and non-negative integral
        rng = np.random.default_rng(33)
        for k in (1, 4, 7):
            w = StepGraphon(random_symmetric(rng, k, 0.0, 1.0))
            rho, lam = graphon_eigencentrality(w)
            assert lam == pytest.approx(_op_norm(w), rel=1e-12)
            residual = (w.values @ rho.values) / w.k - lam * rho.values
            assert np.max(np.abs(residual)) <= 1e-12
            assert math.sqrt(np.mean(rho.values**2)) == pytest.approx(1.0, abs=1e-12)
            assert integral(rho) >= 0.0


class TestGraphonNorms:
    def test_cut_norm_constant_one(self):
        assert _cut_norm(_constant(1.0)) == pytest.approx(1.0, abs=1e-12)

    def test_cut_norm_zero(self):
        assert _cut_norm(_constant(0.0, k=3)) == 0.0

    def test_cut_norm_of_lift(self):
        rng = np.random.default_rng(22)
        for _ in range(10):
            n = int(rng.integers(2, 9))
            a = random_binary_symmetric(rng, n, 0.5)
            got = _cut_norm(lift(Graph(a)))
            assert got == pytest.approx(cut_norm_exact(a).value / n ** 2, abs=1e-12)
            assert got == pytest.approx(cut_norm_brute(a) / n ** 2, abs=1e-12)

    def test_cut_norm_refinement_invariance(self):
        rng = np.random.default_rng(23)
        w = StepGraphon(random_symmetric(rng, 4, -1.0, 1.0))
        assert _cut_norm(_refined(w, 2)) == pytest.approx(_cut_norm(w), abs=1e-12)

    def test_op_norm_constant(self):
        assert _op_norm(_constant(0.8)) == pytest.approx(0.8, abs=1e-10)

    def test_op_norm_lift_k2(self):
        w = lift(Graph(np.array([[0.0, 1.0], [1.0, 0.0]])))
        assert _op_norm(w) == pytest.approx(0.5, abs=1e-10)

    def test_lemma1_on_seeded_graphons(self):
        rng = np.random.default_rng(24)
        for _ in range(30):
            k = int(rng.integers(1, 8))
            w = StepGraphon(random_symmetric(rng, k, -1.0, 1.0))
            assert _op_norm(w) <= math.sqrt(8.0 * _cut_norm(w)) + 1e-9


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
        moved = _relabeled(w, Permutation(np.array([2, 0, 4, 1, 3])))
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
        moved = _relabeled(w, p)
        assert _op_norm(moved) == pytest.approx(_op_norm(w), abs=1e-9)
        assert _cut_norm(moved) == pytest.approx(_cut_norm(w), abs=1e-12)

    @pytest.mark.parametrize("family", ["katz", "pagerank", "eigen"])
    def test_relabeled_graphon_has_relabeled_densities(self, family):
        # the graphon centralities are equivariant: relabeling the blocks
        # relabels the density the same way
        def density(w):
            if family == "katz":
                return graphon_katz(w, 0.5 / _op_norm(w)).values
            if family == "pagerank":
                return graphon_pagerank(w, 0.85).values
            return graphon_eigencentrality(w)[0].values

        rng = np.random.default_rng(34)
        for k in (2, 5, 8):
            w = StepGraphon(random_symmetric(rng, k, 0.0, 1.0))
            p = Permutation(rng.permutation(k))
            rho = density(w)
            moved = density(_relabeled(w, p))
            assert np.max(np.abs(moved - permute_vector(rho, p))) <= 1e-12 * np.max(np.abs(rho))
