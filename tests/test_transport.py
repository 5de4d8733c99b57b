import math

import numpy as np
import pytest

from fpcentral import (
    ParameterError,
    SizeLimitError,
    TransportConvention,
    transport_lp_oracle,
    wasserstein,
)

from fpcentral.limits import MAX_LP_ORACLE_N

from oracles import permutation_cost_brute, random_pmf, w1_grid_brute

CONVENTIONS = ("grid_embedding", "discrete_metric", "permutation_cost")


class TestConvention:
    def test_known_tags(self):
        for tag in CONVENTIONS:
            assert TransportConvention(tag).tag == tag

    def test_unknown_tag(self):
        with pytest.raises(ParameterError):
            TransportConvention("euclidean")


class TestValidation:
    def test_rejects_non_pmf(self):
        ok = np.array([0.5, 0.5])
        with pytest.raises(ParameterError):
            wasserstein(np.array([0.6, 0.5]), ok, 1, "grid_embedding")
        with pytest.raises(ParameterError):
            wasserstein(np.array([-0.1, 1.1]), ok, 1, "grid_embedding")

    def test_rejects_length_mismatch(self):
        with pytest.raises(ParameterError):
            wasserstein(np.array([1.0]), np.array([0.5, 0.5]), 1, "grid_embedding")

    def test_rejects_other_p(self):
        v = np.array([0.5, 0.5])
        with pytest.raises(ParameterError):
            wasserstein(v, v, 3, "grid_embedding")

    def test_plan_size_cap(self):
        v = np.full(65, 1.0 / 65.0)
        with pytest.raises(SizeLimitError):
            wasserstein(v, v, 1, "grid_embedding")
        # the permutation convention has no coupling matrix to build
        value, plan = wasserstein(v, v, 2, "permutation_cost")
        assert value == 0.0 and plan is None


class TestGridEmbedding:
    def test_identical_marginals(self):
        v = np.array([0.2, 0.3, 0.5])
        for conv in CONVENTIONS:
            value, _ = wasserstein(v, v, 1, conv)
            assert value == pytest.approx(0.0, abs=1e-15)

    def test_point_mass_across_the_grid(self):
        n = 5
        src = np.zeros(n)
        src[0] = 1.0
        dst = np.zeros(n)
        dst[-1] = 1.0
        for p in (1, 2):
            value, plan = wasserstein(src, dst, p, "grid_embedding")
            assert value == pytest.approx((n - 1) / n, abs=1e-12)
            assert plan.gamma[0, -1] == pytest.approx(1.0)

    def test_matches_cdf_formula(self):
        rng = np.random.default_rng(30)
        for _ in range(50):
            n = int(rng.integers(1, 9))
            src, dst = random_pmf(rng, n), random_pmf(rng, n)
            value, _ = wasserstein(src, dst, 1, "grid_embedding")
            assert value == pytest.approx(w1_grid_brute(src, dst), abs=1e-12)

    def test_matches_lp_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            n = int(rng.integers(2, 9))
            src, dst = random_pmf(rng, n), random_pmf(rng, n)
            idx = np.arange(n)
            ground = np.abs(idx[:, None] - idx[None, :]) / n
            for p in (1, 2):
                value, plan = wasserstein(src, dst, p, "grid_embedding")
                fun, _ = transport_lp_oracle(src, dst, ground ** p)
                assert value == pytest.approx(fun ** (1.0 / p), abs=1e-9)
                assert np.allclose(plan.gamma.sum(axis=1), src, atol=1e-12)
                assert np.allclose(plan.gamma.sum(axis=0), dst, atol=1e-12)
                assert plan.cost == pytest.approx(value ** p, abs=1e-12)


class TestDiscreteMetric:
    def test_w1_is_total_variation(self):
        rng = np.random.default_rng(32)
        for _ in range(50):
            n = int(rng.integers(1, 9))
            src, dst = random_pmf(rng, n), random_pmf(rng, n)
            value, _ = wasserstein(src, dst, 1, "discrete_metric")
            assert value == pytest.approx(
                0.5 * float(np.abs(src - dst).sum()), abs=1e-12
            )

    def test_w2_is_sqrt_tv(self):
        rng = np.random.default_rng(33)
        src, dst = random_pmf(rng, 6), random_pmf(rng, 6)
        w1, _ = wasserstein(src, dst, 1, "discrete_metric")
        w2, _ = wasserstein(src, dst, 2, "discrete_metric")
        assert w2 == pytest.approx(math.sqrt(w1), abs=1e-12)

    def test_matches_lp_oracle_on_01_cost(self):
        rng = np.random.default_rng(34)
        for _ in range(30):
            n = int(rng.integers(2, 9))
            src, dst = random_pmf(rng, n), random_pmf(rng, n)
            value, plan = wasserstein(src, dst, 1, "discrete_metric")
            fun, _ = transport_lp_oracle(src, dst, 1.0 - np.eye(n))
            assert value == pytest.approx(fun, abs=1e-9)
            assert np.allclose(plan.gamma.sum(axis=1), src, atol=1e-12)
            assert np.allclose(plan.gamma.sum(axis=0), dst, atol=1e-12)


class TestPermutationCost:
    def test_exact_matches_brute_force(self):
        rng = np.random.default_rng(35)
        for _ in range(10):
            n = int(rng.integers(1, 7))
            src, dst = random_pmf(rng, n), random_pmf(rng, n)
            for p in (1, 2):
                value, plan = wasserstein(src, dst, p, "permutation_cost")
                assert plan is None
                assert value == pytest.approx(
                    permutation_cost_brute(src, dst, p), abs=1e-12
                )

    def test_sorted_matching_beyond_exact_limit(self):
        rng = np.random.default_rng(36)
        src, dst = random_pmf(rng, 9), random_pmf(rng, 9)
        value, _ = wasserstein(src, dst, 1, "permutation_cost")
        assert value == pytest.approx(
            float(np.abs(np.sort(src) - np.sort(dst)).sum()), abs=1e-12
        )

    def test_not_comparable_with_grid_transport(self):
        # moving a point mass is free for the multiset convention but not
        # on the grid; the two conventions measure different things
        src = np.array([1.0, 0.0])
        dst = np.array([0.0, 1.0])
        perm, _ = wasserstein(src, dst, 1, "permutation_cost")
        grid, _ = wasserstein(src, dst, 1, "grid_embedding")
        assert perm == pytest.approx(0.0, abs=1e-15)
        assert grid == pytest.approx(0.5, abs=1e-15)


class TestLpOracle:
    def test_identical_marginals_zero_diagonal(self):
        rng = np.random.default_rng(37)
        v = random_pmf(rng, 5)
        cost = rng.random((5, 5))
        np.fill_diagonal(cost, 0.0)
        fun, plan = transport_lp_oracle(v, v, cost)
        assert fun == pytest.approx(0.0, abs=1e-9)
        assert np.allclose(plan.gamma.sum(axis=1), v, atol=1e-9)

    def test_two_point_swap(self):
        fun, _ = transport_lp_oracle(
            np.array([1.0, 0.0]),
            np.array([0.0, 1.0]),
            np.array([[0.0, 1.0], [1.0, 0.0]]),
        )
        assert fun == pytest.approx(1.0, abs=1e-12)

    def test_at_the_size_limit(self):
        n = MAX_LP_ORACLE_N
        rng = np.random.default_rng(38)
        src, dst = random_pmf(rng, n), random_pmf(rng, n)
        idx = np.arange(n)
        ground = np.abs(idx[:, None] - idx[None, :]) / n
        for p in (1, 2):
            value, _ = wasserstein(src, dst, p, "grid_embedding")
            fun, plan = transport_lp_oracle(src, dst, ground ** p)
            assert value == pytest.approx(fun ** (1.0 / p), abs=1e-9)
            assert np.allclose(plan.gamma.sum(axis=1), src, atol=1e-9)
            assert np.allclose(plan.gamma.sum(axis=0), dst, atol=1e-9)
        value, _ = wasserstein(src, dst, 1, "discrete_metric")
        fun, _ = transport_lp_oracle(src, dst, 1.0 - np.eye(n))
        assert value == pytest.approx(fun, abs=1e-9)

    def test_size_cap(self):
        v = np.full(17, 1.0 / 17.0)
        with pytest.raises(SizeLimitError):
            transport_lp_oracle(v, v, np.zeros((17, 17)))

    def test_cost_validation(self):
        v = np.array([0.5, 0.5])
        with pytest.raises(ParameterError):
            transport_lp_oracle(v, v, np.array([[0.0, -1.0], [1.0, 0.0]]))
        with pytest.raises(ParameterError):
            transport_lp_oracle(v, v, np.zeros((3, 3)))
        with pytest.raises(ParameterError):
            transport_lp_oracle(v, v, np.array([[0.0, np.inf], [1.0, 0.0]]))
