import math

import numpy as np
import pytest

from fpcentral import ParameterError, wasserstein
from fpcentral.centrality import NEGATIVE_RHO_TOL
from fpcentral.transport import PMF_TOL

from oracles import permutation_cost_brute, random_pmf


class TestValidation:
    def test_rejects_non_pmf(self):
        ok = np.array([0.5, 0.5])
        with pytest.raises(ParameterError):
            wasserstein(np.array([0.6, 0.5]), ok, 1)
        with pytest.raises(ParameterError):
            wasserstein(np.array([-0.1, 1.1]), ok, 1)

    def test_rejects_length_mismatch(self):
        with pytest.raises(ParameterError):
            wasserstein(np.array([1.0]), np.array([0.5, 0.5]), 1)

    def test_rejects_other_p(self):
        v = np.array([0.5, 0.5])
        with pytest.raises(ParameterError):
            wasserstein(v, v, 3)

    def test_rejects_non_finite(self):
        ok = np.array([0.5, 0.5])
        for bad in (np.array([np.nan, 1.0]), np.array([np.inf, -np.inf])):
            with pytest.raises(ParameterError):
                wasserstein(bad, ok, 1)
            with pytest.raises(ParameterError):
                wasserstein(ok, bad, 2)

    def test_rejects_empty_and_non_vector(self):
        with pytest.raises(ParameterError):
            wasserstein(np.array([]), np.array([]), 1)
        square = np.full((2, 2), 0.25)
        with pytest.raises(ParameterError):
            wasserstein(square, square, 1)

    def test_sum_tolerance(self):
        ok = np.array([0.5, 0.5])
        near = np.array([0.5, 0.5 + 0.5 * PMF_TOL])
        assert wasserstein(near, ok, 1) == pytest.approx(0.5 * PMF_TOL, abs=1e-15)
        with pytest.raises(ParameterError):
            wasserstein(np.array([0.5, 0.5 + 2.0 * PMF_TOL]), ok, 1)

    def test_tiny_negative_entries_count_as_zero(self):
        # centralities may come back a rounding error below zero
        src = np.array([-0.5 * NEGATIVE_RHO_TOL, 1.0])
        dst = np.array([0.0, 1.0])
        assert wasserstein(src, dst, 1) == 0.0
        with pytest.raises(ParameterError):
            wasserstein(np.array([-2.0 * NEGATIVE_RHO_TOL, 1.0]), dst, 1)


class TestPermutationCost:
    def test_exact_matches_brute_force(self):
        rng = np.random.default_rng(35)
        for _ in range(10):
            n = int(rng.integers(1, 7))
            src, dst = random_pmf(rng, n), random_pmf(rng, n)
            for p in (1, 2):
                assert wasserstein(src, dst, p) == pytest.approx(
                    permutation_cost_brute(src, dst, p), abs=1e-12
                )

    def test_sorted_matching_beyond_exact_limit(self):
        rng = np.random.default_rng(36)
        src, dst = random_pmf(rng, 9), random_pmf(rng, 9)
        assert wasserstein(src, dst, 1) == pytest.approx(
            float(np.abs(np.sort(src) - np.sort(dst)).sum()), abs=1e-12
        )

    def test_relabeled_marginals_cost_nothing(self):
        v = np.array([0.2, 0.3, 0.5])
        for p in (1, 2):
            assert wasserstein(v, v, p) == 0.0
            assert wasserstein(v, v[::-1], p) == 0.0
            assert wasserstein(np.array([1.0, 0.0]), np.array([0.0, 1.0]), p) == 0.0

    def test_one_node_is_zero(self):
        for p in (1, 2):
            assert wasserstein(np.array([1.0]), np.array([1.0]), p) == 0.0

    def test_no_size_cap(self):
        # the sorted matching builds no coupling matrix, so n is not capped
        rng = np.random.default_rng(37)
        for n in (65, 5000):
            v = np.full(n, 1.0 / n)
            assert wasserstein(v, v, 2) == 0.0
            src, dst = random_pmf(rng, n), random_pmf(rng, n)
            assert wasserstein(src, dst, 1) == pytest.approx(
                float(np.abs(np.sort(src) - np.sort(dst)).sum()), abs=1e-12
            )

    def test_point_mass_against_uniform(self):
        for n in range(2, 7):
            src = np.zeros(n)
            src[2 % n] = 1.0
            dst = np.full(n, 1.0 / n)
            assert wasserstein(src, dst, 1) == pytest.approx(2.0 * (n - 1) / n, abs=1e-15)
            assert wasserstein(src, dst, 2) == pytest.approx(
                math.sqrt(n * (n - 1)) / n, abs=1e-15
            )

    def test_symmetric(self):
        rng = np.random.default_rng(38)
        for _ in range(20):
            n = int(rng.integers(1, 9))
            src, dst = random_pmf(rng, n), random_pmf(rng, n)
            for p in (1, 2):
                assert wasserstein(src, dst, p) == wasserstein(dst, src, p)

    def test_relabeling_either_side_changes_nothing(self):
        rng = np.random.default_rng(39)
        for _ in range(20):
            n = int(rng.integers(1, 9))
            src, dst = random_pmf(rng, n), random_pmf(rng, n)
            for p in (1, 2):
                value = wasserstein(src, dst, p)
                assert wasserstein(src[rng.permutation(n)], dst, p) == value
                assert wasserstein(src, dst[rng.permutation(n)], p) == value

    def test_at_most_the_unrelabeled_distance(self):
        # the identity is one of the relabelings minimized over
        rng = np.random.default_rng(40)
        for _ in range(20):
            n = int(rng.integers(1, 9))
            src, dst = random_pmf(rng, n), random_pmf(rng, n)
            for p in (1, 2):
                direct = float(np.linalg.norm(src - dst, ord=p))
                assert wasserstein(src, dst, p) <= direct + 1e-15

    def test_triangle_inequality(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            n = int(rng.integers(1, 9))
            a, b, c = random_pmf(rng, n), random_pmf(rng, n), random_pmf(rng, n)
            for p in (1, 2):
                assert wasserstein(a, c, p) <= (
                    wasserstein(a, b, p) + wasserstein(b, c, p) + 1e-15
                )

    def test_w2_at_most_w1(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            n = int(rng.integers(1, 9))
            src, dst = random_pmf(rng, n), random_pmf(rng, n)
            assert wasserstein(src, dst, 2) <= wasserstein(src, dst, 1) + 1e-15

    def test_returns_a_float_and_leaves_its_inputs(self):
        src = np.array([0.5, 0.2, 0.3])
        dst = np.array([0.1, 0.6, 0.3])
        kept = (src.copy(), dst.copy())
        value = wasserstein(src, dst, 1)
        assert type(value) is float
        assert value == pytest.approx(0.2, abs=1e-15)
        assert np.array_equal(src, kept[0]) and np.array_equal(dst, kept[1])

    def test_accepts_sequences(self):
        assert wasserstein([0.25, 0.75], (0.75, 0.25), 2) == 0.0
        assert wasserstein([0.5, 0.5], [1.0, 0.0], 1) == pytest.approx(1.0, abs=1e-15)
