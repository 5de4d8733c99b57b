import itertools
import math

from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fpcentral import (
    Graph,
    NumericalError,
    ParameterError,
    Permutation,
    SizeLimitError,
    cut_norm_exact,
    cut_norm_heuristic,
    min_permuted_distance,
    operator_norm,
    permute,
    vector_norm,
)
from fpcentral import graphs, norms
from fpcentral.graphs import _Difference
from fpcentral.norms import MAX_CUT_EXACT_N, MAX_PERM_EXACT_N, _batched_cut, _operator_norm

from oracles import (
    cut_norm_brute,
    cut_norm_rows_reference,
    matrix_norm_brute,
    min_permuted_distance_brute,
    min_permuted_distance_lex_reference,
    random_binary_symmetric,
    sequential_sums,
)


def _with_entry(value, shape=(4, 4)):
    m = np.ones(shape)
    m[1, 2] = value
    return m


NON_FINITE = (np.nan, np.inf, -np.inf)

# An 8-node pair at the exact permutation limit; 1427 of its 8! candidate
# differences have a repeated largest singular value.
SWEEP_LIMIT_PAIR = (
    np.array([
        [0, 0, 0, 0, 1, 1, 0, 0],
        [0, 0, 1, 1, 0, 1, 0, 0],
        [0, 1, 0, 0, 1, 1, 1, 0],
        [0, 1, 0, 0, 1, 0, 1, 1],
        [1, 0, 1, 1, 0, 1, 0, 0],
        [1, 1, 1, 0, 1, 0, 0, 0],
        [0, 0, 1, 1, 0, 0, 0, 0],
        [0, 0, 0, 1, 0, 0, 0, 0],
    ], dtype=float),
    np.array([
        [0, 0, 0, 0, 1, 1, 0, 0],
        [0, 0, 1, 1, 0, 1, 0, 0],
        [0, 1, 0, 0, 1, 1, 1, 1],
        [0, 1, 0, 0, 1, 0, 1, 1],
        [1, 0, 1, 1, 0, 1, 1, 0],
        [1, 1, 1, 0, 1, 0, 0, 0],
        [0, 0, 1, 1, 1, 0, 0, 0],
        [0, 0, 1, 1, 0, 0, 0, 0],
    ], dtype=float),
)


# Two 4-block graphons with values in [0.8, 1] on which a theorem2 bound
# read below its observed side while B's density took a direct solve:
# B = (1 - 1e-8) J and A = B - 0.4 (v v^T - 0.999 u u^T) for v = (1, 1, 1, 1)/2
# and u = (1, 1, -1, -1)/2.  The difference of their lifts has singular
# values 0.1 and 0.0999, and B's lift has Katz L0 = 1 - 1e-8 at alpha 1.
_V, _U = np.full(4, 0.5), np.array([0.5, 0.5, -0.5, -0.5])
FOUND_PAIR = (
    (1.0 - 1e-8) * np.ones((4, 4)) - 0.4 * (np.outer(_V, _V) - 0.999 * np.outer(_U, _U)),
    (1.0 - 1e-8) * np.ones((4, 4)),
)


class TestVectorNorm:
    def test_examples(self):
        assert vector_norm(np.array([3.0, 4.0]), 2) == 5.0
        assert vector_norm(np.array([1.0, -1.0, 1.0]), 1) == 3.0
        assert vector_norm(np.array([1.0, -7.0, 2.0]), math.inf) == 7.0

    def test_matches_numpy_on_seeded_vectors(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            v = rng.standard_normal(int(rng.integers(1, 12)))
            for p in (1, 2, math.inf):
                assert vector_norm(v, p) == pytest.approx(
                    float(np.linalg.norm(v, p)), abs=1e-12
                )

    def test_rejects_other_p(self):
        with pytest.raises(ParameterError):
            vector_norm(np.ones(3), 3)

    @pytest.mark.parametrize("x", [1e200, 1e-200, 1e-160, 1e154])
    def test_two_norm_beyond_the_squared_range(self, x):
        # sum(v * v) overflows above about 1e154 and loses digits below
        # about 1e-154; the 2-norm must not
        assert vector_norm([x, x], 2) == pytest.approx(math.hypot(x, x), rel=4e-16, abs=0.0)
        assert vector_norm([x, -2.0 * x, x], 2) == pytest.approx(
            math.hypot(x, 2.0 * x, x), rel=4e-16, abs=0.0
        )

    def test_two_norm_keeps_its_bits_in_range(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            v = rng.standard_normal(int(rng.integers(1, 50))) * 10.0 ** rng.integers(-100, 100)
            assert vector_norm(v, 2) == float(np.sqrt(np.sum(v * v)))

    def test_two_norm_of_special_vectors(self):
        assert vector_norm([], 2) == 0.0
        assert vector_norm([0.0, -0.0], 2) == 0.0
        assert vector_norm([math.inf, 1.0], 2) == math.inf
        assert math.isnan(vector_norm([math.nan, 1e200], 2))


class TestOperatorNorm:
    def test_identity_is_one_for_every_p(self):
        eye = np.eye(5)
        for p in (1, 2, math.inf):
            assert operator_norm(eye, p) == pytest.approx(1.0, abs=1e-10)

    def test_all_ones_4x4_p2(self):
        assert operator_norm(np.ones((4, 4)), 2) == pytest.approx(4.0, abs=1e-9)

    def test_column_sum_example_p1(self):
        assert operator_norm(np.array([[1.0, 2.0], [0.0, 1.0]]), 1) == 3.0

    def test_row_sum_example_pinf(self):
        assert operator_norm(np.array([[1.0, 2.0], [0.0, 1.0]]), math.inf) == 3.0

    def test_sign_flip_matrix_p2(self):
        # all-ones start vectors are blind to this spectrum
        m = np.array([[1.0, -1.0], [-1.0, 1.0]])
        assert operator_norm(m, 2) == pytest.approx(2.0, abs=1e-9)

    def test_the_two_norm_is_not_below_the_largest_singular_value(self):
        # the lifts' difference of FOUND_PAIR, whose 16 entries are negative:
        # its column norms start the bracket at its top singular vector, and
        # the upper end, rounded up, is not below LAPACK's value (a power
        # iteration that stopped early read it 2.49e-8 low, and a theorem2
        # bound that rested on it read below its observed side)
        d = FOUND_PAIR[0] / 4 - FOUND_PAIR[1] / 4
        sigma = np.linalg.svd(d, compute_uv=False)[0]
        assert sigma <= operator_norm(d, 2) <= sigma * (1.0 + 1e-12)

    @pytest.mark.parametrize("a, b", [(1.0, 2.0), (0.3, 0.7), (1e-3, 5.0)])
    def test_a_mixed_sign_two_norm_needs_no_start(self, a, b):
        # M^T M has eigenvalues 2 a^2, along (1, 1), and 2 b^2, along
        # (1, -1): every start that commutes with swapping the columns is
        # orthogonal to the top right singular vector, so no bracket runs
        m = np.array([[a, a], [b, -b]])
        assert operator_norm(m, 2) == pytest.approx(math.sqrt(2.0) * b, rel=1e-15, abs=0.0)

    def test_matches_numpy_spectral_norm(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            n = int(rng.integers(1, 10))
            m = rng.standard_normal((n, n))
            assert operator_norm(m, 2) == pytest.approx(
                float(np.linalg.norm(m, 2)), abs=1e-8
            )

    def test_zero_matrix(self):
        for p in (1, 2, math.inf):
            assert operator_norm(np.zeros((3, 3)), p) == 0.0

    def test_rejects_other_p(self):
        with pytest.raises(ParameterError):
            operator_norm(np.eye(2), 1.5)

    def test_non_finite_is_refused(self):
        for bad in NON_FINITE:
            for p in (1, 2, math.inf):
                with pytest.raises(ParameterError):
                    operator_norm(_with_entry(bad), p)

    def test_non_finite_among_zero_rows_is_refused_alike(self):
        # the 2-norm checks only the non-zero rows and columns; NaN and inf
        # are non-zero, so they land on those and meet the same message
        for bad in NON_FINITE:
            for i, j in ((0, 0), (2, 5), (4, 7), (8, 8)):
                for base in (0.0, 1.5):
                    m = np.zeros((9, 9))
                    m[2, 5] = base
                    m[i, j] = bad
                    for p in (1, 2, math.inf):
                        with pytest.raises(
                            ParameterError, match="^operator_norm expects finite entries$"
                        ):
                            operator_norm(m, p)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_sums_raise_numerical_error(self):
        # column 1 sums to 2e308; its 1-norm used to read inf
        m = np.zeros((3, 3))
        m[0, 1] = m[2, 1] = 1e308
        m[1, 0] = 1.0
        with pytest.raises(NumericalError, match="1-norm of this matrix overflows"):
            operator_norm(m, 1)
        assert operator_norm(m, math.inf) == 1e308
        with pytest.raises(NumericalError, match="inf-norm of this matrix overflows"):
            operator_norm(m.T, math.inf)
        assert operator_norm(m.T, 1) == 1e308
        with pytest.raises(NumericalError, match="2-norm of this matrix overflows"):
            operator_norm(np.full((2, 2), 1e308), 2)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale", [1e200, 1e-100, 1e-300])
    def test_two_norm_of_entries_far_from_one(self, scale):
        # y @ y overflowed at 1e200 (inf), and z @ z underflowed to 0 at
        # 1e-100, which restarted the iteration until its budget ran out
        m = np.array([[0.0, scale], [scale, 0.0]])
        assert operator_norm(m, 2) == pytest.approx(np.linalg.norm(m, 2), rel=1e-15)

    def test_two_norm_commutes_with_power_of_two_scalings(self):
        rng = np.random.default_rng(41)
        for n in (1, 3, 8):
            m = rng.standard_normal((n, n))
            base = operator_norm(m, 2)
            for k in (-1000, -700, -201, -1, 1, 7, 201, 700, 1000):
                assert operator_norm(np.ldexp(m, k), 2) == np.ldexp(base, k)


    # 129 and 257 leave one line past a multiple of the 128-line tile
    @pytest.mark.parametrize("n", [1, 2, 127, 128, 129, 130, 257, 300])
    def test_tiled_sums_have_the_bits_of_whole_matrix_sums(self, n):
        rng = np.random.default_rng(n)
        m = rng.standard_normal((n, n)) * 10.0 ** rng.integers(-8, 8, (n, n))
        m[-1] *= 1e20  # the last row and column carry the largest sums
        m[:, -1] *= 1e20
        wide = rng.standard_normal((n, 2 * n))
        for layout in (m, np.asfortranarray(m), m.T, wide[:, ::2]):
            for p, axis in ((1, 0), (math.inf, 1)):
                # each line added left to right, in every layout
                sums = sequential_sums(np.abs(layout), axis)
                assert operator_norm(layout, p) == float(sums.max()), (p, layout.flags)
                tiled = graphs._abs_sums(layout, None, axis)
                assert tiled.tobytes() == sums.tobytes(), (p, layout.flags)

    @pytest.mark.parametrize("m", [np.ones((2, 3)), np.ones(4), np.ones((2, 2, 2))],
                             ids=["2x3", "vector", "3-d"])
    @pytest.mark.parametrize("fn, name", [
        (partial(operator_norm, p=1), "operator_norm"),
        (partial(operator_norm, p=2), "operator_norm"),
        (cut_norm_exact, "cut_norm_exact"),
        (cut_norm_heuristic, "cut_norm_heuristic"),
    ], ids=["norm-1", "norm-2", "cut-exact", "cut-heuristic"])
    def test_a_matrix_that_is_not_square_is_refused(self, m, fn, name):
        with pytest.raises(ParameterError, match=f"^{name} expects a square matrix$"):
            fn(m)


def _padded(rng, m, n):
    """``m`` placed at random sorted rows and columns of an n x n zero matrix."""
    k = m.shape[0]
    rows = np.sort(rng.choice(n, k, replace=False))
    cols = np.sort(rng.choice(n, k, replace=False))
    out = np.zeros((n, n))
    out[np.ix_(rows, cols)] = m
    return out


class TestSupportTwoNorm:
    """Matrices with zero rows and columns: the 2-norm of their list of
    entries, or of their whole array above the cut, is that of the matrix
    without them."""

    # operator_norm(m, 2).hex() of the full-support matrices of the test
    # below, each at or above np.linalg.svd's largest singular value and
    # within 1e-12 of it: LAPACK's for the standard normal matrices, the
    # rounded-up bracket for the 0/1 ones
    FULL_SUPPORT = (
        "0x1.b20eb6eeb024dp+1", "0x1.0000000000003p+1",
        "0x1.8ed33afadaa2fp+2", "0x1.236b0e67bdf1ap+2",
        "0x1.850803d835e97p+3", "0x1.4a19eb54067d6p+4",
        "0x1.c6ca8b58f269bp+4", "0x1.984a3d36e8380p+6",
    )

    def test_full_support_keeps_its_bits(self):
        rng = np.random.default_rng(20261018)
        values = []
        for n in (3, 8, 40, 200):
            values.append(operator_norm(rng.standard_normal((n, n)), 2))
            b = (rng.random((n, n)) < 0.5).astype(float)
            np.fill_diagonal(b, 1.0)
            values.append(operator_norm(b, 2))
        assert [v.hex() for v in values] == list(self.FULL_SUPPORT)

    def test_zero_padding_keeps_the_core_value(self):
        # LAPACK sees the core itself; the bracket's products add the same
        # terms over the padded list as over the core's array, in another order
        for seed in range(60):
            rng = np.random.default_rng([7, seed])
            k = int(rng.integers(1, 13))
            core = rng.standard_normal((k, k))
            m = _padded(rng, core, k + int(rng.integers(1, 25)))
            assert operator_norm(m, 2) == operator_norm(core, 2)
            core = (rng.random((k, k)) < 0.5) * rng.random((k, k))
            m = _padded(rng, core, k + int(rng.integers(1, 25)))
            assert operator_norm(m, 2) == pytest.approx(
                operator_norm(core, 2), rel=1e-15, abs=0.0)

    def test_one_non_zero_row_or_column(self):
        rng = np.random.default_rng(43)
        for n in (1, 2, 5, 30):
            line = rng.standard_normal(n)
            line[rng.random(n) < 0.3] = 0.0
            line[int(rng.integers(n))] = 1.5
            m = np.zeros((n, n))
            m[int(rng.integers(n))] = line
            expected = float(np.linalg.norm(line))
            assert operator_norm(m, 2) == pytest.approx(expected, rel=1e-15, abs=0.0)
            assert operator_norm(m.T, 2) == pytest.approx(expected, rel=1e-15, abs=0.0)

    def test_power_of_two_scalings_with_zero_rows(self):
        rng = np.random.default_rng(44)
        for k, n in ((1, 3), (3, 8), (6, 20)):
            m = _padded(rng, rng.standard_normal((k, k)), n)
            base = operator_norm(m, 2)
            for e in (-1000, -201, -1, 1, 201, 1000):
                assert operator_norm(np.ldexp(m, e), 2) == np.ldexp(base, e)

    def test_a_bracket_that_does_not_close_takes_lapack(self, monkeypatch):
        rng = np.random.default_rng(45)
        m = _padded(rng, rng.random((4, 4)), 9)
        sigma = np.linalg.svd(m, compute_uv=False)[0]
        assert sigma <= operator_norm(m, 2) <= sigma * (1.0 + 1e-12)
        monkeypatch.setattr(norms, "PERRON_MAX_ITERATIONS", 1)
        core = m[np.ix_(m.any(axis=1), m.any(axis=0))]
        assert operator_norm(m, 2) == np.linalg.norm(core, 2)


def difference_norm(a, b, p):
    """The norm of the operand ``minus`` makes of two arrays, as the
    theorem's right side takes it."""
    return _operator_norm(_Difference(a, b), p)


class TestDifferenceNorm:
    """The p-norm of ``graphs._Difference(a, b)`` is ``operator_norm(a - b,
    p)`` bit for bit, with the same errors, without the n x n difference."""

    @staticmethod
    def _outcome(fn, *args):
        try:
            return fn(*args)
        except (ParameterError, NumericalError) as exc:
            return type(exc), str(exc)

    def _assert_alike(self, a, b):
        for p in (1, 2, math.inf):
            with np.errstate(over="ignore", invalid="ignore"):
                expected = self._outcome(operator_norm, a - b, p)
            assert self._outcome(difference_norm, a, b, p) == expected, p

    # 129 and 257 leave one line past a multiple of the 128-line tile
    @pytest.mark.parametrize("n", [1, 3, 127, 129, 257])
    def test_full_sparse_and_equal_supports(self, n):
        rng = np.random.default_rng(n)
        a = rng.standard_normal((n, n))
        sparse = a.copy()
        sparse[rng.integers(n, size=3), rng.integers(n, size=3)] += 1.0
        for b in (rng.standard_normal((n, n)), sparse, a.copy()):
            for e in (0, -1000, 1000):
                for x, y in ((a, b), (np.asfortranarray(a), np.asfortranarray(b)), (a, b.T)):
                    self._assert_alike(np.ldexp(x, e), np.ldexp(y, e))
        assert difference_norm(a, a.copy(), 2) == 0.0

    def test_non_finite_entries_meet_the_same_error(self):
        for bad in NON_FINITE:
            for n in (4, 130):
                a = np.zeros((n, n))
                a[1, 2] = 1.0
                b = a.copy()
                b[n - 1, 0] = bad
                self._assert_alike(a, b)
                self._assert_alike(b, a)
                # equal infinities differ by NaN, as the difference does
                self._assert_alike(b, b.copy())
                with pytest.raises(ParameterError, match="^operator_norm expects finite entries$"):
                    difference_norm(a, b, 2)

    def test_overflowing_differences_meet_the_same_error(self):
        a = np.full((3, 3), 1e308)
        self._assert_alike(a, -a)
        with pytest.raises(ParameterError, match="^operator_norm expects finite entries$"):
            difference_norm(a, -a, 1)

    @pytest.mark.parametrize("p", [1, 2, "inf"])
    def test_empty_matrices_are_refused_for_every_p(self, p):
        with pytest.raises(ParameterError, match="^operator_norm expects a non-empty matrix$"):
            operator_norm(np.zeros((0, 0)), p)


class TestCutNormExact:
    def test_all_ones_2x2(self):
        w = cut_norm_exact(np.ones((2, 2)))
        assert w.value == 4.0
        assert w.S == (0, 1) and w.T == (0, 1)

    def test_sign_flip_2x2(self):
        # frozen from the 16-pair enumeration: best box is a single entry
        assert cut_norm_exact(np.array([[1.0, -1.0], [-1.0, 1.0]])).value == 1.0

    def test_zero_matrix(self):
        assert cut_norm_exact(np.zeros((3, 3))).value == 0.0

    def test_witness_reproduces_value(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            n = int(rng.integers(1, 9))
            m = rng.standard_normal((n, n))
            w = cut_norm_exact(m)
            box = float(m[np.ix_(list(w.S), list(w.T))].sum()) if w.S and w.T else 0.0
            assert abs(box) == pytest.approx(w.value, abs=1e-12)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            n = int(rng.integers(1, 9))
            m = rng.uniform(-1.0, 1.0, size=(n, n))
            assert cut_norm_exact(m).value == pytest.approx(
                cut_norm_brute(m), abs=1e-12
            )

    def test_matches_row_reference_on_tied_integer_matrices(self):
        # integer entries make every cut sum exact, so ties are exact and
        # the witness (first S in lexicographic order, then T) must match
        rng = np.random.default_rng(10)
        for n in range(13):
            for m in (
                np.zeros((n, n)),
                np.ones((n, n)),
                rng.choice([-1.0, 1.0], size=(n, n)),
                (rng.random((n, n)) < 0.5).astype(float),
            ):
                w = cut_norm_exact(m)
                assert (w.value, w.S, w.T) == cut_norm_rows_reference(m)

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(
        st.integers(0, 10).flatmap(
            lambda n: arrays(np.int64, (n, n), elements=st.integers(-2, 2))
        )
    )
    def test_witness_property_against_row_reference(self, m):
        m = m.astype(float)
        w = cut_norm_exact(m)
        assert (w.value, w.S, w.T) == cut_norm_rows_reference(m)

    def test_float_value_matches_row_reference_at_n20(self):
        m = np.random.default_rng(11).uniform(-1.0, 1.0, size=(20, 20))
        assert cut_norm_exact(m).value == pytest.approx(
            cut_norm_rows_reference(m)[0], abs=1e-12
        )

    def test_witness_attains_value_at_the_limit(self):
        n = MAX_CUT_EXACT_N
        m = np.random.default_rng(12).choice([-1.0, 1.0], size=(n, n))
        w = cut_norm_exact(m)
        assert w.S and w.T
        assert abs(float(m[np.ix_(list(w.S), list(w.T))].sum())) == w.value
        assert w.value >= cut_norm_heuristic(m).value

    @staticmethod
    def _integer_matrices(n, rng):
        signed = rng.choice([-1.0, 1.0], size=(n, n))
        zeros = signed.copy()
        zeros[rng.random((n, n)) < 0.4] = -0.0
        sparse = np.zeros((n, n))  # a few +-1 entries: most subsets tie
        listed = rng.choice(n * n, size=min(3, n * n), replace=False)
        sparse.flat[listed] = rng.choice([-1.0, 1.0], size=listed.size)
        return {
            "signed": signed,
            "difference": ((rng.random((n, n)) < 0.5) * 1.0 - (rng.random((n, n)) < 0.5) * 1.0),
            "zero": np.zeros((n, n)),
            "ties": sparse,
            "signed-zeros": zeros,
        }

    @pytest.mark.parametrize("kind", ["signed", "difference", "zero", "ties", "signed-zeros"])
    def test_integer_sweep_matches_the_brute_force(self, kind):
        rng = np.random.default_rng(13)
        for n in range(1, 11):
            m = self._integer_matrices(n, rng)[kind]
            assert norms._sweep_dtype(m, float(np.abs(m).sum())) is np.int16
            w = cut_norm_exact(m)
            assert w.value == cut_norm_brute(m)
            assert (w.value, w.S, w.T) == cut_norm_rows_reference(m)

    @pytest.mark.parametrize("twice_mass, dtype", [(32766, np.int16), (32768, np.float64)])
    @pytest.mark.parametrize("signs", ["positive", "mixed"])
    def test_the_int16_bound_keeps_the_float_witness(self, monkeypatch, twice_mass, dtype, signs):
        # with all entries positive the best subset sums to the whole mass,
        # so twice it is the largest value the sweep forms
        m = np.ones((6, 6))
        if signs == "mixed":
            m[np.random.default_rng(14).random((6, 6)) < 0.5] = -1.0
        m[0, 0] = twice_mass // 2 - 35
        assert norms._sweep_dtype(m, float(np.abs(m).sum())) is dtype
        w = cut_norm_exact(m)
        monkeypatch.setattr(norms, "_sweep_dtype", lambda m, mass: np.float64)
        assert w == cut_norm_exact(m)
        assert w.value == cut_norm_brute(m)

    def test_a_fractional_entry_takes_the_float_sweep(self):
        rng = np.random.default_rng(15)
        for n in range(1, 9):
            m = rng.integers(-2, 3, size=(n, n)) * 1.0
            m[rng.integers(n), rng.integers(n)] = 0.5
            assert norms._sweep_dtype(m, float(np.abs(m).sum())) is np.float64
            w = cut_norm_exact(m)
            assert (w.value, w.S, w.T) == cut_norm_rows_reference(m)

    def test_zero_matrix_at_the_limit_has_empty_witness(self):
        w = cut_norm_exact(np.zeros((MAX_CUT_EXACT_N, MAX_CUT_EXACT_N)))
        assert (w.value, w.S, w.T) == (0.0, (), ())

    def test_non_finite_is_refused(self):
        # one NaN used to yield value 12 from a witness that avoids it
        for bad in NON_FINITE:
            with pytest.raises(ParameterError):
                cut_norm_exact(_with_entry(bad))

    def test_overflowing_sums_are_refused(self):
        m = np.zeros((4, 4))
        m[:2, 0] = 1e308
        m[2:, 0] = -1e308
        with pytest.raises(NumericalError):
            cut_norm_exact(m)

    def test_size_cap(self):
        with pytest.raises(SizeLimitError):
            cut_norm_exact(np.zeros((23, 23)))


class TestCutNormHeuristic:
    def test_all_ones_6x6_from_many_starts(self, monkeypatch):
        # the full row set, then one random start drawn from each seed
        monkeypatch.setattr(norms, "CUT_HEURISTIC_RESTARTS", 2)
        for seed in range(5):
            monkeypatch.setattr(norms, "CUT_HEURISTIC_SEED", seed)
            w = cut_norm_heuristic(np.ones((6, 6)))
            assert w.value == 36.0

    def test_zero_matrix(self):
        assert cut_norm_heuristic(np.zeros((4, 4))).value == 0.0

    def test_never_exceeds_exact_and_witness_consistent(self):
        rng = np.random.default_rng(4)
        hits = 0
        for _ in range(100):
            m = rng.uniform(-1.0, 1.0, size=(8, 8))
            h = cut_norm_heuristic(m)
            e = cut_norm_exact(m)
            box = float(m[np.ix_(list(h.S), list(h.T))].sum()) if h.S and h.T else 0.0
            assert abs(box) == pytest.approx(h.value, abs=1e-12)
            assert h.value <= e.value + 1e-12
            if h.value == pytest.approx(e.value, abs=1e-12):
                hits += 1
        # frozen observation: 16 alternating-maximization restarts recover
        # the exact optimum on 98 of these 100 seeded 8x8 draws
        assert hits == 98

    def test_non_finite_is_refused(self):
        for bad in NON_FINITE:
            with pytest.raises(ParameterError):
                cut_norm_heuristic(_with_entry(bad))

    @pytest.mark.filterwarnings("error")
    def test_overflowing_sums_raise_numerical_error(self):
        # the witness sum used to overflow and the value read inf
        m = np.array([[1e308, 1e308], [-1e308, -1e308]])
        with pytest.raises(NumericalError, match="overflow"):
            cut_norm_heuristic(m)


class TestBatchedCut:
    def test_stack_matches_row_reference(self):
        rng = np.random.default_rng(13)
        ints = np.concatenate((
            np.zeros((1, 6, 6)),
            np.ones((1, 6, 6)),
            rng.integers(-2, 3, size=(30, 6, 6)).astype(float),
        ))
        assert _batched_cut(ints).tolist() == [
            cut_norm_rows_reference(m)[0] for m in ints
        ]
        floats = rng.uniform(-1.0, 1.0, size=(30, 6, 6))
        np.testing.assert_allclose(
            _batched_cut(floats),
            [cut_norm_rows_reference(m)[0] for m in floats],
            rtol=0.0, atol=1e-12,
        )


class TestMinPermutedDistance:
    def test_an_unknown_mode_is_refused(self):
        g = Graph(np.ones((3, 3)))
        with pytest.raises(ParameterError, match="^unknown mode 'bogus'$"):
            min_permuted_distance(g, g, 1, mode="bogus")

    def test_identical_graphs(self):
        rng = np.random.default_rng(5)
        g = Graph(rng.random((4, 4)))
        for norm in (1, 2, math.inf, "cut"):
            res = min_permuted_distance(g, g, norm)
            assert res.value == 0.0
            assert np.array_equal(res.permutation.mapping, np.arange(4))
            assert res.certified

    def test_relabeled_c4_distance_zero(self):
        from oracles import GraphGeneratorSpec, generate

        g = generate(GraphGeneratorSpec("cycle", 4))
        for mapping in ([1, 2, 3, 0], [2, 0, 3, 1], [3, 2, 1, 0]):
            h = permute(g, Permutation(np.array(mapping)))
            for norm in (1, 2, "cut"):
                assert min_permuted_distance(g, h, norm).value == pytest.approx(
                    0.0, abs=1e-12
                )

    def test_exact_matches_factorial_brute_force(self):
        rng = np.random.default_rng(6)
        small = (random_binary_symmetric(rng, 5, 0.5), random_binary_symmetric(rng, 5, 0.5))
        # the fifth 7-node pair of seed 3: a power iteration on its minimizer
        # reads 2.8e-12 (relative) below the SVD value
        rng = np.random.default_rng(3)
        for _ in range(5):
            seven = (random_binary_symmetric(rng, 7), random_binary_symmetric(rng, 7))
        for pair, norms in ((small, (2, "cut")), (SWEEP_LIMIT_PAIR, (2,)), (seven, (2,))):
            a, b = Graph(pair[0]), Graph(pair[1])
            for norm in norms:
                res = min_permuted_distance(a, b, norm)
                assert res.value == pytest.approx(
                    min_permuted_distance_brute(a.weights, b.weights, norm), abs=1e-9
                )
                assert res.certified and res.mode == "exact"
                if norm == 2:
                    moved = permute(a, res.permutation).weights
                    assert res.value == pytest.approx(
                        float(np.linalg.norm(moved - b.weights, 2)), rel=1e-13
                    )

    def test_cut_sweep_at_the_exact_limit(self):
        a, b = Graph(SWEEP_LIMIT_PAIR[0]), Graph(SWEEP_LIMIT_PAIR[1])
        assert a.n == MAX_PERM_EXACT_N
        res = min_permuted_distance(a, b, "cut")
        # |sum(A^pi - B)| is the same for every pi and bounds the cut norm
        # from below, so reaching it certifies the minimum without the n!
        # brute force
        assert res.value == abs(float((a.weights - b.weights).sum())) == 4.0
        moved = permute(a, res.permutation).weights
        assert cut_norm_exact(moved - b.weights).value == res.value

    def test_one_and_inf_sweeps_at_the_exact_limit(self):
        rng = np.random.default_rng(15)
        signed = (rng.standard_normal((8, 8)), rng.standard_normal((8, 8)))
        for pair in (SWEEP_LIMIT_PAIR, signed):
            a, b = Graph(pair[0]), Graph(pair[1])
            assert a.n == MAX_PERM_EXACT_N
            for norm in (1, math.inf):
                res = min_permuted_distance(a, b, norm)
                assert res.value == pytest.approx(
                    min_permuted_distance_brute(a.weights, b.weights, norm), rel=1e-12
                )
                moved = permute(a, res.permutation).weights
                assert res.value == operator_norm(moved - b.weights, norm)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_overflowing_sweep_raises_numerical_error(self):
        # every candidate's cut sums overflow; the sweep used to end in
        # Permutation(None), a TypeError
        a = np.zeros((4, 4))
        a[:2, 1] = 1e308
        a[2:, 1] = -1e308
        with pytest.raises(NumericalError, match="overflows"):
            min_permuted_distance(Graph(a), Graph(np.zeros((4, 4))), "cut")

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_nan_candidate_raises_numerical_error(self):
        # the row sums overflow to +inf and -inf, so every candidate's cut
        # total meets inf - inf
        a = np.zeros((4, 4))
        a[0, :2] = 1e308
        a[1, :2] = -1e308
        with pytest.raises(NumericalError, match="NaN"):
            min_permuted_distance(Graph(a), Graph(np.zeros((4, 4))), "cut")

    def test_greedy_upper_bounds_exact(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            a = Graph(rng.random((5, 5)))
            b = Graph(rng.random((5, 5)))
            exact = min_permuted_distance(a, b, 2)
            greedy = min_permuted_distance(a, b, 2, mode="greedy")
            assert greedy.value >= exact.value - 1e-12
            assert not greedy.certified

    def test_greedy_value_is_a_real_permutation_distance(self):
        rng = np.random.default_rng(8)
        a = Graph(rng.random((6, 6)))
        b = Graph(rng.random((6, 6)))
        res = min_permuted_distance(a, b, 2, mode="greedy")
        moved = permute(a, res.permutation)
        assert res.value == pytest.approx(
            float(np.linalg.norm(moved.weights - b.weights, 2)), abs=1e-8
        )

    def test_exact_size_cap(self):
        g = Graph(np.zeros((9, 9)))
        with pytest.raises(SizeLimitError):
            min_permuted_distance(g, g, 2)

    def test_size_mismatch(self):
        with pytest.raises(ParameterError):
            min_permuted_distance(Graph(np.zeros((2, 2))), Graph(np.zeros((3, 3))), 2)


SWEEP_NORMS = (1, 2, np.inf, "cut")


@st.composite
def sweep_inputs(draw):
    """Two n x n matrices, n <= 7: integer or real, symmetric or not, either
    unrelated or the second a relabeled copy of the first with a few entries
    redrawn."""
    n = draw(st.integers(1, 7))
    integer = draw(st.booleans())
    symmetric = draw(st.booleans())
    if integer:
        entry = st.integers(-2, 2).map(float)
    else:
        entry = st.floats(-1.0, 1.0, allow_subnormal=False)
    a = draw(arrays(np.float64, (n, n), elements=entry))
    if draw(st.booleans()):
        p = np.array(draw(st.permutations(range(n))))
        b = a[np.ix_(p, p)].copy()
        for _ in range(draw(st.integers(0, 2))):
            i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
            b[i, j] = draw(entry)
    else:
        b = draw(arrays(np.float64, (n, n), elements=entry))
    if symmetric:
        a, b = np.triu(a) + np.triu(a, 1).T, np.triu(b) + np.triu(b, 1).T
    return a, b, integer, draw(st.sampled_from(SWEEP_NORMS))


class TestPrunedSweep:
    """The exact sweep stops at floors and skips blocks by prefix bounds; it
    must keep the value and the first minimizer of the unpruned sweep."""

    def check_against_reference(self, a, b, norm, exact):
        res = min_permuted_distance(Graph(a), Graph(b), norm)
        value, perm = min_permuted_distance_lex_reference(a, b, norm)
        got = tuple(res.permutation.mapping.tolist())
        if exact:
            assert (res.value, got) == (value, perm)
        else:
            assert abs(res.value - value) <= 1e-12 * value
            moved = permute(Graph(a), res.permutation).weights
            attained = matrix_norm_brute(moved - b, norm)
            assert abs(attained - res.value) <= 1e-12 * res.value
        assert 1 <= res.evaluated <= math.factorial(a.shape[0])
        return res

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(sweep_inputs())
    def test_property_against_the_unpruned_sweep(self, case):
        a, b, integer, norm = case
        # sums of small integers are exact, so only the 2-norm rounds
        self.check_against_reference(a, b, norm, exact=integer and norm != 2)

    def test_unrelated_pairs_at_the_limit(self):
        rng = np.random.default_rng(16)
        n = MAX_PERM_EXACT_N
        for norm, kind in zip(SWEEP_NORMS, ("0/1", "0/1", "+-1", "+-1")):
            if kind == "0/1":
                a, b = random_binary_symmetric(rng, n), random_binary_symmetric(rng, n)
            else:
                a, b = rng.choice([-1.0, 1.0], size=(2, n, n))
            self.check_against_reference(a, b, norm, exact=norm != 2)

    def test_evaluated_counts_on_the_limit_pair(self):
        a, b = Graph(SWEEP_LIMIT_PAIR[0]), Graph(SWEEP_LIMIT_PAIR[1])
        # the identity reaches the 1-, inf- and cut-norm floors; the 2-norm
        # floor (Weyl) is 0.61 against a minimum of 1, so prefix bounds prune
        counts = {1: 1, 2: 6240, np.inf: 1, "cut": 1}
        for norm, count in counts.items():
            res = min_permuted_distance(a, b, norm)
            assert res.evaluated == count
            assert np.array_equal(res.permutation.mapping, np.arange(8))
        assert min_permuted_distance(a, b, 2, mode="greedy").evaluated == 1

    def test_near_relabeled_pair_evaluates_few_candidates(self):
        rng = np.random.default_rng(0)
        w = random_binary_symmetric(rng, 8)
        v = w.copy()
        for i, j in ((0, 1), (2, 5)):
            v[i, j] = v[j, i] = 1.0 - v[i, j]
        p = rng.permutation(8)
        v = v[np.ix_(p, p)]
        # 1-, inf- and cut-norm distances are exact here, so their counts
        # are too; the cut sweep stops at its floor after the first chunk
        counts = {1: 10560, np.inf: 10560, "cut": 480}
        for norm in SWEEP_NORMS:
            res = self.check_against_reference(w, v, norm, exact=norm != 2)
            assert res.evaluated < math.factorial(8) // 3
            assert res.evaluated == counts.get(norm, res.evaluated)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_non_finite_floor_and_bounds_never_prune(self):
        # column 1 of a sums to inf, so the 1-norm floor and the bound of
        # every prefix but (3, 4) overflow; the minimum, 1e308, is finite
        # and not at the identity
        a = np.zeros((6, 6))
        a[[0, 1], 1] = 1e308
        b = np.zeros((6, 6))
        b[3, 4] = 1e308
        assert norms._relabeling_floor(a, b, "1") == 0.0
        prefixes = np.array(list(itertools.permutations(range(6), 2)))
        bounds = norms._prefix_bounds(a, b, prefixes, "1")
        assert bounds.tolist() == [
            1e308 if tuple(p) == (3, 4) else 0.0 for p in prefixes
        ]
        res = self.check_against_reference(a, b, 1, exact=True)
        assert res.value == 1e308

    def test_two_norm_floor_needs_symmetry(self):
        # eigvalsh reads one triangle only: it would see 0 and the
        # symmetric 2-cycle, a floor of 1, though the swap gives distance 0
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        res = min_permuted_distance(Graph(a), Graph(a.T), 2)
        assert (res.value, res.permutation.mapping.tolist()) == (0.0, [1, 0])

    def test_candidates_in_lexicographic_order(self):
        for n in range(1, MAX_PERM_EXACT_N + 1):
            assert norms._lex_permutations(n).tolist() == [
                list(p) for p in itertools.permutations(range(n))
            ]

    def test_lowered_limit_refuses_before_any_work(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the sweep started")

        monkeypatch.setattr(norms, "MAX_PERM_EXACT_N", 7)
        monkeypatch.setattr(norms, "_lex_permutations", refuse)
        monkeypatch.setattr(norms, "_chunk_values", refuse)
        monkeypatch.setattr(norms, "_relabeling_floor", refuse)
        g = Graph(np.zeros((8, 8)))
        for norm in SWEEP_NORMS:
            with pytest.raises(SizeLimitError, match="n <= 7"):
                min_permuted_distance(g, g, norm)
