import itertools
import math

import numpy as np
import pytest

from fpcentral import Graph, ParameterError, Permutation, degree_vector, permute
from fpcentral.graphon import StepGraphon
from fpcentral.graphs import MATRIX_TOL, _Entries, _pow2_normalize, matrix_tol, max_asymmetry
from fpcentral.io import parse_edge_list

from oracles import (
    GraphGeneratorSpec,
    automorphisms_brute,
    generate,
    inverse,
    is_binary,
    permute_vector,
)


def _full_asymmetry(w):
    """The untiled check: one n x n difference against the transpose."""
    return np.max(np.abs(w - w.T), initial=0.0)


class TestGraph:
    def test_rejects_non_square(self):
        with pytest.raises(ParameterError):
            Graph(np.zeros((2, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(ParameterError):
            Graph(np.array([[0.0, np.inf], [0.0, 0.0]]))
        with pytest.raises(ParameterError):
            Graph(np.array([[np.nan]]))

    def test_rejects_empty(self):
        with pytest.raises(ParameterError):
            Graph(np.zeros((0, 0)))

    def test_defensive_copy(self):
        w = np.zeros((2, 2))
        g = Graph(w)
        w[0, 1] = 5.0
        assert g.weights[0, 1] == 0.0

    def test_symmetric_flag(self):
        assert Graph(np.array([[0.0, 1.0], [1.0, 0.0]])).symmetric
        assert not Graph(np.array([[0.0, 1.0], [0.0, 0.0]])).symmetric

    def test_is_binary(self):
        assert is_binary(Graph(np.array([[0.0, 1.0], [1.0, 0.0]])))
        assert not is_binary(Graph(np.array([[0.0, 0.5], [0.5, 0.0]])))

    @pytest.mark.parametrize(
        "weights, fault",
        [
            (np.zeros((2, 3)), "not square"),
            (np.zeros(3), "not square"),
            (np.zeros((0, 0)), "empty"),
            (np.zeros((1, 0)), "empty"),
            ([[0.0, np.nan], [0.0, 0.0]], "non-finite"),
            ([[np.inf]], "non-finite"),
        ],
    )
    def test_messages_name_the_fault(self, weights, fault):
        # the same messages serve graphs and step graphons
        for build in (Graph, StepGraphon):
            with pytest.raises(ParameterError, match=f"^the matrix (is|has) {fault}"):
                build(weights)


class TestMaxAsymmetry:
    def test_equals_the_untiled_check(self):
        rng = np.random.default_rng(13)
        for n in (1, 2, 127, 128, 129, 300):
            w = rng.standard_normal((n, n))
            assert max_asymmetry(w) == _full_asymmetry(w)
            assert max_asymmetry(w + w.T) == 0.0
        assert max_asymmetry(np.zeros((0, 0))) == 0.0

    def test_asymmetry_only_in_the_last_partial_tile(self):
        rng = np.random.default_rng(14)
        base = rng.standard_normal((300, 300))
        base = base + base.T
        for i, j in ((299, 290), (290, 299), (299, 0), (0, 299), (280, 260)):
            w = base.copy()
            w[i, j] += 0.5
            assert max_asymmetry(w) == _full_asymmetry(w) > 0.25

    def test_tolerance_flips_at_the_same_entry(self):
        # the tolerance is 1e-12 times 2^k for a peak 2^k on the diagonal,
        # so every power-of-two scale flips at the same entries
        for k in (-60, 0, 60):
            peak = math.ldexp(1.0, k)
            tol = math.ldexp(MATRIX_TOL, k)
            above = np.nextafter(tol, math.inf)
            for base in (0.0, 0.3 * peak):
                for gap, symmetric in ((tol, True), (above, False)):
                    for i, j in ((199, 150), (150, 199), (3, 190)):
                        w = np.full((200, 200), base)
                        w[0, 0] = peak
                        w[i, j] += gap
                        assert max_asymmetry(w) == _full_asymmetry(w)
                        assert matrix_tol(w) == tol
                        flips = bool(_full_asymmetry(w) <= tol)
                        if base == 0.0:
                            assert flips is symmetric
                        assert Graph(w).symmetric is flips
                        if flips:
                            StepGraphon(w)
                        else:
                            with pytest.raises(ParameterError, match="symmetric"):
                                StepGraphon(w)
        # a zero matrix with one 1e-12 entry is that entry's scale: asymmetric
        w = np.zeros((200, 200))
        w[199, 150] = MATRIX_TOL
        assert not Graph(w).symmetric


class TestPow2Normalize:
    def test_scales_the_peak_into_one_two(self):
        for peak, e in ((1000.0, 9), (-1000.0, 9), (0.75, -1), (1e-300, -997), (1e300, 996)):
            m = np.array([[peak, 0.5 * peak], [0.0, -0.25 * peak]])
            scaled, got = _pow2_normalize(m)
            assert got == e
            assert np.array_equal(np.ldexp(scaled, e), m)
            assert 1.0 <= np.max(np.abs(scaled)) < 2.0

    def test_leaves_unit_and_zero_peaks_alone(self):
        for m in (np.eye(3), -1.5 * np.eye(3), np.zeros((2, 2))):
            scaled, e = _pow2_normalize(m)
            assert scaled is m and e == 0


class TestGenerate:
    def test_complete_k3(self):
        g = generate(GraphGeneratorSpec("complete", 3))
        assert np.array_equal(g.weights, np.ones((3, 3)) - np.eye(3))

    def test_cycle_c4_each_node_has_two_neighbors(self):
        g = generate(GraphGeneratorSpec("cycle", 4))
        assert np.array_equal(degree_vector(g), np.full(4, 2.0))
        assert g.symmetric and is_binary(g)

    def test_erdos_renyi_deterministic(self):
        spec = GraphGeneratorSpec("erdos_renyi", 5, edge_prob=0.5, seed=42)
        assert np.array_equal(generate(spec).weights, generate(spec).weights)

    def test_star_and_path(self):
        star = generate(GraphGeneratorSpec("star", 4))
        assert degree_vector(star)[0] == 3.0
        assert np.array_equal(degree_vector(star)[1:], np.ones(3))
        path = generate(GraphGeneratorSpec("path", 3))
        assert np.array_equal(degree_vector(path), np.array([1.0, 2.0, 1.0]))

    def test_spec_validation(self):
        with pytest.raises(ParameterError):
            GraphGeneratorSpec("erdos_renyi", 5)
        with pytest.raises(ParameterError):
            GraphGeneratorSpec("cycle", 4, edge_prob=0.5)
        with pytest.raises(ParameterError):
            GraphGeneratorSpec("triangle_lattice", 4)
        with pytest.raises(ParameterError):
            GraphGeneratorSpec("cycle", 0)


class TestPermutation:
    def test_validation(self):
        with pytest.raises(ParameterError):
            Permutation(np.array([0, 0]))
        with pytest.raises(ParameterError):
            Permutation(np.array([0, 2]))

    def test_inverse_and_compose(self):
        p = Permutation(np.array([1, 2, 0]))
        assert np.array_equal(p.mapping[inverse(p).mapping], np.arange(3))
        assert np.array_equal(inverse(p).mapping[p.mapping], np.arange(3))

    @pytest.mark.parametrize(
        "mapping", [[0.7, 1.2], [1.0, 0.5], [0.0, np.nan], [np.inf, 0.0]]
    )
    def test_refuses_non_integral_entries(self, mapping):
        # [0.7, 1.2] used to be truncated to the identity
        with pytest.raises(ParameterError, match="integers"):
            Permutation(mapping)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("mapping", [
        [0, 10**30], ["a", "b"], [None, 0], [True, False], ["0", "1"], [1 + 0j, 0j],
        [0.0, 1e300], np.array([1, 0], dtype=object),
    ], ids=["beyond-int64", "letters", "none", "bools", "digit-strings", "complex",
            "float-beyond-int64", "object-ints"])
    def test_refuses_entries_that_are_not_integers_before_any_cast(self, mapping):
        with pytest.raises(ParameterError, match="^mapping entries must be integers$"):
            Permutation(mapping)

    def test_accepts_integral_floats(self):
        p = Permutation(np.array([2.0, 0.0, 1.0]))
        assert p.mapping.tolist() == [2, 0, 1]
        assert p.mapping.dtype.kind == "i"

    def test_refuses_a_mapping_that_is_not_flat(self):
        with pytest.raises(ParameterError, match="^mapping must be a flat index sequence$"):
            Permutation(np.array([[0, 1], [1, 0]]))

    def test_equality_compares_mappings(self):
        p = Permutation(np.array([1, 2, 0]))
        assert p == Permutation([1.0, 2.0, 0.0]) and hash(p) == hash(Permutation([1, 2, 0]))
        assert p != Permutation(np.array([2, 0, 1]))
        assert p != Permutation(np.array([1, 0]))
        assert p != [1, 2, 0]  # not a Permutation


class TestPermute:
    def test_identity_leaves_graph_unchanged(self):
        g = generate(GraphGeneratorSpec("erdos_renyi", 5, edge_prob=0.5, seed=7))
        out = permute(g, Permutation(np.arange(5)))
        assert np.array_equal(out.weights, g.weights)

    def test_c4_rotation_fixes_cycle(self):
        g = generate(GraphGeneratorSpec("cycle", 4))
        rot = Permutation(np.array([1, 2, 3, 0]))
        assert np.array_equal(permute(g, rot).weights, g.weights)

    def test_star_leaf_swap_fixes_star(self):
        g = generate(GraphGeneratorSpec("star", 4))
        swap = Permutation(np.array([0, 2, 1, 3]))
        assert np.array_equal(permute(g, swap).weights, g.weights)

    def test_permute_roundtrip(self):
        rng = np.random.default_rng(3)
        g = Graph(rng.random((6, 6)))
        p = Permutation(rng.permutation(6))
        back = permute(permute(g, p), inverse(p))
        assert np.allclose(back.weights, g.weights)

    def test_permute_vector_tracks_matrix(self):
        rng = np.random.default_rng(4)
        g = Graph(rng.random((5, 5)))
        p = Permutation(rng.permutation(5))
        lhs = degree_vector(permute(g, p))
        rhs = permute_vector(degree_vector(g), p)
        assert np.allclose(lhs, rhs)

    def test_size_mismatch(self):
        g = generate(GraphGeneratorSpec("cycle", 4))
        with pytest.raises(ParameterError):
            permute(g, Permutation(np.arange(3)))

    @pytest.mark.parametrize("share", [0.0, 0.01, 0.3], ids=["empty", "listed", "dense"])
    @pytest.mark.parametrize("symmetric", [True, False], ids=["symmetric", "directed"])
    def test_relabeling_holds_what_the_relabeled_array_holds(self, share, symmetric):
        # a listed graph maps its entries' indices and sorts them again; the
        # reference relabels the whole array and lists it anew
        rng = np.random.default_rng(2500)
        n = 300
        w = np.where(rng.random((n, n)) < share, rng.random((n, n)) * 4.0 - 1.0, 0.0)
        if symmetric:
            w = w + w.T
        g, p = Graph(w), Permutation(rng.permutation(n))
        relabeled = np.empty_like(w)
        relabeled[np.ix_(p.mapping, p.mapping)] = w
        got, want = permute(g, p), Graph(relabeled)
        assert type(got._held) is type(want._held) is type(g._held)
        assert isinstance(g._held, _Entries) == (share < 0.1)
        assert got.symmetric == want.symmetric == (symmetric or not share)
        for x, y in zip(got._held, want._held):
            assert type(x) is type(y)
            assert (x.dtype, x.tobytes()) == (y.dtype, y.tobytes()) if type(x) is np.ndarray else x == y


def _fixed_by_permute(g):
    """Every relabeling, in itertools order, that ``permute`` maps ``g``
    onto itself exactly."""
    return [
        p for p in itertools.permutations(range(g.n))
        if np.array_equal(permute(g, Permutation(np.array(p))).weights, g.weights)
    ]


class TestAutomorphisms:
    """``permute`` fixes a graph under exactly its automorphisms, the
    relabelings that the brute-force oracle finds by index arithmetic."""

    def test_p3_endpoint_swap_is_automorphism(self):
        g = generate(GraphGeneratorSpec("path", 3))
        assert _fixed_by_permute(g) == [(0, 1, 2), (2, 1, 0)]

    def test_p3_rotation_is_not(self):
        # the rotation moves the middle node to an end: 0-1-2 becomes 1-2-0
        g = generate(GraphGeneratorSpec("path", 3))
        moved = permute(g, Permutation(np.array([1, 2, 0]))).weights
        assert not np.array_equal(moved, g.weights)
        assert np.array_equal(moved.sum(axis=1), [1.0, 1.0, 2.0])

    def test_k3_has_six(self):
        g = generate(GraphGeneratorSpec("complete", 3))
        assert _fixed_by_permute(g) == list(itertools.permutations(range(3)))

    def test_c4_has_eight(self):
        g = generate(GraphGeneratorSpec("cycle", 4))
        got = _fixed_by_permute(g)
        assert len(got) == 8
        assert got == automorphisms_brute(g.weights)

    def test_paw_graph_has_identity_and_leaf_swap(self):
        # edges 0-1, 1-2, 2-3, 1-3: node 0 pendant, nodes 2 and 3 symmetric
        w = np.zeros((4, 4))
        for i, j in ((0, 1), (1, 2), (2, 3), (1, 3)):
            w[i, j] = w[j, i] = 1.0
        got = _fixed_by_permute(Graph(w))
        assert got == [(0, 1, 2, 3), (0, 1, 3, 2)]
        assert got == automorphisms_brute(w)

    def test_directed_cycle_has_only_its_rotations(self):
        w = np.zeros((4, 4))
        for i in range(4):
            w[i, (i + 1) % 4] = 1.0
        got = _fixed_by_permute(Graph(w))
        assert sorted(got) == sorted(tuple((r + i) % 4 for i in range(4)) for r in range(4))
        assert got == automorphisms_brute(w)

    def test_empty_graph_is_fixed_by_every_relabeling(self):
        assert _fixed_by_permute(Graph(np.zeros((4, 4)))) == list(
            itertools.permutations(range(4))
        )

    def test_matches_brute_force_on_seeded_graphs(self):
        for seed in range(6):
            g = generate(GraphGeneratorSpec("erdos_renyi", 6, edge_prob=0.4, seed=seed))
            assert _fixed_by_permute(g) == automorphisms_brute(g.weights)

    def test_listed_graph_is_fixed_by_the_automorphisms_of_its_array(self):
        # K_{1,63} read from an edge list is sparse enough to be held as its
        # entries; its leaves permute freely and its hub stays put
        n = 64
        g = parse_edge_list("".join(f"0 {j}\n{j} 0\n" for j in range(1, n)))
        assert isinstance(g._held, _Entries)
        dense = Graph(g.weights)
        leaf_swap = np.arange(n)
        leaf_swap[[1, 2]] = [2, 1]
        leaf_cycle = np.concatenate([[0], np.roll(np.arange(1, n), 1)])
        hub_swap = np.arange(n)
        hub_swap[[0, 1]] = [1, 0]
        for mapping, fixes in ((leaf_swap, True), (leaf_cycle, True), (hub_swap, False)):
            moved = permute(g, Permutation(mapping)).weights
            assert np.array_equal(moved, permute(dense, Permutation(mapping)).weights)
            assert np.array_equal(moved, g.weights) is fixes


class TestDegreeVector:
    def test_k3(self):
        g = generate(GraphGeneratorSpec("complete", 3))
        assert np.array_equal(degree_vector(g), np.array([2.0, 2.0, 2.0]))

    def test_zero_matrix(self):
        assert np.array_equal(degree_vector(Graph(np.zeros((3, 3)))), np.zeros(3))

    def test_directed_3_cycle_row_sums(self):
        w = np.zeros((3, 3))
        w[0, 1] = w[1, 2] = w[2, 0] = 1.0
        assert np.array_equal(degree_vector(Graph(w)), np.ones(3))
