import numpy as np
import pytest

from fpcentral import (
    Graph,
    GraphGeneratorSpec,
    ParameterError,
    Permutation,
    SizeLimitError,
    degree_vector,
    enumerate_automorphisms,
    generate,
    is_automorphism,
    permute,
    permute_vector,
)
from fpcentral.graphon import VALUE_MATCH_TOL, StepGraphon
from fpcentral.graphs import SYMMETRY_TOL, _pow2_normalize, max_asymmetry
from fpcentral.limits import MAX_AUTOMORPHISM_N

from oracles import automorphisms_brute


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
        assert Graph(np.array([[0.0, 1.0], [1.0, 0.0]])).is_binary()
        assert not Graph(np.array([[0.0, 0.5], [0.5, 0.0]])).is_binary()

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
        above = np.nextafter(SYMMETRY_TOL, 1.0)
        assert SYMMETRY_TOL == VALUE_MATCH_TOL
        for base in (0.0, 0.3):
            for gap, symmetric in ((SYMMETRY_TOL, True), (above, False)):
                for i, j in ((199, 150), (150, 199), (3, 190)):
                    w = np.full((200, 200), base)
                    w[i, j] += gap
                    assert max_asymmetry(w) == _full_asymmetry(w)
                    flips = bool(_full_asymmetry(w) <= SYMMETRY_TOL)
                    if base == 0.0:
                        assert flips is symmetric
                    assert Graph(w).symmetric is flips
                    if flips:
                        StepGraphon(w)
                    else:
                        with pytest.raises(ParameterError, match="symmetric"):
                            StepGraphon(w)


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
        assert g.symmetric and g.is_binary()

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
        q = p.compose(p.inverse())
        assert np.array_equal(q.mapping, np.arange(3))

    def test_identity_factory(self):
        assert np.array_equal(Permutation.identity(4).mapping, np.arange(4))

    @pytest.mark.parametrize(
        "mapping", [[0.7, 1.2], [1.0, 0.5], [0.0, np.nan], [np.inf, 0.0]]
    )
    def test_refuses_non_integral_entries(self, mapping):
        # [0.7, 1.2] used to be truncated to the identity
        with pytest.raises(ParameterError, match="integers"):
            Permutation(mapping)

    def test_accepts_integral_floats(self):
        p = Permutation(np.array([2.0, 0.0, 1.0]))
        assert p.mapping.tolist() == [2, 0, 1]
        assert p.mapping.dtype.kind == "i"


class TestPermute:
    def test_identity_leaves_graph_unchanged(self):
        g = generate(GraphGeneratorSpec("erdos_renyi", 5, edge_prob=0.5, seed=7))
        out = permute(g, Permutation.identity(5))
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
        back = permute(permute(g, p), p.inverse())
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
            permute(g, Permutation.identity(3))


class TestAutomorphisms:
    def test_c4_rotation_is_automorphism(self):
        g = generate(GraphGeneratorSpec("cycle", 4))
        assert is_automorphism(g, Permutation(np.array([1, 2, 3, 0])))

    def test_p3_endpoint_swap_is_automorphism(self):
        g = generate(GraphGeneratorSpec("path", 3))
        assert is_automorphism(g, Permutation(np.array([2, 1, 0])))

    def test_p3_rotation_is_not(self):
        g = generate(GraphGeneratorSpec("path", 3))
        assert not is_automorphism(g, Permutation(np.array([1, 2, 0])))

    def test_k3_has_six(self):
        g = generate(GraphGeneratorSpec("complete", 3))
        assert len(enumerate_automorphisms(g)) == 6

    def test_c4_has_eight(self):
        g = generate(GraphGeneratorSpec("cycle", 4))
        autos = enumerate_automorphisms(g)
        assert len(autos) == 8
        assert {tuple(p.mapping) for p in autos} == set(
            automorphisms_brute(g.weights)
        )

    def test_paw_graph_has_identity_and_leaf_swap(self):
        # edges 0-1, 1-2, 2-3, 1-3: node 0 pendant, nodes 2 and 3 symmetric
        w = np.zeros((4, 4))
        for i, j in ((0, 1), (1, 2), (2, 3), (1, 3)):
            w[i, j] = w[j, i] = 1.0
        autos = enumerate_automorphisms(Graph(w))
        got = {tuple(p.mapping) for p in autos}
        assert got == {(0, 1, 2, 3), (0, 1, 3, 2)}
        assert got == set(automorphisms_brute(w))

    def test_matches_brute_force_on_seeded_graphs(self):
        for seed in range(6):
            g = generate(
                GraphGeneratorSpec("erdos_renyi", 6, edge_prob=0.4, seed=seed)
            )
            got = {tuple(p.mapping) for p in enumerate_automorphisms(g)}
            assert got == set(automorphisms_brute(g.weights))

    def test_same_list_in_the_same_order_as_itertools(self):
        graphs = [
            generate(GraphGeneratorSpec("cycle", 6)),
            generate(GraphGeneratorSpec("complete", 4)),
            Graph(np.zeros((5, 5))),
        ] + [
            generate(GraphGeneratorSpec("erdos_renyi", 6, edge_prob=0.5, seed=seed))
            for seed in range(20, 25)
        ]
        for g in graphs:
            got = [tuple(p.mapping.tolist()) for p in enumerate_automorphisms(g)]
            assert got == automorphisms_brute(g.weights)

    def test_same_list_as_brute_force_at_eight_and_nine(self):
        graphs = [
            generate(GraphGeneratorSpec("cycle", 8)),
            generate(GraphGeneratorSpec("star", 8)),
        ] + [
            generate(GraphGeneratorSpec("erdos_renyi", n, edge_prob=0.5, seed=seed))
            for n, seed in ((8, 30), (8, 31), (8, 32), (9, 33))
        ]
        for g in graphs:
            got = [tuple(p.mapping.tolist()) for p in enumerate_automorphisms(g)]
            assert got == automorphisms_brute(g.weights)

    @pytest.mark.parametrize("n", [8, 9])
    def test_weighted_entries_compare_within_1e_12(self, n):
        # a weighted cycle with one edge nudged: 5e-13 keeps every dihedral
        # symmetry, 2e-12 only the two that map the edge {0, 1} onto itself
        # (the identity and i -> 1 - i)
        dihedral = sorted(
            tuple((r + s * i) % n for i in range(n)) for r in range(n) for s in (1, -1)
        )
        edge_fixing = [tuple(range(n)), tuple((1 - i) % n for i in range(n))]
        base = 0.7 * generate(GraphGeneratorSpec("cycle", n)).weights
        if n == 8:
            assert automorphisms_brute(base) == dihedral
        for nudge, kept in ((5e-13, dihedral), (2e-12, edge_fixing)):
            w = base.copy()
            w[0, 1] = w[1, 0] = 0.7 + nudge
            g = Graph(w)
            got = [tuple(p.mapping.tolist()) for p in enumerate_automorphisms(g)]
            assert got == kept
            for mapping in dihedral:
                assert is_automorphism(g, Permutation(mapping)) is (mapping in kept)

    def test_every_listed_permutation_validates(self):
        g = generate(GraphGeneratorSpec("star", 5))
        for p in enumerate_automorphisms(g):
            assert is_automorphism(g, p)

    def test_nine_cycle_at_the_limit(self):
        n = MAX_AUTOMORPHISM_N
        g = generate(GraphGeneratorSpec("cycle", n))
        dihedral = {tuple((r + s * i) % n for i in range(n)) for r in range(n) for s in (1, -1)}
        got = [tuple(p.mapping.tolist()) for p in enumerate_automorphisms(g)]
        assert len(got) == 18
        assert set(got) == dihedral
        assert got == sorted(got)

    def test_size_cap(self):
        g = generate(GraphGeneratorSpec("cycle", 10))
        with pytest.raises(SizeLimitError):
            enumerate_automorphisms(g)

    def test_env_var_lowers_cap(self, monkeypatch):
        monkeypatch.setenv("FPC_MAX_EXACT_N", "3")
        g = generate(GraphGeneratorSpec("cycle", 4))
        with pytest.raises(SizeLimitError):
            enumerate_automorphisms(g)


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
