import hashlib
import json
import math

import numpy as np
import pytest

from fpcentral import (
    Graph,
    ParameterError,
    Permutation,
    StepGraphon,
    lift,
    operator_norm,
    permute,
    prop6_certificate,
    prop7_certificate,
    prop9_certificate,
    prop10_certificate,
    theorem1_certificate,
    theorem2_certificate,
)
from fpcentral import perturbation
from fpcentral.graphs import _Entries
from fpcentral.io import parse_edge_list, parse_graph_json, parse_graphon_json

from golden_cases import cases, run_case
from oracles import (
    GraphGeneratorSpec,
    constants_empirical,
    generate,
    katz_reference,
    random_binary_symmetric,
    random_symmetric,
)


def _c2():
    return Graph(np.array([[0.0, 1.0], [1.0, 0.0]]))


def _directed_3_cycle():
    w = np.zeros((3, 3))
    w[0, 1] = w[1, 2] = w[2, 0] = 1.0
    return Graph(w)


def _katz_alpha_for(g, margin=0.5):
    return min(0.9, margin / max(operator_norm(g.weights, 2), 1e-9))


def _constants(g, family, alpha):
    """The analytic constants that a certificate takes from its first input."""
    return theorem1_certificate(g, g, family, alpha).constants


class TestConstantsAnalytic:
    def test_katz_c2(self):
        consts = _constants(_c2(), "katz", 0.5)
        assert consts.L0 == pytest.approx(0.5, abs=1e-10)
        assert consts.Lg == 1.0
        assert consts.norm_p == 2
        assert consts.feasible_radius == pytest.approx(
            math.sqrt(2.0) / 0.5 + 1.0, abs=1e-9
        )
        assert consts.L1 == pytest.approx(0.5 * consts.feasible_radius, abs=1e-12)

    def test_katz_zero_matrix(self):
        consts = _constants(Graph(np.zeros((3, 3))), "katz", 0.7)
        assert consts.L0 == 0.0

    def test_pagerank_directed_3_cycle(self):
        consts = _constants(_directed_3_cycle(), "pagerank", 0.85)
        assert consts.L0 == pytest.approx(0.85, abs=1e-12)
        assert consts.norm_p == 1

    def test_katz_contraction_failure(self):
        g = Graph(np.full((4, 4), 1.0))
        with pytest.raises(ParameterError):
            theorem1_certificate(g, g, "katz", 0.5)

    def test_eigen_refused_with_pointer(self):
        w = lift(_c2())
        for a, certificate in ((_c2(), theorem1_certificate), (w, theorem2_certificate)):
            with pytest.raises(ParameterError, match="grassmann"):
                certificate(a, a, "eigen", None)

    def test_unknown_family_refused(self):
        with pytest.raises(ParameterError, match="unknown family 'hits'"):
            prop6_certificate(_c2(), _c2(), "hits", 0.5)

    def test_the_first_inputs_contraction_is_checked_before_the_sizes(self):
        with pytest.raises(ParameterError, match=r"alpha \* \|\|A\|\|_2 < 1, got 2"):
            theorem1_certificate(Graph(np.full((4, 4), 1.0)), _c2(), "katz", 0.5)


class TestConstantsEmpirical:
    def test_katz_empirical_below_analytic(self):
        rng = np.random.default_rng(40)
        for seed in range(10):
            n = int(rng.integers(2, 8))
            g = Graph(rng.random((n, n)))
            alpha = _katz_alpha_for(g)
            analytic = _constants(g, "katz", alpha)
            empirical = constants_empirical(g, "katz", alpha, samples=25, seed=seed)
            assert empirical.L0 <= analytic.L0 + 1e-9
            assert empirical.method == "empirical"

    def test_pagerank_empirical_below_analytic(self):
        rng = np.random.default_rng(41)
        for seed in range(10):
            n = int(rng.integers(2, 8))
            g = Graph(rng.random((n, n)) + 0.05)
            analytic = _constants(g, "pagerank", 0.85)
            empirical = constants_empirical(g, "pagerank", 0.85, samples=25, seed=seed)
            assert empirical.L0 <= analytic.L0 + 1e-9

    def test_affine_contraction_ratio_is_exact(self):
        # katz on C_2 is the affine map x -> 0.3 A.T x + 1 with A.T a
        # permutation, so every sampled ratio is 0.3 up to rounding
        consts = constants_empirical(_c2(), "katz", 0.3, samples=100, seed=0)
        assert consts.L0 == pytest.approx(0.3, rel=1e-14)

    def test_identity_g_has_unit_lg(self):
        consts = constants_empirical(_c2(), "katz", 0.5, samples=50, seed=1)
        assert consts.Lg == pytest.approx(1.0, abs=1e-9)

    def test_needs_at_least_two_samples(self):
        with pytest.raises(ParameterError):
            constants_empirical(_c2(), "katz", 0.5, 1, 0)

    def test_eigen_refused(self):
        with pytest.raises(ParameterError):
            constants_empirical(_c2(), "eigen", None, 10, 0)


class TestTheorem1:
    def test_identical_graphs(self):
        g = _c2()
        cert = theorem1_certificate(g, g, "katz", 0.5)
        assert cert.bound == 0.0
        assert cert.observed == 0.0
        assert cert.holds
        assert cert.slack == 0.0
        assert cert.certified

    def test_c6_with_one_weakened_edge(self):
        a = generate(GraphGeneratorSpec("cycle", 6))
        weights = a.weights.copy()
        weights[0, 1] = weights[1, 0] = 0.9
        b = Graph(weights)
        cert = theorem1_certificate(a, b, "katz", 0.25)
        assert cert.holds
        assert cert.norm == "2"
        assert cert.bound >= cert.observed

    def test_seeded_pairs_hold_for_both_families(self):
        rng = np.random.default_rng(43)
        for _ in range(30):
            n = int(rng.integers(3, 9))
            base = rng.random((n, n)) + 0.05
            pert = base + rng.random((n, n)) * 0.1
            a, b = Graph(base), Graph(pert)
            for family, alpha in (("katz", _katz_alpha_for(a)), ("pagerank", 0.85)):
                cert = theorem1_certificate(a, b, family, alpha)
                assert cert.holds

    def test_bound_grows_with_perturbation_size(self):
        a = generate(GraphGeneratorSpec("cycle", 5))
        e = np.zeros((5, 5))
        e[0, 2] = e[2, 0] = 1.0
        bounds = []
        for t in (0.05, 0.15, 0.3):
            cert = theorem1_certificate(a, Graph(a.weights + t * e), "katz", 0.2)
            assert cert.holds
            bounds.append(cert.bound)
        assert bounds[0] < bounds[1] < bounds[2]

    def test_pagerank_kernel_note_present(self):
        a = _directed_3_cycle()
        b = Graph(a.weights * 0.9)
        cert = theorem1_certificate(a, b, "pagerank", 0.85)
        assert any("kernel" in note for note in cert.notes)
        assert cert.holds

    def test_digest_reproducible_and_sensitive(self):
        a = _c2()
        b = Graph(np.array([[0.0, 0.9], [0.9, 0.0]]))
        c1 = theorem1_certificate(a, b, "katz", 0.5)
        c2 = theorem1_certificate(a, b, "katz", 0.5)
        c3 = theorem1_certificate(a, b, "katz", 0.4)
        assert c1.inputs_digest == c2.inputs_digest
        assert c1.inputs_digest != c3.inputs_digest

    def test_size_mismatch(self):
        with pytest.raises(ParameterError):
            theorem1_certificate(_c2(), Graph(np.zeros((3, 3))), "katz", 0.3)

    def test_to_dict_layout(self):
        g = _c2()
        payload = theorem1_certificate(g, g, "katz", 0.5).to_dict()
        assert set(payload) == {
            "bound", "observed", "holds", "slack", "certified", "norm",
            "constants", "inputs_digest", "notes",
        }
        assert set(payload["constants"]) == {"L0", "L1", "Lg", "R", "method"}


class TestProp6:
    def test_identical_graphs(self):
        g = generate(GraphGeneratorSpec("cycle", 4))
        cert = prop6_certificate(g, g, "katz", 0.3)
        assert cert.bound == 0.0 and cert.observed == 0.0 and cert.holds
        assert cert.certified

    def test_relabeled_graph_costs_nothing(self):
        rng = np.random.default_rng(44)
        a = Graph(random_binary_symmetric(rng, 5, 0.5))
        b = permute(a, Permutation(np.array([3, 0, 4, 2, 1])))
        for family, alpha in (("katz", _katz_alpha_for(a)), ("pagerank", 0.85)):
            cert = prop6_certificate(a, b, family, alpha)
            assert cert.bound == pytest.approx(0.0, abs=1e-9)
            assert cert.observed == pytest.approx(0.0, abs=1e-9)
            assert cert.holds

    def test_seeded_pair_holds_in_both_norms(self):
        rng = np.random.default_rng(45)
        a = Graph(random_binary_symmetric(rng, 5, 0.6))
        b = Graph(random_binary_symmetric(rng, 5, 0.6))
        cert2 = prop6_certificate(a, b, "katz", _katz_alpha_for(a))
        assert cert2.holds and cert2.norm == "2" and cert2.certified
        cert1 = prop6_certificate(a, b, "pagerank", 0.85)
        assert cert1.holds and cert1.norm == "1" and cert1.certified

    def test_greedy_mode_not_certified(self):
        rng = np.random.default_rng(46)
        a = Graph(random_binary_symmetric(rng, 5, 0.5))
        b = Graph(random_binary_symmetric(rng, 5, 0.5))
        cert = prop6_certificate(a, b, "katz", _katz_alpha_for(a), mode="greedy")
        assert not cert.certified
        assert cert.holds  # greedy only enlarges the right-hand side

    def test_observed_is_the_sorted_matching_of_the_pmfs(self):
        rng = np.random.default_rng(47)
        a = Graph(random_binary_symmetric(rng, 5, 0.5))
        b = Graph(random_binary_symmetric(rng, 5, 0.5))
        alpha = _katz_alpha_for(a)
        cert = prop6_certificate(a, b, "katz", alpha)
        pmf_a, pmf_b = (katz_reference(g, alpha) for g in (a, b))
        pmf_a, pmf_b = pmf_a / pmf_a.sum(), pmf_b / pmf_b.sum()
        expected = float(np.linalg.norm(np.sort(pmf_a) - np.sort(pmf_b)))
        assert expected > 1e-3
        assert cert.observed == pytest.approx(expected, abs=1e-9)

    def test_no_convention_keyword(self):
        a = _c2()
        for certificate in (prop6_certificate, prop7_certificate):
            with pytest.raises(TypeError):
                certificate(a, a, "katz", _katz_alpha_for(a), convention="permutation_cost")

    def test_normalization_fold_is_noted(self):
        rng = np.random.default_rng(48)
        a = Graph(random_binary_symmetric(rng, 5, 0.6))
        b = Graph(random_binary_symmetric(rng, 5, 0.6))
        cert = prop6_certificate(a, b, "katz", _katz_alpha_for(a))
        assert any("normalizer folded" in note for note in cert.notes)


class TestProp7:
    def test_identical_graphs(self):
        g = generate(GraphGeneratorSpec("cycle", 5))
        cert = prop7_certificate(g, g, "katz", 0.3)
        assert cert.bound == 0.0 and cert.observed == 0.0 and cert.holds

    def test_k4_minus_one_edge(self):
        a = generate(GraphGeneratorSpec("complete", 4))
        weights = a.weights.copy()
        weights[0, 1] = weights[1, 0] = 0.0
        b = Graph(weights)
        cert = prop7_certificate(a, b, "katz", 0.2)
        assert cert.holds
        assert cert.certified

    def test_rejects_non_symmetric(self):
        a = _directed_3_cycle()
        with pytest.raises(ParameterError):
            prop7_certificate(a, a, "katz", 0.3)

    def test_rejects_large_entries(self):
        a = Graph(2.0 * np.array([[0.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(ParameterError):
            prop7_certificate(a, a, "katz", 0.2)

    def test_rejects_one_norm_route(self):
        g = _c2()
        with pytest.raises(ParameterError):
            prop7_certificate(g, g, "pagerank", 0.85)


class TestOrder:
    """A certificate takes its right side from both records before it
    solves either, so a right side that cannot be taken fails first."""

    @pytest.mark.parametrize("certificate", [prop6_certificate, prop7_certificate])
    def test_exact_search_beyond_its_limit_fails_before_any_solve(
            self, monkeypatch, certificate):
        from fpcentral import SizeLimitError, perturbation

        def no_solve(prep):
            raise AssertionError("a record was solved before the right side")

        monkeypatch.setattr(perturbation, "_solve", no_solve)
        a = Graph(random_binary_symmetric(np.random.default_rng(49), 9, 0.5))
        i, j = np.argwhere(np.triu(a.weights, 1))[0]
        weights = a.weights.copy()
        weights[i, j] = weights[j, i] = 0.0
        with pytest.raises(SizeLimitError):
            certificate(a, Graph(weights), "katz", _katz_alpha_for(a))


class TestTheorem2:
    def test_identical_graphons(self):
        w = StepGraphon(np.array([[0.5, 0.2], [0.2, 0.7]]))
        cert = theorem2_certificate(w, w, "katz", 0.5)
        assert cert.bound == 0.0 and cert.holds
        assert cert.certified

    def test_constant_graphons(self):
        a = StepGraphon(np.array([[0.5]]))
        b = StepGraphon(np.array([[0.45]]))
        cert = theorem2_certificate(a, b, "katz", 0.5)
        assert cert.holds
        assert cert.bound >= cert.observed
        expected_observed = abs(4.0 / 3.0 - 1.0 / (1.0 - 0.225))
        assert cert.observed == pytest.approx(expected_observed, abs=1e-10)

    def test_pagerank_family(self):
        rng = np.random.default_rng(49)
        vals = np.clip(random_symmetric(rng, 3, 0.1, 1.0), 0.1, 1.0)
        a = StepGraphon(vals)
        b = StepGraphon(np.clip(vals + 0.05, 0.0, 1.0))
        cert = theorem2_certificate(a, b, "pagerank", 0.85)
        assert cert.holds and cert.norm == "1"

    def test_lift_scales_like_the_finite_certificate(self):
        a = generate(GraphGeneratorSpec("cycle", 4))
        weights = a.weights.copy()
        weights[0, 2] = weights[2, 0] = 1.0
        b = Graph(weights)
        g_cert = theorem2_certificate(lift(a), lift(b), "katz", 0.8)
        f_cert = theorem1_certificate(a, b, "katz", 0.2)
        assert g_cert.constants.L0 == pytest.approx(f_cert.constants.L0, abs=1e-9)
        assert g_cert.observed == pytest.approx(f_cert.observed / 2.0, abs=1e-9)
        assert g_cert.holds and f_cert.holds

    def test_k_mismatch(self):
        with pytest.raises(ParameterError):
            theorem2_certificate(
                StepGraphon(np.array([[0.5]])),
                StepGraphon(np.full((2, 2), 0.5)),
                "katz",
                0.5,
            )


class TestProp9Prop10:
    def test_identical_graphons_hold(self):
        rng = np.random.default_rng(50)
        vals = np.clip(random_symmetric(rng, 4, 0.1, 1.0), 0.1, 1.0)
        w = StepGraphon(vals)
        for cert in (
            prop9_certificate(w, w, "katz", 0.4),
            prop9_certificate(w, w, "pagerank", 0.85),
            prop10_certificate(w, w, "katz", 0.4),
        ):
            assert cert.holds
            assert cert.bound == pytest.approx(0.0, abs=1e-9)

    def test_block_relabeling_costs_nothing(self):
        rng = np.random.default_rng(51)
        vals = np.clip(random_symmetric(rng, 5, 0.1, 1.0), 0.1, 1.0)
        a = StepGraphon(vals)
        p = Permutation(np.array([4, 2, 0, 1, 3]))
        b = StepGraphon(permute(Graph(a.values), p).weights)
        for cert in (
            prop9_certificate(a, b, "katz", 0.4),
            prop10_certificate(a, b, "katz", 0.4),
        ):
            assert cert.bound == pytest.approx(0.0, abs=1e-9)
            assert cert.observed == pytest.approx(0.0, abs=1e-9)
            assert cert.holds

    def test_seeded_pairs_hold(self):
        rng = np.random.default_rng(52)
        for _ in range(5):
            a_vals = np.clip(random_symmetric(rng, 5, 0.1, 1.0), 0.1, 1.0)
            b_vals = np.clip(a_vals + rng.uniform(-0.1, 0.1, (5, 5)), 0.05, 1.0)
            b_vals = (b_vals + b_vals.T) / 2.0
            a, b = StepGraphon(a_vals), StepGraphon(b_vals)
            assert prop9_certificate(a, b, "katz", 0.4).holds
            assert prop9_certificate(a, b, "pagerank", 0.85).holds
            assert prop10_certificate(a, b, "katz", 0.4).holds

    def test_never_certified_and_subset_note_present(self):
        w = StepGraphon(np.array([[0.5, 0.2], [0.2, 0.6]]))
        for cert in (
            prop9_certificate(w, w, "katz", 0.4),
            prop10_certificate(w, w, "katz", 0.4),
        ):
            assert not cert.certified
            assert any("subset" in note for note in cert.notes)

    def test_prop10_requires_two_norm_family(self):
        w = StepGraphon(np.array([[0.5]]))
        with pytest.raises(ParameterError):
            prop10_certificate(w, w, "pagerank", 0.85)

    def test_greedy_mode(self):
        rng = np.random.default_rng(53)
        vals = np.clip(random_symmetric(rng, 5, 0.1, 1.0), 0.1, 1.0)
        a = StepGraphon(vals)
        b = StepGraphon(np.clip(vals * 0.9 + 0.02, 0.0, 1.0))
        cert = prop9_certificate(a, b, "katz", 0.4, mode="greedy")
        assert cert.holds  # greedy only enlarges the right-hand side


def _ring(n, chords=()):
    """A symmetric n-node ring, with unit chords (i, j), as a matrix."""
    m = np.zeros((n, n))
    m[np.arange(n), np.roll(np.arange(n), 1)] = 1.0
    for i, j in chords:
        m[i, j] = 1.0
    return np.maximum(m, m.T)


def _edge_text(m):
    rows, cols = np.nonzero(m)
    return f"{m.shape[0] - 1}\n" + "".join(
        f"{i} {j} {float(m[i, j])!r}\n" for i, j in zip(rows.tolist(), cols.tolist())
    )


def _json_text(m):
    return json.dumps({"weights": m.tolist()})


class TestInputsDigest:
    """A listed input is hashed as its entry list, a dense one as its
    array, so the digest costs a listed input O(entries) bytes."""

    A = _ring(100, [(0, 50), (3, 70)])
    B = _ring(100, [(0, 50)])

    def _digest(self, a, b, family="katz", alpha=0.2):
        return theorem1_certificate(a, b, family, alpha).inputs_digest

    def test_json_and_edge_list_reads_agree(self):
        assert isinstance(parse_graph_json(_json_text(self.A))._held, _Entries)
        assert isinstance(parse_edge_list(_edge_text(self.A))._held, _Entries)
        by_json = self._digest(*(parse_graph_json(_json_text(m)) for m in (self.A, self.B)))
        by_edges = self._digest(*(parse_edge_list(_edge_text(m)) for m in (self.A, self.B)))
        assert by_json == by_edges == self._digest(Graph(self.A), Graph(self.B))

    def test_it_changes_with_the_inputs_and_the_parameters(self):
        base = self._digest(Graph(self.A), Graph(self.B))
        one_entry = self.B.copy()
        one_entry[7, 9] = one_entry[9, 7] = 0.5
        isolated = np.zeros((101, 101))
        isolated[:100, :100] = self.A
        others = [
            self._digest(Graph(self.A), Graph(one_entry)),
            self._digest(Graph(self.A), Graph(self.A)),
            self._digest(Graph(isolated), Graph(np.pad(self.B, (0, 1)))),
            self._digest(Graph(self.A), Graph(self.B), alpha=0.25),
            self._digest(Graph(self.A), Graph(self.B), family="pagerank", alpha=0.85),
        ]
        assert len({base, *others}) == 1 + len(others)
        assert isinstance(Graph(isolated)._held, _Entries)

    def test_graphon_digests_hash_the_values_list(self):
        a, b = self.A / 2, self.B / 2
        read = [parse_graphon_json(json.dumps({"values": m.tolist()})) for m in (a, b)]
        assert isinstance(read[0]._graph._held, _Entries)
        digests = {
            theorem2_certificate(*pair, "pagerank", 0.85).inputs_digest
            for pair in (read, (StepGraphon(a), StepGraphon(b)), (StepGraphon(a), StepGraphon(a)))
        }
        assert len(digests) == 2

    def test_a_dense_input_hashes_its_array(self):
        a = Graph(np.array([[0.0, 1.0], [1.0, 0.0]]))
        # the bytes every digest hashed before inputs could be listed
        want = hashlib.sha256(b"(2, 2)" + a.weights.tobytes() + b"|'katz'|").hexdigest()
        assert not isinstance(a._held, _Entries)
        assert perturbation._digest(a, "katz") == want

    def test_every_golden_input_is_above_the_cut(self, monkeypatch):
        # golden digests hash every input as its array, and no change to
        # the hashing of listed inputs can move them
        inputs = []
        digest = perturbation._digest

        def recorded(*parts):
            inputs.extend(part for part in parts if isinstance(part, (Graph, StepGraphon)))
            return digest(*parts)

        monkeypatch.setattr(perturbation, "_digest", recorded)
        for thunk in cases().values():
            run_case(thunk)
        assert len(inputs) > 100
        assert not any(isinstance(getattr(x, "_graph", x)._held, _Entries) for x in inputs)
