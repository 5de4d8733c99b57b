"""The paper's scale invariance, checked on every command it covers.

A fixed-point centrality depends on A only through the contraction
alpha ||A|| < 1.  So scaling the weights by 2^k and the katz alpha by 2^-k
must give the same exit code, the same bits of every centrality and the
same certificate decisions, while a norm scales by exactly 2^k.  Graphon
PageRank needs values in [0, 1], so it is only scaled down.  prop7 and
prop10 are left out: their hypothesis, entries in [-1, 1], fixes the scale.
"""

import json
import math

import numpy as np
import pytest

from oracles import strongly_connected, takes_the_perron_route
from test_cli import run
from fpcentral import Graph
from fpcentral.graphs import _Entries

SCALES = (-1000, -60, -1, 1, 60, 1000)
DOWN = (-1000, -60, -1)

_rng = np.random.default_rng(20261018)
_upper = np.triu(_rng.random((6, 6)) * (_rng.random((6, 6)) < 0.7), 1)
SYM = _upper + _upper.T
SYM_B = SYM.copy()
SYM_B[0, 1] = SYM_B[1, 0] = SYM[0, 1] + 0.25
DIRECTED = _rng.random((6, 6)) * (_rng.random((6, 6)) < 0.6)
DIRECTED_B = DIRECTED.copy()
DIRECTED_B[2, 3] += 0.5
# a directed 0/1 graph far below the weight 1e-12
TINY = np.ldexp(np.array([[0, 1, 0, 0, 0], [0, 0, 1, 1, 0], [1, 0, 0, 0, 1],
                          [0, 0, 1, 0, 0], [1, 0, 0, 0, 0]], dtype=float), -50)
# small weights, so finite katz takes alpha > 1
SMALL = 0.1 * SYM
SMALL_B = 0.1 * SYM_B
KATZ_ALPHA = 0.5 / np.linalg.norm(SYM, 2)
SMALL_ALPHA = 0.5 / np.linalg.norm(SMALL, 2)
REFUSED_ALPHA = 1.5 / np.linalg.norm(SMALL, 2)
# 128 nodes of mean degree 3, below the cut (graphs.ENTRY_SHARE): every
# product of these runs over their lists of non-zero entries
_n = 128
_upper = np.triu(_rng.random((_n, _n)) * (_rng.random((_n, _n)) < 1.5 / (_n - 1)), 1)
SPARSE = _upper + _upper.T
SPARSE_B = SPARSE.copy()
SPARSE_B[0, 1] = SPARSE_B[1, 0] = SPARSE[0, 1] + 0.25
SPARSE_DIRECTED = _rng.random((_n, _n)) * (_rng.random((_n, _n)) < 3 / (_n - 1))
SPARSE_DIRECTED_B = SPARSE_DIRECTED.copy()
SPARSE_DIRECTED_B[2, 3] += 0.5
SPARSE_ALPHA = 0.5 / np.linalg.norm(SPARSE, 2)
SPARSE_DIRECTED_ALPHA = 0.5 / np.linalg.norm(SPARSE_DIRECTED, 2)


def _write(tmp_path, name, w, k, key="weights"):
    """A graph (or, with key "values", graphon) file of w scaled by 2^k."""
    path = tmp_path / f"{name}{k}.json"
    path.write_text(json.dumps({key: np.ldexp(w, k).tolist()}))
    return str(path)


def _alpha(family, alpha, k):
    """--alpha of the scaled call: katz alpha by 2^-k, pagerank unchanged."""
    return repr(math.ldexp(alpha, -k) if family == "katz" else alpha)


def _centrality(family, w, alpha=None, *flags):
    def argv(tmp_path, k):
        call = ["centrality", _write(tmp_path, "g", w, k), "--family", family, *flags]
        return call + (["--alpha", _alpha(family, alpha, k)] if alpha else [])
    return argv


def _compare(bound, family, a, b, alpha):
    def argv(tmp_path, k):
        return ["compare", _write(tmp_path, "a", a, k), _write(tmp_path, "b", b, k),
                "--family", family, "--alpha", _alpha(family, alpha, k), "--bound", bound]
    return argv


def _graphon_centrality(family, w, alpha=None):
    def argv(tmp_path, k):
        call = ["graphon", "centrality", _write(tmp_path, "w", w, k, "values"), "--family", family]
        return call + (["--alpha", _alpha(family, alpha, k)] if alpha else [])
    return argv


def _graphon_compare(bound, family, a, b, alpha):
    def argv(tmp_path, k):
        return ["graphon", "compare", _write(tmp_path, "a", a, k, "values"),
                _write(tmp_path, "b", b, k, "values"), "--family", family,
                "--alpha", _alpha(family, alpha, k), "--bound", bound]
    return argv


def _norms(w, *flags):
    def argv(tmp_path, k):
        return ["norms", _write(tmp_path, "g", w, k), *flags]
    return argv


def _lift(w):
    def argv(tmp_path, k):
        return ["graphon", "lift", _write(tmp_path, "g", w, k)]
    return argv


# (argv builder, scales, keys whose values must keep their bits,
#  keys whose values must scale by exactly 2^k)
CENTRALITY = ("rho", "feature_x")
DECISIONS = ("holds", "certified")
CASES = {
    "katz": (_centrality("katz", SYM, KATZ_ALPHA), SCALES, CENTRALITY, ()),
    "katz-alpha-above-1": (_centrality("katz", SMALL, SMALL_ALPHA), SCALES, CENTRALITY, ()),
    "katz-refused": (_centrality("katz", SMALL, REFUSED_ALPHA), SCALES, (), ()),
    "pagerank": (_centrality("pagerank", DIRECTED, 0.85), SCALES, CENTRALITY, ()),
    "eigen": (_centrality("eigen", SYM), SCALES, CENTRALITY, ()),
    "eigen-directed": (_centrality("eigen", DIRECTED, None, "--normalizer", "abs"),
                       SCALES, CENTRALITY, ()),
    "eigen-tiny-directed": (_centrality("eigen", TINY, None, "--normalizer", "abs"),
                            SCALES, CENTRALITY, ()),
    "theorem1-katz": (_compare("theorem1", "katz", SYM, SYM_B, KATZ_ALPHA),
                      SCALES, DECISIONS, ()),
    "theorem1-katz-alpha-above-1": (_compare("theorem1", "katz", SMALL, SMALL_B, SMALL_ALPHA),
                                    SCALES, DECISIONS, ()),
    "theorem1-pagerank": (_compare("theorem1", "pagerank", DIRECTED, DIRECTED_B, 0.85),
                          SCALES, DECISIONS, ()),
    "prop6-katz": (_compare("prop6", "katz", SYM, SYM_B, KATZ_ALPHA), SCALES, DECISIONS, ()),
    "prop6-pagerank": (_compare("prop6", "pagerank", SYM, SYM_B, 0.85),
                       SCALES, DECISIONS, ()),
    "lift": (_lift(SYM), SCALES, ("k",), ("values", "c")),
    "lift-tiny-directed": (_lift(TINY), SCALES, (), ()),
    "graphon-katz": (_graphon_centrality("katz", SYM, 6 * KATZ_ALPHA), SCALES, ("rho",), ()),
    "graphon-eigen": (_graphon_centrality("eigen", SYM), SCALES, ("rho",), ("lambda",)),
    "graphon-pagerank": (_graphon_centrality("pagerank", SYM, 0.85), DOWN,
                         ("rho", "integral", "non_negative"), ()),
    "theorem2-katz": (_graphon_compare("theorem2", "katz", SYM, SYM_B, 6 * KATZ_ALPHA),
                      SCALES, DECISIONS, ()),
    "theorem2-pagerank": (_graphon_compare("theorem2", "pagerank", SYM, SYM_B / 1.25, 0.85),
                          DOWN, DECISIONS, ()),
    "prop9-katz": (_graphon_compare("prop9", "katz", SYM, SYM_B, 6 * KATZ_ALPHA),
                   SCALES, DECISIONS, ()),
    "prop9-pagerank": (_graphon_compare("prop9", "pagerank", SYM, SYM_B / 1.25, 0.85),
                       DOWN, DECISIONS, ()),
    "norm-1": (_norms(DIRECTED, "--norm", "1"), SCALES, (), ("value",)),
    "norm-2": (_norms(DIRECTED, "--norm", "2"), SCALES, (), ("value",)),
    "norm-inf": (_norms(DIRECTED, "--norm", "inf"), SCALES, (), ("value",)),
    "norm-cut": (_norms(DIRECTED, "--norm", "cut"), SCALES, ("witness",), ("value",)),
    "norm-cut-heuristic": (_norms(DIRECTED, "--norm", "cut", "--mode", "heuristic"),
                           SCALES, ("witness",), ("value",)),
    "sparse-katz": (_centrality("katz", SPARSE_DIRECTED, SPARSE_DIRECTED_ALPHA),
                    SCALES, CENTRALITY, ()),
    "sparse-pagerank": (_centrality("pagerank", SPARSE_DIRECTED, 0.85), SCALES, CENTRALITY, ()),
    "sparse-eigen-directed": (_centrality("eigen", SPARSE_DIRECTED, None, "--normalizer", "abs"),
                              SCALES, CENTRALITY, ()),
    "sparse-eigen": (_centrality("eigen", SPARSE), SCALES, CENTRALITY, ()),
    "sparse-theorem1-katz": (_compare("theorem1", "katz", SPARSE, SPARSE_B, SPARSE_ALPHA),
                             SCALES, DECISIONS, ()),
    "sparse-theorem1-pagerank": (
        _compare("theorem1", "pagerank", SPARSE_DIRECTED, SPARSE_DIRECTED_B, 0.85),
        SCALES, DECISIONS, ()),
    "sparse-lift": (_lift(SPARSE), SCALES, ("k",), ("values", "c")),
    "sparse-graphon-katz": (_graphon_centrality("katz", SPARSE, _n * SPARSE_ALPHA),
                            SCALES, ("rho",), ()),
    "sparse-graphon-pagerank": (_graphon_centrality("pagerank", SPARSE, 0.85), DOWN,
                                ("rho", "integral", "non_negative"), ()),
    "sparse-theorem2-katz": (
        _graphon_compare("theorem2", "katz", SPARSE, SPARSE_B, _n * SPARSE_ALPHA),
        SCALES, DECISIONS, ()),
    "sparse-theorem2-pagerank": (
        _graphon_compare("theorem2", "pagerank", SPARSE, SPARSE_B / 1.25, 0.85),
        DOWN, DECISIONS, ()),
    "sparse-norm-2": (_norms(SPARSE_DIRECTED, "--norm", "2"), SCALES, (), ("value",)),
}


def _scaled(value, k):
    return np.ldexp(np.asarray(value, dtype=float), k).tolist()


@pytest.mark.parametrize("case", list(CASES))
def test_scaling_weights_by_a_power_of_two_changes_no_decision(capsys, tmp_path, case):
    argv, scales, same, scaled = CASES[case]
    base_code, base_out, base_err = run(capsys, *argv(tmp_path, 0))
    base = json.loads(base_out) if base_out else {}
    for k in scales:
        code, out, err = run(capsys, *argv(tmp_path, k))
        assert code == base_code, (k, err)
        got = json.loads(out) if out else {}
        for key in same:
            assert got[key] == base[key], (k, key)
        for key in scaled:
            assert got[key] == _scaled(base[key], k), (k, key)


def test_the_sparse_inputs_are_below_the_cut():
    for w in (SPARSE, SPARSE_B, SPARSE_DIRECTED, SPARSE_DIRECTED_B):
        assert isinstance(Graph(w)._held, _Entries)


def test_the_directed_eigen_cases_cover_both_routes():
    # DIRECTED and TINY are strongly connected and take the Perron route;
    # SPARSE_DIRECTED is not, and takes the spectrum of its list
    assert takes_the_perron_route(Graph(DIRECTED)) and takes_the_perron_route(Graph(TINY))
    assert not strongly_connected(SPARSE_DIRECTED)


def test_the_symmetric_eigen_cases_cover_both_routes():
    # SYM is connected and takes the Perron route, as does its lift;
    # SPARSE is not, and takes the spectrum of its list
    assert takes_the_perron_route(Graph(SYM))
    assert not strongly_connected(SPARSE)


def test_the_cases_exit_as_expected(capsys, tmp_path):
    # the refusals stay refusals, and everything else is accepted
    for case, (argv, _, _, _) in CASES.items():
        code, _, err = run(capsys, *argv(tmp_path, 0))
        if case == "katz-refused":
            assert code == 2 and "katz requires alpha * ||A||_2 < 1" in err
        elif case == "lift-tiny-directed":
            assert (code, err) == (2, "error: the matrix is not symmetric\n")
        else:
            assert code in (0, 1), (case, err)
