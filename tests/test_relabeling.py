"""The paper's permutation equivariance, checked on every command.

A centrality is the fixed point of a permutation-equivariant map.  So
relabeling the nodes of every input by one permutation (the blocks, for a
graphon) must give the same exit code, permute every vector output, and
leave every other number as it was.  Each case runs ``fpc`` through
``cli.main`` on seeded inputs of 5 to 39 nodes (at most 8 where an exact
relabeling sweep runs, 16 for the exact cut norm) and on their relabeling.
One more seed, ``SPARSE``, draws 128-node inputs of mean degree 3, below
the cut of ``graphs.ENTRY_SHARE``, so each command also runs its products
over lists of non-zero entries.

The outputs are sums taken in another order, so they agree to rounding:
within ``TOL`` relative.  That holds for the quantities built on
``operator_norm(., 2)`` too: its bracket starts from the column 2-norms,
which relabeling permutes with the matrix, and LAPACK takes the others.
Largest gaps measured over seeds 0-59 and ``SPARSE``: 4.9e-15 on the
centrality outputs, 7.3e-13 on the other numbers (a theorem2 pagerank
bound), and on the 2-norm ones 3.5e-16 for the norm itself and 3.8e-14
for a katz bound.
"""

import json

import numpy as np
import pytest

from fpcentral import cut_norm_exact

from test_cli import run
from fpcentral.graphs import _Entries

TOL = 1e-12
SPARSE = "sparse"
SEEDS = [*range(6), SPARSE]


class Inputs:
    """Seeded matrices for one seed; ``relabel`` applies the seed's
    permutation of each size, so every input of a case moves alike."""

    def __init__(self, seed):
        sparse = seed == SPARSE
        rng = np.random.default_rng([20261018, 6 if sparse else seed])
        n = 128 if sparse else int(rng.integers(5, 40))
        small = min(n, 8)
        self.seed = seed
        upper = np.triu(rng.random((n, n)) * (rng.random((n, n)) < 0.6), 1)
        if sparse:  # mean degree 3; the small inputs keep the dense draw
            dense = upper[:small, :small] + upper[:small, :small].T
            upper = np.triu(rng.random((n, n)) * (rng.random((n, n)) < 1.5 / (n - 1)), 1)
        self.sym = upper + upper.T
        self.directed = rng.random((n, n)) * (rng.random((n, n)) < (3 / (n - 1) if sparse else 0.6))
        i, j = rng.integers(small, size=2)
        self.sym_b = self.sym.copy()
        self.sym_b[i, j] = self.sym_b[j, i] = self.sym[i, j] + 0.25
        self.directed_b = self.directed.copy()
        self.directed_b[i, j] += 0.5
        self.katz_alpha = 0.5 / np.linalg.norm(self.sym, 2)
        self.directed_alpha = 0.5 / np.linalg.norm(self.directed, 2)
        self.small = dense if sparse else self.sym[:small, :small]
        self.small_b = self.small.copy()
        self.small_b[i, j] = self.small_b[j, i] = self.small[i, j] + 0.25
        self.small_alpha = 0.5 / np.linalg.norm(self.small, 2)
        signed = rng.uniform(-1.0, 1.0, (small, small))
        self.signed = (signed + signed.T) / 2.0
        self.signed_b = self.signed.copy()
        self.signed_b[0, 1] = self.signed_b[1, 0] = -self.signed[0, 1]
        self.signed_alpha = 0.5 / np.linalg.norm(self.signed, 2)
        cut = min(n, 16)
        self.cut_float = self.directed[:cut, :cut] - 0.3
        self.cut_integer = rng.integers(-3, 4, (cut, cut)).astype(float)

    def perm(self, size):
        return np.random.default_rng([6 if self.seed == SPARSE else self.seed, size]).permutation(size)

    def relabel(self, w):
        """Entry (p(i), p(j)) of the output is entry (i, j) of ``w``."""
        p = self.perm(w.shape[0])
        out = np.empty_like(w)
        out[np.ix_(p, p)] = w
        return out


# Each case maps an Inputs to (argv with {0}, {1} for the input files,
# [(matrix, JSON key)]).  Katz alphas name an Inputs attribute, so that
# alpha ||A||_2 = 1/2; a graphon's lift values/k takes k times that alpha.
# Graphon PageRank needs values in [0, 1], so its inputs are divided by
# their peak.


def _alpha(x, family, alpha, k=1):
    if family == "eigen":
        return []
    return ["--alpha", repr(float(k * getattr(x, alpha))) if family == "katz" else "0.85"]


def _centrality(family, matrix, alpha=None, *flags):
    def case(x):
        argv = ["centrality", "{0}", "--family", family, *flags]
        return argv + _alpha(x, family, alpha), [(getattr(x, matrix), "weights")]
    return "centrality", case


def _graphon_centrality(family, matrix, alpha=None):
    def case(x):
        w = getattr(x, matrix)
        if family == "pagerank":
            w = w / w.max()
        argv = ["graphon", "centrality", "{0}", "--family", family]
        return argv + _alpha(x, family, alpha, w.shape[0]), [(w, "values")]
    return "centrality", case


def _compare(bound, family, a, b, alpha=None):
    def case(x):
        argv = ["compare", "{0}", "{1}", "--family", family, "--bound", bound]
        return argv + _alpha(x, family, alpha), [
            (getattr(x, a), "weights"), (getattr(x, b), "weights")]
    return "certificate", case


def _graphon_compare(bound, family, a, b, alpha=None):
    def case(x):
        wa, wb = getattr(x, a), getattr(x, b)
        if family == "pagerank":
            wa, wb = wa / wa.max(), wb / wb.max()
        argv = ["graphon", "compare", "{0}", "{1}", "--family", family, "--bound", bound]
        return argv + _alpha(x, family, alpha, wa.shape[0]), [(wa, "values"), (wb, "values")]
    return "certificate", case


def _norms(norm, matrix, *flags):
    def case(x):
        return ["norms", "{0}", "--norm", norm, *flags], [(getattr(x, matrix), "weights")]
    return "norm", case


def _lift(x):
    return ["graphon", "lift", "{0}"], [(x.sym, "weights")]


CASES = {
    "centrality-katz": _centrality("katz", "sym", "katz_alpha"),
    "centrality-katz-directed": _centrality("katz", "directed", "directed_alpha"),
    "centrality-pagerank": _centrality("pagerank", "directed"),
    "centrality-eigen": _centrality("eigen", "sym"),
    "centrality-eigen-directed": _centrality("eigen", "directed", None, "--normalizer", "abs"),
    "theorem1-katz": _compare("theorem1", "katz", "sym", "sym_b", "katz_alpha"),
    "theorem1-katz-directed": _compare(
        "theorem1", "katz", "directed", "directed_b", "directed_alpha"),
    "theorem1-pagerank": _compare("theorem1", "pagerank", "directed", "directed_b"),
    "prop6-katz": _compare("prop6", "katz", "small", "small_b", "small_alpha"),
    "prop6-pagerank": _compare("prop6", "pagerank", "small", "small_b"),
    "prop7-katz": _compare("prop7", "katz", "signed", "signed_b", "signed_alpha"),
    "lift": ("lift", _lift),
    "graphon-katz": _graphon_centrality("katz", "sym", "katz_alpha"),
    "graphon-pagerank": _graphon_centrality("pagerank", "sym"),
    "graphon-eigen": _graphon_centrality("eigen", "sym"),
    "theorem2-katz": _graphon_compare("theorem2", "katz", "sym", "sym_b", "katz_alpha"),
    "theorem2-pagerank": _graphon_compare("theorem2", "pagerank", "sym", "sym_b"),
    "prop9-katz": _graphon_compare("prop9", "katz", "small", "small_b", "small_alpha"),
    "prop9-pagerank": _graphon_compare("prop9", "pagerank", "small", "small_b"),
    "prop10-katz": _graphon_compare("prop10", "katz", "signed", "signed_b", "signed_alpha"),
    "norm-1": _norms("1", "directed"),
    "norm-2": _norms("2", "directed"),
    "norm-inf": _norms("inf", "directed"),
    "norm-cut": _norms("cut", "cut_float"),
    "norm-cut-integer": _norms("cut", "cut_integer"),
    "norm-cut-heuristic": _norms("cut", "cut_float", "--mode", "heuristic"),
}


def _run(capsys, tmp_path, argv, files):
    paths = []
    for k, (w, key) in enumerate(files):
        path = tmp_path / f"in{k}.json"
        path.write_text(json.dumps({key: w.tolist()}))
        paths.append(str(path))
    code, out, err = run(capsys, *(a.format(*paths) for a in argv))
    return code, (json.loads(out) if out else None), err


def _assert_close(got, want, tol, scale=None):
    scale = max(abs(want), abs(got)) if scale is None else scale
    assert abs(got - want) <= tol * scale, (got, want)


def _assert_permuted(got, want, p):
    want = np.asarray(want)
    moved = np.empty_like(want)
    moved[p] = want
    _assert_close(float(np.max(np.abs(np.asarray(got) - moved))), 0.0, TOL,
                  float(np.max(np.abs(want))))


def _attained(m, witness):
    s, t = witness["S"], witness["T"]
    return abs(float(m[np.ix_(s, t)].sum())) if s and t else 0.0


def _check(kind, case, argv, files, x, base, got):
    if kind == "centrality":
        p = x.perm(files[0][0].shape[0])
        for key in ("rho", "feature_x"):
            if key in base:
                _assert_permuted(got[key], base[key], p)
        for key in ("lambda", "integral"):
            if key in base:
                _assert_close(got[key], base[key], TOL)
        assert got.get("non_negative") == base.get("non_negative")
    elif kind == "certificate":
        assert [got[k] for k in ("holds", "certified", "norm")] == [
            base[k] for k in ("holds", "certified", "norm")]
        _assert_close(got["observed"], base["observed"], TOL)
        for key in ("L0", "L1", "Lg", "R"):
            _assert_close(got["constants"][key], base["constants"][key], TOL)
        scale = max(abs(base["bound"]), abs(base["observed"]))
        for key in ("bound", "slack"):
            _assert_close(got[key], base[key], TOL, scale)
    elif kind == "lift":
        assert got["values"] == x.relabel(np.array(base["values"])).tolist()
        assert (got["k"], got["c"]) == (base["k"], base["c"])
    elif "heuristic" in argv:
        # its starts are functions of the matrix, so relabeling moves them
        # with the nodes: the lower bound keeps its value, is attained and
        # stays a bound
        m = x.relabel(files[0][0])
        assert _attained(m, got["witness"]) == got["value"]
        _assert_close(got["value"], base["value"], TOL)
        assert got["value"] <= cut_norm_exact(m).value * (1.0 + TOL)
    elif "cut" in argv:
        # the tie rule may print another witness, but it attains the value;
        # integer sums are exact, so integer weights keep every bit
        assert _attained(x.relabel(files[0][0]), got["witness"]) == got["value"]
        if case == "norm-cut-integer":
            assert got["value"] == base["value"]
        else:
            _assert_close(got["value"], base["value"], TOL)
    else:
        _assert_close(got["value"], base["value"], TOL)


@pytest.mark.parametrize("case", list(CASES))
def test_relabeling_permutes_vectors_and_keeps_numbers(capsys, tmp_path, case):
    kind, build = CASES[case]
    for seed in SEEDS:
        x = Inputs(seed)
        argv, files = build(x)
        base_code, base, base_err = _run(capsys, tmp_path, argv, files)
        moved = [(x.relabel(w), key) for w, key in files]
        code, got, err = _run(capsys, tmp_path, argv, moved)
        assert code == base_code in (0, 1), (seed, base_err, err)
        _check(kind, case, argv, files, x, base, got)


def test_the_sparse_inputs_are_below_the_cut():
    from fpcentral import Graph

    x = Inputs(SPARSE)
    for w in (x.sym, x.sym_b, x.directed, x.directed_b):
        assert isinstance(Graph(w)._held, _Entries)


def test_eigencentrality_of_a_listed_symmetric_graph_is_equivariant():
    # the Perron route starts its bracket from the all-ones vector, which no
    # relabeling moves, and returns that bracket's vector
    from fpcentral import Graph, eigencentrality

    rng = np.random.default_rng(3101)
    n = 300
    upper = np.triu(rng.random((n, n)) < 4.0 / n, 1) * 1.0
    upper[np.arange(n - 1), np.arange(1, n)] = 1.0  # a path keeps it connected
    w = upper + upper.T
    p = rng.permutation(n)
    moved = np.empty_like(w)
    moved[np.ix_(p, p)] = w
    g = Graph(w)
    assert isinstance(g._held, _Entries)
    base, got = eigencentrality(g), eigencentrality(Graph(moved))
    assert base.gap is None and base.iterations == got.iterations == 0
    _assert_permuted(got.vector, base.vector, p)
    _assert_close(got.value, base.value, TOL)
