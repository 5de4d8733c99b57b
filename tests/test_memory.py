"""Peak memory of the large-graph paths, measured by tracemalloc in units of
one n x n float64 matrix (n^2 * 8 bytes) above the inputs, at n = 1000.

The inputs are those of a benchmark compare: a 0/1 Erdos-Renyi graph of
mean degree 8 overlaid on a ring, against a copy with one edge dropped.
They lie below the cut of ``graphs.ENTRY_SHARE``, so each graph holds only
the list of its non-zero entries, their products run over those lists, and
an n x n array is formed only for a LAPACK call.  A 20%-dense pair above the cut
covers the dense path, where each input's PageRank kernel is held as a
matrix.
"""

import math
import tracemalloc

import numpy as np
import pytest

from fpcentral import (
    Graph,
    Permutation,
    StepGraphon,
    degree_vector,
    eigencentrality,
    operator_norm,
    parse_edge_list,
    permute,
    prop6_certificate,
    prop7_certificate,
    read_graph,
    read_graphon,
    theorem1_certificate,
    theorem2_certificate,
    write_graphon,
)
from fpcentral.centrality import _prepare
from fpcentral.cli import main
from fpcentral.graphon import _lift_graph, graphon_eigencentrality, graphon_katz
from fpcentral.graphs import _Dense, _Entries
from fpcentral.io import _write_json

N = 1000


def _peak(fn):
    """The tracemalloc peak of ``fn()`` in units of n^2 * 8 bytes."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / (N * N * 8)
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def pair():
    rng = np.random.default_rng(1600)
    order = rng.permutation(N)
    ring = np.zeros((N, N))
    ring[order, np.roll(order, -1)] = 1.0
    ring = np.maximum(ring, ring.T)
    a = np.triu(rng.random((N, N)) < 8 / (N - 1), 1) * 1.0
    a = np.maximum(a + a.T, ring)
    i, j = np.argwhere(np.triu(a, 1) * (ring == 0))[0]
    b = a.copy()
    b[i, j] = b[j, i] = 0.0
    return Graph(a), Graph(b)


@pytest.fixture(scope="module")
def dense_pair():
    rng = np.random.default_rng(1800)
    a = np.triu(rng.random((N, N)) < 0.2, 1) * 1.0
    a = a + a.T
    i, j = np.argwhere(np.triu(a, 1))[0]
    b = a.copy()
    b[i, j] = b[j, i] = 0.0
    pair = Graph(a), Graph(b)
    assert not isinstance(pair[0]._held, _Entries) and not isinstance(pair[1]._held, _Entries)
    return pair


def test_katz_theorem1_holds_no_matrix_beyond_its_inputs(pair):
    # the iteration runs alpha (A.T x) + 1, and the right side lists only
    # the entries where the graphs differ, one row tile at a time
    a, b = pair
    alpha = 0.5 / operator_norm(a.weights, 2)
    assert _peak(lambda: theorem1_certificate(a, b, "katz", alpha)) <= 0.25


def test_pagerank_theorem1_holds_two_kernels(pair):
    # each solve scales its kernel's list of entries; the right side holds
    # both kernels and sums their difference in tiles
    a, b = pair
    assert _peak(lambda: theorem1_certificate(a, b, "pagerank", 0.85)) <= 2.25


@pytest.mark.parametrize("certificate, mode", [
    (theorem1_certificate, {}), (prop6_certificate, {"mode": "greedy"}), (prop7_certificate, {}),
], ids=["theorem1", "prop6", "prop7"])
def test_a_certificate_prepares_each_input_once(pair, monkeypatch, certificate, mode):
    # the record of the first input serves the constants, the right side and
    # its solve; prop7 is refused by its exact search at n = 1000, after both
    # records and before any solve
    from fpcentral import SizeLimitError, perturbation

    prepared = []
    prepare = perturbation._prepare
    monkeypatch.setattr(perturbation, "_prepare",
                        lambda family, alpha, g: prepared.append(g) or prepare(family, alpha, g))
    a, b = pair
    alpha = 0.5 / operator_norm(a.weights, 2)
    if certificate is prop7_certificate:
        with pytest.raises(SizeLimitError):
            certificate(a, b, "katz", alpha)
    else:
        assert certificate(a, b, "katz", alpha, **mode).holds
    assert len(prepared) == 2 and prepared[0] is a and prepared[1] is b


def test_pagerank_theorem2_holds_two_lifts_and_two_kernels(pair):
    # each graphon and its lift hold lists, and each density iterates on
    # its kernel's list (measured 0.33; 1.23 with a dense solve of each
    # density, 4.25 when the graphons and their lifts held arrays)
    a, b = (StepGraphon(g.weights) for g in pair)
    assert _peak(lambda: theorem2_certificate(a, b, "pagerank", 0.85)) <= 0.5


def test_listed_katz_densities_form_no_matrix(pair):
    # the density iterates alpha (M.T x) + 1 on the lift's list, and the
    # right side merges the two lifts' lists (measured 0.11 and 0.14;
    # 1.18 and 1.21 with a dense solve of each density)
    a, b = (StepGraphon(g.weights) for g in pair)
    alpha = 0.5 * N / operator_norm(pair[0].weights, 2)
    assert _peak(lambda: graphon_katz(a, alpha)) <= 0.25
    assert _peak(lambda: theorem2_certificate(a, b, "katz", alpha)) <= 0.25


def test_dense_pagerank_theorem1_scales_each_kernel_in_place(dense_pair):
    # the right side is taken from both kernels before either solve, so
    # each solve scales its kernel in place instead of a copy of it
    a, b = dense_pair
    assert _peak(lambda: theorem1_certificate(a, b, "pagerank", 0.85)) <= 2.25


@pytest.mark.parametrize("family, bound", [("katz", 1.25), ("pagerank", 3.25)])
def test_dense_greedy_prop6_relabels_without_copies(dense_pair, family, bound):
    # the greedy sweep reads the inputs themselves (katz) or graphs that
    # adopt their kernels (pagerank), and forms one relabeled difference
    a, b = dense_pair
    alpha = 0.5 / operator_norm(a.weights, 2) if family == "katz" else 0.85
    assert _peak(lambda: prop6_certificate(a, b, family, alpha, mode="greedy")) <= bound


def test_dense_pagerank_theorem2_scales_each_kernel_in_place(dense_pair):
    # two lifts and two kernels; each density scales its own kernel in place
    # (measured 4.15, as with a dense solve of each density: the four set it)
    a, b = (StepGraphon(g.weights) for g in dense_pair)
    assert _peak(lambda: theorem2_certificate(a, b, "pagerank", 0.85)) <= 4.25


@pytest.fixture(scope="module")
def directed():
    rng = np.random.default_rng(1900)
    order = rng.permutation(N)
    w = (rng.random((N, N)) < 8 / (N - 1)) * 1.0
    w[order, np.roll(order, -1)] = 1.0
    np.fill_diagonal(w, 0.0)
    g = Graph(w)
    assert isinstance(g._held, _Entries) and not g.symmetric
    return g


@pytest.mark.parametrize("case", ["directed", "symmetric", "lift"])
def test_listed_eigencentrality_on_the_perron_route_forms_no_array(pair, directed, case):
    # the reach search, the bracket and the residuals take the products of
    # the graph's list, and no array is formed from it (measured 0.02 for
    # both graphs and 0.11 for the lift, whose list is made in the call;
    # 1.15, 1.15 and 1.18 when the bracket ran on an array formed from the
    # list and listed again)
    if case == "lift":
        w = StepGraphon(pair[0].weights)
        g = _lift_graph(w)
        call = lambda: graphon_eigencentrality(w)
    else:
        g = directed if case == "directed" else pair[0]
        call = lambda: eigencentrality(g)
    assert isinstance(g._held, _Entries) and g.symmetric == (case != "directed")
    assert eigencentrality(g).gap is None  # the Perron route
    assert _peak(call) <= 0.25


def test_listed_signed_eigencentrality_forms_one_array(pair):
    # a negative weight takes the spectrum route: LAPACK and inverse
    # iteration share the one array formed from the list (measured 1.02)
    m = pair[0].weights.copy()
    i, j = np.argwhere(np.triu(m, 1))[0]
    m[i, j] = m[j, i] = -1.0
    g = Graph(m)
    assert isinstance(g._held, _Entries) and g.symmetric
    assert _peak(lambda: eigencentrality(g)) <= 1.25


@pytest.mark.parametrize("w, solves", [
    # not connected, so the spectrum route; scale 1, and the first solve is
    # singular, so it retries on its copy of the array
    (np.diag([1.5, 1.0, 0.5]), 2),
    (np.array([[0.0, 1.0, -0.5], [1.0, 0.0, 1.0], [-0.5, 1.0, 0.0]]), 1),  # signed
    # the Perron route, whose bracket only reads the array
    (np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 0.0], [1.0, 1.0, 0.0]]), 0),
    (np.array([[0.0, 3.0, 1.0], [3.0, -0.0, 1.0], [1.0, 1.0, 0.0]]), 0),  # scaled by 2^-1
], ids=["diagonal", "signed", "directed", "scaled"])
def test_eigencentrality_never_writes_a_dense_graph(w, solves):
    g = Graph(w)
    assert not isinstance(g._held, _Entries)
    held = g.weights.copy()
    g.weights.flags.writeable = False
    res = eigencentrality(g)
    assert g.weights.tobytes() == held.tobytes()
    assert res.iterations == solves
    assert (res.gap is None) == (solves == 0)


def test_dense_symmetric_eigencentrality_makes_no_copy():
    # a read-only 0/1 graph above the cut on the Perron route: the reach
    # search, the bracket and the residual checks take products with the
    # graph's own array, which make no n x n temporary (1.01 with the copy
    # that inverse iteration writes)
    rng = np.random.default_rng(3100)
    upper = np.triu(rng.random((N, N)) < 0.1, 1) * 1.0
    g = Graph(upper + upper.T)
    assert not isinstance(g._held, _Entries) and g.symmetric
    assert not g.weights.flags.writeable
    res = eigencentrality(g)
    assert res.gap is None and res.iterations == 0
    assert _peak(lambda: eigencentrality(g)) <= 0.25


def test_listed_degrees_and_pagerank_record_form_no_row_tile(pair):
    # a list adds its rows by one np.bincount over its entries (tiles of
    # 128 whole rows formed from the list peaked at 0.26); the record holds
    # its kernel's own 9870 values, 0.0099, and its L0 adds their absolute
    # values, as many again (measured 0.022)
    g = pair[0]
    assert _peak(lambda: degree_vector(g)) <= 0.01
    assert _peak(lambda: _prepare("pagerank", 0.85, g)) <= 0.025


@pytest.mark.parametrize("p", [1, math.inf])
def test_one_and_inf_norms_sum_in_tiles(pair, p):
    m = pair[0].weights
    assert _peak(lambda: operator_norm(m, p)) <= 0.25


@pytest.mark.parametrize("share, bound", [(0.01, 0.1), (0.2, 0.05)], ids=["below", "above"])
def test_an_array_is_counted_and_listed_by_row_tiles(share, bound):
    # the tiles of 128 rows are all counted, one at a time, before any is
    # listed, so no n x n mask is formed: a graph holds its copy and its
    # list, a 2-norm its list (measured 1.125 and 0.062) or, above the cut,
    # no list, only its counts of entries per line, made a tile at a time
    # too (1.125 and 0.033); listing tiles until the count passed the cut
    # peaked at 0.118 above it
    rng = np.random.default_rng(1802)
    m = np.where(rng.random((N, N)) < share, rng.random((N, N)), 0.0)
    assert isinstance(Graph(m)._held, _Entries) == (share < 1 / 32)
    assert _peak(lambda: Graph(m)) <= 1.145
    assert _peak(lambda: operator_norm(m, 2)) <= bound
    assert _peak(_Dense(m).gram_start) <= 0.05


def test_two_norm_with_an_isolated_node_forms_no_submatrix(pair):
    # node 5 has no link: the list of entries copies nothing
    m = pair[0].weights.copy()
    m[5] = 0.0
    m[:, 5] = 0.0
    assert _peak(lambda: operator_norm(m, 2)) <= 0.25


def test_dense_two_norm_with_an_isolated_node_iterates_the_whole_array(dense_pair):
    # node 5 has no link: a 0/1 matrix above the cut is iterated as it is,
    # with no copy of the rows and columns that hold an entry
    m = dense_pair[0].weights.copy()
    m[5] = 0.0
    m[:, 5] = 0.0
    assert _peak(lambda: operator_norm(m, 2)) <= 0.25


def test_weighted_dense_two_norm_with_an_isolated_node_makes_no_scaled_copy():
    # node 5 has no link, and the peak weight lies below 1: its exponent is
    # far inside the range where a power-of-two scaling is exact, so the
    # bracket runs on the array as it is (one scaled copy peaked at 1.00;
    # the count of entries per line takes n^2 bytes, 0.125)
    rng = np.random.default_rng(1801)
    m = np.where(rng.random((N, N)) < 0.2, rng.random((N, N)), 0.0)
    m[5] = 0.0
    m[:, 5] = 0.0
    assert _peak(lambda: operator_norm(m, 2)) <= 0.25


@pytest.mark.parametrize("nodes, bound", [(4, 0.25), (N, 1.25)], ids=["few", "all"])
def test_listed_mixed_sign_katz_theorem1_forms_the_support_array(pair, nodes, bound):
    # the second graph gains the edges of a matching on ``nodes`` nodes,
    # the first of them an edge i-j, where the first graph has none and
    # loses those where it has one: the difference is a mixed-sign list,
    # whose 2-norm is an SVD of the array of its rows and columns that hold
    # an entry (measured 0.06 and 1.01; LAPACK's working copy is not traced)
    a = pair[0].weights
    i, j = np.argwhere(np.triu(a, 1))[0]
    rest = np.random.default_rng(2900).permutation(np.setdiff1d(np.arange(N), [i, j]))
    nodes = np.concatenate([[i, j], rest[: nodes - 2]])
    flip = np.zeros((N, N))
    flip[nodes[::2], nodes[1::2]] = 1.0
    b = Graph(np.abs(a - flip - flip.T))
    d = a - b.weights
    assert isinstance(b._held, _Entries) and d.min() < 0.0 < d.max()
    assert np.count_nonzero(np.abs(d).sum(axis=1)) == len(nodes)
    alpha = 0.5 / operator_norm(a, 2)
    assert _peak(lambda: theorem1_certificate(pair[0], b, "katz", alpha)) <= bound


def test_write_graphon_spells_one_row_at_a_time(pair, tmp_path):
    w = StepGraphon(pair[0].weights)
    assert _peak(lambda: write_graphon(w, tmp_path / "w.json")) <= 0.25


def test_read_graphon_of_a_listed_lift_holds_its_bytes_and_a_chunk(pair, tmp_path):
    # the file's 11 MB (1.38 matrices) and the passes over a chunk of rows
    # at a time, a bool per byte of its 1 MiB and what is left once its
    # runs of zeros are out (measured 1.54); with the values array 2.5,
    # and nested lists of floats from json.loads peaked at 5.5
    path = tmp_path / "w.json"
    write_graphon(StepGraphon(pair[0].weights), path)
    read = []
    assert _peak(lambda: read.append(read_graphon(path))) <= 1.69
    assert isinstance(read[0]._graph._held, _Entries)


def test_a_negated_graph_holds_no_more_than_the_graph(pair):
    # -A has a -0.0 wherever A has a 0.0; a graph holds no signed zero, so
    # both hold the same list of entries (with the places of the -0.0
    # entries kept beside it, Graph(-A) held 0.99 matrices more)
    a = pair[0].weights
    held = [Graph(m)._held for m in (a, -a)]
    assert isinstance(held[1], _Entries)
    size = [sum(x.nbytes for x in h if isinstance(x, np.ndarray)) for h in held]
    assert size[1] <= size[0]


def test_writing_a_listed_graph_with_a_negative_zero_spells_its_list(pair, tmp_path):
    # an edge list with one -0.0 line: the graph holds the list of its
    # non-zero entries alone, which the writer spells a row at a time
    # (when the list kept the -0.0, the writer spelled a whole array: 1.01)
    a = pair[0].weights
    rows, cols = np.nonzero(a)
    i, j = np.argwhere(a == 0.0)[0]
    g = parse_edge_list("".join(f"{r} {c}\n" for r, c in zip(rows.tolist(), cols.tolist()))
                        + f"{i} {j} -0.0\n")
    assert isinstance(g._held, _Entries) and g._held.vals.size == rows.size
    with open(tmp_path / "g.json", "w") as fp:
        assert _peak(lambda: _write_json({"n": g.n, "weights": g}, fp)) <= 0.05


def test_relabeling_a_listed_graph_forms_no_matrix(pair):
    # the entries' indices are mapped and sorted row-major again: 0.13, 13
    # arrays of its 9870 entries with the symmetry check's, where reading
    # the array and writing its relabeled copy peaked at 2.15
    p = Permutation(np.random.default_rng(1601).permutation(N))
    out = []
    assert _peak(lambda: out.append(permute(pair[0], p))) <= 0.2
    assert isinstance(out[0]._held, _Entries)


@pytest.fixture(scope="module")
def edge_files(pair, tmp_path_factory):
    folder = tmp_path_factory.mktemp("edges")
    paths = []
    for name, g in zip("ab", pair):
        rows, cols = np.nonzero(g.weights)
        paths.append(folder / f"{name}.txt")
        paths[-1].write_text("".join(f"{i} {j}\n" for i, j in zip(rows.tolist(), cols.tolist())))
    return paths


def test_read_graph_of_a_listed_edge_file_holds_its_text_and_entries(edge_files):
    # the file's text (77 kB), the parsed columns and the graph's list of
    # entries, with the byte passes over one chunk at a time (measured
    # 0.141); splitting the text into Python strings peaked at 0.185
    read = []
    assert _peak(lambda: read.append(read_graph(edge_files[0]))) <= 0.15
    assert isinstance(read[0]._held, _Entries)


@pytest.mark.parametrize("argv", [
    ("compare", "{a}", "{b}", "--family", "katz", "--alpha", "{alpha}"),
    ("norms", "{a}", "--norm", "1"),
    ("norms", "{a}", "--norm", "2"),
    ("centrality", "{a}", "--family", "katz", "--alpha", "{alpha}"),
], ids=["katz-theorem1", "norm-1", "norm-2", "katz-centrality"])
def test_a_listed_command_holds_no_matrix_from_its_read_on(pair, edge_files, tmp_path, argv):
    # the read included: an edge list is parsed to the list of its entries,
    # which the graph holds alone; products, norms and the right side run
    # over lists (each peaked at 1.0 or more when a graph held its array)
    alpha = repr(0.5 / operator_norm(pair[0].weights, 2))
    a, b = map(str, edge_files)
    args = [x.format(a=a, b=b, alpha=alpha) for x in argv] + ["-o", str(tmp_path / "out.json")]
    assert _peak(lambda: main(args)) <= 0.25
