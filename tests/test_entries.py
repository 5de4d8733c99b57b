"""Products, norms and solves over the two forms of one operand.

A matrix whose non-zero entries are at most ``graphs.ENTRY_SHARE`` (1/32)
of its n x n entries is held as the list of those entries, and
every product with it runs over that list (``graphs._Entries``); any other
matrix is its array, with dense BLAS products (``graphs._Dense``).  Both
must give ``m @ x`` and ``m.T @ y`` to rounding, the same bytes wherever
the summation order cannot show, and the 2-norm and the fixed points on
both paths must agree.  Only ``graphs`` tells the two forms apart.
"""

import hashlib
import math
import pathlib
import re

import numpy as np
import pytest

import fpcentral
from fpcentral import Graph, operator_norm, solve
from fpcentral.centrality import _operand, _prepare, _solve
from fpcentral.io import _csv_rows, parse_edge_list
from fpcentral.graphs import ENTRY_SHARE, _Dense, _Entries, _entries
from fpcentral.graphs import _merged_difference, degree_vector
from fpcentral.graphs import matrix_tol, max_asymmetry
from fpcentral.norms import _operator_norm
from fpcentral.perturbation import _digest
from oracles import pagerank_kernel_reference, sequential_sums

EPS = np.finfo(float).eps


def _matrix(rng, n, share, kind):
    """An n x n matrix with about ``share`` of its entries non-zero: 0/1,
    signed (+-1) or weighted (uniform in (0, 2))."""
    mask = rng.random((n, n)) < share
    if kind == "binary":
        vals = np.ones((n, n))
    elif kind == "signed":
        vals = rng.choice([-1.0, 1.0], size=(n, n))
    else:
        vals = 2.0 * rng.random((n, n))
    return np.where(mask, vals, 0.0)


def _listed(m):
    """The entries of ``m`` by ``np.nonzero``, at any density: no zero of
    either sign."""
    rows, cols = np.nonzero(m)
    return _Entries(rows, cols, m[rows, cols], m.shape[0])


def _is_listed(g):
    return isinstance(g._held, _Entries)


def _close(got, want, m, x):
    bound = 4.0 * EPS * np.linalg.norm(m, 2) * np.linalg.norm(x)
    assert got.dtype == np.float64 and got.shape == want.shape
    assert float(np.max(np.abs(got - want), initial=0.0)) <= bound


def _cases():
    rng = np.random.default_rng(1700)
    out = {}
    for kind in ("binary", "signed", "weighted"):
        for share, side in ((0.01, "below"), (0.2, "above")):
            out[f"{kind}-{side}"] = _matrix(rng, 200, share, kind)
    zero_lines = _matrix(rng, 200, 0.01, "weighted")
    zero_lines[5] = 0.0
    zero_lines[:, 17] = 0.0
    out["zero-rows-and-columns"] = zero_lines
    out["all-zero"] = np.zeros((40, 40))
    single = np.zeros((40, 40))
    single[3, 29] = -2.5
    out["single-entry"] = single
    return out


CASES = _cases()


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("scale", [-1000, 0, 1000])
@pytest.mark.parametrize("case", list(CASES))
def test_products_match_blas(case, scale, order):
    m = np.asarray(np.ldexp(CASES[case], scale), order=order)
    rng = np.random.default_rng(1701)
    x = rng.standard_normal(m.shape[0])
    y = rng.standard_normal(m.shape[0])
    for ops in (_listed(m), _Dense(m), _operand("katz", None, Graph(m)).op):
        _close(ops.matvec(x), m @ x, m, x)
        _close(ops.rmatvec(y), m.T @ y, m, y)


@pytest.mark.parametrize("case", list(CASES))
def test_the_cut_is_the_share_of_all_entries(case):
    m = CASES[case]
    held = Graph(m)._held
    entries = held if isinstance(held, _Entries) else None
    assert (entries is not None) == (np.count_nonzero(m) <= ENTRY_SHARE * m.size)
    assert "below" not in case or entries is not None
    assert "above" not in case or entries is None
    if entries is not None:
        rows, cols = np.nonzero(m)
        assert np.array_equal(entries.rows, rows) and np.array_equal(entries.cols, cols)
        assert np.array_equal(entries.vals, m[rows, cols])


@pytest.mark.parametrize("scale", [-1000, 0, 1000])
@pytest.mark.parametrize("weights", ["ones", "uniform"])
def test_a_dense_block_in_an_empty_matrix_is_listed(weights, scale):
    # few entries overall, all of them in one block: the cut is taken on
    # n x n, not on the rows x columns that hold an entry
    m = np.zeros((400, 400))
    rng = np.random.default_rng(1703)
    block = np.ones((20, 20)) if weights == "ones" else rng.random((20, 20))
    m[:20, 100:120] = np.ldexp(block, scale)
    entries = _entries(m)
    assert entries is not None and entries.vals.size == 400
    want = float(np.linalg.norm(m, 2))
    assert abs(operator_norm(m, 2) - want) <= 1e-9 * want


@pytest.mark.parametrize("extra", [0, 1])
def test_a_parsed_edge_list_takes_the_same_cut(extra):
    # 64 x 64 / 32 = 128 entries are listed, 129 are not
    n = 64
    m = np.zeros((n, n))
    m.flat[: 128 + extra] = 1.0
    rows, cols = np.nonzero(m)
    parsed = parse_edge_list("".join(f"{i} {j} 1\n" for i, j in zip(rows, cols)))
    for g in (parsed, Graph(m)):
        assert _is_listed(g) != bool(extra)


@pytest.mark.parametrize("scale", [-1000, 0, 1000])
@pytest.mark.parametrize("case", list(CASES))
def test_two_norm_on_entries_matches_lapack(case, scale):
    # the list is forced at any density; above the cut operator_norm runs
    # the dense iteration, whose iterates the list's match up to summation
    # order, and which stops reading low by up to 3e-9 on the signed one
    m = np.ldexp(CASES[case], scale)
    got = _operator_norm(_listed(m), 2)
    if "above" in case:
        want, tol = operator_norm(m, 2), 1e-12
    else:
        assert got == operator_norm(m, 2)
        want, tol = float(np.linalg.norm(m, 2)), 1e-9
    assert abs(got - want) <= tol * want


def test_two_norm_on_entries_refuses_non_finite():
    from fpcentral import ParameterError

    m = np.zeros((100, 100))
    m[3, 4] = np.nan
    with pytest.raises(ParameterError, match="finite"):
        operator_norm(m, 2)


def _dense(prep):
    """The record with M_A as its array: the dense BLAS path."""
    return prep._replace(op=_Dense(prep.op.dense()))


@pytest.mark.parametrize("directed", [False, True])
@pytest.mark.parametrize("family", ["katz", "pagerank"])
def test_solve_agrees_on_both_paths(family, directed):
    rng = np.random.default_rng(1702)
    n = 300
    m = _matrix(rng, n, 3 / n, "weighted")
    m[np.arange(n), np.roll(np.arange(n), 1)] = 1.0  # no zero row
    if not directed:
        m = np.maximum(m, m.T)
    g = Graph(m)
    assert _is_listed(g)
    alpha = 0.5 / np.linalg.norm(m, 2) if family == "katz" else 0.85
    prep = _prepare(family, alpha, g)
    listed, dense = _solve(prep), _solve(_dense(prep))
    assert np.max(np.abs(listed.feature_x - dense.feature_x)) <= 1e-13 * np.max(dense.feature_x)
    # the forms add their products in different orders, so near the
    # rounding floor their residuals, and the step at which each rises,
    # may differ
    assert abs(listed.iterations - dense.iterations) <= 10
    assert solve(g, family, alpha).feature_x.tolist() == (
        listed.feature_x.tolist()
    )
    # L0 on the list and on the dense matrix
    p = 2 if family == "katz" else 1
    dense_l0 = alpha * operator_norm(pagerank_kernel_reference(g) if p == 1 else m, p)
    if p == 1:  # column sums added in index order on both forms
        assert prep.l0 == dense_l0 == _prepare(family, alpha, Graph._holding(_Dense(m))).l0
    assert abs(prep.l0 - dense_l0) <= 1e-13 * dense_l0


def _merge_pairs():
    """Listed pairs (a, b) of one size: seeded 0/1, weighted and signed
    pairs, and the edge cases of a merge."""
    rng = np.random.default_rng(1704)
    out = {}
    for kind in ("binary", "weighted", "signed"):
        a = _matrix(rng, 200, 0.012, kind)
        b = a.copy()
        b[rng.random((200, 200)) < 0.004] = 0.0
        b += _matrix(rng, 200, 0.003, kind)
        out[kind] = (a, b)
    a = _matrix(rng, 200, 0.01, "weighted")
    out["identical"] = (a, a.copy())
    upper = np.triu(a)
    out["disjoint"] = (upper, a - upper)
    cancel = a.copy()
    cancel[a != 0.0] *= -1.0
    cancel[:3] = a[:3]  # rows where the two cancel exactly
    out["cancelling"] = (a, cancel)
    out["one-side-empty"] = (np.zeros((200, 200)), a)
    out["both-empty"] = (np.zeros((5, 5)), np.zeros((5, 5)))
    out["n=1"] = (np.array([[2.5]]), np.array([[0.5]]))
    out["n=1-equal"] = (np.array([[2.5]]), np.array([[2.5]]))
    return out


MERGE_PAIRS = _merge_pairs()


def _same_list(got, want):
    assert (got is None) == (want is None)
    if got is None:
        return
    for name in ("rows", "cols", "vals"):
        x, y = getattr(got, name), getattr(want, name)
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name
    assert got.n == want.n


@pytest.mark.parametrize("case", list(MERGE_PAIRS))
def test_the_merged_difference_is_the_tiled_one(case):
    a, b = MERGE_PAIRS[case]
    if case.startswith("n=1"):
        # a 1 x 1 matrix is listed only when it is zero: force the lists
        got = _merged_difference(_listed(a), _listed(b))
    else:
        ga, gb = Graph(a), Graph(b)
        assert _is_listed(ga) and _is_listed(gb)
        got = _merged_difference(ga._held, gb._held)
    _same_list(got, _entries(a, b))
    if case == "n=1":
        assert got is None  # its one entry is above the cut
        return
    assert got.vals.size == 0 if case in ("identical", "both-empty", "n=1-equal") else got.vals.size
    assert _operator_norm(got, 2) == _operator_norm(_Dense(a).minus(_Dense(b)), 2)


@pytest.mark.parametrize("case", ["binary", "weighted", "identical", "disjoint", "one-side-empty",
                                  "both-empty"])
def test_the_merged_kernel_difference_is_the_tiled_one(case):
    # kernel lists come column by column; the merge puts them in row order
    a, b = (np.abs(m) for m in MERGE_PAIRS[case])
    ga, gb = Graph(a), Graph(b)
    got = _merged_difference(*(g._held.kernel(degree_vector(g)) for g in (ga, gb)))
    kernels = (pagerank_kernel_reference(g) for g in (ga, gb))
    _same_list(got, _entries(*kernels))


def test_a_merged_difference_above_the_cut_is_none():
    rng = np.random.default_rng(1705)
    n = 64
    a, b = np.zeros((n, n)), np.zeros((n, n))
    a.flat[:128] = 1.0  # at the cut, as is b
    b.flat[rng.choice(np.arange(128, n * n), 128, replace=False)] = 1.0
    assert _merged_difference(_listed(a), _listed(b)) is None is _entries(a, b)
    b.flat[128:] = 0.0
    b.flat[:127] = 1.0  # a difference of one entry
    _same_list(_merged_difference(_listed(a), _listed(b)), _entries(a, b))


@pytest.mark.parametrize("n", [129, 256, 257, 1000])
def test_listed_degrees_have_the_bits_of_the_row_sums(n):
    # 4 to 31 non-dyadic weights per row, so the order of the additions
    # shows in the bits; both forms add each row left to right
    rng = np.random.default_rng([1900, n])
    m = np.zeros((n, n))
    per_row = rng.integers(4, max(5, n // 32), size=n)
    for i, k in enumerate(per_row.tolist()):
        m[i, rng.choice(n, k, replace=False)] = rng.random(k) * 10.0 - 3.0
    g = Graph(m)
    assert _is_listed(g)
    want = sequential_sums(m, 1)
    assert degree_vector(g).tobytes() == want.tobytes() == _Dense(m).row_sums().tobytes()
    # the PageRank kernel's list divides by those bits
    e = g._held.kernel(degree_vector(g))
    assert e.vals.tobytes() == (m[e.cols, e.rows] / want[e.cols]).tobytes()


def _layouts(m):
    """``m`` in C and Fortran order, as a transposed view whose rows run
    backwards in memory, and as every other column of a wider array."""
    wide = np.zeros((m.shape[0], 2 * m.shape[0]))
    wide[:, ::2] = m
    return {"C": m, "F": np.asfortranarray(m), "T": np.ascontiguousarray(m[::-1].T).T[::-1],
            "strided": wide[:, ::2]}


@pytest.mark.parametrize("layout", ["C", "F", "T", "strided"])
def test_every_line_sum_has_one_order_on_both_forms(layout):
    # seeded matrices at every n from 1 to 300, 2%, 20% or wholly non-zero
    # with log-normal weights: the list, the array in each layout and the
    # oracle agree byte for byte in degrees, absolute column and row sums,
    # PageRank kernels and their L0
    rng = np.random.default_rng(4000)
    for n in range(1, 301):
        share = rng.choice([0.02, 0.2, 1.0])
        m = np.where(rng.random((n, n)) < share, rng.lognormal(size=(n, n)), 0.0)
        kernel = pagerank_kernel_reference(Graph(m))
        want = [sequential_sums(m, 1), sequential_sums(np.abs(m), 0),
                sequential_sums(np.abs(m), 1), kernel,
                np.float64(0.5 * sequential_sums(kernel, 0).max())]
        for g in (Graph._holding(_listed(m)), Graph._holding(_Dense(_layouts(m)[layout]))):
            prep = _prepare("pagerank", 0.5, g)
            got = [degree_vector(g), g._held.abs_sums(0), g._held.abs_sums(1), prep.op.dense(),
                   np.float64(prep.l0)]
            for name, x, y in zip(("degrees", "columns", "rows", "kernel", "l0"), got, want):
                assert x.tobytes() == y.tobytes(), (n, type(g._held).__name__, name)


def _asymmetry_cases():
    """Seeded matrices whose lists find every mirror, some or none."""
    rng = np.random.default_rng(1902)
    out = {}
    for kind in ("binary", "weighted", "signed"):
        m = _matrix(rng, 200, 0.01, kind)
        out[f"symmetric-{kind}"] = m + m.T
        moved = m + m.T
        moved[moved != 0.0] *= rng.choice([1.0, 0.75, 1.0 + 2.0**-40], np.count_nonzero(moved))
        out[f"asymmetric-{kind}"] = moved
        out[f"one-sided-{kind}"] = np.triu(m, 1) + np.triu(m, 1).T * (rng.random((200, 200)) < 0.5)
    out["empty"] = np.zeros((5, 5))
    out["one-node"] = np.array([[2.5]])
    return out


ASYMMETRY_CASES = _asymmetry_cases()


@pytest.mark.parametrize("case", list(ASYMMETRY_CASES))
def test_the_asymmetry_of_a_list_has_the_bits_of_the_tiled_pass(case):
    m = ASYMMETRY_CASES[case]
    got = _listed(m).asymmetry()
    assert type(got) is float
    assert np.float64(got).tobytes() == np.float64(max_asymmetry(m)).tobytes()
    assert (got == 0.0) == case.startswith(("symmetric", "empty", "one-node"))


def test_the_symmetry_of_a_list_is_that_of_its_array():
    # each entry's mirror is found among the sorted flat indices; the
    # asymmetry, near the tolerance or not, decides as the tiled pass does
    rng = np.random.default_rng(1901)
    seen = set()
    for trial in range(300):
        n = int(rng.integers(2, 40))
        m = np.zeros((n, n))
        k = int(rng.integers(1, n * n // 64 + 2))
        flat = rng.choice(n * n, k, replace=False)
        m.flat[flat] = rng.choice([0.5, -1.0, 3.0, -0.0], k)
        if trial % 3:
            m = m + m.T
            m.flat[flat[0]] += rng.choice([0.0, 1e-12, 4e-12])
        g = Graph(m)
        if not _is_listed(g):
            continue
        want = max_asymmetry(m) <= matrix_tol(m)
        assert g.symmetric == want
        seen.add(want)
    assert seen == {True, False}


def _parity_cases():
    """Seeded 0/1, +-1 and weighted matrices below the cut, one weighted
    with -0.0 entries, the empty list and n = 1."""
    rng = np.random.default_rng(2400)
    out = {kind: _matrix(rng, 150, 0.02, kind) for kind in ("binary", "signed", "weighted")}
    zeros = _matrix(rng, 150, 0.02, "weighted")
    zeros.flat[rng.choice(zeros.size, 40, replace=False)] = -0.0
    out["negative-zeros"] = zeros
    out["empty"] = np.zeros((40, 40))
    out["n=1"] = np.array([[-2.5]])
    return out


PARITY = _parity_cases()


@pytest.mark.parametrize("case", list(PARITY))
def test_the_two_forms_of_one_matrix_agree(case):
    # the listed and the dense form of one matrix, each read only through
    # the operand methods; both add a line's terms in index order, so every
    # row and column sum has the same bytes.  Neither form holds a -0.0:
    # the array is the one a graph holds, m + 0.0
    m = PARITY[case] + 0.0
    listed, dense = _listed(PARITY[case]), _Dense(m.copy())
    assert listed.dense().tobytes() == dense.dense().tobytes() == m.tobytes()
    for axis in (0, 1):
        assert listed.abs_sums(axis).dtype == np.float64
        want = sequential_sums(np.abs(m), axis).tobytes()
        assert listed.abs_sums(axis).tobytes() == dense.abs_sums(axis).tobytes() == want, axis
    for factor in (0.37, 2.0**-3):
        assert listed.scaled(factor).dense().tobytes() == _Dense(m.copy()).scaled(factor).dense().tobytes()
    rng = np.random.default_rng(2401)
    other = np.where(rng.random(m.shape) < 0.01, 1.5, m)
    for b in (m.copy(), other):
        got, want = listed.minus(_listed(b)).iterand(), _Dense(m).minus(_Dense(b)).iterand()
        assert type(got) is type(want)
        assert got.dense().tobytes() == want.dense().tobytes()
    x = rng.standard_normal(m.shape[0])
    for form in (listed, dense):
        _close(form.matvec(x), m @ x, m, x)
        _close(form.rmatvec(x), m.T @ x, m, x)


@pytest.mark.parametrize("case", list(PARITY))
def test_each_form_digests_its_documented_bytes(case):
    # the array is the one a graph holds, with no -0.0: the listed form's
    # bytes are those of the matrix without its zeros of either sign
    m = PARITY[case]
    for form, want in (
        (_Dense(m + 0.0), str(m.shape).encode() + (m + 0.0).tobytes()),
        (_listed(m), f"entries{(m.shape[0], m[m != 0.0].size)}".encode()
            + np.concatenate(np.nonzero(m)).astype(np.int64).tobytes() + m[m != 0.0].tobytes()),
    ):
        parts = []

        class Recorded:
            def update(self, data):
                parts.append(bytes(data))

        form.digest_into(Recorded())
        assert b"".join(parts) == want
        h = hashlib.sha256()
        form.digest_into(h)
        assert h.digest() == hashlib.sha256(want).digest()


@pytest.mark.parametrize("share", [0.02, 0.5], ids=["listed", "dense"])
def test_a_negative_zero_is_zero_on_both_forms(share):
    # a graph holds no -0.0, so a matrix reads, writes and hashes as the
    # one with +0.0 in its place, whichever form its graph holds
    rng = np.random.default_rng(2402)
    m = _matrix(rng, 150, share, "signed")
    m.flat[np.flatnonzero(m == 0.0)[::3]] = -0.0
    g, plus = Graph(m), Graph(m + 0.0)
    assert _is_listed(g) == (share < ENTRY_SHARE) and np.signbit(m[m == 0.0]).any()
    assert g.weights.tobytes() == plus.weights.tobytes() == (m + 0.0).tobytes()
    assert list(_csv_rows(g)) == list(_csv_rows(plus))
    assert _digest(g) == _digest(plus)


@pytest.mark.parametrize("listed", [False, True], ids=["dense", "listed"])
def test_a_write_through_the_weights_raises_on_both_forms(listed):
    m = np.ones((3, 3)) - np.eye(3)
    g = Graph._holding(_listed(m)) if listed else Graph(m)
    assert _is_listed(g) == listed
    before = g.weights.tobytes()
    with pytest.raises(ValueError, match="read-only"):
        g.weights[0, 1] = 5.0
    assert g.weights.tobytes() == before == m.tobytes()
    assert g.symmetric
    # the array the graph holds is not the caller's, which stays writable
    m[0, 1] = 5.0
    assert g.weights.tobytes() == before


def test_only_graphs_tells_the_forms_apart():
    # every other module reads a matrix through the operand methods alone
    folder = pathlib.Path(fpcentral.__file__).parent
    probes = re.compile(r"\b_Entries\b|\b_entries\b|\b_array\b|\b_values\(|\.m is\b|entries is None")
    modules = sorted(folder.glob("*.py"))
    assert "graphs.py" in {path.name for path in modules}
    for path in modules:
        if path.name != "graphs.py":
            found = [line.strip() for line in path.read_text().splitlines() if probes.search(line)]
            assert not found, (path.name, found)
