"""Independent brute-force oracles.

Everything here is deliberately naive: full enumeration and textbook
formulas only, no shared code with the package under test beyond numpy.
Derived expected values in the test files were frozen from these.
"""

import itertools

import numpy as np


def cut_norm_brute(m):
    """max_{S,T} |sum_{i in S, j in T} m_ij| over all 4^n index pairs."""
    m = np.asarray(m, dtype=float)
    n = m.shape[0]
    masks = ((np.arange(2 ** n)[:, None] >> np.arange(n)) & 1).astype(float)
    box = masks @ m @ masks.T
    return float(np.max(np.abs(box)))


def _lex_subset_masks(n):
    """All subsets of {0..n-1} as bitmasks, ordered lexicographically by
    their sorted index tuples (empty set first)."""
    masks = np.zeros(1, dtype=np.int64)
    for f in range(n - 1, -1, -1):
        bit = np.int64(1) << np.int64(f)
        masks = np.concatenate(
            (np.zeros(1, dtype=np.int64), bit + masks, masks[1:])
        )
    return masks


def _split_by_sign(c):
    """Positive-sum or negative-sum columns, whichever is larger in absolute
    value; ties go to the lexicographically smaller set."""
    vp = float(np.where(c > 0, c, 0.0).sum())
    vm = float(-np.where(c < 0, c, 0.0).sum())
    tp = tuple(np.flatnonzero(c > 0).tolist())
    tm = tuple(np.flatnonzero(c < 0).tolist())
    if vp > vm:
        return vp, tp
    if vm > vp:
        return vm, tm
    return vp, min(tp, tm)


def cut_norm_rows_reference(m):
    """Exact cut norm by enumerating all 2^n row subsets, O(2^n * n^2).

    Row subsets S are visited in lexicographic order of their sorted index
    tuples and the first maximizer is kept; T is the sign-optimal column
    set of that S (ties to the lexicographically smaller set).  Returns
    ``(value, S, T)`` with the value recomputed from the witness.
    """
    m = np.asarray(m, dtype=float)
    n = m.shape[0]
    masks = _lex_subset_masks(n)
    shifts = np.arange(n, dtype=np.int64)
    best_val = -1.0
    best_mask = 0
    chunk = 65_536
    for start in range(0, masks.shape[0], chunk):
        mk = masks[start : start + chunk]
        bits = ((mk[:, None] >> shifts) & 1).astype(float)
        col = bits @ m
        vp = np.where(col > 0, col, 0.0).sum(axis=1)
        vm = -np.where(col < 0, col, 0.0).sum(axis=1)
        vals = np.maximum(vp, vm)
        k = int(np.argmax(vals))
        if float(vals[k]) > best_val:
            best_val = float(vals[k])
            best_mask = int(mk[k])
    s = tuple(i for i in range(n) if (best_mask >> i) & 1)
    c = m[list(s), :].sum(axis=0) if s else np.zeros(n)
    _, t = _split_by_sign(c)
    value = abs(float(m[np.ix_(s, t)].sum())) if s and t else 0.0
    return value, s, t


def matrix_norm_brute(d, norm):
    d = np.asarray(d, dtype=float)
    if norm == "cut":
        return cut_norm_brute(d)
    if norm == 1:
        return float(np.max(np.abs(d).sum(axis=0), initial=0.0))
    if norm == np.inf:
        return float(np.max(np.abs(d).sum(axis=1), initial=0.0))
    return float(np.linalg.norm(d, 2))


def min_permuted_distance_brute(a, b, norm):
    """min over all n! relabelings of ||A^pi - B|| by direct enumeration."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    n = a.shape[0]
    best = np.inf
    for perm in itertools.permutations(range(n)):
        m = np.array(perm)
        best = min(best, matrix_norm_brute(a[np.ix_(m, m)] - b, norm))
    return best


def min_permuted_distance_lex_reference(a, b, norm):
    """The unpruned exact relabeling sweep: all n! relabelings in
    lexicographic order, 500 at a time, keeping the first strict minimum.

    Returns ``(value, permutation)``.  The permutation maps node i of ``a``
    to node ``permutation[i]``, so its candidate difference is
    ``a[inv][:, inv] - b`` with ``inv`` the inverse permutation.  ``norm``
    is 1, 2, ``np.inf`` or ``"cut"``; the cut norm takes, for every row
    subset, the larger of the positive and the negative column mass.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    n = a.shape[0]
    perms = np.array(list(itertools.permutations(range(n))), dtype=int)
    bits = ((np.arange(2 ** n)[:, None] >> np.arange(n)) & 1).astype(float)
    best_val, best_perm = np.inf, None
    for start in range(0, perms.shape[0], 500):
        block = perms[start : start + 500]
        inv = np.argsort(block, axis=1)
        d = a[inv[:, :, None], inv[:, None, :]] - b
        if norm == 1:
            vals = np.abs(d).sum(axis=1).max(axis=1)
        elif norm == np.inf:
            vals = np.abs(d).sum(axis=2).max(axis=1)
        elif norm == "cut":
            col = bits @ d
            vp = np.maximum(col, 0.0).sum(axis=2)
            vm = -np.minimum(col, 0.0).sum(axis=2)
            vals = np.maximum(vp, vm).max(axis=1)
        else:
            vals = np.linalg.norm(d, 2, axis=(1, 2))
        k = int(np.argmin(vals))
        if vals[k] < best_val:
            best_val, best_perm = float(vals[k]), block[k]
    return best_val, tuple(best_perm.tolist())


def automorphisms_brute(weights):
    """All relabelings p with w[p(i), p(j)] == w[i, j], by direct check."""
    w = np.asarray(weights, dtype=float)
    n = w.shape[0]
    out = []
    for perm in itertools.permutations(range(n)):
        m = np.array(perm)
        if np.array_equal(w[np.ix_(m, m)], w):
            out.append(tuple(perm))
    return out


def permutation_cost_brute(src, dst, p):
    """min over all n! orderings of ||src[pi] - dst||_p."""
    src = np.asarray(src, dtype=float)
    dst = np.asarray(dst, dtype=float)
    best = np.inf
    for perm in itertools.permutations(range(src.shape[0])):
        diff = src[np.array(perm)] - dst
        if p == 1:
            val = float(np.abs(diff).sum())
        else:
            val = float(np.sqrt((diff ** 2).sum()))
        best = min(best, val)
    return best


def w1_grid_brute(src, dst):
    """1-D optimal transport on the grid i/n: integral of |CDF gap|."""
    src = np.asarray(src, dtype=float)
    dst = np.asarray(dst, dtype=float)
    return float(np.abs(np.cumsum(src - dst)).sum() / src.shape[0])


def random_pmf(rng, n):
    v = rng.random(n) + 1e-3
    return v / v.sum()


def random_symmetric(rng, n, low=-1.0, high=1.0):
    m = rng.uniform(low, high, size=(n, n))
    m = (m + m.T) / 2.0
    return np.clip(m, low, high)


def random_binary_symmetric(rng, n, p=0.5):
    upper = rng.random((n, n)) < p
    w = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            if upper[i, j]:
                w[i, j] = w[j, i] = 1.0
    return w
