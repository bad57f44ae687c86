"""Reference solvers for the per-query weight LP.

The program solves the LP with HiGHS; this module holds the independent
oracles the LP tests compare it with. They share no code with
``cshc.lp`` beyond the ``LpInstance`` and ``LpSolution`` data:

- ``reference_solve``: a dense two-phase simplex over a tableau built
  from the instance's raw rows (no merging of equivalent samples), the
  method the program used before it moved to HiGHS.
- ``linprog_solve``: the merged sparse model solved through scipy's
  public ``linprog(method="highs-ds")``, the path the program took
  before it handed its column-wise model to HiGHS directly. Both reach
  the same HiGHS with the same matrix and options, so they must return
  the same vertex bit for bit.

The loop forms of the program's sample merge and closed-form penalties
are kept here as the references for their vectorized versions.

Candidate columns follow the largest-reduced-cost rule and switch to
Bland's rule after a fixed number of pivots so degenerate instances
cannot cycle.
"""

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from cshc.lp import LpSolution


class ReferenceSolverError(RuntimeError):
    """The reference simplex stopped without an optimum."""


def merge_equivalent(inst):
    """Loop form of the program's sample merge: groups of samples sharing
    (truth, label row) in order of first appearance, multiplicities
    added. Returns (m, y, L, group_of)."""
    keys = {}
    order = []
    merged_m = []
    group_of = np.empty(inst.k, dtype=np.int64)
    for i in range(inst.k):
        key = (int(inst.y[i]),) + tuple(int(v) for v in inst.L[i])
        if key not in keys:
            keys[key] = len(order)
            order.append(i)
            merged_m.append(0)
        gid = keys[key]
        group_of[i] = gid
        merged_m[gid] += int(inst.m[i])
    rows = np.asarray(order, dtype=np.int64)
    return (np.asarray(merged_m, dtype=np.int64), inst.y[rows], inst.L[rows],
            group_of)


def penalties_given_weights(inst, w):
    """Loop form of the program's closed-form penalties: one bincount of
    the weights by label per sample. Returns (objective, g, f)."""
    w = np.asarray(w, dtype=np.float64)
    g = np.empty(inst.k)
    f = np.empty(inst.k)
    for i in range(inst.k):
        support = np.bincount(inst.L[i], weights=w, minlength=inst.n_classes)
        correct = support[inst.y[i]]
        support[inst.y[i]] = -np.inf
        margin = correct - support.max()
        g[i] = max(0.0, inst.gamma - margin)
        f[i] = max(0.0, 1.0 - margin)
    objective = float((inst.m * (g + 2.0 * f)).sum())
    return objective, g, f


def _build_standard_form(inst):
    """Rows: weight-sum equality, then (g, f) margin rows per sample and
    constrained class. Returns (A, b, cost, k)."""
    m, y, L = inst.m, inst.y, inst.L
    kk = m.size
    n = inst.n
    row_specs = []  # (sample, class-support-vector)
    for i in range(kk):
        wrong = np.unique(L[i][L[i] != y[i]])
        supports = []
        for c in wrong:
            supports.append((L[i] == c).astype(np.float64))
        if wrong.size < inst.n_classes - 1:
            supports.append(np.zeros(n))  # one row covers all unvoted classes
        correct_vec = (L[i] == y[i]).astype(np.float64)
        for sup in supports:
            row_specs.append((i, correct_vec - sup))
    n_pen_rows = len(row_specs)
    n_rows = 1 + 2 * n_pen_rows
    n_cols = n + 2 * kk + 2 * n_pen_rows
    A = np.zeros((n_rows, n_cols))
    b = np.zeros(n_rows)
    A[0, :n] = 1.0
    b[0] = 100.0
    for r, (i, coeff) in enumerate(row_specs):
        gr = 1 + 2 * r
        fr = gr + 1
        A[gr, :n] = coeff
        A[gr, n + i] = 1.0
        A[gr, n + 2 * kk + 2 * r] = -1.0
        b[gr] = inst.gamma
        A[fr, :n] = coeff
        A[fr, n + kk + i] = 1.0
        A[fr, n + 2 * kk + 2 * r + 1] = -1.0
        b[fr] = 1.0
    cost = np.zeros(n_cols)
    cost[n:n + kk] = m
    cost[n + kk:n + 2 * kk] = 2.0 * m
    return A, b, cost, kk


def _pivot(T, basis, r, j):
    """Eliminate column j from every row except r; row r is scaled to 1.

    The reduced-cost row rides along as the last tableau row. Sparse
    columns update row-by-row; dense ones as one broadcast rank-1 op.
    """
    T[r] /= T[r, j]
    col = T[:, j].copy()
    col[r] = 0.0
    hit = np.nonzero(col)[0]
    if hit.size * 4 < T.shape[0]:
        T[hit] -= col[hit, None] * T[r]
    else:
        T -= col[:, None] * T[r]
    basis[r] = j


def _run_pivots(T, basis, allowed_cols, it, max_iter, bland_after, tol):
    """Iterate until the maintained cost row has no improving column."""
    n_rows = basis.size
    while True:
        reduced = T[-1, :allowed_cols]
        if it < bland_after:
            j = int(np.argmin(reduced))
            if reduced[j] >= -tol:
                return it, 0
        else:  # Bland's rule: first improving column
            neg = np.nonzero(reduced < -tol)[0]
            if neg.size == 0:
                return it, 0
            j = int(neg[0])
        col = T[:n_rows, j]
        pos = col > tol
        if not pos.any():
            return it, 3
        ratios = np.full(n_rows, np.inf)
        ratios[pos] = T[:n_rows, -1][pos] / col[pos]
        best = ratios.min()
        ties = np.nonzero(ratios <= best + tol)[0]
        r = int(ties[np.argmin(basis[ties])])
        _pivot(T, basis, r, j)
        it += 1
        if it >= max_iter:
            return it, 1


def _set_cost_row(T, basis, cvec):
    """Reduced costs for the current basis: c - c_B B^-1 A."""
    T[-1, :-1] = cvec
    T[-1, -1] = 0.0
    cb = cvec[basis]
    hit = np.nonzero(cb)[0]
    if hit.size:
        T[-1] -= cb[hit] @ T[hit]


def _simplex(A, b, cost, max_iter, bland_after, tol=1e-9):
    """min cost.x s.t. Ax = b, x >= 0 (b >= 0). Returns x or a status code.

    Two-phase dense tableau with the reduced-cost row maintained in
    place. Status: 0 ok, 1 iteration limit, 2 infeasible, 3 unbounded.
    """
    n_rows, n_real = A.shape
    T = np.zeros((n_rows + 1, n_real + n_rows + 1))
    T[:n_rows, :n_real] = A
    T[:n_rows, n_real:-1] = np.eye(n_rows)
    T[:n_rows, -1] = b
    basis = np.arange(n_real, n_real + n_rows)

    # phase 1: minimize the artificial sum
    cost1 = np.zeros(n_real + n_rows)
    cost1[n_real:] = 1.0
    _set_cost_row(T, basis, cost1)
    it, status = _run_pivots(T, basis, n_real + n_rows, 0, max_iter,
                             bland_after, tol)
    if status:
        return None, status
    if cost1[basis] @ T[:n_rows, -1] > 1e-7:
        return None, 2
    # pivot leftover zero-level artificials out where a real column allows
    for r in range(n_rows):
        if basis[r] >= n_real:
            j = int(np.argmax(np.abs(T[r, :n_real])))
            if abs(T[r, j]) > tol:
                _pivot(T, basis, r, j)
    # drop artificial columns that left the basis; they never re-enter
    kept_art = sorted({int(jb) for jb in basis if jb >= n_real})
    keep = np.concatenate([np.arange(n_real), np.asarray(kept_art, dtype=int),
                           [n_real + n_rows]]).astype(int)
    remap = {old: n_real + i for i, old in enumerate(kept_art)}
    basis = np.asarray([remap.get(int(jb), int(jb)) for jb in basis])
    T = np.ascontiguousarray(T[:, keep])
    # phase 2 on the real columns only
    _set_cost_row(T, basis, np.concatenate([cost, np.zeros(len(kept_art))]))
    it, status = _run_pivots(T, basis, n_real, it, max_iter, bland_after, tol)
    if status:
        return None, status
    x = np.zeros(n_real)
    for r, jb in enumerate(basis):
        if jb < n_real:
            x[jb] = T[r, -1]
    return x, 0


def reference_solve(inst):
    """(objective, w, g, f) of one instance by the dense simplex; g and f
    are per raw sample."""
    A, b, cost, kk = _build_standard_form(inst)
    max_iter = 200 * (A.shape[0] + A.shape[1]) + 2000
    bland_after = 20 * (A.shape[0] + A.shape[1]) + 200
    x, status = _simplex(A, b, cost, max_iter, bland_after)
    if status:
        raise ReferenceSolverError("reference simplex status %d" % status)
    n = inst.n
    w = np.clip(x[:n], 0.0, None)
    g = np.clip(x[n:n + kk], 0.0, None)
    f = np.clip(x[n + kk:n + 2 * kk], 0.0, None)
    return float((inst.m * (g + 2.0 * f)).sum()), w, g, f


def _inequality_form(inst):
    """Sparse model over the merged samples, as ``linprog`` takes it.

    Columns: w (n), then g and f (one each per merged sample). Rows: a
    (g, f) pair per merged sample and constrained class, in sample order
    with voted wrong classes ascending and one row last covering every
    unvoted class:  -d.w - g_i <= -gamma  and  -d.w - f_i <= -1,  where
    d = [L_i == y_i] - [L_i == c].  Returns (cost, A_ub, b_ub, kk, group_of).
    """
    m, y, L, group_of = merge_equivalent(inst)
    kk, n, C = m.size, inst.n, inst.n_classes
    rows = np.arange(kk)
    voted = np.zeros((kk, C + 1), dtype=bool)
    voted[np.repeat(rows, n), L.ravel()] = True
    voted[rows, y] = False
    # column C stands for all unvoted wrong classes: L never equals C, so
    # its margin vector is the correct-vote indicator alone
    voted[:, C] = voted[:, :C].sum(axis=1) < C - 1
    pair_i, pair_c = np.nonzero(voted)
    P = pair_i.size
    d = ((L[pair_i] == y[pair_i, None]).astype(np.float64)
         - (L[pair_i] == pair_c[:, None]))
    nz_r, nz_a = np.nonzero(d)
    neg_d = -d[nz_r, nz_a]
    pen = np.full(P, -1.0)
    pairs = np.arange(P)
    A_ub = sparse.csr_matrix(
        (np.concatenate([neg_d, neg_d, pen, pen]),
         (np.concatenate([2 * nz_r, 2 * nz_r + 1, 2 * pairs, 2 * pairs + 1]),
          np.concatenate([nz_a, nz_a, n + pair_i, n + kk + pair_i]))),
        shape=(2 * P, n + 2 * kk))
    b_ub = np.tile([-float(inst.gamma), -1.0], P)
    cost = np.concatenate([np.zeros(n), m, 2.0 * m])
    return cost, A_ub, b_ub, kk, group_of


def linprog_solve(inst):
    """``LpSolution`` of one instance through public ``linprog``, with
    the program's clipping and per-raw-sample penalties."""
    cost, A_ub, b_ub, kk, group_of = _inequality_form(inst)
    n = inst.n
    A_eq = np.zeros((1, cost.size))
    A_eq[0, :n] = 1.0
    res = linprog(cost, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=[100.0],
                  bounds=[(0.0, 100.0)] * n + [(0.0, None)] * (2 * kk),
                  method="highs-ds")
    if res.status != 0:
        raise ReferenceSolverError("HiGHS: %s" % res.message)
    x = res.x
    w = np.clip(x[:n], 0.0, None)
    g_merged = np.clip(x[n:n + kk], 0.0, None)
    f_merged = np.clip(x[n + kk:n + 2 * kk], 0.0, None)
    g = g_merged[group_of]
    f = f_merged[group_of]
    return LpSolution(w=w, g=g, f=f,
                      objective=float((inst.m * (g + 2.0 * f)).sum()))
