"""Independent optimum of a per-query weight LP, from its definition.

For an `LpInstance` (multiplicities m, truths y, label rows L, margin
gamma) the LP is: minimise sum_i m_i (g_i + 2 f_i) over w in [0, 100]^n
with sum(w) = 100 and g, f >= 0, such that for every sample i and every
class c != y_i the margin d_ic . w = sum_a w_a ([L_ia = y_i] - [L_ia = c])
satisfies d_ic . w + g_i >= gamma and d_ic . w + f_i >= 1.

Samples sharing (y, L row) get the same optimal penalties, so they are
merged here (multiplicities add) before the sparse model goes to HiGHS.
This code shares nothing with the program's own standard form.
"""

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

REL_TOL = 1e-6


def merged(inst):
    """(m, y, L) with duplicate (y, L row) samples merged."""
    key = np.column_stack([inst.y, inst.L])
    uniq, inverse = np.unique(key, axis=0, return_inverse=True)
    m = np.bincount(inverse.ravel(), weights=inst.m, minlength=len(uniq))
    return m, uniq[:, 0], uniq[:, 1:]


def optimum(inst):
    m, y, L = merged(inst)
    k, n, C = m.size, inst.n, inst.n_classes
    pair_i, pair_c = np.nonzero(np.arange(C)[None, :] != y[:, None])
    D = ((L[pair_i] == y[pair_i, None]).astype(float)
         - (L[pair_i] == pair_c[:, None]))
    P = pair_i.size
    # rows: -D w - g_i <= -gamma, then -D w - f_i <= -1
    pen = sparse.csr_matrix((-np.ones(P), (np.arange(P), pair_i)), shape=(P, k))
    zero = sparse.csr_matrix((P, k))
    A = sparse.vstack([sparse.hstack([-D, pen, zero]),
                       sparse.hstack([-D, zero, pen])]).tocsr()
    b = np.concatenate([np.full(P, -float(inst.gamma)), np.full(P, -1.0)])
    cost = np.concatenate([np.zeros(n), m, 2.0 * m])
    A_eq = sparse.csr_matrix(np.concatenate([np.ones(n), np.zeros(2 * k)])[None, :])
    res = linprog(cost, A_ub=A, b_ub=b, A_eq=A_eq, b_eq=[100.0],
                  bounds=[(0, 100)] * n + [(0, None)] * (2 * k), method="highs")
    if res.status != 0:
        raise RuntimeError("HiGHS status %d: %s" % (res.status, res.message))
    return float(res.fun)


def achieved(inst, w):
    """Objective that weights w reach with their smallest penalties."""
    m, y, L = merged(inst)
    rows = np.arange(m.size)
    # votes[i, c] = sum of w_a over classifiers a that label sample i as c
    votes = ((L[:, :, None] == np.arange(inst.n_classes)) * w[:, None]).sum(axis=1)
    own = votes[rows, y].copy()
    votes[rows, y] = -np.inf
    margin = own - votes.max(axis=1)
    g = np.maximum(0.0, inst.gamma - margin)
    f = np.maximum(0.0, 1.0 - margin)
    return float((m * (g + 2.0 * f)).sum())


def violation(w):
    """How far w lies outside {w in [0, 100]^n, sum(w) = 100}, over 100."""
    return float(max(0.0, -w.min(), w.max() - 100.0, abs(w.sum() - 100.0))) / 100.0


def check(solves):
    """(mismatches, max relative gap) over (instance, solution) pairs. A
    solution mismatches when its reported objective, or the objective its
    weights reach, is not the HiGHS optimum, or its weights are infeasible."""
    mismatches, worst = 0, 0.0
    for inst, sol in solves:
        opt = optimum(inst)
        scale = max(1.0, abs(opt))
        w = np.asarray(sol.w, dtype=float)
        gap = max(abs(sol.objective - opt) / scale,
                  abs(achieved(inst, w) - opt) / scale, violation(w))
        worst = max(worst, gap)
        mismatches += gap > REL_TOL
    return mismatches, worst
