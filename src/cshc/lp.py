"""Per-query linear program assigning classifier weights.

For the multiset of validation samples a query's leaves return, find
weights w in [0, 100] summing to 100 such that, for every sample, the
support of its true class beats every other class by at least gamma;
violations are bought off with penalties g (margin shortfall below
gamma) and f (shortfall below 1), minimizing sum_i m_i * (g_i + 2 f_i).

Instances are shrunk before solving by merging samples with identical
(truth, label row) and by collapsing the constraints of all classes no
classifier votes for into one; both reductions preserve the optimum
exactly. The merged LP goes to scipy's HiGHS as a sparse inequality
model, solved by dual simplex so that a basic (vertex) solution comes
back, the same one run to run. Degenerate instances have many optimal
weight vectors; which vertex is returned is HiGHS's choice.

Callers reuse solutions through a cache keyed by the query's leaf ids.
"""

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.optimize import linprog


class LpSolverError(RuntimeError):
    """Raised when the LP solver fails; carries a dump of the instance."""


@dataclass
class LpInstance:
    n: int
    n_classes: int
    m: np.ndarray  # (k,) multiplicities
    y: np.ndarray  # (k,) true classes
    L: np.ndarray  # (k, n) validation-time labels per classifier
    gamma: float = 80.0

    def __post_init__(self):
        self.m = np.asarray(self.m, dtype=np.int64)
        self.y = np.asarray(self.y, dtype=np.int64)
        self.L = np.asarray(self.L, dtype=np.int64)
        if self.m.min() < 1:
            raise ValueError("multiplicities must be >= 1")
        if self.L.shape != (self.k, self.n):
            raise ValueError("label matrix shape mismatch")

    @property
    def k(self):
        return self.m.size

    def constraint_count(self):
        """Nominal size: two penalty rows per (sample, wrong class) plus
        the weight-sum equality."""
        return 2 * self.k * (self.n_classes - 1) + 1


@dataclass
class LpSolution:
    w: np.ndarray
    g: np.ndarray
    f: np.ndarray
    objective: float


def build_instance(bundle, cm, gamma):
    """LP data for one query: the bundle's unique rows with multiplicities,
    labels taken from the validation-time prediction matrix."""
    return LpInstance(
        n=cm.n_classifiers,
        n_classes=cm.class_count(),
        m=np.rint(bundle.mult).astype(np.int64),
        y=cm.truth[bundle.rows],
        L=cm.predicted[bundle.rows],
        gamma=gamma,
    )


def instance_dump(inst):
    lines = ["n=%d classes=%d k=%d gamma=%g" % (inst.n, inst.n_classes, inst.k,
                                                inst.gamma)]
    for i in range(inst.k):
        lines.append("m=%d y=%d labels=%s"
                     % (inst.m[i], inst.y[i], inst.L[i].tolist()))
    return "\n".join(lines)


def penalties_given_weights(inst, w):
    """Closed-form optimal (g, f) for fixed weights.

    For sample i the binding class is the wrong class with the largest
    support; g_i = max(0, gamma - margin), f_i = max(0, 1 - margin).
    Used as the independent oracle and for feasibility checking.
    """
    w = np.asarray(w, dtype=np.float64)
    k, n = inst.L.shape
    rows = np.arange(k)
    # row-major accumulation adds each sample's weights in classifier
    # order, as a per-sample bincount would, so the sums match it exactly
    support = np.zeros((k, inst.n_classes))
    np.add.at(support, (np.repeat(rows, n), inst.L.ravel()), np.tile(w, k))
    correct = support[rows, inst.y]
    support[rows, inst.y] = -np.inf
    margin = correct - support.max(axis=1)
    g = np.maximum(0.0, inst.gamma - margin)
    f = np.maximum(0.0, 1.0 - margin)
    objective = float((inst.m * (g + 2.0 * f)).sum())
    return objective, g, f


def _merge_equivalent(inst):
    """Group samples sharing (truth, label row); multiplicities add.
    Groups are numbered in order of first appearance."""
    key = np.column_stack([inst.y, inst.L])
    _, first, inverse = np.unique(key, axis=0, return_index=True,
                                  return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    group_of = rank[inverse.ravel()]
    merged_m = np.zeros(order.size, dtype=np.int64)
    np.add.at(merged_m, group_of, inst.m)
    rows = first[order]
    return merged_m, inst.y[rows], inst.L[rows], group_of


def _inequality_form(inst):
    """Sparse HiGHS model over the merged samples.

    Columns: w (n), then g and f (one each per merged sample). Rows: a
    (g, f) pair per merged sample and constrained class, in sample order
    with voted wrong classes ascending and one row last covering every
    unvoted class:  -d.w - g_i <= -gamma  and  -d.w - f_i <= -1,  where
    d = [L_i == y_i] - [L_i == c].  Returns (cost, A_ub, b_ub, kk, group_of).
    """
    m, y, L, group_of = _merge_equivalent(inst)
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


def solve(inst):
    """Optimal weights and penalties for one instance.

    Always feasible (uniform weights with large penalties), so failures
    are solver breakdowns and raise LpSolverError with the instance.
    """
    cost, A_ub, b_ub, kk, group_of = _inequality_form(inst)
    n = inst.n
    A_eq = np.zeros((1, cost.size))
    A_eq[0, :n] = 1.0
    res = linprog(cost, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=[100.0],
                  bounds=[(0.0, 100.0)] * n + [(0.0, None)] * (2 * kk),
                  method="highs-ds")
    if res.status != 0:
        raise LpSolverError("HiGHS: %s\n%s" % (res.message, instance_dump(inst)))
    x = res.x
    w = np.clip(x[:n], 0.0, None)
    g_merged = np.clip(x[n:n + kk], 0.0, None)
    f_merged = np.clip(x[n + kk:n + 2 * kk], 0.0, None)
    g = g_merged[group_of]
    f = f_merged[group_of]
    sol = LpSolution(w=w, g=g, f=f,
                     objective=float((inst.m * (g + 2.0 * f)).sum()))
    _verify(inst, sol)
    return sol


def _verify(inst, sol, tol=1e-6):
    if abs(sol.w.sum() - 100.0) > tol or sol.w.min() < -tol or sol.w.max() > 100 + tol:
        raise LpSolverError("weight vector violates bounds: %s\n%s"
                            % (sol.w, instance_dump(inst)))
    _, g_min, f_min = penalties_given_weights(inst, sol.w)
    if (sol.g - g_min).min() < -tol or (sol.f - f_min).min() < -tol:
        raise LpSolverError("penalties below feasible minimum\n%s"
                            % instance_dump(inst))
