"""Per-query linear program assigning classifier weights.

For the multiset of validation samples a query's leaves return, find
weights w in [0, 100] summing to 100 such that, for every sample, the
support of its true class beats every other class by at least gamma;
violations are bought off with penalties g (margin shortfall below
gamma) and f (shortfall below 1), minimizing sum_i m_i * (g_i + 2 f_i).

``build_instance`` makes a query's member rows of one (truth, label
row), one ``CorrectnessMatrix.profile`` id, one sample whose
multiplicity is their sum, and the model collapses the constraints of
all classes no classifier votes for into one; both reductions preserve
the optimum exactly. The LP is built in numpy as one column-wise model
and goes straight to HiGHS (the binding scipy ships), with the options
scipy's ``linprog(method="highs-ds")`` uses: presolve, then dual
simplex, so that a basic (vertex) solution comes back, the same one run
to run. Degenerate instances have many optimal weight vectors; which
vertex is returned is HiGHS's choice.

Callers reuse solutions through a cache keyed by the query's leaf ids.
"""

import importlib.machinery
import importlib.util
import os
import sys
import threading
from dataclasses import dataclass

import numpy as np

# the HiGHS binding and its options, loaded by `highs` on the first solve:
# loaded from its file, the binding takes about 0.01 s and 3 MB, against
# 0.6 s and 44 MB for the scipy.optimize package it sits in (2-core x86-64,
# scipy 1.17); a command that solves no LP pays neither
_core = None
_OPTIONS = None
_CORE_NAME = "scipy.optimize._highspy._core"
_load_lock = threading.Lock()


def _load_core():
    """scipy's HiGHS binding, loaded from its file without importing the
    scipy.optimize package around it (about 320 modules). It is registered
    in sys.modules under its full name, so a later ``import
    scipy.optimize`` reuses it instead of loading a second copy."""
    core = sys.modules.get(_CORE_NAME)
    if core is not None:
        return core
    scipy_spec = importlib.util.find_spec("scipy")  # imports nothing
    if scipy_spec is None:
        raise ModuleNotFoundError("No module named 'scipy'", name="scipy")
    root = scipy_spec.submodule_search_locations[0]
    base = os.path.join(root, "optimize", "_highspy", "_core")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        if os.path.isfile(base + suffix):
            break
    else:
        raise ImportError("scipy's HiGHS binding optimize/_highspy/_core is "
                          "not in the scipy directory %s" % root,
                          name=_CORE_NAME)
    spec = importlib.util.spec_from_file_location(_CORE_NAME, base + suffix)
    core = importlib.util.module_from_spec(spec)
    sys.modules[_CORE_NAME] = core
    try:
        spec.loader.exec_module(core)
    except BaseException:
        del sys.modules[_CORE_NAME]
        raise
    return core


def highs():
    """(binding, options): the HiGHS binding that scipy's own linprog
    calls, and the options linprog(method="highs-ds") passes, everything
    else default; loaded on the first call."""
    global _core, _OPTIONS
    if _core is None:
        # a file load does not run under the import system's module lock
        with _load_lock:
            if _core is None:
                # private module; pyproject.toml bounds scipy to the
                # versions known to ship it
                core = _load_core()
                options = core.HighsOptions()
                options.presolve = "on"
                options.solver = "simplex"
                options.simplex_strategy = 1  # dual
                options.highs_debug_level = 0
                options.output_flag = False
                options.log_to_console = False
                # options first: a thread that sees the binding sees its
                # options
                _OPTIONS, _core = options, core
    return _core, _OPTIONS


class LpSolverError(RuntimeError):
    """Raised when the LP solver fails; carries a dump of the instance."""


@dataclass
class LpInstance:
    n: int
    n_classes: int
    m: np.ndarray  # (k,) multiplicities
    y: np.ndarray  # (k,) true classes
    L: np.ndarray  # (k, n) validation-time labels per classifier
    gamma: float

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


@dataclass
class LpSolution:
    w: np.ndarray
    g: np.ndarray
    f: np.ndarray
    objective: float


def build_instance(rows, mult, cm, gamma):
    """LP data for one query from the distinct member rows of its leaves,
    ascending, and their multiplicities: rows of one ``cm.profile`` id
    are one sample whose multiplicity is their sum, and the samples come
    in order of first appearance among the rows."""
    _, first, group = np.unique(cm.profile[rows], return_index=True,
                                return_inverse=True)
    by_first = np.argsort(first)
    m = np.bincount(group, weights=np.rint(mult))[by_first]
    kept = rows[first[by_first]]
    return LpInstance(
        n=cm.n_classifiers,
        n_classes=cm.n_classes,
        m=m.astype(np.int64),
        y=cm.truth[kept],
        L=cm.predicted[kept],
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


def _highs_model(inst, core):
    """Column-wise HiGHS model of the instance.

    Columns: w (n), then g and f (one each per sample). Rows: a (g, f)
    pair per sample and constrained class, in sample order with voted
    wrong classes ascending and one row last covering every unvoted
    class:  -d.w - g_i <= -gamma  and  -d.w - f_i <= -1,  where
    d = [L_i == y_i] - [L_i == c]; then the weight-sum row  sum w = 100.
    Each column lists its rows in ascending order, the order a CSC
    conversion of the same matrix gives.
    """
    m, y, L = inst.m, inst.y, inst.L
    k, n, C = inst.k, inst.n, inst.n_classes
    rows = np.arange(k)
    voted = np.zeros((k, C + 1), dtype=bool)
    voted[np.repeat(rows, n), L.ravel()] = True
    voted[rows, y] = False
    # column C stands for all unvoted wrong classes: L never equals C, so
    # its margin vector is the correct-vote indicator alone
    voted[:, C] = voted[:, :C].sum(axis=1) < C - 1
    pair_i, pair_c = np.nonzero(voted)
    P = pair_i.size
    d = ((L[pair_i] == y[pair_i, None]).astype(np.float64)
         - (L[pair_i] == pair_c[:, None]))
    # w column a: -d at rows 2r and 2r + 1 for each pair r with d[r, a]
    # nonzero, then 1 at the weight-sum row 2P; a stable sort by column
    # keeps that row order
    nz_a, nz_r = np.nonzero(d.T)
    w_col = np.concatenate([np.repeat(nz_a, 2), np.arange(n)])
    order = np.argsort(w_col, kind="stable")
    w_index = np.concatenate([np.column_stack([2 * nz_r, 2 * nz_r + 1]).ravel(),
                              np.full(n, 2 * P)])[order]
    w_value = np.concatenate([np.repeat(-d[nz_r, nz_a], 2), np.ones(n)])[order]
    w_end = np.cumsum(np.bincount(w_col, minlength=n))
    # g and f columns of sample i: -1 at rows 2p (g) and 2p + 1 (f)
    # for each of its pairs p, which np.nonzero left grouped by sample
    pen_end = np.cumsum(np.bincount(pair_i, minlength=k))
    pairs = 2 * np.arange(P)

    model = core.HighsLp()
    model.num_col_ = n + 2 * k
    model.num_row_ = 2 * P + 1
    model.col_cost_ = np.concatenate([np.zeros(n), m, 2.0 * m])
    model.col_lower_ = np.zeros(n + 2 * k)
    model.col_upper_ = np.concatenate([np.full(n, 100.0),
                                       np.full(2 * k, np.inf)])
    model.row_lower_ = np.concatenate([np.full(2 * P, -np.inf), [100.0]])
    model.row_upper_ = np.concatenate([np.tile([-float(inst.gamma), -1.0], P),
                                       [100.0]])
    matrix = model.a_matrix_
    matrix.format_ = core.MatrixFormat.kColwise
    matrix.num_col_ = n + 2 * k
    matrix.num_row_ = 2 * P + 1
    matrix.start_ = np.concatenate([[0], w_end, w_end[-1] + pen_end,
                                    w_end[-1] + P + pen_end])
    matrix.index_ = np.concatenate([w_index, pairs, pairs + 1])
    matrix.value_ = np.concatenate([w_value, np.full(2 * P, -1.0)])
    return model


def solve(inst):
    """Optimal weights and penalties for one instance.

    Always feasible (uniform weights with large penalties), so failures
    are solver breakdowns and raise LpSolverError with the instance.
    """
    core, options = highs()
    model = _highs_model(inst, core)
    solver = core._Highs()
    solver.passOptions(options)
    if solver.passModel(model) == core.HighsStatus.kError:
        status = core.HighsModelStatus.kModelError
    else:
        solver.run()
        status = solver.getModelStatus()
    if status != core.HighsModelStatus.kOptimal:
        raise LpSolverError("HiGHS: %s\n%s" % (solver.modelStatusToString(status),
                                                instance_dump(inst)))
    x = np.array(solver.getSolution().col_value)
    n, k = inst.n, inst.k
    w = np.clip(x[:n], 0.0, None)
    g = np.clip(x[n:n + k], 0.0, None)
    f = np.clip(x[n + k:n + 2 * k], 0.0, None)
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
