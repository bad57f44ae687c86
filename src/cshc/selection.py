"""Turning the leaves a batch of queries hits into classifier choices.

Four strategies: the vanilla cumulative-rank pick (cshc), rank-weighted
voting over the classifiers' test-time labels (rr), voting with
LP-optimized weights (lp), and the confidence-gated recourse chain
(lpr). Confidence is the ratio of the second-largest to the largest
class support; lower means more confident. Each strategy runs over the
whole batch as arrays, and a query's outcome depends on its own row
alone.
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import lp as lp_mod
from .data import DataError
from .rng import substream

SELECTION_METHODS = ("cshc", "rr", "lp", "lpr")

# fixed substream tags: the recourse chain reuses the rr/lp streams so
# its first two stages replay the standalone methods draw for draw
_STREAM = {"rr": 0x11, "lp": 0x12}

# the exit a query takes: the vanilla pick, then the recourse chain's
# exits in the order it tries them
EXITS = ("cshc", "rr", "lp", "lpr-agree", "lpr-cshc-match", "lpr-dominant",
         "lpr-fallback")

# threads solving a batch's LP cache misses; fixed, never derived from input
_LP_WORKERS = 2


@dataclass
class Selection:
    """One method's outcome for every query of a batch, as (Q,) columns."""

    method: str
    chosen: np.ndarray      # chosen classifier
    predicted: np.ndarray   # its test-time label
    exit: np.ndarray        # name of the exit taken, one of EXITS
    confidence: np.ndarray  # confidence ratio of that exit
    rr_ratio: np.ndarray    # rank vote's ratio, NaN where it did not run
    lp_ratio: np.ndarray    # LP vote's ratio, NaN where it did not run

    @property
    def recourse(self):
        """(Q,) whether the recourse chain went past its rr stage."""
        return np.logical_and(self.method == "lpr", self.exit != "rr")


def _vote(weights, labels, n_classes, seed, stage, sample_ids):
    """(chosen, ratio) of each row's weighted class vote.

    Each classifier adds its weight to the class it labels the query
    with, in classifier order. Class ties go to the lower class index;
    among the winning class's voters the heaviest wins, and a weight tie
    draws from the stream (seed, stage, sample id) of that row alone.
    """
    bad = (weights < 0).any(axis=1) | ~weights.any(axis=1)
    if bad.any():
        raise ValueError("vote weights must be non-negative"
                         if weights[bad.argmax()].min() < 0
                         else "vote weights are all zero")
    rows = np.arange(labels.shape[0])
    support = np.zeros((rows.size, n_classes))
    for a in range(labels.shape[1]):
        support[rows, labels[:, a]] += weights[:, a]
    top = support.argmax(axis=1)
    rest = support.copy()
    rest[rows, top] = -np.inf
    second = support[rows, rest.argmax(axis=1)]
    ratio = np.where(second > 0, second / support[rows, top], 0.0)
    voters = np.where(labels == top[:, None], weights, -np.inf)
    heaviest = voters == voters.max(axis=1, keepdims=True)
    chosen = heaviest.argmax(axis=1)
    for q in np.flatnonzero(heaviest.sum(axis=1) > 1):
        rng = substream(seed, _STREAM[stage], int(sample_ids[q]))
        chosen[q] = rng.choice(np.flatnonzero(heaviest[q]))
    return chosen, ratio


def cshc_choice(cumulative, validation_accuracy):
    """Each row's classifier with the best cumulative rank; rank ties go
    to the higher validation accuracy, then to the lower index."""
    best = cumulative == cumulative.max(axis=1, keepdims=True)
    return np.where(best, validation_accuracy, -np.inf).argmax(axis=1)


def _lp_weights(forest, leaf_ids, sample_ids, gamma, cache):
    """(Q, n) LP-optimal weights over each row's leaf members.

    The LP is solved once per distinct row of leaf ids and the solution
    kept in cache under (leaf ids, gamma). A batch's cache misses are
    solved on _LP_WORKERS threads (HiGHS releases the interpreter lock)
    and stored in order of first appearance; each solution depends on
    its instance alone, so the outputs do not depend on the threads.
    """
    cm = forest.cm
    keys = [(ids.tobytes(), float(gamma)) for ids in leaf_ids]
    misses = {}  # key -> first row that needs it
    for q, key in enumerate(keys):
        if key not in cache:
            misses.setdefault(key, q)

    def solve(q):
        rows, mult = forest.member_union(leaf_ids[q])
        return lp_mod.solve(lp_mod.build_instance(rows, mult, cm, gamma))

    if misses:
        lp_mod.highs()  # loaded once, before the threads need it
    pool = ThreadPoolExecutor(_LP_WORKERS)
    try:
        # map re-raises in submission order: the first failing sample
        solutions = pool.map(solve, misses.values())
        for key, q in misses.items():
            try:
                cache[key] = next(solutions)
            except lp_mod.LpSolverError as exc:
                raise lp_mod.LpSolverError(
                    "sample %d: %s" % (sample_ids[q], exc)) from exc
    finally:
        pool.shutdown(cancel_futures=True)
    weights = np.empty((len(keys), cm.n_classifiers))
    for q, key in enumerate(keys):
        weights[q] = cache[key].w
    return weights


def select_batch(method, forest, leaf_ids, cumulative, dominant, labels,
                 sample_ids, gamma, rho, seed, cache):
    """Outcome of one selection method for every query of a batch.

    Query q hits the leaves leaf_ids[q] of the forest, whose within-leaf
    ranks sum to cumulative[q] and whose members' most common true class
    is dominant[q] (the arrays of `forest.query_batch`); the classifiers
    label it labels[q]. Its tie-break draws come from streams keyed by
    (seed, stage, sample_ids[q]), created only for rows whose vote ties.
    ``cache`` memoizes LP solutions keyed by leaf ids, so it serves one
    forest only. A failing LP aborts the batch with an LpSolverError that
    names the first sample it was solved for.

    The recourse chain (lpr) trusts the rank vote where its ratio is at
    most rho; elsewhere it falls through to the LP vote, then to agreement
    of the two, the vanilla pick's class, the dominant true class, and
    finally the LP choice.
    """
    if method not in SELECTION_METHODS:
        raise DataError("selection methods are %s; got %r"
                        % ("/".join(SELECTION_METHODS), method))
    cm = forest.cm
    leaf_ids = np.asarray(leaf_ids, dtype=np.int64)
    cumulative = np.asarray(cumulative, dtype=np.float64)
    dominant = np.asarray(dominant, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    sample_ids = np.asarray(sample_ids, dtype=np.int64)
    rows = np.arange(labels.shape[0])
    nan = np.full(rows.size, np.nan)

    def result(code, chosen, confidence, rr_ratio, lp_ratio):
        return Selection(method, chosen, labels[rows, chosen],
                         np.asarray(EXITS)[np.broadcast_to(code, rows.shape)],
                         confidence, rr_ratio, lp_ratio)

    if method == "cshc":
        chosen = cshc_choice(cumulative, cm.classifier_accuracies())
        return result(0, chosen, np.zeros(rows.size), nan, nan)
    if method == "lp":
        chosen, ratio = _vote(
            _lp_weights(forest, leaf_ids, sample_ids, gamma, cache), labels,
            cm.n_classes, seed, "lp", sample_ids)
        return result(2, chosen, ratio, nan, ratio)
    rr_c, rr_r = _vote(cumulative, labels, cm.n_classes, seed, "rr",
                       sample_ids)
    if method == "rr":
        return result(1, rr_c, rr_r, rr_r, nan)
    # the LP runs only where the rank vote is unsure
    gate = rr_r > rho
    lp_c, lp_r = rr_c.copy(), nan.copy()
    lp_c[gate], lp_r[gate] = _vote(
        _lp_weights(forest, leaf_ids[gate], sample_ids[gate], gamma, cache),
        labels[gate], cm.n_classes, seed, "lp", sample_ids[gate])
    cshc_c = cshc_choice(cumulative, cm.classifier_accuracies())
    rr_p, lp_p, cshc_p = (labels[rows, c] for c in (rr_c, lp_c, cshc_c))
    code = np.select(
        [~gate, lp_r <= rho, rr_p == lp_p,
         (cshc_p == rr_p) | (cshc_p == lp_p),
         (rr_p == dominant) | (lp_p == dominant) | (cshc_p == dominant)],
        [1, 2, 3, 4, 5], 6)
    # agreeing stages: the more confident one, ties favour the LP; the
    # dominant class: the first of rr, lp and cshc that predicts it
    chosen = np.choose(code - 1, [
        rr_c, lp_c, np.where(rr_r < lp_r, rr_c, lp_c), cshc_c,
        np.where(rr_p == dominant, rr_c,
                 np.where(lp_p == dominant, lp_c, cshc_c)),
        lp_c])
    confidence = np.where(code == 1, rr_r,
                          np.where(code == 2, lp_r, np.fmin(rr_r, lp_r)))
    return result(code, chosen, confidence, rr_r, lp_r)
