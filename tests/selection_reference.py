"""Per-query selection: the oracle for `cshc.selection.select_batch`.

The program selects over a whole batch of queries as arrays. These are
the functions it replaced, one query at a time over one bundle of hit
leaves (a `forest_reference.reference_bundle`, or `test_forest.simple_bundle`
for hand-built leaves): the batch must give every query the outcome they
give it, field for field.
"""

import functools
from dataclasses import dataclass

import numpy as np

from cshc import lp as lp_mod
from cshc.data import DataError
from cshc.rng import substream
from cshc.selection import _STREAM, SELECTION_METHODS


@dataclass
class SupportProfile:
    support: np.ndarray
    top_class: int
    second_class: int
    ratio: float


@dataclass
class SelectionOutcome:
    chosen_classifier: int
    predicted_class: int
    method_used: str
    confidence_ratio: float
    recourse_invoked: bool
    rr_ratio: float = None
    lp_ratio: float = None


def vote(weights, test_labels, n_classes, rng):
    """Weighted class vote; returns (profile, chosen classifier).

    Each classifier adds its weight to the class it labels the query
    with. Class ties go to the lower class index; among the winning
    class's voters the heaviest wins, weight ties broken by a draw from
    the caller's stream. ``rng`` is a Generator or a callable that makes
    one, called only when a weight tie needs the draw.
    """
    weights = np.asarray(weights, dtype=np.float64)
    test_labels = np.asarray(test_labels, dtype=np.int64)
    if weights.min() < 0:
        raise ValueError("vote weights must be non-negative")
    if not weights.any():
        raise ValueError("vote weights are all zero")
    support = np.bincount(test_labels, weights=weights, minlength=n_classes)
    top = int(np.argmax(support))
    rest = support.copy()
    rest[top] = -np.inf
    second = int(np.argmax(rest))
    ratio = float(support[second] / support[top]) if support[second] > 0 else 0.0
    voters = np.nonzero(test_labels == top)[0]
    heaviest = voters[weights[voters] == weights[voters].max()]
    if heaviest.size == 1:
        chosen = int(heaviest[0])
    else:
        chosen = int((rng() if callable(rng) else rng).choice(heaviest))
    return SupportProfile(support, top, second, ratio), chosen


def select_cshc(bundle, validation_accuracy=None, test_labels=None):
    """Classifier with the best cumulative rank over all trees.

    Rank ties go to the higher overall validation accuracy, then to
    the lower classifier index. Only this classifier would need to run
    at test time; predicted_class is filled when its label is known.
    """
    cumulative = bundle.cumulative_rank
    best = np.nonzero(cumulative == cumulative.max())[0]
    if best.size > 1 and validation_accuracy is not None:
        acc = np.asarray(validation_accuracy)[best]
        best = best[acc == acc.max()]
    chosen = int(best[0])
    predicted = int(test_labels[chosen]) if test_labels is not None else -1
    return SelectionOutcome(chosen, predicted, "cshc", 0.0, False)


def select_rr(bundle, test_labels, n_classes, rng):
    """Vote with cumulative ranks as weights."""
    cumulative = bundle.cumulative_rank
    profile, chosen = vote(cumulative, test_labels, n_classes, rng)
    return SelectionOutcome(chosen, int(test_labels[chosen]), "rr",
                            profile.ratio, False, rr_ratio=profile.ratio)


def select_lp(bundle, cm, test_labels, gamma, n_classes, rng, cache=None):
    """Vote with LP-optimal weights."""
    solution = _solve_cached(bundle, cm, gamma, cache)
    profile, chosen = vote(solution.w, test_labels, n_classes, rng)
    return SelectionOutcome(chosen, int(test_labels[chosen]), "lp",
                            profile.ratio, False, lp_ratio=profile.ratio)


def _solve_cached(bundle, cm, gamma, cache):
    def solve():
        return lp_mod.solve(lp_mod.build_instance(bundle.rows, bundle.mult,
                                                  cm, gamma))
    if cache is None:
        return solve()
    key = (bundle.tree_leaf_ids.tobytes(), float(gamma))
    if key not in cache:
        cache[key] = solve()
    return cache[key]


def select_lpr(bundle, cm, test_labels, rho, gamma, n_classes,
               validation_accuracy, rng_rr, rng_lp, cache=None):
    """Confidence-gated recourse chain.

    Trust rank regression when its support ratio is at most rho;
    otherwise fall through to the LP vote, then to agreement checks,
    the vanilla pick's class, the bundle's dominant true class, and
    finally the LP choice. method_used records the exit taken.
    """
    rr = select_rr(bundle, test_labels, n_classes, rng_rr)
    if rr.confidence_ratio <= rho:
        return rr
    lp = select_lp(bundle, cm, test_labels, gamma, n_classes, rng_lp, cache)
    ratios = {"rr_ratio": rr.confidence_ratio, "lp_ratio": lp.confidence_ratio}
    if lp.confidence_ratio <= rho:
        return SelectionOutcome(lp.chosen_classifier, lp.predicted_class, "lp",
                                lp.confidence_ratio, True, **ratios)
    low = min(rr.confidence_ratio, lp.confidence_ratio)
    if rr.predicted_class == lp.predicted_class:
        # same class: keep the more confident stage, ties favor the LP
        pick = rr if rr.confidence_ratio < lp.confidence_ratio else lp
        return SelectionOutcome(pick.chosen_classifier, pick.predicted_class,
                                "lpr-agree", low, True, **ratios)
    vanilla = select_cshc(bundle, validation_accuracy, test_labels)
    if vanilla.predicted_class in (rr.predicted_class, lp.predicted_class):
        return SelectionOutcome(vanilla.chosen_classifier, vanilla.predicted_class,
                                "lpr-cshc-match", low, True, **ratios)
    dominant = bundle.dominant_true_class
    for stage in (rr, lp, vanilla):
        if stage.predicted_class == dominant:
            return SelectionOutcome(stage.chosen_classifier, stage.predicted_class,
                                    "lpr-dominant", low, True, **ratios)
    return SelectionOutcome(lp.chosen_classifier, lp.predicted_class,
                            "lpr-fallback", low, True, **ratios)


def select_batch(method, bundles, label_matrix, sample_ids, cm, gamma, rho,
                 seed, cache):
    """Outcome of one selection method for every query of a batch, over
    the validation rows of the correctness matrix cm.

    Query q's tie-break draws come from streams keyed by (seed, stage,
    sample_ids[q]), so its outcome does not depend on the rest of the
    batch; a stream is created only when a vote ties. ``cache`` memoizes
    LP solutions across the batch, keyed by the bundles' leaf ids, so it
    serves bundles of one forest only. A failing
    LP aborts the batch with an LpSolverError that names the sample.
    """
    if method not in SELECTION_METHODS:
        raise DataError("selection methods are %s; got %r"
                        % ("/".join(SELECTION_METHODS), method))
    val_acc, n_classes = cm.classifier_accuracies(), cm.n_classes
    outcomes = []
    for bundle, labels_row, sid in zip(bundles, label_matrix, sample_ids):
        sid = int(sid)
        rng_rr = functools.partial(substream, seed, _STREAM["rr"], sid)
        rng_lp = functools.partial(substream, seed, _STREAM["lp"], sid)
        try:
            if method == "cshc":
                out = select_cshc(bundle, val_acc, labels_row)
            elif method == "rr":
                out = select_rr(bundle, labels_row, n_classes, rng_rr)
            elif method == "lp":
                out = select_lp(bundle, cm, labels_row, gamma, n_classes,
                                rng_lp, cache=cache)
            else:
                out = select_lpr(bundle, cm, labels_row, rho, gamma, n_classes,
                                 val_acc, rng_rr, rng_lp, cache=cache)
        except lp_mod.LpSolverError as exc:
            raise lp_mod.LpSolverError("sample %d: %s" % (sid, exc)) from exc
        outcomes.append(out)
    return outcomes
