"""Turning a query's leaf bundle into a classifier choice.

Four strategies: the vanilla cumulative-rank pick (cshc), rank-weighted
voting over the classifiers' test-time labels (rr), voting with
LP-optimized weights (lp), and the confidence-gated recourse chain
(lpr). Confidence is the ratio of the second-largest to the largest
class support; lower means more confident.
"""

from dataclasses import dataclass

import numpy as np

from . import forest as forest_mod
from . import lp as lp_mod
from .data import DataError
from .rng import substream

SELECTION_METHODS = ("cshc", "rr", "lp", "lpr")

# fixed substream tags: the recourse chain reuses the rr/lp streams so
# its first two stages replay the standalone methods draw for draw
_STREAM = {"rr": 0x11, "lp": 0x12}


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
    the caller's stream.
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
    chosen = int(heaviest[0]) if heaviest.size == 1 else int(rng.choice(heaviest))
    return SupportProfile(support, top, second, ratio), chosen


def select_cshc(bundle, validation_accuracy=None, test_labels=None):
    """Classifier with the best cumulative rank over all trees.

    Rank ties go to the higher overall validation accuracy, then to
    the lower classifier index. Only this classifier would need to run
    at test time; predicted_class is filled when its label is known.
    """
    _, cumulative = forest_mod.leaf_ranks(bundle)
    best = np.nonzero(cumulative == cumulative.max())[0]
    if best.size > 1 and validation_accuracy is not None:
        acc = np.asarray(validation_accuracy)[best]
        best = best[acc == acc.max()]
    chosen = int(best[0])
    predicted = int(test_labels[chosen]) if test_labels is not None else -1
    return SelectionOutcome(chosen, predicted, "cshc", 0.0, False)


def select_rr(bundle, test_labels, n_classes, rng):
    """Vote with cumulative ranks as weights."""
    _, cumulative = forest_mod.leaf_ranks(bundle)
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
    if cache is None:
        return lp_mod.solve(lp_mod.build_instance(bundle, cm, gamma))
    key = (bundle.rows.tobytes(), bundle.mult.tobytes(), float(gamma))
    if key not in cache:
        cache[key] = lp_mod.solve(lp_mod.build_instance(bundle, cm, gamma))
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


def select_batch(method, bundles, label_matrix, sample_ids, cm, val_acc,
                 n_classes, gamma, rho, seed, cache):
    """Outcome of one selection method for every query of a batch.

    Query q's tie-break draws come from streams keyed by (seed, stage,
    sample_ids[q]), so its outcome does not depend on the rest of the
    batch. ``cache`` memoizes LP solutions across the batch. A failing
    LP aborts the batch with an LpSolverError that names the sample.
    """
    if method not in SELECTION_METHODS:
        raise DataError("selection methods are %s; got %r"
                        % ("/".join(SELECTION_METHODS), method))
    outcomes = []
    for bundle, labels_row, sid in zip(bundles, label_matrix, sample_ids):
        sid = int(sid)
        try:
            if method == "cshc":
                out = select_cshc(bundle, val_acc, labels_row)
            elif method == "rr":
                out = select_rr(bundle, labels_row, n_classes,
                                substream(seed, _STREAM["rr"], sid))
            elif method == "lp":
                out = select_lp(bundle, cm, labels_row, gamma, n_classes,
                                substream(seed, _STREAM["lp"], sid),
                                cache=cache)
            else:
                out = select_lpr(bundle, cm, labels_row, rho, gamma, n_classes,
                                 val_acc, substream(seed, _STREAM["rr"], sid),
                                 substream(seed, _STREAM["lp"], sid),
                                 cache=cache)
        except lp_mod.LpSolverError as exc:
            raise lp_mod.LpSolverError("sample %d: %s" % (sid, exc)) from exc
        outcomes.append(out)
    return outcomes
