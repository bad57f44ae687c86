"""Per-query neighborhood baselines: the oracle for `cshc.baselines`.

The plain one-query-at-a-time implementation: a full distance vector and
a stable argsort per query, and each scorer over one `Region`. The
batched kernel and scorers must choose exactly as these do.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from selection_reference import SelectionOutcome


@dataclass
class Region:
    neighbors: np.ndarray  # ascending distance, then index
    k: int
    distances: np.ndarray = None
    squared: np.ndarray = None  # the squared distances the scan sums


def region_of(x, k, dcs_features):
    if k > dcs_features.shape[0]:
        warnings.warn("k=%d exceeds pool of %d samples; clamping"
                      % (k, dcs_features.shape[0]))
        k = dcs_features.shape[0]
    if k < 1:
        raise ValueError("k must be >= 1")
    d2 = ((dcs_features - x) ** 2).sum(axis=1)
    order = np.argsort(d2, kind="stable")[:k]
    return Region(neighbors=order, k=k, distances=np.sqrt(d2[order]),
                  squared=d2[order])


def ola(region, cm):
    """Mean correctness of each classifier over the region."""
    return cm.correct[region.neighbors].mean(axis=0)


def lca(region, cm, query_labels):
    """Accuracy restricted to region samples of the class each
    classifier predicts for the query; empty restriction scores 0."""
    truth = cm.truth[region.neighbors]
    correct = cm.correct[region.neighbors]
    scores = np.zeros(cm.n_classifiers)
    for a in range(cm.n_classifiers):
        mask = truth == query_labels[a]
        if mask.any():
            scores[a] = correct[mask, a].mean()
    return scores


def apriori(region, cm, distance_weighting=False):
    """Mean probability assigned to each neighbor's true class."""
    p_true = cm.proba[region.neighbors, :, cm.truth[region.neighbors]]
    if distance_weighting:
        w = 1.0 / (region.distances + 1e-12)
        return (p_true * w[:, None]).sum(axis=0) / w.sum()
    return p_true.mean(axis=0)


def aposteriori(region, cm, query_labels, distance_weighting=False):
    """Like apriori but averaged only over neighbors whose true class
    matches the classifier's query prediction."""
    truth = cm.truth[region.neighbors]
    p_true = cm.proba[region.neighbors, :, truth]
    scores = np.zeros(cm.n_classifiers)
    for a in range(cm.n_classifiers):
        mask = truth == query_labels[a]
        if not mask.any():
            continue
        if distance_weighting:
            w = 1.0 / (region.distances[mask] + 1e-12)
            scores[a] = (p_true[mask, a] * w).sum() / w.sum()
        else:
            scores[a] = p_true[mask, a].mean()
    return scores


def mcb(region, cm, query_labels, similarity_threshold):
    """OLA over the neighbors whose output profile resembles the query's.

    A profile is the vector of all classifiers' predictions; similarity
    is the fraction of agreeing positions. An empty filtered region
    falls back to the full one.
    """
    profiles = cm.predicted[region.neighbors]
    sim = (profiles == np.asarray(query_labels)).mean(axis=1)
    keep = sim >= similarity_threshold
    if not keep.any():
        keep = np.ones(len(region.neighbors), dtype=bool)
    return cm.correct[region.neighbors[keep]].mean(axis=0)


def _plurality(labels, weights, n_classes):
    support = np.bincount(labels, weights=weights, minlength=n_classes)
    return int(np.argmax(support)), support


def knora_e(region, cm, query_labels, n_classes):
    """Shrink the region until some classifier is perfect on it; those
    classifiers vote with equal weight. Returns (committee, class, rep).
    """
    committee = None
    for kk in range(region.k, 0, -1):
        sub = region.neighbors[:kk]
        perfect = np.nonzero(cm.correct[sub].min(axis=0) == 1)[0]
        if perfect.size:
            committee = perfect
            break
    if committee is None:
        committee = np.arange(cm.n_classifiers)
    labels = np.asarray(query_labels)[committee]
    winner, _ = _plurality(labels, np.ones(committee.size), n_classes)
    rep = int(committee[labels == winner][0])
    return committee, winner, rep


def knora_u(region, cm, query_labels, n_classes):
    """Correct-count weighted vote; all-zero counts fall back to an
    unweighted vote of the whole pool. Returns (weights, class, rep)."""
    weights = cm.correct[region.neighbors].sum(axis=0).astype(np.float64)
    if not weights.any():
        weights = np.ones(cm.n_classifiers)
    labels = np.asarray(query_labels)
    winner, _ = _plurality(labels, weights, n_classes)
    voters = np.nonzero(labels == winner)[0]
    rep = int(voters[np.argmax(weights[voters])])
    return weights, winner, rep


def majority_vote(query_labels, n_classes):
    """Unweighted plurality; returns (class, lowest-index voter)."""
    labels = np.asarray(query_labels)
    winner, _ = _plurality(labels, np.ones(labels.size), n_classes)
    rep = int(np.nonzero(labels == winner)[0][0])
    return winner, rep


def _competence_outcome(method, scores, labels_row):
    chosen = int(np.argmax(scores))
    return SelectionOutcome(chosen, int(labels_row[chosen]), method, 0.0, False)


def evaluate_baseline(prep, method):
    """(chosen, predicted) arrays of one baseline, query by query, under
    prep.cfg."""
    C, cfg = prep.ds.n_classes, prep.cfg
    outcomes = []
    for x, labels_row in zip(prep.test_std, prep.test_labels):
        region = region_of(x, cfg.knn_k, prep.dsel_std)
        if method == "ola":
            out = _competence_outcome(method, ola(region, prep.cm), labels_row)
        elif method == "lca":
            out = _competence_outcome(method, lca(region, prep.cm, labels_row),
                                      labels_row)
        elif method == "apr":
            out = _competence_outcome(
                method, apriori(region, prep.cm, cfg.apr_distance_weighting),
                labels_row)
        elif method == "apo":
            out = _competence_outcome(
                method,
                aposteriori(region, prep.cm, labels_row,
                            cfg.apr_distance_weighting),
                labels_row)
        elif method == "mcb":
            out = _competence_outcome(
                method, mcb(region, prep.cm, labels_row, cfg.mcb_similarity),
                labels_row)
        elif method == "knora_e":
            _, winner, rep = knora_e(region, prep.cm, labels_row, C)
            out = SelectionOutcome(rep, winner, method, 0.0, False)
        elif method == "knora_u":
            _, winner, rep = knora_u(region, prep.cm, labels_row, C)
            out = SelectionOutcome(rep, winner, method, 0.0, False)
        else:
            winner, rep = majority_vote(labels_row, C)
            out = SelectionOutcome(rep, winner, method, 0.0, False)
        outcomes.append(out)
    return (np.array([o.chosen_classifier for o in outcomes]),
            np.array([o.predicted_class for o in outcomes]))


def baseline_choice(prep, method):
    """The chosen classifiers of `evaluate_baseline`, as
    `harness._baseline_choice` returns them."""
    return evaluate_baseline(prep, method)[0]
