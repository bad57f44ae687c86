"""Neighborhood-based competitor methods over batched kNN regions.

All scoring consults only the DCS training partition (via the
correctness matrix), the queries' features and the classifiers'
test-time labels; test truth never enters. Regions use exact Euclidean
nearest neighbors on standardized features, distance ties broken by
the lower sample index: `region_of` takes them from `kernels.nearest`,
the kNN kernel the 1-NN classifier shares, whose bits equal a plain
one-query distance scan's.

Every function works on a batch of Q queries: a region is a row of the
(Q, k) neighbor and distance arrays from `region_of`, query labels are
(Q, n), competence scorers return (Q, n) scores and the votes end in
per-query (winner, rep) arrays.
"""

import warnings

import numpy as np

from . import kernels


def region_of(queries, k, pool):
    """The k nearest pool rows of every query.

    Returns (Q, k) neighbor indices and distances, by ascending distance
    and then pool index, as `kernels.nearest` finds them; a k above the
    pool size is clamped with a warning.
    """
    queries = np.asarray(queries, dtype=np.float64)
    N = pool.shape[0]
    if k > N:
        warnings.warn("k=%d exceeds pool of %d samples; clamping" % (k, N))
        k = N
    if k < 1:
        raise ValueError("k must be >= 1")
    neighbors, d2 = kernels.nearest(queries, k, pool)
    return neighbors, np.sqrt(d2)


def _p_true(neighbors, cm):
    """(Q, k, n) probability each classifier gave each neighbor's truth."""
    n = cm.n_classifiers
    return cm.proba[neighbors[:, :, None], np.arange(n),
                    cm.truth[neighbors][:, :, None]]


def _class_match(neighbors, cm, query_labels):
    """(Q, k, n): the neighbor's true class is the classifier's label."""
    return cm.truth[neighbors][:, :, None] == \
        np.asarray(query_labels)[:, None, :]


def _masked_mean(values, mask, weights=None):
    """Mean of (Q, k, n) values over the masked neighbors, optionally
    weighted by (Q, k) weights; an empty mask scores 0."""
    if weights is not None:
        values = values * weights[:, :, None]
        den = np.where(mask, weights[:, :, None], 0.0).sum(axis=1)
    else:
        den = mask.sum(axis=1)
    num = np.where(mask, values, 0).sum(axis=1)
    return np.divide(num, den, out=np.zeros(num.shape), where=mask.any(axis=1))


def _inverse_distance(distances):
    return 1.0 / (distances + 1e-12)


def ola(neighbors, cm):
    """Mean correctness of each classifier over the region."""
    return cm.correct[neighbors].mean(axis=1)


def lca(neighbors, cm, query_labels):
    """Accuracy restricted to region samples of the class each
    classifier predicts for the query; empty restriction scores 0."""
    return _masked_mean(cm.correct[neighbors],
                        _class_match(neighbors, cm, query_labels))


def apriori(neighbors, cm, distances=None):
    """Mean probability assigned to each neighbor's true class; given
    the region's distances, weighted by their inverse."""
    p_true = _p_true(neighbors, cm)
    if distances is not None:
        w = _inverse_distance(distances)
        return (p_true * w[:, :, None]).sum(axis=1) / w.sum(axis=1)[:, None]
    return p_true.mean(axis=1)


def aposteriori(neighbors, cm, query_labels, distances=None):
    """Like apriori but averaged only over neighbors whose true class
    matches the classifier's query prediction."""
    return _masked_mean(
        _p_true(neighbors, cm), _class_match(neighbors, cm, query_labels),
        None if distances is None else _inverse_distance(distances))


def mcb(neighbors, cm, query_labels, similarity_threshold):
    """OLA over the neighbors whose output profile resembles the query's.

    A profile is the vector of all classifiers' predictions; similarity
    is the fraction of agreeing positions. An empty filtered region
    falls back to the full one.
    """
    profiles = cm.predicted[neighbors]
    sim = (profiles == np.asarray(query_labels)[:, None, :]).mean(axis=2)
    keep = sim >= similarity_threshold
    keep[~keep.any(axis=1)] = True
    return _masked_mean(cm.correct[neighbors], keep[:, :, None])


def _plurality(labels, weights, n_classes):
    """Weighted class vote of every query: (winner, rep) arrays.

    Class ties go to the lower class index; rep is the winning class's
    heaviest voter, the lower classifier index among equal weights.
    """
    onehot = labels[:, :, None] == np.arange(n_classes)
    support = (onehot * weights[:, :, None]).sum(axis=1)
    winner = support.argmax(axis=1)
    voters = labels == winner[:, None]
    rep = np.where(voters, weights, -1.0).argmax(axis=1)
    return winner, rep


def knora_e(neighbors, cm, query_labels, n_classes):
    """Shrink the region until some classifier is perfect on it; those
    classifiers vote with equal weight. Returns (committee, class, rep),
    the committee a (Q, n) mask.

    The largest perfect prefix is the longest run of correct answers
    from the nearest neighbor; no run at all puts every classifier in
    the committee.
    """
    run = np.cumprod(cm.correct[neighbors], axis=1).sum(axis=1)
    committee = run == run.max(axis=1, keepdims=True)
    winner, rep = _plurality(np.asarray(query_labels), committee * 1.0,
                             n_classes)
    return committee, winner, rep


def knora_u(neighbors, cm, query_labels, n_classes):
    """Correct-count weighted vote; all-zero counts fall back to an
    unweighted vote of the whole pool. Returns (weights, class, rep)."""
    weights = cm.correct[neighbors].sum(axis=1).astype(np.float64)
    weights[~weights.any(axis=1)] = 1.0
    winner, rep = _plurality(np.asarray(query_labels), weights, n_classes)
    return weights, winner, rep


def majority_vote(query_labels, n_classes):
    """Unweighted plurality; returns (class, lowest-index voter)."""
    labels = np.asarray(query_labels)
    return _plurality(labels, np.ones(labels.shape), n_classes)
