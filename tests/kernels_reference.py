"""Per-column reference for the split search.

The program scores every column of every node of a level in one
segmented scan. This module keeps the plain scan of one node, one column
at a time, as the oracle the kernel tests compare each segment of a
level, and a lone cluster scanned by `one_segment`, with bit for bit.
"""

import numpy as np

NO_SPLIT = (-1.0, -1, np.nan)


def one_segment(split, vals, *args):
    """split (`kernels.best_split` or `kernels.gini_split`) of vals and
    its other arguments args as one segment, each column stably
    argsorted: (gain, column, threshold), or ``NO_SPLIT``."""
    order = np.argsort(vals, axis=0, kind="stable")
    gain, col, thr = split(vals, *args, order, np.zeros(1, dtype=np.int64))
    if col[0] < 0:
        return NO_SPLIT
    return float(gain[0]), int(col[0]), float(thr[0])


def best_split(vals, wcorrect, mult, min_size):
    """Best cost-sensitive split of a weighted cluster.

    vals     : (S, F) feature values of the cluster members
    wcorrect : (S, n) multiplicity-weighted correct indicators per classifier
    mult     : (S,) member multiplicities
    min_size : minimum total multiplicity allowed in each child

    Returns (gain, column, threshold); gain is the increase of
    max-per-child correct counts over the parent's single best count.
    Returns ``NO_SPLIT`` when no candidate leaves both children valid.
    """
    total_wc = wcorrect.sum(axis=0)
    total_m = float(mult.sum())
    parent_best = total_wc.max()
    best_gain, best_col, best_thr = NO_SPLIT
    for j in range(vals.shape[1]):
        order = np.argsort(vals[:, j], kind="stable")
        v = vals[order, j]
        cuts = np.nonzero(v[:-1] < v[1:])[0]
        if cuts.size == 0:
            continue
        cum_m = np.cumsum(mult[order])
        ok = (cum_m[cuts] >= min_size) & (total_m - cum_m[cuts] >= min_size)
        cuts = cuts[ok]
        if cuts.size == 0:
            continue
        cum_wc = np.cumsum(wcorrect[order], axis=0)
        left_best = cum_wc[cuts].max(axis=1)
        right_best = (total_wc - cum_wc[cuts]).max(axis=1)
        gains = left_best + right_best - parent_best
        i = int(np.argmax(gains))  # first max -> lowest threshold
        if gains[i] > best_gain:
            best_gain = float(gains[i])
            best_col = j
            best_thr = 0.5 * (v[cuts[i]] + v[cuts[i] + 1])
    return best_gain, best_col, best_thr


def gini_split(vals, labels, n_classes):
    """Best Gini split of an unweighted cluster.

    Maximizes sum over children of (sum_k count_k^2) / child_size, which
    is equivalent to minimizing the size-weighted Gini impurity. Returns
    (score_gain, column, threshold) with score_gain relative to the
    unsplit node, or ``NO_SPLIT``.
    """
    S = vals.shape[0]
    onehot = np.zeros((S, n_classes))
    onehot[np.arange(S), labels] = 1.0
    total = onehot.sum(axis=0)
    parent_score = float((total ** 2).sum()) / S
    best_gain, best_col, best_thr = NO_SPLIT
    for j in range(vals.shape[1]):
        order = np.argsort(vals[:, j], kind="stable")
        v = vals[order, j]
        cuts = np.nonzero(v[:-1] < v[1:])[0]
        if cuts.size == 0:
            continue
        cum = np.cumsum(onehot[order], axis=0)
        nl = (cuts + 1).astype(float)
        left = (cum[cuts] ** 2).sum(axis=1) / nl
        right = ((total - cum[cuts]) ** 2).sum(axis=1) / (S - nl)
        gains = left + right - parent_score
        i = int(np.argmax(gains))
        if gains[i] > best_gain:
            best_gain = float(gains[i])
            best_col = j
            best_thr = 0.5 * (v[cuts[i]] + v[cuts[i] + 1])
    return best_gain, best_col, best_thr
