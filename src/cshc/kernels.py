"""Hot numeric kernels and the tree layout they share.

The split search scores every candidate cut of every column of a node in
one vectorized scan. Its conventions:
  - a sample is routed left iff its feature value <= threshold
  - candidate thresholds are midpoints between consecutive distinct values
  - ties are broken by lowest feature column, then lowest threshold

Both kinds of tree, the CSHC forest's and the Gini base classifier's, are
flat node arrays (feat, thr, left, right, leaf_id) in preorder: node,
left subtree, right subtree. This module owns that layout: `grow` writes
it, `route` reads it and `check_tree` validates it on load.
"""

import numpy as np

from .data import DataError

NO_SPLIT = (-1.0, -1, np.nan)


def _scan(vals, Y, mult, min_size, gain):
    """Best cut over all columns of a cluster: (gain, column, threshold)
    of the first maximum in column-major order, or ``NO_SPLIT``.

    A cut after a sorted position must separate distinct values and leave
    both children at least min_size of the weights mult (S,).
    gain(cum, cum_m) scores every cut from the left child's sums of Y
    (S, m), cum (S - 1, F, m), and of mult, cum_m (S - 1, F).
    """
    S = vals.shape[0]
    order = np.argsort(vals, axis=0, kind="stable")
    v = np.take_along_axis(vals, order, axis=0)
    cum = np.cumsum(Y[order], axis=0)[:-1]
    cum_m = np.cumsum(mult[order], axis=0)[:-1]
    total_m = float(mult.sum())
    ok = (v[:-1] < v[1:]) & (cum_m >= min_size) & (total_m - cum_m >= min_size)
    if not ok.any():
        return NO_SPLIT
    gains = np.where(ok, gain(cum, cum_m), -np.inf).T
    col, cut = divmod(int(np.argmax(gains)), S - 1)
    return float(gains[col, cut]), col, 0.5 * (v[cut, col] + v[cut + 1, col])


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
    total = wcorrect.sum(axis=0)
    parent_best = total.max()
    return _scan(vals, wcorrect, mult, min_size, lambda cum, _: (
        cum.max(axis=2) + (total - cum).max(axis=2) - parent_best))


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
    return _scan(vals, onehot, np.ones(S), 0.0, lambda cum, nl: (
        (cum ** 2).sum(axis=2) / nl
        + ((total - cum) ** 2).sum(axis=2) / (S - nl) - parent_score))


def grow(root, split):
    """Grow a tree depth first from the item root into flat node arrays.

    split(item, depth) returns None to make the item a leaf, else
    (feature, threshold, left_item, right_item). Returns the arrays
    (feat, thr, left, right, leaf_id) in preorder and the leaf items in
    leaf order. The stack pops a left child right after its parent.
    """
    nodes, leaves = [], []  # [feat, thr, left, right, leaf_id] per node
    stack = [(root, 0, -1)]  # (item, depth, parent if a right child)
    while stack:
        item, depth, parent = stack.pop()
        i = len(nodes)
        if parent >= 0:
            nodes[parent][3] = i
        cut = split(item, depth)
        if cut is None:
            nodes.append([-1, 0.0, -1, -1, len(leaves)])
            leaves.append(item)
        else:
            nodes.append([cut[0], cut[1], i + 1, -1, -1])
            stack += [(cut[3], depth + 1, i), (cut[2], depth + 1, -1)]
    feat, thr, left, right, leaf_id = zip(*nodes)
    return (np.array(feat), np.array(thr, dtype=np.float64), np.array(left),
            np.array(right), np.array(leaf_id)), leaves


def check_tree(feat, thr, left, right, leaf_id, n_features):
    """Raise DataError naming the field unless the arrays hold a tree in
    the layout `grow` writes; returns the number of leaves.

    Internal node i needs left i + 1, i + 1 < right < N, leaf_id -1 and
    feat in [0, n_features); leaves need children -1 and leaf ids
    0 .. L - 1 in node order. Children then always lie after their parent,
    so `route` ends at a leaf within N steps.
    """
    arrays = {"feat": feat, "thr": thr, "left": left, "right": right,
              "leaf_id": leaf_id}
    N = max(feat.size, 1)
    for name, arr in arrays.items():
        if arr.shape != (N,):
            raise DataError("has %r of shape %s, not (%d,)"
                            % (name, arr.shape, N))
    node = np.arange(N)
    internal = left >= 0
    bad = {
        "left": left != np.where(internal, node + 1, -1),
        "right": np.where(internal, (right <= node + 1) | (right >= N),
                          right != -1),
        "feat": internal & ((feat < 0) | (feat >= n_features)),
        "leaf_id": leaf_id != np.where(internal, -1,
                                       np.cumsum(~internal) - 1),
    }
    for name, mask in bad.items():
        if mask.any():
            i = int(np.argmax(mask))
            raise DataError("has %r %d at node %d"
                            % (name, arrays[name][i], i))
    return int(N - internal.sum())


def route(feat, thr, left, right, leaf_id, X):
    """Route the rows of X through a tree's flat node arrays; returns leaf ids.

    Internal nodes have left >= 0; leaves carry leaf_id >= 0.
    """
    node = np.zeros(X.shape[0], dtype=np.int64)
    rows = np.nonzero(left[node] >= 0)[0]
    while rows.size:
        nd = node[rows]
        go_left = X[rows, feat[nd]] <= thr[nd]
        nxt = np.where(go_left, left[nd], right[nd])
        node[rows] = nxt
        rows = rows[left[nxt] >= 0]
    return leaf_id[node]
