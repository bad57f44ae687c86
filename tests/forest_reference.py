"""Eager references for the forest query and the tree growers.

The program grows both kinds of tree level by level, a group of trees at
a time, with one segmented split scan per level. `grow_tree` and
`gini_tree` below grow one tree node by node instead, each from a FIFO
queue of clusters, over the per-column scans of `kernels_reference`;
they number the nodes in the order they leave the queue and set each
split's children as they queue them, so the grower tests compare the
program's trees, and the children `kernels.layout` derives, with them
array for array. `grow_group` lays the trees `grow_tree` grows one at a
time and their leaves out as `forest.grow_group` does.

The program derives per-leaf correct counts, ranks and class support
from the leaf members in one pass per forest, gathers a query batch's
cumulative ranks and dominant classes from those tables as arrays, and
builds a query's member union only when its LP is solved. This module is
the independent oracle the query tests compare it with: `leaf_tables`
sums each leaf's members on its own, the way the grower did before the
tables existed, and `reference_bundle` walks each tree node by node and
builds every bundle on its own from the hit leaves' members
(`leaf_bundle`), ranking the counts per query. `split_gain` scores one
split of a weighted cluster from its definition.
"""

from collections import deque
from types import SimpleNamespace

import numpy as np
from scipy.stats import rankdata

import kernels_reference
from cshc.forest import Tree


def walk(tree, x):
    """Leaf reached by x, following the split thresholds from the root
    (values equal to a threshold go left)."""
    node = 0
    while tree.left[node] >= 0:
        if x[tree.feat[node]] <= tree.thr[node]:
            node = tree.left[node]
        else:
            node = tree.right[node]
    return int(tree.leaf_id[node])


def n_leaves(tree):
    return int((tree.feat < 0).sum())


def first_leaves(forest):
    """The row of each tree's first leaf in the forest's leaf table,
    which follows the leaves of the trees before it."""
    return np.cumsum([0] + [n_leaves(tree) for tree in forest.trees])


def members(forest, t, lid, first=None):
    """(rows, mult) of leaf lid of tree t, a row of the forest's leaf
    table; first is `first_leaves(forest)`, computed when not given."""
    first = first_leaves(forest) if first is None else first
    leaf = first[t] + lid
    a, b = forest.leaf_ptr[leaf], forest.leaf_ptr[leaf + 1]
    return forest.leaf_rows[a:b], forest.leaf_mult[a:b]


def member_counts(rows, mult, cm):
    """Multiplicity-weighted correct counts (n,) of one leaf's members."""
    return (mult[:, None] * cm.correct[rows].astype(np.float64)).sum(axis=0)


def leaf_tables(forest):
    """(leaf_counts, leaf_rank, leaf_support) of every leaf of every tree,
    one leaf at a time."""
    cm, first = forest.cm, first_leaves(forest)
    counts, support = [], []
    for t, tree in enumerate(forest.trees):
        for lid in range(n_leaves(tree)):
            rows, mult = members(forest, t, lid, first)
            counts.append(member_counts(rows, mult, cm))
            support.append(np.bincount(cm.truth[rows], weights=mult,
                                       minlength=cm.n_classes))
    counts = np.vstack(counts)
    return counts, rankdata(counts, method="average", axis=1), \
        np.vstack(support)


def reference_bundle(forest, x):
    """Everything the program's bundle for x exposes, built eagerly."""
    return leaf_bundle(forest, [walk(tree, x) for tree in forest.trees])


def leaf_bundle(forest, leaf_ids):
    """Everything the program's bundle of a query that hits the leaves
    leaf_ids, one per tree, exposes, built eagerly."""
    cm, first = forest.cm, first_leaves(forest)
    row_parts, mult_parts, leaf_counts = [], [], []
    for t, lid in enumerate(leaf_ids):
        rows, mult = members(forest, t, lid, first)
        row_parts.append(rows)
        mult_parts.append(mult)
        leaf_counts.append(member_counts(rows, mult, cm))
    mult = np.bincount(np.concatenate(row_parts),
                       weights=np.concatenate(mult_parts),
                       minlength=cm.n_samples)
    rows = np.flatnonzero(mult)
    mult = mult[rows]
    class_support = np.bincount(cm.truth[rows], weights=mult)
    leaf_counts = np.array(leaf_counts)
    tree_ranks = rankdata(leaf_counts, method="average", axis=1)
    return SimpleNamespace(
        tree_leaf_ids=np.asarray(leaf_ids, dtype=np.int64),
        leaf_counts=leaf_counts,
        tree_ranks=tree_ranks,
        cumulative_rank=tree_ranks.sum(axis=0),
        rows=rows,
        mult=mult,
        dominant_true_class=int(np.argmax(class_support)))


def split_gain(member_rows, member_mult, feature, threshold, correct, features):
    """Gain of splitting a weighted cluster at (feature, threshold).

    Returns None for one-sided splits. Counts are multiplicity-weighted.
    """
    member_rows = np.asarray(member_rows, dtype=np.int64)
    mult = np.asarray(member_mult, dtype=np.float64)
    go_left = features[member_rows, feature] <= threshold
    if go_left.all() or not go_left.any():
        return None
    wc = mult[:, None] * correct[member_rows]
    total = wc.sum(axis=0)
    left = wc[go_left].sum(axis=0)
    return float(left.max() + (total - left).max() - total.max())


def grow_tree(rows, mult, cfg, correct, features, allowed):
    """Partition the weighted cluster (rows, mult) into a Tree, one
    cluster of a FIFO queue at a time. Returns (tree, leaf_ptr,
    leaf_rows, leaf_mult): the Tree and its leaves' members, leaf l's
    being leaf_rows/leaf_mult[leaf_ptr[l]:leaf_ptr[l + 1]].

    A node becomes a leaf when the depth limit is reached, no candidate
    split keeps both children at min_cluster_size, the parent's best
    count is already unbeatable (zero), or the best gain falls below
    min_improvement * parent best count. The Tree's left, right and
    leaf_id are the queue's, not derived from feat.
    """
    feat, thr, left, right, leaf_id = [], [], [], [], []
    leaves = []  # (rows, mult) per leaf, in node order
    queue = deque([(np.asarray(rows, dtype=np.int64),
                    np.asarray(mult, dtype=np.float64), 0)])
    while queue:
        rows, mult, depth = queue.popleft()
        i = len(feat)
        for a, v in zip((feat, thr, left, right, leaf_id),
                        (-1, 0.0, -1, -1, -1)):
            a.append(v)
        wc = mult[:, None] * correct[rows]
        parent_best = wc.sum(axis=0).max()
        if depth < cfg.max_depth and parent_best != 0.0:
            vals = np.ascontiguousarray(features[rows][:, allowed])
            gain, col, t = kernels_reference.best_split(
                vals, np.ascontiguousarray(wc), mult,
                float(cfg.min_cluster_size))
            if col >= 0 and gain >= cfg.min_improvement * parent_best:
                feat[i], thr[i] = int(allowed[col]), float(t)
                left[i], right[i] = i + 1 + len(queue), i + 2 + len(queue)
                go_left = features[rows, feat[i]] <= t
                queue.append((rows[go_left], mult[go_left], depth + 1))
                queue.append((rows[~go_left], mult[~go_left], depth + 1))
                continue
        leaf_id[i] = len(leaves)
        leaves.append((rows, mult))
    sizes = [r.size for r, _ in leaves]
    tree = Tree(feat=np.asarray(feat, dtype=np.int64),
                thr=np.asarray(thr, dtype=np.float64))
    tree.left, tree.right, tree.leaf_id = (
        np.asarray(a, dtype=np.int64) for a in (left, right, leaf_id))
    return (tree,
            np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64),
            np.concatenate([r for r, _ in leaves]),
            np.concatenate([m for _, m in leaves]))


def grow_group(draws, cfg, correct, features):
    """What `forest.grow_group` returns for the draws (rows, mult,
    allowed), grown one tree at a time by `grow_tree`: the trees, and
    their leaves one tree after another."""
    trees, ptrs, rows, mult = zip(*[
        grow_tree(r, m, cfg, correct, features, a) for r, m, a in draws])
    sizes = np.concatenate([np.diff(ptr) for ptr in ptrs])
    return (list(trees), np.concatenate([[0], np.cumsum(sizes)]),
            np.concatenate(rows), np.concatenate(mult))


def gini_tree(Z, y, C):
    """(feat, thr, left, right, leaf_id, leaf_proba) of the unpruned Gini
    tree over the rows of Z with labels y in [0, C), grown from a FIFO
    queue of clusters."""
    feat, thr, left, right, leaf_id = [], [], [], [], []
    leaf_proba = []
    queue = deque([np.arange(Z.shape[0])])
    while queue:
        rows = queue.popleft()
        i = len(feat)
        for a, v in zip((feat, thr, left, right, leaf_id),
                        (-1, 0.0, -1, -1, -1)):
            a.append(v)
        counts = np.bincount(y[rows], minlength=C).astype(float)
        if counts.max() < rows.size:  # impure: split whenever possible
            gain, col, t = kernels_reference.gini_split(Z[rows], y[rows], C)
            if col >= 0:
                feat[i], thr[i] = int(col), float(t)
                left[i], right[i] = i + 1 + len(queue), i + 2 + len(queue)
                mask = Z[rows, col] <= t
                queue.append(rows[mask])
                queue.append(rows[~mask])
                continue
        leaf_id[i] = len(leaf_proba)
        leaf_proba.append(counts / counts.sum())
    return (np.asarray(feat, dtype=np.int64), np.asarray(thr),
            np.asarray(left, dtype=np.int64), np.asarray(right, dtype=np.int64),
            np.asarray(leaf_id, dtype=np.int64), np.vstack(leaf_proba))
