"""Eager reference for the forest query.

The program gathers a query's cumulative rank and dominant class from
per-leaf tables it builds once per forest, and builds the member union
only when it is read. This module is the independent oracle the query
tests compare it with: it walks each tree node by node and builds every
bundle on its own from the hit leaves' members and counts, ranking the
counts per query, the way the program did before the tables existed.
"""

from types import SimpleNamespace

import numpy as np
from scipy.stats import rankdata


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


def reference_bundle(forest, x):
    """Everything the program's bundle for x exposes, built eagerly."""
    leaf_ids = [walk(tree, x) for tree in forest.trees]
    row_parts, mult_parts, leaf_counts = [], [], []
    for tree, lid in zip(forest.trees, leaf_ids):
        rows, mult = tree.members(lid)
        row_parts.append(rows)
        mult_parts.append(mult)
        leaf_counts.append(tree.leaf_counts[lid])
    mult = np.bincount(np.concatenate(row_parts),
                       weights=np.concatenate(mult_parts),
                       minlength=forest.n_rows)
    rows = np.flatnonzero(mult)
    mult = mult[rows]
    class_support = np.bincount(forest.truth[rows], weights=mult)
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
