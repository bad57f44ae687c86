"""Cost-sensitive hierarchical clustering: forest build and query.

Trees recursively split the validation samples so that each partition
agrees on a single best classifier; the splitting score is the gain in
max-per-child correct counts over the parent. Ensembling mirrors a
random forest: per-tree bootstrap multisets and feature subsets, both
derived from keyed substreams of one seed.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .data import CorrectnessMatrix
from .rng import substream

# the most bytes of one float64 level array (members x classifiers x
# feature subset) of a group of trees grown together; the arrays of a
# level pass are a few times this
GROUP_BYTES = 1 << 20


def feature_subset_size(n_features):
    """round(2 * sqrt(F)), half rounded up, capped at F."""
    return min(n_features, int(math.floor(2.0 * math.sqrt(n_features) + 0.5)))


def bootstrap_draws(n_rows, fraction):
    """Number of with-replacement draws: ceil(fraction * rows)."""
    return max(1, int(math.ceil(fraction * n_rows - 1e-9)))


@dataclass
class Tree:
    """One tree's nodes in level order, in the layout of `kernels`: its
    children and leaf ids, left, right and leaf_id, are derived from feat
    and never stored. Its leaves' members are in its `Forest`'s table."""

    feat: np.ndarray  # (N,) split feature per node, -1 at a leaf
    thr: np.ndarray   # (N,) split threshold per node

    def __post_init__(self):
        self.left, self.right, self.leaf_id = kernels.layout(self.feat)


@dataclass
class Forest:
    """The tree ensemble over the rows of a correctness matrix.

    The leaves of all trees come one after another, tree t's from leaf
    leaf_base[t] on. Leaf l holds the member rows and multiplicities
    leaf_rows/leaf_mult[leaf_ptr[l]:leaf_ptr[l + 1]], one member or
    more; a tree's leaves together hold its bootstrap draw. leaf_counts
    holds each leaf's member multiplicities summed over the rows each
    classifier got right, leaf_rank the classifiers' ranks within the
    leaf and leaf_support the multiplicities summed by validation truth.
    They are computed on construction and never serialized; the sums are
    of whole numbers, so they are exact in any order.
    """

    trees: list
    leaf_ptr: np.ndarray   # (L + 1,) offsets into leaf_rows/leaf_mult
    leaf_rows: np.ndarray  # (m,) member rows, grouped by leaf
    leaf_mult: np.ndarray  # (m,) member multiplicities, whole numbers >= 1
    cm: CorrectnessMatrix  # the validation rows the leaves' members index
    n_features: int
    leaf_base: np.ndarray = field(init=False, repr=False)     # (T,)
    leaf_counts: np.ndarray = field(init=False, repr=False)   # (L, n)
    leaf_rank: np.ndarray = field(init=False, repr=False)     # (L, n)
    leaf_support: np.ndarray = field(init=False, repr=False)  # (L, C)

    def __post_init__(self):
        cm, rows, mult = self.cm, self.leaf_rows, self.leaf_mult
        self.leaf_base = np.cumsum([0] + [int(tree.leaf_id.max()) + 1
                                          for tree in self.trees[:-1]])
        L = self.leaf_ptr.size - 1
        leaf_of = np.repeat(np.arange(L), np.diff(self.leaf_ptr))
        wc = mult[:, None] * cm.correct[rows]
        self.leaf_counts = np.column_stack(
            [np.bincount(leaf_of, weights=wc[:, a], minlength=L)
             for a in range(cm.n_classifiers)])
        # the best classifier of a leaf gets rank n, the worst rank 1
        self.leaf_rank = average_rank(self.leaf_counts, axis=1)
        C = cm.n_classes
        self.leaf_support = np.bincount(
            leaf_of * C + cm.truth[rows], weights=mult,
            minlength=L * C).reshape(-1, C)

    @property
    def n_trees(self):
        return len(self.trees)

    def member_union(self, leaf_ids):
        """(rows, mult) of the leaves leaf_ids (T,), one per tree: their
        distinct member rows, ascending, and the multiplicities summed
        over the trees."""
        # one bincount over the validation rows adds the multiplicities of
        # the hit leaves' rows of the table
        ptr = self.leaf_ptr
        hit = [slice(ptr[leaf], ptr[leaf + 1])
               for leaf in (leaf_ids + self.leaf_base).tolist()]
        rows, mult = (np.concatenate([a[s] for s in hit])
                      for a in (self.leaf_rows, self.leaf_mult))
        mult = np.bincount(rows, weights=mult, minlength=self.cm.n_samples)
        rows = np.flatnonzero(mult)
        return rows, mult[rows]


def average_rank(values, axis):
    """Ranks of values along axis, 1 for the smallest; tied values share
    the average of the ranks they span, as scipy's rankdata with method
    "average". The ranks are multiples of 0.5, so they are exact."""
    a = np.moveaxis(np.asarray(values, dtype=np.float64), axis, -1)
    order = np.argsort(a, axis=-1, kind="stable")
    s = np.take_along_axis(a, order, axis=-1)
    n = s.shape[-1]

    def run_start(s):  # the sorted position where each run of ties starts
        new = np.ones(s.shape, dtype=bool)
        new[..., 1:] = s[..., 1:] != s[..., :-1]
        return np.maximum.accumulate(np.where(new, np.arange(n), 0), axis=-1)
    # where each run ends: where it starts in the reversed order
    last = n - 1 - np.flip(run_start(np.flip(s, axis=-1)), axis=-1)
    ranks = np.empty_like(s)
    np.put_along_axis(ranks, order, (run_start(s) + last) / 2.0 + 1.0,
                      axis=-1)
    return np.moveaxis(ranks, -1, axis)


def grow_group(draws, cfg, correct, features):
    """Grow one Tree per draw (rows, mult, allowed), all together, with
    `kernels.grow` under the [cshc] limits of the ExperimentConfig cfg;
    returns the trees and their leaf table (leaf_ptr, leaf_rows,
    leaf_mult), laid out as a `Forest`'s.

    A node becomes a leaf when the depth limit is reached, no candidate
    split keeps both children at min_cluster_size, the parent's best
    count is already unbeatable (zero), or the best gain falls below
    min_improvement * parent best count. Each tree's rows are ascending,
    so its leaves list their members in ascending row order.
    """
    rows = np.concatenate([r for r, _, _ in draws])
    mult = np.concatenate([m for _, m, _ in draws])
    nodes, ptr, members = kernels.grow(
        np.concatenate([features[r][:, a] for r, _, a in draws]),
        [r.size for r, _, _ in draws], mult[:, None] * correct[rows], mult,
        (cfg.max_depth, float(cfg.min_cluster_size), cfg.min_improvement))
    return ([Tree(np.where(feat >= 0, allowed[feat], -1), thr)
             for (*_, allowed), (feat, thr) in zip(draws, nodes)],
            ptr, rows[members], mult[members])


def build_forest(cm, ds, cfg):
    """Build the tree ensemble from a correctness matrix over the rows of
    ds, with the [cshc] settings and the seed of the ExperimentConfig cfg.

    Tree t draws ceil(fraction * M) bootstrap rows and a feature subset
    of size round(2*sqrt(F)) from the substream keyed by (seed, t).
    Consecutive trees grow together while their level array (members x
    classifiers x feature subset, float64) stays within GROUP_BYTES; a
    tree larger than that grows alone.
    """
    if cm.n_classifiers < 2:
        raise ValueError("need at least 2 classifiers, got %d" % cm.n_classifiers)
    features = ds.features
    correct = cm.correct.astype(np.float64)
    M, F = features.shape
    k_feat = feature_subset_size(F)
    draws = bootstrap_draws(M, cfg.bootstrap_fraction)
    groups, size = [[]], 0
    for t in range(cfg.n_trees):
        rng = substream(cfg.seed, t)
        picks = rng.integers(0, M, size=draws)
        counts = np.bincount(picks, minlength=M)
        rows = np.nonzero(counts)[0]
        mult = counts[rows].astype(np.float64)
        allowed = np.sort(rng.choice(F, size=k_feat, replace=False))
        nbytes = 8 * rows.size * cm.n_classifiers * k_feat
        if groups[-1] and size + nbytes > GROUP_BYTES:
            groups.append([])
            size = 0
        groups[-1].append((rows, mult, allowed))
        size += nbytes
    trees, ptrs, rows, mult = zip(*[grow_group(group, cfg, correct, features)
                                    for group in groups])
    rows, mult = np.concatenate(rows), np.concatenate(mult)
    return Forest(sum(trees, []), np.cumsum(np.concatenate(
        [[0]] + [np.diff(ptr) for ptr in ptrs])), rows, mult, cm, F)


def query_batch(forest, X):
    """(leaf_ids, cumulative, dominant) of the rows of X: the (Q, T) leaf
    each row hits in each tree (boundary values route left), the (Q, n)
    within-leaf ranks of the classifiers summed over those leaves and the
    (Q,) class with the most member multiplicity in them.

    The ranks and class supports are gathered from the forest's per-leaf
    tables and summed tree by tree. Ranks are multiples of 0.5 and
    supports whole numbers, so the sums are exact in any order.
    """
    X = np.ascontiguousarray(np.atleast_2d(X), dtype=np.float64)
    if X.shape[1] != forest.n_features:
        raise ValueError("query has %d features, forest expects %d"
                         % (X.shape[1], forest.n_features))
    Q = X.shape[0]
    leaf_ids = np.empty((Q, forest.n_trees), dtype=np.int64)
    for t, tree in enumerate(forest.trees):
        leaf_ids[:, t] = kernels.route(tree.feat, tree.thr, tree.left,
                                       tree.right, tree.leaf_id, X)
    hit = leaf_ids + forest.leaf_base
    cumulative = np.zeros((Q, forest.leaf_rank.shape[1]))
    support = np.zeros((Q, forest.leaf_support.shape[1]))
    for t in range(forest.n_trees):
        cumulative += forest.leaf_rank[hit[:, t]]
        support += forest.leaf_support[hit[:, t]]
    return leaf_ids, cumulative, support.argmax(axis=1)
