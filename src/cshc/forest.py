"""Cost-sensitive hierarchical clustering: forest build and query.

Trees recursively split the validation samples so that each partition
agrees on a single best classifier; the splitting score is the gain in
max-per-child correct counts over the parent. Ensembling mirrors a
random forest: per-tree bootstrap multisets and feature subsets, both
derived from keyed substreams of one seed.
"""

import json
import math
from dataclasses import dataclass, fields

import numpy as np
from scipy.stats import rankdata

from . import kernels
from .data import DataError, open_input
from .rng import substream

FOREST_FORMAT = "cshc-forest/2"


@dataclass
class CshcConfig:
    n_trees: int = 50
    bootstrap_fraction: float = 0.8
    min_cluster_size: int = 2
    max_depth: int = 15
    min_improvement: float = 0.02
    seed: int = 0

    def __post_init__(self):
        if self.n_trees < 1:
            raise ValueError("n_trees must be >= 1")
        if not 0.0 < self.bootstrap_fraction <= 1.0:
            raise ValueError("bootstrap_fraction must be in (0, 1]")
        if self.min_cluster_size < 1:
            raise ValueError("min_cluster_size must be >= 1")
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if not 0.0 <= self.min_improvement < 1.0:
            raise ValueError("min_improvement must be in [0, 1)")

    def asdict(self):
        return {"n_trees": self.n_trees,
                "bootstrap_fraction": self.bootstrap_fraction,
                "min_cluster_size": self.min_cluster_size,
                "max_depth": self.max_depth,
                "min_improvement": self.min_improvement,
                "seed": self.seed}


def feature_subset_size(n_features):
    """round(2 * sqrt(F)), half rounded up, capped at F."""
    return min(n_features, int(math.floor(2.0 * math.sqrt(n_features) + 0.5)))


def bootstrap_draws(n_rows, fraction):
    """Number of with-replacement draws: ceil(fraction * rows)."""
    return max(1, int(math.ceil(fraction * n_rows - 1e-9)))


@dataclass
class Tree:
    """One tree as flat arrays, nodes and leaves numbered in preorder
    (node, left subtree, right subtree).

    Internal nodes have left/right >= 0 and leaf_id -1; leaves have
    left/right -1 and feat -1. Leaf l holds the member rows and
    multiplicities leaf_rows/leaf_mult[leaf_ptr[l]:leaf_ptr[l + 1]] and
    the weighted correct counts leaf_counts[l].
    """

    feature_subset: np.ndarray  # (k,) features the tree may split on
    bootstrap_rows: np.ndarray  # (m,) distinct rows of the bootstrap draw
    bootstrap_mult: np.ndarray  # (m,) their multiplicities
    feat: np.ndarray            # (N,) split feature per node
    thr: np.ndarray             # (N,) split threshold per node
    left: np.ndarray            # (N,) left child per node
    right: np.ndarray           # (N,) right child per node
    leaf_id: np.ndarray         # (N,) leaf index per node
    leaf_ptr: np.ndarray        # (L + 1,) offsets into leaf_rows/leaf_mult
    leaf_rows: np.ndarray       # (m,) member rows, grouped by leaf
    leaf_mult: np.ndarray       # (m,) member multiplicities
    leaf_counts: np.ndarray     # (L, n) weighted correct counts per leaf

    def members(self, leaf):
        """(rows, mult) of one leaf's members."""
        a, b = self.leaf_ptr[leaf], self.leaf_ptr[leaf + 1]
        return self.leaf_rows[a:b], self.leaf_mult[a:b]


# Tree fields holding integers; the others hold float64
_INT_FIELDS = {"feature_subset", "bootstrap_rows", "feat", "left", "right",
               "leaf_id", "leaf_ptr", "leaf_rows"}


@dataclass
class Forest:
    trees: list
    config: CshcConfig
    n_classifiers: int
    truth: np.ndarray  # validation truth per correctness-matrix row
    n_rows: int
    n_features: int

    @property
    def n_trees(self):
        return len(self.trees)


@dataclass
class LeafBundle:
    """Per-tree leaves hit by one query point, plus their aggregation."""

    tree_leaf_ids: np.ndarray  # (T,)
    leaf_counts: np.ndarray    # (T, n) correct counts in each hit leaf
    rows: np.ndarray           # (k,) unique member rows, ascending
    mult: np.ndarray           # (k,) summed multiplicities
    dominant_true_class: int


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
    """Recursively partition the weighted cluster (rows, mult) into a Tree.

    A node becomes a leaf when the depth limit is reached, no candidate
    split keeps both children at min_cluster_size, the parent's best
    count is already unbeatable (zero), or the best gain falls below
    min_improvement * parent best count.
    """
    rows = np.asarray(rows, dtype=np.int64)
    mult = np.asarray(mult, dtype=np.float64)
    nodes = []   # [feat, thr, left, right, leaf_id] per node, in preorder
    leaves = []  # (rows, mult, counts) per leaf, in preorder

    def grow(rows, mult, depth):
        i = len(nodes)
        nodes.append([-1, 0.0, -1, -1, -1])
        wc = mult[:, None] * correct[rows]
        counts = wc.sum(axis=0)
        parent_best = counts.max()
        if depth < cfg.max_depth and parent_best != 0.0:
            vals = np.ascontiguousarray(features[rows][:, allowed])
            gain, col, thr = kernels.best_split(
                vals, np.ascontiguousarray(wc), mult,
                float(cfg.min_cluster_size))
            if col >= 0 and gain >= cfg.min_improvement * parent_best:
                feature = int(allowed[col])
                go_left = features[rows, feature] <= thr
                nodes[i][:2] = feature, float(thr)
                nodes[i][2] = grow(rows[go_left], mult[go_left], depth + 1)
                nodes[i][3] = grow(rows[~go_left], mult[~go_left], depth + 1)
                return i
        nodes[i][4] = len(leaves)
        leaves.append((rows, mult, counts))
        return i

    grow(rows, mult, 0)
    feat, thr, left, right, leaf_id = zip(*nodes)
    sizes = [r.size for r, _, _ in leaves]
    return Tree(
        feature_subset=np.asarray(allowed, dtype=np.int64),
        bootstrap_rows=rows, bootstrap_mult=mult,
        feat=np.asarray(feat, dtype=np.int64),
        thr=np.asarray(thr, dtype=np.float64),
        left=np.asarray(left, dtype=np.int64),
        right=np.asarray(right, dtype=np.int64),
        leaf_id=np.asarray(leaf_id, dtype=np.int64),
        leaf_ptr=np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64),
        leaf_rows=np.concatenate([r for r, _, _ in leaves]),
        leaf_mult=np.concatenate([m for _, m, _ in leaves]),
        leaf_counts=np.vstack([c for _, _, c in leaves]))


def build_forest(cm, ds, cfg):
    """Build the tree ensemble from a correctness matrix.

    Tree t draws ceil(fraction * M) bootstrap rows and a feature subset
    of size round(2*sqrt(F)) from the substream keyed by (seed, t).
    """
    if cm.n_classifiers < 2:
        raise ValueError("need at least 2 classifiers, got %d" % cm.n_classifiers)
    features = ds.features[cm.sample_indices]
    correct = cm.correct.astype(np.float64)
    M, F = features.shape
    k_feat = feature_subset_size(F)
    draws = bootstrap_draws(M, cfg.bootstrap_fraction)
    trees = []
    for t in range(cfg.n_trees):
        rng = substream(cfg.seed, t)
        picks = rng.integers(0, M, size=draws)
        counts = np.bincount(picks, minlength=M)
        rows = np.nonzero(counts)[0]
        mult = counts[rows].astype(np.float64)
        allowed = np.sort(rng.choice(F, size=k_feat, replace=False))
        trees.append(grow_tree(rows, mult, cfg, correct, features, allowed))
    return Forest(trees=trees, config=cfg, n_classifiers=cm.n_classifiers,
                  truth=cm.truth.copy(), n_rows=M, n_features=F)


def _bundle_from_leaf_ids(forest, leaf_ids):
    row_parts, mult_parts, leaf_counts = [], [], []
    for tree, lid in zip(forest.trees, leaf_ids.tolist()):
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
    return LeafBundle(
        tree_leaf_ids=np.asarray(leaf_ids, dtype=np.int64),
        leaf_counts=np.array(leaf_counts),
        rows=rows,
        mult=mult,
        dominant_true_class=int(np.argmax(class_support)),
    )


def query(forest, x):
    """LeafBundle for one feature vector (boundary values route left)."""
    x = np.asarray(x, dtype=np.float64)
    return query_batch(forest, x[None, :])[0]


def query_batch(forest, X):
    X = np.ascontiguousarray(np.atleast_2d(X), dtype=np.float64)
    if X.shape[1] != forest.n_features:
        raise ValueError("query has %d features, forest expects %d"
                         % (X.shape[1], forest.n_features))
    leaf_ids = np.empty((X.shape[0], forest.n_trees), dtype=np.int64)
    for t, tree in enumerate(forest.trees):
        leaf_ids[:, t] = kernels.route(tree.feat, tree.thr, tree.left,
                                       tree.right, tree.leaf_id, X)
    return [_bundle_from_leaf_ids(forest, leaf_ids[q])
            for q in range(X.shape[0])]


def leaf_ranks(bundle):
    """Within-leaf classifier ranks and their cumulative sum.

    The best classifier in a leaf gets rank n, the worst rank 1; tied
    correct counts share the average of the ranks they span.
    """
    per_tree = rankdata(bundle.leaf_counts, method="average", axis=1)
    return per_tree, per_tree.sum(axis=0)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def forest_to_dict(forest):
    return {"format": FOREST_FORMAT,
            "config": forest.config.asdict(),
            "n_classifiers": forest.n_classifiers,
            "n_rows": forest.n_rows,
            "n_features": forest.n_features,
            "truth": forest.truth.tolist(),
            "trees": [{f.name: getattr(tree, f.name).tolist()
                       for f in fields(Tree)} for tree in forest.trees]}


def forest_from_dict(data):
    if data.get("format") != FOREST_FORMAT:
        raise DataError("unsupported forest format %r; this program reads %r"
                        % (data.get("format"), FOREST_FORMAT))
    trees = []
    for t, td in enumerate(data["trees"]):
        arrays = {}
        for f in fields(Tree):
            if f.name not in td:
                raise DataError("forest tree %d lacks field %r" % (t, f.name))
            dtype = np.int64 if f.name in _INT_FIELDS else np.float64
            arrays[f.name] = np.asarray(td[f.name], dtype=dtype)
        trees.append(Tree(**arrays))
    return Forest(trees=trees, config=CshcConfig(**data["config"]),
                  n_classifiers=int(data["n_classifiers"]),
                  truth=np.asarray(data["truth"], dtype=np.int64),
                  n_rows=int(data["n_rows"]),
                  n_features=int(data["n_features"]))


def save_forest(forest, path):
    with open(path, "w") as fh:
        json.dump(forest_to_dict(forest), fh)


def load_forest(path):
    with open_input(path) as fh:
        return forest_from_dict(json.load(fh))
