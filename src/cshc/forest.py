"""Cost-sensitive hierarchical clustering: forest build and query.

Trees recursively split the validation samples so that each partition
agrees on a single best classifier; the splitting score is the gain in
max-per-child correct counts over the parent. Ensembling mirrors a
random forest: per-tree bootstrap multisets and feature subsets, both
derived from keyed substreams of one seed.
"""

import json
import math
from dataclasses import dataclass, field, fields

import numpy as np
from scipy.stats import rankdata

from . import kernels
from .data import CorrectnessMatrix, DataError, load_json, read_array
from .rng import substream

FOREST_FORMAT = "cshc-forest/4"

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
    """One tree as flat arrays, nodes and leaves numbered in level order.

    The node arrays are the layout of `kernels`, which grows, routes and
    checks them; its children and leaf ids, left, right and leaf_id, are
    derived from feat and never stored. Leaf l holds the member rows and
    multiplicities leaf_rows/leaf_mult[leaf_ptr[l]:leaf_ptr[l + 1]];
    together the leaves hold the tree's bootstrap draw. Everything else
    about a leaf is derived from its members by `Forest`.
    """

    feat: np.ndarray       # (N,) split feature per node, -1 at a leaf
    thr: np.ndarray        # (N,) split threshold per node
    leaf_ptr: np.ndarray   # (L + 1,) offsets into leaf_rows/leaf_mult
    leaf_rows: np.ndarray  # (m,) member rows, grouped by leaf
    leaf_mult: np.ndarray  # (m,) member multiplicities, whole numbers >= 1

    def __post_init__(self):
        self.left, self.right, self.leaf_id = kernels.layout(self.feat)

    def members(self, leaf):
        """(rows, mult) of one leaf's members."""
        a, b = self.leaf_ptr[leaf], self.leaf_ptr[leaf + 1]
        return self.leaf_rows[a:b], self.leaf_mult[a:b]


# Tree fields holding integers; the others hold float64
_INT_FIELDS = {"feat", "leaf_ptr", "leaf_rows"}


@dataclass
class Forest:
    """The tree ensemble over the rows of a correctness matrix, plus
    per-leaf tables derived from the two.

    The tables hold the leaves of all trees one after another, tree t's
    from row leaf_base[t] on: leaf_counts holds each leaf's member
    multiplicities summed over the rows each classifier got right,
    leaf_rank the classifiers' ranks within the leaf and leaf_support
    the multiplicities summed by validation truth. They are computed on
    construction and never serialized; the sums are of whole numbers, so
    they are exact in any order.
    """

    trees: list
    cm: CorrectnessMatrix  # the validation rows the leaves' members index
    n_features: int
    leaf_base: np.ndarray = field(init=False, repr=False)     # (T,)
    leaf_counts: np.ndarray = field(init=False, repr=False)   # (sum L, n)
    leaf_rank: np.ndarray = field(init=False, repr=False)     # (sum L, n)
    leaf_support: np.ndarray = field(init=False, repr=False)  # (sum L, C)

    def __post_init__(self):
        trees, cm = self.trees, self.cm
        leaves = [tree.leaf_ptr.size - 1 for tree in trees]
        L = sum(leaves)
        self.leaf_base = np.cumsum([0] + leaves[:-1]).astype(np.int64)
        leaf_of = np.repeat(np.arange(L), np.concatenate(
            [np.diff(tree.leaf_ptr) for tree in trees]))
        rows = np.concatenate([tree.leaf_rows for tree in trees])
        mult = np.concatenate([tree.leaf_mult for tree in trees])
        wc = mult[:, None] * cm.correct[rows]
        self.leaf_counts = np.column_stack(
            [np.bincount(leaf_of, weights=wc[:, a], minlength=L)
             for a in range(cm.n_classifiers)])
        self.leaf_rank = _rank_within_leaves(self.leaf_counts)
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
        # one bincount over the validation rows adds the multiplicities
        # tree by tree
        parts = [tree.members(lid)
                 for tree, lid in zip(self.trees, leaf_ids.tolist())]
        mult = np.bincount(np.concatenate([r for r, _ in parts]),
                           weights=np.concatenate([m for _, m in parts]),
                           minlength=self.cm.n_samples)
        rows = np.flatnonzero(mult)
        return rows, mult[rows]


def _rank_within_leaves(counts):
    """Classifier ranks within each row of leaf correct counts: the best
    classifier gets rank n, the worst rank 1, and tied counts share the
    average of the ranks they span."""
    return rankdata(counts, method="average", axis=1)


def grow_group(draws, cfg, correct, features):
    """Grow one Tree per draw (rows, mult, allowed), all together, with
    `kernels.grow` under the [cshc] limits of the ExperimentConfig cfg.

    A node becomes a leaf when the depth limit is reached, no candidate
    split keeps both children at min_cluster_size, the parent's best
    count is already unbeatable (zero), or the best gain falls below
    min_improvement * parent best count. Each tree's rows are ascending,
    so its leaves list their members in ascending row order.
    """
    rows = np.concatenate([r for r, _, _ in draws])
    mult = np.concatenate([m for _, m, _ in draws])
    grown = kernels.grow(
        np.concatenate([features[r][:, a] for r, _, a in draws]),
        [r.size for r, _, _ in draws], mult[:, None] * correct[rows], mult,
        (cfg.max_depth, float(cfg.min_cluster_size), cfg.min_improvement))
    return [Tree(np.where(feat >= 0, allowed[feat], -1), thr, ptr,
                 rows[members], mult[members])
            for (*_, allowed), (feat, thr, ptr, members) in zip(draws, grown)]


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
    trees = [tree for group in groups
             for tree in grow_group(group, cfg, correct, features)]
    return Forest(trees, cm, F)


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


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def forest_to_dict(forest):
    return {"format": FOREST_FORMAT,
            "trees": [{f.name: getattr(tree, f.name).tolist()
                       for f in fields(Tree)} for tree in forest.trees]}


def _tree_from_dict(td, n_rows, n_features):
    """One serialized tree, its node arrays checked against the layout
    `kernels.route` reads and its leaf members against its leaves."""
    arrays = {}
    for f in fields(Tree):
        if f.name not in td:
            raise DataError("lacks field %r" % f.name)
        arrays[f.name] = read_array(
            td[f.name], "field %r" % f.name,
            np.int64 if f.name in _INT_FIELDS else np.float64, 1)
    L = kernels.check_tree(arrays["feat"], arrays["thr"], n_features)
    tree = Tree(**arrays)
    ptr, rows, mult = tree.leaf_ptr, tree.leaf_rows, tree.leaf_mult
    if not (ptr.shape == (L + 1,) and ptr[0] == 0 and ptr[-1] == rows.size
            and (np.diff(ptr) >= 0).all()):
        raise DataError("has 'leaf_ptr' other than %d ascending offsets "
                        "from 0 to %d" % (L + 1, rows.size))
    # the members are one bootstrap draw of at most n_rows rows
    whole = np.isfinite(mult) & (mult >= 1) & (mult == np.floor(mult))
    if not (mult.shape == rows.shape and whole.all()
            and mult.sum() <= n_rows
            and ((rows >= 0) & (rows < n_rows)).all()):
        raise DataError("has 'leaf_rows' and 'leaf_mult' other than equal "
                        "lists of rows in [0, %d) and whole numbers >= 1 "
                        "with a sum of at most %d" % (n_rows, n_rows))
    return tree


def forest_from_dict(data, cm, n_features):
    """The forest a dict of forest_to_dict holds, over the correctness
    matrix cm and n_features features; a DataError names the first tree
    and field that does not fit them."""
    fmt = data.get("format") if isinstance(data, dict) else None
    if fmt != FOREST_FORMAT:
        raise DataError("unsupported forest format %r; this program reads %r"
                        % (fmt, FOREST_FORMAT))
    trees = data.get("trees")
    if not (isinstance(trees, list) and trees):
        raise DataError("forest 'trees' is not a non-empty list")
    out = []
    for t, td in enumerate(trees):
        try:
            if not isinstance(td, dict):
                raise DataError("is not an object")
            out.append(_tree_from_dict(td, cm.n_samples, n_features))
        except DataError as exc:
            raise DataError("forest tree %d %s" % (t, exc)) from None
    return Forest(out, cm, n_features)


def save_forest(forest, path):
    # json.dumps without indent runs the C encoder; json.dump never does
    text = json.dumps(forest_to_dict(forest))
    with open(path, "w") as fh:
        fh.write(text)


def load_forest(path, cm, n_features):
    """A saved forest over cm and n_features features; a malformed file
    is a DataError naming the path."""
    data = load_json(path)
    try:
        return forest_from_dict(data, cm, n_features)
    except DataError as exc:
        raise DataError("%s: %s" % (path, exc)) from None
