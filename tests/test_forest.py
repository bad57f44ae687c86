"""Forest build, splitting, query and rank behaviour."""

import json
import os
import tempfile
from unittest import mock
from dataclasses import fields
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import rankdata

import cshc.forest as forest_module
import forest_reference
from cshc import kernels
from cshc.bundle import read_forest, write_forest
from cshc.classifiers import ClassifierSpec, train
from cshc.config import ExperimentConfig
from cshc.data import CorrectnessMatrix, Dataset
from cshc.forest import (Forest, Tree, average_rank, bootstrap_draws,
                         build_forest, feature_subset_size, grow_group,
                         query_batch)
from forest_reference import split_gain
from cshc.rng import substream


def make_cm(predicted, truth):
    predicted, truth = np.asarray(predicted), np.asarray(truth)
    return CorrectnessMatrix(predicted, truth,
                             int(max(predicted.max(), truth.max())) + 1)


def simple_bundle(leaf_counts, rows=None, mult=None, dominant=0):
    """A hand-built bundle shaped like `forest_reference.reference_bundle`:
    hit leaves with correct counts leaf_counts (T, n), one per tree, and
    the member union (rows, mult), n rows of multiplicity 1 by default."""
    leaf_counts = np.atleast_2d(np.asarray(leaf_counts, dtype=float))
    rows = np.arange(leaf_counts.shape[1]) if rows is None else np.asarray(rows)
    mult = np.ones(rows.size) if mult is None else np.asarray(mult, dtype=float)
    tree_ranks = rankdata(leaf_counts, method="average", axis=1)
    return SimpleNamespace(
        tree_leaf_ids=np.zeros(leaf_counts.shape[0], dtype=np.int64),
        leaf_counts=leaf_counts, tree_ranks=tree_ranks,
        cumulative_rank=tree_ranks.sum(axis=0),
        rows=rows.astype(np.int64), mult=mult,
        dominant_true_class=int(dominant))


def program_bundle(forest, leaf_ids, cumulative, dominant, q):
    """Query q of a `query_batch` result, read from the forest's tables
    and member union into the fields of `reference_bundle`."""
    hit = leaf_ids[q] + forest.leaf_base
    rows, mult = forest.member_union(leaf_ids[q])
    return SimpleNamespace(
        tree_leaf_ids=leaf_ids[q], leaf_counts=forest.leaf_counts[hit],
        tree_ranks=forest.leaf_rank[hit], cumulative_rank=cumulative[q],
        rows=rows, mult=mult, dominant_true_class=dominant[q])


def is_leaf(tree, node):
    return tree.left[node] < 0


def tree_depth(feat):
    """Levels below the root of the tree whose split features are feat."""
    left, right, _ = kernels.layout(feat)
    depth = np.zeros(feat.size, dtype=np.int64)
    for i in np.flatnonzero(feat >= 0):  # a parent comes before its children
        depth[left[i]] = depth[right[i]] = depth[i] + 1
    return int(depth.max())


def subtree_leaves(tree, node):
    """Leaf ids of the subtree under node."""
    if is_leaf(tree, node):
        return [int(tree.leaf_id[node])]
    return (subtree_leaves(tree, tree.left[node])
            + subtree_leaves(tree, tree.right[node]))


class TestConfigArithmetic:
    def test_feature_subset_size(self):
        assert feature_subset_size(100) == 20
        assert feature_subset_size(4) == 4
        assert feature_subset_size(2) == 2   # round(2*sqrt(2)) = 3, capped
        assert feature_subset_size(9) == 6

    def test_bootstrap_draws(self):
        assert bootstrap_draws(10, 0.8) == 8
        assert bootstrap_draws(11, 0.8) == 9
        assert bootstrap_draws(1, 0.8) == 1

    def test_config_invariants(self):
        with pytest.raises(ValueError):
            ExperimentConfig(n_trees=0).validate()
        with pytest.raises(ValueError):
            ExperimentConfig(bootstrap_fraction=0.0).validate()
        with pytest.raises(ValueError):
            ExperimentConfig(min_improvement=1.0).validate()


class TestSplitGain:
    # 4 members on 1 feature, values 1..4; A correct on {1,2}, B on {3,4}
    features = np.array([[1.0], [2.0], [3.0], [4.0]])
    correct = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])

    def test_hand_example(self):
        rows = np.arange(4)
        mult = np.ones(4)
        assert split_gain(rows, mult, 0, 2.5, self.correct, self.features) == 2.0
        assert split_gain(rows, mult, 0, 1.5, self.correct, self.features) == 1.0

    def test_one_sided_is_invalid(self):
        rows = np.arange(4)
        assert split_gain(rows, np.ones(4), 0, 9.0, self.correct,
                          self.features) is None

    def test_weighted_multiplicities(self):
        rows = np.arange(4)
        mult = np.array([2.0, 2.0, 1.0, 1.0])
        # weighted counts: parent max = 4; children 4 and 2 -> gain 2
        assert split_gain(rows, mult, 0, 2.5, self.correct, self.features) == 2.0

    def test_parent_already_optimal(self):
        correct = np.array([[1.0, 0.0]] * 4)
        assert split_gain(np.arange(4), np.ones(4), 0, 2.5, correct,
                          self.features) == 0.0


class TestGrowTree:
    def test_hand_example_splits_at_midpoint(self):
        cfg = ExperimentConfig(min_cluster_size=2, max_depth=5,
                               min_improvement=0.02)
        (tree,), ptr, rows, mult = grow_group(
            [(np.arange(4), np.ones(4), np.array([0]))], cfg,
            TestSplitGain.correct, TestSplitGain.features)
        assert not is_leaf(tree, 0)
        assert tree.feat[0] == 0
        assert tree.thr[0] == 2.5
        # level order: root, its left leaf, its right leaf
        assert tree.left[0] == 1 and tree.right[0] == 2
        assert is_leaf(tree, 1) and is_leaf(tree, 2)
        assert tree.leaf_id.tolist() == [-1, 0, 1]
        assert ptr.tolist() == [0, 2, 4]
        assert rows.tolist() == [0, 1, 2, 3] and mult.tolist() == [1.0] * 4
        # the correct bits of TestSplitGain: A right on rows 0-1, B on 2-3
        cm = make_cm([[0, 1], [0, 1], [1, 0], [1, 0]], [0, 0, 0, 0])
        forest = Forest([tree], ptr, rows, mult, cm, 1)
        assert forest.leaf_counts.tolist() == [[2.0, 0.0], [0.0, 2.0]]

    def test_two_members_min_size_two_stays_leaf(self):
        cfg = ExperimentConfig(min_cluster_size=2)
        tree = grow_group([(np.arange(2), np.ones(2), np.array([0]))], cfg,
                          TestSplitGain.correct[:2],
                          TestSplitGain.features[:2])[0][0]
        assert is_leaf(tree, 0)

    def test_optimal_parent_stays_leaf(self):
        cfg = ExperimentConfig()
        correct = np.array([[1.0, 0.0]] * 4)
        tree = grow_group([(np.arange(4), np.ones(4), np.array([0]))], cfg,
                          correct, TestSplitGain.features)[0][0]
        assert is_leaf(tree, 0)

    def test_depth_limit(self):
        cfg = ExperimentConfig(max_depth=1, min_cluster_size=1,
                               min_improvement=0.0)
        rng = np.random.default_rng(0)
        features = rng.uniform(size=(16, 1))
        correct = rng.integers(0, 2, size=(16, 2)).astype(float)
        tree = grow_group([(np.arange(16), np.ones(16), np.array([0]))],
                          cfg, correct, features)[0][0]
        assert tree_depth(tree.feat) <= 1


def region_forest(seed=0, n_trees=10):
    """Small forest over an easy two-expert problem."""
    rng = np.random.default_rng(seed)
    M = 120
    x = rng.uniform(0, 2, size=(M, 2))
    truth = rng.integers(0, 2, size=M)
    predicted = np.empty((M, 2), dtype=np.int64)
    left = x[:, 0] <= 1.0
    for i in range(M):
        predicted[i, 0] = truth[i] if left[i] else 1 - truth[i]
        predicted[i, 1] = 1 - truth[i] if left[i] else truth[i]
    cm = CorrectnessMatrix(predicted, truth, 2)
    ds = Dataset(x, truth, ["a", "b"], ["x", "y"])
    cfg = ExperimentConfig(n_trees=n_trees, seed=seed)
    return build_forest(cm, ds, cfg), cm, ds, cfg


class TestBuildForest:
    def test_leaves_partition_bootstrap_multiset(self):
        """Tree t's leaves hold the bootstrap multiset drawn from the
        substream (seed, t) and split only on the features drawn after
        it."""
        forest, _, ds, cfg = region_forest()
        M, F = ds.features.shape
        for t, tree in enumerate(forest.trees):
            rng = substream(cfg.seed, t)
            picks = rng.integers(0, M, size=bootstrap_draws(
                M, cfg.bootstrap_fraction))
            allowed = rng.choice(F, size=feature_subset_size(F),
                                 replace=False)
            rows, mult = np.unique(picks, return_counts=True)
            want = dict(zip(rows.tolist(), mult.tolist()))
            got = {}
            for lid in range(forest_reference.n_leaves(tree)):
                for r, m in zip(*forest_reference.members(forest, t, lid)):
                    got[int(r)] = got.get(int(r), 0) + int(m)
            assert got == want
            assert set(tree.feat[tree.left >= 0].tolist()) <= set(
                allowed.tolist())

    def test_internal_gains_honor_threshold(self):
        forest, cm, ds, cfg = region_forest()
        correct = cm.correct.astype(float)

        def walk(t, tree, node):
            if is_leaf(tree, node):
                return forest_reference.members(forest, t,
                                                tree.leaf_id[node])
            lr, lm = walk(t, tree, tree.left[node])
            rr, rm = walk(t, tree, tree.right[node])
            rows = np.concatenate([lr, rr])
            mult = np.concatenate([lm, rm])
            gain = split_gain(rows, mult, tree.feat[node], tree.thr[node],
                              correct, ds.features)
            wc = mult[:, None] * correct[rows]
            parent_best = wc.sum(axis=0).max()
            assert gain is not None
            assert gain >= cfg.min_improvement * parent_best - 1e-9
            return rows, mult

        for t, tree in enumerate(forest.trees):
            walk(t, tree, 0)

    def test_deterministic_build(self):
        f1, _, _, _ = region_forest(seed=3)
        f2, _, _, _ = region_forest(seed=3)
        assert_same_trees(f1, f2)

    def test_single_classifier_rejected(self):
        cm = make_cm([[0], [1]], [0, 1])
        ds = Dataset(np.zeros((2, 1)) + [[0.0], [1.0]], np.array([0, 1]),
                     ["a"], ["x", "y"])
        with pytest.raises(ValueError, match="2 classifiers"):
            build_forest(cm, ds, ExperimentConfig())


class TestQuery:
    def test_boundary_routes_left(self):
        forest, _, _, _ = region_forest()
        tree = forest.trees[0]
        if is_leaf(tree, 0):
            pytest.skip("degenerate tree")
        x = np.zeros(2)
        x[tree.feat[0]] = tree.thr[0]
        leaf_ids, cumulative, dominant = query_batch(forest, x)
        assert leaf_ids.shape == (1, forest.n_trees)
        assert cumulative.shape == (1, 2) and dominant.shape == (1,)
        assert leaf_ids[0, 0] in subtree_leaves(tree, tree.left[0])

    def test_single_leaf_forest_bundle(self):
        cm = make_cm([[0, 1], [1, 0]], [0, 1])
        ds = Dataset(np.array([[0.0], [0.0]]), np.array([0, 1]), ["a"],
                     ["x", "y"])
        cfg = ExperimentConfig(n_trees=1, bootstrap_fraction=1.0, seed=1)
        forest = build_forest(cm, ds, cfg)
        leaf_ids, _, _ = query_batch(forest, [0.0])
        assert forest.leaf_ptr.tolist() == [0, forest.leaf_rows.size]
        assert forest.member_union(leaf_ids[0])[1].sum() == \
            forest.leaf_mult.sum()

    def test_multiset_union_adds_multiplicities(self):
        # two single-leaf trees sharing sample 0 with multiplicities 1 and 2
        forest, _, _, _ = region_forest(n_trees=2)
        leaf_ids, _, _ = query_batch(forest, [0.5, 0.5])
        by_hand = {}
        for t, lid in enumerate(leaf_ids[0]):
            for r, m in zip(*forest_reference.members(forest, t, lid)):
                by_hand[int(r)] = by_hand.get(int(r), 0) + m
        rows, mult = forest.member_union(leaf_ids[0])
        assert {int(r): m for r, m in zip(rows, mult)} == by_hand

    def test_dimension_mismatch(self):
        forest, _, _, _ = region_forest()
        with pytest.raises(ValueError, match="features"):
            query_batch(forest, [1.0, 2.0, 3.0])


class TestLeafRanks:
    def test_examples(self):
        assert average_rank(np.array([[3, 1, 2]]), axis=1).tolist() == [
            [3.0, 1.0, 2.0]]
        assert average_rank(np.array([[2, 2, 0]]), axis=1).tolist() == [
            [2.5, 2.5, 1.0]]
        per_tree = average_rank(np.array([[3, 1, 2], [2, 1, 3]]), axis=1)
        assert per_tree.sum(axis=0).tolist() == [5.0, 2.0, 5.0]

    def test_rank_sum_invariant(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            T = rng.integers(1, 8)
            n = rng.integers(2, 6)
            counts = rng.integers(0, 5, size=(T, n)).astype(float)
            cum = average_rank(counts, axis=1).sum(axis=0)
            assert cum.sum() == pytest.approx(T * n * (n + 1) / 2)

    @settings(max_examples=300)
    @given(st.data())
    def test_average_rank_is_rankdata(self, data):
        """The numpy ranks equal scipy's rankdata with method "average",
        bit for bit, along any axis of arrays with many ties."""
        shape = data.draw(st.lists(st.integers(1, 6), min_size=1,
                                   max_size=3), label="shape")
        values = np.array(data.draw(st.lists(
            st.sampled_from([-2.5, -0.0, 0.0, 1.0, 3.0, 1e300]),
            min_size=int(np.prod(shape)), max_size=int(np.prod(shape))),
            label="values")).reshape(shape)
        axis = data.draw(st.integers(0, len(shape) - 1), label="axis")
        got = average_rank(values, axis)
        want = rankdata(values, method="average", axis=axis)
        assert got.dtype == want.dtype == np.float64
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_forest_rank_sum(self):
        forest, _, ds, _ = region_forest()
        _, cumulative, _ = query_batch(forest, ds.features[:20])
        for cum in cumulative:
            n = forest.cm.n_classifiers
            assert cum.sum() == pytest.approx(forest.n_trees * n * (n + 1) / 2)


def assert_same_trees(f1, f2):
    """The two forests' trees and leaf tables hold the same arrays, bit
    for bit."""
    assert len(f1.trees) == len(f2.trees)
    pairs = [(getattr(t1, f.name), getattr(t2, f.name), f.name)
             for t1, t2 in zip(f1.trees, f2.trees) for f in fields(Tree)]
    for a, b, name in pairs + [
            (getattr(f1, key), getattr(f2, key), key)
            for key in ("leaf_ptr", "leaf_rows", "leaf_mult")]:
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes(), name


class TestSerialization:
    def test_round_trip_identical(self, tmp_path):
        forest, cm, ds, _ = region_forest()
        first, second = tmp_path / "first", tmp_path / "second"
        write_forest(str(first), forest)
        data = json.loads((first / "forest.json").read_text())
        assert list(data) == ["format", "trees", "leaf_ptr", "leaf_rows",
                              "leaf_mult"]
        assert list(data["trees"][0]) == ["feat", "thr"]
        restored = read_forest(str(first), cm, ds.n_features)
        write_forest(str(second), restored)
        assert (second / "forest.json").read_bytes() == \
            (first / "forest.json").read_bytes()
        q1 = query_batch(forest, ds.features[:10])
        q2 = query_batch(restored, ds.features[:10])
        for q in range(10):
            b1 = program_bundle(forest, *q1, q)
            b2 = program_bundle(restored, *q2, q)
            assert np.array_equal(b1.rows, b2.rows)
            assert np.array_equal(b1.mult, b2.mult)
            assert np.array_equal(b1.leaf_counts, b2.leaf_counts)
            assert b1.dominant_true_class == b2.dominant_true_class

    def test_json_file_round_trip(self, tmp_path):
        """Every tree array, the thresholds included, and the leaf table
        survive the text round trip bit for bit."""
        forest, cm, ds, _ = region_forest()
        write_forest(str(tmp_path), forest)
        assert_same_trees(read_forest(str(tmp_path), cm, ds.n_features),
                          forest)


@st.composite
def small_forests(draw):
    """A forest over a random correctness matrix, and query points: the
    validation rows themselves (which sit on split thresholds) plus
    random points."""
    seed = draw(st.integers(0, 2 ** 32 - 1))
    M = draw(st.integers(4, 40))
    F = draw(st.integers(1, 3))
    n = draw(st.integers(2, 4))
    C = draw(st.integers(2, 3))
    cfg = ExperimentConfig(n_trees=draw(st.integers(1, 6)),
                           min_cluster_size=draw(st.integers(1, 3)),
                           min_improvement=draw(st.sampled_from([0.0, 0.02])),
                           seed=draw(st.integers(0, 99)))
    rng = np.random.default_rng(seed)
    # coarse feature values, so that rows tie and queries hit thresholds
    features = rng.integers(0, 5, size=(M, F)).astype(float)
    truth = rng.integers(0, C, size=M)
    predicted = np.where(rng.random((M, n)) < 0.6, truth[:, None],
                         rng.integers(0, C, size=(M, n)))
    cm = CorrectnessMatrix(predicted, truth, C)
    ds = Dataset(features, truth, ["f%d" % j for j in range(F)],
                 ["c%d" % c for c in range(C)])
    queries = np.vstack([features, rng.uniform(-1.0, 5.0, size=(8, F))])
    return build_forest(cm, ds, cfg), queries


def assert_same_bundle(bundle, ref):
    """Every part of a program bundle equals the reference, bit for bit."""
    assert bundle.tree_leaf_ids.tobytes() == ref.tree_leaf_ids.tobytes()
    assert bundle.cumulative_rank.tobytes() == ref.cumulative_rank.tobytes()
    assert bundle.tree_ranks.tobytes() == ref.tree_ranks.tobytes()
    assert bundle.leaf_counts.tobytes() == ref.leaf_counts.tobytes()
    assert bundle.dominant_true_class == ref.dominant_true_class
    assert bundle.rows.tobytes() == ref.rows.tobytes()
    assert bundle.mult.tobytes() == ref.mult.tobytes()


class TestQueryOracle:
    @settings(max_examples=60)
    @given(small_forests())
    def test_query_matches_eager_reference(self, case):
        forest, X = case
        batch = query_batch(forest, X)
        assert [a.shape[0] for a in batch] == [X.shape[0]] * 3
        for q, x in enumerate(X):
            assert_same_bundle(program_bundle(forest, *batch, q),
                               forest_reference.reference_bundle(forest, x))

    @settings(max_examples=60)
    @given(small_forests())
    def test_save_load_round_trip(self, case):
        """A reloaded forest derives the per-leaf tables of the built one,
        bit for bit, and both equal the leaf-by-leaf reference."""
        forest, X = case
        with tempfile.TemporaryDirectory() as tmp:
            first = os.path.join(tmp, "first")
            second = os.path.join(tmp, "second")
            write_forest(first, forest)
            restored = read_forest(first, forest.cm, forest.n_features)
            write_forest(second, restored)
            with open(os.path.join(first, "forest.json"), "rb") as a, \
                    open(os.path.join(second, "forest.json"), "rb") as b:
                assert a.read() == b.read()
        tables = ("leaf_counts", "leaf_rank", "leaf_support")
        for name, want in zip(tables, forest_reference.leaf_tables(forest)):
            for got in (getattr(forest, name), getattr(restored, name)):
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes(), name
        batch = query_batch(restored, X)
        for q, x in enumerate(X):
            assert_same_bundle(program_bundle(restored, *batch, q),
                               forest_reference.reference_bundle(forest, x))


@st.composite
def grow_cases(draw):
    """Features with ties, a bootstrap multiset and the growth limits; up
    to 300 rows, so that a level holds many nodes."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    M = draw(st.integers(1, 300))
    F = draw(st.integers(1, 6))
    n = draw(st.integers(2, 5))
    if draw(st.booleans()):  # coarse grid: many tied values
        features = rng.integers(0, 4, size=(M, F)).astype(float)
    else:
        features = rng.normal(size=(M, F))
    counts = np.bincount(rng.integers(0, M, size=M), minlength=M)
    rows = np.flatnonzero(counts)
    cfg = ExperimentConfig(
        max_depth=draw(st.sampled_from([1, 2, 3, 15])),
        min_cluster_size=draw(st.integers(1, 3)),
        min_improvement=draw(st.sampled_from([0.0, 0.02, 0.3])))
    allowed = np.sort(rng.choice(F, size=draw(st.integers(1, F)),
                                 replace=False))
    correct = (rng.random((M, n)) < 0.6).astype(float)
    labels = rng.integers(0, n, size=M)
    return (rows, counts[rows].astype(float), cfg, correct, features,
            allowed, labels, n)


def assert_same_tree(got, want):
    """Every array of two Trees is equal, dtype included: the derived
    left, right and leaf_id too."""
    for key in ("feat", "thr", "left", "right", "leaf_id"):
        a, b = getattr(got, key), getattr(want, key)
        assert a.dtype == b.dtype and np.array_equal(a, b), key


def assert_same_grown(got, want):
    """Two (trees, leaf_ptr, leaf_rows, leaf_mult) are equal, dtype
    included."""
    assert len(got[0]) == len(want[0])
    for a, b in zip(got[0], want[0]):
        assert_same_tree(a, b)
    for a, b, key in zip(got[1:], want[1:],
                         ("leaf_ptr", "leaf_rows", "leaf_mult")):
        assert a.dtype == b.dtype and np.array_equal(a, b), key


def assert_same_gini_tree(model, Z, labels, n):
    """A trained Gini tree, and the children and leaf ids `kernels.layout`
    derives from it, equal the queue-built reference over Z."""
    want = forest_reference.gini_tree(Z, labels, n)
    got = (model.feat, model.thr, *kernels.layout(model.feat),
           model.leaf_proba)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and np.array_equal(a, b)


class TestGrowOracle:
    """The level-wise grower builds the trees its replaced growers built."""

    @settings(max_examples=150)
    @given(grow_cases())
    def test_grow_tree_matches_recursive_reference(self, case):
        rows, mult, cfg, correct, features, allowed, _, _ = case
        tree, *table = forest_reference.grow_tree(rows, mult, cfg, correct,
                                                  features, allowed)
        assert_same_grown(
            grow_group([(rows, mult, allowed)], cfg, correct, features),
            ([tree], *table))

    @settings(max_examples=150)
    @given(grow_cases())
    def test_gini_tree_matches_stack_reference(self, case):
        _, _, _, _, features, _, labels, n = case
        ds = Dataset(features, labels, ["f%d" % j for j in range(
            features.shape[1])], ["c%d" % c for c in range(n)])
        assert_same_gini_tree(train(ClassifierSpec("decision_tree_gini"), ds),
                              features, labels, n)

    @pytest.mark.parametrize("M,F,C,seed", [(400, 1, 2, 0), (300, 3, 3, 1),
                                            (250, 6, 5, 2)])
    def test_deep_gini_tree_matches_stack_reference(self, M, F, C, seed):
        """Labels that ignore the features leave an unpruned tree many
        levels deep, with wide levels."""
        rng = np.random.default_rng(seed)
        features = rng.normal(size=(M, F))
        labels = rng.integers(0, C, size=M)
        ds = Dataset(features, labels, ["f%d" % j for j in range(F)],
                     ["c%d" % c for c in range(C)])
        model = train(ClassifierSpec("decision_tree_gini"), ds)
        assert tree_depth(model.feat) >= 20
        assert_same_gini_tree(model, features, labels, C)


@st.composite
def forest_cases(draw):
    """A correctness matrix and dataset with ties, and a forest config."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    M = draw(st.integers(2, 150))
    F = draw(st.integers(1, 6))
    n = draw(st.integers(2, 4))
    C = draw(st.integers(2, 3))
    if draw(st.booleans()):  # coarse grid: many tied values
        features = rng.integers(0, 4, size=(M, F)).astype(float)
    else:
        features = rng.normal(size=(M, F))
    truth = rng.integers(0, C, size=M)
    predicted = np.where(rng.random((M, n)) < 0.6, truth[:, None],
                         rng.integers(0, C, size=(M, n)))
    cfg = ExperimentConfig(
        n_trees=draw(st.integers(1, 8)),
        max_depth=draw(st.sampled_from([1, 3, 15])),
        min_cluster_size=draw(st.integers(1, 3)),
        min_improvement=draw(st.sampled_from([0.0, 0.02, 0.3])),
        seed=draw(st.integers(0, 99)))
    ds = Dataset(features, truth, ["f%d" % j for j in range(F)],
                 ["c%d" % c for c in range(C)])
    return CorrectnessMatrix(predicted, truth, C), ds, cfg


class TestGroupedBuild:
    @settings(max_examples=40)
    @given(forest_cases())
    def test_every_group_budget_grows_the_reference_trees(self, case):
        """However many trees grow together, each is the queue-built
        reference's tree over the draws of its substream, and the leaf
        table holds the reference's leaves tree after tree."""
        cm, ds, cfg = case
        M, F = ds.features.shape
        correct = cm.correct.astype(np.float64)
        draws = []
        for t in range(cfg.n_trees):
            rng = substream(cfg.seed, t)
            counts = np.bincount(rng.integers(0, M, size=bootstrap_draws(
                M, cfg.bootstrap_fraction)), minlength=M)
            rows = np.flatnonzero(counts)
            allowed = np.sort(rng.choice(F, size=feature_subset_size(F),
                                         replace=False))
            draws.append((rows, counts[rows].astype(np.float64), allowed))
        want = forest_reference.grow_group(draws, cfg, correct, ds.features)
        # one tree a group, about two, the default and all in one group
        two = 2 * 8 * M * cm.n_classifiers * feature_subset_size(F)
        for budget in (0, two, forest_module.GROUP_BYTES, 1 << 40):
            with mock.patch.object(forest_module, "GROUP_BYTES", budget):
                forest = build_forest(cm, ds, cfg)
            assert len(forest.trees) == cfg.n_trees
            assert_same_grown((forest.trees, forest.leaf_ptr,
                               forest.leaf_rows, forest.leaf_mult), want)
