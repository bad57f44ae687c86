"""Brute-force and reference checks for the hot kernels."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kernels_reference
from cshc import kernels
from cshc.data import DataError


def brute_best_split(vals, wc, mult, min_size):
    """Exhaustive search over every (column, midpoint) candidate with the
    documented tie rules: higher gain, then lower column, then lower
    threshold."""
    total = wc.sum(axis=0)
    parent = total.max()
    best = (-1.0, -1, np.nan)
    for j in range(vals.shape[1]):
        for t in sorted(set(vals[:, j])):
            left = vals[:, j] <= t
            if left.all():
                continue
            thr = 0.5 * (t + vals[~left, j].min())
            lm = mult[left].sum()
            if lm < min_size or mult.sum() - lm < min_size:
                continue
            lc = wc[left].sum(axis=0)
            gain = lc.max() + (total - lc).max() - parent
            if gain > best[0]:
                best = (gain, j, thr)
    return best


def random_cluster(rng, max_members=12, max_features=3, n_classifiers=3):
    S = rng.integers(2, max_members + 1)
    F = rng.integers(1, max_features + 1)
    vals = np.round(rng.uniform(0, 4, size=(S, F)) * 2) / 2  # coarse: forces ties
    correct = rng.integers(0, 2, size=(S, n_classifiers)).astype(float)
    mult = rng.integers(1, 4, size=S).astype(float)
    return vals, correct * mult[:, None], mult


def test_best_split_matches_bruteforce():
    rng = np.random.default_rng(42)
    for _ in range(150):
        vals, wc, mult = random_cluster(rng)
        got = kernels_reference.one_segment(
            kernels.best_split, np.ascontiguousarray(vals),
            np.ascontiguousarray(wc), mult, 2.0)
        want = brute_best_split(vals, wc, mult, 2.0)
        if want[1] < 0:
            assert got[1] == -1
        else:
            assert got[1] == want[1]
            assert got[0] == pytest.approx(want[0], abs=1e-12)
            assert got[2] == pytest.approx(want[2], abs=1e-12)


def brute_gini_score(vals, labels, C, j, t):
    left = vals[:, j] <= t
    if left.all() or not left.any():
        return None
    score = 0.0
    for side in (left, ~left):
        counts = np.bincount(labels[side], minlength=C).astype(float)
        score += (counts ** 2).sum() / side.sum()
    return score


def test_gini_split_matches_bruteforce():
    rng = np.random.default_rng(3)
    for _ in range(100):
        S = rng.integers(2, 14)
        F = rng.integers(1, 4)
        C = rng.integers(2, 4)
        vals = np.round(rng.uniform(0, 3, size=(S, F)) * 2) / 2
        labels = rng.integers(0, C, size=S)
        gain, col, thr = kernels_reference.one_segment(
            kernels.gini_split, np.ascontiguousarray(vals), labels, C)
        # exhaustive: best achievable score over all midpoints
        best = None
        counts = np.bincount(labels, minlength=C).astype(float)
        parent = (counts ** 2).sum() / S
        for j in range(F):
            u = np.unique(vals[:, j])
            for a, b in zip(u[:-1], u[1:]):
                s = brute_gini_score(vals, labels, C, j, (a + b) / 2)
                cand = (s - parent, j, (a + b) / 2)
                if best is None or cand[0] > best[0] + 1e-12:
                    best = cand
        if best is None:
            assert col == -1
        else:
            assert col == best[1]
            assert thr == pytest.approx(best[2])
            assert gain == pytest.approx(best[0], abs=1e-9)


@st.composite
def scan_cases(draw):
    """A cluster with tied and constant columns, 1 to 40 members, and a
    min_size at the edges of the multiplicity range."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    S = draw(st.integers(1, 40))
    F = draw(st.integers(1, 10))
    n = draw(st.integers(2, 5))
    if draw(st.booleans()):  # coarse grid: many tied values
        vals = rng.integers(0, 3, size=(S, F)).astype(float)
    else:
        vals = rng.normal(size=(S, F)) * 10.0 ** rng.integers(-3, 4, size=F)
    vals[:, rng.random(F) < 0.3] = 1.5  # constant columns
    mult = rng.integers(1, 4, size=S).astype(float)
    total = mult.sum()
    prefix = np.cumsum(mult[rng.permutation(S)])
    min_size = draw(st.sampled_from([
        0.0, 1.0, 2.0, mult.min(), np.floor(total / 2), np.ceil(total / 2),
        total - mult.min(), total, total + 1.0,
        prefix[rng.integers(0, S)]]))
    labels = rng.integers(0, n, size=S)
    wcorrect = rng.integers(0, 2, size=(S, n)) * mult[:, None]
    return vals, wcorrect, mult, float(min_size), labels, n


def bits(result):
    """(gain, column, threshold) as bytes, so equal means bit-identical."""
    gain, col, thr = result
    assert isinstance(col, int)
    return np.array([gain, col, thr], dtype=np.float64).tobytes()


class TestScanOracle:
    """The vectorized scan equals the per-column scan it replaced, bit
    for bit, ties included."""

    @settings(max_examples=300)
    @given(scan_cases())
    def test_best_split_matches_per_column_reference(self, case):
        vals, wcorrect, mult, min_size, _, _ = case
        got = kernels_reference.one_segment(kernels.best_split, vals,
                                            wcorrect, mult, min_size)
        want = kernels_reference.best_split(vals, wcorrect, mult, min_size)
        assert bits(got) == bits(want)

    @settings(max_examples=300)
    @given(scan_cases())
    def test_gini_split_matches_per_column_reference(self, case):
        vals, _, _, _, labels, n = case
        got = kernels_reference.one_segment(kernels.gini_split, vals,
                                            labels, n)
        want = kernels_reference.gini_split(vals, labels, n)
        assert bits(got) == bits(want)


@st.composite
def level_cases(draw):
    """A level of segments of 1 to 12 members, with tied and constant
    columns, and a min_size at the edges of one segment's multiplicity
    range."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    K = draw(st.integers(1, 8))
    sizes = rng.integers(1, 13, size=K)
    sizes[rng.random(K) < 0.3] = 1
    S = int(sizes.sum())
    F = draw(st.integers(1, 6))
    n = draw(st.integers(2, 5))
    if draw(st.booleans()):  # coarse grid: many tied values
        vals = rng.integers(0, 3, size=(S, F)).astype(float)
    else:
        vals = rng.normal(size=(S, F))
    vals[:, rng.random(F) < 0.3] = 1.5  # constant columns
    mult = rng.integers(1, 4, size=S).astype(float)
    members = np.split(rng.permutation(S), np.cumsum(sizes)[:-1])
    seg_mult = mult[members[rng.integers(0, K)]]
    total = seg_mult.sum()
    min_size = draw(st.sampled_from([
        0.0, 1.0, 2.0, seg_mult.min(), np.floor(total / 2),
        np.ceil(total / 2), total - seg_mult.min(), total, total + 1.0]))
    labels = rng.integers(0, n, size=S)
    wcorrect = rng.integers(0, 2, size=(S, n)) * mult[:, None]
    return vals, wcorrect, mult, float(min_size), labels, n, members


def level_order(vals, members):
    """The (N, F) orders and (K,) starts of a level whose segments hold
    members: each segment's members stably argsorted per column."""
    order = np.concatenate([m[np.argsort(vals[m], axis=0, kind="stable")]
                            for m in members])
    starts = np.cumsum([0] + [m.size for m in members[:-1]])
    return order, starts


class TestLevelOracle:
    """A level scan scores each segment as the per-column scan scores
    that segment's members alone, bit for bit."""

    @settings(max_examples=200)
    @given(level_cases())
    def test_best_split_level_matches_per_node_reference(self, case):
        vals, wcorrect, mult, min_size, _, _, members = case
        gain, col, thr = kernels.best_split(vals, wcorrect, mult, min_size,
                                            *level_order(vals, members))
        for k, m in enumerate(members):
            want = kernels_reference.best_split(vals[m], wcorrect[m], mult[m],
                                                min_size)
            assert bits((gain[k], int(col[k]), thr[k])) == bits(want)

    @settings(max_examples=200)
    @given(level_cases())
    def test_gini_split_level_matches_per_node_reference(self, case):
        vals, _, _, _, labels, n, members = case
        gain, col, thr = kernels.gini_split(vals, labels, n,
                                            *level_order(vals, members))
        for k, m in enumerate(members):
            want = kernels_reference.gini_split(vals[m], labels[m], n)
            assert bits((gain[k], int(col[k]), thr[k])) == bits(want)


def _toy_tree():
    # node0: x0 <= 1.5 -> leaf0 else node2: x1 <= 0 -> leaf1 else leaf2
    feat = np.array([0, -1, 1, -1, -1], dtype=np.int64)
    thr = np.array([1.5, 0.0, 0.0, 0.0, 0.0])
    return feat, thr


def test_layout_numbers_children_and_leaves_in_node_order():
    left, right, leaf_id = kernels.layout(_toy_tree()[0])
    assert left.tolist() == [1, -1, 3, -1, -1]
    assert right.tolist() == [2, -1, 4, -1, -1]
    assert leaf_id.tolist() == [-1, 0, -1, 1, 2]


def test_route_boundary_goes_left():
    feat, thr = _toy_tree()
    X = np.array([[1.5, 9.0],   # on the boundary -> left
                  [1.6, 0.0],   # right then boundary -> left
                  [1.6, 0.1],
                  [0.0, 5.0]])
    got = kernels.route(feat, thr, *kernels.layout(feat),
                        np.ascontiguousarray(X))
    assert got.tolist() == [0, 1, 2, 0]


class TestCheckTree:
    def test_grown_layout_passes(self):
        assert kernels.check_tree(*_toy_tree(), n_features=2) == 3

    @pytest.mark.parametrize("field,node,value,message", [
        ("feat", 2, 2, "has 'feat' 2 at node 2"),    # past the features
        ("feat", 3, -2, "has 'feat' -2 at node 3"),  # below -1
        # node 1 becomes split 0, so its own left child: a cycle
        ("feat", 0, -1, "has no parent split before node 1"),
        # node 2 becomes a leaf: only one split is left, for nodes 1 and 2
        ("feat", 2, -1, "has no parent split before node 3"),
        # a third split, whose children 5 and 6 lie past the last node
        ("feat", 4, 0, "has 5 nodes for 3 splits, not 7"),
    ])
    def test_rejects_bad_field(self, field, node, value, message):
        arrays = dict(zip(("feat", "thr"), _toy_tree()))
        arrays[field][node] = value
        with pytest.raises(DataError) as exc:
            kernels.check_tree(n_features=2, **arrays)
        assert str(exc.value) == message

    def test_rejects_unequal_lengths(self):
        feat, thr = _toy_tree()
        with pytest.raises(DataError,
                           match=r"has 'thr' of shape \(4,\), not \(5,\)"):
            kernels.check_tree(feat, thr[:4], 2)
        empty = np.zeros(0, dtype=np.int64)
        with pytest.raises(DataError,
                           match=r"has 'feat' of shape \(0,\), not"):
            kernels.check_tree(empty, thr, 2)

    @settings(max_examples=300, derandomize=True)
    @given(st.lists(st.integers(-1, 1), min_size=1, max_size=11))
    def test_passes_exactly_the_trees(self, feat):
        """A feat passes exactly when its layout is a tree: the splits'
        children are the nodes 1 .. N - 1, each once, each after its
        parent."""
        feat = np.array(feat, dtype=np.int64)
        left, right, _ = kernels.layout(feat)
        split = np.flatnonzero(feat >= 0)
        children = np.concatenate([left[split], right[split]])
        if (sorted(children.tolist()) == list(range(1, feat.size))
                and (children > np.tile(split, 2)).all()):
            assert kernels.check_tree(feat, np.zeros(feat.size), 2) \
                == split.size + 1
        else:
            with pytest.raises(DataError):
                kernels.check_tree(feat, np.zeros(feat.size), 2)
