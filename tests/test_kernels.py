"""Brute-force checks for the hot kernels."""

import numpy as np
import pytest

from cshc import kernels


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
        got = kernels.best_split(np.ascontiguousarray(vals),
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
        gain, col, thr = kernels.gini_split(np.ascontiguousarray(vals), labels, C)
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


def _toy_tree():
    # node0: x0 <= 1.5 -> leaf0 else node2: x1 <= 0 -> leaf1 else leaf2
    feat = np.array([0, -1, 1, -1, -1], dtype=np.int64)
    thr = np.array([1.5, 0.0, 0.0, 0.0, 0.0])
    left = np.array([1, -1, 3, -1, -1], dtype=np.int64)
    right = np.array([2, -1, 4, -1, -1], dtype=np.int64)
    leaf_id = np.array([-1, 0, -1, 1, 2], dtype=np.int64)
    return feat, thr, left, right, leaf_id


def test_route_boundary_goes_left():
    feat, thr, left, right, leaf_id = _toy_tree()
    X = np.array([[1.5, 9.0],   # on the boundary -> left
                  [1.6, 0.0],   # right then boundary -> left
                  [1.6, 0.1],
                  [0.0, 5.0]])
    got = kernels.route(feat, thr, left, right, leaf_id, np.ascontiguousarray(X))
    assert got.tolist() == [0, 1, 2, 0]
