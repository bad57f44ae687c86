"""Voting, strategy selection and the recourse chain over query batches."""

import threading
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import forest_reference
import selection_reference as ref
from cshc import lp
from cshc import selection
from cshc.config import ExperimentConfig
from cshc.data import CorrectnessMatrix, Dataset
from cshc.forest import Forest, Tree, build_forest, query_batch
from cshc.rng import substream
from cshc.selection import _STREAM, SELECTION_METHODS, select_batch
from test_forest import simple_bundle


def cm_for(labels_matrix, truth, n_classes):
    return CorrectnessMatrix(np.asarray(labels_matrix), np.asarray(truth),
                             n_classes)


def cm_with_accuracies(accuracies, n_classes=2):
    """Ten validation rows of class 0; classifier a is right on the first
    10 * accuracies[a] of them."""
    right = np.arange(10)[:, None] < np.rint(10 * np.asarray(accuracies))
    return cm_for(np.where(right, 0, 1), np.zeros(10, dtype=np.int64),
                  n_classes)


def plain_cm(n, n_classes=2):
    return cm_with_accuracies(np.ones(n), n_classes)


def bundle_forest(bundle, cm):
    """A forest of one single-leaf tree whose leaf holds the hand-built
    bundle's members (rows, mult) over the validation rows of cm."""
    return Forest([Tree(feat=np.array([-1]), thr=np.zeros(1))],
                  np.array([0, bundle.rows.size]), bundle.rows, bundle.mult,
                  cm, 1)


def select_bundle(method, bundle, cm, labels, sample_ids=None, rho=0.5,
                  seed=0, cache=None):
    """select_batch over queries that all hit the hand-built bundle, one
    per row of labels: its own cumulative ranks and dominant class, and
    its members through `bundle_forest`."""
    labels = np.atleast_2d(labels)
    Q = labels.shape[0]
    return select_batch(
        method, bundle_forest(bundle, cm), np.zeros((Q, 1), dtype=np.int64),
        np.tile(bundle.cumulative_rank, (Q, 1)),
        np.full(Q, bundle.dominant_true_class), labels,
        np.arange(Q) if sample_ids is None else sample_ids, 80.0, rho, seed,
        {} if cache is None else cache)


def outcome(result, q=0):
    """Query q of a batch result as the reference's per-query outcome."""
    def ratio(x):
        return None if np.isnan(x) else float(x)

    return ref.SelectionOutcome(
        int(result.chosen[q]), int(result.predicted[q]), str(result.exit[q]),
        float(result.confidence[q]), bool(result.recourse[q]),
        ratio(result.rr_ratio[q]), ratio(result.lp_ratio[q]))


def rr_vote(weights, labels, n_classes, seed=0):
    """(predicted, chosen, ratio) of the rank vote of one query whose
    cumulative ranks are the given weights."""
    n = len(weights)
    out = select_bundle("rr", SimpleNamespace(
        cumulative_rank=np.asarray(weights, dtype=float), dominant_true_class=0,
        rows=np.arange(n), mult=np.ones(n)), plain_cm(n, n_classes), labels,
        seed=seed)
    return int(out.predicted[0]), int(out.chosen[0]), float(out.rr_ratio[0])


class TestVote:
    def test_weighted_class_support(self):
        predicted, chosen, ratio = rr_vote([5.0, 3.0, 3.0], [0, 1, 1], 2)
        assert predicted == 1
        assert chosen in (1, 2)
        assert ratio == pytest.approx(5.0 / 6.0)

    def test_unanimous_ratio_zero(self):
        assert rr_vote([10.0, 1.0, 1.0], [0, 0, 0], 2) == (0, 0, 0.0)

    def test_two_way_ratio(self):
        assert rr_vote([4.0, 3.0], [0, 1], 2) == (0, 0, 0.75)

    def test_all_zero_weights_rejected(self):
        with pytest.raises(ValueError, match="all zero"):
            rr_vote([0.0, 0.0], [0, 1], 2)

    def test_scaling_invariance(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            n = int(rng.integers(2, 6))
            C = int(rng.integers(2, 5))
            w = rng.uniform(0.1, 5.0, size=n)
            labels = rng.integers(0, C, size=n)
            p1, c1, r1 = rr_vote(w, labels, C, seed=9)
            p2, c2, r2 = rr_vote(w * 17.5, labels, C, seed=9)
            assert (p1, c1) == (p2, c2)
            assert r1 == pytest.approx(r2)

    def test_weight_tie_breaks_from_stream(self):
        # the pick is among the tied voters, drawn from the sample's stream
        picks = set()
        for s in range(30):
            _, chosen, _ = rr_vote([1.0, 1.0, 1.0], [1, 1, 1], 2, seed=s)
            assert chosen == substream(s, _STREAM["rr"], 0).choice(
                np.arange(3))
            picks.add(chosen)
        assert len(picks) > 1  # the draw is actually random across streams


class TestSelectCshc:
    def test_validation_accuracy_breaks_ties(self):
        bundle = simple_bundle([[5.0, 2.0, 5.0]])  # ranks tie A and C
        out = select_bundle("cshc", bundle, cm_with_accuracies([0.9, 0.5, 0.8]),
                            [0, 1, 1])
        assert out.chosen[0] == 0
        out = select_bundle("cshc", bundle, cm_with_accuracies([0.7, 0.5, 0.8]),
                            [0, 1, 1])
        assert out.chosen[0] == 2
        assert out.predicted[0] == 1

    def test_single_classifier(self):
        out = select_bundle("cshc", simple_bundle([[4.0]]), plain_cm(1), [0])
        assert out.chosen[0] == 0

    def test_argmax(self):
        out = select_bundle("cshc", simple_bundle([[3.0, 1.0, 2.0]]),
                            plain_cm(3), [0, 1, 1])
        assert outcome(out) == ref.SelectionOutcome(0, 0, "cshc", 0.0, False)


class TestSelectRr:
    def test_rank_weights_and_ratio(self):
        # leaf counts (5, 2, 5) are not ranks; craft counts whose ranks
        # are the weights we want: two leaves with A and C on top
        bundle = simple_bundle([[2.0, 1.0, 3.0], [3.0, 1.0, 2.0]])
        # ranks: (2,1,3) + (3,1,2) -> cumulative (5, 2, 5)
        out = outcome(select_bundle("rr", bundle, plain_cm(3), [0, 1, 0]))
        assert out.predicted_class == 0
        assert out.confidence_ratio == pytest.approx(2.0 / 10.0)
        assert out.chosen_classifier in (0, 2)

    def test_unanimous_labels(self):
        bundle = simple_bundle([[3.0, 2.0, 1.0]])
        out = outcome(select_bundle("rr", bundle, plain_cm(3), [1, 1, 1]))
        assert out.confidence_ratio == 0.0
        assert out.chosen_classifier == 0  # highest rank

    def test_class_tie_goes_to_lower_index(self):
        bundle = simple_bundle([[3.0, 2.0, 1.0]])  # ranks (3, 2, 1)
        out = outcome(select_bundle("rr", bundle, plain_cm(3), [0, 1, 1]))
        assert out.predicted_class == 0
        assert out.chosen_classifier == 0
        assert out.confidence_ratio == 1.0
        assert (out.method_used, out.rr_ratio, out.lp_ratio) == ("rr", 1.0,
                                                                 None)


class TestSelectLp:
    def test_single_classifier_gets_everything(self):
        cm = cm_for([[0]], [0], 2)
        bundle = simple_bundle([[1.0]], rows=np.array([0]), mult=np.array([1.0]))
        out = select_bundle("lp", bundle, cm, [1])
        assert out.chosen[0] == 0

    def test_bundle_expert_chosen(self):
        # A correct on every bundle member, B and C never
        cm = cm_for([[0, 1, 1], [1, 0, 0]], [0, 1], 2)
        bundle = simple_bundle([[2.0, 0.0, 0.0]], rows=np.array([0, 1]),
                               mult=np.array([1.0, 1.0]))
        out = select_bundle("lp", bundle, cm, [0, 1, 1])
        assert out.chosen[0] == 0
        assert out.predicted[0] == 0
        assert np.isnan(out.rr_ratio[0]) and out.exit[0] == "lp"

    def test_cache_reuses_solution(self):
        cm = cm_for([[0, 1], [1, 0]], [0, 1], 2)
        bundle = simple_bundle([[1.0, 1.0]], rows=np.array([0, 1]),
                               mult=np.array([1.0, 1.0]))
        cache = {}
        select_bundle("lp", bundle, cm, [0, 1], cache=cache)
        assert len(cache) == 1
        select_bundle("lp", bundle, cm, [0, 1], cache=cache)
        assert len(cache) == 1


class TestRecourseChain:
    def test_high_confidence_rr_exits_first(self):
        # unanimous labels: rr ratio 0 <= rho, the LP never runs
        bundle = simple_bundle([[3.0, 2.0, 1.0]], rows=np.array([0]),
                               mult=np.array([1.0]))
        cm = cm_for([[0, 1, 1]], [0], 3)
        out = outcome(select_bundle("lpr", bundle, cm, [0, 0, 0], rho=0.5))
        assert out.method_used == "rr"
        assert not out.recourse_invoked
        assert out.lp_ratio is None

    def test_lp_exit_when_rr_unsure(self):
        # rr ratio 1.0 (3 vs 3); LP concentrates on classifier 0 -> ratio 0
        cm = cm_for([[0, 1, 1]], [0], 3)
        bundle = simple_bundle([[3.0, 2.0, 1.0]], rows=np.array([0]),
                               mult=np.array([1.0]))
        out = outcome(select_bundle("lpr", bundle, cm, [0, 1, 1], rho=0.5))
        assert out.method_used == "lp"
        assert out.recourse_invoked
        assert out.chosen_classifier == 0
        assert (out.rr_ratio, out.lp_ratio) == (1.0, 0.0)

    def test_rho_one_equals_rr(self):
        rng = np.random.default_rng(10)
        for trial in range(200):
            n = int(rng.integers(2, 5))
            C = int(rng.integers(2, 4))
            T = int(rng.integers(1, 6))
            counts = rng.integers(0, 5, size=(T, n)).astype(float)
            k = int(rng.integers(1, 4))
            rows = np.arange(k)
            cm = cm_for(rng.integers(0, C, size=(k, n)),
                        rng.integers(0, C, size=k), C)
            bundle = simple_bundle(counts, rows=rows,
                                   mult=rng.integers(1, 3, size=k).astype(float))
            labels = rng.integers(0, C, size=n)
            rr = select_bundle("rr", bundle, cm, labels, [trial], seed=1)
            lpr = select_bundle("lpr", bundle, cm, labels, [trial], rho=1.0,
                                seed=1)
            assert lpr.exit[0] == "rr"
            assert lpr.chosen[0] == rr.chosen[0]
            assert lpr.predicted[0] == rr.predicted[0]

    def test_rho_zero_triggers_recourse_when_contested(self):
        bundle = simple_bundle([[3.0, 2.0, 1.0]], rows=np.array([0]),
                               mult=np.array([1.0]))
        cm = cm_for([[0, 1, 1]], [0], 3)
        out = select_bundle("lpr", bundle, cm, [0, 1, 0], rho=0.0)
        assert out.recourse[0]

    def test_outcome_class_is_chosen_classifiers_label(self):
        rng = np.random.default_rng(11)
        for trial in range(200):
            n = int(rng.integers(2, 5))
            C = int(rng.integers(2, 4))
            counts = rng.integers(0, 5, size=(3, n)).astype(float)
            k = int(rng.integers(1, 4))
            cm = cm_for(rng.integers(0, C, size=(k, n)),
                        rng.integers(0, C, size=k), C)
            bundle = simple_bundle(counts, rows=np.arange(k),
                                   mult=np.ones(k),
                                   dominant=int(rng.integers(0, C)))
            labels = rng.integers(0, C, size=n)
            out = select_bundle("lpr", bundle, cm, labels, [trial], seed=2)
            assert out.predicted[0] == labels[out.chosen[0]]


class TestStrictDominance:
    def test_all_three_strategies_pick_the_dominant_classifier(self):
        # classifier 0 is correct on every bundle member and strictly
        # tops every leaf; labels are pairwise distinct
        cm = cm_for([[0, 1, 2], [0, 2, 1], [0, 1, 2]], [0, 0, 0], 3)
        bundle = simple_bundle([[3.0, 1.0, 0.0], [2.0, 0.0, 1.0]],
                               rows=np.arange(3), mult=np.ones(3))
        labels = np.array([0, 1, 2])
        for method in ("cshc", "rr", "lp"):
            out = select_bundle(method, bundle, cm, labels, seed=3)
            assert out.chosen[0] == 0, method


class TestRecourseExitFixtures:
    """Hand-built bundles forcing each deep exit of the chain."""

    def test_cshc_match_exit(self):
        # ranks (3,2,1): rr sees support {c0: 3 (from B+C), c1: 3 (A)},
        # tie -> class 0 via B. LP: A right / B wrong on e1 (twice), the
        # reverse on e2, C wrong on both -> unique optimum (50.5, 49.5, 0);
        # A's label c1 wins the LP vote. CSHC picks A (top rank), whose
        # label c1 matches LP's class -> cshc-match.
        cm = cm_for([[0, 1, 1], [0, 1, 0]], [0, 1], 2)
        bundle = simple_bundle([[3.0, 2.0, 1.0]], rows=np.array([0, 1]),
                               mult=np.array([2.0, 1.0]))
        out = outcome(select_bundle("lpr", bundle, cm, [1, 0, 0], rho=0.1))
        assert out.method_used == "lpr-cshc-match"
        assert out.chosen_classifier == 0
        assert out.predicted_class == 1
        assert out.lp_ratio == pytest.approx(49.5 / 50.5)

    def test_dominant_exit(self):
        # four classifiers, three classes; rr backs class 1 (B+C sum to
        # rank 5 vs A's 4), LP backs class 2 (D correct on the heavy
        # members forces weights to (10, 0, 0, 90)), CSHC's top-rank
        # pick A labels class 0. Dominant true class 2 -> D is taken.
        cm = cm_for([[0, 1, 1, 2], [0, 2, 2, 1], [1, 0, 0, 2]],
                    [2, 0, 2], 3)
        bundle = simple_bundle([[5.0, 3.0, 3.0, 0.0]],
                               rows=np.array([0, 1, 2]),
                               mult=np.array([3.0, 1.0, 3.0]),
                               dominant=2)
        out = outcome(select_bundle("lpr", bundle, cm, [0, 1, 1, 2],
                                    rho=0.05))
        assert out.method_used == "lpr-dominant"
        assert out.chosen_classifier == 3
        assert out.predicted_class == 2

    def test_fallback_exit(self):
        # same stage outcomes, but the dominant class (3) is one that no
        # classifier predicts -> the LP's choice stands
        cm = cm_for([[0, 1, 1, 2], [0, 2, 2, 1], [1, 0, 0, 2]],
                    [2, 0, 2], 4)
        bundle = simple_bundle([[5.0, 3.0, 3.0, 0.0]],
                               rows=np.array([0, 1, 2]),
                               mult=np.array([3.0, 1.0, 3.0]),
                               dominant=3)
        out = outcome(select_bundle("lpr", bundle, cm, [0, 1, 1, 2],
                                    rho=0.05))
        assert out.method_used == "lpr-fallback"
        assert out.chosen_classifier == 3
        assert out.predicted_class == 2

    def test_agree_exit(self):
        # rr and lp both land on class 0 with low confidence; the LP
        # optimum (50.5, 49.5) is unique: A right / B wrong on e1 (twice),
        # the reverse on e2
        cm = cm_for([[0, 1], [0, 1]], [0, 1], 2)
        bundle = simple_bundle([[2.0, 1.0]], rows=np.array([0, 1]),
                               mult=np.array([2.0, 1.0]))
        out = outcome(select_bundle("lpr", bundle, cm, [0, 1], rho=0.01))
        assert out.method_used == "lpr-agree"
        assert out.predicted_class == 0
        assert out.lp_ratio == pytest.approx(49.5 / 50.5)


class TestSelectBatch:
    @pytest.mark.parametrize("method", ["lp", "lpr"])
    def test_lp_failure_names_the_sample(self, monkeypatch, method):
        def broken(inst):
            raise lp.LpSolverError("HiGHS: broken\n" + lp.instance_dump(inst))

        monkeypatch.setattr(lp, "solve", broken)
        cm = cm_for([[0, 1], [0, 1]], [0, 1], 2)
        bundle = simple_bundle([[2.0, 2.0]], rows=np.array([0, 1]),
                               mult=np.array([2.0, 1.0]))
        with pytest.raises(lp.LpSolverError) as info:
            select_bundle(method, bundle, cm, [0, 1], [7], rho=0.0)
        text = str(info.value)
        assert text.startswith("sample 7: HiGHS: broken\n")
        assert "m=2 y=0 labels=[0, 1]" in text


class TestBatchEqualsSingle:
    """A sample's outcome does not depend on the batch it comes in."""

    def batch_case(self):
        # three noisy classifiers over three classes on coarse features
        rng = np.random.default_rng(12)
        M = 90
        features = rng.integers(0, 6, size=(M, 2)).astype(float)
        truth = rng.integers(0, 3, size=M)
        predicted = np.where(rng.random((M, 3)) < 0.6, truth[:, None],
                             rng.integers(0, 3, size=(M, 3)))
        cm = cm_for(predicted, truth, 3)
        ds = Dataset(features, truth, ["x", "y"], ["a", "b", "c"])
        forest = build_forest(cm, ds, ExperimentConfig(
            n_trees=6, min_improvement=0.0, seed=0))
        # validation points plus repeats of some: shared leaf-id tuples
        X = np.vstack([features[:30], features[:10]])
        labels = rng.integers(0, 3, size=(X.shape[0], 3))
        sample_ids = rng.permutation(1000)[:X.shape[0]]
        return forest, X, labels, sample_ids

    def run(self, method, forest, X, labels, sample_ids, cache):
        return select_batch(method, forest, *query_batch(forest, X), labels,
                            sample_ids, 80.0, 0.3, 5, cache)

    @pytest.mark.parametrize("method", ["cshc", "rr", "lp", "lpr"])
    def test_shuffled_batch_equals_queries_alone(self, method):
        forest, X, labels, sample_ids = self.batch_case()
        order = np.random.default_rng(3).permutation(X.shape[0])
        batch = self.run(method, forest, X[order], labels[order],
                         sample_ids[order], {})
        for i, q in enumerate(order):
            alone = self.run(method, forest, X[q:q + 1], labels[q:q + 1],
                             sample_ids[q:q + 1], {})
            assert outcome(batch, i) == outcome(alone)

    @pytest.mark.parametrize("method", ["rr", "lpr"])
    def test_weight_tie_draws_from_the_sample_stream(self, method):
        # classifiers 0 and 1 tie on rank and label: every rr vote draws
        bundle = simple_bundle([[2.0, 2.0, 1.0]], rows=np.array([0]),
                               mult=np.array([1.0]))
        cm = cm_for([[0, 0, 1]], [0], 2)
        labels = np.array([0, 0, 1])
        sample_ids = np.arange(40)
        batch = select_bundle(method, bundle, cm, np.tile(labels, (40, 1)),
                              sample_ids, rho=0.3, seed=5)
        for q, sid in enumerate(sample_ids):
            r_rr = substream(5, _STREAM["rr"], sid)
            r_lp = substream(5, _STREAM["lp"], sid)
            if method == "rr":
                alone = ref.select_rr(bundle, labels, 2, r_rr)
            else:
                alone = ref.select_lpr(bundle, cm, labels, 0.3, 80.0, 2,
                                       cm.classifier_accuracies(), r_rr, r_lp)
            assert alone.method_used == "rr"
            assert outcome(batch, q) == alone
        assert set(batch.chosen.tolist()) == {0, 1}

    def test_one_solve_per_leaf_id_tuple(self, monkeypatch):
        forest, X, labels, sample_ids = self.batch_case()
        solved = []
        real_solve = lp.solve

        def counting_solve(inst):
            solved.append(inst)
            return real_solve(inst)

        monkeypatch.setattr(lp, "solve", counting_solve)
        leaf_ids, _, _ = query_batch(forest, X)
        distinct = {ids.tobytes() for ids in leaf_ids}
        assert len(distinct) < X.shape[0]
        cache = {}
        self.run("lp", forest, X, labels, sample_ids, cache)
        assert len(solved) == len(distinct)
        # lpr reuses every solution lp left in the shared cache
        self.run("lpr", forest, X, labels, sample_ids, cache)
        assert len(solved) == len(distinct)

    @pytest.mark.parametrize("method", ["lp", "lpr"])
    def test_one_and_two_workers_give_the_same_bytes(self, monkeypatch,
                                                     method):
        forest, X, labels, sample_ids = self.batch_case()
        runs = []
        for workers in (1, 2):
            monkeypatch.setattr(selection, "_LP_WORKERS", workers)
            cache = {}
            runs.append((cache, self.run(method, forest, X, labels,
                                         sample_ids, cache)))
        (cache1, got1), (cache2, got2) = runs
        assert len(cache1) > 2
        assert list(cache1) == list(cache2)
        for key, sol in cache1.items():
            for field in ("w", "g", "f"):
                assert (getattr(sol, field).tobytes()
                        == getattr(cache2[key], field).tobytes())
        for field in ("chosen", "predicted", "exit", "confidence",
                      "rr_ratio", "lp_ratio"):
            assert (getattr(got1, field).tobytes()
                    == getattr(got2, field).tobytes())

    @pytest.mark.parametrize("method", ["lp", "lpr"])
    def test_error_names_the_first_failure_in_query_order(self, monkeypatch,
                                                          method):
        forest, X, labels, sample_ids = self.batch_case()
        leaf_ids, _, _ = query_batch(forest, X)
        needs_lp = np.ones(X.shape[0], dtype=bool)
        if method == "lpr":
            rr = self.run("rr", forest, X, labels, sample_ids, {})
            needs_lp = rr.rr_ratio > 0.3
        first_of = {}
        for q in np.flatnonzero(needs_lp):
            first_of.setdefault(leaf_ids[q].tobytes(), q)
        q_slow, q_fast = list(first_of.values())[:2]

        def instance_bytes(inst):
            return inst.m.tobytes() + inst.y.tobytes() + inst.L.tobytes()

        slow, fast = (instance_bytes(lp.build_instance(
            *forest.member_union(leaf_ids[q]), forest.cm, 80.0))
            for q in (q_slow, q_fast))
        assert slow != fast
        fast_failed = threading.Event()
        failures = []
        real_solve = lp.solve

        def failing_solve(inst):
            # the first failure in query order ends only after the second
            # has failed on the other thread
            if instance_bytes(inst) == slow:
                fast_failed.wait(timeout=5.0)
                failures.append("slow")
                raise lp.LpSolverError("HiGHS: slow")
            if instance_bytes(inst) == fast:
                failures.append("fast")
                fast_failed.set()
                raise lp.LpSolverError("HiGHS: fast")
            return real_solve(inst)

        monkeypatch.setattr(lp, "solve", failing_solve)
        with pytest.raises(lp.LpSolverError) as info:
            self.run(method, forest, X, labels, sample_ids, {})
        assert failures[:2] == ["fast", "slow"]
        assert str(info.value) == "sample %d: HiGHS: slow" % sample_ids[q_slow]


def selection_case(seed, n_classes, n_trees, zero_lp):
    """A forest over coarse features, as `test_forest.small_forests` grows
    them, and a batch to select over: the validation rows and random
    points, random test-time labels, sample ids, rho and seed. With
    zero_lp the LP returns all-zero weights."""
    rng = np.random.default_rng(seed)
    M, F, n = int(rng.integers(4, 31)), int(rng.integers(1, 3)), \
        int(rng.integers(2, 6))
    features = rng.integers(0, 4, size=(M, F)).astype(float)
    truth = rng.integers(0, n_classes, size=M)
    predicted = np.where(rng.random((M, n)) < 0.6, truth[:, None],
                         rng.integers(0, n_classes, size=(M, n)))
    ds = Dataset(features, truth, ["f%d" % j for j in range(F)],
                 ["c%d" % c for c in range(n_classes)])
    forest = build_forest(cm_for(predicted, truth, n_classes), ds,
                          ExperimentConfig(
                              n_trees=n_trees,
                              min_cluster_size=int(rng.integers(1, 4)),
                              min_improvement=0.0, seed=int(rng.integers(99))))
    X = np.vstack([features, rng.uniform(-1.0, 4.0, size=(4, F))])
    return SimpleNamespace(
        forest=forest, X=X,
        labels=rng.integers(0, n_classes, size=(X.shape[0], n)),
        sample_ids=rng.permutation(10 * X.shape[0])[:X.shape[0]],
        rho=float(rng.choice([0.0, 0.2, 0.5, 0.8, 1.0])),
        seed=int(rng.integers(1000)), zero_lp=zero_lp)


def zero_solve(inst):
    return lp.LpSolution(np.zeros(inst.n), np.zeros(inst.k), np.zeros(inst.k),
                         0.0)


def compare_with_reference(case):
    """Run every method on the case as one batch and query by query
    through the reference; both must give each query the same outcome,
    field for field, or raise the same ValueError. Returns the batch
    results of the methods that did not raise."""
    forest = case.forest
    batch = query_batch(forest, case.X)
    bundles = [forest_reference.reference_bundle(forest, x) for x in case.X]
    got_cache, want_cache, results = {}, {}, {}
    with mock.patch.object(lp, "solve", zero_solve if case.zero_lp
                           else lp.solve):
        for method in SELECTION_METHODS:
            try:
                want = ref.select_batch(
                    method, bundles, case.labels, case.sample_ids, forest.cm,
                    80.0, case.rho, case.seed, want_cache)
            except ValueError as exc:
                with pytest.raises(ValueError) as info:
                    select_batch(method, forest, *batch, case.labels,
                                 case.sample_ids, 80.0, case.rho, case.seed,
                                 got_cache)
                assert str(info.value) == str(exc)
                continue
            got = select_batch(method, forest, *batch, case.labels,
                               case.sample_ids, 80.0, case.rho, case.seed,
                               got_cache)
            assert [outcome(got, q) for q in range(case.X.shape[0])] == want
            results[method] = got
    return results


# (seed, n_classes, n_trees, zero_lp) of cases that together take every
# exit of the chain, break rank-weight and LP-weight ties by a draw, and
# raise on all-zero LP weights
COVERING = [(0, 4, 3, False), (7, 4, 2, False), (1, 4, 3, False),
            (0, 2, 1, True)]


class TestBatchEqualsReference:
    @settings(max_examples=100)
    @given(st.builds(selection_case, st.integers(0, 2 ** 32 - 1),
                     st.integers(2, 4), st.integers(1, 6),
                     st.integers(0, 7).map(lambda d: d == 0)))
    @example(selection_case(*COVERING[0]))
    @example(selection_case(*COVERING[1]))
    @example(selection_case(*COVERING[2]))
    @example(selection_case(*COVERING[3]))
    def test_batch_matches_per_query_reference(self, case):
        compare_with_reference(case)

    def test_covering_cases_take_every_path(self):
        exits, tie_streams, zero_raised = set(), set(), False
        real = selection.substream

        def counting(seed, tag, sid):
            tie_streams.add(tag)
            return real(seed, tag, sid)

        with mock.patch.object(selection, "substream", counting):
            for params in COVERING:
                results = compare_with_reference(selection_case(*params))
                if "lpr" in results:
                    exits.update(results["lpr"].exit.tolist())
                zero_raised |= params[3] and "lp" not in results
        assert exits == {"rr", "lp", "lpr-agree", "lpr-cshc-match",
                         "lpr-dominant", "lpr-fallback"}
        assert tie_streams == {_STREAM["rr"], _STREAM["lp"]}
        assert zero_raised
