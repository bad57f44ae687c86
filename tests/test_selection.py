"""Voting, strategy selection and the recourse chain."""

import numpy as np
import pytest

from cshc import lp
from cshc.data import CorrectnessMatrix
from cshc.rng import substream
from cshc.selection import (select_batch, select_cshc, select_lp, select_lpr,
                            select_rr, vote)
from test_forest import simple_bundle


def rng_pair(seed=0, sample=0):
    return substream(seed, 1, sample), substream(seed, 2, sample)


class TestVote:
    def test_weighted_class_support(self):
        profile, chosen = vote([5.0, 3.0, 3.0], [0, 1, 1], 2,
                               substream(0, 0))
        assert profile.support.tolist() == [5.0, 6.0]
        assert profile.top_class == 1
        assert chosen in (1, 2)
        assert profile.ratio == pytest.approx(5.0 / 6.0)

    def test_unanimous_ratio_zero(self):
        profile, chosen = vote([10.0, 1.0, 1.0], [0, 0, 0], 2, substream(0, 0))
        assert profile.top_class == 0
        assert chosen == 0
        assert profile.ratio == 0.0

    def test_two_way_ratio(self):
        profile, chosen = vote([4.0, 3.0], [0, 1], 2, substream(0, 0))
        assert profile.top_class == 0
        assert profile.ratio == 0.75
        assert chosen == 0

    def test_all_zero_weights_rejected(self):
        with pytest.raises(ValueError, match="all zero"):
            vote([0.0, 0.0], [0, 1], 2, substream(0, 0))

    def test_scaling_invariance(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            n = int(rng.integers(2, 6))
            C = int(rng.integers(2, 5))
            w = rng.uniform(0.1, 5.0, size=n)
            labels = rng.integers(0, C, size=n)
            p1, c1 = vote(w, labels, C, substream(9, 0))
            p2, c2 = vote(w * 17.5, labels, C, substream(9, 0))
            assert p1.top_class == p2.top_class
            assert c1 == c2
            assert p1.ratio == pytest.approx(p2.ratio)

    def test_weight_tie_breaks_from_stream(self):
        # same stream -> same pick; the pick is among the tied voters
        picks = {vote([1.0, 1.0, 1.0], [1, 1, 1], 2, substream(s, 0))[1]
                 for s in range(30)}
        assert picks <= {0, 1, 2}
        assert len(picks) > 1  # the draw is actually random across streams


class TestSelectCshc:
    def test_validation_accuracy_breaks_ties(self):
        bundle = simple_bundle([[5.0, 2.0, 5.0]])  # ranks tie A and C
        out = select_cshc(bundle, validation_accuracy=[0.9, 0.5, 0.8])
        assert out.chosen_classifier == 0
        out = select_cshc(bundle, validation_accuracy=[0.7, 0.5, 0.8])
        assert out.chosen_classifier == 2

    def test_single_classifier(self):
        out = select_cshc(simple_bundle([[4.0]]))
        assert out.chosen_classifier == 0

    def test_argmax(self):
        out = select_cshc(simple_bundle([[3.0, 1.0, 2.0]]))
        assert out.chosen_classifier == 0
        assert out.method_used == "cshc"


class TestSelectRr:
    def test_rank_weights_and_ratio(self):
        # leaf counts (5, 2, 5) are not ranks; craft counts whose ranks
        # are the weights we want: two leaves with A and C on top
        bundle = simple_bundle([[2.0, 1.0, 3.0], [3.0, 1.0, 2.0]])
        # ranks: (2,1,3) + (3,1,2) -> cumulative (5, 2, 5)
        out = select_rr(bundle, np.array([0, 1, 0]), 2, substream(0, 1))
        assert out.predicted_class == 0
        assert out.confidence_ratio == pytest.approx(2.0 / 10.0)
        assert out.chosen_classifier in (0, 2)

    def test_unanimous_labels(self):
        bundle = simple_bundle([[3.0, 2.0, 1.0]])
        out = select_rr(bundle, np.array([1, 1, 1]), 2, substream(0, 2))
        assert out.confidence_ratio == 0.0
        assert out.chosen_classifier == 0  # highest rank

    def test_class_tie_goes_to_lower_index(self):
        bundle = simple_bundle([[3.0, 2.0, 1.0]])  # ranks (3, 2, 1)
        out = select_rr(bundle, np.array([0, 1, 1]), 2, substream(0, 3))
        assert out.predicted_class == 0
        assert out.chosen_classifier == 0
        assert out.confidence_ratio == 1.0


def cm_for(labels_matrix, truth, n_classes):
    return CorrectnessMatrix(np.asarray(labels_matrix), np.asarray(truth),
                             np.arange(len(truth)), n_classes=n_classes)


class TestSelectLp:
    def test_single_classifier_gets_everything(self):
        cm = cm_for([[0]], [0], 2)
        bundle = simple_bundle([[1.0]], rows=np.array([0]), mult=np.array([1.0]))
        out = select_lp(bundle, cm, np.array([1]), 80.0, 2, substream(0, 4))
        assert out.chosen_classifier == 0

    def test_bundle_expert_chosen(self):
        # A correct on every bundle member, B and C never
        cm = cm_for([[0, 1, 1], [1, 0, 0]], [0, 1], 2)
        bundle = simple_bundle([[2.0, 0.0, 0.0]], rows=np.array([0, 1]),
                               mult=np.array([1.0, 1.0]))
        out = select_lp(bundle, cm, np.array([0, 1, 1]), 80.0, 2,
                        substream(0, 5))
        assert out.chosen_classifier == 0
        assert out.predicted_class == 0

    def test_cache_reuses_solution(self):
        cm = cm_for([[0, 1], [1, 0]], [0, 1], 2)
        bundle = simple_bundle([[1.0, 1.0]], rows=np.array([0, 1]),
                               mult=np.array([1.0, 1.0]))
        cache = {}
        select_lp(bundle, cm, np.array([0, 1]), 80.0, 2, substream(0, 6), cache)
        assert len(cache) == 1
        select_lp(bundle, cm, np.array([0, 1]), 80.0, 2, substream(0, 7), cache)
        assert len(cache) == 1


class TestRecourseChain:
    def test_high_confidence_rr_exits_first(self):
        # unanimous labels: rr ratio 0 <= rho, the LP never runs
        bundle = simple_bundle([[3.0, 2.0, 1.0]], rows=np.array([0]),
                               mult=np.array([1.0]))
        cm = cm_for([[0, 1, 1]], [0], 3)
        r1, r2 = rng_pair()
        out = select_lpr(bundle, cm, np.array([0, 0, 0]), 0.5, 80.0, 3,
                         None, r1, r2)
        assert out.method_used == "rr"
        assert not out.recourse_invoked

    def test_lp_exit_when_rr_unsure(self):
        # rr ratio 1.0 (3 vs 3); LP concentrates on classifier 0 -> ratio 0
        cm = cm_for([[0, 1, 1]], [0], 3)
        bundle = simple_bundle([[1.0, 0.0, 0.0]], rows=np.array([0]),
                               mult=np.array([1.0]))
        bundle.leaf_counts = np.array([[3.0, 2.0, 1.0]])
        r1, r2 = rng_pair()
        out = select_lpr(bundle, cm, np.array([0, 1, 1]), 0.5, 80.0, 3,
                         None, r1, r2)
        assert out.method_used == "lp"
        assert out.recourse_invoked
        assert out.chosen_classifier == 0

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
            rr = select_rr(bundle, labels, C, substream(1, 1, trial))
            lpr = select_lpr(bundle, cm, labels, 1.0, 80.0, C, None,
                             substream(1, 1, trial), substream(1, 2, trial))
            assert lpr.method_used == "rr"
            assert lpr.chosen_classifier == rr.chosen_classifier
            assert lpr.predicted_class == rr.predicted_class

    def test_rho_zero_triggers_recourse_when_contested(self):
        bundle = simple_bundle([[3.0, 2.0, 1.0]], rows=np.array([0]),
                               mult=np.array([1.0]))
        cm = cm_for([[0, 1, 1]], [0], 3)
        r1, r2 = rng_pair()
        out = select_lpr(bundle, cm, np.array([0, 1, 0]), 0.0, 80.0, 3,
                         None, r1, r2)
        assert out.recourse_invoked

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
            out = select_lpr(bundle, cm, labels, 0.5, 80.0, C, None,
                             substream(2, 1, trial), substream(2, 2, trial))
            assert out.predicted_class == labels[out.chosen_classifier]


class TestStrictDominance:
    def test_all_three_strategies_pick_the_dominant_classifier(self):
        # classifier 0 is correct on every bundle member and strictly
        # tops every leaf; labels are pairwise distinct
        cm = cm_for([[0, 1, 2], [0, 2, 1], [0, 1, 2]], [0, 0, 0], 3)
        bundle = simple_bundle([[3.0, 1.0, 0.0], [2.0, 0.0, 1.0]],
                               rows=np.arange(3), mult=np.ones(3))
        labels = np.array([0, 1, 2])
        cshc_out = select_cshc(bundle, [0.9, 0.5, 0.5], labels)
        rr_out = select_rr(bundle, labels, 3, substream(3, 1))
        lp_out = select_lp(bundle, cm, labels, 80.0, 3, substream(3, 2))
        assert cshc_out.chosen_classifier == 0
        assert rr_out.chosen_classifier == 0
        assert lp_out.chosen_classifier == 0


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
        labels = np.array([1, 0, 0])
        r1, r2 = rng_pair()
        out = select_lpr(bundle, cm, labels, 0.1, 80.0, 2,
                         [0.9, 0.5, 0.4], r1, r2)
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
        labels = np.array([0, 1, 1, 2])
        r1, r2 = rng_pair()
        out = select_lpr(bundle, cm, labels, 0.05, 80.0, 3,
                         [0.9, 0.2, 0.2, 0.1], r1, r2)
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
        labels = np.array([0, 1, 1, 2])
        r1, r2 = rng_pair()
        out = select_lpr(bundle, cm, labels, 0.05, 80.0, 4,
                         [0.9, 0.2, 0.2, 0.1], r1, r2)
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
        labels = np.array([0, 1])
        r1, r2 = rng_pair()
        out = select_lpr(bundle, cm, labels, 0.01, 80.0, 2, None, r1, r2)
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
            select_batch(method, [bundle], np.array([[0, 1]]), [7], cm,
                         None, 2, 80.0, 0.0, 0, {})
        text = str(info.value)
        assert text.startswith("sample 7: HiGHS: broken\n")
        assert "m=2 y=0 labels=[0, 1]" in text
