"""Region construction and the neighborhood-based competitors.

The unit tests run the batched functions on a batch of one query; the
property tests hold them to the per-query oracle in baselines_reference.
"""

import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import baselines_reference as ref
from cshc import baselines as bl
from cshc import kernels
from cshc.baselines import (aposteriori, apriori, knora_e, knora_u, lca,
                            majority_vote, mcb, ola, region_of)
from cshc.data import CorrectnessMatrix, load_csv
from cshc.harness import evaluate_method, prepare_dataset
from test_harness import tiny_experiment_config


def cm_with_proba(predicted, truth, n_classes, proba=None):
    predicted = np.asarray(predicted)
    truth = np.asarray(truth)
    if proba is None:  # one-hot probabilities matching the predictions
        M, n = predicted.shape
        proba = np.zeros((M, n, n_classes))
        for i in range(M):
            for a in range(n):
                proba[i, a, predicted[i, a]] = 1.0
    cm = CorrectnessMatrix(predicted, truth, n_classes,
                           proba=np.asarray(proba))
    return cm


def nearest(k):
    """One query's region holding samples 0..k-1, nearest first."""
    return np.arange(k)[None]


def first(result):
    """Query 0 of a batched result."""
    if isinstance(result, tuple):
        return tuple(first(r) for r in result)
    return result[0]


class TestRegion:
    def test_query_on_training_point(self):
        X = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
        neighbors, distances = first(region_of(np.array([[1.0, 1.0]]), 2, X))
        assert neighbors[0] == 1
        assert distances[0] == 0.0

    def test_k_one(self):
        X = np.array([[0.0], [5.0]])
        neighbors, _ = first(region_of(np.array([[0.4]]), 1, X))
        assert neighbors.tolist() == [0]

    def test_distance_tie_lower_index(self):
        X = np.array([[1.0], [-1.0], [1.0]])
        neighbors, _ = first(region_of(np.array([[0.0]]), 3, X))
        assert neighbors.tolist() == [0, 1, 2]

    def test_k_clamped_with_warning(self):
        X = np.zeros((3, 1))
        with pytest.warns(UserWarning, match="clamp"):
            neighbors, _ = first(region_of(np.array([[0.0]]), 9, X))
        assert neighbors.size == 3


class TestOla:
    def test_perfect_classifier(self):
        cm = cm_with_proba([[0], [0], [1]], [0, 0, 1], 2)
        region = nearest(3)
        assert first(ola(region, cm)).tolist() == [1.0]

    def test_three_of_seven(self):
        pred = np.array([[0]] * 7)
        truth = np.array([0, 0, 0, 1, 1, 1, 1])
        cm = cm_with_proba(pred, truth, 2)
        region = nearest(7)
        assert first(ola(region, cm))[0] == pytest.approx(3 / 7)

    def test_all_zero_picks_classifier_zero(self):
        cm = cm_with_proba([[1, 1], [1, 1]], [0, 0], 2)
        region = nearest(2)
        scores = first(ola(region, cm))
        assert scores.tolist() == [0.0, 0.0]
        assert int(np.argmax(scores)) == 0


class TestLca:
    def test_no_samples_of_predicted_class(self):
        cm = cm_with_proba([[0], [0]], [0, 0], 2)
        region = nearest(2)
        scores = first(lca(region, cm, query_labels=[[1]]))
        assert scores.tolist() == [0.0]

    def test_three_quarters(self):
        # region holds 4 class-0 samples; the classifier gets 3 right
        pred = np.array([[0], [0], [0], [1], [1]])
        truth = np.array([0, 0, 0, 0, 1])
        cm = cm_with_proba(pred, truth, 2)
        region = nearest(4)
        assert first(lca(region, cm, query_labels=[[0]]))[0] == \
            pytest.approx(0.75)

    def test_perfect_on_class(self):
        pred = np.array([[0], [0], [1]])
        truth = np.array([0, 0, 1])
        cm = cm_with_proba(pred, truth, 2)
        region = nearest(3)
        assert first(lca(region, cm, query_labels=[[0]]))[0] == 1.0


class TestApriori:
    def test_one_hot_reduces_to_ola(self):
        rng = np.random.default_rng(0)
        pred = rng.integers(0, 3, size=(20, 4))
        truth = rng.integers(0, 3, size=20)
        cm = cm_with_proba(pred, truth, 3)
        region = nearest(7)
        assert np.allclose(first(apriori(region, cm)), first(ola(region, cm)))

    def test_uniform_probabilities(self):
        proba = np.full((5, 2, 4), 0.25)
        cm = cm_with_proba(np.zeros((5, 2), dtype=int),
                           np.zeros(5, dtype=int), 4, proba=proba)
        region = nearest(5)
        assert np.allclose(first(apriori(region, cm)), 0.25)

    def test_two_member_average(self):
        proba = np.zeros((2, 1, 2))
        proba[0, 0] = [0.8, 0.2]
        proba[1, 0] = [0.6, 0.4]
        cm = cm_with_proba(np.zeros((2, 1), dtype=int),
                           np.zeros(2, dtype=int), 2, proba=proba)
        region = nearest(2)
        assert first(apriori(region, cm))[0] == pytest.approx(0.7)


class TestAposteriori:
    def test_one_hot_reduces_to_lca(self):
        rng = np.random.default_rng(1)
        pred = rng.integers(0, 3, size=(20, 4))
        truth = rng.integers(0, 3, size=20)
        cm = cm_with_proba(pred, truth, 3)
        region = nearest(9)
        for labels in rng.integers(0, 3, size=(10, 4)):
            assert np.allclose(first(aposteriori(region, cm, [labels])),
                               first(lca(region, cm, [labels])))

    def test_empty_restriction_scores_zero(self):
        cm = cm_with_proba([[0], [0]], [0, 0], 2)
        region = nearest(2)
        assert first(aposteriori(region, cm, [[1]])).tolist() == [0.0]


class TestMcb:
    def test_threshold_zero_equals_ola(self):
        rng = np.random.default_rng(2)
        pred = rng.integers(0, 2, size=(15, 5))
        truth = rng.integers(0, 2, size=15)
        cm = cm_with_proba(pred, truth, 2)
        region = nearest(8)
        labels = rng.integers(0, 2, size=5)
        assert np.allclose(first(mcb(region, cm, [labels], 0.0)),
                           first(ola(region, cm)))

    def test_identical_profiles_no_filtering(self):
        pred = np.tile([0, 1, 0], (6, 1))
        truth = np.array([0, 1, 0, 1, 0, 1])
        cm = cm_with_proba(pred, truth, 2)
        region = nearest(6)
        assert np.allclose(first(mcb(region, cm, [[0, 1, 0]], 0.7)),
                           first(ola(region, cm)))

    def test_three_of_five_agreement_dropped(self):
        # profile agrees on 3 of 5 positions: similarity 0.6 < 0.7
        pred = np.array([[0, 1, 0, 1, 0],
                         [0, 1, 0, 0, 1]])
        truth = np.array([0, 0])
        cm = cm_with_proba(pred, truth, 2)
        region = nearest(2)
        scores = first(mcb(region, cm, [[0, 1, 0, 1, 0]], 0.7))
        # only the first row survives; OLA over it
        assert np.allclose(scores, cm.correct[0])


class TestKnoraE:
    # the committee comes back as a mask over the classifiers
    def test_perfect_at_full_k(self):
        pred = np.array([[0, 1], [0, 1], [0, 0]])
        truth = np.array([0, 0, 0])
        cm = cm_with_proba(pred, truth, 2)
        region = nearest(3)
        committee, winner, rep = first(knora_e(region, cm, [[0, 1]], 2))
        assert np.flatnonzero(committee).tolist() == [0]
        assert winner == 0 and rep == 0

    def test_shrinks_to_one(self):
        # nobody is perfect on k=2; classifier 1 is right on the nearest
        pred = np.array([[1, 0], [0, 1]])
        truth = np.array([0, 0])
        cm = cm_with_proba(pred, truth, 2)
        region = nearest(2)
        committee, winner, rep = first(knora_e(region, cm, [[0, 1]], 2))
        assert np.flatnonzero(committee).tolist() == [1]
        assert rep == 1

    def test_fallback_to_all(self):
        pred = np.array([[1, 1]])
        truth = np.array([0])
        cm = cm_with_proba(pred, truth, 2)
        region = nearest(1)
        committee, winner, rep = first(knora_e(region, cm, [[0, 1]], 2))
        assert np.flatnonzero(committee).tolist() == [0, 1]


class TestKnoraU:
    def test_weighted_vote(self):
        pred = np.array([[0, 1, 0], [0, 1, 0], [0, 1, 1]])
        truth = np.array([0, 0, 1])
        cm = cm_with_proba(pred, truth, 2)
        region = nearest(3)
        weights, winner, rep = first(knora_u(region, cm, [[0, 1, 0]], 2))
        assert weights.tolist() == [2.0, 1.0, 3.0]
        assert winner == 0  # support 5 (clf 0 and 2) vs 1
        assert rep == 2     # heaviest voter for the winning class

    def test_all_zero_falls_back_to_plain_vote(self):
        pred = np.array([[1, 1, 1]])
        truth = np.array([0])
        cm = cm_with_proba(pred, truth, 2)
        region = nearest(1)
        weights, winner, rep = first(knora_u(region, cm, [[1, 1, 0]], 2))
        assert weights.tolist() == [1.0, 1.0, 1.0]
        assert winner == 1

    def test_class_tie_lower_index(self):
        pred = np.array([[0, 1], [0, 1], [1, 0], [1, 0]])
        truth = np.array([0, 0, 0, 0])
        cm = cm_with_proba(pred, truth, 2)
        region = nearest(4)
        weights, winner, rep = first(knora_u(region, cm, [[0, 1]], 2))
        assert weights.tolist() == [2.0, 2.0]
        assert winner == 0
        assert rep == 0

    def test_all_perfect_equals_majority_vote(self):
        rng = np.random.default_rng(3)
        truth = rng.integers(0, 3, size=9)
        pred = np.tile(truth[:, None], (1, 4))
        cm = cm_with_proba(pred, truth, 3)
        region = nearest(9)
        for labels in rng.integers(0, 3, size=(20, 4)):
            _, winner, _ = first(knora_u(region, cm, [labels], 3))
            mv_winner, _ = first(majority_vote([labels], 3))
            assert winner == mv_winner


class TestMajorityVote:
    def test_plurality(self):
        assert first(majority_vote([[0, 0, 1]], 2)) == (0, 0)

    def test_tie_lower_class(self):
        winner, rep = first(majority_vote([[0, 1]], 2))
        assert winner == 0 and rep == 0

    def test_unanimous(self):
        assert first(majority_vote([[2, 2, 2]], 3))[0] == 2


# ---------------------------------------------------------------------------
# the batched kernel and scorers against the per-query oracle
# ---------------------------------------------------------------------------


@st.composite
def knn_cases(draw):
    """A pool with duplicate rows and queries at planted distance ties.

    One pool row and one feature are drawn often. Beside unit scale, the
    pool's largest value may be 1e-160, where the squares underflow, or
    1e150, where they reach 1e300.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    N = draw(st.one_of(st.just(1), st.integers(1, 30)))
    F = draw(st.one_of(st.just(1), st.integers(1, 10)))
    if draw(st.booleans()):  # coarse grid: many equal distances
        pool = rng.integers(0, 3, size=(N, F)).astype(float)
    else:  # wide magnitudes: the summation order shows in the last bits
        pool = rng.normal(size=(N, F)) * 10.0 ** rng.integers(-3, 4, size=F)
    magnitude = draw(st.sampled_from([1.0, 1e-160, 1e150]))
    if magnitude != 1.0:
        pool *= magnitude / (np.abs(pool).max() or 1.0)
    dup = rng.integers(0, N, size=N // 3)
    pool[rng.integers(0, N, size=dup.size)] = pool[dup]
    Q = draw(st.integers(1, 12))
    a, b = pool[rng.integers(0, N, size=Q)], pool[rng.integers(0, N, size=Q)]
    queries = np.where(rng.random((Q, 1)) < 0.5, a, (a + b) / 2.0)
    queries[rng.random(Q) < 0.3] += rng.normal(size=F) * magnitude
    k = draw(st.sampled_from(["one", "all", "over", "some"]))
    k = {"one": 1, "all": N, "over": N + 2,
         "some": int(rng.integers(1, N + 1))}[k]
    return pool, queries, k


def benchmark_knn_case(shape):
    """(pool, queries, k) at the kernel's shape in a benchmark workload,
    over many NEAREST_BYTES blocks of queries, with many equal distances
    at the k-th neighbour:
    - "one_nn": the 1-NN's, k 1 over Gaussian rows, 150 of the pool rows
      planted twice and half the queries near one of them
    - "regions": the baselines' regions, k 7 over rows on a 0.01 grid
    """
    rng = np.random.default_rng(5)
    if shape == "one_nn":
        pool = rng.normal(size=(1500, 16))
        rows = rng.permutation(1500)
        pool[rows[150:300]] = pool[rows[:150]]
        queries = rng.normal(size=(600, 16))
        near = rng.random(600) < 0.5
        queries[near] = pool[rng.choice(rows[:150], near.sum())] \
            + 0.1 * rng.normal(size=(near.sum(), 16))
        return pool, queries, 1
    pool = rng.integers(-30, 30, size=(3000, 2)) * 0.01
    queries = rng.integers(-30, 30, size=(1000, 2)) * 0.01
    return pool, queries, 7


def reference_regions(queries, k, pool):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return [ref.region_of(x, k, pool) for x in queries]


class TestRegionOracle:
    @settings(max_examples=150)
    @given(knn_cases())
    def test_matches_per_query_scan(self, case):
        pool, queries, k = case
        want = reference_regions(queries, k, pool)
        N = pool.shape[0]
        # the default, whole batch in one block, three queries a block,
        # one a block, and a budget below one query
        for block_bytes in (kernels.NEAREST_BYTES, 1 << 40, 8 * N * 3, 8 * N,
                            0):
            with mock.patch.object(kernels, "NEAREST_BYTES", block_bytes), \
                    warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                neighbors, distances = region_of(queries, k, pool)
            assert len(caught) == (1 if k > N else 0)
            assert np.array_equal(neighbors,
                                  np.array([r.neighbors for r in want]))
            assert np.array_equal(distances,
                                  np.array([r.distances for r in want]))

    def test_k_below_one_rejected(self):
        with pytest.raises(ValueError, match="k must be >= 1"):
            region_of(np.zeros((2, 1)), 0, np.zeros((3, 1)))

    @pytest.mark.parametrize("order", ["drawn", "sorted"])
    @pytest.mark.parametrize("shape", ["one_nn", "regions"])
    def test_benchmark_shapes(self, shape, order):
        pool, queries, k = benchmark_knn_case(shape)
        if order == "sorted":  # as a dataset sorted by a feature is
            pool = pool[np.argsort(pool[:, 0], kind="stable")]
        assert queries.shape[0] > 4 * kernels.NEAREST_BYTES // (8 * len(pool))
        with mock.patch.object(np, "lexsort", wraps=np.lexsort) as lexsort:
            neighbors, d2 = kernels.nearest(queries, k, pool)
        # the filter leaves the exact recompute a few pool rows a neighbour
        kept = sum(len(call.args[0][0]) for call in lexsort.call_args_list)
        assert kept < 4 * k * len(queries)
        want = reference_regions(queries, k, pool)
        assert np.array_equal(neighbors, [r.neighbors for r in want])
        assert np.array_equal(d2, [r.squared for r in want])
        # a quarter of the queries or more have a (k+1)-th pool row as
        # near as the k-th, which only its index leaves out
        ties = [((pool - x) ** 2).sum(axis=1) <= r.squared[-1]
                for x, r in zip(queries, want)]
        assert np.count_nonzero(np.sum(ties, axis=1) > k) > len(queries) / 4


class TestNearestRange:
    @pytest.mark.parametrize("k", [0, 4])
    def test_k_outside_the_pool_raises(self, k):
        with pytest.raises(ValueError, match="k=%d is outside 1..3" % k):
            kernels.nearest(np.zeros((2, 1)), k, np.zeros((3, 1)))

    def test_k_of_the_pool_size_is_every_row_in_index_order(self):
        pool = np.array([[1.0], [-1.0], [2.0], [1.0], [-1.0]])
        neighbors, d2 = kernels.nearest(np.zeros((2, 1)), 5, pool)
        assert neighbors.tolist() == [[0, 1, 3, 4, 2]] * 2
        assert d2.tolist() == [[1.0, 1.0, 1.0, 1.0, 4.0]] * 2


@st.composite
def scorer_cases(draw):
    """Regions over a correctness matrix with soft and one-hot outputs."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    M = draw(st.integers(1, 25))
    n = draw(st.integers(1, 5))
    C = draw(st.integers(2, 4))
    Q = draw(st.integers(1, 10))
    k = draw(st.integers(1, M))
    truth = rng.integers(0, C, size=M)
    # mostly right, so that knora_e finds perfect runs of every length
    predicted = np.where(rng.random((M, n)) < 0.7, truth[:, None],
                         rng.integers(0, C, size=(M, n)))
    proba = rng.dirichlet(np.ones(C), size=(M, n))
    hard = rng.random(n) < 0.3
    proba[:, hard] = np.eye(C)[predicted[:, hard]]
    cm = CorrectnessMatrix(predicted, truth, C, proba=proba)
    neighbors = np.argsort(rng.random((Q, M)), axis=1)[:, :k]
    # sorted distances with ties and exact zeros
    distances = np.sort(rng.integers(0, 4, size=(Q, k)) * 0.5, axis=1)
    labels = np.where(rng.random((Q, n)) < 0.5, predicted[neighbors[:, 0]],
                      rng.integers(0, C, size=(Q, n)))
    similarity = draw(st.sampled_from([0.0, 0.5, 0.7, 1.0]))
    return cm, neighbors, distances, labels, C, similarity


SCORERS = {  # name -> (batched call, reference call on one Region)
    "ola": (lambda c, nb, d, L, C, s: ola(nb, c),
            lambda c, r, L, C, s: ref.ola(r, c)),
    "lca": (lambda c, nb, d, L, C, s: lca(nb, c, L),
            lambda c, r, L, C, s: ref.lca(r, c, L)),
    "apr": (lambda c, nb, d, L, C, s: apriori(nb, c),
            lambda c, r, L, C, s: ref.apriori(r, c)),
    "apr-weighted": (lambda c, nb, d, L, C, s: apriori(nb, c, d),
                     lambda c, r, L, C, s: ref.apriori(r, c, True)),
    "apo": (lambda c, nb, d, L, C, s: aposteriori(nb, c, L),
            lambda c, r, L, C, s: ref.aposteriori(r, c, L)),
    "apo-weighted": (lambda c, nb, d, L, C, s: aposteriori(nb, c, L, d),
                     lambda c, r, L, C, s: ref.aposteriori(r, c, L, True)),
    "mcb": (lambda c, nb, d, L, C, s: mcb(nb, c, L, s),
            lambda c, r, L, C, s: ref.mcb(r, c, L, s)),
}


class TestScorerOracle:
    @pytest.mark.parametrize("name", sorted(SCORERS))
    @settings(max_examples=80)
    @given(case=scorer_cases())
    def test_competence_matches_per_query(self, name, case):
        cm, nb, dist, labels, C, sim = case
        batched, single = SCORERS[name]
        scores = batched(cm, nb, dist, labels, C, sim)
        assert scores.shape == labels.shape
        for q in range(nb.shape[0]):
            region = ref.Region(nb[q], nb.shape[1], dist[q])
            want = single(cm, region, labels[q], C, sim)
            assert np.allclose(scores[q], want, rtol=1e-12, atol=0.0)
            assert np.argmax(scores[q]) == np.argmax(want)

    @settings(max_examples=80)
    @given(case=scorer_cases())
    def test_votes_match_per_query(self, case):
        cm, nb, _, labels, C, _ = case
        committee, e_winner, e_rep = knora_e(nb, cm, labels, C)
        weights, u_winner, u_rep = knora_u(nb, cm, labels, C)
        mv_winner, mv_rep = majority_vote(labels, C)
        for q in range(nb.shape[0]):
            region = ref.Region(nb[q], nb.shape[1])
            want = ref.knora_e(region, cm, labels[q], C)
            assert np.flatnonzero(committee[q]).tolist() == want[0].tolist()
            assert (e_winner[q], e_rep[q]) == want[1:]
            want = ref.knora_u(region, cm, labels[q], C)
            assert np.array_equal(weights[q], want[0])
            assert (u_winner[q], u_rep[q]) == want[1:]
            assert (mv_winner[q], mv_rep[q]) == \
                ref.majority_vote(labels[q], C)


BASELINE_METHODS = ("ola", "lca", "apr", "apo", "mcb", "knora_e", "knora_u",
                    "mv")


def tiny_prepared(tmp_path, **overrides):
    cfg = tiny_experiment_config(tmp_path)
    for key, value in overrides.items():
        setattr(cfg, key, value)
    name, path, label = cfg.datasets[0]
    return prepare_dataset(name, load_csv(path, label), cfg), cfg


class TestHarnessOracle:
    @pytest.mark.parametrize("k,weighted", [(7, False), (12, True)])
    def test_evaluate_method_matches_per_query(self, tmp_path, k, weighted):
        prep, cfg = tiny_prepared(tmp_path, knn_k=k,
                                  apr_distance_weighting=weighted)
        for method in BASELINE_METHODS:
            cell = evaluate_method(prep, method, cfg)
            chosen, predicted = ref.evaluate_baseline(prep, method, cfg)
            assert cell.outcomes is None
            assert np.array_equal(cell.chosen, chosen), method
            assert np.array_equal(cell.predicted, predicted), method

    def test_mv_reads_no_region(self, tmp_path, monkeypatch):
        prep, cfg = tiny_prepared(tmp_path)

        def no_regions(*args):
            raise AssertionError("mv built kNN regions")

        monkeypatch.setattr(bl, "region_of", no_regions)
        evaluate_method(prep, "mv", cfg)
        assert prep.regions is None

    @pytest.mark.parametrize("method,scorer", [
        ("ola", "ola"), ("lca", "lca"), ("apr", "apriori"),
        ("apo", "aposteriori"), ("mcb", "mcb"), ("knora_e", "knora_e"),
        ("knora_u", "knora_u"), ("mv", "majority_vote")])
    def test_scorer_looked_up_at_call_time(self, tmp_path, monkeypatch,
                                           method, scorer):
        # a wrapper installed on the module after import must be called
        prep, cfg = tiny_prepared(tmp_path)
        real, calls = getattr(bl, scorer), []

        def wrapped(*args):
            calls.append(scorer)
            return real(*args)

        monkeypatch.setattr(bl, scorer, wrapped)
        evaluate_method(prep, method, cfg)
        assert calls == [scorer]
