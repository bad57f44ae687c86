"""Base classifier contracts: probabilities, ties, determinism."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import classifiers_reference as ref
from cshc import kernels
from cshc.classifiers import (ClassifierSpec, OneNNTrained, PerceptronTrained,
                              _Scaler, _scaler_for,
                              load_external_predictions,
                              model_from_state, model_state, predict,
                              predict_batch, predict_proba,
                              predict_proba_batch, train)
from cshc.data import DataError, Dataset, make_split
from test_baselines import knn_cases


def hand_gaussian_posterior(x, priors, means, stds):
    """1-D Bayes rule computed longhand for the oracle comparison."""
    dens = [p * math.exp(-((x - m) ** 2) / (2 * s * s)) / (math.sqrt(2 * math.pi) * s)
            for p, m, s in zip(priors, means, stds)]
    z = sum(dens)
    return [d / z for d in dens]


class TestGaussianNB:
    def test_matches_hand_bayes_1d(self):
        rng = np.random.default_rng(0)
        x0 = rng.normal(-2.0, 0.5, 40)
        x1 = rng.normal(2.0, 1.5, 60)
        X = np.concatenate([x0, x1])[:, None]
        y = np.array([0] * 40 + [1] * 60)
        ds = Dataset(X, y, ["f"], ["a", "b"])
        model = train(ClassifierSpec("gaussian_nb"), ds)
        eps = 1e-9 * X.var(axis=0).max()
        priors = [0.4, 0.6]
        means = [x0.mean(), x1.mean()]
        stds = [math.sqrt(x0.var() + eps), math.sqrt(x1.var() + eps)]
        for probe in [-3.0, -1.0, 0.0, 0.5, 1.5, 3.0]:
            want = hand_gaussian_posterior(probe, priors, means, stds)
            got = predict_proba(model, [probe])
            assert got == pytest.approx(want, abs=1e-9)

    def test_separated_clusters_perfect_training_accuracy(self, two_blob_ds):
        model = train(ClassifierSpec("gaussian_nb"), two_blob_ds)
        pred = predict_batch(model, two_blob_ds)
        assert (pred == two_blob_ds.labels).all()

    def test_equal_likelihood_prior_wins(self):
        # both classes share the same feature distribution; only the
        # prior differs, so the frequent class is always predicted
        X = np.array([[0.0], [1.0], [0.0], [1.0], [0.0], [1.0]])
        y = np.array([0, 0, 0, 0, 1, 1])
        ds = Dataset(X, y, ["f"], ["maj", "min"])
        model = train(ClassifierSpec("gaussian_nb"), ds)
        assert predict(model, [0.5]) == 0

    def test_zero_variance_feature_smoothed(self):
        X = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 2.0], [1.0, 3.0]])
        y = np.array([0, 0, 1, 1])
        ds = Dataset(X, y, ["c", "f"], ["a", "b"])
        model = train(ClassifierSpec("gaussian_nb"), ds)
        p = predict_proba(model, [1.0, 0.5])
        assert np.isfinite(p).all() and p.sum() == pytest.approx(1.0)


class TestOneNN:
    def test_resubstitution_perfect(self, two_blob_ds):
        model = train(ClassifierSpec("one_nn"), two_blob_ds)
        assert (predict_batch(model, two_blob_ds) == two_blob_ds.labels).all()

    def test_one_hot_probability(self, two_blob_ds):
        model = train(ClassifierSpec("one_nn"), two_blob_ds)
        p = predict_proba(model, two_blob_ds.features[3])
        assert sorted(p.tolist()) == [0.0, 1.0]

    def test_tie_goes_to_lower_index(self):
        X = np.array([[1.0], [-1.0], [1.0], [-1.0]])
        y = np.array([0, 1, 1, 0])
        ds = Dataset(X, y, ["f"], ["a", "b"])
        model = train(ClassifierSpec("one_nn", hyperparams={"standardize": False}), ds)
        # query at 0 is equidistant from all four; row 0 wins
        assert predict(model, [0.0]) == 0


def one_nn_model(pool):
    """A 1-NN over the pool's raw rows, one class per row, so that its
    probabilities name the nearest row."""
    N, F = pool.shape
    return OneNNTrained(ClassifierSpec("one_nn"), N, F, _Scaler.identity(F),
                        pool, np.arange(N))


def same_scores(model, X):
    """model's probabilities for X equal the per-row reference's, or both
    raise a DataError of the same text."""
    try:
        want = ref.one_nn_proba(model, X)
    except DataError as exc:
        with pytest.raises(DataError) as got:
            model.proba_from_features(X)
        assert str(got.value) == str(exc)
        return str(exc)
    assert np.array_equal(model.proba_from_features(X), want)
    return None


class TestOneNNOracle:
    @settings(max_examples=150)
    @given(knn_cases())
    def test_matches_per_row_scan(self, case):
        pool, queries, _ = case
        model = one_nn_model(pool)
        want = ref.one_nn_proba(model, queries)
        N = pool.shape[0]
        # the default, whole batch in one block, one row a block, and a
        # budget below one row
        for block_bytes in (kernels.NEAREST_BYTES, 1 << 40, 8 * N, 0):
            with mock.patch.object(kernels, "NEAREST_BYTES", block_bytes):
                assert np.array_equal(model.proba_from_features(queries),
                                      want)

    @pytest.mark.parametrize("value", [1e153, 1e154, 2e154, 1e200, 1e308])
    @pytest.mark.parametrize("where", ["model", "query"])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_overflow_parity(self, value, where, sign):
        """A huge model point or query value scores as the per-row scan
        does, or fails with the DataError it raises."""
        rng = np.random.default_rng(int(np.log10(value)))
        pool = rng.normal(size=(20, 3))
        queries = rng.normal(size=(6, 3))
        target = pool if where == "model" else queries
        target[4, 1] = sign * value
        model = one_nn_model(pool)
        for block_bytes in (kernels.NEAREST_BYTES, 8 * 20):
            with mock.patch.object(kernels, "NEAREST_BYTES", block_bytes):
                same_scores(model, queries)

    def test_scale_near_the_maximum_scans_every_row(self):
        """Row 1's distance overflows although (|q| + max |p|)^2 rounds to
        a finite value, and its filter value is far above row 0's: only
        a scan of every pool row meets the overflow."""
        q = np.array([[8.867845646816343e+152, 5.273306691625034e+153,
                       4.0432880238072254e+153]])
        message = same_scores(one_nn_model(np.vstack([np.zeros(3), -q])), q)
        assert message.endswith("overflow encountered in reduce while "
                                "scoring")

    def test_first_overflowing_row_names_the_error(self):
        """In one batch, the error is the one the per-row scan meets first:
        a sum that overflows (reduce), a square or a difference."""
        small = np.array([[0.0, 0.0], [1.0, 1.0]])
        huge = np.array([[0.0, 0.0], [-1e308, 0.0]])
        rows = {"reduce": [1e154, 1e154], "square": [2e154, 0.0],
                "subtract": [1e308, 0.0], "fine": [0.5, 0.5]}
        messages = set()
        for pool, order in ((small, ["fine", "reduce", "square"]),
                            (small, ["square", "reduce"]),
                            (huge, ["fine", "square", "subtract"]),
                            (huge, ["subtract", "square"])):
            messages.add(same_scores(one_nn_model(pool),
                                     np.array([rows[r] for r in order])))
        assert {m.split(" in ")[1] for m in messages} == \
            {"reduce while scoring", "square while scoring",
             "subtract while scoring"}


class TestGiniTree:
    def test_resubstitution_perfect_on_consistent_data(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(40, 3))
        y = rng.integers(0, 3, size=40)
        ds = Dataset(X, y, ["a", "b", "c"], ["x", "y", "z"])
        model = train(ClassifierSpec("decision_tree_gini"), ds)
        assert (predict_batch(model, ds) == y).all()

    def test_leaf_frequencies(self):
        # one feature, no useful split beyond x<=1.5: leaf (3,1) -> (0.75, 0.25)
        X = np.array([[1.0], [1.0], [1.0], [1.0], [2.0]])
        y = np.array([0, 0, 0, 1, 1])
        ds = Dataset(X, y, ["f"], ["a", "b"])
        model = train(ClassifierSpec("decision_tree_gini"), ds)
        p = predict_proba(model, [1.0])
        assert p.tolist() == [0.75, 0.25]

    def test_xor_still_separated(self):
        X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        y = np.array([0, 1, 1, 0])
        ds = Dataset(X, y, ["a", "b"], ["x", "y"])
        model = train(ClassifierSpec("decision_tree_gini"), ds)
        assert (predict_batch(model, ds) == y).all()


class TestPerceptron:
    def test_softmax_hand_computed(self):
        # scores (2, 0) -> (e^2, 1) normalized
        spec = ClassifierSpec("perceptron")
        W = np.array([[0.0, 2.0], [0.0, 0.0]])  # bias-only scores
        model = PerceptronTrained(spec, 2, 1, _Scaler.identity(1), W)
        p = predict_proba(model, [0.0])
        want = [math.exp(2) / (math.exp(2) + 1), 1 / (math.exp(2) + 1)]
        assert p == pytest.approx(want, abs=1e-12)
        assert p[0] == pytest.approx(0.881, abs=5e-4)

    def test_zero_weights_predict_lowest_class(self):
        spec = ClassifierSpec("perceptron")
        model = PerceptronTrained(spec, 3, 2, _Scaler.identity(2),
                                  np.zeros((3, 3)))
        assert predict(model, [4.0, -1.0]) == 0

    def test_learns_separable_blobs(self, two_blob_ds):
        model = train(ClassifierSpec("perceptron"), two_blob_ds)
        assert (predict_batch(model, two_blob_ds) == two_blob_ds.labels).all()


@st.composite
def perceptron_cases(draw):
    """A dataset and a standardize flag for the perceptron. Grid data of
    whole numbers meets exact-zero margins; a column may be constant and
    columns span scales 1e-3 to 1e3."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    S = draw(st.one_of(st.just(1), st.integers(1, 300)))
    F = draw(st.integers(1, 8))
    C = draw(st.integers(2, 5))
    if draw(st.booleans()):
        X = rng.integers(-2, 3, size=(S, F)).astype(float)
    else:
        X = rng.normal(size=(S, F))
    X *= 10.0 ** rng.integers(-3, 4, size=F)
    if draw(st.booleans()):
        X[:, rng.integers(0, F)] = draw(st.sampled_from([0.0, 1.0, -3.5]))
    ds = Dataset(X, rng.integers(0, C, size=S),
                 ["f%d" % j for j in range(F)],
                 ["c%d" % c for c in range(C)])
    return ds, draw(st.booleans())


class TestPerceptronOracle:
    @settings(max_examples=150)
    @given(perceptron_cases())
    def test_weights_match_the_numpy_step(self, case):
        ds, standardize = case
        spec = ClassifierSpec("perceptron",
                              hyperparams={"standardize": standardize})
        model = train(spec, ds)
        want = ref.perceptron_weights(ds, _scaler_for(spec, ds.features))
        assert model.W.tobytes() == want.tobytes()


class TestSharedContracts:
    @pytest.mark.parametrize("kind", ["gaussian_nb", "one_nn",
                                      "decision_tree_gini", "perceptron"])
    def test_predict_is_argmax_of_proba(self, kind, two_blob_ds):
        model = train(ClassifierSpec(kind), two_blob_ds)
        rng = np.random.default_rng(2)
        probes = rng.normal(scale=3.0, size=(50, 2))
        for x in probes:
            p = predict_proba(model, x)
            assert p.sum() == pytest.approx(1.0, abs=1e-9)
            assert p.min() >= 0
            assert predict(model, x) == int(np.argmax(p))

    @pytest.mark.parametrize("kind", ["gaussian_nb", "one_nn",
                                      "decision_tree_gini", "perceptron"])
    def test_retraining_reproduces_predictions(self, kind, two_blob_ds):
        m1 = train(ClassifierSpec(kind), two_blob_ds)
        m2 = train(ClassifierSpec(kind), two_blob_ds)
        probes = np.random.default_rng(3).normal(scale=2.0, size=(30, 2))
        for x in probes:
            assert np.array_equal(predict_proba(m1, x), predict_proba(m2, x))

    @pytest.mark.parametrize("kind", ["gaussian_nb", "one_nn",
                                      "decision_tree_gini", "perceptron"])
    def test_state_round_trip(self, kind, two_blob_ds):
        m1 = train(ClassifierSpec(kind), two_blob_ds)
        m2 = model_from_state(model_state(m1), m1.n_classes, m1.n_features)
        probes = np.random.default_rng(4).normal(scale=2.0, size=(20, 2))
        for x in probes:
            assert np.array_equal(predict_proba(m1, x), predict_proba(m2, x))

    @pytest.mark.parametrize("kind", ["gaussian_nb", "one_nn",
                                      "decision_tree_gini", "perceptron"])
    @settings(max_examples=25)
    @given(seed=st.integers(0, 2 ** 32 - 1), grid=st.booleans())
    def test_rows_score_alone_as_in_the_batch(self, kind, seed, grid):
        rng = np.random.default_rng(seed)
        S, F, C = rng.integers(5, 400), rng.integers(1, 8), rng.integers(2, 5)
        if grid:  # many equal distances and split values
            X = rng.integers(0, 3, size=(S, F)).astype(float)
        else:
            X = rng.normal(size=(S, F)) * 10.0 ** rng.integers(-3, 4, size=F)
        ds = Dataset(X, rng.integers(0, C, size=S),
                     ["f%d" % j for j in range(F)],
                     ["c%d" % c for c in range(C)])
        model = train(ClassifierSpec(kind), ds)
        Q = rng.integers(1, 600)
        queries = X[rng.integers(0, S, size=Q)]
        queries[rng.random(Q) < 0.5] += rng.normal(size=F) * X.std(axis=0)
        full = model.proba_from_features(queries)
        for i in range(min(Q, 10)):
            assert np.array_equal(model.proba_from_features(queries[i:i + 1]),
                                  full[i:i + 1])
        for size in rng.integers(1, Q + 1, size=5):
            rows = rng.choice(Q, size=size, replace=False)
            assert np.array_equal(model.proba_from_features(queries[rows]),
                                  full[rows])

    def test_dimension_mismatch(self, two_blob_ds):
        model = train(ClassifierSpec("gaussian_nb"), two_blob_ds)
        with pytest.raises(DataError, match="features"):
            predict(model, [1.0, 2.0, 3.0])

    def test_unknown_kind(self):
        with pytest.raises(DataError, match="unknown classifier kind"):
            ClassifierSpec("svm")

    @pytest.mark.parametrize("kind,hyperparams,key", [
        ("perceptron", {"epochs": 3}, "epochs"),
        ("perceptron", {"learning_rate": 0.5}, "learning_rate"),
        ("gaussian_nb", {"standardise": True}, "standardise"),
        ("external", {"path": "p.csv", "standardize": True}, "standardize"),
    ])
    def test_unknown_hyperparameter(self, kind, hyperparams, key):
        """A setting no model reads is refused, not silently ignored."""
        with pytest.raises(DataError,
                           match="unknown hyperparameter %r" % key):
            ClassifierSpec(kind, hyperparams=hyperparams)


class TestExternal:
    def _write(self, path, rows, header="sample_index,predicted_class"):
        path.write_text(header + "\n" + "\n".join(rows) + "\n")
        return str(path)

    def test_full_coverage_accepted(self, tmp_path, two_blob_ds):
        plan = make_split(two_blob_ds, 0.5, seed=0)
        p = self._write(tmp_path / "e.csv",
                        ["%d,%d" % (i, 0) for i in range(60)])
        table = load_external_predictions(p, split=plan, n_classes=2)
        assert table.n_classes == 2

    def test_missing_index_named(self, tmp_path, two_blob_ds):
        plan = make_split(two_blob_ds, 0.5, seed=0)
        rows = ["%d,0" % i for i in range(60) if i != 17]
        p = self._write(tmp_path / "e.csv", rows)
        with pytest.raises(DataError, match="sample index 17"):
            load_external_predictions(p, split=plan, n_classes=2)

    def test_probability_normalization_error(self, tmp_path):
        p = self._write(tmp_path / "e.csv", ["0,1,0.5,0.6"],
                        header="sample_index,predicted_class,p0,p1")
        with pytest.raises(DataError, match="sum to"):
            load_external_predictions(p)

    def test_usable_as_classifier(self, tmp_path, two_blob_ds):
        rows = ["%d,%d" % (i, two_blob_ds.labels[i]) for i in range(60)]
        p = self._write(tmp_path / "e.csv", rows)
        spec = ClassifierSpec("external", name="oracle-ish",
                              hyperparams={"path": p})
        model = train(spec, two_blob_ds)
        proba = predict_proba_batch(model, two_blob_ds)
        assert (proba.argmax(axis=1) == two_blob_ds.labels).all()
        with pytest.raises(DataError, match="keyed by sample index"):
            predict(model, [0.0, 0.0])
