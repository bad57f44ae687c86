"""Base classifier contracts: probabilities, ties, determinism."""

import math
import os
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import classifiers_reference as ref
from cshc import kernels
from cshc.bundle import read_models, write_models
from cshc.classifiers import (ClassifierSpec, ExternalPredictions,
                              OneNNTrained, PerceptronTrained,
                              load_external_predictions,
                              predict_proba_batch, standardizer, train)
from cshc.data import DataError, Dataset, make_split
from cshc.harness import label_matrix
from test_baselines import benchmark_knn_case, knn_cases


def proba_of(model, x):
    """Class probabilities of one feature vector, scored as a batch of
    one row."""
    return model.proba_from_features(np.asarray(x, dtype=np.float64)[None])[0]


def class_of(model, x):
    """Predicted class of one feature vector: the probability argmax."""
    return int(np.argmax(proba_of(model, x)))


def classes_of(model, ds):
    """Predicted class of every row of a Dataset."""
    return predict_proba_batch(model, ds.features, ds.row_ids).argmax(axis=1)


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
            got = proba_of(model, [probe])
            assert got == pytest.approx(want, abs=1e-9)

    def test_separated_clusters_perfect_training_accuracy(self, two_blob_ds):
        model = train(ClassifierSpec("gaussian_nb"), two_blob_ds)
        pred = classes_of(model, two_blob_ds)
        assert (pred == two_blob_ds.labels).all()

    def test_equal_likelihood_prior_wins(self):
        # both classes share the same feature distribution; only the
        # prior differs, so the frequent class is always predicted
        X = np.array([[0.0], [1.0], [0.0], [1.0], [0.0], [1.0]])
        y = np.array([0, 0, 0, 0, 1, 1])
        ds = Dataset(X, y, ["f"], ["maj", "min"])
        model = train(ClassifierSpec("gaussian_nb"), ds)
        assert class_of(model, [0.5]) == 0

    def test_zero_variance_feature_smoothed(self):
        X = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 2.0], [1.0, 3.0]])
        y = np.array([0, 0, 1, 1])
        ds = Dataset(X, y, ["c", "f"], ["a", "b"])
        model = train(ClassifierSpec("gaussian_nb"), ds)
        p = proba_of(model, [1.0, 0.5])
        assert np.isfinite(p).all() and p.sum() == pytest.approx(1.0)


class TestOneNN:
    def test_resubstitution_perfect(self, two_blob_ds):
        model = train(ClassifierSpec("one_nn"), two_blob_ds)
        assert (classes_of(model, two_blob_ds) == two_blob_ds.labels).all()

    def test_one_hot_probability(self, two_blob_ds):
        model = train(ClassifierSpec("one_nn"), two_blob_ds)
        p = proba_of(model, two_blob_ds.features[3])
        assert sorted(p.tolist()) == [0.0, 1.0]

    def test_tie_goes_to_lower_index(self):
        X = np.array([[1.0], [-1.0], [1.0], [-1.0]])
        y = np.array([0, 1, 1, 0])
        ds = Dataset(X, y, ["f"], ["a", "b"])
        model = train(ClassifierSpec("one_nn"), ds)
        # standardizing keeps these rows; the query at 0 is equidistant
        # from all four, and row 0 wins
        assert class_of(model, [0.0]) == 0


def one_nn_model(pool):
    """A 1-NN over the pool's raw rows, one class per row, so that its
    probabilities name the nearest row."""
    N, F = pool.shape
    return OneNNTrained(ClassifierSpec("one_nn"), N, F, mean=np.zeros(F),
                        scale=np.ones(F), X=pool, y=np.arange(N))


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

    def test_benchmark_shape(self):
        pool, queries, _ = benchmark_knn_case("one_nn")
        model = one_nn_model(pool)
        assert np.array_equal(model.proba_from_features(queries),
                              ref.one_nn_proba(model, queries))

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
        assert (classes_of(model, ds) == y).all()

    def test_leaf_frequencies(self):
        # one feature, no useful split beyond x<=1.5: leaf (3,1) -> (0.75, 0.25)
        X = np.array([[1.0], [1.0], [1.0], [1.0], [2.0]])
        y = np.array([0, 0, 0, 1, 1])
        ds = Dataset(X, y, ["f"], ["a", "b"])
        model = train(ClassifierSpec("decision_tree_gini"), ds)
        p = proba_of(model, [1.0])
        assert p.tolist() == [0.75, 0.25]

    def test_xor_still_separated(self):
        X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        y = np.array([0, 1, 1, 0])
        ds = Dataset(X, y, ["a", "b"], ["x", "y"])
        model = train(ClassifierSpec("decision_tree_gini"), ds)
        assert (classes_of(model, ds) == y).all()


class TestPerceptron:
    def test_softmax_hand_computed(self):
        # scores (2, 0) -> (e^2, 1) normalized
        spec = ClassifierSpec("perceptron")
        W = np.array([[0.0, 2.0], [0.0, 0.0]])  # bias-only scores
        model = PerceptronTrained(spec, 2, 1, mean=np.zeros(1),
                                  scale=np.ones(1), W=W)
        p = proba_of(model, [0.0])
        want = [math.exp(2) / (math.exp(2) + 1), 1 / (math.exp(2) + 1)]
        assert p == pytest.approx(want, abs=1e-12)
        assert p[0] == pytest.approx(0.881, abs=5e-4)

    def test_zero_weights_predict_lowest_class(self):
        spec = ClassifierSpec("perceptron")
        model = PerceptronTrained(spec, 3, 2, mean=np.zeros(2),
                                  scale=np.ones(2), W=np.zeros((3, 3)))
        assert class_of(model, [4.0, -1.0]) == 0

    def test_learns_separable_blobs(self, two_blob_ds):
        model = train(ClassifierSpec("perceptron"), two_blob_ds)
        assert (classes_of(model, two_blob_ds) == two_blob_ds.labels).all()


@st.composite
def perceptron_cases(draw):
    """A dataset for the perceptron. Grid data of whole numbers meets
    exact-zero margins; a column may be constant and columns span scales
    1e-3 to 1e3."""
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
    return ds


class TestPerceptronOracle:
    @settings(max_examples=150)
    @given(perceptron_cases())
    def test_weights_match_the_numpy_step(self, ds):
        model = train(ClassifierSpec("perceptron"), ds)
        mean, scale = standardizer(ds.features)
        want = ref.perceptron_weights(ds, mean, scale)
        assert model.W.tobytes() == want.tobytes()
        assert model.mean.tobytes() == mean.tobytes()
        assert model.scale.tobytes() == scale.tobytes()


class TestSharedContracts:
    @pytest.mark.parametrize("kind", ["gaussian_nb", "one_nn",
                                      "decision_tree_gini", "perceptron"])
    def test_predict_is_argmax_of_proba(self, kind, two_blob_ds):
        """The class the program gives each row of a batch is the argmax
        of that row's probabilities."""
        model = train(ClassifierSpec(kind), two_blob_ds)
        rng = np.random.default_rng(2)
        probes = rng.normal(scale=3.0, size=(50, 2))
        labels = label_matrix([model], probes, np.arange(50))[:, 0]
        for x, label in zip(probes, labels):
            p = proba_of(model, x)
            assert p.sum() == pytest.approx(1.0, abs=1e-9)
            assert p.min() >= 0
            assert label == int(np.argmax(p))

    @pytest.mark.parametrize("kind", ["gaussian_nb", "one_nn",
                                      "decision_tree_gini", "perceptron"])
    def test_retraining_reproduces_predictions(self, kind, two_blob_ds):
        m1 = train(ClassifierSpec(kind), two_blob_ds)
        m2 = train(ClassifierSpec(kind), two_blob_ds)
        probes = np.random.default_rng(3).normal(scale=2.0, size=(30, 2))
        for x in probes:
            assert np.array_equal(proba_of(m1, x), proba_of(m2, x))

    @pytest.mark.parametrize("kind", ["gaussian_nb", "one_nn",
                                      "decision_tree_gini", "perceptron"])
    def test_state_round_trip(self, kind, two_blob_ds):
        m1 = train(ClassifierSpec(kind), two_blob_ds)
        with tempfile.TemporaryDirectory() as tmp:
            write_models(tmp, [m1])
            m2, = read_models(tmp, 1, m1.n_classes, m1.n_features)
        probes = np.random.default_rng(4).normal(scale=2.0, size=(20, 2))
        for x in probes:
            assert np.array_equal(proba_of(m1, x), proba_of(m2, x))

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

    def test_unknown_kind(self):
        with pytest.raises(DataError, match="unknown classifier kind"):
            ClassifierSpec("svm")

    @pytest.mark.parametrize("kind", ["gaussian_nb", "one_nn",
                                      "decision_tree_gini", "perceptron"])
    def test_native_kind_refuses_a_table(self, kind):
        table = ExternalPredictions(np.arange(2), np.eye(2))
        with pytest.raises(DataError, match="classifier 'm' of kind %r takes "
                           "no predictions table" % kind):
            ClassifierSpec(kind, "m", table)

    def test_external_kind_needs_a_table(self):
        with pytest.raises(DataError, match="external classifier 'e' needs "
                           "a predictions table"):
            ClassifierSpec("external", "e")

    @pytest.mark.parametrize("kind", ["gaussian_nb", "one_nn",
                                      "decision_tree_gini", "perceptron"])
    @pytest.mark.parametrize("width", [1, 3])
    def test_rows_of_another_width_are_refused(self, kind, width,
                                               two_blob_ds):
        """A model trained on 2 features neither broadcasts a narrower
        batch nor reads part of a wider one."""
        model = train(ClassifierSpec(kind), two_blob_ds)
        with pytest.raises(DataError, match="classifier %r was trained on 2 "
                           "features, got rows of %d" % (kind, width)):
            model.proba_from_features(np.zeros((3, width)))


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
                              table=load_external_predictions(p))
        model = train(spec, two_blob_ds)
        proba = predict_proba_batch(model, two_blob_ds.features,
                                    two_blob_ds.row_ids)
        assert (proba.argmax(axis=1) == two_blob_ds.labels).all()
        with pytest.raises(DataError, match="keyed by sample index"):
            proba_of(model, [0.0, 0.0])

    @pytest.mark.parametrize("row", ["0,0,nan,0.5", "0,1,nan,0.5",
                                     "0,0,inf,0.5", "0,1,0.5,-inf",
                                     "0,0,nan,nan"])
    def test_non_finite_probability_rejected(self, tmp_path, row):
        """A NaN or infinite cell fails its row; `0,0,nan,0.5` once loaded
        as [nan, 0.5], since NaN passes neither comparison and argmax
        returns the NaN's index."""
        p = self._write(tmp_path / "e.csv", ["1,0,0.75,0.25", row],
                        header="sample_index,predicted_class,p0,p1")
        with pytest.raises(DataError, match="row 3: probabilities sum to"):
            load_external_predictions(p)

    @pytest.mark.parametrize("header", ["sample_index,predicted_class",
                                        "sample_index,predicted_class,p0,p1"])
    def test_repeated_index_rejected(self, tmp_path, header):
        """Each sample index appears once; a repeat is an error naming it,
        not a silent overwrite by the later row."""
        cells = ",1.0,0.0" if header.endswith("p1") else ""
        rows = ["%d,0%s" % (i, cells) for i in (4, 7, 2, 7, 9, 4)]
        p = self._write(tmp_path / "e.csv", rows, header=header)
        with pytest.raises(DataError,
                           match="sample index 4 appears more than once"):
            load_external_predictions(p, n_classes=2)

    @pytest.mark.parametrize("cells", ["9223372036854775808,0",
                                       "-9223372036854775809,0",
                                       "5,9223372036854775808"])
    def test_integer_beyond_64_bits_names_its_row(self, tmp_path, cells):
        p = self._write(tmp_path / "e.csv", ["0,0", cells, "1,1"])
        with pytest.raises(DataError, match="e.csv: row 3: "):
            load_external_predictions(p, n_classes=2)

    def test_empty_table_misses_every_index(self):
        table = ExternalPredictions(np.zeros(0, dtype=np.int64),
                                    np.zeros((0, 3)), path="e.csv")
        with pytest.raises(DataError, match="sample index 5 \\(2 missing"):
            table.proba_rows([5, 0])

    @pytest.mark.parametrize("n_classes", [None, 3])
    def test_header_only_file_has_no_data_rows(self, tmp_path, n_classes):
        p = self._write(tmp_path / "e.csv", [])
        with pytest.raises(DataError) as got:
            load_external_predictions(p, n_classes=n_classes)
        assert str(got.value) == "%s: no data rows" % p


# mutations of one data row of a predictions file; each names the error
# the loaders raise for it
MUTATIONS = ("sum", "negative", "argmax", "ragged", "index", "class_low",
             "class_high")


def mutate(rows, r, kind, C, rng):
    """Apply one mutation to data row r (a list of cells) in place."""
    cells = rows[r]
    label = int(cells[1])
    proba = [float(v) for v in cells[2:]]
    if kind == "sum" and proba:
        cells[2:] = [repr(1.5 * v) for v in proba]
    elif kind == "negative" and proba:
        other = (label + 1 + int(rng.integers(0, C - 1))) % C
        proba[label] += proba[other] + 0.01  # the sum stays 1
        proba[other] = -0.01
        cells[2:] = [repr(v) for v in proba]
    elif kind == "argmax":
        cells[1] = str((label + 1) % C)
    elif kind == "ragged":
        if proba:
            del cells[-1]
        else:
            cells.append("0.5")
    elif kind == "index":
        cells[0] = str(rng.choice(["1.5", "x", "", " 7e2"]))
    elif kind == "class_low":
        cells[1] = str(rng.choice([-1, -5]))
    elif kind == "class_high":
        cells[1] = str(rng.choice([C, C + 3]))


def prediction_file(rng, N, C, with_proba):
    """(rows, header, queries): a predictions file's data rows as cell
    lists, with or without probability columns, sample ids shuffled and
    with gaps; and batches of sample ids to look up, some naming ids the
    file lacks."""
    ids = rng.permutation(rng.choice(3 * N + 4, size=N, replace=False))
    labels = rng.integers(0, C, size=N)
    header = "sample_index,predicted_class"
    if with_proba:
        header += "".join(",p%d" % c for c in range(C))
    rows = []
    for i, label in zip(ids.tolist(), labels.tolist()):
        cells = [str(i), str(label)]
        if with_proba:
            p = rng.random(C)
            p[label] = p.max() + rng.random() + 1e-3  # a strict argmax
            cells += [repr(float(v)) for v in p / p.sum()]
        rows.append(cells)
    absent = np.setdiff1d(np.arange(3 * N + 6), ids)
    queries = [ids, rng.choice(ids, size=rng.integers(1, 3 * N))]
    for _ in range(2):
        q = rng.choice(ids, size=rng.integers(1, 2 * N))
        at = rng.integers(0, q.size, size=rng.integers(1, 4))
        q[at] = rng.choice(absent, size=at.size)
        queries.append(q)
    return rows, header, queries


def write_rows(path, header, rows, rng):
    """Write the file, with blank lines between some rows."""
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for cells in rows:
            if rng.random() < 0.1:
                fh.write("\n")
            fh.write(",".join(cells) + "\n")


def same_error(call, want):
    with pytest.raises(DataError) as got:
        call()
    assert str(got.value) == str(want)


def same_as_the_dict_loader(rows, header, n_classes, queries, rng):
    """The program's table and the dict-based one load the same file and
    look up the same batches to the same bytes, or fail with the same
    DataError text."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "e.csv")
        write_rows(path, header, rows, rng)
        try:
            want = ref.load_external_predictions(path, n_classes)
        except DataError as exc:
            same_error(lambda: load_external_predictions(
                path, n_classes=n_classes), exc)
            return str(exc)
        table = load_external_predictions(path, n_classes=n_classes)
    assert table.n_classes == want.n_classes
    for q in queries:
        try:
            expected = want.proba_rows(q)
        except DataError as exc:
            same_error(lambda: table.proba_rows(q), exc)
            continue
        got = table.proba_rows(q)
        assert got.dtype == expected.dtype
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()
    return None


class TestExternalOracle:
    """The sorted-array table loads and looks up what the dict-based
    loader did, bit for bit, and fails with the same message."""

    @settings(max_examples=200)
    @given(seed=st.integers(0, 2 ** 32 - 1), N=st.integers(1, 40),
           C=st.integers(2, 5), with_proba=st.booleans(),
           give_classes=st.booleans())
    def test_matches_the_dict_loader(self, seed, N, C, with_proba,
                                     give_classes):
        """Up to two distinct rows are mutated, so that which error comes
        first is checked too."""
        rng = np.random.default_rng(seed)
        rows, header, queries = prediction_file(rng, N, C, with_proba)
        k = int(rng.integers(0, min(N, 2) + 1))
        for r, kind in zip(rng.choice(N, size=k, replace=False).tolist(),
                           rng.choice(MUTATIONS, size=k)):
            mutate(rows, r, kind, C, rng)
        same_as_the_dict_loader(rows, header, C if give_classes else None,
                                queries, rng)

    @pytest.mark.parametrize("kind", MUTATIONS)
    @pytest.mark.parametrize("with_proba", [True, False])
    def test_each_mutation_fails_alike(self, kind, with_proba):
        rng = np.random.default_rng(MUTATIONS.index(kind))
        rows, header, queries = prediction_file(rng, 12, 3, with_proba)
        mutate(rows, 5, kind, 3, rng)
        message = same_as_the_dict_loader(rows, header, 3, queries, rng)
        # the probability checks pass a file without probability columns
        assert (message is None) == (
            kind in ("sum", "negative", "argmax") and not with_proba)
