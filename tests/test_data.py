"""Ingestion, split and correctness-matrix behaviour."""

import numpy as np
import pytest

from cshc.classifiers import ClassifierSpec
from cshc.data import (CorrectnessMatrix, DataError, Dataset,
                       build_correctness_cv3, build_correctness_holdout,
                       load_csv, make_split, stratified_folds)


def write_csv(path, text):
    path.write_text(text)
    return str(path)


class TestLoadCsv:
    def test_first_appearance_encoding(self, tmp_path):
        p = write_csv(tmp_path / "t.csv", "f,label\n1,a\n2,b\n3,a\n")
        ds = load_csv(p, "label")
        assert ds.labels.tolist() == [0, 1, 0]
        assert ds.class_names == ["a", "b"]
        assert ds.n_classes == 2

    def test_nan_cell_names_row_and_column(self, tmp_path):
        p = write_csv(tmp_path / "t.csv", "f,g,label\n1,2,a\n1,NaN,b\n")
        with pytest.raises(DataError, match=r"row 3, column 'g'"):
            load_csv(p, "label")

    def test_non_numeric_cell(self, tmp_path):
        p = write_csv(tmp_path / "t.csv", "f,label\nfoo,a\n1,b\n")
        with pytest.raises(DataError, match="non-numeric"):
            load_csv(p, "label")

    def test_missing_label_column(self, tmp_path):
        p = write_csv(tmp_path / "t.csv", "f,g\n1,2\n")
        with pytest.raises(DataError, match="'label' not found"):
            load_csv(p, "label")

    def test_empty_file(self, tmp_path):
        p = write_csv(tmp_path / "t.csv", "")
        with pytest.raises(DataError, match="empty"):
            load_csv(p, "label")

    def test_single_class_rejected(self, tmp_path):
        p = write_csv(tmp_path / "t.csv", "f,label\n1,a\n2,a\n")
        with pytest.raises(DataError, match="only one class"):
            load_csv(p, "label")

    def test_breast_w_sized_file(self, tmp_path):
        # 699 rows, 9 features, matching the real benchmark's shape
        rng = np.random.default_rng(0)
        lines = ["f%d" % i for i in range(9)]
        text = ",".join(lines) + ",label\n"
        labels = ["benign"] * 458 + ["malig"] * 241
        for i in range(699):
            text += ",".join("%.3f" % v for v in rng.uniform(0, 10, 9))
            text += ",%s\n" % labels[i]
        p = write_csv(tmp_path / "bw.csv", text)
        ds = load_csv(p, "label")
        assert ds.n_samples == 699
        assert ds.n_features == 9


class TestMakeSplit:
    def test_balanced_100_fraction_033(self):
        ds = Dataset(np.arange(200, dtype=float).reshape(100, 2),
                     np.array([0, 1] * 50), ["a", "b"], ["x", "y"])
        plan = make_split(ds, 0.33, seed=5)
        assert plan.test_indices.size == 33
        per_class = np.bincount(ds.labels[plan.test_indices])
        assert sorted(per_class.tolist()) == [16, 17]

    def test_deterministic(self):
        ds = Dataset(np.random.default_rng(1).normal(size=(60, 3)),
                     np.array([0, 1, 2] * 20), ["a", "b", "c"],
                     ["x", "y", "z"])
        p1 = make_split(ds, 0.25, seed=9)
        p2 = make_split(ds, 0.25, seed=9)
        assert np.array_equal(p1.train_indices, p2.train_indices)
        assert np.array_equal(p1.test_indices, p2.test_indices)
        p3 = make_split(ds, 0.25, seed=10)
        assert not np.array_equal(p1.test_indices, p3.test_indices)

    def test_breast_w_counts(self):
        # 699 rows at a one-third-ish test fraction -> 468 train / 231 test
        labels = np.array([0] * 458 + [1] * 241)
        ds = Dataset(np.arange(699 * 2, dtype=float).reshape(699, 2),
                     labels, ["a", "b"], ["x", "y"])
        plan = make_split(ds, 0.33, seed=3)
        assert plan.train_indices.size == 468
        assert plan.test_indices.size == 231

    def test_small_class_rejected(self):
        ds = Dataset(np.zeros((5, 1)) + np.arange(5)[:, None],
                     np.array([0, 0, 0, 0, 1]), ["a"], ["x", "y"])
        with pytest.raises(DataError, match="at least 2"):
            make_split(ds, 0.4, seed=1)

    def test_partition_covers_everything(self):
        rng = np.random.default_rng(4)
        ds = Dataset(rng.normal(size=(83, 2)), rng.integers(0, 3, 83),
                     ["a", "b"], ["x", "y", "z"])
        plan = make_split(ds, 0.3, seed=2)
        merged = np.sort(np.concatenate([plan.train_indices, plan.test_indices]))
        assert np.array_equal(merged, np.arange(83))


class TestCorrectnessMatrix:
    def test_recompute_matches_stored(self):
        pred = np.array([[0, 1], [1, 1], [0, 0]])
        truth = np.array([0, 1, 1])
        cm = CorrectnessMatrix(pred, truth, 2)
        assert cm.correct.tolist() == [[1, 0], [1, 1], [0, 0]]


class TestCv3:
    def test_folds_partition_and_stratify(self):
        labels = np.array([0, 1, 2] * 9)
        fold = stratified_folds(labels, 3, 3, seed=0)
        assert np.bincount(fold).tolist() == [9, 9, 9]
        for c in range(3):
            assert np.bincount(fold[labels == c], minlength=3).tolist() == [3, 3, 3]

    def test_nine_samples_three_folds(self):
        # each fold holds one sample per class; a 1-NN trained on the
        # other folds never sees the held-out row
        X = np.array([[i, 0.0] for i in range(9)])
        y = np.array([0, 1, 2] * 3)
        ds = Dataset(X, y, ["a", "b"], ["x", "y", "z"])
        fold = stratified_folds(y, 3, 3, seed=5)
        assert np.bincount(fold).tolist() == [3, 3, 3]
        cm, finals, fold_out = build_correctness_cv3(
            ds, [ClassifierSpec("one_nn"), ClassifierSpec("gaussian_nb")], seed=5)
        assert cm.n_samples == 9
        assert np.array_equal(np.sort(np.unique(fold_out)), np.arange(3))
        assert len(finals) == 2

    def test_memorizer_not_perfect_on_noisy_duplicates(self):
        # duplicated feature vectors with conflicting labels: resubstitution
        # would score 100%, held-out prediction cannot
        rng = np.random.default_rng(8)
        base = rng.normal(size=(12, 2))
        X = np.vstack([base, base])
        y = np.concatenate([np.zeros(12, dtype=int), np.ones(12, dtype=int)])
        ds = Dataset(X, y, ["a", "b"], ["x", "y"])
        cm, _, _ = build_correctness_cv3(ds, [ClassifierSpec("one_nn")], seed=1)
        assert cm.correct[:, 0].mean() < 1.0

    def test_constant_classifier_all_ones_when_truth_constantish(self):
        # classifier that always predicts the majority class is correct
        # exactly on that class's rows
        X = np.arange(24, dtype=float).reshape(12, 2)
        y = np.array([0] * 9 + [1] * 3)
        ds = Dataset(X, y, ["a", "b"], ["x", "y"])
        cm, _, _ = build_correctness_cv3(ds, [ClassifierSpec("gaussian_nb")],
                                         seed=2)
        assert set(np.unique(cm.correct)) <= {0, 1}


class TestHoldout:
    def _halves(self, two_blob_ds):
        plan = make_split(two_blob_ds, 0.5, seed=0)
        return (two_blob_ds.subset(plan.train_indices),
                two_blob_ds.subset(plan.test_indices))

    def test_shapes_and_perfect_column(self, two_blob_ds):
        a, b = self._halves(two_blob_ds)
        cm, models = build_correctness_holdout(
            a, b, [ClassifierSpec("one_nn"), ClassifierSpec("gaussian_nb")])
        assert cm.predicted.shape == (b.n_samples, 2)
        # blobs are linearly separable: both columns should be all-ones
        assert cm.correct.all()

    def test_empty_b_rejected(self, two_blob_ds):
        a, _ = self._halves(two_blob_ds)
        empty = Dataset(np.zeros((1, 2)), np.array([0]), ["a", "b"],
                        ["x", "y"])
        empty.features = np.zeros((0, 2))
        empty.labels = np.zeros(0, dtype=np.int64)
        with pytest.raises(DataError):
            build_correctness_holdout(a, empty, [ClassifierSpec("one_nn")])
