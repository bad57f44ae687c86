"""Ingestion, split and correctness-matrix behaviour."""

import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import data_reference as ref
from cshc.classifiers import (ClassifierSpec, build_correctness_cv3,
                              build_correctness_holdout)
from cshc.data import (CorrectnessMatrix, DataError, Dataset, load_csv,
                       load_feature_rows, make_split, stratified_folds)


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


# ways to break one data row: a cell that is not a finite number, in a
# feature column, or a row one cell short or long
CELL_MUTATIONS = ("bad", "nan", "inf", "overflow", "short", "long")


def cell_text(rng, x):
    """A cell float() reads as a finite number, in one of the spellings a
    file may hold: x plain, with an exponent, scaled to an integer or in
    surrounding spaces, or a number with digit underscores."""
    style = int(rng.integers(0, 5))
    if style == 1:
        return "%.3e" % x
    if style == 2:
        return str(int(round(x * 100)))
    if style == 3:
        return "1_0%d.%d" % (rng.integers(0, 10), rng.integers(0, 100))
    if style == 4:
        return " %.5f  " % x
    return repr(x)


def dataset_rows(rng, N, F, label_pos):
    """(header, rows): a headered dataset's names and data rows as cell
    lists, F feature columns and, unless label_pos is None, a label
    column at label_pos of one to three classes."""
    header = ["f%d" % j if rng.random() < 0.8 else " f%d " % j
              for j in range(F)]
    n_classes = int(rng.integers(1, 4))
    rows = []
    for _ in range(N):
        cells = [cell_text(rng, x) for x in rng.normal(0, 50, F).tolist()]
        if label_pos is not None:
            cells.insert(label_pos, rng.choice(["a", " b", "c "][:n_classes]))
        rows.append(cells)
    if label_pos is not None:
        header.insert(label_pos, "label")
    return header, rows


def mutate_row(rows, r, kind, label_pos, rng):
    """Apply one mutation to data row r (a list of cells) in place."""
    cells = rows[r]
    features = [i for i in range(len(cells)) if i != label_pos]
    at = int(rng.choice(features))
    if kind == "bad":
        cells[at] = str(rng.choice(["x", "", "1..2", "1,5", "_1"]))
    elif kind == "nan":
        cells[at] = str(rng.choice(["nan", " NaN", "-nan"]))
    elif kind == "inf":
        cells[at] = str(rng.choice(["inf", "-Infinity", " +inf "]))
    elif kind == "overflow":
        cells[at] = str(rng.choice(["1e400", "-1_0e999"]))
    elif kind == "short":
        del cells[at]
    elif kind == "long":
        cells.insert(at, "1.0")


def write_dataset(path, header, rows, rng):
    """Write the file, quoting every cell that holds a comma, with blank
    lines between some rows and after the last."""
    def line(cells):
        return ",".join('"%s"' % c if "," in c else c for c in cells)
    with open(path, "w") as fh:
        fh.write(line(header) + "\n")
        for cells in rows:
            if rng.random() < 0.1:
                fh.write("\n")
            fh.write(line(cells) + "\n")
        if rng.random() < 0.2:
            fh.write("\n\n")


def same_result(call, oracle):
    """call() returns what oracle() returns, or raises the DataError
    oracle() raises, with the same text."""
    try:
        want = oracle()
    except DataError as exc:
        with pytest.raises(DataError) as got:
            call()
        assert str(got.value) == str(exc)
        return str(exc)
    got = call()
    if isinstance(want, Dataset):
        assert got.feature_names == want.feature_names
        assert got.class_names == want.class_names
        assert got.labels.tolist() == want.labels.tolist()
        got, want = got.features, want.features
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    return None


class TestReaderOracle:
    """The one reader and the columnar parse give what the per-cell
    readers gave, bit for bit, and fail with the same message: the first
    fault down the file, a row's cell count before its cells."""

    @settings(max_examples=200)
    @given(seed=st.integers(0, 2 ** 32 - 1), N=st.integers(0, 25),
           F=st.integers(1, 5), with_label=st.booleans(),
           k=st.integers(0, 2))
    def test_matches_the_per_cell_reader(self, seed, N, F, with_label, k):
        """Up to two distinct rows are mutated, so that which fault is
        reported first is checked too."""
        rng = np.random.default_rng(seed)
        label_pos = int(rng.integers(0, F + 1)) if with_label else None
        header, rows = dataset_rows(rng, N, F, label_pos)
        k = min(k, N)
        for r, kind in zip(rng.choice(N, size=k, replace=False).tolist(),
                           rng.choice(CELL_MUTATIONS, size=k)):
            mutate_row(rows, r, kind, label_pos, rng)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "d.csv")
            write_dataset(path, header, rows, rng)
            if with_label:
                same_result(lambda: load_csv(path, "label"),
                            lambda: ref.load_csv(path, "label"))
            else:
                names = [h.strip() for h in header]
                if rng.random() < 0.1:
                    names = names[::-1] + ["extra"]
                same_result(lambda: load_feature_rows(path, names),
                            lambda: ref.load_feature_rows(path, names))

    @pytest.mark.parametrize("kind", CELL_MUTATIONS)
    @pytest.mark.parametrize("label_pos", [0, 2, None])
    def test_each_mutation_fails_alike(self, tmp_path, kind, label_pos):
        rng = np.random.default_rng(CELL_MUTATIONS.index(kind))
        header, rows = dataset_rows(rng, 8, 2, label_pos)
        mutate_row(rows, 5, kind, label_pos, rng)
        path = str(tmp_path / "d.csv")
        write_dataset(path, header, rows, rng)
        names = [h.strip() for h in header]
        message = (same_result(lambda: load_csv(path, "label"),
                               lambda: ref.load_csv(path, "label"))
                   if label_pos is not None else
                   same_result(lambda: load_feature_rows(path, names),
                               lambda: ref.load_feature_rows(path, names)))
        assert message is not None


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

    @settings(max_examples=300, derandomize=True)
    @given(st.lists(st.integers(2, 40), min_size=2, max_size=6),
           st.floats(0.01, 0.99), st.integers(0, 99))
    def test_test_side_size(self, sizes, fraction, seed):
        """The test side gets round(fraction * n) rows, clamped to
        [1, n - 1], or every row but one of each class when that is
        fewer."""
        C = len(sizes)
        labels = np.repeat(np.arange(C), sizes)
        n = labels.size
        ds = Dataset(np.zeros((n, 1)), labels, ["a"],
                     ["c%d" % c for c in range(C)])
        target = min(max(int(np.floor(fraction * n + 0.5)), 1), n - 1)
        plan = make_split(ds, fraction, seed)
        assert plan.test_indices.size == min(target, n - C)
        assert (np.bincount(labels[plan.train_indices], minlength=C)
                >= 1).all()


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
