"""Ingestion, split and correctness-matrix behaviour."""

import csv
import io
import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import data_reference as ref
from cshc import classifiers, data
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
FAULTS = ("bad", "nan", "inf", "overflow", "short", "long")
# what the C parse must leave to the per-row reader or read alike, each
# valid in some places and a fault in others: a `#` line, a
# whitespace-only line, a quoted cell, a line ended by a lone \r or by
# \r\n, a NUL, digit underscores, non-ASCII digits, `+5`, `1.0`, a
# 21-digit number, and a first data row wider than the header
HAZARDS = ("comment", "blank", "quoted", "cr", "crlf", "nul", "underscore",
           "unicode_digits", "plus", "float_int", "huge", "wide_first")
CELL_MUTATIONS = FAULTS + HAZARDS


def cell_text(rng, x):
    """A cell float() reads as a finite number, in one of the spellings a
    file may hold: x plain, with an exponent, scaled to an integer or in
    surrounding spaces."""
    style = int(rng.integers(0, 4))
    if style == 1:
        return "%.3e" % x
    if style == 2:
        return str(int(round(x * 100)))
    if style == 3:
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


def line(cells):
    """A row's text, quoting every cell that holds a comma."""
    return ",".join('"%s"' % c if "," in c else c for c in cells)


def unicode_digits(text):
    """text with its ASCII digits written as Arabic-Indic digits, which
    float() and int() read as the same number."""
    return "".join(chr(0x660 + int(c)) if c.isdigit() else c for c in text)


def mutate_row(rows, r, kind, label_pos, rng):
    """Apply one mutation to data row r (a list of cells) in place. A
    mutation of the row's line replaces it by its text, line end
    included."""
    if kind == "wide_first":
        r, kind = 0, "long"
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
    elif kind == "comment":
        rows[r] = "#" + line(cells) + "\n"
    elif kind == "blank":
        rows[r] = str(rng.choice([" ", "\t", "  \t "])) + "\n"
    elif kind == "quoted":
        at = int(rng.integers(0, len(cells)))
        cells[at] = '"%s"' % cells[at]
    elif kind in ("cr", "crlf"):
        rows[r] = line(cells) + ("\r" if kind == "cr" else "\r\n")
    elif kind == "nul":
        cells[int(rng.integers(0, len(cells)))] += "\0"
    elif kind == "underscore":
        cells[at] = "1_0%d.%d" % (rng.integers(0, 10), rng.integers(0, 100))
    elif kind == "unicode_digits":
        cells[at] = unicode_digits(cells[at])
    elif kind == "plus":
        cells[at] = "+5"
    elif kind == "float_int":
        cells[at] = "1.0"
    elif kind == "huge":
        cells[at] = str(rng.choice(["123456789012345678901",
                                    "-999999999999999999999"]))


def write_dataset(path, header, rows, rng):
    """Write the file, with blank lines between some rows and after the
    last; a row that is text is written as it is."""
    with open(path, "w", newline="") as fh:
        fh.write(line(header) + "\n")
        for cells in rows:
            if rng.random() < 0.1:
                fh.write("\n")
            fh.write(cells if isinstance(cells, str) else line(cells) + "\n")
        if rng.random() < 0.2:
            fh.write("\n\n")


def same_result(call, oracle):
    """call() returns what oracle() returns, or raises the error oracle()
    raises, of the same type and with the same text."""
    try:
        want = oracle()
    except Exception as exc:
        with pytest.raises(type(exc)) as got:
            call()
        assert type(got.value) is type(exc)
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


def reads_alike(path, header, label_pos):
    """The dataset file, whose header was written as header, reads alike
    with its label column or, when label_pos is None, as query rows of
    that header; its error text, or None."""
    if label_pos is not None:
        return same_result(lambda: load_csv(path, "label"),
                           lambda: ref.load_csv(path, "label"))
    names = [h.strip() for h in header]
    return same_result(lambda: load_feature_rows(path, names),
                       lambda: ref.load_feature_rows(path, names))


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

    @staticmethod
    def mutated_file_reads_alike(path, kind, F, label_pos):
        """The file of 8 rows whose row 6 takes the mutation (row 1, for
        "wide_first") reads alike; its error text, or None."""
        rng = np.random.default_rng(CELL_MUTATIONS.index(kind))
        header, rows = dataset_rows(rng, 8, F, label_pos)
        mutate_row(rows, 5, kind, label_pos, rng)
        write_dataset(path, header, rows, rng)
        return reads_alike(path, header, label_pos)

    @pytest.mark.parametrize("names", ["one short", "one over"])
    @pytest.mark.parametrize("label_pos", [0, 2, None])
    def test_rows_wider_or_narrower_than_the_header_fail_alike(
            self, tmp_path, names, label_pos):
        """Every row has one cell more, or one less, than the header has
        names. The C parse takes its width from the first data row, so
        rows that agree with each other must still agree with the
        header."""
        rng = np.random.default_rng(1)
        header, rows = dataset_rows(rng, 6, 3, label_pos)
        header = header[:-1] if names == "one short" else header + ["f9"]
        path = str(tmp_path / "d.csv")
        write_dataset(path, header, rows, rng)
        assert "cells, expected" in reads_alike(path, header, label_pos)

    @pytest.mark.parametrize("text", ["\nf0,label\n1,a\n2,b\n", "\n1\n2\n"])
    def test_an_empty_first_line_reads_alike(self, tmp_path, text):
        """csv reads it as a header of no names, not as one empty name,
        which a bundle trained on a header of one blank name holds."""
        path = write_csv(tmp_path / "d.csv", text)
        if "label" in text:
            message = same_result(lambda: load_csv(path, "label"),
                                  lambda: ref.load_csv(path, "label"))
        else:
            message = same_result(lambda: load_feature_rows(path, [""]),
                                  lambda: ref.load_feature_rows(path, [""]))
        assert message is not None

    @pytest.mark.parametrize("label_pos", [0, None])
    def test_a_cell_beyond_the_csv_field_limit_fails_alike(self, tmp_path,
                                                           label_pos):
        """csv refuses the file, and both readers fail with a DataError
        that names the file and the row; the C parse must not read it."""
        rng = np.random.default_rng(0)
        header, rows = dataset_rows(rng, 4, 2, label_pos)
        rows[2][-1] = "0" * csv.field_size_limit() + "1"
        path = str(tmp_path / "d.csv")
        write_dataset(path, header, rows, rng)
        message = reads_alike(path, header, label_pos)
        with open(path, newline="") as fh:
            row = 1 + fh.read().split("\n").index(line(rows[2]))
        assert message == "%s: row %d: field larger than field limit (%d)" % (
            path, row, csv.field_size_limit())

    @pytest.mark.parametrize("kind", CELL_MUTATIONS)
    @pytest.mark.parametrize("label_pos", [0, 2, None])
    def test_each_mutation_fails_alike(self, tmp_path, kind, label_pos):
        """Every fault fails; a hazard may be a valid spelling."""
        message = self.mutated_file_reads_alike(str(tmp_path / "d.csv"),
                                                kind, 2, label_pos)
        assert message is not None or kind in HAZARDS

    @pytest.mark.parametrize("kind", CELL_MUTATIONS)
    def test_one_column_file_reads_alike(self, tmp_path, kind):
        """In a file of one column a long row is a fault, and so is a
        whitespace-only line, which is one blank cell: the C parse must
        not skip it."""
        message = self.mutated_file_reads_alike(str(tmp_path / "d.csv"),
                                                kind, 1, None)
        # a one-cell row that loses its cell is a blank line
        valid = ("short", "quoted", "cr", "crlf", "underscore",
                 "unicode_digits", "plus", "float_int", "huge")
        assert (message is None) == (kind in valid)


class TestCParse:
    """A clean file never reaches the per-row reader, so the one C parse
    cannot quietly turn into reading every file row by row; a file it
    refuses does, and reads the same."""

    @pytest.fixture
    def per_row_reads(self, monkeypatch):
        """The paths the per-row reader reads, in order."""
        paths = []
        read_records = data.read_records

        def spy(path):
            paths.append(path)
            return read_records(path)

        for module in (data, classifiers):
            monkeypatch.setattr(module, "read_records", spy)
        return paths

    @staticmethod
    def clean_files(tmp_path, rng, newline):
        """A dataset, a query file and predictions files without and with
        probability cells, with blank lines, spaces around cells and
        labels, and the given line end."""
        X = rng.normal(0, 50, size=(30, 3))
        labels = rng.choice(["a", " b", "c "], size=30)
        p = rng.dirichlet(np.ones(3), size=30)
        texts = {
            "d.csv": ["f0, f1 ,label,f2"] + [
                "%r,%.3e,%s, %.5f " % (a, b, y, c)
                for (a, b, c), y in zip(X.tolist(), labels)],
            "q.csv": ["f0,f1,f2"] + ["%r,%r,%d" % (a, b, c * 100)
                                     for a, b, c in X.tolist()],
            "e.csv": ["sample_index,predicted_class"] + [
                "%d, %d" % (3 * i, c) for i, c in enumerate(p.argmax(1))],
            "ep.csv": ["sample_index,predicted_class,p0,p1,p2"] + [
                "%d,%d,%s" % (i, c, ",".join(map(repr, row)))
                for i, (c, row) in enumerate(zip(p.argmax(1), p.tolist()))],
        }
        paths = {}
        for name, lines in texts.items():
            lines.insert(int(rng.integers(2, len(lines))), "")
            paths[name] = str(tmp_path / name)
            with open(paths[name], "w", newline="") as fh:
                fh.write(newline.join(lines) + newline)
        return paths

    @staticmethod
    def load_all(paths):
        return (load_csv(paths["d.csv"], "label"),
                load_feature_rows(paths["q.csv"], ["f0", "f1", "f2"]),
                classifiers.load_external_predictions(paths["e.csv"]),
                classifiers.load_external_predictions(paths["ep.csv"]))

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    def test_clean_files_take_the_c_parse(self, tmp_path, per_row_reads,
                                          newline):
        paths = self.clean_files(tmp_path, np.random.default_rng(3),
                                 newline)
        ds, X, table, table_p = self.load_all(paths)
        assert per_row_reads == []
        assert sorted(ds.class_names) == ["a", "b", "c"]
        assert X.shape == (30, 3)
        assert table.n_classes == 3 and table_p.proba.shape == (30, 3)

    @staticmethod
    def loadtxt_reading(monkeypatch, edit):
        """Make np.loadtxt parse edit(text) of the text it is given, as a
        numpy version that reads a file otherwise might."""
        loadtxt = np.loadtxt

        def edited(fh, **kwargs):
            return loadtxt(io.BytesIO(edit(fh.read())), **kwargs)

        monkeypatch.setattr(np, "loadtxt", edited)

    def test_a_whitespace_only_line_is_refused_whatever_loadtxt_does(
            self, tmp_path, monkeypatch):
        self.loadtxt_reading(monkeypatch, lambda text: re.sub(
            rb"(?m)^[ \t]+\n", b"", text))
        path = write_csv(tmp_path / "q.csv", "x\n1\n \n2\n")
        with pytest.raises(DataError) as got:
            load_feature_rows(path, ["x"])
        assert str(got.value) == (
            "%s: row 3, column 'x': non-numeric value ' '" % path)

    def test_rows_loadtxt_drops_are_not_trusted(self, tmp_path, monkeypatch):
        self.loadtxt_reading(monkeypatch, lambda text: text[:-2])
        path = write_csv(tmp_path / "q.csv", "x\n1\n2\n3\n")
        assert load_feature_rows(path, ["x"]).tolist() == [[1.0], [2.0],
                                                           [3.0]]

    def test_a_quoted_cell_takes_the_per_row_reader(self, tmp_path,
                                                    per_row_reads):
        paths = self.clean_files(tmp_path, np.random.default_rng(3), "\n")
        fast = self.load_all(paths)
        for path in paths.values():
            with open(path) as fh:
                head, first, rest = fh.read().split("\n", 2)
            cells = first.split(",")
            cells[-1] = '"%s"' % cells[-1]
            with open(path, "w") as fh:
                fh.write("\n".join([head, ",".join(cells), rest]))
        slow = self.load_all(paths)
        assert per_row_reads == list(paths.values())
        assert slow[0].features.tobytes() == fast[0].features.tobytes()
        assert slow[0].labels.tolist() == fast[0].labels.tolist()
        assert slow[1].tobytes() == fast[1].tobytes()
        for got, want in zip(slow[2:], fast[2:]):
            assert got.ids.tobytes() == want.ids.tobytes()
            assert got.proba.tobytes() == want.proba.tobytes()


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
