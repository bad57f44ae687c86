"""Tabular data: CSV input and output, stratified splits and folds, and
the correctness matrix type.

Every input CSV is first offered to ``parse_rows``, whose one C
``np.loadtxt`` call parses all data rows of the file into arrays, so no
GC-tracked object is built per row. A file that parse refuses, or whose
rows fail a check, goes to the per-row reader instead: ``read_records``,
then ``feature_matrix`` or the external loader's row loop. That reader
alone words every error, and it reads the same values, so a file gives
the same arrays and the same ``DataError`` on either path. Every CSV is
written by ``write_csv``."""

import contextlib
import csv
import io
import json
import math
import numbers
import os
import sys
import warnings
from dataclasses import dataclass, field

import numpy as np

from .rng import substream


class DataError(ValueError):
    """Raised for malformed input data or impossible split requests."""


@dataclass
class Dataset:
    """Numeric feature matrix with integer class labels.

    Labels are encoded 0..C-1 in order of first appearance. ``row_ids``
    track positions in the originating file so subsets stay joinable
    with externally computed predictions.
    """

    features: np.ndarray
    labels: np.ndarray
    feature_names: list
    class_names: list
    row_ids: np.ndarray = None

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.row_ids is None:
            self.row_ids = np.arange(self.n_samples, dtype=np.int64)
        else:
            self.row_ids = np.asarray(self.row_ids, dtype=np.int64)
        if self.features.ndim != 2 or self.n_samples < 1 or self.n_features < 1:
            raise DataError("feature matrix must be non-empty and 2-D")
        if not np.isfinite(self.features).all():
            raise DataError("feature matrix contains non-finite values")
        if len(self.class_names) < 2:
            raise DataError("need at least 2 classes, got %d" % len(self.class_names))
        if self.labels.shape != (self.n_samples,):
            raise DataError("labels must be one per sample")
        if self.labels.min() < 0 or self.labels.max() >= len(self.class_names):
            raise DataError("label out of range")

    @property
    def n_samples(self):
        return self.features.shape[0]

    @property
    def n_features(self):
        return self.features.shape[1]

    @property
    def n_classes(self):
        return len(self.class_names)

    def subset(self, indices):
        """Row subset sharing the class encoding (classes may be absent)."""
        indices = np.asarray(indices, dtype=np.int64)
        return Dataset(
            self.features[indices],
            self.labels[indices],
            self.feature_names,
            self.class_names,
            row_ids=self.row_ids[indices],
        )


@dataclass
class SplitPlan:
    train_indices: np.ndarray
    test_indices: np.ndarray

    def __post_init__(self):
        self.train_indices = np.asarray(self.train_indices, dtype=np.int64)
        self.test_indices = np.asarray(self.test_indices, dtype=np.int64)
        if self.train_indices.size == 0 or self.test_indices.size == 0:
            raise DataError("both split sides must be non-empty")
        both = np.concatenate([self.train_indices, self.test_indices])
        if np.unique(both).size != both.size:
            raise DataError("train/test indices overlap or repeat")


@dataclass
class CorrectnessMatrix:
    """Per-sample, per-classifier validation outcome.

    predicted[i, a] is classifier a's label for row i, truth[i] the real
    class of n_classes and correct[i, a] the 0/1 agreement bit.
    ``proba`` optionally keeps the class-probability outputs of the same
    validation-time models (needed by the probability-based neighborhood
    baselines).
    """

    predicted: np.ndarray
    truth: np.ndarray
    n_classes: int
    proba: np.ndarray = None
    correct: np.ndarray = field(init=False)

    def __post_init__(self):
        self.predicted = np.asarray(self.predicted, dtype=np.int64)
        self.truth = np.asarray(self.truth, dtype=np.int64)
        self.correct = (self.predicted == self.truth[:, None]).astype(np.int64)

    @property
    def n_samples(self):
        return self.predicted.shape[0]

    @property
    def n_classifiers(self):
        return self.predicted.shape[1]

    def classifier_accuracies(self):
        return self.correct.mean(axis=0)


def open_input(path, **kwargs):
    """``open`` for reading a file the user named; a missing or unreadable
    file, or a path open refuses (a NUL byte in it), is a DataError naming
    the path."""
    try:
        return open(path, **kwargs)
    except (OSError, ValueError) as exc:
        raise DataError("%s: cannot read: %s"
                        % (path, getattr(exc, "strerror", exc))) from None


def load_json(path):
    """The parsed contents of a JSON file the user named; a file that
    cannot be read or is not valid JSON is a DataError naming the path."""
    with open_input(path) as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            raise DataError("%s: not valid JSON: %s" % (path, exc)) from None


def require_int(value, name):
    """value, a loaded integer, else a DataError naming it."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise DataError("%s must be an integer, got %r" % (name, value))
    return int(value)


def require_finite(value, name):
    """value, a finite number, else a DataError naming it."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not math.isfinite(value)):
        raise DataError("%s must be a finite number, got %r" % (name, value))
    return value


# HiGHS reads a bound of 1e20 or more as infinite
GAMMA_BOUND = 1e20


def require_gamma(value, name):
    """value, a finite LP margin below GAMMA_BOUND, else a DataError
    naming it."""
    if require_finite(value, name) >= GAMMA_BOUND:
        raise DataError("%s must be below %g, HiGHS's infinite bound, got %r"
                        % (name, GAMMA_BOUND, value))
    return value


# the bytes the C parse reads: printable ASCII but the quote, tab and
# newline. Python's float() and int() read a control byte, a non-ASCII
# digit or a quoted cell otherwise than loadtxt, or not at all
_PLAIN = bytes(range(0x20, 0x7F)).replace(b'"', b"") + b"\t\n"


def parse_rows(path, layout):
    """(header, rows) of a headered CSV whose data rows one C
    ``np.loadtxt`` call parses, or None for a file the per-row reader
    must read.

    ``layout(header, width)`` gives the structured dtype of a row, or
    None to refuse the file; header holds the header's names stripped of
    spaces, and width is the cell count of the first data row. The parse
    is offered only what ``read_records`` and ``float``/``int`` read
    alike. So it refuses a file that holds:

    - a byte outside ``_PLAIN``, or a line longer than csv's field
      limit;
    - a cell loadtxt fails or warns on, as it does for one that
      ``float`` or ``int`` reads otherwise (digit underscores, ``1.0``
      or a 21-digit number as an integer), or a row of another width
      than the dtype;
    - a non-blank line loadtxt reads as no row, as some numpy versions
      may a whitespace-only line;
    - a float that is not finite.

    Line ends are csv's: a newline, a carriage return and the two
    together.
    """
    with open_input(path, mode="rb") as fh:
        data = fh.read()
    if b"\r" in data:  # csv's other two line ends, as newlines
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    if data.translate(None, _PLAIN):
        return None
    ends = np.flatnonzero(np.frombuffer(data, np.uint8) == ord("\n"))
    if not data.endswith(b"\n"):
        ends = np.append(ends, len(data))
    sizes = np.diff(ends, prepend=-1) - 1
    lines = np.flatnonzero(sizes[1:]) + 1  # the non-blank data lines
    head = data[:ends[0]]
    # csv reads an empty first line as a header of no names
    if not (lines.size and head) or sizes.max() > csv.field_size_limit():
        return None
    header = [h.strip() for h in head.decode("ascii").split(",")]
    dtype = layout(header, data.count(b",", ends[lines[0] - 1],
                                      ends[lines[0]]) + 1)
    if dtype is None:
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = np.loadtxt(io.BytesIO(data), dtype=dtype, delimiter=",",
                              comments=None, skiprows=1, encoding=None,
                              ndmin=1)
    except (ValueError, TypeError, ArithmeticError, Warning):
        return None  # what loadtxt refuses, the per-row reader words
    finite = all(np.isfinite(rows[name]).all() for name in rows.dtype.names
                 if rows.dtype[name].base.kind == "f")
    # one row a non-blank line: csv reads a whitespace-only line as a row
    return (header, rows) if finite and rows.shape == lines.shape else None


def read_records(path):
    """(header, records, linenos) of a headered CSV: the header's names
    stripped of spaces, the non-blank records after it, and their row
    numbers in the file, the header being row 1."""
    with open_input(path, newline="") as fh:
        rows = []
        try:  # csv refuses a row with a cell beyond its field size limit
            rows.extend(csv.reader(fh))
        except csv.Error as exc:
            raise DataError("%s: row %d: %s" % (path, len(rows) + 1, exc)) from None
    if not rows:
        raise DataError("%s: file is empty" % path)
    linenos = [n for n, rec in enumerate(rows[1:], start=2) if rec]
    return ([h.strip() for h in rows[0]], [rows[n - 1] for n in linenos],
            linenos)


def write_csv(path, header, rows):
    """Write the header and then rows as CSV to the file path, making its
    directory, or to stdout when path is None."""
    if path is None:
        target = contextlib.nullcontext(sys.stdout)
    else:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        target = open(path, "w", newline="")
    with target as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _number(cell):
    try:
        return float(cell)
    except ValueError:
        return math.nan


def feature_matrix(path, header, records, linenos, skip=None):
    """The (N, F) float matrix of the records' cells, leaving out column
    ``skip``. There must be a record, every record must have one cell per
    header name, and every cell kept must parse with ``float`` to a
    finite number; the first fault down the file is reported with its row
    number (and column name), a row's cell count before its cells."""
    if not records:
        raise DataError("%s: no data rows" % path)
    cols = [i for i in range(len(header)) if i != skip]
    n = next((r for r, rec in enumerate(records) if len(rec) != len(header)),
             len(records))
    X = np.array([_number(rec[i]) for rec in records[:n] for i in cols],
                 dtype=np.float64).reshape(n, len(cols))
    finite = np.isfinite(X)
    if not finite.all():
        r, c = divmod(int(np.argmin(finite)), len(cols))
        raise DataError("%s: row %d, column %r: non-numeric value %r"
                        % (path, linenos[r], header[cols[c]], records[r][cols[c]]))
    if n < len(records):
        raise DataError("%s: row %d has %d cells, expected %d"
                        % (path, linenos[n], len(records[n]), len(header)))
    return X


def _floats(name, n):
    """The field of a row dtype that holds n float columns, as a list that
    is empty when n is 0."""
    return [(name, "<f8", (n,))] if n else []


def load_csv(path, label_column):
    """Load a headered CSV into a Dataset.

    All non-label columns must parse as finite floats; violations are
    reported with row and column names. Classes are encoded by first
    appearance down the file.
    """
    def layout(header, width):
        if width != len(header) or width < 2 or label_column not in header:
            return None
        at = header.index(label_column)
        return (_floats("before", at) + [("label", "O")]
                + _floats("after", width - 1 - at))

    parsed = parse_rows(path, layout)
    if parsed is not None:
        header, rows = parsed
        label_pos = header.index(label_column)
        X = np.hstack([rows[name] for name in rows.dtype.names
                       if name != "label"])
        cells = rows["label"].tolist()
    else:
        header, records, linenos = read_records(path)
        if label_column not in header:
            raise DataError(
                "%s: label column %r not found (columns: %s)"
                % (path, label_column, ", ".join(header))
            )
        label_pos = header.index(label_column)
        X = feature_matrix(path, header, records, linenos, skip=label_pos)
        cells = [rec[label_pos] for rec in records]
    # classes by first appearance of the stripped cell, each distinct cell
    # stripped once
    class_ids, class_of = {}, {}
    for cell in dict.fromkeys(cells):
        class_of[cell] = class_ids.setdefault(cell.strip(), len(class_ids))
    if len(class_ids) < 2:
        raise DataError("%s: only one class (%r) present"
                        % (path, next(iter(class_ids))))
    return Dataset(X, np.fromiter(map(class_of.get, cells), np.int64,
                                  len(cells)),
                   [h for i, h in enumerate(header) if i != label_pos],
                   list(class_ids))


def load_feature_rows(path, feature_names):
    """Feature matrix of a headered CSV whose columns are exactly
    ``feature_names``, checked like the feature cells of ``load_csv``."""
    def layout(header, width):
        if header == feature_names and width == len(header):
            return _floats("x", width)
        return None

    parsed = parse_rows(path, layout)
    if parsed is not None:
        return parsed[1]["x"]
    header, records, linenos = read_records(path)
    if header != feature_names:
        raise DataError("input columns %s do not match the bundle's %s"
                        % (header, feature_names))
    return feature_matrix(path, header, records, linenos)


def _round_half_up(x):
    return int(np.floor(x + 0.5))


def _stratified_take(labels, n_classes, fraction, rng):
    """Pick ~fraction of indices per class, largest-remainder apportioned.

    Every class keeps at least one sample on the complement side.
    Returns a sorted index array of the taken side.
    """
    per_class = [np.nonzero(labels == c)[0] for c in range(n_classes)]
    for c, idx in enumerate(per_class):
        if idx.size < 2:
            raise DataError(
                "class %d has %d sample(s); at least 2 are needed to stratify"
                % (c, idx.size)
            )
    n = labels.size
    target = _round_half_up(fraction * n)
    target = min(max(target, 1), n - 1)
    ideal = np.array([fraction * idx.size for idx in per_class])
    take = np.floor(ideal).astype(int)
    caps = np.array([idx.size - 1 for idx in per_class])
    take = np.minimum(take, caps)
    # distribute the remainder by largest fractional part, lowest class first
    order = sorted(range(n_classes), key=lambda c: (-(ideal[c] - np.floor(ideal[c])), c))
    while take.sum() < target:
        moved = False
        for c in order:
            if take[c] < caps[c]:
                take[c] += 1
                moved = True
                if take.sum() == target:
                    break
        if not moved:
            break
    picked = []
    for c, idx in enumerate(per_class):
        perm = rng.permutation(idx.size)
        picked.append(idx[perm[: take[c]]])
    return np.sort(np.concatenate(picked))


def make_split(ds, test_fraction, seed):
    """Stratified train/test split, deterministic under seed."""
    if not 0.0 < test_fraction < 1.0:
        raise DataError("test_fraction must be in (0, 1)")
    rng = substream(seed, 0x5917)
    test = _stratified_take(ds.labels, ds.n_classes, test_fraction, rng)
    mask = np.ones(ds.n_samples, dtype=bool)
    mask[test] = False
    train = np.nonzero(mask)[0]
    return SplitPlan(train, test)


def stratified_folds(labels, n_classes, n_folds, seed):
    """Partition indices into stratified folds; returns fold id per row."""
    counts = np.bincount(labels, minlength=n_classes)
    if counts.min() < n_folds:
        raise DataError(
            "every class needs at least %d samples for %d-fold assignment"
            % (n_folds, n_folds)
        )
    rng = substream(seed, 0xF01D)
    fold = np.empty(labels.size, dtype=np.int64)
    for c in range(n_classes):
        idx = np.nonzero(labels == c)[0]
        idx = idx[rng.permutation(idx.size)]
        fold[idx] = np.arange(idx.size) % n_folds
    return fold


def export_assignments_csv(path, plan, fold_by_train_pos=None):
    """Write (sample_index, role, fold) rows for split/fold audits."""
    n_train, n_test = plan.train_indices.size, plan.test_indices.size
    folds = ([""] * n_train if fold_by_train_pos is None
             else fold_by_train_pos.tolist())
    write_csv(path, ["sample_index", "role", "fold"], zip(
        np.concatenate([plan.train_indices, plan.test_indices]).tolist(),
        ["train"] * n_train + ["test"] * n_test, folds + [""] * n_test))
