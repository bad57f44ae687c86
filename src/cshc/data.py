"""Tabular data ingestion, splits, folds and correctness matrices."""

import csv
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
    protocol: str = "split50"
    seed: int = 0

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
    class and correct[i, a] the 0/1 agreement bit. ``proba`` optionally
    keeps the class-probability outputs of the same validation-time
    models (needed by the probability-based neighborhood baselines).
    """

    predicted: np.ndarray
    truth: np.ndarray
    sample_indices: np.ndarray
    proba: np.ndarray = None
    correct: np.ndarray = field(default=None)
    n_classes: int = None

    def __post_init__(self):
        self.predicted = np.asarray(self.predicted, dtype=np.int64)
        self.truth = np.asarray(self.truth, dtype=np.int64)
        self.sample_indices = np.asarray(self.sample_indices, dtype=np.int64)
        recomputed = (self.predicted == self.truth[:, None]).astype(np.int64)
        if self.correct is None:
            self.correct = recomputed
        elif not np.array_equal(np.asarray(self.correct), recomputed):
            raise DataError("stored correctness bits disagree with predicted/truth")

    @property
    def n_samples(self):
        return self.predicted.shape[0]

    @property
    def n_classifiers(self):
        return self.predicted.shape[1]

    def class_count(self):
        if self.n_classes is not None:
            return self.n_classes
        return int(max(self.predicted.max(), self.truth.max())) + 1

    def classifier_accuracies(self):
        return self.correct.mean(axis=0)


def open_input(path, **kwargs):
    """``open`` for reading a file the user named; a missing or unreadable
    file is a DataError naming the path."""
    try:
        return open(path, **kwargs)
    except OSError as exc:
        raise DataError("%s: cannot read: %s" % (path, exc.strerror)) from None


def _read_header(reader, path):
    try:
        header = next(reader)
    except StopIteration:
        raise DataError("%s: file is empty" % path) from None
    return [h.strip() for h in header]


def _feature_values(path, lineno, header, rec, skip=None):
    """A record's cells as finite floats, leaving out column ``skip``.

    Wrong cell counts and cells that are not finite numbers are reported
    with their row number and column name.
    """
    if len(rec) != len(header):
        raise DataError("%s: row %d has %d cells, expected %d"
                        % (path, lineno, len(rec), len(header)))
    vals = []
    for i, cell in enumerate(rec):
        if i == skip:
            continue
        try:
            x = float(cell)
        except ValueError:
            x = np.nan
        if not np.isfinite(x):
            raise DataError("%s: row %d, column %r: non-numeric value %r"
                            % (path, lineno, header[i], cell))
        vals.append(x)
    return np.array(vals)


def load_csv(path, label_column):
    """Load a headered CSV into a Dataset.

    All non-label columns must parse as finite floats; violations are
    reported with row and column names. Classes are encoded by first
    appearance down the file.
    """
    with open_input(path, newline="") as fh:
        reader = csv.reader(fh)
        header = _read_header(reader, path)
        if label_column not in header:
            raise DataError(
                "%s: label column %r not found (columns: %s)"
                % (path, label_column, ", ".join(header))
            )
        label_pos = header.index(label_column)
        feature_names = [h for i, h in enumerate(header) if i != label_pos]
        rows, labels = [], []
        class_ids, class_names = {}, []
        for lineno, rec in enumerate(reader, start=2):
            if not rec:
                continue
            rows.append(_feature_values(path, lineno, header, rec,
                                        skip=label_pos))
            name = rec[label_pos].strip()
            if name not in class_ids:
                class_ids[name] = len(class_names)
                class_names.append(name)
            labels.append(class_ids[name])
    if not rows:
        raise DataError("%s: no data rows" % path)
    if len(class_names) < 2:
        raise DataError("%s: only one class (%r) present" % (path, class_names[0]))
    return Dataset(np.vstack(rows), np.array(labels), feature_names, class_names)


def load_feature_rows(path, feature_names):
    """Feature matrix of a headered CSV whose columns are exactly
    ``feature_names``, checked like the feature cells of ``load_csv``."""
    with open_input(path, newline="") as fh:
        reader = csv.reader(fh)
        header = _read_header(reader, path)
        if header != feature_names:
            raise DataError("input columns %s do not match the bundle's %s"
                            % (header, feature_names))
        rows = [_feature_values(path, lineno, header, rec)
                for lineno, rec in enumerate(reader, start=2) if rec]
    if not rows:
        raise DataError("%s: no data rows" % path)
    return np.vstack(rows)


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
    while take.sum() > target:
        for c in reversed(order):
            if take[c] > 0:
                take[c] -= 1
                break
    picked = []
    for c, idx in enumerate(per_class):
        perm = rng.permutation(idx.size)
        picked.append(idx[perm[: take[c]]])
    return np.sort(np.concatenate(picked))


def make_split(ds, test_fraction, seed, protocol="split50"):
    """Stratified train/test split, deterministic under seed."""
    if not 0.0 < test_fraction < 1.0:
        raise DataError("test_fraction must be in (0, 1)")
    rng = substream(seed, 0x5917)
    test = _stratified_take(ds.labels, ds.n_classes, test_fraction, rng)
    mask = np.ones(ds.n_samples, dtype=bool)
    mask[test] = False
    train = np.nonzero(mask)[0]
    return SplitPlan(train, test, protocol=protocol, seed=int(seed))


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


def build_correctness_cv3(ds_train, specs, seed):
    """Cross-validated correctness over the whole training set.

    Each classifier is trained on two of three stratified folds and
    predicts the held-out third, so no row is ever scored by a model
    that saw it. Returns (matrix, final_models) where the final models
    are retrained on all of ds_train for test-time use.
    """
    from . import classifiers as clf

    fold = stratified_folds(ds_train.labels, ds_train.n_classes, 3, seed)
    n = len(specs)
    M = ds_train.n_samples
    predicted = np.empty((M, n), dtype=np.int64)
    proba = np.empty((M, n, ds_train.n_classes))
    for f in range(3):
        held = np.nonzero(fold == f)[0]
        rest = np.nonzero(fold != f)[0]
        sub = ds_train.subset(rest)
        held_ds = ds_train.subset(held)
        for a, spec in enumerate(specs):
            try:
                model = clf.train(spec, sub)
            except Exception as exc:
                raise RuntimeError(
                    "training %r failed on fold %d: %s" % (spec.name, f, exc)
                ) from exc
            p = clf.predict_proba_batch(model, held_ds)
            proba[held, a] = p
            predicted[held, a] = p.argmax(axis=1)
    final_models = [clf.train(spec, ds_train) for spec in specs]
    cm = CorrectnessMatrix(predicted, ds_train.labels.copy(),
                           np.arange(M, dtype=np.int64), proba=proba,
                           n_classes=ds_train.n_classes)
    return cm, final_models, fold


def build_correctness_holdout(ds_a, ds_b, specs):
    """Train classifiers on half A, record their outcomes on half B."""
    from . import classifiers as clf

    if ds_b.n_samples == 0:
        raise DataError("holdout half B is empty")
    n = len(specs)
    predicted = np.empty((ds_b.n_samples, n), dtype=np.int64)
    proba = np.empty((ds_b.n_samples, n, ds_a.n_classes))
    models = []
    for a, spec in enumerate(specs):
        model = clf.train(spec, ds_a)
        p = clf.predict_proba_batch(model, ds_b)
        proba[:, a] = p
        predicted[:, a] = p.argmax(axis=1)
        models.append(model)
    cm = CorrectnessMatrix(predicted, ds_b.labels.copy(),
                           np.arange(ds_b.n_samples, dtype=np.int64), proba=proba,
                           n_classes=ds_a.n_classes)
    return cm, models


def export_assignments_csv(path, plan, fold_by_train_pos=None):
    """Write (sample_index, role, fold) rows for split/fold audits."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["sample_index", "role", "fold"])
        for pos, i in enumerate(plan.train_indices):
            f = "" if fold_by_train_pos is None else int(fold_by_train_pos[pos])
            w.writerow([int(i), "train", f])
        for i in plan.test_indices:
            w.writerow([int(i), "test", ""])
