"""The simple base-classifier pool, external prediction ingestion, pool
scoring and the correctness matrices.

Each classifier kind is one class, and ``CLASSIFIERS`` maps each kind
to its class: ``train``, the bundle reader and the unknown-kind check
all read that one table. A class holds everything about its kind, how
it preprocesses its inputs included: only ``one_nn`` and ``perceptron``
standardize, by the mean and scale of their training rows, which they
keep as state. ``external`` is the one kind that scores no features; its
spec carries the loaded predictions table instead.

Every model is scored through one call, ``predict_proba_batch``, which
gives the (Q, C) class probabilities of a batch of rows, and a pool
through ``pool_proba``, its one caller, which stacks them. All models
share three behaviours the rest of the pipeline relies on: class
probabilities are non-negative and sum to 1, a row's predicted class is
their argmax with ties going to the lower class index, and retraining
on identical inputs reproduces identical outputs.
"""

from array import array
from dataclasses import dataclass

import numpy as np

from . import kernels
from .data import (CorrectnessMatrix, DataError, parse_rows, read_records,
                   stratified_folds)
from .rng import substream

# the perceptron's passes over the data and the seed of their row orders
PERCEPTRON_EPOCHS = 10
PERCEPTRON_SEED = 0


@dataclass
class ClassifierSpec:
    """One pool member: its kind, its name (the kind by default) and, for
    the external kind only, its loaded ExternalPredictions table."""

    kind: str
    name: str = None
    table: object = None

    def __post_init__(self):
        if self.kind not in CLASSIFIERS:
            raise DataError("unknown classifier kind %r (known: %s)"
                            % (self.kind, ", ".join(CLASSIFIERS)))
        if self.name is None:
            self.name = self.kind
        if self.kind == "external" and self.table is None:
            raise DataError("external classifier %r needs a predictions table"
                            % self.name)
        if self.kind != "external" and self.table is not None:
            raise DataError("classifier %r of kind %r takes no predictions "
                            "table" % (self.name, self.kind))


def standardizer(X):
    """(mean, scale) of the columns of X, whose (X - mean) / scale is
    standardized; a constant column keeps scale 1."""
    std = X.std(axis=0)
    return X.mean(axis=0), np.where(std > 0, std, 1.0)


class TrainedClassifier:
    """Shared surface: spec, class count and probability outputs.

    A native kind is one subclass that holds all of that kind: its KIND,
    its STATE, a `fit(spec, ds)` classmethod and `_proba`.
    """

    KIND = None
    # the state a bundle stores: constructor argument -> (numpy dtype,
    # shape letters of `bundle.LETTERS`). Float arrays must be finite,
    # except that the log probabilities in LOG_STATE may hold -inf.
    STATE = {}
    LOG_STATE = ()

    def __init__(self, spec, n_classes, n_features, **state):
        self.spec = spec
        self.n_classes = n_classes
        self.n_features = n_features
        for key in self.STATE:
            setattr(self, key, state[key])

    def proba_from_features(self, X):
        """(Q, C) class probabilities for rows of raw features. Rows of
        another width than the training rows, or a value that overflows
        or turns invalid while scoring (extreme model state or query
        features), are a DataError naming the model, never a broadcast or
        a silent inf- or NaN-driven prediction."""
        X = np.atleast_2d(X)
        if X.shape[1] != self.n_features:
            raise DataError("classifier %r was trained on %d features, got "
                            "rows of %d" % (self.spec.name, self.n_features,
                                            X.shape[1]))
        try:
            with np.errstate(over="raise", invalid="raise"):
                return self._proba(X)
        except FloatingPointError as exc:
            raise DataError("classifier %r: %s while scoring"
                            % (self.spec.name, exc)) from None

    def check_state(self):
        """Raise DataError if restored state that has the right shapes
        still cannot be used."""


class _Standardized(TrainedClassifier):
    """A kind that scores its inputs standardized by the `standardizer`
    of its training rows."""

    STATE = {"mean": ("f8", "F"), "scale": ("f8", "F")}

    def check_state(self):
        if not (self.scale > 0).all():
            raise DataError("'scale' holds a value <= 0")


class GaussianNBTrained(TrainedClassifier):
    KIND = "gaussian_nb"
    STATE = {"log_prior": ("f8", "C"), "theta": ("f8", "CF"),
             "var": ("f8", "CF")}
    LOG_STATE = ("log_prior",)

    @classmethod
    def fit(cls, spec, ds):
        X = ds.features
        C, F = ds.n_classes, ds.n_features
        counts = np.bincount(ds.labels, minlength=C).astype(float)
        theta = np.zeros((C, F))
        var = np.ones((C, F))
        eps = 1e-9 * max(X.var(axis=0).max(), 1e-12)
        for c in range(C):
            rows = X[ds.labels == c]
            if rows.shape[0]:
                theta[c] = rows.mean(axis=0)
                var[c] = rows.var(axis=0) + eps
        with np.errstate(divide="ignore"):
            log_prior = np.log(counts / counts.sum())
        return cls(spec, C, F, log_prior=log_prior, theta=theta, var=var)

    def _proba(self, X):
        # joint log-likelihood per class
        jll = np.full((X.shape[0], self.n_classes), -np.inf)
        for c in range(self.n_classes):
            if not np.isfinite(self.log_prior[c]):
                continue
            jll[:, c] = self.log_prior[c] - 0.5 * np.sum(
                np.log(2.0 * np.pi * self.var[c])
                + (X - self.theta[c]) ** 2 / self.var[c],
                axis=1,
            )
        shift = jll.max(axis=1, keepdims=True)
        p = np.exp(jll - shift)
        return p / p.sum(axis=1, keepdims=True)

    def check_state(self):
        if not (self.var > 0).all():
            raise DataError("'var' holds a variance <= 0")


class OneNNTrained(_Standardized):
    KIND = "one_nn"
    STATE = {**_Standardized.STATE, "X": ("f8", "SF"), "y": ("i8", "S")}

    @classmethod
    def fit(cls, spec, ds):
        mean, scale = standardizer(ds.features)
        return cls(spec, ds.n_classes, ds.n_features, mean=mean, scale=scale,
                   X=(ds.features - mean) / scale, y=ds.labels.copy())

    def _proba(self, X):
        Z = (X - self.mean) / self.scale
        # the nearest training row, the lowest index among equal distances
        near = kernels.nearest(Z, 1, self.X)[0][:, 0]
        p = np.zeros((Z.shape[0], self.n_classes))
        p[np.arange(Z.shape[0]), self.y[near]] = 1.0
        return p

    def check_state(self):
        super().check_state()
        y = self.y
        if not (y.size and ((y >= 0) & (y < self.n_classes)).all()):
            raise DataError("'y' is not a non-empty list of classes in [0, %d)"
                            % self.n_classes)


class GiniTreeTrained(TrainedClassifier):
    """Unpruned tree: every impure node takes its best Gini split. State:
    the `kernels` layout, feat and thr, and leaf_proba, one row a leaf."""

    KIND = "decision_tree_gini"
    STATE = {"feat": ("i8", "N"), "thr": ("f8", "N"),
             "leaf_proba": ("f8", "LC")}

    @classmethod
    def fit(cls, spec, ds):
        onehot = (ds.labels[:, None] == np.arange(ds.n_classes)).astype(float)
        ((feat, thr),), ptr, members = kernels.grow(
            np.ascontiguousarray(ds.features), [ds.n_samples], onehot,
            np.ones(ds.n_samples))
        counts = np.add.reduceat(onehot[members], ptr[:-1])
        return cls(spec, ds.n_classes, ds.n_features, feat=feat, thr=thr,
                   leaf_proba=counts / counts.sum(axis=1, keepdims=True))

    def _proba(self, X):
        Z = np.ascontiguousarray(X, dtype=np.float64)
        leaves = kernels.route(self.feat, self.thr,
                               *kernels.layout(self.feat), Z)
        return self.leaf_proba[leaves]

    def check_state(self):
        L = kernels.check_tree(self.feat, self.thr, self.n_features)
        p = self.leaf_proba
        if p.shape[0] != L:
            raise DataError("'leaf_proba' has %d rows for %d leaves"
                            % (p.shape[0], L))
        # the tolerance load_external_predictions allows
        if not ((p >= 0).all() and (abs(p.sum(axis=1) - 1.0) <= 1e-6).all()):
            raise DataError("'leaf_proba' holds a row that is not "
                            "probabilities: entries >= 0 summing to 1")


class PerceptronTrained(_Standardized):
    KIND = "perceptron"
    # W: the (C, F + 1) averaged weights, bias last
    STATE = {**_Standardized.STATE, "W": ("f8", "CB")}

    @classmethod
    def fit(cls, spec, ds):
        """One-vs-rest averaged perceptron: PERCEPTRON_EPOCHS passes over
        seeded permutations of the rows, learning rate 1.

        At learning rate 1 an update adds or subtracts the row itself,
        exactly, so each wrong class's row of W takes one in-place add or
        subtract. The margin test multiplies the scores of W @ row as
        Python floats, the same IEEE multiply numpy makes.
        """
        mean, scale = standardizer(ds.features)
        Z = (ds.features - mean) / scale
        Zb = np.hstack([Z, np.ones((Z.shape[0], 1))])
        C = ds.n_classes
        S, Fb = Zb.shape
        targets = np.where(ds.labels[:, None] == np.arange(C), 1.0, -1.0).tolist()
        W = np.zeros((C, Fb))
        Wsum = np.zeros((C, Fb))
        rows, classes = list(Zb), list(enumerate(W))
        rng = substream(PERCEPTRON_SEED, 0x9E4C)
        for _ in range(PERCEPTRON_EPOCHS):
            for i in rng.permutation(S).tolist():
                z, t = rows[i], targets[i]
                s = (W @ z).tolist()
                for c, w in classes:
                    if t[c] * s[c] <= 0.0:
                        if t[c] > 0.0:
                            np.add(w, z, out=w)
                        else:
                            np.subtract(w, z, out=w)
                np.add(Wsum, W, out=Wsum)
        return cls(spec, C, ds.n_features, mean=mean, scale=scale,
                   W=Wsum / (PERCEPTRON_EPOCHS * S))

    def _proba(self, X):
        Z = (X - self.mean) / self.scale
        Zb = np.hstack([Z, np.ones((Z.shape[0], 1))])
        # einsum sums each row's products alone; BLAS takes another path
        # for a one-row matrix product, which changes low bits
        scores = np.einsum("qf,cf->qc", Zb, self.W)
        shift = scores.max(axis=1, keepdims=True)
        p = np.exp(scores - shift)
        return p / p.sum(axis=1, keepdims=True)


class ExternalTrained(TrainedClassifier):
    """Predictions for a foreign classifier, keyed by source row id: its
    spec's table."""

    KIND = "external"

    @classmethod
    def fit(cls, spec, ds):
        if spec.table.n_classes != ds.n_classes:
            raise DataError("external classifier %r has %d classes, dataset has %d"
                            % (spec.name, spec.table.n_classes, ds.n_classes))
        return cls(spec, ds.n_classes, n_features=-1)

    def proba_from_features(self, X):
        raise DataError(
            "external classifier %r cannot score new feature vectors; "
            "its predictions are keyed by sample index" % self.spec.name
        )


# every classifier kind, in the order the unknown-kind message lists them
CLASSIFIERS = {cls.KIND: cls for cls in (
    GaussianNBTrained, OneNNTrained, GiniTreeTrained, PerceptronTrained,
    ExternalTrained)}


class ExternalPredictions:
    """Validated contents of an external-predictions CSV: the sample ids,
    ascending and distinct, and their (N, C) class probabilities."""

    def __init__(self, ids, proba, path="<memory>"):
        self.ids = ids
        self.proba = proba
        self.n_classes = proba.shape[1]
        self.path = path

    def require(self, indices):
        """The table rows of the sample indices; a DataError names the
        first index, in the order given, that has no prediction."""
        indices = np.asarray(indices, dtype=np.int64)
        pos = np.searchsorted(self.ids, indices)
        found = pos < self.ids.size
        found[found] = self.ids[pos[found]] == indices[found]
        if not found.all():
            missing = indices[~found]
            raise DataError("%s: missing prediction for sample index %d (%d missing total)"
                            % (self.path, missing[0], missing.size))
        return pos

    def proba_rows(self, indices):
        return self.proba[self.require(indices)]


def _external_layout(header, width):
    """Row dtype of a predictions file whose first data row has width
    cells: the sample index, the class and the probability cells."""
    if width < 2:
        return None
    return ([("index", "<i8"), ("class", "<i8")]
            + ([("proba", "<f8", (width - 2,))] if width > 2 else []))


def _probabilities_agree(labels, proba):
    """Whether every row of probability cells sums to 1 within 1e-6, holds
    no entry below -1e-12 and has its predicted class as argmax: the row
    checks of the per-row reader, over all rows at once."""
    return bool(not proba.shape[1] or (
        (abs(proba.sum(axis=1) - 1.0) <= 1e-6).all()
        and (proba.min(axis=1) >= -1e-12).all()
        and (proba.argmax(axis=1) == labels).all()))


def _read_external_rows(path):
    """(ids, labels, proba) of a predictions file by the per-row reader,
    which words the first row fault down the file."""
    # flat arrays, so that no per-row object outlives its row
    ids, labels, cells = array("q"), array("q"), array("d")
    _, records, linenos = read_records(path)
    if not records:
        raise DataError("%s: no data rows" % path)
    width = len(records[0]) - 2  # a shorter first row fails its parse
    for lineno, rec in zip(linenos, records):
        try:  # an int64 array refuses an index or class beyond 64 bits
            ids.append(int(rec[0]))
            labels.append(int(rec[1]))
            rest = [float(v) for v in rec[2:]]
        except (ValueError, IndexError, OverflowError) as exc:
            raise DataError("%s: row %d: %s" % (path, lineno, exc)) from None
        if len(rest) != width:
            raise DataError("%s: row %d has %d probability cells, expected %d"
                            % (path, lineno, len(rest), width))
        if width:
            p = np.asarray(rest)
            # a NaN or infinite cell makes the sum fail this test too
            if not abs(p.sum() - 1.0) <= 1e-6:
                raise DataError("%s: row %d: probabilities sum to %.8f, not 1"
                                % (path, lineno, p.sum()))
            if p.min() < -1e-12:
                raise DataError("%s: row %d: negative probability" % (path, lineno))
            if int(np.argmax(p)) != labels[-1]:
                raise DataError("%s: row %d: predicted_class %d is not the "
                                "probability argmax"
                                % (path, lineno, labels[-1]))
        cells.extend(rest)
    return (np.array(ids, dtype=np.int64), np.array(labels, dtype=np.int64),
            np.array(cells).reshape(len(ids), width))


def load_external_predictions(path, split=None, n_classes=None):
    """Read (sample_index, predicted_class[, per-class probabilities]) rows.

    Each sample index appears once. Probability cells must be finite,
    and a row of them must sum to 1 within 1e-6 and agree with the
    predicted class; when absent, one-hot vectors are synthesized. With
    a SplitPlan given, coverage of all its indices is enforced.

    The rows are parsed by one C call (`data.parse_rows`) and their row
    checks run over all rows at once; a file that parse refuses, or
    whose rows fail a check, is read again by the per-row reader, which
    words the error.
    """
    parsed = parse_rows(path, _external_layout)
    if parsed is not None:
        rows = parsed[1]
        ids, labels = rows["index"].copy(), rows["class"].copy()
        proba = (rows["proba"].copy() if "proba" in rows.dtype.names
                 else np.empty((ids.size, 0)))
    if parsed is None or not _probabilities_agree(labels, proba):
        ids, labels, proba = _read_external_rows(path)
    width = proba.shape[1]
    C = width or n_classes or int(labels.max()) + 1
    bad = np.flatnonzero((labels < 0) | (labels >= C))
    if bad.size:
        raise DataError("%s: sample %d: class %d out of range [0, %d)"
                        % (path, ids[bad[0]], labels[bad[0]], C))
    # without probability cells, each row is its class's one-hot vector
    if not width:
        proba = (labels[:, None] == np.arange(C)).astype(float)
    order = np.argsort(ids)
    ids = ids[order]
    repeated = ids[1:][ids[1:] == ids[:-1]]
    if repeated.size:
        raise DataError("%s: sample index %d appears more than once"
                        % (path, repeated[0]))
    table = ExternalPredictions(ids, proba[order], path=path)
    if split is not None:
        table.require(split.train_indices)
        table.require(split.test_indices)
    return table


def train(spec, ds):
    """Fit one classifier; deterministic given (spec, data, seed)."""
    return CLASSIFIERS[spec.kind].fit(spec, ds)


def predict_proba_batch(model, X, row_ids):
    """(Q, C) class probabilities of model for the feature rows X, whose
    source row ids are row_ids. An external model looks its predictions
    up by row id; every other model scores X."""
    if isinstance(model, ExternalTrained):
        return model.spec.table.proba_rows(row_ids)
    return model.proba_from_features(X)


def pool_proba(models, X, row_ids):
    """(Q, n, C) class probabilities of each of the n models for the
    feature rows X, whose source row ids are row_ids."""
    return np.stack([predict_proba_batch(model, X, row_ids)
                     for model in models], axis=1)


def build_correctness_cv3(ds_train, specs, seed):
    """Cross-validated correctness over the whole training set.

    Each classifier is trained on two of three stratified folds and
    predicts the held-out third, so no row is ever scored by a model
    that saw it. Returns (matrix, final_models, fold) where the final
    models are retrained on all of ds_train for test-time use.
    """
    fold = stratified_folds(ds_train.labels, ds_train.n_classes, 3, seed)
    proba = np.empty((ds_train.n_samples, len(specs), ds_train.n_classes))
    for f in range(3):
        held = np.nonzero(fold == f)[0]
        sub = ds_train.subset(np.nonzero(fold != f)[0])
        models = []
        for spec in specs:
            try:
                models.append(train(spec, sub))
            except DataError as exc:
                raise DataError("training %r failed on fold %d: %s"
                                % (spec.name, f, exc)) from None
        proba[held] = pool_proba(models, ds_train.features[held],
                                 ds_train.row_ids[held])
    final_models = [train(spec, ds_train) for spec in specs]
    cm = CorrectnessMatrix(proba.argmax(axis=2), ds_train.labels.copy(),
                           ds_train.n_classes, proba=proba)
    return cm, final_models, fold


def build_correctness_holdout(ds_a, ds_b, specs):
    """Train classifiers on half A, record their outcomes on half B."""
    if ds_b.n_samples == 0:
        raise DataError("holdout half B is empty")
    models = [train(spec, ds_a) for spec in specs]
    proba = pool_proba(models, ds_b.features, ds_b.row_ids)
    cm = CorrectnessMatrix(proba.argmax(axis=2), ds_b.labels.copy(),
                           ds_a.n_classes, proba=proba)
    return cm, models
