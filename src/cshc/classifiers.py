"""The simple base-classifier pool plus external prediction ingestion.

Every model is scored through one call, ``predict_proba_batch``, which
gives the (Q, C) class probabilities of a batch of rows. All models
share three behaviours the rest of the pipeline relies on: class
probabilities are non-negative and sum to 1, a row's predicted class is
their argmax with ties going to the lower class index, and retraining
on identical inputs reproduces identical outputs.
"""

import csv
from array import array
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .data import DataError, _read_header, open_input, read_array
from .rng import substream

KINDS = ("gaussian_nb", "one_nn", "decision_tree_gini", "perceptron", "external")

# distance/margin based models standardize their inputs by default
_STANDARDIZE_DEFAULT = {"one_nn": True, "perceptron": True}

# the perceptron's passes over the data and the seed of their row orders
PERCEPTRON_EPOCHS = 10
PERCEPTRON_SEED = 0


@dataclass
class ClassifierSpec:
    kind: str
    name: str = None
    hyperparams: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise DataError("unknown classifier kind %r (known: %s)"
                            % (self.kind, ", ".join(KINDS)))
        if self.name is None:
            self.name = self.kind
        if self.kind == "external" and not (
            "predictions" in self.hyperparams or "path" in self.hyperparams
        ):
            raise DataError("external classifier %r needs a predictions file" % self.name)
        known = (("predictions", "path") if self.kind == "external"
                 else ("standardize",))
        for key in self.hyperparams:
            if key not in known:
                raise DataError("classifier %r: unknown hyperparameter %r "
                                "(known: %s)"
                                % (self.name, key, ", ".join(known)))


class _Scaler:
    def __init__(self, mean, scale):
        self.mean = np.asarray(mean, dtype=np.float64)
        self.scale = np.asarray(scale, dtype=np.float64)

    @classmethod
    def fit(cls, X):
        std = X.std(axis=0)
        return cls(X.mean(axis=0), np.where(std > 0, std, 1.0))

    @classmethod
    def identity(cls, n_features):
        return cls(np.zeros(n_features), np.ones(n_features))

    def transform(self, X):
        return (X - self.mean) / self.scale


class TrainedClassifier:
    """Shared surface: spec, class count and probability outputs."""

    # serialized state: constructor argument -> (numpy dtype, shape). A
    # shape letter is C (classes), F (features), B (F + 1), or a size that
    # all the fields naming it share. Float arrays must be finite, except
    # that the log probabilities in LOG_STATE may hold -inf.
    STATE = {}
    LOG_STATE = ()

    def __init__(self, spec, n_classes, n_features, scaler):
        self.spec = spec
        self.n_classes = n_classes
        self.n_features = n_features
        self.scaler = scaler

    def proba_from_features(self, X):
        """(Q, C) class probabilities for rows of raw features. A value
        that overflows or turns invalid while scoring (extreme model state
        or query features) is a DataError naming the model, never a
        silent inf- or NaN-driven prediction."""
        try:
            with np.errstate(over="raise", invalid="raise"):
                return self._proba(X)
        except FloatingPointError as exc:
            raise DataError("classifier %r: %s while scoring"
                            % (self.spec.name, exc)) from None

    def _proba(self, X):
        raise NotImplementedError

    def state(self):
        return {name: getattr(self, name).tolist() for name in self.STATE}

    def check_state(self):
        """Raise DataError if restored state that has the right shapes
        still cannot be used."""


class GaussianNBTrained(TrainedClassifier):
    STATE = {"log_prior": ("f8", "C"), "theta": ("f8", "CF"),
             "var": ("f8", "CF")}
    LOG_STATE = ("log_prior",)

    def __init__(self, spec, n_classes, n_features, scaler, log_prior, theta, var):
        super().__init__(spec, n_classes, n_features, scaler)
        self.log_prior = log_prior
        self.theta = theta
        self.var = var

    def _proba(self, X):
        Z = self.scaler.transform(np.atleast_2d(X))
        # joint log-likelihood per class
        jll = np.full((Z.shape[0], self.n_classes), -np.inf)
        for c in range(self.n_classes):
            if not np.isfinite(self.log_prior[c]):
                continue
            jll[:, c] = self.log_prior[c] - 0.5 * np.sum(
                np.log(2.0 * np.pi * self.var[c])
                + (Z - self.theta[c]) ** 2 / self.var[c],
                axis=1,
            )
        shift = jll.max(axis=1, keepdims=True)
        p = np.exp(jll - shift)
        return p / p.sum(axis=1, keepdims=True)

    def check_state(self):
        if not (self.var > 0).all():
            raise DataError("'var' holds a variance <= 0")


class OneNNTrained(TrainedClassifier):
    STATE = {"X": ("f8", "NF"), "y": ("i8", "N")}

    def __init__(self, spec, n_classes, n_features, scaler, X, y):
        super().__init__(spec, n_classes, n_features, scaler)
        self.X = X
        self.y = y

    def _proba(self, X):
        Z = self.scaler.transform(np.atleast_2d(X))
        # the nearest training row, the lowest index among equal distances
        near = kernels.nearest(Z, 1, self.X)[0][:, 0]
        p = np.zeros((Z.shape[0], self.n_classes))
        p[np.arange(Z.shape[0]), self.y[near]] = 1.0
        return p

    def check_state(self):
        y = self.y
        if not (y.size and ((y >= 0) & (y < self.n_classes)).all()):
            raise DataError("'y' is not a non-empty list of classes in [0, %d)"
                            % self.n_classes)


class GiniTreeTrained(TrainedClassifier):
    STATE = {"feat": ("i8", "N"), "thr": ("f8", "N"), "left": ("i8", "N"),
             "right": ("i8", "N"), "leaf_id": ("i8", "N"),
             "leaf_proba": ("f8", "LC")}

    def __init__(self, spec, n_classes, n_features, scaler, feat, thr, left, right,
                 leaf_id, leaf_proba):
        super().__init__(spec, n_classes, n_features, scaler)
        self.feat = feat
        self.thr = thr
        self.left = left
        self.right = right
        self.leaf_id = leaf_id
        self.leaf_proba = leaf_proba

    def _proba(self, X):
        Z = np.ascontiguousarray(np.atleast_2d(X), dtype=np.float64)
        leaves = kernels.route(self.feat, self.thr, self.left, self.right,
                               self.leaf_id, Z)
        return self.leaf_proba[leaves]

    def check_state(self):
        L = kernels.check_tree(self.feat, self.thr, self.left, self.right,
                               self.leaf_id, self.n_features)
        p = self.leaf_proba
        if p.shape[0] != L:
            raise DataError("'leaf_proba' has %d rows for %d leaves"
                            % (p.shape[0], L))
        # the tolerance load_external_predictions allows
        if not ((p >= 0).all() and (abs(p.sum(axis=1) - 1.0) <= 1e-6).all()):
            raise DataError("'leaf_proba' holds a row that is not "
                            "probabilities: entries >= 0 summing to 1")


class PerceptronTrained(TrainedClassifier):
    STATE = {"W": ("f8", "CB")}

    def __init__(self, spec, n_classes, n_features, scaler, W):
        super().__init__(spec, n_classes, n_features, scaler)
        self.W = W  # (C, F+1) averaged weights, bias last

    def _proba(self, X):
        Z = self.scaler.transform(np.atleast_2d(X))
        Zb = np.hstack([Z, np.ones((Z.shape[0], 1))])
        # einsum sums each row's products alone; BLAS takes another path
        # for a one-row matrix product, which changes low bits
        scores = np.einsum("qf,cf->qc", Zb, self.W)
        shift = scores.max(axis=1, keepdims=True)
        p = np.exp(scores - shift)
        return p / p.sum(axis=1, keepdims=True)


class ExternalTrained(TrainedClassifier):
    """Predictions for a foreign classifier, keyed by source row id."""

    def __init__(self, spec, n_classes, table):
        super().__init__(spec, n_classes, n_features=-1, scaler=None)
        self.table = table

    def _proba(self, X):
        raise DataError(
            "external classifier %r cannot score new feature vectors; "
            "its predictions are keyed by sample index" % self.spec.name
        )

    def state(self):
        raise DataError("external classifier %r is not serializable" % self.spec.name)


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


def load_external_predictions(path, split=None, n_classes=None):
    """Read (sample_index, predicted_class[, per-class probabilities]) rows.

    Each sample index appears once. Probability cells must be finite,
    and a row of them must sum to 1 within 1e-6 and agree with the
    predicted class; when absent, one-hot vectors are synthesized. With
    a SplitPlan given, coverage of all its indices is enforced.
    """
    ids, labels, cells = array("q"), array("q"), []
    width = None
    with open_input(path, newline="") as fh:
        reader = csv.reader(fh)
        _read_header(reader, path)
        for lineno, rec in enumerate(reader, start=2):
            if not rec:
                continue
            try:  # an int64 array refuses an index or class beyond 64 bits
                ids.append(int(rec[0]))
                labels.append(int(rec[1]))
                rest = [float(v) for v in rec[2:]]
            except (ValueError, IndexError, OverflowError) as exc:
                raise DataError("%s: row %d: %s" % (path, lineno, exc)) from None
            if width is None:
                width = len(rest)
            elif len(rest) != width:
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
            cells.append(rest)
    ids = np.array(ids, dtype=np.int64)
    labels = np.array(labels, dtype=np.int64)
    C = width or n_classes or int(labels.max()) + 1
    bad = np.flatnonzero((labels < 0) | (labels >= C))
    if bad.size:
        raise DataError("%s: sample %d: class %d out of range [0, %d)"
                        % (path, ids[bad[0]], labels[bad[0]], C))
    # without probability cells, each row is its class's one-hot vector
    proba = (np.array(cells) if width
             else (labels[:, None] == np.arange(C)).astype(float))
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


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

def _scaler_for(spec, X):
    on = spec.hyperparams.get("standardize", _STANDARDIZE_DEFAULT.get(spec.kind, False))
    return _Scaler.fit(X) if on else _Scaler.identity(X.shape[1])


def _train_gaussian_nb(spec, ds, scaler):
    Z = scaler.transform(ds.features)
    C, F = ds.n_classes, ds.n_features
    counts = np.bincount(ds.labels, minlength=C).astype(float)
    theta = np.zeros((C, F))
    var = np.ones((C, F))
    eps = 1e-9 * max(Z.var(axis=0).max(), 1e-12)
    for c in range(C):
        rows = Z[ds.labels == c]
        if rows.shape[0]:
            theta[c] = rows.mean(axis=0)
            var[c] = rows.var(axis=0) + eps
    with np.errstate(divide="ignore"):
        log_prior = np.log(counts / counts.sum())
    return GaussianNBTrained(spec, C, F, scaler, log_prior, theta, var)


def _train_one_nn(spec, ds, scaler):
    return OneNNTrained(spec, ds.n_classes, ds.n_features, scaler,
                        scaler.transform(ds.features), ds.labels.copy())


def _train_gini_tree(spec, ds, scaler):
    """Unpruned tree: every impure node takes its best Gini split."""
    Z = np.ascontiguousarray(scaler.transform(ds.features))
    onehot = (ds.labels[:, None] == np.arange(ds.n_classes)).astype(float)
    (*nodes, ptr, members), = kernels.grow(Z, [ds.n_samples], onehot,
                                           np.ones(ds.n_samples))
    counts = np.add.reduceat(onehot[members], ptr[:-1])
    return GiniTreeTrained(spec, ds.n_classes, ds.n_features, scaler, *nodes,
                           counts / counts.sum(axis=1, keepdims=True))


def _train_perceptron(spec, ds, scaler):
    """One-vs-rest averaged perceptron: PERCEPTRON_EPOCHS passes over
    seeded permutations of the rows, learning rate 1.

    At learning rate 1 an update adds or subtracts the row itself,
    exactly, so each wrong class's row of W takes one in-place add or
    subtract. The margin test multiplies the scores of W @ row as Python
    floats, the same IEEE multiply numpy makes.
    """
    Z = scaler.transform(ds.features)
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
    return PerceptronTrained(spec, C, ds.n_features, scaler,
                             Wsum / (PERCEPTRON_EPOCHS * S))


def _train_external(spec, ds):
    table = spec.hyperparams.get("predictions")
    if table is None:
        table = load_external_predictions(spec.hyperparams["path"],
                                          n_classes=ds.n_classes)
    if table.n_classes != ds.n_classes:
        raise DataError("external classifier %r has %d classes, dataset has %d"
                        % (spec.name, table.n_classes, ds.n_classes))
    return ExternalTrained(spec, ds.n_classes, table)


def train(spec, ds):
    """Fit one classifier; deterministic given (spec, data, seed)."""
    if spec.kind == "external":
        return _train_external(spec, ds)
    scaler = _scaler_for(spec, ds.features)
    if spec.kind == "gaussian_nb":
        return _train_gaussian_nb(spec, ds, scaler)
    if spec.kind == "one_nn":
        return _train_one_nn(spec, ds, scaler)
    if spec.kind == "decision_tree_gini":
        return _train_gini_tree(spec, ds, scaler)
    if spec.kind == "perceptron":
        return _train_perceptron(spec, ds, scaler)
    raise DataError("unknown classifier kind %r" % spec.kind)


def predict_proba_batch(model, X, row_ids):
    """(Q, C) class probabilities of model for the feature rows X, whose
    source row ids are row_ids. An external model looks its predictions
    up by row id; every other model scores X."""
    if isinstance(model, ExternalTrained):
        return model.table.proba_rows(row_ids)
    return model.proba_from_features(X)


# ---------------------------------------------------------------------------
# (de)serialization
# ---------------------------------------------------------------------------

def model_state(model):
    state = model.state()  # raises for models that cannot be serialized
    s = {"kind": model.spec.kind, "name": model.spec.name,
         "hyperparams": {k: v for k, v in model.spec.hyperparams.items()
                         if k != "predictions"},
         "scaler": {"mean": model.scaler.mean.tolist(),
                    "scale": model.scaler.scale.tolist()}}
    s.update(state)
    return s


_RESTORABLE = {"gaussian_nb": GaussianNBTrained, "one_nn": OneNNTrained,
               "decision_tree_gini": GiniTreeTrained,
               "perceptron": PerceptronTrained}


def _state_array(state, key, dtype, shape, sizes, log=False):
    """state[key] as an array of the given shape letters, binding each
    letter sizes does not hold yet to the size found. A float array must
    be finite, or hold -inf where log is set."""
    if key not in state:
        raise DataError("lacks key %r" % key)
    arr = read_array(state[key], repr(key), dtype, len(shape))
    if any(sizes.setdefault(d, n) != n for d, n in zip(shape, arr.shape)):
        raise DataError("%r is not an array of shape (%s) with C = %d "
                        "classes and F = %d features"
                        % (key, ", ".join(shape), sizes["C"], sizes["F"]))
    if arr.dtype.kind == "f" and not (
            np.isfinite(arr) | (log & (arr == -np.inf))).all():
        raise DataError("%r holds a value that is not a finite number" % key)
    return arr


def model_from_state(s, n_classes, n_features):
    """A model of n_classes classes over n_features features from its
    model_state; a DataError names the first key or array that does not
    fit the kind's STATE."""
    for key in ("kind", "name", "hyperparams", "scaler"):
        if key not in s:
            raise DataError("lacks key %r" % key)
    cls = _RESTORABLE.get(s["kind"]) if isinstance(s["kind"], str) else None
    if cls is None:
        raise DataError("cannot restore classifier kind %r" % s["kind"])
    if not (isinstance(s["name"], str) and isinstance(s["hyperparams"], dict)
            and isinstance(s["scaler"], dict)):
        raise DataError("'name', 'hyperparams' or 'scaler' has the wrong type")
    sizes = {"C": n_classes, "F": n_features, "B": n_features + 1}
    scaler = _Scaler(*(_state_array(s["scaler"], key, "f8", "F", sizes)
                       for key in ("mean", "scale")))
    if not (scaler.scale > 0).all():
        raise DataError("scaler 'scale' holds a value <= 0")
    arrays = {key: _state_array(s, key, dtype, shape, sizes,
                                key in cls.LOG_STATE)
              for key, (dtype, shape) in cls.STATE.items()}
    model = cls(ClassifierSpec(s["kind"], s["name"], dict(s["hyperparams"])),
                n_classes, n_features, scaler, **arrays)
    model.check_state()
    return model
