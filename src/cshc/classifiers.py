"""The simple base-classifier pool plus external prediction ingestion.

All models share three behaviours the rest of the pipeline relies on:
class probabilities are non-negative and sum to 1, ``predict`` is the
argmax of ``predict_proba`` with ties going to the lower class index,
and retraining on identical inputs reproduces identical outputs.
"""

import csv
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .data import DataError, open_input
from .rng import substream

KINDS = ("gaussian_nb", "one_nn", "decision_tree_gini", "perceptron", "external")

# distance/margin based models standardize their inputs by default
_STANDARDIZE_DEFAULT = {"one_nn": True, "perceptron": True}


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

    def __init__(self, spec, n_classes, n_features, scaler):
        self.spec = spec
        self.n_classes = n_classes
        self.n_features = n_features
        self.scaler = scaler

    def proba_from_features(self, X):
        raise NotImplementedError

    def predict_proba_matrix(self, ds):
        """(Q, C) probabilities for every row of a Dataset."""
        return self.proba_from_features(ds.features)

    def _check_vector(self, x):
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.n_features,):
            raise DataError("expected %d features, got shape %s"
                            % (self.n_features, x.shape))
        return x


class GaussianNBTrained(TrainedClassifier):
    def __init__(self, spec, n_classes, n_features, scaler, log_prior, theta, var):
        super().__init__(spec, n_classes, n_features, scaler)
        self.log_prior = log_prior
        self.theta = theta
        self.var = var

    def proba_from_features(self, X):
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

    def state(self):
        return {"log_prior": self.log_prior.tolist(), "theta": self.theta.tolist(),
                "var": self.var.tolist()}


class OneNNTrained(TrainedClassifier):
    def __init__(self, spec, n_classes, n_features, scaler, X, y):
        super().__init__(spec, n_classes, n_features, scaler)
        self.X = X
        self.y = y

    def proba_from_features(self, X):
        Z = self.scaler.transform(np.atleast_2d(X))
        p = np.zeros((Z.shape[0], self.n_classes))
        for i, z in enumerate(Z):
            d2 = ((self.X - z) ** 2).sum(axis=1)
            p[i, self.y[np.argmin(d2)]] = 1.0  # argmin keeps the lowest index on ties
        return p

    def state(self):
        return {"X": self.X.tolist(), "y": self.y.tolist()}


class GiniTreeTrained(TrainedClassifier):
    def __init__(self, spec, n_classes, n_features, scaler, feat, thr, left, right,
                 leaf_id, leaf_proba):
        super().__init__(spec, n_classes, n_features, scaler)
        self.feat = feat
        self.thr = thr
        self.left = left
        self.right = right
        self.leaf_id = leaf_id
        self.leaf_proba = leaf_proba

    def proba_from_features(self, X):
        Z = np.ascontiguousarray(np.atleast_2d(X), dtype=np.float64)
        leaves = kernels.route(self.feat, self.thr, self.left, self.right,
                               self.leaf_id, Z)
        return self.leaf_proba[leaves]

    def state(self):
        return {"feat": self.feat.tolist(), "thr": self.thr.tolist(),
                "left": self.left.tolist(), "right": self.right.tolist(),
                "leaf_id": self.leaf_id.tolist(),
                "leaf_proba": self.leaf_proba.tolist()}


class PerceptronTrained(TrainedClassifier):
    def __init__(self, spec, n_classes, n_features, scaler, W):
        super().__init__(spec, n_classes, n_features, scaler)
        self.W = W  # (C, F+1) averaged weights, bias last

    def proba_from_features(self, X):
        Z = self.scaler.transform(np.atleast_2d(X))
        Zb = np.hstack([Z, np.ones((Z.shape[0], 1))])
        scores = Zb @ self.W.T
        shift = scores.max(axis=1, keepdims=True)
        p = np.exp(scores - shift)
        return p / p.sum(axis=1, keepdims=True)

    def state(self):
        return {"W": self.W.tolist()}


class ExternalTrained(TrainedClassifier):
    """Predictions for a foreign classifier, keyed by source row id."""

    def __init__(self, spec, n_classes, table):
        super().__init__(spec, n_classes, n_features=-1, scaler=None)
        self.table = table

    def proba_from_features(self, X):
        raise DataError(
            "external classifier %r cannot score new feature vectors; "
            "its predictions are keyed by sample index" % self.spec.name
        )

    def _check_vector(self, x):
        self.proba_from_features(x)

    def predict_proba_matrix(self, ds):
        return self.table.proba_rows(ds.row_ids)

    def state(self):
        raise DataError("external classifier %r is not serializable" % self.spec.name)


class ExternalPredictions:
    """Validated contents of an external-predictions CSV."""

    def __init__(self, labels, probas, n_classes, path="<memory>"):
        self.labels = labels  # dict: row id -> class index
        self.probas = probas  # dict: row id -> (C,) array
        self.n_classes = n_classes
        self.path = path

    def require(self, indices):
        missing = [int(i) for i in indices if int(i) not in self.labels]
        if missing:
            raise DataError("%s: missing prediction for sample index %d (%d missing total)"
                            % (self.path, missing[0], len(missing)))

    def proba_rows(self, indices):
        self.require(indices)
        return np.vstack([self.probas[int(i)] for i in indices])


def load_external_predictions(path, split=None, n_classes=None):
    """Read (sample_index, predicted_class[, per-class probabilities]) rows.

    Probability rows must sum to 1 within 1e-6 and agree with the
    predicted class; when absent, one-hot vectors are synthesized. With
    a SplitPlan given, coverage of all its indices is enforced.
    """
    labels, probas = {}, {}
    width = None
    with open_input(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError("%s: file is empty" % path) from None
        for lineno, rec in enumerate(reader, start=2):
            if not rec:
                continue
            try:
                idx = int(rec[0])
                label = int(rec[1])
                rest = [float(v) for v in rec[2:]]
            except (ValueError, IndexError) as exc:
                raise DataError("%s: row %d: %s" % (path, lineno, exc)) from None
            if width is None:
                width = len(rest)
            elif len(rest) != width:
                raise DataError("%s: row %d has %d probability cells, expected %d"
                                % (path, lineno, len(rest), width))
            if width:
                p = np.asarray(rest)
                if abs(p.sum() - 1.0) > 1e-6:
                    raise DataError("%s: row %d: probabilities sum to %.8f, not 1"
                                    % (path, lineno, p.sum()))
                if p.min() < -1e-12:
                    raise DataError("%s: row %d: negative probability" % (path, lineno))
                if int(np.argmax(p)) != label:
                    raise DataError("%s: row %d: predicted_class %d is not the "
                                    "probability argmax" % (path, lineno, label))
            labels[idx] = label
            probas[idx] = rest
    C = width if width else n_classes
    if C is None:
        C = max(labels.values()) + 1
    for idx, label in labels.items():
        if label < 0 or label >= C:
            raise DataError("%s: sample %d: class %d out of range [0, %d)"
                            % (path, idx, label, C))
        if not probas[idx]:
            onehot = [0.0] * C
            onehot[label] = 1.0
            probas[idx] = onehot
        probas[idx] = np.asarray(probas[idx])
    table = ExternalPredictions(labels, probas, C, path=path)
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
    Z = np.ascontiguousarray(scaler.transform(ds.features))
    y = ds.labels
    C = ds.n_classes
    feat, thr, left, right, leaf_id = [], [], [], [], []
    leaf_proba = []
    # explicit stack: unpruned trees can outgrow the recursion limit
    stack = [(np.arange(ds.n_samples), -1, False)]
    while stack:
        rows, parent, is_left = stack.pop()
        node = len(feat)
        if parent >= 0:
            if is_left:
                left[parent] = node
            else:
                right[parent] = node
        feat.append(-1)
        thr.append(0.0)
        left.append(-1)
        right.append(-1)
        leaf_id.append(-1)
        counts = np.bincount(y[rows], minlength=C).astype(float)
        if counts.max() < rows.size:  # impure: split whenever possible
            gain, col, t = kernels.gini_split(Z[rows], y[rows], C)
            if col >= 0:
                feat[node] = int(col)
                thr[node] = float(t)
                mask = Z[rows, col] <= t
                stack.append((rows[~mask], node, False))
                stack.append((rows[mask], node, True))
                continue
        leaf_id[node] = len(leaf_proba)
        leaf_proba.append(counts / counts.sum())
    return GiniTreeTrained(
        spec, C, ds.n_features, scaler,
        np.asarray(feat, dtype=np.int64), np.asarray(thr),
        np.asarray(left, dtype=np.int64), np.asarray(right, dtype=np.int64),
        np.asarray(leaf_id, dtype=np.int64), np.vstack(leaf_proba),
    )


def _train_perceptron(spec, ds, scaler):
    """One-vs-rest averaged perceptron, 10 epochs, learning rate 1."""
    epochs = int(spec.hyperparams.get("epochs", 10))
    lr = float(spec.hyperparams.get("learning_rate", 1.0))
    seed = int(spec.hyperparams.get("seed", 0))
    Z = scaler.transform(ds.features)
    Zb = np.hstack([Z, np.ones((Z.shape[0], 1))])
    C = ds.n_classes
    S, Fb = Zb.shape
    targets = np.where(ds.labels[:, None] == np.arange(C), 1.0, -1.0)  # (S, C)
    W = np.zeros((C, Fb))
    Wsum = np.zeros((C, Fb))
    rng = substream(seed, 0x9E4C)
    for _ in range(epochs):
        for i in rng.permutation(S):
            s = W @ Zb[i]
            wrong = targets[i] * s <= 0.0
            if wrong.any():
                W[wrong] += lr * targets[i, wrong, None] * Zb[i]
            Wsum += W
    return PerceptronTrained(spec, C, ds.n_features, scaler, Wsum / (epochs * S))


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


def predict_proba(model, x):
    """Class probabilities for a single feature vector."""
    x = model._check_vector(np.asarray(x, dtype=np.float64))
    return model.proba_from_features(x[None, :])[0]


def predict(model, x):
    """Predicted class = argmax of probabilities, lower index on ties."""
    return int(np.argmax(predict_proba(model, x)))


def predict_proba_batch(model, ds):
    return model.predict_proba_matrix(ds)


def predict_batch(model, ds):
    return predict_proba_batch(model, ds).argmax(axis=1)


# ---------------------------------------------------------------------------
# (de)serialization
# ---------------------------------------------------------------------------

def model_state(model):
    state = model.state()  # raises for models that cannot be serialized
    s = {"kind": model.spec.kind, "name": model.spec.name,
         "hyperparams": {k: v for k, v in model.spec.hyperparams.items()
                         if k != "predictions"},
         "n_classes": model.n_classes, "n_features": model.n_features,
         "scaler": {"mean": model.scaler.mean.tolist(),
                    "scale": model.scaler.scale.tolist()}}
    s.update(state)
    return s


def model_from_state(s):
    spec = ClassifierSpec(s["kind"], s["name"], dict(s["hyperparams"]))
    scaler = _Scaler(s["scaler"]["mean"], s["scaler"]["scale"])
    C, F = s["n_classes"], s["n_features"]
    if s["kind"] == "gaussian_nb":
        return GaussianNBTrained(spec, C, F, scaler, np.asarray(s["log_prior"]),
                                 np.asarray(s["theta"]), np.asarray(s["var"]))
    if s["kind"] == "one_nn":
        return OneNNTrained(spec, C, F, scaler, np.asarray(s["X"]),
                            np.asarray(s["y"], dtype=np.int64))
    if s["kind"] == "decision_tree_gini":
        return GiniTreeTrained(spec, C, F, scaler,
                               np.asarray(s["feat"], dtype=np.int64),
                               np.asarray(s["thr"]),
                               np.asarray(s["left"], dtype=np.int64),
                               np.asarray(s["right"], dtype=np.int64),
                               np.asarray(s["leaf_id"], dtype=np.int64),
                               np.asarray(s["leaf_proba"]))
    if s["kind"] == "perceptron":
        return PerceptronTrained(spec, C, F, scaler, np.asarray(s["W"]))
    raise DataError("cannot restore classifier kind %r" % s["kind"])
