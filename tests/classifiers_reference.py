"""Oracles for the classifier pool, compared with bit for bit.

- Per-row 1-NN scoring, the oracle for `OneNNTrained`: the program finds
  the nearest training row of every query at once with
  `kernels.nearest`; this module keeps the plain scan, one query row at
  a time over the whole training set, overflow errors included.
- The perceptron's numpy update step, the oracle for
  `classifiers.PerceptronTrained.fit`, which reads each step's scores as
  Python floats and updates only the rows of the wrong classes.
- The dict-based external-predictions loader, the oracle for
  `classifiers.load_external_predictions`: the program parses a file
  with one C call (`data.parse_rows`) and checks all its rows at once,
  keeps sorted sample ids and one (N, C) array and looks a batch up with
  one `searchsorted`; this module reads and checks one row at a time,
  keeps one dict entry per sample and stacks a batch row by row. A file whose sample indices repeat, or whose
  probability cells are not finite, is outside what the two share. Both
  refuse an index or class beyond 64 bits alike.
"""

import csv
from array import array

import numpy as np

from cshc.data import DataError
from cshc.rng import substream


def one_nn_proba(model, X):
    """What `model.proba_from_features(X)` gives, or the DataError it
    raises, for a one_nn model."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            Z = (np.atleast_2d(X) - model.mean) / model.scale
            p = np.zeros((Z.shape[0], model.n_classes))
            for i, z in enumerate(Z):
                d2 = ((model.X - z) ** 2).sum(axis=1)
                p[i, model.y[np.argmin(d2)]] = 1.0  # lowest index on ties
            return p
    except FloatingPointError as exc:
        raise DataError("classifier %r: %s while scoring"
                        % (model.spec.name, exc)) from None


def perceptron_weights(ds, mean, scale):
    """The averaged (C, F+1) weights `PerceptronTrained.fit` gives for a
    Dataset standardized by (mean, scale), by the numpy step it
    replaced."""
    epochs, lr, seed = 10, 1.0, 0
    Z = (ds.features - mean) / scale
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
    return Wsum / (epochs * S)


class ExternalPredictions:
    """Validated contents of an external-predictions CSV, one dict entry
    per sample index."""

    def __init__(self, labels, probas, n_classes, path):
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


def load_external_predictions(path, n_classes=None):
    """What `classifiers.load_external_predictions(path,
    n_classes=n_classes)` gives, or the DataError it raises, for a file
    whose sample indices are distinct and whose cells are finite."""
    labels, probas = {}, {}
    width = None
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            next(reader)
        except StopIteration:
            raise DataError("%s: file is empty" % path) from None
        for lineno, rec in enumerate(reader, start=2):
            if not rec:
                continue
            try:
                idx = int(rec[0])
                label = int(rec[1])
                # the program keeps them in int64 arrays, which refuse an
                # index or class beyond 64 bits
                array("q", [idx, label])
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
    return ExternalPredictions(labels, probas, C, path)
