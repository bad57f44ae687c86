"""Oracles for the classifier pool, compared with bit for bit.

- Per-row 1-NN scoring, the oracle for `OneNNTrained`: the program finds
  the nearest training row of every query at once with
  `kernels.nearest`; this module keeps the plain scan, one query row at
  a time over the whole training set, overflow errors included.
- The perceptron's numpy update step, the oracle for
  `classifiers._train_perceptron`, which reads each step's scores as
  Python floats and updates only the rows of the wrong classes.
"""

import numpy as np

from cshc.data import DataError
from cshc.rng import substream


def one_nn_proba(model, X):
    """What `model.proba_from_features(X)` gives, or the DataError it
    raises, for a one_nn model."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            Z = model.scaler.transform(np.atleast_2d(X))
            p = np.zeros((Z.shape[0], model.n_classes))
            for i, z in enumerate(Z):
                d2 = ((model.X - z) ** 2).sum(axis=1)
                p[i, model.y[np.argmin(d2)]] = 1.0  # lowest index on ties
            return p
    except FloatingPointError as exc:
        raise DataError("classifier %r: %s while scoring"
                        % (model.spec.name, exc)) from None


def perceptron_weights(ds, scaler):
    """The averaged (C, F+1) weights `_train_perceptron` gives for a
    Dataset and a fitted scaler, by the numpy step it replaced."""
    epochs, lr, seed = 10, 1.0, 0
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
    return Wsum / (epochs * S)
