"""Per-row 1-NN scoring: the oracle for `OneNNTrained`.

The program finds the nearest training row of every query at once with
`kernels.nearest`. This module keeps the plain scan, one query row at a
time over the whole training set, as the oracle the 1-NN tests compare
with bit for bit, overflow errors included.
"""

import numpy as np

from cshc.data import DataError


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
