"""Bundle arrays round-trip bit for bit: every SCHEMA entry through its
stored text, and whole random bundles through each writer and reader."""

import json
import os
import tempfile
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cshc import bundle
from cshc.bundle import (SCHEMA, load_bundle, read_forest, read_models,
                         save_bundle, write_forest, write_models)
from cshc.classifiers import CLASSIFIERS, ClassifierSpec
from cshc.data import GAMMA_BOUND, CorrectnessMatrix, DataError
from cshc.forest import Forest, Tree

MAX = np.finfo(np.float64).max
TINY = np.finfo(np.float64).tiny
# signed zeros, the least subnormal, the least normal and the largest
# finite magnitudes
EDGES = [0.0, -0.0, 5e-324, -5e-324, TINY, -TINY, MAX, -MAX]
FINITE = st.sampled_from(EDGES) | st.floats(allow_nan=False,
                                            allow_infinity=False)
POSITIVE = st.sampled_from([5e-324, TINY, MAX]) | st.floats(
    min_value=5e-324, allow_infinity=False)
# a gamma the LP can take: finite and below HiGHS's infinite bound
GAMMA = st.sampled_from([e for e in EDGES if e < GAMMA_BOUND]) | st.floats(
    max_value=GAMMA_BOUND, exclude_max=True, allow_nan=False,
    allow_infinity=False)
INT64 = st.sampled_from([-2 ** 63, 2 ** 63 - 1, -1, 0]) | st.integers(
    -2 ** 63, 2 ** 63 - 1)


def assert_same(got, want, name):
    assert got.dtype == want.dtype and got.shape == want.shape, name
    assert got.tobytes() == want.tobytes(), name


def _nested(key, value):
    """The object that holds value at the dotted path key."""
    for part in reversed(key.split(".")):
        value = {part: value}
    return value


ENTRIES = [(kind, key) for kind in SCHEMA for key in SCHEMA[kind]]


class TestStoredArrays:
    @settings(max_examples=300)
    @given(st.sampled_from(ENTRIES), st.data())
    def test_every_entry_reads_back(self, entry, data):
        """Any array of an entry's dtype and rank, -inf in a log
        probability included, reads back from the stored JSON text with
        the same dtype, shape and bytes."""
        kind, key = entry
        dtype, letters = SCHEMA[kind][key]
        log = getattr(CLASSIFIERS.get(kind), "LOG_STATE", ())
        elements = (INT64 if dtype == "i8" else
                    FINITE | st.just(-np.inf) if key in log else FINITE)
        shape = data.draw(st.tuples(*[st.integers(0, 4)] * len(letters)))
        want = data.draw(arrays("<" + dtype, shape, elements=elements))
        text = json.dumps(_nested(key, bundle._encoded(want, dtype)))
        got = bundle._arrays(json.loads(text), {key: SCHEMA[kind][key]}, {},
                             log)[key]
        assert_same(got, want, key)


@st.composite
def layouts(draw, max_splits, n_features):
    """feat and thr of a tree in the layout the grower writes, with at
    most max_splits splits."""
    feat, nodes, splits = [], 1, 0
    while len(feat) < nodes:
        if splits < max_splits and draw(st.booleans()):
            feat.append(draw(st.integers(0, n_features - 1)))
            nodes, splits = nodes + 2, splits + 1
        else:
            feat.append(-1)
    thr = draw(arrays("<f8", len(feat), elements=FINITE))
    return np.array(feat, "<i8"), thr


@st.composite
def forests(draw, cm, n_features):
    """A forest of one to three trees over the rows of cm, whose leaves
    hold one member or more and each tree's at most as many
    multiplicities in all as cm has rows."""
    n_rows = cm.n_samples
    trees, sizes, rows, mult = [], [], [], []
    for _ in range(draw(st.integers(1, 3))):
        feat, thr = draw(layouts(min(n_rows - 1, 3), n_features))
        trees.append(Tree(feat, thr))
        L = int((feat < 0).sum())
        m = draw(st.integers(L, n_rows))
        cuts = sorted(draw(st.lists(st.integers(1, max(m - 1, 1)),
                                    unique=True, min_size=L - 1,
                                    max_size=L - 1)))
        sizes += np.diff([0] + cuts + [m]).tolist()
        mult.append(np.ones(m))
        mult[-1][draw(st.integers(0, m - 1))] += draw(
            st.integers(0, n_rows - m))
        rows.append(draw(arrays("<i8", m,
                                elements=st.integers(0, n_rows - 1))))
    return Forest(trees, np.cumsum([0] + sizes, dtype="<i8"),
                  np.concatenate(rows), np.concatenate(mult), cm, n_features)


@st.composite
def bundles(draw):
    """The prep of a random bundle: one model of each native kind, their
    states drawn to the edges of what the loader accepts, and the
    settings meta.json keeps in prep.cfg."""
    C, F, M = (draw(st.integers(2, 3)), draw(st.integers(1, 3)),
               draw(st.integers(1, 6)))
    S = draw(st.integers(1, 5))
    classes = st.integers(0, C - 1)
    states = {
        "gaussian_nb": dict(
            log_prior=draw(arrays("<f8", C, elements=FINITE | st.just(
                -np.inf))),
            theta=draw(arrays("<f8", (C, F), elements=FINITE)),
            var=draw(arrays("<f8", (C, F), elements=POSITIVE))),
        "one_nn": dict(
            mean=draw(arrays("<f8", F, elements=FINITE)),
            scale=draw(arrays("<f8", F, elements=POSITIVE)),
            X=draw(arrays("<f8", (S, F), elements=FINITE)),
            y=draw(arrays("<i8", S, elements=classes))),
        "perceptron": dict(
            mean=draw(arrays("<f8", F, elements=FINITE)),
            scale=draw(arrays("<f8", F, elements=POSITIVE)),
            W=draw(arrays("<f8", (C, F + 1), elements=FINITE)))}
    feat, thr = draw(layouts(3, F))
    hits = np.array(draw(st.lists(classes, min_size=int((feat < 0).sum()),
                                  max_size=int((feat < 0).sum()))))
    states["decision_tree_gini"] = dict(
        feat=feat, thr=thr,
        leaf_proba=(hits[:, None] == np.arange(C)).astype("<f8"))
    models = [CLASSIFIERS[kind](ClassifierSpec(kind), C, F, **state)
              for kind, state in sorted(states.items())]
    cm = CorrectnessMatrix(
        draw(arrays("<i8", (M, len(models)), elements=classes)),
        draw(arrays("<i8", M, elements=classes)), C)
    forest = draw(forests(cm, F))
    prep = SimpleNamespace(
        name="random", models=models, forest=forest, cm=cm,
        ds=SimpleNamespace(feature_names=["f%d" % j for j in range(F)],
                           class_names=["c%d" % c for c in range(C)]))
    prep.cfg = SimpleNamespace(gamma=draw(GAMMA), rho=draw(FINITE),
                               seed=draw(st.integers(0, 2 ** 31)))
    return prep


def assert_same_models(got, want):
    assert [m.spec.kind for m in got] == [m.spec.kind for m in want]
    for a, b in zip(got, want):
        for key in SCHEMA[b.spec.kind]:
            assert_same(getattr(a, key), getattr(b, key), key)


def assert_same_trees(got, want):
    assert len(got.trees) == len(want.trees)
    for a, b in zip(got.trees, want.trees):
        for key in SCHEMA["tree"]:
            assert_same(getattr(a, key), getattr(b, key), key)
    for key in SCHEMA["forest"]:
        assert_same(getattr(got, key), getattr(want, key), key)


class TestRandomBundles:
    @settings(max_examples=60)
    @given(bundles())
    def test_writers_and_readers_keep_every_array(self, prep):
        C, F = prep.cm.n_classes, prep.forest.n_features
        with tempfile.TemporaryDirectory() as tmp:
            models_dir, forest_dir, bundle_dir = (
                os.path.join(tmp, name) for name in ("m", "f", "b"))
            write_models(models_dir, prep.models)
            assert_same_models(read_models(models_dir, len(prep.models), C,
                                           F), prep.models)
            write_forest(forest_dir, prep.forest)
            assert_same_trees(read_forest(forest_dir, prep.cm, F),
                              prep.forest)
            save_bundle(prep, bundle_dir)
            meta, models, forest = load_bundle(bundle_dir)
        assert_same_models(models, prep.models)
        assert_same_trees(forest, prep.forest)
        assert_same(forest.cm.predicted, prep.cm.predicted, "predicted")
        assert_same(forest.cm.truth, prep.cm.truth, "truth")
        assert meta["config"] == vars(prep.cfg)

    @settings(max_examples=3)
    @given(bundles(), st.sampled_from([GAMMA_BOUND, 1e21, float(MAX)]))
    def test_gamma_at_the_solver_bound_is_refused(self, prep, gamma):
        """A meta.json whose gamma HiGHS reads as infinite does not load,
        so that `select --method lp` exits 2 instead of failing in the
        solver."""
        prep.cfg.gamma = gamma
        with tempfile.TemporaryDirectory() as tmp:
            save_bundle(prep, tmp)
            with pytest.raises(DataError) as got:
                load_bundle(tmp)
            assert str(got.value) == (
                "%s: 'config.gamma' must be below 1e+20, HiGHS's infinite "
                "bound, got %r" % (os.path.join(tmp, "meta.json"), gamma))
