"""End-to-end oracle for the tree layers, the classifiers, the kNN
kernel, the neighbourhood baselines, the selection methods and the LP.

The program grows its CSHC trees a group at a time and its Gini trees
level by level, in `kernels.grow`, trains the perceptron with one
in-place add per wrong class, finds the 1-NN's nearest rows and the
baselines' kNN regions for a whole batch at once, in `kernels.nearest`,
scores each baseline and each selection method over the whole test
partition as arrays, reading the LPs' members from the forest's one leaf
table, and hands each LP to HiGHS's low-level binding. Here each command
runs twice on one small native-pool dataset: once as it is, and once
with every tree grown node by node by `forest_reference`, the
perceptron trained by its numpy step and the 1-NN scored row by row by
`classifiers_reference`, every region found and every baseline scored
query by query by `baselines_reference`, every selection made query by
query by `selection_reference` over bundles built from each query's
leaves by `forest_reference`, and every LP solved through public
`linprog` by `lp_reference` instead. Every file the commands write, the
bundles' meta.json and forest.json included, must be the same bytes both
times.
"""

import os
import tempfile

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

import baselines_reference
import classifiers_reference
import cshc.forest as forest_module
import cshc.harness as harness_module
import cshc.lp as lp_module
import cshc.selection as selection_module
import forest_reference
import lp_reference
import selection_reference
from cshc.classifiers import (GiniTreeTrained, OneNNTrained, PerceptronTrained,
                              standardizer)
from cshc.cli import main
from cshc.config import ALL_METHODS
from cshc.harness import SELECTION_METHODS
from cshc.selection import Selection


def reference_gini_fit(cls, spec, ds):
    """`GiniTreeTrained.fit` by the reference Gini grower."""
    feat, thr, _, _, _, proba = forest_reference.gini_tree(
        ds.features, ds.labels, ds.n_classes)
    return cls(spec, ds.n_classes, ds.n_features, feat=feat, thr=thr,
               leaf_proba=proba)


def reference_perceptron_fit(cls, spec, ds):
    """`PerceptronTrained.fit` by the numpy step it replaced."""
    mean, scale = standardizer(ds.features)
    return cls(spec, ds.n_classes, ds.n_features, mean=mean, scale=scale,
               W=classifiers_reference.perceptron_weights(ds, mean, scale))


def reference_select_batch(method, forest, leaf_ids, cumulative, dominant,
                           labels, sample_ids, gamma, rho, seed, cache):
    """`selection.select_batch` by the per-query reference, over bundles
    built from the members of each query's leaves; cumulative and
    dominant, the program's, are left unread."""
    bundles = [forest_reference.leaf_bundle(forest, ids) for ids in leaf_ids]
    outcomes = selection_reference.select_batch(
        method, bundles, labels, sample_ids, forest.cm, gamma, rho, seed,
        cache)
    columns = [np.array([getattr(o, key) for o in outcomes], dtype=dtype)
               for key, dtype in (("chosen_classifier", np.int64),
                                  ("predicted_class", np.int64),
                                  ("method_used", object),
                                  ("confidence_ratio", np.float64))]
    ratios = [np.array([np.nan if getattr(o, key) is None
                        else getattr(o, key) for o in outcomes])
              for key in ("rr_ratio", "lp_ratio")]
    return Selection(method, *columns, *ratios)


def write_inputs(tmp, seed):
    """A 150-row, 3-feature, 3-class dataset whose classes overlap, so
    that the classifiers disagree and the trees split, and 40 query rows
    around it. Returns the two paths."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 3, size=150)
    X = rng.normal(size=(150, 3)) + 0.8 * np.eye(3)[labels]
    X[:, 2] = np.round(X[:, 2], 1)  # tied values
    data = os.path.join(tmp, "data.csv")
    with open(data, "w") as fh:
        fh.write("x0,x1,x2,label\n")
        for x, y in zip(X.tolist(), labels.tolist()):
            fh.write("%r,%r,%r,c%d\n" % (*x, y))
    query = os.path.join(tmp, "query.csv")
    with open(query, "w") as fh:
        fh.write("x0,x1,x2\n")
        for x in rng.normal(size=(40, 3)).tolist():
            fh.write("%r,%r,%r\n" % tuple(x))
    return data, query


def run_commands(tmp, tag, data, query, seed, protocol):
    """{file name: bytes} of evaluate with all twelve methods, and of
    train and then select with each selection method."""
    common = ["--data", data, "--label", "label", "--seed", str(seed),
              "--protocol", protocol]
    out = os.path.join(tmp, tag + "-evaluate")
    assert main(["evaluate", *common, "--methods", ",".join(ALL_METHODS),
                 "--out", out]) == 0
    bundle = os.path.join(tmp, tag + "-bundle")
    assert main(["train", *common, "--out", bundle]) == 0
    for method in SELECTION_METHODS:
        assert main(["select", "--model", bundle, "--input", query,
                     "--method", method, "--output",
                     os.path.join(bundle, "select_%s.csv" % method)]) == 0
    files = {}
    for d in (out, bundle):
        for name in sorted(os.listdir(d)):
            with open(os.path.join(d, name), "rb") as fh:
                files[name] = fh.read()
    return files


@pytest.mark.parametrize("protocol", ["split50", "cv3"])
# no shrinking: a failing seed is reported as drawn, not minimized over
# many more runs of every command
@settings(max_examples=2, deadline=None, phases=[Phase.generate])
@given(seed=st.integers(0, 2 ** 16))
def test_reference_growers_write_the_same_files(protocol, seed):
    with tempfile.TemporaryDirectory() as tmp:
        data, query = write_inputs(tmp, seed)
        want = run_commands(tmp, "program", data, query, seed, protocol)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(forest_module, "grow_group",
                       forest_reference.grow_group)
            mp.setattr(GiniTreeTrained, "fit", classmethod(reference_gini_fit))
            mp.setattr(PerceptronTrained, "fit",
                       classmethod(reference_perceptron_fit))
            mp.setattr(selection_module, "select_batch",
                       reference_select_batch)
            mp.setattr(OneNNTrained, "_proba", classifiers_reference.one_nn_proba)
            mp.setattr(harness_module, "_baseline_choice",
                       baselines_reference.baseline_choice)
            mp.setattr(lp_module, "solve", lp_reference.linprog_solve)
            got = run_commands(tmp, "reference", data, query, seed, protocol)
    assert sorted(got) == sorted(want)
    assert len([n for n in want if n.startswith("trace_")]) == 4
    for name in want:
        assert got[name] == want[name], name
