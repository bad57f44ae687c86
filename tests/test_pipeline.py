"""End-to-end oracle for the tree layers, the kNN kernel, the
neighbourhood baselines and the LP.

The program grows its CSHC trees a group at a time and its Gini trees
level by level, in `kernels.grow`, finds the 1-NN's nearest rows and the
baselines' kNN regions for a whole batch at once, in `kernels.nearest`,
scores each baseline over the whole test partition as arrays, and hands
each LP to HiGHS's low-level binding. Here each command runs twice on
one small native-pool dataset: once as it is, and once with every tree
grown node by node by `forest_reference`, the 1-NN scored row by row by
`classifiers_reference`, every region found and every baseline scored
query by query by `baselines_reference`, and every LP solved through
public `linprog` by `lp_reference` instead. Every file the commands
write, the bundles' meta.json included, must be the same bytes both
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
import forest_reference
import lp_reference
from cshc.classifiers import GiniTreeTrained, OneNNTrained
from cshc.cli import main
from cshc.config import ALL_METHODS
from cshc.harness import SELECTION_METHODS


def reference_group(draws, cfg, correct, features):
    """`forest.grow_group` by the reference grower, one tree at a time."""
    return [forest_reference.grow_tree(rows, mult, cfg, correct, features,
                                       allowed)
            for rows, mult, allowed in draws]


def reference_gini_fit(cls, spec, ds):
    """`GiniTreeTrained.fit` by the reference Gini grower."""
    feat, thr, _, _, _, proba = forest_reference.gini_tree(
        ds.features, ds.labels, ds.n_classes)
    return cls(spec, ds.n_classes, ds.n_features, feat=feat, thr=thr,
               leaf_proba=proba)


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
            mp.setattr(forest_module, "grow_group", reference_group)
            mp.setattr(GiniTreeTrained, "fit", classmethod(reference_gini_fit))
            mp.setattr(OneNNTrained, "_proba", classifiers_reference.one_nn_proba)
            mp.setattr(harness_module, "_baseline_choice",
                       baselines_reference.evaluate_baseline)
            mp.setattr(lp_module, "solve", lp_reference.linprog_solve)
            got = run_commands(tmp, "reference", data, query, seed, protocol)
    assert sorted(got) == sorted(want)
    assert len([n for n in want if n.startswith("trace_")]) == 4
    for name in want:
        assert got[name] == want[name], name
