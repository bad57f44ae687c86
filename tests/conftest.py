import os

import numpy as np
import pytest
from hypothesis import settings

from cshc.classifiers import ClassifierSpec
from cshc.config import ExperimentConfig
from cshc.data import Dataset

# fixed examples, no deadline and no example database: the property tests
# are part of the deterministic suite; each test sets its own max_examples
settings.register_profile("deterministic", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("deterministic")

ACCEPTANCE_LOG = []


def record_acceptance(criterion, status, detail=""):
    ACCEPTANCE_LOG.append((criterion, status, detail))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LOG:
        return
    terminalreporter.section("acceptance criteria")
    for criterion, status, detail in ACCEPTANCE_LOG:
        line = "%-42s %s" % (criterion, status)
        if detail:
            line += "  (%s)" % detail
        terminalreporter.write_line(line)


# ---------------------------------------------------------------------------
# synthetic 3-region benchmark
# ---------------------------------------------------------------------------

def build_region_benchmark(tmpdir, seed=1234, n_train=1500, n_test=750):
    """Three experts on x0 in [0,3), three classes, outcomes by design.

    Inside its own region an expert is right with p=0.995; foreign
    classifiers are right with p=0.32 / p=0.18 and their wrong votes go
    to distinct classes, so wrong votes never pile onto one class.
    Writes the dataset CSV and one external-prediction file per expert;
    returns (data_path, external_paths, info dict).
    """
    rng = np.random.default_rng(seed)
    N = n_train + n_test
    x0 = rng.uniform(0.0, 3.0, size=N)
    x1 = rng.uniform(-1.0, 1.0, size=N)
    truth = rng.integers(0, 3, size=N)
    region = np.floor(x0).astype(int)
    preds = np.empty((N, 3), dtype=int)
    for i in range(N):
        r, t = region[i], truth[i]
        for a in range(3):
            if a == r:
                ok = rng.random() < 0.995
                preds[i, a] = t if ok else (t + 1 + int(rng.random() < 0.5)) % 3
            elif a == (r + 1) % 3:
                preds[i, a] = t if rng.random() < 0.32 else (t + 1) % 3
            else:
                preds[i, a] = t if rng.random() < 0.18 else (t + 2) % 3
    # the CSV encodes classes by first appearance; predictions must be
    # written in that same encoded space
    enc = {}
    for t in truth:
        if t not in enc:
            enc[t] = len(enc)
    data_path = os.path.join(tmpdir, "regions.csv")
    with open(data_path, "w") as fh:
        fh.write("x0,x1,label\n")
        for i in range(N):
            fh.write("%.10f,%.10f,c%d\n" % (x0[i], x1[i], truth[i]))
    ext_paths = []
    for a in range(3):
        p = os.path.join(tmpdir, "expert%d.csv" % a)
        with open(p, "w") as fh:
            fh.write("sample_index,predicted_class\n")
            for i in range(N):
                fh.write("%d,%d\n" % (i, enc[preds[i, a]]))
        ext_paths.append(p)
    info = {"truth": truth, "preds": preds, "region": region, "enc": enc,
            "n_train": n_train, "n_test": n_test}
    return data_path, ext_paths, info


def region_benchmark_config(data_path, ext_paths, seed=7, methods=None):
    return ExperimentConfig(
        datasets=[("regions", data_path, "label")],
        pool=[],
        external=[("expert%d" % a, p) for a, p in enumerate(ext_paths)],
        methods=methods or ["cshc", "rr", "lp", "lpr", "ola", "lca", "apr",
                            "mcb", "knora_u", "mv"],
        seed=seed,
        test_fraction=1.0 / 3.0,
    )


@pytest.fixture(scope="session")
def region_benchmark(tmp_path_factory):
    tmpdir = tmp_path_factory.mktemp("regions")
    return build_region_benchmark(str(tmpdir))


@pytest.fixture(scope="session")
def region_result(region_benchmark):
    import time

    from cshc.harness import run_experiment

    data_path, ext_paths, info = region_benchmark
    cfg = region_benchmark_config(data_path, ext_paths)
    t0 = time.perf_counter()
    result = run_experiment(cfg)
    elapsed = time.perf_counter() - t0
    return cfg, result, info, elapsed


# ---------------------------------------------------------------------------
# small reusable datasets
# ---------------------------------------------------------------------------

@pytest.fixture
def two_blob_ds():
    """Two well-separated 2-D clusters, 30 samples each."""
    rng = np.random.default_rng(0)
    a = rng.normal(loc=(-3.0, 0.0), scale=0.4, size=(30, 2))
    b = rng.normal(loc=(3.0, 0.0), scale=0.4, size=(30, 2))
    X = np.vstack([a, b])
    y = np.array([0] * 30 + [1] * 30)
    return Dataset(X, y, ["x0", "x1"], ["neg", "pos"])


@pytest.fixture
def default_pool():
    return [ClassifierSpec(k) for k in
            ("gaussian_nb", "one_nn", "decision_tree_gini", "perceptron")]
