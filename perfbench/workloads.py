"""Benchmark workloads: seeded input generators and the CLI commands run on them.

Every workload writes its inputs under a fixed relative directory, because
the program records dataset and prediction paths in `runs.jsonl` and the
bundle metadata; a stable path keeps those outputs comparable across
checkouts. The program's own seed stays at its default (7); only the
generated data depends on the workload seed.

Why these three workloads:
- regions: 3 external experts on structured data (the 3-region recipe used
  by the acceptance tests, at 6000 training and 3000 test rows), all ten
  methods through `evaluate`. Leaf aggregation and selection dominate; the LP is
  nearly all cache hits, so an LP change should leave it flat.
- noisy-lp: `train` on a fixed 300x8 label-noise set with the native pool,
  then `select` with lp and lpr on 80 seeded rows. The per-query LP is
  about 99% of the run.
- train-select: `train --protocol cv3` on a fixed 3000x16 label-noise set,
  then `select` with cshc and rr on 2000 seeded rows. Split search, the
  forest.json round trip and routing of many queries, with no LP at all.
"""

import csv
import os

import numpy as np

import check

WORK = ".bench_work"
TRAIN_SEED = 0
REGIONS_ROWS = 9000  # 6000 training and 3000 test rows at test_fraction 1/3

ALL_METHODS = ("cshc", "rr", "lp", "lpr", "ola", "lca", "apr", "mcb",
               "knora_u", "mv")


def _write_csv(path, X, labels):
    cols = ["x%d" % j for j in range(X.shape[1])]
    with open(path, "w") as fh:
        fh.write(",".join(cols + ["label"]) + "\n")
        for row, lab in zip(X, labels):
            fh.write(",".join("%.10f" % v for v in row) + ",c%d\n" % lab)


def _write_features(path, X):
    with open(path, "w") as fh:
        fh.write(",".join("x%d" % j for j in range(X.shape[1])) + "\n")
        for row in X:
            fh.write(",".join("%.10f" % v for v in row) + "\n")


def make_regions(seed, indir):
    """Three experts on x0 in [0,3), three classes, outcomes by design.

    Inside its own region an expert is right with p=0.995; the next expert
    with p=0.32 and the other with p=0.18, and their wrong votes go to
    distinct classes. Writes the dataset and one prediction file per expert.
    """
    rng = np.random.default_rng(seed)
    N = REGIONS_ROWS
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
    enc = _class_coding(truth)  # predictions are written in the CSV's coding
    data = os.path.join(indir, "regions.csv")
    _write_csv(data, np.column_stack([x0, x1]), truth)
    experts = []
    for a in range(3):
        p = os.path.join(indir, "expert%d.csv" % a)
        with open(p, "w") as fh:
            fh.write("sample_index,predicted_class\n")
            for i in range(N):
                fh.write("%d,%d\n" % (i, enc[int(preds[i, a])]))
        experts.append(p)
    ini = os.path.join(indir, "regions.ini")
    with open(ini, "w") as fh:
        fh.write("[experiment]\ntest_fraction = %r\n\n[classifiers]\npool =\n"
                 % (1.0 / 3.0))
        for a, p in enumerate(experts):
            fh.write("external expert%d = %s\n" % (a, p))
    code = np.vectorize(enc.get)
    return {"data": data, "config": ini, "inputs": [data] + experts + [ini],
            "truth": code(truth), "preds": code(preds)}


def noisy_rows(rng, n, f):
    """X ~ N(0,1); y = round(x0 + 0.5*x1^2 + N(0, 0.7^2)) mod 3."""
    X = rng.normal(size=(n, f))
    y = np.rint(X[:, 0] + 0.5 * X[:, 1] ** 2
                + rng.normal(0.0, 0.7, size=n)).astype(int) % 3
    return X, y


def make_train_and_query(seed, indir, stem, n_train, n_query, n_features):
    """A fixed label-noise training set and `n_query` seeded query rows.

    The training rows always come from the same stream: on label-noise data
    the forest, and with it the size of every query's bundle and LP, is set
    by the training draw, and moved run times by 20% between seeds. Fixing
    the training set keeps the cost comparable across seeds; the seed
    varies the query rows the selection runs on.
    """
    X, y = noisy_rows(np.random.default_rng(TRAIN_SEED), n_train, n_features)
    Xq, yq = noisy_rows(np.random.default_rng([1, seed]), n_query, n_features)
    data = os.path.join(indir, stem + ".csv")
    query = os.path.join(indir, stem + "_query.csv")
    _write_csv(data, X, y)
    _write_features(query, Xq)
    enc = _class_coding(y)
    # the query truth stays with the benchmark
    return {"data": data, "query": query, "inputs": [data, query],
            "class_names": ["c%d" % t for t in enc],
            "query_truth": np.array([enc[int(t)] for t in yq])}


def _class_coding(labels):
    """The program's class coding: classes numbered by first appearance."""
    enc = {}
    for t in labels:
        enc.setdefault(int(t), len(enc))
    return enc


class Workload:
    """Inputs, the set-up command, the run commands and their checks."""

    name = None
    methods = ALL_METHODS
    extra = []

    def __init__(self, seed):
        self.seed = seed
        self.dir = os.path.join(WORK, self.name)
        self.indir = os.path.join(self.dir, "input")

    def bundle_dir(self):
        return os.path.join(self.dir, "bundle")

    def setup_argv(self):
        return ["train", "--data", self.inp["data"], "--name", self.name,
                "--label", "label", "--out", self.bundle_dir()] + self.extra


class Regions(Workload):
    """Set-up is `cshc evaluate --methods mv`: load, split, correctness
    matrix and forest build, without selection. The run is one
    `cshc evaluate` over all ten methods; its reference method is lpr.

    `cshc train` cannot serve as set-up here: it fails on pools of external
    predictions (their models carry no scaler for the bundle to save). Every
    method needs either the test rows' bundles or their kNN regions; mv
    needs the cheaper regions, which still take most of the set-up time, so
    this setup_s follows the build only weakly.
    """

    name = "regions"
    reference = "lpr"

    def generate(self):
        self.inp = make_regions(self.seed, self.indir)
        self.extra = ["--config", self.inp["config"]]

    def _evaluate(self, outdir):
        return ["evaluate", "--data", self.inp["data"], "--name", self.name,
                "--label", "label", "--out", outdir] + self.extra

    def setup_argv(self):
        return self._evaluate(self.bundle_dir()) + ["--methods", "mv",
                                                    "--reference", "mv"]

    def run_commands(self, outdir):
        return [(self._evaluate(outdir), outdir)]

    def check_setup(self, outdir):
        return check.check_results(outdir, self.name, ["mv"])[0]

    def check_run(self, argv, outdir):
        """Structure of results.csv, and its oracle and static columns
        against values computed here from the generated predictions."""
        problems, row = check.check_results(outdir, self.name, self.methods)
        test = self.test_rows(outdir)
        truth, preds = self.inp["truth"][test], self.inp["preds"][test]
        want = {"oracle": (preds == truth[:, None]).any(axis=1).mean()}
        for a in range(preds.shape[1]):
            want["static:expert%d" % a] = (preds[:, a] == truth).mean()
        for col, acc in want.items():
            if row.get(col) != "%.4f" % (acc * 100.0):
                problems.append("%s is %s, expected %.4f"
                                % (col, row.get(col), acc * 100.0))
        return problems

    def test_rows(self, outdir):
        path = os.path.join(outdir, "trace_%s_cshc.csv" % self.name)
        with open(path, newline="") as fh:
            return np.array([int(r["sample_index"])
                             for r in csv.DictReader(fh)])

    def query_rows(self, outdirs):
        return len(self.test_rows(outdirs[0]))

    def accuracy(self, outdirs):
        return float(check.results_row(outdirs[0], self.name)["lpr"])


class SelectWorkload(Workload):
    """Set-up is `cshc train`; the run is one `cshc select` per method, each
    writing into its own directory. Accuracy is the reference method's,
    scored against query truth that the program never sees."""

    def run_commands(self, outdir):
        cmds = []
        for m in self.methods:
            d = os.path.join(outdir, m)
            cmds.append((["select", "--model", self.bundle_dir(), "--input",
                          self.inp["query"], "--method", m, "--output",
                          os.path.join(d, "select_%s.csv" % m)], d))
        return cmds

    def check_setup(self, outdir):
        if not os.path.isfile(os.path.join(outdir, "assignments.csv")):
            return ["train wrote no assignments.csv"]
        return []

    def _select_rows(self, outdir, method):
        with open(os.path.join(outdir, "select_%s.csv" % method),
                  newline="") as fh:
            return list(csv.DictReader(fh))

    def check_run(self, argv, outdir):
        method = argv[argv.index("--method") + 1]
        rows = self._select_rows(outdir, method)
        names = self.inp["class_names"]
        problems = []
        if len(rows) != len(self.inp["query_truth"]):
            problems.append("select %s wrote %d rows for %d queries"
                            % (method, len(rows), len(self.inp["query_truth"])))
        for q, r in enumerate(rows):
            c = int(r["predicted_class"])
            if int(r["row"]) != q or not 0 <= c < len(names) \
                    or r["predicted_class_name"] != names[c]:
                problems.append("select %s: bad row %d: %s" % (method, q, r))
                break
        return problems

    def query_rows(self, outdirs):
        return len(self.inp["query_truth"])

    def accuracy(self, outdirs):
        i = self.methods.index(self.reference)
        rows = self._select_rows(outdirs[i], self.reference)
        pred = np.array([int(r["predicted_class"]) for r in rows])
        return float((pred == self.inp["query_truth"]).mean() * 100.0)


class NoisyLp(SelectWorkload):
    name = "noisy-lp"
    methods = ("lp", "lpr")
    reference = "lpr"

    def generate(self):
        self.inp = make_train_and_query(self.seed, self.indir, "noisy",
                                        300, 80, 8)


class TrainSelect(SelectWorkload):
    name = "train-select"
    methods = ("cshc", "rr")
    reference = "rr"
    extra = ["--protocol", "cv3"]

    def generate(self):
        self.inp = make_train_and_query(self.seed, self.indir, "train",
                                        3000, 2000, 16)


WORKLOADS = {w.name: w for w in (Regions, NoisyLp, TrainSelect)}
