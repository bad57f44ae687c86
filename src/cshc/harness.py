"""End-to-end experiments: shared artifacts, method evaluation, metrics.

Per dataset: split off a test partition, build the correctness matrix
on the protocol's validation data, run every method against identical
test-time base-classifier predictions, growing the forest only when a
method reads it, then fold the per-dataset accuracies into the
cross-benchmark comparison statistics. When a method reads the test
rows' kNN regions, a second thread finds them while the forest grows.
"""

import json
import warnings
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import baselines as bl
from . import classifiers as clf
from . import selection as sel
# cli saves and loads bundles through harness, where the benchmark's
# tracer wraps the two, as it wraps the correctness builders here
from .bundle import load_bundle, save_bundle
from .classifiers import build_correctness_cv3, build_correctness_holdout
from .config import ExperimentConfig
from .data import (CorrectnessMatrix, DataError, load_csv, make_split,
                   open_output, write_csv)
from .forest import average_rank, build_forest, query_batch
from .selection import SELECTION_METHODS


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def oracle_accuracy(cm_test):
    """Percent of samples at least one classifier labels correctly."""
    return float(cm_test.correct.max(axis=1).mean() * 100.0)


def mgi(reference_acc, method_acc):
    """Geometric mean of reference/method accuracy ratios, minus 1, in %."""
    ref = np.asarray(reference_acc, dtype=np.float64)
    acc = np.asarray(method_acc, dtype=np.float64)
    if ref.shape != acc.shape:
        raise ValueError("accuracy vectors differ in length")
    if ref.min() <= 0 or acc.min() <= 0:
        raise ValueError("accuracies must be positive for the ratio mean")
    return float((np.exp(np.mean(np.log(ref / acc))) - 1.0) * 100.0)


def wins_losses(reference_acc, method_acc):
    """(wins, losses, ties) of the method against the reference."""
    ref = np.asarray(reference_acc, dtype=np.float64)
    acc = np.asarray(method_acc, dtype=np.float64)
    return (int((acc > ref).sum()), int((acc < ref).sum()),
            int((acc == ref).sum()))


def average_ranks(table):
    """Mean rank per method from a methods x datasets accuracy table;
    rank M is best, ties share the average rank."""
    arr = np.asarray(table, dtype=np.float64)
    return average_rank(arr, axis=0).mean(axis=1)


def paired_sign_ttest(outcomes):
    """Two-sided one-sample t-test of +1/-1/0 indicators against 0.

    Uses the sample standard deviation with N-1 degrees of freedom.
    Input with fewer than 2 nonzero outcomes, all zeros included, warns
    "fewer than 2 decisive outcomes" and returns p=1. With 2 or more,
    zero variance means every outcome is the same nonzero value, a
    one-sided sweep, which returns p=0.
    """
    x = np.asarray(outcomes, dtype=np.float64)
    n = x.size
    if np.count_nonzero(x) < 2:
        warnings.warn("fewer than 2 decisive outcomes; p-value degenerate")
        return 1.0
    sd = x.std(ddof=1)
    if sd == 0.0:
        return 0.0
    from scipy.special import stdtr  # only the reports need it
    t = x.mean() / (sd / np.sqrt(n))
    return float(2.0 * stdtr(n - 1, -abs(t)))


def pca_projection(train_features, test_features):
    """Two principal-component coordinates for test rows, fitted on train.

    Components are centered (not scaled) right singular vectors with a
    deterministic sign. Rank-deficient data yields zeroed trailing
    coordinates and a warning.
    """
    mean = train_features.mean(axis=0)
    centered = train_features - mean
    _, s, vt = np.linalg.svd(centered, full_matrices=False)
    rank = int((s > s.max() * 1e-12).sum()) if s.size else 0
    coords = np.zeros((test_features.shape[0], 2))
    if rank < 2:
        warnings.warn("feature matrix has rank %d; emitting %d component(s)"
                      % (rank, rank))
    for c in range(min(2, rank)):
        v = vt[c]
        v = v * np.sign(v[np.argmax(np.abs(v))])  # stable orientation
        coords[:, c] = (test_features - mean) @ v
    return coords


# ---------------------------------------------------------------------------
# per-dataset artifacts
# ---------------------------------------------------------------------------

@dataclass
class PreparedDataset:
    """What every method on one dataset reads; the forest, the test
    rows' leaves and their kNN regions are made for their first reader."""
    name: str
    ds: object
    plan: object
    models: list
    cm: CorrectnessMatrix
    dsel_ds: object               # the validation rows cm and the forest cover
    cfg: ExperimentConfig         # the forest's [cshc] settings and seed
    test_ds: object
    test_labels: np.ndarray       # (Q, n)
    test_cm: CorrectnessMatrix
    dsel_std: np.ndarray
    test_std: np.ndarray
    fold: np.ndarray = None
    query: tuple = None           # (leaf_ids, cumulative, dominant)
    regions: object = None        # (Q, k) neighbours, distances, or a Future
    lp_cache: dict = field(default_factory=dict)
    _forest: object = None

    @property
    def forest(self):
        """The forest, grown the first time it is read."""
        if self._forest is None:
            self._forest = build_forest(self.cm, self.dsel_ds, self.cfg)
        return self._forest

    def get_query(self):
        if self.query is None:
            self.query = query_batch(self.forest, self.test_ds.features)
        return self.query

    def get_regions(self):
        """The test rows' cfg.knn_k nearest validation rows and distances,
        found here or by the Future run_experiment submits, whose error
        re-raises at every read."""
        if self.regions is None:
            self.regions = bl.region_of(self.test_std, self.cfg.knn_k,
                                        self.dsel_std)
        if isinstance(self.regions, Future):
            self.regions = self.regions.result()
        return self.regions


def prepare_dataset(name, ds, cfg):
    """Build the artifacts every method on one dataset shares; the forest,
    the test rows' leaves and their kNN regions wait for a first reader."""
    plan = make_split(ds, cfg.test_fraction, cfg.seed)
    train_ds = ds.subset(plan.train_indices)
    test_ds = ds.subset(plan.test_indices)
    # each external table is loaded once, and shared by every fold
    specs = [clf.ClassifierSpec(kind) for kind in cfg.pool] + [
        clf.ClassifierSpec("external", name, clf.load_external_predictions(
            path, split=plan, n_classes=ds.n_classes))
        for name, path in cfg.external]
    fold = None
    if cfg.protocol == "split50":
        half = make_split(train_ds, 0.5, cfg.seed + 1)
        ds_a = train_ds.subset(half.train_indices)
        ds_b = train_ds.subset(half.test_indices)
        cm, models = build_correctness_holdout(ds_a, ds_b, specs)
        dsel_ds = ds_b
    else:
        cm, models, fold = build_correctness_cv3(train_ds, specs, cfg.seed)
        dsel_ds = train_ds
    test_labels = clf.pool_proba(models, test_ds.features,
                                 test_ds.row_ids).argmax(axis=2)
    test_cm = CorrectnessMatrix(test_labels, test_ds.labels.copy(),
                                ds.n_classes)
    mean, scale = clf.standardizer(dsel_ds.features)
    return PreparedDataset(
        name=name, ds=ds, plan=plan, models=models, cm=cm, dsel_ds=dsel_ds,
        cfg=cfg, test_ds=test_ds, test_labels=test_labels, test_cm=test_cm,
        dsel_std=(dsel_ds.features - mean) / scale,
        test_std=(test_ds.features - mean) / scale, fold=fold,
    )


# ---------------------------------------------------------------------------
# method evaluation
# ---------------------------------------------------------------------------

@dataclass
class MethodResult:
    method: str
    accuracy: float
    predicted: np.ndarray
    chosen: np.ndarray
    outcomes: sel.Selection = None  # selection methods only
    recourse_rate: float = None


# Neighbourhood baselines other than mv, each called with the test
# partition's (Q, k) neighbours and distances. A scorer is looked up on
# `bl` when it is called, so wrappers installed on the module apply. One
# array back is (Q, n) competence scores, whose argmax is the chosen
# classifier; a tuple back ends in a vote's (winner, rep) arrays.
_BASELINES = {
    "ola": lambda prep, cfg, nb, dist: bl.ola(nb, prep.cm),
    "lca": lambda prep, cfg, nb, dist: bl.lca(nb, prep.cm, prep.test_labels),
    "apr": lambda prep, cfg, nb, dist: bl.apriori(
        nb, prep.cm, dist if cfg.apr_distance_weighting else None),
    "apo": lambda prep, cfg, nb, dist: bl.aposteriori(
        nb, prep.cm, prep.test_labels,
        dist if cfg.apr_distance_weighting else None),
    "mcb": lambda prep, cfg, nb, dist: bl.mcb(
        nb, prep.cm, prep.test_labels, cfg.mcb_similarity),
    "knora_e": lambda prep, cfg, nb, dist: bl.knora_e(
        nb, prep.cm, prep.test_labels, prep.ds.n_classes),
    "knora_u": lambda prep, cfg, nb, dist: bl.knora_u(
        nb, prep.cm, prep.test_labels, prep.ds.n_classes),
}


def _baseline_choice(prep, method, cfg):
    """(chosen, predicted) arrays of a neighbourhood baseline."""
    if method == "mv":  # the only baseline that reads no region
        winner, rep = bl.majority_vote(prep.test_labels, prep.ds.n_classes)
        return rep, winner
    if method not in _BASELINES:
        raise DataError("unknown method %r" % method)
    result = _BASELINES[method](prep, cfg, *prep.get_regions())
    if isinstance(result, tuple):
        return result[-1], result[-2]
    chosen = result.argmax(axis=1)
    return chosen, prep.test_labels[np.arange(chosen.size), chosen]


def evaluate_method(prep, method, cfg):
    """Run one method over the whole test partition."""
    outcomes = recourse = None
    if method in SELECTION_METHODS:
        outcomes = sel.select_batch(
            method, prep.forest, *prep.get_query(), prep.test_labels,
            prep.test_ds.row_ids, cfg.gamma, cfg.rho, cfg.seed, prep.lp_cache)
        chosen, predicted = outcomes.chosen, outcomes.predicted
        if method == "lpr":
            recourse = float(outcomes.recourse.mean())
    else:
        chosen, predicted = _baseline_choice(prep, method, cfg)
    accuracy = float((predicted == prep.test_ds.labels).mean() * 100.0)
    return MethodResult(method, accuracy, predicted, chosen, outcomes, recourse)


# ---------------------------------------------------------------------------
# experiment driver
# ---------------------------------------------------------------------------

@dataclass
class ExperimentResult:
    config: ExperimentConfig
    dataset_names: list
    oracle: dict
    cells: dict        # (dataset, method) -> MethodResult
    errors: dict       # (dataset, method) or dataset -> exception
    static: dict       # (dataset, classifier name) -> accuracy
    preps: dict        # dataset -> PreparedDataset

    def accuracy_matrix(self, methods=None, datasets=None):
        """(methods x datasets) array over cells that all succeeded."""
        methods = methods or self.config.methods
        datasets = datasets or self.dataset_names
        keep = [d for d in datasets
                if all((d, m) in self.cells for m in methods)]
        arr = np.array([[self.cells[(d, m)].accuracy for d in keep]
                        for m in methods])
        return arr, keep


def run_experiment(cfg):
    """Evaluate every configured method on every configured dataset.

    A failing dataset or (dataset, method) cell keeps its exception in
    result.errors and does not abort the sweep. The cells run here in
    cfg.methods order while one worker thread finds the kNN regions.
    """
    cfg.validate()
    result = ExperimentResult(cfg, [], {}, {}, {}, {}, {})
    with ThreadPoolExecutor(1) as worker:  # no thread until a submit
        for name, path, label_column in cfg.datasets:
            result.dataset_names.append(name)
            try:
                ds = path if not isinstance(path, str) else load_csv(
                    path, label_column)
                prep = prepare_dataset(name, ds, cfg)
            except Exception as exc:
                result.errors[name] = exc
                continue
            if not _BASELINES.keys().isdisjoint(cfg.methods):
                # looked up now, as _BASELINES looks up its scorers
                prep.regions = worker.submit(bl.region_of, prep.test_std,
                                             cfg.knn_k, prep.dsel_std)
            result.preps[name] = prep
            result.oracle[name] = oracle_accuracy(prep.test_cm)
            for a, model in enumerate(prep.models):
                acc = float(prep.test_cm.correct[:, a].mean() * 100.0)
                result.static[(name, model.spec.name)] = acc
            for method in cfg.methods:
                try:
                    result.cells[(name, method)] = evaluate_method(
                        prep, method, cfg)
                except Exception as exc:
                    result.errors[(name, method)] = exc
    return result


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def _fmt(x):
    return "%.4f" % x


def error_text(exc):
    """How the reports name an exception kept in ExperimentResult.errors."""
    return "%s: %s" % (type(exc).__name__, exc)


def comparison_rows(result):
    """Stat block: wins/losses/ties vs reference, MGI, mean rank, p-value."""
    cfg = result.config
    ref = cfg.reference
    rows = []
    arr, kept = result.accuracy_matrix()
    if not kept:
        return [["note", "no dataset completed every method"]], kept
    ref_idx = cfg.methods.index(ref)
    ranks = average_ranks(arr)

    def mgi_cell(acc):  # blank where a ratio would divide by a 0% accuracy
        positive = min(arr[ref_idx].min(), acc.min()) > 0
        return _fmt(mgi(arr[ref_idx], acc)) if positive else ""
    for i, m in enumerate(cfg.methods):
        w, l, t = wins_losses(arr[ref_idx], arr[i])
        ind = np.sign(arr[i] - arr[ref_idx])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            p = paired_sign_ttest(ind) if m != ref else 1.0
        rows.append([m, str(w), str(l), str(t), mgi_cell(arr[i]),
                     _fmt(ranks[i]), _fmt(p)])
    oracle_vec = np.array([result.oracle[d] for d in kept])
    w, l, t = wins_losses(arr[ref_idx], oracle_vec)
    rows.append(["oracle", str(w), str(l), str(t),
                 mgi_cell(oracle_vec), "", ""])
    return rows, kept


def _column(values, fmt="%.4f"):
    """Each number of a float array in fmt, and "" for a NaN."""
    return ["" if x != x else fmt % x for x in values.tolist()]


def write_results_csv(result, path):
    """Write the per-dataset accuracies and the stat block to path;
    returns the stat block, ``comparison_rows(result)``."""
    cfg = result.config
    static_names = sorted({k[1] for k in result.static})
    rows = []
    for d in result.dataset_names:
        if d in result.errors:
            rows.append([d] + [""] * (len(static_names) + len(cfg.methods) + 2)
                        + [error_text(result.errors[d])])
            continue
        row = [d]
        row += [_fmt(result.static[(d, s)]) if (d, s) in result.static else ""
                for s in static_names]
        errs = []
        for m in cfg.methods:
            cell = result.cells.get((d, m))
            row.append(_fmt(cell.accuracy) if cell else "")
            if (d, m) in result.errors:
                errs.append(m + ": " + error_text(result.errors[(d, m)]))
        row.append(_fmt(result.oracle[d]))
        lpr_cell = result.cells.get((d, "lpr"))
        row.append(_fmt(lpr_cell.recourse_rate)
                   if lpr_cell and lpr_cell.recourse_rate is not None else "")
        row.append("; ".join(errs))
        rows.append(row)
    stat_rows, kept = comparison_rows(result)
    rows += [[], ["# stats vs reference=%s over %d dataset(s): %s"
                  % (cfg.reference, len(kept), ",".join(kept))],
             ["method", "wins", "losses", "ties", "mgi_pct", "avg_rank",
              "p_value"], *stat_rows]
    write_csv(path, ["dataset"] + ["static:" + s for s in static_names]
              + list(cfg.methods) + ["oracle", "recourse_rate", "errors"],
              rows)
    return stat_rows, kept


def write_trace_csv(prep, method_result, path):
    """Per-sample selection trace with every stage's confidence ratio; a
    stage that did not run leaves its ratio blank."""
    out = method_result.outcomes
    write_csv(path, ["sample_index", "method_used", "chosen_classifier",
                     "predicted_class", "confidence_ratio", "rr_ratio",
                     "lp_ratio", "recourse_invoked"], zip(
        prep.test_ds.row_ids.tolist(), out.exit.tolist(), out.chosen.tolist(),
        out.predicted.tolist(), _column(out.confidence),
        _column(out.rr_ratio), _column(out.lp_ratio),
        out.recourse.astype(int).tolist()))


def export_viz(ds, plan, chosen, predicted, path):
    """Figure-style plot data: test samples in the training PCA plane,
    tagged with the selected classifier and whether it was right."""
    if ds.n_features < 2:
        raise DataError("need at least 2 features for a 2-D projection")
    coords = pca_projection(ds.features[plan.train_indices],
                            ds.features[plan.test_indices])
    correct = predicted == ds.labels[plan.test_indices]
    write_csv(path, ["sample_index", "pc1", "pc2", "chosen_classifier",
                     "correct"], zip(
        plan.test_indices.tolist(), _column(coords[:, 0], "%.6f"),
        _column(coords[:, 1], "%.6f"), chosen.tolist(),
        correct.astype(int).tolist()))


def append_run_record(result, path):
    """Append-only plain-text run ledger: config hash, seed, metrics."""
    record = {
        "config_hash": result.config.content_hash(),
        "seed": result.config.seed,
        "protocol": result.config.protocol,
        "datasets": result.dataset_names,
        "oracle": {d: round(v, 4) for d, v in result.oracle.items()},
        "accuracy": {"%s/%s" % k: round(v.accuracy, 4)
                     for k, v in sorted(result.cells.items())},
        "errors": {"/".join(k) if isinstance(k, tuple) else k: error_text(v)
                   for k, v in result.errors.items()},
    }
    with open_output(path, mode="a") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")


def select_rows(models, forest, X, method, gamma, rho, seed):
    """Selection over feature rows using a deserialized bundle. Under
    cshc each model scores only the rows that pick it, the only labels
    the pick reads; every other method reads every model's label."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    rows = np.arange(X.shape[0])
    query = query_batch(forest, X)
    if method != "cshc":
        labels = clf.pool_proba(models, X, rows).argmax(axis=2)
    else:
        chosen = sel.cshc_choice(query[1], forest.cm.classifier_accuracies())
        labels = np.zeros((rows.size, len(models)), dtype=np.int64)
        for a in np.unique(chosen).tolist():
            mine = rows[chosen == a]
            labels[mine, a] = clf.predict_proba_batch(
                models[a], X[mine], mine).argmax(axis=1)
    return sel.select_batch(method, forest, *query, labels, rows, gamma, rho,
                            seed, {})
