"""End-to-end experiments: shared artifacts, method evaluation, metrics.

Per dataset: split off a test partition, build the correctness matrix
on the protocol's validation data, grow the forest, run every method
against identical test-time base-classifier predictions, then fold the
per-dataset accuracies into the cross-benchmark comparison statistics.
"""

import csv
import json
import os
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy import stats as sstats

from . import baselines as bl
from . import classifiers as clf
from . import forest as forest_mod
from . import selection as sel
from .config import ExperimentConfig
from .data import (CorrectnessMatrix, DataError, build_correctness_cv3,
                   build_correctness_holdout, load_csv, make_split,
                   open_input)
from .forest import CshcConfig, build_forest, query_batch
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
    ranks = sstats.rankdata(arr, method="average", axis=0)
    return ranks.mean(axis=1)


def paired_sign_ttest(outcomes):
    """Two-sided one-sample t-test of +1/-1/0 indicators against 0.

    Uses the sample standard deviation with N-1 degrees of freedom.
    Zero variance around a zero mean degenerates to p=1 with a warning;
    a one-sided sweep (all wins) collapses to p=0.
    """
    x = np.asarray(outcomes, dtype=np.float64)
    n = x.size
    if np.count_nonzero(x) < 2:
        warnings.warn("fewer than 2 decisive outcomes; p-value degenerate")
        return 1.0
    sd = x.std(ddof=1)
    if sd == 0.0:
        if x.mean() == 0.0:
            warnings.warn("degenerate variance in t-test; returning p=1")
            return 1.0
        return 0.0
    t = x.mean() / (sd / np.sqrt(n))
    return float(2.0 * sstats.t.sf(abs(t), n - 1))


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
    name: str
    ds: object
    plan: object
    specs: list
    models: list
    cm: CorrectnessMatrix
    dsel_ds: object
    forest: object
    test_ds: object
    test_labels: np.ndarray       # (Q, n)
    test_proba: np.ndarray        # (Q, n, C)
    test_cm: CorrectnessMatrix
    val_acc: np.ndarray
    dsel_std: np.ndarray
    test_std: np.ndarray
    seed: int
    fold: np.ndarray = None
    bundles: list = None
    regions: list = None
    lp_cache: dict = field(default_factory=dict)

    def get_bundles(self):
        if self.bundles is None:
            self.bundles = query_batch(self.forest, self.test_ds.features)
        return self.bundles

    def get_regions(self, k):
        if self.regions is None:
            self.regions = [bl.region_of(x, k, self.dsel_std)
                            for x in self.test_std]
        return self.regions


def prepare_dataset(name, ds, cfg):
    """Build every artifact shared by the methods on one dataset."""
    plan = make_split(ds, cfg.test_fraction, cfg.seed, protocol=cfg.protocol)
    train_ds = ds.subset(plan.train_indices)
    test_ds = ds.subset(plan.test_indices)
    specs = []
    for spec in cfg.classifier_specs():
        if spec.kind == "external" and "predictions" not in spec.hyperparams:
            table = clf.load_external_predictions(
                spec.hyperparams["path"], split=plan, n_classes=ds.n_classes)
            spec.hyperparams["predictions"] = table
        specs.append(spec)
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
    fcfg = CshcConfig(n_trees=cfg.n_trees,
                      bootstrap_fraction=cfg.bootstrap_fraction,
                      min_cluster_size=cfg.min_cluster_size,
                      max_depth=cfg.max_depth,
                      min_improvement=cfg.min_improvement,
                      seed=cfg.seed)
    forest = build_forest(cm, dsel_ds, fcfg)
    Q, n, C = test_ds.n_samples, len(specs), ds.n_classes
    test_proba = np.empty((Q, n, C))
    for a, model in enumerate(models):
        test_proba[:, a] = clf.predict_proba_batch(model, test_ds)
    test_labels = test_proba.argmax(axis=2)
    test_cm = CorrectnessMatrix(test_labels, test_ds.labels.copy(),
                                test_ds.row_ids.copy(), n_classes=C)
    mean = dsel_ds.features.mean(axis=0)
    std = dsel_ds.features.std(axis=0)
    std = np.where(std > 0, std, 1.0)
    return PreparedDataset(
        name=name, ds=ds, plan=plan, specs=specs, models=models, cm=cm,
        dsel_ds=dsel_ds, forest=forest, test_ds=test_ds,
        test_labels=test_labels, test_proba=test_proba, test_cm=test_cm,
        val_acc=cm.classifier_accuracies(),
        dsel_std=(dsel_ds.features - mean) / std,
        test_std=(test_ds.features - mean) / std,
        seed=cfg.seed, fold=fold,
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
    outcomes: list = None
    recourse_rate: float = None


def _competence_outcome(method, scores, labels_row):
    chosen = int(np.argmax(scores))
    return sel.SelectionOutcome(chosen, int(labels_row[chosen]), method, 0.0, False)


def evaluate_method(prep, method, cfg):
    """Run one method over the whole test partition."""
    Q = prep.test_ds.n_samples
    C = prep.ds.n_classes
    if method in SELECTION_METHODS:
        outcomes = sel.select_batch(
            method, prep.get_bundles(), prep.test_labels, prep.test_ds.row_ids,
            prep.cm, prep.val_acc, C, cfg.gamma, cfg.rho, prep.seed,
            prep.lp_cache)
    else:
        regions = prep.get_regions(cfg.knn_k)
        outcomes = []
        for q in range(Q):
            labels_row = prep.test_labels[q]
            region = regions[q]
            if method == "ola":
                out = _competence_outcome(method, bl.ola(region, prep.cm), labels_row)
            elif method == "lca":
                out = _competence_outcome(method, bl.lca(region, prep.cm, labels_row),
                                          labels_row)
            elif method == "apr":
                out = _competence_outcome(
                    method, bl.apriori(region, prep.cm, cfg.apr_distance_weighting),
                    labels_row)
            elif method == "apo":
                out = _competence_outcome(
                    method,
                    bl.aposteriori(region, prep.cm, labels_row,
                                   cfg.apr_distance_weighting),
                    labels_row)
            elif method == "mcb":
                out = _competence_outcome(
                    method, bl.mcb(region, prep.cm, labels_row, cfg.mcb_similarity),
                    labels_row)
            elif method == "knora_e":
                _, winner, rep = bl.knora_e(region, prep.cm, labels_row, C)
                out = sel.SelectionOutcome(rep, winner, method, 0.0, False)
            elif method == "knora_u":
                _, winner, rep = bl.knora_u(region, prep.cm, labels_row, C)
                out = sel.SelectionOutcome(rep, winner, method, 0.0, False)
            elif method == "mv":
                winner, rep = bl.majority_vote(labels_row, C)
                out = sel.SelectionOutcome(rep, winner, method, 0.0, False)
            else:
                raise DataError("unknown method %r" % method)
            outcomes.append(out)
    predicted = np.array([o.predicted_class for o in outcomes])
    chosen = np.array([o.chosen_classifier for o in outcomes])
    accuracy = float((predicted == prep.test_ds.labels).mean() * 100.0)
    recourse = None
    if method == "lpr":
        recourse = float(np.mean([o.recourse_invoked for o in outcomes]))
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
    errors: dict       # (dataset, method) or dataset -> message
    static: dict       # (dataset, classifier name) -> accuracy
    preps: dict = None

    def accuracy_matrix(self, methods=None, datasets=None):
        """(methods x datasets) array over cells that all succeeded."""
        methods = methods or self.config.methods
        datasets = datasets or self.dataset_names
        keep = [d for d in datasets
                if all((d, m) in self.cells for m in methods)]
        arr = np.array([[self.cells[(d, m)].accuracy for d in keep]
                        for m in methods])
        return arr, keep


def run_experiment(cfg, keep_preps=False):
    """Evaluate every configured method on every configured dataset.

    A failing (dataset, method) cell is recorded as a diagnostic and
    does not abort the sweep.
    """
    cfg.validate()
    result = ExperimentResult(cfg, [], {}, {}, {}, {},
                              preps={} if keep_preps else None)
    for name, path, label_column in cfg.datasets:
        result.dataset_names.append(name)
        try:
            ds = path if not isinstance(path, str) else load_csv(path, label_column)
            prep = prepare_dataset(name, ds, cfg)
        except Exception as exc:
            result.errors[name] = "%s: %s" % (type(exc).__name__, exc)
            continue
        if keep_preps:
            result.preps[name] = prep
        result.oracle[name] = oracle_accuracy(prep.test_cm)
        for a, spec in enumerate(prep.specs):
            acc = float(prep.test_cm.correct[:, a].mean() * 100.0)
            result.static[(name, spec.name)] = acc
        for method in cfg.methods:
            try:
                result.cells[(name, method)] = evaluate_method(prep, method, cfg)
            except Exception as exc:
                result.errors[(name, method)] = "%s: %s" % (type(exc).__name__, exc)
    return result


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def _fmt(x):
    return "%.4f" % x


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
    for i, m in enumerate(cfg.methods):
        w, l, t = wins_losses(arr[ref_idx], arr[i])
        ind = np.sign(arr[i] - arr[ref_idx])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            p = paired_sign_ttest(ind) if m != ref else 1.0
        rows.append([m, str(w), str(l), str(t), _fmt(mgi(arr[ref_idx], arr[i])),
                     _fmt(ranks[i]), _fmt(p)])
    oracle_vec = np.array([result.oracle[d] for d in kept])
    w, l, t = wins_losses(arr[ref_idx], oracle_vec)
    rows.append(["oracle", str(w), str(l), str(t),
                 _fmt(mgi(arr[ref_idx], oracle_vec)), "", ""])
    return rows, kept


def write_results_csv(result, path):
    cfg = result.config
    static_names = sorted({k[1] for k in result.static})
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["dataset"] + ["static:" + s for s in static_names]
                   + list(cfg.methods) + ["oracle", "recourse_rate", "errors"])
        for d in result.dataset_names:
            if d in result.errors:
                w.writerow([d] + [""] * (len(static_names) + len(cfg.methods) + 2)
                           + [result.errors[d]])
                continue
            row = [d]
            row += [_fmt(result.static[(d, s)]) if (d, s) in result.static else ""
                    for s in static_names]
            errs = []
            for m in cfg.methods:
                cell = result.cells.get((d, m))
                row.append(_fmt(cell.accuracy) if cell else "")
                if (d, m) in result.errors:
                    errs.append("%s: %s" % (m, result.errors[(d, m)]))
            row.append(_fmt(result.oracle[d]))
            lpr_cell = result.cells.get((d, "lpr"))
            row.append(_fmt(lpr_cell.recourse_rate)
                       if lpr_cell and lpr_cell.recourse_rate is not None else "")
            row.append("; ".join(errs))
            w.writerow(row)
        stat_rows, kept = comparison_rows(result)
        w.writerow([])
        w.writerow(["# stats vs reference=%s over %d dataset(s): %s"
                    % (cfg.reference, len(kept), ",".join(kept))])
        w.writerow(["method", "wins", "losses", "ties", "mgi_pct",
                    "avg_rank", "p_value"])
        for row in stat_rows:
            w.writerow(row)


def write_trace_csv(prep, method_result, path):
    """Per-sample selection trace with every stage's confidence ratio."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["sample_index", "method_used", "chosen_classifier",
                    "predicted_class", "confidence_ratio", "rr_ratio",
                    "lp_ratio", "recourse_invoked"])
        for q, out in enumerate(method_result.outcomes):
            w.writerow([
                int(prep.test_ds.row_ids[q]), out.method_used,
                out.chosen_classifier, out.predicted_class,
                _fmt(out.confidence_ratio),
                _fmt(out.rr_ratio) if out.rr_ratio is not None else "",
                _fmt(out.lp_ratio) if out.lp_ratio is not None else "",
                int(out.recourse_invoked),
            ])


def export_viz(ds, plan, outcomes, path):
    """Figure-style plot data: test samples in the training PCA plane,
    tagged with the selected classifier and whether it was right."""
    if ds.n_features < 2:
        raise DataError("need at least 2 features for a 2-D projection")
    train = ds.features[plan.train_indices]
    test = ds.features[plan.test_indices]
    truth = ds.labels[plan.test_indices]
    coords = pca_projection(train, test)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["sample_index", "pc1", "pc2", "chosen_classifier", "correct"])
        for q, out in enumerate(outcomes):
            w.writerow([int(plan.test_indices[q]),
                        "%.6f" % coords[q, 0], "%.6f" % coords[q, 1],
                        out.chosen_classifier,
                        int(out.predicted_class == truth[q])])


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
        "errors": {"/".join(k) if isinstance(k, tuple) else k: v
                   for k, v in result.errors.items()},
    }
    with open(path, "a") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# model bundle persistence (used by the train/select commands)
# ---------------------------------------------------------------------------

BUNDLE_FORMAT = "cshc-bundle/1"


def save_bundle(prep, cfg, outdir):
    """Write forest.json, models.json and meta.json; a model that cannot
    be serialized fails the call before any file is written."""
    models = [clf.model_state(model) for model in prep.models]
    meta = {
        "format": BUNDLE_FORMAT,
        "dataset": {"name": prep.name,
                    "feature_names": prep.ds.feature_names,
                    "class_names": prep.ds.class_names},
        "config": cfg.asdict(),
        "validation_accuracy": prep.val_acc.tolist(),
        "validation": {"predicted": prep.cm.predicted.tolist(),
                       "truth": prep.cm.truth.tolist(),
                       "sample_indices": prep.cm.sample_indices.tolist(),
                       "n_classes": prep.ds.n_classes},
        "seed": prep.seed,
    }
    os.makedirs(outdir, exist_ok=True)
    forest_mod.save_forest(prep.forest, os.path.join(outdir, "forest.json"))
    with open(os.path.join(outdir, "models.json"), "w") as fh:
        json.dump(models, fh)
    with open(os.path.join(outdir, "meta.json"), "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)


def load_bundle(outdir):
    with open_input(os.path.join(outdir, "meta.json")) as fh:
        meta = json.load(fh)
    if meta.get("format") != BUNDLE_FORMAT:
        raise DataError("unsupported bundle format %r" % meta.get("format"))
    with open_input(os.path.join(outdir, "models.json")) as fh:
        models = [clf.model_from_state(s) for s in json.load(fh)]
    forest = forest_mod.load_forest(os.path.join(outdir, "forest.json"))
    val = meta["validation"]
    cm = CorrectnessMatrix(np.asarray(val["predicted"], dtype=np.int64),
                           np.asarray(val["truth"], dtype=np.int64),
                           np.asarray(val["sample_indices"], dtype=np.int64),
                           n_classes=int(val["n_classes"]))
    return meta, models, forest, cm


def select_rows(meta, models, forest, cm, X, method, gamma, rho, seed):
    """Classify feature rows using a deserialized bundle."""
    C = len(meta["dataset"]["class_names"])
    val_acc = np.asarray(meta["validation_accuracy"])
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    bundles = query_batch(forest, X)
    label_matrix = np.column_stack(
        [clf.predict_proba_batch(m, _FeatureRows(X)).argmax(axis=1) for m in models])
    return sel.select_batch(method, bundles, label_matrix,
                            np.arange(X.shape[0]), cm, val_acc, C, gamma, rho,
                            seed, {})


class _FeatureRows:
    """Minimal Dataset stand-in for scoring raw feature rows."""

    def __init__(self, X):
        self.features = X
        self.row_ids = np.arange(X.shape[0], dtype=np.int64)
