"""Command-line front end: train, select, evaluate, compare, export-viz."""

import argparse
import os
import sys

from . import harness
from .config import load_config, split_list
from .data import (DataError, export_assignments_csv, load_csv,
                   load_feature_rows, require_finite, require_gamma,
                   write_csv)


def _apply_overrides(cfg, args):
    for attr in ("protocol", "test_fraction", "seed", "gamma", "rho", "outdir"):
        value = getattr(args, attr, None)
        if value is not None:
            setattr(cfg, attr, value)
    if getattr(args, "methods", None):
        cfg.methods = split_list(args.methods)
    if getattr(args, "reference", None):
        cfg.reference = args.reference
    return cfg


def _single_dataset_config(args):
    cfg = load_config(args.config)
    _apply_overrides(cfg, args)
    if args.data:
        name = args.name or os.path.splitext(os.path.basename(args.data))[0]
        cfg.datasets = [(name, args.data, args.label or cfg.label_column)]
    if not cfg.datasets:
        raise DataError("no dataset given (use --data or a config [data] section)")
    return cfg.validate()


def _add_common(p, with_data=True):
    p.add_argument("--config", help="INI experiment file")
    p.add_argument("--seed", type=int)
    p.add_argument("--protocol", choices=["split50", "cv3"])
    p.add_argument("--test-fraction", dest="test_fraction", type=float)
    p.add_argument("--gamma", type=float)
    p.add_argument("--rho", type=float)
    p.add_argument("--out", dest="outdir")
    if with_data:
        p.add_argument("--data", help="dataset CSV path")
        p.add_argument("--name", help="dataset name in reports")
        p.add_argument("--label", help="label column name")


def cmd_train(args):
    cfg = _single_dataset_config(args)
    name, path, label = cfg.datasets[0]
    ds = load_csv(path, label)
    prep = harness.prepare_dataset(name, ds, cfg)
    harness.save_bundle(prep, cfg, cfg.outdir)
    export_assignments_csv(os.path.join(cfg.outdir, "assignments.csv"),
                           prep.plan, prep.fold)
    print("bundle written to %s (%d trees, %d classifiers, oracle %.2f%%)"
          % (cfg.outdir, prep.forest.n_trees, len(prep.models),
             harness.oracle_accuracy(prep.test_cm)))
    return 0


def cmd_select(args):
    if args.gamma is not None:
        require_gamma(args.gamma, "--gamma")
    if args.rho is not None:
        require_finite(args.rho, "--rho")
    meta, models, forest = harness.load_bundle(args.model)
    X = load_feature_rows(args.input, meta["dataset"]["feature_names"])
    mcfg = meta["config"]
    out = harness.select_rows(
        models, forest, X, args.method,
        gamma=args.gamma if args.gamma is not None else mcfg["gamma"],
        rho=args.rho if args.rho is not None else mcfg["rho"],
        seed=args.seed if args.seed is not None else mcfg["seed"])
    class_names = meta["dataset"]["class_names"]
    predicted = out.predicted.tolist()
    write_csv(args.output, ["row", "chosen_classifier", "predicted_class",
                            "predicted_class_name", "method_used"],
              zip(range(len(predicted)), out.chosen.tolist(), predicted,
                  [class_names[c] for c in predicted], out.exit.tolist()))
    return 0


def _run_and_report(cfg):
    result = harness.run_experiment(cfg)
    harness.write_results_csv(result, os.path.join(cfg.outdir, "results.csv"))
    for name in result.dataset_names:
        prep = result.preps.get(name)
        if prep is None:
            continue
        for method in cfg.methods:
            cell = result.cells.get((name, method))
            if cell and method in harness.SELECTION_METHODS:
                harness.write_trace_csv(
                    prep, cell,
                    os.path.join(cfg.outdir, "trace_%s_%s.csv" % (name, method)))
    harness.append_run_record(result, os.path.join(cfg.outdir, "runs.jsonl"))
    return result


def _warn(errors):
    """One stderr line per failed dataset or (dataset, method) cell, in
    the order the sweep met them."""
    for key, exc in errors.items():
        print("warning: %s failed: %s" % (key, harness.error_text(exc)),
              file=sys.stderr)


def _failed(what, exc):
    """Re-raise a DataError for main to exit 2; print anything else, exit 1."""
    if isinstance(exc, DataError):
        raise exc
    print("%s: %s" % (what, harness.error_text(exc)), file=sys.stderr)
    return 1


def cmd_evaluate(args):
    cfg = _single_dataset_config(args)
    result = _run_and_report(cfg)
    name = result.dataset_names[0]
    if name in result.errors:
        return _failed("dataset failed", result.errors[name])
    _warn(result.errors)
    print("dataset %s (oracle %.2f%%)" % (name, result.oracle[name]))
    for method in cfg.methods:
        cell = result.cells.get((name, method))
        if cell:
            extra = ("  recourse=%.4f" % cell.recourse_rate
                     if cell.recourse_rate is not None else "")
            print("  %-8s %7.3f%%%s" % (method, cell.accuracy, extra))
    return 0


def cmd_compare(args):
    cfg = load_config(args.config)
    _apply_overrides(cfg, args)
    if not cfg.datasets:
        raise DataError("compare needs a config file with a [data] section")
    result = _run_and_report(cfg)
    _warn(result.errors)
    rows, kept = harness.comparison_rows(result)
    print("compared %d methods on %d dataset(s); reference=%s"
          % (len(cfg.methods), len(kept), cfg.reference))
    print("%-10s %5s %7s %5s %9s %9s %9s"
          % ("method", "wins", "losses", "ties", "MGI%", "rank", "p"))
    for row in rows:
        if len(row) == 2:  # a note instead of statistics
            print("%s: %s" % tuple(row))
        else:
            print("%-10s %5s %7s %5s %9s %9s %9s" % tuple(row))
    return 0 if kept else 1


def cmd_export_viz(args):
    cfg = _single_dataset_config(args)
    cfg.methods = [args.method]
    cfg.reference = args.method
    result = harness.run_experiment(cfg)
    name = result.dataset_names[0]
    exc = result.errors.get(name) or result.errors.get((name, args.method))
    if exc is not None:
        return _failed("failed", exc)
    prep = result.preps[name]
    out = args.output or os.path.join(cfg.outdir, "viz_%s_%s.csv"
                                      % (name, args.method))
    cell = result.cells[(name, args.method)]
    harness.export_viz(prep.ds, prep.plan, cell.chosen, cell.predicted, out)
    print("projection written to %s" % out)
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(
        prog="cshc",
        description="Cost-sensitive hierarchical clustering for dynamic "
                    "classifier selection")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="build and serialize forest + classifiers")
    _add_common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("select", help="classify a feature-vector CSV")
    p.add_argument("--model", required=True, help="bundle directory from train")
    p.add_argument("--input", required=True, help="CSV of feature rows")
    p.add_argument("--output", help="output CSV (default: stdout)")
    p.add_argument("--method", default="lpr",
                   choices=list(harness.SELECTION_METHODS))
    p.add_argument("--gamma", type=float)
    p.add_argument("--rho", type=float)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("evaluate", help="one dataset, all methods")
    _add_common(p)
    p.add_argument("--methods", help="comma- or space-separated methods")
    p.add_argument("--reference")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("compare", help="dataset sweep with comparison stats")
    _add_common(p, with_data=False)
    p.add_argument("--methods", help="comma- or space-separated methods")
    p.add_argument("--reference")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("export-viz", help="PCA plot data for one method")
    _add_common(p)
    p.add_argument("--method", default="lpr")
    p.add_argument("--output")
    p.set_defaults(func=cmd_export_viz)

    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except DataError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
