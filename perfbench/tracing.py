"""Opt-in span tracing around the program's public functions.

Each target is wrapped at the module attribute its caller looks up, so a
function imported by name (`harness.query_batch`) is wrapped in the
importing module. Wrappers exist only between `install()` and `restore()`.
A target that no longer exists is reported as unmeasured instead of
failing the run.

A span is (name, start, end, parent). The layer of a span is the part of
its name before the first dot; a layer's self time is the duration of its
spans minus the time covered by their child spans.
"""

import functools
import importlib
import os
import time

import numpy as np

LAYERS = ("cli", "harness", "data", "classifiers", "kernels", "forest", "lp",
          "selection", "baselines")

# (module, attribute, span name); modules are resolved inside cshc
TARGETS = (
    ("cli", "main", "cli.main"),
    ("cli", "load_csv", "data.load_csv"),
    ("cli", "export_assignments_csv", "data.export_assignments"),
    ("harness", "run_experiment", "harness.run_experiment"),
    ("harness", "prepare_dataset", "harness.prepare_dataset"),
    ("harness", "evaluate_method", "harness.evaluate_method"),
    ("harness", "load_csv", "data.load_csv"),
    ("harness", "make_split", "data.split"),
    ("harness", "build_correctness_holdout", "data.correctness"),
    ("harness", "build_correctness_cv3", "data.correctness"),
    ("harness", "build_forest", "forest.build"),
    ("harness", "query_batch", "forest.query"),
    ("harness", "write_results_csv", "harness.reports"),
    ("harness", "write_trace_csv", "harness.reports"),
    ("harness", "append_run_record", "harness.reports"),
    ("harness", "save_bundle", "harness.bundle_save"),
    ("harness", "load_bundle", "harness.bundle_load"),
    ("harness", "select_rows", "harness.select_rows"),
    ("classifiers", "train", "classifiers.train"),
    ("classifiers", "predict_proba_batch", "classifiers.predict"),
    ("classifiers", "load_external_predictions", "classifiers.load_external"),
    ("kernels", "best_split", "kernels.best_split"),
    ("kernels", "gini_split", "kernels.gini_split"),
    ("kernels", "route", "kernels.route"),
    ("forest", "leaf_ranks", "forest.leaf_ranks"),
    ("forest", "save_forest", "forest.save"),
    ("forest", "load_forest", "forest.load"),
    ("lp", "solve", "lp.solve"),
    ("lp", "build_instance", "lp.build_instance"),
    ("selection", "select_cshc", "selection.cshc"),
    ("selection", "select_rr", "selection.rr"),
    ("selection", "select_lp", "selection.lp"),
    ("selection", "select_lpr", "selection.lpr"),
    ("baselines", "region_of", "baselines.regions"),
    ("baselines", "ola", "baselines.ola"),
    ("baselines", "lca", "baselines.lca"),
    ("baselines", "apriori", "baselines.apr"),
    ("baselines", "mcb", "baselines.mcb"),
    ("baselines", "knora_u", "baselines.knora_u"),
    ("baselines", "majority_vote", "baselines.mv"),
)

# spans whose arguments and results the summary reads
KEEP = ("forest.build", "forest.query", "forest.save", "lp.solve",
        "selection.lpr")


class Tracer:
    """Records spans in memory; `calls[name]` keeps what observers need."""

    def __init__(self):
        self.spans = []   # [name, start, end, parent]
        self.stack = []
        self.calls = {}   # span name -> list of (args, result), for KEEP
        self.unmeasured = set()
        self._patched = []

    def install(self):
        """Wrap every target."""
        for mod_name, attr, span in TARGETS:
            mod = importlib.import_module("cshc." + mod_name)
            orig = getattr(mod, attr, None)
            if not callable(orig):
                self.unmeasured.add(span)
                continue
            self._patched.append((mod, attr, orig))
            setattr(mod, attr, self._wrap(orig, span))

    def restore(self):
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched = []

    def _wrap(self, fn, name):
        spans, stack = self.spans, self.stack
        log = self.calls.setdefault(name, []) if name in KEEP else None
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = clock()
                stack.pop()
            if log is not None:
                log.append((args, result))
            return result

        return traced


def self_times(spans):
    """Per-span self time: duration minus the durations of direct children."""
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= s[2] - s[1]
    return out


def layer_of(name):
    return name.split(".", 1)[0]


def ancestor_names(spans, idx):
    names = []
    p = spans[idx][3]
    while p >= 0:
        names.append(spans[p][0])
        p = spans[p][3]
    return names


SELECT_METHODS = ("cshc", "rr", "lp", "lpr")
LPR_EXITS = ("rr", "lp", "lpr-agree", "lpr-cshc-match", "lpr-dominant",
             "lpr-fallback")
BASELINES = ("ola", "lca", "apr", "mcb", "knora_u", "mv")


def _pct(values, q):
    return float(np.percentile(values, q)) if values else 0.0


def _mean(values):
    return sum(values) / len(values) if values else 0.0


def _tree_depth(left, right):
    depth, frontier = 0, [0]
    while True:
        nxt = [c for i in frontier for c in (left[i], right[i]) if c >= 0]
        if not nxt:
            return depth
        depth, frontier = depth + 1, nxt


def _forest_stats(forest):
    trees = forest.trees
    leaves = [int((t.leaf_id >= 0).sum()) for t in trees]
    return {"forest.trees": len(trees),
            "forest.leaves_per_tree_mean": _mean(leaves),
            "forest.depth_max": max(_tree_depth(t.left, t.right) for t in trees)}


def summarize(tracer, phases):
    """Per-layer metrics over all traced phases, plus each phase's self-time
    breakdown by layer. `phases` maps a phase name to its (start, end).

    A metric is None when a span it needs could not be installed, or when
    the program's objects no longer have the attributes it reads.
    """
    spans = tracer.spans
    dur = [s[2] - s[1] for s in spans]
    selfs = self_times(spans)
    by_name = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[0], []).append(i)
    out = {}

    def put(metric, needs, value):
        missing = tracer.unmeasured.intersection(needs)
        out[metric] = None if missing else value

    def total(name):
        return sum(dur[i] for i in by_name.get(name, ()))

    def count(name):
        return len(by_name.get(name, ()))

    timed = ("data.load_csv", "data.split", "data.correctness",
             "classifiers.train", "classifiers.predict", "forest.build",
             "forest.query", "forest.save", "forest.load",
             "harness.bundle_save", "harness.bundle_load", "harness.reports",
             "lp.solve", "baselines.regions")
    for span in timed + tuple("baselines." + b for b in BASELINES):
        put(span + "_s", [span], total(span))
    put("selection.leaf_ranks_s", ["forest.leaf_ranks"],
        total("forest.leaf_ranks"))
    put("classifiers.train_calls", ["classifiers.train"],
        count("classifiers.train"))
    for k in ("best_split", "gini_split"):
        put("kernels.%s_calls" % k, ["kernels." + k], count("kernels." + k))
        put("kernels.%s_s" % k, ["kernels." + k], total("kernels." + k))

    # routing, split by the caller: forest query or Gini-tree predict
    route = {"query": [], "gini": []}
    for i in by_name.get("kernels.route", ()):
        parent = spans[i][3]
        pname = spans[parent][0] if parent >= 0 else ""
        if pname == "forest.query":
            route["query"].append(dur[i])
        elif pname.startswith("classifiers."):
            route["gini"].append(dur[i])
    for part, ds in route.items():
        needs = ["kernels.route", "forest.query" if part == "query"
                 else "classifiers.predict"]
        put("kernels.route_%s_calls" % part, needs, len(ds))
        put("kernels.route_%s_s" % part, needs, sum(ds))
    put("forest.aggregate_s", ["forest.query", "kernels.route"],
        sum(selfs[i] for i in by_name.get("forest.query", ())))

    calls = tracer.calls
    try:
        stats = _forest_stats(calls["forest.build"][0][1])
    except (AttributeError, IndexError, KeyError, TypeError, ValueError):
        stats = dict.fromkeys(("forest.trees", "forest.leaves_per_tree_mean",
                               "forest.depth_max"))
    out.update(stats)
    try:
        rows = [b.rows.size for _, res in calls.get("forest.query", ())
                for b in res]
        put("forest.bundle_rows_mean", ["forest.query"], _mean(rows))
    except (AttributeError, TypeError):
        out["forest.bundle_rows_mean"] = None
    saved = [args[1] for args, _ in calls.get("forest.save", ())
             if len(args) > 1 and os.path.isfile(args[1])]
    put("forest.file_bytes", ["forest.save"],
        os.path.getsize(saved[-1]) if saved else 0)

    # LP: lookups are select_lp calls (standalone and inside lpr)
    lookups, solves = count("selection.lp"), count("lp.solve")
    put("lp.lookups", ["selection.lp"], lookups)
    put("lp.solves", ["lp.solve"], solves)
    put("lp.cache_hit_ratio", ["selection.lp", "lp.solve"],
        1.0 - solves / lookups if lookups else 0.0)
    ms = [dur[i] * 1e3 for i in by_name.get("lp.solve", ())]
    put("lp.solve_ms_p50", ["lp.solve"], _pct(ms, 50))
    put("lp.solve_ms_max", ["lp.solve"], max(ms) if ms else 0.0)
    insts = [args[0] for args, _ in calls.get("lp.solve", ())]
    try:
        put("lp.k_raw_mean", ["lp.solve"], _mean([int(i.k) for i in insts]))
        put("lp.k_merged_mean", ["lp.solve"], _mean(
            [len(np.unique(np.column_stack([i.y, i.L]), axis=0))
             for i in insts]))
    except AttributeError:
        out["lp.k_raw_mean"] = out["lp.k_merged_mean"] = None

    # selection: per-method time of top-level calls (lpr includes the rr,
    # lp and cshc stages it runs), and per-query latency
    top = {m: [] for m in SELECT_METHODS}
    for m in SELECT_METHODS:
        for i in by_name.get("selection." + m, ()):
            if not any(n.startswith("selection.")
                       for n in ancestor_names(spans, i)):
                top[m].append(dur[i])
    for m, ds in top.items():
        needs = ["selection." + m]
        ms = [d * 1e3 for d in ds]
        put("selection.%s_s" % m, needs, sum(ds))
        put("selection.%s.queries" % m, needs, len(ds))
        put("selection.%s.query_ms_p50" % m, needs, _pct(ms, 50))
        put("selection.%s.query_ms_p99" % m, needs, _pct(ms, 99))
    try:
        outcomes = [res for _, res in calls.get("selection.lpr", ())]
        for e in LPR_EXITS:
            out["selection.lpr.exit." + e] = sum(o.method_used == e
                                                 for o in outcomes)
        out["selection.lpr.recourse_ratio"] = _mean(
            [float(o.recourse_invoked) for o in outcomes])
    except AttributeError:
        for e in LPR_EXITS:
            out["selection.lpr.exit." + e] = None
        out["selection.lpr.recourse_ratio"] = None

    # self time per layer and phase; the remainder is time between commands
    for phase, (t0, t1) in phases.items():
        layer_self = dict.fromkeys(LAYERS, 0.0)
        roots = 0.0
        for i, s in enumerate(spans):
            if t0 <= s[1] < t1:
                layer_self[layer_of(s[0])] += selfs[i]
                if s[3] < 0:
                    roots += dur[i]
        for layer, v in layer_self.items():
            out["%s.self.%s_s" % (phase, layer)] = v
        out["%s.self.unattributed_s" % phase] = (t1 - t0) - roots
    out["trace.spans"] = len(spans)
    return out
