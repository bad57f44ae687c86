"""Benchmark of the cshc CLI on seeded synthetic workloads.

    python3 perfbench/run.py --workload regions --seed 1 --seconds 40 --trace 0

Run from the root of a checkout. The benchmark generates its inputs from
--seed under .bench_work/, then drives the program in-process through
`cshc.cli.main`, as one client in a closed loop:

- set-up: the workload's build command; setup_s is the median wall time;
- run: the workload's user commands; run_s is the median wall time of one
  repetition of all of them.

Set-ups and runs alternate in cycles. After the first, another cycle starts
only if, at the mean cycle time so far, it would end within --seconds, so a
run measures for at most --seconds unless one cycle takes longer.

The inputs come from one of INPUT_SEEDS input seeds, --seed modulo
INPUT_SEEDS, and perfbench/reference/ holds the outputs recorded for each of
them at the seed commit. Every command's outputs are checked: each
repetition must reproduce the first byte for byte, the outputs must pass
the workload's own checks, and they must match the recorded outputs (see
check.py for what the LP may change).

With --trace 1 the benchmark instead runs set-up once and run twice
untraced, then both once with spans around the program's layers
(tracing.py), and reports the per-layer metrics. A per-layer metric whose
span is missing from the program is reported as 0 and named under
"unmeasured" in the result file and in the printed table. The last line of
standard output is one JSON object: {"correct", "attempted", "failed",
"metrics"}.
"""

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import check

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REFERENCE_DIR = os.path.join(ROOT, "perfbench", "reference")
# input seeds with recorded reference outputs; --seed picks one of them
INPUT_SEEDS = 100

# (set-ups, runs) per cycle of the measuring loop. The host's speed drifts
# by tens of percent over seconds, so set-ups and runs alternate to sample
# the same stretch of time, in proportions that give each enough samples.
CYCLE = {"regions": (1, 1), "noisy-lp": (3, 1), "train-select": (1, 2)}


def bootstrap():
    """Make the checkout's `src` importable, with one BLAS thread.

    Fails when the checkout holds no program, so that the benchmark never
    measures some other installed copy.
    """
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "cshc", "cli.py")):
        raise SystemExit("error: no program at %s/cshc" % src)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, src)
    import cshc

    if not os.path.abspath(cshc.__file__).startswith(src + os.sep):
        raise SystemExit("error: cshc imported from %s, not from %s"
                         % (cshc.__file__, src))


class Ops:
    """CLI calls, each tagged with the key of the outputs it writes, and the
    calls that failed: a non-zero exit, or outputs that fail a check."""

    def __init__(self):
        self.keys = []
        self.bad = set()
        self.problems = []

    @property
    def attempted(self):
        return len(self.keys)

    @property
    def failed(self):
        return len(self.bad)

    def call(self, argv, key):
        """Run one CLI command; returns (wall seconds, ok)."""
        from cshc import cli

        self.keys.append(key)
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            rc = exc.code
        except Exception:  # a crash is a failed operation, not a crashed run
            rc = "exception:\n" + traceback.format_exc()
        dt = time.perf_counter() - t0
        if rc != 0:
            self.bad.add(len(self.keys) - 1)
            self.problems.append("cshc %s exited with %s %s"
                                 % (argv[0], rc, err.getvalue()))
        return dt, rc == 0

    def fail(self, key, message, last_only=False):
        """Fail the calls that wrote `key` (only the latest, if last_only)."""
        calls = [i for i, k in enumerate(self.keys) if k == key]
        self.bad.update(calls[-1:] if last_only else calls)
        self.problems.append("%s: %s" % (key, message))


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)


def load_reference(name, seed):
    path = os.path.join(REFERENCE_DIR, name + ".json")
    if not os.path.isfile(path):
        return None
    with open(path) as fh:
        return json.load(fh)["seeds"].get(str(seed))


class Runner:
    """One workload at one seed: set-up and run repetitions with checks."""

    def __init__(self, workload):
        self.w = workload
        self.ops = Ops()
        self.first = {}       # phase/command -> digest of its first outputs
        self.digests = {}     # phase/command -> latest digest
        self.run_dirs = []

    def setup(self):
        w = self.w
        fresh_dir(w.bundle_dir())
        dt, ok = self.ops.call(w.setup_argv(), "setup")
        self._outputs("setup", w.bundle_dir(), ok, w.check_setup)
        return dt

    def run_once(self):
        w = self.w
        outdir = os.path.join(w.dir, "out")
        shutil.rmtree(outdir, ignore_errors=True)
        commands = w.run_commands(outdir)
        t0 = time.perf_counter()
        results = []
        for n, (argv, d) in enumerate(commands):
            os.makedirs(d, exist_ok=True)
            results.append(self.ops.call(argv, "run%d" % n)[1])
        dt = time.perf_counter() - t0
        for n, ((argv, d), ok) in enumerate(zip(commands, results)):
            self._outputs("run%d" % n, d, ok, lambda d, argv=argv: w.check_run(argv, d))
        self.run_dirs = [d for _, d in commands]
        return dt

    def _outputs(self, key, outdir, ok, check_fn):
        """Check a command's outputs; they must also equal its first outputs."""
        if not ok:
            return
        try:
            problems = check_fn(outdir)
            digest = check.digest_dir(outdir)
        except (OSError, KeyError, ValueError, IndexError) as exc:
            self.ops.fail(key, "outputs unreadable: %r" % exc, last_only=True)
            return
        first = self.first.setdefault(key, digest)
        if digest["files"] != first["files"]:
            problems.append("outputs differ between repetitions")
        self.digests[key] = digest
        if problems:
            self.ops.fail(key, "; ".join(problems), last_only=True)

    def compare_reference(self, ref):
        """Mismatches against the recorded outputs, and LP decision changes."""
        changed = {m: 0 for m in check.LP_METHODS}
        for key, digest in sorted(self.digests.items()):
            if key not in ref:
                self.ops.fail(key, "no reference outputs for input seed %d"
                              % self.w.seed)
                continue
            problems, ch = check.compare(digest, ref[key])
            for m, v in ch.items():
                changed[m] += v
            if problems:
                self.ops.fail(key, "; ".join(problems))
        return changed


def provenance(w, seed, input_hashes):
    import numpy
    import scipy

    from cshc import kernels

    src = os.path.join(ROOT, "src", "cshc")
    h = hashlib.sha256()
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return {
        "workload": w.name, "seed": seed, "input_seed": w.seed,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "kernel_backend": getattr(kernels, "BACKEND", None),
        "numba_installed": importlib.util.find_spec("numba") is not None,
        "git_commit": git_commit(),
        "src_sha256": h.hexdigest(),
        "inputs_sha256": input_hashes,
    }


def git_commit():
    """HEAD's commit, or None outside a git checkout."""
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
    except OSError:  # no git
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(runner, seconds):
    """Untraced metrics from cycles of set-ups and runs."""
    w = runner.w
    n_setup, n_run = CYCLE[w.name]
    setup, times = [], []
    t0 = time.perf_counter()
    cycles = 0
    while not cycles or ((time.perf_counter() - t0) * (cycles + 1) / cycles
                         <= seconds):
        setup += [runner.setup() for _ in range(n_setup)]
        times += [runner.run_once() for _ in range(n_run)]
        cycles += 1
    run_s = statistics.median(times)
    try:
        q = w.query_rows(runner.run_dirs)
        accuracy = w.accuracy(runner.run_dirs)
    except (OSError, KeyError, ValueError, IndexError):  # failed already
        q = accuracy = None
    metrics = {
        "setup_s": statistics.median(setup),
        "run_s": run_s,
        "decisions_per_s": q * len(w.methods) / run_s if q else None,
        "peak_rss_mb": peak_rss_mb(),
        "accuracy_pct": accuracy,
    }
    detail = {"setup_s": setup, "run_s": times, "query_rows": q}
    return metrics, detail


def measure_traced(runner):
    """Per-layer metrics: set-up once and run twice untraced (the first run
    warms the process up), then set-up and run once traced."""
    import lp_oracle
    import tracing

    untraced_setup = runner.setup()
    runner.run_once()
    untraced_run = runner.run_once()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        t0 = time.perf_counter()
        runner.setup()
        t1 = time.perf_counter()
        runner.run_once()
        t2 = time.perf_counter()
    finally:
        tracer.restore()
    metrics = tracing.summarize(tracer, {"setup": (t0, t1), "run": (t1, t2)})
    metrics["trace.setup_s"] = t1 - t0
    metrics["trace.run_s"] = t2 - t1
    metrics["trace.overhead_s"] = (t2 - t1) - untraced_run
    solves = [(args[0], sol) for args, sol in tracer.calls.get("lp.solve", ())]
    if "lp.solve" in tracer.unmeasured:
        metrics["lp.objective_mismatches"] = None
        metrics["lp.objective_max_rel_gap"] = None
    else:
        bad, gap = lp_oracle.check(solves)
        metrics["lp.objective_mismatches"] = bad
        metrics["lp.objective_max_rel_gap"] = gap
        if bad:  # the LP runs in the traced run commands
            for key in runner.digests:
                if key.startswith("run"):
                    runner.ops.fail(key, "%d of %d LP objectives differ from "
                                    "HiGHS" % (bad, len(solves)), last_only=True)
    detail = {"untraced_setup_s": untraced_setup, "untraced_run_s": untraced_run,
              "unmeasured": sorted(tracer.unmeasured)}
    spans = [[s[0], s[1] - t0, s[2] - t0, s[3]] for s in tracer.spans]
    return metrics, detail, spans


def declared_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    os.chdir(ROOT)
    bootstrap()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error("unknown workload %r (known: %s)"
                 % (args.workload, ", ".join(WORKLOADS)))
    e2e_units, layer_units = declared_metrics()
    w = WORKLOADS[args.workload](args.seed % INPUT_SEEDS)
    fresh_dir(w.indir)
    w.generate()
    input_hashes = {os.path.relpath(p, w.dir): check.file_sha(p)
                    for p in w.inp["inputs"]}
    runner = Runner(w)
    if args.trace:
        values, detail, spans = measure_traced(runner)
        units = layer_units
    else:
        values, detail = measure(runner, args.seconds)
        spans = None
        units = e2e_units

    ref = load_reference(w.name, w.seed) or {}
    for m, v in runner.compare_reference(ref).items():
        values["selection.%s.decisions_changed" % m] = v

    ops = runner.ops
    unmeasured = sorted(n for n in units if values.get(n) is None)
    metrics = {name: {"value": values.get(name) or 0, "unit": unit}
               for name, unit in units.items()}
    prov = provenance(w, args.seed, input_hashes)
    result = {"correct": ops.failed == 0, "attempted": ops.attempted,
              "failed": ops.failed, "metrics": metrics}
    with open(os.path.join(w.dir, "result-trace%d.json" % args.trace), "w") as fh:
        json.dump({"result": result, "provenance": prov, "detail": detail,
                   "unmeasured": unmeasured, "problems": ops.problems,
                   "all_values": values}, fh, indent=1)
    if spans is not None:
        with open(os.path.join(w.dir, "spans.json"), "w") as fh:
            json.dump(spans, fh)

    for p in ops.problems:
        print("FAILED: %s" % p[:2000], file=sys.stderr)
    print("provenance: %s" % json.dumps(prov, sort_keys=True))
    print("workload %s, seed %d (input seed %d), trace %d"
          % (w.name, args.seed, w.seed, args.trace))
    for name, m in metrics.items():
        print("  %-36s %14s %s" % (name, "unmeasured" if name in unmeasured
                                   else "%.6g" % m["value"], m["unit"]))
    # reported, not gated: accuracy on ~80 noisy queries moves by a third
    # between seeds, and failed_ratio is 0 whenever the program is right
    if values.get("accuracy_pct") is not None:
        print("  %-36s %14.6g %% (%s)" % ("accuracy_pct", values["accuracy_pct"],
                                         w.reference))
    print("  %-36s %14.6g ratio (%d of %d operations)"
          % ("failed_ratio", ops.failed / ops.attempted, ops.failed,
             ops.attempted))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
