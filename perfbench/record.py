"""Record reference outputs for seeds of one workload.

    python3 perfbench/record.py --workload regions --seeds 0-19

Runs the workload's set-up and run once per input seed, untimed, and
stores the digests of their outputs in perfbench/reference/<workload>.json,
which run.py compares against. run.py draws its inputs from input seed
--seed mod INPUT_SEEDS, so every input seed below INPUT_SEEDS needs a
reference. Record only at a commit whose outputs are the
reference: recording at a later commit would hide its changes.
"""

import argparse
import json
import os
import sys

import check
from run import REFERENCE_DIR, ROOT, Runner, bootstrap, fresh_dir


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, help="e.g. 0-19 or 1,4,7")
    args = ap.parse_args(argv)
    os.chdir(ROOT)
    bootstrap()
    from workloads import WORKLOADS

    path = os.path.join(REFERENCE_DIR, args.workload + ".json")
    if os.path.isfile(path):
        with open(path) as fh:
            table = json.load(fh)
    else:
        table = {"workload": args.workload, "seeds": {}}
    for seed in parse_seeds(args.seeds):
        w = WORKLOADS[args.workload](seed)
        fresh_dir(w.indir)
        w.generate()
        runner = Runner(w)
        runner.setup()
        runner.run_once()
        if runner.ops.failed:
            sys.exit("seed %d failed: %s" % (seed, runner.ops.problems))
        table["seeds"][str(seed)] = {
            key: {"stable": d["stable"],
                  "decisions": check.pack_decisions(d["decisions"])}
            for key, d in sorted(runner.digests.items())}
        print("recorded %s seed %d" % (w.name, seed), flush=True)
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    table["seeds"] = dict(sorted(table["seeds"].items(), key=lambda kv: int(kv[0])))
    with open(path, "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
