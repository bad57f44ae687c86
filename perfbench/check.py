"""Output checks: digests of the program's outputs and their comparison.

Every output the LP does not produce must match byte for byte. The LP
produces the lp and lpr columns of `results.csv` and `runs.jsonl`, the
comparison block of `results.csv` (its reference is lpr) and the lp/lpr
trace rows. For those, per-sample decisions (chosen classifier, predicted
class, exit taken) are compared and differences are counted, not failed:
a different LP solver may pick another optimal vertex of a degenerate LP.
"""

import base64
import csv
import hashlib
import io
import json
import os
import zlib

LP_METHODS = ("lp", "lpr")


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def file_sha(path):
    with open(path, "rb") as fh:
        return sha256(fh.read())


def _rows(text):
    return list(csv.reader(io.StringIO(text)))


def _results_stable(text):
    """results.csv without the LP columns and the comparison block."""
    rows = _rows(text)
    end = rows.index([]) if [] in rows else len(rows)
    header = rows[0]
    drop = {i for i, h in enumerate(header)
            if h in LP_METHODS or h == "recourse_rate"}
    kept = [[v for i, v in enumerate(r) if i not in drop] for r in rows[:end]]
    return json.dumps(kept)


def _ledger_stable(text):
    out = []
    for line in text.splitlines():
        rec = json.loads(line)
        rec["accuracy"] = {k: v for k, v in rec["accuracy"].items()
                           if k.rsplit("/", 1)[-1] not in LP_METHODS}
        out.append(json.dumps(rec, sort_keys=True))
    return "\n".join(out)


def _lp_method(name):
    """lp or lpr for a per-sample output of that method (a trace_*.csv of
    `evaluate` or a select_*.csv of `select`), else None."""
    if name.startswith(("trace_", "select_")) and name.endswith(".csv"):
        method = name[:-4].rsplit("_", 1)[-1]
        if method in LP_METHODS:
            return method
    return None


# the model bundle is an internal format, free to change; its content is
# checked through the outputs of the commands that load it
BUNDLE_FILES = ("forest.json", "models.json", "meta.json")


def digest_dir(outdir):
    """{"files": full hashes, "stable": non-LP hashes, "decisions": ...}."""
    files, stable = {}, {}
    decisions = {m: [] for m in LP_METHODS}
    for root, _, names in os.walk(outdir):
        for name in sorted(n for n in names if n not in BUNDLE_FILES):
            path = os.path.join(root, name)
            rel = os.path.relpath(path, outdir)
            with open(path, "rb") as fh:
                data = fh.read()
            files[rel] = sha256(data)
            method = _lp_method(name)
            if name == "results.csv":
                stable[rel] = sha256(_results_stable(data.decode()).encode())
            elif name == "runs.jsonl":
                stable[rel] = sha256(_ledger_stable(data.decode()).encode())
            elif method:
                rows = _rows(data.decode())
                col = {h: i for i, h in enumerate(rows[0])}
                key = col.get("sample_index", col.get("row"))
                body = rows[1:]
                stable[rel] = sha256(json.dumps(
                    [rows[0]] + [r[key] for r in body]).encode())
                decisions[method] += [
                    "%s:%s:%s" % (r[col["chosen_classifier"]],
                                  r[col["predicted_class"]],
                                  r[col["method_used"]]) for r in body]
            else:
                stable[rel] = files[rel]
    return {"files": files, "stable": stable, "decisions": decisions}


def pack_decisions(decisions):
    raw = json.dumps(decisions, sort_keys=True).encode()
    return base64.b64encode(zlib.compress(raw, 9)).decode()


def unpack_decisions(packed):
    return json.loads(zlib.decompress(base64.b64decode(packed)))


def compare(digest, ref):
    """(mismatch messages, {method: decisions changed}) against a reference
    digest whose decisions are packed."""
    problems = []
    if set(digest["stable"]) != set(ref["stable"]):
        problems.append("output files differ: %s vs reference %s"
                        % (sorted(digest["stable"]), sorted(ref["stable"])))
    for rel in sorted(set(digest["stable"]) & set(ref["stable"])):
        if digest["stable"][rel] != ref["stable"][rel]:
            problems.append("%s differs from the reference" % rel)
    ref_dec = unpack_decisions(ref["decisions"])
    changed = {}
    for m in LP_METHODS:
        got, want = digest["decisions"][m], ref_dec.get(m, [])
        if len(got) != len(want):
            problems.append("%s: %d decisions, reference has %d"
                            % (m, len(got), len(want)))
        changed[m] = sum(a != b for a, b in zip(got, want))
    return problems, changed


def results_row(outdir, dataset):
    """The dataset's row of results.csv as {column: cell}."""
    with open(os.path.join(outdir, "results.csv"), newline="") as fh:
        rows = list(csv.reader(fh))
    for r in rows[1:]:
        if r and r[0] == dataset:
            return dict(zip(rows[0], r))
    raise KeyError("no row for %s in results.csv" % dataset)


def check_results(outdir, dataset, methods):
    """Structural checks of results.csv: every method has an accuracy."""
    problems = []
    row = results_row(outdir, dataset)
    if row.get("errors"):
        problems.append("error cell: %s" % row["errors"])
    for m in methods:
        try:
            acc = float(row[m])
        except (KeyError, ValueError):
            problems.append("no accuracy for %s" % m)
            continue
        if not 0.0 <= acc <= 100.0:
            problems.append("accuracy of %s out of range: %s" % (m, acc))
    return problems, row
