"""Command-line round trips over temporary datasets."""

import base64
import contextlib
import csv
import io
import json
import os
import shutil
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cshc
from cshc import bundle, harness, kernels
from cshc.cli import main
from cshc.config import ALL_METHODS
from test_harness import tiny_experiment_config
from test_lp import run_fresh


def write_tiny_csv(tmp_path, name="tiny.csv", rows=240, seed=11, **shape):
    cfg = tiny_experiment_config(tmp_path, rows=rows, seed=seed, **shape)
    return cfg.datasets[0][1]


def test_import_leaves_scipy_stats_out():
    """No command needs scipy.stats, which takes most of a second to
    import: importing the program loads it only where the HiGHS binding
    that the LP imports already has (scipy 1.17's does not)."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cshc.__file__)))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, scipy.optimize._highspy._core; "
         "before = 'scipy.stats' in sys.modules; import cshc.cli; "
         "print(before, 'scipy.stats' in sys.modules)"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
        timeout=120)
    assert out.returncode == 0, out.stderr
    before, after = out.stdout.split()
    assert after == before


def test_import_leaves_scipy_optimize_out():
    """The LP loads the HiGHS binding on its first solve: importing the
    program loads no scipy.optimize."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cshc.__file__)))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, cshc.cli; "
         "print(sorted(m for m in sys.modules if m.startswith('scipy.')))"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
        timeout=120)
    assert out.returncode == 0, out.stderr
    assert "scipy.optimize" not in out.stdout, out.stdout


class TestTrainSelect:
    def test_round_trip(self, tmp_path, capsys):
        data = write_tiny_csv(tmp_path)
        bundle_dir = str(tmp_path / "bundle")
        assert main(["train", "--data", data, "--label", "label",
                     "--out", bundle_dir, "--seed", "5"]) == 0
        for fn in ("forest.json", "models.json", "meta.json",
                   "assignments.csv"):
            assert os.path.exists(os.path.join(bundle_dir, fn))
        # classify a few fresh points with every selection method
        query = tmp_path / "query.csv"
        query.write_text("x0,x1\n-2.0,0.1\n2.0,-0.2\n0.0,0.0\n")
        out = tmp_path / "sel.csv"
        for method in ("cshc", "rr", "lp", "lpr"):
            assert main(["select", "--model", bundle_dir, "--input",
                         str(query), "--output", str(out),
                         "--method", method]) == 0
            lines = out.read_text().strip().splitlines()
            assert len(lines) == 4
            # the two cluster centers are unambiguous
            assert lines[1].split(",")[3] == "a"
            assert lines[2].split(",")[3] == "b"

    def test_meta_is_the_same_for_any_paths(self, tmp_path, monkeypatch):
        """meta.json keeps no path: the same training, once with --data
        relative and once absolute, into two directories, writes the same
        bytes."""
        data = write_tiny_csv(tmp_path)
        monkeypatch.chdir(tmp_path)
        metas = []
        for given, out in ((os.path.relpath(data), "one"),
                           (os.path.abspath(data), str(tmp_path / "two"))):
            assert main(["train", "--data", given, "--label", "label",
                         "--out", out, "--seed", "5"]) == 0
            metas.append((tmp_path / out / "meta.json").read_bytes())
        assert metas[0] == metas[1]

    def test_select_rejects_wrong_columns(self, tmp_path, capsys):
        data = write_tiny_csv(tmp_path)
        bundle_dir = str(tmp_path / "bundle")
        main(["train", "--data", data, "--label", "label",
              "--out", bundle_dir])
        bad = tmp_path / "bad.csv"
        bad.write_text("wrong,cols\n1,2\n")
        assert main(["select", "--model", bundle_dir, "--input",
                     str(bad)]) == 2
        assert "do not match" in capsys.readouterr().err


@pytest.fixture(scope="module")
def trained_bundle(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("trained")
    bundle_dir = str(tmp / "bundle")
    assert main(["train", "--data", write_tiny_csv(tmp), "--label", "label",
                 "--out", bundle_dir, "--seed", "5"]) == 0
    return bundle_dir


@pytest.fixture(scope="module")
def split_bundle(tmp_path_factory):
    """A bundle of the same shape as trained_bundle (2 classes, 2 features,
    the default pool, 81 validation rows) over overlapping clusters, where
    the classifiers disagree and the CSHC trees split; tree 0 splits at
    its root."""
    tmp = tmp_path_factory.mktemp("split")
    bundle_dir = str(tmp / "bundle")
    data = write_tiny_csv(tmp, seed=12, centre=1.0, spread=1.0)
    assert main(["train", "--data", data, "--label", "label",
                 "--out", bundle_dir, "--seed", "5"]) == 0
    with open(os.path.join(bundle_dir, "forest.json")) as fh:
        assert _as_lists(json.load(fh))["trees"][0]["feat"][0] >= 0
    return bundle_dir


class TestSelectInput:
    @pytest.mark.parametrize("text,message", [
        ("x0,x1\n1.0,nan\n", "row 2, column 'x1': non-numeric value 'nan'"),
        ("x0,x1\ninf,0.5\n", "row 2, column 'x0': non-numeric value 'inf'"),
        ("x0,x1\n1.0,2.0\n3.0\n", "row 3 has 1 cells, expected 2"),
        ("x0,x1\n1.0,abc\n", "row 2, column 'x1': non-numeric value 'abc'"),
        ("x0,x1\n", "no data rows"),
        ("x0,x1\n1e200,0.0\n",
         "classifier 'gaussian_nb': overflow encountered in square while "
         "scoring"),
        # a cell longer than csv's field size limit
        ("x0,x1\n1.0,2.0\n1.0," + "0" * 140001 + "\n",
         "rows.csv: row 3: field larger than field limit (131072)"),
    ], ids=["nan", "inf", "ragged", "non-numeric", "header-only",
            "feature-overflows", "field-limit"])
    def test_malformed_rows_exit_2(self, trained_bundle, tmp_path, capsys,
                                   text, message):
        bad = tmp_path / "rows.csv"
        bad.write_text(text)
        out = tmp_path / "sel.csv"
        assert main(["select", "--model", trained_bundle, "--input", str(bad),
                     "--output", str(out), "--method", "cshc"]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_overflow_in_a_model_the_row_does_not_pick(
            self, split_bundle, tmp_path, capsys):
        """cshc scores a row only with the model it picks. This row
        overflows naive Bayes, and cshc picks the perceptron for it, so
        it selects; rr reads every model's label and exits 2 naming naive
        Bayes."""
        query = tmp_path / "rows.csv"
        query.write_text("x0,x1\n1e200,0.0\n")
        out = tmp_path / "sel.csv"
        args = ["select", "--model", split_bundle, "--input", str(query),
                "--output", str(out), "--method"]
        assert main(args + ["cshc"]) == 0
        assert out.read_text().splitlines()[1].split(",")[1:2] == ["3"]
        out.unlink()
        assert main(args + ["rr"]) == 2
        assert ("classifier 'gaussian_nb': overflow encountered in square "
                "while scoring") in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("method", list(harness.SELECTION_METHODS))
    def test_stdout_is_the_output_file(self, trained_bundle, tmp_path,
                                       capsys, method):
        """Without --output, select prints the bytes --output writes, CRLF
        line ends included."""
        query = tmp_path / "query.csv"
        query.write_text("x0,x1\n-2.0,0.1\n2.0,-0.2\n0.0,0.0\n")
        out = tmp_path / "sel.csv"
        args = ["select", "--model", trained_bundle, "--input", str(query),
                "--method", method]
        capsys.readouterr()
        assert main(args) == 0
        printed = capsys.readouterr().out
        assert main(args + ["--output", str(out)]) == 0
        assert printed.encode() == out.read_bytes()
        assert printed.count("\r\n") == 4

    def test_output_parent_is_created(self, trained_bundle, tmp_path):
        query = tmp_path / "query.csv"
        query.write_text("x0,x1\n-2.0,0.1\n")
        out = tmp_path / "new" / "dir" / "sel.csv"
        assert main(["select", "--model", trained_bundle, "--input",
                     str(query), "--output", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 2

    def test_old_forest_format_rejected(self, trained_bundle, tmp_path,
                                        capsys):
        bundle_dir = str(tmp_path / "old")
        shutil.copytree(trained_bundle, bundle_dir)
        path = os.path.join(bundle_dir, "forest.json")
        with open(path) as fh:
            data = json.load(fh)
        data["format"] = "cshc-forest/1"
        with open(path, "w") as fh:
            json.dump(data, fh)
        query = tmp_path / "query.csv"
        query.write_text("x0,x1\n-2.0,0.1\n")
        assert main(["select", "--model", bundle_dir, "--input",
                     str(query)]) == 2
        assert "'cshc-forest/1'" in capsys.readouterr().err

    def test_parent_bundle_format_rejected(self, trained_bundle, tmp_path,
                                           capsys):
        """A bundle of the previous format, whose trees also store left,
        right and leaf_id, is refused by its format, not read field by
        field."""
        bundle_dir = str(tmp_path / "parent")
        shutil.copytree(trained_bundle, bundle_dir)
        files = {}
        for name in ("forest.json", "models.json"):
            with open(os.path.join(bundle_dir, name)) as fh:
                files[name] = _as_lists(json.load(fh))
        files["forest.json"]["format"] = "cshc-forest/3"
        for tree in files["forest.json"]["trees"] + [
                m for m in files["models.json"]
                if m["kind"] == "decision_tree_gini"]:
            tree.update(zip(("left", "right", "leaf_id"), (
                a.tolist() for a in kernels.layout(np.array(tree["feat"])))))
        for name, data in files.items():
            with open(os.path.join(bundle_dir, name), "w") as fh:
                json.dump(data, fh)
        path = os.path.join(bundle_dir, "meta.json")
        with open(path) as fh:
            text = fh.read()
        with open(path, "w") as fh:
            fh.write(_replaced(text, "cshc-bundle/3", "format"))
        query = tmp_path / "query.csv"
        query.write_text("x0,x1\n-2.0,0.1\n")
        assert main(["select", "--model", bundle_dir, "--input",
                     str(query)]) == 2
        assert ("unsupported bundle format 'cshc-bundle/3'; this program "
                "reads 'cshc-bundle/6'") in capsys.readouterr().err

    def test_per_tree_leaves_bundle_rejected(self, split_bundle, tmp_path):
        """A bundle of the previous format, whose trees each store their
        own leaf_ptr, leaf_rows and leaf_mult, is refused by its format,
        not read field by field."""
        bundle_dir = str(tmp_path / "per-tree")
        shutil.copytree(split_bundle, bundle_dir)
        path = os.path.join(bundle_dir, "forest.json")
        with open(path) as fh:
            data = _as_lists(json.load(fh))
        ptr, rows, mult = (data.pop(key)
                           for key in ("leaf_ptr", "leaf_rows", "leaf_mult"))
        first = 0
        for tree in data["trees"]:
            last = first + tree["feat"].count(-1)
            a, b = ptr[first], ptr[last]
            tree.update(leaf_ptr=[p - a for p in ptr[first:last + 1]],
                        leaf_rows=rows[a:b], leaf_mult=mult[a:b])
            first = last
        data["format"] = "cshc-forest/5"
        with open(path, "w") as fh:
            json.dump(_as_stored(data), fh)
        path = os.path.join(bundle_dir, "meta.json")
        with open(path) as fh:
            text = fh.read()
        with open(path, "w") as fh:
            fh.write(_replaced(text, "cshc-bundle/5", "format"))
        stderr = _select_exits_2(bundle_dir, tmp_path)
        assert stderr.startswith("error: ") and (
            "unsupported bundle format 'cshc-bundle/5'; this program reads "
            "'cshc-bundle/6'") in stderr

    @pytest.mark.parametrize("names,message", [
        (("meta.json", "models.json", "forest.json"),
         "unsupported bundle format 'cshc-bundle/4'; this program reads "
         "'cshc-bundle/6'"),
        (("forest.json",),
         "unsupported forest format 'cshc-forest/4'; this program reads "
         "'cshc-forest/6'"),
    ], ids=["bundle", "forest"])
    def test_list_encoded_bundle_rejected(self, split_bundle, tmp_path,
                                          names, message):
        """Files of format 4, which held every array as a JSON list, are
        refused by their format, not read field by field."""
        bundle_dir = str(tmp_path / "lists")
        shutil.copytree(split_bundle, bundle_dir)
        for name in names:
            path = os.path.join(bundle_dir, name)
            with open(path) as fh:
                data = _as_lists(json.load(fh))
            if name != "models.json":
                data["format"] = data["format"].replace("/6", "/4")
            with open(path, "w") as fh:
                json.dump(data, fh)
        stderr = _select_exits_2(bundle_dir, tmp_path)
        assert stderr.startswith("error: ") and message in stderr


class TestSelectFiles:
    @pytest.mark.parametrize("flag", ["--input", "--model"])
    def test_missing_path_exits_2(self, trained_bundle, tmp_path, capsys,
                                  flag):
        query = tmp_path / "query.csv"
        query.write_text("x0,x1\n-2.0,0.1\n")
        missing = str(tmp_path / "nope")
        args = {"--model": trained_bundle, "--input": str(query), flag: missing}
        assert main(["select"] + [x for item in args.items() for x in item]) == 2
        err = capsys.readouterr().err
        assert missing in err and "No such file or directory" in err

    def test_tree_missing_field_exits_2(self, trained_bundle, tmp_path):
        _, err = _without_key(trained_bundle, tmp_path, "trees", 1, "thr")
        assert "forest.json: forest tree 1: missing key 'thr'" in err

    @pytest.mark.parametrize("key", ["leaf_ptr", "leaf_rows", "leaf_mult"])
    def test_leaf_table_missing_field_exits_2(self, trained_bundle, tmp_path,
                                              key):
        path, err = _without_key(trained_bundle, tmp_path, key)
        assert "error: %s: missing key %r" % (path, key) in err

    def test_one_tree_past_the_rows_exits_2(self, split_bundle, tmp_path):
        """Each tree's leaves hold one bootstrap draw: a tree whose
        multiplicities sum past the validation rows is refused, and named,
        even where the whole forest's sum stays under trees x rows."""
        bundle_dir = str(tmp_path / "one-tree")
        shutil.copytree(split_bundle, bundle_dir)
        path = os.path.join(bundle_dir, "forest.json")
        with open(path) as fh:
            data = _as_lists(json.load(fh))
        ptr, mult = data["leaf_ptr"], data["leaf_mult"]
        first = data["trees"][0]["feat"].count(-1)  # tree 1's first leaf
        last = first + data["trees"][1]["feat"].count(-1)
        mult[ptr[first]] += 82 - sum(mult[ptr[first]:ptr[last]])
        assert sum(mult) <= len(data["trees"]) * 81
        with open(path, "w") as fh:
            json.dump(_as_stored(data), fh)
        stderr = _select_exits_2(bundle_dir, tmp_path)
        assert stderr.startswith("error: ") and (
            "%s: forest tree 1: has leaves whose 'leaf_mult' sum to more "
            "than 81" % path) in stderr

    @pytest.mark.parametrize("change", [-1, 1], ids=["fewer", "more"])
    def test_leaf_count_other_than_the_trees_exits_2(self, split_bundle,
                                                     tmp_path, change):
        """A leaf table with one leaf fewer or more than the trees' feat
        arrays give is refused, though its offsets still rise from 0 to
        the member count."""
        bundle_dir = str(tmp_path / "leaf-count")
        shutil.copytree(split_bundle, bundle_dir)
        path = os.path.join(bundle_dir, "forest.json")
        with open(path) as fh:
            data = _as_lists(json.load(fh))
        ptr = data["leaf_ptr"]
        if change < 0:
            del ptr[1]  # leaves 0 and 1 as one
        else:  # a leaf of two members or more cut in two
            i = next(i for i in range(len(ptr) - 1) if ptr[i + 1] - ptr[i] > 1)
            ptr.insert(i + 1, ptr[i] + 1)
        with open(path, "w") as fh:
            json.dump(_as_stored(data), fh)
        stderr = _select_exits_2(bundle_dir, tmp_path)
        L = sum(tree["feat"].count(-1) for tree in data["trees"])
        assert len(ptr) == L + 1 + change
        assert stderr.startswith("error: ") and (
            "%s: has 'leaf_ptr' other than %d rising offsets from 0 to %d, "
            "one more than the trees' leaves" % (
                path, L + 1, len(data["leaf_rows"]))) in stderr

    @pytest.mark.parametrize("name,rewrite,message", [
        ("forest.json", lambda text: text[:1000], "forest.json: not valid JSON"),
        ("models.json", lambda text: "nope", "models.json: not valid JSON"),
        ("meta.json", lambda text: json.dumps(
            {"format": bundle.BUNDLE_FORMAT}),
         "meta.json: missing key 'dataset.feature_names'"),
        ("meta.json", lambda text: _replaced(text, "cshc-bundle/1", "format"),
         "unsupported bundle format 'cshc-bundle/1'"),
        ("meta.json", lambda text: _without(text, "validation", "truth"),
         "meta.json: missing key 'validation.truth'"),
        ("meta.json", lambda text: _truncated(text, 5, "validation", "truth"),
         "meta.json: 'validation.truth' is not an array of shape (M) with "
         "M = 81 validation rows"),
        # a row one entry short
        ("meta.json", lambda text: _recoded(text, lambda raw: raw[:-8],
                                            "validation", "predicted"),
         "meta.json: 'validation.predicted' has 'data' of 2584 bytes, not 8 "
         "for each of the 324 entries of its 'shape'"),
        ("models.json", lambda text: "[1]",
         "models.json: expected a list of 4 classifier objects"),
        ("models.json", lambda text: _truncated(text, 3),
         "models.json: expected a list of 4 classifier objects"),
        ("models.json", lambda text: json.dumps([{}] * 4),
         "models.json: classifier 0: missing key 'kind'"),
        ("models.json", lambda text: _truncated(text, 1, 0, "theta"),
         "models.json: classifier 0: 'theta' is not an array of shape "
         "(C, F) with C = 2 classes and F = 2 features"),
        ("forest.json", lambda text: _replaced(text, [0, 1], "leaf_ptr"),
         "forest.json: has 'leaf_ptr' other than "),
        ("forest.json", lambda text: _replaced(text, 2, "trees", 0, "feat", 0),
         "has 'feat' 2 at node 0"),
        ("meta.json", lambda text: _truncated(text, 1, "dataset",
                                              "class_names"),
         "meta.json: 'dataset.feature_names' and 'dataset.class_names' are "
         "not lists of names"),
        # leaf multiplicities are whole numbers >= 1
        ("forest.json", lambda text: _replaced(text, 0.3, "leaf_mult", 0),
         "forest.json: has 'leaf_rows' and 'leaf_mult' other than lists of "
         "rows in [0, 81) and whole numbers >= 1"),
        ("forest.json", lambda text: _replaced(text, 0, "leaf_mult", 0),
         "forest.json: has 'leaf_rows' and 'leaf_mult' other than lists of "
         "rows in [0, 81) and whole numbers >= 1"),
        ("forest.json", lambda text: _replaced(text, 2.0 ** 60, "leaf_mult",
                                               0),
         "forest.json: forest tree 0: has leaves whose 'leaf_mult' sum to "
         "more than 81"),
        # meta.json values
        ("meta.json", lambda text: _replaced(text, 99, "validation", "truth",
                                             0),
         "meta.json: 'validation.truth' is not a non-empty array of classes "
         "in [0, 2)"),
        ("meta.json", lambda text: _replaced(text, -1, "validation", "truth",
                                             0),
         "meta.json: 'validation.truth' is not a non-empty array of classes "
         "in [0, 2)"),
        ("meta.json", lambda text: _replaced(text, 99, "validation",
                                             "predicted", 0, 1),
         "meta.json: 'validation.predicted' is not a non-empty array of "
         "classes in [0, 2)"),
        ("meta.json", lambda text: _replaced(text, -1, "validation",
                                             "predicted", 0, 1),
         "meta.json: 'validation.predicted' is not a non-empty array of "
         "classes in [0, 2)"),
        ("meta.json", lambda text: _replaced(text, "x", "config", "gamma"),
         "meta.json: 'config.gamma' must be a finite number, got 'x'"),
        ("meta.json", lambda text: _replaced(text, "x", "config", "rho"),
         "meta.json: 'config.rho' must be a finite number, got 'x'"),
        ("meta.json", lambda text: _replaced(text, None, "config", "rho"),
         "meta.json: 'config.rho' must be a finite number, got None"),
        ("meta.json", lambda text: _replaced(text, "x", "config", "seed"),
         "meta.json: 'config.seed' must be an integer, got 'x'"),
        # models.json values
        ("models.json", lambda text: _replaced(text, float("nan"), 3, "W", 0,
                                               0),
         "models.json: classifier 3: 'W' holds a value that is not a finite "
         "number"),
        ("models.json", lambda text: _replaced(text, 0.0, 0, "var", 0, 0),
         "models.json: classifier 0: 'var' holds a variance <= 0"),
        ("models.json", lambda text: _replaced(text, -1.0, 0, "var", 1, 1),
         "models.json: classifier 0: 'var' holds a variance <= 0"),
        ("models.json", lambda text: _replaced(text, float("inf"), 0,
                                               "log_prior", 0),
         "models.json: classifier 0: 'log_prior' holds a value that is not "
         "a finite number"),
        ("models.json", lambda text: _replaced(text, 0.0, 1, "scale", 0),
         "models.json: classifier 1: 'scale' holds a value <= 0"),
        ("models.json", lambda text: _replaced(text, [-3.0, 0.0], 2,
                                               "leaf_proba", 0),
         "models.json: classifier 2: 'leaf_proba' holds a row that is not "
         "probabilities"),
        ("models.json", lambda text: _replaced(text, [0.5, 0.5 + 2e-6], 2,
                                               "leaf_proba", 0),
         "models.json: classifier 2: 'leaf_proba' holds a row that is not "
         "probabilities"),
        # finite extremes that overflow once the model scores a row
        ("models.json", lambda text: _replaced(text, 1e308, 0, "theta", 0, 0),
         "classifier 'gaussian_nb': overflow encountered in square while "
         "scoring"),
        ("models.json", lambda text: _replaced(text, 1e-320, 0, "var", 0, 0),
         "classifier 'gaussian_nb': overflow encountered in divide while "
         "scoring"),
        ("models.json", lambda text: _replaced(text, 1e308, 1, "X", 0, 0),
         "classifier 'one_nn': overflow encountered in square while "
         "scoring"),
        # integers beyond int64, one per file
        ("forest.json", lambda text: _recoded(text, _beyond_int64,
                                              "leaf_rows"),
         "forest.json: 'leaf_rows' has 'data' of "),
        ("meta.json", lambda text: _recoded(text, _beyond_int64, "validation",
                                            "truth"),
         "meta.json: 'validation.truth' has 'data' of 1296 bytes, not 8 for "
         "each of the 81 entries of its 'shape'"),
        ("models.json", lambda text: _recoded(text, _beyond_int64, 1, "y"),
         "models.json: classifier 1: 'y' has 'data' of "),
        # arrays stored other than as a shape and base64 bytes
        ("models.json", lambda text: json.dumps(_as_lists(json.loads(text))),
         "models.json: classifier 0: 'log_prior' is not an object with "
         "'shape' and 'data'"),
        ("forest.json", lambda text: _without(text, "trees", 0, "thr",
                                              "data"),
         "forest.json: forest tree 0: 'thr' is not an object with 'shape' "
         "and 'data'"),
        ("meta.json", lambda text: _replaced(text, "not base64!", "validation",
                                             "truth", "data"),
         "meta.json: 'validation.truth' has 'data' that is not base64 text"),
        # a character a lenient decoder would skip
        ("models.json", lambda text: _edited(text, lambda node, key: (
            node.__setitem__(key, node[key][:8] + "*" + node[key][8:])),
            (1, "X", "data")),
         "models.json: classifier 1: 'X' has 'data' that is not base64 text"),
        ("forest.json", lambda text: _recoded(text, lambda raw: raw + raw[:8],
                                              "trees", 0, "thr"),
         "forest.json: forest tree 0: 'thr' has 'data' of "),
        ("models.json", lambda text: _replaced(text, [-1, 2], 1, "X",
                                               "shape"),
         "models.json: classifier 1: 'X' has a 'shape' other than a list of "
         "2 whole numbers >= 0"),
        ("models.json", lambda text: _replaced(text, [40.5, 2], 1, "X",
                                               "shape"),
         "models.json: classifier 1: 'X' has a 'shape' other than a list of "
         "2 whole numbers >= 0"),
        ("meta.json", lambda text: _replaced(text, [81, 4, 1], "validation",
                                             "predicted", "shape"),
         "meta.json: 'validation.predicted' has a 'shape' other than a list "
         "of 2 whole numbers >= 0"),
        # every leaf holds a member or more
        ("forest.json", lambda text: _emptied_leaves(text),
         "forest.json: has 'leaf_ptr' other than 51 rising offsets from 0 to "
         "0, one more than the trees' leaves, each leaf holding a member or "
         "more"),
        # thresholds are finite
        ("forest.json", lambda text: _replaced(text, float("nan"), "trees", 0,
                                               "thr", 0),
         "forest.json: forest tree 0: 'thr' holds a value that is not a "
         "finite number"),
        ("forest.json", lambda text: _replaced(text, float("inf"), "trees", 0,
                                               "thr", 0),
         "forest.json: forest tree 0: 'thr' holds a value that is not a "
         "finite number"),
    ], ids=["forest-truncated", "models-not-json", "meta-format-only",
            "meta-old-format", "meta-no-truth", "meta-short-truth", "meta-ragged-predicted",
            "models-not-objects", "models-short", "models-empty-objects",
            "models-short-theta", "forest-bad-leaf-ptr",
            "forest-feature-count", "meta-short-class-names",
            "forest-fractional-mult", "forest-zero-mult", "forest-huge-mult",
            "meta-truth-too-large", "meta-truth-negative",
            "meta-predicted-too-large", "meta-predicted-negative",
            "meta-gamma-not-number", "meta-rho-not-number", "meta-rho-null",
            "meta-seed-not-int", "models-nan-weight", "models-zero-var",
            "models-negative-var", "models-log-prior-inf",
            "models-zero-scale", "models-negative-leaf-proba",
            "models-leaf-proba-sum", "models-huge-theta", "models-tiny-var",
            "models-huge-1nn-point", "forest-row-beyond-int64",
            "meta-truth-beyond-int64", "models-label-beyond-int64",
            "models-lists", "forest-no-data", "meta-bad-base64",
            "models-stray-character", "forest-extra-entry",
            "models-negative-shape", "models-fractional-shape",
            "meta-3d-shape",
            "forest-empty-leaves", "forest-nan-threshold",
            "forest-inf-threshold"])
    def test_malformed_bundle_file_exits_2(self, split_bundle, tmp_path,
                                           capsys, name, rewrite, message):
        bundle_dir = str(tmp_path / "malformed")
        shutil.copytree(split_bundle, bundle_dir)
        path = os.path.join(bundle_dir, name)
        with open(path) as fh:
            text = fh.read()
        with open(path, "w") as fh:
            fh.write(rewrite(text))
        query = tmp_path / "query.csv"
        query.write_text("x0,x1\n-2.0,0.1\n")
        assert main(["select", "--model", bundle_dir, "--input",
                     str(query)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    @pytest.mark.parametrize("flag", ["--gamma", "--rho"])
    def test_non_finite_override_exits_2(self, trained_bundle, tmp_path,
                                         capsys, flag):
        query = tmp_path / "query.csv"
        query.write_text("x0,x1\n-2.0,0.1\n0.0,0.0\n")
        assert main(["select", "--model", trained_bundle, "--input",
                     str(query), flag, "nan"]) == 2
        assert "%s must be a finite number, got nan" % flag in \
            capsys.readouterr().err

    def test_gamma_override_at_the_solver_bound_exits_2(
            self, trained_bundle, tmp_path, capsys):
        query = tmp_path / "query.csv"
        query.write_text("x0,x1\n-2.0,0.1\n0.0,0.0\n")
        assert main(["select", "--model", trained_bundle, "--input",
                     str(query), "--method", "lp", "--gamma", "1e21"]) == 2
        err = capsys.readouterr().err
        assert err == ("error: --gamma must be below 1e+20, HiGHS's infinite "
                       "bound, got 1e+21\n")

    def test_stored_gamma_at_the_solver_bound_exits_2(
            self, trained_bundle, tmp_path, capsys):
        bundle_dir = str(tmp_path / "huge-gamma")
        shutil.copytree(trained_bundle, bundle_dir)
        path = os.path.join(bundle_dir, "meta.json")
        with open(path) as fh:
            text = fh.read()
        with open(path, "w") as fh:
            fh.write(_replaced(text, 1e21, "config", "gamma"))
        query = tmp_path / "query.csv"
        query.write_text("x0,x1\n-2.0,0.1\n0.0,0.0\n")
        assert main(["select", "--model", bundle_dir, "--input", str(query),
                     "--method", "lp"]) == 2
        assert capsys.readouterr().err == (
            "error: %s: 'config.gamma' must be below 1e+20, HiGHS's infinite "
            "bound, got 1e+21\n" % path)

    def test_log_prior_may_hold_minus_inf(self, trained_bundle, tmp_path):
        """A class absent from training gives gaussian_nb a log prior of
        -inf, which loads and selects."""
        bundle_dir = str(tmp_path / "absent-class")
        shutil.copytree(trained_bundle, bundle_dir)
        path = os.path.join(bundle_dir, "models.json")
        with open(path) as fh:
            text = fh.read()
        with open(path, "w") as fh:
            fh.write(_replaced(text, float("-inf"), 0, "log_prior", 1))
        query = tmp_path / "query.csv"
        query.write_text("x0,x1\n-2.0,0.1\n")
        assert main(["select", "--model", bundle_dir, "--input",
                     str(query), "--output", str(tmp_path / "sel.csv")]) == 0

    @pytest.mark.parametrize("name,node,value,message", [
        ("forest.json", 0, -1, "has no parent split before node 1"),
        ("forest.json", -1, 0, "has %(n)d nodes for %(k)d splits, not %(m)d"),
        ("forest.json", 0, 99, "has 'feat' 99 at node 0"),
        ("models.json", 0, -1,
         "classifier 2: has no parent split before node 1"),
        ("models.json", 0, -2, "classifier 2: has 'feat' -2 at node 0"),
        ("models.json", -1, 0,
         "classifier 2: has %(n)d nodes for %(k)d splits, not %(m)d"),
    ], ids=["forest-cyclic", "forest-right-out-of-range",
            "forest-feat-out-of-range",
            "gini-cyclic", "gini-feat-negative", "gini-right-out-of-range"])
    def test_bad_tree_exits_2(self, split_bundle, tmp_path, name, node,
                              value, message):
        """A tree that route could loop in or index out of fails the load.
        One feat of the first tree whose root and node 1 split is changed:
        the root to a leaf makes node 1 split 0, its own left child, and
        the last leaf to a split puts its children past the last node.
        select runs in a subprocess so that a hang fails the test."""
        bundle_dir = str(tmp_path / "bad-tree")
        shutil.copytree(split_bundle, bundle_dir)
        path = os.path.join(bundle_dir, name)
        with open(path) as fh:
            data = _as_lists(json.load(fh))
        trees = (data["trees"] if name == "forest.json" else
                 [m for m in data if m["kind"] == "decision_tree_gini"])
        tree = next(t for t in trees if min(t["feat"][:2]) >= 0)
        tree["feat"][node] = value
        n = len(tree["feat"])
        message %= {"n": n, "k": (n + 1) // 2, "m": n + 2}
        with open(path, "w") as fh:
            json.dump(_as_stored(data), fh)
        stderr = _select_exits_2(bundle_dir, tmp_path)
        assert "%s: " % path in stderr and message in stderr

    def test_empty_leaves_exit_2_under_lp(self, split_bundle, tmp_path):
        """Trees whose one leaf has no members would give the LP no
        samples; the load refuses them before any selection runs."""
        bundle_dir = str(tmp_path / "empty-leaves")
        shutil.copytree(split_bundle, bundle_dir)
        path = os.path.join(bundle_dir, "forest.json")
        with open(path) as fh:
            text = fh.read()
        with open(path, "w") as fh:
            fh.write(_emptied_leaves(text))
        stderr = _select_exits_2(bundle_dir, tmp_path, "--method", "lp")
        assert "%s: has 'leaf_ptr'" % path in stderr


def _without_key(bundle, tmp_path, *keys):
    """(path, stderr) of select on a copy of the bundle whose forest.json
    lacks the entry at the path of keys, after checking that it exits 2
    without a traceback."""
    bundle_dir = str(tmp_path / "truncated")
    shutil.copytree(bundle, bundle_dir)
    path = os.path.join(bundle_dir, "forest.json")
    with open(path) as fh:
        text = fh.read()
    with open(path, "w") as fh:
        fh.write(_without(text, *keys))
    return path, _select_exits_2(bundle_dir, tmp_path)


def _select_exits_2(bundle_dir, tmp_path, *args):
    """The stderr of select on two query rows in a subprocess, so that a
    hang fails the test, after checking that it exits 2 without a
    traceback."""
    query = tmp_path / "query.csv"
    query.write_text("x0,x1\n-2.0,0.1\n2.0,-0.2\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(cshc.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "cshc.cli", "select", "--model", bundle_dir,
         "--input", str(query), *args],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    return proc.stderr


# the dtype of every stored array by its key, the same in every object
# that holds one
_DTYPES = {key.rsplit(".", 1)[-1]: dtype for schema in bundle.SCHEMA.values()
           for key, (dtype, _) in schema.items()}


def _as_lists(node, key=None):
    """A loaded bundle file with every stored array decoded into nested
    lists."""
    if isinstance(node, dict):
        if key in _DTYPES and set(node) == {"shape", "data"}:
            return np.frombuffer(base64.b64decode(node["data"]),
                                 "<" + _DTYPES[key]).reshape(
                                     node["shape"]).tolist()
        return {k: _as_lists(v, k) for k, v in node.items()}
    if isinstance(node, list):
        return [_as_lists(v) for v in node]
    return node


def _as_stored(node, key=None):
    """The inverse of _as_lists: every list at an array's key stored as
    its shape and the base64 of its little-endian bytes."""
    if key in _DTYPES and isinstance(node, list):
        arr = np.asarray(node, "<" + _DTYPES[key])
        return {"shape": list(arr.shape),
                "data": base64.b64encode(arr.tobytes()).decode()}
    if isinstance(node, dict):
        return {k: _as_stored(v, k) for k, v in node.items()}
    if isinstance(node, list):
        return [_as_stored(v) for v in node]
    return node


def _edited(text, edit, keys):
    """JSON text with edit(parent, key) applied to the entry at the path
    of keys. A path through 'shape' or 'data' edits how an array is
    stored; any other path sees every array as nested lists, stored
    again after the edit."""
    raw = "shape" in keys or "data" in keys
    doc = json.loads(text) if raw else _as_lists(json.loads(text))
    node = doc
    for key in keys[:-1]:
        node = node[key]
    edit(node, keys[-1])
    return json.dumps(doc if raw else _as_stored(doc))


def _without(text, *keys):
    """JSON text with the entry at the path of keys removed."""
    return _edited(text, lambda node, key: node.pop(key), keys)


def _replaced(text, value, *keys):
    """JSON text with the entry at the path of keys set to value."""
    return _edited(text, lambda node, key: node.__setitem__(key, value), keys)


def _emptied_leaves(text):
    """forest.json text with every tree one leaf that has no members."""
    data = _as_lists(json.loads(text))
    for tree in data["trees"]:
        tree.update(feat=[-1], thr=[0.0])
    data.update(leaf_ptr=[0] * (len(data["trees"]) + 1), leaf_rows=[],
                leaf_mult=[])
    return json.dumps(_as_stored(data))


def _truncated(text, size, *keys):
    """JSON text with the list at the path of keys cut to its first size
    entries; no keys cut the top-level list."""
    if not keys:
        return json.dumps(json.loads(text)[:size])
    return _edited(text, lambda node, key: node.__setitem__(
        key, node[key][:size]), keys)


def _recoded(text, change, *keys):
    """JSON text with the bytes of the array stored at the path of keys
    replaced by change(bytes)."""
    return _edited(text, lambda node, key: node.__setitem__(
        key, base64.b64encode(change(base64.b64decode(node[key]))).decode()),
        keys + ("data",))


def _beyond_int64(raw):
    """The bytes of an int64 array widened to 16 bytes an entry, with
    10 ** 30 first: an integer beyond int64 in the bytes it needs."""
    values = [10 ** 30] + np.frombuffer(raw, "<i8")[1:].tolist()
    return b"".join(v.to_bytes(16, "little", signed=True) for v in values)


def _json_paths(node, path=()):
    """(path, value) of every entry of a loaded JSON document, the root
    included, except that of a list of numbers only the first and the
    last entry are visited."""
    yield path, node
    if isinstance(node, dict):
        children = list(node.items())
    elif isinstance(node, list):
        children = [(i, v) for i, v in enumerate(node)
                    if i in (0, len(node) - 1) or isinstance(v, (dict, list))]
    else:
        children = []
    for key, child in children:
        yield from _json_paths(child, path + (key,))


# mutation kind -> whether it applies to a value
_FUZZ_KINDS = {
    "drop": lambda v: isinstance(v, dict) and bool(v),
    "truncate": lambda v: isinstance(v, list) and bool(v),
    "swap": lambda v: True,
    "int": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "text": lambda v: isinstance(v, str) and bool(v),
}


def _set_path(doc, path, value):
    """doc with the entry at path replaced by value."""
    if not path:
        return value
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


def _fuzz_bundle(bundle, tmp):
    """A scratch copy of a trained bundle, its files' texts, the paths
    each mutation kind applies to, and a query file."""
    bundle_dir = str(tmp / "bundle")
    shutil.copytree(bundle, bundle_dir)
    texts, paths = {}, {}
    for name in ("forest.json", "models.json", "meta.json"):
        with open(os.path.join(bundle_dir, name)) as fh:
            texts[name] = fh.read()
        entries = list(_json_paths(json.loads(texts[name])))
        paths[name] = {kind: [p for p, v in entries if applies(v)]
                       for kind, applies in _FUZZ_KINDS.items()}
    query = tmp / "query.csv"
    query.write_text("x0,x1\n-2.0,0.1\n2.0,-0.2\n0.0,0.0\n")
    return bundle_dir, str(query), str(tmp / "sel.csv"), texts, paths


@pytest.fixture(scope="module")
def fuzz_bundle(trained_bundle, tmp_path_factory):
    return _fuzz_bundle(trained_bundle, tmp_path_factory.mktemp("fuzz"))


@pytest.fixture(scope="module")
def fuzz_split_bundle(split_bundle, tmp_path_factory):
    return _fuzz_bundle(split_bundle, tmp_path_factory.mktemp("fuzz-split"))


def _select_mutated(fuzz, data):
    """Apply one drawn mutation to one bundle file and run select; the
    file is restored afterwards. Returns (exit code, stderr)."""
    bundle_dir, query, out, texts, paths = fuzz
    name = data.draw(st.sampled_from(sorted(texts)), label="file")
    kind = data.draw(st.sampled_from(sorted(_FUZZ_KINDS)), label="kind")
    path = data.draw(st.sampled_from(paths[name][kind]), label="path")
    doc = json.loads(texts[name])
    node = doc
    for key in path:
        node = node[key]
    if kind == "drop":
        del node[data.draw(st.sampled_from(sorted(node)), label="key")]
    elif kind == "truncate":
        del node[data.draw(st.integers(0, len(node) - 1), label="size"):]
    elif kind == "text":
        # cut the text at, or change the character at, a drawn offset: a
        # stored array's data then fails to decode, holds too few bytes
        # for its shape or decodes to other values
        at = data.draw(st.integers(0, len(node) - 1), label="at")
        char = data.draw(st.sampled_from(["", "A", "/", "z", "="]),
                         label="char")
        doc = _set_path(doc, path, node[:at] + char + node[at + 1:]
                        if char else node[:at])
    else:
        doc = _set_path(doc, path, data.draw(st.sampled_from(
            ["x", {}, None] if kind == "swap" else [-1, 10 ** 30]),
            label="value"))
    target = os.path.join(bundle_dir, name)
    with open(target, "w") as fh:
        json.dump(doc, fh)
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err):
            rc = main(["select", "--model", bundle_dir, "--input", query,
                       "--output", out, "--method", "lpr"])
    finally:
        with open(target, "w") as fh:
            fh.write(texts[name])
    return rc, err.getvalue()


class TestBundleFuzz:
    """One mutation of one bundle file: select either works or exits 2
    with an error line; it never raises."""

    @settings(max_examples=200)
    @given(data=st.data())
    def test_mutated_bundle_selects_or_exits_2(self, fuzz_bundle, data):
        rc, err = _select_mutated(fuzz_bundle, data)
        assert rc == 0 or (rc == 2 and "error:" in err), (rc, err)

    @settings(max_examples=200)
    @given(data=st.data())
    def test_mutated_split_bundle_selects_or_exits_2(self, fuzz_split_bundle,
                                                     data):
        """The same over a bundle whose trees split, so that mutations
        reach internal nodes."""
        rc, err = _select_mutated(fuzz_split_bundle, data)
        assert rc == 0 or (rc == 2 and "error:" in err), (rc, err)


class TestTrainExternal:
    def test_external_pool_is_not_serializable(self, region_benchmark,
                                               tmp_path, capsys):
        data_path, ext_paths, _ = region_benchmark
        ini = tmp_path / "external.ini"
        ini.write_text("[classifiers]\npool =\n" + "".join(
            "external expert%d = %s\n" % (a, p)
            for a, p in enumerate(ext_paths)))
        bundle_dir = str(tmp_path / "bundle")
        assert main(["train", "--config", str(ini), "--data", data_path,
                     "--label", "label", "--out", bundle_dir]) == 2
        err = capsys.readouterr().err
        assert "external classifier 'expert0' is not serializable" in err
        assert not os.path.exists(bundle_dir)

    @pytest.fixture
    def wide_external(self, tmp_path):
        """A two-class dataset and a config whose external classifier
        'e' gives probabilities over three classes."""
        data = write_tiny_csv(tmp_path)
        preds = tmp_path / "p.csv"
        preds.write_text("sample_index,predicted_class,p0,p1,p2\n" + "".join(
            "%d,0,1.0,0.0,0.0\n" % i for i in range(240)))
        ini = tmp_path / "wide.ini"
        ini.write_text("[classifiers]\nexternal e = %s\n" % preds)
        return data, str(ini)

    message = "external classifier 'e' has 3 classes, dataset has 2"

    @pytest.mark.parametrize("protocol", ["split50", "cv3"])
    def test_class_count_mismatch_exits_2(self, wide_external, tmp_path,
                                          capsys, protocol):
        data, ini = wide_external
        assert main(["train", "--config", ini, "--data", data, "--label",
                     "label", "--protocol", protocol,
                     "--out", str(tmp_path / "bundle")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and self.message in err, err
        assert "Traceback" not in err

    def test_cv3_evaluate_reports_the_data_error(self, wide_external,
                                                 tmp_path, capsys):
        data, ini = wide_external
        assert main(["evaluate", "--config", ini, "--data", data, "--label",
                     "label", "--protocol", "cv3",
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert ("error: training 'e' failed on fold 0: " + self.message) \
            in err, err


class TestEvaluate:
    def test_writes_results_and_traces(self, tmp_path, capsys):
        data = write_tiny_csv(tmp_path)
        out = str(tmp_path / "out")
        assert main(["evaluate", "--data", data, "--label", "label",
                     "--out", out, "--seed", "3"]) == 0
        assert os.path.exists(os.path.join(out, "results.csv"))
        assert os.path.exists(os.path.join(out, "trace_tiny_lpr.csv"))
        assert os.path.exists(os.path.join(out, "runs.jsonl"))
        stdout = capsys.readouterr().out
        assert "oracle" in stdout

    def test_zero_accuracy_leaves_mgi_blank(self, tmp_path, capsys):
        """rr and mv label none of this dataset's test rows right; MGI, a
        ratio of accuracies, is undefined there and its cell is blank."""
        data = tmp_path / "zero.csv"
        data.write_text(
            "x0,x1,label\n-0.8,0.24,a\n-1.66,0.66,b\n1.14,-0.45,b\n"
            "0.43,0.25,b\n-0.39,-0.86,b\n-2.03,1.41,b\n-0.05,2.52,b\n"
            "0.83,0.28,b\n-0.66,1.39,a\n-0.51,1.57,b\n-0.4,0.19,b\n"
            "-1.52,2.34,a\n")
        out = tmp_path / "out"
        # ola's 7 neighbours exceed the 4 validation rows
        with pytest.warns(UserWarning, match="exceeds pool of 4 samples"):
            assert main(["evaluate", "--data", str(data), "--label", "label",
                         "--methods", "cshc,rr,mv,ola", "--reference", "mv",
                         "--out", str(out)]) == 0
        assert "  mv         0.000%" in capsys.readouterr().out
        results = (out / "results.csv").read_text().splitlines()
        assert results[results.index(
            "method,wins,losses,ties,mgi_pct,avg_rank,p_value") + 1:] == [
            "cshc,1,0,0,,3.5000,1.0000", "rr,0,0,1,,1.5000,1.0000",
            "mv,0,0,1,,1.5000,1.0000", "ola,1,0,0,,3.5000,1.0000",
            "oracle,1,0,0,,,"]
        assert sorted(os.listdir(out)) == [
            "results.csv", "runs.jsonl", "trace_zero_cshc.csv",
            "trace_zero_rr.csv"]
        # against ola (75%), only the rows of the 0% methods are blank
        ini = tmp_path / "zero.ini"
        ini.write_text("[experiment]\nmethods = cshc, rr, mv, ola\n"
                       "reference = ola\n[data]\nzero = %s\n" % data)
        with pytest.warns(UserWarning, match="exceeds pool of 4 samples"):
            assert main(["compare", "--config", str(ini),
                         "--out", str(tmp_path / "cmp")]) == 0
        table = capsys.readouterr().out.splitlines()[2:]
        assert [row[:40].split() for row in table] == [
            ["cshc", "0", "0", "1", "0.0000"], ["rr", "0", "1", "0"],
            ["mv", "0", "1", "0"], ["ola", "0", "0", "1", "0.0000"],
            ["oracle", "0", "0", "1", "0.0000"]]

    def test_methods_flag_splits_like_the_config(self, tmp_path, capsys):
        """--methods takes the config's rule: comma or whitespace
        separated."""
        data = write_tiny_csv(tmp_path)
        for i, methods in enumerate(["cshc rr", "cshc, rr", "cshc,rr"]):
            assert main(["evaluate", "--data", data, "--label", "label",
                         "--out", str(tmp_path / ("out%d" % i)),
                         "--methods", methods, "--reference", "rr"]) == 0
            lines = capsys.readouterr().out.splitlines()
            assert [line.split()[0] for line in lines[1:]] == ["cshc", "rr"]

    def test_k_zero_exits_2(self, tmp_path, capsys):
        data = write_tiny_csv(tmp_path)
        ini = tmp_path / "k0.ini"
        ini.write_text("[baselines]\nk = 0\n")
        out = tmp_path / "out"
        assert main(["evaluate", "--config", str(ini), "--data", data,
                     "--label", "label", "--out", str(out), "--methods", "mv",
                     "--reference", "mv"]) == 2
        assert "[baselines] k must be at least 1, got 0" in \
            capsys.readouterr().err
        assert not out.exists()


_COMMANDS = ("train", "evaluate", "compare")
# case name -> (INI text, error message), each run under every command
_MALFORMED_INI = {
    "misspelled-key": ("[cshc]\nn_tree = 3\n",
                       "unknown key 'n_tree' in [cshc]"),
    "misspelled-section": ("[lpp]\ngamma = 5\n", "unknown section [lpp]"),
    "bad-boolean": (
        "[baselines]\napr_distance_weighting = ture\n",
        "[baselines] apr_distance_weighting must be a boolean, got 'ture'"),
    "test-fraction-above-one": ("[experiment]\ntest_fraction = 1.5\n",
                                "test_fraction must be in (0, 1)"),
    "unknown-pool-kind": ("[classifiers]\npool = gausian_nb, one_nn\n",
                          "unknown classifier kind 'gausian_nb'"),
    "no-section-header": ("seed = 3\n", "File contains no section headers"),
    "duplicate-key": ("[cshc]\nn_trees = 5\nn_trees = 6\n",
                      "option 'n_trees' in section 'cshc' already exists"),
    "duplicate-section": ("[data]\nother = x.csv\n",
                          "section 'data' already exists"),
    "not-utf8": ("[experiment]\nlabel_column = \udcff\n",
                 "'utf-8' codec can't decode byte 0xff"),
    "default-section": ("[DEFAULT]\nx = 1\n", "unknown section [DEFAULT]"),
    "orphan-label": ("[data.labels]\nnope = klass\n",
                     "[data.labels] 'nope' names no [data] dataset"),
    "repeated-pool-kind": (
        "[classifiers]\npool = gaussian_nb, gaussian_nb, one_nn\n",
        "classifier name 'gaussian_nb' is used twice"),
    "external-named-like-a-kind": (
        "[classifiers]\npool = gaussian_nb, one_nn\n"
        "external one_nn = predictions.csv\n",
        "classifier name 'one_nn' is used twice"),
}


class TestConfigErrors:
    """A bad configuration exits 2 before any work on every command."""

    @pytest.mark.parametrize("command,ini,message", [
        ("train", "[experiment]\nprotocol = foo\n",
         "protocol must be split50 or cv3, got 'foo'"),
        ("train", "[experiment]\nmethods = cshc, nope\n",
         "unknown method 'nope'"),
        ("train", "[baselines]\nk = 0\n",
         "[baselines] k must be at least 1, got 0"),
        ("train", "[classifiers]\npool = gaussian_nb\n",
         "need at least 2 classifiers in the pool"),
        ("train", "[cshc]\nn_trees = 0\n", "n_trees must be >= 1"),
        ("evaluate", "[cshc]\nn_trees = 0\n", "n_trees must be >= 1"),
        ("compare", "[cshc]\nn_trees = 0\n", "n_trees must be >= 1"),
        ("train", "[cshc]\nn_trees = abc\n",
         "[cshc] n_trees must be an integer, got 'abc'"),
        ("evaluate", "[cshc]\nmin_improvement = lots\n",
         "[cshc] min_improvement must be a number, got 'lots'"),
        ("compare", "[cshc]\nn_trees = abc\n",
         "[cshc] n_trees must be an integer, got 'abc'"),
        ("train", "[cshc]\nmax_depth = 0\n", "max_depth must be >= 1"),
        ("evaluate", "[cshc]\nmin_cluster_size = 0\n",
         "min_cluster_size must be >= 1"),
        ("compare", "[cshc]\nbootstrap_fraction = 1.5\n",
         "bootstrap_fraction must be in (0, 1]"),
        ("train", "[cshc]\nmin_improvement = 1\n",
         "min_improvement must be in [0, 1)"),
        ("train", "[lp]\ngamma = nan\n",
         "[lp] gamma must be a finite number, got nan"),
        ("evaluate", "[selection]\nrho = inf\n",
         "[selection] rho must be a finite number, got inf"),
        ("compare", "[baselines]\nmcb_similarity = nan\n",
         "[baselines] mcb_similarity must be a finite number, got nan"),
        ("evaluate", "[lp]\ngamma = 1e20\n",
         "[lp] gamma must be below 1e+20, HiGHS's infinite bound, got "
         "1e+20"),
        ("train", "[lp]\ngamma = 1e21\n",
         "[lp] gamma must be below 1e+20, HiGHS's infinite bound, got "
         "1e+21"),
        ("compare", "[cshc]\nn_trees = 5999999999999999999999\n",
         "[cshc] n_trees must be at most 10000, got "
         "5999999999999999999999"),
        ("evaluate", "[cshc]\nn_trees = 10001\n",
         "[cshc] n_trees must be at most 10000, got 10001"),
    ] + [(command, ini, message) for command in _COMMANDS
         for ini, message in _MALFORMED_INI.values()],
        ids=["train-protocol", "train-method", "train-k-zero",
            "train-one-classifier", "train-no-trees", "evaluate-no-trees",
            "compare-no-trees", "train-trees-not-int",
            "evaluate-improvement-not-number", "compare-trees-not-int",
            "train-depth-zero", "evaluate-cluster-size-zero",
            "compare-bootstrap-above-one", "train-improvement-one",
            "train-gamma-nan", "evaluate-rho-inf",
            "compare-mcb-similarity-nan", "evaluate-gamma-at-bound",
            "train-gamma-above-bound", "compare-trees-huge",
            "evaluate-trees-above-bound"]
        + ["%s-%s" % (command, name) for command in _COMMANDS
           for name in _MALFORMED_INI])
    def test_bad_config_exits_2(self, tmp_path, capsys, command, ini,
                                message):
        data = write_tiny_csv(tmp_path)
        path = tmp_path / "bad.ini"
        # surrogateescape lets a case carry bytes that are not UTF-8
        path.write_bytes((ini + "[data]\ntiny = %s\n" % data).encode(
            "utf-8", "surrogateescape"))
        out = tmp_path / "out"
        args = [command, "--config", str(path), "--out", str(out)]
        if command != "compare":
            args += ["--data", data, "--label", "label"]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err, err
        assert "Traceback" not in err
        assert not out.exists()


class TestCompare:
    def _config_file(self, tmp_path, n=3):
        lines = ["[experiment]", "seed = 13", "label_column = label",
                 "methods = cshc, rr, lp, lpr, mv", "reference = lpr",
                 "[cshc]", "n_trees = 8", "[data]"]
        for i in range(n):
            path = write_tiny_csv(tmp_path, seed=20 + i)
            new = tmp_path / ("d%d.csv" % i)
            os.rename(path, new)
            lines.append("d%d = %s" % (i, new))
        cfg_path = tmp_path / "exp.ini"
        cfg_path.write_text("\n".join(lines) + "\n")
        return str(cfg_path)

    def test_sweep_three_datasets(self, tmp_path, capsys):
        cfg = self._config_file(tmp_path)
        out = str(tmp_path / "cmp")
        assert main(["compare", "--config", cfg, "--out", out]) == 0
        stdout = capsys.readouterr().out
        assert "reference=lpr" in stdout
        with open(os.path.join(out, "results.csv")) as fh:
            results = fh.read()
        assert results.count("d0") >= 1 and results.count("d2") >= 1

    def test_no_dataset_completed_prints_a_note(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("x0,x1,label\n1.0,oops,a\n2.0,3.0,b\n")
        cfg = tmp_path / "exp.ini"
        cfg.write_text("[data]\nbad = %s\n" % bad)
        out = tmp_path / "cmp"
        src = os.path.dirname(os.path.dirname(os.path.abspath(cshc.__file__)))
        proc = subprocess.run(
            [sys.executable, "-m", "cshc.cli", "compare", "--config",
             str(cfg), "--out", str(out)],
            capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=src), timeout=120)
        assert "Traceback" not in proc.stderr
        assert proc.returncode == 1, proc.stderr
        assert "warning: bad failed: DataError" in proc.stderr
        assert proc.stdout.splitlines()[-1] == \
            "note: no dataset completed every method"
        assert (out / "results.csv").exists() and (out / "runs.jsonl").exists()

    def test_failed_dataset_and_failed_cell_both_warn(self, tmp_path, capsys,
                                                      monkeypatch):
        bad = tmp_path / "bad.csv"
        bad.write_text("x0,x1,label\n1.0,oops,a\n2.0,3.0,b\n")
        good = write_tiny_csv(tmp_path)
        cfg = tmp_path / "exp.ini"
        cfg.write_text("[experiment]\nmethods = cshc, rr\nreference = cshc\n"
                       "[cshc]\nn_trees = 4\n"
                       "[data]\nbad = %s\ngood = %s\n" % (bad, good))
        real = harness.evaluate_method

        def failing(prep, method, cfg):
            if method == "rr":
                raise RuntimeError("boom")
            return real(prep, method, cfg)

        monkeypatch.setattr(harness, "evaluate_method", failing)
        assert main(["compare", "--config", str(cfg), "--out",
                     str(tmp_path / "cmp")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2, err
        assert err[0].startswith("warning: bad failed: DataError: ")
        assert err[1] == "warning: ('good', 'rr') failed: RuntimeError: boom"


class TestMalformedDataset:
    """A dataset CSV the reader refuses exits 2 with the reader's message
    on the single-dataset commands, as on train."""

    message = "row 2, column 'x1': non-numeric value 'oops'"

    @pytest.fixture
    def bad_csv(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x0,x1,label\n1.0,oops,a\n2.0,3.0,b\n")
        return str(path)

    def test_evaluate_exits_2(self, bad_csv, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["evaluate", "--data", bad_csv, "--label", "label",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count(self.message) == 1, err
        assert err.startswith("error: ") and len(err.splitlines()) == 1, err
        assert (out / "results.csv").exists() and (out / "runs.jsonl").exists()

    def test_export_viz_exits_2(self, bad_csv, tmp_path, capsys):
        assert main(["export-viz", "--data", bad_csv, "--label", "label",
                     "--out", str(tmp_path / "o"), "--method", "rr"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and self.message in err, err

    def test_train_exits_2(self, bad_csv, tmp_path, capsys):
        assert main(["train", "--data", bad_csv, "--label", "label",
                     "--out", str(tmp_path / "b")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and self.message in err, err

    def test_train_on_a_cell_beyond_the_csv_field_limit_exits_2(
            self, tmp_path, capsys):
        """csv refuses the 21-row file at its last row, whose label cell
        is longer than csv's field size limit: an error line names the
        file and the row."""
        path = tmp_path / "long.csv"
        path.write_text("x0,x1,label\n" + "".join(
            "%d.0,%d.5,%s\n" % (i, -i, "ab"[i % 2]) for i in range(20))
            + "1.0,2.0," + "a" * 140001 + "\n")
        assert main(["train", "--data", str(path), "--label", "label",
                     "--out", str(tmp_path / "b")]) == 2
        err = capsys.readouterr().err
        assert err == ("error: %s: row 22: field larger than field limit "
                       "(131072)\n" % path), err


class TestNulInPath:
    """A config path holding a NUL byte, which open refuses, is malformed
    input: exit 2 with an error line."""

    @pytest.mark.parametrize("command", ["evaluate", "train"])
    @pytest.mark.parametrize("section", ["data", "external"])
    def test_exits_2(self, tmp_path, capsys, command, section):
        data = write_tiny_csv(tmp_path)
        lines = ["[data]", "tiny = " + (data + "\x00" if section == "data"
                                        else data)]
        if section == "external":
            lines += ["[classifiers]", "external ext = preds\x00.csv"]
        ini = tmp_path / "nul.ini"
        ini.write_text("\n".join(lines) + "\n")
        assert main([command, "--config", str(ini), "--out",
                     str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1, err
        assert "cannot read: embedded null byte" in err


class TestForestOnFirstUse:
    """The forest is grown the first time something reads it: a selection
    method, or train's bundle. A spy on harness.build_forest counts the
    builds."""

    BASELINES = "ola,lca,apr,apo,mcb,knora_e,knora_u,mv"

    def builds(self, argv):
        with mock.patch.object(harness, "build_forest",
                               wraps=harness.build_forest) as spy:
            assert main(argv) == 0
        return spy.call_count

    @pytest.mark.parametrize("argv", [
        ["evaluate", "--methods", "mv", "--reference", "mv"],
        ["evaluate", "--methods", BASELINES, "--reference", "mv"],
        ["export-viz", "--method", "ola"]], ids=["mv", "baselines", "viz"])
    def test_baselines_grow_none(self, tmp_path, argv):
        data = write_tiny_csv(tmp_path)
        assert self.builds(argv + ["--data", data, "--label", "label",
                                   "--out", str(tmp_path / "out")]) == 0

    def test_one_per_dataset(self, tmp_path):
        paths = []
        for seed in (11, 12):
            (tmp_path / str(seed)).mkdir()
            paths.append(write_tiny_csv(tmp_path / str(seed), seed=seed))
        ini = tmp_path / "two.ini"
        ini.write_text("[data]\none = %s\ntwo = %s\n" % tuple(paths))
        assert self.builds(["compare", "--config", str(ini), "--out",
                            str(tmp_path / "cmp")]) == 2
        assert self.builds(["train", "--data", write_tiny_csv(tmp_path),
                            "--label", "label", "--out",
                            str(tmp_path / "bundle")]) == 1

    def test_baseline_columns_do_not_depend_on_the_forest(self, tmp_path):
        """Each baseline's accuracy, the static columns and the oracle are
        the same with and without the selection methods in the run."""
        data = write_tiny_csv(tmp_path, seed=12, centre=1.0, spread=1.0)
        rows = []
        for methods in (self.BASELINES, ",".join(ALL_METHODS)):
            out = tmp_path / ("out%d" % len(rows))
            assert main(["evaluate", "--data", data, "--label", "label",
                         "--methods", methods, "--reference", "mv",
                         "--out", str(out)]) == 0
            with open(out / "results.csv", newline="") as fh:
                rows.append(next(csv.DictReader(fh)))
        assert rows[1]["cshc"] and not rows[1]["errors"]
        del rows[1]["recourse_rate"], rows[0]["recourse_rate"]
        assert {k: rows[1][k] for k in rows[0]} == rows[0]


class TestExportViz:
    def test_writes_projection(self, tmp_path, capsys):
        data = write_tiny_csv(tmp_path)
        out_file = str(tmp_path / "viz.csv")
        assert main(["export-viz", "--data", data, "--label", "label",
                     "--out", str(tmp_path / "o"), "--method", "rr",
                     "--output", out_file]) == 0
        with open(out_file) as fh:
            lines = fh.read().strip().splitlines()
        assert lines[0].startswith("sample_index,pc1,pc2")
        assert len(lines) > 10

    def test_baseline_method(self, tmp_path, capsys):
        data = write_tiny_csv(tmp_path)
        out_file = str(tmp_path / "viz.csv")
        assert main(["export-viz", "--data", data, "--label", "label",
                     "--out", str(tmp_path / "o"), "--method", "ola",
                     "--output", out_file]) == 0
        with open(out_file) as fh:
            lines = fh.read().strip().splitlines()
        assert lines[0] == "sample_index,pc1,pc2,chosen_classifier,correct"
        assert len(lines) > 10
        assert {line.split(",")[3] for line in lines[1:]} <= {"0", "1", "2",
                                                               "3"}


class TestUnwritableOutput:
    """An output path that cannot be made or written, here one whose
    directory is an existing file, is a bad flag value: exit 2 with one
    error line naming the path."""

    @pytest.mark.parametrize("command", ["evaluate", "train", "export-viz",
                                         "select"])
    def test_exits_2(self, tmp_path, capsys, trained_bundle, command):
        data = write_tiny_csv(tmp_path)
        taken = tmp_path / "taken"
        taken.write_text("a file, not a directory\n")
        query = tmp_path / "query.csv"
        query.write_text("x0,x1\n-2.0,0.1\n2.0,-0.2\n")
        fit = ["--data", data, "--label", "label", "--seed", "5"]
        argv = {
            "evaluate": ["evaluate", *fit, "--methods", "cshc,mv",
                         "--reference", "cshc", "--out", str(taken)],
            "train": ["train", *fit, "--out", str(taken)],
            "export-viz": ["export-viz", *fit, "--method", "rr",
                           "--out", str(tmp_path / "o"),
                           "--output", str(taken / "v.csv")],
            "select": ["select", "--model", trained_bundle, "--input",
                       str(query), "--method", "cshc",
                       "--output", str(taken / "x.csv")],
        }[command]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: %s%s" % (taken, os.sep)), err
        assert len(err.splitlines()) == 1, err
        assert ": cannot write: " in err


class TestStatsImport:
    """Only the stat block's p-value imports scipy.special, and
    `paired_sign_ttest` reaches that import only with 2 or more decisive
    outcomes, which a sweep over one dataset never has."""

    def test_regions_evaluate_loads_only_the_highs_binding(
            self, region_benchmark, tmp_path):
        data, experts, _ = region_benchmark
        ini = tmp_path / "regions.ini"
        ini.write_text("[experiment]\ntest_fraction = %r\n\n[classifiers]\n"
                       "pool =\n%s" % (1.0 / 3.0, "".join(
                           "external expert%d = %s\n" % (a, p)
                           for a, p in enumerate(experts))))
        out = run_fresh("""
            import sys
            from cshc import cli
            assert cli.main(["evaluate", "--config", sys.argv[1], "--data",
                             sys.argv[2], "--label", "label", "--out",
                             sys.argv[3]]) == 0
            print(sorted(m for m in sys.modules
                         if m == "scipy" or m.startswith("scipy.")))
            """, str(ini), data, str(tmp_path / "out"))
        core = "scipy.optimize._highspy._core"
        assert out.split("\n")[-2] == str(
            [core, core + ".cb", core + ".simplex_constants"]), out

    def test_compare_over_two_datasets_imports_scipy_special(self, tmp_path):
        # overlapping clusters, where rr beats mv on one dataset and loses
        # on the other: the one spread of outcomes that needs the t tail
        lines = ["[experiment]", "seed = 13", "methods = cshc, rr, mv",
                 "reference = mv", "[cshc]", "n_trees = 8", "[data]"]
        for i in range(2):
            (tmp_path / str(i)).mkdir()
            lines.append("d%d = %s" % (i, write_tiny_csv(
                tmp_path / str(i), seed=24 + i, centre=1.0, spread=1.0)))
        ini = tmp_path / "exp.ini"
        ini.write_text("\n".join(lines) + "\n")
        out = run_fresh("""
            import sys
            from cshc import cli
            assert cli.main(["compare", "--config", sys.argv[1], "--out",
                             sys.argv[2]]) == 0
            print("scipy.special" in sys.modules)
            """, str(ini), str(tmp_path / "cmp"))
        assert out.split("\n")[3].split()[:4] == ["rr", "1", "1", "0"], out
        assert out.split("\n")[-2] == "True", out
