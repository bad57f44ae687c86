"""Command-line round trips over temporary datasets."""

import json
import os
import shutil

import pytest

from cshc.cli import main
from test_harness import tiny_experiment_config


def write_tiny_csv(tmp_path, name="tiny.csv", rows=240, seed=11):
    cfg = tiny_experiment_config(tmp_path, rows=rows, seed=seed)
    return cfg.datasets[0][1]


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


class TestSelectInput:
    @pytest.mark.parametrize("text,message", [
        ("x0,x1\n1.0,nan\n", "row 2, column 'x1': non-numeric value 'nan'"),
        ("x0,x1\ninf,0.5\n", "row 2, column 'x0': non-numeric value 'inf'"),
        ("x0,x1\n1.0,2.0\n3.0\n", "row 3 has 1 cells, expected 2"),
        ("x0,x1\n1.0,abc\n", "row 2, column 'x1': non-numeric value 'abc'"),
        ("x0,x1\n", "no data rows"),
    ], ids=["nan", "inf", "ragged", "non-numeric", "header-only"])
    def test_malformed_rows_exit_2(self, trained_bundle, tmp_path, capsys,
                                   text, message):
        bad = tmp_path / "rows.csv"
        bad.write_text(text)
        out = tmp_path / "sel.csv"
        assert main(["select", "--model", trained_bundle, "--input", str(bad),
                     "--output", str(out), "--method", "cshc"]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

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

    def test_tree_missing_field_exits_2(self, trained_bundle, tmp_path,
                                        capsys):
        bundle_dir = str(tmp_path / "truncated")
        shutil.copytree(trained_bundle, bundle_dir)
        path = os.path.join(bundle_dir, "forest.json")
        with open(path) as fh:
            data = json.load(fh)
        del data["trees"][1]["leaf_ptr"]
        with open(path, "w") as fh:
            json.dump(data, fh)
        query = tmp_path / "query.csv"
        query.write_text("x0,x1\n-2.0,0.1\n")
        assert main(["select", "--model", bundle_dir, "--input",
                     str(query)]) == 2
        assert "forest tree 1 lacks field 'leaf_ptr'" in capsys.readouterr().err


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
        results = open(os.path.join(out, "results.csv")).read()
        assert results.count("d0") >= 1 and results.count("d2") >= 1


class TestExportViz:
    def test_writes_projection(self, tmp_path, capsys):
        data = write_tiny_csv(tmp_path)
        out_file = str(tmp_path / "viz.csv")
        assert main(["export-viz", "--data", data, "--label", "label",
                     "--out", str(tmp_path / "o"), "--method", "rr",
                     "--output", out_file]) == 0
        lines = open(out_file).read().strip().splitlines()
        assert lines[0].startswith("sample_index,pc1,pc2")
        assert len(lines) > 10
