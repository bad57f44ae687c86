"""INI configuration parsing."""

import configparser
import dataclasses
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cshc.config import (DEFAULT_METHODS, SCHEMA, ExperimentConfig,
                         load_config)
from cshc.data import DataError

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
EXAMPLE = os.path.join(ROOT, "config.example.ini")


def test_defaults_without_file():
    cfg = load_config(None)
    assert cfg.n_trees == 50
    assert cfg.bootstrap_fraction == 0.8
    assert cfg.min_cluster_size == 2
    assert cfg.max_depth == 15
    assert cfg.min_improvement == 0.02
    assert cfg.gamma == 80.0
    assert cfg.rho == 0.5
    assert cfg.knn_k == 7
    assert cfg.mcb_similarity == 0.7
    assert list(cfg.methods) == list(DEFAULT_METHODS)


def test_full_file(tmp_path):
    ini = tmp_path / "e.ini"
    ini.write_text(
        "[experiment]\n"
        "protocol = cv3\n"
        "seed = 42\n"
        "methods = cshc, lpr\n"
        "reference = lpr\n"
        "[data]\n"
        "First = a.csv\n"
        "second = b.csv\n"
        "[data.labels]\n"
        "second = klass\n"
        "[classifiers]\n"
        "pool = gaussian_nb, one_nn\n"
        "external svc = preds.csv\n"
        "[cshc]\n"
        "n_trees = 5\n"
        "[lp]\n"
        "gamma = 60\n"
        "[selection]\n"
        "rho = 0.25\n"
        "[baselines]\n"
        "k = 3\n"
        "apr_distance_weighting = true\n")
    cfg = load_config(str(ini))
    assert cfg.protocol == "cv3"
    assert cfg.seed == 42
    assert cfg.datasets == [("First", "a.csv", "label"),
                            ("second", "b.csv", "klass")]
    assert cfg.pool == ["gaussian_nb", "one_nn"]
    assert cfg.external == [("svc", "preds.csv")]
    assert cfg.n_trees == 5
    assert cfg.gamma == 60.0
    assert cfg.rho == 0.25
    assert cfg.knn_k == 3
    assert cfg.apr_distance_weighting is True
    cfg.validate()


def test_missing_file():
    with pytest.raises(DataError, match="not found"):
        load_config("/nonexistent/exp.ini")


def test_validate_rejects_unknown_method():
    cfg = load_config(None)
    cfg.methods = ["cshc", "nonsense"]
    with pytest.raises(DataError, match="unknown method"):
        cfg.validate()


@pytest.mark.parametrize("k", [0, -3])
def test_validate_rejects_k_below_one(k):
    cfg = load_config(None)
    cfg.knn_k = k
    with pytest.raises(DataError, match=r"\[baselines\] k must be at least 1"):
        cfg.validate()


def test_config_hash_ignores_outdir():
    a = load_config(None)
    b = load_config(None)
    b.outdir = "elsewhere"
    assert a.content_hash() == b.content_hash()
    b.seed = 123
    assert a.content_hash() != b.content_hash()


def test_percent_is_literal(tmp_path):
    ini = tmp_path / "e.ini"
    ini.write_text("[experiment]\noutdir = runs/100%\n")
    assert load_config(str(ini)).outdir == "runs/100%"


def _named_keys(path):
    """(section, key) of every key an INI file sets."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.read(path, encoding="utf-8")
    return {(s, k) for s in parser.sections() for k in parser[s]}


def test_documented_configs_are_the_defaults(tmp_path):
    """The README's INI block and config.example.ini load, hold every
    default but the datasets, and together name every key of the schema."""
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        block = fh.read().split("```ini\n", 1)[1].split("```", 1)[0]
    (tmp_path / "readme.ini").write_text(block)
    named = set()
    for path in (str(tmp_path / "readme.ini"), EXAMPLE):
        cfg = load_config(path).validate()
        for f in dataclasses.fields(ExperimentConfig):
            if f.name != "datasets":
                assert getattr(cfg, f.name) == getattr(
                    ExperimentConfig(), f.name), (path, f.name)
        named |= _named_keys(path)
    assert {(s, k) for s, keys in SCHEMA.items() for k in keys} <= named


@pytest.fixture(scope="module")
def example(tmp_path_factory):
    """The lines of config.example.ini and a path for a mutated copy."""
    with open(EXAMPLE, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    return lines, str(tmp_path_factory.mktemp("ini") / "example.ini")


class TestConfigFuzz:
    """One mutation of config.example.ini: loading and validating either
    works or raises DataError; a misspelled name always raises."""

    @settings(max_examples=300)
    @given(data=st.data())
    def test_mutated_example_loads_or_raises_data_error(self, example, data):
        lines, copy = list(example[0]), example[1]
        headers = [i for i, line in enumerate(lines) if line.startswith("[")]
        keys = [i for i, line in enumerate(lines)
                if " = " in line and not line.startswith(";")]
        kind = data.draw(st.sampled_from(
            ["drop-header", "misspell", "duplicate", "value"]), label="kind")
        if kind == "drop-header":
            del lines[data.draw(st.sampled_from(headers), label="line")]
        elif kind == "duplicate":
            i = data.draw(st.integers(0, len(lines) - 1), label="line")
            lines.insert(i, lines[i])
        else:
            i = data.draw(st.sampled_from(headers + keys
                                          if kind == "misspell" else keys),
                          label="line")
            name = lines[i].strip("[]").split(" = ")[0]
            if kind == "misspell":
                at = data.draw(st.integers(0, len(name)), label="at")
                lines[i] = lines[i].replace(
                    name, name[:at] + "x" + name[at:], 1)
            else:
                lines[i] = name + " = " + data.draw(st.sampled_from(
                    ["text", "nan", "-1", "1e30"]), label="value")
        with open(copy, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        try:
            load_config(copy).validate()
        except DataError:
            return
        assert kind != "misspell", lines
