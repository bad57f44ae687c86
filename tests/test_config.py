"""INI configuration parsing."""

import pytest

from cshc.config import DEFAULT_METHODS, load_config
from cshc.data import DataError


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
