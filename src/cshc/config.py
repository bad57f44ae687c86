"""Experiment configuration: INI file with sections, CLI flags override.

Defaults pin the fixed hyperparameters used for every benchmark:
50 trees over 80% bootstrap multisets, feature subsets of 2*sqrt(F),
clusters of at least 2 samples, depth at most 15, 2% minimum relative
improvement, LP margin gamma=80, recourse threshold rho=0.5,
7-neighbor regions and 0.7 output-profile similarity.
"""

import configparser
import hashlib
import json
from dataclasses import dataclass, field

from .classifiers import ClassifierSpec
from .data import DataError, require_finite

ALL_METHODS = ("cshc", "rr", "lp", "lpr", "ola", "lca", "apr", "apo",
               "mcb", "knora_e", "knora_u", "mv")
# apo and knora_e exist but stay out of headline comparisons by default
DEFAULT_METHODS = ("cshc", "rr", "lp", "lpr", "ola", "lca", "apr",
                   "mcb", "knora_u", "mv")
DEFAULT_POOL = ("gaussian_nb", "one_nn", "decision_tree_gini", "perceptron")


@dataclass
class ExperimentConfig:
    datasets: list = field(default_factory=list)  # (name, path, label_column)
    protocol: str = "split50"
    test_fraction: float = 0.33
    seed: int = 7
    label_column: str = "label"
    pool: list = field(default_factory=lambda: list(DEFAULT_POOL))
    external: list = field(default_factory=list)  # (name, path)
    methods: list = field(default_factory=lambda: list(DEFAULT_METHODS))
    reference: str = "lpr"
    n_trees: int = 50
    bootstrap_fraction: float = 0.8
    min_cluster_size: int = 2
    max_depth: int = 15
    min_improvement: float = 0.02
    gamma: float = 80.0
    rho: float = 0.5
    knn_k: int = 7
    mcb_similarity: float = 0.7
    apr_distance_weighting: bool = False
    outdir: str = "out"

    def validate(self):
        if self.protocol not in ("split50", "cv3"):
            raise DataError("protocol must be split50 or cv3, got %r" % self.protocol)
        for m in self.methods:
            if m not in ALL_METHODS:
                raise DataError("unknown method %r (known: %s)"
                                % (m, ", ".join(ALL_METHODS)))
        if self.reference not in self.methods:
            raise DataError("reference method %r not in method list" % self.reference)
        if not (len(self.pool) + len(self.external)) >= 2:
            raise DataError("need at least 2 classifiers in the pool")
        if self.knn_k < 1:
            raise DataError("[baselines] k must be at least 1, got %d"
                            % self.knn_k)
        if self.n_trees < 1:
            raise DataError("n_trees must be >= 1")
        if not 0.0 < self.bootstrap_fraction <= 1.0:
            raise DataError("bootstrap_fraction must be in (0, 1]")
        if self.min_cluster_size < 1:
            raise DataError("min_cluster_size must be >= 1")
        if self.max_depth < 1:
            raise DataError("max_depth must be >= 1")
        if not 0.0 <= self.min_improvement < 1.0:
            raise DataError("min_improvement must be in [0, 1)")
        require_finite(self.gamma, "[lp] gamma")
        require_finite(self.rho, "[selection] rho")
        require_finite(self.mcb_similarity, "[baselines] mcb_similarity")
        return self

    def classifier_specs(self):
        specs = [ClassifierSpec(kind) for kind in self.pool]
        for name, path in self.external:
            specs.append(ClassifierSpec("external", name=name,
                                        hyperparams={"path": path}))
        return specs

    def asdict(self):
        d = dict(self.__dict__)
        d["datasets"] = [list(t) for t in self.datasets]
        d["external"] = [list(t) for t in self.external]
        return d

    def content_hash(self):
        payload = self.asdict()
        payload.pop("outdir", None)  # where results land is not what ran
        return hashlib.sha256(
            json.dumps(payload, sort_keys=True).encode()
        ).hexdigest()[:16]


def _split_list(raw):
    return [t.strip() for t in raw.replace(",", " ").split() if t.strip()]


def load_config(path=None):
    """Parse an INI experiment file into an ExperimentConfig."""
    cfg = ExperimentConfig()
    if path is None:
        return cfg
    parser = configparser.ConfigParser()
    parser.optionxform = str  # keep case in dataset names and paths
    read = parser.read(path)
    if not read:
        raise DataError("config file %r not found or unreadable" % path)

    def get(section, key, cast, current):
        if parser.has_option(section, key):
            raw = parser.get(section, key)
            if cast is bool:
                return raw.strip().lower() in ("1", "true", "yes", "on")
            try:
                return cast(raw)
            except ValueError:
                raise DataError("[%s] %s must be %s, got %r" % (
                    section, key, "an integer" if cast is int else "a number",
                    raw)) from None
        return current

    cfg.protocol = get("experiment", "protocol", str, cfg.protocol)
    cfg.test_fraction = get("experiment", "test_fraction", float, cfg.test_fraction)
    cfg.seed = get("experiment", "seed", int, cfg.seed)
    cfg.label_column = get("experiment", "label_column", str, cfg.label_column)
    cfg.reference = get("experiment", "reference", str, cfg.reference)
    cfg.outdir = get("experiment", "outdir", str, cfg.outdir)
    if parser.has_option("experiment", "methods"):
        cfg.methods = _split_list(parser.get("experiment", "methods"))

    if parser.has_section("data"):
        labels = dict(parser.items("data.labels")) if parser.has_section("data.labels") else {}
        cfg.datasets = [(name, p, labels.get(name, cfg.label_column))
                        for name, p in parser.items("data")]

    if parser.has_option("classifiers", "pool"):
        cfg.pool = _split_list(parser.get("classifiers", "pool"))
    if parser.has_section("classifiers"):
        for key, value in parser.items("classifiers"):
            if key.startswith("external "):
                cfg.external.append((key.split(None, 1)[1], value))

    cfg.n_trees = get("cshc", "n_trees", int, cfg.n_trees)
    cfg.bootstrap_fraction = get("cshc", "bootstrap_fraction", float,
                                 cfg.bootstrap_fraction)
    cfg.min_cluster_size = get("cshc", "min_cluster_size", int, cfg.min_cluster_size)
    cfg.max_depth = get("cshc", "max_depth", int, cfg.max_depth)
    cfg.min_improvement = get("cshc", "min_improvement", float, cfg.min_improvement)
    cfg.gamma = get("lp", "gamma", float, cfg.gamma)
    cfg.rho = get("selection", "rho", float, cfg.rho)
    cfg.knn_k = get("baselines", "k", int, cfg.knn_k)
    cfg.mcb_similarity = get("baselines", "mcb_similarity", float, cfg.mcb_similarity)
    cfg.apr_distance_weighting = get("baselines", "apr_distance_weighting", bool,
                                     cfg.apr_distance_weighting)
    return cfg
