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
from .data import DataError, require_finite, require_gamma

ALL_METHODS = ("cshc", "rr", "lp", "lpr", "ola", "lca", "apr", "apo",
               "mcb", "knora_e", "knora_u", "mv")
# apo and knora_e exist but stay out of headline comparisons by default
DEFAULT_METHODS = ("cshc", "rr", "lp", "lpr", "ola", "lca", "apr",
                   "mcb", "knora_u", "mv")
DEFAULT_POOL = ("gaussian_nb", "one_nn", "decision_tree_gini", "perceptron")
# a run grows every one of n_trees trees, so a huge count never ends
MAX_TREES = 10000


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
        if not 0.0 < self.test_fraction < 1.0:
            raise DataError("test_fraction must be in (0, 1)")
        for m in self.methods:
            if m not in ALL_METHODS:
                raise DataError("unknown method %r (known: %s)"
                                % (m, ", ".join(ALL_METHODS)))
        if self.reference not in self.methods:
            raise DataError("reference method %r not in method list" % self.reference)
        for kind in self.pool:
            ClassifierSpec(kind)  # an unknown kind is a DataError
        names = list(self.pool) + [name for name, _ in self.external]
        for i, name in enumerate(names):
            if name in names[:i]:
                raise DataError("classifier name %r is used twice; pool kinds "
                                "and external names must differ" % name)
        if len(names) < 2:
            raise DataError("need at least 2 classifiers in the pool")
        if self.knn_k < 1:
            raise DataError("[baselines] k must be at least 1, got %d"
                            % self.knn_k)
        if self.n_trees < 1:
            raise DataError("n_trees must be >= 1")
        if self.n_trees > MAX_TREES:
            raise DataError("[cshc] n_trees must be at most %d, got %d"
                            % (MAX_TREES, self.n_trees))
        if not 0.0 < self.bootstrap_fraction <= 1.0:
            raise DataError("bootstrap_fraction must be in (0, 1]")
        if self.min_cluster_size < 1:
            raise DataError("min_cluster_size must be >= 1")
        if self.max_depth < 1:
            raise DataError("max_depth must be >= 1")
        if not 0.0 <= self.min_improvement < 1.0:
            raise DataError("min_improvement must be in [0, 1)")
        require_gamma(self.gamma, "[lp] gamma")
        require_finite(self.rho, "[selection] rho")
        require_finite(self.mcb_similarity, "[baselines] mcb_similarity")
        return self

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


# INI section -> its keys. Each key sets the ExperimentConfig field of its
# own name ([baselines] k sets knn_k), cast to that field's type. [data] and
# [data.labels] take free dataset names, and [classifiers] also takes
# "external <name> = predictions.csv" keys.
SCHEMA = {
    "experiment": ("protocol", "test_fraction", "seed", "label_column",
                   "methods", "reference", "outdir"),
    "data": (), "data.labels": (),
    "classifiers": ("pool",),
    "cshc": ("n_trees", "bootstrap_fraction", "min_cluster_size",
             "max_depth", "min_improvement"),
    "lp": ("gamma",),
    "selection": ("rho",),
    "baselines": ("k", "mcb_similarity", "apr_distance_weighting"),
}
_EXPECTED = {int: "an integer", float: "a number", bool: "a boolean"}


def split_list(raw):
    """The names in a list value or --methods, comma or space separated."""
    return raw.replace(",", " ").split()


def load_config(path=None):
    """Parse an INI experiment file into an ExperimentConfig. An unknown
    section or key, or a file configparser cannot read, is a DataError."""
    cfg = ExperimentConfig()
    if path is None:
        return cfg
    # no file can name a section "", so [DEFAULT] is an unknown section
    # instead of defaults that leak into every other one
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    parser.optionxform = str  # keep case in dataset names and paths
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError:
        raise DataError("config file %r not found or unreadable" % path) from None
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise DataError("config file %r: %s" % (path, exc)) from None
    for section in parser.sections():
        if section not in SCHEMA:
            raise DataError("unknown section [%s] (known: %s)"
                            % (section, ", ".join(SCHEMA)))
        for key, raw in parser.items(section) if SCHEMA[section] else ():
            name = "knn_k" if key == "k" else key
            kind = type(getattr(cfg, name, None))
            if section == "classifiers" and key.startswith("external "):
                cfg.external.append((key.split(None, 1)[1], raw))
            elif key not in SCHEMA[section]:
                raise DataError("unknown key %r in [%s] (known: %s)"
                                % (key, section, ", ".join(SCHEMA[section])))
            else:
                try:
                    setattr(cfg, name, parser.getboolean(section, key)
                            if kind is bool else split_list(raw)
                            if kind is list else kind(raw))
                except ValueError:
                    raise DataError("[%s] %s must be %s, got %r" % (
                        section, key, _EXPECTED[kind], raw)) from None
    data, labels = (dict(parser.items(s)) if parser.has_section(s) else {}
                    for s in ("data", "data.labels"))
    for name in sorted(labels.keys() - data.keys()):
        raise DataError("[data.labels] %r names no [data] dataset" % name)
    cfg.datasets = [(name, p, labels.get(name, cfg.label_column))
                    for name, p in data.items()]
    return cfg
