"""The model bundle that `cshc train` writes and `cshc select` reads: in
one directory, meta.json (the dataset's names, the settings `select`
reads and the validation rows), models.json (each classifier's kind,
name and state) and forest.json (the trees and one table of their
leaves). SCHEMA gives every stored array its dtype and shape, and one
reader, `_arrays`, checks them all.

An array is stored as {"shape": its sizes, "data": base64 text of its
dtype's little-endian bytes in C order}, which JSON decodes and numpy
reads back without parsing a number per entry."""

import binascii
import json
import math
import os

import numpy as np

from . import kernels
from .classifiers import CLASSIFIERS, ClassifierSpec
from .data import (CorrectnessMatrix, DataError, load_json, require_finite,
                   require_gamma, require_int)
from .forest import Forest, Tree

BUNDLE_FORMAT = "cshc-bundle/6"
FOREST_FORMAT = "cshc-forest/6"

# what a shape letter counts; within one object, every array naming a
# letter has the same size along it
LETTERS = {"C": "classes", "F": "features", "B": "columns (F + 1)",
           "M": "validation rows", "A": "classifiers", "S": "training rows",
           "N": "nodes", "L": "leaves", "P": "leaf offsets",
           "R": "leaf members"}

# every stored array, by the object that holds it: key -> (numpy dtype,
# shape letters); a dotted key is a path into the object, and a
# classifier kind's entry is its STATE
SCHEMA = {
    "meta": {"validation.predicted": ("i8", "MA"),
             "validation.truth": ("i8", "M")},
    "forest": {"leaf_ptr": ("i8", "P"), "leaf_rows": ("i8", "R"),
               "leaf_mult": ("f8", "R")},
    "tree": {"feat": ("i8", "N"), "thr": ("f8", "N")},
    **{kind: cls.STATE for kind, cls in CLASSIFIERS.items() if cls.STATE},
}

# the settings meta.json's config keeps, the ones `select` reads, and the
# check each must pass on load
CONFIG = (("gamma", require_gamma), ("rho", require_finite),
          ("seed", require_int))


def save_bundle(prep, cfg, outdir):
    """Write the bundle of a PreparedDataset into outdir; a model that
    cannot be serialized fails the call before any file is written."""
    write_models(outdir, prep.models)
    write_forest(outdir, prep.forest)
    _dump(outdir, "meta.json", {
        "format": BUNDLE_FORMAT,
        "dataset": {"name": prep.name,
                    "feature_names": prep.ds.feature_names,
                    "class_names": prep.ds.class_names},
        "config": {key: getattr(cfg, key) for key, _ in CONFIG},
        "validation": {key: _encoded(getattr(prep.cm, key),
                                     SCHEMA["meta"]["validation." + key][0])
                       for key in ("predicted", "truth")},
    })


def write_models(outdir, models):
    for m in models:
        if m.spec.kind not in SCHEMA:
            raise DataError("%s classifier %r is not serializable"
                            % (m.spec.kind, m.spec.name))
    _dump(outdir, "models.json", [
        {"kind": m.spec.kind, "name": m.spec.name, **_state(m, m.spec.kind)}
        for m in models])


def write_forest(outdir, forest):
    _dump(outdir, "forest.json", {
        "format": FOREST_FORMAT,
        "trees": [_state(tree, "tree") for tree in forest.trees],
        **_state(forest, "forest")})


def _state(obj, kind):
    return {key: _encoded(getattr(obj, key), dtype)
            for key, (dtype, _) in SCHEMA[kind].items()}


def _encoded(arr, dtype):
    arr = np.ascontiguousarray(arr, "<" + dtype)
    return {"shape": list(arr.shape), "data": binascii.b2a_base64(
        arr, newline=False).decode("ascii")}


def _dump(outdir, name, data):
    # json.dump writes entry by entry and holds no copy of the whole text
    os.makedirs(outdir, exist_ok=True)
    with open(os.path.join(outdir, name), "w") as fh:
        json.dump(data, fh)


def load_bundle(outdir):
    """(meta, models, forest) of a bundle that train wrote; forest.cm
    holds the validation rows. The class and feature counts come from
    the names, the row and classifier counts from the validation
    predictions, and the other two files are checked against them."""
    meta, cm, F = _load(outdir, "meta.json", _meta)
    models = read_models(outdir, cm.n_classifiers, cm.n_classes, F)
    return meta, models, read_forest(outdir, cm, F)


def read_models(outdir, n, n_classes, n_features):
    return _load(outdir, "models.json", _objects, n, "classifier", _model,
                 n_classes, n_features)


def read_forest(outdir, cm, n_features):
    return _load(outdir, "forest.json", _forest, cm, n_features)


def _load(outdir, name, parse, *args):
    """parse(the JSON of file name in outdir, *args); a DataError names
    the file."""
    path = os.path.join(outdir, name)
    data = load_json(path)
    try:
        return parse(data, *args)
    except DataError as exc:
        raise DataError("%s: %s" % (path, exc)) from None


def _entry(obj, key):
    """The entry of obj at the dotted path key."""
    for part in key.split("."):
        if not isinstance(obj, dict) or part not in obj:
            raise DataError("missing key %r" % key)
        obj = obj[part]
    return obj


def _arrays(obj, schema, sizes, log=()):
    """{key: array} of the entries of obj that schema names, each of its
    dtype and shape letters, binding each letter sizes does not hold yet
    to the size found. A float array must be finite, or hold -inf where
    its key is in log."""
    out = {}
    for key, (dtype, shape) in schema.items():
        arr = _decoded(_entry(obj, key), repr(key), dtype, len(shape))
        for d, n in zip(shape, arr.shape):
            if sizes.setdefault(d, n) != n:
                raise DataError("%r is not an array of shape (%s) with %s" % (
                    key, ", ".join(shape), " and ".join(
                        "%s = %d %s" % (e, sizes[e], LETTERS[e])
                        for e in shape if e in sizes)))
        if dtype == "f8" and not np.isfinite(arr).all() and not (
                key in log and (np.isfinite(arr) | (arr == -np.inf)).all()):
            raise DataError("%r holds a value that is not a finite number"
                            % key)
        out[key] = arr
    return out


def _decoded(value, name, dtype, ndim):
    """The ndim-D array of dtype that an entry stores; a DataError naming
    it when the entry is not such an object, its data is not base64 text
    or the bytes it decodes to do not fill its shape."""
    if not (isinstance(value, dict) and "shape" in value and "data" in value):
        raise DataError("%s is not an object with 'shape' and 'data'" % name)
    shape, text = value["shape"], value["data"]
    if not (isinstance(shape, list) and len(shape) == ndim
            and all(type(n) is int and n >= 0 for n in shape)):
        raise DataError("%s has a 'shape' other than a list of %d whole "
                        "numbers >= 0" % (name, ndim))
    try:
        raw = binascii.a2b_base64(text)
    except (TypeError, ValueError):
        raw = None
    # the decoder skips what is not base64 and stops at padding; text
    # longer than the encoding of what it gave held more than base64
    if raw is None or len(text) != 4 * -(-len(raw) // 3):
        raise DataError("%s has 'data' that is not base64 text" % name)
    if len(raw) != 8 * math.prod(shape):
        raise DataError("%s has 'data' of %d bytes, not 8 for each of the "
                        "%d entries of its 'shape'"
                        % (name, len(raw), math.prod(shape)))
    return np.frombuffer(raw, "<" + dtype).reshape(shape)


def _objects(data, n, what, parse, *args):
    """[parse(item, *args)] of the list data of n objects; a DataError
    names the item."""
    if not (isinstance(data, list) and len(data) == n):
        raise DataError("expected a list of %d %s objects" % (n, what))
    out = []
    for i, item in enumerate(data):
        try:
            if not isinstance(item, dict):
                raise DataError("is not an object")
            out.append(parse(item, *args))
        except DataError as exc:
            raise DataError("%s %d: %s" % (what, i, exc)) from None
    return out


def _format(data, what, want):
    fmt = data.get("format") if isinstance(data, dict) else None
    if fmt != want:
        raise DataError("unsupported %s format %r; this program reads %r"
                        % (what, fmt, want))


def _meta(meta):
    _format(meta, "bundle", BUNDLE_FORMAT)
    names = [_entry(meta, "dataset." + key)
             for key in ("feature_names", "class_names")]
    if not (all(isinstance(v, list) and all(isinstance(x, str) for x in v)
                for v in names) and names[0] and len(names[1]) >= 2):
        raise DataError("'dataset.feature_names' and 'dataset.class_names' "
                        "are not lists of names, at least one feature and two "
                        "classes")
    F, C = map(len, names)
    arrays = _arrays(meta, SCHEMA["meta"], {})
    for key, arr in arrays.items():
        if not (arr.size and ((arr >= 0) & (arr < C)).all()):
            raise DataError("%r is not a non-empty array of classes in "
                            "[0, %d)" % (key, C))
    for key, check in CONFIG:
        check(_entry(meta, "config." + key), "'config.%s'" % key)
    return meta, CorrectnessMatrix(arrays["validation.predicted"],
                                   arrays["validation.truth"], C), F


def _model(state, n_classes, n_features):
    kind, name = _entry(state, "kind"), _entry(state, "name")
    cls = CLASSIFIERS.get(kind) if isinstance(kind, str) else None
    if cls is None or kind not in SCHEMA:
        raise DataError("cannot restore classifier kind %r" % kind)
    if not isinstance(name, str):
        raise DataError("'name' is not a string")
    sizes = {"C": n_classes, "F": n_features, "B": n_features + 1}
    model = cls(ClassifierSpec(kind, name), n_classes, n_features,
                **_arrays(state, SCHEMA[kind], sizes, cls.LOG_STATE))
    model.check_state()
    return model


def _forest(data, cm, n_features):
    """A forest whose leaf table holds its trees' leaves in order, each a
    member or more, and each tree's leaves one bootstrap draw."""
    _format(data, "forest", FOREST_FORMAT)
    trees = data.get("trees")
    if not (isinstance(trees, list) and trees):
        raise DataError("forest 'trees' is not a non-empty list")
    trees = _objects(trees, len(trees), "forest tree", _tree, n_features)
    ptr, rows, mult = _arrays(data, SCHEMA["forest"], {}).values()
    # the first leaf of each tree, then the number of leaves
    base = np.cumsum([0] + [int(tree.leaf_id.max()) + 1 for tree in trees])
    if not (ptr.size == base[-1] + 1 and ptr[0] == 0 and ptr[-1] == rows.size
            and (np.diff(ptr) > 0).all()):
        raise DataError("has 'leaf_ptr' other than %d rising offsets from 0 "
                        "to %d, one more than the trees' leaves, each leaf "
                        "holding a member or more" % (base[-1] + 1, rows.size))
    if not (((mult >= 1) & (mult == np.floor(mult))).all()
            and ((rows >= 0) & (rows < cm.n_samples)).all()):
        raise DataError("has 'leaf_rows' and 'leaf_mult' other than lists of "
                        "rows in [0, %d) and whole numbers >= 1" % cm.n_samples)
    over = np.add.reduceat(mult, ptr[base[:-1]]) > cm.n_samples
    if over.any():
        raise DataError("forest tree %d: has leaves whose 'leaf_mult' sum to "
                        "more than %d" % (over.argmax(), cm.n_samples))
    return Forest(trees, ptr, rows, mult, cm, n_features)


def _tree(obj, n_features):
    """A tree whose nodes are in the layout `kernels.route` reads."""
    arrays = _arrays(obj, SCHEMA["tree"], {})
    kernels.check_tree(arrays["feat"], arrays["thr"], n_features)
    return Tree(**arrays)
