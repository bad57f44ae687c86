"""The per-cell CSV readers, the oracle for `data.load_csv` and
`data.load_feature_rows`.

The program parses the data rows of a file with one C `np.loadtxt` call
(`data.parse_rows`). A file that call refuses, or whose rows fail a
check, goes to the program's per-row reader: the file read into records
once (`data.read_records`), all feature cells parsed with one
`float`-or-NaN map into one array, and the first cell that is not finite
found with one `np.isfinite`. This module keeps the reader both
replaced: one loop per file, one `float()`, one scalar `np.isfinite` and
one list append per cell, and the row's cell count checked before its
cells. A row csv cannot read, such as one with a cell beyond its field
size limit, fails with a `DataError` that names it; the program reads
every row before it checks one, so a file that also has a fault before
that row is outside what the two share.
"""

import csv
import itertools

import numpy as np

from cshc.data import DataError, Dataset


def _rows(fh, path):
    """(row number, record) of each row of the file, the header being
    row 1; a row csv refuses raises a DataError naming it."""
    reader = csv.reader(fh)
    for lineno in itertools.count(1):
        try:
            rec = next(reader)
        except StopIteration:
            return
        except csv.Error as exc:
            raise DataError("%s: row %d: %s" % (path, lineno, exc)) from None
        yield lineno, rec


def _read_header(rows, path):
    try:
        _, header = next(rows)
    except StopIteration:
        raise DataError("%s: file is empty" % path) from None
    return [h.strip() for h in header]


def _feature_values(path, lineno, header, rec, skip=None):
    if len(rec) != len(header):
        raise DataError("%s: row %d has %d cells, expected %d"
                        % (path, lineno, len(rec), len(header)))
    vals = []
    for i, cell in enumerate(rec):
        if i == skip:
            continue
        try:
            x = float(cell)
        except ValueError:
            x = np.nan
        if not np.isfinite(x):
            raise DataError("%s: row %d, column %r: non-numeric value %r"
                            % (path, lineno, header[i], cell))
        vals.append(x)
    return np.array(vals)


def load_csv(path, label_column):
    """What `data.load_csv(path, label_column)` gives, or the DataError
    it raises."""
    with open(path, newline="") as fh:
        reader = _rows(fh, path)
        header = _read_header(reader, path)
        if label_column not in header:
            raise DataError(
                "%s: label column %r not found (columns: %s)"
                % (path, label_column, ", ".join(header))
            )
        label_pos = header.index(label_column)
        feature_names = [h for i, h in enumerate(header) if i != label_pos]
        rows, labels = [], []
        class_ids, class_names = {}, []
        for lineno, rec in reader:
            if not rec:
                continue
            rows.append(_feature_values(path, lineno, header, rec,
                                        skip=label_pos))
            name = rec[label_pos].strip()
            if name not in class_ids:
                class_ids[name] = len(class_names)
                class_names.append(name)
            labels.append(class_ids[name])
    if not rows:
        raise DataError("%s: no data rows" % path)
    if len(class_names) < 2:
        raise DataError("%s: only one class (%r) present" % (path, class_names[0]))
    return Dataset(np.vstack(rows), np.array(labels), feature_names, class_names)


def load_feature_rows(path, feature_names):
    """What `data.load_feature_rows(path, feature_names)` gives, or the
    DataError it raises."""
    with open(path, newline="") as fh:
        reader = _rows(fh, path)
        header = _read_header(reader, path)
        if header != feature_names:
            raise DataError("input columns %s do not match the bundle's %s"
                            % (header, feature_names))
        rows = [_feature_values(path, lineno, header, rec)
                for lineno, rec in reader if rec]
    if not rows:
        raise DataError("%s: no data rows" % path)
    return np.vstack(rows)
