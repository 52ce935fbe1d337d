"""Inductive Venn prediction core.

Calibration examples are counted per (category, class) once, offline. At
prediction time an input is assigned to a category and each class j gets
the probability interval

    lower = n_j / (N + 1),    upper = (n_j + 1) / (N + 1)

where n_j is the calibration count of class j in that category and N the
category total: the empirical class frequency under the two hypothetical
completions of the category by the new example. Every interval in one
prediction has width exactly 1 / (N + 1). The predicted class maximizes the
interval midpoint, which is the class with the largest count, ties to the
lowest class index.

A prediction landing in a category no calibration example reached gets the
vacuous interval [0, 1] for every class and is flagged as such rather than
rejected.

Counts first: everything a prediction holds depends only on its category's
counts, so a table derives its per-category rows once (`table.rows`, one
column per field) and a batch of predictions is one category column
indexing them. `predict_many` returns that column from one taxonomy call;
`predict` is a batch of one that returns its category's IvpPrediction,
built for every category on the table's first `predict` and shared after.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property
from typing import NamedTuple

import numpy as np

from ivenn.data import int64_values, open_artifact, read_text, row_labels
from ivenn.taxonomy import TaxonomyConfig, category_count, format_value, read_fields

_TABLE_FORMAT = "ivenn-calibration-table-v1"
_INT64_MAX = int(np.iinfo(np.int64).max)


@dataclass(frozen=True)
class IvpPrediction:
    predicted_class: int
    category: int
    lower: np.ndarray  # per class
    upper: np.ndarray  # per class
    mean: np.ndarray  # interval midpoints, the decision statistic
    empty_category: bool  # True when no calibration example reached the category


class CategoryRows(NamedTuple):
    """What an example landing in category k is given, as row k of each
    field. From counts the arrays are read-only: predictions share them.
    Rows made from explicit intervals carry no counts or totals."""

    counts: np.ndarray | None  # (K, c) int64 calibration counts n_j
    totals: np.ndarray | None  # (K,) int64 category totals N
    lower: np.ndarray  # (K, c) n_j / (N + 1)
    upper: np.ndarray  # (K, c) (n_j + 1) / (N + 1)
    mean: np.ndarray  # (K, c) interval midpoints
    predicted: np.ndarray  # (K,) argmax of the counts, ties to the lowest class
    empty: np.ndarray  # (K,) True where N == 0: every interval is [0, 1]


def unfit_count_rows(counts):
    """Mask of the rows of (m, c) int64 counts the width law cannot hold for:
    a negative count, or a total N past 2^53 - 1, beyond which N + 1 is not an
    exact double. A float sum of non-negative integers is exact up to 2^53 and
    rounds monotonically, so it passes the bound exactly when N does, unwrapped."""
    return (counts < 0).any(axis=1) | (counts.sum(axis=1, dtype=float) > 2**53 - 1)


def category_rows(counts):
    """Derive the per-category prediction rows from integer counts."""
    counts = np.array(counts, dtype=np.int64)
    totals = counts.sum(axis=1)
    denom = (totals + 1)[:, None]
    lower = counts / denom
    upper = (counts + 1) / denom
    mean = (lower + upper) / 2.0
    predicted = np.argmax(counts, axis=1)
    empty = totals == 0
    rows = CategoryRows(counts, totals, lower, upper, mean, predicted, empty)
    for a in rows:
        a.flags.writeable = False
    return rows


@dataclass(frozen=True)
class CalibrationTable:
    """Per-category, per-class counts of calibration examples. The counts
    are not to be changed once `rows` has been read."""

    counts: np.ndarray  # (category_count, class_count) int64
    config: TaxonomyConfig

    def __post_init__(self):
        counts = int64_values(self.counts, "count")
        want = (category_count(self.config), self.config.class_count)
        if counts.shape != want:
            raise ValueError(f"counts have shape {counts.shape}, the taxonomy needs {want}")
        bad = unfit_count_rows(counts)
        if bad.any():
            k = int(np.argmax(bad))
            raise ValueError(f"category {k} counts {counts[k].tolist()}: negative or N > 2^53 - 1")
        object.__setattr__(self, "counts", counts)

    @property
    def category_count(self):
        return self.counts.shape[0]

    @cached_property
    def rows(self):
        return category_rows(self.counts)

    @cached_property
    def predictions(self):
        """(K,) IvpPrediction of each category: what `predict` returns."""
        r = self.rows
        return tuple(
            IvpPrediction(
                predicted_class=int(r.predicted[k]),
                category=k,
                lower=r.lower[k],
                upper=r.upper[k],
                mean=r.mean[k],
                empty_category=bool(r.empty[k]),
            )
            for k in range(self.category_count)
        )


def calibrate(taxonomy, labels, embeddings=None, softmaxes=None):
    """Place every calibration example into its category and count classes.

    The result is independent of input order.
    """
    c = taxonomy.config.class_count
    counts = np.zeros((taxonomy.category_count, c), dtype=np.int64)
    if np.size(labels) or embeddings is not None or softmaxes is not None:
        cats = taxonomy.assign_many(embeddings=embeddings, softmaxes=softmaxes)
        np.add.at(counts, (cats, row_labels(labels, len(cats), c)), 1)
    return CalibrationTable(counts=counts, config=taxonomy.config)


def _check_config(table, taxonomy):
    cfg = table.config
    tcfg = taxonomy.config
    # identity first: the common case is a taxonomy fitted from the table's
    # own config, and a field-by-field compare would tax every fast prediction
    if tcfg is not cfg and tcfg != cfg:
        diff = ", ".join(
            f"{f.name} {getattr(tcfg, f.name)} vs {getattr(cfg, f.name)}"
            for f in fields(cfg)
            if getattr(tcfg, f.name) != getattr(cfg, f.name)
        )
        raise ValueError(f"taxonomy does not match the table (taxonomy vs table): {diff}")


def predict_many(table, taxonomy, embeddings=None, softmaxes=None):
    """Predict a batch in one taxonomy call: the (m,) int64 category column,
    whose entry i picks example i's row of `table.rows` (its lower bounds are
    table.rows.lower[category]). Raises ValueError when the taxonomy's
    configuration (kind, class count, k, theta and every threshold) differs
    from the one the table was calibrated with. A matching configuration
    fixes the category count, so every category indexes the table."""
    _check_config(table, taxonomy)
    return taxonomy.assign_many(embeddings=embeddings, softmaxes=softmaxes)


def predict(table, taxonomy, embedding=None, softmax=None):
    """Predict one example: a batch of one. Only the input the taxonomy
    kind reads is converted."""
    _check_config(table, taxonomy)
    return table.predictions[taxonomy.assign(embedding=embedding, softmax=softmax)]


def save_table(table, path):
    """Write the table as text: the taxonomy configuration followed by one
    (category, class, count) triple per nonzero cell. Round-trip exact."""
    cfg = table.config
    lines = [f"# {_TABLE_FORMAT}"]
    lines += [f"{f.name} = {format_value(getattr(cfg, f.name))}" for f in fields(cfg)]
    lines.append("counts:")
    for cat, cls in zip(*np.nonzero(table.counts)):
        lines.append(f"{cat} {cls} {table.counts[cat, cls]}")
    with open_artifact(path) as f:
        f.write("\n".join(lines) + "\n")


def load_table(path):
    """Read a table written by save_table. A bad header line or a byte that
    is not UTF-8 raises ValueError naming `path:line`, a missing key or a
    missing `counts:` line the path."""
    lines = read_text(path).split("\n")
    if not lines or lines[0] != f"# {_TABLE_FORMAT}":
        raise ValueError(f"{path}: not a {_TABLE_FORMAT} file")
    end = next((i for i, ln in enumerate(lines) if ln.strip() == "counts:"), None)
    if end is None:  # a file cut off before its counts, not an all-zero table
        raise ValueError(f"{path}: no 'counts:' line")
    header = read_fields(TaxonomyConfig, enumerate(lines[1:end], start=2), f"{path}:")
    missing = [f.name for f in fields(TaxonomyConfig) if f.name not in header]
    if missing:
        raise ValueError(f"{path}: header has no {', '.join(missing)}")
    try:
        cfg = TaxonomyConfig(**header)
        counts = np.zeros((category_count(cfg), cfg.class_count), dtype=np.int64)
    except ValueError as exc:  # a header value the config check rejects
        raise ValueError(f"{path}: {exc}") from None
    seen = set()
    for number, ln in enumerate(lines[end + 1 :], start=end + 2):
        if not ln.strip():
            continue
        where = f"{path}:{number}:"
        try:
            cat, cls, cnt = (int(v) for v in ln.split())
        except ValueError:
            raise ValueError(
                f"{where} expected 'category class count' integers, got {ln!r}"
            ) from None
        if not 0 <= cat < counts.shape[0]:
            raise ValueError(f"{where} category {cat} outside [0, {counts.shape[0]})")
        if not 0 <= cls < counts.shape[1]:
            raise ValueError(f"{where} class {cls} outside [0, {counts.shape[1]})")
        if not 0 <= cnt <= _INT64_MAX:
            raise ValueError(f"{where} count {cnt} is negative or outside int64")
        if (cat, cls) in seen:
            raise ValueError(f"{where} cell ({cat}, {cls}) repeated")
        seen.add((cat, cls))
        counts[cat, cls] = cnt
    try:
        return CalibrationTable(counts=counts, config=cfg)
    except ValueError as exc:  # a category total past the width law's bound
        raise ValueError(f"{path}: {exc}") from None
