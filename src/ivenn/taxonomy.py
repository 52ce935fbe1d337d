"""Venn taxonomies: rules that place an example into a category of mutually
similar points. Four are distance-based over a learned embedding space
(k-NN and nearest-centroid, each with a refined variant) and four are
softmax-based splits of the predicted class.

Taxonomy.assign_many is the one assignment path: pure and deterministic,
ties always resolve the same way on every run. Every kind assigns a whole
batch at once, and a single example is a batch of one (Taxonomy.assign).

Config values as text (run config files, table headers, CLI flags) are
parsed and formatted here, typed by the config dataclasses' annotations.
"""

from __future__ import annotations

import functools
import re
import warnings
from dataclasses import dataclass, replace
from enum import Enum
from types import NoneType
from typing import get_args, get_type_hints

import numpy as np

from ivenn.data import check_finite, check_finite_rows, check_score_rows, float_rows, row_labels
from ivenn.space import (
    KnnIndex,
    build_centroids,
    build_index,
    knn_many,
    nearest_centroid_many,
)


class TaxonomyKind(Enum):
    KNN_V1 = "knn_v1"
    KNN_V2 = "knn_v2"
    NC_V1 = "nc_v1"
    NC_V2 = "nc_v2"
    BASE_V1 = "base_v1"
    BASE_V2 = "base_v2"
    BASE_V3 = "base_v3"
    BASE_V4 = "base_v4"


DISTANCE_KINDS = (TaxonomyKind.KNN_V1, TaxonomyKind.KNN_V2, TaxonomyKind.NC_V1, TaxonomyKind.NC_V2)
BASELINE_KINDS = (TaxonomyKind.BASE_V1, TaxonomyKind.BASE_V2, TaxonomyKind.BASE_V3, TaxonomyKind.BASE_V4)


@dataclass(frozen=True)
class TaxonomyConfig:
    kind: TaxonomyKind
    class_count: int
    k: int = 5
    theta: float | None = None  # None means: resolve from proper-training data
    max_output_threshold: float = 0.75
    second_output_threshold: float = 0.25
    output_gap_threshold: float = 0.5

    def __post_init__(self):
        object.__setattr__(self, "kind", TaxonomyKind(self.kind))
        if self.class_count < 2:
            raise ValueError("class_count must be at least 2")
        if self.k < 1:
            raise ValueError("k must be at least 1")
        if self.theta is not None and self.theta <= 0:
            raise ValueError("theta must be positive")
        for name in ("theta", "max_output_threshold", "second_output_threshold",
                     "output_gap_threshold"):
            check_finite(self, name)


@functools.cache
def field_types(cls):
    """Field name -> resolved annotation of the config dataclass `cls`, in
    field order; resolved once per class."""
    return get_type_hints(cls)


@functools.cache
def value_parser(annotation):
    """The function that parses one config value as a field annotated
    `annotation`: int, float, str, an Enum (by value), tuple (comma-separated
    ints), or X | None, where `none` means None. It raises ValueError on a
    bad value and is named after the type, as argparse's `type=` expects."""
    optional = NoneType in get_args(annotation)
    if optional:
        annotation = next(a for a in get_args(annotation) if a is not NoneType)

    def parse(text):
        if optional and text.lower() == "none":
            return None
        if annotation is tuple:
            return tuple(int(v) for v in text.split(",") if v.strip())
        return annotation(text)

    parse.__name__ = annotation.__name__
    return parse


def format_value(value):
    """The text value_parser reads back as `value`; floats round-trip exactly,
    and a tuple of ints is comma-separated (`10,16`, empty for ())."""
    if value is None:
        return "none"
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, tuple):
        return ",".join(map(str, value))
    return repr(value) if isinstance(value, float) else str(value)


def parse_field(cls, line):
    """Split a `key = value` line and parse the value as field `key` of the
    config dataclass `cls`; returns (key, value)."""
    key, sep, text = line.partition("=")
    key, text = key.strip(), text.strip()
    if not sep or not key:
        raise ValueError(f"expected key = value, got {line!r}")
    if key not in field_types(cls):
        raise ValueError(f"unknown key {key!r}")
    parse = value_parser(field_types(cls)[key])
    try:
        return key, parse(text)
    except ValueError:
        raise ValueError(f"{key}: invalid {parse.__name__} value: {text!r}") from None


_COMMENT = re.compile(r"(?<!\S)#")


def read_fields(cls, numbered_lines, where):
    """{key: value} of the `key = value` lines among (line number, text)
    pairs, as parse_field reads them; a `#` at the start of a line or after
    whitespace starts a comment, so `out_dir = runs#2` keeps its `#`. A bad
    line or a repeated key raises ValueError `{where}{number}: ...` (a plain
    prefix)."""
    given = {}
    for number, text in numbered_lines:
        line = _COMMENT.split(text, 1)[0].strip()
        if not line:
            continue
        try:
            key, value = parse_field(cls, line)
            if key in given:
                raise ValueError(f"{key} repeated")
        except ValueError as exc:
            raise ValueError(f"{where}{number}: {exc}") from None
        given[key] = value
    return given


def category_count(cfg):
    """Number of categories the configured taxonomy can produce."""
    c = cfg.class_count
    if cfg.kind in (TaxonomyKind.KNN_V1, TaxonomyKind.NC_V1, TaxonomyKind.BASE_V1):
        return c
    if cfg.kind is TaxonomyKind.KNN_V2:
        return c * _knn_v2_width(cfg)
    # NC_V2 and BASE_V2..V4 split every class category in two
    return 2 * c


def _knn_v2_width(cfg):
    # k-NN V2 categories per class: one per disagreement count 0 .. width - 1
    return cfg.k - cfg.k // cfg.class_count


def _vote(dists, neighbor_labels, class_count):
    # (majority class of each row of (m, k) neighbors, the (m, class_count)
    # vote counts): most votes first, then the smallest summed neighbor
    # distance, then the lowest class index, as lexsort sorts each row
    # stably. bincount adds its weights in input order, so each sum runs in
    # neighbor order.
    m = len(dists)
    cell = (neighbor_labels + np.arange(0, m * class_count, class_count)[:, None]).ravel()
    votes = np.bincount(cell, minlength=m * class_count).reshape(m, class_count)
    sums = np.bincount(cell, dists.ravel(), m * class_count).reshape(m, class_count)
    return np.lexsort((sums, -votes))[:, 0], votes


def _knn_categories(index, R, cfg):
    dists, ids = knn_many(index, R, cfg.k)
    yhat, votes = _vote(dists, index.labels[ids], cfg.class_count)
    if cfg.kind is TaxonomyKind.KNN_V1:
        return yhat
    width = _knn_v2_width(cfg)
    disagree = cfg.k - np.maximum.reduce(votes, axis=1)  # neighbors outside the winning class
    if disagree.max(initial=0) >= width:  # an all-way vote tie
        for count in disagree[disagree >= width]:
            warnings.warn(
                f"k-NN V2 disagreement count {count} reached the category width "
                f"{width}; clamping (all-way vote tie)",
                RuntimeWarning,
            )
    return yhat * width + np.minimum(disagree, width - 1)


def _nc_categories(centroids, R, cfg):
    j, d = nearest_centroid_many(centroids, R)
    return 2 * j + (d > cfg.theta) if cfg.kind is TaxonomyKind.NC_V2 else j


def _batch_of_one(v, what):
    if v is None:
        return None
    v = np.asarray(v, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"{what} has shape {v.shape}, expected one vector")
    return v[None, :]


def _baseline_categories(S, cfg):
    S = float_rows(S, cfg.class_count, "softmax rows")
    check_score_rows(S)
    top_class = S.argmax(axis=1)
    if cfg.kind is TaxonomyKind.BASE_V1:
        return top_class
    # kth = c - 2 leaves the second largest output in place and the largest after it
    ranked = S.copy()
    ranked.partition(-2, axis=1)
    top, second = ranked[:, -1], ranked[:, -2]
    if cfg.kind is TaxonomyKind.BASE_V2:
        h = top < cfg.max_output_threshold
    elif cfg.kind is TaxonomyKind.BASE_V3:
        h = second > cfg.second_output_threshold
    else:  # BASE_V4
        h = top - second < cfg.output_gap_threshold
    return 2 * top_class + h


def resolve_theta(centroids, points, labels):
    """Median distance of proper-training points to their own class centroid
    (a row of the (class_count, dim) centroids).

    Degenerate data (every point on its centroid) falls back to half the
    smallest positive inter-centroid distance.
    """
    points = float_rows(points, np.shape(centroids)[1], "points")
    labels = row_labels(labels, len(points), len(centroids))
    if len(points) == 0:
        raise ValueError("cannot resolve theta from an empty training set")
    check_finite_rows(points, "point")
    own = np.linalg.norm(points - centroids[labels], axis=1)
    theta = float(np.median(own))
    if theta > 0:
        return theta
    gaps = np.linalg.norm(centroids[:, None, :] - centroids[None, :, :], axis=2)
    positive = gaps[gaps > 0]
    if len(positive) == 0:
        raise ValueError("all training points and centroids coincide; theta has no scale")
    return float(positive.min()) / 2.0


@dataclass(frozen=True)
class Taxonomy:
    """A taxonomy fitted to proper-training data: holds whatever structures
    its kind needs (k-NN index, centroids, resolved theta), checked when it
    is made, and assigns category ids."""

    config: TaxonomyConfig
    index: KnnIndex | None = None
    centroids: np.ndarray | None = None  # (class_count, dim), row j of class j

    def __post_init__(self):
        cfg, kind, index, cs = self.config, self.config.kind, self.index, self.centroids
        if kind in (TaxonomyKind.KNN_V1, TaxonomyKind.KNN_V2):
            if index is None:
                raise ValueError(f"{kind.value} requires a k-NN index")
            row_labels(index.labels, len(index.points), cfg.class_count)
            if cfg.k > len(index.labels):
                raise ValueError(f"k={cfg.k} exceeds the {len(index.labels)} training points")
        elif kind in DISTANCE_KINDS and (np.ndim(cs) != 2 or len(cs) != cfg.class_count):
            got = "none" if cs is None else f"shape {np.shape(cs)}"
            raise ValueError(
                f"{kind.value} requires one centroid per class as a "
                f"({cfg.class_count}, dim) array, got {got}"
            )
        elif kind in DISTANCE_KINDS:
            check_finite_rows(cs, f"{kind.value} centroid of class", range(len(cs)))
            if kind is TaxonomyKind.NC_V2 and cfg.theta is None:
                raise ValueError("theta is unresolved; fit the taxonomy or set it explicitly")

    @property
    def category_count(self):
        return category_count(self.config)

    def assign(self, embedding=None, softmax=None):
        """Category of one example: a batch of one through assign_many. Only
        the input the kind reads is converted."""
        if self.config.kind in BASELINE_KINDS:
            return int(self.assign_many(softmaxes=_batch_of_one(softmax, "softmax"))[0])
        return int(self.assign_many(embeddings=_batch_of_one(embedding, "embedding"))[0])

    def assign_many(self, embeddings=None, softmaxes=None):
        """Categories of a batch: (m,) int64, every kind as one batch."""
        kind = self.config.kind
        if kind in BASELINE_KINDS:
            if softmaxes is None:
                raise ValueError(f"{kind.value} requires a softmax vector")
            return _baseline_categories(softmaxes, self.config)
        if embeddings is None:
            raise ValueError(f"{kind.value} requires an embedding vector")
        if kind in (TaxonomyKind.KNN_V1, TaxonomyKind.KNN_V2):
            return _knn_categories(self.index, embeddings, self.config)
        return _nc_categories(self.centroids, embeddings, self.config)


def fit_taxonomy(cfg, embeddings=None, labels=None):
    """Build the structures the configured taxonomy needs from the
    proper-training embeddings. Baseline kinds need no fitting."""
    if cfg.kind in BASELINE_KINDS:
        return Taxonomy(config=cfg)
    if embeddings is None or labels is None:
        raise ValueError(f"{cfg.kind.value} requires proper-training embeddings and labels")
    if cfg.kind in (TaxonomyKind.KNN_V1, TaxonomyKind.KNN_V2):
        return Taxonomy(config=cfg, index=build_index(embeddings, labels))
    centroids = build_centroids(embeddings, labels, cfg.class_count)
    if cfg.kind is TaxonomyKind.NC_V2 and cfg.theta is None:
        cfg = replace(cfg, theta=resolve_theta(centroids, embeddings, labels))
    return Taxonomy(config=cfg, centroids=centroids)
