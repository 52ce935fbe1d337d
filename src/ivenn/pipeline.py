"""End-to-end driver: load (or accept) a dataset, split it, train the run's
network, fit a taxonomy, calibrate, predict the test set, and write every
artifact to an output directory once, at the end.

The test set is predicted in one `predict_many` call and scored on its
columns: `PipelineResult.records` is the EvalBatch of those predictions and
the test labels.

Artifacts (all byte-deterministic given the same config and seed), from
stop_after = "train" on:
    model.npz        the twin network a distance taxonomy trains (none for an
                     identity embedding or a reused model_path)
    classifier.npz   the score network a baseline trains (softmax_source = train)
from "calibrate" on:
    table.txt        calibration table
from "predict" on:
    predictions.csv  id,label,category,predicted,N,n0..,L0,U0,... (v2)
    timing.txt       wall seconds per stage; intentionally NOT deterministic
from "report":
    report.txt       scalar metrics + bin stats
    curves.csv       cumulative E/LEP/UEP

Timing never goes into report.txt so two runs of the same config compare
equal byte for byte.

Memory: the loaded dataset is dropped once `split` has copied its parts,
and the CSV artifacts are written 4096 rows at a time, so a run's peak is
the split itself, where the dataset and its parts are both alive. On two
CPUs a CSV of over 2^16 float cells (base-csv's curves.csv, not its
predictions.csv, whose rows hold no float cells) has its second half
formatted by a forked child, which holds that half's text; this process
still holds one block of text at a time.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial

import numpy as np

from ivenn.data import (
    SplitSpec,
    _write_csv,
    check_finite_rows,
    class_labels,
    csv_lines,
    line_number,
    load_csv,
    open_artifact,
    read_csv,
    split,
)
from ivenn.ivp import (
    calibrate,
    category_rows,
    predict_many,
    save_table,
    unfit_count_rows,
)
from ivenn.metrics import EvalBatch, build_report, check_bins, save_report
from ivenn.mlp import (
    CLASSIFIER,
    EMBEDDING,
    TrainConfig,
    check_layer_dims,
    forward_batch,
    load_params,
    save_params,
    train_classifier,
    train_siamese,
)
from ivenn.taxonomy import (
    BASELINE_KINDS,
    DISTANCE_KINDS,
    TaxonomyConfig,
    TaxonomyKind,
    field_types,
    fit_taxonomy,
    read_fields,
)

IDENTITY = "identity"
SIAMESE = "siamese"

# stop_after milestones, in pipeline order
STAGES = ("train", "calibrate", "predict", "report")


class PipelineError(RuntimeError):
    """A pipeline stage failed; the message names the stage."""


@contextmanager
def _stage(name, timings=None):
    """Name the stage in any error it raises; add its wall time to
    timings[name] when it succeeds."""
    t0 = time.perf_counter()
    try:
        yield
    except Exception as exc:
        raise PipelineError(f"stage '{name}': {exc}") from exc
    if timings is not None:
        timings[name] = timings.get(name, 0.0) + time.perf_counter() - t0


@dataclass(frozen=True)
class RunConfig:
    """Every knob one run needs, frozen and checked when made. The field
    annotations are its only schema: parse_config and the CLI flags take each
    key's type there. A field a stage's config also has takes its default."""

    data_csv: str | None = None
    out_dir: str = "."
    seed: int = SplitSpec.seed
    taxonomy: str = "nc_v1"
    class_count: int | None = None
    k: int = TaxonomyConfig.k
    theta: float | None = TaxonomyConfig.theta
    max_output_threshold: float = TaxonomyConfig.max_output_threshold
    second_output_threshold: float = TaxonomyConfig.second_output_threshold
    output_gap_threshold: float = TaxonomyConfig.output_gap_threshold
    embedding: str = SIAMESE  # "siamese" trains the twin net, "identity" skips it
    model_path: str | None = None  # reuse saved parameters instead of training
    softmax_source: str = "csv"  # "csv" expects s columns, "train" fits a net
    hidden_dims: tuple = (10,)
    embedding_dim: int = 32
    margin: float = TrainConfig.margin
    learning_rate: float = TrainConfig.learning_rate
    epochs: int = TrainConfig.epochs
    batch_size: int = TrainConfig.batch_size
    pairs_per_epoch: int = TrainConfig.pairs_per_epoch
    test_fraction: float = SplitSpec.test_fraction
    calibration_fraction: float = SplitSpec.calibration_fraction
    bins: int = 10

    def __post_init__(self):
        if self.embedding not in (SIAMESE, IDENTITY):
            raise ValueError(
                f"embedding must be siamese or identity, got {self.embedding!r}"
            )
        if self.softmax_source not in ("csv", "train"):
            raise ValueError(
                f"softmax_source must be csv or train, got {self.softmax_source!r}"
            )
        kind = TaxonomyKind(self.taxonomy)
        # building each stage's config checks it, before the load stage; an
        # unset class_count is the dataset's, checked when the taxonomy is fitted
        class_count = 2 if self.class_count is None else self.class_count
        _derived(TaxonomyConfig, self, kind=kind, class_count=class_count)
        _derived(TrainConfig, self)
        _derived(SplitSpec, self)
        check_bins(self.bins)
        # the network the run trains; 1 stands in for the dataset's width
        network = _network(self, kind, 1, class_count)
        if network is not None:
            check_layer_dims(network[2])


def parse_config(text, **flags):
    """The RunConfig of `key = value` lines (taxonomy.read_fields, `none` only
    for an optional key) and the typed `flags` over them, checked when made."""
    given = read_fields(RunConfig, enumerate(text.splitlines(), 1), "config line ")
    return RunConfig(**given | flags)


@dataclass
class PipelineResult:
    """Fields beyond the reached milestone are None."""

    report: object = None
    records: EvalBatch | None = None
    table: object = None
    taxonomy: object = None
    params: object = None  # the network the run trained or loaded, if any


def run_pipeline(cfg, dataset=None, stop_after="report"):
    """Run the stages up to `stop_after` ("train", "calibrate", "predict" or
    "report") and write the artifacts produced so far."""
    if stop_after not in STAGES:
        raise ValueError(f"stop_after must be one of {STAGES}, got {stop_after!r}")
    depth = STAGES.index(stop_after)
    kind = TaxonomyKind(cfg.taxonomy)
    result = PipelineResult()
    timings = {}
    test_ids = None  # set once the test split is predicted

    with _stage("load", timings):
        if dataset is None:
            if cfg.data_csv is None:
                raise ValueError("no data_csv configured and no dataset passed in")
            dataset = load_csv(cfg.data_csv, cfg.class_count)
        if cfg.class_count is not None and cfg.class_count != dataset.class_count:
            raise ValueError(
                f"config class_count {cfg.class_count} != dataset {dataset.class_count}"
            )

    with _stage("split", timings):
        proper, cal, test = split(dataset, _derived(SplitSpec, cfg))
        del dataset  # split copied the parts; later stages read `proper`

    with _stage("train", timings):
        network = _network(cfg, kind, proper.feature_dim, proper.class_count)
        if network is not None:
            _, mode, dims, seed = network
            train = train_siamese if mode == EMBEDDING else train_classifier
            result.params = train(
                proper.features, proper.labels, dims, _derived(TrainConfig, cfg, seed=seed)
            )
        elif kind in DISTANCE_KINDS and cfg.embedding == SIAMESE:  # reuse model_path
            result.params = load_twin(cfg.model_path, proper.feature_dim)

    if depth >= 1:
        with _stage("embed" if kind in DISTANCE_KINDS else "softmax", timings):
            # a baseline taxonomy is fitted from the labels alone
            proper_in = _inputs(kind, result.params, proper) if kind in DISTANCE_KINDS else {}
            cal_in = _inputs(kind, result.params, cal)
            test_in = _inputs(kind, result.params, test)

        with _stage("taxonomy", timings):
            tax_cfg = _derived(TaxonomyConfig, cfg, kind=kind, class_count=proper.class_count)
            result.taxonomy = fit_taxonomy(tax_cfg, labels=proper.labels, **proper_in)

        with _stage("calibrate", timings):
            result.table = calibrate(result.taxonomy, cal.labels, **cal_in)

    if depth >= 2:
        with _stage("predict", timings):
            batch = predict_many(result.table, result.taxonomy, **test_in)
            result.records = EvalBatch(batch.category, batch.rows, test.labels)
        test_ids = test.ids

    if depth >= 3:
        with _stage("report", timings):
            result.report = build_report(result.records, bins=cfg.bins)

    _write_artifacts(cfg, result, network, timings, test_ids)
    return result


def _derived(cls, cfg, **given):
    """A `cls` config of the `given` fields; every other field is the
    RunConfig field of the same name."""
    shared = {n: getattr(cfg, n) for n in field_types(cls) if n not in given}
    return cls(**given, **shared)


def _network(cfg, kind, feature_dim, class_count):
    """The network this run trains, as (artifact name, mode, layer sizes,
    seed), or None: an identity embedding, a reused model and CSV scores
    train none."""
    if kind in DISTANCE_KINDS and cfg.embedding == SIAMESE and cfg.model_path is None:
        dims = [feature_dim, *cfg.hidden_dims, cfg.embedding_dim]
        return "model.npz", EMBEDDING, dims, (cfg.seed, 10)
    if kind in BASELINE_KINDS and cfg.softmax_source == "train":
        dims = [feature_dim, *cfg.hidden_dims, class_count]
        return "classifier.npz", CLASSIFIER, dims, (cfg.seed, 11)
    return None


def load_twin(path, feature_dim, where=""):
    """load_params(path), checked to be a twin network over `feature_dim`
    features; a failed check raises ValueError prefixed by `where`."""
    params = load_params(path)
    if params.mode != EMBEDDING:
        raise ValueError(f"{where}{path} is not an embedding model")
    if params.input_dim != feature_dim:
        raise ValueError(
            f"{where}model expects {params.input_dim} features, data has {feature_dim}"
        )
    return params


def embed_checked(params, features, ids, where=""):
    """forward_batch(params, features); a non-finite output row (an overflowing
    model) raises ValueError naming that example's id, prefixed by `where`."""
    emb = forward_batch(params, features)
    check_finite_rows(emb, f"{where}embedding of example id", ids)
    return emb


def _inputs(kind, params, part):
    """The taxonomy's input for one split, under its calibrate/predict_many
    keyword: the embedding (the raw features when no network is used) for a
    distance kind, the CSV's or the classifier's scores for a baseline."""
    if kind in DISTANCE_KINDS:
        if params is None:
            return {"embeddings": part.features}
        return {"embeddings": embed_checked(params, part.features, part.ids)}
    if params is not None:
        return {"softmaxes": forward_batch(params, part.features)}
    if part.softmaxes is None:
        raise ValueError(
            f"taxonomy {kind.value} needs per-class scores: add "
            f"s0..s{part.class_count - 1} columns to the CSV "
            f"or set softmax_source = train"
        )
    return {"softmaxes": part.softmaxes}


def _write_artifacts(cfg, result, network, timings, test_ids):
    path = partial(os.path.join, cfg.out_dir)
    with _stage("write", timings):
        os.makedirs(cfg.out_dir, exist_ok=True)
        if network is not None:
            save_params(result.params, path(network[0]))
        if result.table is not None:
            save_table(result.table, path("table.txt"))
        if test_ids is not None:
            _write_predictions(path("predictions.csv"), test_ids, result.records)
        if result.report is not None:
            save_report(result.report, path("report.txt"), path("curves.csv"))
    if test_ids is not None:
        with _stage("write"):
            _write_timing(path("timing.txt"), timings, len(test_ids))


def _predictions_header(c):
    """The predictions.csv (v2) columns for c classes."""
    cols = ["id", "label", "category", "predicted", "N", *(f"n{j}" for j in range(c))]
    return cols + [f"{b}{j}" for j in range(c) for b in "LU"]


def _write_predictions(path, ids, batch):
    """v2: id,label,category,predicted,N,n0..n{c-1},L0,U0,... from an
    EvalBatch made from predictions. Every example of a category shares
    everything from its category on, so that suffix is formatted once per
    category."""
    r = batch.rows
    bounds = np.stack([r.lower, r.upper], axis=2).reshape(len(r.lower), -1)
    category = np.arange(len(r.predicted))
    suffix = np.array(csv_lines(category, r.predicted, r.totals, r.counts, bounds), dtype=object)
    header = _predictions_header(r.counts.shape[1])
    _write_csv(path, header, ids, batch.labels, suffix[batch.category])


def _write_timing(path, timings, predictions):
    """Wall seconds per stage, in run order, then the predict stage's cost
    per example."""
    lines = [f"{name}_s = {seconds:.6f}" for name, seconds in timings.items()]
    lines.append(f"predictions = {predictions}")
    lines.append(f"predict_us_per_row = {timings['predict'] / predictions * 1e6:.4f}")
    with open_artifact(path) as f:
        f.write("\n".join(lines) + "\n")


def load_predictions(path):
    """Rebuild the evaluation input from a predictions.csv, so `report` can
    rerun the metrics without redoing the predictions.

    data.read_csv parses the file, which carries each example's category
    counts: the EvalBatch's intervals, predicted class, empty flag and
    confidence bin are recomputed from those integers, and the intervals in
    the file must match them. Its rows are the file's distinct categories in
    increasing id order, so its category column holds row numbers, not the
    ids. ValueError names the file when it is empty or its header is not a
    predictions header, and `path:line` for a bad row or a byte not UTF-8.
    """

    def dtype_of(header):
        c = (len(header) - 5) // 3
        if c < 2 or header != _predictions_header(c):
            raise ValueError("not a predictions header (id,label,category,predicted,N,...)")
        return np.dtype([("ints", "<i8", (5 + c,)), ("bounds", "<f8", (2 * c,))])

    header, (ints, floats) = read_csv(path, dtype_of)
    if not len(ints):
        raise ValueError(f"{path}: no prediction rows")
    labels, category, counts = ints[:, 1], ints[:, 2], ints[:, 5:]
    checked = [2, *range(5, ints.shape[1])]  # category, n0..n{c-1}
    negative = ints[:, checked] < 0
    unfit = unfit_count_rows(counts)  # so that the sum below cannot wrap
    bad = negative.any(axis=1) | unfit | (ints[:, 4] != counts.sum(axis=1))
    if bad.any():
        row = int(np.argmax(bad))
        where = f"{path}:{line_number(path, row + 1)}:"
        if negative[row].any():
            j = checked[int(np.argmax(negative[row]))]
            raise ValueError(f"{where} {header[j]} {ints[row, j]} is negative")
        if unfit[row]:
            raise ValueError(f"{where} the counts total more than 2^53 - 1")
        raise ValueError(f"{where} N {ints[row, 4]} is not the sum of the counts")
    class_labels(labels, counts.shape[1], path)
    # one row per distinct category, so memory follows the file, not the ids
    distinct, key = np.unique(category, return_inverse=True)
    per_category = np.zeros((len(distinct), counts.shape[1]), dtype=np.int64)
    per_category[key] = counts
    rows = category_rows(per_category)
    bad = (
        (rows.counts[key] != counts).any(axis=1)
        | (rows.predicted[key] != ints[:, 3])
        | (rows.lower[key] != floats[:, 0::2]).any(axis=1)
        | (rows.upper[key] != floats[:, 1::2]).any(axis=1)
    )
    if bad.any():
        row = int(np.argmax(bad))
        raise ValueError(
            f"{path}:{line_number(path, row + 1)}: counts, predicted class and intervals "
            f"disagree with the other rows of category {category[row]}"
        )
    return EvalBatch(key, rows, labels)
