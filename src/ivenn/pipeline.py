"""End-to-end driver: load (or accept) a dataset, split it, learn the
embedding, fit a taxonomy, calibrate, predict the test set, and write every
artifact to an output directory.

Artifacts (all byte-deterministic given the same config and seed):
    model.npz        twin-network parameters (when an embedding is trained)
    classifier.npz   score network (when softmax_source = train)
    table.txt        calibration table
    predictions.csv  id,label,category,predicted,L0,U0,...
    report.txt       scalar metrics + bin stats
    curves.csv       cumulative E/LEP/UEP
    timing.txt       wall-clock latencies; intentionally NOT deterministic

Timing never goes into report.txt so two runs of the same config compare
equal byte for byte.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, fields

import numpy as np

from ivenn.data import SplitSpec, load_csv, split
from ivenn.ivp import IvpPrediction, calibrate, predict, save_table
from ivenn.metrics import EvalRecord, build_report, curves_csv, report_text
from ivenn.mlp import (
    EMBEDDING,
    TrainConfig,
    forward_batch,
    load_params,
    save_params,
    train_classifier,
    train_siamese,
)
from ivenn.taxonomy import (
    BASELINE_KINDS,
    TaxonomyConfig,
    TaxonomyKind,
    fit_taxonomy,
)

IDENTITY = "identity"
SIAMESE = "siamese"

# stop_after milestones, in pipeline order
STAGES = ("train", "calibrate", "predict", "report")


class PipelineError(RuntimeError):
    """A pipeline stage failed; the message names the stage."""


@contextmanager
def _stage(name):
    try:
        yield
    except PipelineError:
        raise
    except Exception as exc:
        raise PipelineError(f"stage '{name}': {exc}") from exc


@dataclass
class RunConfig:
    """Flat bag of every knob one run needs; parse_config fills it from a
    key = value text file."""

    data_csv: str | None = None
    out_dir: str = "."
    seed: int = 0
    taxonomy: str = "nc_v1"
    class_count: int | None = None
    k: int = 5
    theta: float | None = None
    max_output_threshold: float = 0.75
    second_output_threshold: float = 0.25
    output_gap_threshold: float = 0.5
    embedding: str = SIAMESE  # "siamese" trains the twin net, "identity" skips it
    model_path: str | None = None  # reuse saved parameters instead of training
    softmax_source: str = "csv"  # "csv" expects s columns, "train" fits a net
    hidden_dims: tuple = (10,)
    embedding_dim: int = 32
    margin: float = 1.0
    learning_rate: float = 0.05
    epochs: int = 200
    batch_size: int = 32
    pairs_per_epoch: int = 256
    test_fraction: float = 0.10
    calibration_fraction: float = 0.20
    bins: int = 10

    def validate(self):
        if self.embedding not in (SIAMESE, IDENTITY):
            raise ValueError(
                f"embedding must be siamese or identity, got {self.embedding!r}"
            )
        if self.softmax_source not in ("csv", "train"):
            raise ValueError(
                f"softmax_source must be csv or train, got {self.softmax_source!r}"
            )
        TaxonomyKind(self.taxonomy)


_INT_FIELDS = {
    "seed", "class_count", "k", "embedding_dim",
    "epochs", "batch_size", "pairs_per_epoch", "bins",
}
_FLOAT_FIELDS = {
    "theta", "max_output_threshold", "second_output_threshold",
    "output_gap_threshold", "margin", "learning_rate",
    "test_fraction", "calibration_fraction",
}


def parse_config(text):
    """Build a RunConfig from `key = value` lines; # starts a comment."""
    cfg = RunConfig()
    known = {f.name for f in fields(RunConfig)}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key:
            raise ValueError(f"config line {lineno}: expected key = value, got {raw!r}")
        if key not in known:
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
        if key == "hidden_dims":
            parsed = tuple(int(v) for v in value.split(",") if v.strip())
        elif value.lower() == "none":
            parsed = None
        elif key in _INT_FIELDS:
            parsed = int(value)
        elif key in _FLOAT_FIELDS:
            parsed = float(value)
        else:
            parsed = value
        setattr(cfg, key, parsed)
    cfg.validate()
    return cfg


@dataclass
class PipelineResult:
    """Fields beyond the reached milestone are None (or empty lists)."""

    report: object = None
    records: list = None
    table: object = None
    taxonomy: object = None
    embedding_params: object = None
    classifier_params: object = None
    out_dir: str = "."


def run_pipeline(cfg, dataset=None, stop_after="report"):
    """Run the stages up to `stop_after` ("train", "calibrate", "predict" or
    "report") and write the artifacts produced so far."""
    cfg.validate()
    if stop_after not in STAGES:
        raise ValueError(f"stop_after must be one of {STAGES}, got {stop_after!r}")
    depth = STAGES.index(stop_after)
    kind = TaxonomyKind(cfg.taxonomy)
    result = PipelineResult(records=[], out_dir=cfg.out_dir)

    with _stage("load"):
        if dataset is None:
            if cfg.data_csv is None:
                raise ValueError("no data_csv configured and no dataset passed in")
            dataset = load_csv(cfg.data_csv, cfg.class_count)
        if cfg.class_count is not None and cfg.class_count != dataset.class_count:
            raise ValueError(
                f"config class_count {cfg.class_count} != dataset {dataset.class_count}"
            )

    with _stage("split"):
        spec = SplitSpec(
            test_fraction=cfg.test_fraction,
            calibration_fraction=cfg.calibration_fraction,
            seed=cfg.seed,
        )
        proper, cal, test = split(dataset, spec)

    with _stage("train"):
        if cfg.embedding == SIAMESE:
            if cfg.model_path is not None:
                params = load_params(cfg.model_path)
                if params.mode != EMBEDDING:
                    raise ValueError(f"{cfg.model_path} is not an embedding model")
                if params.input_dim != dataset.feature_dim:
                    raise ValueError(
                        f"model expects {params.input_dim} features, "
                        f"data has {dataset.feature_dim}"
                    )
            else:
                dims = [dataset.feature_dim, *cfg.hidden_dims, cfg.embedding_dim]
                params = train_siamese(
                    proper.features,
                    proper.labels,
                    dims,
                    TrainConfig(
                        margin=cfg.margin,
                        learning_rate=cfg.learning_rate,
                        epochs=cfg.epochs,
                        batch_size=cfg.batch_size,
                        seed=(cfg.seed, 10),
                        pairs_per_epoch=cfg.pairs_per_epoch,
                    ),
                )
            result.embedding_params = params

    if depth == 0:
        _write_artifacts(cfg, result)
        return result

    with _stage("embed"):
        proper_emb = _embed(cfg, result.embedding_params, proper.features)
        cal_emb = _embed(cfg, result.embedding_params, cal.features)
        test_emb = _embed(cfg, result.embedding_params, test.features)

    cal_soft = test_soft = None
    if kind in BASELINE_KINDS:
        with _stage("softmax"):
            if cfg.softmax_source == "csv":
                if dataset.softmaxes is None:
                    raise ValueError(
                        f"taxonomy {kind.value} needs per-class scores: add "
                        f"s0..s{dataset.class_count - 1} columns to the CSV "
                        f"or set softmax_source = train"
                    )
                cal_soft, test_soft = cal.softmaxes, test.softmaxes
            else:
                dims = [dataset.feature_dim, *cfg.hidden_dims, dataset.class_count]
                result.classifier_params = train_classifier(
                    proper.features,
                    proper.labels,
                    dims,
                    TrainConfig(
                        learning_rate=cfg.learning_rate,
                        epochs=cfg.epochs,
                        batch_size=cfg.batch_size,
                        seed=(cfg.seed, 11),
                    ),
                )
                cal_soft = forward_batch(result.classifier_params, cal.features)
                test_soft = forward_batch(result.classifier_params, test.features)

    with _stage("taxonomy"):
        tax_cfg = TaxonomyConfig(
            kind=kind,
            class_count=dataset.class_count,
            k=cfg.k,
            theta=cfg.theta,
            max_output_threshold=cfg.max_output_threshold,
            second_output_threshold=cfg.second_output_threshold,
            output_gap_threshold=cfg.output_gap_threshold,
        )
        result.taxonomy = fit_taxonomy(tax_cfg, proper_emb, proper.labels)

    with _stage("calibrate"):
        result.table = calibrate(
            result.taxonomy, cal.labels, embeddings=cal_emb, softmaxes=cal_soft
        )

    if depth == 1:
        _write_artifacts(cfg, result)
        return result

    predictions = []
    latencies = []
    with _stage("predict"):
        for i in range(len(test)):
            soft = None if test_soft is None else test_soft[i]
            t0 = time.perf_counter()
            pred = predict(
                result.table, result.taxonomy, embedding=test_emb[i], softmax=soft
            )
            latencies.append(time.perf_counter() - t0)
            result.records.append(
                EvalRecord(prediction=pred, true_label=int(test.labels[i]))
            )
            predictions.append((int(test.ids[i]), int(test.labels[i]), pred))

    if depth >= 3:
        with _stage("report"):
            result.report = build_report(result.records, bins=cfg.bins)

    _write_artifacts(cfg, result, predictions, dataset.class_count, latencies)
    return result


def _embed(cfg, params, features):
    if cfg.embedding == IDENTITY:
        return features
    return forward_batch(params, features)


def _write_artifacts(cfg, result, predictions=None, class_count=None, latencies=None):
    with _stage("write"):
        os.makedirs(cfg.out_dir, exist_ok=True)
        if result.embedding_params is not None and cfg.model_path is None:
            save_params(result.embedding_params, os.path.join(cfg.out_dir, "model.npz"))
        if result.classifier_params is not None:
            save_params(
                result.classifier_params, os.path.join(cfg.out_dir, "classifier.npz")
            )
        if result.table is not None:
            save_table(result.table, os.path.join(cfg.out_dir, "table.txt"))
        if predictions is not None:
            _write_predictions(
                os.path.join(cfg.out_dir, "predictions.csv"), predictions, class_count
            )
            _write_timing(os.path.join(cfg.out_dir, "timing.txt"), latencies)
        if result.report is not None:
            path = os.path.join(cfg.out_dir, "report.txt")
            with open(path, "w", encoding="utf-8") as f:
                f.write(report_text(result.report))
            path = os.path.join(cfg.out_dir, "curves.csv")
            with open(path, "w", encoding="utf-8") as f:
                f.write(curves_csv(result.report.curves))


def _write_predictions(path, predictions, class_count):
    cols = ["id", "label", "category", "predicted"]
    for j in range(class_count):
        cols += [f"L{j}", f"U{j}"]
    lines = [",".join(cols)]
    for ex_id, label, pred in predictions:
        row = [str(ex_id), str(label), str(pred.category), str(pred.predicted_class)]
        for j in range(class_count):
            row += [repr(float(pred.lower[j])), repr(float(pred.upper[j]))]
        lines.append(",".join(row))
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")


def _write_timing(path, latencies):
    arr = np.asarray(latencies)
    lines = [
        f"predictions = {len(arr)}",
        f"total_s = {arr.sum():.6f}",
        f"mean_ms = {arr.mean() * 1e3:.4f}",
        f"max_ms = {arr.max() * 1e3:.4f}",
    ]
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")


def load_predictions(path):
    """Rebuild EvalRecords from a predictions.csv; lets `report` rerun the
    metrics without redoing the predictions."""
    with open(path, encoding="utf-8") as f:
        lines = [ln.rstrip("\n") for ln in f if ln.strip()]
    header = lines[0].split(",")
    if header[:4] != ["id", "label", "category", "predicted"]:
        raise ValueError(f"{path}: not a predictions file")
    class_count = (len(header) - 4) // 2
    records = []
    for ln in lines[1:]:
        cells = ln.split(",")
        label, category, predicted = int(cells[1]), int(cells[2]), int(cells[3])
        lower = np.array([float(cells[4 + 2 * j]) for j in range(class_count)])
        upper = np.array([float(cells[5 + 2 * j]) for j in range(class_count)])
        pred = IvpPrediction(
            predicted_class=predicted,
            category=category,
            lower=lower,
            upper=upper,
            mean=(lower + upper) / 2.0,
            empty_category=bool(upper[0] - lower[0] == 1.0),
        )
        records.append(EvalRecord(prediction=pred, true_label=label))
    return records
