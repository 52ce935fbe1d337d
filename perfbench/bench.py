"""One run of one benchmark workload, driven through ivenn's public API.

Started by run.py in a fresh process, with the BLAS thread count pinned and
`src` on the import path. Prints one JSON line on stdout.

A run has two phases, interleaved over ROUNDS rounds so that every
metric samples the whole run rather than one stretch of it:

* pipeline: `run_pipeline(cfg)` on the generated CSV, from load to every
  artifact written, once per round; `pipeline_s` is the median.
* serve: rebuild a predictor from the artifacts (SETUPS_PER_ROUND times
  per round; `setup_s` is the median), then answer a held-out query stream
  one `ivp.predict` call at a time for `--seconds / ROUNDS` per round, and
  at least ROUND_QUERIES calls. The stream is a closed loop: one caller,
  each query sent after the last reply. Over the run every query is served
  at least once. `predict_p50_ms` is the median of all calls;
  `predict_p99_ms` is the median over rounds of each round's 99th
  percentile, so a round on a noisier stretch of the machine moves it less.

With `--trace 1` the run then repeats each phase once more with spans on
(one pipeline run, one set-up, one pass over the stream) and reports
per-layer metrics instead. Every `.s`, `.calls`, `.rows` and per-call
figure sums over that whole traced run; `<layer>.self_s` covers the traced
pipeline run only, and those sum to `pipeline.run_pipeline.s`.

Every timing reads speed.SpeedClock: seconds rescaled to a reference speed
of the machine, measured in the same thread every 0.05 s, because machine
speed on a shared host swings by 1.5x within seconds.

Every run checks the outputs and counts each failed check:
the width law of every served prediction, in exact fractions against the
counts `calibrate` produced; agreement of every served category with
`Taxonomy.assign_many`; LEP <= UEP at every point; the ECE ceiling of the
k-NN workloads; and byte-identical artifacts across the pipeline runs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import warnings
from array import array
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

import tracing
from speed import SpeedClock
from ivenn.data import Dataset, SplitSpec, load_csv, save_csv, split, synth_gaussians
from ivenn.ivp import load_table, predict
from ivenn.mlp import forward_batch, load_params
from ivenn.pipeline import SIAMESE, RunConfig, run_pipeline
from ivenn.taxonomy import fit_taxonomy

ROUNDS = 3
ROUND_QUERIES = 1000  # so each round's p99 has at least 10 calls beyond it
SETUPS_PER_ROUND = 3
# Acceptance criterion 3's ceiling for the distance taxonomies.
ECE_CEILING = 0.05
ARTIFACTS = ("report.txt", "curves.csv", "predictions.csv", "table.txt", "model.npz")
CLASSES, FEATURES, SEPARATION = 3, 8, 3.0
CLAMP_WARNING = "k-NN V2 disagreement count"


@dataclass(frozen=True)
class Workload:
    rows: int
    config: dict  # RunConfig fields beyond data_csv and out_dir
    scores: bool = False  # add s0..s2 columns drawn from a noisy softmax
    ece_ceiling: float | None = None
    queries: int = 4800  # held-out stream, at least 1000 so p99 has 10 beyond it


WORKLOADS = {
    "knn-d32": Workload(
        rows=9000, config=dict(taxonomy="knn_v2"), ece_ceiling=ECE_CEILING,
        queries=1200,  # each query costs milliseconds here
    ),
    "train-d2": Workload(
        rows=9000,
        config=dict(
            taxonomy="knn_v1", hidden_dims=(16,), embedding_dim=2,
            epochs=600, pairs_per_epoch=1024,
        ),
        ece_ceiling=ECE_CEILING,
    ),
    "base-csv": Workload(
        rows=60000,
        config=dict(
            taxonomy="base_v2", embedding="identity", softmax_source="csv",
            test_fraction=0.5,
        ),
        scores=True,
    ),
}


def toy(w):
    """The same workload at smoke-test size. ECE over a few dozen test
    examples is noise, so its ceiling is not checked."""
    return replace(w, rows=600, queries=120, config=dict(w.config, epochs=20), ece_ceiling=None)


def make_dataset(w, n, seed):
    """Shuffled Gaussian blobs, plus noisy softmax scores when the workload
    reads them from the CSV. The same seed gives the same rows."""
    blobs = synth_gaussians(CLASSES, FEATURES, n // CLASSES, SEPARATION, seed=[*seed, 0])
    rng = np.random.default_rng([*seed, 1])
    order = rng.permutation(len(blobs))
    features, labels = blobs.features[order], blobs.labels[order]
    scores = None
    if w.scores:
        z = features[:, :CLASSES] + rng.standard_normal((len(order), CLASSES))
        e = np.exp(z - z.max(axis=1, keepdims=True))
        scores = e / e.sum(axis=1, keepdims=True)
    return Dataset(
        ids=np.arange(len(order), dtype=np.int64), features=features,
        labels=labels, class_count=CLASSES, softmaxes=scores,
    )


class Tally:
    """Operations attempted and failed: pipeline runs, served predictions
    and output checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if self.failed <= 10:
                print(f"check failed: {what}", file=sys.stderr)


@dataclass
class Predictor:
    params: object
    table: object
    taxonomy: object


def _digest(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def run_once(cfg, out_dir, tally, clock, ece_ceiling):
    """One pipeline run into out_dir, its report checked; returns
    (seconds, result)."""
    t0 = clock()
    result = run_pipeline(replace(cfg, out_dir=out_dir))
    seconds = clock() - t0
    tally.record(True, "pipeline run")
    curves, ece = result.report.curves, result.report.ece
    tally.record(bool(np.all(curves.LEP <= curves.UEP)), f"LEP > UEP in {out_dir}")
    if ece_ceiling is not None:
        tally.record(ece <= ece_ceiling, f"ECE {ece:.4f} > {ece_ceiling} in {out_dir}")
    return seconds, result


def check_artifacts(out_dirs, tally):
    """Every artifact of the first run is byte-identical in the others."""
    for name in ARTIFACTS:
        first = os.path.join(out_dirs[0], name)
        if not os.path.exists(first):
            continue
        for other in out_dirs[1:]:
            path = os.path.join(other, name)
            same = os.path.exists(path) and _digest(path) == _digest(first)
            tally.record(same, f"{path} differs from {first}")


def set_up(cfg, out_dir):
    """Rebuild a ready predictor from a pipeline run's artifacts."""
    ds = load_csv(cfg.data_csv, cfg.class_count)
    proper, _, _ = split(ds, SplitSpec(
        test_fraction=cfg.test_fraction,
        calibration_fraction=cfg.calibration_fraction,
        seed=cfg.seed,
    ))
    params = None
    proper_emb = proper.features
    if cfg.embedding == SIAMESE:
        params = load_params(os.path.join(out_dir, "model.npz"))
        proper_emb = forward_batch(params, proper.features)
    table = load_table(os.path.join(out_dir, "table.txt"))
    taxonomy = fit_taxonomy(table.config, proper_emb, proper.labels)
    return Predictor(params, table, taxonomy)


def width_law_holds(counts, pred):
    """Exact check of one prediction against its category's integer counts:
    each bound is the correctly rounded n_j/(N+1) or (n_j+1)/(N+1), and the
    rationals they stand for differ by exactly 1/(N+1)."""
    denom = sum(counts) + 1
    for n_j, lo, up in zip(counts, pred.lower.tolist(), pred.upper.tolist()):
        lo_q = Fraction(lo).limit_denominator(denom)
        up_q = Fraction(up).limit_denominator(denom)
        if (lo_q != Fraction(n_j, denom) or up_q != Fraction(n_j + 1, denom)
                or up_q - lo_q != Fraction(1, denom)
                or lo != float(lo_q) or up != float(up_q)):
            return False
    return True


class ServeCheck:
    """Checks each served prediction against the pipeline's calibration
    counts and the batch categories of the same queries. Width-law verdicts
    are memoized on the prediction's exact bytes."""

    def __init__(self, ref_counts, batch_categories):
        self.ref_counts = ref_counts.tolist()
        self.batch_categories = batch_categories.tolist()
        self._verdicts = {}

    def __call__(self, i, pred):
        if pred.category != self.batch_categories[i]:
            return False
        key = (pred.category, pred.lower.tobytes(), pred.upper.tobytes())
        ok = self._verdicts.get(key)
        if ok is None:
            ok = self._verdicts[key] = width_law_holds(self.ref_counts[pred.category], pred)
        return ok


class Server:
    """Answers the query stream one `predict` call at a time, keeping its
    place in the stream between calls to `serve`."""

    def __init__(self, predictor, q_emb, q_soft, check, tally, clock):
        self.predictor = predictor
        self.q_emb, self.q_soft = q_emb, q_soft
        self.check, self.tally = check, tally
        self.clock = clock
        self.latencies = array("d")  # seconds per call

    def serve(self, seconds, min_total=0, tracer=None):
        """Serve until `seconds` have passed and at least `min_total`
        queries have been served since construction."""
        table, taxonomy = self.predictor.table, self.predictor.taxonomy
        n = len(self.q_emb)
        clock = self.clock
        deadline = time.perf_counter() + seconds
        while len(self.latencies) < min_total or time.perf_counter() < deadline:
            served = len(self.latencies)
            i = served % n
            soft = None if self.q_soft is None else self.q_soft[i]
            if tracer is not None:
                tracer.request = f"query-{served}"
            t0 = clock()
            try:
                pred = predict(table, taxonomy, embedding=self.q_emb[i], softmax=soft)
            except Exception as exc:  # a failed request is counted, not fatal
                self.latencies.append(clock() - t0)
                self.tally.record(False, f"query {i}: {exc!r}")
            else:
                self.latencies.append(clock() - t0)
                self.tally.record(self.check(i, pred), f"query {i}: category {pred.category}")


def prepare(w, seed, work):
    """Write the workload's CSV; return its RunConfig and the query stream.

    The seed drives the inputs only. The RunConfig, training seed included,
    is part of the workload: the k-d tree's cost in a learned embedding
    varies by up to 1.7x with the training seed, but by about 6% across
    data seeds at a fixed training seed."""
    data_csv = os.path.join(work, "data.csv")
    save_csv(make_dataset(w, w.rows, (seed, 0)), data_csv)
    cfg = RunConfig(data_csv=data_csv, **w.config)
    return cfg, make_dataset(w, w.queries, (seed, 1))


def embed_stream(cfg, predictor, queries):
    if cfg.embedding == SIAMESE:
        return forward_batch(predictor.params, queries.features)
    return queries.features


def _metric(value, unit):
    return {"value": float(value), "unit": unit}


def end_to_end(pipeline_s, setup_s, latencies, round_starts):
    bounds = [*round_starts, len(latencies)]
    p99 = [statistics.quantiles(latencies[a:b], n=100)[98] for a, b in zip(bounds, bounds[1:])]
    return {
        "pipeline_s": _metric(statistics.median(pipeline_s), "s"),
        "setup_s": _metric(statistics.median(setup_s), "s"),
        "predict_p50_ms": _metric(statistics.median(latencies) * 1e3, "ms"),
        "predict_p99_ms": _metric(statistics.median(p99) * 1e3, "ms"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(tracer, untraced_pipeline_s, report, clamps):
    st = tracer.stats()

    def total_s(name):
        return st.get(name, (0, 0, 0))[1] / 1e9

    def self_s(name):
        return st.get(name, (0, 0, 0))[2] / 1e9

    def calls(name):
        return st.get(name, (0, 0, 0))[0]

    def per_call_us(name, index):
        c = st.get(name, (0, 0, 0))
        return c[index] / c[0] / 1e3 if c[0] else 0.0

    layer_self = {}
    for name, (_, _, self_ns) in tracer.stats(request="pipeline").items():
        layer = name.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0) + self_ns
    traced_s = total_s("pipeline.run_pipeline")
    pairs = tracer.counts["mlp.train_siamese.pairs"]
    predictions = calls("ivp.predict")
    m = {
        "pipeline.run_pipeline.s": _metric(traced_s, "s"),
        "pipeline.trace_overhead_ratio": _metric(
            (traced_s - untraced_pipeline_s) / untraced_pipeline_s, "ratio"),
    }
    for layer in ("pipeline", "data", "mlp", "space", "taxonomy", "ivp", "metrics"):
        m[f"{layer}.self_s"] = _metric(layer_self.get(layer, 0) / 1e9, "s")
    m.update({
        "data.load_csv.s": _metric(total_s("data.load_csv"), "s"),
        "data.load_csv.rows": _metric(tracer.counts["data.load_csv.rows"], "count"),
        "data.split.s": _metric(total_s("data.split"), "s"),
        "mlp.train_siamese.s": _metric(total_s("mlp.train_siamese"), "s"),
        "mlp.train_siamese.pairs": _metric(pairs, "count"),
        "mlp.train_siamese.us_per_pair": _metric(
            total_s("mlp.train_siamese") / pairs * 1e6 if pairs else 0.0, "us"),
        "mlp.forward_batch.s": _metric(total_s("mlp.forward_batch"), "s"),
        "mlp.forward_batch.rows": _metric(tracer.counts["mlp.forward_batch.rows"], "count"),
        "mlp.save_params.s": _metric(total_s("mlp.save_params"), "s"),
        "mlp.load_params.s": _metric(total_s("mlp.load_params"), "s"),
        "space.knn.calls": _metric(calls("space.knn"), "count"),
        "space.knn.s": _metric(total_s("space.knn"), "s"),
        "space.knn.us_per_call": _metric(per_call_us("space.knn", 1), "us"),
        "space.build_index.s": _metric(total_s("space.build_index"), "s"),
        "taxonomy.fit_taxonomy.s": _metric(total_s("taxonomy.fit_taxonomy"), "s"),
        "taxonomy.assign_many.s": _metric(total_s("taxonomy.assign_many"), "s"),
        "taxonomy.assign.calls": _metric(calls("taxonomy.assign"), "count"),
        "taxonomy.assign.self_us": _metric(per_call_us("taxonomy.assign", 2), "us"),
        "taxonomy.knn_v2_clamps": _metric(clamps, "count"),
        "ivp.calibrate.self_s": _metric(self_s("ivp.calibrate"), "s"),
        "ivp.predict.calls": _metric(predictions, "count"),
        "ivp.predict.self_us": _metric(per_call_us("ivp.predict", 2), "us"),
        "ivp.save_table.s": _metric(total_s("ivp.save_table"), "s"),
        "ivp.load_table.s": _metric(total_s("ivp.load_table"), "s"),
        "ivp.empty_category_ratio": _metric(
            tracer.counts["ivp.predict.empty_category"] / predictions if predictions else 0.0,
            "ratio"),
        "metrics.build_report.s": _metric(total_s("metrics.build_report"), "s"),
        "metrics.build_report.records": _metric(
            tracer.counts["metrics.build_report.records"], "count"),
        "metrics.curves_csv.s": _metric(total_s("metrics.curves_csv"), "s"),
        "metrics.accuracy": _metric(report.accuracy, "ratio"),
        "metrics.ece": _metric(report.ece, "ratio"),
        "metrics.mean_width": _metric(report.diameter, "ratio"),
    })
    return m, sum(layer_self.values()) == st["pipeline.run_pipeline"][1]


def traced_pass(cfg, out_dir, q_emb, q_soft, check, tally, clock, ece_ceiling):
    """One pipeline run, one set-up and one pass over the stream, with
    spans on. Returns the tracer and the clamp count."""
    tracer = tracing.Tracer(clock)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RuntimeWarning)
        with tracing.installed(tracer, sys.modules[__name__]):
            tracer.request = "pipeline"
            run_once(cfg, out_dir, tally, clock, ece_ceiling)
            tracer.request = "setup"
            predictor = set_up(cfg, out_dir)
            Server(predictor, q_emb, q_soft, check, tally, clock).serve(0, len(q_emb), tracer)
    clamps = sum(CLAMP_WARNING in str(w.message) for w in caught)
    return tracer, clamps


def run(name, w, seed, seconds, trace, work, clock):
    tally = Tally()
    cfg, queries = prepare(w, seed, work)
    out_dirs = [os.path.join(work, f"run{r}") for r in range(ROUNDS)]
    pipeline_s, setup_s, round_starts = [], [], []
    for r in range(ROUNDS):
        s, result = run_once(cfg, out_dirs[r], tally, clock, w.ece_ceiling)
        pipeline_s.append(s)
        for _ in range(SETUPS_PER_ROUND):
            t0 = clock()
            predictor = set_up(cfg, out_dirs[0])
            setup_s.append(clock() - t0)
        if r == 0:
            reference = result.report
            q_emb = embed_stream(cfg, predictor, queries)
            check = ServeCheck(
                result.table.counts,
                result.taxonomy.assign_many(embeddings=q_emb, softmaxes=queries.softmaxes),
            )
            server = Server(predictor, q_emb, queries.softmaxes, check, tally, clock)
        if not trace:
            round_starts.append(len(server.latencies))
            floor = round_starts[-1] + ROUND_QUERIES
            server.serve(seconds / ROUNDS, max(floor, len(queries)) if r == ROUNDS - 1 else floor)
    info = {
        "accuracy": reference.accuracy,
        "ece": reference.ece,
        "mean_width": reference.diameter,
        "pipeline_runs_s": pipeline_s,
    }
    if trace:
        out_dirs.append(os.path.join(work, "traced"))
        tracer, clamps = traced_pass(
            cfg, out_dirs[-1], q_emb, queries.softmaxes, check, tally, clock, w.ece_ceiling)
        metrics, sums_match = per_layer(tracer, statistics.median(pipeline_s), reference, clamps)
        tally.record(sums_match, "per-layer self times do not sum to run_pipeline")
        tracer.dump(os.path.join(os.path.dirname(work), f"spans-{name}.jsonl"))
        info["spans"] = len(tracer.spans)
    else:
        metrics = end_to_end(pipeline_s, setup_s, server.latencies, round_starts)
        info["served"] = len(server.latencies)
    check_artifacts(out_dirs, tally)
    info["failed_ratio"] = tally.failed / tally.attempted
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
        "info": info,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--toy", action="store_true")
    args = parser.parse_args(argv)
    w = WORKLOADS[args.workload]
    w = toy(w) if args.toy else w
    os.makedirs(args.work_dir, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=args.work_dir)
    clock = SpeedClock()
    try:
        result = run(args.workload, w, args.seed, args.seconds, args.trace, work, clock)
    finally:
        clock.stop()
        shutil.rmtree(work, ignore_errors=True)
    result["info"]["probe_quartiles_ms"] = clock.probe_quartiles_ms()
    result["info"].update(
        python=sys.version.split()[0],
        numpy=np.__version__,
        blas=np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version"),
    )
    print(json.dumps(result))


if __name__ == "__main__":
    main()
