"""Config parsing, the end-to-end pipeline, artifacts, and the CLI."""

import argparse
import ast
import importlib.util
import os
import subprocess
import sys
import time
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from ivenn import cli, ivp
from ivenn.data import Dataset, SplitSpec, load_csv, save_csv, split, synth_gaussians
from ivenn.ivp import predict, predict_many
from ivenn.metrics import EvalBatch, build_report, cumulative, curves_csv, report_text
from ivenn.mlp import CLASSIFIER, EMBEDDING, MlpParams, TrainConfig, init_params, save_params
from ivenn.pipeline import (
    PipelineError,
    RunConfig,
    _derived,
    load_predictions,
    parse_config,
    run_pipeline,
)
from ivenn.taxonomy import TaxonomyConfig, TaxonomyKind, field_types, format_value, value_parser

# 20 fixed points: two 2-D clusters around (0,0) and (6,6), labels 0/1
HAND_FEATURES = np.array(
    [
        [0.1, -0.2], [0.4, 0.3], [-0.5, 0.1], [0.2, 0.6], [-0.3, -0.4],
        [0.7, -0.1], [-0.1, 0.5], [0.3, -0.6], [-0.6, -0.2], [0.5, 0.4],
        [6.1, 5.8], [5.7, 6.2], [6.4, 6.1], [5.9, 5.6], [6.2, 6.5],
        [5.6, 5.9], [6.6, 6.3], [5.8, 6.4], [6.3, 5.7], [6.0, 6.0],
    ]
)
HAND_LABELS = np.array([0] * 10 + [1] * 10)


def hand_dataset():
    return Dataset(
        ids=np.arange(20, dtype=np.int64),
        features=HAND_FEATURES.copy(),
        labels=HAND_LABELS.copy(),
        class_count=2,
    )


def hand_ivp_oracle(seed):
    """Nearest-centroid IVP on the 20 fixed points, written with plain loops
    and the interval formula only; no library calls past the splitter."""
    proper, cal, test = split(hand_dataset(), SplitSpec(seed=seed))

    centroids = []
    for c in (0, 1):
        members = [x for x, y in zip(proper.features, proper.labels) if y == c]
        centroids.append(np.array(members).mean(axis=0))

    def category(x):
        d = [float(np.sqrt(((x - mu) ** 2).sum())) for mu in centroids]
        return 0 if d[0] <= d[1] else 1

    counts = [[0, 0], [0, 0]]
    for x, y in zip(cal.features, cal.labels):
        counts[category(x)][int(y)] += 1

    out = []
    for x in test.features:
        kappa = category(x)
        total = counts[kappa][0] + counts[kappa][1]
        lower = [counts[kappa][j] / (total + 1) for j in (0, 1)]
        upper = [(counts[kappa][j] + 1) / (total + 1) for j in (0, 1)]
        mean = [(lower[j] + upper[j]) / 2 for j in (0, 1)]
        best = 0 if mean[0] >= mean[1] else 1
        out.append((kappa, lower, upper, best))
    return out, test.labels


class TestParseConfig:
    def test_full_config(self):
        cfg = parse_config(
            """
            # a comment
            data_csv = data.csv
            taxonomy = knn_v2
            k = 7
            theta = none
            hidden_dims = 8,4
            embedding_dim = 2
            learning_rate = 0.1
            seed = 12   # trailing comment
            """
        )
        assert cfg.data_csv == "data.csv"
        assert cfg.taxonomy == "knn_v2" and cfg.k == 7
        assert cfg.hidden_dims == (8, 4) and cfg.embedding_dim == 2
        assert cfg.learning_rate == 0.1 and cfg.seed == 12
        assert cfg.theta is None

    @pytest.mark.parametrize(
        "line, value",
        [("out_dir = results#2", "results#2"), ("data_csv = runs/#3/data.csv", "runs/#3/data.csv"),
         ("out_dir = results#2  # the second try", "results#2"), ("out_dir = out\t# tab", "out")],
    )
    def test_hash_inside_a_value_is_kept(self, line, value):
        # a `#` starts a comment only at the start of a line or after whitespace
        key = line.split("=")[0].strip()
        assert getattr(parse_config(line), key) == value

    def test_unknown_key(self):
        with pytest.raises(ValueError, match="unknown key"):
            parse_config("no_such_thing = 1")

    def test_malformed_line(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_config("just words")

    def test_invalid_taxonomy(self):
        with pytest.raises(ValueError):
            parse_config("taxonomy = nc_v9")

    def test_repeated_key(self, tmp_path):
        # the same wording as a calibration table header's repeated key
        with pytest.raises(ValueError, match=r"^config line 3: seed repeated$"):
            parse_config("seed = 1\n# again\nseed = 2\n")
        path = tmp_path / "run.cfg"
        path.write_text("epochs = 5\ntaxonomy = nc_v1\nepochs = 5\n")
        with pytest.raises(ValueError, match=r"^config line 3: epochs repeated$"):
            parse_config(path.read_text())

    @pytest.mark.parametrize(
        "key, expected",
        [
            ("data_csv", None),
            ("model_path", None),
            ("class_count", None),
            ("theta", None),
            ("out_dir", "none"),
            ("seed", "int"),
            ("epochs", "int"),
            ("k", "int"),
            ("bins", "int"),
            ("learning_rate", "float"),
            ("test_fraction", "float"),
            ("hidden_dims", "tuple"),
        ],
    )
    def test_none_only_for_optional_fields(self, key, expected):
        # an optional field reads none as None, a str field keeps the word,
        # and any other field rejects it, naming the line and the key
        text = f"# header\n{key} = none\n"
        if expected in ("int", "float", "tuple"):
            with pytest.raises(
                ValueError, match=rf"config line 2: {key}: invalid {expected} value: 'none'"
            ):
                parse_config(text)
        else:
            assert getattr(parse_config(text), key) == expected

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize(
        "key",
        ["theta", "max_output_threshold", "second_output_threshold", "output_gap_threshold",
         "margin", "learning_rate"],
    )
    def test_non_finite_value_is_named(self, key, value):
        # nan fails every comparison, so a range check alone would let it
        # through: nc_v2 would put every example "within theta"
        with pytest.raises(ValueError, match=rf"^{key} must be finite, got {value}$"):
            parse_config(f"taxonomy = nc_v2\n{key} = {value}\n")

    def test_negative_seed_is_named(self):
        with pytest.raises(ValueError, match=r"^seed must be nonnegative, got -1$"):
            parse_config("seed = -1")

    @pytest.mark.parametrize(
        "taxonomy, embedding",
        [("knn_v2", "identity"), ("nc_v1", "identity"), ("base_v2", "siamese"),
         ("base_v1", "identity")],
    )
    def test_model_path_the_run_would_not_read(self, taxonomy, embedding):
        # only a distance taxonomy over a siamese embedding loads model_path
        message = (rf"^model_path '/nonexistent\.npz' is read only by a distance taxonomy with "
                   rf"embedding siamese, not taxonomy {taxonomy} with embedding {embedding}$")
        with pytest.raises(ValueError, match=message):
            RunConfig(taxonomy=taxonomy, embedding=embedding, model_path="/nonexistent.npz")
        with pytest.raises(ValueError, match=message):
            parse_config(f"taxonomy = {taxonomy}\nembedding = {embedding}\n"
                         "model_path = /nonexistent.npz\n")
        for kind in ("knn_v1", "knn_v2", "nc_v1", "nc_v2"):
            assert RunConfig(taxonomy=kind, model_path="m.npz").model_path == "m.npz"


class TestRunPipeline:
    def test_identity_matches_hand_oracle(self, tmp_path):
        """The full pipeline on identity embeddings must reproduce a
        loop-and-formula oracle prediction for prediction."""
        seed = 4
        cfg = RunConfig(
            out_dir=str(tmp_path), taxonomy="nc_v1", embedding="identity", seed=seed
        )
        result = run_pipeline(cfg, dataset=hand_dataset(), stop_after="predict")
        expected, test_labels = hand_ivp_oracle(seed)
        records = result.records
        assert len(records.labels) == len(expected) == 2
        for k, (kappa, lower, upper, best) in zip(records.category, expected):
            assert k == kappa
            assert records.rows.predicted[k] == best
            np.testing.assert_array_equal(records.rows.lower[k], lower)
            np.testing.assert_array_equal(records.rows.upper[k], upper)
        for label, y in zip(records.labels, test_labels):
            assert label == int(y)

    def test_identity_oracle_across_seeds(self, tmp_path):
        for seed in (0, 1, 2, 7):
            cfg = RunConfig(
                out_dir=str(tmp_path), taxonomy="nc_v1", embedding="identity", seed=seed
            )
            result = run_pipeline(cfg, dataset=hand_dataset(), stop_after="predict")
            expected, _ = hand_ivp_oracle(seed)
            records = result.records
            got = [(k, records.rows.predicted[k]) for k in records.category]
            assert got == [(k, b) for k, _, _, b in expected]

    def test_synthetic_nc_report_populated(self, tmp_path):
        ds = synth_gaussians(3, 3, 300, 4.0, seed=1)
        cfg = RunConfig(out_dir=str(tmp_path), taxonomy="nc_v1", embedding="identity")
        report = run_pipeline(cfg, dataset=ds).report
        for name in ("accuracy", "nll_sum", "nll_mean", "brier", "diameter", "ece", "mce"):
            assert np.isfinite(getattr(report, name))
        assert report.n == len(run_pipeline(cfg, dataset=ds).records.labels)

    def test_baseline_without_scores_is_config_error(self, tmp_path):
        ds = synth_gaussians(2, 2, 100, 4.0, seed=2)
        cfg = RunConfig(out_dir=str(tmp_path), taxonomy="base_v1", embedding="identity")
        with pytest.raises(PipelineError, match="stage 'softmax'.*scores"):
            run_pipeline(cfg, dataset=ds)

    @pytest.mark.parametrize(
        "field, value",
        [("bins", 0), ("k", 0), ("theta", -1.0), ("theta", float("nan")), ("seed", -1)],
    )
    def test_bad_config_fails_before_load(self, tmp_path, field, value):
        # a value only the report or taxonomy stage reads still fails up
        # front, as a plain ValueError, before any stage runs or writes
        ds = synth_gaussians(2, 2, 50, 4.0, seed=3)
        out = tmp_path / "out"
        with pytest.raises(ValueError, match=f"^{field} must"):
            cfg = RunConfig(out_dir=str(out), taxonomy="knn_v1", embedding="identity",
                            **{field: value})
            run_pipeline(cfg, dataset=ds)
        assert not out.exists()

    @pytest.mark.parametrize(
        "given",
        [
            dict(embedding_dim=0),
            dict(hidden_dims=(0,)),
            dict(hidden_dims=(-3,)),
            dict(taxonomy="base_v2", embedding="identity", softmax_source="train",
                 hidden_dims=(4, 0)),
        ],
        ids=["embedding_dim 0", "hidden 0", "hidden -3", "classifier hidden 0"],
    )
    def test_bad_network_size_fails_before_load(self, tmp_path, given):
        ds = synth_gaussians(2, 2, 50, 4.0, seed=3)
        out = tmp_path / "out"
        with pytest.raises(ValueError, match="^layer_dims needs at least two positive"):
            cfg = RunConfig(**{"out_dir": str(out), "taxonomy": "nc_v1", **given})
            run_pipeline(cfg, dataset=ds)
        assert not out.exists()

    def test_stage_name_in_errors(self, tmp_path):
        cfg = RunConfig(data_csv=str(tmp_path / "absent.csv"), out_dir=str(tmp_path))
        with pytest.raises(PipelineError, match="stage 'load'"):
            run_pipeline(cfg)

    def test_diverged_training_names_stage_and_epoch(self, tmp_path):
        ds = synth_gaussians(2, 2, 50, 4.0, seed=3)
        ds = Dataset(ds.ids, ds.features * 1e6, ds.labels, ds.class_count)
        cfg = RunConfig(
            out_dir=str(tmp_path), taxonomy="nc_v1", hidden_dims=(),
            embedding_dim=2, learning_rate=1e305, epochs=3,
        )
        with np.errstate(all="ignore"):
            with pytest.raises(PipelineError, match="stage 'train'.*diverged at epoch 1"):
                run_pipeline(cfg, dataset=ds)
        # a baseline's score network is the run's network, trained as stage 'train'
        cfg = RunConfig(
            out_dir=str(tmp_path), taxonomy="base_v2", softmax_source="train",
            hidden_dims=(), learning_rate=1e305, epochs=3,
        )
        with np.errstate(all="ignore"):
            with pytest.raises(PipelineError, match="^stage 'train':.*diverged at epoch 1"):
                run_pipeline(cfg, dataset=ds)

    def test_saturated_training_names_stage(self, tmp_path):
        ds = synth_gaussians(2, 2, 50, 4.0, seed=3)
        cfg = RunConfig(
            out_dir=str(tmp_path), taxonomy="nc_v1", hidden_dims=(4,),
            embedding_dim=2, learning_rate=1e300, epochs=3,
        )
        with np.errstate(all="ignore"):
            with pytest.raises(PipelineError, match="stage 'train'.*saturated"):
                run_pipeline(cfg, dataset=ds)

    def test_overflowing_model_fails_at_embed(self, tmp_path):
        # a loaded model whose output overflows for one example must fail
        # as stage 'embed', naming that example, not later in the k-NN index
        model = str(tmp_path / "model.npz")
        save_params(
            MlpParams(
                layer_dims=[2, 2], weights=[np.diag([1e307, 1.0])],
                biases=[np.zeros(2)], mode=EMBEDDING,
            ),
            model,
        )
        features = HAND_FEATURES.copy()
        features[13, 0] = 50.0
        ds = Dataset(np.arange(20, dtype=np.int64) + 100, features, HAND_LABELS, 2)
        cfg = RunConfig(
            out_dir=str(tmp_path), taxonomy="knn_v1", k=3, model_path=model, seed=1,
            test_fraction=0.25, calibration_fraction=0.4,
        )
        with np.errstate(over="ignore"):
            with pytest.raises(
                PipelineError, match="stage 'embed'.*example id 113 is not finite"
            ):
                run_pipeline(cfg, dataset=ds)

    def test_byte_identical_reruns(self, tmp_path):
        ds = synth_gaussians(3, 4, 200, 3.0, seed=5)
        outs = []
        for name in ("a", "b"):
            cfg = RunConfig(
                out_dir=str(tmp_path / name),
                taxonomy="knn_v1",
                k=3,
                embedding="siamese",
                hidden_dims=(6,),
                embedding_dim=2,
                epochs=8,
                seed=7,
            )
            run_pipeline(cfg, dataset=ds)
            outs.append(tmp_path / name)
        for fname in ("report.txt", "curves.csv", "predictions.csv", "table.txt", "model.npz"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()

    def test_rerun_into_same_out_dir_writes_new_files(self, tmp_path):
        # a rerun replaces each artifact with a new file: a hard link to the
        # first run's file keeps its bytes, and a symlinked artifact becomes
        # a regular file while its target is left alone
        ds = synth_gaussians(3, 4, 60, 3.0, seed=5)
        out, first = tmp_path / "out", tmp_path / "first"
        cfg = RunConfig(out_dir=str(out), taxonomy="knn_v1", k=3, embedding="siamese",
                        hidden_dims=(6,), embedding_dim=2, epochs=4, seed=7)
        run_pipeline(cfg, dataset=ds)
        names = ("model.npz", "table.txt", "predictions.csv", "report.txt", "curves.csv",
                 "timing.txt")
        first.mkdir()
        for name in names:
            (first / name).hardlink_to(out / name)
        target = tmp_path / "elsewhere.txt"
        target.write_text("keep")
        (out / "report.txt").unlink()
        (out / "report.txt").symlink_to(target)
        run_pipeline(cfg, dataset=ds)
        for name in names:
            assert not (out / name).samefile(first / name)
            if name != "timing.txt":
                assert (out / name).read_bytes() == (first / name).read_bytes()
        assert not (out / "report.txt").is_symlink() and target.read_text() == "keep"

    def test_stop_after_writes_prefix_artifacts(self, tmp_path):
        ds = synth_gaussians(2, 2, 120, 5.0, seed=3)
        base = dict(taxonomy="nc_v1", embedding="siamese", hidden_dims=(4,),
                    embedding_dim=2, epochs=3, seed=1)

        cfg = RunConfig(out_dir=str(tmp_path / "t"), **base)
        result = run_pipeline(cfg, dataset=ds, stop_after="train")
        assert (tmp_path / "t" / "model.npz").exists()
        assert not (tmp_path / "t" / "table.txt").exists()
        assert result.table is None and result.report is None and result.records is None

        cfg = RunConfig(out_dir=str(tmp_path / "c"), **base)
        result = run_pipeline(cfg, dataset=ds, stop_after="calibrate")
        assert (tmp_path / "c" / "table.txt").exists()
        assert not (tmp_path / "c" / "predictions.csv").exists()
        assert result.table is not None and result.report is None and result.records is None

        cfg = RunConfig(out_dir=str(tmp_path / "p"), **base)
        result = run_pipeline(cfg, dataset=ds, stop_after="predict")
        assert (tmp_path / "p" / "predictions.csv").exists()
        assert (tmp_path / "p" / "timing.txt").exists()
        assert not (tmp_path / "p" / "report.txt").exists()
        assert result.records is not None and result.report is None

    @pytest.mark.parametrize(
        "taxonomy, softmax_source, network",
        [pytest.param(kind, "csv", ["model.npz"], id=kind)
         for kind in ("knn_v1", "knn_v2", "nc_v1", "nc_v2")]
        + [pytest.param(kind, "csv", [], id=kind)
           for kind in ("base_v1", "base_v2", "base_v3", "base_v4")]
        + [pytest.param("base_v2", "train", ["classifier.npz"], id="base_v2-train")],
    )
    def test_each_prefix_writes_a_subset_of_the_full_run(
        self, tmp_path, taxonomy, softmax_source, network
    ):
        # the staged subcommands stop earlier along the same path: every file
        # a prefix writes is the full run's file, byte for byte, and `train`
        # writes the run's network
        given = dict(taxonomy=taxonomy, softmax_source=softmax_source, hidden_dims=(4,),
                     embedding_dim=2, epochs=3, seed=1)
        written = {}
        for stop in ("train", "calibrate", "predict", "report"):
            out = tmp_path / stop
            run_pipeline(RunConfig(out_dir=str(out), **given), dataset=scored_dataset(),
                         stop_after=stop)
            written[stop] = {p.name: p.read_bytes() for p in out.iterdir()
                             if p.name != "timing.txt"}
        full = written.pop("report")
        for stop, files in written.items():
            assert files.items() <= full.items(), stop
        assert sorted(written["train"]) == network

    def test_model_reuse_gives_same_report(self, tmp_path):
        ds = synth_gaussians(2, 3, 150, 4.0, seed=9)
        base = dict(taxonomy="nc_v1", embedding="siamese", hidden_dims=(5,),
                    embedding_dim=2, epochs=5, seed=2)
        cfg = RunConfig(out_dir=str(tmp_path / "full"), **base)
        run_pipeline(cfg, dataset=ds)

        reuse = RunConfig(
            out_dir=str(tmp_path / "reuse"),
            model_path=str(tmp_path / "full" / "model.npz"),
            **base,
        )
        run_pipeline(reuse, dataset=ds)
        assert (tmp_path / "full" / "report.txt").read_bytes() == (
            tmp_path / "reuse" / "report.txt"
        ).read_bytes()

    def test_trained_softmax_baseline_runs(self, tmp_path):
        ds = synth_gaussians(3, 3, 200, 4.0, seed=4)
        cfg = RunConfig(
            out_dir=str(tmp_path),
            taxonomy="base_v2",
            embedding="identity",
            softmax_source="train",
            hidden_dims=(6,),
            epochs=20,
            seed=3,
        )
        result = run_pipeline(cfg, dataset=ds)
        assert (tmp_path / "classifier.npz").exists()
        assert result.report.n == len(result.records.labels)

    def test_curves_csv_written_in_blocks(self, tmp_path):
        # 4200 test rows: curves.csv is the 1024-row grid of their curves
        ds = synth_gaussians(3, 3, 2800, 4.0, seed=8)
        cfg = RunConfig(
            out_dir=str(tmp_path), taxonomy="nc_v1", embedding="identity", test_fraction=0.5
        )
        curves = run_pipeline(cfg, dataset=ds).report.curves
        assert len(curves.E) == 4200
        written = (tmp_path / "curves.csv").read_bytes()
        assert written == curves_csv(curves).encode()
        assert cli.main(
            ["report", "--predictions", str(tmp_path / "predictions.csv"),
             "--report-out", str(tmp_path / "re.txt"), "--curves-out", str(tmp_path / "ce.csv")]
        ) == 0
        assert (tmp_path / "ce.csv").read_bytes() == written

    @pytest.mark.parametrize("taxonomy, per_class, test_fraction, test_rows", [
        *(pytest.param(kind.value, 250, 0.1, 75, id=kind.value) for kind in TaxonomyKind),
        *(pytest.param(kind.value, 500, 0.9, 1350, id=f"{kind.value}-grid")
          for kind in TaxonomyKind),
    ])
    def test_predictions_round_trip_report(self, tmp_path, taxonomy, per_class, test_fraction,
                                           test_rows):
        # a distance kind reads the raw features, a baseline the CSV's scores;
        # past 1024 test rows curves.csv is the 1024-row grid
        ds = synth_gaussians(3, 3, per_class, 4.0, seed=6)
        scores = np.random.default_rng(6).dirichlet(np.ones(3), len(ds))
        ds = Dataset(ds.ids, ds.features, ds.labels, 3, softmaxes=scores)
        run = tmp_path / "run"
        result = run_pipeline(RunConfig(out_dir=str(run), taxonomy=taxonomy, embedding="identity",
                                        test_fraction=test_fraction), dataset=ds)
        assert result.report.n == test_rows
        assert len((run / "curves.csv").read_text().splitlines()) == 1 + min(test_rows, 1024)
        assert cli.main(
            ["report", "--predictions", str(run / "predictions.csv"),
             "--report-out", str(tmp_path / "re.txt"), "--curves-out", str(tmp_path / "ce.csv")]
        ) == 0
        assert (tmp_path / "re.txt").read_bytes() == (run / "report.txt").read_bytes()
        assert (tmp_path / "ce.csv").read_bytes() == (run / "curves.csv").read_bytes()
        # the file holds the grid; the predictions give back every point
        full = cumulative(load_predictions(run / "predictions.csv"))
        for name in ("E", "LEP", "UEP"):
            assert getattr(full, name).tolist() == getattr(result.report.curves, name).tolist()

    def test_staged_rerun_removes_the_later_stages_artifacts(self, tmp_path):
        # a calibrate run over an evaluate run's directory leaves no
        # predictions, report, curves or timing of the first run beside its
        # own table; a train run that reuses the directory's model keeps it,
        # and a directory under an artifact's name is left alone
        ds = synth_gaussians(2, 2, 60, 5.0, seed=3)
        base = dict(out_dir=str(tmp_path), taxonomy="nc_v1", embedding="siamese",
                    hidden_dims=(4,), embedding_dim=2, epochs=3)
        run_pipeline(RunConfig(seed=1, **base), dataset=ds)
        run_pipeline(RunConfig(seed=2, **base), dataset=ds, stop_after="calibrate")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.npz", "table.txt"]
        model = (tmp_path / "model.npz").read_bytes()
        (tmp_path / "report.txt").mkdir()
        reuse = RunConfig(seed=2, model_path=str(tmp_path / "model.npz"), **base)
        run_pipeline(reuse, dataset=ds, stop_after="train")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.npz", "report.txt"]
        assert (tmp_path / "model.npz").read_bytes() == model


def edge_dataset():
    """Four classes under base_v1 on CSV-style scores, laid out so that
    calibration puts one example of each class into category 0. Its counts
    (1, 1, 1, 1) give predicted class 0 with confidence exactly 3/10, the
    right edge of bin 2, which the float midpoint 0.30000000000000004
    misses."""
    n, c = 200, 4
    probe = Dataset(
        ids=np.arange(n, dtype=np.int64), features=np.zeros((n, 1)),
        labels=np.arange(n) % c, class_count=c,
    )
    _, cal, test = split(probe, EDGE_SPLIT)
    labels = np.arange(n) % c
    category = labels.copy()
    labels[cal.ids[:c]] = np.arange(c)
    category[cal.ids[:c]] = 0
    rest = cal.ids[c:]
    labels[rest] = category[rest] = 1 + np.arange(len(rest)) % (c - 1)
    rng = np.random.default_rng(0)
    labels[test.ids] = rng.integers(0, c, len(test.ids))
    category[test.ids] = rng.integers(0, c, len(test.ids))
    scores = np.full((n, c), 0.1)
    scores[np.arange(n), category] = 0.7
    return Dataset(
        ids=probe.ids, features=rng.normal(size=(n, 1)), labels=labels,
        class_count=c, softmaxes=scores,
    )


EDGE_SPLIT = SplitSpec(test_fraction=0.2, calibration_fraction=0.25, seed=0)


def edge_config(out_dir):
    return RunConfig(
        out_dir=str(out_dir), taxonomy="base_v1", embedding="identity",
        test_fraction=EDGE_SPLIT.test_fraction,
        calibration_fraction=EDGE_SPLIT.calibration_fraction, seed=EDGE_SPLIT.seed,
    )


class TestPredictionsFile:
    def test_v3_columns_carry_the_counts(self, tmp_path):
        result = run_pipeline(edge_config(tmp_path), dataset=edge_dataset())
        lines = (tmp_path / "predictions.csv").read_text().splitlines()
        assert lines[0] == "id,label,category,n0,n1,n2,n3"
        records = result.records
        assert len(lines) == 1 + len(records.labels)
        for line, k, y in zip(lines[1:], records.category, records.labels):
            n = result.table.counts[k].tolist()
            assert [int(v) for v in line.split(",")[1:]] == [y, k, *n]

    def test_report_from_v3_is_byte_identical_on_an_edge(self, tmp_path):
        result = run_pipeline(edge_config(tmp_path / "run"), dataset=edge_dataset())
        assert result.table.counts[0].tolist() == [1, 1, 1, 1]
        records = result.records
        on_edge = int((records.category == 0).sum())
        assert on_edge > 0
        assert any(b.bin_index == 2 and b.count >= on_edge for b in result.report.bin_stats)
        # the same intervals without their counts fall back to float binning,
        # which moves the edge examples one bin up
        k, rows = records.category, records.rows
        floats = build_report(
            EvalBatch.from_intervals(rows.lower[k], rows.upper[k], records.labels), bins=10
        )
        assert report_text(floats) != report_text(result.report)

        loaded = load_predictions(tmp_path / "run" / "predictions.csv")
        assert isinstance(loaded, EvalBatch)
        assert cli.main(
            ["report", "--predictions", str(tmp_path / "run" / "predictions.csv"),
             "--report-out", str(tmp_path / "re.txt"),
             "--curves-out", str(tmp_path / "ce.csv")]
        ) == 0
        assert (tmp_path / "re.txt").read_bytes() == (tmp_path / "run" / "report.txt").read_bytes()
        assert (tmp_path / "ce.csv").read_bytes() == (tmp_path / "run" / "curves.csv").read_bytes()

    def test_header_without_counts_is_named(self, tmp_path):
        run_pipeline(edge_config(tmp_path), dataset=edge_dataset())
        lines = (tmp_path / "predictions.csv").read_text().splitlines()
        # the same rows without the n0..n3 block
        old = [",".join(ln.split(",")[:3]) for ln in lines]
        assert old[0] == "id,label,category"
        (tmp_path / "old.csv").write_text("\n".join(old) + "\n")
        with pytest.raises(ValueError, match=r"old\.csv: not a predictions header"):
            load_predictions(tmp_path / "old.csv")

    def test_rows_must_agree_with_their_category(self, tmp_path):
        run_pipeline(edge_config(tmp_path), dataset=edge_dataset())
        lines = (tmp_path / "predictions.csv").read_text().splitlines()
        cells = lines[3].split(",")
        cells[-1] = str(int(cells[-1]) + 1)
        lines[3] = ",".join(cells)
        # the blank line counts: the altered row is line 5 of the file
        (tmp_path / "bad.csv").write_text("\n".join(lines[:2] + [""] + lines[2:]) + "\n")
        with pytest.raises(ValueError, match=r"bad\.csv:5: .*disagree"):
            load_predictions(tmp_path / "bad.csv")

    def test_records_are_built_from_columns(self, tmp_path):
        ds = synth_gaussians(3, 3, 100, 4.0, seed=8)
        cfg = RunConfig(out_dir=str(tmp_path), taxonomy="nc_v2", embedding="identity")
        result = run_pipeline(cfg, dataset=ds)
        records = result.records
        assert isinstance(records, EvalBatch)
        # the examples index the table's own rows, which are not copied
        rows = result.table.rows
        assert records.rows is rows
        assert len(records.category) == len(records.labels) == result.report.n

    def test_timing_is_per_stage(self, tmp_path):
        ds = synth_gaussians(3, 3, 100, 4.0, seed=8)
        cfg = RunConfig(out_dir=str(tmp_path), taxonomy="nc_v1", embedding="identity")
        result = run_pipeline(cfg, dataset=ds)
        pairs = [ln.split(" = ") for ln in (tmp_path / "timing.txt").read_text().splitlines()]
        timing = {k: float(v) for k, v in pairs}
        stages = ["load", "split", "train", "embed", "taxonomy", "calibrate",
                  "predict", "report", "write"]
        assert list(timing) == [f"{s}_s" for s in stages] + ["predictions", "predict_us_per_row"]
        assert timing["predictions"] == len(result.records.labels)
        assert all(v >= 0 for v in timing.values())

    def test_non_finite_scores_name_stage_and_row(self, tmp_path):
        # a Dataset refuses non-finite features, so the scores overflow
        # instead: huge features aligned with a class's weights push its
        # logit past the largest float
        ds = synth_gaussians(3, 8, 100, 4.0, seed=4)
        cfg = RunConfig(
            out_dir=str(tmp_path), taxonomy="base_v2", embedding="identity",
            softmax_source="train", hidden_dims=(), epochs=5, seed=3,
        )
        W = run_pipeline(cfg, dataset=ds, stop_after="train").params.weights[0]
        _, cal, test = split(ds, SplitSpec(seed=cfg.seed))
        for ids, stage, row in ((cal.ids, "calibrate", 3), (test.ids, "predict", 5)):
            features = ds.features.copy()
            # ids are row numbers here; proper training, and so W, is unchanged
            features[ids[row]] = np.sign(W[np.abs(W).sum(axis=1).argmax()]) * 1e308
            bad = Dataset(ds.ids, features, ds.labels, ds.class_count)
            with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
                PipelineError, match=f"stage '{stage}': softmax row {row} must be finite"
            ):
                run_pipeline(cfg, dataset=bad)


class TestCli:
    def test_synth_evaluate_report_cycle(self, tmp_path, capsys):
        data = str(tmp_path / "d.csv")
        assert cli.main(
            ["synth", "--classes", "3", "--dim", "3", "--n-per-class", "150",
             "--separation", "4", "--seed", "1", "--out", data]
        ) == 0
        out1 = str(tmp_path / "r1")
        assert cli.main(
            ["evaluate", "--data", data, "--taxonomy", "nc_v1",
             "--embedding", "identity", "--out-dir", out1, "--seed", "2"]
        ) == 0
        assert "accuracy = " in capsys.readouterr().out

        out2 = str(tmp_path / "r2")
        assert cli.main(
            ["evaluate", "--data", data, "--taxonomy", "nc_v1",
             "--embedding", "identity", "--out-dir", out2, "--seed", "2"]
        ) == 0
        a = (tmp_path / "r1" / "report.txt").read_bytes()
        b = (tmp_path / "r2" / "report.txt").read_bytes()
        assert a == b

        assert cli.main(
            ["report", "--predictions", str(tmp_path / "r1" / "predictions.csv"),
             "--report-out", str(tmp_path / "re.txt"),
             "--curves-out", str(tmp_path / "ce.csv")]
        ) == 0
        assert (tmp_path / "re.txt").read_bytes() == a

    def test_float_ids_give_a_predictions_csv_report_reads(self, tmp_path, capsys):
        synth = synth_gaussians(2, 2, 40, 5.0, seed=2)
        ds = Dataset(synth.ids.astype(float), synth.features, synth.labels, synth.class_count)
        out = tmp_path / "run"
        run_pipeline(
            RunConfig(out_dir=str(out), taxonomy="nc_v1", embedding="identity", seed=1),
            dataset=ds,
        )
        ids = [line.split(",")[0] for line in (out / "predictions.csv").read_text().splitlines()]
        assert ids[0] == "id" and all(i.isdigit() for i in ids[1:])
        assert cli.main(
            ["report", "--predictions", str(out / "predictions.csv"),
             "--report-out", str(tmp_path / "re.txt"), "--curves-out", str(tmp_path / "ce.csv")]
        ) == 0
        assert (tmp_path / "re.txt").read_bytes() == (out / "report.txt").read_bytes()

    def test_train_then_embed(self, tmp_path, capsys):
        data = str(tmp_path / "d.csv")
        cli.main(["synth", "--classes", "2", "--dim", "2", "--n-per-class", "80",
                  "--separation", "5", "--seed", "3", "--out", data])
        run = str(tmp_path / "run")
        assert cli.main(
            ["train", "--data", data, "--embedding", "siamese",
             "--hidden-dims", "4", "--embedding-dim", "2", "--epochs", "3",
             "--out-dir", run, "--seed", "1"]
        ) == 0
        emb_out = str(tmp_path / "emb.csv")
        assert cli.main(
            ["embed", "--model", f"{run}/model.npz", "--data", data, "--out", emb_out]
        ) == 0
        lines = (tmp_path / "emb.csv").read_text().strip().split("\n")
        assert lines[0] == "id,label,e0,e1"
        assert len(lines) == 161

    def test_embed_rejects_non_finite_output(self, tmp_path, capsys):
        # the weight overflows for the second example only: it is named by
        # its id, and no embeddings file is written
        model = str(tmp_path / "model.npz")
        save_params(
            MlpParams(
                layer_dims=[1, 1], weights=[np.array([[1e308]])],
                biases=[np.zeros(1)], mode=EMBEDDING,
            ),
            model,
        )
        data = tmp_path / "d.csv"
        data.write_text("id,label,f0\n7,0,1.0\n8,1,2.0\n")
        out = tmp_path / "emb.csv"
        with np.errstate(over="ignore"):
            code = cli.main(["embed", "--model", model, "--data", str(data), "--out", str(out)])
        assert code == 2
        assert "embedding of example id 8 is not finite" in capsys.readouterr().err
        assert not out.exists()

    def test_embed_non_finite_output_names_the_data_and_the_model(self, tmp_path, capsys):
        model = tmp_path / "model.npz"
        save_params(MlpParams([1, 1], [np.array([[1e308]])], [np.zeros(1)], EMBEDDING), model)
        data = tmp_path / "d.csv"
        data.write_text("id,label,f0\n7,0,1.0\n8,1,2.0\n")
        argv = ["embed", "--model", str(model), "--data", str(data), "--out", str(tmp_path / "e")]
        with np.errstate(over="ignore"):
            assert cli.main(argv) == 2
        assert capsys.readouterr().err == (
            f"error: {data} with model {model}: embedding of example id 8 is not finite "
            f"(nan or inf)\n"
        )

    @pytest.mark.parametrize(
        "mode, width, message",
        [(CLASSIFIER, 2, "{model} is not an embedding model"),
         (EMBEDDING, 3, "model expects 3 features, data has 2")],
        ids=["classifier", "input width"],
    )
    def test_embed_rejects_a_model_it_cannot_run(self, tmp_path, capsys, mode, width, message):
        model = tmp_path / "model.npz"
        save_params(init_params([width, 2], mode), model)
        data = tmp_path / "d.csv"
        data.write_text("id,label,f0,f1\n7,0,1.0,2.0\n8,1,2.0,1.0\n")
        out = tmp_path / "emb.csv"
        assert cli.main(["embed", "--model", str(model), "--data", str(data),
                         "--out", str(out)]) == 2
        message = message.format(model=model)
        assert capsys.readouterr().err == f"error: {data} with model {model}: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda a: a.pop("version"), "model file has no array 'version'"),
            (lambda a: a.pop("b0"), "model file has no array 'b0'"),
            (lambda a: a.update(w0=np.zeros((2, 3))),
             "w0 is float64 (2, 3), layer_dims [2, 3] need float (3, 2)"),
            (lambda a: a.update(mode="ranking"), "unknown mode ranking"),
        ],
        ids=["no version", "no bias", "transposed weight", "unknown mode"],
    )
    def test_embed_rejects_bad_model_file(self, tmp_path, capsys, edit, message):
        arrays = dict(version=np.int64(1), mode="embedding", layer_dims=np.array([2, 3]),
                      w0=np.zeros((3, 2)), b0=np.zeros(3))
        edit(arrays)
        model = tmp_path / "bad.npz"
        with open(model, "wb") as f:
            np.savez(f, **arrays)
        data = tmp_path / "d.csv"
        data.write_text("id,label,f0,f1\n7,0,1.0,2.0\n")
        out = tmp_path / "emb.csv"
        code = cli.main(["embed", "--model", str(model), "--data", str(data), "--out", str(out)])
        assert code == 2
        assert f"{model}: {message}" in capsys.readouterr().err
        assert not out.exists()

    @staticmethod
    def report_after_editing_line_4(tmp_path, capsys, edit):
        """Run `report` on an nc_v1 predictions.csv whose line 4 cells went
        through `edit`; returns (exit code, stderr, header cells)."""
        data = str(tmp_path / "d.csv")
        cli.main(["synth", "--classes", "2", "--dim", "2", "--n-per-class", "40",
                  "--separation", "5", "--seed", "2", "--out", data])
        run = tmp_path / "run"
        assert cli.main(
            ["evaluate", "--data", data, "--taxonomy", "nc_v1", "--embedding", "identity",
             "--out-dir", str(run), "--seed", "1"]
        ) == 0
        path = run / "predictions.csv"
        lines = path.read_text().splitlines()
        lines[3] = ",".join(edit(lines[3].split(",")))
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        code = cli.main(
            ["report", "--predictions", str(path), "--report-out", str(tmp_path / "r.txt"),
             "--curves-out", str(tmp_path / "c.csv")]
        )
        return code, capsys.readouterr().err, lines[0].split(",")

    @pytest.mark.parametrize(
        "column, value", [(0, "99999999999999999999"), (1, "-9223372036854775809"),
                          (2, "9223372036854775808"), (4, "99999999999999999999")]
    )
    def test_report_names_int64_overflow(self, tmp_path, capsys, column, value):
        def edit(cells):
            cells[column] = value
            return cells

        code, err, header = self.report_after_editing_line_4(tmp_path, capsys, edit)
        assert code == 2
        assert f"predictions.csv:4: {header[column]} {value} outside int64" in err

    @pytest.mark.parametrize(
        "column, value, message",
        [
            (3, "abc", "n0 cell 'abc' is not an integer"),
            (4, "", "n1 cell '' is not an integer"),
            (1, "1.5", "label cell '1.5' is not an integer"),
            (2, "x", "category cell 'x' is not an integer"),
            (2, "-3", "category -3 is negative"),
            (4, "-1", "n1 -1 is negative"),
        ],
        ids=["text count", "empty count", "float label", "text category",
             "negative category", "negative count"],
    )
    def test_report_names_bad_cell(self, tmp_path, capsys, column, value, message):
        def edit(cells):
            # id,label,category,n0,n1
            assert len(cells) == 5
            cells[column] = value
            return cells

        code, err, _ = self.report_after_editing_line_4(tmp_path, capsys, edit)
        assert code == 2
        assert f"predictions.csv:4: {message}" in err

    @pytest.mark.parametrize("edit, got", [(lambda c: c[:-1], 4), (lambda c: c + ["0"], 6)],
                             ids=["short row", "long row"])
    def test_report_names_row_width(self, tmp_path, capsys, edit, got):
        code, err, _ = self.report_after_editing_line_4(tmp_path, capsys, edit)
        assert code == 2
        assert f"predictions.csv:4: expected 5 columns, got {got}" in err

    @pytest.mark.parametrize("text", ["", " \n\n\t\n"], ids=["empty", "whitespace"])
    def test_report_names_empty_file(self, tmp_path, capsys, text):
        path = tmp_path / "empty.csv"
        path.write_text(text)
        code = cli.main(
            ["report", "--predictions", str(path), "--report-out", str(tmp_path / "r.txt"),
             "--curves-out", str(tmp_path / "c.csv")]
        )
        assert code == 2
        assert f"{path}: empty file" in capsys.readouterr().err
        assert not (tmp_path / "r.txt").exists()

    @pytest.mark.parametrize(
        "text",
        [
            "id,label,category\n0,0,0\n",
            "id,label,category,n0\n0,0,0,1\n",
            "id,label,category,n1,n0\n0,0,0,0,1\n",
            "id,label,category,predicted,N,n0,n1,L0,U0,L1,U1\n0,0,0,0,1,1,0,0.5,1.0,0.0,0.5\n",
        ],
        ids=["no classes", "one class", "counts out of order", "v2"],
    )
    def test_report_rejects_a_header_the_writer_cannot_produce(self, tmp_path, capsys, text):
        path = tmp_path / "p.csv"
        path.write_text(text)
        code = cli.main(
            ["report", "--predictions", str(path), "--report-out", str(tmp_path / "r.txt"),
             "--curves-out", str(tmp_path / "c.csv")]
        )
        assert code == 2
        assert f"{path}: not a predictions header" in capsys.readouterr().err
        assert not (tmp_path / "r.txt").exists()

    @pytest.mark.parametrize("offset", [10**8, 10**15])
    def test_report_keys_rows_by_distinct_category(self, tmp_path, capsys, offset):
        # category ids far beyond the row count must cost memory for the
        # rows only, and leave the report's bytes unchanged
        data = str(tmp_path / "d.csv")
        cli.main(["synth", "--classes", "3", "--dim", "3", "--n-per-class", "60",
                  "--separation", "4", "--seed", "2", "--out", data])
        run = tmp_path / "run"
        assert cli.main(
            ["evaluate", "--data", data, "--taxonomy", "nc_v2", "--embedding", "identity",
             "--out-dir", str(run), "--seed", "1"]
        ) == 0
        lines = (run / "predictions.csv").read_text().splitlines()
        moved = [lines[0]]
        for line in lines[1:]:
            cells = line.split(",")
            cells[2] = str(offset * (int(cells[2]) + 1))
            moved.append(",".join(cells))
        path = tmp_path / "moved.csv"
        path.write_text("\n".join(moved) + "\n")
        assert cli.main(
            ["report", "--predictions", str(path), "--report-out", str(tmp_path / "r.txt"),
             "--curves-out", str(tmp_path / "c.csv")]
        ) == 0
        assert (tmp_path / "r.txt").read_bytes() == (run / "report.txt").read_bytes()
        assert (tmp_path / "c.csv").read_bytes() == (run / "curves.csv").read_bytes()

    def test_repeated_config_key_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text("taxonomy = nc_v1\nseed = 1\nseed = 2\n")
        assert cli.main(
            ["evaluate", "--config", str(cfg_path), "--out-dir", str(tmp_path / "r")]
        ) == 2
        assert "config line 3: seed repeated" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        data = str(tmp_path / "d.csv")
        cli.main(["synth", "--classes", "2", "--dim", "2", "--n-per-class", "100",
                  "--separation", "5", "--seed", "4", "--out", data])
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(
            f"data_csv = {data}\ntaxonomy = nc_v1\nembedding = identity\nseed = 1\n"
        )
        out = str(tmp_path / "r")
        assert cli.main(
            ["evaluate", "--config", str(cfg_path), "--out-dir", out, "--taxonomy", "nc_v2"]
        ) == 0
        table = (tmp_path / "r" / "table.txt").read_text()
        assert "kind = nc_v2" in table

    def test_error_exit_code(self, tmp_path, capsys):
        assert cli.main(
            ["evaluate", "--data", str(tmp_path / "nope.csv"), "--out-dir", str(tmp_path)]
        ) == 2
        assert "stage 'load'" in capsys.readouterr().err

    def test_none_flags_override_the_config_file(self, tmp_path, capsys):
        data = str(tmp_path / "d.csv")
        cli.main(["synth", "--classes", "2", "--dim", "2", "--n-per-class", "100",
                  "--separation", "5", "--seed", "4", "--out", data])
        base = f"data_csv = {data}\ntaxonomy = nc_v2\nembedding = identity\n"
        auto, fixed = tmp_path / "auto.cfg", tmp_path / "fixed.cfg"
        auto.write_text(base + "theta = none\n")
        fixed.write_text(base + "theta = 0.3\nclass_count = 3\n")
        assert cli.main(["evaluate", "--config", str(auto), "--out-dir", str(tmp_path / "a")]) == 0
        assert cli.main(
            ["evaluate", "--config", str(fixed), "--out-dir", str(tmp_path / "b"),
             "--theta", "none", "--class-count", "none"]
        ) == 0
        table = (tmp_path / "b" / "table.txt").read_text()
        assert table == (tmp_path / "a" / "table.txt").read_text()
        assert "theta = 0.3\n" not in table

    def test_negative_seed_exits_2_naming_the_key(self, tmp_path, capsys):
        assert cli.main(["train", "--seed", "-1", "--out-dir", str(tmp_path / "r")]) == 2
        assert capsys.readouterr().err == "error: seed must be nonnegative, got -1\n"
        assert not (tmp_path / "r").exists()

    def test_bad_flag_value_exits_2_naming_the_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["evaluate", "--seed", "x"])
        assert exc.value.code == 2
        assert "argument --seed: invalid int value: 'x'" in capsys.readouterr().err

    def test_flags_apply_before_the_one_validation(self, tmp_path, capsys):
        # k = 0 in the file is invalid alone; --k 3 overrides it before any check
        data = str(tmp_path / "d.csv")
        cli.main(["synth", "--classes", "2", "--dim", "2", "--n-per-class", "30",
                  "--separation", "5", "--seed", "4", "--out", data])
        cfg_path = tmp_path / "k0.cfg"
        cfg_path.write_text(f"data_csv = {data}\ntaxonomy = knn_v1\nembedding = identity\nk = 0\n")
        out = tmp_path / "r"
        assert cli.main(["calibrate", "--config", str(cfg_path), "--out-dir", str(out),
                         "--k", "3"]) == 0
        assert "k = 3\n" in (out / "table.txt").read_text()
        capsys.readouterr()
        assert cli.main(["calibrate", "--config", str(cfg_path), "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {cfg_path}: k must be at least 1\n"

    @pytest.mark.parametrize(
        "text, message",
        [
            ("seed = 1\nbogus = 2\n", "config line 2: unknown key 'bogus'"),
            ("seed = 1\n\nseed = 2\n", "config line 3: seed repeated"),
            ("# run\nepochs = many\n", "config line 2: epochs: invalid int value: 'many'"),
            ("taxonomy = nc_v9\n", "'nc_v9' is not a valid TaxonomyKind"),
        ],
        ids=["unknown key", "repeated key", "bad value", "invalid config"],
    )
    def test_config_file_errors_name_the_file(self, tmp_path, capsys, text, message):
        # a brace in the path is kept as it is, never read as a format field
        cfg_path = tmp_path / "run{0}.cfg"
        cfg_path.write_text(text)
        assert cli.main(["train", "--config", str(cfg_path), "--out-dir", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"error: {cfg_path}: {message}\n"

    def test_a_bad_flag_over_a_valid_file_is_named_as_a_flag(self, tmp_path, capsys):
        cfg_path = tmp_path / "good.cfg"
        cfg_path.write_text("taxonomy = knn_v1\nembedding = identity\n")
        assert cli.main(["train", "--config", str(cfg_path), "--out-dir", str(tmp_path),
                         "--k", "0"]) == 2
        assert capsys.readouterr().err == f"error: {cfg_path} with flags: k must be at least 1\n"

    def test_the_cli_reads_a_config_file_as_parse_config_does(self, tmp_path):
        # str.splitlines breaks at a form feed, and so does the CLI's reader
        text = "seed = 1\x0cepochs = 2\n"
        cfg_path = tmp_path / "ff.cfg"
        cfg_path.write_text(text)
        args = cli.build_parser().parse_args(["train", "--config", str(cfg_path)])
        assert cli._build_config(args) == parse_config(text)
        assert parse_config(text).epochs == 2


# the pipeline flags that command lines use, in help order, one per RunConfig field
PIPELINE_FLAGS = [
    "--data", "--out-dir", "--seed", "--taxonomy", "--class-count", "--k", "--theta",
    "--max-output-threshold", "--second-output-threshold", "--output-gap-threshold",
    "--embedding", "--model", "--softmax-source", "--hidden-dims", "--embedding-dim",
    "--margin", "--learning-rate", "--epochs", "--batch-size", "--pairs-per-epoch",
    "--test-fraction", "--calibration-fraction", "--bins",
]

# one value per RunConfig field, each unlike the field's default
FIELD_TEXT = {
    "data_csv": "d.csv", "out_dir": "o", "seed": "7", "taxonomy": "knn_v2",
    "class_count": "3", "k": "9", "theta": "0.3", "max_output_threshold": "0.7",
    "second_output_threshold": "0.2", "output_gap_threshold": "0.4",
    "embedding": "identity", "model_path": "m.npz", "softmax_source": "train",
    "hidden_dims": "8,4", "embedding_dim": "3", "margin": "2.5",
    "learning_rate": "0.1", "epochs": "9", "batch_size": "16",
    "pairs_per_epoch": "64", "test_fraction": "0.25", "calibration_fraction": "0.3",
    "bins": "7",
}


def subcommand_flags(name):
    parser = cli.build_parser()
    (subs,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return [a.option_strings[0] for a in subs.choices[name]._actions if a.dest != "help"]


class TestConfigSchema:
    @pytest.mark.parametrize("command", ["train", "calibrate", "predict", "evaluate"])
    def test_flags_are_the_hand_written_ones_in_order(self, command):
        assert subcommand_flags(command) == ["--config", *PIPELINE_FLAGS]

    @pytest.mark.parametrize(
        "name, text",
        [*FIELD_TEXT.items(), ("data_csv", "none"), ("model_path", "none"),
         ("class_count", "none"), ("theta", "none"), ("hidden_dims", "")],
    )
    def test_config_key_and_flag_agree(self, name, text):
        assert list(FIELD_TEXT) == [f.name for f in fields(RunConfig)]
        flag = PIPELINE_FLAGS[list(FIELD_TEXT).index(name)]
        from_file = parse_config(f"{name} = {text}")
        from_flag = cli._build_config(cli.build_parser().parse_args(["evaluate", flag, text]))
        assert from_flag == from_file
        # each value differs from the default, so it must have been applied
        assert getattr(from_file, name) != getattr(RunConfig(), name) or text == "none"

    @pytest.mark.parametrize("name", [f.name for f in fields(RunConfig)])
    def test_default_reads_back_from_its_text(self, name):
        # hidden_dims = (10,) was written as `(10,)`, which value_parser refused
        value = getattr(RunConfig(), name)
        assert value_parser(field_types(RunConfig)[name])(format_value(value)) == value


def _benchmark_tracing():
    spec = importlib.util.spec_from_file_location(
        "tracing", Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    )
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_traced_names_resolve():
    # the benchmark's tracer fetches each name with getattr and each method
    # from its class's own namespace; a missing one breaks the traced run
    tracing = _benchmark_tracing()
    for module, names in tracing.TRACED:
        for name in names:
            assert callable(getattr(module, name, None)), f"{module.__name__}.{name}"
    for cls, _, names in tracing.TRACED_METHODS:
        for name in names:
            assert callable(vars(cls).get(name)), f"{cls.__name__}.{name}"


def test_traced_run_fires_every_counter(tmp_path):
    # the benchmark's traced pass in small: a twin run read from a CSV and
    # one prediction served through this module's `predict`; every counter
    # must fire, and every rebound name must be restored on exit
    tracing = _benchmark_tracing()
    module = sys.modules[__name__]
    namespaces = (*tracing.CALLERS, module)
    before = [dict(vars(ns)) for ns in namespaces]
    methods = [(cls, name, vars(cls)[name]) for cls, _, names in tracing.TRACED_METHODS
               for name in names]
    save_csv(synth_gaussians(3, 4, 60, 4.0, seed=1), tmp_path / "d.csv")
    cfg = RunConfig(data_csv=str(tmp_path / "d.csv"), out_dir=str(tmp_path / "out"),
                    taxonomy="knn_v1", hidden_dims=(6,), embedding_dim=2, epochs=3,
                    pairs_per_epoch=64)
    tracer = tracing.Tracer(time.perf_counter)
    with tracing.installed(tracer, module):
        result = run_pipeline(cfg)
        predict(result.table, result.taxonomy, embedding=result.taxonomy.index.points[0])
    assert set(tracer.counts) == {f"{span}.{c}" for span, (c, _) in tracing.COUNTERS.items()}
    assert tracer.counts["mlp.train_siamese.pairs"] == 3 * 64  # the config, argument 4
    assert tracer.counts["data.load_csv.rows"] == 180
    for ns, saved in zip(namespaces, before):
        assert [k for k, v in saved.items() if vars(ns).get(k) is not v] == [], ns.__name__
    for cls, name, fn in methods:
        assert vars(cls)[name] is fn, f"{cls.__name__}.{name}"


def test_benchmark_imports_resolve():
    # every name the benchmark imports from ivenn exists, so a deletion in
    # src/ivenn cannot turn the benchmark into an ImportError
    bench = Path(__file__).resolve().parent.parent / "perfbench" / "bench.py"
    imports = [
        node for node in ast.walk(ast.parse(bench.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("ivenn")
    ]
    assert imports
    for node in imports:
        module = importlib.import_module(node.module)
        for alias in node.names:
            assert hasattr(module, alias.name), f"{node.module}.{alias.name}"


def test_predict_gives_what_the_benchmark_reads(tmp_path, monkeypatch):
    # perfbench/bench.py indexes a list by each served prediction's category,
    # checks its lower and upper bounds class by class and counts its empty
    # flag; predict hands out one shared object per category, made on the
    # first call, which the batch paths never make
    def no_prediction(*args, **kwargs):
        raise AssertionError("a batch path built an IvpPrediction")

    monkeypatch.setattr(ivp, "IvpPrediction", no_prediction)
    ds = synth_gaussians(3, 3, 40, 4.0, seed=3)
    cfg = RunConfig(out_dir=str(tmp_path), taxonomy="knn_v2", embedding="identity")
    result = run_pipeline(cfg, dataset=ds, stop_after="predict")
    table, tax = result.table, result.taxonomy
    predict_many(table, tax, embeddings=ds.features)
    load_predictions(tmp_path / "predictions.csv")
    assert "predictions" not in vars(table)
    monkeypatch.undo()

    pred = predict(table, tax, embedding=ds.features[0])
    assert type(pred.category) is int
    assert list(range(table.category_count))[pred.category] == pred.category
    for bounds in (pred.lower, pred.upper):
        assert bounds.dtype == np.float64 and bounds.shape == (3,)
    assert type(pred.empty_category) is bool
    assert predict(table, tax, embedding=ds.features[0]) is pred


@pytest.mark.parametrize(
    "cls, required",
    [(TaxonomyConfig, dict(kind=TaxonomyKind.KNN_V2, class_count=3)),
     (TrainConfig, {}),
     (SplitSpec, {})],
    ids=["TaxonomyConfig", "TrainConfig", "SplitSpec"],
)
def test_each_default_is_written_once(cls, required):
    # a RunConfig field that a stage's config also has takes that default
    assert _derived(cls, RunConfig(), **required) == cls(**required)


def scored_dataset():
    ds = synth_gaussians(3, 3, 60, 4.0, seed=5)
    scores = np.random.default_rng(5).dirichlet(np.ones(3), len(ds))
    return Dataset(ds.ids, ds.features, ds.labels, 3, softmaxes=scores)


def test_runs_leave_numpy_ma_unimported(tmp_path):
    # np.unique(x) with no options imports numpy.ma on first use; in the
    # middle of a run that module's objects land on top of the heap the data
    # has grown and keep it from shrinking, so no stage may take that path
    code = f"""
import sys
import numpy as np
from ivenn.data import Dataset, synth_gaussians
from ivenn.pipeline import RunConfig, run_pipeline
ds = synth_gaussians(3, 3, 60, 4.0, seed=5)
scores = np.random.default_rng(5).dirichlet(np.ones(3), len(ds))
scored = Dataset(ds.ids, ds.features, ds.labels, 3, softmaxes=scores)
for name, given in [
    ("csv", dict(taxonomy="base_v2", embedding="identity")),
    ("train", dict(taxonomy="base_v1", softmax_source="train", epochs=4)),
    ("twin", dict(taxonomy="knn_v1", k=3, hidden_dims=(6,), embedding_dim=2, epochs=4)),
]:
    run_pipeline(RunConfig(out_dir={str(tmp_path)!r} + "/" + name, **given), dataset=scored)
print("numpy.ma" in sys.modules)
"""
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src)), timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False"]


def test_baseline_run_trains_no_twin_network(tmp_path):
    # a softmax baseline reads no embedding: the default siamese run writes
    # what the identity run writes, and no model.npz
    runs = {}
    for embedding in ("siamese", "identity"):
        out = tmp_path / embedding
        run_pipeline(RunConfig(out_dir=str(out), taxonomy="base_v2", embedding=embedding),
                     dataset=scored_dataset())
        runs[embedding] = {p.name: p.read_bytes() for p in out.iterdir() if p.name != "timing.txt"}
    assert "model.npz" not in runs["siamese"]
    assert runs["siamese"] == runs["identity"]

    # a twin network of no width is no error where none is built
    cfg = RunConfig(out_dir=str(tmp_path / "train"), taxonomy="base_v1", embedding_dim=0)
    run_pipeline(cfg, dataset=scored_dataset(), stop_after="train")
    assert list((tmp_path / "train").iterdir()) == []


@pytest.mark.parametrize(
    "given, stop_after, error, message",
    [
        (dict(embedding="pca"), "report", ValueError,
         r"^embedding must be siamese or identity, got 'pca'$"),
        (dict(softmax_source="web"), "report", ValueError,
         r"^softmax_source must be csv or train, got 'web'$"),
        ({}, "embed", ValueError, r"^stop_after must be one of \("),
        (dict(class_count=3), "report", PipelineError,
         r"^stage 'load': config class_count 3 != dataset 2$"),
    ],
    ids=["embedding", "softmax_source", "stop_after", "class_count"],
)
def test_bad_run_is_named(tmp_path, given, stop_after, error, message):
    with pytest.raises(error, match=message):
        cfg = RunConfig(out_dir=str(tmp_path), taxonomy="nc_v1", **given)
        run_pipeline(cfg, dataset=hand_dataset(), stop_after=stop_after)


@pytest.mark.parametrize(
    "given",
    [dict(taxonomy="knn_v1"), dict(taxonomy="knn_v1", embedding="identity"),
     dict(taxonomy="nc_v2", embedding="identity")],
    ids=["twin knn_v1", "identity knn_v1", "identity nc_v2"],
)
def test_non_finite_feature_names_its_example(tmp_path, given):
    # a Dataset refuses it when made; one written into an accepted Dataset's
    # features is refused where split makes the parts, not blamed on
    # training, a proper-training row or a centroid
    ds = synth_gaussians(3, 4, 60, 4.0, seed=1)
    features = ds.features.copy()
    features[117, 2] = np.nan
    with pytest.raises(ValueError, match=r"^features of example id 1117 is not finite"):
        Dataset(ds.ids + 1000, features, ds.labels, ds.class_count)
    ds = Dataset(ds.ids + 1000, ds.features.copy(), ds.labels, ds.class_count)
    ds.features[117, 2] = np.nan
    cfg = RunConfig(out_dir=str(tmp_path), hidden_dims=(6,), embedding_dim=2, epochs=3, **given)
    with pytest.raises(PipelineError, match=r"^stage 'split': features of example id 1117 "):
        run_pipeline(cfg, dataset=ds)


@pytest.mark.parametrize(
    "layer_dims, mode, message",
    [([2, 2], CLASSIFIER, r"model\.npz is not an embedding model$"),
     ([3, 2], EMBEDDING, r"model expects 3 features, data has 2$")],
    ids=["classifier", "input width"],
)
def test_bad_model_is_named(tmp_path, layer_dims, mode, message):
    model = tmp_path / "model.npz"
    save_params(init_params(layer_dims, mode), model)
    cfg = RunConfig(out_dir=str(tmp_path / "out"), taxonomy="nc_v1", model_path=str(model))
    with pytest.raises(PipelineError, match=r"^stage 'train': .*" + message):
        run_pipeline(cfg, dataset=hand_dataset())


def test_run_without_data_is_named(tmp_path):
    with pytest.raises(
        PipelineError, match=r"^stage 'load': no data_csv configured and no dataset passed in$"
    ):
        run_pipeline(RunConfig(out_dir=str(tmp_path)))


def test_predictions_header_without_rows_is_named(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("id,label,category,n0,n1\n")
    with pytest.raises(ValueError, match=r"p\.csv: no prediction rows$"):
        load_predictions(path)


def test_counts_past_the_width_law_bound_are_named(tmp_path):
    # n0 + n1 = 2^63 sums to N = -2^63 in int64, and every interval would be
    # [-0.5, -0.5]
    path = tmp_path / "p.csv"
    path.write_text(f"id,label,category,n0,n1\n0,0,0,{2**62},{2**62}\n")
    with pytest.raises(ValueError, match=r"p\.csv:2: the counts total more than 2\^53 - 1$"):
        load_predictions(path)
