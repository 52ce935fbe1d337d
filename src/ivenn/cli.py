"""Command line entry point.

Subcommands:
    synth      generate a synthetic Gaussian-blob dataset CSV
    train      train the run's network
    embed      run a saved model over a CSV and write the embeddings
    calibrate  build and save the calibration table
    predict    predict the test split and write predictions.csv
    evaluate   full pipeline: predictions plus report and curves
    report     recompute report/curves from an existing predictions.csv

`train`, `calibrate`, `predict` and `evaluate` are prefixes of the same
deterministic pipeline; flags mirror the config-file keys and override them.
"""

from __future__ import annotations

import argparse
import sys

from ivenn.data import _write_csv, load_csv, read_text, save_csv, synth_gaussians
from ivenn.metrics import build_report, report_text, save_report
from ivenn.pipeline import (
    PipelineError,
    RunConfig,
    embed_checked,
    load_predictions,
    load_twin,
    parse_config,
    run_pipeline,
)
from ivenn.taxonomy import field_types, value_parser

# the two flags not named after their RunConfig field
_FLAG_NAMES = {"data_csv": "--data", "model_path": "--model"}


def _add_pipeline_flags(sub):
    sub.add_argument("--config", help="key = value config file; flags override it")
    for name, annotation in field_types(RunConfig).items():
        flag = _FLAG_NAMES.get(name, "--" + name.replace("_", "-"))
        # a flag left out is absent from the namespace, so it overrides nothing
        sub.add_argument(
            flag, dest=name, type=value_parser(annotation), default=argparse.SUPPRESS
        )


def _build_config(args):
    flags = {name: getattr(args, name) for name in field_types(RunConfig) if hasattr(args, name)}
    if not args.config:
        return parse_config("", **flags)
    text = read_text(args.config)
    try:
        return parse_config(text, **flags)
    except ValueError as exc:
        try:
            parse_config(text)  # the file alone is valid: a flag set the bad value
            where = f"{args.config} with flags"
        except ValueError:
            where = args.config
        raise ValueError(f"{where}: {exc}") from None


def _run(args, stop_after):
    cfg = _build_config(args)
    result = run_pipeline(cfg, stop_after=stop_after)
    print(f"wrote artifacts to {cfg.out_dir}")
    if result.report is not None:
        sys.stdout.write(report_text(result.report))
    return 0


def _cmd_synth(args):
    ds = synth_gaussians(
        class_count=args.classes,
        dim=args.dim,
        n_per_class=args.n_per_class,
        separation=args.separation,
        seed=args.seed,
    )
    save_csv(ds, args.out)
    print(f"wrote {len(ds)} examples to {args.out}")
    return 0


def _cmd_embed(args):
    ds = load_csv(args.data)
    where = f"{args.data} with model {args.model}: "
    params = load_twin(args.model, ds.feature_dim, where)
    emb = embed_checked(params, ds.features, ds.ids, where)
    cols = ["id", "label"] + [f"e{i}" for i in range(emb.shape[1])]
    _write_csv(args.out, cols, ds.ids, ds.labels, emb)
    print(f"wrote {len(ds)} embeddings to {args.out}")
    return 0


def _cmd_report(args):
    records = load_predictions(args.predictions)
    report = build_report(records, bins=args.bins)
    save_report(report, args.report_out, args.curves_out)
    sys.stdout.write(report_text(report))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ivenn",
        description="Venn prediction with learned distance metrics",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("synth", help="generate a synthetic Gaussian dataset")
    sub.add_argument("--classes", type=int, default=3)
    sub.add_argument("--dim", type=int, default=3)
    sub.add_argument("--n-per-class", type=int, default=500)
    sub.add_argument("--separation", type=float, default=4.0)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--out", required=True)
    sub.set_defaults(func=_cmd_synth)

    for name, stop, text in [
        ("train", "train", "train the run's network"),
        ("calibrate", "calibrate", "build the calibration table"),
        ("predict", "predict", "predict the test split"),
        ("evaluate", "report", "full pipeline with report"),
    ]:
        sub = subs.add_parser(name, help=text)
        _add_pipeline_flags(sub)
        sub.set_defaults(func=lambda a, s=stop: _run(a, s))

    sub = subs.add_parser("embed", help="embed a CSV with a saved model")
    sub.add_argument("--model", required=True)
    sub.add_argument("--data", required=True)
    sub.add_argument("--out", required=True)
    sub.set_defaults(func=_cmd_embed)

    sub = subs.add_parser("report", help="recompute metrics from predictions")
    sub.add_argument("--predictions", required=True)
    sub.add_argument("--bins", type=int, default=10)
    sub.add_argument("--report-out", default="report.txt")
    sub.add_argument("--curves-out", default="curves.csv")
    sub.set_defaults(func=_cmd_report)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (PipelineError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
