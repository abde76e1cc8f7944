"""Command-line interface.

Commands: `train` (fit a model from a config, persist it, report),
`eval` (score a saved model on a test file), `bench` (train the
divide-and-conquer pipeline and an undecomposed baseline on identical
splits and report the error reduction), `inspect` (dump decomposition
diagnostics from a saved model).

A model holds its input map, the max-abs `feature_scale` fitted on the
whole training file and the `positive_label`: `train` and `bench` train
on scaled features and score raw ones, and `eval` parses with the
model's label and hands raw features to `predict_dc`. Only the bench
baseline, a bare learner, sees scaled test features.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 numeric
failure.
"""

import argparse
import collections
import os
import sys

import numpy as np

from .config import config_echo, load_config
from .dataio import apply_feature_scale, fit_max_abs_scale, load_libsvm, split
from .errors import ConfigError, DataError, FeatdcError
from .fuse import LearnerSpec, evaluate, predict_dc, train_dc, train_learner
from .persist import load_dc_model, save_dc_model
from .report import (build_report, format_report, recording, timed,
                     write_report)
from .rules import require


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="featdc",
        description="divide-and-conquer classification by feature-space "
                    "decomposition",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def training(p):
        p.add_argument("--config", required=True, help="config file (JSON)")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        p.add_argument("--threads", type=int, default=None,
                       help="worker threads for local training and the "
                            "TRBF global's Gram products and fill "
                            "(prediction always runs on the calling "
                            "thread)")
        p.add_argument("--out", default=None, help="output directory")

    training(sub.add_parser("train", help="train and persist a model"))
    pe = sub.add_parser("eval", help="evaluate a saved model on a test file")
    pe.add_argument("--model", required=True, help="saved model file")
    pe.add_argument("--test", required=True, help="test data (libsvm text)")
    pe.add_argument("--out", default=None, help="output directory")
    training(sub.add_parser("bench", help="pipeline vs. undecomposed baseline"))
    pi = sub.add_parser("inspect", help="dump decomposition diagnostics")
    pi.add_argument("--model", required=True, help="saved model file")
    return parser


def _apply_overrides(cfg, args):
    """Each given flag, checked by its config key's rule."""
    for flag in ("seed", "threads"):
        value = getattr(args, flag)
        if value is not None:
            require(f"RunConfig.{flag}", value, name=f"--{flag}")
            setattr(cfg, flag, value)
    if args.out is not None:
        cfg.out_dir = args.out


def _prepare_data(cfg):
    """Parse the training file (`timed` as `parse`), fit the max-abs scale
    on all of it when the config scales, then split per config. Returns
    (train, test_or_none, scale_or_none), train and test unscaled: the
    split depends only on the instance count and its seed."""
    with timed("parse"):
        train = load_libsvm(cfg.train_path, n_features=cfg.n_features_override,
                            positive_label=cfg.positive_label)
        test = None
        if cfg.test_path is not None:
            test = load_libsvm(cfg.test_path, n_features=train.n_features,
                               positive_label=cfg.positive_label)
    scale = fit_max_abs_scale(train) if cfg.scale_features else None
    if test is None and cfg.split is not None:
        train, test = split(train, cfg.split)
    return train, test, scale


def _baseline(cfg, train, test, dc_metrics):
    """The bench report's baseline block: an undecomposed learner on the
    same split, or the reason the guards refused it."""
    spec = LearnerSpec(type=cfg.baseline, lam=cfg.global_.lam,
                       sigma=cfg.global_.sigma, p=cfg.global_.p)
    try:
        model = train_learner(spec, train.X, train.y.astype(np.float64),
                              cfg.guards, cfg.seed)
    except ConfigError as exc:
        return {"baseline": {"skipped": True, "reason": str(exc)},
                "reduction": None}
    baseline = evaluate(model.predict(test.X), test.y)
    err_b, err_dc = baseline["error_rate_pct"], dc_metrics["error_rate_pct"]
    reduction = 0.0 if err_b == 0.0 else 100.0 * (err_b - err_dc) / err_b
    return {"baseline": baseline, "reduction": reduction}


def cmd_train(args):
    """`train`, and `bench`, which adds the baseline block."""
    bench = args.command == "bench"
    with recording() as timings, timed("total"):
        cfg = load_config(args.config)
        _apply_overrides(cfg, args)
        train, test, scale = _prepare_data(cfg)
        if bench and test is None:
            raise ConfigError("bench needs test data: give test_path or split")
        if scale is not None:
            train = apply_feature_scale(train, scale)

        model = train_dc(train, cfg.plan, local=cfg.local, global_=cfg.global_,
                         seed=cfg.seed, threads=cfg.threads, guards=cfg.guards,
                         feature_scale=scale, config_snapshot=config_echo(cfg),
                         positive_label=cfg.positive_label)

        metrics = None
        with timed("prediction"):
            if test is not None:
                labels, _ = predict_dc(model, test)  # raw: the model scales
                metrics = evaluate(labels, test.y)

        extra = None
        if bench:
            with timed("baseline"):
                if scale is not None:
                    test = apply_feature_scale(test, scale)
                extra = _baseline(cfg, train, test, metrics)

        with timed("persist"):
            model_path = os.path.join(cfg.out_dir, "model.json")
            save_dc_model(model, model_path)
    report = build_report(args.command, cfg.seed, timings, config_echo(cfg),
                          metrics, artifacts={"model": model_path}, extra=extra)

    path = write_report(report, cfg.out_dir, f"{args.command}_report.json")
    print(format_report(report))
    if not bench:
        print(f"model written to {model_path}")
    elif extra["reduction"] is not None:
        print(f"error reduction over baseline: {extra['reduction']:.2f}%")
    else:
        print(f"baseline skipped: {extra['baseline']['reason']}")
    print(f"report written to {path}")
    return 0


def cmd_eval(args):
    with recording() as timings, timed("total"):
        with timed("load"):
            model = load_dc_model(args.model)  # derives the collapsed scorer
        with timed("parse"):
            test = load_libsvm(args.test, n_features=model.decomposition.n_features_in,
                               positive_label=model.positive_label)
        with timed("prediction"):
            labels, _ = predict_dc(model, test)  # the model applies its scale
            metrics = evaluate(labels, test.y)
    snap = model.config_snapshot
    report = build_report("eval", snap.get("seed", 0), timings, snap, metrics,
                          artifacts={"model": args.model})
    out_dir = args.out or "."
    path = write_report(report, out_dir, "eval_report.json")
    print(format_report(report))
    print(f"error rate: {metrics['error_rate_pct']:.2f}")
    print(f"report written to {path}")
    return 0


def _spectrum_line(values, limit=8):
    vals = np.asarray(values)
    shown = ", ".join(f"{v:.6g}" for v in vals[:limit])
    if vals.size > limit:
        shown += f", ... ({vals.size} total, min {vals.min():.6g})"
    return shown


def cmd_inspect(args):
    model = load_dc_model(args.model)
    comp = model.decomposition
    print("kind: dc_model")
    print(f"features in: {comp.n_features_in}   subspaces h: {comp.h}")
    for k, part in enumerate(comp.parts):
        print(f"part {k}: {part.method}  "
              f"{part.n_features_in} -> {part.n_features_out} features, "
              f"{part.n_subspaces} groups of "
              f"{[len(g) for g in part.index_groups][0]}")
        if part.eigenvalues is not None:
            print(f"  eigenvalues: {_spectrum_line(part.eigenvalues)}")
        for name, value in part.fit_stats.items():
            print(f"  {name}: {value:.6g}")
    kinds = collections.Counter(type(m).__name__ for m in model.locals)
    print("locals: " + ", ".join(f"{n} x {t}" for t, n in sorted(kinds.items())))
    g = model.global_model
    print(f"global: {type(g).__name__} on {model.h} fused inputs")
    scale = model.feature_scale
    print("input scale: " + ("none" if scale is None else
                             f"max-abs, {scale.size} values in "
                             f"[{scale.min():.6g}, {scale.max():.6g}]"))
    label = model.positive_label
    print(f"positive label: {'sign' if label is None else f'{label:g}'}")
    if model.at is None:
        print("scoring: per-view (trbf locals)")
    else:
        print(f"scoring: linear map {model.h} x {comp.n_features_in}")
    print(f"fusion row shift range: [{model.r_shift.min():.6g}, "
          f"{model.r_shift.max():.6g}]")
    print(f"fusion row scale range: [{model.r_scale.min():.6g}, "
          f"{model.r_scale.max():.6g}]")
    return 0


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {"train": cmd_train, "eval": cmd_eval, "bench": cmd_train,
                "inspect": cmd_inspect}
    try:
        return handlers[args.command](args)
    except FeatdcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        # NumericError and any other FeatdcError: 4
        return (2 if isinstance(exc, ConfigError)
                else 3 if isinstance(exc, DataError) else 4)


if __name__ == "__main__":
    sys.exit(main())
