"""Command line front end.

Subcommands: run (one config, replicated), sweep (losses x ratios),
sweep-tversky (alpha grid with beta = 1 - alpha), gradcheck (finite-difference
audit of every analytic gradient), gen-data (write a synthetic dataset CSV).
Exit codes: 0 success, 1 runtime or I/O failure (including gradcheck tolerance
failures), 2 usage or config errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

from . import experiments
from .data import DataSpec, generate, save_csv
from .losses import LossKind
from .rng import check_seed
from .trainer import TrainingDivergedError
from .verify import gradcheck_all, reports_to_json


class UsageError(Exception):
    """Bad flags or an unusable config file."""


_LOSS_CHOICES = [k.value for k in LossKind]


def _parse_float_list(text: str, flag: str) -> list[float]:
    try:
        values = [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise UsageError(f"{flag} expects comma-separated numbers: {exc}") from None
    if not values:
        raise UsageError(f"{flag} needs at least one value")
    return values


def _load_config(args) -> experiments.ExperimentConfig:
    if args.config is not None:
        try:
            config = experiments.load_config(args.config)
        except OSError as exc:
            raise UsageError(f"cannot read config: {exc}") from None
        except (ValueError, TypeError, KeyError, json.JSONDecodeError) as exc:
            raise UsageError(f"invalid config: {exc}") from None
    else:
        config = experiments.default_config()
    return _apply_overrides(config, args)


def _apply_overrides(config, args) -> experiments.ExperimentConfig:
    try:
        if getattr(args, "loss", None) is not None:
            config = replace(config, loss=replace(config.loss, kind=LossKind(args.loss)))
        if getattr(args, "ratio", None) is not None:
            config = replace(config, data=replace(config.data, ratio=args.ratio))
        if getattr(args, "seed", None) is not None:
            config = replace(config, data=replace(config.data, seed=args.seed))
        if getattr(args, "epochs", None) is not None:
            config = replace(config, train=replace(config.train, epochs=args.epochs))
        if getattr(args, "alpha", None) is not None:
            config = replace(config, loss=replace(config.loss, alpha=args.alpha))
        if getattr(args, "beta", None) is not None:
            config = replace(config, loss=replace(config.loss, beta=args.beta))
        if getattr(args, "gamma", None) is not None:
            config = replace(config, loss=replace(config.loss, gamma=args.gamma))
    except ValueError as exc:
        raise UsageError(f"invalid override: {exc}") from None
    return config


def _emit_csv(rows, out_path) -> None:
    text = experiments.rows_to_csv(rows)
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _add_common_run_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON experiment config; defaults apply when omitted")
    parser.add_argument("--loss", choices=_LOSS_CHOICES, help="override the loss kind")
    parser.add_argument("--ratio", type=float, help="override the negative:positive ratio")
    parser.add_argument(
        "--seed",
        type=int,
        help="override data.seed, which seeds only the held-out set (as seed + 1); "
        "training data come from the replicate seeds",
    )
    parser.add_argument("--epochs", type=int, help="override the epoch count")
    parser.add_argument("--alpha", type=float, help="override the loss alpha")
    parser.add_argument("--beta", type=float, help="override the loss beta")
    parser.add_argument("--gamma", type=float, help="override the loss gamma")
    parser.add_argument("--out", help="write the result CSV here (default: stdout)")


def _cmd_run(args) -> int:
    config = _load_config(args)
    _emit_csv(experiments.run(config), args.out)
    return 0


def _cmd_sweep(args) -> int:
    config = _load_config(args)
    try:
        losses = [LossKind(v) for v in args.losses.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise UsageError(f"--losses: {exc}") from None
    if not losses:
        raise UsageError("--losses needs at least one loss kind")
    ratios = _parse_float_list(args.ratios, "--ratios")
    _emit_csv(experiments.sweep(config, losses, ratios), args.out)
    return 0


def _cmd_sweep_tversky(args) -> int:
    config = _load_config(args)
    config = replace(config, loss=replace(config.loss, kind=LossKind.TL))
    alphas = _parse_float_list(args.alphas, "--alphas")
    for a in alphas:
        if not (0.0 <= a <= 1.0):
            raise UsageError(f"--alphas values must lie in [0, 1], got {a}")
    _emit_csv(experiments.sweep_tversky(config, alphas), args.out)
    return 0


def _cmd_gradcheck(args) -> int:
    if args.samples < 1:
        raise UsageError("--samples must be a positive integer")
    try:
        check_seed(args.seed, "--seed")
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    reports = gradcheck_all(args.samples, args.seed)
    text = reports_to_json(reports, args.samples, args.seed)
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    for r in reports:
        status = "ok" if r.passed else "FAIL"
        sys.stdout.write(
            f"{r.loss_kind}: max_rel_error={r.max_rel_error:.3e} "
            f"max_abs_error={r.max_abs_error:.3e} {status}\n"
        )
    if not all(r.passed for r in reports):
        sys.stderr.write("gradient check failed tolerance\n")
        return 1
    return 0


def _cmd_gen_data(args) -> int:
    try:
        spec = DataSpec(
            n_positive=args.n_positive,
            ratio=args.ratio,
            easy_negative_fraction=args.easy_fraction,
            feature_dim=args.feature_dim,
            seed=args.seed,
            jitter_sigma=args.jitter_sigma,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    save_csv(generate(spec), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dicelab",
        description="Imbalance-aware loss experiments on synthetic data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="train one configuration across replicate seeds")
    _add_common_run_flags(p_run)
    p_run.set_defaults(handler=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="cross loss kinds with imbalance ratios")
    _add_common_run_flags(p_sweep)
    p_sweep.add_argument(
        "--losses",
        default="CE,DSC_selfadj",
        help="comma-separated loss kinds (default: CE,DSC_selfadj)",
    )
    p_sweep.add_argument(
        "--ratios", default="1,10,100", help="comma-separated ratios (default: 1,10,100)"
    )
    p_sweep.set_defaults(handler=_cmd_sweep)

    p_tv = sub.add_parser("sweep-tversky", help="sweep Tversky alpha with beta = 1 - alpha")
    _add_common_run_flags(p_tv)
    p_tv.add_argument(
        "--alphas",
        default="0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9",
        help="comma-separated alphas in [0, 1]",
    )
    p_tv.set_defaults(handler=_cmd_sweep_tversky)

    p_gc = sub.add_parser("gradcheck", help="audit analytic gradients against finite differences")
    p_gc.add_argument("--samples", type=int, default=200, help="samples per loss kind")
    p_gc.add_argument("--seed", type=int, default=0, help="seed of the sampled inputs, in [0, 2**64)")
    p_gc.add_argument("--out", default="gradcheck.json", help="JSON report path")
    p_gc.set_defaults(handler=_cmd_gradcheck)

    p_gd = sub.add_parser("gen-data", help="write a synthetic dataset CSV")
    p_gd.add_argument("--n-positive", type=int, default=200)
    p_gd.add_argument("--ratio", type=float, default=10.0)
    p_gd.add_argument("--easy-fraction", type=float, default=0.9)
    p_gd.add_argument("--feature-dim", type=int, default=2)
    p_gd.add_argument("--seed", type=int, default=42)
    p_gd.add_argument("--jitter-sigma", type=float, default=0.1)
    p_gd.add_argument("--out", required=True, help="CSV path")
    p_gd.set_defaults(handler=_cmd_gen_data)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the message
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (OSError, ValueError, TrainingDivergedError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


def entrypoint() -> None:
    sys.exit(main())
