"""Command line front end.

Subcommands: run (one config, replicated), sweep (losses x ratios),
sweep-tversky (alpha grid with beta = 1 - alpha), gradcheck (finite-difference
audit of every analytic gradient), gen-data (write a synthetic dataset CSV).
A sweep takes only the override flags whose fields its axes do not set:
sweep has no --loss or --ratio, and sweep-tversky no --loss, --alpha or --beta.

Each input is checked once, where it enters: argparse parses the flags, and
the library's specs and entry points check the values. `main` maps an error
to its exit code by type alone: 0 success; 2 for bad input, which is an
argparse error or a ValueError (a flag, a config file or a value the library
rejects); 1 for an OSError or a numerical failure during training
(TrainingDivergedError, SingularInputError), and for a gradcheck that fails
its tolerance.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from . import experiments
from .data import generate, save_csv
from .losses import LossKind, SingularInputError
from .rng import check_seed
from .trainer import TrainingDivergedError
from .verify import gradcheck_all, reports_to_json

_LOSS_CHOICES = [k.value for k in LossKind]

# Each run flag overrides one config field: flag -> (section, field, argparse settings).
_OVERRIDES = {
    "loss": ("loss", "kind", dict(choices=_LOSS_CHOICES, help="override the loss kind")),
    "ratio": ("data", "ratio", dict(type=float, help="override the negative:positive ratio")),
    "seed": (
        "data",
        "seed",
        dict(
            type=int,
            help="override data.seed, which seeds only the held-out set (as seed + 1); "
            "training data come from the replicate seeds",
        ),
    ),
    "epochs": ("train", "epochs", dict(type=int, help="override the epoch count")),
    "alpha": ("loss", "alpha", dict(type=float, help="override the loss alpha")),
    "beta": ("loss", "beta", dict(type=float, help="override the loss beta")),
    "gamma": ("loss", "gamma", dict(type=float, help="override the loss gamma")),
}


def _comma_list(text: str) -> list[str]:
    return [part for part in text.split(",") if part.strip() != ""]


def _positive_int(text: str) -> int:
    if not text.strip().isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expects a positive integer, got {text!r}")
    return int(text)


def _comma_numbers(text: str) -> list[float]:
    try:
        return [float(part) for part in _comma_list(text)]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expects comma-separated numbers, got {text!r}") from None


def _load_config(args) -> experiments.ExperimentConfig:
    if args.config is not None:
        try:
            config = experiments.load_config(args.config)
        except OSError as exc:
            raise ValueError(f"cannot read config: {exc}") from None
        except (ValueError, TypeError) as exc:
            raise ValueError(f"invalid config: {exc}") from None
    else:
        config = experiments.default_config()
    try:
        for flag, (section, name, _) in _OVERRIDES.items():
            if getattr(args, flag, None) is not None:  # a sweep axis has no flag
                part = replace(getattr(config, section), **{name: getattr(args, flag)})
                config = replace(config, **{section: part})
    except ValueError as exc:
        raise ValueError(f"invalid override: {exc}") from None
    return config


def _emit_csv(rows, out_path) -> None:
    if out_path is None:
        sys.stdout.write(experiments.rows_to_csv(rows))
    else:
        experiments.write_csv(rows, out_path)


def _add_run_flags(parser: argparse.ArgumentParser, axes: tuple[str, ...] = ()) -> None:
    """--config, each override flag whose field no sweep axis sets, and --out."""
    parser.add_argument("--config", help="JSON experiment config; defaults apply when omitted")
    for flag, (_, _, settings) in _OVERRIDES.items():
        if flag not in axes:
            parser.add_argument(f"--{flag}", **settings)
    parser.add_argument("--out", help="write the result CSV here (default: stdout)")


def _cmd_run(args) -> int:
    _emit_csv(experiments.run(_load_config(args)), args.out)
    return 0


def _cmd_sweep(args) -> int:
    _emit_csv(experiments.sweep(_load_config(args), args.losses, args.ratios), args.out)
    return 0


def _cmd_sweep_tversky(args) -> int:
    config = _load_config(args)
    config = replace(config, loss=replace(config.loss, kind=LossKind.TL))
    _emit_csv(experiments.sweep_tversky(config, args.alphas), args.out)
    return 0


def _cmd_gradcheck(args) -> int:
    check_seed(args.seed, "--seed")
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
    given = {
        "n_positive": args.n_positive,
        "ratio": args.ratio,
        "easy_negative_fraction": args.easy_fraction,
        "feature_dim": args.feature_dim,
        "seed": args.seed,
    }
    data = experiments.default_config().data  # the defaults of every flag not given
    save_csv(generate(replace(data, **{k: v for k, v in given.items() if v is not None})), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dicelab",
        description="Imbalance-aware loss experiments on synthetic data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="train one configuration across replicate seeds")
    _add_run_flags(p_run)
    p_run.set_defaults(handler=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="cross loss kinds with imbalance ratios")
    _add_run_flags(p_sweep, axes=("loss", "ratio"))
    p_sweep.add_argument(
        "--losses",
        type=_comma_list,
        default="CE,DSC_selfadj",
        help="comma-separated loss kinds (default: CE,DSC_selfadj)",
    )
    p_sweep.add_argument(
        "--ratios",
        type=_comma_numbers,
        default="1,10,100",
        help="comma-separated ratios (default: 1,10,100)",
    )
    p_sweep.set_defaults(handler=_cmd_sweep)

    p_tv = sub.add_parser("sweep-tversky", help="sweep Tversky alpha with beta = 1 - alpha")
    _add_run_flags(p_tv, axes=("loss", "alpha", "beta"))
    p_tv.add_argument(
        "--alphas",
        type=_comma_numbers,
        default="0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9",
        help="comma-separated alphas in [0, 1]",
    )
    p_tv.set_defaults(handler=_cmd_sweep_tversky)

    p_gc = sub.add_parser("gradcheck", help="audit analytic gradients against finite differences")
    p_gc.add_argument("--samples", type=_positive_int, default=200, help="samples per loss kind")
    p_gc.add_argument("--seed", type=int, default=0, help="seed of the sampled inputs, in [0, 2**64)")
    p_gc.add_argument("--out", default="gradcheck.json", help="JSON report path")
    p_gc.set_defaults(handler=_cmd_gradcheck)

    p_gd = sub.add_parser("gen-data", help="write a synthetic dataset CSV")
    p_gd.add_argument("--n-positive", type=int)
    p_gd.add_argument("--ratio", type=float)
    p_gd.add_argument("--easy-fraction", type=float)
    p_gd.add_argument("--feature-dim", type=int)
    p_gd.add_argument("--seed", type=int)
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
    except (OSError, TrainingDivergedError, SingularInputError) as exc:  # before its base ValueError
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


def entrypoint() -> None:
    sys.exit(main())
