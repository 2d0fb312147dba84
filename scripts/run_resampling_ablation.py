#!/usr/bin/env python3
"""Cross every resampling transform with a panel of losses on imbalanced data.

Trains on ratio-10 data under each of the five dataset transforms (original,
add_positive, add_negative, downsample_negative, add_both) for each loss in
the panel, evaluating every variant on the same held-out set.  Each
transform's training data are generated once and shared by the losses (one
`grid` call).  Writes one CSV with mean/std aggregate rows per cell.

Usage:
    python3 scripts/run_resampling_ablation.py --out ablation.csv
    python3 scripts/run_resampling_ablation.py --out ablation.csv --epochs 100 --ratio 20
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from dicelab.data import DataSpec, TransformKind
from dicelab.experiments import ExperimentConfig, TransformSpec, grid, write_csv
from dicelab.losses import LossKind, LossSpec
from dicelab.trainer import TrainSpec

LOSS_PANEL = (LossKind.CE, LossKind.WCE, LossKind.DL_SAMPLE, LossKind.DSC_SELFADJ)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="output CSV path")
    parser.add_argument("--ratio", type=float, default=10.0, help="neg:pos ratio (default 10)")
    parser.add_argument("--epochs", type=int, default=200, help="training epochs (default 200)")
    parser.add_argument(
        "--n-positive", type=int, default=200, help="positives per replicate (default 200)"
    )
    args = parser.parse_args(argv)
    if args.ratio < 1.0:
        parser.error("--ratio must be >= 1 (the ablation targets imbalanced data)")

    base = ExperimentConfig(
        data=DataSpec(n_positive=args.n_positive, ratio=args.ratio),
        loss=LossSpec(LossKind.CE),
        train=TrainSpec(epochs=args.epochs),
    )

    # Balance by oversampling positives or dropping negatives; for the
    # add_negative arm deepen the imbalance instead (halve the positive
    # fraction), since adding negatives can only push the fraction down.
    deeper = 0.5 / (1.0 + args.ratio)
    targets = {
        TransformKind.ORIGINAL: 0.5,
        TransformKind.ADD_POSITIVE: 0.5,
        TransformKind.ADD_NEGATIVE: deeper,
        TransformKind.DOWNSAMPLE_NEGATIVE: 0.5,
        TransformKind.ADD_BOTH: 0.5,  # ignored: add_both preserves the fraction
    }

    configs = []
    for kind in TransformKind:
        transform = TransformSpec(kind=kind, target_fraction_positive=targets[kind])
        configs.extend(replace(base, transform=transform, loss=LossSpec(loss)) for loss in LOSS_PANEL)
    write_csv(grid(configs), args.out)
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
