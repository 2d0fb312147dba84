"""Hard-decision evaluation: confusion counts, precision/recall/F1, set-level dice.

The set-level dice coefficient over index sets equals F1 exactly, which is
why dice-shaped losses are the training-time surrogate for F1. The helpers
here keep the zero conventions explicit: empty denominators score 0 for
precision/recall/F1, while the dice of two empty sets is 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .losses import ProbPair


@dataclass(frozen=True)
class ConfusionCounts:
    """Binary confusion tallies; `fn_` carries a trailing underscore to stay a valid name."""

    tp: int
    fp: int
    fn_: int
    tn: int

    def __post_init__(self):
        for name in ("tp", "fp", "fn_", "tn"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn_ + self.tn


@dataclass(frozen=True)
class ClassifierMetrics:
    precision: float
    recall: float
    f1: float
    accuracy: float


def check_threshold(threshold: float, name: str = "threshold") -> None:
    """Reject a hardening threshold outside the open interval (0, 1)."""
    if not (0.0 < threshold < 1.0):
        raise ValueError(f"{name} must lie strictly inside (0, 1), got {threshold}")


def harden(p: ProbPair, threshold: float = 0.5) -> int:
    """Predict positive iff p1 strictly exceeds the threshold."""
    check_threshold(threshold)
    return 1 if p.p1 > threshold else 0


def _as_binary_array(values, name: str) -> np.ndarray:
    arr = np.asarray(values)
    if arr.ndim != 1 or arr.shape[0] == 0:
        raise ValueError(f"{name} must be a nonempty 1-d sequence")
    if not np.isin(arr, (0, 1)).all():
        raise ValueError(f"{name} must contain only 0/1 values")
    return arr.astype(np.int64)


def confusion(preds, golds) -> ConfusionCounts:
    """Tally a confusion matrix from aligned 0/1 sequences."""
    p = _as_binary_array(preds, "preds")
    g = _as_binary_array(golds, "golds")
    if p.shape[0] != g.shape[0]:
        raise ValueError(f"length mismatch: {p.shape[0]} preds vs {g.shape[0]} golds")
    tp = int(np.sum((p == 1) & (g == 1)))
    fp = int(np.sum((p == 1) & (g == 0)))
    fn_ = int(np.sum((p == 0) & (g == 1)))
    tn = int(np.sum((p == 0) & (g == 0)))
    return ConfusionCounts(tp, fp, fn_, tn)


def metrics_from_counts(counts: ConfusionCounts) -> ClassifierMetrics:
    """Precision, recall, F1 and accuracy with divide-by-zero mapped to 0."""
    if counts.total == 0:
        raise ValueError("counts are empty")
    predicted = counts.tp + counts.fp
    actual = counts.tp + counts.fn_
    precision = counts.tp / predicted if predicted > 0 else 0.0
    recall = counts.tp / actual if actual > 0 else 0.0
    f1 = 2.0 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    accuracy = (counts.tp + counts.tn) / counts.total
    return ClassifierMetrics(precision, recall, f1, accuracy)


def binary_metrics(preds, golds) -> ClassifierMetrics:
    return metrics_from_counts(confusion(preds, golds))


def set_dice(preds, golds) -> float:
    """Dice coefficient 2|A & B| / (|A| + |B|) of the predicted/gold positive index sets.

    Two empty sets overlap perfectly by convention (1.0). For nonempty sets
    this equals F1 of the same predictions.
    """
    c = confusion(preds, golds)
    size_sum = (c.tp + c.fp) + (c.tp + c.fn_)
    if size_sum == 0:
        return 1.0
    return 2.0 * c.tp / size_sum
