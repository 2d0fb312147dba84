"""Independent oracles for the analytic gradients and the F1 threshold.

finite_diff_grad only ever calls loss value functions, never the analytic
gradients, so an agreement between the two is genuine evidence. A gradient
sample counts as passing when the absolute error is below ABS_TOL (near-zero
gradients) or the relative error is below REL_TOL.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from .losses import (
    DICE_FAMILY,
    LossKind,
    LossSpec,
    OneHotLabel,
    ProbPair,
    class_weights,
    sample_grad,
    sample_value,
    set_dice_grads,
    set_dice_value,
)
from .metrics import binary_metrics
from .rng import Xoshiro256StarStar

REL_TOL = 1e-5
ABS_TOL = 1e-8
DEFAULT_STEP = 1e-6

# Kinds whose value involves a logarithm; the clamp would corrupt a finite
# difference that steps outside (0, 1), so those steps are rejected. The
# dice family is rational in p1 and can be differenced on the closed interval.
_LOG_KINDS = frozenset(LossKind) - DICE_FAMILY


@dataclass(frozen=True)
class GradCheckReport:
    """Worst-case agreement between analytic and finite-difference gradients."""

    loss_kind: str
    sample_count: int
    max_rel_error: float
    max_abs_error: float
    worst_input: dict
    passed: bool

    def to_dict(self) -> dict:
        return asdict(self)


def finite_diff_grad(
    spec: LossSpec,
    p1: float,
    y: OneHotLabel,
    h: float = DEFAULT_STEP,
    class_weight: float = 1.0,
) -> float:
    """Central-difference estimate of d(value)/d(p1) from values alone."""
    if h <= 0.0:
        raise ValueError("step size must be positive")
    if spec.kind in _LOG_KINDS and not (0.0 < p1 - h and p1 + h < 1.0):
        raise ValueError(
            f"finite-difference step crosses the (0, 1) domain boundary at p1 = {p1}"
        )
    if spec.kind is LossKind.DL_SET:
        gamma = spec.hyperparameters()[2]
        hi = set_dice_value([p1 + h], [y.y1], gamma)
        lo = set_dice_value([p1 - h], [y.y1], gamma)
    else:
        hi = sample_value(spec, p1 + h, y.y1, class_weight)
        lo = sample_value(spec, p1 - h, y.y1, class_weight)
    return float((hi - lo) / (2.0 * h))


def _sample_errors(analytic: float, estimate: float) -> tuple[float, float]:
    abs_err = abs(analytic - estimate)
    denom = max(abs(analytic), abs(estimate))
    rel_err = abs_err / denom if denom > 0.0 else 0.0
    return abs_err, rel_err


def _check_set_dice_sample(rng: Xoshiro256StarStar) -> tuple[float, float, dict]:
    """One DL_set sample: perturb a single coordinate of a small random batch."""
    m = 4
    p1 = np.array([0.01 + 0.98 * rng.uniform() for _ in range(m)])
    y1 = np.array([1.0 if rng.uniform() < 0.5 else 0.0 for _ in range(m)])
    gamma = 0.1 + 1.9 * rng.uniform()
    j = rng.randbelow(m)
    analytic = float(set_dice_grads(p1, y1, gamma)[j])
    shifted = p1.copy()
    shifted[j] = p1[j] + DEFAULT_STEP
    hi = set_dice_value(shifted, y1, gamma)
    shifted[j] = p1[j] - DEFAULT_STEP
    lo = set_dice_value(shifted, y1, gamma)
    estimate = (hi - lo) / (2.0 * DEFAULT_STEP)
    abs_err, rel_err = _sample_errors(analytic, estimate)
    inputs = {
        "p1": [float(v) for v in p1],
        "y1": [int(v) for v in y1],
        "gamma": gamma,
        "perturbed_index": int(j),
    }
    return abs_err, rel_err, inputs


def _check_scalar_sample(kind: LossKind, rng: Xoshiro256StarStar) -> tuple[float, float, dict]:
    """One per-sample check with randomized input and hyperparameters."""
    p1 = 0.01 + 0.98 * rng.uniform()
    y1 = 1 if rng.uniform() < 0.5 else 0
    gamma = 0.1 + 1.9 * rng.uniform()
    alpha = 2.0 * rng.uniform()
    beta = 2.0 * rng.uniform()
    k = 1.0 + 9.0 * rng.uniform()
    # detach_weight is pinned False: the detached gradient is deliberately not
    # d(value)/dp1, so differencing the value cannot confirm it.
    spec = LossSpec(kind, alpha=alpha, beta=beta, gamma=gamma, k=k, detach_weight=False)
    # Exercise the weight path with the weights the trainer gives a balanced batch.
    weights = class_weights(spec, 50, 50)
    class_weight = 1.0 if weights is None else weights[y1]
    analytic = float(sample_grad(spec, p1, y1, class_weight))
    estimate = finite_diff_grad(spec, p1, OneHotLabel.from_class(y1), class_weight=class_weight)
    abs_err, rel_err = _sample_errors(analytic, estimate)
    inputs = {
        "p1": p1,
        "y1": y1,
        "alpha": alpha,
        "beta": beta,
        "gamma": gamma,
        "k": k,
        "class_weight": class_weight,
    }
    return abs_err, rel_err, inputs


def gradcheck_all(samples_per_loss: int = 200, seed: int = 0) -> list[GradCheckReport]:
    """Sweep every loss kind over randomized inputs and hyperparameters.

    Reported max_rel_error ignores samples whose absolute error already sits
    under ABS_TOL; those have gradients too close to zero for a relative
    error to mean anything.
    """
    if samples_per_loss < 1:
        raise ValueError("samples_per_loss must be at least 1")
    reports = []
    for kind in LossKind:
        rng = Xoshiro256StarStar(seed)
        max_rel = 0.0
        max_abs = 0.0
        worst: dict = {}
        worst_score = -1.0
        passed = True
        for _ in range(samples_per_loss):
            if kind is LossKind.DL_SET:
                abs_err, rel_err, inputs = _check_set_dice_sample(rng)
            else:
                abs_err, rel_err, inputs = _check_scalar_sample(kind, rng)
            effective_rel = rel_err if abs_err >= ABS_TOL else 0.0
            max_rel = max(max_rel, effective_rel)
            max_abs = max(max_abs, abs_err)
            if abs_err >= ABS_TOL and rel_err >= REL_TOL:
                passed = False
            score = effective_rel if effective_rel > 0.0 else abs_err * 1e-12
            if score > worst_score:
                worst_score = score
                worst = inputs
        reports.append(
            GradCheckReport(kind.value, samples_per_loss, max_rel, max_abs, worst, passed)
        )
    return reports


def reports_to_json(reports: list[GradCheckReport], samples_per_loss: int, seed: int) -> str:
    payload = {
        "samples_per_loss": samples_per_loss,
        "seed": seed,
        "rel_tol": REL_TOL,
        "abs_tol": ABS_TOL,
        "passed": all(r.passed for r in reports),
        "reports": [r.to_dict() for r in reports],
    }
    return json.dumps(payload, indent=2) + "\n"


def brute_force_best_threshold_f1(
    ps: list[ProbPair], golds: list[int]
) -> tuple[float, float]:
    """Exhaustive best-F1 threshold for hardening, ties resolved toward 0.5.

    Candidates are every distinct p1, the default 0.5, and a point below the
    smallest p1 (so the all-positive labeling is reachable). Thresholding is
    strict, matching harden().
    """
    if len(ps) == 0 or len(ps) != len(golds):
        raise ValueError("need equally many probabilities and gold labels")
    p1s = [p.p1 for p in ps]
    candidates = {0.5}
    candidates.update(p1s)
    low = min(p1s)
    if low > 0.0:
        candidates.add(low / 2.0)
    candidates = sorted(c for c in candidates if 0.0 < c < 1.0)

    best = None
    for t in candidates:
        preds = [1 if q > t else 0 for q in p1s]
        f1 = binary_metrics(preds, golds).f1
        key = (-f1, abs(t - 0.5), t)
        if best is None or key < best[0]:
            best = (key, t, f1)
    return best[1], best[2]
