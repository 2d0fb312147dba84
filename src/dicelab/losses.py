"""Binary classification losses with closed-form gradients in the positive probability.

Seven interchangeable objectives: cross entropy, weighted cross entropy, a
squared-denominator per-sample dice loss, a batch-level (set) dice loss,
Tversky loss, a self-adjusting dice loss that down-weights easy examples, and
focal loss. Every loss has one fused kernel (`KERNELS`) that returns its
values and their analytic gradient with respect to p1; p0 is always
eliminated through p0 = 1 - p1. Training therefore needs no autodiff. Each
loss also keeps a value-only reference, which the finite-difference audit
differences, so the gradients stay auditable.

Kernels and value functions accept floats or numpy arrays interchangeably.
`batch_value_grad` is the trainer's entry point; `batch_mean_loss` is the
same reduction over validated ProbPair / OneHotLabel lists.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
import math
import sys

import numpy as np

# Probabilities are clamped to [PROB_EPS, 1 - PROB_EPS] before any logarithm.
# Dice-family losses are rational in p1 and are never clamped.
PROB_EPS = 1e-7

# Smallest positive dice-family smoothing gamma. Every dice denominator is at
# least gamma, so its square (the gradient's denominator) stays nonzero.
MIN_DICE_GAMMA = math.sqrt(sys.float_info.min)


class SingularInputError(ValueError):
    """A dice-family denominator is zero; only reachable with gamma = 0."""


class LossKind(str, Enum):
    CE = "CE"
    WCE = "WCE"
    DL_SAMPLE = "DL_sample"
    DL_SET = "DL_set"
    TL = "TL"
    DSC_SELFADJ = "DSC_selfadj"
    FL = "FL"


#: Kinds whose per-example weight comes from class frequencies.
WEIGHTED_KINDS = frozenset({LossKind.WCE, LossKind.FL})

#: Kinds defined through a soft overlap ratio; values always lie in [0, 1].
DICE_FAMILY = frozenset(
    {LossKind.DL_SAMPLE, LossKind.DL_SET, LossKind.TL, LossKind.DSC_SELFADJ}
)


def _require_finite(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class ProbPair:
    """Predicted class distribution (p0, p1) over {negative, positive}."""

    p0: float
    p1: float

    def __post_init__(self):
        _require_finite("p0", self.p0)
        _require_finite("p1", self.p1)
        if not (0.0 <= self.p0 <= 1.0 and 0.0 <= self.p1 <= 1.0):
            raise ValueError(f"probabilities must lie in [0, 1], got ({self.p0}, {self.p1})")
        if abs(self.p0 + self.p1 - 1.0) > 1e-12:
            raise ValueError(f"p0 + p1 must equal 1 within 1e-12, got {self.p0 + self.p1}")

    @classmethod
    def from_p1(cls, p1: float) -> "ProbPair":
        return cls(1.0 - p1, p1)


@dataclass(frozen=True)
class OneHotLabel:
    """Gold label as a one-hot pair (y0, y1)."""

    y0: int
    y1: int

    def __post_init__(self):
        if self.y0 not in (0, 1) or self.y1 not in (0, 1) or self.y0 + self.y1 != 1:
            raise ValueError(f"label must be one-hot over two classes, got ({self.y0}, {self.y1})")

    @classmethod
    def from_class(cls, label: int) -> "OneHotLabel":
        if label not in (0, 1):
            raise ValueError(f"class must be 0 or 1, got {label!r}")
        return cls(1 - label, label)


NEGATIVE = OneHotLabel(1, 0)
POSITIVE = OneHotLabel(0, 1)


@dataclass(frozen=True)
class LossSpec:
    """Loss selector plus hyperparameters.

    alpha, beta and gamma keep the values given; None stands for the kind's
    default, which `hyperparameters` fills in: Tversky gets alpha = beta =
    0.5 (the plain dice point), the self-adjusting decay exponent defaults
    to 1, the dice-family smoothing gamma defaults to 1, and the focal
    focusing exponent defaults to 2. So `replace(spec, kind=...)` gives the
    new kind its own defaults and keeps every value that was given. `gamma`
    is the smoothing constant for the dice family but the focusing exponent
    for FL; the two roles never coexist in one loss. `k` only matters for
    WCE/FL class weights and `detach_weight` only for DSC_selfadj gradients:
    when True (the default) the confidence-decay factor is held constant
    during differentiation, which keeps the per-sample push monotone in p1
    and is the mode that actually trains; set it False to get the exact
    derivative of the loss value (the mode finite differences can confirm).
    """

    kind: LossKind
    alpha: float | None = None
    beta: float | None = None
    gamma: float | None = None
    k: float = 1.0
    detach_weight: bool = True

    def __post_init__(self):
        try:
            kind = LossKind(self.kind)
        except ValueError:
            choices = ", ".join(k.value for k in LossKind)
            raise ValueError(f"kind must be one of {choices}, got {self.kind!r}") from None
        object.__setattr__(self, "kind", kind)
        alpha, beta, gamma = self.hyperparameters()
        for name, value in (("alpha", alpha), ("beta", beta), ("gamma", gamma), ("k", self.k)):
            _require_finite(name, value)
        if alpha < 0.0 or beta < 0.0:
            raise ValueError("alpha and beta must be nonnegative")
        if gamma < 0.0:
            raise ValueError("gamma must be nonnegative")
        if kind in DICE_FAMILY and 0.0 < gamma < MIN_DICE_GAMMA:
            raise ValueError(
                f"gamma for {kind.value} must be 0 or at least {MIN_DICE_GAMMA!r}, got {gamma!r}; "
                "a smaller gamma underflows the squared denominator of the gradient"
            )
        if self.k <= 0.0:
            raise ValueError("k must be positive")

    def hyperparameters(self) -> tuple[float, float, float]:
        """The effective (alpha, beta, gamma): each given value, else the kind's default."""
        tversky = self.kind is LossKind.TL
        return (
            (0.5 if tversky else 1.0) if self.alpha is None else self.alpha,
            (0.5 if tversky else 1.0) if self.beta is None else self.beta,
            (2.0 if self.kind is LossKind.FL else 1.0) if self.gamma is None else self.gamma,
        )


@dataclass(frozen=True)
class BatchLossValueGrad:
    """Batch loss value and the gradient of that value w.r.t. every p1 in the batch."""

    value: float
    dvalue_dp1: np.ndarray


# ---------------------------------------------------------------------------
# Value-only references (floats or arrays). finite_diff_grad differences
# these, so they never share code with the kernels below.
# ---------------------------------------------------------------------------


def clamp_probability(p):
    return np.clip(p, PROB_EPS, 1.0 - PROB_EPS)


def cross_entropy_value(p1, y1):
    p1c = clamp_probability(p1)
    return -(y1 * np.log(p1c) + (1.0 - y1) * np.log(1.0 - p1c))


def _check_dice_denominator(den) -> None:
    bad = np.asarray(den <= 0.0)
    if bad.any():
        index = int(np.argmax(bad))
        raise SingularInputError(
            f"dice-family denominator is zero at element {index}; "
            "gamma = 0 requires a nonempty soft overlap"
        )


def soft_dice_coefficient(p1, y1, gamma):
    """Per-sample soft dice (2*p1*y1 + gamma) / (p1 + y1 + gamma)."""
    num = 2.0 * p1 * y1 + gamma
    den = p1 + y1 + gamma
    if gamma == 0.0:
        _check_dice_denominator(den)
    return num / den


def dice_value(p1, y1, gamma):
    """Squared-denominator per-sample dice loss 1 - (2*p1*y1 + g) / (p1^2 + y1^2 + g)."""
    num = 2.0 * p1 * y1 + gamma
    den = p1 * p1 + y1 * y1 + gamma
    if gamma == 0.0:
        _check_dice_denominator(den)
    return 1.0 - num / den


def set_dice_value(p1, y1, gamma):
    """Batch-level dice loss over soft sets: 1 - (2*sum(p*y) + g) / (sum(p^2) + sum(y^2) + g)."""
    p1 = np.asarray(p1, dtype=np.float64)
    y1 = np.asarray(y1, dtype=np.float64)
    num = 2.0 * np.sum(p1 * y1) + gamma
    den = np.sum(p1 * p1) + np.sum(y1 * y1) + gamma
    if gamma == 0.0:
        _check_dice_denominator(den)
    return float(1.0 - num / den)


def tversky_value(p1, y1, alpha, beta, gamma):
    """Tversky loss; alpha prices false positives, beta false negatives.

    alpha = beta = 0.5 with gamma = 0 recovers the unsmoothed dice loss.
    """
    y0 = 1.0 - y1
    p0 = 1.0 - p1
    num = p1 * y1 + gamma
    den = p1 * y1 + alpha * p1 * y0 + beta * p0 * y1 + gamma
    if gamma == 0.0:
        _check_dice_denominator(den)
    return 1.0 - num / den


def self_adjusting_dice_value(p1, y1, alpha, gamma):
    """Self-adjusting dice: p1 is replaced by (1 - p1)**alpha * p1.

    The factor (1 - p1)**alpha shrinks the effective probability mass of
    confidently-positive predictions, so already-easy examples stop moving
    the objective. alpha = 0 turns the weight off and recovers
    1 - soft_dice_coefficient.
    """
    u = (1.0 - p1) ** alpha * p1
    num = 2.0 * u * y1 + gamma
    den = u + y1 + gamma
    if gamma == 0.0:
        _check_dice_denominator(den)
    return 1.0 - num / den


def focal_value(p1, y1, gamma_focus, weight):
    """Focal loss -weight * (1 - p_true)**gamma_focus * log(p_true)."""
    p1c = clamp_probability(p1)
    p_true = y1 * p1c + (1.0 - y1) * (1.0 - p1c)
    return -weight * (1.0 - p_true) ** gamma_focus * np.log(p_true)


def class_weight_coefficient(n_total: int, n_class: int, k: float) -> float:
    """Frequency-derived class weight log10((n_total - n_class) / n_class + k).

    Rare classes get large weights; with k = 1 a balanced class gets
    log10(2) ~= 0.301.
    """
    if not (0 < n_class <= n_total):
        raise ValueError(f"need 0 < n_class <= n_total, got {n_class} of {n_total}")
    argument = (n_total - n_class) / n_class + k
    if argument < 1.0:
        raise ValueError(
            f"k = {k!r} makes the weight log10({argument!r}) of a class with {n_class} "
            f"of {n_total} examples negative"
        )
    return math.log10(argument)


def class_weights(spec: LossSpec, n_pos: int, n_neg: int) -> tuple[float, float] | None:
    """(w0, w1) for n_pos positives and n_neg negatives, or None for an unweighted kind.

    The WEIGHTED_KINDS (WCE, FL) weigh each class by its `class_weight_coefficient`.
    """
    if spec.kind not in WEIGHTED_KINDS:
        return None
    n = n_pos + n_neg
    return class_weight_coefficient(n, n_neg, spec.k), class_weight_coefficient(n, n_pos, spec.k)


# ---------------------------------------------------------------------------
# Fused kernels: kernel(spec, p1, y1, weights) -> (values, d values / d p1).
# Each computes its loss's shared terms once. Every value expression keeps
# the evaluation order of its reference above, so the values are the same
# bits. Per-sample kinds work elementwise on floats or arrays; DL_set
# returns the whole-batch value and one gradient per entry.
# ---------------------------------------------------------------------------


def _cross_entropy_kernel(spec, p1, y1, weights):
    p1c = clamp_probability(p1)
    y0 = 1.0 - y1
    p0c = 1.0 - p1c
    return -(y1 * np.log(p1c) + y0 * np.log(p0c)), -y1 / p1c + y0 / p0c


def _weighted_cross_entropy_kernel(spec, p1, y1, weights):
    values, grads = _cross_entropy_kernel(spec, p1, y1, weights)
    return weights * values, weights * grads


def _dice_kernel(spec, p1, y1, weights):
    gamma = spec.hyperparameters()[2]
    num = 2.0 * p1 * y1 + gamma
    den = p1 * p1 + y1 * y1 + gamma
    if gamma == 0.0:
        _check_dice_denominator(den)
    return 1.0 - num / den, -2.0 * (y1 * den - p1 * num) / (den * den)


def _set_dice_kernel(spec, p1, y1, weights):
    p1 = np.asarray(p1, dtype=np.float64)
    y1 = np.asarray(y1, dtype=np.float64)
    gamma = spec.hyperparameters()[2]
    num = 2.0 * np.sum(p1 * y1) + gamma
    den = np.sum(p1 * p1) + np.sum(y1 * y1) + gamma
    if gamma == 0.0:
        _check_dice_denominator(den)
    return float(1.0 - num / den), -2.0 * (y1 * den - p1 * num) / (den * den)


def _tversky_kernel(spec, p1, y1, weights):
    alpha, beta, gamma = spec.hyperparameters()
    y0 = 1.0 - y1
    p0 = 1.0 - p1
    overlap = p1 * y1
    num = overlap + gamma
    den = overlap + alpha * p1 * y0 + beta * p0 * y1 + gamma
    if gamma == 0.0:
        _check_dice_denominator(den)
    dden = y1 + alpha * y0 - beta * y1
    return 1.0 - num / den, -(y1 * den - num * dden) / (den * den)


def _self_adjusting_dice_kernel(spec, p1, y1, weights):
    """With spec.detach_weight the decay factor (1 - p1)**alpha is held
    constant during differentiation (a stop-gradient on the weight); the
    value is the same either way."""
    alpha, _, gamma = spec.hyperparameters()
    q = 1.0 - p1
    w = q ** alpha
    u = w * p1
    num = 2.0 * u * y1 + gamma
    den = u + y1 + gamma
    if gamma == 0.0:
        _check_dice_denominator(den)
    if spec.detach_weight or alpha == 0.0:
        du = w
    else:
        du = w - alpha * q ** (alpha - 1.0) * p1
    return 1.0 - num / den, -(2.0 * du * y1 * den - num * du) / (den * den)


def _focal_kernel(spec, p1, y1, weights):
    gamma = spec.hyperparameters()[2]
    p1c = clamp_probability(p1)
    p_true = y1 * p1c + (1.0 - y1) * (1.0 - p1c)
    one_minus = 1.0 - p_true
    modulator = one_minus ** gamma
    log_p = np.log(p_true)
    d_dptrue = weights * gamma * one_minus ** (gamma - 1.0) * log_p - weights * modulator / p_true
    sign = 2.0 * y1 - 1.0  # dp_true/dp1 is +1 for positives, -1 for negatives
    return -weights * modulator * log_p, sign * d_dptrue


KERNELS = {
    LossKind.CE: _cross_entropy_kernel,
    LossKind.WCE: _weighted_cross_entropy_kernel,
    LossKind.DL_SAMPLE: _dice_kernel,
    LossKind.DL_SET: _set_dice_kernel,
    LossKind.TL: _tversky_kernel,
    LossKind.DSC_SELFADJ: _self_adjusting_dice_kernel,
    LossKind.FL: _focal_kernel,
}


def cross_entropy_grad(p1, y1):
    return _cross_entropy_kernel(LossSpec(LossKind.CE), p1, y1, 1.0)[1]


def dice_grad(p1, y1, gamma):
    return _dice_kernel(LossSpec(LossKind.DL_SAMPLE, gamma=gamma), p1, y1, 1.0)[1]


def set_dice_grads(p1, y1, gamma) -> np.ndarray:
    """Gradient of set_dice_value w.r.t. each p1; every entry shares the batch denominator."""
    return _set_dice_kernel(LossSpec(LossKind.DL_SET, gamma=gamma), p1, y1, 1.0)[1]


def self_adjusting_dice_grad(p1, y1, alpha, gamma, detach_weight=False):
    spec = LossSpec(LossKind.DSC_SELFADJ, alpha=alpha, gamma=gamma, detach_weight=detach_weight)
    return _self_adjusting_dice_kernel(spec, p1, y1, 1.0)[1]


# ---------------------------------------------------------------------------
# Dispatch over LossSpec.
# ---------------------------------------------------------------------------


def sample_value(spec: LossSpec, p1, y1, class_weight=1.0):
    """Per-sample loss value for any kind with a per-sample form."""
    kind = spec.kind
    alpha, beta, gamma = spec.hyperparameters()
    if kind is LossKind.CE:
        return cross_entropy_value(p1, y1)
    if kind is LossKind.WCE:
        return class_weight * cross_entropy_value(p1, y1)
    if kind is LossKind.DL_SAMPLE:
        return dice_value(p1, y1, gamma)
    if kind is LossKind.TL:
        return tversky_value(p1, y1, alpha, beta, gamma)
    if kind is LossKind.DSC_SELFADJ:
        return self_adjusting_dice_value(p1, y1, alpha, gamma)
    if kind is LossKind.FL:
        return focal_value(p1, y1, gamma, class_weight)
    raise ValueError(f"{kind.value} has no per-sample form")


def sample_grad(spec: LossSpec, p1, y1, class_weight=1.0):
    """Analytic d(value)/d(p1): the gradient the kind's kernel gives the trainer."""
    if spec.kind is LossKind.DL_SET:
        raise ValueError(f"{spec.kind.value} has no per-sample form")
    return KERNELS[spec.kind](spec, p1, y1, class_weight)[1]


def batch_value_grad(
    spec: LossSpec,
    p1: np.ndarray,
    y1: np.ndarray,
    class_weights: tuple[float, float] | None = None,
) -> tuple[float, np.ndarray]:
    """Batch loss value and its gradient w.r.t. each p1, on raw arrays.

    For per-sample kinds the value is the arithmetic mean and the gradients
    are the per-sample gradients divided by the batch size, so the pair is
    always (L, dL/dp1_i) for the single scalar L the trainer descends.
    DL_set is evaluated on the whole batch as one soft set.
    """
    p1 = np.asarray(p1, dtype=np.float64)
    y1 = np.asarray(y1, dtype=np.float64)
    n = p1.shape[0]
    if n == 0:
        raise ValueError("batch must be nonempty")
    if spec.kind in WEIGHTED_KINDS:
        if class_weights is None:
            raise ValueError(f"{spec.kind.value} requires class_weights")
        w0, w1 = class_weights
        if w0 < 0.0 or w1 < 0.0:
            raise ValueError("class weights must be nonnegative")
        weights = np.where(y1 == 1.0, w1, w0)
    else:
        if class_weights is not None:
            raise ValueError(f"{spec.kind.value} does not take class_weights")
        weights = 1.0
    values, grads = KERNELS[spec.kind](spec, p1, y1, weights)
    if spec.kind is LossKind.DL_SET:
        return values, grads
    # add.reduce then divide is exactly what np.mean does, without its overhead.
    return float(np.add.reduce(values) / n), grads / n


def batch_mean_loss(
    spec: LossSpec,
    ps: list[ProbPair],
    ys: list[OneHotLabel],
    class_weights: tuple[float, float] | None = None,
) -> BatchLossValueGrad:
    """Typed batch reduction: mean per-sample loss, or the set loss for DL_set."""
    if len(ps) == 0:
        raise ValueError("batch must be nonempty")
    if len(ps) != len(ys):
        raise ValueError(f"batch size mismatch: {len(ps)} probabilities, {len(ys)} labels")
    p1 = np.array([p.p1 for p in ps], dtype=np.float64)
    y1 = np.array([y.y1 for y in ys], dtype=np.float64)
    value, grads = batch_value_grad(spec, p1, y1, class_weights)
    return BatchLossValueGrad(value, grads)
