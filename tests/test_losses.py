"""Loss values, analytic gradients, degeneracy identities, and batch semantics.

Golden numbers were produced by an independent oracle script (plain-Python
arithmetic, no package imports) and are frozen here as literals.
"""

from __future__ import annotations

import dataclasses
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dicelab.losses import (
    DICE_FAMILY,
    KERNELS,
    NEGATIVE,
    POSITIVE,
    WEIGHTED_KINDS,
    BatchLossValueGrad,
    LossKind,
    LossSpec,
    OneHotLabel,
    ProbPair,
    SingularInputError,
    batch_mean_loss,
    batch_value_grad,
    class_weight_coefficient,
    class_weights,
    clamp_probability,
    cross_entropy_grad,
    cross_entropy_value,
    dice_grad,
    dice_value,
    focal_value,
    sample_grad,
    sample_value,
    self_adjusting_dice_grad,
    self_adjusting_dice_value,
    set_dice_grads,
    set_dice_value,
    soft_dice_coefficient,
    tversky_value,
)

APPROX = dict(rel=1e-12, abs=1e-12)

_SCALAR_KINDS = [k for k in LossKind if k is not LossKind.DL_SET]


def _spec_for(kind: LossKind, **kw) -> LossSpec:
    """A spec whose gradient is the true derivative (decay factor differentiated)."""
    return LossSpec(kind, detach_weight=False, **kw)


def _central_diff(f, x: float, h: float = 1e-6) -> float:
    return (f(x + h) - f(x - h)) / (2.0 * h)


def _value_grad(spec: LossSpec, p1: float, y1: float, weight: float = 1.0) -> tuple[float, float]:
    """(value, d value / d p1) of one example from the kind's kernel."""
    value, grad = KERNELS[spec.kind](spec, p1, y1, weight)
    return float(value), float(grad)


# Smallest positive dice smoothing whose square is still a normal float.
_MIN_DICE_GAMMA = math.sqrt(sys.float_info.min)


# --- typed containers -------------------------------------------------------


def test_prob_pair_validation():
    p = ProbPair(0.3, 0.7)
    assert (p.p0, p.p1) == (0.3, 0.7)
    assert ProbPair.from_p1(0.7) == ProbPair(0.30000000000000004, 0.7)
    with pytest.raises(ValueError):
        ProbPair(0.3, 0.68)  # does not sum to 1
    with pytest.raises(ValueError):
        ProbPair(-0.1, 1.1)
    with pytest.raises(ValueError):
        ProbPair(float("nan"), 1.0)


def test_one_hot_label_validation():
    assert OneHotLabel.from_class(1) == POSITIVE == OneHotLabel(0, 1)
    assert OneHotLabel.from_class(0) == NEGATIVE == OneHotLabel(1, 0)
    for bad in [(1, 1), (0, 0), (2, -1)]:
        with pytest.raises(ValueError):
            OneHotLabel(*bad)
    with pytest.raises(ValueError):
        OneHotLabel.from_class(2)


def test_loss_spec_per_kind_defaults():
    assert LossSpec(LossKind.TL).hyperparameters() == (0.5, 0.5, 1.0)
    assert LossSpec(LossKind.FL).hyperparameters()[2] == 2.0
    assert LossSpec(LossKind.DL_SAMPLE).hyperparameters()[2] == 1.0
    dsc = LossSpec(LossKind.DSC_SELFADJ)
    assert dsc.hyperparameters()[0] == 1.0
    assert dsc.detach_weight is True  # training-oriented default
    assert LossSpec("CE").kind is LossKind.CE  # string coercion


def test_a_kind_change_takes_the_new_kinds_defaults_and_keeps_given_values():
    spec = LossSpec(LossKind.CE)
    assert (spec.alpha, spec.beta, spec.gamma) == (None, None, None)  # nothing is filled in
    assert dataclasses.replace(spec, kind=LossKind.TL).hyperparameters() == (0.5, 0.5, 1.0)
    assert dataclasses.replace(LossSpec(LossKind.TL), kind=LossKind.FL).hyperparameters() == (1.0, 1.0, 2.0)
    given = LossSpec(LossKind.CE, alpha=0.25, gamma=0.0)
    for kind, effective in [(LossKind.TL, (0.25, 0.5, 0.0)), (LossKind.FL, (0.25, 1.0, 0.0))]:
        assert dataclasses.replace(given, kind=kind).hyperparameters() == effective


def test_loss_spec_validation():
    with pytest.raises(ValueError):
        LossSpec(LossKind.TL, alpha=-0.1)
    with pytest.raises(ValueError):
        LossSpec(LossKind.TL, beta=-1.0)
    with pytest.raises(ValueError):
        LossSpec(LossKind.DL_SAMPLE, gamma=-0.5)
    with pytest.raises(ValueError):
        LossSpec(LossKind.WCE, k=0.0)
    with pytest.raises(ValueError):
        LossSpec(LossKind.CE, alpha=float("nan"))
    with pytest.raises(ValueError):
        LossSpec("BOGUS")


def test_loss_spec_rejects_a_dice_gamma_whose_square_underflows():
    for kind in sorted(DICE_FAMILY):
        for tiny in (1e-170, 0.5 * _MIN_DICE_GAMMA):
            with pytest.raises(ValueError, match="gamma"):
                LossSpec(kind, gamma=tiny)
        assert LossSpec(kind, gamma=0.0).gamma == 0.0
        spec = LossSpec(kind, gamma=_MIN_DICE_GAMMA)
        _, grads = KERNELS[kind](spec, np.zeros(2), np.zeros(2), 1.0)
        assert np.all(np.isfinite(grads))
    # for FL gamma is the focusing exponent, where a tiny value is harmless
    assert LossSpec(LossKind.FL, gamma=1e-170).gamma == 1e-170


# --- cross entropy ----------------------------------------------------------


def test_cross_entropy_hand_values():
    ce = LossSpec(LossKind.CE)
    assert _value_grad(ce, 0.7, 1.0)[0] == pytest.approx(0.35667494393873245, **APPROX)
    # same mass on the gold class gives the same loss for a negative
    assert _value_grad(ce, 0.3, 0.0)[0] == pytest.approx(0.35667494393873245, **APPROX)
    assert _value_grad(ce, 0.5, 1.0)[1] == pytest.approx(-2.0, **APPROX)


def test_cross_entropy_clamps_certain_predictions():
    ce = LossSpec(LossKind.CE)
    value, _ = _value_grad(ce, 1.0, 1.0)
    assert value == pytest.approx(1.0000000494736474e-07, rel=1e-9)
    assert value < 1e-6  # a perfect prediction costs (numerically) nothing
    wrong, _ = _value_grad(ce, 0.0, 1.0)
    assert math.isfinite(wrong) and wrong > 16.0  # -log(1e-7)


def test_clamp_probability_window():
    assert clamp_probability(0.0) == 1e-7
    assert clamp_probability(1.0) == 1.0 - 1e-7
    assert clamp_probability(0.42) == 0.42


def test_cross_entropy_nonnegative_on_grid():
    ps = np.linspace(0.0, 1.0, 101)
    assert (cross_entropy_value(ps, 1.0) >= 0.0).all()
    assert (cross_entropy_value(ps, 0.0) >= 0.0).all()


# --- class weights and weighted cross entropy -------------------------------


def test_class_weight_coefficient_hand_values():
    assert class_weight_coefficient(100, 20, 1.0) == pytest.approx(
        0.6989700043360189, **APPROX
    )
    assert class_weight_coefficient(100, 50, 1.0) == pytest.approx(
        0.3010299956639812, **APPROX
    )
    # (n - n_c)/n_c + 9 == 10 for a balanced class, so the log10 is exactly 1
    assert class_weight_coefficient(80, 40, 9.0) == pytest.approx(1.0, **APPROX)


def test_class_weight_coefficient_rejects_invalid_counts():
    with pytest.raises(ValueError):
        class_weight_coefficient(100, 0, 1.0)
    with pytest.raises(ValueError):
        class_weight_coefficient(100, 101, 1.0)


def test_class_weight_coefficient_names_k_when_the_weight_would_be_negative():
    # The majority class of a ratio-10 batch: log10(100 / 1000 + 0.5) < 0.
    with pytest.raises(ValueError, match=r"k = 0\.5 .* class with 1000 of 1100 examples negative"):
        class_weight_coefficient(1100, 1000, 0.5)
    assert class_weight_coefficient(1100, 1000, 0.9) == 0.0  # log10(1): zero, not negative


@pytest.mark.parametrize("kind", list(LossKind), ids=[k.value for k in LossKind])
def test_class_weights_are_the_coefficients_of_the_weighted_kinds_only(kind):
    """20 positives and 80 negatives: (w0, w1) = (log10(20/80 + k), log10(80/20 + k))."""
    spec = LossSpec(kind, k=2.0)
    if kind in (LossKind.WCE, LossKind.FL):
        expected = (class_weight_coefficient(100, 80, 2.0), class_weight_coefficient(100, 20, 2.0))
        assert class_weights(spec, 20, 80) == expected
        assert expected == pytest.approx((math.log10(2.25), math.log10(6.0)), **APPROX)
    else:
        assert class_weights(spec, 20, 80) is None


def test_weighted_cross_entropy_scales_cross_entropy():
    wce, ce = LossSpec(LossKind.WCE), LossSpec(LossKind.CE)
    value, grad = _value_grad(wce, 0.7, 1.0, 0.69897)
    assert value == pytest.approx(0.69897 * 0.35667494393873245, **APPROX)
    assert grad == pytest.approx(0.69897 * _value_grad(ce, 0.7, 1.0)[1], **APPROX)
    assert _value_grad(wce, 0.7, 1.0, 0.0)[0] == 0.0


@given(p1=st.floats(0.01, 0.99), label=st.integers(0, 1))
@settings(max_examples=60, deadline=None)
def test_unit_weight_cross_entropy_is_plain_cross_entropy(p1, label):
    y1 = float(label)
    assert _value_grad(LossSpec(LossKind.WCE), p1, y1, 1.0) == _value_grad(LossSpec(LossKind.CE), p1, y1)


# --- per-sample dice --------------------------------------------------------


def test_soft_dice_coefficient_hand_values():
    assert soft_dice_coefficient(1.0, 1.0, 1.0) == pytest.approx(1.0, **APPROX)
    assert soft_dice_coefficient(0.4, 0.0, 1.0) == pytest.approx(0.7142857142857143, **APPROX)
    assert soft_dice_coefficient(0.5, 1.0, 0.0) == pytest.approx(0.6666666666666666, **APPROX)


def test_squared_denominator_dice_hand_values():
    assert dice_value(0.0, 0.0, 1.0) == pytest.approx(0.0, **APPROX)
    assert dice_value(1.0, 1.0, 1.0) == pytest.approx(0.0, **APPROX)
    assert dice_value(0.5, 1.0, 1.0) == pytest.approx(0.11111111111111116, **APPROX)
    value, _ = _value_grad(LossSpec(LossKind.DL_SAMPLE, gamma=1.0), 0.5, 1.0)
    assert value == pytest.approx(0.11111111111111116, **APPROX)


def test_dice_gamma_zero_keeps_negatives_lossless_but_singular_at_origin():
    # with gamma 0 a negative has value exactly 1 for any p1 > 0 ...
    assert dice_value(0.7, 0.0, 0.0) == pytest.approx(1.0, **APPROX)
    # ... and an empty soft overlap has no defined value
    with pytest.raises(SingularInputError):
        dice_value(0.0, 0.0, 0.0)
    with pytest.raises(SingularInputError):
        soft_dice_coefficient(0.0, 0.0, 0.0)


def test_singular_input_error_names_offending_element():
    with pytest.raises(SingularInputError, match="element 2"):
        dice_value(np.array([0.5, 0.3, 0.0]), np.array([1.0, 0.0, 0.0]), 0.0)


def test_dice_value_strictly_monotone_in_p1_with_unit_smoothing():
    ps = np.linspace(0.0, 1.0, 201)
    pos = dice_value(ps, 1.0, 1.0)
    neg = dice_value(ps, 0.0, 1.0)
    assert (np.diff(pos) < 0.0).all()  # more confidence on a positive: lower loss
    assert (np.diff(neg) > 0.0).all()  # more confidence on a negative: higher loss


def test_dice_family_values_stay_in_unit_interval():
    ps = np.linspace(0.0, 1.0, 101)
    for y in (0.0, 1.0):
        for gamma in (0.5, 1.0, 2.0):
            vals = dice_value(ps, y, gamma)
            assert (vals >= 0.0).all() and (vals <= 1.0).all()


# --- set-level dice ---------------------------------------------------------


def test_set_dice_value_two_example_hand_value():
    assert set_dice_value([1.0, 1.0], [1.0, 0.0], 0.0) == pytest.approx(
        0.33333333333333337, **APPROX
    )
    got = batch_mean_loss(
        LossSpec(LossKind.DL_SET, gamma=0.0), [ProbPair(0.0, 1.0), ProbPair(0.0, 1.0)], [POSITIVE, NEGATIVE]
    )
    assert isinstance(got, BatchLossValueGrad)
    assert got.value == pytest.approx(0.33333333333333337, **APPROX)


def test_set_dice_perfect_batch_has_zero_loss():
    ps = [1.0, 0.0, 1.0, 0.0]
    ys = [1.0, 0.0, 1.0, 0.0]
    assert set_dice_value(ps, ys, 1.0) == 0.0
    assert set_dice_value(ps, ys, 0.0) == 0.0


@given(
    p1=st.floats(0.01, 0.99),
    label=st.integers(0, 1),
    gamma=st.floats(0.1, 2.0),
)
@settings(max_examples=60, deadline=None)
def test_singleton_set_dice_equals_per_sample_dice(p1, label, gamma):
    y1 = float(label)
    assert set_dice_value([p1], [y1], gamma) == pytest.approx(
        dice_value(p1, y1, gamma), rel=1e-12, abs=1e-12
    )


def test_set_dice_loss_input_validation():
    dl_set = LossSpec(LossKind.DL_SET)
    with pytest.raises(ValueError):
        batch_mean_loss(dl_set, [], [])
    with pytest.raises(ValueError):
        batch_mean_loss(dl_set, [ProbPair(0.5, 0.5)], [POSITIVE, NEGATIVE])
    with pytest.raises(SingularInputError):
        set_dice_value([0.0, 0.0], [0.0, 0.0], 0.0)


def test_set_dice_grads_match_finite_differences_per_coordinate():
    ps = np.array([0.2, 0.9, 0.5, 0.7])
    ys = np.array([0.0, 1.0, 1.0, 0.0])
    for gamma in (0.5, 1.0):
        grads = set_dice_grads(ps, ys, gamma)
        for j in range(len(ps)):
            def value_at(q, j=j, gamma=gamma):
                moved = ps.copy()
                moved[j] = q
                return set_dice_value(moved, ys, gamma)

            assert grads[j] == pytest.approx(_central_diff(value_at, ps[j]), rel=1e-6, abs=1e-9)


# --- tversky ----------------------------------------------------------------


def test_tversky_hand_values():
    assert tversky_value(0.5, 0.0, 0.3, 0.7, 1.0) == pytest.approx(
        0.13043478260869557, **APPROX
    )
    value, _ = _value_grad(LossSpec(LossKind.TL, alpha=0.3, beta=0.7, gamma=1.0), 0.5, 0.0)
    assert value == pytest.approx(0.13043478260869557, **APPROX)
    # a perfectly confident positive is lossless for any alpha/beta even unsmoothed
    assert tversky_value(1.0, 1.0, 0.9, 0.1, 0.0) == 0.0


def test_balanced_tversky_equals_unsmoothed_dice_on_positives():
    ps = np.linspace(0.01, 0.99, 197)
    tv = tversky_value(ps, 1.0, 0.5, 0.5, 0.0)
    plain = 1.0 - soft_dice_coefficient(ps, 1.0, 0.0)
    np.testing.assert_allclose(tv, plain, rtol=1e-12, atol=1e-12)
    assert tversky_value(0.8, 1.0, 0.5, 0.5, 0.0) == pytest.approx(
        0.11111111111111105, **APPROX
    )


def test_tversky_false_positive_penalty_grows_with_alpha():
    # on a negative example, alpha prices the false-positive mass p1
    lo = tversky_value(0.6, 0.0, 0.1, 0.9, 1.0)
    hi = tversky_value(0.6, 0.0, 0.9, 0.1, 1.0)
    assert hi > lo


def test_tversky_singular_without_smoothing_at_origin():
    with pytest.raises(SingularInputError):
        tversky_value(0.0, 0.0, 0.5, 0.5, 0.0)


# --- self-adjusting dice ----------------------------------------------------


def test_self_adjusting_dice_hand_value():
    # u = (1 - 0.9) * 0.9 = 0.09 -> 1 - (2*0.09 + 1) / (0.09 + 1 + 1)
    assert self_adjusting_dice_value(0.9, 1.0, 1.0, 1.0) == pytest.approx(
        0.43540669856459324, **APPROX
    )
    value, _ = _value_grad(LossSpec(LossKind.DSC_SELFADJ, alpha=1.0, gamma=1.0), 0.9, 1.0)
    assert value == pytest.approx(0.43540669856459324, **APPROX)


def test_self_adjusting_weight_peaks_at_one_half():
    def u(p):
        return (1.0 - p) * p

    assert u(0.5) == pytest.approx(0.25, **APPROX)
    assert u(0.99) == pytest.approx(0.0099, **APPROX)
    grid = np.linspace(0.0, 1.0, 101)
    assert grid[np.argmax(u(grid))] == pytest.approx(0.5, abs=1e-9)


@given(p1=st.floats(0.01, 0.99), label=st.integers(0, 1), gamma=st.floats(0.1, 2.0))
@settings(max_examples=60, deadline=None)
def test_zero_decay_exponent_reduces_to_plain_dice(p1, label, gamma):
    y1 = float(label)
    assert self_adjusting_dice_value(p1, y1, 0.0, gamma) == 1.0 - soft_dice_coefficient(
        p1, y1, gamma
    )
    # both detach modes agree when the decay factor is constant
    assert self_adjusting_dice_grad(p1, y1, 0.0, gamma, True) == self_adjusting_dice_grad(
        p1, y1, 0.0, gamma, False
    )


def test_detach_flag_changes_gradient_but_never_value():
    kept = _value_grad(LossSpec(LossKind.DSC_SELFADJ, alpha=1.0, gamma=1.0, detach_weight=False), 0.3, 1.0)
    detached = _value_grad(LossSpec(LossKind.DSC_SELFADJ, alpha=1.0, gamma=1.0, detach_weight=True), 0.3, 1.0)
    assert detached[0] == kept[0]
    assert detached[1] != kept[1]


def test_differentiated_gradient_reverses_sign_but_detached_does_not():
    # The exact derivative flips sign across p1 = 0.5 on a positive (the decay
    # factor dominates); the detached gradient keeps pushing p1 upward.
    before = self_adjusting_dice_grad(0.3, 1.0, 1.0, 1.0, False)
    after = self_adjusting_dice_grad(0.7, 1.0, 1.0, 1.0, False)
    assert before < 0.0 < after
    assert self_adjusting_dice_grad(0.3, 1.0, 1.0, 1.0, True) < 0.0
    assert self_adjusting_dice_grad(0.7, 1.0, 1.0, 1.0, True) < 0.0


@given(
    p1=st.floats(0.02, 0.98),
    label=st.integers(0, 1),
    alpha=st.floats(0.0, 2.0),
    gamma=st.floats(0.1, 2.0),
)
@settings(max_examples=60, deadline=None)
def test_detached_gradient_differentiates_frozen_weight_surrogate(p1, label, alpha, gamma):
    y1 = float(label)
    w0 = (1.0 - p1) ** alpha  # decay factor frozen at the evaluation point

    def surrogate(q):
        u = w0 * q
        return 1.0 - (2.0 * u * y1 + gamma) / (u + y1 + gamma)

    analytic = self_adjusting_dice_grad(p1, y1, alpha, gamma, True)
    estimate = _central_diff(surrogate, p1)
    assert analytic == pytest.approx(estimate, rel=1e-4, abs=1e-7)


# --- focal ------------------------------------------------------------------


def test_focal_hand_value():
    value, _ = _value_grad(LossSpec(LossKind.FL, gamma=2.0), 0.8, 1.0, 1.0)
    assert value == pytest.approx(0.008925742052568384, **APPROX)


@given(p1=st.floats(0.01, 0.99), label=st.integers(0, 1))
@settings(max_examples=60, deadline=None)
def test_zero_focus_focal_is_cross_entropy(p1, label):
    y1 = float(label)
    assert _value_grad(LossSpec(LossKind.FL, gamma=0.0), p1, y1, 1.0) == _value_grad(LossSpec(LossKind.CE), p1, y1)


@given(p1=st.floats(0.01, 0.99), g=st.floats(0.5, 4.0))
@settings(max_examples=60, deadline=None)
def test_focal_is_cross_entropy_shrunk_by_miss_mass(p1, g):
    # for a positive, p_true == p1, so FL == (1 - p1)^g * CE exactly
    fl = focal_value(p1, 1.0, g, 1.0)
    ce = cross_entropy_value(p1, 1.0)
    assert fl == pytest.approx((1.0 - p1) ** g * ce, rel=1e-12, abs=1e-15)
    assert fl <= ce


def test_focal_rejects_bad_hyperparameters():
    with pytest.raises(ValueError):
        LossSpec(LossKind.FL, gamma=-1.0)
    with pytest.raises(ValueError):
        batch_value_grad(LossSpec(LossKind.FL), np.array([0.5]), np.array([1.0]), class_weights=(1.0, -0.1))


# --- analytic gradients vs central differences ------------------------------


@given(
    kind=st.sampled_from(_SCALAR_KINDS),
    p1=st.floats(0.02, 0.98),
    label=st.integers(0, 1),
    gamma=st.floats(0.1, 2.0),
    alpha=st.floats(0.0, 2.0),
    beta=st.floats(0.0, 2.0),
    weight=st.floats(0.1, 3.0),
)
@settings(max_examples=250, deadline=None)
def test_sample_gradients_match_central_differences(kind, p1, label, gamma, alpha, beta, weight):
    spec = _spec_for(kind, alpha=alpha, beta=beta, gamma=gamma)
    y1 = float(label)
    class_weight = weight if kind in WEIGHTED_KINDS else 1.0
    analytic = float(sample_grad(spec, p1, y1, class_weight))
    estimate = _central_diff(lambda q: float(sample_value(spec, q, y1, class_weight)), p1)
    assert analytic == pytest.approx(estimate, rel=1e-4, abs=1e-7)


# --- fused kernels ----------------------------------------------------------

_BATCHES = st.lists(st.tuples(st.floats(0.0, 1.0), st.integers(0, 1)), min_size=1, max_size=16)


def _kernel_inputs(kind, batch, alpha, beta, gamma, weight, detach):
    p1 = np.array([p for p, _ in batch])
    y1 = np.array([float(label) for _, label in batch])
    spec = LossSpec(kind, alpha=alpha, beta=beta, gamma=gamma, detach_weight=detach)
    weights = np.where(y1 == 1.0, weight, 0.5 * weight) if kind in WEIGHTED_KINDS else 1.0
    return spec, p1, y1, weights


_KERNEL_CASES = dict(
    kind=st.sampled_from(list(LossKind)),
    batch=_BATCHES,
    alpha=st.floats(0.0, 2.0),
    beta=st.floats(0.0, 2.0),
    gamma=st.floats(0.01, 3.0) | st.just(_MIN_DICE_GAMMA),
    weight=st.floats(0.0, 3.0),
    detach=st.booleans(),
)


@given(**_KERNEL_CASES)
@settings(max_examples=300, deadline=None)
def test_kernel_values_equal_the_value_references_bit_for_bit(kind, batch, alpha, beta, gamma, weight, detach):
    spec, p1, y1, weights = _kernel_inputs(kind, batch, alpha, beta, gamma, weight, detach)
    with np.errstate(all="ignore"):
        values, _ = KERNELS[kind](spec, p1, y1, weights)
    if kind is LossKind.DL_SET:
        expected = set_dice_value(p1, y1, gamma)
    else:
        expected = sample_value(spec, p1, y1, weights)
    assert np.asarray(values).tobytes() == np.asarray(expected).tobytes()


@given(**_KERNEL_CASES)
@settings(max_examples=300, deadline=None)
def test_kernel_gradients_are_finite_on_the_closed_unit_interval(kind, batch, alpha, beta, gamma, weight, detach):
    spec, p1, y1, weights = _kernel_inputs(kind, batch, alpha, beta, gamma, weight, detach)
    with np.errstate(all="ignore"):
        values, grads = KERNELS[kind](spec, p1, y1, weights)
    assert np.all(np.isfinite(values))
    defined = np.ones(p1.shape, dtype=bool)
    if kind is LossKind.DSC_SELFADJ and not detach and 0.0 < alpha < 1.0:
        # The exact derivative of (1 - p1)**alpha * p1 is -inf at p1 = 1; the
        # trainer's gradient check is what stops it from reaching parameters.
        defined = p1 < 1.0
    assert np.all(np.isfinite(np.asarray(grads)[defined]))


@pytest.mark.parametrize("kind", list(LossKind))
@given(**{name: cases for name, cases in _KERNEL_CASES.items() if name != "kind"})
@settings(max_examples=150, deadline=None)
def test_kernel_gradients_push_p1_toward_the_label(kind, batch, alpha, beta, gamma, weight, detach):
    """On [0, 1] the gradient is <= 0 for positives and >= 0 for negatives.

    DSC_selfadj keeps this sign only with the decay factor detached: its
    exact derivative turns positive past p1 = 0.5 on a positive (see
    test_differentiated_gradient_reverses_sign_but_detached_does_not).
    DL_set is checked on the whole batch, whose entries share one denominator.
    """
    if kind is LossKind.DSC_SELFADJ:
        detach = True
    spec, p1, y1, weights = _kernel_inputs(kind, batch, alpha, beta, gamma, weight, detach)
    with np.errstate(all="ignore"):
        _, grads = KERNELS[kind](spec, p1, y1, weights)
    assert np.all(grads[y1 == 1.0] <= 0.0)
    assert np.all(grads[y1 == 0.0] >= 0.0)


def test_sample_grad_is_the_gradient_the_trainer_descends():
    spec = LossSpec(LossKind.TL, alpha=0.3, beta=0.7)
    p1 = np.linspace(0.0, 1.0, 11)
    y1 = (np.arange(11) % 2).astype(np.float64)
    _, batch_grads = batch_value_grad(spec, p1, y1)
    assert (sample_grad(spec, p1, y1) / 11).tobytes() == batch_grads.tobytes()


def test_cross_entropy_grad_matches_closed_form():
    ps = np.linspace(0.05, 0.95, 19)
    np.testing.assert_allclose(cross_entropy_grad(ps, 1.0), -1.0 / ps, rtol=1e-12)
    np.testing.assert_allclose(cross_entropy_grad(ps, 0.0), 1.0 / (1.0 - ps), rtol=1e-12)


def test_dice_grad_matches_quotient_rule_on_grid():
    ps = np.linspace(0.05, 0.95, 19)
    for y1 in (0.0, 1.0):
        got = dice_grad(ps, y1, 1.0)
        num = 2.0 * ps * y1 + 1.0
        den = ps * ps + y1 * y1 + 1.0
        expected = -(2.0 * y1 * den - 2.0 * ps * num) / den**2
        np.testing.assert_allclose(got, expected, rtol=1e-12)


# --- dispatch and batch semantics -------------------------------------------


def test_set_level_kind_has_no_per_sample_form():
    spec = LossSpec(LossKind.DL_SET)
    with pytest.raises(ValueError, match="no per-sample form"):
        sample_value(spec, 0.5, 1.0)
    with pytest.raises(ValueError, match="no per-sample form"):
        sample_grad(spec, 0.5, 1.0)


def test_batch_mean_of_constant_batch_equals_single_sample():
    spec = _spec_for(LossKind.DL_SAMPLE)
    ps = [ProbPair(0.4, 0.6)] * 3
    ys = [POSITIVE] * 3
    got = batch_mean_loss(spec, ps, ys)
    assert got.value == pytest.approx(float(sample_value(spec, 0.6, 1.0)), **APPROX)


def test_batch_mean_cross_entropy_two_example_hand_value():
    got = batch_mean_loss(
        LossSpec(LossKind.CE),
        [ProbPair(0.3, 0.7), ProbPair(0.0, 1.0)],
        [POSITIVE, POSITIVE],
    )
    assert got.value == pytest.approx(0.1783375219693687, **APPROX)


def test_batch_gradients_are_per_sample_gradients_over_n():
    spec = _spec_for(LossKind.TL, alpha=0.3, beta=0.7)
    p1 = np.array([0.2, 0.6, 0.9])
    y1 = np.array([0.0, 1.0, 1.0])
    value, grads = batch_value_grad(spec, p1, y1)
    per_sample = np.array([float(sample_grad(spec, p, y)) for p, y in zip(p1, y1)])
    np.testing.assert_allclose(grads, per_sample / 3.0, rtol=1e-12)
    assert value == pytest.approx(float(np.mean(sample_value(spec, p1, y1))), **APPROX)


def test_batch_set_dice_shares_one_denominator():
    spec = LossSpec(LossKind.DL_SET, gamma=0.0)
    p1 = np.array([1.0, 1.0])
    y1 = np.array([1.0, 0.0])
    value, grads = batch_value_grad(spec, p1, y1)
    assert value == pytest.approx(0.33333333333333337, **APPROX)
    np.testing.assert_allclose(grads, set_dice_grads(p1, y1, 0.0), rtol=1e-12)


def test_class_weights_required_exactly_for_weighted_kinds():
    p1 = np.array([0.3, 0.8])
    y1 = np.array([0.0, 1.0])
    for kind in (LossKind.WCE, LossKind.FL):
        with pytest.raises(ValueError, match="requires class_weights"):
            batch_value_grad(LossSpec(kind), p1, y1)
        value, _ = batch_value_grad(LossSpec(kind), p1, y1, class_weights=(0.5, 1.5))
        assert math.isfinite(value)
    for kind in (LossKind.CE, LossKind.DL_SAMPLE, LossKind.DL_SET, LossKind.TL, LossKind.DSC_SELFADJ):
        with pytest.raises(ValueError, match="does not take class_weights"):
            batch_value_grad(LossSpec(kind), p1, y1, class_weights=(0.5, 1.5))


def test_batch_class_weights_are_applied_per_class():
    p1 = np.array([0.3, 0.8])
    y1 = np.array([0.0, 1.0])
    w0, w1 = 0.2, 0.7
    value, _ = batch_value_grad(LossSpec(LossKind.WCE), p1, y1, class_weights=(w0, w1))
    manual = (w0 * cross_entropy_value(0.3, 0.0) + w1 * cross_entropy_value(0.8, 1.0)) / 2.0
    assert value == pytest.approx(float(manual), **APPROX)
    with pytest.raises(ValueError):
        batch_value_grad(LossSpec(LossKind.WCE), p1, y1, class_weights=(-0.1, 1.0))


def test_batch_rejects_empty_or_mismatched_inputs():
    with pytest.raises(ValueError):
        batch_value_grad(LossSpec(LossKind.CE), np.array([]), np.array([]))
    with pytest.raises(ValueError):
        batch_mean_loss(LossSpec(LossKind.CE), [ProbPair(0.5, 0.5)], [POSITIVE, NEGATIVE])
