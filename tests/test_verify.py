"""Verification oracles: finite differences, gradient sweep, threshold search."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dicelab.verify as verify
from dicelab.losses import (
    NEGATIVE,
    POSITIVE,
    LossKind,
    LossSpec,
    ProbPair,
    dice_grad,
)
from dicelab.metrics import binary_metrics, harden
from dicelab.verify import (
    ABS_TOL,
    REL_TOL,
    brute_force_best_threshold_f1,
    finite_diff_grad,
    gradcheck_all,
    reports_to_json,
)


# --- finite differences -----------------------------------------------------


def test_finite_diff_matches_closed_form_cross_entropy():
    got = finite_diff_grad(LossSpec(LossKind.CE), 0.5, POSITIVE)
    assert got == pytest.approx(-2.0, rel=1e-5)


def test_finite_diff_works_at_dice_boundaries():
    # the dice family is defined on all of [0, 1], so stepping over the edge is fine
    got = finite_diff_grad(LossSpec(LossKind.DL_SAMPLE), 0.0, NEGATIVE)
    assert got == pytest.approx(0.0, abs=1e-6)
    got = finite_diff_grad(LossSpec(LossKind.DL_SAMPLE), 1.0, POSITIVE)
    assert got == pytest.approx(0.0, abs=1e-6)


def test_finite_diff_rejects_boundary_for_log_based_losses():
    for kind in (LossKind.CE, LossKind.WCE, LossKind.FL):
        with pytest.raises(ValueError, match="domain boundary"):
            finite_diff_grad(LossSpec(kind), 0.0, POSITIVE)
        with pytest.raises(ValueError, match="domain boundary"):
            finite_diff_grad(LossSpec(kind), 1.0, NEGATIVE)
    # interior points are fine
    assert finite_diff_grad(LossSpec(LossKind.FL), 0.5, POSITIVE) < 0.0


def test_finite_diff_rejects_nonpositive_step():
    with pytest.raises(ValueError):
        finite_diff_grad(LossSpec(LossKind.CE), 0.5, POSITIVE, h=0.0)
    with pytest.raises(ValueError):
        finite_diff_grad(LossSpec(LossKind.CE), 0.5, POSITIVE, h=-1e-6)


def test_finite_diff_set_level_dice_uses_singleton_sets():
    got = finite_diff_grad(LossSpec(LossKind.DL_SET), 0.3, POSITIVE)
    assert got == pytest.approx(float(dice_grad(0.3, 1.0, 1.0)), rel=1e-5)


def test_finite_diff_never_consults_the_analytic_gradient(monkeypatch):
    def _forbidden(*args, **kwargs):
        raise AssertionError("finite differences must rely on values only")

    monkeypatch.setattr(verify, "sample_grad", _forbidden)
    got = finite_diff_grad(LossSpec(LossKind.CE), 0.5, POSITIVE)
    assert got == pytest.approx(-2.0, rel=1e-5)


# --- full gradient sweep ----------------------------------------------------


def test_gradcheck_passes_every_kind_within_tolerance():
    reports = gradcheck_all(samples_per_loss=200, seed=0)
    assert [r.loss_kind for r in reports] == [k.value for k in LossKind]
    for report in reports:
        assert report.passed, report.loss_kind
        assert report.sample_count == 200
        assert report.max_rel_error < REL_TOL
        assert "p1" in report.worst_input


def test_gradcheck_is_deterministic():
    a = gradcheck_all(samples_per_loss=50, seed=7)
    b = gradcheck_all(samples_per_loss=50, seed=7)
    assert [r.to_dict() for r in a] == [r.to_dict() for r in b]


def test_gradcheck_rejects_a_seed_outside_64_bits():
    # Masking would alias seed 2**64 + 1 to seed 1 and report its samples.
    with pytest.raises(ValueError, match=f"seed must lie in .*got {2**64 + 1}"):
        gradcheck_all(5, 2**64 + 1)


def test_gradcheck_rejects_nonpositive_sample_count():
    with pytest.raises(ValueError):
        gradcheck_all(samples_per_loss=0)


def test_gradcheck_flags_a_corrupted_gradient(monkeypatch):
    true_grad = verify.sample_grad

    def _skewed(spec, p1, y1, class_weight=1.0):
        return true_grad(spec, p1, y1, class_weight) + 0.1

    monkeypatch.setattr(verify, "sample_grad", _skewed)
    reports = gradcheck_all(samples_per_loss=20, seed=0)
    by_kind = {r.loss_kind: r for r in reports}
    # the set-level check differentiates whole-batch values, not sample_grad
    assert by_kind[LossKind.DL_SET.value].passed
    for kind in LossKind:
        if kind is LossKind.DL_SET:
            continue
        assert not by_kind[kind.value].passed, kind.value
        assert by_kind[kind.value].max_rel_error > REL_TOL


def test_reports_serialize_to_json():
    reports = gradcheck_all(samples_per_loss=10, seed=3)
    payload = json.loads(reports_to_json(reports, samples_per_loss=10, seed=3))
    assert payload["samples_per_loss"] == 10
    assert payload["seed"] == 3
    assert payload["rel_tol"] == REL_TOL
    assert payload["abs_tol"] == ABS_TOL
    assert payload["passed"] is True
    assert len(payload["reports"]) == len(LossKind)
    assert {r["loss_kind"] for r in payload["reports"]} == {k.value for k in LossKind}


# --- brute-force threshold search -------------------------------------------


def test_uniform_probabilities_pick_the_all_positive_threshold():
    ps = [ProbPair.from_p1(0.4)] * 3
    threshold, f1 = brute_force_best_threshold_f1(ps, [1, 0, 1])
    assert threshold == pytest.approx(0.2, rel=1e-12)  # half the smallest p1
    assert f1 == pytest.approx(0.8, rel=1e-12)  # 2*2 / (2*2 + 1 + 0)


def test_calibrated_probabilities_keep_the_default_threshold():
    ps = [ProbPair.from_p1(q) for q in (0.01, 0.99, 0.99, 0.01)]
    threshold, f1 = brute_force_best_threshold_f1(ps, [0, 1, 1, 0])
    assert (threshold, f1) == (0.5, 1.0)


def test_ties_resolve_toward_one_half():
    ps = [ProbPair.from_p1(q) for q in (0.4, 0.6)]
    threshold, f1 = brute_force_best_threshold_f1(ps, [0, 1])
    assert threshold == 0.5
    assert f1 == 1.0


def test_single_example_scores_zero_or_one():
    threshold, f1 = brute_force_best_threshold_f1([ProbPair.from_p1(0.9)], [1])
    assert (threshold, f1) == (0.5, 1.0)
    _, f1 = brute_force_best_threshold_f1([ProbPair.from_p1(0.9)], [0])
    assert f1 == 0.0


def test_brute_force_validates_inputs():
    with pytest.raises(ValueError):
        brute_force_best_threshold_f1([], [])
    with pytest.raises(ValueError):
        brute_force_best_threshold_f1([ProbPair.from_p1(0.5)], [1, 0])


@given(
    p1s=st.lists(st.floats(0.01, 0.99), min_size=1, max_size=20),
    data=st.data(),
)
@settings(max_examples=100, deadline=None)
def test_brute_force_never_loses_to_the_default_threshold(p1s, data):
    golds = data.draw(st.lists(st.integers(0, 1), min_size=len(p1s), max_size=len(p1s)))
    ps = [ProbPair.from_p1(q) for q in p1s]
    _, best_f1 = brute_force_best_threshold_f1(ps, golds)
    preds_at_half = [harden(p) for p in ps]
    assert best_f1 >= binary_metrics(preds_at_half, golds).f1
