"""Synthetic imbalanced data: generation, rebalancing transforms, CSV round trip."""

from __future__ import annotations

import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dicelab.data import (
    CLUSTER_SIGMA,
    EASY_NEGATIVE_CENTER,
    HARD_NEGATIVE_CENTER,
    _CSV_BLOCK_ROWS,
    MAX_ROWS,
    POSITIVE_CENTER,
    DataSpec,
    InfeasibleTransformError,
    LabeledBatch,
    TransformKind,
    TransformSpec,
    generate,
    load_csv,
    save_csv,
    transform,
    transform_counts,
)
from dicelab.rng import _LANE_STEPS, _LANES_FROM, Xoshiro256StarStar


def _batch_37_63(seed: int = 0) -> LabeledBatch:
    """A 37% positive batch with recognizable feature rows."""
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(100, 2))
    labels = np.array([1] * 37 + [0] * 63, dtype=np.int64)
    return LabeledBatch.from_arrays(features, labels)


# --- spec and counts --------------------------------------------------------


def test_negative_count_is_ratio_times_positives():
    assert DataSpec(n_positive=100, ratio=1.0).n_negative == 100
    assert DataSpec(n_positive=100, ratio=169.0).n_negative == 16900
    assert DataSpec(n_positive=100, ratio=169.0).n_total == 17000
    assert DataSpec(n_positive=200, ratio=10.0).n_negative == 2000


def test_negative_count_rounds_half_up():
    assert DataSpec(n_positive=1, ratio=2.5).n_negative == 3
    assert DataSpec(n_positive=1, ratio=0.5).n_negative == 1
    assert DataSpec(n_positive=3, ratio=0.5).n_negative == 2  # 1.5 -> 2


def test_data_spec_validation():
    with pytest.raises(ValueError):
        DataSpec(n_positive=0, ratio=1.0)
    with pytest.raises(ValueError):
        DataSpec(n_positive=10, ratio=0.0)
    with pytest.raises(ValueError):
        DataSpec(n_positive=10, ratio=float("inf"))
    with pytest.raises(ValueError):
        DataSpec(n_positive=10, ratio=1.0, easy_negative_fraction=1.5)
    with pytest.raises(ValueError):
        DataSpec(n_positive=10, ratio=1.0, feature_dim=0)
    with pytest.raises(ValueError):
        DataSpec(n_positive=10, ratio=1.0, seed=-1)
    with pytest.raises(ValueError):
        DataSpec(n_positive=10, ratio=1.0, jitter_sigma=-0.1)


def test_data_spec_rejects_more_rows_than_the_ceiling():
    assert DataSpec(n_positive=1, ratio=MAX_ROWS - 1).n_total == MAX_ROWS
    assert DataSpec(n_positive=MAX_ROWS // 2, ratio=1).n_total == MAX_ROWS
    with pytest.raises(ValueError, match=f"ratio {MAX_ROWS} times n_positive 1 "):
        DataSpec(n_positive=1, ratio=MAX_ROWS)
    with pytest.raises(ValueError, match="ratio 1e\\+308 times n_positive 2 "):
        DataSpec(n_positive=2, ratio=1e308)
    with pytest.raises(ValueError, match="ratio 1.000e\\+400 times n_positive 1 "):
        DataSpec(n_positive=1, ratio=10**400)  # a JSON ratio may be an integer
    for ratio in (0.5, 1.0):  # n_positive is checked first, as an integer
        with pytest.raises(ValueError, match=f"n_positive must lie in \\[1, {MAX_ROWS}\\], got 1.000e\\+400$"):
            DataSpec(n_positive=10**400, ratio=ratio)
    with pytest.raises(ValueError, match="ratio must be a positive real, got -1.000e\\+400$"):
        DataSpec(n_positive=1, ratio=-(10**400))
    with pytest.raises(ValueError, match=f"ratio {10**19} times"):  # up to 20 digits print in full
        DataSpec(n_positive=1, ratio=10**19)


@pytest.mark.parametrize("sigma", [float("nan"), float("inf"), -0.1])
def test_jitter_sigma_must_be_finite_and_nonnegative(sigma):
    """NaN passes a plain `< 0` test; one check serves the spec and `transform`."""
    with pytest.raises(ValueError, match="jitter_sigma must be finite and nonnegative"):
        DataSpec(n_positive=10, ratio=1.0, jitter_sigma=sigma)
    with pytest.raises(ValueError, match="jitter_sigma must be finite and nonnegative"):
        transform(_batch_37_63(), TransformKind.ADD_POSITIVE, jitter_sigma=sigma)


@pytest.mark.parametrize(
    "field, value, error",
    [
        ("target_fraction_positive", 1.5, ValueError),
        ("target_fraction_positive", -0.1, ValueError),
        ("target_fraction_positive", float("nan"), ValueError),
        ("growth_factor", float("inf"), ValueError),
        ("growth_factor", float("nan"), ValueError),
        ("growth_factor", 0.5, InfeasibleTransformError),
    ],
)
def test_transform_spec_checks_its_fields(field, value, error):
    """A bad transform is rejected where the spec is built, whatever its kind."""
    for kind in TransformKind:
        with pytest.raises(error, match=field):
            TransformSpec(kind, **{field: value})
        with pytest.raises(error, match=field):
            transform(_batch_37_63(), kind, **{field: value})


@pytest.mark.parametrize("seed", [2**64, 2**64 + 3, 2**70])
def test_data_seed_outside_64_bits_is_rejected(seed):
    """The generator masks its seed to 64 bits, so 2**64 + 3 would silently draw seed 3's batch."""
    with pytest.raises(ValueError, match="seed"):
        DataSpec(n_positive=5, ratio=1.0, seed=seed)
    assert DataSpec(n_positive=5, ratio=1.0, seed=2**64 - 1).seed == 2**64 - 1


@given(
    n_positive=st.integers(1, 50),
    ratio=st.floats(0.1, 20.0),
    frac=st.floats(0.0, 1.0),
)
@settings(max_examples=60, deadline=None)
def test_generated_counts_always_match_spec(n_positive, ratio, frac):
    spec = DataSpec(n_positive=n_positive, ratio=ratio, easy_negative_fraction=frac, seed=1)
    batch = generate(spec)
    assert batch.n_positive == n_positive
    assert batch.n_negative == spec.n_negative


# --- generation -------------------------------------------------------------


def test_generate_layout_and_dtypes():
    batch = generate(DataSpec(n_positive=20, ratio=2.0, feature_dim=3, seed=9))
    assert batch.features.shape == (60, 3)
    assert batch.features.dtype == np.float64
    assert batch.labels.dtype == np.int64
    assert (batch.labels[:20] == 1).all() and (batch.labels[20:] == 0).all()
    assert batch.positive_fraction == pytest.approx(1.0 / 3.0)


def test_generate_is_bitwise_deterministic():
    spec = DataSpec(n_positive=50, ratio=3.0, seed=123)
    a, b = generate(spec), generate(spec)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)
    c = generate(DataSpec(n_positive=50, ratio=3.0, seed=124))
    assert not np.array_equal(a.features, c.features)


def test_generate_places_three_clusters_at_their_centers():
    spec = DataSpec(n_positive=300, ratio=1.0, easy_negative_fraction=0.9, seed=4)
    batch = generate(spec)
    n_easy = 270  # round(0.9 * 300)
    pos = batch.features[:300]
    easy = batch.features[300 : 300 + n_easy]
    hard = batch.features[300 + n_easy :]
    assert pos.mean() == pytest.approx(POSITIVE_CENTER, abs=0.1)
    assert easy.mean() == pytest.approx(EASY_NEGATIVE_CENTER, abs=0.1)
    assert hard.mean() == pytest.approx(HARD_NEGATIVE_CENTER, abs=0.2)
    for cluster in (pos, easy, hard):
        assert cluster.std() == pytest.approx(CLUSTER_SIGMA, abs=0.1)


def test_positives_are_nearly_separable_from_easy_negatives():
    spec = DataSpec(n_positive=200, ratio=1.0, easy_negative_fraction=1.0, seed=42)
    batch = generate(spec)
    sums = batch.features.sum(axis=1)
    order = np.argsort(sums)
    sorted_sums = sums[order]
    sorted_labels = batch.labels[order]
    best = 0.0
    # brute force every midpoint threshold on the feature sum
    for i in range(len(sums) - 1):
        t = 0.5 * (sorted_sums[i] + sorted_sums[i + 1])
        acc = np.mean((sums > t).astype(int) == batch.labels)
        best = max(best, float(acc))
    assert best >= 0.99


# --- transforms -------------------------------------------------------------


def test_original_transform_returns_an_untied_copy():
    batch = _batch_37_63()
    out = transform(batch, TransformKind.ORIGINAL)
    assert out is not batch
    assert np.array_equal(out.features, batch.features)
    assert np.array_equal(out.labels, batch.labels)
    out.features[0, 0] = 999.0
    assert batch.features[0, 0] != 999.0


def test_add_positive_reaches_half_and_keeps_originals():
    batch = _batch_37_63()
    out = transform(batch, TransformKind.ADD_POSITIVE, target_fraction_positive=0.5, seed=3)
    assert out.n_positive == 63 and out.n_negative == 63
    assert out.positive_fraction == pytest.approx(0.5)
    assert out.n > batch.n
    # original rows are preserved bitwise, in order, ahead of the new ones
    assert np.array_equal(out.features[:100], batch.features)
    assert np.array_equal(out.labels[:100], batch.labels)
    assert (out.labels[100:] == 1).all()
    # the input batch itself is untouched
    assert batch.n_positive == 37 and batch.n == 100


def test_added_rows_are_jittered_copies_of_existing_class_rows():
    batch = _batch_37_63()
    sigma = 0.1
    out = transform(
        batch, TransformKind.ADD_POSITIVE, target_fraction_positive=0.5, seed=3, jitter_sigma=sigma
    )
    templates = batch.features[batch.labels == 1]
    for row in out.features[100:]:
        nearest = np.min(np.max(np.abs(templates - row), axis=1))
        assert nearest < 6.0 * sigma  # within a few jitter sigmas of some template


def test_add_negative_reaches_a_lower_positive_fraction():
    batch = _batch_37_63()
    out = transform(batch, TransformKind.ADD_NEGATIVE, target_fraction_positive=0.25, seed=3)
    assert out.n_positive == 37
    assert out.n_negative == 111  # 3 * 37
    assert out.positive_fraction == pytest.approx(0.25)
    assert (out.labels[100:] == 0).all()


def test_downsample_negative_removes_only_negatives_and_keeps_order():
    batch = _batch_37_63()
    out = transform(batch, TransformKind.DOWNSAMPLE_NEGATIVE, target_fraction_positive=0.5, seed=7)
    assert out.n_positive == 37 and out.n_negative == 37
    assert np.array_equal(
        out.features[out.labels == 1], batch.features[batch.labels == 1]
    )
    # surviving negatives appear in their original relative order
    original_neg = batch.features[batch.labels == 0]
    survivor_rows = out.features[out.labels == 0]
    idx = 0
    for row in survivor_rows:
        while idx < len(original_neg) and not np.array_equal(original_neg[idx], row):
            idx += 1
        assert idx < len(original_neg), "survivor row not found in original order"
        idx += 1


def test_add_both_grows_both_classes_and_preserves_fraction():
    batch = _batch_37_63()
    out = transform(batch, TransformKind.ADD_BOTH, seed=11, growth_factor=1.5)
    assert out.n_positive == 37 + 19  # round(0.5 * 37) = 19
    assert out.n_negative == 63 + 32  # round(0.5 * 63) = 32
    assert abs(out.positive_fraction - batch.positive_fraction) < 0.01
    assert np.array_equal(out.features[:100], batch.features)


def test_transforms_are_bitwise_deterministic_per_seed():
    batch = _batch_37_63()
    for kind in (TransformKind.ADD_POSITIVE, TransformKind.DOWNSAMPLE_NEGATIVE, TransformKind.ADD_BOTH):
        a = transform(batch, kind, target_fraction_positive=0.5, seed=13)
        b = transform(batch, kind, target_fraction_positive=0.5, seed=13)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)
    a = transform(batch, TransformKind.ADD_POSITIVE, target_fraction_positive=0.5, seed=13)
    c = transform(batch, TransformKind.ADD_POSITIVE, target_fraction_positive=0.5, seed=14)
    assert not np.array_equal(a.features, c.features)


def test_wrong_side_targets_are_rejected():
    batch = _batch_37_63()  # positive fraction 0.37
    with pytest.raises(InfeasibleTransformError):
        transform(batch, TransformKind.ADD_POSITIVE, target_fraction_positive=0.2)
    with pytest.raises(InfeasibleTransformError):
        transform(batch, TransformKind.ADD_NEGATIVE, target_fraction_positive=0.5)
    with pytest.raises(InfeasibleTransformError):
        transform(batch, TransformKind.DOWNSAMPLE_NEGATIVE, target_fraction_positive=0.2)
    with pytest.raises(InfeasibleTransformError):
        transform(batch, TransformKind.ADD_POSITIVE, target_fraction_positive=1.0)
    with pytest.raises(InfeasibleTransformError):
        transform(batch, TransformKind.ADD_BOTH, growth_factor=0.5)
    with pytest.raises(ValueError):
        transform(batch, TransformKind.ADD_POSITIVE, target_fraction_positive=1.5)


@pytest.mark.parametrize(
    "kind, target, growth, field",
    [
        (TransformKind.ADD_NEGATIVE, 5e-324, 1.5, "target_fraction_positive 5e-324"),
        (TransformKind.DOWNSAMPLE_NEGATIVE, 5e-324, 1.5, "target_fraction_positive 5e-324"),
        (TransformKind.ADD_BOTH, 0.5, 1e308, "growth_factor 1e\\+308"),
    ],
    ids=["add_negative", "downsample_negative", "add_both"],
)
def test_a_count_too_large_for_a_float_names_its_field(kind, target, growth, field):
    with pytest.raises(InfeasibleTransformError, match=field):
        transform_counts(TransformSpec(kind, target, growth), 10, 20)


def test_the_row_ceiling_bounds_the_transformed_batch_not_each_class():
    assert transform_counts(TransformSpec(TransformKind.ADD_BOTH, growth_factor=1.9), MAX_ROWS // 4, 0) == (
        MAX_ROWS // 4 * 19 // 10,
        0,
    )
    with pytest.raises(InfeasibleTransformError, match=f"growth_factor 1.9 wants .* over {MAX_ROWS} rows"):
        transform_counts(TransformSpec(TransformKind.ADD_BOTH, growth_factor=1.9), 5_000_000, 5_000_000)
    with pytest.raises(InfeasibleTransformError, match=f"target_fraction_positive 0.45 wants .* over {MAX_ROWS}"):
        transform_counts(TransformSpec(TransformKind.ADD_POSITIVE, 0.45), 3_000_000, 6_000_000)


def test_a_transform_that_leaves_no_rows_is_infeasible():
    batch = LabeledBatch.from_arrays(np.zeros((4, 2)), np.zeros(4))
    spec = TransformSpec(TransformKind.DOWNSAMPLE_NEGATIVE, 0.5)
    with pytest.raises(InfeasibleTransformError, match="leaves no rows"):
        transform_counts(spec, 0, 4)
    with pytest.raises(InfeasibleTransformError, match="leaves no rows"):
        transform(batch, spec.kind, target_fraction_positive=spec.target_fraction_positive)


@pytest.mark.parametrize("kind", list(TransformKind))
def test_transform_seed_outside_64_bits_is_rejected(kind):
    """Masking would alias seed 2**64 + 3 to seed 3 and replay its resample."""
    with pytest.raises(ValueError, match=f"seed must lie in .*got {2**64 + 3}"):
        transform(_batch_37_63(), kind, seed=2**64 + 3)


def test_transform_accepts_string_kind():
    batch = _batch_37_63()
    out = transform(batch, "add_positive", target_fraction_positive=0.5, seed=3)
    assert out.positive_fraction == pytest.approx(0.5)


@given(
    kind=st.sampled_from(list(TransformKind)),
    # The wanted counts grow without bound as the target nears 0 or 1, so the
    # open interval stops at 0.01 and 0.99 to keep every batch small.
    target=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.01, 0.99)),
    growth=st.one_of(st.just(1.0), st.floats(1.0, 4.0)),
    n_pos=st.integers(0, 30),
    n_neg=st.integers(0, 30),
    seed=st.integers(0, 2**64 - 1),
)
@settings(max_examples=300, deadline=None)
def test_transform_yields_the_counts_transform_counts_wants(kind, target, growth, n_pos, n_neg, seed):
    """One rule for every kind: the output has the wanted counts, or both raise."""
    assume(n_pos + n_neg > 0)
    rng = np.random.default_rng(seed)
    labels = rng.permutation(np.array([1] * n_pos + [0] * n_neg))
    batch = LabeledBatch.from_arrays(rng.normal(size=(n_pos + n_neg, 2)), labels)
    try:
        want = transform_counts(TransformSpec(kind, target, growth), n_pos, n_neg)
    except InfeasibleTransformError:
        with pytest.raises(InfeasibleTransformError):
            transform(batch, kind, target_fraction_positive=target, seed=seed, growth_factor=growth)
        return
    out = transform(batch, kind, target_fraction_positive=target, seed=seed, growth_factor=growth)
    assert (out.n_positive, out.n_negative) == want


@pytest.mark.parametrize(
    "kind, target, label",
    [
        (TransformKind.DOWNSAMPLE_NEGATIVE, 0.0, 0),
        (TransformKind.ADD_POSITIVE, 0.0, 0),
        (TransformKind.ADD_NEGATIVE, 1.0, 1),
    ],
    ids=["downsample_negative to 0, all negative", "add_positive to 0, all negative", "add_negative to 1, all positive"],
)
def test_single_class_batch_at_its_wanted_counts_comes_back_unchanged(kind, target, label):
    """These single-class batches already hold the counts their kind wants, so nothing moves."""
    batch = LabeledBatch.from_arrays(np.arange(6.0).reshape(3, 2), np.full(3, label))
    out = transform(batch, kind, target_fraction_positive=target, seed=1)
    assert np.array_equal(out.features, batch.features)
    assert np.array_equal(out.labels, batch.labels)
    assert out.features is not batch.features and out.labels is not batch.labels


# --- batch container --------------------------------------------------------


def test_from_arrays_validates_and_counts():
    with pytest.raises(ValueError):
        LabeledBatch.from_arrays(np.zeros((3, 2)), np.array([0, 1]))
    with pytest.raises(ValueError):
        LabeledBatch.from_arrays(np.zeros((2, 2)), np.array([0, 2]))
    batch = LabeledBatch.from_arrays(np.zeros((3, 2)), np.array([1, 0, 1]))
    assert (batch.n_negative, batch.n_positive) == (1, 2)
    assert batch.positive_fraction == pytest.approx(2.0 / 3.0)


# --- bulk draws against the per-element loops they replaced -------------------


class _ScalarStream:
    """The draws of the per-element loops: one next_u64 per randbelow, one scalar Box-Muller per normal."""

    def __init__(self, seed: int):
        self.gen = Xoshiro256StarStar(seed)
        self.spare = None

    def randbelow(self, n: int) -> int:
        return self.gen.next_u64() % n

    def normal(self) -> float:
        if self.spare is not None:
            z, self.spare = self.spare, None
            return z
        u1 = ((self.gen.next_u64() >> 11) + 1) * 2.0**-53
        u2 = (self.gen.next_u64() >> 11) * 2.0**-53
        radius = math.sqrt(-2.0 * math.log(u1))
        theta = 2.0 * math.pi * u2
        self.spare = radius * math.sin(theta)
        return radius * math.cos(theta)


def _loop_generate(spec: DataSpec) -> np.ndarray:
    rng = _ScalarStream(spec.seed)
    n_easy = math.floor(spec.easy_negative_fraction * spec.n_negative + 0.5)
    centers = (
        [POSITIVE_CENTER] * spec.n_positive
        + [EASY_NEGATIVE_CENTER] * n_easy
        + [HARD_NEGATIVE_CENTER] * (spec.n_negative - n_easy)
    )
    features = np.empty((spec.n_total, spec.feature_dim))
    for i, center in enumerate(centers):
        for j in range(spec.feature_dim):
            features[i, j] = center + CLUSTER_SIGMA * rng.normal()
    return features


def _loop_transform(batch: LabeledBatch, spec: TransformSpec, seed: int, jitter_sigma: float):
    rng = _ScalarStream(seed)
    features, labels = batch.features, batch.labels
    want_pos, want_neg = transform_counts(spec, batch.n_positive, batch.n_negative)
    if want_neg < batch.n_negative:
        n_remove = batch.n_negative - want_neg
        neg_positions = list(np.flatnonzero(labels == 0))
        for i in range(n_remove):
            j = i + rng.randbelow(len(neg_positions) - i)
            neg_positions[i], neg_positions[j] = neg_positions[j], neg_positions[i]
        keep = np.ones(batch.n, dtype=bool)
        keep[neg_positions[:n_remove]] = False
        return features[keep], labels[keep]
    parts, part_labels = [features], [labels]
    for label, n_add in ((1, want_pos - batch.n_positive), (0, want_neg - batch.n_negative)):
        source = np.flatnonzero(labels == label)
        out = np.empty((n_add, features.shape[1]))
        for i in range(n_add):
            template = features[source[rng.randbelow(source.shape[0])]]
            for j in range(features.shape[1]):
                out[i, j] = template[j] + jitter_sigma * rng.normal()
        parts.append(out)
        part_labels.append(np.full(n_add, label))
    return np.concatenate(parts), np.concatenate(part_labels)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("n_positive, ratio", [(1, 1.0), (7, 2.5), (300, 20.0)])
def test_generate_equals_the_per_element_loop(d, n_positive, ratio):
    spec = DataSpec(n_positive=n_positive, ratio=ratio, feature_dim=d, seed=2**64 - 1 - d)
    assert generate(spec).features.tobytes() == _loop_generate(spec).tobytes()


_ORACLE_SPECS = [
    TransformSpec(TransformKind.ORIGINAL),
    TransformSpec(TransformKind.ADD_POSITIVE, 0.5),
    TransformSpec(TransformKind.ADD_NEGATIVE, 0.02),
    TransformSpec(TransformKind.DOWNSAMPLE_NEGATIVE, 0.5),
    TransformSpec(TransformKind.ADD_BOTH, growth_factor=1.5),
]


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("spec", _ORACLE_SPECS, ids=[s.kind.value for s in _ORACLE_SPECS])
def test_transform_equals_the_per_element_loops(spec, d):
    """Large enough that every kind but original draws in lanes; odd d moves the spare across rows."""
    batch = generate(DataSpec(n_positive=300, ratio=20.0, feature_dim=d, seed=d))
    features, labels = _loop_transform(batch, spec, seed=40 + d, jitter_sigma=0.3)
    changed = abs(features.shape[0] - batch.n)
    draws = changed if spec.kind is TransformKind.DOWNSAMPLE_NEGATIVE else changed * (1 + d)
    assert draws >= _LANES_FROM * _LANE_STEPS or spec.kind is TransformKind.ORIGINAL
    got = transform(batch, spec.kind, spec.target_fraction_positive, 40 + d, 0.3, spec.growth_factor)
    assert got.features.tobytes() == features.tobytes()
    assert np.array_equal(got.labels, labels) and got.labels.dtype == np.int64


# --- CSV --------------------------------------------------------------------


def test_save_csv_bytes_are_format_9g_of_every_cell(tmp_path):
    """Rows straddle a write block; the first rows hold the cells whose text is least obvious."""
    special = [-0.0, 1e-300, 1.2e11, 5e-324, -1.7976931348623157e308, 0.1, 123456789.5, float("inf")]
    rng = np.random.default_rng(3)
    features = rng.normal(size=(_CSV_BLOCK_ROWS + 5, 2)) * 10.0 ** rng.integers(-12, 12, size=(_CSV_BLOCK_ROWS + 5, 1))
    features[:4] = np.reshape(special, (4, 2))
    labels = np.arange(features.shape[0]) % 3 == 0
    path = tmp_path / "cells.csv"
    save_csv(LabeledBatch.from_arrays(features, labels), path)
    rows = ["f0,f1,label"] + [
        ",".join([format(x, ".9g") for x in row] + [str(int(label))]) for row, label in zip(features, labels)
    ]
    assert path.read_bytes() == ("\n".join(rows) + "\n").encode()


def test_load_csv_reports_a_non_finite_row_only_after_every_row_parsed(tmp_path):
    path = tmp_path / "late.csv"
    path.write_text("f0,label\nnan,1\n0.5,0\n0.5,0,1\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}:4: row has 3 cells, expected 2")):
        load_csv(path)
    path.write_text("f0,label\n\n0.5,1\n  \n1e999,0\ninf,1\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}:5: feature values must be finite, got '1e999,0'")):
        load_csv(path)


def test_csv_round_trip_preserves_labels_and_features_to_nine_digits(tmp_path):
    batch = generate(DataSpec(n_positive=25, ratio=2.0, feature_dim=3, seed=77))
    path = tmp_path / "batch.csv"
    save_csv(batch, path)
    text = path.read_text()
    assert text.startswith("f0,f1,f2,label\n")
    assert text.endswith("\n")
    loaded = load_csv(path)
    assert np.array_equal(loaded.labels, batch.labels) and loaded.labels.dtype == np.int64
    np.testing.assert_allclose(loaded.features, batch.features, rtol=5e-9, atol=1e-12)
    nine_digits = [[float(format(x, ".9g")) for x in row] for row in batch.features]
    assert loaded.features.tobytes() == np.array(nine_digits).tobytes()
    assert (loaded.n_negative, loaded.n_positive) == (batch.n_negative, batch.n_positive)


def test_load_csv_rejects_malformed_inputs(tmp_path):
    bad_header = tmp_path / "a.csv"
    bad_header.write_text("x0,x1,label\n0.0,0.0,1\n")
    with pytest.raises(ValueError):
        load_csv(bad_header)

    bad_width = tmp_path / "b.csv"
    bad_width.write_text("f0,f1,label\n0.0,1\n")
    with pytest.raises(ValueError):
        load_csv(bad_width)

    bad_label = tmp_path / "c.csv"
    bad_label.write_text("f0,f1,label\n0.0,0.0,2\n")
    with pytest.raises(ValueError):
        load_csv(bad_label)

    empty = tmp_path / "d.csv"
    empty.write_text("")
    with pytest.raises(ValueError):
        load_csv(empty)

    for name, row in (("feature.csv", "abc,0.0,1"), ("label.csv", "0.0,0.0,x"), ("two.csv", "0.0,0.0,2")):
        path = tmp_path / name
        path.write_text(f"f0,f1,label\n0.5,0.25,1\n\n{row}\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:4: ")):
            load_csv(path)


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN", "1e999"])
def test_load_csv_rejects_non_finite_features(tmp_path, cell):
    path = tmp_path / "nonfinite.csv"
    path.write_text(f"f0,f1,label\n0.5,0.25,1\n\n{cell},0.0,0\n")
    with pytest.raises(ValueError, match=r"nonfinite\.csv:4: feature values must be finite"):
        load_csv(path)


@pytest.mark.parametrize(
    "text, error",
    [("f0,f1,label\n", "has a header but no rows"), ("label\n1\n0\n", "expected a header")],
    ids=["header only", "no feature column"],
)
def test_load_csv_rejects_a_file_without_rows_or_feature_columns(tmp_path, text, error):
    """Neither file holds a batch that DataSpec could describe (n >= 1 rows, d >= 1 features)."""
    path = tmp_path / "hollow.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=re.escape(str(path)) + ".*" + error):
        load_csv(path)
