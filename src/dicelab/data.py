"""Synthetic imbalanced binary classification data with replayable randomness.

The geometry is fixed: positives sit at (+1, ..., +1), easy negatives far away
at (-2, ..., -2), hard negatives overlapping the positives at (+0.5, ..., +0.5),
all with per-coordinate sigma 0.5. The negative:positive ratio and the easy
fraction control the difficulty. Every random choice flows from one seeded
xoshiro256** stream in a documented order, so a (spec, seed) pair always
produces the identical array bit for bit.

Transforms mirror common rebalancing strategies: duplicate-and-jitter one or
both classes toward a target positive fraction, or downsample negatives.
Added rows are always appended after the originals; removed rows keep the
survivors in their original order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .rng import Xoshiro256StarStar, check_seed

POSITIVE_CENTER = 1.0
EASY_NEGATIVE_CENTER = -2.0
HARD_NEGATIVE_CENTER = 0.5
CLUSTER_SIGMA = 0.5


class InfeasibleTransformError(ValueError):
    """The requested class balance cannot be reached by the chosen transform."""


class TransformKind(str, Enum):
    ORIGINAL = "original"
    ADD_POSITIVE = "add_positive"
    ADD_NEGATIVE = "add_negative"
    DOWNSAMPLE_NEGATIVE = "downsample_negative"
    ADD_BOTH = "add_both"


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def _check_jitter_sigma(jitter_sigma: float) -> None:
    if not (math.isfinite(jitter_sigma) and jitter_sigma >= 0.0):
        raise ValueError(f"jitter_sigma must be finite and nonnegative, got {jitter_sigma!r}")


@dataclass(frozen=True)
class TransformSpec:
    """A resampling transform and its target; see `transform` for what each kind does."""

    kind: TransformKind = TransformKind.ORIGINAL
    target_fraction_positive: float = 0.5
    growth_factor: float = 1.5

    def __post_init__(self):
        object.__setattr__(self, "kind", TransformKind(self.kind))
        if not (0.0 <= self.target_fraction_positive <= 1.0):
            raise ValueError(
                f"target_fraction_positive must lie in [0, 1], got {self.target_fraction_positive!r}"
            )
        if not math.isfinite(self.growth_factor):
            raise ValueError(f"growth_factor must be finite, got {self.growth_factor!r}")
        if self.growth_factor < 1.0:
            raise InfeasibleTransformError(f"growth_factor must be at least 1, got {self.growth_factor!r}")


@dataclass(frozen=True)
class DataSpec:
    """Recipe for one synthetic dataset; negatives = round(ratio * n_positive)."""

    n_positive: int
    ratio: float
    easy_negative_fraction: float = 0.9
    feature_dim: int = 2
    seed: int = 42
    jitter_sigma: float = 0.1

    def __post_init__(self):
        if self.n_positive < 1:
            raise ValueError("n_positive must be at least 1")
        if not (self.ratio > 0.0 and math.isfinite(self.ratio)):
            raise ValueError(f"ratio must be a positive real, got {self.ratio}")
        try:
            n_negative = float(self.ratio * self.n_positive)
        except OverflowError:  # an integer product beyond the float range
            n_negative = math.inf
        if not math.isfinite(n_negative):
            raise ValueError(
                f"ratio {self.ratio!r} times n_positive {self.n_positive} is too large to count negatives"
            )
        if not (0.0 <= self.easy_negative_fraction <= 1.0):
            raise ValueError("easy_negative_fraction must lie in [0, 1]")
        if self.feature_dim < 1:
            raise ValueError("feature_dim must be at least 1")
        check_seed(self.seed, "seed")
        _check_jitter_sigma(self.jitter_sigma)

    @property
    def n_negative(self) -> int:
        return _round_half_up(self.ratio * self.n_positive)

    @property
    def n_total(self) -> int:
        return self.n_positive + self.n_negative


@dataclass
class LabeledBatch:
    """Feature matrix (n, d) and 0/1 labels (n,); class counts are read off the labels."""

    features: np.ndarray
    labels: np.ndarray

    @classmethod
    def from_arrays(cls, features: np.ndarray, labels: np.ndarray) -> "LabeledBatch":
        features = np.asarray(features, dtype=np.float64)
        labels = np.asarray(labels, dtype=np.int64)
        if features.ndim != 2 or labels.ndim != 1 or features.shape[0] != labels.shape[0]:
            raise ValueError("features must be (n, d) aligned with (n,) labels")
        if not np.isin(labels, (0, 1)).all():
            raise ValueError("labels must be 0/1")
        return cls(features, labels)

    @property
    def n(self) -> int:
        return self.labels.shape[0]

    @property
    def n_positive(self) -> int:
        return int(np.count_nonzero(self.labels == 1))

    @property
    def n_negative(self) -> int:
        return self.n - self.n_positive

    @property
    def positive_fraction(self) -> float:
        return self.n_positive / self.n


def _fill_cluster(rng: Xoshiro256StarStar, out: np.ndarray, center: float) -> None:
    n, d = out.shape
    for i in range(n):
        for j in range(d):
            out[i, j] = center + CLUSTER_SIGMA * rng.normal()


def generate(spec: DataSpec) -> LabeledBatch:
    """Draw the dataset for a spec: positives, then easy negatives, then hard ones."""
    rng = Xoshiro256StarStar(spec.seed)
    n_pos = spec.n_positive
    n_neg = spec.n_negative
    n_easy = _round_half_up(spec.easy_negative_fraction * n_neg)
    n_hard = n_neg - n_easy
    d = spec.feature_dim

    features = np.empty((n_pos + n_neg, d), dtype=np.float64)
    _fill_cluster(rng, features[:n_pos], POSITIVE_CENTER)
    _fill_cluster(rng, features[n_pos : n_pos + n_easy], EASY_NEGATIVE_CENTER)
    _fill_cluster(rng, features[n_pos + n_easy :], HARD_NEGATIVE_CENTER)

    labels = np.zeros(n_pos + n_neg, dtype=np.int64)
    labels[:n_pos] = 1
    return LabeledBatch(features, labels)


def _jittered_copies(
    rng: Xoshiro256StarStar,
    features: np.ndarray,
    source_rows: np.ndarray,
    n_add: int,
    jitter_sigma: float,
) -> np.ndarray:
    """Duplicate uniformly chosen template rows with Gaussian jitter."""
    d = features.shape[1]
    out = np.empty((n_add, d), dtype=np.float64)
    for i in range(n_add):
        template = features[source_rows[rng.randbelow(source_rows.shape[0])]]
        for j in range(d):
            out[i, j] = template[j] + jitter_sigma * rng.normal()
    return out


def _wanted_count(spec: TransformSpec, count: float) -> int:
    """A wanted row count rounded half up; an infinite one names the spec field that made it."""
    if not math.isfinite(count):
        field = "growth_factor" if spec.kind is TransformKind.ADD_BOTH else "target_fraction_positive"
        raise InfeasibleTransformError(
            f"{spec.kind.value} with {field} {getattr(spec, field)!r} wants more rows than a float can count"
        )
    return _round_half_up(count)


def transform_counts(spec: TransformSpec, n_pos: int, n_neg: int) -> tuple[int, int]:
    """The (positives, negatives) that `transform` under `spec` makes of n_pos and n_neg.

    original keeps both counts and add_both grows each by growth_factor. The
    other kinds set one count, rounded half up, so that the positive fraction
    hits the target: add_positive sets the positives, add_negative and
    downsample_negative the negatives. Target 1 wants no negatives, target 0
    no positives. The one feasibility rule: original and the add kinds may only
    grow each class, downsample_negative may only shrink the negatives, a
    class that must grow needs a row to copy, every count must be finite and
    at least one row must remain; else InfeasibleTransformError.
    """
    kind, target = spec.kind, spec.target_fraction_positive
    if kind in (TransformKind.ORIGINAL, TransformKind.ADD_BOTH):
        grow = spec.growth_factor - 1.0 if kind is TransformKind.ADD_BOTH else 0.0
        want_pos = n_pos + _wanted_count(spec, grow * n_pos)
        want_neg = n_neg + _wanted_count(spec, grow * n_neg)
    elif target >= 1.0:
        want_pos, want_neg = n_pos, 0
    elif target <= 0.0:
        want_pos, want_neg = 0, n_neg
    elif kind is TransformKind.ADD_POSITIVE:  # n_pos / (n_pos + n_neg) = target
        want_pos, want_neg = _wanted_count(spec, target / (1.0 - target) * n_neg), n_neg
    else:
        want_pos, want_neg = n_pos, _wanted_count(spec, (1.0 - target) / target * n_pos)
    if kind is TransformKind.DOWNSAMPLE_NEGATIVE:
        wrong_side, allowed = want_pos != n_pos or want_neg > n_neg, "only remove negatives"
    else:
        wrong_side, allowed = want_pos < n_pos or want_neg < n_neg, "only add rows"
    if wrong_side:
        raise InfeasibleTransformError(
            f"{kind.value} to target_fraction_positive {target} needs {want_pos} positives and "
            f"{want_neg} negatives from {n_pos} and {n_neg}, but it can {allowed}"
        )
    for name, have, want in (("positive", n_pos, want_pos), ("negative", n_neg, want_neg)):
        if want > have == 0:
            raise InfeasibleTransformError(f"{kind.value} needs {want} {name} rows but has none to copy")
    if want_pos == want_neg == 0:
        raise InfeasibleTransformError(
            f"{kind.value} to target_fraction_positive {target} leaves no rows of {n_pos} positives "
            f"and {n_neg} negatives"
        )
    return want_pos, want_neg


def transform(
    batch: LabeledBatch,
    kind: TransformKind,
    target_fraction_positive: float = 0.5,
    seed: int = 0,
    jitter_sigma: float = 0.1,
    growth_factor: float = 1.5,
) -> LabeledBatch:
    """Resample a batch to the class counts that `transform_counts` wants of it.

    When fewer negatives are wanted (downsample_negative), random negatives
    are removed and the survivors keep their order. Otherwise jittered copies
    of uniformly chosen rows of each class, positives first, are appended
    after the original rows (none for original). The draws come from one
    xoshiro256** stream seeded by `seed`. The result shares no array with the
    input batch, which is never mutated.
    """
    spec = TransformSpec(kind, target_fraction_positive, growth_factor)  # the spec checks all three
    if batch.n == 0:
        raise ValueError("cannot transform an empty batch")
    _check_jitter_sigma(jitter_sigma)
    check_seed(seed, "seed")
    n_pos, n_neg = batch.n_positive, batch.n_negative
    want_pos, want_neg = transform_counts(spec, n_pos, n_neg)
    features, labels = batch.features, batch.labels
    rng = Xoshiro256StarStar(seed)

    if want_neg < n_neg:
        # Partial Fisher-Yates over the negative positions; the first n_remove
        # entries after shuffling are dropped, everything else keeps its order.
        n_remove = n_neg - want_neg
        neg_positions = list(np.flatnonzero(labels == 0))
        for i in range(n_remove):
            j = i + rng.randbelow(len(neg_positions) - i)
            neg_positions[i], neg_positions[j] = neg_positions[j], neg_positions[i]
        keep = np.ones(batch.n, dtype=bool)
        keep[neg_positions[:n_remove]] = False
        return LabeledBatch(features[keep], labels[keep])

    # Positives first, then negatives; an empty copy consumes no draws.
    n_add_pos, n_add_neg = want_pos - n_pos, want_neg - n_neg
    pos_rows = _jittered_copies(rng, features, np.flatnonzero(labels == 1), n_add_pos, jitter_sigma)
    neg_rows = _jittered_copies(rng, features, np.flatnonzero(labels == 0), n_add_neg, jitter_sigma)
    out_features = np.concatenate([features, pos_rows, neg_rows])
    out_labels = np.concatenate(
        [labels, np.ones(n_add_pos, dtype=np.int64), np.zeros(n_add_neg, dtype=np.int64)]
    )
    return LabeledBatch(out_features, out_labels)


# ---------------------------------------------------------------------------
# CSV interface: header f0,...,f{d-1},label; floats use 9 significant digits.
# ---------------------------------------------------------------------------


def save_csv(batch: LabeledBatch, path) -> None:
    d = batch.features.shape[1]
    header = ",".join([f"f{j}" for j in range(d)] + ["label"])
    lines = [header]
    for i in range(batch.n):
        cells = [format(batch.features[i, j], ".9g") for j in range(d)]
        cells.append(str(int(batch.labels[i])))
        lines.append(",".join(cells))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def load_csv(path) -> LabeledBatch:
    """Read a batch written by save_csv; feature cells must be finite numbers, labels 0 or 1."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line.strip() for line in fh]
    filled = (number for number, line in enumerate(lines, start=1) if line)  # skips blank lines
    header_number = next(filled, None)
    if header_number is None:
        raise ValueError(f"{path} is empty")
    header = lines[header_number - 1].split(",")
    if len(header) < 2 or header[-1] != "label" or any(h != f"f{j}" for j, h in enumerate(header[:-1])):
        raise ValueError(f"{path}:{header_number}: expected a header f0,...,label, got {header!r}")
    d = len(header) - 1
    rows = []
    labels = []
    for number in filled:
        line = lines[number - 1]
        cells = line.split(",")
        if len(cells) != d + 1:
            raise ValueError(f"{path}:{number}: row has {len(cells)} cells, expected {d + 1}")
        try:
            rows.append([float(c) for c in cells[:-1]])
        except ValueError:
            raise ValueError(f"{path}:{number}: feature values must be numbers, got {line!r}") from None
        try:
            label = int(cells[-1])
        except ValueError:
            label = None
        if label != 0 and label != 1:
            raise ValueError(f"{path}:{number}: labels must be 0/1, got {cells[-1]!r}")
        labels.append(label)
    if not labels:
        raise ValueError(f"{path} has a header but no rows")
    features = np.array(rows, dtype=np.float64)
    if not np.isfinite(features).all():
        row = int(np.flatnonzero(~np.isfinite(features).all(axis=1))[0])
        number = [n for n, line in enumerate(lines, start=1) if line][1 + row]
        raise ValueError(f"{path}:{number}: feature values must be finite, got {lines[number - 1]!r}")
    return LabeledBatch.from_arrays(features, np.array(labels))
