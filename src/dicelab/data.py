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

import itertools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .rng import Xoshiro256StarStar, box_muller, check_seed

POSITIVE_CENTER = 1.0
EASY_NEGATIVE_CENTER = -2.0
HARD_NEGATIVE_CENTER = 0.5
CLUSTER_SIGMA = 0.5

# The most rows of a data spec and of a transformed batch. generate draws 10**6
# rows of 2 features in about 0.3 s, so the ceiling no longer guards drawing
# but what follows it: 156,250 SGD steps per epoch and a CSV of ~260 MB at
# 10**7 rows. It sits 80x above the largest benchmark batch and rejects a
# count that grows without bound (an add_negative target of 1e-9).
MAX_ROWS = 10**7
_CSV_BLOCK_ROWS = 8192  # rows formatted per write of save_csv


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


def _brief(x) -> str:
    """repr(x), but an integer of more than 20 digits to 4 significant ones (a JSON integer has no bound)."""
    if isinstance(x, int) and abs(x) >= 10**20:
        from decimal import Decimal  # only error messages need it; importing dicelab stays as cheap

        return format(Decimal(x), ".4g")
    return repr(x)


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
        if not 1 <= self.n_positive <= MAX_ROWS:
            raise ValueError(f"n_positive must lie in [1, {MAX_ROWS}], got {_brief(self.n_positive)}")
        if not self.ratio > 0.0:
            raise ValueError(f"ratio must be a positive real, got {_brief(self.ratio)}")
        # An integer ratio gives an exact product, a float one at worst inf.
        if not self.n_positive + self.ratio * self.n_positive <= MAX_ROWS:
            raise ValueError(
                f"ratio {_brief(self.ratio)} times n_positive {self.n_positive} asks for over {MAX_ROWS} rows"
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


def generate(spec: DataSpec) -> LabeledBatch:
    """Draw the dataset for a spec: positives, then easy negatives, then hard ones.

    Row by row, each feature is its cluster centre plus CLUSTER_SIGMA times
    the next normal of the stream.
    """
    rng = Xoshiro256StarStar(spec.seed)
    n_pos = spec.n_positive
    n_neg = spec.n_negative
    n_easy = _round_half_up(spec.easy_negative_fraction * n_neg)
    n_hard = n_neg - n_easy
    n, d = n_pos + n_neg, spec.feature_dim

    features = rng.normals(n * d).reshape(n, d)
    features *= CLUSTER_SIGMA
    centers = [POSITIVE_CENTER, EASY_NEGATIVE_CENTER, HARD_NEGATIVE_CENTER]
    features += np.repeat(centers, [n_pos, n_easy, n_hard])[:, None]

    labels = np.zeros(n, dtype=np.int64)
    labels[:n_pos] = 1
    return LabeledBatch(features, labels)


def _jittered_copies(
    rng: Xoshiro256StarStar,
    batch: LabeledBatch,
    n_add_pos: int,
    n_add_neg: int,
    jitter_sigma: float,
) -> np.ndarray:
    """n_add_pos jittered copies of uniformly chosen positive rows, then n_add_neg of negative ones.

    In stream order, copy i draws randbelow(rows of its class) and then its d
    normals, Box-Muller's spare carrying over from row to row. So copy i's
    randbelow is draw i + 2*ceil(i*d/2), and normal pair p is draws
    2p + 1 + floor(2p/d) and the one after it. An empty class draws nothing.
    """
    n_add, d = n_add_pos + n_add_neg, batch.features.shape[1]
    pairs = (n_add * d + 1) // 2
    draws = rng.next_u64_array(n_add + 2 * pairs)
    i = np.arange(n_add)
    picks = draws[i + 2 * ((i * d + 1) // 2)]
    first = 2 * np.arange(pairs)
    first += 1 + first // d
    noise = box_muller(draws[first], draws[first + 1])[: n_add * d].reshape(n_add, d)
    del draws, first

    templates = np.empty(n_add, dtype=np.int64)
    for label, rows in ((1, slice(0, n_add_pos)), (0, slice(n_add_pos, n_add))):
        if rows.stop > rows.start:
            source = np.flatnonzero(batch.labels == label)
            templates[rows] = source[picks[rows] % np.uint64(source.shape[0])]
    noise *= jitter_sigma
    noise += batch.features[templates]
    return noise


def _field(spec: TransformSpec) -> str:
    """The spec field that sets a transform's wanted counts."""
    return "growth_factor" if spec.kind is TransformKind.ADD_BOTH else "target_fraction_positive"


def _wanted_count(spec: TransformSpec, count: float) -> int:
    """A wanted row count rounded half up; one above MAX_ROWS names the spec field that made it."""
    if not count <= MAX_ROWS:  # before rounding, which cannot take inf
        field = _field(spec)
        raise InfeasibleTransformError(
            f"{spec.kind.value} with {field} {getattr(spec, field)!r} wants {count:.4g} rows, over {MAX_ROWS}"
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
    class that must grow needs a row to copy, the rows wanted may not exceed
    MAX_ROWS and at least one must remain; else InfeasibleTransformError.
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
    if want_pos + want_neg > MAX_ROWS:
        field = _field(spec)
        raise InfeasibleTransformError(
            f"{kind.value} with {field} {getattr(spec, field)!r} wants {want_pos} positives and "
            f"{want_neg} negatives, over {MAX_ROWS} rows"
        )
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
        # The memoryviews read and write the arrays as plain ints, with no list.
        n_remove = n_neg - want_neg
        neg_positions = np.flatnonzero(labels == 0)
        bounds = np.arange(n_neg, n_neg - n_remove, -1).astype(np.uint64)  # randbelow(n_neg - i)
        swap = memoryview(neg_positions)
        for i, offset in enumerate(memoryview(rng.next_u64_array(n_remove) % bounds)):
            j = i + offset
            swap[i], swap[j] = swap[j], swap[i]
        keep = np.ones(batch.n, dtype=bool)
        keep[neg_positions[:n_remove]] = False
        return LabeledBatch(features[keep], labels[keep])

    n_add_pos, n_add_neg = want_pos - n_pos, want_neg - n_neg
    out_features = np.concatenate([features, _jittered_copies(rng, batch, n_add_pos, n_add_neg, jitter_sigma)])
    out_labels = np.concatenate(
        [labels, np.ones(n_add_pos, dtype=np.int64), np.zeros(n_add_neg, dtype=np.int64)]
    )
    return LabeledBatch(out_features, out_labels)


# ---------------------------------------------------------------------------
# CSV interface: header f0,...,f{d-1},label; floats use 9 significant digits.
# ---------------------------------------------------------------------------


def save_csv(batch: LabeledBatch, path) -> None:
    d = batch.features.shape[1]
    row = ",".join(["%.9g"] * d + ["%d"])  # "%.9g" % x is format(x, ".9g")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join([f"f{j}" for j in range(d)] + ["label"]) + "\n")
        for start in range(0, batch.n, _CSV_BLOCK_ROWS):
            block = slice(start, start + _CSV_BLOCK_ROWS)
            columns = [*batch.features[block].T.tolist(), batch.labels[block].tolist()]
            fh.write("\n".join(map(row.__mod__, zip(*columns))) + "\n")


def _filled_lines(fh):
    """(line number, stripped line) for every line of fh that is not blank."""
    for number, line in enumerate(fh, start=1):
        line = line.strip()
        if line:
            yield number, line


def load_csv(path) -> LabeledBatch:
    """Read a batch written by save_csv; feature cells must be finite numbers, labels 0 or 1."""
    from array import array  # imported here, like Decimal, so that importing dicelab loads nothing more

    values = array("d")
    labels = array("q")
    with open(path, "r", encoding="utf-8") as fh:
        lines = _filled_lines(fh)
        header_number, header = next(lines, (None, ""))
        if header_number is None:
            raise ValueError(f"{path} is empty")
        header = header.split(",")
        if len(header) < 2 or header[-1] != "label" or any(h != f"f{j}" for j, h in enumerate(header[:-1])):
            raise ValueError(f"{path}:{header_number}: expected a header f0,...,label, got {header!r}")
        d = len(header) - 1
        for number, line in lines:
            cells = line.split(",")
            if len(cells) != d + 1:
                raise ValueError(f"{path}:{number}: row has {len(cells)} cells, expected {d + 1}")
            try:
                values.extend(map(float, cells[:-1]))
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
    features = np.frombuffer(values, dtype=np.float64).reshape(-1, d)
    finite = np.isfinite(features).all(axis=1)
    if not finite.all():
        row = int(np.flatnonzero(~finite)[0])
        with open(path, "r", encoding="utf-8") as fh:  # rows come after the header line
            number, line = next(itertools.islice(_filled_lines(fh), 1 + row, None))
        raise ValueError(f"{path}:{number}: feature values must be finite, got {line!r}")
    return LabeledBatch.from_arrays(features, np.frombuffer(labels, dtype=np.int64))
