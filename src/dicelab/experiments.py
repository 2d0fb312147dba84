"""Experiment orchestration: replicated runs over a grid of configs, CSV results.

A run trains one (loss, dataset) configuration once per replicate seed and
evaluates every replicate on a shared held-out set drawn from the
untransformed data spec. The held-out seed is the data seed + 1 (modulo
2**64) and its size is 20% of the training size. Each replicate seed
deterministically derives three child seeds (generation, transform, trainer)
via splitmix64, so runs are reproducible end to end and CSV output is
byte-identical across executions of the same config. `grid` is the one
entry point that trains: `run` and both sweeps hand it a list of configs.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields, replace

from .data import DataSpec, TransformKind, TransformSpec, _round_half_up, generate, transform, transform_counts
from .losses import WEIGHTED_KINDS, LossKind, LossSpec, class_weight_coefficient
from .metrics import ClassifierMetrics, check_threshold
from .rng import check_seed, splitmix64_at
from .trainer import ModelSpec, TrainSpec, evaluate, train

# Child-stream tags hung off each replicate seed.
_TAG_GENERATE = 0
_TAG_TRANSFORM = 1
_TAG_TRAINER = 2


@dataclass(frozen=True)
class ExperimentConfig:
    data: DataSpec
    loss: LossSpec
    transform: TransformSpec = TransformSpec()
    model: ModelSpec = ModelSpec()
    train: TrainSpec = TrainSpec()
    eval_threshold: float = 0.5
    replicate_seeds: tuple[int, ...] = (1, 2, 3, 4, 5)

    def __post_init__(self):
        check_threshold(self.eval_threshold, "eval_threshold")
        object.__setattr__(self, "replicate_seeds", tuple(int(s) for s in self.replicate_seeds))
        if len(self.replicate_seeds) == 0:
            raise ValueError("replicate_seeds must be nonempty")
        for seed in self.replicate_seeds:
            check_seed(seed, "replicate_seeds")
        if self.train.seed != 0:
            raise ValueError(
                f"train.seed is not a config value (got {self.train.seed}): each replicate's "
                "trainer seed derives from its replicate seed, so set replicate_seeds instead"
            )
        # `generate` yields the spec's class counts, so the training batch's counts are known here.
        n_pos, n_neg = transform_counts(self.transform, self.data.n_positive, self.data.n_negative)
        if self.loss.kind in WEIGHTED_KINDS:
            for n_class in (n_neg, n_pos):
                class_weight_coefficient(n_pos + n_neg, n_class, self.loss.k)


@dataclass(frozen=True)
class ResultRow:
    """One CSV row; seed is a string so aggregate rows can use 'mean' / 'std'."""

    loss: str
    ratio: float
    transform: str
    alpha: float
    beta: float
    gamma: float
    seed: str
    precision: float
    recall: float
    f1: float
    accuracy: float


CSV_COLUMNS = tuple(f.name for f in fields(ResultRow))


def default_config() -> ExperimentConfig:
    return ExperimentConfig(
        data=DataSpec(n_positive=200, ratio=10.0),
        loss=LossSpec(LossKind.CE),
    )


def held_out_spec(data: DataSpec) -> DataSpec:
    """Shared evaluation spec: untransformed, seed + 1 modulo 2**64, a fifth of the size."""
    n_positive = max(1, _round_half_up(0.2 * data.n_positive))
    return replace(data, seed=(data.seed + 1) % 2**64, n_positive=n_positive)


def _row(config: ExperimentConfig, seed_label: str, m) -> ResultRow:
    alpha, beta, gamma = config.loss.hyperparameters()
    return ResultRow(
        loss=config.loss.kind.value,
        ratio=config.data.ratio,
        transform=config.transform.kind.value,
        alpha=alpha,
        beta=beta,
        gamma=gamma,
        seed=seed_label,
        precision=m.precision,
        recall=m.recall,
        f1=m.f1,
        accuracy=m.accuracy,
    )


def _mean(values: list[float]) -> float:
    return sum(values) / len(values)


def _std(values: list[float]) -> float:
    m = _mean(values)
    return math.sqrt(_mean([(v - m) ** 2 for v in values]))


def _replicate_data(config: ExperimentConfig):
    """The shared held-out batch and each replicate's (transformed) training batch.

    They depend only on the data, transform and replicate_seeds sections,
    the key by which `grid` groups its configs.
    """
    test_batch = generate(held_out_spec(config.data))
    batches = []
    for seed in config.replicate_seeds:
        batch = generate(replace(config.data, seed=splitmix64_at(seed, _TAG_GENERATE)))
        if config.transform.kind is not TransformKind.ORIGINAL:
            batch = transform(
                batch,
                config.transform.kind,
                target_fraction_positive=config.transform.target_fraction_positive,
                seed=splitmix64_at(seed, _TAG_TRANSFORM),
                jitter_sigma=config.data.jitter_sigma,
                growth_factor=config.transform.growth_factor,
            )
        batches.append(batch)
    return test_batch, batches


def _config_rows(config: ExperimentConfig, per_seed: list[ClassifierMetrics]) -> list[ResultRow]:
    """One row per replicate seed, then the mean and std rows."""
    rows = [_row(config, str(seed), m) for seed, m in zip(config.replicate_seeds, per_seed)]
    for label, agg in (("mean", _mean), ("std", _std)):
        rows.append(
            _row(
                config,
                label,
                ClassifierMetrics(
                    agg([m.precision for m in per_seed]),
                    agg([m.recall for m in per_seed]),
                    agg([m.f1 for m in per_seed]),
                    agg([m.accuracy for m in per_seed]),
                ),
            )
        )
    return rows


def grid(configs: list[ExperimentConfig]) -> list[ResultRow]:
    """Train and evaluate every config once per replicate seed; rows in sort_rows order.

    Configs with equal data, transform and replicate_seeds sections form one
    data group: their batches are generated once and shared by the group's
    runs. Groups run in order of first appearance, and each group's batches
    are released before the next group's are generated. Every replicate is
    trained and then evaluated before the next one starts.
    """
    groups: dict[tuple, list[ExperimentConfig]] = {}
    for config in configs:
        key = (config.data, config.transform, config.replicate_seeds)
        groups.setdefault(key, []).append(config)
    rows: list[ResultRow] = []
    for members in groups.values():
        test_batch, batches = _replicate_data(members[0])
        for config in members:
            per_seed = []
            for seed, batch in zip(config.replicate_seeds, batches):
                train_spec = replace(config.train, seed=splitmix64_at(seed, _TAG_TRAINER))
                model = train(batch, config.loss, config.model, train_spec)
                per_seed.append(evaluate(model, test_batch, config.eval_threshold))
            rows.extend(_config_rows(config, per_seed))
        # The loop variable `batch` holds a batch too; drop all before the next group.
        del test_batch, batches, batch
    return sort_rows(rows)


def run(config: ExperimentConfig) -> list[ResultRow]:
    """Train/evaluate one configuration per replicate seed, plus mean/std rows."""
    return grid([config])


def sweep(
    config: ExperimentConfig,
    losses: list[LossKind],
    ratios: list[float],
) -> list[ResultRow]:
    """Cross every loss kind with every imbalance ratio; each ratio is one data group."""
    if not losses or not ratios:
        raise ValueError("sweep needs at least one loss and one ratio")
    configs = []
    for ratio in ratios:
        data = replace(config.data, ratio=float(ratio))
        configs.extend(replace(config, data=data, loss=replace(config.loss, kind=kind)) for kind in losses)
    return grid(configs)


def sweep_tversky(config: ExperimentConfig, alphas: list[float]) -> list[ResultRow]:
    """Trade precision against recall along beta = 1 - alpha; every alpha shares the data."""
    if config.loss.kind is not LossKind.TL:
        raise ValueError("sweep_tversky requires a Tversky loss config")
    if not alphas:
        raise ValueError("sweep_tversky needs at least one alpha")
    for a in alphas:
        if not (0.0 <= a <= 1.0):
            raise ValueError(f"alpha must lie in [0, 1] for the beta = 1 - alpha sweep, got {a}")
    configs = []
    for a in alphas:
        loss = replace(config.loss, alpha=float(a), beta=1.0 - float(a))
        configs.append(replace(config, loss=loss))
    return grid(configs)


# ---------------------------------------------------------------------------
# CSV output: fixed column order, 6-decimal floats, rows sorted for stability.
# ---------------------------------------------------------------------------


def _seed_sort_key(seed: str) -> tuple[int, float]:
    if seed == "mean":
        return (1, 0.0)
    if seed == "std":
        return (1, 1.0)
    return (0, float(seed))


def sort_rows(rows: list[ResultRow]) -> list[ResultRow]:
    return sorted(
        rows,
        key=lambda r: (r.loss, r.ratio, r.alpha, r.transform, _seed_sort_key(r.seed)),
    )


def _csv_cell(value) -> str:
    return value if isinstance(value, str) else f"{value:.6f}"


def rows_to_csv(rows: list[ResultRow]) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for r in sort_rows(rows):
        lines.append(",".join(_csv_cell(getattr(r, name)) for name in CSV_COLUMNS))
    return "\n".join(lines) + "\n"


def write_csv(rows: list[ResultRow], path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(rows_to_csv(rows))


# ---------------------------------------------------------------------------
# JSON config round trip. The layout mirrors the dataclass fields.
# ---------------------------------------------------------------------------


def config_to_dict(config: ExperimentConfig) -> dict:
    payload = asdict(config)
    del payload["train"]["seed"]  # ExperimentConfig admits only its default
    payload["loss"]["kind"] = config.loss.kind.value
    payload["transform"]["kind"] = config.transform.kind.value
    payload["replicate_seeds"] = list(config.replicate_seeds)
    return payload


def config_to_json(config: ExperimentConfig) -> str:
    return json.dumps(config_to_dict(config), indent=2) + "\n"


# JSON types a field accepts, by its annotation. The enum fields take their
# value string (both enums are str subclasses) and their constructors reject
# unknown values. bool is an int subclass in Python, so it is excluded by hand.
_JSON_TYPES = {
    "int": (int,),
    "float": (int, float),
    "float | None": (int, float, type(None)),
    "bool": (bool,),
    "str": (str,),
    "LossKind": (str,),
    "TransformKind": (str,),
}


def _check_json_type(name: str, value, annotation: str) -> None:
    accepted = _JSON_TYPES.get(annotation)
    if accepted is None:
        raise TypeError(f"config {name} is annotated {annotation!r}, which has no JSON type check")
    if not isinstance(value, accepted) or (isinstance(value, bool) and bool not in accepted):
        raise ValueError(f"config {name} must be {annotation}, got {value!r}")


def _build_section(cls, payload: dict, section: str):
    values = payload.get(section, {})
    if not isinstance(values, dict):
        raise ValueError(f"config section {section!r} must be an object")
    fields = cls.__dataclass_fields__
    unknown = set(values) - set(fields)
    if unknown:
        raise ValueError(f"unknown keys in config section {section!r}: {sorted(unknown)}")
    for key, value in values.items():
        _check_json_type(f"{section}.{key}", value, fields[key].type)
    return cls(**values)


def config_from_dict(payload: dict) -> ExperimentConfig:
    if not isinstance(payload, dict):
        raise ValueError("config must be a JSON object")
    known = {"data", "loss", "transform", "model", "train", "eval_threshold", "replicate_seeds"}
    unknown = set(payload) - known
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    if "data" not in payload:
        raise ValueError("config requires a 'data' section")
    if "loss" not in payload or "kind" not in payload.get("loss", {}):
        raise ValueError("config requires a 'loss' section with a 'kind'")
    kwargs = {
        "data": _build_section(DataSpec, payload, "data"),
        "loss": _build_section(LossSpec, payload, "loss"),
        "transform": _build_section(TransformSpec, payload, "transform"),
        "model": _build_section(ModelSpec, payload, "model"),
        "train": _build_section(TrainSpec, payload, "train"),
    }
    if "eval_threshold" in payload:
        _check_json_type("eval_threshold", payload["eval_threshold"], "float")
        kwargs["eval_threshold"] = float(payload["eval_threshold"])
    if "replicate_seeds" in payload:
        seeds = payload["replicate_seeds"]
        if not isinstance(seeds, list):
            raise ValueError(f"config replicate_seeds must be a list of integers, got {seeds!r}")
        for seed in seeds:
            _check_json_type("replicate_seeds", seed, "int")
        kwargs["replicate_seeds"] = tuple(seeds)
    return ExperimentConfig(**kwargs)


def load_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return config_from_dict(json.load(fh))
