"""Replicated experiment runner, sweeps, CSV output, and config round trips."""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from conftest import tiny_config
from dicelab.data import DataSpec, InfeasibleTransformError, TransformKind, generate
from dicelab import experiments
from dicelab.experiments import (
    CSV_COLUMNS,
    ExperimentConfig,
    ResultRow,
    TransformSpec,
    config_from_dict,
    config_to_dict,
    config_to_json,
    default_config,
    grid,
    held_out_spec,
    load_config,
    rows_to_csv,
    run,
    sort_rows,
    sweep,
    sweep_tversky,
    write_csv,
)
from dicelab.losses import LossKind, LossSpec
from dicelab.trainer import ModelSpec, TrainSpec, evaluate, train


# --- run --------------------------------------------------------------------


def test_run_emits_per_seed_rows_then_mean_and_std():
    rows = run(tiny_config())
    assert [r.seed for r in rows] == ["1", "2", "mean", "std"]
    for r in rows:
        assert r.loss == "CE"
        assert r.ratio == 2.0
        assert r.transform == "original"
        assert 0.0 <= r.f1 <= 1.0


def test_mean_and_std_rows_aggregate_the_seed_rows():
    rows = run(tiny_config(replicate_seeds=(1, 2, 3)))
    seed_rows = [r for r in rows if r.seed not in ("mean", "std")]
    mean_row = next(r for r in rows if r.seed == "mean")
    std_row = next(r for r in rows if r.seed == "std")
    for field in ("precision", "recall", "f1", "accuracy"):
        values = [getattr(r, field) for r in seed_rows]
        assert getattr(mean_row, field) == pytest.approx(np.mean(values), abs=1e-12)
        assert getattr(std_row, field) == pytest.approx(np.std(values), abs=1e-12)


def test_run_sorts_its_rows_by_seed():
    rows = run(tiny_config(replicate_seeds=(2, 1)))
    assert [r.seed for r in rows] == ["1", "2", "mean", "std"]


def test_run_is_deterministic():
    config = tiny_config()
    assert run(config) == run(config)


def test_run_applies_and_records_the_transform():
    config = tiny_config(
        transform=TransformSpec(TransformKind.ADD_POSITIVE, target_fraction_positive=0.5)
    )
    rows = run(config)
    assert all(r.transform == "add_positive" for r in rows)


def test_default_config_is_the_moderate_imbalance_setting():
    config = default_config()
    assert config.data == DataSpec(n_positive=200, ratio=10.0)
    assert config.loss.kind is LossKind.CE
    assert config.replicate_seeds == (1, 2, 3, 4, 5)


def test_held_out_spec_is_a_fifth_of_the_data_on_the_next_seed():
    spec = DataSpec(n_positive=200, ratio=10.0, seed=42)
    held = held_out_spec(spec)
    assert held.n_positive == 40
    assert held.seed == 43
    assert held.ratio == spec.ratio
    assert held_out_spec(DataSpec(n_positive=3, ratio=1.0)).n_positive == 1
    assert held_out_spec(DataSpec(n_positive=1, ratio=1.0)).n_positive == 1


def test_held_out_seed_wraps_at_64_bits():
    last = DataSpec(n_positive=30, ratio=2.0, seed=2**64 - 1)
    assert held_out_spec(last).seed == 0
    assert len(run(tiny_config(data=last))) == 4


def test_experiment_config_validation():
    with pytest.raises(ValueError):
        tiny_config(eval_threshold=1.0)
    with pytest.raises(ValueError):
        tiny_config(replicate_seeds=())


@pytest.mark.parametrize("seed", [-1, 2**64, 2**70])
def test_replicate_seeds_outside_64_bits_are_rejected(seed):
    with pytest.raises(ValueError, match="replicate_seeds"):
        tiny_config(replicate_seeds=(1, seed))
    payload = {"data": {"n_positive": 10, "ratio": 2.0}, "loss": {"kind": "CE"}, "replicate_seeds": [seed]}
    with pytest.raises(ValueError, match="replicate_seeds"):
        config_from_dict(payload)
    assert tiny_config(replicate_seeds=(0, 2**64 - 1)).replicate_seeds == (0, 2**64 - 1)


def test_train_seed_is_not_an_experiment_config_value():
    """Each replicate's trainer seed derives from its replicate seed, so train.seed would do nothing."""
    with pytest.raises(ValueError, match=r"train\.seed.*replicate_seeds"):
        tiny_config(train=TrainSpec(epochs=8, batch_size=16, seed=9))
    payload = {"data": {"n_positive": 10, "ratio": 2.0}, "loss": {"kind": "CE"}, "train": {"seed": 9}}
    with pytest.raises(ValueError, match=r"train\.seed"):
        config_from_dict(payload)
    assert "seed" not in config_to_dict(tiny_config())["train"]


def test_sweep_rejects_an_unreachable_target_before_drawing_any_data(monkeypatch):
    """Ratio 1 is already above 0.2 positive; the ratio-100 group must not train first."""

    def no_data(spec):
        raise AssertionError("generate was called")

    monkeypatch.setattr(experiments, "generate", no_data)
    config = tiny_config(
        data=DataSpec(n_positive=30, ratio=10.0, seed=5),
        transform=TransformSpec(TransformKind.ADD_POSITIVE, target_fraction_positive=0.2),
    )
    with pytest.raises(InfeasibleTransformError, match="target_fraction_positive 0.2"):
        sweep(config, [LossKind.CE], ratios=[100, 10, 1])


@pytest.mark.parametrize("kind", [LossKind.WCE, LossKind.FL])
def test_class_weights_are_checked_on_the_transformed_counts(kind):
    """k = 0.5 makes the majority weight negative at ratio 10, but not once add_positive balances it."""
    data = DataSpec(n_positive=30, ratio=10.0)
    with pytest.raises(ValueError, match="k = 0.5"):
        ExperimentConfig(data=data, loss=LossSpec(kind, k=0.5))
    balanced = TransformSpec(TransformKind.ADD_POSITIVE, target_fraction_positive=0.5)
    ExperimentConfig(data=data, loss=LossSpec(kind, k=0.5), transform=balanced)
    with pytest.raises(ValueError, match="need 0 < n_class"):
        ExperimentConfig(data=DataSpec(n_positive=1, ratio=0.4), loss=LossSpec(kind))


def test_data_seed_moves_only_the_held_out_set(monkeypatch):
    """Training data, and so the trained models, come from the replicate seeds alone."""
    trained, held_out = [], []

    def recording_train(*args):
        model = train(*args)
        trained.append(model.parameters.tobytes())
        return model

    def recording_evaluate(model, batch, threshold):
        held_out.append(batch.features.tobytes())
        return evaluate(model, batch, threshold)

    monkeypatch.setattr(experiments, "train", recording_train)
    monkeypatch.setattr(experiments, "evaluate", recording_evaluate)
    for seed in (5, 6):
        run(tiny_config(data=DataSpec(n_positive=30, ratio=2.0, seed=seed)))
    assert trained[:2] == trained[2:]
    assert held_out[0] != held_out[2]


# --- grid -------------------------------------------------------------------


def test_grid_generates_each_data_group_once_in_order_of_first_appearance(monkeypatch):
    generated = []

    def recording_generate(spec):
        generated.append(spec.ratio)
        return generate(spec)

    monkeypatch.setattr(experiments, "generate", recording_generate)
    ce = tiny_config()
    configs = [
        ce,
        tiny_config(data=dataclasses.replace(ce.data, ratio=3.0)),
        tiny_config(loss=LossSpec(LossKind.DSC_SELFADJ)),  # shares the first config's group
        tiny_config(transform=TransformSpec(TransformKind.ADD_POSITIVE, target_fraction_positive=0.5)),
    ]
    grid(configs)
    per_group = 1 + len(ce.replicate_seeds)  # the held-out batch and one per replicate
    assert generated == [2.0] * per_group + [3.0] * per_group + [2.0] * per_group


def test_grid_equals_the_sorted_rows_of_separate_runs():
    a = tiny_config(loss=LossSpec(LossKind.DSC_SELFADJ))
    b = tiny_config(data=dataclasses.replace(a.data, ratio=3.0))
    assert grid([a, b]) == sort_rows(run(a) + run(b))


def test_sweep_trains_then_evaluates_each_run_before_the_next(monkeypatch):
    """perfbench times a run from its train call to the next evaluate call."""
    calls = []

    def recording_train(*args):
        calls.append("train")
        return train(*args)

    def recording_evaluate(*args):
        calls.append("evaluate")
        return evaluate(*args)

    monkeypatch.setattr(experiments, "train", recording_train)
    monkeypatch.setattr(experiments, "evaluate", recording_evaluate)
    sweep(tiny_config(), [LossKind.CE, LossKind.DSC_SELFADJ], [1.0, 2.0])
    assert calls == ["train", "evaluate"] * (2 * 2 * 2)


# --- sweeps -----------------------------------------------------------------


def test_sweep_crosses_losses_with_ratios_in_sorted_order():
    rows = sweep(tiny_config(), [LossKind.DSC_SELFADJ, LossKind.CE], [2.0, 1.0])
    assert len(rows) == 2 * 2 * 4
    groups = [(r.loss, r.ratio) for r in rows[::4]]
    assert groups == [("CE", 1.0), ("CE", 2.0), ("DSC_selfadj", 1.0), ("DSC_selfadj", 2.0)]
    for start in range(0, len(rows), 4):
        assert [r.seed for r in rows[start : start + 4]] == ["1", "2", "mean", "std"]


def test_each_swept_kind_takes_its_own_defaults():
    rows = sweep(tiny_config(), [LossKind.TL, LossKind.FL, LossKind.DSC_SELFADJ], [2.0])
    effective = {r.loss: (r.alpha, r.beta, r.gamma) for r in rows}
    assert effective == {"TL": (0.5, 0.5, 1.0), "FL": (1.0, 1.0, 2.0), "DSC_selfadj": (1.0, 1.0, 1.0)}


def test_a_given_alpha_reaches_every_swept_kind():
    config = tiny_config(loss=LossSpec(LossKind.CE, alpha=0.25))
    rows = sweep(config, [LossKind.TL, LossKind.FL, LossKind.DSC_SELFADJ], [2.0])
    effective = {r.loss: (r.alpha, r.beta, r.gamma) for r in rows}
    assert effective == {"TL": (0.25, 0.5, 1.0), "FL": (0.25, 1.0, 2.0), "DSC_selfadj": (0.25, 1.0, 1.0)}


def test_sweep_requires_losses_and_ratios():
    with pytest.raises(ValueError):
        sweep(tiny_config(), [], [1.0])
    with pytest.raises(ValueError):
        sweep(tiny_config(), [LossKind.CE], [])


def test_sweep_tversky_orders_alphas_and_complements_beta():
    config = tiny_config(loss=LossSpec(LossKind.TL))
    rows = sweep_tversky(config, [0.7, 0.3])
    assert len(rows) == 2 * 4
    assert [r.alpha for r in rows[::4]] == [0.3, 0.7]
    for r in rows:
        assert r.loss == "TL"
        assert r.beta == pytest.approx(1.0 - r.alpha, abs=1e-15)


def test_sweep_tversky_rejects_non_tversky_configs_and_bad_alphas():
    with pytest.raises(ValueError):
        sweep_tversky(tiny_config(), [0.5])  # CE config
    tversky = tiny_config(loss=LossSpec(LossKind.TL))
    with pytest.raises(ValueError):
        sweep_tversky(tversky, [])
    with pytest.raises(ValueError):
        sweep_tversky(tversky, [1.2])
    with pytest.raises(ValueError):
        sweep_tversky(tversky, [-0.1])


# --- CSV --------------------------------------------------------------------


def _row(seed: str, f1: float = 0.5) -> ResultRow:
    return ResultRow(
        loss="CE",
        ratio=10.0,
        transform="original",
        alpha=1.0,
        beta=1.0,
        gamma=1.0,
        seed=seed,
        precision=0.25,
        recall=2.0 / 3.0,
        f1=f1,
        accuracy=0.125,
    )


def test_rows_to_csv_formats_floats_with_six_decimals():
    text = rows_to_csv([_row("1", f1=2.0 / 3.0)])
    lines = text.split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert lines[0] == "loss,ratio,transform,alpha,beta,gamma,seed,precision,recall,f1,accuracy"
    assert lines[1] == (
        "CE,10.000000,original,1.000000,1.000000,1.000000,1,0.250000,0.666667,0.666667,0.125000"
    )
    assert text.endswith("\n")


def test_rows_sort_numerically_with_aggregates_last():
    scrambled = [_row("std"), _row("10"), _row("mean"), _row("2"), _row("1")]
    assert [r.seed for r in sort_rows(scrambled)] == ["1", "2", "10", "mean", "std"]


def test_write_csv_matches_rows_to_csv_bytes(tmp_path):
    rows = run(tiny_config())
    path = tmp_path / "out.csv"
    write_csv(rows, path)
    assert path.read_bytes() == rows_to_csv(rows).encode("utf-8")


def test_csv_is_byte_identical_across_fresh_runs():
    config = tiny_config()
    assert rows_to_csv(run(config)) == rows_to_csv(run(config))


# --- config serialization ---------------------------------------------------


def test_config_round_trips_through_dict_and_json(tmp_path):
    config = tiny_config(
        loss=LossSpec(LossKind.TL, alpha=0.3, beta=0.7, gamma=0.5),
        transform=TransformSpec(TransformKind.ADD_BOTH, growth_factor=2.0),
        model=ModelSpec(arch="mlp", hidden_units=4),
        train=TrainSpec(learning_rate=0.05, epochs=3, batch_size=8),
        eval_threshold=0.4,
        replicate_seeds=(3, 4),
    )
    assert config_from_dict(config_to_dict(config)) == config
    path = tmp_path / "config.json"
    path.write_text(config_to_json(config))
    assert load_config(path) == config


def test_config_round_trip_keeps_absent_hyperparameters_absent(tmp_path):
    config = tiny_config(loss=LossSpec(LossKind.TL, beta=0.7))
    payload = json.loads(config_to_json(config))
    assert payload["loss"]["alpha"] is None and payload["loss"]["gamma"] is None
    path = tmp_path / "config.json"
    path.write_text(config_to_json(config))
    loaded = load_config(path)
    assert loaded == config and (loaded.loss.alpha, loaded.loss.gamma) == (None, None)


def test_config_from_dict_applies_section_defaults():
    config = config_from_dict({"data": {"n_positive": 10, "ratio": 2.0}, "loss": {"kind": "CE"}})
    assert config.train == TrainSpec()
    assert config.model == ModelSpec()
    assert config.transform == TransformSpec()
    assert config.replicate_seeds == (1, 2, 3, 4, 5)


def test_transform_spec_lives_in_data_and_experiments_reexports_it():
    from dicelab import data

    assert TransformSpec is data.TransformSpec


def test_config_from_dict_rejects_unknown_or_missing_keys():
    good = {"data": {"n_positive": 10, "ratio": 2.0}, "loss": {"kind": "CE"}}
    with pytest.raises(ValueError, match="unknown config keys"):
        config_from_dict({**good, "extra": 1})
    with pytest.raises(ValueError, match="unknown keys in config section"):
        config_from_dict({**good, "loss": {"kind": "CE", "bogus": 2}})
    with pytest.raises(ValueError, match="'data'"):
        config_from_dict({"loss": {"kind": "CE"}})
    with pytest.raises(ValueError, match="'kind'"):
        config_from_dict({"data": {"n_positive": 10, "ratio": 2.0}, "loss": {}})
    with pytest.raises(ValueError):
        config_from_dict({**good, "loss": {"kind": "BOGUS"}})
    with pytest.raises(ValueError):
        config_from_dict([])


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("data", "n_positive", 5.5),
        ("data", "n_positive", True),
        ("data", "feature_dim", 2.0),
        ("data", "seed", "7"),
        ("data", "ratio", "10"),
        ("data", "ratio", True),
        ("loss", "kind", 1),
        ("loss", "gamma", "1"),
        ("loss", "detach_weight", 1),
        ("model", "hidden_units", 4.0),
        ("train", "epochs", True),
        ("train", "batch_size", 16.0),
        ("train", "seed", False),
        ("transform", "kind", ["original"]),
        ("transform", "growth_factor", None),
    ],
)
def test_config_from_dict_rejects_mistyped_fields(section, key, value):
    payload = {"data": {"n_positive": 10, "ratio": 2.0}, "loss": {"kind": "CE"}}
    payload.setdefault(section, {})[key] = value
    with pytest.raises(ValueError, match=f"{section}.{key}"):
        config_from_dict(payload)


@pytest.mark.parametrize("seeds", ["123", 7, [1, 2.5], [True], {"a": 1}])
def test_config_from_dict_rejects_replicate_seeds_that_are_not_a_list_of_integers(seeds):
    payload = {"data": {"n_positive": 10, "ratio": 2.0}, "loss": {"kind": "CE"}, "replicate_seeds": seeds}
    with pytest.raises(ValueError, match="replicate_seeds"):
        config_from_dict(payload)


def test_config_from_dict_rejects_a_non_numeric_threshold():
    payload = {"data": {"n_positive": 10, "ratio": 2.0}, "loss": {"kind": "CE"}, "eval_threshold": "0.4"}
    with pytest.raises(ValueError, match="eval_threshold"):
        config_from_dict(payload)


def test_every_config_field_has_a_json_type_check():
    for cls in (DataSpec, LossSpec, TransformSpec, ModelSpec, TrainSpec):
        for field in dataclasses.fields(cls):
            assert field.type in experiments._JSON_TYPES, f"{cls.__name__}.{field.name}: {field.type!r}"


def test_a_field_annotation_without_a_json_type_check_is_an_error():
    with pytest.raises(TypeError, match="data.n_positive"):
        experiments._check_json_type("data.n_positive", 5, "int | None")


def test_config_from_dict_accepts_integers_in_float_fields():
    payload = {"data": {"n_positive": 10, "ratio": 2}, "loss": {"kind": "TL", "alpha": 0, "beta": 1}}
    config = config_from_dict(payload)
    assert config.data.ratio == 2.0 and config.loss.alpha == 0.0


def test_loaded_config_runs_identically_to_the_original(tmp_path):
    config = tiny_config()
    path = tmp_path / "config.json"
    path.write_text(config_to_json(config))
    assert run(load_config(path)) == run(config)
