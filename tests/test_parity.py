"""Frozen digests of trained parameters and sweep CSVs.

The digests pin outputs recorded before the loss kernels were fused, the
linear step was streamlined and the sweeps began sharing each group's data;
a model digest hashes the trained parameter bytes only. Any change to the arithmetic order, the shuffles or the data a run sees shows
up here as a different hash, so a speed-up that passes these tests keeps
every output bit.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from dicelab.data import DataSpec, TransformKind, generate
from dicelab.experiments import ExperimentConfig, TransformSpec, rows_to_csv, sweep, sweep_tversky
from dicelab.losses import LossKind, LossSpec
from dicelab.trainer import ModelSpec, TrainSpec, train

_DATA = DataSpec(n_positive=12, ratio=5.0, seed=3)
_TRAIN = TrainSpec(learning_rate=0.5, epochs=3, batch_size=16, seed=11)

_SPECS = {
    "CE": LossSpec(LossKind.CE),
    "WCE": LossSpec(LossKind.WCE, k=2.0),
    "DL_sample": LossSpec(LossKind.DL_SAMPLE),
    "DL_set": LossSpec(LossKind.DL_SET),
    "TL": LossSpec(LossKind.TL, alpha=0.3, beta=0.7),
    "DSC_selfadj": LossSpec(LossKind.DSC_SELFADJ),
    "DSC_selfadj_exact": LossSpec(LossKind.DSC_SELFADJ, alpha=0.5, detach_weight=False),
    "FL": LossSpec(LossKind.FL, k=3.0),
}

_MODELS = {"linear": ModelSpec(), "mlp": ModelSpec(arch="mlp", hidden_units=3)}

_PARAMETER_DIGESTS = {
    "CE/linear": "9d67b3a2baebb44b283f0c77ea8983755f789367f31cffa975380b4da6bed748",
    "CE/mlp": "ddae601eed35b8a6c9126b05da10270a6de331b4b7525ac314b833881a2d1688",
    "DL_sample/linear": "37703e45750c7ebbef3b196f3d93c43134ae349506ebe53378a246118c22757a",
    "DL_sample/mlp": "7054d22302f41af2667abd57db85597e9ada5b5a55fc3ab2d37a83f87e2ac2f6",
    "DL_set/linear": "7b65b93235a6e03e0c7a6cad96a850cbb9f51b3e0df7e1babbb15f3492e1e681",
    "DL_set/mlp": "48a5798126ee278017357e0f13b7d87f0080c6ccd1684b8f6e640aeb61659b4f",
    "DSC_selfadj/linear": "b0d1456cd9b41ad028a1e4b9411a8079b0072f32c59f97e89e102fc82a091a19",
    "DSC_selfadj/mlp": "d35772522f1280b22cffc872dac0640eb043f5d7a077a6b97d96ab9f14b2b9b9",
    "DSC_selfadj_exact/linear": "b80d6e45c53e3606a4b228efbfe6b8e92e0eeb70e55f488226678c96b11e4a8d",
    "DSC_selfadj_exact/mlp": "7f251db4011b3606d958e5d355c467457d93fecc4f95f67ed9f82c7626bb26c2",
    "FL/linear": "7a2d2f838af1260829127fc6d165833b38b9371077dd524a0ecd1ee61ecf0e04",
    "FL/mlp": "0642affded3d6b47a40a749b009a55384394dba9591a0a84dedf18f5b214038c",
    "TL/linear": "29b75b8e7045d2f7ee5ac489a8c998e31590bcd8d9c86a77aee5a3f675e5121a",
    "TL/mlp": "a723c9d570e3f4d6103c1b60584dc3382eed6360430ec769fe1f0c45a3fe3a44",
    "WCE/linear": "3e10d1234f46b87f17c6e697ed491fc61329db3fd1c86ed072b7bcae0f2a39b4",
    "WCE/mlp": "b4212de3eb1fc5ff71d1e331765a4ff01c2cd207954ca898413aa8bfbc1fb6cb",
}

# Recorded again when a kind change stopped carrying the old kind's defaults:
# the FL rows of this CE-based sweep now train at FL's own gamma = 2.
_SWEEP_CSV_DIGEST = "7d989849d4852515558ea8356ba38cecdec2f0b00fbebcdf208fb9cd54cab14f"
_TVERSKY_CSV_DIGEST = "0880c041e7faae3abc212013915cf23674d4b0ad69ba557e9c948e8a55574e69"


def _model_digest(model) -> str:
    return hashlib.sha256(model.parameters.tobytes()).hexdigest()


def _csv_digest(rows) -> str:
    return hashlib.sha256(rows_to_csv(rows).encode("utf-8")).hexdigest()


def _base_config(**overrides) -> ExperimentConfig:
    base = dict(
        data=DataSpec(n_positive=20, ratio=3.0, seed=7),
        loss=LossSpec(LossKind.CE),
        train=TrainSpec(epochs=3, batch_size=8),
        replicate_seeds=(1, 2),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


@pytest.mark.parametrize("arch", sorted(_MODELS))
@pytest.mark.parametrize("name", sorted(_SPECS))
def test_trained_parameters_and_history_are_frozen(name, arch):
    model = train(generate(_DATA), _SPECS[name], _MODELS[arch], _TRAIN)
    assert np.all(np.isfinite(model.parameters))
    assert _model_digest(model) == _PARAMETER_DIGESTS[f"{name}/{arch}"]


def test_loss_by_ratio_sweep_csv_is_frozen():
    config = _base_config(
        data=DataSpec(n_positive=20, ratio=3.0, seed=7, easy_negative_fraction=0.3),
        transform=TransformSpec(TransformKind.ADD_BOTH, target_fraction_positive=0.4),
    )
    rows = sweep(config, [LossKind.CE, LossKind.DSC_SELFADJ, LossKind.FL], [2.0, 4.0])
    assert _csv_digest(rows) == _SWEEP_CSV_DIGEST


def test_tversky_sweep_csv_is_frozen():
    config = _base_config(loss=LossSpec(LossKind.TL), data=DataSpec(n_positive=20, ratio=6.0, seed=9, easy_negative_fraction=0.3))
    rows = sweep_tversky(config, [0.7, 0.1, 0.4])
    assert _csv_digest(rows) == _TVERSKY_CSV_DIGEST
