"""Frozen digests of trained parameters and sweep CSVs.

The digests were recorded before the loss kernels were fused, the linear
step was streamlined and the sweeps began sharing each group's data. Any
change to the arithmetic order, the shuffles or the data a run sees shows
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
    "CE/linear": "5671b9416b73dd26b3678fc33cc9bf1781f45752ad33bfaafb344136578aaab3",
    "CE/mlp": "9fd7746c183984181c05e3d58294079fe7ae61b841a3369358310deb6c41d3ac",
    "DL_sample/linear": "10e94c543a8c8d4b49b649c1ed3831f6a2d0c5d4ad6325f6faff8dac11d7459b",
    "DL_sample/mlp": "ca74586ec09ccbe3f3c032d6682d181ede852e47626bf6bf6ee6e5691a331bc9",
    "DL_set/linear": "d8fee54ea35282ea6a8960a1b7a56a72683138347c44d7c752eaf2c0049367bf",
    "DL_set/mlp": "a9dcc3bb41d8b005e94b15d1dc2f927787d6a0eba46e35f15ca944484a4b8e63",
    "DSC_selfadj/linear": "8b2b17afa4e2e43d267332b12ac13673dcbe2faef7ae9cd008299775d0a72904",
    "DSC_selfadj/mlp": "88f513ac5a3c80f8441ac7ee0191b2399f8316f5ed152300f6c74bd9572db3da",
    "DSC_selfadj_exact/linear": "0352bb3c13183a9cb34f813ae76e474f4e5a27a60c11801667d957e5f6d4e52c",
    "DSC_selfadj_exact/mlp": "ff5a022e5bfd6aa5a6b87e5b5997aeec28ac56f09aebb8712c7f6459f83ecdb9",
    "FL/linear": "20ce6fcbb7d59441c8cc21005bff47316b7ab534cd7a569f83739147b01d0f59",
    "FL/mlp": "636cda0dfd14b91953e09dd0eff0ca23a263af213647336c91aa50640df1fcc2",
    "TL/linear": "ade7bbcbc97b0e6e319060591cc1bf4225b6facc5e87d434a9be28cb87f4ecc5",
    "TL/mlp": "c7841813e2d5d19d82e44ac7ae71d50d7b67127cb2877bcfc60923061623dfaf",
    "WCE/linear": "ee553bb820aa7b952b95aad4a9205caa33560ac2db4ffe185fd1d9f517bd53a9",
    "WCE/mlp": "5001c295af92b8f4aa1c85afae951bd3c97a4c5ccfe364028f0aa35563075c02",
}

_SWEEP_CSV_DIGEST = "cb761147cc8ca78d65c04c6c0ba4cb4ab5d2971e25d9ced71d9edf33fdd2b5f5"
_TVERSKY_CSV_DIGEST = "0880c041e7faae3abc212013915cf23674d4b0ad69ba557e9c948e8a55574e69"


def _model_digest(model) -> str:
    h = hashlib.sha256(model.parameters.tobytes())
    h.update(np.array(model.train_history, dtype=np.float64).tobytes())
    return h.hexdigest()


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
