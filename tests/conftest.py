"""Shared helpers for the test suite.

Child processes (`python -m dicelab`, the scripts) import the same dicelab
as the suite: its root directory leads PYTHONPATH, which they inherit.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

import dicelab
from dicelab.data import DataSpec
from dicelab.experiments import ExperimentConfig
from dicelab.losses import LossKind, LossSpec
from dicelab.trainer import TrainSpec


@pytest.fixture(autouse=True, scope="session")
def _child_processes_import_this_dicelab():
    import_root = str(Path(dicelab.__file__).resolve().parent.parent)
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("PYTHONPATH", os.pathsep.join(filter(None, [import_root, os.environ.get("PYTHONPATH")])))
        yield


def tiny_config(**overrides) -> ExperimentConfig:
    """An experiment config small enough that run() finishes in well under a second."""
    base = dict(
        data=DataSpec(n_positive=30, ratio=2.0, seed=5),
        loss=LossSpec(LossKind.CE),
        train=TrainSpec(epochs=8, batch_size=16),
        replicate_seeds=(1, 2),
    )
    base.update(overrides)
    return ExperimentConfig(**base)
