"""Deterministic mini-batch SGD for a sigmoid-head linear model or small MLP.

The trainer is a pure function of (data, loss spec, model spec, train spec):
parameter init, epoch shuffles, and batch order all come from the shared
seeded generator family, so retraining reproduces the same parameters bit
for bit. Gradients flow through the chain dL/dtheta =
dL/dp1 * p1 * (1 - p1) * dz/dtheta, with dL/dp1 supplied analytically by the
loss module. `train` returns the parameters only; `evaluate` scores them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import losses, metrics
from .data import LabeledBatch
from .losses import LossSpec, ProbPair
from .rng import Xoshiro256StarStar, check_seed, permutation, splitmix64_at

# splitmix64 outputs 0..3 of the train seed fill the init stream; epoch e
# shuffles with output 4+e so the two purposes never share draws.
_EPOCH_STREAM_OFFSET = 4


class TrainingDivergedError(RuntimeError):
    """The batch loss or its parameter gradient became non-finite during training."""


@dataclass(frozen=True)
class ModelSpec:
    """Architecture: `linear` is sigmoid(w.x + b); `mlp` adds one tanh hidden layer."""

    arch: str = "linear"
    hidden_units: int = 16

    def __post_init__(self):
        if self.arch not in ("linear", "mlp"):
            raise ValueError(f"arch must be 'linear' or 'mlp', got {self.arch!r}")
        if self.arch == "mlp" and self.hidden_units < 1:
            raise ValueError("hidden_units must be at least 1")


@dataclass(frozen=True)
class TrainSpec:
    learning_rate: float = 0.1
    epochs: int = 200
    batch_size: int = 64
    seed: int = 0
    init_scale: float = 0.1

    def __post_init__(self):
        if not (self.learning_rate > 0.0 and math.isfinite(self.learning_rate)):
            raise ValueError("learning_rate must be positive")
        if self.epochs < 0:
            raise ValueError("epochs must be nonnegative")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        check_seed(self.seed, "seed")
        if not (self.init_scale > 0.0 and math.isfinite(self.init_scale)):
            raise ValueError("init_scale must be positive")


@dataclass
class TrainedModel:
    """Flat parameter vector plus the model spec needed to interpret it.

    `_layers` is the one reader of the layout.
    """

    parameters: np.ndarray
    model_spec: ModelSpec
    input_dim: int

    def __post_init__(self):
        expected = parameter_count(self.model_spec, self.input_dim)
        if self.parameters.shape != (expected,):
            raise ValueError(
                f"parameter vector has shape {self.parameters.shape}, expected ({expected},)"
            )


def parameter_count(model_spec: ModelSpec, input_dim: int) -> int:
    if input_dim < 1:
        raise ValueError("input_dim must be at least 1")
    if model_spec.arch == "linear":
        return input_dim + 1
    h = model_spec.hidden_units
    return h * input_dim + h + h + 1


def initial_parameters(model_spec: ModelSpec, input_dim: int, train_spec: TrainSpec) -> np.ndarray:
    """Gaussian init, drawn sequentially in parameter-vector order."""
    rng = Xoshiro256StarStar(train_spec.seed)
    n = parameter_count(model_spec, input_dim)
    return train_spec.init_scale * rng.normals(n)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """Logistic function, computed in place in the fresh array z.

    Clipping to +-708 keeps exp() inside float range; the result saturates
    to exactly 0.0 / 1.0 well before the clip matters. The max/min pair is
    np.clip (NaN included) without its dispatch cost, which counts on the
    per-batch path.
    """
    np.maximum(z, -708.0, out=z)
    np.minimum(z, 708.0, out=z)
    np.negative(z, out=z)
    np.exp(z, out=z)
    z += 1.0
    return np.divide(1.0, z, out=z)


def _layers(vector: np.ndarray, model_spec: ModelSpec, d: int):
    """Views (W1, b1, w, b) of a flat parameter or gradient vector; b has length 1.

    The mlp's layout is [W1 row-major (h, d), b1 (h), w (h), b]. The linear
    model is its output head applied to the d features: [w (d), b], with no W1, b1.
    """
    if model_spec.arch == "linear":
        return None, None, vector[:d], vector[d:]
    h, hd = model_spec.hidden_units, model_spec.hidden_units * d
    return vector[:hd].reshape(h, d), vector[hd : hd + h], vector[hd + h : -1], vector[-1:]


def _forward_parts(params: np.ndarray, model_spec: ModelSpec, x: np.ndarray):
    """p1 for a feature matrix, plus the head's input, which the backward pass needs."""
    w1, b1, w, b = _layers(params, model_spec, x.shape[1])
    hidden = x if w1 is None else np.tanh(x @ w1.T + b1)
    return _sigmoid(hidden @ w + b[0]), hidden


def forward_p1(model: "TrainedModel", features: np.ndarray) -> np.ndarray:
    """Positive-class probabilities for a feature matrix (n, d)."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[1] != model.input_dim:
        raise ValueError(f"features must be (n, {model.input_dim})")
    p1, _ = _forward_parts(model.parameters, model.model_spec, features)
    return p1


def forward(model: "TrainedModel", features) -> ProbPair:
    """Predicted distribution for a single feature vector."""
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 1 or x.shape[0] != model.input_dim:
        raise ValueError(f"expected a feature vector of length {model.input_dim}")
    p1 = float(forward_p1(model, x[None, :])[0])
    return ProbPair(1.0 - p1, p1)


def _backward(
    params: np.ndarray, model_spec: ModelSpec, x: np.ndarray, hidden: np.ndarray, dz: np.ndarray
) -> np.ndarray:
    """Parameter gradient given dz = dL/d(pre-sigmoid logit) per example."""
    grad = np.empty(params.shape)
    d = x.shape[1]
    g_w1, g_b1, g_w, g_b = _layers(grad, model_spec, d)
    np.matmul(hidden.T, dz, out=g_w)
    g_b[0] = dz.sum()
    if g_w1 is not None:
        w = _layers(params, model_spec, d)[2]
        d_hidden = np.outer(dz, w) * (1.0 - hidden * hidden)
        np.matmul(d_hidden.T, x, out=g_w1)
        d_hidden.sum(axis=0, out=g_b1)
    return grad


def loss_and_param_grad(
    params: np.ndarray,
    model_spec: ModelSpec,
    x: np.ndarray,
    y1: np.ndarray,
    loss_spec: LossSpec,
    class_weights: tuple[float, float] | None = None,
) -> tuple[float, np.ndarray]:
    """Batch loss and its analytic gradient in the flat parameter vector.

    The bias gradient (the last entry in both layouts) is the sum of dz, so
    it is non-finite whenever any example's gradient is.
    """
    p1, hidden = _forward_parts(params, model_spec, x)
    value, dvalue_dp1 = losses.batch_value_grad(loss_spec, p1, y1, class_weights)
    dz = dvalue_dp1 * p1 * (1.0 - p1)
    return value, _backward(params, model_spec, x, hidden, dz)


def train(
    data: LabeledBatch,
    loss_spec: LossSpec,
    model_spec: ModelSpec = ModelSpec(),
    train_spec: TrainSpec = TrainSpec(),
) -> TrainedModel:
    """Run mini-batch SGD and return the trained parameters; `evaluate` scores them."""
    x = np.ascontiguousarray(data.features, dtype=np.float64)
    y1 = data.labels.astype(np.float64)
    n = x.shape[0]
    if n == 0:
        raise ValueError("training data is empty")
    input_dim = x.shape[1]

    class_weights = losses.class_weights(loss_spec, data.n_positive, data.n_negative)

    params = initial_parameters(model_spec, input_dim, train_spec)
    lr = train_spec.learning_rate
    batch = train_spec.batch_size

    for epoch in range(train_spec.epochs):
        order = permutation(splitmix64_at(train_spec.seed, _EPOCH_STREAM_OFFSET + epoch), n)
        xs = x[order]
        ys = y1[order]
        for start in range(0, n, batch):
            xb = xs[start : start + batch]
            yb = ys[start : start + batch]
            value, grad = loss_and_param_grad(params, model_spec, xb, yb, loss_spec, class_weights)
            if not (math.isfinite(value) and math.isfinite(grad[-1])):
                raise TrainingDivergedError(
                    f"{loss_spec.kind.value}: non-finite loss {value!r} or bias gradient "
                    f"{float(grad[-1])!r} at epoch {epoch}, batch starting at {start}"
                )
            params -= lr * grad

    return TrainedModel(params, model_spec, input_dim)


def evaluate(model: TrainedModel, data: LabeledBatch, threshold: float = 0.5) -> metrics.ClassifierMetrics:
    """Hard-decision metrics of a model on a batch at the given threshold."""
    metrics.check_threshold(threshold)
    p1 = forward_p1(model, data.features)
    preds = (p1 > threshold).astype(np.int64)
    return metrics.binary_metrics(preds, data.labels)
