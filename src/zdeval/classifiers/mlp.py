"""Two-hidden-layer ReLU perceptron trained with mini-batch SGD.

Forward pass: h1 = relu(x W1 + b1), h2 = relu(h1 W2 + b2),
score = sigmoid(h2 W3 + b3). Training minimizes mean binary cross-entropy;
gradients come from plain backpropagation. The cross-entropy is evaluated in
its logit form, so large magnitudes cannot overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class MlpConfig:
    learning_rate: float = 0.01
    batch_size: int = 256
    epochs: int = 30
    hidden_units: tuple[int, int] = (100, 100)

    def __post_init__(self) -> None:
        rate = self.learning_rate
        if isinstance(rate, bool) or not isinstance(rate, (int, float)) or not math.isfinite(rate):
            raise ValueError(f"learning_rate must be a finite number, got {rate!r}")
        if rate < 0:
            raise ValueError(f"learning_rate must be >= 0, got {rate}")
        for name, least in (("batch_size", 1), ("epochs", 0)):
            value = getattr(self, name)
            if not _is_int(value):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < least:
                raise ValueError(f"{name} must be >= {least}, got {value}")
        units = self.hidden_units
        if not isinstance(units, (tuple, list)) or len(units) != 2 or not all(map(_is_int, units)):
            raise ValueError(f"hidden_units must be two integers, got {units!r}")
        if any(h < 1 for h in units):
            raise ValueError(f"hidden_units must be positive, got {units}")


def _is_int(value) -> bool:
    # bool is an int subclass, but True is not a layer width or an epoch count
    return isinstance(value, int) and not isinstance(value, bool)


_PARAMETERS = ("w1", "b1", "w2", "b2", "w3", "b3")


@dataclass(eq=False)
class MlpModel:
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    w3: np.ndarray
    b3: np.ndarray
    loss_history: list[float] = field(default_factory=list)

    @property
    def n_features(self) -> int:
        return self.w1.shape[0]

    def parameters(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in _PARAMETERS}


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def mlp_init(d: int, seed: int, hidden_units: tuple[int, int] = (100, 100)) -> MlpModel:
    """Glorot-uniform weights, zero biases; deterministic per seed."""
    if d < 1:
        raise ValueError(f"input dimensionality must be >= 1, got {d}")
    h1, h2 = hidden_units
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    return MlpModel(
        w1=_glorot(rng, d, h1),
        b1=np.zeros(h1),
        w2=_glorot(rng, h1, h2),
        b2=np.zeros(h2),
        w3=_glorot(rng, h2, 1),
        b3=np.zeros(1),
    )


def _forward(model: MlpModel, X: np.ndarray):
    z1 = X @ model.w1 + model.b1
    h1 = np.maximum(z1, 0.0)
    z2 = h1 @ model.w2 + model.b2
    h2 = np.maximum(z2, 0.0)
    z3 = (h2 @ model.w3 + model.b3).ravel()
    return z1, h1, z2, h2, z3


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _bce(z: np.ndarray, y: np.ndarray) -> float:
    """Mean binary cross-entropy from logits: max(z,0) - z*y + log(1+e^-|z|)."""
    return float(np.mean(np.maximum(z, 0.0) - z * y + np.log1p(np.exp(-np.abs(z)))))


def mlp_score(model: MlpModel, X: np.ndarray) -> np.ndarray:
    """Attack scores in (0, 1) for a batch of rows."""
    # row order, as a batch in training: a column-contiguous X would take another BLAS path
    X = np.ascontiguousarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.n_features:
        raise ValueError(
            f"feature dimensionality mismatch: model expects {model.n_features}, "
            f"got {X.shape[1] if X.ndim == 2 else 'non-matrix input'}"
        )
    if X.size and not np.isfinite(X).all():
        raise ValueError("input contains non-finite values")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is caught just below
        logits = _forward(model, X)[4]
    # finite weights and inputs give a non-finite logit only by overflow: its
    # sigmoid would be a confident 0 or 1 (or NaN) that no training earned
    if not np.isfinite(logits).all():
        raise ValueError("non-finite output logit: the forward pass overflowed")
    return _sigmoid(logits)


def mlp_loss_and_grads(model: MlpModel, X: np.ndarray, y: np.ndarray):
    """Mean BCE loss and its gradients w.r.t. every parameter.

    Exposed separately from the trainer so the backward pass can be checked
    against finite differences.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = X.shape[0]
    z1, h1, z2, h2, z3 = _forward(model, X)
    loss = _bce(z3, y)

    dz3 = (_sigmoid(z3) - y) / n  # (n,)
    dw3 = h2.T @ dz3[:, None]
    db3 = np.array([dz3.sum()])
    dh2 = dz3[:, None] @ model.w3.T
    dz2 = dh2 * (z2 > 0)
    dw2 = h1.T @ dz2
    db2 = dz2.sum(axis=0)
    dh1 = dz2 @ model.w2.T
    dz1 = dh1 * (z1 > 0)
    dw1 = X.T @ dz1
    db1 = dz1.sum(axis=0)
    grads = {"w1": dw1, "b1": db1, "w2": dw2, "b2": db2, "w3": dw3, "b3": db3}
    return loss, grads


def mlp_train(X: np.ndarray, y: np.ndarray, cfg: MlpConfig, seed: int) -> MlpModel:
    """Mini-batch SGD on mean binary cross-entropy.

    Rows are reshuffled every epoch with the model's own generator, so a
    fixed (X, y, cfg, seed) reproduces the exact parameter trajectory. The
    model's `loss_history` records each epoch's training loss: the mean of
    its batch losses, each taken before its batch's update, weighted by the
    batch's rows. It is not the loss of the epoch's final weights, which
    would cost one more forward pass over X per epoch.
    Raises if the loss or any parameter stops being finite, naming the
    offending epoch and batch.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] < 1:
        raise ValueError("training data must be a nonempty 2-D matrix")
    if y.shape[0] != X.shape[0]:
        raise ValueError(f"label count {y.shape[0]} does not match row count {X.shape[0]}")

    n = X.shape[0]
    # separate stream from the init draws, same master seed
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(1,)))
    model = mlp_init(X.shape[1], seed, cfg.hidden_units)
    params = model.parameters()
    with np.errstate(over="ignore", invalid="ignore"):  # the checks below name where a run diverged
        for epoch in range(cfg.epochs):
            order = rng.permutation(n)
            total = 0.0
            for batch_no, start in enumerate(range(0, n, cfg.batch_size)):
                rows = order[start : start + cfg.batch_size]
                loss, grads = mlp_loss_and_grads(model, X[rows], y[rows])
                if not np.isfinite(loss):
                    raise ValueError(f"non-finite training loss at epoch {epoch}, batch {batch_no}")
                total += loss * len(rows)
                for name, grad in grads.items():
                    params[name] -= cfg.learning_rate * grad
                    if not np.isfinite(params[name]).all():
                        raise ValueError(f"non-finite parameter {name!r} at epoch {epoch}, batch {batch_no}")
            model.loss_history.append(total / n)
    return model


def mlp_to_json(model: MlpModel) -> dict:
    return {
        "format": "zdeval-model",
        "version": 1,
        "kind": "mlp",
        "weights": {k: v.tolist() for k, v in model.parameters().items()},
        "loss_history": list(model.loss_history),
    }


def mlp_from_json(obj: dict) -> MlpModel:
    """Load a saved model, rejecting a document that could not score rows.

    Each layer's weight matrix must take the previous layer's width, its bias
    must match the matrix's width, the last layer must have one unit, and
    every parameter must be finite.
    """
    if obj.get("kind") != "mlp":
        raise ValueError(f"not an mlp model document: kind={obj.get('kind')!r}")
    if obj.get("version") != 1:
        raise ValueError(f"unsupported mlp model version {obj.get('version')!r}; expected 1")
    weights = obj["weights"]
    missing = [name for name in _PARAMETERS if name not in weights]
    if missing:
        raise ValueError(f"malformed mlp: missing parameter {missing[0]!r}")
    w = {name: np.asarray(weights[name], dtype=np.float64) for name in _PARAMETERS}
    width = None
    for layer in ("1", "2", "3"):
        weight, bias = w["w" + layer], w["b" + layer]
        if weight.ndim != 2:
            raise ValueError(f"malformed mlp: w{layer} has shape {weight.shape}; expected a matrix")
        if width is not None and weight.shape[0] != width:
            raise ValueError(f"malformed mlp: w{layer} has {weight.shape[0]} rows; the layer before has {width} units")
        width = weight.shape[1]
        if bias.shape != (width,):
            raise ValueError(f"malformed mlp: b{layer} has shape {bias.shape}; expected ({width},)")
    if width != 1:
        raise ValueError(f"malformed mlp: the output layer has {width} units; expected 1")
    for name, value in w.items():
        if not np.isfinite(value).all():
            raise ValueError(f"malformed mlp: {name} holds a non-finite value")
    return MlpModel(**w, loss_history=[float(v) for v in obj.get("loss_history", [])])
