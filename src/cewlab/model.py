"""Small feedforward regressor of negativity, trained with Adam and early stopping.

Layer layout is fixed at [B, 32, 16, 1] by init(); the forward/backward
code itself handles any chain of ReLU hidden layers with an affine output,
which keeps toy nets testable by hand.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .dataset import Dataset
from .errors import (DimensionMismatch, DivergedTraining, EmptyDataset, FormatError,
                     ModelMismatch, TooFewRecords)
from .qlinalg import make_rng, standard_normals

HIDDEN_SIZES = (32, 16)

# RNG stream ids far above any dataset draw index, so a shared seed never
# reuses dataset randomness for weights or shuffling.
_INIT_STREAM = 1 << 62
_SHUFFLE_STREAM = (1 << 62) + 1

# Adam's moment decay rates and denominator guard (Kingma & Ba's defaults)
BETA1 = 0.9
BETA2 = 0.999
EPSILON = 1e-8


@dataclass
class TrainConfig:
    learning_rate: float = 1e-3
    batch_size: int = 256
    max_epochs: int = 200
    patience: int = 5
    seed: int = 0


@dataclass
class Mlp:
    weights: list[np.ndarray]  # per layer, shape (fan_in, fan_out)
    biases: list[np.ndarray]  # per layer, shape (fan_out,)
    meta: dict = field(default_factory=dict)

    @property
    def layer_sizes(self) -> list[int]:
        return [self.weights[0].shape[0]] + [w.shape[1] for w in self.weights]

    @property
    def input_dim(self) -> int:
        return self.weights[0].shape[0]


@dataclass
class TrainResult:
    model: Mlp
    epochs_run: int
    best_epoch: int
    best_val_mse: float
    steps: int  # Adam updates, one per mini-batch


class EarlyStopper:
    """Track the running best; stop after `patience` epochs without improvement."""

    def __init__(self, patience: int):
        if patience < 1:
            raise ValueError("patience must be at least 1")
        self.patience = patience
        self.best = np.inf
        self.best_index = 0
        self.bad = 0
        self.index = 0

    def update(self, value: float) -> bool:
        """Record one epoch's monitored value; True means stop now."""
        self.index += 1
        if value < self.best:
            self.best = value
            self.best_index = self.index
            self.bad = 0
        else:
            self.bad += 1
        return self.bad >= self.patience


def init_mlp(input_dim: int, cfg: TrainConfig) -> Mlp:
    """He-scaled normal weights, zero biases, deterministic in cfg.seed."""
    if input_dim < 1:
        raise ValueError("input_dim must be at least 1")
    rng = make_rng(cfg.seed, _INIT_STREAM)
    sizes = (input_dim, *HIDDEN_SIZES, 1)
    weights = []
    biases = []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        scale = np.sqrt(2.0 / fan_in)
        weights.append(standard_normals(rng, (fan_in, fan_out)) * scale)
        biases.append(np.zeros(fan_out))
    return Mlp(weights, biases, {"seed": cfg.seed})


def _forward_batch(m: Mlp, x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Outputs (n,) of a batch and every layer's input: x, then each hidden activation."""
    acts = [x]
    for w, b in zip(m.weights[:-1], m.biases[:-1]):
        acts.append(np.maximum(acts[-1] @ w + b, 0.0))
    return (acts[-1] @ m.weights[-1] + m.biases[-1])[:, 0], acts


def forward(m: Mlp, x: np.ndarray) -> np.ndarray:
    """Model outputs (n,) of a batch (n, B) of feature vectors."""
    if x.ndim != 2 or x.shape[1] != m.input_dim:
        raise DimensionMismatch(
            f"model expects {m.input_dim} features, got shape {x.shape}")
    return _forward_batch(m, x)[0]


def predict_negativity(m: Mlp, features: np.ndarray) -> np.ndarray:
    """Forward pass of a batch (n, B), clamped to the physical range [0, 0.5].

    Finite weights may still overflow: an infinite output is clamped like any
    large one, and a NaN one is left for the caller to refuse (roc_curve
    does), so numpy's overflow warnings would only repeat that refusal.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        out = forward(m, features)
    return np.clip(out, 0.0, 0.5)


def gradient(m: Mlp, x: np.ndarray, y: np.ndarray):
    """Analytic gradient of the batch MSE; returns (weight grads, bias grads, mse)."""
    if len(x) == 0:
        raise EmptyDataset("gradient needs a non-empty batch")
    if x.shape[1] != m.input_dim:
        raise DimensionMismatch(
            f"model expects {m.input_dim} features, got shape {x.shape}")
    out, acts = _forward_batch(m, x)
    err = out - y
    mse = float(np.mean(err**2))

    grads_w = [np.empty(0)] * len(m.weights)
    grads_b = [np.empty(0)] * len(m.biases)
    delta = (2.0 * err / len(y))[:, None]
    grads_w[-1] = acts[-1].T @ delta
    grads_b[-1] = delta.sum(axis=0)
    for layer in range(len(m.weights) - 2, -1, -1):
        # a ReLU output is positive exactly where its input was
        delta = (delta @ m.weights[layer + 1].T) * (acts[layer + 1] > 0.0)
        grads_w[layer] = acts[layer].T @ delta
        grads_b[layer] = delta.sum(axis=0)
    return grads_w, grads_b, mse


def _layer_views(flat: np.ndarray, shapes) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Weights and biases as reshaped views of `flat`, in the order of `shapes`."""
    ends = np.cumsum([np.prod(shape) for shape in shapes])
    views = [part.reshape(shape) for part, shape in zip(np.split(flat, ends[:-1]), shapes)]
    half = len(shapes) // 2
    return views[:half], views[half:]


def train(m: Mlp, train_ds: Dataset, val_ds: Dataset, cfg: TrainConfig,
          on_epoch=None) -> TrainResult:
    """Mini-batch Adam on MSE; returns the best-validation-epoch snapshot.

    Deterministic given cfg.seed: shuffling uses a dedicated stream and
    every reduction has a fixed order. `on_epoch(epoch, train_mse, val_mse)`
    is called after each epoch when given. Datasets of two presets raise
    ModelMismatch. The model's meta records the preset's kind, name and pairs.
    """
    preset = train_ds.preset
    if preset != val_ds.preset:
        raise ModelMismatch(f"preset mismatch: train has {preset.name} ({preset.kind.value}), "
                            f"validation has {val_ds.preset.name} ({val_ds.kind.value})")
    x_train, y_train = train_ds.features, train_ds.negativities
    x_val, y_val = val_ds.features, val_ds.negativities
    n = len(x_train)
    if n == 0 or len(x_val) == 0:
        raise EmptyDataset("training and validation sets must be non-empty")
    if x_train.shape[1] != m.input_dim or x_val.shape[1] != m.input_dim:
        raise DimensionMismatch(
            f"model expects {m.input_dim} features, got {x_train.shape[1]} train / {x_val.shape[1]} val")
    if cfg.batch_size < 1:
        raise ValueError("batch_size must be at least 1")
    if cfg.batch_size > n:
        raise TooFewRecords(f"batch_size {cfg.batch_size} exceeds the {n} training records")
    if cfg.max_epochs < 1:
        raise ValueError("max_epochs must be at least 1")
    if not 0.0 < cfg.learning_rate < np.inf:  # false for NaN too
        raise ValueError(f"learning_rate must be a positive finite number, "
                         f"got {cfg.learning_rate}")

    rng = make_rng(cfg.seed, _SHUFFLE_STREAM)
    # weights then biases, in layer order, as views of one flat buffer: an
    # Adam step is then one elementwise update, with the same bits per entry
    # as a per-array update
    arrays = (*m.weights, *m.biases)
    shapes = [a.shape for a in arrays]
    params = np.concatenate([a.ravel() for a in arrays], dtype=float)
    m.weights, m.biases = _layer_views(params, shapes)
    mom1 = np.zeros_like(params)
    mom2 = np.zeros_like(params)
    step = 0
    stopper = EarlyStopper(cfg.patience)
    best_params = params.copy()

    for epoch in range(1, cfg.max_epochs + 1):
        perm = rng.permutation(n)
        sq_err_sum = 0.0
        for lo in range(0, n, cfg.batch_size):
            batch = perm[lo: lo + cfg.batch_size]
            grads_w, grads_b, mse = gradient(m, x_train[batch], y_train[batch])
            if not np.isfinite(mse):
                raise DivergedTraining(f"training loss became non-finite at epoch {epoch}")
            sq_err_sum += mse * len(batch)
            step += 1
            corr1 = 1.0 - BETA1**step
            corr2 = 1.0 - BETA2**step
            g = np.concatenate([a.ravel() for a in (*grads_w, *grads_b)])
            mom1 = BETA1 * mom1 + (1.0 - BETA1) * g
            mom2 = BETA2 * mom2 + (1.0 - BETA2) * g * g
            params -= cfg.learning_rate * (mom1 / corr1) / (np.sqrt(mom2 / corr2) + EPSILON)
        train_mse = sq_err_sum / n
        val_mse = float(np.mean((_forward_batch(m, x_val)[0] - y_val) ** 2))
        if not np.isfinite(val_mse):
            raise DivergedTraining(f"validation loss became non-finite at epoch {epoch}")
        should_stop = stopper.update(val_mse)
        if stopper.best_index == epoch:
            best_params = params.copy()
        if on_epoch is not None:
            on_epoch(epoch, train_mse, val_mse)
        if should_stop:
            break

    m.weights, m.biases = _layer_views(best_params, shapes)
    # eval refuses test data whose kind or pairs differ from these
    # max_epochs >= 1, so the loop ran and `epoch` is the last epoch run
    m.meta.update({
        "kind": preset.kind.value,
        "preset": preset.name,
        "pairs": [list(p) for p in preset.pairs],
        "seed": cfg.seed,
        "epochs_run": epoch,
        "val_mse": stopper.best,
    })
    return TrainResult(m, epoch, stopper.best_index, stopper.best, step)


def save_model(m: Mlp, path: str) -> None:
    doc = {
        "layer_sizes": m.layer_sizes,
        "activation": "relu",
        "output": "affine",
        "weights": [w.tolist() for w in m.weights],
        "biases": [b.tolist() for b in m.biases],
        "meta": m.meta,
    }
    with open(path, "w", newline="\n") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def load_model(path: str) -> Mlp:
    try:
        with open(path) as fh:
            doc = json.load(fh)
        sizes = list(doc["layer_sizes"])
        layout = (doc["activation"], doc["output"])
        weights = [np.array(w, dtype=float) for w in doc["weights"]]
        biases = [np.array(b, dtype=float) for b in doc["biases"]]
        meta = dict(doc.get("meta", {}))
    except (json.JSONDecodeError, KeyError, ValueError, TypeError) as exc:
        raise FormatError(f"{path}: {exc}") from exc
    # the only net save_model writes and forward computes
    if layout != ("relu", "affine"):
        raise FormatError(f"{path}: activation {layout[0]!r} with output {layout[1]!r} "
                          "is not relu with an affine output")
    if len(sizes) < 2 or sizes[-1] != 1:
        raise FormatError(f"{path}: layer_sizes {sizes} is not one or more layers "
                          "ending in one output")
    if len(weights) != len(sizes) - 1 or len(biases) != len(weights):
        raise FormatError(f"{path}: layer counts are inconsistent")
    for i, (w, b) in enumerate(zip(weights, biases)):
        if w.shape != (sizes[i], sizes[i + 1]) or b.shape != (sizes[i + 1],):
            raise FormatError(f"{path}: layer {i} shapes do not match layer_sizes")
    if not all(np.isfinite(a).all() for a in (*weights, *biases)):
        raise FormatError(f"{path}: a weight or bias is NaN or infinite")
    return Mlp(weights, biases, meta)
