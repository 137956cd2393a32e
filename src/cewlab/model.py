"""Small feedforward regressor of negativity, trained with Adam and early stopping.

Layer layout is fixed at [B, 32, 16, 1] by init(); the forward/backward
code itself handles any chain of ReLU hidden layers with an affine output,
which keeps toy nets testable by hand. Nets that differ only in their input
width run as one stack (train_many trains them in lockstep); a single net is
a stack of one.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .dataset import Dataset, _write_json, restrict
from .errors import (DimensionMismatch, DivergedTraining, EmptyDataset, FormatError,
                     ModelMismatch, TooFewRecords)
from .qlinalg import philox_raw, philox_uniforms

HIDDEN_SIZES = (32, 16)

# RNG streams in two reserved ranges far above any dataset draw index, so a
# shared seed never reuses dataset randomness: inits take [2**62, 2**62 +
# 2**61) from _INIT_STREAM up, epoch e's shuffle takes _SHUFFLE_STREAM + e
# in [2**62 + 2**61, 2**63).
_INIT_STREAM = 1 << 62
_SHUFFLE_STREAM = (1 << 62) + (1 << 61)

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


def init_mlp(input_dim: int, cfg: TrainConfig) -> Mlp:
    """He-scaled normal weights, zero biases, deterministic in cfg.seed.

    The normals are Box-Muller on stream _INIT_STREAM's uniforms: each
    layer in turn takes a block of u1 and then one of u2.
    """
    if input_dim < 1:
        raise ValueError("input_dim must be at least 1")
    sizes = (input_dim, *HIDDEN_SIZES, 1)
    shapes = list(zip(sizes[:-1], sizes[1:]))
    u = philox_uniforms(cfg.seed, [_INIT_STREAM], 2 * sum(i * o for i, o in shapes))[0]
    weights, lo = [], 0
    for fan_in, fan_out in shapes:
        u1, u2 = u[lo:lo + 2 * fan_in * fan_out].reshape(2, fan_in, fan_out)
        lo += 2 * fan_in * fan_out
        normals = np.sqrt(-2.0 * np.log(1.0 - u1)) * np.cos(2.0 * np.pi * u2)  # 1 - u1 in (0, 1]
        weights.append(normals * np.sqrt(2.0 / fan_in))
    return Mlp(weights, [np.zeros(o) for o in sizes[1:]], {"seed": cfg.seed})


def _shuffle(seed: int, epoch: int, n: int) -> np.ndarray:
    """Epoch `epoch`'s order of n records, from stream _SHUFFLE_STREAM + epoch.

    Record i's key is the stream's i-th word with its low b bits replaced
    by i, b = max(1, (n - 1).bit_length()) being enough bits for any index,
    and the records go in ascending key order. The keys are distinct,
    so every sort gives the same order, and records whose words agree above
    those bits keep index order.
    """
    b = max(1, (n - 1).bit_length())
    keys = philox_raw(seed, [_SHUFFLE_STREAM + epoch], n)[0] >> b << b
    keys |= np.arange(n, dtype=np.uint64)
    keys.sort()
    return (keys & ((1 << b) - 1)).astype(np.intp)


class _Stack:
    """The parameters (or gradients, or Adam moments) of P nets in one flat buffer.

    The nets differ only in their input width. Each member's first-layer
    weights are its own (B_p, h) view; every later layer's weights are one
    (P, fan_in, fan_out) stack and every layer's biases one (P, fan_out)
    stack, all views of `flat`. A later layer is then one stacked product
    for all members, which numpy runs as one BLAS call per member with the
    strides of that member's own matrices, and an elementwise update of
    `flat` gives every entry the bits of a per-array update.
    """

    def __init__(self, dims: list[int], sizes: list[int], members=None):
        count = len(dims)
        shapes = ([(b, sizes[0]) for b in dims]
                  + [(count, i, o) for i, o in zip(sizes[:-1], sizes[1:])]
                  + [(count, o) for o in sizes])
        self.dims, self.sizes = dims, sizes
        ends = np.cumsum([math.prod(s) for s in shapes])
        self.flat = np.zeros(ends[-1])
        views = [part.reshape(s) for part, s in zip(np.split(self.flat, ends[:-1]), shapes)]
        self.first = views[:count]
        self.later = views[count:count + len(sizes) - 1]
        self.biases = views[count + len(sizes) - 1:]
        for p, arrays in enumerate(members or ()):
            for dst, src in zip(self.member(p), arrays):
                dst[...] = src

    def member(self, p: int) -> tuple[np.ndarray, ...]:
        """Member p's arrays in model order: weights, then biases, by layer."""
        return (self.first[p], *(a[p] for a in (*self.later, *self.biases)))

    def restack(self, keep: list[int]) -> _Stack:
        """A new stack of the members `keep`, in that order."""
        return _Stack([self.dims[p] for p in keep], self.sizes, [self.member(p) for p in keep])


class _Buffers:
    """Every temporary of a lockstep pass over `rows` records, allocated once.

    With `backward`, also the gathered batch and what the gradient needs.
    """

    def __init__(self, dims: list[int], sizes: list[int], rows: int, backward: bool = False):
        count = len(dims)
        self.outs = [np.empty((count, rows, s)) for s in sizes]  # every layer's output
        self.err = np.empty((count, rows))
        self.sq = np.empty((count, rows))
        self.mse = np.empty(count)
        if backward:
            self.x = [np.empty((rows, b)) for b in dims]
            self.y = np.empty(rows)
            self.deltas = [np.empty((count, rows, s)) for s in sizes]
            self.masks = [np.empty((count, rows, s), dtype=bool) for s in sizes[:-1]]


class _Work:
    """Every temporary of a lockstep group's steps and validation, allocated once."""

    def __init__(self, dims: list[int], sizes: list[int], batch_rows, val_rows: int):
        self.grad = _Stack(dims, sizes)
        self.tmp = np.empty_like(self.grad.flat)  # Adam's temporary
        self.batches = {rows: _Buffers(dims, sizes, rows, backward=True) for rows in batch_rows}
        self.val = _Buffers(dims, sizes, val_rows)


def _forward_stack(net: _Stack, xs, buf: _Buffers) -> np.ndarray:
    """Outputs (P, n) of each member's batch xs[p] (n, B_p); every layer's output stays in buf."""
    outs = buf.outs
    for x, w, z in zip(xs, net.first, outs[0]):
        np.matmul(x, w, out=z)
    for layer, z in enumerate(outs):
        z += net.biases[layer][:, None]
        if layer + 1 < len(outs):
            np.maximum(z, 0.0, out=z)
            np.matmul(z, net.later[layer], out=outs[layer + 1])
    return outs[-1][:, :, 0]


def _mse_stack(out: np.ndarray, y: np.ndarray, buf: _Buffers) -> np.ndarray:
    """Each member's mean squared error (P,) of outputs (P, n) against targets (n,)."""
    np.subtract(out, y, out=buf.err)
    np.multiply(buf.err, buf.err, out=buf.sq)
    np.add.reduce(buf.sq, axis=1, out=buf.mse)
    buf.mse /= len(y)
    return buf.mse


def _gradient_stack(net: _Stack, grad: _Stack, xs, y: np.ndarray, buf: _Buffers) -> np.ndarray:
    """Each member's batch-MSE gradient, written into grad; returns the MSEs (P,)."""
    mse = _mse_stack(_forward_stack(net, xs, buf), y, buf)
    np.multiply(buf.err, 2.0, out=buf.deltas[-1][:, :, 0])
    buf.deltas[-1] /= len(y)
    for layer in range(len(buf.deltas) - 1, -1, -1):
        delta = buf.deltas[layer]
        np.add.reduce(delta, axis=1, out=grad.biases[layer])
        if layer == 0:
            for x, d, g in zip(xs, delta, grad.first):
                np.matmul(x.T, d, out=g)
            break
        act = buf.outs[layer - 1]
        np.matmul(act.transpose(0, 2, 1), delta, out=grad.later[layer - 1])
        below = buf.deltas[layer - 1]
        np.matmul(delta, net.later[layer - 1].transpose(0, 2, 1), out=below)
        # a ReLU output is positive exactly where its input was
        np.greater(act, 0.0, out=buf.masks[layer - 1])
        np.multiply(below, buf.masks[layer - 1], out=below)
    return mse


def forward(m: Mlp, x: np.ndarray) -> np.ndarray:
    """Model outputs (n,) of a batch (n, B) of feature vectors."""
    if x.ndim != 2 or x.shape[1] != m.input_dim:
        raise DimensionMismatch(
            f"model expects {m.input_dim} features, got shape {x.shape}")
    dims, sizes = [m.input_dim], m.layer_sizes[1:]
    net = _Stack(dims, sizes, [(*m.weights, *m.biases)])
    return _forward_stack(net, [x], _Buffers(dims, sizes, len(x)))[0]


def predict_negativity(m: Mlp, features: np.ndarray) -> np.ndarray:
    """Forward pass of a batch (n, B), clamped to the physical range [0, 0.5].

    Finite weights may still overflow: an infinite output is clamped like any
    large one, and a NaN one is left for the caller to refuse (roc_curve
    does), so numpy's overflow warnings would only repeat that refusal.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        out = forward(m, features)
    return np.clip(out, 0.0, 0.5)


def _check_splits(train_ds: Dataset, val_ds: Dataset, cfg: TrainConfig) -> None:
    preset = train_ds.preset
    if preset != val_ds.preset:
        raise ModelMismatch(f"preset mismatch: train has {preset.name} ({preset.kind.value}), "
                            f"validation has {val_ds.preset.name} ({val_ds.kind.value})")
    n = len(train_ds.features)
    if n == 0 or len(val_ds.features) == 0:
        raise EmptyDataset("training and validation sets must be non-empty")
    if cfg.batch_size < 1:
        raise ValueError("batch_size must be at least 1")
    if cfg.batch_size > n:
        raise TooFewRecords(f"batch_size {cfg.batch_size} exceeds the {n} training records")
    if cfg.max_epochs < 1:
        raise ValueError("max_epochs must be at least 1")
    if cfg.patience < 1:
        raise ValueError("patience must be at least 1")
    if not 0.0 < cfg.learning_rate < np.inf:  # false for NaN too
        raise ValueError(f"learning_rate must be a positive finite number, "
                         f"got {cfg.learning_rate}")


def _adam_step(params: np.ndarray, grad: np.ndarray, mom1: np.ndarray, mom2: np.ndarray,
               tmp: np.ndarray, step: int, learning_rate: float) -> None:
    """One Adam update of `params` in place, with the bits of

        mom1 = BETA1 * mom1 + (1 - BETA1) * g
        mom2 = BETA2 * mom2 + (1 - BETA2) * g * g
        params -= lr * (mom1 / corr1) / (sqrt(mom2 / corr2) + EPSILON)

    (elementwise IEEE products and sums commute, so only the grouping matters).
    Once both moments are updated the gradient is dead, so `grad` is
    overwritten as the second temporary.
    """
    corr1 = 1.0 - BETA1**step
    corr2 = 1.0 - BETA2**step
    mom1 *= BETA1
    np.multiply(grad, 1.0 - BETA1, out=tmp)
    mom1 += tmp
    mom2 *= BETA2
    np.multiply(grad, 1.0 - BETA2, out=tmp)
    tmp *= grad
    mom2 += tmp
    np.divide(mom1, corr1, out=tmp)
    tmp *= learning_rate
    np.divide(mom2, corr2, out=grad)
    np.sqrt(grad, out=grad)
    grad += EPSILON
    tmp /= grad
    params -= tmp


@np.errstate(over="ignore", invalid="ignore")
def train_many(models: dict, train_ds: Dataset, val_ds: Dataset, cfg: TrainConfig,
               on_epoch=None) -> list[TrainResult]:
    """Train {preset: model} in lockstep on one split; returns each result, in mapping order.

    Each member trains on its preset's columns (restrict) of the same
    records, so all share one shuffle and one Adam step counter: each step
    is one stacked gradient of every member and one Adam update of one flat
    buffer. Each member's lowest validation MSE and its epoch are kept in
    two arrays; only a strictly lower MSE is an improvement, and a member
    stops `patience` epochs after its best one, or at `max_epochs`. A
    stopped member leaves the stack and the rest are re-stacked. Each
    member gets the bits train would give it alone.
    `on_epoch(index, epoch, train_mse, val_mse)` is called for each member
    still training after each epoch, `index` being its position in
    `models`. A diverging member raises
    DivergedTraining for the group, and numpy's overflow warnings, which
    would only repeat that, are off. A preset the split did not measure
    raises ValueError; a model whose width is not its preset's, or whose
    layers after the first differ from the others', DimensionMismatch.
    """
    if not models:
        raise ValueError("train_many needs at least one model")
    _check_splits(train_ds, val_ds, cfg)
    presets, models = list(models), list(models.values())
    # np.take copies a source that is not C-contiguous (load's column views)
    # whole before each gather, so the training arrays are made C-contiguous
    # once here (y_train too), which copies nothing that already is
    x_trains = [np.ascontiguousarray(restrict(train_ds, p).features) for p in presets]
    x_vals = [restrict(val_ds, p).features for p in presets]
    for preset, m, x in zip(presets, models, x_trains):
        if x.shape[1] != m.input_dim:
            raise DimensionMismatch(
                f"model expects {m.input_dim} features, preset {preset.name} has {x.shape[1]}")
    sizes = models[0].layer_sizes[1:]
    if any(m.layer_sizes[1:] != sizes for m in models):
        raise DimensionMismatch("lockstep members must share every layer after the first")

    y_train, y_val = np.ascontiguousarray(train_ds.negativities), val_ds.negativities
    n = len(y_train)
    active = list(range(len(models)))  # members still training, in stack order
    net = _Stack([m.input_dim for m in models], sizes, [(*m.weights, *m.biases) for m in models])
    mom1, mom2 = _Stack(net.dims, sizes), _Stack(net.dims, sizes)
    # each member's best epoch so far: its validation MSE, its index, and its
    # arrays in model order (_Stack.member)
    best_mse, best_epoch = np.full(len(models), np.inf), np.zeros(len(models), dtype=int)
    best = [[*m.weights, *m.biases] for m in models]
    results: list[TrainResult | None] = [None] * len(models)
    step = 0
    rows = {min(cfg.batch_size, n - lo) for lo in range(0, n, cfg.batch_size)}
    work = _Work(net.dims, sizes, rows, len(y_val))
    for epoch in range(1, cfg.max_epochs + 1):
        perm = _shuffle(cfg.seed, epoch, n)
        sq_err_sum = np.zeros(len(active))
        for lo in range(0, n, cfg.batch_size):
            batch = perm[lo: lo + cfg.batch_size]
            buf = work.batches[len(batch)]
            # a permutation's indices are in range; "clip" spares take's buffered copy
            np.take(y_train, batch, out=buf.y, mode="clip")
            for x, xb in zip(x_trains, buf.x):
                np.take(x, batch, axis=0, out=xb, mode="clip")
            mse = _gradient_stack(net, work.grad, buf.x, buf.y, buf)
            if not np.isfinite(mse).all():
                raise DivergedTraining(f"training loss became non-finite at epoch {epoch}")
            sq_err_sum += mse * len(batch)
            step += 1
            _adam_step(net.flat, work.grad.flat, mom1.flat, mom2.flat, work.tmp, step,
                       cfg.learning_rate)
        train_mse = sq_err_sum / n
        val_mse = _mse_stack(_forward_stack(net, x_vals, work.val), y_val, work.val)
        if not np.isfinite(val_mse).all():
            raise DivergedTraining(f"validation loss became non-finite at epoch {epoch}")
        keep = []
        for slot, i in enumerate(active):
            if val_mse[slot] < best_mse[i]:
                best_mse[i], best_epoch[i] = val_mse[slot], epoch
                best[i] = [a.copy() for a in net.member(slot)]
            if on_epoch is not None:
                on_epoch(i, epoch, float(train_mse[slot]), float(val_mse[slot]))
            if epoch - best_epoch[i] >= cfg.patience or epoch == cfg.max_epochs:
                results[i] = _finish(models[i], presets[i], best[i], cfg, epoch,
                                     int(best_epoch[i]), float(best_mse[i]), step)
            else:
                keep.append(slot)
        if not keep:
            break
        if len(keep) < len(active):
            active, x_trains, x_vals = ([a[slot] for slot in keep]
                                        for a in (active, x_trains, x_vals))
            net, mom1, mom2 = (s.restack(keep) for s in (net, mom1, mom2))
            work = _Work(net.dims, sizes, rows, len(y_val))
    return results


def _finish(m: Mlp, preset, best: list[np.ndarray], cfg: TrainConfig, epoch: int,
            best_epoch: int, best_mse: float, step: int) -> TrainResult:
    """Restore m's best epoch (its arrays in model order) and record its training in its meta."""
    m.weights, m.biases = best[:len(m.weights)], best[len(m.weights):]
    # eval refuses test data whose kind or pairs differ from these
    m.meta.update({
        "kind": preset.kind.value,
        "preset": preset.name,
        "pairs": [list(p) for p in preset.pairs],
        "seed": cfg.seed,
        "epochs_run": epoch,
        "val_mse": best_mse,
    })
    return TrainResult(m, epoch, best_epoch, best_mse, step)


def train(m: Mlp, train_ds: Dataset, val_ds: Dataset, cfg: TrainConfig,
          on_epoch=None) -> TrainResult:
    """Mini-batch Adam on MSE; returns the best-validation-epoch snapshot.

    Deterministic given cfg.seed: each epoch's shuffle draws its own stream
    and every reduction has a fixed order. `on_epoch(epoch, train_mse, val_mse)`
    is called after each epoch when given. Datasets of two presets raise
    ModelMismatch. The model's meta records the preset's kind, name and pairs.
    This is train_many with one member.
    """
    report = None if on_epoch is None else (lambda _, *row: on_epoch(*row))
    return train_many({train_ds.preset: m}, train_ds, val_ds, cfg, report)[0]


def save_model(m: Mlp, path: str) -> None:
    doc = {
        "layer_sizes": m.layer_sizes,
        "activation": "relu",
        "output": "affine",
        "weights": [w.tolist() for w in m.weights],
        "biases": [b.tolist() for b in m.biases],
        "meta": m.meta,
    }
    _write_json(doc, path)


def _floats(value) -> np.ndarray:
    """A nested JSON list of the floats save_model writes; refuses strings, booleans and ints."""
    cells = np.array(value, dtype=object)
    if not all(type(cell) is float for cell in cells.flat):
        raise ValueError("a weight or bias is not a JSON float")
    return cells.astype(float)


def load_model(path: str) -> Mlp:
    """The net save_model wrote to path; FormatError names what train cannot write.

    A file that cannot be opened raises its OSError. Refused first is a
    document save_model cannot write: JSON that does not decode, a missing
    or unknown key, a weight or bias that is not a JSON float, or a meta
    that is not an object. Then, in order: an activation and output other
    than relu and affine, a layer size that is not a JSON integer of at
    least 1, layer_sizes other than an input size followed by HIDDEN_SIZES
    and one output, weights or biases whose count or shapes disagree with
    layer_sizes, and a NaN or infinite weight or bias.
    """
    try:
        with open(path) as fh:
            doc = json.load(fh)
        sizes = list(doc["layer_sizes"])
        layout = (doc["activation"], doc["output"])
        weights = [_floats(w) for w in doc["weights"]]
        biases = [_floats(b) for b in doc["biases"]]
        meta = doc["meta"]
        if type(meta) is not dict:
            raise ValueError("meta is not a JSON object")
        # the keys save_model writes; meta's own keys are free
        extra = sorted(set(doc) - {"layer_sizes", "activation", "output", "weights", "biases",
                                   "meta"})
        if extra:
            raise ValueError(f"unknown key {extra[0]!r}")
    except (json.JSONDecodeError, KeyError, ValueError, TypeError) as exc:
        raise FormatError(f"{path}: {exc}") from exc
    # the only net save_model writes and forward computes
    if layout != ("relu", "affine"):
        raise FormatError(f"{path}: activation {layout[0]!r} with output {layout[1]!r} "
                          "is not relu with an affine output")
    if not all(type(s) is int and s >= 1 for s in sizes):  # True == 1 and 3.0 == 3
        raise FormatError(f"{path}: layer_sizes {sizes} holds a size that is not "
                          "a JSON integer of at least 1")
    if sizes[1:] != [*HIDDEN_SIZES, 1]:
        raise FormatError(f"{path}: layer_sizes {sizes} is not an input size followed by "
                          f"{[*HIDDEN_SIZES, 1]}")
    if len(weights) != len(sizes) - 1 or len(biases) != len(weights):
        raise FormatError(f"{path}: layer counts are inconsistent")
    for i, (w, b) in enumerate(zip(weights, biases)):
        if w.shape != (sizes[i], sizes[i + 1]) or b.shape != (sizes[i + 1],):
            raise FormatError(f"{path}: layer {i} shapes do not match layer_sizes")
    if not all(np.isfinite(a).all() for a in (*weights, *biases)):
        raise FormatError(f"{path}: a weight or bias is NaN or infinite")
    return Mlp(weights, biases, meta)
