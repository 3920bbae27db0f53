"""Fully connected ReLU network with hand-written reverse-mode gradients.

The network maps (x_i, x_j, y_i) to a truncation-error estimate, so the
input width is always n+2 and the output width n for an n-dimensional
problem. Training minimizes mean absolute error with Adam on one flat vector
of all weights and biases (FlatLayers), which the gradient and both moments
share; everything is float64 and deterministic for a fixed seed.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import (
    ConfigError,
    EmptyBatch,
    InvalidArchitecture,
    InvalidInput,
    ModelFormatError,
    NonFiniteGradient,
)

_MAGIC = b"FCN1"
_FORMAT_VERSION = 1
_BETA1, _BETA2, _EPSILON = 0.9, 0.999, 1e-8  # Adam defaults of Kingma & Ba


@dataclass(frozen=True)
class MlpParams:
    """Weights and biases of an affine stack with ReLU between hidden layers.

    weights[k] has shape (layer_widths[k+1], layer_widths[k]); the final
    layer is linear (no activation).
    """

    layer_widths: tuple[int, ...]
    weights: tuple[np.ndarray, ...]
    biases: tuple[np.ndarray, ...]

    def __post_init__(self):
        widths = tuple(int(w) for w in self.layer_widths)
        object.__setattr__(self, "layer_widths", widths)
        if len(widths) < 2 or any(w <= 0 for w in widths):
            raise InvalidArchitecture(f"invalid layer widths {widths}")
        if len(self.weights) != len(widths) - 1 or len(self.biases) != len(widths) - 1:
            raise InvalidArchitecture("one weight matrix and bias per layer required")
        for k, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.shape != (widths[k + 1], widths[k]) or b.shape != (widths[k + 1],):
                raise InvalidArchitecture(
                    f"layer {k}: weight {w.shape} / bias {b.shape} do not match "
                    f"widths {widths[k + 1]}x{widths[k]}"
                )
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                raise InvalidArchitecture(f"layer {k}: non-finite parameters")

    @property
    def num_layers(self) -> int:
        return len(self.weights)

    def parameter_count(self) -> int:
        return sum(w.size + b.size for w, b in zip(self.weights, self.biases))


class FlatLayers:
    """Per-layer weight and bias views into one contiguous float64 vector, in
    checkpoint payload order: each layer's row-major weights, then its bias."""

    def __init__(self, layer_widths: Sequence[int], data: Optional[np.ndarray] = None):
        self.layer_widths = tuple(int(w) for w in layer_widths)
        shapes = list(zip(self.layer_widths[1:], self.layer_widths[:-1]))
        sizes = [n for rows, cols in shapes for n in (rows * cols, rows)]
        self.data = np.zeros(sum(sizes)) if data is None else data
        ends = np.cumsum(sizes).tolist()
        chunks = [self.data[end - size : end] for size, end in zip(sizes, ends)]
        self.weights = tuple(w.reshape(shape) for w, shape in zip(chunks[0::2], shapes))
        self.biases = tuple(chunks[1::2])

    @classmethod
    def of(cls, params: MlpParams) -> FlatLayers:
        parts = [a.ravel() for wb in zip(params.weights, params.biases) for a in wb]
        return cls(params.layer_widths, np.concatenate(parts))


class Workspace:
    """loss_and_grad buffers for batches of up to batch_size rows, reused
    across calls: each layer's output, and the flat gradient."""

    def __init__(self, layer_widths: Sequence[int], batch_size: int):
        self.grad = FlatLayers(layer_widths)
        self.outputs = [np.empty((batch_size, w)) for w in self.grad.layer_widths[1:]]


class AdamState:
    """Adam moments in the flat parameter layout, plus scratch; adam_step updates them in place."""

    def __init__(self, size: int):
        self.first, self.second = np.zeros(size), np.zeros(size)
        self.scratch = (np.empty(size), np.empty(size))
        self.step_count = 0


@dataclass(frozen=True)
class TrainConfig:
    epochs: int
    learning_rate: float = 5e-3
    batch_size: int = 32
    seed: int = 0
    clip_bound: Optional[float] = None

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigError(f"epochs: must be >= 1, got {self.epochs}")
        if not 0.0 < self.learning_rate < 1.0:
            raise ConfigError(f"learning_rate: must be in (0, 1), got {self.learning_rate}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size: must be >= 1, got {self.batch_size}")
        if self.clip_bound is not None and not self.clip_bound > 0:
            raise ConfigError(f"clip_bound: must be positive, got {self.clip_bound}")


def init(layer_widths: Sequence[int], seed: int) -> MlpParams:
    """He-uniform weights (bound sqrt(6/fan_in)), zero biases."""
    widths = tuple(int(w) for w in layer_widths)
    if len(widths) < 2 or any(w <= 0 for w in widths):
        raise InvalidArchitecture(f"invalid layer widths {widths}")
    rng = np.random.default_rng(seed)
    weights = []
    biases = []
    for fan_in, fan_out in zip(widths[:-1], widths[1:]):
        bound = np.sqrt(6.0 / fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return MlpParams(widths, tuple(weights), tuple(biases))


def forward(params: MlpParams, x) -> np.ndarray:
    """Evaluate the network on one input vector."""
    a = np.asarray(x, dtype=np.float64)
    if a.shape != (params.layer_widths[0],):
        raise InvalidInput(
            f"input has shape {a.shape}, expected ({params.layer_widths[0]},)"
        )
    if not np.isfinite(a).all():
        raise InvalidInput("non-finite network input")
    return forward_into(params, a, [np.empty(w) for w in params.layer_widths[1:]])


def forward_into(params: MlpParams, a: np.ndarray, outputs: Sequence[np.ndarray]) -> np.ndarray:
    """forward without input checks; layer k writes outputs[k], and outputs[-1] is returned."""
    last = params.num_layers - 1
    for k, (w, b, z) in enumerate(zip(params.weights, params.biases, outputs)):
        np.dot(w, a, out=z)
        z += b
        if k < last:
            np.maximum(z, 0.0, out=z)
        a = z
    return a


def forward_batch(params: MlpParams, xs) -> np.ndarray:
    """Evaluate the network on a (batch, p_0) array of inputs."""
    a = np.asarray(xs, dtype=np.float64)
    if a.ndim != 2 or a.shape[1] != params.layer_widths[0]:
        raise InvalidInput(
            f"batch has shape {a.shape}, expected (*, {params.layer_widths[0]})"
        )
    if not np.all(np.isfinite(a)):
        raise InvalidInput("non-finite network input")
    for w, b in zip(params.weights[:-1], params.biases[:-1]):
        a = np.maximum(a @ w.T + b, 0.0)
    return a @ params.weights[-1].T + params.biases[-1]


def loss_and_grad(
    params, inputs, targets, work: Optional[Workspace] = None
) -> tuple[float, FlatLayers]:
    """Mean absolute error over the batch and its exact subgradients.

    Loss is the component sum of |output - target| averaged over samples.
    Subgradients at the ReLU kink and the L1 kink are both taken as 0.
    ``params`` is an MlpParams or a FlatLayers. The gradient lives in ``work``
    (fresh when omitted), so the next call with that workspace overwrites it.
    """
    x = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
    y = np.atleast_2d(np.asarray(targets, dtype=np.float64))
    if x.shape[0] == 0:
        raise EmptyBatch("loss_and_grad needs at least one sample")
    if x.shape[0] != y.shape[0]:
        raise ValueError("inputs and targets disagree on batch size")
    if x.shape[1] != params.layer_widths[0] or y.shape[1] != params.layer_widths[-1]:
        raise InvalidInput(f"data {x.shape} -> {y.shape} does not fit widths {params.layer_widths}")
    batch = x.shape[0]
    if work is None:
        work = Workspace(params.layer_widths, batch)

    outputs = [buf[:batch] for buf in work.outputs]
    last = len(outputs) - 1
    a = x
    for k, (w, b, z) in enumerate(zip(params.weights, params.biases, outputs)):
        np.matmul(a, w.T, out=z)
        z += b
        if k < last:
            np.maximum(z, 0.0, out=z)
        a = z

    diff = np.subtract(a, y, out=a)
    loss = float(np.add.reduce(np.abs(diff), axis=None) / batch)

    dz = np.sign(diff, out=diff)
    dz /= batch
    grad = work.grad
    for k in range(last, -1, -1):
        a_in = outputs[k - 1] if k else x
        np.matmul(dz.T, a_in, out=grad.weights[k])
        np.add.reduce(dz, axis=0, out=grad.biases[k])  # np.sum without its Python wrapper
        if k:
            # ReLU outputs are positive where pre-activations are, so a_in may be overwritten.
            active = a_in > 0.0
            dz = np.matmul(dz, params.weights[k], out=a_in)
            dz *= active
    return loss, grad


def adam_step(theta: np.ndarray, grad: np.ndarray, state: AdamState, learning_rate: float) -> None:
    """One bias-corrected Adam update of the flat vector theta, in place.

    Element by element the arithmetic is that of the per-tensor update
    m = b1 m + (1-b1) g, v = b2 v + ((1-b2) g) g,
    theta = theta - (lr (m/c1)) / (sqrt(v/c2) + eps), so the bits are too.
    """
    if not np.isfinite(grad).all():
        raise NonFiniteGradient("gradient contains NaN or infinity")
    state.step_count += 1
    c1, c2 = 1.0 - _BETA1**state.step_count, 1.0 - _BETA2**state.step_count
    m, v = state.first, state.second
    step, denom = state.scratch
    m *= _BETA1
    np.multiply(grad, 1.0 - _BETA1, out=step)
    m += step
    v *= _BETA2
    np.multiply(grad, 1.0 - _BETA2, out=step)
    step *= grad
    v += step
    np.divide(m, c1, out=step)
    step *= learning_rate
    np.divide(v, c2, out=denom)
    np.sqrt(denom, out=denom)
    denom += _EPSILON
    step /= denom
    theta -= step


def lipschitz_bound(params: MlpParams) -> float:
    """alpha^K with alpha the max infinity-operator-norm over weight matrices.

    ReLU is 1-Lipschitz, so this bounds |N(u)-N(v)| / max-norm(u-v).
    """
    alpha = max(float(np.max(np.sum(np.abs(w), axis=1))) for w in params.weights)
    return alpha ** params.num_layers


def clip_weights(params: MlpParams, clip_bound: float) -> MlpParams:
    """Scale each weight row so its absolute sum is at most clip_bound."""
    if not clip_bound > 0:
        raise ValueError("clip_bound must be positive")
    new_weights = tuple(w * _row_scale(w, clip_bound) for w in params.weights)
    return MlpParams(params.layer_widths, new_weights, params.biases)


def _row_scale(w: np.ndarray, clip_bound: float) -> np.ndarray:
    """Column of per-row factors that bring each row's absolute sum to at most clip_bound."""
    row_sums = np.sum(np.abs(w), axis=1)
    return np.where(row_sums > clip_bound, clip_bound / np.maximum(row_sums, 1e-300), 1.0)[:, None]


def save_model(params: MlpParams) -> bytes:
    """Serialize to bytes: magic, version, widths, then row-major float64 layers."""
    parts = [struct.pack("<4sII", _MAGIC, _FORMAT_VERSION, len(params.layer_widths))]
    parts.append(struct.pack(f"<{len(params.layer_widths)}I", *params.layer_widths))
    for w, b in zip(params.weights, params.biases):
        parts += [np.ascontiguousarray(a, dtype="<f8").tobytes() for a in (w, b)]
    return b"".join(parts)


def load_model(data: bytes) -> MlpParams:
    """Inverse of save_model; raises ModelFormatError on any inconsistency."""
    header = struct.calcsize("<4sII")
    if len(data) < header:
        raise ModelFormatError("checkpoint shorter than its header")
    magic, version, n_widths = struct.unpack_from("<4sII", data, 0)
    if magic != _MAGIC:
        raise ModelFormatError(f"bad magic {magic!r}")
    if version != _FORMAT_VERSION:
        raise ModelFormatError(f"unsupported format version {version}")
    offset = header + 4 * n_widths
    if n_widths < 2 or len(data) < offset:
        raise ModelFormatError("width table truncated or too short")
    widths = struct.unpack_from(f"<{n_widths}I", data, header)
    if any(w <= 0 for w in widths):
        raise ModelFormatError(f"non-positive width in {widths}")
    expected = 8 * sum(rows * cols + rows for rows, cols in zip(widths[1:], widths[:-1]))
    if len(data) - offset != expected:
        raise ModelFormatError(
            f"payload holds {len(data) - offset} bytes, widths {widths} need {expected}"
        )
    flat = FlatLayers(widths, np.frombuffer(data, dtype="<f8", offset=offset).astype(np.float64))
    try:
        return MlpParams(flat.layer_widths, flat.weights, flat.biases)
    except InvalidArchitecture as err:
        raise ModelFormatError(str(err)) from None


def train(
    inputs,
    targets,
    layer_widths: Sequence[int],
    config: TrainConfig,
) -> tuple[MlpParams, list[float]]:
    """Minibatch Adam training on (inputs, targets); returns params and per-epoch mean loss.

    Data order is reshuffled every epoch from the run seed, so a fixed
    (seed, config, dataset) triple reproduces the parameters bitwise. Data
    whose widths do not fit layer_widths raises InvalidInput on the first batch.
    """
    x = np.asarray(inputs, dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64)
    if x.ndim != 2 or y.ndim != 2 or x.shape[0] != y.shape[0]:
        raise ValueError("inputs/targets must be 2-d with matching batch length")
    if x.shape[0] == 0:
        raise EmptyBatch("training set is empty")
    n = x.shape[0]

    theta = FlatLayers.of(init(layer_widths, config.seed))
    state = AdamState(theta.data.size)
    work = Workspace(theta.layer_widths, min(config.batch_size, n))
    shuffle_rng = np.random.default_rng(np.random.SeedSequence(config.seed).spawn(1)[0])

    epoch_losses = []
    for _ in range(config.epochs):
        perm = shuffle_rng.permutation(n)
        total = 0.0
        for start in range(0, n, config.batch_size):
            idx = perm[start : start + config.batch_size]
            loss, grad = loss_and_grad(theta, x[idx], y[idx], work)
            adam_step(theta.data, grad.data, state, config.learning_rate)
            if config.clip_bound is not None:
                for w in theta.weights:
                    w *= _row_scale(w, config.clip_bound)
            total += loss * len(idx)
        epoch_losses.append(total / n)
    return MlpParams(theta.layer_widths, theta.weights, theta.biases), epoch_losses
