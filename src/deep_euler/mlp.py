"""Fully connected ReLU network with hand-written reverse-mode gradients.

The network maps (x_i, x_j, y_i) to a truncation-error estimate, so the
input width is always n+2 and the output width n for an n-dimensional
problem. Training minimizes mean absolute error with Adam on MlpParams.data,
one flat vector of all weights and biases in the layout of the gradient, both
moments and the checkpoint; all is float64 and deterministic for a fixed seed.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .errors import ConfigError, NumericalError, ShapeError

_MAGIC = b"FCN1"
_FORMAT_VERSION = 1
_BETA1, _BETA2, _EPSILON = 0.9, 0.999, 1e-8  # Adam defaults of Kingma & Ba
_ZERO = np.zeros(())  # ReLU's floor: a 0-d array spares np.maximum a float conversion per call
# A dead ReLU unit's weights get zero gradients, so their first Adam moments
# decay by 0.9 a step into the subnormal range (after about 6,700 steps), where
# arithmetic is many times slower. Every _FLUSH_EVERY steps, train zeroes the
# first moments under _FLUSH_FLOOR: such an m moves theta by at most
# lr |m| / (c1 eps), about 1e-141, as lr < 1, c1 >= 1 - 0.9 and eps = 1e-8.
# Second moments decay by 0.999 a step and are left alone.
_FLUSH_EVERY = 1024
_FLUSH_FLOOR = 1e-150


def _chunk_sizes(widths: Sequence[int]) -> list[int]:
    """Sizes of the flat parameter vector's chunks, in checkpoint payload
    order: each layer's row-major weights, then its bias."""
    return [n for rows, cols in zip(widths[1:], widths[:-1]) for n in (rows * cols, rows)]


class MlpParams:
    """Weights and biases of an affine stack with ReLU between hidden layers.

    weights[k] has shape (layer_widths[k+1], layer_widths[k]); the final
    layer is linear (no activation). Both are views into ``data``, one
    contiguous float64 vector in checkpoint payload order: each layer's
    row-major weights, then its bias. The constructor copies the arrays it is
    given into a fresh vector; ``flat`` wraps an existing one.
    """

    def __init__(self, layer_widths: Sequence[int], weights: Sequence, biases: Sequence):
        self._wrap(layer_widths)
        if len(weights) != self.num_layers or len(biases) != self.num_layers:
            raise ShapeError("one weight matrix and bias per layer required")
        for k, (w, b, w_to, b_to) in enumerate(zip(weights, biases, self.weights, self.biases)):
            if w.shape != w_to.shape or b.shape != b_to.shape:
                raise ShapeError(f"layer {k}: weight {w.shape} / bias {b.shape} do not "
                                 f"match widths {w_to.shape[0]}x{w_to.shape[1]}")
            w_to[...], b_to[...] = w, b
        self._check_finite()

    @classmethod
    def flat(cls, layer_widths: Sequence[int], data: Optional[np.ndarray] = None) -> MlpParams:
        """Parameters whose views wrap ``data``, without a copy: a float64
        vector of the size the widths need (else ValueError), zeros if omitted."""
        params = cls.__new__(cls)
        params._wrap(layer_widths, data)
        params._check_finite()
        return params

    def _wrap(self, layer_widths: Sequence[int], data: Optional[np.ndarray] = None) -> None:
        self.layer_widths = widths = tuple(int(w) for w in layer_widths)
        if len(widths) < 2 or any(w <= 0 for w in widths):
            raise ShapeError(f"invalid layer widths {widths}")
        sizes = _chunk_sizes(widths)
        self.data = np.zeros(sum(sizes)) if data is None else data
        chunks = np.split(self.data, np.cumsum(sizes[:-1]))
        self.weights = tuple(w.reshape(rows, cols)
                             for w, rows, cols in zip(chunks[0::2], widths[1:], widths[:-1]))
        self.biases = tuple(b.reshape(rows) for b, rows in zip(chunks[1::2], widths[1:]))

    def _check_finite(self) -> None:
        for k, (w, b) in enumerate(zip(self.weights, self.biases)):
            if not (np.isfinite(w).all() and np.isfinite(b).all()):
                raise ShapeError(f"layer {k}: non-finite parameters")

    @property
    def num_layers(self) -> int:
        return len(self.weights)


class Workspace:
    """loss_and_grad buffers for batches of up to batch_size rows, reused
    across calls: each layer's output, and the flat gradient."""

    def __init__(self, layer_widths: Sequence[int], batch_size: int):
        self.grad = MlpParams.flat(layer_widths)
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
    params = MlpParams.flat(layer_widths)
    rng = np.random.default_rng(seed)
    for w in params.weights:
        bound = np.sqrt(6.0 / w.shape[1])
        w[...] = rng.uniform(-bound, bound, size=w.shape)
    return params


def bind_layers(params: MlpParams, outputs: Iterable[np.ndarray]) -> Iterator[tuple]:
    """The layers of ``params`` as forward_into runs them: (w.T, bias, output
    buffer, whether ReLU follows) per layer, layer k writing the k-th buffer
    of ``outputs``. The weights are bound as w.T views: a contiguous copy
    would run another gemv kernel, with other bits. Lazy, so that a generator
    of buffers allocates each one only when its layer runs; a caller that runs
    the network often binds a tuple once."""
    last = len(params.weights) - 1
    for k, (w, b, z) in enumerate(zip(params.weights, params.biases, outputs)):
        yield w.T, b, z, k < last


def forward_into(layers: Iterable[tuple], a: np.ndarray) -> np.ndarray:
    """The network, without checks, on one input vector (p_0,) or a batch
    (B, p_0), over ``layers`` from bind_layers: ReLU between layers, the last
    layer linear. Returns a fresh array; every buffer is overwritten."""
    add, maximum = np.add, np.maximum  # looked up once per call, not per layer
    for wt, b, z, relu in layers:
        # ndarray.dot, not np.matmul, which is slower per layer on one vector, nor
        # np.dot: the same C function, called without numpy's function dispatch.
        a.dot(wt, z)
        if relu:
            add(z, b, z)
            maximum(z, _ZERO, out=z)  # numpy deprecates a positional out for maximum
            a = z
        else:
            # Not in place: numpy's in-place add on a one-element array, the
            # output of a one-dimensional problem's corrector, takes twice as long.
            a = add(z, b)
    return a


def forward_batch(params: MlpParams, xs) -> np.ndarray:
    """Evaluate the network on a (batch, p_0) array of inputs."""
    a = np.asarray(xs, dtype=np.float64)
    if a.ndim != 2 or a.shape[1] != params.layer_widths[0]:
        raise ShapeError(f"batch has shape {a.shape}, expected (*, {params.layer_widths[0]})")
    if not np.all(np.isfinite(a)):
        raise ShapeError("non-finite network input")
    # A generator, so that only two layers' outputs are alive at a time.
    buffers = (np.empty((len(a), w)) for w in params.layer_widths[1:])
    return forward_into(bind_layers(params, buffers), a)


def loss_and_grad(
    params: MlpParams, inputs, targets, work: Optional[Workspace] = None
) -> tuple[float, MlpParams]:
    """Mean absolute error over the batch and its exact subgradients.

    Loss is the component sum of |output - target| averaged over samples.
    Subgradients at the ReLU kink and the L1 kink are both taken as 0.
    The gradient lives in ``work`` (fresh when omitted), so the next call
    with that workspace overwrites it.
    """
    x = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
    y = np.atleast_2d(np.asarray(targets, dtype=np.float64))
    if x.shape[0] == 0:
        raise ShapeError("loss_and_grad needs at least one sample")
    if x.shape[0] != y.shape[0]:
        raise ValueError("inputs and targets disagree on batch size")
    if x.shape[1] != params.layer_widths[0] or y.shape[1] != params.layer_widths[-1]:
        raise ShapeError(f"data {x.shape} -> {y.shape} does not fit widths {params.layer_widths}")
    batch = x.shape[0]
    if work is None:
        work = Workspace(params.layer_widths, batch)

    outputs = [buf[:batch] for buf in work.outputs]
    diff = np.subtract(forward_into(bind_layers(params, outputs), x), y, out=outputs[-1])
    loss = float(np.add.reduce(np.abs(diff), axis=None) / batch)

    dz = np.sign(diff, out=diff)
    dz /= batch
    grad = work.grad
    for k in range(len(outputs) - 1, -1, -1):
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
        raise NumericalError("gradient contains NaN or infinity")
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


def _flush_first_moments(state: AdamState) -> None:
    """Zero the first moments under _FLUSH_FLOOR in magnitude; every other entry keeps its bits."""
    state.first[np.abs(state.first) < _FLUSH_FLOOR] = 0.0


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
    sums = np.sum(np.abs(w), axis=1)
    return np.divide(clip_bound, sums, out=np.ones_like(sums), where=sums > clip_bound)[:, None]


def save_model(params: MlpParams) -> bytes:
    """Serialize to bytes: magic, version, widths, then the flat parameter
    vector ``params.data`` as little-endian float64."""
    widths = params.layer_widths
    header = struct.pack(f"<4sII{len(widths)}I", _MAGIC, _FORMAT_VERSION, len(widths), *widths)
    return header + params.data.astype("<f8").tobytes()


def load_model(data: bytes) -> MlpParams:
    """Inverse of save_model; raises ConfigError on any inconsistency."""
    header = struct.calcsize("<4sII")
    if len(data) < header:
        raise ConfigError("checkpoint shorter than its header")
    magic, version, n_widths = struct.unpack_from("<4sII", data, 0)
    if magic != _MAGIC:
        raise ConfigError(f"bad magic {magic!r}")
    if version != _FORMAT_VERSION:
        raise ConfigError(f"unsupported format version {version}")
    offset = header + 4 * n_widths
    if n_widths < 2 or len(data) < offset:
        raise ConfigError("width table truncated or too short")
    widths = struct.unpack_from(f"<{n_widths}I", data, header)
    expected = 8 * sum(_chunk_sizes(widths))
    if len(data) - offset != expected:
        raise ConfigError(
            f"payload holds {len(data) - offset} bytes, widths {widths} need {expected}"
        )
    payload = np.frombuffer(data, dtype="<f8", offset=offset).astype(np.float64)
    try:  # checks the widths and the parameters
        return MlpParams.flat(widths, payload)
    except ShapeError as err:
        raise ConfigError(str(err)) from None


def train(
    inputs,
    targets,
    layer_widths: Sequence[int],
    config: TrainConfig,
) -> tuple[MlpParams, list[float]]:
    """Minibatch Adam training on (inputs, targets); returns params and per-epoch mean loss.

    Data order is reshuffled every epoch from the run seed, so a fixed
    (seed, config, dataset) triple reproduces the parameters bitwise. Data
    whose widths do not fit layer_widths raises ShapeError on the first batch.
    """
    x = np.asarray(inputs, dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64)
    if x.ndim != 2 or y.ndim != 2 or x.shape[0] != y.shape[0]:
        raise ValueError("inputs/targets must be 2-d with matching batch length")
    if x.shape[0] == 0:
        raise ShapeError("training set is empty")
    n = x.shape[0]

    theta = init(layer_widths, config.seed)
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
            if state.step_count % _FLUSH_EVERY == 0:
                _flush_first_moments(state)
            if config.clip_bound is not None:
                for w in theta.weights:
                    w *= _row_scale(w, config.clip_bound)
            total += loss * len(idx)
        epoch_losses.append(total / n)
    return MlpParams.flat(theta.layer_widths, theta.data), epoch_losses
