"""Network evaluation, gradients, Adam, Lipschitz machinery, checkpoints."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from deep_euler import mlp
from deep_euler.errors import ConfigError, NumericalError, ShapeError
from deep_euler.mlp import (
    AdamState,
    MlpParams,
    TrainConfig,
    adam_step,
    bind_layers,
    clip_weights,
    forward_batch,
    forward_into,
    init,
    lipschitz_bound,
    load_model,
    loss_and_grad,
    save_model,
    train,
)


def forward_one(params, x):
    """forward_batch on a batch of one input row, as a vector."""
    return forward_batch(params, np.asarray(x, dtype=float)[None, :])[0]


def forward_into_one(params, x):
    """forward_into, as the DEM stepper calls it: on layers bound once to
    fresh buffers, run twice."""
    layers = tuple(bind_layers(params, [np.empty(w) for w in params.layer_widths[1:]]))
    x = np.asarray(x, dtype=float)
    first = forward_into(layers, x).copy()
    again = forward_into(layers, x)
    assert again.tobytes() == first.tobytes()
    return again


def single_layer(weight_rows, bias):
    w = np.asarray(weight_rows, dtype=float)
    return MlpParams((w.shape[1], w.shape[0]), (w,), (np.asarray(bias, dtype=float),))


def finite_difference_grads(params, inputs, targets, eps=1e-5):
    """Central differences of the loss in every parameter entry."""
    fd_w = [np.zeros_like(w) for w in params.weights]
    fd_b = [np.zeros_like(b) for b in params.biases]

    def loss_at(weights, biases):
        p = MlpParams(params.layer_widths, tuple(weights), tuple(biases))
        return loss_and_grad(p, inputs, targets)[0]

    for k, w in enumerate(params.weights):
        for idx in np.ndindex(w.shape):
            for sign, store in ((1.0, "hi"), (-1.0, "lo")):
                ws = [a.copy() for a in params.weights]
                ws[k][idx] += sign * eps
                val = loss_at(ws, params.biases)
                if store == "hi":
                    hi = val
                else:
                    lo = val
            fd_w[k][idx] = (hi - lo) / (2 * eps)
    for k, b in enumerate(params.biases):
        for idx in np.ndindex(b.shape):
            for sign, store in ((1.0, "hi"), (-1.0, "lo")):
                bs = [a.copy() for a in params.biases]
                bs[k][idx] += sign * eps
                val = loss_at(params.weights, bs)
                if store == "hi":
                    hi = val
                else:
                    lo = val
            fd_b[k][idx] = (hi - lo) / (2 * eps)
    return fd_w, fd_b


def reference_loss_and_grad(params, x, y):
    """Per-layer backward pass that the flat loss_and_grad must match bit for bit."""
    batch = x.shape[0]
    activations, pre_acts, a = [x], [], x
    for w, b in zip(params.weights[:-1], params.biases[:-1]):
        z = a @ w.T + b
        pre_acts.append(z)
        a = np.maximum(z, 0.0)
        activations.append(a)
    diff = (a @ params.weights[-1].T + params.biases[-1]) - y
    loss = float(np.sum(np.abs(diff)) / batch)
    delta = np.sign(diff) / batch
    grad_w, grad_b = [None] * params.num_layers, [None] * params.num_layers
    grad_w[-1], grad_b[-1] = delta.T @ activations[-1], delta.sum(axis=0)
    upstream = delta @ params.weights[-1]
    for k in range(params.num_layers - 2, -1, -1):
        dz = upstream * (pre_acts[k] > 0.0)
        grad_w[k], grad_b[k] = dz.T @ activations[k], dz.sum(axis=0)
        if k > 0:
            upstream = dz @ params.weights[k]
    return loss, grad_w, grad_b


def reference_adam(tensors, grads, firsts, seconds, t, lr):
    """Per-tensor Adam as written in Kingma & Ba; returns new tensors and moments."""
    c1, c2 = 1.0 - 0.9**t, 1.0 - 0.999**t
    out = ([], [], [])
    for p, g, m, v in zip(tensors, grads, firsts, seconds):
        m = 0.9 * m + (1.0 - 0.9) * g
        v = 0.999 * v + (1.0 - 0.999) * g * g
        out[0].append(p - lr * (m / c1) / (np.sqrt(v / c2) + 1e-8))
        out[1].append(m)
        out[2].append(v)
    return out


def reference_train(x, y, widths, config):
    """Per-layer loss_and_grad, Adam and clipping loop that train must match bit for bit."""
    params = init(widths, config.seed)
    tensors = [*params.weights, *params.biases]
    firsts = [np.zeros_like(a) for a in tensors]
    seconds = [np.zeros_like(a) for a in tensors]
    shuffle_rng = np.random.default_rng(np.random.SeedSequence(config.seed).spawn(1)[0])
    n, t, layers, epoch_losses = x.shape[0], 0, len(widths) - 1, []
    for _ in range(config.epochs):
        perm = shuffle_rng.permutation(n)
        total = 0.0
        for start in range(0, n, config.batch_size):
            idx = perm[start : start + config.batch_size]
            loss, grad_w, grad_b = reference_loss_and_grad(params, x[idx], y[idx])
            t += 1
            tensors, firsts, seconds = reference_adam(
                tensors, grad_w + grad_b, firsts, seconds, t, config.learning_rate
            )
            if config.clip_bound is not None:
                for k in range(layers):
                    row_sums = np.sum(np.abs(tensors[k]), axis=1)
                    scale = np.where(row_sums > config.clip_bound,
                                     config.clip_bound / np.maximum(row_sums, 1e-300), 1.0)
                    tensors[k] = tensors[k] * scale[:, None]
            params = MlpParams(params.layer_widths, tuple(tensors[:layers]), tuple(tensors[layers:]))
            total += loss * len(idx)
        epoch_losses.append(total / n)
    return params, epoch_losses


@st.composite
def networks(draw, values=st.floats(allow_nan=False, allow_infinity=False), dim=None):
    """A network of 1-3 layers of widths 1-6 with parameters drawn from
    ``values``; with ``dim``, one that maps dim + 2 inputs to dim outputs, the
    shape of a corrector for a dim-dimensional problem."""
    widths = draw(st.lists(st.integers(1, 6), min_size=2, max_size=4))
    if dim is not None:
        widths = [dim + 2, *widths[1:-1], dim]
    shapes = list(zip(widths[1:], widths[:-1]))
    weights = tuple(draw(arrays(np.float64, shape, elements=values)) for shape in shapes)
    biases = tuple(draw(arrays(np.float64, rows, elements=values)) for rows, _ in shapes)
    return MlpParams(tuple(widths), weights, biases)


# Values small enough that no layer overflows, so results compare bitwise.
MODERATE = st.floats(-10.0, 10.0)


def reference_forward_batch(params, x):
    """forward_batch as it was written before it shared the layer loop."""
    a = x
    for w, b in zip(params.weights[:-1], params.biases[:-1]):
        a = np.maximum(a @ w.T + b, 0.0)
    return a @ params.weights[-1].T + params.biases[-1]


def reference_forward_one(params, a):
    """The network on one vector, one np.dot(w, a) per layer."""
    for k, (w, b) in enumerate(zip(params.weights, params.biases)):
        a = np.dot(w, a) + b
        if k < params.num_layers - 1:
            a = np.maximum(a, 0.0)
    return a


def min_preactivation_margin(params, inputs):
    """Smallest |pre-activation| over the hidden layers for a batch."""
    a = np.atleast_2d(inputs)
    margin = np.inf
    for w, b in zip(params.weights[:-1], params.biases[:-1]):
        z = a @ w.T + b
        margin = min(margin, float(np.min(np.abs(z))))
        a = np.maximum(z, 0.0)
    return margin


def sample_away_from_kinks(params, batch, rng, margin=1e-3):
    """Random batch whose ReLU pre-activations and L1 gaps avoid the kinks."""
    for _ in range(200):
        x = rng.normal(size=(batch, params.layer_widths[0]))
        y = rng.normal(size=(batch, params.layer_widths[-1]))
        gap = np.min(np.abs(forward_batch(params, x) - y))
        if min_preactivation_margin(params, x) > margin and gap > margin:
            return x, y
    raise AssertionError("could not find a kink-free batch")


class TestParams:
    def test_views_share_one_vector_in_payload_order(self):
        w, b = np.arange(6.0).reshape(2, 3), np.array([6.0, 7.0])
        params = MlpParams((3, 2), (w,), (b,))
        w[0, 0] = 99.0  # the constructor copied
        assert np.array_equal(params.data, np.arange(8.0))
        wrapped = MlpParams.flat((3, 2), params.data)
        wrapped.biases[0][1] = -1.0
        assert params.data[7] == -1.0 and params.biases[0][1] == -1.0

    def test_flat_refuses_non_finite_or_misfit_data(self):
        data = np.zeros(9)  # widths (2, 2, 1): 4 + 2 entries, then 2 + 1
        data[6] = np.nan
        with pytest.raises(ShapeError, match="layer 1: non-finite parameters"):
            MlpParams.flat((2, 2, 1), data)
        for size in (8, 10):
            with pytest.raises(ValueError, match="reshape"):
                MlpParams.flat((2, 2, 1), np.zeros(size))

    def test_constructor_refuses_a_misfit_layer_count_or_shape(self):
        w, b = np.zeros((1, 2)), np.zeros(1)
        with pytest.raises(ShapeError, match="one weight matrix and bias per layer"):
            MlpParams((2, 1), (w, w), (b,))
        with pytest.raises(ShapeError, match=r"layer 0: weight \(2, 1\)"):
            MlpParams((2, 1), (w.T,), (b,))


class TestInit:
    def test_shape_contract(self):
        params = init([3, 1], seed=9)
        assert params.weights[0].shape == (1, 3)
        assert np.array_equal(params.biases[0], [0.0])

    def test_same_seed_is_bitwise_identical(self):
        a, b = init([4, 7, 2], seed=5), init([4, 7, 2], seed=5)
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)

    def test_different_seed_differs(self):
        a, b = init([4, 7, 2], seed=5), init([4, 7, 2], seed=6)
        assert not np.array_equal(a.weights[0], b.weights[0])

    def test_benchmark_architecture_parameter_count(self):
        params = init([3] + [80] * 8 + [1], seed=0)
        expected = 3 * 80 + 80 + 7 * (80 * 80 + 80) + 80 * 1 + 1
        assert params.data.size == expected

    def test_weight_entries_respect_fan_in_bound(self):
        params = init([5, 11, 2], seed=1)
        for w, fan_in in zip(params.weights, (5, 11)):
            assert np.max(np.abs(w)) <= np.sqrt(6.0 / fan_in)

    @pytest.mark.parametrize("widths", [[3], [3, 0, 1], [0, 4], [3, -2, 1]])
    def test_invalid_widths(self, widths):
        with pytest.raises(ShapeError, match="invalid layer widths"):
            init(widths, seed=0)


class TestForward:
    def test_zero_network_returns_final_bias(self, rng):
        params = MlpParams(
            (3, 4, 2),
            (np.zeros((4, 3)), np.zeros((2, 4))),
            (np.zeros(4), np.array([1.5, -2.0])),
        )
        for _ in range(5):
            assert np.array_equal(forward_one(params, rng.normal(size=3)), [1.5, -2.0])

    def test_single_layer_affine(self):
        params = single_layer([[1.0, 2.0, 3.0]], [1.0])
        assert np.array_equal(forward_one(params, [1.0, 1.0, 1.0]), [7.0])

    def test_relu_kills_negative_path(self):
        params = MlpParams(
            (1, 1, 1),
            (np.array([[-1.0]]), np.array([[1.0]])),
            (np.zeros(1), np.zeros(1)),
        )
        assert np.array_equal(forward_one(params, [5.0]), [0.0])
        assert np.array_equal(forward_into_one(params, [5.0]), [0.0])

    def test_non_finite_input_rejected(self):
        params = init([2, 3, 1], seed=0)
        with pytest.raises(ShapeError, match="non-finite network input"):
            forward_one(params, [np.nan, 1.0])

    @pytest.mark.parametrize("xs", [[1.0, 2.0], [[1.0, 2.0, 3.0]], np.zeros((2, 2, 2))],
                             ids=["one_vector", "wrong_width", "three_axes"])
    def test_wrong_shape_rejected(self, xs):
        with pytest.raises(ShapeError, match=r"batch has shape .*, expected \(\*, 2\)"):
            forward_batch(init([2, 3, 1], seed=0), xs)

    def test_batch_matches_single(self, rng):
        params = init([4, 6, 3], seed=2)
        xs = rng.normal(size=(8, 4))
        batched = forward_batch(params, xs)
        for row, x in zip(batched, xs):
            single = forward_into_one(params, x)
            assert np.allclose(row, single, atol=1e-14)
            assert np.allclose(forward_one(params, x), single, atol=1e-14)


class TestOneLayerLoop:
    """forward_into is the one layer loop: one vector, a batch and training share it."""

    @settings(max_examples=100, deadline=None)
    @given(params=networks(MODERATE), data=st.data())
    def test_batch_equals_forward_batch_bitwise(self, params, data):
        rows = data.draw(st.integers(1, 8), label="rows")
        x = data.draw(arrays(np.float64, (rows, params.layer_widths[0]), elements=MODERATE))
        outputs = [np.empty((rows, w)) for w in params.layer_widths[1:]]
        got = forward_into(bind_layers(params, outputs), x)
        assert got.tobytes() == forward_batch(params, x).tobytes()
        assert got.tobytes() == reference_forward_batch(params, x).tobytes()

    @settings(max_examples=100, deadline=None)
    @given(params=networks(MODERATE), data=st.data())
    def test_one_vector_equals_per_layer_dot_bitwise(self, params, data):
        x = data.draw(arrays(np.float64, params.layer_widths[0], elements=MODERATE))
        assert forward_into_one(params, x).tobytes() == reference_forward_one(params, x).tobytes()

    @settings(max_examples=100, deadline=None)
    @given(params=networks(MODERATE), data=st.data())
    def test_loss_is_mean_abs_error_of_forward_batch_bitwise(self, params, data):
        rows = data.draw(st.integers(1, 8), label="rows")
        x = data.draw(arrays(np.float64, (rows, params.layer_widths[0]), elements=MODERATE))
        y = data.draw(arrays(np.float64, (rows, params.layer_widths[-1]), elements=MODERATE))
        want = np.add.reduce(np.abs(forward_batch(params, x) - y), axis=None) / rows
        assert loss_and_grad(params, x, y)[0] == want


class TestLossAndGrad:
    def test_loss_zero_at_exact_fit(self, rng):
        params = init([3, 5, 2], seed=4)
        x = rng.normal(size=(6, 3))
        y = forward_batch(params, x)
        loss, grads = loss_and_grad(params, x, y)
        assert loss == 0.0
        for g in (*grads.weights, *grads.biases):
            assert np.array_equal(g, np.zeros_like(g))

    def test_zero_network_single_sample(self):
        params = single_layer([[0.0]], [0.0])
        loss, grads = loss_and_grad(params, [[1.0]], [[2.0]])
        assert loss == 2.0
        assert grads.biases[0][0] == -1.0

    def test_empty_batch(self):
        params = init([2, 1], seed=0)
        with pytest.raises(ShapeError, match="loss_and_grad needs at least one sample"):
            loss_and_grad(params, np.empty((0, 2)), np.empty((0, 1)))

    def test_batch_size_mismatch_rejected(self):
        params = init([2, 1], seed=0)
        with pytest.raises(ValueError, match="disagree on batch size"):
            loss_and_grad(params, np.zeros((3, 2)), np.zeros((2, 1)))

    @pytest.mark.parametrize("x_width, y_width", [(3, 1), (2, 2)], ids=["targets", "inputs"])
    def test_wrong_data_width_rejected(self, rng, x_width, y_width):
        params = init([3, 8, 2], seed=0)
        with pytest.raises(ShapeError, match=r"data .* does not fit widths \(3, 8, 2\)"):
            loss_and_grad(params, rng.normal(size=(5, x_width)), rng.normal(size=(5, y_width)))

    def test_matches_central_differences(self, rng):
        params = init([3, 5, 2], seed=7)
        x, y = sample_away_from_kinks(params, batch=4, rng=rng)
        _, grads = loss_and_grad(params, x, y)
        fd_w, fd_b = finite_difference_grads(params, x, y)
        for got, want in zip((*grads.weights, *grads.biases), (*fd_w, *fd_b)):
            assert np.allclose(got, want, rtol=1e-4, atol=1e-7)


def flat(parts):
    return np.concatenate([np.ravel(a) for a in parts])


class TestAdam:
    def test_zero_gradient_keeps_params_and_moments(self):
        theta = init([2, 3, 1], seed=0).data
        before = theta.copy()
        state = AdamState(theta.size)
        adam_step(theta, np.zeros_like(theta), state, 0.01)
        assert np.array_equal(theta, before)
        for m in (state.first, state.second):
            assert np.array_equal(m, np.zeros_like(m))
        assert state.step_count == 1

    def test_first_step_moves_by_learning_rate(self):
        # Bias correction makes the very first update lr * sign(grad).
        theta = single_layer([[0.0]], [0.0])
        grad = MlpParams.flat(theta.layer_widths)
        grad.weights[0][0, 0] = 1.0
        adam_step(theta.data, grad.data, AdamState(theta.data.size), 0.1)
        assert theta.weights[0][0, 0] == pytest.approx(-0.1, abs=1e-8)
        assert theta.biases[0][0] == 0.0

    def test_deterministic_sequences(self, rng):
        start = init([3, 4, 2], seed=1).data
        grad_seq = [rng.normal(size=start.size) for _ in range(5)]

        def run():
            theta, state = start.copy(), AdamState(start.size)
            for g in grad_seq:
                adam_step(theta, g, state, 0.01)
            return theta

        assert np.array_equal(run(), run())

    def test_non_finite_gradient_rejected(self):
        theta = np.zeros(2)
        state = AdamState(theta.size)
        with pytest.raises(NumericalError, match="gradient contains NaN or infinity"):
            adam_step(theta, np.array([np.inf, 0.0]), state, 0.1)
        assert state.step_count == 0 and np.array_equal(theta, np.zeros(2))

    @settings(max_examples=60, deadline=None)
    @given(widths=st.lists(st.integers(1, 6), min_size=2, max_size=4), data=st.data())
    def test_flat_update_equals_per_layer_formula_bitwise(self, widths, data):
        shapes = [s for r, c in zip(widths[1:], widths[:-1]) for s in ((r, c), (r,))]
        values = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
        lr = data.draw(st.floats(1e-4, 0.5), label="lr")
        tensors = [data.draw(arrays(np.float64, s, elements=values)) for s in shapes]
        firsts = [np.zeros(s) for s in shapes]
        seconds = [np.zeros(s) for s in shapes]
        theta = flat(tensors)
        state = AdamState(theta.size)
        for t in range(1, data.draw(st.integers(1, 4), label="steps") + 1):
            grads = [data.draw(arrays(np.float64, s, elements=values)) for s in shapes]
            adam_step(theta, flat(grads), state, lr)
            tensors, firsts, seconds = reference_adam(tensors, grads, firsts, seconds, t, lr)
        assert theta.tobytes() == flat(tensors).tobytes()
        assert state.first.tobytes() == flat(firsts).tobytes()
        assert state.second.tobytes() == flat(seconds).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_flush_zeroes_exactly_the_first_moments_under_the_floor(self, data):
        # Boundary values of the floor, subnormals, signed zeros and ordinary moments.
        edges = [0.0, 5e-324, 1e-310, 1e-250, 1e-151, 1e-150, 1e-149, 1.0]
        edges += [-x for x in edges]

        def moments():
            elements = st.one_of(st.sampled_from(edges), st.floats(-1e-140, 1e-140),
                                 st.floats(-1e3, 1e3))
            return data.draw(arrays(np.float64, st.integers(1, 40), elements=elements))
        first, second = moments(), np.abs(moments())
        state = AdamState(1)
        state.first, state.second = first.copy(), second.copy()
        mlp._flush_first_moments(state)
        kept = np.abs(first) >= 1e-150
        assert state.first.tobytes() == np.where(kept, first, 0.0).tobytes()
        assert not np.signbit(state.first[~kept]).any()
        assert state.second.tobytes() == second.tobytes()


class TestLipschitz:
    def test_single_layer_row_sum(self):
        assert lipschitz_bound(single_layer([[2.0]], [0.0])) == 2.0

    def test_two_layer_power(self):
        params = MlpParams(
            (2, 1, 1),
            (np.array([[1.0, -1.0]]), np.array([[3.0]])),
            (np.zeros(1), np.zeros(1)),
        )
        assert lipschitz_bound(params) == 9.0

    def test_empirical_ratio_never_exceeds_bound(self, rng):
        params = init([4, 10, 10, 3], seed=11)
        bound = lipschitz_bound(params)
        u = rng.normal(scale=4.0, size=(1000, 4))
        v = rng.normal(scale=4.0, size=(1000, 4))
        num = np.max(np.abs(forward_batch(params, u) - forward_batch(params, v)), axis=1)
        den = np.max(np.abs(u - v), axis=1)
        assert np.all(num <= bound * den)


class TestClipWeights:
    def test_identity_when_under_bound(self):
        params = single_layer([[0.5, 0.25]], [1.0])
        clipped = clip_weights(params, 1.0)
        assert np.array_equal(clipped.weights[0], params.weights[0])

    def test_scales_oversized_row(self):
        clipped = clip_weights(single_layer([[4.0]], [0.0]), 2.0)
        assert np.array_equal(clipped.weights[0], [[2.0]])

    def test_bound_after_clipping(self):
        params = init([3, 8, 8, 2], seed=3)
        clipped = clip_weights(params, 1.2)
        assert lipschitz_bound(clipped) <= 1.2**3 * (1 + 1e-12)

    def test_biases_untouched(self):
        params = MlpParams((1, 1), (np.array([[5.0]]),), (np.array([2.0]),))
        assert np.array_equal(clip_weights(params, 1.0).biases[0], [2.0])

    @pytest.mark.parametrize("bound", [1.0, 1e-301, 1e-310, 5e-324])
    def test_clipped_row_meets_a_bound_of_any_size(self, bound):
        # A row of twice the bound is halved, subnormal bounds included.
        raw = MlpParams((3, 1), (np.array([[0.0, 0.0, 2 * bound]]),), (np.zeros(1),))
        assert lipschitz_bound(clip_weights(raw, bound)) == bound

    @pytest.mark.parametrize("bound", [0.0, -1.0])
    def test_non_positive_bound_rejected(self, bound):
        with pytest.raises(ValueError, match="clip_bound must be positive"):
            clip_weights(single_layer([[4.0]], [0.0]), bound)


def checkpoints():
    """The bytes of a network of 1-3 layers of widths 1-6, any finite parameters."""
    return networks().map(save_model)


# load_model's messages for a checkpoint cut short, and for one whose header
# (magic, version, width count, widths) was tampered with.
TRUNCATED = r"^(checkpoint shorter than its header|width table truncated|payload holds \d+ bytes)"
HEADER_REFUSED = (r"^(bad magic|unsupported format version|width table truncated"
                  r"|payload holds \d+ bytes|invalid layer widths)")


def reference_save_model(params):
    """The checkpoint as save_model wrote it layer by layer, before it wrote the flat vector."""
    parts = [struct.pack("<4sII", b"FCN1", 1, len(params.layer_widths))]
    parts.append(struct.pack(f"<{len(params.layer_widths)}I", *params.layer_widths))
    for w, b in zip(params.weights, params.biases):
        parts += [np.ascontiguousarray(a, dtype="<f8").tobytes() for a in (w, b)]
    return b"".join(parts)


class TestCheckpointFormat:
    @settings(max_examples=100, deadline=None)
    @given(params=networks())
    def test_bytes_equal_the_per_layer_format(self, params):
        assert save_model(params) == reference_save_model(params)

    @settings(max_examples=100, deadline=None)
    @given(blob=checkpoints())
    def test_any_network_resaves_bitwise(self, blob):
        assert save_model(load_model(blob)) == blob

    @settings(max_examples=100, deadline=None)
    @given(blob=checkpoints(), data=st.data())
    def test_any_truncation_rejected(self, blob, data):
        cut = data.draw(st.integers(0, len(blob) - 1), label="cut")
        with pytest.raises(ConfigError, match=TRUNCATED):
            load_model(blob[:cut])

    @settings(max_examples=200, deadline=None)
    @given(blob=checkpoints(), data=st.data())
    def test_any_flipped_header_byte_rejected(self, blob, data):
        # Header: magic, version and width count (12 bytes), then the widths.
        header = 12 + 4 * int.from_bytes(blob[8:12], "little")
        tampered = bytearray(blob)
        tampered[data.draw(st.integers(0, header - 1), label="byte")] ^= data.draw(
            st.integers(1, 255), label="mask")
        with pytest.raises(ConfigError, match=HEADER_REFUSED):
            load_model(bytes(tampered))

    def test_round_trip_is_bitwise(self):
        params = init([3, 6, 2], seed=8)
        blob = save_model(params)
        restored = load_model(blob)
        assert save_model(restored) == blob
        assert restored.layer_widths == params.layer_widths
        for a, b in zip(restored.weights, params.weights):
            assert np.array_equal(a, b)

    def test_truncated_stream(self):
        blob = save_model(init([3, 4, 1], seed=0))
        with pytest.raises(ConfigError, match="payload holds 160 bytes, .* need 168"):
            load_model(blob[: len(blob) - 8])

    def test_header_payload_mismatch(self):
        blob = save_model(init([3, 4, 1], seed=0))
        with pytest.raises(ConfigError, match="payload holds 176 bytes, .* need 168"):
            load_model(blob + b"\x00" * 8)

    def test_bad_magic(self):
        blob = save_model(init([2, 1], seed=0))
        with pytest.raises(ConfigError, match="bad magic b'XXXX'"):
            load_model(b"XXXX" + blob[4:])

    def test_bad_version(self):
        blob = save_model(init([2, 1], seed=0))
        tampered = blob[:4] + (99).to_bytes(4, "little") + blob[8:]
        with pytest.raises(ConfigError, match="unsupported format version 99"):
            load_model(tampered)

    def test_non_finite_payload(self):
        blob = save_model(init([2, 1], seed=0))
        tampered = blob[:-8] + np.array([np.nan], dtype="<f8").tobytes()
        with pytest.raises(ConfigError, match="layer 0: non-finite parameters"):
            load_model(tampered)


class TestTraining:
    @staticmethod
    def linear_dataset(seed, n=256):
        rng = np.random.default_rng(seed)
        x = rng.uniform(-1.0, 1.0, size=(n, 3))
        coef = np.array([[0.5, -1.0, 2.0], [1.0, 0.0, -0.5]])
        return x, x @ coef.T

    @pytest.mark.parametrize("seed", range(10))
    def test_loss_decreases_on_linear_target(self, seed):
        x, y = self.linear_dataset(seed)
        cfg = TrainConfig(epochs=5, learning_rate=5e-3, batch_size=32, seed=seed)
        _, losses = train(x, y, [3, 16, 2], cfg)
        assert losses[-1] < losses[0]

    def test_bitwise_deterministic(self):
        x, y = self.linear_dataset(0)
        cfg = TrainConfig(epochs=3, learning_rate=5e-3, batch_size=32, seed=42)
        a, _ = train(x, y, [3, 8, 2], cfg)
        b, _ = train(x, y, [3, 8, 2], cfg)
        assert save_model(a) == save_model(b)

    def test_clip_bound_enforced_during_training(self):
        x, y = self.linear_dataset(1)
        cfg = TrainConfig(epochs=2, learning_rate=5e-3, batch_size=32, seed=0, clip_bound=1.1)
        params, _ = train(x, y, [3, 8, 2], cfg)
        assert lipschitz_bound(params) <= 1.1**2 * (1 + 1e-12)

    @pytest.mark.parametrize(
        "widths, n, batch_size, clip_bound",
        [
            ([3, 8, 8, 1], 50, 7, None),
            ([3, 8, 1], 20, 64, None),
            ([3, 10, 10, 2], 60, 16, 1.5),
            ([6, 12, 12, 12, 4], 45, 8, None),
        ],
        ids=["batch_not_dividing_n", "batch_over_n", "clip_bound", "kepler_shape"],
    )
    def test_bitwise_equal_to_per_layer_loop(self, widths, n, batch_size, clip_bound):
        rng = np.random.default_rng(n)
        x = rng.normal(size=(n, widths[0]))
        y = rng.normal(size=(n, widths[-1]))
        cfg = TrainConfig(epochs=3, learning_rate=5e-3, batch_size=batch_size, seed=3,
                          clip_bound=clip_bound)
        got, got_losses = train(x, y, widths, cfg)
        want, want_losses = reference_train(x, y, widths, cfg)
        assert flat(got.weights).tobytes() == flat(want.weights).tobytes()
        assert flat(got.biases).tobytes() == flat(want.biases).tobytes()
        assert np.array(got_losses).tobytes() == np.array(want_losses).tobytes()

    def test_moment_flush_fires_and_keeps_the_bits(self, monkeypatch):
        # 5,200 steps of one batch each: a hidden unit of this net dies early,
        # its first moments fall under the flush floor, and the flush at step
        # 4,096 zeroes them without moving a parameter bit.
        zeroed = []
        real = mlp._flush_first_moments

        def counting(state):
            before = np.count_nonzero(state.first)
            real(state)
            zeroed.append(before - np.count_nonzero(state.first))

        monkeypatch.setattr(mlp, "_flush_first_moments", counting)
        rng = np.random.default_rng(16)
        x, y = rng.normal(size=(16, 3)), rng.normal(size=(16, 1))
        cfg = TrainConfig(epochs=5200, learning_rate=5e-3, batch_size=16, seed=3)
        got, got_losses = train(x, y, [3, 6, 1], cfg)
        assert len(zeroed) == 5 and sum(zeroed) >= 1
        want, want_losses = reference_train(x, y, [3, 6, 1], cfg)
        assert flat(got.weights).tobytes() == flat(want.weights).tobytes()
        assert flat(got.biases).tobytes() == flat(want.biases).tobytes()
        assert np.array(got_losses).tobytes() == np.array(want_losses).tobytes()

    def test_nan_target_raises_on_first_step(self, monkeypatch):
        x, y = self.linear_dataset(0, n=64)
        y[5, 1] = np.nan
        calls = []
        real = mlp.loss_and_grad
        monkeypatch.setattr(mlp, "loss_and_grad", lambda *a: calls.append(1) or real(*a))
        with pytest.raises(NumericalError, match="gradient contains NaN or infinity"):
            train(x, y, [3, 8, 2], TrainConfig(epochs=1, batch_size=64))
        assert len(calls) == 1

    @pytest.mark.parametrize("x_width, y_width", [(3, 1), (4, 2)], ids=["targets", "inputs"])
    def test_wrong_data_width_rejected(self, x_width, y_width):
        rng = np.random.default_rng(0)
        x, y = rng.normal(size=(40, x_width)), rng.normal(size=(40, y_width))
        with pytest.raises(ShapeError, match=r"data .* does not fit widths \(3, 8, 2\)"):
            train(x, y, [3, 8, 2], TrainConfig(epochs=1))

    def test_one_dimensional_or_empty_data_rejected(self):
        x, y = self.linear_dataset(0, n=8)
        with pytest.raises(ValueError, match="2-d with matching batch length"):
            train(x[:, 0], y, [3, 8, 2], TrainConfig(epochs=1))
        with pytest.raises(ShapeError, match="training set is empty"):
            train(x[:0], y[:0], [3, 8, 2], TrainConfig(epochs=1))

    def test_config_invariants(self):
        with pytest.raises(ConfigError):
            TrainConfig(epochs=0)
        with pytest.raises(ConfigError):
            TrainConfig(epochs=1, learning_rate=1.5)
        with pytest.raises(ConfigError):
            TrainConfig(epochs=1, batch_size=0)
        with pytest.raises(ConfigError, match="clip_bound"):
            TrainConfig(epochs=1, clip_bound=0)
