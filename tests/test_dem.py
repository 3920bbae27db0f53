"""Corrected steppers: zero/oracle/network correctors and solve loops."""

import math
import warnings

import numpy as np
import pytest

from deep_euler.dem import (
    Corrector,
    corrected_step,
    dem_step,
    dhm_step,
    solve_dem,
    solve_dhm,
)
from deep_euler.errors import CorrectorShapeError, NonFiniteState, OrderMismatch
from deep_euler.metrics import max_abs_error
from deep_euler.mlp import MlpParams, clip_weights, init
from deep_euler.ode import OdeProblem, StepSchedule, euler_step, flow, heun_step, restrict


@pytest.fixture
def exp_problem():
    return OdeProblem(
        name="exp_growth",
        dim=1,
        rhs=lambda x, y: y.copy(),
        domain=(0.0, 1.0),
        initial=np.array([1.0]),
        exact=lambda x: np.array([math.exp(x)]),
    )


def constant_network(dim, value):
    """Single-layer net with zero weights: N(anything) == value."""
    return MlpParams(
        (dim + 2, dim),
        (np.zeros((dim, dim + 2)),),
        (np.full(dim, float(value)),),
    )


class TestZeroCorrector:
    def test_dem_reduces_to_euler_bitwise(self, problems, rng):
        prob = problems["example1"]
        zero = Corrector.zero(2)
        for _ in range(10):
            x = rng.uniform(0.0, 9.0)
            y = rng.normal(size=1)
            h = rng.uniform(0.01, 1.0)
            assert np.array_equal(
                dem_step(prob, zero, x, y, h), euler_step(prob, x, y, h)
            )

    def test_dhm_reduces_to_heun_bitwise(self, problems, rng):
        prob = problems["kepler"]
        zero = Corrector.zero(3)
        for _ in range(10):
            x = rng.uniform(0.0, 9.0)
            y = rng.normal(size=4)
            h = rng.uniform(0.01, 1.0)
            assert np.array_equal(
                dhm_step(prob, zero, x, y, h), heun_step(prob, x, y, h)
            )


class TestOracleCorrector:
    def test_single_step_reproduces_exact_value(self, problems):
        prob = problems["example1"]
        y1 = dem_step(prob, Corrector.oracle(prob, 2), 0.0, np.array([0.0]), 1.0)
        assert y1[0] == pytest.approx(2.0**1.5 * math.log(2.0), abs=1e-12)

    def test_generic_first_order_step_on_exponential(self, exp_problem):
        got = corrected_step(
            exp_problem, euler_step, 1, Corrector.oracle(exp_problem, 2),
            0.0, np.array([1.0]), 0.5,
        )
        assert got[0] == pytest.approx(math.exp(0.5), abs=1e-12)

    def test_heun_variant_reproduces_exact_step(self, problems):
        prob = problems["kepler"]
        y1 = dhm_step(prob, Corrector.oracle(prob, 3), 0.0, prob.initial, 0.5)
        assert np.allclose(y1, prob.exact(0.5), atol=1e-12)

    def test_full_solve_stays_on_exact_trajectory(self, problems):
        prob = problems["example1"]
        traj = solve_dem(prob, Corrector.oracle(prob, 2), StepSchedule.uniform(0.1))
        assert max_abs_error(traj, prob.exact) <= 1e-9

    def test_requires_exact_solution(self, problems):
        with pytest.raises(ValueError):
            Corrector.oracle(problems["lotka_volterra"], 2)

    def test_offset_injects_known_error(self, exp_problem):
        plain = dem_step(exp_problem, Corrector.oracle(exp_problem, 2), 0.0, np.array([1.0]), 0.5)
        shifted = dem_step(
            exp_problem, Corrector.oracle(exp_problem, 2, offset=0.01), 0.0, np.array([1.0]), 0.5
        )
        assert shifted[0] - plain[0] == pytest.approx(0.01 * 0.25, rel=1e-12)


class TestNetworkCorrector:
    def test_constant_network_adds_h_squared_times_value(self, exp_problem):
        corr = Corrector.network(constant_network(1, 2.0), 2)
        y, h = np.array([1.0]), 0.25
        got = dem_step(exp_problem, corr, 0.0, y, h)
        assert got[0] == pytest.approx(euler_step(exp_problem, 0.0, y, h)[0] + h * h * 2.0)

    def test_shape_mismatch_rejected(self, problems):
        corr = Corrector.network(init([3, 8, 1], seed=0), 2)  # fits dim 1, not 4
        with pytest.raises(CorrectorShapeError):
            dem_step(problems["kepler"], corr, 0.0, problems["kepler"].initial, 0.1)

    def test_network_receives_x_xnext_y(self, problems):
        # Weight rows pick out individual inputs, making the wiring visible.
        prob = problems["example1"]
        w = np.array([[1.0, 0.0, 0.0]])
        params = MlpParams((3, 1), (w,), (np.zeros(1),))
        h = 0.5
        base = euler_step(prob, 2.0, np.array([3.0]), h)
        got = dem_step(prob, Corrector.network(params, 2), 2.0, np.array([3.0]), h)
        assert got[0] == pytest.approx(base[0] + h * h * 2.0)  # picks x
        w2 = np.array([[0.0, 1.0, 0.0]])
        params2 = MlpParams((3, 1), (w2,), (np.zeros(1),))
        got2 = dem_step(prob, Corrector.network(params2, 2), 2.0, np.array([3.0]), h)
        assert got2[0] == pytest.approx(base[0] + h * h * 2.5)  # picks x + h


class TestGenericCorrectedStep:
    def test_first_order_instance_equals_dem_bitwise(self, problems, rng):
        prob = problems["example1"]
        corr = Corrector.network(constant_network(1, 0.7), 2)
        for _ in range(5):
            x, h = rng.uniform(0.0, 8.0), rng.uniform(0.01, 1.0)
            y = rng.normal(size=1)
            assert np.array_equal(
                corrected_step(prob, euler_step, 1, corr, x, y, h),
                dem_step(prob, corr, x, y, h),
            )

    def test_second_order_instance_equals_dhm_bitwise(self, problems, rng):
        prob = problems["kepler"]
        corr = Corrector.network(constant_network(4, -0.3), 3)
        for _ in range(5):
            x, h = rng.uniform(0.0, 8.0), rng.uniform(0.01, 1.0)
            y = rng.normal(size=4)
            assert np.array_equal(
                corrected_step(prob, heun_step, 2, corr, x, y, h),
                dhm_step(prob, corr, x, y, h),
            )

    def test_order_mismatch_rejected(self, exp_problem):
        with pytest.raises(OrderMismatch):
            corrected_step(
                exp_problem, euler_step, 1, Corrector.zero(3), 0.0, np.array([1.0]), 0.1
            )
        with pytest.raises(OrderMismatch):
            dhm_step(exp_problem, Corrector.zero(2), 0.0, np.array([1.0]), 0.1)

    def test_exponent_below_two_rejected(self):
        with pytest.raises(OrderMismatch):
            Corrector.zero(1)


class TestSolveLoops:
    def test_solve_dem_equals_manual_iteration(self, exp_problem):
        corr = Corrector.network(constant_network(1, 0.4), 2)
        traj = solve_dem(exp_problem, corr, StepSchedule.uniform(0.25))
        y = exp_problem.initial
        for m in range(4):
            y = dem_step(exp_problem, corr, 0.25 * m, y, 0.25)
            assert np.array_equal(traj.ys[m + 1], y)

    def test_solve_dhm_on_restricted_interval(self, problems):
        prob = restrict(problems["kepler"], 15.0, 20.0)
        traj = solve_dhm(prob, Corrector.oracle(prob, 3), StepSchedule.uniform(1.0))
        assert traj.xs[0] == 15.0 and traj.xs[-1] == 20.0
        assert max_abs_error(traj, problems["kepler"].exact) <= 1e-9


def reference_forward(params, a):
    """The single-vector forward as it was before the layer loop wrote into buffers."""
    for w, b in zip(params.weights[:-1], params.biases[:-1]):
        a = np.maximum(w @ a + b, 0.0)
    return params.weights[-1] @ a + params.biases[-1]


def reference_solve(problem, schedule, base_stepper, corrector):
    """Solve loop with the correction computed afresh each step, as before steppers were bound."""
    q = corrector.order_exponent
    xs = schedule.mesh(*problem.domain)
    ys = np.empty((len(xs), problem.dim))
    ys[0] = problem.initial
    for m in range(len(xs) - 1):
        x, y, h = xs[m], ys[m], xs[m + 1] - xs[m]
        base = base_stepper(problem, x, y, h)
        if corrector.kind == "zero":
            ys[m + 1] = base
            continue
        if corrector.kind == "network":
            correction = reference_forward(corrector.params, np.concatenate(([x, x + h], y)))
        else:
            correction = (flow(problem, x, y, x + h) - base) / h**q + corrector.offset
        ys[m + 1] = base + h**q * correction
    return xs, ys


def clipped_net(widths, seed):
    """Random net with Lipschitz bound at most 1 and small non-zero biases."""
    params = clip_weights(init(widths, seed), 1.0)
    rng = np.random.default_rng(seed)
    biases = tuple(rng.normal(scale=0.1, size=b.shape) for b in params.biases)
    return MlpParams(params.layer_widths, params.weights, biases)


EX1_NET = [3] + [80] * 8 + [1]


class TestBoundPathBitwise:
    """Bound steppers reproduce the per-step path byte for byte."""

    @pytest.mark.parametrize("method", ["dem", "dhm"])
    @pytest.mark.parametrize(
        "case, h",
        [
            ("network", 1.0),
            ("network", 0.3),  # 10 / 0.3 is not whole: the last step is shortened
            ("restricted", 0.3),
            ("kepler", 0.1),
            ("oracle", 0.5),
            ("oracle_offset", 0.5),
            ("zero", 0.3),
        ],
    )
    def test_trajectory_bytes(self, problems, method, case, h):
        prob = problems["kepler" if case == "kepler" else "example1"]
        if case == "restricted":
            prob = restrict(prob, 2.0, 7.0)
        q = 2 if method == "dem" else 3
        if case.startswith("oracle"):
            corr = Corrector.oracle(prob, q, offset=0.01 if case == "oracle_offset" else 0.0)
        elif case == "zero":
            corr = Corrector.zero(q)
        else:
            widths = [6] + [80] * 8 + [4] if case == "kepler" else EX1_NET
            corr = Corrector.network(clipped_net(widths, seed=q), q)
        solve, base = (solve_dem, euler_step) if method == "dem" else (solve_dhm, heun_step)
        traj = solve(prob, corr, StepSchedule.uniform(h))
        xs, ys = reference_solve(prob, StepSchedule.uniform(h), base, corr)
        assert traj.xs.tobytes() == xs.tobytes()
        assert traj.ys.tobytes() == ys.tobytes()

    @pytest.mark.parametrize("method", ["dem", "dhm"])
    def test_single_step_bytes(self, problems, rng, method):
        prob = problems["example1"]
        q = 2 if method == "dem" else 3
        corr = Corrector.network(clipped_net(EX1_NET, seed=7), q)
        step, base = (dem_step, euler_step) if method == "dem" else (dhm_step, heun_step)
        for _ in range(20):
            x, h = rng.uniform(0.0, 9.0), rng.uniform(0.01, 1.0)
            y = rng.normal(size=1)
            want = base(prob, x, y, h) + h**q * reference_forward(
                corr.params, np.concatenate(([x, x + h], y))
            )
            assert step(prob, corr, x, y, h).tobytes() == want.tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_direct_step_rejects_non_finite_state(self, bad):
        # The right-hand side ignores y, so only the state check can see it.
        prob = OdeProblem(name="drift", dim=1, rhs=lambda x, y: np.ones(1), domain=(0.0, 1.0),
                          initial=np.zeros(1))
        corr = Corrector.network(clipped_net(EX1_NET, seed=0), 2)
        with pytest.raises(NonFiniteState):
            dem_step(prob, corr, 0.5, np.array([bad]), 0.1)


class TestNonFiniteMidSolve:
    """A blow-up under a network stepper is reported with its step and x, and no warning."""

    @staticmethod
    def problem(rhs):
        return OdeProblem(name="blowup", dim=1, rhs=rhs, domain=(0.0, 1.0),
                          initial=np.array([1.0]))

    @pytest.mark.parametrize(
        "rhs, step",
        [
            (lambda x, y: y * (np.nan if x > 0.55 else 1.0), 6),  # NaN from x = 0.6 on
            (lambda x, y: y * y * 1e200, 1),  # y_1 is about 1e199, so y_1^2 overflows
        ],
        ids=["nan", "overflow"],
    )
    def test_reports_step_and_x(self, rhs, step):
        prob = self.problem(rhs)
        corr = Corrector.network(clipped_net(EX1_NET, seed=1), 2)
        schedule = StepSchedule.uniform(0.1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteState) as info:
                solve_dem(prob, corr, schedule)
        assert info.value.step == step
        assert info.value.x == schedule.mesh(0.0, 1.0)[step]
