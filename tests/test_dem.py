"""Corrected steppers: zero/oracle/network correctors and solve loops."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.linalg import expm
from test_mlp import MODERATE, networks, reference_forward_one

from deep_euler.dataset import NoiseSpec, PairPolicy, build_pairs, sample_measurements
from deep_euler.dem import Corrector, make_corrected_stepper, solve_dem, solve_dhm
from deep_euler.errors import NonFiniteState, ShapeError
from deep_euler.metrics import eps_mean, eps_series, max_abs_error
from deep_euler.mlp import MlpParams, clip_weights, init, lipschitz_bound
from deep_euler.ode import (
    BASE_METHODS,
    EULER,
    HEUN,
    BaseMethod,
    OdeProblem,
    StepSchedule,
    euler_increment,
    euler_step,
    flow,
    heun_step,
    restrict,
    solve_fixed,
)


def step_once(method, problem, corrector, x, y, h):
    """One corrected step of ``method`` from (x, y), through a freshly bound stepper."""
    return make_corrected_stepper(method, corrector, problem)(problem, x, y, h)


def constant_network(dim, value):
    """Single-layer net with zero weights: N(anything) == value."""
    return MlpParams(
        (dim + 2, dim),
        (np.zeros((dim, dim + 2)),),
        (np.full(dim, float(value)),),
    )


class TestZeroCorrector:
    @staticmethod
    def check_reduces_to_base(method, base_step, problems, rng):
        """A zero corrector leaves the base step unchanged, bit for bit."""
        assert method.step == base_step
        zero = Corrector.zero(method.exponent)
        for prob in (problems["example1"], problems["kepler"]):
            stepper = make_corrected_stepper(method, zero, prob)
            for _ in range(10):
                x = rng.uniform(0.0, 9.0)
                y = rng.normal(size=prob.dim)
                h = rng.uniform(0.01, 1.0)
                want = base_step(prob, x, y, h)
                assert np.array_equal(stepper(prob, x, y, h), want)
                assert np.array_equal(y + h * method.increment(prob, x, y, h), want)

    def test_dem_reduces_to_euler_bitwise(self, problems, rng):
        self.check_reduces_to_base(EULER, euler_step, problems, rng)

    def test_dhm_reduces_to_heun_bitwise(self, problems, rng):
        self.check_reduces_to_base(HEUN, heun_step, problems, rng)

    def test_method_table_has_only_euler_and_heun(self):
        assert set(BASE_METHODS.values()) == {EULER, HEUN}


def rk4_increment(problem, x, y, h):
    """The classical Runge-Kutta increment, (k1 + 2 k2 + 2 k3 + k4) / 6."""
    k1 = euler_increment(problem, x, y, h)
    k2 = euler_increment(problem, x + h / 2, y + h / 2 * k1, h)
    k3 = euler_increment(problem, x + h / 2, y + h / 2 * k2, h)
    k4 = euler_increment(problem, x + h, y + h * k3, h)
    return (k1 + 2 * k2 + 2 * k3 + k4) / 6


def test_a_new_base_method_is_one_row(monkeypatch, problems):
    # RK4 needs its increment and one row of BASE_METHODS, nothing else.
    rk4 = BaseMethod("rk4", rk4_increment, order=4, corrected="drk4")
    monkeypatch.setitem(BASE_METHODS, "rk4", rk4)
    ex1, schedule = problems["example1"], StepSchedule.uniform(0.5)
    oracle = make_corrected_stepper(rk4, Corrector.oracle(ex1, 5), ex1)
    assert max_abs_error(solve_fixed(ex1, schedule, oracle), ex1.exact) < 1e-9
    assert max_abs_error(solve_fixed(ex1, schedule, rk4.step), ex1.exact) > 1e-3
    measurements = sample_measurements(ex1, (0.0, 5.0), 20, NoiseSpec(), seed=0)
    _, targets = build_pairs(ex1, measurements, PairPolicy.all_pairs(), "rk4")
    assert targets.shape == (190, 1) and np.isfinite(targets).all()
    eps = eps_mean(Corrector.network(init((3, 8, 1), seed=0), 5), ex1, schedule)
    assert math.isfinite(eps)


class TestOracleCorrector:
    def test_single_step_reproduces_exact_value(self, problems):
        prob = problems["example1"]
        y1 = step_once(EULER, prob, Corrector.oracle(prob, 2), 0.0, np.array([0.0]), 1.0)
        assert y1[0] == pytest.approx(2.0**1.5 * math.log(2.0), abs=1e-12)

    def test_generic_first_order_step_on_exponential(self, exp_problem):
        got = step_once(
            EULER, exp_problem, Corrector.oracle(exp_problem, 2), 0.0, np.array([1.0]), 0.5
        )
        assert got[0] == pytest.approx(math.exp(0.5), abs=1e-12)

    def test_heun_variant_reproduces_exact_step(self, problems):
        prob = problems["kepler"]
        y1 = step_once(HEUN, prob, Corrector.oracle(prob, 3), 0.0, prob.initial, 0.5)
        assert np.allclose(y1, prob.exact(0.5), atol=1e-12)

    def test_full_solve_stays_on_exact_trajectory(self, problems):
        prob = problems["example1"]
        traj = solve_dem(prob, Corrector.oracle(prob, 2), StepSchedule.uniform(0.1))
        assert max_abs_error(traj, prob.exact) <= 1e-9

    @settings(max_examples=20, deadline=None)
    @given(data=st.data(), dim=st.integers(2, 4), h=st.sampled_from([0.1, 0.25, 0.5]))
    def test_exact_on_random_linear_systems(self, data, dim, h):
        # Entries in [-1, 1] bound the spectral radius by dim, so |y| stays below e^4 |y0|.
        a = data.draw(arrays(np.float64, (dim, dim), elements=st.floats(-1.0, 1.0)), label="A")
        y0 = data.draw(arrays(np.float64, dim, elements=st.floats(-1.0, 1.0)), label="y0")
        prob = OdeProblem(name="linear", dim=dim, rhs=lambda x, y: a @ y, domain=(0.0, 1.0),
                          initial=y0, exact=lambda x: expm(a * x) @ y0)
        for solve, q in ((solve_dem, 2), (solve_dhm, 3)):
            traj = solve(prob, Corrector.oracle(prob, q), StepSchedule.uniform(h))
            truth = np.array([prob.exact(x) for x in traj.xs])
            assert np.max(np.abs(traj.ys - truth)) <= 1e-9

    def test_requires_exact_solution(self, problems):
        with pytest.raises(ValueError):
            Corrector.oracle(problems["lotka_volterra"], 2)

    def test_offset_injects_known_error(self, exp_problem):
        corr = Corrector.oracle(exp_problem, 2)
        plain = step_once(EULER, exp_problem, corr, 0.0, np.array([1.0]), 0.5)
        corr = Corrector.oracle(exp_problem, 2, offset=0.01)
        shifted = step_once(EULER, exp_problem, corr, 0.0, np.array([1.0]), 0.5)
        assert shifted[0] - plain[0] == pytest.approx(0.01 * 0.25, rel=1e-12)


class TestNetworkCorrector:
    def test_constant_network_adds_h_squared_times_value(self, exp_problem):
        corr = Corrector.network(constant_network(1, 2.0), 2)
        y, h = np.array([1.0]), 0.25
        got = step_once(EULER, exp_problem, corr, 0.0, y, h)
        assert got[0] == pytest.approx(euler_step(exp_problem, 0.0, y, h)[0] + h * h * 2.0)

    def test_shape_mismatch_rejected(self, problems):
        corr = Corrector.network(init([3, 8, 1], seed=0), 2)  # fits dim 1, not 4
        with pytest.raises(ShapeError, match=r"network maps 3 -> 1, problem needs 6 -> 4"):
            step_once(EULER, problems["kepler"], corr, 0.0, problems["kepler"].initial, 0.1)

    def test_network_receives_x_xnext_y(self, problems):
        # Weight rows pick out individual inputs, making the wiring visible.
        prob = problems["example1"]
        w = np.array([[1.0, 0.0, 0.0]])
        params = MlpParams((3, 1), (w,), (np.zeros(1),))
        h = 0.5
        base = euler_step(prob, 2.0, np.array([3.0]), h)
        got = step_once(EULER, prob, Corrector.network(params, 2), 2.0, np.array([3.0]), h)
        assert got[0] == pytest.approx(base[0] + h * h * 2.0)  # picks x
        w2 = np.array([[0.0, 1.0, 0.0]])
        params2 = MlpParams((3, 1), (w2,), (np.zeros(1),))
        got2 = step_once(EULER, prob, Corrector.network(params2, 2), 2.0, np.array([3.0]), h)
        assert got2[0] == pytest.approx(base[0] + h * h * 2.5)  # picks x + h


class TestGenericCorrectedStep:
    @staticmethod
    def check_one_step_solve(method, solve, prob, corr, rng):
        """A stepper bound to ``method`` takes the step that ``solve`` takes
        over a one-step mesh, bit for bit."""
        stepper = make_corrected_stepper(method, corr, prob)
        for _ in range(5):
            x, h = rng.uniform(0.0, 8.0), rng.uniform(0.01, 1.0)
            y = rng.normal(size=prob.dim)
            one_step = replace(prob, domain=(x, x + h), initial=y, exact=None)
            # The domain's own length: a bare h can exceed it by one ulp.
            span = (x + h) - x
            traj = solve(one_step, corr, StepSchedule.uniform(span))
            assert len(traj) == 2
            assert np.array_equal(stepper(prob, x, y, span), traj.ys[1])

    def test_first_order_instance_equals_dem_bitwise(self, problems, rng):
        corr = Corrector.network(constant_network(1, 0.7), 2)
        self.check_one_step_solve(EULER, solve_dem, problems["example1"], corr, rng)

    def test_second_order_instance_equals_dhm_bitwise(self, problems, rng):
        corr = Corrector.network(constant_network(4, -0.3), 3)
        self.check_one_step_solve(HEUN, solve_dhm, problems["kepler"], corr, rng)

    def test_order_mismatch_rejected(self, exp_problem):
        for method in BASE_METHODS.values():
            for q in {2, 3} - {method.exponent}:
                message = (rf"corrector exponent {q} does not match {method.name} "
                           rf"order {method.order} \+ 1")
                for corr in (Corrector.zero(q), Corrector.network(constant_network(1, 0.0), q)):
                    with pytest.raises(ShapeError, match=message):
                        make_corrected_stepper(method, corr, exp_problem)
        with pytest.raises(ShapeError, match=r"corrector exponent 2 does not match heun order"):
            solve_dhm(exp_problem, Corrector.network(constant_network(1, 0.0), 2),
                      StepSchedule.uniform(0.5))

    def test_exponent_below_two_rejected(self):
        with pytest.raises(ShapeError, match="no base method has order exponent 1"):
            Corrector.zero(1)

    def test_exponent_without_a_base_method_rejected_when_built(self, exp_problem):
        assert {m.exponent for m in BASE_METHODS.values()} == {2, 3}
        builds = [lambda: Corrector.network(constant_network(1, 0.0), 4),
                  lambda: Corrector.zero(4), lambda: Corrector.oracle(exp_problem, 4)]
        for build in builds:
            with pytest.raises(ShapeError, match="no base method has order exponent 4"):
                build()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown corrector kind 'table'"):
            Corrector("table", 2)

    @pytest.mark.parametrize("kind, with_params", [("network", False), ("oracle", True),
                                                   ("zero", True)])
    def test_params_given_exactly_for_a_network(self, kind, with_params):
        # Unchecked, a network without params passes here and ends in an
        # AttributeError once solve_dem binds it.
        params = constant_network(1, 0.4) if with_params else None
        with pytest.raises(ValueError, match="params exactly when its kind is 'network'"):
            Corrector(kind, 2, params=params)


class TestSolveLoops:
    def test_solve_dem_equals_manual_iteration(self, exp_problem):
        corr = Corrector.network(constant_network(1, 0.4), 2)
        traj = solve_dem(exp_problem, corr, StepSchedule.uniform(0.25))
        y = exp_problem.initial
        for m in range(4):
            y = step_once(EULER, exp_problem, corr, 0.25 * m, y, 0.25)
            assert np.array_equal(traj.ys[m + 1], y)

    def test_solve_dhm_on_restricted_interval(self, problems):
        prob = restrict(problems["kepler"], 15.0, 20.0)
        traj = solve_dhm(prob, Corrector.oracle(prob, 3), StepSchedule.uniform(1.0))
        assert traj.xs[0] == 15.0 and traj.xs[-1] == 20.0
        assert max_abs_error(traj, problems["kepler"].exact) <= 1e-9


class TestErrorBound:
    """The paper's global error bound for DEM. With eps the largest gap
    |N - R_m| along the truth (R_m the scaled Euler defect), L the Lipschitz
    constant of f and L_N that of the network, one step gives
    |e_{m+1}| <= (1 + hL + h^2 L_N)|e_m| + h^2 eps, so that
    |e_m| <= h eps (e^{K(x_m - a)} - 1) / K with K = L + h L_N."""

    @settings(max_examples=50, deadline=None)
    @given(lam=st.floats(-3.0, -0.1), seed=st.integers(0, 2**16), clip=st.floats(0.3, 1.5),
           h=st.sampled_from([0.05, 0.1, 0.2, 0.5]))
    def test_dem_error_within_bound(self, lam, seed, clip, h):
        problem = OdeProblem(name="decay", dim=1, rhs=lambda x, y: lam * y, domain=(0.0, 3.0),
                             initial=np.array([1.0]), exact=lambda x: np.array([math.exp(lam * x)]))
        params = clip_weights(init([3, 16, 16, 1], seed), clip)
        corrector = Corrector.network(params, 2)
        schedule = StepSchedule.uniform(h)
        traj = solve_dem(problem, corrector, schedule)
        errors = np.abs(traj.ys[:, 0] - np.exp(lam * traj.xs))
        eps = np.max(eps_series(corrector, problem, schedule)[1])
        k = abs(lam) + h * lipschitz_bound(params)
        assert np.all(errors <= h * eps * np.expm1(k * (traj.xs - problem.domain[0])) / k)


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
        step, base = (EULER, euler_step) if method == "dem" else (HEUN, heun_step)
        for _ in range(20):
            x, h = rng.uniform(0.0, 9.0), rng.uniform(0.01, 1.0)
            y = rng.normal(size=1)
            want = base(prob, x, y, h) + h**q * reference_forward(
                corr.params, np.concatenate(([x, x + h], y))
            )
            assert step_once(step, prob, corr, x, y, h).tobytes() == want.tobytes()


def linear_forced(dim):
    """y' = cos(x) - y / 2 in ``dim`` components, from y = 1/2 on [0, 2]."""
    return OdeProblem(name="forced", dim=dim, rhs=lambda x, y: np.cos(x) - 0.5 * y,
                      domain=(0.0, 2.0), initial=np.full(dim, 0.5))


class TestBoundPathProperties:
    """On any network, the bound stepper and its solves have the bytes of the
    public base step plus h^q times the per-layer forward."""

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), method=st.sampled_from([EULER, HEUN]), dim=st.integers(1, 4))
    def test_step_is_base_plus_scaled_forward_bitwise(self, data, method, dim):
        params = data.draw(networks(MODERATE, dim=dim), label="params")
        problem = linear_forced(dim)
        stepper = make_corrected_stepper(
            method, Corrector.network(params, method.exponent), problem)
        for _ in range(2):  # the second call reuses the bound buffers
            x = data.draw(st.floats(-5.0, 5.0), label="x")
            h = data.draw(st.floats(1e-3, 2.0), label="h")
            y = data.draw(arrays(np.float64, dim, elements=MODERATE), label="y")
            want = method.step(problem, x, y, h) + h**method.exponent * reference_forward_one(
                params, np.concatenate(([x, x + h], y)))
            assert stepper(problem, x, y, h).tobytes() == want.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), method=st.sampled_from(["dem", "dhm"]), dim=st.integers(1, 4),
           h=st.sampled_from([0.1, 0.25, 0.3, 0.7]))
    def test_solve_equals_public_step_loop_bitwise(self, data, method, dim, h):
        q = 2 if method == "dem" else 3
        params = data.draw(networks(st.floats(-1.0, 1.0), dim=dim), label="params")
        corr = Corrector.network(params, q)
        problem = linear_forced(dim)
        solve, base = (solve_dem, euler_step) if method == "dem" else (solve_dhm, heun_step)
        traj = solve(problem, corr, StepSchedule.uniform(h))
        xs, ys = reference_solve(problem, StepSchedule.uniform(h), base, corr)
        assert traj.xs.tobytes() == xs.tobytes()
        assert traj.ys.tobytes() == ys.tobytes()


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

    def test_correction_overflow_raises_without_warning(self, problems):
        # h^2 times a last bias of 1e308 overflows in the first step's correction.
        params = clipped_net(EX1_NET, seed=1)
        biases = params.biases[:-1] + (np.full(1, 1e308),)
        corr = Corrector.network(MlpParams(params.layer_widths, params.weights, biases), 2)
        before = np.geterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteState) as info:
                solve_dem(problems["example1"], corr, StepSchedule.uniform(2.0))
        assert (info.value.x, info.value.step) == (0.0, 0)
        assert str(info.value) == "non-finite state at x=0.0 (step 0)"
        assert np.geterr() == before
