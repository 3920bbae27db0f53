"""Problems, fixed-step integrators, schedules, and the reference solver."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import DOP853, RK45, solve_ivp  # test-only: what ode's solver reproduces

from deep_euler.errors import ConfigError, NonFiniteState, NumericalError
from deep_euler.ode import (
    EULER,
    HEUN,
    REFERENCE_TOL,
    OdeProblem,
    StepSchedule,
    Trajectory,
    builtin_problems,
    euler_step,
    evaluate_truth,
    flow,
    get_problem,
    heun_step,
    restrict,
    solve_fixed,
    solve_reference,
)


def scalar_problem(rhs, domain=(0.0, 1.0), y0=0.0, exact=None):
    return OdeProblem(
        name="scalar",
        dim=1,
        rhs=rhs,
        domain=domain,
        initial=np.array([float(y0)]),
        exact=exact,
    )


def count_errstates(monkeypatch, stepper):
    """How many times a solve of example1 at h = 0.1 with ``stepper`` enters
    numpy's error state."""
    entries = []
    errstate = np.errstate

    def counted(**kwargs):
        entries.append(kwargs)
        return errstate(**kwargs)

    monkeypatch.setattr(np, "errstate", counted)
    solve_fixed(get_problem("example1"), StepSchedule.uniform(0.1), stepper)
    return len(entries)


class TestSchedules:
    def test_uniform_exact_fit(self):
        xs = StepSchedule.uniform(2.0).mesh(0.0, 10.0)
        assert np.array_equal(xs, [0.0, 2.0, 4.0, 6.0, 8.0, 10.0])

    def test_uniform_representation_noise_still_fits(self):
        xs = StepSchedule.uniform(0.1).mesh(0.0, 10.0)
        assert len(xs) == 101
        assert xs[-1] == 10.0

    def test_uniform_final_step_clamped_to_b(self):
        xs = StepSchedule.uniform(0.3).mesh(0.0, 1.0)
        assert np.allclose(xs, [0.0, 0.3, 0.6, 0.9, 1.0])
        assert xs[-1] == 1.0

    @pytest.mark.parametrize("h", [0.0, -1.0, math.nan])
    def test_non_positive_step_rejected_however_built(self, h):
        for build in (StepSchedule, StepSchedule.uniform):
            with pytest.raises(ValueError, match="must be positive"):
                build(h)

    def test_uniform_step_larger_than_interval_rejected(self):
        with pytest.raises(ValueError):
            StepSchedule.uniform(3.0).mesh(0.0, 1.0)

    @pytest.mark.parametrize("h", [1e-320, 5e-324, 1e-300, 2.2e-18])
    def test_step_too_small_to_count_rejected(self, h):
        # span / h overflows to inf, or passes intp.max // 8, the most points
        # a float64 array can hold: no mesh of that many steps exists.
        with pytest.raises(ValueError, match=f"^step {h} is too small for interval length 10.0$"):
            StepSchedule.uniform(h).mesh(0.0, 10.0)

    @settings(max_examples=300, deadline=None)
    @given(
        a=st.floats(-1e3, 1e3),
        span=st.floats(1e-3, 1e3),
        steps=st.floats(1.0, 1e4),
    )
    def test_uniform_mesh_spans_rises_and_keeps_step(self, a, span, steps):
        b = a + span
        h = (b - a) / steps
        xs = StepSchedule.uniform(h).mesh(a, b)
        assert xs[0] == a and xs[-1] == b
        assert np.all(np.diff(xs) > 0)
        # a + k h rounds at the scale of the endpoints, and the last step may
        # stretch by the 1e-12 relative fit tolerance to land on b.
        slack = 4 * np.spacing(max(abs(a), abs(b))) + 1e-12 * (b - a)
        assert np.max(np.diff(xs)) <= h + slack


class TestSteppers:
    def test_euler_zero_field_fixed_point(self):
        prob = scalar_problem(lambda x, y: np.zeros(1), y0=3.0)
        assert np.array_equal(euler_step(prob, 0.0, np.array([3.0]), 0.5), [3.0])

    def test_euler_constant_slope(self):
        prob = scalar_problem(lambda x, y: np.ones(1))
        assert np.allclose(euler_step(prob, 0.0, np.array([0.0]), 0.1), [0.1])

    def test_heun_zero_field(self):
        prob = scalar_problem(lambda x, y: np.zeros(1), y0=3.0)
        assert np.array_equal(heun_step(prob, 0.0, np.array([3.0]), 0.5), [3.0])

    def test_heun_two_term_expansion(self, exp_problem):
        # k1 = 1, k2 = 2, so y1 = 1 + (1/2)(1 + 2).
        assert np.allclose(heun_step(exp_problem, 0.0, np.array([1.0]), 1.0), [2.5])

    def test_heun_matches_hand_expansion(self):
        # For f(x, y) = x + y one Heun step expands to
        # y + h(x+y) + (h^2/2)(1 + x + y).
        prob = scalar_problem(lambda x, y: x + y)
        rng = np.random.default_rng(3)
        for _ in range(20):
            x, y, h = rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(0.01, 1.5)
            got = heun_step(prob, x, np.array([y]), h)[0]
            want = y + h * (x + y) + 0.5 * h * h * (1.0 + x + y)
            assert got == pytest.approx(want, rel=1e-13)

    def test_non_finite_rhs_reports_location(self):
        def rhs(x, y):
            return np.array([math.inf]) if x > 0.5 else np.ones(1)

        prob = scalar_problem(rhs)
        with pytest.raises(NonFiniteState) as exc:
            euler_step(prob, 0.75, np.array([0.0]), 0.1)
        assert exc.value.x == 0.75

    @pytest.mark.parametrize("stepper", [euler_step, heun_step], ids=["euler_step", "heun_step"])
    @pytest.mark.parametrize(
        "rhs",
        [
            lambda x, y: y * y * 1e300,  # 1e320 overflows
            lambda x, y: y * 1e300 * 1e300 - y * 1e300 * 1e300,  # inf - inf is invalid
        ],
        ids=["overflow", "invalid"],
    )
    def test_overflowing_rhs_raises_without_warning(self, stepper, rhs):
        prob = scalar_problem(rhs, y0=1e10)
        before = np.geterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteState) as exc:
                stepper(prob, 0.25, np.array([1e10]), 0.1)
        assert exc.value.x == 0.25
        assert np.geterr() == before  # the error state is restored on the way out


# Float64 values for the finiteness checks: NaN, both infinities, both
# zeros, subnormals, the largest finite values and ordinary numbers.
SPECIAL_FLOATS = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324,
                     2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True, max_value=1e-300,
              min_value=-1e-300),
)


class TestFiniteChecks:
    """A one-state rhs and a solve's post-step check test Python floats,
    not np.isfinite; both must agree with np.isfinite(a).all()."""

    @settings(max_examples=200, deadline=None)
    @given(values=st.lists(SPECIAL_FLOATS, min_size=1, max_size=6))
    def test_rhs_check_agrees_with_isfinite(self, values):
        a = np.array(values)
        prob = OdeProblem("const", len(a), lambda x, y: a.copy(), (0.0, 1.0), np.zeros(len(a)))
        if np.isfinite(a).all():
            assert np.array_equal(euler_step(prob, 0.0, np.zeros(len(a)), 1.0), a)
        else:
            with pytest.raises(NonFiniteState) as exc:
                euler_step(prob, 0.0, np.zeros(len(a)), 1.0)
            assert exc.value.x == 0.0 and exc.value.step is None

    @settings(max_examples=200, deadline=None)
    @given(values=st.lists(SPECIAL_FLOATS, min_size=1, max_size=6))
    def test_post_step_check_agrees_with_isfinite(self, values):
        a = np.array(values)
        prob = OdeProblem("const", len(a), lambda x, y: y, (0.0, 1.0), np.zeros(len(a)))
        schedule = StepSchedule.uniform(0.5)
        if np.isfinite(a).all():
            traj = solve_fixed(prob, schedule, lambda problem, x, y, h: a)
            assert traj.ys[1:].tobytes() == np.stack([a, a]).tobytes()
        else:
            with pytest.raises(NonFiniteState) as exc:
                solve_fixed(prob, schedule, lambda problem, x, y, h: a)
            assert (exc.value.x, exc.value.step) == (0.0, 0)


class TestSolveFixed:
    def test_single_step_trajectory_has_two_points(self):
        prob = scalar_problem(lambda x, y: np.ones(1))
        traj = solve_fixed(prob, StepSchedule.uniform(1.0), euler_step)
        assert len(traj) == 2
        assert traj.xs[0] == 0.0 and traj.xs[-1] == 1.0

    def test_zero_field_gives_constant_trajectory(self):
        prob = scalar_problem(lambda x, y: np.zeros(1), y0=2.5)
        for stepper in (euler_step, heun_step):
            traj = solve_fixed(prob, StepSchedule.uniform(0.1), stepper)
            assert np.array_equal(traj.ys, np.full((11, 1), 2.5))

    def test_non_finite_state_carries_step_index(self):
        def rhs(x, y):
            return np.array([math.nan]) if x >= 0.3 else np.ones(1)

        prob = scalar_problem(rhs)
        with pytest.raises(NonFiniteState) as exc:
            solve_fixed(prob, StepSchedule.uniform(0.1), euler_step)
        assert exc.value.step == 3

    def test_heun_second_stage_reports_its_abscissa_and_step(self):
        # f is finite at x = 0.25 and infinite from x = 0.5 on, so step 1's
        # second stage, at x + h = 0.5, is the first bad evaluation.
        def rhs(x, y):
            return np.array([math.inf]) if x >= 0.5 else np.ones(1)

        before = np.geterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteState) as exc:
                solve_fixed(scalar_problem(rhs), StepSchedule.uniform(0.25), heun_step)
        assert (exc.value.x, exc.value.step) == (0.5, 1)
        assert str(exc.value) == "non-finite state at x=0.5 (step 1)"
        assert np.geterr() == before

    @pytest.mark.parametrize("stepper", [euler_step, heun_step, EULER.step, HEUN.step],
                             ids=["euler_step", "heun_step", "EULER.step", "HEUN.step"])
    def test_public_step_enters_the_error_state_once_per_solve(self, monkeypatch, stepper):
        # solve_fixed runs the row's advance inside its own error state.
        assert count_errstates(monkeypatch, stepper) == 1

    def test_other_stepper_enters_the_error_state_once_per_step(self, monkeypatch):
        # 100 steps, each under the public step's own, plus the solve's.
        assert count_errstates(monkeypatch, lambda *args: euler_step(*args)) == 101

    @settings(max_examples=100, deadline=None)
    @given(method=st.sampled_from(["euler", "heun"]), dim=st.integers(1, 4),
           j=st.integers(0, 7))
    def test_rhs_overflow_mid_solve_raises_quietly(self, method, dim, j):
        # From x_j = j / 4 on, f overflows inside numpy (1e300 * 1e300); before
        # it, f = y / 2. The mesh points are exact, and so is Heun's second
        # abscissa x + h, so Heun meets x_j one step early, in its second stage.
        x_j = 0.25 * j
        prob = OdeProblem("late_overflow", dim,
                          lambda x, y: y * 1e300 * 1e300 if x >= x_j else 0.5 * y,
                          (0.0, 2.0), np.linspace(1.0, 2.0, dim))
        stepper = euler_step if method == "euler" else heun_step
        expected = (x_j, j if method == "euler" else max(j - 1, 0))
        before = np.geterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteState) as exc:
                solve_fixed(prob, StepSchedule.uniform(0.25), stepper)
            assert (exc.value.x, exc.value.step) == expected
            assert np.geterr() == before
            with pytest.raises(NonFiniteState) as exc:
                stepper(prob, x_j, prob.initial, 0.25)
            assert (exc.value.x, exc.value.step) == (x_j, None)
        assert np.geterr() == before

    @pytest.mark.parametrize(
        "stepper,expected_ratio,tol",
        [(euler_step, 2.0, 0.2), (heun_step, 4.0, 0.4)],
        ids=["euler_step-2.0-0.2", "heun_step-4.0-0.4"],
    )
    def test_error_ratio_under_step_halving(self, exp_problem, stepper, expected_ratio, tol):
        errors = []
        for h in (0.1, 0.05, 0.025, 0.0125):
            traj = solve_fixed(exp_problem, StepSchedule.uniform(h), stepper)
            truth = evaluate_truth(exp_problem, traj.xs)
            errors.append(np.max(np.abs(traj.ys - truth)))
        for coarse, fine in zip(errors, errors[1:]):
            assert coarse / fine == pytest.approx(expected_ratio, abs=tol)


class TestBenchmarkErrors:
    """Full-interval errors of the classical methods on the first benchmark
    problem; the expected magnitudes are the published comparison values."""

    @pytest.mark.parametrize(
        "h,expected", [(0.01, 0.42), (0.1, 4.05), (1.0, 28.42), (2.0, 43.16)]
    )
    def test_euler_errors(self, problems, h, expected):
        prob = problems["example1"]
        traj = solve_fixed(prob, StepSchedule.uniform(h), euler_step)
        truth = evaluate_truth(prob, traj.xs)
        assert np.max(np.abs(traj.ys - truth)) == pytest.approx(expected, rel=0.02)

    @pytest.mark.parametrize(
        "h,expected", [(0.01, 0.0017), (0.1, 0.15), (1.0, 8.10), (2.0, 18.78)]
    )
    def test_heun_errors(self, problems, h, expected):
        prob = problems["example1"]
        traj = solve_fixed(prob, StepSchedule.uniform(h), heun_step)
        truth = evaluate_truth(prob, traj.xs)
        assert np.max(np.abs(traj.ys - truth)) == pytest.approx(expected, rel=0.05)


class TestReferenceSolver:
    def test_example1_closed_form_value(self, problems):
        traj = solve_reference(problems["example1"], [1.0])
        assert traj.ys[0, 0] == pytest.approx(2.0**1.5 * math.log(2.0), abs=1e-5)

    def test_exponential(self, exp_problem):
        traj = solve_reference(exp_problem, [1.0])
        assert traj.ys[0, 0] == pytest.approx(math.e, abs=1e-5)

    def test_kepler_half_orbit(self, problems):
        traj = solve_reference(problems["kepler"], [math.pi])
        assert np.allclose(traj.ys[0], [-1.0, 0.0, 0.0, -1.0], atol=1e-4)

    @pytest.mark.parametrize("name,cap", [("example1", 5e-5), ("kepler", 2e-3)])
    def test_tracks_exact_within_cap(self, problems, name, cap):
        # Per-step error control at the 1e-6 reference tolerance does not
        # bound the global error by the tolerance itself; over these horizons
        # the accumulated deviation stays within the caps.
        prob = problems[name]
        a, b = prob.domain
        queries = np.linspace(a + 0.1, b, 40)
        truth = np.stack([prob.exact(x) for x in queries])
        traj = solve_reference(prob, queries)
        assert np.max(np.abs(traj.ys - truth)) <= cap

    def test_min_step_failure_on_blowup(self):
        # y' = y^2 from y(0)=1 blows up at x=1; pushing past it must fail.
        prob = scalar_problem(lambda x, y: y * y, domain=(0.0, 2.0), y0=1.0)
        with pytest.raises(NumericalError, match="reference solve failed near x="):
            solve_reference(prob, [2.0])

    def test_local_flow_past_a_blowup_fails_without_warning(self):
        prob = scalar_problem(lambda x, y: y * y, domain=(0.0, 2.0), y0=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="local solve failed"):
                flow(prob, 0.0, prob.initial, 2.0)

    def test_local_flow_over_an_empty_span_is_the_start_and_backward_refused(self, problems):
        prob = problems["kepler"]
        y0 = prob.exact(1.5)
        assert np.array_equal(flow(prob, 1.5, y0, 1.5), y0)
        with pytest.raises(ValueError, match="cannot integrate backward"):
            flow(prob, 1.5, y0, 1.0)

    def test_query_points_validated(self, problems):
        with pytest.raises(ValueError):
            solve_reference(problems["example1"], [2.0, 1.0])
        with pytest.raises(ValueError):
            solve_reference(problems["example1"], [9.0, 11.0])
        with pytest.raises(ValueError, match="non-empty"):
            solve_reference(problems["example1"], [])


def scipy_reference(problem, q):
    """The reference solve by scipy's solve_ivp at the settings of solve_reference."""
    sol = solve_ivp(problem.rhs, (problem.domain[0], q[-1]), problem.initial, method="RK45",
                    rtol=REFERENCE_TOL, atol=REFERENCE_TOL, dense_output=True)
    assert sol.success
    return sol.sol(q).T


def scipy_flow(method, problem, x0, y0, x1):
    """A local flow by scipy's ``method`` at the tolerances of ``flow``."""
    solver = method(problem.rhs, x0, y0, x1, rtol=2.5e-14, atol=1e-14)
    while solver.status == "running":
        solver.step()
    assert solver.status == "finished"
    return solver.y


def linear_problem(seed, dim):
    """y' = M y + c x on [0, 3], with M, c and y(0) drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    m, c = rng.uniform(-2.0, 2.0, size=(dim, dim)), rng.uniform(-1.0, 1.0, size=dim)
    return OdeProblem("linear", dim, lambda x, y: m @ y + c * x, (0.0, 3.0),
                      rng.uniform(-1.0, 1.0, size=dim)), rng


class TestSameAsScipy:
    """The Dormand-Prince 5(4) solver of ``ode`` reproduces solve_ivp's RK45 bit
    for bit, and its local flow agrees with DOP853, the flow it replaced."""

    @pytest.mark.parametrize("spacing", [0.002, 0.01, 0.1, 0.37])
    @pytest.mark.parametrize("name", ["example1", "lotka_volterra", "kepler"])
    def test_reference_solve_bit_for_bit(self, problems, name, spacing):
        problem = problems[name]
        a, b = problem.domain
        for q in (np.arange(a, b, spacing), StepSchedule.uniform(spacing).mesh(a, b),
                  np.arange(a + spacing / 3, b / 2, spacing)):
            assert solve_reference(problem, q).ys.tobytes() == scipy_reference(problem, q).tobytes()

    @settings(max_examples=40, deadline=None)
    @given(dim=st.integers(1, 4), seed=st.integers(0, 2**32 - 1), size=st.integers(1, 30))
    def test_reference_solve_bit_for_bit_on_linear_systems(self, dim, seed, size):
        problem, rng = linear_problem(seed, dim)
        q = np.unique(rng.uniform(0.0, 3.0, size=size))
        assert solve_reference(problem, q).ys.tobytes() == scipy_reference(problem, q).tobytes()

    @pytest.mark.parametrize("name, x0, h", [("example1", 1.0, 0.1), ("example1", 0.0, 2.0),
                                             ("example1", 7.5, 1e-3), ("kepler", 3.0, 0.5),
                                             ("kepler", 0.0, 0.01), ("kepler", 12.0, 2.0)])
    def test_local_flow_agrees_with_dop853(self, problems, name, x0, h):
        problem = problems[name]
        y0 = problem.exact(x0)
        got, want = flow(problem, x0, y0, x0 + h), scipy_flow(DOP853, problem, x0, y0, x0 + h)
        assert np.all(np.abs(got - want) <= 1e-13 * (1.0 + np.abs(want)))
        assert got.tobytes() == scipy_flow(RK45, problem, x0, y0, x0 + h).tobytes()

    @settings(max_examples=40, deadline=None)
    @given(dim=st.integers(1, 4), seed=st.integers(0, 2**32 - 1),
           x0=st.floats(0.0, 2.5), h=st.floats(1e-3, 0.5))
    def test_local_flow_agrees_with_dop853_on_linear_systems(self, dim, seed, x0, h):
        problem, rng = linear_problem(seed, dim)
        y0 = rng.uniform(-1.0, 1.0, size=dim)
        got, want = flow(problem, x0, y0, x0 + h), scipy_flow(DOP853, problem, x0, y0, x0 + h)
        assert np.all(np.abs(got - want) <= 1e-13 * (1.0 + np.abs(want)))
        assert got.tobytes() == scipy_flow(RK45, problem, x0, y0, x0 + h).tobytes()


class TestRegistry:
    def test_exactly_three_problems(self, problems):
        assert set(problems) == {"example1", "lotka_volterra", "kepler"}

    def test_example1_initial_value(self, problems):
        assert problems["example1"].exact(0.0) == pytest.approx([0.0])

    def test_kepler_exact_initial(self, problems):
        assert np.array_equal(problems["kepler"].exact(0.0), [1.0, 0.0, 0.0, 1.0])

    def test_kepler_exact_is_circular_orbit(self, problems):
        x = 0.83
        assert np.allclose(
            problems["kepler"].exact(x),
            [math.cos(x), math.sin(x), -math.sin(x), math.cos(x)],
        )

    def test_lotka_volterra_rhs_at_initial(self, problems):
        rhs = problems["lotka_volterra"].rhs(0.0, np.array([2.0, 1.0]))
        assert np.allclose(rhs, [0.0, 1.0])

    def test_unknown_name(self):
        with pytest.raises(ConfigError, match="unknown problem 'vanderpol'; available: "):
            get_problem("vanderpol")

    @settings(max_examples=60, deadline=None)
    @given(
        name=st.sampled_from(["example1", "lotka_volterra", "kepler"]),
        size=st.integers(1, 8),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_rhs_on_a_batch_equals_column_calls(self, name, size, seed):
        # Batches are component-major: x of shape (B,), y of shape (n, B).
        problem = get_problem(name)
        rng = np.random.default_rng(seed)
        xs = rng.uniform(*problem.domain, size=size)
        ys = rng.uniform(0.25, 3.0, size=(problem.dim, size))
        batch = problem.rhs(xs, ys)
        columns = np.column_stack([problem.rhs(x, y) for x, y in zip(xs.tolist(), ys.T)])
        assert batch.shape == ys.shape
        if name == "kepler":
            # Array r^1.5 and scalar pow may round differently.
            assert np.allclose(batch, columns, rtol=1e-14, atol=0.0)
        else:
            assert batch.tobytes() == columns.tobytes()


class TestProblemValidation:
    def test_exact_must_match_initial(self):
        with pytest.raises(ValueError):
            scalar_problem(
                lambda x, y: y.copy(), y0=0.0, exact=lambda x: np.array([1.0])
            )

    def test_domain_must_be_ordered(self):
        with pytest.raises(ValueError):
            scalar_problem(lambda x, y: y.copy(), domain=(1.0, 0.0))

    @pytest.mark.parametrize(
        "dim, initial, message",
        [(0, [], "dim must be a positive integer"), (2, [0.0], r"shape \(1,\), expected \(2,\)"),
         (1, [math.inf], "initial value must be finite")],
        ids=["dim_zero", "misshapen_initial", "infinite_initial"],
    )
    def test_dimension_and_initial_value_checked(self, dim, initial, message):
        with pytest.raises(ValueError, match=message):
            OdeProblem("bad", dim, lambda x, y: y, (0.0, 1.0), np.array(initial))

    def test_trajectory_requires_increasing_xs(self):
        with pytest.raises(ValueError):
            Trajectory(np.array([0.0, 0.5, 0.5]), np.zeros((3, 1)))
        with pytest.raises(ValueError, match="matching leading length"):
            Trajectory(np.array([0.0, 0.5]), np.zeros((3, 1)))

    def test_restrict_starts_from_ground_truth(self, problems):
        sub = restrict(problems["kepler"], 15.0, 20.0)
        assert sub.domain == (15.0, 20.0)
        assert np.allclose(sub.initial, problems["kepler"].exact(15.0))

    def test_restrict_rejects_outside_domain(self, problems):
        with pytest.raises(ValueError):
            restrict(problems["example1"], -1.0, 5.0)


def test_builtin_problems_returns_fresh_registry():
    assert builtin_problems() is not builtin_problems()
