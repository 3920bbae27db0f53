"""Error metrics, convergence-order fitting, and the stability scan."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from deep_euler import metrics
from deep_euler.dataset import PairPolicy, build_pairs
from deep_euler.dem import Corrector, make_corrected_stepper
from deep_euler.errors import NonFiniteState, ShapeError
from deep_euler.metrics import (
    convergence_order,
    eps_mean,
    eps_series,
    max_abs_error,
    region_mask,
    stability_scan,
)
from deep_euler.mlp import MlpParams, clip_weights, forward_batch, init, lipschitz_bound
from deep_euler.ode import (
    EULER,
    HEUN,
    OdeProblem,
    StepSchedule,
    Trajectory,
    euler_step,
    evaluate_truth,
    heun_step,
    solve_fixed,
)


def zero_network(dim):
    return MlpParams((dim + 2, dim), (np.zeros((dim, dim + 2)),), (np.zeros(dim),))


def network_corrector(weights):
    """An Euler corrector with these weight matrices and zero biases."""
    widths = (weights[0].shape[1], *(w.shape[0] for w in weights))
    return Corrector.network(MlpParams(widths, tuple(weights),
                                       tuple(np.zeros(w.shape[0]) for w in weights)), 2)


def clipped_linear_corrector(ln):
    """Linear single-layer net N(x_i, x_j, y) = ln * y, built via clipping."""
    raw = MlpParams((3, 1), (np.array([[0.0, 0.0, 2.0 * ln]]),), (np.zeros(1),))
    params = clip_weights(raw, ln)
    assert lipschitz_bound(params) == ln
    return Corrector.network(params, 2)


class TestMaxAbsError:
    def test_zero_when_trajectories_coincide(self, exp_problem):
        xs = np.linspace(0.0, 1.0, 5)
        traj = Trajectory(xs, np.stack([exp_problem.exact(x) for x in xs]))
        assert max_abs_error(traj, exp_problem.exact) == 0.0

    def test_constant_offset_single_component(self):
        xs = np.linspace(0.0, 1.0, 4)
        truth = np.zeros((4, 3))
        ys = truth.copy()
        ys[:, 1] += 0.3
        assert max_abs_error(Trajectory(xs, ys), truth) == pytest.approx(0.3)

    def test_accepts_callable_or_array(self, exp_problem):
        traj = solve_fixed(exp_problem, StepSchedule.uniform(0.25), euler_step)
        from_callable = max_abs_error(traj, exp_problem.exact)
        from_array = max_abs_error(traj, evaluate_truth(exp_problem, traj.xs))
        assert from_callable == pytest.approx(from_array, rel=1e-12)

    def test_euler_benchmark_value(self, problems):
        prob = problems["example1"]
        traj = solve_fixed(prob, StepSchedule.uniform(0.1), euler_step)
        assert max_abs_error(traj, prob.exact) == pytest.approx(4.05, rel=0.02)

    def test_monotone_under_componentwise_worsening(self):
        xs = np.linspace(0.0, 1.0, 4)
        truth = np.zeros((4, 2))
        mild = np.full((4, 2), 0.1)
        worse = mild.copy()
        worse[2, 1] = 0.5
        assert max_abs_error(Trajectory(xs, worse), truth) > max_abs_error(
            Trajectory(xs, mild), truth
        )

    def test_truth_of_another_shape_rejected(self):
        traj = Trajectory(np.linspace(0.0, 1.0, 4), np.zeros((4, 2)))
        with pytest.raises(ValueError, match=r"truth shape \(4, 1\) does not match"):
            max_abs_error(traj, np.zeros((4, 1)))


class TestEpsMean:
    def test_zero_network_on_zero_residual_problem(self):
        # Constant-slope field: data lie on lines, residuals vanish, so the
        # all-zero network matches them exactly.
        prob = OdeProblem(
            name="constant_slope", dim=1, rhs=lambda x, y: np.ones_like(y),
            domain=(0.0, 2.0), initial=np.array([0.0]),
            exact=lambda x: np.array([float(x)]),
        )
        corr = Corrector.network(zero_network(1), 2)
        assert eps_mean(corr, prob, StepSchedule.uniform(0.1)) == pytest.approx(0.0, abs=1e-13)

    def test_region_partition_covers_all_steps(self, problems):
        prob = problems["example1"]
        corr = Corrector.network(zero_network(1), 2)
        sched = StepSchedule.uniform(0.1)
        ends, gaps = eps_series(corr, prob, sched)
        whole = eps_mean(corr, prob, sched)
        lo = eps_mean(corr, prob, sched, region=(0.0, 5.0))
        hi = eps_mean(corr, prob, sched, region=(5.0, 10.0))
        assert len(ends) == 100
        assert whole == pytest.approx((lo + hi) / 2.0, rel=1e-12)

    def test_region_mean_is_masked_series_mean(self, problems):
        prob = problems["example1"]
        corr = Corrector.network(init([3, 4, 1], seed=2), 2)
        sched = StepSchedule.uniform(0.3)
        ends, gaps = eps_series(corr, prob, sched)
        for region in [(0.0, 5.0), (5.0, 10.0), (2.5, 3.5)]:
            mask = region_mask(ends, region)
            assert np.array_equal(mask, (ends > region[0]) & (ends <= region[1]))
            assert eps_mean(corr, prob, sched, region=region) == float(np.mean(gaps[mask]))

    def test_empty_region_rejected(self):
        with pytest.raises(ValueError, match=r"no mesh steps end inside \(5\.0, 5\.5\]"):
            region_mask(np.array([1.0, 5.0, 6.0]), (5.0, 5.5))

    def test_constant_network_against_known_residual(self, exp_problem):
        # For y' = y the scaled defect of one Euler step between exact values
        # is y_m (e^h - 1 - h) / h^2; a constant network makes the gap explicit.
        value = 0.7
        params = MlpParams((3, 1), (np.zeros((1, 3)),), (np.array([value]),))
        corr = Corrector.network(params, 2)
        h = 0.5
        ends, gaps = eps_series(corr, exp_problem, StepSchedule.uniform(h))
        scale = (math.exp(h) - 1.0 - h) / h**2
        for x_next, gap in zip(ends, gaps):
            y_m = math.exp(x_next - h)
            assert gap == pytest.approx(abs(value - y_m * scale), rel=1e-9)

    def test_requires_network_corrector(self, exp_problem):
        with pytest.raises(ValueError):
            eps_mean(Corrector.zero(2), exp_problem, StepSchedule.uniform(0.1))

    @pytest.mark.parametrize("method", [EULER, HEUN], ids=["euler", "heun"])
    @pytest.mark.parametrize("name", ["example1", "kepler"])
    def test_eps_is_the_gap_to_the_training_residual(self, problems, name, method):
        # eps compares the network with the very pairs it trains on: those of
        # consecutive mesh points, among all the pairs build_pairs forms of the truth.
        prob = problems[name]
        params = init([prob.dim + 2, 8, 8, prob.dim], seed=3)
        schedule = StepSchedule.uniform(0.5)
        xs = schedule.mesh(*prob.domain)
        inputs, targets = build_pairs(prob, (xs, evaluate_truth(prob, xs)),
                                      PairPolicy.all_pairs(), method)
        i, j = np.triu_indices(len(xs), k=1)
        assert len(inputs) == len(i)
        consecutive = j == i + 1
        gaps = np.abs(forward_batch(params, inputs[consecutive]) - targets[consecutive]).sum(axis=1)
        ends, eps = eps_series(Corrector.network(params, method.exponent), prob, schedule)
        assert np.array_equal(ends, xs[1:])
        assert eps.tobytes() == gaps.tobytes()

    @pytest.mark.parametrize("name, widths", [("kepler", [6, 4, 1]), ("example1", [3, 4])])
    def test_network_that_misfits_the_problem_rejected(self, problems, name, widths):
        corr = Corrector.network(init(widths, seed=0), 2)
        with pytest.raises(ShapeError, match=f"network maps {widths[0]} -> {widths[-1]}"):
            eps_series(corr, problems[name], StepSchedule.uniform(1.0))


class TestConvergenceOrder:
    def test_euler_is_first_order(self, exp_problem):
        est = convergence_order(exp_problem, euler_step, [0.1, 0.05, 0.025, 0.0125])
        assert not est.degenerate
        assert est.order == pytest.approx(1.0, abs=0.1)

    def test_heun_is_second_order(self, exp_problem):
        est = convergence_order(exp_problem, heun_step, [0.1, 0.05, 0.025, 0.0125])
        assert est.order == pytest.approx(2.0, abs=0.2)

    def test_oracle_corrected_stepper_is_degenerate(self, exp_problem):
        stepper = make_corrected_stepper(EULER, Corrector.oracle(exp_problem, 2), exp_problem)
        est = convergence_order(exp_problem, stepper, [0.1, 0.05, 0.025])
        assert est.degenerate
        assert est.order == math.inf

    def test_requires_halving_sequence(self, exp_problem):
        with pytest.raises(ValueError):
            convergence_order(exp_problem, euler_step, [0.1, 0.05])
        with pytest.raises(ValueError):
            convergence_order(exp_problem, euler_step, [0.1, 0.07, 0.035])
        with pytest.raises(ValueError, match="must halve"):
            convergence_order(exp_problem, euler_step, [0.4, 0.0, 0.1])


class TestStabilityScan:
    def test_plain_euler_boundary_at_two_fifths(self):
        results = dict(stability_scan(-5.0, Corrector.zero(2), [0.1, 0.2, 0.3, 0.4, 0.5]))
        assert results[0.1] and results[0.2] and results[0.3] and results[0.4]
        assert not results[0.5]

    def test_clipped_corrector_extends_boundary_to_five_sixths(self):
        corr = clipped_linear_corrector(6.0)
        grid = [0.4, 0.5, 0.8, 5.0 / 6.0, 0.85, 0.9]
        results = dict(stability_scan(-5.0, corr, grid))
        assert results[0.4] and results[0.5] and results[0.8] and results[5.0 / 6.0]
        assert not results[0.85] and not results[0.9]

    def test_vanishing_step_always_bounded(self):
        results = dict(stability_scan(-5.0, Corrector.zero(2), [1e-4, 1e-3]))
        assert all(results.values())

    def test_positive_lambda_rejected(self):
        with pytest.raises(ValueError):
            stability_scan(1.0, Corrector.zero(2), [0.1])

    def test_corrector_that_misfits_euler_or_dimension_one_rejected(self):
        with pytest.raises(ShapeError, match="corrector exponent 3 does not match euler order 1"):
            stability_scan(-5.0, Corrector.zero(3), [0.1])
        with pytest.raises(ShapeError, match="problem needs 3 -> 1"):
            stability_scan(-5.0, Corrector.network(init([4, 2], seed=0), 2), [0.1])

    @settings(max_examples=60, deadline=None)
    @given(
        lam=st.floats(-10.0, -0.5),
        grid=st.lists(st.floats(1e-3, 1.5), min_size=1, max_size=8),
        corrector=st.one_of(
            st.just(Corrector.zero(2)),
            st.builds(
                lambda hidden, seed, ln: Corrector.network(
                    clip_weights(init([3, *hidden, 1], seed), ln), 2
                ),
                st.lists(st.integers(1, 16), min_size=0, max_size=3),
                st.integers(0, 2**16),
                st.floats(0.5, 8.0),
            ),
        ),
        steps=st.integers(1, 300),
        bound=st.floats(1.5, 100.0),
    )
    @example(
        lam=-5.0,
        grid=[0.4, 0.5, 0.8, 5.0 / 6.0, 0.85, 0.9],
        corrector=clipped_linear_corrector(6.0),
        steps=1000,
        bound=10.0,
    )
    def test_lockstep_flags_equal_per_h_loop(self, lam, grid, corrector, steps, bound):
        got = stability_scan(lam, corrector, grid, steps=steps, bound=bound)
        assert got == reference_scan(lam, corrector, grid, steps, bound)

    @settings(max_examples=100, deadline=None)
    @given(
        lam=st.floats(-10.0, -0.5),
        grid=st.lists(st.floats(1e-3, 1.5), min_size=1, max_size=12),
        hidden=st.lists(st.integers(1, 16), min_size=0, max_size=3),
        seed=st.integers(0, 2**16),
        ln=st.floats(0.5, 8.0),
        bias_scale=st.sampled_from([0.0, 0.1, 1.0]),
        steps=st.integers(1, 300),
        bound=st.floats(1.5, 100.0),
    )
    @example(lam=-5.0, grid=[0.1, 0.2, 0.3, 0.4, 0.5], hidden=[80] * 8, seed=0, ln=1.0,
             bias_scale=0.1, steps=1000, bound=10.0)
    def test_flags_equal_the_forward_batch_lockstep(
        self, lam, grid, hidden, seed, ln, bias_scale, steps, bound
    ):
        params = clip_weights(init([3, *hidden, 1], seed), ln)
        rng = np.random.default_rng(seed)
        biases = tuple(rng.normal(scale=bias_scale, size=b.shape) for b in params.biases)
        corr = Corrector.network(MlpParams(params.layer_widths, params.weights, biases), 2)
        got = stability_scan(lam, corr, grid, steps=steps, bound=bound)
        assert got == reference_lockstep_scan(lam, corr, grid, steps, bound)

    @settings(max_examples=100, deadline=None)
    @given(
        lam=st.floats(-10.0, -0.5),
        grid=st.lists(st.floats(1e-3, 1.5), min_size=1, max_size=8),
        ln=st.floats(0.1, 8.0),
        steps=st.integers(1, 300),
        bound=st.floats(1.5, 100.0),
    )
    @example(lam=-5.0, grid=[0.4, 0.5, 0.8, 5.0 / 6.0, 0.85, 0.9], ln=6.0, steps=1000,
             bound=10.0)
    def test_flags_equal_the_closed_form(self, lam, grid, ln, steps, bound):
        # N(y) = ln * y, so one step multiplies y by r = 1 + h lam + h^2 ln, and
        # the flag is max over m <= steps of |r|^m <= bound: |r| <= 1 or
        # steps * log|r| <= log(bound). Rounding moves the scan's log|y_steps| by
        # about steps * 1e-14 here; draws within rounding_band of the boundary
        # may go either way.
        rounding_band = 1e-9
        want = []
        for h in grid:
            r = abs(1.0 + h * lam + h * h * ln)
            margin = math.log(bound) - steps * math.log(r) if r > 1.0 else math.inf
            assume(abs(margin) > rounding_band)
            want.append((h, margin > 0))
        assert stability_scan(lam, clipped_linear_corrector(ln), grid, steps, bound) == want

    def test_binds_the_network_once(self, monkeypatch):
        binds = []
        real = metrics.bind_layers
        monkeypatch.setattr(metrics, "bind_layers", lambda *a: binds.append(1) or real(*a))
        corr = Corrector.network(clip_weights(init([3, 8, 8, 1], 0), 1.0), 2)
        grid = [0.1, 0.2, 0.3, 0.4, 0.45, 0.5, 0.7, 0.9]
        results = stability_scan(-5.0, corr, grid)
        assert results == reference_lockstep_scan(-5.0, corr, grid, 1000, 10.0)
        assert len(binds) == 1

    @pytest.mark.parametrize("corr, h, state", [
        # One Euler step of 1e308 * -10 overflows to -inf, which is below the bound.
        (Corrector.zero(2), 1e308, -math.inf),
        # N(y) = 1e308 * y, so h^2 * N overflows to +inf.
        (network_corrector([np.array([[0.0, 0.0, 1e308]])]), 2.0, math.inf),
        # Both hidden units overflow to inf, and the output is their difference.
        (network_corrector([np.full((2, 3), 1e308), np.array([[1.0, -1.0]])]), 2.0, math.nan),
    ], ids=["minus_inf", "plus_inf", "nan"])
    def test_non_finite_state_is_unbounded(self, corr, h, state):
        with np.errstate(over="ignore", invalid="ignore"):
            y_1 = 1.0 + h * -10.0
            if corr.kind == "network":
                y_1 += h**2 * forward_batch(corr.params, [[0.0, h, 1.0]])[0, 0]
        assert np.array_equal(y_1, state, equal_nan=True)
        assert stability_scan(-10.0, corr, [h], steps=1) == [(h, False)]

    @pytest.mark.parametrize("bound", [0.0, -1.0, math.inf, math.nan])
    def test_bound_must_be_finite_and_positive(self, bound):
        with pytest.raises(ValueError, match="a finite bound > 0"):
            stability_scan(-5.0, Corrector.zero(2), [0.1], bound=bound)

    def test_infinite_step_is_refused(self):
        for corr in (clipped_linear_corrector(6.0), Corrector.zero(2)):
            with pytest.raises(ValueError, match="finite positive step sizes"):
                stability_scan(-5.0, corr, [0.1, math.inf])

    @pytest.mark.parametrize("lam", [-math.inf, math.nan, 0.0])
    def test_lam_must_be_finite_and_negative(self, lam):
        with pytest.raises(ValueError, match="finite lam < 0"):
            stability_scan(lam, Corrector.zero(2), [0.1, 0.2])

    def test_oracle_rejected(self, exp_problem):
        with pytest.raises(ValueError, match="network or zero"):
            stability_scan(-5.0, Corrector.oracle(exp_problem, 2), [0.1])


def reference_scan(lam, corrector, h_grid, steps, bound):
    """The scan as it was before the lockstep: one h, one corrected Euler step at a time."""
    results = []
    for h in h_grid:
        h = float(h)
        problem = OdeProblem(
            name="linear_test",
            dim=1,
            rhs=lambda x, y: lam * y,
            domain=(0.0, steps * h + h),
            initial=np.array([1.0]),
            exact=lambda x: np.array([math.exp(lam * x)]),
        )
        stepper = make_corrected_stepper(EULER, corrector, problem)
        y = problem.initial
        bounded = True
        for m in range(steps):
            try:
                y = stepper(problem, m * h, y, h)
            except NonFiniteState:
                bounded = False
                break
            if not np.all(np.isfinite(y)) or np.max(np.abs(y)) > bound:
                bounded = False
                break
        results.append((h, bounded))
    return results


def reference_lockstep_scan(lam, corrector, h_grid, steps, bound):
    """The lockstep scan as it was before its network buffers were bound: a
    fresh input array and forward_batch on every step."""
    hs = [float(h) for h in h_grid]
    live, h, y = np.arange(len(hs)), np.array(hs), np.ones(len(hs))
    for m in range(steps):
        if not live.size:
            break
        x = m * h
        with np.errstate(over="ignore", invalid="ignore"):
            y_next = y + h * (lam * y)
            if corrector.kind == "network":
                inputs = np.column_stack((x, x + h, y))
                y_next += h**EULER.exponent * forward_batch(corrector.params, inputs)[:, 0]
            keep = np.isfinite(y_next) & (np.abs(y_next) <= bound)
        live, h, y = live[keep], h[keep], y_next[keep]
    bounded = np.zeros(len(hs), dtype=bool)
    bounded[live] = True
    return list(zip(hs, bounded.tolist()))
