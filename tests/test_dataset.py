"""Measurement sampling, scaled-defect targets and pair building."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deep_euler.dataset import (
    NoiseSpec,
    PairPolicy,
    build_pairs,
    sample_measurements,
    stack_samples,
)
from deep_euler.dem import Corrector
from deep_euler.errors import ConfigError, NonFiniteState, ShapeError
from deep_euler.metrics import eps_series
from deep_euler.mlp import init
from deep_euler.ode import (
    BASE_METHODS,
    EULER,
    HEUN,
    OdeProblem,
    StepSchedule,
    get_problem,
    scaled_defect,
)


def scalar_problem(rhs, domain=(0.0, 10.0), y0=0.0, exact=None):
    return OdeProblem(
        name="scalar", dim=1, rhs=rhs, domain=domain,
        initial=np.array([float(y0)]), exact=exact,
    )


# Overrides the shared exp_problem on purpose: dataset tests sample y' = y on [0, 10].
@pytest.fixture
def exp_problem():
    return scalar_problem(
        lambda x, y: y.copy(), y0=1.0,
        exact=lambda x: np.array([math.exp(x)]),
    )


def measurements_at(xs, zs):
    """(xs, zs) arrays as sample_measurements returns them, one state row per abscissa."""
    xs = np.asarray(xs, float)
    return xs, np.asarray(zs, float).reshape(len(xs), -1)


def one_defect(method, problem, x_i, x_j, z_i, z_j):
    """``scaled_defect`` on a batch of one pair."""
    z_i, z_j = np.atleast_1d(np.asarray(z_i, float)), np.atleast_1d(np.asarray(z_j, float))
    return scaled_defect(
        method, problem, np.array([x_i]), z_i[:, None], np.array([x_j]), z_j[:, None]
    )[:, 0]


def scalar_increment(problem, base, x, z, dx):
    """Oracle: the base method's increment from single-state rhs calls."""
    k1 = np.asarray(problem.rhs(x, z), float)
    if base == "euler":
        return k1
    return 0.5 * (k1 + np.asarray(problem.rhs(x + dx, z + dx * k1), float))


def scalar_defect(problem, base, x_i, x_j, z_i, z_j):
    """Oracle: (z_j - z_i - dx * increment) / dx^(p+1) for one pair."""
    dx = x_j - x_i
    scale = dx * dx if base == "euler" else dx * dx * dx
    return (z_j - z_i - dx * scalar_increment(problem, base, x_i, z_i, dx)) / scale


class TestSampling:
    def test_noise_free_values_follow_closed_form(self, problems):
        prob = problems["example1"]
        xs, zs = sample_measurements(prob, (0.0, 5.0), 10, NoiseSpec(0.0), seed=3)
        assert xs.shape == (10,) and zs.shape == (10, 1)
        for x, z in zip(xs, zs):
            expected = (x + 1.0) ** 1.5 * math.log(x + 1.0)
            assert z[0] == pytest.approx(expected, rel=1e-12)

    def test_deterministic_for_fixed_seed(self, problems):
        prob = problems["example1"]
        a = sample_measurements(prob, (0.0, 5.0), 200, NoiseSpec(0.0), seed=7)
        b = sample_measurements(prob, (0.0, 5.0), 200, NoiseSpec(0.0), seed=7)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_sorted_and_inside_interval(self, problems):
        xs, _ = sample_measurements(problems["example1"], (1.0, 4.0), 50, NoiseSpec(0.0), seed=0)
        xs = list(xs)
        assert xs == sorted(xs)
        assert all(1.0 <= x <= 4.0 for x in xs)

    def test_too_few_points(self, problems):
        with pytest.raises(ConfigError, match="need at least 2 measurements, got 1"):
            sample_measurements(problems["example1"], (0.0, 5.0), 1, NoiseSpec(0.0), seed=0)

    @pytest.mark.parametrize("interval", [(-1.0, 5.0), (0.0, 11.0), (5.0, 5.0)])
    def test_interval_outside_the_domain_rejected(self, problems, interval):
        with pytest.raises(ValueError, match="outside domain"):
            sample_measurements(problems["example1"], interval, 10, NoiseSpec(0.0), seed=0)

    def test_noise_level_matches_monte_carlo_variance(self, exp_problem):
        # z = y(1 + level*g) so the mean of (z/y - 1)^2 estimates level^2.
        xs, zs = sample_measurements(exp_problem, (0.5, 3.0), 10_000, NoiseSpec(0.05), seed=1)
        ratios = np.array([z[0] / math.exp(x) - 1.0 for x, z in zip(xs, zs)])
        assert np.mean(ratios**2) == pytest.approx(0.0025, rel=0.2)

    def test_reference_fallback_without_exact(self, problems):
        lv = problems["lotka_volterra"]
        xs, zs = sample_measurements(lv, (0.0, 5.0), 5, NoiseSpec(0.0), seed=0)
        assert xs.shape == (5,) and zs.shape == (5, 2) and np.all(np.isfinite(zs))

    def test_noise_spec_validation(self):
        with pytest.raises(ConfigError):
            NoiseSpec(1.0)
        with pytest.raises(ConfigError):
            NoiseSpec(-0.1)


class TestResidual:
    def test_zero_on_linear_data_with_matching_slope(self):
        prob = scalar_problem(lambda x, y: np.ones_like(y))
        x_i, x_j = np.array([0.0, 0.3, 5.0]), np.array([1.0, 2.7, 9.0])
        r = scaled_defect(EULER, prob, x_i, x_i[None, :], x_j, x_j[None, :])
        assert np.array_equal(r, np.zeros((1, 3)))

    def test_exponential_pair_value(self, exp_problem):
        r = one_defect(EULER, exp_problem, 0.0, 1.0, 1.0, math.e)
        assert r[0] == pytest.approx(math.e - 2.0, rel=1e-14)

    def test_example1_pair_matches_direct_formula(self, problems):
        # Independent evaluation of the defining formula from the closed form.
        prob = problems["example1"]
        x_i, x_j = 1.0, 1.1
        y = lambda x: (x + 1.0) ** 1.5 * math.log(x + 1.0)
        f_i = 1.5 * y(x_i) / (x_i + 1.0) + math.sqrt(x_i + 1.0)
        expected = (y(x_j) - y(x_i) - (x_j - x_i) * f_i) / (x_j - x_i) ** 2
        got = one_defect(EULER, prob, x_i, x_j, y(x_i), y(x_j))
        assert got[0] == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("dx", [1e-2, 1e-3, 1e-4])
    def test_small_gap_limit_is_half_second_derivative(self, exp_problem, dx):
        # For y' = y the residual tends to y''/2 = y/2 as the gap shrinks.
        x_i = 0.7
        y_i = math.exp(x_i)
        r = one_defect(EULER, exp_problem, x_i, x_i + dx, y_i, math.exp(x_i + dx))
        assert abs(r[0] - y_i / 2.0) <= 0.2 * y_i * dx

    def test_heun_target_uses_cubic_scaling(self, exp_problem):
        # (z_j - heun(x_i, z_i, dx)) / dx^3 against a hand-expanded Heun step.
        x_i, dx = 0.2, 0.5
        z_i, z_j = math.exp(x_i), math.exp(x_i + dx)
        heun_pred = z_i * (1.0 + dx + 0.5 * dx * dx)
        expected = (z_j - heun_pred) / dx**3
        got = one_defect(HEUN, exp_problem, x_i, x_i + dx, z_i, z_j)
        assert got[0] == pytest.approx(expected, rel=1e-12)


class TestBuildPairs:
    def test_all_pairs_count_three_points(self, exp_problem):
        ms = measurements_at([0.0, 1.0, 2.0], [1.0, math.e, math.e**2])
        inputs, targets = build_pairs(exp_problem, ms, PairPolicy.all_pairs())
        assert inputs.shape == (3, 3) and targets.shape == (3, 1)

    def test_min_gap_filter(self, exp_problem):
        ms = measurements_at([0.0, 1.0, 5.0], [1.0, 2.0, 3.0])
        inputs, _ = build_pairs(exp_problem, ms, PairPolicy(2.0))
        assert sorted(inputs[:, 1] - inputs[:, 0]) == [4.0, 5.0]

    def test_all_pairs_is_zero_gap_and_drops_duplicate_abscissae(self, exp_problem):
        assert PairPolicy.all_pairs() == PairPolicy(0.0)
        ms = measurements_at([0.0, 1.0, 1.0], [1.0, 2.0, 2.5])
        inputs, _ = build_pairs(exp_problem, ms, PairPolicy.all_pairs())
        assert sorted(inputs[:, 1] - inputs[:, 0]) == [1.0, 1.0]

    def test_full_benchmark_pair_count(self, problems):
        prob = problems["example1"]
        ms = sample_measurements(prob, (0.0, 5.0), 200, NoiseSpec(0.0), seed=0)
        inputs, targets = build_pairs(prob, ms, PairPolicy.all_pairs())
        assert len(inputs) == len(targets) == 200 * 199 // 2
        stacked = stack_samples((inputs, targets))
        assert stacked[0] is inputs and stacked[1] is targets
        with pytest.raises(ConfigError, match="no samples"):
            stack_samples((inputs[:0], targets[:0]))

    def test_unknown_base_or_one_measurement_rejected(self, exp_problem):
        ms = measurements_at([0.0, 1.0], [1.0, math.e])
        with pytest.raises(ConfigError, match="target: unknown base method 'rk4'"):
            build_pairs(exp_problem, ms, PairPolicy.all_pairs(), "rk4")
        with pytest.raises(ConfigError, match="need at least 2 measurements to form pairs"):
            build_pairs(exp_problem, (ms[0][:1], ms[1][:1]), PairPolicy.all_pairs())

    def test_inputs_are_x_i_x_j_z_i(self, exp_problem):
        ms = measurements_at([0.0, 1.0], [1.0, math.e])
        inputs, targets = build_pairs(exp_problem, ms, PairPolicy.all_pairs())
        assert np.allclose(inputs, [[0.0, 1.0, 1.0]])
        assert targets[0, 0] == pytest.approx(math.e - 2.0, rel=1e-12)

    def test_targets_match_scalar_residual(self, problems):
        prob = problems["kepler"]
        ms = sample_measurements(prob, (0.0, 5.0), 8, NoiseSpec(0.0), seed=2)
        inputs, targets = build_pairs(prob, ms, PairPolicy.all_pairs())
        for row, target in zip(inputs, targets):
            x_i, x_j, z_i = row[0], row[1], row[2:]
            z_j = next(z for x, z in zip(*ms) if x == x_j)
            assert np.allclose(target, scalar_defect(prob, "euler", x_i, x_j, z_i, z_j), rtol=1e-12)

    def test_non_finite_rhs_names_the_first_bad_abscissa(self):
        # The field is infinite from x = 2 on; pairs are ordered by (i, j),
        # so the first bad column starts at the third measurement, x = 2.
        prob = scalar_problem(lambda x, y: np.where(x >= 2.0, np.inf, 1.0) + 0.0 * y)
        ms = measurements_at([0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 2.0, 3.0])
        with pytest.raises(NonFiniteState) as info:
            build_pairs(prob, ms, PairPolicy.all_pairs())
        assert info.value.x == 2.0
        assert str(info.value) == "non-finite state at x=2.0"

    def test_overflowing_rhs_raises_without_warning(self):
        # The field overflows from x = 2 on: an error, and no RuntimeWarning.
        prob = scalar_problem(lambda x, y: np.where(x >= 2.0, 1e200, 1.0) * 1e200 + 0.0 * y)
        ms = measurements_at([0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 2.0, 3.0])
        before = np.geterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteState) as info:
                build_pairs(prob, ms, PairPolicy.all_pairs())
        assert info.value.x == 2.0
        assert np.geterr() == before

    def test_non_finite_target_names_the_smallest_gap(self, exp_problem):
        # dx^2 underflows to 0 for gaps near 1e-301: their targets divide by zero.
        ms = measurements_at([0.0, 2e-301, 5e-301, 1.0], [1.0, 1.0, 1.0, math.e])
        message = "min_gap: the euler target of a pair 2e-301 apart is not finite"
        with pytest.raises(ConfigError, match=f"^{message}$"):
            build_pairs(exp_problem, ms, PairPolicy.all_pairs())
        # A min_gap above those gaps drops their pairs; the rest are finite.
        _, targets = build_pairs(exp_problem, ms, PairPolicy(1e-300))
        assert len(targets) == 3 and np.isfinite(targets).all()

    @pytest.mark.parametrize("gap", [-1.0, float("nan")], ids=["negative", "nan"])
    def test_min_gap_rejects_a_gap_below_zero_or_nan(self, gap):
        with pytest.raises(ConfigError, match="min_gap"):
            PairPolicy(gap)

    @pytest.mark.parametrize(
        "xs, zs",
        [([0.0, 1.0, 2.0], np.ones((2, 1))),
         ([0.0, 1.0, 2.0], np.ones((3, 2))),
         ([[0.0], [1.0], [2.0]], np.ones((3, 1)))],
        ids=["too_few_states", "wrong_state_dimension", "two_dimensional_abscissae"],
    )
    def test_mismatched_shapes_rejected(self, exp_problem, xs, zs):
        message = r"^measurements: xs \(.*\), zs \(.*\) do not fit dim 1$"
        with pytest.raises(ShapeError, match=message):
            build_pairs(exp_problem, (np.array(xs), zs), PairPolicy.all_pairs())

    def test_policy_eliminating_everything(self, exp_problem):
        ms = measurements_at([0.0, 1.0], [1.0, 2.0])
        with pytest.raises(ConfigError, match="pair policy eliminated every pair"):
            build_pairs(exp_problem, ms, PairPolicy(10.0))


@st.composite
def measured(draw, names=("example1", "lotka_volterra", "kepler")):
    """A built-in problem and 2-12 measurements at distinct grid abscissae
    (gaps at least a thousandth of the domain), with states in [0.25, 3] so
    that kepler's positions keep away from its singularity at the origin."""
    problem = get_problem(draw(st.sampled_from(names)))
    a, b = problem.domain
    ticks = draw(st.lists(st.integers(0, 1000), min_size=2, max_size=12, unique=True))
    xs = [a + (b - a) * t / 1000 for t in ticks]
    states = st.lists(st.floats(0.25, 3.0), min_size=problem.dim, max_size=problem.dim)
    return problem, measurements_at(xs, [draw(states) for _ in xs])


class TestPairProperties:
    """Invariants of pair building, checked against the per-pair scalar oracle."""

    @settings(max_examples=60, deadline=None)
    @given(case=measured(), base=st.sampled_from(sorted(BASE_METHODS)))
    def test_targets_equal_scalar_oracle(self, case, base):
        problem, ms = case
        inputs, targets = build_pairs(problem, ms, PairPolicy.all_pairs(), base)
        n = len(ms[0])
        assert inputs.shape == (n * (n - 1) // 2, problem.dim + 2)
        assert targets.shape == (len(inputs), problem.dim)
        by_x = dict(zip(*ms))
        for row, target in zip(inputs, targets):
            x_i, x_j, z_i = row[0], row[1], row[2:]
            z_j = by_x[x_j]
            assert np.array_equal(z_i, by_x[x_i])
            want = scalar_defect(problem, base, x_i, x_j, z_i, z_j)
            if base == "euler" and problem.name != "kepler":
                assert target.tobytes() == want.tobytes()
                continue
            # Kepler's r^1.5 and Heun's dx^3 round differently on arrays:
            # allow a few hundred ulps of each term of the numerator,
            # magnified by 1/dx^(p+1). With positive states Heun's predicted
            # position stays off kepler's singularity, which bounds how far
            # a rounding difference in k1 can move k2.
            dx = x_j - x_i
            step = np.abs(dx * scalar_increment(problem, base, x_i, z_i, dx))
            terms = np.abs(z_i) + np.abs(z_j) + step
            tol = 256 * np.finfo(float).eps * terms / dx ** BASE_METHODS[base].exponent
            assert np.all(np.abs(target - want) <= tol), (target, want, tol)

    @settings(max_examples=40, deadline=None)
    @given(
        name=st.sampled_from(["example1", "lotka_volterra", "kepler"]),
        count=st.integers(2, 12),
        seed=st.integers(0, 2**32 - 1),
        base=st.sampled_from(sorted(BASE_METHODS)),
        data=st.data(),
    )
    def test_any_order_gives_the_same_pairs(self, name, count, seed, base, data):
        problem = get_problem(name)
        xs, zs = sample_measurements(problem, problem.domain, count, NoiseSpec(0.01), seed)
        perm = np.array(data.draw(st.permutations(range(count)), label="perm"))
        want = build_pairs(problem, (xs, zs), PairPolicy.all_pairs(), base)
        got = build_pairs(problem, (xs[perm], zs[perm]), PairPolicy.all_pairs(), base)
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tobytes() == want[1].tobytes()

    @settings(max_examples=60, deadline=None)
    @given(case=measured(), gap=st.floats(0.0, 10.0))
    def test_min_gap_keeps_exactly_the_wide_pairs(self, case, gap):
        problem, ms = case
        everything, all_targets = build_pairs(problem, ms, PairPolicy.all_pairs())
        wide = everything[:, 1] - everything[:, 0] >= gap
        if not wide.any():
            with pytest.raises(ConfigError, match="pair policy eliminated every pair"):
                build_pairs(problem, ms, PairPolicy(gap))
            return
        inputs, targets = build_pairs(problem, ms, PairPolicy(gap))
        assert np.array_equal(inputs, everything[wide])
        assert np.array_equal(targets, all_targets[wide])

    @settings(max_examples=30, deadline=None)
    @given(
        dim=st.integers(1, 3),
        count=st.integers(2, 6),
        base=st.sampled_from(sorted(BASE_METHODS)),
    )
    def test_rhs_that_ignores_the_batch_is_refused(self, dim, count, base):
        constant = np.arange(1.0, dim + 1.0)
        prob = OdeProblem(name="unbatched", dim=dim, rhs=lambda x, y: constant.copy(),
                          domain=(0.0, 1.0), initial=np.zeros(dim),
                          exact=lambda x: np.zeros(dim))
        ms = measurements_at(np.linspace(0.0, 1.0, count), np.ones((count, dim)))
        with pytest.raises(ValueError, match="rhs returned shape"):
            build_pairs(prob, ms, PairPolicy.all_pairs(), base)
        corr = Corrector.network(init([dim + 2, 4, dim], seed=0), BASE_METHODS[base].exponent)
        with pytest.raises(ValueError, match="rhs returned shape"):
            eps_series(corr, prob, StepSchedule.uniform(0.25))
