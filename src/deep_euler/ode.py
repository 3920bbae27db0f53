"""ODE initial-value problems, fixed-step integrators, and a reference solver.

Problems are first-order systems y' = f(x, y) on a closed interval with a
given initial value. Steppers are pure functions of (problem, x, y, h) so
that corrected variants can be injected into the same solve loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import groupby
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError, NonFiniteState, NumericalError

Rhs = Callable[[float, np.ndarray], np.ndarray]

# Relative and absolute tolerance of every reference solve, the ground truth
# of problems without a closed form.
REFERENCE_TOL = 1e-6

# The error state of every step and solve: no floating-point event warns. A
# non-finite value ends in NonFiniteState, or in build_pairs' ConfigError.
_QUIET = {"all": "ignore"}


@dataclass(frozen=True)
class OdeProblem:
    """First-order IVP y' = f(x, y) on [a, b] with y(a) = initial.

    ``rhs(x, y)`` takes one state, a float x and y of shape (dim,), or a
    batch laid out component-major, x of shape (B,) and y of shape (dim, B),
    and returns f with the shape of y. ``exact``, when present, is the
    closed-form solution used as ground truth; otherwise callers fall back to
    the adaptive reference solver.
    """

    name: str
    dim: int
    rhs: Rhs
    domain: tuple[float, float]
    initial: np.ndarray
    exact: Optional[Callable[[float], np.ndarray]] = None

    def __post_init__(self):
        a, b = self.domain
        if not a < b:
            raise ValueError(f"domain must satisfy a < b, got [{a}, {b}]")
        if self.dim < 1:
            raise ValueError("dim must be a positive integer")
        initial = np.asarray(self.initial, dtype=np.float64)
        if initial.shape != (self.dim,):
            raise ValueError(
                f"initial value has shape {initial.shape}, expected ({self.dim},)"
            )
        if not np.isfinite(initial).all():
            raise ValueError("initial value must be finite")
        object.__setattr__(self, "initial", initial)
        if self.exact is not None:
            drift = np.max(np.abs(np.asarray(self.exact(a), float) - initial))
            if drift > 1e-12:
                raise ValueError(
                    f"exact({a}) disagrees with the initial value by {drift:.3e}"
                )


@dataclass(frozen=True)
class Trajectory:
    """Mesh points xs and the state at each, one row per point."""

    xs: np.ndarray
    ys: np.ndarray

    def __post_init__(self):
        xs = np.asarray(self.xs, dtype=np.float64)
        ys = np.asarray(self.ys, dtype=np.float64)
        if xs.ndim != 1 or len(xs) != len(ys):
            raise ValueError("xs and ys must have matching leading length")
        if len(xs) > 1 and not np.all(np.diff(xs) > 0):
            raise ValueError("xs must be strictly increasing")
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)

    def __len__(self):
        return len(self.xs)


@dataclass(frozen=True)
class StepSchedule:
    """A uniform step size h; the last step is shortened to land on b."""

    h: float

    def __post_init__(self):
        if not self.h > 0:
            raise ValueError("uniform step size must be positive")
        object.__setattr__(self, "h", float(self.h))

    @classmethod
    def uniform(cls, h: float) -> "StepSchedule":
        return cls(h)

    def mesh(self, a: float, b: float) -> np.ndarray:
        span = b - a
        if self.h > span:
            raise ValueError(f"step {self.h} exceeds interval length {span}")
        # Relative epsilon so that span/h landing a hair under an integer
        # still counts as an exact fit.
        steps = span / self.h * (1.0 + 1e-12) + 1e-12
        # An infinite count, or more points than the largest float64 array
        # numpy can describe (intp.max // 8 elements), has no mesh.
        if not steps < np.iinfo(np.intp).max // 8:
            raise ValueError(f"step {self.h} is too small for interval length {span}")
        m_full = int(steps)
        xs = a + self.h * np.arange(m_full + 1, dtype=np.float64)
        if xs[-1] < b - 1e-12 * span:
            xs = np.append(xs, b)  # shortened final step lands on b
        else:
            xs[-1] = b
        return xs


def _eval_rhs(problem: OdeProblem, x, y: np.ndarray) -> np.ndarray:
    """f(x, y), checked for shape and finiteness. Overflow is reported through
    NonFiniteState, not a warning: the public steps, scaled_defect and solve_fixed
    enter _QUIET once around it."""
    k = np.asarray(problem.rhs(x, y), dtype=np.float64)
    if k.shape != y.shape:
        raise ValueError(f"rhs returned shape {k.shape}, expected {y.shape}")
    if k.ndim == 1:
        # One state: a test on Python floats costs a fraction of np.isfinite's call.
        if not all(map(math.isfinite, k.tolist())):
            raise NonFiniteState(x)
        return k
    finite = np.isfinite(k)
    if not finite.all():
        # The first abscissa whose column is not finite.
        raise NonFiniteState(x[~finite.all(axis=0)][0])
    return k


def euler_increment(problem: OdeProblem, x, y: np.ndarray, h) -> np.ndarray:
    """Forward Euler's increment: f(x, y)."""
    return _eval_rhs(problem, x, y)


def heun_increment(problem: OdeProblem, x, y: np.ndarray, h) -> np.ndarray:
    """Heun's (explicit trapezoidal) increment: the mean of f at both ends."""
    k1 = _eval_rhs(problem, x, y)
    k2 = _eval_rhs(problem, x + h, y + h * k1)
    return 0.5 * (k1 + k2)


@dataclass(frozen=True)
class BaseMethod:
    """A classical single-step method of the given order. ``advance`` is
    y + h * ``increment`` in the caller's error state, for callers that hold
    _QUIET, as solve_fixed does; ``step`` is the public step, the same under
    _QUIET of its own. Its corrected form, named ``corrected``, adds
    h^(order+1) times a correction to each step."""

    name: str
    increment: Callable[[OdeProblem, float, np.ndarray, float], np.ndarray]
    order: int
    corrected: str

    @property
    def exponent(self) -> int:
        """The power of h that scales the correction."""
        return self.order + 1

    def advance(self, problem: OdeProblem, x: float, y: np.ndarray, h: float) -> np.ndarray:
        """One step, y + h * increment, with no error state of its own."""
        return y + h * self.increment(problem, x, y, h)

    def step(self, problem: OdeProblem, x: float, y: np.ndarray, h: float) -> np.ndarray:
        """One step, advance under _QUIET, for callers outside a solve."""
        with np.errstate(**_QUIET):
            return self.advance(problem, x, y, h)


EULER = BaseMethod("euler", euler_increment, order=1, corrected="dem")
HEUN = BaseMethod("heun", heun_increment, order=2, corrected="dhm")
euler_step = EULER.step  # one forward Euler step, first order
heun_step = HEUN.step  # one Heun step, second order

# Every base method, by name. A new base method is its increment and one more
# row here, of an order no other row has: a Corrector names its row by exponent.
BASE_METHODS = {m.name: m for m in (EULER, HEUN)}


def scaled_defect(method: BaseMethod, problem: OdeProblem, x_i, z_i, x_j, z_j) -> np.ndarray:
    """The method's local truncation error from (x_i, z_i) to (x_j, z_j),
    scaled by its correction exponent: (z_j - z_i - dx * increment) / dx^(p+1)
    with dx = x_j - x_i. Takes a batch, abscissae of shape (B,) and states
    of shape (dim, B), and returns (dim, B)."""
    dx = x_j - x_i
    with np.errstate(**_QUIET):
        return (z_j - z_i - dx * method.increment(problem, x_i, z_i, dx)) / dx**method.exponent


def solve_fixed(problem: OdeProblem, schedule: StepSchedule, stepper) -> Trajectory:
    """Iterate ``stepper`` over the schedule's mesh, starting from the initial value."""
    xs = schedule.mesh(*problem.domain)
    ys = np.empty((len(xs), problem.dim), dtype=np.float64)
    ys[0] = problem.initial
    mesh = xs.tolist()  # Python floats: cheaper scalar arithmetic, same values
    # A public step enters _QUIET on every call; its row's advance is the same
    # step inside the solve's own. A bound method is a new object on each access,
    # so the match is by ==.
    stepper = next((m.advance for m in BASE_METHODS.values() if stepper == m.step), stepper)
    isfinite, y = math.isfinite, ys[0]
    # One error state for the whole solve: a step's overflow, the correction's
    # included, ends in NonFiniteState below, not in a warning.
    with np.errstate(**_QUIET):
        for m, (x, x_next, row) in enumerate(zip(mesh, mesh[1:], ys[1:])):
            try:
                row[...] = stepper(problem, x, y, x_next - x)
            except NonFiniteState as err:
                raise NonFiniteState(err.x, step=m) from None
            if not all(map(isfinite, row.tolist())):
                raise NonFiniteState(x, step=m)
            y = row
    return Trajectory(xs, ys)


# The Dormand-Prince 5(4) pair and its quartic dense output, written as the same
# fraction literals as solve_ivp's RK45, so that every coefficient is the same double.
_DP_C = (1/5, 3/10, 4/5, 8/9, 1)
_DP_A = [np.array(row) for row in (
    [1/5], [3/40, 9/40], [44/45, -56/15, 32/9], [19372/6561, -25360/2187, 64448/6561, -212/729],
    [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656])]
_DP_B = np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84])
_DP_E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525, 1/40])
_DP_P = np.array([
    [1, -8048581381/2820520608, 8663915743/2820520608, -12715105075/11282082432],
    [0, 0, 0, 0],
    [0, 131558114200/32700410799, -68118460800/10900136933, 87487479700/32700410799],
    [0, -1754552775/470086768, 14199869525/1410260304, -10690763975/1880347072],
    [0, 127303824393/49829197408, -318862633887/49829197408, 701980252875/199316789632],
    [0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844],
    [0, 40617522/29380423, -110615467/29380423, 69997945/29380423]])


def _dopri5(rhs: Rhs, t: float, y: np.ndarray, t_bound: float, rtol: float, atol: float,
            queries: Optional[np.ndarray] = None) -> np.ndarray:
    """Integrate y' = rhs(t, y) from (t, y) forward to t_bound by Dormand-Prince
    5(4) with local error control atol + rtol * |y|, step for step as
    ``solve_ivp(method="RK45")``: the same initial step, RMS norm, controller
    and order of operations, so the same bits. Returns the state at t_bound or,
    given increasing ``queries``, the dense output at each, one row per query,
    taken from the step that OdeSolution takes it from."""
    if not t < t_bound:  # an empty span gives y, as solve_ivp does; a backward one is refused
        if t > t_bound:
            raise ValueError(f"cannot integrate backward from x={t} to x={t_bound}")
        return y
    root_n = y.size ** 0.5

    def rms(v):  # np.linalg.norm(v) / sqrt(n), without numpy's dispatch
        return math.sqrt(v.dot(v)) / root_n

    # The initial step (Hairer, Norsett and Wanner, II.4), as solve_ivp selects it.
    f, span, scale = np.asarray(rhs(t, y), float), t_bound - t, atol + np.abs(y) * rtol
    d0, d1 = rms(y / scale), rms(f / scale)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, span)
    d2 = rms((rhs(t + h0, y + h0 * f) - f) / scale) / h0
    small = d1 <= 1e-15 and d2 <= 1e-15
    h_abs = min(100 * h0, max(1e-6, h0 * 1e-3) if small else (0.01 / max(d1, d2)) ** 0.2, span)
    K = np.empty((7, y.size))  # the stages, then f at the new state (FSAL)
    stages = [(s, K[:s].T, a, c) for s, (a, c) in enumerate(zip(_DP_A, _DP_C), 1)]
    steps = []
    while t < t_bound:
        min_step = 10 * abs(math.nextafter(t, math.inf) - t)
        h_abs, rejected = max(h_abs, min_step), False
        while True:
            if not h_abs >= min_step:  # a NaN step fails too
                kind = "local" if queries is None else "reference"
                raise NumericalError(f"{kind} solve failed near x={t}: step below float spacing")
            t_new = min(t + h_abs, t_bound)
            h = t_new - t
            h_abs = abs(h)
            K[0] = f
            for s, kt, a, c in stages:
                K[s] = rhs(t + c * h, y + kt.dot(a) * h)
            y_new = y + h * K[:6].T.dot(_DP_B)
            K[6] = f_new = rhs(t + h, y_new)
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            err = rms(K.T.dot(_DP_E) * h / scale)
            if err < 1:
                factor = 10 if err == 0 else min(10, 0.9 * err ** -0.2)
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(0.2, 0.9 * err ** -0.2)
            rejected = True
        if queries is not None:
            steps.append((t, h, y, K.T.dot(_DP_P)))
        t, y, f = t_new, y_new, f_new
    if queries is None:
        return y
    # Each run of queries in one step is evaluated together, as OdeSolution does.
    ends = [step[0] for step in steps] + [t]
    segments = np.clip(np.searchsorted(ends, queries, side="left") - 1, 0, len(steps) - 1)
    values, start = [], 0
    for s, run in groupby(segments.tolist()):
        stop = start + len(list(run))
        t0, h, y0, dense = steps[s]
        x = (queries[start:stop] - t0) / h
        values.append(h * dense.dot(np.cumprod(np.tile(x, (4, 1)), axis=0)) + y0[:, None])
        start = stop
    return np.hstack(values).T


def solve_reference(problem: OdeProblem, query_points) -> Trajectory:
    """Adaptive Dormand-Prince 5(4) solution evaluated at the query points.

    Local error per step is controlled by REFERENCE_TOL * (1 + |y|); values
    at the queries come from the solver's dense output.
    """
    q = np.asarray(query_points, dtype=np.float64)
    a, b = problem.domain
    if q.ndim != 1 or len(q) == 0:
        raise ValueError("query_points must be a non-empty 1-d sequence")
    if not np.all(np.diff(q) > 0):
        raise ValueError("query_points must be strictly increasing")
    if q[0] < a - 1e-12 or q[-1] > b + 1e-12:
        raise ValueError("query_points must lie within the problem domain")
    if q[-1] <= a:
        return Trajectory(q, np.tile(problem.initial, (len(q), 1)))
    tol = REFERENCE_TOL
    return Trajectory(q, _dopri5(problem.rhs, float(a), problem.initial, float(q[-1]), tol, tol, q))


def flow(problem: OdeProblem, x0: float, y0: np.ndarray, x1: float) -> np.ndarray:
    """Tightly integrated solution through (x0, y0), evaluated at x1 >= x0.

    Used where the exact local flow is needed, e.g. true truncation-error
    correctors; error is near rounding level.
    """
    return _dopri5(problem.rhs, x0, np.asarray(y0, float), x1, 2.5e-14, 1e-14)


def evaluate_truth(problem: OdeProblem, xs) -> np.ndarray:
    """Ground-truth states at xs: the exact solution if present, else a reference solve."""
    xs = np.asarray(xs, dtype=np.float64)
    if problem.exact is not None:
        # Python floats: the closed forms use math.*, which takes them faster.
        return np.stack([np.asarray(problem.exact(x), float) for x in xs.tolist()])
    return solve_reference(problem, xs).ys


def restrict(problem: OdeProblem, lo: float, hi: float) -> OdeProblem:
    """Sub-problem on [lo, hi], starting from the ground truth at lo."""
    a, b = problem.domain
    if lo < a - 1e-12 or hi > b + 1e-12 or not lo < hi:
        raise ValueError(f"[{lo}, {hi}] is not a valid sub-interval of [{a}, {b}]")
    initial = evaluate_truth(problem, [lo])[0]
    return replace(problem, domain=(float(lo), float(hi)), initial=initial)


def _example1() -> OdeProblem:
    def rhs(x, y):
        return 1.5 * y / (x + 1.0) + np.sqrt(x + 1.0)

    def exact(x):
        return np.array([(x + 1.0) ** 1.5 * math.log(x + 1.0)])

    return OdeProblem(
        name="example1",
        dim=1,
        rhs=rhs,
        domain=(0.0, 10.0),
        initial=np.array([0.0]),
        exact=exact,
    )


def _lotka_volterra() -> OdeProblem:
    # Predator-prey with all four rate constants equal to 1.
    def rhs(x, y):
        return np.array([y[0] - y[0] * y[1], -y[1] + y[0] * y[1]])

    return OdeProblem(
        name="lotka_volterra",
        dim=2,
        rhs=rhs,
        domain=(0.0, 25.0),
        initial=np.array([2.0, 1.0]),
    )


def _kepler() -> OdeProblem:
    # Planar two-body motion; this initial value gives the unit circular orbit.
    def rhs(x, y):
        r3 = (y[0] * y[0] + y[1] * y[1]) ** 1.5
        return np.array([y[2], y[3], -y[0] / r3, -y[1] / r3])

    def exact(x):
        return np.array([math.cos(x), math.sin(x), -math.sin(x), math.cos(x)])

    return OdeProblem(
        name="kepler",
        dim=4,
        rhs=rhs,
        domain=(0.0, 20.0),
        initial=np.array([1.0, 0.0, 0.0, 1.0]),
        exact=exact,
    )


def builtin_problems() -> dict[str, OdeProblem]:
    """The three benchmark problems, keyed by name."""
    problems = [_example1(), _lotka_volterra(), _kepler()]
    return {p.name: p for p in problems}


def get_problem(name: str) -> OdeProblem:
    registry = builtin_problems()
    try:
        return registry[name]
    except KeyError:
        raise ConfigError(f"unknown problem {name!r}; "
                          f"available: {', '.join(sorted(registry))}") from None
