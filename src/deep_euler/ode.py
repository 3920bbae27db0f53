"""ODE initial-value problems, fixed-step integrators, and a reference solver.

Problems are first-order systems y' = f(x, y) on a closed interval with a
given initial value. Steppers are pure functions of (problem, x, y, h) so
that corrected variants can be injected into the same solve loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .errors import MinStepReached, NonFiniteState, UnknownProblem

Rhs = Callable[[float, np.ndarray], np.ndarray]

# Relative and absolute tolerance of every reference solve, the ground truth
# of problems without a closed form.
REFERENCE_TOL = 1e-6

# The error state of every step and solve: overflow and invalid operations are
# reported through NonFiniteState, not as warnings.
_QUIET = {"over": "ignore", "invalid": "ignore"}


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
        ratio = span / self.h
        m_full = int(math.floor(ratio * (1.0 + 1e-12) + 1e-12))
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


def euler_step(problem: OdeProblem, x: float, y: np.ndarray, h: float) -> np.ndarray:
    """One forward Euler step, first order: EULER's advance under _QUIET, for
    callers outside a solve."""
    with np.errstate(**_QUIET):
        return EULER.advance(problem, x, y, h)


def heun_step(problem: OdeProblem, x: float, y: np.ndarray, h: float) -> np.ndarray:
    """One Heun step, second order: HEUN's advance under _QUIET, for callers
    outside a solve."""
    with np.errstate(**_QUIET):
        return HEUN.advance(problem, x, y, h)


@dataclass(frozen=True)
class BaseMethod:
    """A classical single-step method of the given order. ``advance`` is
    y + h * ``increment`` in the caller's error state, for callers that hold
    _QUIET, as solve_fixed does; ``step`` is the public step, the same under
    _QUIET of its own. Its corrected form, named ``corrected``, adds
    h^(order+1) times a correction to each step."""

    name: str
    increment: Callable[[OdeProblem, float, np.ndarray, float], np.ndarray]
    step: Callable[[OdeProblem, float, np.ndarray, float], np.ndarray]
    order: int
    corrected: str

    @property
    def exponent(self) -> int:
        """The power of h that scales the correction."""
        return self.order + 1

    def advance(self, problem: OdeProblem, x: float, y: np.ndarray, h: float) -> np.ndarray:
        """One step, y + h * increment, with no error state of its own."""
        return y + h * self.increment(problem, x, y, h)


EULER = BaseMethod("euler", euler_increment, euler_step, order=1, corrected="dem")
HEUN = BaseMethod("heun", heun_increment, heun_step, order=2, corrected="dhm")

# Every base method, by name; a new base method is one more row here.
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
    # step inside the solve's own.
    stepper = next((m.advance for m in BASE_METHODS.values() if stepper is m.step), stepper)
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
    from scipy.integrate import solve_ivp  # imported here so only reference solves load scipy

    sol = solve_ivp(
        problem.rhs,
        (a, q[-1]),
        problem.initial,
        method="RK45",
        rtol=REFERENCE_TOL,
        atol=REFERENCE_TOL,
        dense_output=True,
    )
    if not sol.success:
        raise MinStepReached(sol.message)
    return Trajectory(q, sol.sol(q).T)


def flow(problem: OdeProblem, x0: float, y0: np.ndarray, x1: float) -> np.ndarray:
    """Tightly integrated solution through (x0, y0), evaluated at x1.

    Used where the exact local flow is needed, e.g. true truncation-error
    correctors; error is near rounding level.
    """
    from scipy.integrate import DOP853  # imported here so only oracle solves load scipy

    solver = DOP853(problem.rhs, x0, np.asarray(y0, float), x1, rtol=2.5e-14, atol=1e-14)
    while solver.status == "running":
        solver.step()
    if solver.status != "finished":
        raise MinStepReached(f"local solve failed near x={solver.t}")
    return solver.y


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
        raise UnknownProblem(
            f"unknown problem {name!r}; available: {', '.join(sorted(registry))}"
        ) from None
