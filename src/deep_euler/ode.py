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
from scipy.integrate import DOP853, solve_ivp

from .errors import MinStepReached, NonFiniteState, UnknownProblem

Rhs = Callable[[float, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class OdeProblem:
    """First-order IVP y' = f(x, y) on [a, b] with y(a) = initial.

    ``exact``, when present, is the closed-form solution used as ground
    truth; otherwise callers fall back to the adaptive reference solver.
    ``lipschitz_hint`` is advisory metadata and is never enforced.
    """

    name: str
    dim: int
    rhs: Rhs
    domain: tuple[float, float]
    initial: np.ndarray
    exact: Optional[Callable[[float], np.ndarray]] = None
    lipschitz_hint: Optional[float] = None

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
    """Either a uniform step size or an explicit strictly increasing mesh."""

    kind: str
    h: Optional[float] = None
    points: Optional[np.ndarray] = None

    @classmethod
    def uniform(cls, h: float) -> "StepSchedule":
        if not h > 0:
            raise ValueError("uniform step size must be positive")
        return cls(kind="uniform", h=float(h))

    @classmethod
    def explicit(cls, points) -> "StepSchedule":
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim != 1 or len(pts) < 2 or not np.all(np.diff(pts) > 0):
            raise ValueError("explicit schedule needs >= 2 strictly increasing points")
        return cls(kind="explicit", points=pts)

    def mesh(self, a: float, b: float) -> np.ndarray:
        if self.kind == "uniform":
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
        if self.kind == "explicit":
            pts = self.points
            if abs(pts[0] - a) > 1e-12 or abs(pts[-1] - b) > 1e-12:
                raise ValueError("explicit schedule must start at a and end at b")
            return pts.copy()
        raise ValueError(f"unknown schedule kind {self.kind!r}")


def _eval_rhs(problem: OdeProblem, x: float, y: np.ndarray) -> np.ndarray:
    # Overflow here is reported through NonFiniteState, not a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        k = np.asarray(problem.rhs(x, y), dtype=np.float64)
    if k.shape != (problem.dim,):
        raise ValueError(f"rhs returned shape {k.shape}, expected ({problem.dim},)")
    if not np.isfinite(k).all():
        raise NonFiniteState(x)
    return k


def euler_step(problem: OdeProblem, x: float, y: np.ndarray, h: float) -> np.ndarray:
    """One forward Euler step: y + h*f(x, y)."""
    return y + h * _eval_rhs(problem, x, y)


def heun_step(problem: OdeProblem, x: float, y: np.ndarray, h: float) -> np.ndarray:
    """One Heun (explicit trapezoidal) step, second order."""
    k1 = _eval_rhs(problem, x, y)
    k2 = _eval_rhs(problem, x + h, y + h * k1)
    return y + 0.5 * h * (k1 + k2)


def solve_fixed(problem: OdeProblem, schedule: StepSchedule, stepper) -> Trajectory:
    """Iterate ``stepper`` over the schedule's mesh, starting from the initial value."""
    xs = schedule.mesh(*problem.domain)
    ys = np.empty((len(xs), problem.dim), dtype=np.float64)
    ys[0] = problem.initial
    mesh = xs.tolist()  # Python floats: cheaper scalar arithmetic, same values
    for m, (x, x_next) in enumerate(zip(mesh, mesh[1:])):
        try:
            ys[m + 1] = stepper(problem, x, ys[m], x_next - x)
        except NonFiniteState as err:
            raise NonFiniteState(err.x, step=m) from None
        if not np.isfinite(ys[m + 1]).all():
            raise NonFiniteState(x, step=m)
    return Trajectory(xs, ys)


def solve_reference(
    problem: OdeProblem,
    query_points,
    rel_tol: float = 1e-6,
    abs_tol: float = 1e-6,
) -> Trajectory:
    """Adaptive Dormand-Prince 5(4) solution evaluated at the query points.

    Local error per step is controlled by abs_tol + rel_tol*|y|; values at
    the queries come from the solver's dense output.
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
    sol = solve_ivp(
        problem.rhs,
        (a, q[-1]),
        problem.initial,
        method="RK45",
        rtol=rel_tol,
        atol=abs_tol,
        dense_output=True,
    )
    if not sol.success:
        raise MinStepReached(sol.message)
    return Trajectory(q, sol.sol(q).T)


def flow(
    problem: OdeProblem,
    x0: float,
    y0: np.ndarray,
    x1: float,
    rel_tol: float = 2.5e-14,
    abs_tol: float = 1e-14,
) -> np.ndarray:
    """Tightly integrated solution through (x0, y0), evaluated at x1.

    Used where the exact local flow is needed, e.g. true truncation-error
    correctors; error is near rounding level.
    """
    if x1 == x0:
        return np.asarray(y0, dtype=np.float64).copy()
    solver = DOP853(problem.rhs, x0, np.asarray(y0, float), x1, rtol=rel_tol, atol=abs_tol)
    while solver.status == "running":
        solver.step()
    if solver.status != "finished":
        raise MinStepReached(f"local solve failed near x={solver.t}")
    return solver.y


def evaluate_truth(
    problem: OdeProblem,
    xs,
    rel_tol: float = 1e-6,
    abs_tol: float = 1e-6,
) -> np.ndarray:
    """Ground-truth states at xs: the exact solution if present, else a reference solve."""
    xs = np.asarray(xs, dtype=np.float64)
    if problem.exact is not None:
        return np.stack([np.asarray(problem.exact(x), float) for x in xs])
    return solve_reference(problem, xs, rel_tol, abs_tol).ys


def restrict(
    problem: OdeProblem,
    lo: float,
    hi: float,
    initial: Optional[np.ndarray] = None,
) -> OdeProblem:
    """Sub-problem on [lo, hi]; starts from the ground truth at lo unless given."""
    a, b = problem.domain
    if lo < a - 1e-12 or hi > b + 1e-12 or not lo < hi:
        raise ValueError(f"[{lo}, {hi}] is not a valid sub-interval of [{a}, {b}]")
    if initial is None:
        initial = evaluate_truth(problem, [lo])[0]
    return replace(problem, domain=(float(lo), float(hi)), initial=initial)


def _example1() -> OdeProblem:
    def rhs(x, y):
        return 1.5 * y / (x + 1.0) + np.array([math.sqrt(x + 1.0)])

    def exact(x):
        return np.array([(x + 1.0) ** 1.5 * math.log(x + 1.0)])

    return OdeProblem(
        name="example1",
        dim=1,
        rhs=rhs,
        domain=(0.0, 10.0),
        initial=np.array([0.0]),
        exact=exact,
        lipschitz_hint=1.5,
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
        lipschitz_hint=3.0,
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
