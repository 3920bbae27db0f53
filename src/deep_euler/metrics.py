"""Error metrics, network-vs-residual diagnostics, order estimation, stability scan."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .dataset import stepper_residual
from .dem import Corrector, make_corrected_stepper
from .errors import NonFiniteState
from .mlp import forward_batch
from .ode import OdeProblem, StepSchedule, Trajectory, euler_step, evaluate_truth, solve_fixed

_BASE_BY_EXPONENT = {2: "euler", 3: "heun"}


@dataclass(frozen=True)
class ErrorReport:
    """One benchmark cell: worst deviation plus the network diagnostic."""

    max_error: float
    eps_mean: Optional[float]
    ratio_to_baseline: Optional[float]
    step_size: float
    region: tuple[float, float]


@dataclass(frozen=True)
class OrderEstimate:
    """Least-squares convergence order; infinite when errors are at rounding level."""

    order: float
    degenerate: bool
    h_values: tuple[float, ...]
    errors: tuple[float, ...]


def max_abs_error(trajectory: Trajectory, exact) -> float:
    """Worst absolute deviation over mesh points and components.

    ``exact`` is a callable x -> state or a precomputed (M+1, n) array.
    """
    if callable(exact):
        truth = np.stack([np.asarray(exact(x), float) for x in trajectory.xs])
    else:
        truth = np.asarray(exact, dtype=np.float64)
    if truth.shape != trajectory.ys.shape:
        raise ValueError(
            f"truth shape {truth.shape} does not match trajectory {trajectory.ys.shape}"
        )
    return float(np.max(np.abs(trajectory.ys - truth)))


def eps_series(
    corrector: Corrector,
    problem: OdeProblem,
    schedule: StepSchedule,
    rel_tol: float = 1e-6,
    abs_tol: float = 1e-6,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-step |network - residual| along the ground-truth trajectory.

    Returns (right endpoints x_{m+1}, component-sum gaps). The residual uses
    the base method matching the corrector's exponent (2 -> Euler, 3 -> Heun)
    and ground-truth states, not the corrected trajectory.
    """
    if corrector.kind != "network":
        raise ValueError("eps diagnostics are defined for network correctors")
    base = _BASE_BY_EXPONENT.get(corrector.order_exponent)
    if base is None:
        raise ValueError(f"no base method for exponent {corrector.order_exponent}")
    xs = schedule.mesh(*problem.domain)
    truth = evaluate_truth(problem, xs, rel_tol, abs_tol)
    inputs = np.column_stack((xs[:-1], xs[1:], truth[:-1]))
    n_vals = forward_batch(corrector.params, inputs)
    r_vals = np.stack(
        [
            stepper_residual(xs[m], xs[m + 1], truth[m], truth[m + 1], problem, base)
            for m in range(len(xs) - 1)
        ]
    )
    return xs[1:], np.sum(np.abs(n_vals - r_vals), axis=1)


def eps_mean(
    corrector: Corrector,
    problem: OdeProblem,
    schedule: StepSchedule,
    region: Optional[tuple[float, float]] = None,
    rel_tol: float = 1e-6,
    abs_tol: float = 1e-6,
) -> float:
    """Mean |network - residual| over the mesh steps inside ``region``.

    A step belongs to (lo, hi] when its right endpoint does, so adjacent
    regions partition the mesh exactly.
    """
    ends, gaps = eps_series(corrector, problem, schedule, rel_tol, abs_tol)
    if region is not None:
        lo, hi = region
        mask = (ends > lo) & (ends <= hi)
        if not np.any(mask):
            raise ValueError(f"no mesh steps end inside ({lo}, {hi}]")
        gaps = gaps[mask]
    return float(np.mean(gaps))


def convergence_order(
    problem: OdeProblem,
    stepper,
    h_list: Sequence[float],
) -> OrderEstimate:
    """Slope of log(max error) against log(h) for a halving sequence of steps."""
    hs = [float(h) for h in h_list]
    if len(hs) < 3:
        raise ValueError("need at least 3 step sizes")
    for h_prev, h_next in zip(hs, hs[1:]):
        if abs(h_prev / h_next - 2.0) > 1e-9:
            raise ValueError(f"step sizes must halve, got {h_prev} then {h_next}")
    if problem.exact is None:
        raise ValueError("convergence measurement needs an exact solution")
    errors = []
    for h in hs:
        traj = solve_fixed(problem, StepSchedule.uniform(h), stepper)
        errors.append(max_abs_error(traj, problem.exact))
    if min(errors) < 1e-12:
        return OrderEstimate(math.inf, True, tuple(hs), tuple(errors))
    slope = np.polyfit(np.log(hs), np.log(errors), 1)[0]
    return OrderEstimate(float(slope), False, tuple(hs), tuple(errors))


def stability_scan(
    lam: float,
    corrector: Corrector,
    h_grid: Sequence[float],
    steps: int = 1000,
    bound: float = 10.0,
) -> list[tuple[float, bool]]:
    """Corrected Euler iteration on y' = lam*y from y=1; (h, bounded) in grid
    order, bounded meaning |y_m| <= bound for all of ``steps`` iterations.

    The grid is solved in lockstep, with one batched network call per step; an
    h leaves once unbounded or non-finite. The flags are the result: batched
    network values can differ from a one-h solve at rounding level."""
    hs = [float(h) for h in h_grid]
    if not (lam < 0 and all(h > 0 for h in hs)):
        raise ValueError("stability scan expects lam < 0 and positive step sizes")
    problem = OdeProblem("linear_test", 1, lambda x, y: lam * y, (0.0, math.inf), np.ones(1))
    # Checks the order and the network shape; the oracle steps row by row.
    stepper = make_corrected_stepper(euler_step, 1, corrector, problem)
    live, h, y = np.arange(len(hs)), np.array(hs), np.ones(len(hs))
    for m in range(steps):
        if not live.size:
            break
        x = m * h
        with np.errstate(over="ignore", invalid="ignore"):
            if corrector.kind == "oracle":
                y_next = np.array(
                    [_oracle_row(stepper, problem, *row) for row in zip(x.tolist(), y, h.tolist())]
                )
            else:
                y_next = y + h * (lam * y)
                if corrector.kind == "network":
                    inputs = np.column_stack((x, x + h, y))
                    y_next += h**2 * forward_batch(corrector.params, inputs)[:, 0]
            keep = np.isfinite(y_next) & (np.abs(y_next) <= bound)
        live, h, y = live[keep], h[keep], y_next[keep]
    bounded = np.zeros(len(hs), dtype=bool)
    bounded[live] = True
    return list(zip(hs, bounded.tolist()))


def _oracle_row(stepper, problem: OdeProblem, x: float, y: float, h: float) -> float:
    try:
        return stepper(problem, x, np.array([y]), h)[0]
    except NonFiniteState:
        return math.nan
