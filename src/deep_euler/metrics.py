"""Error metrics, network-vs-residual diagnostics, order estimation, stability scan."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .dem import Corrector, checked_network
from .mlp import bind_layers, forward_batch, forward_into
from .ode import (
    _QUIET,
    BASE_METHODS,
    EULER,
    OdeProblem,
    StepSchedule,
    Trajectory,
    evaluate_truth,
    scaled_defect,
    solve_fixed,
)


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
        truth = np.stack([np.asarray(exact(x), float) for x in trajectory.xs.tolist()])
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
) -> tuple[np.ndarray, np.ndarray]:
    """Per-step |network - residual| along the ground-truth trajectory.

    Returns (right endpoints x_{m+1}, component-sum gaps). The residual is the
    scaled defect of the base method whose exponent is the corrector's
    (2 -> Euler, 3 -> Heun) between ground-truth states, not the corrected
    trajectory. The network must fit that method and the problem.
    """
    if corrector.kind != "network":
        raise ValueError("eps diagnostics are defined for network correctors")
    method = next(m for m in BASE_METHODS.values() if m.exponent == corrector.order_exponent)
    params = checked_network(method, corrector, problem.dim)
    xs = schedule.mesh(*problem.domain)
    truth = evaluate_truth(problem, xs)
    inputs = np.column_stack((xs[:-1], xs[1:], truth[:-1]))
    n_vals = forward_batch(params, inputs)
    r_vals = scaled_defect(method, problem, xs[:-1], truth[:-1].T, xs[1:], truth[1:].T)
    return xs[1:], np.sum(np.abs(n_vals - r_vals.T), axis=1)


def eps_mean(
    corrector: Corrector,
    problem: OdeProblem,
    schedule: StepSchedule,
    region: Optional[tuple[float, float]] = None,
) -> float:
    """Mean |network - residual| over the mesh steps inside ``region``."""
    ends, gaps = eps_series(corrector, problem, schedule)
    return float(np.mean(gaps if region is None else gaps[region_mask(ends, region)]))


def region_mask(ends: np.ndarray, region: tuple[float, float]) -> np.ndarray:
    """Steps whose right end lies in (lo, hi], so adjacent regions partition the mesh."""
    lo, hi = region
    mask = (ends > lo) & (ends <= hi)
    if not np.any(mask):
        raise ValueError(f"no mesh steps end inside ({lo}, {hi}]")
    return mask


def halving_schedules(problem: OdeProblem, h_list: Sequence[float]) -> list[StepSchedule]:
    """The uniform schedule of each step size of a convergence measurement on
    ``problem``, checked: at least 3 steps, each half the one before and
    fitting the domain, and an exact solution to measure the error against."""
    hs = [float(h) for h in h_list]
    if len(hs) < 3:
        raise ValueError("need at least 3 step sizes")
    for h_prev, h_next in zip(hs, hs[1:]):
        if abs(h_prev - 2.0 * h_next) > 1e-9 * abs(h_next):  # no division: h may be 0
            raise ValueError(f"step sizes must halve, got {h_prev} then {h_next}")
    if problem.exact is None:
        raise ValueError("convergence measurement needs an exact solution")
    schedules = [StepSchedule.uniform(h) for h in hs]
    for schedule in schedules:
        schedule.mesh(*problem.domain)
    return schedules


def convergence_order(
    problem: OdeProblem,
    stepper,
    h_list: Sequence[float],
) -> OrderEstimate:
    """Slope of log(max error) against log(h) for a halving sequence of steps."""
    schedules = halving_schedules(problem, h_list)
    hs = [schedule.h for schedule in schedules]
    errors = [max_abs_error(solve_fixed(problem, schedule, stepper), problem.exact)
              for schedule in schedules]
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
    The corrector is a network or zero; an oracle is refused.

    The grid is solved in lockstep, with one batched network call per step; an
    h leaves once unbounded or non-finite. The flags are the result: batched
    network values can differ from a one-h solve at rounding level."""
    hs = [float(h) for h in h_grid]
    if not (-math.inf < lam < 0 and all(0 < h < math.inf for h in hs)):
        raise ValueError("stability scan expects a finite lam < 0 and finite positive step sizes")
    if steps < 1 or not bound > 0:
        raise ValueError(f"stability scan expects steps >= 1 and bound > 0, got {steps}, {bound}")
    if corrector.kind == "oracle":
        raise ValueError("stability scan expects a network or zero corrector")
    params = checked_network(EULER, corrector, 1)  # None for the zero corrector
    live, h, y = np.arange(len(hs)), np.array(hs), np.ones(len(hs))
    # Network inputs (x, x + h, y) and layer outputs for the whole grid; the live
    # h use the leading rows, bound once per live count. Finite h keep the
    # inputs finite, since an h leaves once its state is not.
    inputs = np.empty((len(hs), 3))
    widths = params.layer_widths[1:] if params is not None else ()
    outputs = [np.empty((len(hs), w)) for w in widths]
    layers, bound_rows = (), 0
    with np.errstate(**_QUIET):
        for m in range(steps):
            n = live.size
            if not n:
                break
            y_next = y + h * (lam * y)
            if params is not None:
                if n != bound_rows:
                    layers, bound_rows = tuple(bind_layers(params, [z[:n] for z in outputs])), n
                a = inputs[:n]
                np.multiply(m, h, out=a[:, 0])
                np.add(a[:, 0], h, out=a[:, 1])
                a[:, 2] = y
                n_vals = forward_into(layers, a)
                y_next += h**EULER.exponent * n_vals[:, 0]
            keep = np.isfinite(y_next) & (np.abs(y_next) <= bound)
            live, h, y = live[keep], h[keep], y_next[keep]
    bounded = np.zeros(len(hs), dtype=bool)
    bounded[live] = True
    return list(zip(hs, bounded.tolist()))

