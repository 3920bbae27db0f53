"""Corrected single-step integrators.

A corrected step adds h^q times a correction term to a classical base step:
Euler with q=2 (Deep Euler Method), Heun with q=3 (Deep Heun Method), or any
p-order method with q=p+1. The correction comes from a trained network, from
the true scaled truncation error (oracle), or is identically zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import CorrectorShapeError, NonFiniteState, OrderMismatch
from .mlp import MlpParams, forward_into
from .ode import OdeProblem, StepSchedule, Trajectory, euler_step, flow, heun_step, solve_fixed


@dataclass(frozen=True)
class Corrector:
    """Correction source plus the power of h it is scaled by.

    ``offset`` shifts the oracle output by a constant; it exists so tests can
    inject a known approximation error into an otherwise exact corrector.
    """

    kind: str
    order_exponent: int
    params: Optional[MlpParams] = None
    flow_problem: Optional[OdeProblem] = None
    offset: float = 0.0

    def __post_init__(self):
        if self.order_exponent < 2:
            raise OrderMismatch(f"order exponent must be >= 2, got {self.order_exponent}")
        if self.kind not in ("network", "oracle", "zero"):
            raise ValueError(f"unknown corrector kind {self.kind!r}")

    @classmethod
    def network(cls, params: MlpParams, order_exponent: int = 2) -> "Corrector":
        return cls(kind="network", order_exponent=order_exponent, params=params)

    @classmethod
    def oracle(
        cls,
        problem: OdeProblem,
        order_exponent: int = 2,
        offset: float = 0.0,
    ) -> "Corrector":
        if problem.exact is None:
            raise ValueError("oracle corrector needs a problem with an exact solution")
        return cls(
            kind="oracle",
            order_exponent=order_exponent,
            flow_problem=problem,
            offset=offset,
        )

    @classmethod
    def zero(cls, order_exponent: int = 2) -> "Corrector":
        return cls(kind="zero", order_exponent=order_exponent)


def corrected_step(
    problem: OdeProblem,
    base_stepper,
    base_order: int,
    corrector: Corrector,
    x: float,
    y: np.ndarray,
    h: float,
) -> np.ndarray:
    """Base step of the given order plus h^(p+1) times the correction; a
    non-finite y raises NonFiniteState."""
    stepper = make_corrected_stepper(base_stepper, base_order, corrector, problem)
    if not np.isfinite(y).all():
        raise NonFiniteState(x)
    return stepper(problem, x, y, h)


def dem_step(problem: OdeProblem, corrector: Corrector, x, y, h) -> np.ndarray:
    """Euler step corrected at second order in h."""
    return corrected_step(problem, euler_step, 1, corrector, x, y, h)


def dhm_step(problem: OdeProblem, corrector: Corrector, x, y, h) -> np.ndarray:
    """Heun step corrected at third order in h."""
    return corrected_step(problem, heun_step, 2, corrector, x, y, h)


def make_corrected_stepper(
    base_stepper, base_order: int, corrector: Corrector, problem: OdeProblem
):
    """Bind a corrector to a base method and a problem, checking the order and
    a network's shape once; the stepper returns base + h^q * correction. A
    network stepper reuses its buffers, so it serves one solve at a time, and
    does not check its state: a solve already has."""
    q = corrector.order_exponent
    if q != base_order + 1:
        raise OrderMismatch(f"corrector exponent {q} does not match base order {base_order} + 1")
    if corrector.kind == "zero":
        return base_stepper
    if corrector.kind == "oracle":

        def oracle_stepper(problem, x, y, h):
            base = base_stepper(problem, x, y, h)
            # True scaled defect along the local flow: the step is exact locally.
            correction = (flow(problem, x, y, x + h) - base) / h**q + corrector.offset
            return base + h**q * correction

        return oracle_stepper

    params = corrector.params
    widths = params.layer_widths
    if widths[0] != problem.dim + 2 or widths[-1] != problem.dim:
        raise CorrectorShapeError(
            f"network maps {widths[0]} -> {widths[-1]}, problem needs "
            f"{problem.dim + 2} -> {problem.dim}"
        )
    inp = np.empty(widths[0])
    outputs = [np.empty(w) for w in widths[1:]]

    def network_stepper(problem, x, y, h):
        base = base_stepper(problem, x, y, h)
        inp[0] = x
        inp[1] = x + h
        inp[2:] = y
        return base + h**q * forward_into(params, inp, outputs)

    return network_stepper


def solve_dem(
    problem: OdeProblem,
    corrector: Corrector,
    schedule: StepSchedule,
) -> Trajectory:
    """Integrate with the corrected Euler stepper over the schedule."""
    return solve_fixed(problem, schedule, make_corrected_stepper(euler_step, 1, corrector, problem))


def solve_dhm(
    problem: OdeProblem,
    corrector: Corrector,
    schedule: StepSchedule,
) -> Trajectory:
    """Integrate with the corrected Heun stepper over the schedule."""
    return solve_fixed(problem, schedule, make_corrected_stepper(heun_step, 2, corrector, problem))
