"""Corrected single-step integrators.

A corrected step adds h^q times a correction term to the step of a base
method from ``ode.BASE_METHODS``, with q = order + 1: Euler with q=2 (Deep
Euler Method), Heun with q=3 (Deep Heun Method). The correction comes from a
trained network, from the true scaled truncation error (oracle), or is
identically zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import CorrectorShapeError, OrderMismatch
from .mlp import MlpParams, bind_layers, forward_into
from .ode import (
    BASE_METHODS, EULER, HEUN, BaseMethod, OdeProblem, StepSchedule, Trajectory, flow, solve_fixed,
)


@dataclass(frozen=True)
class Corrector:
    """Correction source plus the power of h it is scaled by.

    ``offset`` shifts the oracle output by a constant; it exists so tests can
    inject a known approximation error into an otherwise exact corrector.
    """

    kind: str
    order_exponent: int
    params: Optional[MlpParams] = None
    offset: float = 0.0

    def __post_init__(self):
        if all(m.exponent != self.order_exponent for m in BASE_METHODS.values()):
            raise OrderMismatch(f"no base method has order exponent {self.order_exponent}")
        if self.kind not in ("network", "oracle", "zero"):
            raise ValueError(f"unknown corrector kind {self.kind!r}")
        if (self.params is not None) != (self.kind == "network"):
            raise ValueError("a corrector has params exactly when its kind is 'network'")

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
        """The true scaled truncation error. ``problem`` must have an exact
        solution, but the oracle keeps nothing of it: a stepper it is bound to
        integrates the local flow of the problem that stepper is bound to."""
        if problem.exact is None:
            raise ValueError("oracle corrector needs a problem with an exact solution")
        return cls(kind="oracle", order_exponent=order_exponent, offset=offset)

    @classmethod
    def zero(cls, order_exponent: int = 2) -> "Corrector":
        return cls(kind="zero", order_exponent=order_exponent)


def checked_network(method: BaseMethod, corrector: Corrector, dim: int) -> Optional[MlpParams]:
    """The corrector's network, None for an oracle or zero corrector, checked
    to fit ``method`` and a problem of dimension ``dim``: the corrector's
    exponent is the method's, and a network maps dim + 2 -> dim."""
    if corrector.order_exponent != method.exponent:
        raise OrderMismatch(f"corrector exponent {corrector.order_exponent} does not match "
                            f"{method.name} order {method.order} + 1")
    params = corrector.params
    widths = params.layer_widths if params is not None else (dim + 2, dim)
    if widths[0] != dim + 2 or widths[-1] != dim:
        raise CorrectorShapeError(
            f"network maps {widths[0]} -> {widths[-1]}, problem needs {dim + 2} -> {dim}"
        )
    return params


def make_corrected_stepper(method: BaseMethod, corrector: Corrector, problem: OdeProblem):
    """Bind a corrector to a base method and a problem, checked once by
    checked_network; the stepper returns base + h^q * correction. A
    zero corrector gives the method's public step. The oracle and network
    steppers take the base from the method's advance, which enters no error
    state: they serve inside solve_fixed, which holds one for the whole solve.
    A network stepper binds its layers and buffers once, so it serves one
    solve at a time, and does not check its state: a solve already has."""
    params = checked_network(method, corrector, problem.dim)
    if corrector.kind == "zero":
        return method.step
    q, advance = corrector.order_exponent, method.advance
    if corrector.kind == "oracle":

        def oracle_stepper(problem, x, y, h):
            base = advance(problem, x, y, h)
            # True scaled defect along the local flow: the step is exact locally.
            correction = (flow(problem, x, y, x + h) - base) / h**q + corrector.offset
            return base + h**q * correction

        return oracle_stepper

    widths = params.layer_widths
    inp = np.empty(widths[0])
    layers = tuple(bind_layers(params, [np.empty(w) for w in widths[1:]]))

    def network_stepper(problem, x, y, h):
        base = advance(problem, x, y, h)
        inp[0] = x
        inp[1] = x + h
        inp[2:] = y
        return base + h**q * forward_into(layers, inp)

    return network_stepper


def solve_dem(
    problem: OdeProblem,
    corrector: Corrector,
    schedule: StepSchedule,
) -> Trajectory:
    """Integrate with the corrected Euler stepper over the schedule."""
    return solve_fixed(problem, schedule, make_corrected_stepper(EULER, corrector, problem))


def solve_dhm(
    problem: OdeProblem,
    corrector: Corrector,
    schedule: StepSchedule,
) -> Trajectory:
    """Integrate with the corrected Heun stepper over the schedule."""
    return solve_fixed(problem, schedule, make_corrected_stepper(HEUN, corrector, problem))
