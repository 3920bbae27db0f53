"""Exception types shared across the toolkit: one class per exit code, whose
message says what went wrong, and NonFiniteState, which carries where."""


class DeepEulerError(Exception):
    """Base class for all toolkit errors; a configuration error unless a
    subclass says otherwise. ``exit_code`` is the command line's exit status."""

    exit_code = 2


class ConfigError(DeepEulerError):
    """Invalid configuration, input data or checkpoint; the message names its key, if any."""


class ShapeError(DeepEulerError):
    """A dimension, shape, architecture or order that does not fit."""

    exit_code = 3


class NumericalError(DeepEulerError):
    """A computation that produced no finite result."""

    exit_code = 4


class NonFiniteState(NumericalError):
    """A right-hand side evaluation produced NaN or infinity."""

    def __init__(self, x, step=None):
        self.x = x
        self.step = step
        where = f"x={x}" if step is None else f"x={x} (step {step})"
        super().__init__(f"non-finite state at {where}")
