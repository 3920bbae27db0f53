"""Exception types shared across the toolkit."""


class DeepEulerError(Exception):
    """Base class for all toolkit errors; a configuration error unless a
    subclass says otherwise. ``exit_code`` is the command line's exit status."""

    exit_code = 2


class ShapeError(DeepEulerError):
    """A dimension or shape that does not fit."""

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


class MinStepReached(NumericalError):
    """The adaptive solver (a reference solve or a local flow) could not shrink its step."""


class UnknownProblem(DeepEulerError):
    """Lookup of a problem name that is not in the registry."""


class InvalidArchitecture(ShapeError):
    """Layer widths that cannot form a valid network."""


class InvalidInput(ShapeError):
    """Non-finite or wrongly shaped network input."""


class EmptyBatch(ShapeError):
    """loss_and_grad called with no samples."""


class NonFiniteGradient(NumericalError):
    """Optimizer update received NaN or infinite gradients."""


class ModelFormatError(DeepEulerError):
    """Corrupt, truncated, or incompatible model checkpoint."""


class TooFewPoints(DeepEulerError):
    """Measurement sampling needs at least two points."""


class EmptyDataset(DeepEulerError):
    """Pair selection policy eliminated every candidate pair."""


class CorrectorShapeError(ShapeError):
    """Corrector network dimensions do not match the problem."""


class OrderMismatch(ShapeError):
    """Corrector exponent does not equal base method order + 1."""


class ConfigError(DeepEulerError):
    """Invalid or unknown configuration entry; message carries the key path."""
