"""Hybrid ODE solvers: single-step methods corrected by a trained network
that approximates the scaled local truncation error."""

__version__ = "0.1.0"

from .dataset import (
    NoiseSpec,
    PairPolicy,
    build_pairs,
    sample_measurements,
    stack_samples,
)
from .dem import (
    Corrector,
    make_corrected_stepper,
    solve_dem,
    solve_dhm,
)
from .metrics import (
    OrderEstimate,
    convergence_order,
    eps_mean,
    max_abs_error,
    stability_scan,
)
from .mlp import (
    MlpParams,
    TrainConfig,
    clip_weights,
    forward_batch,
    init,
    lipschitz_bound,
    load_model,
    loss_and_grad,
    save_model,
    train,
)
from .ode import (
    EULER,
    HEUN,
    OdeProblem,
    StepSchedule,
    Trajectory,
    builtin_problems,
    euler_step,
    evaluate_truth,
    get_problem,
    heun_step,
    restrict,
    solve_fixed,
    solve_reference,
)

__all__ = [
    "__version__",
    "EULER",
    "HEUN",
    "Corrector",
    "MlpParams",
    "NoiseSpec",
    "OdeProblem",
    "OrderEstimate",
    "PairPolicy",
    "StepSchedule",
    "TrainConfig",
    "Trajectory",
    "build_pairs",
    "builtin_problems",
    "clip_weights",
    "convergence_order",
    "eps_mean",
    "euler_step",
    "evaluate_truth",
    "forward_batch",
    "get_problem",
    "heun_step",
    "init",
    "lipschitz_bound",
    "load_model",
    "loss_and_grad",
    "make_corrected_stepper",
    "max_abs_error",
    "sample_measurements",
    "save_model",
    "solve_dem",
    "solve_dhm",
    "solve_fixed",
    "solve_reference",
    "stability_scan",
    "stack_samples",
    "train",
]
