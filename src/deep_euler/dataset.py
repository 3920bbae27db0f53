"""Mesh-free measurement synthesis and training-pair construction.

Measurements are two arrays: uniformly random abscissae and their ground-truth
states, optionally with relative Gaussian noise. Every ordered pair (x_i < x_j)
yields one supervised sample whose target is the scaled one-step defect of the
base method between the two measurements (``ode.scaled_defect``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dem import corrector_input
from .errors import ConfigError, ShapeError
from .ode import BASE_METHODS, OdeProblem, evaluate_truth, scaled_defect


@dataclass(frozen=True)
class NoiseSpec:
    """Relative Gaussian noise: z = y * (1 + level * g), g standard normal."""

    level: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.level < 1.0:
            raise ConfigError(f"noise_level: must be in [0, 1), got {self.level}")


@dataclass(frozen=True)
class PairPolicy:
    """Keep the pairs with x_j - x_i >= gap; every pair when gap is 0."""

    gap: float = 0.0

    def __post_init__(self):
        if not self.gap >= 0:
            raise ConfigError(f"min_gap: must be >= 0, got {self.gap}")

    @classmethod
    def all_pairs(cls) -> "PairPolicy":
        return cls()


def sample_measurements(
    problem: OdeProblem,
    interval: tuple[float, float],
    count: int,
    noise: NoiseSpec,
    seed: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw ``count`` abscissae from U(lo, hi) and attach (noisy) ground truth.

    Returns (xs, zs): sorted abscissae (count,), states (count, dim); the same for one seed.
    Ground truth is the exact solution if the problem has one, else a 1e-6 reference solve.
    """
    lo, hi = interval
    a, b = problem.domain
    if not (a - 1e-12 <= lo < hi <= b + 1e-12):
        raise ValueError(f"sampling interval [{lo}, {hi}] outside domain [{a}, {b}]")
    if count < 2:
        raise ConfigError(f"need at least 2 measurements, got {count}")
    rng = np.random.default_rng(seed)
    xs = np.sort(rng.uniform(lo, hi, size=count))
    zs = evaluate_truth(problem, xs)
    if noise.level > 0.0:
        g = rng.standard_normal(size=zs.shape)
        zs = zs * (1.0 + noise.level * g)
    return xs, zs


def build_pairs(
    problem: OdeProblem,
    measurements: tuple[np.ndarray, np.ndarray],
    policy: PairPolicy,
    base: str = "euler",
) -> tuple[np.ndarray, np.ndarray]:
    """All pairs with x_i < x_j passing the policy, as (inputs, targets):
    inputs rows (x_i, x_j, z_i) of shape (B, n+2), written by
    ``dem.corrector_input``, targets the scaled defect of the ``base`` method,
    of shape (B, n). ``measurements`` is (xs, zs) of shapes (count,) and
    (count, n), in any order."""
    method = BASE_METHODS.get(base)
    if method is None:
        raise ConfigError(f"target: unknown base method {base!r}")
    xs, zs = (np.asarray(a, dtype=np.float64) for a in measurements)
    if xs.ndim != 1 or zs.shape != (len(xs), problem.dim):
        raise ShapeError(f"measurements: xs {xs.shape}, zs {zs.shape} do not fit dim {problem.dim}")
    if len(xs) < 2:
        raise ConfigError("need at least 2 measurements to form pairs")
    order = np.argsort(xs, kind="stable")
    xs, zs = xs[order], zs[order]
    idx_i, idx_j = np.triu_indices(len(xs), k=1)
    gaps = xs[idx_j] - xs[idx_i]
    keep = (gaps > 0.0) & (gaps >= policy.gap)  # > 0 drops duplicate abscissae
    idx_i, idx_j = idx_i[keep], idx_j[keep]
    if len(idx_i) == 0:
        raise ConfigError("pair policy eliminated every pair")
    x_i, z_i, x_j = xs[idx_i], zs[idx_i], xs[idx_j]
    targets = scaled_defect(method, problem, x_i, z_i.T, x_j, zs[idx_j].T)
    finite = np.isfinite(targets).all(axis=0)
    if not finite.all():  # a gap so small that dx^(p+1) underflows, or the defect overflows
        gap = np.min((x_j - x_i)[~finite])
        raise ConfigError(f"min_gap: the {base} target of a pair {gap:.3g} apart is not finite")
    inputs = corrector_input(x_i, x_j, z_i, np.empty((len(x_i), problem.dim + 2)))
    return inputs, np.ascontiguousarray(targets.T)


def stack_samples(pairs: tuple[np.ndarray, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """The (inputs, targets) arrays of ``build_pairs``, ready for training."""
    inputs, targets = pairs
    if len(inputs) == 0:
        raise ConfigError("no samples to stack")
    return inputs, targets
