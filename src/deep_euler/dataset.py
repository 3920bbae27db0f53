"""Mesh-free measurement synthesis and training-pair construction.

Measurements are ground-truth states at uniformly random abscissae,
optionally contaminated with relative Gaussian noise. Every ordered pair
(x_i < x_j) yields one supervised sample whose target is the scaled
one-step defect of the base method between the two measurements
(``ode.scaled_defect``). Pairs are built and returned as arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError
from .ode import BASE_METHODS, OdeProblem, evaluate_truth, scaled_defect


@dataclass(frozen=True)
class Measurement:
    x: float
    z: np.ndarray


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
) -> list[Measurement]:
    """Draw ``count`` abscissae from U(lo, hi) and attach (noisy) ground truth.

    Returned sorted by x; reproducible for a fixed seed. Ground truth is the
    exact solution when the problem has one, else a 1e-6 reference solve.
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
    return [Measurement(float(x), z) for x, z in zip(xs, zs)]


def build_pairs(
    problem: OdeProblem,
    measurements: Sequence[Measurement],
    policy: PairPolicy,
    base: str = "euler",
) -> tuple[np.ndarray, np.ndarray]:
    """All pairs with x_i < x_j passing the policy, as (inputs, targets):
    inputs rows (x_i, x_j, z_i) of shape (B, n+2), targets the scaled defect
    of the ``base`` method, of shape (B, n)."""
    method = BASE_METHODS.get(base)
    if method is None:
        raise ConfigError(f"target: unknown base method {base!r}")
    if len(measurements) < 2:
        raise ConfigError("need at least 2 measurements to form pairs")
    ms = sorted(measurements, key=lambda m: m.x)
    xs = np.array([m.x for m in ms])
    zs = np.stack([m.z for m in ms])
    idx_i, idx_j = np.triu_indices(len(ms), k=1)
    gaps = xs[idx_j] - xs[idx_i]
    keep = (gaps > 0.0) & (gaps >= policy.gap)  # > 0 drops duplicate abscissae
    idx_i, idx_j = idx_i[keep], idx_j[keep]
    if len(idx_i) == 0:
        raise ConfigError("pair policy eliminated every pair")
    x_i, z_i, x_j = xs[idx_i], zs[idx_i], xs[idx_j]
    targets = scaled_defect(method, problem, x_i, z_i.T, x_j, zs[idx_j].T)
    return np.column_stack((x_i, x_j, z_i)), np.ascontiguousarray(targets.T)


def stack_samples(pairs: tuple[np.ndarray, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """The (inputs, targets) arrays of ``build_pairs``, ready for training."""
    inputs, targets = pairs
    if len(inputs) == 0:
        raise ConfigError("no samples to stack")
    return inputs, targets
