"""Mesh-free measurement synthesis and training-pair construction.

Measurements are ground-truth states at uniformly random abscissae,
optionally contaminated with relative Gaussian noise. Every ordered pair
(x_i < x_j) yields one supervised sample whose target is the scaled
one-step defect of the base method between the two measurements.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import BadPairOrder, ConfigError, EmptyDataset, TooFewPoints
from .ode import BASE_METHODS, EULER, BaseMethod, OdeProblem, evaluate_truth


@dataclass(frozen=True)
class Measurement:
    x: float
    z: np.ndarray


@dataclass(frozen=True)
class NoiseSpec:
    """Relative Gaussian noise: z = y * (1 + level * g), g standard normal."""

    level: float = 0.0
    kind: str = "gaussian_relative"

    def __post_init__(self):
        if not 0.0 <= self.level < 1.0:
            raise ConfigError(f"noise_level: must be in [0, 1), got {self.level}")
        if self.kind != "gaussian_relative":
            raise ConfigError(f"noise kind: unknown {self.kind!r}")


@dataclass(frozen=True)
class ResidualSample:
    """One training pair: input (x_i, x_j, z_i), target the scaled defect."""

    input: np.ndarray
    target: np.ndarray
    gap: float


@dataclass(frozen=True)
class PairPolicy:
    kind: str
    gap: float = 0.0

    @classmethod
    def all_pairs(cls) -> "PairPolicy":
        return cls(kind="all_pairs")

    @classmethod
    def min_gap(cls, gap: float) -> "PairPolicy":
        if gap < 0:
            raise ConfigError(f"pair_policy.min_gap: must be >= 0, got {gap}")
        return cls(kind="min_gap", gap=float(gap))


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
        raise TooFewPoints(f"need at least 2 measurements, got {count}")
    rng = np.random.default_rng(seed)
    xs = np.sort(rng.uniform(lo, hi, size=count))
    zs = evaluate_truth(problem, xs)
    if noise.level > 0.0:
        g = rng.standard_normal(size=zs.shape)
        zs = zs * (1.0 + noise.level * g)
    return [Measurement(float(x), z) for x, z in zip(xs, zs)]


def residual(x_i: float, x_j: float, z_i, z_j, problem: OdeProblem) -> np.ndarray:
    """Scaled Euler defect between two measurements:
    (z_j - z_i - dx*f(x_i, z_i)) / dx^2 with dx = x_j - x_i.
    """
    dx = x_j - x_i
    if dx <= 0:
        raise BadPairOrder(f"x_j must exceed x_i, got {x_i} >= {x_j}")
    z_i = np.asarray(z_i, dtype=np.float64)
    z_j = np.asarray(z_j, dtype=np.float64)
    return (z_j - z_i - dx * np.asarray(problem.rhs(x_i, z_i), float)) / (dx * dx)


def _base_method(base: str) -> BaseMethod:
    method = BASE_METHODS.get(base)
    if method is None:
        raise ConfigError(f"target: unknown base method {base!r}")
    return method


def stepper_residual(
    x_i: float,
    x_j: float,
    z_i,
    z_j,
    problem: OdeProblem,
    base: str = "euler",
) -> np.ndarray:
    """Scaled defect of a named base method: (z_j - step(x_i, z_i, dx)) / dx^(p+1)."""
    dx = x_j - x_i
    if dx <= 0:
        raise BadPairOrder(f"x_j must exceed x_i, got {x_i} >= {x_j}")
    method = _base_method(base)
    if method is EULER:
        # Euler keeps its own formula: the generic form rounds differently.
        return residual(x_i, x_j, z_i, z_j, problem)
    pred = method.step(problem, x_i, np.asarray(z_i, float), dx)
    return (np.asarray(z_j, float) - pred) / dx**method.exponent


def build_pairs(
    problem: OdeProblem,
    measurements: Sequence[Measurement],
    policy: PairPolicy,
    base: str = "euler",
) -> list[ResidualSample]:
    """All pairs with x_i < x_j passing the policy, as residual samples."""
    method = _base_method(base)
    if len(measurements) < 2:
        raise TooFewPoints("need at least 2 measurements to form pairs")
    ms = sorted(measurements, key=lambda m: m.x)
    xs = np.array([m.x for m in ms])
    zs = np.stack([m.z for m in ms])
    idx_i, idx_j = np.triu_indices(len(ms), k=1)
    gaps = xs[idx_j] - xs[idx_i]
    keep = gaps > 0.0  # guards against duplicate abscissae
    if policy.kind == "min_gap":
        keep &= gaps >= policy.gap
    idx_i, idx_j, gaps = idx_i[keep], idx_j[keep], gaps[keep]
    if len(idx_i) == 0:
        raise EmptyDataset("pair policy eliminated every pair")

    if method is EULER:
        # One rhs evaluation per measurement, shared across its pairs.
        f_vals = np.stack([np.asarray(problem.rhs(m.x, m.z), float) for m in ms])
        targets = (zs[idx_j] - zs[idx_i] - gaps[:, None] * f_vals[idx_i]) / (
            gaps[:, None] ** 2
        )
    else:
        targets = np.stack(
            [
                stepper_residual(xs[i], xs[j], zs[i], zs[j], problem, base)
                for i, j in zip(idx_i, idx_j)
            ]
        )

    samples = []
    for row, (i, j) in enumerate(zip(idx_i, idx_j)):
        inp = np.concatenate(([xs[i], xs[j]], zs[i]))
        samples.append(ResidualSample(inp, targets[row], float(gaps[row])))
    return samples


def split(
    samples: Sequence[ResidualSample],
    fraction: float,
    seed: int,
) -> tuple[list[ResidualSample], list[ResidualSample]]:
    """Deterministic shuffled split into (train, validation)."""
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"fraction must be in (0, 1), got {fraction}")
    perm = np.random.default_rng(seed).permutation(len(samples))
    cut = int(len(samples) * fraction)
    train = [samples[i] for i in perm[:cut]]
    val = [samples[i] for i in perm[cut:]]
    return train, val


def stack_samples(samples: Sequence[ResidualSample]) -> tuple[np.ndarray, np.ndarray]:
    """Samples as (inputs, targets) arrays ready for training."""
    if len(samples) == 0:
        raise EmptyDataset("no samples to stack")
    return np.stack([s.input for s in samples]), np.stack([s.target for s in samples])


def export_samples(samples: Sequence[ResidualSample], path) -> None:
    """Write samples as delimited text, lossless at 17 significant digits."""
    if len(samples) == 0:
        raise EmptyDataset("no samples to export")
    n = len(samples[0].target)
    header = ["x_i", "x_j"]
    header += [f"z_{c + 1}" for c in range(n)]
    header += [f"target_{c + 1}" for c in range(n)]
    lines = [",".join(header)]
    for s in samples:
        vals = list(s.input) + list(s.target)
        lines.append(",".join(format(v, ".17g") for v in vals))
    Path(path).write_text("\n".join(lines) + "\n")


def load_samples(path) -> list[ResidualSample]:
    """Inverse of export_samples."""
    lines = Path(path).read_text().strip().split("\n")
    header = lines[0].split(",")
    n = sum(1 for name in header if name.startswith("z_"))
    samples = []
    for line in lines[1:]:
        vals = np.array([float(v) for v in line.split(",")])
        inp, target = vals[: n + 2], vals[n + 2 :]
        samples.append(ResidualSample(inp, target, float(inp[1] - inp[0])))
    return samples
