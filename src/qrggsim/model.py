"""Quasi random geometric graph connection model.

Nodes live in the unit square. Two nodes at Euclidean distance d are always
connected for d <= r, never connected for d > r_prime, and connected
stochastically inside the annulus r < d <= r_prime. The annulus kernel is
either a constant probability p ("fixed") or a distance-decaying probability
(1 - sqrt((d^2 - r^2) / (r_prime^2 - r^2))) * p ("linear_decay").
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .rng import RandomStream

KERNEL_FIXED = "fixed"
KERNEL_LINEAR_DECAY = "linear_decay"
# Simpson nodes (odd) for connection_probability's linear_decay integral.
SIMPSON_GRID = 20001


@dataclass(frozen=True)
class ConnectionModel:
    """Radii and annulus kernel governing pairwise connectivity.

    For the fixed kernel `p` is the constant annulus probability; for
    linear_decay it is the p_connection factor scaling the decay term.
    """

    r: float
    r_prime: float
    kernel: str = KERNEL_FIXED
    p: float = 1.0

    def __post_init__(self):
        # A bool would pass the range checks as 0 or 1 and write `true` into
        # the provenance; a non-number would fail them with TypeError.
        for key in ("r", "r_prime", "p"):
            value = getattr(self, key)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError(f"model {key} must be a number, not {value!r}")
        if self.kernel not in (KERNEL_FIXED, KERNEL_LINEAR_DECAY):
            raise ValueError(f"unknown kernel {self.kernel!r}")
        if not (0.0 <= self.r <= 1.0 and 0.0 <= self.r_prime <= 1.0):
            raise ValueError("radii must lie in [0, 1]")
        if self.r > self.r_prime:
            raise ValueError("require r <= r_prime")
        if self.r == self.r_prime and self.kernel != KERNEL_FIXED:
            raise ValueError("degenerate r == r_prime only allowed with the fixed kernel")
        if not (0.0 <= self.p <= 1.0):
            raise ValueError("probability parameter must lie in [0, 1]")

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, obj: dict) -> "ConnectionModel":
        return cls(r=obj["r"], r_prime=obj["r_prime"], kernel=obj["kernel"], p=obj["p"])


def sample_points(n: int, rng: RandomStream) -> np.ndarray:
    """Sample n positions uniformly in the unit square. Shape (n, 2)."""
    if n < 0:
        raise ValueError("n must be non-negative")
    return rng.random((n, 2))


def kernel_probability(d, model: ConnectionModel):
    """Connection probability at distance d (scalar or array); a negative
    or NaN distance raises ValueError."""
    d_arr = np.asarray(d, dtype=float)
    if not np.all(d_arr >= 0):
        raise ValueError("distance must be non-negative")
    if model.kernel == KERNEL_FIXED:
        annulus = model.p
    else:
        # Only the annulus values are kept, where d > r makes frac >= 0.
        frac = (d_arr * d_arr - model.r**2) / (model.r_prime**2 - model.r**2)
        annulus = (1.0 - np.sqrt(np.maximum(frac, 0.0))) * model.p
    out = np.where(d_arr <= model.r, 1.0, np.where(d_arr <= model.r_prime, annulus, 0.0))
    if np.isscalar(d) or d_arr.ndim == 0:
        return float(out)
    return out


def effective_annulus_p(model: ConnectionModel) -> float:
    """Mean annulus connection probability.

    For linear_decay the area-average of the decay factor over the annulus is
    exactly 1/3 (substituting v = (d^2 - r^2)/(r'^2 - r^2) turns the average
    into the integral of 1 - sqrt(v) over [0, 1]).
    """
    if model.kernel == KERNEL_FIXED:
        return model.p
    return model.p / 3.0


def p_prime_bounds(model: ConnectionModel):
    """Interval bracketing the marginal pair-connection probability.

    lower = (pi r^2 + pi (r'^2 - r^2) p) / 4 (corner placement),
    upper = pi r^2 + pi (r'^2 - r^2) p, both clamped to [0, 1], with p the
    mean annulus probability (effective_annulus_p). pi (r'^2 - r^2) p is the
    kernel's integral over the annulus for either kernel, so both ends are
    exact for linear_decay too.
    """
    p = effective_annulus_p(model)
    full = math.pi * model.r**2 + math.pi * (model.r_prime**2 - model.r**2) * p
    upper = min(1.0, max(0.0, full))
    lower = min(1.0, max(0.0, full / 4.0))
    return lower, upper


def unit_square_distance_cdf(rho: float) -> float:
    """P(d <= rho) for the distance of two uniform points in the unit square.

    Valid for 0 <= rho <= 1: pi rho^2 - (8/3) rho^3 + rho^4 / 2.
    """
    if rho < 0:
        return 0.0
    if rho > 1:
        raise ValueError("closed form implemented for rho <= 1 only")
    return math.pi * rho**2 - (8.0 / 3.0) * rho**3 + 0.5 * rho**4


def connection_probability(model: ConnectionModel) -> float:
    """Border-corrected marginal pair-connection probability.

    Fixed kernel: exact via the unit-square distance CDF. Linear decay:
    Simpson integration of the kernel against the distance density.
    """
    disk = unit_square_distance_cdf(model.r)
    if model.r_prime == model.r:
        return disk
    if model.kernel == KERNEL_FIXED:
        annulus = unit_square_distance_cdf(model.r_prime) - unit_square_distance_cdf(model.r)
        return disk + model.p * annulus
    d = np.linspace(model.r, model.r_prime, SIMPSON_GRID)
    density = 2.0 * math.pi * d - 8.0 * d**2 + 2.0 * d**3
    frac = np.clip((d * d - model.r**2) / (model.r_prime**2 - model.r**2), 0.0, 1.0)
    integrand = (1.0 - np.sqrt(frac)) * model.p * density
    h = (model.r_prime - model.r) / (SIMPSON_GRID - 1)
    weights = np.ones(SIMPSON_GRID)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    return disk + float(np.dot(weights, integrand)) * h / 3.0
