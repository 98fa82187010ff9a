"""Closed-form expectation and concentration-bound evaluators.

All probabilities are clamped to [0, 1]. At desk scale (n around 200) the
capacity bounds' epsilon exceeds 1; instead of erroring, reports carry
explicit vacuity flags so callers see an honest answer.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from .model import ConnectionModel, connection_probability, p_prime_bounds


def expected_cut_capacity(n: int, k: int, p_prime: float) -> float:
    """Expected crossing capacity of a size-k relay partition: p'(n + k(n-k))."""
    if not 0 <= k <= n:
        raise ValueError("require 0 <= k <= n")
    return p_prime * (n + k * (n - k))


def cut_tail_bound(n: int, k: int, p_prime: float, epsilon: float) -> float:
    """Tail bound for size-k cuts: exp(-(eps^2 (n-k) p' / 2 - ln(k+1)))."""
    if not 0 <= k <= n:
        raise ValueError("require 0 <= k <= n")
    if not 0.0 <= p_prime <= 1.0:
        raise ValueError("p_prime must lie in [0, 1]")
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    exponent = epsilon * epsilon * (n - k) * p_prime / 2.0 - math.log(k + 1)
    return min(1.0, math.exp(-exponent))


def lower_bound_report(n: int, tau: int, p_prime: float, k: int = 0):
    """High-probability lower bound on the multicast capacity.

    Returns (epsilon, bound, fail_prob, vacuous) with
    epsilon = sqrt(4 ln n / (p'(n - k))), bound = (1 - epsilon) n p' and
    fail_prob = 2 tau / n^2 (proof-explicit constant), clamped to 1.
    """
    if n <= 1:
        raise ValueError("require n >= 2")
    if not 0 <= k < n:
        raise ValueError("require 0 <= k < n")
    if tau < 1:
        raise ValueError("require tau >= 1")
    fail_prob = min(1.0, 2.0 * tau / (n * n))
    if p_prime <= 0.0:
        return math.inf, 0.0, fail_prob, True
    epsilon = math.sqrt(4.0 * math.log(n) / (p_prime * (n - k)))
    vacuous = epsilon >= 1.0
    bound = 0.0 if vacuous else (1.0 - epsilon) * n * p_prime
    return epsilon, bound, fail_prob, vacuous


def upper_bound_report(n: int, p_prime: float):
    """High-probability upper bound on the multicast capacity.

    Returns (epsilon, bound, fail_prob, vacuous) with
    epsilon = sqrt(4 ln n / (n p')), bound = (1 + epsilon) n p' and
    fail_prob = 2 n^(-4/3) (proof-explicit constant). The bound stays valid
    when epsilon >= 1 but is flagged vacuous for the caller.
    """
    if n <= 1:
        raise ValueError("require n >= 2")
    fail_prob = min(1.0, 2.0 * n ** (-4.0 / 3.0))
    if p_prime <= 0.0:
        return math.inf, 0.0, fail_prob, True
    epsilon = math.sqrt(4.0 * math.log(n) / (n * p_prime))
    bound = (1.0 + epsilon) * n * p_prime
    return epsilon, bound, fail_prob, epsilon >= 1.0


@dataclass(frozen=True)
class BoundReport:
    n: int
    tau: int
    p_prime: float
    p_prime_interval: tuple[float, float]
    expected_c0: float
    epsilon_lower: float
    lower_bound: float
    lower_fail_prob: float
    epsilon_upper: float
    upper_bound: float
    upper_fail_prob: float
    vacuous_lower: bool
    vacuous_upper: bool

    def to_json(self) -> dict:
        return {name: _sig6(value) for name, value in asdict(self).items()}


def _sig6(x):
    """Round a float to 6 significant digits for stable serialization.

    A non-finite float (vacuous epsilon at p' = 0) serializes as null, a
    tuple or list as a list of rounded items; any other value (int, bool,
    str, None) passes through unchanged.
    """
    if isinstance(x, (tuple, list)):
        return [_sig6(v) for v in x]
    if not isinstance(x, float):
        return x
    if not math.isfinite(x):
        return None
    return float(f"{x:.6g}") if x else 0.0


def full_report(n: int, tau: int, model: ConnectionModel, k: int = 0) -> BoundReport:
    """Aggregate report; the p' point value is the border-corrected
    integration oracle, the interval is the corner/interior sandwich."""
    p_prime = connection_probability(model)
    interval = p_prime_bounds(model)
    expected_c0 = expected_cut_capacity(n, 0, p_prime)
    eps_lo, lo, lo_fail, vac_lo = lower_bound_report(n, tau, p_prime, k)
    eps_hi, hi, hi_fail, vac_hi = upper_bound_report(n, p_prime)
    return BoundReport(
        n=n,
        tau=tau,
        p_prime=p_prime,
        p_prime_interval=interval,
        expected_c0=expected_c0,
        epsilon_lower=eps_lo,
        lower_bound=lo,
        lower_fail_prob=lo_fail,
        epsilon_upper=eps_hi,
        upper_bound=hi,
        upper_fail_prob=hi_fail,
        vacuous_lower=vac_lo,
        vacuous_upper=vac_hi,
    )
