"""Reproducible Monte Carlo experiments over QRGG connectivity graphs.

Each trial draws one graph from the child stream (master_seed, "trial",
index) and records its multicast capacity, per-terminal min cuts, and the
source cut (k = 0). Trials are pure functions of (config, index), so
parallel execution and aggregation order cannot change results.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import __version__
from .bounds import BoundReport, _sig6, cut_tail_bound, full_report, upper_bound_report
from .graph import build_connectivity_graph, min_cut, write_json_atomic
from .model import ConnectionModel, KERNEL_LINEAR_DECAY
from .rlnc import verify_achievability
from .rng import RandomStream


@dataclass(frozen=True)
class ExperimentConfig:
    n_relays: int
    n_terminals: int
    model: ConnectionModel
    trials: int
    master_seed: int
    histogram_bins: int | None = None  # None -> unit-width integer bins
    audit_epsilons: tuple[float, ...] = ()
    rlnc_check: bool = False
    rlnc_trials: int = 8

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.histogram_bins is not None and self.histogram_bins < 1:
            raise ValueError("histogram_bins must be >= 1")
        for eps in self.audit_epsilons:
            if not 0.0 < eps < 1.0:
                raise ValueError("audit epsilons must lie in (0, 1)")

    def to_json(self) -> dict:
        return {
            "n_relays": self.n_relays,
            "n_terminals": self.n_terminals,
            "model": self.model.to_json(),
            "trials": self.trials,
            "master_seed": self.master_seed,
            "histogram_bins": self.histogram_bins,
            "audit_epsilons": list(self.audit_epsilons),
            "rlnc_check": self.rlnc_check,
            "rlnc_trials": self.rlnc_trials,
        }


@dataclass(frozen=True)
class ExperimentResult:
    config: ExperimentConfig
    per_trial_capacity: list[int]
    per_trial_source_cut: list[int]
    per_terminal_cuts: list[list[int]]
    mean: float
    std_dev: float
    histogram_edges: list[float]
    histogram_counts: list[int]
    bound_report: BoundReport
    audit_outcomes: list[dict]
    rlnc_success_fraction: float | None = None
    skipped_cyclic_fraction: float | None = None

    def to_json(self) -> dict:
        return {
            "per_trial_capacity": self.per_trial_capacity,
            "per_trial_source_cut": self.per_trial_source_cut,
            "mean": _sig6(self.mean),
            "std_dev": _sig6(self.std_dev),
            "histogram": {
                "bin_edges": [_sig6(e) for e in self.histogram_edges],
                "counts": self.histogram_counts,
            },
            "bound_report": self.bound_report.to_json(),
            "audit_outcomes": self.audit_outcomes,
            "rlnc_success_fraction": _sig6(self.rlnc_success_fraction),
            "skipped_cyclic_fraction": _sig6(self.skipped_cyclic_fraction),
            "provenance": {
                "config": self.config.to_json(),
                "tool_version": __version__,
                "master_seed": self.config.master_seed,
            },
        }


def run_trial(config: ExperimentConfig, trial_index: int):
    """One graph draw: (capacity, per-terminal min cuts, source cut,
    rlnc success fraction or None, cyclic flag or None)."""
    if not 0 <= trial_index < config.trials:
        raise ValueError("trial index out of range")
    stream = RandomStream.from_seed(config.master_seed).child("trial", trial_index)
    graph = build_connectivity_graph(
        config.n_relays, config.n_terminals, config.model, stream
    )
    cuts = [min_cut(graph, t) for t in graph.terminal_ids]
    capacities = [cut.capacity for cut in cuts]
    source_cut = graph.source_degree()
    rlnc_success = None
    cyclic = None
    if config.rlnc_check:
        report = verify_achievability(
            graph, config.rlnc_trials, stream.child("rlnc"), cuts=cuts
        )
        cyclic = report.cyclic_skipped
        rlnc_success = None if report.cyclic_skipped else report.success_fraction
    return min(capacities), capacities, source_cut, rlnc_success, cyclic


def _histogram(values: list[int], bins: int | None):
    lo, hi = min(values), max(values)
    if bins is None:
        edges = np.arange(lo, hi + 2, dtype=float)  # unit-width integer bins
    else:
        span = max(hi - lo, 1)
        edges = np.linspace(lo, lo + span, bins + 1)
        edges[-1] = max(edges[-1], hi + 1e-9)
    counts, edges = np.histogram(values, bins=edges)
    return [float(e) for e in edges], [int(c) for c in counts]


def effective_jobs(jobs: int, trials: int) -> int:
    """Worker processes actually used: no more than the trials or the CPUs."""
    return min(jobs, trials, os.cpu_count() or 1)


def run_experiment(config: ExperimentConfig, jobs: int = 1) -> ExperimentResult:
    """Execute all trials, aggregate, and attach bound report and audits."""
    indices = range(config.trials)
    jobs = effective_jobs(jobs, config.trials)
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(run_trial, [config] * config.trials, indices,
                                     chunksize=max(1, config.trials // (4 * jobs))))
    else:
        outcomes = [run_trial(config, i) for i in indices]

    capacities = [o[0] for o in outcomes]
    per_terminal = [o[1] for o in outcomes]
    source_cuts = [o[2] for o in outcomes]
    mean = math.fsum(capacities) / len(capacities)
    if len(capacities) > 1:
        var = math.fsum((c - mean) ** 2 for c in capacities) / (len(capacities) - 1)
    else:
        var = 0.0
    std_dev = math.sqrt(var)
    edges, counts = _histogram(capacities, config.histogram_bins)

    report = full_report(config.n_relays, config.n_terminals, config.model, k=0)

    rlnc_success = None
    cyclic_fraction = None
    if config.rlnc_check:
        cyclic_flags = [o[4] for o in outcomes]
        cyclic_fraction = sum(1 for c in cyclic_flags if c) / len(cyclic_flags)
        fractions = [o[3] for o in outcomes if o[3] is not None]
        rlnc_success = math.fsum(fractions) / len(fractions) if fractions else None

    result = ExperimentResult(
        config=config,
        per_trial_capacity=capacities,
        per_trial_source_cut=source_cuts,
        per_terminal_cuts=per_terminal,
        mean=mean,
        std_dev=std_dev,
        histogram_edges=edges,
        histogram_counts=counts,
        bound_report=report,
        audit_outcomes=[],
        rlnc_success_fraction=rlnc_success,
        skipped_cyclic_fraction=cyclic_fraction,
    )
    if config.audit_epsilons:
        audits = audit_bounds(result, list(config.audit_epsilons))
        result = replace(result, audit_outcomes=audits)
    return result


def audit_bounds(result: ExperimentResult, epsilons: list[float]) -> list[dict]:
    """Empirical dominance audit of the tail bounds.

    For each epsilon: observed frequency of the source cut falling below
    (1 - eps) E[C_0] versus the size-0 tail bound. One additional row checks
    the capacity upper bound when its own epsilon is non-vacuous.
    Each row carries ok = observed <= bound + 3 sigma sampling slack.
    """
    rows = []
    report = result.bound_report
    n = report.n
    p_prime = report.p_prime
    e_c0 = report.expected_c0
    trials = len(result.per_trial_capacity)
    for eps in epsilons:
        if not 0.0 < eps < 1.0:
            raise ValueError("epsilon must lie in (0, 1)")
        threshold = (1.0 - eps) * e_c0
        observed = sum(1 for c in result.per_trial_source_cut if c < threshold) / trials
        bound = cut_tail_bound(n, 0, p_prime, eps)
        slack = 3.0 * math.sqrt(bound * (1.0 - bound) / trials)
        rows.append({
            "kind": "lower_tail_k0",
            "epsilon": eps,
            "observed": _sig6(observed),
            "bound": _sig6(bound),
            "slack": _sig6(slack),
            "ok": observed <= bound + slack,
        })
    eps_u, bound_u, fail_u, vacuous = upper_bound_report(n, p_prime)
    if vacuous:
        rows.append({
            "kind": "upper_capacity",
            "epsilon": _sig6(eps_u),
            "observed": None,
            "bound": None,
            "slack": None,
            "ok": True,
            "note": "vacuous at this scale",
        })
    else:
        threshold = (1.0 + eps_u) * e_c0
        observed = sum(1 for c in result.per_trial_capacity if c > threshold) / trials
        slack = 3.0 * math.sqrt(fail_u * (1.0 - fail_u) / trials)
        rows.append({
            "kind": "upper_capacity",
            "epsilon": _sig6(eps_u),
            "observed": _sig6(observed),
            "bound": _sig6(fail_u),
            "slack": _sig6(slack),
            "ok": observed <= fail_u + slack,
        })
    return rows


def run_sweep(
    n_list,
    r_list,
    trials: int,
    master_seed: int,
    r_prime_factor: float = 1.8,
    r_prime_list=None,
    p_connection: float = 0.9,
    n_terminals: int = 1,
    jobs: int = 1,
):
    """Mean capacity per (n, r) cell with the distance-decay kernel.

    Rows are emitted in (n ascending, r ascending) order. r' is either
    r * r_prime_factor (clamped to 1) or taken from r_prime_list.
    """
    if not n_list or not r_list:
        raise ValueError("n_list and r_list must be non-empty")
    if r_prime_list is not None and len(r_prime_list) != len(r_list):
        raise ValueError("r_prime_list must match r_list")
    rows = []
    for n in sorted(n_list):
        for idx, r in enumerate(sorted(r_list)):
            r_prime = (
                r_prime_list[idx] if r_prime_list is not None
                else min(1.0, r * r_prime_factor)
            )
            model = ConnectionModel(
                r=r, r_prime=r_prime, kernel=KERNEL_LINEAR_DECAY, p=p_connection
            )
            config = ExperimentConfig(
                n_relays=n, n_terminals=n_terminals, model=model,
                trials=trials, master_seed=master_seed,
            )
            result = run_experiment(config, jobs=jobs)
            rows.append({
                "n": n,
                "r": r,
                "r_prime": r_prime,
                "mean": _sig6(result.mean),
                "std": _sig6(result.std_dev),
            })
    return rows


def save_result(result: ExperimentResult, path: str):
    write_json_atomic(path, result.to_json())


def capacity_csv(capacities: list[int]) -> str:
    lines = ["trial,capacity"]
    lines += [f"{i},{c}" for i, c in enumerate(capacities)]
    return "\n".join(lines) + "\n"


def histogram_csv(edges: list[float], counts: list[int]) -> str:
    lines = ["bin_lo,bin_hi,count"]
    for lo, hi, count in zip(edges, edges[1:], counts):
        lines.append(f"{_sig6(lo):.6g},{_sig6(hi):.6g},{count}")
    return "\n".join(lines) + "\n"


def sweep_to_csv(rows) -> str:
    lines = ["n,r,r_prime,mean,std"]
    for row in rows:
        lines.append(
            f"{row['n']},{row['r']:.6g},{row['r_prime']:.6g},"
            f"{row['mean']:.6g},{row['std']:.6g}"
        )
    return "\n".join(lines) + "\n"
