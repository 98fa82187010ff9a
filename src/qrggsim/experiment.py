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
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import __version__
from .bounds import BoundReport, _sig6, cut_tail_bound, full_report
from .graph import _require_int, build_connectivity_graph, min_cut, write_json_atomic
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
        # Checked before any trial runs, each error naming its field.
        for name, least in (("n_relays", 2), ("n_terminals", 1), ("trials", 1),
                            ("rlnc_trials", 1)):
            _require_int(name, getattr(self, name), least)
        _require_int("master_seed", self.master_seed)
        if self.histogram_bins is not None:
            _require_int("histogram_bins", self.histogram_bins, 1)
        for eps in self.audit_epsilons:
            if not 0.0 < eps < 1.0:
                raise ValueError("audit epsilons must lie in (0, 1)")

    def to_json(self) -> dict:
        # Provenance: exact, not rounded.
        return {**asdict(self), "audit_epsilons": list(self.audit_epsilons)}


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
                "bin_edges": _sig6(self.histogram_edges),
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
    """One graph draw: (per-terminal min cuts, source cut, the coding
    check's AchievabilityReport or None)."""
    if not 0 <= trial_index < config.trials:
        raise ValueError("trial index out of range")
    stream = RandomStream.from_seed(config.master_seed).child("trial", trial_index)
    graph = build_connectivity_graph(
        config.n_relays, config.n_terminals, config.model, stream
    )
    cuts = [min_cut(graph, t) for t in graph.terminal_ids]
    report = None
    if config.rlnc_check:
        report = verify_achievability(
            graph, config.rlnc_trials, stream.child("rlnc"), cuts=cuts
        )
    return [cut.capacity for cut in cuts], graph.source_degree(), report


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


# (workers, pool) of this process, kept across runs; None before the first
# parallel run and after a pool broke.
_pool: tuple[int, ProcessPoolExecutor] | None = None


def _worker_pool(jobs: int) -> ProcessPoolExecutor:
    """The pool of `jobs` workers: forked by the first run that needs it,
    reused by later runs with the same count, replaced for another count.
    concurrent.futures joins its workers at interpreter exit."""
    global _pool
    if _pool is None or _pool[0] != jobs:
        if _pool is not None:
            _pool[1].shutdown()
        _pool = (jobs, ProcessPoolExecutor(max_workers=jobs))
    return _pool[1]


def run_experiment(config: ExperimentConfig, jobs: int = 1) -> ExperimentResult:
    """Execute all trials, aggregate, and attach bound report and audits."""
    global _pool
    indices = range(config.trials)
    jobs = effective_jobs(jobs, config.trials)
    if jobs > 1:
        pool = _worker_pool(jobs)
        try:
            outcomes = list(pool.map(run_trial, [config] * config.trials, indices,
                                     chunksize=max(1, config.trials // (4 * jobs))))
        except BrokenProcessPool:
            _pool = None  # a worker died: the next run forks a fresh pool
            pool.shutdown()
            raise
    else:
        outcomes = [run_trial(config, i) for i in indices]

    per_terminal = [o[0] for o in outcomes]
    capacities = [min(cuts) for cuts in per_terminal]
    source_cuts = [o[1] for o in outcomes]
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
        reports = [o[2] for o in outcomes]
        cyclic_fraction = sum(r.cyclic_skipped for r in reports) / len(reports)
        fractions = [r.success_fraction for r in reports if not r.cyclic_skipped]
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
    report = result.bound_report
    e_c0 = report.expected_c0
    trials = len(result.per_trial_capacity)

    def row(kind, epsilon, observed, bound):
        slack = 3.0 * math.sqrt(bound * (1.0 - bound) / trials)
        return {"kind": kind, "epsilon": epsilon, "observed": _sig6(observed),
                "bound": _sig6(bound), "slack": _sig6(slack), "ok": observed <= bound + slack}

    rows = []
    for eps in epsilons:
        bound = cut_tail_bound(report.n, 0, report.p_prime, eps)
        threshold = (1.0 - eps) * e_c0
        observed = sum(1 for c in result.per_trial_source_cut if c < threshold) / trials
        rows.append(row("lower_tail_k0", eps, observed, bound))
    eps_u, fail_u = report.epsilon_upper, report.upper_fail_prob
    if report.vacuous_upper:
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
        rows.append(row("upper_capacity", _sig6(eps_u), observed, fail_u))
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
    r * r_prime_factor (clamped to 1; the factor must be finite) or
    r_prime_list's entry at r's position in r_list, so each r keeps its own
    r' when the rows are sorted.
    """
    if not n_list or not r_list:
        raise ValueError("n_list and r_list must be non-empty")
    if not math.isfinite(r_prime_factor):  # min(1.0, nan) would give r' = 1
        raise ValueError(f"r_prime_factor must be finite, not {r_prime_factor!r}")
    if r_prime_list is None:
        r_prime_list = [min(1.0, r * r_prime_factor) for r in r_list]
    elif len(r_prime_list) != len(r_list):
        raise ValueError("r_prime_list must match r_list")
    rows = []
    for n in sorted(n_list):
        for r, r_prime in sorted(zip(r_list, r_prime_list)):
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


def _csv(header, rows) -> str:
    """CSV text: the header's column names, then one line per row; float
    cells are written %.6g, any other cell with str."""
    lines = [",".join(header)]
    lines += [",".join(f"{x:.6g}" if isinstance(x, float) else str(x) for x in row)
              for row in rows]
    return "\n".join(lines) + "\n"


def capacity_csv(capacities: list[int]) -> str:
    return _csv(("trial", "capacity"), enumerate(capacities))


def histogram_csv(edges: list[float], counts: list[int]) -> str:
    return _csv(("bin_lo", "bin_hi", "count"), zip(edges, edges[1:], counts))


def sweep_to_csv(rows) -> str:
    columns = ("n", "r", "r_prime", "mean", "std")
    return _csv(columns, ([row[c] for c in columns] for row in rows))
