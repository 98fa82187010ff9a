"""Per-layer tracing for the benchmark, done from outside the program.

`Tracer.install` replaces the public functions at each module boundary of
`qrggsim` with timing wrappers, looked up where the caller resolves them
(for example `qrggsim.experiment.min_cut`, which `run_trial` calls, and
`qrggsim.graph.min_cut`, which `multicast_capacity` calls). Each call becomes
a span: name, start, end, parent span and trial id. Spans stay in memory and
are written out by the caller when the run ends.

Timings use every traced trial. Counts use only the trials of the counted
batches, which are fixed by the seed, so a count repeats exactly for a seed.
Spans inside `--jobs` worker processes are not collected: forked workers
inherit the wrappers but their span lists are discarded with them.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
from collections import Counter

import numpy as np

# name -> (unit, better, end-to-end metric it should move, workloads where
# it moves). The per_layer list of BENCHMARK.json is this table's first
# three columns; perfbench/smoke.py checks that the two agree.
PER_LAYER = {
    "model.kernel_probability.busy_s": ("s/trial", "lower", "trials_per_s, peak_rss_mb", "mostly large_n; small on fig3"),
    "model.kernel.pairs": ("count", "lower", "trials_per_s, peak_rss_mb", "mostly large_n; small on fig3"),
    "model.kernel.bernoulli_draws": ("count", "lower", "none; guards determinism, must repeat exactly", "all"),
    "graph.build.p50_ms": ("ms", "lower", "trials_per_s", "large_n more than fig3"),
    "graph.build.busy_s": ("s/trial", "lower", "trials_per_s", "large_n more than fig3"),
    "graph.bytes_per_graph": ("bytes", "lower", "peak_rss_mb", "large_n"),
    "graph.edges_per_graph": ("count", "higher", "none; guards the edge draw", "all"),
    "graph.min_cut.calls": ("count", "lower", "trials_per_s", "fig3, large_n; part of multicast_rlnc"),
    "graph.min_cut.p50_ms": ("ms", "lower", "trials_per_s", "fig3, large_n; part of multicast_rlnc"),
    "graph.min_cut.p90_ms": ("ms", "lower", "trials_per_s", "fig3, large_n; part of multicast_rlnc"),
    "graph.min_cut.busy_s": ("s/trial", "lower", "trials_per_s", "fig3, large_n; part of multicast_rlnc"),
    "graph.edge_disjoint_paths.calls": ("count", "lower", "trials_per_s", "multicast_rlnc only"),
    "graph.edge_disjoint_paths.busy_s": ("s/trial", "lower", "trials_per_s", "multicast_rlnc only"),
    "graph.flows_per_terminal_trial": ("ratio", "lower", "trials_per_s", "multicast_rlnc (about 4); exactly 1 elsewhere"),
    "rlnc.verify.busy_s": ("s/trial", "lower", "trials_per_s", "multicast_rlnc only"),
    "rlnc.verify.self_s": ("s/trial", "lower", "trials_per_s", "multicast_rlnc only"),
    "rlnc.build_coding_dag.busy_s": ("s/trial", "lower", "trials_per_s", "multicast_rlnc only"),
    "rlnc.cyclic_skip_ratio": ("ratio", "lower", "none; useful-work ratio", "multicast_rlnc"),
    "rlnc.decode_success_ratio": ("ratio", "higher", "none; useful-work guard", "multicast_rlnc"),
    "gf256.matrix_rank.calls": ("count", "lower", "trials_per_s", "multicast_rlnc only; 0 elsewhere"),
    "gf256.matrix_rank.busy_s": ("s/trial", "lower", "trials_per_s", "multicast_rlnc only; 0 elsewhere"),
    "gf256.solve_linear_system.calls": ("count", "lower", "trials_per_s", "multicast_rlnc only; 0 elsewhere"),
    "gf256.solve_linear_system.busy_s": ("s/trial", "lower", "trials_per_s", "multicast_rlnc only; 0 elsewhere"),
    "experiment.run_trial.p50_ms": ("ms", "lower", "trials_per_s", "serial workloads"),
    "experiment.run_trial.p90_ms": ("ms", "lower", "trials_per_s", "serial workloads"),
    "experiment.aggregate_s": ("s", "lower", "trials_per_s", "serial workloads"),
    "experiment.parallel_efficiency": ("ratio", "higher", "trials_per_s", "fig3_jobs2; 1 by definition at jobs=1"),
    "trace.overhead_frac": ("ratio", "lower", "none; reported", "all"),
}

# (module, attribute, span name). The same function gets one wrapper per
# namespace it is called through, all under one span name.
WRAPPED = [
    ("qrggsim.experiment", "run_experiment", "experiment.run_experiment"),
    ("qrggsim.experiment", "run_trial", "experiment.run_trial"),
    ("qrggsim.experiment", "build_connectivity_graph", "graph.build"),
    ("qrggsim.experiment", "min_cut", "graph.min_cut"),
    ("qrggsim.experiment", "verify_achievability", "rlnc.verify"),
    ("qrggsim.graph", "kernel_probability", "model.kernel_probability"),
    ("qrggsim.graph", "min_cut", "graph.min_cut"),
    ("qrggsim.rlnc", "multicast_capacity", "graph.multicast_capacity"),
    ("qrggsim.rlnc", "build_coding_dag", "rlnc.build_coding_dag"),
    ("qrggsim.rlnc", "edge_disjoint_paths", "graph.edge_disjoint_paths"),
    ("qrggsim.rlnc", "matrix_rank", "gf256.matrix_rank"),
    ("qrggsim.rlnc", "solve_linear_system", "gf256.solve_linear_system"),
]


def _graph_bytes(graph) -> int:
    """Bytes held by the graph's numpy arrays, computed from array sizes."""
    return sum(v.nbytes for v in vars(graph).values() if isinstance(v, np.ndarray))


class Tracer:
    """In-memory span recorder with counters taken at the same boundaries."""

    def __init__(self):
        self.spans: list[tuple] = []  # (name, start, end, parent index, trial id)
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self.counts: Counter = Counter()
        self.counted_graphs: list = []  # measured after the run, outside every span
        self.counting = False  # True while a counted batch runs
        self.trial_base = 0    # trial id of index 0 in the current batch
        self._trial = None

    def _count(self, name: str, result):
        c = self.counts
        c[name + ".calls"] += 1
        if name == "model.kernel_probability":
            probs = np.asarray(result)
            c["pairs"] += probs.size
            c["bernoulli_draws"] += int(np.count_nonzero((probs > 0.0) & (probs < 1.0)))
        elif name == "graph.build":
            self.counted_graphs.append(result)
        elif name == "rlnc.verify":
            if result.cyclic_skipped:
                c["cyclic_skips"] += 1
            elif result.h > 0:
                c["coding_trials"] += result.trials
                c["decoded"] += round(result.success_fraction * result.trials)

    def _wrap(self, original, name):
        spans, stack = self.spans, self._stack
        sets_trial = name == "experiment.run_trial"

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if sets_trial:
                self._trial = self.trial_base + args[1]
            # A span is a tuple of atoms, which the garbage collector stops
            # tracking; thousands of held lists would slow every collection.
            index, parent, trial = len(spans), stack[-1] if stack else None, self._trial
            stack.append(index)
            spans.append(None)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                spans[index] = (name, start, time.perf_counter(), parent, trial)
                stack.pop()
                if sets_trial:
                    self._trial = None
            if self.counting:
                self._count(name, result)
            return result

        return wrapper

    def install(self):
        for module_name, attr, span_name in WRAPPED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            setattr(module, attr, self._wrap(original, span_name))
            self._patches.append((module, attr, original))

    def uninstall(self):
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def spans_json(self) -> list[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "trial": t}
            for n, s, e, p, t in self.spans
        ]

    def layer_metrics(self) -> dict:
        """Per-layer figures from the spans and the counted batches.

        busy_s and self_s are seconds per traced trial; p50/p90 are over
        every call; counts and ratios are over the counted batches.
        """
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        durations: dict[str, list[float]] = {}
        self_times: dict[str, list[float]] = {}
        for (name, start, end, _, _), child in zip(self.spans, child_time):
            durations.setdefault(name, []).append(end - start)
            self_times.setdefault(name, []).append(end - start - child)

        trials = len(durations.get("experiment.run_trial", ()))

        def busy(name):
            return sum(durations.get(name, ())) / trials if trials else 0.0

        def pct(name, q):
            d = durations.get(name)
            if not d:
                return 0.0
            return 1e3 * float(np.percentile(d, q))

        def ratio(num, den):
            return num / den if den else 0.0

        c = self.counts
        graphs = self.counted_graphs
        terminals = sum(g.n_terminals for g in graphs)
        run_exp = self_times.get("experiment.run_experiment")
        return {
            "model.kernel_probability.busy_s": busy("model.kernel_probability"),
            "model.kernel.pairs": c["pairs"],
            "model.kernel.bernoulli_draws": c["bernoulli_draws"],
            "graph.build.p50_ms": pct("graph.build", 50),
            "graph.build.busy_s": busy("graph.build"),
            "graph.bytes_per_graph": ratio(sum(map(_graph_bytes, graphs)), len(graphs)),
            "graph.edges_per_graph": ratio(sum(len(g.edge_list()) for g in graphs), len(graphs)),
            "graph.min_cut.calls": c["graph.min_cut.calls"],
            "graph.min_cut.p50_ms": pct("graph.min_cut", 50),
            "graph.min_cut.p90_ms": pct("graph.min_cut", 90),
            "graph.min_cut.busy_s": busy("graph.min_cut"),
            "graph.edge_disjoint_paths.calls": c["graph.edge_disjoint_paths.calls"],
            "graph.edge_disjoint_paths.busy_s": busy("graph.edge_disjoint_paths"),
            "graph.flows_per_terminal_trial": ratio(
                c["graph.min_cut.calls"] + c["graph.edge_disjoint_paths.calls"], terminals,
            ),
            "rlnc.verify.busy_s": busy("rlnc.verify"),
            "rlnc.verify.self_s": ratio(sum(self_times.get("rlnc.verify", ())), trials),
            "rlnc.build_coding_dag.busy_s": busy("rlnc.build_coding_dag"),
            "rlnc.cyclic_skip_ratio": ratio(c["cyclic_skips"], c["rlnc.verify.calls"]),
            "rlnc.decode_success_ratio": ratio(c["decoded"], c["coding_trials"]),
            "gf256.matrix_rank.calls": c["gf256.matrix_rank.calls"],
            "gf256.matrix_rank.busy_s": busy("gf256.matrix_rank"),
            "gf256.solve_linear_system.calls": c["gf256.solve_linear_system.calls"],
            "gf256.solve_linear_system.busy_s": busy("gf256.solve_linear_system"),
            "experiment.run_trial.p50_ms": pct("experiment.run_trial", 50),
            "experiment.run_trial.p90_ms": pct("experiment.run_trial", 90),
            "experiment.aggregate_s": statistics.median(run_exp) if run_exp else 0.0,
        }
