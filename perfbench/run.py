"""Benchmark of the qrggsim Monte Carlo trial pipeline.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fig3 --seed 3 --seconds 26 --trace 0

Each workload calls the public entry points `run_experiment` and
`save_result` in batches, batch b using master seed `seed * 1_000_000 + b`,
until `--seconds` have passed. The program sees only the generated
`ExperimentConfig`. Outputs are checked after the timed region; a trial that
raised or failed a check counts as failed.

`--trace 0` prints the end-to-end metrics: trials per reference second,
set-up seconds (median over fresh processes, launch to first timed trial)
and peak RSS of this process and its pool workers. A reference second is the
time the host needs for REF_JOBS runs of a fixed reference job, measured
next to each batch: on a shared host the speed of the cores swings by up to
1.7x within minutes, and dividing by it removes most of that swing. Plain
wall-clock trials_per_s and failed_fraction are printed beside them but are
not part of the JSON result.

`--trace 1` splits the time into an untraced and a traced segment over the
same batches and prints the per-layer metrics of `perfbench/tracing.py`.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. Run records and spans go to `.perfbench_out/`
in the checkout.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import deque
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
from tracing import PER_LAYER, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
GOLDEN = Path(__file__).resolve().with_name("golden.json")

# At this seed the first batch of each workload must serialize to the digest
# in golden.json. Every other seed runs only the checks that hold at any seed.
DEFAULT_SEED = 1
SETUP_PROBES = 7
# One reference second is the time this host needs for REF_JOBS runs of
# reference_job(), about one second on a quiet 2-vCPU Xeon VM.
REF_JOBS = 100
FIG3_MODEL = {"r": 0.1, "r_prime": 0.2, "kernel": "fixed", "p": 0.5}

# name -> (unit, better); bounds live in BENCHMARK.json.
END_TO_END = {
    "trials_per_ref_s": ("trials/ref-s", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}


@dataclass(frozen=True)
class Workload:
    n_relays: int
    n_terminals: int
    jobs: int
    batch: int        # trials per run_experiment call
    rechecks: int     # trials whose min-cut certificates are recomputed and recounted
    count_batches: int = 1  # batches whose counts feed the traced per-layer counts
    rlnc_check: bool = False
    rlnc_trials: int = 8


# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    "fig3": Workload(200, 1, jobs=1, batch=100, rechecks=20),
    "large_n": Workload(2000, 1, jobs=1, batch=1, rechecks=1),
    "multicast_rlnc": Workload(200, 4, jobs=1, batch=1, rechecks=4, count_batches=8,
                               rlnc_check=True, rlnc_trials=64),
    "fig3_jobs2": Workload(200, 1, jobs=2, batch=100, rechecks=20),
}


def tiny(w: Workload) -> Workload:
    """The same workload shape at a size the smoke test runs in seconds."""
    return replace(w, n_relays=60, batch=min(w.batch, 4), rechecks=2, count_batches=1,
                   rlnc_trials=min(w.rlnc_trials, 4))


@dataclass
class Batch:
    index: int
    config: object
    seconds: float         # wall clock
    ref: float = 1.0       # reference_seconds() around the batch
    result: object = None  # ExperimentResult, None if the batch raised
    data: bytes = b""      # bytes written by save_result

    @property
    def ref_seconds(self) -> float:
        """The batch's seconds in reference seconds, i.e. at a fixed host speed."""
        return self.seconds / (REF_JOBS * self.ref)


def import_program():
    """Import qrggsim from this checkout's src/, never from elsewhere."""
    package = SRC / "qrggsim"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: {package} not found; run from the root of a full checkout")
    sys.path.insert(0, str(SRC))
    import qrggsim
    import qrggsim.experiment

    if Path(qrggsim.__file__).resolve().parent != package.resolve():
        sys.exit(f"perfbench: imported qrggsim from {qrggsim.__file__}, not {package}")
    return qrggsim


@functools.cache
def _reference_inputs():
    n = 3000
    adjacency = [[(i * 7919 + k * 104729) % n for k in range(6)] for i in range(n)]
    return adjacency, np.linspace(0.0, 1.0, 50_000)


def reference_job(adjacency, xs) -> float:
    """Fixed work shaped like a trial: breadth-first searches over adjacency
    lists in the interpreter, then a vectorised pass over an array."""
    n = len(adjacency)
    for start in range(6):
        level = [-1] * n
        level[start] = 0
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for v in adjacency[u]:
                if level[v] < 0:
                    level[v] = level[u] + 1
                    queue.append(v)
    return sum(float(np.hypot(xs, k * xs[::-1]).sum()) for k in range(1, 9))


def reference_seconds() -> float:
    """Median seconds of three runs of reference_job().

    The host's speed swings by up to 1.7x within minutes (shared cores,
    steal); timings divided by this figure, taken next to them, keep most
    of the program's cost and lose most of the swing."""
    inputs = _reference_inputs()
    samples = []
    for _ in range(3):
        t0 = time.perf_counter()
        reference_job(*inputs)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def steal_seconds() -> float | None:
    """Host steal time of this machine so far (Linux /proc/stat, read only)."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            return int(fh.readline().split()[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def make_config(q, w: Workload, seed: int, batch: int):
    return q.ExperimentConfig(
        n_relays=w.n_relays,
        n_terminals=w.n_terminals,
        model=q.ConnectionModel(**FIG3_MODEL),
        trials=w.batch,
        master_seed=seed * 1_000_000 + batch,
        rlnc_check=w.rlnc_check,
        rlnc_trials=w.rlnc_trials,
    )


def set_up(w: Workload):
    """Import, build a config and warm up on a small graph through the same
    entry points; everything before the first timed trial."""
    q = import_program()
    OUT.mkdir(exist_ok=True)
    config = make_config(q, replace(w, n_relays=20, batch=2), 0, 0)
    path = OUT / f"warmup-{os.getpid()}.json"
    q.experiment.save_result(q.experiment.run_experiment(config, jobs=w.jobs), str(path))
    path.unlink()
    return q


def run_segment(q, w: Workload, seed: int, seconds: float, jobs: int, tracer=None):
    """Timed batches 0, 1, ... until `seconds` have passed (and, when traced,
    until the counted batches are done)."""
    path = OUT / f"result-{os.getpid()}.json"
    batches = []
    min_batches = w.count_batches if tracer else 1
    deadline = time.perf_counter() + seconds
    ref_before = reference_seconds()
    b = 0
    while b < min_batches or time.perf_counter() < deadline:
        config = make_config(q, w, seed, b)
        if tracer:
            tracer.counting = b < w.count_batches
            tracer.trial_base = b * w.batch
        t0 = time.perf_counter()
        try:
            result = q.experiment.run_experiment(config, jobs=jobs)
            q.experiment.save_result(result, str(path))
        except Exception:
            result = None
            traceback.print_exc()
        seconds = time.perf_counter() - t0
        ref_after = reference_seconds()
        batches.append(Batch(b, config, seconds, (ref_before + ref_after) / 2, result,
                             b"" if result is None else path.read_bytes()))
        ref_before = ref_after
        b += 1
    if tracer:
        tracer.counting = False
    path.unlink(missing_ok=True)
    return batches


def throughput(w: Workload, batches, clock: str) -> float:
    """Trials completed per second of `clock` (a Batch attribute: "seconds"
    or "ref_seconds") over the batches that did not raise."""
    ok = [getattr(b, clock) for b in batches if b.result is not None]
    return w.batch * len(ok) / sum(ok) if ok else 0.0


def time_ratio(numerator, denominator, clock: str) -> float:
    """Summed seconds of one segment over another's, on the batches both
    completed, so that both sides time the same trials."""
    num = {b.index: getattr(b, clock) for b in numerator if b.result is not None}
    den = {b.index: getattr(b, clock) for b in denominator if b.result is not None}
    common = num.keys() & den.keys()
    return sum(num[i] for i in common) / sum(den[i] for i in common) if common else 0.0


def recheck_trial(q, w: Workload, batch: Batch, i: int):
    """Rebuild trial i's graph from its documented child stream and recount
    each certificate; returns a problem string or None."""
    config, result = batch.config, batch.result
    stream = q.RandomStream.from_seed(config.master_seed).child("trial", i)
    graph = q.build_connectivity_graph(config.n_relays, config.n_terminals, config.model, stream)
    if graph.source_degree() != result.per_trial_source_cut[i]:
        return "source degree differs from the reported source cut"
    for k, t in enumerate(graph.terminal_ids):
        cut = q.min_cut(graph, t)
        recount = q.cut_capacity(graph, t, cut.partition_vk)
        if not recount == cut.capacity == result.per_terminal_cuts[i][k]:
            return (f"terminal {t}: certificate recounts to {recount}, min cut "
                    f"{cut.capacity}, reported {result.per_terminal_cuts[i][k]}")
    if w.rlnc_check:
        h = q.verify_achievability(graph, 1, stream.child("rlnc")).h
        if h != result.per_trial_capacity[i]:
            return f"rlnc h {h} differs from capacity {result.per_trial_capacity[i]}"
    return None


def check(q, w: Workload, name: str, seed: int, is_tiny: bool, segments, reference=()):
    """Check every timed batch; returns (attempted, failed, problems).

    Batches with the same index must serialize to the same bytes in every
    segment and in `reference` (serial recomputations), which covers tracing
    on/off and the determinism contract across --jobs.
    """
    failed: set[tuple[int, int, int]] = set()  # (segment, batch, trial)
    problems: list[str] = []

    def fail(s, batch, trials, why):
        failed.update((s, batch.index, i) for i in trials)
        problems.append(f"segment {s} batch {batch.index}: {why}")

    golden = None
    if seed == DEFAULT_SEED and not is_tiny:
        golden = json.loads(GOLDEN.read_text())[name]
    seen = {b.index: b.data for b in reference}
    attempted = 0
    for s, batches in enumerate(segments):
        for batch in batches:
            attempted += w.batch
            everything = range(w.batch)
            r = batch.result
            if r is None:
                fail(s, batch, everything, "raised")
                continue
            if len(r.per_trial_capacity) != w.batch:
                fail(s, batch, everything, "wrong number of trials")
                continue
            for i in everything:
                cuts = r.per_terminal_cuts[i]
                cap = r.per_trial_capacity[i]
                if len(cuts) != w.n_terminals or cap != min(cuts) or cap > r.per_trial_source_cut[i]:
                    fail(s, batch, [i], f"trial {i}: capacity {cap}, cuts {cuts}, "
                                        f"source degree {r.per_trial_source_cut[i]}")
            if batch.data != seen.setdefault(batch.index, batch.data):
                fail(s, batch, everything, "result bytes differ from the same batch elsewhere")
            if golden is not None and batch.index == 0:
                digest = hashlib.sha256(batch.data).hexdigest()
                if digest != golden:
                    fail(s, batch, everything, f"digest {digest} != golden {golden}")

    first = [(batch, i) for batch in segments[0] if batch.result is not None
             for i in range(w.batch)]
    k = min(w.rechecks, len(first))
    for j in range(k):
        batch, i = first[j * len(first) // k]
        try:
            why = recheck_trial(q, w, batch, i)
        except Exception as exc:
            why = f"recheck raised {exc!r}"
        if why:
            fail(0, batch, [i], f"trial {i}: {why}")
    return attempted, len(failed), problems


def serial_batch(q, w: Workload, seed: int, index: int) -> Batch:
    """Recompute one batch with jobs=1, outside any timed region."""
    config = make_config(q, w, seed, index)
    path = OUT / f"serial-{os.getpid()}.json"
    q.experiment.save_result(q.experiment.run_experiment(config, jobs=1), str(path))
    batch = Batch(index, config, 0.0, data=path.read_bytes())
    path.unlink()
    return batch


def peak_rss_mb(jobs: int) -> float:
    """Peak RSS of this process plus `jobs` times the largest worker's peak
    (Linux reports ru_maxrss in KiB; pages shared with workers count in each)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + (jobs * children if jobs > 1 else 0)) / 1024.0


def setup_probes(name: str, is_tiny: bool) -> list[float]:
    """Set up in fresh processes. Returns, per process, the seconds from
    launch to ready, where ready is the point at which a run would start its
    first timed trial.

    Not divided by reference seconds: process start-up and imports lean on
    the kernel and the page cache, which the reference job does not track,
    and dividing made the median drift more between sets of runs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", name]
    if is_tiny:
        cmd.append("--tiny")
    seconds = []
    for _ in range(SETUP_PROBES):
        launched = time.monotonic()  # CLOCK_MONOTONIC, shared with the child
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
        seconds.append(float(proc.stdout.split()[-1]) - launched)
    return seconds


def provenance(load_start, steal_start) -> dict:
    import numpy

    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    sources = hashlib.sha256()
    for path in sorted((SRC / "qrggsim").rglob("*.py")):
        sources.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": version("scipy"),
        "git_commit": commit,
        "src_sha256": sources.hexdigest(),
        "loadavg_start": list(load_start),
        "loadavg_end": list(os.getloadavg()),
        "steal_s": None if steal_start is None else steal_seconds() - steal_start,
    }


def measure(q, w: Workload, name: str, args):
    """Returns (metrics as {name: value}, timed segments, serial recomputations, run notes)."""
    if not args.trace:
        segment = run_segment(q, w, args.seed, args.seconds, w.jobs)
        rss = peak_rss_mb(w.jobs)
        reference = [serial_batch(q, w, args.seed, 0)] if w.jobs > 1 else []
        setup = setup_probes(name, args.tiny)
        metrics = {
            "trials_per_ref_s": throughput(w, segment, "ref_seconds"),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": rss,
        }
        notes = {
            "trials_per_s": throughput(w, segment, "seconds"),
            "batch_seconds": [b.seconds for b in segment],
            "batch_reference_seconds": [b.ref for b in segment],
            "setup_samples": setup,
        }
        return metrics, [segment], reference, notes

    share = args.seconds / (3 if w.jobs > 1 else 2)
    serial = run_segment(q, w, args.seed, share, 1) if w.jobs > 1 else []
    untraced = run_segment(q, w, args.seed, share, w.jobs)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_segment(q, w, args.seed, share, w.jobs, tracer)
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics()
    # At jobs=1 the one worker is the serial run, so the efficiency is 1.
    metrics["experiment.parallel_efficiency"] = (
        time_ratio(serial, untraced, "ref_seconds") / w.jobs if w.jobs > 1 else 1.0)
    metrics["trace.overhead_frac"] = 1.0 - time_ratio(untraced, traced, "ref_seconds")
    segments = [s for s in (serial, untraced, traced) if s]
    spans_path = OUT / f"spans-{name}-seed{args.seed}.json"
    spans_path.write_text(json.dumps(tracer.spans_json()))
    notes = {"spans": str(spans_path.relative_to(ROOT)), "span_count": len(tracer.spans),
             "batches": [len(s) for s in segments]}
    return metrics, segments, [], notes


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=26.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="run the workload at a tiny size (smoke test)")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    w = WORKLOADS[args.workload]
    if args.tiny:
        w = tiny(w)
    if args.setup_probe:
        set_up(w)
        print(time.monotonic(), flush=True)
        return 0

    load_start, steal_start = os.getloadavg(), steal_seconds()
    q = set_up(w)
    metrics, segments, reference, notes = measure(q, w, args.workload, args)
    attempted, failed, problems = check(q, w, args.workload, args.seed, args.tiny,
                                        segments, reference)
    prov = provenance(load_start, steal_start)

    units = {k: v[0] for k, v in (PER_LAYER if args.trace else END_TO_END).items()}
    out = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "tiny": args.tiny, "workload_shape": vars(w),
              "provenance": prov, "notes": notes, "problems": problems, **out}
    record_path = OUT / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=2) + "\n")

    for problem in problems[:20]:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)
    print(f"workload {args.workload}: seed {args.seed}, {attempted} trials in "
          f"{sum(map(len, segments))} batches of {w.batch}, jobs={w.jobs}, trace={args.trace}; "
          f"record {record_path.relative_to(ROOT)}")
    for k, m in out["metrics"].items():
        print(f"  {k:36s} {m['value']:.6g} {m['unit']}")
    if "trials_per_s" in notes:  # plain wall clock, reported but not gated
        print(f"  {'trials_per_s':36s} {notes['trials_per_s']:.6g} trials/s")
    print(f"  {'failed_fraction':36s} {failed / attempted:.6g} ({failed} of {attempted} trials)")
    print("provenance " + json.dumps(prov))
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
