"""Write a BENCH_<label>.json perf record from perfbench run records.

    python3 tools/bench_file.py --label LABEL --out BENCH_LABEL.json RECORD.json ...

Each RECORD is a `.perfbench_out/run-*.json` file of one `--trace 0` run,
copied aside after the run (perfbench overwrites it). The output keeps, for
every run, its workload, seed, provenance, end-to-end metrics and wall
`trials_per_s`; the median and quartiles of each per workload and seed; and
the median time of the build and `min_cut` stages (one terminal) at n = 200,
1000 and 2000 with the fig3 radii and at n = 5000 with sparse radii (mean
degree about 24, so `min_cut` takes the CSR engine), measured on the sources
under `--src`. The "200 x4 rlnc" row is the multicast trial: the fig3 radii
at n = 200 with 4 terminals, `min_cut` for all of them, then the
random-coding check on the flows those runs leave on the graph
(`verify_achievability`, 64 coding trials) as its `rlnc` stage. Beside the build and `min_cut` times, each
row keeps the median count of minor page faults per graph around each of
the two (`ru_minflt` of this process, read before and after): memory the
allocator handed back to the system between graphs and takes again. It
also keeps the median bytes that a graph's flows hold after `min_cut`
(`flow_bytes`: the `nbytes` of every array of each returned `Flow`), which
the graph keeps for as long as it lives. With
`--parent-src`, each stage row is timed
on both source trees in alternating subprocesses, STAGE_ROUNDS rounds each,
and the row keeps both medians, the median over rounds of the round's
`--src`/parent ratio and the rounds in which `--src` was faster, so a stage
comparison does not move with the host. Beside each count it keeps, and
prints, the exact two-sided sign-test p-value of that count: how often a
count at least that far from half the rounds comes up when neither tree is
faster (10 of 10 gives 0.002; 8 of 10, 0.11). Last, the tier-1 suite runs
once in this checkout (`python -m pytest -q --continue-on-collection-errors`),
and the record keeps its wall seconds and its passed and failed counts.
"""

from __future__ import annotations

import argparse
import json
import math
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
METRICS = ("trials_per_ref_s", "setup_s", "peak_rss_mb")
FIG3 = {"r": 0.1, "r_prime": 0.2, "kernel": "fixed", "p": 0.5}
SPARSE = {"r": 0.025, "r_prime": 0.05, "kernel": "fixed", "p": 0.5}
# row -> (n, terminals, graphs timed, model, coding trials, 0 for no coding
# check); seeds STAGE_SEED, STAGE_SEED + 1, ...
STAGES = {"200": (200, 1, 200, FIG3, 0), "1000": (1000, 1, 30, FIG3, 0),
          "2000": (2000, 1, 15, FIG3, 0), "5000 sparse": (5000, 1, 15, SPARSE, 0),
          "200 x4 rlnc": (200, 4, 60, FIG3, 64)}
STAGE_SEED = 777
STAGE_ROUNDS = 10


def spread(values):
    """Median and quartiles (inclusive method) of a list of run values."""
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3, "runs": len(values)}


def sign_test_p(faster: int, rounds: int) -> float:
    """Exact two-sided sign-test p-value of `faster` of `rounds`, each round
    a fair coin under the null: twice the smaller binomial tail, at most 1."""
    tail = sum(math.comb(rounds, k) for k in range(min(faster, rounds - faster) + 1))
    return min(1.0, 2 * tail / 2**rounds)


def stage_times(src: str, n: int, terminals: int, count: int, fields: dict,
                coding_trials: int) -> dict:
    """Per-graph seconds of each stage of one stage row, on the qrggsim
    under `src`: the build, `min_cut` for every terminal and, with coding
    trials, the coding check on those flows (`rlnc`); the minor page faults
    of the build and of `min_cut` per graph (`build_minflt`,
    `min_cut_minflt`); the bytes of the arrays of the graph's flows
    (`flow_bytes`); and the mean degree of the graphs timed."""
    sys.path.insert(0, src)
    import numpy as np
    from qrggsim import (ConnectionModel, RandomStream, build_connectivity_graph, min_cut,
                         verify_achievability)

    def faults():
        return resource.getrusage(resource.RUSAGE_SELF).ru_minflt

    model = ConnectionModel.from_json(fields)
    times = {"build": [], "min_cut": [], "build_minflt": [], "min_cut_minflt": [],
             "flow_bytes": []}
    degree = []
    for seed in range(STAGE_SEED, STAGE_SEED + count):
        stream = RandomStream.from_seed(seed)
        f0, t0 = faults(), time.perf_counter()
        g = build_connectivity_graph(n, terminals, model, stream)
        t1, f1 = time.perf_counter(), faults()
        flows = [min_cut(g, t) for t in g.terminal_ids]
        t2, f2 = time.perf_counter(), faults()
        times["flow_bytes"].append(sum(a.nbytes for flow in flows for a in vars(flow).values()
                                       if isinstance(a, np.ndarray)))
        times["build"].append(t1 - t0)
        times["min_cut"].append(t2 - t1)
        times["build_minflt"].append(f1 - f0)
        times["min_cut_minflt"].append(f2 - f1)
        if coding_trials:
            verify_achievability(g, coding_trials, stream.child("rlnc"))
            times.setdefault("rlnc", []).append(time.perf_counter() - t2)
        degree.append(2 * len(g.edges) / g.n_nodes)
    return {**times, "mean_degree": statistics.mean(degree)}


def time_in_child(src: Path, *row) -> dict:
    """stage_times of a STAGES row in a fresh interpreter, which imports only
    that tree."""
    code = ("import json, sys, bench_file; "
            "print(json.dumps(bench_file.stage_times(*json.loads(sys.argv[1]))))")
    spec = json.dumps([str(Path(src).resolve()), *row])
    done = subprocess.run([sys.executable, "-c", code, spec], cwd=Path(__file__).parent,
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def stage_medians(src: Path, parent_src: Path | None = None) -> dict:
    import numpy

    sides = {"": src} if parent_src is None else {"parent_": parent_src, "": src}
    rounds = 1 if parent_src is None else STAGE_ROUNDS
    out = {}
    for row, spec in STAGES.items():
        n, terminals, count, fields, coding_trials = spec
        runs = {side: [] for side in sides}
        for k in range(rounds):
            # Alternate which tree goes first, so neither always runs warmer.
            for side in (list(sides) if k % 2 == 0 else list(sides)[::-1]):
                runs[side].append(time_in_child(sides[side], *spec))
        out[row] = {"n": n, "terminals": terminals, "model": fields, "graphs": count,
                    "coding_trials": coding_trials, "mean_degree": runs[""][0]["mean_degree"]}
        for stage in ("build", "min_cut") + (("rlnc",) if coding_trials else ()):
            for side, timed in runs.items():
                # Pooled over rounds: every graph timed in every round.
                out[row][f"{side}{stage}_ms"] = statistics.median(
                    t for run in timed for t in run[stage]) * 1e3
                if stage != "rlnc":
                    out[row][f"{side}{stage}_minflt"] = statistics.median(
                        f for run in timed for f in run[f"{stage}_minflt"])
            if parent_src is not None:
                # Each round's two runs are adjacent in time, so their ratio
                # leaves out most of the host's drift.
                ratios = [statistics.median(a[stage]) / statistics.median(b[stage])
                          for a, b in zip(runs[""], runs["parent_"])]
                ratio, faster = statistics.median(ratios), sum(r < 1 for r in ratios)
                p = sign_test_p(faster, rounds)
                out[row].update({f"{stage}_ratio": ratio, f"{stage}_faster_rounds": faster,
                                 f"{stage}_sign_p": p})
                print(f"{row} {stage}: ratio {ratio:.3f}, faster in {faster} of {rounds} "
                      f"rounds, sign-test p {p:.3g}")
        for side, timed in runs.items():
            out[row][f"{side}flow_bytes"] = statistics.median(
                b for run in timed for b in run["flow_bytes"])
        if parent_src is not None:
            out[row]["rounds"] = rounds
            out[row]["parent_mean_degree"] = runs["parent_"][0]["mean_degree"]
    return {"first_seed": STAGE_SEED,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "medians": out}


def tier1() -> dict:
    """Wall seconds of one tier-1 run in this checkout, with the passed and
    failed counts of its summary line."""
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "pytest", "-q",
                           "--continue-on-collection-errors"],
                          cwd=ROOT, capture_output=True, text=True)
    seconds = time.perf_counter() - start
    summary = (done.stdout.strip().splitlines() or [""])[-1]
    counts = {word: int(k) for k, word in re.findall(r"(\d+) (passed|failed)\b", summary)}
    return {"seconds": seconds, "passed": counts.get("passed", 0),
            "failed": counts.get("failed", 0)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("records", nargs="+", type=Path)
    parser.add_argument("--label", required=True)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="sources whose stages are timed (default: this checkout's)")
    parser.add_argument("--parent-src", type=Path,
                        help="sources to time against, alternating with --src")
    parser.add_argument("--note", default="", help="free text kept in the record")
    args = parser.parse_args(argv)

    runs = []
    for path in args.records:
        record = json.loads(path.read_text())
        if record["trace"] or record["tiny"]:
            parser.error(f"{path}: not a full-size --trace 0 run")
        runs.append({
            "workload": record["workload"], "seed": record["seed"],
            "seconds": record["seconds"], "correct": record["correct"],
            "attempted": record["attempted"], "failed": record["failed"],
            "metrics": {k: record["metrics"][k]["value"] for k in METRICS},
            # Plain wall clock, beside the gated metrics.
            "trials_per_s": record["notes"]["trials_per_s"],
            "provenance": record["provenance"],
        })
    summary = {}
    for run in runs:
        key = f"{run['workload']} seed {run['seed']}"
        values = {**run["metrics"], "trials_per_s": run["trials_per_s"]}
        for k, v in values.items():
            summary.setdefault(key, {}).setdefault(k, []).append(v)
    summary = {key: {k: spread(v) for k, v in metrics.items()}
               for key, metrics in sorted(summary.items())}
    doc = {"label": args.label, "note": args.note, "runs": runs, "summary": summary,
           "stages": stage_medians(args.src, args.parent_src), "tier1": tier1()}
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
