"""Write a BENCH_<label>.json perf record from perfbench run records.

    python3 tools/bench_file.py --label LABEL --out BENCH_LABEL.json RECORD.json ...

Each RECORD is a `.perfbench_out/run-*.json` file of one `--trace 0` run,
copied aside after the run (perfbench overwrites it). The output keeps, for
every run, its workload, seed, provenance, end-to-end metrics and wall
`trials_per_s`; the median and quartiles of each per workload and seed; and
the median time of the build and `min_cut` stages (one terminal) at n = 200,
1000 and 2000 with the fig3 radii and at n = 5000 with sparse radii (mean
degree about 24, so `min_cut` takes the CSR engine), measured here on the
sources under `--src`.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
METRICS = ("trials_per_ref_s", "setup_s", "peak_rss_mb")
FIG3 = {"r": 0.1, "r_prime": 0.2, "kernel": "fixed", "p": 0.5}
SPARSE = {"r": 0.025, "r_prime": 0.05, "kernel": "fixed", "p": 0.5}
# row -> (n, graphs timed, model); seeds STAGE_SEED, STAGE_SEED + 1, ...
STAGES = {"200": (200, 200, FIG3), "1000": (1000, 30, FIG3), "2000": (2000, 15, FIG3),
          "5000 sparse": (5000, 15, SPARSE)}
STAGE_SEED = 777


def spread(values):
    """Median and quartiles (inclusive method) of a list of run values."""
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3, "runs": len(values)}


def stage_medians(src: Path) -> dict:
    sys.path.insert(0, str(src))
    import numpy
    from qrggsim import ConnectionModel, RandomStream, build_connectivity_graph, min_cut

    out = {}
    for row, (n, count, fields) in STAGES.items():
        model = ConnectionModel.from_json(fields)
        build, cut, degree = [], [], []
        for seed in range(STAGE_SEED, STAGE_SEED + count):
            t0 = time.perf_counter()
            g = build_connectivity_graph(n, 1, model, RandomStream.from_seed(seed))
            t1 = time.perf_counter()
            min_cut(g, g.terminal_ids[0])
            cut.append(time.perf_counter() - t1)
            build.append(t1 - t0)
            degree.append(2 * len(g.edges) / g.n_nodes)
        out[row] = {"n": n, "model": model.to_json(), "graphs": count,
                    "mean_degree": statistics.mean(degree),
                    "build_ms": statistics.median(build) * 1e3,
                    "min_cut_ms": statistics.median(cut) * 1e3}
    return {"terminals": 1, "first_seed": STAGE_SEED,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "medians": out}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("records", nargs="+", type=Path)
    parser.add_argument("--label", required=True)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="sources whose stages are timed (default: this checkout's)")
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
           "stages": stage_medians(args.src)}
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
