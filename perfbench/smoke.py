"""Smoke test of the benchmark. Run from the root of a checkout:

    python3 perfbench/smoke.py

Runs every workload at a tiny size with tracing off and on, and asserts that
each metric BENCHMARK.json names is printed, by name and with its unit, and
that the outputs pass their checks. It also asserts that BENCHMARK.json agrees
with the metric tables in run.py and tracing.py, and that the benchmark exits
non-zero without a result when the program's sources are absent. Not a
pytest module, so the repository's test run does not collect it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402


def bench(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(root / "perfbench" / "run.py"), *args],
                          cwd=root, capture_output=True, text=True, timeout=170)


def check_spec(spec: dict):
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    e2e = {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]}
    assert e2e == run.END_TO_END, e2e
    layers = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    assert layers == {k: v[:2] for k, v in tracing.PER_LAYER.items()}, layers
    return e2e, layers


def check_run(proc: subprocess.CompletedProcess, expected: dict):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    out = json.loads(lines[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}, out
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1, out
    assert set(out["metrics"]) == set(expected), sorted(out["metrics"])
    printed = {line.split()[0]: line.split()[-1] for line in lines[:-1] if line.startswith("  ")}
    for name, (unit, _) in expected.items():
        metric = out["metrics"][name]
        assert metric["unit"] == unit, (name, metric)
        assert isinstance(metric["value"], (int, float)), (name, metric)
        assert printed.get(name) == unit, (name, printed.get(name))
    assert "failed_fraction" in printed


def main() -> int:
    e2e, layers = check_spec(json.loads((ROOT / "BENCHMARK.json").read_text()))
    for name in run.WORKLOADS:
        for trace, expected in (("0", e2e), ("1", layers)):
            check_run(bench(ROOT, "--workload", name, "--seed", "3", "--seconds", "1",
                            "--trace", trace, "--tiny"), expected)
            print(f"ok {name} --trace {trace}")

    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench(bare, "--workload", "fig3", "--seed", "3", "--seconds", "1", "--trace", "0")
        assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout
    print("ok refuses to run without src/qrggsim")
    return 0


if __name__ == "__main__":
    sys.exit(main())
