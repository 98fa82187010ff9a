import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_file.py"


@pytest.fixture
def bench_file():
    spec = importlib.util.spec_from_file_location("bench_file", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_record(seed, trials_per_ref_s, trace=0):
    return {
        "workload": "large_n", "seed": seed, "seconds": 26.0, "trace": trace, "tiny": False,
        "correct": True, "attempted": 40, "failed": 0,
        "metrics": {"trials_per_ref_s": {"value": trials_per_ref_s},
                    "setup_s": {"value": 0.3}, "peak_rss_mb": {"value": 60.0}},
        "notes": {"trials_per_s": 2 * trials_per_ref_s},
        "provenance": {"python": "3.x"},
    }


def test_main_writes_runs_summary_and_stage_rows(bench_file, tmp_path, monkeypatch):
    monkeypatch.setattr(bench_file, "STAGES", {
        "30": (30, 2, bench_file.FIG3),
        "60 sparse": (60, 2, bench_file.SPARSE),
    })
    records = []
    for k, value in enumerate([10.0, 12.0, 11.0]):
        path = tmp_path / f"run-{k}.json"
        path.write_text(json.dumps(run_record(1, value)))
        records.append(str(path))
    out = tmp_path / "BENCH_t.json"
    assert bench_file.main([*records, "--label", "t", "--out", str(out), "--note", "x"]) == 0
    doc = json.loads(out.read_text())
    assert (doc["label"], doc["note"], len(doc["runs"])) == ("t", "x", 3)
    assert doc["runs"][0]["metrics"] == {"trials_per_ref_s": 10.0, "setup_s": 0.3,
                                         "peak_rss_mb": 60.0}
    assert doc["runs"][0]["trials_per_s"] == 20.0
    summary = doc["summary"]["large_n seed 1"]
    assert summary["trials_per_ref_s"] == {"median": 11.0, "q1": 10.5, "q3": 11.5, "runs": 3}
    assert summary["trials_per_s"]["median"] == 22.0
    rows = doc["stages"]["medians"]
    assert list(rows) == ["30", "60 sparse"]
    assert rows["60 sparse"]["n"] == 60 and rows["60 sparse"]["model"]["r_prime"] == 0.05
    for row in rows.values():
        assert row["graphs"] == 2 and row["build_ms"] > 0 and row["min_cut_ms"] > 0
        assert row["mean_degree"] >= 0


def test_main_rejects_traced_records(bench_file, tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(run_record(1, 10.0, trace=1)))
    with pytest.raises(SystemExit):
        bench_file.main([str(path), "--label", "t", "--out", str(tmp_path / "o.json")])
