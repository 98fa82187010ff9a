import importlib.util
import json
import types
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
        "30": (30, 1, 2, bench_file.FIG3, 0),
        "60 sparse": (60, 1, 2, bench_file.SPARSE, 0),
        "30 x3 rlnc": (30, 3, 2, bench_file.FIG3, 4),
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
    assert list(rows) == ["30", "60 sparse", "30 x3 rlnc"]
    assert rows["60 sparse"]["n"] == 60 and rows["60 sparse"]["model"]["r_prime"] == 0.05
    for row in rows.values():
        assert row["graphs"] == 2 and row["build_ms"] > 0 and row["min_cut_ms"] > 0
        assert row["build_minflt"] >= 0 and row["min_cut_minflt"] >= 0
        assert row["mean_degree"] >= 0
    assert "rlnc_ms" not in rows["30"] and rows["30"]["terminals"] == 1
    assert "rlnc_minflt" not in rows["30 x3 rlnc"]
    coding = rows["30 x3 rlnc"]
    assert (coding["terminals"], coding["coding_trials"]) == (3, 4) and coding["rlnc_ms"] > 0


def test_main_rejects_traced_records(bench_file, tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(run_record(1, 10.0, trace=1)))
    with pytest.raises(SystemExit):
        bench_file.main([str(path), "--label", "t", "--out", str(tmp_path / "o.json")])


def test_parent_src_alternates_the_trees_and_keeps_both_medians(bench_file, tmp_path,
                                                                monkeypatch, capsys):
    monkeypatch.setattr(bench_file, "STAGES", {"30": (30, 1, 2, bench_file.FIG3, 0)})
    monkeypatch.setattr(bench_file, "STAGE_ROUNDS", 4)
    calls = []

    def fake_child(src, *row):
        calls.append(src.name)
        # The parent's graphs take 4 and 6 ms to build in every round; the
        # change's 2 and 3 ms, except in round 3, where it is slower.
        slow = src.name == "parent" or calls.count("change") == 3
        scale = 2e-3 if slow else 1e-3
        return {"build": [2 * scale, 3 * scale], "min_cut": [scale, scale],
                "build_minflt": [0, 2000] if slow else [0, 0], "min_cut_minflt": [1, 3],
                "mean_degree": 5.0}

    monkeypatch.setattr(bench_file, "time_in_child", fake_child)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(run_record(1, 10.0)))
    out = tmp_path / "BENCH_t.json"
    assert bench_file.main([str(path), "--label", "t", "--out", str(out),
                            "--src", str(tmp_path / "change"),
                            "--parent-src", str(tmp_path / "parent")]) == 0
    assert calls == ["parent", "change", "change", "parent"] * 2
    row = json.loads(out.read_text())["stages"]["medians"]["30"]
    assert row["rounds"] == 4
    assert row["parent_build_ms"] == pytest.approx(5.0)
    assert row["build_ms"] == pytest.approx(3.0)  # of 2, 3 (three rounds) and 4, 6
    assert row["build_ratio"] == pytest.approx(0.5)  # of 0.5 (three rounds) and 1
    assert (row["build_faster_rounds"], row["min_cut_faster_rounds"]) == (3, 3)
    # Faults pool over rounds as times do: of 0, 0 (three rounds) and 0, 2000.
    assert (row["build_minflt"], row["parent_build_minflt"]) == (0, 1000)
    assert row["min_cut_minflt"] == row["parent_min_cut_minflt"] == 2
    # 3 of 4: the tails 0, 1 and 3, 4 hold 10 of the 16 outcomes.
    assert row["build_sign_p"] == row["min_cut_sign_p"] == pytest.approx(10 / 16)
    printed = capsys.readouterr().out
    assert "30 build: ratio 0.500, faster in 3 of 4 rounds, sign-test p 0.625" in printed
    assert row["mean_degree"] == row["parent_mean_degree"] == 5.0


def test_parent_src_times_each_tree_in_its_own_process(bench_file, tmp_path, monkeypatch):
    # The same tree on both sides, timed for real: the subprocesses import it
    # and both rows of medians come back.
    monkeypatch.setattr(bench_file, "STAGES", {"30 x2 rlnc": (30, 2, 2, bench_file.FIG3, 4)})
    monkeypatch.setattr(bench_file, "STAGE_ROUNDS", 2)
    src = TOOL.parent.parent / "src"
    stages = bench_file.stage_medians(src, src)
    row = stages["medians"]["30 x2 rlnc"]
    assert row["rounds"] == 2 and row["mean_degree"] == row["parent_mean_degree"]
    for stage in ("build", "min_cut"):
        assert row[f"{stage}_minflt"] >= 0 and row[f"parent_{stage}_minflt"] >= 0
    for stage in ("build", "min_cut", "rlnc"):
        assert row[f"{stage}_ms"] > 0 and row[f"parent_{stage}_ms"] > 0
        assert row[f"{stage}_ratio"] > 0
        assert 0 <= row[f"{stage}_faster_rounds"] <= 2
        assert row[f"{stage}_sign_p"] in (0.5, 1.0)


def test_stage_times_counts_minor_faults_around_each_stage(bench_file, monkeypatch):
    # ru_minflt as three reads per graph see it: before the build, between
    # the build and min_cut, and after min_cut.
    reads = iter([0, 5, 7, 10, 12, 19])
    fake = types.SimpleNamespace(
        RUSAGE_SELF=0, getrusage=lambda who: types.SimpleNamespace(ru_minflt=next(reads)))
    monkeypatch.setattr(bench_file, "resource", fake)
    src = str(TOOL.parent.parent / "src")
    times = bench_file.stage_times(src, 30, 1, 2, bench_file.FIG3, 0)
    assert times["build_minflt"] == [5, 2] and times["min_cut_minflt"] == [2, 7]
    assert len(times["build"]) == len(times["min_cut"]) == 2


@pytest.mark.parametrize("faster,rounds,p", [
    (10, 10, 2 / 1024), (0, 10, 2 / 1024), (9, 10, 22 / 1024), (8, 10, 112 / 1024),
    (5, 10, 1.0), (4, 10, 772 / 1024), (1, 1, 1.0), (0, 0, 1.0), (20, 20, 2 / 2**20),
])
def test_sign_test_p_is_the_exact_two_sided_binomial_tail(bench_file, faster, rounds, p):
    assert bench_file.sign_test_p(faster, rounds) == pytest.approx(p)
