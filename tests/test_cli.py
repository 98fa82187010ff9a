import json
import os

import pytest

from qrggsim.cli import main


def run_cli(capsys, *argv, env_seed=None):
    old = os.environ.pop("QRGG_SEED", None)
    if env_seed is not None:
        os.environ["QRGG_SEED"] = env_seed
    try:
        code = main(list(argv))
    finally:
        os.environ.pop("QRGG_SEED", None)
        if old is not None:
            os.environ["QRGG_SEED"] = old
    captured = capsys.readouterr()
    return code, captured.out, captured.err


FIG3_FLAGS = ["--r", "0.1", "--r-prime", "0.2", "--p", "0.5"]


class TestExitCodes:
    def test_unknown_flag_is_validation_error(self, capsys):
        code, _, err = run_cli(capsys, "bounds", "--n", "10", "--bogus")
        assert code == 1
        assert "error" in err.lower()

    def test_unknown_command(self, capsys):
        code, _, _ = run_cli(capsys, "frobnicate")
        assert code == 1

    def test_invalid_radii(self, capsys):
        code, _, err = run_cli(
            capsys, "bounds", "--n", "10", "--r", "0.3", "--r-prime", "0.1",
            "--p", "0.5",
        )
        assert code == 1

    def test_missing_seed(self, capsys):
        code, _, err = run_cli(
            capsys, "experiment", "--preset", "fig3", "--trials", "2"
        )
        assert code == 1
        assert "seed" in err.lower()

    def test_bad_env_seed(self, capsys):
        code, _, err = run_cli(
            capsys, "experiment", "--preset", "fig3", "--trials", "2",
            env_seed="not-a-number",
        )
        assert code == 1

    def test_missing_graph_file_is_runtime_error(self, capsys):
        code, _, err = run_cli(capsys, "capacity", "--graph", "/nonexistent.json")
        assert code == 2

    def test_corrupt_graph_json(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, _ = run_cli(capsys, "capacity", "--graph", str(bad))
        assert code == 2

    def test_malformed_graph_is_validation_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        for doc in [
            {"n_relays": 2, "terminals": [7], "positions": [[0.1], [0.2]], "edges": []},
            {"n_relays": 2, "terminals": [3], "positions": [[0.1], [0.2]], "edges": []},
            {"n_relays": 2, "terminals": [3]},
            [],
        ]:
            bad.write_text(json.dumps(doc))
            code, _, err = run_cli(capsys, "capacity", "--graph", str(bad))
            assert code == 1
            assert "error" in err


class TestGenerateAndCapacity:
    def test_round_trip(self, capsys, tmp_path):
        out = tmp_path / "g.json"
        code, _, err = run_cli(
            capsys, "generate", "--n", "20", "--terminals", "2", *FIG3_FLAGS,
            "--seed", "7", "--out", str(out),
        )
        assert code == 0
        assert "wrote" in err
        obj = json.loads(out.read_text())
        assert obj["n_relays"] == 20

        code, stdout, _ = run_cli(capsys, "capacity", "--graph", str(out))
        assert code == 0
        result = json.loads(stdout)
        cuts = result["per_terminal_min_cut"]
        assert result["multicast_capacity"] == min(cuts.values())

    def test_env_seed_fallback_matches_flag(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run_cli(capsys, "generate", "--n", "15", *FIG3_FLAGS,
                "--seed", "11", "--out", str(a))
        run_cli(capsys, "generate", "--n", "15", *FIG3_FLAGS,
                "--out", str(b), env_seed="11")
        assert a.read_bytes() == b.read_bytes()

    def test_inline_generation_capacity(self, capsys):
        code, stdout, _ = run_cli(
            capsys, "capacity", "--n", "25", *FIG3_FLAGS, "--seed", "3"
        )
        assert code == 0
        assert json.loads(stdout)["multicast_capacity"] >= 0


class TestBounds:
    def test_fig3_values(self, capsys):
        code, stdout, err = run_cli(capsys, "bounds", "--n", "200", *FIG3_FLAGS)
        assert code == 0
        obj = json.loads(stdout)
        assert obj["p_prime"] == 0.0669648
        assert obj["vacuous_lower"] is True
        assert "[qrggsim]" in err  # resolved config echoed to stderr

    def test_out_file(self, capsys, tmp_path):
        out = tmp_path / "b.json"
        code, stdout, _ = run_cli(
            capsys, "bounds", "--n", "200", *FIG3_FLAGS, "--out", str(out)
        )
        assert code == 0
        assert stdout == ""
        assert json.loads(out.read_text())["p_prime"] == 0.0669648


class TestExperiment:
    def test_preset_run_with_artifacts(self, capsys, tmp_path):
        out = tmp_path / "r.json"
        csv = tmp_path / "r.csv"
        hist = tmp_path / "h.csv"
        svg = tmp_path / "h.svg"
        code, _, err = run_cli(
            capsys, "experiment", "--preset", "fig3", "--n", "30",
            "--trials", "5", "--seed", "21", "--out", str(out),
            "--csv", str(csv), "--hist-csv", str(hist), "--svg", str(svg),
        )
        assert code == 0
        assert "preset" in err
        obj = json.loads(out.read_text())
        assert len(obj["per_trial_capacity"]) == 5
        assert obj["provenance"]["config"]["n_relays"] == 30
        assert csv.read_text().startswith("trial,capacity\n")
        assert hist.read_text().startswith("bin_lo,bin_hi,count\n")
        assert svg.read_text().startswith("<svg ")

    def test_byte_identical_reruns_and_jobs(self, capsys, tmp_path):
        paths = [tmp_path / f"{i}.json" for i in range(3)]
        for path, jobs in zip(paths, ("1", "1", "3")):
            code, _, _ = run_cli(
                capsys, "experiment", "--n", "25", "--terminals", "1",
                *FIG3_FLAGS, "--trials", "8", "--seed", "42",
                "--jobs", jobs, "--out", str(path),
            )
            assert code == 0
        blobs = [p.read_bytes() for p in paths]
        assert blobs[0] == blobs[1] == blobs[2]

    def test_audit_rows_emitted(self, capsys):
        code, stdout, _ = run_cli(
            capsys, "experiment", "--n", "40", *FIG3_FLAGS,
            "--trials", "50", "--seed", "13", "--audit", "0.3,0.5",
        )
        obj = json.loads(stdout)
        rows = obj["audit_outcomes"]
        assert [r["epsilon"] for r in rows if r["kind"] == "lower_tail_k0"] == [0.3, 0.5]
        if code == 3:
            assert any(not r["ok"] for r in rows)
        else:
            assert code == 0 and all(r["ok"] for r in rows)

    @pytest.mark.parametrize("command", ["experiment", "sweep"])
    def test_jobs_below_one_rejected(self, capsys, command):
        if command == "experiment":
            argv = ["experiment", "--n", "10", *FIG3_FLAGS]
        else:
            argv = ["sweep", "--n-list", "10", "--r-list", "0.1"]
        for jobs in ("0", "-2"):
            code, stdout, err = run_cli(capsys, *argv, "--trials", "2", "--seed", "1",
                                        "--jobs", jobs)
            assert code == 1
            assert "--jobs" in err and stdout == ""

    def test_resolved_config_shows_effective_jobs(self, capsys, monkeypatch, pool_sizes):
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        code, _, err = run_cli(
            capsys, "experiment", "--n", "10", *FIG3_FLAGS,
            "--trials", "3", "--seed", "1", "--jobs", "64",
        )
        assert code == 0
        resolved = json.loads(err.split("[qrggsim] experiment: ", 1)[1].split("\n", 1)[0])
        assert resolved["jobs"] == 3
        assert pool_sizes == [3]

    def test_bad_audit_epsilon(self, capsys):
        code, _, _ = run_cli(
            capsys, "experiment", "--n", "20", *FIG3_FLAGS,
            "--trials", "2", "--seed", "1", "--audit", "1.5",
        )
        assert code == 1


class TestSweep:
    def test_csv_to_stdout(self, capsys):
        code, stdout, _ = run_cli(
            capsys, "sweep", "--n-list", "10,20", "--r-list", "0.1",
            "--trials", "2", "--seed", "5",
        )
        assert code == 0
        lines = stdout.strip().split("\n")
        assert lines[0] == "n,r,r_prime,mean,std"
        assert len(lines) == 3
        assert lines[1].startswith("10,") and lines[2].startswith("20,")

    def test_r_prime_list_length_mismatch(self, capsys):
        code, _, _ = run_cli(
            capsys, "sweep", "--n-list", "10", "--r-list", "0.1,0.2",
            "--r-prime-list", "0.3", "--trials", "1", "--seed", "5",
        )
        assert code == 1


class TestVerifyRlnc:
    def test_butterfly_fixture(self, capsys, tmp_path):
        from qrggsim import butterfly_graph, save_graph

        path = tmp_path / "butterfly.json"
        save_graph(butterfly_graph(), str(path))
        code, stdout, _ = run_cli(
            capsys, "verify-rlnc", "--graph", str(path),
            "--trials", "200", "--seed", "9",
        )
        assert code == 0
        obj = json.loads(stdout)
        assert obj["h"] == 2
        assert obj["success_fraction"] >= 0.97
        assert obj["field_poly"] == "0x11B"

    def test_cyclic_reported_in_band(self, capsys, tmp_path, cyclic_graph):
        from qrggsim import save_graph

        path = tmp_path / "cyclic.json"
        save_graph(cyclic_graph, str(path))
        code, stdout, _ = run_cli(
            capsys, "verify-rlnc", "--graph", str(path),
            "--trials", "5", "--seed", "2",
        )
        assert code == 0
        assert json.loads(stdout)["cyclic_skipped"] is True


class TestExport:
    def test_reemit_artifacts(self, capsys, tmp_path):
        result_path = tmp_path / "r.json"
        run_cli(
            capsys, "experiment", "--n", "20", *FIG3_FLAGS, "--trials", "4",
            "--seed", "8", "--out", str(result_path),
        )
        csv = tmp_path / "x.csv"
        hist = tmp_path / "x_hist.csv"
        svg = tmp_path / "x.svg"
        code, _, _ = run_cli(
            capsys, "export", "--result", str(result_path),
            "--csv", str(csv), "--hist-csv", str(hist), "--svg", str(svg),
        )
        assert code == 0
        assert len(csv.read_text().strip().split("\n")) == 5
        assert hist.read_text().startswith("bin_lo,bin_hi,count\n")
        assert svg.read_text().rstrip().endswith("</svg>")

    def test_export_matches_inline_artifacts(self, capsys, tmp_path):
        result_path = tmp_path / "r.json"
        inline_csv = tmp_path / "inline.csv"
        run_cli(
            capsys, "experiment", "--n", "20", *FIG3_FLAGS, "--trials", "4",
            "--seed", "8", "--out", str(result_path), "--csv", str(inline_csv),
        )
        exported_csv = tmp_path / "exported.csv"
        run_cli(capsys, "export", "--result", str(result_path),
                "--csv", str(exported_csv))
        assert inline_csv.read_text() == exported_csv.read_text()

    def test_export_svg_matches_inline_with_bins(self, capsys, tmp_path):
        result_path = tmp_path / "r.json"
        inline_svg = tmp_path / "inline.svg"
        run_cli(
            capsys, "experiment", "--preset", "fig3", "--n", "60", "--trials", "30",
            "--bins", "7", "--seed", "1", "--out", str(result_path),
            "--svg", str(inline_svg),
        )
        exported_svg = tmp_path / "exported.svg"
        code, _, _ = run_cli(capsys, "export", "--result", str(result_path),
                             "--svg", str(exported_svg))
        assert code == 0
        assert inline_svg.read_bytes() == exported_svg.read_bytes()


    @pytest.mark.parametrize("doc", [
        [],
        "result",
        {},
        {"histogram": {"bin_edges": [0, 1], "counts": [1]}},
        {"per_trial_capacity": [1]},
        {"per_trial_capacity": [1], "histogram": []},
        {"per_trial_capacity": [1], "histogram": {"bin_edges": [0, 1]}},
        {"per_trial_capacity": [1], "histogram": {"counts": [1]}},
        {"per_trial_capacity": ["1"], "histogram": {"bin_edges": [0, 1], "counts": [1]}},
        {"per_trial_capacity": [1], "histogram": {"bin_edges": [0, None], "counts": [1]}},
        {"per_trial_capacity": [1], "histogram": {"bin_edges": [0, 1], "counts": [True]}},
        {"per_trial_capacity": [1], "histogram": {"bin_edges": [0, 1], "counts": 1}},
        {"per_trial_capacity": {"0": 1}, "histogram": {"bin_edges": [0, 1], "counts": [1]}},
    ])
    def test_wrong_shape_result_is_validation_error(self, capsys, tmp_path, doc):
        result_path = tmp_path / "r.json"
        result_path.write_text(json.dumps(doc))
        csv = tmp_path / "x.csv"
        code, _, err = run_cli(capsys, "export", "--result", str(result_path),
                               "--csv", str(csv))
        assert code == 1
        assert "error" in err
        assert not csv.exists()


class TestVersion:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        out, _ = capsys.readouterr().out, None
        assert out.strip() == "0.1.0"
