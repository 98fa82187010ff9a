import hashlib
import json
import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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

    def test_input_that_is_not_utf8_is_runtime_error(self, capsys, tmp_path):
        # An input file that cannot be decoded, like one that is not JSON.
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe\x00")
        for argv in (["capacity", "--graph", str(bad)],
                     ["verify-rlnc", "--graph", str(bad), "--trials", "1", "--seed", "1"],
                     ["export", "--result", str(bad)]):
            code, _, err = run_cli(capsys, *argv)
            assert code == 2, argv
            assert err.startswith("runtime failure: 'utf-8' codec can't decode"), argv

    def test_malformed_graph_is_validation_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        for doc in [
            {"n_relays": 2, "terminals": [7], "positions": [[0.1], [0.2]], "edges": []},
            {"n_relays": 2, "terminals": [3], "positions": [[0.1], [0.2]], "edges": []},
            {"n_relays": 2, "terminals": [3]},
            [],
            # These two loaded: as 2 relays, and as a graph without terminals
            # on which the commands failed with "min() arg is an empty sequence".
            {"n_relays": 2.9, "terminals": [3], "edges": [[0, 1], [1, 3]]},
            {"n_relays": 2, "terminals": [], "edges": [[0, 1], [1, 2]]},
            # This loaded too: range checks alone let booleans through.
            {"n_relays": 1, "terminals": [2], "edges": [[0, 1], [1, 2]],
             "model": {"r": True, "r_prime": True, "kernel": "fixed", "p": True}},
            # This loaded, and graph_to_json wrote the seed back.
            {"n_relays": 1, "terminals": [2], "edges": [[0, 1], [1, 2]], "seed": "x"},
            {"n_relays": 1, "terminals": [2], "edges": [[0, 1], [1, 2]], "seed": True},
            # This exited 2: "Python int too large to convert to C long".
            {"n_relays": 10**30, "terminals": [10**30 + 1], "edges": [[0, 1]]},
            # These exited 0, and a graph saved from them held NaN or
            # Infinity, which strict JSON parsers refuse; the last exited 2.
            *({"n_relays": 1, "terminals": [2], "edges": [[0, 1], [1, 2]],
               "positions": [[0.1, 0.2], [0.3, x], [0.5, 0.6]]}
              for x in (float("nan"), float("inf"), -float("inf"), 10**400)),
        ]:
            bad.write_text(json.dumps(doc))
            code, _, err = run_cli(capsys, "capacity", "--graph", str(bad))
            assert code == 1
            assert "error" in err

    @pytest.mark.parametrize("field", ["n_relays", "terminals", "edges"])
    def test_a_missing_field_is_named(self, capsys, tmp_path, field):
        # The message read KeyError('terminals').
        doc = {"n_relays": 1, "terminals": [2], "edges": [[0, 1], [1, 2]]}
        del doc[field]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "capacity", "--graph", str(bad))
        assert (code, out) == (1, "")
        assert f"malformed graph document: missing field '{field}'" in err.splitlines()[-1]

    @pytest.mark.parametrize("argv, message", [
        (["generate", "--n", "0", "--seed", "1", "--out", "@g.json"],
         "need at least one relay and one terminal"),
        (["generate", "--n", "5", "--terminals", "0", "--seed", "1", "--out", "@g.json"],
         "need at least one relay and one terminal"),
        (["capacity", "--n", "0", "--seed", "1"], "need at least one relay and one terminal"),
        (["bounds", "--n", "1"], "require n >= 2"),
        (["bounds", "--n", "-1"], "require n >= 2"),
    ])
    def test_sizes_are_checked_by_the_library(self, capsys, tmp_path, argv, message):
        # The CLI does not check these sizes itself: the graph build and the
        # bound functions refuse them.
        argv = [str(tmp_path / a[1:]) if a.startswith("@") else a for a in argv]
        code, out, err = run_cli(capsys, *argv, *FIG3_FLAGS)
        assert code == 1
        assert out == ""
        assert [line for line in err.splitlines() if not line.startswith("[qrggsim] ")] == [
            f"error: {message}"]
        assert not list(tmp_path.iterdir())

    def test_booleans_in_edges_or_terminals_are_validation_errors(self, capsys, tmp_path):
        # Both exited 0: the first with its first row read as edge (0, 1),
        # the second with terminal 1.
        bad = tmp_path / "bad.json"
        for doc in [
            {"n_relays": 2, "terminals": [3], "edges": [[False, True], [True, 2], [2, 3]]},
            {"n_relays": 0, "terminals": [True], "edges": []},
        ]:
            bad.write_text(json.dumps(doc))
            code, _, err = run_cli(capsys, "capacity", "--graph", str(bad))
            assert code == 1
            assert "must hold integers only" in err


class TestGenerateAndCapacity:
    def test_round_trip(self, capsys, tmp_path):
        out = tmp_path / "g.json"
        code, _, err = run_cli(
            capsys, "generate", "--n", "20", "--terminals", "2", *FIG3_FLAGS,
            "--seed", "7", "--out", str(out),
        )
        assert code == 0
        assert err.splitlines() == [
            '[qrggsim] generate: {"model": {"kernel": "fixed", "p": 0.5, "r": 0.1, '
            f'"r_prime": 0.2}}, "n": 20, "out": "{out}", "seed": 7, "terminals": 2}}',
            f"[qrggsim] wrote 23 nodes, {len(json.loads(out.read_text())['edges'])} edges "
            f"to {out}",
        ]
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
            assert err == f"error: jobs must be an integer >= 1, not {jobs}\n" and stdout == ""

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

    def test_preset_with_linear_decay_kernel(self, capsys):
        flags = ["experiment", "--preset", "fig3", "--kernel", "linear-decay",
                 "--n", "20", "--trials", "1", "--seed", "1"]
        code, out, err = run_cli(capsys, *flags)
        assert (code, out) == (1, "")
        assert "error: --p-connection is required with --kernel linear-decay" in err
        code, out, _ = run_cli(capsys, *flags, "--p-connection", "0.9")
        assert code == 0
        model = json.loads(out)["provenance"]["config"]["model"]
        assert model == {"r": 0.1, "r_prime": 0.2, "kernel": "linear_decay", "p": 0.9}


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

    @pytest.mark.parametrize("n_list", ["2.7", "inf", "10,1e3"])
    def test_n_list_takes_integers_only(self, capsys, n_list):
        # "2.7" used to run n=2, "1e3" n=1000, and "inf" to exit 2 as a runtime failure.
        code, stdout, err = run_cli(
            capsys, "sweep", "--n-list", n_list, "--r-list", "0.1",
            "--trials", "1", "--seed", "5",
        )
        assert (code, stdout) == (1, "")
        assert f"error: bad n list: {n_list!r}" in err

    def test_non_finite_r_prime_factor_rejected(self, capsys):
        # It used to exit 0 with r' = 1, as min(1.0, nan) is 1.0.
        code, stdout, err = run_cli(
            capsys, "sweep", "--n-list", "10", "--r-list", "0.1",
            "--r-prime-factor", "nan", "--trials", "1", "--seed", "5",
        )
        assert (code, stdout) == (1, "")
        assert "error: r_prime_factor must be finite, not nan" in err

    def test_r_prime_list_length_mismatch(self, capsys):
        code, _, _ = run_cli(
            capsys, "sweep", "--n-list", "10", "--r-list", "0.1,0.2",
            "--r-prime-list", "0.3", "--trials", "1", "--seed", "5",
        )
        assert code == 1


class TestVerifyRlnc:
    def test_butterfly_fixture(self, capsys, tmp_path):
        from oracles import butterfly_graph
        from qrggsim import save_graph

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


    @pytest.mark.parametrize("flag, field, value", [
        # Each of these exited 0: the SVG drew width="nan", the CSVs wrote inf.
        ("--svg", "bin_edges", [0, 1e7, float("inf")]),
        ("--hist-csv", "bin_edges", [0, 1e7, float("inf")]),
        ("--svg", "counts", [1, float("nan")]),
        ("--csv", "per_trial_capacity", [1, float("-inf")]),
        ("--csv", "per_trial_capacity", [float("nan")]),
        ("--hist-csv", "bin_edges", [0, 10**400, 10**401]),  # no float holds these
    ])
    def test_non_finite_result_is_validation_error(self, capsys, tmp_path, flag, field, value):
        doc = {"per_trial_capacity": [1, 2], "histogram": {"bin_edges": [0, 1, 2],
                                                            "counts": [1, 1]}}
        if field == "per_trial_capacity":
            doc[field] = value
        else:
            doc["histogram"][field] = value
        result_path = tmp_path / "r.json"
        result_path.write_text(json.dumps(doc))  # writes Infinity and NaN as JSON does
        out = tmp_path / "out"
        code, _, err = run_cli(capsys, "export", "--result", str(result_path), flag, str(out))
        assert code == 1
        assert "finite" in err
        assert not out.exists()


    @pytest.mark.parametrize("flag", ["--csv", "--hist-csv", "--svg"])
    @pytest.mark.parametrize("edges, counts", [([0, 1, 2, 3, 4], [5]), ([0, 1], [])])
    def test_histogram_needs_one_more_edge_than_counts(self, capsys, tmp_path, flag, edges,
                                                       counts):
        # --csv and --hist-csv exited 0 on these (the second --hist-csv with
        # an empty CSV), while --svg exited 1.
        doc = {"per_trial_capacity": [1, 2], "histogram": {"bin_edges": edges, "counts": counts}}
        result_path = tmp_path / "r.json"
        result_path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        code, _, err = run_cli(capsys, "export", "--result", str(result_path), flag, str(out))
        assert code == 1
        assert err.splitlines()[-1].startswith("error: not an experiment result document")
        assert "len(bin_edges) == len(counts) + 1 >= 2" in err
        assert not out.exists()


class TestVersion:
    def test_version_flag(self, capsys):
        code, out, _ = run_cli(capsys, "--version")
        assert code == 0
        assert out.strip() == "0.1.0"
        # Help prints, then returns its code like every other command.
        for argv, usage in [(["--help"], "usage: qrggsim "), (["-h"], "usage: qrggsim "),
                            (["experiment", "-h"], "usage: qrggsim experiment ")]:
            code, out, _ = run_cli(capsys, *argv)
            assert code == 0 and out.startswith(usage), argv


OUTPUT_PIN = "f288026cd6d7f06ec643ec38a64ce106b01446696614f83e3ece513319b8793a"


class TestOutputPin:
    def test_output_bytes_are_pinned(self, capsys, tmp_path):
        # sha256 over each command's stdout and files, which the serialisers,
        # the audit rows and the CSV formatter all feed. stderr is left out:
        # it echoes paths and the CPU-capped --jobs.
        runs = [
            ["experiment", "--n", "60", "--terminals", "2", "--r", "0.3",
             "--r-prime", "0.5", "--p", "0.5", "--trials", "40", "--seed", "4",
             "--audit", "0.3,0.5", "--bins", "6", "--out", "r.json",
             "--csv", "c.csv", "--hist-csv", "h.csv"],
            ["export", "--result", "r.json", "--csv", "c2.csv", "--hist-csv", "h2.csv"],
            ["experiment", "--n", "60", "--terminals", "2", "--kernel", "linear-decay",
             "--r", "0.15432198", "--r-prime", "0.2876543", "--p-connection", "0.9",
             "--trials", "6", "--seed", "5", "--rlnc-check", "--hist-csv", "h.csv"],
            ["sweep", "--n-list", "40,25", "--r-list", "0.2,0.15", "--r-prime-list",
             "0.3,0.35", "--trials", "3", "--seed", "6"],
            ["bounds", "--n", "200", *FIG3_FLAGS],
            ["bounds", "--n", "5000", "--terminals", "3", "--k", "7", *FIG3_FLAGS],
            ["bounds", "--n", "50", "--r", "0", "--r-prime", "0", "--p", "0.5"],
            ["generate", "--n", "30", "--terminals", "3", "--r", "0.2",
             "--r-prime", "0.35", "--p", "0.6", "--seed", "7", "--out", "g.json"],
            ["verify-rlnc", "--graph", "g.json", "--trials", "20", "--seed", "8"],
        ]
        digest = hashlib.sha256()
        for argv in runs:
            files = [tmp_path / a for a in argv if a.endswith((".csv", ".json"))]
            argv = [str(tmp_path / a) if a.endswith((".csv", ".json")) else a for a in argv]
            code, stdout, _ = run_cli(capsys, *argv)
            assert code == 0, argv
            digest.update(stdout.encode())
            for path in files:
                digest.update(path.read_bytes())
        assert digest.hexdigest() == OUTPUT_PIN


# Hostile inputs: argv and input documents drawn at random. Sizes stay small
# (--n <= 60, --trials <= 3) so that an example runs in about a second at
# most, and --jobs is never above 1, so no process pool starts. A value
# "@name" stands for the path tmp_path / name.
GARBAGE = st.sampled_from(["", "x", "-", "1.5", "1e3", "nan", "inf", "-0", "0x10"])
SMALL_INT = st.integers(-2, 60).map(str) | GARBAGE
FEW = st.integers(-1, 3).map(str) | GARBAGE
UNIT = st.sampled_from(["0", "0.05", "0.1", "0.2", "0.35", "1", "1.5", "-0.1", "1e-300"])
REAL = UNIT | GARBAGE | st.floats(-0.5, 2).map(repr)
PATH = st.sampled_from(["@graph.json", "@result.json", "@missing.json", "@", "@nodir/x.json",
                        "@out.json", "@out.csv", "@out.svg"])
LIST = st.lists(UNIT | st.integers(-1, 60).map(str), max_size=3).map(",".join) | GARBAGE
FLAGS = {
    "--n": SMALL_INT, "--terminals": st.integers(-1, 4).map(str) | GARBAGE,
    "--r": REAL, "--r-prime": REAL, "--p": REAL, "--p-connection": REAL,
    "--kernel": st.sampled_from(["fixed", "linear-decay", "bogus"]),
    "--seed": st.integers(-3, 2**70).map(str) | GARBAGE,
    "--trials": FEW, "--k": SMALL_INT, "--bins": st.integers(-2, 12).map(str) | GARBAGE,
    "--preset": st.sampled_from(["fig3", "fig4", "fig9"]),
    "--audit": st.sampled_from(["0.3", "0.3,0.5", ",", "2", "-1", "nan"]) | GARBAGE,
    "--jobs": st.sampled_from(["1", "0", "-3", "1.5"]),
    "--n-list": st.lists(st.integers(-1, 60).map(str), max_size=3).map(",".join) | GARBAGE,
    "--r-list": LIST, "--r-prime-list": LIST, "--r-prime-factor": REAL,
    "--graph": PATH, "--result": PATH, "--out": PATH, "--csv": PATH, "--hist-csv": PATH,
    "--svg": PATH, "--rlnc-check": st.just(None), "--bogus": st.just(None),
    "-h": st.just(None), "--version": st.just(None),
}
# A valid argv per command, which the drawn flags then amend or override.
COMMANDS = {
    "generate": ["--n", "30", *FIG3_FLAGS, "--seed", "1", "--out", "@out.json"],
    "capacity": ["--graph", "@graph.json"],
    "bounds": ["--n", "40", *FIG3_FLAGS],
    "experiment": ["--preset", "fig3", "--n", "40", "--trials", "2", "--seed", "1"],
    "sweep": ["--n-list", "30", "--r-list", "0.2", "--trials", "2", "--seed", "1"],
    "verify-rlnc": ["--graph", "@graph.json", "--trials", "2", "--seed", "1"],
    "export": ["--result", "@result.json", "--svg", "@out.svg"],
    "frobnicate": [],
}
JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 8) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=4),
    max_leaves=10,
)


@st.composite
def cli_argvs(draw):
    argv = []
    if draw(st.integers(0, 9)):
        command = draw(st.sampled_from(sorted(COMMANDS)))
        argv = [command, *(COMMANDS[command] if draw(st.booleans()) else [])]
    for flag in draw(st.lists(st.sampled_from(sorted(FLAGS)), max_size=10)):
        argv.append(flag)
        value = draw(FLAGS[flag])
        if value is not None and draw(st.integers(0, 19)):  # now and then, none
            argv.append(value)
    return argv


@st.composite
def documents(draw, valid):
    """A valid document with some fields deleted or replaced by arbitrary
    JSON, or arbitrary JSON, or text that is not JSON."""
    doc = draw(valid)
    for key in draw(st.sets(st.sampled_from(sorted(doc)), max_size=3)):
        if draw(st.booleans()):
            del doc[key]
        else:
            doc[key] = draw(JSON)
    kind = draw(st.integers(0, 9))
    if kind == 0:
        return draw(st.text(max_size=12))
    return json.dumps(draw(JSON) if kind == 1 else doc)


@st.composite
def graph_documents(draw):
    n_relays = draw(st.integers(0, 8))
    nodes = 1 + n_relays + draw(st.integers(1, 3))
    pair = st.lists(st.integers(-1, nodes), min_size=2, max_size=2)
    return {
        "n_relays": n_relays,
        "terminals": list(range(1 + n_relays, nodes)),
        "positions": draw(st.lists(st.lists(st.floats(0, 1), min_size=2, max_size=2),
                                   min_size=nodes, max_size=nodes)),
        "edges": draw(st.lists(pair, max_size=24)),
        "model": {"r": 0.1, "r_prime": 0.2, "kernel": "fixed", "p": 0.5},
        "seed": draw(st.none() | st.integers(0, 9)),
    }


@st.composite
def result_documents(draw):
    counts = draw(st.lists(st.integers(0, 9), max_size=6))
    return {
        "per_trial_capacity": draw(st.lists(st.integers(0, 20), max_size=8)),
        "histogram": {"bin_edges": [float(k) for k in range(len(counts) + 1)],
                      "counts": counts},
    }


class TestHostileInputs:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(cli_argvs(), documents(graph_documents()), documents(result_documents()),
           st.none() | st.sampled_from(["5", "x", "-1"]))
    def test_main_returns_a_documented_code(self, capsys, tmp_path, argv, graph_text,
                                            result_text, env_seed):
        (tmp_path / "graph.json").write_text(graph_text)
        (tmp_path / "result.json").write_text(result_text)
        argv = [str(tmp_path / a[1:]) if a.startswith("@") else a for a in argv]
        code, _, _ = run_cli(capsys, *argv, env_seed=env_seed)
        assert code in (0, 1, 2, 3)
