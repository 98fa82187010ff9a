import json
import math
import multiprocessing
import os
import subprocess
import sys
from concurrent.futures.process import BrokenProcessPool

import pytest

import qrggsim
from qrggsim import (
    ConnectionModel,
    ExperimentConfig,
    audit_bounds,
    run_experiment,
    run_sweep,
    run_trial,
)
from qrggsim import experiment
from qrggsim import graph as graph_module
from qrggsim.cli import main
from qrggsim.experiment import (
    capacity_csv,
    histogram_csv,
    save_result,
    sweep_to_csv,
)

FIG3 = ConnectionModel(r=0.1, r_prime=0.2, kernel="fixed", p=0.5)


def small_config(**overrides):
    kwargs = dict(
        n_relays=30, n_terminals=2, model=FIG3, trials=25, master_seed=5
    )
    kwargs.update(overrides)
    return ExperimentConfig(**kwargs)


def _exit_on_trial_3(config, index):
    """run_trial, except that trial 3 ends its worker process at once. At
    module level, so that the pool can pickle it by name."""
    if index == 3:
        os._exit(1)
    return run_trial(config, index)


def _worker_pids():
    return sorted(p.pid for p in multiprocessing.active_children())


class TestRunTrial:
    def test_pure_function_of_config_and_index(self):
        config = small_config()
        assert run_trial(config, 3) == run_trial(config, 3)

    def test_zero_model_gives_zero_capacity(self):
        config = small_config(model=ConnectionModel(r=0.0, r_prime=0.0, p=0.0))
        cuts, source_cut, _ = run_trial(config, 0)
        assert min(cuts) == 0
        assert source_cut == 0
        assert cuts == [0, 0]

    def test_capacity_bounded_by_source_cut(self):
        config = small_config(n_relays=200, n_terminals=1, trials=3)
        capacities = run_experiment(config).per_trial_capacity
        for i in range(3):
            cuts, source_cut, _ = run_trial(config, i)
            assert 0 <= min(cuts) <= source_cut
            assert capacities[i] == min(cuts)

    def test_one_max_flow_per_terminal_with_the_coding_check(self, monkeypatch):
        # The graph keeps the flows of run_trial's min cuts, and the coding
        # check reads those, so a trial runs one max flow per terminal.
        calls = []
        for name in ("_bitset_flow", "_csr_flow"):
            def counted(graph, terminal, *args, engine=getattr(graph_module, name)):
                calls.append(terminal)
                return engine(graph, terminal, *args)

            monkeypatch.setattr(graph_module, name, counted)
        config = small_config(n_relays=200, n_terminals=4, trials=1, rlnc_check=True)
        cuts, _, report = run_trial(config, 0)
        assert min(cuts) > 0 and not report.cyclic_skipped  # the check built its DAG
        assert sorted(calls) == [201, 202, 203, 204]

    def test_index_guard(self):
        with pytest.raises(ValueError):
            run_trial(small_config(), 25)

    def test_trial_imports_neither_numpy_ma_nor_scipy(self):
        # numpy.ma costs milliseconds and memory on first use (np.unique
        # imports it), and scipy about 0.4 s and 30 MB: a trial, coding
        # check included, must load neither, nor must a graph load that
        # dedupes reversed and repeated pairs. A fresh process sees what
        # the trial itself imports; its trial has a capacity above 0 and an
        # acyclic union, so the whole coding check runs.
        code = (
            "import sys\n"
            "from qrggsim import ConnectionModel, ExperimentConfig, from_edges, run_trial\n"
            "model = ConnectionModel(r=0.1, r_prime=0.2, kernel='fixed', p=0.5)\n"
            "config = ExperimentConfig(n_relays=60, n_terminals=2, model=model, trials=1,\n"
            "                          master_seed=4, rlnc_check=True)\n"
            "cuts, _, report = run_trial(config, 0)\n"
            "assert min(cuts) > 0 and not report.cyclic_skipped\n"
            "from_edges(2, 1, [[2, 1], [1, 2], [0, 1], [0, 1], [2, 3]])\n"
            "print(sorted(m for m in sys.modules if m == 'numpy.ma' or m.split('.')[0] == 'scipy'))\n"
        )
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(qrggsim.__file__))}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=120, check=True)
        assert out.stdout.strip() == "[]"


class TestRunExperiment:
    def test_histogram_mass_equals_trials(self):
        result = run_experiment(small_config())
        assert sum(result.histogram_counts) == 25

    def test_single_trial_single_nonzero_bin(self):
        result = run_experiment(small_config(trials=1))
        assert sum(1 for c in result.histogram_counts if c) == 1

    def test_mean_recomputable_from_trials(self):
        result = run_experiment(small_config())
        assert result.mean == pytest.approx(
            sum(result.per_trial_capacity) / len(result.per_trial_capacity), abs=1e-15
        )

    def test_serialization_is_reproducible(self):
        a = run_experiment(small_config())
        b = run_experiment(small_config())
        assert json.dumps(a.to_json()) == json.dumps(b.to_json())

    def test_parallelism_does_not_change_bytes(self):
        config = small_config(trials=16)
        serial = json.dumps(run_experiment(config, jobs=1).to_json())
        parallel = json.dumps(run_experiment(config, jobs=4).to_json())
        assert serial == parallel

    @pytest.mark.parametrize("jobs,trials,cpus,workers", [
        (1000, 3, 8, 3),      # capped by trials
        (1000, 10, 4, 4),     # capped by CPUs
        (3, 10, 8, 3),        # as asked
        (1000, 10, None, None),  # unknown CPU count: one, so no pool
    ])
    def test_worker_count_is_capped(self, monkeypatch, pool_sizes, jobs, trials, cpus, workers):
        monkeypatch.setattr(experiment.os, "cpu_count", lambda: cpus)
        config = small_config(n_relays=10, trials=trials)
        result = run_experiment(config, jobs=jobs)
        assert pool_sizes == ([] if workers is None else [workers])
        assert result.to_json() == run_experiment(config, jobs=1).to_json()

    @pytest.mark.parametrize("jobs, shown", [
        (0, "0"), (-2, "-2"), (True, "True"), (1.5, "1.5"), (2.0, "2.0"), ("2", "'2'")])
    def test_jobs_must_be_an_int_of_at_least_one(self, monkeypatch, pool_sizes, jobs, shown):
        # 0, -2 and True ran serially without a word, and 1.5 failed inside
        # concurrent.futures.
        monkeypatch.setattr(experiment.os, "cpu_count", lambda: 8)
        with pytest.raises(ValueError) as info:
            run_experiment(small_config(n_relays=10, trials=4), jobs=jobs)
        assert str(info.value) == f"jobs must be an integer >= 1, not {shown}"
        assert pool_sizes == []

    def test_another_worker_count_replaces_the_pool(self, monkeypatch, pool_sizes):
        monkeypatch.setattr(experiment.os, "cpu_count", lambda: 8)
        config = small_config(n_relays=10, trials=8)
        for jobs in (2, 2, 3, 3, 1, 2):
            run_experiment(config, jobs=jobs)
        assert pool_sizes == [2, 3, 2]
        assert experiment._pool[0] == 2

    def test_explicit_bin_count(self):
        result = run_experiment(small_config(histogram_bins=4))
        assert len(result.histogram_counts) == 4
        assert sum(result.histogram_counts) == 25

    def test_rlnc_fields(self):
        result = run_experiment(small_config(rlnc_check=True, trials=10))
        assert result.skipped_cyclic_fraction is not None
        if result.skipped_cyclic_fraction < 1.0:
            assert 0.0 <= result.rlnc_success_fraction <= 1.0

    def test_provenance_block(self):
        obj = run_experiment(small_config()).to_json()
        assert obj["provenance"]["master_seed"] == 5
        assert obj["provenance"]["config"]["n_relays"] == 30


class TestConfigCounts:
    @pytest.mark.parametrize("name", ["trials", "rlnc_trials"])
    @pytest.mark.parametrize("value", [0, -3, True, False, 2.0, "4", None])
    def test_counts_must_be_positive_integers(self, name, value):
        # The config refuses these before any graph is built. A bool is an
        # int to Python: it would run and write `true` into the provenance.
        # The error names the field at fault.
        with pytest.raises(ValueError, match=f"^{name} must be an integer >= 1"):
            small_config(rlnc_check=True, **{name: value})

    @pytest.mark.parametrize("name, value, message", [
        ("n_relays", 1, "an integer >= 2"),
        ("n_relays", 0, "an integer >= 2"),
        ("n_relays", True, "an integer >= 2"),
        ("n_relays", 30.0, "an integer >= 2"),
        ("n_terminals", 0, "an integer >= 1"),
        ("n_terminals", 2.0, "an integer >= 1"),
        ("n_terminals", True, "an integer >= 1"),
        ("master_seed", 1.5, "an integer"),
        ("master_seed", True, "an integer"),
        ("master_seed", "5", "an integer"),
        ("master_seed", None, "an integer"),
        ("histogram_bins", 0, "an integer >= 1"),
        ("histogram_bins", 2.5, "an integer >= 1"),
        ("histogram_bins", True, "an integer >= 1"),
    ])
    def test_graph_sizes_seed_and_bins_are_integers(self, name, value, message):
        # Each of these used to fail only after the trials ran (n_relays=1
        # in the bound report, a float size or bin count inside a trial) or
        # to run silently, a float or bool seed as an int and a bool bin
        # count as one bin, writing the raw value into the provenance.
        with pytest.raises(ValueError, match=f"^{name} must be {message}, not "):
            small_config(**{name: value})

    def test_least_valid_values_run(self):
        config = small_config(n_relays=2, n_terminals=1, trials=1, master_seed=-1,
                              histogram_bins=1)
        assert run_experiment(config).histogram_counts == [1]


class TestAuditBounds:
    def test_fig3_family_dominance(self):
        config = small_config(
            n_relays=50, n_terminals=1, trials=400, audit_epsilons=(0.3, 0.5)
        )
        result = run_experiment(config)
        rows = result.audit_outcomes
        lower_rows = [r for r in rows if r["kind"] == "lower_tail_k0"]
        assert len(lower_rows) == 2
        for row in lower_rows:
            assert row["observed"] <= row["bound"] + row["slack"]
            assert row["ok"]

    def test_upper_row_vacuous_at_desk_scale(self):
        result = run_experiment(small_config(n_relays=200, n_terminals=1, trials=5))
        rows = audit_bounds(result, [0.5])
        upper = [r for r in rows if r["kind"] == "upper_capacity"][0]
        assert upper.get("note") == "vacuous at this scale"
        assert upper["ok"]

    def test_empty_epsilon_list(self):
        result = run_experiment(small_config(trials=5))
        assert audit_bounds(result, []) == [] or all(
            r["kind"] == "upper_capacity" for r in audit_bounds(result, [])
        )

    def test_epsilon_domain(self):
        result = run_experiment(small_config(trials=5))
        with pytest.raises(ValueError):
            audit_bounds(result, [1.2])


class TestRunSweep:
    def test_single_cell_matches_run_experiment(self):
        rows = run_sweep([30], [0.15], trials=10, master_seed=5, p_connection=0.9)
        model = ConnectionModel(r=0.15, r_prime=0.27, kernel="linear_decay", p=0.9)
        config = ExperimentConfig(
            n_relays=30, n_terminals=1, model=model, trials=10, master_seed=5
        )
        result = run_experiment(config)
        assert rows[0]["mean"] == pytest.approx(result.mean, abs=1e-6)

    def test_row_order_n_then_r_ascending(self):
        rows = run_sweep([40, 20], [0.2, 0.1], trials=3, master_seed=1)
        assert [(r["n"], r["r"]) for r in rows] == [
            (20, 0.1), (20, 0.2), (40, 0.1), (40, 0.2)
        ]

    def test_r_prime_is_paired_with_r_by_position(self):
        # The rows come sorted by r; each r keeps the r' given beside it.
        rows = run_sweep([25], [0.2, 0.15], trials=3, master_seed=6, r_prime_list=[0.3, 0.35])
        assert [(r["r"], r["r_prime"]) for r in rows] == [(0.15, 0.35), (0.2, 0.3)]
        alone = run_sweep([25], [0.15], trials=3, master_seed=6, r_prime_list=[0.35])
        assert rows[0] == alone[0]
        rows = run_sweep([25], [0.2, 0.1], trials=1, master_seed=6, r_prime_factor=2.0)
        assert [(r["r"], r["r_prime"]) for r in rows] == [(0.1, 0.2), (0.2, 0.4)]

    @pytest.mark.parametrize("factor", [math.nan, math.inf, -math.inf])
    def test_non_finite_factor_rejected(self, factor):
        # min(1.0, nan) is 1.0, so a NaN factor used to run r' = 1.
        with pytest.raises(ValueError, match="r_prime_factor must be finite"):
            run_sweep([25], [0.1], trials=1, master_seed=0, r_prime_factor=factor)

    def test_vanishing_vs_usable_radius(self):
        # a 0.001 radius makes any source-relay-terminal chain vanishingly rare
        tiny = run_sweep([25], [0.001], trials=10, master_seed=2, p_connection=0.0)
        some = run_sweep([25], [0.4], trials=10, master_seed=2, p_connection=0.0)
        assert tiny[0]["mean"] == 0.0
        assert some[0]["mean"] > 0.0

    def test_empty_lists_rejected(self):
        with pytest.raises(ValueError):
            run_sweep([], [0.1], trials=1, master_seed=0)

    def test_cells_share_one_pool(self, monkeypatch, pool_sizes):
        monkeypatch.setattr(experiment.os, "cpu_count", lambda: 2)
        rows = run_sweep([20], [0.1, 0.15, 0.2], trials=4, master_seed=7, jobs=2)
        assert len(rows) == 3
        assert pool_sizes == [2]
        assert rows == run_sweep([20], [0.1, 0.15, 0.2], trials=4, master_seed=7, jobs=1)


class TestWorkerPool:
    """The real worker pool; no test here forks more than 2 workers at once,
    and fresh_pool shuts them down after each test."""

    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch, fresh_pool):
        monkeypatch.setattr(experiment.os, "cpu_count", lambda: 2)

    def test_runs_reuse_the_workers(self):
        config = small_config(n_relays=20, trials=8)
        serial = run_experiment(config, jobs=1).to_json()
        assert _worker_pids() == []
        first = run_experiment(config, jobs=2).to_json()
        pids = _worker_pids()
        assert len(pids) == 2
        assert run_experiment(config, jobs=2).to_json() == first == serial
        assert _worker_pids() == pids

    def test_workers_end_with_the_process(self, tmp_path):
        # The CLI has no shutdown code: concurrent.futures joins the workers
        # at interpreter exit, so none outlives the process.
        code = (
            "import multiprocessing, os, sys\n"
            "from qrggsim import cli\n"
            "os.cpu_count = lambda: 2\n"
            "code = cli.main(['experiment', '--n', '20', '--r', '0.1', '--r-prime', '0.2',\n"
            "                 '--p', '0.5', '--trials', '8', '--seed', '3', '--jobs', '2',\n"
            f"                 '--out', {str(tmp_path / 'result.json')!r}])\n"
            "print(*(p.pid for p in multiprocessing.active_children()))\n"
            "sys.exit(code)\n"
        )
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(qrggsim.__file__))}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=60)
        assert out.returncode == 0, out.stderr
        pids = [int(pid) for pid in out.stdout.splitlines()[-1].split()]
        assert len(pids) == 2
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)

    def test_a_dead_worker_breaks_only_its_own_run(self, monkeypatch):
        config = small_config(n_relays=20, trials=8)
        with monkeypatch.context() as m:
            # Patched before the pool forks, so the workers run the stand-in.
            m.setattr(experiment, "run_trial", _exit_on_trial_3)
            with pytest.raises(BrokenProcessPool):
                run_experiment(config, jobs=2)
        assert experiment._pool is None
        assert _worker_pids() == []
        assert run_experiment(config, jobs=2).to_json() == run_experiment(config, jobs=1).to_json()
        assert len(_worker_pids()) == 2

    def test_a_dead_worker_is_a_runtime_failure(self, monkeypatch, capsys):
        monkeypatch.setattr(experiment, "run_trial", _exit_on_trial_3)
        code = main(["experiment", "--n", "20", "--r", "0.1", "--r-prime", "0.2", "--p", "0.5",
                     "--trials", "8", "--seed", "3", "--jobs", "2"])
        err = capsys.readouterr().err
        assert code == 2
        assert "runtime failure: " in err
        assert experiment._pool is None


class TestSerialization:
    def test_atomic_json_write(self, tmp_path):
        result = run_experiment(small_config(trials=4))
        out = tmp_path / "result.json"
        save_result(result, str(out))
        obj = json.loads(out.read_text())
        assert obj["per_trial_capacity"] == result.per_trial_capacity
        assert not list(tmp_path.glob("*.tmp"))

    def test_capacity_csv(self):
        result = run_experiment(small_config(trials=4))
        csv = capacity_csv(result.per_trial_capacity)
        lines = csv.strip().split("\n")
        assert lines[0] == "trial,capacity"
        assert len(lines) == 5

    def test_histogram_csv(self):
        result = run_experiment(small_config(trials=4))
        csv = histogram_csv(result.histogram_edges, result.histogram_counts)
        lines = csv.strip().split("\n")
        assert lines[0] == "bin_lo,bin_hi,count"
        assert len(lines) == len(result.histogram_counts) + 1

    def test_sweep_csv_header(self):
        rows = run_sweep([20], [0.1], trials=2, master_seed=3)
        assert sweep_to_csv(rows).startswith("n,r,r_prime,mean,std\n")
