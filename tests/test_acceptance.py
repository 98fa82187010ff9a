"""End-to-end acceptance criteria.

Each test prints exactly one PASS/FAIL verdict line before asserting, so the
run log doubles as an acceptance report.
"""

import json
import math

import pytest
from scipy.stats import spearmanr

from qrggsim import (
    ConnectionModel,
    ExperimentConfig,
    RandomStream,
    build_connectivity_graph,
    cut_tail_bound,
    expected_cut_capacity,
    full_report,
    lower_bound_report,
    min_cut,
    multicast_capacity,
    run_experiment,
    run_sweep,
    upper_bound_report,
    verify_achievability,
)

from oracles import (
    brute_force_min_cut,
    butterfly_graph,
    estimate_connection_probability,
    xor_relay_demo,
)

FIG3_MODEL = ConnectionModel(r=0.1, r_prime=0.2, kernel="fixed", p=0.5)
P_ORACLE = 0.0669648  # border-corrected pair probability for the fig3 radii
P_UPPER = 0.0785398  # interval upper endpoint pi r'^2 p + pi r^2 (1 - p)


def verdict(criterion: int, ok: bool, detail: str) -> bool:
    print(f"[criterion {criterion:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


def fig3_experiment(n, trials, seed, **overrides):
    config = ExperimentConfig(
        n_relays=n, n_terminals=1, model=FIG3_MODEL, trials=trials,
        master_seed=seed, **overrides,
    )
    return run_experiment(config)


def test_criterion_01_fig3_mean_capacity():
    result = fig3_experiment(200, 500, seed=20260823)
    ok = abs(result.mean - 13.0) <= 1.5
    assert verdict(
        1, ok,
        f"fig3 500-trial mean min-cut {result.mean:.3f} vs target 13 +/- 1.5 "
        f"(std {result.std_dev:.3f})",
    )


def test_criterion_02_oracle_equivalence():
    mismatches = 0
    for seed in range(100):
        rng = RandomStream.from_seed(40_000 + seed)
        pick = rng.child("shape")
        n = int(pick.integers(4, 13))
        tau = int(pick.integers(1, 4))
        model = ConnectionModel(
            r=0.05 + (0.35 - 0.05) * pick.random(),
            r_prime=0.35 + (0.7 - 0.35) * pick.random(),
            kernel="fixed" if seed % 2 else "linear_decay",
            p=pick.random() if seed % 2 else 0.1 + (1.0 - 0.1) * pick.random(),
        )
        g = build_connectivity_graph(n, tau, model, rng)
        for t in g.terminal_ids:
            if min_cut(g, t).capacity != brute_force_min_cut(g, t).capacity:
                mismatches += 1
    ok = mismatches == 0
    assert verdict(
        2, ok,
        f"max-flow min cut vs exhaustive partition oracle on 100 random "
        f"graphs (n in [4,12]): {mismatches} mismatches",
    )


def test_criterion_03_pair_probability_sandwich():
    estimate = estimate_connection_probability(
        FIG3_MODEL, 1_000_000, RandomStream.from_seed(3)
    )
    lo, hi = 0.019635, 0.078540
    ok = abs(estimate - 0.066965) <= 0.001 and lo <= estimate <= hi
    assert verdict(
        3, ok,
        f"p' estimate {estimate:.6f} vs oracle 0.066965 +/- 0.001, "
        f"interval [{lo}, {hi}]",
    )


def test_criterion_04_expected_cut_properties():
    ok = True
    for n in (5, 50, 200):
        values = [expected_cut_capacity(n, k, P_ORACLE) for k in range(n + 1)]
        ok = ok and all(
            values[k] == values[n - k] for k in range(n + 1)
        )
        half = math.ceil(n / 2)
        ok = ok and all(values[k] <= values[k + 1] for k in range(half))
    assert verdict(
        4, ok,
        "E[C_k] symmetry and monotone chain to ceil(n/2) exact at n in {5, 50, 200}",
    )


def test_criterion_05_lower_tail_dominance_audit():
    quoted = cut_tail_bound(200, 0, P_UPPER, 0.5)
    ok = abs(quoted - 0.14037) <= 5e-6
    details = [f"bound(n=200,eps=0.5)={quoted:.5f}"]
    for n in (50, 200):
        result = fig3_experiment(n, 2000, seed=55_000 + n)
        trials = len(result.per_trial_source_cut)
        for eps in (0.3, 0.5):
            for p_prime in (P_ORACLE, P_UPPER):
                threshold = (1.0 - eps) * n * p_prime
                observed = (
                    sum(1 for c in result.per_trial_source_cut if c < threshold)
                    / trials
                )
                bound = cut_tail_bound(n, 0, p_prime, eps)
                slack = 3.0 * math.sqrt(bound * (1.0 - bound) / trials)
                ok = ok and observed <= bound + slack
            if n == 200:
                details.append(f"obs(n=200,eps={eps})={observed:.4f}")
    assert verdict(
        5, ok,
        "observed P[C_0 < (1-eps)E[C_0]] <= tail bound + 3 sigma at "
        "n in {50, 200}, eps in {0.3, 0.5}, 2000 trials; " + ", ".join(details),
    )


def test_criterion_06_vacuity_honesty_and_large_n_values():
    report = full_report(200, 1, FIG3_MODEL)
    ok = report.vacuous_lower and report.vacuous_upper

    eps_l, lower, _, vac_l = lower_bound_report(100_000, 1, P_UPPER)
    eps_u, upper, _, vac_u = upper_bound_report(100_000, P_UPPER)
    ok = ok and not vac_l and not vac_u
    ok = ok and abs(eps_l - 0.076574) <= 1e-6 and abs(eps_u - 0.076574) <= 1e-6
    ok = ok and abs(lower - 7252.6) <= 0.1 and abs(upper - 8455.4) <= 0.1
    # six-significant-digit reproducibility across independent evaluations
    again_l = lower_bound_report(100_000, 1, P_UPPER)[1]
    again_u = upper_bound_report(100_000, P_UPPER)[1]
    ok = ok and f"{lower:.6g}" == f"{again_l:.6g}" and f"{upper:.6g}" == f"{again_u:.6g}"
    assert verdict(
        6, ok,
        f"n=200 bounds flagged vacuous (eps={report.epsilon_lower:.4f}); "
        f"n=1e5: eps={eps_l:.6f}, lower={lower:.6g}, upper={upper:.6g}",
    )


def test_criterion_07_rlnc_achievability():
    g = butterfly_graph()
    h = multicast_capacity(g)
    report = verify_achievability(g, 1000, RandomStream.from_seed(7))
    # success in the checker requires rank h at both terminals AND the
    # decoded symbols to equal the source symbols, so the fraction already
    # measures end-to-end encode -> decode identity.
    xor_ok = all(
        xor_relay_demo(b1, b2) == (b2, b1) for b1 in (0, 1) for b2 in (0, 1)
    )
    ok = h == 2 and report.success_fraction >= 0.97 and xor_ok
    assert verdict(
        7, ok,
        f"butterfly h={h}, 1000-trial decode success "
        f"{report.success_fraction:.3f} >= 0.97 over the order-256 field, "
        f"XOR relay demo returns (b2, b1) on all four inputs",
    )


def test_criterion_08_concentration_trend():
    small = fig3_experiment(100, 300, seed=88)
    large = fig3_experiment(400, 300, seed=89)
    cv_small = small.std_dev / small.mean
    cv_large = large.std_dev / large.mean
    ok = cv_large < cv_small
    assert verdict(
        8, ok,
        f"coefficient of variation {cv_small:.4f} (n=100) -> {cv_large:.4f} "
        f"(n=400) over 300 trials each",
    )


def test_criterion_09_sweep_monotonicity():
    n_values = [25, 50, 75, 100, 150, 200]
    rows = run_sweep(n_values, [0.1], trials=100, master_seed=9, p_connection=0.9)
    means = [row["mean"] for row in rows]
    rho = float(spearmanr(n_values, means).statistic)
    ok = rho >= 0.95
    assert verdict(
        9, ok,
        f"Spearman(n, mean capacity) = {rho:.3f} over n={n_values} "
        f"with the distance-decay kernel",
    )


def test_criterion_10_determinism_across_reruns_and_jobs():
    config = ExperimentConfig(
        n_relays=50, n_terminals=2, model=FIG3_MODEL, trials=24,
        master_seed=101, audit_epsilons=(0.4,), rlnc_check=True,
    )
    blobs = [
        json.dumps(run_experiment(config, jobs=jobs).to_json(), sort_keys=True)
        for jobs in (1, 1, 3)
    ]
    ok = blobs[0] == blobs[1] == blobs[2]
    assert verdict(
        10, ok,
        "result JSON byte-identical across reruns and jobs in {1, 3} "
        f"({len(blobs[0])} bytes)",
    )
