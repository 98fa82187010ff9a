import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qrggsim import (
    ConnectionModel,
    RandomStream,
    cut_tail_bound,
    expected_cut_capacity,
    full_report,
    lower_bound_report,
    upper_bound_report,
)

P_UPPER = 0.0785398  # pair-probability interval upper endpoint for fig3 radii


class TestExpectedCutCapacity:
    def test_source_cut(self):
        assert expected_cut_capacity(200, 0, P_UPPER) == pytest.approx(15.708, abs=1e-3)

    def test_middle_cut(self):
        assert expected_cut_capacity(200, 100, P_UPPER) == pytest.approx(801.106, abs=1e-2)

    def test_symmetry_example(self):
        assert expected_cut_capacity(200, 37, P_UPPER) == expected_cut_capacity(200, 163, P_UPPER)

    @given(n=st.integers(0, 500), k=st.integers(0, 500), p=st.floats(0, 1))
    def test_symmetry_property(self, n, k, p):
        if k > n:
            with pytest.raises(ValueError):
                expected_cut_capacity(n, k, p)
        else:
            assert expected_cut_capacity(n, k, p) == expected_cut_capacity(n, n - k, p)

    @pytest.mark.parametrize("n", [5, 50, 200])
    def test_monotone_chain_to_middle(self, n):
        values = [expected_cut_capacity(n, k, 0.067) for k in range(0, n // 2 + n % 2 + 1)]
        assert all(a <= b for a, b in zip(values, values[1:]))


class TestChernoffLowerTail:
    # The size-0 cut's tail bound is the Chernoff lower tail of its mean
    # n p': exp(-eps^2 n p' / 2).

    def test_direct_value(self):
        assert cut_tail_bound(20, 0, 0.5, 0.5) == pytest.approx(math.exp(-1.25), abs=1e-12)
        assert cut_tail_bound(20, 0, 0.5, 0.5) == pytest.approx(0.28650, abs=5e-6)

    def test_zero_mean_is_vacuous(self):
        assert cut_tail_bound(0, 0, 0.3, 0.3) == 1.0
        assert cut_tail_bound(50, 0, 0.0, 0.3) == 1.0

    def test_epsilon_domain(self):
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                cut_tail_bound(10, 0, 0.5, bad)

    def test_empirical_binomial_tail_dominated(self):
        rng = RandomStream.from_seed(99)
        draws = (rng.random((100_000, 100)) < 0.3).sum(axis=1)
        frac = float(np.mean(draws <= (1 - 0.3) * 30))
        assert frac <= math.exp(-30 * 0.09 / 2)
        assert math.exp(-30 * 0.09 / 2) == pytest.approx(0.2592, abs=1e-4)


class TestCutTailBound:
    def test_direct_value_fig3_scale(self):
        assert cut_tail_bound(200, 0, P_UPPER, 0.5) == pytest.approx(0.14037, abs=5e-6)

    def test_vacuous_regime_clamps_to_one(self):
        assert cut_tail_bound(200, 199, P_UPPER, 0.5) == 1.0

    def test_parameter_guards(self):
        with pytest.raises(ValueError):
            cut_tail_bound(10, 11, 0.1, 0.5)
        with pytest.raises(ValueError):
            cut_tail_bound(10, 0, 0.1, 1.2)
        with pytest.raises(ValueError):
            cut_tail_bound(10, 0, 1.5, 0.5)

    @given(
        e1=st.floats(0.01, 0.99),
        e2=st.floats(0.01, 0.99),
        k1=st.integers(0, 99),
        k2=st.integers(0, 99),
    )
    def test_monotonicity(self, e1, e2, k1, k2):
        lo_e, hi_e = sorted([e1, e2])
        assert cut_tail_bound(100, 0, 0.1, hi_e) <= cut_tail_bound(100, 0, 0.1, lo_e)
        lo_k, hi_k = sorted([k1, k2])
        assert cut_tail_bound(100, lo_k, 0.1, 0.5) <= cut_tail_bound(100, hi_k, 0.1, 0.5)
        assert 0.0 <= cut_tail_bound(100, k1, 0.1, e1) <= 1.0


class TestLowerBoundReport:
    def test_desk_scale_vacuity(self):
        eps, bound, fail, vacuous = lower_bound_report(200, 1, P_UPPER, 0)
        assert eps == pytest.approx(1.1616, abs=5e-5)
        assert vacuous
        assert bound == 0.0

    def test_large_scale(self):
        eps, bound, fail, vacuous = lower_bound_report(100_000, 1, P_UPPER, 0)
        assert eps == pytest.approx(0.076574, abs=1e-6)
        assert bound == pytest.approx(7252.6, abs=0.1)
        assert not vacuous

    def test_fail_prob_constant(self):
        _, _, fail, _ = lower_bound_report(200, 5, P_UPPER, 0)
        assert fail == pytest.approx(0.00025, abs=1e-12)

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            lower_bound_report(1, 1, 0.1, 0)

    def test_epsilon_recovers_log_n(self):
        for n, k in [(200, 0), (100_000, 0), (5000, 17)]:
            eps, _, _, _ = lower_bound_report(n, 1, P_UPPER, k)
            recovered = eps * eps * P_UPPER * (n - k) / 4.0
            assert abs(recovered - math.log(n)) / math.log(n) < 1e-12


class TestUpperBoundReport:
    def test_large_scale(self):
        eps, bound, fail, vacuous = upper_bound_report(100_000, P_UPPER)
        assert eps == pytest.approx(0.076574, abs=1e-6)
        assert bound == pytest.approx(8455.4, abs=0.1)
        assert not vacuous

    def test_desk_scale_flagged(self):
        eps, bound, fail, vacuous = upper_bound_report(200, P_UPPER)
        assert eps == pytest.approx(1.1616, abs=5e-5)
        assert vacuous
        assert bound == pytest.approx(33.95, abs=5e-3)

    def test_fail_prob_constant(self):
        # 2 * 200^(-4/3), frozen from direct evaluation of the formula
        _, _, fail, _ = upper_bound_report(200, P_UPPER)
        assert fail == pytest.approx(2.0 * 200 ** (-4.0 / 3.0), abs=1e-15)
        assert fail == pytest.approx(0.0017100, abs=5e-7)

    def test_epsilon_recovers_log_n(self):
        for n in (200, 5000, 100_000):
            eps, _, _, _ = upper_bound_report(n, P_UPPER)
            recovered = eps * eps * (n * P_UPPER) / 4.0
            assert abs(recovered - math.log(n)) / math.log(n) < 1e-12


class TestFullReport:
    def test_fig3_report(self):
        model = ConnectionModel(r=0.1, r_prime=0.2, kernel="fixed", p=0.5)
        report = full_report(200, 5, model, k=0)
        assert report.expected_c0 == pytest.approx(200 * 0.066965, abs=0.01)
        assert report.p_prime_interval[0] <= report.p_prime <= report.p_prime_interval[1]
        assert report.vacuous_lower and report.vacuous_upper
        assert report.lower_fail_prob == pytest.approx(0.00025)

    def test_zero_probability_model(self):
        model = ConnectionModel(r=0.0, r_prime=0.0, kernel="fixed", p=0.0)
        report = full_report(200, 1, model)
        assert report.expected_c0 == 0.0
        assert report.lower_bound == 0.0 and report.upper_bound == 0.0
        assert report.vacuous_lower and report.vacuous_upper

    def test_bound_sandwich_when_non_vacuous(self):
        model = ConnectionModel(r=0.1, r_prime=0.2, kernel="fixed", p=0.5)
        report = full_report(100_000, 1, model)
        assert report.lower_bound <= report.expected_c0 <= report.upper_bound

    def test_json_six_significant_digits(self):
        model = ConnectionModel(r=0.1, r_prime=0.2, kernel="fixed", p=0.5)
        obj = full_report(200, 1, model).to_json()
        assert obj["p_prime"] == 0.0669648
        assert obj["vacuous_lower"] is True
