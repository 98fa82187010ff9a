import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qrggsim import (
    ConnectionModel,
    RandomStream,
    build_connectivity_graph,
    connection_probability,
    effective_annulus_p,
    kernel_probability,
    p_prime_bounds,
    sample_points,
    unit_square_distance_cdf,
)

from oracles import estimate_connection_probability

FIG3 = ConnectionModel(r=0.1, r_prime=0.2, kernel="fixed", p=0.5)


class TestConnectionModel:
    def test_rejects_bad_radii(self):
        with pytest.raises(ValueError):
            ConnectionModel(r=0.3, r_prime=0.2, p=0.5)
        with pytest.raises(ValueError):
            ConnectionModel(r=0.1, r_prime=1.5, p=0.5)

    def test_degenerate_equal_radii_needs_fixed_kernel(self):
        ConnectionModel(r=0.1, r_prime=0.1, kernel="fixed", p=0.5)
        with pytest.raises(ValueError):
            ConnectionModel(r=0.1, r_prime=0.1, kernel="linear_decay", p=0.5)

    @pytest.mark.parametrize("key, value, shown", [
        ("r", True, "True"), ("r_prime", True, "True"), ("p", False, "False"),
        ("r", "0.1", "'0.1'"), ("r_prime", None, "None"), ("p", [0.5], "[0.5]")])
    def test_numbers_must_be_numbers_and_not_bools(self, key, value, shown):
        # A bool passed the range checks as 0 or 1 and wrote `true` into the
        # provenance; a string failed them with TypeError. The constructor
        # and from_json refuse both alike.
        fields = {"r": 0.1, "r_prime": 0.2, "kernel": "fixed", "p": 0.5, key: value}
        for make in (lambda: ConnectionModel(**fields), lambda: ConnectionModel.from_json(fields)):
            with pytest.raises(ValueError) as info:
                make()
            assert str(info.value) == f"model {key} must be a number, not {shown}"
        ConnectionModel(r=0, r_prime=1, p=1)  # ints are numbers

    def test_json_round_trip(self):
        m = ConnectionModel(r=0.1, r_prime=0.2, kernel="linear_decay", p=0.9)
        assert ConnectionModel.from_json(m.to_json()) == m


class TestSamplePoints:
    def test_empty(self, rng):
        assert sample_points(0, rng).shape == (0, 2)

    def test_deterministic(self):
        a = sample_points(5, RandomStream.from_seed(42))
        b = sample_points(5, RandomStream.from_seed(42))
        assert np.array_equal(a, b)

    def test_uniform_moments(self, rng):
        pts = sample_points(1_000_000, rng)
        assert abs(pts[:, 0].mean() - 0.5) < 0.002
        assert abs(pts[:, 0].var() - 1.0 / 12.0) < 0.001


class TestKernelProbability:
    # sha256 of the outputs below, captured from the masked-assignment
    # kernel (array bytes, then each scalar call's repr).
    KERNEL_PIN = "f5409f727ac202945fbb8c281b8f42c48f9631c4b43a24180812033cad9dbc2e"

    def test_outputs_are_pinned(self):
        digest = hashlib.sha256()
        for model in (
            ConnectionModel(0.1, 0.2, "fixed", 0.5),
            ConnectionModel(0.1, 0.2, "linear_decay", 0.7),
            ConnectionModel(0.2, 0.2, "fixed", 0.5),
            ConnectionModel(0.0, 0.3, "linear_decay", 1.0),
        ):
            d = [0.0, np.nextafter(0.0, 1.0), 1.5, 2.0]
            for v in (0.0, model.r, model.r_prime):  # each with its neighbouring floats
                d += [np.nextafter(v, -1.0) if v > 0 else v, v, np.nextafter(v, 2.0)]
            d = np.array(d + list(np.linspace(0.0, 0.3, 61)))
            out = kernel_probability(d, model)
            assert out.dtype == np.float64 and out.shape == d.shape
            digest.update(out.tobytes())
            for v in d.tolist():
                prob = kernel_probability(v, model)
                assert type(prob) is float
                digest.update(repr(prob).encode())
        assert digest.hexdigest() == self.KERNEL_PIN

    @pytest.mark.parametrize("d", [float("nan"), -1e-300, [0.1, float("nan")], [-0.5, 0.1]])
    @pytest.mark.parametrize("kernel", ["fixed", "linear_decay"])
    def test_negative_or_nan_distance_rejected(self, d, kernel):
        model = ConnectionModel(r=0.1, r_prime=0.2, kernel=kernel, p=0.5)
        with pytest.raises(ValueError, match="distance must be non-negative"):
            kernel_probability(d, model)

    def test_fixed_annulus_value(self):
        model = ConnectionModel(r=0.1, r_prime=0.2, kernel="fixed", p=0.5)
        assert kernel_probability(0.15, model) == 0.5

    def test_linear_decay_starts_at_p_just_past_inner_radius(self):
        model = ConnectionModel(r=0.1, r_prime=0.2, kernel="linear_decay", p=0.9)
        # the deterministic d <= r rule wins on the boundary itself
        assert kernel_probability(0.1, model) == 1.0
        assert kernel_probability(0.1 + 1e-9, model) == pytest.approx(0.9, abs=1e-4)

    def test_linear_decay_vanishes_at_outer_radius(self):
        model = ConnectionModel(r=0.1, r_prime=0.2, kernel="linear_decay", p=0.7)
        assert kernel_probability(0.2, model) == pytest.approx(0.0)

    def test_linear_decay_midpoint_of_squared_range(self):
        model = ConnectionModel(r=0.1, r_prime=0.2, kernel="linear_decay", p=1.0)
        d = math.sqrt(0.025)
        assert kernel_probability(d, model) == pytest.approx(1 - math.sqrt(0.5), abs=1e-12)

    @given(
        d1=st.floats(0, 1.5),
        d2=st.floats(0, 1.5),
        p=st.floats(0, 1),
        kernel=st.sampled_from(["fixed", "linear_decay"]),
    )
    def test_monotone_non_increasing_in_distance(self, d1, d2, p, kernel):
        model = ConnectionModel(r=0.1, r_prime=0.3, kernel=kernel, p=p)
        lo, hi = sorted([d1, d2])
        assert kernel_probability(lo, model) >= kernel_probability(hi, model)

    @given(d=st.floats(0, 2))
    def test_deterministic_regions(self, d):
        model = ConnectionModel(r=0.2, r_prime=0.4, kernel="fixed", p=0.5)
        prob = kernel_probability(d, model)
        if d <= 0.2:
            assert prob == 1.0
        elif d > 0.4:
            assert prob == 0.0
        else:
            assert prob == 0.5


class TestEdgeDraw:
    def test_build_replays_one_draw_per_annulus_pair(self):
        # Replays the edge stream with the scalar rule: d <= r always
        # connects, d > r' never does and neither consumes a draw; an annulus
        # pair takes the next draw and connects iff draw < p.
        n_relays, n_terminals, seed = 150, 3, 21
        g = build_connectivity_graph(
            n_relays, n_terminals, FIG3, RandomStream.from_seed(seed)
        )
        first_t = 1 + n_relays
        pairs = [
            (i, j)
            for i in range(g.n_nodes)
            for j in range(i + 1, g.n_nodes)
            if j < first_t or first_t > i > 0
        ]
        dist = [math.hypot(*(g.positions[i] - g.positions[j])) for i, j in pairs]
        annulus = [FIG3.r < d <= FIG3.r_prime for d in dist]
        draws = iter(
            RandomStream.from_seed(seed).child("edges").random(sum(annulus)).tolist()
        )
        expected = [
            pair
            for pair, d, ann in zip(pairs, dist, annulus)
            if (next(draws) < FIG3.p if ann else d <= FIG3.r)
        ]
        assert g.edge_list() == expected
        inner = sum(d <= FIG3.r for d in dist)
        assert inner > 0 and sum(annulus) > 500 and sum(d > FIG3.r_prime for d in dist) > 0
        assert 0 < len(expected) - inner < sum(annulus)


def _allowed_pairs(g):
    """Role-allowed (i < j) pairs of g in row-major order, with distances."""
    iu, ju = np.triu_indices(g.n_nodes, k=1)
    first_t = 1 + g.n_relays
    keep = (ju < first_t) | ((iu > 0) & (iu < first_t))
    iu, ju = iu[keep], ju[keep]
    d = np.hypot(*(g.positions[iu] - g.positions[ju]).T)
    return iu, ju, d


def _is_edge(g, iu, ju):
    return np.isin(iu * g.n_nodes + ju, g.edges[:, 0] * g.n_nodes + g.edges[:, 1])


class TestConnectDecision:
    """The per-pair edge rule, read back from seeded builds."""

    def test_within_inner_radius_always_connects(self, rng):
        model = ConnectionModel(r=0.1, r_prime=0.2, kernel="fixed", p=0.0)
        g = build_connectivity_graph(200, 3, model, rng)
        iu, ju, d = _allowed_pairs(g)
        inner = d <= model.r
        assert inner.sum() > 0
        # p = 0: the edges are exactly the pairs within r.
        np.testing.assert_array_equal(_is_edge(g, iu, ju), inner)

    def test_beyond_outer_radius_never_connects(self, rng):
        model = ConnectionModel(r=0.1, r_prime=0.2, kernel="fixed", p=1.0)
        g = build_connectivity_graph(200, 3, model, rng)
        iu, ju, d = _allowed_pairs(g)
        far = d > model.r_prime
        assert far.sum() > 0
        # p = 1: the edges are exactly the pairs within r'.
        np.testing.assert_array_equal(_is_edge(g, iu, ju), ~far)

    def test_deterministic_cases_consume_no_draws(self):
        # The k-th annulus pair (row-major) takes the k-th draw of the edge
        # stream; a draw spent on any d <= r or d > r' pair would shift them.
        g = build_connectivity_graph(200, 3, FIG3, RandomStream.from_seed(3))
        iu, ju, d = _allowed_pairs(g)
        annulus = (d > FIG3.r) & (d <= FIG3.r_prime)
        first_ann = np.flatnonzero(annulus)[0]
        assert (d[:first_ann] <= FIG3.r).any() or (d[:first_ann] > FIG3.r_prime).any()
        draws = RandomStream.from_seed(3).child("edges").random(int(annulus.sum()))
        is_edge = _is_edge(g, iu, ju)
        np.testing.assert_array_equal(is_edge[annulus], draws < FIG3.p)
        np.testing.assert_array_equal(is_edge[~annulus], d[~annulus] <= FIG3.r)

    def test_annulus_acceptance_frequency(self):
        g = build_connectivity_graph(1700, 3, FIG3, RandomStream.from_seed(17))
        iu, ju, d = _allowed_pairs(g)
        annulus = (d > FIG3.r) & (d <= FIG3.r_prime)
        assert annulus.sum() >= 100_000
        hits = _is_edge(g, iu[annulus], ju[annulus]).mean()
        assert abs(hits - 0.5) < 0.01


class TestPPrimeBounds:
    def test_fig3_interval(self):
        lo, hi = p_prime_bounds(FIG3)
        assert lo == pytest.approx(0.0196350, abs=5e-7)
        assert hi == pytest.approx(0.0785398, abs=5e-7)

    def test_empty_annulus_reduces_to_disk_term(self):
        model = ConnectionModel(r=0.1, r_prime=0.1, kernel="fixed", p=0.42)
        lo, hi = p_prime_bounds(model)
        assert lo == pytest.approx(math.pi * 0.01 / 4)
        assert hi == pytest.approx(math.pi * 0.01)

    def test_zero_radius(self):
        model = ConnectionModel(r=0.0, r_prime=0.0, kernel="fixed", p=0.3)
        assert p_prime_bounds(model) == (0.0, 0.0)

    def test_linear_decay_uses_the_mean_annulus_probability(self):
        # The decay kernel's annulus mean is p/3, so its interval is the
        # fixed kernel's at p/3, and it brackets the quadrature oracle.
        model = ConnectionModel(r=0.1, r_prime=0.2, kernel="linear_decay", p=0.9)
        lo, hi = p_prime_bounds(model)
        fixed = p_prime_bounds(ConnectionModel(r=0.1, r_prime=0.2, kernel="fixed", p=0.3))
        assert (lo, hi) == pytest.approx(fixed, abs=1e-15)
        assert hi == pytest.approx(math.pi * 0.019, abs=1e-15)
        assert lo < connection_probability(model) < hi

    def test_effective_annulus_p_is_third_of_p_connection(self):
        model = ConnectionModel(r=0.1, r_prime=0.2, kernel="linear_decay", p=0.9)
        assert effective_annulus_p(model) == pytest.approx(0.3)


class TestConnectionProbabilityOracles:
    def test_closed_form_cdf_against_quadrature(self):
        # Independent numerical integration of the distance CDF: the distance
        # components have triangular densities 2(1-z), so
        # P(d <= rho) = iint_{x^2+y^2<=rho^2} 4(1-x)(1-y) dx dy.
        from scipy.integrate import dblquad

        for rho in (0.1, 0.13, 0.18, 0.2, 0.5):
            val, err = dblquad(
                lambda y, x: 4 * (1 - x) * (1 - y),
                0, rho,
                0, lambda x: math.sqrt(max(rho * rho - x * x, 0.0)),
            )
            assert val == pytest.approx(unit_square_distance_cdf(rho), abs=1e-8)

    def test_fig3_point_value(self):
        assert connection_probability(FIG3) == pytest.approx(0.0669648, abs=5e-7)

    def test_monte_carlo_estimate_matches_integration_oracle(self, rng):
        est = estimate_connection_probability(FIG3, 1_000_000, rng.child("pairs"))
        assert est == pytest.approx(0.0669648, abs=0.001)

    def test_estimate_inside_sandwich_interval(self, rng):
        est = estimate_connection_probability(FIG3, 100_000, rng.child("pairs2"))
        lo, hi = p_prime_bounds(FIG3)
        assert lo <= est <= hi

    def test_no_connectivity_estimates_zero(self, rng):
        model = ConnectionModel(r=0.0, r_prime=0.0, kernel="fixed", p=0.0)
        assert estimate_connection_probability(model, 1000, rng) == 0.0

    def test_linear_decay_quadrature_between_limits(self):
        model = ConnectionModel(r=0.1, r_prime=0.2, kernel="linear_decay", p=0.9)
        val = connection_probability(model)
        lo = connection_probability(ConnectionModel(r=0.1, r_prime=0.2, p=0.0))
        hi = connection_probability(ConnectionModel(r=0.1, r_prime=0.2, p=0.9))
        assert lo < val < hi


class TestEdgeDependenceStatistics:
    def test_edges_at_common_vertex_are_uncorrelated(self):
        # Indicators of edges (s, a) and (s, b) over fresh position draws.
        root = RandomStream.from_seed(2024)
        xs, ys = [], []
        for i in range(10_000):
            g = build_connectivity_graph(2, 1, FIG3, root.child("draw", i))
            edges = set(g.edge_list())
            xs.append(int((0, 1) in edges))
            ys.append(int((0, 2) in edges))
        corr = np.corrcoef(xs, ys)[0, 1]
        assert abs(corr) < 0.03

    def test_triangle_closure_dependence(self):
        model = ConnectionModel(r=0.2, r_prime=0.3, kernel="fixed", p=1.0)
        root = RandomStream.from_seed(77)
        vw_given_both = []
        vw_all = []
        for i in range(10_000):
            g = build_connectivity_graph(3, 1, model, root.child("draw", i))
            edges = set(g.edge_list())
            uv, uw, vw = (1, 2) in edges, (1, 3) in edges, (2, 3) in edges
            vw_all.append(int(vw))
            if uv and uw:
                vw_given_both.append(int(vw))
        assert len(vw_given_both) > 50
        assert np.mean(vw_given_both) > np.mean(vw_all)
