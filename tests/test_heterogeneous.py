"""Distribution-level pricing: quadrature payoffs, bounds, optimizers, benchmarks."""

import math

import numpy as np
import pytest

from prompt_pricing import (
    DegenerateCostBase,
    GaiModel,
    ModelSet,
    OppConfig,
    PriceSchedule,
    QuadratureConfig,
    TabulatedAmbiguity,
    UnboundedDemand,
    UniformAmbiguity,
    cost_based_pricing,
    grid_oracle,
    opp,
    optimal_homogeneous_price,
    optimal_prompt_count,
    platform_payoff,
    price_upper_bound,
    segment_roots,
    select_model,
    single_model_price,
    user_payoff,
    utility_based_pricing,
)

PAIR = ModelSet([GaiModel("ml", 1.0, 0.02), GaiModel("mh", 1.8, 0.04)])
U01 = UniformAmbiguity(0.0, 1.0)
FAST = QuadratureConfig(501)
FAST_OPP = OppConfig(step_alpha=0.01, quad=FAST)


def _scalar_route(models, prices, nodes, weights):
    """Payoff and volumes by the scalar stage-2 rules at every node.

    ``select_model`` picks each user's model and prompt count (through
    ``optimal_prompt_count``), and the counts are summed with the weights.
    """
    sched = PriceSchedule({m.id: float(p) for m, p in zip(models, prices)})
    volumes = {m.id: 0.0 for m in models}
    for e, w in zip(nodes, weights):
        decision = select_model(models, sched, float(e))
        if decision.selected_model is not None:
            volumes[decision.selected_model] += w * decision.prompt_count
    payoff = sum((sched.price_for(m) - m.cost) * volumes[m.id] for m in models)
    return payoff, [volumes[m.id] for m in models]


class _RecordingUniform:
    """A uniform density that records every quadrature it is asked for."""

    def __init__(self, lo, hi):
        self.inner = UniformAmbiguity(lo, hi)
        self.node_counts = []

    def quadrature(self, quad):
        self.node_counts.append(quad.node_count)
        return self.inner.quadrature(quad)

    def __getattr__(self, name):
        return getattr(self.inner, name)


class TestPlatformPayoff:
    def test_prohibitive_prices_sell_nothing(self):
        out = platform_payoff(PAIR, PriceSchedule({"ml": 1.0, "mh": 1.8}), U01, FAST)
        assert out.platform_payoff == 0.0
        assert all(v == 0.0 for v in out.prompt_volume.values())

    def test_zero_margin_zero_payoff(self):
        out = platform_payoff(PAIR, PriceSchedule({"ml": 0.02, "mh": 0.04}), U01, FAST)
        assert out.platform_payoff == 0.0
        assert out.prompt_volume["ml"] > 0  # prompts flow, margin does not

    def test_zero_price_rejected(self):
        with pytest.raises(UnboundedDemand):
            platform_payoff(PAIR, PriceSchedule({"ml": 0.0, "mh": 0.5}), U01, FAST)

    def test_payoff_is_margin_times_volume(self):
        out = platform_payoff(PAIR, PriceSchedule({"ml": 0.3, "mh": 0.6}), U01)
        recomputed = sum(
            (out.schedule.price_for(m) - m.cost) * out.prompt_volume[m.id] for m in PAIR)
        assert out.platform_payoff == pytest.approx(recomputed, abs=1e-9)

    def test_single_model_demand_against_monte_carlo(self):
        # price above a quarter of utility: each user sends at most one prompt,
        # exactly when ambiguity stays below 1 - price/utility = 0.4
        model = ModelSet([GaiModel("m", 1.0, 0.2)])
        out = platform_payoff(model, PriceSchedule({"m": 0.6}), U01)
        rng = np.random.RandomState(20240811)
        draws = rng.uniform(0.0, 1.0, 1_000_000)
        mc_volume = float(np.mean(draws < 0.4))
        assert out.prompt_volume["m"] == pytest.approx(mc_volume, abs=1e-3)
        assert out.platform_payoff == pytest.approx(0.4 * mc_volume, abs=1e-3)

    def test_matches_per_node_model_selection(self):
        nodes, weights = U01.quadrature(QuadratureConfig(301))
        sched = PriceSchedule({"ml": 0.22, "mh": 0.71})
        _, (vol_ml, vol_mh) = _scalar_route(PAIR, [0.22, 0.71], nodes, weights)
        out = platform_payoff(PAIR, sched, U01, QuadratureConfig(301))
        assert out.prompt_volume["ml"] == pytest.approx(vol_ml, abs=1e-12)
        assert out.prompt_volume["mh"] == pytest.approx(vol_mh, abs=1e-12)


class TestSegmentRoots:
    def test_no_roots_above_curve_maximum(self):
        assert segment_roots(GaiModel("m", 1.0), 0.3, 2) is None

    def test_quadratic_case(self):
        roots = segment_roots(GaiModel("m", 1.0), 0.1, 2)
        assert roots.lower == pytest.approx((1 - math.sqrt(0.6)) / 2, abs=1e-9)
        assert roots.upper == pytest.approx((1 + math.sqrt(0.6)) / 2, abs=1e-9)

    def test_tangency_collapses_to_peak(self):
        price = 2 ** 2 / 3 ** 3  # curve maximum for three prompts
        roots = segment_roots(GaiModel("m", 1.0), price, 3)
        assert roots.lower == pytest.approx(2 / 3, abs=1e-6)
        assert roots.upper == pytest.approx(2 / 3, abs=1e-6)

    def test_roots_satisfy_equation(self):
        for price, k in [(0.05, 2), (0.1, 3), (0.02, 5)]:
            roots = segment_roots(GaiModel("m", 1.0), price, k)
            for x in (roots.lower, roots.upper):
                assert abs(x ** (k - 1) * (1 - x) * 1.0 - price) < 1e-10
            assert roots.lower <= (k - 1) / k <= roots.upper


class TestSingleModelPrice:
    @pytest.mark.parametrize("cost", [0.1, 0.2, 0.4])
    def test_uniform_full_support_closed_form(self, cost):
        out = single_model_price(GaiModel("m", 1.0, cost), U01)
        assert out.schedule.price_for("m") == pytest.approx((1.0 + cost) / 2, abs=1e-3)

    def test_restricted_support_matches_grid_oracle(self):
        model = GaiModel("m", 1.0, 0.2)
        dist = UniformAmbiguity(0.5, 0.9)
        out = single_model_price(model, dist)
        prices = np.arange(0.2001, 1.0, 1e-4)
        payoffs = [
            platform_payoff(ModelSet([model]), PriceSchedule({"m": float(p)}), dist,
                            QuadratureConfig(801)).platform_payoff
            for p in prices[:: 50]
        ]
        coarse_best = max(payoffs)
        assert out.platform_payoff >= coarse_best - 1e-3

    def test_hopeless_cost_gives_zero(self):
        out = single_model_price(GaiModel("m", 1.0, 1.4), U01)
        assert out.platform_payoff == 0.0
        assert out.schedule.price_for("m") == 1.0


class TestPriceUpperBound:
    LOW = GaiModel("ml", 1.0, 0.02)
    HIGH = GaiModel("mh", 1.8, 0.04)

    def test_vanishing_ambiguity_single_prompt_form(self):
        eps = 1e-3
        p_low = 0.3
        n = optimal_prompt_count(self.LOW, p_low, eps)
        rival = user_payoff(self.LOW, p_low, eps, n)
        expected = (1 - eps) * 1.8 - rival  # one high-tier prompt decides it
        assert price_upper_bound(self.HIGH, self.LOW, p_low, eps) == pytest.approx(
            expected, rel=1e-9)

    def test_dominated_model_gets_empty_demand(self):
        weak = GaiModel("w", 0.2)
        strong = GaiModel("s", 1.9, 0.0)
        # the strong rival at a token price leaves no room for the weak model
        assert price_upper_bound(weak, strong, 0.01, 0.5) == 0.0

    def test_flip_consistency_against_selection(self):
        models = ModelSet([self.LOW, self.HIGH])
        mismatches = 0
        total = 0
        for eps in np.linspace(0.03, 0.97, 25):
            for p_low in np.linspace(0.05, 0.95, 25):
                bound = price_upper_bound(self.HIGH, self.LOW, float(p_low), float(eps))
                if not 1e-6 < bound < 1.8 - 1e-6:
                    continue
                total += 1
                sched_under = PriceSchedule({"ml": float(p_low), "mh": bound - 1e-6})
                sched_over = PriceSchedule({"ml": float(p_low), "mh": bound + 1e-6})
                under = select_model(models, sched_under, float(eps)).selected_model
                over = select_model(models, sched_over, float(eps)).selected_model
                if not (under == "mh" and over != "mh"):
                    mismatches += 1
        assert total > 300
        assert mismatches <= 0.01 * total

    def test_positive_rival_price_required(self):
        from prompt_pricing import InvalidPrice
        with pytest.raises(InvalidPrice):
            price_upper_bound(self.HIGH, self.LOW, 0.0, 0.5)

    def test_count_cap_raises_instead_of_empty_demand(self):
        """Near eps = 1 a nearly free rival is beaten only after about 1.7e7
        prompts, past the search cap; the true bound is about 3e-8, not 0."""
        from prompt_pricing import PromptPricingError
        high, low = GaiModel("h", 1.8), GaiModel("l", 1.0)
        with pytest.raises(PromptPricingError, match="cap"):
            price_upper_bound(high, low, 1e-9, 0.9999999)


class TestGainDecomposition:
    def test_partition_matches_direct_payoff(self):
        """Serving everyone at the low tier plus the high-tier gain equals the
        schedule payoff, wherever no node sits on a decision boundary."""
        from prompt_pricing.user_strategy import _counts_vec

        low, high = PAIR.require_pair()
        p_low = 0.3
        quad = QuadratureConfig(501)
        nodes, weights = U01.quadrature(quad)
        n_low = _counts_vec(low.utility, p_low, nodes)
        bounds = np.array([price_upper_bound(high, low, p_low, float(e)) for e in nodes])
        low_total = float((weights * (p_low - low.cost) * n_low).sum())

        for p_high in (0.41, 0.93, 1.37):
            margin = np.abs(bounds - p_high)
            if margin.min() <= 1e-9:
                continue
            mask = p_high <= bounds
            n_high = _counts_vec(high.utility, p_high, nodes)
            gain = float((mask * (weights * (p_high - high.cost) * n_high
                                  - weights * (p_low - low.cost) * n_low)).sum())
            direct = platform_payoff(
                PAIR, PriceSchedule({"ml": p_low, "mh": p_high}), U01, quad).platform_payoff
            assert low_total + gain == pytest.approx(direct, abs=1e-6)


class TestOpp:
    def test_both_tiers_unprofitable(self):
        models = ModelSet([GaiModel("ml", 1.0, 1.5), GaiModel("mh", 1.8, 2.2)])
        out = opp(models, U01, FAST_OPP)
        assert out.platform_payoff == 0.0

    def test_one_profitable_tier_falls_back_to_single_model(self):
        models = ModelSet([GaiModel("ml", 1.0, 1.5), GaiModel("mh", 1.8, 0.04)])
        out = opp(models, U01, FAST_OPP)
        assert out.schedule.price_for("ml") == 1.0
        assert out.prompt_volume["ml"] == 0.0
        solo = single_model_price(GaiModel("mh", 1.8, 0.04), U01, FAST)
        assert out.platform_payoff == pytest.approx(solo.platform_payoff, rel=5e-3)

    def test_beats_or_matches_lattice_oracle(self):
        dist = UniformAmbiguity(0.3, 1.0)
        got = opp(PAIR, dist, FAST_OPP)
        oracle = grid_oracle(PAIR, dist, grid_n=200, quad=FAST)
        assert got.platform_payoff >= oracle.platform_payoff - 1e-3 * 1.8
        assert abs(got.platform_payoff - oracle.platform_payoff) <= 2e-3 * 1.8

    def test_trace_has_one_row_per_sweep_step(self):
        trace = []
        opp(PAIR, U01, OppConfig(step_alpha=0.05, quad=FAST), trace_sink=trace)
        expected_steps = int(math.floor((1.0 - 0.02) / 0.05)) + 2  # grid plus the endpoint
        assert len(trace) == expected_steps

    @pytest.mark.parametrize("step", [0.005, 0.01])
    def test_coarse_sweep_still_beats_utility_pricing(self, step):
        # the best pair lies between two sweep steps here: p_L = 0.09 on the
        # step grid pays less than the best utility-proportional schedule
        dist = UniformAmbiguity(0.6, 1.0)
        got = opp(PAIR, dist, OppConfig(step_alpha=step))
        assert got.platform_payoff >= utility_based_pricing(PAIR, dist).platform_payoff

    def test_homogeneous_limit(self):
        eps0 = 0.5
        dist = UniformAmbiguity(eps0 - 1e-4, eps0 + 1e-4)
        got = opp(PAIR, dist, FAST_OPP)
        want = optimal_homogeneous_price(PAIR, eps0).platform_payoff
        assert got.platform_payoff == pytest.approx(want, rel=0.02)


class TestGridOracle:
    def test_degenerate_distribution_recovers_homogeneous(self):
        eps0 = 0.5
        dist = UniformAmbiguity(eps0 - 1e-4, eps0 + 1e-4)
        out = grid_oracle(PAIR, dist, grid_n=200, quad=FAST)
        want = optimal_homogeneous_price(PAIR, eps0).platform_payoff
        assert out.platform_payoff == pytest.approx(want, rel=0.02)

    def test_unsellable_models_zero(self):
        models = ModelSet([GaiModel("ml", 1.0, 1.5), GaiModel("mh", 1.8, 2.0)])
        out = grid_oracle(models, U01, grid_n=60, quad=FAST)
        assert out.platform_payoff == 0.0

    def test_two_resolutions_agree(self):
        a = grid_oracle(PAIR, U01, grid_n=100, quad=FAST)
        b = grid_oracle(PAIR, U01, grid_n=200, quad=FAST)
        assert b.platform_payoff >= a.platform_payoff - 1e-12
        assert abs(a.platform_payoff - b.platform_payoff) <= 5e-3 * 1.8


class TestPairLattice:
    """``opp`` and ``grid_oracle`` both search with the pair lattice, so its
    cells are checked against direct evaluation of the same schedules."""

    @pytest.mark.parametrize("dist", [
        UniformAmbiguity(0.3, 1.0),
        TabulatedAmbiguity((0.0, 0.2, 0.4, 0.6, 0.8, 1.0), (1.1, 0.7, 1.3, 0.6, 0.9, 1.2)),
    ], ids=["uniform", "tabulated"])
    def test_cells_match_platform_payoff(self, dist):
        from prompt_pricing.heterogeneous import _pair_lattice_payoffs

        low, high = PAIR.require_pair()
        quad = QuadratureConfig()
        nodes, weights = dist.quadrature(quad)
        grid_n = 400  # grid_oracle's default axes: (cost, utility] in grid_n steps
        tiers = list(zip((low, high), [(m.utility - m.cost) / grid_n for m in (low, high)]))
        rng = np.random.default_rng(20240811)
        sampled = [np.sort(m.cost + step * rng.choice(np.arange(1, grid_n + 1), 8, replace=False))
                   for m, step in tiers]
        answer = opp(PAIR, dist, FAST_OPP).schedule
        near = [answer.price_for(m) + step * np.arange(-2, 3) for m, step in tiers]
        for axis_low, axis_high in (sampled, near):
            lattice = _pair_lattice_payoffs(low, high, axis_low, axis_high, nodes, weights)
            for i, p_low in enumerate(axis_low):
                for j, p_high in enumerate(axis_high):
                    sched = PriceSchedule({"ml": float(p_low), "mh": float(p_high)})
                    direct = platform_payoff(PAIR, sched, dist, quad).platform_payoff
                    assert abs(lattice[i, j] - direct) <= 1e-12 * high.utility


PRUNING_DISTS = [
    UniformAmbiguity(0.3, 1.0),
    TabulatedAmbiguity((0.0, 0.2, 0.4, 0.6, 0.8, 1.0), (1.1, 0.7, 1.3, 0.6, 0.9, 1.2)),
]


class TestNodePruning:
    """The schedule evaluator and the pair lattice skip the nodes where no
    price can sell.  Their answers are checked against the scalar route at
    prices on either side of one node's cut-off ``(1 - eps) * U`` and at
    prices no user pays."""

    NODE = 100  # the node whose cut-offs the straddling prices sit on

    @staticmethod
    def straddle(cut):
        return [float(np.nextafter(cut, 0.0)), float(cut), float(np.nextafter(cut, np.inf))]

    def axes(self, nodes):
        """Per tier: prices straddling the node's cut-off, a price every
        node can afford, the utility itself and a price above it."""
        return [self.straddle((1.0 - nodes[self.NODE]) * m.utility)
                + [0.05 * m.utility, m.utility, 2.0 * m.utility] for m in PAIR]

    @pytest.mark.parametrize("dist", PRUNING_DISTS, ids=["uniform", "tabulated"])
    def test_family_rows_match_scalar_route(self, dist):
        from prompt_pricing.heterogeneous import _family_volumes

        nodes, weights = dist.quadrature(QuadratureConfig(301))
        axis_low, axis_high = self.axes(nodes)
        dead = [axis_low[-1], axis_high[-1]]
        rows = ([[p, axis_high[-2]] for p in axis_low[:3]]
                + [[axis_low[-2], p] for p in axis_high[:3]]
                + [dead, [axis_low[-2], axis_high[-2]], dead]
                + [[p, q] for p, q in zip(axis_low, axis_high)])
        want = [_scalar_route(PAIR, r, nodes, weights) for r in rows]
        for chunk in (1, 3, 512):
            payoffs, volumes = _family_volumes(PAIR, np.array(rows), nodes, weights, chunk=chunk)
            for (pay, vol), got_pay, got_vol in zip(want, payoffs, volumes):
                assert abs(got_pay - pay) <= 1e-12 * PAIR.high.utility
                assert np.all(np.abs(got_vol - vol) <= 1e-12 * PAIR.high.utility)

    @pytest.mark.parametrize("shuffle", [False, True], ids=["sorted", "shuffled"])
    @pytest.mark.parametrize("dist", PRUNING_DISTS, ids=["uniform", "tabulated"])
    def test_lattice_cells_match_scalar_route(self, dist, shuffle):
        from prompt_pricing.heterogeneous import _pair_lattice_payoffs

        nodes, weights = dist.quadrature(QuadratureConfig(301))
        axis_low, axis_high = self.axes(nodes)
        if shuffle:
            order = np.random.default_rng(20240811).permutation(len(nodes))
            nodes, weights = nodes[order], weights[order]
        low, high = PAIR.require_pair()
        lattice = _pair_lattice_payoffs(
            low, high, np.array(axis_low), np.array(axis_high), nodes, weights)
        for i, p_low in enumerate(axis_low):
            for j, p_high in enumerate(axis_high):
                want, _ = _scalar_route(PAIR, [p_low, p_high], nodes, weights)
                assert abs(lattice[i, j] - want) <= 1e-12 * high.utility


class TestBenchmarks:
    def test_utility_based_is_a_constrained_optimum(self):
        out = utility_based_pricing(PAIR, U01, FAST)
        beta = out.schedule.price_for("ml") / 1.0
        for shift in (-1e-3, 1e-3):
            b = beta + shift
            if not 0.0 < b < 1.0:
                continue
            neighbour = platform_payoff(
                PAIR, PriceSchedule({"ml": b * 1.0, "mh": b * 1.8}), U01, FAST).platform_payoff
            assert out.platform_payoff >= neighbour - 1e-12

    def test_cost_based_is_a_constrained_optimum(self):
        out = cost_based_pricing(PAIR, U01, FAST)
        mu = out.schedule.price_for("ml") / 0.02 - 1.0
        for shift in (-1e-3, 1e-3):
            m = mu + shift
            if m < 0.0:
                continue
            neighbour = platform_payoff(
                PAIR, PriceSchedule({"ml": (1 + m) * 0.02, "mh": (1 + m) * 0.04}),
                U01, FAST).platform_payoff
            assert out.platform_payoff >= neighbour - 1e-12

    @pytest.mark.parametrize("lo", [0.0, 0.15])
    def test_cost_based_row_beats_both_neighbours(self, lo):
        # re-scoring only three rows either side of the coarse winner once
        # returned rows 21797 (lo = 0) and 8183 (lo = 0.15) here, while
        # rows 21798 and 8182 paid more
        dist = UniformAmbiguity(lo, 1.0)
        out = cost_based_pricing(PAIR, dist)
        costs = np.array([m.cost for m in PAIR])
        row = round((out.schedule.price_for("ml") / costs[0] - 1.0) / 1e-3)
        assert [out.schedule.price_for(m) for m in PAIR] == list((1.0 + row * 1e-3) * costs)
        for i in (row - 1, row + 1):
            prices = (1.0 + i * 1e-3) * costs
            sched = PriceSchedule({m.id: float(p) for m, p in zip(PAIR, prices)})
            assert platform_payoff(PAIR, sched, dist).platform_payoff <= out.platform_payoff

    @pytest.mark.parametrize("solver", ["opp", "cost_based"])
    def test_search_quadrature_never_exceeds_the_full_rule(self, solver):
        dist = _RecordingUniform(0.3, 1.0)
        quad = QuadratureConfig(301)
        if solver == "opp":
            opp(PAIR, dist, OppConfig(step_alpha=0.01, quad=quad))
        else:
            cost_based_pricing(PAIR, dist, quad)
        assert dist.node_counts and max(dist.node_counts) <= 301

    def test_cost_based_needs_positive_costs(self):
        models = ModelSet([GaiModel("ml", 1.0, 0.0), GaiModel("mh", 1.8, 0.04)])
        with pytest.raises(DegenerateCostBase):
            cost_based_pricing(models, U01, FAST)

    def test_proportional_families_cannot_beat_free_pricing(self):
        # the free optimum is integrated analytically, the families by
        # quadrature; allow one node weight of integration slack
        model = ModelSet([GaiModel("m", 1.0, 0.2)])
        free = single_model_price(GaiModel("m", 1.0, 0.2), U01)
        util = utility_based_pricing(model, U01)
        cost = cost_based_pricing(model, U01)
        assert util.platform_payoff <= free.platform_payoff + 1e-3
        assert cost.platform_payoff <= free.platform_payoff + 1e-3

    def test_single_model_utility_family_hits_its_grid_max(self):
        model = ModelSet([GaiModel("m", 1.0, 0.2)])
        out = utility_based_pricing(model, U01, FAST)
        sampled = [
            platform_payoff(model, PriceSchedule({"m": b / 1000.0}), U01, FAST).platform_payoff
            for b in range(50, 1000, 50)
        ]
        assert out.platform_payoff >= max(sampled) - 1e-12
