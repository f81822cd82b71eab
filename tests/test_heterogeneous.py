"""Distribution-level pricing: quadrature payoffs, bounds, optimizers, benchmarks."""

import functools
import math
import time
from pathlib import Path

import numpy as np
import pytest

from prompt_pricing import (
    ConfigError,
    DegenerateCostBase,
    GaiModel,
    InvalidModel,
    ModelSet,
    OppConfig,
    PriceSchedule,
    PricingOutcome,
    PromptPricingError,
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
    prompt_upper_bound,
    select_model,
    single_model_price,
    user_payoff,
    utility_based_pricing,
)
from prompt_pricing.scenario import load_scenario

from _helpers import (
    argsort_pair_lattice,
    decimal_volume,
    dense_pair_lattice,
    node_classes,
    node_kinds,
    per_cell_profile,
    scalar_mass,
    scalar_volume_from_segments,
)

PAIR = ModelSet([GaiModel("ml", 1.0, 0.02), GaiModel("mh", 1.8, 0.04)])
U01 = UniformAmbiguity(0.0, 1.0)
FAST = QuadratureConfig(501)
FAST_OPP = OppConfig(step_alpha=0.01, quad=FAST)
SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

# opp's payoff at each point of the bundled fig7 scenarios' eps_min sweeps (0, 0.15,
# 0.3, 0.45, 0.6) when its windows were followed by two golden-section passes,
# rounded down at 1e-10
FIG7_OPP_FLOORS = {
    "fig7a": (0.4304387247, 0.4148206247, 0.430798702, 0.3844327836, 0.3510625537),
    "fig7b": (0.3460752877, 0.3175232462, 0.3304191511, 0.2820057392, 0.250873324),
}


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

    @pytest.mark.parametrize("volume", [-1e-9, math.nan, math.inf])
    def test_outcome_rejects_a_bad_volume(self, volume):
        with pytest.raises(ValueError) as exc:
            PricingOutcome(PriceSchedule({"ml": 0.3}), 0.0, {"ml": volume}, "test")
        assert str(exc.value) == f"prompt volume for 'ml' must be finite and >= 0, got {volume}"

    def test_returns_the_given_schedule(self):
        """The schedule comes back as given, a price for a model outside the
        set included; that price changes neither payoff nor volumes."""
        sched = PriceSchedule({"ml": 0.3, "mh": 0.6})
        extra = PriceSchedule({"ml": 0.3, "mh": 0.6, "other": 0.1})
        want = platform_payoff(PAIR, sched, U01, FAST)
        out = platform_payoff(PAIR, extra, U01, FAST)
        assert out.schedule is extra
        assert out.platform_payoff == want.platform_payoff
        assert out.prompt_volume == want.prompt_volume

    def test_matches_per_node_model_selection(self):
        nodes, weights = U01.quadrature(QuadratureConfig(301))
        sched = PriceSchedule({"ml": 0.22, "mh": 0.71})
        _, (vol_ml, vol_mh) = _scalar_route(PAIR, [0.22, 0.71], nodes, weights)
        out = platform_payoff(PAIR, sched, U01, QuadratureConfig(301))
        assert out.prompt_volume["ml"] == pytest.approx(vol_ml, abs=1e-12)
        assert out.prompt_volume["mh"] == pytest.approx(vol_mh, abs=1e-12)


class TestSegmentRoots:
    """The roots of ``eps**(k-1) * (1-eps) = ratio`` (:func:`_segment_bounds`)
    and the curve tops ``_TOPS`` that decide which counts have roots."""

    def test_no_roots_above_curve_maximum(self):
        """Above the top of prompt 2's curve only the first prompt sells."""
        from prompt_pricing.evaluation import _TOPS, _volume_from_segments

        assert _TOPS[1] < 0.3
        got = _volume_from_segments(GaiModel("m", 1.0), np.array([0.3]), U01)
        assert got[0] == U01.mass(0.0, 0.7)

    def test_quadratic_case(self):
        from prompt_pricing.evaluation import _segment_bounds

        lower, upper = _segment_bounds(np.array([0.1]), np.array([2]))
        assert lower[0] == pytest.approx((1 - math.sqrt(0.6)) / 2, abs=1e-9)
        assert upper[0] == pytest.approx((1 + math.sqrt(0.6)) / 2, abs=1e-9)

    def test_tangency_collapses_to_peak(self):
        from prompt_pricing.evaluation import _TOPS, _segment_bounds

        assert _TOPS[2] == 2 ** 2 / 3 ** 3  # curve maximum for three prompts
        lower, upper = _segment_bounds(np.array([_TOPS[2]]), np.array([3]))
        assert lower[0] == pytest.approx(2 / 3, abs=1e-6)
        assert upper[0] == pytest.approx(2 / 3, abs=1e-6)

    def test_roots_satisfy_equation(self):
        from prompt_pricing.evaluation import _segment_bounds

        ratio, k = np.array([0.05, 0.1, 0.02]), np.array([2, 3, 5])
        lower, upper = _segment_bounds(ratio, k)
        for x in (lower, upper):
            assert np.all(np.abs(x ** (k - 1) * (1 - x) - ratio) < 1e-10)
        assert np.all((lower <= (k - 1) / k) & ((k - 1) / k <= upper))

    @pytest.mark.parametrize("k", [1, 2, 5, 20])
    def test_tangency_adds_no_interval(self, k):
        """At ``_TOPS[k]`` prompt k + 1 pays only at the single point
        k/(k+1): the volume there is the volume one ulp above."""
        from prompt_pricing.evaluation import _TOPS, _volume_from_segments

        prices = np.array([_TOPS[k], np.nextafter(_TOPS[k], np.inf)])
        at, above = _volume_from_segments(GaiModel("m", 1.0), prices, U01)
        assert abs(at - above) <= 1e-12


# the tiers of the bundled fig7 scenarios (fig7a and fig7b share the low tier)
FIG7_TIERS = (GaiModel("ml", 1.0, 0.02), GaiModel("mh", 1.8, 0.04), GaiModel("mh", 1.5, 0.06))
ZERO_KNOT = TabulatedAmbiguity((0.0, 0.25, 0.5, 0.75, 1.0), (1.0, 0.8, 0.0, 1.2, 0.6))


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

    def test_zero_cost_ties_go_to_the_cheaper_maximum(self):
        """At zero cost on U(0, 1) the prices 1/2 (one prompt) and
        (sqrt(2) - 1)/2 (up to two prompts) both pay exactly 1/4; the
        cheaper one is returned, whatever rounding says about the two."""
        out = single_model_price(GaiModel("m", 1.0, 0.0), U01)
        assert out.schedule.price_for("m") == pytest.approx((math.sqrt(2.0) - 1.0) / 2.0, abs=1e-8)
        assert out.platform_payoff == pytest.approx(0.25, abs=1e-14)

    def test_hopeless_cost_gives_zero(self):
        out = single_model_price(GaiModel("m", 1.0, 1.4), U01)
        assert out.platform_payoff == 0.0
        assert out.schedule.price_for("m") == 1.0

    @pytest.mark.parametrize("model", [*FIG7_TIERS, GaiModel("m", 1.0, 0.0)], ids=str)
    def test_at_most_18_objective_calls(self, model, monkeypatch):
        """Round 0 and at most 16 shrinking grid rounds, plus the answer's
        own volume: at most 18 batched objective calls per solve."""
        from prompt_pricing import heterogeneous

        calls = []
        real = heterogeneous._volume_from_segments
        monkeypatch.setattr(heterogeneous, "_volume_from_segments",
                            lambda *args: calls.append(1) or real(*args))
        single_model_price(model, U01)
        assert 1 < len(calls) <= 18

    @pytest.mark.parametrize("model,dist", [
        *((m, d) for m in FIG7_TIERS for d in (U01, UniformAmbiguity(0.6, 1.0), ZERO_KNOT)),
        (GaiModel("m", 1.0, 0.0), U01),
        (GaiModel("m", 1.0, 1e-4), U01),
    ], ids=str)
    def test_beats_a_dense_grid_over_every_piece(self, model, dist):
        """The pieces dropped after round 0 hold no better price: the answer
        pays at least the best of 33 prices in every smooth piece, kept or
        dropped, minus 1e-12 of U.  At cost 1e-4 the best piece is not the
        one with the best round-0 point."""
        from prompt_pricing.evaluation import _MAX_SEGMENTS, _TOPS, _volume_from_segments

        u, c = model.utility, model.cost
        floor = max(c, u / _MAX_SEGMENTS)
        cuts = np.unique(np.concatenate([[u], u * _TOPS[1:][u * _TOPS[1:] > floor], [floor]]))
        grid = np.linspace(np.nextafter(cuts[:-1], np.inf), cuts[1:], 33, axis=1).ravel()
        best = ((grid - c) * _volume_from_segments(model, grid, dist)).max()
        out = single_model_price(model, dist)
        assert out.platform_payoff >= best - 1e-12 * u

    @pytest.mark.parametrize("lo", [0.99, 0.995, 0.999])
    def test_floor_that_binds_raises(self, lo):
        """Zero cost on U(lo, 1): the search floor U/512 binds.  On U(0.99,
        1) and U(0.995, 1) the best price found is the floor's own probe,
        and on U(0.999, 1) nothing sells above the floor although the first
        prompt pays (1 - lo) * U > 0.  A quadrature price grid below the
        floor pays more than 0.27 on each, so each raises instead of
        answering."""
        from prompt_pricing.evaluation import _MAX_SEGMENTS

        model, dist = GaiModel("m", 1.0, 0.0), UniformAmbiguity(lo, 1.0)
        below = max(platform_payoff(ModelSet([model]), PriceSchedule({"m": float(p)}), dist,
                                    QuadratureConfig(2001)).platform_payoff
                    for p in np.geomspace(1e-5, 1.0 / _MAX_SEGMENTS, 40))
        assert below > 0.27
        with pytest.raises(PromptPricingError, match="below U/512"):
            single_model_price(model, dist)

    @pytest.mark.parametrize("lo,cost", [
        (0.0, 1.0), (0.0, 1.2), (0.5, 0.5), (0.9, 0.1), (0.999, 0.0011), (0.999, 0.0), (0.99999, 0.0)])
    def test_nothing_sells_is_decided_before_the_search(self, lo, cost, monkeypatch):
        """The first prompt's largest gain, (1 - lo) * U, bounds every price
        that sells.  At or below the cost the answer is the price U with no
        volume; above the cost but at or below the floor U/512 (the zero
        costs) the floor binds.  Neither scores a price."""
        from prompt_pricing import heterogeneous

        def no_search(*args):
            raise AssertionError("scored a price")

        monkeypatch.setattr(heterogeneous, "_volume_from_segments", no_search)
        model, dist = GaiModel("m", 1.0, cost), UniformAmbiguity(lo, 1.0)
        if cost > 0.0:
            out = single_model_price(model, dist)
            assert (out.schedule.price_for("m"), out.platform_payoff, out.prompt_volume) == (
                1.0, 0.0, {"m": 0.0})
        else:
            with pytest.raises(PromptPricingError, match="below U/512"):
                single_model_price(model, dist)

    @pytest.mark.parametrize("lo,cost,price,payoff", [
        (0.0, 0.0, 0.2071067809679166, 0.25000000000000006),
        (0.0, 1e-4, 0.5000499999150634, 0.24995000250000002),
        (0.0, 0.0019, 0.500950001180172, 0.2490509025),
        (0.98, 0.006, 0.009570072254570919, 0.0490488685828424),
        (0.98, 0.01, 0.012918245594121077, 0.014338783262736046),
    ])
    def test_floor_that_does_not_bind_keeps_the_answer(self, lo, cost, price, payoff):
        """Answers the floor check leaves alone, by ``repr``: costs below the
        floor U/512 on U(0, 1), where the answer is far above it, and costs
        above it on U(0.98, 1)."""
        out = single_model_price(GaiModel("m", 1.0, cost), UniformAmbiguity(lo, 1.0))
        assert (repr(out.schedule.price_for("m")), repr(out.platform_payoff)) == (
            repr(price), repr(payoff))

    def test_zero_cost_past_count_64(self):
        """Zero cost on U(0.98, 1): the floor binds, but the best price,
        about 0.0027, lies above it, in the piece where users buy up to 136
        prompts, whose edges come from ``_curve_top`` above k = 64; the
        search brackets it within 1e-10 of U."""
        out = single_model_price(GaiModel("m", 1.0, 0.0), UniformAmbiguity(0.98, 1.0))
        assert out.schedule.price_for("m") == pytest.approx(0.0027087217771135435, abs=1e-10)
        assert out.platform_payoff == pytest.approx(0.27032715519665457, abs=1e-15)


SEGMENT_DISTS = {
    "u01": U01,
    "u45": UniformAmbiguity(0.45, 1.0),
    "u59": UniformAmbiguity(0.5, 0.9),
    "tab": TabulatedAmbiguity((0.0, 0.2, 0.4, 0.6, 0.8, 1.0),
                              (1.355, 0.706, 1.466, 0.542, 0.976, 0.549)),
}


class TestBatchedSegments:
    """The batched single-model objective against the scalar route of
    ``tests/_helpers.py`` (one Newton iteration per root, one mass per
    interval), against roots refined to 40 digits and against fine
    quadrature."""

    MODEL = GaiModel("m", 1.8)

    @pytest.mark.parametrize("dist_name", sorted(SEGMENT_DISTS))
    def test_volume_matches_scalar_reference(self, dist_name):
        """Within 1e-13 of the volume (or of 1, if larger) at every price but
        the tangencies ``U * _TOPS[k]``.  A price 1e-9 from a tangency has
        a nearly double root, which one ulp of a logarithm moves by about
        1e-12, so the scalar route calls numpy's ``log``, ``exp`` and
        ``expm1`` as the batched one does; a price near the floor sums
        about 190 segments.  At a tangency the curve of prompt k + 1
        touches the price at its peak, a single point: the batched route
        adds no interval for it, while the scalar route places the double
        root only to about the square root of machine epsilon and adds an
        interval about that wide, so there the volumes agree within 1e-7."""
        from prompt_pricing.evaluation import _MAX_SEGMENTS, _TOPS, _volume_from_segments

        dist = SEGMENT_DISTS[dist_name]
        u = self.MODEL.utility
        rng = np.random.default_rng(8)
        tangent = u * _TOPS[[*range(1, 41), 100, 150, 186]]  # where prompt k + 1 just sells
        floor = u / _MAX_SEGMENTS
        prices = np.concatenate([
            tangent * (1.0 - 1e-9), tangent * (1.0 + 1e-9), [floor, u, 1.2 * u],
            rng.uniform(floor, u, 300), np.exp(rng.uniform(math.log(floor), math.log(u), 50))])
        for batch, rtol, atol in ((prices, 1e-13, 1e-13), (tangent, 0.0, 1e-7)):
            got = _volume_from_segments(self.MODEL, batch, dist)
            want = np.array([scalar_volume_from_segments(self.MODEL, float(p), dist) for p in batch])
            np.testing.assert_allclose(got, want, rtol=rtol, atol=atol)
        assert len(prices) + len(tangent) > 430

    @pytest.mark.parametrize("dist_name", sorted(SEGMENT_DISTS))
    def test_volume_matches_40_digit_roots(self, dist_name):
        """Within 2e-15 (relative) of the volume from segment roots refined
        to 40 digits (``decimal_volume``), at 120 random prices away from
        the tangencies, where every root is simple.  The Newton roots sit
        within about an ulp of the true ones; a bisection bracket frozen at
        1e-14 misses this by more than ten times."""
        from prompt_pricing.evaluation import _MAX_SEGMENTS, _TOPS, _volume_from_segments

        dist = SEGMENT_DISTS[dist_name]
        u = self.MODEL.utility
        prices = np.random.default_rng(8).uniform(u / _MAX_SEGMENTS, u, 120)
        assert np.abs(prices[:, None] / (u * _TOPS[None, :]) - 1.0).min() > 1e-6
        got = _volume_from_segments(self.MODEL, prices, dist)
        want = [decimal_volume(self.MODEL, float(p), dist) for p in prices]
        np.testing.assert_allclose(got, want, rtol=2e-15, atol=0.0)

    @pytest.mark.parametrize("dist_name", sorted(SEGMENT_DISTS))
    def test_volume_matches_fine_quadrature(self, dist_name):
        from prompt_pricing.evaluation import _volume_from_segments

        dist = SEGMENT_DISTS[dist_name]
        u = self.MODEL.utility
        prices = u * np.array([0.004, 0.02, 0.07, 0.2, 0.25, 0.5, 0.9])
        got = _volume_from_segments(self.MODEL, prices, dist)
        fine = QuadratureConfig(200_001)
        for p, v in zip(prices, got):
            ref = platform_payoff(ModelSet([self.MODEL]), PriceSchedule({"m": float(p)}), dist, fine)
            assert abs(v - ref.prompt_volume["m"]) <= 1e-4

    @pytest.mark.parametrize("dist_name", sorted(SEGMENT_DISTS))
    def test_mass_is_the_scalar_formula_elementwise(self, dist_name):
        dist = SEGMENT_DISTS[dist_name]
        rng = np.random.default_rng(3)
        a = np.concatenate([rng.uniform(-0.2, 1.2, 300), [0.1, 0.3, 0.7, -0.5, 1.1, 0.05, 0.0]])
        b = np.concatenate([rng.uniform(-0.2, 1.2, 300), [0.1, 0.1, 0.95, -0.1, 1.5, 0.99, 1.0]])
        assert np.any(b < a) and np.any(b == a)  # empty and reversed intervals
        got = dist.mass(a, b)
        want = np.array([scalar_mass(dist, float(x), float(y)) for x, y in zip(a, b)])
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-15)
        assert np.all(got[b <= a] == 0.0)

    def test_tops_bound_the_counts(self):
        """The top count of a price between U * _TOPS[k] and U * _TOPS[k-1] is k;
        a price below the table's last entry raises."""
        from prompt_pricing.evaluation import _TOPS, _volume_from_segments

        for k in (1, 2, 5, 64, 65, 120):
            price = self.MODEL.utility * 0.5 * (_TOPS[k] + _TOPS[k - 1])
            assert prompt_upper_bound(self.MODEL, price) == k
        with pytest.raises(PromptPricingError):
            _volume_from_segments(self.MODEL, np.array([0.5, 0.5 * _TOPS[-1] * 1.8]), U01)

    def test_root_step_cap_raises(self, monkeypatch):
        from prompt_pricing import evaluation

        monkeypatch.setattr(evaluation, "_ROOT_STEPS", 3)  # these roots take 4 and 5 steps
        with pytest.raises(PromptPricingError, match="Newton steps"):
            evaluation._segment_bounds(np.array([0.1]), np.array([3]))
        with pytest.raises(PromptPricingError, match="Newton steps"):
            single_model_price(GaiModel("m", 1.0, 0.1), U01)

    def test_falling_count_cap_raises(self, monkeypatch):
        """The count kernel's closed-form estimate here is 41 and the count
        is 40: with no correction step allowed it must raise, not return 41."""
        from prompt_pricing import evaluation

        eps, price = np.array([0.6908738165346597]), 1.1643542636794673e-07
        assert evaluation._counts_vec(1.0, price, eps)[0] == 40.0
        monkeypatch.setattr(evaluation, "_COUNT_STEPS", 0)
        with pytest.raises(PromptPricingError, match="prompt counts still moving"):
            evaluation._counts_vec(1.0, price, eps)

    @pytest.mark.filterwarnings("error")
    def test_roots_that_miss_the_peak_raise(self):
        """k = 1 has its peak at eps = 0, where no lower root lies in (0, 1);
        it is rejected before any logarithm or division, without a warning."""
        from prompt_pricing.evaluation import _segment_bounds

        with pytest.raises(PromptPricingError, match="bracket"):
            _segment_bounds(np.array([0.1, 0.1]), np.array([3, 1]))

    @pytest.mark.parametrize("cost", [0.0, 1e-4])
    def test_near_zero_cost_beats_a_reference_grid(self, cost):
        """At (almost) no cost the U/512 floor leaves about 190 pieces to search."""
        model = GaiModel("m", 1.0, cost)
        out = single_model_price(model, U01)
        grid = cost + (1.0 - cost) * np.arange(1, 2001) / 2000
        best = max((p - cost) * scalar_volume_from_segments(model, float(p), U01) for p in grid)
        assert out.platform_payoff >= best - 1e-3 * model.utility


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

    @staticmethod
    def own(u, eps, k):
        """The payoff ``m`` delivers at its count-``k`` indifference price,
        as the bound's search computes it."""
        return (1.0 - eps ** k) * u - k * (eps ** k) * (1.0 - eps) * u

    def test_far_count_is_found_quickly(self):
        """Near eps = 1 a nearly free rival is beaten only after about 1.76e7
        prompts.  The bound, about 3.1e-8, not 0, comes back at once, sits
        at the first count that beats the rival and flips the user's
        choice."""
        high, low = GaiModel("h", 1.8), GaiModel("l", 1.0)
        eps, p_low = 0.9999999, 1e-9
        start = time.perf_counter()
        bound = price_upper_bound(high, low, p_low, eps)
        assert time.perf_counter() - start < 0.1
        assert bound == pytest.approx(3.104e-8, rel=1e-3)
        k = optimal_prompt_count(high, bound, eps)
        rival = user_payoff(low, p_low, eps, optimal_prompt_count(low, p_low, eps))
        assert bound == ((1.0 - eps ** k) * high.utility - rival) / k
        assert self.own(1.8, eps, k - 1) <= rival < self.own(1.8, eps, k)
        models = ModelSet([low, high])
        for scale, pick in ((0.999999, "h"), (1.000001, "l")):
            prices = PriceSchedule({"l": p_low, "h": scale * bound})
            assert select_model(models, prices, eps).selected_model == pick

    def test_matches_a_count_by_count_scan(self):
        """The doubling search returns what scanning k = 1, 2, ... returns, on
        seeded inputs whose first beating count stays below 10^4."""
        from prompt_pricing.user_strategy import _decision_for

        rng = np.random.default_rng(20241020)
        checked = 0
        for i in range(3000):
            eps = [rng.uniform(0.0, 1.0), 1.0 - 10.0 ** -rng.uniform(0.0, 3.0),
                   10.0 ** -rng.uniform(0.0, 12.0)][i % 3]
            u_high, u_low = rng.uniform(0.1, 3.0, 2)
            p_low = rng.uniform(0.0, u_low) if i % 2 else u_low * 10.0 ** -rng.uniform(0.0, 9.0)
            high, low = GaiModel("h", u_high), GaiModel("l", u_low)
            _, rival = _decision_for(low, p_low, eps)
            if rival >= u_high:
                want = 0.0
            else:
                k = next((k for k in range(1, 10_000) if rival < self.own(u_high, eps, k)), None)
                if k is None:
                    continue
                want = max(0.0, ((1.0 - eps ** k) * u_high - rival) / k)
            checked += 1
            assert price_upper_bound(high, low, p_low, eps) == want
        assert checked > 2900


class TestGainDecomposition:
    def test_partition_matches_direct_payoff(self):
        """Serving everyone at the low tier plus the high-tier gain equals the
        schedule payoff, wherever no node sits on a decision boundary."""
        from prompt_pricing.evaluation import _counts_vec

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
        assert out.schedule == PriceSchedule({"ml": 1.0, "mh": 1.8})
        assert out.prompt_volume == {"ml": 0.0, "mh": 0.0}
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
        trace = opp(PAIR, U01, OppConfig(step_alpha=0.05, quad=FAST)).trace
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

    @pytest.mark.parametrize("point", range(5), ids=["0", "0.15", "0.3", "0.45", "0.6"])
    @pytest.mark.parametrize("name", ["fig7a", "fig7b"])
    def test_fig7_payoff_floor(self, name, point):
        """At each bundled fig7 point, in the scenario's own setting (step
        0.002, 2001 nodes), ``opp`` pays at least what the search with
        golden-section passes after its windows paid."""
        scenario = load_scenario(SCENARIOS / f"{name}.ini")
        eps_min = float(scenario.sweep.values()[point])
        got = opp(scenario.models, UniformAmbiguity(eps_min, scenario.dist.hi), scenario.opp)
        assert got.platform_payoff >= FIG7_OPP_FLOORS[name][point]

    @pytest.mark.parametrize("name", ["fig7a", "fig7b"])
    def test_answer_is_the_first_best_window_winner(self, name):
        """Under Uniform(0.6, 1) at step 0.002 and 2001 nodes, every polish
        window's best cell is a candidate.  The answer is the first best, by
        one-row evaluation, of the winners within ``_RESCORE_TOL`` of the top
        utility of the best window score (two distinct cells for fig7a), so
        it pays at least what the window winner the lattice ranks first
        pays."""
        from prompt_pricing import evaluation, heterogeneous

        kernel, winners, scores = heterogeneous._pair_lattice_payoffs, [], []

        def record(low, high, axis_low, axis_high, *rest):
            cells = kernel(low, high, axis_low, axis_high, *rest)
            if len(axis_low) == len(axis_high) == heterogeneous._WINDOW_POINTS:
                a, b = np.unravel_index(int(np.argmax(cells)), cells.shape)
                winners.append(PriceSchedule({"ml": axis_low[a], "mh": axis_high[b]}))
                scores.append(cells[a, b])
            return cells

        models, dist = FAMILY_SETS[name], UniformAmbiguity(0.6, 1.0)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(heterogeneous, "_pair_lattice_payoffs", record)
            out = opp(models, dist, OppConfig(step_alpha=0.002, quad=QuadratureConfig()))
        near = np.flatnonzero(evaluation._near_best(models, np.array(scores)))
        best = None
        for i in near:
            got = platform_payoff(models, winners[i], dist)
            if best is None or got.platform_payoff > best.platform_payoff:
                best = got
        assert out.schedule == best.schedule
        assert out.platform_payoff == best.platform_payoff
        assert out.prompt_volume == best.prompt_volume
        lattice_pick = platform_payoff(models, winners[int(np.argmax(scores))], dist)
        assert out.platform_payoff >= lattice_pick.platform_payoff

    def test_one_sweep_rescore_and_one_outcome_evaluation(self, monkeypatch):
        """A solve evaluates schedules once: the near-best polish window
        winners, in ``_best_outcome``, whose batch also gives the answer's
        outcome.  The sweep is ranked on two lattices: every step against
        every grid column at the reduced rule (501 of 2001 nodes), then
        every step against the distinct columns the steps chose, at the
        full rule; every later lattice is a polish window."""
        from prompt_pricing import evaluation, heterogeneous

        assert not hasattr(heterogeneous, "_family_volumes")
        finish = _count_calls(monkeypatch, evaluation, "_family_volumes")
        kernel, lattices = heterogeneous._pair_lattice_payoffs, []

        def record(low, high, axis_low, axis_high, nodes, weights):
            lattices.append((len(axis_low), len(axis_high), len(nodes)))
            return kernel(low, high, axis_low, axis_high, nodes, weights)

        monkeypatch.setattr(heterogeneous, "_pair_lattice_payoffs", record)
        trace = opp(PAIR, UniformAmbiguity(0.3, 1.0),
                    OppConfig(step_alpha=0.01, quad=QuadratureConfig())).trace
        assert len(finish) == 1 and finish[0] < len(trace)
        chosen = len({p_high for _, p_high, _ in trace})
        assert 1 < chosen < heterogeneous._INNER_GRID
        assert lattices[:2] == [(len(trace), heterogeneous._INNER_GRID, 501),
                                (len(trace), chosen, 2001)]
        window = heterogeneous._WINDOW_POINTS
        assert lattices[2:] and set(lattices[2:]) == {(window, window, 2001)}

    @pytest.mark.parametrize("eps_min", [0.0, 0.3, 0.6])
    @pytest.mark.parametrize("name", ["fig7a", "fig7b"])
    def test_trace_payoff_is_the_pair_payoff(self, name, eps_min):
        """Each sweep step's payoff, read off its own cell of the lattice of
        the chosen columns, is the payoff ``platform_payoff`` gives its pair
        alone, up to summation order."""
        models, dist = FAMILY_SETS[name], UniformAmbiguity(eps_min, 1.0)
        trace = opp(models, dist, FAST_OPP).trace
        u_high = models.high.utility
        for p_low, p_high, payoff in trace:
            want = platform_payoff(models, PriceSchedule({"ml": p_low, "mh": p_high}), dist, FAST)
            assert abs(payoff - want.platform_payoff) <= 1e-14 * u_high, (p_low, p_high)

    def test_three_models_are_not_a_pair(self):
        for solve in (lambda m: opp(m, U01, FAST_OPP), lambda m: grid_oracle(m, U01, 50, FAST)):
            with pytest.raises(InvalidModel, match="expected exactly two models, got 3"):
                solve(FAMILY_SETS["three"])

    @pytest.mark.parametrize("step", [1.0, 1.5])
    def test_step_at_or_above_low_utility_is_a_config_error(self, step):
        with pytest.raises(ConfigError, match=rf"step_alpha must lie in \(0, U_L\), got {step}"):
            opp(PAIR, U01, OppConfig(step_alpha=step, quad=FAST))

    def test_tiny_step_is_a_config_error(self):
        """A step of 1e-12 asks for 9.8e11 sweep steps, an allocation numpy
        refuses outright; the sweep is capped at 100,000 steps, and the
        message names the smallest step allowed, (U_L - C_L) / 100,000."""
        with pytest.raises(ConfigError, match=r"more than 100,000 sweep steps; "
                                              r"the step must be above 9\.8e-06$"):
            opp(PAIR, U01, OppConfig(step_alpha=1e-12, quad=FAST))

    def test_count_step_cap_raises_before_allocating(self):
        """fig7a with both costs 0 under U(0.999, 1): the high-tier grid's first
        price, 1e-12, buys millions of prompts at every node, about 26 million
        count steps in all.  The cap raises before numpy allocates them."""
        models = ModelSet([GaiModel("ml", 1.0, 0.0), GaiModel("mh", 1.8, 0.0)])
        start = time.perf_counter()
        with pytest.raises(PromptPricingError, match=r"the price 1e-12 at utility 1\.8 makes "
                                                     r"[\d,]+ prompt-count steps, more than"):
            opp(models, UniformAmbiguity(0.999, 1.0),
                OppConfig(step_alpha=0.02, quad=QuadratureConfig(201)))
        assert time.perf_counter() - start < 1.0

    def test_default_step_is_a_thousandth_of_low_utility(self):
        """Without a step the sweep moves by 1e-3·U_L: 981 steps from cost to
        utility for a low tier of utility 0.5 (491 at a step of 1e-3)."""
        models = ModelSet([GaiModel("ml", 0.5, 0.01), GaiModel("mh", 0.9, 0.02)])
        trace = opp(models, U01, OppConfig(quad=FAST)).trace
        assert len(trace) == int(math.floor(0.49 / 5e-4)) + 1
        assert trace[1][0] - trace[0][0] == pytest.approx(5e-4, rel=1e-9)


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

    def test_non_integral_size_is_a_config_error(self):
        """50.5 would build 51 prices per axis, the last above the utility."""
        with pytest.raises(ConfigError, match="grid_n must be an integer >= 50, got 50.5"):
            grid_oracle(PAIR, U01, grid_n=50.5, quad=FAST)
        got = grid_oracle(PAIR, U01, grid_n=np.int64(60), quad=FAST)
        assert got == grid_oracle(PAIR, U01, grid_n=60, quad=FAST)

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
        from prompt_pricing.evaluation import _pair_lattice_payoffs

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
    """The schedule evaluator skips the row chunks in which no price sells
    at any node, and the pair lattice must treat a price that sells nothing
    at a node as losing it.  Their answers are checked against the scalar
    route at prices on either side of one node's cut-off
    ``(1 - eps) * U`` and at prices no user pays."""

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
    def test_family_rows_match_scalar_route(self, dist, monkeypatch):
        from prompt_pricing import evaluation

        nodes, weights = dist.quadrature(QuadratureConfig(301))
        axis_low, axis_high = self.axes(nodes)
        dead = [axis_low[-1], axis_high[-1]]
        rows = ([[p, axis_high[-2]] for p in axis_low[:3]]
                + [[axis_low[-2], p] for p in axis_high[:3]]
                + [dead, [axis_low[-2], axis_high[-2]], dead]
                + [[p, q] for p, q in zip(axis_low, axis_high)])
        want = [_scalar_route(PAIR, r, nodes, weights) for r in rows]
        for chunk in (1, 3, 512):  # rows per chunk
            monkeypatch.setattr(evaluation, "_CHUNK_ELEMENTS", chunk * len(nodes))
            payoffs, volumes = evaluation._family_volumes(PAIR, np.array(rows), nodes, weights)
            for (pay, vol), got_pay, got_vol in zip(want, payoffs, volumes):
                assert abs(got_pay - pay) <= 1e-12 * PAIR.high.utility
                assert np.all(np.abs(got_vol - vol) <= 1e-12 * PAIR.high.utility)

    @pytest.mark.parametrize("shuffle", [False, True], ids=["sorted", "shuffled"])
    @pytest.mark.parametrize("dist", PRUNING_DISTS, ids=["uniform", "tabulated"])
    def test_lattice_cells_match_scalar_route(self, dist, shuffle):
        from prompt_pricing.evaluation import _pair_lattice_payoffs

        nodes, weights = dist.quadrature(QuadratureConfig(301))
        axis_low, axis_high = (sorted(axis) for axis in self.axes(nodes))  # the lattice's order
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


class TestLatticeMerge:
    """The pair lattice merges the two tiers' score columns per node.  Its
    cells are checked against the dense pairwise comparison, and the
    choices made from it must not depend on summation order."""

    @pytest.mark.parametrize("shuffle", [False, True], ids=["sorted", "shuffled"])
    @pytest.mark.parametrize("dist", PRUNING_DISTS, ids=["uniform", "tabulated"])
    def test_cells_match_dense_reference(self, dist, shuffle):
        """Ascending axes, each with a duplicate price and a price above
        the tier's utility."""
        from prompt_pricing.evaluation import _pair_lattice_payoffs

        nodes, weights = dist.quadrature(QuadratureConfig(301))
        rng = np.random.default_rng(20240811)
        if shuffle:
            order = rng.permutation(len(nodes))
            nodes, weights = nodes[order], weights[order]
        low, high = PAIR.require_pair()
        axis_low, axis_high = [
            np.sort(np.concatenate([np.linspace(m.cost, m.utility, 60)[1:],
                                    [0.5 * m.utility, 0.5 * m.utility, 1.3 * m.utility]]))
            for m in (low, high)]
        got = _pair_lattice_payoffs(low, high, axis_low, axis_high, nodes, weights)
        want = dense_pair_lattice(low, high, axis_low, axis_high, nodes, weights)
        assert np.all(np.abs(got - want) <= 1e-12 * high.utility)

    def test_payoff_tie_goes_to_the_high_tier(self):
        """At eps = 1/2 the user pays 0.5 either way: three prompts of the
        low tier at 0.125 or two of the high tier at 0.5 (all values exact
        in binary).  The high tier, with the higher utility, takes the node."""
        from prompt_pricing.evaluation import _pair_lattice_payoffs

        models = ModelSet([GaiModel("a", 1.0, 0.0625), GaiModel("b", 2.0, 0.25)])
        low, high = models.require_pair()
        assert user_payoff(low, 0.125, 0.5, 3) == user_payoff(high, 0.5, 0.5, 2) == 0.5
        axis_low, axis_high = np.array([0.0625, 0.125, 0.25]), np.array([0.25, 0.5, 1.0])
        nodes, weights = np.array([0.25, 0.5, 0.75]), np.array([0.25, 0.5, 0.25])
        got = _pair_lattice_payoffs(low, high, axis_low, axis_high, nodes, weights)
        single = _pair_lattice_payoffs(low, high, axis_low, axis_high, nodes[1:2], weights[1:2])
        assert single[1, 1] == (0.5 - high.cost) * 2 * 0.5
        for i, p_low in enumerate(axis_low):
            for j, p_high in enumerate(axis_high):
                want, _ = _scalar_route(models, [p_low, p_high], nodes, weights)
                assert abs(got[i, j] - want) <= 1e-15

    def test_rising_score_raises(self, monkeypatch):
        """The prefix merge needs each tier's user payoff non-increasing in
        its price at every node; a rise is an error, not wrong cells."""
        from prompt_pricing import evaluation

        profile = evaluation._count_profile

        def rising(utility, prices, nodes, steps):
            counts, pays = profile(utility, prices, nodes, steps)
            return counts, pays + 2.0 * counts * prices

        monkeypatch.setattr(evaluation, "_count_profile", rising)
        low, high = PAIR.require_pair()
        nodes, weights = U01.quadrature(QuadratureConfig(101))
        axes = [np.linspace(m.cost, m.utility, 50)[1:] for m in (low, high)]
        with pytest.raises(PromptPricingError):
            evaluation._pair_lattice_payoffs(low, high, axes[0], axes[1], nodes, weights)

    def test_rising_score_at_a_decided_node_raises(self, monkeypatch):
        """The rise is planted only in the low tier's profile at eps = 1/2,
        where the high tier wins every pair and the low tier's count steps.
        No cell reads the low tier's gains there, but a rise can occur only
        where a count steps, so that node is profiled and raises."""
        from prompt_pricing import evaluation

        low, high = PAIR.require_pair()
        nodes, weights = np.array([0.3, 0.5, 0.7]), np.full(3, 1.0 / 3.0)
        axes = [np.array([0.2, 0.25, 0.3]), np.array([0.05, 0.055, 0.06])]
        assert node_kinds(low, high, *axes, nodes) == (3, 0, 0)
        counts, _ = per_cell_profile(low.utility, axes[0], nodes[1:2])
        assert counts[0, 0] > counts[0, -1] >= 1.0
        evaluation._pair_lattice_payoffs(low, high, axes[0], axes[1], nodes, weights)
        profile = evaluation._count_profile

        def rising(utility, prices, eps, steps):
            counts, pays = profile(utility, prices, eps, steps)
            planted = (utility == low.utility) & (eps == 0.5)
            return counts, pays + planted[:, None] * np.arange(len(prices))

        monkeypatch.setattr(evaluation, "_count_profile", rising)
        with pytest.raises(PromptPricingError, match="rises with its price"):
            evaluation._pair_lattice_payoffs(low, high, axes[0], axes[1], nodes, weights)

    @pytest.mark.parametrize("tier", [0, 1], ids=["low", "high"])
    def test_descending_axis_raises(self, tier):
        """The prefix merge reads both axes as ascending (ties allowed); an
        axis that descends anywhere is an error, not wrong cells."""
        from prompt_pricing.evaluation import _pair_lattice_payoffs

        low, high = PAIR.require_pair()
        nodes, weights = U01.quadrature(QuadratureConfig(101))
        axes = [np.linspace(m.cost, m.utility, 10)[1:] for m in (low, high)]
        axes[tier][[3, 4]] = axes[tier][[4, 3]]
        with pytest.raises(ValueError, match="both price axes must be ascending"):
            _pair_lattice_payoffs(low, high, axes[0], axes[1], nodes, weights)

    def test_sweep_column_choice_agrees_with_dense_reference(self):
        """``opp``'s sweep lattice for fig7a under Uniform(0, 1) at 501 nodes
        and ``step_alpha`` 0.002.  In many rows two columns pay the same to
        within rounding, so a plain argmax follows summation order: it
        picks a different column under the two lattices in about half the
        rows.  Each row's first column within ``_RESCORE_TOL`` of its best
        is the same under both."""
        from prompt_pricing.evaluation import _near_best, _pair_lattice_payoffs
        from prompt_pricing.heterogeneous import _INNER_GRID

        low, high = PAIR.require_pair()
        alpha = 0.002
        steps = int(math.floor((low.utility - low.cost) / alpha)) + 1
        low_prices = low.cost + np.arange(steps) * alpha
        if low_prices[-1] < low.utility:
            low_prices = np.append(low_prices, low.utility)
        high_grid = np.linspace(high.cost, high.utility, _INNER_GRID)
        nodes, weights = U01.quadrature(FAST)
        merged = _pair_lattice_payoffs(low, high, low_prices, high_grid, nodes, weights)
        dense = dense_pair_lattice(low, high, low_prices, high_grid, nodes, weights)
        assert np.all(np.abs(merged - dense) <= 1e-12 * high.utility)
        assert np.array_equal(np.argmax(_near_best(PAIR, merged), axis=1),
                              np.argmax(_near_best(PAIR, dense), axis=1))

    def test_grid_oracle_cell_ignores_rounding(self, monkeypatch):
        """For fig7a under Uniform(0.6, 1) at 2001 nodes the lattice's best
        payoff is an exact tie of 370 cells (one high-tier price; the low
        tier loses every node).  Noise at the 1e-13 level on the lattice
        must not move the answer: the oracle re-scores the near-best cells
        and returns the first best one."""
        from prompt_pricing import heterogeneous

        dist, quad = UniformAmbiguity(0.6, 1.0), QuadratureConfig()
        want = grid_oracle(PAIR, dist, quad=quad)
        kernel = heterogeneous._pair_lattice_payoffs
        rng = np.random.default_rng(20240811)

        def noisy(*args):
            out = kernel(*args)
            return out + 1e-13 * PAIR.high.utility * rng.uniform(-1.0, 1.0, out.shape)

        monkeypatch.setattr(heterogeneous, "_pair_lattice_payoffs", noisy)
        got = grid_oracle(PAIR, dist, quad=quad)
        assert got.schedule == want.schedule
        assert got.platform_payoff == want.platform_payoff


@functools.lru_cache(maxsize=None)  # shared by the lattice tests; none of them writes to an array
def _opp_lattices(catalogue: str, dist_index: int) -> tuple:
    """Every lattice ``opp`` scores at step 0.01 and 2001 nodes for one fig7
    catalogue and density, in order: the sweep (501 nodes), its re-score,
    then the polish windows.  (low, high, axis_low, axis_high, nodes,
    weights) each."""
    from prompt_pricing import heterogeneous

    calls, kernel = [], heterogeneous._pair_lattice_payoffs

    def record(*args):
        calls.append(args)
        return kernel(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(heterogeneous, "_pair_lattice_payoffs", record)
        opp(FAMILY_SETS[catalogue], PRUNING_DISTS[dist_index],
            OppConfig(step_alpha=0.01, quad=QuadratureConfig()))
    return tuple(calls)


def _polish_windows(catalogue: str, dist_index: int) -> tuple:
    """The polish windows of :func:`_opp_lattices`."""
    from prompt_pricing.heterogeneous import _WINDOW_POINTS

    return tuple(c for c in _opp_lattices(catalogue, dist_index)
                 if len(c[2]) == len(c[3]) == _WINDOW_POINTS)


class TestDecidedNodes:
    """The pair lattice sorts only the nodes whose winner is not decided by
    the ends of the two sorted score columns.  Its cells must equal, bit
    for bit, the lattice that sorts every selling node."""

    @staticmethod
    def shuffled(nodes, weights):
        order = np.random.default_rng(20240811).permutation(len(nodes))
        return nodes[order], weights[order]

    @staticmethod
    def decided_and_stepless(low, high, axis_low, axis_high, nodes, weights) -> bool:
        """Every selling node of the window is won outright by one tier, and
        neither tier's count steps along its axis at any node."""
        sells, high_all, low_all = node_classes(low, high, axis_low, axis_high, nodes)
        return bool(np.all(high_all | low_all | ~sells)) and not any(
            np.any(np.diff(per_cell_profile(m.utility, axis, nodes)[0], axis=1) != 0.0)
            for m, axis in ((low, axis_low), (high, axis_high)))

    @pytest.mark.parametrize("catalogue, dist_index, windows", [
        pytest.param(catalogue, dist_index, windows, id="-".join(
            [catalogue, ("uniform-0.3", "tabulated")[dist_index]] + [windows] * (windows != "polish")))
        for windows in ("polish", "three-chunks", "decided")
        for dist_index in (0, 1) for catalogue in ("fig7a", "fig7b")])
    def test_polish_windows_equal_argsort_reference(self, catalogue, dist_index, windows,
                                                    monkeypatch):
        """The 38 polish windows of ``opp`` (33 x 33 at 2001 nodes): 32
        around the strongest sweep steps, then 6 around the best pair.  Every
        window has nodes the high tier wins at every pair, and some window
        also has nodes the low tier wins at every pair and nodes where the
        winner changes inside it.  (Under Uniform(0.3, 1) fig7a's low tier
        sells under 1% of the prompts, so most windows hold no low-tier
        node.)  ``three-chunks`` scores the same windows in node chunks of an
        eighth of the nodes, at least three of which sell.  ``decided`` is one
        window 2e-9 wide at the last window's cheapest corner: each tier wins
        some selling nodes outright and the other tier the rest, and no count
        steps, so no node is profiled."""
        from prompt_pricing import evaluation
        from prompt_pricing.heterogeneous import _POLISH_ROWS, _WINDOW_POINTS, _WINDOW_ROUNDS

        found = _polish_windows(catalogue, dist_index)
        # the step windows end at half-widths (0.01, 2 (U_H - C_H) / 250) / 4**4, the
        # wider 5.5e-5 (fig7a) or 4.5e-5 (fig7b); 6 more quarters bring it under 1e-8·U_H
        assert len(found) == _POLISH_ROWS * _WINDOW_ROUNDS + 6
        if windows == "polish":
            kinds = np.array([node_kinds(*c[:5]) for c in found])
            assert np.all(kinds[:, 0] > 0)
            assert np.any(np.all(kinds > 0, axis=1))
        elif windows == "three-chunks":
            n_nodes = len(found[0][4])
            monkeypatch.setattr(evaluation, "_CHUNK_ELEMENTS", 2 * _WINDOW_POINTS * (n_nodes // 8))
        elif windows == "decided":
            low, high, axis_low, axis_high, nodes, weights = found[-1]
            axes = [np.linspace(axis[0] - 1e-9, axis[0] + 1e-9, _WINDOW_POINTS)
                    for axis in (axis_low, axis_high)]
            found = [(low, high, *axes, nodes, weights)]
            assert self.decided_and_stepless(*found[0])
            assert min(node_kinds(*found[0][:5])[:2]) > 0
        for low, high, axis_low, axis_high, nodes, weights in found:
            for eps, w in ((nodes, weights), self.shuffled(nodes, weights)):
                got = evaluation._pair_lattice_payoffs(low, high, axis_low, axis_high, eps, w)
                assert np.array_equal(got, argsort_pair_lattice(low, high, axis_low, axis_high, eps, w))

    def test_profiles_only_mixed_and_stepping_nodes(self, monkeypatch):
        """In a fig7b polish window under Uniform(0.3, 1), the first with
        mixed nodes and, for each tier, nodes where its count steps and the
        other tier wins every pair, each tier's count profile runs at
        exactly the mixed nodes and the nodes where its own count steps: a
        minority of the selling nodes.  The expected sets come from the
        count kernel at every cell."""
        from prompt_pricing import evaluation

        for window in _polish_windows("fig7b", 0):
            low, high, axis_low, axis_high, nodes, weights = window
            sells, high_all, low_all = node_classes(low, high, axis_low, axis_high, nodes)
            mixed = sells & ~high_all & ~low_all
            steps = {m.utility: np.diff(per_cell_profile(m.utility, axis, nodes)[0]).any(axis=1)
                     for m, axis in ((low, axis_low), (high, axis_high))}
            if mixed.any() and np.any(steps[low.utility] & high_all) and np.any(
                    steps[high.utility] & low_all):
                break
        else:
            pytest.fail("no window with mixed nodes and steps where the other tier wins")
        profiled = {low.utility: [], high.utility: []}
        seam = evaluation._count_profile

        def counted(utility, prices, eps, steps):
            profiled[utility].append(eps)
            return seam(utility, prices, eps, steps)

        monkeypatch.setattr(evaluation, "_count_profile", counted)
        evaluation._pair_lattice_payoffs(low, high, axis_low, axis_high, nodes, weights)
        for utility, stepping in steps.items():
            want = np.sort(nodes[mixed | stepping])
            assert np.array_equal(np.sort(np.concatenate(profiled[utility])), want)
            assert len(want) < sells.sum() / 2

    @pytest.mark.parametrize("dist", [*PRUNING_DISTS, UniformAmbiguity(0.6, 1.0)],
                             ids=["uniform-0.3", "tabulated", "uniform-0.6"])
    def test_grid_oracle_axes_equal_argsort_reference(self, dist):
        """``grid_oracle``'s 400 x 400 axes at 2001 nodes, where every selling
        node is mixed.  Every axis ends at its tier's utility, so each node
        chunk trims both."""
        from prompt_pricing.evaluation import _pair_lattice_payoffs

        low, high = PAIR.require_pair()
        axis_low, axis_high = (m.cost + (m.utility - m.cost) * (np.arange(1, 401) / 400)
                               for m in (low, high))
        nodes, weights = dist.quadrature(QuadratureConfig())
        high_all, low_all, mixed = node_kinds(low, high, axis_low, axis_high, nodes)
        assert high_all == low_all == 0 < mixed
        for eps, w in ((nodes, weights), self.shuffled(nodes, weights)):
            got = _pair_lattice_payoffs(low, high, axis_low, axis_high, eps, w)
            assert np.array_equal(got, argsort_pair_lattice(low, high, axis_low, axis_high, eps, w))

    @pytest.mark.parametrize("axes, sorted_rows", [
        # the high tier's dearest price ties the low tier's cheapest: decided, no sort
        ((np.array([0.125, 0.25]), np.array([0.25, 0.5])), 0),
        # the low tier's dearest price ties the high tier's cheapest: the high tier
        # takes that pair, so the node is mixed
        ((np.array([0.0625, 0.125]), np.array([0.5, 1.0])), 1),
    ], ids=["high-end-tie", "low-end-tie"])
    def test_end_ties(self, axes, sorted_rows, monkeypatch):
        """At eps = 1/2 the user pays 0.5 either way: three prompts of the
        low tier at 0.125 or two of the high tier at 0.5 (all values exact
        in binary), so the two score columns' ends tie exactly.  A tie is
        the high tier's, so the first node is decided by its ends and the
        second is sorted."""
        from prompt_pricing import evaluation

        models = ModelSet([GaiModel("a", 1.0, 0.0625), GaiModel("b", 2.0, 0.25)])
        low, high = models.require_pair()
        assert user_payoff(low, 0.125, 0.5, 3) == user_payoff(high, 0.5, 0.5, 2) == 0.5
        (axis_low, axis_high), nodes, weights = axes, np.array([0.5]), np.array([1.0])
        rows, kernel = [], evaluation._prefix_lengths

        def counted(score_h, score_l):
            rows.append(len(score_h))
            return kernel(score_h, score_l)

        monkeypatch.setattr(evaluation, "_prefix_lengths", counted)
        got = evaluation._pair_lattice_payoffs(low, high, axis_low, axis_high, nodes, weights)
        assert sum(rows) == sorted_rows
        assert np.array_equal(got, argsort_pair_lattice(low, high, axis_low, axis_high, nodes, weights))
        for i, p_low in enumerate(axis_low):
            for j, p_high in enumerate(axis_high):
                want, _ = _scalar_route(models, [p_low, p_high], nodes, weights)
                assert got[i, j] == want

    @pytest.mark.parametrize("dist", [U01, PRUNING_DISTS[1]], ids=["uniform", "tabulated"])
    def test_opp_equals_argsort_reference(self, dist, monkeypatch):
        """``opp`` at ``FAST_OPP``: schedule, payoff, volumes and every trace
        row are the same with the lattice that sorts every node."""
        from prompt_pricing import heterogeneous

        got = opp(PAIR, dist, FAST_OPP)
        monkeypatch.setattr(heterogeneous, "_pair_lattice_payoffs", argsort_pair_lattice)
        want = opp(PAIR, dist, FAST_OPP)
        assert got == want
        assert got.trace == want.trace  # == leaves the trace out


def _trim_case(name: str) -> tuple:
    """(low, high, axis_low, axis_high, nodes, weights) of one lattice in
    which some tier's dearest prices sell at no node.  The ``narrow-`` cases
    put every node within 1e-4 of eps = 1/2, where one tier's live prices
    all beat the other tier's: there the gains that tier loses belong in
    the first trimmed row or column, where the winner sells nothing."""
    low, high = PAIR.require_pair()
    if name.startswith("narrow-"):
        nodes, weights = UniformAmbiguity(0.5 - 1e-4, 0.5 + 1e-4).quadrature(QuadratureConfig())
        # live up to (1 - eps) U: 0.5 for the low tier, 0.9 for the high tier
        cheap, dear, unsold = (np.linspace(0.1, 0.3, 20), np.linspace(0.3, 0.45, 30),
                               np.linspace(1.0, 2.0, 10))
        if name == "narrow-high-wins":
            return low, high, dear, np.concatenate([cheap, unsold]), nodes, weights
        return low, high, np.concatenate([cheap / 4, unsold]), 2 * dear, nodes, weights
    dist_index = int(name.endswith("tabulated"))
    lattice = _opp_lattices("fig7a", dist_index)[int(name.startswith("rescore"))]
    if name == "sweep-tied":
        # 40 high-tier prices twice around 0.7 U_H, and each tier's cut at the smallest
        # node, (1 - eps) U, where one prompt leaves the user exactly 0: twice on the high axis
        low, high, axis_low, axis_high, nodes, weights = lattice
        cut_l, cut_h = ((1.0 - nodes.min()) * m.utility for m in (low, high))
        lattice = (low, high, np.sort(np.append(axis_low, cut_l)),
                   np.sort(np.concatenate([axis_high, axis_high[155:195], [cut_h, cut_h]])),
                   nodes, weights)
    return lattice


TRIM_CASES = ["sweep-501", "rescore-2001", "sweep-tied", "sweep-tabulated",
              "narrow-high-wins", "narrow-low-wins"]


class TestTrimmedAxes:
    """In each node chunk the pair lattice profiles a tier only at its live
    prices, those that pass the count kernel's ``buy`` test at the chunk's
    smallest eps; past them every cell adds exact zeros.  At a node the
    other tier wins outright on the live prices, a tier's gains go to the
    trimmed row or column just past them, where that other tier sells
    nothing.  Cells must equal, bit for bit, the lattice that profiles every
    price and sorts every selling node."""

    @pytest.mark.parametrize("name", TRIM_CASES)
    def test_equals_argsort_reference(self, name):
        from prompt_pricing.evaluation import _pair_lattice_payoffs

        low, high, axis_low, axis_high, nodes, weights = _trim_case(name)
        live = [np.sum(axis <= (1.0 - nodes.min()) * m.utility)
                for m, axis in ((low, axis_low), (high, axis_high))]
        assert live[0] < len(axis_low) or live[1] < len(axis_high)
        assert name != "sweep-tied" or len(np.unique(axis_high)) < len(axis_high)
        for eps, w in ((nodes, weights), TestDecidedNodes.shuffled(nodes, weights)):
            got = _pair_lattice_payoffs(low, high, axis_low, axis_high, eps, w)
            assert np.array_equal(got, argsort_pair_lattice(low, high, axis_low, axis_high, eps, w))
        if name.startswith("narrow-"):  # one tier wins every live pair at every node
            assert node_kinds(low, high, axis_low[:live[0]], axis_high[:live[1]], nodes)[2] == 0
            assert np.all(got[live[0]:, live[1]:] == 0.0)
            assert np.all(got[:live[0], live[1]:] > 0.0) and np.all(got[live[0]:, :live[1]] > 0.0)

    def test_profiles_only_live_prefixes(self, monkeypatch):
        """On ``opp``'s sweep lattice under Uniform(0.3, 1) each profiled
        price axis is a prefix of its tier's axis that stops at or below
        0.7 U, above which no price sells at any node."""
        from prompt_pricing import evaluation

        low, high, axis_low, axis_high, nodes, weights = _trim_case("sweep-501")
        profiled, seam = [], evaluation._count_profile

        def counted(utility, prices, eps, steps):
            profiled.append((utility, prices))
            return seam(utility, prices, eps, steps)

        monkeypatch.setattr(evaluation, "_count_profile", counted)
        evaluation._pair_lattice_payoffs(low, high, axis_low, axis_high, nodes, weights)
        axes = {low.utility: axis_low, high.utility: axis_high}
        assert profiled
        for utility, prices in profiled:
            assert np.array_equal(prices, axes[utility][:len(prices)])
            assert prices[-1] <= 0.7 * utility < axes[utility][-1]


PROFILE_DISTS = {"uniform": U01, "uniform-0.3": PRUNING_DISTS[0], "tabulated": PRUNING_DISTS[1]}
# the fig7 tiers' utilities (ml; fig7a's and fig7b's mh) and two drawn at random
PROFILE_UTILITIES = [1.0, 1.8, 1.5] + np.random.default_rng(7).uniform(0.05, 20.0, 2).tolist()


class TestCountProfile:
    """``_count_profile`` runs the count kernel only at the two ends of an
    ascending price axis and reads every other count off the steps
    between them.  Every count and user payoff must equal, bit for bit,
    the kernel and the payoff formula run at that cell."""

    SIZES = (1, 33, 250, 400, 491)

    @staticmethod
    def axis(utility, nodes, size, rng):
        """``size`` ascending prices.  Past one price: the gains of prompts
        1-6 at eight nodes, each a price the kernel's comparison meets
        exactly; the tangency prices ``U * _TOPS[k]``; U and a price above
        it; three duplicates; then random prices up to 1.2 U."""
        from prompt_pricing.evaluation import _TOPS

        tangency = utility * _TOPS[[1, 2, 5, 20]]
        if size == 1:
            return tangency[:1]
        at = rng.choice(len(nodes), 8, replace=False)
        k = rng.integers(1, 7, 8).astype(float)
        gains = nodes[at] ** (k - 1.0) * (1.0 - nodes[at]) * utility  # the kernel's operand order
        special = np.concatenate([gains, tangency, [utility, 1.3 * utility]])
        fill = utility * rng.uniform(0.002, 1.2, size)
        return np.sort(np.concatenate([special, special[:3], fill])[:size])

    @pytest.mark.parametrize("utility", PROFILE_UTILITIES)
    @pytest.mark.parametrize("dist", PROFILE_DISTS.values(), ids=PROFILE_DISTS)
    def test_equals_per_cell_kernel(self, dist, utility):
        from prompt_pricing.evaluation import _count_profile, _count_steps

        def profile(prices):
            return _count_profile(utility, prices, nodes, _count_steps(utility, prices, nodes))

        rng = np.random.default_rng(20240811)
        nodes, _ = dist.quadrature(QuadratureConfig(1001))
        nodes = nodes[rng.permutation(len(nodes))]
        for size in self.SIZES:
            prices = self.axis(utility, nodes, size, rng)
            assert size == 1 or len(np.unique(prices)) < size
            counts, pays = profile(prices)
            want_counts, want_pays = per_cell_profile(utility, prices, nodes)
            assert counts.shape == pays.shape == (len(nodes), size)
            assert np.array_equal(counts, want_counts)
            assert np.array_equal(pays, want_pays)
        # axes with no count step: one price three times, and prices nobody pays
        for prices in (np.full(3, 0.3 * utility), np.linspace(1.0, 2.0, 5) * utility):
            got = profile(prices)
            for a, b in zip(got, per_cell_profile(utility, prices, nodes)):
                assert a.shape == b.shape and np.array_equal(a, b)

    def test_lattice_skips_only_nodes_where_nothing_sells(self):
        """Above eps = 0.7 neither tier's cheapest price, 0.3 U, sells.  Those
        nodes change no lattice cell, bit for bit, and the cells match the
        dense comparison.  Both axes reach past the tier's utility, so their
        dearest prices sell at no node."""
        from prompt_pricing.evaluation import _pair_lattice_payoffs

        low, high = PAIR.require_pair()
        nodes, weights = UniformAmbiguity(0.3, 1.0).quadrature(QuadratureConfig(301))
        order = np.random.default_rng(20240811).permutation(len(nodes))
        nodes, weights = nodes[order], weights[order]
        axis_low, axis_high = (np.linspace(0.3, 1.2, 40) * m.utility for m in (low, high))
        got = _pair_lattice_payoffs(low, high, axis_low, axis_high, nodes, weights)
        sells = (1.0 - nodes) * low.utility >= axis_low[0]
        assert 0 < sells.sum() < len(nodes)
        assert np.array_equal(got, _pair_lattice_payoffs(
            low, high, axis_low, axis_high, nodes[sells], weights[sells]))
        want = dense_pair_lattice(low, high, axis_low, axis_high, nodes, weights)
        assert np.all(np.abs(got - want) <= 1e-12 * high.utility)

    @pytest.mark.parametrize("shift", [1.0, -1.0], ids=["one-above", "one-below"])
    def test_steps_that_disagree_with_the_kernel_raise(self, shift, monkeypatch):
        """Kernel counts one too high (or one too low) at both axis ends put
        a step before the first price (or past the last); the step list
        raises instead of miscounting."""
        from prompt_pricing import evaluation

        kernel = evaluation._counts_vec
        monkeypatch.setattr(evaluation, "_counts_vec",
                            lambda u, p, e: np.maximum(kernel(u, p, e) + shift, 0.0))
        nodes, _ = U01.quadrature(QuadratureConfig(101))
        with pytest.raises(PromptPricingError, match="count steps"):
            evaluation._count_steps(1.0, np.linspace(0.05, 0.5, 10), nodes)


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
        # a search that re-scored only three rows either side of the best
        # row of a cheaper sweep once returned rows 21797 (lo = 0) and
        # 8183 (lo = 0.15) here, while rows 21798 and 8182 paid more
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

    def test_cost_based_markup_grid_is_capped(self):
        """A cost of 5e-324 makes max U / C infinite; the markup grid's size
        is checked before ``math.floor`` or numpy sees it."""
        models = ModelSet([GaiModel("ml", 1.0, 5e-324), GaiModel("mh", 1.8, 0.04)])
        with pytest.raises(DegenerateCostBase, match=r"more than 1,000,000 markups; "
                                                     r"every cost must be above 0\.0018 "):
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


FAMILY_SETS = {
    "fig7a": PAIR,
    "fig7b": ModelSet([GaiModel("ml", 1.0, 0.02), GaiModel("mh", 1.5, 0.06)]),
    "one": ModelSet([GaiModel("m", 1.0, 0.2)]),
    # b and c share a utility, so their payoff ties go to b, the smaller id
    "three": ModelSet([GaiModel("a", 1.0, 0.02), GaiModel("b", 1.5, 0.03),
                       GaiModel("c", 1.5, 0.05)]),
}
FAMILY_DISTS = {"uniform": U01, "tabulated": PRUNING_DISTS[1]}
FAMILY_CASES = [(m, d, k) for m in FAMILY_SETS for d in FAMILY_DISTS
                for k in ("utility", "cost")]
FAMILY_IDS = ["-".join(case) for case in FAMILY_CASES]


def _family(models, kind):
    """The benchmark mechanisms' rays, as their docstrings define them: the
    ``direction`` and the ascending ``factors`` of the prices
    ``factors[i] * direction``."""
    if kind == "utility":
        return np.array([m.utility for m in models]), np.arange(1, 1000) / 1000.0
    costs = np.array([m.cost for m in models])
    top = int(math.floor(max(m.utility for m in models) / costs.min() / 1e-3))
    return costs, 1.0 + np.arange(top + 1) * 1e-3


def _family_matrix(models, kind):
    """The mechanism's prices, one row per factor."""
    direction, factors = _family(models, kind)
    return factors[:, None] * direction


@functools.lru_cache(maxsize=None)
def _evaluated_family(set_name, dist_name, kind, nodes, stride=1):
    """Every ``stride``-th row of a family by the schedule evaluator, and
    every row by the family scorer."""
    from prompt_pricing.evaluation import _family_payoffs, _family_volumes

    models = FAMILY_SETS[set_name]
    nodes, weights = FAMILY_DISTS[dist_name].quadrature(QuadratureConfig(nodes))
    want, _ = _family_volumes(models, _family_matrix(models, kind)[::stride], nodes, weights)
    return want, _family_payoffs(models, 0.0, *_family(models, kind), nodes, weights)[1]


class TestFamilyScorer:
    """The benchmark mechanisms score whole families by count steps per node
    (``_family_payoffs``); every row must pay what the schedule evaluator
    says it pays."""

    @pytest.mark.parametrize("set_name,dist_name,kind", FAMILY_CASES, ids=FAMILY_IDS)
    def test_every_row_matches_schedule_evaluation(self, set_name, dist_name, kind):
        want, got = _evaluated_family(set_name, dist_name, kind, 301)
        assert np.all(np.abs(got - want) <= 1e-11 * FAMILY_SETS[set_name].high.utility)

    @pytest.mark.parametrize("set_name,dist_name,kind", FAMILY_CASES, ids=FAMILY_IDS)
    def test_rows_match_at_full_resolution(self, set_name, dist_name, kind):
        # the schedule evaluator takes about 7 s for a 90,001-row family at
        # 2001 nodes, so the larger cost families are checked on every 25th row
        stride = 25 if kind == "cost" and set_name != "one" else 1
        want, got = _evaluated_family(set_name, dist_name, kind, 2001, stride)
        assert np.all(np.abs(got[::stride] - want)
                      <= 1e-11 * FAMILY_SETS[set_name].high.utility)

    @pytest.mark.parametrize("set_name,dist_name,kind", FAMILY_CASES, ids=FAMILY_IDS)
    def test_mechanism_returns_the_top_row(self, set_name, dist_name, kind):
        """The answer is the first row that one-row evaluations, the route of
        platform_payoff, rank highest.  The evaluator, run on the whole
        family at once, scores every row exactly as a one-row call does, so
        the rows that can rank first are among those it puts within 1e-9 of
        the top utility of its best."""
        from prompt_pricing.evaluation import _family_volumes

        models = FAMILY_SETS[set_name]
        family = _family_matrix(models, kind)
        dist = FAMILY_DISTS[dist_name]
        quad = QuadratureConfig(301)
        nodes, weights = dist.quadrature(quad)
        batch, _ = _evaluated_family(set_name, dist_name, kind, 301)
        rows = np.flatnonzero(batch >= batch.max() - 1e-9 * models.high.utility)
        one_row = [_family_volumes(models, family[i:i + 1], nodes, weights)[0][0] for i in rows]
        top = rows[int(np.argmax(one_row))]
        solver = utility_based_pricing if kind == "utility" else cost_based_pricing
        out = solver(models, dist, quad)
        assert [out.schedule.price_for(m) for m in models] == list(family[top])
        assert out.platform_payoff == max(one_row)

    def test_payoff_tie_goes_to_the_higher_utility(self):
        """At eps = 1/2 and row 2, a user pays 0.5 either way: three prompts
        of model a or two of model b (all values exact in binary).  The
        stage-2 rule gives the user to b."""
        from prompt_pricing.evaluation import _family_payoffs, _family_volumes

        models = ModelSet([GaiModel("a", 1.0, 0.0625), GaiModel("b", 2.0, 0.25)])
        direction, factors = np.array([0.125, 0.5]), np.arange(6, 11) / 8.0
        nodes, weights = UniformAmbiguity(0.125, 0.875).quadrature(QuadratureConfig(3))
        assert nodes.tolist() == [0.25, 0.5, 0.75]
        tied = PriceSchedule({"a": 0.125, "b": 0.5})
        assert user_payoff(models["a"], 0.125, 0.5, 3) == user_payoff(models["b"], 0.5, 0.5, 2)
        assert select_model(models, tied, 0.5).selected_model == "b"
        family, got = _family_payoffs(models, 0.0, direction, factors, nodes, weights)
        for row, pay in zip(family, got):
            want, _ = _scalar_route(models, row, nodes, weights)
            assert abs(pay - want) <= 1e-12
        assert np.all(np.abs(got - _family_volumes(models, family, nodes, weights)[0]) <= 1e-12)

    @pytest.mark.parametrize("kind", ["utility", "cost"])
    @pytest.mark.parametrize("dist", [U01, UniformAmbiguity(0.6, 1.0), PRUNING_DISTS[1]],
                             ids=["uniform", "uniform-0.6", "tabulated"])
    @pytest.mark.parametrize("set_name", ["fig7a", "fig7b", "three"])
    def test_rows_past_the_last_buyer_score_zero(self, set_name, dist, kind):
        """A row that prices every model above ``(1 - min node) * U``, the
        largest gain of its first prompt, sells to no one, so it scores
        exactly 0, with no rounding residue from the difference arrays (the
        scorer's live-row cut)."""
        from prompt_pricing.evaluation import _family_payoffs

        models = FAMILY_SETS[set_name]
        nodes, weights = dist.quadrature(QuadratureConfig())
        family, payoffs = _family_payoffs(models, 0.0, *_family(models, kind), nodes, weights)
        dead = np.all(family > (1.0 - nodes.min()) * np.array([m.utility for m in models]), axis=1)
        assert dead.any() or kind == "utility"  # U(0, 1) leaves every utility row a buyer
        assert np.array_equal(payoffs[dead], np.zeros(dead.sum()))

    @staticmethod
    def lines(models):
        """Price lines ``(p0, d, t)``, ``d >= 0``, t in [0, 1] over 400 rows:
        one per model in which only that model's price moves (cost to 1.2
        U, the others held at 0.4 U), and three seeded diagonals with p0
        above zero, one of them with a zero direction for the first model."""
        t = np.linspace(0.0, 1.0, 400)
        utils = np.array([m.utility for m in models])
        costs = np.array([m.cost for m in models])
        rng = np.random.default_rng(20240919)
        out = []
        for j in range(len(models)):
            d = np.zeros(len(models))
            d[j] = 1.2 * utils[j] - costs[j]
            out.append((np.where(np.arange(len(models)) == j, costs, 0.4 * utils), d, t))
        for zero_first in (False, False, True):
            p0 = utils * rng.uniform(0.03, 0.3, len(models))
            d = utils * rng.uniform(0.0, 1.0, len(models))
            d[0] *= not zero_first
            out.append((p0, d, t))
        return out

    @pytest.mark.parametrize("dist_name", FAMILY_DISTS)
    @pytest.mark.parametrize("set_name", ["fig7a", "fig7b", "three"])
    def test_any_line_with_ascending_columns_matches_schedule_evaluation(self, set_name,
                                                                        dist_name):
        """The envelope argument needs only rows ``p0 + t * d`` with ``d >= 0``
        and ``t`` ascending: coordinate lines (every other column constant)
        and diagonals that miss the origin score as the schedule evaluator
        scores them."""
        from prompt_pricing.evaluation import _family_payoffs, _family_volumes

        models = FAMILY_SETS[set_name]
        nodes, weights = FAMILY_DISTS[dist_name].quadrature(QuadratureConfig(301))
        for origin, direction, t in self.lines(models):
            want, _ = _family_volumes(models, origin + t[:, None] * direction, nodes, weights)
            _, got = _family_payoffs(models, origin, direction, t, nodes, weights)
            assert np.all(np.abs(got - want) <= 1e-11 * models.high.utility)

    @pytest.mark.parametrize("set_name", ["fig7a", "three"])
    def test_family_is_the_line_bit_for_bit(self, set_name):
        """The returned rows are ``origin + factors * direction`` exactly, so
        the rows ``_best_outcome`` re-scores are the very rows that were
        ranked: the mechanisms' rays (origin 0) and every test line."""
        from prompt_pricing.evaluation import _family_payoffs

        models = FAMILY_SETS[set_name]
        nodes, weights = U01.quadrature(QuadratureConfig(101))
        lines = [(0.0, *_family(models, kind)) for kind in ("utility", "cost")]
        for origin, direction, factors in lines + self.lines(models):
            family, _ = _family_payoffs(models, origin, direction, factors, nodes, weights)
            assert np.array_equal(family, origin + factors[:, None] * direction)

    @pytest.mark.parametrize("direction,factors", [
        ([0.5, -0.1], [0.2, 0.3, 0.4]),
        ([0.5, 0.9], [0.2, 0.4, 0.3]),
        ([0.5, 0.9, 1.0], [0.2, 0.3, 0.4]),
    ], ids=["negative-direction", "descending-factors", "wrong-length"])
    def test_line_that_does_not_ascend_raises(self, direction, factors):
        """A price that falls anywhere along the line breaks the envelope
        argument, and a direction must give one price per model."""
        from prompt_pricing.evaluation import _family_payoffs

        nodes, weights = U01.quadrature(QuadratureConfig(101))
        with pytest.raises(ValueError, match="ascend"):
            _family_payoffs(FAMILY_SETS["fig7a"], 0.0, np.array(direction), np.array(factors),
                            nodes, weights)


def _count_calls(monkeypatch, module, name):
    """Replace ``module.name`` by a wrapper that records, per call, the rows
    of its price matrix (the second argument)."""
    calls = []
    inner = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(len(args[1]))
        return inner(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


class TestRowIndependence:
    """A schedule pays the same alone or in a batch: every row of a
    ``_family_volumes`` call equals a one-row call of it, bit for bit."""

    @pytest.mark.parametrize("dist_name", FAMILY_DISTS)
    @pytest.mark.parametrize("set_name", ["fig7a", "three"])
    def test_batch_rows_equal_one_row_calls(self, set_name, dist_name):
        from prompt_pricing.evaluation import _CHUNK_ELEMENTS, _family_volumes

        models = FAMILY_SETS[set_name]
        nodes, weights = FAMILY_DISTS[dist_name].quadrature(QuadratureConfig())
        chunk = max(1, _CHUNK_ELEMENTS // len(nodes))  # rows per chunk
        utils = np.array([m.utility for m in models])
        rng = np.random.default_rng(20240811)
        rows = rng.uniform(0.02, 1.3, (3 * chunk + 8, len(models))) * utils
        rows[::4] = 1.5 * utils  # above every utility: sells nowhere
        rows[2 * chunk:3 * chunk] = 1.5 * utils  # a whole chunk that sells nowhere
        payoffs, volumes = _family_volumes(models, rows, nodes, weights)
        assert len(rows) // 3 < np.count_nonzero(payoffs) < len(rows) - chunk
        for row, pay, vol in zip(rows, payoffs, volumes):
            one_pay, one_vol = _family_volumes(models, row[None, :], nodes, weights)
            assert pay == one_pay[0]
            assert np.array_equal(vol, one_vol[0])

    @pytest.mark.parametrize("columns", [1, 3])
    def test_price_columns_must_match_the_model_set(self, columns):
        from prompt_pricing.evaluation import _family_volumes

        nodes, weights = U01.quadrature(FAST)
        with pytest.raises(ValueError, match="price matrix columns must match the model set"):
            _family_volumes(PAIR, np.full((2, columns), 0.5), nodes, weights)

    def test_grid_oracle_tie_is_scored_in_one_batch(self, monkeypatch):
        """fig7a under Uniform(0.6, 1) at 2001 nodes: 370 lattice cells tie
        the best.  The oracle re-scores them in one call, which also gives
        the answer's payoff and volumes, and returns what scoring each alone
        and keeping the first strictly better gives."""
        from prompt_pricing import evaluation
        from prompt_pricing.evaluation import _family_volumes, _near_best, _pair_lattice_payoffs

        dist, grid_n = UniformAmbiguity(0.6, 1.0), 400
        nodes, weights = dist.quadrature(QuadratureConfig())
        low, high = PAIR.require_pair()
        axes = [m.cost + (m.utility - m.cost) * (np.arange(1, grid_n + 1) / grid_n)
                for m in (low, high)]
        lattice = _pair_lattice_payoffs(low, high, axes[0], axes[1], nodes, weights).ravel()
        cells = np.column_stack([np.repeat(axes[0], grid_n), np.tile(axes[1], grid_n)])
        best, best_pay = None, -np.inf
        for i in np.flatnonzero(_near_best(PAIR, lattice)):
            pay = _family_volumes(PAIR, cells[i:i + 1], nodes, weights)[0][0]
            if pay > best_pay:
                best, best_pay = cells[i], pay

        calls = _count_calls(monkeypatch, evaluation, "_family_volumes")
        out = grid_oracle(PAIR, dist, grid_n)
        assert len(calls) == 1
        assert [out.schedule.price_for(m) for m in PAIR] == list(best)
        assert out.platform_payoff == best_pay

    def test_no_sale_family_is_scored_in_one_batch(self, monkeypatch):
        from prompt_pricing import evaluation

        models = ModelSet([GaiModel("ml", 1.0, 1.5), GaiModel("mh", 1.8, 2.2)])
        calls = _count_calls(monkeypatch, evaluation, "_family_volumes")
        out = cost_based_pricing(models, U01)
        assert len(calls) == 1
        assert out.platform_payoff == 0.0

    def test_utility_family_is_rescored_in_one_batch(self, monkeypatch):
        """The near-best rows are re-scored in one call, and the answer is
        read off that call: fig7a's utility family under Uniform(0, 1)."""
        from prompt_pricing import evaluation

        calls = _count_calls(monkeypatch, evaluation, "_family_volumes")
        out = utility_based_pricing(PAIR, U01)
        assert len(calls) == 1
        alone = platform_payoff(PAIR, out.schedule, U01)
        assert out.platform_payoff == alone.platform_payoff
        assert out.prompt_volume == alone.prompt_volume


class TestBestOutcome:
    """Every quadrature solver finishes through ``_best_outcome``."""

    def test_rescored_best_wins_and_far_candidates_are_not_scored(self, monkeypatch):
        """Candidate 0 has the best search score but pays less than candidate 1,
        which is within ``_RESCORE_TOL`` of the top utility of it.  Candidate 2
        pays the most of all, but its score is further below, so it is never
        evaluated."""
        from prompt_pricing import evaluation
        from prompt_pricing.evaluation import _RESCORE_TOL, _best_outcome

        nodes, weights = U01.quadrature(FAST)
        schedules = np.array([[0.3, 0.6], [0.35, 0.7], [0.4, 0.8]])
        pays = [platform_payoff(PAIR, PriceSchedule({"ml": lo, "mh": hi}), U01, FAST)
                for lo, hi in schedules]
        assert pays[0].platform_payoff < pays[1].platform_payoff < pays[2].platform_payoff
        tol = _RESCORE_TOL * PAIR.high.utility
        scores = np.array([1.0, 1.0 - tol / 2, 1.0 - 2 * tol])

        seen, inner = [], evaluation._family_volumes

        def recording(models, price_matrix, *rest):
            seen.extend(np.asarray(price_matrix).tolist())
            return inner(models, price_matrix, *rest)

        monkeypatch.setattr(evaluation, "_family_volumes", recording)
        out = _best_outcome(PAIR, schedules, scores, nodes, weights, method="Test")
        assert schedules[2].tolist() not in seen
        assert out.schedule == pays[1].schedule
        assert out.platform_payoff == pays[1].platform_payoff
        assert out.prompt_volume == pays[1].prompt_volume
        assert out.method == "Test"
