"""Closed-form pricing for a shared ambiguity level, certified by a price-grid oracle."""

import numpy as np
import pytest

from prompt_pricing import (
    UNBOUNDED,
    CostShape,
    CurvePoint,
    GaiModel,
    InvalidPrice,
    ModelSet,
    PromptPricingError,
    classify_cost_shape,
    homogeneous_payoff_curve,
    induced_prompt_count,
    optimal_homogeneous_price,
    optimal_prompt_count,
)
from prompt_pricing.homogeneous import _INDUCED_CAP
from prompt_pricing.evaluation import _counts_vec

from _helpers import is_non_decreasing, is_non_increasing, is_unimodal, shape_name


def price_grid_payoff(model: GaiModel, eps: float, step: float = 1e-4) -> float:
    """Independent oracle: best (p - C) * n*(p) over a dense price grid."""
    prices = np.arange(max(model.cost, step), model.utility + step / 2, step)
    counts = _counts_vec(model.utility, prices[:, None], np.array([eps]))[:, 0]
    return float(np.max((prices - model.cost) * counts))


class TestInducedCount:
    def test_cost_above_reach_means_no_trade(self):
        assert induced_prompt_count(GaiModel("m", 1.0, 1.2), 0.5) == 0

    def test_low_cost_single_prompt(self):
        # scan: k=0 has marginal 1 >= 0.2; k=1 has 2*0.5 - 1 = 0 < 0.2
        assert induced_prompt_count(GaiModel("m", 1.0, 0.1), 0.5) == 1

    def test_scan_matches_enumeration(self):
        # independent check: the scan result maximizes (price_k - C) * k
        for cost, eps in [(0.02, 0.9), (0.05, 0.8), (0.1, 0.7), (0.3, 0.6)]:
            model = GaiModel("m", 1.0, cost)
            k = induced_prompt_count(model, eps)
            def payoff_at(j):
                return (eps ** (j - 1) * (1 - eps) * 1.0 - cost) * j if j else 0.0
            best_j = max(range(0, 60), key=payoff_at)
            assert payoff_at(k) == pytest.approx(payoff_at(best_j), abs=1e-12)

    def test_carried_power_equals_the_two_power_scan(self):
        """The scan carries ``eps ** (k-1)`` from one step to the next.  It
        must return the count of the scan that computes both powers at every
        step, at random (U, C, eps): eps uniform, log-uniform down to 1e-300
        and up to 1 - 1e-5, zero costs and costs above utility."""
        def two_power_scan(model, eps):
            threshold = model.cost / ((1.0 - eps) * model.utility)
            for k in range(_INDUCED_CAP):
                lhs = (k + 1) * eps ** k - k * eps ** (k - 1) if k >= 1 else 1.0
                if lhs < threshold:
                    return k
            return _INDUCED_CAP

        rng = np.random.default_rng(20240811)
        bands = [rng.uniform(0.0, 1.0, 10000), 10.0 ** -rng.uniform(0.0, 300.0, 10000),
                 1.0 - 10.0 ** -rng.uniform(1.0, 5.0, 400)]
        for eps in bands:
            n = len(eps)
            utility = rng.choice([1.0, 1.8, 0.05, 20.0], n) * rng.uniform(0.5, 2.0, n)
            cost = utility * np.where(rng.random(n) < 0.2, 0.0, rng.uniform(0.0, 1.5, n))
            for e, u, c in zip(eps.tolist(), utility.tolist(), cost.tolist()):
                if 0.0 < e < 1.0:
                    model = GaiModel("m", u, c)
                    assert induced_prompt_count(model, e) == two_power_scan(model, e)

    def test_zero_cost_grows_with_ambiguity(self):
        model = GaiModel("m", 1.0, 0.0)
        counts = [induced_prompt_count(model, e) for e in np.linspace(0.05, 0.95, 50)]
        assert is_non_decreasing(counts)
        assert counts[-1] > counts[0]

    def test_zero_margin_knife_edge(self):
        # cost equal to the highest acceptable marginal price: no profit exists,
        # matching the price-grid oracle
        model = GaiModel("m", 1.0, 0.1)
        sol = optimal_homogeneous_price(ModelSet([model]), 0.9)
        assert sol.platform_payoff == pytest.approx(0.0, abs=1e-12)
        assert price_grid_payoff(model, 0.9) == pytest.approx(0.0, abs=1e-9)


class TestOptimalPrice:
    def test_single_model_example(self):
        sol = optimal_homogeneous_price(ModelSet([GaiModel("m", 1.0, 0.1)]), 0.5)
        assert sol.schedule.price_for("m") == pytest.approx(0.5, abs=1e-12)
        assert sol.induced_count == 1
        assert sol.platform_payoff == pytest.approx(0.4, abs=1e-12)
        assert sol.platform_payoff == pytest.approx(
            price_grid_payoff(GaiModel("m", 1.0, 0.1), 0.5), abs=1e-3)

    def test_unprofitable_cost(self):
        sol = optimal_homogeneous_price(ModelSet([GaiModel("m", 1.0, 1.5)]), 0.5)
        assert sol.induced_count == 0
        assert sol.served_model is None
        assert sol.platform_payoff == 0.0

    def test_two_model_selection(self):
        models = ModelSet([GaiModel("ml", 1.0, 0.02), GaiModel("mh", 1.8, 0.04)])
        sol = optimal_homogeneous_price(models, 0.5)
        assert sol.served_model == "mh"
        # the winning candidate beats the loser's own price-grid optimum
        low_best = price_grid_payoff(GaiModel("ml", 1.0, 0.02), 0.5)
        high_best = price_grid_payoff(GaiModel("mh", 1.8, 0.04), 0.5)
        assert high_best > low_best
        assert sol.platform_payoff == pytest.approx(high_best, abs=1e-3)

    def test_non_served_models_priced_out(self):
        models = ModelSet([GaiModel("ml", 1.0, 0.02), GaiModel("mh", 1.8, 0.04)])
        sol = optimal_homogeneous_price(models, 0.5)
        assert sol.schedule.price_for("ml") == 1.0
        for eps in (0.05, 0.3, 0.5, 0.8, 0.95):
            assert optimal_prompt_count(GaiModel("ml", 1.0, 0.02), 1.0, eps) == 0

    def test_payoff_matches_grid_oracle_across_costs_and_eps(self):
        for cost in (0.02, 0.1, 0.3, 0.6):
            model = GaiModel("m", 1.0, cost)
            for eps in np.arange(0.1, 0.95, 0.1):
                sol = optimal_homogeneous_price(ModelSet([model]), float(eps))
                oracle = price_grid_payoff(model, float(eps))
                assert sol.platform_payoff == pytest.approx(oracle, abs=1e-3)

    def test_self_consistency_count_at_quoted_price(self):
        """The quoted price induces exactly the planned count, bit for bit."""
        for cost in (0.0, 0.05, 0.1, 0.3):
            model = GaiModel("m", 1.0, cost)
            for eps in np.linspace(0.01, 0.99, 197):
                sol = optimal_homogeneous_price(ModelSet([model]), float(eps))
                if sol.induced_count >= 1:
                    n = optimal_prompt_count(model, sol.schedule.price_for("m"), float(eps))
                    assert n == sol.induced_count


class TestCostShape:
    @pytest.mark.parametrize("cost,expected", [
        (0.0, CostShape.INCREASING),
        (0.1, CostShape.INVERSE_U_SHAPED),
        (0.125, CostShape.INVERSE_U_SHAPED),
        (0.5, CostShape.DECREASING),
        (1.0, CostShape.ALWAYS_ZERO),
    ])
    def test_bands(self, cost, expected):
        assert classify_cost_shape(GaiModel("m", 1.0, cost)) is expected

    @pytest.mark.parametrize("cost", [0.0, 0.01, 0.124, 0.125, 0.126, 0.5])
    def test_band_matches_computed_count_shape(self, cost):
        """The band from C/U alone names the course the served count takes
        over a 1,999-point eps grid, on both sides of the U/8 edge."""
        model = GaiModel("m", 1.0, cost)
        grid = [(j + 1) / 2000.0 for j in range(1999)]
        counts = [p.prompt_count for p in homogeneous_payoff_curve(ModelSet([model]), grid)]
        assert classify_cost_shape(model).name == shape_name(counts)


class TestPayoffCurve:
    GRID = [float(e) for e in np.linspace(0.005, 0.995, 199)]

    def test_all_zero_when_cost_exceeds_utility(self):
        points = homogeneous_payoff_curve(ModelSet([GaiModel("m", 1.0, 1.2)]), self.GRID)
        assert all(p.payoff == 0.0 and p.prompt_count == 0 for p in points)

    def test_payoff_never_rises_with_ambiguity(self):
        for cost in (0.02, 0.1, 0.3):
            points = homogeneous_payoff_curve(ModelSet([GaiModel("m", 1.0, cost)]), self.GRID)
            assert is_non_increasing([p.payoff for p in points], slack=1e-12)

    def test_count_shapes_follow_cost_classification(self):
        cases = {
            0.0: is_non_decreasing,
            0.05: is_unimodal,
            0.1: is_unimodal,
            0.3: is_non_increasing,
        }
        for cost, predicate in cases.items():
            points = homogeneous_payoff_curve(ModelSet([GaiModel("m", 1.0, cost)]), self.GRID)
            assert predicate([p.prompt_count for p in points]), f"cost={cost}"

    def test_price_turn_point(self):
        # with cost at a tenth of utility the optimal price bottoms out near 0.86
        points = homogeneous_payoff_curve(ModelSet([GaiModel("m", 1.0, 0.1)]), self.GRID)
        served = [p for p in points if p.prompt_count >= 1]
        prices = [p.price for p in served]
        turn = next(i for i in range(1, len(prices)) if prices[i] > prices[i - 1])
        assert served[turn].eps == pytest.approx(0.86, abs=0.02)

    def test_rejects_unsorted_grid(self):
        from prompt_pricing import InvalidAmbiguity
        with pytest.raises(InvalidAmbiguity):
            homogeneous_payoff_curve(ModelSet([GaiModel("m", 1.0, 0.1)]), [0.5, 0.4])


def public_point(models: ModelSet, eps: float) -> CurvePoint:
    """One curve point from the public per-eps route: the closed-form
    solution, then the user's count at its quoted price."""
    sol = optimal_homogeneous_price(models, eps)
    price = sol.schedule.price_for(sol.best_model)
    if sol.served_model is None:
        return CurvePoint(eps, price, 0, 0.0, sol.induced_count, None)
    n = optimal_prompt_count(models[sol.best_model], price, eps)
    count = sol.induced_count if n is UNBOUNDED else n
    return CurvePoint(eps, price, count, sol.platform_payoff, sol.induced_count, sol.served_model)


class TestCurveMatchesPublicRoute:
    GRID = [float(e) for e in np.linspace(0.001, 0.9995, 400)]

    @pytest.mark.parametrize("catalogue", [
        [GaiModel("m", 1.0, 0.0)],
        [GaiModel("m", 1.0, 1.2)],
        [GaiModel("ml", 1.0, 0.02), GaiModel("mh", 1.8, 0.3)],
    ], ids=["zero-cost", "cost-above-utility", "two-model"])
    def test_every_field_equals_public_route(self, catalogue):
        models = ModelSet(catalogue)
        points = homogeneous_payoff_curve(models, self.GRID)
        assert points == [public_point(models, eps) for eps in self.GRID]

    def test_two_model_curve_serves_both_and_nobody(self):
        points = homogeneous_payoff_curve(
            ModelSet([GaiModel("ml", 1.0, 0.02), GaiModel("mh", 1.8, 0.3)]), self.GRID)
        assert {p.served_model for p in points} == {"ml", "mh", None}

    def test_unbounded_user_count_reports_induced_count(self):
        """A subnormal utility at zero cost quotes prices that round to 0,
        where the user's count is unbounded: the point reports the induced count."""
        models = ModelSet([GaiModel("m", 1e-323, 0.0)])
        grid = [float(e) for e in np.linspace(0.5, 0.6, 51)]
        points = homogeneous_payoff_curve(models, grid)
        assert points == [public_point(models, eps) for eps in grid]
        free = [p for p in points if p.price == 0.0]
        assert free and all(p.prompt_count == p.induced_count >= 1 for p in free)
        assert optimal_prompt_count(models["m"], 0.0, free[0].eps) is UNBOUNDED

    def test_overflowing_no_trade_price_raises_like_public_route(self):
        # no trade at eps = 1e-308: the quoted price (1-eps)/eps * U overflows to inf
        models = ModelSet([GaiModel("m", 10.0, 20.0)])
        with pytest.raises(InvalidPrice) as public:
            optimal_homogeneous_price(models, 1e-308)
        with pytest.raises(InvalidPrice) as curve:
            homogeneous_payoff_curve(models, [1e-308])
        assert str(curve.value) == str(public.value)

    def test_infinite_no_trade_price_does_not_keep_the_lead(self):
        """Model a trades nothing at eps = 1e-308 and its quoted price rounds
        to inf; it scores 0, not inf * 0 = nan, so model b is served."""
        models = ModelSet([GaiModel("a", 10.0, 20.0), GaiModel("b", 20.0, 0.1)])
        sol = optimal_homogeneous_price(models, 1e-308)
        assert (sol.served_model, sol.induced_count) == ("b", 1)
        assert sol.platform_payoff == pytest.approx(19.9, rel=1e-15)
        assert sol.schedule.prices == {"a": 10.0, "b": 20.0}
        point, = homogeneous_payoff_curve(models, [1e-308])
        assert point == public_point(models, 1e-308)


class TestFloatRange:
    """Models the scenario loader accepts whose prices leave float range
    raise PromptPricingError, never a bare arithmetic error."""

    TINY = ModelSet([GaiModel("m", 1e-323, 0.0)])

    def test_overflowing_no_trade_price(self):
        # no trade: the quoted price (1-eps)/eps * U overflows at eps = 1e-310
        models = ModelSet([GaiModel("m", 1.0, 2.0)])
        for solve in (lambda: optimal_homogeneous_price(models, 1e-310),
                      lambda: homogeneous_payoff_curve(models, [1e-310])):
            with pytest.raises(PromptPricingError, match="no-trade price overflows"):
                solve()

    @pytest.mark.parametrize("eps", [0.1, 0.2, 0.3, 0.4])
    def test_subnormal_price_ratio(self, eps):
        # the quoted price is subnormal and the user's price ratio rounds to 0
        with pytest.raises(PromptPricingError, match="underflows to 0"):
            homogeneous_payoff_curve(self.TINY, [eps])

    @pytest.mark.parametrize("eps", [0.8, 0.9])
    def test_first_prompt_gain_underflows(self, eps):
        for solve in (lambda: induced_prompt_count(self.TINY["m"], eps),
                      lambda: optimal_homogeneous_price(self.TINY, eps),
                      lambda: homogeneous_payoff_curve(self.TINY, [eps])):
            with pytest.raises(PromptPricingError, match=r"\(1-eps\)\*U underflows to 0"):
                solve()
