"""Stage-2 user strategy against brute-force enumeration."""

import math
import time
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from prompt_pricing import (
    UNBOUNDED,
    GaiModel,
    InvalidPrice,
    ModelSet,
    PriceSchedule,
    PromptPricingError,
    PromptShape,
    SchedulePriceMissing,
    classify_prompt_shape,
    optimal_prompt_count,
    optimal_user_payoff,
    prompt_upper_bound,
    select_model,
    user_payoff,
)
from prompt_pricing import evaluation
from prompt_pricing.evaluation import _counts_vec
from prompt_pricing.user_strategy import (
    _curve_top,
    _first_count,
    _prompt_count,
    marginal_expected_utility,
)

from _helpers import (
    boundary_tie_count,
    brute_force_count,
    brute_force_decision,
    is_non_increasing,
    is_unimodal,
    payoffs_at_counts,
    shape_name,
)

UNIT = GaiModel("m", 1.0)
TOP_NODE = 2000.5 / 2001  # the largest midpoint of a 2001-node rule on (0, 1)


class TestOptimalPromptCount:
    def test_price_above_ceiling(self):
        assert optimal_prompt_count(UNIT, 1.5, 0.5) == 0

    def test_indifference_boundary_buys_the_extra_prompt(self):
        # at price (1-eps)*U the user is indifferent between 0 and 1 and buys 1
        assert optimal_prompt_count(UNIT, 0.5, 0.5) == 1

    def test_interior_case_matches_brute_force(self):
        assert brute_force_count(UNIT, 0.1, 0.5) == 3
        assert optimal_prompt_count(UNIT, 0.1, 0.5) == 3

    def test_free_prompts_are_unbounded(self):
        assert optimal_prompt_count(UNIT, 0.0, 0.7) is UNBOUNDED

    def test_negative_price_rejected(self):
        with pytest.raises(InvalidPrice):
            optimal_prompt_count(UNIT, -0.1, 0.5)

    def test_unbounded_prints_as_its_name(self):
        assert repr(UNBOUNDED) == str(UNBOUNDED) == f"{UNBOUNDED}" == "Unbounded"

    def test_underflowing_price_ratio_raises(self):
        # eps * p / ((1-eps) * U) rounds to 0, so the logarithmic estimate has no value
        with pytest.raises(PromptPricingError, match="underflows to 0"):
            optimal_prompt_count(UNIT, 1e-323, 0.1)

    def test_optimality_on_a_dense_grid(self):
        """The count maximizes the payoff; at exact ties it is the larger optimum."""
        ties = 0
        for i in range(1, 120, 3):
            price = i / 100.0
            for j in range(1, 99, 2):
                eps = j / 100.0
                n = optimal_prompt_count(UNIT, price, eps)
                nb = brute_force_count(UNIT, price, eps)
                if n != nb:
                    ties += 1
                    assert user_payoff(UNIT, price, eps, n) == pytest.approx(
                        user_payoff(UNIT, price, eps, nb), abs=1e-12)
                    assert n == nb + 1
        # ties happen only where the grid lands exactly on an indifference
        # boundary (price/U == eps**(k-1) * (1-eps)); this grid has 17 such points
        assert ties <= 17

    def test_bound_dominates_optimum(self):
        for i in range(1, 120, 7):
            price = i / 100.0
            bound = prompt_upper_bound(UNIT, price)
            for j in range(1, 99, 4):
                n = optimal_prompt_count(UNIT, price, j / 100.0)
                assert n <= bound

    def test_monotone_in_price_and_utility(self):
        eps = 0.45
        counts = [optimal_prompt_count(UNIT, p, eps) for p in np.linspace(0.01, 1.1, 80)]
        assert is_non_increasing(counts)
        price = 0.15
        by_utility = [optimal_prompt_count(GaiModel("m", u), price, eps)
                      for u in np.linspace(0.3, 3.0, 60)]
        assert all(b >= a for a, b in zip(by_utility, by_utility[1:]))

    @given(st.floats(0.02, 1.3), st.floats(0.015, 0.985), st.floats(0.3, 2.5))
    @example(price=0.08, eps=0.2, utility=0.5)  # prompts 1 and 2 tie to within one ulp
    @settings(max_examples=300, deadline=None)
    def test_random_points_match_brute_force(self, price, eps, utility):
        model = GaiModel("m", utility)
        n = optimal_prompt_count(model, price, eps)
        nb = brute_force_count(model, price, eps)
        assert n == boundary_tie_count(model, price, eps, nb)
        pay = user_payoff(model, price, eps, n)
        for probe in (0, 1, n - 1, n + 1, n + 7):
            if probe >= 0:
                assert pay >= user_payoff(model, price, eps, probe) - 1e-12


def scan_counts(gains: np.ndarray, prices: np.ndarray) -> np.ndarray:
    """For each price, the largest n whose gain ``gains[n - 1]`` covers it, or
    0 if none does: every gain compared with every price, assuming nothing
    about the gains' order.  Float64 arrays subtract and compare exactly as
    Python floats do."""
    covers = gains[None, :] - prices[:, None] >= 0.0
    last = covers.shape[1] - np.argmax(covers[:, ::-1], axis=1)
    return np.where(covers.any(axis=1), last, 0)


class TestPromptCountCore:
    """``_prompt_count`` equals a plain scan of :func:`marginal_expected_utility`
    at the prices stage 1 quotes (each prompt's own gain), at their two float
    neighbours, and at random prices, from eps near 0 to eps near 1."""

    SCAN = 400  # prompts the scan looks at; every tested price exceeds the last gain
    QUOTED = 300  # prompts whose gains are quoted as prices
    EPS = {
        "near-0": [1e-9, 1e-4, 0.01, 0.05],
        "mid": [0.1, 0.3, 0.5, (math.sqrt(5.0) - 1.0) / 2.0, 0.9],
        "near-1": [1.0 - 10.0 ** -u for u in (3, 6, 9, 12)],
    }

    @pytest.mark.parametrize("band", sorted(EPS))
    def test_counts_equal_the_scan(self, band):
        rng = np.random.default_rng(sorted(self.EPS).index(band))
        for eps in self.EPS[band]:
            for utility in (1.0, 1.606, float(rng.uniform(0.1, 10.0))):
                gains = np.array([marginal_expected_utility(utility, eps, n)
                                  for n in range(1, self.SCAN + 1)])
                quoted = gains[:self.QUOTED].tolist()
                prices = quoted + [math.nextafter(g, 0.0) for g in quoted] \
                    + [math.nextafter(g, math.inf) for g in quoted]
                decades = min(math.log10(gains[0] / max(gains[self.QUOTED - 1], 1e-300)), 300.0)
                prices += (gains[0] * 10.0 ** -rng.uniform(-0.05, decades, 100)).tolist()
                # price 0 buys without bound, and a price whose ratio to the first
                # gain underflows raises (test_underflowing_price_ratio_raises)
                prices = np.array([p for p in prices
                                   if p > 0.0 and eps * p / ((1.0 - eps) * utility) > 0.0])
                assert (gains[-1] - prices < 0.0).all()
                expected = scan_counts(gains, prices)
                counts = [_prompt_count(utility, p, eps) for p in prices.tolist()]
                assert counts == expected.tolist(), (eps, utility)


class TestUserPayoff:
    def test_zero_prompts_zero_payoff(self):
        assert user_payoff(UNIT, 0.7, 0.3, 0) == 0.0

    def test_direct_evaluation(self):
        assert user_payoff(UNIT, 0.1, 0.5, 3) == pytest.approx((1 - 0.125) - 0.3, abs=1e-15)
        assert user_payoff(UNIT, 0.1, 0.5, 3) == pytest.approx(0.575, abs=1e-12)

    def test_negative_payoff_representable(self):
        got = user_payoff(GaiModel("m", 2.0), 0.5, 0.9, 1)
        assert got == pytest.approx((1 - 0.9) * 2 - 0.5, abs=1e-15)
        assert got == pytest.approx(-0.3, abs=1e-12)

    def test_unbounded_count_rejected(self):
        with pytest.raises(ValueError):
            user_payoff(UNIT, 0.1, 0.5, UNBOUNDED)


class TestPromptUpperBound:
    @pytest.mark.parametrize("price,expected", [(0.5, 1), (0.25, 2), (0.9, 1)])
    def test_scan_values(self, price, expected):
        assert prompt_upper_bound(UNIT, price) == expected

    def test_requires_positive_price(self):
        with pytest.raises(InvalidPrice):
            prompt_upper_bound(UNIT, 0.0)

    def test_matches_direct_ratio_scan(self):
        for price in (0.01, 0.04, 0.11, 0.33, 0.77):
            k = prompt_upper_bound(UNIT, price)
            assert k ** k / (k + 1) ** (k + 1) < price
            if k > 1:
                assert (k - 1) ** (k - 1) / k ** k >= price

    @staticmethod
    def scan(ratios):
        """The bound by the scan ``k = 1, 2, ...`` to the first ``k`` whose
        curve top is below the ratio, run once for all ratios: taken in
        descending order, each stops where the one before it stopped or
        later."""
        got, k = {}, 1
        for r in sorted(set(ratios), reverse=True):
            while _curve_top(k) >= r:
                k += 1
            got[r] = k
        return got

    def test_matches_the_scan(self):
        """3,000 log-uniform ratios in [1e-6, 1), every curve top
        ``_curve_top(k)`` for k < 3,000 (a ratio there sits exactly on the
        boundary) and both float neighbours of each."""
        tops = np.array([_curve_top(k) for k in range(1, 3000)])
        ratios = np.concatenate([
            10.0 ** np.random.default_rng(20240920).uniform(-6.0, 0.0, 3000),
            tops, np.nextafter(tops, 0.0), np.nextafter(tops, 1.0)]).tolist()
        want = self.scan(ratios)
        assert [prompt_upper_bound(UNIT, r) for r in ratios] == [want[r] for r in ratios]

    @pytest.mark.parametrize("ratio", [1e-12, 1e-15, 1e-18, 1e-20, 1e-100, 1e-300,
                                       2.2250738585072014e-308, 1e-310, 5e-324])
    def test_tiny_ratios_end_quickly(self, ratio):
        """The scan takes about ``1/(e*ratio)`` steps, and never ends at a
        ratio of 0; the bound returns a count that brackets the ratio, or
        raises, within a second."""
        start = time.perf_counter()
        try:
            k = prompt_upper_bound(UNIT, ratio)
        except PromptPricingError:
            k = None
        assert time.perf_counter() - start < 1.0
        if k is not None:
            assert _curve_top(k) < ratio <= _curve_top(k - 1)

    def test_ratio_that_underflows_raises(self):
        with pytest.raises(PromptPricingError, match="too small"):
            prompt_upper_bound(GaiModel("m", 1e300), 1e-300)

    @staticmethod
    def decimal_top(k):
        """``k**k / (k+1)**(k+1)`` to 60 digits."""
        with localcontext() as ctx:
            ctx.prec = 60
            k = Decimal(k)
            return (k * k.ln() - (k + 1) * (k + 1).ln()).exp()

    def decimal_bound(self, ratio):
        """The first k whose 60-digit curve top is below the ratio."""
        r, lo, k = Decimal(ratio), 0, 1
        while not self.decimal_top(k) < r:
            lo, k = k, 2 * k
        while k - lo > 1:
            mid = (lo + k) // 2
            lo, k = (lo, mid) if self.decimal_top(mid) < r else (mid, k)
        return k

    def test_brackets_the_ratio_under_a_decimal_curve_top(self):
        """From 1e-8 to 1e-15 the bound brackets the ratio under the
        60-digit curve top: ``top(k) < ratio <= top(k-1)``; at 1e-12 that
        is 367,879,441,171.  Below about 1e-16 neighbouring tops differ by less than an ulp, so
        there the count is within a relative 1e-15 of the decimal one."""
        assert prompt_upper_bound(UNIT, 1e-12) == 367_879_441_171
        for e in range(8, 19):
            for ratio in (10.0 ** -e, 1.2345 * 10.0 ** -e, 7.77 * 10.0 ** -e):
                k = prompt_upper_bound(UNIT, ratio)
                if e <= 15:
                    assert self.decimal_top(k) < Decimal(ratio) <= self.decimal_top(k - 1)
                else:
                    assert k == pytest.approx(self.decimal_bound(ratio), rel=1e-15)


class TestCurveTop:
    def test_within_three_ulp_of_the_exact_ratio(self):
        """Above k = 64 the top is computed in floats; it stays within 3
        ulp of the correctly rounded ``k**k / (k+1)**(k+1)``."""
        for k in range(65, 2001):
            want = k ** k / (k + 1) ** (k + 1)
            assert abs(_curve_top(k) - want) <= 3 * math.ulp(want), k

    def test_falls_with_the_count(self):
        """The bisection in ``prompt_upper_bound`` needs a falling top: it
        falls strictly from k to k + 1 at seeded k up to 1e15, and across
        seeded samples sorted up to 2**64."""
        rng = np.random.default_rng(20241020)
        near = sorted({int(x) for x in 10.0 ** rng.uniform(0.0, 15.0, 20000)})
        assert all(_curve_top(k + 1) < _curve_top(k) for k in near)
        far = sorted({int(x) for x in 2.0 ** rng.uniform(0.0, 64.0, 50000)} - {2 ** 64})
        tops = [_curve_top(k) for k in far]
        assert all(b < a for a, b in zip(tops, tops[1:]))


class TestFirstCount:
    @pytest.mark.parametrize("first", [1, 2, 3, 7, 8, 9, 1000, 2 ** 40 + 1, 2 ** 64])
    def test_finds_the_first_passing_count(self, first):
        assert _first_count(lambda k: k >= first, lambda: "never") == first

    def test_never_passing_raises_after_few_calls(self):
        """A test that never passes raises past 2**64 after at most 130
        calls, and the message is built once, at the raise."""
        calls, messages = [], []

        def never(k):
            calls.append(k)
            return False

        def what():
            messages.append(1)
            return "nothing passes"

        with pytest.raises(PromptPricingError, match="nothing passes: no prompt count up to 2"):
            _first_count(never, what)
        assert len(calls) <= 130
        assert len(messages) == 1


class TestPromptShape:
    @pytest.mark.parametrize("price,expected", [
        (0.0, PromptShape.ALWAYS_INFINITE),
        (0.2, PromptShape.INVERSE_U_SHAPED),
        (0.25, PromptShape.INVERSE_U_SHAPED),  # the quarter point belongs to the hump band
        (0.6, PromptShape.DECREASING),
        (1.0, PromptShape.ALWAYS_ZERO),
        (1.5, PromptShape.ALWAYS_ZERO),
    ])
    def test_bands(self, price, expected):
        assert classify_prompt_shape(UNIT, price) is expected

    @pytest.mark.parametrize("price", [-0.1, math.nan, math.inf])
    def test_bad_price_rejected(self, price):
        with pytest.raises(InvalidPrice) as exc:
            classify_prompt_shape(UNIT, price)
        assert str(exc.value) == f"price must be finite and >= 0, got {price}"

    @pytest.mark.parametrize("ratio", [0.01, 0.2, 0.249, 0.25, 0.251, 0.5])
    def test_band_matches_computed_count_shape(self, ratio):
        """The band from p/U alone names the course the optimal counts take
        over a 1,999-point eps grid, on both sides of the U/4 edge."""
        grid = [(j + 1) / 2000.0 for j in range(1999)]
        counts = [optimal_prompt_count(UNIT, ratio, e) for e in grid]
        assert classify_prompt_shape(UNIT, ratio).name == shape_name(counts)

    def test_shapes_realized_on_eps_grid(self):
        grid = [(j + 1) / 1000.0 for j in range(999)]
        for ratio in (0.05, 0.15, 0.25):
            counts = [optimal_prompt_count(UNIT, ratio, e) for e in grid]
            assert is_unimodal(counts)
        for ratio in (0.3, 0.6, 0.9):
            counts = [optimal_prompt_count(UNIT, ratio, e) for e in grid]
            assert is_non_increasing(counts)

    def test_payoff_falls_with_ambiguity(self):
        grid = [(j + 1) / 1000.0 for j in range(999)]
        models = ModelSet([UNIT])
        for ratio in (0.05, 0.15, 0.25, 0.3, 0.6, 0.9):
            sched = PriceSchedule({"m": ratio})
            payoffs = [optimal_user_payoff(models, sched, e) for e in grid]
            assert is_non_increasing(payoffs, slack=1e-12)
            assert all(p >= 0.0 for p in payoffs)


class TestSelectModel:
    def test_no_profitable_model(self):
        models = ModelSet([UNIT])
        decision = select_model(models, PriceSchedule({"m": 1.5}), 0.5)
        assert decision.selected_model is None
        assert decision.prompt_count == 0
        assert decision.payoff == 0.0

    def test_higher_tier_wins_at_equal_price(self):
        models = ModelSet([GaiModel("ml", 1.0), GaiModel("mh", 1.8)])
        sched = PriceSchedule({"ml": 0.5, "mh": 0.5})
        assert brute_force_decision(models, sched, 0.5)[0] == "mh"
        assert select_model(models, sched, 0.5).selected_model == "mh"

    def test_cheap_low_tier_beats_overpriced_high_tier(self):
        models = ModelSet([GaiModel("ml", 1.0), GaiModel("mh", 1.8)])
        sched = PriceSchedule({"ml": 0.05, "mh": 1.0})
        # the high tier exceeds its ceiling (1 - 0.5) * 1.8 = 0.9, so it sells nothing
        assert optimal_prompt_count(GaiModel("mh", 1.8), 1.0, 0.5) == 0
        assert brute_force_decision(models, sched, 0.5)[0] == "ml"
        assert select_model(models, sched, 0.5).selected_model == "ml"

    def test_matches_brute_force_across_grid(self):
        models = ModelSet([GaiModel("ml", 1.0), GaiModel("mh", 1.8)])
        for pl in (0.03, 0.11, 0.4):
            for ph in (0.07, 0.33, 0.95):
                sched = PriceSchedule({"ml": pl, "mh": ph})
                for j in range(3, 98, 7):
                    eps = j / 100.0
                    got = select_model(models, sched, eps)
                    want = brute_force_decision(models, sched, eps)
                    assert got.selected_model == want[0]
                    assert got.payoff == pytest.approx(want[2], abs=1e-12)

    def test_missing_price(self):
        models = ModelSet([GaiModel("ml", 1.0), GaiModel("mh", 1.8)])
        with pytest.raises(SchedulePriceMissing):
            select_model(models, PriceSchedule({"ml": 0.1}), 0.5)

    def test_free_model_reports_unbounded(self):
        models = ModelSet([UNIT])
        decision = select_model(models, PriceSchedule({"m": 0.0}), 0.5)
        assert decision.prompt_count is UNBOUNDED
        assert decision.payoff == pytest.approx(1.0)

    def test_equal_utility_payoff_tie_goes_to_smaller_id(self):
        """Two models of equal utility, cost and price pay every user the
        same; the smaller id wins in every route that applies the rule."""
        from prompt_pricing import optimal_homogeneous_price
        from prompt_pricing.evaluation import _family_volumes

        models = ModelSet([GaiModel("b", 1.0, 0.1), GaiModel("a", 1.0, 0.1),
                           GaiModel("c", 0.5, 0.1)])
        assert [m.id for m in models] == ["c", "a", "b"]
        sched = PriceSchedule({"a": 0.2, "b": 0.2, "c": 0.3})
        for eps in (0.1, 0.4, 0.7):
            assert select_model(models, sched, eps).selected_model == "a"
            assert optimal_homogeneous_price(models, eps).best_model == "a"
        nodes = np.linspace(0.05, 0.75, 15)
        _, volumes = _family_volumes(models, np.array([[0.3, 0.2, 0.2]]), nodes, np.full(15, 1 / 15))
        assert volumes[0, 1] > 0.0
        assert volumes[0, 2] == 0.0


class TestVectorKernels:
    def test_counts_match_scalar(self):
        eps = np.linspace(0.0137, 0.9841, 257)
        for price in (0.03, 0.2, 0.52, 0.97, 1.3):
            vec = _counts_vec(1.0, price, eps)
            scalar = [optimal_prompt_count(UNIT, price, float(e)) for e in eps]
            assert vec.tolist() == scalar

    def test_payoffs_match_scalar(self):
        eps = np.linspace(0.05, 0.95, 91)
        counts = _counts_vec(1.0, 0.17, eps)
        pays = payoffs_at_counts(1.0, 0.17, eps, counts)
        for e, n, p in zip(eps, counts, pays):
            assert p == pytest.approx(user_payoff(UNIT, 0.17, float(e), int(n)), abs=1e-12)

    def test_extreme_count_settles(self):
        """Near eps = 1 at a tiny price the estimate is still within the
        correction limit, and both routes give the same huge count."""
        eps, price = 1.0 - 1e-15, 1e-18
        vec = _counts_vec(1.0, price, np.array([eps]))
        assert vec[0] == optimal_prompt_count(UNIT, price, eps) == 6_912_480_674_155_963

    def test_correction_limit_raises(self, monkeypatch):
        """Prices on the marginal gains of prompts 2-11: the floored
        logarithm misses some of them by one count, and with no correction
        step allowed the kernel must raise instead of returning its guess."""
        eps = np.linspace(0.05, 0.95, 19)[:, None]
        prices = eps ** (np.arange(2.0, 12.0) - 1.0) * (1.0 - eps)
        counts = _counts_vec(1.0, prices, eps)
        assert np.all(counts >= 1.0)
        monkeypatch.setattr(evaluation, "_COUNT_STEPS", 0)
        with pytest.raises(PromptPricingError, match="correction steps"):
            _counts_vec(1.0, prices, eps)

    def test_one_loop_moves_counts_both_ways(self, monkeypatch):
        """One array with a count that must rise (prompt 2's gain at eps 0.3:
        the floored logarithm gives 1) and one that must fall (estimate 41,
        count 40): one correction loop settles both, and with no step
        allowed it raises."""
        eps = np.array([0.3, 0.6908738165346597])
        prices = np.array([0.21, 1.1643542636794673e-07])
        counts = _counts_vec(1.0, prices, eps)
        scalar = [optimal_prompt_count(UNIT, float(p), float(e)) for p, e in zip(prices, eps)]
        assert counts.tolist() == scalar == [2, 40]
        monkeypatch.setattr(evaluation, "_COUNT_STEPS", 0)
        with pytest.raises(PromptPricingError, match="prompt counts still moving"):
            _counts_vec(1.0, prices, eps)

    @given(utility=st.floats(0.05, 20.0), eps=st.floats(1e-6, TOP_NODE),
           share=st.floats(1e-9, 1.5), edge=st.sampled_from([None, -1, 0, 1]))
    @example(utility=1.0, eps=TOP_NODE, share=1.0, edge=0)
    @example(utility=1.0, eps=TOP_NODE, share=1.0, edge=-1)
    @example(utility=1.8, eps=TOP_NODE, share=1e-9, edge=None)
    @example(utility=1.0, eps=1e-6, share=1.0, edge=1)
    @settings(max_examples=400, deadline=None)
    def test_counts_match_scalar_property(self, utility, eps, share, edge):
        """The vector kernel equals optimal_prompt_count.  ``edge`` puts the
        price on the first prompt's gain ``(1 - eps) * U`` (0) or one ulp
        below (-1) or above (+1) it; otherwise it is ``share * U``.  Prices
        on the gain of a later prompt are left out: there numpy's pow and
        Python's ``**`` may differ by an ulp, which the kernel documents."""
        model = GaiModel("m", utility)
        ceiling = (1.0 - eps) * utility
        if edge is None:
            price = share * utility
        else:
            price = float(np.nextafter(ceiling, np.inf * edge)) if edge else ceiling
        scalar = optimal_prompt_count(model, price, eps)
        for k in (scalar, scalar + 1):
            if k >= 2:
                gain = marginal_expected_utility(utility, eps, k)
                assume(abs(price - gain) > 4 * np.spacing(gain))
        assert _counts_vec(utility, price, np.array([eps]))[0] == scalar

    @given(utility=st.floats(0.3, 5.0), ratio=st.floats(1.01, 3.0),
           eps=st.one_of(st.floats(1e-9, 1e-3), st.just(TOP_NODE), st.floats(1e-3, TOP_NODE)),
           share=st.floats(1e-4, 1.2), gap=st.floats(1e-9, 1e-2), side=st.sampled_from([-1, 1]))
    @example(utility=1.0, ratio=1.8, eps=TOP_NODE, share=0.0002, gap=1e-9, side=-1)
    @example(utility=1.0, ratio=1.8, eps=TOP_NODE, share=0.0002, gap=1e-9, side=1)
    @example(utility=1.0, ratio=1.8, eps=1e-9, share=0.3, gap=1e-9, side=1)
    @settings(max_examples=400, deadline=None)
    def test_selection_matches_scalar_property(self, utility, ratio, eps, share, gap, side):
        """The schedule evaluator's selection equals select_model on a
        one-row schedule at one node.  The high tier's price sits a relative
        ``gap`` below (-1) or above (+1) its indifference price against the
        low tier (``price_upper_bound``), or at ``share`` of its utility
        where it can never win.  Prices on the gain of a prompt k >= 2 are
        left out, as in the count property."""
        from prompt_pricing import price_upper_bound
        from prompt_pricing.evaluation import _family_volumes

        models = ModelSet([GaiModel("lo", utility), GaiModel("hi", ratio * utility)])
        low, high = models.require_pair()
        p_low = share * low.utility
        bound = price_upper_bound(high, low, p_low, eps)
        p_high = bound * (1.0 + side * gap) if bound > 0.0 else share * high.utility
        for model, price in ((low, p_low), (high, p_high)):
            n = optimal_prompt_count(model, price, eps)
            for k in (n, n + 1):
                if k >= 2:
                    gain = marginal_expected_utility(model.utility, eps, k)
                    assume(abs(price - gain) > 4 * np.spacing(gain))
        decision = select_model(models, PriceSchedule({"lo": p_low, "hi": p_high}), eps)
        _, volumes = _family_volumes(models, np.array([[p_low, p_high]]),
                                     np.array([eps]), np.array([1.0]))
        want = [0.0, 0.0]
        if decision.selected_model is not None:
            want[[m.id for m in models].index(decision.selected_model)] = decision.prompt_count
        assert volumes[0].tolist() == want
