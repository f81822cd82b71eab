"""Acceptance gate: every exit criterion at its stated tolerance.

Each test prints one ``CRITERION nn: PASS/FAIL`` line (visible with
``pytest -s``) and then asserts.

Criterion 1 compares the closed-form prompt count with brute-force
enumeration by exact integer equality at every point of the decimal
grid.  The enumeration breaks payoff ties toward the smallest count,
while the user strategy documents the opposite rule: the count is the
largest ``n`` whose marginal gain still covers the price, so at an
indifference boundary the user buys the extra prompt (the convention the
stage-1 price formulas rely on, since the platform's optimal price sits
exactly on such a boundary).  The expected count is therefore the
enumeration's ``b``, except where prompts ``b`` and ``b+1`` tie within
1e-12·U and the marginal gain of prompt ``b+1`` covers the price; there
it is ``b+1``.  On the grid the smallest payoff gap between a best count
and any other count is 3.5e-7·U, so the tie window cannot hide a wrong
count.  The companion audit checks that every point where the closed
form and the smallest-tie enumeration disagree is such a tie, sitting on
an indifference boundary.
"""

import functools
import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from prompt_pricing import (
    GaiModel,
    ModelSet,
    OppConfig,
    PriceSchedule,
    QuadratureConfig,
    UniformAmbiguity,
    grid_oracle,
    homogeneous_payoff_curve,
    opp,
    optimal_homogeneous_price,
    optimal_prompt_count,
    optimal_user_payoff,
    price_upper_bound,
    prompt_upper_bound,
    select_model,
    single_model_price,
    user_payoff,
)
from prompt_pricing.user_strategy import _counts_vec

from _helpers import (
    boundary_tie_count,
    brute_force_count,
    is_non_decreasing,
    is_non_increasing,
    is_unimodal,
    package_env,
)

REPO = Path(__file__).resolve().parent.parent
SCENARIOS = REPO / "scenarios"

GRID_U = (0.5, 1.0, 2.0)
GRID_RATIOS = [i / 100.0 for i in range(1, 121)]
GRID_EPS = [j / 100.0 for j in range(1, 100)]

PAIR_A = ModelSet([GaiModel("ml", 1.0, 0.02), GaiModel("mh", 1.8, 0.04)])
PAIR_B = ModelSet([GaiModel("ml", 1.0, 0.02), GaiModel("mh", 1.5, 0.06)])


def report(number: int, ok: bool, detail: str) -> None:
    print(f"CRITERION {number:02d}: {'PASS' if ok else 'FAIL'} — {detail}")


@functools.cache
def _closed_form_grid() -> tuple[list[tuple[float, float, float, int, int, int]], float]:
    """The closed-form counts on the full grid against brute-force enumeration.

    Returns every point where the closed form, the smallest-tie brute
    force and the count the indifference rule expects do not all agree,
    as ``(u, price, eps, formula, brute, expected)``, together with the
    wall time of the closed-form calls alone.
    """
    models = {u: GaiModel("m", u) for u in GRID_U}
    points = [(u, ratio * u, eps) for u in GRID_U for ratio in GRID_RATIOS for eps in GRID_EPS]
    start = time.perf_counter()
    formulas = [optimal_prompt_count(models[u], price, eps) for u, price, eps in points]
    elapsed = time.perf_counter() - start
    rows = []
    for (u, price, eps), formula in zip(points, formulas):
        brute = brute_force_count(models[u], price, eps, cap=200)
        expected = boundary_tie_count(models[u], price, eps, brute)
        if not formula == brute == expected:
            rows.append((u, price, eps, formula, brute, expected))
    return rows, elapsed


class TestCriterion01:
    def test_closed_form_equals_smallest_tie_brute_force(self):
        """Exact equality with brute force, ties resolved by the indifference rule."""
        rows, elapsed = _closed_form_grid()
        mismatches = [row for row in rows if row[3] != row[5]]
        ties = sum(1 for row in rows if row[5] != row[4])
        total = len(GRID_U) * len(GRID_RATIOS) * len(GRID_EPS)
        detail = (f"{total - len(mismatches)}/{total} exact matches, closed form in "
                  f"{elapsed:.2f}s; {ties} brute-force ties within 1e-12·U go to the "
                  f"larger count (see the knife-edge audit)")
        report(1, not mismatches and elapsed < 10.0, detail)
        assert elapsed < 10.0
        assert not mismatches, (
            f"{len(mismatches)} of {total} grid points disagree with the brute force under "
            f"the indifference rule, e.g. (U, p, eps, formula, brute, expected) = "
            f"{mismatches[0]}")

    def test_knife_edge_audit(self):
        """Every disagreement is a payoff tie within 1e-12·U, larger count wins."""
        rows, _ = _closed_form_grid()
        mismatches = [row[:5] for row in rows if row[3] != row[4]]
        assert mismatches, "expected the documented knife-edge points to exist"
        for u, price, eps, formula, brute in mismatches:
            model = GaiModel("m", u)
            assert formula == brute + 1
            pay_formula = user_payoff(model, price, eps, formula)
            pay_brute = user_payoff(model, price, eps, brute)
            assert abs(pay_formula - pay_brute) <= 1e-12 * u
            # the grid point sits exactly on a boundary: price/U == eps**(k-1)*(1-eps)
            boundary = eps ** (formula - 1) * (1 - eps)
            assert abs(boundary - price / u) <= 1e-9
        report(1, True, f"audit of {len(mismatches)} knife-edge points: "
                        f"all ties within 1e-12·U")


class TestCriterion02:
    def test_upper_bound_dominates_grid(self):
        violations = 0
        for u in GRID_U:
            model = GaiModel("m", u)
            for ratio in GRID_RATIOS:
                price = ratio * u
                bound = prompt_upper_bound(model, price)
                for eps in GRID_EPS:
                    if optimal_prompt_count(model, price, eps) > bound:
                        violations += 1
        report(2, violations == 0, f"{violations} bound violations on the full grid")
        assert violations == 0


class TestCriterion03:
    EPS_GRID = [(j + 1) / 1000.0 for j in range(999)]

    def test_count_and_payoff_shapes(self):
        model = GaiModel("m", 1.0)
        models = ModelSet([model])
        bad = []
        for ratio in (0.05, 0.15, 0.25):
            counts = [optimal_prompt_count(model, ratio, e) for e in self.EPS_GRID]
            if not is_unimodal(counts):
                bad.append(f"count shape at p/U={ratio}")
        for ratio in (0.3, 0.6, 0.9):
            counts = [optimal_prompt_count(model, ratio, e) for e in self.EPS_GRID]
            if not is_non_increasing(counts):
                bad.append(f"count shape at p/U={ratio}")
        for ratio in (0.05, 0.15, 0.25, 0.3, 0.6, 0.9):
            sched = PriceSchedule({"m": ratio})
            payoffs = [optimal_user_payoff(models, sched, e) for e in self.EPS_GRID]
            if not is_non_increasing(payoffs, slack=1e-12):
                bad.append(f"payoff shape at p/U={ratio}")
        report(3, not bad, "unimodal/decreasing counts and decreasing payoffs"
               if not bad else "; ".join(bad))
        assert not bad


class TestCriterion04:
    def test_homogeneous_payoff_matches_price_grid(self):
        start = time.time()
        worst = 0.0
        for cost_ratio in (0.02, 0.05, 0.1, 0.3, 0.6):
            for u in (1.0,):
                model = GaiModel("m", u, cost_ratio * u)
                prices = np.arange(cost_ratio * u, u + 5e-5, 1e-4)
                for eps in np.arange(0.1, 0.95, 0.1):
                    sol = optimal_homogeneous_price(ModelSet([model]), float(eps))
                    counts = _counts_vec(u, prices[:, None], np.array([float(eps)]))[:, 0]
                    oracle = float(np.max((prices - model.cost) * counts))
                    worst = max(worst, abs(sol.platform_payoff - oracle) / u)
        elapsed = time.time() - start
        ok = worst <= 1e-3 and elapsed < 30.0
        report(4, ok, f"max |formula - grid oracle| = {worst:.2e} (tol 1e-3) in {elapsed:.1f}s")
        assert worst <= 1e-3
        assert elapsed < 30.0


class TestCriterion05:
    EPS_GRID = [float(e) for e in np.linspace(0.005, 0.995, 199)]

    def test_served_count_shapes_and_payoff_monotonicity(self):
        bad = []
        shapes = {0.0: is_non_decreasing, 0.05: is_unimodal, 0.1: is_unimodal,
                  0.3: is_non_increasing}
        for cost, predicate in shapes.items():
            model = GaiModel("m", 1.0, cost)
            points = homogeneous_payoff_curve(ModelSet([model]), self.EPS_GRID)
            if not predicate([p.prompt_count for p in points]):
                bad.append(f"count shape at C={cost}")
            if not is_non_increasing([p.payoff for p in points], slack=1e-12):
                bad.append(f"payoff shape at C={cost}")
            if cost == 0.0:
                sol = optimal_homogeneous_price(ModelSet([model]), 0.9)
                if not sol.cost_free_unbounded:
                    bad.append("missing cost-free flag")
        points = homogeneous_payoff_curve(ModelSet([GaiModel("m", 1.0, 0.1)]), self.EPS_GRID)
        served = [p for p in points if p.prompt_count >= 1]
        prices = [p.price for p in served]
        turn_idx = next((i for i in range(1, len(prices)) if prices[i] > prices[i - 1]), None)
        turn = served[turn_idx].eps if turn_idx is not None else float("nan")
        if turn_idx is None or abs(turn - 0.86) > 0.02:
            bad.append(f"price turn point at {turn:.3f}, expected 0.86 +/- 0.02")
        report(5, not bad, f"shapes hold; price turn point at eps={turn:.3f}"
               if not bad else "; ".join(bad))
        assert not bad


class TestCriterion06:
    def test_full_support_uniform_closed_form(self):
        worst = 0.0
        for cost in (0.1, 0.2, 0.4):
            out = single_model_price(GaiModel("m", 1.0, cost), UniformAmbiguity(0.0, 1.0))
            worst = max(worst, abs(out.schedule.price_for("m") - (1.0 + cost) / 2))
        report(6, worst <= 1e-3, f"max |price - midpoint form| = {worst:.2e} (tol 1e-3)")
        assert worst <= 1e-3


class TestCriterion07:
    def test_preference_bound_matches_selection_flip(self):
        low, high = PAIR_A.require_pair()
        eps_grid = np.linspace(0.005, 0.995, 100)
        pl_grid = np.linspace(0.01, 1.0, 100)
        checked = 0
        exceptions = []
        for eps in eps_grid:
            eps = float(eps)
            for p_low in pl_grid:
                p_low = float(p_low)
                bound = price_upper_bound(high, low, p_low, eps)
                checked += 1
                flip = _selection_flip(PAIR_A, p_low, eps, high.utility)
                if abs(flip - bound) > 1e-6 * high.utility:
                    exceptions.append((eps, p_low, bound, flip))
        share = 1.0 - len(exceptions) / checked
        for eps, p_low, bound, flip in exceptions:
            n_under = optimal_prompt_count(high, flip * (1 - 1e-9), eps)
            n_over = optimal_prompt_count(high, flip * (1 + 1e-9), eps)
            print(f"  flip exception at eps={eps:.3f}, p_low={p_low:.3f}: "
                  f"bound={bound:.8f} flip={flip:.8f} counts {n_under}->{n_over}")
        ok = share >= 0.99
        report(7, ok, f"{share:.2%} of 10000 grid points agree within 1e-6*U_H "
                      f"({len(exceptions)} logged exceptions)")
        assert ok

    def test_vanishing_ambiguity_uses_one_prompt(self):
        low, high = PAIR_A.require_pair()
        eps = 1e-3
        n = optimal_prompt_count(low, 0.3, eps)
        rival = user_payoff(low, 0.3, eps, n)
        expected = (1 - eps) * high.utility - rival
        assert price_upper_bound(high, low, 0.3, eps) == pytest.approx(expected, rel=1e-9)


def _selection_flip(models: ModelSet, p_low: float, eps: float, u_high: float) -> float:
    """Largest high-tier price at which the user still picks the high tier."""
    high_id = models.high.id

    def picks_high(p_high: float) -> bool:
        sched = PriceSchedule({models.low.id: p_low, high_id: p_high})
        return select_model(models, sched, eps).selected_model == high_id

    lo, hi = 1e-12, u_high
    if not picks_high(lo):
        return 0.0
    if picks_high(hi):
        return u_high
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if picks_high(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestCriterion08:
    def test_opp_against_exhaustive_oracle(self):
        start = time.time()
        worst = 0.0
        below = 0.0
        for models in (PAIR_A, PAIR_B):
            u_high = models.high.utility
            for eps_min in (0.0, 0.3, 0.6):
                dist = UniformAmbiguity(eps_min, 1.0)
                got = opp(models, dist)
                oracle = grid_oracle(models, dist, grid_n=400)
                diff = got.platform_payoff - oracle.platform_payoff
                worst = max(worst, abs(diff) / u_high)
                below = max(below, -diff / u_high)
        elapsed = time.time() - start
        ok = worst <= 1e-3 and elapsed < 300.0
        report(8, ok, f"max |opp - oracle|/U_H = {worst:.2e} (tol 1e-3), "
                      f"max shortfall {below:.2e}, 6 scenarios in {elapsed:.0f}s")
        assert worst <= 1e-3
        assert below <= 1e-3
        assert elapsed < 300.0


class TestCriterion09:
    @pytest.mark.parametrize("name", ["fig7a", "fig7b"])
    def test_opp_dominates_benchmarks(self, name, tmp_path):
        from prompt_pricing.cli import main
        out = tmp_path / f"{name}.csv"
        code = main(["compare", "--scenario", str(SCENARIOS / f"{name}.ini"),
                     "--out", str(out)])
        assert code == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        improvements = []
        ok = True
        for row in rows:
            p_opp, p_util, p_cost = float(row[1]), float(row[2]), float(row[3])
            if p_opp < p_util or p_opp < p_cost:
                ok = False
            improvements.append(p_opp - max(p_util, p_cost))
        mean_gain = sum(improvements) / len(improvements)
        ok = ok and mean_gain > 0.0
        report(9, ok, f"{name}: OPP >= benchmarks at {len(rows)} sweep points, "
                      f"mean improvement {mean_gain:.4f}")
        assert ok


class TestCriterion10:
    def test_degenerate_distribution_recovers_homogeneous_payoff(self):
        worst = 0.0
        for eps0 in (0.3, 0.5, 0.7):
            dist = UniformAmbiguity(eps0 - 1e-4, eps0 + 1e-4)
            got = opp(PAIR_A, dist)
            want = optimal_homogeneous_price(PAIR_A, eps0).platform_payoff
            worst = max(worst, abs(got.platform_payoff - want) / want)
        ok = worst <= 0.02
        report(10, ok, f"max relative gap to the homogeneous solution = {worst:.2%} (tol 2%)")
        assert ok


class TestCriterion11:
    CASES = [
        ("fig4b", "user-strategy", []),
        ("fig5", "user-strategy", []),
        ("fig6", "homog-price", []),
        ("fig7a", "compare", ["--nodes", "301", "--alpha", "0.02"]),
        ("fig7b", "compare", ["--nodes", "301", "--alpha", "0.02"]),
    ]

    def test_shipped_scenarios_are_deterministic(self, tmp_path):
        unstable = []
        for name, verb, extra in self.CASES:
            outputs = []
            for run in (1, 2):
                out = tmp_path / f"{name}-{run}.csv"
                proc = subprocess.run(
                    [sys.executable, "-m", "prompt_pricing.cli", verb,
                     "--scenario", str(SCENARIOS / f"{name}.ini"),
                     "--out", str(out), *extra],
                    capture_output=True, text=True, env=package_env())
                assert proc.returncode == 0, proc.stderr
                outputs.append(out.read_bytes())
            if outputs[0] != outputs[1]:
                unstable.append(name)
        report(11, not unstable, "byte-identical reruns for all shipped scenarios"
               if not unstable else f"unstable outputs: {unstable}")
        assert not unstable
