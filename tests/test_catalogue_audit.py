"""``opp`` audited on seeded catalogues, not only on the bundled fig7 points.

Twelve cases of :func:`_helpers.seeded_catalogues` are solved once, at the
fig7 setting (step 0.002, 2001 nodes).  The gates are what holds today:
``opp`` pays at least each single-tier schedule and at least
``grid_oracle(400)`` within criterion 08's 1e-3·U_H.  The shortfalls the
searches still leave are printed as a report (run with ``-s``), not pinned
as passing numbers.  The cases: 26 is the one of 40 where the oracle beats
``opp``; 15 and 5 are the closest single-tier schedules to ``opp`` (the
high and the low tier); 13 the closest oracle; 21 and 30 the widest oracle
margins; the rest span both densities and both kinds of answer (the low
tier selling nothing, or most of the volume).

fig7a's tiers with one tier dead (its cost raised to its utility, so it
can sell only at a loss) are audited the same way, under U(0, 1) and a
tabulated density.  There ``opp`` returns ``single_model_price``'s exact
answer for the live tier, and the 2001-node rule can rank a benchmark
mechanism above it; the report re-scores every answer at 200,001 nodes.
"""

import pytest

from prompt_pricing import (
    GaiModel,
    ModelSet,
    OppConfig,
    PriceSchedule,
    QuadratureConfig,
    TabulatedAmbiguity,
    UniformAmbiguity,
    cost_based_pricing,
    grid_oracle,
    opp,
    platform_payoff,
    single_model_price,
    utility_based_pricing,
)

from _helpers import seeded_catalogues

CASES = (0, 3, 5, 11, 13, 15, 21, 22, 26, 30, 31, 34)
CFG = OppConfig(step_alpha=0.002, quad=QuadratureConfig(2001))
OPT_TOL = 1e-3  # criterion 08's tolerance on the two-model optimum, times U_H


@pytest.fixture(scope="module")
def solved() -> dict:
    """Per case: (models, opp's answer, grid_oracle(400)'s, and the two
    single-tier schedules' outcomes, low tier alone first)."""
    catalogues = seeded_catalogues(max(CASES) + 1)
    out = {}
    for case in CASES:
        models, dist = catalogues[case]
        low, high = models.require_pair()
        singles = []
        for tier, other in ((low, high), (high, low)):
            price = single_model_price(tier, dist).schedule.price_for(tier)
            schedule = PriceSchedule({tier.id: price, other.id: other.utility})
            singles.append(platform_payoff(models, schedule, dist, CFG.quad))
        out[case] = (models, opp(models, dist, CFG), grid_oracle(models, dist, 400, CFG.quad),
                     singles)
    return out


@pytest.mark.parametrize("case", CASES)
def test_opp_pays_at_least_each_single_tier_schedule(solved, case):
    """A tier at ``single_model_price``'s price with the other priced at its
    utility, where nobody buys it, is a schedule ``opp`` can reach."""
    _, got, _, singles = solved[case]
    for single in singles:
        assert got.platform_payoff >= single.platform_payoff, single.schedule


@pytest.mark.parametrize("case", CASES)
def test_opp_is_within_criterion_08_of_the_oracle(solved, case):
    models, got, oracle, _ = solved[case]
    assert got.platform_payoff >= oracle.platform_payoff - OPT_TOL * models.high.utility


def test_report(solved):
    """One row per case, in U_H: the oracle's and each single-tier
    schedule's payoff minus ``opp``'s (positive where ``opp`` is short)."""
    print("\ncase  U_H    low volume  oracle-opp  low alone-opp  high alone-opp")
    for case, (models, got, oracle, singles) in solved.items():
        u_high = models.high.utility
        gaps = [(o.platform_payoff - got.platform_payoff) / u_high for o in (oracle, *singles)]
        print(f"{case:4d}  {u_high:.3f}  {got.prompt_volume[models.low.id]:10.4f}  "
              + "  ".join(f"{g:+.2e}".rjust(w) for g, w in zip(gaps, (10, 13, 14))))


# fig7a's (low, high) tier costs with one tier's cost raised to its utility
DEAD_TIERS = {"low": (1.0, 0.04), "high": (0.02, 1.8)}
DEAD_DISTS = {"uniform": UniformAmbiguity(0.0, 1.0),
              "tabulated": TabulatedAmbiguity((0.1, 0.5, 0.9), (1.0, 3.0, 0.5))}
DEAD_CASES = [(tier, dist) for tier in DEAD_TIERS for dist in DEAD_DISTS]
FINE = QuadratureConfig(200_001)


@pytest.fixture(scope="module")
def dead_tier() -> dict:
    """Per (dead tier, density): the models, the density, and the outcomes
    of ``opp``, ``grid_oracle(400)`` and both mechanisms at 2001 nodes."""
    out = {}
    for tier, dist_name in DEAD_CASES:
        c_low, c_high = DEAD_TIERS[tier]
        models = ModelSet([GaiModel("ml", 1.0, c_low), GaiModel("mh", 1.8, c_high)])
        dist = DEAD_DISTS[dist_name]
        out[tier, dist_name] = models, dist, {
            "opp": opp(models, dist, CFG),
            "oracle": grid_oracle(models, dist, 400, CFG.quad),
            "utility": utility_based_pricing(models, dist, CFG.quad),
            "cost": cost_based_pricing(models, dist, CFG.quad)}
    return out


@pytest.mark.parametrize("case", DEAD_CASES, ids=lambda case: "-".join(case))
def test_dead_tier_opp_is_within_criterion_08_of_the_oracle(dead_tier, case):
    models, _, got = dead_tier[case]
    assert got["opp"].platform_payoff >= \
        got["oracle"].platform_payoff - OPT_TOL * models.high.utility


@pytest.mark.parametrize("case", DEAD_CASES, ids=lambda case: "-".join(case))
def test_dead_tier_answers_never_lose_money(dead_tier, case):
    """No answer pays below 0.  Each search can reach a schedule that pays
    exactly 0: the utility ray's beta = 1 and the oracle's axis ends sell
    nothing, and the cost ray's zero margin sells at cost."""
    _, _, got = dead_tier[case]
    for name, out in got.items():
        assert out.platform_payoff >= 0.0, name


def test_dead_tier_report(dead_tier):
    """One row per answer: its payoff under the 2001-node rule that
    ``compare`` reports and re-scored at 200,001 nodes, then each minus
    ``opp``'s in U_H (positive where the answer pays more than ``opp``)."""
    print("\ndead  density    answer   2001 nodes  200,001 nodes  gap 2001  gap 200,001")
    for (tier, dist_name), (models, dist, got) in dead_tier.items():
        u_high = models.high.utility
        fine = {name: platform_payoff(models, out.schedule, dist, FINE).platform_payoff
                for name, out in got.items()}
        for name, out in got.items():
            coarse_gap = (out.platform_payoff - got["opp"].platform_payoff) / u_high
            fine_gap = (fine[name] - fine["opp"]) / u_high
            print(f"{tier:4s}  {dist_name:9s}  {name:7s}  {out.platform_payoff:10.7f}  "
                  f"{fine[name]:13.7f}  {coarse_gap:+8.2e}  {fine_gap:+11.2e}")
