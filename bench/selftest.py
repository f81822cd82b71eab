#!/usr/bin/env python3
"""Self-test of the benchmark's reference evaluator and workload checks.

    python3 bench/selftest.py

Part 1 matches the numpy reference evaluator against a scalar brute
force on small cases, including exact indifference boundaries and
model ties.  Part 2 plants wrong answers (a count off by one, a model
swapped, a schedule nudged off its optimum, a misreported payoff) and
requires each workload check to reject them, after accepting the
program's own answers.  It runs in about ten seconds and writes scratch
files under ``bench/out/selftest``.  Exit code 0 means every case
passed.
"""

import os
import sys
from pathlib import Path
from types import SimpleNamespace

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import numpy as np  # noqa: E402

import prompt_pricing as pp  # noqa: E402
import reference as ref  # noqa: E402
import workloads as wl  # noqa: E402

FAILURES: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        FAILURES.append(what)


# --------------------------------------------------------------------------
# Part 1: reference evaluator against a scalar brute force
# --------------------------------------------------------------------------

def brute_count(u: float, p: float, eps: float, cap: int = 400) -> tuple[int, float]:
    """Smallest best count, then the documented boundary rule."""
    pays = [(1.0 - eps ** n) * u - n * p for n in range(cap + 1)]
    b = max(range(cap + 1), key=lambda n: (pays[n], -n))
    if abs(pays[b + 1] - pays[b]) <= ref.TIE * u and eps ** b * (1.0 - eps) * u - p >= 0.0:
        b += 1
    return b, pays[b]


def brute_choice(models, prices, eps: float) -> tuple[int, float]:
    best, best_key = -1, None
    for j, (m, p) in enumerate(zip(models, prices)):
        n, pay = brute_count(m.utility, p, eps)
        if n < 1:
            continue
        key = (pay, m.utility, [-ord(c) for c in m.id])
        if best_key is None or key > best_key:
            best, best_key = j, key
    return best, (best_key[0] if best_key else 0.0)


def part_reference() -> None:
    rng = np.random.default_rng(7)
    mismatches = 0
    for _ in range(300):
        u = float(rng.uniform(0.5, 2.0))
        p = float(rng.uniform(0.01, 1.0)) * u
        eps = float(rng.uniform(0.001, 0.999))
        counts, pays = ref.best_counts(u, [p], [eps])
        n, pay = brute_count(u, p, eps)
        mismatches += int(counts[0, 0] != n or abs(pays[0, 0] - pay) > 1e-12 * u)
    expect(mismatches == 0, f"random counts match brute force ({mismatches} of 300 differ)")

    boundary = 0
    for u, eps, k in [(1.0, 0.5, 1), (1.0, 0.5, 2), (1.8, 0.3, 3), (1.0, 0.9, 5), (1.5, 0.75, 4)]:
        price = eps ** (k - 1) * (1.0 - eps) * u
        counts, _ = ref.best_counts(u, [price], [eps])
        boundary += int(counts[0, 0] != k)
    expect(boundary == 0, "at an indifference boundary the larger count is taken")

    counts, pays = ref.best_counts(1.0, [0.5], [0.5])
    expect(counts[0, 0] == 1 and pays[0, 0] == 0.0, "a user indifferent about buying buys")

    a = SimpleNamespace(id="a", utility=1.0, cost=0.0)
    b = SimpleNamespace(id="b", utility=2.0, cost=0.0)
    _, chosen, user = ref.decisions([a, b], [0.25, 0.75], np.array([0.5]))
    expect(chosen[0] == 1 and user[0] == 0.25, "a payoff tie goes to the higher utility")
    twin = SimpleNamespace(id="c", utility=1.0, cost=0.0)
    _, chosen, _ = ref.decisions([twin, a], [0.3, 0.3], np.array([0.4]))
    expect(chosen[0] == 1, "a payoff tie at equal utility goes to the smaller id")

    models = [SimpleNamespace(id="ml", utility=1.0, cost=0.02),
              SimpleNamespace(id="mh", utility=1.8, cost=0.04)]
    eps = rng.uniform(0.001, 0.999, 200)
    bad = 0
    for _ in range(20):
        prices = [float(rng.uniform(0.02, 1.0)), float(rng.uniform(0.04, 1.8))]
        _, chosen, user = ref.decisions(models, prices, eps)
        for i, e in enumerate(eps):
            j, pay = brute_choice(models, prices, float(e))
            bad += int(chosen[i] != j or abs(user[i] - pay) > 1e-12)
    expect(bad == 0, f"model choice matches brute force ({bad} of 4000 differ)")

    nodes = np.linspace(0.05, 0.95, 19)
    weights = np.full(19, 1.0 / 19)
    prices = [0.12, 0.3]
    payoff, volumes = ref.evaluate(models, prices, nodes, weights)
    vols = [0.0, 0.0]
    for e, w in zip(nodes, weights):
        j, _ = brute_choice(models, prices, float(e))
        if j >= 0:
            vols[j] += w * brute_count(models[j].utility, prices[j], float(e))[0]
    want = sum((p - m.cost) * v for p, m, v in zip(prices, models, vols))
    expect(abs(payoff - want) < 1e-12 and np.allclose(volumes, vols, rtol=0, atol=1e-12),
           "schedule payoff and volumes match a scalar quadrature sum")


# --------------------------------------------------------------------------
# Part 2: every workload check accepts the program's answers and rejects
# planted errors
# --------------------------------------------------------------------------

def outcome(models, prices, prob, method="planted") -> pp.PricingOutcome:
    """An honest outcome for the given prices: payoff and volumes as scored."""
    sched = pp.PriceSchedule({m.id: float(p) for m, p in zip(models, prices)})
    real = pp.platform_payoff(models, sched, prob.dist, prob.quad)
    return pp.PricingOutcome(sched, real.platform_payoff, real.prompt_volume, method)


def part_pricing_checks() -> None:
    name, models = wl.fig7_catalogues()[0]
    prob = wl.Problem(f"{name}/uniform(0.3,1)", models, pp.UniformAmbiguity(0.3, 1.0),
                      pp.QuadratureConfig(401))
    rng = np.random.default_rng(3)
    found = pp.opp(models, prob.dist, pp.OppConfig(step_alpha=0.01, quad=prob.quad))
    oracle = pp.grid_oracle(models, prob.dist, wl.LATTICE_N, prob.quad)
    expect(not wl.check_opp(prob, found, oracle, rng), "opp check accepts opp's answer")
    inflated = pp.PricingOutcome(found.schedule, found.platform_payoff + 1e-4,
                                 found.prompt_volume, "planted")
    expect(bool(wl.check_opp(prob, inflated, oracle, rng)), "opp check rejects a misreported payoff")
    vols = dict(found.prompt_volume)
    vols["mh"] += 1e-3
    shifted = pp.PricingOutcome(found.schedule, found.platform_payoff, vols, "planted")
    expect(bool(wl.check_opp(prob, shifted, oracle, rng)), "opp check rejects a wrong volume")
    p_low, p_high = wl.outcome_prices(models, found)
    nudged = outcome(models, [p_low, p_high * 1.15], prob)
    expect(bool(wl.check_opp(prob, nudged, oracle, rng)),
           "opp check rejects a schedule nudged off its optimum")

    for kind, solver in [("utility_based", pp.utility_based_pricing),
                         ("cost_based", pp.cost_based_pricing)]:
        found = solver(models, prob.dist, prob.quad)
        expect(not wl.check_family(prob, found, kind, rng), f"{kind} check accepts its answer")
        rows, row_of = wl.family_rows(list(models), kind)
        row = row_of(wl.outcome_prices(models, found)[0])
        far = outcome(models, wl.family_prices(list(models), kind, [row // 2])[0], prob)
        expect(bool(wl.check_family(prob, far, kind, rng)),
               f"{kind} check rejects a row nudged off its optimum")
        off = outcome(models, np.array(wl.outcome_prices(models, found)) * 1.0003, prob)
        expect(bool(wl.check_family(prob, off, kind, rng)), f"{kind} check rejects a non-family schedule")

    expect(not wl.check_lattice(prob, oracle, rng), "lattice check accepts grid_oracle's answer")
    idx = np.array([wl.LATTICE_N // 8, wl.LATTICE_N // 8])
    lo, hi = wl._box(models)
    worse = outcome(models, lo + (hi - lo) * idx / wl.LATTICE_N, prob)
    expect(bool(wl.check_lattice(prob, worse, rng)), "lattice check rejects a worse lattice cell")

    for model in models:
        single = pp.single_model_price(model, prob.dist, prob.quad)
        expect(not wl.check_single(prob, model, single), f"single-tier check accepts {model.id}'s answer")
        p = single.schedule.price_for(model)
        moved = outcome(pp.ModelSet([model]), [p * 1.2], prob)
        expect(bool(wl.check_single(prob, model, moved)), f"single-tier check rejects a nudged {model.id} price")
    low = models.low
    single = pp.single_model_price(low, pp.UniformAmbiguity(0.0, 1.0))
    expect(not wl.check_single_closed_form(low, single), "closed-form check accepts (1+C)/2")
    wrong = pp.PricingOutcome(pp.PriceSchedule({low.id: single.schedule.price_for(low) + 2e-3}),
                              single.platform_payoff, single.prompt_volume, "planted")
    expect(bool(wl.check_single_closed_form(low, wrong)), "closed-form check rejects a price 2e-3 off")


def _edit_rows(text: str, edit) -> str:
    lines = text.splitlines()
    return "\n".join([lines[0]] + [edit(i, line.split(",")) for i, line in enumerate(lines[1:])]) + "\n"


def part_sweep_checks() -> None:
    out = BENCH_DIR / "out" / "selftest"
    sweep = wl.UserSweep(5, out)
    sweep.generate()
    points = 600
    rng = np.random.default_rng(5)
    texts = {}
    for verb, spec, name in [("user-strategy", sweep.user_models, "user"),
                             ("homog-price", sweep.homog_models, "homog")]:
        ini = out / f"{name}-small.ini"
        ini.write_text(wl._scenario_text(f"selftest-{name}", spec, points))
        csv_path = out / f"{name}-small.csv"
        code = pp.cli.main([verb, "--scenario", str(ini), "--out", str(csv_path)])
        expect(code == 0, f"cli {verb} runs")
        texts[name] = csv_path.read_text()

    spec = sweep.user_models
    user = texts["user"]
    expect(not wl.check_user_rows(spec, user, points, rng), "user-strategy check accepts the CLI rows")
    off_by_one = _edit_rows(user, lambda i, c: ",".join([c[0], str(int(c[1]) + 1)] + c[2:]))
    expect(bool(wl.check_user_rows(spec, off_by_one, points, rng)),
           "user-strategy check rejects counts off by one")
    swapped = _edit_rows(user, lambda i, c: ",".join(
        c[:3] + [{"ml": "mh", "mh": "ml"}.get(c[3], c[3])] + c[4:]))
    expect(bool(wl.check_user_rows(spec, swapped, points, rng)),
           "user-strategy check rejects a swapped model")
    bump = _edit_rows(user, lambda i, c: ",".join(
        c[:-1] + [repr(float(c[-1]) + 0.05)]) if i == points // 2 else ",".join(c))
    expect(any("rises" in line for line in wl.check_user_rows(spec, bump, points, rng)),
           "user-strategy check rejects a payoff that rises with eps")

    spec = sweep.homog_models
    homog = texts["homog"]
    expect(not wl.check_homog_rows(spec, homog, points, rng), "homog-price check accepts the CLI rows")
    nudged = _edit_rows(homog, lambda i, c: ",".join(
        [c[0], repr(float(c[1]) * (1.0 + 1e-6))] + c[2:]) if i == points // 3 else ",".join(c))
    expect(bool(wl.check_homog_rows(spec, nudged, points, rng)),
           "homog-price check rejects a price off the marginal gain")
    count = _edit_rows(homog, lambda i, c: ",".join(c[:4] + [str(int(c[4]) + 1)] + c[5:])
                       if i == points // 4 else ",".join(c))
    expect(bool(wl.check_homog_rows(spec, count, points, rng)),
           "homog-price check rejects a prompt count off by one")
    # one prompt fewer: each row stays self-consistent (price is the marginal
    # gain of its last prompt, payoff is margin times count) but is not optimal
    eps = np.linspace(wl.SWEEP_START, wl.SWEEP_STOP, points)
    models = wl._models(spec)

    def fewer(i, c):
        k = int(c[2])
        if c[3] == "none" or k < 2:
            return ",".join(c)
        m = models[c[3]]
        price = float(eps[i] ** (k - 2) * (1.0 - eps[i]) * m.utility)
        return ",".join([c[0], repr(price), str(k - 1), c[3], str(k - 1), repr((price - m.cost) * (k - 1))])

    problems = wl.check_homog_rows(spec, _edit_rows(homog, fewer), points, rng)
    expect(bool(problems) and all("price-grid maximum" in line for line in problems),
           "homog-price check rejects consistent schedules below the price-grid maximum")


def main() -> int:
    os.chdir(BENCH_DIR.parent)
    part_reference()
    part_pricing_checks()
    part_sweep_checks()
    print(f"{len(FAILURES)} failed" if FAILURES else "all passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
