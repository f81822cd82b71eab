"""The robustness contract on seeded extreme catalogues.

Every solver returns a finite payoff of at least 0 with finite volumes
of at least 0, or raises a :class:`PromptPricingError` subclass, and
every CLI verb exits 0, 2, 3 or 4.  The catalogues come from one fixed
seed and are extreme but valid: utilities across six decades, tiers
1 + 1e-7 to 30 times apart, costs from 0 to past the utility, densities
pressed against eps = 1, and rules of 3 or 201 nodes.  Near eps = 1 a
tiny price buys millions of prompts per node, so the sweep runs in one
child process under an address-space limit: a blow-up fails the test
with the child's error instead of taking the machine's memory.

Run as a script, this file is that child: ``python tests/test_robustness.py``
prints one JSON report of the sweep.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import resource
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import numpy as np

from prompt_pricing import (
    GaiModel,
    ModelSet,
    OppConfig,
    PromptPricingError,
    QuadratureConfig,
    TabulatedAmbiguity,
    UniformAmbiguity,
    cli,
    cost_based_pricing,
    grid_oracle,
    opp,
    single_model_price,
    utility_based_pricing,
)

from _helpers import package_env

SEED = 7
CASES = 30
ADDRESS_SPACE = 1 << 30  # bytes the child may map
SOLVER_CALLS = 6  # opp, grid_oracle, both mechanisms, single_model_price per tier
VERBS = (("user-strategy", "eps"), ("homog-price", "eps"), ("opp", "eps"), ("compare", "eps_min"))
EXIT_CODES = {0, 2, 3, 4}


def catalogues(seed: int = SEED, count: int = CASES) -> list[dict]:
    """``count`` two-tier catalogues from ``numpy.random.default_rng(seed)``.

    U_L is log-uniform in [1e-3, 1e3] and U_H/U_L one of 1 + 1e-7, 1.01,
    1.5, 3 and 30.  Each tier's cost is one of 0, 1e-7·U, U(0, 0.3)·U,
    U(0.9, 1)·U and 1.2·U, and its price (read by ``user-strategy`` only)
    is U(0.01, 1.2)·U.  The density is U(0, 1), a uniform of half-width
    10^-U(2, 6) around U(0.05, 0.95), U(1 - 10^-U(1, 6), 1), or a
    tabulated density on the knots 0, two U(0, 1) points and 1 with values
    in U(0.2, 2).  The rule has 3 or 201 nodes.
    """
    rng = np.random.default_rng(seed)
    cases = []
    for _ in range(count):
        u_low = float(10.0 ** rng.uniform(-3.0, 3.0))
        utilities = (u_low, u_low * float(rng.choice([1.0 + 1e-7, 1.01, 1.5, 3.0, 30.0])))
        models = []
        for mid, u in zip(("ml", "mh"), utilities):
            cost = (0.0, 1e-7, rng.uniform(0.0, 0.3), rng.uniform(0.9, 1.0), 1.2)[rng.integers(5)]
            models.append((mid, u, float(cost) * u, float(rng.uniform(0.01, 1.2)) * u))
        kind = int(rng.integers(4))
        if kind == 0:
            dist = ("uniform", 0.0, 1.0)
        elif kind == 1:
            centre, half = rng.uniform(0.05, 0.95), 10.0 ** rng.uniform(-6.0, -2.0)
            dist = ("uniform", float(centre - half), float(centre + half))
        elif kind == 2:
            dist = ("uniform", float(1.0 - 10.0 ** -rng.uniform(1.0, 6.0)), 1.0)
        else:
            inner = np.sort(rng.uniform(0.0, 1.0, 2))
            dist = ("tabulated", [0.0, *inner.tolist(), 1.0], rng.uniform(0.2, 2.0, 4).tolist())
        cases.append({"models": models, "dist": dist, "nodes": int(rng.choice([3, 201]))})
    return cases


def scenario_text(case: dict, variable: str) -> str:
    """The case as a scenario file, with an ``eps`` sweep over its support
    (kept inside (0, 1)) or an ``eps_min`` sweep over its lower half."""
    lines = ["[scenario]", "name = robustness"]
    for mid, u, cost, price in case["models"]:
        lines += [f"[model.{mid}]", f"utility = {u!r}", f"cost = {cost!r}", f"price = {price!r}"]
    kind, a, b = case["dist"]
    if kind == "uniform":
        lines += ["[distribution]", "kind = uniform", f"lo = {a!r}", f"hi = {b!r}"]
        lo, hi = a, b
    else:
        lines += ["[distribution]", "kind = tabulated", f"knots = {' '.join(map(repr, a))}",
                  f"values = {' '.join(map(repr, b))}"]
        lo, hi = a[0], a[-1]
    u_low = case["models"][0][1]
    lines += ["[quadrature]", f"nodes = {case['nodes']}", "[opp]", f"alpha = {0.02 * u_low!r}"]
    if variable == "eps":
        start, stop = max(lo, 1e-9), min(hi, 1.0 - 1e-9)
    else:
        start, stop = lo, lo + (hi - lo) / 2.0
    lines += ["[sweep]", f"variable = {variable}", f"start = {start!r}", f"stop = {stop!r}",
              "points = 5"]
    return "\n".join(lines) + "\n"


def _breach(outcome) -> str | None:
    """How an outcome breaks the contract, or None if it keeps it."""
    volumes = list(outcome.prompt_volume.values())
    if not (math.isfinite(outcome.platform_payoff) and outcome.platform_payoff >= 0.0):
        return f"payoff {outcome.platform_payoff!r}"
    if not all(math.isfinite(v) and v >= 0.0 for v in volumes):
        return f"volumes {volumes!r}"
    return None


def sweep() -> dict:
    """Every solver call and CLI verb on every case, tallied; each breach of
    the contract is recorded with its case and call, and the sweep goes on."""
    report = {"breaches": [], "results": Counter(), "exits": Counter(), "calls": 0, "verbs": 0}
    solver_s = cli_s = 0.0
    with tempfile.TemporaryDirectory() as tmp:
        for i, case in enumerate(catalogues()):
            models = ModelSet([GaiModel(mid, u, cost) for mid, u, cost, _ in case["models"]])
            kind, a, b = case["dist"]
            dist = UniformAmbiguity(a, b) if kind == "uniform" else TabulatedAmbiguity(a, b)
            quad = QuadratureConfig(case["nodes"])
            u_low = case["models"][0][1]
            calls = {
                "opp": lambda: opp(models, dist, OppConfig(0.02 * u_low, quad)),
                "grid_oracle": lambda: grid_oracle(models, dist, 60, quad),
                "utility_based_pricing": lambda: utility_based_pricing(models, dist, quad),
                "cost_based_pricing": lambda: cost_based_pricing(models, dist, quad),
                **{f"single_model_price[{m.id}]": (lambda m=m: single_model_price(m, dist))
                   for m in models},
            }
            start = time.perf_counter()
            for name, call in calls.items():
                report["calls"] += 1
                try:
                    breach = _breach(call())
                    result = "returned"
                except PromptPricingError as exc:
                    breach, result = None, type(exc).__name__
                except Exception as exc:  # noqa: BLE001 - any other exception breaks the contract
                    breach, result = f"{type(exc).__name__}: {exc}", "escaped"
                report["results"][result] += 1
                if breach:
                    report["breaches"].append(f"case {i} {name}: {breach}")
            solver_s += time.perf_counter() - start

            start = time.perf_counter()
            for variable in ("eps", "eps_min"):
                Path(tmp, f"{i}-{variable}.ini").write_text(scenario_text(case, variable))
            for verb, variable in VERBS:
                report["verbs"] += 1
                argv = [verb, "--scenario", str(Path(tmp, f"{i}-{variable}.ini")),
                        "--out", str(Path(tmp, f"{i}-{verb}.csv")), "--json"]
                try:
                    with contextlib.redirect_stderr(io.StringIO()):
                        code = cli.main(argv)
                except SystemExit as exc:
                    code = exc.code
                except Exception as exc:  # noqa: BLE001 - a traceback is not an exit code
                    code = f"{type(exc).__name__}: {exc}"
                report["exits"][str(code)] += 1
                if code not in EXIT_CODES:
                    report["breaches"].append(f"case {i} {verb}: exit {code}")
            cli_s += time.perf_counter() - start
    report.update(solver_s=round(solver_s, 2), cli_s=round(cli_s, 2),
                  address_space=resource.getrlimit(resource.RLIMIT_AS)[0])
    return report


def test_seeded_catalogues_keep_the_contract():
    """The sweep in a child under ``ADDRESS_SPACE``, warnings as errors: no
    call raises anything but a :class:`PromptPricingError` or returns a
    payoff or volume that is not finite and at least 0, and every verb exits
    with a documented code.  Every call and verb is counted, so a sweep cut
    short cannot pass."""
    child = subprocess.run([sys.executable, "-W", "error", __file__], env=package_env(),
                           capture_output=True, text=True, timeout=600)
    assert child.returncode == 0, child.stderr[-4000:]
    report = json.loads(child.stdout)
    print(f"\nsolver calls {report['calls']} in {report['solver_s']} s: {report['results']}; "
          f"verbs {report['verbs']} in {report['cli_s']} s, exits {report['exits']}")
    assert 0 < report["address_space"] <= ADDRESS_SPACE
    assert (report["calls"], report["verbs"]) == (CASES * SOLVER_CALLS, CASES * len(VERBS))
    assert report["breaches"] == []


if __name__ == "__main__":
    hard = resource.getrlimit(resource.RLIMIT_AS)[1]
    soft = ADDRESS_SPACE if hard == resource.RLIM_INFINITY else min(ADDRESS_SPACE, hard)
    resource.setrlimit(resource.RLIMIT_AS, (soft, hard))
    json.dump(sweep(), sys.stdout)
