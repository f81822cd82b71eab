"""Print every solver answer on a fixed set of inputs, one ``repr`` per line.

Two trees give the same answers, bit for bit, when this prints the same
lines against each of them::

    PYTHONPATH=<tree>/src python tools/answers.py > answers.txt

The inputs are the benchmark's own, imported from ``bench/workloads.py``
beside this script: the 10 fig7 points (both catalogues under U(eps_min,
1) for each eps_min of the fig7 sweep) and the inputs of seeds 1-10 of
the ``opp_search`` and ``mechanisms`` workloads, 90 in all.  On each it
prints ``opp`` (step 0.002), ``grid_oracle(400)``, both benchmark
mechanisms, ``single_model_price`` per tier and ``platform_payoff`` of
both mechanism schedules, all at 2001 nodes: 720 lines.  A solver that
raises prints its exception instead.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import numpy as np  # noqa: E402
import prompt_pricing as pp  # noqa: E402
from workloads import FIG7_SWEEP, fig7_catalogues, seeded_problems  # noqa: E402

SEEDS = range(1, 11)
QUAD = pp.QuadratureConfig(2001)
OPP = pp.OppConfig(step_alpha=0.002, quad=QUAD)


def inputs() -> list[tuple[str, pp.ModelSet, pp.TabulatedAmbiguity]]:
    """The 90 (name, models, density) inputs, fig7 points first."""
    found = [(f"{name}/uniform({float(eps_min)!r},1)", models, pp.UniformAmbiguity(float(eps_min), 1.0))
             for name, models in fig7_catalogues() for eps_min in FIG7_SWEEP]
    for seed in SEEDS:
        for workload, stream in (("opp_search", 1), ("mechanisms", 2)):
            found += [(f"seed {seed} {workload} {prob.name}", prob.models, prob.dist)
                      for prob in seeded_problems(np.random.default_rng([seed, stream]))]
    return found


def show(name: str, solver: str, solve):
    """Print ``solve()``'s answer, or what it raised, and return the answer."""
    try:
        out = solve()
    except Exception as exc:  # noqa: BLE001 - a raise is an answer too
        print(f"{name} | {solver} | raises {exc!r}", flush=True)
        return None
    print(f"{name} | {solver} | {out!r}", flush=True)
    return out


def main() -> None:
    for name, models, dist in inputs():
        show(name, "opp", lambda: pp.opp(models, dist, OPP))
        show(name, "grid_oracle", lambda: pp.grid_oracle(models, dist, 400, QUAD))
        mechanisms = [show(name, f.__name__, lambda f=f: f(models, dist, QUAD))
                      for f in (pp.utility_based_pricing, pp.cost_based_pricing)]
        for m in models:
            show(name, f"single_model_price {m.id}", lambda m=m: pp.single_model_price(m, dist))
        for kind, out in zip(("utility", "cost"), mechanisms):
            show(name, f"platform_payoff {kind}",
                 lambda out=out: pp.platform_payoff(models, out.schedule, dist, QUAD))


if __name__ == "__main__":
    main()
