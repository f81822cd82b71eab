"""The benchmark's workloads: seeded inputs, one round of calls, and checks.

Every workload calls the package through its public functions only
(``opp``, ``grid_oracle``, ``utility_based_pricing``,
``cost_based_pricing``, ``single_model_price``, ``platform_payoff`` and
``cli.main``), handed in as an :class:`Api` so the tracer can wrap them.
A round is a fixed list of operations; every operation is one or more
timed calls.  Checks compare the first round's outputs with the
reference evaluator in ``reference.py`` or with a property the method
must have, never with stored output.
"""

from __future__ import annotations

import csv
import hashlib
import math
import statistics
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import prompt_pricing as pp
from prompt_pricing import cli

import reference as ref

# criterion 08's tolerance on the two-model optimum, as a share of U_H
OPT_TOL = 1e-3
# a schedule's payoff re-scored by the reference, as a share of U_H
MATCH_TOL = 1e-9
FIG7_SWEEP = np.linspace(0.0, 0.6, 5)
TAB_KNOTS = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
LATTICE_N = 400
PAYOFF_REPEATS = 10


def fig7_catalogues() -> list[tuple[str, pp.ModelSet]]:
    """The two bundled two-tier catalogues (scenarios fig7a and fig7b)."""
    return [
        ("fig7a", pp.ModelSet([pp.GaiModel("ml", 1.0, 0.02), pp.GaiModel("mh", 1.8, 0.04)])),
        ("fig7b", pp.ModelSet([pp.GaiModel("ml", 1.0, 0.02), pp.GaiModel("mh", 1.5, 0.06)])),
    ]


@dataclass
class Api:
    """The public entry points a workload may call."""

    opp: Callable = pp.opp
    grid_oracle: Callable = pp.grid_oracle
    utility_based_pricing: Callable = pp.utility_based_pricing
    cost_based_pricing: Callable = pp.cost_based_pricing
    single_model_price: Callable = pp.single_model_price
    platform_payoff: Callable = pp.platform_payoff
    cli_main: Callable = cli.main


@dataclass
class Call:
    op: int
    kind: str
    seconds: float
    output: Any
    error: str | None


class Recorder:
    """Times each call and keeps its output; a raised error is a failed call.

    Given a ``probe``, it also measures the machine's current speed before
    each operation's first call and once more in :meth:`finish`, outside
    every timed call, so ``probes[k]`` and ``probes[k + 1]`` bracket the
    k-th operation.
    """

    def __init__(self, on_call: Callable[[int], None] | None = None,
                 probe: Callable[[], float] | None = None) -> None:
        self.calls: list[Call] = []
        self.on_call = on_call
        self.probe = probe
        self.probes: list[float] = []
        self._op: int | None = None

    def call(self, op: int, kind: str, fn: Callable, *args, **kwargs):
        if self.probe is not None and op != self._op:
            self.probes.append(self.probe())
        self._op = op
        if self.on_call is not None:
            self.on_call(op)
        start = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
            error = None
        except Exception:  # a failed operation is counted, not fatal
            out = None
            error = traceback.format_exc()
        seconds = time.perf_counter() - start
        self.calls.append(Call(op, kind, seconds, out, error))
        return out

    def finish(self) -> None:
        if self.probe is not None:
            self.probes.append(self.probe())


@dataclass(frozen=True)
class Problem:
    """One pricing problem: a two-tier catalogue under one ambiguity density."""

    name: str
    models: pp.ModelSet
    dist: Any
    quad: pp.QuadratureConfig = pp.QuadratureConfig(2001)

    @property
    def u_high(self) -> float:
        return self.models.high.utility

    def nodes(self) -> tuple[np.ndarray, np.ndarray]:
        return self.dist.quadrature(self.quad)


def seeded_problems(rng: np.random.Generator) -> list[Problem]:
    """Per catalogue: a uniform density on [eps_min, 1] with eps_min drawn
    from the fig7 sweep, and a tabulated density with seeded knot values."""
    problems = []
    for name, models in fig7_catalogues():
        eps_min = float(rng.choice(FIG7_SWEEP))
        problems.append(Problem(f"{name}/uniform({eps_min:g},1)", models,
                                pp.UniformAmbiguity(eps_min, 1.0)))
        values = tuple(float(v) for v in np.round(rng.uniform(0.5, 1.5, len(TAB_KNOTS)), 3))
        problems.append(Problem(f"{name}/tabulated{values}", models,
                                pp.TabulatedAmbiguity(TAB_KNOTS, values)))
    return problems


def fingerprint(out: Any) -> Any:
    """What must repeat exactly between rounds for one call's output."""
    if isinstance(out, pp.PricingOutcome):
        return (tuple(sorted(out.schedule.prices.items())), out.platform_payoff,
                tuple(sorted(out.prompt_volume.items())))
    return out


def outcome_prices(models: pp.ModelSet, out: pp.PricingOutcome) -> list[float]:
    return [out.schedule.price_for(m) for m in models]


def check_outcome(prob: Problem, out: pp.PricingOutcome, label: str) -> list[str]:
    """A returned schedule's payoff and volumes match the reference re-score."""
    nodes, weights = prob.nodes()
    payoff, volumes = ref.evaluate(prob.models, outcome_prices(prob.models, out), nodes, weights)
    tol = MATCH_TOL * prob.u_high
    bad = []
    if abs(payoff - out.platform_payoff) > tol:
        bad.append(f"{prob.name} {label}: payoff {out.platform_payoff!r} but the reference "
                   f"scores its schedule at {payoff!r}")
    for m, v in zip(prob.models, volumes):
        if abs(v - out.prompt_volume[m.id]) > tol:
            bad.append(f"{prob.name} {label}: volume of {m.id} is {out.prompt_volume[m.id]!r}, "
                       f"reference {v!r}")
    return bad


def _box(models: pp.ModelSet) -> tuple[np.ndarray, np.ndarray]:
    lo = np.array([m.cost for m in models])
    hi = np.array([m.utility for m in models])
    return lo, hi


def check_opp(prob: Problem, out: pp.PricingOutcome, oracle: pp.PricingOutcome,
              rng: np.random.Generator, samples: int = 200) -> list[str]:
    """``opp``'s answer re-scores as claimed, and neither seeded price pairs
    (over the whole box and near the answer) nor the 400x400 lattice
    oracle beat it by more than 1e-3 * U_H."""
    bad = check_outcome(prob, out, "opp") + check_outcome(prob, oracle, "grid_oracle")
    tol = OPT_TOL * prob.u_high
    if out.platform_payoff < oracle.platform_payoff - tol:
        bad.append(f"{prob.name}: opp payoff {out.platform_payoff!r} is below "
                   f"grid_oracle({LATTICE_N}) {oracle.platform_payoff!r} by more than {tol:g}")
    lo, hi = _box(prob.models)
    answer = np.array(outcome_prices(prob.models, out))
    wide = lo + (hi - lo) * rng.uniform(0.0, 1.0, (samples, len(lo)))
    near = answer + 0.05 * (hi - lo) * rng.uniform(-1.0, 1.0, (samples, len(lo)))
    pairs = np.vstack([wide, np.clip(near, lo + 1e-9, hi)])
    nodes, weights = prob.nodes()
    payoffs, _ = ref.evaluate_many(prob.models, pairs, nodes, weights)
    k = int(np.argmax(payoffs))
    if payoffs[k] > out.platform_payoff + tol:
        bad.append(f"{prob.name}: sampled prices {pairs[k].tolist()} pay {payoffs[k]!r}, "
                   f"more than opp's {out.platform_payoff!r} + {tol:g}")
    return bad


def family_rows(models: list, kind: str) -> tuple[np.ndarray, Callable[[float], int]]:
    """A 1-D family's row indices and the map from a low-tier price to its row.

    Utility-based rows are ``beta * U_m`` with beta = row / 1000 for rows
    1..999; cost-based rows are ``(1 + mu) * C_m`` with mu = row * 0.001
    for rows 0..floor(max U / min C / 0.001).
    """
    low = models[0]
    if kind == "utility_based":
        return np.arange(1, 1000), lambda p: int(round(p / low.utility * 1000.0))
    top = int(math.floor(max(m.utility for m in models) / min(m.cost for m in models) / 1e-3))
    return np.arange(top + 1), lambda p: int(round((p / low.cost - 1.0) / 1e-3))


def family_prices(models: list, kind: str, rows) -> np.ndarray:
    if kind == "utility_based":
        return np.array([[r / 1000.0 * m.utility for m in models] for r in rows])
    return np.array([[(1.0 + r * 1e-3) * m.cost for m in models] for r in rows])


def check_family(prob: Problem, out: pp.PricingOutcome, kind: str, rng: np.random.Generator,
                 reach: int = 3, samples: int = 100) -> list[str]:
    """A family answer is a row of its family, and neither its neighbouring
    rows nor seeded rows across the family beat it by more than 1e-3 * U_H."""
    models = list(prob.models)
    prices = outcome_prices(prob.models, out)
    all_rows, row_of = family_rows(models, kind)
    row = row_of(prices[0])
    if not np.allclose(family_prices(models, kind, [row])[0], prices, rtol=1e-12, atol=0.0):
        return [f"{prob.name} {kind}: prices {prices} are not row {row} of the family"]
    near = [r for r in range(row - reach, row + reach + 1) if all_rows[0] <= r <= all_rows[-1]]
    rows = np.concatenate([near, rng.choice(all_rows, samples, replace=False)])
    nodes, weights = prob.nodes()
    payoffs, _ = ref.evaluate_many(models, family_prices(models, kind, rows), nodes, weights)
    k = int(np.argmax(payoffs))
    tol = OPT_TOL * prob.u_high
    if payoffs[k] > out.platform_payoff + tol:
        return [f"{prob.name} {kind}: family row {rows[k]} pays {payoffs[k]!r}, more than "
                f"the answer's (row {row}) {out.platform_payoff!r} + {tol:g}"]
    return []


def check_lattice(prob: Problem, oracle: pp.PricingOutcome, rng: np.random.Generator,
                  samples: int = 200) -> list[str]:
    """No sampled cell of the 400x400 lattice beats ``grid_oracle``."""
    lo, hi = _box(prob.models)
    idx = rng.integers(1, LATTICE_N + 1, (samples, len(lo)))
    cells = lo + (hi - lo) * (idx / LATTICE_N)
    nodes, weights = prob.nodes()
    payoffs, _ = ref.evaluate_many(prob.models, cells, nodes, weights)
    k = int(np.argmax(payoffs))
    if payoffs[k] > oracle.platform_payoff + MATCH_TOL * prob.u_high:
        return [f"{prob.name}: lattice cell {idx[k].tolist()} pays {payoffs[k]!r}, "
                f"more than grid_oracle's {oracle.platform_payoff!r}"]
    return []


def check_single(prob: Problem, model: pp.GaiModel, out: pp.PricingOutcome,
                 grid: int = 500) -> list[str]:
    """A single-tier answer re-scores as claimed (up to the quadrature error
    of its exact-mass evaluation) and no reference price grid beats it."""
    nodes, weights = prob.nodes()
    price = out.schedule.price_for(model)
    one = pp.ModelSet([model])
    payoff, _ = ref.evaluate(one, [price], nodes, weights)
    tol = OPT_TOL * model.utility
    bad = []
    if abs(payoff - out.platform_payoff) > tol:
        bad.append(f"{prob.name} single_model_price({model.id}): payoff {out.platform_payoff!r}, "
                   f"reference quadrature {payoff!r}")
    prices = model.cost + (model.utility - model.cost) * np.arange(1, grid + 1) / grid
    payoffs, _ = ref.evaluate_many(one, prices[:, None], nodes, weights)
    k = int(np.argmax(payoffs))
    if payoffs[k] > payoff + tol:
        bad.append(f"{prob.name} single_model_price({model.id}): price {prices[k]!r} pays "
                   f"{payoffs[k]!r}, more than the answer's {payoff!r} + {tol:g}")
    return bad


def check_single_closed_form(model: pp.GaiModel, out: pp.PricingOutcome) -> list[str]:
    """On Uniform(0, 1) with U = 1 the single-model optimum is (1 + C) / 2."""
    price = out.schedule.price_for(model)
    if abs(price - (1.0 + model.cost) / 2.0) > 1e-3:
        return [f"single_model_price({model.id}) on Uniform(0,1): price {price!r}, "
                f"closed form {(1.0 + model.cost) / 2.0!r}"]
    return []


# --------------------------------------------------------------------------
# Workloads
# --------------------------------------------------------------------------

@dataclass
class Workload:
    """Base: seeded inputs, a warm-up, one round of calls, checks."""

    seed: int
    out_dir: Path

    def generate(self) -> None:
        raise NotImplementedError

    def warm_up(self, api: Api) -> None:
        raise NotImplementedError

    def round(self, api: Api, rec: Recorder) -> None:
        raise NotImplementedError

    def check(self, calls: list[Call], api: Api) -> list[str]:
        raise NotImplementedError

    def derived(self, rounds: list[list[Call]]) -> dict[str, float]:
        """Per-layer figures taken from untraced rounds."""
        raise NotImplementedError

    def output_key(self, call: Call) -> Any:
        return fingerprint(call.output)

    def timed_round(self, api: Api, on_call=None, probe=None) -> tuple[Recorder, float]:
        """One round through a fresh recorder, and its wall seconds."""
        rec = Recorder(on_call, probe)
        start = time.perf_counter()
        self.round(api, rec)
        seconds = time.perf_counter() - start
        rec.finish()
        return rec, seconds


def _median_seconds(rounds: list[list[Call]], kind: str) -> float:
    times = [c.seconds for calls in rounds for c in calls if c.kind == kind and c.error is None]
    return statistics.median(times) if times else 0.0


@dataclass
class OppSearch(Workload):
    """``opp`` at the fig7 setting on both catalogues, two densities each."""

    def generate(self) -> None:
        rng = np.random.default_rng([self.seed, 1])
        self.problems = seeded_problems(rng)
        self.cfg = pp.OppConfig(step_alpha=0.002, quad=pp.QuadratureConfig(2001))
        self.check_rng = np.random.default_rng([self.seed, 101])

    def warm_up(self, api: Api) -> None:
        small = pp.OppConfig(step_alpha=0.1, quad=pp.QuadratureConfig(201))
        for prob in self.problems[::2]:
            api.opp(prob.models, prob.dist, small)

    def round(self, api: Api, rec: Recorder) -> None:
        for i, prob in enumerate(self.problems):
            rec.call(i, "opp", api.opp, prob.models, prob.dist, self.cfg)

    def check(self, calls: list[Call], api: Api) -> list[str]:
        bad = []
        for call in calls:
            prob = self.problems[call.op]
            oracle = api.grid_oracle(prob.models, prob.dist, LATTICE_N, prob.quad)
            bad += check_opp(prob, call.output, oracle, self.check_rng)
        return bad

    def derived(self, rounds: list[list[Call]]) -> dict[str, float]:
        payoffs = [c.output.platform_payoff for c in rounds[0] if c.error is None]
        return {
            "heterogeneous.opp_s": _median_seconds(rounds, "opp"),
            "heterogeneous.opp_payoff": statistics.fmean(payoffs) if payoffs else 0.0,
        }


@dataclass
class Mechanisms(Workload):
    """The benchmark mechanisms, the lattice oracle and single-tier pricing,
    plus timed schedule evaluations of the returned schedules."""

    def generate(self) -> None:
        rng = np.random.default_rng([self.seed, 2])
        self.problems = seeded_problems(rng)
        self.check_rng = np.random.default_rng([self.seed, 102])

    def warm_up(self, api: Api) -> None:
        quad = pp.QuadratureConfig(201)
        for prob in self.problems[::2]:
            api.utility_based_pricing(prob.models, prob.dist, quad)
            out = api.grid_oracle(prob.models, prob.dist, 50, quad)
            api.platform_payoff(prob.models, out.schedule, prob.dist, quad)
            api.single_model_price(prob.models.low, prob.dist, quad)

    def round(self, api: Api, rec: Recorder) -> None:
        for i, prob in enumerate(self.problems):
            args = (prob.models, prob.dist)
            schedules = [
                rec.call(i, "utility_based", api.utility_based_pricing, *args, prob.quad),
                rec.call(i, "cost_based", api.cost_based_pricing, *args, prob.quad),
                rec.call(i, "grid_oracle", api.grid_oracle, *args, LATTICE_N, prob.quad),
            ]
            for model in prob.models:
                rec.call(i, "single_model", api.single_model_price, model, prob.dist, prob.quad)
            for out in schedules:
                for _ in range(PAYOFF_REPEATS):
                    rec.call(i, "platform_payoff", api.platform_payoff, prob.models,
                             out.schedule if out is not None else None, prob.dist, prob.quad)

    def check(self, calls: list[Call], api: Api) -> list[str]:
        bad = []
        by_op: dict[int, list[Call]] = {}
        for call in calls:
            by_op.setdefault(call.op, []).append(call)
        for i, op_calls in by_op.items():
            prob = self.problems[i]
            pairs = [c for c in op_calls if c.kind in ("utility_based", "cost_based", "grid_oracle")]
            for c in pairs:
                bad += check_outcome(prob, c.output, c.kind)
            for c in pairs[:2]:
                bad += check_family(prob, c.output, c.kind, self.check_rng)
            bad += check_lattice(prob, pairs[2].output, self.check_rng)
            singles = [c for c in op_calls if c.kind == "single_model"]
            for model, c in zip(prob.models, singles):
                bad += check_single(prob, model, c.output)
            evals = [c for c in op_calls if c.kind == "platform_payoff"]
            for k, c in enumerate(pairs):
                for e in evals[k * PAYOFF_REPEATS:(k + 1) * PAYOFF_REPEATS]:
                    if e.output.platform_payoff != c.output.platform_payoff:
                        bad.append(f"{prob.name}: platform_payoff of the {c.kind} schedule is "
                                   f"{e.output.platform_payoff!r}, the solver said "
                                   f"{c.output.platform_payoff!r}")
        for _, models in fig7_catalogues():
            low = models.low
            out = api.single_model_price(low, pp.UniformAmbiguity(0.0, 1.0), pp.QuadratureConfig(2001))
            bad += check_single_closed_form(low, out)
        return bad

    def derived(self, rounds: list[list[Call]]) -> dict[str, float]:
        nodes = self.problems[0].quad.node_count
        oracle_s = _median_seconds(rounds, "grid_oracle")
        utility_s = _median_seconds(rounds, "utility_based")
        return {
            "heterogeneous.grid_oracle_s": oracle_s,
            "heterogeneous.utility_based_s": utility_s,
            "heterogeneous.cost_based_s": _median_seconds(rounds, "cost_based"),
            "heterogeneous.single_model_s": _median_seconds(rounds, "single_model"),
            "heterogeneous.lattice_ns_per_cell_node": oracle_s / (LATTICE_N ** 2 * nodes) * 1e9,
            "heterogeneous.family_ns_per_row_node": utility_s / (999 * nodes) * 1e9,
            "heterogeneous.schedule_eval_us": _median_seconds(rounds, "platform_payoff") * 1e6,
        }


USER_ROWS = 15_000
HOMOG_ROWS = 10_000
SWEEP_START, SWEEP_STOP = 0.001, 0.995
ROW_SAMPLES = 400
HOMOG_SAMPLES = 60


def _scenario_text(name: str, models: list[tuple[str, float, float, float | None]], points: int) -> str:
    lines = [f"[scenario]\nname = {name}\n"]
    for mid, utility, cost, price in models:
        lines.append(f"[model.{mid}]\nutility = {utility!r}\ncost = {cost!r}\n")
        if price is not None:
            lines.append(f"price = {price!r}\n")
    lines.append("[distribution]\nkind = uniform\nlo = 0.0\nhi = 1.0\n")
    lines.append(f"[sweep]\nvariable = eps\nstart = {SWEEP_START!r}\nstop = {SWEEP_STOP!r}\n"
                 f"points = {points}\n")
    return "\n".join(lines)


@dataclass
class UserSweep(Workload):
    """``cli.main`` in-process: ``user-strategy`` and ``homog-price`` over
    long eps sweeps of seeded generated scenario files."""

    def generate(self) -> None:
        rng = np.random.default_rng([self.seed, 3])
        u_high = float(np.round(rng.uniform(1.6, 2.0), 3))
        self.user_models = [
            ("ml", 1.0, 0.02, float(np.round(rng.uniform(0.06, 0.12), 4))),
            ("mh", u_high, 0.04, float(np.round(rng.uniform(0.25, 0.35), 4))),
        ]
        self.homog_models = [
            ("ml", 1.0, float(np.round(rng.uniform(0.04, 0.07), 4)), None),
            ("mh", u_high, float(np.round(rng.uniform(0.07, 0.11), 4)), None),
        ]
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.user_ini = self.out_dir / "user.ini"
        self.homog_ini = self.out_dir / "homog.ini"
        self.user_ini.write_text(_scenario_text("bench-user", self.user_models, USER_ROWS))
        self.homog_ini.write_text(_scenario_text("bench-homog", self.homog_models, HOMOG_ROWS))
        self.user_csv = self.out_dir / "user.csv"
        self.homog_csv = self.out_dir / "homog.csv"
        self.check_rng = np.random.default_rng([self.seed, 103])

    def warm_up(self, api: Api) -> None:
        small_user = self.out_dir / "warm-user.ini"
        small_homog = self.out_dir / "warm-homog.ini"
        small_user.write_text(_scenario_text("warm-user", self.user_models, 50))
        small_homog.write_text(_scenario_text("warm-homog", self.homog_models, 50))
        api.cli_main(["user-strategy", "--scenario", str(small_user),
                      "--out", str(self.out_dir / "warm-user.csv")])
        api.cli_main(["homog-price", "--scenario", str(small_homog),
                      "--out", str(self.out_dir / "warm-homog.csv")])

    def _verb(self, api: Api, rec: Recorder, kind: str, verb: str, ini: Path, out: Path) -> None:
        code = rec.call(0, kind, api.cli_main, [verb, "--scenario", str(ini), "--out", str(out)])
        call = rec.calls[-1]
        if call.error is None and code != 0:
            call.error = f"{verb} exited with code {code}"
        if call.error is None:
            data = out.read_bytes()
            call.output = (hashlib.sha256(data).hexdigest(), data.decode())

    def round(self, api: Api, rec: Recorder) -> None:
        self._verb(api, rec, "user_strategy", "user-strategy", self.user_ini, self.user_csv)
        self._verb(api, rec, "homog_price", "homog-price", self.homog_ini, self.homog_csv)

    def output_key(self, call: Call) -> Any:
        return call.output[0] if call.output is not None else None

    def check(self, calls: list[Call], api: Api) -> list[str]:
        bad = []
        for call in calls:
            text = call.output[1]
            if call.kind == "user_strategy":
                bad += check_user_rows(self.user_models, text, USER_ROWS, self.check_rng)
            else:
                bad += check_homog_rows(self.homog_models, text, HOMOG_ROWS, self.check_rng)
        return bad

    def derived(self, rounds: list[list[Call]]) -> dict[str, float]:
        user_s = _median_seconds(rounds, "user_strategy")
        homog_s = _median_seconds(rounds, "homog_price")
        return {
            "cli.user_rows_per_s": USER_ROWS / user_s if user_s else 0.0,
            "cli.homog_rows_per_s": HOMOG_ROWS / homog_s if homog_s else 0.0,
        }


def _models(spec) -> pp.ModelSet:
    return pp.ModelSet([pp.GaiModel(mid, u, c) for mid, u, c, _ in spec])


def _parse_rows(text: str) -> tuple[list[str], list[list[str]]]:
    rows = list(csv.reader(text.splitlines()))
    return rows[0], rows[1:]


def check_user_rows(spec, text: str, points: int, rng: np.random.Generator) -> list[str]:
    """Sampled rows match the reference exactly in counts and model, and
    the user's payoff never rises along the sweep."""
    models = list(_models(spec))
    prices = {mid: p for mid, _, _, p in spec}
    header, rows = _parse_rows(text)
    expected = ["eps"] + [f"n_star_{m.id}" for m in models] + ["selected_model", "user_payoff"]
    if header != expected or len(rows) != points:
        return [f"user-strategy: header {header} and {len(rows)} rows, expected {expected} "
                f"and {points} rows"]
    eps = np.linspace(SWEEP_START, SWEEP_STOP, points)
    pay = np.array([float(r[-1]) for r in rows])
    bad = []
    rises = np.flatnonzero(np.diff(pay) > 0.0)
    if len(rises):
        i = int(rises[0])
        bad.append(f"user-strategy: user payoff rises from {pay[i]!r} at eps {eps[i]!r} "
                   f"to {pay[i + 1]!r} at eps {eps[i + 1]!r}")
    picks = np.sort(rng.choice(points, ROW_SAMPLES, replace=False))
    counts, chosen, user = ref.decisions(models, [prices[m.id] for m in models], eps[picks])
    for k, i in enumerate(picks):
        row = rows[i]
        if abs(float(row[0]) - eps[i]) > 1e-11:
            bad.append(f"user-strategy row {i}: eps {row[0]}, sweep value {eps[i]!r}")
            continue
        want = [str(int(c)) for c in counts[:, k]]
        want_model = models[chosen[k]].id if chosen[k] >= 0 else "none"
        if row[1:1 + len(models)] != want or row[1 + len(models)] != want_model:
            bad.append(f"user-strategy row {i} (eps {eps[i]!r}): counts {row[1:1 + len(models)]} "
                       f"model {row[1 + len(models)]}, reference {want} {want_model}")
        elif abs(float(row[-1]) - user[k]) > 1e-9:
            bad.append(f"user-strategy row {i}: user payoff {row[-1]}, reference {user[k]!r}")
    return bad


def check_homog_rows(spec, text: str, points: int, rng: np.random.Generator,
                     grid: int = 2000) -> list[str]:
    """Each served row's price is the marginal gain of the induced count's
    last prompt, the payoff is its margin times that count, and sampled
    rows are no worse than a reference price grid less 1e-3 * U."""
    models = _models(spec)
    header, rows = _parse_rows(text)
    expected = ["eps", "price", "induced_count", "served_model", "prompt_count", "platform_payoff"]
    if header != expected or len(rows) != points:
        return [f"homog-price: header {header} and {len(rows)} rows, expected {expected} "
                f"and {points} rows"]
    eps = np.linspace(SWEEP_START, SWEEP_STOP, points)
    u_max = models.high.utility
    bad = []
    for i, row in enumerate(rows):
        price, k, served, count, payoff = float(row[1]), int(row[2]), row[3], int(row[4]), float(row[5])
        if served == "none":
            if payoff != 0.0:
                bad.append(f"homog-price row {i}: nobody served but payoff {payoff!r}")
            continue
        m = models[served]
        gain = eps[i] ** (k - 1) * (1.0 - eps[i]) * m.utility
        if k < 1 or count != k or abs(price - gain) > 1e-10 * m.utility:
            bad.append(f"homog-price row {i} (eps {eps[i]!r}): price {price!r}, count {count}, "
                       f"induced {k}; marginal gain of prompt {k} is {gain!r}")
        elif abs(payoff - (price - m.cost) * k) > 1e-10 * u_max:
            bad.append(f"homog-price row {i}: payoff {payoff!r}, margin times count "
                       f"{(price - m.cost) * k!r}")
        if len(bad) > 20:
            break
    picks = np.sort(rng.choice(points, HOMOG_SAMPLES, replace=False))
    best = np.max([ref.single_tier_grid_max(m, eps[picks], grid) for m in models], axis=0)
    for k, i in enumerate(picks):
        payoff = float(rows[i][5])
        if payoff < best[k] - OPT_TOL * u_max:
            bad.append(f"homog-price row {i} (eps {eps[i]!r}): payoff {payoff!r} below the "
                       f"reference price-grid maximum {best[k]!r}")
    return bad


WORKLOADS: dict[str, type[Workload]] = {
    "opp_search": OppSearch,
    "mechanisms": Mechanisms,
    "user_sweep": UserSweep,
}
