"""Command-line interface: scenario in, CSV (and optional JSON) out.

Verbs:

* ``user-strategy`` — per-ambiguity optimal prompt counts, model choice,
  and user payoff over the scenario's eps sweep.
* ``homog-price``  — optimal price, induced count, and platform payoff
  per ambiguity level over the eps sweep.
* ``opp``          — two-model optimal prompt pricing for the scenario's
  ambiguity distribution (one result row; optional per-step trace).
* ``compare``      — OPP against the utility- and cost-proportional
  benchmarks over an eps_min sweep.

Each verb accepts only the flags it reads (``_COMMANDS``).  Exit codes:
0 success, 2 scenario validation failure, 3 numerical failure, 4 usage
error (any other flag, and an output file that cannot be written,
included).
Output is deterministic: the same scenario and flags produce
byte-identical files.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

from .core import (
    ConfigError,
    InvalidDistribution,
    InvalidModel,
    PriceSchedule,
    PromptPricingError,
    UniformAmbiguity,
    check_ambiguity,
)
from .heterogeneous import cost_based_pricing, grid_oracle, opp, utility_based_pricing
from .homogeneous import homogeneous_payoff_curve
from .scenario import Scenario, ScenarioError, load_scenario
from .user_strategy import UNBOUNDED, _best, _options

EXIT_OK = 0
EXIT_SCENARIO = 2
EXIT_NUMERIC = 3
EXIT_USAGE = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _fmt(value) -> str:
    """Fixed 12-significant-digit rendering for CSV cells."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def _write_outputs(
    out_path: str, columns: list[str], rows: list[list], as_json: bool, command: str, name: str
) -> None:
    path = Path(out_path)
    json_rows = []  # each row's CSV cells, kept only for the JSON mirror
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            cells = [_fmt(v) for v in row]
            writer.writerow(cells)
            if as_json:
                json_rows.append(dict(zip(columns, cells)))
    if as_json:
        payload = {"command": command, "scenario": name, "columns": columns, "rows": json_rows}
        with open(path.with_suffix(".json"), "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=False)
            fh.write("\n")


def _require_sweep(scenario: Scenario, variable: str, command: str) -> None:
    if scenario.sweep is None or scenario.sweep.variable != variable:
        raise ScenarioError(
            scenario.name, [f"the {command} command needs a [sweep] section with variable = {variable}"])


def _count_cell(n) -> object:
    return "inf" if n is UNBOUNDED else int(n)


def cmd_user_strategy(scenario: Scenario, args: argparse.Namespace) -> tuple[list[str], list[list]]:
    _require_sweep(scenario, "eps", "user-strategy")
    models = scenario.models
    missing = [m.id for m in models if m.id not in scenario.prices]
    if missing:
        raise ScenarioError(
            scenario.name, [f"[model.{mid}] price: required by user-strategy" for mid in missing])
    schedule = PriceSchedule(scenario.prices)
    columns = ["eps"] + [f"n_star_{m.id}" for m in models] + ["selected_model", "user_payoff"]
    rows = []
    for eps in scenario.sweep.values():
        eps = check_ambiguity(eps)
        options = _options(models, schedule, eps)
        decision = _best(options)
        rows.append([eps, *(_count_cell(n) for _, n, _ in options),
                     decision.selected_model if decision.selected_model else "none",
                     decision.payoff])
    return columns, rows


def cmd_homog_price(scenario: Scenario, args: argparse.Namespace) -> tuple[list[str], list[list]]:
    _require_sweep(scenario, "eps", "homog-price")
    models = scenario.models
    grid = [float(e) for e in scenario.sweep.values()]
    columns = ["eps", "price", "induced_count", "served_model", "prompt_count", "platform_payoff"]
    rows = [[eps, point.price, point.induced_count, point.served_model or "none",
             point.prompt_count, point.payoff]
            for eps, point in zip(grid, homogeneous_payoff_curve(models, grid))]
    return columns, rows


def cmd_opp(scenario: Scenario, args: argparse.Namespace) -> tuple[list[str], list[list]]:
    models = scenario.models
    models.require_pair()
    dist = scenario.dist
    cfg = scenario.opp_config(nodes_override=args.nodes, alpha_override=args.alpha)
    trace: list | None = [] if args.trace else None
    outcome = opp(models, dist, cfg, trace_sink=trace)
    columns = [f"price_{m.id}" for m in models] + ["platform_payoff"] + \
        [f"volume_{m.id}" for m in models]
    row = [outcome.schedule.price_for(m) for m in models] + [outcome.platform_payoff] + \
        [outcome.prompt_volume[m.id] for m in models]
    if args.oracle:
        oracle = grid_oracle(models, dist, grid_n=200, quad=cfg.quad)
        columns.append("oracle_payoff")
        row.append(oracle.platform_payoff)
    if args.trace:
        _write_outputs(args.trace, ["step", "price_low", "price_high", "platform_payoff"],
                       [[i, *step] for i, step in enumerate(trace)], False, "opp", scenario.name)
    return columns, [row]


def cmd_compare(scenario: Scenario, args: argparse.Namespace) -> tuple[list[str], list[list]]:
    _require_sweep(scenario, "eps_min", "compare")
    if not isinstance(scenario.dist, UniformAmbiguity):
        raise ScenarioError(
            scenario.name, ["[distribution] kind: compare sweeps eps_min of a uniform distribution"])
    models = scenario.models
    models.require_pair()
    cfg = scenario.opp_config(nodes_override=args.nodes, alpha_override=args.alpha)
    columns = ["eps_min", "payoff_opp", "payoff_utility", "payoff_cost"]
    rows = []
    for eps_min in scenario.sweep.values():
        dist = UniformAmbiguity(float(eps_min), scenario.dist.hi)
        row_opp = opp(models, dist, cfg)
        row_util = utility_based_pricing(models, dist, cfg.quad)
        row_cost = cost_based_pricing(models, dist, cfg.quad)
        rows.append([float(eps_min), row_opp.platform_payoff,
                     row_util.platform_payoff, row_cost.platform_payoff])
    return columns, rows


# each verb's handler and the flags it reads; the parser offers no others
_COMMANDS = {
    "user-strategy": (cmd_user_strategy, ("--scenario", "--out", "--json")),
    "homog-price": (cmd_homog_price, ("--scenario", "--out", "--json")),
    "opp": (cmd_opp, ("--scenario", "--out", "--json", "--nodes", "--alpha",
                      "--oracle", "--trace")),
    "compare": (cmd_compare, ("--scenario", "--out", "--json", "--nodes", "--alpha")),
}


def build_parser() -> argparse.ArgumentParser:
    flags = {
        "--scenario": {"required": True, "help": "path to the scenario INI file"},
        "--out": {"required": True, "help": "path of the CSV output file"},
        "--json": {"action": "store_true", "help": "also write a JSON mirror next to the CSV"},
        "--nodes": {"type": int, "help": "override the scenario's quadrature node count"},
        "--alpha": {"type": float, "help": "override the scenario's low-tier price step"},
        "--oracle": {"action": "store_true",
                     "help": "append an exhaustive-lattice oracle payoff column"},
        "--trace": {"help": "write one CSV row per sweep step to this path"},
    }
    parser = _Parser(prog="prompt-pricing",
                     description="Prompt pricing solvers for per-prompt AI content services")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, verb_flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=f"run the {name} computation")
        for flag in verb_flags:
            p.add_argument(flag, **flags[flag])
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        scenario = load_scenario(args.scenario)
        columns, rows = _COMMANDS[args.command][0](scenario, args)
        _write_outputs(args.out, columns, rows, args.json, args.command, scenario.name)
    except ScenarioError as exc:
        print(exc, file=sys.stderr)
        return EXIT_SCENARIO
    except (InvalidModel, InvalidDistribution) as exc:
        print(f"invalid scenario content: {exc}", file=sys.stderr)
        return EXIT_SCENARIO
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except PromptPricingError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:  # the scenario loader reports its own read errors
        print(f"error: cannot write {exc.filename}: {exc.strerror}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
