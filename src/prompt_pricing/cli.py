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
import io
import json
import sys
from dataclasses import replace
from pathlib import Path

from .core import (
    ConfigError,
    InvalidDistribution,
    InvalidModel,
    PromptPricingError,
    QuadratureConfig,
    UniformAmbiguity,
    check_ambiguity,
)
from .heterogeneous import OppConfig, cost_based_pricing, grid_oracle, opp, utility_based_pricing
from .homogeneous import _curve_rows
from .scenario import Scenario, ScenarioError, load_scenario
from .user_strategy import UNBOUNDED, _decision_for, _pick

EXIT_OK = 0
EXIT_SCENARIO = 2
EXIT_NUMERIC = 3
EXIT_USAGE = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(EXIT_USAGE)


class _Quoted(dict):
    """Text cells under csv's QUOTE_MINIMAL rule, each distinct one rendered once."""

    def __missing__(self, text):
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerow([text])
        self[text] = cell = buf.getvalue()[:-1]
        return cell


def _write_outputs(out_path: str, columns: list[str], rows: list[list]) -> None:
    """Stream ``rows`` to a CSV file through one ``%``-format line made from the
    first row's cell kinds (every verb keeps one kind per column; counts mix ints
    and "inf"): floats, ``np.float64`` too, at 12 significant digits, text quoted
    as ``csv.writer`` quotes it, ints and "inf" as they print."""
    quoted = _Quoted()
    with open(out_path, "w", newline="") as fh:
        fh.write(",".join(quoted[c] for c in columns) + "\n")
        if rows:
            line = ",".join("%.12g" if isinstance(v, float) else "%s" for v in rows[0]) + "\n"
            text = [i for i, v in enumerate(rows[0]) if isinstance(v, str)]
            for row in rows:
                cells = list(row)
                for i in text:
                    cells[i] = quoted[cells[i]]
                fh.write(line % tuple(cells))


def _write_json(out_path: str, command: str, name: str) -> None:
    """The CSV's JSON mirror in ``json.dump(..., indent=2)``'s layout, for a CSV
    of one row or more; its cells are the CSV's as ``csv.reader`` reads them."""
    enc = json.encoder.encode_basestring_ascii
    with open(out_path, newline="") as fh, open(Path(out_path).with_suffix(".json"), "w") as out:
        reader = csv.reader(fh)
        columns = next(reader)
        keys = [f"\n      {enc(c)}: " for c in columns]
        out.write(f'{{\n  "command": {enc(command)},\n  "scenario": {enc(name)},\n  "columns": [')
        out.write(",".join(f"\n    {enc(c)}" for c in columns) + '\n  ],\n  "rows": [')
        for i, cells in enumerate(reader):
            out.write((",\n    {" if i else "\n    {")
                      + ",".join(map(str.__add__, keys, map(enc, cells))) + "\n    }")
        out.write("\n  ]\n}\n")


def _solver_config(scenario: Scenario, args: argparse.Namespace) -> OppConfig:
    """The scenario's ``opp`` settings with ``--nodes`` and ``--alpha`` applied."""
    cfg = scenario.opp
    if args.nodes is not None:
        cfg = replace(cfg, quad=QuadratureConfig(args.nodes))
    if args.alpha is not None:
        cfg = replace(cfg, step_alpha=args.alpha)
    return cfg


def _require_sweep(scenario: Scenario, variable: str, command: str) -> None:
    if scenario.sweep is None or scenario.sweep.variable != variable:
        raise ScenarioError(
            scenario.name, [f"the {command} command needs a [sweep] section with variable = {variable}"])


def cmd_user_strategy(scenario: Scenario, args: argparse.Namespace) -> tuple[list[str], list[list]]:
    _require_sweep(scenario, "eps", "user-strategy")
    models = scenario.models
    missing = [m.id for m in models if m.id not in scenario.prices]
    if missing:
        raise ScenarioError(
            scenario.name, [f"[model.{mid}] price: required by user-strategy" for mid in missing])
    priced = [(model, scenario.prices[model.id]) for model in models]
    columns = ["eps"] + [f"n_star_{m.id}" for m in models] + ["selected_model", "user_payoff"]
    rows = []
    for eps in scenario.sweep.values().tolist():
        eps = check_ambiguity(eps)
        options = [(model, *_decision_for(model, price, eps)) for model, price in priced]
        chosen, _, payoff = _pick(options) or (None, 0, 0.0)
        rows.append([eps, *["inf" if n is UNBOUNDED else n for _, n, _ in options],
                     chosen.id if chosen else "none", payoff])
    return columns, rows


def cmd_homog_price(scenario: Scenario, args: argparse.Namespace) -> tuple[list[str], list[list]]:
    _require_sweep(scenario, "eps", "homog-price")
    columns = ["eps", "price", "induced_count", "served_model", "prompt_count", "platform_payoff"]
    rows = [[eps, price, k, served or "none", n, payoff] for eps, price, n, payoff, k, served
            in _curve_rows(scenario.models, scenario.sweep.values().tolist())]
    return columns, rows


def cmd_opp(scenario: Scenario, args: argparse.Namespace) -> tuple[list[str], list[list]]:
    models = scenario.models
    dist = scenario.dist
    cfg = _solver_config(scenario, args)
    outcome = opp(models, dist, cfg)
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
                       [[i, *step] for i, step in enumerate(outcome.trace)])
    return columns, [row]


def cmd_compare(scenario: Scenario, args: argparse.Namespace) -> tuple[list[str], list[list]]:
    _require_sweep(scenario, "eps_min", "compare")
    if not isinstance(scenario.dist, UniformAmbiguity):
        raise ScenarioError(
            scenario.name, ["[distribution] kind: compare sweeps eps_min of a uniform distribution"])
    models = scenario.models
    cfg = _solver_config(scenario, args)
    columns = ["eps_min", "payoff_opp", "payoff_utility", "payoff_cost"]
    rows = []
    for eps_min in scenario.sweep.values().tolist():
        dist = UniformAmbiguity(eps_min, scenario.dist.hi)
        rows.append([eps_min, opp(models, dist, cfg).platform_payoff,
                     utility_based_pricing(models, dist, cfg.quad).platform_payoff,
                     cost_based_pricing(models, dist, cfg.quad).platform_payoff])
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
        _write_outputs(args.out, columns, rows)
        if args.json:
            _write_json(args.out, args.command, scenario.name)
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
