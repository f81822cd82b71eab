"""Scenario loading, CLI verbs, output formats, and exit codes."""

import csv
import json
import math
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from prompt_pricing import (
    UNBOUNDED,
    PriceSchedule,
    optimal_homogeneous_price,
    optimal_prompt_count,
    select_model,
)
from prompt_pricing import cli
from prompt_pricing.cli import main
from prompt_pricing.scenario import ScenarioError, load_scenario
from prompt_pricing.user_strategy import marginal_expected_utility

from _helpers import csv_writer_outputs, fmt_cell, package_env

REPO = Path(__file__).resolve().parent.parent
SCENARIOS = REPO / "scenarios"


def run_cli(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "prompt_pricing.cli", *args],
        capture_output=True, text=True, env=package_env())


def write_scenario(tmp_path: Path, body: str, name: str = "case.ini") -> Path:
    path = tmp_path / name
    path.write_text(body)
    return path


TWO_MODEL = """
[scenario]
name = test-pair

[model.ml]
utility = 1.0
cost = 0.02
price = 0.1

[model.mh]
utility = 1.8
cost = 0.04
price = 0.3

[distribution]
kind = uniform
lo = 0.0
hi = 1.0

[quadrature]
nodes = 301

[opp]
alpha = 0.05

[sweep]
variable = eps
start = 0.05
stop = 0.95
points = 7
"""

COMPARE_ONE_POINT = TWO_MODEL.replace("variable = eps\nstart = 0.05\nstop = 0.95\npoints = 7",
                                      "variable = eps_min\nstart = 0.3\nstop = 0.3\npoints = 1")


class TestScenarioLoading:
    def test_shipped_scenarios_load(self):
        for name in ("fig4b", "fig5", "fig6", "fig7a", "fig7b"):
            scenario = load_scenario(SCENARIOS / f"{name}.ini")
            assert scenario.models
            assert scenario.sweep is not None

    def test_all_violations_reported_at_once(self, tmp_path):
        path = write_scenario(tmp_path, """
[model.a]
utility = -3
cost = -1
[distribution]
kind = nosuch
[quadrature]
nodes = 1
[sweep]
variable = eps
start = 0.9
stop = 0.1
points = 5
""")
        with pytest.raises(ScenarioError) as err:
            load_scenario(path)
        messages = err.value.violations
        assert len(messages) >= 5
        assert any("utility" in m for m in messages)
        assert any("cost" in m for m in messages)
        assert any("kind" in m for m in messages)
        assert any("nodes" in m for m in messages)
        assert any("start" in m for m in messages)

    def test_every_field_violation_reported(self, tmp_path):
        """One broken value in each section: no violation hides another."""
        path = write_scenario(tmp_path, """
[model.a]
utility = -3
cost = -1
[model.b]
utility = lots
price = -0.5
[distribution]
kind = tabulated
knots = 0.9, 0.5, 0.1
values = 1.0, many, 2.0
[quadrature]
nodes = 1
[opp]
alpha = -1
refinement = maybe
[sweep]
variable = eps
start = 0.9
stop = 0.1
points = 5
""")
        with pytest.raises(ScenarioError) as err:
            load_scenario(path)
        messages = err.value.violations
        for field in ("[model.a]", "[model.b]", "price", "[distribution]",
                      "nodes", "alpha", "refinement", "start"):
            assert any(field in m for m in messages), field
        assert main(["opp", "--scenario", str(path), "--out", str(tmp_path / "x.csv")]) == 2

    def test_unread_sections_and_keys_reported(self, tmp_path):
        """A misspelt key, a key no longer read and a stray section each get
        one message, filed under where they are; none is ignored."""
        body = TWO_MODEL.replace("alpha = 0.05", "alhpa = 0.05\nrefinement = true")
        path = write_scenario(tmp_path, body + "\n[extra]\nnote = 1\n")
        with pytest.raises(ScenarioError) as err:
            load_scenario(path)
        assert err.value.violations == [
            "[opp] alhpa: unknown key", "[opp] refinement: unknown key", "[extra]: unknown section"]
        assert main(["opp", "--scenario", str(path), "--out", str(tmp_path / "x.csv")]) == 2

    @pytest.mark.parametrize("sweep, message", [
        ("variable = eps_max\nstart = 0.05\nstop = 0.95\npoints = 7",
         "variable: must be 'eps' or 'eps_min', got 'eps_max'"),
        ("variable = eps\nstart = 0.05\nstop = 0.95\npoints = 0", "points: must be >= 1, got 0"),
        ("variable = eps\nstart = 0.0\nstop = 0.5\npoints = 7",
         "start/stop: eps sweep must stay inside (0, 1), got [0.0, 0.5]"),
        ("variable = eps\nstart = 0.5\nstop = 1.0\npoints = 7",
         "start/stop: eps sweep must stay inside (0, 1), got [0.5, 1.0]"),
        ("variable = eps_min\nstart = -0.1\nstop = 0.5\npoints = 7",
         "start/stop: eps_min sweep must stay inside [0, hi), got [-0.1, 0.5] with hi=1.0"),
        ("variable = eps_min\nstart = 0.5\nstop = 1.0\npoints = 7",
         "start/stop: eps_min sweep must stay inside [0, hi), got [0.5, 1.0] with hi=1.0"),
    ], ids=["variable", "points", "eps-at-0", "eps-at-1", "eps_min-below-0", "eps_min-at-hi"])
    def test_sweep_violation(self, tmp_path, sweep, message):
        body = TWO_MODEL.replace("variable = eps\nstart = 0.05\nstop = 0.95\npoints = 7", sweep)
        with pytest.raises(ScenarioError) as err:
            load_scenario(write_scenario(tmp_path, body))
        assert err.value.violations == [f"[sweep] {message}"]

    @pytest.mark.parametrize("body", [
        "utility = 1.0\n[model.a]\n",
        "[model.a]\nutility = 1.0\n[model.a]\ncost = 0.1\n",
        "[model.a]\nutility = 1.0\nutility = 2.0\n",
    ], ids=["no-section-header", "duplicate-section", "duplicate-key"])
    def test_malformed_ini(self, tmp_path, body):
        path = write_scenario(tmp_path, body)
        with pytest.raises(ScenarioError) as err:
            load_scenario(path)
        assert err.value.path == str(path)
        assert len(err.value.violations) == 1
        assert err.value.violations[0].startswith("malformed INI: ")

    def test_fields_parse(self, tmp_path):
        scenario = load_scenario(write_scenario(tmp_path, TWO_MODEL))
        assert scenario.name == "test-pair"
        assert scenario.prices == {"ml": 0.1, "mh": 0.3}
        assert scenario.opp.quad.node_count == 301
        assert scenario.opp.step_alpha == 0.05
        assert scenario.sweep.points == 7
        assert len(scenario.sweep.values()) == 7


class TestCliCommands:
    def test_user_strategy_schema_and_rows(self, tmp_path):
        scen = write_scenario(tmp_path, TWO_MODEL)
        out = tmp_path / "rows.csv"
        assert main(["user-strategy", "--scenario", str(scen), "--out", str(out)]) == 0
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["eps", "n_star_ml", "n_star_mh", "selected_model", "user_payoff"]
        assert len(rows) == 8  # header + 7 sweep points

    def test_user_strategy_requires_prices(self, tmp_path):
        scen = write_scenario(tmp_path, TWO_MODEL.replace("price = 0.1\n", ""))
        assert main(["user-strategy", "--scenario", str(scen), "--out", str(tmp_path / "x.csv")]) == 2

    def test_homog_price_runs(self, tmp_path):
        scen = write_scenario(tmp_path, TWO_MODEL)
        out = tmp_path / "homog.csv"
        assert main(["homog-price", "--scenario", str(scen), "--out", str(out)]) == 0
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["eps", "price", "induced_count", "served_model",
                           "prompt_count", "platform_payoff"]
        # a served row quotes its model's gain of the induced k-th prompt, and a
        # user facing that price buys exactly k prompts
        scenario = load_scenario(scen)
        served = [(eps, row) for eps, row in zip(scenario.sweep.values().tolist(), rows[1:])
                  if row[3] != "none"]
        assert served
        for eps, row in served:
            utility = scenario.models[row[3]].utility
            assert row[1] == fmt_cell(marginal_expected_utility(utility, eps, int(row[2])))
            assert row[4] == row[2]

    def test_opp_row_trace_and_oracle(self, tmp_path):
        scen = write_scenario(tmp_path, TWO_MODEL)
        out = tmp_path / "opp.csv"
        trace = tmp_path / "trace.csv"
        code = main(["opp", "--scenario", str(scen), "--out", str(out),
                     "--trace", str(trace), "--oracle", "--json"])
        assert code == 0
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["price_ml", "price_mh", "platform_payoff",
                           "volume_ml", "volume_mh", "oracle_payoff"]
        assert len(rows) == 2
        opp_payoff = float(rows[1][2])
        oracle_payoff = float(rows[1][5])
        assert opp_payoff >= oracle_payoff - 1e-2
        with open(trace) as fh:
            trace_rows = list(csv.reader(fh))
        # sweep over (1.0 - 0.02) / 0.05 grid steps plus the utility endpoint
        assert len(trace_rows) - 1 == 21
        mirror = json.loads((tmp_path / "opp.json").read_text())
        assert mirror["columns"] == rows[0]
        assert mirror["rows"][0]["platform_payoff"] == rows[1][2]

    def test_dead_tier_trace_is_only_the_header(self, tmp_path):
        """A low tier whose cost is above its utility makes ``opp`` price the
        high tier alone, with no sweep: the trace file is its header."""
        scen = write_scenario(tmp_path, TWO_MODEL.replace("cost = 0.02", "cost = 1.2"))
        trace = tmp_path / "trace.csv"
        assert main(["opp", "--scenario", str(scen), "--out", str(tmp_path / "x.csv"),
                     "--trace", str(trace)]) == 0
        assert trace.read_text() == "step,price_low,price_high,platform_payoff\n"

    def test_compare_single_point_equals_individual_methods(self, tmp_path):
        scen = write_scenario(tmp_path, COMPARE_ONE_POINT)
        out = tmp_path / "cmp.csv"
        assert main(["compare", "--scenario", str(scen), "--out", str(out)]) == 0
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["eps_min", "payoff_opp", "payoff_utility", "payoff_cost"]
        from prompt_pricing import UniformAmbiguity, cost_based_pricing, opp, utility_based_pricing
        scenario = load_scenario(scen)
        models = scenario.models
        dist = UniformAmbiguity(0.3, 1.0)
        cfg = scenario.opp
        # CSV cells carry 12 significant digits, so compare at that precision
        assert float(rows[1][1]) == pytest.approx(
            opp(models, dist, cfg).platform_payoff, rel=1e-11)
        assert float(rows[1][2]) == pytest.approx(
            utility_based_pricing(models, dist, cfg.quad).platform_payoff, rel=1e-11)
        assert float(rows[1][3]) == pytest.approx(
            cost_based_pricing(models, dist, cfg.quad).platform_payoff, rel=1e-11)

    def test_flag_overrides_change_resolution(self, tmp_path):
        scen = write_scenario(tmp_path, TWO_MODEL)
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        assert main(["opp", "--scenario", str(scen), "--out", str(out_a),
                     "--nodes", "151", "--alpha", "0.1"]) == 0
        assert main(["opp", "--scenario", str(scen), "--out", str(out_b),
                     "--nodes", "151", "--alpha", "0.1"]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()


def sweep_scenario(models, start: float, stop: float, points: int, key: str = "price") -> str:
    """An eps-sweep scenario body; ``models`` holds ``(id, utility, value)``,
    with each model's value under ``key``."""
    parts = [f"[scenario]\nname = rows\n"]
    parts += [f"[model.{mid}]\nutility = {u!r}\n{key} = {v!r}\n" for mid, u, v in models]
    parts.append("[distribution]\nkind = uniform\nlo = 0.0\nhi = 1.0\n")
    parts.append(f"[sweep]\nvariable = eps\nstart = {start!r}\nstop = {stop!r}\npoints = {points}\n")
    return "\n".join(parts)


# eps of the third point of a 0.05..0.95 sweep of 7 points, as the loader computes it
INDIFFERENT_EPS = float(np.linspace(0.05, 0.95, 7)[2])


class TestUserStrategyRows:
    """Every ``user-strategy`` row equals the public per-eps route:
    ``optimal_prompt_count`` per model and ``select_model``, rendered by
    the CLI's cell format."""

    CASES = {
        "zero-price": ([("ml", 1.0, 0.0), ("mh", 1.8, 0.3)], 0.05, 0.95, 7),
        "indifference": ([("ml", 1.0, marginal_expected_utility(1.0, INDIFFERENT_EPS, 3)),
                          ("mh", 1.8, 0.3)], 0.05, 0.95, 7),
        "prohibitive": ([("ml", 1.0, 0.1), ("mh", 1.8, 2.5)], 0.05, 0.95, 7),
        # at eps = 0.5 all three pay exactly 0.25: a sends 2 prompts, b and c one
        "utility-tie": ([("a", 1.0, 0.25), ("b", 2.0, 0.75), ("c", 2.0, 0.75)], 0.25, 0.75, 3),
    }

    @staticmethod
    def public_rows(scenario) -> list[list[str]]:
        schedule = PriceSchedule(scenario.prices)
        rows = []
        for eps in scenario.sweep.values():
            eps = float(eps)
            counts = [optimal_prompt_count(m, schedule.price_for(m), eps) for m in scenario.models]
            decision = select_model(scenario.models, schedule, eps)
            rows.append([fmt_cell(eps), *("inf" if n is UNBOUNDED else fmt_cell(n) for n in counts),
                         decision.selected_model or "none", fmt_cell(decision.payoff)])
        return rows

    def run(self, tmp_path, case):
        scen = write_scenario(tmp_path, sweep_scenario(*self.CASES[case]))
        out = tmp_path / "rows.csv"
        assert main(["user-strategy", "--scenario", str(scen), "--out", str(out)]) == 0
        with open(out) as fh:
            rows = list(csv.reader(fh))
        scenario = load_scenario(scen)
        assert rows[1:] == self.public_rows(scenario)
        return rows

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_rows_equal_public_route(self, tmp_path, case):
        self.run(tmp_path, case)

    def test_zero_price_writes_inf_beside_finite_counts(self, tmp_path):
        rows = self.run(tmp_path, "zero-price")
        assert {row[1] for row in rows[1:]} == {"inf"}
        assert all(row[2] != "inf" for row in rows[1:])

    def test_price_at_marginal_gain_buys_that_prompt(self, tmp_path):
        rows = self.run(tmp_path, "indifference")
        assert rows[3][0] == fmt_cell(INDIFFERENT_EPS)
        assert rows[3][1] == "3"

    def test_prohibitive_price_counts_zero(self, tmp_path):
        rows = self.run(tmp_path, "prohibitive")
        assert {row[2] for row in rows[1:]} == {"0"}

    def test_payoff_tie_goes_to_higher_utility_then_smaller_id(self, tmp_path):
        rows = self.run(tmp_path, "utility-tie")
        assert rows[2] == ["0.5", "2", "1", "1", "b", "0.25"]


class TestHomogPriceRows:
    """Every ``homog-price`` row equals the public per-eps route:
    ``optimal_homogeneous_price``, and ``optimal_prompt_count`` of its best
    model at its quoted price, rendered by the CLI's cell format."""

    CASES = {
        "no-trade": ([("ml", 1.0, 1.2), ("mh", 1.8, 2.0)], 0.05, 0.95, 7),
        "zero-cost": ([("ml", 1.0, 0.0), ("mh", 1.8, 1.5)], 0.05, 0.999, 7),
        # at eps = 0.5 all three earn exactly 0.25 from one prompt
        "utility-tie": ([("a", 1.0, 0.25), ("b", 2.0, 0.75), ("c", 2.0, 0.75)], 0.25, 0.75, 3),
    }

    @staticmethod
    def public_rows(scenario) -> list[list[str]]:
        rows = []
        for eps in scenario.sweep.values().tolist():
            sol = optimal_homogeneous_price(scenario.models, eps)
            price = sol.schedule.prices[sol.best_model]
            count = optimal_prompt_count(scenario.models[sol.best_model], price, eps)
            rows.append([fmt_cell(eps), fmt_cell(price), fmt_cell(sol.induced_count),
                         sol.served_model or "none", fmt_cell(count), fmt_cell(sol.platform_payoff)])
        return rows

    def run(self, tmp_path, scen: Path) -> list[list[str]]:
        out = tmp_path / "rows.csv"
        assert main(["homog-price", "--scenario", str(scen), "--out", str(out)]) == 0
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert rows[1:] == self.public_rows(load_scenario(scen))
        return rows

    def run_case(self, tmp_path, case: str) -> list[list[str]]:
        return self.run(tmp_path, write_scenario(tmp_path, sweep_scenario(*self.CASES[case], "cost")))

    def test_no_trade_writes_none_and_zeros(self, tmp_path):
        rows = self.run_case(tmp_path, "no-trade")
        assert all(row[2:] == ["0", "none", "0", "0"] for row in rows[1:])

    def test_zero_cost_counts_rise_without_bound(self, tmp_path):
        rows = self.run_case(tmp_path, "zero-cost")
        assert {row[3] for row in rows[1:]} == {"ml"}
        counts = [int(row[2]) for row in rows[1:]]
        # the induced count of a free model grows like 1/(1-eps); at the last eps it is the
        # first count above eps/(1-eps), 999: the float 0.999 lies below 0.999
        eps = Fraction(float(rows[-1][0]))
        assert all(b >= a for a, b in zip(counts, counts[1:]))
        assert counts[-1] == math.floor(eps / (1 - eps)) + 1 == 999

    def test_payoff_tie_goes_to_higher_utility_then_smaller_id(self, tmp_path):
        rows = self.run_case(tmp_path, "utility-tie")
        assert rows[2] == ["0.5", "1", "1", "b", "1", "0.25"]

    def test_fig6(self, tmp_path):
        rows = self.run(tmp_path, SCENARIOS / "fig6.ini")
        assert len(rows) == 200


class TestMoreScenarios:
    def test_prohibitive_prices_opt_everyone_out(self, tmp_path):
        body = TWO_MODEL.replace("price = 0.1", "price = 1.5").replace("price = 0.3", "price = 2.5")
        scen = write_scenario(tmp_path, body)
        out = tmp_path / "rows.csv"
        assert main(["user-strategy", "--scenario", str(scen), "--out", str(out)]) == 0
        with open(out) as fh:
            rows = list(csv.reader(fh))
        for row in rows[1:]:
            assert row[3] == "none"
            assert float(row[4]) == 0.0

    def test_tabulated_distribution_end_to_end(self, tmp_path):
        body = TWO_MODEL.replace(
            "kind = uniform\nlo = 0.0\nhi = 1.0",
            "kind = tabulated\nknots = 0.1, 0.5, 0.9\nvalues = 1.0, 3.0, 0.5")
        scen = write_scenario(tmp_path, body)
        out = tmp_path / "opp.csv"
        assert main(["opp", "--scenario", str(scen), "--out", str(out)]) == 0
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert float(rows[1][2]) > 0.0


class TestExitCodes:
    def test_missing_scenario_file(self, tmp_path):
        proc = run_cli("opp", "--scenario", str(tmp_path / "nope.ini"),
                       "--out", str(tmp_path / "x.csv"))
        assert proc.returncode == 2
        assert "cannot read file" in proc.stderr

    def test_invalid_scenario_lists_all_problems(self, tmp_path):
        bad = write_scenario(tmp_path, "[model.a]\nutility = 0\ncost = -1\n")
        proc = run_cli("user-strategy", "--scenario", str(bad), "--out", str(tmp_path / "x.csv"))
        assert proc.returncode == 2
        assert proc.stderr.count("- ") >= 2

    def test_usage_error(self):
        proc = run_cli("no-such-verb")
        assert proc.returncode == 4

    def test_wrong_sweep_variable(self, tmp_path):
        scen = write_scenario(tmp_path, TWO_MODEL)
        proc = run_cli("compare", "--scenario", str(scen), "--out", str(tmp_path / "x.csv"))
        assert proc.returncode == 2

    def test_compare_needs_a_uniform_distribution(self, tmp_path, capsys):
        body = COMPARE_ONE_POINT.replace(
            "kind = uniform\nlo = 0.0\nhi = 1.0",
            "kind = tabulated\nknots = 0.1, 0.5, 0.9\nvalues = 1.0, 3.0, 0.5")
        scen = write_scenario(tmp_path, body)
        out = tmp_path / "x.csv"
        assert main(["compare", "--scenario", str(scen), "--out", str(out)]) == 2
        assert capsys.readouterr().err.endswith(
            "  - [distribution] kind: compare sweeps eps_min of a uniform distribution\n")
        assert not out.exists()

    def test_one_model_scenario_cannot_run_opp(self, tmp_path):
        body = "\n".join(line for line in TWO_MODEL.splitlines()
                         if True) .replace("""[model.mh]
utility = 1.8
cost = 0.04
price = 0.3

""", "")
        scen = write_scenario(tmp_path, body)
        proc = run_cli("opp", "--scenario", str(scen), "--out", str(tmp_path / "x.csv"))
        assert proc.returncode == 2
        assert "two models" in proc.stderr

    @pytest.mark.parametrize("verb, body", [("opp", TWO_MODEL), ("compare", COMPARE_ONE_POINT)])
    def test_three_model_scenario_cannot_run_pair_verbs(self, tmp_path, capsys, verb, body):
        third = "[model.mx]\nutility = 2.5\ncost = 0.05\nprice = 0.5\n\n[distribution]"
        scen = write_scenario(tmp_path, body.replace("[distribution]", third))
        out = tmp_path / "x.csv"
        assert main([verb, "--scenario", str(scen), "--out", str(out)]) == 2
        assert "expected exactly two models, got 3" in capsys.readouterr().err
        assert not out.exists()

    def test_step_at_low_utility_is_a_usage_error(self, tmp_path, capsys):
        """``opp`` checks the step against the low tier's utility (1.0 in fig7a)."""
        out = tmp_path / "x.csv"
        assert main(["opp", "--scenario", str(SCENARIOS / "fig7a.ini"), "--out", str(out),
                     "--alpha", "1.5"]) == 4
        assert capsys.readouterr().err == "error: step_alpha must lie in (0, U_L), got 1.5\n"
        assert not out.exists()

    @pytest.mark.parametrize("verb", ["opp", "compare"])
    def test_tiny_step_is_a_usage_error(self, tmp_path, capsys, verb):
        """A step whose sweep numpy could not allocate exits 4 before any work."""
        out = tmp_path / "x.csv"
        assert main([verb, "--scenario", str(SCENARIOS / "fig7a.ini"), "--out", str(out),
                     "--alpha", "1e-12"]) == 4
        assert capsys.readouterr().err == (
            "error: step_alpha 1e-12 makes more than 100,000 sweep steps; "
            "the step must be above 9.8e-06\n")
        assert not out.exists()

    def test_tiny_cost_is_a_numerical_failure(self, tmp_path, capsys):
        """A low-tier cost just under max U / 1000 (1.8 / 1000 here) would
        give the cost-proportional markup grid 1,000,056 rows, just past its
        1,000,000-row cap: ``compare`` exits 3 before building it, so a
        missing cap costs megabytes here, not the gigabytes of a cost of 1e-6."""
        body = COMPARE_ONE_POINT.replace("cost = 0.02", "cost = 0.0017999")
        scen = write_scenario(tmp_path, body)
        out = tmp_path / "x.csv"
        assert main(["compare", "--scenario", str(scen), "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            "numerical failure: cost-proportional pricing would sweep more than 1,000,000 "
            "markups; every cost must be above 0.0018 (max U / 1000)\n")
        assert not out.exists()

    def test_too_many_count_steps_is_a_numerical_failure(self, tmp_path):
        """fig7a with both costs 0 under U(0.999, 1) would profile about 26
        million prompt-count steps; ``opp`` exits 3 with one line, no traceback."""
        body = (TWO_MODEL.replace("cost = 0.02", "cost = 0.0").replace("cost = 0.04", "cost = 0.0")
                .replace("lo = 0.0", "lo = 0.999").replace("nodes = 301", "nodes = 201")
                .replace("alpha = 0.05", "alpha = 0.02"))
        scen = write_scenario(tmp_path, body)
        out = tmp_path / "x.csv"
        proc = run_cli("opp", "--scenario", str(scen), "--out", str(out))
        assert proc.returncode == 3
        assert proc.stderr.startswith("numerical failure: the price 1e-12 at utility 1.8 makes ")
        assert proc.stderr.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--out", "--trace"])
    def test_unwritable_output_is_a_usage_error(self, tmp_path, capsys, flag):
        scen = write_scenario(tmp_path, TWO_MODEL)
        paths = {"--out": str(tmp_path / "x.csv"), "--trace": str(tmp_path / "t.csv")}
        paths[flag] = str(tmp_path / "missing" / "x.csv")
        code = main(["opp", "--scenario", str(scen), "--out", paths["--out"],
                     "--trace", paths["--trace"]])
        assert code == 4
        err = capsys.readouterr().err
        assert err == f"error: cannot write {paths[flag]}: No such file or directory\n"

    def test_nodes_checked_only_by_the_verbs_that_read_it(self, tmp_path, capsys):
        """``--nodes`` is offered only by the verbs that build a quadrature,
        where QuadratureConfig checks it; user-strategy rejects the flag."""
        scen = write_scenario(tmp_path, TWO_MODEL)
        out = str(tmp_path / "x.csv")
        with pytest.raises(SystemExit) as exc:
            main(["user-strategy", "--scenario", str(scen), "--out", out, "--nodes", "1"])
        assert exc.value.code == 4
        assert "unrecognized arguments: --nodes 1" in capsys.readouterr().err
        assert main(["opp", "--scenario", str(scen), "--out", out, "--nodes", "1"]) == 4
        assert "node_count must be >= 3, got 1" in capsys.readouterr().err
        scen = write_scenario(tmp_path, COMPARE_ONE_POINT, "sweep.ini")
        assert main(["compare", "--scenario", str(scen), "--out", out, "--nodes", "1"]) == 4
        assert "node_count must be >= 3, got 1" in capsys.readouterr().err

    def test_homog_price_out_of_float_range_is_a_numerical_failure(self, tmp_path):
        body = ("[scenario]\nname = tiny\n\n[model.m]\nutility = 1e-323\ncost = 0.0\n\n"
                "[distribution]\nkind = uniform\nlo = 0.0\nhi = 1.0\n\n"
                "[sweep]\nvariable = eps\nstart = 0.1\nstop = 0.9\npoints = 9\n")
        scen = write_scenario(tmp_path, body)
        out = tmp_path / "x.csv"
        proc = run_cli("homog-price", "--scenario", str(scen), "--out", str(out))
        assert proc.returncode == 3
        assert proc.stderr.startswith("numerical failure: ")
        assert proc.stderr.count("\n") == 1
        assert not out.exists()


# the flags each verb reads; every other flag is a usage error
VERB_FLAGS = {
    "user-strategy": {"--scenario", "--out", "--json"},
    "homog-price": {"--scenario", "--out", "--json"},
    "opp": {"--scenario", "--out", "--json", "--nodes", "--alpha", "--oracle", "--trace"},
    "compare": {"--scenario", "--out", "--json", "--nodes", "--alpha"},
}
ALL_FLAGS = set().union(*VERB_FLAGS.values())


def verb_args(verb: str, flags, tmp_path: Path) -> list[str]:
    """A run of ``verb`` on a scenario it accepts, with ``flags`` given values."""
    scen = write_scenario(tmp_path, COMPARE_ONE_POINT if verb == "compare" else TWO_MODEL)
    values = {"--scenario": [str(scen)], "--out": [str(tmp_path / "x.csv")], "--json": [],
              "--nodes": ["151"], "--alpha": ["0.1"], "--oracle": [],
              "--trace": [str(tmp_path / "trace.csv")]}
    return [verb, *(v for flag in sorted(flags) for v in [flag, *values[flag]])]


class TestVerbFlags:
    @pytest.mark.parametrize("verb,flag", sorted(
        (verb, flag) for verb, flags in VERB_FLAGS.items() for flag in ALL_FLAGS - flags))
    def test_flag_the_verb_does_not_read_is_a_usage_error(self, tmp_path, capsys, verb, flag):
        args = verb_args(verb, {"--scenario", "--out", flag}, tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 4
        err = capsys.readouterr().err
        assert err.count("error:") == 1
        assert f"error: unrecognized arguments: {flag}" in err
        assert list(tmp_path.glob("*.csv")) == []

    @pytest.mark.parametrize("verb", sorted(VERB_FLAGS))
    def test_every_flag_of_a_verb_runs(self, tmp_path, verb):
        assert main(verb_args(verb, VERB_FLAGS[verb], tmp_path)) == 0
        assert (tmp_path / "x.json").exists()
        assert (tmp_path / "trace.csv").exists() == ("--trace" in VERB_FLAGS[verb])

    @pytest.mark.parametrize("verb", sorted(VERB_FLAGS))
    def test_help_lists_only_the_verbs_flags(self, capsys, verb):
        with pytest.raises(SystemExit) as exc:
            main([verb, "--help"])
        assert exc.value.code == 0
        listed = set(re.findall(r"--[a-z]+", capsys.readouterr().out)) - {"--help"}
        assert listed == VERB_FLAGS[verb]


def write_both_ways(monkeypatch) -> None:
    """Route every CLI write through the CLI's writers and, beside them,
    through the ``csv.writer`` oracle into ``<stem>.ref<suffix>`` (the JSON
    mirror of ``out.ref.csv`` lands in ``out.ref.json``)."""
    write_csv, write_json = cli._write_outputs, cli._write_json
    written = {}

    def ref(out_path) -> Path:
        path = Path(out_path)
        return path.with_suffix(".ref" + path.suffix)

    def both_csv(out_path, columns, rows):
        write_csv(out_path, columns, rows)
        written[out_path] = columns, rows
        csv_writer_outputs(ref(out_path), columns, rows, False, "", "")

    def both_json(out_path, command, name):
        write_json(out_path, command, name)
        csv_writer_outputs(ref(out_path), *written[out_path], True, command, name)

    monkeypatch.setattr(cli, "_write_outputs", both_csv)
    monkeypatch.setattr(cli, "_write_json", both_json)


QUOTED_IDS = """
[scenario]
name = quoted "ids", too

[model.c d]
utility = 1.0
cost = 0.02
price = 0.1

[model.a,"b]
utility = 1.8
cost = 0.04
price = 0.3

[sweep]
variable = eps
start = 0.02
stop = 0.98
points = 49
"""

# opp and compare at a coarse lattice, to keep the suite quick
SOLVE_FLAGS = {"user-strategy": [], "homog-price": [],
               "opp": ["--nodes", "301", "--alpha", "0.02"],
               "compare": ["--nodes", "301", "--alpha", "0.02"]}


class TestRowWriter:
    """The CLI's one-line row writer gives the bytes of ``csv.writer`` over
    cell-by-cell rendering, and a JSON mirror in ``json.dump``'s layout."""

    @pytest.mark.parametrize("as_json", [False, True], ids=["csv", "json"])
    @pytest.mark.parametrize("verb", sorted(SOLVE_FLAGS))
    @pytest.mark.parametrize("scenario", sorted(SCENARIOS.glob("*.ini")), ids=lambda p: p.stem)
    def test_bundled_outputs_equal_the_csv_writer(self, tmp_path, monkeypatch, scenario, verb,
                                                  as_json):
        write_both_ways(monkeypatch)
        args = [verb, "--scenario", str(scenario), "--out", str(tmp_path / "out.csv"),
                *SOLVE_FLAGS[verb]]
        if verb == "opp":
            args += ["--trace", str(tmp_path / "trace.csv")]
        code = main(args + ["--json"] * as_json)
        written = {p.name for p in tmp_path.iterdir()}
        if code != 0:  # a verb the scenario does not serve writes nothing
            assert code == 2 and written == set()
            return
        stems = ["out"] + ["trace"] * (verb == "opp")
        files = [f"{stem}.csv" for stem in stems] + ["out.json"] * as_json
        assert written == set(files) | {f.replace(".", ".ref.") for f in files}
        for name in files:
            assert (tmp_path / name).read_bytes() == \
                (tmp_path / name.replace(".", ".ref.")).read_bytes(), name

    @pytest.mark.parametrize("verb", ["user-strategy", "homog-price"])
    def test_ids_with_a_comma_and_a_quote(self, tmp_path, monkeypatch, verb):
        write_both_ways(monkeypatch)
        out = tmp_path / "out.csv"
        scen = write_scenario(tmp_path, QUOTED_IDS)
        assert main([verb, "--scenario", str(scen), "--out", str(out), "--json"]) == 0
        assert out.read_bytes() == (tmp_path / "out.ref.csv").read_bytes()
        assert (tmp_path / "out.json").read_bytes() == (tmp_path / "out.ref.json").read_bytes()
        assert '"a,""b"' in out.read_text()  # quoted, its quote doubled
        with open(out, newline="") as fh:
            header, *rows = csv.reader(fh)
        assert 'a,"b' in {cell for row in rows for cell in row}
        mirror = json.loads((tmp_path / "out.json").read_text())
        assert mirror["scenario"] == 'quoted "ids", too'
        assert mirror["columns"] == header
        assert [list(row.values()) for row in mirror["rows"]] == rows
        assert all(list(row) == header for row in mirror["rows"])

    def test_cell_kinds_beyond_the_bundled_rows(self, tmp_path):
        """numpy floats take the float format; a count column may start with
        "inf" or with an int; text needing no quotes stays bare."""
        columns = ["x", "n_a", "n_b", "model", "y"]
        rows = [[np.float64(0.1) + np.float64(0.2), "inf", 3, "m,1", np.float64(1e-20)],
                [np.float64(2.0) / 3.0, 12, "inf", "none", -0.0],
                [1e300, 0, 10 ** 15, 'q"', float("inf")]]
        cli._write_outputs(str(tmp_path / "a.csv"), columns, rows)
        cli._write_json(str(tmp_path / "a.csv"), "verb", "name")
        csv_writer_outputs(str(tmp_path / "b.csv"), columns, rows, True, "verb", "name")
        for suffix in (".csv", ".json"):
            assert (tmp_path / f"a{suffix}").read_bytes() == (tmp_path / f"b{suffix}").read_bytes()
