"""Scenario loading, CLI verbs, output formats, and exit codes."""

import csv
import json
import subprocess
import sys
from pathlib import Path

import pytest

from prompt_pricing.cli import main
from prompt_pricing.scenario import ScenarioError, load_scenario

REPO = Path(__file__).resolve().parent.parent
SCENARIOS = REPO / "scenarios"


def run_cli(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "prompt_pricing.cli", *args],
        capture_output=True, text=True)


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


class TestScenarioLoading:
    def test_shipped_scenarios_load(self):
        for name in ("fig4b", "fig5", "fig6", "fig7a", "fig7b"):
            scenario = load_scenario(SCENARIOS / f"{name}.ini")
            assert scenario.model_set()
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

    def test_fields_parse(self, tmp_path):
        scenario = load_scenario(write_scenario(tmp_path, TWO_MODEL))
        assert scenario.name == "test-pair"
        assert scenario.prices == {"ml": 0.1, "mh": 0.3}
        assert scenario.quad_nodes == 301
        assert scenario.opp_alpha == 0.05
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
        # self-consistency surfaces in the emitted rows as well
        for row in rows[1:]:
            if row[3] != "none":
                assert row[2] == row[4]

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

    def test_compare_single_point_equals_individual_methods(self, tmp_path):
        body = TWO_MODEL.replace("variable = eps\nstart = 0.05\nstop = 0.95\npoints = 7",
                                 "variable = eps_min\nstart = 0.3\nstop = 0.3\npoints = 1")
        scen = write_scenario(tmp_path, body)
        out = tmp_path / "cmp.csv"
        assert main(["compare", "--scenario", str(scen), "--out", str(out)]) == 0
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["eps_min", "payoff_opp", "payoff_utility", "payoff_cost"]
        from prompt_pricing import UniformAmbiguity, cost_based_pricing, opp, utility_based_pricing
        scenario = load_scenario(scen)
        models = scenario.model_set()
        dist = UniformAmbiguity(0.3, 1.0)
        cfg = scenario.opp_config()
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

    def test_nodes_checked_only_by_the_verbs_that_read_it(self, tmp_path, capsys):
        """``--nodes`` is checked by QuadratureConfig when a verb builds its
        quadrature; user-strategy never does, so it ignores the flag."""
        scen = write_scenario(tmp_path, TWO_MODEL)
        out = str(tmp_path / "x.csv")
        assert main(["user-strategy", "--scenario", str(scen), "--out", out,
                     "--nodes", "1"]) == 0
        assert main(["opp", "--scenario", str(scen), "--out", out, "--nodes", "1"]) == 4
        assert "node_count must be >= 3, got 1" in capsys.readouterr().err
        body = TWO_MODEL.replace("variable = eps\nstart = 0.05\nstop = 0.95\npoints = 7",
                                 "variable = eps_min\nstart = 0.3\nstop = 0.3\npoints = 1")
        scen = write_scenario(tmp_path, body, "sweep.ini")
        assert main(["compare", "--scenario", str(scen), "--out", out, "--nodes", "1"]) == 4
        assert "node_count must be >= 3, got 1" in capsys.readouterr().err
