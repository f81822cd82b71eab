"""Scenario files: ingestion and validation for the command-line tool.

A scenario is an INI file with nested dotted sections::

    [scenario]
    name = two-tier-catalog

    [model.ml]
    utility = 1.0
    cost = 0.02
    price = 0.10        ; optional, used by the user-strategy command

    [model.mh]
    utility = 1.8
    cost = 0.04

    [distribution]
    kind = uniform      ; or "tabulated" with knots = ..., values = ...
    lo = 0.0
    hi = 1.0

    [quadrature]
    nodes = 2001

    [opp]
    alpha = 0.001

    [sweep]
    variable = eps      ; or eps_min
    start = 0.001
    stop = 0.999
    points = 999

Loading builds the domain objects directly: the constructors of
:class:`GaiModel`, :class:`ModelSet`, :class:`PriceSchedule`, the
ambiguity distributions, :class:`QuadratureConfig` and :class:`OppConfig`
hold the input rules, and each of their messages is filed under the
field it came from.  Only the sweep, which has no domain type, is
checked here.  Each section or key the loader does not read is reported
too, so a misspelt key is not silently ignored.  Every violation is
reported at once.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import (
    GaiModel,
    ModelSet,
    PriceSchedule,
    PromptPricingError,
    QuadratureConfig,
    TabulatedAmbiguity,
    UniformAmbiguity,
)
from .heterogeneous import OppConfig


class ScenarioError(PromptPricingError):
    """Scenario file rejected; ``violations`` lists every problem found."""

    def __init__(self, path: str, violations: list[str]) -> None:
        self.path = path
        self.violations = violations
        lines = "\n  - ".join(violations)
        super().__init__(f"invalid scenario {path}:\n  - {lines}")


@dataclass(frozen=True)
class SweepSpec:
    variable: str
    start: float
    stop: float
    points: int

    def values(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.points)


@dataclass(frozen=True)
class Scenario:
    """A validated scenario: the solver inputs it describes."""

    name: str
    models: ModelSet
    prices: dict[str, float]
    dist: TabulatedAmbiguity
    opp: OppConfig
    sweep: SweepSpec | None = None


_KINDS = {"float": "a decimal number", "int": "an integer", "floats": "a list of decimal numbers"}


def _floats(raw: str) -> list[float]:
    return [float(piece) for piece in raw.replace(",", " ").split()]


def _build(bad: list[str], where: str, make, *args):
    """``make(*args)``, or None with the constructor's message filed under ``where``."""
    try:
        return make(*args)
    except PromptPricingError as exc:
        bad.append(f"{where}: {exc}")
        return None


def load_scenario(path: str | Path) -> Scenario:
    """Parse and fully validate a scenario file.

    Raises :class:`ScenarioError` carrying one message per violation; no
    computation happens against a partially valid scenario.
    """
    path = Path(path)
    bad: list[str] = []
    parser = configparser.ConfigParser(
        inline_comment_prefixes=(";", "#"), converters={"floats": _floats})
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ScenarioError(str(path), [f"cannot read file: {exc}"]) from exc
    except configparser.Error as exc:
        raise ScenarioError(str(path), [f"malformed INI: {exc}"]) from exc

    seen: set[tuple[str, str]] = set()

    def read(section: str, key: str, kind: str = "", default=None):
        """``[section] key`` parsed as ``kind`` (a key of ``_KINDS``, or "" for
        the text), or ``default`` when absent; the key is recorded in ``seen``.
        A value that does not parse is filed in ``bad`` and gives ``default``,
        so the constructors still check the other fields."""
        seen.add((section, key))
        try:
            return getattr(parser, f"get{kind}")(section, key, fallback=default)
        except ValueError:
            bad.append(f"[{section}] {key}: not {_KINDS[kind]}: {parser.get(section, key)!r}")
            return default

    name = read("scenario", "name", default=path.stem)

    built: list[GaiModel | None] = []
    prices: dict[str, float] = {}
    for section in parser.sections():
        if not section.startswith("model."):
            continue
        mid = section[len("model."):]
        utility = read(section, "utility", "float", math.nan)
        cost = read(section, "cost", "float", 0.0)
        built.append(_build(bad, f"[{section}]", GaiModel, mid, utility, cost))
        price = read(section, "price", "float", None)
        if price is not None and _build(bad, f"[{section}] price", PriceSchedule, {mid: price}):
            prices[mid] = price
    models = _build(bad, "[model.<id>] sections", ModelSet, [m for m in built if m is not None])

    kind = read("distribution", "kind", default="uniform").lower()
    dist = None
    if kind == "uniform":
        lo = read("distribution", "lo", "float", 0.0)
        hi = read("distribution", "hi", "float", 1.0)
        dist = _build(bad, "[distribution]", UniformAmbiguity, lo, hi)
    elif kind == "tabulated":
        knots = read("distribution", "knots", "floats", [])
        values = read("distribution", "values", "floats", [])
        dist = _build(bad, "[distribution]", TabulatedAmbiguity, knots, values)
    else:
        bad.append(f"[distribution] kind: must be 'uniform' or 'tabulated', got {kind!r}")

    nodes = read("quadrature", "nodes", "int", 2001)
    quad = _build(bad, "[quadrature] nodes", QuadratureConfig, nodes)
    alpha = read("opp", "alpha", "float", None)
    # a bad node count must not keep the step from being checked
    opp = _build(bad, "[opp] alpha", OppConfig, alpha, quad or QuadratureConfig())

    sweep: SweepSpec | None = None
    if parser.has_section("sweep"):
        variable = read("sweep", "variable", default="")
        start = read("sweep", "start", "float", math.nan)
        stop = read("sweep", "stop", "float", math.nan)
        points = read("sweep", "points", "int", 0)
        hi = dist.support()[1] if dist is not None else 1.0
        if variable not in ("eps", "eps_min"):
            bad.append(f"[sweep] variable: must be 'eps' or 'eps_min', got {variable!r}")
        if points < 1:
            bad.append(f"[sweep] points: must be >= 1, got {points}")
        if points > 1 and not start < stop:
            bad.append(f"[sweep] start/stop: need start < stop, got {start} >= {stop}")
        if variable == "eps" and not (0.0 < start and stop < 1.0):
            bad.append(f"[sweep] start/stop: eps sweep must stay inside (0, 1), got [{start}, {stop}]")
        if variable == "eps_min" and not (0.0 <= start and stop < hi):
            bad.append(
                f"[sweep] start/stop: eps_min sweep must stay inside [0, hi), got [{start}, {stop}] with hi={hi}")
        sweep = SweepSpec(variable, start, stop, points)

    read_sections = {section for section, _ in seen}
    for section in parser.sections():
        if section not in read_sections:
            bad.append(f"[{section}]: unknown section")
            continue
        bad.extend(f"[{section}] {key}: unknown key"
                   for key in parser[section] if (section, key) not in seen)

    if bad:
        raise ScenarioError(str(path), bad)
    return Scenario(name, models, prices, dist, opp, sweep)
