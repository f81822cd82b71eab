"""Stage-1 pricing under a distribution of user ambiguity.

The solvers here search price schedules and score them with the
evaluators of :mod:`~prompt_pricing.evaluation`.  This module holds
only the searches:

* the single-model piecewise optimizer (:func:`single_model_price`):
  one shrinking 9-point grid per smooth piece of the demand curve, all
  pieces in one batch per round of exact segment masses
  (:func:`_volume_from_segments`), after dropping the pieces whose
  volume bound cannot reach the best first-round price,
* the two-model optimizer that sweeps the low-tier price and, for each
  value, takes the best high-tier price from a separable price-pair
  lattice, then polishes it with shrinking lattice windows (:func:`opp`),
* an exhaustive two-dimensional lattice oracle (:func:`grid_oracle`),
* the utility- and cost-proportional benchmark mechanisms, which share
  one ray search (:func:`_best_on_ray`): one :func:`_family_payoffs` pass.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace

import numpy as np

from .core import (
    ConfigError,
    DegenerateCostBase,
    GaiModel,
    ModelSet,
    PriceSchedule,
    PromptPricingError,
    QuadratureConfig,
    TabulatedAmbiguity,
)
from .evaluation import (
    _MAX_SEGMENTS,
    _RESCORE_TOL,
    _TOPS,
    PricingOutcome,
    _best_outcome,
    _family_payoffs,
    _near_best,
    _pair_lattice_payoffs,
    _volume_from_segments,
)


@dataclass(frozen=True)
class OppConfig:
    """Tuning knobs for the two-model price search.

    ``step_alpha`` is the low-tier sweep step (defaults to 1e-3 times the
    low-tier utility); ``quad`` is the full-resolution quadrature.
    """

    step_alpha: float | None = None
    quad: QuadratureConfig = field(default_factory=QuadratureConfig)

    def __post_init__(self) -> None:
        if self.step_alpha is not None and not (
                math.isfinite(self.step_alpha) and self.step_alpha > 0.0):
            raise ConfigError(f"step_alpha must be finite and > 0, got {self.step_alpha}")


def single_model_price(
    model: GaiModel,
    dist: TabulatedAmbiguity,
    quad: QuadratureConfig = QuadratureConfig(),
) -> PricingOutcome:
    """Payoff-maximizing price for a catalogue of one model.

    The objective ``(p - C) * volume(p)`` is piecewise-smooth in the
    price, with kinks exactly where the attainable prompt count steps
    (at ``U * _TOPS[k]``).  The search domain is (C, U], floored at
    U/MAX_SEGMENTS when the cost is tiny so the per-count decomposition
    stays bounded.  A floor that binds (the answer is its own probe, or
    nothing sells above it though the first prompt at the support's low
    end pays more than C) raises :class:`PromptPricingError`.
    Each smooth piece is searched by shrinking 9-point
    grids: round 0 spans the piece, and each later round spans the two
    grid steps either side of the piece's best point of the last round,
    a quarter of its width, until every such bracket is within 1e-10 of
    U; each piece keeps the best point it has seen.  One call of
    :func:`_volume_from_segments` scores a whole round, at most 17 rounds
    per solve: the widest piece, (U/4, U], is within 1e-10 of U after 16
    rounds past round 0, so the loop needs no step cap.  One more call
    scores the answer's own volume, so a solve makes at most 18.  After
    round 0 a piece is dropped when no price in it can pay within
    ``_RESCORE_TOL`` of U of the best point so far: the volume never
    rises with the price, so no price in a piece pays more than its
    cheapest point's volume at the piece's dearest price.  The
    cheapest candidate within ``_RESCORE_TOL`` of U of the best wins
    (:func:`_near_best`), so of two equal maxima (zero cost on U(0, 1)
    has two, at 1/2 and (sqrt(2) - 1)/2) rounding does not pick the
    answer.

    The reported payoff and volume come from exact segment masses
    (:func:`_volume_from_segments`), not from the quadrature that
    :func:`platform_payoff` and every other solver report; re-scoring the
    answer by :func:`platform_payoff` differs by up to 1.2e-4 of U on the
    fig7 tiers.  When the cost is at least U the answer is the price U,
    where nothing sells.  ``quad`` is read nowhere; it is kept only for
    callers that pass it positionally (the benchmark's workloads).
    """
    u, c = model.utility, model.cost
    if c >= u:
        return PricingOutcome(PriceSchedule({model.id: float(u)}), 0.0, {model.id: 0.0}, "SingleModel")

    def objective(p: np.ndarray) -> np.ndarray:
        return (p - c) * _volume_from_segments(model, p.ravel(), dist).reshape(p.shape)

    floor = max(c, u / _MAX_SEGMENTS)
    levels = u * _TOPS[1:]
    cuts = np.unique(np.concatenate([[u], levels[levels > floor], [floor]]))
    lo, hi = cuts[:-1], cuts[1:]
    probes = np.linspace(np.nextafter(lo, hi), hi, 9, axis=1)
    vals = objective(probes)
    # a piece's volume is at most its cheapest probe's, and its margin at most hi - C
    keep = vals[:, 0] * (hi - c) / (probes[:, 0] - c) >= vals.max() - _RESCORE_TOL * u
    probes, vals = probes[keep], vals[keep]
    rows = np.arange(len(probes))
    best_p, best_v = np.zeros(len(probes)), np.full(len(probes), -np.inf)
    while True:
        i = np.argmax(vals, axis=1)
        best_p = np.where(vals[rows, i] > best_v, probes[rows, i], best_p)
        best_v = np.maximum(vals[rows, i], best_v)
        a, b = probes[rows, np.maximum(i - 1, 0)], probes[rows, np.minimum(i + 1, 8)]
        if np.all(b - a <= 1e-10 * u):
            break
        probes = np.linspace(a, b, 9, axis=1)
        vals = objective(probes)

    # the first near-best piece wins: pieces ascend and are disjoint, so it is the cheapest,
    # and rounding does not pick between equal maxima
    j = int(np.argmax(_near_best(ModelSet([model]), best_v)))
    price = float(best_p[j]) if best_v[j] > 0.0 else u  # the price U sells nothing
    if floor > c and (price == np.nextafter(floor, u) or
                      price == u and (1.0 - dist.knots[0]) * u > c):  # the floor binds
        raise PromptPricingError(f"model {model.id!r}: the best price is below U/{_MAX_SEGMENTS}")

    volume = float(_volume_from_segments(model, np.array([price]), dist)[0])
    return PricingOutcome(
        schedule=PriceSchedule({model.id: price}),
        platform_payoff=(price - c) * volume,
        prompt_volume={model.id: volume},
        method="SingleModel",
    )


_INNER_GRID = 250     # high-tier prices, cost to utility, scored against every sweep step
_MAX_SWEEP_STEPS = 100_000  # sweep steps allowed, each a row of _INNER_GRID cells per accumulator
_POLISH_ROWS = 8      # strongest sweep steps the polish refines
_WINDOW_POINTS = 33   # prices per axis of one polish window
_WINDOW_ROUNDS = 4    # windows per polished step, each a quarter the size of the last
_MAX_MARKUPS = 1_000_000  # rows of cost_based_pricing's markup grid, 11 times fig7a's


def opp(
    models: ModelSet,
    dist: TabulatedAmbiguity,
    cfg: OppConfig = OppConfig(),
) -> PricingOutcome:
    """Two-model price optimization: low-tier sweep, high-tier argmax per step.

    The low-tier price sweeps the step grid from its cost to its utility.
    Counts and user payoffs depend on one price each, so every pair of a
    sweep step and one of ``_INNER_GRID`` high-tier prices is scored in
    one lattice on a reduced quadrature, and each step keeps the cheapest
    high-tier price within ``_RESCORE_TOL`` of the top utility of its
    best, so rounding does not choose between columns that pay the same
    (:func:`_near_best`).  Each step's pair is ranked by its own cell
    of the full-resolution lattice of the chosen columns.  The polish
    compares such lattice cells only: a few shrinking price-pair
    lattices around each of the strongest steps (the first spans one
    sweep step and two high-tier grid steps either way), then around the
    first best window cell of all until the window is within 1e-8·U_H
    either way.  Every window's best cell is a candidate answer, and the
    solve ends as :func:`grid_oracle` does (:func:`_best_outcome`); its
    ``trace`` holds one (p_L, p_H, payoff) tuple per sweep step (none when
    a tier is dead).  A step that would make more than ``_MAX_SWEEP_STEPS``
    sweep steps raises :class:`ConfigError` before the sweep's arrays are built.
    """
    low, high = models.require_pair()
    nodes, weights = dist.quadrature(cfg.quad)

    if low.cost >= low.utility or high.cost >= high.utility:
        # single_model_price prices a tier that cannot sell above cost at its utility,
        # where nobody buys it, so the other tier is a catalogue of its own
        prices = [single_model_price(m, dist).schedule.price_for(m) for m in (low, high)]
        return _best_outcome(models, [prices], [0.0], nodes, weights, method="OPP")

    alpha = cfg.step_alpha if cfg.step_alpha is not None else 1e-3 * low.utility
    if not alpha < low.utility:
        raise ConfigError(f"step_alpha must lie in (0, U_L), got {alpha}")
    span = low.utility - low.cost
    if span / alpha >= _MAX_SWEEP_STEPS:  # before the sweep's arrays, which would exhaust memory
        raise ConfigError(f"step_alpha {alpha:g} makes more than {_MAX_SWEEP_STEPS:,} sweep "
                          f"steps; the step must be above {span / _MAX_SWEEP_STEPS:.6g}")
    steps = int(math.floor(span / alpha)) + 1
    low_prices = low.cost + np.arange(steps) * alpha
    if low_prices[-1] < low.utility:
        low_prices = np.append(low_prices, low.utility)
    low_prices = low_prices[low_prices > 0.0]
    high_grid = np.linspace(max(high.cost, 1e-12), high.utility, _INNER_GRID)

    # the sweep lattice's rule: a quarter of the nodes, at least 501, never more than the full rule
    full = cfg.quad.node_count
    s_nodes, s_weights = dist.quadrature(QuadratureConfig(min(full, max(501, full // 4))))
    lattice = _pair_lattice_payoffs(low, high, low_prices, high_grid, s_nodes, s_weights)
    # each step takes its cheapest column near the best, not the one rounding ranks first
    cols, col_of = np.unique(np.argmax(_near_best(models, lattice), axis=1), return_inverse=True)
    sweep = np.column_stack([low_prices, high_grid[cols][col_of]])
    payoffs = _pair_lattice_payoffs(low, high, low_prices, high_grid[cols], nodes,
                                    weights)[np.arange(len(low_prices)), col_of]

    high_step = (high.utility - high.cost) / _INNER_GRID
    limits = [(low_prices[0], low.utility), (high_grid[0], high.utility)]
    winners, scores = [], []

    def window(centre, half) -> np.ndarray:
        """The best cell of a lattice around ``centre``, recorded with its score."""
        axes = [np.linspace(max(c - h, lo), min(c + h, hi), _WINDOW_POINTS)
                for c, h, (lo, hi) in zip(centre, half, limits)]
        cells = _pair_lattice_payoffs(low, high, axes[0], axes[1], nodes, weights)
        a, b = np.unravel_index(int(np.argmax(cells)), cells.shape)
        winners.append(np.array([axes[0][a], axes[1][b]]))
        scores.append(cells[a, b])
        return winners[-1]

    for row in np.argsort(-payoffs, kind="stable")[:_POLISH_ROWS]:
        centre, half = sweep[row], np.array([alpha, 2 * high_step])
        for _ in range(_WINDOW_ROUNDS):
            centre, half = window(centre, half), half / 4
    # the best pair's window keeps shrinking until it is within 1e-8·U_H either way
    while half.max() > 1e-8 * high.utility:
        window(winners[int(np.argmax(scores))], half)
        half = half / 4

    best = _best_outcome(models, winners, scores, nodes, weights, method="OPP")
    return replace(best, trace=tuple(zip(*sweep.T.tolist(), payoffs.tolist())))


def grid_oracle(
    models: ModelSet,
    dist: TabulatedAmbiguity,
    grid_n: int = 400,
    quad: QuadratureConfig = QuadratureConfig(),
) -> PricingOutcome:
    """Exhaustive lattice maximization over (cost, utility] per model.

    Independent verifier for the two-model optimizer: no search
    structure, just ``grid_n`` prices per axis, every pair scored at
    full resolution by :func:`_pair_lattice_payoffs`.  The cells within
    rounding of the best are re-scored in one batch and the first best
    of them (lowest low-tier price, then lowest high-tier price) is
    returned (:func:`_best_outcome`), so summation order does not choose
    between cells that pay the same.
    """
    if not isinstance(grid_n, numbers.Integral) or grid_n < 50:
        raise ConfigError(f"grid_n must be an integer >= 50, got {grid_n}")
    low, high = models.require_pair()
    axes = []
    for m in (low, high):
        if m.cost >= m.utility:
            axes.append(np.array([m.utility]))
        else:
            axes.append(m.cost + (m.utility - m.cost) * (np.arange(1, grid_n + 1) / grid_n))
    nodes, weights = dist.quadrature(quad)
    payoffs = _pair_lattice_payoffs(low, high, axes[0], axes[1], nodes, weights)
    cells = np.column_stack([np.repeat(axes[0], len(axes[1])), np.tile(axes[1], len(axes[0]))])
    return _best_outcome(models, cells, payoffs.ravel(), nodes, weights, method="GridOracle")


def _best_on_ray(models: ModelSet, dist: TabulatedAmbiguity, quad: QuadratureConfig,
                 direction: np.ndarray, factors: np.ndarray, method: str) -> PricingOutcome:
    """Best price ``factors[i] * direction`` of a ray from the origin: every
    point scored at full resolution by :func:`_family_payoffs`, and the
    points within rounding of the best re-scored (:func:`_best_outcome`)."""
    nodes, weights = dist.quadrature(quad)
    family, payoffs = _family_payoffs(models, 0.0, direction, factors, nodes, weights)
    return _best_outcome(models, family, payoffs, nodes, weights, method=method)


def utility_based_pricing(
    models: ModelSet,
    dist: TabulatedAmbiguity,
    quad: QuadratureConfig = QuadratureConfig(),
) -> PricingOutcome:
    """Best member of the utility-proportional family p_m = beta * U_m.

    The shared factor beta is swept over (0, 1] in steps of 1e-3
    (:func:`_best_on_ray`); at beta = 1 nobody buys, so it never pays below 0.
    """
    return _best_on_ray(models, dist, quad, np.array([m.utility for m in models]),
                        np.arange(1, 1001) / 1000.0, "UtilityBased")


def cost_based_pricing(
    models: ModelSet,
    dist: TabulatedAmbiguity,
    quad: QuadratureConfig = QuadratureConfig(),
) -> PricingOutcome:
    """Best member of the cost-proportional family p_m = (1 + mu) * C_m.

    The shared markup mu is swept over [0, max U / min C] in steps of
    1e-3; zero cost anywhere makes the family degenerate.  Every row
    (90,001 in the fig7a catalogue) is scored in one pass of
    :func:`_family_payoffs` (:func:`_best_on_ray`), whose work grows with
    the count steps per node, not with the rows; the rows that price
    every model above its utility (about half of them there) sell to no
    one and score exactly 0.  A cost so small against the top utility
    that the grid would exceed ``_MAX_MARKUPS`` rows raises
    :class:`DegenerateCostBase` before the grid is built.
    """
    costs = np.array([m.cost for m in models])
    if np.any(costs <= 0.0):
        raise DegenerateCostBase("cost-proportional pricing needs every cost > 0")
    top = float(max(m.utility for m in models))
    mu_max = top / float(costs.min())  # Python floats: inf, not a numpy overflow warning
    if not mu_max / 1e-3 < _MAX_MARKUPS:  # the grid's floor(mu_max / 1e-3) + 1 rows; inf too
        raise DegenerateCostBase(
            f"cost-proportional pricing would sweep more than {_MAX_MARKUPS:,} markups; "
            f"every cost must be above {top / (_MAX_MARKUPS * 1e-3):.6g} (max U / 1000)")
    mus = np.arange(0, int(math.floor(mu_max / 1e-3)) + 1) * 1e-3
    return _best_on_ray(models, dist, quad, costs, 1.0 + mus, "CostBased")
