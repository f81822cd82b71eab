"""Stage-1 pricing under a distribution of user ambiguity.

The platform's payoff is the margin-weighted expected prompt volume
aggregated over users, each of whom picks a model and a prompt budget by
the stage-2 rules.  This module provides:

* direct evaluation of any price schedule by quadrature over the
  ambiguity density (:func:`platform_payoff`),
* the single-model piecewise optimizer built on the per-count root
  structure of the demand curve (:func:`single_model_price`),
* the preference price bound that separates the two tiers of a
  two-model set (:func:`price_upper_bound`),
* the two-model optimizer that sweeps the low-tier price and, for each
  value, takes the best high-tier price from a separable price-pair
  lattice (:func:`opp`),
* an exhaustive two-dimensional lattice oracle (:func:`grid_oracle`),
* the utility- and cost-proportional benchmark mechanisms, which score
  every row of their one-parameter price family at full resolution from
  the rows where each node's prompt counts step (:func:`_family_payoffs`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .core import (
    AmbiguityDistribution,
    ConfigError,
    DegenerateCostBase,
    GaiModel,
    InvalidPrice,
    ModelSet,
    PriceSchedule,
    PromptPricingError,
    QuadratureConfig,
    UnboundedDemand,
    check_ambiguity,
)
from .user_strategy import (
    UNBOUNDED,
    _counts_vec,
    _payoffs_at_counts,
    _prefers,
    optimal_prompt_count,
    prompt_upper_bound,
    user_payoff,
)


@dataclass(frozen=True)
class SegmentRoots:
    """Ambiguity interval on which a given price supports exactly >= k prompts.

    ``lower`` and ``upper`` solve ``eps**(k-1) * (1-eps) * U = price`` and
    bracket the maximizer (k-1)/k of the left-hand side.
    """

    k: int
    lower: float
    upper: float

    def __post_init__(self) -> None:
        peak = (self.k - 1) / self.k
        if not (0.0 < self.lower <= peak <= self.upper < 1.0):
            raise ValueError(
                f"roots {self.lower}, {self.upper} must bracket {peak} inside (0, 1)")


@dataclass(frozen=True)
class PricingOutcome:
    """A price schedule with its expected payoff and per-model prompt volumes."""

    schedule: PriceSchedule
    platform_payoff: float
    prompt_volume: Mapping[str, float]
    method: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "prompt_volume", dict(self.prompt_volume))
        for mid, v in self.prompt_volume.items():
            if v < 0.0 or not math.isfinite(v):
                raise ValueError(f"prompt volume for {mid!r} must be finite and >= 0, got {v}")


@dataclass(frozen=True)
class OppConfig:
    """Tuning knobs for the two-model price search.

    ``step_alpha`` is the low-tier sweep step (defaults to 1e-3 times the
    low-tier utility).  ``refinement`` polishes the strongest sweep steps
    at full resolution with shrinking price-pair lattices and a closing
    golden-section pass per price; without it the best sweep pair is
    returned as is.
    """

    step_alpha: float | None = None
    refinement: bool = True
    quad: QuadratureConfig = field(default_factory=QuadratureConfig)

    def __post_init__(self) -> None:
        if self.step_alpha is not None and not (
                math.isfinite(self.step_alpha) and self.step_alpha > 0.0):
            raise ConfigError(f"step_alpha must be finite and > 0, got {self.step_alpha}")

    def resolve_alpha(self, low_utility: float) -> float:
        alpha = self.step_alpha if self.step_alpha is not None else 1e-3 * low_utility
        if not alpha < low_utility:
            raise ConfigError(f"step_alpha must lie in (0, U_L), got {alpha}")
        return alpha


# --------------------------------------------------------------------------
# Schedule evaluation by quadrature
# --------------------------------------------------------------------------

def _family_volumes(
    models: ModelSet,
    price_matrix: np.ndarray,
    nodes: np.ndarray,
    weights: np.ndarray,
    chunk: int = 512,
) -> tuple[np.ndarray, np.ndarray]:
    """Expected prompt volumes for many schedules at once.

    ``price_matrix`` has one row per schedule and one column per model in
    set order.  Returns ``(payoffs, volumes)`` with shapes (F,) and
    (F, M).  Selection per node is the stage-2 rule of
    :func:`~prompt_pricing.user_strategy.select_model` (:func:`_choose`).

    Rows are taken in chunks of ``chunk``.  A node is skipped for the
    whole chunk when even the chunk's cheapest price for every model is
    above the first prompt's gain ``(1 - eps) * U`` there.  That is the
    count kernel's own ``buy`` test, so every row of the chunk would get
    0 prompts at that node from every model, and the node adds nothing
    to any volume.  A chunk that keeps no node sells to no one: its rows
    are written as zeros without running the kernel.
    """
    price_matrix = np.asarray(price_matrix, dtype=float)
    n_rows, n_models = price_matrix.shape
    if n_models != len(models):
        raise ValueError("price matrix columns must match the model set")
    volumes = np.zeros((n_rows, n_models))
    payoffs = np.zeros(n_rows)
    utils = [m.utility for m in models]
    costs = [m.cost for m in models]
    ceilings = [(1.0 - nodes) * u for u in utils]  # as in _counts_vec's buy test
    for start in range(0, n_rows, chunk):
        rows = slice(start, min(start + chunk, n_rows))
        prices = price_matrix[rows]
        cheapest = prices.min(axis=0)
        keep = np.zeros(len(nodes), dtype=bool)
        for j in range(n_models):
            keep |= cheapest[j] <= ceilings[j]
        if not keep.any():
            continue
        k_nodes, k_weights = nodes[keep], weights[keep]
        counts, pays = [], []
        for j, u in enumerate(utils):
            p = prices[:, j][:, None]
            counts.append(_counts_vec(u, p, k_nodes))
            pays.append(_payoffs_at_counts(u, p, k_nodes, counts[-1]))
        sel = _choose(counts, pays, utils)
        chunk_pay = np.zeros(prices.shape[0])
        for j in range(n_models):
            vol = ((sel == j) * counts[j]) @ k_weights
            volumes[rows, j] = vol
            chunk_pay += (prices[:, j] - costs[j]) * vol
        payoffs[rows] = chunk_pay
    return payoffs, volumes


def _choose(counts, pays, utils) -> np.ndarray:
    """Index of the model each user buys from, -1 for none.

    The stage-2 rule of :func:`~prompt_pricing.user_strategy.select_model`
    over per-model arrays of counts and user payoffs: among the models
    that sell at least one prompt, the one :func:`_prefers` picks when
    they are offered in set order.
    """
    sel, best_pay, best_util = -1, -np.inf, -np.inf
    for j, (n, pay, u) in enumerate(zip(counts, pays, utils)):
        take = n >= 1.0
        if j:  # the first model has no rival yet
            take &= _prefers(pay, u, best_pay, best_util)
        sel = np.where(take, j, sel)
        best_pay = np.where(take, pay, best_pay)
        best_util = np.where(take, u, best_util)
    return sel


_LATTICE_BUDGET = 1 << 19  # elements per pairwise temporary (4 MB of float64)


def _pair_lattice_payoffs(
    low: GaiModel,
    high: GaiModel,
    axis_low: np.ndarray,
    axis_high: np.ndarray,
    nodes: np.ndarray,
    weights: np.ndarray,
) -> np.ndarray:
    """Payoff of every (low price, high price) pair, exploiting separability.

    Counts and user payoffs depend on one price each, so they are
    profiled per axis once; the pairwise work is pure selection and
    reduction, no transcendentals.  Low-axis rows are taken in chunks
    whose pairwise temporaries hold about ``_LATTICE_BUDGET`` elements.
    Returns shape (len low, len high).

    The nodes are sorted ascending first.  A price sells at a node only
    if it is at most ``(1 - eps) * U``, which falls as ``eps`` rises, so
    each price's buyers are a prefix of the sorted nodes.  The pairwise
    selection runs only on the prefix where both tiers can sell: the
    low tier at the chunk's cheapest row, the high tier at the cheapest
    column.  The other nodes need no selection, so skipping it there is
    exact: past the low tier's last buyer every user who can buy the
    high tier does, which adds each column's tail sum of high-tier gain,
    and past the high tier's last buyer only the low tier sells, which
    ``base_low`` already counts.
    """
    order = np.argsort(nodes, kind="stable")
    nodes, weights = nodes[order], weights[order]

    def profile(model: GaiModel, axis: np.ndarray):
        counts = _counts_vec(model.utility, axis[:, None], nodes)
        pay = _payoffs_at_counts(model.utility, axis[:, None], nodes, counts)
        buy = counts >= 1.0
        score = np.where(buy, pay, -np.inf)
        gain_w = (axis[:, None] - model.cost) * counts * weights
        return score, gain_w, np.count_nonzero(buy, axis=1)

    score_l, gain_l, reach_l = profile(low, axis_low)
    score_h, gain_h, reach_h = profile(high, axis_high)
    base_low = gain_l.sum(axis=1)
    # tail_h[:, k] is the high tier's gain summed over the nodes from k on
    tail_h = np.zeros((len(axis_high), len(nodes) + 1))
    tail_h[:, :-1] = np.cumsum(gain_h[:, ::-1], axis=1)[:, ::-1]
    reach_high = int(reach_h.max(initial=0))
    out = np.empty((len(axis_low), len(axis_high)))
    chunk = max(1, _LATTICE_BUDGET // (len(axis_high) * len(nodes)))
    for start in range(0, len(axis_low), chunk):
        rows = slice(start, min(start + chunk, len(axis_low)))
        reach_low = int(reach_l[rows].max())
        both = min(reach_low, reach_high)
        # _prefers with the high tier's strictly higher utility: it wins payoff ties
        mask = (score_h[None, :, :both] >= score_l[rows, None, :both]).astype(float)
        term_h = np.einsum("cbk,bk->cb", mask, gain_h[:, :both])
        term_l = np.einsum("cbk,ck->cb", mask, gain_l[rows, :both])
        out[rows] = base_low[rows][:, None] + term_h - term_l + tail_h[:, reach_low]
    return out


def _require_positive_prices(models: ModelSet, schedule: PriceSchedule) -> list[float]:
    prices = []
    for m in models:
        p = schedule.price_for(m)
        if p <= 0.0:
            raise UnboundedDemand(
                f"price for model {m.id!r} is {p}; zero prices make demand unbounded")
        prices.append(p)
    return prices


def platform_payoff(
    models: ModelSet,
    schedule: PriceSchedule,
    dist: AmbiguityDistribution,
    quad: QuadratureConfig = QuadratureConfig(),
) -> PricingOutcome:
    """Expected platform payoff of a schedule: quadrature over user decisions.

    Every price must be strictly positive; at a zero price the expected
    prompt volume diverges.
    """
    prices = _require_positive_prices(models, schedule)
    nodes, weights = dist.quadrature(quad)
    payoffs, volumes = _family_volumes(models, np.array([prices]), nodes, weights)
    return PricingOutcome(
        schedule=schedule,
        platform_payoff=float(payoffs[0]),
        prompt_volume={m.id: float(volumes[0, j]) for j, m in enumerate(models)},
        method="Direct",
    )


def _outcome_for(
    models: ModelSet,
    prices: Sequence[float],
    nodes: np.ndarray,
    weights: np.ndarray,
    method: str,
) -> PricingOutcome:
    payoffs, volumes = _family_volumes(models, np.array([list(prices)]), nodes, weights)
    return PricingOutcome(
        schedule=PriceSchedule({m.id: float(p) for m, p in zip(models, prices)}),
        platform_payoff=float(payoffs[0]),
        prompt_volume={m.id: float(volumes[0, j]) for j, m in enumerate(models)},
        method=method,
    )


# --------------------------------------------------------------------------
# Single-model piecewise optimization
# --------------------------------------------------------------------------

def segment_roots(model: GaiModel, price: float, k: int) -> SegmentRoots | None:
    """Roots of ``eps**(k-1) * (1-eps) * U = price`` for k >= 2, if any.

    Returns None when the price exceeds the curve's maximum
    ``(k-1)**(k-1) / k**k * U``, i.e. no ambiguity level supports k
    prompts at this price.
    """
    if k < 2:
        raise ValueError(f"segment index must be >= 2, got {k}")
    if price <= 0.0 or not math.isfinite(price):
        raise InvalidPrice(f"price must be finite and > 0, got {price}")
    ratio = price / model.utility
    peak_x = (k - 1) / k
    peak = (k - 1) ** (k - 1) / k ** k if k <= 64 else math.exp(
        (k - 1) * math.log(k - 1) - k * math.log(k))
    if ratio > peak:
        return None

    def g(eps: float) -> float:
        return eps ** (k - 1) * (1.0 - eps) - ratio

    tiny = 1e-300
    lower = _bisect_monotone(g, tiny, peak_x) if g(tiny) < 0.0 else tiny
    upper = _bisect_monotone(g, 1.0 - 1e-16, peak_x) if g(1.0 - 1e-16) < 0.0 else 1.0 - 1e-16
    return SegmentRoots(k=k, lower=lower, upper=upper)


def _bisect_monotone(g, outside: float, peak_x: float) -> float:
    """Bisection between an endpoint with g < 0 and the peak with g >= 0."""
    lo, hi = outside, peak_x
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if g(mid) < 0.0:
            lo = mid
        else:
            hi = mid
        if abs(hi - lo) < 1e-14:
            break
    return hi


def _volume_from_segments(model: GaiModel, price: float, dist: AmbiguityDistribution) -> float:
    """Expected prompt volume via the per-count interval decomposition."""
    u = model.utility
    if price >= u:
        return 0.0
    total = dist.mass(0.0, 1.0 - price / u)
    k_bar = prompt_upper_bound(model, price)
    for k in range(2, k_bar + 1):
        roots = segment_roots(model, price, k)
        if roots is not None:
            total += dist.mass(roots.lower, roots.upper)
    return total


_MAX_SEGMENTS = 512


def single_model_price(
    model: GaiModel,
    dist: AmbiguityDistribution,
    quad: QuadratureConfig = QuadratureConfig(),
) -> PricingOutcome:
    """Payoff-maximizing price for a catalogue of one model.

    The objective ``(p - C) * volume(p)`` is piecewise-smooth in the
    price, with kinks exactly where the attainable prompt count steps;
    each smooth piece is searched by golden section after a coarse
    presample (the pieces are strictly concave under a uniform density,
    and the presample guards tabulated densities).  The search domain is
    (C, U], floored at U/MAX_SEGMENTS when the cost is tiny so the
    per-count decomposition stays bounded.
    """
    u, c = model.utility, model.cost
    nodes, weights = dist.quadrature(quad)
    if c >= u:
        return _outcome_for(ModelSet([model]), [u], nodes, weights, method="SingleModel")

    def objective(p: float) -> float:
        return (p - c) * _volume_from_segments(model, p, dist)

    floor = max(c, u / _MAX_SEGMENTS)
    cuts = [u]
    k = 1
    while k <= _MAX_SEGMENTS:
        level = (u * k ** k / (k + 1) ** (k + 1) if k <= 64
                 else u * math.exp(k * math.log(k) - (k + 1) * math.log(k + 1)))
        if level <= floor:
            break
        cuts.append(level)
        k += 1
    cuts.append(floor)
    cuts = sorted(set(cuts))

    best_p, best_val = u, objective(u)
    for lo, hi in zip(cuts, cuts[1:]):
        a = np.nextafter(lo, hi)
        probes = np.linspace(a, hi, 9)
        vals = [objective(float(p)) for p in probes]
        i = int(np.argmax(vals))
        g_lo = float(probes[max(0, i - 1)])
        g_hi = float(probes[min(len(probes) - 1, i + 1)])
        x, fx = _golden_max(objective, g_lo, g_hi, tol=1e-10 * u)
        for p_cand, v_cand in [(x, fx), (float(probes[i]), vals[i])]:
            if v_cand > best_val:
                best_p, best_val = p_cand, v_cand

    volume = _volume_from_segments(model, best_p, dist)
    return PricingOutcome(
        schedule=PriceSchedule({model.id: best_p}),
        platform_payoff=(best_p - c) * volume,
        prompt_volume={model.id: volume},
        method="SingleModel",
    )


def _golden_max(f, lo: float, hi: float, tol: float = 1e-9) -> tuple[float, float]:
    """Golden-section maximization on [lo, hi]; returns the best point seen."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    x1 = b - inv_phi * (b - a)
    x2 = a + inv_phi * (b - a)
    f1, f2 = f(x1), f(x2)
    best_x, best_f = (x1, f1) if f1 >= f2 else (x2, f2)
    for _ in range(200):
        if (b - a) <= tol:
            break
        if f1 >= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - inv_phi * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + inv_phi * (b - a)
            f2 = f(x2)
        if f1 > best_f:
            best_x, best_f = x1, f1
        if f2 > best_f:
            best_x, best_f = x2, f2
    return best_x, best_f


# --------------------------------------------------------------------------
# Preference price bound between two models
# --------------------------------------------------------------------------

_TAU_CAP = 1_000_000


def price_upper_bound(
    m: GaiModel, m_prime: GaiModel, price_m_prime: float, eps: float
) -> float:
    """Highest price of ``m`` at which a user still prefers it over ``m_prime``.

    The user's best payoff from ``m_prime`` is compared against the
    payoff ``m`` can deliver at its own per-count indifference prices;
    the first prompt count that beats the rival pins the indifference
    price.  Returns 0 when ``m`` can never beat the rival at this
    ambiguity (empty demand).  Raises :class:`PromptPricingError` when
    that count lies beyond ``_TAU_CAP`` prompts (ambiguity within about
    1e-6 of one against a nearly free rival).
    """
    eps = check_ambiguity(eps)
    if price_m_prime <= 0.0 or not math.isfinite(price_m_prime):
        raise InvalidPrice(f"rival price must be finite and > 0, got {price_m_prime}")
    n_rival = optimal_prompt_count(m_prime, price_m_prime, eps)
    assert n_rival is not UNBOUNDED
    rival_payoff = user_payoff(m_prime, price_m_prime, eps, n_rival)
    u = m.utility
    if rival_payoff >= u:
        return 0.0
    k = 1
    while k <= _TAU_CAP:
        own = (1.0 - eps ** k) * u - k * (eps ** k) * (1.0 - eps) * u
        if rival_payoff < own:
            break
        k += 1
    else:
        raise PromptPricingError(
            f"price_upper_bound: no prompt count up to the cap of {_TAU_CAP} beats the rival "
            f"at eps={eps}")
    bound = ((1.0 - eps ** k) * u - rival_payoff) / k
    return max(0.0, bound)


# --------------------------------------------------------------------------
# Two-model optimal pricing
# --------------------------------------------------------------------------

def _reduced_quad(quad: QuadratureConfig) -> QuadratureConfig:
    """The quadrature of the coarse search sweeps: a quarter of the nodes,
    at least 501, and never more than the full rule."""
    return QuadratureConfig(min(quad.node_count, max(501, quad.node_count // 4)))


_INNER_GRID = 250     # high-tier prices, cost to utility, scored against every sweep step
_POLISH_ROWS = 8      # strongest sweep steps the refinement polishes
_WINDOW_POINTS = 33   # prices per axis of one refinement window
_WINDOW_ROUNDS = 4    # windows per polished step, each a quarter the size of the last


def opp(
    models: ModelSet,
    dist: AmbiguityDistribution,
    cfg: OppConfig = OppConfig(),
    trace_sink: list | None = None,
) -> PricingOutcome:
    """Two-model price optimization: low-tier sweep, high-tier argmax per step.

    The low-tier price sweeps the step grid from its cost to its utility.
    Counts and user payoffs depend on one price each, so every pair of a
    sweep step and one of ``_INNER_GRID`` high-tier prices is scored in
    one lattice on a reduced quadrature, and each step keeps its best
    high-tier price.  Those pairs are re-scored by full-resolution
    schedule evaluation, which is what the sweep argmax uses.  With
    ``cfg.refinement`` the strongest steps are then polished at full
    resolution: a few shrinking price-pair lattices around each (the
    first spans one sweep step and two high-tier grid steps either way),
    then one golden-section pass per price.  If ``trace_sink`` is given,
    one (p_L, p_H, payoff) tuple per sweep step is appended.
    """
    low, high = models.require_pair()
    nodes, weights = dist.quadrature(cfg.quad)

    feas_low = low.cost < low.utility
    feas_high = high.cost < high.utility
    if not feas_low and not feas_high:
        return _outcome_for(models, [low.utility, high.utility], nodes, weights, method="OPP")
    if not feas_low or not feas_high:
        return _one_sided_opp(models, dist, cfg, nodes, weights, feas_low)

    alpha = cfg.resolve_alpha(low.utility)
    steps = int(math.floor((low.utility - low.cost) / alpha)) + 1
    low_prices = low.cost + np.arange(steps) * alpha
    if low_prices[-1] < low.utility:
        low_prices = np.append(low_prices, low.utility)
    low_prices = low_prices[low_prices > 0.0]
    high_grid = np.linspace(max(high.cost, 1e-12), high.utility, _INNER_GRID)

    s_nodes, s_weights = dist.quadrature(_reduced_quad(cfg.quad))
    lattice = _pair_lattice_payoffs(low, high, low_prices, high_grid, s_nodes, s_weights)
    sweep = np.column_stack([low_prices, high_grid[np.argmax(lattice, axis=1)]])
    # small row chunks keep the full-resolution temporaries to about 1 MB each
    payoffs, _ = _family_volumes(models, sweep, nodes, weights, chunk=64)
    if trace_sink is not None:
        trace_sink.extend(
            (float(p_low), float(p_high), float(v)) for (p_low, p_high), v in zip(sweep, payoffs))
    i = int(np.argmax(payoffs))
    best = (float(sweep[i, 0]), float(sweep[i, 1]), float(payoffs[i]))
    if not cfg.refinement:
        return _outcome_for(models, best[:2], nodes, weights, method="OPP")

    span = (high.utility - high.cost) / _INNER_GRID
    limits = [(low_prices[0], low.utility), (high_grid[0], high.utility)]
    for row in np.argsort(-payoffs, kind="stable")[:_POLISH_ROWS]:
        centre, half = sweep[row], np.array([alpha, 2 * span])
        for _ in range(_WINDOW_ROUNDS):
            axes = [np.linspace(max(c - h, lo), min(c + h, hi), _WINDOW_POINTS)
                    for c, h, (lo, hi) in zip(centre, half, limits)]
            window = _pair_lattice_payoffs(low, high, axes[0], axes[1], nodes, weights)
            a, b = np.unravel_index(int(np.argmax(window)), window.shape)
            centre, half = np.array([axes[0][a], axes[1][b]]), half / 4
            if window[a, b] > best[2]:
                best = (float(centre[0]), float(centre[1]), float(window[a, b]))

    def payoff_at(p_low: float, p_high: float) -> float:
        payoffs, _ = _family_volumes(models, np.array([[p_low, p_high]]), nodes, weights)
        return float(payoffs[0])

    # final coordinate polish at full resolution, one pass per price
    x, fx = _golden_max(lambda p: payoff_at(best[0], p),
                        max(best[1] - 2 * span, 1e-12),
                        min(best[1] + 2 * span, high.utility),
                        tol=1e-8 * high.utility)
    if fx > best[2]:
        best = (best[0], x, fx)
    x, fx = _golden_max(lambda p: payoff_at(p, best[1]),
                        max(best[0] - alpha, np.nextafter(0.0, 1.0)),
                        min(best[0] + alpha, low.utility),
                        tol=1e-8 * low.utility)
    if fx > best[2]:
        best = (x, best[1], fx)

    return _outcome_for(models, best[:2], nodes, weights, method="OPP")


def _one_sided_opp(
    models: ModelSet,
    dist: AmbiguityDistribution,
    cfg: OppConfig,
    nodes: np.ndarray,
    weights: np.ndarray,
    feas_low: bool,
) -> PricingOutcome:
    """Degenerate sweep when only one tier can be sold above cost."""
    low, high = models.require_pair()
    viable, fixed = (low, high) if feas_low else (high, low)
    single = single_model_price(viable, dist, cfg.quad)
    p_viable = single.schedule.price_for(viable)
    prices = [p_viable, fixed.utility] if feas_low else [fixed.utility, p_viable]
    return _outcome_for(models, prices, nodes, weights, method="OPP")


def grid_oracle(
    models: ModelSet,
    dist: AmbiguityDistribution,
    grid_n: int = 400,
    quad: QuadratureConfig = QuadratureConfig(),
) -> PricingOutcome:
    """Exhaustive lattice maximization over (cost, utility] per model.

    Independent verifier for the two-model optimizer: no search
    structure, just ``grid_n`` prices per axis evaluated in full.
    """
    if grid_n < 50:
        raise ConfigError(f"grid_n must be >= 50, got {grid_n}")
    low, high = models.require_pair()
    axes = []
    for m in (low, high):
        if m.cost >= m.utility:
            axes.append(np.array([m.utility]))
        else:
            axes.append(m.cost + (m.utility - m.cost) * (np.arange(1, grid_n + 1) / grid_n))
    nodes, weights = dist.quadrature(quad)
    payoffs = _pair_lattice_payoffs(low, high, axes[0], axes[1], nodes, weights)
    i, j = np.unravel_index(int(np.argmax(payoffs)), payoffs.shape)
    return _outcome_for(
        models, [float(axes[0][i]), float(axes[1][j])], nodes, weights, method="GridOracle")


# --------------------------------------------------------------------------
# Benchmark mechanisms
# --------------------------------------------------------------------------

def utility_based_pricing(
    models: ModelSet,
    dist: AmbiguityDistribution,
    quad: QuadratureConfig = QuadratureConfig(),
) -> PricingOutcome:
    """Best member of the utility-proportional family p_m = beta * U_m.

    The shared factor beta is swept over (0, 1) in steps of 1e-3.  Every
    row is scored at full resolution by :func:`_family_payoffs`, and the
    rows within rounding of the best are re-scored one at a time
    (:func:`_family_best_row`).
    """
    betas = np.arange(1, 1000) / 1000.0
    utils = np.array([m.utility for m in models])
    family = betas[:, None] * utils[None, :]
    nodes, weights = dist.quadrature(quad)
    idx = _family_best_row(models, family, nodes, weights)
    return _outcome_for(models, list(family[idx]), nodes, weights, method="UtilityBased")


def cost_based_pricing(
    models: ModelSet,
    dist: AmbiguityDistribution,
    quad: QuadratureConfig = QuadratureConfig(),
) -> PricingOutcome:
    """Best member of the cost-proportional family p_m = (1 + mu) * C_m.

    The shared markup mu is swept over [0, max U / min C] in steps of
    1e-3; zero cost anywhere makes the family degenerate.  Every row
    (90,001 in the fig7a catalogue) is scored at full resolution in one
    pass of :func:`_family_payoffs`, whose work grows with the count
    steps per node, not with the rows; the rows that price every model
    above its utility (about half of them there) sell to no one and
    score exactly 0.  The best rows are then re-scored one at a time
    (:func:`_family_best_row`).
    """
    costs = np.array([m.cost for m in models])
    if np.any(costs <= 0.0):
        raise DegenerateCostBase("cost-proportional pricing needs every cost > 0")
    mu_max = max(m.utility for m in models) / costs.min()
    mus = np.arange(0, int(math.floor(mu_max / 1e-3)) + 1) * 1e-3
    family = (1.0 + mus)[:, None] * costs[None, :]
    nodes, weights = dist.quadrature(quad)
    idx = _family_best_row(models, family, nodes, weights)
    return _outcome_for(models, list(family[idx]), nodes, weights, method="CostBased")


def _live_rows(models: ModelSet, family: np.ndarray, nodes: np.ndarray) -> int:
    """How many leading rows of an ascending family sell at some node.

    A price sells only if it is at most the first prompt's gain
    ``(1 - eps) * U`` (the count kernel's ``buy`` test), so from the
    returned row on every price is above that gain at every node.
    """
    return max(int(np.searchsorted(family[:, j], ((1.0 - nodes) * m.utility).max(), side="right"))
               for j, m in enumerate(models))


def _family_payoffs(
    models: ModelSet,
    family: np.ndarray,
    nodes: np.ndarray,
    weights: np.ndarray,
) -> np.ndarray:
    """Full-resolution quadrature payoff of every row of a price family.

    ``family`` has one row per schedule and one column per model in set
    order.  Every row must be one ascending factor times fixed base
    prices, as in both benchmark families, so each column ascends with
    the row.  The work is per node, not per (row, node):

    * Count steps.  At node ``eps`` model ``m`` keeps prompt ``k``
      exactly on the rows whose price is at most its marginal gain
      ``eps ** (k-1) * (1 - eps) * U``, the comparison of the count
      kernel, so one ``searchsorted`` of that gain into the price column
      gives the row where the count drops below ``k``.  Only the ``k``
      between the counts at the dearest and the cheapest row are needed.
    * Selection.  Between two steps of a node (a segment) every count is
      fixed, so each user payoff is affine in the factor and the chosen
      model is the top of an upper envelope of lines: each model wins on
      at most one run of rows.  Where the choice at the segment's first
      and last row differ, binary search on the selection rule of
      :func:`_family_volumes` (:func:`_choose`, on the same float
      payoffs) finds each change.
    * Volumes.  Every run adds ``weight * count`` to its model's volume
      from its first row to its last, through difference arrays
      (``np.bincount``) and one ``cumsum`` per model.

    The rows from :func:`_live_rows` on sell to no one and score exactly
    0.  A row agrees with a :func:`_family_volumes` evaluation of it up
    to summation order (within 1e-11 of the top utility in the tests).
    The one exception is a pair of user payoffs within an ulp of each
    other over a run of rows, where rounding, not the affine trend,
    decides the float comparison; :func:`_family_best_row` re-scores the
    rows it returns.
    """
    family = np.asarray(family, dtype=float)
    n_rows, n_models = family.shape
    if n_models != len(models):
        raise ValueError("price matrix columns must match the model set")
    payoffs = np.zeros(n_rows)
    live = _live_rows(models, family, nodes)
    if live == 0:
        return payoffs
    cols = family[:live].T
    utils = [m.utility for m in models]
    stride = live + 1  # a (node, row) key is node * stride + row
    one_minus = 1.0 - nodes
    top, steps = [], []
    for u, col in zip(utils, cols):
        first = _counts_vec(u, col[0], nodes)
        reps = (first - _counts_vec(u, col[-1], nodes)).astype(np.int64)
        at = np.repeat(np.arange(len(nodes)), reps)
        # prompt k runs from the cheapest row's count down to one above the dearest's
        k = first[at] - (np.arange(len(at)) - (np.cumsum(reps) - reps)[at])
        gain = nodes[at] ** (k - 1.0) * one_minus[at] * u
        steps.append(np.sort(at * stride + np.searchsorted(col, gain, side="right")))
        top.append(first)

    # segments: per node, the runs of rows on which every count is fixed
    keys = np.unique(np.concatenate([np.arange(len(nodes)) * stride] + steps))
    seg_node = keys // stride
    seg_start = keys - seg_node * stride
    last = np.append(seg_node[1:] != seg_node[:-1], True)
    seg_end = np.where(last, live, np.append(seg_start[1:], live))
    counts = np.array([
        t[seg_node] - (np.searchsorted(st, keys, side="right")
                       - np.searchsorted(st, seg_node * stride, side="right"))
        for t, st in zip(top, steps)])
    eps = nodes[seg_node]
    held = [(1.0 - eps ** n) * u for n, u in zip(counts, utils)]  # as _payoffs_at_counts

    def choice(seg: np.ndarray, row: np.ndarray) -> np.ndarray:
        """The model chosen in each given segment at the given row."""
        n = counts[:, seg]
        return _choose(n, [h[seg] - n_j * col[row] for h, n_j, col in zip(held, n, cols)], utils)

    every = np.arange(len(seg_node))
    begins = choice(every, seg_start)
    ends = choice(every, seg_end - 1)
    # (segment, row, model chosen from the row on, model chosen before it)
    changes = [(every, seg_start, begins, np.full(len(every), -1))]
    seg = np.flatnonzero(begins != ends)
    lo, sel_lo = seg_start[seg], begins[seg]
    while seg.size:
        # choice(lo) is sel_lo and choice(end - 1) is not: find the first row that differs
        hi = seg_end[seg] - 1
        while True:
            open_ = np.flatnonzero(hi - lo > 1)
            if not open_.size:
                break
            mid = (lo[open_] + hi[open_]) // 2
            same = choice(seg[open_], mid) == sel_lo[open_]
            lo[open_] = np.where(same, mid, lo[open_])
            hi[open_] = np.where(same, hi[open_], mid)
        sel_hi = choice(seg, hi)
        changes.append((seg, hi, sel_hi, sel_lo))
        more = sel_hi != ends[seg]
        seg, lo, sel_lo = seg[more], hi[more], sel_hi[more]
    changes.append((every, seg_end, np.full(len(every), -1), ends))

    seg = np.concatenate([c[0] for c in changes])
    row = np.concatenate([c[1] for c in changes])
    after = np.concatenate([c[2] for c in changes])
    before = np.concatenate([c[3] for c in changes])
    w = weights[seg_node[seg]]
    for j, m in enumerate(models):
        gain = w * counts[j, seg]
        delta = np.where(after == j, gain, 0.0) - np.where(before == j, gain, 0.0)
        volume = np.cumsum(np.bincount(row, delta, minlength=stride))[:live]
        payoffs[:live] += (cols[j] - m.cost) * volume
    return payoffs


_RESCORE_TOL = 1e-10  # times the top utility: re-scored rows' distance from the best score


def _family_best_row(
    models: ModelSet,
    family: np.ndarray,
    nodes: np.ndarray,
    weights: np.ndarray,
) -> int:
    """Argmax row of a price family, by the same one-row evaluation as
    :func:`platform_payoff`.

    :func:`_family_payoffs` scores every row; the rows within
    ``_RESCORE_TOL`` of the top utility of its best score are re-scored
    one at a time through :func:`_family_volumes`, the route of
    :func:`platform_payoff`, and the first best of them is returned.  A
    row past :func:`_live_rows` sells to no one and pays exactly 0 on
    both routes, so it is not re-scored.
    """
    scores = _family_payoffs(models, family, nodes, weights)
    live = _live_rows(models, family, nodes)
    tol = _RESCORE_TOL * max(m.utility for m in models)
    best_row, best = -1, -np.inf
    for i in np.flatnonzero(scores >= scores.max() - tol):
        exact = float(_family_volumes(models, family[i:i + 1], nodes, weights)[0][0]) \
            if i < live else 0.0
        if exact > best:
            best_row, best = int(i), exact
    return best_row
