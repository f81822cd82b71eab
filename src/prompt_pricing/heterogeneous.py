"""Stage-1 pricing under a distribution of user ambiguity.

The platform's payoff is the margin-weighted expected prompt volume
aggregated over users, each of whom picks a model and a prompt budget by
the stage-2 rules.  This module provides:

* direct evaluation of any price schedule by quadrature over the
  ambiguity density (:func:`platform_payoff`),
* the count profile under every price evaluation: at one node a model's
  prompt count only steps down as its price rises, so along a sorted
  price axis the count kernel runs at the two ends and every other
  count is read off the steps between them (:func:`_count_steps`,
  :func:`_count_profile`),
* the single-model piecewise optimizer built on the per-count root
  structure of the demand curve (:func:`single_model_price`): every
  (price, count) root of a batch of prices in one monotone Newton
  iteration in log space (:func:`_segment_bounds`), exact interval
  masses summed per price (:func:`_volume_from_segments`), and one
  shrinking 9-point grid per smooth piece, all pieces in one batch per
  round, after dropping the pieces whose volume bound cannot reach the
  best first-round price,
* the preference price bound that separates the two tiers of a
  two-model set (:func:`price_upper_bound`),
* the two-model optimizer that sweeps the low-tier price and, for each
  value, takes the best high-tier price from a separable price-pair
  lattice, then polishes it with shrinking lattice windows (:func:`opp`),
* the price-pair lattice itself, scored per node by merging the two
  tiers' user-payoff columns, each monotone in its own price, instead of
  comparing every pair (:func:`_pair_lattice_payoffs`); a node where one
  tier's worst score still beats the other's best (the high tier on a
  tie) is decided by those two ends, and only the other nodes are
  sorted (:func:`_prefix_lengths`),
* an exhaustive two-dimensional lattice oracle (:func:`grid_oracle`),
* the utility- and cost-proportional benchmark mechanisms, which score
  every row of their one-parameter price family at full resolution from
  the rows where each node's prompt counts step (:func:`_family_payoffs`),
* one finish for every quadrature solver: the candidates within rounding
  of the best search score are re-scored in one schedule evaluation and
  the first best of them is returned, with the payoff and volumes of
  that evaluation (:func:`_best_outcome`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
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
    _curve_top,
    _prefers,
    optimal_prompt_count,
    user_payoff,
)


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
    low-tier utility); ``quad`` is the full-resolution quadrature.
    """

    step_alpha: float | None = None
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

def _count_steps(
    utility: float, prices: np.ndarray, nodes: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Where each node's prompt count steps down along an ascending price axis.

    At node ``eps`` the count keeps prompt ``k`` exactly at the prices up
    to its marginal gain ``eps ** (k-1) * (1 - eps) * U``, the comparison
    of the count kernel, so the count only steps down as the price
    rises.  The kernel (:func:`_counts_vec`) runs only at the cheapest
    and the dearest price, ``top`` and ``bottom`` per node.  Each prompt
    ``k`` in ``(bottom, top]`` of node ``at`` is a step; ``pos`` is the
    index of the first price above its gain (``searchsorted``, side
    right), where the count drops below ``k``.  Steps are listed node by
    node, ``k`` descending.  Returns ``(top, bottom, at, pos)``.

    A step must fall strictly inside the axis, ``1 <= pos <= P - 1``, or
    the steps disagree with the kernel's own counts at the axis ends;
    that raises :class:`PromptPricingError` instead of miscounting.
    """
    top = _counts_vec(utility, prices[0], nodes)
    if prices[-1] == prices[0]:  # one price: no steps
        none = np.zeros(0, dtype=np.int64)
        return top, top, none, none
    bottom = _counts_vec(utility, prices[-1], nodes)
    reps = (top - bottom).astype(np.int64)
    at = np.repeat(np.arange(len(nodes)), reps)
    # prompt k runs from the cheapest price's count down to one above the dearest's
    k = top[at] - (np.arange(len(at)) - (np.cumsum(reps) - reps)[at])
    gain = nodes[at] ** (k - 1.0) * (1.0 - nodes[at]) * utility  # the kernel's operand order
    pos = np.searchsorted(prices, gain, side="right")
    if np.any((pos < 1) | (pos >= len(prices))):
        raise PromptPricingError(
            "count steps disagree with the count kernel at the ends of the price axis")
    return top, bottom, at, pos


def _count_profile(
    utility: float, prices: np.ndarray, nodes: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Prompt counts and user payoffs at every (node, price), shape (nodes, prices).

    ``prices`` must ascend.  The counts come from :func:`_count_steps`:
    each node starts at the cheapest price's count and drops by one at
    each step, through ``np.bincount`` and one ``cumsum``.  The held
    utility ``(1 - eps ** n) * U`` is computed once per (node, count)
    and gathered, so a user payoff is ``held - n * p``.  Every element
    is bit-identical to the count kernel and the payoff
    ``(1 - eps ** n) * U - n * p`` evaluated at that cell.
    """
    top, bottom, at, pos = _count_steps(utility, prices, nodes)
    n_nodes, n_prices = len(nodes), len(prices)
    if not len(at):  # every price sells the cheapest price's counts
        counts = np.tile(top[:, None], (1, n_prices))
        return counts, ((1.0 - nodes ** top) * utility)[:, None] - counts * prices
    # held utility per node for the counts top, top - 1, ..., bottom
    width = (top - bottom).astype(np.int64) + 1
    first = np.cumsum(width) - width
    node = np.repeat(np.arange(n_nodes), width)
    n = top[node] - (np.arange(len(node)) - first[node])
    held = (1.0 - nodes[node] ** n) * utility
    # steps before each price, counted across all nodes; a node's row starts at 0 (pos >= 1)
    drops = np.cumsum(np.bincount(at * n_prices + pos, minlength=n_nodes * n_prices))
    drops = drops.reshape(n_nodes, n_prices)
    drops -= drops[:, 0].copy()[:, None]
    counts = top[:, None] - drops
    drops += first[:, None]  # now each cell's place in the held table
    pays = held[drops]
    del drops  # freed before the product's temporary: at most three (nodes, prices) arrays live
    pays -= counts * prices
    return counts, pays


_CHUNK_ELEMENTS = 1 << 17  # elements per temporary of a row or node chunk: 1 MB of float64


def _family_volumes(
    models: ModelSet,
    price_matrix: np.ndarray,
    nodes: np.ndarray,
    weights: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Expected prompt volumes for many schedules at once.

    ``price_matrix`` has one row per schedule and one column per model in
    set order.  Returns ``(payoffs, volumes)`` with shapes (F,) and
    (F, M).  Selection per node is the stage-2 rule of
    :func:`~prompt_pricing.user_strategy.select_model` (:func:`_choose`).

    Rows are taken in chunks of ``_CHUNK_ELEMENTS // len(nodes)`` (at
    least one), so each chunk's temporaries hold about
    ``_CHUNK_ELEMENTS`` elements.  In each chunk a model's
    prices are sorted and profiled by :func:`_count_profile`, which runs
    the count kernel at the cheapest and the dearest of them only (once
    for a one-row call); its counts and user payoffs, bit-identical to
    the kernel's at every cell, are scattered back to row order as
    C-contiguous (rows, nodes) arrays.  Every row is scored at every
    node and reduced by its own sum, so a row's payoff and volumes are
    bit-identical to a one-row call, the route of
    :func:`platform_payoff`, whatever else is in the batch.  A chunk in
    which no price passes the count kernel's ``buy`` test ``p <= (1 -
    eps) * U`` at any node sells to no one, and its rows are left at
    exact zeros without profiling.
    """
    price_matrix = np.asarray(price_matrix, dtype=float)
    n_rows, n_models = price_matrix.shape
    if n_models != len(models):
        raise ValueError("price matrix columns must match the model set")
    volumes = np.zeros((n_rows, n_models))
    payoffs = np.zeros(n_rows)
    utils = [m.utility for m in models]
    costs = [m.cost for m in models]
    # the largest (1 - eps) * U of _counts_vec's buy test: rounding keeps the order of eps
    ceilings = (1.0 - nodes.min()) * np.array(utils)
    chunk = max(1, _CHUNK_ELEMENTS // len(nodes))
    counts_buf = np.empty((n_models, min(n_rows, chunk), len(nodes)))
    pays_buf = np.empty_like(counts_buf)
    for start in range(0, n_rows, chunk):
        rows = slice(start, start + chunk)
        prices = price_matrix[rows]
        if not np.any(prices.min(axis=0) <= ceilings):
            continue
        # each model's profile along its sorted prices, scattered back to (rows, nodes)
        order = np.argsort(prices, axis=0, kind="stable")
        ascending = prices[order, np.arange(n_models)]
        counts, pays = counts_buf[:, :len(prices)], pays_buf[:, :len(prices)]
        for j, u in enumerate(utils):
            counts[j, order[:, j]], pays[j, order[:, j]] = (
                a.T for a in _count_profile(u, ascending[:, j], nodes))
        sel = _choose(counts, pays, utils)
        for j in range(n_models):
            volumes[rows, j] = (((sel == j) * counts[j]) * weights).sum(axis=1)
            payoffs[rows] += (prices[:, j] - costs[j]) * volumes[rows, j]
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
        take = (n >= 1.0) & _prefers(pay, u, best_pay, best_util)  # any finite pay beats -inf
        sel = np.where(take, j, sel)
        best_pay = np.where(take, pay, best_pay)
        best_util = np.where(take, u, best_util)
    return sel


def _prefix_lengths(score_h: np.ndarray, score_l: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per node, the rows that win against each column and the columns that
    win against each row, from one stable argsort of both negated score
    columns (see :func:`_pair_lattice_payoffs`).  Shapes (nodes, columns)
    and (nodes, rows)."""
    n_high, n_low = score_h.shape[1], score_l.shape[1]
    merged = np.argsort(-np.hstack([score_h, score_l]), axis=1, kind="stable")
    rank = np.empty_like(merged)
    np.put_along_axis(rank, merged, np.arange(n_high + n_low)[None, :], axis=1)
    return rank[:, :n_high] - np.arange(n_high), rank[:, n_high:] - np.arange(n_low)


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
    profiled per axis (:func:`_count_profile`: the count kernel at each
    axis's two ends, the count steps between them); the pairs need only
    the selection, which is merged per node.  Returns shape (len low,
    len high), in the axes' own order: each axis is sorted ascending
    (stably) for the profile and the merge, and the output is put back
    in place.  Nodes may come in any order; they are taken in chunks
    whose temporaries hold about ``_CHUNK_ELEMENTS`` elements.  In each
    chunk the nodes where neither tier's cheapest price passes the
    kernel's ``buy`` test are dropped: no price sells there, so they
    would add only zeros to the sequential ``np.bincount`` sums, and
    every cell is bit-identical to keeping them.

    At one node a tier's score, its user payoff at the optimal count
    (``-inf`` where it sells nothing), never rises as its price rises.
    The high tier wins a pair when its score is at least the low
    tier's (:func:`_prefers` with its strictly higher utility gives it
    payoff ties).  So on the sorted axes the columns that win against a
    row are a prefix of the columns, and the rows that win against a
    column are a prefix of the rows.  A node where the high tier's
    worst score is at least the low tier's best is decided by those two
    ends: every column wins against every row.  So is a node where the
    low tier's worst score is above the high tier's best: every row
    wins against every column.  Only the other, mixed nodes are ranked
    one by one (:func:`_prefix_lengths`): one stable argsort per node of
    both negated score columns, the high tier's first so that a column
    sorts before every row it ties, gives both prefix lengths as ranks:
    the columns sorted before a row win against it, and the rows sorted
    before a column win against that.  At a decided node that argsort
    gives the same two constants, so skipping it changes no cell, bit
    for bit; a chunk whose nodes are all mixed is ranked whole, with no
    gather.  Cell (i, j) then collects the
    high tier's gain at column j from the nodes where at most i rows
    win against j, and the low tier's gain at row i from the nodes
    where at most j columns win against i; difference arrays
    (``np.bincount``) and one ``cumsum`` per axis give every cell.  This
    is the pairwise comparison made exactly, not approximated: the
    prefixes are read off the same float scores.

    The prefix argument needs the sorted scores non-increasing along
    each axis.  Mathematically they are; in floats a score could rise
    between two prices a few ulp apart at a count step, so a rise
    raises :class:`PromptPricingError` instead of giving wrong cells.
    """
    order_l = np.argsort(axis_low, kind="stable")
    order_h = np.argsort(axis_high, kind="stable")
    p_low, p_high = axis_low[order_l], axis_high[order_h]
    n_low, n_high = len(p_low), len(p_high)
    rows, cols = np.arange(n_low), np.arange(n_high)

    def profile(model: GaiModel, prices: np.ndarray, eps: np.ndarray, w: np.ndarray):
        """Scores and weighted platform gains, shape (nodes, prices)."""
        counts, pay = _count_profile(model.utility, prices, eps)
        score = np.where(counts >= 1.0, pay, -np.inf)
        if np.any(score[:, 1:] > score[:, :-1]):
            raise PromptPricingError(
                f"pair lattice: the user payoff of {model.id!r} rises with its price at some "
                f"node, so the winning prices are not a prefix of the axis")
        return score, (prices[None, :] - model.cost) * counts * w[:, None]

    # high_from[b, j]: column j's high-tier gain from the nodes where b rows win against it
    high_from = np.zeros((n_low + 1) * n_high)
    # low_from[i, a]: row i's low-tier gain from the nodes where a columns win against it
    low_from = np.zeros(n_low * (n_high + 1))

    def merge(eps: np.ndarray, w: np.ndarray) -> None:
        """Add one node chunk's gains to ``high_from`` and ``low_from``."""
        score_l, gain_l = profile(low, p_low, eps, w)
        score_h, gain_h = profile(high, p_high, eps, w)
        # decided by the column ends: the high tier's worst meets the low tier's best, or
        # the low tier's worst beats the high tier's best
        high_wins = score_h[:, -1] >= score_l[:, 0]
        low_wins = score_l[:, -1] > score_h[:, 0]
        mixed = ~(high_wins | low_wins)
        if mixed.all():
            beaten, beating = _prefix_lengths(score_h, score_l)
        else:
            beaten = np.repeat(np.where(low_wins, n_low, 0)[:, None], n_high, axis=1)
            beating = np.repeat(np.where(low_wins, 0, n_high)[:, None], n_low, axis=1)
            if mixed.any():
                beaten[mixed], beating[mixed] = _prefix_lengths(score_h[mixed], score_l[mixed])
        np.add(high_from, np.bincount((beaten * n_high + cols).ravel(), gain_h.ravel(),
                                      minlength=len(high_from)), out=high_from)
        np.add(low_from, np.bincount((rows * (n_high + 1) + beating).ravel(), gain_l.ravel(),
                                     minlength=len(low_from)), out=low_from)

    chunk = max(1, _CHUNK_ELEMENTS // (n_low + n_high))
    for start in range(0, len(nodes), chunk):
        eps, w = nodes[start:start + chunk], weights[start:start + chunk]
        # a node where neither cheapest price passes the kernel's buy test adds only zeros
        sells = (p_low[0] <= (1.0 - eps) * low.utility) | (p_high[0] <= (1.0 - eps) * high.utility)
        if sells.any():
            merge(eps[sells], w[sells])
    out = np.empty((n_low, n_high))
    out[np.ix_(order_l, order_h)] = (
        np.cumsum(high_from.reshape(n_low + 1, n_high), axis=0)[:n_low]
        + np.cumsum(low_from.reshape(n_low, n_high + 1), axis=1)[:, :n_high])
    return out


def platform_payoff(
    models: ModelSet,
    schedule: PriceSchedule,
    dist: AmbiguityDistribution,
    quad: QuadratureConfig = QuadratureConfig(),
) -> PricingOutcome:
    """Expected platform payoff of a schedule: quadrature over user decisions.

    Every price must be strictly positive; at a zero price the expected
    prompt volume diverges.  The outcome carries ``schedule`` itself,
    prices of models outside the set included.
    """
    prices = []
    for m in models:
        p = schedule.price_for(m)
        if p <= 0.0:
            raise UnboundedDemand(
                f"price for model {m.id!r} is {p}; zero prices make demand unbounded")
        prices.append(p)
    nodes, weights = dist.quadrature(quad)
    return replace(_best_outcome(models, [prices], [0.0], nodes, weights, method="Direct"),
                   schedule=schedule)


# --------------------------------------------------------------------------
# Single-model piecewise optimization
# --------------------------------------------------------------------------

_ROOT_STEPS = 100  # Newton steps allowed per root


def _segment_bounds(ratio: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Both roots of ``eps**(k-1) * (1-eps) = ratio`` for every (ratio, k) pair.

    ``ratio`` and ``k`` are equal-length arrays (k >= 2), each pair with
    ``ratio`` at most the curve's top ``_curve_top(k - 1)``.  Each root is
    the zero of the concave ``f(x) = a*x + b*log(-expm1(x)) - log(ratio)``,
    in ``x = log(eps)`` with ``(a, b) = (k-1, 1)`` for the lower root and in
    ``x = log(1-eps)`` with ``(a, b) = (1, k-1)`` for the upper one; ``f``
    peaks at ``x = log(a/(a+b))``, the curve's peak ``(k-1)/k``.  All roots
    run one Newton iteration, ``f' = a - b/expm1(-x)``, from ``x =
    log(ratio)/a``, where ``f <= 0`` left of the peak, so the iterates rise
    to the root without passing it: 4-5 steps at half the top, 8-9 at 0.99
    of it, up to 26 at a tangency, where the root is double.  An element
    stops once ``f >= 0`` or its next iterate is not larger (an iterate
    past the peak is cut to it; one that is nan, where ``f = f' = 0``,
    stops it), and only the moving elements are iterated.  At a tangency a
    root that rounding puts past the peak is taken to be the peak, so the
    interval there is empty.  Returns
    ``(lower, upper)``.  A k below 2, an element still moving after
    ``_ROOT_STEPS`` steps, or roots that do not bracket the peak inside the
    unit interval (``0 < lower <= (k-1)/k <= upper < 1``), raise
    :class:`PromptPricingError`.
    """
    power = np.asarray(k, dtype=float) - 1.0
    if np.any(power < 1.0):
        raise PromptPricingError("segment roots do not bracket the peak (k-1)/k inside (0, 1)")
    one = np.ones_like(power)
    a, b = np.concatenate([power, one]), np.concatenate([one, power])
    log_r = np.log(np.concatenate([ratio, ratio]).astype(float))
    x_peak = np.log(a / (a + b))
    x = np.minimum(log_r / a, x_peak)
    live = np.arange(len(x))
    for step in range(_ROOT_STEPS + 1):
        xs, a_s, b_s = x[live], a[live], b[live]
        f = a_s * xs + b_s * np.log(-np.expm1(xs)) - log_r[live]
        with np.errstate(divide="ignore", invalid="ignore"):  # f' = 0 at the peak
            nxt = np.minimum(xs - f / (a_s - b_s / np.expm1(-xs)), x_peak[live])
        move = (f < 0.0) & (nxt > xs)
        live = live[move]
        if not live.size:
            break
        if step == _ROOT_STEPS:
            raise PromptPricingError(
                f"segment roots: {live.size} roots still moving after "
                f"{_ROOT_STEPS} Newton steps")
        x[live] = nxt[move]
    half = len(power)
    peak = power / (power + 1.0)
    lower = np.minimum(np.exp(x[:half]), peak)
    upper = np.maximum(-np.expm1(x[half:]), peak)
    if not np.all((0.0 < lower) & (lower <= peak) & (peak <= upper) & (upper < 1.0)):
        raise PromptPricingError("segment roots do not bracket the peak (k-1)/k inside (0, 1)")
    return lower, upper


_MAX_SEGMENTS = 512
# _TOPS[k] = k**k / (k+1)**(k+1): a price above U * _TOPS[k] sells at most k prompts
_TOPS = np.array([_curve_top(k) for k in range(_MAX_SEGMENTS + 1)])


def _volume_from_segments(
    model: GaiModel, prices: np.ndarray, dist: AmbiguityDistribution
) -> np.ndarray:
    """Expected prompt volume at each price by the per-count decomposition.

    At price ``p`` a user buys prompt k exactly where its gain
    ``eps**(k-1) * (1-eps) * U`` covers ``p``: below ``1 - p/U`` for k =
    1, between the two roots of :func:`_segment_bounds` for k >= 2, up to
    the price's top count, the first k with ``U * _TOPS[k] <= p``.  At a
    tangency ``p = U * _TOPS[k]`` prompt k + 1 pays only at the single
    point ``k/(k+1)``, which has no mass, so it adds no interval.  The
    volume is the sum of the exact masses ``dist.mass`` of those
    intervals.  Every (price, k) pair is solved in one
    :func:`_segment_bounds` call; the pairs are laid out k-major, so
    ``np.add.at`` adds each price's masses in ascending k.  Away from the
    tangencies each root is within about an ulp of the true one, so the
    volume is within about 1e-15 (relative) of the volume from exact
    roots.  A price below ``U * _TOPS[-1]``, whose top count is past the
    table, raises :class:`PromptPricingError` instead of dropping
    segments.
    """
    ratio = np.asarray(prices, dtype=float) / model.utility
    sells = ratio < 1.0
    if np.any(sells & (ratio < _TOPS[-1])):
        raise PromptPricingError(
            f"prices below {_TOPS[-1]:.6g} * U support more than {_MAX_SEGMENTS} prompts")
    total = np.where(sells, dist.mass(0.0, 1.0 - ratio), 0.0)
    # top count: how many table entries (from k = 0) lie above the ratio
    top = np.where(sells, len(_TOPS) - np.searchsorted(_TOPS[::-1], ratio, side="right"), 1)
    ks = np.arange(2, top.max() + 1)
    at_k, at_price = np.nonzero(ks[:, None] <= top[None, :])
    lower, upper = _segment_bounds(ratio[at_price], ks[at_k])
    np.add.at(total, at_price, dist.mass(lower, upper))
    return total


def single_model_price(
    model: GaiModel,
    dist: AmbiguityDistribution,
    quad: QuadratureConfig = QuadratureConfig(),
) -> PricingOutcome:
    """Payoff-maximizing price for a catalogue of one model.

    The objective ``(p - C) * volume(p)`` is piecewise-smooth in the
    price, with kinks exactly where the attainable prompt count steps
    (at ``U * _TOPS[k]``).  The search domain is (C, U], floored at
    U/MAX_SEGMENTS when the cost is tiny so the per-count decomposition
    stays bounded.  Each smooth piece is searched by shrinking 9-point
    grids: round 0 spans the piece, and each later round spans the two
    grid steps either side of the piece's best point of the last round,
    a quarter of its width, until every such bracket is within 1e-10 of
    U; each piece keeps the best point it has seen.  One call of
    :func:`_volume_from_segments` scores a whole round, at most 17 per
    solve: the widest piece, (U/4, U], is within 1e-10 of U after 16
    rounds past round 0, so the loop needs no step cap.  After round 0
    a piece is dropped when no price in it can pay within
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

    volume = float(_volume_from_segments(model, np.array([price]), dist)[0])
    return PricingOutcome(
        schedule=PriceSchedule({model.id: price}),
        platform_payoff=(price - c) * volume,
        prompt_volume={model.id: volume},
        method="SingleModel",
    )


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
    """The quadrature of :func:`opp`'s coarse sweep lattice: a quarter of
    the nodes, at least 501, and never more than the full rule."""
    return QuadratureConfig(min(quad.node_count, max(501, quad.node_count // 4)))


_INNER_GRID = 250     # high-tier prices, cost to utility, scored against every sweep step
_POLISH_ROWS = 8      # strongest sweep steps the polish refines
_WINDOW_POINTS = 33   # prices per axis of one polish window
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
    one lattice on a reduced quadrature, and each step keeps the cheapest
    high-tier price within ``_RESCORE_TOL`` of the top utility of its
    best, so rounding does not choose between columns that pay the same
    (:func:`_near_best`).  Those pairs are re-scored by full-resolution
    schedule evaluation, which ranks the steps.  The polish compares
    full-resolution lattice cells only: a few shrinking price-pair
    lattices around each of the strongest steps (the first spans one
    sweep step and two high-tier grid steps either way), then around the
    first best window cell of all until the window is within 1e-8·U_H
    either way.  Every window's best cell is a candidate answer, and the
    solve ends as :func:`grid_oracle` does (:func:`_best_outcome`).  If
    ``trace_sink`` is given, one (p_L, p_H, payoff) tuple per sweep step
    is appended.
    """
    low, high = models.require_pair()
    nodes, weights = dist.quadrature(cfg.quad)

    if low.cost >= low.utility or high.cost >= high.utility:
        # single_model_price prices a tier that cannot sell above cost at its utility,
        # where nobody buys it, so the other tier is a catalogue of its own
        prices = [single_model_price(m, dist).schedule.price_for(m) for m in (low, high)]
        return _best_outcome(models, [prices], [0.0], nodes, weights, method="OPP")

    alpha = cfg.resolve_alpha(low.utility)
    steps = int(math.floor((low.utility - low.cost) / alpha)) + 1
    low_prices = low.cost + np.arange(steps) * alpha
    if low_prices[-1] < low.utility:
        low_prices = np.append(low_prices, low.utility)
    low_prices = low_prices[low_prices > 0.0]
    high_grid = np.linspace(max(high.cost, 1e-12), high.utility, _INNER_GRID)

    s_nodes, s_weights = dist.quadrature(_reduced_quad(cfg.quad))
    lattice = _pair_lattice_payoffs(low, high, low_prices, high_grid, s_nodes, s_weights)
    # each step takes its cheapest column near the best, not the one rounding ranks first
    best_col = np.argmax(_near_best(models, lattice), axis=1)
    sweep = np.column_stack([low_prices, high_grid[best_col]])
    payoffs, _ = _family_volumes(models, sweep, nodes, weights)
    if trace_sink is not None:
        trace_sink.extend(
            (float(p_low), float(p_high), float(v)) for (p_low, p_high), v in zip(sweep, payoffs))

    span = (high.utility - high.cost) / _INNER_GRID
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
        centre, half = sweep[row], np.array([alpha, 2 * span])
        for _ in range(_WINDOW_ROUNDS):
            centre, half = window(centre, half), half / 4
    # the best pair's window keeps shrinking until it is within 1e-8·U_H either way
    while half.max() > 1e-8 * high.utility:
        window(winners[int(np.argmax(scores))], half)
        half = half / 4

    return _best_outcome(models, winners, scores, nodes, weights, method="OPP")


def grid_oracle(
    models: ModelSet,
    dist: AmbiguityDistribution,
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
    cells = np.column_stack([np.repeat(axes[0], len(axes[1])), np.tile(axes[1], len(axes[0]))])
    return _best_outcome(models, cells, payoffs.ravel(), nodes, weights, method="GridOracle")


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
    rows within rounding of the best are re-scored (:func:`_best_outcome`).
    """
    betas = np.arange(1, 1000) / 1000.0
    utils = np.array([m.utility for m in models])
    family = betas[:, None] * utils[None, :]
    nodes, weights = dist.quadrature(quad)
    return _best_outcome(models, family, _family_payoffs(models, family, nodes, weights),
                         nodes, weights, method="UtilityBased")


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
    score exactly 0.  The best rows are then re-scored
    (:func:`_best_outcome`).
    """
    costs = np.array([m.cost for m in models])
    if np.any(costs <= 0.0):
        raise DegenerateCostBase("cost-proportional pricing needs every cost > 0")
    mu_max = max(m.utility for m in models) / costs.min()
    mus = np.arange(0, int(math.floor(mu_max / 1e-3)) + 1) * 1e-3
    family = (1.0 + mus)[:, None] * costs[None, :]
    nodes, weights = dist.quadrature(quad)
    return _best_outcome(models, family, _family_payoffs(models, family, nodes, weights),
                         nodes, weights, method="CostBased")


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
      between the counts at the dearest and the cheapest row are needed
      (:func:`_count_steps`, the step list of :func:`_count_profile`).
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
    decides the float comparison; :func:`_best_outcome` re-scores the
    rows it chooses between.
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
    top, steps = [], []
    for u, col in zip(utils, cols):
        first, _, at, pos = _count_steps(u, col, nodes)
        steps.append(np.sort(at * stride + pos))
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
    held = [(1.0 - eps ** n) * u for n, u in zip(counts, utils)]  # as in _count_profile

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


def _near_best(models: ModelSet, scores: np.ndarray) -> np.ndarray:
    """Where ``scores`` lie within ``_RESCORE_TOL`` of the top utility of
    the best score along their last axis: the candidates that summation
    order alone may have ranked below the best."""
    tol = _RESCORE_TOL * max(m.utility for m in models)
    return scores >= scores.max(axis=-1, keepdims=True) - tol


def _best_outcome(
    models: ModelSet,
    schedules: np.ndarray | Sequence[Sequence[float]],
    scores: np.ndarray | Sequence[float],
    nodes: np.ndarray,
    weights: np.ndarray,
    method: str,
) -> PricingOutcome:
    """The outcome of the schedule to return, given a search score for each.

    ``schedules`` has one row of prices per schedule, in set order.  The
    schedules :func:`_near_best` keeps are re-scored in one
    :func:`_family_volumes` call, each row exactly as
    :func:`platform_payoff` scores that schedule alone, and the outcome
    of the first best of them is read off its row, so rounding in the
    search scores does not pick the answer.
    """
    near = np.flatnonzero(_near_best(models, np.asarray(scores)))
    prices = np.asarray(schedules, dtype=float)[near]
    payoffs, volumes = _family_volumes(models, prices, nodes, weights)
    i = int(np.argmax(payoffs))
    return PricingOutcome(
        schedule=PriceSchedule({m.id: float(p) for m, p in zip(models, prices[i])}),
        platform_payoff=float(payoffs[i]),
        prompt_volume={m.id: float(volumes[i, j]) for j, m in enumerate(models)},
        method=method,
    )
