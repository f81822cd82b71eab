"""Schedule evaluation over the ambiguity density.

The platform's payoff is the margin-weighted expected prompt volume over
users who each pick a model and a prompt budget by the stage-2 rules.
The solvers of :mod:`~prompt_pricing.heterogeneous` score schedules here:

* many schedules by quadrature (:func:`_family_volumes`): the count
  kernel (:func:`_counts_vec`) at the two ends of a sorted price axis
  (:func:`_count_steps`) and every other count read off the steps
  between them (:func:`_count_profile`),
* every cell of a price-pair lattice (:func:`_pair_lattice_payoffs`),
  each node chunk profiling only the prices that sell in it,
* every point of a price line ``origin + t * d`` (:func:`_family_payoffs`),
* the finish of every quadrature solver and of :func:`platform_payoff`
  (:func:`_best_outcome`), the one caller of :func:`_family_volumes`,
* exact single-model volumes (:func:`_volume_from_segments`): every
  (price, count) root in one Newton iteration in log space
  (:func:`_segment_bounds`), then exact interval masses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

import numpy as np

from .core import (
    GaiModel,
    ModelSet,
    PriceSchedule,
    PromptPricingError,
    QuadratureConfig,
    TabulatedAmbiguity,
    UnboundedDemand,
)
from .user_strategy import _curve_top, _prefers


@dataclass(frozen=True)
class PricingOutcome:
    """A price schedule with its expected payoff and per-model prompt volumes."""

    schedule: PriceSchedule
    platform_payoff: float
    prompt_volume: Mapping[str, float]
    method: str
    trace: tuple = field(default=(), repr=False, compare=False)  # opp's sweep; not an answer

    def __post_init__(self) -> None:
        object.__setattr__(self, "prompt_volume", dict(self.prompt_volume))
        for mid, v in self.prompt_volume.items():
            if v < 0.0 or not math.isfinite(v):
                raise ValueError(f"prompt volume for {mid!r} must be finite and >= 0, got {v}")


_COUNT_STEPS = 64  # passes of the one correction loop after the closed-form estimate
_CHUNK_ELEMENTS = 1 << 17  # elements per temporary of a row or node chunk: 1 MB of float64
_MAX_COUNT_STEPS = 16 * _CHUNK_ELEMENTS  # count steps per _count_steps call: 16 MB an array


def _counts_vec(utility: float, price, eps: np.ndarray) -> np.ndarray:
    """Optimal prompt counts over an ambiguity array; ``price`` may broadcast.

    Requires every price to be strictly positive.  The closed-form
    logarithm is pinned down by marginal-gain comparisons, matching the
    scalar routine except possibly within a few ulp of indifference
    boundaries where library power functions may disagree by one unit in
    the last place.  The estimate is exact up to rounding, so one loop
    moves each count a step or two: up while prompt k+1 pays, down while
    prompt k does not.  More than ``_COUNT_STEPS`` passes raise
    :class:`PromptPricingError` instead of returning an uncorrected count.
    """
    eps = np.asarray(eps, dtype=float)
    price = np.asarray(price, dtype=float)
    one_minus = 1.0 - eps
    ceiling = one_minus * utility
    buy = price <= ceiling
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = eps * price / ceiling
        k = np.floor(np.log(ratio) / np.log(eps))
    k = np.where(buy & np.isfinite(k), np.maximum(k, 1.0), 1.0)
    for step in range(_COUNT_STEPS + 1):
        advance = buy & (eps ** k * one_minus * utility - price >= 0.0)
        back = buy & (k > 1.0) & (eps ** (k - 1.0) * one_minus * utility - price < 0.0)
        if not (advance.any() or back.any()):
            break
        if step == _COUNT_STEPS:
            raise PromptPricingError(
                f"prompt counts still moving after {_COUNT_STEPS} correction steps")
        k = k + advance - back
    return np.where(buy, k, 0.0)


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
    that raises :class:`PromptPricingError` instead of miscounting.  More
    than ``_MAX_COUNT_STEPS`` steps raise it too, before any array is
    built for them: a price far below ``(1 - eps) * U`` near eps = 1
    buys millions of prompts, and the step list would take gigabytes.
    """
    top = _counts_vec(utility, prices[0], nodes)
    if prices[-1] == prices[0]:  # one price: no steps
        none = np.zeros(0, dtype=np.int64)
        return top, top, none, none
    bottom = _counts_vec(utility, prices[-1], nodes)
    total = (top - bottom).sum()  # in floats, so a count past int64 still compares
    if total > _MAX_COUNT_STEPS:
        raise PromptPricingError(
            f"the price {prices[0]:.6g} at utility {utility:g} makes {total:,.0f} prompt-count "
            f"steps, more than the {_MAX_COUNT_STEPS:,} allowed")
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
    utility: float, prices: np.ndarray, nodes: np.ndarray, steps: tuple
) -> tuple[np.ndarray, np.ndarray]:
    """Prompt counts and user payoffs at every (node, price), shape (nodes, prices).

    ``prices`` must ascend, and ``steps`` is the ``(top, bottom, at,
    pos)`` that :func:`_count_steps` returned for these prices and
    nodes.  Each node starts at the cheapest price's count and drops by
    one at each step, through ``np.bincount`` and one ``cumsum``.  The
    held utility ``(1 - eps ** n) * U`` is computed once per (node,
    count) and gathered, so a user payoff is ``held - n * p``.  Every
    element is bit-identical to the count kernel and the payoff
    ``(1 - eps ** n) * U - n * p`` evaluated at that cell.
    """
    top, bottom, at, pos = steps
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
    ``_CHUNK_ELEMENTS`` elements.  In each chunk a model's prices are
    sorted and profiled by :func:`_count_steps`, which runs the count
    kernel at the cheapest and the dearest of them only (once for a
    one-row call), and :func:`_count_profile`; the counts and user
    payoffs, bit-identical to the kernel's at every cell, are scattered
    back to row order as C-contiguous (rows, nodes) arrays.  Every row
    is scored at every node and reduced by its own sum, so a row's
    payoff and volumes are bit-identical to a one-row call, the route of
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
        for j, (u, col) in enumerate(zip(utils, ascending.T)):
            counts[j, order[:, j]], pays[j, order[:, j]] = (
                a.T for a in _count_profile(u, col, nodes, _count_steps(u, col, nodes)))
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
    profiled per axis (:func:`_count_steps`, the count kernel at each
    axis's two ends, and :func:`_count_profile`, the steps between
    them); the pairs need only the selection, which is merged per node.
    Returns shape (len low, len high).  Both axes must be ascending
    (ties allowed); an axis that descends anywhere raises
    :class:`ValueError`.  Nodes may come in any order; they are taken in
    chunks whose temporaries hold about ``_CHUNK_ELEMENTS`` elements.
    In each chunk the nodes where neither tier's cheapest price passes
    the kernel's ``buy`` test are dropped: no price sells there, so they
    would add only zeros to the sequential ``np.bincount`` sums, and
    every cell is bit-identical to keeping them.  For the same reason
    each tier's axis is trimmed per chunk to its live prefix, the prices
    ``p <= (1 - eps) * U`` at the chunk's smallest eps, the ``buy`` test
    at its most generous node (at least one price is kept).  Past that
    prefix the count is 0 at every node of the chunk, so the score is
    ``-inf`` and the gain exactly zero: such a price beats nothing and
    adds only zeros.  The prefix lengths, count steps and monotonicity
    check below are those of the full axis on the kept prices, and only
    the kept prices are profiled; "the axis" below is the live prefix.

    At one node a tier's score, its user payoff at the optimal count
    (``-inf`` where it sells nothing), never rises as its price rises.
    The high tier wins a pair when its score is at least the low
    tier's (:func:`_prefers` with its strictly higher utility gives it
    payoff ties).  So on the ascending axes the columns that win against
    a row are a prefix of the columns, and the rows that win against a
    column are a prefix of the rows.  Each node is decided before any
    profile is built, from the scores at the two ends of each axis,
    computed from the end counts ``top`` and ``bottom`` as the profile
    computes them.  A node where the high tier's worst score is at
    least the low tier's best is decided by those ends: every column
    wins against every row.  So is a node where the low tier's worst
    score is above the high tier's best: every row wins against every
    column.  Only the other, mixed nodes are ranked one by one
    (:func:`_prefix_lengths`): one stable argsort per node of both
    negated score columns, the high tier's first so that a column sorts
    before every row it ties, gives both prefix lengths as ranks: the
    columns sorted before a row win against it, and the rows sorted
    before a column win against that.  At a decided node that argsort
    gives the same two constants, so skipping it changes no cell, bit
    for bit; a chunk whose nodes are all mixed is profiled and ranked
    whole, with no gather.  Cell (i, j) then collects the high tier's
    gain at column j from the nodes where at most i rows win against j,
    and the low tier's gain at row i from the nodes where at most j
    columns win against i; difference arrays (``np.bincount``) and one
    ``cumsum`` per axis give every cell.  This is the pairwise
    comparison made exactly, not approximated: the prefixes are read
    off the same float scores.

    At a node the low tier wins outright on its ``nl`` live rows, every
    high-tier gain goes to ``high_from`` row ``nl``, and at a node the
    high tier wins outright on its ``nh`` live columns, every low-tier
    gain goes to ``low_from`` column ``nh``.  When that axis was trimmed
    the bin is a real row or column, the first trimmed price, against
    which the winner sells nothing, so those gains are added.  When it
    was not, the bin is the sink ``n_low`` or ``n_high`` that the final
    slices ``[:n_low]`` and ``[:, :n_high]`` discard, so those gains are
    not computed.  Every bin that is read gets the same addends in the
    same node order, up to exact zeros, and every cell is bit-identical
    to adding them all.  At a kept node that is decided and where the
    tier's count does not step, the count is ``top`` at every price and
    the gains ``(p - C) * top * w`` are broadcast with no profile.

    The prefix argument needs the scores non-increasing along each
    axis.  Mathematically they are; in floats a score could rise
    between two prices a few ulp apart at a count step, so a rise
    raises :class:`PromptPricingError` instead of giving wrong cells.
    At a fixed count ``n`` the score ``held - n * p`` cannot rise,
    because rounding is monotone, so a rise can occur only where the
    count steps.  Each tier's profile, and its check, therefore runs at
    the mixed nodes and at every node where that tier's count steps,
    whether its gains there are kept or not.
    """
    if np.any(np.diff(axis_low) < 0.0) or np.any(np.diff(axis_high) < 0.0):
        raise ValueError("pair lattice: both price axes must be ascending")
    n_low, n_high = len(axis_low), len(axis_high)
    rows, cols = np.arange(n_low), np.arange(n_high)

    tiers = ((low, axis_low), (high, axis_high))

    def profile(model: GaiModel, prices: np.ndarray, eps: np.ndarray, w: np.ndarray, steps):
        """Scores and weighted platform gains, shape (nodes, prices)."""
        counts, pay = _count_profile(model.utility, prices, eps, steps)
        score = np.where(counts >= 1.0, pay, -np.inf)
        if np.any(score[:, 1:] > score[:, :-1]):
            raise PromptPricingError(
                f"pair lattice: the user payoff of {model.id!r} rises with its price at some "
                f"node, so the winning prices are not a prefix of the axis")
        return score, (prices[None, :] - model.cost) * counts * w[:, None]

    def profile_some(model, prices, eps, w, steps, keep, mixed):
        """Scores at the ``mixed`` nodes and gains at the ``keep`` nodes.  Only
        the mixed nodes and the nodes where the tier's count steps are
        profiled; at any other node the count is ``top`` at every price."""
        top, bottom, at, pos = steps
        gain = (prices[None, :] - model.cost) * top[keep, None] * w[keep, None]
        some = mixed | (top != bottom)
        row = np.cumsum(some) - 1  # a profiled node's row; every stepping node is profiled
        score, profiled = profile(model, prices, eps[some], w[some],
                                  (top[some], bottom[some], row[at], pos))
        gain[some[keep]] = profiled[keep[some]]
        return score[mixed[some]], gain

    # high_from[b, j]: column j's high-tier gain from the nodes where b rows win against it
    high_from = np.zeros((n_low + 1) * n_high)
    # low_from[i, a]: row i's low-tier gain from the nodes where a columns win against it
    low_from = np.zeros(n_low * (n_high + 1))

    def merge(eps: np.ndarray, w: np.ndarray) -> None:
        """Add one node chunk's gains to ``high_from`` and ``low_from``."""
        # each tier's live prefix: the prices that pass the kernel's buy test at the chunk's
        # smallest eps, its largest ceiling (at least one price); past it every gain is 0
        one_minus = 1.0 - eps.min()
        nl, nh = (max(1, int(np.searchsorted(prices, one_minus * m.utility, side="right")))
                  for m, prices in tiers)
        live = ((low, axis_low[:nl]), (high, axis_high[:nh]))
        steps = [_count_steps(m.utility, prices, eps) for m, prices in live]
        # each tier's score at its cheapest and its dearest live price, as its profile has them
        (first_l, last_l), (first_h, last_h) = (
            [np.where(n >= 1.0, (1.0 - eps ** n) * m.utility - n * p, -np.inf)
             for n, p in ((top, prices[0]), (bottom, prices[-1]))]
            for (m, prices), (top, bottom, _, _) in zip(live, steps))
        # decided by the column ends: the high tier's worst meets the low tier's best, or
        # the low tier's worst beats the high tier's best
        high_wins = last_h >= first_l
        low_wins = last_l > first_h
        mixed = ~(high_wins | low_wins)
        if mixed.all():
            (score_l, gain_l), (score_h, gain_h) = (
                profile(m, prices, eps, w, s) for (m, prices), s in zip(live, steps))
            beaten, beating = _prefix_lengths(score_h, score_l)
        else:
            # at a node the other tier wins outright a tier's gains go to the bin just past
            # the other's live prefix: a trimmed row or column, or else the sink the slices
            # drop, and then they are not computed
            keep_l, keep_h = ~high_wins | (nh < n_high), ~low_wins | (nl < n_low)
            score_l, gain_l = profile_some(*live[0], eps, w, steps[0], keep_l, mixed)
            score_h, gain_h = profile_some(*live[1], eps, w, steps[1], keep_h, mixed)
            beaten = np.zeros(gain_h.shape, dtype=np.int64)
            beating = np.zeros(gain_l.shape, dtype=np.int64)
            beaten[low_wins[keep_h]], beating[high_wins[keep_l]] = nl, nh
            beaten[mixed[keep_h]], beating[mixed[keep_l]] = _prefix_lengths(score_h, score_l)
        np.add(high_from, np.bincount((beaten * n_high + cols[:nh]).ravel(), gain_h.ravel(),
                                      minlength=len(high_from)), out=high_from)
        np.add(low_from, np.bincount((rows[:nl] * (n_high + 1) + beating).ravel(),
                                     gain_l.ravel(), minlength=len(low_from)), out=low_from)

    chunk = max(1, _CHUNK_ELEMENTS // (n_low + n_high))
    for start in range(0, len(nodes), chunk):
        eps, w = nodes[start:start + chunk], weights[start:start + chunk]
        # a node where neither cheapest price passes the kernel's buy test adds only zeros
        sells = ((axis_low[0] <= (1.0 - eps) * low.utility)
                 | (axis_high[0] <= (1.0 - eps) * high.utility))
        if sells.any():
            merge(eps[sells], w[sells])
    return (np.cumsum(high_from.reshape(n_low + 1, n_high), axis=0)[:n_low]
            + np.cumsum(low_from.reshape(n_low, n_high + 1), axis=1)[:, :n_high])


def platform_payoff(
    models: ModelSet,
    schedule: PriceSchedule,
    dist: TabulatedAmbiguity,
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


def _family_payoffs(
    models: ModelSet,
    origin: np.ndarray | float,
    direction: np.ndarray,
    factors: np.ndarray,
    nodes: np.ndarray,
    weights: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Full-resolution quadrature payoff of every point of a price line.

    Returns ``(family, payoffs)``: row ``i`` of ``family`` is the
    schedule ``origin + factors[i] * direction``, one price per model in
    set order, any number of models.  A ``direction`` of the wrong
    length or with a negative entry, or ``factors`` that descend
    anywhere (ties are allowed), raise :class:`ValueError`, so the rows
    lie on one line and every price column ascends down them, rounding
    included, as the envelope argument below needs.  The work is per
    node, not per (row, node):

    * Count steps.  At node ``eps`` model ``m`` keeps prompt ``k``
      exactly on the rows whose price is at most its marginal gain
      ``eps ** (k-1) * (1 - eps) * U``, the comparison of the count
      kernel, so one ``searchsorted`` of that gain into the price column
      gives the row where the count drops below ``k``.  Only the ``k``
      between the counts at the dearest and the cheapest row are needed
      (:func:`_count_steps`, the step list of :func:`_count_profile`).
    * Selection.  Between two steps of a node (a segment) every count is
      fixed, so each user payoff is affine in ``t`` and the chosen model
      is the top of an upper envelope of lines: each model wins on at
      most one run of rows.  Where the choice at the segment's first
      and last row differ, binary search on the selection rule of
      :func:`_family_volumes` (:func:`_choose`, on the same float
      payoffs) finds each change.
    * Volumes.  Every run adds ``weight * count`` to its model's volume
      from its first row to its last, through difference arrays
      (``np.bincount``) and one ``cumsum`` per model.

    A price sells only if it is at most the first prompt's gain ``(1 -
    eps) * U`` (the count kernel's ``buy`` test), so the rows past the
    last that sells at some node are not scored and pay exactly 0.  A
    row agrees with a :func:`_family_volumes` evaluation of it up to
    summation order (within 1e-11 of the top utility in the tests).
    The one exception is a pair of user payoffs within an ulp of each
    other over a run of rows, where rounding, not the affine trend,
    decides the float comparison; :func:`_best_outcome` re-scores the
    rows it chooses between.
    """
    direction = np.asarray(direction, dtype=float)
    factors = np.asarray(factors, dtype=float)
    if (direction.shape != (len(models),) or np.any(direction < 0.0)
            or np.any(np.diff(factors) < 0.0)):
        raise ValueError("price line: every model's price must ascend with the factor")
    family = origin + factors[:, None] * direction
    payoffs = np.zeros(len(factors))
    live = max(int(np.searchsorted(family[:, j], ((1.0 - nodes) * m.utility).max(), side="right"))
               for j, m in enumerate(models))
    if live == 0:
        return family, payoffs
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
    return family, payoffs


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
    model: GaiModel, prices: np.ndarray, dist: TabulatedAmbiguity
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
