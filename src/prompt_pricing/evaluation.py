"""Schedule evaluation by quadrature over the ambiguity density.

The platform's payoff is the margin-weighted expected prompt volume over
users who each pick a model and a prompt budget by the stage-2 rules.
The solvers of :mod:`~prompt_pricing.heterogeneous` score schedules here:

* one schedule (:func:`platform_payoff`) or many (:func:`_family_volumes`),
  through the count kernel (:func:`_counts_vec`) and the count profile,
  which runs it at the two ends of a sorted price axis and reads every
  other count off the steps between them (:func:`_count_profile`),
* every cell of a price-pair lattice (:func:`_pair_lattice_payoffs`),
* every row of a one-parameter price family (:func:`_family_payoffs`),
* the finish of every quadrature solver (:func:`_best_outcome`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
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
from .user_strategy import _prefers


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


_COUNT_STEPS = 64  # correction steps each way allowed after the closed-form estimate


def _counts_vec(utility: float, price, eps: np.ndarray) -> np.ndarray:
    """Optimal prompt counts over an ambiguity array; ``price`` may broadcast.

    Requires every price to be strictly positive.  The closed-form
    logarithm is pinned down by marginal-gain comparisons, matching the
    scalar routine except possibly within a few ulp of indifference
    boundaries where library power functions may disagree by one unit in
    the last place.  The estimate is exact up to rounding, so the
    comparisons move it by a step or two; needing more than
    ``_COUNT_STEPS`` steps either way raises :class:`PromptPricingError`
    instead of returning an uncorrected count.
    """
    eps = np.asarray(eps, dtype=float)
    price = np.asarray(price, dtype=float)
    one_minus = 1.0 - eps
    ceiling = one_minus * utility
    buy = price <= ceiling
    if not buy.any():
        return np.zeros(np.broadcast(price, eps).shape)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = eps * price / ceiling
        k = np.floor(np.log(ratio) / np.log(eps))
    k = np.where(buy & np.isfinite(k), np.maximum(k, 1.0), 1.0)
    for step in range(_COUNT_STEPS + 1):
        advance = buy & (eps ** k * one_minus * utility - price >= 0.0)
        if not advance.any():
            break
        if step == _COUNT_STEPS:
            raise PromptPricingError(
                f"prompt counts still rising after {_COUNT_STEPS} correction steps")
        k = np.where(advance, k + 1.0, k)
    for step in range(_COUNT_STEPS + 1):
        back = buy & (k > 1.0) & (eps ** (k - 1.0) * one_minus * utility - price < 0.0)
        if not back.any():
            break
        if step == _COUNT_STEPS:
            raise PromptPricingError(
                f"prompt counts still falling after {_COUNT_STEPS} correction steps")
        k = np.where(back, k - 1.0, k)
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
    len high).  Both axes must be ascending (ties allowed); an axis that
    descends anywhere raises :class:`ValueError`.  Nodes may come in any
    order; they are taken in chunks whose temporaries hold about
    ``_CHUNK_ELEMENTS`` elements.  In each chunk the nodes where neither
    tier's cheapest price passes the kernel's ``buy`` test are dropped:
    no price sells there, so they would add only zeros to the sequential
    ``np.bincount`` sums, and every cell is bit-identical to keeping them.

    At one node a tier's score, its user payoff at the optimal count
    (``-inf`` where it sells nothing), never rises as its price rises.
    The high tier wins a pair when its score is at least the low
    tier's (:func:`_prefers` with its strictly higher utility gives it
    payoff ties).  So on the ascending axes the columns that win against
    a row are a prefix of the columns, and the rows that win against a
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

    The prefix argument needs the scores non-increasing along each
    axis.  Mathematically they are; in floats a score could rise
    between two prices a few ulp apart at a count step, so a rise
    raises :class:`PromptPricingError` instead of giving wrong cells.
    """
    if np.any(np.diff(axis_low) < 0.0) or np.any(np.diff(axis_high) < 0.0):
        raise ValueError("pair lattice: both price axes must be ascending")
    n_low, n_high = len(axis_low), len(axis_high)
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
        score_l, gain_l = profile(low, axis_low, eps, w)
        score_h, gain_h = profile(high, axis_high, eps, w)
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
