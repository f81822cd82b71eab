"""Reference evaluator for the stage-2 user rules, kept apart from the package.

Plain numpy enumeration: at every ambiguity value it scores the prompt
counts ``0..cap`` of each model by ``(1 - eps**n) * U - n * p`` and
applies the documented rules:

* at an indifference boundary the user takes the larger count: where
  the best count ``b`` and ``b + 1`` pay the same to within
  ``TIE * U`` and prompt ``b + 1``'s marginal gain still covers the
  price, the count is ``b + 1`` (the rule criterion 01 applies);
* a payoff tie between models goes to the higher utility, then to the
  smaller id;
* a user indifferent between buying and not buying buys (the boundary
  rule at ``b = 0``), and a user who sends no prompt to any model stays
  out.

Models are read through their ``id``, ``utility`` and ``cost``
attributes only.  Quadrature nodes and weights are passed in; the
evaluator never calls the package.
"""

from __future__ import annotations

import math

import numpy as np

TIE = 1e-12
_CHUNK_CELLS = 2_000_000


def count_cap(utility: float, price: float) -> int:
    """A count no ambiguity level can exceed at this price.

    Prompt ``n``'s marginal gain ``eps**(n-1) * (1-eps) * U`` peaks at
    ``(n-1)**(n-1) / n**n * U``; once that peak is below the price no
    user sends ``n`` prompts.  Two spare counts absorb rounding.
    """
    if price <= 0.0:
        raise ValueError(f"the reference needs positive prices, got {price}")
    ratio = price / utility
    n = 2
    while math.exp((n - 1) * math.log(n - 1) - n * math.log(n)) >= ratio:
        n += 1
    return n + 1


def best_counts(utility: float, prices, eps) -> tuple[np.ndarray, np.ndarray]:
    """Optimal counts and user payoffs, both of shape (len(prices), len(eps))."""
    prices = np.atleast_1d(np.asarray(prices, dtype=float))
    eps = np.atleast_1d(np.asarray(eps, dtype=float))
    cap = count_cap(utility, float(prices.min()))
    n = np.arange(cap + 1, dtype=float)
    powers = eps[:, None] ** n[None, :]
    counts = np.empty((len(prices), len(eps)), dtype=np.int64)
    payoffs = np.empty((len(prices), len(eps)))
    step = max(1, _CHUNK_CELLS // (len(eps) * (cap + 1)))
    for lo in range(0, len(prices), step):
        p = prices[lo:lo + step, None]
        pay = (1.0 - powers[None, :, :]) * utility - n[None, None, :] * p[:, :, None]
        b = pay.argmax(axis=2)
        if (b >= cap).any():
            raise RuntimeError(f"count cap {cap} reached at utility {utility}")
        pay_b = np.take_along_axis(pay, b[:, :, None], axis=2)[:, :, 0]
        pay_next = np.take_along_axis(pay, (b + 1)[:, :, None], axis=2)[:, :, 0]
        gain_next = eps[None, :] ** b * (1.0 - eps[None, :]) * utility - p
        up = (np.abs(pay_next - pay_b) <= TIE * utility) & (gain_next >= 0.0)
        counts[lo:lo + step] = b + up
        payoffs[lo:lo + step] = np.where(up, pay_next, pay_b)
    return counts, payoffs


def _preference_order(models) -> list[int]:
    return sorted(range(len(models)), key=lambda j: (-models[j].utility, models[j].id))


def choose(models, counts: list[np.ndarray], payoffs: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Chosen model index per cell (-1 stays out) and the user's payoff there.

    ``counts[j]`` and ``payoffs[j]`` hold model ``j``'s optimal count and
    payoff; all share one shape.
    """
    shape = counts[0].shape
    chosen = np.full(shape, -1)
    best = np.full(shape, -np.inf)
    for j in _preference_order(models):
        take = (counts[j] >= 1) & (payoffs[j] > best)
        chosen = np.where(take, j, chosen)
        best = np.where(take, payoffs[j], best)
    return chosen, np.where(chosen >= 0, best, 0.0)


def evaluate_many(models, price_rows, nodes, weights) -> tuple[np.ndarray, np.ndarray]:
    """Platform payoffs (R,) and per-model prompt volumes (R, M) of R schedules.

    ``price_rows`` has one column per model, in the order of ``models``.
    """
    models = list(models)
    price_rows = np.atleast_2d(np.asarray(price_rows, dtype=float))
    counts, payoffs = [], []
    for j, m in enumerate(models):
        unique, inverse = np.unique(price_rows[:, j], return_inverse=True)
        c, p = best_counts(m.utility, unique, nodes)
        counts.append(c[inverse])
        payoffs.append(p[inverse])
    chosen, _ = choose(models, counts, payoffs)
    volumes = np.stack([((chosen == j) * counts[j]) @ weights for j in range(len(models))], axis=1)
    margins = price_rows - np.array([m.cost for m in models])[None, :]
    return (margins * volumes).sum(axis=1), volumes


def evaluate(models, prices, nodes, weights) -> tuple[float, list[float]]:
    """Platform payoff and per-model prompt volumes of one schedule."""
    payoff, volumes = evaluate_many(models, [list(prices)], nodes, weights)
    return float(payoff[0]), [float(v) for v in volumes[0]]


def decisions(models, prices, eps) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-model counts (M, E), chosen model index (E,) and user payoff (E,)."""
    models = list(models)
    counts, payoffs = [], []
    for m, p in zip(models, prices):
        c, pay = best_counts(m.utility, [p], eps)
        counts.append(c[0])
        payoffs.append(pay[0])
    chosen, user = choose(models, counts, payoffs)
    return np.stack(counts), chosen, user


def single_tier_grid_max(model, eps, grid: int) -> np.ndarray:
    """Best ``(p - C) * count`` over ``grid`` prices in (C, U], per ambiguity value.

    The platform's payoff against users who all share one ambiguity
    level, with this model served and every other model priced out.
    """
    prices = model.cost + (model.utility - model.cost) * np.arange(1, grid + 1) / grid
    counts, _ = best_counts(model.utility, prices, eps)
    return ((prices - model.cost)[:, None] * counts).max(axis=0)
