"""Shared oracles and sequence predicates for the test suite."""

from __future__ import annotations

import math
import os
from pathlib import Path

import numpy as np

import prompt_pricing
from prompt_pricing import (
    GaiModel,
    ModelSet,
    PriceSchedule,
    UniformAmbiguity,
    prompt_upper_bound,
    user_payoff,
)
from prompt_pricing.user_strategy import _counts_vec


def package_env() -> dict[str, str]:
    """This environment with the imported package's directory first on
    ``PYTHONPATH``, so a child ``python -m prompt_pricing.cli`` runs the
    code under test, with or without an installed copy or ``PYTHONPATH``."""
    root = str(Path(prompt_pricing.__file__).resolve().parent.parent)
    inherited = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=os.pathsep.join([root, inherited]) if inherited else root)


def brute_force_count(model: GaiModel, price: float, eps: float, cap: int = 200) -> int:
    """Independent argmax of the user payoff over n in [0, cap], smallest n on ties."""
    best_n = 0
    best = 0.0
    for n in range(1, cap + 1):
        pay = user_payoff(model, price, eps, n)
        if pay > best:
            best = pay
            best_n = n
    return best_n


def boundary_tie_count(model: GaiModel, price: float, eps: float, brute: int) -> int:
    """The count the documented indifference rule expects, given ``brute_force_count``.

    The user strategy buys the extra prompt at an indifference boundary,
    while the brute force breaks payoff ties toward the smallest ``n``.
    Where prompts ``brute`` and ``brute + 1`` pay the same to within
    ``1e-12 * U`` (an exact tie, or one that rounding splits by an ulp),
    the expected count is ``brute + 1`` if that prompt's marginal gain
    ``eps**brute * (1 - eps) * U`` still covers the price.
    """
    u = model.utility
    gap = user_payoff(model, price, eps, brute + 1) - user_payoff(model, price, eps, brute)
    if abs(gap) <= 1e-12 * u and eps ** brute * (1.0 - eps) * u - price >= 0.0:
        return brute + 1
    return brute


def brute_force_decision(models: ModelSet, prices: PriceSchedule, eps: float,
                         cap: int = 200) -> tuple[str | None, int, float]:
    """Independent best (model, count, payoff) by exhaustive enumeration."""
    best: tuple[str | None, int, float] = (None, 0, 0.0)
    for model in models:
        price = prices.price_for(model)
        if price == 0.0:
            raise ValueError("brute force needs positive prices")
        n = brute_force_count(model, price, eps, cap)
        pay = user_payoff(model, price, eps, n)
        if n == 0:
            continue
        if pay > best[2]:
            best = (model.id, n, pay)
    return best


def is_non_increasing(seq, slack: float = 0.0) -> bool:
    return all(b <= a + slack for a, b in zip(seq, seq[1:]))


def is_non_decreasing(seq, slack: float = 0.0) -> bool:
    return all(b >= a - slack for a, b in zip(seq, seq[1:]))


def is_unimodal(seq) -> bool:
    """Never increases again after its first strict decrease."""
    decreased = False
    for a, b in zip(seq, seq[1:]):
        if b < a:
            decreased = True
        elif b > a and decreased:
            return False
    return True


def payoffs_at_counts(utility: float, price, eps, counts):
    """User payoffs ``(1 - eps**n) * U - n * p`` at the given prompt counts;
    the arguments broadcast."""
    eps = np.asarray(eps, dtype=float)
    return (1.0 - eps ** counts) * utility - counts * np.asarray(price, dtype=float)


def per_cell_profile(utility: float, prices, nodes):
    """Prompt counts and user payoffs at every (node, price), shape (nodes,
    prices): the count kernel and the payoff formula run at every cell, in
    any price order."""
    row, column = np.asarray(prices, dtype=float)[None, :], np.asarray(nodes, dtype=float)[:, None]
    counts = _counts_vec(utility, row, column)
    return counts, payoffs_at_counts(utility, row, column, counts)


def dense_pair_lattice(low: GaiModel, high: GaiModel, axis_low, axis_high, nodes, weights):
    """Every (low price, high price) cell by comparing the two tiers' user
    payoffs at every node: the high tier takes a node when its payoff is at
    least the low tier's.  No sorting, merging, count steps or node pruning."""
    def profile(model, axis):
        counts, pay = (np.ascontiguousarray(a.T)
                       for a in per_cell_profile(model.utility, axis, nodes))
        return np.where(counts >= 1.0, pay, -np.inf), (axis[:, None] - model.cost) * counts * weights

    (score_l, gain_l), (score_h, gain_h) = profile(low, axis_low), profile(high, axis_high)
    return np.array([np.where(score_h >= s_l, gain_h, g_l).sum(axis=1)
                     for s_l, g_l in zip(score_l, gain_l)])


def scalar_mass(dist, a: float, b: float) -> float:
    """Exact mass of a uniform or piecewise-linear density on [a, b], one
    interval at a time (the per-interval formulas, piece by piece)."""
    if b <= a:
        return 0.0
    if isinstance(dist, UniformAmbiguity):
        lo = max(a, dist.lo)
        hi = min(b, dist.hi)
        return max(0.0, hi - lo) / (dist.hi - dist.lo)
    total = 0.0
    for x0, x1, y0, y1 in zip(dist.knots, dist.knots[1:], dist.values, dist.values[1:]):
        lo = max(a, x0)
        hi = min(b, x1)
        if hi <= lo:
            continue
        slope = (y1 - y0) / (x1 - x0)
        d_lo = y0 + slope * (lo - x0)
        d_hi = y0 + slope * (hi - x0)
        total += (d_lo + d_hi) * (hi - lo) / 2.0
    return total


def scalar_segment_roots(model: GaiModel, price: float, k: int) -> tuple[float, float] | None:
    """Roots of ``eps**(k-1) * (1-eps) * U = price`` by scalar bisection, one
    (price, k) pair at a time; None above the curve's maximum."""
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
    return lower, upper


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


def scalar_volume_from_segments(model: GaiModel, price: float, dist) -> float:
    """Expected prompt volume at one price via the per-count interval
    decomposition: scalar roots and scalar masses, k = 2 up to
    ``prompt_upper_bound``."""
    u = model.utility
    if price >= u:
        return 0.0
    total = scalar_mass(dist, 0.0, 1.0 - price / u)
    k_bar = prompt_upper_bound(model, price)
    for k in range(2, k_bar + 1):
        roots = scalar_segment_roots(model, price, k)
        if roots is not None:
            total += scalar_mass(dist, *roots)
    return total
