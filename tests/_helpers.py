"""Shared oracles and sequence predicates for the test suite."""

from __future__ import annotations

import csv
import functools
import json
import math
import os
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np

import prompt_pricing
from prompt_pricing import evaluation
from prompt_pricing import (
    GaiModel,
    ModelSet,
    PriceSchedule,
    UniformAmbiguity,
    prompt_upper_bound,
    user_payoff,
)
from prompt_pricing.evaluation import _count_profile, _count_steps, _counts_vec


def package_env() -> dict[str, str]:
    """This environment with the imported package's directory first on
    ``PYTHONPATH``, so a child ``python -m prompt_pricing.cli`` runs the
    code under test, with or without an installed copy or ``PYTHONPATH``."""
    root = str(Path(prompt_pricing.__file__).resolve().parent.parent)
    inherited = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=os.pathsep.join([root, inherited]) if inherited else root)


def fmt_cell(value) -> str:
    """A CSV cell as the CLI rendered it cell by cell: floats at 12
    significant digits, everything else by ``str``."""
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def csv_writer_outputs(out_path, columns, rows, as_json: bool, command: str, name: str) -> None:
    """The CLI's output files written the plain way: ``csv.writer`` over
    :func:`fmt_cell` cells, and ``json.dump(..., indent=2)`` of those cells
    for the mirror.  The oracle for the CLI's own row writer."""
    path = Path(out_path)
    json_rows = []
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            cells = [fmt_cell(v) for v in row]
            writer.writerow(cells)
            json_rows.append(dict(zip(columns, cells)))
    if as_json:
        payload = {"command": command, "scenario": name, "columns": columns, "rows": json_rows}
        with open(path.with_suffix(".json"), "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=False)
            fh.write("\n")


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


def shape_name(seq) -> str | None:
    """The name a shape classifier gives the course of ``seq``: rising
    (``INCREASING``), rising then falling (``INVERSE_U_SHAPED``) or falling
    (``DECREASING``); None for a flat or a wavy sequence."""
    if is_non_decreasing(seq) and seq[-1] > seq[0]:
        return "INCREASING"
    if is_non_increasing(seq) and seq[-1] < seq[0]:
        return "DECREASING"
    if is_unimodal(seq) and not (is_non_decreasing(seq) or is_non_increasing(seq)):
        return "INVERSE_U_SHAPED"
    return None


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


def argsort_pair_lattice(low: GaiModel, high: GaiModel, axis_low, axis_high, nodes, weights):
    """The pair lattice with one stable argsort at every selling node: the
    package's dense profiles, node chunks (``_CHUNK_ELEMENTS`` as patched at
    call time) and difference arrays, and no node decided by the ends of its
    score columns.  Same cells, bit for bit."""
    order_l = np.argsort(axis_low, kind="stable")
    order_h = np.argsort(axis_high, kind="stable")
    p_low, p_high = axis_low[order_l], axis_high[order_h]
    n_low, n_high = len(p_low), len(p_high)
    rows, cols = np.arange(n_low), np.arange(n_high)

    def profile(model, prices, eps, w):
        steps = _count_steps(model.utility, prices, eps)
        counts, pay = _count_profile(model.utility, prices, eps, steps)
        return np.where(counts >= 1.0, pay, -np.inf), (prices[None, :] - model.cost) * counts * w[:, None]

    high_from = np.zeros((n_low + 1) * n_high)
    low_from = np.zeros(n_low * (n_high + 1))

    def merge(eps, w):
        score_l, gain_l = profile(low, p_low, eps, w)
        score_h, gain_h = profile(high, p_high, eps, w)
        merged = np.argsort(-np.hstack([score_h, score_l]), axis=1, kind="stable")
        rank = np.empty_like(merged)
        np.put_along_axis(rank, merged, np.arange(n_high + n_low)[None, :], axis=1)
        beaten = rank[:, :n_high] - cols  # rows sorted before each column
        beating = rank[:, n_high:] - rows  # columns sorted before each row
        np.add(high_from, np.bincount((beaten * n_high + cols).ravel(), gain_h.ravel(),
                                      minlength=len(high_from)), out=high_from)
        np.add(low_from, np.bincount((rows * (n_high + 1) + beating).ravel(), gain_l.ravel(),
                                     minlength=len(low_from)), out=low_from)

    chunk = max(1, evaluation._CHUNK_ELEMENTS // (n_low + n_high))
    for start in range(0, len(nodes), chunk):
        eps, w = nodes[start:start + chunk], weights[start:start + chunk]
        sells = (p_low[0] <= (1.0 - eps) * low.utility) | (p_high[0] <= (1.0 - eps) * high.utility)
        if sells.any():
            merge(eps[sells], w[sells])
    out = np.empty((n_low, n_high))
    out[np.ix_(order_l, order_h)] = (
        np.cumsum(high_from.reshape(n_low + 1, n_high), axis=0)[:n_low]
        + np.cumsum(low_from.reshape(n_low, n_high + 1), axis=1)[:, :n_high])
    return out


def node_classes(low: GaiModel, high: GaiModel, axis_low, axis_high, nodes):
    """Per node, whether some price sells there, whether the high tier wins
    every price pair there and whether the low tier does: boolean arrays
    (sells, high wins all, low wins all), the last two only where something
    sells.  Scores come from the count kernel at every cell."""
    score_l, score_h = (np.where(counts >= 1.0, pay, -np.inf) for counts, pay in
                        (per_cell_profile(m.utility, axis, nodes)
                         for m, axis in ((low, axis_low), (high, axis_high))))
    sells = np.isfinite(np.maximum(score_l.max(axis=1), score_h.max(axis=1)))
    high_all = score_h.min(axis=1) >= score_l.max(axis=1)
    low_all = score_l.min(axis=1) > score_h.max(axis=1)
    return sells, sells & high_all, sells & low_all


def node_kinds(low: GaiModel, high: GaiModel, axis_low, axis_high, nodes):
    """How many selling nodes each tier wins at every price pair, and how
    many are mixed: (high wins all, low wins all, mixed), from
    :func:`node_classes`."""
    sells, high_all, low_all = node_classes(low, high, axis_low, axis_high, nodes)
    return int(high_all.sum()), int(low_all.sum()), int(np.sum(sells & ~high_all & ~low_all))


def scalar_mass(dist, a, b):
    """Exact mass of a uniform or piecewise-linear density on [a, b], one
    interval at a time (the per-interval formulas, piece by piece).  The
    density's parameters are converted to the type of ``a``, so ``Decimal``
    ends give the mass at the decimal context's precision."""
    num = type(a)
    if b <= a:
        return num(0)
    if isinstance(dist, UniformAmbiguity):
        lo = max(a, num(dist.lo))
        hi = min(b, num(dist.hi))
        return max(num(0), hi - lo) / (num(dist.hi) - num(dist.lo))
    total = num(0)
    knots, values = [num(x) for x in dist.knots], [num(y) for y in dist.values]
    for x0, x1, y0, y1 in zip(knots, knots[1:], values, values[1:]):
        lo = max(a, x0)
        hi = min(b, x1)
        if hi <= lo:
            continue
        slope = (y1 - y0) / (x1 - x0)
        d_lo = y0 + slope * (lo - x0)
        d_hi = y0 + slope * (hi - x0)
        total += (d_lo + d_hi) * (hi - lo) / 2
    return total


def scalar_segment_roots(model: GaiModel, price: float, k: int) -> tuple[float, float] | None:
    """Roots of ``eps**(k-1) * (1-eps) * U = price`` by scalar Newton steps in
    log space, one (price, k) pair at a time; None above the curve's maximum.
    A root that rounding puts past the peak ``(k-1)/k`` is taken to be it.
    The logarithms and exponentials are numpy's, as in the batched route:
    near a tangency one ulp of ``log`` moves a root by about 1e-12."""
    ratio = price / model.utility
    peak_x = (k - 1) / k
    peak = (k - 1) ** (k - 1) / k ** k if k <= 64 else math.exp(
        (k - 1) * math.log(k - 1) - k * math.log(k))
    if ratio > peak:
        return None
    log_r = float(np.log(ratio))
    lower = float(np.exp(_newton_log_root(k - 1, 1, log_r)))
    upper = -float(np.expm1(_newton_log_root(1, k - 1, log_r)))
    return min(lower, peak_x), max(upper, peak_x)


def _newton_log_root(a: float, b: float, log_r: float) -> float:
    """Zero of the concave ``f(x) = a*x + b*log(-expm1(x)) - log_r`` by Newton
    steps rising from ``log_r / a``, each cut at the peak ``log(a / (a+b))``;
    stops once ``f >= 0`` or a step does not rise."""
    top = float(np.log(a / (a + b)))
    x = min(log_r / a, top)
    for _ in range(100):
        f = a * x + b * float(np.log(-np.expm1(x))) - log_r
        if f >= 0.0:
            return x
        slope = a - b / float(np.expm1(-x))
        nxt = top if slope == 0.0 else min(x - f / slope, top)
        if not nxt > x:
            return x
        x = nxt
    raise AssertionError("Newton steps did not settle")


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


def decimal_volume(model: GaiModel, price: float, dist, digits: int = 40) -> float:
    """Expected prompt volume at one price with every segment root refined to
    ``digits`` significant digits and the masses summed at that precision
    (standard-library ``decimal``).  The ratio ``price / U`` and the first
    prompt's end ``1 - price/U`` are the floats the package computes, so
    the reference measures the segment roots and the masses, not those two
    roundings.  A price at a tangency, where a root is double, is not
    supported."""
    u = model.utility
    if price >= u:
        return 0.0
    with localcontext() as ctx:
        ctx.prec = digits
        total = scalar_mass(dist, Decimal(0), Decimal(1.0 - price / u))
        for k in range(2, prompt_upper_bound(model, price) + 1):
            roots = [_decimal_root(price / u, k, outside, digits) for outside in (0.0, 1.0)]
            total += scalar_mass(dist, *roots)
        return float(total)


@functools.lru_cache(maxsize=1 << 15)  # shared by the densities of one test
def _decimal_root(ratio: float, k: int, outside: float, digits: int) -> Decimal:
    """The root of ``eps**(k-1) * (1-eps) = ratio`` between ``outside`` (0 or
    1) and the peak ``(k-1)/k``: float bisection on the polynomial down to a
    1e-12 bracket, then Newton steps on it at ``digits`` digits."""
    lo, hi = outside, (k - 1) / k
    while abs(hi - lo) > 1e-12:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if mid ** (k - 1) * (1.0 - mid) < ratio else (lo, mid)
    with localcontext() as ctx:
        ctx.prec = digits
        eps, exact = Decimal(hi), Decimal(ratio)
        for _ in range(20):
            step = (eps ** (k - 1) * (1 - eps) - exact) / (eps ** (k - 2) * ((k - 1) - k * eps))
            eps -= step
            if abs(step) <= eps.scaleb(4 - digits):
                return eps
    raise AssertionError(f"Newton steps on k = {k} did not settle")
