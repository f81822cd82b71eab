"""Stage-1 pricing when every user shares one ambiguity level.

With a single ambiguity value the platform's problem has a closed form:
for each model, scan for the profit-maximizing induced prompt count and
quote the price that makes the user exactly indifferent at that count
(the user accepts the marginal prompt at indifference, so the platform
extracts the full marginal surplus).  Non-served models are priced at
their utility, which no user accepts.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

from .core import (
    GaiModel,
    InvalidAmbiguity,
    ModelSet,
    PriceSchedule,
    PromptPricingError,
    check_ambiguity,
)
from .user_strategy import UNBOUNDED, _prefers, _prompt_count, marginal_expected_utility

_INDUCED_CAP = 10_000  # induced counts scanned per model


class CostShape(enum.Enum):
    """How the served prompt count under optimal pricing moves with ambiguity."""

    INCREASING = "increasing"
    INVERSE_U_SHAPED = "inverse_u_shaped"
    DECREASING = "decreasing"
    ALWAYS_ZERO = "always_zero"


@dataclass(frozen=True)
class HomogeneousSolution:
    """Optimal schedule for one shared ambiguity level.

    ``best_model`` is the payoff-maximizing candidate; ``served_model``
    equals it when trade actually happens (induced count >= 1) and is
    None otherwise.  ``cost_free_unbounded`` flags a zero-cost winner,
    whose induced count grows without bound as ambiguity approaches one
    (and is capped if the scan limit is ever reached).
    """

    schedule: PriceSchedule
    best_model: str
    served_model: str | None
    induced_count: int
    platform_payoff: float
    cost_free_unbounded: bool = False


@dataclass(frozen=True)
class CurvePoint:
    """One ambiguity grid point of the optimal-pricing sweep.

    ``induced_count`` and ``served_model`` are the closed form's, from
    :func:`_winner` as in :func:`optimal_homogeneous_price`;
    ``prompt_count`` is what a user buys at the quoted price, worked out
    independently by ``user_strategy._prompt_count``, the core of
    :func:`optimal_prompt_count`.
    """

    eps: float
    price: float
    prompt_count: int
    payoff: float
    induced_count: int
    served_model: str | None


def induced_prompt_count(model: GaiModel, eps: float) -> int:
    """Profit-maximizing prompt count for one model at ambiguity ``eps``.

    Ascending scan for the first ``k`` where the marginal induced profit
    drops below zero, i.e. ``(k+1)*eps**k - k*eps**(k-1) < C/((1-eps)*U)``.
    The left side decreases and eventually turns negative, so the scan
    terminates even at zero cost; ``_INDUCED_CAP`` guards ambiguity values
    within about 1e-4 of one, where the count grows like ``1/(1-eps)``.
    A first-prompt gain ``(1-eps)*U`` that underflows to zero raises
    :class:`PromptPricingError`.
    """
    return _induced(model, check_ambiguity(eps))


def _induced(model: GaiModel, eps: float) -> int:
    """:func:`induced_prompt_count` at an ``eps`` that
    :func:`check_ambiguity` has already accepted."""
    gain = (1.0 - eps) * model.utility
    if gain == 0.0:
        raise PromptPricingError(
            f"model {model.id!r}: the first prompt's gain (1-eps)*U underflows to 0 "
            f"at ambiguity {eps}")
    threshold = model.cost / gain
    k = 0
    while k < _INDUCED_CAP:
        lhs = (k + 1) * eps ** k - k * eps ** (k - 1) if k >= 1 else 1.0
        if lhs < threshold:
            return k
        k += 1
    return _INDUCED_CAP


def classify_cost_shape(model: GaiModel) -> CostShape:
    """Classify the served-count-versus-ambiguity shape from cost/utility alone."""
    u = model.utility
    if model.cost == 0.0:
        return CostShape.INCREASING
    if model.cost <= u / 8.0:
        return CostShape.INVERSE_U_SHAPED
    if model.cost < u:
        return CostShape.DECREASING
    return CostShape.ALWAYS_ZERO


def optimal_homogeneous_price(models: ModelSet, eps: float) -> HomogeneousSolution:
    """Optimal per-model prices and platform payoff for one ambiguity level.

    Each model's candidate payoff is ``(price_k - cost) * k`` at its own
    optimal induced count ``k``; the best candidate is served (ties go
    to higher utility, then smaller id: the user's rule, :func:`_prefers`)
    and every other model is priced at its utility.  A served count of
    zero means no trade: the quoted formula price exceeds what any user
    accepts, and the payoff is zero.
    """
    winner, k, price, payoff = _winner(models, check_ambiguity(eps))
    return HomogeneousSolution(
        schedule=PriceSchedule({m.id: price if m.id == winner.id else m.utility for m in models}),
        best_model=winner.id,
        served_model=winner.id if k >= 1 else None,
        induced_count=k,
        platform_payoff=payoff if k >= 1 else 0.0,
        cost_free_unbounded=(winner.cost == 0.0 or k >= _INDUCED_CAP),
    )


def _winner(models: ModelSet, eps: float) -> tuple[GaiModel, int, float, float]:
    """The best candidate ``(model, induced count, price, payoff)`` of
    :func:`optimal_homogeneous_price`, at an ``eps`` that
    :func:`check_ambiguity` has already accepted."""
    best: tuple[GaiModel, int, float, float] | None = None
    for model in models:
        k = _induced(model, eps)
        try:
            price = marginal_expected_utility(model.utility, eps, k)
        except OverflowError:  # k = 0: the no-trade price (1-eps)/eps * U
            raise PromptPricingError(
                f"model {model.id!r}: the no-trade price overflows at ambiguity {eps}") from None
        payoff = (price - model.cost) * k if k >= 1 else 0.0  # no trade: its price may be inf
        if best is None or _prefers(payoff, model.utility, best[3], best[0].utility):
            best = (model, k, price, payoff)
    assert best is not None
    return best


def homogeneous_payoff_curve(
    models: ModelSet, eps_grid: Sequence[float]
) -> list[CurvePoint]:
    """Optimal price, induced count, and payoff over an ascending ambiguity grid."""
    grid = [check_ambiguity(e) for e in eps_grid]
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise InvalidAmbiguity("ambiguity grid must be strictly ascending")
    points: list[CurvePoint] = []
    for eps in grid:
        winner, k, price, payoff = _winner(models, eps)
        if k < 1:
            # the no-trade price (1-eps)/eps * U overflows for eps near 1e-308;
            # reject it as optimal_homogeneous_price's schedule does
            PriceSchedule({winner.id: price})
            points.append(CurvePoint(eps, price, 0, 0.0, k, None))
            continue
        n = _prompt_count(winner.utility, price, eps)
        count = k if n is UNBOUNDED else int(n)
        points.append(CurvePoint(eps, price, count, payoff, k, winner.id))
    return points
