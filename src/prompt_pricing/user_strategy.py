"""Stage-2 solver: how a single user chooses a model and a prompt budget.

A user with ambiguity ``eps`` who sends ``n`` prompts to a model with
utility ``U`` at price ``p`` collects an expected payoff of

    (1 - eps**n) * U - n * p.

The expected gain of the n-th prompt is ``eps**(n-1) * (1 - eps) * U``,
which decays geometrically, so the optimal budget keeps prompting while
that marginal gain covers the price.  At an exact indifference boundary
(marginal gain equal to the price) the user accepts the extra prompt;
the stage-1 pricing results rely on this convention, since the
platform's optimal price sits exactly on such a boundary.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    GaiModel,
    InvalidPrice,
    ModelSet,
    PriceSchedule,
    PromptPricingError,
    check_ambiguity,
)


class _UnboundedType:
    """Marker for an infinite optimal prompt count (free prompts)."""

    _instance: "_UnboundedType | None" = None

    def __new__(cls) -> "_UnboundedType":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "Unbounded"


UNBOUNDED = _UnboundedType()


class PromptShape(enum.Enum):
    """How the optimal prompt count varies with ambiguity, by price band."""

    ALWAYS_INFINITE = "always_infinite"
    INVERSE_U_SHAPED = "inverse_u_shaped"
    DECREASING = "decreasing"
    ALWAYS_ZERO = "always_zero"


@dataclass(frozen=True)
class UserDecision:
    """A user's optimal model choice, prompt budget, and resulting payoff."""

    selected_model: str | None
    prompt_count: int | _UnboundedType
    payoff: float


def marginal_expected_utility(utility: float, eps: float, n: int) -> float:
    """Expected utility gained by the n-th prompt: ``eps**(n-1) * (1-eps) * utility``.

    Stage-1 pricing quotes prices equal to this expression, so both
    sides must evaluate it identically; keep the operand order stable.
    """
    return eps ** (n - 1) * (1.0 - eps) * utility


def user_payoff(model: GaiModel, price: float, eps: float, n: int) -> float:
    """Expected payoff of sending exactly ``n`` prompts: ``(1-eps**n)*U - n*p``."""
    if isinstance(n, _UnboundedType):
        raise ValueError("user_payoff needs a finite prompt count")
    eps = check_ambiguity(eps)
    return (1.0 - eps ** n) * model.utility - n * price


def optimal_prompt_count(model: GaiModel, price: float, eps: float) -> int | _UnboundedType:
    """Optimal number of prompts for one model at a given price.

    Zero price means prompting is free and the optimal count is
    unbounded.  A price above the first prompt's expected gain means the
    user stays out.  Otherwise the count is the largest ``n`` whose
    marginal gain still covers the price, located via the closed-form
    logarithm and then pinned down by exact marginal-gain comparisons
    (the logarithm alone is not reliable within a few ulp of an
    indifference boundary).
    """
    if price < 0.0 or not math.isfinite(price):
        raise InvalidPrice(f"price must be finite and >= 0, got {price}")
    eps = check_ambiguity(eps)
    if price == 0.0:
        return UNBOUNDED
    u = model.utility
    if marginal_expected_utility(u, eps, 1) - price < 0.0:
        return 0
    k = int(math.floor(math.log(eps * price / ((1.0 - eps) * u)) / math.log(eps) + 0.5)) - 2
    k = max(k, 1)
    while marginal_expected_utility(u, eps, k + 1) - price >= 0.0:
        k += 1
    while k > 1 and marginal_expected_utility(u, eps, k) - price < 0.0:
        k -= 1
    return k


def prompt_upper_bound(model: GaiModel, price: float) -> int:
    """Smallest ``k`` with ``k**k / (k+1)**(k+1) < price/utility``.

    No user, at any ambiguity level, sends more than this many prompts at
    the given price.  The bound is infinite at zero price, which is
    rejected.
    """
    if price <= 0.0 or not math.isfinite(price):
        raise InvalidPrice(f"price must be finite and > 0, got {price}")
    ratio = price / model.utility
    k = 1
    while True:
        if k <= 64:
            level = k ** k / (k + 1) ** (k + 1)  # exact integers, correctly rounded
        else:
            level = math.exp(k * math.log(k) - (k + 1) * math.log(k + 1))
        if level < ratio:
            return k
        k += 1


def classify_prompt_shape(model: GaiModel, price: float) -> PromptShape:
    """Classify how the optimal count moves with ambiguity, from price/utility alone."""
    if price < 0.0 or not math.isfinite(price):
        raise InvalidPrice(f"price must be finite and >= 0, got {price}")
    u = model.utility
    if price == 0.0:
        return PromptShape.ALWAYS_INFINITE
    if price <= u / 4.0:
        return PromptShape.INVERSE_U_SHAPED
    if price < u:
        return PromptShape.DECREASING
    return PromptShape.ALWAYS_ZERO


def _decision_for(model: GaiModel, price: float, eps: float) -> tuple[int | _UnboundedType, float]:
    n = optimal_prompt_count(model, price, eps)
    if n is UNBOUNDED:
        return n, model.utility  # limiting payoff of unlimited free prompts
    if n == 0:
        return 0, 0.0
    return n, user_payoff(model, price, eps, n)


def _prefers(pay, util, best_pay, best_util):
    """Whether an option paying ``pay`` at utility ``util`` beats the best so far.

    The one tie-break of the stage-2 rules: higher payoff, and at equal
    payoff higher utility.  Options are offered in model-set order
    (ascending utility, then id), so among equal utilities the first,
    smallest id keeps the lead.  Works elementwise on arrays.
    """
    return (pay > best_pay) | ((pay == best_pay) & (util > best_util))


def select_model(models: ModelSet, prices: PriceSchedule, eps: float) -> UserDecision:
    """Pick the payoff-maximizing model, or opt out entirely.

    Payoff ties resolve toward the higher-utility model, then the
    lexicographically smaller id (:func:`_prefers`).  A tie between
    buying and not buying resolves toward buying, so indifferent users
    stay in the market.  A user whose best option is zero prompts
    everywhere opts out.
    """
    eps = check_ambiguity(eps)
    best: tuple[GaiModel, int | _UnboundedType, float] | None = None
    for model in models:
        n, payoff = _decision_for(model, prices.price_for(model), eps)
        if n is not UNBOUNDED and n == 0:
            continue
        if best is None or _prefers(payoff, model.utility, best[2], best[0].utility):
            best = (model, n, payoff)
    if best is None:
        return UserDecision(selected_model=None, prompt_count=0, payoff=0.0)
    model, n, payoff = best
    return UserDecision(selected_model=model.id, prompt_count=n, payoff=payoff)


def optimal_user_payoff(models: ModelSet, prices: PriceSchedule, eps: float) -> float:
    """The payoff of the user's best decision; never negative."""
    return select_model(models, prices, eps).payoff


# --------------------------------------------------------------------------
# Vectorized kernels over ambiguity arrays (shared by the pricing solvers)
# --------------------------------------------------------------------------

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


def _payoffs_at_counts(utility: float, price, eps: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """User payoffs at the given (already optimal) prompt counts."""
    eps = np.asarray(eps, dtype=float)
    return (1.0 - eps ** counts) * utility - counts * np.asarray(price, dtype=float)
