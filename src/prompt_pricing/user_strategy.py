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

Besides the user's decision, the module gives the preference price
bound that separates the two tiers of a two-model set
(:func:`price_upper_bound`).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .core import (
    GaiModel,
    InvalidPrice,
    ModelSet,
    PriceSchedule,
    PromptPricingError,
    check_ambiguity,
)


class _UnboundedType(enum.Enum):
    """Marker for an infinite optimal prompt count (free prompts)."""

    UNBOUNDED = "unbounded"

    def __repr__(self) -> str:
        return "Unbounded"

    __str__ = __repr__  # str() and format() print the marker as before


UNBOUNDED = _UnboundedType.UNBOUNDED


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
    return _prompt_count(model.utility, price, check_ambiguity(eps))


def _prompt_count(utility: float, price: float, eps: float) -> int | _UnboundedType:
    """:func:`optimal_prompt_count` at a finite price ``>= 0`` and an
    ``eps`` that :func:`check_ambiguity` has already accepted.

    The search starts at the floor of the closed-form count
    ``log(eps*p / ((1-eps)*U)) / log(eps)`` (positive once the first
    prompt is bought), usually the answer itself.  Any start of at least
    1 is exact: the float gains are non-increasing in k, so both loops
    reach the same largest k.  Each gain is
    :func:`marginal_expected_utility` inline, in its operand order.
    """
    if price == 0.0:
        return UNBOUNDED
    one_minus = 1.0 - eps
    if one_minus * utility - price < 0.0:  # the first gain; eps ** 0 is 1.0
        return 0
    try:
        log_ratio = math.log(eps * price / (one_minus * utility))
    except ValueError:
        raise PromptPricingError(f"eps * p / ((1-eps) * U) underflows to 0 at "
                                 f"p = {price}, U = {utility}, eps = {eps}") from None
    k = max(int(log_ratio / math.log(eps)), 1)
    while eps ** k * one_minus * utility - price >= 0.0:  # prompt k + 1 pays
        k += 1
    while k > 1 and eps ** (k - 1) * one_minus * utility - price < 0.0:  # prompt k does not
        k -= 1
    return k


_BOUND_STEPS = 64  # correction steps allowed after the closed-form start


def prompt_upper_bound(model: GaiModel, price: float) -> int:
    """Smallest ``k`` with ``k**k / (k+1)**(k+1) < price/utility``.

    No user, at any ambiguity level, sends more than this many prompts at
    the given price.  The bound is infinite at zero price, which is
    rejected.  The search starts where the curve top, about ``1/(e*(k +
    1/2))``, meets the ratio, and steps to the answer as
    :func:`_prompt_count` corrects its closed form.  A ratio that
    underflows, or more than ``_BOUND_STEPS`` steps, raises
    :class:`PromptPricingError` instead of scanning without end.
    """
    if price <= 0.0 or not math.isfinite(price):
        raise InvalidPrice(f"price must be finite and > 0, got {price}")
    ratio = price / model.utility
    try:
        k = max(1, int(1.0 / (math.e * ratio) - 0.5))
    except (ZeroDivisionError, OverflowError):  # a zero or subnormal ratio
        raise PromptPricingError(f"prompt bound: price/utility {ratio} is too small") from None
    for _ in range(_BOUND_STEPS + 1):
        top = _curve_top(k)
        if k > 1 and _curve_top(k - 1) < ratio:
            k -= 1
        elif top >= ratio:
            k += 1
        elif top < ratio:  # neither holds where the logarithmic form overflows to nan
            return k
    raise PromptPricingError(f"prompt bound: {_BOUND_STEPS} steps at price/utility {ratio}")


def _curve_top(k: int) -> float:
    """``k**k / (k+1)**(k+1)``: the largest gain of prompt ``k + 1`` per unit
    of utility, ``max over eps of eps**k * (1 - eps)``, reached at ``eps =
    k / (k+1)``.  Exact integers, correctly rounded, up to k = 64; the
    logarithmic form above that."""
    if k <= 64:
        return k ** k / (k + 1) ** (k + 1)
    return math.exp(k * math.log(k) - (k + 1) * math.log(k + 1))


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
    n = _prompt_count(model.utility, price, eps)
    if n is UNBOUNDED:
        return n, model.utility  # limiting payoff of unlimited free prompts
    if n == 0:
        return 0, 0.0
    return n, (1.0 - eps ** n) * model.utility - n * price  # user_payoff's operand order


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

    Each model is evaluated once (:func:`_decision_for`) and the best
    option is picked by :func:`_pick`.  Payoff ties resolve toward the
    higher-utility model, then the lexicographically smaller id
    (:func:`_prefers`).  A tie between buying and not buying resolves
    toward buying, so indifferent users stay in the market.  A user
    whose best option is zero prompts everywhere opts out.
    """
    eps = check_ambiguity(eps)
    best = _pick([(m, *_decision_for(m, prices.price_for(m), eps)) for m in models])
    if best is None:
        return UserDecision(selected_model=None, prompt_count=0, payoff=0.0)
    model, n, payoff = best
    return UserDecision(selected_model=model.id, prompt_count=n, payoff=payoff)


def _pick(
    options: list[tuple[GaiModel, int | _UnboundedType, float]]
) -> tuple[GaiModel, int | _UnboundedType, float] | None:
    """The winning ``(model, count, payoff)`` option by :func:`_prefers`, or
    None when every option sends zero prompts (the user opts out)."""
    best = None
    for option in options:
        model, n, payoff = option
        if n is not UNBOUNDED and n == 0:
            continue
        if best is None or _prefers(payoff, model.utility, best[2], best[0].utility):
            best = option
    return best


def optimal_user_payoff(models: ModelSet, prices: PriceSchedule, eps: float) -> float:
    """The payoff of the user's best decision; never negative."""
    return select_model(models, prices, eps).payoff


def price_upper_bound(
    m: GaiModel, m_prime: GaiModel, price_m_prime: float, eps: float
) -> float:
    """Highest price of ``m`` at which a user still prefers it over ``m_prime``.

    The user's best payoff from ``m_prime`` is compared against the
    payoff ``m`` can deliver at its own per-count indifference prices;
    the first prompt count that beats the rival pins the indifference
    price.  That payoff rises with the count to ``U`` of ``m``, so the
    count is found by doubling, then bisecting the last doubling; by
    ``2**63`` prompts ``eps**k`` has underflowed for every ``eps < 1``.
    Returns 0 when ``m`` can never beat the rival at this ambiguity
    (empty demand).
    """
    eps = check_ambiguity(eps)
    if price_m_prime <= 0.0 or not math.isfinite(price_m_prime):
        raise InvalidPrice(f"rival price must be finite and > 0, got {price_m_prime}")
    _, rival_payoff = _decision_for(m_prime, price_m_prime, eps)
    u = m.utility
    if rival_payoff >= u:
        return 0.0

    def beats(k: int) -> bool:  # the payoff at count k's indifference price beats the rival
        return rival_payoff < (1.0 - eps ** k) * u - k * (eps ** k) * (1.0 - eps) * u

    lo, k = 0, 1  # beats(k) is first true in (lo, k]
    while not beats(k):
        if k >= 2 ** 64:
            raise PromptPricingError(
                f"price_upper_bound: no prompt count up to 2**64 beats the rival at eps={eps}")
        lo, k = k, 2 * k
    while k - lo > 1:
        mid = (lo + k) // 2
        lo, k = (lo, mid) if beats(mid) else (mid, k)
    bound = ((1.0 - eps ** k) * u - rival_payoff) / k
    return max(0.0, bound)
