"""Domain types and the numerical substrate shared by every solver.

This module owns the immutable value types (models, price schedules,
ambiguity distributions) and the composite-midpoint quadrature used to
average over a population of users.  There is one density type, the
piecewise-linear :class:`TabulatedAmbiguity` with its exact interval
masses and knot-aligned quadrature; :class:`UniformAmbiguity` is its
two-knot case.  Everything here is pure and safe to share across
concurrent workers.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np


# --------------------------------------------------------------------------
# Errors
# --------------------------------------------------------------------------

class PromptPricingError(Exception):
    """Base class for all errors raised by this package."""


class InvalidModel(PromptPricingError):
    pass


class InvalidAmbiguity(PromptPricingError):
    pass


class InvalidDistribution(PromptPricingError):
    pass


class InvalidPrice(PromptPricingError):
    pass


class SchedulePriceMissing(PromptPricingError):
    pass


class UnboundedDemand(PromptPricingError):
    """A zero price makes expected prompt volume infinite."""


class DegenerateCostBase(PromptPricingError):
    """Cost-proportional pricing is undefined when some cost is zero."""


class ConfigError(PromptPricingError):
    pass


# --------------------------------------------------------------------------
# Models and prices
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class GaiModel:
    """One generative model offered by the platform.

    ``utility`` is the value a user derives when the model resolves the
    intended task; ``cost`` is the platform's operating cost per prompt.
    Both are expressed on one common dimensionless scale.
    """

    id: str
    utility: float
    cost: float = 0.0

    def __post_init__(self) -> None:
        problems = []
        if not self.id:
            problems.append("id must be a non-empty string")
        if not math.isfinite(self.utility) or self.utility <= 0.0:
            problems.append(f"utility must be positive, got {self.utility}")
        if not math.isfinite(self.cost) or self.cost < 0.0:
            problems.append(f"cost must be non-negative, got {self.cost}")
        if problems:
            raise InvalidModel(f"model {self.id!r}: " + "; ".join(problems))


@dataclass(frozen=True)
class ModelSet:
    """An ordered, non-empty collection of models.

    Models are stored sorted by ascending utility (ties by id) so that a
    two-model set always has its low tier first.  Two-model sets must
    have strictly distinct utilities; ids must be unique.
    """

    models: tuple[GaiModel, ...]

    def __init__(self, models: Iterable[GaiModel]) -> None:
        ordered = tuple(sorted(models, key=lambda m: (m.utility, m.id)))
        if not ordered:
            raise InvalidModel("a ModelSet needs at least one model")
        ids = [m.id for m in ordered]
        if len(set(ids)) != len(ids):
            raise InvalidModel(f"duplicate model ids: {sorted(ids)}")
        if len(ordered) == 2 and ordered[0].utility == ordered[1].utility:
            raise InvalidModel("a two-model set must have distinct utilities")
        object.__setattr__(self, "models", ordered)

    def __iter__(self):
        return iter(self.models)

    def __len__(self) -> int:
        return len(self.models)

    def __getitem__(self, key: str) -> GaiModel:
        for m in self.models:
            if m.id == key:
                return m
        raise KeyError(key)

    @property
    def low(self) -> GaiModel:
        """The lowest-utility model (the low tier of a two-model set)."""
        return self.models[0]

    @property
    def high(self) -> GaiModel:
        """The highest-utility model (the high tier of a two-model set)."""
        return self.models[-1]

    def require_pair(self) -> tuple[GaiModel, GaiModel]:
        if len(self.models) != 2:
            raise InvalidModel(f"expected exactly two models, got {len(self.models)}")
        return self.models[0], self.models[1]


@dataclass(frozen=True)
class PriceSchedule:
    """Per-prompt price for each model, keyed by model id."""

    prices: Mapping[str, float]

    def __post_init__(self) -> None:
        frozen = dict(self.prices)
        for mid, p in frozen.items():
            if not math.isfinite(p) or p < 0.0:
                raise InvalidPrice(f"price for model {mid!r} must be finite and >= 0, got {p}")
        object.__setattr__(self, "prices", frozen)

    def price_for(self, model: GaiModel | str) -> float:
        mid = model.id if isinstance(model, GaiModel) else model
        try:
            return self.prices[mid]
        except KeyError:
            raise SchedulePriceMissing(f"schedule has no price for model {mid!r}") from None


def check_ambiguity(value: float) -> float:
    """Validate a raw float as an ambiguity level and return it as a plain float.

    The one comparison ``0 < v < 1`` also rejects nan and both infinities.
    """
    v = float(value)
    if not 0.0 < v < 1.0:
        raise InvalidAmbiguity(f"ambiguity must lie strictly in (0, 1), got {value}")
    return v


# --------------------------------------------------------------------------
# Ambiguity distributions
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadratureConfig:
    """Composite-midpoint quadrature resolution over a distribution's support."""

    node_count: int = 2001

    def __post_init__(self) -> None:
        if not isinstance(self.node_count, numbers.Integral):
            raise ConfigError(f"node_count must be an integer, got {self.node_count!r}")
        if self.node_count < 3:
            raise ConfigError(f"node_count must be >= 3, got {self.node_count}")


@dataclass(frozen=True)
class TabulatedAmbiguity:
    """Piecewise-linear ambiguity density given by (knot, value) pairs.

    Values are renormalized at construction so the density integrates to
    exactly one.  Quadrature subintervals are aligned with the knots,
    which makes the midpoint rule exact on each linear piece.
    """

    knots: tuple[float, ...]
    values: tuple[float, ...]

    def __init__(self, knots: Sequence[float], values: Sequence[float]) -> None:
        k = tuple(float(x) for x in knots)
        v = tuple(float(x) for x in values)
        if len(k) < 2 or len(k) != len(v):
            raise InvalidDistribution("need >= 2 knots and one value per knot")
        if any(not math.isfinite(x) for x in k) or any(not math.isfinite(x) for x in v):
            raise InvalidDistribution("knots and values must be finite")
        if any(b <= a for a, b in zip(k, k[1:])):
            raise InvalidDistribution("knots must be strictly ascending")
        if not (0.0 <= k[0] and k[-1] <= 1.0):
            raise InvalidDistribution("support must lie inside [0, 1]")
        if any(x < 0.0 for x in v):
            raise InvalidDistribution("density values must be non-negative")
        area = sum((v[i] + v[i + 1]) * (k[i + 1] - k[i]) / 2.0 for i in range(len(k) - 1))
        if area <= 0.0:
            raise InvalidDistribution("density must have positive total mass")
        if any(not math.isfinite(x / area) for x in v):
            raise InvalidDistribution("density values overflow: the support is too narrow")
        object.__setattr__(self, "knots", k)
        object.__setattr__(self, "values", tuple(x / area for x in v))

    def support(self) -> tuple[float, float]:
        return (self.knots[0], self.knots[-1])

    def mass(self, a: float | np.ndarray, b: float | np.ndarray) -> float | np.ndarray:
        """Exact integral of the (piecewise-linear) density over [a, b],
        elementwise over arrays.  Pieces are added in knot order; a piece
        that [a, b] does not overlap (every piece where b <= a) adds 0."""
        total = np.zeros(np.broadcast(a, b).shape)
        for x0, x1, y0, y1 in zip(self.knots, self.knots[1:], self.values, self.values[1:]):
            lo = np.maximum(a, x0)
            hi = np.minimum(b, x1)
            slope = (y1 - y0) / (x1 - x0)
            d_lo = y0 + slope * (lo - x0)
            d_hi = y0 + slope * (hi - x0)
            total += np.where(hi > lo, (d_lo + d_hi) * (hi - lo) / 2.0, 0.0)
        return total[()]

    def quadrature(self, quad: QuadratureConfig) -> tuple[np.ndarray, np.ndarray]:
        """Knot-aligned midpoint nodes; weights include the local density."""
        lo, hi = self.support()
        widths = np.diff(np.asarray(self.knots))
        # distribute nodes across segments proportionally, at least one each
        raw = widths / (hi - lo) * quad.node_count
        counts = np.maximum(1, np.floor(raw).astype(int))
        while counts.sum() < quad.node_count:
            counts[int(np.argmax(raw - counts))] += 1
        nodes_parts = []
        weights_parts = []
        for (x0, x1, c) in zip(self.knots, self.knots[1:], counts):
            step = (x1 - x0) / c
            mids = x0 + (np.arange(c) + 0.5) * step
            nodes_parts.append(mids)
            weights_parts.append(
                np.interp(mids, self.knots, self.values, left=0.0, right=0.0) * step)
        return np.concatenate(nodes_parts), np.concatenate(weights_parts)


@dataclass(frozen=True, init=False)
class UniformAmbiguity(TabulatedAmbiguity):
    """Uniform ambiguity density on [lo, hi] inside the unit interval: the
    tabulated density with the two knots ``(lo, hi)`` and one value.

    The closed endpoints may touch 0 or 1; quadrature nodes are interval
    midpoints, so the excluded ambiguity values 0 and 1 are never
    evaluated.
    """

    def __init__(self, lo: float, hi: float) -> None:
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise InvalidDistribution("uniform bounds must be finite")
        if not (0.0 <= lo < hi <= 1.0):
            raise InvalidDistribution(f"uniform support needs 0 <= lo < hi <= 1, got [{lo}, {hi}]")
        super().__init__((lo, hi), (1.0, 1.0))

    lo = property(lambda self: self.knots[0])
    hi = property(lambda self: self.knots[1])

    def __repr__(self) -> str:
        return f"UniformAmbiguity(lo={self.lo!r}, hi={self.hi!r})"
