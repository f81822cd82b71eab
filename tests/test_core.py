"""Domain types and the quadrature rules of the ambiguity distributions."""

import copy
import math
import pickle
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from prompt_pricing import (
    ConfigError,
    GaiModel,
    InvalidAmbiguity,
    InvalidDistribution,
    InvalidModel,
    InvalidPrice,
    ModelSet,
    PriceSchedule,
    QuadratureConfig,
    TabulatedAmbiguity,
    UniformAmbiguity,
)
from prompt_pricing.core import check_ambiguity


class TestTypes:
    def test_model_validation(self):
        with pytest.raises(InvalidModel):
            GaiModel("m", 0.0)
        with pytest.raises(InvalidModel):
            GaiModel("m", -1.0)
        with pytest.raises(InvalidModel):
            GaiModel("m", 1.0, -0.1)
        with pytest.raises(InvalidModel):
            GaiModel("", 1.0)

    def test_model_set_orders_by_utility(self):
        ms = ModelSet([GaiModel("b", 2.0), GaiModel("a", 1.0)])
        assert [m.id for m in ms] == ["a", "b"]
        assert ms.low.id == "a" and ms.high.id == "b"

    def test_model_set_looks_models_up_by_id(self):
        ms = ModelSet([GaiModel("b", 2.0), GaiModel("a", 1.0)])
        assert ms["b"] is ms.high
        with pytest.raises(KeyError):
            ms["missing"]

    def test_model_set_rejects_duplicates_and_equal_pair(self):
        with pytest.raises(InvalidModel):
            ModelSet([GaiModel("a", 1.0), GaiModel("a", 2.0)])
        with pytest.raises(InvalidModel):
            ModelSet([GaiModel("a", 1.0), GaiModel("b", 1.0)])
        with pytest.raises(InvalidModel):
            ModelSet([])

    def test_price_schedule(self):
        sched = PriceSchedule({"a": 0.5})
        assert sched.price_for("a") == 0.5
        with pytest.raises(InvalidPrice):
            PriceSchedule({"a": -0.1})

    def test_ambiguity_range(self):
        for bad in (0.0, 1.0, -0.2, 1.7, math.nan, math.inf, -math.inf):
            with pytest.raises(InvalidAmbiguity) as exc:
                check_ambiguity(bad)
            assert str(exc.value) == f"ambiguity must lie strictly in (0, 1), got {bad}"
        for good in (0.5, np.float64(0.25), 0.75, 5e-324, math.nextafter(1.0, 0.0)):
            value = check_ambiguity(good)
            assert type(value) is float and value == float(good)

    def test_quadrature_config(self):
        with pytest.raises(ConfigError):
            QuadratureConfig(2)
        # 2001.5 would build a 2002-node rule
        for bad in (2001.5, 301.0, "301"):
            with pytest.raises(ConfigError, match="node_count must be an integer"):
                QuadratureConfig(bad)
        dist = UniformAmbiguity(0.2, 0.9)
        for got, want in zip(dist.quadrature(QuadratureConfig(np.int64(301))),
                             dist.quadrature(QuadratureConfig(301))):
            assert np.array_equal(got, want)

    def test_uniform_support_validation(self):
        for lo, hi in ((0.5, 0.5), (-0.1, 0.5), (0.2, 1.1), (0.7, 0.3)):
            with pytest.raises(InvalidDistribution) as exc:
                UniformAmbiguity(lo, hi)
            assert str(exc.value) == f"uniform support needs 0 <= lo < hi <= 1, got [{lo}, {hi}]"
        for lo, hi in ((math.nan, 0.5), (0.0, math.inf)):
            with pytest.raises(InvalidDistribution) as exc:
                UniformAmbiguity(lo, hi)
            assert str(exc.value) == "uniform bounds must be finite"

    def test_tabulated_validation(self):
        with pytest.raises(InvalidDistribution):
            TabulatedAmbiguity([0.0], [1.0])
        with pytest.raises(InvalidDistribution):
            TabulatedAmbiguity([0.0, 0.0], [1.0, 1.0])
        with pytest.raises(InvalidDistribution):
            TabulatedAmbiguity([0.0, 1.0], [-1.0, 1.0])
        with pytest.raises(InvalidDistribution):
            TabulatedAmbiguity([0.0, 1.0], [0.0, 0.0])

    @pytest.mark.parametrize("knots, values, message", [
        ([0.0, math.nan], [1.0, 1.0], "knots and values must be finite"),
        ([0.0, 1.0], [1.0, math.inf], "knots and values must be finite"),
        ([-0.1, 1.0], [1.0, 1.0], "support must lie inside [0, 1]"),
        ([0.0, 1.5], [1.0, 1.0], "support must lie inside [0, 1]"),
    ], ids=["nan-knot", "inf-value", "below-0", "above-1"])
    def test_tabulated_rejects_bad_knots_and_values(self, knots, values, message):
        with pytest.raises(InvalidDistribution) as exc:
            TabulatedAmbiguity(knots, values)
        assert str(exc.value) == message

    def test_too_narrow_support_is_rejected(self):
        """A support narrower than 1 / DBL_MAX has a density that overflows:
        rejected at construction, not turned into inf weights and nan payoffs."""
        for make in (lambda: UniformAmbiguity(0.0, 1e-310),
                     lambda: TabulatedAmbiguity([0.0, 1e-310], [1.0, 2.0])):
            with pytest.raises(InvalidDistribution, match="support is too narrow"):
                make()
        assert np.all(np.isfinite(UniformAmbiguity(0.0, 1e-300).quadrature(QuadratureConfig())[1]))

    def test_tabulated_renormalizes(self):
        dist = TabulatedAmbiguity([0.0, 0.5, 1.0], [2.0, 4.0, 1.0])
        assert dist.mass(0.0, 1.0) == pytest.approx(1.0, abs=1e-12)
        # piecewise-linear mass on a half interval, checked against the trapezoid formula
        y0, y1 = dist.values[0], dist.values[1]
        assert dist.mass(0.0, 0.5) == pytest.approx((y0 + y1) / 2 * 0.5, abs=1e-12)


def integrate(f, dist, quad=QuadratureConfig()):
    """``sum_i f(eps_i) * w_i`` over the distribution's quadrature rule,
    the average every solver takes over the user population."""
    nodes, weights = dist.quadrature(quad)
    return sum(f(float(x)) * w for x, w in zip(nodes, weights))


class TestIntegrate:
    def test_density_normalization(self):
        assert integrate(lambda e: 1.0, UniformAmbiguity(0.0, 1.0)) == pytest.approx(1.0, abs=1e-9)

    def test_uniform_mean(self):
        assert integrate(lambda e: e, UniformAmbiguity(0.0, 1.0)) == pytest.approx(0.5, abs=1e-6)

    def test_second_moment_on_subinterval(self):
        # closed form: int_{0.2}^{0.8} e^2 / 0.6 de = (0.8^3 - 0.2^3) / (3 * 0.6)
        expected = (0.8 ** 3 - 0.2 ** 3) / (3 * 0.6)
        assert expected == pytest.approx(0.28, abs=1e-15)
        got = integrate(lambda e: e * e, UniformAmbiguity(0.2, 0.8))
        assert got == pytest.approx(expected, abs=1e-6)

    @pytest.mark.parametrize("dist", [
        UniformAmbiguity(0.0, 1.0),
        UniformAmbiguity(0.3, 0.7),
        TabulatedAmbiguity([0.1, 0.4, 0.9], [1.0, 3.0, 0.5]),
    ])
    def test_constant_one_integrates_to_one(self, dist):
        assert integrate(lambda e: 1.0, dist) == pytest.approx(1.0, abs=1e-6)

    def test_node_doubling_stability(self):
        # bounded piecewise-constant integrand with interior jumps
        f = lambda e: float(math.floor(3.0 * e)) / 2.0
        dist = UniformAmbiguity(0.0, 1.0)
        coarse = integrate(f, dist, QuadratureConfig(2001))
        fine = integrate(f, dist, QuadratureConfig(4001))
        assert abs(fine - coarse) < 1e-3


class TestUniformIsTabulated:
    """A uniform density is the tabulated density with the two knots (lo, hi)
    and one value: the same nodes, weights and masses, bit for bit."""

    SUPPORTS = [(lo / 100.0, hi) for hi in (1.0, 0.9, 0.75) for lo in range(99) if lo / 100.0 < hi]

    @pytest.mark.parametrize("n", [201, 301, 501, 2001])
    def test_quadrature_is_bit_identical(self, n):
        quad = QuadratureConfig(n)
        assert len(self.SUPPORTS) == 264
        for lo, hi in self.SUPPORTS:
            nodes, weights = UniformAmbiguity(lo, hi).quadrature(quad)
            want_nodes, want_weights = TabulatedAmbiguity((lo, hi), (1.0, 1.0)).quadrature(quad)
            assert np.array_equal(nodes, want_nodes), (lo, hi)
            assert np.array_equal(weights, want_weights), (lo, hi)

    def test_mass_is_bit_identical(self):
        rng = np.random.default_rng(20241019)
        a, b = rng.uniform(-0.2, 1.2, (2, 1000))
        # intervals below, above and outside the support, and a few with b <= a
        a[:3], b[:3] = (-0.5, 1.0, 0.6), (-0.1, 1.5, 0.6)
        assert np.count_nonzero(b <= a) > 100
        for lo, hi in self.SUPPORTS:
            uniform, tabulated = UniformAmbiguity(lo, hi), TabulatedAmbiguity((lo, hi), (1.0, 1.0))
            assert np.array_equal(uniform.mass(a, b), tabulated.mass(a, b)), (lo, hi)
            assert uniform.mass(0.3, 0.8) == tabulated.mass(0.3, 0.8)
            assert uniform.mass(0.8, 0.3) == 0.0

    def test_value_semantics(self):
        dist = UniformAmbiguity(0.2, 0.9)
        assert isinstance(dist, TabulatedAmbiguity)
        assert (dist.lo, dist.hi) == (0.2, 0.9) and dist.support() == (0.2, 0.9)
        assert repr(dist) == "UniformAmbiguity(lo=0.2, hi=0.9)"
        assert dist == UniformAmbiguity(0.2, 0.9) and hash(dist) == hash(UniformAmbiguity(0.2, 0.9))
        assert dist != UniformAmbiguity(0.2, 0.8)
        assert dist != TabulatedAmbiguity((0.2, 0.9), (1.0, 1.0))
        assert len({dist, UniformAmbiguity(0.2, 0.9), UniformAmbiguity(0.0, 1.0)}) == 2
        for twin in (pickle.loads(pickle.dumps(dist)), copy.deepcopy(dist)):
            assert type(twin) is UniformAmbiguity and twin == dist and hash(twin) == hash(dist)
            assert (twin.lo, twin.hi) == (0.2, 0.9)
        with pytest.raises(FrozenInstanceError):
            dist.lo = 0.5
