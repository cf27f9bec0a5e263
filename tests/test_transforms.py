import math

import numpy as np
import pytest

from cwsoc import measure
from cwsoc.model import quadratic, quartic
from cwsoc.transforms import (
    DomainFault,
    LogLaplace,
    RateFunction,
    cramer_transform,
    rate_at_origin,
    rate_expansion_residual,
)


def gaussian_L(u, v):
    # closed form for N(0,1): -ln(1-2v)/2 + u^2/(2(1-2v))
    return -0.5 * math.log(1 - 2 * v) + u * u / (2 * (1 - 2 * v))


def gaussian_I(x, y):
    # closed form conjugate, finite on {y > x^2}
    return 0.5 * (y - 1 - math.log(y - x * x))


@pytest.fixture(scope="module")
def gauss_pair():
    return LogLaplace(measure.gaussian())


@pytest.fixture(scope="module")
def gauss_rate(gauss_pair):
    return RateFunction(gauss_pair)


class TestLogLaplace:
    def test_gaussian_closed_form(self):
        # wide truncation so the compact support does not bias strong tilts
        L = LogLaplace(measure.gaussian(support_radius=30.0))
        for u, v in [(0.0, 0.0), (0.5, 0.2), (-1.0, 0.4), (2.0, -3.0), (0.3, 0.45)]:
            got = L.value([u, v])
            assert got == pytest.approx(gaussian_L(u, v), abs=1e-10)

    def test_origin_grad_hess(self, gauss_pair):
        grad, hess = gauss_pair.grad_hess([0.0, 0.0])
        np.testing.assert_allclose(grad, [0.0, 1.0], atol=1e-10)
        np.testing.assert_allclose(hess, [[1.0, 0.0], [0.0, 2.0]], atol=1e-9)

    def test_outside_domain_infinite(self, gauss_pair):
        assert gauss_pair.value([0.0, 0.6]) == math.inf
        with pytest.raises(DomainFault):
            gauss_pair.grad_hess([0.0, 0.5])

    def test_finite_difference_gradient(self, gauss_pair):
        theta = np.array([0.3, 0.1])
        grad, _ = gauss_pair.grad_hess(theta)
        h = 1e-6
        for i in range(2):
            e = np.zeros(2)
            e[i] = h
            fd = (gauss_pair.value(theta + e) - gauss_pair.value(theta - e)) / (2 * h)
            assert fd == pytest.approx(grad[i], rel=1e-6)

    def test_atom_measure_exact(self):
        L = LogLaplace(measure.rademacher())
        # L(u,v) = v + ln cosh u
        for u, v in [(0.0, 0.0), (1.5, -2.0), (-0.7, 3.0)]:
            assert L.value([u, v]) == pytest.approx(
                v + math.log(math.cosh(u)), abs=1e-14)

    def test_line_lift(self):
        L = LogLaplace(measure.gaussian(), lift="line")
        assert L.value([0.7]) == pytest.approx(0.49 / 2, abs=1e-10)


class TestCramerTransform:
    def test_gaussian_closed_form_grid(self, gauss_rate):
        # brute-force cross check: maximize ux + vy - L on a dense grid
        for x, y in [(0.0, 1.0), (0.0, 2.0), (0.5, 1.25), (0.0, 0.01), (-0.3, 0.8)]:
            r = cramer_transform(gauss_rate, x, y)
            assert r.converged
            assert r.value == pytest.approx(gaussian_I(x, y), abs=1e-9)
            us = np.linspace(r.argmax[0] - 0.02, r.argmax[0] + 0.02, 41)
            vs = np.linspace(r.argmax[1] - 0.02, r.argmax[1] + 0.02, 41)
            grid = us[:, None] * x + vs[None, :] * y - np.array(
                [[gaussian_L(u, v) for v in vs] for u in us])
            assert r.value >= np.max(grid) - 1e-9

    def test_argmax_closed_form(self, gauss_rate):
        x, y = 0.5, 1.25
        r = cramer_transform(gauss_rate, x, y)
        d = y - x * x
        np.testing.assert_allclose(
            r.argmax, [x / d, 0.5 * (1 - 1 / d)], atol=1e-8)

    def test_minimum_at_moment_point(self, gauss_rate):
        r = cramer_transform(gauss_rate, 0.0, 1.0)
        assert abs(r.value) < 1e-12
        np.testing.assert_allclose(r.argmax, [0.0, 0.0], atol=1e-8)

    def test_fenchel_inequality(self, gauss_pair, gauss_rate):
        rng = np.random.default_rng(3)
        for _ in range(20):
            x, y = rng.uniform(-0.5, 0.5), rng.uniform(0.6, 2.0)
            u, v = rng.uniform(-1, 1), rng.uniform(-1, 0.45)
            r = cramer_transform(gauss_rate, x, y)
            assert r.value >= u * x + v * y - gaussian_L(u, v) - 1e-9

    def test_duality_round_trip(self, gauss_pair, gauss_rate):
        # grad L at the conjugate argmax recovers the target point
        r = cramer_transform(gauss_rate, 0.3, 1.4)
        grad, _ = gauss_pair.grad_hess(r.argmax)
        np.testing.assert_allclose(grad, [0.3, 1.4], atol=1e-8)

    def test_hessian_inverse_relation(self, gauss_pair, gauss_rate):
        r = cramer_transform(gauss_rate, 0.2, 1.1)
        _, hess_L = gauss_pair.grad_hess(r.argmax)
        np.testing.assert_allclose(r.hess @ hess_L, np.eye(2), atol=1e-7)

    def test_boundary_target_rejected(self, gauss_rate):
        r = cramer_transform(gauss_rate, 1.0, 1.0)
        assert not r.converged
        assert "outside admissible domain" in r.message

    def test_rademacher_degenerate(self):
        R = RateFunction(LogLaplace(measure.rademacher()))
        r = cramer_transform(R, 0.0, 1.0)
        assert r.converged
        assert r.value == pytest.approx(0.0, abs=1e-12)
        assert r.hess[0, 0] == pytest.approx(1.0, abs=1e-8)
        assert math.isnan(r.hess[1, 1])
        assert "degenerate" in r.message
        assert cramer_transform(R, 0.0, 1.5).value == math.inf

    def test_rademacher_line_rate(self):
        # I(x) = ((1+x)ln(1+x) + (1-x)ln(1-x))/2 for the coin flip
        R = RateFunction(LogLaplace(measure.rademacher(), lift="line"))
        x = 0.4
        expect = 0.5 * ((1 + x) * math.log(1 + x) + (1 - x) * math.log(1 - x))
        assert cramer_transform(R, x).value == pytest.approx(expect, abs=1e-10)


class TestRateAtOrigin:
    def test_examples(self):
        assert rate_at_origin(RateFunction(LogLaplace(measure.rho_zero()))) \
            == pytest.approx(math.log(4.0 / 3.0), abs=1e-12)
        assert rate_at_origin(RateFunction(LogLaplace(measure.gaussian()))) \
            == math.inf
        assert rate_at_origin(RateFunction(LogLaplace(measure.three_point(p=0.25)))) \
            == pytest.approx(math.log(2.0), abs=1e-12)


class TestDomainProbe:
    def test_inside_and_outside(self, gauss_rate):
        assert gauss_rate.solve([0.0, 1.0]).converged
        assert gauss_rate.solve([0.0, 0.01]).converged
        assert not gauss_rate.solve([1.0, 1.0]).converged


class TestExpansionResidual:
    def test_quadratic_near_minimum(self, gauss_rate):
        g = quadratic()
        assert rate_expansion_residual(gauss_rate, g, 0.0, 1.0) == 1.0
        for x, y in [(0.05, 1.001), (0.02, 0.99), (-0.04, 1.02)]:
            r = rate_expansion_residual(gauss_rate, g, x, y)
            assert abs(r - 1.0) < 0.05

    def test_quartic_corrected(self, gauss_rate):
        g = quartic(1.0)
        r = rate_expansion_residual(gauss_rate, g, 0.04, 1.0)
        assert abs(r - 1.0) < 0.05

    def test_star_variant(self, gauss_rate):
        g = quartic(1.0, variant="star")
        r = rate_expansion_residual(gauss_rate, g, 0.04, 1.0)
        assert abs(r - 1.0) < 0.05

    def test_residual_shrinks_with_distance(self, gauss_rate):
        g = quadratic()
        near = abs(rate_expansion_residual(gauss_rate, g, 0.02, 1.0) - 1)
        far = abs(rate_expansion_residual(gauss_rate, g, 0.2, 1.0) - 1)
        assert near < far
