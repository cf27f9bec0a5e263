import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.special import log_ndtr, xlogy

from cwsoc import measure
from cwsoc.model import quadratic, quartic
from cwsoc.quadrature import adaptive_gauss_legendre
from cwsoc.transforms import (
    RateFunction,
    _cond,
    rate_at_origin,
    rate_expansion_residual,
)


def gaussian_L(u, v):
    # closed form for N(0,1): -ln(1-2v)/2 + u^2/(2(1-2v))
    return -0.5 * math.log(1 - 2 * v) + u * u / (2 * (1 - 2 * v))


def gaussian_I(x, y):
    # closed form conjugate, finite on {y > x^2}
    return 0.5 * (y - 1 - math.log(y - x * x))


def three_point_I(p, x, y):
    # relative entropy of the frequencies (q+, q-, q0) from (p, p, 1 - 2p),
    # with q+- = (y +- x) / 2 and q0 = 1 - y; finite on |x| <= y <= 1
    qp, qm, q0 = (y + x) / 2, (y - x) / 2, 1 - y
    return (xlogy(qp, qp / p) + xlogy(qm, qm / p)
            + xlogy(q0, q0 / (1 - 2 * p)))


# f = 1 - |z| on [-1, 1]: a table density, so every integral is quadrature
TRIANGLE = measure.TableDensity([-1.0, 0.0, 1.0], [0.0, 1.0, 0.0])


def stats(base, theta):
    """``(L, mean, cov)`` of ``base.log_laplace`` at the one tilt
    ``theta``."""
    value, mean, cov = base.log_laplace(np.array([theta], dtype=float))
    return value[0], mean[0], cov[0]


@pytest.fixture(scope="module")
def gauss_base():
    return measure.gaussian()


@pytest.fixture(scope="module")
def gauss_rate(gauss_base):
    return RateFunction(gauss_base)


class TestLogLaplace:
    def test_gaussian_closed_form(self):
        # tilts whose tilted law lies well inside the 10 sigma window, which
        # then does not bias them
        m = measure.gaussian()
        for u, v in [(0.0, 0.0), (0.5, 0.2), (2.0, -3.0)]:
            got = stats(m, [u, v])[0]
            assert got == pytest.approx(gaussian_L(u, v), abs=1e-10)

    @pytest.mark.parametrize("u", [0.3, 2.0, 8.0, -5.0])
    def test_triangle_closed_form(self, u):
        # integral of e^{uz} (1 - |z|) over [-1, 1] = 2 (cosh u - 1) / u^2
        m = measure.Measure1D(density=TRIANGLE)
        want = math.log(2 * (math.cosh(u) - 1) / (u * u))
        assert stats(m, [u, 0.0])[0] == pytest.approx(want, rel=0, abs=1e-13)

    def test_origin_tilted_stats(self, gauss_base):
        _, grad, hess = stats(gauss_base, [0.0, 0.0])
        np.testing.assert_allclose(grad, [0.0, 1.0], atol=1e-10)
        np.testing.assert_allclose(hess, [[1.0, 0.0], [0.0, 2.0]], atol=1e-9)

    def test_outside_domain_infinite(self, gauss_base):
        assert stats(gauss_base, [0.0, 0.6])[0] == math.inf
        value, mean, cov = stats(gauss_base, [0.0, 0.5])
        assert value == math.inf
        assert np.isnan(mean).all() and np.isnan(cov).all()

    def test_finite_difference_gradient(self, gauss_base):
        theta = np.array([0.3, 0.1])
        _, grad, _ = stats(gauss_base, theta)
        h = 1e-6
        for i in range(2):
            e = np.zeros(2)
            e[i] = h
            fd = (stats(gauss_base, theta + e)[0]
                  - stats(gauss_base, theta - e)[0]) / (2 * h)
            assert fd == pytest.approx(grad[i], rel=1e-6)

    def test_atom_measure_exact(self):
        m = measure.rademacher()
        # L(u,v) = v + ln cosh u
        for u, v in [(0.0, 0.0), (1.5, -2.0), (-0.7, 3.0)]:
            assert stats(m, [u, v])[0] == pytest.approx(
                v + math.log(math.cosh(u)), abs=1e-14)

    def test_table_tilt_has_no_cap(self):
        # compact support: e^{v z^2} is integrable against the triangle for
        # every v, past the envelope's exponent 0.5; the Gaussian keeps it
        m = measure.Measure1D(density=TRIANGLE)
        for v in (0.5, 3.0, -2.0):
            want = integrate.quad(lambda z: math.exp(v * z * z) * (1 - abs(z)),
                                  -1, 1, points=[0])[0]
            assert stats(m, [0.0, v])[0] == pytest.approx(math.log(want),
                                                          abs=1e-12)
        assert stats(measure.gaussian(), [0.0, 0.5])[0] == math.inf

    def test_line_lift(self):
        # the v = 0 slice of the pair surface is the log-Laplace transform
        # of Z alone: u^2 / 2 for N(0, 1)
        m = measure.gaussian()
        assert stats(m, [0.7, 0.0])[0] == pytest.approx(0.49 / 2, abs=1e-10)


def _normal_stats(sigma, u, v):
    # L, mean and covariance of (z, z^2) under the untruncated N(0, sigma^2)
    s2 = sigma**2 / (1 - 2 * v * sigma**2)
    mu = u * s2
    L = -0.5 * math.log(1 - 2 * v * sigma**2) + 0.5 * u * mu
    mean = np.array([mu, mu * mu + s2])
    cov = np.array([[s2, 2 * mu * s2],
                    [2 * mu * s2, 2 * s2 * s2 + 4 * mu * mu * s2]])
    return L, mean, cov


def _quad_stats(density, u, v):
    # scipy.integrate.quad of the shifted integrand, with break points
    # around the peak of the tilted density on the window
    R, sigma = density.support_radius, density.sigma
    s2 = sigma**2 / (1 - 2 * v * sigma**2)
    mu = u * s2
    peak = min(max(mu, -R), R)
    width = math.sqrt(s2) if abs(mu) <= R else s2 / (abs(mu) - R)
    points = [p for p in (peak + j * width for j in (-16, -4, -1, 1, 4, 16))
              if -R < p < R]
    shift = max(u * z + v * z * z for z in (-R, R, peak))
    m = np.array([integrate.quad(
        lambda z: z**k * math.exp(u * z + v * z * z - shift)
        * density.mass * math.exp(-z * z / (2 * sigma**2))
        / (sigma * math.sqrt(2 * math.pi)), -R, R, points=points or None,
        epsabs=0, epsrel=1e-13, limit=200)[0] for k in range(5)])
    mom = m / m[0]
    cov = np.array([[mom[2] - mom[1]**2, mom[3] - mom[1] * mom[2]],
                    [mom[3] - mom[1] * mom[2], mom[4] - mom[2]**2]])
    return shift + math.log(m[0]), mom[1:3], cov


class QuadratureNormal:
    """Reference for ``GaussianDensity.tilted_moments``: ``mass`` times the
    normal pdf on its window ``[-R, R]``, integrated by adaptive
    Gauss-Legendre quadrature to 1e-12 from eight panels, on the scale of
    the exponent's maximum over the window."""

    def __init__(self, mass, sigma):
        self.mass, self.sigma = mass, sigma
        self.support_radius = 10.0 * sigma
        self.tilt_cap = 1.0 / (2 * sigma**2)

    def tilted_moments(self, u, v, kmax):
        R, sigma = self.support_radius, self.sigma
        c = np.abs(u) * R + v * R * R
        inner = (v < 0) & (np.abs(u) < 2 * np.abs(v) * R)
        c[inner] = np.maximum(c[inner], -u[inner] ** 2 / (4 * v[inner]))
        powers = np.arange(kmax + 1)
        m = np.empty(u.shape + (kmax + 1,))
        for p, (up, vp, cp) in enumerate(zip(u, v, c)):
            def integrand(z):
                w = np.exp(up * z + vp * z * z - cp) * self.mass * np.exp(
                    -z * z / (2 * sigma**2)) / (sigma * math.sqrt(2 * math.pi))
                return w[:, None] * z[:, None] ** powers

            m[p] = adaptive_gauss_legendre(integrand, -R, R, tol=1e-12,
                                           initial_panels=8)
        return c, m


class TestGaussianClosedForm:
    """``GaussianDensity.tilted_moments`` behind ``log_laplace``."""

    @pytest.mark.parametrize("sigma", [1.0, 0.7, 2.0])
    def test_untruncated_limit(self, sigma):
        m = measure.gaussian(sigma=sigma)
        R = m.density.support_radius
        checked = 0
        for u in np.linspace(-6, 6, 13) / sigma:
            for v in np.array([-20, -4, -1, 0, 0.2, 0.4, 0.45]) / sigma**2:
                s = sigma / math.sqrt(1 - 2 * v * sigma**2)
                if abs(u * s * s) > R - 8 * s:
                    continue
                value, mean, cov = stats(m, [u, v])
                want = _normal_stats(sigma, u, v)
                assert value == pytest.approx(want[0], rel=1e-12, abs=1e-12)
                np.testing.assert_allclose(mean, want[1], rtol=1e-12,
                                           atol=1e-12)
                np.testing.assert_allclose(cov, want[2], rtol=1e-12,
                                           atol=1e-12)
                checked += 1
        assert checked >= 20

    @pytest.mark.parametrize("base,v_range", [
        (measure.gaussian, (-4, 0.45)), (measure.rho_zero, (-4, 0.45)),
        # v so near the cap that the window is 1.4 to 3.5 tilted scales
        # wide and the far-end correction shows
        (measure.gaussian, (0.485, 0.4975))],
        ids=["gaussian", "rho0", "gaussian-near-cap"])
    def test_matches_generic_quadrature(self, base, v_range):
        closed = base()
        d = closed.density
        generic = measure.Measure1D(atoms=closed.atoms,
                                    density=QuadratureNormal(d.mass, d.sigma))
        rng = np.random.default_rng(6)
        for u, v in zip(rng.uniform(-3, 3, 25), rng.uniform(*v_range, 25)):
            vc, mc, cc = stats(closed, [u, v])
            vg, mg, cg = stats(generic, [u, v])
            assert vc == pytest.approx(vg, abs=1e-12)
            np.testing.assert_allclose(mc, mg, rtol=1e-10, atol=1e-12)
            np.testing.assert_allclose(cc, cg, rtol=1e-9)

    @pytest.mark.parametrize("u,v", [(40.0, 0.0), (-40.0, 0.0), (40.0, 0.49),
                                     (-40.0, 0.49), (12.0, -20.0),
                                     (3.0, 0.45), (0.2, 0.499)])
    def test_extreme_tilts(self, u, v):
        base = measure.gaussian()
        # no RuntimeWarning: a tail that underflows to 0 (b = 63 at
        # (12, -20)) is never logged
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value, mean, cov = stats(base, [u, v])
        assert math.isfinite(value)
        assert np.all(np.isfinite(mean)) and np.all(np.isfinite(cov))
        want = _quad_stats(base.density, u, v)
        assert value == pytest.approx(want[0], rel=1e-9)
        np.testing.assert_allclose(mean, want[1], rtol=1e-9)
        np.testing.assert_allclose(cov, want[2], rtol=1e-9)

    def test_log_mass_matches_log_ndtr(self):
        # c + log m_0 is the log of the tilted normal's mass on the window:
        # against log P from scipy's log_ndtr, on rows with the mode within
        # 4 s of the window
        d = measure.gaussian().density
        R = d.support_radius
        u, v = (g.ravel() for g in np.meshgrid(
            np.linspace(-40, 40, 81), np.r_[-20, -4, -1, 0, 0.2, 0.4, 0.45]))
        s = 1 / np.sqrt(1 - 2 * v)
        mu = np.abs(u) * s * s
        near = mu <= R + 4 * s
        u, v, s, mu = u[near], v[near], s[near], mu[near]
        assert len(u) > 200
        a, b = (-R - mu) / s, (R - mu) / s
        lb = log_ndtr(b)
        want = (0.5 * np.abs(u) * mu + lb + np.log1p(-np.exp(log_ndtr(a) - lb))
                + np.log(s))
        c, m = d.tilted_moments(u, v, 4)
        # c and log m_0 are O(1) and cancel at u = 0, where the log mass is
        # -2 Q(10) = -1.5e-23: hence the absolute term
        np.testing.assert_allclose(c + np.log(m[:, 0]), want, rtol=2e-15,
                                   atol=4e-16)

    @pytest.mark.parametrize("v", [-20.0, -4.0, 0.0, 0.2, 0.4, 0.45, 0.48])
    def test_rows_agree_across_the_switch(self, v):
        # neighbouring u on either side of mu = R + 4 s, where the tilted
        # mode lies 4 tilted scales beyond the window: the rows stay
        # continuous there
        d = measure.gaussian().density
        R = d.support_radius
        s = 1 / np.sqrt(1 - 2 * v)
        u = (R + 4 * s) / s**2
        while u * s * s > R + 4 * s:
            u = np.nextafter(u, 0)
        while np.nextafter(u, np.inf) * s * s <= R + 4 * s:
            u = np.nextafter(u, np.inf)
        u = np.array([u, np.nextafter(u, np.inf)])
        assert list(u * s * s <= R + 4 * s) == [True, False]
        c, m = d.tilted_moments(u, np.full(2, v), 4)
        assert c[0] == pytest.approx(c[1], rel=1e-12)
        np.testing.assert_allclose(m[0], m[1], rtol=1e-12)

    # quad cannot reach its relative tolerance on the odd moments at u = 0,
    # which are 0; the absolute tolerance below covers them
    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    @pytest.mark.parametrize("u,v", [(0.01, 0.49999), (0.0, 0.4999999)])
    def test_near_cap_matches_quad(self, u, v):
        # the window is a small fraction of the tilted scale (w = 2R/s of
        # 0.09 and 0.009), so the tilted law is nearly flat on it; its mean
        # and covariance of (z, z^2) must still hold to 1e-10
        base = measure.gaussian()
        value, mean, cov = stats(base, [u, v])
        want = _quad_stats(base.density, u, v)
        assert value == pytest.approx(want[0], rel=1e-10)
        np.testing.assert_allclose(mean, want[1], rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(cov, want[2], rtol=1e-10, atol=1e-12)

    def test_mirror_symmetry_is_exact(self):
        # the rule runs on |u|: a tilt and its mirror agree bit for bit, up
        # to the sign of the odd moments, and u = 0 gives odd moments of
        # exactly 0, in every position of a batch that spans several blocks
        d = measure.gaussian().density
        rng = np.random.default_rng(3)
        u = rng.uniform(-30, 30, 2100)
        u[::7] = 0.0
        v = rng.uniform(-20, 0.4999, 2100)
        c, m = d.tilted_moments(u, v, 4)
        cm, mm = d.tilted_moments(-u, v, 4)
        odd = np.arange(5) % 2 == 1
        assert np.array_equal(c, cm)
        assert np.array_equal(m[:, ~odd], mm[:, ~odd])
        assert np.array_equal(m[:, odd], -mm[:, odd])
        assert np.all(m[u == 0][:, odd] == 0)

    def test_outside_domain_raises(self):
        with pytest.raises(measure.MeasureError):
            measure.gaussian().density.tilted_moments(
                np.zeros(1), np.array([0.5]), 2)

    @pytest.mark.parametrize("d", [measure.gaussian().density, TRIANGLE],
                             ids=["gaussian", "table"])
    def test_batch_matches_scalar_calls(self, d):
        # the shape contract every density kind shares: a batch of tilts
        # gives the rows of one-tilt calls; for the Gaussian the mode falls
        # inside the window and beyond it
        u = np.array([0.0, -3.0, 5.0, 40.0, -40.0, 12.0, 0.2, 9.0])
        v = np.array([0.0, 0.2, -4.0, 0.0, 0.49, -20.0, 0.499, 0.45])
        c, m = d.tilted_moments(u, v, 4)
        assert c.shape == (len(u),) and m.shape == (len(u), 5)
        for p in range(len(u)):
            cp, mp = d.tilted_moments(u[p:p + 1], v[p:p + 1], 4)
            assert mp.shape == (1, 5)
            np.testing.assert_allclose(cp, c[p:p + 1], rtol=1e-15)
            np.testing.assert_allclose(mp, m[p:p + 1], rtol=1e-13)


class TestCramerTransform:
    def test_gaussian_closed_form_grid(self, gauss_rate):
        # brute-force cross check: maximize ux + vy - L on a dense grid
        for x, y in [(0.0, 1.0), (0.0, 2.0), (0.5, 1.25), (0.0, 0.01), (-0.3, 0.8)]:
            r = gauss_rate.solve([x, y])
            assert r.converged
            assert r.value == pytest.approx(gaussian_I(x, y), abs=1e-9)
            us = np.linspace(r.argmax[0] - 0.02, r.argmax[0] + 0.02, 41)
            vs = np.linspace(r.argmax[1] - 0.02, r.argmax[1] + 0.02, 41)
            grid = us[:, None] * x + vs[None, :] * y - np.array(
                [[gaussian_L(u, v) for v in vs] for u in us])
            assert r.value >= np.max(grid) - 1e-9

    def test_argmax_closed_form(self, gauss_rate):
        x, y = 0.5, 1.25
        r = gauss_rate.solve([x, y])
        d = y - x * x
        np.testing.assert_allclose(
            r.argmax, [x / d, 0.5 * (1 - 1 / d)], atol=1e-8)

    def test_minimum_at_moment_point(self, gauss_rate):
        r = gauss_rate.solve([0.0, 1.0])
        assert abs(r.value) < 1e-12
        np.testing.assert_allclose(r.argmax, [0.0, 0.0], atol=1e-8)

    def test_underflowed_determinant_stops_without_warning(self):
        # three-point at (0, -1), below the hull of {(z, z^2)}: at the third
        # iterate the covariance is so small that its determinant underflows
        # to 0 while both eigenvalues still read positive
        tiny = np.array([[[1e-170, 0.0], [0.0, 1e-170]]])
        assert _cond(tiny)[0] == math.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            r = RateFunction(measure.three_point()).solve(
                [0.0, -1.0])
        assert not r.converged
        assert r.message == "curvature vanished; outside admissible domain"
        assert r.iterations == 3
        assert r.value == pytest.approx(413.1268981776484, rel=1e-12)

    def test_fenchel_inequality(self, gauss_base, gauss_rate):
        rng = np.random.default_rng(3)
        for _ in range(20):
            x, y = rng.uniform(-0.5, 0.5), rng.uniform(0.6, 2.0)
            u, v = rng.uniform(-1, 1), rng.uniform(-1, 0.45)
            r = gauss_rate.solve([x, y])
            assert r.value >= u * x + v * y - gaussian_L(u, v) - 1e-9

    def test_duality_round_trip(self, gauss_base, gauss_rate):
        # grad L at the conjugate argmax recovers the target point
        r = gauss_rate.solve([0.3, 1.4])
        _, grad, _ = stats(gauss_base, r.argmax)
        np.testing.assert_allclose(grad, [0.3, 1.4], atol=1e-8)

    def test_hessian_inverse_relation(self, gauss_base, gauss_rate):
        r = gauss_rate.solve([0.2, 1.1])
        _, _, hess_L = stats(gauss_base, r.argmax)
        np.testing.assert_allclose(r.hess @ hess_L, np.eye(2), atol=1e-7)

    def test_boundary_target_rejected(self, gauss_rate):
        r = gauss_rate.solve([1.0, 1.0])
        assert not r.converged
        assert "outside admissible domain" in r.message

    def test_diverged_argmax_stop(self, gauss_rate):
        # (0, 0) lies on the edge y = x^2 of the Gaussian's domain: the
        # gradient meets its tolerance only as the tilt v runs off to -inf
        r = gauss_rate.solve_many([[0.0, 0.0]])[0]
        assert not r.converged and not r.degenerate
        assert r.message == "argmax diverged; outside admissible domain"
        assert r.iterations == 35
        assert r.hess is None
        assert np.linalg.norm(r.argmax) > 1e8

    def test_rademacher_degenerate(self):
        R = RateFunction(measure.rademacher())
        r = R.solve([0.0, 1.0])
        assert r.converged
        assert r.value == pytest.approx(0.0, abs=1e-12)
        assert r.hess[0, 0] == pytest.approx(1.0, abs=1e-8)
        assert math.isnan(r.hess[1, 1])
        assert "degenerate" in r.message
        assert R.solve([0.0, 1.5]).value == math.inf

    def test_flat_lift_decided_once(self, monkeypatch):
        # z^2 = 1 a.s.: the zero-tilt pass of solve_many finds the lift flat,
        # and the same Newton loop solves the rows on y = 1 with v held at 0,
        # with no second zero-tilt pass
        calls = []
        log_laplace = measure.Measure1D.log_laplace

        def counted(base, theta):
            calls.append(theta.copy())
            return log_laplace(base, theta)
        monkeypatch.setattr(measure.Measure1D, "log_laplace", counted)
        got = RateFunction(measure.rademacher()).solve_many(
            [[0.3, 1.0], [0.3, 1.2], [-0.6, 1.0]])
        assert sum(not t.any() for t in calls) == 1
        assert all(r.degenerate for r in got)
        # the values and argmaxes of the earlier solve on the line lift, to
        # the bit, in one iteration fewer: its zero-tilt pass is not counted
        # twice
        for r, value, u, iterations in ((got[0], 0.04570054152531293,
                                         0.3095196042031117, 5),
                                        (got[2], 0.1927447570217573,
                                         -0.6931471804572978, 5)):
            assert r.converged and r.value == value
            assert r.argmax.tolist() == [u, 0.0]
            assert r.iterations == iterations
            assert r.message == "degenerate direction v reported as free"
            assert np.isnan(r.hess[1]).all() and np.isnan(r.hess[:, 1]).all()
        assert got[1].value == math.inf and got[1].iterations == 1
        assert got[1].message == ("second coordinate degenerate at 1.0; "
                                  "target unreachable")

    def test_rademacher_line_rate(self):
        # I(x, 1) = ((1+x)ln(1+x) + (1-x)ln(1-x))/2 for the coin flip, with
        # J'' = 1 / (1 - x^2) in the free direction
        R = RateFunction(measure.rademacher())
        xs = [0.0, 0.4, -0.7, 0.95]
        for x, r in zip(xs, R.solve_many([[x, 1.0] for x in xs])):
            expect = 0.5 * (xlogy(1 + x, 1 + x) + xlogy(1 - x, 1 - x))
            assert r.converged
            assert r.value == pytest.approx(expect, rel=0, abs=1e-10)
            assert r.hess[0, 0] == pytest.approx(1 / (1 - x * x), rel=1e-9)
        # the converged values of the earlier line-lift solve, to the bit,
        # in one iteration fewer
        got = R.solve_many([[0.4, 1.0], [-0.7, 1.0]])
        assert [(r.value, r.iterations) for r in got] == [
            (0.08228287850505178, 5), (0.27043809275395436, 6)]

    def test_flat_lift_holds_v_at_zero(self):
        # atoms +-1.3: the tilted E z^2 rounds off 1.69 by an ulp or so, yet
        # v stays exactly 0 and the rate is the coin flip's at x / 1.3
        base = measure.Measure1D.from_json(
            '{"atoms": [[-1.3, 0.5], [1.3, 0.5]]}')
        c0 = base.moments.sigma2
        xs = [0.4, -0.9, 1.2]
        got = RateFunction(base).solve_many([[x, c0] for x in xs])
        for x, r in zip(xs, got):
            a = x / 1.3
            expect = 0.5 * (xlogy(1 + a, 1 + a) + xlogy(1 - a, 1 - a))
            assert r.converged and r.degenerate
            assert r.argmax[1] == 0.0
            assert r.value == pytest.approx(expect, rel=0, abs=1e-10)

    def test_flat_failed_row_keeps_stop_message(self):
        # beyond the atoms the tilt runs off until the curvature vanishes;
        # the row reports that, not the message of a converged flat row
        r = RateFunction(measure.rademacher()).solve([1.5, 1.0])
        assert not r.converged and r.degenerate and r.hess is None
        assert r.message == "curvature vanished; outside admissible domain"
        assert r.argmax[1] == 0.0


_FENCHEL_BASES = {"gaussian": measure.gaussian, "rho0": measure.rho_zero,
                  "three-point": measure.three_point}


@pytest.fixture(scope="module")
def fenchel_bases():
    return {name: make() for name, make in _FENCHEL_BASES.items()}


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(_FENCHEL_BASES)),
       a=st.floats(-0.95, 0.95), b=st.floats(0.05, 0.95),
       u=st.floats(-4.0, 4.0), v=st.floats(-4.0, 0.45))
def test_fenchel_inequality_property(fenchel_bases, name, a, b, u, v):
    # I(x) >= <theta, x> - L(theta) at an interior target x and a theta in
    # the domain; targets: y - x^2 in [0.1, 1.9] with a density, and
    # |x| <= 0.95 y, y in [0.05, 0.95] on the three-point atoms {-1, 0, 1}
    m = fenchel_bases[name]
    if name == "three-point":
        x, y = a * b, b
    else:
        x, y = a, a * a + 2 * b
    r = RateFunction(m).solve([x, y])
    assert r.converged
    assert r.value >= u * x + v * y - stats(m, [u, v])[0] - 1e-9


class TestThreePointOracle:
    """The three-point rate against its relative-entropy closed form."""

    def test_benchmark_grid(self):
        xs, ys = np.linspace(-0.25, 0.25, 21), np.linspace(0.3, 0.9, 21)
        X = np.column_stack([np.repeat(xs, 21), np.tile(ys, 21)])
        results = RateFunction(measure.three_point()).solve_many(X)
        assert all(r.converged for r in results)
        got = np.array([r.value for r in results])
        np.testing.assert_allclose(got, three_point_I(0.25, *X.T), rtol=0,
                                   atol=1e-10)

    @settings(max_examples=40, deadline=None)
    @given(p=st.floats(0.05, 0.45), targets=st.lists(
        st.tuples(st.floats(-0.95, 0.95), st.floats(0.05, 0.95)),
        min_size=1, max_size=12))
    def test_interior_property(self, p, targets):
        # x = a y with |a| < 1 and y < 1: the interior |x| < y < 1
        X = np.array([(a * y, y) for a, y in targets])
        results = RateFunction(measure.three_point(p=p)).solve_many(X)
        for (x, y), r in zip(X, results):
            assert r.converged
            assert r.value == pytest.approx(three_point_I(p, x, y), rel=1e-10,
                                            abs=1e-12)


@pytest.mark.parametrize("base,targets", [
    # interior targets and the boundary y = x^2, where Newton fails
    (measure.gaussian, [[0.0, 1.0], [0.3, 1.4], [-0.2, 0.5], [1.0, 1.0],
                        [0.5, 1.25], [0.0, 0.01]]),
    # rows settled by the degenerate fallback: reachable and unreachable
    (measure.rademacher, [[0.0, 1.0], [0.0, 1.5], [0.4, 1.0], [-0.7, 1.0]]),
], ids=["gaussian", "rademacher"])
def test_solve_many_matches_solve(base, targets):
    R = RateFunction(base())
    batch = R.solve_many(targets)
    assert len(batch) == len(targets)
    assert any(not r.converged for r in batch)
    for x, got in zip(targets, batch):
        want = R.solve(x)
        assert got.value == pytest.approx(want.value, rel=1e-13, abs=1e-15)
        assert (got.converged, got.iterations, got.message) == \
            (want.converged, want.iterations, want.message)
    if base is measure.rademacher:
        assert all(r.degenerate for r in batch)
        assert batch[1].value == math.inf


def test_solve_many_rejects_wrong_shape(gauss_rate):
    with pytest.raises(ValueError, match="shape"):
        gauss_rate.solve_many([[0.0, 1.0, 2.0]])


class TestBaseUnits:
    """``I`` of ``(sZ, s^2 Z^2)`` at ``(s x, s^2 y)`` is ``I`` of ``(Z,
    Z^2)`` at ``(x, y)``: the solve holds its tolerances in the base's own
    units, at any scale."""

    @pytest.mark.parametrize("sigma", [1e-5, 1e-7])
    def test_gaussian_off_unit_scale(self, sigma):
        # the point (0.5, 1.2) of N(0, 1), scaled to N(0, sigma^2)
        x, y = 0.5 * sigma, 1.2 * sigma**2
        q = y - x * x
        r = RateFunction(measure.gaussian(sigma=sigma)).solve([x, y])
        assert r.converged and not r.degenerate and r.message == ""
        assert r.value == pytest.approx((0.2 - math.log(0.95)) / 2, rel=0,
                                        abs=1e-10)
        np.testing.assert_allclose(
            r.argmax, [x / q, 0.5 / sigma**2 - 0.5 / q], rtol=1e-8)
        # J'' is the inverse of the tilted covariance of (z, z^2), whose
        # determinant is 2 q^3
        assert np.linalg.det(r.hess) == pytest.approx(0.5 / q**3, rel=1e-6)

    def test_flat_atoms_off_unit_scale(self):
        # the coin flip on +-1e-7: the flat lift on y = 1e-14, with the
        # coin flip's rate at x / 1e-7 and J'' = 1 / (a^2 (1 - x^2))
        a = 1e-7
        R = RateFunction(measure.Measure1D(atoms=((-a, 0.5), (a, 0.5))))
        xs = [0.0, 0.4, -0.7, 0.95]
        got = R.solve_many([[x * a, a * a] for x in xs] + [[0.0, 2 * a * a]])
        for x, r in zip(xs, got):
            expect = 0.5 * (xlogy(1 + x, 1 + x) + xlogy(1 - x, 1 - x))
            assert r.converged and r.degenerate
            assert r.value == pytest.approx(expect, rel=0, abs=1e-10)
            assert r.argmax[1] == 0.0
            assert r.hess[0, 0] == pytest.approx(1 / (a * a * (1 - x * x)),
                                                 rel=1e-9)
        assert got[-1].value == math.inf
        c0 = float(got[-1].message.split()[4].rstrip(";"))
        assert c0 == pytest.approx(a * a, rel=1e-15)
        assert got[-1].message.endswith("; target unreachable")


class TestRateAtOrigin:
    def test_examples(self):
        assert rate_at_origin(RateFunction(measure.rho_zero())) \
            == pytest.approx(math.log(4.0 / 3.0), abs=1e-12)
        assert rate_at_origin(RateFunction(measure.gaussian())) \
            == math.inf
        assert rate_at_origin(RateFunction(measure.three_point(p=0.25))) \
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

    def test_uses_the_kept_moments(self, monkeypatch):
        # the residual reads the moments the base kept from its
        # construction, so it does not validate the base or its table again
        R = RateFunction(measure.Measure1D(
            density=measure.TableDensity([-1, 0, 1], [0, 1, 0])))

        def refuse(self, *args):
            raise AssertionError("validated again")

        monkeypatch.setattr(measure.Measure1D, "__post_init__", refuse)
        monkeypatch.setattr(measure.TableDensity, "__init__", refuse)
        assert rate_expansion_residual(R, quadratic(), 0.0, 1 / 6) == 1.0
        assert np.isfinite(rate_expansion_residual(R, quadratic(), 0.02,
                                                   0.17))

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
