import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special

from cwsoc import measure, model
from cwsoc.quadrature import adaptive_gauss_legendre
from cwsoc.measure import (
    GaussianDensity,
    Measure1D,
    MeasureError,
    TableDensity,
    sample,
)


def gauss_hermite_moment(k, npts=80):
    # independent oracle: Gauss-Hermite quadrature of z^k under N(0,1)
    x, w = np.polynomial.hermite_e.hermegauss(npts)
    return float(np.sum(w * x**k) / np.sum(w))


class TestMoments:
    def test_standard_gaussian(self):
        ms = measure.gaussian().moments
        assert ms.sigma2 == pytest.approx(gauss_hermite_moment(2), abs=1e-10)
        assert ms.mu4 == pytest.approx(gauss_hermite_moment(4), abs=1e-9)

    def test_rademacher_exact(self):
        m = measure.rademacher()
        ms = m.moments
        assert ms.sigma2 == pytest.approx(1.0, abs=1e-14)
        assert ms.mu4 == pytest.approx(1.0, abs=1e-14)
        assert m.mass_at_zero == 0.0

    def test_rho_zero(self):
        m = measure.rho_zero()
        ms = m.moments
        assert ms.sigma2 == pytest.approx(0.25, abs=1e-10)
        assert m.mass_at_zero == pytest.approx(0.75, abs=0)
        # atom part 1/8 plus Gaussian part 3/8
        assert ms.mu4 == pytest.approx(1.0 / 8 + 3.0 / 8, abs=1e-9)

    def test_three_point_exact(self):
        ms = measure.three_point(p=0.25).moments
        assert ms.sigma2 == pytest.approx(0.5, abs=1e-14)
        assert ms.mu4 == pytest.approx(0.5, abs=1e-14)

    def test_cauchy_schwarz(self):
        for m in (measure.gaussian(), measure.rho_zero(), measure.three_point()):
            ms = m.moments
            assert ms.mu4 >= ms.sigma2**2 - 1e-12

    def test_triangle_table(self):
        # f = 1 - |z| on [-1, 1]: sigma^2 = 1/6 and mu4 = 1/15, by quadrature
        tri = TableDensity([-1.0, 0.0, 1.0], [0.0, 1.0, 0.0])
        ms = Measure1D(density=tri).moments
        assert ms.sigma2 == pytest.approx(1 / 6, rel=0, abs=1e-14)
        assert ms.mu4 == pytest.approx(1 / 15, rel=0, abs=1e-14)

    def test_table_kink_inside_a_panel(self):
        # knots at +-0.77734375 fall inside the eight equal panels on
        # [-R, R]; integrated knot to knot the mass check holds to 1e-12
        x = np.array([-16.5625, -0.77734375, 0.0, 0.77734375, 16.5625])
        y = np.array([2.0, 1.0, 1.0, 1.0, 2.0])
        y /= float(np.sum(np.diff(x) * (y[1:] + y[:-1]) / 2))
        m = Measure1D(density=TableDensity(x, y))
        c, mom = m.tilted_moments(np.zeros(1), np.zeros(1), 0)
        assert mom[0, 0] * math.exp(c[0]) == pytest.approx(1.0, rel=0,
                                                           abs=1e-12)

    def test_degenerate_rejected(self):
        # the point mass at 0 is the only symmetric one-atom base
        with pytest.raises(MeasureError, match="variance is zero"):
            Measure1D(atoms=((0.0, 1.0),))


def _parts_by_hand(m, u, v, kmax):
    # the atom sum on its own scale and the density's (c, m), combined on
    # the larger scale
    z, mass = np.array(m.atoms).T
    expo = np.outer(u, z) + np.outer(v, z * z)
    ca = expo.max(axis=1)
    ma = (mass * np.exp(expo - ca[:, None])) @ (
        z[:, None] ** np.arange(kmax + 1))
    cd, md = m.density.tilted_moments(u, v, kmax)
    c = np.maximum(ca, cd)
    return ca, cd, c, (ma * np.exp(ca - c)[:, None]
                       + md * np.exp(cd - c)[:, None])


class TestTiltedMoments:
    """``Measure1D.tilted_moments``: the atoms and the density, each on the
    log scale it picks."""

    def test_validate_returns_the_moments(self):
        for m in (measure.gaussian(), measure.rho_zero(),
                  measure.three_point()):
            assert m.validate() == m.moments

    @pytest.mark.parametrize("base,u,v", [
        # rho0's density dominates its atoms by more than e^700
        (measure.rho_zero(), np.array([80.0, -80.0]), np.array([0.49, 0.49])),
        # rho0's atoms lie inside its window, where the density is never
        # e^700 below them; with sigma = 0.05 the window is [-0.5, 0.5] and
        # the atoms at +-1 dominate by more than e^700
        (measure.gaussian(sigma=0.05, mass=0.125,
                          atoms=measure.rho_zero().atoms),
         np.array([1500.0, -1500.0]), np.array([0.0, -1.0]))],
        ids=["density-dominates", "atoms-dominate"])
    def test_parts_far_apart(self, base, u, v):
        c, m = base.tilted_moments(u, v, 4)
        ca, cd, c_want, m_want = _parts_by_hand(base, u, v, 4)
        assert np.all(np.abs(ca - cd) > 700)
        assert np.all(c > 709)  # exp(c) alone would overflow
        assert np.all(np.isfinite(c)) and np.all(np.isfinite(m))
        np.testing.assert_array_equal(c, c_want)
        np.testing.assert_allclose(m, m_want, rtol=1e-15)

    @pytest.mark.parametrize("u", [40.0, -40.0, 300.0])
    def test_triangle_strong_tilt(self, u):
        # int e^{uz} (1 - |z|) dz = 2 (cosh u - 1) / u^2 = (2 sinh(u/2) / u)^2
        tri = Measure1D(density=TableDensity([-1, 0, 1], [0, 1, 0]))
        a = abs(u)
        want = a + 2 * math.log1p(-math.exp(-a)) - 2 * math.log(a)
        c, m = tri.tilted_moments(np.array([u]), np.zeros(1), 2)
        assert c[0] + math.log(m[0, 0]) == pytest.approx(want, rel=0,
                                                         abs=1e-12)


class TestCharGrid:
    """``Measure1D.char_grid``: the mirror-pair atom sum plus the density's
    ``char_grid``."""

    # atoms at +-1 and 0.75 times the triangle 1 - |z|
    BASE = Measure1D(atoms=((-1.0, 0.125), (1.0, 0.125)),
                     density=TableDensity([-1, 0, 1], [0, 0.75, 0]))

    def test_atoms_plus_table_match_direct_sum(self):
        s = np.linspace(-4.5, 4.5, 19)
        t = np.linspace(-5.0, 5.0, 17)
        z, mass = np.array(self.BASE.atoms).T
        atoms = np.exp(1j * (s[:, None, None] * z
                             + t[None, :, None] * z * z)) @ mass
        want = atoms + self.BASE.density.char_grid(s, t)
        got = self.BASE.char_grid(s, t)
        assert got.shape == (19, 17)
        assert np.max(np.abs(got - want)) <= 1e-14
        # the mirror-pair form is even in s bit for bit
        np.testing.assert_array_equal(self.BASE.char_grid(-s, t), got)

    def test_mirror_arrays_built_once(self, monkeypatch):
        base = measure.rho_zero()
        first = base.char_grid([0.5, 2.0], [1.0])

        def refuse(self):
            raise AssertionError("atom arrays built again")

        monkeypatch.setattr(Measure1D, "mirror_magnitudes", refuse)
        np.testing.assert_array_equal(base.char_grid([0.5, 2.0], [1.0]),
                                      first)


class TestTableRule:
    """``TableDensity.tilted_moments``: one fixed Gauss-Legendre rule on the
    pieces within the window of the exponent's maximum."""

    def test_triangle_moments_to_the_ulp(self):
        ms = Measure1D(density=TableDensity([-1, 0, 1], [0, 1, 0])).moments
        assert abs(ms.sigma2 - 1 / 6) <= 2 * math.ulp(1 / 6)
        assert abs(ms.mu4 - 1 / 15) <= 2 * math.ulp(1 / 15)

    @pytest.mark.parametrize("u", [4.0, 40.0, 400.0, 4000.0, 4e5])
    def test_uniform_strong_tilt(self, u):
        # f = 1/2 on [-1, 1]: with s = u (1 - z), m_k is (1/2u) times the
        # integral over [0, 2u] of (1 - s/u)^k e^{-s} ds, so m_0 e^{c - u} =
        # P(1, 2u) / 2u and E[1 - z] = P(2, 2u) / (u P(1, 2u)) with P the
        # regularized lower incomplete gamma function
        uni = TableDensity([-1, 1], [0.5, 0.5])
        c, m = uni.tilted_moments(np.array([u]), np.zeros(1), 1)
        p1, p2 = special.gammainc(1, 2 * u), special.gammainc(2, 2 * u)
        assert m[0, 0] * math.exp(c[0] - u) == pytest.approx(
            p1 / (2 * u), rel=1e-11, abs=0)
        # E[z] is a double near 1, so 1 - E[z] holds only to about eps
        assert (m[0, 0] - m[0, 1]) / m[0, 0] == pytest.approx(
            p2 / (u * p1), rel=1e-11, abs=2 * np.finfo(float).eps)

    def test_triangle_extreme_tilts(self):
        # integral of (1 - |z|) e^{uz} is 2 (cosh u - 1) / u^2, so m_0 u^2
        # e^{c - u} -> 1; the density vanishes at the maximum z_c = 1
        u = np.array([1e3, 1e10, 1e17, 1e18, 1e30, 1e100])
        c, m = TableDensity([-1, 0, 1], [0, 1, 0]).tilted_moments(
            u, np.zeros_like(u), 2)
        assert np.all(np.abs(m[:, 0] * u**2 * np.exp(c - u) - 1) < 1e-13)

    @pytest.mark.parametrize("u", [40.0, 46.0, 300.0])
    @pytest.mark.parametrize("v", [0.0, -3.0, 2.0])
    def test_zero_padding_changes_nothing(self, u, v):
        # the maximum is taken where f > 0, not over the padded ends
        tilt = np.array([u]), np.array([v])
        c, m = TableDensity([-1, 0, 1], [0, 1, 0]).tilted_moments(*tilt, 4)
        padded = TableDensity([-2, -1, 0, 1, 2], [0, 0, 1, 0, 0])
        cp, mp = padded.tilted_moments(*tilt, 4)
        assert cp[0] + math.log(mp[0, 0]) == pytest.approx(
            c[0] + math.log(m[0, 0]), rel=1e-14)
        np.testing.assert_allclose(mp[0] / mp[0, 0], m[0] / m[0, 0],
                                   rtol=1e-14, atol=0)

    @pytest.mark.parametrize("u, v", [(0.0, -200.0), (3.0, -200.0),
                                      (0.0, -2000.0), (40.0, 5.0)])
    def test_gapped_bimodal(self, u, v):
        # zero on (-1, 1): for v < 0 the maximum sits at the gap's edge
        x = [-2, -1.5, -1, 1, 1.5, 2]
        tab = TableDensity(x, [0, 1, 0, 0, 1, 0])
        c, m = tab.tilted_moments(np.array([u]), np.array([v]), 4)
        k = np.arange(5)

        def f(z):
            # E > c only in the gap, where the pdf is 0
            e = math.exp(min(u * z + v * z * z - c[0], 0.0)) * tab.pdf(z)
            return np.concatenate([e * z**k, e * abs(z)**k])

        ref, _ = integrate.quad_vec(f, x[0], x[-1], points=x[1:-1], epsabs=0,
                                    epsrel=1e-13, norm="max")
        assert np.all(np.abs(m[0] - ref[:5]) <= 1e-12 * ref[5:])

    def test_long_table_single_tilt_memory(self):
        # 20,001 knots at one tilt: blocks of (tilt, interval) pairs keep
        # the peak far below the 80 MB of one array over every node
        rng = np.random.default_rng(1)
        half = np.cumsum(rng.uniform(0.5, 1.5, 10000))
        half /= half[-1]
        yh = 1.0 + rng.uniform(0.0, 0.5, 10000)
        x = np.concatenate([-half[::-1], [0.0], half])
        tab = TableDensity(x, np.concatenate([yh[::-1], [1.2], yh]))
        tracemalloc.start()
        try:
            c, m = tab.tilted_moments(np.zeros(1), np.zeros(1), 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20, peak
        mass = np.sum(np.diff(x) * (tab.y[:-1] + tab.y[1:])) / 2
        assert m[0, 0] * math.exp(c[0]) == pytest.approx(mass, rel=1e-13)

    def test_thousand_knot_table(self):
        # uneven knots, a flat stretch and ends that jump; 441 tilts in
        # blocks whose arrays stay far below the 340 MB of one array over
        # every piece and node, and 30 of them against scipy's adaptive
        # quadrature (quad_vec, quad for vector integrands)
        rng = np.random.default_rng(5)
        half = np.sort(rng.uniform(0.0, 2.0, 500))
        half[-1] = 2.0
        yh = 1.0 + 0.5 * np.sin(3 * half) + rng.uniform(0.0, 0.2, 500)
        yh[200:260] = yh[200]
        x = np.concatenate([-half[::-1], [0.0], half])
        tab = TableDensity(x, np.concatenate([yh[::-1], [1.6], yh]))
        u = np.concatenate([rng.uniform(-30, 30, 400),
                            rng.uniform(-400, 400, 41)])
        v = np.concatenate([rng.uniform(-20, 8, 400),
                            rng.uniform(-300, 100, 41)])
        tracemalloc.start()
        try:
            c, m = tab.tilted_moments(u, v, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20, peak
        rows, k = np.arange(0, 441, 15), np.arange(5)

        def f(z):
            e = np.exp(u[rows] * z + v[rows] * z * z - c[rows]) * tab.pdf(z)
            return np.concatenate([e[:, None] * z**k,
                                   e[:, None] * abs(z)**k], axis=1)

        ref, _ = integrate.quad_vec(f, x[0], x[-1], points=x[1:-1], epsabs=0,
                                    epsrel=1e-13, norm="max")
        assert np.all(np.abs(m[rows] - ref[:, :5]) <= 1e-12 * ref[:, 5:])


# tilts of the standard normal: at u = 0, with the vertex of the exponent
# inside the window and beyond it (z_c = R), and near the cap 1/2
_GAUSS_TILTS = [(0.0, 0.0), (0.0, -20.0), (0.0, 0.4999999), (3.0, 0.2),
                (-5.0, -4.0), (12.0, 0.0), (-40.0, 0.49), (0.01, 0.49999),
                (2.0, 0.4999)]


class TestSharedRule:
    """``measure._rule``, the one fixed rule behind both density kinds: the
    Gaussian cuts two pieces at the exponent's maximum, a table cuts its
    knot intervals and anchors each piece at its end nearer 0."""

    @pytest.mark.parametrize("u,v", _GAUSS_TILTS)
    def test_gaussian_matches_flat_table(self, u, v):
        # the tilted normal is the flat table on [-R, R] tilted by v - 1/2,
        # times 1 / sqrt(2 pi); the table cuts its pieces its own way
        d = measure.gaussian().density
        R = d.support_radius
        u, v = np.array([u]), np.array([v])
        c, m = d.tilted_moments(u, v, 4)
        ct, mt = TableDensity([-R, R], [1.0, 1.0]).tilted_moments(
            u, v - d.tilt_cap, 4)
        assert c[0] + math.log(m[0, 0]) == pytest.approx(
            ct[0] + math.log(mt[0, 0]) - 0.5 * math.log(2 * math.pi),
            rel=0, abs=1e-13)
        m, mt = m[0] / m[0, 0], mt[0] / mt[0, 0]
        # odd moments on their Cauchy-Schwarz scale, as they vanish at u = 0
        scale = mt.copy()
        scale[1::2] = np.sqrt(mt[0:-1:2] * mt[2::2])
        assert np.all(np.abs(m - mt) <= 1e-13 * scale), (m, mt)

    def test_uniform_moments_to_the_ulp(self):
        # z_c = 1 at zero tilt, and the cut at 0 anchors both pieces there,
        # where Pascal's rule has nothing to cancel
        ms = Measure1D(density=TableDensity([-1, 1], [0.5, 0.5])).moments
        assert abs(ms.sigma2 - 1 / 3) <= math.ulp(1 / 3)
        assert abs(ms.mu4 - 1 / 5) <= math.ulp(1 / 5)


class TestValidation:
    def test_asymmetric_atoms_rejected(self):
        with pytest.raises(MeasureError, match="mirror"):
            Measure1D(atoms=((-1.0, 0.25), (1.0, 0.5), (0.0, 0.25)))

    def test_missing_mirror_rejected(self):
        with pytest.raises(MeasureError, match="mirror"):
            Measure1D(atoms=((-1.0, 0.3), (2.0, 0.7)))
        with pytest.raises(MeasureError, match="mirror"):
            Measure1D.from_json('{"atoms": [[-1, 0.3], [2, 0.7]]}')

    def test_infinite_atoms_rejected(self):
        # JSON reads Infinity; the mirror pair at +-inf has no moments
        with pytest.raises(MeasureError, match="not finite"):
            Measure1D.from_json('{"atoms": [[-Infinity, 0.5], [Infinity, 0.5]]}')

    def test_mirror_magnitudes(self):
        assert measure.three_point(p=0.25).mirror_magnitudes() == ((1.0, 0.25),)
        assert measure.rho_zero().mirror_magnitudes() == ((1.0, 1 / 16),)

    def test_mass_deficit_rejected(self):
        with pytest.raises(MeasureError, match="not 1"):
            Measure1D(atoms=((-1.0, 0.25), (1.0, 0.25)))

    def test_density_without_mass_rejected(self):
        # atoms of mass 1 leave the density none: the base would be atomic
        # in law but carry a density component
        with pytest.raises(MeasureError, match="no mass for the density"):
            measure.gaussian(mass=1e-13, atoms=((0.0, 1.0),))

    def test_asymmetric_density_rejected(self):
        # the triangle with its peak moved to 0.3
        with pytest.raises(MeasureError, match="not symmetric"):
            TableDensity([-1.0, 0.3, 1.0], [0.0, 1.0, 0.0])

    @pytest.mark.parametrize("x, y", [
        # a bump at -0.5025 between the points 0.5 and 0.505 of the
        # 201-point grid on [0, 1] that used to check the shape
        ([-1, -0.5026, -0.5025, -0.5024, 0, 0.5024, 0.5025, 0.5026, 1],
         [1, 1, 2, 1, 1, 1, 1, 1, 1]),
        # equal at every knot and its mirror, but the density jumps at -1
        # and its mirror at 1 does not: on (1, 2) f = 2 - z, f(-z) = 0
        ([-1, 1, 2], [1, 1, 0])], ids=["between-grid-points", "unmirrored-end"])
    def test_asymmetric_table_rejected_exactly(self, x, y):
        with pytest.raises(MeasureError, match="not symmetric"):
            TableDensity(x, y)

    def test_nan_density_rejected(self):
        with pytest.raises(MeasureError, match="table y must be finite"):
            TableDensity([-1.0, 0.0, 1.0], [0.0, math.nan, 0.0])

    def test_infinite_moments_rejected(self):
        # a triangle of mass 1 on knots at +-1e100: z^4 overflows, the
        # quadrature accepts the non-finite panels at once and the base is
        # refused instead of bisected 40 levels deep
        dens = TableDensity([-1e100, 0.0, 1e100], [0.0, 1e-100, 0.0])
        with pytest.raises(MeasureError, match="moments not finite"):
            Measure1D(density=dens)

    def test_quadrature_accepts_nonfinite_panel(self):
        nodes = []

        def f(z):
            nodes.append(len(z))
            assert len(nodes) <= 3, "a non-finite panel was bisected"
            return np.full_like(z, math.inf)

        with np.errstate(invalid="ignore"):
            assert adaptive_gauss_legendre(f, -1.0, 1.0) == math.inf
        assert nodes == [12, 12, 12]  # the panel and its two halves


class TestSample:
    def test_rademacher_mean(self):
        rng = np.random.default_rng(1)
        draws = sample(measure.rademacher(), 10**6, rng)
        assert abs(np.mean(draws)) < 4 / math.sqrt(10**6)

    def test_rho_zero_mass_at_zero(self):
        rng = np.random.default_rng(2)
        draws = sample(measure.rho_zero(), 10**6, rng)
        assert abs(np.mean(draws == 0.0) - 0.75) < 0.002

    def test_gaussian_empirical_moments(self):
        rng = np.random.default_rng(3)
        draws = sample(measure.gaussian(), 10**6, rng)
        n = len(draws)
        # 5-sigma CLT bands: Var(z^2) = 2, Var(z^4) = 96
        assert abs(np.mean(draws**2) - 1.0) < 5 * math.sqrt(2 / n)
        assert abs(np.mean(draws**4) - 3.0) < 5 * math.sqrt(96 / n)

    def test_deterministic_given_seed(self):
        a = sample(measure.rho_zero(), 1000, np.random.default_rng(7))
        b = sample(measure.rho_zero(), 1000, np.random.default_rng(7))
        np.testing.assert_array_equal(a, b)

    def test_invalid_count(self):
        with pytest.raises(ValueError):
            sample(measure.rademacher(), 0, np.random.default_rng(0))

    def test_table_sample_moments(self):
        # triangle f = 1 - |z|: E z^2 = 1/6, E z^4 = 1/15, E z^8 = 1/45
        m = Measure1D(density=TableDensity([-1.0, 0.0, 1.0], [0.0, 1.0, 0.0]))
        draws = sample(m, 2 * 10**5, np.random.default_rng(5))
        n = len(draws)
        assert np.max(np.abs(draws)) <= 1.0
        # 5-sigma CLT bands: Var(z^2) = 1/15 - 1/36, Var(z^4) = 1/45 - 1/225
        assert abs(np.mean(draws**2) - 1 / 6) < 5 * math.sqrt(7 / 180 / n)
        assert abs(np.mean(draws**4) - 1 / 15) < 5 * math.sqrt(4 / 225 / n)

    @pytest.mark.parametrize("x, y", [
        ([-1, 0, 1], [0, 1, 0]),
        # one flat interval across 0, with no knot there
        ([-1, 1], [0.5, 0.5]),
        # intervals of zero mass at both ends, flat ones between
        ([-3, -2, -1, 1, 2, 3], [0, 0, 0.5, 0.5, 0, 0])],
        ids=["triangle", "flat-across-0", "zero-mass-ends"])
    def test_table_sampler_ks(self, x, y):
        # KS distance of 2e5 seeded draws to the exact piecewise-quadratic
        # CDF, below its 0.1 % critical value 1.95 / sqrt(N)
        d = TableDensity(x, y)
        n = 2 * 10**5
        draws = np.sort(d.sample(n, np.random.default_rng(11)))
        cdf = exact_table_cdf(x, y, draws)
        ks = max(np.max(np.arange(1, n + 1) / n - cdf),
                 np.max(cdf - np.arange(n) / n))
        assert ks < 1.95 / math.sqrt(n)
        # no draw falls where the density is 0
        assert np.all(d.pdf(draws) > 0)

    def test_table_sampler_ends_of_the_unit_interval(self):
        # u = 0 and u = 1 (the total mass, which u * total can round up to)
        # land on the ends of the support, not inside the zero-mass ends
        class Ends:
            def random(self, count):
                return np.array([0.0, 1.0])

        d = TableDensity([-3, -2, -1, 1, 2, 3], [0, 0, 0.5, 0.5, 0, 0])
        np.testing.assert_array_equal(d.sample(2, Ends()), [-2.0, 2.0])

    @pytest.mark.parametrize("x, y", [
        ([-1, 0, 1], [0, 1, 0]), ([-1, 1], [0.5, 0.5]),
        ([-2.5, -1.25, -0.4, 0.4, 1.25, 2.5], [0.05, 0.3, 0.1, 0.1, 0.3, 0.05])],
        ids=["triangle", "flat-across-0", "irregular"])
    def test_table_abs_moment(self, x, y):
        # scipy's quad interval by interval, each split at 0
        d = TableDensity(x, y)
        edges = np.union1d(x, 0.0)
        want = sum(integrate.quad(lambda z: abs(z) * float(d.pdf(z)), a, b,
                                  epsabs=1e-14, epsrel=1e-14)[0]
                   for a, b in zip(edges[:-1], edges[1:]))
        assert d.abs_moment == pytest.approx(want, rel=0, abs=1e-13)


def exact_table_cdf(x, y, z):
    """The CDF of the normalized table density at ``z``: on the knot
    interval from ``x_i``, ``y_i t + (y_{i+1} - y_i) t^2 / (2 h_i)``."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    h = np.diff(x)
    start = np.concatenate(([0.0], np.cumsum(h * (y[:-1] + y[1:]) / 2)))
    i = np.clip(np.searchsorted(x, z, side="right") - 1, 0, len(h) - 1)
    t = np.clip(z - x[i], 0.0, h[i])
    return (start[i] + y[i] * t + (y[i + 1] - y[i]) * t * t / (2 * h[i])) / (
        start[-1])


class TestJsonRoundTrip:
    def test_atoms_bit_exact(self):
        atoms = ((-1.0 / 3, 0.1), (0.0, 0.8), (1.0 / 3, 0.1))
        m = Measure1D(atoms=atoms)
        m2 = Measure1D.from_json(m.to_json())
        assert m2.atoms == atoms

    def test_density_round_trip(self):
        m = measure.rho_zero()
        m2 = Measure1D.from_json(m.to_json())
        assert m2.moments == m.moments
        assert (m2.density.mass, m2.density.sigma) == (0.125, 1.0)

    def test_malformed_json(self):
        with pytest.raises(MeasureError):
            Measure1D.from_json("{not json")

    @pytest.mark.parametrize("density, match", [
        ({"kind": "expr", "expr": "np.exp(-z*z/2)"}, "unknown density kind"),
        ({"kind": "opaque"}, "unknown density kind"),
        ({"mass": 1.0}, "unknown density kind"),
        ({"kind": "gaussian", "sigma": "wide"}, "invalid gaussian density"),
        ({"kind": "table", "x": [0.0, 1.0]}, "invalid table density"),
        # one point at 0: no support
        ({"kind": "table", "x": [0.0], "y": [1.0]}, "invalid table density"),
        ({"kind": "table", "x": [-1, 1], "y": [0.5, 0.5], "z": [], "w": 0},
         "unknown key 'w', 'z' in the table density"),
    ])
    def test_bad_density_spec_rejected(self, density, match):
        doc = {"atoms": [], "density": density, "domination": [0.41, 0.5],
               "support_radius": 10.0}
        with pytest.raises(MeasureError, match=match):
            Measure1D.from_json(json.dumps(doc))

    def test_retired_keys_ignored(self):
        doc = {"atoms": [[-1, 0.5], [1, 0.5]], "domination": [0.41, 0.5],
               "support_radius": 10.0, "v0": 0.5}
        assert Measure1D.from_json(json.dumps(doc)) == measure.rademacher()

    def test_gaussian_spec_without_envelope_validates(self):
        # the density derives its support radius and envelope from sigma
        doc = {"atoms": [], "density": {"kind": "gaussian", "sigma": 2.0}}
        m = Measure1D.from_json(json.dumps(doc))
        assert m.moments.sigma2 == pytest.approx(4.0, rel=1e-12)
        assert m.density.support_radius == 20.0
        assert m.density.tilt_cap == 1 / 8


_finite = dict(allow_nan=False, allow_infinity=False)


@st.composite
def symmetric_bases(draw, kinds=("atoms", "gaussian", "table")):
    """A valid base: a zero atom (or none) and up to three mirror pairs,
    alone or beside a Gaussian or a symmetric table density that carries
    the rest of the mass."""
    kind = draw(st.sampled_from(kinds))
    mags = draw(st.lists(st.floats(0.01, 5.0, **_finite),
                         min_size=1 if kind == "atoms" else 0, max_size=3,
                         unique=True))
    raw = draw(st.lists(st.integers(1, 10), min_size=len(mags),
                        max_size=len(mags)))
    raw0 = draw(st.integers(0, 10))
    raw_density = 0 if kind == "atoms" else draw(st.integers(1, 10))
    total = 2 * sum(raw) + raw0 + raw_density
    atoms = [(0.0, raw0 / total)] if raw0 else []
    for z, r in zip(mags, raw):
        atoms += [(-z, r / total), (z, r / total)]
    a = 1.0 - sum(m for _, m in atoms)
    density = None
    if kind == "gaussian":
        density = GaussianDensity(a, draw(st.floats(0.1, 5.0)))
    elif kind == "table":
        half = sorted(draw(st.lists(st.floats(0.05, 20.0, **_finite),
                                    min_size=1, max_size=4, unique=True)))
        y_half = draw(st.lists(st.floats(0.1, 2.0), min_size=len(half) + 1,
                               max_size=len(half) + 1))
        x = np.array([-h for h in half[::-1]] + [0.0] + half)
        y = np.array(y_half[:0:-1] + y_half)
        y *= a / float(np.sum(np.diff(x) * (y[1:] + y[:-1]) / 2))
        density = TableDensity(x, y)
    return Measure1D(atoms=tuple(atoms), density=density)


@settings(max_examples=60, deadline=None)
@given(symmetric_bases())
def test_json_round_trip_property(m):
    m2 = Measure1D.from_json(m.to_json())
    assert m2.atoms == m.atoms
    if m.density is None:
        assert m2.density is None
        return
    assert type(m2.density) is type(m.density)
    # every attribute: the spec's parameters and what is derived from them
    np.testing.assert_equal(vars(m2.density), vars(m.density))


@settings(max_examples=30, deadline=None)
@given(symmetric_bases(kinds=("atoms", "gaussian")))
def test_valid_bases_reach_every_sampler(m):
    # a base that builds is one enumeration and both samplers accept
    tm = model.TiltedModel(rho=m, g=model.quadratic(), n=4)
    rng = np.random.default_rng(0)
    if m.density is None:
        assert np.sum(model.enumerate_exact(tm).weight) == pytest.approx(1.0)
    assert len(model.sample_importance(tm, 64, rng).S) > 0
    b = model.sample_metropolis(tm, 64, burn_in=8, thin=4, rng=rng, chains=8)
    assert len(b.S) == 64


@settings(max_examples=40, deadline=None)
@given(symmetric_bases(kinds=("atoms",)), st.floats(2e-12, 1e-3),
       st.sampled_from([-1.0, 1.0]), st.data())
def test_broken_bases_rejected_at_construction(m, delta, sign, data):
    atoms = list(m.atoms)
    k = data.draw(st.sampled_from(
        [i for i, (z, _) in enumerate(atoms) if z != 0.0]))
    z, p = atoms[k]
    # a mirror mass off by more than 1e-12
    off = atoms[:k] + [(z, p + sign * delta)] + atoms[k + 1:]
    with pytest.raises(MeasureError, match="mirror"):
        Measure1D(atoms=tuple(off))
    # a missing mirror
    with pytest.raises(MeasureError, match="mirror"):
        Measure1D(atoms=tuple(atoms[:k] + atoms[k + 1:]))
    # masses that do not sum to 1
    scaled = tuple((zj, pj * (1 + sign * delta)) for zj, pj in atoms)
    with pytest.raises(MeasureError, match="not 1"):
        Measure1D(atoms=scaled)
