import math

import numpy as np
import pytest
from scipy import integrate, stats

from cwsoc import kernel, measure
from cwsoc.kernel import (
    KernelError,
    SmoothedDensity,
    TriangularKernel,
    kernel_laplace,
    phi_estimate,
    theorem3_comparison,
)
from cwsoc.transforms import RateFunction


def pair_density(mu, s):
    """Direct density of (Z1 + Z2, Z1^2 + Z2^2), Z_i i.i.d. N(mu, s^2)."""
    f = stats.norm(mu, s).pdf

    def f2(u, v):
        d2 = 2 * v - u * u
        d = np.sqrt(np.where(d2 > 0, d2, 1.0))
        return np.where(d2 > 0, f((u + d) / 2) * f((u - d) / 2) / d, 0.0)
    return f2


def split_rule(c, k=6):
    """Gauss nodes and weights on [-c, c], ``k`` per half, split at 0."""
    gx, gw = np.polynomial.legendre.leggauss(k)
    nodes = np.concatenate([(gx - 1) * c / 2, (gx + 1) * c / 2])
    return nodes, np.concatenate([gw * c / 2, gw * c / 2])


def box_rule(c):
    """The 12 x 12 Gauss nodes and weights of the d = 2 kernel box."""
    nodes, wts = split_rule(c)
    U, V = np.meshgrid(nodes, nodes, indexing="ij")
    return U.ravel(), V.ravel(), np.outer(wts, wts).ravel()


def laplace_oracle(c, z):
    # direct quadrature of exp(x z) against the triangular kernel, split at
    # its kink at 0
    k = TriangularKernel(c, 1)
    return integrate.quad(
        lambda x: np.exp(x * z) * k(x), -c, c, points=[0.0], epsabs=1e-13,
        epsrel=0, complex_func=True)[0]


class TestTriangularKernel:
    def test_normalized(self):
        k = TriangularKernel(0.3, 1)
        val = integrate.quad(lambda x: k(x), -0.3, 0.3, epsabs=1e-13,
                             epsrel=0)[0]
        assert val == pytest.approx(1.0, abs=1e-12)

    def test_support_and_peak(self):
        k = TriangularKernel(0.5, 2)
        assert k(0.0, 0.0) == pytest.approx(4.0, abs=1e-14)
        assert k(0.5, 0.1) == 0.0
        assert np.all(k(np.linspace(-1, 1, 33), 0.1) >= 0)

    def test_invalid_params(self):
        with pytest.raises(KernelError):
            TriangularKernel(-1.0, 1)
        with pytest.raises(KernelError):
            TriangularKernel(1.0, 3)

    @pytest.mark.parametrize("c", [math.nan, math.inf, 0.0])
    def test_nonfinite_or_zero_width_rejected(self, c):
        with pytest.raises(KernelError, match="0 < c < inf"):
            TriangularKernel(c, 1)


class TestKernelLaplace:
    def test_at_zero(self):
        assert kernel_laplace(1.0, [0.0]) == pytest.approx(1.0, abs=1e-15)
        assert kernel_laplace(0.01, [0.0, 0.0]) == pytest.approx(1.0, abs=1e-15)

    def test_real_unit(self):
        assert kernel_laplace(1.0, [1.0]) == pytest.approx(
            2 * (math.cosh(1) - 1), abs=1e-14)

    def test_fejer_zero(self):
        assert abs(kernel_laplace(1.0, [2j * math.pi])) < 1e-14

    def test_quadrature_oracle_random(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            c = rng.uniform(0.01, 2.0)
            z = (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)) * 5 / c
            got = kernel_laplace(c, [z])
            assert got == pytest.approx(laplace_oracle(c, z), abs=1e-10)

    def test_series_branch(self):
        for w in (1e-7, 3e-5, 9.9e-5):
            got = kernel_laplace(1.0, [w])
            assert got == pytest.approx(laplace_oracle(1.0, w), abs=1e-14)

    def test_product_over_components(self):
        z = np.array([0.7, -1.2 + 0.4j])
        expect = kernel_laplace(0.5, [z[0]]) * kernel_laplace(0.5, [z[1]])
        assert kernel_laplace(0.5, z) == pytest.approx(expect, abs=1e-13)

    def test_imaginary_axis_is_fejer(self):
        # purely imaginary argument: nonnegative real product
        for s in (0.3, 2.0, 11.0):
            got = kernel_laplace(1.0, [1j * s])
            expect = 2 * (1 - math.cos(s)) / (s * s)
            assert got.imag == pytest.approx(0.0, abs=1e-12)
            assert got.real == pytest.approx(expect, abs=1e-12)


class TestPhiEstimateD1:
    def test_gaussian_center(self):
        s = SmoothedDensity(base=measure.gaussian(), n=100, c=0.01, d=1)
        v, se = phi_estimate(s, 0.0)
        assert se == 0.0
        assert v == pytest.approx(1 / math.sqrt(200 * math.pi), rel=0.01)

    def test_gaussian_offset(self):
        s = SmoothedDensity(base=measure.gaussian(), n=100, c=0.01, d=1)
        v, _ = phi_estimate(s, 0.3)
        expect = math.exp(-4.5) / math.sqrt(200 * math.pi)
        assert v == pytest.approx(expect, rel=0.03)

    def test_normalization(self):
        s = SmoothedDensity(base=measure.gaussian(), n=20, c=0.05, d=1)
        total = integrate.quad(lambda xv: phi_estimate(s, xv)[0], -1.5, 1.5,
                               epsabs=1e-9, epsrel=0)[0]
        assert total == pytest.approx(1 / 20, abs=1e-4)

    def test_unsupported_base(self):
        with pytest.raises(KernelError, match="Cramer"):
            SmoothedDensity(base=measure.rademacher(), n=5, d=1)
        with pytest.raises(KernelError, match="pure Gaussian"):
            SmoothedDensity(base=measure.rho_zero(), n=5, d=1)
        with pytest.raises(KernelError, match="n >= d"):
            SmoothedDensity(base=measure.gaussian(), n=1, d=2)

    @pytest.mark.parametrize("c", [math.inf, math.nan, 0.0, -0.1])
    def test_coupling_outside_open_half_line_refused(self, c):
        # an infinite or NaN coupling makes phi NaN
        with pytest.raises(KernelError, match="coupling"):
            SmoothedDensity(base=measure.gaussian(), n=10, c=c)

    def test_table_density_base_refused(self):
        # a table density has no closed-form n-fold law, in either dimension
        base = measure.Measure1D(
            density=measure.TableDensity([-1, 0, 1], [0, 1, 0]))
        with pytest.raises(KernelError, match="pure Gaussian"):
            SmoothedDensity(base=base, n=5, d=1)
        with pytest.raises(KernelError, match="pure Gaussian"):
            SmoothedDensity(base=base, n=10, d=2, samples=100)


class TestTheorem3:
    def test_d1_gaussian_ratios(self):
        prev = None
        for n in (25, 50, 100):
            s = SmoothedDensity(base=measure.gaussian(), n=n, d=1)
            rows = theorem3_comparison(s, [[0.0], [0.2], [-0.4]])
            worst = max(abs(r["ratio"] - 1) for r in rows)
            assert worst < 0.05
            if prev is not None:
                assert worst <= prev + 1e-12
            prev = worst

    @pytest.mark.parametrize("n, x", [(10**4, 0.4), (3000, 0.7)])
    def test_d1_ratio_where_phi_underflows(self, n, x):
        # e^{-nJ} is 0 (nJ = 800) or denormal (nJ = 735), but the tilted
        # estimate cancels it, so the ratio stays finite and near 1; 4 and
        # 10 nodes per half, by a rule built here, agree with the 6 nodes
        s = SmoothedDensity(base=measure.gaussian(), n=n, d=1)
        row = theorem3_comparison(s, [[x]])[0]
        assert math.isfinite(row["ratio"])
        assert abs(row["ratio"] - 1) < 1e-6
        # for N(0, 1): theta = x, J'' = 1, and tilted by theta it is
        # N(theta, 1), so the sum is N(n theta, n)
        theta = x
        pref = math.sqrt(1 / (2 * math.pi * n))
        f = stats.norm(n * theta, math.sqrt(n)).pdf
        for k in (4, 10):
            t, w = split_rule(s.c, k)
            ratio = np.sum(w * TriangularKernel(s.c, 1)(t) * np.exp(-theta * t)
                           * f(n * x + t)) / pref
            assert ratio == pytest.approx(row["ratio"], rel=1e-12, abs=0)

    def test_d2_gaussian_point(self):
        g = measure.gaussian()
        s = SmoothedDensity(base=g, n=40, d=2, samples=10**5, seed=3)
        r = theorem3_comparison(s, [[0.1, 1.05]])[0]
        assert abs(r["ratio"] - 1) < 0.15
        assert r["ratio_std_error"] < 0.05
        assert r["phi"] > 0

    def test_no_rate_function_built(self, monkeypatch):
        # the Gaussian conjugate is a closed form: no solver is built and no
        # log-Laplace surface evaluated, and each row is its point's
        # phi_estimate
        def refuse(*args, **kwargs):
            raise AssertionError("the kernel built a conjugate solver")
        monkeypatch.setattr(RateFunction, "__init__", refuse)
        monkeypatch.setattr(measure.Measure1D, "log_laplace", refuse)
        g = measure.gaussian()
        for d, points in ((1, [[0.1], [-0.3]]),
                          (2, [[0.1, 1.05], [0.0, 0.9]])):
            s = SmoothedDensity(base=g, n=20, d=d, samples=500, seed=1)
            rows = theorem3_comparison(s, points)
            for x, row in zip(points, rows):
                phi, se = phi_estimate(s, x)
                assert row["phi"] == pytest.approx(phi, rel=1e-12)
                assert row["std_error"] == pytest.approx(se, rel=1e-12)

    def test_conjugate_matches_the_solver(self):
        # inside the 10 sigma window the closed form is the Newton solve's
        # conjugate of the pair lift, to its tolerance
        g = measure.gaussian(sigma=1.5)
        s = SmoothedDensity(base=g, n=20, d=2, samples=2)
        R = RateFunction(g)
        for x in ([0.1, 1.05], [-0.8, 3.0], [1.2, 1.5]):
            theta, J, det = kernel._conjugate(s, np.array(x))
            r = R.solve(x)
            assert r.converged
            np.testing.assert_allclose(theta, r.argmax, rtol=0, atol=1e-9)
            assert J == pytest.approx(r.value, rel=1e-10, abs=1e-12)
            assert det == pytest.approx(np.linalg.det(r.hess), rel=1e-8)

    @pytest.mark.parametrize("x", [10.5, 40.0])
    def test_d1_far_points_admitted(self, x):
        # every x is admissible for a Gaussian, also beyond the 10 sigma
        # window its rate solver integrates on
        s = SmoothedDensity(base=measure.gaussian(), n=1000, d=1)
        row = theorem3_comparison(s, [[x]])[0]
        assert abs(row["ratio"] - 1) < 1e-3

    def test_d2_far_points_admitted(self):
        # every y > x^2 is admissible: far up the parabola's axis, and far
        # out along it
        s = SmoothedDensity(base=measure.gaussian(), n=40, d=2, samples=2000,
                            seed=2)
        for row in theorem3_comparison(s, [[0.1, 101.0], [12.0, 145.0]]):
            assert math.isfinite(row["ratio"]) and row["ratio"] > 0

    def test_nan_estimate_refused(self):
        # a kernel box too wide to integrate makes the tilted estimate NaN,
        # which is no mass in the window
        s = SmoothedDensity(base=measure.gaussian(), n=40, d=1, c=1e308)
        with np.errstate(all="ignore"), pytest.raises(KernelError,
                                                      match="no mass"):
            theorem3_comparison(s, [[0.3]])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("d,c,point", [(1, 1e308, [0.3]),
                                           (2, 1e200, [0.3, 1.2])])
    def test_overflowing_box_refused_quietly(self, d, c, point):
        # the rule overflows on a box this wide; the estimate is refused
        # with no numpy warning on the way
        s = SmoothedDensity(base=measure.gaussian(), n=40, d=d, c=c,
                            samples=100)
        with pytest.raises(KernelError, match="no mass"):
            theorem3_comparison(s, [point])

    def test_one_draw_refused(self):
        # one draw has no std error; n = 2 draws none
        g = measure.gaussian()
        with pytest.raises(KernelError, match="samples >= 2"):
            SmoothedDensity(base=g, n=40, d=2, samples=1)
        SmoothedDensity(base=g, n=2, d=2, samples=1)
        SmoothedDensity(base=g, n=40, d=1, samples=1)

    def test_lattice_base_refused(self):
        # refused when built, before any conjugate is solved
        with pytest.raises(KernelError, match="Cramer"):
            SmoothedDensity(base=measure.rademacher(), n=10, d=2)

    def test_outside_domain_refused(self):
        g = measure.gaussian()
        s = SmoothedDensity(base=g, n=10, d=2, samples=100)
        with pytest.raises(KernelError):
            theorem3_comparison(s, [[1.0, 1.0]])


class TestPairWindow:
    MU, S = -0.35, 0.8

    def test_factored_sum_matches_direct(self):
        # the per-sample node sum for fixed (S', T'), cells on both sides of
        # the parabola u^2 = 2v included
        n, x = 40, (0.1, 1.05)
        Sp = np.array([3.0, 3.0, 3.6, -2.0, 4.0])
        Tp = np.array([41.5, 41.0, 30.0, 43.0, 45.0])
        a, b = n * x[0] - Sp, n * x[1] - Tp
        rng = np.random.default_rng(6)
        U, V = rng.uniform(-0.3, 0.3, (2, 144))
        W = rng.uniform(0.1, 1.0, 144)
        got = kernel._pair_window(self.MU, self.S, U, V, W)(a, b)
        u, v = a[:, None] + U, b[:, None] + V
        inside = u * u < 2 * v
        assert inside.any() and not inside.all()
        assert inside[0].any() and not inside[0].all()
        expect = pair_density(self.MU, self.S)(u, v) @ W
        assert expect[3] == 0.0 and got[3] == 0.0
        assert got == pytest.approx(expect, rel=1e-12, abs=0)

    def test_samples_spanning_blocks(self):
        # more near samples than one block of _WINDOW_CELLS cells holds, and
        # a partial last block: each sample's sum matches the direct one
        rng = np.random.default_rng(8)
        U, V = rng.uniform(-0.3, 0.3, (2, 144))
        W = rng.uniform(0.1, 1.0, 144)
        a = rng.uniform(-2.0, 2.0, 1000)
        b = a * a / 2 + rng.uniform(-0.4, 0.6, 1000)
        got = kernel._pair_window(self.MU, self.S, U, V, W)(a, b)
        expect = pair_density(self.MU, self.S)(a[:, None] + U,
                                               b[:, None] + V) @ W
        near = np.count_nonzero(got)
        assert near > 2 * kernel._WINDOW_CELLS // 144 and near % 16
        assert got == pytest.approx(expect, rel=1e-12, abs=0)

    def pair_value(self, u, v):
        one = np.zeros(1)
        return kernel._pair_window(self.MU, self.S, one, one, np.ones(1))(
            np.atleast_1d(u), np.atleast_1d(v))

    def test_monte_carlo_histogram(self):
        # oracle: 2-D Monte Carlo of (Z1+Z2, Z1^2+Z2^2) cell frequencies
        rng = np.random.default_rng(11)
        z = rng.normal(self.MU, self.S, size=(2 * 10**6, 2))
        x, y = z.sum(axis=1), (z**2).sum(axis=1)
        h = 0.2
        for (x0, y0) in [(-0.7, 1.0), (0.0, 1.5)]:
            freq = np.mean((np.abs(x - x0) < h / 2) & (np.abs(y - y0) < h / 2))
            dens = self.pair_value(x0, y0)[0]
            assert freq == pytest.approx(dens * h * h, rel=0.05)

    def test_integrates_to_one(self):
        # integral over {u^2 < 2v}, with v = u^2/2 + t^2 (dv = 2t dt) to
        # take out the 1/sqrt(2v - u^2) edge singularity
        val, _ = integrate.dblquad(
            lambda t, u: self.pair_value(u, u * u / 2 + t * t)[0] * 2 * t,
            -8, 8, 0, 6, epsabs=1e-10)
        assert val == pytest.approx(1.0, abs=1e-8)


class TestTiltedSums:
    @pytest.mark.parametrize("n", [3, 40])
    def test_law(self, n):
        mu, s, N = 0.3, 0.8, 2 * 10**5
        k = n - 2
        Sp, Tp = kernel._tilted_sums(measure.gaussian().density, k, mu, s, N,
                                     np.random.default_rng(n))
        assert abs(Sp.mean() - k * mu) < 5 * math.sqrt(k * s * s / N)
        # Var of the sample variance of S' is 2 (k s^2)^2 / N
        assert abs(Sp.var() / (k * s * s) - 1) < 5 * math.sqrt(2 / N)
        Q = Tp - Sp * Sp / k
        if n == 3:
            # chi^2_0 is exactly 0: T' = S'^2 to rounding
            assert np.max(np.abs(Q)) <= 1e-12 * np.max(Tp)
        else:
            # s^2 chi^2_{k-1}: mean (k-1) s^2, variance 2 (k-1) s^4
            assert abs(Q.mean() - (k - 1) * s * s) < 5 * s * s * math.sqrt(
                2 * (k - 1) / N)


class TestSmallN:
    def test_n2_is_the_gauss_rule(self):
        # no draws at n = 2: phi is the untilted pair density against the
        # kernel's Gauss rule, whatever samples and seed say
        g = measure.gaussian()
        x = np.array([0.1, 1.05])
        U, V, w = box_rule(0.5)
        expect = float(np.sum(w * TriangularKernel(0.5, 2)(U, V)
                              * pair_density(0.0, 1.0)(2 * x[0] + U,
                                                       2 * x[1] + V)))
        for samples, seed in ((1, 0), (10**4, 5)):
            s = SmoothedDensity(base=g, n=2, d=2, samples=samples, seed=seed)
            phi, se = phi_estimate(s, x)
            assert se == 0.0
            assert phi == pytest.approx(expect, rel=1e-10)

    def test_n3_runs(self):
        g = measure.gaussian()
        s = SmoothedDensity(base=g, n=3, d=2, samples=2000, seed=1)
        phi, se = phi_estimate(s, [0.1, 1.05])
        assert phi > 0 and 0 < se < phi
