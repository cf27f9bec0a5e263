import math

import numpy as np
import pytest

from cwsoc import kernel, measure
from cwsoc.kernel import (
    KernelError,
    SmoothedDensity,
    TriangularKernel,
    kernel_ft_bound,
    kernel_laplace,
    phi_estimate,
    phi_normalization,
    theorem3_comparison,
)
from cwsoc.quadrature import adaptive_gauss_legendre
from cwsoc.transforms import LogLaplace, RateFunction


def laplace_oracle(c, z):
    # direct quadrature of exp(x z) against the triangular kernel
    k = TriangularKernel(c, 1)
    return adaptive_gauss_legendre(
        lambda x: np.exp(x * z) * k(x), -c, c, tol=1e-13, initial_panels=8)


class TestTriangularKernel:
    def test_normalized(self):
        k = TriangularKernel(0.3, 1)
        val = adaptive_gauss_legendre(lambda x: k(x), -0.3, 0.3, tol=1e-13)
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


class TestKernelFtBound:
    def test_origin_interval(self):
        M = kernel_ft_bound((0.0, 0.0))
        assert M >= 2 * 2 * (1 + math.pi**2) / math.pi**2 - 1e-9  # s = pi
        assert M <= 8.0 + 1e-9  # asymptotic envelope 4(cosh 0 + 1)

    def test_unit_interval(self):
        M = kernel_ft_bound((-1.0, 1.0))
        assert M == pytest.approx(4 * (math.cosh(1) + 1), abs=1e-6)

    def test_is_a_valid_envelope(self):
        M = kernel_ft_bound((-0.5, 0.5))
        rng = np.random.default_rng(2)
        for _ in range(50):
            u = rng.uniform(-0.5, 0.5)
            s = rng.uniform(-300, 300)
            w = complex(u, s)
            val = abs(2 * (np.cosh(w) - 1) / (w * w))
            assert val <= M / (1 + s * s) + 1e-9


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

    def test_point_mass(self):
        s = SmoothedDensity(
            base=measure.Measure1D(atoms=((0.0, 1.0),)), n=7, c=0.02, d=1)
        assert phi_estimate(s, 0.0)[0] == pytest.approx(50.0, abs=1e-12)

    def test_normalization(self):
        s = SmoothedDensity(base=measure.gaussian(), n=20, c=0.05, d=1)
        total = phi_normalization(s, -1.5, 1.5)
        assert total == pytest.approx(1 / 20, abs=1e-4)

    def test_unsupported_base(self):
        with pytest.raises(KernelError):
            SmoothedDensity(base=measure.rademacher(), n=5, d=1)
        with pytest.raises(KernelError, match="n >= d"):
            SmoothedDensity(base=measure.gaussian(), n=1, d=2)

    def test_callable_density_base_refused(self):
        # a normal pdf given as a callable has no closed-form n-fold law
        dens = measure.DensityComponent(
            lambda z: np.exp(-z * z / 2) / math.sqrt(2 * math.pi), 10.0,
            (0.41, 0.5))
        base = measure.Measure1D(density=dens)
        with pytest.raises(KernelError):
            SmoothedDensity(base=base, n=5, d=1)
        s = SmoothedDensity(base=base, n=10, d=2, samples=100)
        with pytest.raises(KernelError):
            phi_estimate(s, [0.0, 1.0])


class TestTheorem3:
    def test_d1_gaussian_ratios(self):
        R = RateFunction(LogLaplace(measure.gaussian(), lift="line"))
        prev = None
        for n in (25, 50, 100):
            s = SmoothedDensity(base=measure.gaussian(), n=n, d=1)
            rows = theorem3_comparison(s, R, [[0.0], [0.2], [-0.4]])
            worst = max(abs(r["ratio"] - 1) for r in rows)
            assert worst < 0.05
            if prev is not None:
                assert worst <= prev + 1e-12
            prev = worst

    def test_d2_gaussian_point(self):
        g = measure.gaussian()
        R = RateFunction(LogLaplace(g))
        s = SmoothedDensity(base=g, n=40, d=2, samples=10**5, seed=3)
        r = theorem3_comparison(s, R, [[0.1, 1.05]])[0]
        assert abs(r["ratio"] - 1) < 0.15
        assert r["ratio_std_error"] < 0.05
        assert r["phi"] > 0

    def test_points_solved_once(self, monkeypatch):
        # one batched solve for all points, and no second solver per point
        g = measure.gaussian()
        R = RateFunction(LogLaplace(g))
        s = SmoothedDensity(base=g, n=20, d=2, samples=500, seed=1)
        points = [[0.1, 1.05], [0.0, 0.9]]
        calls = []
        solve_many = R.solve_many
        monkeypatch.setattr(R, "solve_many",
                            lambda xs: calls.append(len(xs)) or solve_many(xs))
        monkeypatch.setattr(kernel, "RateFunction", None)
        rows = theorem3_comparison(s, R, points)
        monkeypatch.undo()
        assert calls == [2]
        for x, row in zip(points, rows):
            phi, se = phi_estimate(s, x)
            assert row["phi"] == pytest.approx(phi, rel=1e-12)
            assert row["std_error"] == pytest.approx(se, rel=1e-12)

    def test_lattice_base_refused(self):
        R = RateFunction(LogLaplace(measure.rademacher()))
        s = SmoothedDensity(base=measure.rademacher(), n=10, d=2)
        with pytest.raises(KernelError, match="Cramer"):
            theorem3_comparison(s, R, [[0.0, 1.0]])

    def test_outside_domain_refused(self):
        g = measure.gaussian()
        R = RateFunction(LogLaplace(g))
        s = SmoothedDensity(base=g, n=10, d=2, samples=100)
        with pytest.raises(KernelError):
            theorem3_comparison(s, R, [[1.0, 1.0]])
