import math

import numpy as np
import pytest
from scipy import integrate
from scipy.special import gamma, gammainc

from cwsoc import measure
from cwsoc.limitlaw import (
    LimitLawError,
    QuarticLaw,
    kolmogorov_critical,
    ks_distance,
    verify_fluctuations,
    verify_lln,
)
from cwsoc.model import (
    EmpiricalBatch,
    TiltedModel,
    enumerate_exact,
    quadratic,
    quartic,
    sample_importance,
)


@pytest.fixture(scope="module")
def law():
    return QuarticLaw()


class TestQuarticLaw:
    def test_pdf_at_zero(self, law):
        expect = (4 / 3) ** 0.25 / math.gamma(0.25)
        assert law.pdf(0.0) == pytest.approx(expect, abs=1e-14)
        assert expect == pytest.approx(0.296385, abs=5e-6)

    def test_normalization(self, law):
        total, _ = integrate.quad(law.pdf, -10, 10, epsabs=1e-13)
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_even_density(self, law):
        s = np.linspace(0, 4, 17)
        np.testing.assert_allclose(law.pdf(s), law.pdf(-s), rtol=0)

    def test_moments_gamma_identities(self, law):
        assert law.moment(2) == pytest.approx(
            2 * math.sqrt(3) * math.gamma(0.75) / math.gamma(0.25), abs=1e-12)
        assert law.moment(2) == pytest.approx(1.17085, abs=5e-5)
        assert law.moment(4) == pytest.approx(3.0, abs=1e-12)
        assert law.moment(8) == pytest.approx(45.0, abs=1e-10)
        assert law.moment(3) == 0.0

    @pytest.mark.parametrize("k", [-1, -3])
    def test_negative_moment_order_refused(self, law, k):
        # odd negative orders are refused, as even ones are, not read as
        # odd moments of 0
        with pytest.raises(LimitLawError, match="nonnegative"):
            law.moment(k)

    def test_moments_match_scipy_gamma(self, law):
        for k in range(13):
            want = 0.0 if k % 2 else (
                12 ** (k / 4) * gamma((k + 1) / 4) / gamma(0.25))
            assert law.moment(k) == pytest.approx(want, rel=1e-15, abs=0)
        assert law.norm == pytest.approx((4 / 3) ** 0.25 / gamma(0.25),
                                         rel=1e-15, abs=0)

    def test_moments_quadrature(self, law):
        for k in (2, 4, 6):
            mq, _ = integrate.quad(lambda s: s**k * law.pdf(s), -12, 12,
                                   epsabs=1e-13)
            assert law.moment(k) == pytest.approx(mq, abs=1e-8)

    def test_cdf_properties(self, law):
        assert law.cdf(0.0) == 0.5
        s = np.linspace(-10, 10, 200_001)
        F = law.cdf(s)
        assert np.all(np.diff(F) >= 0)
        np.testing.assert_allclose(law.cdf(-s) + F, 1.0, rtol=0, atol=1e-15)

    def test_cdf_matches_incomplete_gamma(self, law):
        # F(s) = (1 + sign(s) P(1/4, s^4/12)) / 2, with P the regularized
        # lower incomplete Gamma function; the rule stops at |s| = 8
        s = np.linspace(-10, 10, 200_001)
        want = 0.5 * (1 + np.sign(s) * gammainc(0.25, s**4 / 12))
        np.testing.assert_allclose(law.cdf(s), want, rtol=0, atol=1e-15)
        assert law.cdf(np.inf) == law.cdf(8.0)
        assert law.cdf(-np.inf) == law.cdf(-8.0)
        assert np.isnan(law.cdf(np.nan))

    @pytest.mark.parametrize("count", [0, 1, 10**5])
    def test_sample_count_and_seed(self, law, count):
        x = law.sample(count, np.random.default_rng(5))
        assert x.shape == (count,) and x.dtype == float
        np.testing.assert_array_equal(
            x, law.sample(count, np.random.default_rng(5)))

    def test_sampling_matches_moments(self, law):
        x = law.sample(10**5, np.random.default_rng(0))
        assert np.mean(x**2) == pytest.approx(law.moment(2), abs=0.02)
        assert np.mean(x**4) == pytest.approx(3.0, abs=0.1)


class TestKsDistance:
    def test_single_sample_at_zero(self, law):
        assert ks_distance([0.0], [1.0], law) == pytest.approx(0.5, abs=1e-14)

    def test_exact_samples_small(self, law):
        x = law.sample(10**5, np.random.default_rng(42))
        d = ks_distance(x, np.ones(len(x)), law)
        assert d <= 1.63 / math.sqrt(10**5)

    def test_kolmogorov_bound_100_seeds(self, law):
        crit = kolmogorov_critical(10**4, 0.01)
        fails = sum(
            ks_distance(law.sample(10**4, np.random.default_rng(seed)),
                        np.ones(10**4), law) > crit
            for seed in range(100))
        # each seed fails with probability 1%; 6 allows ~5 sigma slack
        assert fails <= 6

    def test_symmetric_two_point(self, law):
        # P(+-a) = 1/2 each: empirical cdf steps at -a and a
        a = 1.0
        d = ks_distance([-a, a], [0.5, 0.5], law)
        assert d == pytest.approx(0.5 - law.cdf(-a), abs=1e-12)

    def test_zero_weights_rejected(self, law):
        with pytest.raises(LimitLawError):
            ks_distance([1.0, 2.0], [0.0, 0.0], law)
        with pytest.raises(LimitLawError):
            ks_distance([], [], law)


class TestVerifyLln:
    def test_three_point_enumeration(self):
        m = TiltedModel(rho=measure.three_point(p=0.25), g=quadratic(), n=2000)
        b = enumerate_exact(m)
        r = verify_lln(m, b, tol=0.01)
        assert r.passed
        assert abs(r.moment_table["mean_y"] - 0.5) < 0.01
        assert r.cramer_flag == "no"

    def test_exact_law_has_no_sample_size(self):
        # an enumeration is the law itself: no ESS, no std errors, and the
        # full mode drops no mass
        m = TiltedModel(rho=measure.three_point(p=0.25), g=quadratic(), n=50)
        r = verify_lln(m, enumerate_exact(m), tol=0.05)
        assert r.details == {"exact": True, "truncated_mass_bound": 0.0}
        assert set(r.moment_table) == {"mean_x", "mean_y", "target_y"}

    def test_recorded_ess_gives_std_errors(self):
        m = TiltedModel(rho=measure.gaussian(), g=quadratic(), n=16)
        b = sample_importance(m, 4000, np.random.default_rng(1))
        ess = b.diagnostics["effective_sample_size"]
        r = verify_lln(m, b, tol=1.0)
        assert r.details == {"effective_sample_size": ess}
        p = b.normalized_weight
        x = b.S / m.n
        mean_x = float(np.sum(p * x))
        assert r.moment_table["se_x"] == pytest.approx(
            math.sqrt(np.sum(p * (x - mean_x) ** 2) / ess), rel=1e-12)
        # the same weights with the sampler's record dropped: nothing to
        # report a sample size from
        bare = EmpiricalBatch(S=b.S, T=b.T, weight=b.weight,
                              method="importance", n=m.n)
        r = verify_lln(m, bare, tol=1.0)
        assert r.details == {}
        assert "se_x" not in r.moment_table and "se_y" not in r.moment_table


class TestVerifyFluctuations:
    def test_three_point_ladder(self):
        prev = 1.0
        for n in (100, 1000):
            m = TiltedModel(rho=measure.three_point(p=0.25), g=quadratic(), n=n)
            b = enumerate_exact(m, collapse="S")
            r = verify_fluctuations(m, b, tol_ks=0.05)
            assert r.passed
            assert r.ks_distance < prev
            assert "hypothesis_caveat" in r.details  # lattice measure
            assert r.details["exact"] is True
            assert r.details["truncated_mass_bound"] == \
                b.diagnostics["truncated_mass_bound"]
            assert "effective_sample_size" not in r.details
            prev = r.ks_distance

    def test_universality_across_g(self):
        # m4 = 1 with the matching rescaling constant behaves like m4 = 0
        n = 1000
        rho = measure.three_point(p=0.25)
        ks = {}
        for g in (quadratic(), quartic(1.0)):
            m = TiltedModel(rho=rho, g=g, n=n)
            r = verify_fluctuations(m, enumerate_exact(m, collapse="S"), 0.05)
            ks[g.kind] = r.ks_distance
        assert abs(ks["quadratic"] - ks["quartic"]) < 0.02

    def test_moment_table_contents(self):
        m = TiltedModel(rho=measure.three_point(p=0.25), g=quadratic(), n=500)
        r = verify_fluctuations(m, enumerate_exact(m, collapse="S"), 0.1)
        assert r.moment_table["moment4_limit"] == pytest.approx(3.0, abs=1e-12)
        assert abs(r.moment_table["moment4"] - 3.0) < 0.3
        assert abs(r.moment_table["moment2"] - r.moment_table["moment2_limit"]) < 0.1

    def test_gaussian_flag_yes(self):
        m = TiltedModel(rho=measure.gaussian(), g=quadratic(), n=16)
        b = sample_importance(m, 20000, np.random.default_rng(1))
        r = verify_fluctuations(m, b, tol_ks=1.0)
        assert r.cramer_flag == "yes"
        assert "hypothesis_caveat" not in r.details

    def test_table_flag_inconclusive(self):
        # the triangle f = 1 - |z| has no certified bound, so the report's
        # flag is the one cramer check gives it, with the caveat
        from cwsoc.cramer import check_condition
        tri = measure.Measure1D(density=measure.TableDensity(
            [-1.0, 0.0, 1.0], [0.0, 1.0, 0.0]))
        assert check_condition(tri, 2.0, radius=5.0).verdict == "inconclusive"
        m = TiltedModel(rho=tri, g=quadratic(), n=16)
        b = sample_importance(m, 2000, np.random.default_rng(1))
        r = verify_fluctuations(m, b, tol_ks=1.0)
        assert r.cramer_flag == "inconclusive"
        assert "hypothesis_caveat" in r.details
        assert verify_lln(m, b, tol=1.0).cramer_flag == "inconclusive"
