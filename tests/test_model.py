import math

import numpy as np
import pytest

from cwsoc import measure, model
from cwsoc.model import (
    InteractionError,
    ModelError,
    TiltedModel,
    char_integral,
    enumerate_exact,
    quadratic,
    quartic,
    rescaled_statistic,
    sample_importance,
    sample_metropolis,
    varadhan_decay,
)


@pytest.fixture(scope="module")
def rad2():
    return TiltedModel(rho=measure.rademacher(), g=quadratic(), n=2)


@pytest.fixture(scope="module")
def tp100():
    return TiltedModel(rho=measure.three_point(p=0.25), g=quadratic(), n=100)


class TestInteraction:
    def test_quadratic(self):
        g = quadratic()
        assert g.g(0.5) == 0.125
        assert g.m4 == 0.0
        g.validate()

    def test_quartic(self):
        g = quartic(1.0)
        assert g.g(0.5) == pytest.approx(0.125 - 0.5**4 / 12, abs=1e-15)
        assert g.F(0.2, 0.8) == pytest.approx(g.g(0.2 / math.sqrt(0.8)), abs=1e-15)

    def test_star_functional(self):
        g = quartic(1.0, variant="star")
        assert g.F(0.2, 0.8) == pytest.approx(g.g(0.2) / 0.8, abs=1e-15)

    def test_custom_validation_rejects_bad_curvature(self):
        with pytest.raises(InteractionError):
            model.custom(lambda u: u * u, m4=0.0)  # exceeds u^2/2

    def test_custom_validation_rejects_wrong_m4(self):
        with pytest.raises(InteractionError):
            model.custom(lambda u: u * u / 2 - u**4 / 12, m4=2.0)

    def test_custom_accepts_consistent(self):
        g = model.custom(lambda u: u * u / 2 - 0.5 * u**4 / 12, m4=0.5)
        assert g.m4 == 0.5

    def test_negative_m4_rejected(self):
        with pytest.raises(InteractionError):
            quartic(-1.0)


class TestEnumeration:
    def test_rademacher_n2_hand_oracle(self, rad2):
        # Z = (e+1)/2 and P(S=0) = 1/(e+1), computed by hand
        b = enumerate_exact(rad2)
        assert math.exp(b.diagnostics["log_Z"]) == pytest.approx(
            (math.e + 1) / 2, abs=1e-12)
        assert b.weight[b.S == 0.0][0] == pytest.approx(
            1 / (math.e + 1), abs=1e-12)

    def test_three_point_n2_classes(self):
        m = TiltedModel(rho=measure.three_point(p=0.25), g=quadratic(), n=2)
        b = enumerate_exact(m)
        # (S,T) classes with T > 0: (+-2,2), (0,2), (+-1,1); 5 classes
        assert b.diagnostics["states"] == 5
        assert np.sum(b.weight) == pytest.approx(1.0, abs=1e-14)

    def test_sign_symmetry_exact(self, tp100):
        b = enumerate_exact(tp100)
        order = np.lexsort((b.T, b.S))
        rev = np.lexsort((b.T, -b.S))
        np.testing.assert_array_equal(b.weight[order], b.weight[rev])

    def test_cauchy_schwarz_all_states(self, tp100):
        b = enumerate_exact(tp100)
        assert np.all(b.S**2 <= tp100.n * b.T + 1e-9)

    def test_weight_bound(self, tp100):
        b = enumerate_exact(tp100)
        lw = tp100.log_weight(b.S, b.T)
        assert np.all(lw <= tp100.n / 2 + 1e-9)

    def test_collapse_marginal_consistent(self, tp100):
        full = enumerate_exact(tp100)
        marg = enumerate_exact(tp100, collapse="S")
        for s, w in zip(marg.S, marg.weight):
            assert w == pytest.approx(full.weight[full.S == s].sum(), abs=1e-13)
        assert marg.diagnostics["log_Z"] == pytest.approx(
            full.diagnostics["log_Z"], abs=1e-12)

    def test_general_path_matches_fast_path(self):
        m = TiltedModel(rho=measure.rademacher(), g=quadratic(), n=6)
        fast = enumerate_exact(m)
        gen = model._enumerate_general(m, 10**6, None)
        assert gen.diagnostics["log_Z"] == pytest.approx(
            fast.diagnostics["log_Z"], abs=1e-12)

    def test_budget_guard(self):
        m = TiltedModel(rho=measure.three_point(), g=quadratic(), n=1000)
        with pytest.raises(ModelError):
            enumerate_exact(m, budget=100)

    def test_density_measure_rejected(self):
        m = TiltedModel(rho=measure.gaussian(), g=quadratic(), n=4)
        with pytest.raises(ModelError):
            enumerate_exact(m)


class TestImportance:
    def test_rademacher_agreement(self, rad2):
        exact = enumerate_exact(rad2)
        b = sample_importance(rad2, 200_000, np.random.default_rng(0))
        ess = b.diagnostics["effective_sample_size"]
        for s in np.unique(exact.S):
            pe = exact.weight[exact.S == s].sum()
            pm = b.weighted_mean(b.S == s)
            se = math.sqrt(pe * (1 - pe) / ess)
            assert abs(pm - pe) < 3 * se + 1e-6

    def test_weights_capped(self, tp100):
        b = sample_importance(tp100, 5000, np.random.default_rng(1))
        # raw cap e^{n/2} enforced inside; stored weights are shifted
        assert np.all(b.weight <= 1.0 + 1e-12)

    def test_ess_warning_flag(self, tp100):
        b = sample_importance(tp100, 500, np.random.default_rng(2))
        assert "ess_warning" in b.diagnostics

    def test_no_draw_with_positive_T(self):
        # P(Z != 0) = 2e-9 per draw: every seeded draw is 0, so T = 0 always
        m = TiltedModel(rho=measure.three_point(p=1e-9), g=quadratic(), n=1)
        with pytest.raises(ModelError, match="T > 0"):
            sample_importance(m, 100, np.random.default_rng(0))


class TestMetropolis:
    def test_rademacher_agreement(self, rad2):
        exact = enumerate_exact(rad2)
        b = sample_metropolis(rad2, 30_000, rng=3, chains=64)
        ess = b.diagnostics["effective_sample_size"]
        for s in np.unique(exact.S):
            pe = exact.weight[exact.S == s].sum()
            pm = np.mean(b.S == s)
            se = math.sqrt(pe * (1 - pe) / ess)
            assert abs(pm - pe) < 3 * se + 1e-6

    def test_all_states_admissible(self, tp100):
        b = sample_metropolis(tp100, 2000, burn_in=2000, thin=100, rng=4,
                              chains=32)
        assert np.all(b.T > 0)
        assert np.all(b.S**2 <= tp100.n * b.T + 1e-9)

    def test_diagnostics_present(self, rad2):
        b = sample_metropolis(rad2, 1000, rng=5)
        d = b.diagnostics
        assert 0 < d["acceptance_rate"] < 1
        assert d["integrated_autocorrelation_time"] >= 1.0
        assert d["effective_sample_size"] > 0

    def test_gaussian_lln_means(self):
        m = TiltedModel(rho=measure.gaussian(), g=quadratic(), n=256)
        b = sample_metropolis(m, 4096, burn_in=40 * 256, thin=256, rng=6,
                              chains=256)
        ess = b.diagnostics["effective_sample_size"]
        se_x = np.std(b.S / m.n) / math.sqrt(ess)
        assert abs(np.mean(b.S) / m.n) < 3 * se_x
        se_y = np.std(b.T / m.n) / math.sqrt(ess)
        assert abs(np.mean(b.T) / m.n - 1.0) < max(3 * se_y, 0.05)


class TestDerivedStatistics:
    def test_char_integral_at_zero(self, tp100):
        b = enumerate_exact(tp100)
        assert char_integral(tp100, 0.0, b) == pytest.approx(1.0, abs=1e-14)

    def test_char_integral_real_by_symmetry(self, tp100):
        b = enumerate_exact(tp100)
        v = char_integral(tp100, 1.3, b)
        assert abs(v.imag) < 1e-12
        assert abs(v) <= 1.0

    def test_mismatched_n_rejected(self, tp100, rad2):
        b = enumerate_exact(rad2)
        with pytest.raises(ModelError):
            char_integral(tp100, 0.5, b)

    def test_rescaled_statistic_gaussian_constant(self):
        # mu4 = 3, sigma^2 = 1, quadratic g: constant is 3^{1/4}
        m = TiltedModel(rho=measure.gaussian(), g=quadratic(), n=16)
        b = model.EmpiricalBatch(
            S=np.array([8.0]), T=np.array([16.0]), weight=np.array([1.0]),
            method="importance", n=16)
        vals, _ = rescaled_statistic(m, b)
        assert vals[0] == pytest.approx(3**0.25 * 8.0 / 16**0.75, abs=1e-12)

    def test_rescaled_statistic_quartic_constant(self):
        m = TiltedModel(rho=measure.gaussian(), g=quartic(1.0), n=16)
        b = model.EmpiricalBatch(
            S=np.array([8.0]), T=np.array([16.0]), weight=np.array([1.0]),
            method="importance", n=16)
        vals, _ = rescaled_statistic(m, b)
        assert vals[0] == pytest.approx(4**0.25 * 8.0 / 16**0.75, abs=1e-12)


class TestVaradhanDecay:
    def test_brute_force_n12(self):
        # frozen from a 3^12 direct enumeration of configurations
        got = varadhan_decay(measure.three_point(p=0.25), 12)
        assert got == pytest.approx(-0.06894546845167081, abs=1e-10)

    def test_negative_along_ladder(self):
        vals = [varadhan_decay(measure.three_point(p=0.25), n)
                for n in (50, 100, 200, 400)]
        assert all(v < 0 for v in vals)

    def test_integral_strictly_decays(self):
        # n * value is the log of the integral itself; it must fall steadily
        vals = {n: n * varadhan_decay(measure.three_point(p=0.25), n)
                for n in (50, 100, 200, 400)}
        assert vals[400] < vals[200] < vals[100] < vals[50] < 0
