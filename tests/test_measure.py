import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from cwsoc import measure
from cwsoc.measure import (
    DensityComponent,
    GaussianDensity,
    Measure1D,
    MeasureError,
    TableDensity,
    moments,
    sample,
)


def gauss_hermite_moment(k, npts=80):
    # independent oracle: Gauss-Hermite quadrature of z^k under N(0,1)
    x, w = np.polynomial.hermite_e.hermegauss(npts)
    return float(np.sum(w * x**k) / np.sum(w))


class TestMoments:
    def test_standard_gaussian(self):
        ms = moments(measure.gaussian())
        assert ms.sigma2 == pytest.approx(gauss_hermite_moment(2), abs=1e-10)
        assert ms.mu4 == pytest.approx(gauss_hermite_moment(4), abs=1e-9)

    def test_rademacher_exact(self):
        ms = moments(measure.rademacher())
        assert ms.sigma2 == pytest.approx(1.0, abs=1e-14)
        assert ms.mu4 == pytest.approx(1.0, abs=1e-14)
        assert ms.mass_at_zero == 0.0

    def test_rho_zero(self):
        ms = moments(measure.rho_zero())
        assert ms.sigma2 == pytest.approx(0.25, abs=1e-10)
        assert ms.mass_at_zero == pytest.approx(0.75, abs=0)
        # atom part 1/8 plus Gaussian part 3/8
        assert ms.mu4 == pytest.approx(1.0 / 8 + 3.0 / 8, abs=1e-9)

    def test_three_point_exact(self):
        ms = moments(measure.three_point(p=0.25))
        assert ms.sigma2 == pytest.approx(0.5, abs=1e-14)
        assert ms.mu4 == pytest.approx(0.5, abs=1e-14)

    def test_cauchy_schwarz(self):
        for m in (measure.gaussian(), measure.rho_zero(), measure.three_point()):
            ms = moments(m)
            assert ms.mu4 >= ms.sigma2**2 - 1e-12

    def test_triangle_table(self):
        # f = 1 - |z| on [-1, 1]: sigma^2 = 1/6 and mu4 = 1/15, by quadrature
        tri = TableDensity([-1.0, 0.0, 1.0], [0.0, 1.0, 0.0],
                           support_radius=1.0, domination=(1.01, 0.5))
        ms = moments(Measure1D(density=tri))
        assert ms.sigma2 == pytest.approx(1 / 6, rel=0, abs=1e-14)
        assert ms.mu4 == pytest.approx(1 / 15, rel=0, abs=1e-14)

    def test_degenerate_rejected(self):
        m = Measure1D(atoms=((0.0, 1.0),))
        with pytest.raises(MeasureError):
            moments(m)


class TestValidation:
    def test_asymmetric_atoms_rejected(self):
        m = Measure1D(atoms=((-1.0, 0.25), (1.0, 0.5), (0.0, 0.25)))
        with pytest.raises(MeasureError):
            m.validate()

    def test_missing_mirror_rejected(self):
        m = Measure1D(atoms=((-1.0, 0.3), (2.0, 0.7)))
        with pytest.raises(MeasureError, match="mirror"):
            m.validate()
        with pytest.raises(MeasureError, match="mirror"):
            m.mirror_magnitudes()

    def test_mirror_magnitudes(self):
        assert measure.three_point(p=0.25).mirror_magnitudes() == ((1.0, 0.25),)
        assert measure.rho_zero().mirror_magnitudes() == ((1.0, 1 / 16),)

    def test_mass_deficit_rejected(self):
        m = Measure1D(atoms=((-1.0, 0.25), (1.0, 0.25)))
        with pytest.raises(MeasureError):
            m.validate()

    def test_density_without_mass_rejected(self):
        # atoms of mass 1 leave the density none: the base would be atomic
        # in law but carry a density component
        m = measure.gaussian(mass=1e-13, atoms=((0.0, 1.0),))
        with pytest.raises(MeasureError, match="no mass for the density"):
            m.validate()

    def test_asymmetric_density_rejected(self):
        dens = measure.DensityComponent(
            lambda z: np.exp(-(z - 0.3)**2) / np.sqrt(np.pi), 8.0, (0.6, 0.5))
        with pytest.raises(MeasureError):
            Measure1D(density=dens).validate()


class TestSample:
    def test_single_atom(self):
        m = Measure1D(atoms=((0.0, 1.0),))
        rng = np.random.default_rng(0)
        assert list(sample(m, 5, rng)) == [0, 0, 0, 0, 0]

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

    def test_callable_density_rejection_moments(self):
        # z^2 phi(z) is not Gaussian, so only the rejection sampler can draw
        # it: E z^2 = 3, E z^4 = 15, E z^8 = 945 (normal moments 2 orders up)
        pdf = lambda z: z * z * np.exp(-z * z / 2) / math.sqrt(2 * math.pi)
        m = Measure1D(density=DensityComponent(pdf, 12.0, (0.59, 0.25)))
        m.validate()
        draws = sample(m, 2 * 10**5, np.random.default_rng(4))
        n = len(draws)
        # 5-sigma CLT bands: Var(z^2) = 15 - 9, Var(z^4) = 945 - 225
        assert abs(np.mean(draws**2) - 3.0) < 5 * math.sqrt(6 / n)
        assert abs(np.mean(draws**4) - 15.0) < 5 * math.sqrt(720 / n)


class TestJsonRoundTrip:
    def test_atoms_bit_exact(self):
        atoms = ((-1.0 / 3, 0.1), (0.0, 0.8), (1.0 / 3, 0.1))
        m = Measure1D(atoms=atoms)
        m2 = Measure1D.from_json(m.to_json())
        assert m2.atoms == atoms

    def test_density_round_trip(self):
        m = measure.rho_zero()
        m2 = Measure1D.from_json(m.to_json())
        m2.validate()
        z = np.linspace(-3, 3, 50)
        np.testing.assert_allclose(m2.density.pdf(z), m.density.pdf(z))
        assert m2.density.domination == m.density.domination

    def test_malformed_json(self):
        with pytest.raises(MeasureError):
            Measure1D.from_json("{not json")

    @pytest.mark.parametrize("density, match", [
        ({"kind": "expr", "expr": "np.exp(-z*z/2)"}, "unknown density kind"),
        ({"kind": "opaque"}, "unknown density kind"),
        ({"mass": 1.0}, "unknown density kind"),
        ({"kind": "gaussian", "sigma": "wide"}, "invalid gaussian density"),
        ({"kind": "table", "x": [0.0, 1.0]}, "invalid table density"),
    ])
    def test_bad_density_spec_rejected(self, density, match):
        doc = {"atoms": [], "density": density, "domination": [0.41, 0.5],
               "support_radius": 10.0}
        with pytest.raises(MeasureError, match=match):
            Measure1D.from_json(json.dumps(doc))

    def test_density_needs_domination(self):
        doc = {"atoms": [], "density": {"kind": "gaussian"}}
        with pytest.raises(MeasureError):
            Measure1D.from_json(json.dumps(doc))

    def test_callable_density_has_no_json_form(self):
        dens = DensityComponent(stats.norm.pdf, 10.0, (0.41, 0.5))
        with pytest.raises(MeasureError, match="no JSON form"):
            Measure1D(density=dens).to_json()


_finite = dict(allow_nan=False, allow_infinity=False)


@st.composite
def json_measures(draw):
    """Atom-only, Gaussian and table measures; round-trips need not validate."""
    atoms = draw(st.lists(
        st.tuples(st.floats(-5, 5, **_finite), st.floats(1e-6, 1.0)),
        max_size=4, unique_by=lambda a: a[0]))
    kind = draw(st.sampled_from(["atoms", "gaussian", "table"]))
    R = draw(st.floats(1.0, 20.0))
    dom = (draw(st.floats(0.1, 5.0)), draw(st.floats(0.05, 2.0)))
    density = None
    if kind == "gaussian":
        density = GaussianDensity(draw(st.floats(1e-3, 1.0)),
                                  draw(st.floats(0.1, 5.0)),
                                  support_radius=R, domination=dom)
    elif kind == "table":
        x = sorted(draw(st.lists(st.floats(-R, R, **_finite), min_size=2,
                                 max_size=8, unique=True)))
        y = draw(st.lists(st.floats(0.0, 2.0), min_size=len(x),
                          max_size=len(x)))
        density = TableDensity(x, y, support_radius=R, domination=dom)
    return Measure1D(atoms=tuple(atoms), density=density)


@settings(max_examples=60, deadline=None)
@given(json_measures())
def test_json_round_trip_property(m):
    m2 = Measure1D.from_json(m.to_json())
    assert m2.atoms == m.atoms
    if m.density is None:
        assert m2.density is None
        return
    assert type(m2.density) is type(m.density)
    assert m2.density.domination == m.density.domination
    assert m2.density.support_radius == m.density.support_radius
    R = m.density.support_radius
    z = np.linspace(-1.1 * R, 1.1 * R, 201)
    np.testing.assert_array_equal(m2.density.pdf(z), m.density.pdf(z))
