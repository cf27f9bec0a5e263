import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from cwsoc import measure
from cwsoc.cramer import (_lipschitz, _quadrant, _refine_local,
                          check_condition, mixture_bound)
from cwsoc.limitlaw import _cramer_flag, verify_lln
from cwsoc.model import TiltedModel, enumerate_exact, quadratic


@pytest.fixture(scope="module")
def e_rad():
    return measure.rademacher()


@pytest.fixture(scope="module")
def e_gauss():
    return measure.gaussian()


@pytest.fixture(scope="module")
def e_rho0():
    return measure.rho_zero()


def one_cell(e, s, t):
    """``M(s, t)`` from a one-cell ``char_grid``."""
    return complex(e.char_grid([s], [t])[0, 0])


class TestCharFn:
    """Point values of M, each from one ``char_grid`` cell."""

    def test_total_mass(self, e_rad, e_gauss, e_rho0):
        for e in (e_rad, e_gauss, e_rho0):
            assert one_cell(e, 0.0, 0.0) == pytest.approx(1.0 + 0j, abs=1e-12)

    def test_rademacher_closed_form(self, e_rad):
        # two-atom sum by hand: z^2 is identically 1
        for s, t in [(1.2, 0.7), (3.0, -2.0), (0.0, 5.0)]:
            expect = np.exp(1j * t) * math.cos(s)
            assert one_cell(e_rad, s, t) == pytest.approx(expect, abs=1e-12)

    def test_gaussian_closed_form(self, e_gauss):
        for s, t in [(0.5, 0.3), (3.0, 1.0), (0.0, 2.0), (7.0, -4.0)]:
            q = 1 - 2j * t
            expect = np.exp(-s * s / (2 * q)) / np.sqrt(q)
            assert one_cell(e_gauss, s, t) == pytest.approx(expect, abs=1e-12)

    def test_rho0_at_2pi(self, e_rho0):
        # atoms all have z^2 in {0, 1}; direct-sum oracle plus Gaussian part
        q = 1 - 4j * math.pi
        expect = 0.75 + 0.125 * np.exp(2j * math.pi) + 0.125 / np.sqrt(q)
        got = one_cell(e_rho0, 0.0, 2 * math.pi)
        assert got == pytest.approx(expect, abs=1e-10)
        assert abs(got) < 1.0

    def test_modulus_bounded(self, e_rho0):
        rng = np.random.default_rng(0)
        for _ in range(20):
            s, t = rng.uniform(-20, 20, size=2)
            assert abs(one_cell(e_rho0, s, t)) <= 1.0 + 1e-12

    def test_conjugation_symmetry(self, e_rho0):
        v1 = one_cell(e_rho0, 1.3, -0.8)
        v2 = one_cell(e_rho0, -1.3, 0.8)
        assert v1 == pytest.approx(np.conj(v2), abs=1e-12)

    def test_symmetric_measure_real_on_s_axis(self, e_rho0, e_gauss):
        for s in np.linspace(-5, 5, 11):
            assert abs(one_cell(e_rho0, s, 0.0).imag) < 1e-10
            assert abs(one_cell(e_gauss, s, 0.0).imag) < 1e-10

    def test_grid_matches_pointwise(self, e_rho0):
        s = np.array([0.3, 1.7])
        t = np.array([0.0, 2.5])
        grid = e_rho0.char_grid(s, t)
        want = direct_char(e_rho0, s, t)
        for i, si in enumerate(s):
            for j, tj in enumerate(t):
                assert grid[i, j] == one_cell(e_rho0, si, tj)
                assert grid[i, j] == pytest.approx(want[i, j], abs=1e-14)

    def test_generic_density_path(self):
        # a table density takes the folded trapezoid rule, whose error is
        # O(h^2) with h = 1/1024 here; on the triangle f = 1 - |z| compare
        # to 2 (1 - cos s) / s^2 at t = 0 and to scipy's quad elsewhere
        e = TRIANGLE
        s = np.array([0.5, 1.5, 4.0, 9.0])
        want = 2 * (1 - np.cos(s)) / s**2
        assert np.max(np.abs(e.char_grid(s, [0.0])[:, 0] - want)) <= 1e-6
        assert one_cell(e, 0.0, 0.0) == pytest.approx(1.0, abs=1e-12)
        for s, t in [(1.5, 0.7), (4.0, -2.0)]:
            assert one_cell(e, s, t) == pytest.approx(quad_char(s, t),
                                                      abs=1e-6)


TRIANGLE = measure.Measure1D(
    density=measure.TableDensity([-1, 0, 1], [0, 1, 0]))


def quad_char(s, t):
    """Oracle: the triangle's ``M(s, t)`` by scipy's quad."""
    parts = [integrate.quad(lambda z: (1 - abs(z)) * trig(s * z + t * z * z),
                            -1, 1, points=[0.0], epsabs=1e-14)[0]
             for trig in (math.cos, math.sin)]
    return complex(*parts)


FIVE_ATOM = measure.Measure1D(
    atoms=((-2.0, 0.1), (-1.0, 0.15), (0.0, 0.5), (1.0, 0.15), (2.0, 0.1)))
# irrational atoms with commensurable squares 1 and 2
SQRT2_ATOMS = measure.Measure1D(atoms=(
    (-math.sqrt(2), 0.2), (-1.0, 0.2), (0.0, 0.2), (1.0, 0.2),
    (math.sqrt(2), 0.2)))
# incommensurable squares 1 and sqrt 2
QUARTIC_ROOT_ATOMS = measure.Measure1D(atoms=(
    (-2**0.25, 0.2), (-1.0, 0.2), (0.0, 0.2), (1.0, 0.2), (2**0.25, 0.2)))
QUARTIC_ROOT_NO_ZERO = measure.Measure1D(atoms=(
    (-2**0.25, 0.25), (-1.0, 0.25), (1.0, 0.25), (2**0.25, 0.25)))


def direct_char(m, s, t):
    """Oracle: the complex atom sum over every atom, plus the Gaussian
    closed form, on the outer product of ``s`` and ``t``."""
    S, T = np.asarray(s)[:, None], np.asarray(t)[None, :]
    out = sum(p * np.exp(1j * (S * z + T * z * z)) for z, p in m.atoms)
    if m.density is not None:
        d = m.density
        q = 1 - 2j * T * d.sigma**2
        out = out + d.mass * np.exp(-S * S * d.sigma**2 / (2 * q)) / np.sqrt(q)
    return out


class TestQuadrantGrid:
    """``char_grid`` uses the symmetric form; the oracles do not."""

    @pytest.mark.parametrize("base", [
        measure.rademacher(), measure.three_point(), measure.rho_zero(),
        FIVE_ATOM], ids=["rademacher", "three-point", "rho0", "five-atom"])
    def test_matches_direct_sum(self, base):
        s = np.linspace(-4.5, 4.5, 37)
        t = np.linspace(-5.0, 5.0, 29)
        got = base.char_grid(s, t)
        assert np.max(np.abs(got - direct_char(base, s, t))) <= 1e-14

    @settings(max_examples=40, deadline=None)
    @given(mags=st.lists(st.integers(1, 60), max_size=3, unique=True),
           weights=st.lists(st.floats(0.05, 1.0), min_size=5, max_size=5),
           sigma=st.floats(0.3, 2.0),
           s=st.floats(-8.0, 8.0), t=st.floats(-8.0, 8.0))
    def test_modulus_symmetry_property(self, mags, weights, sigma, s, t):
        # weights: one per magnitude, then the zero atom and the density
        total = 2 * sum(weights[:len(mags)]) + weights[3] + weights[4]
        atoms = [(sign * k / 20, w / total)
                 for k, w in zip(mags, weights) for sign in (-1, 1)]
        atoms.append((0.0, weights[3] / total))
        base = measure.gaussian(sigma=sigma, mass=weights[4] / total,
                                atoms=atoms)
        m = [abs(one_cell(base, *p)) for p in ((s, t), (-s, t), (s, -t))]
        assert m[1] == pytest.approx(m[0], abs=1e-12)
        assert m[2] == pytest.approx(m[0], abs=1e-12)
        grid = base.char_grid(np.array([s, -s]), np.array([t, -t]))
        assert np.abs(grid) == pytest.approx(abs(grid[0, 0]), abs=1e-14)
        assert grid[0, 0] == pytest.approx(
            direct_char(base, [s], [t])[0, 0], abs=1e-12)

    def test_gaussian_sup_estimate_below_circle_sup(self, e_gauss):
        # |M| = exp(-s^2 / (2 q)) q^{-1/4}, q = 1 + 4 t^2, decays along every
        # ray, so the sup over the annulus is the sup on its inner circle
        alpha = 0.5
        th = np.linspace(0, 2 * math.pi, 100_001)
        s, t = alpha * np.cos(th), alpha * np.sin(th)
        q = 1 + 4 * t * t
        exact = float(np.max(np.exp(-s * s / (2 * q)) / q**0.25))
        r = check_condition(e_gauss, alpha)
        assert exact - 1e-4 <= r.sup_estimate <= exact + 1e-9
        assert r.details["grid_cells"] == 1001 * 1001  # the quadrant only

    def test_generic_density_check(self):
        # the triangle: the trapezoid grid of the scan and no radius-uniform
        # bound.  Its |M| is largest on the annulus at (0, alpha), where
        # |M|^2 ~ 1 - t^2 Var(Z^2) falls slowest; sup_estimate finds it up
        # to the trapezoid error
        r = check_condition(TRIANGLE, 0.5, radius=20.0)
        assert r.sup_estimate == pytest.approx(abs(quad_char(0.0, 0.5)),
                                               abs=1e-6)
        assert r.verdict == "inconclusive"
        assert r.sup_bound is None
        assert "mixture" not in r.details

    @pytest.mark.parametrize("radius, step", [(50.0, 1e-300),
                                              (1e300, 0.05)])
    def test_unsizable_axis_is_memory_error(self, radius, step):
        # numpy refuses an axis of 2^60 float64s or more with a ValueError;
        # the grid reports it as too large for memory, like any other
        with pytest.raises(MemoryError, match="grid axis"):
            _quadrant(radius, step)


def gaussian_modulus(d, s, t):
    """Oracle: ``|char|`` of a Gaussian component from its modulus,
    ``mass w^{-1/4} exp(-s^2 sigma^2 / (2 w))``, ``w = 1 + 4 sigma^4 t^2``."""
    w = 1 + 4 * d.sigma**4 * np.asarray(t) ** 2
    s2 = np.asarray(s) ** 2
    return d.mass * w**-0.25 * np.exp(-s2 * d.sigma**2 / (2 * w))


def full_scan_sup(e, alpha, radius, step):
    """Oracle: ``sup_estimate`` from every cell of the quadrant grid in the
    annulus, the grid max refined locally from its argmax."""
    grid = _quadrant(radius, step)
    vals = np.abs(e.char_grid(grid, grid))
    r2 = grid[:, None] ** 2 + grid[None, :] ** 2
    vals = np.where(r2 >= alpha * alpha, vals, 0.0)
    i, j = np.unravel_index(int(np.argmax(vals)), vals.shape)
    best = _refine_local(e, float(grid[i]), float(grid[j]), alpha, step)
    return max(float(vals[i, j]), best)


class TestEnvelopeScan:
    """``char_box`` bounds where ``|char|`` reaches a level, and the scan of
    ``check_condition`` is limited to that box."""

    @pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("mass", [0.05, 0.4, 1.0])
    def test_box_against_brute_force(self, sigma, mass):
        d = measure.GaussianDensity(mass=mass, sigma=sigma)
        h = 0.01 / sigma
        s = np.arange(0.0, 6.0 / sigma, h)
        t = np.arange(0.0, 40.0 / sigma**2, h / sigma)
        mod = np.abs(d.char_grid(s, t))
        assert np.allclose(mod, gaussian_modulus(d, s[:, None], t[None, :]),
                           rtol=1e-12, atol=0.0)
        for frac in (1e-6, 0.05, 0.3, 0.7, 0.9, 0.999):
            level = frac * mass
            s_max, t_max = d.char_box(level)
            outside = (s[:, None] > s_max) | (t[None, :] > t_max)
            assert not np.any(outside & (mod >= level)), frac
            # the box is tight: each half-width is reached on the level set,
            # t_max on the t axis and s_max where w = 1 + 4 sigma^4 t^2 is w*
            assert gaussian_modulus(d, 0.0, t_max) == pytest.approx(
                level, rel=1e-12)
            L = math.log(1 / frac)
            w = math.exp(4 * L - 1) if 4 * L >= 1 else 1.0
            t_star = math.sqrt(w - 1) / (2 * sigma**2)
            assert gaussian_modulus(d, s_max, t_star) == pytest.approx(
                level, rel=1e-12)

    def test_box_limits(self):
        d = measure.GaussianDensity(mass=0.5, sigma=1.5)
        assert d.char_box(0.0) == (math.inf, math.inf)
        assert d.char_box(-0.1) == (math.inf, math.inf)
        assert d.char_box(1e-320) == (math.inf, math.inf)  # e^{4L} overflows
        assert d.char_box(0.5) == (0.0, 0.0)
        assert d.char_box(0.6) == (0.0, 0.0)  # above the mass: nothing
        assert TRIANGLE.density.char_box(0.5) == (math.inf, math.inf)

    @settings(max_examples=40, deadline=None)
    @given(mags=st.lists(st.floats(0.05, 3.0), max_size=3, unique=True),
           weights=st.lists(st.floats(0.05, 1.0), min_size=5, max_size=5),
           sigma=st.floats(0.3, 2.0), alpha=st.floats(0.05, 3.0),
           extent=st.floats(0.5, 8.0), step=st.floats(0.05, 0.3))
    def test_sup_estimate_equals_full_scan(self, mags, weights, sigma, alpha,
                                           extent, step):
        # weights: one per magnitude, then the zero atom and the density
        total = 2 * sum(weights[:len(mags)]) + weights[3] + weights[4]
        atoms = [(sign * z, w / total)
                 for z, w in zip(mags, weights) for sign in (-1, 1)]
        atoms.append((0.0, weights[3] / total))
        e = measure.gaussian(sigma=sigma, mass=weights[4] / total, atoms=atoms)
        radius = alpha + extent
        r = check_condition(e, alpha, radius=radius, grid_step=step)
        want = full_scan_sup(e, alpha, radius, step)
        assert r.sup_estimate == pytest.approx(want, abs=1e-12)
        assert r.details["grid_cells"] == _quadrant(radius, step).size ** 2
        assert r.details["scanned_cells"] <= r.details["grid_cells"]

    @pytest.mark.parametrize("base", [measure.gaussian(), measure.rho_zero()],
                             ids=["gaussian", "rho0"])
    def test_gaussian_scan_is_small(self, base):
        r = check_condition(base, 0.5)
        assert r.details["grid_cells"] == 1001 * 1001
        assert 0 < r.details["scanned_cells"] <= r.details["grid_cells"] / 100

    def test_table_scans_the_full_grid(self):
        r = check_condition(TRIANGLE, 0.5, radius=5.0)
        assert r.details["scanned_cells"] == r.details["grid_cells"]
        assert r.details["grid_cells"] == 101 * 101

    def test_table_base_validated_once(self, monkeypatch):
        # the Lipschitz bound of the scan reads the moments the base kept
        # from its construction: it validates and builds no measure or
        # table again
        table = measure.Measure1D(
            density=measure.TableDensity([-1, 0, 1], [0, 1, 0]))

        def refuse(self, *args):
            raise AssertionError("validated again")

        monkeypatch.setattr(measure.Measure1D, "__post_init__", refuse)
        monkeypatch.setattr(measure.TableDensity, "__init__", refuse)
        check_condition(table, 0.5, radius=5.0)

    def test_lipschitz_closed_form(self):
        # rho0: integral of |z| is 2/16 + (1/8) sqrt(2/pi), of z^2 is 1/4
        e = measure.rho_zero()
        lip = _lipschitz(e)
        assert lip == pytest.approx(
            0.125 + 0.125 * math.sqrt(2 / math.pi) + 0.25, rel=0, abs=1e-12)
        r = check_condition(e, 0.5)
        assert r.details["grid_pad"] == lip * 0.05 * math.sqrt(0.5)

    def test_table_lipschitz_matches_quad(self):
        # atoms at +-1 and 0.75 times the triangle: integral of |z| + z^2
        # by scipy's quad on each side of 0, plus the atoms
        base = measure.Measure1D(
            atoms=((-1.0, 0.125), (1.0, 0.125)),
            density=measure.TableDensity([-1, 0, 1], [0, 0.75, 0]))
        density = sum(integrate.quad(
            lambda z: (abs(z) + z * z) * 0.75 * (1 - abs(z)), a, b,
            epsabs=1e-14, epsrel=1e-14)[0] for a, b in ((-1, 0), (0, 1)))
        want = 2 * 0.125 * 2 + density
        assert _lipschitz(base) == pytest.approx(want, rel=0, abs=1e-13)


class TestMixtureBound:
    def test_formula_rho0(self, e_rho0):
        mb = mixture_bound(e_rho0, 0.5)
        a = 0.125
        assert mb["ac_mass"] == a
        assert mb["bound"] == pytest.approx(
            math.sqrt(a * a * mb["eta"] + 1 - a * a), abs=1e-14)
        assert mb["bound"] < 1.0

    def test_eta_gaussian_inner_circle(self, e_gauss):
        # sup of |psi|^2 over the annulus sits at (alpha, 0): e^{-alpha^2}
        mb = mixture_bound(e_gauss, 0.5)
        assert mb["eta"] == pytest.approx(math.exp(-0.25), abs=5e-3)
        assert mb["eta"] >= math.exp(-0.25)  # certified: pad is one-sided
        assert mb["radius_uniform"]

    def test_atomic_rejected(self, e_rad):
        with pytest.raises(ValueError):
            mixture_bound(e_rad, 0.5)


class TestCheckCondition:
    def test_rademacher_fails(self, e_rad):
        r = check_condition(e_rad, 0.5)
        assert r.verdict == "fail"
        s, t = r.witness
        assert math.hypot(s, t) >= 0.5
        assert abs(direct_char(e_rad, [s], [t])[0, 0]) >= 1 - 1e-9
        # past the first return the witness is the next one
        assert check_condition(e_rad, 7.0).witness == (0.0, 4 * math.pi)

    def test_three_point_fails(self):
        r = check_condition(measure.three_point(p=0.25), 0.5)
        assert r.verdict == "fail"

    def test_gaussian_passes(self, e_gauss):
        r = check_condition(e_gauss, 0.5)
        assert r.verdict == "pass"
        assert r.sup_bound < 1
        assert r.sup_bound >= r.sup_estimate - 1e-12

    def test_rho0_certified_pass(self, e_rho0):
        r = check_condition(e_rho0, 0.5)
        assert r.verdict == "pass"
        mb = r.details["mixture"]
        assert mb["bound"] == pytest.approx(
            math.sqrt(1 - (1 / 64) * (1 - mb["eta"])), abs=1e-14)

    def test_incommensurable_atoms_inconclusive(self):
        # irrational atoms, but their squares 1 and 2 are commensurable, so
        # M returns exactly; no purely atomic base is inconclusive
        r = check_condition(SQRT2_ATOMS, 0.5, radius=10.0, grid_step=0.05)
        assert r.verdict == "fail"
        assert r.witness == (0.0, 2 * math.pi)
        assert abs(r.details["gap"]) <= 1e-12

    @pytest.mark.parametrize("base", [
        measure.rademacher(), measure.three_point(), FIVE_ATOM],
        ids=["rademacher", "three-point", "five-atom"])
    def test_commensurable_squares_return_exactly(self, base):
        # every z^2 is an integer multiple of the smallest: M(0, 2 pi) = 1
        r = check_condition(base, 0.5, radius=10.0)
        assert r.verdict == "fail"
        assert r.witness == (0.0, 2 * math.pi)
        assert r.details["mechanism"] == "almost periodic"
        assert r.details["grid_cells"] == 0
        assert abs(r.details["gap"]) <= 1e-12
        assert r.sup_estimate == pytest.approx(1.0, abs=1e-12)

    def test_incommensurable_squares_fail(self):
        # z^2 in {1, sqrt 2}: no exact return, but |M| comes within any
        # epsilon of 1 (Dirichlet); the near-return search finds one
        r = check_condition(QUARTIC_ROOT_ATOMS, 0.5)
        assert r.verdict == "fail"
        assert r.sup_bound is None
        assert r.details["mechanism"] == "almost periodic"
        assert r.details["grid_cells"] == 0
        gap = r.details["gap"]
        assert 0 < gap <= 1e-6
        s, t = r.witness
        assert math.hypot(s, t) >= 0.5
        m = abs(direct_char(QUARTIC_ROOT_ATOMS, [s], [t])[0, 0])
        assert m == pytest.approx(1 - gap, abs=1e-12)
        assert r.sup_estimate == pytest.approx(m, abs=1e-12)

    def test_atomic_verdict_ignores_radius(self):
        e = QUARTIC_ROOT_NO_ZERO
        r10 = check_condition(e, 0.5, radius=10.0)
        r50 = check_condition(e, 0.5, radius=50.0)
        assert r10.verdict == r50.verdict == "fail"
        assert r10.witness == r50.witness
        assert r10.details == r50.details
        assert r10.details["gap"] <= 1e-6

    def test_atomic_base_with_rounded_mass(self):
        # ten masses of 0.1 sum to 1 - 1.1e-16: still no density component
        atoms = tuple((sign * k**0.25, 0.1)
                      for k in (1, 2, 3, 5, 6) for sign in (-1, 1))
        base = measure.Measure1D(atoms=atoms)
        assert base.ac_mass == 0.0
        r = check_condition(base, 0.5, radius=5.0)
        assert r.verdict == "fail"
        assert r.details["grid_cells"] == 0

    @pytest.mark.parametrize("base", [
        measure.rademacher(), measure.three_point(), measure.gaussian(),
        measure.rho_zero(),
        TRIANGLE],
        ids=["rademacher", "three-point", "gaussian", "rho0", "triangle"])
    def test_report_flag_matches_verdict(self, base):
        # limitlaw's flag and check_condition read one rule
        verdict = check_condition(base, 0.5, radius=5.0).verdict
        flag = _cramer_flag(TiltedModel(rho=base, g=quadratic(), n=12))
        assert flag == {"pass": "yes", "fail": "no",
                        "inconclusive": "inconclusive"}[verdict]

    def test_atomic_base_flag_no(self):
        m = TiltedModel(rho=QUARTIC_ROOT_NO_ZERO, g=quadratic(), n=12)
        r = verify_lln(m, enumerate_exact(m), tol=1.0)
        assert r.cramer_flag == "no"

    def test_bad_annulus_rejected(self, e_gauss):
        with pytest.raises(ValueError):
            check_condition(e_gauss, 0.0)
        with pytest.raises(ValueError):
            check_condition(e_gauss, 2.0, radius=1.0)

    @pytest.mark.parametrize("base", [measure.gaussian(), measure.rademacher()],
                             ids=["gaussian", "atomic"])
    @pytest.mark.parametrize("alpha,radius", [(math.nan, 50.0), (0.5, math.nan)])
    def test_nan_annulus_rejected(self, base, alpha, radius):
        # before the verdict rule: neither an inconclusive report nor a
        # near-return search on a NaN alpha
        with pytest.raises(ValueError, match="0 < alpha < radius"):
            check_condition(base, alpha, radius=radius)
