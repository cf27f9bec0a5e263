"""Symmetric probability measures on the line: atoms plus a density component.

A measure is stored as a finite list of atoms together with an optional
absolutely continuous part.  The density carries its own mass ``a`` (it
integrates to ``a``, not to 1), a support radius ``R`` and a Gaussian
domination pair ``(A, v)`` with ``density(z) <= A * exp(-v z^2)``, which
feeds the rejection sampler envelope and the mass check's tail bound.  The
generic ``DensityComponent`` wraps a pdf callable and is given ``R`` and
``(A, v)``; ``GaussianDensity`` and ``TableDensity``, the kinds a JSON spec
names, derive them from their own parameters.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional, Sequence

import numpy as np

from .quadrature import adaptive_gauss_legendre, gaussian_tail_bound


class MeasureError(ValueError):
    """Raised for invalid or degenerate measure specifications."""


class DensityComponent:
    """Generic density component: a ``pdf`` callable with its domination pair
    and support radius.

    The pdf integrates to the component's mass ``a``, satisfies
    ``pdf(z) <= A exp(-v z^2)`` for ``domination = (A, v)`` and is treated as
    zero outside ``[-support_radius, support_radius]``.  Sampling is by
    rejection from the Gaussian envelope, the tilted moments
    (``tilted_moments``) by adaptive quadrature, and the characteristic
    function (``char_grid``) by the trapezoid rule; ``char_box``, the box
    outside which that function's modulus stays below a level, is
    unbounded.  Subclasses with closed forms override them.  The pdf is
    symmetric (a ``Measure1D`` checks it when built).  A density given by a
    Python callable has no JSON form.
    """

    def __init__(self, pdf: Callable[[np.ndarray], np.ndarray],
                 support_radius: float, domination: tuple[float, float]):
        self.pdf = pdf
        self.support_radius = float(support_radius)
        A, v = domination
        self.domination = (float(A), float(v))

    def sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """``count`` draws from the normalized density."""
        A, v = self.domination
        sigma = 1.0 / math.sqrt(2 * v)
        out = np.empty(count)
        filled = 0
        while filled < count:
            todo = count - filled
            batch = max(64, int(1.5 * todo))
            z = rng.normal(0.0, sigma, size=batch)
            envelope = A * np.exp(-v * z * z)
            accept = rng.random(batch) * envelope < self.pdf(z)
            z = z[accept][:todo]
            out[filled:filled + len(z)] = z
            filled += len(z)
        return out

    def tilted_moments(self, u, v, kmax: int) -> tuple:
        """``(c, m)`` with ``m[p, k] = integral over [-R, R] of z^k exp(u_p z
        + v_p z^2 - c_p) f(z) dz`` for ``k = 0..kmax`` (``R =
        support_radius``), over the 1-D float arrays ``u`` and ``v``.

        The log scale ``c`` is the exponent's maximum on ``[-R, R]``, so the
        integrand never exceeds the pdf and the absolute tolerance 1e-12 of
        the adaptive quadrature, run tilt by tilt over the ``_panels``, is
        one relative to ``e^c``.
        """
        R = self.support_radius
        c = np.abs(u) * R + v * R * R
        # an interior maximum of a concave exponent, at z = -u / (2 v)
        inner = (v < 0) & (np.abs(u) < 2 * np.abs(v) * R)
        c[inner] = np.maximum(c[inner], -u[inner] ** 2 / (4 * v[inner]))
        powers = np.arange(kmax + 1)
        panels = self._panels
        m = np.empty(u.shape + (kmax + 1,))
        for p, (up, vp, cp) in enumerate(zip(u, v, c)):
            def integrand(z):
                w = np.exp(up * z + vp * z * z - cp) * self.pdf(z)
                return w[:, None] * z[:, None] ** powers

            m[p] = sum(adaptive_gauss_legendre(
                integrand, a, b, tol=1e-12 / len(panels), initial_panels=k)
                for a, b, k in panels)
        return c, m

    @property
    def _panels(self) -> tuple:
        """``(a, b, initial_panels)`` of the quadratures whose sum is
        ``tilted_moments``: eight equal panels on ``[-R, R]``."""
        R = self.support_radius
        return ((-R, R, 8),)

    @property
    def tilt_cap(self) -> float:
        """Bound on ``v`` below which ``exp(v z^2)`` stays integrable against
        the density: the exponent of the domination pair, all the envelope
        shows of the tails."""
        return self.domination[1]

    @property
    def tail_bound(self) -> float:
        """Bound on the mass outside ``[-R, R]``: the mass check's slack."""
        A, v = self.domination
        return gaussian_tail_bound(A, v, self.support_radius)

    def validate(self) -> None:
        """Raise MeasureError if the density's own parameters cannot describe
        a density: for the generic one, a domination pair that is not
        positive."""
        A, v = self.domination
        if A <= 0 or v <= 0:
            raise MeasureError("domination pair must be positive")

    def char_box(self, level: float) -> tuple[float, float]:
        """Half-widths ``(s_max, t_max)`` of the quadrant box outside which
        the modulus of ``char_grid`` is below ``level``.  Nothing bounds the
        transform of a generic pdf, so the box is unbounded."""
        return math.inf, math.inf

    def char_grid(self, s, t) -> np.ndarray:
        """``integral of exp(i(s z + t z^2)) pdf(z) dz`` on the outer product
        of the 1-D arrays ``s`` and ``t``.

        A fixed trapezoid rule on ``[-R, R]`` with an even number of panels,
        folded onto ``[0, R]`` by the symmetry of the pdf: the same nodes and
        weights, with ``2 cos(s z) e^{i t z^2}`` in place of the mirror pair.
        """
        s = np.asarray(s, dtype=float)
        t = np.asarray(t, dtype=float)
        R = self.support_radius
        smax = float(np.max(np.abs(s)))
        tmax = float(np.max(np.abs(t)))
        npts = int(max(2048, 16 * (smax * R + tmax * R * R) / math.pi))
        half = (npts + 1) // 2  # panels on [0, R]: npts rounded up to even
        z = np.linspace(0.0, R, half + 1)
        w = np.full(half + 1, 2 * R / half)
        w[0] = w[-1] = R / half  # the centre node once, the mirror end twice
        cos_s = np.outer(s, z)
        np.cos(cos_s, out=cos_s)
        cos_s *= self.pdf(z) * w
        out = np.empty((len(s), len(t)), dtype=complex)
        for j in range(0, len(t), _T_BLOCK):  # bounds the (z, t) phase arrays
            phase = np.outer(z * z, t[j:j + _T_BLOCK])
            out.real[:, j:j + _T_BLOCK] = cos_s @ np.cos(phase)
            out.imag[:, j:j + _T_BLOCK] = cos_s @ np.sin(phase)
        return out


# DensityComponent.char_grid: t values per block of its phase arrays
_T_BLOCK = 256
# Measure1D.__post_init__: grid points on [0, R] for the density's shape checks
_SHAPE_GRID_POINTS = 201

# tilted_moments: a mode within this many s of the window uses the
# truncated-normal recursion about the mode, whose cancellation grows like
# the distance^(2k); farther out, Laplace's continued fraction of this depth
# has converged to double precision
_NEAR_MODE = 4.0
_CF_DEPTH = 60
_LOG_SQRT_2PI = 0.5 * math.log(2 * math.pi)
# GaussianDensity.support_radius in units of sigma; the pinned rate grids
# (bench/reference.json) encode this window
_GAUSS_WINDOW = 10.0
# GaussianDensity.char_box: the largest argument math.exp takes
_EXP_MAX = 709.0


def _half_line_moments(c: np.ndarray, kmax: int) -> np.ndarray:
    """``E[x^k]``, ``k = 0..kmax`` along the last axis, for ``x >= 0`` with
    density proportional to ``exp(-c x - x^2 / 2)``, elementwise over the
    array ``c``: the ratios ``E[x^k] / E[x^{k-1}] = k / (c + E[x^{k+1}] /
    E[x^k])`` of Laplace's continued fraction, evaluated bottom-up."""
    ratios = np.ones(np.shape(c) + (kmax + 1,))
    r = np.zeros(np.shape(c))
    for k in range(max(_CF_DEPTH, kmax), 0, -1):
        r = k / (c + r)
        if k <= kmax:
            ratios[..., k] = r
    return np.cumprod(ratios, axis=-1)


def _shifted_moments(x0: np.ndarray, m: np.ndarray) -> np.ndarray:
    """``E[(x0 + Y)^k]``, ``k = 0..K-1``, from the rows ``m[p, i] =
    E[Y^i]``: the binomial sums ``sum_i C(k, i) x0^(k-i) m_i``, row by row."""
    K = m.shape[1]
    k = np.arange(K)
    binom = np.array([[math.comb(a, b) for b in range(K)] for a in range(K)],
                     dtype=float)  # 0 above the diagonal
    lag = np.maximum(k[:, None] - k[None, :], 0)  # k - i where C(k, i) > 0
    return np.einsum("ki,pki,pi->pk", binom, x0[:, None, None] ** lag, m)


class GaussianDensity(DensityComponent):
    """``mass`` times the centered normal density of scale ``sigma``.

    Overrides sampling, the characteristic function and its box with
    closed forms, and is the one place that knows the tilted moments and
    the law of a block's ``(sum Z, sum Z^2)``.

    Its support radius is ``10 sigma`` and its envelope ``(1.01 mass /
    (sigma sqrt(2 pi)), 1 / (2 sigma^2))``, so ``tilt_cap`` is ``1 / (2
    sigma^2)``.  Truncation rule: only ``tilted_moments`` (hence the
    log-Laplace transform, the rate function, ``Measure1D.moments`` and the
    mass check at its construction) treats the density as zero outside
    ``[-support_radius, support_radius]``; every other method, and the
    Gaussian Metropolis chain on ``(S, Q)``, uses the untruncated normal.
    """

    def __init__(self, mass: float = 1.0, sigma: float = 1.0):
        mass, sigma = float(mass), float(sigma)
        if not (mass > 0 and sigma > 0):
            raise MeasureError("Gaussian density needs mass > 0 and sigma > 0")
        super().__init__(
            lambda z: mass * np.exp(-z * z / (2 * sigma**2)) / (
                sigma * math.sqrt(2 * math.pi)),
            _GAUSS_WINDOW * sigma,
            (1.01 * mass / (sigma * math.sqrt(2 * math.pi)),
             1.0 / (2 * sigma**2)))
        self.mass = mass
        self.sigma = sigma

    def sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        return rng.normal(0.0, self.sigma, size=count)

    def tilted_moments(self, u, v, kmax: int) -> tuple:
        """``DensityComponent.tilted_moments`` in closed form, on the log
        scale of the tilted normal's mass on the window.

        The tilted law is ``N(mu, s^2)`` with ``s^2 = sigma^2 / (1 - 2 v
        sigma^2)`` and ``mu = u s^2``, so each integral is the normal mass
        of the window times a truncated-normal moment.  With the mode within
        ``4 s`` of the window, the moments of ``(z - mu) / s`` on ``[a, b]``
        follow ``M_k = (k-1) M_{k-2} + (a^{k-1} phi(a) - b^{k-1} phi(b)) / P``
        (Johnson, Kotz & Balakrishnan), with ``log P`` from ``log_ndtr`` and
        each boundary term as ``exp(log phi - log P)``.  Farther out that
        recursion cancels, so the moments of the distance to the near end
        come from Laplace's continued fraction for the half line, corrected
        for the far end with ``erfcx``.  Every quantity but the scale is
        O(1), so no tilt in the domain overflows or underflows.
        """
        # imported here so that a purely atomic base never loads scipy.special
        from scipy.special import erfcx, log_ndtr

        q = 1.0 - 2.0 * v * self.sigma**2
        if not np.all(q > 0):
            raise MeasureError("tilt outside the finiteness domain")
        R = self.support_radius
        s = self.sigma / np.sqrt(q)
        sign = np.where(u < 0, -1.0, 1.0)  # the law is symmetric: reflect u >= 0
        u = np.abs(u)
        mu = u * s * s
        near = mu <= R + _NEAR_MODE * s
        z0 = np.where(near, mu, R)
        powers = np.arange(kmax + 1)
        D = np.empty(u.shape + (kmax + 1,))  # moments of D = (z - z0) / s
        log_scale = np.empty_like(u)
        if near.any():
            un, mn, sn = u[near], mu[near], s[near]
            a, b = (-R - mn) / sn, (R - mn) / sn
            lb = log_ndtr(b)
            log_p = lb + np.log1p(-np.exp(log_ndtr(a) - lb))
            # the exponent u z - z^2 / (2 s^2) at its maximum z = mu
            log_scale[near] = 0.5 * un * mn + log_p
            pa = np.exp(-0.5 * a * a - _LOG_SQRT_2PI - log_p)
            pb = np.exp(-0.5 * b * b - _LOG_SQRT_2PI - log_p)
            Dn = np.ones((len(un), kmax + 1))
            for k in range(1, kmax + 1):
                Dn[:, k] = a ** (k - 1) * pa - b ** (k - 1) * pb
                if k >= 2:
                    Dn[:, k] += (k - 1) * Dn[:, k - 2]
            D[near] = Dn
        far = ~near
        if far.any():
            # anchor at z0 = R: x = -D in [0, w] has density
            # proportional to exp(-(x + c)^2 / 2), and c >= _NEAR_MODE
            uf, sf = u[far], s[far]
            c, w = (mu[far] - R) / sf, 2 * R / sf
            ec = erfcx(c / math.sqrt(2))
            # far-end share Q(c + w) / Q(c) of the half-line mass
            g = np.exp(-c * w - 0.5 * w * w) * erfcx(
                (c + w) / math.sqrt(2)) / ec
            # the exponent at z = R plus the log window mass
            log_scale[far] = uf * R - 0.5 * (R / sf) ** 2 + np.log(
                0.5 * ec) + np.log1p(-g)
            near_end, far_end = _half_line_moments(np.stack([c, c + w]), kmax)
            tail = _shifted_moments(w, far_end)
            D[far] = (-1.0) ** powers * (
                near_end - g[:, None] * tail) / (1 - g)[:, None]
        # raw moments of z = z0 + s D, reflected back to the sign of u
        m = sign[:, None] ** powers * _shifted_moments(
            z0, s[:, None] ** powers * D)
        return log_scale + np.log(self.mass * s / self.sigma), m

    def block_sums(self, k: int, size, rng: np.random.Generator) -> tuple:
        """``(sum Z, sum Z^2)`` of ``k`` i.i.d. draws, ``size`` times over.

        Closed form: ``sum Z ~ N(0, k sigma^2)`` and, independently of it,
        ``sum Z^2 - (sum Z)^2 / k ~ sigma^2 chi^2_{k-1}``.
        """
        s = rng.normal(0.0, self.sigma * math.sqrt(k), size=size)
        # 2 Gamma((k-1)/2) is chi^2_{k-1}, and exactly 0 for k = 1
        q = 2.0 * rng.standard_gamma((k - 1) / 2, size=size)
        return s, s * s / k + self.sigma**2 * q

    def char(self, s, t) -> np.ndarray:
        """The characteristic function ``integral of exp(i(s z + t z^2))
        pdf(z) dz`` in closed form, ``mass e^{-s^2 sigma^2 / 2q} / sqrt(q)``,
        ``q = 1 - 2 i t sigma^2``, elementwise over broadcast ``s`` and ``t``.

        The factors in ``t`` alone are formed before broadcasting, so a grid
        costs one complex ``exp`` and two products per cell.
        """
        sigma2 = self.sigma * self.sigma
        q = 1 - 2j * np.asarray(t, dtype=float) * sigma2
        s = np.asarray(s, dtype=float)
        return self.mass / np.sqrt(q) * np.exp(-(s * s) * (sigma2 / (2 * q)))

    def char_grid(self, s, t) -> np.ndarray:
        return self.char(np.asarray(s, dtype=float)[:, None],
                         np.asarray(t, dtype=float)[None, :])

    def char_box(self, level: float) -> tuple[float, float]:
        """``DensityComponent.char_box`` in closed form.

        ``|char| = mass w^{-1/4} e^{-s^2 sigma^2 / 2w}``, ``w = 1 + 4 sigma^4
        t^2``, reaches ``level`` only where ``s^2 sigma^2 / 2w + ln(w) / 4 <=
        L = ln(mass / level)``.  At ``s = 0`` that caps ``w`` at ``e^{4L}``,
        which gives ``t_max``; over ``w >= 1`` the largest ``s^2`` is ``w* /
        (2 sigma^2)`` at ``w* = e^{4L - 1}`` when ``4L >= 1``, else ``2L /
        sigma^2`` at ``w = 1``.  A ``level <= 0``, or one so small that
        ``e^{4L}`` overflows, gives the unbounded box.
        """
        L = math.log(self.mass / level) if level > 0 else math.inf
        if 4 * L > _EXP_MAX:
            return math.inf, math.inf
        L = max(L, 0.0)
        sigma2 = self.sigma * self.sigma
        s2 = (math.exp(4 * L - 1) / (2 * sigma2) if 4 * L >= 1
              else 2 * L / sigma2)
        return math.sqrt(s2), math.sqrt(math.expm1(4 * L)) / (2 * sigma2)


class TableDensity(DensityComponent):
    """Piecewise-linear density through the points ``(x, y)``, zero outside.

    Its support lies in ``[-R, R]``, ``R = max |x|``, exactly, so the mass
    check allows no tail and the tilt takes no cap; the envelope is
    ``(max |y| sqrt(e), 1 / (2 R^2))``.  A table needs two points or more,
    and ``validate`` rejects one whose ``y`` are all 0, by name rather than
    through the envelope derived from them.
    """

    tilt_cap = math.inf
    tail_bound = 0.0

    def __init__(self, x, y):
        xa = np.asarray(x, dtype=float)
        ya = np.asarray(y, dtype=float)
        if xa.ndim != 1 or xa.shape != ya.shape:
            raise MeasureError("table density needs equal-length 1-D x and y")
        if xa.size < 2:
            raise MeasureError(
                "invalid table density: it needs at least two points")
        if not np.all(np.diff(xa) > 0):
            raise MeasureError("table x must be strictly increasing")
        if not np.all(np.isfinite(ya)):
            raise MeasureError("table y must be finite")
        R = float(np.max(np.abs(xa)))
        super().__init__(lambda z: np.interp(z, xa, ya, left=0.0, right=0.0),
                         R, (np.max(np.abs(ya)) * math.sqrt(math.e),
                             0.5 / R / R))
        self.x = xa.tolist()
        self.y = ya.tolist()

    @property
    def _panels(self) -> tuple:
        # the pdf is linear from knot to knot and zero beyond the end ones,
        # so each knot interval is a panel with a smooth integrand
        return tuple((a, b, 1) for a, b in zip(self.x[:-1], self.x[1:]))

    def validate(self) -> None:
        if not any(self.y):
            raise MeasureError(
                "invalid table density: zero mass (every y is 0)")


# JSON density kinds: the one map between a spec's "kind" and its class,
# with the constructor parameters the spec stores
_JSON_KINDS = {"gaussian": (GaussianDensity, ("mass", "sigma")),
               "table": (TableDensity, ("x", "y"))}


def _density_to_spec(d: DensityComponent) -> dict:
    for kind, (cls, params) in _JSON_KINDS.items():
        if type(d) is cls:
            return {"kind": kind, **{p: getattr(d, p) for p in params}}
    raise MeasureError("a density given by a Python callable has no JSON form")


def _density_from_spec(spec) -> DensityComponent:
    kind = spec.get("kind") if isinstance(spec, dict) else None
    if kind not in _JSON_KINDS:
        raise MeasureError(f"unknown density kind {kind!r}; "
                           f"expected one of {sorted(_JSON_KINDS)}")
    cls, params = _JSON_KINDS[kind]
    try:
        return cls(**{p: spec[p] for p in params if p in spec})
    except MeasureError:
        raise
    except (ArithmeticError, TypeError, ValueError) as exc:
        raise MeasureError(f"invalid {kind} density: {exc}") from exc


@dataclass(frozen=True)
class MomentSummary:
    sigma2: float
    mu4: float
    mass_at_zero: float


@dataclass(frozen=True)
class Measure1D:
    """A symmetric probability measure: ``atoms`` as ``(z, mass)`` pairs
    and an optional ``density`` carrying the rest of the mass.

    Only a valid measure can be built: ``__post_init__`` checks the
    structural invariants, raising MeasureError on failure, and keeps the
    moments of one zero-tilt ``tilted_moments`` pass as ``moments``.
    """
    atoms: tuple[tuple[float, float], ...] = ()
    density: Optional[DensityComponent] = None
    moments: MomentSummary = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        locs = [z for z, _ in self.atoms]
        if len(set(locs)) != len(locs):
            raise MeasureError("atom locations must be distinct")
        # the symmetry rule for atoms: every atom z has its mirror -z with
        # the same mass to within 1e-12
        atom_map = dict(self.atoms)
        for z, m in self.atoms:
            if not math.isfinite(z):
                raise MeasureError(f"atom location {z} is not finite")
            if not (0.0 < m <= 1.0):
                raise MeasureError(f"atom mass {m} outside (0, 1]")
            mirror = atom_map.get(-z)
            if mirror is None or abs(mirror - m) > 1e-12:
                raise MeasureError(
                    f"atom at {z} lacks a mirror atom of equal mass")
        a = 1.0 - self.discrete_mass
        if self.density is None:
            if abs(a) > 1e-12:
                raise MeasureError(f"atom masses sum to {self.discrete_mass}, not 1")
        else:
            if a <= 0:
                raise MeasureError(
                    f"atom masses sum to {self.discrete_mass}, leaving no "
                    "mass for the density")
            self.density.validate()
            A, v = self.density.domination
            R = self.density.support_radius
            grid = np.linspace(0.0, R, _SHAPE_GRID_POINTS)
            fp = self.density.pdf(grid)
            fm = self.density.pdf(-grid)
            # each check is written so that a NaN fails it
            if not np.all(fp >= -1e-12):
                raise MeasureError("density takes negative values")
            if not np.max(np.abs(fp - fm)) <= 1e-10:
                raise MeasureError("density is not symmetric on the test grid")
            if not np.all(fp <= A * np.exp(-v * grid**2) + 1e-10):
                raise MeasureError("density exceeds its Gaussian envelope")
        c, m = self.tilted_moments(np.zeros(1), np.zeros(1), 4)
        m = m[0] * math.exp(c[0])
        if self.density is not None:
            mass = float(m[0]) - self.discrete_mass
            if not abs(mass - a) <= 1e-9 + 2 * self.density.tail_bound:
                raise MeasureError(
                    f"density mass {mass:.3e} inconsistent with 1 - b = {a:.3e}"
                )
        if not m[2] > 0:
            raise MeasureError("degenerate measure: variance is zero")
        object.__setattr__(self, "moments", MomentSummary(
            sigma2=float(m[2]), mu4=float(m[4]),
            mass_at_zero=self.mass_at_zero))

    @property
    def discrete_mass(self) -> float:
        return sum(m for _, m in self.atoms)

    @property
    def ac_mass(self) -> float:
        """Mass of the density component: exactly 0 without one, so
        ``ac_mass <= 0`` is the test for a purely atomic base."""
        if self.density is None:
            return 0.0
        return 1.0 - self.discrete_mass

    @property
    def mass_at_zero(self) -> float:
        return sum(m for z, m in self.atoms if z == 0.0)

    @cached_property
    def _atom_arrays(self) -> np.ndarray:  # (2, A): locations, masses
        return np.array(self.atoms, dtype=float).reshape(-1, 2).T

    def mirror_magnitudes(self) -> tuple[tuple[float, float], ...]:
        """``(z, mass)`` for each positive atom location ``z``, ascending;
        its mirror ``-z`` carries the same mass."""
        return tuple(sorted((z, m) for z, m in self.atoms if z > 0))

    def tilted_moments(self, u, v, kmax: int) -> tuple:
        """``(c, m)`` with ``m[p, k] = E[z^k exp(u_p z + v_p z^2 - c_p)]``,
        ``k = 0..kmax``, over the 1-D float arrays ``u`` and ``v`` (every
        tilt in the domain).  The atoms are summed exactly on the log scale
        of their largest exponent, the density returns its part on a scale
        of its own, and ``c`` is the larger of the two, so neither overflows.
        """
        z, mass = self._atom_arrays
        expo = np.outer(u, z) + np.outer(v, z * z)
        c = expo.max(axis=1, initial=-np.inf)
        if self.density is not None:
            cd, md = self.density.tilted_moments(u, v, kmax)
            c = np.maximum(c, cd)
        c = np.where(np.isfinite(c), c, 0.0)
        m = (mass * np.exp(expo - c[:, None])) @ (
            z[:, None] ** np.arange(kmax + 1))
        if self.density is not None:
            m += md * np.exp(cd - c)[:, None]
        return c, m

    def validate(self) -> MomentSummary:
        """``moments``: the measure was validated when it was built."""
        return self.moments

    def to_json(self) -> str:
        doc: dict = {"atoms": [[z, m] for z, m in self.atoms]}
        if self.density is not None:
            doc["density"] = _density_to_spec(self.density)
        return json.dumps(doc)

    @staticmethod
    def from_json(text: str) -> "Measure1D":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise MeasureError(f"malformed measure JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise MeasureError("a measure spec must be a JSON object")
        try:
            atoms = tuple((float(z), float(m)) for z, m in doc.get("atoms", []))
        except (TypeError, ValueError) as exc:
            raise MeasureError(f"atoms must be [z, mass] pairs: {exc}") from exc
        density = None
        if "density" in doc:
            density = _density_from_spec(doc["density"])
        return Measure1D(atoms=atoms, density=density)


# ---------------------------------------------------------------------------
# canonical measures

def gaussian(sigma: float = 1.0, mass: float = 1.0,
             atoms: Sequence[tuple[float, float]] = ()) -> Measure1D:
    return Measure1D(atoms=tuple(atoms), density=GaussianDensity(mass, sigma))


def rademacher() -> Measure1D:
    return Measure1D(atoms=((-1.0, 0.5), (1.0, 0.5)))


def three_point(p: float = 0.25) -> Measure1D:
    """Atoms at -1 and +1 with mass p each, rest at 0."""
    return Measure1D(atoms=((-1.0, p), (0.0, 1.0 - 2 * p), (1.0, p)))


def rho_zero() -> Measure1D:
    """1/16 at -1 and +1, 3/4 at 0, plus a Gaussian component of mass 1/8."""
    return gaussian(
        sigma=1.0, mass=0.125,
        atoms=((-1.0, 1.0 / 16), (0.0, 0.75), (1.0, 1.0 / 16)))


# ---------------------------------------------------------------------------
# operations

def moments(m: Measure1D) -> MomentSummary:
    """The moments ``m`` keeps from its construction."""
    return m.moments


def sample(m: Measure1D, count: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` i.i.d. draws: inverse CDF over atoms, the density's sampler
    for the rest."""
    if count < 1:
        raise ValueError("count must be >= 1")
    if not m.atoms:
        return m.density.sample(count, rng)
    u = rng.random(count)
    z, mass = m._atom_arrays
    cum = np.cumsum(mass)
    out = z[np.minimum(np.searchsorted(cum, u, side="right"), len(z) - 1)]
    if m.density is not None:
        ac = u >= cum[-1]
        n_ac = int(np.count_nonzero(ac))
        if n_ac:
            out[ac] = m.density.sample(n_ac, rng)
    return out
