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
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.special import comb, erfcx, log_ndtr

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
    function (``char_grid``) by the trapezoid rule; subclasses with closed
    forms override them.  The pdf is symmetric (``Measure1D.validate``
    checks it).  A density given by a Python callable has no JSON form.
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

    def tilted_moments(self, u, v, shift, kmax: int) -> np.ndarray:
        """``integral over [-R, R] of z^k exp(u z + v z^2 - shift) f(z) dz``
        for ``k = 0..kmax`` (``R = support_radius``), by adaptive quadrature
        to 1e-12, tilt by tilt.  The tolerance is absolute, so ``shift``
        must be near the exponent's maximum on ``[-R, R]``, as ``LogLaplace``
        passes it.

        Elementwise over the broadcast 1-D arrays ``u``, ``v`` and ``shift``:
        row ``p`` of the ``(P, kmax + 1)`` result belongs to the ``p``-th
        tilt; scalar inputs give one row as a 1-D array.
        """
        scalar = all(np.ndim(a) == 0 for a in (u, v, shift))
        u, v, shift = np.broadcast_arrays(*np.atleast_1d(u, v, shift))
        R = self.support_radius
        powers = np.arange(kmax + 1)
        out = np.empty(u.shape + (kmax + 1,))
        for p, (up, vp, cp) in enumerate(zip(u, v, shift)):
            def integrand(z):
                w = np.exp(up * z + vp * z * z - cp) * self.pdf(z)
                return w[:, None] * z[:, None] ** powers

            out[p] = adaptive_gauss_legendre(
                integrand, -R, R, tol=1e-12, initial_panels=8)
        return out[0] if scalar else out

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
# Measure1D.validate: grid points on [0, R] for the density's shape checks
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
    k = np.arange(m.shape[1])
    binom = comb(k[:, None], k[None, :])  # 0 above the diagonal
    lag = np.maximum(k[:, None] - k[None, :], 0)  # k - i where C(k, i) > 0
    return np.einsum("ki,pki,pi->pk", binom, x0[:, None, None] ** lag, m)


class GaussianDensity(DensityComponent):
    """``mass`` times the centered normal density of scale ``sigma``.

    Overrides sampling and the characteristic function with closed forms,
    and is the one place that knows the tilted moments, the n-fold law, the
    law of a block's ``(sum Z, sum Z^2)`` and the tilted coordinate law.

    Its support radius is ``10 sigma`` and its envelope ``(1.01 mass /
    (sigma sqrt(2 pi)), 1 / (2 sigma^2))``, so ``tilt_cap`` is ``1 / (2
    sigma^2)``.  Truncation rule: only ``tilted_moments`` (hence the
    log-Laplace transform, the rate function, ``moments`` and the mass check
    of ``Measure1D.validate``) treats the density as zero outside
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

    def tilted_moments(self, u, v, shift, kmax: int) -> np.ndarray:
        """``DensityComponent.tilted_moments`` in closed form.

        The tilted law is ``N(mu, s^2)`` with ``s^2 = sigma^2 / (1 - 2 v
        sigma^2)`` and ``mu = u s^2``, so each integral is the normal mass
        of the window times a truncated-normal moment.  With the mode within
        ``4 s`` of the window, the moments of ``(z - mu) / s`` on ``[a, b]``
        follow ``M_k = (k-1) M_{k-2} + (a^{k-1} phi(a) - b^{k-1} phi(b)) / P``
        (Johnson, Kotz & Balakrishnan), with ``log P`` from ``log_ndtr`` and
        each boundary term as ``exp(log phi - log P)``.  Farther out that
        recursion cancels, so the moments of the distance to the near end
        come from Laplace's continued fraction for the half line, corrected
        for the far end with ``erfcx``.  Every quantity before the final
        scale is O(1), so no tilt in the domain overflows or underflows.
        """
        scalar = all(np.ndim(a) == 0 for a in (u, v, shift))
        u, v, shift = np.broadcast_arrays(
            *(np.atleast_1d(np.asarray(a, dtype=float)) for a in (u, v, shift)))
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
        out = sign[:, None] ** powers * _shifted_moments(
            z0, s[:, None] ** powers * D)
        out *= (self.mass * s / self.sigma * np.exp(log_scale - shift))[:, None]
        return out[0] if scalar else out

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

    def nfold_pdf(self, n: int) -> Callable[[np.ndarray], np.ndarray]:
        """Density of the sum of ``n`` draws from the normalized density."""
        sigma2 = self.sigma**2 * n
        return lambda s: np.exp(-s * s / (2 * sigma2)) / math.sqrt(
            2 * math.pi * sigma2)

    def tilted_coordinate_law(self, theta) -> tuple:
        """``(mean, std)`` of the normalized density tilted by
        ``exp(t1 z + t2 z^2)``, ``theta = (t1, t2)``: a normal law."""
        t1, t2 = float(theta[0]), float(theta[1])
        prec = 1.0 / self.sigma**2 - 2 * t2
        if prec <= 0:
            raise MeasureError("tilt outside the finiteness domain")
        var = 1.0 / prec
        return t1 * var, math.sqrt(var)


class TableDensity(DensityComponent):
    """Piecewise-linear density through the points ``(x, y)``, zero outside.

    Its support lies in ``[-R, R]``, ``R = max |x|``, exactly, so the mass
    check allows no tail and the tilt takes no cap; the envelope is
    ``(max |y| sqrt(e), 1 / (2 R^2))``.
    """

    tilt_cap = math.inf
    tail_bound = 0.0

    def __init__(self, x, y):
        xa = np.asarray(x, dtype=float)
        ya = np.asarray(y, dtype=float)
        if xa.ndim != 1 or xa.shape != ya.shape:
            raise MeasureError("table density needs equal-length 1-D x and y")
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
    atoms: tuple[tuple[float, float], ...] = ()
    density: Optional[DensityComponent] = None

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

    def mirror_magnitudes(self) -> tuple[tuple[float, float], ...]:
        """``(z, mass)`` for each positive atom location ``z``, ascending.

        The symmetry rule for atoms: every atom ``z`` has its mirror ``-z``
        with the same mass to within 1e-12; raise MeasureError otherwise.
        The mass returned is that of ``+z``.
        """
        atom_map = dict(self.atoms)
        for z, m in self.atoms:
            mirror = atom_map.get(-z)
            if mirror is None or abs(mirror - m) > 1e-12:
                raise MeasureError(
                    f"atom at {z} lacks a mirror atom of equal mass")
        return tuple(sorted((z, m) for z, m in self.atoms if z > 0))

    def validate(self) -> None:
        """Check the structural invariants; raise MeasureError on failure."""
        locs = [z for z, _ in self.atoms]
        if len(set(locs)) != len(locs):
            raise MeasureError("atom locations must be distinct")
        for z, m in self.atoms:
            if not (0.0 < m <= 1.0):
                raise MeasureError(f"atom mass {m} outside (0, 1]")
        self.mirror_magnitudes()
        a = 1.0 - self.discrete_mass
        if self.density is None:
            if abs(a) > 1e-12:
                raise MeasureError(f"atom masses sum to {self.discrete_mass}, not 1")
        else:
            if a <= 0:
                raise MeasureError(
                    f"atom masses sum to {self.discrete_mass}, leaving no "
                    "mass for the density")
            A, v = self.density.domination
            if A <= 0 or v <= 0:
                raise MeasureError("domination pair must be positive")
            R = self.density.support_radius
            grid = np.linspace(0.0, R, _SHAPE_GRID_POINTS)
            fp = self.density.pdf(grid)
            fm = self.density.pdf(-grid)
            if np.any(fp < -1e-12):
                raise MeasureError("density takes negative values")
            if np.max(np.abs(fp - fm)) > 1e-10:
                raise MeasureError("density is not symmetric on the test grid")
            if np.any(fp > A * np.exp(-v * grid**2) + 1e-10):
                raise MeasureError("density exceeds its Gaussian envelope")
            mass = float(self.density.tilted_moments(0, 0, 0, 0)[0])
            if abs(mass - a) > 1e-9 + 2 * self.density.tail_bound:
                raise MeasureError(
                    f"density mass {mass:.3e} inconsistent with 1 - b = {a:.3e}"
                )
        moments(self, _validated=True)  # raises on zero variance

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

def moments(m: Measure1D, _validated: bool = False) -> MomentSummary:
    """Second and fourth moments: exact atom sums plus the density's
    ``tilted_moments`` at zero tilt."""
    if not _validated:
        m.validate()
    s2 = sum(mass * z * z for z, mass in m.atoms)
    m4 = sum(mass * z**4 for z, mass in m.atoms)
    if m.density is not None:
        dm = m.density.tilted_moments(0.0, 0.0, 0.0, 4)
        s2 += float(dm[2])
        m4 += float(dm[4])
    if s2 <= 0:
        raise MeasureError("degenerate measure: variance is zero")
    return MomentSummary(sigma2=s2, mu4=m4, mass_at_zero=m.mass_at_zero)


def sample(m: Measure1D, count: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` i.i.d. draws: inverse CDF over atoms, the density's sampler
    for the rest."""
    if count < 1:
        raise ValueError("count must be >= 1")
    if not m.atoms:
        if m.density is None:
            raise MeasureError("empty measure")
        return m.density.sample(count, rng)
    u = rng.random(count)
    out = np.empty(count)
    locs = np.array([z for z, _ in m.atoms])
    cum = np.cumsum([mass for _, mass in m.atoms])
    discrete = u < cum[-1]
    idx = np.searchsorted(cum, u[discrete], side="right")
    out[discrete] = locs[np.minimum(idx, len(locs) - 1)]
    n_ac = int(np.sum(~discrete))
    if n_ac:
        if m.density is None:
            raise MeasureError("no density component but ac mass requested")
        out[~discrete] = m.density.sample(n_ac, rng)
    return out
