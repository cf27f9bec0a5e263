"""Symmetric probability measures on the line: atoms plus a density component.

A measure is stored as a finite list of atoms together with an optional
absolutely continuous part of one of two kinds, the two a JSON spec names:
``GaussianDensity``, a multiple of a centered normal, and ``TableDensity``, a
piecewise-linear table.  A density carries its own mass ``a`` (it integrates
to ``a``, not to 1), and each kind implements the whole density interface
from its own parameters: ``support_radius``, ``tilt_cap``, ``abs_moment``
(``integral of |z| f``), ``sample``, ``tilted_moments``, ``char_grid`` and
``char_box``.  Both kinds integrate ``tilted_moments`` by one fixed
Gauss-Legendre rule, ``_rule``, and only cut their support into pieces for
it: the Gaussian as a flat table whose exponent takes the normal's ``-z^2 /
(2 sigma^2)``, two pieces from the exponent's maximum outward, and the
table at its knots, the window and ``z = 0``.  Each kind checks its
parameters exactly when it is built; ``Measure1D`` checks the mass it adds
up to, and owns both transforms of ``(z, z^2)``: ``log_laplace``, on the
domain ``v < tilt_cap``, and ``char_grid``, whose atoms and table nodes
share one mirror-pair sum, ``_mirror_char``.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cache, cached_property
from typing import Optional, Sequence

import numpy as np


class MeasureError(ValueError):
    """Raised for invalid or degenerate measure specifications."""


# _mirror_char: t values per block of its phase arrays
_T_BLOCK = 256

# The fixed rule of both density kinds' tilted_moments, as _rule describes;
# _BLOCK bounds its node arrays and the table's (tilt, interval) pairs
_WINDOW, _PANELS, _GL_NODES, _BLOCK = 46.0, 6, 16, 1024
_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(_GL_NODES)
_TAU = ((np.arange(_PANELS)[:, None] + 0.5 + 0.5 * _NODES) / _PANELS).ravel()
_OMEGA = np.tile(_WEIGHTS / (2 * _PANELS), _PANELS)  # with _TAU, on [0, 1]

_LOG_SQRT_2PI = 0.5 * math.log(2 * math.pi)
# GaussianDensity.support_radius in units of sigma; the pinned rate grids
# (bench/reference.json) encode this window
_GAUSS_WINDOW = 10.0
# GaussianDensity.char_box: the largest argument math.exp takes
_EXP_MAX = 709.0


def _powers(x: np.ndarray, kmax: int, scale=1.0) -> np.ndarray:
    """``scale x^k``, ``k = 0..kmax`` along a new last axis, by products."""
    out = np.empty(np.shape(x) + (kmax + 1,))
    out[..., 0] = scale
    for k in range(1, kmax + 1):
        out[..., k] = out[..., k - 1] * x
    return out


def _mirror_char(z, p, s, t) -> np.ndarray:
    """``sum_j 2 p_j cos(s z_j) e^{i t z_j^2}``, the transform of masses
    ``p_j`` at ``+-z_j``, on the outer product of the 1-D ``s`` and ``t``:
    real cos and sin products, ``_T_BLOCK`` values of ``t`` at a time."""
    cos_s = np.outer(s, z)
    np.cos(cos_s, out=cos_s)
    cos_s *= 2 * p
    out = np.empty((len(cos_s), len(t)), dtype=complex)
    for j in range(0, len(t), _T_BLOCK):
        phase = np.outer(z * z, t[j:j + _T_BLOCK])
        out.real[:, j:j + _T_BLOCK] = cos_s @ np.cos(phase)
        out.imag[:, j:j + _T_BLOCK] = cos_s @ np.sin(phase)
    return out


@cache
def _rule_nodes(kmax: int) -> tuple:
    """The rule's nodes from ``t = 1`` inward, so that its sums add their
    smallest terms first: ``(1, t, t^2)`` by rows, and the weights of ``t^k
    (1 - t)`` and of ``t^{k+1}`` by columns, ``k = 0..kmax``."""
    t = _TAU[::-1]
    tk = _powers(t, kmax + 1, _OMEGA[::-1])
    return (_powers(t, 2).T.copy(),
            np.hstack([tk[:, :-1] * (1 - t)[:, None], tk[:, 1:]]))


def _rule(z0, e, lam, g, v, fa, fb, kmax: int, mirror=False) -> np.ndarray:
    """``m[i, k] = integral of z^k e^{d (g_i + v_i d)} f_i(z) dz`` over the
    piece ``z = z0_i + lam_i t``, ``t`` in ``[0, 1]``, for ``k = 0..kmax``:
    ``d = e_i + lam_i t`` is the offset from the exponent's maximum ``z_c``
    (``g_i`` is the exponent's slope there), and ``f_i`` is linear from
    ``fa_i`` at ``z0_i`` to ``fb_i`` at the piece's other end.  A piece
    with ``mirror_i`` set adds its mirror image about ``z0_i``, ``z = z0_i -
    lam_i t``, from the same sums, so the caller sets it only where the
    image has the same exponent and ``f`` in ``t`` (``e_i = g_i = 0``,
    ``fa_i = fb_i``).  Every
    argument but ``kmax`` is a 1-D array over the pieces or a scalar.

    The one fixed Gauss-Legendre rule of both density kinds: ``_PANELS``
    equal panels of ``_GL_NODES`` nodes each.  On a piece where ``f`` is
    linear, the exponent monotone and within ``K`` (``_WINDOW``) of its
    maximum, it errs by at most 4e-11 of the piece's ``m_0``
    (notes/decisions.md).  The exponent is a quadratic in ``t``, so the sums
    of ``t^k e^{...} f`` take one ``exp`` and one product per block of
    ``_BLOCK`` pieces; powers of ``lam`` make them moments of ``lam t``, and
    Pascal's rule shifts those to moments of ``z``.
    """
    nodes, weights = _rule_nodes(kmax)
    coef = np.stack([e * (g + v * e), lam * (g + 2 * v * e), v * lam * lam], 1)
    sums = np.empty((2 * kmax + 2, len(coef)))
    for b in range(0, len(coef), _BLOCK):
        x = coef[b:b + _BLOCK] @ nodes  # the exponents at the nodes
        sums[:, b:b + _BLOCK] = (np.exp(x, out=x) @ weights).T
    # moments of lam t, and of its mirror image -lam t (twice the even ones,
    # none of the odd ones), shifted to z by Pascal's rule (pass j adds z0
    # m_{k-1} to m_k, k >= j)
    m = _powers(lam, kmax, np.abs(lam)).T * (fa * sums[:kmax + 1]
                                             + fb * sums[kmax + 1:])
    m *= 1 + (-1.0) ** np.arange(kmax + 1)[:, None] * mirror
    for j in range(1, kmax + 1):
        m[j:] += z0 * m[j - 1:-1]
    return m.T


class GaussianDensity:
    """``mass`` times the centered normal density of scale ``sigma``.

    Every method but ``tilted_moments`` is a closed form, and this is the
    one place that knows the law of a block's ``(sum Z, sum Z^2)``.

    Its support radius is ``10 sigma`` and its ``tilt_cap`` is ``1 / (2
    sigma^2)``, where ``exp(v z^2)`` stops being integrable against it.
    Truncation rule: only ``tilted_moments`` (hence the log-Laplace
    transform, the rate function, ``Measure1D.moments`` and the mass check
    at its construction) treats the density as zero outside
    ``[-support_radius, support_radius]``; every other method, ``abs_moment``
    and the Gaussian Metropolis chain on ``(S, Q)`` use the untruncated
    normal.
    """

    def __init__(self, mass: float = 1.0, sigma: float = 1.0):
        mass, sigma = float(mass), float(sigma)
        if not (mass > 0 and sigma > 0):
            raise MeasureError("Gaussian density needs mass > 0 and sigma > 0")
        self.mass = mass
        self.sigma = sigma
        self.support_radius = _GAUSS_WINDOW * sigma
        self.tilt_cap = 1.0 / (2 * sigma**2)
        self.abs_moment = mass * sigma * math.sqrt(2 / math.pi)

    def sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        return rng.normal(0.0, self.sigma, size=count)

    def tilted_moments(self, u, v, kmax: int) -> tuple:
        """``(c, m)`` with ``m[p, k] = integral over [-R, R] of z^k exp(u_p z
        + v_p z^2 - c_p) f(z) dz`` for ``k = 0..kmax`` (``R =
        support_radius``), over the 1-D float arrays ``u`` and ``v``.

        With ``w = v - 1 / (2 sigma^2) < 0`` the tilted density is ``e^{E(z)}``
        times a constant, ``E = u z + w z^2``: a table that is flat on the
        window, integrated by ``_rule``.  ``c`` is ``E``'s maximum on the
        window, at ``z_c``, plus the log of the constant.  On each side of
        ``z_c``, ``E`` falls monotonely, and the piece where ``E >= c - K``
        (``_WINDOW``), within the window, runs from ``z_c`` outward.  The law
        is symmetric: the rule runs on ``|u|``, and the odd moments take the
        sign of ``u``.
        """
        w = v - self.tilt_cap
        if not np.all(w < 0):
            raise MeasureError("tilt outside the finiteness domain")
        R = self.support_radius
        au = np.abs(u)  # the rule runs on |u|
        zc = np.minimum(-0.5 * au / w, R)  # the vertex, or the window's end
        g = np.where(zc < R, 0.0, au + 2 * R * w)  # E'(z_c), 0 or more
        # E - c = -K at the offset ell = 2K / (g + sqrt(g^2 + 4|w|K)) left of
        # z_c, and at the same offset to the right when g = 0; when g > 0,
        # z_c = R leaves no room on the right
        ell = 2 * _WINDOW / (g + np.hypot(g, np.sqrt(-4 * _WINDOW * w)))
        left, right = np.minimum(ell, R + zc), np.minimum(ell, R - zc)
        # the rule runs on every left piece, mirrored about z_c when the right
        # one is as long (then g = 0), and on the other right pieces that are
        # not empty
        rest = np.flatnonzero((right != left) & (right > 0))
        rows = np.concatenate([np.arange(len(u)), rest])
        m = _rule(zc[rows], 0.0, np.concatenate([-left, right[rest]]),
                  g[rows], w[rows], 1.0, 1.0, kmax, (right == left)[rows])
        m[rest] += m[len(u):]
        m[:len(u)][u < 0, 1::2] *= -1  # odd moments take the sign of u
        return 0.5 * zc * (au + g) + (math.log(self.mass / self.sigma)
                                      - _LOG_SQRT_2PI), m[:len(u)]

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
        """``char`` on the outer product of the 1-D arrays ``s`` and ``t``."""
        return self.char(np.asarray(s, dtype=float)[:, None],
                         np.asarray(t, dtype=float)[None, :])

    def char_box(self, level: float) -> tuple[float, float]:
        """Half-widths ``(s_max, t_max)`` of the quadrant box outside which
        the modulus of ``char_grid`` is below ``level``, in closed form.

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


class TableDensity:
    """Piecewise-linear density through the points ``(x, y)``, zero outside.

    Its support lies in ``[-R, R]``, ``R = max |x|``, exactly, so the mass
    check allows no tail and the tilt takes no cap.  The construction checks
    the table exactly, since the density is linear from knot to knot: it
    needs two points or more, no ``y < 0`` and some ``y > 0``, and it must
    equal its mirror ``f(-z)``.  Both are linear between the knots and their
    mirrors, so they are equal everywhere if they are equal, to 1e-10, at
    every knot and neither jumps at an end the other lacks.
    """

    tilt_cap = math.inf

    def __init__(self, x, y):
        xa = np.array(x, dtype=float)
        ya = np.array(y, dtype=float)
        if xa.ndim != 1 or xa.shape != ya.shape:
            raise MeasureError("table density needs equal-length 1-D x and y")
        if xa.size < 2:
            raise MeasureError(
                "invalid table density: it needs at least two points")
        if not np.all(np.isfinite(xa)):
            raise MeasureError("table x must be finite")
        if not np.all(np.diff(xa) > 0):
            raise MeasureError("table x must be strictly increasing")
        if not np.all(np.isfinite(ya)):
            raise MeasureError("table y must be finite")
        if np.any(ya < 0):
            raise MeasureError("density takes negative values")
        if not np.any(ya):
            raise MeasureError(
                "invalid table density: zero mass (every y is 0)")
        self.x, self.y = xa, ya
        gap = np.abs(self.pdf(-xa) - ya)
        if xa[0] != -xa[-1]:
            # ends that are not mirrors: f jumps by y there, its mirror not
            gap = np.append(gap, (ya[0], ya[-1]))
        if not np.max(gap) <= 1e-10:
            raise MeasureError("density is not symmetric at its knots")
        self.support_radius = float(np.max(np.abs(xa)))
        # integral of |z| f: with 0 among the knots, z f(z) is a cubic of
        # one sign on each interval, integrated exactly by Simpson's rule
        z = np.union1d(xa, 0.0)
        f = self.pdf(z)
        a, b, fa, fb = z[:-1], z[1:], f[:-1], f[1:]
        self.abs_moment = float(np.sum(np.abs(
            (b - a) * (a * (2 * fa + fb) + b * (fa + 2 * fb))))) / 6

    def pdf(self, z) -> np.ndarray:
        return np.interp(z, self.x, self.y, left=0.0, right=0.0)

    def sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """``count`` draws from the normalized density, by inverting its
        piecewise-quadratic CDF.

        On a knot interval ``[x_i, x_i + h]`` the density is ``y_i + s t``
        at ``z = x_i + t``, so the mass ``r`` from ``x_i`` to ``z`` is ``y_i
        t + s t^2 / 2``.  Its root ``t = 2 r / (y_i + sqrt(y_i^2 + 2 s r))``
        has no cancellation and holds on flat intervals (``s = 0``) too; the
        square root is ``f(z)``.  An interval of zero mass is drawn only at
        its left end, where ``u`` reaches it, which is a knot of the support.
        """
        x, y = self.x, self.y
        h = np.diff(x)
        mass = 0.5 * h * (y[:-1] + y[1:])
        cdf = np.concatenate(([0.0], np.cumsum(mass)))  # at the knots
        u = rng.random(count) * cdf[-1]
        # the interval with cdf[i] <= u < cdf[i + 1], the last one should u
        # round up to the total
        i = np.searchsorted(cdf[1:-1], u, side="right")
        r = u - cdf[i]
        slope = (y[i + 1] - y[i]) / h[i]
        root = y[i] + np.sqrt(np.maximum(y[i] * y[i] + 2 * slope * r, 0.0))
        t = np.divide(2 * r, root, out=np.zeros(count), where=root > 0)
        return np.clip(x[i] + t, x[i], x[i + 1])

    def tilted_moments(self, u, v, kmax: int) -> tuple:
        """``(c, m)`` with ``m[p, k] = integral of z^k e^{E_p(z) - c_p} f(z)
        dz``, ``E_p(z) = u_p z + v_p z^2``, for ``k = 0..kmax`` and 1-D ``u``,
        ``v``.  ``c_p`` is ``E_p``'s maximum where ``f > 0``, at ``z_c``: the
        point there nearest the vertex if ``v_p < 0``, else ``sign(u_p) R``.

        The knots, the vertex, the roots of ``E = c - K`` (``_WINDOW``) and
        ``z = 0`` cut the support into pieces where ``f`` is linear, ``E``
        monotone and ``z`` of one sign.  Those below ``c - K`` hold at most
        ``e^{-K} e^c integral of f``; ``_rule`` integrates the others, each
        from its end nearer 0, so that every term of Pascal's rule has one
        sign.
        """
        x, y, m = self.x, self.y, np.zeros((len(u), kmax + 1))
        live, n = y[:-1] + y[1:] > 0, len(x) - 1  # intervals where f > 0
        lo, hi = x[:-1][live], x[1:][live]
        with np.errstate(all="ignore"):  # inf cuts clip, NaN sort last
            t = np.where(v < 0, -0.5 * u / v, np.copysign(hi[-1], u))
            j = np.searchsorted(hi[:-1], t)  # j = 0: hi[-1] is never nearer
            after, before = np.clip(t, lo[j], hi[j]), hi[j - 1]
            zc = np.where(np.abs(t - before) < after - t, before, after)
            c, g = zc * (u + v * zc), u + 2 * v * zc
            q = -0.5 * (g + np.copysign(np.sqrt(g * g - 4 * v * _WINDOW), g))
            # offsets from z_c of the roots of v d^2 + g d + K, the vertex
            # and z = 0
            roots = np.stack([q / v, _WINDOW / q, -0.5 * g / v, -zc], 1)
        for s in range(0, len(u) * n, _BLOCK):  # (tilt, interval) pairs
            p, k = np.divmod(np.arange(s, min(s + _BLOCK, len(u) * n)), n)
            a, b = x[k, None] - zc[p, None], x[k + 1, None] - zc[p, None]
            cut = np.sort(np.hstack([a, np.clip(roots[p], a, b), b]))
            mid, ell = 0.5 * (cut[:, 1:] + cut[:, :-1]), np.diff(cut)
            r, col = np.nonzero((ell > 0) & live[k, None] & (
                mid * (g[p, None] + v[p, None] * mid) >= -_WINDOW))
            p, k, a, b = p[r], k[r], a[r, 0], b[r, 0]
            # each piece from its end nearer 0 to its far end: z >= 0 on the
            # piece exactly when its left end's offset is at least -z_c
            ends = cut[r, col + [[0], [1]]]
            near, far = d = np.where(ends[0] >= -zc[p], ends, ends[::-1])
            f = (y[k] * (b - d) + y[k + 1] * (d - a)) / (b - a)
            np.add.at(m, p, _rule(zc[p] + near, near, far - near, g[p], v[p],
                                  *f, kmax))
        return c, m

    def char_grid(self, s, t) -> np.ndarray:
        """``integral of exp(i(s z + t z^2)) pdf(z) dz`` on the outer product
        of the 1-D arrays ``s`` and ``t``.

        A fixed trapezoid rule on ``[-R, R]`` with an even number of panels,
        folded onto ``[0, R]`` by the symmetry of the pdf: its nodes ``z >=
        0`` are mirror pairs of half their weight each (``_mirror_char``).
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
        return _mirror_char(z, self.pdf(z) * w / 2, s, t)

    def char_box(self, level: float) -> tuple[float, float]:
        """Half-widths ``(s_max, t_max)`` of the quadrant box outside which
        the modulus of ``char_grid`` is below ``level``.  No closed form
        bounds a table's transform, so the box is unbounded."""
        return math.inf, math.inf

# The density interface, as the two kinds implement it
DensityComponent = GaussianDensity | TableDensity

# JSON density kinds: the one map between a spec's "kind" and its class,
# with the constructor parameters the spec stores
_JSON_KINDS = {"gaussian": (GaussianDensity, ("mass", "sigma")),
               "table": (TableDensity, ("x", "y"))}
# top-level keys of older specs, which load with them ignored
_RETIRED_KEYS = ("domination", "support_radius", "v0")


def _refuse_unknown_keys(doc: dict, known, where: str) -> None:
    unknown = sorted(set(doc) - set(known))
    if unknown:
        raise MeasureError(f"unknown key {', '.join(map(repr, unknown))} "
                           f"in {where}")


def _density_to_spec(d: DensityComponent) -> dict:
    kind, params = next((kind, params) for kind, (cls, params)
                        in _JSON_KINDS.items() if type(d) is cls)
    return {"kind": kind,
            **{p: np.asarray(getattr(d, p)).tolist() for p in params}}


def _density_from_spec(spec) -> DensityComponent:
    kind = spec.get("kind") if isinstance(spec, dict) else None
    if kind not in _JSON_KINDS:
        raise MeasureError(f"unknown density kind {kind!r}; "
                           f"expected one of {sorted(_JSON_KINDS)}")
    cls, params = _JSON_KINDS[kind]
    _refuse_unknown_keys(spec, ("kind", *params), f"the {kind} density")
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
        elif a <= 0:
            raise MeasureError(
                f"atom masses sum to {self.discrete_mass}, leaving no "
                "mass for the density")
        # moments that overflow are refused below, not warned about
        with np.errstate(over="ignore", invalid="ignore"):
            c, m = self.tilted_moments(np.zeros(1), np.zeros(1), 4)
        m = m[0] * math.exp(c[0])
        if self.density is not None:
            mass = float(m[0]) - self.discrete_mass
            if not abs(mass - a) <= 1e-9:
                raise MeasureError(
                    f"density mass {mass:.3e} inconsistent with 1 - b = {a:.3e}"
                )
        if not (math.isfinite(m[2]) and math.isfinite(m[4])):
            raise MeasureError(f"moments not finite: sigma2 = {m[2]}, "
                               f"mu4 = {m[4]}")
        if not m[2] > 0:
            raise MeasureError("degenerate measure: variance is zero")
        object.__setattr__(self, "moments", MomentSummary(
            sigma2=float(m[2]), mu4=float(m[4])))

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
    def _atom_arrays(self) -> tuple:  # atom locations, masses
        return tuple(np.array(self.atoms, dtype=float).reshape(-1, 2).T)

    def mirror_magnitudes(self) -> tuple[tuple[float, float], ...]:
        """``(z, mass)`` for each positive atom location ``z``, ascending;
        its mirror ``-z`` carries the same mass."""
        return tuple(sorted((z, m) for z, m in self.atoms if z > 0))

    @cached_property
    def _mirror_arrays(self) -> tuple:  # positive atom locations, masses
        return tuple(np.array(self.mirror_magnitudes()).reshape(-1, 2).T)

    def char_grid(self, s, t) -> np.ndarray:
        """``M(s, t) = E exp(i (s z + t z^2))`` on the outer product of ``s``
        and ``t``: the mass at 0 plus the atoms' mirror-pair sum
        (``_mirror_char``), even in ``s``, plus the density's
        ``char_grid``."""
        out = _mirror_char(*self._mirror_arrays, s, t)
        out += self.mass_at_zero
        if self.density is not None:
            out += self.density.char_grid(s, t)
        return out

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

    def log_laplace(self, theta: np.ndarray) -> tuple:
        """``L(theta_p) = ln E exp(u_p z + v_p z^2)`` and the tilted mean and
        covariance of ``(z, z^2)`` for the rows of the ``(P, 2)`` ``theta``.
        Rows outside the domain (``v >= tilt_cap``), or whose tilted mass
        vanishes, get ``L = inf`` and NaN moments."""
        value = np.full(len(theta), math.inf)
        mom = np.full((len(theta), 5), math.nan)
        cap = math.inf if self.density is None else self.density.tilt_cap
        rows = np.flatnonzero(theta[:, 1] < cap)
        if rows.size:
            c, m = self.tilted_moments(theta[rows, 0], theta[rows, 1], 4)
            pos = m[:, 0] > 0
            rows, c, m = rows[pos], c[pos], m[pos]
            value[rows] = c + np.log(m[:, 0])
            mom[rows] = m / m[:, :1]
        mean = mom[:, 1:3]
        # cov[i, j] = E[z^(i+j+2)] - E[z^(i+1)] E[z^(j+1)]
        cov = mom[:, [[2, 3], [3, 4]]] - mean[:, :, None] * mean[:, None, :]
        return value, mean, cov

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
        _refuse_unknown_keys(doc, ("atoms", "density", *_RETIRED_KEYS),
                             "the measure spec")
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
