"""Cramer-condition diagnostics for the pair characteristic function.

The object of study is ``M(s, t) = integral of exp(i s z + i t z^2) drho(z)``
and the condition that its modulus stays away from 1 outside a neighbourhood
of the origin.  Purely atomic measures on a lattice violate the condition
(an explicit witness exists); measures with an absolutely continuous
component satisfy it, with a certified bound obtained from the mixture
decomposition.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .measure import GaussianDensity, Measure1D, moments
from .quadrature import adaptive_gauss_legendre


@dataclass
class CharEvaluator:
    base: Measure1D

    def __post_init__(self):
        self.base.validate()

    def char_grid(self, s, t) -> np.ndarray:
        """Vectorized ``M`` on the outer product of ``s`` and ``t`` values.

        The base is symmetric, so its atoms come in mirror pairs and
        ``M(s, t) = p0 + sum_j 2 p_j cos(s z_j) e^{i t z_j^2}`` plus the
        density part: even in ``s``, with only 1-D trigonometry per atom.
        """
        s = np.asarray(s, dtype=float)
        t = np.asarray(t, dtype=float)
        z, p = np.array(self.base.mirror_magnitudes()).reshape(-1, 2).T
        out = (2 * p * np.cos(np.outer(s, z))) @ np.exp(1j * np.outer(z * z, t))
        out += self.base.mass_at_zero
        if self.base.density is not None:
            out += self.base.density.char_grid(s, t)
        return out

    def lipschitz(self) -> float:
        """Bound on the gradient norm of M: integral of |z| + z^2."""
        abs_moment = sum(p * abs(z) for z, p in self.base.atoms)
        if self.base.density is not None:
            f = self.base.density.pdf
            R = self.base.density.support_radius
            abs_moment += float(adaptive_gauss_legendre(
                lambda z: np.abs(z) * f(z), -R, R, tol=1e-10))
        return abs_moment + moments(self.base).sigma2


def char_fn(e: CharEvaluator, s: float, t: float) -> complex:
    """Pointwise ``M(s, t)``: atom sum plus the density's ``char``."""
    val = sum(p * np.exp(1j * (s * z + t * z * z)) for z, p in e.base.atoms)
    if e.base.density is not None:
        val += e.base.density.char(s, t)
    return complex(val)


_INV_PHI = (math.sqrt(5) - 1) / 2
_CIRCLE_POINTS = 2048  # mixture_bound: angles on a Gaussian's inner circle
_NOTE_MARGIN = 1e-3  # check_condition: how far below 1 an atomic sup is noted


def _golden_max(f, lo: float, hi: float, xtol: float) -> tuple:
    """``(x, f(x))`` at the maximum of ``f`` on ``[lo, hi]`` by golden-section
    search, which assumes ``f`` unimodal there."""
    c, d = hi - _INV_PHI * (hi - lo), lo + _INV_PHI * (hi - lo)
    fc, fd = f(c), f(d)
    while hi - lo > xtol:
        if fc >= fd:
            hi, d, fd = d, c, fc
            c = hi - _INV_PHI * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _INV_PHI * (hi - lo)
            fd = f(d)
    return (c, fc) if fc >= fd else (d, fd)


@dataclass
class CramerReport:
    alpha: float
    sup_estimate: float
    sup_bound: Optional[float]
    verdict: str                       # 'pass' | 'fail' | 'inconclusive'
    witness: Optional[tuple] = None
    details: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.verdict == "fail":
            assert self.witness is not None
        if self.verdict == "pass":
            assert (self.sup_bound is not None and self.sup_bound < 1) or \
                self.details.get("tail_argument")


# ---------------------------------------------------------------------------
# arithmetic (lattice) structure

def _approx_gcd(values, tol: float = 1e-10) -> float:
    g = 0.0
    for v in values:
        a, b = max(g, abs(v)), min(g, abs(v))
        while b > tol:
            a, b = b, math.fmod(a, b)
        g = a
    return g


def _lattice_witness(e: CharEvaluator, alpha: float) -> Optional[tuple]:
    """Direction with |M| = 1 at norm >= alpha for purely atomic measures.

    Looks along the t axis: it suffices that the values z^2 are
    commensurable, which holds for every finite rational-square support.
    """
    if e.base.density is not None and e.base.ac_mass > 0:
        return None
    sq = np.array([z * z for z, _ in e.base.atoms])
    g = _approx_gcd(sq[sq > 0])
    if g == 0.0:
        t = alpha  # z^2 identically 0 cannot happen (nondegenerate), z^2 const
    elif np.all(np.abs(sq / g - np.round(sq / g)) < 1e-8):
        t = 2 * math.pi / g
        k = math.ceil(alpha * g / (2 * math.pi))
        t = max(t, k * t)
    else:
        return None
    return (0.0, float(t))


def _quadrant(radius: float, step: float) -> np.ndarray:
    """The upper half of the symmetric grid ``-radius, ..., radius`` of
    spacing ``step``, from its centre (0 up to rounding) outward.

    For a symmetric base ``|M|`` is even in ``s`` and ``|M(-s, -t)| =
    |M(s, t)|``, so this axis squared covers the whole plane.
    """
    grid = np.arange(-radius, radius + step, step)
    return grid[grid > -step / 2]


# ---------------------------------------------------------------------------
# mixture bound

def mixture_bound(e: CharEvaluator, alpha: float, radius: float = 50.0) -> dict:
    """Certified bound sqrt(a^2 eta + 1 - a^2) on sup |M| over the annulus.

    ``eta`` is the sup of the squared modulus of the normalized a.c.
    characteristic; the square arises because the relevant Fourier transform
    is the one of the convolution square of the a.c. pair law.  For a
    Gaussian component the modulus decays along every ray, so the sup over
    the unbounded annulus sits on the inner circle and the bound is
    radius-uniform; otherwise it is certified up to ``radius`` only.
    """
    a = e.base.ac_mass
    if a <= 0:
        raise ValueError("mixture bound needs an absolutely continuous part")
    d = e.base.density
    radius_uniform = isinstance(d, GaussianDensity)
    lip = 2 * e.lipschitz()
    if radius_uniform:
        def eta_on_circle(th):
            # |psi|^2 of the normalized a.c. part at angle th on the circle
            return np.abs(d.char(alpha * np.cos(th), alpha * np.sin(th)) / a) ** 2

        theta = np.linspace(0, 2 * math.pi, _CIRCLE_POINTS, endpoint=False)
        vals = eta_on_circle(theta)
        i = int(np.argmax(vals))
        _, ref = _golden_max(lambda th: float(eta_on_circle(th)),
                             theta[i] - 0.01, theta[i] + 0.01, xtol=1e-9)
        eta = max(float(np.max(vals)), ref)
        # covering pad on the circle from the gradient bound
        pad = lip * alpha * (math.pi / _CIRCLE_POINTS)
    else:
        step = 0.1
        grid = _quadrant(radius, step)
        vals = np.abs(d.char_grid(grid, grid) / a) ** 2
        r2 = grid[:, None] ** 2 + grid[None, :] ** 2
        eta = float(np.max(np.where(r2 >= alpha * alpha, vals, 0.0)))
        pad = lip * step * math.sqrt(0.5)
    eta = min(eta + pad, 1.0)
    bound = math.sqrt(a * a * eta + 1 - a * a)
    return {"bound": bound, "eta": eta, "ac_mass": a,
            "radius_uniform": radius_uniform, "error_estimate": pad}


# ---------------------------------------------------------------------------
# the condition check

def check_condition(e: CharEvaluator, alpha: float, radius: float = 50.0,
                    grid_step: float = 0.05) -> CramerReport:
    """Grid search of |M| over the annulus with the three-way verdict.

    The grid covers the quadrant ``s, t >= 0`` only (see ``_quadrant``);
    ``details`` records its pad, radius and cell count.

    Order of resolution: explicit lattice witness (fail), certified mixture
    bound (pass), then the grid value with a Lipschitz pad (pass only with a
    tail argument, otherwise inconclusive).
    """
    if alpha <= 0 or radius <= alpha:
        raise ValueError("need 0 < alpha < radius")
    witness = _lattice_witness(e, alpha)
    if witness is not None:
        m = abs(char_fn(e, *witness))
        if m >= 1 - 1e-9:
            return CramerReport(alpha=alpha, sup_estimate=m, sup_bound=None,
                                verdict="fail", witness=witness,
                                details={"mechanism": "arithmetic lattice",
                                         "grid_cells": 0})
    grid = _quadrant(radius, grid_step)
    vals = np.abs(e.char_grid(grid, grid))
    r2 = grid[:, None] ** 2 + grid[None, :] ** 2
    vals = np.where((r2 >= alpha * alpha), vals, 0.0)
    i, j = np.unravel_index(int(np.argmax(vals)), vals.shape)
    best = _refine_local(e, float(grid[i]), float(grid[j]), alpha, grid_step)
    sup_estimate = max(float(vals[i, j]), best[0])
    lip = e.lipschitz()
    pad = lip * grid_step * math.sqrt(0.5)
    details = {"grid_pad": pad, "grid_radius": radius, "grid_cells": vals.size}
    if sup_estimate >= 1 - 1e-9:
        return CramerReport(alpha=alpha, sup_estimate=sup_estimate,
                            sup_bound=None, verdict="fail",
                            witness=(best[1], best[2]), details=details)
    if e.base.ac_mass > 0:
        mb = mixture_bound(e, alpha, radius=radius)
        details.update(mixture=mb, tail_argument="mixture bound")
        verdict = "pass" if mb["bound"] < 1 else "inconclusive"
        return CramerReport(alpha=alpha, sup_estimate=sup_estimate,
                            sup_bound=mb["bound"], verdict=verdict,
                            details=details)
    if sup_estimate + pad < 1 - _NOTE_MARGIN:
        # atoms only, no lattice found: nothing controls the tail
        details["note"] = "sup below 1 on the probed annulus; tail uncontrolled"
    return CramerReport(alpha=alpha, sup_estimate=sup_estimate, sup_bound=None,
                        verdict="inconclusive", details=details)


def _refine_local(e, s0, t0, alpha, h):
    """Coordinate-wise golden refinement of |M| around a grid maximum."""
    s, t = s0, t0

    def val(ss, tt):
        if math.hypot(ss, tt) < alpha:
            return 0.0
        return abs(char_fn(e, ss, tt))

    for _ in range(3):
        s = _golden_max(lambda ss: val(ss, t), s - h, s + h, xtol=1e-6)[0]
        t = _golden_max(lambda tt: val(s, tt), t - h, t + h, xtol=1e-6)[0]
    return val(s, t), s, t
