"""Cramer-condition diagnostics for the pair characteristic function.

The object of study is ``M(s, t) = integral of exp(i s z + i t z^2) drho(z)``,
which the base evaluates (``Measure1D.char_grid``), and the condition (C) that
its modulus stays away from 1 outside a neighbourhood of the origin.  A
purely atomic base never satisfies (C): its ``M`` is a finite trigonometric
sum, hence almost periodic, so ``limsup |M| = 1`` (Dirichlet's simultaneous
approximation theorem) and the check fails at the best near-return it finds.
A base with a Gaussian density component passes on a radius-uniform bound
from the mixture decomposition; a table density is inconclusive until a
bound on the tail of its annulus exists.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .measure import GaussianDensity, Measure1D


def _lipschitz(base: Measure1D) -> float:
    """Bound on the gradient norm of M: integral of |z| + z^2, in closed form
    from the atoms, the density's ``abs_moment`` and ``sigma^2``."""
    abs_moment = sum(p * abs(z) for z, p in base.atoms)
    if base.density is not None:
        abs_moment += base.density.abs_moment
    return abs_moment + base.moments.sigma2


_INV_PHI = (math.sqrt(5) - 1) / 2
_CIRCLE_POINTS = 2048  # mixture_bound: angles on a Gaussian's inner circle
# _near_return: candidate returns t_q on the t axis, and the distance in |M|
# below the best within which a candidate ties (rounding); ties go to small t
_NEAR_RETURNS = 10_000
_TIE = 1e-12
# check_condition: the envelope level sits this far below the axes' best,
# for the rounding of |M| and of the atom masses
_LEVEL_MARGIN = 1e-12


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
            assert self.sup_bound is not None and self.sup_bound < 1


def verdict_rule(base: Measure1D) -> str:
    """The (C) policy, read by ``check_condition`` and ``limitlaw``: ``fail``
    for a purely atomic base (``M`` almost periodic), ``pass`` for a Gaussian
    density component (a radius-uniform mixture bound), else ``inconclusive``
    (a table density, which no bound certifies yet)."""
    if base.ac_mass <= 0:
        return "fail"
    return "pass" if isinstance(base.density, GaussianDensity) else (
        "inconclusive")


# ---------------------------------------------------------------------------
# purely atomic bases

def _near_return(base: Measure1D, alpha: float) -> CramerReport:
    """The ``fail`` verdict of a purely atomic base, at its best near-return.

    Along ``s = 0`` the smallest positive atom ``z_min`` comes back in phase
    at every ``t_q = 2 pi q / z_min^2``; the other atoms come back nearly at
    the ``q`` that approximate their ratios ``z_j^2 / z_min^2``.  The first
    ``_NEAR_RETURNS`` of these ``t_q`` at or beyond ``alpha`` are evaluated
    at once, and the witness is the one of largest ``|M|`` (the first, when
    the squares are commensurable and every ``t_q`` returns exactly).
    ``details["gap"]`` is ``1 - |M|`` there.
    """
    z_min = base.mirror_magnitudes()[0][0]
    period = 2 * math.pi / (z_min * z_min)
    t = period * (math.ceil(alpha / period) + np.arange(_NEAR_RETURNS))
    m = np.abs(base.char_grid([0.0], t)[0])
    i = int(np.argmax(m >= m.max() - _TIE))
    sup = float(m[i])
    return CramerReport(alpha=alpha, sup_estimate=sup, sup_bound=None,
                        verdict="fail", witness=(0.0, float(t[i])),
                        details={"mechanism": "almost periodic",
                                 "gap": 1.0 - sup, "grid_cells": 0})


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

def mixture_bound(base: Measure1D, alpha: float) -> dict:
    """Certified bound sqrt(a^2 eta + 1 - a^2) on sup |M| over the annulus.

    ``eta`` is the sup of the squared modulus of the normalized a.c.
    characteristic; the square arises because the relevant Fourier transform
    is the one of the convolution square of the a.c. pair law.  The density
    must be a ``GaussianDensity`` (ValueError otherwise): its modulus decays
    along every ray, so the sup over the unbounded annulus sits on the inner
    circle and the bound is radius-uniform.
    """
    d = base.density
    if not isinstance(d, GaussianDensity):
        raise ValueError("mixture bound needs a Gaussian density component")
    a = base.ac_mass

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
    pad = 2 * _lipschitz(base) * alpha * (math.pi / _CIRCLE_POINTS)
    eta = min(eta + pad, 1.0)
    bound = math.sqrt(a * a * eta + 1 - a * a)
    return {"bound": bound, "eta": eta, "ac_mass": a,
            "radius_uniform": True, "error_estimate": pad}


# ---------------------------------------------------------------------------
# the condition check

def check_condition(base: Measure1D, alpha: float, radius: float = 50.0,
                    grid_step: float = 0.05) -> CramerReport:
    """Decide (C) on the annulus ``|(s, t)| >= alpha``.

    By ``verdict_rule``: a purely atomic base fails before any scan, at the
    near-return of ``_near_return``.  Any other base is scanned on the
    quadrant ``s, t >= 0`` (see ``_quadrant``) for ``sup_estimate``, with
    ``details`` recording the grid's Lipschitz pad, radius and cell count
    (``grid_cells``) and the cells evaluated (``scanned_cells``).

    The scan first evaluates the grid's two axes; their largest ``|M|`` in
    the annulus, ``lo``, is a floor for the grid's max.  Since ``|M| <=
    discrete_mass + |char|``, a cell can reach ``lo`` only where the
    density's ``|char|`` reaches ``lo - discrete_mass`` (less 1e-12 for
    rounding), that is inside its ``char_box`` at that level, so only the
    grid's prefix rectangle inside the box is evaluated.  It keeps the
    row-major order, so the argmax, and the local refinement from it, are
    those of the full grid.  A table density has no closed-form box, so it
    scans the full grid.

    Its sup cannot reach 1, so the grid decides no verdict: a Gaussian
    density component passes if its ``mixture_bound`` (``details["mixture"]``)
    is below 1, and every other case is inconclusive with no ``sup_bound``.
    ``radius`` bounds the scan only.
    """
    if not 0 < alpha < radius:
        raise ValueError("need 0 < alpha < radius")
    rule = verdict_rule(base)
    if rule == "fail":
        return _near_return(base, alpha)
    grid = _quadrant(radius, grid_step)
    on_axes = grid * grid + grid[0] * grid[0] >= alpha * alpha
    lo = max(np.max(np.abs(axis), where=on_axes, initial=0.0) for axis in (
        base.char_grid(grid, grid[:1]).T, base.char_grid(grid[:1], grid)))
    s_max, t_max = base.density.char_box(
        lo - base.discrete_mass - _LEVEL_MARGIN)
    s, t = grid[grid <= s_max], grid[grid <= t_max]
    vals = np.abs(base.char_grid(s, t))
    r2 = s[:, None] ** 2 + t[None, :] ** 2
    vals = np.where((r2 >= alpha * alpha), vals, 0.0)
    i, j = np.unravel_index(int(np.argmax(vals)), vals.shape)
    best = _refine_local(base, float(s[i]), float(t[j]), alpha, grid_step)
    sup_estimate = max(float(vals[i, j]), best)
    pad = _lipschitz(base) * grid_step * math.sqrt(0.5)
    details = {"grid_pad": pad, "grid_radius": radius,
               "grid_cells": grid.size ** 2, "scanned_cells": vals.size}
    sup_bound, verdict = None, "inconclusive"
    if rule == "pass":
        details["mixture"] = mixture_bound(base, alpha)
        sup_bound = details["mixture"]["bound"]
        verdict = "pass" if sup_bound < 1 else "inconclusive"
    return CramerReport(alpha=alpha, sup_estimate=sup_estimate,
                        sup_bound=sup_bound, verdict=verdict, details=details)


def _refine_local(base, s0, t0, alpha, h) -> float:
    """Coordinate-wise golden refinement of |M| around a grid maximum: the
    largest value it reaches."""
    s, t = s0, t0

    def val(ss, tt):
        if math.hypot(ss, tt) < alpha:
            return 0.0
        return float(abs(base.char_grid([ss], [tt])[0, 0]))

    for _ in range(3):
        s = _golden_max(lambda ss: val(ss, t), s - h, s + h, xtol=1e-6)[0]
        t = _golden_max(lambda tt: val(s, tt), t - h, t + h, xtol=1e-6)[0]
    return val(s, t)
