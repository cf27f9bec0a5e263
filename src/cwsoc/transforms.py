"""The convex conjugate of the base's log-Laplace surface.

The base owns the log-Laplace transform of ``(Z, Z^2)``,
``Measure1D.log_laplace``.  Its conjugate (rate function) is a damped Newton
solve of ``grad L = target`` in the base's own units, which also yields the
Hessian of the conjugate; a flat lift (``z^2`` a.s. constant) runs in the
same loop with ``v`` held at 0.  A density is integrated on its truncated
window, so the kernel's Gaussian conjugate, which admits every ``x`` (d = 1)
and every ``y > x^2`` (d = 2), is a closed form in ``kernel`` instead.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .measure import Measure1D


class DomainFault(ValueError):
    """Evaluation requested outside the interior of the finiteness domain."""


def _cond(cov: np.ndarray) -> np.ndarray:
    """Condition numbers ``lam_max / lam_min`` of the symmetric ``(P, 2, 2)``
    matrices; inf unless ``lam_min`` and ``ac - b^2`` are > 0."""
    a, b, c = cov[:, 0, 0], cov[:, 0, 1], cov[:, 1, 1]
    mid, radius = 0.5 * (a + c), np.hypot(0.5 * (a - c), b)
    lo = mid - radius
    return np.divide(mid + radius, lo, out=np.full_like(lo, math.inf),
                     where=(lo > 0) & (a * c - b * b > 0))


def _inv(cov: np.ndarray) -> np.ndarray:
    """Inverses of the ``(P, 2, 2)`` matrices: the adjugate over the
    determinant."""
    a, b, c = cov[:, 0, 0], cov[:, 0, 1], cov[:, 1, 1]
    adj = np.empty_like(cov)
    adj[:, 0, 0], adj[:, 1, 1] = c, a
    adj[:, 0, 1] = adj[:, 1, 0] = -b
    return adj / (a * c - b * b)[:, None, None]


def _norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norms of the rows of ``v``, as ``np.linalg.norm(v,
    axis=1)`` forms them, without its argument handling."""
    return np.sqrt(np.add.reduce(v * v, axis=1))


_GTOL = 1e-10  # Newton has converged once |grad L(theta) - x| <= _GTOL
_MAX_ITER = 100  # Newton iterations before a row gives up
_COND_LIMIT = 1e12  # condition number above which a covariance is degenerate


@dataclass
class CramerResult:
    value: float
    argmax: np.ndarray
    hess: Optional[np.ndarray]  # Hessian of the conjugate at the target
    converged: bool
    iterations: int
    message: str = ""
    degenerate: bool = False  # flat lift, or curvature vanished


class RateFunction:
    """Convex conjugate of the base's log-Laplace surface, by damped Newton."""

    def __init__(self, base: Measure1D):
        self.base = base

    def solve(self, x) -> CramerResult:
        return self.solve_many([x])[0]

    def solve_many(self, targets) -> list[CramerResult]:
        """The conjugate at each row of the ``(P, 2)`` array ``targets``.

        One damped Newton iteration on ``grad L(theta) = x`` runs on all
        rows at once under per-row masks.  A row leaves the batch when its
        gradient meets ``_GTOL``, its curvature vanishes or its line search
        fails, so it follows the trajectory it would follow alone.  A flat
        lift (``z^2 = c0`` a.s.) is decided once, from the zero-tilt
        covariance: its conjugate is finite only on ``y = c0``, so the other
        rows stop up front, and the loop solves the rest with ``v`` held at
        0; their rows are ``degenerate``, with NaN ``v`` entries in ``hess``.

        Newton's start: near its minimum ``(0, sigma^2)`` the base is
        Gaussian to second order, so a row with ``q = y - x^2 > 0`` starts
        at the argmax of the conjugate of ``N(0, sigma^2)``, ``theta0 =
        (x / q, (1 / sigma^2 - 1 / q) / 2)``, wherever Newton's decrement
        ``g' cov^-1 g`` (``g = grad L - x``) is smaller there than at
        ``theta = 0``, which requires ``L(theta0)`` finite.  Every other
        row starts at ``theta = 0``: every row of a flat lift, and on a
        purely atomic base every row outside the open convex hull of
        ``{(z, z^2)}``, where the conjugate is infinite or its argmax
        diverges.  A row that fails from ``theta0`` is solved again from
        ``theta = 0`` and reports the iterations of both solves, so the
        start never costs a row its convergence.

        ``I`` is scale-invariant, so the loop runs in the base's own units
        (targets over ``D = (s, s^2)``, ``s`` the power of two nearest
        ``sigma``), where its absolute tolerances hold at every scale.  A
        row records its iteration, message and status when it stops; the
        value, argmax and Hessian, which do not move once a row stops, are
        formed for all rows after the loop.
        """
        X = np.array(targets, dtype=float)
        if X.ndim != 2 or X.shape[1] != 2:
            raise ValueError(f"targets must have shape (P, 2), got {X.shape}")
        sigma2 = self.base.moments.sigma2
        s = 2.0 ** round(0.5 * math.log2(sigma2))
        D = np.array([s, s * s])
        DD = np.outer(D, D)
        X /= D

        def stats(theta):  # (L, mean, cov) at the scaled tilts theta
            val, mean, cov = self.base.log_laplace(theta / D)
            return val, mean / D, cov / DD

        P = len(X)
        theta = np.zeros(X.shape)
        val, mean, cov = stats(theta)
        iterations = np.full(P, _MAX_ITER)
        messages = np.full(P, "", dtype=object)
        converged = np.zeros(P, dtype=bool)
        degenerate = np.zeros(P, dtype=bool)
        off = np.zeros(P, dtype=bool)  # flat-lift rows off the line y = c0
        started = np.arange(0)  # rows that start at the Gaussian argmax
        flat = P > 0 and bool(_cond(cov[:1])[0] > _COND_LIMIT)
        if flat:
            c0 = float(mean[0, 1])
            off = np.abs(X[:, 1] - c0) > 1e-9
            iterations[off] = 1
            messages[off] = (f"second coordinate degenerate at {c0 * D[1]}; "
                             "target unreachable")
            messages[~off] = "degenerate direction v reported as free"
            X[:, 1] = c0
        else:
            # the Gaussian start, where Newton's decrement g' cov^-1 g (g =
            # grad L - x) is below its value at theta = 0; a flat lift keeps
            # theta = 0, where v = 0 already holds and the Gaussian's v0
            # would not.  A start that overflows, or whose L is infinite or
            # covariance singular, is merely not taken
            with np.errstate(all="ignore"):
                q = X[:, 1] - X[:, 0] ** 2
                inside = q > 0
                if self.base.ac_mass <= 0:
                    # a purely atomic base's conjugate is finite only inside
                    # the open hull of {(z, z^2)}, so no start helps outside
                    # it: y below z_max^2 and above the chords of z^2
                    z = np.array([0.0] * (self.base.mass_at_zero > 0) + [
                        zj for zj, _ in self.base.mirror_magnitudes()]) / s
                    inside &= (X[:, 1] < z[-1] ** 2) & (
                        X[:, 1] > np.interp(np.abs(X[:, 0]), z, z * z))
                started = np.flatnonzero(inside)
                q = q[started]
                start = np.column_stack([X[started, 0] / q,
                                         0.5 * (s * s / sigma2 - 1.0 / q)])
                sval, smean, scov = stats(start)
                g0, g1 = mean[started] - X[started], smean - X[started]
                ok = (np.einsum("pi,pij,pj->p", g1, _inv(scov), g1)
                      < np.einsum("pi,pij,pj->p", g0, _inv(cov[started]),
                                  g0))
            started = started[ok]
            zero = val[started], mean[started], cov[started]
            theta[started], val[started] = start[ok], sval[ok]
            mean[started], cov[started] = smean[ok], scov[ok]

        def newton(active):
            """Run the damped Newton loop on the rows ``active`` until each
            has converged or stopped."""
            for it in range(1, _MAX_ITER + 1):
                # a flat lift holds v at 0: no gradient and no
                # cross-curvature in v, and unit curvature, so every Newton
                # step in v is 0
                if flat:
                    mean[:, 1], cov[:, 1, 1] = c0, 1.0
                    cov[:, 0, 1] = cov[:, 1, 0] = 0.0
                # each row's state is gathered once per iteration
                Xa, ta, ca = X[active], theta[active], cov[active]
                grad = mean[active] - Xa
                done = _norms(grad) <= _GTOL
                far = done & (_norms(ta) > 1e8)
                # a row whose curvature vanished along the path has its
                # target on the boundary of the admissible domain
                lost = ~far & (_cond(ca) > _COND_LIMIT)
                stopped = done | lost
                if stopped.any():
                    iterations[active[stopped]] = it
                    messages[active[far]] = ("argmax diverged; outside "
                                             "admissible domain")
                    messages[active[lost]] = ("curvature vanished; outside "
                                              "admissible domain")
                    degenerate[active[lost]] = True
                    converged[active[done & ~far & ~lost]] = True
                    keep = ~stopped
                    active, grad, Xa, ta, ca = (
                        active[keep], grad[keep], Xa[keep], ta[keep],
                        ca[keep])
                if not active.size:
                    return
                step = -np.einsum("pij,pj->pi", _inv(ca), grad)
                # backtracking on the dual objective L(theta) - <theta, x>;
                # the slack term keeps the search from stalling once the
                # predicted decrease falls below float precision of the
                # objective
                obj = val[active] - np.einsum("pi,pi->p", ta, Xa)
                slope = np.einsum("pi,pi->p", grad, step)
                slack = 1e-14 * (1.0 + np.abs(obj))
                # every row still searching has the same step length t
                t = 1.0
                rows, cur, dirn, Xr, o, sl, sk = (
                    active, ta, step, Xa, obj, slope, slack)
                for _ in range(60):
                    cand = cur + t * dirn
                    # the full moment pass: an accepted candidate is the
                    # next iterate, and its mean and covariance come with
                    # its value
                    cval, cmean, ccov = stats(cand)
                    ok = np.isfinite(cval) & (
                        cval - np.einsum("pi,pi->p", cand, Xr)
                        <= o + 0.25 * t * sl + sk)
                    moved = rows[ok]
                    theta[moved], val[moved] = cand[ok], cval[ok]
                    mean[moved], cov[moved] = cmean[ok], ccov[ok]
                    if ok.all():
                        break
                    rows, cur, dirn, Xr, o, sl, sk = (
                        z[~ok] for z in (rows, cur, dirn, Xr, o, sl, sk))
                    t *= 0.5
                else:
                    iterations[rows] = it
                    messages[rows] = ("line search failed; outside "
                                      "admissible domain")
                    active = active[~np.isin(active, rows)]
            messages[active] = "max iterations; outside admissible domain"

        newton(np.flatnonzero(~off))
        # a row that fails from the Gaussian start is solved again from
        # theta = 0, so it converges wherever the start at 0 converges; it
        # reports the iterations of both solves
        again = ~converged[started]
        if again.any():
            rows = started[again]
            spent = iterations[rows]
            theta[rows] = 0.0
            val[rows], mean[rows], cov[rows] = (z[again] for z in zero)
            iterations[rows], messages[rows] = _MAX_ITER, ""
            degenerate[rows] = False
            newton(rows)
            iterations[rows] += spent

        value = np.einsum("pi,pi->p", theta, X) - val
        value[off] = math.inf
        # only a converged row carries the Hessian of the conjugate
        hess = [None] * P
        rows = np.flatnonzero(converged)
        H = _inv(cov[rows]) / DD
        if flat:
            H[:, 1, :] = H[:, :, 1] = math.nan
        for p, h in zip(rows.tolist(), H):
            hess[p] = h
        # the fields in their declared order: positional arguments build
        # a dataclass at less than half the cost of keywords
        return list(map(CramerResult, value.tolist(), theta / D, hess,
                        converged.tolist(), iterations.tolist(),
                        messages.tolist(), (degenerate | flat).tolist()))


def rate_at_origin(R: RateFunction) -> float:
    """Conjugate value at the origin of the pair lift: -ln(mass at zero)."""
    p0 = R.base.mass_at_zero
    return -math.log(p0) if p0 > 0 else math.inf


def rate_expansion_residual(R: RateFunction, g, x: float, y: float) -> float:
    """(I - F_g)(x, y) divided by its leading quartic/quadratic form.

    ``g`` is an interaction: its ``quartic_constant`` of the base's moments
    enters the denominator, and its ``F(x, y)`` the numerator.  At the
    minimum ``(0, sigma^2)`` the ratio is 1 by convention.
    """
    ms = R.base.moments
    s2, mu4 = ms.sigma2, ms.mu4
    # sigma^2 carries the rounding of its closed form or fixed rule: a target
    # within roundoff of (0, sigma^2) is the minimum, where the rate and the
    # form both vanish
    tol = 8 * np.finfo(float).eps * s2
    if abs(x) <= tol and abs(y - s2) <= tol:
        return 1.0
    form = (g.quartic_constant(ms) * x**4 / (12 * s2**4)
            + (y - s2) ** 2 / (2 * (mu4 - s2**2)))
    r = R.solve([x, y])
    if not r.converged:
        raise DomainFault(f"target ({x}, {y}) outside admissible domain")
    return (r.value - g.F(x, y)) / form
