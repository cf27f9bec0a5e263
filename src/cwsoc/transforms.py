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
    adj = np.stack([np.stack([c, -b], -1), np.stack([-b, a], -1)], -2)
    return adj / (a * c - b * b)[:, None, None]


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

        ``I`` is scale-invariant, so the loop runs in the base's own units
        (targets over ``D = (s, s^2)``, ``s`` the power of two nearest
        ``sigma``), where its absolute tolerances hold at every scale.
        """
        X = np.array(targets, dtype=float)
        if X.ndim != 2 or X.shape[1] != 2:
            raise ValueError(f"targets must have shape (P, 2), got {X.shape}")
        s = 2.0 ** round(0.5 * math.log2(self.base.moments.sigma2))
        D = np.array([s, s * s])
        DD = np.outer(D, D)
        X /= D

        def stats(theta):  # (L, mean, cov) at the scaled tilts theta
            val, mean, cov = self.base.log_laplace(theta / D)
            return val, mean / D, cov / DD

        theta = np.zeros(X.shape)
        val, mean, cov = stats(theta)
        results: list = [None] * len(X)
        active = np.arange(len(X))
        flat = len(X) > 0 and bool(_cond(cov[:1])[0] > _COND_LIMIT)
        if flat:
            c0 = float(mean[0, 1])
            off = np.abs(X[:, 1] - c0) > 1e-9
            for p in np.flatnonzero(off).tolist():
                results[p] = CramerResult(
                    value=math.inf, argmax=np.zeros(2), hess=None,
                    converged=False, iterations=1, degenerate=True,
                    message=f"second coordinate degenerate at {c0 * D[1]}; "
                    "target unreachable")
            X[:, 1] = c0
            active = active[~off]

        def stop(rows, it, message, hess=None, degenerate=False):
            """Record the rows' results at their current iterate; only a
            converged row carries ``hess``."""
            if not rows.size:
                return
            values = np.einsum("pi,pi->p", theta[rows], X[rows]) - val[rows]
            if hess is None:
                hess = [None] * len(rows)
            for p, value, argmax, h in zip(rows.tolist(), values.tolist(),
                                           theta[rows] / D, hess):
                results[p] = CramerResult(
                    value=value, argmax=argmax, hess=h,
                    converged=h is not None, iterations=it, message=message,
                    degenerate=degenerate or flat)

        def curved(rows, it):
            """Stop the rows whose curvature vanished along the path, whose
            targets sit on the boundary of the admissible domain; return the
            others."""
            lost = _cond(cov[rows]) > _COND_LIMIT
            stop(rows[lost], it, "curvature vanished; outside admissible "
                 "domain", degenerate=True)
            return rows[~lost]

        for it in range(1, _MAX_ITER + 1):
            # a flat lift holds v at 0: no gradient and no cross-curvature
            # in v, and unit curvature, so every Newton step in v is 0
            if flat:
                mean[:, 1], cov[:, 1, 1] = c0, 1.0
                cov[:, 0, 1] = cov[:, 1, 0] = 0.0
            done = np.linalg.norm(mean[active] - X[active], axis=1) <= _GTOL
            if done.any():
                rows = active[done]
                far = np.linalg.norm(theta[rows], axis=1) > 1e8
                stop(rows[far], it,
                     "argmax diverged; outside admissible domain")
                rows = curved(rows[~far], it)
                hess = _inv(cov[rows]) / DD
                if flat:
                    hess[:, 1, :] = hess[:, :, 1] = math.nan
                stop(rows, it, "degenerate direction v reported as free"
                     if flat else "", hess=hess)
                active = active[~done]
            active = curved(active, it)
            if not active.size:
                break
            grad = mean[active] - X[active]
            step = -np.einsum("pij,pj->pi", _inv(cov[active]), grad)
            # backtracking on the dual objective L(theta) - <theta, x>; the
            # slack term keeps the search from stalling once the predicted
            # decrease falls below float precision of the objective
            obj = val[active] - np.einsum("pi,pi->p", theta[active], X[active])
            slope = np.einsum("pi,pi->p", grad, step)
            slack = 1e-14 * (1.0 + np.abs(obj))
            t = np.ones(len(active))
            left = np.arange(len(active))  # positions still searching
            for _ in range(60):
                rows = active[left]
                cand = theta[rows] + t[left, None] * step[left]
                # the full moment pass: an accepted candidate is the next
                # iterate, and its mean and covariance come with its value
                cval, cmean, ccov = stats(cand)
                ok = np.isfinite(cval) & (
                    cval - np.einsum("pi,pi->p", cand, X[rows])
                    <= obj[left] + 0.25 * t[left] * slope[left] + slack[left])
                moved = rows[ok]
                theta[moved], val[moved] = cand[ok], cval[ok]
                mean[moved], cov[moved] = cmean[ok], ccov[ok]
                left = left[~ok]
                if not left.size:
                    break
                t[left] *= 0.5
            stop(active[left], it,
                 "line search failed; outside admissible domain")
            active = np.delete(active, left)
        stop(active, _MAX_ITER, "max iterations; outside admissible domain")
        return results


def rate_at_origin(R: RateFunction) -> float:
    """Conjugate value at the origin of the pair lift: -ln(mass at zero)."""
    p0 = R.base.mass_at_zero
    return -math.log(p0) if p0 > 0 else math.inf


def rate_expansion_residual(R: RateFunction, g, x: float, y: float) -> float:
    """(I - F_g)(x, y) divided by its leading quartic/quadratic form.

    ``g`` is an interaction carrying ``m4``, ``variant`` and the functional
    ``F(x, y)``.  The denominator uses the fourth-moment constant matching the
    variant; at the minimum ``(0, sigma^2)`` the ratio is 1 by convention.
    """
    ms = R.base.moments
    s2, mu4 = ms.sigma2, ms.mu4
    sig_pow = s2**3 if g.variant == "star" else s2**2
    coeff = mu4 + g.m4 * sig_pow
    # sigma^2 carries the rounding of its closed form or fixed rule: a target
    # within roundoff of (0, sigma^2) is the minimum, where the rate and the
    # form both vanish
    tol = 8 * np.finfo(float).eps * s2
    if abs(x) <= tol and abs(y - s2) <= tol:
        return 1.0
    form = coeff * x**4 / (12 * s2**4) + (y - s2) ** 2 / (2 * (mu4 - s2**2))
    r = R.solve([x, y])
    if not r.converged:
        raise DomainFault(f"target ({x}, {y}) outside admissible domain")
    return (r.value - g.F(x, y)) / form
