"""Log-Laplace surfaces and their convex conjugates.

The canonical object is the log-Laplace transform of the pair law of
``(Z, Z^2)`` for ``Z`` distributed under a symmetric measure; a plain 1-D
variant is provided for measures used directly on the line.  The conjugate
(rate function) is computed by a damped Newton solve of ``grad L = target``,
which also yields the inverse-gradient map and the Hessian of the conjugate.
``RateFunction.solve_many`` decides once per batch whether the pair lift is
flat (``z^2`` a.s. constant) and then solves the whole batch on the line.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .measure import Measure1D


class DomainFault(ValueError):
    """Evaluation requested outside the interior of the finiteness domain."""


class LogLaplace:
    """Log-Laplace transform of the law of ``psi(Z)`` for ``Z ~ base``.

    ``lift='pair'`` uses ``psi(z) = (z, z^2)`` (dimension 2), ``lift='line'``
    uses ``psi(z) = z`` (dimension 1).
    """

    def __init__(self, base: Measure1D, lift: str = "pair"):
        if lift not in ("pair", "line"):
            raise ValueError(f"unknown lift {lift!r}")
        self.base = base
        self.lift = lift
        self.d = 2 if lift == "pair" else 1

    def in_domain(self, theta):
        """Whether ``theta`` lies in the finiteness domain, elementwise over
        the leading axes of an array of tilts (the last axis is the tilt):
        for the pair lift, ``v`` below the density's ``tilt_cap``."""
        theta = np.asarray(theta, dtype=float)
        if self.base.density is None or self.lift == "line":
            return np.ones(theta.shape[:-1], dtype=bool)
        return theta[..., 1] < self.base.density.tilt_cap

    def _log_moments(self, theta: np.ndarray, kmax: int):
        """``(L, mom)`` for the rows of ``theta`` (shape ``(P, d)``):
        ``L(theta_p)`` and the tilted moments ``E_p[z^k]``, ``k = 0..kmax``.
        Rows outside the domain, or whose tilted mass vanishes, get
        ``L = inf`` and NaN moments; no closed form sees them."""
        value = np.full(len(theta), math.inf)
        mom = np.full((len(theta), kmax + 1), math.nan)
        rows = np.flatnonzero(self.in_domain(theta))
        if rows.size:
            u = theta[rows, 0]
            v = theta[rows, 1] if self.lift == "pair" else np.zeros_like(u)
            c, m = self.base.tilted_moments(u, v, kmax)
            pos = m[:, 0] > 0
            rows, c, m = rows[pos], c[pos], m[pos]
            value[rows] = c + np.log(m[:, 0])
            mom[rows] = m / m[:, :1]
        return value, mom

    def _stats(self, theta: np.ndarray):
        """``(L, mean, cov)`` of ``psi`` for the rows of ``theta``: shapes
        ``(P,)``, ``(P, d)`` and ``(P, d, d)``, NaN where ``L`` is inf."""
        value, mom = self._log_moments(theta, 2 * self.d)
        mean = mom[:, 1:self.d + 1]
        # cov[i, j] = E[z^(i+j+2)] - E[z^(i+1)] E[z^(j+1)]
        powers = np.add.outer(np.arange(self.d), np.arange(self.d)) + 2
        cov = mom[:, powers] - mean[:, :, None] * mean[:, None, :]
        return value, mean, cov

    def tilted_stats(self, theta):
        """Return ``(L(theta), tilted mean of psi, tilted covariance of psi)``."""
        value, mean, cov = self._stats(
            np.atleast_1d(np.asarray(theta, dtype=float))[None])
        if not math.isfinite(value[0]):
            return math.inf, None, None
        return float(value[0]), mean[0], cov[0]

    def value(self, theta) -> float:
        """L(theta) alone (cheaper than the full moment pass)."""
        theta = np.atleast_1d(np.asarray(theta, dtype=float))[None]
        return float(self._log_moments(theta, 0)[0][0])


def _cond(cov: np.ndarray) -> np.ndarray:
    """Condition numbers ``lam_max / lam_min`` of the symmetric ``(P, d, d)``
    matrices, ``d <= 2``; inf unless ``lam_min`` and ``ac - b^2`` are > 0."""
    if cov.shape[-1] == 1:
        return np.where(cov[:, 0, 0] > 0, 1.0, math.inf)
    a, b, c = cov[:, 0, 0], cov[:, 0, 1], cov[:, 1, 1]
    mid, radius = 0.5 * (a + c), np.hypot(0.5 * (a - c), b)
    lo = mid - radius
    return np.divide(mid + radius, lo, out=np.full_like(lo, math.inf),
                     where=(lo > 0) & (a * c - b * b > 0))


def _inv(cov: np.ndarray) -> np.ndarray:
    """Inverses of the ``(P, d, d)`` matrices, ``d <= 2``: the adjugate over
    the determinant."""
    if cov.shape[-1] == 1:
        return 1.0 / cov
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
    """Convex conjugate of a log-Laplace surface, solved by damped Newton."""

    def __init__(self, source: LogLaplace):
        self.source = source

    def solve(self, x) -> CramerResult:
        return self.solve_many([x])[0]

    def solve_many(self, targets) -> list[CramerResult]:
        """The conjugate at each row of the ``(P, d)`` array ``targets``.

        One damped Newton iteration on ``grad L(theta) = x`` runs on all
        rows at once under per-row masks.  A row leaves the batch when its
        gradient meets ``_GTOL``, its curvature vanishes or its line search
        fails, so it follows the trajectory it would follow alone.  A flat
        pair lift (``z^2 = c0`` a.s., a singular zero-tilt covariance) is
        decided once, up front: the conjugate is then finite only on ``y =
        c0``, where it is the line conjugate of ``x`` (``v`` reported at 0),
        and each row counts the zero-tilt pass as one iteration.
        """
        L = self.source
        X = np.asarray(targets, dtype=float)
        if X.ndim != 2 or X.shape[1] != L.d:
            raise ValueError(
                f"targets must have shape (P, {L.d}), got {X.shape}")
        theta = np.zeros(X.shape)
        val, mean, cov = L._stats(theta)
        results: list = [None] * len(X)

        if L.d == 2 and len(X) and _cond(cov[:1])[0] > _COND_LIMIT:
            c0 = float(mean[0, 1])
            reachable = np.abs(X[:, 1] - c0) <= 1e-9
            line = RateFunction(LogLaplace(L.base, lift="line")).solve_many(
                X[reachable, :1])
            for p, r in zip(np.flatnonzero(reachable).tolist(), line):
                hess = None if r.hess is None else np.array(
                    [[r.hess[0, 0], math.nan], [math.nan, math.nan]])
                results[p] = CramerResult(
                    value=r.value, argmax=np.array([r.argmax[0], 0.0]),
                    hess=hess, converged=r.converged,
                    iterations=1 + r.iterations, degenerate=True,
                    message="degenerate direction v reported as free")
            for p in np.flatnonzero(~reachable).tolist():
                results[p] = CramerResult(
                    value=math.inf, argmax=np.zeros(2), hess=None,
                    converged=False, iterations=1, degenerate=True,
                    message=f"second coordinate degenerate at {c0}; "
                    "target unreachable")
            return results

        def stop(rows, it, message, hess=None, degenerate=False):
            """Record the rows' results at their current iterate; only a
            converged row carries ``hess``."""
            if not rows.size:
                return
            values = np.einsum("pi,pi->p", theta[rows], X[rows]) - val[rows]
            if hess is None:
                hess = [None] * len(rows)
            for p, value, argmax, h in zip(rows.tolist(), values.tolist(),
                                           theta[rows], hess):
                results[p] = CramerResult(
                    value=value, argmax=argmax, hess=h,
                    converged=h is not None, iterations=it, message=message,
                    degenerate=degenerate)

        def curved(rows, it):
            """Stop the rows whose curvature vanished along the path, whose
            targets sit on the boundary of the admissible domain; return the
            others."""
            flat = _cond(cov[rows]) > _COND_LIMIT
            stop(rows[flat], it, "curvature vanished; outside admissible "
                 "domain", degenerate=True)
            return rows[~flat]

        active = np.arange(len(X))
        for it in range(1, _MAX_ITER + 1):
            done = np.linalg.norm(mean[active] - X[active], axis=1) <= _GTOL
            if done.any():
                rows = active[done]
                far = np.linalg.norm(theta[rows], axis=1) > 1e8
                stop(rows[far], it,
                     "argmax diverged; outside admissible domain")
                rows = curved(rows[~far], it)
                stop(rows, it, "", hess=_inv(cov[rows]))
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
                cval, cmean, ccov = L._stats(cand)
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
    p0 = R.source.base.mass_at_zero
    return -math.log(p0) if p0 > 0 else math.inf


def rate_expansion_residual(R: RateFunction, g, x: float, y: float) -> float:
    """(I - F_g)(x, y) divided by its leading quartic/quadratic form.

    ``g`` is an interaction carrying ``m4``, ``variant`` and the functional
    ``F(x, y)``.  The denominator uses the fourth-moment constant matching the
    variant; at the minimum ``(0, sigma^2)`` the ratio is 1 by convention.
    """
    ms = R.source.base.moments
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
