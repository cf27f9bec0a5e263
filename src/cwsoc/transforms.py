"""Log-Laplace surfaces and their convex conjugates.

The canonical object is the log-Laplace transform of the pair law of
``(Z, Z^2)`` for ``Z`` distributed under a symmetric measure; a plain 1-D
variant is provided for measures used directly on the line.  The conjugate
(rate function) is computed by a damped Newton solve of ``grad L = target``,
which also yields the inverse-gradient map and the Hessian of the conjugate.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .measure import GaussianDensity, Measure1D, moments
from .quadrature import adaptive_gauss_legendre


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
        base.validate()
        self.base = base
        self.lift = lift
        self.d = 2 if lift == "pair" else 1

    def _psi(self, z: np.ndarray) -> list[np.ndarray]:
        return [z, z * z] if self.lift == "pair" else [z]

    def _quadratic_coeff(self, theta: np.ndarray) -> float:
        return float(theta[1]) if self.lift == "pair" else 0.0

    def in_domain(self, theta) -> bool:
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        if self.base.density is None:
            return True
        return self._quadratic_coeff(theta) < self.base.density.domination[1]

    def _exponent_shift(self, u: float, v: float) -> float:
        """Exact maximum of ``u z + v z^2`` over the effective support."""
        best = max((u * z + v * z * z for z, _ in self.base.atoms),
                   default=-np.inf)
        if self.base.density is not None:
            R = self.base.density.support_radius
            cands = [u * R + v * R * R, -u * R + v * R * R]
            if v < 0 and abs(u) < 2 * abs(v) * R:
                zc = -u / (2 * v)
                cands.append(u * zc + v * zc * zc)
            best = max(best, *cands)
        return best if math.isfinite(best) else 0.0

    def _raw_moments(self, theta: np.ndarray, kmax: int, tol: float):
        """``(c, m)``: the exponent shift ``c`` and the raw moments
        ``m_k = E[z^k exp(<theta, psi(z)> - c)]``, ``k = 0..kmax``.

        Atoms are summed exactly; a ``GaussianDensity`` contributes its
        closed form, any other density adaptive quadrature to ``tol``.
        """
        u, v = float(theta[0]), self._quadratic_coeff(theta)
        c = self._exponent_shift(u, v)
        weighted = [(z, mass * math.exp(u * z + v * z * z - c))
                    for z, mass in self.base.atoms]
        m = np.array([sum(w * z**k for z, w in weighted)
                      for k in range(kmax + 1)], dtype=float)
        d = self.base.density
        if isinstance(d, GaussianDensity):
            m += d.tilted_moments(u, v, c, kmax)
        elif d is not None:
            powers = np.arange(kmax + 1)

            def integrand(z):
                w = np.exp(u * z + v * z * z - c) * d.pdf(z)
                return w[:, None] * z[:, None] ** powers

            R = d.support_radius
            m += np.asarray(adaptive_gauss_legendre(
                integrand, -R, R, tol=tol, initial_panels=8), dtype=float)
        return c, m

    def tilted_stats(self, theta, tol: float = 1e-12):
        """Return ``(L(theta), tilted mean of psi, tilted covariance of psi)``."""
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        if not self.in_domain(theta):
            return math.inf, None, None
        d = self.d
        c, m = self._raw_moments(theta, 2 * d, tol)
        if m[0] <= 0:
            return math.inf, None, None
        value = c + math.log(m[0])
        mom = m / m[0]
        if d == 1:
            mean = np.array([mom[1]])
            cov = np.array([[mom[2] - mom[1] ** 2]])
        else:
            mean = np.array([mom[1], mom[2]])
            cov = np.array([
                [mom[2] - mom[1] ** 2, mom[3] - mom[1] * mom[2]],
                [mom[3] - mom[1] * mom[2], mom[4] - mom[2] ** 2],
            ])
        return value, mean, cov

    def value(self, theta, tol: float = 1e-12) -> float:
        """L(theta) alone (cheaper than the full moment pass)."""
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        if not self.in_domain(theta):
            return math.inf
        c, m = self._raw_moments(theta, 0, tol)
        if m[0] <= 0:
            return math.inf
        return c + math.log(m[0])

    def grad_hess(self, theta):
        """Gradient (tilted first moments) and Hessian (tilted covariance)."""
        value, mean, cov = self.tilted_stats(theta)
        if not math.isfinite(value):
            raise DomainFault(f"theta {theta} outside the finiteness domain")
        return mean, cov


@dataclass
class SolverSettings:
    gtol: float = 1e-10
    max_iter: int = 100
    cond_limit: float = 1e12


@dataclass
class CramerResult:
    value: float
    argmax: np.ndarray
    hess: Optional[np.ndarray]  # Hessian of the conjugate at the target
    converged: bool
    iterations: int
    message: str = ""


class RateFunction:
    """Convex conjugate of a log-Laplace surface, solved point by point."""

    def __init__(self, source: LogLaplace, settings: SolverSettings | None = None):
        self.source = source
        self.settings = settings or SolverSettings()
        self._moments = moments(source.base)

    def solve(self, x) -> CramerResult:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        L = self.source
        s = self.settings
        theta = np.zeros(L.d)
        val, mean, cov = L.tilted_stats(theta)
        it = 0
        for it in range(1, s.max_iter + 1):
            grad = mean - x
            gnorm = float(np.linalg.norm(grad))
            if gnorm <= s.gtol:
                break
            if np.linalg.cond(cov) > s.cond_limit:
                return self._solve_degenerate(x, theta, val, it)
            step = np.linalg.solve(cov, -grad)
            # backtracking on the dual objective L(theta) - <theta, x>; the
            # slack term keeps the search from stalling once the predicted
            # decrease falls below float precision of the objective
            t = 1.0
            obj = val - float(np.dot(theta, x))
            slope = float(np.dot(grad, step))
            slack = 1e-14 * (1.0 + abs(obj))
            for _ in range(60):
                cand = theta + t * step
                cval = L.value(cand)
                if math.isfinite(cval) and \
                        cval - float(np.dot(cand, x)) <= obj + 0.25 * t * slope + slack:
                    break
                t *= 0.5
            else:
                return CramerResult(
                    value=float(np.dot(theta, x)) - val, argmax=theta,
                    hess=None, converged=False, iterations=it,
                    message="line search failed; outside admissible domain")
            theta = cand
            val, mean, cov = L.tilted_stats(theta)
        else:
            return CramerResult(
                value=float(np.dot(theta, x)) - val, argmax=theta, hess=None,
                converged=False, iterations=it,
                message="max iterations; outside admissible domain")
        if float(np.linalg.norm(theta)) > 1e8:
            return CramerResult(
                value=float(np.dot(theta, x)) - val, argmax=theta, hess=None,
                converged=False, iterations=it,
                message="argmax diverged; outside admissible domain")
        if np.linalg.cond(cov) > s.cond_limit:
            return self._solve_degenerate(x, theta, val, it)
        hess = np.linalg.inv(cov)
        return CramerResult(
            value=float(np.dot(theta, x)) - val, argmax=theta, hess=hess,
            converged=True, iterations=it)

    def _solve_degenerate(self, x, theta, val, it) -> CramerResult:
        L = self.source
        _, mean0, cov0 = L.tilted_stats(np.zeros(L.d))
        if np.linalg.cond(cov0) <= self.settings.cond_limit:
            # the base has full curvature, so it vanished along the path:
            # the target sits on the boundary of the admissible domain
            return CramerResult(
                value=float(np.dot(theta, x)) - val, argmax=theta, hess=None,
                converged=False, iterations=it,
                message="curvature vanished; outside admissible domain")
        # pair lift with z^2 a.s. constant: conjugate finite only on y = const
        c0 = float(mean0[1])
        if abs(x[1] - c0) > 1e-9:
            return CramerResult(
                value=math.inf, argmax=theta, hess=None, converged=False,
                iterations=it,
                message=f"second coordinate degenerate at {c0}; target unreachable")
        line = RateFunction(LogLaplace(L.base, lift="line"), self.settings)
        r = line.solve([x[0]])
        hess = None
        if r.hess is not None:
            hess = np.array([[r.hess[0, 0], math.nan], [math.nan, math.nan]])
        return CramerResult(
            value=r.value, argmax=np.array([r.argmax[0], 0.0]), hess=hess,
            converged=r.converged, iterations=it + r.iterations,
            message="degenerate direction v reported as free")

    def value(self, x) -> float:
        r = self.solve(x)
        return r.value if r.converged else math.inf


def cramer_transform(R: RateFunction, x: float, y: float | None = None) -> CramerResult:
    target = [x] if y is None and R.source.d == 1 else [x, y]
    return R.solve(np.asarray(target, dtype=float))


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
    ms = R._moments
    s2, mu4 = ms.sigma2, ms.mu4
    sig_pow = s2**3 if g.variant == "star" else s2**2
    coeff = mu4 + g.m4 * sig_pow
    # sigma^2 carries the rounding of its closed form or quadrature: a target
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
