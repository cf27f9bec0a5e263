"""Triangular smoothing kernel, its transform identities and the smoothed
density of the rescaled sums.

``phi_{n,c}(x) = (k_c * nu^{*n})(nx)`` is compared against the local-CLT
asymptotic ``(2 pi n)^{-d/2} (det D2J)^{1/2} e^{-nJ(x)}``.  In dimension 2
the estimator tilts exponentially at the conjugate point of ``x`` so the
``e^{-nJ}`` factor cancels, and integrates the last two coordinates exactly
through the pair convolution density, which removes the vanishing-window
variance blowup.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .cramer import CharEvaluator, _lattice_witness
from .measure import GaussianDensity, Measure1D, convolution_density_f2
from .quadrature import adaptive_gauss_legendre
from .transforms import CramerResult, LogLaplace, RateFunction


class KernelError(ValueError):
    pass


@dataclass(frozen=True)
class TriangularKernel:
    c: float
    d: int = 1

    def __post_init__(self):
        if self.c <= 0 or self.d not in (1, 2):
            raise KernelError("need c > 0 and d in {1, 2}")

    def __call__(self, *coords) -> np.ndarray:
        out = 1.0
        for x in coords:
            out = out * np.maximum(1 - np.abs(np.asarray(x) / self.c), 0.0) / self.c
        return out


def _cosh_factor(w: np.ndarray) -> np.ndarray:
    """2(cosh w - 1)/w^2 with the removable singularity by 4-term series."""
    w = np.asarray(w, dtype=complex)
    small = np.abs(w) < 1e-4
    ws = np.where(small, 0.0, w)
    with np.errstate(invalid="ignore", divide="ignore"):
        exact = 2 * (np.cosh(ws) - 1) / (ws * ws)
    w2 = w * w
    series = 1 + w2 / 12 * (1 + w2 / 30 * (1 + w2 / 56))
    return np.where(small, series, exact)


def kernel_laplace(c: float, z) -> complex:
    """Two-sided Laplace transform of ``k_c``: prod 2(cosh(c z_j) - 1)/(c z_j)^2."""
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    val = np.prod(_cosh_factor(c * z))
    return complex(val)


def kernel_ft_bound(u_range: tuple, s_max: float = 1e3,
                    n_grid: int = 4000) -> float:
    """M with |2(cosh(u+is)-1)/(u+is)^2| <= M/(1+s^2) on K x R.

    The grid covers |s| <= s_max; beyond that the modulus is dominated by
    2(cosh u + 1)/s^2, giving the asymptotic envelope 4 sup_K (cosh u + 1).
    """
    a, b = float(u_range[0]), float(u_range[1])
    u = np.linspace(a, b, 201)[:, None]
    s = np.linspace(-s_max, s_max, n_grid)[None, :]
    w = u + 1j * s
    vals = (1 + s * s) * np.abs(_cosh_factor(w))
    tail = 4 * (math.cosh(max(abs(a), abs(b))) + 1)
    return max(float(np.max(vals)), tail)


@dataclass
class SmoothedDensity:
    """Smoothed n-fold law, d=1 for a line measure or d=2 for the pair law.

    Both dimensions need a pure Gaussian base (closed-form n-fold and tilted
    laws); d=1 also takes the point mass at 0.
    """
    base: Measure1D
    n: int
    c: Optional[float] = None       # default coupling 1/n
    d: int = 1
    samples: int = 10**5
    seed: int = 0

    def __post_init__(self):
        if self.d not in (1, 2) or self.n < self.d:
            raise KernelError("need d = 1 or 2 and n >= d")
        if self.c is None:
            self.c = 1.0 / self.n
        if self.d == 1 and not _point_mass_at_zero(self.base):
            _gaussian_density(self.base)  # KernelError for other bases


def _point_mass_at_zero(base: Measure1D) -> bool:
    return base.density is None and base.atoms == ((0.0, 1.0),)


def _gaussian_density(base: Measure1D) -> GaussianDensity:
    """The density of a pure Gaussian base; KernelError for any other base."""
    if base.atoms or not isinstance(base.density, GaussianDensity):
        raise KernelError("the smoothed density is implemented for pure "
                          "Gaussian bases (and the point mass at 0 in d=1)")
    return base.density


def phi_estimate(s: SmoothedDensity, x) -> tuple:
    """``(value, std_error)`` of the smoothed density at ``x``.

    d=1 integrates the explicit convolution; its std_error is 0.  d=2 runs
    the tilted, partially integrated Monte Carlo estimator.
    """
    if s.d == 1:
        xv = float(np.atleast_1d(x)[0])
        k = TriangularKernel(s.c, 1)
        if _point_mass_at_zero(s.base):
            return float(k(s.n * xv)), 0.0
        nfold = _gaussian_density(s.base).nfold_pdf(s.n)
        lo, hi = s.n * xv - s.c, s.n * xv + s.c
        val = adaptive_gauss_legendre(
            lambda t: k(t - s.n * xv) * nfold(t), lo, hi,
            tol=1e-14, initial_panels=4)
        return float(val), 0.0
    density = _gaussian_density(s.base)
    x = np.asarray(x, dtype=float)
    scaled, se, nJ = _phi2_tilted(
        s, density, x, RateFunction(LogLaplace(s.base)).solve(x))
    return scaled * math.exp(-nJ), se * math.exp(-nJ)


def _phi2_tilted(s: SmoothedDensity, density: GaussianDensity, x,
                 r: CramerResult) -> tuple:
    """d=2 estimate of ``phi * e^{nJ}`` with its std error, plus ``nJ``,
    given the pair-lift conjugate ``r`` solved at ``x``.

    The last two coordinates are integrated exactly: conditionally on
    ``(S', T')`` of the first n-2 tilted draws, the kernel average over the
    remaining pair is a 2-D integral of the tilted pair convolution density
    over the kernel box, done by a tensor Gauss rule per sample.
    """
    n, c = s.n, s.c
    if not r.converged:
        raise KernelError(f"point {x.tolist()} outside the admissible domain")
    theta = r.argmax
    nJ = n * r.value
    mean, std, pdf = density.tilted_coordinate_law(theta)

    # Gauss rule on the kernel box, split at 0 where k_c has a kink
    gx, gw = np.polynomial.legendre.leggauss(6)
    nodes = np.concatenate([(gx - 1) * c / 2, (gx + 1) * c / 2])
    wts = np.concatenate([gw * c / 2, gw * c / 2])
    ker = TriangularKernel(c, 2)
    U = nodes[:, None].repeat(len(nodes), 1).ravel()
    V = nodes[None, :].repeat(len(nodes), 0).ravel()
    W = (wts[:, None] * wts[None, :]).ravel() * ker(U, V) * np.exp(
        -theta[0] * U - theta[1] * V)

    rng = np.random.default_rng(s.seed)
    total = s.samples
    chunk = max(1, 4 * 10**6 // max(n, 1))
    acc_sum = 0.0
    acc_sq = 0.0
    done = 0
    while done < total:
        m = min(chunk, total - done)
        z = rng.normal(mean, std, size=(m, n - 2))
        Sp = z.sum(axis=1)
        Tp = (z * z).sum(axis=1)
        # pair value needed at (n x1 - S', n x2 - T') plus the box offset
        us = (n * x[0] - Sp)[:, None] + U[None, :]
        vs = (n * x[1] - Tp)[:, None] + V[None, :]
        f2 = convolution_density_f2(pdf, us, vs)
        y = f2 @ W
        acc_sum += float(np.sum(y))
        acc_sq += float(np.sum(y * y))
        done += m
    mean_y = acc_sum / total
    var_y = max(acc_sq / total - mean_y**2, 0.0)
    se = math.sqrt(var_y / total)
    if mean_y <= 0:
        raise KernelError("no mass in the kernel window; estimate unusable")
    return mean_y, se, nJ


def phi_normalization(s: SmoothedDensity, x_lo: float, x_hi: float) -> float:
    """d=1 quadrature of phi over [x_lo, x_hi]; full-line value is 1/n."""
    if s.d != 1:
        raise KernelError("normalization check is a d=1 operation")
    return float(adaptive_gauss_legendre(
        lambda xs: np.array([phi_estimate(s, xv)[0] for xv in xs]),
        x_lo, x_hi, tol=1e-9, initial_panels=32))


def theorem3_comparison(s: SmoothedDensity, R: RateFunction, points) -> list:
    """Rows ``(x, phi, se, asymptotic, ratio)`` at each requested point.

    Refuses lattice base measures: the local CLT needs the Cramer condition.
    For d=2 the common factor ``e^{-nJ}`` is cancelled analytically, so the
    ratio is computed at its natural scale.
    """
    witness = _lattice_witness(CharEvaluator(s.base), 0.5)
    if witness is not None:
        raise KernelError(
            "base measure is lattice-supported and fails the Cramer "
            "condition; the local CLT comparison does not apply")
    n = s.n
    xs = np.asarray(points, dtype=float).reshape(len(points), -1)
    rows = []
    for xv, r in zip(xs, R.solve_many(xs)):
        if not r.converged:
            raise KernelError(f"point {xv.tolist()} outside admissible domain")
        det = float(np.linalg.det(np.atleast_2d(r.hess)))
        pref = (2 * math.pi * n) ** (-s.d / 2) * math.sqrt(det)
        if s.d == 1:
            phi, se = phi_estimate(s, xv)
            asym = pref * math.exp(-n * r.value)
            ratio = phi / asym
            se_ratio = 0.0
        else:
            scaled, se_scaled, nJ = _phi2_tilted(
                s, _gaussian_density(s.base), xv, r)
            asym = pref * math.exp(-nJ)
            ratio = scaled / pref
            phi, se = scaled * math.exp(-nJ), se_scaled * math.exp(-nJ)
            se_ratio = se_scaled / pref
        rows.append({"x": xv.tolist(), "phi": phi, "std_error": se,
                     "asymptotic": asym, "ratio": ratio,
                     "ratio_std_error": se_ratio})
    return rows
