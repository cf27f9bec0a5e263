"""Triangular smoothing kernel, its transform identities and the smoothed
density of the rescaled sums.

``phi_{n,c}(x) = (k_c * nu^{*n})(nx)`` is compared against the local-CLT
asymptotic ``(2 pi n)^{-d/2} (det D2J)^{1/2} e^{-nJ(x)}``.  In both
dimensions the estimator tilts exponentially at the conjugate point of
``x`` so the ``e^{-nJ}`` factor cancels, and integrates the kernel box by
one Gauss rule.  In dimension 1 the tilted n-fold law is normal, so the
rule is the whole estimate.  In dimension 2 it draws only the sufficient
statistics ``(S', T')`` of the first n-2 tilted coordinates and integrates
the last two exactly against the closed-form tilted pair density, which
removes the vanishing-window variance blowup.

``SmoothedDensity`` refuses any base but a pure Gaussian, whose conjugate is
a closed form (``_conjugate``): d = 1 admits every ``x``, d = 2 every ``y >
x^2``.  ``phi_estimate`` is the one-point view of ``theorem3_comparison``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .measure import GaussianDensity, Measure1D
from .quadrature import _HALF_BOX_NODES, _HALF_BOX_WEIGHTS

# Cells per block of ``_pair_window``'s two (sample, node) buffers: 256 KiB
# each, so a block stays in cache and a call touches no freshly mapped
# pages.  Rows come in multiples of 16; with numpy's OpenBLAS that keeps
# every node sum bit-identical to one product over the whole chunk.
_WINDOW_CELLS = 2**15


class KernelError(ValueError):
    pass


@dataclass(frozen=True)
class TriangularKernel:
    c: float
    d: int = 1

    def __post_init__(self):
        if not 0 < self.c < math.inf or self.d not in (1, 2):
            raise KernelError("need 0 < c < inf and d in {1, 2}")

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


@dataclass
class SmoothedDensity:
    """Smoothed n-fold law, d=1 for a line measure or d=2 for the pair law.

    Both dimensions need a pure Gaussian base (closed-form tilted laws);
    construction refuses any other.  Only d=2 with n > 2 draws, at least
    two for a std error; ``samples`` and ``seed`` are unused otherwise.
    """
    base: Measure1D
    n: int
    c: Optional[float] = None       # default coupling 1/n
    d: int = 1
    samples: int = 10**5           # (S', T') draws, d=2 and n > 2 only
    seed: int = 0

    def __post_init__(self):
        if self.d not in (1, 2) or self.n < self.d:
            raise KernelError("need d = 1 or 2 and n >= d")
        if self.c is None:
            self.c = 1.0 / self.n
        if not 0 < self.c < math.inf:
            raise KernelError(f"the coupling c must lie in (0, inf), not {self.c}")
        if self.base.ac_mass <= 0:
            raise KernelError(
                "base measure is purely atomic and fails the Cramer "
                "condition; the local CLT comparison does not apply")
        if self.base.atoms or not isinstance(self.base.density,
                                             GaussianDensity):
            raise KernelError("the smoothed density is implemented for pure "
                              "Gaussian bases")
        if self.d == 2 and self.n > 2 and self.samples < 2:
            raise KernelError("d = 2 at n > 2 needs samples >= 2 for a std "
                              f"error, not {self.samples}")


def phi_estimate(s: SmoothedDensity, x) -> tuple:
    """``(value, std_error)`` of the smoothed density at ``x``: the ``phi``
    and ``std_error`` of ``theorem3_comparison`` at the one point ``x``.
    The std_error is 0 for d=1 and for d=2 at n = 2.
    """
    row = theorem3_comparison(s, [np.atleast_1d(np.asarray(x, dtype=float))])[0]
    return row["phi"], row["std_error"]


def _conjugate(s: SmoothedDensity, x: np.ndarray) -> tuple:
    """``(theta, J, det J'')`` at ``x`` for the base ``N(0, sigma^2)``.
    For d=2 the tilted law is ``N(x, q)``, ``q = y - x^2 > 0``, and ``det
    J''`` is the inverse of ``2 q^3``, the determinant of the tilted
    covariance of ``(z, z^2)``."""
    s2 = s.base.density.sigma ** 2
    if s.d == 1:
        return x / s2, 0.5 * x[0] * x[0] / s2, 1.0 / s2
    q = x[1] - x[0] * x[0]
    if not q > 0:
        raise KernelError(f"point {x.tolist()} outside the admissible domain")
    theta = np.array([x[0] / q, 0.5 / s2 - 0.5 / q])
    return theta, 0.5 * (x[1] / s2 - 1 - math.log(q / s2)), 0.5 / q**3


@np.errstate(all="ignore")  # a box too wide overflows; refused at the end
def _phi_tilted(s: SmoothedDensity, x, theta: np.ndarray) -> tuple:
    """``phi e^{nJ}`` and its std error at ``x``.

    Tilted at the conjugate point ``theta`` the coordinates are i.i.d.
    ``N(mu, s^2)``: ``mu = x1``, and ``s^2 = sigma^2`` for d=1 or ``s^2 =
    x2 - x1^2`` for d=2.  ``phi e^{nJ}`` is the Gauss rule ``sum_j W_j f(n
    x + U_j)`` over the kernel box, split at 0 where k_c has a kink, 6
    nodes per half-axis, with the kernel and ``e^{-<theta, U_j>}`` folded
    into ``W_j``.  For d=1 the tilted n-fold law ``f`` is ``N(n mu, n
    s^2)`` and the std error 0.  For d=2 the first n-2 coordinates enter
    through their sufficient statistics ``S' ~ N((n-2) mu, (n-2) s^2)``
    and, independently, ``T' - S'^2/(n-2) ~ s^2 chi^2_{n-3}``, two draws
    per sample, and the rule integrates the last pair exactly against its
    tilted density (``_pair_window``); at n = 2 nothing is drawn and the
    std error is 0.
    """
    n, c = s.n, s.c
    mean = float(x[0])
    std = s.base.density.sigma if s.d == 1 else math.sqrt(x[1] - mean * mean)

    gx, gw = _HALF_BOX_NODES, _HALF_BOX_WEIGHTS
    nodes = np.concatenate([(gx - 1) * c / 2, (gx + 1) * c / 2])
    wts = np.concatenate([gw * c / 2, gw * c / 2])
    grid = [g.ravel() for g in np.meshgrid(*[nodes] * s.d, indexing="ij")]
    W = np.prod(np.meshgrid(*[wts] * s.d, indexing="ij"), axis=0).ravel() * (
        TriangularKernel(c, s.d)(*grid)) * np.exp(
        -sum(t * g for t, g in zip(theta, grid)))
    if s.d == 1:
        sd = std * math.sqrt(n)
        z = (n * (x[0] - mean) + grid[0]) / sd
        mean_y, se = float(W @ np.exp(-z * z / 2)) / (
            sd * math.sqrt(2 * math.pi)), 0.0
    elif n == 2:
        window = _pair_window(mean, std, *grid, W)
        mean_y, se = float(window(n * x[:1], n * x[1:])[0]), 0.0
    else:
        mean_y, se = _mean_over_draws(s, mean, std, x,
                                      _pair_window(mean, std, *grid, W),
                                      len(W))
    if not 0 < mean_y < math.inf:  # inf or NaN from a box too wide
        raise KernelError("no mass in the kernel window; estimate unusable")
    return mean_y, se


def _mean_over_draws(s: SmoothedDensity, mean: float, std: float, x, window,
                     nodes: int) -> tuple:
    """Mean of ``window`` over ``s.samples`` tilted ``(S', T')`` draws, and
    its std error, in chunks of about 2^20 cells of ``nodes`` each."""
    n = s.n
    rng = np.random.default_rng(s.seed)
    total = s.samples
    chunk = max(1, 2**20 // nodes)
    acc_sum = 0.0
    acc_sq = 0.0
    done = 0
    while done < total:
        m = min(chunk, total - done)
        Sp, Tp = _tilted_sums(s.base.density, n - 2, mean, std, m, rng)
        # the last pair must add up to (n x1 - S', n x2 - T') at the centre
        y = window(n * x[0] - Sp, n * x[1] - Tp)
        acc_sum += float(np.sum(y))
        acc_sq += float(np.sum(y * y))
        done += m
    mean_y = acc_sum / total
    var_y = max(acc_sq / total - mean_y**2, 0.0)
    return mean_y, math.sqrt(var_y / total)


def _tilted_sums(density: GaussianDensity, k: int, mean: float, std: float,
                 size: int, rng: np.random.Generator) -> tuple:
    """``(sum Z, sum Z^2)`` of ``k >= 1`` i.i.d. ``N(mean, std^2)`` draws,
    ``size`` times over: the base's centred block sums, rescaled from its
    ``sigma`` to ``std`` and shifted by ``mean``."""
    zs, zss = density.block_sums(k, size, rng)
    scale = std / density.sigma
    zs *= scale
    zss *= scale * scale
    return zs + k * mean, zss + 2 * mean * zs + k * mean * mean


def _pair_window(mean: float, std: float, U, V, W):
    """``(a, b) -> sum_j W_j f2(a_i + U_j, b_i + V_j)`` per sample ``i``.

    ``f2`` is the density of ``(Z1 + Z2, Z1^2 + Z2^2)`` for ``Z1, Z2``
    i.i.d. ``N(mean, std^2)``: with ``d^2 = 2v - u^2`` it is ``f(p) f(q) /
    d`` at ``p, q = (u +- d)/2`` on ``{d^2 > 0}`` and 0 elsewhere.  As
    ``f(p) f(q) = exp(-(v - 2 mean u + 2 mean^2) / 2 std^2) / (2 pi
    std^2)`` is log-linear in ``(u, v)``, it splits into a factor per
    sample and a factor per node, which is folded into ``W`` once; each
    cell then costs only ``1{d^2 > 0} / d``.
    """
    h = 0.5 / (std * std)
    Wf = W * np.exp(-h * (V - 2 * mean * U)) * (h / math.pi)
    u_max, v_max = float(np.max(np.abs(U))), float(np.max(V))
    block = max(16, _WINDOW_CELLS // len(W) // 16 * 16)

    def window(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        out = np.zeros(a.shape)
        # only these samples can have a cell inside the parabola; on them the
        # sample's exponent is at most h (2 |mean| u_max + v_max), so its
        # factor cannot overflow
        near = 2 * (b + v_max) > np.maximum(np.abs(a) - u_max, 0.0) ** 2
        a, b = a[near], b[near]
        # two (sample, node) buffers of about _WINDOW_CELLS cells, reused
        # block by block and updated in place: d2 = 2 (b + V) - (a + U)^2,
        # then cell
        rows = min(block, max(len(a), 1))
        cell, d2 = np.empty((rows, len(W))), np.empty((rows, len(W)))
        inside = np.empty((rows, len(W)), dtype=bool)
        sums = np.empty(len(a))
        for lo in range(0, len(a), rows):
            m = min(rows, len(a) - lo)
            c, d, ins = cell[:m], d2[:m], inside[:m]
            np.add(a[lo:lo + m, None], U, out=c)
            np.add(b[lo:lo + m, None], V, out=d)
            d *= 2
            c *= c
            d -= c
            np.greater(d, 0, out=ins)
            c.fill(0.0)
            np.sqrt(d, where=ins, out=c)
            np.divide(1.0, c, where=ins, out=c)
            np.matmul(c, Wf, out=sums[lo:lo + m])
        out[near] = np.exp(-h * (b - 2 * mean * a + 2 * mean * mean)) * sums
        return out

    return window


def theorem3_comparison(s: SmoothedDensity, points) -> list:
    """Rows ``(x, phi, se, asymptotic, ratio)`` at each requested point.

    The conjugates are closed forms (``_conjugate``).  The common factor
    ``e^{-nJ}`` cancels analytically, so in every dimension the ratio is the
    tilted estimate over the prefactor, and ``phi``, ``se`` and
    ``asymptotic`` are their tilted values times ``e^{-nJ}`` (they underflow
    to 0 when nJ > 745, the ratio does not).
    """
    xs = np.asarray(points, dtype=float).reshape(len(points), -1)
    rows = []
    for xv in xs:
        theta, J, det = _conjugate(s, xv)
        scaled, se = _phi_tilted(s, xv, theta)
        pref = (2 * math.pi * s.n) ** (-s.d / 2) * math.sqrt(det)
        decay = math.exp(-s.n * J)
        rows.append({"x": xv.tolist(), "phi": scaled * decay,
                     "std_error": se * decay, "asymptotic": pref * decay,
                     "ratio": scaled / pref, "ratio_std_error": se / pref})
    return rows
