"""Oracles and statistics the benchmark checks cwsoc's outputs against.

Everything here is the benchmark's own code: a change to cwsoc's samplers,
diagnostics or limit-law helpers cannot move these estimators or loosen
these gates.  Deterministic outputs are compared with values pinned from the
seed commit (``reference.json``); Monte Carlo outputs are gated statistically
at the benchmark's own effective sample size, so a correct change to a random
stream does not fail.
"""
from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np
from scipy.special import gammainc, gammaln, logsumexp

REFERENCE_PATH = Path(__file__).with_name("reference.json")

# Per-gate false-rejection level.  Comparing two commits over ten seeds
# each evaluates a few thousand Monte Carlo gates, so the level keeps the
# expected number of false failures far below one.
GATE_LEVEL = 1e-6
# Monte Carlo standard-error multiple for the kernel ratio gate.
KERNEL_SE_MULT = 5.0
# Local-CLT bias allowance for the d = 2 kernel ratio at n = 40, point
# (0.1, 1.05): a 10^6-sample run of the seed commit gives 0.982 +- 0.008.
KERNEL_BIAS = 0.05

# Tolerances for deterministic outputs pinned from the seed commit.
TOL_LOG_Z_REL = 1e-10
TOL_KS = 1e-9
TOL_MEAN = 1e-9
TOL_RATE = 1e-7          # the criterion-1 accuracy of the rate solver
TOL_SUP_ESTIMATE = 1e-6
TOL_SUP_BOUND = 1e-5
TOL_KERNEL_ASYM_REL = 1e-8


class GateError(AssertionError):
    """An output missed its oracle; the operation counts as failed."""


def check(cond, message: str) -> None:
    if not cond:
        raise GateError(message)


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def close(value, ref, abs_tol=0.0, rel_tol=0.0) -> bool:
    return abs(value - ref) <= abs_tol + rel_tol * abs(ref)


# ---------------------------------------------------------------------------
# effective sample size

def kish_ess(weights) -> float:
    w = np.asarray(weights, dtype=float)
    return float(np.sum(w)) ** 2 / float(np.sum(w * w))


def chain_diagnostics(series) -> dict:
    """Split-R-hat and ESS of an array shaped (chains, records).

    Each chain is split in half; the autocorrelation is the chain-averaged
    FFT estimate combined with the between-chain variance, truncated by
    Geyer's initial monotone sequence (Vehtari et al. 2021, without rank
    normalization).  ``tau`` is in records.
    """
    x = np.asarray(series, dtype=float)
    if x.ndim != 2 or x.shape[1] < 4:
        raise ValueError("series must be (chains, records) with >= 4 records")
    half = x.shape[1] // 2
    x = np.concatenate([x[:, :half], x[:, x.shape[1] - half:]])
    m, n = x.shape
    means = x.mean(axis=1)
    centred = x - means[:, None]
    nfft = 1 << (2 * n - 1).bit_length()
    f = np.fft.rfft(centred, n=nfft, axis=1)
    acov = np.fft.irfft(f * np.conj(f), n=nfft, axis=1)[:, :n] / n
    w = acov[:, 0].mean() * n / (n - 1)
    b = n * means.var(ddof=1) if m > 1 else 0.0
    var_plus = (n - 1) / n * w + b / n
    rhat = math.sqrt(var_plus / w) if w > 0 else math.inf
    if var_plus <= 0:
        return {"ess": float(m * n), "tau": 1.0, "rhat": rhat}
    rho = 1.0 - (w - acov.mean(axis=0)) / var_plus
    rho[0] = 1.0
    tau = -1.0
    prev = math.inf
    for k in range(0, n - 1, 2):
        pair = rho[k] + rho[k + 1]
        if pair <= 0:
            break
        pair = min(pair, prev)
        tau += 2.0 * pair
        prev = pair
    tau = max(tau, 1.0 / math.log10(m * n))
    return {"ess": float(m * n / tau), "tau": float(tau), "rhat": float(rhat)}


# ---------------------------------------------------------------------------
# Kolmogorov-Smirnov distances

def kolmogorov_critical(n_eff: float, level: float = GATE_LEVEL) -> float:
    return math.sqrt(-0.5 * math.log(level / 2)) / math.sqrt(n_eff)


def weighted_cdf(values, weights):
    """Right-continuous weighted empirical CDF as a callable."""
    order = np.argsort(values, kind="stable")
    v = np.asarray(values, dtype=float)[order]
    c = np.cumsum(np.asarray(weights, dtype=float)[order])
    c /= c[-1]

    def cdf(x):
        i = np.searchsorted(v, x, side="right")
        return np.where(i > 0, c[np.maximum(i - 1, 0)], 0.0)
    return cdf


def ks_continuous(values, weights, cdf) -> float:
    """Sup distance between a weighted sample and a continuous CDF."""
    order = np.argsort(values, kind="stable")
    v = np.asarray(values, dtype=float)[order]
    w = np.asarray(weights, dtype=float)[order]
    c = np.cumsum(w) / np.sum(w)
    F = cdf(v)
    below = np.concatenate([[0.0], c[:-1]])
    return float(max(np.max(np.abs(c - F)), np.max(np.abs(below - F))))


def ks_discrete(values, weights, support, probs) -> float:
    """Sup distance between a weighted sample and a law on ``support``.

    Both CDFs jump only at support points, so the sup is taken there.  A
    sample value off the support is a gate failure in itself.
    """
    support = np.asarray(support, dtype=float)
    idx = np.searchsorted(support, values)
    idx = np.minimum(idx, len(support) - 1)
    check(np.all(np.abs(support[idx] - values) <= 1e-9),
          "sample value outside the exact support")
    emp = np.bincount(idx, weights=weights, minlength=len(support))
    emp = emp / emp.sum()
    return float(np.max(np.abs(np.cumsum(emp) - np.cumsum(probs))))


def ks_two_sample(a, wa, b, wb) -> float:
    grid = np.union1d(a, b)
    return float(np.max(np.abs(weighted_cdf(a, wa)(grid)
                               - weighted_cdf(b, wb)(grid))))


def quartic_cdf(s):
    """CDF of the law with density proportional to exp(-s^4/12)."""
    s = np.asarray(s, dtype=float)
    return 0.5 * (1 + np.sign(s) * gammainc(0.25, s**4 / 12))


# ---------------------------------------------------------------------------
# exact finite-n laws

def gaussian_quadratic_cdf(n: int, v_max: float = 5.0, points: int = 2001,
                           r_points: int = 6000):
    """CDF of ``v = 3^{1/4} S / n^{3/4}`` for rho = N(0, 1) and g(u) = u^2/2.

    With ``R = T - S^2/n ~ chi2(n - 1)`` independent of ``S ~ N(0, n)``, the
    tilted density of S is ``phi(S/sqrt n) E_R exp(S^2 / (2 (R + S^2/n)))``;
    the expectation is a logsumexp over a fine grid of R.
    """
    k = n - 1
    r = np.linspace(0.0, k + 30 * math.sqrt(2 * k), r_points + 1)[1:]
    log_fr = (k / 2 - 1) * np.log(r) - r / 2 - gammaln(k / 2) - k / 2 * math.log(2)
    log_fr += math.log(r[1] - r[0])
    v = np.linspace(-v_max, v_max, points)
    S = v * n**0.75 / 3**0.25
    logd = np.empty(points)
    for lo in range(0, points, 256):
        s2 = S[lo:lo + 256, None] ** 2
        logd[lo:lo + 256] = logsumexp(
            log_fr[None, :] + s2 / (2 * (r[None, :] + s2 / n)), axis=1) \
            - s2[:, 0] / (2 * n)
    dens = np.exp(logd - logd.max())
    cum = np.concatenate([[0.0], np.cumsum((dens[1:] + dens[:-1]) / 2)])
    cum /= cum[-1]
    return lambda x: np.interp(x, v, cum, left=0.0, right=1.0)


def three_point_s_law(n: int, p: float = 0.25):
    """Exact law of S for the three-point(p) base with g(u) = u^2/2.

    Sums the multinomial classes ``(k+, k-)`` with ``T = k+ + k- > 0``.
    Returns ``(support, probs)`` with the support sorted.
    """
    kp, km = np.meshgrid(np.arange(n + 1), np.arange(n + 1), indexing="ij")
    ok = (kp + km <= n) & (kp + km > 0)
    kp, km = kp[ok].astype(float), km[ok].astype(float)
    S, T = kp - km, kp + km
    logw = (gammaln(n + 1) - gammaln(kp + 1) - gammaln(km + 1)
            - gammaln(n - T + 1) + T * math.log(p)
            + (n - T) * math.log(1 - 2 * p) + S * S / (2 * T))
    w = np.exp(logw - logw.max())
    support, inv = np.unique(S, return_inverse=True)
    probs = np.bincount(inv, weights=w)
    return support, probs / probs.sum()


def rho0_importance_reference(n: int, count: int, rng, chunk: int = 20_000):
    """Independent importance sample of S under rho0 with g(u) = u^2/2.

    rho0 has atoms 1/16 at -1 and +1, 3/4 at 0, and N(0, 1) mass 1/8; it is
    drawn here with numpy directly, not with cwsoc's sampler.  Returns
    ``(S, weights)`` over the draws with ``T > 0``.
    """
    S_all, lw_all = [], []
    for lo in range(0, count, chunk):
        u = rng.random((min(chunk, count - lo), n))
        z = np.where(u < 1 / 16, -1.0, np.where(u < 2 / 16, 1.0, 0.0))
        gauss = u >= 14 / 16
        z[gauss] = rng.standard_normal(int(gauss.sum()))
        S, T = z.sum(axis=1), (z * z).sum(axis=1)
        alive = T > 0
        S_all.append(S[alive])
        lw_all.append(S[alive] ** 2 / (2 * T[alive]))
    lw = np.concatenate(lw_all)
    return np.concatenate(S_all), np.exp(lw - lw.max())


# ---------------------------------------------------------------------------
# gates on single outputs

def gate_rate_grid(rows, ref: dict, closed_form=None) -> int:
    """Compare ``(x, y, value, converged)`` rows with the pinned grid.

    Returns the number of converged points.
    """
    rows = np.asarray(rows, dtype=float)
    check(rows.shape == (len(ref["value"]), 4),
          f"rate grid has shape {rows.shape}")
    conv = rows[:, 3].astype(bool)
    check(np.array_equal(conv, np.asarray(ref["converged"], dtype=bool)),
          "rate grid convergence pattern drifted")
    val = rows[:, 2]
    pinned = np.asarray(ref["value"], dtype=float)
    check(np.all(np.abs(val[conv] - pinned[conv]) <= TOL_RATE),
          "rate grid value drifted from the pinned reference: max "
          f"{np.max(np.abs(val[conv] - pinned[conv])):.3e}")
    if closed_form is not None:
        exact = closed_form(rows[:, 0], rows[:, 1])
        err = np.max(np.abs(val[conv] - exact[conv]))
        check(err <= TOL_RATE, f"rate grid misses the closed form by {err:.3e}")
    return int(conv.sum())


def gaussian_rate(x, y):
    return (y - 1 - np.log(y - x * x)) / 2


def gate_cramer(payload: dict, ref: dict) -> None:
    check(payload["verdict"] == ref["verdict"],
          f"Cramer verdict {payload['verdict']!r}, expected {ref['verdict']!r}")
    check(close(payload["sup_estimate"], ref["sup_estimate"], TOL_SUP_ESTIMATE),
          f"sup_estimate {payload['sup_estimate']} drifted from "
          f"{ref['sup_estimate']}")
    if ref["verdict"] == "fail":
        check(payload["witness"] is not None, "failing verdict without witness")
        return
    check(payload["sup_bound"] is not None and payload["sup_bound"] < 1,
          "passing verdict without a bound below 1")
    check(close(payload["sup_bound"], ref["sup_bound"], TOL_SUP_BOUND),
          f"sup_bound {payload['sup_bound']} drifted from {ref['sup_bound']}")
    check(payload["sup_bound"] >= payload["sup_estimate"],
          "certified bound below the estimate it bounds")


def atomic_char_modulus(atoms, s: float, t: float) -> float:
    return abs(sum(p * complex(math.cos(s * z + t * z * z),
                               math.sin(s * z + t * z * z)) for z, p in atoms))


def gaussian_char_sup(alpha: float, points: int = 100_001) -> float:
    """sup of |M(s, t)| for N(0, 1) over the circle of radius alpha.

    ``|M| = exp(-s^2 / (2 (1 + 4 t^2))) (1 + 4 t^2)^{-1/4}`` decays along
    every ray, so the sup over the annulus sits on its inner circle.
    """
    th = np.linspace(0, 2 * math.pi, points)
    s, t = alpha * np.cos(th), alpha * np.sin(th)
    q = 1 + 4 * t * t
    return float(np.max(np.exp(-s * s / (2 * q)) / q**0.25))


def gate_kernel_ratio(ratio: float, se: float) -> None:
    check(math.isfinite(ratio) and se > 0, "kernel ratio not finite")
    check(abs(ratio - 1) <= KERNEL_SE_MULT * se + KERNEL_BIAS,
          f"kernel ratio {ratio:.4f} +- {se:.4f} not within "
          f"{KERNEL_SE_MULT} se + {KERNEL_BIAS} of 1")


def gate_manifest(out_dir: Path, manifest: dict) -> None:
    """Recompute the sha256 of every artifact the manifest lists."""
    names = sorted(p.name for p in out_dir.iterdir()
                   if p.is_file() and p.name != "manifest.json")
    check(sorted(manifest["artifacts"]) == names,
          "manifest does not list exactly the artifacts on disk")
    for name in names:
        digest = hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
        check(manifest["artifacts"][name] == digest, f"digest of {name} wrong")
