"""The universal quartic limit law and the verification pipeline.

The rescaled sum converges to the law with density proportional to
``exp(-s^4/12)``; everything about that law reduces to incomplete Gamma
functions.  Verification reports bundle KS distances, moment comparisons and
the Cramer-condition flag of the base measure.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .cramer import verdict_rule
from .model import EmpiricalBatch, TiltedModel, rescaled_statistic


class LimitLawError(ValueError):
    pass


class QuarticLaw:
    """Fixed law with density (4/3)^{1/4} Gamma(1/4)^{-1} exp(-s^4/12)."""

    def __init__(self):
        self.norm = (4.0 / 3.0) ** 0.25 / math.gamma(0.25)

    def pdf(self, s):
        s = np.asarray(s, dtype=float)
        return self.norm * np.exp(-s**4 / 12)

    def cdf(self, s):
        from scipy.special import gammainc  # kept off the import path

        s = np.asarray(s, dtype=float)
        return 0.5 * (1 + np.sign(s) * gammainc(0.25, s**4 / 12))

    def ppf(self, q):
        from scipy.special import gammaincinv  # kept off the import path

        q = np.asarray(q, dtype=float)
        if np.any((q <= 0) | (q >= 1)):
            raise LimitLawError("quantile level must lie in (0, 1)")
        return np.sign(q - 0.5) * (12 * gammaincinv(0.25, np.abs(2 * q - 1))) ** 0.25

    def moment(self, k: int) -> float:
        if k < 0:
            raise LimitLawError("moment order must be nonnegative")
        if k % 2 == 1:
            return 0.0
        return 12 ** (k / 4) * math.gamma((k + 1) / 4) / math.gamma(0.25)

    def sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        return self.ppf(rng.random(count))


def empirical_cdf(values, weights) -> tuple:
    """The weighted empirical CDF at its steps: the distinct ``values``,
    ascending, and the share of the total weight at or below each."""
    if len(values) == 0:
        raise LimitLawError("empty batch")
    s, where = np.unique(np.asarray(values, dtype=float), return_inverse=True)
    cum = np.cumsum(np.bincount(where, weights=weights))
    if cum[-1] <= 0:
        raise LimitLawError("all-zero weights")
    return s, cum / cum[-1]


def ks_distance(values, weights, law: Optional[QuarticLaw] = None) -> float:
    """Sup distance between the weighted empirical CDF and the law's CDF."""
    s, emp = empirical_cdf(values, weights)
    return _sup_gap(emp, (law or QuarticLaw()).cdf(s))


def _sup_gap(emp, F) -> float:
    """KS distance from the empirical CDF ``emp`` and the law's CDF ``F``,
    both at the steps: the gap is largest at a step or just below it."""
    below = np.concatenate(([0.0], emp[:-1]))
    return float(max(np.abs(emp - F).max(), np.abs(below - F).max()))


def kolmogorov_critical(n_eff: float, level: float = 0.01) -> float:
    """Asymptotic Kolmogorov critical value at the given level."""
    return math.sqrt(-0.5 * math.log(level / 2)) / math.sqrt(n_eff)


@dataclass
class VerificationReport:
    test_id: str
    n: int
    method: str
    passed: bool
    cramer_flag: str   # 'yes' | 'no' | 'inconclusive', see _cramer_flag
    ks_distance: Optional[float] = None
    moment_table: dict = field(default_factory=dict)
    tolerances: dict = field(default_factory=dict)
    details: dict = field(default_factory=dict)
    # fluctuation reports: (s, empirical CDF, limit CDF) at the steps
    cdf: Optional[tuple] = None

    def __post_init__(self):
        if self.ks_distance is not None:
            assert 0.0 <= self.ks_distance <= 1.0


def _cramer_flag(m: TiltedModel) -> str:
    """The (C) flag of ``cramer.verdict_rule`` on the base: ``yes`` for
    ``pass``, ``no`` for ``fail``, ``inconclusive`` otherwise."""
    flags = {"pass": "yes", "fail": "no"}
    return flags.get(verdict_rule(m.rho), "inconclusive")


def _batch_ess(batch: EmpiricalBatch) -> float:
    ess = batch.diagnostics.get("effective_sample_size")
    if ess is not None:
        return float(ess)
    w = batch.weight
    return float(np.sum(w)) ** 2 / float(np.sum(w * w))


def verify_lln(m: TiltedModel, batch: EmpiricalBatch,
               tol: float) -> VerificationReport:
    """Check the weighted means of (S/n, T/n) against (0, sigma^2)."""
    s2 = m.rho.moments.sigma2
    mean_x = batch.weighted_mean(batch.S / m.n)
    mean_y = batch.weighted_mean(batch.T / m.n)
    ess = _batch_ess(batch)
    se_x = float(np.sqrt(batch.weighted_mean((batch.S / m.n - mean_x) ** 2) / ess))
    se_y = float(np.sqrt(batch.weighted_mean((batch.T / m.n - mean_y) ** 2) / ess))
    ok = abs(mean_x) <= tol and abs(mean_y - s2) <= tol
    return VerificationReport(
        test_id="lln", n=m.n, method=batch.method, passed=bool(ok),
        moment_table={"mean_x": mean_x, "mean_y": mean_y, "target_y": s2,
                      "se_x": se_x, "se_y": se_y},
        tolerances={"tol": tol}, cramer_flag=_cramer_flag(m),
        details={"effective_sample_size": ess})


def verify_fluctuations(m: TiltedModel, batch: EmpiricalBatch,
                        tol_ks: float) -> VerificationReport:
    """KS and moment comparison of the rescaled statistic vs the quartic law."""
    law = QuarticLaw()
    vals, w = rescaled_statistic(m, batch)
    s, emp = empirical_cdf(vals, w)
    limit = law.cdf(s)
    ks = _sup_gap(emp, limit)
    m2 = float(np.sum(w * vals**2))
    m4 = float(np.sum(w * vals**4))
    flag = _cramer_flag(m)
    report = VerificationReport(
        test_id="fluctuations", n=m.n, method=batch.method,
        passed=bool(ks <= tol_ks), ks_distance=ks,
        moment_table={"moment2": m2, "moment2_limit": law.moment(2),
                      "moment4": m4, "moment4_limit": law.moment(4)},
        tolerances={"tol_ks": tol_ks}, cramer_flag=flag,
        details={"effective_sample_size": _batch_ess(batch)},
        cdf=(s, emp, limit))
    if flag != "yes":
        report.details["hypothesis_caveat"] = (
            "base measure does not certify the Cramer condition; the "
            "fluctuation theorem's hypotheses are not met")
    return report
