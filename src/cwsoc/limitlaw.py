"""The universal quartic limit law and the verification pipeline.

The rescaled sum converges to the law with density proportional to
``exp(-s^4/12)``, whose CDF is a fixed Gauss-Legendre rule on unit knot
intervals.  Verification reports bundle KS distances, moment comparisons and
the Cramer-condition flag of the base measure.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .cramer import verdict_rule
from .measure import _NODES, _WEIGHTS
from .model import EmpiricalBatch, TiltedModel, rescaled_statistic


class LimitLawError(ValueError):
    pass


def _panel(lo, h):
    """``int_lo^{lo+h} exp(-z^4/12) dz`` by one Gauss-Legendre panel."""
    z = np.asarray(lo)[..., None] + np.multiply.outer(h, (1 + _NODES) / 2)
    z *= z  # -z^4/12 in one buffer: squaring and in-place steps beat z**4
    z *= z
    z /= -12
    return h / 2 * (np.exp(z, out=z) @ _WEIGHTS)


class QuarticLaw:
    """Fixed law with density (4/3)^{1/4} Gamma(1/4)^{-1} exp(-s^4/12)."""

    def __init__(self):
        self.norm = (4.0 / 3.0) ** 0.25 / math.gamma(0.25)
        self._knots = np.cumsum(np.r_[0.0, _panel(np.arange(8.0), 1.0)])

    def pdf(self, s):
        s = np.asarray(s, dtype=float)
        return self.norm * np.exp(-s**4 / 12)

    def cdf(self, s):
        """``1/2 + sign(s) norm int_0^{min(|s|, 8)} exp(-z^4/12) dz``, as the
        integral to the knot below, from ``_knots``, plus one panel.  The cut
        drops e^{-341}, the rule errs by 3e-27 (notes/decisions.md)."""
        s = np.asarray(s, dtype=float)
        a = np.fmin(np.abs(s), 8.0)  # NaN to 8, a valid knot; F stays NaN
        j = np.floor(a)
        return 0.5 + np.sign(s) * self.norm * (
            self._knots[j.astype(int)] + _panel(j, a - j))

    def moment(self, k: int) -> float:
        if k < 0:
            raise LimitLawError("moment order must be nonnegative")
        if k % 2 == 1:
            return 0.0
        return 12 ** (k / 4) * math.gamma((k + 1) / 4) / math.gamma(0.25)

    def sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """``count`` exact draws by rejection from the normal law of variance
        sqrt(3); the density ratio peaks at s^2 = sqrt(3), and 79.7 % pass."""
        out = np.empty(0)
        while len(out) < count:
            s = rng.normal(0.0, 3**0.25, (count - len(out)) * 5 // 4 + 8)
            keep = rng.random(len(s)) < np.exp(-(s * s - math.sqrt(3)) ** 2 / 12)
            out = np.concatenate((out, s[keep]))
        return out[:count]


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


def _batch_details(batch: EmpiricalBatch) -> dict:
    """The batch's record of its precision: an enumeration is the exact law
    up to its ``truncated_mass_bound``, a sampled batch has the ESS its
    sampler recorded, if any; weights alone are not a sample."""
    d = batch.diagnostics
    if batch.method == "enumeration":
        return {"exact": True,
                "truncated_mass_bound": d.get("truncated_mass_bound")}
    ess = d.get("effective_sample_size")
    return {} if ess is None else {"effective_sample_size": float(ess)}


def verify_lln(m: TiltedModel, batch: EmpiricalBatch,
               tol: float) -> VerificationReport:
    """Check the weighted means of (S/n, T/n) against (0, sigma^2)."""
    s2 = m.rho.moments.sigma2
    p = batch.normalized_weight
    x, y = batch.S / m.n, batch.T / m.n
    mean_x, mean_y = float(np.sum(p * x)), float(np.sum(p * y))
    table = {"mean_x": mean_x, "mean_y": mean_y, "target_y": s2}
    details = _batch_details(batch)
    ess = details.get("effective_sample_size")
    if ess is not None:
        table["se_x"] = float(np.sqrt(np.sum(p * (x - mean_x) ** 2) / ess))
        table["se_y"] = float(np.sqrt(np.sum(p * (y - mean_y) ** 2) / ess))
    ok = abs(mean_x) <= tol and abs(mean_y - s2) <= tol
    return VerificationReport(
        test_id="lln", n=m.n, method=batch.method, passed=bool(ok),
        moment_table=table, tolerances={"tol": tol},
        cramer_flag=_cramer_flag(m), details=details)


def verify_fluctuations(m: TiltedModel, batch: EmpiricalBatch,
                        tol_ks: float) -> VerificationReport:
    """KS and moment comparison of the rescaled statistic vs the quartic law."""
    law = QuarticLaw()
    vals, w = rescaled_statistic(m, batch)
    s, emp = empirical_cdf(vals, w)
    limit = law.cdf(s)
    ks = _sup_gap(emp, limit)
    v2 = vals * vals
    m2 = float(np.sum(w * v2))
    v2 *= v2
    m4 = float(np.sum(w * v2))
    flag = _cramer_flag(m)
    report = VerificationReport(
        test_id="fluctuations", n=m.n, method=batch.method,
        passed=bool(ks <= tol_ks), ks_distance=ks,
        moment_table={"moment2": m2, "moment2_limit": law.moment(2),
                      "moment4": m4, "moment4_limit": law.moment(4)},
        tolerances={"tol_ks": tol_ks}, cramer_flag=flag,
        details=_batch_details(batch),
        cdf=(s, emp, limit))
    if flag != "yes":
        report.details["hypothesis_caveat"] = (
            "base measure does not certify the Cramer condition; the "
            "fluctuation theorem's hypotheses are not met")
    return report
