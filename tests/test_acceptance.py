"""End-to-end acceptance checks, one per numbered criterion.

Each test prints a single pass/fail line (through the disabled capture
handle, so the lines show up in a plain ``pytest -v`` run) and then asserts.
Criterion 9 is implemented exactly as stated; see the decision notes for why
the monotonicity it asks for does not hold at p = 1/4.
"""
import math
import time

import numpy as np
import pytest

from cwsoc import cramer, kernel, measure, model, transforms
from cwsoc.limitlaw import (
    QuarticLaw,
    kolmogorov_critical,
    ks_distance,
    verify_fluctuations,
    verify_lln,
)


def _report(capsys, num: int, ok: bool, detail: str = "") -> None:
    with capsys.disabled():
        print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}  {detail}")


def _gaussian_rate(x, y):
    return (y - 1 - math.log(y - x * x)) / 2


def test_criterion_01_gaussian_rate_oracle(capsys):
    t0 = time.perf_counter()
    R = transforms.RateFunction(measure.gaussian())
    worst = 0.0
    for x in np.linspace(-0.5, 0.5, 21):
        for y in np.linspace(0.6, 2.0, 21):
            r = R.solve([x, y])
            worst = max(worst, abs(r.value - _gaussian_rate(x, y)))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-7 and elapsed < 10.0
    _report(capsys, 1, ok, f"max |I - closed form| = {worst:.2e} on 21x21 grid, "
                           f"{elapsed:.1f}s")
    assert ok


def test_criterion_02_rate_expansion(capsys):
    angles = np.linspace(0.0, 2 * math.pi, 16, endpoint=False)
    points = [(r * math.cos(a), 1.0 + r * math.sin(a))
              for r in (0.02, 0.05) for a in angles]
    lo, hi = math.inf, -math.inf
    R = transforms.RateFunction(measure.gaussian())
    for g in (model.quadratic(), model.quartic(1.0),
              model.quartic(1.0, "star")):
        for x, y in points:
            res = transforms.rate_expansion_residual(R, g, x, y)
            lo, hi = min(lo, res), max(hi, res)
    ok = 0.95 <= lo and hi <= 1.05
    _report(capsys, 2, ok,
            f"expansion residual in [{lo:.4f}, {hi:.4f}] over 32 probes x 3 g")
    assert ok


def test_criterion_03_cramer_verdicts(capsys):
    t0 = time.perf_counter()
    r_rad = cramer.check_condition(measure.rademacher(), alpha=0.5)
    r_gau = cramer.check_condition(measure.gaussian(), alpha=0.5)
    r_rho0 = cramer.check_condition(measure.rho_zero(), alpha=0.5)
    elapsed = time.perf_counter() - t0
    ok = (r_rad.verdict == "fail" and r_rad.witness is not None
          and r_gau.verdict == "pass"
          and r_rho0.verdict == "pass" and r_rho0.sup_bound is not None
          and r_rho0.sup_bound < 1.0
          and elapsed < 180.0)
    _report(capsys, 3, ok,
            f"rademacher={r_rad.verdict} gaussian={r_gau.verdict} "
            f"rho0={r_rho0.verdict} (bound {r_rho0.sup_bound:.6f}), "
            f"{elapsed:.1f}s total")
    assert ok


def test_criterion_04_kernel_laplace_identity(capsys):
    rng = np.random.default_rng(2024)
    worst = 0.0
    cases = [(rng.uniform(0.05, 2.0), 0.0) for _ in range(100)]
    for i in range(len(cases)):
        c = cases[i][0]
        if i < 5:
            z = rng.uniform(-1, 1) * 1e-4 / c  # exercise the series branch
        else:
            z = rng.uniform(-5, 5) / c
        cases[i] = (c, z)
    from scipy import integrate
    for c, z in cases:
        direct = integrate.quad(
            lambda x: math.exp(x * z) * max(0.0, 1 - abs(x) / c) / c,
            -c, c, points=[0.0], epsabs=1e-13, epsrel=0)[0]
        worst = max(worst, abs(kernel.kernel_laplace(c, z) - direct))
    ok = worst < 1e-10
    _report(capsys, 4, ok,
            f"max |Laplace identity - quadrature| = {worst:.2e} over 100 draws")
    assert ok


def test_criterion_05_smoothed_density_ratios(capsys):
    base = measure.gaussian()
    xs = [[x] for x in np.arange(-0.4, 0.41, 0.1)]
    devs = {}
    for n, tol in ((50, 0.1), (200, 0.05)):
        s = kernel.SmoothedDensity(base=base, n=n, d=1)
        rows = kernel.theorem3_comparison(s, xs)
        devs[n] = max(abs(r["ratio"] - 1.0) for r in rows)
    s2 = kernel.SmoothedDensity(base=base, n=40, d=2, samples=10**6, seed=11)
    row = kernel.theorem3_comparison(s2, [[0.1, 1.05]])[0]
    dev2 = abs(row["ratio"] - 1.0)
    ok = (devs[50] <= 0.1 and devs[200] <= 0.05
          and dev2 <= 0.15 and row["ratio_std_error"] < 0.05)
    _report(capsys, 5, ok,
            f"d=1 max|ratio-1|: n=50 {devs[50]:.3f}, n=200 {devs[200]:.3f}; "
            f"d=2 n=40 ratio {row['ratio']:.4f} "
            f"+- {row['ratio_std_error']:.4f}")
    assert ok


def _atom_law(batch):
    """Weighted probabilities of the S atoms plus per-atom standard errors."""
    w = batch.normalized_weight
    ess = batch.diagnostics.get("effective_sample_size")
    if ess is None:
        ess = float(np.sum(w)) ** 2 / float(np.sum(w * w))
    out = {}
    for s in np.unique(batch.S):
        p = float(np.sum(w[batch.S == s]))
        out[float(s)] = (p, math.sqrt(max(p * (1 - p), 0.0) / ess))
    return out


def test_criterion_06_sampler_cross_validation(capsys):
    rho = measure.rademacher()
    worst_sigma = 0.0
    for n in (2, 4, 8):
        m = model.TiltedModel(rho=rho, g=model.quadratic(), n=n)
        exact = _atom_law(model.enumerate_exact(m))
        rng = np.random.default_rng(5)
        for batch in (model.sample_importance(m, 200_000, rng),
                      model.sample_metropolis(m, 64 * 2048, rng=rng,
                                              chains=64)):
            emp = _atom_law(batch)
            for s, (p, _) in exact.items():
                phat, se = emp.get(s, (0.0, 0.0))
                worst_sigma = max(worst_sigma, abs(phat - p) / max(se, 1e-12))
    m2 = model.TiltedModel(rho=rho, g=model.quadratic(), n=2)
    b2 = model.enumerate_exact(m2)
    Z = math.exp(b2.diagnostics["log_Z"])
    p0 = float(np.sum(b2.normalized_weight[b2.S == 0.0]))
    hand_ok = (abs(Z - (math.e + 1) / 2) < 1e-12
               and abs(p0 - 1 / (math.e + 1)) < 1e-12)
    ok = worst_sigma <= 3.0 and hand_ok
    _report(capsys, 6, ok,
            f"max atom deviation {worst_sigma:.2f} sigma; n=2 oracle "
            f"|Z-(e+1)/2| and |P(S=0)-1/(e+1)| < 1e-12: {hand_ok}")
    assert ok


def test_criterion_07_law_of_large_numbers(capsys):
    t0 = time.perf_counter()
    probs = []
    for n in (500, 1000, 2000):
        m = model.TiltedModel(rho=measure.three_point(p=0.25),
                              g=model.quadratic(), n=n)
        b = model.enumerate_exact(m)
        probs.append(b.weighted_mean(np.abs(b.T / n - 0.5) > 0.05))
    decreasing = probs[2] < probs[1] < probs[0] and probs[2] <= 1e-3

    n = 1024
    m = model.TiltedModel(rho=measure.gaussian(), g=model.quadratic(), n=n)
    batch = model.sample_metropolis(
        m, 256 * 64, rng=np.random.default_rng(17), chains=256,
        burn_in=60 * n, thin=n, block_size=64)
    r = verify_lln(m, batch, tol=1.0)
    mt = r.moment_table
    gauss_ok = (abs(mt["mean_x"]) <= 3 * mt["se_x"]
                and abs(mt["mean_y"] - 1.0) <= 3 * mt["se_y"])
    elapsed = time.perf_counter() - t0
    ok = decreasing and gauss_ok and elapsed < 300.0
    _report(capsys, 7, ok,
            f"tail probs {probs[0]:.2e} > {probs[1]:.2e} > {probs[2]:.2e}; "
            f"gaussian means ({mt['mean_x']:+.4f}, {mt['mean_y']:.4f}) "
            f"within 3 se; {elapsed:.0f}s")
    assert ok


def _metropolis_fluct(g, n, seed):
    m = model.TiltedModel(rho=measure.gaussian(), g=g, n=n)
    batch = model.sample_metropolis(
        m, 1024 * 220, rng=np.random.default_rng(seed), chains=1024,
        burn_in=60 * n, thin=n, block_size=64)
    return m, batch, verify_fluctuations(m, batch, tol_ks=0.05)


def test_criterion_08_fluctuations(capsys):
    t0 = time.perf_counter()
    ks_ladder = []
    for n in (10**2, 10**3, 10**4):
        m = model.TiltedModel(rho=measure.three_point(p=0.25),
                              g=model.quadratic(), n=n)
        r = verify_fluctuations(m, model.enumerate_exact(m, collapse="S"),
                                tol_ks=0.02)
        ks_ladder.append(r.ks_distance)
        caveat = "hypothesis_caveat" in r.details
    part_a = (ks_ladder[2] <= 0.02 and ks_ladder[2] < ks_ladder[1] < ks_ladder[0]
              and caveat)

    _, bb, rb = _metropolis_fluct(model.quadratic(), 4096, seed=23)
    ess_b = bb.diagnostics["effective_sample_size"]
    m4_b = rb.moment_table["moment4"]
    part_b = (ess_b >= 10**5 and rb.ks_distance <= 0.05
              and abs(m4_b - 3.0) <= 0.15)

    _, bc, rc_ = _metropolis_fluct(model.quartic(1.0), 4096, seed=29)
    part_c = (bc.diagnostics["effective_sample_size"] >= 10**5
              and rc_.ks_distance <= 0.05)
    elapsed = time.perf_counter() - t0
    ok = part_a and part_b and part_c and elapsed < 1800.0
    _report(capsys, 8, ok,
            f"(a) KS ladder {ks_ladder[0]:.4f} > {ks_ladder[1]:.4f} > "
            f"{ks_ladder[2]:.5f}, caveat={caveat}; "
            f"(b) KS={rb.ks_distance:.4f} m4={m4_b:.4f} ess={ess_b:.0f}; "
            f"(c) KS={rc_.ks_distance:.4f}; {elapsed:.0f}s")
    assert ok


def test_criterion_09_varadhan_bound(capsys):
    vals = [model.varadhan_decay(measure.three_point(p=0.25), n)
            for n in (50, 100, 200, 400)]
    negative = all(v < 0 for v in vals)
    decreasing = all(b < a for a, b in zip(vals, vals[1:]))
    ok = negative and decreasing
    _report(capsys, 9, ok,
            "normalized decay at n=50,100,200,400: "
            + ", ".join(f"{v:.5f}" for v in vals)
            + ("" if ok else "  (negative but increasing toward the limit; "
                             "see notes)"))
    assert ok


def test_criterion_10_quartic_law_self_consistency(capsys):
    from scipy import integrate
    law = QuarticLaw()
    total, _ = integrate.quad(law.pdf, -12, 12, epsabs=1e-13)
    norm_ok = abs(total - 1.0) < 1e-10
    m4_ok = abs(law.moment(4) - 3.0) < 1e-8
    crit = kolmogorov_critical(10**4, 0.01)
    fails = sum(
        ks_distance(law.sample(10**4, np.random.default_rng(seed)),
                    np.ones(10**4), law) > crit
        for seed in range(100))
    seeds_ok = fails <= 6  # 1% nominal rate per seed, ~5 sigma slack
    ok = norm_ok and m4_ok and seeds_ok
    _report(capsys, 10, ok,
            f"|norm-1|={abs(total - 1):.1e}, |m4-3|={abs(law.moment(4) - 3):.1e}, "
            f"KS rejections {fails}/100 at the 1% level")
    assert ok
