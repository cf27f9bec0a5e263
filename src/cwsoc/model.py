"""The self-organized critical mean-field model and its samplers.

The target law on ``R^n`` reweights the product measure ``rho^{x n}`` by
``exp(n * g(S_n / sqrt(n T_n)))`` (or ``exp(n^2 g(S_n/n) / T_n)`` for the
star variant), with the all-zero configuration excluded.  Everything observable
factors through ``(S_n, T_n)``, which is what the samplers return.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.special import gammaln, logsumexp

from .measure import GaussianDensity, Measure1D, moments, sample as sample_measure


class ModelError(ValueError):
    pass


class InteractionError(ValueError):
    pass


# ---------------------------------------------------------------------------
# interaction functions

@dataclass(frozen=True)
class Interaction:
    """Interaction ``g`` on ``[-1, 1]`` with its quartic flatness constant.

    ``g`` must behave like ``u^2/2`` at the origin and never exceed it;
    ``m4 = -g''''(0)/2`` is the only way ``g`` enters the limit theorems.
    """
    kind: str                      # 'quadratic' | 'quartic' | 'custom'
    m4: float = 0.0
    variant: str = "standard"      # 'standard' | 'star'
    fn: Optional[Callable] = None  # vectorized custom g

    def g(self, u):
        u = np.asarray(u, dtype=float)
        if self.kind == "quadratic":
            return u * u / 2
        if self.kind == "quartic":
            return u * u / 2 - self.m4 * u**4 / 12
        return self.fn(u)

    def F(self, x, y):
        """Tilt functional on ``(x, y) = (S/n, T/n)`` with ``y > 0``."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if self.variant == "star":
            return self.g(x) / y
        return self.g(x / np.sqrt(y))

    def log_weight(self, S, T, n: int):
        """``n * F(S/n, T/n)`` evaluated stably straight from ``(S, T)``."""
        S = np.asarray(S, dtype=float)
        T = np.asarray(T, dtype=float)
        if self.variant == "star":
            return n * n * self.g(S / n) / T
        return n * self.g(S / np.sqrt(n * T))

    def validate(self) -> None:
        if self.variant not in ("standard", "star"):
            raise InteractionError(f"unknown variant {self.variant!r}")
        u = np.linspace(-1.0, 1.0, 401)
        gu = self.g(u)
        if np.any(gu > u * u / 2):
            raise InteractionError("g(u) exceeds u^2/2 on [-1, 1]")
        for k in range(2, 6):
            h = 10.0 ** (-k)
            ratio = float(self.g(h)) / (h * h)
            if abs(ratio - 0.5) > 1e-3 * 0.5 + 1e-12:
                raise InteractionError(
                    f"g(u)/u^2 = {ratio} at u = {h}, expected 1/2")
        h = 0.02
        stencil = np.array([-2, -1, 0, 1, 2]) * h
        gs = self.g(stencil)
        d4 = (gs[0] - 4 * gs[1] + 6 * gs[2] - 4 * gs[3] + gs[4]) / h**4
        if abs(-d4 / 2 - self.m4) > 1e-4:
            raise InteractionError(
                f"m4 = {self.m4} inconsistent with -g''''(0)/2 = {-d4 / 2}")
        if self.m4 < 0:
            raise InteractionError("m4 must be nonnegative")
        d3 = (gs[4] - 2 * gs[3] + 2 * gs[1] - gs[0]) / (2 * h**3)
        if abs(d3) > 1e-4:
            raise InteractionError(f"g'''(0) = {d3} must vanish")


def quadratic(variant: str = "standard") -> Interaction:
    return Interaction(kind="quadratic", variant=variant)


def quartic(m4: float, variant: str = "standard") -> Interaction:
    g = Interaction(kind="quartic", m4=m4, variant=variant)
    g.validate()
    return g


def custom(fn: Callable, m4: float, variant: str = "standard") -> Interaction:
    g = Interaction(kind="custom", m4=m4, variant=variant, fn=fn)
    g.validate()
    return g


# ---------------------------------------------------------------------------
# model and batches

@dataclass(frozen=True)
class TiltedModel:
    rho: Measure1D
    g: Interaction
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ModelError("n must be >= 1")

    def log_weight(self, S, T):
        return self.g.log_weight(S, T, self.n)


@dataclass
class EmpiricalBatch:
    S: np.ndarray
    T: np.ndarray
    weight: np.ndarray
    method: str               # 'enumeration' | 'importance' | 'metropolis'
    n: int
    diagnostics: dict = field(default_factory=dict)
    seed: Optional[int] = None

    def __post_init__(self):
        if np.any(self.T <= 0):
            raise ModelError("retained samples must have T > 0")
        if np.any(self.S**2 > self.n * self.T * (1 + 1e-12) + 1e-9):
            raise ModelError("Cauchy-Schwarz violated: S^2 > n T")

    @property
    def normalized_weight(self) -> np.ndarray:
        return self.weight / np.sum(self.weight)

    def weighted_mean(self, values) -> float:
        return float(np.sum(self.normalized_weight * values))


# ---------------------------------------------------------------------------
# exact enumeration

def _symmetric_three_atoms(rho: Measure1D):
    """Return (a, p, p0) for measures with atoms {-a, +a} or {-a, 0, +a}."""
    nonzero = sorted((z, m) for z, m in rho.atoms if z != 0.0)
    if rho.density is not None or len(nonzero) != 2:
        return None
    (zm, pm), (zp, pp) = nonzero
    if zm != -zp or abs(pm - pp) > 1e-15:
        return None
    return zp, pp, rho.mass_at_zero


def enumerate_exact(m: TiltedModel, budget: int = 60_000_000,
                    collapse: Optional[str] = None) -> EmpiricalBatch:
    """Exact law of ``(S, T)`` under the tilted measure for atomic ``rho``.

    States are multinomial classes over atom counts, so the cost is
    polynomial in ``n``.  With ``collapse='S'`` only the marginal of ``S``
    is kept (``T`` is replaced by its conditional mean per ``S`` value),
    which is what large-``n`` fluctuation studies need.
    """
    if m.rho.density is not None:
        raise ModelError("exact enumeration requires a purely atomic measure")
    tri = _symmetric_three_atoms(m.rho)
    if tri is not None:
        return _enumerate_three_atom(m, tri, budget, collapse)
    return _enumerate_general(m, budget, collapse)


def _enumerate_three_atom(m, tri, budget, collapse):
    a, p, p0 = tri
    n = m.n
    if (n + 1) * (n + 2) // 2 > budget:
        raise ModelError(f"enumeration budget exceeded at n = {n}")
    lp, lp0 = math.log(p), (math.log(p0) if p0 > 0 else -math.inf)
    ln_fact = gammaln(np.arange(n + 1) + 1.0)

    # first pass: global maximum of the log state weights
    def row(mm):
        # mm nonzero coordinates, kp of them positive
        kp = np.arange(mm + 1)
        S = a * (2 * kp - mm)
        T = a * a * mm
        zero_term = (n - mm) * lp0 if mm < n else 0.0
        # grouped so the value is bitwise symmetric under kp <-> mm - kp
        base = ln_fact[n] - ln_fact[n - mm] + zero_term + mm * lp
        logmult = base - (ln_fact[kp] + ln_fact[mm - kp])
        return S, T, logmult + m.log_weight(S, np.full(mm + 1, T))

    m_values = range(1, n + 1) if p0 > 0 else range(n, n + 1)
    gmax = -math.inf
    for mm in m_values:
        gmax = max(gmax, float(np.max(row(mm)[2])))

    if collapse == "S":
        w_by_s = np.zeros(2 * n + 1)   # index n + S/a
        tw_by_s = np.zeros(2 * n + 1)
        for mm in m_values:
            S, T, lw = row(mm)
            w = np.exp(lw - gmax)
            idx = (n + np.round(S / a)).astype(int)
            np.add.at(w_by_s, idx, w)
            np.add.at(tw_by_s, idx, w * T)
        keep = w_by_s > 0
        S_out = a * (np.arange(2 * n + 1)[keep] - n)
        w_out = w_by_s[keep]
        T_out = tw_by_s[keep] / w_out
        return EmpiricalBatch(
            S=S_out, T=T_out, weight=w_out / np.sum(w_out),
            method="enumeration", n=n,
            diagnostics={"log_Z": gmax + math.log(np.sum(w_out)),
                         "collapsed": "S", "states": int(np.sum(keep))})

    S_all, T_all, w_all = [], [], []
    for mm in m_values:
        S, T, lw = row(mm)
        S_all.append(S)
        T_all.append(np.full(mm + 1, T))
        w_all.append(np.exp(lw - gmax))
    S_all = np.concatenate(S_all)
    T_all = np.concatenate(T_all)
    w_all = np.concatenate(w_all)
    total = float(np.sum(w_all))
    return EmpiricalBatch(
        S=S_all, T=T_all, weight=w_all / total, method="enumeration", n=n,
        diagnostics={"log_Z": gmax + math.log(total), "states": len(S_all)})


def _enumerate_general(m, budget, collapse):
    # compositions of n over k atoms; exponential in k, fine for small cases
    atoms = list(m.rho.atoms)
    k = len(atoms)
    n = m.n
    n_states = math.comb(n + k - 1, k - 1)
    if n_states > budget:
        raise ModelError(f"enumeration budget exceeded: {n_states} classes")
    locs = np.array([z for z, _ in atoms])
    logp = np.log([p for _, p in atoms])
    ln_fact = gammaln(np.arange(n + 1) + 1.0)

    counts, S, T, logmult = [], [], [], []

    def rec(i, left, cur):
        if i == k - 1:
            c = cur + [left]
            cc = np.array(c)
            s = float(np.dot(cc, locs))
            t = float(np.dot(cc, locs**2))
            if t <= 0:
                return  # excluded by the positive-T indicator
            lm = ln_fact[n] - float(np.sum(ln_fact[c])) + float(np.dot(cc, logp))
            S.append(s)
            T.append(t)
            logmult.append(lm)
            return
        for c in range(left + 1):
            rec(i + 1, left - c, cur + [c])

    rec(0, n, [])
    S = np.array(S)
    T = np.array(T)
    lw = np.array(logmult) + m.log_weight(S, T)
    gmax = float(np.max(lw))
    w = np.exp(lw - gmax)
    total = float(np.sum(w))
    batch = EmpiricalBatch(
        S=S, T=T, weight=w / total, method="enumeration", n=n,
        diagnostics={"log_Z": gmax + math.log(total), "states": len(S)})
    if collapse == "S":
        uniq, inv = np.unique(S, return_inverse=True)
        wm = np.zeros(len(uniq))
        tm = np.zeros(len(uniq))
        np.add.at(wm, inv, batch.weight)
        np.add.at(tm, inv, batch.weight * T)
        batch = EmpiricalBatch(
            S=uniq, T=tm / wm, weight=wm, method="enumeration", n=n,
            diagnostics=dict(batch.diagnostics, collapsed="S"))
    return batch


# ---------------------------------------------------------------------------
# importance sampling

def sample_importance(m: TiltedModel, count: int, rng: np.random.Generator,
                      ess_floor: float = 100.0) -> EmpiricalBatch:
    """Self-normalized importance sampling with the product proposal.

    Weights are ``exp(n F_g)`` on configurations with ``T > 0`` and zero
    otherwise; they are capped by ``e^{n/2}`` since ``g <= u^2/2``.
    """
    if count < 1:
        raise ModelError("count must be >= 1")
    n = m.n
    chunk = max(1, min(count, 20_000_000 // max(n, 1)))
    S_all, T_all, lw_all = [], [], []
    done = 0
    while done < count:
        c = min(chunk, count - done)
        x = sample_measure(m.rho, c * n, rng).reshape(c, n)
        S = x.sum(axis=1)
        T = (x * x).sum(axis=1)
        alive = T > 0
        lw = np.full(c, -np.inf)
        lw[alive] = m.log_weight(S[alive], T[alive])
        assert np.all(lw[alive] <= n / 2 + 1e-9), "weight bound e^{n/2} violated"
        S_all.append(S[alive])
        T_all.append(T[alive])
        lw_all.append(lw[alive])
        done += c
    S = np.concatenate(S_all)
    T = np.concatenate(T_all)
    lw = np.concatenate(lw_all)
    if not len(lw):
        raise ModelError(f"none of the {count} proposal draws has T > 0; "
                         "the importance sample is empty")
    w = np.exp(lw - np.max(lw))
    ess = float(np.sum(w)) ** 2 / float(np.sum(w * w))
    diag = {"effective_sample_size": ess, "proposal_draws": count,
            "ess_warning": ess < ess_floor}
    return EmpiricalBatch(S=S, T=T, weight=w, method="importance", n=n,
                          diagnostics=diag)


# ---------------------------------------------------------------------------
# Metropolis sampling

def integrated_autocorr_time(series: np.ndarray, c: float = 5.0) -> float:
    """Sokal-windowed integrated autocorrelation time.

    ``series`` has shape (chains, records); autocovariances are averaged
    across chains before integrating.
    """
    x = np.atleast_2d(np.asarray(series, dtype=float))
    x = x - x.mean()
    nrec = x.shape[1]
    if nrec < 4:
        return 1.0
    npad = 2 ** int(math.ceil(math.log2(2 * nrec)))
    f = np.fft.rfft(x, n=npad, axis=1)
    acf = np.fft.irfft(f * np.conj(f), n=npad, axis=1)[:, :nrec].mean(axis=0)
    if acf[0] <= 0:
        return 1.0
    rho = acf / acf[0] / np.arange(nrec, 0, -1) * nrec  # bias-free-ish norm
    tau = 1.0
    for k in range(1, nrec):
        tau += 2.0 * rho[k]
        if k >= c * tau:
            break
    return max(tau, 1.0)


def _fast_log_weight(m: TiltedModel):
    """Vectorized log weight without the Interaction call overhead."""
    g = m.g
    n = m.n
    if g.variant == "standard" and g.kind == "quadratic":
        return lambda S, T: S * S / (2 * T)
    if g.variant == "standard" and g.kind == "quartic":
        m4 = g.m4

        def lw(S, T):
            u2 = S * S / (n * T)
            return n * (u2 / 2 - m4 * u2 * u2 / 12)
        return lw
    return lambda S, T: m.log_weight(S, T)


def sample_metropolis(m: TiltedModel, count: int, burn_in: Optional[int] = None,
                      thin: Optional[int] = None, rng=None, chains: int = 64,
                      block_size: Optional[int] = None) -> EmpiricalBatch:
    """Random-block Metropolis chains targeting the tilted measure.

    Each move refreshes ``block_size`` contiguous coordinates (a common
    random offset across chains) with fresh draws from ``rho``; the target
    is exchangeable so contiguous blocks lose nothing.  ``count`` is the
    total number of recorded ``(S, T)`` pairs across all chains; ``burn_in``
    and ``thin`` are in single-coordinate proposals per chain (defaults:
    10 n sweeps and one sweep).  Moves to ``T = 0`` are rejected.

    For a pure Gaussian ``rho`` every block move is followed by a common
    shift of all coordinates.  The product-measure log ratio of a shift is
    closed form, and near criticality the tilt almost cancels it, so these
    moves transport ``S`` across its whole range quickly; coordinates are
    tracked lazily through a per-chain offset.
    """
    if count < 1:
        raise ModelError("count must be >= 1")
    if rng is None or isinstance(rng, int):
        rng = np.random.default_rng(rng)
    n = m.n
    chains = min(chains, count)
    burn_in = 10 * n * n if burn_in is None else burn_in
    thin = n if thin is None else thin
    k = block_size if block_size is not None else max(1, min(n // 64, 256))
    k = max(1, min(k, n))
    records = -(-count // chains)
    logw_fn = _fast_log_weight(m)

    # initial states from the product measure, resampled until T > 0
    X = sample_measure(m.rho, chains * n, rng).reshape(chains, n)
    T = (X * X).sum(axis=1)
    while np.any(T <= 0):
        dead = T <= 0
        X[dead] = sample_measure(m.rho, int(dead.sum()) * n, rng).reshape(-1, n)
        T = (X * X).sum(axis=1)
    S = X.sum(axis=1)
    logw = logw_fn(S, T)

    shift_ok = not m.rho.atoms and isinstance(m.rho.density, GaussianDensity)
    if shift_ok:
        sig2 = m.rho.density.sigma ** 2
        eps_scale = 2.0 * math.sqrt(sig2 / n)
        c_off = np.zeros(chains)

    S_rec = np.empty((chains, records))
    T_rec = np.empty((chains, records))
    accepted = 0
    proposed = 0
    thin_steps = max(1, -(-thin // k))
    burn_steps = -(-burn_in // k)
    total_steps = burn_steps + records * thin_steps
    batch = max(1, min(2048, 8 * 10**6 // (chains * k) + 1))
    step = 0
    rec = 0
    while step < total_steps:
        b = min(batch, total_steps - step)
        offsets = rng.integers(0, n - k + 1, size=b)
        props = sample_measure(m.rho, b * chains * k, rng).reshape(b, chains, k)
        logu = np.log(rng.random((b, chains)))
        if shift_ok:
            eps_draw = rng.normal(0.0, eps_scale, size=(b, chains))
            logu2 = np.log(rng.random((b, chains)))
        for i in range(b):
            j0 = int(offsets[i])
            z = props[i]
            old = X[:, j0:j0 + k]
            if shift_ok:
                old = old + c_off[:, None]
            S2 = S + z.sum(axis=1) - old.sum(axis=1)
            T2 = T + (z * z).sum(axis=1) - (old * old).sum(axis=1)
            ok = T2 > 0
            lw2 = np.where(ok, logw_fn(S2, np.where(ok, T2, 1.0)), -np.inf)
            acc = ok & (logu[i] < lw2 - logw)
            if shift_ok:
                X[acc, j0:j0 + k] = z[acc] - c_off[acc, None]
            else:
                X[acc, j0:j0 + k] = z[acc]
            S[acc] = S2[acc]
            T[acc] = T2[acc]
            logw[acc] = lw2[acc]
            step += 1
            proposed += chains
            accepted += int(acc.sum())
            if shift_ok:
                eps = eps_draw[i]
                S3 = S + n * eps
                T3 = T + 2 * eps * S + n * eps * eps
                good = T3 > 0
                lw3 = np.where(good, logw_fn(S3, np.where(good, T3, 1.0)),
                               -np.inf)
                dlog = lw3 - logw - (2 * eps * S + n * eps * eps) / (2 * sig2)
                acc2 = good & (logu2[i] < dlog)
                c_off[acc2] += eps[acc2]
                S[acc2] = S3[acc2]
                T[acc2] = T3[acc2]
                logw[acc2] = lw3[acc2]
            if step > burn_steps and (step - burn_steps) % thin_steps == 0 \
                    and rec < records:
                S_rec[:, rec] = S
                T_rec[:, rec] = T
                rec += 1
    tau = integrated_autocorr_time(S_rec)
    ess = chains * rec / tau
    diag = {"acceptance_rate": accepted / proposed,
            "integrated_autocorrelation_time": tau,
            "effective_sample_size": ess,
            "chains": chains, "burn_in": burn_in, "thin": thin,
            "block_size": k}
    S_out = S_rec[:, :rec].ravel()[:count]
    T_out = T_rec[:, :rec].ravel()[:count]
    return EmpiricalBatch(S=S_out, T=T_out, weight=np.ones(len(S_out)),
                          method="metropolis", n=n, diagnostics=diag)


# ---------------------------------------------------------------------------
# derived statistics

def char_integral(m: TiltedModel, u: float, batch: EmpiricalBatch) -> complex:
    """Tilted characteristic function of ``S / n^{3/4}``, self-normalized.

    Exact for enumeration batches; otherwise a weighted estimate.  The value
    at ``u = 0`` is 1 by construction (the normalization constant cancels).
    """
    if batch.n != m.n:
        raise ModelError(f"batch n = {batch.n} does not match model n = {m.n}")
    phases = np.exp(1j * u * batch.S / m.n**0.75)
    val = complex(np.sum(batch.normalized_weight * phases))
    return val


def rescaled_statistic(m: TiltedModel, batch: EmpiricalBatch):
    """Rescale ``S`` to the universal fluctuation scale.

    Returns ``(values, weights)`` where values are
    ``(mu4 + m4 sigma^p)^{1/4} S / (sigma^2 n^{3/4})`` with ``p = 4`` for the
    standard variant and ``p = 6`` for the star variant.
    """
    ms = moments(m.rho)
    p = 3 if m.g.variant == "star" else 2
    const = (ms.mu4 + m.g.m4 * ms.sigma2**p) ** 0.25
    vals = const * batch.S / (ms.sigma2 * m.n**0.75)
    return vals, batch.normalized_weight


def varadhan_decay(rho: Measure1D, n: int, x_threshold: float = 0.5,
                   budget: int = 60_000_000) -> float:
    """(1/n) log of the untilted integral of ``exp(n x^2 / (2y))`` over
    ``{|x| >= x_threshold}`` intersected with the admissible cone."""
    tri = _symmetric_three_atoms(rho)
    if tri is None:
        raise ModelError("decay check implemented for symmetric atomic measures")
    a, p, p0 = tri
    lp, lp0 = math.log(p), (math.log(p0) if p0 > 0 else -math.inf)
    ln_fact = gammaln(np.arange(n + 1) + 1.0)
    pieces = []
    for mm in (range(1, n + 1) if p0 > 0 else range(n, n + 1)):
        kp = np.arange(mm + 1)
        S = a * (2 * kp - mm)
        T = np.full(mm + 1, a * a * mm)
        mask = np.abs(S / n) >= x_threshold
        if not np.any(mask):
            continue
        zero_term = (n - mm) * lp0 if mm < n else 0.0
        logmult = (ln_fact[n] - ln_fact[n - mm] - ln_fact[kp] - ln_fact[mm - kp]
                   + zero_term + mm * lp)
        terms = logmult[mask] + S[mask] ** 2 / (2 * T[mask])
        pieces.append(logsumexp(terms))
    return float(logsumexp(pieces)) / n
