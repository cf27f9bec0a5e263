"""The self-organized critical mean-field model and its samplers.

The target law on ``R^n`` reweights the product measure ``rho^{x n}`` by
``exp(n * g(S_n / sqrt(n T_n)))`` (or ``exp(n^2 g(S_n/n) / T_n)`` for the
star variant), with the all-zero configuration excluded.  Everything observable
factors through ``(S_n, T_n)``, which is what the samplers return.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce
from operator import add
from typing import Callable, Optional

import numpy as np

from .measure import GaussianDensity, Measure1D, sample as sample_measure


_ESS_FLOOR = 100.0  # sample_importance warns below this effective sample size
_SOKAL_WINDOW = 5.0  # integrated_autocorr_time stops at lag >= this * tau


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
    ``__post_init__`` checks all of it, so only a valid interaction can be
    built; it raises InteractionError otherwise.
    """
    kind: str                      # 'quadratic' | 'quartic' | 'custom'
    m4: float = 0.0
    variant: str = "standard"      # 'standard' | 'star'
    fn: Optional[Callable] = None  # vectorized custom g

    def __post_init__(self):
        if self.kind not in ("quadratic", "quartic", "custom"):
            raise InteractionError(f"unknown interaction kind {self.kind!r}")
        if self.kind == "custom" and not callable(self.fn):
            raise InteractionError("a custom interaction needs a callable fn")
        if self.kind != "custom" and self.fn is not None:
            raise InteractionError(
                f"fn is given only with kind 'custom', not {self.kind!r}")
        if self.variant not in ("standard", "star"):
            raise InteractionError(f"unknown variant {self.variant!r}")
        # every check below is written so that a NaN fails it
        u = np.linspace(-1.0, 1.0, 401)
        if not np.all(self.g(u) <= u * u / 2):
            raise InteractionError("g(u) exceeds u^2/2 on [-1, 1]")
        for k in range(2, 6):
            h = 10.0 ** (-k)
            ratio = float(self.g(h)) / (h * h)
            if not abs(ratio - 0.5) <= 1e-3 * 0.5 + 1e-12:
                raise InteractionError(
                    f"g(u)/u^2 = {ratio} at u = {h}, expected 1/2")
        h = 0.02
        stencil = np.array([-2, -1, 0, 1, 2]) * h
        gs = self.g(stencil)
        d4 = (gs[0] - 4 * gs[1] + 6 * gs[2] - 4 * gs[3] + gs[4]) / h**4
        if not abs(-d4 / 2 - self.m4) <= 1e-4:
            raise InteractionError(
                f"m4 = {self.m4} inconsistent with -g''''(0)/2 = {-d4 / 2}")
        if self.m4 < 0:
            raise InteractionError("m4 must be nonnegative")
        d3 = (gs[4] - 2 * gs[3] + 2 * gs[1] - gs[0]) / (2 * h**3)
        if not abs(d3) <= 1e-4:
            raise InteractionError(f"g'''(0) = {d3} must vanish")

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
        # closed forms in u^2 = S^2 / (n T) for the built-in kinds
        if self.kind == "quadratic":
            return S * S / (2 * T)
        if self.kind == "quartic":
            u2 = S * S / (n * T)
            return n * (u2 / 2 - self.m4 * u2 * u2 / 12)
        return n * self.g(S / np.sqrt(n * T))


def quadratic(variant: str = "standard") -> Interaction:
    return Interaction(kind="quadratic", variant=variant)


def quartic(m4: float, variant: str = "standard") -> Interaction:
    return Interaction(kind="quartic", m4=m4, variant=variant)


def custom(fn: Callable, m4: float, variant: str = "standard") -> Interaction:
    return Interaction(kind="custom", m4=m4, variant=variant, fn=fn)


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

def _compositions(total: int, parts: int):
    """Tuples of ``parts`` nonnegative ints summing to ``total``, in
    lexicographic order."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _ln_factorials(n: int) -> np.ndarray:
    """``ln k!`` for ``k = 0..n``."""
    return np.array([math.lgamma(k + 1.0) for k in range(n + 1)])


def _class_rows(rho: Measure1D, n: int, budget: int):
    """Multinomial classes of atom counts under ``rho^{x n}`` with ``T > 0``,
    one row at a time.

    ``rho`` must be atomic, hence (as every base is symmetric) a zero atom
    of mass ``p0`` (which may be absent) and ``K >= 1`` mirror magnitudes
    ``z_j``, each of ``+-z_j`` with mass ``p_j``.  A row fixes the zero count ``c0`` and the totals
    ``m = (m_1, ..., m_K)``, ``m_j = c(+z_j) + c(-z_j)``, so
    ``T = sum_j z_j^2 m_j`` is constant on it.  The signed splits
    ``kp_j = c(+z_j)`` in ``[0, m_j]`` span a grid of shape
    ``(m_1 + 1, ..., m_K + 1)``, on which the row gives
    ``S = sum_j z_j (2 kp_j - m_j)`` and the log probability of the class,
    ``ln n! - ln c0! + c0 ln p0 + sum_j [m_j ln p_j - ln kp_j! - ln (m_j -
    kp_j)!]``.  Each magnitude's factorial term is symmetric on its own, so
    mirror classes get bitwise-equal values.  Rows come with ``c0`` falling
    and then ``m`` in lexicographic order; yields ``(m, S, T, logmult)``.
    """
    if rho.density is not None:
        raise ModelError("exact enumeration requires a purely atomic measure")
    mags = rho.mirror_magnitudes()
    A = len(rho.atoms)
    n_states = math.comb(n + A - 1, A - 1)
    if n_states > budget:
        raise ModelError(f"enumeration budget exceeded: {n_states} classes "
                         f"at n = {n}")
    z = [zj for zj, _ in mags]
    lp = [math.log(pj) for _, pj in mags]
    p0 = rho.mass_at_zero
    lp0 = math.log(p0) if p0 > 0 else -math.inf
    ln_fact = _ln_factorials(n)
    K = len(z)
    axis = [(-1,) + (1,) * (K - 1 - j) for j in range(K)]  # kp_j on axis j
    for mm in (range(1, n + 1) if p0 > 0 else range(n, n + 1)):
        base = ln_fact[n] - ln_fact[n - mm] + ((n - mm) * lp0 if mm < n else 0.0)
        for ms in _compositions(mm, K):
            # d_j = 2 kp_j - m_j and ln kp_j! + ln (m_j - kp_j)! for kp_j = 0..m_j
            S = reduce(add, ((zj * np.arange(-mj, mj + 1, 2)).reshape(ax)
                             for zj, mj, ax in zip(z, ms, axis)))
            T = reduce(add, (zj * zj * mj for zj, mj in zip(z, ms)))
            row_base = reduce(add, (mj * lpj for mj, lpj in zip(ms, lp)), base)
            logmult = row_base - reduce(add, (
                (ln_fact[:mj + 1] + ln_fact[mj::-1]).reshape(ax)
                for mj, ax in zip(ms, axis)))
            yield ms, S, T, logmult


def enumerate_exact(m: TiltedModel, budget: int = 60_000_000,
                    collapse: Optional[str] = None) -> EmpiricalBatch:
    """Exact law of ``(S, T)`` under the tilted measure for a symmetric
    atomic ``rho``.

    States are the multinomial classes of atom counts (``_class_rows``), so
    the cost is polynomial in ``n``; more than ``budget`` classes
    (``comb(n + A - 1, A - 1)`` for ``A`` atoms) raise ModelError, as does
    a density component.  With ``collapse='S'`` only the marginal of ``S``
    is kept (``T`` is replaced by its conditional mean per ``S`` value),
    which is what large-``n`` fluctuation studies need; the classes are then
    summed row by row and never held all at once.
    """
    n = m.n

    def rows():
        for ms, S, T, logmult in _class_rows(m.rho, n, budget):
            yield ms, S, T, logmult + m.log_weight(S, T)

    if collapse == "S":
        gmax = max(float(np.max(lw)) for *_, lw in rows())
        z = [zj for zj, _ in m.rho.mirror_magnitudes()]
        shape = (2 * n + 1,) * len(z)
        w_cell = np.zeros(shape)   # cell n + d_j on axis j
        tw_cell = np.zeros(shape)
        for ms, S, T, lw in rows():
            # a row's classes fill a stride-2 block of the d = 2 kp - m cells
            block = tuple(slice(n - mj, n + mj + 1, 2) for mj in ms)
            w = np.exp(lw - gmax)
            w_cell[block] += w
            tw_cell[block] += w * T
        d = np.ix_(*[np.arange(-n, n + 1)] * len(z))
        S_cell = reduce(add, (zj * dj for zj, dj in zip(z, d)))
        keep = w_cell > 0
        # cells with different d can share S when K > 1
        S_out, inv = np.unique(S_cell[keep], return_inverse=True)
        w_out = np.bincount(inv, weights=w_cell[keep])
        T_out = np.bincount(inv, weights=tw_cell[keep]) / w_out
        return EmpiricalBatch(
            S=S_out, T=T_out, weight=w_out / np.sum(w_out),
            method="enumeration", n=n,
            diagnostics={"log_Z": gmax + math.log(np.sum(w_out)),
                         "collapsed": "S", "states": len(S_out)})

    S_all, T_all, lw_all = [], [], []
    for _, S, T, lw in rows():
        S_all.append(S.ravel())
        T_all.append(np.full(S.size, T))
        lw_all.append(lw.ravel())
    S_all, T_all, lw_all = (np.concatenate(a) for a in (S_all, T_all, lw_all))
    gmax = float(np.max(lw_all))
    w_all = np.exp(lw_all - gmax)
    total = float(np.sum(w_all))
    return EmpiricalBatch(
        S=S_all, T=T_all, weight=w_all / total, method="enumeration", n=n,
        diagnostics={"log_Z": gmax + math.log(total), "states": len(S_all)})


# ---------------------------------------------------------------------------
# importance sampling

def sample_importance(m: TiltedModel, count: int,
                      rng: np.random.Generator) -> EmpiricalBatch:
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
            "ess_warning": ess < _ESS_FLOOR}
    return EmpiricalBatch(S=S, T=T, weight=w, method="importance", n=n,
                          diagnostics=diag)


# ---------------------------------------------------------------------------
# Metropolis sampling

def integrated_autocorr_time(series: np.ndarray) -> float:
    """Sokal-windowed integrated autocorrelation time.

    ``series`` has shape (chains, records); autocovariances are averaged
    across chains before integrating.  NaN when a chain has fewer than 4
    records, too few to estimate it.
    """
    x = np.atleast_2d(np.asarray(series, dtype=float))
    x = x - x.mean()
    nrec = x.shape[1]
    if nrec < 4:
        return math.nan
    npad = 2 ** int(math.ceil(math.log2(2 * nrec)))
    f = np.fft.rfft(x, n=npad, axis=1)
    acf = np.fft.irfft(f * np.conj(f), n=npad, axis=1)[:, :nrec].mean(axis=0)
    if acf[0] <= 0:
        return 1.0
    rho = acf / acf[0] / np.arange(nrec, 0, -1) * nrec  # bias-free-ish norm
    tau = 1.0
    for k in range(1, nrec):
        tau += 2.0 * rho[k]
        if k >= _SOKAL_WINDOW * tau:
            break
    return max(tau, 1.0)


def split_rhat(series: np.ndarray) -> float:
    """Classic split-R-hat of ``series`` shaped (chains, records).

    Each chain is cut into halves (the middle record of an odd length is
    dropped) and the potential scale reduction ``sqrt(var+ / W)`` is taken
    over the half-chains (Gelman et al., BDA3; Vehtari et al. 2021 without
    rank normalization).  Near 1 the chains agree; NaN when a half-chain
    has fewer than 2 records.
    """
    x = np.atleast_2d(np.asarray(series, dtype=float))
    half = x.shape[1] // 2
    if half < 2:
        return math.nan
    x = np.concatenate([x[:, :half], x[:, -half:]])
    W = float(x.var(axis=1, ddof=1).mean())
    B = float(x.mean(axis=1).var(ddof=1))  # between-chain variance / length
    if W <= 0:
        return 1.0 if B <= 0 else math.inf
    return math.sqrt(((half - 1) / half * W + B) / W)


def sample_metropolis(m: TiltedModel, count: int, burn_in: Optional[int] = None,
                      thin: Optional[int] = None, rng=None, chains: int = 64,
                      block_size: Optional[int] = None) -> EmpiricalBatch:
    """Metropolis chains targeting the tilted measure.

    ``count`` is the number of recorded ``(S, T)`` pairs, rounded up to
    whole chains: each of ``min(chains, count)`` chains records
    ``ceil(count / chains)`` states, and every record is returned, chain by
    chain, so the diagnostics describe exactly the batch.  ``burn_in`` and
    ``thin`` are in single-coordinate proposals per chain (defaults: 10 n
    sweeps and one sweep); with ``k = block_size`` one step stands for ``k``
    of them, so a chain makes ``ceil(burn_in / k)`` steps before its first
    record and ``ceil(thin / k)`` between records.  Moves to ``T = 0`` are
    rejected.
    The base picks one of two paths:

    - Pure Gaussian ``rho`` (no atoms, a ``GaussianDensity``): the tilt sees
      a configuration only through ``(S, T)``, and under the base ``S`` and
      ``Q = T - S^2/n`` are independent, ``N(0, n sigma^2)`` and ``sigma^2
      chi^2_{n-1}``.  So a chain is the pair ``(S, Q)`` alone, and a step is
      one Metropolis move on ``(S, log Q)`` that costs O(1) per chain
      whatever ``n`` and ``k`` (``_collapsed_moves``): ``S`` moves on its
      fluctuation scale ``sigma n^{3/4}`` and ``log Q`` on the ``1/sqrt(n)``
      scale of a log-``chi^2_{n-1}``, so a few steps cross the tilted law.
      ``k`` changes nothing in the move; it only converts ``burn_in`` and
      ``thin`` into steps.  This path draws the untruncated normal, as every
      ``GaussianDensity`` method but ``tilted_moments`` does.
    - Every other base (atomic, atom-plus-Gaussian such as ``rho0``, table
      and callable densities): each chain stores its ``n`` coordinates and a
      step replaces ``k`` contiguous ones with fresh draws from ``rho``, at
      one random offset shared by the chains, accepted with the ratio of the
      tilt weights ``exp(n F)``; the target is exchangeable, so contiguous
      blocks lose nothing.

    ``diagnostics`` holds the acceptance rate of the steps (on the Gaussian
    path that of the joint move, about 0.38 at n = 1024), the integrated
    autocorrelation time, ESS and split-R-hat of the recorded ``S`` and,
    under the same names with the suffix ``_T``, of the recorded ``T``, and
    the schedule.  With fewer than 4 records per chain those six statistics
    are NaN.  At ``k = n`` and tiny ``n`` the Gaussian path makes one step
    per record, so its ESS per record is low (``S`` at n = 8: 0.18).
    """
    if count < 1:
        raise ModelError("count must be >= 1")
    if chains < 1:
        raise ModelError("chains must be >= 1")
    if burn_in is not None and burn_in < 0:
        raise ModelError("burn_in must be >= 0")
    if rng is None or isinstance(rng, int):
        rng = np.random.default_rng(rng)
    n = m.n
    chains = min(chains, count)
    burn_in = 10 * n * n if burn_in is None else burn_in
    thin = n if thin is None else thin
    k = block_size if block_size is not None else max(1, min(n // 64, 256))
    k = max(1, min(k, n))
    records = -(-count // chains)
    if not m.rho.atoms and isinstance(m.rho.density, GaussianDensity):
        moves = _collapsed_moves(m.rho.density, n, chains, m.log_weight, rng)
    else:
        moves = _coordinate_moves(m.rho, n, k, chains, m.log_weight, rng)
    burn_steps = -(-burn_in // k)
    thin_steps = max(1, -(-thin // k))
    S_rec, T_rec, accepted = _run_schedule(*moves, burn_steps, thin_steps,
                                           records)
    diag = {"acceptance_rate":
            accepted / (chains * (burn_steps + records * thin_steps))}
    for suffix, rec in (("", S_rec), ("_T", T_rec)):
        tau = integrated_autocorr_time(rec)
        diag["integrated_autocorrelation_time" + suffix] = tau
        diag["effective_sample_size" + suffix] = chains * records / tau
        diag["split_rhat" + suffix] = split_rhat(rec)
    diag.update(chains=chains, burn_in=burn_in, thin=thin, block_size=k)
    return EmpiricalBatch(S=S_rec.ravel(), T=T_rec.ravel(),
                          weight=np.ones(S_rec.size), method="metropolis",
                          n=n, diagnostics=diag)


def _run_schedule(S, T, draw, move, batch, burn_steps, thin_steps, records):
    """Make ``burn_steps + records * thin_steps`` moves and record the state.

    ``draw(b)`` returns the random numbers of ``b`` moves at once,
    ``move(draws, i)`` makes the i-th of them on every chain, updates ``S``
    and ``T`` in place and returns the number of accepted block moves.  The
    state is recorded every ``thin_steps`` moves after burn-in.  Returns
    ``(S_rec, T_rec, accepted)`` with records shaped (chains, records).
    """
    S_rec = np.empty((len(S), records))
    T_rec = np.empty((len(S), records))
    accepted = 0
    total_steps = burn_steps + records * thin_steps
    step = 0
    rec = 0
    while step < total_steps:
        b = min(batch, total_steps - step)
        draws = draw(b)
        for i in range(b):
            accepted += move(draws, i)
            step += 1
            if step > burn_steps and (step - burn_steps) % thin_steps == 0:
                S_rec[:, rec] = S
                T_rec[:, rec] = T
                rec += 1
    return S_rec, T_rec, accepted


def _coordinate_moves(rho: Measure1D, n, k, chains, logw_fn, rng):
    """Initial state and moves of chains that store the ``n`` coordinates."""
    # initial states from the product measure, resampled until T > 0
    X = sample_measure(rho, chains * n, rng).reshape(chains, n)
    T = (X * X).sum(axis=1)
    while np.any(T <= 0):
        dead = T <= 0
        X[dead] = sample_measure(rho, int(dead.sum()) * n, rng).reshape(-1, n)
        T = (X * X).sum(axis=1)
    X2 = X * X
    S = X.sum(axis=1)
    logw = logw_fn(S, T)

    def draw(b):
        offsets = rng.integers(0, n - k + 1, size=b).tolist()
        props = sample_measure(rho, b * chains * k, rng).reshape(b, chains, k)
        props2 = props * props
        return (offsets, props, props2, props.sum(axis=2), props2.sum(axis=2),
                np.log(rng.random((b, chains))))

    def move(draws, i):
        offsets, props, props2, zs, zss, logu = draws
        block = slice(offsets[i], offsets[i] + k)
        S2 = S + zs[i] - X[:, block].sum(axis=1)
        T2 = T + zss[i] - X2[:, block].sum(axis=1)
        ok = T2 > 0
        lw2 = np.where(ok, logw_fn(S2, np.where(ok, T2, 1.0)), -np.inf)
        acc = ok & (logu[i] < lw2 - logw)
        np.copyto(X[:, block], props[i], where=acc[:, None])
        np.copyto(X2[:, block], props2[i], where=acc[:, None])
        np.copyto(S, S2, where=acc)
        np.copyto(T, T2, where=acc)
        np.copyto(logw, lw2, where=acc)
        return int(acc.sum())

    batch = max(1, min(2048, 8 * 10**6 // (chains * k) + 1))
    return S, T, draw, move, batch


def _collapsed_moves(dens: GaussianDensity, n, chains, logw_fn, rng):
    """Initial state and moves of ``(S, Q)`` chains for a pure Gaussian base.

    Under ``N(0, sigma^2)^n``, ``S ~ N(0, n sigma^2)`` and ``Q = T - S^2/n ~
    sigma^2 chi^2_{n-1}`` are independent, with joint density proportional
    to ``Q^{(n-3)/2} exp(-T / (2 sigma^2))``.  A move is one Metropolis step
    on ``(S, log Q)``: ``S' = S + 1.5 sigma n^{3/4} xi`` and ``Q' = Q
    e^{2 eta}``, ``xi ~ N(0, 1)``, ``eta ~ N(0, 1/n)``.  The tilted ``S``
    lives on the scale ``sigma n^{3/4}`` (its tilted standard deviation is
    about ``0.82 sigma n^{3/4}`` for quadratic ``g``) and ``log Q`` on
    ``sqrt(2/(n-1))``, so a step is 1.4 to 1.8 standard deviations of each
    coordinate; the scales 1.5 and 1 came from a sweep over {1, 1.5, 2, 3}
    x {0.5, 1, 1.5} at the benchmark's sizes.  The walk in ``log Q``
    contributes the Jacobian ``(n - 1) eta`` to the log ratio; for
    ``n = 1``, ``Q = 0`` and the move walks ``S`` alone.
    """
    S, T = dens.block_sums(n, chains, rng)
    # T = S * S / n + sigma^2 chi^2 rounds to at least S * S / n, so Q >= 0
    Q = T - S * S / n
    half_prec = 0.5 / dens.sigma**2
    # the log target of (S, log Q), less the Jacobian: n F - T / (2 sigma^2)
    h = logw_fn(S, T) - T * half_prec
    s_step = 1.5 * dens.sigma * n**0.75

    def draw(b):
        size = (b, chains)
        dS = rng.normal(0.0, s_step, size=size)
        eta = rng.normal(0.0, 1.0 / math.sqrt(n), size=size)
        return dS, np.exp(2.0 * eta), np.log(rng.random(size)) - (n - 1) * eta

    def move(draws, i):
        dS, q_factor, logu = (d[i] for d in draws)
        S2 = S + dS
        Q2 = Q * q_factor
        T2 = Q2 + S2 * S2 / n
        h2 = logw_fn(S2, T2) - T2 * half_prec
        acc = (T2 > 0) & (logu < h2 - h)
        for old, new in ((S, S2), (Q, Q2), (T, T2), (h, h2)):
            np.copyto(old, new, where=acc)
        return int(np.count_nonzero(acc))

    batch = max(1, min(2048, 2**18 // chains))
    return S, T, draw, move, batch


# ---------------------------------------------------------------------------
# derived statistics

def rescaled_statistic(m: TiltedModel, batch: EmpiricalBatch):
    """Rescale ``S`` to the universal fluctuation scale.

    Returns ``(values, weights)`` where values are
    ``(mu4 + m4 sigma^p)^{1/4} S / (sigma^2 n^{3/4})`` with ``p = 4`` for the
    standard variant and ``p = 6`` for the star variant.
    """
    ms = m.rho.moments
    p = 3 if m.g.variant == "star" else 2
    const = (ms.mu4 + m.g.m4 * ms.sigma2**p) ** 0.25
    vals = const * batch.S / (ms.sigma2 * m.n**0.75)
    return vals, batch.normalized_weight


def varadhan_decay(rho: Measure1D, n: int, x_threshold: float = 0.5,
                   budget: int = 60_000_000) -> float:
    """(1/n) log of the untilted integral of ``exp(n x^2 / (2y))`` over
    ``{|x| >= x_threshold}`` intersected with the admissible cone, exact over
    the multinomial classes of a symmetric atomic ``rho``."""
    pieces = []
    for _, S, T, logmult in _class_rows(rho, n, budget):
        mask = np.abs(S / n) >= x_threshold
        if np.any(mask):
            pieces.append(_log_sum_exp(logmult[mask] + S[mask] ** 2 / (2 * T)))
    return _log_sum_exp(pieces) / n


def _log_sum_exp(a) -> float:
    """``ln sum exp(a)``, summed on the scale of the largest entry; ``-inf``
    for an empty ``a``."""
    a = np.asarray(a, dtype=float)
    top = np.max(a, initial=-np.inf)
    if not np.isfinite(top):
        return float(top)
    return float(top + np.log(np.sum(np.exp(a - top))))
