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
_BURN_ROUND = 32     # records per round of the default burn-in
_RHAT_TARGET = 1.01  # the default burn-in stops once every split-R-hat is below
_CHECK_ROWS = 1 << 16  # EmpiricalBatch checks this many samples at a time


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
            want = 0.5 - self.m4 * h * h / 12
            if not abs(ratio - want) <= 1e-3 * 0.5 + 1e-12:
                raise InteractionError(
                    f"g(u)/u^2 = {ratio} at u = {h}, expected {want}")
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

    def quartic_constant(self, moments) -> float:
        """``mu4 + m4 sigma^{2p}`` of a base's ``moments``, with ``p = 3``
        for the star variant and ``p = 2`` otherwise: the quartic constant
        of the limit law (``rescaled_statistic``) and of the expansion of
        ``I - F`` at its minimum (``transforms.rate_expansion_residual``)."""
        p = 3 if self.variant == "star" else 2
        return moments.mu4 + self.m4 * moments.sigma2**p

    def F(self, x, y):
        """Tilt functional on ``(x, y) = (S/n, T/n)`` with ``y > 0``: the
        log-weight at ``n = 1``."""
        return self.log_weight(x, y, 1)

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
        # block by block, so that the temporaries stay small next to a full
        # enumeration's arrays
        for i in range(0, len(self.T), _CHECK_ROWS):
            S, T = self.S[i:i + _CHECK_ROWS], self.T[i:i + _CHECK_ROWS]
            if np.any(T <= 0):
                raise ModelError("retained samples must have T > 0")
            if np.any(S**2 > self.n * T * (1 + 1e-12) + 1e-9):
                raise ModelError("Cauchy-Schwarz violated: S^2 > n T")
            if np.any(self.weight[i:i + _CHECK_ROWS] < 0):
                raise ModelError("weights must be nonnegative")
        if not np.sum(self.weight) > 0:
            raise ModelError("weights must have a positive sum")

    @property
    def normalized_weight(self) -> np.ndarray:
        return self.weight / np.sum(self.weight)

    def weighted_mean(self, values) -> float:
        return float(np.sum(self.normalized_weight * values))


# ---------------------------------------------------------------------------
# exact enumeration

_TRUNCATION = 1e-18  # collapse='S' drops at most this fraction of the kept mass


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


class _Classes:
    """Multinomial classes of atom counts under ``rho^{x n}`` with ``T > 0``.

    ``rho`` must be atomic, hence (as every base is symmetric) a zero atom
    of mass ``p0`` (which may be absent) and ``K >= 1`` mirror magnitudes
    ``z_j``, each of ``+-z_j`` with mass ``p_j``.  A row fixes the totals
    ``m = (m_1, ..., m_K)``, ``m_j = c(+z_j) + c(-z_j)``, and with them the
    zero count ``c0 = n - M``, ``M = sum_j m_j``, and ``T = sum_j z_j^2
    m_j``; a level is the set of rows of one ``M`` (``M = n`` alone when
    there is no zero atom).  The signed splits ``kp_j = c(+z_j)`` in
    ``[0, m_j]`` span a grid of shape ``(m_1 + 1, ..., m_K + 1)``, on which
    the row gives ``S = sum_j z_j d_j``, ``d_j = 2 kp_j - m_j``, and the log
    probability of the class, ``ln n! - ln c0! + c0 ln p0 + sum_j [m_j ln
    p_j - ln kp_j! - ln (m_j - kp_j)!]``.  Each magnitude's factorial term
    is symmetric on its own, so mirror classes get bitwise-equal values.
    A density component, or more than ``budget`` classes when one is given,
    raise ModelError before any row is listed.
    """

    def __init__(self, rho: Measure1D, n: int, budget: Optional[int] = None):
        if rho.density is not None:
            raise ModelError("exact enumeration requires a purely atomic measure")
        # comb(n + A - 1, A - 1) classes of A atoms, the all-zero one included
        A = len(rho.atoms)
        n_classes = math.comb(n + A - 1, A - 1)
        if budget is not None and n_classes > budget:
            raise ModelError(f"enumeration budget exceeded: {n_classes} "
                             f"classes at n = {n}")
        mags = rho.mirror_magnitudes()
        self.n = n
        self.z = [zj for zj, _ in mags]
        self.lp = [math.log(pj) for _, pj in mags]
        p0 = rho.mass_at_zero
        # without a zero atom every row has c0 = 0, so ln p0 never counts
        self.lp0 = math.log(p0) if p0 > 0 else 0.0
        self.levels = np.arange(1, n + 1) if p0 > 0 else np.array([n])
        self.ln_q = math.log(2 * sum(pj for _, pj in mags))
        self.ln_fact = _ln_factorials(n)
        K = self.K = len(mags)
        self._axis = [(-1,) + (1,) * (K - 1 - j) for j in range(K)]

    def rows(self, levels=None) -> np.ndarray:
        """The rows of ``levels`` (every level by default), ``M`` rising and
        then ``m`` in lexicographic order, one ``m`` per line."""
        levels = self.levels if levels is None else levels
        return np.array([ms for M in levels.tolist()
                         for ms in _compositions(M, self.K)]).reshape(-1, self.K)

    def row(self, ms, lo):
        """``(S, T, logmult)`` on the splits ``lo_j <= kp_j <= m_j - lo_j``
        of row ``ms``: a window symmetric in each ``d_j``."""
        n, lf = self.n, self.ln_fact
        c0 = n - sum(ms)
        base = lf[n] - lf[c0] + c0 * self.lp0
        S = reduce(add, ((zj * np.arange(2 * l - mj, mj - 2 * l + 1, 2))
                         .reshape(ax)
                         for zj, mj, l, ax in zip(self.z, ms, lo, self._axis)))
        T = reduce(add, (zj * zj * mj for zj, mj in zip(self.z, ms)))
        row_base = reduce(add, (mj * lpj for mj, lpj in zip(ms, self.lp)), base)
        # ln kp! + ln (m - kp)! for kp = l..m - l: a slice plus its reverse
        logmult = row_base - reduce(add, (
            (f + f[::-1]).reshape(ax) for f, ax in zip(
                (lf[l:mj - l + 1] for mj, l in zip(ms, lo)), self._axis)))
        return S, T, logmult

    # Bounds on a row's tilted mass, the sum of P(class) e^{n F} over its
    # classes, for any g <= u^2/2 (derived in notes/decisions.md): n F <=
    # sum_j d_j^2 / (2 m_j) and C(m, k) e^{d^2 / (2m)} <= 2^m e^{-m x^4 / 12}
    # with x = d / m, so the row carries at most B_r = prod_j (m_j + 1)
    # P(c0, m) with (c0, m) ~ Mult(n; p0, 2 p_1, ..., 2 p_K), and its
    # classes with |d_j| >= x m_j at most B_r e^{-m_j x^4 / 12}.

    def log_row_bounds(self, rows: np.ndarray) -> np.ndarray:
        """``ln B_r`` for each row ``m`` of ``rows``, shape (R, K)."""
        lf = self.ln_fact
        c0 = self.n - rows.sum(axis=1)
        return (lf[self.n] - lf[c0] + c0 * self.lp0 - lf[rows].sum(axis=1)
                + rows @ (np.array(self.lp) + math.log(2.0))
                + np.log1p(rows).sum(axis=1))

    def log_level_bounds(self) -> np.ndarray:
        """A bound on ``ln sum_r B_r`` over each level: ``((M + K) / K)^K``
        (the largest ``prod_j (m_j + 1)``) times ``P(Bin(n, 1 - p0) = M)``."""
        lf, n, M, K = self.ln_fact, self.n, self.levels, self.K
        c0 = n - M
        return (lf[n] - lf[c0] - lf[M] + c0 * self.lp0 + M * self.ln_q
                + K * np.log((M + K) / K))


def _drop_smallest(log_bounds: np.ndarray, log_budget: float):
    """Keep mask that drops the smallest bounds while their sum stays within
    ``exp(log_budget)``, and the log of that sum (``-inf`` if none)."""
    order = np.argsort(log_bounds)
    lost = np.logaddexp.accumulate(log_bounds[order])
    k = int(np.searchsorted(lost, log_budget, side="right"))
    keep = np.ones(len(log_bounds), dtype=bool)
    keep[order[:k]] = False
    return keep, (float(lost[k - 1]) if k else -math.inf)


def _window(rows: np.ndarray, halfwidth) -> np.ndarray:
    """The least ``lo`` per row and axis with ``m - 2 lo <= halfwidth``."""
    return np.maximum(0, np.ceil((rows - halfwidth) / 2)).astype(int)


def _marginal_of_S(m: TiltedModel, budget: int) -> EmpiricalBatch:
    """``enumerate_exact(m, collapse='S')``: the law of ``S`` from the rows
    and splits whose bounds can matter, in one pass; see enumerate_exact."""
    n = m.n
    classes = _Classes(m.rho, n)
    K = classes.K
    log_level = classes.log_level_bounds()
    shift = float(np.max(log_level))   # no class weighs more than e^shift
    log_level -= shift

    # the core |d_j| <= 2 m_j^{3/4} of the top level's largest row is kept
    # mass, so 3 tol below is at most _TRUNCATION times the kept mass
    top = classes.rows(classes.levels[[np.argmax(log_level)]])
    probe = top[np.argmax(classes.log_row_bounds(top))]
    lo = _window(probe, 2.0 * probe ** 0.75)
    S, T, logmult = classes.row(probe.tolist(), lo.tolist())
    cells = logmult.size
    log_tol = (math.log(_TRUNCATION / 3)
               + _log_sum_exp(logmult + m.log_weight(S, T) - shift))

    # tol each for whole levels, rows, and split tails
    keep, lost_levels = _drop_smallest(log_level, log_tol)
    rows = classes.rows(classes.levels[keep])
    log_row = classes.log_row_bounds(rows) - shift
    keep, lost_rows = _drop_smallest(log_row, log_tol)
    rows, log_row = rows[keep], log_row[keep]
    # |d_j| <= (12 c)^{1/4} m_j^{3/4} makes each axis's tail at most
    # B_r e^{-c} = B_r tol / (K sum_r B_r)
    c = math.log(K) + _log_sum_exp(log_row) - log_tol
    lo = _window(rows, (12.0 * c) ** 0.25 * rows ** 0.75)
    width = rows - 2 * lo
    cells += int(np.sum(np.prod(width + 1, axis=1)))
    if cells > budget:
        raise ModelError(f"enumeration budget exceeded: {cells} cells "
                         f"at n = {n}")
    # the first dropped split on an axis sits at |d_j| = width + 2
    x = (width + 2) / np.maximum(rows, 1)
    tails = np.where(lo > 0, log_row[:, None] - rows * x**4 / 12, -math.inf)
    log_lost = _log_sum_exp([lost_levels, lost_rows, _log_sum_exp(tails)])

    H = np.max(width, axis=0)   # the largest kept |d_j| on each axis
    w_cell = np.zeros(tuple(2 * H + 1))   # cell H_j + d_j on axis j
    tw_cell = np.zeros_like(w_cell)
    for ms, l_r in zip(rows.tolist(), lo.tolist()):
        S, T, logmult = classes.row(ms, l_r)
        # a row's classes fill a stride-2 block of the d cells
        block = tuple(slice(h - mj + 2 * l, h + mj - 2 * l + 1, 2)
                      for h, mj, l in zip(H.tolist(), ms, l_r))
        w = np.exp(logmult + m.log_weight(S, T) - shift)
        w_cell[block] += w
        tw_cell[block] += w * T
    d = np.ix_(*[np.arange(-h, h + 1) for h in H])
    S_cell = reduce(add, (zj * dj for zj, dj in zip(classes.z, d)))
    keep = w_cell > 0
    # cells with different d can share S when K > 1
    S_out, inv = np.unique(S_cell[keep], return_inverse=True)
    w_out = np.bincount(inv, weights=w_cell[keep])
    T_out = np.bincount(inv, weights=tw_cell[keep]) / w_out
    total = float(np.sum(w_out))
    return EmpiricalBatch(
        S=S_out, T=T_out, weight=w_out / total, method="enumeration", n=n,
        diagnostics={"log_Z": shift + math.log(total), "collapsed": "S",
                     "states": len(S_out), "cells": cells,
                     "truncated_mass_bound": math.exp(log_lost) / total})


def enumerate_exact(m: TiltedModel, budget: int = 60_000_000,
                    collapse: Optional[str] = None) -> EmpiricalBatch:
    """Exact law of ``(S, T)`` under the tilted measure for a symmetric
    atomic ``rho``; a density component raises ModelError.

    States are the multinomial classes of atom counts (``_Classes``), so
    the cost is polynomial in ``n``.  The full output lists every class
    with ``T > 0``, so its ``diagnostics['truncated_mass_bound']`` is 0.0;
    more than ``budget`` classes (``comb(n + A - 1, A - 1)`` for ``A``
    atoms) raise ModelError.

    With ``collapse='S'`` only the marginal of ``S`` is kept (``T`` is
    replaced by its conditional mean per ``S`` value), which is what
    large-``n`` fluctuation studies need.  It visits only the classes that
    can carry mass, row by row in one pass: levels, then rows, then the
    splits ``|d_j| > (12 c)^{1/4} m_j^{3/4}`` of each kept row are dropped
    where their bounds (``_Classes``) sum to at most ``_TRUNCATION / 3`` of
    the kept mass each.  ``diagnostics['truncated_mass_bound']`` is the
    bound on the dropped mass relative to the kept mass (at most
    ``_TRUNCATION``), and ``diagnostics['cells']`` counts the classes
    visited; more than ``budget`` of them raise ModelError.
    """
    if collapse == "S":
        return _marginal_of_S(m, budget)
    if collapse is not None:
        raise ModelError(f"collapse must be None or 'S', not {collapse!r}")
    n = m.n
    classes = _Classes(m.rho, n, budget)
    rows = classes.rows()
    # filled row by row; the log-weights become the weights in place
    states = int(np.prod(rows + 1, axis=1).sum())
    S_all, T_all, w = (np.empty(states) for _ in range(3))
    end = 0
    for ms in rows.tolist():
        S, T, logmult = classes.row(ms, [0] * classes.K)
        S_all[end:end + S.size] = S.ravel()
        T_all[end:end + S.size] = T
        w[end:end + S.size] = (logmult + m.log_weight(S, T)).ravel()
        end += S.size
    gmax = float(np.max(w))
    w -= gmax
    np.exp(w, out=w)
    total = float(np.sum(w))
    w /= total
    return EmpiricalBatch(
        S=S_all, T=T_all, weight=w, method="enumeration", n=n,
        diagnostics={"log_Z": gmax + math.log(total), "states": states,
                     "truncated_mass_bound": 0.0})


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
    chunk = max(1, min(count, 20_000_000 // n))
    S, T = np.empty(count), np.empty(count)
    for done in range(0, count, chunk):
        x = sample_measure(m.rho, min(chunk, count - done) * n, rng)
        x = x.reshape(-1, n)
        S[done:done + len(x)] = x.sum(axis=1)
        # squared in place: the same floats as x * x, without a second chunk
        T[done:done + len(x)] = np.square(x, out=x).sum(axis=1)
    alive = T > 0
    if not np.any(alive):
        raise ModelError(f"none of the {count} proposal draws has T > 0; "
                         "the importance sample is empty")
    S, T = S[alive], T[alive]
    lw = m.log_weight(S, T)
    assert np.all(lw <= n / 2 + 1e-9), "weight bound e^{n/2} violated"
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
    ``thin`` are in single-coordinate proposals per chain (``thin`` defaults
    to one sweep, ``n``); with ``k = block_size`` one step stands for ``k``
    of them, so a chain makes ``ceil(burn_in / k)`` steps before its first
    record and ``ceil(thin / k)`` between records.  Moves to ``T = 0`` are
    rejected.

    ``burn_in=None`` burns in by rounds of ``_BURN_ROUND`` states, taken
    ``ceil(thin / k)`` steps apart, until the chains agree: after each
    round the split-R-hat of that round's ``S``, of the folded ``|S -
    median(S)|`` and of ``T`` are all below ``_RHAT_TARGET``.  The rounds
    stop at ``ceil(10 n^2 / k)`` steps in any case (the last one cut
    short), so the default never burns in longer than 10 n sweeps.  The
    decision reads the chains' own states only, so it does not depend on
    ``count``, and recording starts after it.  The folded series sees a
    change of scale that the means of ``S`` miss: a Gaussian chain starts
    from the untilted law, narrower than the tilted one and as symmetric.
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
    - Every other base (atomic, atom-plus-Gaussian such as ``rho0``, or a
      table density): each chain stores its ``n`` coordinates and a
      step replaces ``k`` contiguous ones with fresh draws from ``rho``, at
      one random offset shared by the chains, accepted with the ratio of the
      tilt weights ``exp(n F)``; the target is exchangeable, so contiguous
      blocks lose nothing.

    ``diagnostics`` holds the acceptance rate of the steps (on the Gaussian
    path that of the joint move, about 0.38 at n = 1024), the integrated
    autocorrelation time, ESS and split-R-hat of the recorded ``S`` and,
    under the same names with the suffix ``_T``, of the recorded ``T``, and
    the schedule: ``burn_in`` is the number of proposals made before the
    first record (the steps times ``k``), ``burn_in_rounds`` the rounds of
    the default burn-in, ``burn_in_capped`` whether they reached the
    10 n-sweep cap before the chains agreed, and ``burn_in_rhat`` the largest
    of the three split-R-hats of the last round (0, False and NaN under an
    explicit ``burn_in``).  With fewer than 4 records per chain the six
    statistics of the records are NaN.  At ``k = n`` and tiny ``n`` the
    Gaussian path makes one step per record, so its ESS per record is low
    (``S`` at n = 8: 0.18).
    """
    if count < 1:
        raise ModelError("count must be >= 1")
    if chains < 1:
        raise ModelError("chains must be >= 1")
    if burn_in is not None and burn_in < 0:
        raise ModelError("burn_in must be >= 0")
    if thin is not None and thin < 1:
        raise ModelError("thin must be >= 1")
    if block_size is not None and block_size < 1:
        raise ModelError("block_size must be >= 1")
    if rng is None or isinstance(rng, int):
        rng = np.random.default_rng(rng)
    n = m.n
    chains = min(chains, count)
    thin = n if thin is None else thin
    k = min(block_size or max(1, min(n // 64, 256)), n)
    records = -(-count // chains)
    if not m.rho.atoms and isinstance(m.rho.density, GaussianDensity):
        moves = _collapsed_moves(m.rho.density, n, chains, m.log_weight, rng)
    else:
        moves = _coordinate_moves(m.rho, n, k, chains, m.log_weight, rng)
    thin_steps = -(-thin // k)
    if burn_in is None:
        burn_steps, accepted, rounds, capped, rhat = _burn_in_rounds(
            *moves, thin_steps, -(-10 * n * n // k))
        skip = 0
    else:
        # an explicit burn-in runs in the same stream of moves as the records
        burn_steps = skip = -(-burn_in // k)
        accepted, rounds, capped, rhat = 0, 0, False, math.nan
    S_rec, T_rec, acc = _run_schedule(*moves, skip, thin_steps, records)
    accepted += acc
    diag = {"acceptance_rate":
            accepted / (chains * (burn_steps + records * thin_steps))}
    for suffix, rec in (("", S_rec), ("_T", T_rec)):
        tau = integrated_autocorr_time(rec)
        diag["integrated_autocorrelation_time" + suffix] = tau
        diag["effective_sample_size" + suffix] = chains * records / tau
        diag["split_rhat" + suffix] = split_rhat(rec)
    diag.update(chains=chains, burn_in=burn_steps * k, burn_in_rounds=rounds,
                burn_in_capped=capped, burn_in_rhat=rhat, thin=thin,
                block_size=k)
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


def _burn_in_rounds(S, T, draw, move, batch, thin_steps, cap):
    """The default burn-in of sample_metropolis: rounds of ``_BURN_ROUND``
    states ``thin_steps`` moves apart until the split-R-hats of the round's
    ``S``, ``|S - median(S)|`` and ``T`` are all below ``_RHAT_TARGET``, or
    ``cap`` moves.  Returns ``(steps, accepted, rounds, capped, rhat)``,
    ``rhat`` the largest R-hat of the last round."""
    steps = accepted = rounds = 0
    while steps < cap:
        # a round cut short by the cap records the states at its end
        todo = min(_BURN_ROUND * thin_steps, cap - steps)
        S_r, T_r, acc = _run_schedule(S, T, draw, move, batch,
                                      todo % thin_steps, thin_steps,
                                      todo // thin_steps)
        steps += todo
        accepted += acc
        rounds += 1
        folded = np.abs(S_r - np.median(S_r)) if S_r.size else S_r
        rhat = max(split_rhat(x) for x in (S_r, folded, T_r))
        if rhat < _RHAT_TARGET:
            return steps, accepted, rounds, False, rhat
    return steps, accepted, rounds, True, rhat


def _coordinate_moves(rho: Measure1D, n, k, chains, logw_fn, rng):
    """Initial state and moves of chains that store the ``n`` coordinates."""
    # initial states from the product measure, resampled until T > 0
    X = sample_measure(rho, chains * n, rng).reshape(chains, n)
    T = (X * X).sum(axis=1)
    while np.any(T <= 0):
        dead = T <= 0
        X[dead] = sample_measure(rho, int(dead.sum()) * n, rng).reshape(-1, n)
        T = (X * X).sum(axis=1)
    S = X.sum(axis=1)
    logw = logw_fn(S, T)

    def draw(b):
        offsets = rng.integers(0, n - k + 1, size=b).tolist()
        props = sample_measure(rho, b * chains * k, rng).reshape(b, chains, k)
        return (offsets, props, props.sum(axis=2),
                (props * props).sum(axis=2), np.log(rng.random((b, chains))))

    def move(draws, i):
        offsets, props, zs, zss, logu = draws
        old = X[:, offsets[i]:offsets[i] + k]   # a view: accepted moves write X
        S2 = S + zs[i] - old.sum(axis=1)
        T2 = T + zss[i] - (old * old).sum(axis=1)
        ok = T2 > 0
        lw2 = np.where(ok, logw_fn(S2, np.where(ok, T2, 1.0)), -np.inf)
        acc = ok & (logu[i] < lw2 - logw)
        np.copyto(old, props[i], where=acc[:, None])
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

    Returns ``(values, weights)`` where values are ``C^{1/4} S / (sigma^2
    n^{3/4})``, ``C = mu4 + m4 sigma^{2p}`` the interaction's
    ``quartic_constant``.
    """
    ms = m.rho.moments
    const = m.g.quartic_constant(ms) ** 0.25
    vals = const * batch.S / (ms.sigma2 * m.n**0.75)
    return vals, batch.normalized_weight


def varadhan_decay(rho: Measure1D, n: int, x_threshold: float = 0.5,
                   budget: int = 60_000_000) -> float:
    """(1/n) log of the untilted integral of ``exp(n x^2 / (2y))`` over
    ``{|x| >= x_threshold}`` intersected with the admissible cone, exact over
    the multinomial classes of a symmetric atomic ``rho``: the ``log_Z`` of
    ``enumerate_exact`` with quadratic ``g`` plus the log of its weight on
    the region, ``-inf`` where the region holds no class."""
    law = enumerate_exact(TiltedModel(rho, quadratic(), n), budget)
    w = np.sum(law.weight, where=np.abs(law.S / n) >= x_threshold)
    return ((law.diagnostics["log_Z"] + math.log(w)) / n if w > 0
            else -math.inf)


def _log_sum_exp(a) -> float:
    """``ln sum exp(a)``, summed on the scale of the largest entry; ``-inf``
    for an empty ``a``."""
    a = np.asarray(a, dtype=float)
    top = np.max(a, initial=-np.inf)
    if not np.isfinite(top):
        return float(top)
    return float(top + np.log(np.sum(np.exp(a - top))))
