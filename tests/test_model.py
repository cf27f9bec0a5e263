import hashlib
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.special import gammaln, logsumexp

from cwsoc import measure, model
from cwsoc.model import (
    InteractionError,
    ModelError,
    TiltedModel,
    enumerate_exact,
    quadratic,
    quartic,
    rescaled_statistic,
    sample_importance,
    sample_metropolis,
    split_rhat,
    varadhan_decay,
)


@pytest.fixture(scope="module")
def rad2():
    return TiltedModel(rho=measure.rademacher(), g=quadratic(), n=2)


@pytest.fixture(scope="module")
def tp100():
    return TiltedModel(rho=measure.three_point(p=0.25), g=quadratic(), n=100)


class TestInteraction:
    def test_quadratic(self):
        g = quadratic()
        assert g.g(0.5) == 0.125
        assert g.m4 == 0.0

    def test_quartic(self):
        g = quartic(1.0)
        assert g.g(0.5) == pytest.approx(0.125 - 0.5**4 / 12, abs=1e-15)
        assert g.F(0.2, 0.8) == pytest.approx(g.g(0.2 / math.sqrt(0.8)), abs=1e-15)

    def test_star_functional(self):
        g = quartic(1.0, variant="star")
        assert g.F(0.2, 0.8) == pytest.approx(g.g(0.2) / 0.8, abs=1e-15)

    def test_custom_validation_rejects_bad_curvature(self):
        with pytest.raises(InteractionError):
            model.custom(lambda u: u * u, m4=0.0)  # exceeds u^2/2

    def test_custom_validation_rejects_wrong_m4(self):
        with pytest.raises(InteractionError):
            model.custom(lambda u: u * u / 2 - u**4 / 12, m4=2.0)

    def test_custom_accepts_consistent(self):
        g = model.custom(lambda u: u * u / 2 - 0.5 * u**4 / 12, m4=0.5)
        assert g.m4 == 0.5

    def test_negative_m4_rejected(self):
        with pytest.raises(InteractionError):
            quartic(-1.0)
        # built directly, too: g = u^2/2 + u^4/12 exceeds u^2/2
        with pytest.raises(InteractionError, match="exceeds"):
            model.Interaction(kind="quartic", m4=-1.0)

    @pytest.mark.parametrize("m4", [61.0, 100.0, 1e3, 1e4])
    def test_steep_quartic_accepted(self, m4):
        # u^2/2 - m4 u^4/12 is a valid g for every m4 >= 0: near the origin
        # g(u)/u^2 is 1/2 - m4 u^2/12, not 1/2
        assert quartic(m4).m4 == m4

    @pytest.mark.parametrize("kwargs, match", [
        (dict(kind="cubic"), "unknown interaction kind"),
        (dict(kind="custom"), "callable fn"),
        (dict(kind="custom", fn=0.5), "callable fn"),
        (dict(kind="quadratic", fn=lambda u: u * u / 2), "only with kind"),
        (dict(kind="quadratic", variant="dual"), "unknown variant"),
        (dict(kind="quartic", m4=math.nan), "exceeds"),
        (dict(kind="custom", fn=lambda u: u * u / 4), r"g\(u\)/u\^2"),
        (dict(kind="custom", m4=-1e-5, fn=lambda u: u * u / 2),
         "m4 must be nonnegative"),
    ], ids=["unknown-kind", "custom-without-fn", "fn-not-callable",
            "fn-with-builtin-kind", "unknown-variant", "nan-m4",
            "custom-wrong-curvature", "custom-negative-m4"])
    def test_bad_interaction_rejected(self, kwargs, match):
        with pytest.raises(InteractionError, match=match):
            model.Interaction(**kwargs)

    def test_custom_matches_quartic(self):
        # the generic branch of log_weight against the quartic closed form
        g = model.custom(lambda u: u * u / 2 - 0.5 * u**4 / 12, m4=0.5)
        q = quartic(0.5)
        n = 40
        rng = np.random.default_rng(8)
        T = n * rng.uniform(0.05, 3.0, 500)
        S = np.sqrt(n * T) * rng.uniform(-1.0, 1.0, 500)  # S^2 <= n T
        np.testing.assert_allclose(g.log_weight(S, T, n),
                                   q.log_weight(S, T, n), rtol=0, atol=1e-12)
        log_Z = [enumerate_exact(TiltedModel(rho=measure.three_point(), g=h,
                                             n=n)).diagnostics["log_Z"]
                 for h in (g, q)]
        assert abs(log_Z[0] - log_Z[1]) <= 1e-12


class TestEnumeration:
    def test_rademacher_n2_hand_oracle(self, rad2):
        # Z = (e+1)/2 and P(S=0) = 1/(e+1), computed by hand
        b = enumerate_exact(rad2)
        assert math.exp(b.diagnostics["log_Z"]) == pytest.approx(
            (math.e + 1) / 2, abs=1e-12)
        assert b.weight[b.S == 0.0][0] == pytest.approx(
            1 / (math.e + 1), abs=1e-12)

    def test_three_point_n2_classes(self):
        m = TiltedModel(rho=measure.three_point(p=0.25), g=quadratic(), n=2)
        b = enumerate_exact(m)
        # (S,T) classes with T > 0: (+-2,2), (0,2), (+-1,1); 5 classes
        assert b.diagnostics["states"] == 5
        assert np.sum(b.weight) == pytest.approx(1.0, abs=1e-14)

    def test_sign_symmetry_exact(self, tp100):
        b = enumerate_exact(tp100)
        order = np.lexsort((b.T, b.S))
        rev = np.lexsort((b.T, -b.S))
        np.testing.assert_array_equal(b.weight[order], b.weight[rev])

    def test_cauchy_schwarz_all_states(self, tp100):
        b = enumerate_exact(tp100)
        assert np.all(b.S**2 <= tp100.n * b.T + 1e-9)

    def test_weight_bound(self, tp100):
        b = enumerate_exact(tp100)
        lw = tp100.log_weight(b.S, b.T)
        assert np.all(lw <= tp100.n / 2 + 1e-9)

    def test_collapse_marginal_consistent(self, tp100):
        full = enumerate_exact(tp100)
        marg = enumerate_exact(tp100, collapse="S")
        for s, w in zip(marg.S, marg.weight):
            assert w == pytest.approx(full.weight[full.S == s].sum(), abs=1e-13)
        assert marg.diagnostics["log_Z"] == pytest.approx(
            full.diagnostics["log_Z"], abs=1e-12)

    def test_budget_guard(self):
        m = TiltedModel(rho=measure.three_point(), g=quadratic(), n=1000)
        with pytest.raises(ModelError):
            enumerate_exact(m, budget=100)

    def test_budget_counts_classes_of_all_atoms(self):
        # comb(n + A - 1, A - 1) classes for A atoms, the all-zero one included
        m = TiltedModel(rho=FIVE_ATOM, g=quadratic(), n=24)
        with pytest.raises(ModelError, match="budget"):
            enumerate_exact(m, budget=math.comb(28, 4) - 1)
        b = enumerate_exact(m, budget=math.comb(28, 4))
        assert len(b.S) == math.comb(28, 4) - 1

    @pytest.mark.parametrize("collapse", [None, "S"])
    def test_asymmetric_atoms_rejected(self, collapse):
        # an asymmetric base cannot be built, so no enumeration, sampler or
        # Varadhan sum ever sees one; its mirrored support enumerates
        for atoms, mirrored in (
                (((-1.0, 0.3), (2.0, 0.7)),
                 ((-2.0, 0.35), (-1.0, 0.15), (1.0, 0.15), (2.0, 0.35))),
                (((-1.0, 0.25), (0.0, 0.25), (1.0, 0.5)),
                 ((-1.0, 0.375), (0.0, 0.25), (1.0, 0.375)))):
            with pytest.raises(measure.MeasureError, match="mirror"):
                measure.Measure1D(atoms=atoms)
            m = TiltedModel(rho=measure.Measure1D(atoms=mirrored),
                            g=quadratic(), n=4)
            b = enumerate_exact(m, collapse=collapse)
            assert b.weight.sum() == pytest.approx(1.0, abs=1e-12)

    def test_density_measure_rejected(self):
        m = TiltedModel(rho=measure.gaussian(), g=quadratic(), n=4)
        with pytest.raises(ModelError):
            enumerate_exact(m)

    @pytest.mark.parametrize("collapse", ["T", "s", ""])
    def test_unknown_collapse_rejected(self, tp100, collapse):
        with pytest.raises(ModelError, match="collapse"):
            enumerate_exact(tp100, collapse=collapse)


FIVE_ATOM = measure.Measure1D(
    atoms=((-2.0, 0.1), (-1.0, 0.15), (0.0, 0.5), (1.0, 0.15), (2.0, 0.1)))
NAMED_BASES = {
    "rademacher": measure.rademacher(),
    "three-point": measure.three_point(p=0.25),
    "five-atom": FIVE_ATOM,
    "two-magnitudes-no-zero": measure.Measure1D(
        atoms=((-2.5, 0.2), (-1.0, 0.3), (1.0, 0.3), (2.5, 0.2))),
}


def _brute_force(rho, n):
    """``(S, T, log probability)`` of each of the A^n configurations with
    T > 0.  The atom locations used here are dyadic, so S and T are exact
    whatever the order of summation."""
    locs = np.array([z for z, _ in rho.atoms])
    logp = np.log([p for _, p in rho.atoms])
    idx = np.array(list(itertools.product(range(len(locs)), repeat=n)))
    x = locs[idx]
    S, T, lp = x.sum(axis=1), (x * x).sum(axis=1), logp[idx].sum(axis=1)
    alive = T > 0
    return S[alive], T[alive], lp[alive]


def _law(keys, weights):
    """Sum ``weights`` over equal keys."""
    law = {}
    for k, w in zip(keys, weights):
        law[k] = law.get(k, 0.0) + w
    return law


def _check_against_brute_force(rho, n, g):
    m = TiltedModel(rho=rho, g=g, n=n)
    S, T, lp = _brute_force(rho, n)
    lw = lp + m.log_weight(S, T)
    log_Z = logsumexp(lw)
    w = np.exp(lw - log_Z)

    full = enumerate_exact(m)
    assert full.diagnostics["log_Z"] == pytest.approx(log_Z, abs=1e-12)
    want = _law(zip(S, T), w)
    got = _law(zip(full.S, full.T), full.weight)
    assert got.keys() == want.keys()
    for k in want:
        assert got[k] == pytest.approx(want[k], abs=1e-12)

    marg = enumerate_exact(m, collapse="S")
    assert marg.diagnostics["log_Z"] == pytest.approx(log_Z, abs=1e-12)
    want_w, want_tw = _law(S, w), _law(S, w * T)
    np.testing.assert_array_equal(marg.S, sorted(want_w))
    for s, ws, ts in zip(marg.S, marg.weight, marg.T):
        assert ws == pytest.approx(want_w[s], abs=1e-12)
        assert ts == pytest.approx(want_tw[s] / want_w[s], rel=1e-12)

    # x_threshold at half the largest magnitude keeps some classes for any n
    thr = max(z for z, _ in rho.atoms) / 2
    far = np.abs(S / n) >= thr
    want_v = logsumexp(lp[far] + S[far] ** 2 / (2 * T[far])) / n
    assert varadhan_decay(rho, n, x_threshold=thr) == pytest.approx(
        want_v, abs=1e-12)


@st.composite
def symmetric_atomic_bases(draw):
    """A zero atom (or none) and up to three mirror pairs at dyadic
    magnitudes, with a number of coordinates that keeps A^n small."""
    mags = draw(st.lists(st.integers(1, 8), min_size=1, max_size=3,
                         unique=True))
    raw = draw(st.lists(st.integers(1, 10), min_size=len(mags),
                        max_size=len(mags)))
    raw0 = draw(st.integers(0, 10))
    total = 2 * sum(raw) + raw0
    atoms = [(0.0, raw0 / total)] if raw0 else []
    for k, r in zip(mags, raw):
        atoms += [(-k / 4, r / total), (k / 4, r / total)]
    n_max = int(math.log(3000) / math.log(len(atoms)))
    n = draw(st.integers(1, min(6, n_max)))
    return measure.Measure1D(atoms=tuple(atoms)), n


class TestBruteForceOracle:
    """Full output, ``collapse='S'`` and ``varadhan_decay`` against a sum
    over all A^n configurations."""

    @pytest.mark.parametrize(
        "name,n", [(name, n) for name in NAMED_BASES for n in range(1, 7)],
        ids=lambda v: str(v))
    def test_named_bases(self, name, n):
        _check_against_brute_force(NAMED_BASES[name], n, quartic(1.0))

    @settings(max_examples=40, deadline=None)
    @given(symmetric_atomic_bases(),
           st.sampled_from([quadratic(), quartic(1.0), quadratic("star")]))
    def test_random_symmetric_bases(self, base, g):
        rho, n = base
        _check_against_brute_force(rho, n, g)


@settings(max_examples=30, deadline=None)
@given(symmetric_atomic_bases(), st.integers(1, 16),
       st.sampled_from([quadratic(), quartic(1.0), quadratic("star")]))
def test_enumeration_sign_symmetry_property(base, n, g):
    # a symmetric base and a g even in S: the weight at (S, T) is the weight
    # at (-S, T), and the S-marginal (with its mean T) is even in S; the
    # dyadic atoms make S and T exact, so states match as dict keys
    m = TiltedModel(rho=base[0], g=g, n=n)
    full = enumerate_exact(m)
    law = _law(zip(full.S, full.T), full.weight)
    for (S, T), w in law.items():
        assert law[(-S, T)] == pytest.approx(w, rel=1e-12, abs=1e-300)
    marg = enumerate_exact(m, collapse="S")
    np.testing.assert_array_equal(marg.S, -marg.S[::-1])
    np.testing.assert_allclose(marg.weight, marg.weight[::-1], rtol=1e-12)
    np.testing.assert_allclose(marg.T, marg.T[::-1], rtol=1e-12)


def _marginal_of_full(full):
    """``(S, w, wT)`` of a full enumeration summed over equal ``S``, for
    the named bases, whose ``S`` values are multiples of 1/2."""
    key = np.rint(2 * full.S).astype(int)
    np.testing.assert_array_equal(key / 2, full.S)
    lo = key.min()
    key -= lo
    hit = np.bincount(key) > 0
    w, wT = np.bincount(key, full.weight), np.bincount(key, full.weight * full.T)
    return (np.flatnonzero(hit) + lo) / 2, w[hit], wT[hit]


_WINDOW_CASES = ([("three-point", n) for n in (100, 500, 2000)]
                 + [("five-atom", n) for n in (40, 80)]
                 + [("two-magnitudes-no-zero", n) for n in (40, 120)])
_WINDOW_GS = {"quadratic": quadratic(), "quartic": quartic(1.0),
              "star": quadratic("star")}


class TestWindowedMarginal:
    """``collapse='S'`` visits a window of rows and splits; against the full
    output summed by ``S``.  The full mode's ``comb(n + A - 1, A - 1)``
    classes keep four- and five-atom bases at small n: the five-atom full
    output at n = 120 has 9.5 million classes and peaks near 760 MB."""

    @pytest.mark.parametrize("g", _WINDOW_GS, ids=str)
    @pytest.mark.parametrize("name,n", _WINDOW_CASES, ids=str)
    def test_matches_full_output(self, name, n, g):
        m = TiltedModel(rho=NAMED_BASES[name], g=_WINDOW_GS[g], n=n)
        full = enumerate_exact(m)
        S, w, wT = _marginal_of_full(full)
        win = enumerate_exact(m, collapse="S")
        bound = win.diagnostics["truncated_mass_bound"]
        assert 0 <= bound <= model._TRUNCATION
        np.testing.assert_array_equal(win.S, -win.S[::-1])
        np.testing.assert_allclose(win.weight, win.weight[::-1], rtol=1e-12)
        idx = np.searchsorted(S, win.S)
        np.testing.assert_array_equal(S[idx], win.S)
        np.testing.assert_allclose(win.weight, w[idx], rtol=0, atol=1e-13)
        assert win.diagnostics["log_Z"] == pytest.approx(
            full.diagnostics["log_Z"], abs=1e-12)
        # a dropped mass below the bound moves a conditional mean of T by
        # at most bound * max T / w: nothing where w >= 1e-6
        big = w[idx] >= 1e-6
        np.testing.assert_allclose(win.T[big], wT[idx][big] / w[idx][big],
                                   rtol=1e-12)
        outside = np.ones(len(S), dtype=bool)
        outside[idx] = False
        assert np.sum(w[outside]) <= bound

    @pytest.mark.parametrize("name,n", [("rademacher", 2000),
                                        ("three-point", 2000),
                                        ("five-atom", 80),
                                        ("two-magnitudes-no-zero", 120)],
                             ids=str)
    def test_bound_covers_the_dropped_mass(self, monkeypatch, name, n):
        # at a loose cut the dropped mass is large enough to measure: the
        # full log Z less the kept one is the dropped mass relative to the
        # kept mass, exactly.  Rademacher has a single row, so all it drops
        # are split tails.
        monkeypatch.setattr(model, "_TRUNCATION", 1e-4)
        m = TiltedModel(rho=NAMED_BASES[name], g=quadratic(), n=n)
        full = enumerate_exact(m)
        win = enumerate_exact(m, collapse="S")
        dropped = math.expm1(full.diagnostics["log_Z"] - win.diagnostics["log_Z"])
        bound = win.diagnostics["truncated_mass_bound"]
        assert 1e-12 < dropped <= bound <= 1e-4
        S, w, _ = _marginal_of_full(full)
        assert np.sum(w[~np.isin(S, win.S)]) <= bound

    def test_visits_a_window(self):
        # three-point at n = 10^4: about n^{5/4} of the n^2 / 2 classes
        n = 10**4
        m = TiltedModel(rho=measure.three_point(p=0.25), g=quadratic(), n=n)
        cells = enumerate_exact(m, collapse="S").diagnostics["cells"]
        assert cells * 15 < math.comb(n + 2, 2)

    def test_budget_counts_visited_cells(self):
        m = TiltedModel(rho=measure.three_point(p=0.25), g=quadratic(), n=1000)
        cells = enumerate_exact(m, collapse="S").diagnostics["cells"]
        with pytest.raises(ModelError, match="budget"):
            enumerate_exact(m, budget=cells - 1, collapse="S")
        b = enumerate_exact(m, budget=cells, collapse="S")
        assert b.diagnostics["cells"] == cells


def test_full_output_keeps_every_class():
    # n (n + 3) / 2 classes with T > 0 on three-point, and log Z as a
    # log-sum-exp over the (c0, c(+1), c(-1)) counts
    n = 500
    m = TiltedModel(rho=measure.three_point(p=0.25), g=quadratic(), n=n)
    b = enumerate_exact(m)
    assert len(b.S) == b.diagnostics["states"] == n * (n + 3) // 2
    kp, km = (a.ravel() for a in np.meshgrid(np.arange(n + 1), np.arange(n + 1)))
    alive = (kp + km >= 1) & (kp + km <= n)
    kp, km = kp[alive], km[alive]
    c0 = n - kp - km
    lp = (gammaln(n + 1.0) - gammaln(c0 + 1.0) - gammaln(kp + 1.0)
          - gammaln(km + 1.0) + c0 * math.log(0.5) + (kp + km) * math.log(0.25))
    log_Z = logsumexp(lp + (kp - km) ** 2 / (2.0 * (kp + km)))
    assert b.diagnostics["log_Z"] == pytest.approx(log_Z, rel=1e-13)
    assert np.sum(b.weight) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("rho,n", [
    (FIVE_ATOM, 40), (measure.rademacher(), 51),
    (measure.three_point(p=0.25), 300)],
    ids=["five-atom", "rademacher", "three-point"])
def test_full_output_bit_for_bit(rho, n):
    # the preallocated arrays, normalized in place, against per-row lists
    # concatenated and then normalized; with and without a zero atom (whose
    # all-zero class is not listed)
    m = TiltedModel(rho=rho, g=quadratic(), n=n)
    classes = model._Classes(rho, n)
    rows = [classes.row(ms, [0] * classes.K) for ms in classes.rows().tolist()]
    S = np.concatenate([r[0].ravel() for r in rows])
    T = np.concatenate([np.full(r[0].size, r[1]) for r in rows])
    lw = np.concatenate([(r[2] + m.log_weight(r[0], r[1])).ravel()
                         for r in rows])
    w = np.exp(lw - np.max(lw))
    b = enumerate_exact(m)
    for got, want in ((b.S, S), (b.T, T), (b.weight, w / np.sum(w))):
        assert got.tobytes() == want.tobytes()
    assert b.diagnostics["log_Z"] == np.max(lw) + math.log(np.sum(w))
    assert b.diagnostics["states"] == len(S)


class _CurieWeiss:
    """The classical Curie-Weiss model at inverse temperature ``beta``:
    weight ``exp(beta S^2 / (2 n))``, the interface enumerate_exact reads."""

    def __init__(self, rho, n, beta=1.0):
        self.rho, self.n, self.beta = rho, n, beta

    def log_weight(self, S, T):
        return self.beta * S * S / (2 * self.n)


class TestCurieWeiss:
    """On rademacher ``T = n``, so the self-organized quadratic weight ``S^2
    / (2 T)`` is the classical Curie-Weiss weight ``S^2 / (2 n)`` at the
    critical ``beta = 1``: the exact laws agree bit for bit."""

    @pytest.mark.parametrize("collapse", [None, "S"])
    @pytest.mark.parametrize("n", [200, 1000])
    def test_critical_curie_weiss_is_soc(self, n, collapse):
        rho = measure.rademacher()
        soc = enumerate_exact(TiltedModel(rho=rho, g=quadratic(), n=n),
                              collapse=collapse)
        cw = enumerate_exact(_CurieWeiss(rho, n), collapse=collapse)
        # T = n in every class; the collapsed T is a weighted mean of them
        np.testing.assert_allclose(soc.T, n, rtol=1e-15)
        np.testing.assert_array_equal(cw.S, soc.S)
        np.testing.assert_array_equal(cw.T, soc.T)
        np.testing.assert_array_equal(cw.weight, soc.weight)
        assert cw.diagnostics["log_Z"] == soc.diagnostics["log_Z"]

        off = enumerate_exact(_CurieWeiss(rho, n, beta=1.001),
                              collapse=collapse)
        assert off.diagnostics["log_Z"] != soc.diagnostics["log_Z"]
        assert not np.array_equal(off.weight, soc.weight)


class TestImportance:
    def test_rademacher_agreement(self, rad2):
        exact = enumerate_exact(rad2)
        b = sample_importance(rad2, 200_000, np.random.default_rng(0))
        ess = b.diagnostics["effective_sample_size"]
        for s in np.unique(exact.S):
            pe = exact.weight[exact.S == s].sum()
            pm = b.weighted_mean(b.S == s)
            se = math.sqrt(pe * (1 - pe) / ess)
            assert abs(pm - pe) < 3 * se + 1e-6

    def test_weights_capped(self, tp100):
        b = sample_importance(tp100, 5000, np.random.default_rng(1))
        # raw cap e^{n/2} enforced inside; stored weights are shifted
        assert np.all(b.weight <= 1.0 + 1e-12)

    def test_ess_warning_flag(self, tp100):
        b = sample_importance(tp100, 500, np.random.default_rng(2))
        assert "ess_warning" in b.diagnostics

    def test_no_draw_with_positive_T(self):
        # P(Z != 0) = 2e-9 per draw: every seeded draw is 0, so T = 0 always
        m = TiltedModel(rho=measure.three_point(p=1e-9), g=quadratic(), n=1)
        with pytest.raises(ModelError, match="T > 0"):
            sample_importance(m, 100, np.random.default_rng(0))


class TestMetropolis:
    def test_rademacher_agreement(self, rad2):
        exact = enumerate_exact(rad2)
        b = sample_metropolis(rad2, 30_000, rng=3, chains=64)
        ess = b.diagnostics["effective_sample_size"]
        for s in np.unique(exact.S):
            pe = exact.weight[exact.S == s].sum()
            pm = np.mean(b.S == s)
            se = math.sqrt(pe * (1 - pe) / ess)
            assert abs(pm - pe) < 3 * se + 1e-6

    def test_all_states_admissible(self, tp100):
        b = sample_metropolis(tp100, 2000, burn_in=2000, thin=100, rng=4,
                              chains=32)
        assert np.all(b.T > 0)
        assert np.all(b.S**2 <= tp100.n * b.T + 1e-9)

    def test_diagnostics_present(self, rad2):
        b = sample_metropolis(rad2, 1000, rng=5)
        d = b.diagnostics
        assert 0 < d["acceptance_rate"] < 1
        assert d["integrated_autocorrelation_time"] >= 1.0
        assert d["effective_sample_size"] > 0

    def test_gaussian_lln_means(self):
        m = TiltedModel(rho=measure.gaussian(), g=quadratic(), n=256)
        b = sample_metropolis(m, 4096, burn_in=40 * 256, thin=256, rng=6,
                              chains=256)
        ess = b.diagnostics["effective_sample_size"]
        se_x = np.std(b.S / m.n) / math.sqrt(ess)
        assert abs(np.mean(b.S) / m.n) < 3 * se_x
        se_y = np.std(b.T / m.n) / math.sqrt(ess)
        assert abs(np.mean(b.T) / m.n - 1.0) < max(3 * se_y, 0.05)

    @pytest.mark.parametrize("rho", [measure.gaussian(), measure.three_point()],
                             ids=["gaussian", "three-point"])
    def test_count_rounds_up_to_whole_chains(self, rho):
        # 1000 records over 64 chains: 16 per chain, all 1024 returned, the
        # same rows as asking for 1024 outright
        m = TiltedModel(rho=rho, g=quadratic(), n=8)
        b = sample_metropolis(m, 1000, rng=7, chains=64)
        assert len(b.S) == len(b.T) == len(b.weight) == 64 * 16
        whole = sample_metropolis(m, 64 * 16, rng=7, chains=64)
        assert np.array_equal(b.S, whole.S) and np.array_equal(b.T, whole.T)
        for key in ("effective_sample_size", "effective_sample_size_T"):
            assert 0 < b.diagnostics[key] <= len(b.S)

    def test_chains_below_one_rejected(self, rad2):
        with pytest.raises(ModelError, match="chains"):
            sample_metropolis(rad2, 100, rng=0, chains=0)

    @pytest.mark.parametrize("rho", [measure.gaussian(), measure.three_point()],
                             ids=["gaussian", "three-point"])
    def test_negative_burn_in_rejected(self, rho):
        # a negative burn-in would leave record columns unfilled
        m = TiltedModel(rho=rho, g=quadratic(), n=16)
        for burn_in in (-1, -10**6):
            with pytest.raises(ModelError, match="burn_in"):
                sample_metropolis(m, 64, burn_in=burn_in, rng=0, chains=8)

    @pytest.mark.parametrize("option,value", [
        ("thin", 0), ("thin", -5), ("block_size", 0), ("block_size", -3)])
    def test_nonpositive_thin_and_block_size_rejected(self, option, value):
        m = TiltedModel(rho=measure.three_point(p=0.25), g=quadratic(), n=16)
        with pytest.raises(ModelError, match=option):
            sample_metropolis(m, 64, burn_in=0, rng=0, chains=8,
                              **{option: value})

    # sha256 of the recorded (S, T) and the S diagnostics of short seeded
    # coordinate chains: a rewrite of the coordinate move must reproduce them
    # bit for bit (the digests follow numpy's Generator streams, which numpy
    # may change between releases)
    @pytest.mark.parametrize("rho,n,k,seed,digest", [
        (measure.three_point(p=0.25), 30, 7, 11,
         "5cdeeb7e63b309c42bd5814077bbdc051ca43a094f12309c8f50ed9976263ea3"),
        (measure.rho_zero(), 30, 1, 12,
         "eb083b4b6ffde73f2d4028c4ca10d57d4a140ef6157cedbb4ea32203ce1746f5"),
    ], ids=["three-point", "rho0"])
    def test_coordinate_chain_digest(self, rho, n, k, seed, digest):
        m = TiltedModel(rho=rho, g=quadratic(), n=n)
        b = sample_metropolis(m, 16 * 24, burn_in=40 * n, thin=n, rng=seed,
                              chains=16, block_size=k)
        diag = np.array([b.diagnostics[key] for key in (
            "acceptance_rate", "integrated_autocorrelation_time",
            "effective_sample_size", "split_rhat")])
        got = hashlib.sha256(b.S.tobytes() + b.T.tobytes() + diag.tobytes())
        assert got.hexdigest() == digest

    def test_gaussian_chain_digest(self):
        # the same for the (S, log Q) walk under an explicit burn-in, which
        # runs in one stream of moves with the records
        m = TiltedModel(rho=measure.gaussian(), g=quadratic(), n=30)
        b = sample_metropolis(m, 16 * 24, burn_in=40 * 30, thin=30, rng=13,
                              chains=16, block_size=4)
        diag = np.array([b.diagnostics[key] for key in (
            "acceptance_rate", "integrated_autocorrelation_time",
            "effective_sample_size", "split_rhat")])
        got = hashlib.sha256(b.S.tobytes() + b.T.tobytes() + diag.tobytes())
        assert got.hexdigest() == (
            "5b18ee1058540fb7a763dba022e7292d9ea1fe4bf95bc6d074852b387b33b271")

    def test_explicit_burn_in_diagnostics(self):
        # 100 proposals at k = 7 are 15 steps, 105 proposals; no rounds
        m = TiltedModel(rho=measure.three_point(), g=quadratic(), n=30)
        d = sample_metropolis(m, 64, burn_in=100, rng=0, chains=8,
                              block_size=7).diagnostics
        assert d["burn_in"] == 105 and type(d["burn_in"]) is int
        assert d["burn_in_rounds"] == 0 and d["burn_in_capped"] is False
        assert math.isnan(d["burn_in_rhat"])


class TestDefaultBurnIn:
    # burn_in=None: rounds of model._BURN_ROUND records until the split-R-hats
    # of S, |S - median(S)| and T are below 1.01, capped at 10 n^2 proposals

    @pytest.mark.parametrize("n", [24, 1024])
    def test_gaussian_stops_early_and_matches_exact_law(self, n):
        m = TiltedModel(rho=measure.gaussian(), g=quadratic(), n=n)
        b = sample_metropolis(m, 64 * 160, rng=1)
        d = b.diagnostics
        # the walk mixes within a record or two: one or two rounds suffice,
        # each of 32 records one sweep apart
        k, thin_steps = d["block_size"], -(-n // d["block_size"])
        assert d["burn_in_capped"] is False
        assert 1 <= d["burn_in_rounds"] <= 2
        assert d["burn_in"] == d["burn_in_rounds"] * 32 * thin_steps * k
        assert d["burn_in"] < 10 * n * n / 4
        assert d["burn_in_rhat"] < 1.01
        grid, cdf = _gaussian_tilted_cdf(m)
        ess = d["effective_sample_size"]
        assert _ks(b.S, grid, cdf) < 1.95 / math.sqrt(ess)

    def test_slow_chain_hits_the_cap(self):
        # three-point chains have tau of about 12 records at n = 24, so the
        # rounds run to 10 n^2 proposals, the fixed burn-in they replace,
        # the last round cut short to fit
        n = 24
        m = TiltedModel(rho=measure.three_point(), g=quadratic(), n=n)
        d = sample_metropolis(m, 64 * 160, rng=1).diagnostics
        k = d["block_size"]
        assert d["burn_in_capped"] is True
        assert d["burn_in"] == -(-10 * n * n // k) * k
        assert d["burn_in_rounds"] == math.ceil(10 * n * n / (32 * n))
        assert d["burn_in_rhat"] >= 1.01

    def test_folded_series_sees_a_change_of_scale(self):
        # zero-mean chains whose scale doubles halfway through the first
        # round: the half-chain means of S agree (R-hat near 1), those of
        # |S - median(S)| do not, so the first round does not end burn-in
        rng = np.random.default_rng(0)
        chains, steps = 64, [0]
        S, T = np.zeros(chains), np.ones(chains)

        def draw(b):
            return rng.normal(size=(b, chains))

        def move(z, i):
            steps[0] += 1
            S[:] = z[i] * (1.0 if steps[0] <= 16 else 2.0)
            return chains

        made, _, rounds, capped, _ = model._burn_in_rounds(
            S, T, draw, move, 64, 1, 10**4)
        assert rounds >= 2 and made == 32 * rounds and not capped

    @pytest.mark.parametrize("rho", [measure.gaussian(), measure.three_point()],
                             ids=["gaussian", "three-point"])
    def test_same_seed_same_bytes(self, rho):
        m = TiltedModel(rho=rho, g=quadratic(), n=24)
        a, b = (sample_metropolis(m, 640, rng=3, chains=32) for _ in range(2))
        assert a.S.tobytes() + a.T.tobytes() == b.S.tobytes() + b.T.tobytes()
        assert repr(a.diagnostics) == repr(b.diagnostics)


def _gaussian_tilted_cdf(m: TiltedModel, points: int = 2000, draws: int = 1000):
    """Exact CDF of S under the tilted Gaussian base, on a grid.

    Under N(0, sigma^2)^n, S ~ N(0, n sigma^2) and R = T - S^2/n ~
    sigma^2 chi^2_{n-1} are independent, so the tilted density of S is
    phi(s) E_R[exp(n F)] with T = R + s^2/n: a 1-D integral, taken here over
    midpoint quantiles of R (R = 0 for n = 1, where an even number of grid
    points keeps s = 0, hence T = 0, off the grid).
    """
    n, sig2 = m.n, m.rho.moments.sigma2
    L = (2 * n + 10 * math.sqrt(n) + 10) * math.sqrt(sig2)
    s = np.linspace(-L, L, points)
    p = (np.arange(draws) + 0.5) / draws
    r = sig2 * stats.chi2.ppf(p, n - 1) if n > 1 else np.zeros(1)
    T = r[None, :] + (s * s / n)[:, None]
    lw = m.log_weight(np.broadcast_to(s[:, None], T.shape), T)
    logpdf = -s * s / (2 * n * sig2) + logsumexp(lw, axis=1)
    pdf = np.exp(logpdf - logpdf.max())
    cdf = np.concatenate([[0.0], np.cumsum((pdf[1:] + pdf[:-1]) / 2)])
    return s, cdf / cdf[-1]


def _ks(sample, grid, cdf):
    x = np.sort(sample)
    F = np.interp(x, grid, cdf)
    i = np.arange(1, len(x) + 1) / len(x)
    return max(float(np.max(i - F)), float(np.max(F - (i - 1 / len(x)))))


def _gaussian_cases():
    for n in (1, 2, 8, 64):
        for k in sorted({1, max(n - 1, 1), n}):
            for g in ("quadratic", "quartic"):
                yield n, k, g


class TestGaussianExactLaw:
    @pytest.mark.parametrize("n,k,g", list(_gaussian_cases()))
    def test_metropolis_matches_exact_law(self, n, k, g):
        gi = quadratic() if g == "quadratic" else quartic(1.0)
        m = TiltedModel(rho=measure.gaussian(), g=gi, n=n)
        b = sample_metropolis(m, 64 * 256, burn_in=20 * n, thin=n, rng=n + k,
                              chains=64, block_size=k)
        ess = b.diagnostics["effective_sample_size"]
        grid, cdf = _gaussian_tilted_cdf(m)
        # Kolmogorov critical value at level 1e-3
        assert _ks(b.S, grid, cdf) < 1.95 / math.sqrt(ess)

    @pytest.mark.parametrize("n,k", [(n, k) for n in (2, 8, 64, 1024)
                                     for k in (1, n)])
    @pytest.mark.parametrize("g", ["quadratic", "quartic"])
    def test_metropolis_T_is_chi2(self, n, k, g):
        # F sees (S, T) only through the direction S / sqrt(n T), and
        # N(0, sigma^2)^n is rotation invariant, so under the tilt T / sigma^2
        # is chi^2_n exactly, whatever g
        sigma = 1.3
        gi = quadratic() if g == "quadratic" else quartic(1.0)
        m = TiltedModel(rho=measure.gaussian(sigma=sigma), g=gi, n=n)
        # a step stands for k proposals: 64 burn-in steps, 4 per record
        b = sample_metropolis(m, 64 * 256, burn_in=64 * k, thin=4 * k,
                              rng=n + k, chains=64, block_size=k)
        ess = b.diagnostics["effective_sample_size_T"]
        # a chain that barely moves would pass on the loose bound of its
        # tiny ESS; the walk gives above 5,000 of the 16,384 records
        assert ess > 2000
        ks = stats.kstest(b.T / sigma**2, stats.chi2(n).cdf).statistic
        assert ks < 1.95 / math.sqrt(ess)

    def test_oracle_n1_is_the_base(self):
        # for n = 1 the tilt exp(g(+-1)) is constant: S ~ N(0, 1)
        m = TiltedModel(rho=measure.gaussian(), g=quartic(1.0), n=1)
        grid, cdf = _gaussian_tilted_cdf(m)
        np.testing.assert_allclose(cdf, stats.norm.cdf(grid), atol=1e-5)

    @pytest.mark.parametrize("k", [1, 2, 7])
    def test_block_sums_law(self, k):
        sigma, N = 1.7, 400_000
        dens = measure.gaussian(sigma=sigma).density
        s, ss = dens.block_sums(k, N, np.random.default_rng(k))
        var = k * sigma**2
        assert abs(np.mean(s)) < 5 * math.sqrt(var / N)
        assert np.var(s) == pytest.approx(var, rel=5 * math.sqrt(2 / N))
        # sum Z^2 ~ sigma^2 chi^2_k: mean k sigma^2, variance 2 k sigma^4
        assert np.mean(ss) == pytest.approx(
            var, abs=5 * sigma**2 * math.sqrt(2 * k / N))
        assert np.var(ss) == pytest.approx(2 * k * sigma**4, rel=0.05)
        assert np.all(s * s <= k * ss * (1 + 1e-12))


class TestSplitRhat:
    def test_iid_chains(self):
        x = np.random.default_rng(0).normal(size=(16, 2000))
        assert split_rhat(x) < 1.01

    def test_shifted_chain_means(self):
        x = np.random.default_rng(1).normal(size=(16, 2000))
        x += np.arange(16)[:, None] * 0.5
        assert split_rhat(x) > 1.1

    def test_drift_within_chains(self):
        # a single drifting chain: its two halves disagree
        x = np.random.default_rng(2).normal(size=(1, 2000))
        x += np.linspace(0.0, 3.0, 2000)
        assert split_rhat(x) > 1.1

    def test_too_short(self):
        assert math.isnan(split_rhat(np.zeros((4, 3))))


class TestEmpiricalBatch:
    @pytest.mark.parametrize("S_last,T_last,message", [
        (1.0, 0.0, "T > 0"), (3.0, 1.0, "Cauchy-Schwarz")])
    def test_violation_in_last_block_raises(self, S_last, T_last, message):
        # the checks run block by block; the last block is a partial one
        size = 2 * model._CHECK_ROWS + 5
        S, T = np.zeros(size), np.ones(size)
        S[-1], T[-1] = S_last, T_last
        with pytest.raises(ModelError, match=message):
            model.EmpiricalBatch(S=S, T=T, weight=np.ones(size),
                                 method="importance", n=4)
        model.EmpiricalBatch(S=S[:-1], T=T[:-1], weight=np.ones(size - 1),
                             method="importance", n=4)


class TestDerivedStatistics:
    def test_rescaled_statistic_gaussian_constant(self):
        # mu4 = 3, sigma^2 = 1, quadratic g: constant is 3^{1/4}
        m = TiltedModel(rho=measure.gaussian(), g=quadratic(), n=16)
        b = model.EmpiricalBatch(
            S=np.array([8.0]), T=np.array([16.0]), weight=np.array([1.0]),
            method="importance", n=16)
        vals, _ = rescaled_statistic(m, b)
        assert vals[0] == pytest.approx(3**0.25 * 8.0 / 16**0.75, abs=1e-12)

    def test_rescaled_statistic_quartic_constant(self):
        m = TiltedModel(rho=measure.gaussian(), g=quartic(1.0), n=16)
        b = model.EmpiricalBatch(
            S=np.array([8.0]), T=np.array([16.0]), weight=np.array([1.0]),
            method="importance", n=16)
        vals, _ = rescaled_statistic(m, b)
        assert vals[0] == pytest.approx(4**0.25 * 8.0 / 16**0.75, abs=1e-12)

    def test_rescaled_statistic_star_constant(self):
        # sigma = 2: sigma^2 = 4 and mu4 = 48, so the star variant's constant
        # is 48 + 4^3 = 112, the standard one's 48 + 4^2 = 64
        m = TiltedModel(rho=measure.gaussian(sigma=2.0),
                        g=quartic(1.0, "star"), n=16)
        b = model.EmpiricalBatch(
            S=np.array([8.0]), T=np.array([64.0]), weight=np.array([1.0]),
            method="importance", n=16)
        vals, _ = rescaled_statistic(m, b)
        assert vals[0] == pytest.approx(112**0.25 / 4, abs=1e-9)


class TestVaradhanDecay:
    def test_brute_force_n12(self):
        # frozen from a 3^12 direct enumeration of configurations
        got = varadhan_decay(measure.three_point(p=0.25), 12)
        assert got == pytest.approx(-0.06894546845167081, abs=1e-10)

    def test_negative_along_ladder(self):
        vals = [varadhan_decay(measure.three_point(p=0.25), n)
                for n in (50, 100, 200, 400)]
        assert all(v < 0 for v in vals)

    def test_integral_strictly_decays(self):
        # n * value is the log of the integral itself; it must fall steadily
        vals = {n: n * varadhan_decay(measure.three_point(p=0.25), n)
                for n in (50, 100, 200, 400)}
        assert vals[400] < vals[200] < vals[100] < vals[50] < 0

    def test_rises_toward_the_limit(self):
        # notes/decisions.md: v_n = L - ln(n)/(2n) + c/n + O(1/n^2), with
        # the Varadhan limit L and c from the lattice Laplace sum, so v_n
        # rises toward L and c(n) = n (v_n - L) + ln(n)/2 closes on c at
        # rate O(1/n)
        L, c = -0.0537958, 1.4265
        table = {50: -0.0672633, 100: -0.0633856, 200: -0.0601360,
                 400: -0.0577787, 800: -0.0562059, 1600: -0.0552137}
        ns = sorted(table)
        v = {n: varadhan_decay(measure.three_point(p=0.25), n) for n in ns}
        for n in ns:
            assert v[n] == pytest.approx(table[n], abs=5e-8)
        assert all(v[a] < v[b] < L for a, b in zip(ns, ns[1:]))
        gaps = [c - (n * (v[n] - L) + math.log(n) / 2) for n in ns]
        assert all(0.45 < b / a < 0.6 for a, b in zip(gaps, gaps[1:]))
        assert 0 < gaps[-1] < 0.01

    def test_matches_logsumexp_reference(self):
        # the max-shifted sums agree with scipy's logsumexp over the same rows
        five = measure.Measure1D(atoms=((-2.0, 0.1), (-1.0, 0.15), (0.0, 0.5),
                                        (1.0, 0.15), (2.0, 0.1)))
        for rho, n in ((measure.three_point(p=0.25), 200),
                       (measure.rademacher(), 101), (five, 24)):
            classes = model._Classes(rho, n)
            pieces = []
            for ms in classes.rows().tolist():
                S, T, logmult = classes.row(ms, [0] * classes.K)
                mask = np.abs(S / n) >= 0.5
                if mask.any():
                    pieces.append(logsumexp(logmult[mask] + S[mask]**2 / (2 * T)))
            ref = logsumexp(pieces) / n
            assert varadhan_decay(rho, n) == pytest.approx(ref, rel=1e-14,
                                                           abs=0)

    def test_empty_region_is_minus_infinity(self):
        # |S / n| <= 1 on three-point, so no class reaches the threshold;
        # the empty sum gives no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert varadhan_decay(measure.three_point(p=0.25), 8,
                                  x_threshold=1.5) == -math.inf


def test_ln_factorials_match_gammaln():
    n = 10**4
    got = model._ln_factorials(n)
    want = gammaln(np.arange(n + 1) + 1.0)
    assert np.all(np.abs(got - want) <= 1e-15 * np.abs(want))
