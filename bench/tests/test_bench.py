"""Self-tests of the benchmark: span arithmetic, the ESS estimator, and
that every oracle gate rejects a corrupted output.

    PYTHONPATH=src python3 -m pytest -q bench/tests
"""
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import oracles as O  # noqa: E402
import run  # noqa: E402
from tracing import Tracer, self_times  # noqa: E402

from cwsoc import measure, model  # noqa: E402


def test_self_times_of_nested_spans():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["leaf", 2.0, 3.0, 1],
        ["b", 3.5, 6.0, 0],       # overlaps a: the union is covered once
        ["b", 7.0, 8.0, 0],
    ]
    st = self_times(spans)
    assert st["root"] == pytest.approx(10 - (6.0 - 1.0) - 1.0)
    assert st["a"] == pytest.approx(2.0)
    assert st["leaf"] == pytest.approx(1.0)
    assert st["b"] == pytest.approx(3.5)
    assert sum(st.values()) == pytest.approx(10.0 + 0.5)  # overlap counted by both


def test_tracer_wraps_every_import_site_and_restores():
    from cwsoc import cli, transforms
    original = measure.sample
    tracer = Tracer()
    tracer.install()
    try:
        assert model.sample_measure is measure.sample is not original
        assert transforms.adaptive_gauss_legendre is measure.adaptive_gauss_legendre
        assert cli._PRESETS["gaussian"] is measure.gaussian
        root = tracer.begin("bench.root")
        m = measure.gaussian()
        measure.moments(m)
        model.sample_metropolis(
            model.TiltedModel(rho=measure.three_point(), g=model.quadratic(),
                              n=8), 64, burn_in=8, thin=8, rng=1, chains=8)
        tracer.end(root)
    finally:
        tracer.uninstall()
    assert model.sample_measure is original and measure.sample is original
    st = self_times(tracer.spans)
    assert sum(st.values()) == pytest.approx(root[2] - root[1], rel=1e-9)
    c = tracer.counts
    assert c["measure.moments.calls"] >= 1
    assert c["quadrature.adaptive_gauss_legendre.nodes"] > 0
    assert c["measure.sample.draws"] > 0
    # burn-in 8 + 8 records x thin 8 single-site proposals on 8 chains
    assert c["model.sample_metropolis.proposals"] == 8 * (8 + 8 * 8)


@pytest.mark.parametrize("phi", [0.0, 0.5, 0.8])
def test_ess_recovers_ar1_tau(phi):
    rng = np.random.default_rng(7)
    chains, records = 32, 4000
    x = np.empty((chains, records))
    x[:, 0] = rng.standard_normal(chains) / math.sqrt(1 - phi * phi)
    eps = rng.standard_normal((chains, records))
    for t in range(1, records):
        x[:, t] = phi * x[:, t - 1] + eps[:, t]
    d = O.chain_diagnostics(x)
    tau = (1 + phi) / (1 - phi)
    assert d["tau"] == pytest.approx(tau, rel=0.1)
    assert d["ess"] == pytest.approx(chains * records / d["tau"])
    assert d["rhat"] < 1.01


def test_rhat_flags_chains_stuck_apart():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((8, 400)) + np.arange(8)[:, None]
    assert O.chain_diagnostics(x)["rhat"] > 1.5


def _enumeration(n=32):
    m = model.TiltedModel(rho=measure.three_point(0.25), g=model.quadratic(),
                          n=n)
    return model.enumerate_exact(m)


def test_three_point_law_matches_enumeration_and_rejects_reversed_weights():
    b = _enumeration()
    law = O.three_point_s_law(32)
    assert O.ks_discrete(b.S, b.weight, *law) < 1e-12
    reversed_ks = O.ks_discrete(b.S, b.weight[::-1], *law)
    assert reversed_ks > O.kolmogorov_critical(O.kish_ess(b.weight))


def test_discrete_gate_rejects_off_support_values():
    support, probs = O.three_point_s_law(8)
    with pytest.raises(O.GateError):
        O.ks_discrete(np.array([0.5]), np.ones(1), support, probs)


def test_gaussian_exact_law_against_independent_sample():
    n, count = 8, 400_000
    rng = np.random.default_rng(11)
    z = rng.standard_normal((count, n))
    S, T = z.sum(axis=1), (z * z).sum(axis=1)
    lw = S * S / (2 * T)
    w = np.exp(lw - lw.max())
    v = 3**0.25 * S / n**0.75
    cdf = O.gaussian_quadratic_cdf(n)
    assert O.ks_continuous(v, w, cdf) <= O.kolmogorov_critical(O.kish_ess(w))
    # the untilted law is far from it
    assert O.ks_continuous(v, np.ones(count), cdf) > 0.05


def test_gaussian_exact_law_approaches_the_quartic_limit():
    grid = np.linspace(-4, 4, 801)
    gaps = [np.max(np.abs(O.gaussian_quadratic_cdf(n)(grid)
                          - O.quartic_cdf(grid))) for n in (64, 1024)]
    assert gaps[1] < gaps[0] < 0.1


def test_rate_grid_gate_rejects_a_perturbed_value():
    ref = O.load_reference()["rate_grid"]["gaussian"]
    (x0, x1), (y0, y1) = ref["x"], ref["y"]
    xs = np.repeat(np.linspace(x0, x1, ref["nx"]), ref["ny"])
    ys = np.tile(np.linspace(y0, y1, ref["ny"]), ref["nx"])
    rows = np.column_stack([xs, ys, ref["value"], ref["converged"]])
    assert O.gate_rate_grid(rows, ref, O.gaussian_rate) == len(xs)
    bad = rows.copy()
    bad[17, 2] += 1e-5
    with pytest.raises(O.GateError):
        O.gate_rate_grid(bad, ref)
    flipped = rows.copy()
    flipped[3, 3] = 0
    with pytest.raises(O.GateError):
        O.gate_rate_grid(flipped, ref)


@pytest.mark.parametrize("preset", ["rademacher", "gaussian", "rho0"])
def test_cramer_gate_rejects_a_flipped_verdict(preset):
    ref = O.load_reference()["cramer"][preset]
    payload = dict(ref, witness=[0.0, 2 * math.pi] if ref["verdict"] == "fail"
                   else None)
    O.gate_cramer(payload, ref)
    flipped = dict(payload, verdict="pass" if ref["verdict"] == "fail"
                   else "fail")
    with pytest.raises(O.GateError):
        O.gate_cramer(flipped, ref)
    if ref["sup_bound"] is not None:
        with pytest.raises(O.GateError):
            O.gate_cramer(dict(payload, sup_bound=ref["sup_bound"] + 1e-3), ref)


def test_kernel_gate():
    O.gate_kernel_ratio(1.03, 0.06)
    with pytest.raises(O.GateError):
        O.gate_kernel_ratio(1.6, 0.06)


def test_manifest_gate_rejects_a_tampered_artifact(tmp_path):
    (tmp_path / "a.csv").write_text("S,T,weight\n1,1,1\n")
    manifest = {"artifacts": {"a.csv": hashlib.sha256(
        (tmp_path / "a.csv").read_bytes()).hexdigest()}}
    O.gate_manifest(tmp_path, manifest)
    (tmp_path / "a.csv").write_text("S,T,weight\n1,1,2\n")
    with pytest.raises(O.GateError):
        O.gate_manifest(tmp_path, manifest)


def test_metric_tables_match_benchmark_json():
    path = BENCH.parent / "BENCHMARK.json"
    if not path.is_file():
        pytest.skip("no BENCHMARK.json next to the benchmark")
    doc = json.loads(path.read_text())
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == \
        list(run.PER_LAYER)
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
