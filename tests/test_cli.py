import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import integrate

from cwsoc import cli, limitlaw, measure, model


def run(capsys, *argv):
    rc = cli.dispatch(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


class TestDispatch:
    def test_rate_eval_gaussian_origin(self, capsys):
        rc, out, _ = run(capsys, "rate", "eval", "--preset", "gaussian",
                         "--x", "0", "--y", "1")
        assert rc == 0
        doc = json.loads(out)
        assert abs(doc["value"]) < 1e-9
        assert doc["converged"]

    def test_rate_eval_outside_domain(self, capsys):
        rc, out, _ = run(capsys, "rate", "eval", "--preset", "rademacher",
                         "--x", "0.5", "--y", "0.9")
        assert rc == 0
        assert json.loads(out)["value"] == pytest.approx(float("inf"))

    def test_rate_eval_table_beyond_envelope_exponent(self, tmp_path, capsys):
        # triangle f = 1 - |z|: y = 0.2 > 1/6 needs v > 0.5, the envelope's
        # exponent, which the compact support does not cap
        spec = tmp_path / "triangle.json"
        spec.write_text(json.dumps(
            {"atoms": [], "density": {"kind": "table", "x": [-1, 0, 1],
                                      "y": [0, 1, 0]},
             "domination": [1.01, 0.5], "support_radius": 1.0}))
        rc, out, _ = run(capsys, "rate", "eval", "--spec", str(spec),
                         "--x", "0.1", "--y", "0.2")
        assert rc == 0
        doc = json.loads(out)
        assert doc["converged"]
        u, v = doc["argmax"]
        assert v > 0.5
        # the tilted law at the argmax, by scipy quadrature: its mean of
        # (z, z^2) is the target, and the value is the Legendre transform
        mom = [integrate.quad(
            lambda z: z**k * math.exp(u * z + v * z * z) * (1 - abs(z)),
            -1, 1, points=[0])[0] for k in range(3)]
        assert mom[1] / mom[0] == pytest.approx(0.1, abs=1e-9)
        assert mom[2] / mom[0] == pytest.approx(0.2, abs=1e-9)
        assert doc["value"] == pytest.approx(
            0.1 * u + 0.2 * v - math.log(mom[0]), abs=1e-10)

    def test_cramer_check_rademacher_fails(self, capsys):
        rc, out, _ = run(capsys, "cramer", "check", "--preset", "rademacher",
                         "--alpha", "0.5")
        assert rc == 0
        doc = json.loads(out)
        assert doc["verdict"] == "fail"
        assert doc["witness"] is not None

    def test_cramer_check_details(self, tmp_path, capsys):
        out_file = tmp_path / "cramer.json"
        rc, out, _ = run(capsys, "cramer", "check", "--preset", "rho0",
                         "--alpha", "0.5", "--out", str(out_file))
        assert rc == 0
        doc = json.loads(out)
        assert json.loads(out_file.read_text()) == doc
        assert doc["verdict"] == "pass"
        assert isinstance(doc["sup_estimate"], float)
        assert isinstance(doc["sup_bound"], float)
        details = doc["details"]
        assert details["grid_cells"] == 1001 * 1001
        assert details["grid_radius"] == 50.0
        assert 0 < details["grid_pad"] < 0.1
        assert details["wall_s"] > 0
        mixture = details["mixture"]
        assert mixture["radius_uniform"] is True
        assert 0 < mixture["eta"] < 1
        assert 0 < mixture["error_estimate"] < 0.01
        rc, out, _ = run(capsys, "cramer", "check", "--preset", "rademacher",
                         "--alpha", "0.5")
        details = json.loads(out)["details"]
        assert details["grid_cells"] == 0  # an atomic base needs no grid
        assert details["mechanism"] == "almost periodic"
        assert details["gap"] == 0.0  # squares commensurable: exact return
        assert "mixture" not in details

    def test_measure_info(self, capsys):
        rc, out, _ = run(capsys, "measure", "info", "--preset", "rho0")
        assert rc == 0
        doc = json.loads(out)
        assert doc["sigma2"] == pytest.approx(0.25)
        assert doc["ac_mass"] == pytest.approx(0.125)
        assert doc["mass_at_zero"] == pytest.approx(0.75)

    def test_rate_grid(self, tmp_path, capsys):
        out_file = tmp_path / "grid.csv"
        rc, _, _ = run(capsys, "rate", "grid", "--preset", "gaussian",
                       "--x-min", "-0.5", "--x-max", "0.5",
                       "--y-min", "0.5", "--y-max", "1.5",
                       "--nx", "3", "--ny", "3", "--out", str(out_file))
        assert rc == 0
        lines = out_file.read_text().splitlines()
        assert lines[0] == "x,y,value,converged"
        assert len(lines) == 10
        meta = json.loads(out_file.with_suffix(".meta.json").read_text())
        assert meta["points"] == 9 and meta["converged"] == 9
        assert meta["stop_messages"] == {"converged": 9}
        assert meta["degenerate_fallbacks"] == 0
        assert type(meta["solve_wall_s"]) is float

    def test_rate_grid_meta_counts_stops(self, tmp_path, capsys):
        # rademacher: z^2 = 1, so every point goes through the degenerate
        # fallback, and only y = 1 is reachable
        out_file = tmp_path / "grid.csv"
        rc, _, _ = run(capsys, "rate", "grid", "--preset", "rademacher",
                       "--x-min", "-0.5", "--x-max", "0.5",
                       "--y-min", "0.5", "--y-max", "1.5",
                       "--nx", "3", "--ny", "3", "--out", str(out_file))
        assert rc == 0
        meta = json.loads(out_file.with_suffix(".meta.json").read_text())
        assert meta["converged"] == 3
        assert meta["degenerate_fallbacks"] == 9
        assert meta["stop_messages"] == {
            "degenerate direction v reported as free": 3,
            "second coordinate degenerate at 1.0; target unreachable": 6}
        iters = meta["newton_iterations"]
        assert type(iters["total"]) is int and 1 <= iters["max"] <= iters["total"]


class TestValidationErrors:
    def test_malformed_measure_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"atoms": [[1,')
        rc, _, err = run(capsys, "measure", "info", "--spec", str(bad))
        assert rc == 2
        assert "line 1 column" in err

    def test_missing_spec_file(self, capsys):
        rc, _, err = run(capsys, "measure", "info", "--spec", "/nope.json")
        assert rc == 2

    def test_unknown_flag(self, capsys):
        rc, _, err = run(capsys, "rate", "eval", "--preset", "gaussian",
                         "--x", "0", "--y", "1", "--bogus")
        assert rc == 2
        assert "usage" in err

    def test_missing_measure_choice(self, capsys):
        rc, _, err = run(capsys, "rate", "eval", "--x", "0", "--y", "1")
        assert rc == 2

    @pytest.mark.parametrize("density", [
        # evaluating this would exit with 99 instead of 2
        {"kind": "expr", "expr": "__import__('sys').exit(99)"},
        {"kind": "bogus"},
    ])
    def test_density_kind_rejected(self, tmp_path, capsys, density):
        spec = tmp_path / "m.json"
        spec.write_text(json.dumps({"atoms": [], "density": density,
                                    "domination": [0.41, 0.5],
                                    "support_radius": 10.0}))
        rc, _, err = run(capsys, "measure", "info", "--spec", str(spec))
        assert rc == 2
        assert "unknown density kind" in err

    @pytest.mark.parametrize("spec,message", [
        ({"atoms": [[-1, 0.25], [0, 0.25], [0, 0.25], [1, 0.25]]},
         "atom locations must be distinct"),
        ({"atoms": [[-1, 0.5], [0, 0.0], [1, 0.5]]}, "outside (0, 1]"),
        ({"atoms": [], "density": {"kind": "table", "x": [-1, 0, 1],
                                   "y": [0, -1, 0]},
          "domination": [1.01, 0.5], "support_radius": 1.0},
         "density takes negative values"),
        ({"atoms": [], "density": {"kind": "table", "x": [-1, 0, 1],
                                   "y": [0, 2, 0]},
          "domination": [2.02, 0.5], "support_radius": 5.0},
         "inconsistent with 1 - b"),
        # the mass check allows a table no tail, whatever R a spec names
        ({"atoms": [], "density": {"kind": "table", "x": [-1, 0, 1],
                                   "y": [0, 1.5, 0]}},
         "inconsistent with 1 - b"),
        ({"atoms": [[-1, 0.0625], [0, 0.75], [1, 0.0625]],
          "density": {"kind": "table", "x": [-1, 0, 1], "y": [0, 0.25, 0]}},
         "inconsistent with 1 - b"),
        ({"atoms": [], "density": {"kind": "table", "x": [1, 0, -1],
                                   "y": [0, 1, 0]}},
         "table x must be strictly increasing"),
        # a NaN would send the mass quadrature into an endless bisection
        ({"atoms": [], "density": {"kind": "table", "x": [-1, 0, 1],
                                   "y": [0, math.nan, 0]}},
         "table y must be finite"),
        ({"atoms": [[0, 1]]}, "variance is zero"),
    ], ids=["duplicate-atoms", "atom-mass", "negative-table", "table-mass",
            "table-mass-1.5", "table-rho0-mass", "table-x-order",
            "table-y-nan", "zero-variance"])
    def test_invalid_measure_spec(self, tmp_path, capsys, spec, message):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(spec))
        rc, _, err = run(capsys, "measure", "info", "--spec", str(path))
        assert rc == 2
        assert message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("v", [0.3, 0.5001])
    def test_gaussian_spec_envelope_ignored(self, tmp_path, capsys, v):
        # a spec's domination pair, below or above 1 / (2 sigma^2), does not
        # set the tilt cap: I(0, 3) = (3 - 1 - ln 3) / 2 for N(0, 1), up to
        # the 10 sigma window's 8e-9 at the argmax's tilted scale sqrt(3)
        spec = tmp_path / "m.json"
        spec.write_text(json.dumps({"atoms": [],
                                    "density": {"kind": "gaussian"},
                                    "domination": [0.41, v],
                                    "support_radius": 10.0}))
        rc, out, _ = run(capsys, "rate", "eval", "--spec", str(spec),
                         "--x", "0", "--y", "3")
        assert rc == 0
        doc = json.loads(out)
        assert doc["converged"]
        assert doc["value"] == pytest.approx((2 - math.log(3)) / 2, abs=1e-7)

    def test_table_support_radius_ignored(self, tmp_path, capsys):
        # the table's own R = 1 holds, not the spec's 0.5, which would cut
        # the moments to sigma^2 = 0.0521 while the sampler draws it whole
        spec = tmp_path / "m.json"
        spec.write_text(json.dumps(
            {"atoms": [], "density": {"kind": "table", "x": [-1, 0, 1],
                                      "y": [0, 1, 0]},
             "domination": [1.01, 0.5], "support_radius": 0.5}))
        rc, out, _ = run(capsys, "measure", "info", "--spec", str(spec))
        assert rc == 0
        assert json.loads(out)["sigma2"] == pytest.approx(1 / 6, abs=1e-14)

    def test_empty_importance_sample(self, tmp_path, capsys):
        spec = tmp_path / "m.json"
        spec.write_text(json.dumps(
            {"atoms": [[-1.0, 1e-9], [0.0, 1 - 2e-9], [1.0, 1e-9]]}))
        rc, _, err = run(capsys, "simulate", "--spec", str(spec),
                         "--method", "importance", "--n", "1",
                         "--count", "100", "--out", str(tmp_path / "b.csv"))
        assert rc == 2
        assert "T > 0" in err

    def test_metropolis_zero_chains(self, tmp_path, capsys):
        rc, _, err = run(capsys, "simulate", "--preset", "gaussian",
                         "--method", "metropolis", "--n", "4",
                         "--chains", "0", "--out", str(tmp_path / "b.csv"))
        assert rc == 2
        assert "chains must be >= 1" in err

    @pytest.mark.parametrize("rows,meta,message", [
        ("S,T,weight\n1.0,abc,1.0\n", {"method": "importance", "n": 4},
         "line 2"),
        ("S,weight\n1.0,1.0\n", {"method": "importance", "n": 4},
         "lacks column(s) ['T']"),
        ("S,T,weight\n1.0,2.0,1.0\n", {"n": 4}, "lacks 'method'"),
        ("S,T,weight\n1.0,2.0,1.0\n", {"method": "importance"},
         "lacks 'n'"),
        ("S,T,weight\n", {"method": "importance", "n": 4}, "no rows"),
        ("S,T,weight\nnan,2.0,1.0\n", {"method": "importance", "n": 4},
         "non-finite"),
    ])
    def test_malformed_batch(self, tmp_path, capsys, rows, meta, message):
        batch = tmp_path / "b.csv"
        batch.write_text(rows)
        batch.with_suffix(".meta.json").write_text(json.dumps(meta))
        rc, _, err = run(capsys, "verify", "lln", "--preset", "gaussian",
                         "--batch", str(batch),
                         "--out", str(tmp_path / "r.json"))
        assert rc == 2
        assert message in err


    @pytest.mark.parametrize("argv,message", [
        (["rate", "grid", "--preset", "gaussian", "--x-min", "0",
          "--x-max", "1", "--y-min", "1", "--y-max", "2", "--nx", "-1"],
         "--nx and --ny"),
        (["cramer", "check", "--preset", "gaussian", "--alpha", "0"],
         "--alpha"),
        (["cramer", "check", "--preset", "gaussian", "--alpha", "60"],
         "--alpha"),
        (["cramer", "check", "--preset", "gaussian", "--alpha", "0.5",
          "--step", "0"], "--step"),
        (["kernel", "verify", "--preset", "gaussian", "--n", "0",
          "--points", "0.1"], "--n"),
        (["kernel", "verify", "--preset", "gaussian", "--n", "4", "--d", "2",
          "--points", "0.1"], "2 comma-separated coordinates"),
        (["rate", "eval", "--preset", "gaussian", "--x", "nan", "--y", "1"],
         "finite"),
        (["kernel", "verify", "--preset", "gaussian", "--n", "1", "--d", "2",
          "--points", "0.1,1.05"], "--n must be >= 2"),
        (["verify", "fluct", "--preset", "gaussian", "--batch", "b.csv",
          "--tol", "nan"], "--tol"),
        (["verify", "lln", "--preset", "gaussian", "--batch", "b.csv",
          "--tol", "0"], "--tol"),
    ])
    def test_bad_analysis_arguments(self, tmp_path, capsys, argv, message):
        if argv[0] != "rate" or argv[1] != "eval":
            argv = argv + ["--out", str(tmp_path / "out.csv")]
        rc, _, err = run(capsys, *argv)
        assert rc == 2
        assert message in err

    @pytest.mark.parametrize("flag,text,message", [
        ("--spec", "[]", "JSON object"),
        ("--spec", '{"atoms": [[1.0]]}', "atoms must be"),
        ("--spec", '{"atoms": [["x", 0.5]]}', "atoms must be"),
        ("--spec", None, "Is a directory"),
        ("--config", "{", "Expecting property name"),
        ("--config", None, "No such file"),
    ])
    def test_bad_input_file(self, tmp_path, capsys, flag, text, message):
        # text None: a directory in place of the spec, no file for the config
        path = tmp_path / "input.json"
        if text is not None:
            path.write_text(text)
        elif flag == "--spec":
            path.mkdir()
        command = (["measure", "info"] if flag == "--spec"
                   else ["report", "--dir", str(tmp_path)])
        rc, _, err = run(capsys, *command, flag, str(path))
        assert rc == 2
        assert message in err


class TestEntryPoint:
    def test_module_help(self):
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        r = subprocess.run([sys.executable, "-m", "cwsoc.cli", "--help"],
                           capture_output=True, text=True, env=env, timeout=120)
        assert r.returncode == 0
        assert r.stdout.startswith("usage: cwsoc")


class TestSimulateVerify:
    def test_round_trip(self, tmp_path, capsys):
        batch = tmp_path / "batch.csv"
        rc, _, _ = run(capsys, "simulate", "--preset", "three-point",
                       "--method", "enumeration", "--n", "200",
                       "--out", str(batch))
        assert rc == 0
        diag = json.loads(batch.with_suffix(".meta.json").read_text())[
            "diagnostics"]
        assert type(diag["states"]) is int
        assert type(diag["log_Z"]) is float

        report = tmp_path / "lln.json"
        rc, out, _ = run(capsys, "verify", "lln", "--preset", "three-point",
                         "--batch", str(batch), "--out", str(report))
        assert rc == 0
        assert json.loads(report.read_text())["passed"]

        report = tmp_path / "fluct.json"
        rc, out, _ = run(capsys, "verify", "fluct", "--preset", "three-point",
                         "--batch", str(batch), "--tol", "0.2",
                         "--out", str(report))
        assert rc == 0
        doc = json.loads(report.read_text())
        assert doc["passed"]
        assert doc["cramer_condition"] == "no"
        cdf_path = report.with_suffix(".cdf.csv")
        assert cdf_path.read_text().splitlines()[0] == \
            "s,empirical_cdf,limit_cdf"
        # one row per distinct S = -200..200; the CDF steps only there
        s, emp, limit = np.loadtxt(cdf_path, delimiter=",", skiprows=1,
                                   unpack=True)
        assert len(s) == 401
        assert np.all(np.diff(s) > 0) and np.all(np.diff(emp) >= 0)
        # every S has positive weight; the CDF stalls only once it rounds to 1
        assert np.all(np.diff(emp[emp < 1]) > 0)
        assert abs(emp[-1] - 1) <= 1e-12
        below = np.concatenate(([0.0], emp[:-1]))
        gap = max(np.max(np.abs(emp - limit)), np.max(np.abs(below - limit)))
        assert doc["ks_distance"] == gap
        # the report's own step function, byte for byte what a second pass
        # over the batch writes
        tm = model.TiltedModel(rho=measure.three_point(), g=model.quadratic(),
                               n=200)
        s, emp = limitlaw.empirical_cdf(
            *model.rescaled_statistic(tm, cli._read_batch(batch)))
        ref = tmp_path / "ref.csv"
        cli._write_csv(ref, ["s", "empirical_cdf", "limit_cdf"],
                       [s, emp, limitlaw.QuarticLaw().cdf(s)])
        assert cdf_path.read_bytes() == ref.read_bytes()

    def test_determinism(self, tmp_path, capsys):
        digests = []
        for tag in ("a", "b"):
            out = tmp_path / f"{tag}.csv"
            rc, _, _ = run(capsys, "simulate", "--preset", "gaussian",
                           "--method", "importance", "--n", "30",
                           "--count", "2000", "--seed", "7", "--out", str(out))
            assert rc == 0
            digests.append(hashlib.sha256(out.read_bytes()).hexdigest())
        assert digests[0] == digests[1]
        diag = json.loads(out.with_suffix(".meta.json").read_text())[
            "diagnostics"]
        assert type(diag["proposal_draws"]) is int
        assert type(diag["ess_warning"]) is bool
        assert type(diag["effective_sample_size"]) is float

    def test_metropolis_meta(self, tmp_path, capsys):
        out = tmp_path / "m.csv"
        rc, _, _ = run(capsys, "simulate", "--preset", "gaussian",
                       "--method", "metropolis", "--n", "8",
                       "--count", "512", "--chains", "16", "--out", str(out))
        assert rc == 0
        diag = json.loads(out.with_suffix(".meta.json").read_text())[
            "diagnostics"]
        for key in ("acceptance_rate", "integrated_autocorrelation_time",
                    "effective_sample_size", "split_rhat"):
            assert type(diag[key]) is float
        for key in ("integrated_autocorrelation_time_T",
                    "effective_sample_size_T", "split_rhat_T"):
            assert type(diag[key]) is float
        assert type(diag["chains"]) is int
        assert 0.9 < diag["split_rhat"] < 1.2
        assert 0.9 < diag["split_rhat_T"] < 1.2

    def test_metropolis_count_rounds_up_to_whole_chains(self, tmp_path,
                                                        capsys):
        # 1000 records over 64 chains: 16 whole chains' worth, the batch of
        # --count 1024 byte for byte
        rows = {}
        for count in (1000, 1024):
            out = tmp_path / f"m{count}.csv"
            rc, text, _ = run(capsys, "simulate", "--preset", "gaussian",
                              "--method", "metropolis", "--n", "24",
                              "--count", str(count), "--chains", "64",
                              "--seed", "1", "--out", str(out))
            assert rc == 0
            assert text.startswith("wrote 1024 samples")
            rows[count] = out.read_bytes()
            diag = json.loads(out.with_suffix(".meta.json").read_text())[
                "diagnostics"]
            for key in ("effective_sample_size", "effective_sample_size_T"):
                assert 0 < diag[key] <= 1024
        assert rows[1000] == rows[1024]
        assert len(rows[1000].splitlines()) == 1 + 1024

    def test_quartic_g_end_to_end(self, tmp_path, capsys):
        # --g quartic --m4 0.5 reaches the model in simulate and in verify
        batch = tmp_path / "q.csv"
        rc, _, _ = run(capsys, "simulate", "--preset", "three-point",
                       "--g", "quartic", "--m4", "0.5",
                       "--method", "enumeration", "--n", "200",
                       "--out", str(batch))
        assert rc == 0
        report = tmp_path / "q.json"
        rc, _, _ = run(capsys, "verify", "fluct", "--preset", "three-point",
                       "--g", "quartic", "--m4", "0.5", "--batch", str(batch),
                       "--tol", "1", "--out", str(report))
        assert rc == 0
        tm = model.TiltedModel(rho=measure.three_point(),
                               g=model.quartic(0.5), n=200)
        exact = model.enumerate_exact(tm)
        meta = json.loads(batch.with_suffix(".meta.json").read_text())
        assert meta["diagnostics"]["log_Z"] == exact.diagnostics["log_Z"]
        ref = limitlaw.verify_fluctuations(tm, exact, tol_ks=1.0)
        assert json.loads(report.read_text())["ks_distance"] == \
            ref.ks_distance

    def test_metropolis_short_chains_report_nan(self, tmp_path, capsys):
        # one record per chain: too few to estimate tau, ESS or split-R-hat
        out = tmp_path / "m.csv"
        rc, _, _ = run(capsys, "simulate", "--preset", "gaussian",
                       "--method", "metropolis", "--n", "4",
                       "--count", "64", "--chains", "64", "--out", str(out))
        assert rc == 0
        diag = json.loads(out.with_suffix(".meta.json").read_text())[
            "diagnostics"]
        for key in ("integrated_autocorrelation_time",
                    "effective_sample_size", "split_rhat"):
            assert math.isnan(diag[key])
        for key in ("integrated_autocorrelation_time_T",
                    "effective_sample_size_T", "split_rhat_T"):
            assert math.isnan(diag[key])


@pytest.mark.parametrize("method", ["enumeration", "importance",
                                    "metropolis"])
@settings(max_examples=8, deadline=None)
@given(preset=st.sampled_from(["rademacher", "three-point", "gaussian",
                               "rho0"]),
       n=st.integers(2, 12), seed=st.integers(0, 2**16))
def test_simulate_batches_obey_cauchy_schwarz(method, preset, n, seed):
    # S^2 <= n T for every (S, T) = (sum z, sum z^2) a batch holds
    assume(method != "enumeration" or preset in ("rademacher", "three-point"))
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "b.csv"
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.dispatch(["simulate", "--preset", preset, "--method",
                               method, "--n", str(n), "--count", "256",
                               "--chains", "8", "--seed", str(seed),
                               "--out", str(out)])
        assert rc == 0
        batch = cli._read_batch(out)
    assert np.all(batch.S**2 <= n * batch.T * (1 + 1e-12))


class TestBatchIO:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 10**6), st.lists(st.tuples(
        st.floats(-1e150, 1e150), st.floats(0, 1e300),
        st.floats(0, 1e300)), min_size=1, max_size=40))
    def test_write_read_round_trip(self, n, draws):
        # a valid batch: T > 0 and S^2 <= n T in floats, finite cells
        rows = [(S, T, w) for S, T, w in draws if T > 0 and S * S <= n * T]
        assume(rows)
        S, T, w = map(np.array, zip(*rows))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "b.csv"
            cli._write_csv(path, ["S", "T", "weight"], [S, T, w])
            path.with_suffix(".meta.json").write_text(
                json.dumps({"method": "importance", "n": n}))
            batch = cli._read_batch(path)
        for got, want in ((batch.S, S), (batch.T, T), (batch.weight, w)):
            assert got.tobytes() == want.tobytes()


class TestManifest:
    def test_report_digests(self, tmp_path, capsys):
        (tmp_path / "x.csv").write_text("a,b\n1,2\n")
        rc, _, _ = run(capsys, "report", "--dir", str(tmp_path))
        assert rc == 0
        doc = json.loads((tmp_path / "manifest.json").read_text())
        expect = hashlib.sha256(b"a,b\n1,2\n").hexdigest()
        assert doc["artifacts"]["x.csv"] == expect
        assert {"python", "numpy", "scipy", "cwsoc"} <= set(doc["versions"])
        assert len(doc["config_digest"]) == 64

    def test_report_missing_dir(self, capsys):
        rc, _, err = run(capsys, "report", "--dir", "/no/such/dir")
        assert rc == 2


class TestKernelVerify:
    def test_d1_comparison(self, tmp_path, capsys):
        out = tmp_path / "k.csv"
        rc, _, _ = run(capsys, "kernel", "verify", "--preset", "gaussian",
                       "--n", "50", "--d", "1", "--points", "0.2",
                       "--out", str(out))
        assert rc == 0
        header, row = out.read_text().splitlines()
        assert header == "x,n,c,phi,se,asymptotic,ratio"
        assert abs(float(row.split(",")[-1]) - 1.0) < 0.05

    def test_lattice_base_is_numeric_failure(self, tmp_path, capsys):
        rc, _, err = run(capsys, "kernel", "verify", "--preset", "rademacher",
                         "--n", "50", "--d", "1", "--points", "0.2",
                         "--out", str(tmp_path / "k.csv"))
        assert rc == 3
