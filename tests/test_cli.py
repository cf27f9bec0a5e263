import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from importlib import metadata
from pathlib import Path

import numpy as np
import pytest
import scipy
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import integrate

from cwsoc import cli, cramer, kernel, limitlaw, measure, model, transforms


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

    def test_rate_eval_diverged_argmax_is_numeric_failure(self, capsys):
        # (0, 0) lies on the edge of the Gaussian's domain: a finite value
        # with a diverged argmax is a numeric failure, not an infinite rate
        rc, out, _ = run(capsys, "rate", "eval", "--preset", "gaussian",
                         "--x", "0", "--y", "0")
        assert rc == 3
        doc = json.loads(out)
        assert not doc["converged"]
        assert doc["message"] == "argmax diverged; outside admissible domain"

    def test_rate_eval_flat_lift_failure_keeps_its_message(self, capsys):
        # x = 1.5 lies beyond the coin flip's atoms: the solve fails, and
        # says why
        rc, out, _ = run(capsys, "rate", "eval", "--preset", "rademacher",
                         "--x", "1.5", "--y", "1")
        assert rc == 3
        doc = json.loads(out)
        assert not doc["converged"]
        assert doc["message"] == ("curvature vanished; outside admissible "
                                  "domain")

    @pytest.mark.parametrize("spec,x,y,expect", [
        ({"density": {"kind": "gaussian", "mass": 1, "sigma": 1e-5}},
         5e-6, 1.2e-10, (0.2 - math.log(0.95)) / 2),
        ({"atoms": [[-1e-7, 0.5], [1e-7, 0.5]]}, 4e-8, 1e-14,
         (1.4 * math.log(1.4) + 0.6 * math.log(0.6)) / 2)],
        ids=["gaussian", "atoms"])
    def test_rate_eval_off_unit_scale(self, tmp_path, capsys, spec, x, y,
                                      expect):
        # the rate solver works in the base's own units
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        rc, out, _ = run(capsys, "rate", "eval", "--spec", str(path),
                         "--x", str(x), "--y", str(y))
        assert rc == 0
        doc = json.loads(out)
        assert doc["converged"]
        assert doc["value"] == pytest.approx(expect, rel=0, abs=1e-9)

    def test_rate_eval_table_beyond_envelope_exponent(self, tmp_path, capsys):
        # triangle f = 1 - |z|: y = 0.2 > 1/6 needs v > 0.5, which the
        # compact support does not cap
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

    def test_measure_info_validates_once(self, tmp_path, capsys, monkeypatch):
        # the loader builds the measure once, and its construction is the
        # one validation pass
        calls = []
        post_init = measure.Measure1D.__post_init__

        def counted(self):
            calls.append(1)
            post_init(self)

        monkeypatch.setattr(measure.Measure1D, "__post_init__", counted)
        spec = tmp_path / "triangle.json"
        spec.write_text(json.dumps({"atoms": [], "density": {
            "kind": "table", "x": [-1, 0, 1], "y": [0, 1, 0]}}))
        rc, out, _ = run(capsys, "measure", "info", "--spec", str(spec))
        assert rc == 0 and len(calls) == 1
        assert json.loads(out)["sigma2"] == pytest.approx(1 / 6)

    @pytest.mark.parametrize("command, rc", [
        (["rate", "eval", "--x", "0.02", "--y", "0.17"], 0),
        (["rate", "grid", "--x-min", "-0.1", "--x-max", "0.1", "--y-min",
          "0.1", "--y-max", "0.18", "--nx", "2", "--ny", "2",
          "--out", "{out}.csv"], 0),
        (["cramer", "check", "--alpha", "2"], 0),
        # the smoothed density refuses a table base when it is built
        (["kernel", "verify", "--n", "10", "--points", "0.1",
          "--out", "{out}.csv"], 3),
        (["verify", "lln", "--batch", "{batch}", "--out", "{out}.json"], 0)],
        ids=["rate-eval", "rate-grid", "cramer-check", "kernel-verify",
             "verify-lln"])
    def test_one_validation_pass(self, tmp_path, capsys, monkeypatch,
                                 command, rc):
        # the loader, the rate solver, the Cramer evaluator and the LLN
        # check share the measure's one validation pass
        spec = tmp_path / "triangle.json"
        spec.write_text(json.dumps({"atoms": [], "density": {
            "kind": "table", "x": [-1, 0, 1], "y": [0, 1, 0]}}))
        batch = tmp_path / "batch.csv"
        batch.write_text("S,T,weight\r\n0.5,1.0,1.0\r\n-0.5,0.5,2.0\r\n")
        batch.with_suffix(".meta.json").write_text(
            json.dumps({"method": "importance", "n": 4}))
        passes = []
        post_init = measure.Measure1D.__post_init__

        def counted(self):
            passes.append(1)
            post_init(self)

        monkeypatch.setattr(measure.Measure1D, "__post_init__", counted)
        argv = [a.format(out=tmp_path / "out", batch=batch) for a in command]
        got, _, _ = run(capsys, *argv, "--spec", str(spec))
        assert got == rc and len(passes) == 1

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


# knots off the 201-point grid on [0, 1] that once checked a density's
# shape, and a table of mass 1 on them that is negative only at +-0.5025
OFF_GRID_X = [-1, -0.5026, -0.5025, -0.5024, 0, 0.5024, 0.5025, 0.5026, 1]
_Y = np.array([1, 1, -0.66, 1, 1, 1, -0.66, 1, 1])
OFF_GRID_NEGATIVE_Y = (_Y / np.trapezoid(_Y, OFF_GRID_X)).tolist()


# A sequence of commands in one process: runs, usage errors, --help, both
# verify modes (their ``mode`` defaults differ) and ``nargs="+"`` points.
_SHARED_PARSER_SEQUENCE = [
    ["simulate", "--preset", "three-point", "--method", "enumeration",
     "--n", "30", "--out", "batch.csv"],
    ["rate", "eval", "--preset", "gaussian", "--x", "0.1", "--y", "1.2"],
    ["rate", "eval", "--preset", "gaussian", "--x", "0.1"],
    ["verify", "lln", "--preset", "three-point", "--batch", "batch.csv",
     "--tol", "0.5", "--out", "lln.json"],
    ["verify", "fluct", "--preset", "three-point", "--batch", "batch.csv",
     "--out", "fluct.json"],
    ["kernel", "verify", "--preset", "gaussian", "--n", "10", "--samples",
     "200", "--points", "0.1", "0.2", "--out", "kernel-2.csv"],
    ["kernel", "verify", "--preset", "gaussian", "--n", "10", "--samples",
     "200", "--points", "0.3", "--out", "kernel-1.csv"],
    ["--help"],
    ["rate", "grid", "--help"],
    ["bogus"],
]


class TestSharedParser:
    def _run_sequence(self, work, capsys, monkeypatch, fresh):
        work.mkdir()
        monkeypatch.chdir(work)
        monkeypatch.setattr(cli, "_parser", None)
        results = []
        for argv in _SHARED_PARSER_SEQUENCE:
            if fresh:
                monkeypatch.setattr(cli, "_parser", None)
            results.append(run(capsys, *argv))
        artifacts = {p.name: p.read_bytes() for p in sorted(work.iterdir())}
        return results, artifacts

    def test_matches_a_fresh_parser_per_call(self, tmp_path, capsys,
                                             monkeypatch):
        shared, shared_files = self._run_sequence(
            tmp_path / "shared", capsys, monkeypatch, fresh=False)
        fresh, fresh_files = self._run_sequence(
            tmp_path / "fresh", capsys, monkeypatch, fresh=True)
        assert shared == fresh
        assert shared_files == fresh_files
        assert [rc for rc, _, _ in shared] == [0, 0, 2, 0, 0, 0, 0, 0, 0, 2]
        _, help_out, _ = shared[7]
        assert help_out.startswith("usage: cwsoc")
        _, grid_help, _ = shared[8]
        assert grid_help.startswith("usage: cwsoc rate grid")
        for rc_out_err in (shared[2], shared[9]):
            assert rc_out_err[2].startswith("usage: cwsoc")
        # no option of one call leaks into the next: fluct takes its own
        # default tolerance and mode, the second kernel call has one point
        lln = json.loads(shared_files["lln.json"])
        fluct = json.loads(shared_files["fluct.json"])
        assert lln["tolerances"] == {"tol": 0.5}
        assert fluct["tolerances"] == {"tol_ks": 0.05}
        assert fluct["test_id"] != lln["test_id"]
        assert "fluct.cdf.csv" in shared_files
        assert len(shared_files["kernel-2.csv"].splitlines()) == 3
        assert len(shared_files["kernel-1.csv"].splitlines()) == 2

    def test_built_once_per_process(self, capsys, monkeypatch):
        calls = []
        build = cli.build_parser

        def counted():
            calls.append(1)
            return build()
        monkeypatch.setattr(cli, "build_parser", counted)
        monkeypatch.setattr(cli, "_parser", None)
        for argv in (["measure", "info", "--preset", "rademacher"],
                     ["--help"], ["bogus"],
                     ["rate", "eval", "--preset", "gaussian", "--x", "0",
                      "--y", "1"],
                     ["measure", "info", "--preset", "gaussian"]):
            run(capsys, *argv)
        assert len(calls) == 1

    def test_import_builds_no_parser(self):
        src = str(Path(cli.__file__).resolve().parents[1])
        r = subprocess.run(
            [sys.executable, "-c",
             "from cwsoc import cli; assert cli._parser is None"],
            capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=src), timeout=120)
        assert r.returncode == 0, r.stderr


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

    def test_m4_with_quadratic_g_refused(self, tmp_path, capsys):
        # the quadratic g has m4 = 0; another --m4 is not dropped silently
        out = tmp_path / "b.csv"
        rc, _, err = run(capsys, "simulate", "--preset", "three-point",
                         "--g", "quadratic", "--m4", "5", "--method",
                         "enumeration", "--n", "8", "--out", str(out))
        assert rc == 2
        assert "m4 = 5.0 inconsistent" in err
        assert not out.exists()

    def test_steep_quartic_g_accepted(self, tmp_path, capsys):
        rc, _, err = run(capsys, "simulate", "--preset", "three-point",
                         "--g", "quartic", "--m4", "100", "--method",
                         "enumeration", "--n", "50",
                         "--out", str(tmp_path / "b.csv"))
        assert rc == 0, err

    def test_missing_measure_choice(self, capsys):
        rc, _, err = run(capsys, "rate", "eval", "--x", "0", "--y", "1")
        assert rc == 2

    def test_preset_and_spec_exclusive(self, tmp_path, capsys):
        # the spec is not dropped silently, not even a missing one
        rc, out, err = run(capsys, "measure", "info", "--preset", "rho0",
                           "--spec", str(tmp_path / "missing.json"))
        assert rc == 2
        assert out == ""
        assert "not allowed with argument --preset" in err
        rc, _, err = run(capsys, "measure", "info")
        assert rc == 2
        assert "one of --preset or --spec is required" in err

    @pytest.mark.parametrize("command", [
        ["simulate", "--preset", "three-point", "--method", "importance",
         "--n", "8"],
        ["kernel", "verify", "--preset", "gaussian", "--n", "10", "--d", "2",
         "--points", "0.1,1.05"],
    ], ids=["simulate", "kernel-verify"])
    def test_negative_seed_refused_before_loading(self, tmp_path, capsys,
                                                  monkeypatch, command):
        def loaded(args):
            raise AssertionError("measure loaded before --seed was checked")

        monkeypatch.setattr(cli, "_load_measure", loaded)
        out = tmp_path / "out.csv"
        rc, _, err = run(capsys, *command, "--seed", "-1", "--out", str(out))
        assert rc == 2
        assert err == "error: --seed must be >= 0\n"
        assert not out.exists()

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
        # refused when the table is built, before the mass check integrates
        ({"atoms": [], "density": {"kind": "table", "x": [-1, 0, 1],
                                   "y": [0, math.nan, 0]}},
         "table y must be finite"),
        ({"atoms": [[0, 1]]}, "variance is zero"),
        # named by the spec, not by the envelope or R derived from it
        ({"atoms": [], "density": {"kind": "table", "x": [-1, 0, 1],
                                   "y": [0, 0, 0]}},
         "table density: zero mass (every y is 0)"),
        ({"atoms": [], "density": {"kind": "table", "x": [0], "y": [1]}},
         "table density: it needs at least two points"),
        ({"atoms": [], "density": {"kind": "table", "x": OFF_GRID_X,
                                   "y": OFF_GRID_NEGATIVE_Y}},
         "density takes negative values"),
        # refused when the table is built, before the mass check integrates
        ({"atoms": [], "density": {"kind": "table",
                                   "x": [-math.inf, 0, math.inf],
                                   "y": [0, 1, 0]}},
         "table x must be finite"),
        # finite knots whose z^4 overflows: the moments come out infinite
        ({"atoms": [], "density": {"kind": "table",
                                   "x": [-1e100, 0, 1e100],
                                   "y": [0, 1e-100, 0]}},
         "moments not finite"),
        # a misspelt key is named, not read as a missing one
        ({"atom": [[-1, 0.5], [1, 0.5]]},
         "unknown key 'atom' in the measure spec"),
        ({"atoms": [], "density": {"kind": "gaussian", "sigam": 2}},
         "unknown key 'sigam' in the gaussian density"),
    ], ids=["duplicate-atoms", "atom-mass", "negative-table", "table-mass",
            "table-mass-1.5", "table-rho0-mass", "table-x-order",
            "table-y-nan", "zero-variance", "table-zero-mass",
            "table-one-point", "negative-between-grid-points",
            "table-x-inf", "table-huge-knots", "unknown-key",
            "unknown-density-key"])
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
        ("S,T,weight\n1.0,2.0,1.0\n", {"method": "importance", "n": [20]},
         "batch metadata"),
        ("S,T,weight\n1.0,2.0,1.0\n", {"method": "importance", "n": "abc"},
         "batch metadata"),
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
        (["kernel", "verify", "--preset", "gaussian", "--n", "10", "--c", "inf",
          "--points", "0.1"], "--c"),
        # grids beyond the 64-bit address space fail at allocation, so these
        # allocate nothing
        (["cramer", "check", "--preset", "gaussian", "--alpha", "0.5",
          "--step", "1e-15"], "out of memory"),
        (["rate", "grid", "--preset", "gaussian", "--x-min", "0", "--x-max",
          "0.1", "--y-min", "0.5", "--y-max", "2", "--nx", "2",
          "--ny", "20000000000000000"], "out of memory"),
        # non-finite points, 1e400 among them, are refused before any solve
        *((["kernel", "verify", "--preset", "gaussian", "--n", "10",
            "--points", p], "--points") for p in ("nan", "inf", "1e400")),
        (["kernel", "verify", "--preset", "gaussian", "--n", "10", "--d", "2",
          "--points", "0.1,nan"], "--points"),
        # grids whose axis numpy cannot even size
        (["cramer", "check", "--preset", "gaussian", "--alpha", "0.5",
          "--step", "1e-300"], "out of memory"),
        (["cramer", "check", "--preset", "gaussian", "--alpha", "0.5",
          "--radius", "1e300"], "out of memory"),
        # one draw has no std error
        (["kernel", "verify", "--preset", "gaussian", "--n", "40", "--d", "2",
          "--samples", "1", "--points", "0.1,1.05"], "--samples"),
        (["simulate", "--preset", "three-point", "--method", "importance",
          "--n", "0"], "n must be >= 1"),
        *((["simulate", "--preset", "three-point", "--method", method,
            "--n", "8", "--count", "0"], "count must be >= 1")
          for method in ("importance", "metropolis")),
        (["kernel", "verify", "--preset", "gaussian", "--n", "10",
          "--points", "0.1,abc"], "--points: could not convert"),
    ])
    def test_bad_analysis_arguments(self, tmp_path, capsys, argv, message):
        if argv[0] != "rate" or argv[1] != "eval":
            argv = argv + ["--out", str(tmp_path / "out.csv")]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc, _, err = run(capsys, *argv)
        assert rc == 2
        assert message in err

    @pytest.mark.parametrize("command", [
        ["simulate", "--preset", "three-point", "--method", "enumeration",
         "--n", "8", "--out", "{out}"],
        ["rate", "grid", "--preset", "gaussian", "--x-min", "0", "--x-max",
         "0.1", "--y-min", "0.5", "--y-max", "1", "--nx", "2", "--ny", "2",
         "--out", "{out}"],
        ["cramer", "check", "--preset", "rademacher", "--alpha", "0.5",
         "--out", "{out}"],
        ["kernel", "verify", "--preset", "gaussian", "--n", "10",
         "--points", "0.1", "--out", "{out}"],
        ["verify", "lln", "--preset", "three-point", "--batch", "{batch}",
         "--out", "{out}"],
    ], ids=["simulate", "rate-grid", "cramer-check", "kernel-verify",
            "verify"])
    @pytest.mark.parametrize("where", ["missing-parent", "directory"])
    def test_unwritable_out(self, tmp_path, capsys, command, where):
        batch = tmp_path / "batch.csv"
        batch.write_text("S,T,weight\n0.5,1.0,1.0\n-0.5,0.5,2.0\n")
        batch.with_suffix(".meta.json").write_text(
            json.dumps({"method": "importance", "n": 4}))
        out = tmp_path / "no-such-dir" / "out.csv"
        if where == "directory":
            out = tmp_path / "taken"
            out.mkdir()
        argv = [a.format(out=out, batch=batch) for a in command]
        rc, _, err = run(capsys, *argv)
        assert rc == 2
        assert err.startswith(f"error: cannot write {out}: ")

    @pytest.mark.parametrize("command,target", [
        (["simulate", "--preset", "three-point", "--method", "metropolis",
          "--n", "64", "--out", "{out}"], (model, "sample_metropolis")),
        (["rate", "grid", "--preset", "gaussian", "--x-min", "0", "--x-max",
          "0.1", "--y-min", "0.5", "--y-max", "1", "--out", "{out}"],
         (transforms.RateFunction, "solve_many")),
        (["kernel", "verify", "--preset", "gaussian", "--n", "40", "--d",
          "2", "--points", "0.1,1.05", "--out", "{out}"],
         (kernel, "theorem3_comparison")),
        (["verify", "lln", "--preset", "three-point", "--batch", "{batch}",
          "--out", "{out}"], (limitlaw, "verify_lln")),
        (["cramer", "check", "--preset", "rho0", "--alpha", "0.5", "--out",
          "{out}"], (cramer, "check_condition")),
    ], ids=["simulate", "rate-grid", "kernel-verify", "verify",
            "cramer-check"])
    @pytest.mark.parametrize("where", ["missing-parent", "directory"])
    def test_unwritable_out_refused_before_computing(
            self, tmp_path, capsys, monkeypatch, command, target, where):
        # the sampler or solver would raise if it ran: the output path is
        # checked first, not after seconds of work
        def computed(*args, **kwargs):
            raise AssertionError("computed before --out was checked")

        monkeypatch.setattr(*target, computed)
        batch = tmp_path / "batch.csv"
        batch.write_text("S,T,weight\n0.5,1.0,1.0\n-0.5,0.5,2.0\n")
        batch.with_suffix(".meta.json").write_text(
            json.dumps({"method": "importance", "n": 4}))
        out = tmp_path / "no-such-dir" / "out.csv"
        if where == "directory":
            out = tmp_path / "taken"
            out.mkdir()
        rc, _, err = run(capsys, *[a.format(out=out, batch=batch)
                                   for a in command])
        assert rc == 2
        assert err.startswith(f"error: cannot write {out}: ")

    def test_unwritable_manifest(self, tmp_path, capsys):
        (tmp_path / "manifest.json").mkdir()
        rc, _, err = run(capsys, "report", "--dir", str(tmp_path))
        assert rc == 2
        assert err.startswith(
            f"error: cannot write {tmp_path / 'manifest.json'}: ")

    @pytest.mark.parametrize("flag,text,message", [
        ("--spec", "[]", "JSON object"),
        ("--spec", '{"atoms": [[1.0]]}', "atoms must be"),
        ("--spec", '{"atoms": [["x", 0.5]]}', "atoms must be"),
        ("--spec", None, "Is a directory"),
        ("--config", "{", "Expecting property name"),
        ("--config", None, "No such file"),
        ("--spec", '{"density": {"kind": "gaussian", "sigma": 0}}',
         "mass > 0 and sigma > 0"),
        ("--spec", '{"density": {"kind": "table", "x": [-1, 0, 1], '
         '"y": [0, 1]}}', "equal-length"),
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

    def test_closed_stdout_is_a_normal_exit(self):
        # the reader of the pipe is gone before the command prints, as with
        # ``cwsoc cramer check ... | head -c 100``
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        p = subprocess.Popen(
            [sys.executable, "-m", "cwsoc.cli", "cramer", "check", "--preset",
             "gaussian", "--alpha", "0.5"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        p.stdout.close()
        err = p.stderr.read().decode()
        assert p.wait(timeout=120) == 0
        assert "Traceback" not in err and "BrokenPipeError" not in err, err


# Runs CLI commands in one fresh interpreter and prints, as JSON, whether
# scipy is loaded after the import and after each command.
_IMPORT_PROBE = """
import contextlib, io, json, sys
from cwsoc import cli
loaded = ["scipy" in sys.modules]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.dispatch(argv)
    assert rc == 0, (argv, rc)
    loaded.append("scipy" in sys.modules)
print(json.dumps(loaded))
"""


def _scipy_loaded(commands) -> list:
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    r = subprocess.run([sys.executable, "-c", _IMPORT_PROBE,
                        json.dumps(commands)], capture_output=True, text=True,
                       env=env, timeout=300)
    assert r.returncode == 0, r.stderr
    return json.loads(r.stdout)


def _pipeline(tmp_path, preset, methods) -> list:
    """Every command on one preset: the sampler runs of ``methods``, then
    ``verify lln`` and ``verify fluct`` on the last batch, and ``report``."""
    base = ["--preset", preset]
    commands = [
        ["measure", "info", *base],
        ["rate", "eval", *base, "--x", "0.1", "--y", "0.5"],
        ["rate", "grid", *base, "--x-min", "-0.2", "--x-max", "0.2",
         "--y-min", "0.3", "--y-max", "0.7", "--nx", "3", "--ny", "3",
         "--out", str(tmp_path / "grid.csv")],
        ["cramer", "check", *base, "--alpha", "0.5"],
    ]
    for method in methods:
        batch = str(tmp_path / f"{method}.csv")
        commands.append(["simulate", *base, "--method", method, "--n", "20",
                         "--count", "256", "--chains", "8", "--out", batch])
    commands += [
        ["verify", "lln", *base, "--batch", batch,
         "--out", str(tmp_path / "lln.json")],
        ["verify", "fluct", *base, "--batch", batch, "--tol", "0.5",
         "--out", str(tmp_path / "fluct.json")],
    ]
    if preset == "gaussian":  # the d = 1 kernel takes a pure Gaussian
        commands.append(["kernel", "verify", *base, "--n", "20", "--d", "1",
                         "--points", "0.1",
                         "--out", str(tmp_path / "kernel.csv")])
    return commands + [["report", "--dir", str(tmp_path)]]


class TestImportBoundary:
    """No command loads ``scipy``, which only the tests use: not on an
    atomic base, not on one with a Gaussian component (whose tilted moments
    come from the fixed Gauss-Legendre rule), not in ``verify fluct`` (the
    quartic law's CDF runs on the same rule) and not in ``report`` (the
    manifest reads scipy's version from the package metadata)."""

    def test_atomic_base_never_loads_scipy_special(self, tmp_path):
        commands = _pipeline(tmp_path, "three-point",
                             ["importance", "metropolis", "enumeration"])
        assert _scipy_loaded(commands) == [False] * (len(commands) + 1)

    @pytest.mark.parametrize("preset", ["gaussian", "rho0"])
    def test_gaussian_component_never_loads_scipy_special(self, tmp_path,
                                                          preset):
        commands = _pipeline(tmp_path, preset, ["metropolis"])
        assert _scipy_loaded(commands) == [False] * (len(commands) + 1)


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
        assert diag["truncated_mass_bound"] == 0.0

        report = tmp_path / "lln.json"
        rc, out, _ = run(capsys, "verify", "lln", "--preset", "three-point",
                         "--batch", str(batch), "--out", str(report))
        assert rc == 0
        doc = json.loads(report.read_text())
        assert doc["passed"]
        # the exact law: no sample size, hence no std errors
        assert doc["details"] == {"exact": True, "truncated_mass_bound": 0.0}
        assert "se_x" not in doc["moment_table"]

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
        for key in ("chains", "burn_in", "burn_in_rounds"):
            assert type(diag[key]) is int
        assert type(diag["burn_in_capped"]) is bool
        assert type(diag["burn_in_rhat"]) is float
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
        # a valid batch: T > 0 and S^2 <= n T in floats, finite cells,
        # weights of positive sum
        rows = [(S, T, w) for S, T, w in draws if T > 0 and S * S <= n * T]
        assume(rows)
        S, T, w = map(np.array, zip(*rows))
        assume(np.sum(w) > 0)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "b.csv"
            cli._write_csv(path, ["S", "T", "weight"], [S, T, w])
            path.with_suffix(".meta.json").write_text(
                json.dumps({"method": "importance", "n": n}))
            batch = cli._read_batch(path)
        for got, want in ((batch.S, S), (batch.T, T), (batch.weight, w)):
            assert got.tobytes() == want.tobytes()

    @staticmethod
    def _batch(tmp_path, data: bytes) -> Path:
        path = tmp_path / "b.csv"
        path.write_bytes(data)
        path.with_suffix(".meta.json").write_text(
            json.dumps({"method": "importance", "n": 4}))
        return path

    def test_crlf_blank_lines_count_toward_the_bad_line(self, tmp_path):
        path = self._batch(
            tmp_path, b"S,T,weight\r\n1,2,3\r\n\r\n\r\n4,x,6\r\n7,8,9\r\n")
        with pytest.raises(cli.CliError) as info:
            cli._read_batch(path)
        assert str(info.value).startswith(f"batch {path} line 5: ")

    def test_crlf_blank_lines_are_skipped(self, tmp_path):
        path = self._batch(tmp_path,
                           b"S,T,weight\r\n\r\n1,2,3\r\n\r\n4,5,6\r\n\r\n")
        batch = cli._read_batch(path)
        assert batch.S.tolist() == [1, 4]
        assert batch.T.tolist() == [2, 5]
        assert batch.weight.tolist() == [3, 6]

    @pytest.mark.parametrize("data", [
        b"S,T,weight", b"S,T,weight\n", b"S,T,weight\r\n\r\n\n",
        # comment lines alone hold no row either
        b"S,T,weight\n# nothing here\n"])
    def test_no_rows(self, tmp_path, data):
        path = self._batch(tmp_path, data)
        with pytest.raises(cli.CliError) as info:
            cli._read_batch(path)
        assert str(info.value) == f"batch {path} has no rows"

    def test_extra_columns_in_any_order(self, tmp_path):
        path = self._batch(tmp_path,
                           b"id,weight,T,note,S\n7,0.25,2.0,x,-1.5\n"
                           b"8,0.75,3.0,y,1.0\n")
        batch = cli._read_batch(path)
        assert batch.S.tolist() == [-1.5, 1.0]
        assert batch.T.tolist() == [2.0, 3.0]
        assert batch.weight.tolist() == [0.25, 0.75]

    def test_last_line_without_line_end(self, tmp_path):
        path = self._batch(tmp_path, b"S,T,weight\r\n1,2,3\r\n4,5,6")
        assert cli._read_batch(path).S.tolist() == [1, 4]

    @pytest.mark.parametrize("mode", ["lln", "fluct"])
    @pytest.mark.parametrize("weights, message", [
        ((0, 0), "positive sum"), ((1, -0.5), "nonnegative"),
        ((-1, -1), "nonnegative")],
        ids=["zero-sum", "one-negative", "all-negative"])
    def test_bad_weights_exit_2(self, tmp_path, capsys, mode, weights,
                                message):
        path = self._batch(
            tmp_path, "S,T,weight\n1,2,{}\n-1,2,{}\n".format(
                *weights).encode())
        rc, _, err = run(capsys, "verify", mode, "--preset", "three-point",
                         "--batch", str(path),
                         "--out", str(tmp_path / "r.json"))
        assert rc == 2
        assert err.startswith(f"error: batch {path}: weights must")
        assert message in err

    def test_comment_only_batch_exits_2(self, tmp_path, capsys):
        path = self._batch(tmp_path, b"S,T,weight\n# nothing here\n")
        for mode in ("lln", "fluct"):
            rc, _, err = run(capsys, "verify", mode, "--preset", "gaussian",
                             "--batch", str(path),
                             "--out", str(tmp_path / "r.json"))
            assert rc == 2
            assert err == f"error: batch {path} has no rows\n"


def _write_csv_per_cell(path, header, columns) -> None:
    """The batch writer formatting every cell on its own: the reference
    ``cli._write_csv`` must match byte for byte."""
    cells = [map(cli._quote if c.dtype.kind == "U" else repr, c.tolist())
             for c in map(np.asarray, columns)]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(",".join(row) + "\r\n" for row in zip(*cells))


class TestCsvWriter:
    def _same_bytes(self, tmp_path, header, columns):
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        cli._write_csv(got, header, columns)
        _write_csv_per_cell(want, header, columns)
        assert got.read_bytes() == want.read_bytes()

    def test_enumeration_batch(self, tmp_path):
        # mirror classes share their weights' bits
        b = model.enumerate_exact(model.TiltedModel(
            rho=measure.three_point(), g=model.quadratic(), n=60))
        assert len(np.unique(b.weight)) < len(b.weight)
        self._same_bytes(tmp_path, ["S", "T", "weight"],
                         [b.S, b.T, b.weight])

    def test_metropolis_batch(self, tmp_path):
        b = model.sample_metropolis(
            model.TiltedModel(rho=measure.gaussian(), g=model.quadratic(),
                              n=12), 512, rng=np.random.default_rng(3),
            chains=8)
        self._same_bytes(tmp_path, ["S", "T", "weight"],
                         [b.S, b.T, b.weight])

    def test_rate_grid_columns(self, tmp_path):
        x = np.repeat(np.linspace(-0.5, 0.5, 5), 3)
        y = np.tile(np.linspace(0.5, 1.5, 3), 5)
        value = [math.inf if i % 4 == 0 else float(v)
                 for i, v in enumerate(x * x / y)]
        self._same_bytes(tmp_path, ["x", "y", "value", "converged"],
                         [x, y, value, [int(v < math.inf) for v in value]])

    def test_kernel_rows(self, tmp_path):
        # a d = 2 point is one text cell holding a comma, so it is quoted
        rows = [("0.1,1.05", 40, 0.5, 1.25e-3, 2e-5, 1.2e-3, 1.04),
                ("0.2,1.1", 40, 0.5, 0.0, 0.0, 0.0, 1.0)]
        self._same_bytes(tmp_path, ["x", "n", "c", "phi", "se",
                                    "asymptotic", "ratio"], list(zip(*rows)))
        assert (tmp_path / "got.csv").read_text().splitlines()[1].startswith(
            '"0.1,1.05",40,')

    def test_signed_zeros_nan_and_inf(self, tmp_path):
        special = np.array([0.0, -0.0, math.nan, -math.nan, math.inf,
                            -math.inf, 0.0, -0.0, 1.0, math.nan])
        self._same_bytes(tmp_path, ["v", "w"], [special, special[::-1]])
        assert (tmp_path / "got.csv").read_bytes().split(b"\r\n")[1:5] == [
            b"0.0,nan", b"-0.0,1.0", b"nan,-0.0", b"nan,0.0"]

    def test_batch_spanning_blocks(self, tmp_path):
        b = model.enumerate_exact(model.TiltedModel(
            rho=measure.three_point(), g=model.quadratic(), n=200))
        assert len(b.S) == 20300 > 2 * cli._CSV_ROWS
        self._same_bytes(tmp_path, ["S", "T", "weight"],
                         [b.S, b.T, b.weight])

    def test_block_boundary(self, tmp_path):
        # each block formats its own distinct values: equal bits on both
        # sides of the edge, signed zeros and NaNs astride it
        edge = cli._CSV_ROWS
        v = np.arange(2 * edge + 5) / 7
        v[edge - 2:edge + 2] = 0.1
        w = v.copy()
        w[edge - 2:edge + 2] = [-0.0, 0.0, -0.0, math.nan]
        w[edge + 4] = 0.0
        self._same_bytes(tmp_path, ["v", "w", "k"],
                         [v, w, np.arange(len(v)) % 3])
        lines = (tmp_path / "got.csv").read_bytes().split(b"\r\n")
        assert lines[edge - 1:edge + 3] == [
            b"0.1,-0.0,0", b"0.1,0.0,1", b"0.1,-0.0,2", b"0.1,nan,0"]

    def test_traced_peak_is_bounded(self, tmp_path):
        # 125,750 rows: formatting the whole batch before writing traced
        # 10.6 MiB, one block at a time 1.6 MiB
        b = model.enumerate_exact(model.TiltedModel(
            rho=measure.three_point(), g=model.quadratic(), n=500))
        tracemalloc.start()
        try:
            cli._write_csv(tmp_path / "b.csv", ["S", "T", "weight"],
                           [b.S, b.T, b.weight])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(b.S) == 125750
        assert peak < 4 * 2**20, peak


class TestManifest:
    def test_report_digests(self, tmp_path, capsys):
        (tmp_path / "x.csv").write_text("a,b\n1,2\n")
        rc, _, _ = run(capsys, "report", "--dir", str(tmp_path))
        assert rc == 0
        doc = json.loads((tmp_path / "manifest.json").read_text())
        expect = hashlib.sha256(b"a,b\n1,2\n").hexdigest()
        assert doc["artifacts"]["x.csv"] == expect
        assert {"python", "numpy", "scipy", "cwsoc"} <= set(doc["versions"])
        assert doc["versions"]["scipy"] == scipy.__version__
        assert len(doc["config_digest"]) == 64

    def test_digest_of_artifact_larger_than_a_chunk(self, tmp_path):
        data = np.random.default_rng(5).bytes(3 * 2**20 + 17)
        (tmp_path / "big.bin").write_bytes(data)
        doc = json.loads(cli.write_manifest(tmp_path, {}).read_text())
        assert len(data) > 3 * cli._HASH_CHUNK
        assert doc["artifacts"] == {
            "big.bin": hashlib.sha256(data).hexdigest()}

    def test_scipy_version_null_when_absent(self, tmp_path, capsys,
                                            monkeypatch):
        # the library runs without scipy; the manifest keeps the key
        monkeypatch.setattr(metadata, "distributions", lambda **kw: iter(()))
        rc, _, _ = run(capsys, "report", "--dir", str(tmp_path))
        assert rc == 0
        doc = json.loads((tmp_path / "manifest.json").read_text())
        assert doc["versions"]["scipy"] is None

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

    @pytest.mark.parametrize("d, n, point", [
        ("1", "1000", "40"), ("2", "40", "0.1,101")])
    def test_far_gaussian_points(self, tmp_path, capsys, d, n, point):
        # admissible beyond the 10 sigma window of the rate solver
        out = tmp_path / "k.csv"
        rc, _, _ = run(capsys, "kernel", "verify", "--preset", "gaussian",
                       "--n", n, "--d", d, "--points", point,
                       "--out", str(out))
        assert rc == 0
        ratio = float(out.read_text().splitlines()[1].split(",")[-1])
        assert abs(ratio - 1) < 0.1

    def test_nan_estimate_is_numeric_failure(self, tmp_path, capsys):
        out = tmp_path / "k.csv"
        with np.errstate(all="ignore"):
            rc, _, err = run(capsys, "kernel", "verify", "--preset",
                             "gaussian", "--n", "40", "--d", "1", "--points",
                             "0.3", "--c", "1e308", "--out", str(out))
        assert rc == 3
        assert "no mass in the kernel window" in err
        assert not out.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("d,c,point", [("1", "1e308", "0.3"),
                                           ("2", "1e200", "0.3,1.2")])
    def test_overflowing_box_is_quiet_numeric_failure(self, tmp_path, capsys,
                                                      d, c, point):
        out = tmp_path / "k.csv"
        rc, _, err = run(capsys, "kernel", "verify", "--preset", "gaussian",
                         "--n", "40", "--d", d, "--points", point, "--c", c,
                         "--samples", "100", "--out", str(out))
        assert rc == 3
        assert err == "error: no mass in the kernel window; estimate " \
            "unusable\n"
        assert not out.exists()

    def test_lattice_base_is_numeric_failure(self, tmp_path, capsys):
        # both dimensions refuse an atomic base for the Cramer condition
        for d, point in (("1", "0.2"), ("2", "0.2,0.5")):
            rc, _, err = run(capsys, "kernel", "verify", "--preset",
                             "rademacher", "--n", "50", "--d", d, "--points",
                             point, "--out", str(tmp_path / "k.csv"))
            assert rc == 3
            assert "Cramer condition" in err
