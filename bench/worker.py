"""Workload process: runs one workload's stage list and writes its metrics.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src`` and BLAS/OpenMP threads capped.  A stage is one operation: one call
into cwsoc (a ``cli.dispatch`` or a library call) followed by the oracle
gate on its output.  It fails if it raises, exits nonzero or misses its
gate.  The stage list is repeated until ``--seconds`` have passed; each
repetition draws its random streams from ``(seed, repetition)``.  A time
is reported as the sum over stages of each stage's median over repetitions.

With ``--trace 1`` every repetition is run twice with the same streams,
untraced and traced, and the traced ones give the per-layer figures.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracles as O
from oracles import check
import speed
from setup_probe import five_atom
from tracing import MODULES, Tracer, self_times

import cwsoc
from cwsoc import cli, limitlaw, measure, model


# Sizes, scaled so one repetition takes a few seconds on two cores.
CLI_ENUM_N = 500
LADDER_N = (100, 1000, 3000)
FIVE_ATOM_N = 24
GAUSS_N, GAUSS_CHAINS, GAUSS_RECORDS, GAUSS_BLOCK = 1024, 256, 128, 64
CLI_METRO_N, CLI_METRO_CHAINS, CLI_METRO_RECORDS = 24, 64, 160
COORD_N, COORD_CHAINS, COORD_RECORDS = 32, 64, 128
IMPORTANCE_N, IMPORTANCE_COUNT = 16, 50_000
RHO0_REFERENCE_COUNT = 200_000
KERNEL_N, KERNEL_SAMPLES, KERNEL_POINT = 40, 20_000, "0.1,1.05"
ALPHA = 0.5

# (preset, x range, y range, nx, ny); every point lies inside the domain
# (for three-point that is |x| <= y <= 1).
GRIDS = {
    "gaussian": ("gaussian", (-0.5, 0.5), (0.6, 2.0), 11, 11),
    "rho0": ("rho0", (-0.3, 0.3), (0.15, 1.0), 11, 11),
    "three-point": ("three-point", (-0.25, 0.25), (0.3, 0.9), 21, 21),
}


@dataclass
class Rep:
    """State shared by the stages of one repetition."""
    seed: int
    work: Path
    prep: dict
    ref: dict
    found: dict = field(default_factory=dict)

    def rng(self, salt: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, salt])


def run_cli(argv) -> tuple[str, float]:
    """``cli.dispatch`` with stdout captured; returns (stdout, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.dispatch([str(a) for a in argv])
    dt = time.perf_counter() - t0
    check(rc == 0, f"cwsoc {' '.join(map(str, argv[:2]))} exited {rc}: "
                   f"{err.getvalue().strip()}")
    return out.getvalue(), dt


def tilted(rho, n):
    return model.TiltedModel(rho=rho, g=model.quadratic(), n=n)


def read_csv(path: Path):
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def rescaled(S, n):
    """The fluctuation scale for the N(0, 1) base: sigma^2 = 1, mu4 = 3."""
    return 3**0.25 * np.asarray(S) / n**0.75


# ---------------------------------------------------------------------------
# exact: three-point(1/4) base, quadratic g; purely atomic

def exact_simulate(rep):
    n = CLI_ENUM_N
    batch = rep.work / "batch.csv"
    _, dt = run_cli(["simulate", "--preset", "three-point", "--method",
                     "enumeration", "--n", n, "--seed", rep.seed,
                     "--out", batch])
    meta = json.loads(batch.with_suffix(".meta.json").read_text())
    rows = read_csv(batch)
    check(len(rows) == n * (n + 3) // 2, f"{len(rows)} enumeration rows")
    S, T, w = rows.T
    check(abs(w.sum() - 1) <= 1e-9, "enumeration weights do not sum to 1")
    check(np.all(S * S <= n * T + 1e-9), "Cauchy-Schwarz violated")
    check(O.close(meta["diagnostics"]["log_Z"], rep.ref["cli_enumeration"]
                  ["log_Z"], rel_tol=O.TOL_LOG_Z_REL), "log_Z drifted")
    nbytes = batch.stat().st_size + batch.with_suffix(".meta.json").stat().st_size
    # the exact workload's ess_per_s is the batch's Kish ESS over the time of
    # the whole CLI chain (every stage of the chain adds ``ess_s``)
    return {"cli_s": dt, "ess": O.kish_ess(w), "ess_s": dt,
            "batch_bytes": nbytes}


def exact_verify(mode):
    def stage(rep):
        out, dt = run_cli(["verify", mode, "--preset", "three-point",
                           "--batch", rep.work / "batch.csv",
                           "--out", rep.work / f"{mode}.json"])
        doc = json.loads(out)
        ref = rep.ref["cli_enumeration"]
        check(doc["passed"], f"verify {mode} did not pass")
        if mode == "fluct":
            check(O.close(doc["ks_distance"], ref["ks"], O.TOL_KS),
                  f"KS {doc['ks_distance']} drifted from {ref['ks']}")
        else:
            check(O.close(doc["moment_table"]["mean_y"], ref["mean_y"],
                          O.TOL_MEAN), "LLN mean of T/n drifted")
            check(abs(doc["moment_table"]["mean_x"]) <= O.TOL_MEAN,
                  "LLN mean of S/n not 0")
        return {"cli_s": dt, "ess_s": dt}
    return stage


def exact_report(rep):
    _, dt = run_cli(["report", "--dir", rep.work])
    O.gate_manifest(rep.work, json.loads((rep.work / "manifest.json").read_text()))
    return {"cli_s": dt, "ess_s": dt}


def exact_ladder(n):
    def stage(rep):
        m = tilted(measure.three_point(0.25), n)
        batch = model.enumerate_exact(m, collapse="S")
        report = limitlaw.verify_fluctuations(m, batch, tol_ks=0.02)
        ref = rep.ref["ladder"][str(n)]
        check(np.all(np.abs(batch.S) <= n) and np.all(batch.S == np.round(
            batch.S)), "collapsed support off the lattice {-n, ..., n}")
        check(abs(batch.weight.sum() - 1) <= 1e-9, "weights do not sum to 1")
        check(O.close(batch.diagnostics["log_Z"], ref["log_Z"],
                      rel_tol=O.TOL_LOG_Z_REL), f"log_Z drifted at n = {n}")
        check(O.close(report.ks_distance, ref["ks"], O.TOL_KS),
              f"KS drifted at n = {n}")
        ladder = rep.found.setdefault("ladder", [])
        check(not ladder or report.ks_distance < ladder[-1],
              "KS ladder not decreasing in n")
        ladder.append(report.ks_distance)
        return {}
    return stage


def exact_five_atom(rep):
    n = FIVE_ATOM_N
    batch = model.enumerate_exact(tilted(five_atom(), n))
    check(len(batch.S) == math.comb(n + 4, 4) - 1, "five-atom class count")
    check(abs(batch.weight.sum() - 1) <= 1e-9, "weights do not sum to 1")
    check(O.close(batch.diagnostics["log_Z"], rep.ref["five_atom"]["log_Z"],
                  rel_tol=O.TOL_LOG_Z_REL), "five-atom log_Z drifted")
    return {}


# ---------------------------------------------------------------------------
# sampling: Gaussian block Metropolis, CLI Metropolis, coordinate chains,
# importance sampling

def metropolis_series(batch, chains):
    """Reshape a chain-major sampler output to (chains, records)."""
    check(len(batch.S) % chains == 0, "sampler output not whole chains")
    return batch.S.reshape(chains, -1)


def sampling_gaussian(rep):
    n, chains = GAUSS_N, GAUSS_CHAINS
    m = tilted(measure.gaussian(), n)
    t0 = time.perf_counter()
    batch = model.sample_metropolis(m, chains * GAUSS_RECORDS, burn_in=60 * n,
                                    thin=n, rng=rep.rng(1), chains=chains,
                                    block_size=GAUSS_BLOCK)
    dt = time.perf_counter() - t0
    report = limitlaw.verify_fluctuations(m, batch, tol_ks=0.05)
    diag = O.chain_diagnostics(metropolis_series(batch, chains))
    v = rescaled(batch.S, n)
    ks = O.ks_continuous(v, np.ones(len(v)), rep.prep["gauss_cdf"][n])
    check(ks <= O.kolmogorov_critical(diag["ess"]),
          f"KS {ks:.4f} to the exact n = {n} law at ESS {diag['ess']:.0f}")
    check(abs(report.ks_distance - O.ks_continuous(
        v, np.ones(len(v)), O.quartic_cdf)) <= 1e-8,
        "reported KS to the limit law is not the KS of the batch")
    return {"ess": diag["ess"], "ess_s": dt,
            "diag": {"ess": diag["ess"], "rhat": diag["rhat"],
                     "sampler_ess": batch.diagnostics["effective_sample_size"],
                     "ks_exact": ks}}


def sampling_cli_simulate(rep):
    n, chains = CLI_METRO_N, CLI_METRO_CHAINS
    batch = rep.work / "metropolis.csv"
    _, dt = run_cli(["simulate", "--preset", "gaussian", "--method",
                     "metropolis", "--n", n, "--count",
                     chains * CLI_METRO_RECORDS, "--chains", chains,
                     "--seed", rep.seed, "--out", batch])
    S = read_csv(batch)[:, 0]
    check(len(S) == chains * CLI_METRO_RECORDS, f"{len(S)} rows")
    diag = O.chain_diagnostics(S.reshape(chains, -1))
    ks = O.ks_continuous(rescaled(S, n), np.ones(len(S)),
                         rep.prep["gauss_cdf"][n])
    check(ks <= O.kolmogorov_critical(diag["ess"]),
          f"KS {ks:.4f} to the exact n = {n} law at ESS {diag['ess']:.0f}")
    rep.found["cli_S"] = S
    return {"cli_s": dt, "diag": {"cli_ess": diag["ess"],
                                  "cli_rhat": diag["rhat"]},
            "batch_bytes": batch.stat().st_size
            + batch.with_suffix(".meta.json").stat().st_size}


def sampling_cli_verify(rep):
    out, dt = run_cli(["verify", "fluct", "--preset", "gaussian", "--batch",
                       rep.work / "metropolis.csv", "--out",
                       rep.work / "fluct.json"])
    v = rescaled(rep.found["cli_S"], CLI_METRO_N)
    own = O.ks_continuous(v, np.ones(len(v)), O.quartic_cdf)
    check(abs(json.loads(out)["ks_distance"] - own) <= 1e-8,
          "reported KS to the limit law is not the KS of the batch")
    return {"cli_s": dt}


def coordinate_chain(rep, rho, salt):
    n, chains = COORD_N, COORD_CHAINS
    batch = model.sample_metropolis(
        tilted(rho, n), chains * COORD_RECORDS, burn_in=60 * n, thin=n,
        rng=rep.rng(salt), chains=chains)
    diag = O.chain_diagnostics(metropolis_series(batch, chains))
    return batch, diag


def sampling_three_point_chain(rep):
    batch, diag = coordinate_chain(rep, measure.three_point(0.25), 2)
    ks = O.ks_discrete(batch.S, batch.weight,
                       *rep.prep["three_point_law"][COORD_N])
    check(ks <= O.kolmogorov_critical(diag["ess"]),
          f"KS {ks:.4f} to the exact law at ESS {diag['ess']:.0f}")
    return {"diag": {"three_point_ess": diag["ess"],
                     "three_point_rhat": diag["rhat"]}}


def sampling_rho0_chain(rep):
    batch, diag = coordinate_chain(rep, measure.rho_zero(), 3)
    S_ref, w_ref = rep.prep["rho0_reference"]
    e_ref = O.kish_ess(w_ref)
    ks = O.ks_two_sample(batch.S, batch.weight, S_ref, w_ref)
    crit = O.kolmogorov_critical(1.0) * math.sqrt(1 / diag["ess"] + 1 / e_ref)
    check(ks <= crit, f"two-sample KS {ks:.4f} to the independent importance "
                      f"reference exceeds {crit:.4f}")
    return {"diag": {"rho0_ess": diag["ess"], "rho0_rhat": diag["rhat"]}}


def sampling_importance(rep):
    batch = model.sample_importance(
        tilted(measure.three_point(0.25), IMPORTANCE_N), IMPORTANCE_COUNT,
        rep.rng(4))
    ess = O.kish_ess(batch.weight)
    ks = O.ks_discrete(batch.S, batch.weight,
                       *rep.prep["three_point_law"][IMPORTANCE_N])
    check(ks <= O.kolmogorov_critical(ess),
          f"KS {ks:.4f} to the exact law at ESS {ess:.0f}")
    return {"diag": {"importance_ess": ess, "sampler_importance_ess":
                     batch.diagnostics["effective_sample_size"]}}


# ---------------------------------------------------------------------------
# analysis: rate grids, Cramer checks, kernel comparison

def analysis_cramer(preset):
    def stage(rep):
        out, dt = run_cli(["cramer", "check", "--preset", preset,
                           "--alpha", ALPHA])
        doc = json.loads(out)
        O.gate_cramer(doc, rep.ref["cramer"][preset])
        if preset == "rademacher":
            mod = O.atomic_char_modulus(measure.rademacher().atoms,
                                        *doc["witness"])
            check(mod >= 1 - 1e-9, f"witness has |M| = {mod}")
        if preset == "gaussian":
            exact = O.gaussian_char_sup(ALPHA)
            check(exact - 1e-4 <= doc["sup_estimate"] <= exact + 1e-9,
                  f"sup_estimate misses the closed form {exact}")
            check(doc["sup_bound"] >= exact, "bound below the closed form")
        return {"cli_s": dt}
    return stage


def analysis_kernel(rep):
    out = rep.work / "kernel.csv"
    _, dt = run_cli(["kernel", "verify", "--preset", "gaussian", "--n",
                     KERNEL_N, "--d", 2, "--samples", KERNEL_SAMPLES,
                     "--seed", rep.seed, "--points", KERNEL_POINT,
                     "--out", out])
    lines = out.read_text().splitlines()
    check(len(lines) == 2, "kernel output rows")
    phi, se, asym, ratio = map(float, lines[1].rsplit(",", 4)[1:])
    check(O.close(asym, rep.ref["kernel"]["asymptotic"],
                  rel_tol=O.TOL_KERNEL_ASYM_REL), "asymptotic value drifted")
    O.gate_kernel_ratio(ratio, se / asym)
    return {"cli_s": dt, "ess": float(KERNEL_SAMPLES), "ess_s": dt}


def grid_stage(key, closed_form=None, pipeline=False):
    """CLI ``rate grid`` on one of ``GRIDS``, gated against the pinned grid."""
    preset, (x0, x1), (y0, y1), nx, ny = GRIDS[key]

    def stage(rep):
        out = rep.work / f"grid-{key}.csv"
        _, dt = run_cli(["rate", "grid", "--preset", preset, "--x-min", x0,
                         "--x-max", x1, "--y-min", y0, "--y-max", y1,
                         "--nx", nx, "--ny", ny, "--out", out])
        points = O.gate_rate_grid(read_csv(out), rep.ref["rate_grid"][key],
                                  closed_form)
        return dict(points=points, points_s=dt, **({"cli_s": dt} if pipeline
                                                    else {}))
    return stage


WORKLOADS = {
    "exact": [
        ("cli.simulate", exact_simulate),
        ("cli.verify_fluct", exact_verify("fluct")),
        ("cli.verify_lln", exact_verify("lln")),
        ("cli.report", exact_report),
        *((f"ladder.n{n}", exact_ladder(n)) for n in LADDER_N),
        ("five_atom", exact_five_atom),
        ("cli.rate_grid.three_point", grid_stage("three-point")),
    ],
    "sampling": [
        ("metropolis.gaussian", sampling_gaussian),
        ("cli.simulate", sampling_cli_simulate),
        ("cli.verify_fluct", sampling_cli_verify),
        ("metropolis.three_point", sampling_three_point_chain),
        ("metropolis.rho0", sampling_rho0_chain),
        ("importance.three_point", sampling_importance),
        ("cli.rate_grid.three_point", grid_stage("three-point")),
    ],
    "analysis": [
        ("cli.rate_grid.gaussian",
         grid_stage("gaussian", O.gaussian_rate, pipeline=True)),
        ("cli.rate_grid.rho0", grid_stage("rho0", pipeline=True)),
        ("cli.rate_grid.three_point", grid_stage("three-point", pipeline=True)),
        *((f"cli.cramer.{p}", analysis_cramer(p))
          for p in ("rademacher", "gaussian", "rho0")),
        ("cli.kernel", analysis_kernel),
    ],
}


def prepare(workload: str, seed: int) -> dict:
    """Oracle inputs built once per process, before any timing."""
    if workload != "sampling":
        return {}
    return {
        "gauss_cdf": {n: O.gaussian_quadratic_cdf(n)
                      for n in (GAUSS_N, CLI_METRO_N)},
        "three_point_law": {n: O.three_point_s_law(n)
                            for n in (COORD_N, IMPORTANCE_N)},
        "rho0_reference": O.rho0_importance_reference(
            COORD_N, RHO0_REFERENCE_COUNT, np.random.default_rng([seed, 99])),
    }


# ---------------------------------------------------------------------------
# repetitions and metrics

# stage results that are times, scaled to the reference speed
TIME_KEYS = ("cli_s", "ess_s", "points_s")


def run_rep(workload, rep: Rep, tracer=None) -> dict:
    """One pass over the stage list; returns per-stage measurements.

    Times are scaled to the reference speed with a probe before and after
    each stage (see ``speed.py``); ``raw_s`` keeps the unscaled stage time.
    """
    if rep.work.exists():
        shutil.rmtree(rep.work)
    rep.work.mkdir(parents=True)
    rep.found.clear()
    out = {"failed": 0, "attempted": 0, "errors": [], "stages": {},
           "diag": {}}
    for name, stage in WORKLOADS[workload]:
        out["attempted"] += 1
        before = speed.probe()
        t0 = time.perf_counter()
        span = tracer.begin(f"bench.{name}") if tracer else None
        try:
            res = stage(rep)
        except Exception as exc:  # a failing operation must not stop the run
            out["failed"] += 1
            out["errors"].append(f"{name}: {type(exc).__name__}: {exc}")
            if not isinstance(exc, O.GateError):
                out["errors"].append(traceback.format_exc(limit=-3))
            res = {}
        finally:
            if span:
                tracer.end(span)
        raw = time.perf_counter() - t0
        scale = speed.PROBE_REF_S / ((before + speed.probe()) / 2)
        out["diag"].update(res.pop("diag", {}))
        rec = {k: v * scale if k in TIME_KEYS else v for k, v in res.items()}
        out["stages"][name] = dict(rec, stage_s=raw * scale, raw_s=raw,
                                   scale=scale)
    out["wall_s"] = sum(st["raw_s"] for st in out["stages"].values())
    shutil.rmtree(rep.work)
    return out


def layer_metrics(tracer: Tracer, wall: float) -> dict:
    """Per-layer figures of one traced repetition."""
    st = self_times(tracer.spans)
    out = dict(tracer.counts)
    accepted = out.pop("model.sample_metropolis.accepted", 0.0)
    props = out.get("model.sample_metropolis.proposals", 0.0)
    out["model.sample_metropolis.acceptance"] = accepted / props if props else 0.0
    for name, val in st.items():
        out[f"{name}.self_s"] = val
    bench = sum(v for k, v in st.items() if k.startswith("bench."))
    modules = {m: sum(v for k, v in st.items() if k.startswith(m + "."))
               for m in MODULES}
    for m, v in modules.items():
        out[f"{m}.self_s"] = v
    out["trace.bench_self_s"] = bench
    out["trace.layers_self_s"] = sum(modules.values())
    out["trace.unaccounted_s"] = wall - bench - sum(modules.values())
    return out


def median(values):
    return statistics.median(values) if values else 0.0


def total(reps: list, key: str) -> float:
    """Sum over stages of the per-stage median over repetitions.

    Taking the median stage by stage filters the sub-second slowdowns of a
    shared machine better than the median of whole repetitions.
    """
    names = reps[0]["stages"]
    return sum(median([r["stages"][n].get(key, 0.0) for r in reps])
               for n in names)


def summarize(reps: list) -> dict:
    ess_s, points_s = total(reps, "ess_s"), total(reps, "points_s")
    return {
        "wall_s": total(reps, "stage_s"),
        "cli_pipeline_s": total(reps, "cli_s"),
        "ess_per_s": total(reps, "ess") / ess_s if ess_s else 0.0,
        "rate_points_per_s": total(reps, "points") / points_s if points_s else 0.0,
        "batch_bytes": total(reps, "batch_bytes"),
        "raw_wall_s": total(reps, "raw_s"),
        "speed_scale": median([st["scale"] for r in reps
                               for st in r["stages"].values()]),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--work", required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    prep = prepare(args.workload, args.seed)
    ref = O.load_reference()
    work = Path(args.work)
    tracer = Tracer() if args.trace else None
    untraced, traced, layers = [], [], []
    t_end = time.perf_counter() + args.seconds
    i = 0
    while i == 0 or time.perf_counter() < t_end:
        rep = Rep(seed=int(np.random.SeedSequence([args.seed, i])
                           .generate_state(1)[0] >> 1),
                  work=work / f"rep{i}", prep=prep, ref=ref)
        # traced and untraced passes alternate which goes first, so the
        # cold first pass does not bias the tracing overhead
        if not tracer or i % 2 == 0:
            untraced.append(run_rep(args.workload, rep))
        if tracer:
            tracer.clear()
            tracer.install()
            try:
                traced.append(run_rep(args.workload, rep, tracer))
            finally:
                tracer.uninstall()
            layers.append(layer_metrics(tracer, traced[-1]["wall_s"]))
            if i % 2 == 1:
                untraced.append(run_rep(args.workload, rep))
        i += 1

    reps = untraced + traced
    result = {
        "attempted": sum(r["attempted"] for r in reps),
        "failed": sum(r["failed"] for r in reps),
        "errors": [e for r in reps for e in r["errors"]][:20],
        "repetitions": len(untraced),
        "metrics": summarize(untraced),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "diagnostics": {k: median([r["diag"][k] for r in untraced
                                   if k in r["diag"]])
                        for k in sorted({k for r in untraced for k in r["diag"]})},
        "versions": {"python": sys.version.split()[0],
                     "numpy": np.__version__,
                     "scipy": __import__("scipy").__version__,
                     "cwsoc": cwsoc.__version__},
    }
    for key in ("batch_bytes", "raw_wall_s", "speed_scale"):
        result["diagnostics"][key] = result["metrics"].pop(key)
    if tracer:
        names = sorted({k for lay in layers for k in lay})
        per_layer = {k: median([lay.get(k, 0.0) for lay in layers])
                     for k in names}
        per_layer["cli.batch_bytes"] = result["diagnostics"]["batch_bytes"]
        per_layer["trace.wall_s"] = median([r["wall_s"] for r in traced])
        per_layer["trace.untraced_wall_s"] = median([r["wall_s"]
                                                     for r in untraced])
        per_layer["trace.overhead_s"] = (per_layer["trace.wall_s"]
                                         - per_layer["trace.untraced_wall_s"])
        result["per_layer"] = per_layer
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
