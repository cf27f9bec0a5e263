"""cwsoc benchmark: one workload, one seed, a fixed measuring time.

    python3 bench/run.py --workload exact --seed 1 --seconds 30 --trace 0

Run from the repository root; the program is taken from ``src/``.  With
``--trace 0`` the last stdout line is a JSON object whose metrics are the
end-to-end figures; with ``--trace 1`` they are the per-layer figures of a
traced run (see ``bench/README.md``).  Earlier lines give every metric by
name with its unit, the failure fraction and the provenance.  Exit code 0
means a result was printed; 2 means the checkout has no cwsoc sources, 3
that the workload process failed or overran its time.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
WORKLOADS = ("exact", "sampling", "analysis")
SETUP_RUNS = 5
# The whole run, set-up included, must end within 180 s.
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS")

END_TO_END = (
    ("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"),
    ("ok_frac", "fraction"), ("cli_pipeline_s", "s"), ("ess_per_s", "1/s"),
    ("rate_points_per_s", "1/s"),
)

_MODULE_TOTALS = ("measure", "quadrature", "transforms", "cramer", "kernel",
                  "model", "limitlaw", "cli")
_DISPATCH = ("simulate", "verify", "report", "rate", "cramer", "kernel")
PER_LAYER = (
    ("measure.sample.draws", "count"), ("measure.sample.self_s", "s"),
    ("measure.Measure1D.validate.calls", "count"),
    ("measure.moments.calls", "count"), ("measure.moments.self_s", "s"),
    ("measure.convolution_density_f2.points", "count"),
    ("measure.convolution_density_f2.self_s", "s"),
    ("quadrature.adaptive_gauss_legendre.calls", "count"),
    ("quadrature.adaptive_gauss_legendre.nodes", "count"),
    ("quadrature.adaptive_gauss_legendre.self_s", "s"),
    ("transforms.RateFunction.solve.calls", "count"),
    ("transforms.RateFunction.solve.newton_iters", "count"),
    ("transforms.RateFunction.solve.nonconverged", "count"),
    ("transforms.RateFunction.solve.self_s", "s"),
    ("transforms.LogLaplace.tilted_stats.calls", "count"),
    ("transforms.LogLaplace.tilted_stats.self_s", "s"),
    ("transforms.LogLaplace.value.calls", "count"),
    ("transforms.LogLaplace.value.self_s", "s"),
    ("cramer.CharEvaluator.char_grid.cells", "count"),
    ("cramer.CharEvaluator.char_grid.self_s", "s"),
    ("cramer.char_fn.calls", "count"), ("cramer.char_fn.self_s", "s"),
    ("cramer.mixture_bound.self_s", "s"),
    ("cramer.check_condition.self_s", "s"),
    ("kernel.theorem3_comparison.samples", "count"),
    ("kernel.theorem3_comparison.self_s", "s"),
    ("model.enumerate_exact.calls", "count"),
    ("model.enumerate_exact.states", "count"),
    ("model.enumerate_exact.self_s", "s"),
    ("model.sample_metropolis.proposals", "count"),
    ("model.sample_metropolis.acceptance", "fraction"),
    ("model.sample_metropolis.self_s", "s"),
    ("model.integrated_autocorr_time.self_s", "s"),
    ("model.sample_importance.draws", "count"),
    ("model.sample_importance.ess", "count"),
    ("model.sample_importance.self_s", "s"),
    ("limitlaw.ks_distance.points", "count"),
    ("limitlaw.ks_distance.self_s", "s"),
    ("limitlaw.verify_fluctuations.self_s", "s"),
    ("limitlaw.verify_lln.self_s", "s"),
    *((f"cli.dispatch.{c}.self_s", "s") for c in _DISPATCH),
    ("cli.batch_bytes", "bytes"), ("cli.write_manifest.self_s", "s"),
    *((f"{m}.self_s", "s") for m in _MODULE_TOTALS),
    ("trace.wall_s", "s"), ("trace.untraced_wall_s", "s"),
    ("trace.overhead_s", "s"), ("trace.bench_self_s", "s"),
    ("trace.layers_self_s", "s"), ("trace.unaccounted_s", "s"),
)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    for var in THREAD_VARS:
        env[var] = str(nproc())
    return env


def git_commit(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    text = head.read_text().strip()
    if not text.startswith("ref: "):
        return text
    ref = text[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def time_setup(workload: str, env: dict, deadline: float) -> float:
    """Wall time of one fresh interpreter running ``setup_probe.py``.

    Not scaled by the speed probe: the child may run on another core than
    the one a probe in this process would measure.
    """
    t0 = time.perf_counter()
    subprocess.run([sys.executable, str(BENCH / "setup_probe.py"), workload],
                   env=env, check=True, timeout=deadline - time.monotonic())
    return time.perf_counter() - t0


def run_worker(args, env: dict, work: Path, deadline: float) -> dict:
    out = work / "result.json"
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload",
           args.workload, "--seed", str(args.seed), "--seconds",
           str(args.seconds), "--trace", str(args.trace), "--work",
           str(work / "reps"), "--out", str(out)]
    proc = subprocess.Popen(cmd, env=env, stdout=sys.stderr)
    try:
        rc = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError("workload process overran its time")
    if rc != 0:
        raise RuntimeError(f"workload process exited {rc}")
    return json.loads(out.read_text())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    root = Path.cwd()
    if not (root / "src" / "cwsoc" / "__init__.py").is_file():
        print("error: no cwsoc sources under ./src; run from the repository "
              "root", file=sys.stderr)
        return 2
    env = child_env(root)
    work = root / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        setups = [] if args.trace else [
            time_setup(args.workload, env, deadline) for _ in range(SETUP_RUNS)]
        res = run_worker(args, env, work, deadline)
    except (RuntimeError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    attempted, failed = res["attempted"], res["failed"]
    provenance = {
        **res["versions"], "git_commit": git_commit(root), "nproc": nproc(),
        "cpu_model": cpu_model(), "workload": args.workload,
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "repetitions": res["repetitions"],
        "threads": {v: env[v] for v in THREAD_VARS},
    }
    if args.trace:
        table, values = PER_LAYER, res["per_layer"]
    else:
        table = END_TO_END
        values = dict(res["metrics"], setup_s=statistics.median(setups),
                      peak_rss_mb=res["peak_rss_mb"],
                      ok_frac=(attempted - failed) / attempted)
    print(f"provenance {json.dumps(provenance, sort_keys=True)}")
    print(f"diagnostics {json.dumps(res['diagnostics'], sort_keys=True)}")
    for err in res["errors"]:
        print(f"failed: {err}", file=sys.stderr)
    print(f"  {'fail_frac':40s} {failed / attempted:.6g} fraction "
          f"({failed} of {attempted} operations)")
    metrics = {}
    for name, unit in table:
        value = float(values.get(name, 0.0))
        metrics[name] = {"value": value, "unit": unit}
        print(f"  {name:40s} {value:.6g} {unit}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
