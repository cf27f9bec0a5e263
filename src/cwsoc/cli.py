"""Command-line interface: subcommand dispatch, artifact I/O, manifests.

Exit codes: 0 success, 2 validation/usage error, 3 numeric failure
(non-convergence or unusable estimate).  All randomness flows from a single
``--seed`` through ``numpy.random.default_rng``; samplers split it
internally per chain in a fixed order, so reruns are byte-identical.
The argument parser is built by the first ``dispatch`` call and shared by
every later call in the same process; a one-shot command builds it once.
"""
from __future__ import annotations

import argparse
import contextlib
import errno
import hashlib
import json
import math
import os
import sys
import time
import warnings
from collections import Counter
from pathlib import Path

import numpy as np

from . import __version__, cramer, kernel, limitlaw, measure, model, transforms

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NUMERIC = 3

_CSV_ROWS = 1 << 13     # CSV rows formatted and written at a time
_HASH_CHUNK = 1 << 20   # bytes of an artifact hashed at a time

_PRESETS = {
    "gaussian": measure.gaussian,
    "rademacher": measure.rademacher,
    "three-point": measure.three_point,
    "rho0": measure.rho_zero,
}


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_INVALID):
        super().__init__(message)
        self.code = code


def _require(ok: bool, message: str) -> None:
    """Raise ``CliError`` (exit 2) with ``message`` unless ``ok``."""
    if not ok:
        raise CliError(message)


def _load_measure(args) -> measure.Measure1D:
    """The named base measure; a spec that builds no valid measure is an
    input error naming the file."""
    if args.preset:
        return _PRESETS[args.preset]()
    if not args.spec:
        raise CliError("one of --preset or --spec is required")
    path = Path(args.spec)
    try:
        return measure.Measure1D.from_json(path.read_text())
    except (OSError, ValueError) as exc:  # MeasureError is a ValueError
        raise CliError(f"measure spec {path}: {exc}")


def _interaction(args) -> model.Interaction:
    """The ``--g`` interaction with ``--m4``, which the quadratic ``g``
    refuses unless it is 0."""
    return model.Interaction(kind=args.g, m4=args.m4, variant=args.variant)


def _check_out(path) -> None:
    """Refuse, before any work, an output path in a missing directory or one
    that is a directory; ``_writing`` reports any other failure."""
    if path and (Path(path).is_dir() or not Path(path).parent.is_dir()):
        code = errno.EISDIR if Path(path).is_dir() else errno.ENOENT
        raise CliError(f"cannot write {path}: {os.strerror(code)}")


@contextlib.contextmanager
def _writing(path):
    """``path`` opened for writing text, line ends as given; a path that
    cannot be written is an input error (exit 2) naming it."""
    try:
        with open(path, "w", newline="") as fh:
            yield fh
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc.strerror or exc}")


def _write_json(path, payload) -> None:
    with _writing(path) as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _quote(text: str) -> str:
    return f'"{text}"' if "," in text else text


def _cell_text(c: np.ndarray) -> list:
    """The CSV cells of the 1-D array ``c``: numbers as ``repr``, text
    quoted when it holds a comma.  Each distinct value is formatted once;
    floats are told apart by their bits, so ``0.0`` and ``-0.0``, and each
    NaN, keep their own text."""
    keys = c.view(f"u{c.itemsize}") if c.dtype.kind == "f" else c
    _, first, where = np.unique(keys, return_index=True, return_inverse=True)
    fmt = _quote if c.dtype.kind == "U" else repr
    text = np.array([fmt(v) for v in c[first].tolist()], dtype=object)
    return text[where].tolist()


def _write_csv(path, header, columns) -> None:
    """Write equal-length ``columns`` under ``header`` as CSV rows, cells by
    ``_cell_text``, CRLF line ends; ``_CSV_ROWS`` rows are formatted and
    written at a time, so the text in memory stays one block's."""
    columns = [np.asarray(c) for c in columns]
    with _writing(path) as fh:
        fh.write(",".join(header) + "\r\n")
        for i in range(0, len(columns[0]), _CSV_ROWS):
            cells = [_cell_text(c[i:i + _CSV_ROWS]) for c in columns]
            fh.write("".join(",".join(row) + "\r\n" for row in zip(*cells)))


def _sha256(path) -> str:
    """Hex sha256 of the file at ``path``, read ``_HASH_CHUNK`` bytes at a
    time."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(_HASH_CHUNK), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_manifest(out_dir, config: dict) -> Path:
    """Record config, versions and sha256 digests of every artifact."""
    from importlib import metadata  # kept off the import path

    # scipy serves only the tests; its version is null where it is absent
    scipy_version = next(
        (d.version for d in metadata.distributions(name="scipy")), None)
    out_dir = Path(out_dir)
    digests = {}
    for p in sorted(out_dir.iterdir()):
        if p.name == "manifest.json" or p.is_dir():
            continue
        digests[p.name] = _sha256(p)
    payload = {
        "config": config,
        "config_digest": hashlib.sha256(
            json.dumps(config, sort_keys=True).encode()).hexdigest(),
        "versions": {"python": sys.version.split()[0],
                     "numpy": np.__version__, "scipy": scipy_version,
                     "cwsoc": __version__},
        "artifacts": digests,
    }
    path = out_dir / "manifest.json"
    _write_json(path, payload)
    return path


# ---------------------------------------------------------------------------
# subcommands

def _cmd_measure_info(args) -> int:
    m = _load_measure(args)
    payload = {
        "atoms": [list(a) for a in m.atoms],
        "ac_mass": m.ac_mass,
        "mass_at_zero": m.mass_at_zero,
        "sigma2": m.moments.sigma2,
        "mu4": m.moments.mu4,
    }
    print(json.dumps(payload, indent=2))
    return EXIT_OK


def _cmd_cramer_check(args) -> int:
    _require(0 < args.alpha < args.radius < math.inf,
             "need 0 < --alpha < --radius < inf")
    _require(0 < args.step < math.inf, "--step must be positive and finite")
    m = _load_measure(args)
    t0 = time.perf_counter()
    report = cramer.check_condition(
        m, alpha=args.alpha, radius=args.radius, grid_step=args.step)
    wall = time.perf_counter() - t0
    payload = {
        "alpha": report.alpha,
        "sup_estimate": report.sup_estimate,
        "sup_bound": report.sup_bound,
        "verdict": report.verdict,
        "witness": list(report.witness) if report.witness else None,
        "details": {**report.details, "wall_s": wall},
    }
    text = json.dumps(payload, indent=2)
    if args.out:
        with _writing(args.out) as fh:
            fh.write(text + "\n")
    print(text)
    return EXIT_OK


def _rate_solver(args):
    return transforms.RateFunction(_load_measure(args))


def _cmd_rate_eval(args) -> int:
    _require(math.isfinite(args.x) and math.isfinite(args.y),
             "--x and --y must be finite")
    r = _rate_solver(args).solve([args.x, args.y])
    payload = {
        "x": args.x, "y": args.y, "value": r.value,
        "converged": r.converged, "iterations": r.iterations,
        "argmax": r.argmax.tolist(), "message": r.message,
    }
    print(json.dumps(payload, indent=2))
    if not r.converged and not math.isinf(r.value):
        return EXIT_NUMERIC
    return EXIT_OK


def _cmd_rate_grid(args) -> int:
    _require(args.nx >= 1 and args.ny >= 1, "--nx and --ny must be >= 1")
    _require(all(map(math.isfinite, (args.x_min, args.x_max, args.y_min,
                                     args.y_max))),
             "grid bounds must be finite")
    R = _rate_solver(args)
    x = np.repeat(np.linspace(args.x_min, args.x_max, args.nx), args.ny)
    y = np.tile(np.linspace(args.y_min, args.y_max, args.ny), args.nx)
    t0 = time.perf_counter()
    results = R.solve_many(np.column_stack([x, y]))
    wall = time.perf_counter() - t0
    _write_csv(args.out, ["x", "y", "value", "converged"],
               [x, y, [r.value if r.converged else math.inf for r in results],
                [int(r.converged) for r in results]])
    iterations = [r.iterations for r in results]
    _write_json(Path(args.out).with_suffix(".meta.json"), {
        "points": len(results),
        "converged": sum(r.converged for r in results),
        "newton_iterations": {"total": sum(iterations),
                              "max": max(iterations)},
        "stop_messages": dict(Counter(r.message or "converged"
                                      for r in results)),
        "degenerate_fallbacks": sum(r.degenerate for r in results),
        "solve_wall_s": wall,
    })
    print(f"wrote {len(results)} grid points to {args.out}")
    return EXIT_OK


def _cmd_kernel_verify(args) -> int:
    _require(args.n >= args.d, f"--n must be >= {args.d} for --d {args.d}")
    _require(args.samples >= 1, "--samples must be >= 1")
    _require(args.d == 1 or args.n <= 2 or args.samples >= 2,
             "--samples must be >= 2 for --d 2 at --n > 2 (a std error)")
    _require(args.c is None or 0 < args.c < math.inf,
             "--c must be positive and finite")
    try:
        points = [[float(v) for v in p.split(",")] for p in args.points]
    except ValueError as exc:
        raise CliError(f"--points: {exc}")
    _require(all(len(p) == args.d for p in points),
             f"each --points entry needs {args.d} comma-separated coordinates")
    _require(all(math.isfinite(v) for p in points for v in p),
             "--points coordinates must be finite")
    s = kernel.SmoothedDensity(base=_load_measure(args), n=args.n, c=args.c,
                               d=args.d, samples=args.samples, seed=args.seed)
    rows = kernel.theorem3_comparison(s, points)
    out_rows = [(",".join(repr(v) for v in r["x"]), args.n, s.c, r["phi"],
                 r["std_error"], r["asymptotic"], r["ratio"]) for r in rows]
    _write_csv(args.out, ["x", "n", "c", "phi", "se", "asymptotic", "ratio"],
               zip(*out_rows))
    print(f"wrote {len(rows)} comparisons to {args.out}")
    return EXIT_OK


def _cmd_simulate(args) -> int:
    m = _load_measure(args)
    tm = model.TiltedModel(rho=m, g=_interaction(args), n=args.n)
    rng = np.random.default_rng(args.seed)
    if args.method == "enumeration":
        batch = model.enumerate_exact(tm)
    elif args.method == "importance":
        batch = model.sample_importance(tm, args.count, rng)
    else:
        batch = model.sample_metropolis(
            tm, args.count, rng=rng, chains=args.chains)
    out = Path(args.out)
    _write_csv(out, ["S", "T", "weight"], [batch.S, batch.T, batch.weight])
    meta = {"method": batch.method, "n": batch.n, "seed": args.seed,
            "diagnostics": {k: (v.item() if isinstance(v, np.generic) else v)
                            for k, v in batch.diagnostics.items()}}
    _write_json(out.with_suffix(".meta.json"), meta)
    print(f"wrote {len(batch.S)} samples to {out}")
    return EXIT_OK


def _bad_line(lines, cols) -> int:
    """Line number (the header is line 1) of the first row that
    ``np.loadtxt`` rejects; empty lines are skipped, as it skips them."""
    for k, text in enumerate(lines, 2):
        try:
            if text:
                np.loadtxt([text], delimiter=",", usecols=cols)
        except ValueError:
            return k


def _read_batch(path) -> model.EmpiricalBatch:
    """The batch at ``path``: the header line names the columns, one
    ``np.loadtxt`` reads the rows after it."""
    path = Path(path)
    meta_path = path.with_suffix(".meta.json")
    try:
        with open(path) as fh:
            names = fh.readline().rstrip("\n").split(",")
            try:
                meta = json.loads(meta_path.read_text())
                method, n = meta["method"], int(meta["n"])
            except KeyError as exc:
                raise CliError(f"batch metadata {meta_path} lacks {exc}")
            except (OSError, TypeError, ValueError) as exc:
                raise CliError(f"batch metadata {meta_path}: {exc}")
            missing = {"S", "T", "weight"} - set(names)
            if missing:
                raise CliError(
                    f"batch {path} lacks column(s) {sorted(missing)}")
            cols = [names.index(c) for c in ("S", "T", "weight")]
            try:
                with warnings.catch_warnings():
                    # a body without data rows is reported below
                    warnings.simplefilter("ignore", UserWarning)
                    S, T, w = np.loadtxt(fh, delimiter=",", usecols=cols,
                                         ndmin=2, unpack=True)
            except ValueError as exc:
                # only the error path splits the text into lines; reading
                # it whole reports an undecodable byte at its file offset
                lines = path.read_text().split("\n")[1:]
                raise CliError(
                    f"batch {path} line {_bad_line(lines, cols)}: {exc}")
    except (OSError, ValueError) as exc:
        raise CliError(f"batch {path}: {exc}")
    if not S.size:
        raise CliError(f"batch {path} has no rows")
    if not all(np.isfinite(c).all() for c in (S, T, w)):
        raise CliError(f"batch {path} has non-finite values")
    try:
        return model.EmpiricalBatch(
            S=S, T=T, weight=w, method=method, n=n,
            diagnostics=meta.get("diagnostics", {}))
    except model.ModelError as exc:
        raise CliError(f"batch {path}: {exc}")


def _cmd_verify(args) -> int:
    _require(0 < args.tol < math.inf, "--tol must be positive and finite")
    m = _load_measure(args)
    batch = _read_batch(args.batch)
    tm = model.TiltedModel(rho=m, g=_interaction(args), n=batch.n)
    if args.mode == "lln":
        report = limitlaw.verify_lln(tm, batch, tol=args.tol)
    else:
        report = limitlaw.verify_fluctuations(tm, batch, tol_ks=args.tol)
    payload = {
        "test_id": report.test_id, "n": report.n, "method": report.method,
        "passed": report.passed, "ks_distance": report.ks_distance,
        "moment_table": report.moment_table, "tolerances": report.tolerances,
        "cramer_condition": report.cramer_flag, "details": report.details,
    }
    _write_json(args.out, payload)
    if args.mode == "fluct":
        _write_csv(Path(args.out).with_suffix(".cdf.csv"),
                   ["s", "empirical_cdf", "limit_cdf"], report.cdf)
    print(json.dumps(payload, indent=2))
    return EXIT_OK


def _cmd_report(args) -> int:
    out_dir = Path(args.dir)
    _require(out_dir.is_dir(), f"not a directory: {out_dir}")
    try:
        config = json.loads(Path(args.config).read_text()) if args.config else {}
    except (OSError, ValueError) as exc:
        raise CliError(f"config {args.config}: {exc}")
    path = write_manifest(out_dir, config)
    print(f"wrote {path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser

def _add_measure_args(p) -> None:
    g = p.add_mutually_exclusive_group()
    g.add_argument("--preset", choices=sorted(_PRESETS))
    g.add_argument("--spec", help="measure spec JSON file")


def _add_interaction_args(p) -> None:
    p.add_argument("--g", choices=["quadratic", "quartic"], default="quadratic")
    p.add_argument("--m4", type=float, default=0.0)
    p.add_argument("--variant", choices=["standard", "star"],
                   default="standard")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="cwsoc")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("measure", help="measure inspection")
    ms = p.add_subparsers(dest="subcommand", required=True)
    pi = ms.add_parser("info")
    _add_measure_args(pi)
    pi.set_defaults(func=_cmd_measure_info)

    p = sub.add_parser("cramer", help="Cramer condition check")
    cs = p.add_subparsers(dest="subcommand", required=True)
    pc = cs.add_parser("check")
    _add_measure_args(pc)
    pc.add_argument("--alpha", type=float, required=True)
    pc.add_argument("--radius", type=float, default=50.0)
    pc.add_argument("--step", type=float, default=0.05)
    pc.add_argument("--out")
    pc.set_defaults(func=_cmd_cramer_check)

    p = sub.add_parser("rate", help="Cramer transform evaluation")
    rs = p.add_subparsers(dest="subcommand", required=True)
    pe = rs.add_parser("eval")
    _add_measure_args(pe)
    pe.add_argument("--x", type=float, required=True)
    pe.add_argument("--y", type=float, required=True)
    pe.set_defaults(func=_cmd_rate_eval)
    pg = rs.add_parser("grid")
    _add_measure_args(pg)
    pg.add_argument("--x-min", type=float, required=True)
    pg.add_argument("--x-max", type=float, required=True)
    pg.add_argument("--y-min", type=float, required=True)
    pg.add_argument("--y-max", type=float, required=True)
    pg.add_argument("--nx", type=int, default=21)
    pg.add_argument("--ny", type=int, default=21)
    pg.add_argument("--out", required=True)
    pg.set_defaults(func=_cmd_rate_grid)

    p = sub.add_parser("kernel", help="smoothed density comparison")
    ks = p.add_subparsers(dest="subcommand", required=True)
    pk = ks.add_parser("verify")
    _add_measure_args(pk)
    pk.add_argument("--n", type=int, required=True)
    pk.add_argument("--c", type=float, default=None)
    pk.add_argument("--d", type=int, choices=[1, 2], default=1)
    pk.add_argument("--samples", type=int, default=10**5)
    pk.add_argument("--seed", type=int, default=0)
    pk.add_argument("--points", nargs="+", required=True,
                    help="comma-separated coordinates, one argument per point")
    pk.add_argument("--out", required=True)
    pk.set_defaults(func=_cmd_kernel_verify)

    p = sub.add_parser("simulate", help="draw a batch from the tilted model")
    _add_measure_args(p)
    _add_interaction_args(p)
    p.add_argument("--method", choices=["enumeration", "importance",
                                        "metropolis"], required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--count", type=int, default=10**4,
                   help="draws (importance) or records (metropolis, rounded "
                        "up to whole chains: chains x ceil(count / chains))")
    p.add_argument("--chains", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("verify", help="LLN / fluctuation verification")
    vs = p.add_subparsers(dest="mode", required=True)
    for mode, tol in (("lln", 0.05), ("fluct", 0.05)):
        pv = vs.add_parser(mode)
        _add_measure_args(pv)
        _add_interaction_args(pv)
        pv.add_argument("--batch", required=True)
        pv.add_argument("--tol", type=float, default=tol)
        pv.add_argument("--out", required=True)
        pv.set_defaults(func=_cmd_verify, mode=mode)

    p = sub.add_parser("report", help="write reproducibility manifest")
    p.add_argument("--dir", required=True)
    p.add_argument("--config")
    p.set_defaults(func=_cmd_report)
    return ap


# built by the first ``dispatch``, not at import; ``parse_args`` leaves it
# unchanged and looks up ``sys.stdout``, ``sys.stderr`` and the terminal
# width on each call, so every later call can share it
_parser = None


def dispatch(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INVALID if exc.code not in (0,) else EXIT_OK
    try:
        _check_out(getattr(args, "out", None))
        _require(getattr(args, "seed", 0) >= 0, "--seed must be >= 0")
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (measure.MeasureError, transforms.DomainFault,
            model.ModelError, model.InteractionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (kernel.KernelError, limitlaw.LimitLawError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except MemoryError as exc:
        # an input too large for memory, such as a grid step far too fine
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_INVALID


def main() -> None:
    try:
        code = dispatch()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout (``| head``): a normal end.  As the
        # SIGPIPE note of the Python docs advises, stdout then points at
        # devnull, so the flush at exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_OK
    sys.exit(code)


if __name__ == "__main__":
    main()
