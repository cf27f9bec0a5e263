"""Regenerate ``reference.json``: the deterministic outputs the gates pin.

Run from the repository root on the commit the references should come
from (they were pinned on the seed commit):

    PYTHONPATH=src python3 bench/pin.py

A change that claims a gain must not re-pin: a drift from these values
counts as a failed operation.
"""
from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import oracles as O
import worker as W
from cwsoc import limitlaw, measure, model


def main() -> int:
    work = Path(".bench_work/pin")
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    ref = {}

    n = W.CLI_ENUM_N
    batch = work / "batch.csv"
    W.run_cli(["simulate", "--preset", "three-point", "--method",
               "enumeration", "--n", n, "--out", batch])
    fluct = json.loads(W.run_cli(["verify", "fluct", "--preset", "three-point",
                                  "--batch", batch, "--out",
                                  work / "f.json"])[0])
    lln = json.loads(W.run_cli(["verify", "lln", "--preset", "three-point",
                                "--batch", batch, "--out", work / "l.json"])[0])
    meta = json.loads(batch.with_suffix(".meta.json").read_text())
    ref["cli_enumeration"] = {"n": n, "log_Z": meta["diagnostics"]["log_Z"],
                              "ks": fluct["ks_distance"],
                              "mean_y": lln["moment_table"]["mean_y"]}

    ref["ladder"] = {}
    for n in W.LADDER_N:
        m = W.tilted(measure.three_point(0.25), n)
        b = model.enumerate_exact(m, collapse="S")
        ks = limitlaw.verify_fluctuations(m, b, tol_ks=0.02).ks_distance
        ref["ladder"][str(n)] = {"log_Z": b.diagnostics["log_Z"], "ks": ks}

    b = model.enumerate_exact(W.tilted(W.five_atom(), W.FIVE_ATOM_N))
    ref["five_atom"] = {"n": W.FIVE_ATOM_N, "log_Z": b.diagnostics["log_Z"]}

    ref["rate_grid"] = {}
    for key, (preset, (x0, x1), (y0, y1), nx, ny) in W.GRIDS.items():
        out = work / f"{key}.csv"
        W.run_cli(["rate", "grid", "--preset", preset, "--x-min", x0,
                   "--x-max", x1, "--y-min", y0, "--y-max", y1, "--nx", nx,
                   "--ny", ny, "--out", out])
        rows = W.read_csv(out)
        ref["rate_grid"][key] = {"x": [x0, x1], "y": [y0, y1],
                                 "nx": nx, "ny": ny,
                                 "value": rows[:, 2].tolist(),
                                 "converged": rows[:, 3].astype(int).tolist()}

    ref["cramer"] = {}
    for preset in ("rademacher", "gaussian", "rho0"):
        doc = json.loads(W.run_cli(["cramer", "check", "--preset", preset,
                                    "--alpha", W.ALPHA])[0])
        ref["cramer"][preset] = {k: doc[k] for k in
                                 ("verdict", "sup_estimate", "sup_bound")}

    out = work / "kernel.csv"
    W.run_cli(["kernel", "verify", "--preset", "gaussian", "--n", W.KERNEL_N,
               "--d", 2, "--samples", 1000, "--points", W.KERNEL_POINT,
               "--out", out])
    asym = float(out.read_text().splitlines()[1].rsplit(",", 4)[3])
    ref["kernel"] = {"n": W.KERNEL_N, "point": W.KERNEL_POINT,
                     "asymptotic": asym}

    shutil.rmtree(work)
    O.REFERENCE_PATH.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    print(f"wrote {O.REFERENCE_PATH}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
