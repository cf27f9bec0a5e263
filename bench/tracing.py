"""Span tracing of cwsoc's public functions, installed from the benchmark.

``Tracer.install`` wraps every public function and public method defined in
the cwsoc modules, and rebinds each wrapped function at every site that
holds it: ``from .x import y`` copies the binding into the importing module
(``model.sample_measure`` is ``measure.sample``), and ``cli._PRESETS``
holds measure constructors in a dict.  Methods are wrapped on their class,
which every importer shares.  ``uninstall`` restores the originals.

A span is ``[name, start, end, parent index]``; a layer's self time is its
span time minus the part of that interval its child spans cover.  Counts
are recorded by hooks at the same boundaries.
"""
from __future__ import annotations

import importlib
import inspect
import math
from collections import defaultdict
from time import perf_counter

import numpy as np

MODULES = ("measure", "quadrature", "transforms", "cramer", "kernel",
           "model", "limitlaw", "cli")


def _bound(fn, args, kwargs):
    sig = inspect.signature(fn)
    b = sig.bind(*args, **kwargs)
    b.apply_defaults()
    return b.arguments


# count hooks: (tracer counts, bound arguments, result) -> None

def _sample(c, a, r):
    c["measure.sample.draws"] += a["count"]


def _conv(c, a, r):
    c["measure.convolution_density_f2.points"] += np.size(r)


def _solve(c, a, r):
    c["transforms.RateFunction.solve.newton_iters"] += r.iterations
    c["transforms.RateFunction.solve.nonconverged"] += not r.converged


def _char_grid(c, a, r):
    c["cramer.CharEvaluator.char_grid.cells"] += np.size(r)


def _theorem3(c, a, r):
    s = a["s"]
    if s.d == 2:
        c["kernel.theorem3_comparison.samples"] += s.samples * len(r)


def _enumerate(c, a, r):
    c["model.enumerate_exact.states"] += len(r.S)


def _metropolis(c, a, r):
    d = r.diagnostics
    k = d["block_size"]
    records = -(-a["count"] // d["chains"])
    steps = -(-d["burn_in"] // k) + records * max(1, -(-d["thin"] // k))
    proposals = d["chains"] * steps
    c["model.sample_metropolis.proposals"] += proposals
    c["model.sample_metropolis.accepted"] += d["acceptance_rate"] * proposals


def _importance(c, a, r):
    c["model.sample_importance.draws"] += a["count"]
    c["model.sample_importance.ess"] += r.diagnostics["effective_sample_size"]


def _ks(c, a, r):
    c["limitlaw.ks_distance.points"] += len(a["values"])


HOOKS = {
    "measure.sample": _sample,
    "measure.convolution_density_f2": _conv,
    "transforms.RateFunction.solve": _solve,
    "cramer.CharEvaluator.char_grid": _char_grid,
    "kernel.theorem3_comparison": _theorem3,
    "model.enumerate_exact": _enumerate,
    "model.sample_metropolis": _metropolis,
    "model.sample_importance": _importance,
    "limitlaw.ks_distance": _ks,
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts = defaultdict(float)
        self._stack: list = []
        self._undo: list = []

    def clear(self) -> None:
        self.spans = []
        self.counts = defaultdict(float)

    # -- spans --------------------------------------------------------------
    def begin(self, name: str) -> list:
        rec = [name, perf_counter(), math.nan,
               self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def end(self, rec: list) -> None:
        rec[2] = perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        tracer = self
        hook = HOOKS.get(name)
        counting_nodes = name == "quadrature.adaptive_gauss_legendre"
        is_dispatch = name == "cli.dispatch"
        calls_key = name + ".calls"

        def wrapper(*args, **kwargs):
            label = name
            if is_dispatch:
                argv = args[0] if args else kwargs.get("argv")
                label = f"cli.dispatch.{argv[0] if argv else 'none'}"
            if counting_nodes:
                args, kwargs = tracer._count_nodes(fn, args, kwargs)
            tracer.counts[calls_key] += 1
            rec = tracer.begin(label)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(rec)
            if hook is not None:
                hook(tracer.counts, _bound(fn, args, kwargs), result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def _count_nodes(self, fn, args, kwargs):
        arguments = _bound(fn, args, kwargs)
        f = arguments["f"]
        counts = self.counts

        def counted(z):
            counts["quadrature.adaptive_gauss_legendre.nodes"] += np.size(z)
            return f(z)
        arguments["f"] = counted
        return (), arguments

    # -- installation -------------------------------------------------------
    def _set(self, owner, attr, value) -> None:
        if isinstance(owner, dict):
            self._undo.append((owner, attr, owner[attr]))
            owner[attr] = value
        else:
            self._undo.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, value)

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        package = importlib.import_module("cwsoc")
        mods = {m: importlib.import_module(f"cwsoc.{m}") for m in MODULES}
        wrappers = {}
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) \
                        != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[obj] = self._wrap(f"{short}.{attr}", obj)
                elif inspect.isclass(obj):
                    self._wrap_methods(f"{short}.{attr}", obj)
        for mod in (package, *mods.values()):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._set(mod, attr, wrappers[obj])
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        if inspect.isfunction(val) and val in wrappers:
                            self._set(obj, key, wrappers[val])

    def _wrap_methods(self, prefix: str, cls) -> None:
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if inspect.isfunction(member):
                self._set(cls, attr, self._wrap(f"{prefix}.{attr}", member))
            elif isinstance(member, staticmethod):
                self._set(cls, attr, staticmethod(
                    self._wrap(f"{prefix}.{attr}", member.__func__)))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = old
            else:
                setattr(owner, attr, old)


def self_times(spans) -> dict:
    """Total self time per span name.

    A span's self time is its duration minus the length of the union of its
    children's intervals, clipped to the span.
    """
    children = defaultdict(list)
    for rec in spans:
        if rec[3] >= 0:
            children[rec[3]].append((rec[1], rec[2]))
    out = defaultdict(float)
    for i, (name, start, end, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[name] += (end - start) - covered
    return dict(out)
