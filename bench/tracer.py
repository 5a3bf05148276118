"""In-memory span tracer for the rsuncert benchmark.

The tracer wraps the public functions of every rsuncert module at every
binding site (``kspace.fourier_to_position`` and the copy imported into
``moments``, ``propagator`` and the package namespace all get the same
wrapper), plus the methods listed in METHODS.  Nothing under ``src/`` is
edited: the wrappers are installed from the benchmark's own process.

A span is ``(id, name, start, end, parent, run_id)``.  Spans stay in memory
and are written once, at the end of a pass.  Counters (calls, points, bytes)
are kept beside them and repeat exactly for the same inputs.
"""

from __future__ import annotations

from collections import defaultdict
import functools
import importlib
import inspect
import json
import os
import time

import numpy as np

MODULES = ("specfun", "kspace", "analytic_fields", "moments", "eigensolver",
           "propagator", "rsfio", "cli")

# functions whose spans carry another name than module.function
ALIASES = {
    "kspace.fourier_to_position": "kspace.fft_bridge",
    "kspace.fourier_to_kspace": "kspace.fft_bridge",
}

# (module, class, method, span name): layer boundaries that are methods
METHODS = (
    ("kspace", "RadialProfileAmplitude", "value", "kspace.amp_eval"),
    ("kspace", "RadialProfileAmplitude", "grad", "kspace.amp_eval"),
    ("kspace", "PolynomialGaussianAmplitude", "value", "kspace.amp_eval"),
    ("kspace", "PolynomialGaussianAmplitude", "grad", "kspace.amp_eval"),
    ("kspace", "FieldGrid", "density", "kspace.density"),
    ("kspace", "FieldGrid", "boundary_density_ratio", "kspace.boundary_ratio"),
    ("moments", "CylindricalRule", "nodes", "moments.CylindricalRule.nodes"),
)


def _amp_points(args, kwargs, result):
    return np.broadcast(*args[1:4]).size


def _field_points(args, kwargs, result):
    return int(np.prod(np.shape(args[0])[:-1]))


def _rsf_bytes(args, kwargs, result):
    return os.path.getsize(args[0])


def _fft_bytes(args, kwargs, result):
    # computed, not measured: the input and output arrays, read and written once
    return args[0].values.nbytes + result.values.nbytes


# span name -> (counter name, function of (args, kwargs, result))
COUNTERS = {
    "kspace.amp_eval": ("kspace.amp_eval.points", _amp_points),
    "analytic_fields.saturating_rs_field": (
        "analytic_fields.saturating_rs_field.points", _field_points),
    "specfun.dawson": ("specfun.dawson.points", lambda a, k, r: int(np.size(a[0]))),
    "moments.CylindricalRule.nodes": ("moments.quad_nodes", lambda a, k, r: r[0].size),
    "rsfio.write_rsf": ("rsfio.bytes", _rsf_bytes),
    "rsfio.read_rsf": ("rsfio.bytes", _rsf_bytes),
    "kspace.fft_bridge": ("kspace.fft_bridge.bytes_computed", _fft_bytes),
}


class Tracer:
    """Collects spans and exact counters for one pass (one run id)."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self.counts = defaultdict(int)
        self._stack = []
        self._next_id = 0
        self._patches = []

    def wrap(self, name, fn):
        counter = COUNTERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1] if tracer._stack else None
            tracer._stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans.append((sid, name, start, end, parent, tracer.run_id))
            tracer.counts[name + ".calls"] += 1
            if counter is not None:
                tracer.counts[counter[0]] += int(counter[1](args, kwargs, result))
            return result

        return traced

    def install(self):
        """Wrap every public function at every binding site in rsuncert."""
        mods = {m: importlib.import_module(f"rsuncert.{m}") for m in MODULES}
        sites = [importlib.import_module("rsuncert")] + list(mods.values())
        wrappers = {}
        for short, mod in mods.items():
            # cli has no __all__: its entry point main is its public function
            for attr in getattr(mod, "__all__", ["main"]):
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    name = f"{short}.{attr}"
                    wrappers[fn] = self.wrap(ALIASES.get(name, name), fn)
        for site in sites:
            for attr, val in list(vars(site).items()):
                if inspect.isfunction(val) and val in wrappers:
                    self._patch(site, attr, wrappers[val])
        for short, cls, meth, name in METHODS:
            owner = getattr(mods[short], cls)
            self._patch(owner, meth, self.wrap(name, vars(owner)[meth]))

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def uninstall(self):
        for owner, attr, old in reversed(self._patches):
            setattr(owner, attr, old)
        self._patches.clear()

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, run_id in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "run": run_id}) + "\n")


def summarize(spans, wall_s):
    """Per-span-name busy and self times, per-module self times and the time
    no span covers.

    busy_s sums a name's span durations (no traced function calls another
    of the same name); self_s is a span's duration minus the time its direct
    children cover.  Sum of all self times + unattributed_s == wall_s.
    """
    child_time = defaultdict(float)
    for sid, name, start, end, parent, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    busy = defaultdict(float)
    self_t = defaultdict(float)
    layer_self = defaultdict(float)
    covered = 0.0
    for sid, name, start, end, parent, _ in spans:
        own = end - start - child_time[sid]
        busy[name] += end - start
        self_t[name] += own
        layer_self[name.split(".")[0]] += own
        if parent is None:
            covered += end - start
    return {
        "busy": dict(busy),
        "self": dict(self_t),
        "layer_self": dict(layer_self),
        "unattributed_s": wall_s - covered,
    }
