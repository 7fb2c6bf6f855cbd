"""Span tracing of the `spheroid` layers from outside the package.

The tracer wraps public names of the package's modules (and the scipy entry
points those modules bind) for the duration of a ``with tracer.patched():``
block and restores them afterwards; `src/` is never edited.  A package
function is replaced in every `spheroid` module that bound it at import, so
``solve_nutrient`` is traced whether `evolution`, `stationary` or `analysis`
calls it.  A third-party name is replaced only in the module that names it,
so `evolution.CubicSpline` counts the interpolators built by transport and
not the splines of the stationary cross-check.  A target that no longer
exists is listed in ``absent`` and skipped, so the package can drop
internals without breaking the benchmark.

Each span records its name, start, end, parent span and run id in flat
arrays that stay in memory until :meth:`Tracer.write`.  Calls and self time
(span time minus the time of its child spans) are aggregated per name as
the spans close, and ``after`` hooks add counts read from call results.
"""

import json
import os
import sys
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager

import numpy as np


def _newton_iters(tracer, result, args, kwargs):
    tracer.counts["nutrient.newton_iters"] += int(result.iterations)


def _snapshot_bytes(tracer, result, args, kwargs):
    tracer.counts["snapshot.save_snapshot.bytes"] += int(result)


def _csv_bytes(tracer, result, args, kwargs):
    path = args[0] if args else kwargs["path"]
    tracer.counts["output.write_timeseries_csv.bytes"] += os.path.getsize(path)


def _clip_events(tracer, result, args, kwargs):
    tracer.counts["evolution.clip_events"] += int(result.clip.events)


def _cells(tracer, result, args, kwargs):
    ran = [c for c in result.cells if c.status != "skipped"]
    tracer.counts["analysis.cells_run"] += len(ran)
    tracer.counts["analysis.cells_converged"] += sum(bool(c.converged) for c in ran)


PACKAGE = "spheroid"

# (span name, module of `spheroid` that binds it, attribute path, after hook)
TARGETS = (
    ("rates.f_reaction", "rates", "f_reaction", None),
    ("rates.g_source", "rates", "g_source", None),
    ("grid.cumulative_radial_integral", "grid", "Grid.cumulative_radial_integral",
     None),
    ("nutrient.solve_nutrient", "nutrient", "solve_nutrient", _newton_iters),
    ("nutrient.tri_solve", "nutrient", "tri_solve", None),
    ("evolution.step", "evolution", "step", None),
    ("evolution.transport_step", "evolution", "transport_step", None),
    ("evolution.nutrient_step", "evolution", "nutrient_step", None),
    ("evolution.velocity_from_state", "evolution", "velocity_from_state",
     None),
    ("evolution.simulate", "evolution", "simulate", _clip_events),
    ("evolution.PchipInterpolator", "evolution", "PchipInterpolator", None),
    ("evolution.CubicSpline", "evolution", "CubicSpline", None),
    ("stationary.solve_stationary", "stationary", "solve_stationary", None),
    ("records.deviation_norms", "records", "deviation_norms", None),
    ("analysis.fit_decay", "analysis", "fit_decay", None),
    ("analysis.stability_experiment", "analysis", "stability_experiment",
     _cells),
    ("snapshot.save_snapshot", "snapshot", "save_snapshot", _snapshot_bytes),
    ("output.write_timeseries_csv", "output", "write_timeseries_csv",
     _csv_bytes),
)


# counts kept by the ``after`` hooks above
COUNTS = ("nutrient.newton_iters", "snapshot.save_snapshot.bytes",
          "output.write_timeseries_csv.bytes", "evolution.clip_events",
          "analysis.cells_run", "analysis.cells_converged")


def _resolve(module, path):
    """Return (owner, attribute name, value) for a dotted path, or None."""
    owner = module
    *parents, name = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not hasattr(owner, name):
        return None
    return owner, name, getattr(owner, name)


def _package_modules():
    return [m for k, m in list(sys.modules.items())
            if m is not None and (k == PACKAGE or k.startswith(PACKAGE + "."))]


class Tracer:
    """Spans and per-name aggregates for one traced pass."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.run_id = 0
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.absent = []
        self._stack = []   # [span index, time covered by child spans]

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name, fn, after=None):
        """Return ``fn`` wrapped in a span called ``name``."""
        nid = self._name_id(name)
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.parent.append(stack[-1][0] if stack else -1)
            self.name.append(nid)
            self.run.append(self.run_id)
            self.end.append(np.nan)
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = clock()
            self.start.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                self.end[idx] = t1
                dur = t1 - t0
                self.calls[name] += 1
                self.self_s[name] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
            if after is not None:
                after(self, result, args, kwargs)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def patched(self, targets=TARGETS):
        """Install the wrappers for the block; always restore the originals.

        The package and its modules must already be imported."""
        modules = _package_modules()
        undo = []
        try:
            for name, mod_name, path, after in targets:
                module = sys.modules.get(f"{PACKAGE}.{mod_name}")
                found = None if module is None else _resolve(module, path)
                if found is None:
                    self.absent.append(name)
                    continue
                owner, attr, original = found
                wrapper = self.wrap(name, original, after)
                if "." in path or not getattr(original, "__module__",
                                              "").startswith(PACKAGE):
                    # a method, or a third-party name bound by one module
                    sites = [(owner, attr)]
                else:
                    sites = [(m, k) for m in modules
                             for k, v in list(vars(m).items()) if v is original]
                for site, key in sites:
                    undo.append((site, key, getattr(site, key)))
                    setattr(site, key, wrapper)
            yield self
        finally:
            for site, key, original in reversed(undo):
                setattr(site, key, original)

    def span_count(self):
        return len(self.start)

    def metric_values(self, warnings, overhead_frac):
        """Per-layer values by metric name: ``<span>.calls``,
        ``<span>.self_s``, every count an ``after`` hook keeps, and the
        derived metrics below.  Absent targets read as zero."""
        values = {"log.warnings": warnings, "trace.overhead_frac": overhead_frac,
                  "evolution.interp_builds":
                      self.calls["evolution.PchipInterpolator"]
                      + self.calls["evolution.CubicSpline"]}
        solves = self.calls["nutrient.solve_nutrient"]
        values["nutrient.newton_iters_per_solve"] = (
            self.counts["nutrient.newton_iters"] / solves if solves else 0.0)
        for name, *_ in TARGETS:
            values[f"{name}.calls"] = self.calls[name]
            values[f"{name}.self_s"] = self.self_s[name]
        for name in COUNTS:
            values[name] = self.counts[name]
        return values

    def write(self, path, meta):
        """Write the spans (``.npz``) and a JSON summary next to them."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez_compressed(
            path + ".npz",
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            run=np.frombuffer(self.run, dtype=np.int32),
            names=np.array(self.names))
        summary = {"meta": meta, "absent": self.absent,
                   "spans": self.span_count(),
                   "calls": dict(self.calls), "self_s": dict(self.self_s),
                   "counts": dict(self.counts)}
        with open(path + ".json", "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
