"""Outside-in span tracing of the rategame layers.

The tracer wraps public functions of the package from outside: it replaces
every reference to a target function held by a loaded ``rategame`` module
with a wrapper that records a span (name, start, end, parent span, op id).
Nothing under ``src/`` is edited. Spans live in flat in-memory columns and
are written out once, when the run ends.
"""

from __future__ import annotations

import sys
from array import array
from time import perf_counter

import numpy as np

# span name -> (module, attribute); the name prefix is the layer.
TARGETS = {
    "experiment.run_single_trial": ("rategame.experiment", "run_single_trial"),
    "experiment.generate_channels": ("rategame.experiment", "generate_channels"),
    "experiment.perturb_channels": ("rategame.experiment", "perturb_channels"),
    "conditions.build_report": ("rategame.conditions", "build_report"),
    "conditions.default_bin_sets": ("rategame.conditions", "default_bin_sets"),
    "conditions.build_Smax": ("rategame.conditions", "build_Smax"),
    "conditions.spectral_radius": ("rategame.conditions", "spectral_radius"),
    "solver.default_initial_profile": ("rategame.solver", "default_initial_profile"),
    "solver.solve": ("rategame.solver", "solve"),
    "waterfill.best_response_powers": ("rategame.waterfill", "best_response_powers"),
    "waterfill.find_water_level": ("rategame.waterfill", "find_water_level"),
    "core.sum_rate": ("rategame.core", "sum_rate"),
    "metrics.occupancy_counts": ("rategame.metrics", "occupancy_counts"),
}
OP_SPAN = "bench.op"
NO_PARENT = -1


class Tracer:
    """Span recorder that patches TARGETS while installed."""

    def __init__(self):
        self.names = [OP_SPAN, *TARGETS]
        self._name_id = {n: i for i, n in enumerate(self.names)}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.bins = 0  # phi entries handed to find_water_level
        self._stack = [NO_PARENT]
        self._op_id = -1
        self._patched = []  # (module, attribute, original)

    def _open(self, name_id):
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.op.append(self._op_id)
        self.start.append(perf_counter())
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.end[idx] = perf_counter()
        self._stack.pop()

    def span_op(self, op_id, fn, *args):
        """Run one benchmark op under a root span tagged with op_id."""
        self._op_id = op_id
        idx = self._open(0)
        try:
            return fn(*args)
        finally:
            self._close(idx)

    def _wrap(self, name, fn):
        name_id = self._name_id[name]
        tracer = self

        if name == "waterfill.find_water_level":
            def wrapper(phi, *args, **kwargs):
                tracer.bins += np.size(phi)
                idx = tracer._open(name_id)
                try:
                    return fn(phi, *args, **kwargs)
                finally:
                    tracer._close(idx)
        else:
            def wrapper(*args, **kwargs):
                idx = tracer._open(name_id)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._close(idx)

        return wrapper

    def install(self):
        """Replace every package-held reference to each target with a wrapper."""
        modules = [m for n, m in sys.modules.items()
                   if n == "rategame" or n.startswith("rategame.")]
        for name, (mod_name, attr) in TARGETS.items():
            original = getattr(sys.modules[mod_name], attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, original))

    def uninstall(self):
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()

    def arrays(self):
        """Span columns as numpy arrays (times in seconds)."""
        return dict(
            name=np.frombuffer(self.name, dtype=np.int32).copy(),
            parent=np.frombuffer(self.parent, dtype=np.int32).copy(),
            op=np.frombuffer(self.op, dtype=np.int32).copy(),
            start=np.frombuffer(self.start, dtype=np.float64).copy(),
            end=np.frombuffer(self.end, dtype=np.float64).copy(),
        )

    def summary(self):
        """calls, busy_s and self_s per span name.

        Self time is a span's duration minus the durations of its direct
        children; no traced function calls itself, so busy time never counts
        a nested span of the same name twice.
        """
        cols = self.arrays()
        dur = cols["end"] - cols["start"]
        has_parent = cols["parent"] != NO_PARENT
        child = np.bincount(cols["parent"][has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        self_t = dur - child
        out = {}
        n = len(self.names)
        calls = np.bincount(cols["name"], minlength=n)
        busy = np.bincount(cols["name"], weights=dur, minlength=n)
        selfs = np.bincount(cols["name"], weights=self_t, minlength=n)
        for i, name in enumerate(self.names):
            out[name] = dict(calls=int(calls[i]), busy_s=float(busy[i]),
                             self_s=float(selfs[i]))
        return out

    def write(self, path):
        """Spans as a compressed .npz: one column per field plus the name table."""
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())
