"""Layer-boundary span tracer for the benchmark's traced runs.

Each layer's public functions (its module's ``__all__``, plus what the
package root re-exports from it) are wrapped where
*other* wfsim modules bind them, so only calls that cross a layer boundary
are recorded. Calls inside one module, such as the per-point ``evaluate``
calls that ``quad`` makes inside ``integrate``, stay unwrapped. A name
imported inside a function body binds the defining module's attribute at
call time and is not traced either.

Spans live in memory as [key, start, end, parent]. A span's self time is its
duration minus the durations of its children. Keys name the layer and a role
rather than a function (``measurement.acquire`` covers every
``acquire_*``), so the metric names survive merged or batched replacements.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
from time import perf_counter

PACKAGE = "wfsim"
LAYERS = ("waveform", "sensor", "measurement", "estimator", "allocation", "config")
ROLES = {"write_ensemble_csv": "csv_write", "read_ensemble_csv": "csv_read",
         "recon_error_sq": "score", "decompose_error": "score"}
ROLE_PREFIXES = ("acquire", "integrate")


def role(name: str) -> str:
    for prefix in ROLE_PREFIXES:
        if name.startswith(prefix):
            return prefix
    return ROLES.get(name, name)


def _file_bytes(path) -> int:
    path = os.fspath(path)
    return sum(os.path.getsize(p) for p in (path, path + ".meta.json") if os.path.exists(p))


def _divisor_pair_count(N: int) -> int:
    small = [d for d in range(1, int(N**0.5) + 1) if N % d == 0]
    return 2 * len(small) - (small[-1] ** 2 == N)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


# counters computed at a boundary: role key -> (counter name, f(args, kwargs, result))
COUNTERS = {
    "measurement.acquire": ("measurement.noise_draws",
                            lambda a, kw, out: 2 * out.estimates.size),
    "measurement.csv_write": ("measurement.csv_write.bytes",
                              lambda a, kw, out: _file_bytes(_arg(a, kw, 1, "path"))),
    "measurement.csv_read": ("measurement.csv_read.bytes",
                             lambda a, kw, out: _file_bytes(_arg(a, kw, 0, "path"))),
    "allocation.optimize_exact": ("allocation.candidates",
                                  lambda a, kw, out: out.N if out.budget_mode
                                  else _divisor_pair_count(out.N)),
}

# per-layer metrics of one traced pass, with units, in report order
PER_LAYER = (
    ("waveform.integrate.calls", "count"), ("waveform.integrate.self_s", "s"),
    ("waveform.integrate.calls_per_acquire", "ratio"),
    ("waveform.evaluate.calls", "count"), ("waveform.evaluate.self_s", "s"),
    ("waveform.estimate_holder.s", "s"), ("waveform.self_s", "s"),
    ("sensor.calls", "count"), ("sensor.self_s", "s"),
    ("measurement.acquire.calls", "count"), ("measurement.acquire.self_s", "s"),
    ("measurement.with_seed.s", "s"), ("measurement.noise_draws", "count"),
    ("measurement.csv_write.s", "s"), ("measurement.csv_write.bytes", "bytes"),
    ("measurement.csv_read.s", "s"), ("measurement.csv_read.bytes", "bytes"),
    ("measurement.self_s", "s"),
    ("estimator.reconstruct.calls", "count"), ("estimator.score.calls", "count"),
    ("estimator.self_s", "s"),
    ("allocation.optimize_exact.calls", "count"), ("allocation.optimize_exact.s", "s"),
    ("allocation.candidates", "count"), ("allocation.self_s", "s"),
    ("config.load_config.s", "s"), ("config.self_s", "s"),
    ("cli.self_s", "s"),
    ("setup.import_s", "s"), ("host.calibration_s", "s"), ("trace_overhead_ratio", "ratio"),
)


class Tracer:
    """Wraps the layer boundaries of the imported wfsim package; install and
    uninstall swap the wrappers in and out so traced and untraced passes
    share a process."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        root = sys.modules[PACKAGE]
        for layer in LAYERS:
            home = sys.modules[f"{PACKAGE}.{layer}"]
            public = set(home.__all__) | {n for n, obj in vars(root).items()
                                          if getattr(home, n, None) is obj}
            for name in sorted(public):
                fn = getattr(home, name)
                if not inspect.isfunction(fn) or fn.__module__ != home.__name__:
                    continue
                wrapper = self.wrap(f"{layer}.{role(name)}", fn)
                self._patches += [(m, name, fn, wrapper) for m in modules
                                  if m is not home and m.__dict__.get(name) is fn]

    def wrap(self, key: str, fn):
        spans, stack, counter = self.spans, self._stack, COUNTERS.get(key)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [key, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if counter is not None:
                name, f = counter
                self.counts[name] = self.counts.get(name, 0) + f(args, kwargs, out)
            return out

        return traced

    def install(self) -> None:
        for module, name, _, wrapper in self._patches:
            setattr(module, name, wrapper)

    def uninstall(self) -> None:
        for module, name, original, _ in self._patches:
            setattr(module, name, original)

    def take(self) -> dict[str, float]:
        """Per-layer metrics of the spans recorded since the last call."""
        child = [0.0] * len(self.spans)
        for _, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        calls: dict[str, int] = {}
        incl: dict[str, float] = {}
        self_s: dict[str, float] = {}
        for (key, t0, t1, _), c in zip(self.spans, child):
            layer = key.split(".")[0]
            for k in (key, layer):
                calls[k] = calls.get(k, 0) + 1
                self_s[k] = self_s.get(k, 0.0) + (t1 - t0 - c)
            incl[key] = incl.get(key, 0.0) + (t1 - t0)
        m = {name: self.counts.get(name, 0) for name, _ in COUNTERS.values()}
        for name, _ in PER_LAYER:
            if name in m:
                continue
            key, _, stat = name.rpartition(".")
            src = {"calls": calls, "self_s": self_s, "s": incl}.get(stat)
            if src is not None:
                m[name] = src.get(key, 0)
        acquires = m["measurement.acquire.calls"]
        m["waveform.integrate.calls_per_acquire"] = (
            m["waveform.integrate.calls"] / acquires if acquires else 0.0)
        self.spans.clear()
        self.counts.clear()
        return m
