"""In-memory span tracer for the per-layer metrics.

`Tracer.install()` wraps every public function of the traced gkdvlab layers
and every public `numpy.fft` transform, and rebinds each wrapper in every
namespace that holds the original: a module that did `from .solver import
picard_solve` calls the wrapper too. Spans are aggregated per thread in
memory (calls, inclusive time, self time = span minus its child spans) and
read once, by `summary()`, when the run ends. Each `numpy.fft` call is also
attributed to the layer of the innermost enclosing span.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

LAYERS = ("grid", "wiener", "spacetime", "norms", "solver", "montecarlo", "probes", "io", "config")
FFT_TRANSFORMS = tuple(n for n in np.fft.__all__ if "freq" not in n and "shift" not in n)
SAMPLE_SPAN = "montecarlo.sample"
IO_WRITERS = ("io.write_csv", "io.save_field", "io.save_trajectory", "io.write_manifest")


@dataclass
class _ThreadState:
    stack: list = field(default_factory=list)  # [name, time spent in child spans]
    spans: dict = field(default_factory=dict)  # name -> [calls, inclusive s, self s]
    fft: dict = field(default_factory=dict)  # enclosing layer -> [calls, points, s]
    counters: dict = field(default_factory=dict)
    sample_s: list = field(default_factory=list)


class Tracer:
    def __init__(self) -> None:
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState()
            self._local.state = state
            with self._lock:
                self._states.append(state)
        return state

    def _span(self, name, fn, args, kwargs):
        """Run fn inside a span; returns (result, duration, state)."""
        state = self._state()
        frame = [name, 0.0]
        state.stack.append(frame)
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            state.stack.pop()
            if state.stack:
                state.stack[-1][1] += dt
            rec = state.spans.setdefault(name, [0, 0.0, 0.0])
            rec[0] += 1
            rec[1] += dt
            rec[2] += dt - frame[1]
        return result, dt, state

    def wrap(self, name: str, fn):
        before, after = _BEFORE.get(name), _AFTER.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(self, args, kwargs)
            result, dt, state = self._span(name, fn, args, kwargs)
            if after is not None:
                after(state, args, kwargs, result, dt)
            return result

        return traced

    def wrap_fft(self, name: str, fn):
        @functools.wraps(fn)
        def traced(a, *args, **kwargs):
            state = self._state()
            layer = state.stack[-1][0].split(".")[0] if state.stack else "none"
            result, dt, _ = self._span(f"numpy.fft.{name}", fn, (a,) + args, kwargs)
            rec = state.fft.setdefault(layer, [0, 0, 0.0])
            rec[0] += 1
            rec[1] += max(np.size(a), np.size(result))
            rec[2] += dt
            return result

        return traced

    def wrap_sample(self, observe):
        """Per-sample span around the observable callable of run_ensemble."""

        @functools.wraps(observe)
        def traced(phi_omega):
            result, dt, state = self._span(SAMPLE_SPAN, observe, (phi_omega,), {})
            state.sample_s.append(dt)
            return result

        return traced

    def install(self) -> None:
        """Wrap the traced functions and rebind them in every namespace."""
        replacements = {}
        for layer in LAYERS:
            module = importlib.import_module(f"gkdvlab.{layer}")
            for attr, obj in vars(module).items():
                if attr.startswith("_") or inspect.isclass(obj) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) == module.__name__:
                    replacements[id(obj)] = (obj, self.wrap(f"{layer}.{attr}", obj))
        for name in FFT_TRANSFORMS:
            obj = getattr(np.fft, name)
            replacements[id(obj)] = (obj, self.wrap_fft(name, obj))
        importlib.import_module("gkdvlab.cli")
        namespaces = [np.fft] + [
            mod for name, mod in sorted(sys.modules.items())
            if name == "gkdvlab" or name.startswith("gkdvlab.")
        ]
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                hit = replacements.get(id(obj))
                if hit is not None:
                    setattr(ns, attr, hit[1])
                    self._patched.append((ns, attr, obj))

    def uninstall(self) -> None:
        """Put the original functions back."""
        for ns, attr, obj in reversed(self._patched):
            setattr(ns, attr, obj)
        self._patched.clear()

    def summary(self) -> dict:
        """Merge the per-thread aggregates into one JSON-ready dict."""
        spans: dict = {}
        fft: dict = {}
        counters: dict = {}
        sample_s: list = []
        with self._lock:
            states = list(self._states)
        for st in states:
            for table, merged in ((st.spans, spans), (st.fft, fft)):
                for key, rec in table.items():
                    acc = merged.setdefault(key, [0] * len(rec))
                    for i, v in enumerate(rec):
                        acc[i] += v
            for key, v in st.counters.items():
                counters[key] = counters.get(key, 0) + v
            sample_s.extend(st.sample_s)
        return {"spans": spans, "fft": fft, "counters": counters, "sample_s": sample_s}


def _count(state: _ThreadState, key: str, n) -> None:
    state.counters[key] = state.counters.get(key, 0) + n


def _sample_spans(tracer: Tracer, args: tuple, kwargs: dict) -> tuple[tuple, dict]:
    if callable(kwargs.get("observables")):
        kwargs = dict(kwargs, observables=tracer.wrap_sample(kwargs["observables"]))
    elif len(args) > 2 and callable(args[2]):
        args = args[:2] + (tracer.wrap_sample(args[2]),) + args[3:]
    return args, kwargs


def _picard_done(state, args, kwargs, result, dt) -> None:
    _count(state, "solver.picard_iterations", int(result.iterations))


def _ensemble_done(state, args, kwargs, result, dt) -> None:
    _count(state, "montecarlo.samples", len(result))
    _count(state, "montecarlo.nan_samples", sum(1 for r in result if r.blown_up))


def _estimate_done(state, args, kwargs, result, dt) -> None:
    estimate_id = args[0] if args else kwargs["estimate_id"]
    rec = state.spans.setdefault(f"probes.run_estimate.{estimate_id}", [0, 0.0, 0.0])
    rec[0] += 1
    rec[1] += dt


def _file_written(state, args, kwargs, result, dt) -> None:
    _count(state, "io.bytes", Path(result).stat().st_size)


_BEFORE = {"montecarlo.run_ensemble": _sample_spans}
_AFTER = {
    "solver.picard_solve": _picard_done,
    "montecarlo.run_ensemble": _ensemble_done,
    "probes.run_estimate": _estimate_done,
    **{name: _file_written for name in IO_WRITERS},
}
