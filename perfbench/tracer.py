"""Outside-in tracer for the vwslab layers.

The tracer replaces each public function of a layer module with a wrapper
that records a span (name, start, end, parent).  The wrapper is bound in
every ``vwslab`` module namespace that holds the original function, so calls
made through ``from .grid import forward`` are traced as well as calls made
through ``grid.forward``.  ``GridSpec.kappa_mesh`` is wrapped on the class.
Nothing under ``src/`` is edited; the wrapping lives only in this process.

Self time of a span is its duration minus the durations of its direct
children, so a layer's self time excludes the traced layers it calls.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

LAYERS = ("grid", "mollify", "coeffs", "doi", "evolve", "vwsnet", "cli")


class Tracer:
    """Span recorder.  Spans stay in memory until :meth:`summary`."""

    def __init__(self):
        # one [name, start, end, parent index] per call, parent -1 at the root
        self.spans: list = []
        self._open: list = []
        self.states_bytes = 0

    def wrap(self, name: str, fn):
        spans, open_, clock = self.spans, self._open, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, open_[-1] if open_ else -1])
            open_.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                open_.pop()
                spans[idx][2] = clock()

        return traced

    def wrap_solve(self, fn):
        """Trace ``evolve.solve`` and add up the bytes of the states it keeps."""
        traced = self.wrap("evolve.solve", fn)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = traced(*args, **kwargs)
            if result.states is not None:
                self.states_bytes += sum(a.nbytes for a in result.states)
            return result

        return counted

    def install(self) -> list:
        """Wrap every public function of every layer; return the span names."""
        mods = [importlib.import_module(f"vwslab.{layer}") for layer in LAYERS]
        pkg = [m for name, m in sys.modules.items()
               if name == "vwslab" or name.startswith("vwslab.")]
        names = []
        for layer, mod in zip(LAYERS, mods):
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                name = f"{layer}.{attr}"
                wrapped = (self.wrap_solve(obj) if name == "evolve.solve"
                           else self.wrap(name, obj))
                names.append(name)
                for m in pkg:
                    for key, val in list(vars(m).items()):
                        if val is obj:
                            setattr(m, key, wrapped)
        grid = mods[LAYERS.index("grid")]
        grid.GridSpec.kappa_mesh = self.wrap("grid.kappa_mesh",
                                             grid.GridSpec.kappa_mesh)
        names.append("grid.kappa_mesh")
        return sorted(names)

    def summary(self, names: list) -> dict:
        """Per span name: call count and self time in seconds."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {name: {"calls": 0, "self_s": 0.0} for name in names}
        for (name, start, end, _), inner in zip(self.spans, child):
            out[name]["calls"] += 1
            out[name]["self_s"] += (end - start) - inner
        return out
