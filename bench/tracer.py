"""Span tracer that wraps colorbench's public functions from outside.

The package binds its functions with ``from .x import y``, so one function
object sits under several module attributes (``colorbench.spectral.spd_to_xyz``
and ``colorbench.optimal.spd_to_xyz``, for example).  ``install`` rebinds
every attribute that holds a traced object, and ``uninstall`` puts the
originals back, so untraced runs execute the unmodified program.

Each span is ``(name, parent, op, start_ns, end_ns)``; spans stay in memory
and are written out once, at the end of the run.  Counts are taken at the
same boundaries from the traced call's return value.
"""
from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
import time
import types
import zlib
from collections import Counter, defaultdict

LAYERS = ("cli", "spectral", "targets", "optimal", "cam16", "atlas", "spectradb", "chart")


def _png_pixels(png: bytes) -> int:
    # IHDR is the first chunk: width and height follow the 8-byte signature
    # and the 8-byte chunk header
    return int.from_bytes(png[16:20], "big") * int.from_bytes(png[20:24], "big")


# span name -> function(result) -> counts to add for the current op
COUNTERS = {
    "optimal.minimize": lambda r: {"nm_iterations": int(r.nit), "nfev": int(r.nfev)},
    "atlas.generate_atlas": lambda r: {
        "candidates": r.candidates,
        "points": len(r.points),
        "inversion_failures": r.inversion_failures,
    },
    "spectradb.load_database": lambda r: {"records": len(r)},
    "chart.render_chart": lambda r: {"pixels": _png_pixels(r[0]), "png_bytes": len(r[0])},
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.op = -1
        self._stack: list[int] = []
        self._bindings: list[tuple[object, str, object, object]] = []
        self.span_counts: dict[int, dict] = {}
        self.first_render: tuple | None = None

    def _wrap(self, name: str, fn):
        spans, stack, counter = self.spans, self._stack, COUNTERS.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            spans.append(None)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, parent, self.op, start, end)
            if counter is not None:
                self.span_counts[idx] = counter(result)
                self.counts[self.op].update(self.span_counts[idx])
            if name == "chart.render_chart" and self.first_render is None:
                self.first_render = (fn, args, kwargs)
            return result

        return traced

    def install(self) -> None:
        """Rebind every module attribute that holds a public function of a
        layer, plus the optimizer and the deflate call the layers use."""
        modules = {m: sys.modules[f"colorbench.{m}"] for m in LAYERS}
        targets: dict[int, tuple[str, object]] = {}
        for layer, module in modules.items():
            for attr, obj in vars(module).items():
                if attr.startswith("_") or inspect.isclass(obj) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) == module.__name__:
                    targets[id(obj)] = (f"{layer}.{attr}", obj)
        minimize = modules["optimal"].minimize
        targets[id(minimize)] = ("optimal.minimize", minimize)
        wrappers = {key: self._wrap(name, obj) for key, (name, obj) in targets.items()}
        holders = [m for n, m in sys.modules.items() if n == "colorbench" or n.startswith("colorbench.")]
        for module in holders:
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers:
                    self._bindings.append((module, attr, obj, wrappers[id(obj)]))
        # chart calls zlib.compress through its module reference: give it a
        # copy of the zlib namespace so the real module stays untouched
        proxy = types.ModuleType("zlib")
        proxy.__dict__.update(vars(zlib))
        proxy.compress = self._wrap("chart.deflate", zlib.compress)
        self._bindings.append((modules["chart"], "zlib", modules["chart"].zlib, proxy))
        for module, attr, _, new in self._bindings:
            setattr(module, attr, new)

    def uninstall(self) -> None:
        for module, attr, old, _ in self._bindings:
            setattr(module, attr, old)
        self._bindings.clear()

    def op_spans(self) -> dict[int, Counter]:
        """Span counts per op and name."""
        out: dict[int, Counter] = defaultdict(Counter)
        for name, _, op, _, _ in self.spans:
            out[op][name] += 1
        return out

    def times(self) -> tuple[Counter, Counter]:
        """Total and self seconds per span name; self time is the duration
        minus the time covered by child spans."""
        total, child = Counter(), Counter()
        for i, (name, parent, _, start, end) in enumerate(self.spans):
            dur = (end - start) * 1e-9
            total[name] += dur
            if parent >= 0:
                child[parent] += dur
        own = Counter()
        for i, (name, _, _, start, end) in enumerate(self.spans):
            own[name] += (end - start) * 1e-9 - child[i]
        return total, own

    def integrations_per_load(self) -> list[tuple[int, int]]:
        """(spd_to_xyz calls beneath it, records it returned) for every
        load_database span."""
        loads = {i: 0 for i, s in enumerate(self.spans) if s[0] == "spectradb.load_database"}
        for name, parent, _, _, _ in self.spans:
            if name != "spectral.spd_to_xyz":
                continue
            while parent >= 0 and parent not in loads:
                parent = self.spans[parent][1]
            if parent >= 0:
                loads[parent] += 1
        return [(n, self.span_counts[i]["records"]) for i, n in loads.items()]

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
