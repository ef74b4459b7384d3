"""Per-layer tracing by wrapping gyrospec's public functions.

Spans are recorded from the benchmark's side of each layer boundary: the
benchmark replaces every public function of ``model``, ``qep``,
``perturbation``, ``atlas`` and ``floquet`` with a timing wrapper, in
every gyrospec module that holds a reference to it (``atlas`` and
``floquet`` bind ``roots_batch``, ``build_pencil`` and friends at import,
so patching the defining module alone would miss their calls).  Names
that a later version of gyrospec no longer has are skipped and read 0.
"""

from __future__ import annotations

import inspect
import math
import sys
import time
from collections import defaultdict

PACKAGE = "gyrospec"
LAYERS = ("model", "qep", "perturbation", "atlas", "floquet")
# Spans whose time counts as solver time inside boundary tracing.
SOLVER = ("atlas.max_re_at_points", "atlas.eigenvalues_at_points",
          "qep.charpoly_of_matrix", "qep.roots_batch", "qep.solve_qep")
# Private helper wrapped only to tell bisection points from orientation probes.
BISECT = "atlas._refine_edges"


def _rows(a) -> int:
    """Matrices in a stack (..., d, d)."""
    return math.prod(getattr(a, "shape", ())[:-2])


def _poly_rows(a) -> int:
    """Polynomials in a batch (n, d + 1) or 1 for a single one."""
    shape = getattr(a, "shape", (1,))
    return shape[0] if len(shape) == 2 else 1


class _Span:
    __slots__ = ("name", "start", "child", "solver")

    def __init__(self, name, start):
        self.name = name
        self.start = start
        self.child = 0.0     # time in direct child spans
        self.solver = 0.0    # time in outermost solver spans below this one


class Tracer:
    """Installs wrappers, keeps open spans on a stack, sums per-job counters."""

    def __init__(self):
        self.stack: list[_Span] = []
        self.c: dict = defaultdict(float)
        self._patches: list = []

    # -- installation ---------------------------------------------------
    def install(self) -> None:
        mods = {name: m for name, m in sys.modules.items()
                if name == PACKAGE or name.startswith(PACKAGE + ".")}
        targets = {}
        for layer in LAYERS:
            mod = mods.get(f"{PACKAGE}.{layer}")
            if mod is None:
                continue
            for name, obj in vars(mod).items():
                public = not name.startswith("_") or f"{layer}.{name}" == BISECT
                if public and inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    targets[id(obj)] = (f"{layer}.{name}", obj)
        for span_name, fn in targets.values():
            wrapper = self._wrap(span_name, fn)
            for mod in mods.values():
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._patches.append((mod, attr, fn))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._patches):
            setattr(mod, attr, fn)
        self._patches.clear()

    # -- spans ------------------------------------------------------------
    def open(self, name: str) -> _Span:
        span = _Span(name, time.perf_counter())
        self.stack.append(span)
        return span

    def close(self, span: _Span) -> float:
        dur = time.perf_counter() - span.start
        self.stack.pop()
        if self.stack:
            self.stack[-1].child += dur
        if span.name in SOLVER and not any(s.name in SOLVER for s in self.stack):
            for s in self.stack:
                s.solver += dur
        return dur

    def _inside(self, name: str) -> bool:
        return any(s.name == name for s in self.stack)

    def _wrap(self, name: str, fn):
        tracer = self
        layer = name.split(".", 1)[0]

        def wrapper(*args, **kwargs):
            outer_layer = not any(s.name.startswith(layer + ".") for s in tracer.stack)
            outer_self = not tracer._inside(name)
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = tracer.close(span)
                c = tracer.c
                c[name + ".calls"] += 1
                if outer_self:
                    c[name + ".s"] += dur
                if outer_layer:
                    c[layer + ".s"] += dur
            tracer._count(name, span, dur, args, kwargs, result)
            return result

        return wrapper

    def _count(self, name, span, dur, args, kwargs, result) -> None:
        c = self.c
        if name == "qep.charpoly_of_matrix":
            c["qep.charpoly_rows"] += _rows(args[0] if args else kwargs.get("A"))
        elif name == "qep.roots_batch":
            rows = _poly_rows(args[0] if args else kwargs.get("coeffs"))
            c["qep.roots_batch_rows"] += rows
            if self._inside("atlas.sweep2d") or self._inside("atlas.trace_boundary"):
                c["atlas.chart_points"] += rows
        elif name == "atlas.sweep2d":
            grid = args[3] if len(args) > 3 else kwargs.get("grid")
            c["atlas.sweep_nodes"] += len(grid[0]) * len(grid[1])
        elif name == "atlas.max_re_at_points":
            pts = args[3] if len(args) > 3 else kwargs.get("pts")
            if self._inside(BISECT):
                c["atlas.bisect_points"] += len(pts)
            elif self._inside("atlas.trace_boundary"):
                c["atlas.probe_calls"] += 1
        elif name == "atlas.trace_boundary":
            c["atlas.trace_self_s"] += dur - span.solver
            c["atlas.polylines"] += len(result)
        elif name == "atlas.find_exceptional_points":
            c["atlas.ep_found"] += len(result[0])
            c["atlas.ep_near_misses"] += len(result[1])
        elif name == "floquet.monodromy":
            c["floquet.rk4_steps"] += getattr(result, "steps", 0)


def _ratio(a: float, b: float, scale: float = 1.0) -> float:
    return scale * a / b if b > 0 else 0.0


def layer_metrics(c: dict) -> dict:
    """Per-layer metrics as name -> (value, unit), from counters summed over
    a round (times already normalised)."""
    def g(key):
        return float(c.get(key, 0.0))

    return {
        "config.parse_s": (g("config.parse_s"), "s"),
        "cli.self_s": (g("cli.self_s"), "s"),
        "cli.bytes_written": (g("cli.bytes_written"), "bytes"),
        "cli.mb_per_s": (_ratio(g("cli.bytes_written"), g("cli.self_s"), 1e-6), "MB/s"),
        "model.build_pencil_calls": (g("model.build_pencil.calls"), "count"),
        "model.build_pencil_s": (g("model.build_pencil.s"), "s"),
        "qep.charpoly_calls": (g("qep.charpoly_of_matrix.calls"), "count"),
        "qep.charpoly_rows": (g("qep.charpoly_rows"), "count"),
        "qep.charpoly_s": (g("qep.charpoly_of_matrix.s"), "s"),
        "qep.roots_batch_calls": (g("qep.roots_batch.calls"), "count"),
        "qep.roots_batch_rows": (g("qep.roots_batch_rows"), "count"),
        "qep.roots_batch_s": (g("qep.roots_batch.s"), "s"),
        "qep.roots_us_per_row": (
            _ratio(g("qep.roots_batch.s"), g("qep.roots_batch_rows"), 1e6), "us"),
        "qep.solve_qep_calls": (g("qep.solve_qep.calls"), "count"),
        "qep.solve_qep_s": (g("qep.solve_qep.s"), "s"),
        "atlas.sweep_s": (g("atlas.sweep2d.s"), "s"),
        "atlas.sweep_nodes": (g("atlas.sweep_nodes"), "count"),
        "atlas.us_per_node": (
            _ratio(g("atlas.sweep2d.s"), g("atlas.sweep_nodes"), 1e6), "us"),
        "atlas.classify_calls": (g("atlas.classify.calls"), "count"),
        "atlas.trace_s": (g("atlas.trace_boundary.s"), "s"),
        "atlas.trace_self_s": (g("atlas.trace_self_s"), "s"),
        "atlas.bisect_points": (g("atlas.bisect_points"), "count"),
        "atlas.probe_calls": (g("atlas.probe_calls"), "count"),
        "atlas.points_per_node": (
            _ratio(g("atlas.chart_points"), g("atlas.sweep_nodes")), "ratio"),
        "atlas.polylines": (g("atlas.polylines"), "count"),
        "atlas.ep_search_s": (g("atlas.find_exceptional_points.s"), "s"),
        "atlas.ep_found": (g("atlas.ep_found"), "count"),
        "atlas.ep_near_misses": (g("atlas.ep_near_misses"), "count"),
        "floquet.monodromy_calls": (g("floquet.monodromy.calls"), "count"),
        "floquet.monodromy_s": (g("floquet.monodromy.s"), "s"),
        "floquet.rk4_steps": (g("floquet.rk4_steps"), "count"),
        "floquet.steps_per_s": (
            _ratio(g("floquet.rk4_steps"), g("floquet.monodromy.s")), "1/s"),
        "perturbation.s": (g("perturbation.s"), "s"),
    }
