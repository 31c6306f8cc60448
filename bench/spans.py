"""Spans around calls into the program's layers, recorded from outside.

The tracer replaces each traced function with a wrapper in every
``plumbweave`` module that binds it, so calls between modules are seen
too (``invariants`` imports ``smith_normal_form`` by name, ``moves``
imports ``fiber_form`` and ``dehn_twist``).  A search makes millions of
twist calls, so a span is folded into its function's totals when it ends
instead of being stored: calls, self time (its duration minus the time of
the spans it encloses) and, for a few functions, a size of the work.
The totals stay in memory and are read when the run ends.
"""

from __future__ import annotations

import sys
from time import perf_counter

# layer (module) -> traced public functions
LAYERS = {
    "treecore": ("parse_tree", "order_tree", "quotient"),
    "fibration": (
        "fibrate", "matching_cycles", "fiber_form", "to_json", "from_json", "render_svg",
    ),
    "lattice": ("pattern_form", "dehn_twist", "smith_normal_form"),
    "invariants": ("total_homology",),
    "moves": ("hurwitz_a", "hurwitz_b", "cyclic_permute", "search_equivalence"),
}


def _cells(args, out) -> int:
    mat = args[0]
    return len(mat) * (len(mat[0]) if len(mat) else 0)


def _bytes(args, out) -> int:
    return len(out.encode("utf-8"))


# extra per-call stat: (name, unit, measure(args, result))
EXTRAS = {
    "lattice.smith_normal_form": ("cells", "cells/op", _cells),
    "fibration.to_json": ("bytes", "B/op", _bytes),
    "fibration.render_svg": ("bytes", "B/op", _bytes),
}


def metric_specs() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for mod, names in LAYERS.items():
        for fn in names:
            key = f"{mod}.{fn}"
            out.append((f"{key}.calls", "count/op"))
            out.append((f"{key}.self_s", "s/op"))
            if key in EXTRAS:
                stat, unit, _ = EXTRAS[key]
                out.append((f"{key}.{stat}", unit))
    out.append(("trace.overhead_s", "s/op"))
    return out


class Tracer:
    """Wraps the functions in ``LAYERS``; records only while ``active``."""

    def __init__(self):
        self.active = False
        self.stats: dict[str, list] = {}  # key -> [calls, self seconds, extra]
        self._stack: list[float] = []  # child time of each open span
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "plumbweave"]
        for mod, names in LAYERS.items():
            home = sys.modules[f"plumbweave.{mod}"]
            for fn in names:
                key = f"{mod}.{fn}"
                orig = getattr(home, fn)
                self.stats[key] = [0, 0.0, 0]
                wrapper = self._wrap(key, orig)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            setattr(m, attr, wrapper)
                            self._patched.append((m, attr, orig))

    def uninstall(self) -> None:
        for m, attr, orig in reversed(self._patched):
            setattr(m, attr, orig)
        self._patched.clear()

    def _wrap(self, key: str, fn):
        stack = self._stack
        stat = self.stats[key]
        extra = EXTRAS.get(key, (None, None, None))[2]
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack.append(0.0)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stat[0] += 1
                stat[1] += dt - stack.pop()
                if stack:
                    stack[-1] += dt
            if extra is not None:
                stat[2] += extra(args, out)
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def metrics(self, ops: int) -> dict[str, float]:
        """Per-operation totals over ``ops`` traced operations."""
        out = {}
        for key, (calls, self_s, extra) in self.stats.items():
            out[f"{key}.calls"] = calls / ops
            out[f"{key}.self_s"] = self_s / ops
            if key in EXTRAS:
                out[f"{key}.{EXTRAS[key][0]}"] = extra / ops
        return out
