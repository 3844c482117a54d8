"""Span tracing for the benchmark's traced run.

`Tracer.installed()` wraps each listed public function in every fdzeros
module namespace that holds it, so calls between fdzeros modules are seen
too, and restores the originals on exit.  Each call becomes a span
(name, start, end, parent) kept in memory.  The harness properties are traced
by swapping `harness.ALL_PROPERTIES` for copies whose generator and checker
are wrapped.  Nothing in fdzeros is edited.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import json
import sys
import time
from collections import Counter, defaultdict

import fdzeros
from fdzeros import NonConvergence, harness

LAYERS = {
    "poly": ("shift_arg", "linear_combine", "from_roots", "evaluate_many"),
    "rootfind": ("roots", "roots_many", "aberth_batch", "interlace",
                 "pencil_hyperbolic_sample"),
    "operators": ("apply_op", "analyze", "witness_search"),
    "debruijn": ("apply_tb", "simplicity_margin", "extremal_bounds"),
    "walsh": ("walsh_convolve", "tb_via_walsh"),
    "asymptotics": ("residual_sweep", "predict_roots"),
    "cli": ("main",),
}


def property_names() -> list[str]:
    return sorted(p.name for p in harness.ALL_PROPERTIES)


def metric_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for module, fns in LAYERS.items():
        for fn in fns:
            out += [(f"{module}.{fn}_s", "s"), (f"{module}.{fn}_self_s", "s"),
                    (f"{module}.{fn}_calls", "count")]
    out += [("rootfind.aberth_rows", "count"), ("rootfind.nonconvergence", "count")]
    out += [(f"harness.{name}_s", "s") for name in property_names()]
    out += [("trace.spans", "count"), ("trace.overhead_s", "s")]
    return out


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def wrap(self, name: str, fn, rows: bool = False):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if rows:
                counts["rootfind.aberth_rows"] += len(args[0])  # batch of rows
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append([name, time.perf_counter(), 0.0, parent])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                if rows and isinstance(exc, NonConvergence):
                    counts["rootfind.nonconvergence"] += 1
                raise
            finally:
                spans[idx][2] = time.perf_counter()
                stack.pop()

        return traced

    @contextlib.contextmanager
    def installed(self):
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "fdzeros" or k.startswith("fdzeros."))]
        patches = []  # (module, attribute, original)
        for module, fns in LAYERS.items():
            home = getattr(fdzeros, module)
            for fn in fns:
                original = getattr(home, fn)
                traced = self.wrap(f"{module}.{fn}", original,
                                   rows=(fn == "aberth_batch"))
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            patches.append((m, attr, original))
                            setattr(m, attr, traced)
        props = harness.ALL_PROPERTIES
        patches.append((harness, "ALL_PROPERTIES", props))
        harness.ALL_PROPERTIES = tuple(
            dataclasses.replace(
                p,
                generate=self.wrap(f"harness.{p.name}", p.generate),
                check=self.wrap(f"harness.{p.name}", p.check),
            )
            for p in props
        )
        try:
            yield self
        finally:
            for m, attr, original in reversed(patches):
                setattr(m, attr, original)

    def summary(self, scale: float) -> dict[str, float]:
        """Per-layer totals over the spans recorded since the last reset.

        `_s` sums the spans of a name that have no ancestor of the same name,
        `_self_s` subtracts the time covered by direct children.  Times are
        multiplied by `scale`.
        """
        child = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total, self_t, calls = Counter(), Counter(), Counter()
        names = [s[0] for s in self.spans]
        for i, (name, start, end, parent) in enumerate(self.spans):
            dur = end - start
            calls[name] += 1
            self_t[name] += dur - child[i]
            p = parent
            while p >= 0 and names[p] != name:
                p = self.spans[p][3]
            if p < 0:
                total[name] += dur
        out = {}
        for module, fns in LAYERS.items():
            for fn in fns:
                key = f"{module}.{fn}"
                out[f"{key}_s"] = total[key] * scale
                out[f"{key}_self_s"] = self_t[key] * scale
                out[f"{key}_calls"] = calls[key]
        out["rootfind.aberth_rows"] = self.counts["rootfind.aberth_rows"]
        out["rootfind.nonconvergence"] = self.counts["rootfind.nonconvergence"]
        for name in property_names():
            out[f"harness.{name}_s"] = total[f"harness.{name}"] * scale
        out["trace.spans"] = len(self.spans)
        return out

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": self.spans}, fh)
