"""Span recording around the package's public functions, from outside.

`Tracer.install()` replaces every module-level binding of each traced
function in the loaded higgsmult modules (so `multgl.expand` is wrapped
as well as `polyalg.expand`) with a wrapper that records a span: name,
start, end, parent span and request id.  Self time is a span's duration
minus the time its child spans cover.  Spans stay in memory until
`write()`.  Arithmetic dunders such as IntPoly.__mul__ are deliberately
left alone: their per-call cost would swamp the numbers.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from time import perf_counter

# layer -> public functions wrapped in that layer's module
TRACED = {
    "polyalg": ("expand", "series_expand", "divides"),
    "chain": (
        "chain_from_m",
        "chain_from_json",
        "is_stable",
        "is_very_stable",
        "tplus_dims",
        "gl_hitchin_base_dims",
    ),
    "hecke": (
        "hecke_remove_zero",
        "hecke_add_zero",
        "apply_move",
        "intersection_count",
        "intersection_enumerate",
    ),
    "multgl": (
        "mult_type_n",
        "mult_type111",
        "mult_type12_rank3",
        "master_divisibility",
        "euler_pairing_series",
    ),
    "rootsys": ("build", "degrees", "levi_degrees", "cominuscule_nodes", "weyl_orbit_minuscule"),
    "multsimple": ("mult_simple", "mult_cominuscule", "gross_check", "polynomiality_scan"),
    "cli": ("run",),
}
LAYERS = tuple(TRACED)


def _numerator_degree(f) -> int:
    return sum(k * e for k, e in f.factors if e > 0)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (id, parent, request, name, start, end)
        self.request = -1
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []  # [span id, layer, child time]
        self._active: dict[str, int] = defaultdict(int)
        self._saved: list[tuple] = []

    # ------------------------------------------------------------ wrapping

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name.startswith("higgsmult")]
        for layer, names in TRACED.items():
            home = sys.modules[f"higgsmult.{layer}"]
            for name in names:
                original = getattr(home, name)
                wrapper = self._wrap(layer, f"{layer}.{name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._saved.append((module, attr, original))
                            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, layer: str, name: str, fn):
        stack, active, spans = self._stack, self._active, self.spans
        hook = getattr(self, "_after_" + name.replace(".", "_"), None)

        def wrapper(*args, **kwargs):
            if name == "polyalg.expand" and active["multgl"]:
                self.counters["multgl.expand_under"] += 1
            if layer == "multgl" and not active["multgl"]:
                self.counters["multgl.top_calls"] += 1
            parent = stack[-1][0] if stack else None
            sid = len(spans)
            spans.append(None)
            frame = [sid, layer, 0.0]
            stack.append(frame)
            active[layer] += 1
            result = error = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                end = perf_counter()
                stack.pop()
                active[layer] -= 1
                duration = end - start
                if stack:
                    stack[-1][2] += duration
                spans[sid] = (sid, parent, self.request, name, start, end)
                self.calls[name] += 1
                self.calls[layer] += 1
                self_time = duration - frame[2]
                self.self_s[name] += self_time
                self.self_s[layer] += self_time
                if hook is not None:
                    hook(args, result, error)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # --------------------------------------------------------------- counts

    def _after_polyalg_expand(self, args, result, error):
        c = self.counters
        c["polyalg.expand.max_degree"] = max(c["polyalg.expand.max_degree"], _numerator_degree(args[0]))
        if type(result).__name__ == "NotPolynomial":
            c["polyalg.expand.not_polynomial"] += 1

    def _after_hecke_hecke_add_zero(self, args, result, error):
        self.counters["hecke.add.attempts"] += 1
        if error is None:
            self.counters["hecke.add.successes"] += 1

    def _after_hecke_intersection_enumerate(self, args, result, error):
        if result is not None:
            self.counters["hecke.enumerate.points"] += len(result)

    def _after_rootsys_build(self, args, result, error):
        if result is not None:
            self.counters["rootsys.build.roots"] += len(result.positive_roots)

    def _after_rootsys_weyl_orbit_minuscule(self, args, result, error):
        if result is not None:
            self.counters["rootsys.weyl_orbit_minuscule.orbit_size"] += len(result)

    def _after_multsimple_polynomiality_scan(self, args, result, error):
        if result is not None:
            self.counters["multsimple.scan.points"] += len(result.entries)
            self.counters["multsimple.scan.polynomial"] += result.polynomial_count

    def count(self, name: str, amount: float) -> None:
        self.counters[name] += amount

    # --------------------------------------------------------------- output

    def write(self, path: str) -> None:
        """Write the spans as JSON lines, times relative to the first span."""
        origin = min((s[4] for s in self.spans if s), default=0.0)
        with open(path, "w") as fh:
            for sid, parent, request, name, start, end in filter(None, self.spans):
                fh.write(json.dumps({
                    "id": sid,
                    "parent": parent,
                    "request": request,
                    "name": name,
                    "start_us": round((start - origin) * 1e6, 3),
                    "end_us": round((end - origin) * 1e6, 3),
                }) + "\n")
