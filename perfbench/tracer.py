"""Span tracer that wraps ranklab's public functions from outside the package.

Every function a layer module lists in ``__all__`` is replaced, in every
package namespace that binds it, by a wrapper that records a span
``[name, start_ns, end_ns, parent]``.  So ``ranklab.cli.npc_certificate``,
``ranklab.certificates.descendant_heights`` and the ``charge`` bindings in
``sumsets`` and ``certificates`` are all traced, and calls between modules
nest correctly.  A recursive call of a function already on the span stack
gets no span of its own, so ``jsonable`` costs one span per report.

Spans stay in memory until :meth:`Tracer.collect` folds them into per-function
self times (a span's duration minus the durations of its direct children) and
exact counters.  Nothing inside ``src/ranklab`` is modified.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

# Layer name -> module whose ``__all__`` defines the layer's public functions.
LAYERS = {
    "construction": "ranklab.construction",
    "sumsets": "ranklab.sumsets",
    "certificates": "ranklab.certificates",
    "families": "ranklab.families",
    "specio": "ranklab.specio",
    "reporting": "ranklab.reporting",
    "cli": "ranklab.cli",
    "budget": "ranklab._budget",
}

# Functions whose self times are reported as one group.
GROUPS = {
    "sumsets.digit_dp": (
        "sumsets.sumset_membership",
        "sumsets.truncated_sumset",
        "sumsets.gap_count",
        "sumsets.coverage_checks",
        "sumsets.gamma_search",
    ),
    "certificates.matching": (
        "certificates.ergodic_matching",
        "certificates.pattern_measure",
        "certificates.pwm_witness",
    ),
}

# Exact counters collected besides per-function calls.
COUNTERS = (
    "construction.descendant_heights.values",
    "construction.stages_materialized",
    "certificates.mixing_decay.shifts",
    "budget.charges",
    "budget.units",
    "budget.refusals",
)


class Tracer:
    """Installs span-recording wrappers; :meth:`uninstall` restores them."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._active: dict[str, int] = {}
        self._specs: list[object] = []
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._patched: list[tuple[object, str, object]] = []

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        modules = [importlib.import_module("ranklab")]
        wrappers: dict[int, object] = {}
        for layer, modname in LAYERS.items():
            mod = importlib.import_module(modname)
            modules.append(mod)
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == modname:
                    wrappers[id(fn)] = self._wrap(f"{layer}.{attr}", fn)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    def _wrap(self, name: str, fn):
        spans, stack, active = self.spans, self._stack, self._active
        on_return = self._on_return(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if active.get(name):
                return fn(*args, **kwargs)
            idx = len(spans)
            span = [name, clock(), 0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            active[name] = 1
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if type(exc).__name__ == "BudgetExceeded" and name == "budget.charge":
                    self.counters["budget.refusals"] += 1
                raise
            finally:
                span[2] = clock()
                stack.pop()
                active[name] = 0
            if on_return is not None:
                on_return(args, kwargs, result)
            return result

        return traced

    def _on_return(self, name: str):
        counters = self.counters
        if name == "construction.descendant_heights":
            def hook(args, kwargs, result):
                counters["construction.descendant_heights.values"] += len(result)
        elif name == "certificates.mixing_decay":
            def hook(args, kwargs, result):
                counters["certificates.mixing_decay.shifts"] += len(
                    getattr(result, "entries", ())
                )
        elif name == "budget.charge":
            def hook(args, kwargs, result):
                counters["budget.charges"] += 1
                counters["budget.units"] += args[0] if args else kwargs["units"]
        elif name == "specio.load_spec":
            def hook(args, kwargs, result):
                self._specs.append(result)
        else:
            hook = None
        return hook

    # -- aggregation ---------------------------------------------------------

    def collect(self) -> dict[str, float]:
        """Fold and clear the spans recorded since the last call.

        Returns ``{name.self_ms, name.calls}`` for every traced function that
        ran, ``<layer>.self_ms`` per layer, the group sums, and the counters.
        The stage count is taken from each spec loaded since the last call:
        the number of stages its cache holds once the work is done.
        """
        if self._stack:
            raise RuntimeError("collect() called inside a traced call")
        self_ns: dict[str, int] = {}
        calls: dict[str, int] = {}
        child_ns = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        for idx, (name, start, end, _) in enumerate(self.spans):
            self_ns[name] = self_ns.get(name, 0) + (end - start - child_ns[idx])
            calls[name] = calls.get(name, 0) + 1
        self.counters["construction.stages_materialized"] += sum(
            len(getattr(spec, "_stages", ())) for spec in self._specs
        )
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.self_ms"] = 0.0
        for name, ns in self_ns.items():
            out[f"{name}.self_ms"] = ns / 1e6
            out[f"{name}.calls"] = calls[name]
            layer = name.split(".", 1)[0]
            out[f"{layer}.self_ms"] += ns / 1e6
        for group, members in GROUPS.items():
            out[f"{group}.self_ms"] = sum(out.get(f"{m}.self_ms", 0.0) for m in members)
        out.update(self.counters)
        self.spans.clear()
        self._specs.clear()
        for key in self.counters:
            self.counters[key] = 0
        return out


def merge(total: dict[str, float], part: dict[str, float]) -> None:
    """Add one collected block into a running per-pass total."""
    for key, value in part.items():
        total[key] = total.get(key, 0) + value
