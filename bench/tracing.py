"""Per-layer spans around the public functions of ``bvwords``.

The tracer never edits the package.  ``installed`` replaces each traced
function's name in every ``bvwords`` module namespace that holds it (a
``from .x import y`` binds its own copy of the name, so patching only
the defining module would miss those callers), and replaces ``Budget``
the same way with a subclass whose ``spend`` tallies steps by
operation.  Everything is restored on exit.

For each layer the tracer keeps the call count, the total and the self
time (a span's time minus the time of the traced spans it caused), and
the longest input in letters.  Per query it keeps the time spent under
each of the two V/BV routes and the longest input seen by any layer.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from collections import Counter
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field

from bvwords.bv_lmr import Monosyllable

ALL = frozenset({"verify", "selftest", "equal"})

# (module, function) -> workloads on which the layer is predicted to be
# called at all.  The coverage check fails a traced run on which a layer
# stays silent where it is predicted to run: that is how a namespace the
# patching missed shows.  The braid shortcuts (exponent sum, permutation
# image) end nearly every ``selftest`` query before handle reduction, and
# on the ``verify`` relators equalizing the syllable heights already
# bounds L and R, so the final raising loop of ``to_third_form`` (and
# ``raise_m``) never runs there.
LAYERS: dict[tuple[str, str], frozenset[str]] = {
    ("words", "free_reduce"): ALL,
    ("words", "expand_bv_generators"): ALL,
    ("thompson_f", "normalize_monoid"): ALL,
    ("thompson_f", "f_fraction"): ALL,
    ("perms", "from_adjacent_transpositions"): ALL,
    ("braid", "handle_reduce"): frozenset({"verify", "equal"}),
    ("hatgroups", "canonicalize_hat"): ALL,
    ("hatgroups", "is_trivial_hat"): ALL,
    ("bv_lmr", "word_height"): ALL,
    ("bv_lmr", "to_first_form"): ALL,
    ("bv_lmr", "pi_action"): ALL,
    ("bv_lmr", "mono_raise"): ALL,
    ("bv_lmr", "raise_word_heights"): ALL,
    ("bv_lmr", "raise_m"): frozenset({"selftest", "equal"}),
    ("bv_lmr", "to_third_form"): ALL,
    ("bv_lmr", "m_to_sigma"): ALL,
    ("bv_lmr", "is_trivial_bv"): ALL,
}

# The two V/BV routes; their total time splits each query between them.
ROUTES = ("bv_lmr.is_trivial_bv", "hatgroups.is_trivial_hat")

# Budget operations -> workloads on which some step is predicted.
STEP_OPS: dict[str, frozenset[str]] = {
    "canonicalize_hat": ALL,
    "handle_reduce": frozenset({"verify", "equal"}),
    "to_first_form": ALL,
    "repair_heights": ALL,
    "equalize_heights": ALL,
    "to_third_form": frozenset({"selftest", "equal"}),
}

# Printed with the per-layer table but left out of the JSON metrics: a
# layer that never runs on a workload reads 0.0 s on every run of it.
PRINTED_ONLY = frozenset({"bv_lmr.raise_m.self_s"})


def _letters(arg: object) -> int:
    """Input size in letters; a monosyllable counts its own letters."""
    if isinstance(arg, Monosyllable):
        return len(arg.pre) + 1 + len(arg.post)
    if isinstance(arg, (list, tuple)) and arg and isinstance(arg[0], Monosyllable):
        return sum(_letters(s) for s in arg)
    return len(arg)


@dataclass
class LayerStats:
    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0
    max_len: int = 0


@dataclass
class QueryStats:
    route_s: dict[str, float] = field(default_factory=lambda: dict.fromkeys(ROUTES, 0.0))
    max_len: int = 0


class Tracer:
    def __init__(self) -> None:
        self.layers = {f"{m}.{f}": LayerStats() for m, f in LAYERS}
        self.steps: Counter[str] = Counter()
        self.query = QueryStats()
        self._child_s: list[float] = []

    def begin_query(self) -> None:
        self.query = QueryStats()

    def wrap(self, name: str, fn: Callable) -> Callable:
        stats = self.layers[name]
        route = name in ROUTES

        @functools.wraps(fn)
        def traced(first, *args, **kwargs):
            if isinstance(first, Iterator):
                # a generator argument: count its letters, consuming it
                # inside this layer's span as the call itself would
                start = time.perf_counter()
                first = tuple(first)
                consumed = time.perf_counter() - start
            else:
                consumed = 0.0
            size = _letters(first)
            self._child_s.append(0.0)
            start = time.perf_counter()
            try:
                return fn(first, *args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start + consumed
                child = self._child_s.pop()
                stats.calls += 1
                stats.total_s += elapsed
                stats.self_s += elapsed - child
                stats.max_len = max(stats.max_len, size)
                if self._child_s:
                    self._child_s[-1] += elapsed
                if route:
                    self.query.route_s[name] += elapsed
                self.query.max_len = max(self.query.max_len, size)

        return traced

    def budget_class(self, base: type) -> type:
        steps = self.steps

        class TallyBudget(base):
            """A budget that also counts its steps by operation."""

            def spend(self, operation: str, steps_: int = 1) -> None:
                steps[operation] += steps_
                super().spend(operation, steps_)

        return TallyBudget


@contextlib.contextmanager
def installed(tracer: Tracer) -> Iterator[None]:
    """Route every caller of the traced functions through the tracer."""
    modules = [m for name, m in list(sys.modules.items())
               if name == "bvwords" or name.startswith("bvwords.")]
    limits = importlib.import_module("bvwords.limits")
    replacements = {id(limits.Budget): tracer.budget_class(limits.Budget)}
    for mod_name, fn_name in LAYERS:
        original = getattr(importlib.import_module(f"bvwords.{mod_name}"), fn_name)
        replacements[id(original)] = tracer.wrap(f"{mod_name}.{fn_name}", original)
    swapped = []
    try:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in replacements:
                    swapped.append((module, attr, value))
                    setattr(module, attr, replacements[id(value)])
        yield
    finally:
        for module, attr, value in reversed(swapped):
            setattr(module, attr, value)


def metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Every per-layer metric, name -> (value, unit)."""
    out: dict[str, tuple[float, str]] = {}
    for name, s in tracer.layers.items():
        out[f"{name}.self_s"] = (s.self_s, "s")
        out[f"{name}.calls"] = (s.calls, "count")
        out[f"{name}.max_len"] = (s.max_len, "letters")
    for name in ROUTES:
        out[f"{name}.total_s"] = (tracer.layers[name].total_s, "s")
    for op in STEP_OPS:
        out[f"limits.steps.{op}"] = (tracer.steps[op], "count")
    return out


def coverage_gaps(tracer: Tracer, workload: str) -> list[str]:
    """Layers and budget operations predicted to run here that stayed at zero."""
    gaps = [f"{m}.{f}.calls" for (m, f), where in LAYERS.items()
            if workload in where and tracer.layers[f"{m}.{f}"].calls == 0]
    gaps += [f"limits.steps.{op}" for op, where in STEP_OPS.items()
             if workload in where and tracer.steps[op] == 0]
    return gaps
