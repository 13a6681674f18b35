"""The benchmark's per-layer tracer names functions of the package by
(module, function); a rename in the package, or a refactor that routes
the work around a traced name, must fail here rather than leave the
traced benchmark silently short of a layer."""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACING = BENCH / "tracing.py"


def _load(name, monkeypatch):
    spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def test_traced_layers_resolve(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    assert tracing.LAYERS
    for module, function in tracing.LAYERS:
        target = getattr(importlib.import_module(f"bvwords.{module}"), function, None)
        assert callable(target), f"bvwords.{module}.{function}"


def test_traced_queries_reach_every_predicted_layer(monkeypatch):
    # the coverage check of ``bench/run.py --trace 1``, on the first queries
    # of each gated workload: enough to reach every predicted layer and
    # budget operation at seed 1
    tracing, workloads, run = (_load(name, monkeypatch) for name in ("tracing", "workloads", "run"))
    for workload, count in (("verify", 150), ("selftest", 400)):
        decide, tracer = run.Decider(workload), tracing.Tracer()
        with tracing.installed(tracer):
            for q in workloads.GENERATORS[workload](1)[:count]:
                tracer.begin_query()
                _, failure = decide(q)
                assert failure is None, f"{q.label}: {failure}"
        assert tracing.coverage_gaps(tracer, workload) == []
