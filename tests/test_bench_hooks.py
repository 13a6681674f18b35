"""The benchmark's per-layer tracer names functions of the package by
(module, function); a rename in the package must fail here rather than
leave the traced benchmark silently short of a layer."""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_traced_layers_resolve(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    assert tracing.LAYERS
    for module, function in tracing.LAYERS:
        target = getattr(importlib.import_module(f"bvwords.{module}"), function, None)
        assert callable(target), f"bvwords.{module}.{function}"
