"""The benchmark under ``bench/`` imports the package's public names and
drives its deciders; a trimmed or renamed name must fail here, in the
tier-1 suite, rather than only when the benchmark is next run."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name, monkeypatch):
    spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def bench(monkeypatch):
    return _load("workloads", monkeypatch), _load("run", monkeypatch)


@pytest.mark.parametrize("workload", ["verify", "selftest", "equal"])
def test_workload_builds_and_decides(bench, workload):
    workloads, run = bench
    queries = workloads.GENERATORS[workload](1)
    assert queries
    decide = run.Decider(workload)
    # the three shortest queries of each group, mode and expected verdict:
    # fast, and they still reach every decider the workload calls
    kinds: dict[tuple, list] = {}
    for q in sorted(queries, key=lambda q: sum(map(len, q.words))):
        kind = (q.instance.group if q.instance else None, q.mode, q.expected)
        kinds.setdefault(kind, []).append(q)
    for q in [q for short in kinds.values() for q in short[:3]]:
        verdict, failure = decide(q)
        assert failure is None, f"{q.label}: {failure}"
        assert verdict is not None


def test_equal_sample_confirmed(bench, capsys):
    workloads, _ = bench
    assert workloads._check_equal_sample(1, 6) == 0
    assert "6/6 confirmed" in capsys.readouterr().out
