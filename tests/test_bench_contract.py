"""The benchmark under ``bench/`` imports the package's public names and
drives its deciders; a trimmed or renamed name must fail here, in the
tier-1 suite, rather than only when the benchmark is next run."""

from __future__ import annotations

import hashlib
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


# sha256 of every verify and equal query for seeds 1..10: the inputs
# follow the order of ``presentations.FAMILIES`` (the seeded shuffle) and
# of ``bv_lmr.RELATION_FAMILIES`` (the relator draw), so reordering either
# table changes the benchmark's inputs and fails here
BENCH_INPUTS_SHA256 = "1276f6992ed903949f779a86324a1ef4c76d824e6ace13c6c6b30d70c70c4ed6"


def bench_inputs_digest(workloads) -> str:
    digest = hashlib.sha256()
    for seed in range(1, 11):
        for queries in (workloads.verify_queries, workloads.equal_queries):
            for q in queries(seed):
                words = " / ".join(" ".join(g.token() for g in w) for w in q.words)
                digest.update(f"{q.label}|{words}|{q.expected}\n".encode())
    return digest.hexdigest()


def test_bench_inputs_are_pinned(bench):
    workloads, _ = bench
    assert bench_inputs_digest(workloads) == BENCH_INPUTS_SHA256
