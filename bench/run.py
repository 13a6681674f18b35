"""Seeded benchmark of the bvwords verifier and both V/BV decision routes.

    python3 bench/run.py --workload {verify,selftest,equal} --seed N \
        --seconds S --trace {0,1}

Run from anywhere; the package is imported from ``src/`` next to this
directory, in one process and one thread.  A query decides one relator
(see ``workloads.py``) and every verdict is checked against its known
answer; a wrong verdict, a step cap or an exception is printed with its
word, counted as failed, and makes the run exit 1.

``--trace 0`` measures for ``--seconds``: a first pass over every query,
then further passes in seeded orders until the time is up.  Every
quarter second, between queries, and at the end of each pass, a fixed
reference loop is timed; each query's time is divided by the host
slowdown around it (the mean of the reference samples just before and
just after it, over their nominal time), and a query's figure is its
fastest scaled time.  ``batch_s`` is the sum of those.  ``setup_s`` is
the median over fresh processes of the time to import the package and
generate the inputs, each scaled the same way.

``--trace 1`` makes one untraced and one traced pass instead and
reports the per-layer metrics of ``tracing.py``, the tracing overhead and
the ten slowest queries.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
SETUP_PROBES = 15
REF_INTERVAL_S = 0.25
# the reference loop's typical time on the host the bounds were set on
REF_NOMINAL_S = 0.015


def _import_inputs():
    """Import the package under test and the input generators."""
    if not (SRC / "bvwords" / "__init__.py").is_file():
        sys.exit(f"bench: no package source at {SRC / 'bvwords'}")
    sys.path[:0] = [str(SRC), str(BENCH)]
    import workloads

    return workloads


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("verify", "selftest", "equal"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def _setup_seconds(workload: str, seed: int) -> float:
    """Median time from a fresh process to package imported and inputs made.

    Each probe is scaled by the host slowdown sampled just before and
    just after it.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed), "--seconds", "1"]
    host = HostSpeed()
    times = []
    for _ in range(SETUP_PROBES):
        host.tick(force=True)
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - start
            child.stdout.read()
        if child.returncode != 0 or line.strip() != "ready":
            sys.exit(f"bench: set-up probe failed with exit code {child.returncode}")
        times.append(elapsed)
    host.tick(force=True)
    return statistics.median(t / host.around(k) for k, t in enumerate(times))


class Decider:
    """Runs one query through the program and checks its verdict."""

    def __init__(self, workload: str):
        import bvwords

        self.bv = bvwords
        self.hat_modes = {bvwords.BVMode.V: bvwords.GroupMode.VHAT,
                          bvwords.BVMode.BV: bvwords.GroupMode.BVHAT}
        self.decide = getattr(self, f"_{workload}")

    def __call__(self, q) -> tuple[object, str | None]:
        """(verdict, failure description or None)."""
        try:
            return self.decide(q)
        except Exception:  # every fault is a failed query, never a crash
            return None, "raised\n" + traceback.format_exc()

    def _verify(self, q):
        r = self.bv.presentations.verify(q.instance)
        verdict = (r.verdict, r.detail, r.steps)
        return verdict, None if r.verdict == q.expected else r.line()

    def _selftest(self, q):
        bv = self.bv
        (w,) = q.words
        by_lmr = bv.is_trivial_bv(w, q.mode, bv.Budget())
        by_hat = bv.is_trivial_hat(bv.expand_bv_generators(w), self.hat_modes[q.mode], bv.Budget())
        return (by_lmr, by_hat), None if by_lmr == by_hat else f"lmr={by_lmr} hat={by_hat}"

    def _equal(self, q):
        bv = self.bv
        w, w2 = q.words
        by_lmr = bv.equal_bv(w, w2, q.mode, bv.Budget())
        by_hat = bv.equal_hat(bv.expand_bv_generators(w), bv.expand_bv_generators(w2),
                              self.hat_modes[q.mode], bv.Budget())
        ok = by_lmr == by_hat == q.expected
        return (by_lmr, by_hat), None if ok else f"expected {q.expected}, lmr={by_lmr} hat={by_hat}"


def _format_query(q) -> str:
    return " -- ".join(" ".join(g.token() for g in w) for w in q.words)


class Gate:
    """Counts attempts and failures and prints each failing query once."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self._shown: set[str] = set()

    def record(self, q, failure: str | None) -> None:
        self.attempted += 1
        if failure is None:
            return
        self.failed += 1
        if q.label not in self._shown:
            self._shown.add(q.label)
            print(f"FAILED {q.label}: {failure}\n  word: {_format_query(q)}")


def _reference() -> int:
    """A fixed pure-Python loop: it times the host, never the program."""
    table: dict[tuple[int, int], int] = {}
    acc = 0
    for i in range(20_000):
        key = (i & 255, i & 7)
        table[key] = table.get(key, 0) + 1
        acc += len([i, i + 1, i + 2][1:]) + (i * 3) % 7
    return acc


class HostSpeed:
    """Samples the reference loop between queries to factor out host speed.

    On a shared host whole runs get 20-35% slower or faster at once, and
    within a run the speed switches between a fast and a slow state every
    few seconds.  The reference loop slows down with them, so a query's
    time divided by the reference time sampled right around it is steadier
    across runs than the time itself, or than the time divided by a
    median over a whole pass.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._due = 0.0

    def tick(self, force: bool = False) -> None:
        """Take a sample when one is due."""
        now = time.perf_counter()
        if force or now >= self._due:
            _reference()
            end = time.perf_counter()
            self.samples.append(end - now)
            self._due = end + REF_INTERVAL_S

    def slowdown(self) -> float:
        """Median reference time over the nominal."""
        return statistics.median(self.samples) / REF_NOMINAL_S

    def around(self, k: int) -> float:
        """Slowdown between sample ``k`` and the next one."""
        return (self.samples[k] + self.samples[k + 1]) / 2 / REF_NOMINAL_S


def _timed_pass(decide, queries, order, gate, host=None, deadline=None):
    """Decide queries in the given order.

    Returns {index: (seconds, verdict, k)}, where k is the index of the
    last host sample taken before the query (None without ``host``).
    """
    out = {}
    for i in order:
        if host is not None:
            host.tick()
        if deadline is not None and time.perf_counter() >= deadline:
            break
        q = queries[i]
        start = time.perf_counter()
        verdict, failure = decide(q)
        out[i] = (time.perf_counter() - start, verdict,
                  None if host is None else len(host.samples) - 1)
        gate.record(q, failure)
    return out


def _emit(gate: Gate, metrics: dict[str, tuple[float, str]], problems: list[str] = (),
          printed_only: frozenset[str] = frozenset()) -> int:
    width = max(map(len, metrics))
    for name, (value, unit) in metrics.items():
        print(f"{name:<{width}}  {value:>14.6g} {unit}")
    print(f"failed_share: {gate.failed}/{gate.attempted} = {gate.failed / gate.attempted:.6g}")
    correct = gate.failed == 0 and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()
                    if n not in printed_only},
    }))
    return 0 if correct else 1


def run_timed(args, workloads) -> int:
    setup_s = _setup_seconds(args.workload, args.seed)
    queries = workloads.GENERATORS[args.workload](args.seed)
    decide, gate = Decider(args.workload), Gate()
    rng = random.Random(args.seed)
    order = list(range(len(queries)))

    host = HostSpeed()
    best = [float("inf")] * len(queries)
    raw = [float("inf")] * len(queries)
    deadline = time.perf_counter() + args.seconds
    passes = 0
    while passes == 0 or time.perf_counter() < deadline:
        timed = _timed_pass(decide, queries, order, gate, host, deadline if passes else None)
        # the queries since the last sample need one after them
        host.tick(force=True)
        for i, (t, _, k) in timed.items():
            best[i] = min(best[i], t / host.around(k))
            raw[i] = min(raw[i], t)
        passes += 1
        rng.shuffle(order)

    print(f"workload {args.workload}: {len(queries)} queries, {passes} passes, seed {args.seed}, "
          f"host slowdown median {host.slowdown():.3f}, "
          f"unscaled batch {sum(raw):.3f} s p50 {statistics.median(raw) * 1e3:.4f} ms "
          f"p99 {statistics.quantiles(raw, n=100)[98] * 1e3:.3f} ms")
    metrics = {
        "setup_s": (setup_s, "s"),
        "batch_s": (sum(best), "s"),
        "query_p50_ms": (statistics.median(best) * 1e3, "ms"),
        "query_p99_ms": (statistics.quantiles(best, n=100)[98] * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return _emit(gate, metrics)


def _slowest_table(queries, plain, traced, count: int = 10) -> list[str]:
    import tracing

    lmr, hat = tracing.ROUTES
    rows = [f"slowest {count} queries (untraced ms; route ms and longest layer input from the traced pass):",
            f"  {'query':<34} {'letters':>7} {'ms':>10} {'lmr ms':>10} {'hat ms':>10} {'longest':>8}"]
    for i in sorted(plain, key=lambda i: plain[i][0], reverse=True)[:count]:
        q, stats = queries[i], traced[i][2]
        rows.append(f"  {q.label:<34} {sum(map(len, q.words)):>7} {plain[i][0] * 1e3:>10.1f} "
                    f"{stats.route_s[lmr] * 1e3:>10.1f} {stats.route_s[hat] * 1e3:>10.1f} "
                    f"{stats.max_len:>8}")
    return rows


def run_traced(args, workloads) -> int:
    import tracing

    queries = workloads.GENERATORS[args.workload](args.seed)
    decide, gate = Decider(args.workload), Gate()
    order = range(len(queries))

    start = time.perf_counter()
    plain = _timed_pass(decide, queries, order, gate)
    plain_s = time.perf_counter() - start

    tracer = tracing.Tracer()
    traced = {}
    with tracing.installed(tracer):
        start = time.perf_counter()
        for i in order:
            tracer.begin_query()
            q_start = time.perf_counter()
            verdict, failure = decide(queries[i])
            traced[i] = (time.perf_counter() - q_start, verdict, tracer.query)
            gate.record(queries[i], failure)
        traced_s = time.perf_counter() - start

    print(f"workload {args.workload}: {len(queries)} queries, seed {args.seed}, "
          f"untraced pass {plain_s:.3f} s, traced pass {traced_s:.3f} s")
    print("\n".join(_slowest_table(queries, plain, traced)))
    problems = [f"traced verdict differs from untraced on {queries[i].label}"
                for i in order if traced[i][1] != plain[i][1]]
    problems += [f"predicted nonzero but zero: {name}"
                 for name in tracing.coverage_gaps(tracer, args.workload)]
    for p in problems:
        print(f"FAILED {p}")
    metrics = tracing.metrics(tracer)
    metrics["trace.overhead_s"] = (traced_s - plain_s, "s")
    return _emit(gate, metrics, problems, tracing.PRINTED_ONLY)


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(argv)
    workloads = _import_inputs()
    if args.setup_probe:
        workloads.GENERATORS[args.workload](args.seed)
        print("ready", flush=True)
        return 0
    return (run_traced if args.trace else run_timed)(args, workloads)


if __name__ == "__main__":
    sys.exit(main())
