"""Observability overhead smoke: instrumentation must be ~free when off.

Every hot path in the repo now carries ``trace.span(...)`` call sites
and registry-backed counters.  Both are built to cost nothing when
telemetry is off — ``span`` returns a shared no-op singleton after one
module-global read, and no metric object is touched on the walk path.
This benchmark holds that to a hard gate, and checks the other side of
the bargain: when tracing *is* enabled, the output is a well-formed
Chrome trace_event file and the numeric results are byte-identical.

Gates (run on every CI pass):

* disabled-instrumentation walk throughput within 3% of a baseline
  whose span call sites are monkeypatched to a bare no-op callable
  (interleaved best-of-N so machine noise hits both sides equally);
* a disabled ``span()`` call stays under 5 microseconds;
* with tracing enabled the trace file parses, contains balanced B/E
  span events, and the walk matrix equals the untraced run exactly.

Results merge-update ``.bench/BENCH_obs.json`` (see
:func:`common.record`):

    pytest benchmarks/bench_observability.py -m smoke
"""

from __future__ import annotations

import json
import time
from types import SimpleNamespace

import numpy as np
import pytest

from common import record
from repro.graph import ring_of_chords
from repro.graph.walk_engine import WalkEngine
from repro.graph import walk_engine as walk_engine_mod
from repro.obs import trace
from repro.obs.trace import NULL_SPAN

NUM_NODES = 20_000
NUM_CHORDS = 60_000
NUM_CALLS = 150         # walk batches per timing pass
WALKS_PER_CALL = 512
WALK_LENGTH = 12
ROUNDS = 5              # interleaved best-of-N

OVERHEAD_BUDGET = 1.03  # disabled path within 3% of the no-op baseline
SPAN_NS_BUDGET = 5_000  # one disabled span() call, nanoseconds


def _engine() -> WalkEngine:
    return WalkEngine(ring_of_chords(NUM_NODES, NUM_CHORDS, seed=5))


def _walk_pass(engine: WalkEngine) -> float:
    """Seconds for NUM_CALLS traced walk batches (spans hit per call)."""
    rng = np.random.default_rng(11)
    t0 = time.perf_counter()
    for _ in range(NUM_CALLS):
        starts = engine.sample_starts(WALKS_PER_CALL, rng)
        engine.uniform_walks(starts, WALK_LENGTH, rng)
    return time.perf_counter() - t0


@pytest.mark.smoke
def test_observability_smoke_disabled_overhead(monkeypatch):
    """Spans compiled in but disabled must not tax the walk path."""
    assert not trace.enabled()
    engine = _engine()
    _walk_pass(engine)  # warm caches/allocators before timing

    # Baseline: the very same code path with every span call site
    # resolved to a bare no-op callable — as close to "uninstrumented"
    # as exists without maintaining a stripped copy of the engine.
    noop_trace = SimpleNamespace(span=lambda *a, **kw: NULL_SPAN,
                                 instant=lambda *a, **kw: None)

    instrumented, baseline = [], []
    for _ in range(ROUNDS):
        monkeypatch.setattr(walk_engine_mod, "trace", noop_trace)
        baseline.append(_walk_pass(engine))
        monkeypatch.setattr(walk_engine_mod, "trace", trace)
        instrumented.append(_walk_pass(engine))
    best_instrumented = min(instrumented)
    best_baseline = min(baseline)

    # Two noise-robust views of the same question: the ratio of the
    # global best passes, and the best same-round pairing (immune to
    # load drift across the run).  A genuinely expensive disabled path
    # fails both; scheduler noise on a busy box fails at most one.
    ratio = min(best_instrumented / max(best_baseline, 1e-9),
                min(i / max(b, 1e-9)
                    for i, b in zip(instrumented, baseline)))
    assert ratio <= OVERHEAD_BUDGET, (
        f"disabled instrumentation costs {(ratio - 1) * 100:.2f}% "
        f"({best_instrumented:.4f}s vs {best_baseline:.4f}s baseline), "
        f"over the {(OVERHEAD_BUDGET - 1) * 100:.0f}% budget")

    # Micro: one disabled span() call, amortised over a tight loop.
    n = 200_000
    t0 = time.perf_counter_ns()
    for _ in range(n):
        trace.span("micro.noop", a=1)
    span_ns = (time.perf_counter_ns() - t0) / n
    assert span_ns < SPAN_NS_BUDGET, (
        f"disabled span() costs {span_ns:.0f}ns > {SPAN_NS_BUDGET}ns")

    record("BENCH_obs.json", "disabled_overhead_smoke", {
        "num_nodes": NUM_NODES,
        "walk_calls": NUM_CALLS,
        "walks_per_call": WALKS_PER_CALL,
        "walk_length": WALK_LENGTH,
        "rounds": ROUNDS,
        "instrumented_seconds": round(best_instrumented, 4),
        "baseline_seconds": round(best_baseline, 4),
        "overhead_pct": round((ratio - 1) * 100, 3),
        "disabled_span_ns": round(span_ns, 1),
    })


@pytest.mark.smoke
def test_observability_smoke_enabled_trace_is_valid(tmp_path):
    """Tracing on: parseable Perfetto file, byte-identical results."""
    engine = _engine()
    rng_args = dict(length=WALK_LENGTH, p=0.5, q=2.0)
    starts = engine.sample_starts(512, np.random.default_rng(3))

    untraced = engine.node2vec_walks(starts, rng=np.random.default_rng(9),
                                     **rng_args)

    path = tmp_path / "walks.trace.json"
    trace.enable(path)
    try:
        traced = engine.node2vec_walks(starts,
                                       rng=np.random.default_rng(9),
                                       **rng_args)
        with trace.span("bench.marker", check=True):
            pass
    finally:
        trace.disable()

    # Instrumentation must never touch the RNG stream.
    assert np.array_equal(untraced, traced)

    events = trace.load_trace(path)
    assert events, "enabled tracing produced an empty file"
    begins = [e for e in events if e.get("ph") == "B"]
    ends = [e for e in events if e.get("ph") == "E"]
    assert begins and len(begins) == len(ends)
    names = {e["name"] for e in begins}
    assert "walks.biased" in names
    assert "bench.marker" in names
    for event in begins + ends:
        assert {"name", "ph", "ts", "pid", "tid"} <= set(event)
    # The whole file is strict JSON too (close() seals the array).
    assert isinstance(json.loads(path.read_text()), list)

    summary = {row["name"]: row for row in trace.summarize_trace([path])}
    record("BENCH_obs.json", "enabled_trace_smoke", {
        "events": len(events),
        "span_names": sorted(names),
        "biased_walk_ms": round(
            summary["walks.biased"]["total_us"] / 1000.0, 3),
        "byte_identical": True,
    })
