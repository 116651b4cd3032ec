"""Serving-path benchmark: continuous batching vs sequential decode.

The ``repro serve`` engine coalesces concurrent walk requests of
different lengths into ONE KV-cached decode batch: per-step layernorms,
projections and MLPs run batched across every resident request, while
attention and the head GEMM stay per-request-group so each served walk
is byte-identical to standalone generation (see
:mod:`repro.serve.engine`).  A fleet of clients therefore shares the
fixed per-step cost that a sequential per-request loop pays over and
over — the win is largest exactly where a serving daemon lives: many
small requests in flight at once.

The smoke subset gates CI on that speedup — at least 1.5x walks/sec for
8+ concurrent mixed-length requests over draining the same requests one
at a time — and merge-updates request-latency percentiles and
throughput into ``.bench/BENCH_serve.json`` (see :func:`common.record`):

    pytest benchmarks/bench_serving.py -m smoke
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from common import record
from repro.models.walk_lm import TransformerWalkModel
from repro.serve import ContinuousBatcher, serve_walks

#: serving-shaped workload: many small concurrent requests, mixed lengths
NUM_NODES = 150
DIM = 32
NUM_HEADS = 4
NUM_LAYERS = 2
MAX_LENGTH = 48
TRIALS = 5

#: (n_walks, length, seed, temperature) per concurrent client.  16 thin
#: requests (1-2 walks each, lengths 44-48) — the regime where the
#: sequential loop is purely per-step-overhead-bound while the engine
#: runs one coalesced decode of ~max(length) steps.
REQUESTS = [(1 + (i % 2), 44 + (i % 5), 100 + i, [1.0, 0.9, 1.1][i % 3])
            for i in range(16)]


def _serving_model() -> TransformerWalkModel:
    return TransformerWalkModel(num_nodes=NUM_NODES, dim=DIM,
                                num_heads=NUM_HEADS, num_layers=NUM_LAYERS,
                                max_length=MAX_LENGTH,
                                rng=np.random.default_rng(17))


def _sequential(model: TransformerWalkModel):
    """Drain the request list one standalone decode at a time."""
    return [model.sample(n, length, np.random.default_rng(seed),
                         temperature=temp)
            for n, length, seed, temp in REQUESTS]


def _concurrent(model: TransformerWalkModel):
    """All requests in flight at once through one batching engine.

    Returns (elapsed seconds, walks per request, per-request latency
    seconds).  One dedicated thread steps the engine — the daemon's
    decode-loop shape, sleeping on the engine's wake event while idle —
    while a thread per client blocks on :func:`serve_walks`.
    """
    engine = ContinuousBatcher(model, max_walks=256)
    stop = threading.Event()

    def decode_loop() -> None:
        while True:
            engine.wake.clear()
            if engine.step():
                continue
            if stop.is_set() and engine.idle:
                return
            engine.wake.wait()

    decoder = threading.Thread(target=decode_loop, daemon=True)
    decoder.start()

    results: list = [None] * len(REQUESTS)
    latencies = [0.0] * len(REQUESTS)

    def client(i: int, n: int, length: int, seed: int, temp: float) -> None:
        start = time.perf_counter()
        results[i] = serve_walks(engine, n, length,
                                 np.random.default_rng(seed),
                                 temperature=temp)
        latencies[i] = time.perf_counter() - start

    threads = [threading.Thread(target=client, args=(i, *req))
               for i, req in enumerate(REQUESTS)]
    try:
        start = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        elapsed = time.perf_counter() - start
    finally:
        stop.set()
        engine.wake.set()
        decoder.join()
    return elapsed, results, latencies


@pytest.mark.smoke
def test_serving_smoke_continuous_batching_beats_sequential_decode():
    """Seconds-scale CI gate on the serving engine's reason to exist.

    16 concurrent mixed-length clients must clear >= 1.5x walks/sec over
    the same requests decoded sequentially, and every served walk must
    be byte-identical to its standalone twin — the engine is an
    execution strategy, not an approximation.  Trials are interleaved
    (sequential, then served, repeated) so host noise lands on both
    sides alike; the real margin at this shape is ~2x, so the 1.5x gate
    has headroom against CI noise.
    """
    model = _serving_model()
    total_walks = sum(n for n, _, _, _ in REQUESTS)

    _concurrent(model)  # warm BLAS, allocators, thread machinery
    _sequential(model)
    sequential_s = concurrent_s = float("inf")
    served, latencies = None, None
    for _ in range(TRIALS):
        start = time.perf_counter()
        expected = _sequential(model)
        sequential_s = min(sequential_s, time.perf_counter() - start)
        elapsed, walks, lat = _concurrent(model)
        if elapsed < concurrent_s:
            concurrent_s, served, latencies = elapsed, walks, lat

    for want, got in zip(expected, served):
        np.testing.assert_array_equal(got, want)

    seq_rate = total_walks / max(sequential_s, 1e-9)
    srv_rate = total_walks / max(concurrent_s, 1e-9)
    speedup = srv_rate / max(seq_rate, 1e-9)
    p50, p99 = np.percentile(latencies, [50, 99])
    print(f"\n\nServing smoke — {len(REQUESTS)} concurrent requests, "
          f"{total_walks} walks, lengths "
          f"{min(r[1] for r in REQUESTS)}-{max(r[1] for r in REQUESTS)}: "
          f"sequential {sequential_s:.3f}s ({seq_rate:.0f} walks/s) vs "
          f"served {concurrent_s:.3f}s ({srv_rate:.0f} walks/s, "
          f"{speedup:.2f}x); latency p50 {p50 * 1e3:.0f}ms "
          f"p99 {p99 * 1e3:.0f}ms")

    record("BENCH_serve.json", "serving_continuous_batching_smoke", {
        "num_nodes": NUM_NODES,
        "dim": DIM,
        "num_layers": NUM_LAYERS,
        "concurrent_requests": len(REQUESTS),
        "total_walks": total_walks,
        "sequential_seconds": round(sequential_s, 4),
        "served_seconds": round(concurrent_s, 4),
        "sequential_walks_per_s": round(seq_rate, 1),
        "served_walks_per_s": round(srv_rate, 1),
        "speedup": round(speedup, 2),
        "latency_p50_ms": round(p50 * 1e3, 1),
        "latency_p99_ms": round(p99 * 1e3, 1),
    })

    assert speedup >= 1.5, (
        f"continuous batching ({srv_rate:.0f} walks/s) must beat "
        f"sequential decode ({seq_rate:.0f} walks/s) by >= 1.5x, "
        f"got {speedup:.2f}x")
