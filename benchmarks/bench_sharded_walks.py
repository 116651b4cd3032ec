"""Sharded-walk benchmark: out-of-core walks with bounded resident memory.

PR 1's :class:`~repro.graph.WalkEngine` keeps the whole CSR resident —
O(edges) memory — which caps honest Figure 8 scaling at ~10^5 nodes.
The sharded store streams a million-edge synthetic graph to disk with
bounded ingest memory, then drives the same lock-step walk kernels
shard-by-shard with an LRU of resident shard mmaps.  The smoke subset
gates CI on the memory model actually holding:

* **RSS gate (hard):** the walk phase's incremental peak RSS
  (``ru_maxrss`` delta across the sharded walks) stays *below the
  in-memory CSR footprint* of the same graph — i.e. walking out-of-core
  must cost less residency than just loading the graph would;
* **throughput gate:** sharded walks finish within 3x of the in-memory
  engine on the identical workload;
* **byte-identity gate:** the one :class:`~repro.graph.WalkEngine`
  walks a sharded graph exactly as it walks the in-memory twin (same
  generator state, same bytes), for a one-shard and a multi-shard
  layout and for uniform as well as biased walks.

Biased (``p=0.25``, ``q=4``) out-of-core walks are timed and recorded
next to the uniform ones, without a wall-clock gate.

Results merge-update ``.bench/BENCH_walks.json`` (see
:func:`common.record`):

    pytest benchmarks/bench_sharded_walks.py -m smoke
"""

from __future__ import annotations

import resource
import sys
import time

import numpy as np
import pytest

from common import record
from repro.graph import (WalkEngine, ingest_edge_stream, ingest_graph,
                         ring_of_chords, synthetic_edge_stream)

#: ~1M undirected edges: a 150k-node ring plus 900k random chords
NUM_NODES = 150_000
NUM_CHORDS = 900_000
STREAM_SEED = 23

NUM_SHARDS = 12
MAX_RESIDENT = 3

NUM_WALKS = 20_000
WALK_LENGTH = 16

#: biased out-of-core record: fewer walks, the smoke's bias extreme
BIASED_WALKS = 2_000
BIASED_P, BIASED_Q = 0.25, 4.0


def _maxrss_bytes() -> int:
    """Process high-water RSS in bytes (ru_maxrss is KiB on Linux)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak * (1 if sys.platform == "darwin" else 1024)


@pytest.mark.smoke
def test_sharded_walks_smoke_memory_and_throughput(tmp_path):
    """Million-edge walks out-of-core: bounded RSS, competitive speed."""
    # Streaming ingest: bounded peak memory, never the full edge set.
    sharded = ingest_edge_stream(
        synthetic_edge_stream(NUM_NODES, NUM_CHORDS, STREAM_SEED),
        NUM_NODES, tmp_path / "shards", num_shards=NUM_SHARDS)
    sharded.max_resident = MAX_RESIDENT
    assert sharded.num_edges >= 1_000_000
    # In-memory CSR footprint of this graph (indptr + indices + degrees,
    # the arrays WalkEngine keeps resident) — the RSS gate's yardstick.
    csr_bytes = (2 * sharded.num_edges + 2 * (sharded.num_nodes + 1)) * 8

    engine = sharded.walk_engine()
    rng = np.random.default_rng(7)
    starts = engine.sample_starts(NUM_WALKS, rng)

    # --- sharded walk phase, RSS-metered --------------------------------
    rss_before = _maxrss_bytes()
    t0 = time.perf_counter()
    sharded_walks = engine.walks(NUM_WALKS, WALK_LENGTH,
                                 np.random.default_rng(7))
    sharded_seconds = time.perf_counter() - t0
    rss_delta = _maxrss_bytes() - rss_before

    # HARD GATE: walking out-of-core must stay below the cost of simply
    # holding the CSR in memory, or the sharded path has no point.
    assert rss_delta < csr_bytes, (
        f"sharded walk phase grew RSS by {rss_delta / 1e6:.1f} MB, not "
        f"below the {csr_bytes / 1e6:.1f} MB in-memory CSR footprint")
    assert len(sharded.resident_shards()) <= MAX_RESIDENT

    # --- in-memory comparison engine (built only AFTER metering) -------
    graph = sharded.to_graph()
    inmem = WalkEngine(graph)
    t0 = time.perf_counter()
    inmem_walks = inmem.walks(NUM_WALKS, WALK_LENGTH,
                              np.random.default_rng(7))
    inmem_seconds = time.perf_counter() - t0
    # One engine, one RNG stream: byte-identical under any shard count.
    assert np.array_equal(sharded_walks, inmem_walks)

    ratio = sharded_seconds / max(inmem_seconds, 1e-9)
    assert ratio <= 3.0, (
        f"sharded walks {sharded_seconds:.2f}s vs in-memory "
        f"{inmem_seconds:.2f}s ({ratio:.2f}x > 3x budget)")

    walks_per_sec = NUM_WALKS / max(sharded_seconds, 1e-9)
    record("BENCH_walks.json", "sharded_walks_smoke", {
        "num_nodes": NUM_NODES,
        "num_edges": int(sharded.num_edges),
        "num_shards": NUM_SHARDS,
        "max_resident": MAX_RESIDENT,
        "num_walks": NUM_WALKS,
        "walk_length": WALK_LENGTH,
        "sharded_seconds": round(sharded_seconds, 4),
        "inmem_seconds": round(inmem_seconds, 4),
        "slowdown_x": round(ratio, 3),
        "sharded_walks_per_sec": round(walks_per_sec, 1),
        "walk_rss_delta_mb": round(rss_delta / 1e6, 2),
        "csr_footprint_mb": round(csr_bytes / 1e6, 2),
        "shard_loads": int(sharded.shard_loads),
    })

    # --- biased walks: recorded, not gated on wall clock ----------------
    loads_before = sharded.shard_loads
    t0 = time.perf_counter()
    sharded_biased = engine.walks(BIASED_WALKS, WALK_LENGTH,
                                  np.random.default_rng(11),
                                  p=BIASED_P, q=BIASED_Q)
    biased_seconds = time.perf_counter() - t0
    biased_loads = sharded.shard_loads - loads_before
    t0 = time.perf_counter()
    inmem_biased = inmem.walks(BIASED_WALKS, WALK_LENGTH,
                               np.random.default_rng(11),
                               p=BIASED_P, q=BIASED_Q)
    inmem_biased_seconds = time.perf_counter() - t0
    assert np.array_equal(sharded_biased, inmem_biased)
    record("BENCH_walks.json", "sharded_biased_walks_smoke", {
        "num_nodes": NUM_NODES,
        "num_edges": int(sharded.num_edges),
        "num_shards": NUM_SHARDS,
        "max_resident": MAX_RESIDENT,
        "num_walks": BIASED_WALKS,
        "walk_length": WALK_LENGTH,
        "p": BIASED_P,
        "q": BIASED_Q,
        "sharded_seconds": round(biased_seconds, 4),
        "inmem_seconds": round(inmem_biased_seconds, 4),
        "shard_loads": int(biased_loads),
    })


@pytest.mark.smoke
@pytest.mark.parametrize("num_shards", [1, 6])
def test_sharded_walks_smoke_byte_identity(tmp_path, num_shards):
    """Any shard layout walks exactly like the in-memory graph."""
    graph = ring_of_chords(3_000, 6_000, seed=11)
    sharded = ingest_graph(graph, tmp_path / "s", num_shards=num_shards)
    sharded.max_resident = 2
    inmem, out_of_core = WalkEngine(graph), sharded.walk_engine()
    for p, q in [(1.0, 1.0), (0.25, 4.0)]:
        expected = inmem.walks(512, 12, np.random.default_rng(3), p=p, q=q)
        actual = out_of_core.walks(512, 12, np.random.default_rng(3),
                                   p=p, q=q)
        assert np.array_equal(expected, actual), (
            f"{num_shards}-shard walks diverged from WalkEngine at "
            f"p={p} q={q}")
