"""NN-generation decode benchmarks: KV-cached decode.

A seconds-scale smoke gate covers the hot NN-generation path:
``test_decode_smoke_incremental_beats_full_recompute`` times the
KV-cached incremental decoder (one O(T) step per token) against the old
full-prefix recompute (O(T^2) per token).

Results merge-update per-benchmark entries in ``BENCH_decode.json`` at
the repo root (same map format as ``BENCH_train.json`` /
``BENCH_serve.json``), so the decode-performance trajectory is tracked
commit over commit without one benchmark clobbering another:

    pytest benchmarks/bench_walklm_decode.py -m smoke
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np
import pytest

from repro.models.walk_lm import TransformerWalkModel

#: the smoke gate requires the win to show at this length (>= 32)
LENGTH = 48
NUM_WALKS = 64
NUM_NODES = 300

BENCH_JSON = Path(__file__).resolve().parents[1] / "BENCH_decode.json"


def _smoke_model() -> TransformerWalkModel:
    model = TransformerWalkModel(NUM_NODES, dim=32, num_heads=4,
                                 num_layers=2, max_length=LENGTH,
                                 rng=np.random.default_rng(11))
    model.eval()
    return model


def _time(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _record(name: str, payload: dict) -> None:
    """Merge-update one benchmark's entry in ``BENCH_decode.json``."""
    existing: dict = {}
    if BENCH_JSON.exists():
        existing = json.loads(BENCH_JSON.read_text())
        if "benchmark" in existing:  # legacy flat layout
            legacy = dict(existing)
            existing = {legacy.pop("benchmark"): legacy}
    existing[name] = payload
    BENCH_JSON.write_text(json.dumps(existing, indent=2, sort_keys=True)
                          + "\n")


@pytest.mark.smoke
def test_decode_smoke_incremental_beats_full_recompute():
    """Seconds-scale CI gate on the hot NN-generation path.

    The real margin is an order of magnitude (~20x at this shape); the
    2x assertion keeps the gate robust to CI noise.  Both paths consume
    the RNG identically, so the walks double as a parity check.
    """
    model = _smoke_model()
    # Warm caches (BLAS init, causal-mask memo) outside the timings.
    model.sample(8, 8, np.random.default_rng(0))
    model.sample_reference(8, 8, np.random.default_rng(0))

    incremental = _time(lambda: model.sample(
        NUM_WALKS, LENGTH, np.random.default_rng(1)))
    full = _time(lambda: model.sample_reference(
        NUM_WALKS, LENGTH, np.random.default_rng(1)))

    walks_fast = model.sample(NUM_WALKS, LENGTH, np.random.default_rng(2))
    walks_slow = model.sample_reference(NUM_WALKS, LENGTH,
                                        np.random.default_rng(2))
    assert np.array_equal(walks_fast, walks_slow)

    speedup = full / max(incremental, 1e-9)
    print(f"\n\nDecode smoke — {NUM_WALKS} walks x length {LENGTH} "
          f"(n={NUM_NODES}): incremental {incremental:.3f}s vs "
          f"full recompute {full:.3f}s ({speedup:.1f}x)")

    _record("walklm_decode_smoke", {
        "num_walks": NUM_WALKS,
        "length": LENGTH,
        "num_nodes": NUM_NODES,
        "incremental_seconds": round(incremental, 4),
        "full_recompute_seconds": round(full, 4),
        "speedup": round(speedup, 2),
    })

    assert incremental * 2 < full, (
        f"incremental decode ({incremental:.3f}s) must beat full-prefix "
        f"recompute ({full:.3f}s) at length >= 32")


def test_decode_scaling_with_length(benchmark):
    """Incremental decode cost grows near-linearly in walk length."""
    model = _smoke_model()

    def sweep():
        return {length: _time(lambda: model.sample(
                    32, length, np.random.default_rng(3)))
                for length in (12, 24, 48)}

    times = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print("\n\nIncremental decode — walk-length sweep")
    for length, seconds in times.items():
        print(f"  length={length:3d}  {seconds:.3f}s")
    # Quadrupling the length must cost far less than the O(T^3) of the
    # old path (64x); allow generous slack above linear for overheads.
    assert times[48] < times[12] * 16
