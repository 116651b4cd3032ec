"""NN-generation decode benchmarks: KV-cached decode and fused kernels.

Two seconds-scale smoke gates cover the hot NN-generation path:

* ``test_decode_smoke_incremental_beats_full_recompute`` — the KV-cached
  incremental decoder (one O(T) step per token) against the old
  full-prefix recompute (O(T^2) per token);
* ``test_decode_smoke_fused_whole_step_vs_per_op`` — the fused
  ``FusedNumpyBackend.decode_step`` kernel (preallocated scratch, one
  GEMM over ``[Wq|Wk|Wv]``) against the per-op reference
  ``Backend.decode_step`` (one shared-kernel call per primitive), with
  byte-identical logits and walks as a hard invariant.

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
from repro.nn import WalkDecoder, use_backend

#: the smoke gates require the win to show at this length (>= 32)
LENGTH = 48
NUM_WALKS = 64
NUM_NODES = 300
#: batch for the fused whole-step gate — small decode batches are the
#: dispatch-bound regime the compound kernel targets
FUSED_WALKS = 8
#: interleaved timing rounds for the fused gate (min-of-N per side)
FUSED_ROUNDS = 10

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


def _decode_fixed_stream(model: TransformerWalkModel, backend: str,
                         ids: np.ndarray) -> np.ndarray:
    """Decode a predetermined token stream, returning all step logits.

    Fixing the stream (rather than sampling) keeps both kernels on the
    exact same inputs, so the stacked logits are directly comparable
    bit for bit — and the timing measures decode alone, not the
    cumsum/RNG sampling overhead both kernels share.
    """
    n = ids.shape[1]
    with use_backend(backend):
        decoder = WalkDecoder(model)
        outs = [decoder.prefill(np.full((n, 1), model.start_token))]
        for step_ids in ids:
            outs.append(decoder.step(step_ids))
    return np.stack(outs)


@pytest.mark.smoke
def test_decode_smoke_fused_whole_step_vs_per_op():
    """Fused ``decode_step`` vs the per-op reference kernel, length 48.

    Byte-identity is the hard invariant: the fused kernel must emit the
    exact logits of the per-op reference at every step, and sampled
    walks must match token for token.

    On the timing side the gate is deliberately conservative.  Trials
    interleave the two kernels so host noise lands on both alike, and
    the recorded speedup is min-over-min.  Measured margin at this shape
    is ~1.15-1.2x: a straight-line dispatch-floor experiment (every
    buffer preallocated, zero Python overhead) tops out at ~1.19x over
    the per-op kernel, because what remains is C-level work both
    kernels share.  The hard assert sits at 1.05x so the gate stays
    green under CI load while still catching a regression that loses
    the fusion win.
    """
    model = _smoke_model()
    rng = np.random.default_rng(5)
    ids = rng.integers(0, NUM_NODES, size=(LENGTH - 1, FUSED_WALKS))

    per_op_logits = _decode_fixed_stream(model, "numpy", ids)
    fused_logits = _decode_fixed_stream(model, "fused", ids)
    np.testing.assert_array_equal(fused_logits, per_op_logits)

    # Walk-level parity: fused sampling vs per-op reference sampling.
    with use_backend("fused"):
        fused_walks = model.sample(FUSED_WALKS, LENGTH,
                                   np.random.default_rng(6))
    with use_backend("numpy"):
        per_op_walks = model.sample(FUSED_WALKS, LENGTH,
                                    np.random.default_rng(6))
    assert np.array_equal(fused_walks, per_op_walks)

    per_op_s = fused_s = float("inf")
    for _ in range(FUSED_ROUNDS):
        per_op_s = min(per_op_s, _time(
            lambda: _decode_fixed_stream(model, "numpy", ids)))
        fused_s = min(fused_s, _time(
            lambda: _decode_fixed_stream(model, "fused", ids)))

    speedup = per_op_s / max(fused_s, 1e-9)
    print(f"\n\nFused decode smoke — {FUSED_WALKS} walks x length {LENGTH}: "
          f"per-op {per_op_s*1e3:.1f}ms vs fused {fused_s*1e3:.1f}ms "
          f"({speedup:.2f}x), logits and walks byte-identical")

    _record("walklm_fused_decode_step_smoke", {
        "num_walks": FUSED_WALKS,
        "length": LENGTH,
        "num_nodes": NUM_NODES,
        "per_op_seconds": round(per_op_s, 4),
        "whole_step_seconds": round(fused_s, 4),
        "speedup": round(speedup, 2),
        "byte_identical": True,
    })

    assert speedup >= 1.05, (
        f"fused decode_step ({fused_s*1e3:.1f}ms) must beat the per-op "
        f"reference kernel ({per_op_s*1e3:.1f}ms) at length {LENGTH}")


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
