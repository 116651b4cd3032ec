"""Sweep smoke benchmark: a grid run two child processes at a time.

Gates the sweep scheduler on every CI pass at seconds scale: a
smoke-profile grid of >= 4 specs runs in real child processes, at most
two at once, and the run must finish with **zero duplicate fits** (the
fits the children report are the counter) while producing artifacts
identical to a sequential ``run_many`` over the same specs:

    pytest benchmarks/bench_sweep_scheduler.py -m smoke
"""

from __future__ import annotations

import json
import time

import pytest

from repro.experiments import Runner
from repro.experiments.sweep import grid, run_sweep

#: >= 4 specs on the smallest dataset under the seconds-scale profile
MODELS = ("er", "ba", "gae", "taggen")
DATASET = "EMAIL"


@pytest.mark.smoke
def test_sweep_smoke_two_workers_zero_duplicate_fits(tmp_path):
    specs = grid(MODELS, DATASET, profiles="smoke")
    assert len(specs) >= 4

    start = time.perf_counter()
    report = run_sweep(specs, tmp_path / "cache", workers=2,
                       with_metrics=True, timeout=600)
    elapsed = time.perf_counter() - start

    assert not report.failures
    assert report.completed == len(specs)
    # Exactly one fit per spec across all children: the parent hands
    # each deduplicated job to one child at a time.
    assert len(report.fits) == len(specs)
    assert report.duplicate_fits == 0

    # The swept artifacts match a sequential baseline bit-for-bit.
    sequential = Runner(cache_dir=tmp_path / "seq").run_many(
        specs, with_metrics=True)
    for got, want in zip(report.results, sequential):
        assert (got.generated.adjacency != want.generated.adjacency).nnz == 0
        assert json.dumps(got.metrics, sort_keys=True) == \
            json.dumps(want.metrics, sort_keys=True)

    print(f"\n[sweep smoke] {len(specs)} specs, 2 workers: "
          f"{report.seconds:.2f}s sweep / {elapsed:.2f}s total, "
          f"{len(report.fits)} fits, {report.duplicate_fits} duplicates")
