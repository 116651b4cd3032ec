"""Shared infrastructure for the paper-reproduction benchmarks.

Every benchmark regenerates one table or figure of the paper.  Model runs
(fit + generate) all route through the experiment API
(:class:`repro.experiments.Runner`): models come from the registry under
the ``"bench"`` profile, unlabeled datasets receive surrogate supervision
(protected group = bottom-quartile-degree nodes; the paper evaluates
FairGen on all seven datasets although four ship no labels), and runs
are cached per spec and shared across benchmark files within one
pytest session — Figure 5 reuses the graphs produced for Figure 4,
Table IV reuses their timings, and Figure 6 reuses the fitted models.

Set ``REPRO_BENCH_CACHE=/path`` to back the run cache with a disk
directory that survives across pytest sessions: warm entries replay the
generated graphs and timings without refitting anything.

The smoke benchmarks :func:`record` their timings under the ignored
``.bench/`` directory at the repository root, never into the committed
``BENCH_*.json`` snapshots there.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

from repro.experiments import (ExperimentSpec, Runner, RunResult,
                               benchmark_model_names, get_entry)
from repro.utils import format_table  # single shared implementation

__all__ = ["BENCH_SEED", "BENCH_DIR", "MODEL_NAMES", "get_run",
           "bench_runner", "bench_spec", "format_table", "fmt_val", "record"]

BENCH_SEED = 20240

#: where a benchmark run writes its records (ignored by git)
BENCH_DIR = Path(__file__).resolve().parents[1] / ".bench"

#: the paper's nine-method scoreboard, in Table/Figure row order
MODEL_NAMES = benchmark_model_names()

_RUNNER = Runner(cache_dir=os.environ.get("REPRO_BENCH_CACHE") or None)


def bench_runner() -> Runner:
    """The session-wide Runner every benchmark shares."""
    return _RUNNER


def bench_spec(model_name: str, dataset_name: str,
               **overrides) -> ExperimentSpec:
    """Bench-profile spec for a (model, dataset) pair."""
    return ExperimentSpec(model=get_entry(model_name).name,
                          dataset=dataset_name, profile="bench",
                          seed=BENCH_SEED, overrides=overrides)


def get_run(model_name: str, dataset_name: str,
            need_model: bool = False) -> RunResult:
    """Fit + generate once per (model, dataset); cached for the session.

    ``need_model=True`` guarantees ``run.model`` is a fitted model (the
    Figure 6 augmentation study and the assembler ablation need one);
    plain artifact consumers leave it False so a warm disk cache can
    serve them without any fitting.
    """
    return _RUNNER.run(bench_spec(model_name, dataset_name),
                       need_model=need_model)


def fmt_val(value: float) -> str:
    if value is None or (isinstance(value, float) and np.isnan(value)):
        return "nan"
    if isinstance(value, float) and np.isinf(value):
        return "inf"
    return f"{value:.4f}"


def record(filename: str, name: str, payload: dict) -> None:
    """Merge-update entry ``name`` of ``.bench/<filename>``.

    The file maps benchmark name -> latest result, so each smoke test
    refreshes its own entry without clobbering the others.
    """
    path = BENCH_DIR / filename
    existing = json.loads(path.read_text()) if path.exists() else {}
    existing[name] = payload
    BENCH_DIR.mkdir(exist_ok=True)
    path.write_text(json.dumps(existing, indent=2, sort_keys=True) + "\n")
