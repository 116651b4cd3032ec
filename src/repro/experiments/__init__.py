"""Unified experiment API: registry-built models, uniform supervision,
and a spec-driven Runner with a disk-backed artifact cache.

This package is the one public fit → generate path of the repository.
The CLI, every benchmark and every example build models through
:mod:`repro.registry` and execute them through :class:`Runner`::

    from repro.experiments import ExperimentSpec, Runner

    runner = Runner(cache_dir="~/.cache/repro")
    result = runner.run(ExperimentSpec(model="fairgen", dataset="BLOG",
                                       profile="bench", seed=0))
    result.generated        # the synthetic Graph
    result.total_seconds    # fit + generate wall clock

A second ``run`` of an identical spec against a warm ``cache_dir``
replays the artifact from disk and performs zero model fitting — across
processes, not just within one.

For batches, :mod:`repro.experiments.sweep` expands parameter grids
into deduplicated spec batches and runs them in local child processes,
one per job, retrying a job whose child failed or died::

    from repro.experiments import sweep

    specs = sweep.grid(["fairgen", "taggen"], ["BLOG", "ACM"],
                       profiles="bench", seeds=range(3))
    report = sweep.run_sweep(specs, "runs/cache", workers=2,
                             with_metrics=True)
"""

from ..registry import (ModelEntry, benchmark_model_names, create_model,
                        display_name, get_entry, model_names, profile_names,
                        register_model)
from . import sweep
from .runner import ExperimentSpec, Runner, RunResult
from .supervision import FEW_SHOT_PER_CLASS, Supervision, few_shot_labels
from .sweep import QueueError, SweepReport, run_sweep

__all__ = [
    "ExperimentSpec", "Runner", "RunResult",
    "Supervision", "few_shot_labels", "FEW_SHOT_PER_CLASS",
    "ModelEntry", "register_model", "get_entry", "create_model",
    "model_names", "benchmark_model_names", "display_name",
    "profile_names",
    "sweep", "SweepReport", "run_sweep", "QueueError",
]
