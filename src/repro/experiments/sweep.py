"""Sweep helpers: parameter grids → deduplicated spec batches → a
scheduled multi-worker run.

:func:`expand` is the general cartesian-product engine — every axis is
a list of values, spec axes (``model`` / ``dataset`` / ``profile`` /
``seed``) map onto :class:`ExperimentSpec` fields and every other axis
becomes a hyperparameter override.  :func:`grid` is the benchmark-shaped
front door (models × datasets × profiles × seeds with per-model
overrides).  Both return batches deduplicated by cache key, so aliases
(``"ER"`` vs ``"er"``) and repeated axis values cannot enqueue the same
experiment twice.

:func:`run_sweep` drives a whole sweep end to end: submit the batch to
a :class:`~repro.experiments.scheduler.JobQueue`, optionally self-host
N local worker processes, poll with recovery until the queue drains,
and replay the results out of the shared artifact cache into a
:class:`SweepReport`.  Workers on other hosts pointing at the same
queue/cache directories participate transparently.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from itertools import product
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from ..registry import get_entry
from .runner import ExperimentSpec, Runner, RunResult
from .scheduler import JobQueue, LocalWorkerPool, QueueError
from .supervision import FEW_SHOT_PER_CLASS

__all__ = ["expand", "grid", "run_sweep", "stack_cells", "SweepReport"]

#: axes that map onto ExperimentSpec fields; all other axes are
#: hyperparameter-override axes
_SPEC_AXES = ("model", "dataset", "profile", "seed")


def _as_values(value) -> list:
    """Normalise one axis to a list of values (scalars become [scalar])."""
    if isinstance(value, (str, bytes, Mapping)) \
            or not isinstance(value, (Sequence, set, frozenset, range)):
        return [value]
    values = list(value)
    if not values:
        raise ValueError("sweep axes must not be empty")
    return values


def expand(axes: Mapping[str, object]) -> list[ExperimentSpec]:
    """Cartesian product of named axes → deduplicated spec batch.

    ``axes`` maps axis names to a value or a sequence of values.  The
    axes ``model`` and ``dataset`` are required; ``profile`` defaults to
    ``"paper"`` and ``seed`` to ``0``.  Every other axis varies a
    hyperparameter override, so e.g.::

        expand({"model": ["fairgen", "taggen"], "dataset": "BLOG",
                "seed": range(3), "self_paced_cycles": [2, 4]})

    yields 2 × 1 × 3 × 2 = 12 specs (fewer if any collapse to the same
    cache key).  Specs are validated eagerly: unknown models or profiles
    raise here, not minutes into a fleet run.
    """
    for required in ("model", "dataset"):
        if required not in axes:
            raise ValueError(f"sweep axes must include {required!r}")
    named = {"profile": ["paper"], "seed": [0]}
    named.update({k: _as_values(v) for k, v in axes.items()})
    override_axes = [k for k in named if k not in _SPEC_AXES]

    specs: list[ExperimentSpec] = []
    seen: set[str] = set()
    axis_order = [*_SPEC_AXES, *override_axes]
    for values in product(*(named[k] for k in axis_order)):
        point = dict(zip(axis_order, values))
        spec = ExperimentSpec(
            model=point["model"], dataset=point["dataset"],
            profile=point["profile"], seed=int(point["seed"]),
            overrides={k: point[k] for k in override_axes})
        get_entry(spec.model).params(spec.profile, spec.override_dict)
        key = spec.cache_key()
        if key not in seen:
            seen.add(key)
            specs.append(spec)
    return specs


def grid(models, datasets, *, profiles="paper", seeds=0,
         overrides: Mapping[str, object] | None = None,
         per_model: Mapping[str, Mapping[str, object]] | None = None
         ) -> list[ExperimentSpec]:
    """The benchmark-shaped grid: models × datasets × profiles × seeds.

    ``overrides`` adds hyperparameter axes shared by every model (each
    value may itself be a list — a per-axis sweep).  ``per_model`` maps
    a model name to a *fixed* override dict applied only to that model's
    specs, e.g. ``{"fairgen": {"self_paced_cycles": 2}}``.  The result
    is deduplicated by cache key across the whole batch.
    """
    per_model = {get_entry(name).name: dict(extra)
                 for name, extra in (per_model or {}).items()}
    specs: list[ExperimentSpec] = []
    seen: set[str] = set()
    for model in _as_values(models):
        axes: dict[str, object] = {"model": model, "dataset": datasets,
                                   "profile": profiles, "seed": seeds}
        axes.update(overrides or {})
        extra = per_model.get(get_entry(model).name, {})
        for spec in expand(axes):
            if extra:
                spec = ExperimentSpec(
                    model=spec.model, dataset=spec.dataset,
                    profile=spec.profile, seed=spec.seed,
                    overrides={**spec.override_dict, **extra})
                get_entry(spec.model).params(spec.profile,
                                             spec.override_dict)
            key = spec.cache_key()
            if key not in seen:
                seen.add(key)
                specs.append(spec)
    return specs


# ----------------------------------------------------------------------
# Sweep orchestration
# ----------------------------------------------------------------------
@dataclass
class SweepReport:
    """Outcome of one :func:`run_sweep` call.

    ``results`` aligns with ``specs`` (``None`` for failed jobs); every
    non-``None`` entry was replayed out of the shared artifact cache, so
    holding the report means holding the full sweep with zero refits.
    """

    specs: list[ExperimentSpec]
    job_ids: list[str]
    results: list[RunResult | None]
    #: job id → terminal failure message (worker traceback)
    failures: dict[str, str] = field(default_factory=dict)
    #: (job_id, worker_id) per actual model fit, from the queue's audit log
    fits: list[tuple[str, str]] = field(default_factory=list)
    seconds: float = 0.0

    @property
    def completed(self) -> int:
        return sum(r is not None for r in self.results)

    @property
    def duplicate_fits(self) -> int:
        """Fits beyond one per job — 0 on a healthy fresh sweep."""
        job_ids = [job for job, _ in self.fits]
        return len(job_ids) - len(set(job_ids))

    def raise_on_failure(self) -> "SweepReport":
        if self.failures:
            detail = "\n".join(f"--- {job} ---\n{msg}"
                               for job, msg in self.failures.items())
            raise QueueError(f"{len(self.failures)} sweep job(s) failed "
                             f"terminally:\n{detail}")
        return self

    def scoreboard(self) -> list[dict]:
        """Seed-averaged metrics per model × dataset × profile cell.

        Aggregates ``overall_mean`` — and ``protected_mean`` where the
        runs carry it — across every completed seed of each
        (model, dataset, profile) cell into ``mean ± std`` rows::

            {"model": "FairGen", "dataset": "BLOG", "profile": "bench",
             "seeds": 3, "overall_mean": ..., "overall_std": ...,
             "protected_mean": ..., "protected_std": ...,
             "protected_surrogate": False}

        Results without metrics (the sweep ran without
        ``with_metrics=True``) and failed jobs are skipped; the std is
        the population std over seeds (0.0 for a single seed).  Specs
        that differ in hyperparameter overrides form *separate* cells —
        a sweep with an override axis must never average across
        configurations and call it seed variance — with the cell's
        overrides echoed in the row.  Rows come back sorted by
        (model, dataset, profile, overrides) — the shape the
        ``repro sweep`` summary table prints directly.
        """
        groups: dict[tuple, list[RunResult]] = {}
        for spec, result in zip(self.specs, self.results):
            if result is None or not result.metrics:
                continue
            key = (spec.model, spec.dataset, spec.profile, spec.overrides)
            groups.setdefault(key, []).append(result)
        rows: list[dict] = []
        ordered = sorted(groups.items(),
                         key=lambda kv: (*kv[0][:3], repr(kv[0][3])))
        for (model, dataset, profile, overrides), results in ordered:
            overall = [r.metrics["overall_mean"] for r in results]
            row: dict = {"model": get_entry(model).display_name,
                         "dataset": dataset, "profile": profile,
                         "overrides": dict(overrides),
                         "seeds": len(results),
                         "overall_mean": float(np.mean(overall)),
                         "overall_std": float(np.std(overall))}
            protected = [r.metrics["protected_mean"] for r in results
                         if "protected_mean" in r.metrics]
            if protected:
                row["protected_mean"] = float(np.mean(protected))
                row["protected_std"] = float(np.std(protected))
                row["protected_surrogate"] = any(
                    r.metrics.get("protected_surrogate") for r in results)
            rows.append(row)
        return rows


def stack_cells(specs: Sequence[ExperimentSpec]
                ) -> list[list[ExperimentSpec]]:
    """Group a spec batch into seed-stackable grid cells.

    Returns the sub-batches (in first-appearance order) whose members
    differ only in seed and have at least two seeds — the candidate
    cells for a :meth:`Runner.run_stacked` fit.  Eligibility of the
    *model* (``supports_stacked_fit``, supervision) is the Runner's
    call; this is pure grouping.
    """
    groups: dict[tuple, list[ExperimentSpec]] = {}
    for spec in specs:
        key = (spec.model, spec.dataset, spec.profile, spec.overrides)
        groups.setdefault(key, []).append(spec)
    return [cell for cell in groups.values() if len(cell) >= 2]


def run_sweep(specs: Iterable[ExperimentSpec],
              queue_dir: str | os.PathLike,
              cache_dir: str | os.PathLike, *,
              workers: int = 2,
              with_metrics: bool = False,
              stack_seeds: bool = False,
              lease_timeout: float | None = None,
              max_retries: int | None = None,
              poll: float = 0.25,
              timeout: float | None = None,
              allow_surrogate: bool = True,
              few_shot_per_class: int = FEW_SHOT_PER_CLASS,
              progress: Callable[[dict[str, int]], None] | None = None
              ) -> SweepReport:
    """Submit a spec batch and drain it with a local worker fleet.

    With ``workers == 0`` nothing is self-hosted: the call submits and
    then waits for external workers (``repro worker <queue_dir>`` on any
    host sharing the directories) to drain the queue; ``workers < 0``
    raises ``ValueError``.  ``progress`` receives the queue state counts
    once per poll cycle.  The results carry no fitted models: workers
    store each serialisable one in the cache, where :meth:`Runner.run`
    on the same ``cache_dir`` restores it with zero fits.

    ``stack_seeds`` collapses the seed axis of eligible grid cells
    before submission: each cell whose model supports stacked fits
    trains its K seeds as ONE vmap-style tensor program
    (:meth:`Runner.run_stacked`), warming the shared artifact cache
    with per-seed artifacts under their ordinary cache keys — the
    submitted jobs then replay from cache, so workers perform zero
    refits for stacked cells.  Ineligible cells are untouched and
    train per-seed in the fleet as before.

    Returns a :class:`SweepReport`; terminal job failures are reported
    there rather than raised (call :meth:`SweepReport.raise_on_failure`
    for raising behaviour).
    """
    if workers < 0:
        raise ValueError(f"workers must be >= 0, got {workers}")
    specs = list(specs)
    queue = JobQueue(queue_dir, lease_timeout=lease_timeout,
                     max_retries=max_retries)
    started = time.monotonic()
    if stack_seeds:
        stacker = Runner(cache_dir=cache_dir,
                         allow_surrogate=allow_surrogate,
                         few_shot_per_class=few_shot_per_class)
        for cell in stack_cells(specs):
            if stacker.stackable(cell):
                stacker.run_stacked(cell, with_metrics=with_metrics)
    queue.submit(specs, with_metrics=with_metrics)
    # Per-spec ids (submit deduplicates, so its return value can be
    # shorter than ``specs``; the report stays aligned regardless).
    job_ids = [spec.cache_key() for spec in specs]

    pool = None
    if workers > 0:
        pool = LocalWorkerPool(queue_dir, cache_dir, workers,
                               allow_surrogate=allow_surrogate,
                               few_shot_per_class=few_shot_per_class).start()
    try:
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            queue.recover()
            counts = queue.counts()
            if progress is not None:
                progress(counts)
            if not counts["pending"] and not counts["claimed"]:
                break
            if pool is not None and pool.alive_count() == 0:
                # Workers only exit once the queue drains, so take a
                # fresh snapshot before declaring the fleet dead — the
                # final completion may have landed after the read above.
                queue.recover()
                if queue.drained():
                    break
                raise QueueError(
                    "all local sweep workers exited but the queue is not "
                    f"drained: {counts} — inspect "
                    f"{os.fspath(queue_dir)}/failed/ and worker logs")
            if deadline is not None and time.monotonic() > deadline:
                raise QueueError(f"sweep did not drain within {timeout:g}s: "
                                 f"{counts}")
            time.sleep(poll)
    finally:
        if pool is not None:
            pool.terminate()

    # Replay everything out of the shared cache: zero fits here.
    replay = Runner(cache_dir=cache_dir, allow_surrogate=allow_surrogate,
                    few_shot_per_class=few_shot_per_class)
    failures: dict[str, str] = {}
    results: list[RunResult | None] = []
    for spec, job_id in zip(specs, job_ids):
        payload = queue.payload(job_id) or {}
        if payload.get("state") == "failed":
            failures[job_id] = str(payload.get("failure", "unknown failure"))
            results.append(None)
        else:
            results.append(replay.run(spec, with_metrics=with_metrics))
    return SweepReport(specs=specs, job_ids=job_ids, results=results,
                       failures=failures, fits=queue.fit_log(),
                       seconds=time.monotonic() - started)
