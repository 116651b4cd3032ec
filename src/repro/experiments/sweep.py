"""Sweep helpers: parameter grids → deduplicated spec batches → a run
on local child processes.

:func:`expand` is the general cartesian-product engine — every axis is
a list of values, spec axes (``model`` / ``dataset`` / ``profile`` /
``seed``) map onto :class:`ExperimentSpec` fields and every other axis
becomes a hyperparameter override.  :func:`grid` is the benchmark-shaped
front door (models × datasets × profiles × seeds with per-model
overrides).  Both return batches deduplicated by cache key, so aliases
(``"ER"`` vs ``"er"``) and repeated axis values cannot run the same
experiment twice.

:func:`run_sweep` drives a whole sweep end to end: it runs each job in
its own child process, at most ``workers`` at a time, retries a job
whose child failed or died, and replays the results out of the artifact
cache into a :class:`SweepReport`.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from itertools import product
from multiprocessing.connection import wait
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from ..obs import trace
from ..obs.metrics import get_registry
from ..registry import get_entry
from .runner import ExperimentSpec, Runner, RunResult
from .supervision import FEW_SHOT_PER_CLASS

__all__ = ["expand", "grid", "run_sweep", "SweepReport", "QueueError"]

#: attempts per job before it fails terminally (a first try + 2 retries)
MAX_ATTEMPTS = 3

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
    raise here, not minutes into a sweep.
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
class QueueError(RuntimeError):
    """A sweep-level failure: failed jobs, or a sweep past its timeout."""


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
    #: job id → terminal failure message (the last attempt's error)
    failures: dict[str, str] = field(default_factory=dict)
    #: job id → error of each failed attempt, retried ones included
    errors: dict[str, list[str]] = field(default_factory=dict)
    #: (job_id, child pid) per model fit a child reported in this call
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


def _mp_context():
    # fork starts a child in milliseconds where available; spawn is the
    # portable fallback (and re-imports repro in each child).
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn")


def _run_job(conn, spec: ExperimentSpec, cache_dir: str, with_metrics: bool,
             allow_surrogate: bool, few_shot_per_class: int,
             attempt: int) -> None:
    """Child entry point: run one spec, send one small report back."""
    try:
        with trace.span("sweep.job", job=spec.cache_key(), attempt=attempt):
            result = Runner(cache_dir, allow_surrogate=allow_surrogate,
                            few_shot_per_class=few_shot_per_class).run(
                spec, with_metrics=with_metrics)
        report = {"fitted": not result.from_cache}
    except Exception:
        report = {"error": traceback.format_exc()}
    conn.send(report)
    conn.close()
    trace.disable()  # a child exits without atexit: flush its trace now


def _death_note(exitcode: int) -> str:
    """Why a child that never reported is gone."""
    if exitcode < 0:
        try:
            name = signal.Signals(-exitcode).name
        except ValueError:
            name = f"signal {-exitcode}"
        return f"sweep child was killed by {name} before reporting"
    return f"sweep child exited with code {exitcode} before reporting"


@dataclass
class _Attempt:
    """One running child: its job and its result pipe."""

    job_id: str
    process: multiprocessing.process.BaseProcess
    #: read end of the child's one-way pipe; ``None`` once read
    conn: object
    report: dict | None = None

    def read(self) -> None:
        """Take the child's one message, or its EOF, and close the pipe."""
        try:
            self.report = self.conn.recv()
        except EOFError:
            pass  # the child died before sending
        self.conn.close()
        self.conn = None


def run_sweep(specs: Iterable[ExperimentSpec],
              cache_dir: str | os.PathLike, *,
              workers: int = 2,
              with_metrics: bool = False,
              timeout: float | None = None,
              allow_surrogate: bool = True,
              few_shot_per_class: int = FEW_SHOT_PER_CLASS,
              progress: Callable[[dict[str, int]], None] | None = None
              ) -> SweepReport:
    """Run a spec batch with at most ``workers`` child processes at once.

    Specs are deduplicated by cache key and each job runs in a fresh
    child process through a :class:`Runner` on ``cache_dir``.  A job
    whose child raises, or dies without reporting (e.g. SIGKILL), is
    retried up to :data:`MAX_ATTEMPTS` attempts in all; a retried fit
    resumes from the mid-fit ``<key>.ckpt.npz`` in the cache.  The
    results carry no fitted models: each serialisable one is stored in
    the cache, where :meth:`Runner.run` on the same ``cache_dir``
    restores it with zero fits.

    ``workers < 1`` raises ``ValueError`` before any child starts.
    ``progress`` receives ``pending``/``running``/``done``/``failed``
    job counts as children start and finish.  Past ``timeout`` seconds
    every child is killed and :class:`QueueError` raised.

    Returns a :class:`SweepReport`; terminal job failures are reported
    there rather than raised (call :meth:`SweepReport.raise_on_failure`
    for raising behaviour).
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    specs = list(specs)
    job_ids = [spec.cache_key() for spec in specs]
    jobs: dict[str, ExperimentSpec] = {}
    for job_id, spec in zip(job_ids, specs):
        jobs.setdefault(job_id, spec)
    registry = get_registry()
    m_attempts = registry.counter("sweep_attempts_total",
                                  "Sweep job attempts per outcome")
    m_fits = registry.counter("sweep_fits_total",
                              "Model fits reported by sweep children")
    ctx = _mp_context()
    started = time.monotonic()
    deadline = None if timeout is None else started + timeout
    pending = deque(jobs)
    running: list[_Attempt] = []
    errors: dict[str, list[str]] = {}
    failures: dict[str, str] = {}
    fits: list[tuple[str, str]] = []
    done = 0
    try:
        while True:
            while pending and len(running) < workers:
                job_id = pending.popleft()
                number = len(errors.get(job_id, ())) + 1
                recv, send = ctx.Pipe(duplex=False)
                proc = ctx.Process(
                    target=_run_job,
                    args=(send, jobs[job_id], os.fspath(cache_dir),
                          with_metrics, allow_surrogate, few_shot_per_class,
                          number),
                    daemon=True)
                proc.start()
                send.close()
                running.append(_Attempt(job_id, proc, recv))
            counts = {"pending": len(pending), "running": len(running),
                      "done": done, "failed": len(failures)}
            if progress is not None:
                progress(counts)
            if not running:
                break
            remaining = None
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise QueueError(f"sweep did not drain within "
                                     f"{timeout:g}s: {counts}")
            # Read pipes as they fill, not only after exit: a child
            # blocks in send() until a long traceback is drained.
            ready = set(wait([a.process.sentinel for a in running]
                             + [a.conn for a in running
                                if a.conn is not None], remaining))
            for attempt in list(running):
                if attempt.conn is not None and attempt.conn in ready:
                    attempt.read()
                if attempt.process.sentinel not in ready:
                    continue
                running.remove(attempt)
                attempt.process.join()
                if attempt.conn is not None:
                    attempt.read()
                report = attempt.report or {
                    "error": _death_note(attempt.process.exitcode)}
                job_id = attempt.job_id
                if "error" not in report:
                    done += 1
                    m_attempts.inc(outcome="completed")
                    if report["fitted"]:
                        fits.append((job_id, str(attempt.process.pid)))
                        m_fits.inc()
                    continue
                errors.setdefault(job_id, []).append(report["error"])
                if len(errors[job_id]) < MAX_ATTEMPTS:
                    pending.append(job_id)
                    m_attempts.inc(outcome="retried")
                else:
                    failures[job_id] = report["error"]
                    m_attempts.inc(outcome="failed")
    finally:
        for attempt in running:
            attempt.process.kill()
            attempt.process.join()
            if attempt.conn is not None:
                attempt.conn.close()

    # Replay everything out of the cache: zero fits here.
    replay = Runner(cache_dir=cache_dir, allow_surrogate=allow_surrogate,
                    few_shot_per_class=few_shot_per_class)
    results = [None if job_id in failures
               else replay.run(spec, with_metrics=with_metrics)
               for spec, job_id in zip(specs, job_ids)]
    return SweepReport(specs=specs, job_ids=job_ids, results=results,
                       failures=failures, errors=errors, fits=fits,
                       seconds=time.monotonic() - started)
