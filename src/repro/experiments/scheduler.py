"""Distributed sweep scheduler: a filesystem-backed, fault-tolerant
job queue drained cooperatively by any number of worker processes.

The queue needs nothing but a directory every worker can reach — a
local path for in-host fleets, a shared mount for multi-host ones.  A
second machine pointing at the same ``queue_dir`` + ``cache_dir`` just
works: specs, graphs, metrics and fitted models all serialize through
the Runner's npz+JSON artifact cache, so the queue only has to move
*job descriptions*; results travel through the shared cache and a
finished sweep is a warm cache replayable with zero refits.

Queue directory layout
----------------------
::

    queue_dir/
      queue.json          queue config (lease timeout, retry budget)
      pending/<id>.json   submitted jobs awaiting a worker
      claimed/<id>.json   jobs some worker is executing right now
      done/<id>.json      completed jobs (worker, timings, attempts)
      failed/<id>.json    terminally failed jobs (+ worker traceback)
      leases/<id>.json    heartbeat file of each claimed job
      fits.log            one line per actual model fit (dedup audit)
      tmp/                staging area for atomic writes

A job moves between states via ``os.rename``, which is atomic on POSIX:
whoever renames ``pending/<id>.json`` into ``claimed/`` owns the job,
so two workers can never execute the same job concurrently.  Every
write lands in ``tmp/`` first and is renamed into place, so readers
never observe partial JSON.

Fault tolerance
---------------
A claiming worker writes ``leases/<id>.json`` and re-stamps it every
``heartbeat_interval`` seconds from a background thread.  If a worker
dies (crash, SIGKILL, lost host), its heartbeat stops; any worker's
:meth:`JobQueue.recover` sweep then finds the stale lease, and either
requeues the job (``claimed/`` → ``pending/``) or — once the job has
been attempted ``max_retries + 1`` times — moves it to ``failed/``
with the recorded reason.  A worker whose lease was revoked while it
was still (slowly) running discovers this at completion time: the
ownership check fails and its result is discarded — the artifacts it
wrote to the shared cache are deterministic, so the retry produces the
identical bytes anyway.

``fits.log`` receives one append per *actual* model fit (cache replays
don't count).  Appends of one short line are atomic under ``O_APPEND``,
so the log doubles as the duplicate-fit audit trail used by the sweep
acceptance tests.
"""

from __future__ import annotations

import dataclasses
import json
import os
import socket
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable

from ..obs import trace
from ..obs.metrics import MetricsRegistry, get_registry
from .runner import ExperimentSpec, Runner
from .supervision import FEW_SHOT_PER_CLASS

__all__ = ["Job", "JobQueue", "QueueError", "Worker", "LocalWorkerPool",
           "run_worker"]

#: bump when the on-disk queue layout changes incompatibly
QUEUE_FORMAT = "sweep-queue-v1"

#: default seconds without a heartbeat before a lease counts as expired
DEFAULT_LEASE_TIMEOUT = 60.0

#: default number of *re*-tries after the first attempt of a job
DEFAULT_MAX_RETRIES = 2

_STATES = ("pending", "claimed", "done", "failed")


class QueueError(RuntimeError):
    """A queue-level failure (failed jobs, dead worker fleet, ...)."""


@dataclass(frozen=True)
class Job:
    """One claimed unit of work: a spec plus its execution options."""

    id: str
    spec: ExperimentSpec
    with_metrics: bool = False
    #: execution attempts started so far, including the current one
    attempts: int = 1


def _spec_payload(spec: ExperimentSpec) -> dict:
    return dataclasses.asdict(spec)


def _spec_from_payload(payload: dict) -> ExperimentSpec:
    return ExperimentSpec(model=payload["model"], dataset=payload["dataset"],
                          profile=payload["profile"],
                          seed=int(payload["seed"]),
                          overrides=[tuple(kv) for kv in payload["overrides"]])


class JobQueue:
    """Filesystem job queue shared by submitters and workers.

    Parameters
    ----------
    queue_dir:
        Directory holding the queue (created on first use).  All
        cooperating processes — local or on other hosts — must see the
        same path contents.
    lease_timeout:
        Seconds a claimed job may go without a heartbeat before any
        worker's :meth:`recover` sweep requeues it.  ``None`` reads the
        value recorded in ``queue.json`` (or the default for a fresh
        queue); passing a value records it for every later opener, so
        the whole fleet agrees on expiry.
    max_retries:
        How many times an expired or crashed job is re-queued before it
        moves to ``failed/`` — a job is attempted at most
        ``max_retries + 1`` times.
    """

    def __init__(self, queue_dir: str | os.PathLike,
                 lease_timeout: float | None = None,
                 max_retries: int | None = None,
                 registry: MetricsRegistry | None = None):
        registry = registry if registry is not None else get_registry()
        self.registry = registry
        self._m_submitted = registry.counter(
            "jobqueue_submitted_total", "Jobs enqueued")
        self._m_claims = registry.counter(
            "jobqueue_claims_total", "Successful job claims")
        self._m_requeues = registry.counter(
            "jobqueue_requeues_total", "Attempts returned to pending")
        self._m_lease_expiries = registry.counter(
            "jobqueue_lease_expiries_total",
            "Leases found expired by recover()")
        self._m_completions = registry.counter(
            "jobqueue_completions_total", "Jobs completed")
        self._m_failures = registry.counter(
            "jobqueue_failures_total", "Jobs terminally failed")
        self._m_depth = registry.gauge(
            "jobqueue_depth", "Jobs per state at last scan")
        self.queue_dir = Path(queue_dir).expanduser()
        for state in (*_STATES, "leases", "tmp"):
            (self.queue_dir / state).mkdir(parents=True, exist_ok=True)
        self._tmp_serial = 0
        config = self._read_json(self.queue_dir / "queue.json") or {}
        if config and config.get("format") != QUEUE_FORMAT:
            raise QueueError(
                f"{self.queue_dir} holds a {config.get('format')!r} queue; "
                f"this build speaks {QUEUE_FORMAT!r}")
        if lease_timeout is None:
            lease_timeout = config.get("lease_timeout", DEFAULT_LEASE_TIMEOUT)
        if max_retries is None:
            max_retries = config.get("max_retries", DEFAULT_MAX_RETRIES)
        self.lease_timeout = float(lease_timeout)
        self.max_retries = int(max_retries)
        if (config.get("lease_timeout") != self.lease_timeout
                or config.get("max_retries") != self.max_retries):
            self._write_json(self.queue_dir / "queue.json", {
                "format": QUEUE_FORMAT,
                "lease_timeout": self.lease_timeout,
                "max_retries": self.max_retries})

    # ------------------------------------------------------------------
    # Low-level atomic file helpers
    # ------------------------------------------------------------------
    def _path(self, state: str, job_id: str) -> Path:
        return self.queue_dir / state / f"{job_id}.json"

    def _write_json(self, path: Path, payload: dict) -> None:
        """Write via tmp/ + rename so readers never see partial JSON."""
        self._tmp_serial += 1
        tmp = (self.queue_dir / "tmp"
               / f"{os.getpid()}-{self._tmp_serial}-{path.name}")
        tmp.write_text(json.dumps(payload, indent=2, default=str))
        os.replace(tmp, path)

    @staticmethod
    def _read_json(path: Path) -> dict | None:
        """Best-effort read; concurrent moves/partial files read as None."""
        try:
            return json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            return None

    def _job_ids(self, state: str) -> list[str]:
        names = os.listdir(self.queue_dir / state)
        return sorted(n[:-5] for n in names if n.endswith(".json"))

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(self, specs: Iterable[ExperimentSpec], *,
               with_metrics: bool = False) -> list[str]:
        """Enqueue one job per distinct spec; returns the job ids.

        ``with_metrics`` has workers record the discrepancy scoreboard
        too.  Fitted models need no flag: workers store every
        serialisable one in the cache.

        The job id is the spec's cache key, so submission is idempotent:
        duplicate specs in one batch collapse to one job, and a spec
        whose job is already pending, claimed or done is not enqueued
        again — resubmitting a finished sweep is a no-op whose results
        replay from the warm cache.  A spec whose job previously failed
        *terminally* is re-enqueued with a fresh retry budget (its old
        traceback moves to the new job's ``errors`` history): explicit
        resubmission is the operator's "the environment is fixed, try
        again", so one bad night must not poison the queue forever.
        """
        ids: list[str] = []
        for spec in specs:
            job_id = spec.cache_key()
            if job_id in ids:
                continue
            ids.append(job_id)
            if any(self._path(state, job_id).exists()
                   for state in ("pending", "claimed", "done")):
                continue
            prior_errors = []
            failed_path = self._path("failed", job_id)
            if failed_path.exists():
                prior = self._read_json(failed_path) or {}
                prior_errors = prior.get("errors", [])
            payload = {
                "id": job_id,
                "spec": _spec_payload(spec),
                "with_metrics": bool(with_metrics),
                "attempts": 0,
                "submitted_at": time.time(),
            }
            if prior_errors:
                payload["errors"] = prior_errors
            # Stage in tmp/, then rename into pending/ — a concurrent
            # submitter racing on the same spec just overwrites the file
            # with identical content.
            self._tmp_serial += 1
            tmp = (self.queue_dir / "tmp"
                   / f"{os.getpid()}-{self._tmp_serial}-{job_id}.json")
            tmp.write_text(json.dumps(payload, indent=2, default=str))
            os.replace(tmp, self._path("pending", job_id))
            failed_path.unlink(missing_ok=True)
            self._m_submitted.inc()
        return ids

    # ------------------------------------------------------------------
    # Worker-side protocol: claim / heartbeat / complete / fail
    # ------------------------------------------------------------------
    def claim(self, worker_id: str) -> Job | None:
        """Atomically take one pending job, or ``None`` if none is free.

        The ``pending/ → claimed/`` rename is the mutual-exclusion
        point: losing the rename race just means another worker owns
        that job, so the scan moves on to the next file.
        """
        for job_id in self._job_ids("pending"):
            src = self._path("pending", job_id)
            dst = self._path("claimed", job_id)
            try:
                os.rename(src, dst)
            except FileNotFoundError:
                continue  # another worker won this job
            # rename preserves the submit-time mtime, but recover()'s
            # no-lease grace period measures from the claimed file's
            # mtime — touch it immediately so a job that waited in
            # pending/ longer than lease_timeout is not snatched back
            # in the instant before the lease lands.
            os.utime(dst)
            payload = self._read_json(dst)
            if payload is None:  # unreadable job file: fail it terminally
                self._write_json(dst, {"id": job_id, "failure":
                                       "unreadable job file"})
                os.replace(dst, self._path("failed", job_id))
                continue
            payload["attempts"] = int(payload.get("attempts", 0)) + 1
            self._write_lease(job_id, worker_id, payload["attempts"])
            self._write_json(dst, payload)
            self._m_claims.inc()
            return Job(id=job_id,
                       spec=_spec_from_payload(payload["spec"]),
                       with_metrics=bool(payload.get("with_metrics")),
                       attempts=payload["attempts"])
        return None

    def _write_lease(self, job_id: str, worker_id: str,
                     attempt: int) -> None:
        self._write_json(self.queue_dir / "leases" / f"{job_id}.json", {
            "job": job_id, "worker": worker_id, "attempt": attempt,
            "heartbeat_at": time.time()})

    def _owns_lease(self, job_id: str, worker_id: str) -> dict | None:
        lease = self._read_json(self.queue_dir / "leases" / f"{job_id}.json")
        if lease is None or lease.get("worker") != worker_id:
            return None
        return lease

    def heartbeat(self, job_id: str, worker_id: str) -> bool:
        """Re-stamp the lease; ``False`` means the lease was revoked
        (the job expired and was requeued under another worker) and the
        caller's eventual result will be discarded."""
        lease = self._owns_lease(job_id, worker_id)
        if lease is None:
            return False
        lease["heartbeat_at"] = time.time()
        self._write_json(self.queue_dir / "leases" / f"{job_id}.json", lease)
        return True

    def complete(self, job_id: str, worker_id: str,
                 result: dict | None = None) -> bool:
        """Move a claimed job to ``done/`` with its result payload.

        Returns ``False`` when the caller no longer owns the job (its
        lease expired and the job was requeued) — the result is then
        dropped; the shared artifact cache already holds the worker's
        (deterministic) outputs, so nothing is lost.
        """
        if self._owns_lease(job_id, worker_id) is None:
            return False
        src = self._path("claimed", job_id)
        dst = self._path("done", job_id)
        try:
            os.rename(src, dst)
        except FileNotFoundError:
            return False
        payload = self._read_json(dst) or {"id": job_id}
        payload["result"] = result or {}
        payload["worker"] = worker_id
        payload["completed_at"] = time.time()
        self._write_json(dst, payload)
        (self.queue_dir / "leases" / f"{job_id}.json").unlink(missing_ok=True)
        self._m_completions.inc()
        return True

    def fail(self, job_id: str, worker_id: str, message: str) -> str:
        """Record a failed attempt; requeue or terminally fail the job.

        Returns ``"requeued"``, ``"failed"``, or ``"lost"`` (the lease
        was already revoked, nothing to do).
        """
        if self._owns_lease(job_id, worker_id) is None:
            return "lost"
        payload = self._read_json(self._path("claimed", job_id))
        if payload is None:
            return "lost"
        attempts = int(payload.get("attempts", 1))
        payload.setdefault("errors", []).append(
            {"worker": worker_id, "attempt": attempts, "error": message})
        if attempts > self.max_retries:
            return self._finalise(job_id, payload, message)
        self._write_json(self._path("claimed", job_id), payload)
        (self.queue_dir / "leases" / f"{job_id}.json").unlink(missing_ok=True)
        try:
            os.rename(self._path("claimed", job_id),
                      self._path("pending", job_id))
        except FileNotFoundError:
            return "lost"
        self._m_requeues.inc(reason="error")
        return "requeued"

    def _finalise(self, job_id: str, payload: dict, message: str) -> str:
        """Terminal transition ``claimed/ → failed/`` with the reason."""
        payload["failure"] = message
        payload["failed_at"] = time.time()
        self._write_json(self._path("claimed", job_id), payload)
        (self.queue_dir / "leases" / f"{job_id}.json").unlink(missing_ok=True)
        try:
            os.rename(self._path("claimed", job_id),
                      self._path("failed", job_id))
        except FileNotFoundError:
            return "lost"
        self._m_failures.inc()
        return "failed"

    # ------------------------------------------------------------------
    # Fault recovery
    # ------------------------------------------------------------------
    def recover(self) -> list[str]:
        """Requeue every claimed job whose lease expired.

        Any process may run this — workers do before each claim, and
        sweep submitters while polling — so a dead worker's jobs return
        to ``pending/`` after at most ``lease_timeout`` seconds without
        the dead worker's cooperation.  Jobs out of retry budget move to
        ``failed/`` instead.  Returns the ids of requeued jobs.
        """
        now = time.time()
        requeued: list[str] = []
        for job_id in self._job_ids("claimed"):
            lease_path = self.queue_dir / "leases" / f"{job_id}.json"
            lease = self._read_json(lease_path)
            if lease is not None:
                if now - float(lease.get("heartbeat_at", 0)) \
                        <= self.lease_timeout:
                    continue  # heartbeat is fresh; worker is alive
            else:
                # Claim crashed between the rename and the lease write;
                # grant the claimed file itself a lease-length grace.
                try:
                    mtime = self._path("claimed", job_id).stat().st_mtime
                except FileNotFoundError:
                    continue  # completed/failed under us
                if now - mtime <= self.lease_timeout:
                    continue
            payload = self._read_json(self._path("claimed", job_id))
            if payload is None:
                continue  # raced with a completion; nothing to recover
            self._m_lease_expiries.inc()
            attempts = int(payload.get("attempts", 1))
            note = (f"lease expired after attempt {attempts} "
                    f"(no heartbeat for > {self.lease_timeout:g}s)")
            payload.setdefault("errors", []).append(
                {"worker": (lease or {}).get("worker"),
                 "attempt": attempts, "error": note})
            if attempts > self.max_retries:
                self._finalise(job_id, payload, note)
                continue
            self._write_json(self._path("claimed", job_id), payload)
            # Unlink the stale lease *before* the rename: once the job
            # is pending again a new claimer writes a fresh lease, which
            # this sweep must not clobber.
            lease_path.unlink(missing_ok=True)
            try:
                os.rename(self._path("claimed", job_id),
                          self._path("pending", job_id))
            except FileNotFoundError:
                continue  # the (slow) owner completed it after all
            self._m_requeues.inc(reason="lease_expired")
            requeued.append(job_id)
        return requeued

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def counts(self) -> dict[str, int]:
        """Number of jobs per state."""
        counts = {state: len(self._job_ids(state)) for state in _STATES}
        for state, count in counts.items():
            self._m_depth.set(count, state=state)
        return counts

    def status(self) -> dict:
        """Read-only dashboard snapshot: state counts + per-job detail.

        Performs no recovery and no writes, so it is safe to point at a
        live queue from any host (``repro sweep --status <queue_dir>``).
        Each job row carries its state, attempt/retry counters, the
        owning worker and lease age for claimed jobs (flagged when the
        lease has already expired), and the failure's final line for
        terminally failed jobs.  Lease ages use this host's clock — the
        same loose-synchronisation assumption the lease protocol itself
        makes.
        """
        now = time.time()
        jobs: list[dict] = []
        for state in _STATES:
            for job_id in self._job_ids(state):
                payload = self._read_json(self._path(state, job_id)) or {}
                entry = {"id": job_id, "state": state,
                         "attempts": int(payload.get("attempts", 0)),
                         "retries": len(payload.get("errors", [])),
                         "worker": None, "lease_age": None, "note": ""}
                if state == "claimed":
                    lease = self._read_json(
                        self.queue_dir / "leases" / f"{job_id}.json")
                    if lease is not None:
                        entry["worker"] = lease.get("worker")
                        entry["lease_age"] = max(
                            0.0, now - float(lease.get("heartbeat_at", now)))
                        if entry["lease_age"] > self.lease_timeout:
                            entry["note"] = "lease expired"
                    else:
                        entry["note"] = "no lease yet"
                elif state == "done":
                    entry["worker"] = payload.get("worker")
                elif state == "failed":
                    failure = str(payload.get("failure", "")).strip()
                    if failure:
                        entry["note"] = failure.splitlines()[-1]
                jobs.append(entry)
        # Counts derive from the rows just collected (not a second
        # directory scan), so one snapshot can never disagree with
        # itself while jobs move between states under it.
        counts = {state: 0 for state in _STATES}
        for job in jobs:
            counts[job["state"]] += 1
        return {"counts": counts, "jobs": jobs}

    def drained(self) -> bool:
        """True when no job is pending or claimed (done/failed only)."""
        return not self._job_ids("pending") and not self._job_ids("claimed")

    def job_ids(self, state: str) -> list[str]:
        if state not in _STATES:
            raise ValueError(f"unknown state {state!r}; one of {_STATES}")
        return self._job_ids(state)

    def payload(self, job_id: str) -> dict | None:
        """The job's JSON payload, wherever it currently lives."""
        for state in _STATES:
            payload = self._read_json(self._path(state, job_id))
            if payload is not None:
                payload["state"] = state
                return payload
        return None

    def wait(self, *, poll: float = 0.5, timeout: float | None = None,
             on_poll: Callable[[dict[str, int]], None] | None = None
             ) -> dict[str, int]:
        """Block until the queue drains, recovering expired leases.

        ``on_poll`` receives the state counts once per cycle (progress
        rendering hook).  Raises :class:`QueueError` on timeout.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            self.recover()
            counts = self.counts()
            if on_poll is not None:
                on_poll(counts)
            if not counts["pending"] and not counts["claimed"]:
                return counts
            if deadline is not None and time.monotonic() > deadline:
                raise QueueError(f"queue {self.queue_dir} did not drain "
                                 f"within {timeout:g}s: {counts}")
            time.sleep(poll)

    # ------------------------------------------------------------------
    # Duplicate-fit audit trail
    # ------------------------------------------------------------------
    def record_fit(self, job_id: str, worker_id: str) -> None:
        """Append one line per actual model fit (atomic under O_APPEND)."""
        line = f"{job_id}\t{worker_id}\n".encode()
        fd = os.open(self.queue_dir / "fits.log",
                     os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
        try:
            os.write(fd, line)
        finally:
            os.close(fd)

    def fit_log(self) -> list[tuple[str, str]]:
        """All recorded fits as ``(job_id, worker_id)`` pairs."""
        try:
            text = (self.queue_dir / "fits.log").read_text()
        except OSError:
            return []
        return [tuple(line.split("\t", 1))  # type: ignore[misc]
                for line in text.splitlines() if line]


# ----------------------------------------------------------------------
# Worker
# ----------------------------------------------------------------------
class Worker:
    """A queue-draining worker executing jobs through a local Runner.

    The worker claims one job at a time, heartbeats its lease from a
    background thread while the (possibly minutes-long) fit runs, and
    reports completion or failure back to the queue.  All artifacts land
    in ``cache_dir`` via the Runner's disk cache, which is the only
    result channel — the queue itself stores no model bytes.
    """

    def __init__(self, queue: JobQueue | str | os.PathLike,
                 cache_dir: str | os.PathLike, *,
                 worker_id: str | None = None,
                 heartbeat_interval: float | None = None,
                 allow_surrogate: bool = True,
                 few_shot_per_class: int = FEW_SHOT_PER_CLASS,
                 metrics_file: str | os.PathLike | None = None,
                 metrics_interval: float | None = None):
        self.queue = queue if isinstance(queue, JobQueue) else JobQueue(queue)
        if worker_id is None:
            worker_id = (f"{socket.gethostname()}-{os.getpid()}-"
                         f"{os.urandom(3).hex()}")
        self.worker_id = worker_id
        if heartbeat_interval is None:
            heartbeat_interval = max(self.queue.lease_timeout / 4.0, 0.05)
        self.heartbeat_interval = heartbeat_interval
        # Fleet telemetry: merge-update a JSON snapshot of the queue's
        # registry on the heartbeat cadence.  "auto" places it where
        # `repro sweep --status` looks: <queue_dir>/metrics/<worker>.json.
        if metrics_file == "auto":
            metrics_file = (self.queue.queue_dir / "metrics"
                            / f"{worker_id}.json")
        self.metrics_file = (Path(metrics_file)
                             if metrics_file is not None else None)
        self.metrics_interval = (metrics_interval if metrics_interval
                                 is not None else heartbeat_interval)
        self._m_jobs = self.queue.registry.counter(
            "worker_jobs_total", "Job attempts per outcome")
        # Checkpoint on the heartbeat cadence: a worker that dies mid-fit
        # leaves a <key>.ckpt.npz in the shared cache at most one
        # heartbeat old, so whoever re-claims the job after lease expiry
        # resumes the fit from there instead of refitting from scratch.
        self.runner = Runner(cache_dir=cache_dir,
                             allow_surrogate=allow_surrogate,
                             few_shot_per_class=few_shot_per_class,
                             checkpoint_interval=heartbeat_interval)

    # ------------------------------------------------------------------
    def run(self, *, max_jobs: int | None = None, keep_alive: bool = False,
            poll_interval: float = 0.2,
            stop: threading.Event | None = None) -> dict[str, int]:
        """Drain the queue; returns per-outcome attempt counts.

        ``completed`` and ``failed`` (terminal) describe finished jobs;
        ``requeued`` counts errored attempts that went back to pending
        (possibly re-executed by this same worker); ``lost`` counts
        results discarded because the lease had expired under us.

        Exits when the queue is drained (or after ``max_jobs`` jobs).
        ``keep_alive`` keeps polling an empty queue instead — the mode a
        standing multi-host fleet runs in, picking up work the moment a
        submitter enqueues it.

        ``stop`` is the graceful-shutdown channel: once set (e.g. by a
        SIGTERM handler), the worker finishes the job it is executing —
        its artifacts land and its lease completes normally — claims
        nothing further, and returns.  Without it, terminating a
        keep-alive worker means killing it mid-job and paying a lease
        timeout before another worker can pick the job up.
        """
        stats = {"completed": 0, "failed": 0, "requeued": 0, "lost": 0}
        executed = 0
        last_snapshot = 0.0
        while max_jobs is None or executed < max_jobs:
            if stop is not None and stop.is_set():
                break
            self.queue.recover()
            job = self.queue.claim(self.worker_id)
            if self.metrics_file is not None and (
                    time.monotonic() - last_snapshot
                    >= self.metrics_interval):
                self.write_metrics_snapshot()
                last_snapshot = time.monotonic()
            if job is None:
                if self.queue.drained() and not keep_alive:
                    break
                if stop is not None:
                    stop.wait(poll_interval)
                else:
                    time.sleep(poll_interval)
                continue
            executed += 1
            outcome = self._execute(job)
            stats[outcome] += 1
            self._m_jobs.inc(outcome=outcome)
        if self.metrics_file is not None:
            self.write_metrics_snapshot()
        return stats

    def write_metrics_snapshot(self) -> None:
        """Merge-update this worker's registry snapshot on disk."""
        if self.metrics_file is None:
            return
        self.queue.counts()  # refresh the queue-depth gauge first
        try:
            self.queue.registry.write_snapshot(
                self.metrics_file, worker_id=self.worker_id)
        except OSError:
            pass  # telemetry must never take a worker down

    # ------------------------------------------------------------------
    def _execute(self, job: Job) -> str:
        stop = threading.Event()
        beat = threading.Thread(target=self._heartbeat_loop,
                                args=(job.id, stop), daemon=True)
        beat.start()
        try:
            with trace.span("worker.job", job=job.id,
                            attempt=job.attempts):
                result = self.runner.run(job.spec,
                                         with_metrics=job.with_metrics)
        except Exception:
            stop.set()
            beat.join()
            return self.queue.fail(job.id, self.worker_id,
                                   traceback.format_exc())
        finally:
            stop.set()
        beat.join()
        if not result.from_cache:
            self.queue.record_fit(job.id, self.worker_id)
        payload = {
            "fitted": not result.from_cache,
            "fit_seconds": result.fit_seconds,
            "generate_seconds": result.generate_seconds,
            "num_nodes": result.generated.num_nodes,
            "num_edges": result.generated.num_edges,
        }
        # One job's graphs must not accumulate across a long drain; the
        # disk cache is the durable layer, so the memory cache is purely
        # a per-job convenience here.
        self.runner._memory.clear()
        ok = self.queue.complete(job.id, self.worker_id, payload)
        return "completed" if ok else "lost"

    def _heartbeat_loop(self, job_id: str, stop: threading.Event) -> None:
        while not stop.wait(self.heartbeat_interval):
            if not self.queue.heartbeat(job_id, self.worker_id):
                return  # lease revoked; completion will be discarded


def run_worker(queue_dir: str | os.PathLike, cache_dir: str | os.PathLike,
               **kwargs) -> dict[str, int]:
    """Convenience entry point: construct a :class:`Worker` and drain.

    ``kwargs`` split between the worker constructor and :meth:`Worker.run`
    (``max_jobs``, ``keep_alive``, ``poll_interval``).
    """
    run_kwargs = {k: kwargs.pop(k) for k in
                  ("max_jobs", "keep_alive", "poll_interval")
                  if k in kwargs}
    return Worker(queue_dir, cache_dir, **kwargs).run(**run_kwargs)


# ----------------------------------------------------------------------
# Local worker fleet
# ----------------------------------------------------------------------
def _pool_worker_main(queue_dir: str, cache_dir: str, worker_id: str,
                      allow_surrogate: bool, few_shot_per_class: int,
                      heartbeat_interval: float | None) -> None:
    """Top-level (picklable) entry point of a pool worker process."""
    Worker(queue_dir, cache_dir, worker_id=worker_id,
           allow_surrogate=allow_surrogate,
           few_shot_per_class=few_shot_per_class,
           heartbeat_interval=heartbeat_interval).run()


class LocalWorkerPool:
    """N local worker *processes* draining one queue.

    The in-host analogue of pointing N machines at a shared queue
    directory: each worker is a real OS process (so a crash or SIGKILL
    only loses that worker's lease, never the fleet), and all of them
    exit once the queue drains.
    """

    def __init__(self, queue_dir: str | os.PathLike,
                 cache_dir: str | os.PathLike, num_workers: int, *,
                 allow_surrogate: bool = True,
                 few_shot_per_class: int = FEW_SHOT_PER_CLASS,
                 heartbeat_interval: float | None = None):
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        self.queue_dir = os.fspath(queue_dir)
        self.cache_dir = os.fspath(cache_dir)
        self.num_workers = num_workers
        self.allow_surrogate = allow_surrogate
        self.few_shot_per_class = few_shot_per_class
        self.heartbeat_interval = heartbeat_interval
        self.processes: list = []

    @staticmethod
    def _context():
        import multiprocessing

        # fork starts workers in milliseconds where available; spawn is
        # the portable fallback (and re-imports repro in each child).
        methods = multiprocessing.get_all_start_methods()
        return multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn")

    def start(self) -> "LocalWorkerPool":
        ctx = self._context()
        for i in range(self.num_workers):
            worker_id = (f"{socket.gethostname()}-pool{os.getpid()}-w{i}-"
                         f"{os.urandom(2).hex()}")
            proc = ctx.Process(
                target=_pool_worker_main,
                args=(self.queue_dir, self.cache_dir, worker_id,
                      self.allow_surrogate, self.few_shot_per_class,
                      self.heartbeat_interval),
                daemon=True)
            proc.start()
            self.processes.append(proc)
        return self

    def alive_count(self) -> int:
        return sum(p.is_alive() for p in self.processes)

    def join(self, timeout: float | None = None) -> None:
        for proc in self.processes:
            proc.join(timeout)

    def terminate(self) -> None:
        for proc in self.processes:
            if proc.is_alive():
                proc.terminate()
        self.join(timeout=5.0)

    def __enter__(self) -> "LocalWorkerPool":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.join()
        else:
            self.terminate()
