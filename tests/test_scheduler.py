"""Tests for the distributed sweep scheduler: queue protocol, workers,
crash recovery, the local worker pool and the CLI front."""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.cli import main
from repro.experiments import (ExperimentSpec, JobQueue, LocalWorkerPool,
                               QueueError, Runner, Worker)
from repro.graph import Graph
from repro.train import TrainState

SMALLEST = "EMAIL"  # smallest bundled dataset (106 nodes)

#: a deliberately multi-second FairGen job for the mid-job kill test
SLOW_OVERRIDES = {"self_paced_cycles": 3, "generator_steps_per_cycle": 16,
                  "walks_per_cycle": 64}


def _spec(model="er", seed=0, **overrides) -> ExperimentSpec:
    return ExperimentSpec(model=model, dataset=SMALLEST, profile="smoke",
                          seed=seed, overrides=overrides)


def _adjacency_equal(a: Graph, b: Graph) -> bool:
    return (a.adjacency != b.adjacency).nnz == 0


def _victim_worker_main(queue_dir: str, cache_dir: str) -> None:
    """A pool worker that stops at a known point: right after the first
    checkpoint of its fit, which lands at the first epoch boundary.

    It then blocks until the parent SIGKILLs it, so the kill always
    falls mid-fit with exactly one checkpoint on disk, however fast the
    fit runs.  Meant for a forked child: the patch stays in its copy of
    the process.
    """
    save = TrainState.save

    def save_then_block(self, *args, **kwargs):
        save(self, *args, **kwargs)
        threading.Event().wait()

    TrainState.save = save_then_block
    worker = Worker(queue_dir, cache_dir, worker_id="victim",
                    allow_surrogate=True, few_shot_per_class=3,
                    heartbeat_interval=0.2)
    worker.runner.checkpoint_interval = 0.0  # checkpoint every epoch
    worker.run()


def _mp_context():
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn")


# ----------------------------------------------------------------------
# Queue protocol
# ----------------------------------------------------------------------
class TestJobQueue:
    def test_submit_creates_pending_jobs(self, tmp_path):
        queue = JobQueue(tmp_path)
        ids = queue.submit([_spec(seed=0), _spec(seed=1)])
        assert len(ids) == 2
        assert queue.counts() == {"pending": 2, "claimed": 0, "done": 0,
                                  "failed": 0}
        assert not queue.drained()

    def test_submit_is_idempotent_and_deduplicates(self, tmp_path):
        queue = JobQueue(tmp_path)
        spec = _spec()
        ids = queue.submit([spec, spec])  # in-batch duplicate
        assert ids == [spec.cache_key()]
        queue.submit([spec])  # resubmission
        assert queue.counts()["pending"] == 1

    def test_submit_skips_jobs_already_done(self, tmp_path):
        queue = JobQueue(tmp_path)
        spec = _spec()
        queue.submit([spec])
        job = queue.claim("w1")
        assert queue.complete(job.id, "w1", {"fitted": True})
        queue.submit([spec])
        assert queue.counts() == {"pending": 0, "claimed": 0, "done": 1,
                                  "failed": 0}

    def test_submit_requeues_terminally_failed_jobs(self, tmp_path):
        """Resubmission is the operator's retry switch: a failed/ job
        goes back to pending with a fresh budget and its old traceback
        preserved in the error history."""
        queue = JobQueue(tmp_path, max_retries=0)
        spec = _spec()
        queue.submit([spec])
        job = queue.claim("w1")
        assert queue.fail(job.id, "w1", "transient: disk full") == "failed"
        queue.submit([spec])
        assert queue.counts() == {"pending": 1, "claimed": 0, "done": 0,
                                  "failed": 0}
        retry = queue.claim("w2")
        assert retry.attempts == 1  # fresh budget
        payload = queue.payload(job.id)
        assert "disk full" in payload["errors"][0]["error"]

    def test_claim_round_trips_spec_with_overrides(self, tmp_path):
        queue = JobQueue(tmp_path)
        spec = _spec(model="fairgen", self_paced_cycles=2,
                     walk_length=6)
        queue.submit([spec], with_metrics=True)
        job = queue.claim("w1")
        assert job.spec == spec
        assert job.spec.cache_key() == spec.cache_key()
        assert job.with_metrics
        assert job.attempts == 1

    def test_claim_is_mutually_exclusive(self, tmp_path):
        queue = JobQueue(tmp_path)
        queue.submit([_spec(seed=0), _spec(seed=1)])
        first = queue.claim("w1")
        second = queue.claim("w2")
        assert first.id != second.id
        assert queue.claim("w3") is None
        assert queue.counts()["claimed"] == 2

    def test_claim_writes_lease(self, tmp_path):
        queue = JobQueue(tmp_path)
        queue.submit([_spec()])
        job = queue.claim("w1")
        lease = json.loads(
            (tmp_path / "leases" / f"{job.id}.json").read_text())
        assert lease["worker"] == "w1"
        assert lease["attempt"] == 1

    def test_heartbeat_advances_lease(self, tmp_path):
        queue = JobQueue(tmp_path)
        queue.submit([_spec()])
        job = queue.claim("w1")
        lease_path = tmp_path / "leases" / f"{job.id}.json"
        before = json.loads(lease_path.read_text())["heartbeat_at"]
        time.sleep(0.02)
        assert queue.heartbeat(job.id, "w1")
        after = json.loads(lease_path.read_text())["heartbeat_at"]
        assert after > before

    def test_heartbeat_by_nonowner_rejected(self, tmp_path):
        queue = JobQueue(tmp_path)
        queue.submit([_spec()])
        job = queue.claim("w1")
        assert not queue.heartbeat(job.id, "w2")

    def test_complete_moves_to_done_with_payload(self, tmp_path):
        queue = JobQueue(tmp_path)
        queue.submit([_spec()])
        job = queue.claim("w1")
        assert queue.complete(job.id, "w1", {"fitted": True})
        assert queue.drained()
        payload = queue.payload(job.id)
        assert payload["state"] == "done"
        assert payload["worker"] == "w1"
        assert payload["result"]["fitted"] is True
        assert not (tmp_path / "leases" / f"{job.id}.json").exists()

    def test_complete_by_nonowner_discarded(self, tmp_path):
        queue = JobQueue(tmp_path)
        queue.submit([_spec()])
        job = queue.claim("w1")
        assert not queue.complete(job.id, "imposter", {})
        assert queue.payload(job.id)["state"] == "claimed"

    def test_fail_requeues_within_retry_budget(self, tmp_path):
        queue = JobQueue(tmp_path, max_retries=1)
        queue.submit([_spec()])
        job = queue.claim("w1")
        assert queue.fail(job.id, "w1", "boom") == "requeued"
        assert queue.counts()["pending"] == 1
        retry = queue.claim("w2")
        assert retry.id == job.id
        assert retry.attempts == 2

    def test_fail_exhausts_into_terminal_failed_state(self, tmp_path):
        queue = JobQueue(tmp_path, max_retries=0)
        queue.submit([_spec()])
        job = queue.claim("w1")
        assert queue.fail(job.id, "w1", "Traceback: kaboom") == "failed"
        assert queue.drained()  # failed jobs don't block draining
        payload = queue.payload(job.id)
        assert payload["state"] == "failed"
        assert "kaboom" in payload["failure"]
        assert payload["errors"][0]["worker"] == "w1"

    def test_recover_ignores_fresh_leases(self, tmp_path):
        queue = JobQueue(tmp_path, lease_timeout=30)
        queue.submit([_spec()])
        queue.claim("w1")
        assert queue.recover() == []
        assert queue.counts()["claimed"] == 1

    def test_recover_requeues_expired_lease(self, tmp_path):
        queue = JobQueue(tmp_path, lease_timeout=0.05, max_retries=2)
        queue.submit([_spec()])
        job = queue.claim("w1")
        time.sleep(0.1)
        assert queue.recover() == [job.id]
        assert queue.counts()["pending"] == 1
        retry = queue.claim("w2")
        assert retry.attempts == 2
        # The original worker's lease is gone: its completion is dropped.
        assert not queue.complete(job.id, "w1", {})

    def test_recover_fails_job_out_of_retry_budget(self, tmp_path):
        queue = JobQueue(tmp_path, lease_timeout=0.05, max_retries=0)
        queue.submit([_spec()])
        job = queue.claim("w1")
        time.sleep(0.1)
        assert queue.recover() == []
        payload = queue.payload(job.id)
        assert payload["state"] == "failed"
        assert "lease expired" in payload["failure"]

    def test_config_shared_through_queue_json(self, tmp_path):
        JobQueue(tmp_path, lease_timeout=7.5, max_retries=5)
        reopened = JobQueue(tmp_path)  # no explicit settings
        assert reopened.lease_timeout == 7.5
        assert reopened.max_retries == 5

    def test_wait_times_out(self, tmp_path):
        queue = JobQueue(tmp_path)
        queue.submit([_spec()])
        with pytest.raises(QueueError, match="did not drain"):
            queue.wait(poll=0.01, timeout=0.05)

    def test_fit_log_appends_and_parses(self, tmp_path):
        queue = JobQueue(tmp_path)
        queue.record_fit("job-a", "w1")
        queue.record_fit("job-b", "w2")
        assert queue.fit_log() == [("job-a", "w1"), ("job-b", "w2")]


# ----------------------------------------------------------------------
# Worker
# ----------------------------------------------------------------------
class TestWorker:
    def test_worker_drains_queue_into_shared_cache(self, tmp_path):
        queue = JobQueue(tmp_path / "q")
        specs = [_spec(model=m, seed=s) for m in ("er", "ba")
                 for s in (0, 1)]
        queue.submit(specs, with_metrics=True)
        stats = Worker(queue, tmp_path / "cache", worker_id="w1").run()
        assert stats == {"completed": 4, "failed": 0, "requeued": 0,
                         "lost": 0}
        assert queue.drained()
        # Every artifact replays from the cache with zero fits.
        replayed = Runner(cache_dir=tmp_path / "cache").run_many(
            specs, with_metrics=True)
        assert all(r.from_cache and r.metrics is not None for r in replayed)
        assert len(queue.fit_log()) == len(specs)

    def test_worker_skips_fit_for_warm_cache_jobs(self, tmp_path):
        spec = _spec()
        Runner(cache_dir=tmp_path / "cache").run(spec)  # pre-warm
        queue = JobQueue(tmp_path / "q")
        queue.submit([spec])
        Worker(queue, tmp_path / "cache", worker_id="w1").run()
        payload = queue.payload(spec.cache_key())
        assert payload["state"] == "done"
        assert payload["result"]["fitted"] is False
        assert queue.fit_log() == []  # replay, not a fit

    def test_failing_job_retries_then_lands_in_failed(self, tmp_path):
        queue = JobQueue(tmp_path / "q", max_retries=1)
        bad = ExperimentSpec(model="er", dataset="NO-SUCH-DATASET")
        queue.submit([bad])
        stats = Worker(queue, tmp_path / "cache", worker_id="w1").run()
        assert stats["failed"] == 1  # the terminal attempt
        assert stats["requeued"] == 1  # the first, retried attempt
        payload = queue.payload(bad.cache_key())
        assert payload["state"] == "failed"
        assert payload["attempts"] == 2  # initial try + one retry
        assert "NO-SUCH-DATASET" in payload["failure"]
        assert queue.drained()

    def test_failed_jobs_do_not_poison_the_batch(self, tmp_path):
        queue = JobQueue(tmp_path / "q", max_retries=0)
        good = _spec()
        bad = ExperimentSpec(model="er", dataset="NO-SUCH-DATASET")
        queue.submit([good, bad])
        stats = Worker(queue, tmp_path / "cache", worker_id="w1").run()
        assert stats["completed"] == 1 and stats["failed"] == 1
        assert queue.payload(good.cache_key())["state"] == "done"

    def test_max_jobs_bounds_one_drain(self, tmp_path):
        queue = JobQueue(tmp_path / "q")
        queue.submit([_spec(seed=s) for s in range(3)])
        stats = Worker(queue, tmp_path / "cache",
                       worker_id="w1").run(max_jobs=2)
        assert stats["completed"] == 2
        assert queue.counts()["pending"] == 1

    def test_pool_requires_at_least_one_worker(self, tmp_path):
        with pytest.raises(ValueError):
            LocalWorkerPool(tmp_path / "q", tmp_path / "cache", 0)


# ----------------------------------------------------------------------
# Read-only status dashboard
# ----------------------------------------------------------------------
class TestQueueStatus:
    def test_status_reports_pending_claimed_and_failed(self, tmp_path):
        queue = JobQueue(tmp_path, lease_timeout=30.0, max_retries=0)
        queue.submit([_spec(seed=s) for s in (0, 1, 2)])
        claimed = queue.claim("worker-a")
        failed = queue.claim("worker-a")
        queue.fail(failed.id, "worker-a",
                   "Traceback (most recent call last):\n"
                   "ValueError: boom goes the dataset")

        snapshot = queue.status()
        assert snapshot["counts"] == {"pending": 1, "claimed": 1,
                                      "done": 0, "failed": 1}
        by_state = {}
        for job in snapshot["jobs"]:
            by_state.setdefault(job["state"], []).append(job)

        [pending] = by_state["pending"]
        assert pending["attempts"] == 0 and pending["worker"] is None

        [running] = by_state["claimed"]
        assert running["id"] == claimed.id
        assert running["worker"] == "worker-a"
        assert 0.0 <= running["lease_age"] < 30.0
        assert running["note"] == ""

        [dead] = by_state["failed"]
        assert dead["note"] == "ValueError: boom goes the dataset"
        assert dead["retries"] == 1

    def test_status_flags_expired_leases_without_recovering(self, tmp_path):
        queue = JobQueue(tmp_path, lease_timeout=0.05)
        queue.submit([_spec()])
        job = queue.claim("w")
        time.sleep(0.1)
        snapshot = queue.status()
        [row] = [j for j in snapshot["jobs"] if j["state"] == "claimed"]
        assert row["note"] == "lease expired"
        # Read-only: the job is still claimed, not requeued.
        assert queue.counts()["claimed"] == 1
        assert queue.payload(job.id)["state"] == "claimed"

    def test_status_of_empty_queue(self, tmp_path):
        queue = JobQueue(tmp_path)
        snapshot = queue.status()
        assert snapshot["jobs"] == []
        assert sum(snapshot["counts"].values()) == 0

    def test_cli_sweep_status_renders_dashboard(self, tmp_path, capsys):
        queue = JobQueue(tmp_path / "q")
        queue.submit([_spec(seed=0), _spec(seed=1)])
        queue.claim("cli-worker")
        assert main(["sweep", "--status", os.fspath(tmp_path / "q")]) == 0
        out = capsys.readouterr().out
        assert "pending=1" in out and "claimed=1" in out
        assert "cli-worker" in out

    def test_cli_sweep_status_rejects_missing_queue(self, tmp_path):
        with pytest.raises(SystemExit, match="no queue"):
            main(["sweep", "--status", os.fspath(tmp_path / "nowhere")])

    def test_cli_sweep_status_does_not_scaffold_non_queue_dirs(
            self, tmp_path):
        """--status on an arbitrary existing directory must refuse,
        not silently convert it into a valid empty queue."""
        innocent = tmp_path / "results"
        innocent.mkdir()
        (innocent / "data.txt").write_text("not a queue")
        with pytest.raises(SystemExit, match="no queue"):
            main(["sweep", "--status", os.fspath(innocent)])
        assert sorted(p.name for p in innocent.iterdir()) == ["data.txt"]


# ----------------------------------------------------------------------
# Crash recovery: SIGKILL a worker mid-job
# ----------------------------------------------------------------------
class TestCrashRecovery:
    def test_sigkilled_worker_job_requeues_and_completes_once(
            self, tmp_path):
        """The headline fault-tolerance guarantee, end to end.

        A worker process is SIGKILLed while fitting; its lease stops
        heartbeating and expires; a second worker requeues the job via
        recovery, completes it exactly once, and the final artifacts are
        identical to a sequential ``run_many`` over the same spec.

        The victim checkpoints at its first epoch boundary and then
        blocks (:func:`_victim_worker_main`), so the kill lands at a
        known point rather than racing the fit.  The rescue exercises
        the resume path: the second worker continues the fit from the
        ``.ckpt.npz`` in the shared cache rather than refitting from
        epoch zero — and must still reproduce the sequential run's
        bytes, because the checkpoint carries the exact RNG state.
        """
        spec = _spec(model="fairgen", **SLOW_OVERRIDES)
        queue_dir = tmp_path / "q"
        cache_dir = tmp_path / "cache"
        queue = JobQueue(queue_dir, lease_timeout=1.0, max_retries=2)
        queue.submit([spec], with_metrics=True)

        victim = _mp_context().Process(
            target=_victim_worker_main,
            args=(os.fspath(queue_dir), os.fspath(cache_dir)),
            daemon=True)
        victim.start()
        try:
            ckpt_path = cache_dir / f"{spec.cache_key()}.ckpt.npz"
            deadline = time.monotonic() + 30
            while not ckpt_path.exists():
                assert time.monotonic() < deadline, \
                    "worker never wrote a mid-fit checkpoint"
                assert victim.is_alive(), "worker died before checkpointing"
                time.sleep(0.005)
        finally:
            os.kill(victim.pid, signal.SIGKILL)
            victim.join()

        # The job is stranded mid-execution: claimed, not done.
        assert queue.payload(spec.cache_key())["state"] == "claimed"

        rescuer = Worker(JobQueue(queue_dir), cache_dir,
                         worker_id="rescuer", heartbeat_interval=0.2,
                         few_shot_per_class=3)
        stats = rescuer.run(poll_interval=0.05)
        assert stats["completed"] == 1

        payload = queue.payload(spec.cache_key())
        assert payload["state"] == "done"
        assert payload["worker"] == "rescuer"
        assert payload["attempts"] == 2  # victim's claim + the retry
        assert "lease expired" in payload["errors"][0]["error"]
        # Exactly one *completed* fit: the victim died before reporting.
        assert queue.fit_log() == [(spec.cache_key(), "rescuer")]
        # The finished artifacts superseded the mid-fit checkpoint.
        assert not ckpt_path.exists()

        # Byte-identical outcome vs a sequential run of the same spec.
        [distributed] = Runner(cache_dir=cache_dir,
                               few_shot_per_class=3).run_many(
            [spec], with_metrics=True)
        [sequential] = Runner(cache_dir=tmp_path / "seq",
                              few_shot_per_class=3).run_many(
            [spec], with_metrics=True)
        assert distributed.from_cache and not sequential.from_cache
        assert _adjacency_equal(distributed.generated, sequential.generated)
        assert json.dumps(distributed.metrics, sort_keys=True) == \
            json.dumps(sequential.metrics, sort_keys=True)


# ----------------------------------------------------------------------
# CLI front
# ----------------------------------------------------------------------
class TestSchedulerCLI:
    def test_worker_command_drains_queue(self, tmp_path, capsys):
        queue = JobQueue(tmp_path / "q")
        queue.submit([_spec(seed=s) for s in (0, 1)])
        code = main(["worker", os.fspath(tmp_path / "q"),
                     "--cache-dir", os.fspath(tmp_path / "cache"),
                     "--worker-id", "cli-worker"])
        assert code == 0
        assert "2 completed" in capsys.readouterr().out
        assert queue.drained()

    def test_sweep_command_end_to_end(self, tmp_path, capsys):
        code = main(["sweep",
                     "--queue-dir", os.fspath(tmp_path / "q"),
                     "--cache-dir", os.fspath(tmp_path / "cache"),
                     "--model", "er", "--model", "ba",
                     "--dataset", SMALLEST, "--profile", "smoke",
                     "--seed", "0", "--seed", "1",
                     "--workers", "2", "--with-metrics"])
        out = capsys.readouterr().out
        assert code == 0
        assert "4/4 completed" in out
        assert "0 duplicate fit(s)" in out
        assert "mean R" in out

    def test_sweep_submit_only_then_worker(self, tmp_path, capsys):
        queue_dir = os.fspath(tmp_path / "q")
        cache_dir = os.fspath(tmp_path / "cache")
        assert main(["sweep", "--queue-dir", queue_dir,
                     "--cache-dir", cache_dir,
                     "--model", "er", "--dataset", SMALLEST,
                     "--profile", "smoke", "--submit-only"]) == 0
        assert "submitted" in capsys.readouterr().out
        assert JobQueue(queue_dir).counts()["pending"] == 1
        assert main(["worker", queue_dir, "--cache-dir", cache_dir]) == 0
        assert JobQueue(queue_dir).drained()

    def test_sweep_override_axis(self, tmp_path, capsys):
        code = main(["sweep",
                     "--queue-dir", os.fspath(tmp_path / "q"),
                     "--cache-dir", os.fspath(tmp_path / "cache"),
                     "--model", "gae", "--dataset", SMALLEST,
                     "--profile", "smoke", "--seed", "3",
                     "--set", "epochs=2",
                     "--workers", "1"])
        assert code == 0
        spec = ExperimentSpec(model="gae", dataset=SMALLEST,
                              profile="smoke", seed=3,
                              overrides={"epochs": 2})
        assert JobQueue(tmp_path / "q").payload(
            spec.cache_key())["state"] == "done"

    def test_sweep_rejects_malformed_set(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["sweep", "--queue-dir", os.fspath(tmp_path / "q"),
                  "--cache-dir", os.fspath(tmp_path / "cache"),
                  "--model", "er", "--dataset", SMALLEST,
                  "--set", "not-a-pair"])
