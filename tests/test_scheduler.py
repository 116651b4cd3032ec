"""Tests for the sweep scheduler's fault tolerance and its CLI front:
a sweep child SIGKILLed mid-fit is retried from its checkpoint."""

from __future__ import annotations

import json
import multiprocessing
import os
import signal

import pytest

from repro.cli import main
from repro.experiments import ExperimentSpec, Runner, run_sweep
from repro.graph import Graph
from repro.train import TrainState

SMALLEST = "EMAIL"  # smallest bundled dataset (106 nodes)

#: a multi-epoch FairGen job, so the kill lands well before the fit ends
SLOW_OVERRIDES = {"self_paced_cycles": 3, "generator_steps_per_cycle": 16,
                  "walks_per_cycle": 64}


def _spec(model="er", seed=0, **overrides) -> ExperimentSpec:
    return ExperimentSpec(model=model, dataset=SMALLEST, profile="smoke",
                          seed=seed, overrides=overrides)


def _adjacency_equal(a: Graph, b: Graph) -> bool:
    return (a.adjacency != b.adjacency).nnz == 0


# ----------------------------------------------------------------------
# Crash recovery: a sweep child SIGKILLs itself mid-fit
# ----------------------------------------------------------------------
class TestCrashRecovery:
    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="the patches reach the sweep child only through fork")
    def test_sigkilled_worker_job_requeues_and_completes_once(
            self, tmp_path, monkeypatch):
        """The headline fault-tolerance guarantee, end to end.

        A sweep child is SIGKILLed while fitting; the parent sees it die
        without a report and retries the job, which completes exactly
        once, and the final artifacts are identical to a sequential
        ``run_many`` over the same spec.

        The child checkpoints at every epoch boundary and kills itself
        right after its first checkpoint, unless the marker file says a
        child already did, so the kill lands at a known point rather
        than racing the fit.  The retry exercises the resume path: it
        continues the fit from the ``.ckpt.npz`` in the cache rather
        than refitting from epoch zero — and must still reproduce the
        sequential run's bytes, because the checkpoint carries the
        exact RNG state.
        """
        spec = _spec(model="fairgen", **SLOW_OVERRIDES)
        cache_dir = tmp_path / "cache"
        marker = tmp_path / "killed-once"
        install = Runner._install_train_control
        save = TrainState.save

        def checkpoint_every_epoch(self, spec, model):
            self.checkpoint_interval = 0.0
            install(self, spec, model)

        def save_then_die_once(self, *args, **kwargs):
            save(self, *args, **kwargs)
            if not marker.exists():
                marker.touch()
                os.kill(os.getpid(), signal.SIGKILL)

        with monkeypatch.context() as patch:
            patch.setattr(Runner, "_install_train_control",
                          checkpoint_every_epoch)
            patch.setattr(TrainState, "save", save_then_die_once)
            report = run_sweep([spec], cache_dir, workers=1,
                               with_metrics=True, few_shot_per_class=3,
                               timeout=300)

        key = spec.cache_key()
        assert marker.exists()  # the first child did die mid-fit
        assert report.completed == 1 and not report.failures
        # Two attempts: the killed one, then the retry that completed.
        [error] = report.errors[key]
        assert "SIGKILL" in error
        # Exactly one *completed* fit: the victim died before reporting.
        assert [job for job, _ in report.fits] == [key]
        # The finished artifacts superseded the mid-fit checkpoint.
        assert not (cache_dir / f"{key}.ckpt.npz").exists()

        # Byte-identical outcome vs a sequential run of the same spec.
        [swept] = report.results
        [sequential] = Runner(cache_dir=tmp_path / "seq",
                              few_shot_per_class=3).run_many(
            [spec], with_metrics=True)
        assert swept.from_cache and not sequential.from_cache
        assert _adjacency_equal(swept.generated, sequential.generated)
        assert json.dumps(swept.metrics, sort_keys=True) == \
            json.dumps(sequential.metrics, sort_keys=True)


# ----------------------------------------------------------------------
# CLI front
# ----------------------------------------------------------------------
class TestSchedulerCLI:
    def test_sweep_command_end_to_end(self, tmp_path, capsys):
        code = main(["sweep",
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

    def test_sweep_override_axis(self, tmp_path, capsys):
        code = main(["sweep",
                     "--cache-dir", os.fspath(tmp_path / "cache"),
                     "--model", "gae", "--dataset", SMALLEST,
                     "--profile", "smoke", "--seed", "3",
                     "--set", "epochs=2",
                     "--workers", "1"])
        assert code == 0
        spec = ExperimentSpec(model="gae", dataset=SMALLEST,
                              profile="smoke", seed=3,
                              overrides={"epochs": 2})
        assert Runner(cache_dir=tmp_path / "cache").run(spec).from_cache

    def test_sweep_rejects_malformed_set(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["sweep", "--cache-dir", os.fspath(tmp_path / "cache"),
                  "--model", "er", "--dataset", SMALLEST,
                  "--set", "not-a-pair"])
