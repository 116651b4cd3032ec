"""Tests for the sweep helpers: grid/expand spec batches and the
end-to-end ``run_sweep`` orchestration."""

from __future__ import annotations

import json
import multiprocessing
import threading

import numpy as np
import pytest

from repro.experiments import ExperimentSpec, QueueError, Runner
from repro.experiments.sweep import SweepReport, expand, grid, run_sweep
from repro.obs.metrics import get_registry

SMALLEST = "EMAIL"

#: tests that patch a child's code need it to inherit the parent's memory
needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="patches reach a sweep child only through fork")


# ----------------------------------------------------------------------
# Grid expansion
# ----------------------------------------------------------------------
class TestExpand:
    def test_cartesian_product_over_spec_axes(self):
        specs = expand({"model": ["er", "ba"], "dataset": ["EMAIL", "FB"],
                        "profile": ["smoke", "bench"], "seed": range(3)})
        assert len(specs) == 2 * 2 * 2 * 3
        assert len({s.cache_key() for s in specs}) == len(specs)

    def test_scalars_are_single_value_axes(self):
        specs = expand({"model": "er", "dataset": SMALLEST})
        assert specs == [ExperimentSpec(model="er", dataset=SMALLEST)]

    def test_defaults_profile_paper_seed_zero(self):
        [spec] = expand({"model": "er", "dataset": SMALLEST})
        assert spec.profile == "paper" and spec.seed == 0

    def test_unknown_axes_become_override_axes(self):
        specs = expand({"model": "gae", "dataset": SMALLEST,
                        "profile": "smoke", "epochs": [2, 4]})
        assert len(specs) == 2
        assert sorted(s.override_dict["epochs"] for s in specs) == [2, 4]

    def test_deduplicates_aliases(self):
        specs = expand({"model": ["er", "ER"], "dataset": SMALLEST})
        assert len(specs) == 1

    def test_requires_model_and_dataset(self):
        with pytest.raises(ValueError, match="model"):
            expand({"dataset": SMALLEST})
        with pytest.raises(ValueError, match="dataset"):
            expand({"model": "er"})

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            expand({"model": [], "dataset": SMALLEST})

    def test_unknown_model_rejected_eagerly(self):
        with pytest.raises(KeyError):
            expand({"model": "warp-drive", "dataset": SMALLEST})

    def test_unknown_profile_rejected_eagerly(self):
        with pytest.raises(KeyError):
            expand({"model": "er", "dataset": SMALLEST,
                    "profile": "warp-speed"})


class TestGrid:
    def test_models_by_datasets_by_seeds(self):
        specs = grid(["er", "ba"], ["EMAIL", "FB"], profiles="smoke",
                     seeds=[0, 1])
        assert len(specs) == 8
        assert all(s.profile == "smoke" for s in specs)

    def test_shared_override_axes(self):
        specs = grid("gae", SMALLEST, profiles="smoke",
                     overrides={"epochs": [2, 4]})
        assert len(specs) == 2

    def test_per_model_overrides_apply_to_that_model_only(self):
        specs = grid(["fairgen", "er"], SMALLEST, profiles="smoke",
                     per_model={"FairGen": {"self_paced_cycles": 1}})
        by_model = {s.model: s for s in specs}
        assert by_model["fairgen"].override_dict == {"self_paced_cycles": 1}
        assert by_model["er"].override_dict == {}

    def test_per_model_with_unknown_model_rejected(self):
        with pytest.raises(KeyError):
            grid("er", SMALLEST, per_model={"warp-drive": {}})

    def test_display_names_collapse_with_canonical(self):
        specs = grid(["FairGen-R", "fairgen-r"], SMALLEST,
                     profiles="smoke")
        assert len(specs) == 1


# ----------------------------------------------------------------------
# run_sweep orchestration
# ----------------------------------------------------------------------
class TestRunSweep:
    def test_two_worker_sweep_matches_sequential(self, tmp_path):
        """The acceptance shape: >= 4 specs, 2 workers, zero duplicate
        fits, results identical to a sequential ``run_many``."""
        specs = grid(["er", "ba", "gae", "taggen"], SMALLEST,
                     profiles="smoke")
        assert len(specs) >= 4
        progress_log = []
        report = run_sweep(specs, tmp_path / "cache", workers=2,
                           with_metrics=True, timeout=300,
                           progress=progress_log.append)
        assert report.completed == len(specs)
        assert not report.failures
        assert len(report.fits) == len(specs)
        assert report.duplicate_fits == 0
        assert progress_log and progress_log[-1]["done"] == len(specs)

        sequential = Runner(cache_dir=tmp_path / "seq").run_many(
            specs, with_metrics=True)
        for got, want in zip(report.results, sequential):
            assert (got.generated.adjacency
                    != want.generated.adjacency).nnz == 0
            assert json.dumps(got.metrics, sort_keys=True) == \
                json.dumps(want.metrics, sort_keys=True)

    def test_resubmitted_sweep_is_a_warm_replay(self, tmp_path):
        specs = grid(["er", "ba"], SMALLEST, profiles="smoke")
        first = run_sweep(specs, tmp_path / "cache", workers=1,
                          timeout=300)
        assert len(first.fits) == len(specs)
        again = run_sweep(specs, tmp_path / "cache", workers=1,
                          timeout=300)
        assert again.completed == len(specs)
        assert again.fits == []  # every child replayed the warm cache
        assert all(r.from_cache for r in again.results)

    def test_each_cache_gets_its_own_fits(self, tmp_path):
        """Two sweeps of one batch into two caches: each call's children
        fit every spec, and the parent's replay fits nothing."""
        specs = grid(["er", "ba"], SMALLEST, profiles="smoke",
                     seeds=[0, 1])
        parent_fits = get_registry().counter("runner_fits_total")
        for cache in ("cacheA", "cacheB"):
            before = parent_fits.total()
            report = run_sweep(specs, tmp_path / cache, workers=2,
                               timeout=300)
            assert report.completed == len(specs)
            assert sorted(job for job, _ in report.fits) == \
                sorted(spec.cache_key() for spec in specs)
            assert parent_fits.total() == before

    @needs_fork
    def test_rerun_resumes_a_mid_fit_checkpoint(self, tmp_path,
                                                monkeypatch):
        """A sweep stopped mid-fit leaves only a checkpoint in the cache;
        the rerun starts its child at once and resumes the fit there."""
        from repro.models import gae as gae_module
        from repro.registry import get_entry
        from repro.train import TrainState

        spec = ExperimentSpec(model="gae", dataset=SMALLEST,
                              profile="smoke")
        cache = tmp_path / "cache"
        runner = Runner(cache_dir=cache, checkpoint_interval=0.0)
        model = get_entry(spec.model).build(spec.profile, spec.override_dict)
        runner._install_train_control(spec, model)
        save = TrainState.save

        def save_then_stop(self, *args, **kwargs):
            save(self, *args, **kwargs)
            if self.epoch >= 2:
                raise RuntimeError("stopped mid-fit")

        with monkeypatch.context() as patch, \
                pytest.raises(RuntimeError, match="stopped mid-fit"):
            patch.setattr(TrainState, "save", save_then_stop)
            model.fit(runner.dataset(spec.dataset).graph, spec.rng(stream=0))
        ckpt = runner.checkpoint_path(spec)
        assert ckpt.exists()

        log = tmp_path / "epochs.log"
        epoch = gae_module._GAETask.epoch

        def logged_epoch(self, state, rng):
            with open(log, "a") as fh:
                fh.write(f"{state.epoch}\n")
            return epoch(self, state, rng)

        monkeypatch.setattr(gae_module._GAETask, "epoch", logged_epoch)
        report = run_sweep([spec], cache, workers=1, timeout=300)
        assert report.completed == 1 and len(report.fits) == 1
        assert log.read_text().split()[0] == "2"  # resumed, not refit
        assert not ckpt.exists()
        # No claim or lease is left to wait out: a sub-second job stays
        # far below the 60 s a stranded lease used to cost.
        assert report.seconds < 30

    def test_failures_reported_not_raised(self, tmp_path):
        bad = ExperimentSpec(model="er", dataset="NO-SUCH-DATASET")
        good = ExperimentSpec(model="er", dataset=SMALLEST,
                              profile="smoke")
        report = run_sweep([good, bad], tmp_path / "cache", workers=1,
                           timeout=300)
        assert report.completed == 1
        assert report.results[0] is not None and report.results[1] is None
        assert list(report.failures) == [bad.cache_key()]
        # Three attempts, each failing with the same traceback.
        errors = report.errors[bad.cache_key()]
        assert len(errors) == 3
        assert all("NO-SUCH-DATASET" in error for error in errors)
        assert report.failures[bad.cache_key()] == errors[-1]
        with pytest.raises(Exception, match="NO-SUCH-DATASET"):
            report.raise_on_failure()

    @pytest.mark.parametrize("workers", [0, -1])
    def test_negative_workers_rejected_before_submission(self, tmp_path,
                                                         workers):
        specs = grid("er", SMALLEST, profiles="smoke")
        with pytest.raises(ValueError, match="workers must be >= 1"):
            run_sweep(specs, tmp_path / "cache", workers=workers, timeout=2)
        assert not (tmp_path / "cache").exists()  # nothing ran

    @needs_fork
    def test_long_traceback_reaches_the_parent(self, tmp_path, monkeypatch):
        """An error report larger than a pipe's buffer must not leave its
        child blocked in ``send``: the parent reads while it waits."""
        def fail_loudly(*args, **kwargs):
            raise RuntimeError("x" * 300_000)

        monkeypatch.setattr(Runner, "run", fail_loudly)
        spec = ExperimentSpec(model="er", dataset=SMALLEST, profile="smoke")
        report = run_sweep([spec], tmp_path / "cache", workers=1,
                           timeout=120)
        assert len(report.errors[spec.cache_key()]) == 3
        assert "x" * 300_000 in report.failures[spec.cache_key()]

    @needs_fork
    def test_timeout_kills_every_child(self, tmp_path, monkeypatch):
        """Past its timeout the sweep raises and leaves no child alive,
        here with every child blocked inside its run."""
        monkeypatch.setattr(Runner, "run",
                            lambda *args, **kwargs: threading.Event().wait())
        specs = grid("er", SMALLEST, profiles="smoke", seeds=[0, 1, 2])
        with pytest.raises(QueueError, match="did not drain"):
            run_sweep(specs, tmp_path / "cache", workers=2, timeout=0.5)
        assert multiprocessing.active_children() == []

    def test_report_alignment_with_duplicate_specs(self, tmp_path):
        spec = ExperimentSpec(model="er", dataset=SMALLEST,
                              profile="smoke")
        report = run_sweep([spec, spec], tmp_path / "cache", workers=1,
                           timeout=300)
        assert len(report.results) == 2
        assert all(r is not None for r in report.results)
        assert report.job_ids == [spec.cache_key(), spec.cache_key()]
        assert len(report.fits) == 1  # one job for both


class TestSweepReport:
    def test_duplicate_fit_counter(self):
        report = SweepReport(specs=[], job_ids=[], results=[],
                             fits=[("a", "w1"), ("a", "w2"), ("b", "w1")])
        assert report.duplicate_fits == 1


class TestScoreboard:
    @staticmethod
    def _result(spec, overall, protected=None, surrogate=False):
        from repro.experiments import RunResult
        from repro.graph import Graph

        metrics = {"overall": {}, "overall_mean": overall}
        if protected is not None:
            metrics["protected_mean"] = protected
            metrics["protected_surrogate"] = surrogate
        return RunResult(spec=spec,
                         generated=Graph.from_edges(2, [(0, 1)]),
                         fit_seconds=0.0, generate_seconds=0.0,
                         metrics=metrics)

    def _report(self):
        specs = [ExperimentSpec(model="er", dataset=SMALLEST,
                                profile="smoke", seed=s) for s in (0, 1, 2)]
        specs.append(ExperimentSpec(model="ba", dataset=SMALLEST,
                                    profile="smoke"))
        specs.append(ExperimentSpec(model="ba", dataset="FB",
                                    profile="smoke"))
        results = [self._result(specs[0], 0.1),
                   self._result(specs[1], 0.2),
                   self._result(specs[2], 0.3),
                   self._result(specs[3], 0.5, protected=0.4,
                                surrogate=True),
                   None]  # the FB job failed
        return SweepReport(specs=specs,
                           job_ids=[s.cache_key() for s in specs],
                           results=results)

    def test_seed_averaged_mean_and_std_per_cell(self):
        board = self._report().scoreboard()
        by_key = {(r["model"], r["dataset"]): r for r in board}
        er = by_key[("ER", SMALLEST)]
        assert er["seeds"] == 3
        assert er["overall_mean"] == pytest.approx(0.2)
        assert er["overall_std"] == pytest.approx(
            float(np.std([0.1, 0.2, 0.3])))
        assert "protected_mean" not in er

    def test_protected_and_surrogate_flag_propagate(self):
        board = self._report().scoreboard()
        ba = next(r for r in board if r["model"] == "BA")
        assert ba["protected_mean"] == pytest.approx(0.4)
        assert ba["protected_std"] == pytest.approx(0.0)
        assert ba["protected_surrogate"] is True

    def test_failed_jobs_and_metricless_results_are_skipped(self):
        report = self._report()
        # A metrics-free result (sweep ran without with_metrics).
        report.results[0].metrics = None
        board = report.scoreboard()
        er = next(r for r in board if r["model"] == "ER")
        assert er["seeds"] == 2  # seed 0 dropped, failed FB job dropped
        assert all(r["dataset"] != "FB" for r in board)

    def test_rows_sorted_by_model_dataset_profile(self):
        board = self._report().scoreboard()
        keys = [(r["model"], r["dataset"], r["profile"]) for r in board]
        # canonical (lowercase) model names drive the sort order
        assert keys == sorted(keys, key=lambda k: (k[0].lower(), *k[1:]))

    def test_empty_report_gives_empty_board(self):
        assert SweepReport(specs=[], job_ids=[],
                           results=[]).scoreboard() == []

    def test_override_axes_form_separate_cells(self):
        """Specs differing only in overrides must not be averaged
        together as if they were seeds of one configuration."""
        specs = [ExperimentSpec(model="gae", dataset=SMALLEST,
                                profile="smoke", seed=s,
                                overrides={"epochs": e})
                 for e in (2, 4) for s in (0, 1)]
        results = [self._result(s, 0.1 * (i + 1))
                   for i, s in enumerate(specs)]
        board = SweepReport(specs=specs,
                            job_ids=[s.cache_key() for s in specs],
                            results=results).scoreboard()
        assert len(board) == 2  # one cell per epochs value
        assert all(row["seeds"] == 2 for row in board)
        assert sorted(row["overrides"]["epochs"] for row in board) == [2, 4]

    def test_live_sweep_scoreboard_matches_runner_metrics(self, tmp_path):
        specs = grid("er", SMALLEST, profiles="smoke", seeds=[0, 1])
        report = run_sweep(specs, tmp_path / "cache", workers=1,
                           with_metrics=True, timeout=300)
        [row] = report.scoreboard()
        values = [r.metrics["overall_mean"] for r in report.results]
        assert row["seeds"] == 2
        assert row["overall_mean"] == pytest.approx(np.mean(values))
        assert row["overall_std"] == pytest.approx(np.std(values))
