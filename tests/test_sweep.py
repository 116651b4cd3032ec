"""Tests for the sweep helpers: grid/expand spec batches and the
end-to-end ``run_sweep`` orchestration."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.experiments import ExperimentSpec, JobQueue, Runner
from repro.experiments.sweep import SweepReport, expand, grid, run_sweep

SMALLEST = "EMAIL"


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
        report = run_sweep(specs, tmp_path / "q", tmp_path / "cache",
                           workers=2, with_metrics=True,
                           lease_timeout=30.0, timeout=300,
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
        first = run_sweep(specs, tmp_path / "q", tmp_path / "cache",
                          workers=1, timeout=300)
        assert len(first.fits) == len(specs)
        again = run_sweep(specs, tmp_path / "q", tmp_path / "cache",
                          workers=1, timeout=300)
        assert again.completed == len(specs)
        assert len(again.fits) == len(specs)  # no new fits recorded
        assert all(r.from_cache for r in again.results)

    def test_failures_reported_not_raised(self, tmp_path):
        bad = ExperimentSpec(model="er", dataset="NO-SUCH-DATASET")
        good = ExperimentSpec(model="er", dataset=SMALLEST,
                              profile="smoke")
        report = run_sweep([good, bad], tmp_path / "q", tmp_path / "cache",
                           workers=1, max_retries=0, timeout=300)
        assert report.completed == 1
        assert report.results[0] is not None and report.results[1] is None
        assert list(report.failures) == [bad.cache_key()]
        with pytest.raises(Exception, match="NO-SUCH-DATASET"):
            report.raise_on_failure()

    def test_workers_zero_with_external_worker(self, tmp_path):
        """workers=0 submits and waits; an 'external' drain (here: a
        pre-drained queue) satisfies it."""
        from repro.experiments import Worker

        specs = grid("er", SMALLEST, profiles="smoke")
        queue = JobQueue(tmp_path / "q")
        queue.submit(specs)
        Worker(queue, tmp_path / "cache", worker_id="external").run()
        report = run_sweep(specs, tmp_path / "q", tmp_path / "cache",
                           workers=0, timeout=60)
        assert report.completed == len(specs)

    def test_negative_workers_rejected_before_submission(self, tmp_path):
        specs = grid("er", SMALLEST, profiles="smoke")
        with pytest.raises(ValueError, match="workers must be >= 0"):
            run_sweep(specs, tmp_path / "q", tmp_path / "cache",
                      workers=-1, timeout=2)
        assert not (tmp_path / "q").exists()  # nothing was enqueued

    def test_report_alignment_with_duplicate_specs(self, tmp_path):
        spec = ExperimentSpec(model="er", dataset=SMALLEST,
                              profile="smoke")
        report = run_sweep([spec, spec], tmp_path / "q",
                           tmp_path / "cache", workers=1, timeout=300)
        assert len(report.results) == 2
        assert all(r is not None for r in report.results)
        assert report.job_ids == [spec.cache_key(), spec.cache_key()]


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
        report = run_sweep(specs, tmp_path / "q", tmp_path / "cache",
                           workers=1, with_metrics=True, timeout=300)
        [row] = report.scoreboard()
        values = [r.metrics["overall_mean"] for r in report.results]
        assert row["seeds"] == 2
        assert row["overall_mean"] == pytest.approx(np.mean(values))
        assert row["overall_std"] == pytest.approx(np.std(values))
