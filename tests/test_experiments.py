"""Tests for the unified experiment API: registry, supervision, Runner."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cli import main
from repro.core.serialization import load_graph, save_graph
from repro.data import load_dataset
from repro.experiments import (ExperimentSpec, Runner, Supervision,
                               benchmark_model_names, create_model,
                               display_name, get_entry, model_names,
                               profile_names)
from repro.graph import Graph
from repro.models import GraphGenerativeModel
from repro.models.random_models import ERModel

SMALLEST = "EMAIL"  # smallest bundled dataset (106 nodes)


def _adjacency_equal(a: Graph, b: Graph) -> bool:
    return (a.adjacency != b.adjacency).nnz == 0


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_every_name_constructs_under_every_profile(self):
        for name in model_names():
            for profile in profile_names():
                model = create_model(name, profile=profile)
                assert isinstance(model, GraphGenerativeModel), (name,
                                                                 profile)

    def test_display_names_resolve_to_same_entry(self):
        for name in model_names():
            entry = get_entry(name)
            assert get_entry(entry.display_name) is entry
            for alias in entry.aliases:
                assert get_entry(alias) is entry

    def test_benchmark_scoreboard_order(self):
        assert benchmark_model_names() == [
            "FairGen", "FairGen-R", "FairGen-w/o-SPL",
            "FairGen-w/o-Parity", "ER", "BA", "GAE", "NetGAN", "TagGen"]

    def test_unknown_model_rejected(self):
        with pytest.raises(KeyError):
            get_entry("bogus")

    def test_unknown_profile_rejected(self):
        with pytest.raises(KeyError):
            create_model("er", profile="warp-speed")

    def test_overrides_apply_on_top_of_profile(self):
        model = create_model("fairgen", profile="bench",
                             overrides={"self_paced_cycles": 1})
        assert model.config.self_paced_cycles == 1
        assert model.config.walks_per_cycle == 96  # bench value kept

    def test_fairgen_variants_need_supervision(self):
        assert get_entry("fairgen").needs_supervision
        assert not get_entry("er").needs_supervision

    def test_display_name_helper(self):
        assert display_name("fairgen-no-spl") == "FairGen-w/o-SPL"

    def test_alias_collision_rejected_without_partial_state(self):
        from repro.registry import register_model

        with pytest.raises(ValueError, match="collides"):
            # Display name shadows an existing canonical name.
            register_model("shadow-test", display_name="ER",
                           profiles={"paper": {}, "bench": {},
                                     "smoke": {}})(lambda **kw: None)
        # The failed registration must not leave a half-registered entry.
        assert "shadow-test" not in model_names()
        assert get_entry("er").name == "er"  # still the real ER


# ----------------------------------------------------------------------
# Supervision
# ----------------------------------------------------------------------
class TestSupervision:
    def test_from_labeled_dataset_uses_real_labels(self, rng):
        data = load_dataset("BLOG")
        sup = Supervision.from_dataset(data, rng=rng)
        assert not sup.surrogate
        assert sup.num_classes == data.num_classes
        assert np.array_equal(sup.labels, data.labels)
        # few-shot set covers every class
        assert set(sup.labeled_classes) == set(range(data.num_classes))
        assert np.array_equal(sup.labels[sup.labeled_nodes],
                              sup.labeled_classes)

    def test_unlabeled_dataset_falls_back_to_surrogate(self, rng):
        data = load_dataset(SMALLEST)
        sup = Supervision.from_dataset(data, rng=rng)
        assert sup.surrogate
        assert sup.num_classes == 2
        # protected group = bottom-quartile degrees, a strict minority
        assert 0 < sup.protected_mask.sum() < data.graph.num_nodes

    def test_unlabeled_dataset_without_surrogate_raises(self, rng):
        with pytest.raises(ValueError, match="has no labels"):
            Supervision.from_dataset(load_dataset(SMALLEST), rng=rng,
                                     allow_surrogate=False)

    def test_surrogate_on_degenerate_degree_graph(self, rng):
        # A cycle graph: every node has degree 2, so the quantile split
        # degenerates and the node-id fallback must kick in.
        n = 24
        cycle = Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])
        sup = Supervision.surrogate_for(cycle, rng=rng)
        assert 0 < sup.protected_mask.sum() < n
        assert sup.protected_mask.sum() == n // 4
        assert set(sup.labeled_classes) == {0, 1}

    def test_fit_kwargs_match_fields(self, rng):
        sup = Supervision.from_dataset(load_dataset("BLOG"), rng=rng)
        kwargs = sup.fit_kwargs()
        assert kwargs["num_classes"] == sup.num_classes
        assert kwargs["labeled_nodes"] is sup.labeled_nodes

    def test_baselines_accept_and_ignore_supervision(self, rng,
                                                     triangle_graph):
        sup = Supervision.surrogate_for(triangle_graph, rng=rng)
        model = ERModel().fit(triangle_graph, rng, supervision=sup)
        assert model.is_fitted


# ----------------------------------------------------------------------
# Graph serialization (cache storage format)
# ----------------------------------------------------------------------
class TestGraphSerialization:
    def test_roundtrip(self, tmp_path, two_cliques_graph):
        path = tmp_path / "g.npz"
        save_graph(two_cliques_graph, path)
        restored = load_graph(path)
        assert _adjacency_equal(two_cliques_graph, restored)

    def test_rejects_foreign_archive(self, tmp_path):
        path = tmp_path / "not_a_graph.npz"
        np.savez_compressed(path, something=np.arange(3))
        with pytest.raises(ValueError, match="not a graph archive"):
            load_graph(path)


# ----------------------------------------------------------------------
# Runner + cache
# ----------------------------------------------------------------------
class TestRunner:
    SPEC = ExperimentSpec(model="er", dataset=SMALLEST, profile="bench",
                          seed=7)

    def test_spec_normalises_names(self):
        spec = ExperimentSpec(model="FairGen-R", dataset="email")
        assert spec.model == "fairgen-r"
        assert spec.dataset == "EMAIL"

    def test_spec_overrides_hashable_and_in_cache_key(self):
        a = ExperimentSpec(model="er", dataset=SMALLEST,
                           overrides={"x": 1})
        b = ExperimentSpec(model="er", dataset=SMALLEST)
        assert hash(a) != hash(b) or a != b
        assert a.cache_key() != b.cache_key()

    def test_deterministic_across_runner_instances(self):
        r1 = Runner().run(self.SPEC)
        r2 = Runner().run(self.SPEC)
        assert _adjacency_equal(r1.generated, r2.generated)

    def test_memory_cache_hit_returns_same_result(self):
        runner = Runner()
        first = runner.run(self.SPEC)
        again = runner.run(self.SPEC)
        assert again is first
        assert again.model is not None  # fitted model retained in-session

    def test_disk_cache_miss_then_hit(self, tmp_path):
        runner = Runner(cache_dir=tmp_path)
        cold = runner.run(self.SPEC)
        assert not cold.from_cache
        key = self.SPEC.cache_key()
        assert (tmp_path / f"{key}.npz").exists()
        metadata = json.loads((tmp_path / f"{key}.json").read_text())
        assert metadata["spec"]["model"] == "er"

        warm = Runner(cache_dir=tmp_path).run(self.SPEC)
        assert warm.from_cache
        assert _adjacency_equal(cold.generated, warm.generated)
        assert warm.fit_seconds == pytest.approx(cold.fit_seconds)

    def test_warm_cache_performs_zero_fitting(self, tmp_path,
                                              monkeypatch):
        Runner(cache_dir=tmp_path).run(self.SPEC)

        def _no_fit(*args, **kwargs):
            raise AssertionError("cached run must not fit")

        monkeypatch.setattr(ERModel, "fit", _no_fit)
        # A fresh Runner simulates a new process against the same dir.
        result = Runner(cache_dir=tmp_path).run(self.SPEC)
        assert result.from_cache
        assert result.model is None

    def test_need_model_refits_after_disk_hit(self, tmp_path):
        Runner(cache_dir=tmp_path).run(self.SPEC)
        runner = Runner(cache_dir=tmp_path)
        cached = runner.run(self.SPEC)
        assert cached.model is None
        modeled = runner.run(self.SPEC, need_model=True)
        assert modeled.model is not None and modeled.model.is_fitted
        assert _adjacency_equal(cached.generated, modeled.generated)

    def test_warm_cache_satisfies_need_model_with_zero_fits(
            self, tmp_path, monkeypatch):
        # A plain run persists the fitted model alongside the artifact;
        # a later need_model run must replay it without any fitting.
        Runner(cache_dir=tmp_path).run(self.SPEC)
        assert (tmp_path / f"{self.SPEC.cache_key()}.model.npz").exists()

        fits: list[int] = []
        original = ERModel.fit

        def counting_fit(model, *args, **kwargs):
            fits.append(1)
            return original(model, *args, **kwargs)

        monkeypatch.setattr(ERModel, "fit", counting_fit)
        result = Runner(cache_dir=tmp_path).run(self.SPEC, need_model=True)
        assert result.from_cache
        assert result.model is not None and result.model.is_fitted
        assert fits == []  # zero fits on a warm cache

    def test_need_model_stamp_mismatch_refits(self, tmp_path):
        # A stale stamp must invalidate the model artifact too, not
        # replay a model fitted under different resolved parameters.
        spec = ExperimentSpec(model="fairgen", dataset=SMALLEST,
                              profile="smoke")
        Runner(cache_dir=tmp_path).run(spec, need_model=True)
        miss = Runner(cache_dir=tmp_path, few_shot_per_class=5).run(
            spec, need_model=True)
        assert not miss.from_cache
        assert miss.model is not None and miss.model.is_fitted

    def test_metrics_attached_and_cached(self, tmp_path):
        runner = Runner(cache_dir=tmp_path)
        result = runner.run(self.SPEC, with_metrics=True)
        assert np.isfinite(result.metrics["overall_mean"])
        # surrogate protected group => protected scoreboard exists too
        assert "protected_mean" in result.metrics
        metadata = json.loads(
            (tmp_path / f"{self.SPEC.cache_key()}.json").read_text())
        assert metadata["metrics"]["overall_mean"] == pytest.approx(
            result.metrics["overall_mean"])

    def test_cache_invalidated_when_supervision_settings_change(
            self, tmp_path):
        # The artifact depends on the few-shot budget for label-aware
        # models; a Runner with a different budget must not replay it.
        spec = ExperimentSpec(model="fairgen", dataset=SMALLEST,
                              profile="smoke")
        Runner(cache_dir=tmp_path).run(spec)
        hit = Runner(cache_dir=tmp_path).run(spec)
        assert hit.from_cache
        miss = Runner(cache_dir=tmp_path, few_shot_per_class=5).run(spec)
        assert not miss.from_cache

    def test_supervision_shared_across_model_variants(self):
        # The paper's ablations compare variants trained on the SAME
        # few-shot labeled set; only the seed/dataset may change it.
        runner = Runner()
        sups = [runner.supervision_for(
                    ExperimentSpec(model=m, dataset="BLOG", seed=4))
                for m in ("fairgen", "fairgen-r")]
        assert np.array_equal(sups[0].labeled_nodes, sups[1].labeled_nodes)
        other_seed = runner.supervision_for(
            ExperimentSpec(model="fairgen", dataset="BLOG", seed=5))
        assert not np.array_equal(sups[0].labeled_nodes,
                                  other_seed.labeled_nodes)

    def test_cache_stamp_includes_allow_surrogate(self, tmp_path):
        Runner(cache_dir=tmp_path).run(self.SPEC, with_metrics=True)
        # --no-surrogate-labels must not replay surrogate-based metrics.
        miss = Runner(cache_dir=tmp_path, allow_surrogate=False).run(
            self.SPEC, with_metrics=True)
        assert not miss.from_cache
        assert "protected_mean" not in miss.metrics

    def test_need_model_refit_preserves_cached_metrics(self, tmp_path,
                                                       monkeypatch):
        runner = Runner(cache_dir=tmp_path)
        runner.run(self.SPEC, with_metrics=True)
        fresh = Runner(cache_dir=tmp_path)
        fresh.run(self.SPEC, need_model=True)
        metadata = json.loads(
            (tmp_path / f"{self.SPEC.cache_key()}.json").read_text())
        assert metadata["metrics"] is not None
        # The preserved metrics are reused, never recomputed.
        import repro.experiments.runner as runner_mod

        def _no_recompute(*args, **kwargs):
            raise AssertionError("metrics must come from the cache")

        monkeypatch.setattr(runner_mod, "overall_discrepancy",
                            _no_recompute)
        result = fresh.run(self.SPEC, with_metrics=True)
        assert np.isfinite(result.metrics["overall_mean"])

    def test_surrogate_protected_metrics_are_flagged(self):
        result = Runner().run(self.SPEC, with_metrics=True)
        assert result.metrics["protected_surrogate"] is True
        labeled = Runner().run(
            ExperimentSpec(model="er", dataset="BLOG", seed=1),
            with_metrics=True)
        assert labeled.metrics["protected_surrogate"] is False

    def test_unhashable_override_values_are_frozen(self):
        spec = ExperimentSpec(model="gae", dataset=SMALLEST,
                              overrides={"shape": [32, 16]})
        assert hash(spec) is not None
        assert spec.override_dict["shape"] == (32, 16)

    def test_corrupt_cache_entry_recomputes(self, tmp_path):
        runner = Runner(cache_dir=tmp_path)
        runner.run(self.SPEC)
        (tmp_path / f"{self.SPEC.cache_key()}.npz").write_bytes(b"junk")
        result = Runner(cache_dir=tmp_path).run(self.SPEC)
        assert not result.from_cache  # fell back to recomputation

    def test_run_many_sequential(self, tmp_path):
        specs = [ExperimentSpec(model=m, dataset=SMALLEST, profile="bench",
                                seed=7) for m in ("er", "ba")]
        results = Runner(cache_dir=tmp_path).run_many(specs)
        assert [r.spec.model for r in results] == ["er", "ba"]
        assert all(not r.from_cache for r in results)

    def test_custom_model_degrades_to_graph_only_caching(self, tmp_path):
        # A third-party registry model without the serialization hooks
        # must not crash cached runs: the graph artifact is persisted,
        # the model archive is skipped, and need_model refits.
        from repro.experiments import register_model
        from repro.models import GraphGenerativeModel

        class EchoModel(GraphGenerativeModel):
            name = "Echo"

            def fit(self, graph, rng, supervision=None):
                self._fitted_graph = graph
                return self

            def generate(self, rng):
                return self._fitted_graph

        try:
            register_model(
                "echo-test", benchmarked=False,
                profiles={p: {} for p in profile_names()})(
                    lambda **kw: EchoModel())
        except ValueError:
            pass  # already registered by an earlier run in this process

        spec = ExperimentSpec(model="echo-test", dataset=SMALLEST)
        cold = Runner(cache_dir=tmp_path).run(spec)
        assert not cold.from_cache
        assert (tmp_path / f"{spec.cache_key()}.npz").exists()
        assert not (tmp_path / f"{spec.cache_key()}.model.npz").exists()
        warm = Runner(cache_dir=tmp_path).run(spec)
        assert warm.from_cache  # graph-only entry still replays
        modeled = Runner(cache_dir=tmp_path).run(spec, need_model=True)
        assert modeled.model is not None and modeled.model.is_fitted

    def test_surrogate_disabled_raises_for_labelled_models(self):
        runner = Runner(allow_surrogate=False)
        spec = ExperimentSpec(model="fairgen", dataset=SMALLEST,
                              profile="smoke")
        with pytest.raises(ValueError, match="has no labels"):
            runner.run(spec)


# ----------------------------------------------------------------------
# CLI smoke through the experiment API
# ----------------------------------------------------------------------
class TestCLISmoke:
    def test_generate_evaluate_through_runner_cache(self, tmp_path,
                                                    capsys):
        cache = str(tmp_path)
        argv = ["generate", "--dataset", SMALLEST, "--model", "er",
                "--profile", "smoke", "--cache-dir", cache]
        assert main(argv) == 0
        assert "generated" in capsys.readouterr().out
        # Second invocation replays the artifact from disk.
        assert main(argv) == 0
        assert "(cached)" in capsys.readouterr().out

    def test_evaluate_fairgen_on_unlabeled_dataset(self, capsys):
        # The old CLI refused EMAIL outright; surrogate supervision
        # (default on) makes all seven datasets work like the benchmarks.
        assert main(["evaluate", "--dataset", SMALLEST, "--model",
                     "fairgen", "--profile", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "mean R" in out
        assert "mean R+" in out

    def test_augment_smallest_labeled_dataset(self, capsys):
        assert main(["augment", "--dataset", "BLOG", "--model", "er",
                     "--profile", "smoke", "--fraction", "0.02"]) == 0
        out = capsys.readouterr().out
        assert "augmented accuracy" in out

    def test_models_command_lists_registry(self, capsys):
        assert main(["models"]) == 0
        out = capsys.readouterr().out
        for name in ("fairgen", "er", "taggen", "graphrnn"):
            assert name in out
