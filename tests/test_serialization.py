"""Tests for module, model-zoo and FairGen persistence."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import FairGen, FairGenConfig, load_model, save_model
from repro.experiments import Supervision
from repro.graph import planted_protected_graph
from repro.nn import MLP, Tensor, load_state, save_state
from repro.registry import create_model, get_entry


class TestModuleSerialization:
    def test_roundtrip(self, rng, tmp_path):
        path = tmp_path / "mlp.npz"
        src = MLP([4, 8, 2], rng)
        save_state(src, path)
        dst = MLP([4, 8, 2], np.random.default_rng(99))
        load_state(dst, path)
        x = Tensor(rng.normal(size=(3, 4)))
        np.testing.assert_allclose(src(x).numpy(), dst(x).numpy())

    def test_wrong_architecture_rejected(self, rng, tmp_path):
        path = tmp_path / "mlp.npz"
        save_state(MLP([4, 8, 2], rng), path)
        with pytest.raises((KeyError, ValueError)):
            load_state(MLP([4, 16, 2], rng), path)

    def test_empty_module_rejected(self, tmp_path):
        from repro.nn import Module

        class Empty(Module):
            pass

        with pytest.raises(ValueError):
            save_state(Empty(), tmp_path / "e.npz")


class TestFairGenSerialization:
    @pytest.fixture(scope="class")
    def trained(self):
        rng = np.random.default_rng(17)
        graph, labels, protected = planted_protected_graph(
            40, 10, rng, p_in=0.3, p_out=0.03, num_classes=2,
            protected_as_class=True)
        few = np.concatenate([np.flatnonzero(labels == c)[:2]
                              for c in range(3)])
        model = FairGen(FairGenConfig(
            self_paced_cycles=2, walks_per_cycle=16,
            generator_steps_per_cycle=2, generator_batch=8, model_dim=16,
            num_layers=1, walk_length=5, feature_dim=16,
            batch_iterations=2, batch_size=16, generation_walk_factor=6))
        model.fit(graph, rng, labeled_nodes=few,
                  labeled_classes=labels[few], protected_mask=protected,
                  num_classes=3)
        return model, graph

    def test_roundtrip_generates_identically(self, trained, tmp_path):
        model, graph = trained
        path = tmp_path / "fairgen.npz"
        save_model(model, path)
        restored = load_model(path, graph)
        a = model.generate(np.random.default_rng(3))
        b = restored.generate(np.random.default_rng(3))
        assert a == b

    def test_roundtrip_preserves_discriminator(self, trained, tmp_path):
        model, graph = trained
        path = tmp_path / "fairgen.npz"
        save_model(model, path)
        restored = load_model(path, graph)
        np.testing.assert_allclose(model.discriminator.predict_proba(),
                                   restored.discriminator.predict_proba())

    def test_unfitted_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            save_model(FairGen(), tmp_path / "x.npz")

    def test_wrong_graph_rejected(self, trained, tmp_path):
        model, _ = trained
        path = tmp_path / "fairgen.npz"
        save_model(model, path)
        from repro.graph import erdos_renyi

        other = erdos_renyi(10, 0.3, np.random.default_rng(0))
        with pytest.raises(ValueError):
            load_model(path, other)

    def test_config_round_trips(self, trained, tmp_path):
        model, graph = trained
        path = tmp_path / "fairgen.npz"
        save_model(model, path)
        restored = load_model(path, graph)
        assert restored.config == model.config


# One registry name per serialisable model class (FairGen's ablation
# variants share the FairGen class; "fairgen-no-spl" doubles as the
# check that a variant's display name survives the round trip).
ALL_MODEL_CLASSES = ["er", "ba", "gae", "netgan", "taggen", "graphrnn",
                     "fairgen-no-spl"]


class TestModelZooSerialization:
    """save_model/load_model round-trip every registry model class."""

    @pytest.fixture(scope="class")
    def fit_setting(self):
        rng = np.random.default_rng(23)
        graph, _, _ = planted_protected_graph(
            36, 9, rng, p_in=0.3, p_out=0.04, num_classes=2,
            protected_as_class=True)
        supervision = Supervision.surrogate_for(
            graph, rng=np.random.default_rng(24))
        return graph, supervision

    @pytest.mark.parametrize("name", ALL_MODEL_CLASSES)
    def test_state_dict_round_trips(self, name, fit_setting, tmp_path):
        graph, supervision = fit_setting
        model = create_model(name, profile="smoke")
        if get_entry(name).needs_supervision:
            model.fit(graph, np.random.default_rng(5),
                      supervision=supervision)
        else:
            model.fit(graph, np.random.default_rng(5))
        path = tmp_path / f"{name}.npz"
        save_model(model, path)
        restored = load_model(path, graph)

        assert type(restored) is type(model)
        assert restored.name == model.name
        assert restored.is_fitted
        original_state = model.state_dict()
        restored_state = restored.state_dict()
        assert set(original_state) == set(restored_state)
        for key, value in original_state.items():
            np.testing.assert_array_equal(
                np.asarray(value), np.asarray(restored_state[key]),
                err_msg=f"{name}: {key}")
        # Same seed, same synthetic graph — the restored model is a
        # drop-in replacement on the generation path.
        a = model.generate(np.random.default_rng(9))
        b = restored.generate(np.random.default_rng(9))
        assert (a.adjacency != b.adjacency).nnz == 0

    def test_unfitted_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="fitted"):
            save_model(create_model("er"), tmp_path / "x.npz")

    def test_wrong_graph_rejected(self, fit_setting, tmp_path):
        graph, _ = fit_setting
        model = create_model("er").fit(graph, np.random.default_rng(0))
        path = tmp_path / "er.npz"
        save_model(model, path)
        from repro.graph import erdos_renyi

        other = erdos_renyi(10, 0.3, np.random.default_rng(0))
        with pytest.raises(ValueError, match="does not match"):
            load_model(path, other)

    def test_foreign_archive_rejected(self, fit_setting, tmp_path):
        graph, _ = fit_setting
        path = tmp_path / "junk.npz"
        np.savez_compressed(path, something=np.arange(3))
        with pytest.raises(ValueError, match="not a model archive"):
            load_model(path, graph)


class TestMmapLoading:
    """load_model(mmap=True): the serving daemon's resident-model mode."""

    @pytest.fixture(scope="class")
    def fitted(self):
        rng = np.random.default_rng(31)
        graph, _, _ = planted_protected_graph(
            36, 9, rng, p_in=0.3, p_out=0.04, num_classes=2,
            protected_as_class=True)
        model = create_model("taggen", profile="smoke")
        model.fit(graph, np.random.default_rng(5))
        return model, graph

    def test_uncompressed_roundtrip_is_mmap_backed(self, fitted, tmp_path):
        model, graph = fitted
        path = tmp_path / "taggen.npz"
        save_model(model, path, compress=False)
        restored = load_model(path, graph, mmap=True)
        state, restored_state = model.state_dict(), restored.state_dict()
        for key, value in state.items():
            np.testing.assert_array_equal(np.asarray(value),
                                          np.asarray(restored_state[key]),
                                          err_msg=key)
        weight = restored.model.embed.weight.data
        assert not weight.flags.writeable
        assert isinstance(weight.base, np.memmap)

    def test_mmap_model_generates_identically(self, fitted, tmp_path):
        model, graph = fitted
        path = tmp_path / "taggen.npz"
        save_model(model, path, compress=False)
        restored = load_model(path, graph, mmap=True)
        np.testing.assert_array_equal(
            restored.generate_walks(12, np.random.default_rng(7)),
            model.generate_walks(12, np.random.default_rng(7)))

    def test_mmap_weights_are_read_only_safe(self, fitted, tmp_path):
        """Training an mmap-loaded model must fail loudly, not corrupt
        the archive every resident model shares."""
        model, graph = fitted
        path = tmp_path / "taggen.npz"
        save_model(model, path, compress=False)
        restored = load_model(path, graph, mmap=True)
        param = next(iter(restored.model.parameters()))
        with pytest.raises(ValueError):
            param.data += 1.0  # in-place update = a training step

    def test_compressed_archive_falls_back_to_copy(self, fitted, tmp_path):
        model, graph = fitted
        path = tmp_path / "taggen.npz"
        save_model(model, path)  # compressed default
        restored = load_model(path, graph, mmap=True)
        weight = restored.model.embed.weight.data
        assert weight.flags.writeable  # ordinary in-memory load
        np.testing.assert_array_equal(
            restored.generate_walks(8, np.random.default_rng(3)),
            model.generate_walks(8, np.random.default_rng(3)))

    def test_mmap_false_still_copies(self, fitted, tmp_path):
        model, graph = fitted
        path = tmp_path / "taggen.npz"
        save_model(model, path, compress=False)
        restored = load_model(path, graph)
        assert restored.model.embed.weight.data.flags.writeable
