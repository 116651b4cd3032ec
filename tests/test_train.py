"""Tests for ``repro.train``: the shared Trainer loop, checkpoint/resume,
optimizer state round trips, grad-free scoring, and the seeded-parity
pins proving the refactored fit loops reproduce the legacy numerics.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from repro.experiments import ExperimentSpec, Runner
from repro.nn import Adam, Linear, Parameter, SGD, Tensor
from repro.train import (TrainControl, Trainer, TrainState, minibatches,
                         train_step)

FIXTURES = Path(__file__).parent / "fixtures"


def _load_parity_module():
    spec = importlib.util.spec_from_file_location(
        "train_parity_gen", FIXTURES / "generate_train_parity.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


parity = _load_parity_module()
PINNED = json.loads((FIXTURES / "train_parity.json").read_text())
MODEL_NAMES = sorted(PINNED)


# ----------------------------------------------------------------------
# Toy task used by the loop/checkpoint unit tests
# ----------------------------------------------------------------------
class _ToyTask:
    """Fits y = 2x with one weight; consumes one rng draw per epoch."""

    def __init__(self, lr: float = 0.1):
        rng = np.random.default_rng(0)
        self.layer = Linear(1, 1, rng, bias=False)
        self.optimizer = Adam(self.layer.parameters(), lr=lr)
        self.noise_seen: list[float] = []

    def modules(self):
        return {"layer": self.layer}

    def optimizers(self):
        return {"adam": self.optimizer}

    def extra_state(self):
        return {"noise_seen": np.asarray(self.noise_seen)}

    def load_extra_state(self, extra):
        self.noise_seen = list(np.asarray(extra["noise_seen"]))

    def epoch(self, state, rng) -> float:
        noise = float(rng.standard_normal())
        self.noise_seen.append(noise)
        x = np.array([[1.0]])

        def loss_fn():
            pred = self.layer(Tensor(x))
            diff = pred - (2.0 + 0.01 * noise)
            return (diff * diff).sum()

        return train_step(self.optimizer, list(self.layer.parameters()),
                          loss_fn)


def _interrupt_after(monkeypatch, k: int) -> None:
    """Raise once epoch ``k`` is committed and its checkpoint written."""
    save = TrainState.save

    def save_then_interrupt(self, *args, **kwargs):
        save(self, *args, **kwargs)
        if self.epoch >= k:
            raise RuntimeError("interrupted for the resume test")

    monkeypatch.setattr(TrainState, "save", save_then_interrupt)


# ----------------------------------------------------------------------
# Loop helpers
# ----------------------------------------------------------------------
class TestHelpers:
    def test_minibatches_cover_range_in_order(self):
        slices = list(minibatches(10, 4))
        assert len(slices) == 3  # 4 + 4 + 2
        covered = np.concatenate([np.arange(10)[sl] for sl in slices])
        np.testing.assert_array_equal(covered, np.arange(10))

    def test_minibatches_rejects_bad_batch_size(self):
        with pytest.raises(ValueError):
            list(minibatches(10, 0))

    def test_train_step_steps_and_returns_loss(self):
        rng = np.random.default_rng(3)
        layer = Linear(2, 1, rng, bias=False)
        before = layer.weight.data.copy()
        opt = SGD(layer.parameters(), lr=0.5)
        x = np.ones((1, 2))

        loss = train_step(opt, list(layer.parameters()),
                          lambda: (layer(Tensor(x)) ** 2).sum())
        assert isinstance(loss, float) and loss > 0
        assert not np.array_equal(layer.weight.data, before)
        # Gradients were zeroed before the step's backward, so the next
        # step does not accumulate stale grads.
        assert layer.weight.grad is not None

    def test_train_step_clips_gradient_norm(self):
        rng = np.random.default_rng(3)
        layer = Linear(1, 1, rng, bias=False)
        layer.weight.data[:] = 100.0
        opt = SGD(layer.parameters(), lr=1.0)
        train_step(opt, list(layer.parameters()),
                   lambda: (layer(Tensor(np.ones((1, 1)))) ** 2).sum(),
                   clip_norm=1.0)
        grad_norm = float(np.sqrt((layer.weight.grad ** 2).sum()))
        assert grad_norm <= 1.0 + 1e-9


# ----------------------------------------------------------------------
# The Trainer loop
# ----------------------------------------------------------------------
class TestTrainerLoop:
    def test_history_one_record_per_epoch(self):
        task = _ToyTask()
        state = Trainer(task, epochs=5).fit(np.random.default_rng(1))
        assert state.epoch == 5
        assert len(state.history) == 5
        assert all(isinstance(v, float) for v in state.history)

    def test_zero_epochs_is_a_no_op(self):
        task = _ToyTask()
        state = Trainer(task, epochs=0).fit(np.random.default_rng(1))
        assert state.epoch == 0 and state.history == []

    def test_negative_epochs_rejected(self):
        with pytest.raises(ValueError):
            Trainer(_ToyTask(), epochs=-1)


# ----------------------------------------------------------------------
# Optimizer state round trips
# ----------------------------------------------------------------------
class TestOptimizerState:
    @pytest.mark.parametrize("factory", [
        lambda params: SGD(params, lr=0.05, momentum=0.9),
        lambda params: Adam(params, lr=0.05),
    ], ids=["sgd-momentum", "adam"])
    def test_round_trip_continues_bit_identically(self, factory):
        def make():
            p = Parameter(np.linspace(-1, 1, 6).reshape(2, 3))
            return p, factory([p])

        def grad_for(step):  # deterministic varying pseudo-gradients
            return np.full((2, 3), 0.1) * (step + 1)

        def run(optimizer, param, steps, start=0):
            for step in range(start, start + steps):
                param.grad = grad_for(step)
                optimizer.step()

        ref_param, ref_opt = make()
        run(ref_opt, ref_param, 7)

        src_param, src_opt = make()
        run(src_opt, src_param, 4)
        snapshot = src_opt.state_dict()
        np.testing.assert_array_equal(src_param.data, src_param.data)

        dst_param, dst_opt = make()
        dst_param.data[...] = src_param.data
        dst_opt.load_state_dict(snapshot)
        run(dst_opt, dst_param, 3, start=4)
        np.testing.assert_array_equal(dst_param.data, ref_param.data)

    def test_state_dict_copies_are_detached(self):
        p = Parameter(np.zeros((2, 2)))
        opt = Adam([p], lr=0.1)
        p.grad = np.ones((2, 2))
        opt.step()
        state = opt.state_dict()
        p.grad = np.ones((2, 2))
        opt.step()
        assert not np.array_equal(state["m0"], opt.state_dict()["m0"])

    def test_load_rejects_shape_mismatch(self):
        p = Parameter(np.zeros(3))
        opt = Adam([p], lr=0.1)
        bad = opt.state_dict()
        bad["m0"] = np.zeros(5)
        with pytest.raises(ValueError):
            opt.load_state_dict(bad)


# ----------------------------------------------------------------------
# Checkpoint archive
# ----------------------------------------------------------------------
class TestCheckpointArchive:
    def test_round_trip_restores_everything(self, tmp_path):
        path = tmp_path / "toy.ckpt.npz"
        task = _ToyTask()
        rng = np.random.default_rng(5)
        state = Trainer(task, epochs=3).fit(rng)
        state.save(path, task, rng, tag="stamp")

        loaded = TrainState.load(path)
        assert loaded.epoch == 3
        assert loaded.history == state.history
        assert loaded.tag == "stamp"

        fresh_task = _ToyTask()
        fresh_rng = np.random.default_rng(999)
        loaded.restore(fresh_task, fresh_rng)
        np.testing.assert_array_equal(fresh_task.layer.weight.data,
                                      task.layer.weight.data)
        assert fresh_task.noise_seen == task.noise_seen
        assert fresh_rng.bit_generator.state == rng.bit_generator.state
        # Optimizer moments came along: further identical steps match.
        assert fresh_task.optimizer._t == task.optimizer._t

    def test_load_missing_and_corrupt_return_none(self, tmp_path):
        assert TrainState.load(tmp_path / "nope.ckpt.npz") is None
        garbage = tmp_path / "bad.ckpt.npz"
        garbage.write_bytes(b"this is not an npz archive")
        assert TrainState.load(garbage) is None

    def test_no_tmp_file_left_behind(self, tmp_path):
        path = tmp_path / "toy.ckpt.npz"
        task = _ToyTask()
        rng = np.random.default_rng(5)
        TrainState().save(path, task, rng)
        assert [p.name for p in tmp_path.iterdir()] == ["toy.ckpt.npz"]

    def test_trainer_ignores_checkpoint_with_wrong_tag(self, tmp_path):
        path = tmp_path / "toy.ckpt.npz"
        control_a = TrainControl(checkpoint_path=path, tag="params-v1")
        task = _ToyTask()
        Trainer(task, epochs=2, control=control_a).fit(
            np.random.default_rng(5))
        assert path.exists()

        # Same path, different tag: the stale checkpoint must not be
        # resumed — the fit trains all epochs from scratch.
        task_b = _ToyTask()
        control_b = TrainControl(checkpoint_path=path, tag="params-v2")
        state = Trainer(task_b, epochs=2, control=control_b).fit(
            np.random.default_rng(5))
        assert len(task_b.noise_seen) == 2  # both epochs actually ran
        assert state.epoch == 2

    def test_trainer_ignores_checkpoint_beyond_schedule(self, tmp_path):
        path = tmp_path / "toy.ckpt.npz"
        control = TrainControl(checkpoint_path=path)
        Trainer(_ToyTask(), epochs=4, control=control).fit(
            np.random.default_rng(5))
        task = _ToyTask()
        Trainer(task, epochs=2, control=control).fit(
            np.random.default_rng(5))
        assert len(task.noise_seen) == 2  # epoch-4 checkpoint ignored

    def test_partial_checkpoint_rolls_back_and_trains_from_scratch(
            self, tmp_path):
        """A checkpoint missing one module's arrays must not leave the
        task half-restored: the failed resume rolls every module back,
        so the from-scratch fallback produces exactly what a fresh fit
        produces."""
        class TwoModuleTask(_ToyTask):
            def __init__(self):
                super().__init__()
                self.second = Linear(1, 1, np.random.default_rng(1),
                                     bias=False)

            def modules(self):
                return {"layer": self.layer, "second": self.second}

        path = tmp_path / "toy.ckpt.npz"
        task = TwoModuleTask()
        rng = np.random.default_rng(5)
        state = Trainer(task, epochs=2).fit(rng)
        state.save(path, task, rng)

        # Drop the second module's arrays: load succeeds, restore fails.
        with np.load(path) as archive:
            kept = {name: archive[name] for name in archive.files
                    if not name.startswith("module/second/")}
        np.savez_compressed(path, **kept)

        reference = TwoModuleTask()
        Trainer(reference, epochs=4).fit(np.random.default_rng(5))

        resumed = TwoModuleTask()
        Trainer(resumed, epochs=4,
                control=TrainControl(checkpoint_path=path)).fit(
            np.random.default_rng(5))
        assert len(resumed.noise_seen) == 4  # trained from scratch...
        np.testing.assert_array_equal(  # ...with pristine weights
            resumed.layer.weight.data, reference.layer.weight.data)
        np.testing.assert_array_equal(
            resumed.second.weight.data, reference.second.weight.data)

    def test_time_based_interval_skips_fast_epochs(self, tmp_path):
        path = tmp_path / "toy.ckpt.npz"
        control = TrainControl(checkpoint_path=path,
                               min_save_interval=3600.0)
        Trainer(_ToyTask(), epochs=3, control=control).fit(
            np.random.default_rng(5))
        assert not path.exists()  # sub-second fit: zero checkpoint I/O


# ----------------------------------------------------------------------
# Seeded parity: the tentpole acceptance criterion
# ----------------------------------------------------------------------
class TestSeededParity:
    """The Trainer-backed fits reproduce the legacy loops bit for bit.

    ``train_parity.json`` was generated against the pre-``repro.train``
    hand-rolled loops (see ``fixtures/generate_train_parity.py``); every
    digest covers the exact bytes of the fitted parameters and the loss
    history for a pinned (graph, config, seed) triple.
    """

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_fit_matches_pre_refactor_loop(self, name):
        model, history = parity.fit_model(name)
        assert parity.state_digest(model.state_dict()) \
            == PINNED[name]["state"], f"{name}: fitted parameters drifted"
        assert parity.history_digest(history) \
            == PINNED[name]["history"], f"{name}: loss history drifted"


# ----------------------------------------------------------------------
# Interrupt/resume byte-identity for every Trainer-backed model
# ----------------------------------------------------------------------
class TestInterruptResume:
    @staticmethod
    def _fit(name, graph, labels, protected, control=None):
        model = parity.build_models()[name]()
        model.train_control = control
        rng = np.random.default_rng(parity.FIT_SEED)
        if name.startswith("fairgen"):
            nodes, classes = parity.parity_supervision(labels)
            model.fit(graph, rng, labeled_nodes=nodes,
                      labeled_classes=classes, protected_mask=protected,
                      num_classes=int(labels.max()) + 1)
        else:
            model.fit(graph, rng)
        return model, rng

    @staticmethod
    def _history(model):
        if hasattr(model, "history") and model.history:
            return model.history
        return getattr(model, "loss_history", None) \
            or model.critic_history

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_interrupted_then_resumed_fit_is_byte_identical(
            self, name, tmp_path, monkeypatch):
        """Interrupt at epoch 1, resume, compare against uninterrupted.

        Fitted parameters, the loss history AND the caller's RNG state
        must all match exactly — the RNG state is what guarantees the
        post-fit ``generate`` consumes an identical stream, making final
        cached artifacts byte-identical through a resumed fit.
        """
        graph, labels, protected = parity.parity_graph()
        ckpt = tmp_path / f"{name}.ckpt.npz"

        ref_model, ref_rng = self._fit(name, graph, labels, protected)

        with monkeypatch.context() as patch, \
                pytest.raises(RuntimeError, match="interrupted"):
            _interrupt_after(patch, 1)
            self._fit(name, graph, labels, protected,
                      TrainControl(checkpoint_path=ckpt))
        assert ckpt.exists()

        resumed_model, resumed_rng = self._fit(
            name, graph, labels, protected,
            TrainControl(checkpoint_path=ckpt))

        assert parity.state_digest(resumed_model.state_dict()) \
            == parity.state_digest(ref_model.state_dict())
        assert self._history(resumed_model) == self._history(ref_model)
        assert resumed_rng.bit_generator.state \
            == ref_rng.bit_generator.state


# ----------------------------------------------------------------------
# Grad-free scoring (satellite regression)
# ----------------------------------------------------------------------
class TestGradFreeScoring:
    @staticmethod
    def _discriminator():
        from repro.core.discriminator import FairDiscriminator

        rng = np.random.default_rng(0)
        features = rng.standard_normal((30, 8))
        return FairDiscriminator(features, 3, rng.random(30) < 0.3, rng,
                                 hidden_dim=8)

    def test_predict_log_proba_retains_no_tensor_graph(self, monkeypatch):
        """Pure scoring must not build (or keep) any autograd graph."""
        disc = self._discriminator()
        created: list[Tensor] = []
        original = Tensor._make

        def spy(self, data, parents, backward):
            out = original(self, data, parents, backward)
            created.append(out)
            return out

        monkeypatch.setattr(Tensor, "_make", spy)
        disc.predict_log_proba()
        assert created, "the spy should have seen the forward pass"
        assert all(not t.requires_grad and t._prev == ()
                   and t._backward is None for t in created)

    def test_predict_proba_and_predict_share_the_grad_free_path(
            self, monkeypatch):
        disc = self._discriminator()
        created: list[Tensor] = []
        original = Tensor._make

        def spy(self, data, parents, backward):
            out = original(self, data, parents, backward)
            created.append(out)
            return out

        monkeypatch.setattr(Tensor, "_make", spy)
        disc.predict_proba()
        disc.predict()
        assert all(t._prev == () for t in created)

    def test_grad_free_values_match_grad_path_exactly(self):
        disc = self._discriminator()
        grad_free = disc.predict_log_proba()
        with_graph = disc.log_probs().numpy()
        np.testing.assert_array_equal(grad_free, with_graph)

    def test_train_step_still_builds_gradients(self):
        disc = self._discriminator()
        record = disc.train_step(np.array([0, 1, 2]), np.array([0, 1, 2]),
                                 np.array([3, 4]), np.array([1, 2]))
        assert set(record) == {"J_P", "J_L", "J_F", "total"}

    def test_module_eval_forward_matches_forward(self):
        disc = self._discriminator()
        x = Tensor(disc.features)
        grad_out = disc.mlp(x)
        free_out = disc.mlp.eval_forward(x)
        np.testing.assert_array_equal(grad_out.numpy(), free_out.numpy())
        assert grad_out.requires_grad and not free_out.requires_grad


# ----------------------------------------------------------------------
# Runner checkpoint/resume through the artifact cache
# ----------------------------------------------------------------------
class TestRunnerResume:
    SPEC = ExperimentSpec(model="gae", dataset="EMAIL", profile="smoke")

    def _partial_fit(self, runner: Runner, monkeypatch, k: int = 2) -> Path:
        """Run the spec's fit but interrupt it after ``k`` epochs."""
        from repro.registry import get_entry

        spec = self.SPEC
        entry = get_entry(spec.model)
        model = entry.build(spec.profile, spec.override_dict)
        runner._install_train_control(spec, model)
        with monkeypatch.context() as patch, \
                pytest.raises(RuntimeError, match="interrupted"):
            _interrupt_after(patch, k)
            model.fit(runner.dataset(spec.dataset).graph, spec.rng(stream=0))
        ckpt = runner.checkpoint_path(spec)
        assert ckpt.exists()
        return ckpt

    def test_resumed_run_reproduces_artifacts_and_skips_epochs(
            self, tmp_path, monkeypatch):
        from repro.models import gae as gae_module

        full = Runner(cache_dir=tmp_path / "full", checkpoint_interval=0.0)
        reference = full.run(self.SPEC)

        resumed_runner = Runner(cache_dir=tmp_path / "resumed",
                                checkpoint_interval=0.0)
        ckpt = self._partial_fit(resumed_runner, monkeypatch, k=2)

        calls = []
        original_epoch = gae_module._GAETask.epoch

        def counting_epoch(self, state, rng):
            calls.append(state.epoch)
            return original_epoch(self, state, rng)

        monkeypatch.setattr(gae_module._GAETask, "epoch", counting_epoch)
        result = resumed_runner.run(self.SPEC)

        total_epochs = len(reference.model.loss_history)
        assert calls == list(range(2, total_epochs))  # resumed, not refit
        assert not ckpt.exists()  # consumed + superseded by artifacts

        ref_graph = reference.generated.adjacency
        res_graph = result.generated.adjacency
        assert (ref_graph != res_graph).nnz == 0
        assert result.model.loss_history == reference.model.loss_history

    def test_stale_stamp_invalidates_checkpoint(self, tmp_path,
                                                monkeypatch):
        from repro.models import gae as gae_module

        runner = Runner(cache_dir=tmp_path / "cache",
                        checkpoint_interval=0.0)
        self._partial_fit(runner, monkeypatch, k=2)

        # A Runner whose resolved supervision settings differ writes a
        # different stamp, so the checkpoint must be ignored.
        other = Runner(cache_dir=tmp_path / "cache",
                       allow_surrogate=False, checkpoint_interval=0.0)
        calls = []
        original_epoch = gae_module._GAETask.epoch

        def counting_epoch(self, state, rng):
            calls.append(state.epoch)
            return original_epoch(self, state, rng)

        monkeypatch.setattr(gae_module._GAETask, "epoch", counting_epoch)
        result = other.run(self.SPEC)
        assert calls[0] == 0  # trained from scratch
        assert result.generated.num_nodes > 0

    def test_default_runner_interval_writes_no_checkpoints(self, tmp_path):
        runner = Runner(cache_dir=tmp_path / "cache")  # 30s interval
        runner.run(self.SPEC)
        leftovers = list((tmp_path / "cache").glob("*.ckpt.npz"))
        assert leftovers == []  # sub-second fit: zero checkpoint I/O
