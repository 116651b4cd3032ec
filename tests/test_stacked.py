"""Tests for seed-stacked (vmap-style) multi-seed fits.

The contract under test everywhere: a K-seed stacked fit leaves every
seed's model, loss history, RNG state and downstream artifacts
**byte-identical** to what K separate sequential fits would have
produced — the stacking is a pure execution strategy, invisible to
caches, checkpoints and the sweep scheduler.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments import ExperimentSpec, Runner
from repro.experiments.sweep import grid, run_sweep, stack_cells
from repro.graph import planted_protected_graph
from repro.models import GAEModel
from repro.nn import (LayerNorm, Linear, Module, Parameter, Tensor,
                      stack_modules, unstack_state_dict)
from repro.nn.vmap import register_stack_rule
from repro.obs.metrics import MetricsRegistry
from repro.train import (StackedRNG, TrainCallback, TrainControl, Trainer,
                         stacked_step_rng)
from repro.train.stacked import STACKED_STATE_KEY

SMALLEST = "EMAIL"  # smallest bundled dataset (106 nodes)
SEEDS = [11, 23, 35, 47, 59]


def _graph():
    rng = np.random.default_rng(7)
    graph, _, _ = planted_protected_graph(48, 12, rng, p_in=0.3, p_out=0.03,
                                          num_classes=2,
                                          protected_as_class=True)
    return graph


def _gae():
    return GAEModel(epochs=12, hidden=16, latent=8)


def _sequential_fits(graph, seeds):
    models, rngs = [], []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        models.append(_gae().fit(graph, rng))
        rngs.append(rng)
    return models, rngs


def _assert_state_equal(a: dict, b: dict, context: str = "") -> None:
    assert a.keys() == b.keys(), context
    for name in a:
        assert a[name].dtype == b[name].dtype, (context, name)
        assert np.array_equal(a[name], b[name]), (context, name)


# ----------------------------------------------------------------------
# StackedRNG: per-seed streams behind a batched interface
# ----------------------------------------------------------------------
class TestStackedRNG:
    def test_draws_match_per_seed_generators(self):
        stacked = StackedRNG([np.random.default_rng(s) for s in (1, 2, 3)])
        solo = [np.random.default_rng(s) for s in (1, 2, 3)]
        got = stacked.standard_normal((3, 4, 2))
        want = np.stack([rng.standard_normal((4, 2)) for rng in solo])
        np.testing.assert_array_equal(got, want)
        # Draw methods interleave on the same underlying streams.
        np.testing.assert_array_equal(
            stacked.random((3, 5)),
            np.stack([rng.random(5) for rng in solo]))
        np.testing.assert_array_equal(
            stacked.normal(2.0, 0.5, size=(3, 2)),
            np.stack([rng.normal(2.0, 0.5, 2) for rng in solo]))
        np.testing.assert_array_equal(
            stacked.uniform(-1.0, 1.0, size=(3, 2)),
            np.stack([rng.uniform(-1.0, 1.0, 2) for rng in solo]))
        np.testing.assert_array_equal(
            stacked.integers(0, 10, size=(3, 6)),
            np.stack([rng.integers(0, 10, 6) for rng in solo]))

    def test_rejects_shapes_without_leading_seed_axis(self):
        stacked = StackedRNG([np.random.default_rng(s) for s in (1, 2)])
        with pytest.raises(ValueError, match="seed axis"):
            stacked.standard_normal((3, 4))  # wrong K
        with pytest.raises(ValueError, match="seed axis"):
            stacked.random(())  # no leading axis at all

    def test_rejects_empty_generator_list(self):
        with pytest.raises(ValueError, match="at least one"):
            StackedRNG([])

    def test_len(self):
        assert len(StackedRNG([np.random.default_rng(0)] * 1)) == 1

    def test_bit_generator_state_roundtrip(self):
        """The duck-typed ``bit_generator`` checkpoints and restores the
        whole stack through the same attribute Trainer snapshots."""
        stacked = StackedRNG([np.random.default_rng(s) for s in (5, 6)])
        stacked.standard_normal((2, 3))
        snapshot = stacked.bit_generator.state
        assert STACKED_STATE_KEY in snapshot
        first = stacked.standard_normal((2, 8))
        stacked.bit_generator.state = snapshot
        np.testing.assert_array_equal(stacked.standard_normal((2, 8)), first)

    def test_state_setter_rejects_wrong_cardinality(self):
        two = StackedRNG([np.random.default_rng(s) for s in (5, 6)])
        three = StackedRNG([np.random.default_rng(s) for s in (5, 6, 7)])
        with pytest.raises(ValueError, match="2 RNG states"):
            three.bit_generator.state = two.bit_generator.state

    def test_stacked_step_rng_matches_step_rng(self):
        from repro.train.trainer import step_rng

        stacked = stacked_step_rng([4, 9], epoch=3, step=1)
        want = np.stack([step_rng(4, 3, 1).standard_normal(5),
                         step_rng(9, 3, 1).standard_normal(5)])
        np.testing.assert_array_equal(stacked.standard_normal((2, 5)), want)


# ----------------------------------------------------------------------
# stack_modules: the parameter-tree transform
# ----------------------------------------------------------------------
class _TwoLayer(Module):
    def __init__(self, rng):
        super().__init__()
        self.lin = Linear(4, 3, rng)
        self.norm = LayerNorm(3)

    def forward(self, x):
        return self.norm(self.lin(x))


class TestStackModules:
    def test_stacked_forward_matches_per_seed_forwards(self):
        rngs = [np.random.default_rng(s) for s in (1, 2, 3)]
        modules = [_TwoLayer(rng) for rng in rngs]
        stacked = stack_modules(modules)
        assert stacked.num_seeds == 3

        x = np.random.default_rng(9).standard_normal((3, 5, 4))
        got = stacked(Tensor(x)).data
        for k, module in enumerate(modules):
            np.testing.assert_array_equal(got[k], module(Tensor(x[k])).data)

    def test_stacked_parameter_shapes(self):
        modules = [_TwoLayer(np.random.default_rng(s)) for s in (1, 2)]
        stacked = stack_modules(modules).module
        assert stacked.lin.weight.shape == (2, 4, 3)
        assert stacked.lin.bias.shape == (2, 1, 3)    # broadcast row
        assert stacked.norm.gamma.shape == (2, 1, 3)
        assert stacked.norm.beta.shape == (2, 1, 3)

    def test_state_dict_for_roundtrips_each_seed(self):
        modules = [_TwoLayer(np.random.default_rng(s)) for s in (1, 2, 3)]
        stacked = stack_modules(modules)
        for k, module in enumerate(modules):
            want = {name: param.data
                    for name, param in module.named_parameters()}
            _assert_state_equal(stacked.state_dict_for(k), want, f"seed {k}")
            _assert_state_equal(unstack_state_dict(stacked, k), want)

    def test_state_dict_for_range_checked(self):
        stacked = stack_modules(
            [_TwoLayer(np.random.default_rng(s)) for s in (1, 2)])
        with pytest.raises(IndexError, match="out of range"):
            stacked.state_dict_for(2)

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            stack_modules([])

    def test_mixed_module_types_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(TypeError, match="cannot stack"):
            stack_modules([Linear(4, 3, rng), LayerNorm(3)])

    def test_mismatched_shapes_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="shapes differ"):
            stack_modules([Linear(4, 3, rng), Linear(4, 2, rng)])

    def test_unknown_parameter_kind_fails_loudly(self):
        class Odd(Module):
            def __init__(self):
                super().__init__()
                self.theta = Parameter(np.ones(3))

            def forward(self, x):  # pragma: no cover - never called
                return x

        with pytest.raises(NotImplementedError, match="register_stack_rule"):
            stack_modules([Odd(), Odd()])

        # Declaring a rule makes the same class stackable.
        register_stack_rule(Odd, "theta", lambda arrays: np.stack(arrays))
        stacked = stack_modules([Odd(), Odd()])
        assert stacked.module.theta.shape == (2, 3)


# ----------------------------------------------------------------------
# fit_stacked: byte-identity against sequential fits
# ----------------------------------------------------------------------
class TestStackedGAEFit:
    def test_stacked_fit_byte_identical_to_sequential(self):
        """The tentpole acceptance check: state dicts, loss histories,
        post-fit RNG states and generated graphs all match exactly."""
        graph = _graph()
        seq_models, seq_rngs = _sequential_fits(graph, SEEDS)

        stk_models = [_gae() for _ in SEEDS]
        stk_rngs = [np.random.default_rng(s) for s in SEEDS]
        out = GAEModel.fit_stacked(stk_models, graph, stk_rngs)
        assert out is not None and len(out) == len(SEEDS)

        for k, (seq, stk) in enumerate(zip(seq_models, stk_models)):
            assert seq.loss_history == stk.loss_history, f"seed {SEEDS[k]}"
            _assert_state_equal(seq.state_dict(), stk.state_dict(),
                                f"seed {SEEDS[k]}")
            # The caller's generators end in the same state, so the
            # post-fit generate stream continues identically.
            assert seq_rngs[k].bit_generator.state \
                == stk_rngs[k].bit_generator.state
            a = seq.generate(seq_rngs[k])
            b = stk.generate(stk_rngs[k])
            assert (a.adjacency != b.adjacency).nnz == 0

    def test_single_seed_stack_degenerates_cleanly(self):
        graph = _graph()
        [seq], [seq_rng] = _sequential_fits(graph, [SEEDS[0]])
        stk_rng = np.random.default_rng(SEEDS[0])
        [stk] = GAEModel.fit_stacked([_gae()], graph, [stk_rng])
        _assert_state_equal(seq.state_dict(), stk.state_dict())
        assert seq_rng.bit_generator.state == stk_rng.bit_generator.state

    def test_mismatched_configs_rejected(self):
        with pytest.raises(ValueError, match="identical configs"):
            GAEModel.fit_stacked(
                [_gae(), GAEModel(epochs=12, hidden=8, latent=8)],
                _graph(), [np.random.default_rng(s) for s in (1, 2)])

    def test_rng_cardinality_mismatch_rejected(self):
        with pytest.raises(ValueError, match="one RNG per model"):
            GAEModel.fit_stacked([_gae(), _gae()], _graph(),
                                 [np.random.default_rng(1)])
        with pytest.raises(ValueError, match="one RNG per model"):
            GAEModel.fit_stacked([], _graph(), [])

    def test_interrupted_stacked_fit_resumes_byte_identically(
            self, tmp_path):
        """Checkpoint/resume rides the unchanged Trainer machinery: the
        stacked RNG snapshot fans back out across all K generators."""

        class _InterruptAfter(TrainCallback):
            def __init__(self, k):
                self.k = k

            def on_epoch_commit(self, trainer, state):
                if state.epoch >= self.k:
                    raise RuntimeError("interrupted for the resume test")

        graph = _graph()
        seeds = SEEDS[:3]
        ckpt = tmp_path / "stack.ckpt.npz"

        ref_models = [_gae() for _ in seeds]
        ref_rngs = [np.random.default_rng(s) for s in seeds]
        GAEModel.fit_stacked(ref_models, graph, ref_rngs)

        with pytest.raises(RuntimeError, match="interrupted"):
            GAEModel.fit_stacked(
                [_gae() for _ in seeds], graph,
                [np.random.default_rng(s) for s in seeds],
                control=TrainControl(checkpoint_path=ckpt,
                                     callbacks=(_InterruptAfter(4),)))
        assert ckpt.exists()

        resumed = [_gae() for _ in seeds]
        resumed_rngs = [np.random.default_rng(s) for s in seeds]
        GAEModel.fit_stacked(resumed, graph, resumed_rngs,
                             control=TrainControl(checkpoint_path=ckpt))

        for ref, res, ref_rng, res_rng in zip(ref_models, resumed,
                                              ref_rngs, resumed_rngs):
            _assert_state_equal(ref.state_dict(), res.state_dict())
            assert ref.loss_history == res.loss_history
            assert ref_rng.bit_generator.state == res_rng.bit_generator.state


# ----------------------------------------------------------------------
# Runner integration: stacked execution behind per-seed cache keys
# ----------------------------------------------------------------------
def _cell(seeds, **kw):
    return [ExperimentSpec(model="gae", dataset=SMALLEST, profile="smoke",
                           seed=s, **kw) for s in seeds]


class TestRunnerStacked:
    def test_stackable_cell(self):
        runner = Runner()
        assert runner.stackable(_cell([1, 2, 3]))

    @pytest.mark.parametrize("specs", [
        [],                                    # empty
        _cell([1]),                            # single seed
        _cell([1]) + _cell([1]),               # duplicate seeds
        _cell([1]) + [ExperimentSpec(model="gae", dataset=SMALLEST,
                                     profile="bench", seed=2)],  # mixed cell
        [ExperimentSpec(model="er", dataset=SMALLEST, profile="smoke",
                        seed=s) for s in (1, 2)],   # no fit_stacked
        [ExperimentSpec(model="fairgen", dataset=SMALLEST, profile="smoke",
                        seed=s) for s in (1, 2)],   # needs supervision
    ], ids=["empty", "single", "dup-seeds", "mixed-cell", "no-support",
            "supervised"])
    def test_not_stackable(self, specs):
        assert not Runner().stackable(specs)

    def test_run_stacked_artifacts_match_per_seed_run(self, tmp_path):
        specs = _cell([1, 2, 3])
        solo = Runner(cache_dir=tmp_path / "solo")
        solo_results = [solo.run(spec, need_model=True) for spec in specs]

        stacker = Runner(cache_dir=tmp_path / "stacked")
        stacked_results = stacker.run_stacked(specs, need_model=True)

        for a, b in zip(solo_results, stacked_results):
            assert (a.generated.adjacency != b.generated.adjacency).nnz == 0
            _assert_state_equal(a.model.state_dict(), b.model.state_dict(),
                                a.spec.cache_key())
        # Identical cache keys: per-seed files named exactly as the
        # sequential path names them, nothing stack-specific left over.
        solo_files = sorted(p.name for p in (tmp_path / "solo").iterdir())
        stack_files = sorted(p.name
                             for p in (tmp_path / "stacked").iterdir())
        assert solo_files == stack_files
        assert not [name for name in stack_files if "stack" in name]

    def test_run_stacked_replays_without_refitting(self, tmp_path):
        specs = _cell([1, 2])
        runner = Runner(cache_dir=tmp_path)
        first = runner.run_stacked(specs)
        assert all(not r.from_cache for r in first)
        replay = Runner(cache_dir=tmp_path).run_stacked(specs)
        assert all(r.from_cache for r in replay)
        for a, b in zip(first, replay):
            assert (a.generated.adjacency != b.generated.adjacency).nnz == 0

    def test_run_stacked_fits_only_the_cache_misses(self, tmp_path):
        runner = Runner(cache_dir=tmp_path)
        warm = runner.run(_cell([2])[0])  # pre-warm one seed per-seed
        results = Runner(cache_dir=tmp_path).run_stacked(_cell([1, 2, 3]))
        assert (results[1].generated.adjacency
                != warm.generated.adjacency).nnz == 0
        # The warm seed replays; the misses still match their solo fits.
        solo = Runner(cache_dir=tmp_path / "ref").run(_cell([1])[0])
        assert (results[0].generated.adjacency
                != solo.generated.adjacency).nnz == 0

    def test_run_stacked_restores_memory_seed_model_from_disk(
            self, tmp_path):
        # Seed 2 sits in this runner's memory without a model (a plain
        # disk replay); need_model must restore it from its .model.npz
        # archive, not refit it, while seeds 1 and 3 stack.
        solo = Runner(cache_dir=tmp_path / "ref")
        solo_results = [solo.run(spec, need_model=True)
                        for spec in _cell([1, 2, 3])]
        Runner(cache_dir=tmp_path).run(_cell([2])[0])  # pre-warm seed 2
        reg = MetricsRegistry()
        runner = Runner(cache_dir=tmp_path, registry=reg)
        replayed = runner.run(_cell([2])[0])
        assert replayed.from_cache and replayed.model is None

        results = runner.run_stacked(_cell([1, 2, 3]), need_model=True)
        assert reg.counter("runner_stacked_fits_total").total() == 1
        assert reg.counter("runner_fits_total").total() == 2
        assert [r.stacked_size for r in results] == [2, None, 2]
        restored = results[1]
        assert restored.from_cache and restored.model.is_fitted
        _assert_state_equal(restored.model.state_dict(),
                            solo_results[1].model.state_dict())
        for got, want in zip(results, solo_results):
            assert (got.generated.adjacency
                    != want.generated.adjacency).nnz == 0

    def test_run_stacked_falls_back_for_unstackable_batches(self, tmp_path):
        specs = [ExperimentSpec(model="er", dataset=SMALLEST,
                                profile="smoke", seed=s) for s in (1, 2)]
        results = Runner(cache_dir=tmp_path).run_stacked(specs)
        reference = Runner(cache_dir=tmp_path / "ref").run_many(specs)
        for got, want in zip(results, reference):
            assert (got.generated.adjacency
                    != want.generated.adjacency).nnz == 0

    def test_stacked_checkpoint_keyed_by_cell_and_seeds(self, tmp_path):
        runner = Runner(cache_dir=tmp_path)
        a = runner.stacked_checkpoint_path(_cell([1, 2]))
        b = runner.stacked_checkpoint_path(_cell([1, 3]))
        c = runner.stacked_checkpoint_path(_cell([1, 2]))
        assert a != b and a == c
        assert a.name.endswith(".stacked.ckpt.npz")
        # No stray checkpoint survives a completed stacked fit.
        runner.run_stacked(_cell([1, 2]))
        assert not list(tmp_path.glob("*.stacked.ckpt.npz"))


# ----------------------------------------------------------------------
# Sweep integration: stack_seeds collapses grid cells
# ----------------------------------------------------------------------
class TestSweepStacked:
    def test_stack_cells_groups_by_everything_but_seed(self):
        gae = _cell([1, 2, 3])
        er = [ExperimentSpec(model="er", dataset=SMALLEST, profile="smoke",
                             seed=s) for s in (1, 2)]
        single = _cell([9], overrides={"epochs": 4})
        cells = stack_cells(gae + er + single)
        assert [len(c) for c in cells] == [3, 2]   # single-seed cell dropped
        assert cells[0] == gae and cells[1] == er

    def test_stacked_sweep_matches_per_seed_sweep(self, tmp_path):
        """`--stack-seeds` is invisible in the artifacts: byte-identical
        graphs under identical cache keys, with zero worker fits for the
        stacked cell (the pre-pass warmed the shared cache)."""
        specs = grid("gae", SMALLEST, profiles="smoke", seeds=[1, 2])
        assert len(specs) == 2

        plain = run_sweep(specs, tmp_path / "q1", tmp_path / "c1",
                          workers=1, timeout=300)
        assert plain.completed == 2 and len(plain.fits) == 2

        stacked = run_sweep(specs, tmp_path / "q2", tmp_path / "c2",
                            workers=1, timeout=300, stack_seeds=True)
        assert stacked.completed == 2
        assert not stacked.fits  # workers replayed the warmed cache

        for got, want in zip(stacked.results, plain.results):
            assert (got.generated.adjacency
                    != want.generated.adjacency).nnz == 0
        assert sorted(p.name for p in (tmp_path / "c1").iterdir()) \
            == sorted(p.name for p in (tmp_path / "c2").iterdir())

    def test_stacked_sweep_leaves_ineligible_cells_to_the_fleet(
            self, tmp_path):
        specs = grid("er", SMALLEST, profiles="smoke", seeds=[1, 2])
        report = run_sweep(specs, tmp_path / "q", tmp_path / "cache",
                           workers=1, timeout=300, stack_seeds=True)
        assert report.completed == 2
        assert len(report.fits) == 2  # ER cells still fit in the fleet
