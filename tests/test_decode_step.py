"""Parity and hygiene tests for the whole-step ``decode_step`` kernel.

``Backend.decode_step`` must reproduce the per-op reference (the
training modules' ``cache=`` arm) byte for byte for both of its
callers:

* one row group, prefill then steps (``TransformerWalkModel.sample``),
* several row groups in one single-token step (the batcher steady
  state), each equal to its group decoded alone.

It must also never mutate its inputs — tokens, mask, model
parameters.  Both sampling and the serving engine must look the kernel
up at call time, so a method-level wrapper sees every decode.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.models.walk_lm import TransformerWalkModel
from repro.nn import Backend, Tensor, causal_mask, no_grad
from repro.nn.backend import DECODE_KERNEL
from repro.serve.engine import ContinuousBatcher


@pytest.fixture(scope="module")
def model():
    m = TransformerWalkModel(num_nodes=40, dim=16, num_heads=2,
                             num_layers=2, max_length=24,
                             rng=np.random.default_rng(7))
    m.eval()
    return m


def _tensor_decoder(model, rows):
    """Per-op reference: the training modules, one Tensor op per call,
    decoding against KV caches (the ``cache=`` arm of attention)."""
    caches = model.new_caches(rows)
    decoded = 0

    def forward(tokens, mask):
        nonlocal decoded
        length = tokens.shape[1]
        with no_grad():
            h = model.embed(tokens) \
                + Tensor(model._positions[decoded: decoded + length])
            for block, cache in zip(model.blocks, caches):
                h = block(h, mask, cache=cache)
            logits = model.head(model.final_norm(h[:, -1, :]))
        decoded += length
        return logits.data

    return forward


# ----------------------------------------------------------------------
# Uniform batch, one group: decode_step vs the per-op Tensor forward
# ----------------------------------------------------------------------
class TestUniformParity:
    def test_prefill_and_steps_match_per_op_reference(self, model):
        rng = np.random.default_rng(3)
        prompt = rng.integers(0, 40, size=(5, 4))

        ref = _tensor_decoder(model, 5)
        caches = model.new_caches(5)
        np.testing.assert_array_equal(
            DECODE_KERNEL.decode_step(model, caches, prompt, [(0, 5)],
                                      mask=causal_mask(4)),
            ref(prompt, causal_mask(4)))

        for _ in range(6):
            ids = rng.integers(0, 40, size=(5, 1))
            np.testing.assert_array_equal(
                DECODE_KERNEL.decode_step(model, caches, ids, [(0, 5)]),
                ref(ids, None))

    def test_sampled_walks_match_reference_oracle(self, model):
        walks = model.sample(6, 10, np.random.default_rng(5))
        oracle = model.sample_reference(6, 10, np.random.default_rng(5))
        np.testing.assert_array_equal(walks, oracle)


# ----------------------------------------------------------------------
# Ragged batch: groups of different lengths in one step (the serving
# engine)
# ----------------------------------------------------------------------
class TestRaggedParity:
    def test_single_token_groups_match_uniform_per_request(self, model):
        """A coalesced two-group step equals each request decoded alone."""
        rng = np.random.default_rng(21)

        # Two requests at different walk lengths, prefilled in isolation.
        prompts = [rng.integers(0, 40, size=(3, 2)),
                   rng.integers(0, 40, size=(2, 5))]
        solo_caches = []
        for p in prompts:
            solo_caches.append(model.new_caches(p.shape[0]))
            DECODE_KERNEL.decode_step(model, solo_caches[-1], p,
                                      [(0, p.shape[0])],
                                      mask=causal_mask(p.shape[1]))

        caches = model.new_caches(0)
        for cache, d0, d1 in zip(caches, *solo_caches):
            cache.append_cache(d0)
            cache.append_cache(d1)

        ids = rng.integers(0, 40, size=(5, 1))
        grouped = DECODE_KERNEL.decode_step(
            model, caches, ids, [(0, 3), (3, 5)])
        solo = np.concatenate([
            DECODE_KERNEL.decode_step(model, solo_caches[0], ids[:3],
                                      [(0, 3)]),
            DECODE_KERNEL.decode_step(model, solo_caches[1], ids[3:],
                                      [(0, 2)])])
        np.testing.assert_array_equal(grouped, solo)
        np.testing.assert_array_equal(caches[0].row_lengths,
                                      [3, 3, 3, 6, 6])


# ----------------------------------------------------------------------
# Kernel lookup at call time
# ----------------------------------------------------------------------
class TestKernelLookup:
    """Sampling and the serving engine resolve ``decode_step`` at every
    call, so patching the method (as a profiler's per-method wrapper
    does) sees every decode."""

    def test_sample_and_engine_reach_patched_kernel(self, model,
                                                    monkeypatch):
        calls = []
        original = Backend.__dict__["decode_step"]

        def counting(self, *args, **kwargs):
            calls.append(args[2].shape[0])
            return original(self, *args, **kwargs)

        monkeypatch.setattr(Backend, "decode_step", counting)
        model.sample(3, 5, np.random.default_rng(1))
        assert calls == [3] * 5  # one prefill + four steps

        calls.clear()
        engine = ContinuousBatcher(model, max_walks=8)
        ticket = engine.submit(2, 6, np.random.default_rng(2))
        engine.drain()
        assert ticket.result(timeout=0).shape == (2, 6)
        # one isolated prefill at admission, then five grouped steps
        assert calls == [2] * 6


# ----------------------------------------------------------------------
# Input hygiene
# ----------------------------------------------------------------------
class TestNoInputMutation:
    def test_decode_step_does_not_mutate_inputs(self, model):
        rng = np.random.default_rng(13)
        tokens = rng.integers(0, 40, size=(3, 4))
        tokens_copy = tokens.copy()
        mask = causal_mask(4)
        mask_copy = mask.copy()
        state_copy = model.state_dict()  # copies
        positions_copy = model._positions.copy()

        DECODE_KERNEL.decode_step(model, model.new_caches(3), tokens,
                                  [(0, 3)], mask=mask)

        np.testing.assert_array_equal(tokens, tokens_copy)
        np.testing.assert_array_equal(mask, mask_copy)
        np.testing.assert_array_equal(model._positions, positions_copy)
        state = model.state_dict()
        assert state.keys() == state_copy.keys()
        for name, value in state_copy.items():
            np.testing.assert_array_equal(state[name], value)
