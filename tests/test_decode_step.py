"""Parity and hygiene tests for the whole-step ``decode_step`` kernel.

``Backend.decode_step`` must reproduce the per-op reference (the
training modules' ``cache=`` arm) byte for byte in both of its modes:

* uniform prefill/decode (the :class:`WalkDecoder` path),
* ragged single-token serving decode (the batcher steady state).

It must also never mutate its inputs — tokens, mask, model
parameters.  Both sampling and the serving engine must look the kernel
up at call time, so a method-level wrapper sees every decode.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.models.walk_lm import TransformerWalkModel
from repro.nn import Backend, Tensor, WalkDecoder, causal_mask, no_grad
from repro.nn.attention import LayerKVCache
from repro.nn.backend import DECODE_KERNEL
from repro.nn.inference import _WalkWeights
from repro.serve.engine import ContinuousBatcher


@pytest.fixture(scope="module")
def model():
    m = TransformerWalkModel(num_nodes=40, dim=16, num_heads=2,
                             num_layers=2, max_length=24,
                             rng=np.random.default_rng(7))
    m.eval()
    return m


def _fresh_caches(weights):
    return [LayerKVCache(capacity=weights.positions.shape[0])
            for _ in weights.blocks]


def _tensor_decoder(model):
    """Per-op reference: the training modules, one Tensor op per call,
    decoding against KV caches (the ``cache=`` arm of attention)."""
    caches = [LayerKVCache(capacity=model._positions.shape[0])
              for _ in model.blocks]
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
# Uniform mode: decode_step vs the per-op Tensor forward
# ----------------------------------------------------------------------
class TestUniformParity:
    def test_prefill_and_steps_match_per_op_reference(self, model):
        rng = np.random.default_rng(3)
        prompt = rng.integers(0, 40, size=(5, 4))

        ref = _tensor_decoder(model)
        decoder = WalkDecoder(model)
        np.testing.assert_array_equal(decoder.prefill(prompt),
                                      ref(prompt, causal_mask(4)))

        for _ in range(6):
            ids = rng.integers(0, 40, size=5)
            np.testing.assert_array_equal(decoder.step(ids),
                                          ref(ids[:, None], None))

    def test_sampled_walks_match_reference_oracle(self, model):
        walks = model.sample(6, 10, np.random.default_rng(5))
        oracle = model.sample_reference(6, 10, np.random.default_rng(5))
        np.testing.assert_array_equal(walks, oracle)


# ----------------------------------------------------------------------
# Ragged serving mode
# ----------------------------------------------------------------------
class TestRaggedParity:
    def test_single_token_groups_match_uniform_per_request(self, model):
        """A coalesced ragged step equals each request decoded alone."""
        weights = _WalkWeights(model)
        rng = np.random.default_rng(21)

        # Two requests at different walk lengths, prefilled in isolation.
        prompts = [rng.integers(0, 40, size=(3, 2)),
                   rng.integers(0, 40, size=(2, 5))]
        decoders = []
        for p in prompts:
            d = WalkDecoder(model)
            d.prefill(p)
            decoders.append(d)

        caches = _fresh_caches(weights)
        for cache, d0, d1 in zip(caches, decoders[0].caches,
                                 decoders[1].caches):
            cache.append_cache(d0)
            cache.append_cache(d1)

        ids = rng.integers(0, 40, size=5)
        groups = [(0, 3, 3), (3, 5, 6)]
        ragged = DECODE_KERNEL.decode_step(
            weights, caches, ids[:, None], caches[0].row_lengths,
            groups=groups)
        solo = np.concatenate([decoders[0].step(ids[:3]),
                               decoders[1].step(ids[3:])])
        np.testing.assert_array_equal(ragged, solo)


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
        # one isolated prefill at admission, then five ragged steps
        assert calls == [2] * 6


# ----------------------------------------------------------------------
# Input hygiene
# ----------------------------------------------------------------------
class TestNoInputMutation:
    def test_decode_step_does_not_mutate_inputs(self, model):
        weights = _WalkWeights(model)
        rng = np.random.default_rng(13)
        tokens = rng.integers(0, 40, size=(3, 4))
        tokens_copy = tokens.copy()
        mask = causal_mask(4)
        mask_copy = mask.copy()
        param_copies = [(blk.q[0].copy(), blk.ff_in[0].copy())
                        for blk in weights.blocks]
        embed_copy = weights.embed.copy()

        DECODE_KERNEL.decode_step(weights, _fresh_caches(weights), tokens,
                                  0, mask=mask)

        np.testing.assert_array_equal(tokens, tokens_copy)
        np.testing.assert_array_equal(mask, mask_copy)
        np.testing.assert_array_equal(weights.embed, embed_copy)
        for blk, (q_w, ff_w) in zip(weights.blocks, param_copies):
            np.testing.assert_array_equal(blk.q[0], q_w)
            np.testing.assert_array_equal(blk.ff_in[0], ff_w)
