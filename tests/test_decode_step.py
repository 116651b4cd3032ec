"""Parity and hygiene tests for the whole-step ``decode_step`` kernels.

Both decode kernels (``Backend.decode_step`` and
``FusedNumpyBackend.decode_step``) must reproduce the per-op reference
byte for byte in both of their modes:

* uniform prefill/decode (the :class:`WalkDecoder` path),
* ragged single-token serving decode (the batcher steady state).

They must also never mutate their inputs — tokens, mask, model
parameters — even when the fused kernel runs the step in caller-owned
scratch buffers, and the logits they return must be freshly allocated
(never a scratch view a later call would clobber).  Both sampling and
the serving engine must look the kernel up on the active backend at
call time, so a method-level wrapper sees every decode.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.models.walk_lm import TransformerWalkModel
from repro.nn import (Backend, FusedNumpyBackend, Tensor, WalkDecoder,
                      active_backend, causal_mask, no_grad, set_backend,
                      use_backend)
from repro.nn.attention import LayerKVCache
from repro.nn.backend import BACKENDS, scratch_buffer
from repro.nn.inference import _WalkWeights
from repro.serve.engine import ContinuousBatcher

BIT_IDENTICAL = list(BACKENDS)


@pytest.fixture(autouse=True)
def _restore_backend():
    previous = active_backend().name
    yield
    set_backend(previous)


@pytest.fixture(scope="module")
def model():
    m = TransformerWalkModel(num_nodes=40, dim=16, num_heads=2,
                             num_layers=2, max_length=24,
                             rng=np.random.default_rng(7))
    m.eval()
    return m


def _fresh_caches(weights, batch_capacity=None):
    return [LayerKVCache(capacity=weights.positions.shape[0])
            for _ in weights.blocks]


def _tensor_decoder(model):
    """Per-op reference: the training modules, one Tensor op per call,
    decoding against KV caches (the ``cache=`` arm of attention)."""
    caches = [LayerKVCache() for _ in model.blocks]
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
    @pytest.mark.parametrize("backend", BIT_IDENTICAL)
    def test_prefill_and_steps_match_per_op_reference(self, model, backend):
        set_backend(backend)
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

    @pytest.mark.parametrize("backend", BIT_IDENTICAL)
    def test_sampled_walks_match_reference_oracle(self, model, backend):
        set_backend(backend)
        walks = model.sample(6, 10, np.random.default_rng(5))
        oracle = model.sample_reference(6, 10, np.random.default_rng(5))
        np.testing.assert_array_equal(walks, oracle)

    def test_backends_agree_with_each_other(self, model):
        rng = np.random.default_rng(9)
        prompt = rng.integers(0, 40, size=(3, 2))
        outs = {}
        for backend in BIT_IDENTICAL:
            set_backend(backend)
            dec = WalkDecoder(model)
            logits = dec.prefill(prompt)
            logits = dec.step(np.argmax(logits, axis=1))
            outs[backend] = logits
        baseline = outs.pop("numpy")
        for backend, logits in outs.items():
            np.testing.assert_array_equal(logits, baseline, err_msg=backend)


# ----------------------------------------------------------------------
# Ragged serving mode
# ----------------------------------------------------------------------
class TestRaggedParity:
    @pytest.mark.parametrize("backend", BIT_IDENTICAL)
    def test_single_token_groups_match_uniform_per_request(self, model,
                                                           backend):
        """A coalesced ragged step equals each request decoded alone
        by the reference kernel."""
        weights = _WalkWeights(model)
        rng = np.random.default_rng(21)

        # Two requests at different walk lengths, prefilled in isolation.
        prompts = [rng.integers(0, 40, size=(3, 2)),
                   rng.integers(0, 40, size=(2, 5))]
        decoders = []
        with use_backend("numpy"):
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
        ragged = BACKENDS[backend].decode_step(
            weights, caches, ids[:, None], caches[0].row_lengths,
            groups=groups, scratch={})
        with use_backend("numpy"):
            solo = np.concatenate([decoders[0].step(ids[:3]),
                                   decoders[1].step(ids[3:])])
        np.testing.assert_array_equal(ragged, solo)

# ----------------------------------------------------------------------
# Kernel lookup at call time
# ----------------------------------------------------------------------
class TestKernelLookup:
    """Sampling and the serving engine resolve ``decode_step`` on the
    active backend at every call, so patching the method (as a
    profiler's per-method wrapper does) sees every decode."""

    @pytest.mark.parametrize("backend,cls", [("numpy", Backend),
                                             ("fused", FusedNumpyBackend)])
    def test_sample_and_engine_reach_patched_kernel(self, model, monkeypatch,
                                                    backend, cls):
        calls = []
        original = cls.__dict__["decode_step"]

        def counting(self, *args, **kwargs):
            calls.append(args[2].shape[0])
            return original(self, *args, **kwargs)

        monkeypatch.setattr(cls, "decode_step", counting)
        set_backend(backend)
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
    @pytest.mark.parametrize("backend", BIT_IDENTICAL)
    def test_decode_step_does_not_mutate_inputs(self, model, backend):
        set_backend(backend)
        weights = _WalkWeights(model)
        rng = np.random.default_rng(13)
        tokens = rng.integers(0, 40, size=(3, 4))
        tokens_copy = tokens.copy()
        mask = causal_mask(4)
        mask_copy = mask.copy()
        param_copies = [(blk.q[0].copy(), blk.ff_in[0].copy())
                        for blk in weights.blocks]
        embed_copy = weights.embed.copy()

        caches = _fresh_caches(weights)
        scratch = {}
        active_backend().decode_step(weights, caches, tokens, 0,
                                     mask=mask, scratch=scratch)

        np.testing.assert_array_equal(tokens, tokens_copy)
        np.testing.assert_array_equal(mask, mask_copy)
        np.testing.assert_array_equal(weights.embed, embed_copy)
        for blk, (q_w, ff_w) in zip(weights.blocks, param_copies):
            np.testing.assert_array_equal(blk.q[0], q_w)
            np.testing.assert_array_equal(blk.ff_in[0], ff_w)

    @pytest.mark.parametrize("backend", BIT_IDENTICAL)
    def test_returned_logits_survive_scratch_reuse(self, model, backend):
        """Logits must be fresh allocations, not views of scratch."""
        set_backend(backend)
        weights = _WalkWeights(model)
        rng = np.random.default_rng(17)
        caches = _fresh_caches(weights)
        scratch = {}
        backend_obj = active_backend()
        prompt = rng.integers(0, 40, size=(2, 3))
        first = backend_obj.decode_step(weights, caches, prompt, 0,
                                        mask=causal_mask(3),
                                        scratch=scratch)
        held = first.copy()
        backend_obj.decode_step(weights, caches,
                                rng.integers(0, 40, size=(2, 1)), 3,
                                scratch=scratch)
        np.testing.assert_array_equal(first, held)


class TestScratchBuffer:
    def test_none_scratch_allocates_fresh(self):
        a = scratch_buffer(None, "x", (2, 3))
        b = scratch_buffer(None, "x", (2, 3))
        assert a is not b

    def test_dict_scratch_reuses_matching_shape(self):
        scratch = {}
        a = scratch_buffer(scratch, "x", (2, 3))
        b = scratch_buffer(scratch, "x", (2, 3))
        assert a is b

    def test_dict_scratch_reallocates_on_shape_change(self):
        scratch = {}
        a = scratch_buffer(scratch, "x", (2, 3))
        b = scratch_buffer(scratch, "x", (4, 3))
        assert a is not b
        assert b.shape == (4, 3)
        assert scratch_buffer(scratch, "x", (4, 3)) is b
