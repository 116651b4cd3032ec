"""Tests for the KV-cached incremental decoding subsystem.

Covers the three layers of the inference path: the per-layer KV cache in
``MultiHeadSelfAttention``/``TransformerBlock``, the grad-free
``WalkDecoder``, and the rewritten ``TransformerWalkModel.sample`` —
whose seeded output must be byte-identical to ``sample_reference``, the
slow path that recomputes the full prefix every step.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.models.walk_lm import TransformerWalkModel
from repro.nn import LayerKVCache, Tensor, WalkDecoder, causal_mask, no_grad
from repro.nn.attention import MultiHeadSelfAttention, TransformerBlock


@pytest.fixture
def model(rng) -> TransformerWalkModel:
    m = TransformerWalkModel(num_nodes=30, dim=16, num_heads=4,
                             num_layers=2, max_length=24, rng=rng)
    return m.eval()


class TestCausalMaskCache:
    def test_values_unchanged(self):
        mask = causal_mask(5)
        assert mask.shape == (5, 5)
        assert mask[0, 1] == -1e9 and mask[1, 0] == 0.0
        assert np.all(np.tril(mask) == 0.0)

    def test_memoised_and_read_only(self):
        assert causal_mask(7) is causal_mask(7)
        with pytest.raises(ValueError):
            causal_mask(7)[0, 0] = 1.0


class TestLayerKVCache:
    def test_append_grows_time_axis(self, rng):
        cache = LayerKVCache(capacity=5)
        assert cache.length == 0
        k1 = rng.normal(size=(2, 4, 3, 8))
        cache.append(k1, k1.copy())
        assert cache.length == 3
        cache.append(k1[:, :, :1], k1[:, :, :1].copy())
        assert cache.length == 4

    def test_capacity_overflow_rejected(self, rng):
        cache = LayerKVCache(capacity=2)
        k = rng.normal(size=(1, 2, 2, 4))
        cache.append(k, k.copy())
        with pytest.raises(ValueError, match="capacity"):
            cache.append(k[:, :, :1], k[:, :, :1].copy())

    def test_attention_cached_decode_matches_full_forward(self, rng):
        attn = MultiHeadSelfAttention(16, 4, rng)
        x = Tensor(rng.normal(size=(3, 6, 16)))
        with no_grad():
            full = attn(x, causal_mask(6)).numpy()
            cache = LayerKVCache(capacity=6)
            prefix = attn(Tensor(x.numpy()[:, :4]), causal_mask(4),
                          cache=cache).numpy()
            np.testing.assert_allclose(prefix, full[:, :4], atol=1e-12)
            for t in range(4, 6):
                step = attn(Tensor(x.numpy()[:, t: t + 1]),
                            cache=cache).numpy()
                np.testing.assert_allclose(step[:, 0], full[:, t],
                                           atol=1e-12)
        assert cache.length == 6

    def test_block_cached_decode_matches_full_forward(self, rng):
        block = TransformerBlock(16, 4, rng)
        x = Tensor(rng.normal(size=(2, 5, 16)))
        with no_grad():
            full = block(x, causal_mask(5)).numpy()
            cache = LayerKVCache(capacity=5)
            out = block(Tensor(x.numpy()[:, :3]), causal_mask(3),
                        cache=cache).numpy()
            np.testing.assert_allclose(out, full[:, :3], atol=1e-12)
            for t in range(3, 5):
                step = block(Tensor(x.numpy()[:, t: t + 1]),
                             cache=cache).numpy()
                np.testing.assert_allclose(step[:, 0], full[:, t],
                                           atol=1e-12)

    def test_cache_under_autograd_rejected(self, rng):
        """Misuse guard: the cache silently detaches k/v, so using it
        while gradients are enabled must fail fast, not corrupt grads."""
        attn = MultiHeadSelfAttention(16, 4, rng)
        x = Tensor(rng.normal(size=(1, 2, 16)))
        with pytest.raises(RuntimeError, match="inference-only"):
            attn(x, causal_mask(2), cache=LayerKVCache(capacity=2))


class TestWalkDecoder:
    def test_prefill_then_steps_match_forward_logits(self, model):
        tokens = np.array([[30, 3, 7, 1, 12], [30, 9, 9, 2, 0]])
        want = model.forward(tokens).numpy()[:, -1, :]

        decoder = WalkDecoder(model)
        got = decoder.prefill(tokens[:, :2])
        for t in range(2, tokens.shape[1]):
            got = decoder.step(tokens[:, t])
        np.testing.assert_allclose(got, want, atol=1e-12)
        assert decoder.length == tokens.shape[1]

    def test_step_before_prefill_rejected(self, model):
        with pytest.raises(RuntimeError, match="prefill"):
            WalkDecoder(model).step(np.array([1]))

    def test_double_prefill_rejected(self, model):
        decoder = WalkDecoder(model)
        decoder.prefill(np.array([[30]]))
        with pytest.raises(RuntimeError, match="first"):
            decoder.prefill(np.array([[30]]))

    def test_decoding_past_maximum_rejected(self, model):
        decoder = WalkDecoder(model)
        decoder.prefill(np.full((1, model.max_length + 1), model.start_token))
        with pytest.raises(ValueError, match="maximum"):
            decoder.step(np.array([0]))

    def test_no_autograd_state_allocated(self, model):
        """Decoding is raw ndarrays: no graph even with grad enabled."""
        decoder = WalkDecoder(model)
        out = decoder.prefill(np.array([[30, 2]]))
        assert isinstance(out, np.ndarray)
        assert all(p.grad is None for p in model.parameters())


class TestSampleParity:
    """Seeded KV-cached sampling must match the full-recompute oracle
    byte for byte: same walks, same RNG consumption."""

    def check(self, model, num_walks, length, **kwargs):
        fast = model.sample(num_walks, length,
                            np.random.default_rng(77), **kwargs)
        slow = model.sample_reference(num_walks, length,
                                      np.random.default_rng(77), **kwargs)
        np.testing.assert_array_equal(fast, slow)
        assert fast.shape == (num_walks, length)
        assert fast.min() >= 0 and fast.max() < model.num_nodes
        return fast

    def test_plain(self, model):
        self.check(model, 12, model.max_length)

    def test_shorter_than_max_length(self, model):
        self.check(model, 12, model.max_length // 2)

    def test_temperature(self, model):
        hot = self.check(model, 12, 10, temperature=1.7)
        cold = self.check(model, 12, 10, temperature=0.4)
        assert not np.array_equal(hot, cold)

    def test_pinned_starts(self, model, rng):
        starts = rng.integers(model.num_nodes, size=12)
        walks = self.check(model, 12, 10, starts=starts)
        np.testing.assert_array_equal(walks[:, 0], starts)

    def test_pinned_starts_with_length_one(self, model, rng):
        starts = rng.integers(model.num_nodes, size=5)
        walks = self.check(model, 5, 1, starts=starts)
        np.testing.assert_array_equal(walks, starts[:, None])

    def test_rng_stream_position_identical_after_sampling(self, model):
        """Both paths must leave the generator at the same position."""
        rng_fast = np.random.default_rng(5)
        rng_slow = np.random.default_rng(5)
        model.sample(6, 9, rng_fast)
        model.sample_reference(6, 9, rng_slow)
        assert rng_fast.random() == rng_slow.random()

    def test_invalid_arguments_rejected(self, model):
        with pytest.raises(ValueError, match="temperature"):
            model.sample(2, 5, np.random.default_rng(0), temperature=0.0)
        with pytest.raises(ValueError, match="maximum"):
            model.sample(2, model.max_length + 1, np.random.default_rng(0))

    def test_sampling_leaves_no_gradients(self, model):
        model.sample(4, 8, np.random.default_rng(1))
        assert all(p.grad is None for p in model.parameters())


class TestSampleChunked:
    def test_concatenates_chunks(self, model):
        walks = model.sample_chunked(10, 8, np.random.default_rng(3),
                                     chunk=4)
        assert walks.shape == (10, 8)

    def test_matches_manual_chunk_loop(self, model):
        # A manual loop over one shared generator is the chunking
        # contract TagGen/FairGen relied on before sample_chunked.
        rng_manual = np.random.default_rng(3)
        want = np.concatenate([model.sample(4, 8, rng_manual)
                               for _ in range(3)], axis=0)
        got = model.sample_chunked(12, 8, np.random.default_rng(3), chunk=4)
        np.testing.assert_array_equal(got, want)

    def test_starts_fn_pins_each_chunk(self, model):
        calls = []

        def starts_fn(take, rng_):
            calls.append(take)
            return np.zeros(take, dtype=np.int64)

        walks = model.sample_chunked(10, 6, np.random.default_rng(4),
                                     chunk=4, starts_fn=starts_fn)
        assert calls == [4, 4, 2]
        np.testing.assert_array_equal(walks[:, 0], np.zeros(10))


class TestLayerKVCacheRowOps:
    """Row-level insert/evict/compact: the serving engine's cache mode."""

    def _filled(self, rng, rows, length, capacity=6):
        cache = LayerKVCache(capacity=capacity)
        k = rng.normal(size=(rows, 2, length, 4))
        cache.append(k, k + 1.0)
        return cache, k

    def test_append_cache_transplants_rows(self, rng):
        a, k_a = self._filled(rng, 2, 3)
        b, k_b = self._filled(rng, 3, 5)
        a.append_cache(b)
        assert a.num_rows == 5
        np.testing.assert_array_equal(a.row_lengths, [3, 3, 5, 5, 5])
        k_rows, _ = a.rows_view(0, 2, 3)
        np.testing.assert_array_equal(k_rows, k_a)
        k_rows, v_rows = a.rows_view(2, 5, 5)
        np.testing.assert_array_equal(k_rows, k_b)
        np.testing.assert_array_equal(v_rows, k_b + 1.0)

    def test_append_cache_requires_matching_capacity(self, rng):
        a, _ = self._filled(rng, 1, 2, capacity=6)
        b, _ = self._filled(rng, 1, 2, capacity=7)
        with pytest.raises(ValueError, match="capacity"):
            a.append_cache(b)

    def test_append_cache_rejects_empty_donor(self, rng):
        a, _ = self._filled(rng, 1, 2)
        with pytest.raises(ValueError, match="non-empty"):
            a.append_cache(LayerKVCache(capacity=6))

    def test_gather_rows_evicts_and_compacts(self, rng):
        a, k_a = self._filled(rng, 2, 3)
        b, k_b = self._filled(rng, 3, 5)
        a.append_cache(b)
        a.gather_rows(np.array([0, 3, 4]))  # drop row 1 and b's first row
        assert a.num_rows == 3
        np.testing.assert_array_equal(a.row_lengths, [3, 5, 5])
        k_rows, _ = a.rows_view(0, 1, 3)
        np.testing.assert_array_equal(k_rows, k_a[:1])
        k_rows, _ = a.rows_view(1, 3, 5)
        np.testing.assert_array_equal(k_rows, k_b[1:])

    def test_gather_all_rows_resets_to_pristine(self, rng):
        cache, _ = self._filled(rng, 2, 3)
        cache.gather_rows(np.empty(0, dtype=np.int64))
        assert cache.num_rows == 0 and cache.length == 0
        # the cache is reusable afterwards, as if freshly constructed
        k = rng.normal(size=(1, 2, 2, 4))
        cache.append(k, k.copy())
        assert cache.length == 2

    def test_append_ragged_advances_per_row_lengths(self, rng):
        a, _ = self._filled(rng, 2, 3)
        b, _ = self._filled(rng, 1, 5)
        a.append_cache(b)
        k_new = rng.normal(size=(3, 2, 1, 4))
        a.append_ragged(k_new, k_new + 1.0)
        np.testing.assert_array_equal(a.row_lengths, [4, 4, 6])
        k_rows, v_rows = a.rows_view(0, 2, 4)
        np.testing.assert_array_equal(k_rows[:, :, 3:], k_new[:2])
        np.testing.assert_array_equal(v_rows[:, :, 3:], k_new[:2] + 1.0)
        k_rows, _ = a.rows_view(2, 3, 6)
        np.testing.assert_array_equal(k_rows[:, :, 5:], k_new[2:])

    def test_append_ragged_capacity_overflow_rejected(self, rng):
        a, _ = self._filled(rng, 1, 6, capacity=6)  # row already full
        k = rng.normal(size=(1, 2, 1, 4))
        with pytest.raises(ValueError, match="capacity"):
            a.append_ragged(k, k.copy())

    def test_rows_view_is_zero_copy(self, rng):
        cache, k = self._filled(rng, 3, 4)
        k_rows, v_rows = cache.rows_view(1, 3, 4)
        assert k_rows.base is not None and v_rows.base is not None
        np.testing.assert_array_equal(k_rows, k[1:3])


class TestWalkDecoderBatchGuards:
    """The decode batch is frozen at prefill (serving engines, not the
    decoder, handle growing/shrinking walk populations)."""

    def test_step_batch_mismatch_raises_clear_error(self, model):
        decoder = WalkDecoder(model)
        decoder.prefill(np.full((3, 1), model.start_token))
        assert decoder.batch_size == 3
        with pytest.raises(ValueError, match="frozen at prefill"):
            decoder.step(np.array([1, 2]))
        with pytest.raises(ValueError, match="frozen at prefill"):
            decoder.step(np.array([1, 2, 3, 4]))

    def test_empty_batch_prefill_rejected(self, model):
        with pytest.raises(ValueError, match="non-empty"):
            WalkDecoder(model).prefill(np.empty((0, 1), dtype=np.int64))

    def test_empty_prompt_prefill_rejected(self, model):
        with pytest.raises(ValueError, match="non-empty"):
            WalkDecoder(model).prefill(np.empty((2, 0), dtype=np.int64))

    def test_one_dimensional_prompt_rejected(self, model):
        with pytest.raises(ValueError, match=r"\(B, T\)"):
            WalkDecoder(model).prefill(np.array([model.start_token]))
