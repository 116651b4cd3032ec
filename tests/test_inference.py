"""Tests for the KV-cached incremental decoding subsystem.

Covers the three layers of the inference path: the per-layer KV cache in
``MultiHeadSelfAttention``/``TransformerBlock``, the grad-free decode
kernel ``Backend.decode_step`` on the model's own ``new_caches``, and
``TransformerWalkModel.sample`` — whose seeded output must be
byte-identical to ``sample_reference``, the slow path that recomputes the
full prefix every step.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro.models.walk_lm import TransformerWalkModel
from repro.nn import LayerKVCache, Tensor, causal_mask, no_grad
from repro.nn.attention import MultiHeadSelfAttention, TransformerBlock
from repro.nn.backend import DECODE_KERNEL
from repro.serve import ContinuousBatcher, serve_walks


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


def _cache(rows, capacity, heads=4, head_dim=4):
    return LayerKVCache(rows, heads, capacity, head_dim, np.float64)


class TestLayerKVCache:
    def test_append_grows_time_axis(self, rng):
        cache = _cache(2, 5, head_dim=8)
        np.testing.assert_array_equal(cache.row_lengths, [0, 0])
        k1 = rng.normal(size=(2, 4, 3, 8))
        k_all, v_all = cache.append(k1, k1 + 1.0, 0, 2)
        np.testing.assert_array_equal(cache.row_lengths, [3, 3])
        np.testing.assert_array_equal(k_all, k1)
        np.testing.assert_array_equal(v_all, k1 + 1.0)
        k_all, _ = cache.append(k1[:, :, :1], k1[:, :, :1].copy(), 0, 2)
        np.testing.assert_array_equal(cache.row_lengths, [4, 4])
        assert k_all.shape == (2, 4, 4, 8) and k_all.base is not None

    def test_append_to_one_group_leaves_the_others(self, rng):
        cache = _cache(3, 6, heads=2)
        cache.append(rng.normal(size=(3, 2, 2, 4)),
                     rng.normal(size=(3, 2, 2, 4)), 0, 3)
        k_new = rng.normal(size=(1, 2, 1, 4))
        k_g, v_g = cache.append(k_new, k_new + 1.0, 2, 3)
        np.testing.assert_array_equal(cache.row_lengths, [2, 2, 3])
        np.testing.assert_array_equal(k_g[:, :, 2:], k_new)
        np.testing.assert_array_equal(v_g[:, :, 2:], k_new + 1.0)

    def test_capacity_overflow_rejected(self, rng):
        cache = _cache(1, 2, heads=2)
        k = rng.normal(size=(1, 2, 2, 4))
        cache.append(k, k.copy(), 0, 1)
        with pytest.raises(ValueError, match="capacity"):
            cache.append(k[:, :, :1], k[:, :, :1].copy(), 0, 1)

    def test_attention_cached_decode_matches_full_forward(self, rng):
        attn = MultiHeadSelfAttention(16, 4, rng)
        x = Tensor(rng.normal(size=(3, 6, 16)))
        with no_grad():
            full = attn(x, causal_mask(6)).numpy()
            cache = _cache(3, 6)
            prefix = attn(Tensor(x.numpy()[:, :4]), causal_mask(4),
                          cache=cache).numpy()
            np.testing.assert_allclose(prefix, full[:, :4], atol=1e-12)
            for t in range(4, 6):
                step = attn(Tensor(x.numpy()[:, t: t + 1]),
                            cache=cache).numpy()
                np.testing.assert_allclose(step[:, 0], full[:, t],
                                           atol=1e-12)
        np.testing.assert_array_equal(cache.row_lengths, [6, 6, 6])

    def test_block_cached_decode_matches_full_forward(self, rng):
        block = TransformerBlock(16, 4, rng)
        x = Tensor(rng.normal(size=(2, 5, 16)))
        with no_grad():
            full = block(x, causal_mask(5)).numpy()
            cache = _cache(2, 5)
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
            attn(x, causal_mask(2), cache=_cache(1, 2))


def _decode(model, caches, tokens, mask=None):
    """One decode-kernel call with the whole batch as one row group."""
    tokens = np.asarray(tokens, dtype=np.int64)
    return DECODE_KERNEL.decode_step(model, caches, tokens,
                                     [(0, tokens.shape[0])], mask=mask)


class TestDecodeKernel:
    def test_prefill_then_steps_match_forward_logits(self, model):
        tokens = np.array([[30, 3, 7, 1, 12], [30, 9, 9, 2, 0]])
        # The float32 production model: a whole-prompt prefill runs the
        # forward's floats exactly.
        want = model.forward(tokens).numpy()[:, -1, :]
        got = _decode(model, model.new_caches(2), tokens, causal_mask(5))
        assert got.dtype == np.float32
        assert np.array_equal(got, want)
        # Steps reshape the GEMMs: float64 tolerance, on a float64 copy.
        model = copy.deepcopy(model).astype(np.float64)
        want = model.forward(tokens).numpy()[:, -1, :]

        caches = model.new_caches(2)
        got = _decode(model, caches, tokens[:, :2], causal_mask(2))
        for t in range(2, tokens.shape[1]):
            got = _decode(model, caches, tokens[:, t:t + 1])
        np.testing.assert_allclose(got, want, atol=1e-12)
        np.testing.assert_array_equal(caches[0].row_lengths,
                                      [tokens.shape[1]] * 2)

    def test_decoding_past_maximum_rejected(self, model):
        caches = model.new_caches(1)
        length = model.max_length + 1
        _decode(model, caches, np.full((1, length), model.start_token),
                causal_mask(length))
        with pytest.raises(IndexError, match="out of bounds"):
            _decode(model, caches, np.array([[0]]))

    def test_no_autograd_state_allocated(self, model):
        """Decoding is raw ndarrays: no graph even with grad enabled."""
        out = _decode(model, model.new_caches(1), np.array([[30, 2]]),
                      causal_mask(2))
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
    """Row-level insert/evict/compact: the serving engine's cache ops."""

    def _filled(self, rng, rows, length, capacity=6):
        cache = _cache(rows, capacity, heads=2)
        k = rng.normal(size=(rows, 2, length, 4))
        cache.append(k, k + 1.0, 0, rows)
        return cache, k

    def _window(self, cache, row0, row1):
        """The (k, v) rows ``row0:row1`` at their shared length."""
        length = int(cache.row_lengths[row0])
        return (cache._k[row0:row1, :, :length],
                cache._v[row0:row1, :, :length])

    def test_append_cache_transplants_rows(self, rng):
        a, k_a = self._filled(rng, 2, 3)
        b, k_b = self._filled(rng, 3, 5)
        a.append_cache(b)
        assert a.num_rows == 5
        np.testing.assert_array_equal(a.row_lengths, [3, 3, 5, 5, 5])
        k_rows, _ = self._window(a, 0, 2)
        np.testing.assert_array_equal(k_rows, k_a)
        k_rows, v_rows = self._window(a, 2, 5)
        np.testing.assert_array_equal(k_rows, k_b)
        np.testing.assert_array_equal(v_rows, k_b + 1.0)

    def test_append_cache_requires_matching_capacity(self, rng):
        a, _ = self._filled(rng, 1, 2, capacity=6)
        b, _ = self._filled(rng, 1, 2, capacity=7)
        with pytest.raises(ValueError, match="capacity"):
            a.append_cache(b)

    def test_gather_rows_evicts_and_compacts(self, rng):
        a, k_a = self._filled(rng, 2, 3)
        b, k_b = self._filled(rng, 3, 5)
        a.append_cache(b)
        a.gather_rows(np.array([0, 3, 4]))  # drop row 1 and b's first row
        assert a.num_rows == 3
        np.testing.assert_array_equal(a.row_lengths, [3, 5, 5])
        k_rows, _ = self._window(a, 0, 1)
        np.testing.assert_array_equal(k_rows, k_a[:1])
        k_rows, _ = self._window(a, 1, 3)
        np.testing.assert_array_equal(k_rows, k_b[1:])

    def test_append_ragged_capacity_overflow_rejected(self, rng):
        a, _ = self._filled(rng, 1, 6, capacity=6)  # row already full
        b, _ = self._filled(rng, 1, 2, capacity=6)
        a.append_cache(b)
        k = rng.normal(size=(1, 2, 1, 4))
        with pytest.raises(ValueError, match="capacity"):
            a.append(k, k.copy(), 0, 1)
        np.testing.assert_array_equal(a.row_lengths, [6, 2])
        # the shorter group of the same batch still has room
        a.append(k, k.copy(), 1, 2)
        np.testing.assert_array_equal(a.row_lengths, [6, 3])

    def test_rows_view_is_zero_copy(self, rng):
        a, k_a = self._filled(rng, 1, 2)
        b, k_b = self._filled(rng, 2, 4)
        a.append_cache(b)
        k_new = rng.normal(size=(2, 2, 1, 4))
        k_rows, v_rows = a.append(k_new, k_new + 1.0, 1, 3)
        assert k_rows.base is not None and v_rows.base is not None
        assert np.shares_memory(k_rows, a._k)
        assert np.shares_memory(v_rows, a._v)
        np.testing.assert_array_equal(k_rows[:, :, :4], k_b)
        np.testing.assert_array_equal(k_rows[:, :, 4:], k_new)
        np.testing.assert_array_equal(self._window(a, 0, 1)[0], k_a)

    def test_gather_all_rows_resets_to_pristine(self, rng):
        cache, _ = self._filled(rng, 2, 3)
        cache.gather_rows(np.empty(0, dtype=np.int64))
        assert cache.num_rows == 0 and cache.row_lengths.size == 0
        # a later admission starts a fresh batch
        donor, k = self._filled(rng, 1, 2)
        cache.append_cache(donor)
        np.testing.assert_array_equal(cache.row_lengths, [2])
        k_rows, _ = self._window(cache, 0, 1)
        np.testing.assert_array_equal(k_rows, k)


class TestSamplingGuards:
    """``_sampling_prompt`` is the one home of the sampling checks, so
    standalone and served sampling reject a bad request alike."""

    def test_zero_walks_rejected(self, model):
        engine = ContinuousBatcher(model, max_walks=8)
        for call in (model.sample, model.sample_reference, engine.submit):
            with pytest.raises(ValueError, match="num_walks must be >= 1"):
                call(0, 5, np.random.default_rng(0))
        assert engine.pending_count == 0

        # The chunked front doors reject the request before their chunk
        # loops call ``starts_fn`` or draw from the RNG.
        def starts_fn(take, rng):
            raise AssertionError("starts_fn ran for a rejected request")

        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        for call in (model.sample_chunked,
                     lambda *args, **kw: serve_walks(engine, *args, **kw)):
            with pytest.raises(ValueError, match="num_walks must be >= 1"):
                call(0, 5, rng, starts_fn=starts_fn)
        assert rng.bit_generator.state == before
        assert engine.pending_count == 0
