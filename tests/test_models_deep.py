"""Tests for the deep baselines: GAE, NetGAN, TagGen, and the walk LM."""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro.graph import planted_protected_graph
from repro.models import (GAEModel, NetGAN, TagGen, TransformerWalkModel,
                          normalized_adjacency)


@pytest.fixture(scope="module")
def small_graph():
    rng = np.random.default_rng(7)
    graph, _, _ = planted_protected_graph(40, 10, rng, p_in=0.3, p_out=0.03)
    return graph


class TestNormalizedAdjacency:
    def test_symmetric(self, small_graph):
        a_hat = normalized_adjacency(small_graph)
        np.testing.assert_allclose(a_hat, a_hat.T, atol=1e-12)

    def test_spectral_radius_at_most_one(self, small_graph):
        a_hat = normalized_adjacency(small_graph)
        eigs = np.linalg.eigvalsh(a_hat)
        assert eigs.max() <= 1.0 + 1e-9


class TestGAE:
    def test_loss_decreases(self, small_graph, rng):
        model = GAEModel(epochs=30, hidden=16, latent=8)
        model.fit(small_graph, rng)
        first = np.mean(model.loss_history[:5])
        last = np.mean(model.loss_history[-5:])
        assert last < first

    def test_generate_matches_size(self, small_graph, rng):
        model = GAEModel(epochs=15, hidden=16, latent=8).fit(small_graph, rng)
        out = model.generate(rng)
        assert out.num_nodes == small_graph.num_nodes
        assert out.num_edges == small_graph.num_edges

    def test_generate_before_fit(self, rng):
        with pytest.raises(RuntimeError):
            GAEModel().generate(rng)


class TestWalkLM:
    def test_log_likelihood_matches_manual(self, rng):
        model = TransformerWalkModel(5, dim=8, num_heads=2, num_layers=1,
                                     max_length=4, rng=rng)
        walks = np.array([[0, 1, 2, 3]])
        ll = model.log_likelihood(walks).numpy()[0]
        # Manual: feed [start, 0, 1, 2], pick log-softmax at targets.
        inputs = np.array([[5, 0, 1, 2]])
        logits = model.forward(inputs).numpy()
        shifted = logits - logits.max(axis=-1, keepdims=True)
        logp = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
        manual = sum(logp[0, t, walks[0, t]] for t in range(4))
        assert ll == pytest.approx(manual, rel=1e-9)

    def test_log_likelihood_pair_matches_two_calls(self, rng):
        """The fused pos/neg forward is bit-identical to two calls."""
        model = TransformerWalkModel(9, dim=8, num_heads=2, num_layers=2,
                                     max_length=7, rng=rng)
        pos = rng.integers(0, 9, size=(5, 7))
        neg = rng.integers(0, 9, size=(8, 7))
        fused_pos, fused_neg = model.log_likelihood_pair(pos, neg)
        np.testing.assert_array_equal(fused_pos.numpy(),
                                      model.log_likelihood(pos).numpy())
        np.testing.assert_array_equal(fused_neg.numpy(),
                                      model.log_likelihood(neg).numpy())

    def test_log_likelihood_pair_pads_unequal_lengths(self, rng):
        """Mixed-length batches pad + mask to the per-batch values."""
        model = TransformerWalkModel(9, dim=8, num_heads=2, num_layers=1,
                                     max_length=7, rng=rng)
        short = rng.integers(0, 9, size=(4, 3))
        long = rng.integers(0, 9, size=(6, 7))
        fused_short, fused_long = model.log_likelihood_pair(short, long)
        np.testing.assert_allclose(fused_short.numpy(),
                                   model.log_likelihood(short).numpy(),
                                   rtol=1e-12, atol=0)
        np.testing.assert_allclose(fused_long.numpy(),
                                   model.log_likelihood(long).numpy(),
                                   rtol=1e-12, atol=0)

    def test_log_likelihood_pair_gradients_match(self, rng):
        """The FairGen generator loss gets identical gradients either way."""
        model = TransformerWalkModel(9, dim=8, num_heads=2, num_layers=1,
                                     max_length=6, rng=rng)
        pos = rng.integers(0, 9, size=(5, 6))
        neg = rng.integers(0, 9, size=(5, 6))

        def loss_grads(model, fused: bool):
            for p in model.parameters():
                p.grad = None
            if fused:
                pos_ll, neg_ll = model.log_likelihood_pair(pos, neg)
            else:
                pos_ll = model.log_likelihood(pos)
                neg_ll = model.log_likelihood(neg)
            floor = float(pos_ll.numpy().mean()) - 2.0
            loss = -pos_ll.mean() + (neg_ll - floor).relu().mean() * 0.5
            loss.backward()
            return loss.item(), [p.grad.copy() for p in model.parameters()]

        # The float32 production model: the loss is exactly equal.
        assert loss_grads(model, True)[0] == loss_grads(model, False)[0]
        # The gradients, at float64 tolerances, on a float64 copy.
        model = copy.deepcopy(model).astype(np.float64)
        fused_loss, fused_grads = loss_grads(model, True)
        ref_loss, ref_grads = loss_grads(model, False)
        assert fused_loss == pytest.approx(ref_loss, abs=0)
        # Weight gradients contract over the batch axis — one 2B-row
        # reduction fused vs two B-row reductions summed — so they can
        # differ by reassociation ULPs even though per-walk forward
        # values are bit-identical.
        for got, want in zip(fused_grads, ref_grads):
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)

    def test_nll_positive(self, rng):
        model = TransformerWalkModel(6, 8, 2, 1, 5, rng)
        walks = rng.integers(0, 6, size=(4, 5))
        assert model.nll(walks).item() > 0

    def test_sample_shapes_and_range(self, rng):
        model = TransformerWalkModel(7, 8, 2, 1, 6, rng)
        walks = model.sample(9, 6, rng)
        assert walks.shape == (9, 6)
        assert walks.min() >= 0 and walks.max() < 7

    def test_sample_pinned_starts(self, rng):
        model = TransformerWalkModel(7, 8, 2, 1, 6, rng)
        starts = np.array([3] * 5)
        walks = model.sample(5, 6, rng, starts=starts)
        np.testing.assert_array_equal(walks[:, 0], 3)

    def test_sample_too_long_rejected(self, rng):
        model = TransformerWalkModel(5, 8, 2, 1, 4, rng)
        with pytest.raises(ValueError):
            model.sample(2, 10, rng)

    def test_invalid_temperature(self, rng):
        model = TransformerWalkModel(5, 8, 2, 1, 4, rng)
        with pytest.raises(ValueError):
            model.sample(2, 4, rng, temperature=0.0)

    def test_training_increases_real_walk_likelihood(self, small_graph, rng):
        """Core MLE sanity: NLL of held-out real walks drops with training."""
        from repro.graph import sample_walks
        from repro.nn import Adam

        model = TransformerWalkModel(small_graph.num_nodes, 16, 2, 1, 8, rng)
        held_out = sample_walks(small_graph, 32, 8, rng)
        before = model.nll(held_out).item()
        opt = Adam(model.parameters(), lr=0.01)
        for _ in range(30):
            batch = sample_walks(small_graph, 16, 8, rng)
            opt.zero_grad()
            loss = model.nll(batch)
            loss.backward()
            opt.step()
        after = model.nll(held_out).item()
        assert after < before


class TestTagGen:
    def test_fit_and_generate(self, small_graph, rng):
        model = TagGen(epochs=2, walks_per_epoch=32, dim=16, num_layers=1)
        out = model.fit(small_graph, rng).generate(rng)
        assert out.num_nodes == small_graph.num_nodes
        assert out.num_edges == small_graph.num_edges

    def test_loss_history_recorded(self, small_graph, rng):
        model = TagGen(epochs=3, walks_per_epoch=32, dim=16, num_layers=1)
        model.fit(small_graph, rng)
        assert len(model.loss_history) == 3

    def test_generate_walks_before_fit(self, rng):
        with pytest.raises(RuntimeError):
            TagGen().generate_walks(4, rng)


class TestNetGAN:
    def test_fit_and_generate(self, small_graph, rng):
        model = NetGAN(iterations=3, batch_size=16, walk_length=6)
        out = model.fit(small_graph, rng).generate(rng)
        assert out.num_nodes == small_graph.num_nodes
        assert out.num_edges == small_graph.num_edges

    def test_generated_walks_in_range(self, small_graph, rng):
        model = NetGAN(iterations=2, batch_size=8, walk_length=5)
        model.fit(small_graph, rng)
        walks = model.generate_walks(20, rng)
        assert walks.shape == (20, 5)
        assert walks.min() >= 0
        assert walks.max() < small_graph.num_nodes

    def test_critic_weight_clipping(self, small_graph, rng):
        model = NetGAN(iterations=2, batch_size=8, clip=0.01)
        model.fit(small_graph, rng)
        for p in model.critic.parameters():
            assert np.abs(p.data).max() <= 0.01 + 1e-12

    def test_generate_before_fit(self, rng):
        with pytest.raises(RuntimeError):
            NetGAN().generate_walks(4, rng)

    def test_zero_critic_steps_rejected(self):
        # The WGAN iteration's record is the last critic loss, so a
        # critic-free iteration is meaningless; fail at construction.
        with pytest.raises(ValueError, match="critic_steps"):
            NetGAN(critic_steps=0)

    def test_rollout_soft_is_distribution(self, small_graph, rng):
        model = NetGAN(iterations=1, batch_size=4, walk_length=4)
        model.fit(small_graph, rng)
        z = rng.standard_normal((4, model.latent_dim))
        soft, hard = model.generator.rollout(z, 4, rng)
        sums = soft.numpy().sum(axis=-1)
        np.testing.assert_allclose(sums, 1.0, atol=1e-8)
        assert hard.shape == (4, 4)
