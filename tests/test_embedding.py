"""Tests for SGNS word2vec, node2vec, t-SNE and separability scores."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.data import load_dataset
from repro.embedding import (Node2VecConfig, SkipGramModel,
                             centroid_separability, node2vec_embedding,
                             pairwise_sq_distances, silhouette_score, tsne,
                             unigram_table, walks_to_pairs)
from repro.embedding.word2vec import draw_negatives, noise_cdf
from repro.graph import Graph, planted_protected_graph, sample_walks
from repro.obs import trace


class TestWalksToPairs:
    def test_window_one(self):
        walks = np.array([[0, 1, 2]])
        pairs = walks_to_pairs(walks, window=1)
        as_set = set(map(tuple, pairs.tolist()))
        assert as_set == {(0, 1), (1, 0), (1, 2), (2, 1)}

    def test_window_two_includes_distance_two(self):
        walks = np.array([[0, 1, 2]])
        pairs = set(map(tuple, walks_to_pairs(walks, window=2).tolist()))
        assert (0, 2) in pairs and (2, 0) in pairs

    def test_window_larger_than_walk(self):
        pairs = walks_to_pairs(np.array([[0, 1]]), window=10)
        assert len(pairs) == 2

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            walks_to_pairs(np.array([[0, 1]]), window=0)

    def test_too_short_walks(self):
        with pytest.raises(ValueError):
            walks_to_pairs(np.array([[0]]), window=1)


class TestUnigramTable:
    def test_sums_to_one(self):
        walks = np.array([[0, 1, 1, 2]])
        p = unigram_table(walks, 4)
        assert p.sum() == pytest.approx(1.0)

    def test_smoothing_flattens(self):
        walks = np.array([[0] * 99 + [1]])
        p_flat = unigram_table(walks, 2, power=0.5)
        p_raw = unigram_table(walks, 2, power=1.0)
        assert p_flat[1] > p_raw[1]

    def test_unseen_nodes_tiny_mass(self):
        p = unigram_table(np.array([[0, 1]]), 5)
        assert (p[2:] < p[0]).all()


class TestNegativeSampler:
    """The hoisted CDF draws exactly what ``Generator.choice`` draws.

    CI installs an unpinned numpy; this fails if a release changes
    ``choice(n, size, p=...)``'s internals.
    """

    NOISE = {
        "uniform": np.full(7, 1.0 / 7),
        "skewed": unigram_table(np.array([[0] * 50 + [1] * 9 + [2, 3, 4]]),
                                6),
        "near_zero_mass": np.array([0.5, 1e-13, 0.25, 1e-13, 0.25 - 2e-13]),
    }

    @pytest.mark.parametrize("name", sorted(NOISE))
    @pytest.mark.parametrize("shape", [(1, 1), (3, 5), (2048, 5), (16, 0)])
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_matches_generator_choice(self, name, shape, seed):
        noise = self.NOISE[name]
        expected_rng = np.random.default_rng(seed)
        expected = expected_rng.choice(len(noise), size=shape, p=noise)
        rng = np.random.default_rng(seed)
        got = draw_negatives(rng, noise_cdf(noise), np.empty(shape))
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected)
        assert rng.bit_generator.state == expected_rng.bit_generator.state


class TestSkipGram:
    def test_invalid_sizes(self, rng):
        with pytest.raises(ValueError):
            SkipGramModel(0, 8, rng)

    def test_invalid_batch_size(self, rng):
        model = SkipGramModel(3, 4, rng)
        with pytest.raises(ValueError, match="batch_size"):
            model.train(np.array([[0, 1, 2]]), window=1, batch_size=0)

    @pytest.mark.parametrize("batch_size", [1, 7, 5000])
    def test_partial_and_oversized_batches_train(self, rng, batch_size):
        """Batches smaller than, not dividing, or larger than the pair
        count all run through the one workspace."""
        walks = np.array([[0, 1, 2, 3], [3, 2, 1, 0]])
        model = SkipGramModel(4, 4, rng)
        history = model.train(walks, window=2, epochs=2,
                              batch_size=batch_size)
        assert len(history) == 2 and np.isfinite(history).all()

    def test_training_reduces_loss(self, two_cliques_graph, rng):
        walks = sample_walks(two_cliques_graph, 200, 8, rng)
        model = SkipGramModel(8, 16, rng)
        history = model.train(walks, window=2, epochs=5, lr=0.1)
        assert history[-1] < history[0]

    def test_clique_members_closer_than_strangers(self, two_cliques_graph,
                                                  rng):
        walks = sample_walks(two_cliques_graph, 400, 8, rng)
        model = SkipGramModel(8, 16, rng)
        model.train(walks, window=2, epochs=8, lr=0.1)
        v = model.vectors
        same = np.linalg.norm(v[0] - v[1])
        cross = np.linalg.norm(v[0] - v[6])
        assert same < cross


class TestNode2Vec:
    def test_embedding_shape(self, two_cliques_graph, rng):
        config = Node2VecConfig(dim=8, walks_per_node=3, epochs=1)
        emb = node2vec_embedding(two_cliques_graph, config, rng)
        assert emb.shape == (8, 8)

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            Node2VecConfig(dim=0)

    @pytest.mark.parametrize("field,value", [
        ("window", 0), ("epochs", 0), ("negatives", -1), ("lr", 0.0),
        ("lr", -1.0), ("lr", float("nan"))])
    def test_invalid_training_budget(self, field, value):
        with pytest.raises(ValueError, match=field):
            Node2VecConfig(**{field: value})

    def test_zero_negatives_accepted(self, two_cliques_graph, rng):
        config = Node2VecConfig(dim=4, epochs=1, negatives=0)
        emb = node2vec_embedding(two_cliques_graph, config, rng)
        assert np.isfinite(emb).all()

    def test_program_spans(self, two_cliques_graph, rng, tmp_path):
        path = tmp_path / "trace.json"
        trace.enable(path)
        try:
            node2vec_embedding(two_cliques_graph,
                               Node2VecConfig(dim=4, walks_per_node=2,
                                              walk_length=5, window=2,
                                              epochs=2), rng)
        finally:
            trace.disable()
        ends = {e["name"]: e.get("args", {})
                for e in trace.load_trace(path) if e["ph"] == "E"}
        # 16 walks of 5 steps, window 2: 16 * 2 * (4 + 3) pairs, one
        # 2048-pair batch per epoch.
        assert ends["embedding.walks"] == {"walks": 16, "length": 5}
        assert ends["embedding.sgns"] == {"epochs": 2, "pairs": 224,
                                          "steps": 2}

    def test_blog_embedding_pinned(self, monkeypatch):
        """The node2vec features FairGen's discriminator reads on BLOG.

        Both SHA-256 pins were generated when SGNS moved to float32 (the
        vectors are handed out as float64); any drift in the SGNS
        arithmetic or in its RNG draws changes them.
        """
        import repro.embedding.node2vec as n2v
        histories = []
        train = n2v.SkipGramModel.train

        def recording_train(self, *args, **kwargs):
            histories.append(train(self, *args, **kwargs))
            return histories[-1]

        monkeypatch.setattr(n2v.SkipGramModel, "train", recording_train)
        vectors = node2vec_embedding(load_dataset("BLOG").graph,
                                     Node2VecConfig(dim=32),
                                     np.random.default_rng(0))
        assert vectors.shape == (324, 32)
        assert hashlib.sha256(vectors.tobytes()).hexdigest() == (
            "d3a380a05821d8c30b99c5bf110fe21d6cabced7661a126a070b2fd25fe19030")
        history = np.asarray(histories[0], dtype=np.float64)
        assert hashlib.sha256(history.tobytes()).hexdigest() == (
            "6ac6205206aa3d1964da94af0915964d64e288386d57b0c823f3c87cb1cdc0c8")

    def test_all_nodes_covered(self, rng):
        """Even an isolated-ish node gets a non-zero embedding update."""
        g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        emb = node2vec_embedding(g, Node2VecConfig(dim=4, epochs=1), rng)
        assert np.abs(emb).sum(axis=1).min() > 0


class TestPairwiseDistances:
    def test_matches_manual(self, rng):
        x = rng.normal(size=(5, 3))
        d = pairwise_sq_distances(x)
        manual = ((x[:, None] - x[None, :]) ** 2).sum(-1)
        np.testing.assert_allclose(d, manual, atol=1e-10)

    def test_diagonal_zero(self, rng):
        d = pairwise_sq_distances(rng.normal(size=(4, 2)))
        np.testing.assert_allclose(np.diag(d), 0.0)


class TestTSNE:
    def test_output_shape(self, rng):
        x = rng.normal(size=(30, 10))
        y = tsne(x, dim=2, iterations=50, rng=rng)
        assert y.shape == (30, 2)

    def test_too_few_points(self, rng):
        with pytest.raises(ValueError):
            tsne(rng.normal(size=(2, 4)))

    def test_separated_clusters_stay_separated(self, rng):
        """Two well-separated Gaussian blobs must stay separable in 2-D."""
        a = rng.normal(size=(20, 8))
        b = rng.normal(size=(20, 8)) + 30.0
        y = tsne(np.vstack([a, b]), iterations=150, rng=rng)
        labels = np.array([0] * 20 + [1] * 20)
        assert centroid_separability(y, labels == 1) > 0.9


class TestSilhouette:
    def test_perfectly_separated(self):
        points = np.array([[0.0, 0], [0.1, 0], [10, 0], [10.1, 0]])
        labels = np.array([0, 0, 1, 1])
        assert silhouette_score(points, labels) > 0.9

    def test_mixed_groups_near_zero(self, rng):
        points = rng.normal(size=(60, 2))
        labels = rng.integers(0, 2, size=60)
        assert abs(silhouette_score(points, labels)) < 0.2

    def test_single_group_rejected(self):
        with pytest.raises(ValueError):
            silhouette_score(np.zeros((4, 2)), np.zeros(4))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            silhouette_score(np.zeros((4, 2)), np.zeros(3))

    def test_singleton_group_contributes_zero(self):
        points = np.array([[0.0, 0], [1, 0], [2, 0]])
        labels = np.array([0, 0, 1])
        score = silhouette_score(points, labels)
        assert np.isfinite(score)


class TestCentroidSeparability:
    def test_separated(self):
        pts = np.vstack([np.zeros((5, 2)), np.ones((5, 2)) * 10])
        mask = np.array([False] * 5 + [True] * 5)
        assert centroid_separability(pts, mask) == 1.0

    def test_degenerate_groups_rejected(self):
        with pytest.raises(ValueError):
            centroid_separability(np.zeros((3, 2)),
                                  np.array([True, True, True]))

    def test_protected_cluster_detected_after_embedding(self, rng):
        """End-to-end: planted protected block is separable via node2vec."""
        graph, _, protected = planted_protected_graph(
            60, 15, rng, p_in=0.4, p_out=0.01, protected_as_class=True)
        emb = node2vec_embedding(
            graph, Node2VecConfig(dim=16, epochs=4, walks_per_node=8), rng)
        assert centroid_separability(emb, protected) > 0.75
