"""Tests for the extension modules: spectral utilities, classic
generators, MMD metrics, link prediction, and the GraphRNN baseline."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph import (Graph, cheeger_bounds, configuration_model,
                         erdos_renyi, kronecker_graph, laplacian,
                         normalized_laplacian, personalized_pagerank,
                         planted_protected_graph, spectral_gap, sweep_cut,
                         watts_strogatz)


class TestSpectral:
    def test_laplacian_row_sums_zero(self, two_cliques_graph):
        lap = laplacian(two_cliques_graph)
        np.testing.assert_allclose(np.asarray(lap.sum(axis=1)).ravel(), 0.0)

    def test_normalized_laplacian_eigenvalues_bounded(self, two_cliques_graph):
        eigs = np.linalg.eigvalsh(
            normalized_laplacian(two_cliques_graph).toarray())
        assert eigs.min() >= -1e-9
        assert eigs.max() <= 2.0 + 1e-9

    def test_spectral_gap_small_for_bottleneck(self, two_cliques_graph, rng):
        """The bridged-cliques graph has a bottleneck, the complete graph
        does not — its gap must be far larger."""
        complete = Graph.from_edges(8, [(a, b) for a in range(8)
                                        for b in range(a + 1, 8)])
        assert spectral_gap(two_cliques_graph) < spectral_gap(complete) / 3

    def test_cheeger_sandwiches_conductance(self, two_cliques_graph):
        """phi(G) of the best cut lies within the Cheeger bounds."""
        lower, upper = cheeger_bounds(two_cliques_graph)
        best_cut_phi = two_cliques_graph.conductance([0, 1, 2, 3])
        assert lower - 1e-9 <= best_cut_phi <= upper + 1e-9

    def test_pagerank_is_distribution(self, two_cliques_graph):
        ppr = personalized_pagerank(two_cliques_graph, [0])
        assert ppr.sum() == pytest.approx(1.0, abs=1e-6)
        assert (ppr >= 0).all()

    def test_pagerank_localises_near_seed(self, two_cliques_graph):
        ppr = personalized_pagerank(two_cliques_graph, [0], alpha=0.3)
        assert ppr[:4].sum() > ppr[4:].sum()

    def test_pagerank_validation(self, triangle_graph):
        with pytest.raises(ValueError):
            personalized_pagerank(triangle_graph, [0], alpha=1.5)
        with pytest.raises(ValueError):
            personalized_pagerank(triangle_graph, [])

    def test_sweep_cut_recovers_clique(self, two_cliques_graph):
        ppr = personalized_pagerank(two_cliques_graph, [0, 1], alpha=0.3)
        nodes, phi = sweep_cut(two_cliques_graph, ppr)
        assert set(nodes.tolist()) == {0, 1, 2, 3}
        assert phi == pytest.approx(1 / 13)

    def test_sweep_cut_validation(self, triangle_graph):
        with pytest.raises(ValueError):
            sweep_cut(triangle_graph, np.zeros(5))


class TestClassicGenerators:
    def test_watts_strogatz_zero_rewire_is_lattice(self, rng):
        g = watts_strogatz(12, 4, 0.0, rng)
        assert g.num_edges == 12 * 2
        np.testing.assert_array_equal(g.degrees, 4)

    def test_watts_strogatz_keeps_edge_count(self, rng):
        g = watts_strogatz(20, 4, 0.5, rng)
        assert g.num_edges == 40

    def test_watts_strogatz_small_world(self, rng):
        """Moderate rewiring shortens paths vs the pure lattice."""
        from repro.graph.metrics import average_shortest_path_length

        lattice = watts_strogatz(40, 4, 0.0, rng)
        rewired = watts_strogatz(40, 4, 0.3, rng)
        assert average_shortest_path_length(rewired) < \
            average_shortest_path_length(lattice)

    def test_watts_strogatz_validation(self, rng):
        with pytest.raises(ValueError):
            watts_strogatz(10, 3, 0.1, rng)  # odd neighbors
        with pytest.raises(ValueError):
            watts_strogatz(4, 4, 0.1, rng)

    def test_configuration_model_degrees_close(self, rng):
        target = np.array([3, 3, 2, 2, 1, 1])
        g = configuration_model(target, rng)
        assert g.num_nodes == 6
        assert (g.degrees <= target).all()

    def test_configuration_model_odd_sum_rejected(self, rng):
        with pytest.raises(ValueError):
            configuration_model([3, 2], rng)

    def test_configuration_model_matches_heavy_tail(self, rng):
        from repro.graph import barabasi_albert

        ba = barabasi_albert(100, 2, rng)
        g = configuration_model(ba.degrees.astype(int), rng)
        # The rewired graph keeps the heavy tail of the BA degrees.
        assert g.degrees.max() > 3 * max(g.degrees.mean(), 1)

    def test_kronecker_size(self, rng):
        initiator = np.array([[0.9, 0.5], [0.5, 0.1]])
        g = kronecker_graph(initiator, 3, rng)
        assert g.num_nodes == 8

    def test_kronecker_validation(self, rng):
        with pytest.raises(ValueError):
            kronecker_graph(np.array([[1.5]]), 2, rng)
        with pytest.raises(ValueError):
            kronecker_graph(np.array([[0.5, 0.1], [0.2, 0.5]]), 2, rng)

    def test_kronecker_core_periphery(self, rng):
        """A [[high, mid], [mid, low]] initiator concentrates degree on
        low-index (core) nodes."""
        initiator = np.array([[0.95, 0.4], [0.4, 0.05]])
        g = kronecker_graph(initiator, 4, rng)
        n = g.num_nodes
        assert g.degrees[: n // 4].mean() > g.degrees[-n // 4:].mean()


class TestMMD:
    def test_identical_samples_zero(self, rng):
        from repro.eval import gaussian_mmd

        x = rng.normal(size=100)
        assert gaussian_mmd(x, x) == pytest.approx(0.0, abs=1e-12)

    def test_shifted_samples_positive(self, rng):
        from repro.eval import gaussian_mmd

        x = rng.normal(size=100)
        y = rng.normal(size=100) + 5.0
        assert gaussian_mmd(x, y) > 0.1

    def test_empty_rejected(self):
        from repro.eval import gaussian_mmd

        with pytest.raises(ValueError):
            gaussian_mmd(np.array([]), np.array([1.0]))

    def test_degree_mmd_same_graph_zero(self, two_cliques_graph):
        from repro.eval import degree_distribution_mmd

        assert degree_distribution_mmd(
            two_cliques_graph, two_cliques_graph) == pytest.approx(0.0)

    def test_degree_mmd_detects_star_vs_regular(self, rng):
        from repro.eval import degree_distribution_mmd

        star = Graph.from_edges(10, [(0, i) for i in range(1, 10)])
        cycle = Graph.from_edges(10, [(i, (i + 1) % 10) for i in range(10)])
        assert degree_distribution_mmd(star, cycle) > 0.05

    def test_clustering_mmd(self, triangle_graph, path_graph):
        from repro.eval import clustering_distribution_mmd

        tri5 = Graph.from_edges(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)])
        assert clustering_distribution_mmd(tri5, tri5) == pytest.approx(0.0)

    def test_degree_histogram_normalised(self, two_cliques_graph):
        from repro.eval import degree_histogram

        hist = degree_histogram(two_cliques_graph)
        assert hist.sum() == pytest.approx(1.0)


class TestLinkPrediction:
    def test_roc_auc_perfect(self):
        from repro.eval import roc_auc

        scores = np.array([0.9, 0.8, 0.2, 0.1])
        labels = np.array([True, True, False, False])
        assert roc_auc(scores, labels) == 1.0

    def test_roc_auc_random_half(self, rng):
        from repro.eval import roc_auc

        scores = rng.random(2000)
        labels = rng.random(2000) < 0.5
        assert roc_auc(scores, labels) == pytest.approx(0.5, abs=0.05)

    def test_roc_auc_ties_averaged(self):
        from repro.eval import roc_auc

        scores = np.array([0.5, 0.5, 0.5, 0.5])
        labels = np.array([True, False, True, False])
        assert roc_auc(scores, labels) == pytest.approx(0.5)

    def test_roc_auc_needs_both_classes(self):
        from repro.eval import roc_auc

        with pytest.raises(ValueError):
            roc_auc(np.array([1.0]), np.array([True]))

    def test_average_precision_perfect(self):
        from repro.eval import average_precision

        scores = np.array([0.9, 0.8, 0.2])
        labels = np.array([True, True, False])
        assert average_precision(scores, labels) == 1.0

    def test_sample_non_edges_valid(self, two_cliques_graph, rng):
        from repro.eval import sample_non_edges

        pairs = sample_non_edges(two_cliques_graph, 5, rng)
        assert pairs.shape == (5, 2)
        for u, v in pairs:
            assert not two_cliques_graph.has_edge(int(u), int(v))

    def test_sample_non_edges_too_many(self, rng):
        from repro.eval import sample_non_edges

        complete = Graph.from_edges(4, [(a, b) for a in range(4)
                                        for b in range(a + 1, 4)])
        with pytest.raises(ValueError):
            sample_non_edges(complete, 1, rng)

    def test_link_prediction_pipeline(self, rng):
        """Embeddings of the true graph should predict its edges."""
        from repro.embedding import Node2VecConfig, node2vec_embedding
        from repro.eval import link_prediction_scores

        graph, _, protected = planted_protected_graph(
            60, 12, rng, p_in=0.3, p_out=0.02, protected_as_class=True)
        emb = node2vec_embedding(graph,
                                 Node2VecConfig(dim=32, walks_per_node=10,
                                                epochs=5), rng)
        result = link_prediction_scores(graph, emb, rng,
                                        protected_mask=protected)
        assert result.auc > 0.6
        assert 0.0 <= result.ap <= 1.0


class TestGraphRNN:
    @pytest.fixture(scope="class")
    def small_graph(self):
        rng = np.random.default_rng(3)
        graph, _, _ = planted_protected_graph(
            30, 8, rng, p_in=0.3, p_out=0.05, protected_as_class=True)
        return graph

    def test_bandwidth_estimate_positive(self, small_graph, rng):
        from repro.models import estimate_bandwidth

        assert estimate_bandwidth(small_graph, rng) >= 1

    def test_bfs_sequences_encode_all_edges_with_full_bandwidth(
            self, small_graph, rng):
        from repro.models import bfs_adjacency_sequences

        bw = small_graph.num_nodes - 1
        seq = bfs_adjacency_sequences(small_graph, bw, rng)[0]
        assert int(seq.sum()) == small_graph.num_edges

    def test_training_reduces_loss(self, small_graph, rng):
        from repro.models import GraphRNN

        model = GraphRNN(epochs=6, sequences_per_epoch=2, hidden_dim=16)
        model.fit(small_graph, rng)
        assert model.loss_history[-1] < model.loss_history[0]

    def test_generation_plausible_size(self, small_graph, rng):
        from repro.models import GraphRNN

        model = GraphRNN(epochs=6, sequences_per_epoch=2, hidden_dim=16)
        out = model.fit(small_graph, rng).generate(rng)
        assert out.num_nodes == small_graph.num_nodes
        assert 0.3 * small_graph.num_edges <= out.num_edges \
            <= 3.0 * small_graph.num_edges

    def test_generate_before_fit(self, rng):
        from repro.models import GraphRNN

        with pytest.raises(RuntimeError):
            GraphRNN().generate(rng)
