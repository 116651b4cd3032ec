"""Tests for the synthetic graph generators (ER, BA, SBM, planted,
ring of chords)."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.graph import (barabasi_albert, connected_components, erdos_renyi,
                         planted_protected_graph, ring_of_chords,
                         stochastic_block_model)
from repro.graph import metrics as gm


class TestErdosRenyi:
    def test_size(self, rng):
        g = erdos_renyi(50, 0.1, rng)
        assert g.num_nodes == 50

    def test_edge_count_near_expectation(self, rng):
        n, p = 120, 0.05
        g = erdos_renyi(n, p, rng)
        expected = p * n * (n - 1) / 2
        assert abs(g.num_edges - expected) < 4 * np.sqrt(expected)

    def test_p_zero(self, rng):
        assert erdos_renyi(10, 0.0, rng).num_edges == 0

    def test_p_one(self, rng):
        g = erdos_renyi(6, 1.0, rng)
        assert g.num_edges == 15

    def test_invalid_p(self, rng):
        with pytest.raises(ValueError):
            erdos_renyi(5, 1.5, rng)

    def test_no_self_loops(self, rng):
        g = erdos_renyi(30, 0.3, rng)
        assert g.adjacency.diagonal().sum() == 0


class TestBarabasiAlbert:
    def test_edge_count(self, rng):
        g = barabasi_albert(100, 3, rng)
        assert g.num_edges == (100 - 3) * 3

    def test_min_degree(self, rng):
        g = barabasi_albert(80, 2, rng)
        assert g.degrees.min() >= 2

    def test_heavy_tail(self, rng):
        """Max degree should far exceed the mean (hallmark of BA)."""
        g = barabasi_albert(300, 2, rng)
        assert g.degrees.max() > 4 * g.degrees.mean()

    def test_invalid_params(self, rng):
        with pytest.raises(ValueError):
            barabasi_albert(5, 0, rng)
        with pytest.raises(ValueError):
            barabasi_albert(3, 3, rng)


class TestSBM:
    def test_block_labels(self, rng):
        g, labels = stochastic_block_model(
            [10, 20], np.array([[0.5, 0.01], [0.01, 0.5]]), rng)
        assert g.num_nodes == 30
        assert (labels[:10] == 0).all()
        assert (labels[10:] == 1).all()

    def test_intra_denser_than_inter(self, rng):
        g, labels = stochastic_block_model(
            [40, 40], np.array([[0.3, 0.01], [0.01, 0.3]]), rng)
        edges = g.edges()
        same = (labels[edges[:, 0]] == labels[edges[:, 1]]).sum()
        cross = len(edges) - same
        assert same > 5 * cross

    def test_asymmetric_matrix_rejected(self, rng):
        with pytest.raises(ValueError):
            stochastic_block_model([5, 5],
                                   np.array([[0.5, 0.1], [0.2, 0.5]]), rng)

    def test_wrong_shape_rejected(self, rng):
        with pytest.raises(ValueError):
            stochastic_block_model([5, 5], np.array([[0.5]]), rng)

    def test_zero_probability_block(self, rng):
        g, _ = stochastic_block_model(
            [10, 10], np.array([[0.0, 0.0], [0.0, 0.5]]), rng)
        assert all(g.degree(v) == 0 for v in range(10))


class TestPlantedProtected:
    def test_outputs_consistent(self, rng):
        g, labels, protected = planted_protected_graph(60, 15, rng)
        assert g.num_nodes == 75
        assert protected.sum() == 15
        assert labels.shape == (75,)

    def test_as_class_mode_protected_is_own_class(self, rng):
        g, labels, protected = planted_protected_graph(
            60, 15, rng, num_classes=3, protected_as_class=True)
        assert set(np.unique(labels[protected])) == {3}
        assert set(np.unique(labels[~protected])) == {0, 1, 2}

    def test_orthogonal_mode_protected_spans_classes(self, rng):
        """Default mode: protected attribute orthogonal to class labels."""
        g, labels, protected = planted_protected_graph(
            60, 15, rng, num_classes=3)
        assert set(np.unique(labels[protected])) == {0, 1, 2}
        assert set(np.unique(labels[~protected])) == {0, 1, 2}

    def test_orthogonal_mode_class_structurally_predictable(self, rng):
        """Protected nodes connect mostly to their own class community."""
        g, labels, protected = planted_protected_graph(
            200, 30, rng, p_in=0.3, p_out=0.005, num_classes=2)
        edges = g.edges()
        prot_nodes = np.flatnonzero(protected)
        same_class = 0
        total = 0
        for u, v in edges:
            if protected[u] or protected[v]:
                total += 1
                same_class += labels[u] == labels[v]
        assert same_class / total > 0.6

    def test_as_class_mode_protected_group_cohesive(self, rng):
        g, _, protected = planted_protected_graph(
            100, 25, rng, p_in=0.3, p_out=0.01, protected_as_class=True)
        phi = g.conductance(np.flatnonzero(protected))
        assert phi < 0.3  # low conductance = cohesive community

    def test_empty_population_rejected(self, rng):
        with pytest.raises(ValueError):
            planted_protected_graph(0, 5, rng)

    def test_orthogonal_needs_protected_per_class(self, rng):
        with pytest.raises(ValueError):
            planted_protected_graph(60, 2, rng, num_classes=3)

    def test_protected_under_represented(self, rng):
        g, _, protected = planted_protected_graph(100, 10, rng)
        assert protected.sum() < (~protected).sum() / 5


class TestRingOfChords:
    def test_connected_ring_plus_chords(self):
        g = ring_of_chords(200, 300, seed=5)
        assert g.degrees.min() >= 2
        assert np.unique(connected_components(g)).size == 1
        assert all(g.has_edge(i, (i + 1) % 200) for i in range(200))

    def test_edge_set_pinned(self):
        edges = ring_of_chords(200, 300, seed=5).edges().astype(np.int64)
        digest = hashlib.sha256(edges.tobytes()).hexdigest()[:16]
        assert edges.shape == (495, 2)
        assert digest == "04fbd5d5eb37e3e0"

    def test_invalid_params(self):
        with pytest.raises(ValueError, match="num_nodes"):
            ring_of_chords(2, 0, seed=0)
        with pytest.raises(ValueError, match="num_chords"):
            ring_of_chords(10, -1, seed=0)
