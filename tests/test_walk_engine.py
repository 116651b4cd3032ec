"""Tests for the batched walk engine: structural validity, start
batching, and statistical equivalence against the scalar reference
walkers (`uniform_random_walk` / `node2vec_walk`)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph import (Graph, WalkEngine, node2vec_walk, sample_walks,
                         uniform_random_walk)


def _walks_are_valid(graph: Graph, walks: np.ndarray) -> bool:
    for walk in walks:
        for a, b in zip(walk[:-1], walk[1:]):
            if a != b and not graph.has_edge(int(a), int(b)):
                return False
    return True


def _pair_distribution(walks: np.ndarray) -> dict[tuple[int, int], float]:
    """Empirical distribution of the (w1, w2) transition pair."""
    pairs, counts = np.unique(walks[:, 1:3], axis=0, return_counts=True)
    total = counts.sum()
    return {tuple(p): c / total for p, c in zip(pairs.tolist(), counts)}


def _total_variation(dist_a: dict, dist_b: dict) -> float:
    keys = set(dist_a) | set(dist_b)
    return 0.5 * sum(abs(dist_a.get(k, 0.0) - dist_b.get(k, 0.0))
                     for k in keys)


class TestEngineBasics:
    def test_cached_per_graph(self, two_cliques_graph):
        assert two_cliques_graph.walk_engine() is two_cliques_graph.walk_engine()

    def test_walks_shape_and_starts(self, two_cliques_graph, rng):
        engine = two_cliques_graph.walk_engine()
        starts = np.array([0, 3, 7, 4])
        walks = engine.node2vec_walks(starts, 6, rng)
        assert walks.shape == (4, 6)
        np.testing.assert_array_equal(walks[:, 0], starts)

    def test_length_one(self, triangle_graph, rng):
        walks = triangle_graph.walk_engine().node2vec_walks(
            np.array([1, 2]), 1, rng)
        np.testing.assert_array_equal(walks, [[1], [2]])

    def test_invalid_pq_rejected(self, triangle_graph, rng):
        with pytest.raises(ValueError):
            triangle_graph.walk_engine().node2vec_walks(
                np.array([0]), 5, rng, p=0.0)

    def test_invalid_length_rejected(self, triangle_graph, rng):
        with pytest.raises(ValueError):
            triangle_graph.walk_engine().uniform_walks(np.array([0]), 0, rng)

    def test_walks_num_validation(self, triangle_graph, rng):
        engine = triangle_graph.walk_engine()
        with pytest.raises(ValueError):
            engine.walks(0, 4, rng)
        with pytest.raises(ValueError):
            engine.walks(3, 4, rng, starts=np.array([0]))


class TestStructuralValidity:
    def test_uniform_follows_edges(self, two_cliques_graph, rng):
        engine = two_cliques_graph.walk_engine()
        starts = rng.integers(8, size=64)
        assert _walks_are_valid(two_cliques_graph,
                                engine.uniform_walks(starts, 10, rng))

    @pytest.mark.parametrize("p,q", [(1.0, 1.0), (0.5, 2.0), (4.0, 0.25)])
    def test_biased_follows_edges(self, two_cliques_graph, rng, p, q):
        engine = two_cliques_graph.walk_engine()
        starts = rng.integers(8, size=64)
        assert _walks_are_valid(two_cliques_graph,
                                engine.node2vec_walks(starts, 10, rng,
                                                      p=p, q=q))

    def test_isolated_start_stalls(self, rng):
        g = Graph.from_edges(4, [(0, 1)])
        engine = g.walk_engine()
        walks = engine.node2vec_walks(np.array([2, 3, 2]), 6, rng,
                                      p=0.5, q=2.0)
        np.testing.assert_array_equal(walks, np.full((3, 6),
                                                     [[2], [3], [2]]))

    def test_exact_fallback_matches_semantics(self, two_cliques_graph, rng):
        """With a zero rejection budget every biased step goes through the
        exact batched fallback; walks must stay valid and biased."""
        engine = WalkEngine(two_cliques_graph, max_rejection_rounds=0)
        starts = rng.integers(8, size=32)
        walks = engine.node2vec_walks(starts, 8, rng, p=1e-3, q=1.0)
        assert _walks_are_valid(two_cliques_graph, walks)
        # Tiny p: the third node should usually return to the first.
        returns = (walks[:, 2] == walks[:, 0]).mean()
        assert returns > 0.5

    def test_exact_fallback_batched_matches_scalar_reference(self):
        """The batched straggler step is pinned to the per-walk reference.

        Both paths draw one uniform per pending walk in the same RNG
        order (``rng.random(n)`` yields the same doubles as ``n`` scalar
        calls) and build bit-identical per-row CDFs, so with a zero
        rejection budget — every biased step a straggler — seeded walks
        must match exactly, not just statistically.
        """
        from repro.graph import erdos_renyi

        graph = erdos_renyi(60, 0.15, np.random.default_rng(0))
        batched = WalkEngine(graph, max_rejection_rounds=0)
        scalar = WalkEngine(graph, max_rejection_rounds=0)
        scalar._exact_biased_steps = scalar._exact_biased_steps_scalar
        starts = np.arange(40)
        for p, q in [(0.02, 30.0), (5.0, 0.1)]:
            got = batched.node2vec_walks(starts, 15,
                                         np.random.default_rng(9), p=p, q=q)
            want = scalar.node2vec_walks(starts, 15,
                                         np.random.default_rng(9), p=p, q=q)
            np.testing.assert_array_equal(got, want)

    def test_scalar_rng_draws_match_batched_draw(self):
        """The RNG contract the straggler parity relies on."""
        a = np.random.default_rng(123).random(16)
        gen = np.random.default_rng(123)
        b = np.array([gen.random() for _ in range(16)])
        np.testing.assert_array_equal(a, b)

    def test_exact_fallback_cell_budget_chunking_preserves_output(self):
        """A tiny cell budget forces many small batches; the chunking
        must be invisible — same walks as one unbounded rectangle."""
        from repro.graph import erdos_renyi

        graph = erdos_renyi(60, 0.15, np.random.default_rng(0))
        wide = WalkEngine(graph, max_rejection_rounds=0)
        narrow = WalkEngine(graph, max_rejection_rounds=0)
        narrow._EXACT_CELL_BUDGET = 16  # a few walks per batch
        starts = np.arange(40)
        a = wide.node2vec_walks(starts, 12, np.random.default_rng(4),
                                p=0.05, q=10.0)
        b = narrow.node2vec_walks(starts, 12, np.random.default_rng(4),
                                  p=0.05, q=10.0)
        np.testing.assert_array_equal(a, b)


class TestBiasStatistics:
    def test_low_p_returns_often(self, path_graph, rng):
        engine = path_graph.walk_engine()
        starts = np.full(300, 2)
        walks = engine.node2vec_walks(starts, 4, rng, p=1e-4, q=1.0)
        assert (walks[:, 2] == walks[:, 0]).mean() > 0.7

    def test_high_p_explores(self, rng):
        cycle = Graph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
        walks = cycle.walk_engine().node2vec_walks(np.zeros(50, np.int64),
                                                   4, rng, p=1e6, q=1.0)
        assert (walks[:, 2] != walks[:, 0]).all()

    def test_matches_scalar_transition_statistics(self, two_cliques_graph):
        """Batched and scalar node2vec walks from the same start must have
        matching (w1, w2) transition-pair distributions."""
        p, q, trials = 0.5, 2.0, 4000
        rng_scalar = np.random.default_rng(7)
        scalar = np.stack([node2vec_walk(two_cliques_graph, 3, 3,
                                         rng_scalar, p=p, q=q)
                           for _ in range(trials)])
        rng_batch = np.random.default_rng(8)
        batched = two_cliques_graph.walk_engine().node2vec_walks(
            np.full(trials, 3), 3, rng_batch, p=p, q=q)
        tv = _total_variation(_pair_distribution(scalar),
                              _pair_distribution(batched))
        assert tv < 0.05

    def test_matches_scalar_uniform_statistics(self, two_cliques_graph):
        trials = 4000
        rng_scalar = np.random.default_rng(9)
        scalar = np.stack([uniform_random_walk(two_cliques_graph, 3, 3,
                                               rng_scalar)
                           for _ in range(trials)])
        rng_batch = np.random.default_rng(10)
        batched = two_cliques_graph.walk_engine().uniform_walks(
            np.full(trials, 3), 3, rng_batch)
        tv = _total_variation(_pair_distribution(scalar),
                              _pair_distribution(batched))
        assert tv < 0.05


class TestStartBatching:
    def test_degree_weighted_star(self, rng):
        star = Graph.from_edges(5, [(0, i) for i in range(1, 5)])
        starts = star.walk_engine().sample_starts(400, rng)
        hub_fraction = (starts == 0).mean()
        assert 0.35 < hub_fraction < 0.65  # hub has half the volume

    def test_uniform_mode(self, rng):
        star = Graph.from_edges(5, [(0, i) for i in range(1, 5)])
        starts = star.walk_engine().sample_starts(500, rng,
                                                  weight="uniform")
        assert (starts == 0).mean() < 0.35

    def test_edgeless_graph_falls_back_to_uniform(self, rng):
        g = Graph.from_edges(4, [])
        starts = g.walk_engine().sample_starts(100, rng)
        assert starts.min() >= 0 and starts.max() < 4

    def test_invalid_weight_rejected(self, triangle_graph, rng):
        with pytest.raises(ValueError):
            triangle_graph.walk_engine().sample_starts(5, rng, weight="bad")

    def test_class_batched_starts_membership(self, rng):
        pools = [np.array([0, 1]), np.array([5]), np.array([7, 8, 9])]
        starts = WalkEngine.class_batched_starts(pools, 600, rng)
        flat = set(np.concatenate(pools).tolist())
        assert set(starts.tolist()).issubset(flat)
        # Classes are chosen uniformly: each pool gets ~1/3 of the walks.
        for pool in pools:
            frac = np.isin(starts, pool).mean()
            assert 0.2 < frac < 0.47

    def test_class_batched_starts_empty_pool_rejected(self, rng):
        with pytest.raises(ValueError):
            WalkEngine.class_batched_starts(
                [np.array([0]), np.empty(0, np.int64)], 5, rng)


class TestHasEdgesBatch:
    def test_matches_scalar_has_edge(self, two_cliques_graph, rng):
        u = rng.integers(8, size=200)
        v = rng.integers(8, size=200)
        expected = np.array([two_cliques_graph.has_edge(int(a), int(b))
                             for a, b in zip(u, v)])
        np.testing.assert_array_equal(two_cliques_graph.has_edges(u, v),
                                      expected)

    def test_last_key_boundary(self):
        """Querying a pair past the last edge key must not index out of
        bounds."""
        g = Graph.from_edges(3, [(0, 1)])
        out = g.has_edges(np.array([2, 1]), np.array([2, 0]))
        np.testing.assert_array_equal(out, [False, True])


class TestSampleWalksIntegration:
    def test_sample_walks_uses_engine(self, two_cliques_graph, rng):
        walks = sample_walks(two_cliques_graph, 12, 6, rng)
        assert walks.shape == (12, 6)
        assert _walks_are_valid(two_cliques_graph, walks)

    def test_explicit_starts_respected(self, two_cliques_graph, rng):
        starts = np.array([1, 5, 7])
        walks = sample_walks(two_cliques_graph, 3, 4, rng, starts=starts)
        np.testing.assert_array_equal(walks[:, 0], starts)

    def test_out_of_range_starts_rejected(self):
        graph = Graph.from_edges(6, [(0, 1), (1, 2), (2, 3)])
        rng = np.random.default_rng(0)
        for starts in ([-1, 0], [0, 6], [1.7, 2.2]):
            for p, q in [(1.0, 1.0), (0.5, 2.0)]:
                with pytest.raises(ValueError, match="node ids"):
                    sample_walks(graph, 2, 5, rng,
                                 starts=np.array(starts), p=p, q=q)
