"""Tests for the sharded CSR graph store and out-of-core walk engine.

Covers the ingest pipeline (streaming binning, dedup/self-loop
semantics, resume/overwrite), the ``ShardedGraph`` read surface
(manifest, LRU residency, adjacency queries, ``to_graph`` round-trip),
the walk contract (one :class:`~repro.graph.WalkEngine` walks a
``ShardedGraph`` byte-identically to its in-memory twin for every shard
layout and every ``p``/``q``), and integration with the walk-based
model stack and the CLI.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cli import main
from repro.graph import (Graph, ShardedGraph, WalkEngine,
                         ingest_edge_file, ingest_edge_stream, ingest_graph,
                         ring_of_chords, sample_walks, synthetic_edge_stream)


def _ring(num_nodes: int) -> Graph:
    return Graph.from_edges(
        num_nodes, [(i, (i + 1) % num_nodes) for i in range(num_nodes)])


@pytest.fixture
def chord_graph() -> Graph:
    return ring_of_chords(400, 700, seed=13)


@pytest.fixture
def sharded4(chord_graph, tmp_path) -> ShardedGraph:
    return ingest_graph(chord_graph, tmp_path / "s4", num_shards=4)


# ----------------------------------------------------------------------
# Ingest
# ----------------------------------------------------------------------
class TestIngest:
    def test_manifest_matches_source_graph(self, chord_graph, sharded4):
        stats = sharded4.stats()
        assert sharded4.num_nodes == chord_graph.num_nodes
        assert sharded4.num_edges == chord_graph.num_edges
        assert stats["num_shards"] == 4
        assert stats["shard_starts"][0] == 0
        assert stats["shard_starts"][-1] == chord_graph.num_nodes
        # directed slots per shard sum to twice the undirected count
        assert sum(stats["shard_edges"]) == 2 * chord_graph.num_edges
        assert stats["max_degree"] == int(np.max(chord_graph.degrees))

    def test_degrees_match(self, chord_graph, sharded4):
        np.testing.assert_array_equal(np.asarray(sharded4.degrees),
                                      chord_graph.degrees)

    def test_degree_histogram_counts_every_node(self, sharded4):
        hist = sharded4.stats()["degree_histogram"]
        assert sum(hist["counts"]) == sharded4.num_nodes
        assert hist["bins"][0] == "0"
        assert len(hist["bins"]) == len(hist["counts"])

    def test_dedup_and_self_loop_semantics(self, tmp_path):
        # duplicates (both orientations) and self-loops collapse away,
        # matching Graph construction semantics
        chunks = [np.array([[0, 1], [1, 0], [0, 1], [2, 2], [1, 2]])]
        sharded = ingest_edge_stream(chunks, 3, tmp_path / "s")
        assert sharded.num_edges == 2
        assert sharded.to_graph() == Graph.from_edges(3, [(0, 1), (1, 2)])

    def test_indices_sorted_per_row(self, sharded4):
        for i in range(sharded4.num_shards):
            shard = sharded4.shard(i)
            indptr = np.asarray(shard.indptr)
            indices = np.asarray(shard.indices)
            for lo, hi in zip(indptr[:-1], indptr[1:]):
                row = indices[lo:hi]
                assert np.array_equal(row, np.sort(row))
                assert np.unique(row).size == row.size

    def test_completed_dir_refused_without_overwrite(self, tmp_path):
        g = _ring(10)
        ingest_graph(g, tmp_path / "s", num_shards=2)
        with pytest.raises(FileExistsError):
            ingest_graph(g, tmp_path / "s", num_shards=2)
        again = ingest_graph(g, tmp_path / "s", num_shards=3,
                             overwrite=True)
        assert again.num_shards == 3

    def test_interrupted_ingest_resumes_without_flag(self, tmp_path):
        # leftovers without a manifest (spills, stale shards) are not a
        # completed ingest — re-running needs no overwrite flag
        out = tmp_path / "s"
        out.mkdir()
        (out / "spill_00000.bin").write_bytes(b"\x00" * 16)
        (out / "shard_00000.npz").write_bytes(b"junk")
        sharded = ingest_graph(_ring(10), out, num_shards=2)
        assert sharded.num_edges == 10
        assert not (out / "spill_00000.bin").exists()

    def test_validation_errors(self, tmp_path):
        with pytest.raises(ValueError, match="not both"):
            ingest_graph(_ring(6), tmp_path / "a", num_shards=2,
                         nodes_per_shard=3)
        with pytest.raises(ValueError, match="more shards"):
            ingest_graph(_ring(4), tmp_path / "b", num_shards=9)
        with pytest.raises(ValueError, match="out of range"):
            ingest_edge_stream([np.array([[0, 5]])], 3, tmp_path / "c")
        with pytest.raises(ValueError, match=r"shape \(k, 2\)"):
            ingest_edge_stream([np.arange(6).reshape(2, 3)], 9,
                               tmp_path / "d")

    def test_nodes_per_shard_sizing(self, tmp_path):
        sharded = ingest_graph(_ring(10), tmp_path / "s",
                               nodes_per_shard=3)
        assert sharded.num_shards == 4  # ceil(10 / 3)

    def test_edgeless_graph(self, tmp_path):
        sharded = ingest_edge_stream([], 5, tmp_path / "s", num_shards=2)
        assert sharded.num_edges == 0
        walks = sharded.walk_engine().uniform_walks(
            np.array([0, 4]), 4, np.random.default_rng(0))
        # isolated nodes stall in place
        np.testing.assert_array_equal(walks, [[0] * 4, [4] * 4])

    def test_ingest_text_edge_file(self, tmp_path):
        listing = tmp_path / "edges.txt"
        listing.write_text("# comment line\n0 1\n1 2\n2 3\n3 0\n")
        sharded = ingest_edge_file(listing, tmp_path / "s", num_shards=2)
        assert sharded.num_nodes == 4  # discovered as max id + 1
        assert sharded.to_graph() == Graph.from_edges(
            4, [(0, 1), (1, 2), (2, 3), (3, 0)])

    def test_ingest_graph_npz_archive(self, chord_graph, tmp_path):
        from repro.core.serialization import save_graph

        save_graph(chord_graph, tmp_path / "g.npz")
        sharded = ingest_edge_file(tmp_path / "g.npz", tmp_path / "s",
                                   num_shards=3)
        assert sharded.to_graph() == chord_graph

    def test_ingest_rejects_non_graph_npz(self, tmp_path):
        np.savez(tmp_path / "junk.npz", x=np.arange(3))
        with pytest.raises(ValueError, match="not a graph archive"):
            ingest_edge_file(tmp_path / "junk.npz", tmp_path / "s")


# ----------------------------------------------------------------------
# Read side
# ----------------------------------------------------------------------
class TestShardedGraph:
    def test_missing_manifest_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="manifest"):
            ShardedGraph(tmp_path)

    def test_unknown_format_raises(self, tmp_path):
        (tmp_path / "manifest.json").write_text('{"format": "bogus"}')
        with pytest.raises(ValueError, match="unsupported"):
            ShardedGraph(tmp_path)

    def test_shard_of_matches_boundaries(self, sharded4):
        nodes = np.arange(sharded4.num_nodes)
        expected = np.searchsorted(sharded4.shard_starts[1:-1], nodes,
                                   side="right")
        np.testing.assert_array_equal(sharded4.shard_of(nodes), expected)

    def test_lru_bounds_residency(self, chord_graph, tmp_path):
        sharded = ingest_graph(chord_graph, tmp_path / "s", num_shards=8)
        sharded.max_resident = 2
        for i in range(8):
            sharded.shard(i)
        assert len(sharded.resident_shards()) == 2
        loads = sharded.shard_loads
        sharded.shard(7)  # hot shard: no new load
        assert sharded.shard_loads == loads

    def test_has_edges_enters_each_owner_shard_once(self, chord_graph,
                                                    tmp_path):
        """Membership reads ``u``'s row in place: one entry per owning
        shard per call, even when only one shard may stay resident."""
        sharded = ingest_graph(chord_graph, tmp_path / "s", num_shards=4)
        sharded.max_resident = 1
        rng = np.random.default_rng(9)
        u = rng.integers(400, size=500)
        v = rng.integers(400, size=500)
        loads = sharded.shard_loads
        got = sharded.has_edges(u, v)
        assert sharded.shard_loads - loads == \
            np.unique(sharded.shard_of(u)).size
        np.testing.assert_array_equal(got, chord_graph.has_edges(u, v))

    def test_neighbors_match_graph(self, chord_graph, sharded4):
        for node in [0, 7, 123, 399]:
            np.testing.assert_array_equal(
                sharded4.neighbors(node), chord_graph.neighbors(node))

    def test_has_edges_matches_graph(self, chord_graph, sharded4):
        rng = np.random.default_rng(5)
        u = rng.integers(400, size=300)
        v = rng.integers(400, size=300)
        expected = np.array([chord_graph.has_edge(int(a), int(b))
                             for a, b in zip(u, v)])
        np.testing.assert_array_equal(sharded4.has_edges(u, v), expected)
        assert sharded4.has_edge(0, 1) == chord_graph.has_edge(0, 1)

    def test_to_graph_round_trip(self, chord_graph, sharded4):
        assert sharded4.to_graph() == chord_graph

    def test_walk_engine_cached(self, sharded4):
        assert sharded4.walk_engine() is sharded4.walk_engine()


# ----------------------------------------------------------------------
# Walk engine: RNG-stream contract
# ----------------------------------------------------------------------
#: shard layouts of the byte-identity contract: (graph, ingest kwargs)
LAYOUTS = {
    "shards1": (lambda: ring_of_chords(400, 700, seed=13),
                dict(num_shards=1)),
    "shards4": (lambda: ring_of_chords(400, 700, seed=13),
                dict(num_shards=4)),
    "shards8": (lambda: ring_of_chords(400, 700, seed=13),
                dict(num_shards=8)),
    # one node per shard: every single step crosses a shard boundary
    "ring_node_per_shard": (lambda: _ring(12), dict(nodes_per_shard=1)),
    # nodes 8..15 are isolated, so shard 1 of 2 holds no edges
    "empty_shard": (lambda: Graph.from_edges(
        16, [(i, i + 1) for i in range(7)]), dict(num_shards=2)),
}


class TestWalkContract:
    @pytest.mark.parametrize("p,q", [(1.0, 1.0), (0.25, 4.0), (4.0, 0.5)])
    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    def test_byte_identical_to_in_memory(self, tmp_path, layout, p, q):
        build, kwargs = LAYOUTS[layout]
        graph = build()
        sharded = ingest_graph(graph, tmp_path / "s", **kwargs)
        sharded.max_resident = 2
        expected = WalkEngine(graph).walks(
            256, 10, np.random.default_rng(42), p=p, q=q)
        actual = sharded.walk_engine().walks(
            256, 10, np.random.default_rng(42), p=p, q=q)
        np.testing.assert_array_equal(expected, actual)

    @pytest.mark.parametrize("kind", ["graph", "sharded"])
    def test_out_of_range_starts_rejected(self, tmp_path, kind):
        graph = Graph.from_edges(6, [(0, 1), (1, 2), (2, 3)])
        if kind == "sharded":
            graph = ingest_graph(graph, tmp_path / "s", num_shards=2)
        rng = np.random.default_rng(0)
        for starts in ([-1, 0], [0, 6], [1.7, 2.2]):
            for p, q in [(1.0, 1.0), (0.5, 2.0)]:
                with pytest.raises(ValueError, match="node ids"):
                    sample_walks(graph, 2, 5, rng,
                                 starts=np.array(starts), p=p, q=q)

    def test_uniform_walks_byte_identical_any_shard_count(
            self, chord_graph, tmp_path):
        # first-order draws never depend on the bucketing
        expected = WalkEngine(chord_graph).walks(
            300, 12, np.random.default_rng(9))
        for shards in (2, 5, 8):
            sharded = ingest_graph(chord_graph,
                                   tmp_path / f"s{shards}",
                                   num_shards=shards)
            actual = sharded.walk_engine().walks(
                300, 12, np.random.default_rng(9))
            np.testing.assert_array_equal(expected, actual)

    def test_starts_byte_identical_any_shard_count(self, chord_graph,
                                                   sharded4):
        expected = WalkEngine(chord_graph).sample_starts(
            500, np.random.default_rng(1))
        actual = sharded4.walk_engine().sample_starts(
            500, np.random.default_rng(1))
        np.testing.assert_array_equal(expected, actual)

    def test_multi_shard_biased_steps_are_edges(self, chord_graph,
                                                sharded4):
        walks = sharded4.walk_engine().walks(
            150, 10, np.random.default_rng(8), p=0.25, q=4.0)
        for t in range(1, walks.shape[1]):
            u, v = walks[:, t - 1], walks[:, t]
            moved = u != v
            assert sharded4.has_edges(u[moved], v[moved]).all()
            assert all(chord_graph.has_edge(int(a), int(b))
                       for a, b in zip(u[moved], v[moved]))

    def test_cross_shard_heavy_ring(self, tmp_path):
        # one node per shard: every single step crosses a shard
        # boundary, the worst case for the frontier router
        ring = _ring(12)
        sharded = ingest_graph(ring, tmp_path / "s", nodes_per_shard=1)
        assert sharded.num_shards == 12
        sharded.max_resident = 2
        expected = WalkEngine(ring).walks(64, 8, np.random.default_rng(2))
        actual = sharded.walk_engine().walks(
            64, 8, np.random.default_rng(2))
        np.testing.assert_array_equal(expected, actual)
        assert len(sharded.resident_shards()) <= 2

    def test_empty_shard_range(self, tmp_path):
        # nodes 8..15 are isolated, so shard 1 of 2 holds no edges
        g = Graph.from_edges(16, [(i, i + 1) for i in range(7)])
        sharded = ingest_graph(g, tmp_path / "s", num_shards=2)
        assert sharded.stats()["shard_edges"][1] == 0
        walks = sharded.walk_engine().uniform_walks(
            np.array([3, 12]), 6, np.random.default_rng(0))
        assert walks[1].tolist() == [12] * 6  # isolated: stalls
        expected = WalkEngine(g).uniform_walks(
            np.array([3, 12]), 6, np.random.default_rng(0))
        np.testing.assert_array_equal(walks, expected)

    def test_bounded_residency_during_walks(self, chord_graph, tmp_path):
        sharded = ingest_graph(chord_graph, tmp_path / "s", num_shards=8)
        sharded.max_resident = 3
        sharded.walk_engine().walks(200, 10, np.random.default_rng(4))
        assert len(sharded.resident_shards()) <= 3


# ----------------------------------------------------------------------
# Integration: walk consumers and the CLI
# ----------------------------------------------------------------------
class TestIntegration:
    def test_sample_walks_accepts_sharded_graph(self, chord_graph,
                                                sharded4):
        expected = sample_walks(chord_graph, 100, 8,
                                np.random.default_rng(6))
        actual = sample_walks(sharded4, 100, 8,
                              np.random.default_rng(6))
        np.testing.assert_array_equal(expected, actual)

    def test_node2vec_embedding_on_sharded_graph(self, sharded4):
        from repro.embedding import Node2VecConfig, node2vec_embedding

        config = Node2VecConfig(dim=8, walks_per_node=1, walk_length=4,
                                epochs=1)
        vectors = node2vec_embedding(sharded4, config,
                                     np.random.default_rng(0))
        assert vectors.shape == (sharded4.num_nodes, 8)
        assert np.isfinite(vectors).all()

    def test_cli_ingest_then_stats(self, tmp_path, capsys):
        listing = tmp_path / "edges.txt"
        listing.write_text("0 1\n1 2\n2 0\n")
        out_dir = tmp_path / "shards"
        assert main(["ingest", str(listing), str(out_dir),
                     "--num-shards", "2"]) == 0
        out = capsys.readouterr().out
        assert "ingested 3 edges over 3 nodes into 2 shard(s)" in out
        assert main(["graph", "stats", str(out_dir)]) == 0
        out = capsys.readouterr().out
        assert "nodes:  3" in out
        assert "edges:  3" in out
        assert "max degree: 2" in out

    def test_cli_ingest_refuses_completed_dir(self, tmp_path, capsys):
        listing = tmp_path / "edges.txt"
        listing.write_text("0 1\n")
        out_dir = tmp_path / "shards"
        assert main(["ingest", str(listing), str(out_dir)]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit, match="overwrite"):
            main(["ingest", str(listing), str(out_dir)])
        assert main(["ingest", str(listing), str(out_dir),
                     "--overwrite"]) == 0

    def test_cli_stats_rejects_non_shard_dir(self, tmp_path):
        with pytest.raises(SystemExit, match="manifest"):
            main(["graph", "stats", str(tmp_path)])

    def test_synthetic_stream_matches_in_memory_twin(self, tmp_path):
        sharded = ingest_edge_stream(
            synthetic_edge_stream(200, 300, seed=5), 200,
            tmp_path / "s", num_shards=3)
        assert sharded.to_graph() == ring_of_chords(200, 300, seed=5)
