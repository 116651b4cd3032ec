"""Tests for the Graph data structure and its walk-matrix algebra."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.graph import Graph


class TestConstruction:
    def test_from_edges_basic(self, triangle_graph):
        assert triangle_graph.num_nodes == 3
        assert triangle_graph.num_edges == 3

    def test_from_edges_deduplicates(self):
        g = Graph.from_edges(3, [(0, 1), (1, 0), (0, 1)])
        assert g.num_edges == 1

    def test_from_edges_array_matches_list(self):
        pairs = [(0, 1), (2, 1), (3, 0), (1, 0)]
        from_array = Graph.from_edges(4, np.array(pairs))
        from_list = Graph.from_edges(4, pairs)
        assert (from_array.adjacency != from_list.adjacency).nnz == 0
        assert from_array == from_list

    @pytest.mark.parametrize("edges", [np.zeros((3, 3), dtype=np.int64),
                                       np.arange(4),
                                       [(0, 1, 2)]])
    def test_from_edges_rejects_non_pairs(self, edges):
        with pytest.raises(ValueError, match="pairs"):
            Graph.from_edges(4, edges)

    def test_self_loops_stripped(self):
        g = Graph(sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 0.0]])))
        assert g.num_edges == 1
        assert not g.has_edge(0, 0)

    def test_asymmetric_rejected(self):
        mat = sp.csr_matrix(np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(ValueError):
            Graph(mat)

    def test_edge_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Graph.from_edges(2, [(0, 5)])

    def test_empty_graph(self):
        g = Graph.from_edges(4, [])
        assert g.num_nodes == 4
        assert g.num_edges == 0

    def test_from_numpy(self):
        dense = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float)
        g = Graph.from_numpy(dense)
        assert g.num_edges == 2

    def test_weights_binarised(self):
        mat = sp.csr_matrix(np.array([[0.0, 3.0], [3.0, 0.0]]))
        g = Graph(mat)
        assert g.adjacency.max() == 1.0

    def test_equality(self, triangle_graph):
        other = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        assert triangle_graph == other
        assert triangle_graph != Graph.from_edges(3, [(0, 1)])

    def test_duplicate_structural_entries_merged(self):
        # A hand-built CSR can carry the same (row, col) slot twice;
        # scipy keeps both until sum_duplicates.  Construction must
        # canonicalise, or degrees and has_edge double-count.
        indptr = np.array([0, 2, 3])
        indices = np.array([1, 1, 0])
        data = np.ones(3)
        g = Graph(sp.csr_matrix((data, indices, indptr), shape=(2, 2)))
        assert g.num_edges == 1
        np.testing.assert_array_equal(g.degrees, [1, 1])
        assert g.adjacency.nnz == 2


class TestAccessors:
    def test_degrees(self, path_graph):
        np.testing.assert_array_equal(path_graph.degrees, [1, 2, 2, 2, 1])

    def test_neighbors_sorted(self, two_cliques_graph):
        np.testing.assert_array_equal(two_cliques_graph.neighbors(0),
                                      [1, 2, 3])

    def test_has_edge(self, path_graph):
        assert path_graph.has_edge(0, 1)
        assert not path_graph.has_edge(0, 2)

    def test_has_edge_high_degree_hub(self, rng):
        """Binary-search membership must agree with the adjacency on a
        hub with many sorted neighbors, including both boundary ids."""
        star = Graph.from_edges(200, [(0, i) for i in range(1, 200)])
        assert star.has_edge(0, 1) and star.has_edge(0, 199)
        assert star.has_edge(199, 0)
        assert not star.has_edge(1, 199)  # past leaf 1's only neighbor
        assert not star.has_edge(1, 2)

    def test_has_edge_isolated_node(self):
        g = Graph.from_edges(3, [(0, 1)])
        assert not g.has_edge(2, 0)
        assert not g.has_edge(0, 2)

    def test_has_edge_returns_bool(self, path_graph):
        assert isinstance(path_graph.has_edge(0, 1), bool)
        assert isinstance(path_graph.has_edge(0, 4), bool)

    def test_edges_each_once_with_u_less_v(self, triangle_graph):
        edges = triangle_graph.edges()
        assert edges.shape == (3, 2)
        assert (edges[:, 0] < edges[:, 1]).all()

    def test_density(self, triangle_graph):
        assert triangle_graph.density() == pytest.approx(1.0)

    def test_density_tiny(self):
        assert Graph.from_edges(1, []).density() == 0.0

    def test_repr(self, triangle_graph):
        assert repr(triangle_graph) == "Graph(n=3, m=3)"

    def test_to_networkx_matches(self, two_cliques_graph):
        nxg = two_cliques_graph.to_networkx()
        assert nxg.number_of_nodes() == two_cliques_graph.num_nodes
        assert nxg.number_of_edges() == two_cliques_graph.num_edges


class TestTransitionMatrix:
    def test_column_stochastic(self, two_cliques_graph):
        m = two_cliques_graph.transition_matrix()
        np.testing.assert_allclose(np.asarray(m.sum(axis=0)).ravel(), 1.0)

    def test_lazy_self_loop_half(self, path_graph):
        m = path_graph.transition_matrix().toarray()
        np.testing.assert_allclose(np.diag(m), 0.5)

    def test_isolated_node_self_loops(self):
        g = Graph.from_edges(3, [(0, 1)])
        m = g.transition_matrix().toarray()
        assert m[2, 2] == 1.0
        np.testing.assert_allclose(m.sum(axis=0), 1.0)

    def test_many_isolated_nodes_stay_csr_and_stochastic(self):
        """The isolated-node patch is a sparse diagonal, not a Python
        loop: every isolated column gets a full self-loop and the result
        stays CSR."""
        import scipy.sparse as sp

        g = Graph.from_edges(8, [(0, 1), (2, 3)])
        m = g.transition_matrix()
        assert isinstance(m, sp.csr_matrix)
        dense = m.toarray()
        np.testing.assert_allclose(dense.sum(axis=0), 1.0)
        for v in (4, 5, 6, 7):
            assert dense[v, v] == 1.0
        # Non-isolated nodes keep the lazy 1/2 self-loop.
        np.testing.assert_allclose(np.diag(dense)[:4], 0.5)

    def test_matches_definition(self, triangle_graph):
        a = triangle_graph.adjacency.toarray()
        d_inv = np.diag(1.0 / triangle_graph.degrees)
        expected = (a @ d_inv + np.eye(3)) / 2.0
        np.testing.assert_allclose(
            triangle_graph.transition_matrix().toarray(), expected)


class TestCutsAndConductance:
    def test_volume(self, two_cliques_graph):
        assert two_cliques_graph.volume([0, 1, 2, 3]) == 13  # 4*3 + bridge

    def test_cut_size_bridge(self, two_cliques_graph):
        assert two_cliques_graph.cut_size([0, 1, 2, 3]) == 1

    def test_conductance_bridge(self, two_cliques_graph):
        phi = two_cliques_graph.conductance([0, 1, 2, 3])
        assert phi == pytest.approx(1.0 / 13.0)

    def test_conductance_symmetric_in_complement(self, two_cliques_graph):
        s = [0, 1, 2, 3]
        comp = [4, 5, 6, 7]
        assert two_cliques_graph.conductance(s) == pytest.approx(
            two_cliques_graph.conductance(comp))

    def test_conductance_degenerate_sets(self, triangle_graph):
        assert triangle_graph.conductance([]) == 1.0
        assert triangle_graph.conductance([0, 1, 2]) == 1.0

    def test_conductance_isolated_set(self):
        g = Graph.from_edges(3, [(0, 1)])
        assert g.conductance([2]) == 1.0


class TestSubgraphs:
    def test_subgraph_compacts_ids(self, two_cliques_graph):
        sub = two_cliques_graph.subgraph([4, 5, 6, 7])
        assert sub.num_nodes == 4
        assert sub.num_edges == 6

    def test_subgraph_drops_external_edges(self, path_graph):
        sub = path_graph.subgraph([0, 2, 4])
        assert sub.num_edges == 0

    def test_ego_network_includes_neighbors(self, path_graph):
        sub, nodes = path_graph.ego_network([2])
        np.testing.assert_array_equal(nodes, [1, 2, 3])
        assert sub.num_edges == 2

    def test_ego_network_multiple_anchors(self, two_cliques_graph):
        sub, nodes = two_cliques_graph.ego_network([3, 4])
        assert set(nodes.tolist()) == set(range(8))

    def test_ego_network_isolated_anchor(self):
        g = Graph.from_edges(3, [(0, 1)])
        sub, nodes = g.ego_network([2])
        assert sub.num_nodes == 1
        assert sub.num_edges == 0

    def test_subgraph_rejects_duplicate_nodes(self, path_graph):
        with pytest.raises(ValueError, match="unique"):
            path_graph.subgraph([0, 1, 1])

    def test_subgraph_csr_sorted_and_deduplicated(self,
                                                  two_cliques_graph):
        # fancy-indexed scipy slices can leave per-row indices unsorted;
        # downstream binary searches (walk engines, has_edge) need the
        # canonical form
        sub = two_cliques_graph.subgraph([3, 0, 2, 1])
        adj = sub.adjacency
        for lo, hi in zip(adj.indptr[:-1], adj.indptr[1:]):
            row = adj.indices[lo:hi]
            assert np.array_equal(row, np.sort(row))
            assert np.unique(row).size == row.size
        assert sub.num_edges == 6  # clique structure is order-invariant
