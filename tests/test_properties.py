"""Property-based tests (hypothesis) on core data structures and invariants."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.graph import Graph, connected_components
from repro.graph import metrics as gm
from repro.nn import Tensor


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
@st.composite
def graphs(draw, max_nodes: int = 12):
    """Random small undirected graphs."""
    n = draw(st.integers(min_value=2, max_value=max_nodes))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(possible), max_size=len(possible),
                          unique=True))
    return Graph.from_edges(n, edges)


@st.composite
def arrays(draw, max_side: int = 5):
    shape = draw(st.tuples(st.integers(1, max_side), st.integers(1, max_side)))
    values = draw(st.lists(
        st.floats(min_value=-10, max_value=10, allow_nan=False),
        min_size=shape[0] * shape[1], max_size=shape[0] * shape[1]))
    return np.array(values).reshape(shape)


# ----------------------------------------------------------------------
# Graph invariants
# ----------------------------------------------------------------------
@given(graphs())
@settings(max_examples=60, deadline=None)
def test_degree_sum_is_twice_edges(g):
    assert g.degrees.sum() == 2 * g.num_edges


@given(graphs())
@settings(max_examples=60, deadline=None)
def test_transition_matrix_column_stochastic(g):
    m = g.transition_matrix()
    np.testing.assert_allclose(np.asarray(m.sum(axis=0)).ravel(), 1.0,
                               atol=1e-12)


@given(graphs())
@settings(max_examples=60, deadline=None)
def test_component_sizes_sum_to_n(g):
    labels = connected_components(g)
    assert np.bincount(labels).sum() == g.num_nodes


@given(graphs())
@settings(max_examples=60, deadline=None)
def test_lcc_at_most_n_and_consistent_with_ncc(g):
    lcc = gm.largest_connected_component(g)
    ncc = gm.number_of_connected_components(g)
    assert 1 <= lcc <= g.num_nodes
    # If there is a single component the LCC covers everything.
    if ncc == 1:
        assert lcc == g.num_nodes


@given(graphs())
@settings(max_examples=60, deadline=None)
def test_gini_bounded(g):
    gini = gm.gini_coefficient(g)
    assert 0.0 - 1e-9 <= gini <= 1.0


@given(graphs())
@settings(max_examples=60, deadline=None)
def test_clustering_coefficient_bounded(g):
    cc = gm.clustering_coefficient(g)
    assert 0.0 <= cc <= 1.0


@given(graphs())
@settings(max_examples=60, deadline=None)
def test_ede_bounded(g):
    assert 0.0 <= gm.edge_distribution_entropy(g) <= 1.0 + 1e-9


@given(graphs(), st.integers(0, 100))
@settings(max_examples=60, deadline=None)
def test_conductance_in_unit_interval(g, seed):
    rng = np.random.default_rng(seed)
    size = int(rng.integers(1, g.num_nodes))
    nodes = rng.choice(g.num_nodes, size=size, replace=False)
    assert 0.0 <= g.conductance(nodes) <= 1.0


@given(graphs(), st.integers(0, 100))
@settings(max_examples=40, deadline=None)
def test_subgraph_edges_never_exceed_original(g, seed):
    rng = np.random.default_rng(seed)
    size = int(rng.integers(1, g.num_nodes + 1))
    nodes = rng.choice(g.num_nodes, size=size, replace=False)
    sub = g.subgraph(nodes)
    assert sub.num_edges <= g.num_edges
    assert sub.num_nodes == size


@given(graphs(), st.integers(0, 50))
@settings(max_examples=40, deadline=None)
def test_random_walks_follow_edges(g, seed):
    from repro.graph import uniform_random_walk

    rng = np.random.default_rng(seed)
    engine = g.walk_engine()
    # A batch of engine walks, validated in one vectorized adjacency
    # query (equal consecutive nodes are lazy stalls at isolated nodes).
    walks = engine.uniform_walks(
        rng.integers(g.num_nodes, size=16), 8, rng)
    a, b = walks[:, :-1].ravel(), walks[:, 1:].ravel()
    moved = a != b
    assert g.has_edges(a[moved], b[moved]).all()
    # The scalar reference walker obeys the same invariant.
    walk = uniform_random_walk(g, int(rng.integers(g.num_nodes)), 8, rng)
    moved = walk[:-1] != walk[1:]
    assert g.has_edges(walk[:-1][moved], walk[1:][moved]).all()


@given(graphs(), st.integers(0, 50))
@settings(max_examples=30, deadline=None)
def test_escape_probability_in_unit_interval(g, seed):
    from repro.graph import escape_probability

    rng = np.random.default_rng(seed)
    size = int(rng.integers(1, g.num_nodes))
    nodes = rng.choice(g.num_nodes, size=size, replace=False)
    start = int(nodes[0])
    p = escape_probability(g, nodes, start, 4)
    assert -1e-9 <= p <= 1.0 + 1e-9


# ----------------------------------------------------------------------
# Autograd invariants
# ----------------------------------------------------------------------
@given(arrays())
@settings(max_examples=50, deadline=None)
def test_softmax_rows_are_distributions(a):
    s = Tensor(a).softmax(axis=-1).numpy()
    assert (s >= 0).all()
    np.testing.assert_allclose(s.sum(axis=-1), 1.0, atol=1e-9)


@given(arrays())
@settings(max_examples=50, deadline=None)
def test_addition_commutes(a):
    x, y = Tensor(a), Tensor(a * 0.5 + 1.0)
    np.testing.assert_allclose((x + y).numpy(), (y + x).numpy())


@given(arrays())
@settings(max_examples=50, deadline=None)
def test_sum_gradient_is_ones(a):
    x = Tensor(a, requires_grad=True)
    x.sum().backward()
    np.testing.assert_allclose(x.grad, np.ones_like(a))


@given(arrays(), st.floats(min_value=-5, max_value=5, allow_nan=False))
@settings(max_examples=50, deadline=None)
def test_scalar_mul_gradient(a, c):
    x = Tensor(a, requires_grad=True)
    (x * c).sum().backward()
    np.testing.assert_allclose(x.grad, np.full_like(a, c))


@given(arrays())
@settings(max_examples=50, deadline=None)
def test_relu_output_nonnegative(a):
    assert (Tensor(a).relu().numpy() >= 0).all()


@given(arrays())
@settings(max_examples=50, deadline=None)
def test_log_softmax_le_zero(a):
    out = Tensor(a).log_softmax(axis=-1).numpy()
    assert (out <= 1e-12).all()


# ----------------------------------------------------------------------
# Fairness / self-paced invariants
# ----------------------------------------------------------------------
@given(st.integers(2, 6), st.integers(0, 1000))
@settings(max_examples=50, deadline=None)
def test_self_paced_update_is_thresholding(num_classes, seed):
    from repro.core import SelfPacedState

    rng = np.random.default_rng(seed)
    n = 10
    state = SelfPacedState(n, num_classes, np.array([0]), np.array([0]),
                           lambda_init=1.0, lambda_growth=1.5)
    logp = -rng.random((n, num_classes)) * 3.0
    state.update(logp)
    for i in range(1, n):  # node 0 is ground truth, skip
        for c in range(num_classes):
            assert state.v[i, c] == (1 if -logp[i, c] < 1.0 else 0)


@given(st.integers(1, 20), st.integers(21, 60), st.integers(0, 100))
@settings(max_examples=50, deadline=None)
def test_cost_sensitive_weights_sum_balanced(n_prot, n_unprot, seed):
    """Total weight of the protected group equals the unprotected one."""
    from repro.core import cost_sensitive_weights

    total = n_prot + n_unprot
    mask = np.zeros(total, dtype=bool)
    mask[:n_prot] = True
    w = cost_sensitive_weights(np.arange(total), mask)
    np.testing.assert_allclose(w[mask].sum(), 1.0)
    np.testing.assert_allclose(w[~mask].sum(), 1.0)


@given(st.integers(0, 500))
@settings(max_examples=30, deadline=None)
def test_statistical_parity_gap_bounds(seed):
    from repro.core import statistical_parity_gap

    rng = np.random.default_rng(seed)
    probs = rng.dirichlet(np.ones(3), size=12)
    mask = np.zeros(12, dtype=bool)
    mask[: int(rng.integers(1, 11))] = True
    gap = statistical_parity_gap(probs, mask)
    assert 0.0 <= gap <= 2.0 + 1e-9
