"""Shared fixtures for the FairGen reproduction test suite."""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.graph import Graph, planted_protected_graph


def pytest_addoption(parser):
    parser.addoption(
        "--order-seed", type=int, default=None, metavar="N",
        help="run the collected tests in an order shuffled by "
             "random.Random(N), to expose tests that depend on running "
             "after (or before) another test")


def pytest_collection_modifyitems(config, items):
    seed = config.getoption("--order-seed")
    if seed is not None:
        random.Random(seed).shuffle(items)


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic RNG; a fresh generator per test."""
    return np.random.default_rng(12345)


@pytest.fixture
def triangle_graph() -> Graph:
    """K3: the smallest graph with a triangle."""
    return Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])


@pytest.fixture
def path_graph() -> Graph:
    """P5: a 5-node path 0-1-2-3-4."""
    return Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])


@pytest.fixture
def two_cliques_graph() -> Graph:
    """Two K4 cliques joined by a single bridge edge (3-4)."""
    edges = [(a, b) for a in range(4) for b in range(a + 1, 4)]
    edges += [(a, b) for a in range(4, 8) for b in range(a + 1, 8)]
    edges.append((3, 4))
    return Graph.from_edges(8, edges)


@pytest.fixture
def disconnected_graph() -> Graph:
    """Triangle plus an isolated edge plus an isolated node (6 nodes)."""
    return Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4)])


@pytest.fixture
def labeled_community_graph(rng):
    """Small planted graph with labels and a protected group."""
    graph, labels, protected = planted_protected_graph(
        60, 12, rng, p_in=0.35, p_out=0.02, num_classes=2,
        protected_as_class=True)
    return graph, labels, protected
