"""Graph substrate: data structure, walks, diffusion cores, metrics."""

from .graph import Graph
from .components import connected_components, largest_component_nodes
from .random_walk import (node2vec_walk, sample_walks, uniform_random_walk,
                          walks_to_edge_counts)
from .walk_engine import WalkEngine
from .diffusion import (diffusion_core, escape_probability, indicator_vector,
                        lemma21_bound, stay_probability)
from .generators import (barabasi_albert, configuration_model, erdos_renyi,
                         kronecker_graph, planted_protected_graph,
                         ring_of_chords, stochastic_block_model,
                         watts_strogatz)
from .spectral import (cheeger_bounds, laplacian, normalized_laplacian,
                       personalized_pagerank, spectral_gap, sweep_cut)
from . import metrics

__all__ = [
    "Graph",
    "connected_components", "largest_component_nodes",
    "uniform_random_walk", "node2vec_walk", "sample_walks",
    "walks_to_edge_counts", "WalkEngine",
    "indicator_vector", "escape_probability", "stay_probability",
    "diffusion_core", "lemma21_bound",
    "erdos_renyi", "barabasi_albert", "stochastic_block_model",
    "planted_protected_graph", "watts_strogatz", "configuration_model",
    "kronecker_graph", "ring_of_chords",
    "laplacian", "normalized_laplacian", "spectral_gap", "cheeger_bounds",
    "personalized_pagerank", "sweep_cut",
    "metrics",
]
