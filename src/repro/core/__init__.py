"""FairGen core: the paper's primary contribution."""

from .config import FairGenConfig
from .context_sampling import ContextSampler
from .discriminator import FairDiscriminator
from .fairness import (cost_sensitive_weights, group_class_means,
                       parity_loss, statistical_parity_gap)
from .self_paced import SelfPacedState
from .fairgen import FairGen, make_fairgen_variant
from .serialization import (can_serialize, load_graph, load_model,
                            save_graph, save_model)

__all__ = [
    "FairGenConfig",
    "ContextSampler",
    "FairDiscriminator",
    "cost_sensitive_weights", "group_class_means", "parity_loss",
    "statistical_parity_gap",
    "SelfPacedState",
    "FairGen", "make_fairgen_variant",
    "save_graph", "load_graph",
    "save_model", "load_model", "can_serialize",
]
