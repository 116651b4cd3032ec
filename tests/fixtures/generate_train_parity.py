"""Regenerate ``train_parity.json`` — pinned digests of seeded fits.

The fixture pins the exact fitted parameters and loss history every
trainable model produces for a fixed (graph, config, seed) triple.  It
was generated against the pre-``repro.train`` hand-rolled fit loops, so
``tests/test_train.py::TestSeededParity`` proves the Trainer-backed
loops reproduce the legacy numerics bit for bit.

Run from the repo root to regenerate (only needed when a model's
training numerics change *intentionally*)::

    PYTHONPATH=src python tests/fixtures/generate_train_parity.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

FIXTURE_PATH = Path(__file__).with_name("train_parity.json")

#: one fixed seed for every model's fit stream
FIT_SEED = 2024


def parity_graph():
    """The shared small labeled graph every parity fit runs on."""
    from repro.graph import planted_protected_graph

    rng = np.random.default_rng(7)
    return planted_protected_graph(48, 12, rng, p_in=0.3, p_out=0.03,
                                   num_classes=2, protected_as_class=True)


def parity_supervision(labels: np.ndarray):
    """Deterministic 3-per-class labeled set (no RNG involved)."""
    nodes = np.concatenate([np.flatnonzero(labels == cls)[:3]
                            for cls in range(int(labels.max()) + 1)])
    return nodes.astype(np.int64), labels[nodes].astype(np.int64)


def build_models():
    """The five trainable models (plus FairGen without its self-paced
    curriculum) under small-but-real budgets."""
    from repro.core import FairGenConfig
    from repro.core.fairgen import FairGen
    from repro.models import GAEModel, GraphRNN, NetGAN, TagGen

    def fairgen(**variant):
        return FairGen(FairGenConfig(
            walk_length=8, walks_per_cycle=32, self_paced_cycles=3,
            generator_steps_per_cycle=2, generator_batch=16, model_dim=16,
            num_layers=1, feature_dim=16, batch_iterations=2,
            batch_size=32, generation_walk_factor=6, **variant))

    return {
        "taggen": lambda: TagGen(epochs=3, walks_per_epoch=48, batch_size=16,
                                 dim=16, num_heads=2, num_layers=1,
                                 walk_length=8),
        "gae": lambda: GAEModel(epochs=12, hidden=16, latent=8),
        "graphrnn": lambda: GraphRNN(epochs=3, sequences_per_epoch=2,
                                     hidden_dim=16, max_bandwidth=32),
        "netgan": lambda: NetGAN(iterations=3, batch_size=12, walk_length=6,
                                 hidden_dim=16, node_dim=8, critic_steps=2),
        "fairgen": fairgen,
        "fairgen-wo-spl": lambda: fairgen(use_self_paced=False),
    }


def state_digest(state: dict[str, np.ndarray]) -> str:
    """Order-independent SHA-256 over named arrays (names + exact bytes)."""
    digest = hashlib.sha256()
    for name in sorted(state):
        value = np.ascontiguousarray(state[name])
        digest.update(name.encode())
        digest.update(str(value.dtype).encode())
        digest.update(str(value.shape).encode())
        digest.update(value.tobytes())
    return digest.hexdigest()


def history_digest(history) -> str:
    """SHA-256 of the loss history (float repr round-trips exactly)."""
    return hashlib.sha256(
        json.dumps(history, sort_keys=True).encode()).hexdigest()


def fit_model(name: str):
    graph, labels, protected = parity_graph()
    model = build_models()[name]()
    rng = np.random.default_rng(FIT_SEED)
    if name.startswith("fairgen"):
        nodes, classes = parity_supervision(labels)
        model.fit(graph, rng, labeled_nodes=nodes, labeled_classes=classes,
                  protected_mask=protected,
                  num_classes=int(labels.max()) + 1)
        history = model.history
    else:
        model.fit(graph, rng)
        history = (model.critic_history if name == "netgan"
                   else model.loss_history)
    return model, history


def compute_digests() -> dict[str, dict[str, str]]:
    out = {}
    for name in build_models():
        model, history = fit_model(name)
        out[name] = {"state": state_digest(model.state_dict()),
                     "history": history_digest(history)}
    return out


if __name__ == "__main__":
    digests = compute_digests()
    FIXTURE_PATH.write_text(json.dumps(digests, indent=2) + "\n")
    print(f"wrote {FIXTURE_PATH}")
    for name, entry in digests.items():
        print(f"  {name}: state={entry['state'][:12]}... "
              f"history={entry['history'][:12]}...")
