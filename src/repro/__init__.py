"""FairGen reproduction: fairness-aware graph generation (ICDE 2024).

Public API overview
-------------------
``repro.core``      — the FairGen model (:class:`~repro.core.FairGen`),
                      its configuration and ablation factory.
``repro.models``    — baselines: ER, BA, GAE, NetGAN, TagGen.
``repro.graph``     — graph substrate: :class:`~repro.graph.Graph`, walks,
                      diffusion cores, the nine Table II metrics.
``repro.embedding`` — node2vec, SGNS, t-SNE, separability scores.
``repro.data``      — the seven benchmark datasets (synthetic stand-ins).
``repro.eval``      — discrepancy (Eqs. 15/16), classification,
                      data augmentation.
``repro.nn``        — the NumPy autograd substrate everything trains on.
``repro.obs``       — observability: metrics registry (Prometheus /
                      JSON snapshots) + Chrome-trace span tracing.
``repro.train``     — the shared Trainer loop: one epoch body per task,
                      grad clipping, loss-history contract and
                      checkpoint/resume.
``repro.registry``  — the model registry: every generator under a
                      canonical name with paper/bench/smoke profiles.
``repro.experiments`` — the spec-driven experiment API
                      (:class:`~repro.experiments.Runner`) every harness
                      routes through.

Quickstart::

    from repro.experiments import ExperimentSpec, Runner

    runner = Runner(cache_dir=".repro_cache")
    result = runner.run(ExperimentSpec(model="fairgen", dataset="BLOG",
                                       profile="smoke", seed=0))
    synthetic = result.generated
"""

from . import (core, data, embedding, eval, experiments, graph, models, nn,
               obs, registry, train, utils)

__version__ = "1.3.0"

__all__ = ["core", "data", "embedding", "eval", "experiments", "graph",
           "models", "nn", "obs", "registry", "train", "utils",
           "__version__"]
