"""The FairGen model: Algorithm 1 joint training of generator and
discriminator, plus fair graph assembly (Section II-D).

Training layout (one self-paced cycle ``l``):

1. update the transformer generator ``g_theta`` from the positive pool
   ``N+`` (walks sampled by ``f_S``) and the negative pool ``N-`` (walks
   generated in the previous cycle) — MLE on positives plus an
   unlikelihood margin pushing generated-but-unrealistic walks below the
   positives;
2. sample ``K`` fresh positive walks via ``f_S`` with the updated
   self-paced vectors, and ``K`` negative walks from the current
   generator; append to the pools;
3. grow ``lambda`` and re-solve the self-paced vectors (Eq. 14),
   augmenting the labeled set with confident pseudo labels;
4. run ``T1`` discriminator steps on ``J_P + J_L + J_F``.

Generation assembles a score matrix from many generated walks and
thresholds it under the paper's two fairness criteria (protected-group
volume preservation and min-degree 1).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..embedding import Node2VecConfig, node2vec_embedding
from ..graph import Graph, sample_walks, walks_to_edge_counts
from ..models.base import (GraphGenerativeModel, assemble_from_scores,
                           extract_state, prefix_state)
from ..models.walk_lm import TransformerWalkModel
from ..nn import Adam, Tensor
from ..train import Trainer, train_step
from .config import FairGenConfig
from .context_sampling import ContextSampler
from .discriminator import FairDiscriminator
from .self_paced import SelfPacedState

__all__ = ["FairGen", "make_fairgen_variant"]


class _FairGenCycleTask:
    """Trainer task for Algorithm 1: one epoch = one self-paced cycle.

    The epoch body is the whole cycle: steps 4-6 (generator update from
    the pools, then pool refresh) followed by steps 7-11, the curriculum
    and discriminator phase.  The task also owns everything a mid-fit
    checkpoint has to carry beyond module parameters: the walk pools,
    the self-paced vectors/threshold, and the (pseudo-)augmented labeled
    set currently installed in the context sampler.
    """

    def __init__(self, owner: "FairGen", gen_opt: Adam,
                 labeled_nodes: np.ndarray, labeled_classes: np.ndarray,
                 pos_pool: np.ndarray, neg_pool: np.ndarray):
        self.owner = owner
        self.gen_opt = gen_opt
        self.labeled_nodes = labeled_nodes
        self.labeled_classes = labeled_classes
        self.pos_pool = pos_pool
        self.neg_pool = neg_pool
        #: labels currently driving ``f_S`` (ground truth + pseudo)
        self.aug_nodes = labeled_nodes
        self.aug_classes = labeled_classes

    # -- checkpoint contract -------------------------------------------
    def modules(self):
        return {"generator": self.owner.generator,
                "discriminator": self.owner.discriminator.mlp}

    def optimizers(self):
        return {"generator": self.gen_opt,
                "discriminator": self.owner.discriminator.optimizer}

    def extra_state(self):
        sp = self.owner.self_paced
        return {"pos_pool": self.pos_pool, "neg_pool": self.neg_pool,
                "sp_v": sp.v, "sp_lambda": np.array([sp.lambda_value]),
                "aug_nodes": self.aug_nodes, "aug_classes": self.aug_classes}

    def load_extra_state(self, extra) -> None:
        sp = self.owner.self_paced
        self.pos_pool = np.asarray(extra["pos_pool"], dtype=np.int64)
        self.neg_pool = np.asarray(extra["neg_pool"], dtype=np.int64)
        sp.v = np.asarray(extra["sp_v"], dtype=np.int8).copy()
        sp.lambda_value = float(extra["sp_lambda"][0])
        self.aug_nodes = np.asarray(extra["aug_nodes"], dtype=np.int64)
        self.aug_classes = np.asarray(extra["aug_classes"], dtype=np.int64)
        self.owner.sampler.update_labels(self.aug_nodes, self.aug_classes)

    # -- epoch body: Algorithm 1 steps 4-11 -----------------------------
    def epoch(self, state, rng) -> dict[str, float]:
        owner, cfg = self.owner, self.owner.config
        gen_loss = owner._train_generator(self.gen_opt, self.pos_pool,
                                          self.neg_pool, rng)
        self.pos_pool = owner._cap_pool(np.concatenate(
            [self.pos_pool, owner.sampler.sample(cfg.walks_per_cycle, rng)]))
        generated = owner.generator.sample(cfg.walks_per_cycle,
                                           cfg.walk_length, rng)
        self.neg_pool = owner._cap_pool(
            np.concatenate([self.neg_pool, generated]))
        return {"cycle": float(state.epoch), "generator_loss": gen_loss,
                **self._curriculum_step(state.epoch, rng)}

    def _curriculum_step(self, cycle: int,
                         rng: np.random.Generator) -> dict[str, float]:
        """Steps 7-11: grow ``lambda``, re-solve the self-paced vectors,
        harvest confident pseudo labels and take ``T1`` discriminator
        steps.

        One *grad-free* scoring pass
        (:meth:`FairDiscriminator.predict_log_proba`) is shared by the
        Eq. 14 vector update and the pseudo-label selection — the
        full-batch forward over all ``n`` nodes happens once per cycle,
        with no autograd graph built.
        """
        owner = self.owner
        cfg = owner.config
        num_pseudo = 0
        if cfg.use_self_paced:
            owner.self_paced.augment_lambda()
            log_probs = owner.discriminator.predict_log_proba()
            owner.self_paced.update(
                log_probs, max_per_class=cfg.pseudo_label_cap * (cycle + 1))
            aug_nodes, aug_classes = owner.self_paced.pseudo_labels(log_probs)
            num_pseudo = aug_nodes.size - self.labeled_nodes.size
            owner.sampler.update_labels(aug_nodes, aug_classes)
            self.aug_nodes, self.aug_classes = aug_nodes, aug_classes
        else:
            aug_nodes, aug_classes = self.labeled_nodes, self.labeled_classes

        sp_nodes, sp_classes = owner.self_paced.selected_pairs()
        last_disc: dict[str, float] = {}
        for _ in range(cfg.batch_iterations):
            take = min(cfg.batch_size, aug_nodes.size)
            idx = rng.choice(aug_nodes.size, size=take, replace=False)
            last_disc = owner.discriminator.train_step(
                aug_nodes[idx], aug_classes[idx], sp_nodes, sp_classes)

        return {"lambda": owner.self_paced.lambda_value,
                "num_pseudo_labels": float(num_pseudo),
                **{f"disc_{k}": v for k, v in last_disc.items()}}


class FairGen(GraphGenerativeModel):
    """Fairness-aware, label-informed graph generative model."""

    name = "FairGen"

    def __init__(self, config: FairGenConfig | None = None):
        super().__init__()
        self.config = config or FairGenConfig()
        self.generator: TransformerWalkModel | None = None
        self.discriminator: FairDiscriminator | None = None
        self.sampler: ContextSampler | None = None
        self.self_paced: SelfPacedState | None = None
        self._protected_mask: np.ndarray | None = None
        self.features: np.ndarray | None = None
        #: lazily computed (protected_nodes, pin_fraction) for generation
        #: starts; False once computed with nothing to pin
        self._generation_plan: tuple[np.ndarray, float] | bool | None = None
        #: per-cycle diagnostics: generator loss, discriminator losses,
        #: lambda, number of pseudo labels
        self.history: list[dict[str, float]] = []

    @property
    def protected_mask(self) -> np.ndarray | None:
        """Boolean membership of the protected group ``S+``.

        Assigning a new mask (e.g. when restoring a serialized model)
        invalidates the cached generation pin plan.
        """
        return self._protected_mask

    @protected_mask.setter
    def protected_mask(self, mask: np.ndarray | None) -> None:
        self._protected_mask = mask
        self._generation_plan = None

    # ------------------------------------------------------------------
    # Training (Algorithm 1)
    # ------------------------------------------------------------------
    def fit(self, graph: Graph, rng: np.random.Generator,
            supervision=None,
            labeled_nodes: np.ndarray | None = None,
            labeled_classes: np.ndarray | None = None,
            protected_mask: np.ndarray | None = None,
            num_classes: int | None = None,
            features: np.ndarray | None = None) -> "FairGen":
        """Run Algorithm 1 on an observed graph.

        Parameters
        ----------
        supervision:
            A :class:`repro.experiments.Supervision` bundling the
            few-shot labeled set, protected mask and class count — the
            uniform fit contract used by the experiment Runner.  Explicit
            keyword arrays below take precedence over its fields.
        labeled_nodes, labeled_classes:
            The few-shot labeled set ``L`` (at least one node per class).
        protected_mask:
            Boolean membership of the protected group ``S+``.
        num_classes:
            ``C``; inferred from the labels when omitted.
        features:
            Optional precomputed node features for ``d_omega``; defaults
            to node2vec embeddings of the input graph.
        """
        cfg = self.config
        self._fitted_graph = graph
        n = graph.num_nodes

        if supervision is not None:
            if (labeled_nodes is None) != (labeled_classes is None):
                raise ValueError(
                    "labeled_nodes and labeled_classes must be "
                    "overridden together when supervision is given — a "
                    "partial override would pair nodes with another "
                    "draw's classes")
            if labeled_nodes is None:
                labeled_nodes = supervision.labeled_nodes
            if labeled_classes is None:
                labeled_classes = supervision.labeled_classes
            if protected_mask is None:
                protected_mask = supervision.protected_mask
            if num_classes is None:
                num_classes = supervision.num_classes

        if labeled_nodes is None or protected_mask is None:
            raise ValueError("FairGen requires labeled nodes and a "
                             "protected-group mask; use TagGen for fully "
                             "unsupervised generation")
        labeled_nodes = np.asarray(labeled_nodes, dtype=np.int64)
        labeled_classes = np.asarray(labeled_classes, dtype=np.int64)
        self.protected_mask = np.asarray(protected_mask, dtype=bool)
        if num_classes is None:
            num_classes = int(labeled_classes.max()) + 1

        # Step 0: node features for d_omega.  The default node2vec budget
        # (6 walks/node, length 10, 3 epochs) yields near-separable
        # community features on the benchmark graphs.
        if features is None:
            features = node2vec_embedding(
                graph, Node2VecConfig(dim=cfg.feature_dim), rng)
        self.features = features

        # Step 1: initialise d_omega and the self-paced vectors.
        self.discriminator = FairDiscriminator(
            features, num_classes, self.protected_mask, rng,
            hidden_dim=cfg.hidden_dim, lr=cfg.discriminator_lr,
            alpha=cfg.alpha, beta=cfg.beta,
            gamma=cfg.gamma if cfg.use_parity else 0.0)
        self.self_paced = SelfPacedState(
            n, num_classes, labeled_nodes, labeled_classes,
            cfg.lambda_init, cfg.lambda_growth)

        ratio = cfg.sampling_ratio if cfg.use_label_informed_sampling else 1.0
        self.sampler = ContextSampler(graph, ratio, cfg.walk_length,
                                      cfg.delta, cfg.diffusion_steps)
        self.sampler.update_labels(labeled_nodes, labeled_classes)

        self.generator = TransformerWalkModel(
            n, cfg.model_dim, cfg.num_heads, cfg.num_layers,
            cfg.walk_length, rng)
        gen_opt = Adam(self.generator.parameters(), lr=cfg.generator_lr)

        # Step 2: initial pools.  Positives via f_S; negatives start as
        # plain biased walks [39] (before the generator can produce any).
        pos_pool = self.sampler.sample(cfg.walks_per_cycle, rng)
        neg_pool = sample_walks(graph, cfg.walks_per_cycle,
                                cfg.walk_length, rng)

        # Steps 3-11 run through the shared Trainer: the task's epoch is
        # one whole cycle — the generator phase (steps 4-6), then the
        # self-paced + discriminator phase (steps 7-11).
        cycles = cfg.self_paced_cycles if cfg.use_self_paced else 1
        task = _FairGenCycleTask(self, gen_opt, labeled_nodes,
                                 labeled_classes, pos_pool, neg_pool)
        state = Trainer(task, epochs=cycles,
                        control=self.train_control).fit(rng)
        self.history = list(state.history)
        return self

    # ------------------------------------------------------------------
    def _train_generator(self, optimizer: Adam, pos_pool: np.ndarray,
                         neg_pool: np.ndarray,
                         rng: np.random.Generator) -> float:
        """MLE on positive walks + unlikelihood margin on negatives.

        Implements Algorithm 1's "train from N+ and N-" via negative
        sampling: the generator maximises the likelihood of real context
        walks while pushing its own previous generations at least
        ``negative_margin`` nats below the positives (only walks that
        violate the margin contribute, which keeps the loss bounded).
        The walk-LM update runs as shared :func:`~repro.train.train_step`
        steps — batch draws live inside the loss closure, so RNG
        consumption matches the legacy loop exactly.
        """
        cfg = self.config
        params = list(self.generator.parameters())

        def step_loss() -> Tensor:
            pos_idx = rng.choice(len(pos_pool),
                                 size=min(cfg.generator_batch, len(pos_pool)),
                                 replace=False)
            neg_idx = rng.choice(len(neg_pool),
                                 size=min(cfg.generator_batch, len(neg_pool)),
                                 replace=False)
            # One fused forward/backward over both pools instead of two:
            # the pools share a transformer, so scoring them per-step as
            # a single padded batch halves the network passes.
            pos_ll, neg_ll = self.generator.log_likelihood_pair(
                pos_pool[pos_idx], neg_pool[neg_idx])
            floor = float(pos_ll.numpy().mean()) - cfg.negative_margin
            penalty = (neg_ll - floor).relu().mean()
            return -pos_ll.mean() + penalty * cfg.negative_weight

        losses = [train_step(optimizer, params, step_loss, clip_norm=5.0)
                  for _ in range(cfg.generator_steps_per_cycle)]
        return float(np.mean(losses))

    def _cap_pool(self, pool: np.ndarray) -> np.ndarray:
        """Keep only the most recent ``pool_capacity`` walks."""
        cap = self.config.pool_capacity
        return pool[-cap:] if len(pool) > cap else pool

    # ------------------------------------------------------------------
    # Generation (Section II-D)
    # ------------------------------------------------------------------
    def _generation_starts(self, take: int,
                           rng: np.random.Generator) -> np.ndarray | None:
        """Start nodes for ``take`` generated walks, or None to let the
        generator sample its own starts.

        Seeds a slice of walks at protected nodes so the scarce group
        receives coverage matching its *fair share* — its fraction of
        the graph volume.  Pinning more than that over-densifies the
        protected neighborhoods (inflating triangles/clustering in the
        generated ego networks); pinning less starves them.  The unpinned
        slice is drawn degree-weighted — the same convention
        ``sample_walks`` uses for the training pools — so the
        generation-time score matrix matches the training distribution.

        The (protected_nodes, pin_fraction) plan is invariant after
        ``fit``, so it is computed once and cached across the 256-walk
        generation chunks.
        """
        graph = self._fitted_graph
        if self._generation_plan is None:
            protected_nodes = np.flatnonzero(self.protected_mask)
            volume_total = float(graph.degrees.sum())
            if protected_nodes.size == 0 or volume_total == 0:
                self._generation_plan = False
            else:
                self._generation_plan = (
                    protected_nodes,
                    graph.volume(protected_nodes) / volume_total)
        if self._generation_plan is False:
            return None
        protected_nodes, pin_fraction = self._generation_plan
        starts = graph.walk_engine().sample_starts(take, rng)
        pinned = rng.random(take) < pin_fraction
        starts[pinned] = rng.choice(protected_nodes, size=int(pinned.sum()))
        return starts

    def generate_walks(self, num_walks: int,
                       rng: np.random.Generator) -> np.ndarray:
        if self.generator is None:
            raise RuntimeError("FairGen must be fitted before generating")
        return self.generator.sample_chunked(
            num_walks, self.config.walk_length, rng,
            starts_fn=self._generation_starts)

    def generate(self, rng: np.random.Generator) -> Graph:
        fitted = self._require_fitted()
        cfg = self.config
        num_walks = max(64, cfg.generation_walk_factor
                        * fitted.num_edges // cfg.walk_length)
        walks = self.generate_walks(num_walks, rng)
        scores = walks_to_edge_counts(walks, fitted.num_nodes)
        protected_volume = fitted.volume(np.flatnonzero(self.protected_mask))
        return assemble_from_scores(scores, fitted.num_edges, min_degree=1,
                                    protected=self.protected_mask,
                                    protected_volume=protected_volume)

    def propose_edges(self, num_edges: int,
                      rng: np.random.Generator) -> np.ndarray:
        """Label-informed edge proposals for data augmentation (Fig. 6).

        Candidate edges are ranked by generated-walk support multiplied
        by the discriminator's probability that both endpoints share a
        class — this is what makes FairGen's augmentation label-coherent
        where unsupervised baselines propose structurally plausible but
        class-random edges.
        """
        from ..models.base import propose_edges_from_walk_counts

        fitted = self._require_fitted()
        cfg = self.config
        num_walks = max(64, cfg.generation_walk_factor
                        * fitted.num_edges // cfg.walk_length)
        walks = self.generate_walks(num_walks, rng)
        counts = walks_to_edge_counts(walks, fitted.num_nodes)
        proba = self.discriminator.predict_proba()

        def same_class_probability(rows, cols):
            return (proba[rows] * proba[cols]).sum(axis=1)

        return propose_edges_from_walk_counts(
            fitted, counts, num_edges, weight_fn=same_class_probability)

    # -- persistence ----------------------------------------------------
    def config_dict(self) -> dict:
        return dataclasses.asdict(self.config)

    @classmethod
    def from_config_dict(cls, params: dict) -> "FairGen":
        return cls(FairGenConfig(**params))

    def state_dict(self) -> dict[str, np.ndarray]:
        """Generator + discriminator parameters plus the fitted arrays.

        The self-paced training state is not captured — restoring is for
        inference (``generate`` / ``propose_edges``), not for resuming
        Algorithm 1.
        """
        return {
            "protected_mask": self._protected_mask.astype(np.int8),
            "features": self.features,
            "num_classes": np.array([self.discriminator.num_classes],
                                    dtype=np.int64),
            **prefix_state("generator", self.generator.state_dict()),
            **prefix_state("discriminator",
                           self.discriminator.mlp.state_dict()),
        }

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        graph = self._require_fitted()
        cfg = self.config
        protected = np.asarray(state["protected_mask"], dtype=bool)
        if protected.shape != (graph.num_nodes,):
            raise ValueError("graph does not match the saved model "
                             f"({protected.size} vs {graph.num_nodes} "
                             "nodes)")
        self.protected_mask = protected
        self.features = np.asarray(state["features"], dtype=np.float64)

        init_rng = np.random.default_rng(0)
        self.generator = TransformerWalkModel(
            graph.num_nodes, cfg.model_dim, cfg.num_heads, cfg.num_layers,
            cfg.walk_length, init_rng)
        self.generator.load_state_dict(extract_state(state, "generator"))

        self.discriminator = FairDiscriminator(
            self.features, int(state["num_classes"][0]), protected,
            init_rng, hidden_dim=cfg.hidden_dim, lr=cfg.discriminator_lr,
            alpha=cfg.alpha, beta=cfg.beta,
            gamma=cfg.gamma if cfg.use_parity else 0.0)
        self.discriminator.mlp.load_state_dict(
            extract_state(state, "discriminator"))

    # ------------------------------------------------------------------
    def reconstruction_loss(self, walks: np.ndarray) -> float:
        """Mean NLL of the given walks under ``g_theta`` (Eq. 1 estimator)."""
        if self.generator is None:
            raise RuntimeError("model not fitted")
        return float(self.generator.nll(walks).item())


def make_fairgen_variant(variant: str,
                         config: FairGenConfig | None = None) -> FairGen:
    """Factory for the paper's ablation variants (Section III-A).

    ``"full"``, ``"no-sampling"`` (FairGen-R), ``"no-spl"``
    (FairGen-w/o-SPL), ``"no-parity"`` (FairGen-w/o-Parity).
    """
    base = config or FairGenConfig()
    table = {
        "full": {},
        "no-sampling": {"use_label_informed_sampling": False},
        "no-spl": {"use_self_paced": False},
        "no-parity": {"use_parity": False},
    }
    if variant not in table:
        raise ValueError(f"unknown variant {variant!r}; expected one of "
                         f"{sorted(table)}")
    model = FairGen(base.variant(**table[variant]))
    names = {"full": "FairGen", "no-sampling": "FairGen-R",
             "no-spl": "FairGen-w/o-SPL", "no-parity": "FairGen-w/o-Parity"}
    model.name = names[variant]
    return model
