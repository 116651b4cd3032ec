"""The dtype contract: the walk LM and SGNS are float32 end to end, the
rest float64.

SGNS trains a float32 table, and ``node2vec_embedding`` hands its vectors
out as float64, so FairGen's features and the discriminator stay float64.
NumPy's promotion rules (NEP 50) turn a float32 result back into float64
the moment one NumPy float64 scalar or array joins an op, silently and
without an error.  This test runs one FairGen-shaped generator step, the
two decode paths and an SGNS fit, and checks the dtype of everything they
make.
"""

from __future__ import annotations

import numpy as np

from repro.core.discriminator import FairDiscriminator
from repro.embedding import Node2VecConfig, node2vec_embedding
from repro.embedding.word2vec import SkipGramModel
from repro.graph import Graph
from repro.models.walk_lm import TransformerWalkModel
from repro.nn import Adam, Tensor, causal_mask
from repro.nn.backend import DECODE_KERNEL, Backend
from repro.nn.gradcheck import check_gradients
from repro.nn.tensor import attention
from repro.serve import ContinuousBatcher
from repro.train import train_step

F32 = np.dtype(np.float32)
F64 = np.dtype(np.float64)


def test_walk_lm_float32_end_to_end_rest_float64(monkeypatch):
    rng = np.random.default_rng(0)
    model = TransformerWalkModel(24, dim=16, num_heads=4, num_layers=2,
                                 max_length=8, rng=rng)
    params = list(model.parameters())
    optimizer = Adam(params, lr=1e-3)

    made: list[np.dtype] = []
    real_init = Tensor.__init__

    def recording_init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        made.append(self.data.dtype)

    monkeypatch.setattr(Tensor, "__init__", recording_init)
    logits: list[np.ndarray] = []
    real_decode = Backend.__dict__["decode_step"]

    def recording_decode(self, *args, **kwargs):
        logits.append(real_decode(self, *args, **kwargs))
        return logits[-1]

    monkeypatch.setattr(Backend, "decode_step", recording_decode)

    # FairGen's generator step: the fused pos/neg log-likelihood, the
    # margin penalty, backward, a clip that scales, Adam.
    pos = rng.integers(0, 24, (8, 8))
    neg = rng.integers(0, 24, (8, 6))

    def step_loss():
        pos_ll, neg_ll = model.log_likelihood_pair(pos, neg)
        floor = float(pos_ll.numpy().mean()) - 2.0
        penalty = (neg_ll - floor).relu().mean()
        return -pos_ll.mean() + penalty * 0.5

    train_step(optimizer, params, step_loss, clip_norm=1e-3)
    assert made and set(made) == {F32}
    assert {p.data.dtype for p in params} == {F32}
    assert {p.grad.dtype for p in params} == {F32}
    assert {buf.dtype for buf in optimizer._m + optimizer._v} == {F32}

    # Decode: standalone sample, then one serving-engine step over
    # two requests of different lengths.
    made.clear()
    model.sample(5, 8, rng)
    caches = model.new_caches(3)
    DECODE_KERNEL.decode_step(model, caches,
                              np.full((3, 2), model.start_token), [(0, 3)],
                              mask=causal_mask(2))
    engine = ContinuousBatcher(model, max_walks=16)
    engine.submit(3, 8, np.random.default_rng(1))
    engine.submit(2, 5, np.random.default_rng(2),
                  starts=np.array([4, 7]))
    assert engine.step() == 5
    assert not made
    assert len(logits) == 8 + 1 + 2 + 1
    assert {out.dtype for out in logits} == {F32}
    caches += engine._caches
    assert {buf.dtype for c in caches for buf in (c._k, c._v)} == {F32}

    # SGNS trains in float32; node2vec hands out float64 features.
    sgns = SkipGramModel(24, 8, rng)
    sgns.train(rng.integers(0, 24, (16, 8)), epochs=1)
    assert sgns.vectors.dtype == F32 and sgns.out_vectors.dtype == F32
    graph = Graph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
    features = node2vec_embedding(graph, Node2VecConfig(dim=4, epochs=1),
                                  rng)
    assert features.dtype == F64

    # Everything else stays float64: the discriminator, gradchecks.
    made.clear()
    features = rng.standard_normal((24, 6))
    disc = FairDiscriminator(features, 2, np.arange(24) < 6, rng,
                             hidden_dim=8)
    disc.train_step(np.arange(4), np.array([0, 1, 0, 1]),
                    np.arange(4, 8), np.array([1, 0, 1, 0]))
    assert disc.predict_log_proba().dtype == F64
    assert {p.data.dtype for p in disc.mlp.parameters()} == {F64}
    assert {buf.dtype for buf in disc.optimizer._m} == {F64}
    leaves = [Tensor(rng.standard_normal((2, 2, 3, 4)), requires_grad=True)
              for _ in range(3)]
    check_gradients(lambda: attention(*leaves).sum(), leaves)
    assert {t.grad.dtype for t in leaves} == {F64}
    assert made and set(made) == {F64}
