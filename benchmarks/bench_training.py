"""Training-path benchmark: grad-free scoring, checkpoints, the walk LM step.

FairGen's self-paced cycle scores the discriminator over *all* nodes
every cycle (the Eq. 14 vector update and the pseudo-label harvest
share one ``predict_log_proba`` pass).  That pass runs under
``no_grad()`` — identical floats, but no autograd graph kept alive, which
the smoke gates by the pass's ``tracemalloc`` peak and times ungated.
Another smoke records FairGen's float32 generator
step against a float64 copy of the model, ungated.  Two SGNS smokes gate
its per-``train()`` workspace against the expression-form oracle (minor
page faults, byte-identical vectors) and its float32 vectors against the
oracle run in float64 (max |delta| <= 1e-5).  The smoke subset
gates CI and merge-updates the trajectory into ``.bench/BENCH_train.json``
(see :func:`common.record`):

    pytest benchmarks/bench_training.py -m smoke
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from common import BENCH_DIR, record
from repro.core.discriminator import FairDiscriminator
from repro.train import TrainState, Trainer

#: bench-profile-like scoring shape (nodes x features, 3-layer MLP)
NUM_NODES = 2000
FEATURE_DIM = 32
HIDDEN_DIM = 32
NUM_CLASSES = 3
REPS = 100


def _smoke_discriminator() -> FairDiscriminator:
    rng = np.random.default_rng(17)
    features = rng.standard_normal((NUM_NODES, FEATURE_DIM))
    return FairDiscriminator(features, NUM_CLASSES,
                             rng.random(NUM_NODES) < 0.15, rng,
                             hidden_dim=HIDDEN_DIM)


def _best_of(fn, trials: int = 5) -> float:
    """Best wall-clock of ``trials`` timed runs (robust to CI noise)."""
    times = []
    for _ in range(trials):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def _peak_bytes(fn) -> int:
    """``tracemalloc`` peak of one ``fn()`` call above what was live."""
    outer = tracemalloc.is_tracing()
    if not outer:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        live = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - live
    finally:
        if not outer:
            tracemalloc.stop()


@pytest.mark.smoke
def test_training_smoke_grad_free_scoring_beats_grad_path():
    """Seconds-scale CI gate on the per-cycle scoring hot path.

    The graph-building path pays parent-tuple and backward-function
    bookkeeping on every tensor op of the full-batch forward, and keeps
    each op's intermediates alive until the output is dropped; the
    ``no_grad`` path frees each intermediate once the next op has read
    it.  The gate checks that mechanism, deterministically: one
    grad-free scoring pass must peak well below the grad path in
    ``tracemalloc`` (~1.16 MB against ~2.39 MB at this shape).  Both
    paths must agree bit-for-bit.  Their wall-clock times and speedup
    (~1.15-1.3x) are recorded without a gate: a margin that small loses
    races on a loaded host.
    """
    disc = _smoke_discriminator()

    def grad_pass():
        disc.log_probs().numpy().copy()

    def grad_path():
        for _ in range(REPS):
            grad_pass()

    def grad_free_path():
        for _ in range(REPS):
            disc.predict_log_proba()

    grad_free_path()  # warm BLAS and allocators outside the timings
    grad_path()
    # Interleaved trials: the host's speed can change between two
    # back-to-back blocks of trials, and at a ~1.2x margin that alone
    # could flip the comparison; alternating exposes both paths alike.
    with_graph = grad_free = float("inf")
    for _ in range(5):
        with_graph = min(with_graph, _best_of(grad_path, trials=1))
        grad_free = min(grad_free, _best_of(grad_free_path, trials=1))

    np.testing.assert_array_equal(disc.predict_log_proba(),
                                  disc.log_probs().numpy())
    grad_peak = _peak_bytes(grad_pass)
    grad_free_peak = _peak_bytes(disc.predict_log_proba)

    speedup = with_graph / max(grad_free, 1e-9)
    print(f"\n\nTraining smoke — {REPS} full-batch scoring passes "
          f"(n={NUM_NODES}, d={FEATURE_DIM}): grad path {with_graph:.3f}s "
          f"vs grad-free {grad_free:.3f}s ({speedup:.2f}x); one pass "
          f"peaks at {grad_peak} vs {grad_free_peak} bytes")

    record("BENCH_train.json", "training_grad_free_scoring_smoke", {
        "num_nodes": NUM_NODES,
        "feature_dim": FEATURE_DIM,
        "hidden_dim": HIDDEN_DIM,
        "scoring_reps": REPS,
        "grad_path_seconds": round(with_graph, 4),
        "grad_free_seconds": round(grad_free, 4),
        "speedup": round(speedup, 2),
        "grad_path_peak_bytes": grad_peak,
        "grad_free_peak_bytes": grad_free_peak,
    })

    assert grad_free_peak < 0.7 * grad_peak, (
        f"grad-free scoring peaked at {grad_free_peak} bytes; it must "
        f"stay well below the graph-building path's {grad_peak} bytes")


@pytest.mark.smoke
def test_training_smoke_checkpoint_round_trip_is_cheap_and_exact():
    """Checkpoint I/O must stay negligible next to a training cycle.

    Saves and restores a real Trainer task (TagGen on a small graph)
    and asserts (a) the restored parameters are byte-identical and
    (b) one save+load round trip costs well under a second — the
    budget that lets a fit checkpoint on the Runner's interval without
    denting fit throughput.
    """
    from repro.graph import planted_protected_graph
    from repro.models.taggen import TagGen, _TagGenTask

    rng = np.random.default_rng(5)
    graph, _, _ = planted_protected_graph(60, 12, rng, p_in=0.2,
                                          p_out=0.02)
    model = TagGen(epochs=2, walks_per_epoch=32, dim=16, num_layers=1,
                   walk_length=8)
    fit_rng = np.random.default_rng(9)
    model.fit(graph, fit_rng)
    task = _TagGenTask(model, graph)
    state = TrainState(epoch=2, history=list(model.loss_history))

    before = {name: value.copy()
              for name, value in model.model.state_dict().items()}
    BENCH_DIR.mkdir(exist_ok=True)
    path = BENCH_DIR / ".bench_train_ckpt.npz"
    try:
        start = time.perf_counter()
        state.save(path, task, fit_rng)
        loaded = TrainState.load(path)
        for p in model.model.parameters():
            p.data += 1.0  # clobber, so restore must actually rewrite
        loaded.restore(task, fit_rng)
        round_trip = time.perf_counter() - start

        assert loaded.history == model.loss_history
        for name, value in model.model.state_dict().items():
            np.testing.assert_array_equal(value, before[name])
        print(f"\n\ncheckpoint save+load+restore: {round_trip:.3f}s")
        assert round_trip < 1.0
    finally:
        path.unlink(missing_ok=True)


@pytest.mark.smoke
def test_training_smoke_walk_lm_step():
    """Records FairGen's generator step, float32 against float64.

    The walk LM trains in float32.  This smoke times one FairGen
    generator step at the ``bench`` shapes — a fused pos/neg batch of
    2 x 32 walks of length 10, dim 32, BLOG's 324-node vocabulary —
    on the production model and on a float64 copy of it, and records
    ms and minor page faults per step.  It asserts the dtypes after the
    step, not a wall-clock ratio.
    """
    import copy
    import resource

    from repro.models.walk_lm import TransformerWalkModel
    from repro.nn import Adam
    from repro.train import train_step

    vocab, dim, length, batch, steps = 324, 32, 10, 32, 20
    rng = np.random.default_rng(21)
    model32 = TransformerWalkModel(vocab, dim, 4, 1, length, rng)
    models = {"float32": model32,
              "float64": copy.deepcopy(model32).astype(np.float64)}
    optimizers = {name: Adam(m.parameters(), lr=0.01)
                  for name, m in models.items()}
    pos = rng.integers(0, vocab, (batch, length))
    neg = rng.integers(0, vocab, (batch, length))

    def fairgen_step(name):
        model = models[name]

        def step_loss():
            pos_ll, neg_ll = model.log_likelihood_pair(pos, neg)
            floor = float(pos_ll.numpy().mean()) - 2.0
            penalty = (neg_ll - floor).relu().mean()
            return -pos_ll.mean() + penalty * 0.1

        return train_step(optimizers[name], list(model.parameters()),
                          step_loss, clip_norm=5.0)

    def block(name):
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        start = time.perf_counter()
        for _ in range(steps):
            fairgen_step(name)
        seconds = time.perf_counter() - start
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
        return 1e3 * seconds / steps, faults / steps

    for name in models:  # warm BLAS and allocators outside the timings
        block(name)
    runs: dict[str, list[tuple[float, float]]] = {n: [] for n in models}
    for _ in range(5):  # interleaved, so host drift hits both alike
        for name in models:
            runs[name].append(block(name))
    ms = {name: min(r[0] for r in rs) for name, rs in runs.items()}
    faults = {name: min(r[1] for r in rs) for name, rs in runs.items()}

    for name, model in models.items():
        dtype = np.dtype(name)
        assert {p.data.dtype for p in model.parameters()} == {dtype}
        opt = optimizers[name]
        assert {buf.dtype for buf in opt._m + opt._v} == {dtype}

    print(f"\n\nTraining smoke — FairGen generator step ({2 * batch} "
          f"walks x {length}, dim {dim}, V={vocab}): float32 "
          f"{ms['float32']:.2f} ms / {faults['float32']:.0f} minor faults "
          f"vs float64 {ms['float64']:.2f} ms / {faults['float64']:.0f} "
          f"per step ({ms['float64'] / ms['float32']:.2f}x)")
    record("BENCH_train.json", "training_walk_lm_step_smoke", {
        "walks": 2 * batch,
        "walk_length": length,
        "dim": dim,
        "vocab": vocab,
        "steps_per_block": steps,
        "float32_ms_per_step": round(ms["float32"], 3),
        "float64_ms_per_step": round(ms["float64"], 3),
        "float32_minor_faults_per_step": round(faults["float32"], 1),
        "float64_minor_faults_per_step": round(faults["float64"], 1),
        "speedup": round(ms["float64"] / ms["float32"], 2),
    })


def _reference_sgns_train(model, walks: np.ndarray, window: int,
                          epochs: int, negatives: int, lr: float,
                          batch_size: int) -> list[float]:
    """Expression-form SGNS: the oracle ``SkipGramModel.train`` matches.

    One fresh temporary per operation, a ``Generator.choice(p=noise)``
    draw per batch and two scatters, one per matrix; ``model``'s own
    matrices and RNG are trained in place.
    """
    from repro.embedding import unigram_table, walks_to_pairs
    from repro.nn.backend import scatter_rows

    def sigmoid(x):
        return 1.0 / (1.0 + np.exp(-np.clip(x, -30.0, 30.0)))

    def apply_row_averaged(matrix, rows, grads, lr):
        num_rows = matrix.shape[0]
        accum = scatter_rows(rows, grads, num_rows)
        counts = np.bincount(rows, minlength=num_rows)
        touched = counts > 0
        matrix[touched] -= (lr * accum[touched]
                            / np.sqrt(counts[touched])[:, None])

    def step(batch, lr):
        centers, contexts = batch[:, 0], batch[:, 1]
        neg = model._rng.choice(model.num_nodes,
                                size=(len(batch), negatives), p=noise)
        v = model.in_vectors[centers]
        u_pos = model.out_vectors[contexts]
        u_neg = model.out_vectors[neg]
        pos_score = sigmoid((v * u_pos).sum(axis=1))
        neg_score = sigmoid(-(u_neg * v[:, None, :]).sum(axis=2))
        loss = float(-(np.log(pos_score + 1e-12).mean()
                       + np.log(neg_score + 1e-12).sum(axis=1).mean()))
        g_pos = (pos_score - 1.0)[:, None]
        g_neg = (1.0 - neg_score)[:, :, None]
        grad_v = g_pos * u_pos + (g_neg * u_neg).sum(axis=1)
        grad_u_pos = g_pos * v
        grad_u_neg = g_neg * v[:, None, :]
        apply_row_averaged(model.in_vectors, centers, grad_v, lr)
        grad_out = np.concatenate(
            [grad_u_pos, grad_u_neg.reshape(-1, model.dim)])
        rows_out = np.concatenate([contexts, neg.ravel()])
        apply_row_averaged(model.out_vectors, rows_out, grad_out, lr)
        return loss

    pairs = walks_to_pairs(walks, window)
    noise = unigram_table(walks, model.num_nodes)
    history = []
    for epoch in range(epochs):
        lr_epoch = lr * max(0.1, 1.0 - epoch / max(epochs, 1))
        order = model._rng.permutation(len(pairs))
        losses = [step(pairs[order[lo: lo + batch_size]], lr_epoch)
                  for lo in range(0, len(order), batch_size)]
        history.append(float(np.mean(losses)))
    return history


#: the SGNS smokes' corpus: 6 walks of length 10 per node of a 300-node
#: planted-partition graph, and the ``train()`` arguments
SGNS_NODES, SGNS_DIM = 300, 32
SGNS_KWARGS = dict(window=4, epochs=2, negatives=5, lr=0.05,
                   batch_size=2048)


def _sgns_smoke_walks() -> np.ndarray:
    from repro.graph import planted_protected_graph, sample_walks

    graph, _, _ = planted_protected_graph(SGNS_NODES - 60, 60,
                                          np.random.default_rng(5),
                                          p_in=0.05, p_out=0.01)
    starts = np.repeat(np.arange(SGNS_NODES), 6)
    return sample_walks(graph, starts.size, 10, np.random.default_rng(6),
                        starts=starts)


def _sgns_run(side: str, walks: np.ndarray):
    """One seeded SGNS ``train()`` on ``side`` ("oracle" or "workspace").

    Returns (model, rng, loss history, seconds, minor page faults).
    """
    import resource

    from repro.embedding import SkipGramModel

    rng = np.random.default_rng(8)
    model = SkipGramModel(SGNS_NODES, SGNS_DIM, rng)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    start = time.perf_counter()
    if side == "workspace":
        history = model.train(walks, **SGNS_KWARGS)
    else:
        history = _reference_sgns_train(model, walks, **SGNS_KWARGS)
    seconds = time.perf_counter() - start
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    return model, rng, history, seconds, faults


def _fresh_sgns_faults(side: str) -> int:
    """Minor faults of the first SGNS ``train()`` of a fresh interpreter.

    glibc's malloc raises its mmap and heap-trim thresholds as large
    blocks are freed, so how many pages a ``train()`` faults in depends
    on what its process freed before it: after the other smokes, the
    oracle's temporaries can land in an already-grown heap and fault
    little.  Counting each side as the first ``train()`` of its own
    interpreter starts both from the allocator's defaults.
    """
    import repro

    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "sgns-faults", side],
        env=env, capture_output=True, text=True, timeout=600)
    assert out.returncode == 0, out.stderr
    return int(out.stdout.split()[-1])


@pytest.mark.smoke
def test_training_smoke_sgns_workspace():
    """CI gate on SGNS's per-``train()`` workspace.

    ``SkipGramModel.train`` writes every step into buffers allocated once
    per call, where the expression form allocates ~10 fresh 0.5-3 MB
    temporaries per 2048-pair step and the kernel zero-fills their pages
    anew.  The gate compares counts, not clocks: minor page faults per
    ``train()`` must be <= 1/10 of the oracle's, each counted in a fresh
    interpreter (see :func:`_fresh_sgns_faults`), and the trained
    vectors, output matrix, loss history and RNG state must match it
    byte for byte.
    """
    from repro.embedding import walks_to_pairs

    kwargs = SGNS_KWARGS
    walks = _sgns_smoke_walks()

    runs = {name: [_sgns_run(name, walks) for _ in range(2)]
            for name in ("oracle", "workspace")}
    (ref, ref_rng, ref_history, _, _) = runs["oracle"][0]
    for model, rng, history, _, _ in runs["workspace"]:
        assert np.array_equal(model.in_vectors, ref.in_vectors)
        assert np.array_equal(model.out_vectors, ref.out_vectors)
        assert np.asarray(history).tobytes() == \
            np.asarray(ref_history).tobytes()
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    seconds = {name: min(r[3] for r in rs) for name, rs in runs.items()}
    faults = {name: _fresh_sgns_faults(name) for name in runs}
    pairs = len(walks_to_pairs(walks, kwargs["window"]))
    steps = kwargs["epochs"] * -(-pairs // kwargs["batch_size"])
    print(f"\n\nTraining smoke — SGNS train() over {pairs} pairs in "
          f"{steps} steps: "
          f"oracle {seconds['oracle']:.3f}s / {faults['oracle']} minor "
          f"faults vs workspace {seconds['workspace']:.3f}s / "
          f"{faults['workspace']} minor faults")

    record("BENCH_train.json", "training_sgns_smoke", {
        "num_nodes": SGNS_NODES,
        "dim": SGNS_DIM,
        "pairs": pairs,
        "steps": steps,
        "oracle_seconds": round(seconds["oracle"], 4),
        "workspace_seconds": round(seconds["workspace"], 4),
        "oracle_minor_faults": faults["oracle"],
        "workspace_minor_faults": faults["workspace"],
    })

    assert faults["workspace"] * 10 <= faults["oracle"], (
        f"workspace SGNS took {faults['workspace']} minor faults per "
        f"train(), more than 1/10 of the oracle's {faults['oracle']}")


@pytest.mark.smoke
def test_training_smoke_sgns_float32_tracks_float64():
    """CI gate on SGNS's float32 precision, counted, not timed.

    Trains the float32 workspace SGNS on the workspace smoke's corpus,
    and the expression-form oracle on a float64 copy of the same initial
    table and RNG; the negative draws do not depend on the table's
    dtype, so both runs see the same batches and negatives.  The trained
    vectors must agree to 1e-5 (node2vec on BLOG measured 9.6e-7).
    """
    import copy

    from repro.embedding import SkipGramModel

    walks = _sgns_smoke_walks()
    model32 = SkipGramModel(SGNS_NODES, SGNS_DIM, np.random.default_rng(8))
    model64 = copy.deepcopy(model32)
    model64._table = model64._table.astype(np.float64)
    history32 = model32.train(walks, **SGNS_KWARGS)
    history64 = _reference_sgns_train(model64, walks, **SGNS_KWARGS)

    assert model32.vectors.dtype == np.float32
    assert model64.vectors.dtype == np.float64
    assert (model32._rng.bit_generator.state
            == model64._rng.bit_generator.state)
    vector_drift = float(np.abs(model32.vectors - model64.vectors).max())
    output_drift = float(np.abs(model32.out_vectors
                                - model64.out_vectors).max())
    loss_drift = float(np.abs(np.subtract(history32, history64)).max())
    scale = float(np.abs(model64.vectors).max())
    print(f"\n\nTraining smoke — SGNS float32 vs float64: max |delta| "
          f"{vector_drift:.2e} on vectors up to {scale:.3f}, "
          f"{output_drift:.2e} on the output matrix, {loss_drift:.2e} "
          f"on the loss history")
    record("BENCH_train.json", "training_sgns_float32_smoke", {
        "num_nodes": SGNS_NODES,
        "dim": SGNS_DIM,
        "max_abs_vector_drift": vector_drift,
        "max_abs_output_drift": output_drift,
        "max_abs_loss_drift": loss_drift,
        "max_abs_vector": round(scale, 4),
    })
    assert vector_drift <= 1e-5, (
        f"float32 SGNS vectors drift {vector_drift:.2e} from float64")


def test_scoring_cost_scales_linearly_with_nodes(benchmark):
    """Full-batch scoring is O(n): 4x the nodes ~ 4x the time, far from
    the superlinear blowup a retained graph per node would cause."""
    def sweep():
        times = {}
        for n in (500, 2000):
            rng = np.random.default_rng(1)
            disc = FairDiscriminator(
                rng.standard_normal((n, FEATURE_DIM)), NUM_CLASSES,
                rng.random(n) < 0.15, rng, hidden_dim=HIDDEN_DIM)
            disc.predict_log_proba()  # warm
            times[n] = _best_of(
                lambda d=disc: [d.predict_log_proba() for _ in range(20)])
        return times

    times = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print("\n\nGrad-free scoring — node-count sweep")
    for n, seconds in times.items():
        print(f"  n={n:5d}  {seconds:.3f}s")
    assert times[2000] < times[500] * 16


if __name__ == "__main__":
    # python benchmarks/bench_training.py sgns-faults oracle|workspace
    # prints the minor faults of one SGNS train() (_fresh_sgns_faults).
    _, command, side = sys.argv
    if command != "sgns-faults" or side not in ("oracle", "workspace"):
        sys.exit("usage: bench_training.py sgns-faults oracle|workspace")
    print(_sgns_run(side, _sgns_smoke_walks())[4])
