"""The shared training loop: ``Trainer`` + ``TrainState``.

Before this module every trainable model (FairGen, NetGAN, GraphRNN,
GAE, TagGen) re-implemented the same loop by hand: batching, optimizer
stepping, gradient clipping and loss-history bookkeeping, each with its
own bespoke structure.  ``Trainer`` centralises that loop while keeping
the *numerics of every model bit-identical* to the legacy code — the
task still owns the epoch body and consumes the caller's RNG in exactly
the legacy order, so seeded fits reproduce the pre-refactor parameters
exactly (pinned by ``tests/fixtures/train_parity.json``).

The loop contract
-----------------
A *task* is any object implementing:

``modules() -> Mapping[str, Module]``
    The named modules whose parameters form the checkpointed state.
``optimizers() -> Mapping[str, Optimizer]``
    The named optimizers (their moment buffers checkpoint too, so a
    resumed Adam continues exactly where it stopped).
``epoch(state, rng) -> float | dict``
    One training epoch / cycle / iteration — the whole body, including
    any per-epoch phase after the main update (FairGen's epoch holds
    Algorithm 1 steps 4-11).  The return value is the epoch's loss
    record; ``Trainer`` appends it to ``state.history`` — the uniform
    loss-history contract every model now shares.

and optionally:

``extra_state() -> Mapping[str, ndarray]`` / ``load_extra_state(...)``
    Non-parameter training state (walk pools, curriculum vectors, ...)
    that must survive a checkpoint/resume round trip.

Checkpoint / resume
-------------------
``TrainControl`` attaches checkpointing to a fit: after an epoch whose
checkpoint is due, the full training state — module parameters,
optimizer moments, task extras, loss history and the *caller's RNG
state* — is written atomically to ``checkpoint_path``.  A later fit of
the same spec finds the file, restores everything and continues from
the next epoch; because the RNG state is part of the snapshot, the
resumed fit is byte-identical to an uninterrupted one.

One loop
--------
``Trainer.fit`` is the one place an epoch is committed: it runs the
task's epoch, appends the record to history, advances ``state.epoch``,
writes any due checkpoint, and counts and times the epoch and the fit
in the process-wide metrics registry (``train_epochs_total``,
``train_fits_total``, ``train_epoch_seconds``, ``train_fit_seconds``,
each labelled ``task=<task class>``).  The series are purely
observational — they consume no RNG and touch no record.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

import numpy as np

from ..nn import Module, Optimizer, clip_grad_norm
from ..obs import trace
from ..obs.metrics import get_registry

__all__ = ["TrainControl", "TrainState", "Trainer", "minibatches",
           "train_step", "CHECKPOINT_FORMAT"]

#: bump when the on-disk checkpoint layout changes incompatibly
#: (v3: SGNS trains in float32, so FairGen's node2vec features change; a
#: v2 FairGen checkpoint holds a discriminator, its Adam moments and
#: self-paced labels trained against the float64 features, and resuming
#: one would finish a fit no cold run reproduces.
#: v2: the walk LM's parameters and Adam moments are float32, so a v1
#: float64 checkpoint would resume a fit no cold run reproduces)
CHECKPOINT_FORMAT = "train-ckpt-v3"


# ----------------------------------------------------------------------
# Loop helpers
# ----------------------------------------------------------------------
def minibatches(total: int, batch_size: int) -> Iterator[slice]:
    """Sequential minibatch slices covering ``range(total)`` in order.

    The shared batching idiom of the fit loops (TagGen's corpus walk):
    slices, not copies, so ``walks[sl]`` stays a cheap view.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    for lo in range(0, total, batch_size):
        yield slice(lo, lo + batch_size)


def train_step(optimizer: Optimizer, params, loss_fn,
               clip_norm: float | None = None) -> float:
    """One optimization step: zero grads, compute, backward, clip, step.

    ``loss_fn`` returns the scalar loss Tensor (sampling its own batch
    if needed — RNG draws land inside the step, like the legacy loops).
    ``params`` is only consulted when ``clip_norm`` is set.  Returns the
    loss value.
    """
    optimizer.zero_grad()
    loss = loss_fn()
    loss.backward()
    if clip_norm is not None:
        clip_grad_norm(params, clip_norm)
    optimizer.step()
    _steps_counter().inc()
    return loss.item()


_STEPS_COUNTER = None


def _steps_counter():
    """Lazy default-registry counter for optimizer steps (hot path)."""
    global _STEPS_COUNTER
    if _STEPS_COUNTER is None:
        _STEPS_COUNTER = get_registry().counter(
            "train_steps_total", "Optimizer steps taken via train_step")
    return _STEPS_COUNTER


@dataclass
class TrainControl:
    """External control of a fit: checkpoint cadence and resume.

    The experiment :class:`~repro.experiments.Runner` installs one of
    these on a model (``model.train_control``) before calling ``fit``;
    models pass it through to their :class:`Trainer`.  ``None`` (the
    default everywhere) trains exactly as before, with no checkpoint
    I/O at all.
    """

    #: where the ``.ckpt.npz`` lives; ``None`` disables checkpointing
    checkpoint_path: str | os.PathLike | None = None
    #: minimum seconds between checkpoint writes (0 = every epoch).
    #: The Runner passes its ``checkpoint_interval`` here, so a
    #: SIGKILLed fit loses at most one interval of work.
    min_save_interval: float = 0.0
    #: invalidation stamp (the Runner passes its resolved-params stamp);
    #: a checkpoint written under a different tag is ignored
    tag: str | None = None


# ----------------------------------------------------------------------
# Training state + checkpoint archive
# ----------------------------------------------------------------------
@dataclass
class TrainState:
    """Progress of one fit: epoch counter plus the loss history.

    After :meth:`load`, the restore payload (parameters, optimizer
    moments, extras, RNG state) is carried privately until
    :meth:`restore` applies it to a task.
    """

    epoch: int = 0
    history: list = field(default_factory=list)
    tag: str | None = None
    _payload: dict | None = field(default=None, repr=False)
    _rng_state: dict | None = field(default=None, repr=False)

    # ------------------------------------------------------------------
    def save(self, path: str | os.PathLike, task,
             rng: np.random.Generator, tag: str | None = None) -> None:
        """Atomically write the full training snapshot as ``.ckpt.npz``.

        Captures the task's module parameters, optimizer moments and
        extra arrays, this state's epoch/history, and ``rng``'s exact
        bit-generator state — everything needed for a byte-identical
        resume.  Written via a temp file + ``os.replace`` so a crash
        mid-write can never leave a truncated archive behind.
        """
        path = Path(path)
        payload: dict[str, np.ndarray] = {
            "format": np.frombuffer(CHECKPOINT_FORMAT.encode(),
                                    dtype=np.uint8)}
        for mod_name, module in task.modules().items():
            for name, value in module.state_dict().items():
                payload[f"module/{mod_name}/{name}"] = value
        for opt_name, optimizer in task.optimizers().items():
            for name, value in optimizer.state_dict().items():
                payload[f"optim/{opt_name}/{name}"] = value
        if hasattr(task, "extra_state"):
            for name, value in task.extra_state().items():
                payload[f"extra/{name}"] = np.asarray(value)
        meta = {"epoch": self.epoch, "history": self.history,
                "rng_state": rng.bit_generator.state, "tag": tag}
        payload["meta_json"] = np.frombuffer(
            json.dumps(meta, default=str).encode(), dtype=np.uint8)
        tmp = path.with_name(f".{path.name}.tmp-{os.getpid()}")
        try:
            with open(tmp, "wb") as fh:
                np.savez_compressed(fh, **payload)
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)

    # ------------------------------------------------------------------
    @classmethod
    def load(cls, path: str | os.PathLike) -> "TrainState | None":
        """Read a checkpoint; ``None`` for missing/corrupt/foreign files.

        A checkpoint is a pure optimisation — any read problem degrades
        to "train from scratch" rather than failing the fit.
        """
        import zipfile

        path = Path(path)
        if not path.exists():
            return None
        try:
            with np.load(path) as archive:
                if "format" not in archive or "meta_json" not in archive:
                    return None
                if archive["format"].tobytes().decode() != CHECKPOINT_FORMAT:
                    return None
                meta = json.loads(archive["meta_json"].tobytes().decode())
                arrays = {name: archive[name] for name in archive.files
                          if name not in ("format", "meta_json")}
        except (OSError, ValueError, KeyError, json.JSONDecodeError,
                zipfile.BadZipFile):
            return None
        state = cls(epoch=int(meta["epoch"]), history=list(meta["history"]),
                    tag=meta.get("tag"))
        state._payload = arrays
        state._rng_state = meta.get("rng_state")
        return state

    # ------------------------------------------------------------------
    def restore(self, task, rng: np.random.Generator) -> None:
        """Apply a loaded snapshot to ``task`` and ``rng`` in place.

        Transactional: if any part of the snapshot fails to apply (a
        layout drift, a missing module's arrays), the task is rolled
        back to its pre-restore state before the error propagates —
        a failed resume must leave a clean "train from scratch" slate,
        never half-checkpoint weights.
        """
        if self._payload is None:
            raise RuntimeError("restore() needs a state produced by load()")
        arrays = self._payload
        rollback_modules = {name: module.state_dict()
                            for name, module in task.modules().items()}
        rollback_opts = {name: optimizer.state_dict()
                         for name, optimizer in task.optimizers().items()}
        rollback_extra = None
        if hasattr(task, "extra_state"):
            rollback_extra = {name: np.array(value, copy=True)
                              for name, value in task.extra_state().items()}
        try:
            for mod_name, module in task.modules().items():
                prefix = f"module/{mod_name}/"
                module.load_state_dict(
                    {name[len(prefix):]: value
                     for name, value in arrays.items()
                     if name.startswith(prefix)})
            for opt_name, optimizer in task.optimizers().items():
                prefix = f"optim/{opt_name}/"
                optimizer.load_state_dict(
                    {name[len(prefix):]: value
                     for name, value in arrays.items()
                     if name.startswith(prefix)})
            if hasattr(task, "load_extra_state"):
                task.load_extra_state(
                    {name[len("extra/"):]: value
                     for name, value in arrays.items()
                     if name.startswith("extra/")})
            if self._rng_state is not None:
                # PCG64 state is nested plain ints, which JSON
                # round-trips exactly — restoring it makes the resumed
                # draw sequence continue bit-for-bit where the
                # checkpoint left off.
                rng.bit_generator.state = self._rng_state
        except Exception:
            for name, module in task.modules().items():
                module.load_state_dict(rollback_modules[name])
            for name, optimizer in task.optimizers().items():
                optimizer.load_state_dict(rollback_opts[name])
            if rollback_extra is not None:
                task.load_extra_state(rollback_extra)
            raise


# ----------------------------------------------------------------------
# The Trainer
# ----------------------------------------------------------------------
class Trainer:
    """Drives a task's epochs with checkpoint/resume and fit telemetry.

    Parameters
    ----------
    task:
        The object owning modules, optimizers and the epoch body (see
        the module docstring for the contract).
    epochs:
        Total epoch count of a complete fit.  A resumed fit continues
        from the checkpoint's epoch up to this total.
    control:
        Optional :class:`TrainControl` for checkpointing/resume.
    """

    def __init__(self, task, *, epochs: int,
                 control: TrainControl | None = None):
        if epochs < 0:
            raise ValueError("epochs must be >= 0")
        self.task = task
        self.epochs = epochs
        self.control = control

    # ------------------------------------------------------------------
    def fit(self, rng: np.random.Generator) -> TrainState:
        """Run (or resume) the loop; returns the final state.

        When the control names an existing, tag-matching checkpoint,
        training resumes from it: parameters, optimizer moments, task
        extras and ``rng`` are restored in place, and only the remaining
        epochs run.
        """
        control = self.control
        state = self._resume_state(rng) or TrainState()
        path = (Path(control.checkpoint_path)
                if control is not None and control.checkpoint_path is not None
                else None)
        last_save = time.monotonic()
        task_name = type(self.task).__name__
        registry = get_registry()
        epochs_total = registry.counter(
            "train_epochs_total", "Completed training epochs")
        fits_total = registry.counter(
            "train_fits_total", "Completed Trainer fits")
        epoch_seconds = registry.histogram(
            "train_epoch_seconds", "Wall-clock seconds per training epoch")
        fit_seconds = registry.histogram(
            "train_fit_seconds", "Wall-clock seconds per complete fit")
        with trace.span("train.fit", task=task_name,
                        epochs=self.epochs) as fit_span:
            t_fit = time.perf_counter()
            while state.epoch < self.epochs:
                with trace.span("train.epoch", task=task_name,
                                epoch=state.epoch):
                    t_epoch = time.perf_counter()
                    record = self.task.epoch(state, rng)
                    epochs_total.inc(task=task_name)
                    epoch_seconds.observe(time.perf_counter() - t_epoch,
                                          task=task_name)
                    state.history.append(record)
                    state.epoch += 1
                if path is not None and (
                        control.min_save_interval <= 0.0
                        or time.monotonic() - last_save
                        >= control.min_save_interval):
                    with trace.span("train.checkpoint", task=task_name):
                        state.save(path, self.task, rng, tag=control.tag)
                    last_save = time.monotonic()
            fits_total.inc(task=task_name)
            fit_seconds.observe(time.perf_counter() - t_fit, task=task_name)
            fit_span.set(final_epoch=state.epoch)
        return state

    # ------------------------------------------------------------------
    def _resume_state(self, rng: np.random.Generator) -> TrainState | None:
        """Load + apply the control's checkpoint, if one is usable."""
        control = self.control
        if control is None or control.checkpoint_path is None:
            return None
        state = TrainState.load(control.checkpoint_path)
        if state is None:
            return None
        if state.tag != control.tag or state.epoch > self.epochs:
            return None  # stale: different resolved params or schedule
        try:
            state.restore(self.task, rng)
        except (KeyError, ValueError, RuntimeError, TypeError):
            return None  # shape/layout drift: train from scratch instead
        return state
