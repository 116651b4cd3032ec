"""Shared training subsystem: one loop for every trainable model.

``repro.train`` replaces the five hand-rolled fit loops (FairGen's
Algorithm 1 cycle loop, NetGAN's WGAN iterations, GraphRNN's sequence
epochs, GAE's full-batch steps and TagGen's walk-corpus epochs) with a
single :class:`Trainer` that owns batching helpers, optimizer stepping,
gradient clipping and the uniform loss-history contract.  Each task's
epoch is the whole loop body; ``Trainer.fit`` commits its record, times
it into the metrics registry and, through :class:`TrainState`
checkpoints, gives every fit byte-identical interrupt/resume semantics
that the experiment Runner and a sweep's retries exploit
(``<key>.ckpt.npz`` in the artifact cache, written at most every
``Runner.checkpoint_interval`` seconds).
"""

from .trainer import (CHECKPOINT_FORMAT, TrainControl, Trainer, TrainState,
                      minibatches, train_step)

__all__ = ["Trainer", "TrainState", "TrainControl", "minibatches",
           "train_step", "CHECKPOINT_FORMAT"]
