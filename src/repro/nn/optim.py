"""Optimisers: SGD (Algorithm 1, step 10 uses SGD) and Adam.

Both operate on the :class:`~repro.nn.layers.Parameter` list of a module
and support global-norm gradient clipping, which stabilises the WGAN
training of the NetGAN baseline.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .layers import Parameter

__all__ = ["Optimizer", "SGD", "Adam", "clip_grad_norm"]


def clip_grad_norm(params: Iterable[Parameter], max_norm: float) -> float:
    """Scale gradients in-place so their global L2 norm is at most ``max_norm``.

    Returns the pre-clipping norm.
    """
    params = [p for p in params if p.grad is not None]
    total = float(np.sqrt(sum(float((p.grad ** 2).sum()) for p in params)))
    if total > max_norm and total > 0.0:
        scale = max_norm / total
        for p in params:
            p.grad *= scale
    return total


class Optimizer:
    """Base optimiser storing the parameter list."""

    def __init__(self, params: Iterable[Parameter]):
        self.params = list(params)
        if not self.params:
            raise ValueError("optimizer received no parameters")

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def step(self) -> None:
        raise NotImplementedError

    # -- checkpoint support ---------------------------------------------
    #
    # ``state_dict``/``load_state_dict`` round-trip the optimiser's
    # internal buffers (momenta, squared-grad accumulators, step count)
    # so a checkpointed fit resumes with byte-identical updates.  Each
    # per-parameter buffer list is stored under ``<slot><index>``;
    # scalar state (Adam's ``t``) as a 0-d array.

    def _buffer_slots(self) -> dict[str, list[np.ndarray]]:
        """Per-parameter buffer lists to checkpoint, keyed by slot name."""
        return {}

    def state_dict(self) -> dict[str, np.ndarray]:
        """The optimiser's mutable state as named array copies."""
        return {f"{slot}{i}": buf.copy()
                for slot, buffers in self._buffer_slots().items()
                for i, buf in enumerate(buffers)}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Restore :meth:`state_dict` output into the live buffers."""
        for slot, buffers in self._buffer_slots().items():
            for i, buf in enumerate(buffers):
                value = np.asarray(state[f"{slot}{i}"], dtype=buf.dtype)
                if value.shape != buf.shape:
                    raise ValueError(
                        f"shape mismatch for optimiser buffer {slot}{i}: "
                        f"{buf.shape} vs {value.shape}")
                buf[...] = value


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum and weight decay."""

    def __init__(self, params: Iterable[Parameter], lr: float,
                 momentum: float = 0.0, weight_decay: float = 0.0):
        super().__init__(params)
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity = [np.zeros_like(p.data) for p in self.params]

    def _buffer_slots(self) -> dict[str, list[np.ndarray]]:
        return {"velocity": self._velocity}

    def step(self) -> None:
        for p, v in zip(self.params, self._velocity):
            if p.grad is None:
                continue
            grad = p.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * p.data
            if self.momentum:
                v *= self.momentum
                v += grad
                grad = v
            p.data -= self.lr * grad


class Adam(Optimizer):
    """Adam (Kingma & Ba, 2015) with bias correction."""

    def __init__(self, params: Iterable[Parameter], lr: float = 1e-3,
                 betas: tuple[float, float] = (0.9, 0.999), eps: float = 1e-8,
                 weight_decay: float = 0.0):
        super().__init__(params)
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]
        self._t = 0

    def _buffer_slots(self) -> dict[str, list[np.ndarray]]:
        return {"m": self._m, "v": self._v}

    def state_dict(self) -> dict[str, np.ndarray]:
        state = super().state_dict()
        state["t"] = np.array(self._t, dtype=np.int64)
        return state

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        super().load_state_dict(state)
        self._t = int(state["t"])

    def step(self) -> None:
        self._t += 1
        b1, b2 = self.beta1, self.beta2
        bias1 = 1.0 - b1 ** self._t
        bias2 = 1.0 - b2 ** self._t
        for p, m, v in zip(self.params, self._m, self._v):
            if p.grad is None:
                continue
            grad = p.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * p.data
            m *= b1
            m += (1 - b1) * grad
            v *= b2
            v += (1 - b2) * grad ** 2
            p.data -= self.lr * (m / bias1) / (np.sqrt(v / bias2) + self.eps)
