"""Loss functions and stateless neural-network operations."""

from __future__ import annotations

import numpy as np

from .tensor import Tensor, is_grad_enabled, pick

__all__ = [
    "cross_entropy",
    "nll_loss",
    "binary_cross_entropy_with_logits",
    "mse_loss",
    "dropout",
    "dropout_mask",
    "one_hot",
]


def one_hot(indices: np.ndarray, num_classes: int) -> np.ndarray:
    """Return a dense one-hot ``float64`` encoding of integer labels."""
    indices = np.asarray(indices, dtype=np.int64)
    out = np.zeros(indices.shape + (num_classes,), dtype=np.float64)
    np.put_along_axis(out, indices[..., None], 1.0, axis=-1)
    return out


def nll_loss(log_probs: Tensor, targets: np.ndarray,
             weights: np.ndarray | None = None,
             reduction: str = "mean") -> Tensor:
    """Negative log-likelihood over the last axis of ``log_probs``.

    Parameters
    ----------
    log_probs:
        Tensor of shape ``(..., C)`` containing log-probabilities.
    targets:
        Integer array of shape ``(...,)`` with class indices.
    weights:
        Optional per-example weights of the same shape as ``targets`` —
        used by FairGen's cost-sensitive prediction loss (Eq. 9).
    reduction:
        ``"mean"``, ``"sum"`` or ``"none"``.

    The target entries are gathered (:func:`~repro.nn.tensor.pick`), not
    masked with a ``(..., C)`` one-hot array; values and gradients are
    the same.
    """
    loss = -pick(log_probs, targets)
    if weights is not None:
        loss = loss * Tensor(np.asarray(weights, dtype=np.float64))
    if reduction == "mean":
        return loss.mean()
    if reduction == "sum":
        return loss.sum()
    if reduction == "none":
        return loss
    raise ValueError(f"unknown reduction {reduction!r}")


def cross_entropy(logits: Tensor, targets: np.ndarray,
                  weights: np.ndarray | None = None,
                  reduction: str = "mean") -> Tensor:
    """Softmax cross-entropy from raw logits (numerically stable)."""
    return nll_loss(logits.log_softmax(axis=-1), targets, weights, reduction)


def binary_cross_entropy_with_logits(logits: Tensor, targets: np.ndarray,
                                     reduction: str = "mean") -> Tensor:
    """Stable sigmoid cross-entropy: ``max(x,0) - x*t + log(1+exp(-|x|))``."""
    t = Tensor(np.asarray(targets, dtype=np.float64))
    relu_x = logits.relu()
    loss = relu_x - logits * t + ((-logits.abs()).exp() + 1.0).log()
    if reduction == "mean":
        return loss.mean()
    if reduction == "sum":
        return loss.sum()
    return loss


def mse_loss(pred: Tensor, target: np.ndarray | Tensor,
             reduction: str = "mean") -> Tensor:
    """Mean squared error."""
    target = target if isinstance(target, Tensor) else Tensor(target)
    diff = pred - target
    sq = diff * diff
    if reduction == "mean":
        return sq.mean()
    if reduction == "sum":
        return sq.sum()
    return sq


def dropout_mask(shape: tuple[int, ...], p: float, rng: np.random.Generator,
                 training: bool = True,
                 dtype=np.float64) -> np.ndarray | None:
    """The inverted-dropout multiplier :func:`dropout` applies, in the
    activations' ``dtype``, or ``None`` where dropout is the identity
    (eval mode, ``p == 0`` or under ``no_grad``).  Draws one
    ``rng.random(shape)``."""
    if not training or p <= 0.0 or not is_grad_enabled():
        return None
    if not 0.0 <= p < 1.0:
        raise ValueError("dropout probability must be in [0, 1)")
    keep = (rng.random(shape) >= p).astype(dtype)
    keep /= 1.0 - p
    return keep


def dropout(x: Tensor, p: float, rng: np.random.Generator,
            training: bool = True) -> Tensor:
    """Inverted dropout; identity outside training or when ``p == 0``."""
    keep = dropout_mask(x.shape, p, rng, training, dtype=x.data.dtype)
    return x if keep is None else x * Tensor(keep)
