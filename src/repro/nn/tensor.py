"""Reverse-mode automatic differentiation on NumPy arrays.

This module is the neural substrate of the FairGen reproduction.  The paper
trains its generator and discriminator with PyTorch; this environment has no
deep-learning framework installed, so we implement the required subset from
scratch: a :class:`Tensor` type that records a dynamic computation graph and
back-propagates gradients through it.

Design notes
------------
* A :class:`Tensor` wraps a ``numpy.ndarray`` plus an optional gradient
  buffer.  Tensors are dtype-generic over ``float32``/``float64``, as
  HIPS autograd is: a ``float32`` array stays ``float32``, anything else
  becomes ``float64``.  The walk LM (:mod:`repro.models.walk_lm`) is the
  one ``float32`` model; every other model, and every gradient check,
  runs in ``float64``.  A Python scalar operand is weakly typed, as in
  NumPy's NEP 50: ``x - 1.0`` keeps ``x``'s dtype.
* Each operation returns a new tensor that records its parents and a
  ``backward(out)`` function pushing ``out.grad`` into them.
  ``backward()`` runs a topological sort and calls ``node._backward(node)``
  in reverse order.  The function takes its output as an argument rather
  than closing over it, so the tape holds no reference cycles:
  reference counting frees each step's graph the moment its loss goes
  out of scope, without waiting for the cyclic garbage collector.
* Broadcasting follows NumPy semantics; :func:`_unbroadcast` reduces an
  upstream gradient back to the shape of the operand that was broadcast.
* Pass-through ops call numpy directly; the compound kernels
  (activations, the softmax family, layer norm, the affine map and their
  gradients) are the shared functions of :mod:`repro.nn.backend`, which
  the grad-free decode path calls too — one forward per op.
* The training hot path runs through compound ops with closed-form
  vector-Jacobian products, one tape node each, in the style of
  autograd's primitives with hand-written VJPs: :func:`linear`,
  :func:`layer_norm`, :func:`embedding` (a sparse-product scatter),
  :func:`attention` (scores, mask, softmax, dropout and context),
  :func:`pick` (the gather behind the NLL losses) and
  :func:`sequence_log_likelihood` (the walk-LM head: affine map,
  log-softmax and gather-NLL, computed in one buffer).
  Their forwards produce the same floats as the op-by-op graphs they
  replace; the backwards reorder some sums.
* Grad-enabled state is **per-thread** (``threading.local``): a
  ``no_grad()`` scoring pass on one thread must not disable graph
  construction for a concurrent fit on another.
"""

from __future__ import annotations

import math
import threading
from typing import Callable, Iterable, Sequence

import numpy as np

from . import backend as kernels

__all__ = ["Tensor", "no_grad", "is_grad_enabled", "linear", "layer_norm",
           "embedding", "attention", "pick", "sequence_log_likelihood"]


_GRAD_STATE = threading.local()


class no_grad:
    """Context manager that disables graph construction (inference mode).

    The flag lives in thread-local state: entering ``no_grad`` on one
    thread leaves autograd recording untouched on every other thread.
    """

    def __enter__(self) -> "no_grad":
        self._prev = is_grad_enabled()
        _GRAD_STATE.enabled = False
        return self

    def __exit__(self, *exc) -> None:
        _GRAD_STATE.enabled = self._prev


def is_grad_enabled() -> bool:
    """Return whether new operations will be recorded for autograd."""
    return getattr(_GRAD_STATE, "enabled", True)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, undoing NumPy broadcasting."""
    if grad.shape == shape:
        return grad
    # Remove leading broadcast dimensions.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were size-1 in the original shape.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _as_array(value) -> np.ndarray:
    """``value`` as a float array: ``float32`` data (an array, or the
    NumPy scalar a full reduction returns) keeps its dtype without a
    copy; everything else becomes ``float64``."""
    array = np.asarray(value)
    if array.dtype == np.float32:
        return array
    return array.astype(np.float64, copy=False)


class Tensor:
    """A NumPy-backed tensor with reverse-mode autograd.

    Parameters
    ----------
    data:
        Array-like payload; a ``float32`` array is kept, anything else is
        converted to ``float64``.
    requires_grad:
        Whether gradients should be accumulated into ``self.grad`` during
        :meth:`backward`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_prev", "name",
                 "__weakref__")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        self.data = _as_array(data)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._backward: Callable[[Tensor], None] | None = None
        self._prev: tuple[Tensor, ...] = ()
        self.name = name

    # ------------------------------------------------------------------
    # Basic protocol
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor({np.array2string(self.data, precision=4)}{grad_flag})"

    def item(self) -> float:
        return float(self.data)

    def numpy(self) -> np.ndarray:
        """Return the underlying array (no copy)."""
        return self.data

    def detach(self) -> "Tensor":
        """Return a tensor sharing data but cut from the graph."""
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------
    # Graph construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _lift(value, dtype=np.float64) -> "Tensor":
        """``value`` as a Tensor.  A Python scalar (``np.float64`` is one)
        takes ``dtype`` — the other operand's — so it never promotes a
        ``float32`` op to ``float64``."""
        if isinstance(value, Tensor):
            return value
        if isinstance(value, (int, float)):
            return Tensor(np.asarray(value, dtype=dtype))
        return Tensor(value)

    def _make(self, data: np.ndarray, parents: Sequence["Tensor"],
              backward: Callable[["Tensor"], None] | None) -> "Tensor":
        """Create an op output; record ``backward`` if autograd is active.

        ``backward(out)`` receives the output tensor at backward time,
        so storing it creates no ``out -> closure -> out`` cycle.

        Under ``no_grad()`` this is the inference fast path: the output
        tensor is constructed bare — no parent tuple, no backward
        function, no graph — so bulk sampling does not pay autograd
        bookkeeping.  (The heavy decode loop goes further and bypasses
        ``Tensor`` entirely via :meth:`repro.nn.backend.Backend.decode_step`.)
        """
        if not is_grad_enabled():
            return Tensor(data)
        requires = any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=requires)
        if requires:
            out._prev = tuple(parents)
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        if not self.requires_grad:
            return
        if self.grad is None:
            self.grad = grad.copy() if grad.base is not None else grad
        else:
            self.grad = self.grad + grad

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other) -> "Tensor":
        other = self._lift(other, self.data.dtype)

        def backward(out: Tensor) -> None:
            self._accumulate(_unbroadcast(out.grad, self.shape))
            other._accumulate(_unbroadcast(out.grad, other.shape))

        return self._make(np.add(self.data, other.data),
                          (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(out: Tensor) -> None:
            self._accumulate(-out.grad)

        return self._make(np.negative(self.data), (self,), backward)

    def __sub__(self, other) -> "Tensor":
        other = self._lift(other, self.data.dtype)

        def backward(out: Tensor) -> None:
            self._accumulate(_unbroadcast(out.grad, self.shape))
            other._accumulate(_unbroadcast(-out.grad, other.shape))

        return self._make(np.subtract(self.data, other.data),
                          (self, other), backward)

    def __rsub__(self, other) -> "Tensor":
        return self._lift(other, self.data.dtype) - self

    def __mul__(self, other) -> "Tensor":
        other = self._lift(other, self.data.dtype)

        def backward(out: Tensor) -> None:
            self._accumulate(_unbroadcast(out.grad * other.data, self.shape))
            other._accumulate(_unbroadcast(out.grad * self.data, other.shape))

        return self._make(np.multiply(self.data, other.data),
                          (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = self._lift(other, self.data.dtype)

        def backward(out: Tensor) -> None:
            self._accumulate(_unbroadcast(out.grad / other.data, self.shape))
            other._accumulate(
                _unbroadcast(-out.grad * self.data / (other.data ** 2), other.shape))

        return self._make(np.divide(self.data, other.data),
                          (self, other), backward)

    def __rtruediv__(self, other) -> "Tensor":
        return self._lift(other, self.data.dtype) / self

    def __pow__(self, exponent) -> "Tensor":
        if isinstance(exponent, Tensor):
            other = exponent
            data = np.power(self.data, other.data)

            def backward(out: Tensor) -> None:
                self._accumulate(_unbroadcast(
                    out.grad * other.data * np.power(self.data, other.data - 1.0),
                    self.shape))
                # d(a**b)/db = a**b * log(a); NaN for a <= 0, as in torch.
                other._accumulate(_unbroadcast(
                    out.grad * data * np.log(self.data), other.shape))

            return self._make(data, (self, other), backward)

        if isinstance(exponent, np.integer):
            exponent = int(exponent)
        elif isinstance(exponent, np.floating):
            exponent = float(exponent)
        if not isinstance(exponent, (int, float)):
            raise TypeError(
                "Tensor.__pow__ expects a Python/NumPy scalar or Tensor "
                f"exponent, got {type(exponent).__name__}")

        def backward(out: Tensor) -> None:
            self._accumulate(
                out.grad * exponent * np.power(self.data, exponent - 1))

        return self._make(np.power(self.data, exponent), (self,), backward)

    def __rpow__(self, base) -> "Tensor":
        return self._lift(base, self.data.dtype) ** self

    def __matmul__(self, other) -> "Tensor":
        other = self._lift(other)

        def backward(out: Tensor) -> None:
            g = out.grad
            a, b = self.data, other.data
            if a.ndim == 1 and b.ndim == 1:
                self._accumulate(g * b)
                other._accumulate(g * a)
                return
            if a.ndim == 1:  # (k,) @ (..., k, n) -> (..., n)
                ga = (g[..., None, :] * b).sum(axis=-1)
                self._accumulate(_unbroadcast(ga, a.shape))
                other._accumulate(_unbroadcast(a[:, None] * g[..., None, :], b.shape))
                return
            if b.ndim == 1:  # (..., m, k) @ (k,) -> (..., m)
                self._accumulate(_unbroadcast(g[..., :, None] * b, a.shape))
                other._accumulate(_unbroadcast((a * g[..., :, None]).sum(axis=tuple(range(a.ndim - 1))), b.shape))
                return
            ga = np.matmul(g, np.swapaxes(b, -1, -2))
            gb = np.matmul(np.swapaxes(a, -1, -2), g)
            self._accumulate(_unbroadcast(ga, a.shape))
            other._accumulate(_unbroadcast(gb, b.shape))

        return self._make(np.matmul(self.data, other.data),
                          (self, other), backward)

    # ------------------------------------------------------------------
    # Shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])

        def backward(out: Tensor) -> None:
            self._accumulate(out.grad.reshape(self.shape))

        return self._make(self.data.reshape(shape), (self,), backward)

    def transpose(self, *axes) -> "Tensor":
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        inverse = np.argsort(axes)

        def backward(out: Tensor) -> None:
            self._accumulate(out.grad.transpose(inverse))

        return self._make(self.data.transpose(axes), (self,), backward)

    def swapaxes(self, a: int, b: int) -> "Tensor":

        def backward(out: Tensor) -> None:
            self._accumulate(np.swapaxes(out.grad, a, b))

        return self._make(np.swapaxes(self.data, a, b), (self,), backward)

    def __getitem__(self, index) -> "Tensor":

        def backward(out: Tensor) -> None:
            grad = np.zeros_like(self.data)
            np.add.at(grad, index, out.grad)
            self._accumulate(grad)

        return self._make(self.data[index], (self,), backward)

    @staticmethod
    def concat(tensors: Sequence["Tensor"], axis: int = 0) -> "Tensor":
        tensors = [Tensor._lift(t) for t in tensors]
        data = np.concatenate([t.data for t in tensors], axis=axis)
        sizes = [t.shape[axis] for t in tensors]
        offsets = np.cumsum([0] + sizes)

        def backward(out: Tensor) -> None:
            for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
                sl = [slice(None)] * out.grad.ndim
                sl[axis] = slice(lo, hi)
                t._accumulate(out.grad[tuple(sl)])

        anchor = tensors[0]
        return anchor._make(data, tuple(tensors), backward)

    @staticmethod
    def stack(tensors: Sequence["Tensor"], axis: int = 0) -> "Tensor":
        tensors = [Tensor._lift(t) for t in tensors]
        data = np.stack([t.data for t in tensors], axis=axis)

        def backward(out: Tensor) -> None:
            for i, t in enumerate(tensors):
                t._accumulate(np.take(out.grad, i, axis=axis))

        anchor = tensors[0]
        return anchor._make(data, tuple(tensors), backward)

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":

        def backward(out: Tensor) -> None:
            grad = out.grad
            if axis is not None and not keepdims:
                grad = np.expand_dims(grad, axis)
            self._accumulate(np.broadcast_to(grad, self.shape).copy())

        return self._make(self.data.sum(axis=axis, keepdims=keepdims),
                          (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.size
        elif isinstance(axis, tuple):
            count = int(np.prod([self.shape[a] for a in axis]))
        else:
            count = self.shape[axis]

        def backward(out: Tensor) -> None:
            grad = out.grad
            if axis is not None and not keepdims:
                grad = np.expand_dims(grad, axis)
            self._accumulate(np.broadcast_to(grad, self.shape).copy() / count)

        return self._make(self.data.mean(axis=axis, keepdims=keepdims),
                          (self,), backward)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(out: Tensor) -> None:
            grad = out.grad
            value = data
            if axis is not None and not keepdims:
                grad = np.expand_dims(grad, axis)
                value = np.expand_dims(value, axis)
            mask = (self.data == value).astype(self.data.dtype)
            mask /= mask.sum(axis=axis, keepdims=True)
            self._accumulate(mask * grad)

        return self._make(data, (self,), backward)

    # ------------------------------------------------------------------
    # Elementwise nonlinearities
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        data = np.exp(self.data)

        def backward(out: Tensor) -> None:
            self._accumulate(out.grad * data)

        return self._make(data, (self,), backward)

    def log(self) -> "Tensor":
        def backward(out: Tensor) -> None:
            self._accumulate(out.grad / self.data)

        return self._make(np.log(self.data), (self,), backward)

    def sqrt(self) -> "Tensor":
        data = np.sqrt(self.data)

        def backward(out: Tensor) -> None:
            self._accumulate(out.grad * 0.5 / data)

        return self._make(data, (self,), backward)

    def abs(self) -> "Tensor":

        def backward(out: Tensor) -> None:
            self._accumulate(out.grad * np.sign(self.data))

        return self._make(np.abs(self.data), (self,), backward)

    def relu(self) -> "Tensor":
        mask = self.data > 0

        def backward(out: Tensor) -> None:
            self._accumulate(kernels.relu_grad(out.grad, mask))

        return self._make(kernels.relu(self.data, mask), (self,), backward)

    def tanh(self) -> "Tensor":
        data = np.tanh(self.data)

        def backward(out: Tensor) -> None:
            self._accumulate(kernels.tanh_grad(out.grad, data))

        return self._make(data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        data = kernels.sigmoid(self.data)

        def backward(out: Tensor) -> None:
            self._accumulate(kernels.sigmoid_grad(out.grad, data))

        return self._make(data, (self,), backward)

    def gelu(self) -> "Tensor":
        """Gaussian error linear unit (tanh approximation)."""
        x = self.data
        t = kernels.gelu_tanh(x)

        def backward(out: Tensor) -> None:
            self._accumulate(kernels.gelu_grad(out.grad, x, t))

        return self._make(kernels.gelu(x, t), (self,), backward)

    def clip(self, lo: float, hi: float) -> "Tensor":
        mask = (self.data >= lo) & (self.data <= hi)

        def backward(out: Tensor) -> None:
            self._accumulate(out.grad * mask)

        return self._make(np.clip(self.data, lo, hi), (self,), backward)

    # ------------------------------------------------------------------
    # Softmax family (implemented as primitives for stability)
    # ------------------------------------------------------------------
    def softmax(self, axis: int = -1) -> "Tensor":
        data = kernels.softmax(self.data, axis=axis)

        def backward(out: Tensor) -> None:
            g = out.grad
            dot = (g * data).sum(axis=axis, keepdims=True)
            self._accumulate(data * (g - dot))

        return self._make(data, (self,), backward)

    def log_softmax(self, axis: int = -1) -> "Tensor":
        data = kernels.log_softmax(self.data, axis=axis)

        def backward(out: Tensor) -> None:
            g = out.grad
            self._accumulate(g - np.exp(data) * g.sum(axis=axis, keepdims=True))

        return self._make(data, (self,), backward)

    # ------------------------------------------------------------------
    # Backward pass
    # ------------------------------------------------------------------
    def backward(self, grad: np.ndarray | None = None) -> None:
        """Back-propagate from this tensor through the recorded graph."""
        if not self.requires_grad:
            raise RuntimeError("called backward() on a tensor that does not require grad")
        if grad is None:
            if self.size != 1:
                raise RuntimeError("grad must be provided for non-scalar outputs")
            grad = np.ones_like(self.data)
        self.grad = _as_array(grad)

        order: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._prev:
                if id(parent) not in visited:
                    stack.append((parent, False))

        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node)
            # Drop the function so intermediate buffers can be freed.
            if node is not self:
                node._backward = None


# ----------------------------------------------------------------------
# Compound ops: one tape node each, closed-form VJPs
# ----------------------------------------------------------------------
def _parents(*tensors: Tensor | None) -> tuple[Tensor, ...]:
    return tuple(t for t in tensors if t is not None)


def _affine_grads(g: np.ndarray, x: Tensor, weight: Tensor,
                  bias: Tensor | None) -> None:
    """Accumulate the VJP of ``x @ weight + bias`` for upstream ``g``.

    ``weight`` is 2-D: each gradient is one GEMM over the flattened
    leading axes of ``x``.
    """
    a, w = x.data, weight.data
    g2 = g.reshape(-1, g.shape[-1])
    if weight.requires_grad:
        weight._accumulate(a.reshape(-1, a.shape[-1]).T @ g2)
    if bias is not None and bias.requires_grad:
        bias._accumulate(g2.sum(axis=0).reshape(bias.shape))
    if x.requires_grad:
        x._accumulate((g2 @ w.T).reshape(a.shape))


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """``x @ weight + bias`` as one node (the :class:`~repro.nn.Linear`
    forward)."""
    data = kernels.linear(x.data, weight.data,
                          None if bias is None else bias.data)

    def backward(out: Tensor) -> None:
        _affine_grads(out.grad, x, weight, bias)

    return x._make(data, _parents(x, weight, bias), backward)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float) -> Tensor:
    """Layer norm over the last axis as one node (seven in op-by-op form)."""
    data, normed, std = kernels.layer_norm(x.data, gamma.data, beta.data,
                                           eps, with_stats=True)

    def backward(out: Tensor) -> None:
        g = out.grad
        if gamma.requires_grad:
            gamma._accumulate(_unbroadcast(g * normed, gamma.shape))
        if beta.requires_grad:
            beta._accumulate(_unbroadcast(g, beta.shape))
        if x.requires_grad:
            gn = g * gamma.data
            dx = gn - gn.mean(axis=-1, keepdims=True)
            dx -= normed * (gn * normed).mean(axis=-1, keepdims=True)
            dx /= std
            x._accumulate(dx)

    return x._make(data, (x, gamma, beta), backward)


def embedding(weight: Tensor, ids: np.ndarray) -> Tensor:
    """Rows ``weight[ids]``; the backward scatters with
    :func:`~repro.nn.backend.scatter_rows`, summing in float64, so a
    float64 weight's gradient is bit-identical to the ``np.add.at`` of
    the generic ``__getitem__`` path."""
    flat = ids.ravel()

    def backward(out: Tensor) -> None:
        # The sum stays float64 for the float32 walk LM too: summing in
        # float32 moved FairGen's FLICKR R+ outside its 3-seed spread.
        # The gradient takes the weight's dtype.
        grad = out.grad.reshape(flat.size, -1).astype(np.float64, copy=False)
        weight._accumulate(kernels.scatter_rows(flat, grad, weight.shape[0])
                           .astype(weight.data.dtype, copy=False))

    return weight._make(weight.data[ids], (weight,), backward)


def attention(q: Tensor, k: Tensor, v: Tensor,
              mask: np.ndarray | None = None,
              keep: np.ndarray | None = None) -> Tensor:
    """Scaled dot-product attention core as one node.

    ``q``: ``(..., Tq, d)``, ``k``/``v``: ``(..., Tk, d)``.  Computes
    ``softmax(q k^T / sqrt(d) + mask) * keep @ v``; ``keep`` is an
    inverted-dropout multiplier over the attention weights (see
    :func:`repro.nn.functional.dropout_mask`) or ``None``.
    """
    scale = 1.0 / math.sqrt(q.shape[-1])  # a Python float: no upcast
    scores = (q.data @ np.swapaxes(k.data, -1, -2)) * scale
    if mask is not None:
        scores += mask
    attn = kernels.softmax(scores)
    weights = attn if keep is None else attn * keep
    data = weights @ v.data

    def backward(out: Tensor) -> None:
        g = out.grad
        if v.requires_grad:
            v._accumulate(_unbroadcast(np.swapaxes(weights, -1, -2) @ g,
                                       v.shape))
        if not (q.requires_grad or k.requires_grad):
            return
        # d/d(q k^T), built in place: through @ v, dropout, softmax, scale
        gs = g @ np.swapaxes(v.data, -1, -2)
        if keep is not None:
            gs *= keep
        gs -= (gs * attn).sum(axis=-1, keepdims=True)
        gs *= attn
        gs *= scale
        if q.requires_grad:
            q._accumulate(_unbroadcast(gs @ k.data, q.shape))
        if k.requires_grad:
            k._accumulate(_unbroadcast(np.swapaxes(gs, -1, -2) @ q.data,
                                       k.shape))

    return q._make(data, (q, k, v), backward)


def pick(x: Tensor, index: np.ndarray) -> Tensor:
    """``out[i] = x[i, index[i]]`` along the last axis (the NLL gather).

    Equal, value and gradient, to ``(x * one_hot(index)).sum(-1)``
    without the ``(..., C)`` mask.
    """
    idx = np.asarray(index, dtype=np.int64)[..., None]
    data = np.take_along_axis(x.data, idx, axis=-1)[..., 0]

    def backward(out: Tensor) -> None:
        grad = np.zeros_like(x.data)
        np.put_along_axis(grad, idx, out.grad[..., None], axis=-1)
        x._accumulate(grad)

    return x._make(data, (x,), backward)


def sequence_log_likelihood(x: Tensor, weight: Tensor, bias: Tensor | None,
                            targets: np.ndarray,
                            valid: np.ndarray | None = None) -> Tensor:
    """Per-row ``sum_t log_softmax(x @ weight + bias)[b, t, targets[b, t]]``.

    The walk-LM head — affine map, log-softmax over the vocabulary and
    gather-NLL — as one node.  ``x`` is ``(B, T, d)``, ``targets``
    ``(B, T)``; ``valid`` (``(B, T)``, optional) zeroes padded
    positions.  The forward computes the log-probabilities in place in
    the logits buffer and the backward turns that same buffer into the
    logit gradient, so one ``(B, T, V)`` array lives per step.  Values
    equal ``(log_softmax(x @ W + b) * mask).sum(-1).sum(-1)`` with a
    one-hot ``mask``.
    """
    logp = kernels.linear(x.data, weight.data,
                          None if bias is None else bias.data)
    kernels.log_softmax(logp, out=logp)
    idx = np.asarray(targets, dtype=np.int64)[..., None]
    picked = np.take_along_axis(logp, idx, axis=-1)[..., 0]
    if valid is not None:
        picked = picked * valid
    buffer = [logp]

    def backward(out: Tensor) -> None:
        if not buffer:
            raise RuntimeError("sequence_log_likelihood: backward ran twice "
                               "on one graph (its buffer is reused in place)")
        grad = buffer.pop()
        coef = np.broadcast_to(out.grad[:, None], idx.shape[:-1])
        if valid is not None:
            coef = coef * valid
        # d/dlogits of coef * log_softmax[target]: coef * (onehot - softmax)
        np.exp(grad, out=grad)
        grad *= -coef[..., None]
        np.put_along_axis(grad, idx,
                          np.take_along_axis(grad, idx, axis=-1)
                          + coef[..., None], axis=-1)
        _affine_grads(grad, x, weight, bias)

    return x._make(picked.sum(axis=-1), _parents(x, weight, bias), backward)


def _tensor_iter(values: Iterable) -> list[Tensor]:
    return [Tensor._lift(v) for v in values]
