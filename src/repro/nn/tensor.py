"""Reverse-mode automatic differentiation on NumPy arrays.

This module is the neural substrate of the FairGen reproduction.  The paper
trains its generator and discriminator with PyTorch; this environment has no
deep-learning framework installed, so we implement the required subset from
scratch: a :class:`Tensor` type that records a dynamic computation graph and
back-propagates gradients through it.

Design notes
------------
* A :class:`Tensor` wraps a ``numpy.ndarray`` (always ``float64`` for
  numerical robustness of gradient checks) plus an optional gradient buffer.
* Each operation returns a new tensor whose ``_backward`` closure knows how
  to push the output gradient into the inputs.  ``backward()`` runs a
  topological sort and calls the closures in reverse order.
* Broadcasting follows NumPy semantics; :func:`_unbroadcast` reduces an
  upstream gradient back to the shape of the operand that was broadcast.
* Pass-through ops call numpy directly; the compound kernels
  (activations, the softmax family and their gradients) are the shared
  functions of :mod:`repro.nn.backend`, which the grad-free decode path
  calls too — one implementation of each computation.
* Grad-enabled state is **per-thread** (``threading.local``): a
  ``no_grad()`` scoring pass on one thread must not disable graph
  construction for a concurrent fit on another.
"""

from __future__ import annotations

import threading
from typing import Callable, Iterable, Sequence

import numpy as np

from . import backend as kernels

__all__ = ["Tensor", "no_grad", "is_grad_enabled"]


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
    if isinstance(value, np.ndarray):
        return value.astype(np.float64, copy=False)
    return np.asarray(value, dtype=np.float64)


class Tensor:
    """A NumPy-backed tensor with reverse-mode autograd.

    Parameters
    ----------
    data:
        Array-like payload; converted to ``float64``.
    requires_grad:
        Whether gradients should be accumulated into ``self.grad`` during
        :meth:`backward`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_prev", "name")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        self.data = _as_array(data)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._backward: Callable[[], None] | None = None
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
    def _lift(value) -> "Tensor":
        return value if isinstance(value, Tensor) else Tensor(value)

    def _make(self, data: np.ndarray, parents: Sequence["Tensor"],
              backward: Callable[["Tensor"], None] | None) -> "Tensor":
        """Create an op output; record the closure if autograd is active.

        Under ``no_grad()`` this is the inference fast path: the output
        tensor is constructed bare — no parent tuple, no backward
        closure, no graph — so bulk sampling does not pay autograd
        bookkeeping.  (The heavy decode loop goes further and bypasses
        ``Tensor`` entirely via :mod:`repro.nn.inference`.)
        """
        if not is_grad_enabled():
            return Tensor(data)
        requires = any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=requires)
        if requires:
            out._prev = tuple(parents)
            out._backward = lambda: backward(out)
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
        other = self._lift(other)

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
        other = self._lift(other)

        def backward(out: Tensor) -> None:
            self._accumulate(_unbroadcast(out.grad, self.shape))
            other._accumulate(_unbroadcast(-out.grad, other.shape))

        return self._make(np.subtract(self.data, other.data),
                          (self, other), backward)

    def __rsub__(self, other) -> "Tensor":
        return self._lift(other) - self

    def __mul__(self, other) -> "Tensor":
        other = self._lift(other)

        def backward(out: Tensor) -> None:
            self._accumulate(_unbroadcast(out.grad * other.data, self.shape))
            other._accumulate(_unbroadcast(out.grad * self.data, other.shape))

        return self._make(np.multiply(self.data, other.data),
                          (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = self._lift(other)

        def backward(out: Tensor) -> None:
            self._accumulate(_unbroadcast(out.grad / other.data, self.shape))
            other._accumulate(
                _unbroadcast(-out.grad * self.data / (other.data ** 2), other.shape))

        return self._make(np.divide(self.data, other.data),
                          (self, other), backward)

    def __rtruediv__(self, other) -> "Tensor":
        return self._lift(other) / self

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
        return self._lift(base) ** self

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
            mask = (self.data == value).astype(np.float64)
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

        def backward(out: Tensor) -> None:
            self._accumulate(kernels.gelu_grad(out.grad, x))

        return self._make(kernels.gelu(x), (self,), backward)

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
        soft = np.exp(data)

        def backward(out: Tensor) -> None:
            g = out.grad
            self._accumulate(g - soft * g.sum(axis=axis, keepdims=True))

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
                node._backward()
            # Free the closure so intermediate buffers can be collected.
            if node is not self:
                node._backward = None


def _tensor_iter(values: Iterable) -> list[Tensor]:
    return [Tensor._lift(v) for v in values]
