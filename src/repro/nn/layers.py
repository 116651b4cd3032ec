"""Stateful neural-network modules (Linear, Embedding, LayerNorm, MLP...)."""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .tensor import Tensor, embedding, layer_norm, linear
from . import functional as F

__all__ = [
    "Module",
    "Parameter",
    "Linear",
    "Embedding",
    "LayerNorm",
    "Dropout",
    "Sequential",
    "MLP",
]


class Parameter(Tensor):
    """A tensor that is registered as trainable state of a module."""

    def __init__(self, data, name: str | None = None):
        super().__init__(data, requires_grad=True, name=name)


class Module:
    """Base class with parameter registration and train/eval switching.

    Mirrors the small subset of ``torch.nn.Module`` behaviour the paper's
    models need: recursive parameter discovery, ``zero_grad``, state dicts.
    """

    def __init__(self) -> None:
        self.training = True

    # -- parameter traversal -------------------------------------------
    def parameters(self) -> Iterator[Parameter]:
        seen: set[int] = set()
        for _, param in self.named_parameters():
            if id(param) not in seen:
                seen.add(id(param))
                yield param

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        for key, value in vars(self).items():
            full = f"{prefix}{key}" if not prefix else f"{prefix}.{key}"
            if isinstance(value, Parameter):
                yield full, value
            elif isinstance(value, Module):
                yield from value.named_parameters(full)
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        yield from item.named_parameters(f"{full}.{i}")
                    elif isinstance(item, Parameter):
                        yield f"{full}.{i}", item

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters())

    # -- state dict ------------------------------------------------------
    def state_dict(self) -> dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self.named_parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        params = dict(self.named_parameters())
        missing = set(params) - set(state)
        unexpected = set(state) - set(params)
        if missing or unexpected:
            raise KeyError(f"state mismatch: missing={sorted(missing)}, "
                           f"unexpected={sorted(unexpected)}")
        for name, value in state.items():
            if params[name].shape != value.shape:
                raise ValueError(f"shape mismatch for {name}: "
                                 f"{params[name].shape} vs {value.shape}")
            value = np.asarray(value)
            dtype = params[name].data.dtype  # the module's own precision
            if value.dtype == dtype and not value.flags.writeable:
                # A read-only array of the parameter's dtype (e.g. an
                # mmap-loaded serving weight) is aliased, not copied:
                # nothing can mutate it through the parameter, and
                # copying would defeat the point of memory-mapping —
                # many resident models sharing the page cache.  Training
                # such a model fails loudly on the first in-place update.
                params[name].data = value
            else:
                params[name].data = value.astype(dtype, copy=True)

    def astype(self, dtype) -> "Module":
        """Cast every parameter to ``dtype`` in place; returns ``self``.

        Gradients are dropped.  An optimiser built before the cast keeps
        moments of the old dtype, so cast first.
        """
        for param in self.parameters():
            param.data = param.data.astype(dtype)
            param.grad = None
        return self

    # -- mode switching ---------------------------------------------------
    def train(self) -> "Module":
        self._set_mode(True)
        return self

    def eval(self) -> "Module":
        self._set_mode(False)
        return self

    def _set_mode(self, training: bool) -> None:
        self.training = training
        for value in vars(self).values():
            if isinstance(value, Module):
                value._set_mode(training)
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        item._set_mode(training)

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def eval_forward(self, *args, **kwargs):
        """Forward pass under :class:`~repro.nn.no_grad` — pure scoring.

        Produces the same values as :meth:`forward` but records no
        computation graph: no parent tuples, no backward closures, no
        retained intermediates.  This is the path for repeated
        full-batch scoring inside training loops (e.g. the fair
        discriminator's per-cycle ``predict_log_proba``), where graph
        bookkeeping over all nodes is pure overhead.
        """
        from .tensor import no_grad

        with no_grad():
            return self.forward(*args, **kwargs)


class Linear(Module):
    """Affine map ``y = x W + b`` with Glorot-uniform initialisation."""

    def __init__(self, in_features: int, out_features: int,
                 rng: np.random.Generator, bias: bool = True):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        bound = np.sqrt(6.0 / (in_features + out_features))
        self.weight = Parameter(rng.uniform(-bound, bound, (in_features, out_features)))
        self.bias = Parameter(np.zeros(out_features)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return linear(x, self.weight, self.bias)


class Embedding(Module):
    """Lookup table mapping integer ids to dense vectors."""

    def __init__(self, num_embeddings: int, dim: int, rng: np.random.Generator,
                 scale: float = 0.02):
        super().__init__()
        self.num_embeddings = num_embeddings
        self.dim = dim
        self.weight = Parameter(rng.normal(0.0, scale, (num_embeddings, dim)))

    def forward(self, ids: np.ndarray) -> Tensor:
        ids = np.asarray(ids, dtype=np.int64)
        if ids.min(initial=0) < 0 or ids.max(initial=0) >= self.num_embeddings:
            raise IndexError("embedding index out of range")
        return embedding(self.weight, ids)


class LayerNorm(Module):
    """Layer normalisation over the last dimension."""

    def __init__(self, dim: int, eps: float = 1e-5):
        super().__init__()
        self.eps = eps
        self.gamma = Parameter(np.ones(dim))
        self.beta = Parameter(np.zeros(dim))

    def forward(self, x: Tensor) -> Tensor:
        return layer_norm(x, self.gamma, self.beta, self.eps)


class Dropout(Module):
    """Inverted dropout module with its own RNG stream."""

    def __init__(self, p: float, rng: np.random.Generator):
        super().__init__()
        self.p = p
        self.rng = rng

    def forward(self, x: Tensor) -> Tensor:
        return F.dropout(x, self.p, self.rng, training=self.training)


class Sequential(Module):
    """Chain of modules applied in order."""

    def __init__(self, *modules: Module):
        super().__init__()
        self.modules = list(modules)

    def forward(self, x):
        for module in self.modules:
            x = module(x)
        return x

    def __iter__(self):
        return iter(self.modules)

    def __len__(self) -> int:
        return len(self.modules)


class _Activation(Module):
    def __init__(self, kind: str):
        super().__init__()
        self.kind = kind

    def forward(self, x: Tensor) -> Tensor:
        return getattr(x, self.kind)()


class MLP(Module):
    """Multi-layer perceptron.

    FairGen's discriminator ``d_omega`` is a three-layer MLP (Section II-B,
    M2); this class is also reused by the GAE baseline's decoder head.
    """

    def __init__(self, dims: list[int], rng: np.random.Generator,
                 activation: str = "relu", dropout: float = 0.0):
        super().__init__()
        if len(dims) < 2:
            raise ValueError("MLP needs at least input and output dims")
        layers: list[Module] = []
        for i, (d_in, d_out) in enumerate(zip(dims[:-1], dims[1:])):
            layers.append(Linear(d_in, d_out, rng))
            if i < len(dims) - 2:
                layers.append(_Activation(activation))
                if dropout > 0:
                    layers.append(Dropout(dropout, rng))
        self.net = Sequential(*layers)

    def forward(self, x: Tensor) -> Tensor:
        return self.net(x)
