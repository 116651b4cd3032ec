"""NumPy neural-network substrate (autograd, layers, attention, LSTM)."""

from .backend import Backend
from .tensor import Tensor, no_grad, is_grad_enabled
from .layers import (Dropout, Embedding, LayerNorm, Linear, MLP, Module,
                     Parameter, Sequential)
from .attention import (LayerKVCache, MultiHeadSelfAttention,
                        TransformerBlock, causal_mask, sinusoidal_positions)
from .inference import WalkDecoder
from .rnn import LSTM, LSTMCell
from .optim import (Adagrad, Adam, CosineAnnealingLR, LRScheduler,
                    Optimizer, RMSprop, SGD, StepLR, clip_grad_norm)
from .serialization import load_state, save_state
from .vmap import StackedModules, stack_modules, unstack_state_dict
from . import functional

__all__ = [
    "Tensor", "no_grad", "is_grad_enabled",
    "Backend",
    "Module", "Parameter", "Linear", "Embedding", "LayerNorm", "Dropout",
    "Sequential", "MLP",
    "MultiHeadSelfAttention", "TransformerBlock", "causal_mask",
    "sinusoidal_positions", "LayerKVCache", "WalkDecoder",
    "LSTM", "LSTMCell",
    "Optimizer", "SGD", "Adam", "RMSprop", "Adagrad", "clip_grad_norm",
    "LRScheduler", "StepLR", "CosineAnnealingLR",
    "save_state", "load_state",
    "StackedModules", "stack_modules", "unstack_state_dict",
    "functional",
]
