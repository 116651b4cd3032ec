"""NumPy neural-network substrate (autograd, layers, attention, LSTM)."""

from .backend import Backend
from .tensor import Tensor, no_grad, is_grad_enabled
from .layers import (Dropout, Embedding, LayerNorm, Linear, MLP, Module,
                     Parameter, Sequential)
from .attention import (LayerKVCache, MultiHeadSelfAttention,
                        TransformerBlock, causal_mask, sinusoidal_positions)
from .rnn import LSTM, LSTMCell
from .optim import Adam, Optimizer, SGD, clip_grad_norm
from .serialization import load_state, save_state
from . import functional

__all__ = [
    "Tensor", "no_grad", "is_grad_enabled",
    "Backend",
    "Module", "Parameter", "Linear", "Embedding", "LayerNorm", "Dropout",
    "Sequential", "MLP",
    "MultiHeadSelfAttention", "TransformerBlock", "causal_mask",
    "sinusoidal_positions", "LayerKVCache",
    "LSTM", "LSTMCell",
    "Optimizer", "SGD", "Adam", "clip_grad_norm",
    "save_state", "load_state",
    "functional",
]
