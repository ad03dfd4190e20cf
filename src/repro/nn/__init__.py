"""Neural-network training substrate: numpy autograd, RNN cells, optimizers.

This package is the from-scratch replacement for the PyTorch training stack
the paper's authors used, so every model trains on numpy alone.
"""

from repro.nn.autograd import (
    Tensor,
    as_tensor,
    block_circulant_matvec,
    concat,
    gradcheck,
    no_grad,
)
from repro.nn.circulant_layer import CirculantLinear
from repro.nn.data import SequenceBatch, iterate_batches, pad_batch
from repro.nn.functional import log_softmax, one_hot, relu, sigmoid, softmax, tanh
from repro.nn.gru import GRUCell
from repro.nn.linear import DiagonalLinear, Linear
from repro.nn.loss import cross_entropy, frame_accuracy, sequence_cross_entropy
from repro.nn.lstm import LSTMCell, make_weight_layer
from repro.nn.module import Module, Parameter
from repro.nn.optim import SGD, Adam, Optimizer, clip_grad_norm
from repro.nn.rnn import StackedRNNClassifier, StructuredTarget, convert_to_circulant
from repro.nn.serialization import load_model, save_model

__all__ = [
    "Tensor",
    "as_tensor",
    "block_circulant_matvec",
    "concat",
    "gradcheck",
    "no_grad",
    "CirculantLinear",
    "SequenceBatch",
    "iterate_batches",
    "pad_batch",
    "log_softmax",
    "one_hot",
    "relu",
    "sigmoid",
    "softmax",
    "tanh",
    "GRUCell",
    "DiagonalLinear",
    "Linear",
    "cross_entropy",
    "frame_accuracy",
    "sequence_cross_entropy",
    "LSTMCell",
    "make_weight_layer",
    "Module",
    "Parameter",
    "SGD",
    "Adam",
    "Optimizer",
    "clip_grad_norm",
    "StackedRNNClassifier",
    "StructuredTarget",
    "convert_to_circulant",
    "load_model",
    "save_model",
]
