"""A small numpy neural-network framework for the VGG / CIFAR-10 evaluation.

The paper evaluates its CiM array by executing a VGG network (Table I) on
CIFAR-10 with Monte-Carlo hardware noise, reporting 89.45 % accuracy.  This
package provides every piece needed to replicate that flow offline:

* :mod:`repro.nn.functional` — conv2d (im2col), pooling, activations;
* :mod:`repro.nn.layers`, :mod:`repro.nn.model` — layer objects with
  forward/backward passes and a ``Sequential`` container;
* :mod:`repro.nn.losses`, :mod:`repro.nn.optim`, :mod:`repro.nn.train` —
  cross-entropy, SGD/Adam, a training loop;
* :mod:`repro.nn.vgg` — the exact Table-I VGG builder plus a reduced
  trainable variant;
* :mod:`repro.nn.quantize` — 8-bit uniform quantization (the paper's
  wordlength);
* :mod:`repro.nn.dataset` — a synthetic CIFAR-10-like dataset (the sandbox
  has no network access; see DESIGN.md for the substitution argument).

Inference with every dot product lowered onto the behavioral CiM array
model, including temperature drift and process variation, is
:func:`repro.compiler.compile` + :class:`repro.compiler.Chip`.
"""

from repro.nn.layers import (
    Conv2D,
    Dense,
    Dropout,
    Flatten,
    MaxPool2D,
    ReLU,
)
from repro.nn.model import Sequential
from repro.nn.losses import softmax_cross_entropy
from repro.nn.optim import SGD, Adam
from repro.nn.train import TrainConfig, evaluate_accuracy, train
from repro.nn.vgg import build_table1_vgg, build_vgg_nano, count_macs
from repro.nn.quantize import QuantizedTensor, quantize_tensor
from repro.nn.dataset import SyntheticCifar10, load_synthetic_cifar10

__all__ = [
    "Conv2D", "Dense", "Dropout", "Flatten", "MaxPool2D", "ReLU",
    "Sequential", "softmax_cross_entropy", "SGD", "Adam",
    "TrainConfig", "train", "evaluate_accuracy",
    "build_table1_vgg", "build_vgg_nano", "count_macs",
    "QuantizedTensor", "quantize_tensor",
    "SyntheticCifar10", "load_synthetic_cifar10",
]
