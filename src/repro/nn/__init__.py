"""A small numpy neural-network framework.

Provides everything BOMP-NAS needs to *actually train* its candidate
networks: convolutions (standard and depthwise), batch norm, ReLU6,
inverted-bottleneck blocks, losses, optimizers, a trainer, serialization
and gradient checking.  Data layout is NHWC; all math is float32.
"""

from .blocks import ConvBNReLU, InvertedBottleneck
from .conv import Conv2D, DepthwiseConv2D
from .gradcheck import check_module_gradients, numerical_gradient
from .layers import BatchNorm2D, Dense, GlobalAvgPool2D, ReLU6
from .losses import (SoftmaxCrossEntropy, accuracy, evaluate_classifier,
                     softmax)
from .module import FLOAT, Module, Parameter
from .network import Sequential
from .optim import (SGD, Adam, ConstantLR, CosineDecayLR, LRSchedule,
                    Optimizer, clip_gradients)
from .serialization import load_state_dict, state_dict
from .trainer import Trainer, TrainHistory

__all__ = [
    "FLOAT", "Module", "Parameter",
    "Conv2D", "DepthwiseConv2D", "Dense", "BatchNorm2D",
    "ReLU6", "GlobalAvgPool2D",
    "ConvBNReLU", "InvertedBottleneck", "Sequential",
    "SoftmaxCrossEntropy", "softmax", "accuracy",
    "evaluate_classifier",
    "Optimizer", "SGD", "Adam",
    "LRSchedule", "ConstantLR", "CosineDecayLR",
    "clip_gradients",
    "Trainer", "TrainHistory",
    "state_dict", "load_state_dict",
    "check_module_gradients", "numerical_gradient",
]
