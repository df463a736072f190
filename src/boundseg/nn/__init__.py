"""Minimal differentiable tensor engine for the segmentation networks.

Plain (n, c, h, w) numpy arrays are the unit of computation.  `ops` holds
pure forward functions plus their vector-Jacobian products, `layers` wraps
them into stateful layers with `Param` buffers, `gradcheck` verifies every
backward pass against central finite differences, and `checkpoint`
serializes parameters in the BSEG format.
"""

from .checkpoint import load_checkpoint, read_checkpoint, save_checkpoint
from .gradcheck import GradCheckReport, grad_check, numeric_gradient, relative_error
from .layers import (
    Conv2d,
    MaxPool2d,
    Param,
    ReLU,
    Sequential,
    TransposedConv2d,
    he_uniform,
    sgd_step,
)
from .ops import (
    ConvSpec,
    DeconvSpec,
    conv2d,
    conv2d_vjp,
    l2_loss,
    l2_loss_grad,
    maxpool2d,
    maxpool2d_vjp,
    relu,
    relu_vjp,
    softmax_ce_grad,
    softmax_ce_loss,
    transposed_conv2d,
    transposed_conv2d_vjp,
)

__all__ = [
    "ConvSpec",
    "DeconvSpec",
    "Conv2d",
    "TransposedConv2d",
    "ReLU",
    "MaxPool2d",
    "Sequential",
    "Param",
    "GradCheckReport",
    "conv2d",
    "conv2d_vjp",
    "transposed_conv2d",
    "transposed_conv2d_vjp",
    "relu",
    "relu_vjp",
    "maxpool2d",
    "maxpool2d_vjp",
    "l2_loss",
    "l2_loss_grad",
    "softmax_ce_loss",
    "softmax_ce_grad",
    "sgd_step",
    "he_uniform",
    "grad_check",
    "numeric_gradient",
    "relative_error",
    "save_checkpoint",
    "load_checkpoint",
    "read_checkpoint",
]
