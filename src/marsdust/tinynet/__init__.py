"""Desk-scale encoder-decoder restoration network with its own autodiff."""

from .autodiff import Tensor, loss_l1
from .model import (
    NetConfig,
    build_params,
    forward,
    graph_forward,
    infer_config,
    init_weights,
    param_shapes,
)
from .train import AdamW, TrainConfig, TrainReport, report_path, train
from .weights import load_weights, save_weights
