"""Ready-made chain architectures for experiments and tests."""
from __future__ import annotations

import numpy as np

from .engine import init_weights
from .model import LayerSpec, ModelGraph


def blank_graph(layers: list[LayerSpec], input_shape: tuple[int, int, int],
                num_classes: int) -> ModelGraph:
    """Graph with zero weights of the declared shapes; init or load over it."""
    weights = {
        layer.id: (np.zeros(layer.filter_shape), np.zeros(layer.filter_shape[-1]))
        for layer in layers if layer.is_weighted()
    }
    return ModelGraph(layers=list(layers), weights=weights,
                      input_shape=input_shape, num_classes=num_classes)


def desk_chain(
    input_shape: tuple[int, int, int] = (16, 16, 3),
    num_classes: int = 3,
    conv_widths: tuple[int, int] = (6, 6),
    fc_width: int = 24,
    seed: int = 0,
) -> ModelGraph:
    """Small conv-conv-pool-fc-fc chain; middle layers prunable, ends fixed."""
    h, w, c = input_shape
    w1, w2 = conv_widths
    flat = (h // 2) * (w // 2) * w2
    layers = [
        LayerSpec("conv1", "conv2d", (3, 3, c, w1), padding="same", activation="relu"),
        LayerSpec("conv2", "conv2d", (3, 3, w1, w2), padding="same", activation="relu",
                  prunable=True),
        LayerSpec("pool1", "maxpool", (2, 2)),
        LayerSpec("flat", "flatten"),
        LayerSpec("fc1", "fully-connected", (flat, fc_width), activation="relu",
                  prunable=True),
        LayerSpec("fc2", "fully-connected", (fc_width, num_classes), activation="softmax"),
    ]
    return init_weights(blank_graph(layers, input_shape, num_classes), seed)


def table1_chain(seed: int = 0) -> ModelGraph:
    """The classic 32x32x3 four-conv/two-fc chain with same padding throughout;
    interior layers prunable."""
    layers = [
        LayerSpec("Conv1", "conv2d", (3, 3, 3, 32), padding="same", activation="relu"),
        LayerSpec("Conv2", "conv2d", (3, 3, 32, 32), padding="same", activation="relu",
                  prunable=True),
        LayerSpec("Pool1", "maxpool", (2, 2)),
        LayerSpec("Conv3", "conv2d", (3, 3, 32, 64), padding="same", activation="relu",
                  prunable=True),
        LayerSpec("Conv4", "conv2d", (3, 3, 64, 64), padding="same", activation="relu",
                  prunable=True),
        LayerSpec("Pool2", "maxpool", (2, 2)),
        LayerSpec("Flatten", "flatten"),
        LayerSpec("FC1", "fully-connected", (4096, 512), activation="relu", prunable=True),
        LayerSpec("FC2", "fully-connected", (512, 10), activation="softmax"),
    ]
    return init_weights(blank_graph(layers, (32, 32, 3), 10), seed)
