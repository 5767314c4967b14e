"""Shape-tracking builder for assembling :class:`LayerGraph` models.

Keeps the "current tensor" (name + per-sample shape) while appending layers,
computing conv/pool output shapes, and wiring residual / long-skip edges.
All model-zoo builders (`resnet`, `vgg`, `unet`, `transformer`) sit on top
of this.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..graph.layer_graph import LayerGraph, LayerKind, LayerSpec


def conv_out_hw(h: int, w: int, kernel: int, stride: int,
                padding: int) -> Tuple[int, int]:
    """Standard convolution/pooling output spatial size."""
    ho = (h + 2 * padding - kernel) // stride + 1
    wo = (w + 2 * padding - kernel) // stride + 1
    if ho <= 0 or wo <= 0:
        raise ValueError(
            f"non-positive output size {ho}x{wo} "
            f"(in {h}x{w}, k={kernel}, s={stride}, p={padding})")
    return ho, wo


@dataclass
class Cursor:
    """A named tensor with a per-sample shape."""

    name: str
    shape: Tuple[int, ...]


class GraphBuilder:
    """Appends layers to a :class:`LayerGraph`, tracking the live cursor."""

    def __init__(self, name: str):
        self.graph = LayerGraph(name)
        self.cursor: Optional[Cursor] = None
        self._counts: Dict[str, int] = {}

    # -- naming -------------------------------------------------------------

    def _unique(self, base: str) -> str:
        n = self._counts.get(base, 0)
        self._counts[base] = n + 1
        return base if n == 0 else f"{base}_{n}"

    # -- core append ----------------------------------------------------------

    def add(self, base_name: str, kind: LayerKind, out_shape: Tuple[int, ...],
            attrs: Optional[Dict[str, float]] = None,
            inputs: Optional[List[str]] = None) -> Cursor:
        """Append a layer reading from ``inputs`` (default: the cursor)."""
        if inputs is None:
            if self.cursor is None:
                raise ValueError("no cursor; call input() first")
            inputs = [self.cursor.name]
            in_shape = self.cursor.shape
        elif inputs:
            in_shape = self.graph.layer(inputs[0]).output_shape
        else:
            in_shape = out_shape  # source layer: input == output
        name = self._unique(base_name)
        spec = LayerSpec(name=name, kind=kind, input_shape=in_shape,
                         output_shape=out_shape, attrs=dict(attrs or {}))
        self.graph.add_layer(spec, inputs=inputs)
        self.cursor = Cursor(name, out_shape)
        return self.cursor

    # -- common layers --------------------------------------------------------

    def input(self, shape: Tuple[int, ...], name: str = "input") -> Cursor:
        return self.add(name, LayerKind.INPUT, shape, inputs=[])

    def conv(self, out_channels: int, kernel: int, stride: int = 1,
             padding: Optional[int] = None, name: str = "conv",
             groups: int = 1) -> Cursor:
        c, h, w = self.cursor.shape
        if padding is None:
            padding = kernel // 2
        ho, wo = conv_out_hw(h, w, kernel, stride, padding)
        return self.add(name, LayerKind.CONV2D, (out_channels, ho, wo), {
            "kernel": kernel, "stride": stride, "padding": padding,
            "in_channels": c, "out_channels": out_channels, "groups": groups,
        })

    def bn(self, name: str = "bn") -> Cursor:
        c = self.cursor.shape[0]
        return self.add(name, LayerKind.BATCHNORM, self.cursor.shape,
                        {"channels": c})

    def relu(self, name: str = "relu") -> Cursor:
        return self.add(name, LayerKind.RELU, self.cursor.shape)

    def gelu(self, name: str = "gelu") -> Cursor:
        return self.add(name, LayerKind.GELU, self.cursor.shape)

    def pool(self, kernel: int, stride: Optional[int] = None,
             kind: LayerKind = LayerKind.POOL_MAX, padding: int = 0,
             name: str = "pool") -> Cursor:
        c, h, w = self.cursor.shape
        stride = stride or kernel
        ho, wo = conv_out_hw(h, w, kernel, stride, padding)
        return self.add(name, kind, (c, ho, wo),
                        {"kernel": kernel, "stride": stride, "padding": padding})

    def global_avg_pool(self, name: str = "gap") -> Cursor:
        c, h, w = self.cursor.shape
        return self.add(name, LayerKind.POOL_AVG, (c, 1, 1),
                        {"kernel": h, "stride": h, "padding": 0})

    def flatten(self, name: str = "flatten") -> Cursor:
        elems = 1
        for d in self.cursor.shape:
            elems *= d
        return self.add(name, LayerKind.RESHAPE, (elems,))

    def linear(self, out_features: int, name: str = "fc") -> Cursor:
        in_features = self.cursor.shape[-1]
        out_shape = self.cursor.shape[:-1] + (out_features,)
        return self.add(name, LayerKind.LINEAR, out_shape,
                        {"in_features": in_features, "out_features": out_features})

    def softmax(self, name: str = "softmax") -> Cursor:
        return self.add(name, LayerKind.SOFTMAX, self.cursor.shape)

    def dropout(self, p: float = 0.1, name: str = "dropout") -> Cursor:
        return self.add(name, LayerKind.DROPOUT, self.cursor.shape, {"p": p})

    def layernorm(self, name: str = "ln") -> Cursor:
        d = self.cursor.shape[-1]
        return self.add(name, LayerKind.LAYERNORM, self.cursor.shape, {"dim": d})

    def add_residual(self, skip: Cursor, name: str = "add") -> Cursor:
        """Element-wise add of the cursor and ``skip`` (shapes must match)."""
        if skip.shape != self.cursor.shape:
            raise ValueError(
                f"residual shape mismatch {skip.shape} vs {self.cursor.shape}")
        return self.add(name, LayerKind.ADD, self.cursor.shape,
                        inputs=[self.cursor.name, skip.name])

    def concat(self, other: Cursor, name: str = "concat") -> Cursor:
        """Channel-concat of cursor and ``other`` (U-Net skip join)."""
        c1, h1, w1 = self.cursor.shape
        c2, h2, w2 = other.shape
        if (h1, w1) != (h2, w2):
            raise ValueError(f"concat spatial mismatch {self.cursor.shape} "
                             f"vs {other.shape}")
        return self.add(name, LayerKind.CONCAT, (c1 + c2, h1, w1),
                        inputs=[self.cursor.name, other.name])

    def upsample(self, out_channels: int, name: str = "upconv") -> Cursor:
        """2x transposed-conv upsampling."""
        c, h, w = self.cursor.shape
        return self.add(name, LayerKind.UPSAMPLE, (out_channels, h * 2, w * 2),
                        {"kernel": 2, "stride": 2, "in_channels": c,
                         "out_channels": out_channels})

    def embedding(self, vocab: int, dim: int, seq_len: int,
                  name: str = "embed") -> Cursor:
        return self.add(name, LayerKind.EMBEDDING, (seq_len, dim),
                        {"vocab": vocab, "dim": dim})

    def attention(self, heads: int, name: str = "attn") -> Cursor:
        t, d = self.cursor.shape
        return self.add(name, LayerKind.ATTENTION, (t, d),
                        {"seq_len": t, "dim": d, "heads": heads})

    def loss(self, name: str = "loss") -> Cursor:
        return self.add(name, LayerKind.LOSS, (1,))

    def finish(self) -> LayerGraph:
        """The validated, frozen graph."""
        return self.graph.freeze()
