"""Depthwise-separable convolution pipeline that compresses expert weights.

Each expert's (W1, W2) pair is stacked into a 2-channel image and pushed
through a chain of depthwise convolutions, pointwise convolutions, and
average pooling down to a 1x1 spatial extent, yielding one embedding row per
expert. Convolutions are unpadded; output extents use floor division.

The pipeline is frozen and takes no gradient, so it runs in plain numpy,
outside the autodiff graph: all experts of a layer go through the chain as
one batch. The model recomputes the embeddings on every forward pass from
the current expert weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigurationError, DimensionError
from .tensor import Rng, Tensor


@dataclass
class Stage:
    kind: str                      # depthwise | pointwise | avg_pool
    kernel: tuple[int, int] = (1, 1)
    stride: tuple[int, int] = (1, 1)
    in_channels: int = 0           # pointwise only
    out_channels: int = 0          # pointwise only

    @classmethod
    def depthwise(cls, kh: int, kw: int, sh: int, sw: int) -> "Stage":
        return cls("depthwise", (kh, kw), (sh, sw))

    @classmethod
    def pointwise(cls, in_ch: int, out_ch: int) -> "Stage":
        return cls("pointwise", in_channels=in_ch, out_channels=out_ch)

    @classmethod
    def avg_pool(cls, ph: int, pw: int, sh: int | None = None, sw: int | None = None) -> "Stage":
        return cls("avg_pool", (ph, pw), (sh or ph, sw or pw))


@dataclass
class ConvPipelineSpec:
    stages: list[Stage]
    out_dim: int


def stage_output_shape(stage: Stage, shape: tuple[int, int, int]) -> tuple[int, int, int]:
    c, h, w = shape
    if stage.kind == "pointwise":
        if stage.in_channels != c:
            raise DimensionError(f"pointwise stage expects {stage.in_channels} channels, input has {c}")
        return (stage.out_channels, h, w)
    kh, kw = stage.kernel
    sh, sw = stage.stride
    if kh > h or kw > w:
        raise DimensionError(f"kernel {stage.kernel} larger than input extent {(h, w)}")
    return (c, (h - kh) // sh + 1, (w - kw) // sw + 1)


def shape_chain(spec: ConvPipelineSpec, in_shape: tuple[int, int, int]) -> list[tuple[int, int, int]]:
    """Input shape of every stage plus the final output shape."""
    shapes = [in_shape]
    for stage in spec.stages:
        shapes.append(stage_output_shape(stage, shapes[-1]))
    final = shapes[-1]
    if final[1:] != (1, 1):
        raise ConfigurationError(f"pipeline must end at a 1x1 spatial extent, got {final}")
    if final[0] != spec.out_dim:
        raise ConfigurationError(f"pipeline emits {final[0]} channels, spec declares out_dim={spec.out_dim}")
    return shapes


def default_pipeline_spec(d_ff: int, h: int, out_dim: int) -> ConvPipelineSpec:
    """Desk-scale pipeline for a 2 x d_ff x h stacked pair ending at out_dim x 1 x 1."""
    kh, kw = min(3, d_ff), min(3, h)
    stages = [Stage.depthwise(kh, kw, kh, kw), Stage.pointwise(2, out_dim)]
    rh, rw = (d_ff - kh) // kh + 1, (h - kw) // kw + 1
    stages.append(Stage.avg_pool(rh, rw))
    return ConvPipelineSpec(stages, out_dim)


class ConvPipeline:
    """A spec plus its frozen, randomly initialized stage weights."""

    def __init__(self, spec: ConvPipelineSpec, in_shape: tuple[int, int, int], rng: Rng) -> None:
        self.spec = spec
        self.shapes = shape_chain(spec, in_shape)
        self.weights: list[np.ndarray | None] = []
        for stage, shape in zip(spec.stages, self.shapes):
            c = shape[0]
            if stage.kind == "depthwise":
                kh, kw = stage.kernel
                self.weights.append(rng.gaussian(c, kh, kw, std=1.0 / (kh * kw)))
            elif stage.kind == "pointwise":
                self.weights.append(rng.gaussian(stage.in_channels, stage.out_channels, std=1.0 / np.sqrt(c)))
            else:
                self.weights.append(None)

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Run the chain on images of shape (..., c, h, w); leading axes are a batch."""
        if x.shape[-3:] != self.shapes[0]:
            raise DimensionError(f"pipeline built for input {self.shapes[0]}, got {x.shape}")
        for stage, w in zip(self.spec.stages, self.weights):
            x = conv_stage_forward(x, stage, w)
        return x


def conv_stage_forward(x: np.ndarray, stage: Stage, weight: np.ndarray | None = None) -> np.ndarray:
    """One stage on images of shape (..., c, h, w), leading axes a batch, as ``ConvPipeline`` checked and drew it."""
    if stage.kind not in ("depthwise", "pointwise", "avg_pool"):
        raise ConfigurationError(f"unknown stage kind {stage.kind!r}")
    if stage.kind == "pointwise":
        return np.einsum("...chw,co->...ohw", x, weight)
    sh, sw = stage.stride
    windows = sliding_window_view(x, stage.kernel, axis=(-2, -1))[..., ::sh, ::sw, :, :]
    if stage.kind == "avg_pool":
        return windows.mean(axis=(-2, -1))
    return np.einsum("...chwuv,cuv->...chw", windows, weight)


def stack_expert_weights(w1: np.ndarray, w2: np.ndarray) -> np.ndarray:
    """Stack pairs as 2-channel images [W1^T; W2], each d_ff x h; leading axes are a batch."""
    return np.stack([np.swapaxes(w1, -1, -2), w2], axis=-3)


def compress_expert_weights(bank: tuple[Tensor, Tensor], pipeline: ConvPipeline) -> Tensor:
    """One embedding row per expert: the bank's (W1, W2) stacks as one batch of images, convolved and flattened."""
    w1, w2 = bank
    images = stack_expert_weights(w1.data, w2.data)
    return Tensor(pipeline.forward(images).reshape(len(w1.data), pipeline.spec.out_dim))
