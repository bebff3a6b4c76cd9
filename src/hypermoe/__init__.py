"""HyperMoE: sparse MoE layers with hypernetwork-generated per-token experts."""

from .config import ModelConfig
from .tensor import Rng, Tensor

__all__ = ["ModelConfig", "Rng", "Tensor"]

__version__ = "0.1.0"
