"""A tiny pre-norm transformer whose FFN slot is dense, MoE, MoE-Share, or HyperMoE.

Parameters are initialized from per-name seeded streams, so models of
different layer kinds built from the same seed share identical values for
their common parameters. One hypernetwork, the plain tuple ``Model.hyper``,
serves all layers; ``Model.expert_table`` gives the expert embeddings each
layer runs with. A forward returns the outputs and each MoE layer's routing
decision; ``training.combined_loss`` builds the load-balance loss from the
decisions, so an evaluation builds none.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .config import ModelConfig
from .conv import ConvPipeline, compress_expert_weights, default_pipeline_spec
from .errors import ConfigurationError
from .hyper import hypermoe_forward
from .moe import (
    GateConfig,
    GateDecision,
    expert_forward,
    moe_forward,
    moe_share_forward,
    noisy_topk_gate,
)
from .tasks import build_task
from .tensor import Rng, Tensor

MAX_PARAMS = 2**27  # far above the largest model in use (2.4M parameters); 1 GiB of float64 values
# Values in a forward's largest array: at most samples * seq_len tokens times the widest row a token
# adds to one array (its routed slots, top_k * max(d_ff, h), one slot for dense; the gate's n_experts;
# the classes; hypermoe's generated D, h * b, at most one routing-mask group per token). A forward runs
# batch_size samples in training and min(eval_size, EVAL_CHUNK) in evaluation, whichever is more.
# 2**26 (512 MiB) is 20x wide's 3.1M; above it a huge batch would fail in numpy mid-step.
MAX_ACTIVATION = 2**26
EVAL_CHUNK = 512  # samples per evaluation forward


def sinusoidal_positions(seq_len: int, h: int) -> np.ndarray:
    pos = np.arange(seq_len)[:, None]
    dim = np.arange(h)[None, :]
    angle = pos / np.power(10000.0, (2 * (dim // 2)) / h)
    enc = np.where(dim % 2 == 0, np.sin(angle), np.cos(angle))
    return enc


@dataclass
class ForwardResult:
    outputs: Tensor                    # (B, C) logits or (B, 1) regression output
    decisions: list[GateDecision]      # per MoE layer


class Model:
    """Parameter registry plus the forward pass; ``init=False`` leaves every parameter unset."""

    def __init__(self, cfg: ModelConfig, init: bool = True) -> None:
        self.cfg = cfg
        self._init = init
        self.task = build_task(cfg)
        self.params: dict[str, Tensor] = {}
        self._n_params = 0
        self._rng = Rng(cfg.seed)
        self._build()
        slots = 1 if cfg.layer_kind == "dense" else cfg.top_k
        generated = cfg.h * cfg.b if cfg.layer_kind == "hypermoe" else 0
        width = max(slots * max(cfg.d_ff, cfg.h), cfg.n_experts, getattr(self.task, "num_classes", 1), generated)
        chunk = min(cfg.eval_size, EVAL_CHUNK)
        tokens = max(cfg.batch_size, chunk) * self.task.seq_len
        if tokens * width > MAX_ACTIVATION:
            name, value, array = (("batch_size", cfg.batch_size, "a step's") if cfg.batch_size >= chunk
                                  else ("eval_size", cfg.eval_size, "an eval forward's"))
            raise ConfigurationError(f"{name} {value}: {array} array of {tokens} tokens x {width} values "
                                     f"exceeds {MAX_ACTIVATION}; shrink {name}, top_k * d_ff, n_experts or h * b")

    # -- construction -------------------------------------------------------

    def _param(self, name: str, shape: tuple[int, ...], std: float, row_streams: list[str] | None = None) -> Tensor:
        """New parameter drawn from a stream keyed by (seed, name), or with row r drawn from
        the stream keyed by (seed, row_streams[r])."""
        self._n_params += math.prod(shape)
        if self._n_params > MAX_PARAMS:
            raise ConfigurationError(f"over {MAX_PARAMS} parameters at {name}; shrink h, d_ff, n_experts or n_layers")
        if not self._init:  # the caller fills every parameter, as load_checkpoint does
            data = np.empty(shape)
        elif row_streams is not None:
            data = np.stack([self._rng.spawn(key).gaussian(*shape[1:], std=std) for key in row_streams])
        else:
            data = self._rng.spawn(name).gaussian(*shape, std=std) if std > 0 else np.zeros(shape)
        p = Tensor(data, requires_grad=True)
        self.params[name] = p
        return p

    def _build(self) -> None:
        cfg = self.cfg
        h = cfg.h
        self.embed = self._param("embed", (self.task.vocab_size, h), 0.02)
        if self.task.kind == "regression":
            self.scalar_w = self._param("scalar_in.w", (1, h), 1.0)
            self.scalar_b = self._param("scalar_in.b", (h,), 0.0)
        before = self._n_params
        self.blocks = [self._build_block(0)]
        if (cfg.n_layers - 1) * (self._n_params - before) > MAX_PARAMS - self._n_params:  # every block alike
            raise ConfigurationError(f"over {MAX_PARAMS} parameters at l1; shrink h, d_ff, n_experts or n_layers")
        self.blocks += [self._build_block(i) for i in range(1, cfg.n_layers)]
        self.ln_f = (self._param("ln_f.g", (h,), 0.0), self._param("ln_f.b", (h,), 0.0))
        self.params["ln_f.g"].data[:] = 1.0
        out_dim = self.task.num_classes if self.task.kind == "classification" else 1
        self.head_w = self._param("head.w", (h, out_dim), 1.0 / np.sqrt(h))
        self.head_b = self._param("head.b", (out_dim,), 0.0)
        if cfg.layer_kind == "hypermoe":
            self._build_hyper()
        if cfg.layer_kind == "hypermoe" and cfg.embedding_source == "compressed":
            spec = default_pipeline_spec(cfg.d_ff, h, cfg.t_prime)
            self.conv_pipeline = ConvPipeline(spec, (2, cfg.d_ff, h), self._rng.spawn("conv"))
        else:
            self.conv_pipeline = None
        self.positions = Tensor(sinusoidal_positions(self.task.seq_len, h))

    def _build_block(self, i: int) -> dict:
        cfg = self.cfg
        h, d_ff = cfg.h, cfg.d_ff
        inv_h, inv_ff = 1.0 / np.sqrt(h), 1.0 / np.sqrt(d_ff)
        blk = {
            "ln1": (self._param(f"l{i}.ln1.g", (h,), 0.0), self._param(f"l{i}.ln1.b", (h,), 0.0)),
            "wq": self._param(f"l{i}.attn.wq", (h, h), inv_h),
            "wk": self._param(f"l{i}.attn.wk", (h, h), inv_h),
            "wv": self._param(f"l{i}.attn.wv", (h, h), inv_h),
            "wo": self._param(f"l{i}.attn.wo", (h, h), inv_h),
            "ln2": (self._param(f"l{i}.ln2.g", (h,), 0.0), self._param(f"l{i}.ln2.b", (h,), 0.0)),
        }
        self.params[f"l{i}.ln1.g"].data[:] = 1.0
        self.params[f"l{i}.ln2.g"].data[:] = 1.0
        if cfg.layer_kind == "dense":
            blk["ffn"] = (
                self._param(f"l{i}.ffn.w1", (h, d_ff), inv_h),
                self._param(f"l{i}.ffn.w2", (d_ff, h), inv_ff),
            )
        else:
            blk["gate"] = GateConfig(
                cfg.top_k,
                cfg.noise_enabled,
                self._param(f"l{i}.gate.wg", (h, cfg.n_experts), inv_h),
                self._param(f"l{i}.gate.wnoise", (h, cfg.n_experts), inv_h),
            )
            # row e draws from stream l{i}.expert{e}.w*, so init values do not depend on the stacking
            n = cfg.n_experts
            blk["bank"] = (
                self._param(f"l{i}.experts.w1", (n, h, d_ff), inv_h, [f"l{i}.expert{e}.w1" for e in range(n)]),
                self._param(f"l{i}.experts.w2", (n, d_ff, h), inv_ff, [f"l{i}.expert{e}.w2" for e in range(n)]),
            )
            if cfg.layer_kind == "moe_share":
                blk["shared"] = (
                    self._param(f"l{i}.shared.w1", (h, d_ff), inv_h),
                    self._param(f"l{i}.shared.w2", (d_ff, h), inv_ff),
                )
        return blk

    def _build_hyper(self) -> None:
        """The learned expert table ``hyper.experts``, then the tuple every layer shares:
        (layer table, selection MLP (w1, b1, w2, b2), projector (w, b), generator (w_down, w_up))."""
        cfg = self.cfg
        gen_std = 0.02 / cfg.t_k**0.25   # variance 0.02^2 / sqrt(t_k): near-zero experts at step 0
        self._param("hyper.experts", (cfg.n_experts, cfg.t_prime), 0.02)
        self.hyper = (
            self._param("hyper.layers", (cfg.n_layers, cfg.t_prime), 0.02),
            (
                self._param("hyper.mlp.w1", (cfg.t_prime, cfg.t), 1.0 / np.sqrt(cfg.t_prime)),
                self._param("hyper.mlp.b1", (cfg.t,), 0.0),
                self._param("hyper.mlp.w2", (cfg.t, cfg.t), 1.0 / np.sqrt(cfg.t)),
                self._param("hyper.mlp.b2", (cfg.t,), 0.0),
            ),
            (
                self._param("hyper.proj.w", (cfg.t + cfg.t_prime, cfg.t_k), 1.0 / np.sqrt(cfg.t + cfg.t_prime)),
                self._param("hyper.proj.b", (cfg.t_k,), 0.0),
            ),
            (
                self._param("hyper.w_down", (cfg.h * cfg.b, cfg.t_k), gen_std),
                self._param("hyper.w_up", (cfg.b * cfg.h, cfg.t_k), gen_std),
            ),
        )

    # -- forward ------------------------------------------------------------

    def _embed_inputs(self, inputs) -> Tensor:
        """Token (and scalar) inputs to a (B, S, h) tensor with positions added."""
        if self.task.kind == "classification":
            x = T.index(self.embed, np.asarray(inputs))
        else:
            ids, xs = inputs
            prefix = T.index(self.embed, np.asarray(ids)[:, None])
            scalars = Tensor(np.asarray(xs, dtype=np.float64)[:, None])
            lifted = scalars @ self.scalar_w + self.scalar_b
            x = T.concat([prefix, T.reshape(lifted, (len(xs), 1, self.cfg.h))], axis=1)
        return x + self.positions

    def _attention(self, blk: dict, x: Tensor) -> Tensor:
        q, k, v = x @ blk["wq"], x @ blk["wk"], x @ blk["wv"]
        scores = (q @ T.transpose_last2(k)) * (1.0 / np.sqrt(self.cfg.h))
        return (T.softmax(scores) @ v) @ blk["wo"]

    def _ffn_slot(
        self,
        layer_index: int,
        x_tokens: Tensor,
        training: bool,
        noise_rng: Rng | None,
        decisions: list[GateDecision],
    ) -> Tensor:
        cfg = self.cfg
        blk = self.blocks[layer_index]
        if cfg.layer_kind == "dense":
            return expert_forward(x_tokens, blk["ffn"])
        decision = noisy_topk_gate(x_tokens, blk["gate"], rng=noise_rng, training=training)
        decisions.append(decision)
        if cfg.layer_kind == "moe":
            return moe_forward(x_tokens, blk["bank"], decision)
        if cfg.layer_kind == "moe_share":
            return moe_share_forward(x_tokens, blk["bank"], blk["shared"], decision)
        return hypermoe_forward(
            x_tokens, blk["bank"], decision, self.expert_table(layer_index), self.hyper, layer_index, cfg.condition_on
        )

    def expert_table(self, layer_index: int) -> Tensor:
        """The (N, t') expert embeddings layer ``layer_index`` runs with: the learned table, or
        with compressed embeddings the layer's expert weights compressed, gradient-free."""
        if self.conv_pipeline is None:
            return self.params["hyper.experts"]
        return compress_expert_weights(self.blocks[layer_index]["bank"], self.conv_pipeline)

    def forward(self, inputs, training: bool = False, noise_rng: Rng | None = None) -> ForwardResult:
        cfg = self.cfg
        x = self._embed_inputs(inputs)
        batch, seq = x.shape[0], x.shape[1]
        decisions: list[GateDecision] = []
        for i, blk in enumerate(self.blocks):
            x = x + self._attention(blk, T.layer_norm(x, *blk["ln1"]))
            xn = T.layer_norm(x, *blk["ln2"])
            tokens = T.reshape(xn, (batch * seq, cfg.h))
            slot = self._ffn_slot(i, tokens, training, noise_rng, decisions)
            x = x + T.reshape(slot, (batch, seq, cfg.h))
        x = T.layer_norm(x, *self.ln_f)
        last = T.index(x, (slice(None), seq - 1))
        return ForwardResult(last @ self.head_w + self.head_b, decisions)

    # -- bookkeeping ---------------------------------------------------------

    def zero_grads(self) -> None:
        for p in self.params.values():
            p.grad = None
            p.grad_rows = None

    def total_params(self) -> int:
        return sum(p.size for p in self.params.values())


def build_model(cfg: ModelConfig) -> Model:
    return Model(cfg)
