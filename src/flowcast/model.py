"""Forecast model: context-fused tokens, joint linear attention, and the
encoder / transform / decoder pipeline, plus training and evaluation.

Every (time step, sensor) pair becomes one token. Each block fuses five
feature streams per token (projected input, hop-diffusion spatial
context, GRU temporal context, node embedding, time-slot one-hot), runs
multi-head linear attention over all tokens at once, and keeps residual
paths throughout. A transform stage rolls a GRU forward over the horizon
and cross-attends against encoder features, so all horizon steps are
produced in a single pass with no output fed back as input.

Every forward function takes and returns (..., T, N, F) features, with
optional leading batch axes as numpy's ``@`` has, and so does
:func:`multi_head_attention`, which treats each (step, node) pair as one
token. Static context (node embeddings (N, F), time one-hots
(..., T, 1, F)) joins by broadcasting; :func:`forward_batch` runs a whole
(B, T, N, C) batch as one graph, in which no node only reshapes or
concatenates: the horizon rollout is one node, as each GRU layer is.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass, field, fields
from functools import partial
from pathlib import Path

import numpy as np

from . import tensor as T
from .attention import AttentionParams, DegenerateAttentionError, multi_head_attention
from .checkpoint import CheckpointError, load_arrays, save_arrays
from .context import EMBED_DIM, GruLayerParams, gru_cell, gru_sequence, gru_stack, temporal_encoding
from .data import (
    MASK_EPS,
    SPLIT_FRACTIONS,
    Dataset,
    SampleWindow,
    _check_mask_eps,
    _key_value_lines,
    assign_windows,
    make_windows,
    metrics,
    split_boundaries,
    zscore_apply,
    zscore_fit,
    zscore_invert,
)
from .graph import RoadGraph, hop_shells, hop_transitions, multi_hop_conv
from .optim import AdamState, GradientError, adam_step, lr_at_epoch, zero_grads
from .tensor import ShapeError, Tensor

__all__ = [
    "ModelConfig",
    "ModelParams",
    "GraphInputs",
    "Forecaster",
    "ConfigError",
    "ContractError",
    "TrainingDiverged",
    "init_params",
    "input_projection",
    "output_projection",
    "context_block",
    "block_forward",
    "transform_layer",
    "forward_batch",
    "WINDOW_BUDGET",
    "windows_per_pass",
    "train",
    "forecast",
    "horizon_metrics",
    "evaluate",
    "prepare_dataset",
    "load_config",
    "save_config",
    "save_model",
    "load_model",
]


class ConfigError(ValueError):
    """Invalid or inconsistent model configuration."""


class ContractError(ValueError):
    """A forward-pass precondition was violated (span or shape mismatch)."""


class TrainingDiverged(RuntimeError):
    """A training step failed numerically; carries the last good checkpoint path."""

    def __init__(self, message: str, checkpoint: Path | None = None):
        super().__init__(message)
        self.checkpoint = checkpoint


# ---------------------------------------------------------------------------
# Configuration

@dataclass
class ModelConfig:
    width: int = 128            # token feature width
    heads: int = 8              # attention heads
    head_dim: int = 16          # per-head width
    hops: int = 8               # exact-hop shells in the diffusion conv
    gru_layers: int = 2
    history: int = 12           # input steps
    horizon: int = 12           # predicted steps
    channels: int = 1
    slots_per_day: int = 288
    start_weekday: int = 0      # Monday = 0
    lr: float = 1e-3
    lr_decay_epochs: list[int] = field(default_factory=list)
    lr_decay_factor: float = 0.1
    batch_size: int = 16
    epochs: int = 1
    seed: int = 0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name in _FLOAT_FIELDS:
                if not (_is_finite_real(value) and value > 0):
                    raise ConfigError(f"{f.name} must be finite and positive, got {value!r}")
            elif f.name in _LIST_FIELDS:
                if not (isinstance(value, list) and all(_is_int(v) and v >= 0 for v in value)):
                    raise ConfigError(f"{f.name} must be a list of integers >= 0, got {value!r}")
            elif not _is_int(value):
                raise ConfigError(f"{f.name} must be an integer, got {value!r}")
            elif f.name == "start_weekday" and not 0 <= value <= 6:
                raise ConfigError(f"start_weekday must be in 0..6, got {value}")
            elif value < (low := 0 if f.name in ("start_weekday", "seed") else 1):
                raise ConfigError(f"{f.name} must be >= {low}, got {value}")
        if self.width != self.heads * self.head_dim:
            raise ConfigError(
                f"width {self.width} != heads {self.heads} x head_dim {self.head_dim}"
            )
        if self.width % self.hops:
            raise ConfigError(f"width {self.width} not divisible by hops {self.hops}")

    @property
    def time_enc_width(self) -> int:
        return self.slots_per_day + 7


_LIST_FIELDS = {"lr_decay_epochs"}
_FLOAT_FIELDS = {"lr", "lr_decay_factor"}


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_finite_real(value) -> bool:
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int too large for a float
        return False


def _as_int(item) -> int:
    """An integer from its text, or from a float64 that holds one exactly
    (finite, integral and within 2**53, past which floats skip integers)."""
    if not isinstance(item, str) and not (float(item).is_integer() and abs(item) <= 2**53):
        raise ValueError(f"{float(item)!r} is not an integer")
    return int(item)


def _field_value(key: str, raw):
    """A config field's value from its text in a config file (a list field
    is comma-separated) or from its float64 array in a checkpoint."""
    items = [v for v in raw.split(",") if v.strip()] if isinstance(raw, str) else raw
    if key in _LIST_FIELDS:
        return [_as_int(v) for v in items]
    (item,) = items  # a scalar field has exactly one item
    return float(item) if key in _FLOAT_FIELDS else _as_int(item)


def save_config(path, cfg: ModelConfig) -> None:
    lines = []
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if f.name in _LIST_FIELDS:
            value = ",".join(str(v) for v in value)
        lines.append(f"{f.name} = {value}")
    Path(path).write_text("\n".join(lines) + "\n")


def load_config(path, overrides: dict | None = None) -> ModelConfig:
    """Parse a flat `key = value` config file; ``overrides`` win over it."""
    known = {f.name: f for f in fields(ModelConfig)}
    values: dict = {}
    for lineno, key, value in _key_value_lines(path, ConfigError):
        if key not in known:
            raise ConfigError(f"{path}:{lineno}: unknown config key '{key}'")
        try:
            values[key] = _field_value(key, value)
        except ValueError:
            raise ConfigError(f"{path}:{lineno}: bad value {value!r} for '{key}'") from None
    if overrides:
        for key, value in overrides.items():
            if key not in known:
                raise ConfigError(f"unknown config key '{key}'")
            try:
                values[key] = _field_value(key, value) if isinstance(value, str) else value
            except ValueError:
                raise ConfigError(f"--set {key}: bad value {value!r}") from None
    return ModelConfig(**values)


# ---------------------------------------------------------------------------
# Parameters

@dataclass
class BlockParams:
    """Shared structure of the encoder and decoder halves."""

    gru: list[GruLayerParams]
    hop_w: list[Tensor]       # per hop shell: (F, F / hops)
    hop_out: Tensor           # (F, F)
    fuse_w: Tensor            # (5F, F)
    fuse_b: Tensor            # (F,)
    attn: AttentionParams

    def named(self, prefix: str) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for i, layer in enumerate(self.gru):
            out.update(layer.named(f"{prefix}.gru{i}"))
        for i, w in enumerate(self.hop_w):
            out[f"{prefix}.hop{i}.w"] = w
        out[f"{prefix}.hop_out"] = self.hop_out
        out[f"{prefix}.fuse.w"] = self.fuse_w
        out[f"{prefix}.fuse.b"] = self.fuse_b
        out.update(self.attn.named(f"{prefix}.attn"))
        return out


@dataclass
class TransformParams:
    """Horizon rollout GRU plus the query/key fusion maps and cross attention."""

    gru: list[GruLayerParams]
    q_fuse_w: Tensor          # (3F, F)
    q_fuse_b: Tensor
    kv_fuse_w: Tensor         # (3F, F)
    kv_fuse_b: Tensor
    attn: AttentionParams

    def named(self, prefix: str) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for i, layer in enumerate(self.gru):
            out.update(layer.named(f"{prefix}.gru{i}"))
        out[f"{prefix}.q_fuse.w"] = self.q_fuse_w
        out[f"{prefix}.q_fuse.b"] = self.q_fuse_b
        out[f"{prefix}.kv_fuse.w"] = self.kv_fuse_w
        out[f"{prefix}.kv_fuse.b"] = self.kv_fuse_b
        out.update(self.attn.named(f"{prefix}.attn"))
        return out


@dataclass
class ModelParams:
    in_w: Tensor              # (C, F)
    in_b: Tensor
    out_w: Tensor             # (F, C)
    out_b: Tensor
    emb_w: Tensor             # (EMBED_DIM, F)
    emb_b: Tensor
    time_w: Tensor             # (slots_per_day + 7, F)
    time_b: Tensor
    encoder: BlockParams
    decoder: BlockParams
    transform: TransformParams

    def named(self) -> dict[str, Tensor]:
        out = {
            "input.w": self.in_w, "input.b": self.in_b,
            "output.w": self.out_w, "output.b": self.out_b,
            "node_emb.w": self.emb_w, "node_emb.b": self.emb_b,
            "time_enc.w": self.time_w, "time_enc.b": self.time_b,
        }
        out.update(self.encoder.named("encoder"))
        out.update(self.decoder.named("decoder"))
        out.update(self.transform.named("transform"))
        return out


def _gru_layer(make, f: int) -> GruLayerParams:
    return GruLayerParams(
        w_xr=make((f, f)), w_hr=make((f, f)),
        w_xu=make((f, f)), w_hu=make((f, f)),
        w_xh=make((f, f)), w_hh=make((f, f)),
        b_r=make((f,)), b_u=make((f,)), b_h=make((f,)),
    )


def _attention(make, cfg: ModelConfig) -> AttentionParams:
    f, d = cfg.width, cfg.head_dim
    return AttentionParams(
        w_q=[make((f, d)) for _ in range(cfg.heads)],
        w_k=[make((f, d)) for _ in range(cfg.heads)],
        w_v=[make((f, d)) for _ in range(cfg.heads)],
        w_o=make((f, f)),
    )


def _block(make, cfg: ModelConfig) -> BlockParams:
    f = cfg.width
    return BlockParams(
        gru=[_gru_layer(make, f) for _ in range(cfg.gru_layers)],
        hop_w=[make((f, f // cfg.hops)) for _ in range(cfg.hops)],
        hop_out=make((f, f)),
        fuse_w=make((5 * f, f)),
        fuse_b=make((f,)),
        attn=_attention(make, cfg),
    )


def _params(cfg: ModelConfig, make) -> ModelParams:
    """The parameters of ``cfg``'s model, each tensor from ``make(shape)``,
    called in one fixed order: (fan_in, fan_out) for a weight, (n,) for a bias."""
    f = cfg.width
    return ModelParams(
        in_w=make((cfg.channels, f)), in_b=make((f,)),
        out_w=make((f, cfg.channels)), out_b=make((cfg.channels,)),
        emb_w=make((EMBED_DIM, f)), emb_b=make((f,)),
        time_w=make((cfg.time_enc_width, f)), time_b=make((f,)),
        encoder=_block(make, cfg),
        decoder=_block(make, cfg),
        transform=TransformParams(
            gru=[_gru_layer(make, f) for _ in range(cfg.gru_layers)],
            q_fuse_w=make((3 * f, f)), q_fuse_b=make((f,)),
            kv_fuse_w=make((3 * f, f)), kv_fuse_b=make((f,)),
            attn=_attention(make, cfg),
        ),
    )


def init_params(cfg: ModelConfig) -> ModelParams:
    """Uniform +-1/sqrt(fan_in) weights, zero biases, reproducible by ``cfg.seed``."""
    rng = np.random.default_rng(cfg.seed)

    def make(shape: tuple[int, ...]) -> Tensor:
        if len(shape) == 1:
            return T.param(np.zeros(shape))
        bound = 1.0 / math.sqrt(shape[0])
        return T.param(rng.uniform(-bound, bound, shape))

    return _params(cfg, make)


@dataclass
class GraphInputs:
    """Per-graph preprocessing shared by every forward pass."""

    graph: RoadGraph
    hops: np.ndarray   # (k, N, N) bool exact-hop shells
    trans: np.ndarray  # (k, N, N) bidirectional transition per shell

    @classmethod
    def build(cls, graph: RoadGraph, k: int) -> "GraphInputs":
        hops = hop_shells(graph, k)
        return cls(graph=graph, hops=hops, trans=hop_transitions(hops))


# ---------------------------------------------------------------------------
# Forward pieces

def input_projection(params: ModelParams, x: Tensor) -> Tensor:
    """(..., T, N, C) -> (..., T, N, F), one shared linear map per (t, node)."""
    if x.shape[-1] != params.in_w.shape[0]:
        raise ShapeError(
            f"input has {x.shape[-1]} channels, projection expects {params.in_w.shape[0]}"
        )
    return _fuse(params.in_w, params.in_b, [x])


def output_projection(params: ModelParams, feats: Tensor) -> Tensor:
    """(..., T, N, F) -> (..., T, N, C)."""
    return _fuse(params.out_w, params.out_b, [feats])


def _fuse(w: Tensor, b: Tensor, streams: list[Tensor], residual: bool = False) -> Tensor:
    """``concat(streams, axis=-1) @ w + b`` without the concat, plus stream 0
    itself when ``residual`` is set.

    Stream i meets its own block of ``w``, the rows from the summed widths
    of the streams before it, and the products add up by broadcasting, so
    static context of shape (N, F) or (..., T, 1, F) joins (..., T, N, F)
    features without being tiled. Stream 0 has the output's leading shape.
    One stream makes it a linear map ``x @ w + b``.

    One graph node with a hand-written backward that keeps nothing beyond
    its inputs. The forward adds ``b + s_0 @ W_0``, then each ``s_i @ W_i``
    in place in stream order, then the residual, the values and order of a
    chain of ``add`` nodes, so its output is the same to the bit. The
    residual is the node's first input, so ``backward`` sums stream 0's
    share from it before the product's share, as that chain did.
    """
    f = w.shape[1]
    cuts = np.cumsum([0] + [s.shape[-1] for s in streams])
    rows = [slice(lo, hi) for lo, hi in zip(cuts[:-1], cuts[1:])]
    blocks = [w.data[at] for at in rows]
    try:
        if w.shape[0] != cuts[-1] or min(s.data.ndim for s in streams) < 2:
            raise ValueError
        out = streams[0].data @ blocks[0]
        out += b.data  # b + s_0 @ W_0 to the bit, in the product's buffer
        for s, block in zip(streams[1:], blocks[1:]):
            out += s.data @ block
        if residual:
            out += streams[0].data
    except ValueError:
        raise ShapeError(
            f"fuse: streams {[s.shape for s in streams]} do not fit weight {w.shape}"
        ) from None

    def vjp(g):
        g_w = np.empty(w.shape)
        grads = [g] * residual + [g_w, T._unbroadcast(g, b.shape)]
        for s, block, at in zip(streams, blocks, rows):
            # as matmul under add: the product's share of g, then its two factors
            g_s = T._unbroadcast(g, s.shape[:-1] + (f,))
            g_x, (g_w[at],) = T._linear_grads(s.data, [block], g_s)
            grads.append(g_x)
        return grads

    return T._node(out, (streams[0],) * residual + (w, b, *streams), vjp)


def context_block(
    block: BlockParams,
    xh: Tensor,
    emb_proj: Tensor,
    time_proj: Tensor,
    ginputs: GraphInputs,
    h0: list[Tensor],
) -> tuple[Tensor, list[Tensor]]:
    """Fuse the five context streams per token.

    Per token (t, i): concat[features; hop-diffusion; GRU state; node
    embedding; time one-hot] -> 5F, project to F, plus a residual from the
    feature stream. ``xh`` is (..., T, N, F), ``emb_proj`` (N, F) and
    ``time_proj`` (..., T, 1, F). Returns (..., T, N, F) features plus the
    GRU's final hidden states.

    The residual is added inside the one :func:`_fuse` node, so the graph
    holds the block's output and no separate fused array or ``add`` node.
    """
    steps, n = xh.shape[-3:-1]
    if time_proj.shape[-3] != steps:
        raise ContractError(
            f"temporal context covers {time_proj.shape[-3]} steps, block has {steps}"
        )
    if emb_proj.shape[-2] != n:
        raise ContractError(
            f"spatial context covers {emb_proj.shape[-2]} nodes, block has {n}"
        )
    spatial = multi_hop_conv(xh, ginputs.trans, block.hop_w, block.hop_out)
    temporal, finals = gru_sequence(xh, h0, block.gru)
    streams = [xh, spatial, temporal, emb_proj, time_proj]
    return _fuse(block.fuse_w, block.fuse_b, streams, residual=True), finals


def _attend(
    block: str, x: Tensor, cross_kv: Tensor | None, attn: AttentionParams, residual: bool = False
) -> Tensor:
    """:func:`multi_head_attention`, whose degenerate-normalizer error names ``block``."""
    try:
        return multi_head_attention(x, cross_kv, attn, residual)
    except DegenerateAttentionError as err:
        raise DegenerateAttentionError(f"{block} {err}") from err


def block_forward(
    name: str,
    block: BlockParams,
    xh: Tensor,
    emb_proj: Tensor,
    time_proj: Tensor,
    ginputs: GraphInputs,
    h0: list[Tensor],
) -> tuple[Tensor, list[Tensor]]:
    """The encoder or decoder: :func:`context_block` from GRU states ``h0``,
    then self attention with a residual connection, added inside the
    attention node; a degenerate-normalizer error names ``name``. Returns
    (..., T, N, F) features plus the GRU's final hidden states."""
    ctx, finals = context_block(block, xh, emb_proj, time_proj, ginputs, h0)
    return _attend(name, ctx, None, block.attn, residual=True), finals


def transform_layer(
    cfg: ModelConfig,
    params: ModelParams,
    enc: Tensor,
    enc_finals: list[Tensor],
    x_last: Tensor,
    emb_proj: Tensor,
    time_hist: Tensor,
    time_fut: Tensor,
) -> Tensor:
    """Bridge history to the horizon without decoding step by step.

    A GRU seeded with the encoder's final hidden states rolls ``horizon``
    steps from the (..., 1, N, F) step ``x_last`` in one :func:`gru_stack`
    node, each step's output the next's input. The rollout (plus future
    static context) forms the queries; encoder features (plus historical
    static context) form keys and values of a cross attention. ``time_hist``
    and ``time_fut`` are (..., T, 1, F). Returns (..., horizon, N, F) features.
    """
    tp = params.transform
    kv = _fuse(tp.kv_fuse_w, tp.kv_fuse_b, [enc, emb_proj, time_hist])
    rollout = gru_stack(x_last, enc_finals, tp.gru, cfg.horizon, gru_cell)
    q = _fuse(tp.q_fuse_w, tp.q_fuse_b, [rollout, emb_proj, time_fut])
    del rollout  # under no_grad, freed before the attention runs
    return _attend("transform", q, kv, tp.attn)


def _check_windows_and_starts(xs: np.ndarray, t0s) -> None:
    """Reject no windows, non-finite windows by sample index, and a ``t0s``
    not of their count."""
    if not len(xs):
        raise ContractError("no windows given")
    if len(t0s) != len(xs):
        raise ContractError(f"t0s has length {len(t0s)} for {len(xs)} windows; need one per window")
    finite = np.isfinite(xs).reshape(len(xs), -1).all(axis=1)
    if not finite.all():
        raise ValueError(f"non-finite values in input sample {int(np.argmin(finite))}")


# Feature entries of one (B, T, N, F) array that one forward pass may hold:
# 4 MiB of float64. Prediction and training steps run their windows in
# passes of this size; see :func:`windows_per_pass`.
WINDOW_BUDGET = 2**19


def windows_per_pass(cfg: ModelConfig, n_nodes: int) -> int:
    """Windows one forward pass takes under :data:`WINDOW_BUDGET`, counting a
    window as max(history, horizon) x nodes x width entries; at least one.
    The reference config on 228 nodes gets 1, the toy config on 8 gets 341."""
    per_window = max(cfg.history, cfg.horizon) * n_nodes * cfg.width
    return max(1, WINDOW_BUDGET // per_window)


def forward_batch(
    cfg: ModelConfig,
    params: ModelParams,
    ginputs: GraphInputs,
    node_emb: np.ndarray,
    xs: np.ndarray,
    t0s,
) -> Tensor:
    """Full pipeline for a batch of normalized windows, as one graph:
    (B, T_h, N, C) windows starting at steps ``t0s`` -> (B, T_p, N, C).

    All horizon steps come from one pass; predictions are never consumed
    as inputs (the only recurrence is over internal features). Rejects
    B = 0, non-finite inputs by sample index, and a ``t0s`` not of length B.
    """
    _check_windows_and_starts(xs, t0s)
    emb_proj = _fuse(params.emb_w, params.emb_b, [Tensor(node_emb)])
    hot = temporal_encoding(t0s, cfg.history + cfg.horizon, cfg.slots_per_day, cfg.start_weekday)
    # one time-slot row per (sample, step), shared by every node
    time_hist, time_fut = (
        _fuse(params.time_w, params.time_b, [Tensor(part[..., None, :])])
        for part in (hot[:, : cfg.history], hot[:, cfg.history :])
    )
    x_last = input_projection(params, Tensor(xs[:, cfg.history - 1 : cfg.history]))
    xh = input_projection(params, Tensor(xs))
    # Each stage's output is dropped after its last reader, as are the zero
    # initial GRU states, passed without a name. A graph holds what backward
    # reads anyway; under no_grad each (B, T, N, F) array, 2.8 MB a window
    # on 228 nodes, is freed once read, so a ref228 window peaks at 16.1 MB.
    enc, enc_finals = block_forward(
        "encoder", params.encoder, xh, emb_proj, time_hist, ginputs,
        [Tensor(np.zeros(xh.shape[:-3] + xh.shape[-2:])) for _ in range(cfg.gru_layers)],
    )
    del xh
    dec_in = transform_layer(cfg, params, enc, enc_finals, x_last, emb_proj, time_hist, time_fut)
    del enc
    dec_feats, _ = block_forward(
        "decoder", params.decoder, dec_in, emb_proj, time_fut, ginputs, enc_finals
    )
    return output_projection(params, dec_feats)


@dataclass
class Forecaster:
    """Config + parameters + graph preprocessing + node embeddings."""

    cfg: ModelConfig
    params: ModelParams
    ginputs: GraphInputs
    node_emb: np.ndarray
    norm: tuple[float, float] | None = None

    @classmethod
    def new(cls, cfg: ModelConfig, graph: RoadGraph, node_emb: np.ndarray) -> "Forecaster":
        return cls(
            cfg=cfg,
            params=init_params(cfg),
            ginputs=GraphInputs.build(graph, cfg.hops),
            node_emb=np.asarray(node_emb, dtype=np.float64),
        )

    def predict(self, xs: np.ndarray, t0s) -> np.ndarray:
        """Inference-only forward, (B, T_h, N, C) -> (B, T_p, N, C); no graph is built."""
        _check_windows_and_starts(xs, t0s)
        # Consecutive chunks of windows_per_pass windows: a pass's arrays grow
        # with its windows (a no-grad window of the reference config on 228
        # nodes peaks at about 16 MB), while per-pass overhead dominates small
        # graphs, so the reference config runs one window a pass and the toy
        # config hundreds. A window's prediction does not depend on its chunk.
        step = windows_per_pass(self.cfg, self.ginputs.graph.n_nodes)
        with T.no_grad():
            return np.concatenate([
                forward_batch(
                    self.cfg, self.params, self.ginputs, self.node_emb,
                    xs[lo : lo + step], t0s[lo : lo + step],
                ).data
                for lo in range(0, len(xs), step)
            ])


# ---------------------------------------------------------------------------
# Dataset preparation, training, evaluation

def prepare_dataset(
    dataset: Dataset, fractions: tuple[float, float, float] = SPLIT_FRACTIONS
) -> Dataset:
    """Fit z-score stats on the training span only, normalize everything,
    and record the raw-index split ranges."""
    bounds = split_boundaries(dataset.n_steps, fractions)
    stats = zscore_fit(dataset.readings[bounds["train"].start : bounds["train"].stop])
    return Dataset(
        readings=zscore_apply(dataset.readings, stats),
        meta=dataset.meta,
        norm=stats,
        splits=bounds,
    )


def forecast(
    model: Forecaster, windows: list[SampleWindow], horizons: list[int] | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """De-normalized predictions and truth of ``windows``, each (B, T_p, N, C),
    from one :meth:`Forecaster.predict` call. Rejects ``horizons`` outside
    1..horizon and no ``windows`` before predicting."""
    if model.norm is None:
        raise ContractError("model has no normalization stats; train or load first")
    for h in horizons or []:
        if not 1 <= h <= model.cfg.horizon:
            raise ValueError(f"horizon {h} outside 1..{model.cfg.horizon}")
    if not windows:
        raise ContractError("no windows given")
    xs = np.stack([w.x for w in windows])
    pred = zscore_invert(model.predict(xs, [w.t0 for w in windows]), model.norm)
    return pred, zscore_invert(np.stack([w.y for w in windows]), model.norm)


def horizon_metrics(
    pred: np.ndarray, truth: np.ndarray, horizons: list[int] | None, mask_eps: float
) -> dict[str, tuple[float, float, float]]:
    """(MAE, RMSE, MAPE%) per horizon prefix plus 'average'.

    A horizon row ``h`` aggregates prediction steps 1..h; 'average' covers
    the full horizon.
    """
    results: dict[str, tuple[float, float, float]] = {}
    for h in horizons or []:
        results[str(h)] = metrics(pred[:, :h], truth[:, :h], mask_eps)
    results["average"] = metrics(pred, truth, mask_eps)
    return results


def evaluate(
    model: Forecaster,
    windows: list[SampleWindow],
    horizons: list[int] | None = None,
    mask_eps: float = MASK_EPS,
) -> dict[str, tuple[float, float, float]]:
    """De-normalized :func:`horizon_metrics` of the model on ``windows``."""
    return horizon_metrics(*forecast(model, windows, horizons), horizons, mask_eps)


@dataclass
class EpochLog:
    epoch: int
    split: str
    mae: float
    rmse: float
    mape: float
    lr: float
    seconds: float

    def csv_row(self) -> str:
        return (
            f"{self.epoch},{self.split},{self.mae:.6f},{self.rmse:.6f},"
            f"{self.mape:.6f},{self.lr:.8g},{self.seconds:.3f}"
        )


CSV_HEADER = "epoch,split,mae,rmse,mape,lr,seconds"


def _diverged(message: str, checkpoint: Path | None) -> TrainingDiverged:
    """A :class:`TrainingDiverged` that says where the last good checkpoint is."""
    where = (
        f"last good checkpoint kept at {checkpoint}" if checkpoint
        else "no checkpoint was good yet"
    )
    return TrainingDiverged(f"{message}; {where}", checkpoint=checkpoint)


def _train_step(
    model: Forecaster,
    params: dict[str, Tensor],
    state: AdamState,
    lr: float,
    batch: list[SampleWindow],
) -> float:
    """One Adam step on ``batch``; returns its loss, the summed L1 error per
    window.

    The batch runs in consecutive micro-batches of :func:`windows_per_pass`
    windows, so a step holds one pass's graph however large the batch. Each
    micro-batch's loss is scaled by 1/len(batch), so the gradients its
    backward adds into the parameters' ``.grad`` sum to the whole batch's.
    A non-finite loss in any micro-batch raises before ``adam_step``, which
    leaves the parameters and the Adam state untouched.
    """
    zero_grads(params)
    step = windows_per_pass(model.cfg, model.ginputs.graph.n_nodes)
    loss = 0.0
    for lo in range(0, len(batch), step):
        loss += _backprop(model, batch[lo : lo + step], 1.0 / len(batch))
    adam_step(params, state, lr)
    return loss


def _backprop(model: Forecaster, windows: list[SampleWindow], scale: float) -> float:
    """Build one pass's loss graph over ``windows``, its L1 sum times
    ``scale``, and backpropagate it; returns the loss.

    ``backward`` consumes the graph as it walks it, freeing each node's
    saved arrays once its vjp has run. What it leaves, the prediction and
    the loss, is referenced only from this frame, so it is freed before
    the next pass builds its graph.
    """
    pred = forward_batch(
        model.cfg, model.params, model.ginputs, model.node_emb,
        np.stack([w.x for w in windows]), [w.t0 for w in windows],
    )
    loss = T.l1_loss(pred, Tensor(np.stack([w.y for w in windows])), scale)
    if not np.isfinite(loss.data):
        raise FloatingPointError("training loss became non-finite")
    T.backward(loss)
    return float(loss.data)


def train(
    cfg: ModelConfig,
    dataset: Dataset,
    graph: RoadGraph,
    node_emb: np.ndarray,
    checkpoint_path: Path | None = None,
    log_fn=None,
    mask_eps: float = MASK_EPS,
) -> tuple[Forecaster, list[EpochLog]]:
    """Mini-batch Adam on the summed-L1 objective with step-decayed LR.

    One shuffled pass over the training windows per epoch; validation MAE
    decides the best checkpoint. ``dataset`` must be normalized and split
    (see :func:`prepare_dataset`). Raises :class:`TrainingDiverged` on a
    non-finite loss or a numeric failure inside a step (a degenerate
    attention normalizer, a non-finite gradient), keeping the last good
    checkpoint on disk. A bad ``mask_eps`` fails before training starts.
    """
    _check_mask_eps(mask_eps)
    if dataset.norm is None or not dataset.splits:
        raise ContractError("dataset is not prepared; call prepare_dataset first")
    windows = make_windows(dataset.readings, cfg.history, cfg.horizon)
    split_idx = assign_windows(windows, dataset.splits)
    train_windows = [windows[i] for i in split_idx["train"]]
    val_windows = [windows[i] for i in split_idx["val"]]
    if not train_windows:
        raise ContractError("no training windows; dataset too small")

    model = Forecaster.new(cfg, graph, node_emb)
    model.norm = dataset.norm
    params = model.params.named()
    state = AdamState.for_params(params)
    rng = np.random.default_rng(cfg.seed)
    per_entry = cfg.horizon * graph.n_nodes * cfg.channels
    std = dataset.norm[1]

    history: list[EpochLog] = []
    best_val = math.inf
    saved: Path | None = None  # the last good checkpoint, once one is written
    for epoch in range(cfg.epochs):
        lr = lr_at_epoch(epoch, cfg.lr, cfg.lr_decay_epochs, cfg.lr_decay_factor)
        started = time.perf_counter()
        order = rng.permutation(len(train_windows))
        epoch_abs_err = 0.0
        for lo in range(0, len(order), cfg.batch_size):
            batch = [train_windows[i] for i in order[lo : lo + cfg.batch_size]]
            try:
                batch_loss = _train_step(model, params, state, lr, batch)
            except (ArithmeticError, GradientError) as err:
                raise _diverged(f"training step failed: {err}", saved) from err
            epoch_abs_err += batch_loss * len(batch)

        train_mae = epoch_abs_err / (len(order) * per_entry) * std
        seconds = time.perf_counter() - started
        rows = [EpochLog(epoch, "train", train_mae, math.nan, math.nan, lr, seconds)]

        if val_windows:
            val = evaluate(model, val_windows, mask_eps=mask_eps)["average"]
            rows.append(
                EpochLog(epoch, "val", *val, lr, time.perf_counter() - started)
            )
            improved = val[0] < best_val
            if improved:
                best_val = val[0]
        else:
            improved = True
        if improved and checkpoint_path is not None:
            save_model(checkpoint_path, model, state)
            saved = checkpoint_path
        history.extend(rows)
        if log_fn:
            for row in rows:
                log_fn(row)
    return model, history


# ---------------------------------------------------------------------------
# Whole-model checkpointing

def save_model(path, model: Forecaster, state: AdamState | None = None) -> None:
    arrays: dict[str, np.ndarray] = {}
    for name, p in model.params.named().items():
        arrays[f"param.{name}"] = p.data
    cfg = model.cfg
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        arrays[f"cfg.{f.name}"] = np.asarray(
            value if f.name in _LIST_FIELDS else [value], dtype=np.float64
        )
    if model.norm is not None:
        arrays["norm.mean"] = np.asarray(model.norm[0])
        arrays["norm.std"] = np.asarray(model.norm[1])
    arrays["node.embeddings"] = model.node_emb
    # the sensor graph travels with the model so evaluation needs no
    # separate adjacency file
    arrays["graph.adjacency"] = model.ginputs.graph.adjacency
    if state is not None:
        arrays["adam.step"] = np.asarray(float(state.step))
        arrays["adam.beta1"] = np.asarray(state.beta1)
        arrays["adam.beta2"] = np.asarray(state.beta2)
        arrays["adam.eps"] = np.asarray(state.eps)
        for name in state.m:
            arrays[f"adam.m.{name}"] = state.m[name]
            arrays[f"adam.v.{name}"] = state.v[name]
    save_arrays(path, arrays)


def load_model(path) -> tuple[Forecaster, AdamState | None]:
    """The model, its saved sensor graph and its Adam state if saved, from a checkpoint.
    A missing entry, a wrong shape, a non-finite value or a bad scalar is a CheckpointError."""
    arrays = load_arrays(path)

    def entry(key: str) -> np.ndarray:
        if key not in arrays:
            raise CheckpointError(f"{path}: missing entry {key}")
        return arrays[key]

    def checked(key: str, parse=_as_int, low=None, high=math.inf):
        # the parsed value, strictly between low and high when low is given
        raw = entry(key)
        try:
            value = parse(raw)
            if low is not None and not low < value < high:
                raise ValueError(f"not in ({low}, {high})")
            return value
        except (TypeError, ValueError) as err:
            raise CheckpointError(f"{path}: bad {key} {raw.tolist()}: {err}") from None

    def array(key: str, shape: tuple[int, ...], low=-math.inf) -> np.ndarray:
        found = entry(key)
        if found.shape != shape:
            raise CheckpointError(
                f"{path}: bad {key} shape: expected {shape}, found {found.shape}"
            )
        if not (np.isfinite(found).all() and (found >= low).all()):
            raise CheckpointError(f"{path}: bad {key} values: not all finite and >= {low}")
        return found

    try:
        cfg = ModelConfig(**{
            f.name: checked(f"cfg.{f.name}", partial(_field_value, f.name))
            for f in fields(ModelConfig)
        })
    except ConfigError as err:
        raise CheckpointError(f"{path}: bad cfg entries: {err}") from None

    n = max((entry("graph.adjacency").shape or (0,))[0], 1)  # a graph has a node
    graph = RoadGraph(array("graph.adjacency", (n, n), low=0.0))
    # every parameter starts as a zero-byte stand-in of its shape, then takes its entry
    params = _params(cfg, lambda shape: Tensor(np.broadcast_to(0.0, shape), requires_grad=True))
    model = Forecaster(
        cfg=cfg, params=params, ginputs=GraphInputs.build(graph, cfg.hops),
        node_emb=np.asarray(entry("node.embeddings"), dtype=np.float64),
    )
    array("node.embeddings", (graph.n_nodes, model.params.emb_w.shape[0]))
    named = model.params.named()
    for name, p in named.items():
        p.data = array(f"param.{name}", p.data.shape)
    if "norm.mean" in arrays:
        model.norm = (checked("norm.mean", float, -math.inf), checked("norm.std", float, 0.0))

    state = None
    if "adam.step" in arrays:
        state = AdamState(
            step=checked("adam.step", low=-1),
            beta1=checked("adam.beta1", float, 0.0, 1.0),
            beta2=checked("adam.beta2", float, 0.0, 1.0),
            eps=checked("adam.eps", float, 0.0),
        )
        for name, p in named.items():
            state.m[name] = array(f"adam.m.{name}", p.data.shape)
            state.v[name] = array(f"adam.v.{name}", p.data.shape, low=0.0)
    return model, state
