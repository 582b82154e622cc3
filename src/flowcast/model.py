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
optional leading batch axes as numpy's ``@`` has. :func:`_attend` is the
one place that flattens them into (..., T*N, F) joint tokens, for
:func:`multi_head_attention`, and folds its output back. Static context
(node embeddings (N, F), time one-hots (..., T, F)) joins by
broadcasting; :func:`forward_batch` runs a whole (B, T, N, C) batch as
one graph.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import tensor as T
from .attention import (
    AttentionParams,
    DegenerateAttentionError,
    multi_head_attention,
    to_joint_tokens,
)
from .checkpoint import CheckpointError, load_arrays, save_arrays
from .context import GruLayerParams, gru_cell, gru_sequence, temporal_encoding
from .data import (
    Dataset,
    SampleWindow,
    assign_windows,
    make_windows,
    metrics,
    split_boundaries,
    zscore_apply,
    zscore_fit,
    zscore_invert,
)
from .graph import RoadGraph, hop_adjacency, hop_transitions, multi_hop_conv, shortest_path_hops
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
    "encoder_forward",
    "transform_layer",
    "decoder_forward",
    "forward_batch",
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
        if min(self.heads, self.head_dim, self.hops) < 1:
            raise ConfigError("heads, head_dim and hops must be >= 1")
        if self.width != self.heads * self.head_dim:
            raise ConfigError(
                f"width {self.width} != heads {self.heads} x head_dim {self.head_dim}"
            )
        if self.width % self.hops:
            raise ConfigError(f"width {self.width} not divisible by hops {self.hops}")
        if self.history < 1 or self.horizon < 1:
            raise ConfigError("history and horizon must be >= 1")
        if self.channels < 1 or self.slots_per_day < 1 or self.batch_size < 1:
            raise ConfigError("channels, slots_per_day and batch_size must be >= 1")
        if self.lr <= 0:
            raise ConfigError(f"lr must be positive, got {self.lr}")

    @property
    def time_enc_width(self) -> int:
        return self.slots_per_day + 7


_LIST_FIELDS = {"lr_decay_epochs"}
_FLOAT_FIELDS = {"lr", "lr_decay_factor"}


def _field_value(key: str, raw):
    """A config field's value from its text in a config file (a list field
    is comma-separated) or from its float64 array in a checkpoint."""
    items = [v for v in raw.split(",") if v.strip()] if isinstance(raw, str) else raw
    if key in _LIST_FIELDS:
        return [int(v) for v in items]
    (item,) = items  # a scalar field has exactly one item
    return float(item) if key in _FLOAT_FIELDS else int(item)


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
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
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
    emb_w: Tensor             # (64, F)
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


def _weight(rng, rows: int, cols: int) -> Tensor:
    bound = 1.0 / math.sqrt(rows)
    return T.param(rng.uniform(-bound, bound, (rows, cols)))


def _bias(cols: int) -> Tensor:
    return T.param(np.zeros(cols))


def _gru_layer(rng, f: int) -> GruLayerParams:
    return GruLayerParams(
        w_xr=_weight(rng, f, f), w_hr=_weight(rng, f, f),
        w_xu=_weight(rng, f, f), w_hu=_weight(rng, f, f),
        w_xh=_weight(rng, f, f), w_hh=_weight(rng, f, f),
        b_r=_bias(f), b_u=_bias(f), b_h=_bias(f),
    )


def _attention(rng, cfg: ModelConfig) -> AttentionParams:
    f, d = cfg.width, cfg.head_dim
    return AttentionParams(
        w_q=[_weight(rng, f, d) for _ in range(cfg.heads)],
        w_k=[_weight(rng, f, d) for _ in range(cfg.heads)],
        w_v=[_weight(rng, f, d) for _ in range(cfg.heads)],
        w_o=_weight(rng, f, f),
    )


def _block(rng, cfg: ModelConfig) -> BlockParams:
    f = cfg.width
    return BlockParams(
        gru=[_gru_layer(rng, f) for _ in range(cfg.gru_layers)],
        hop_w=[_weight(rng, f, f // cfg.hops) for _ in range(cfg.hops)],
        hop_out=_weight(rng, f, f),
        fuse_w=_weight(rng, 5 * f, f),
        fuse_b=_bias(f),
        attn=_attention(rng, cfg),
    )


def init_params(cfg: ModelConfig, seed: int | None = None) -> ModelParams:
    """Uniform +-1/sqrt(fan_in) weights, zero biases, reproducible by seed."""
    rng = np.random.default_rng(cfg.seed if seed is None else seed)
    f = cfg.width
    return ModelParams(
        in_w=_weight(rng, cfg.channels, f), in_b=_bias(f),
        out_w=_weight(rng, f, cfg.channels), out_b=_bias(cfg.channels),
        emb_w=_weight(rng, 64, f), emb_b=_bias(f),
        time_w=_weight(rng, cfg.time_enc_width, f), time_b=_bias(f),
        encoder=_block(rng, cfg),
        decoder=_block(rng, cfg),
        transform=TransformParams(
            gru=[_gru_layer(rng, f) for _ in range(cfg.gru_layers)],
            q_fuse_w=_weight(rng, 3 * f, f), q_fuse_b=_bias(f),
            kv_fuse_w=_weight(rng, 3 * f, f), kv_fuse_b=_bias(f),
            attn=_attention(rng, cfg),
        ),
    )


@dataclass
class GraphInputs:
    """Per-graph preprocessing shared by every forward pass."""

    graph: RoadGraph
    hops: np.ndarray   # (k, N, N) exact-hop shells
    trans: np.ndarray  # (k, N, N) bidirectional transition per shell

    @classmethod
    def build(cls, graph: RoadGraph, k: int) -> "GraphInputs":
        hops = hop_adjacency(shortest_path_hops(graph), k)
        return cls(graph=graph, hops=hops, trans=hop_transitions(hops))


# ---------------------------------------------------------------------------
# Forward pieces

def input_projection(params: ModelParams, x: Tensor) -> Tensor:
    """(..., T, N, C) -> (..., T, N, F), one shared linear map per (t, node)."""
    if x.shape[-1] != params.in_w.shape[0]:
        raise ShapeError(
            f"input has {x.shape[-1]} channels, projection expects {params.in_w.shape[0]}"
        )
    return T.add(T.matmul(x, params.in_w), params.in_b)


def output_projection(params: ModelParams, feats: Tensor) -> Tensor:
    """(..., T, N, F) -> (..., T, N, C)."""
    return T.add(T.matmul(feats, params.out_w), params.out_b)


def _fuse(w: Tensor, b: Tensor, streams: list[Tensor]) -> Tensor:
    """``concat(streams, axis=-1) @ w + b`` without the concat.

    Stream i meets its own F-row block of ``w``, and the products add up
    by broadcasting, so static context of shape (N, F) or (..., T, 1, F)
    joins (..., T, N, F) features without being tiled.
    """
    f = w.shape[1]
    out = b
    for i, stream in enumerate(streams):
        out = T.add(out, T.matmul(stream, w[i * f : (i + 1) * f]))
    return out


def _per_step(time_proj: Tensor) -> Tensor:
    """(..., T, F) -> (..., T, 1, F), broadcastable over the node axis."""
    return T.reshape(time_proj, time_proj.shape[:-1] + (1, time_proj.shape[-1]))


def context_block(
    cfg: ModelConfig,
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
    ``time_proj`` (..., T, F). Returns (..., T, N, F) features plus the
    GRU's final hidden states.
    """
    steps, n = xh.shape[-3:-1]
    if time_proj.shape[-2] != steps:
        raise ContractError(
            f"temporal context covers {time_proj.shape[-2]} steps, block has {steps}"
        )
    if emb_proj.shape[-2] != n:
        raise ContractError(
            f"spatial context covers {emb_proj.shape[-2]} nodes, block has {n}"
        )
    spatial = multi_hop_conv(xh, ginputs.trans, block.hop_w, block.hop_out)
    temporal, finals = gru_sequence(xh, h0, block.gru)
    fused = _fuse(
        block.fuse_w, block.fuse_b, [xh, spatial, temporal, emb_proj, _per_step(time_proj)]
    )
    return T.add(fused, xh), finals


def _attend(block: str, x: Tensor, cross_kv: Tensor | None, attn: AttentionParams) -> Tensor:
    """:func:`multi_head_attention` over the joint tokens of (..., T, N, F)
    features, returned in the shape of ``x``; a degenerate-normalizer error
    names ``block``."""
    kv = None if cross_kv is None else to_joint_tokens(cross_kv)
    try:
        out = multi_head_attention(to_joint_tokens(x), kv, attn)
    except DegenerateAttentionError as err:
        raise DegenerateAttentionError(f"{block} {err}") from err
    return T.reshape(out, x.shape)


def encoder_forward(
    cfg: ModelConfig,
    params: ModelParams,
    xh: Tensor,
    emb_proj: Tensor,
    time_hist: Tensor,
    ginputs: GraphInputs,
) -> tuple[Tensor, list[Tensor]]:
    """Context block, then self attention with a residual connection."""
    h0 = [Tensor(np.zeros(xh.shape[:-3] + xh.shape[-2:])) for _ in range(cfg.gru_layers)]
    ctx, finals = context_block(cfg, params.encoder, xh, emb_proj, time_hist, ginputs, h0)
    enc = T.add(ctx, _attend("encoder", ctx, None, params.encoder.attn))
    return enc, finals


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

    A GRU seeded with the encoder's final hidden state rolls ``horizon``
    steps, feeding each step's output back as the next input. The rollout
    (plus future static context) forms the queries; encoder features (plus
    historical static context) form keys and values of a cross attention.
    Returns (..., horizon, N, F) features.
    """
    tp = params.transform
    hidden = list(enc_finals)
    step_in = x_last
    generated: list[Tensor] = []
    for _ in range(cfg.horizon):
        layer_in = step_in
        for i, layer in enumerate(tp.gru):
            hidden[i] = gru_cell(layer_in, hidden[i], layer)
            layer_in = hidden[i]
        generated.append(hidden[-1])
        step_in = hidden[-1]
    rollout = T.reshape(
        T.concat(generated, axis=-2), x_last.shape[:-2] + (cfg.horizon,) + x_last.shape[-2:]
    )
    q = _fuse(tp.q_fuse_w, tp.q_fuse_b, [rollout, emb_proj, _per_step(time_fut)])
    kv = _fuse(tp.kv_fuse_w, tp.kv_fuse_b, [enc, emb_proj, _per_step(time_hist)])
    return _attend("transform", q, kv, tp.attn)


def decoder_forward(
    cfg: ModelConfig,
    params: ModelParams,
    xh: Tensor,
    enc_finals: list[Tensor],
    emb_proj: Tensor,
    time_fut: Tensor,
    ginputs: GraphInputs,
) -> Tensor:
    """Mirror of the encoder over the horizon span; GRU starts from the
    encoder's final hidden state. Returns (..., horizon, N, F) features."""
    ctx, _ = context_block(
        cfg, params.decoder, xh, emb_proj, time_fut, ginputs, list(enc_finals)
    )
    return T.add(ctx, _attend("decoder", ctx, None, params.decoder.attn))


def _reject_non_finite(xs: np.ndarray) -> None:
    finite = np.isfinite(xs).reshape(len(xs), -1).all(axis=1)
    if not finite.all():
        raise ValueError(f"non-finite values in input sample {int(np.argmin(finite))}")


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
    non-finite inputs by sample index.
    """
    _reject_non_finite(xs)
    emb_proj = T.add(T.matmul(Tensor(node_emb), params.emb_w), params.emb_b)
    span = cfg.history + cfg.horizon
    hot = np.stack([
        temporal_encoding(int(t0), span, cfg.slots_per_day, cfg.start_weekday) for t0 in t0s
    ])
    time_proj = T.add(T.matmul(Tensor(hot), params.time_w), params.time_b)
    time_hist, time_fut = time_proj[:, : cfg.history], time_proj[:, cfg.history :]

    xh = input_projection(params, Tensor(xs))
    enc, enc_finals = encoder_forward(cfg, params, xh, emb_proj, time_hist, ginputs)
    dec_in = transform_layer(
        cfg, params, enc, enc_finals, xh[:, cfg.history - 1],
        emb_proj, time_hist, time_fut,
    )
    dec_feats = decoder_forward(
        cfg, params, dec_in, enc_finals, emb_proj, time_fut, ginputs
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
        _reject_non_finite(xs)
        # One window at a time: a no-grad window of the reference config on
        # 228 nodes peaks at about 28 MB of arrays, and a batch of B at B times that.
        with T.no_grad():
            return np.concatenate([
                forward_batch(
                    self.cfg, self.params, self.ginputs, self.node_emb,
                    xs[b : b + 1], t0s[b : b + 1],
                ).data
                for b in range(len(xs))
            ])


# ---------------------------------------------------------------------------
# Dataset preparation, training, evaluation

def prepare_dataset(
    dataset: Dataset, fractions: tuple[float, float, float] = (0.7, 0.1, 0.2)
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
    1..horizon before predicting."""
    if model.norm is None:
        raise ContractError("model has no normalization stats; train or load first")
    for h in horizons or []:
        if not 1 <= h <= model.cfg.horizon:
            raise ValueError(f"horizon {h} outside 1..{model.cfg.horizon}")
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
    mask_eps: float = 1.0,
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


def train(
    cfg: ModelConfig,
    dataset: Dataset,
    graph: RoadGraph,
    node_emb: np.ndarray,
    checkpoint_path: Path | None = None,
    log_fn=None,
    mask_eps: float = 1.0,
) -> tuple[Forecaster, list[EpochLog]]:
    """Mini-batch Adam on the summed-L1 objective with step-decayed LR.

    One shuffled pass over the training windows per epoch; validation MAE
    decides the best checkpoint. ``dataset`` must be normalized and split
    (see :func:`prepare_dataset`). Raises :class:`TrainingDiverged` on a
    non-finite loss or a numeric failure inside a step (a degenerate
    attention normalizer, a non-finite gradient), keeping the last good
    checkpoint on disk.
    """
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
                zero_grads(params)
                pred = forward_batch(
                    cfg, model.params, model.ginputs, node_emb,
                    np.stack([w.x for w in batch]), [w.t0 for w in batch],
                )
                loss = T.scale(
                    T.l1_loss(pred, Tensor(np.stack([w.y for w in batch]))), 1.0 / len(batch)
                )
                if not np.isfinite(loss.data):
                    raise _diverged("training loss became non-finite", saved)
                T.backward(loss)
                adam_step(params, state, lr)
            except (ArithmeticError, GradientError) as err:
                raise _diverged(f"training step failed: {err}", saved) from err
            epoch_abs_err += float(loss.data) * len(batch)

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


def load_model(path, graph: RoadGraph | None = None) -> tuple[Forecaster, AdamState | None]:
    arrays = load_arrays(path)

    def entry(key: str) -> np.ndarray:
        if key not in arrays:
            raise CheckpointError(f"{path}: missing entry {key}")
        return arrays[key]

    cfg = ModelConfig(**{
        f.name: _field_value(f.name, entry(f"cfg.{f.name}")) for f in fields(ModelConfig)
    })

    if graph is None:
        graph = RoadGraph.from_adjacency(entry("graph.adjacency"))
    model = Forecaster.new(cfg, graph, entry("node.embeddings"))
    for name, p in model.params.named().items():
        key = f"param.{name}"
        loaded = entry(key)
        if loaded.shape != p.data.shape:
            raise CheckpointError(
                f"{path}: {key} expected shape {p.data.shape}, found {loaded.shape}"
            )
        p.data = loaded
    if "norm.mean" in arrays:
        model.norm = (float(arrays["norm.mean"]), float(entry("norm.std")))

    state = None
    if "adam.step" in arrays:
        state = AdamState(
            step=int(arrays["adam.step"]),
            beta1=float(entry("adam.beta1")),
            beta2=float(entry("adam.beta2")),
            eps=float(entry("adam.eps")),
        )
        for name in model.params.named():
            state.m[name] = entry(f"adam.m.{name}")
            state.v[name] = entry(f"adam.v.{name}")
    return model, state
