"""Forecast model: context-fused tokens, joint linear attention, and the
encoder / transform / decoder pipeline, plus training and evaluation.

Every (time step, sensor) pair becomes one token. Each block fuses five
feature streams per token (projected input, hop-diffusion spatial
context, GRU temporal context, node embedding, time-slot one-hot), runs
multi-head linear attention over all tokens at once, and keeps residual
paths throughout. A transform stage rolls a GRU forward over the horizon
and cross-attends against encoder tokens, so all horizon steps are
produced in a single pass with no output fed back as input.
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
    from_joint_tokens,
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
from .optim import AdamState, adam_step, lr_at_epoch, zero_grads
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
    "forward_sample",
    "forward_batch",
    "train",
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
    """Loss became non-finite; carries the last good checkpoint path."""

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

    @classmethod
    def toy(cls, **overrides) -> "ModelConfig":
        """Small instance sized for the synthetic ring dataset.

        The defaults (6 epochs of 77 mini-batches with two LR decays)
        drive the training MAE to the noise floor of the ring data in
        under 500 Adam steps.
        """
        base = dict(
            width=16, heads=2, head_dim=8, hops=2, gru_layers=1,
            history=12, horizon=12, channels=1, slots_per_day=96,
            start_weekday=0, lr=1e-2, lr_decay_epochs=[3, 5],
            lr_decay_factor=0.2, batch_size=18, epochs=6, seed=7,
        )
        base.update(overrides)
        return cls(**base)


_LIST_FIELDS = {"lr_decay_epochs"}


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
            values[key] = _parse_field(key, value)
        except ValueError:
            raise ConfigError(f"{path}:{lineno}: bad value {value!r} for '{key}'") from None
    if overrides:
        for key, value in overrides.items():
            if key not in known:
                raise ConfigError(f"unknown config key '{key}'")
            values[key] = _parse_field(key, value) if isinstance(value, str) else value
    return ModelConfig(**values)


def _parse_field(key: str, value: str):
    if key in _LIST_FIELDS:
        return [int(v) for v in value.split(",") if v.strip()] if value else []
    if key in ("lr", "lr_decay_factor"):
        return float(value)
    return int(value)


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
    """(T, N, C) -> (T, N, F), one shared linear map per (t, node)."""
    steps, n, c = x.shape
    if c != params.in_w.shape[0]:
        raise ShapeError(
            f"input has {c} channels, projection expects {params.in_w.shape[0]}"
        )
    flat = T.reshape(x, (steps * n, c))
    out = T.add(T.matmul(flat, params.in_w), params.in_b)
    return T.reshape(out, (steps, n, params.in_w.shape[1]))


def output_projection(params: ModelParams, feats: Tensor) -> Tensor:
    """(T, N, F) -> (T, N, C)."""
    steps, n, f = feats.shape
    flat = T.reshape(feats, (steps * n, f))
    out = T.add(T.matmul(flat, params.out_w), params.out_b)
    return T.reshape(out, (steps, n, params.out_w.shape[1]))


def _tile_nodes(mat: Tensor, steps: int) -> Tensor:
    """(N, F) per-node rows -> (steps*N, F) tokens, same rows every step."""
    n, f = mat.shape
    grid = T.add(T.reshape(mat, (1, n, f)), Tensor(np.zeros((steps, n, f))))
    return T.reshape(grid, (steps * n, f))


def _tile_steps(mat: Tensor, nodes: int) -> Tensor:
    """(T, F) per-step rows -> (T*nodes, F) tokens, same row for all nodes."""
    steps, f = mat.shape
    grid = T.add(T.reshape(mat, (steps, 1, f)), Tensor(np.zeros((steps, nodes, f))))
    return T.reshape(grid, (steps * nodes, f))


def context_block(
    cfg: ModelConfig,
    block: BlockParams,
    xh: Tensor,
    emb_proj: Tensor,
    time_proj: Tensor,
    ginputs: GraphInputs,
    h0: list[Tensor],
) -> tuple[Tensor, list[Tensor]]:
    """Fuse the five context streams per token and flatten to joint tokens.

    Per token (t, i): concat[features; hop-diffusion; GRU state; node
    embedding; time one-hot] -> 5F, project to F, plus a residual from the
    feature stream. Returns tokens plus the GRU's final hidden states.
    """
    steps, n, _ = xh.shape
    if time_proj.shape[0] != steps:
        raise ContractError(
            f"temporal context covers {time_proj.shape[0]} steps, block has {steps}"
        )
    if emb_proj.shape[0] != n:
        raise ContractError(
            f"spatial context covers {emb_proj.shape[0]} nodes, block has {n}"
        )
    spatial_tok = T.concat(
        [multi_hop_conv(xh[t], ginputs.trans, block.hop_w, block.hop_out) for t in range(steps)],
        axis=0,
    )
    temporal_tok, finals = gru_sequence(xh, h0, block.gru)

    x_tok = to_joint_tokens(xh)
    stacked = T.concat(
        [
            x_tok,
            spatial_tok,
            to_joint_tokens(temporal_tok),
            _tile_nodes(emb_proj, steps),
            _tile_steps(time_proj, n),
        ],
        axis=1,
    )
    fused = T.add(T.matmul(stacked, block.fuse_w), block.fuse_b)
    return T.add(fused, x_tok), finals


def encoder_forward(
    cfg: ModelConfig,
    params: ModelParams,
    xh: Tensor,
    emb_proj: Tensor,
    time_hist: Tensor,
    ginputs: GraphInputs,
) -> tuple[Tensor, list[Tensor]]:
    """Context block, then self attention with a residual connection."""
    steps, n, f = xh.shape
    h0 = [Tensor(np.zeros((n, f))) for _ in range(cfg.gru_layers)]
    ctx, finals = context_block(cfg, params.encoder, xh, emb_proj, time_hist, ginputs, h0)
    enc = T.add(ctx, multi_head_attention(ctx, None, params.encoder.attn))
    return enc, finals


def transform_layer(
    cfg: ModelConfig,
    params: ModelParams,
    enc_tokens: Tensor,
    enc_finals: list[Tensor],
    x_last: Tensor,
    emb_proj: Tensor,
    time_hist: Tensor,
    time_fut: Tensor,
) -> Tensor:
    """Bridge history to the horizon without decoding step by step.

    A GRU seeded with the encoder's final hidden state rolls ``horizon``
    steps, feeding each step's output back as the next input. The rollout
    (plus future static context) forms the queries; encoder tokens (plus
    historical static context) form keys and values of a cross attention.
    """
    tp = params.transform
    n = x_last.shape[0]
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
    q_in = T.concat(
        [
            T.concat(generated, axis=0),
            _tile_nodes(emb_proj, cfg.horizon),
            _tile_steps(time_fut, n),
        ],
        axis=1,
    )
    q_tok = T.add(T.matmul(q_in, tp.q_fuse_w), tp.q_fuse_b)
    kv_in = T.concat(
        [
            enc_tokens,
            _tile_nodes(emb_proj, cfg.history),
            _tile_steps(time_hist, n),
        ],
        axis=1,
    )
    kv_tok = T.add(T.matmul(kv_in, tp.kv_fuse_w), tp.kv_fuse_b)
    return multi_head_attention(q_tok, kv_tok, tp.attn)


def decoder_forward(
    cfg: ModelConfig,
    params: ModelParams,
    dec_tokens: Tensor,
    enc_finals: list[Tensor],
    emb_proj: Tensor,
    time_fut: Tensor,
    ginputs: GraphInputs,
) -> Tensor:
    """Mirror of the encoder over the horizon span; GRU starts from the
    encoder's final hidden state. Returns (horizon, N, F) features."""
    n = emb_proj.shape[0]
    xh = from_joint_tokens(dec_tokens, cfg.horizon, n)
    ctx, _ = context_block(
        cfg, params.decoder, xh, emb_proj, time_fut, ginputs, list(enc_finals)
    )
    dec = T.add(ctx, multi_head_attention(ctx, None, params.decoder.attn))
    return from_joint_tokens(dec, cfg.horizon, n)


def forward_sample(
    cfg: ModelConfig,
    params: ModelParams,
    ginputs: GraphInputs,
    node_emb: np.ndarray,
    x: np.ndarray,
    t0: int,
) -> Tensor:
    """Full pipeline for one normalized window: (T_h, N, C) -> (T_p, N, C).

    All horizon steps come from one pass; predictions are never consumed
    as inputs (the only recurrence is over internal features).
    """
    emb_proj = T.add(T.matmul(Tensor(node_emb), params.emb_w), params.emb_b)
    hist_hot = temporal_encoding(t0, cfg.history, cfg.slots_per_day, cfg.start_weekday)
    fut_hot = temporal_encoding(
        t0 + cfg.history, cfg.horizon, cfg.slots_per_day, cfg.start_weekday
    )
    time_hist = T.add(T.matmul(Tensor(hist_hot), params.time_w), params.time_b)
    time_fut = T.add(T.matmul(Tensor(fut_hot), params.time_w), params.time_b)

    xh = input_projection(params, Tensor(x))
    enc_tokens, enc_finals = encoder_forward(
        cfg, params, xh, emb_proj, time_hist, ginputs
    )
    dec_in = transform_layer(
        cfg, params, enc_tokens, enc_finals, xh[cfg.history - 1],
        emb_proj, time_hist, time_fut,
    )
    dec_feats = decoder_forward(
        cfg, params, dec_in, enc_finals, emb_proj, time_fut, ginputs
    )
    return output_projection(params, dec_feats)


def forward_batch(
    cfg: ModelConfig,
    params: ModelParams,
    ginputs: GraphInputs,
    node_emb: np.ndarray,
    xs: np.ndarray,
    t0s,
) -> list[Tensor]:
    """Per-sample forwards over a batch; rejects non-finite inputs by index."""
    out = []
    for b in range(xs.shape[0]):
        if not np.all(np.isfinite(xs[b])):
            raise ValueError(f"non-finite values in input sample {b}")
        out.append(forward_sample(cfg, params, ginputs, node_emb, xs[b], int(t0s[b])))
    return out


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
        """Inference-only batch forward; no graph is built."""
        with T.no_grad():
            preds = forward_batch(self.cfg, self.params, self.ginputs, self.node_emb, xs, t0s)
        return np.stack([p.data for p in preds])


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


def evaluate(
    model: Forecaster,
    windows: list[SampleWindow],
    horizons: list[int] | None = None,
    mask_eps: float = 1.0,
    batch: int = 64,
) -> dict[str, tuple[float, float, float]]:
    """De-normalized (MAE, RMSE, MAPE%) per horizon prefix plus 'average'.

    A horizon row ``h`` aggregates prediction steps 1..h; 'average' covers
    the full horizon.
    """
    if model.norm is None:
        raise ContractError("model has no normalization stats; train or load first")
    preds, truths = [], []
    for lo in range(0, len(windows), batch):
        chunk = windows[lo : lo + batch]
        xs = np.stack([w.x for w in chunk])
        out = model.predict(xs, [w.t0 for w in chunk])
        preds.append(out)
        truths.append(np.stack([w.y for w in chunk]))
    pred = zscore_invert(np.concatenate(preds), model.norm)
    truth = zscore_invert(np.concatenate(truths), model.norm)

    results: dict[str, tuple[float, float, float]] = {}
    for h in horizons or []:
        if not 1 <= h <= model.cfg.horizon:
            raise ValueError(f"horizon {h} outside 1..{model.cfg.horizon}")
        results[str(h)] = metrics(pred[:, :h], truth[:, :h], mask_eps)
    results["average"] = metrics(pred, truth, mask_eps)
    return results


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
    non-finite loss, keeping the last good checkpoint on disk.
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
    saved_once = False
    for epoch in range(cfg.epochs):
        lr = lr_at_epoch(epoch, cfg.lr, cfg.lr_decay_epochs, cfg.lr_decay_factor)
        started = time.perf_counter()
        order = rng.permutation(len(train_windows))
        epoch_abs_err = 0.0
        for lo in range(0, len(order), cfg.batch_size):
            batch = [train_windows[i] for i in order[lo : lo + cfg.batch_size]]
            zero_grads(params)
            xs = np.stack([w.x for w in batch])
            preds = forward_batch(
                cfg, model.params, model.ginputs, node_emb, xs, [w.t0 for w in batch]
            )
            losses = [
                T.l1_loss(p, Tensor(w.y)) for p, w in zip(preds, batch)
            ]
            total = losses[0]
            for extra in losses[1:]:
                total = T.add(total, extra)
            loss = T.scale(total, 1.0 / len(batch))
            if not np.isfinite(loss.data):
                raise TrainingDiverged(
                    "training loss became non-finite"
                    + (
                        f"; last good checkpoint kept at {checkpoint_path}"
                        if checkpoint_path and saved_once
                        else "; no checkpoint was good yet"
                    ),
                    checkpoint=checkpoint_path if saved_once else None,
                )
            T.backward(loss)
            adam_step(params, state, lr)
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
            saved_once = True
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

    cfg_kwargs = {}
    for f in fields(ModelConfig):
        raw = entry(f"cfg.{f.name}")
        if f.name in _LIST_FIELDS:
            cfg_kwargs[f.name] = [int(v) for v in raw]
        elif f.name in ("lr", "lr_decay_factor"):
            cfg_kwargs[f.name] = float(raw[0])
        else:
            cfg_kwargs[f.name] = int(raw[0])
    cfg = ModelConfig(**cfg_kwargs)

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
