"""Dataset ingestion, normalization, windowing, splitting, and metrics."""

from __future__ import annotations

import datetime as dt
import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .graph import RoadGraph, load_adjacency

__all__ = [
    "DatasetMeta",
    "Dataset",
    "SampleWindow",
    "DataFormatError",
    "DegenerateDataError",
    "load_meta",
    "load_readings",
    "save_readings",
    "load_dataset",
    "zscore_fit",
    "zscore_apply",
    "zscore_invert",
    "make_windows",
    "split_boundaries",
    "assign_windows",
    "metrics",
    "save_predictions",
]


class DataFormatError(ValueError):
    """Readings or meta file could not be parsed."""


class DegenerateDataError(ValueError):
    """Data has no variance."""


@dataclass
class DatasetMeta:
    """Sidecar description of a readings file."""

    n_nodes: int
    channels: int = 1
    window_minutes: int = 5
    start_time: str = "2012-05-01"

    @property
    def slots_per_day(self) -> int:
        if 1440 % self.window_minutes:
            raise ValueError(f"window of {self.window_minutes} min does not tile a day")
        return 1440 // self.window_minutes

    @property
    def start_weekday(self) -> int:
        return dt.date.fromisoformat(self.start_time).weekday()


@dataclass
class Dataset:
    """Sensor readings plus normalization stats and raw-index split ranges."""

    readings: np.ndarray  # (TS, N, C)
    meta: DatasetMeta
    norm: tuple[float, float] | None = None  # (mean, std) fitted on train span
    splits: dict[str, range] = field(default_factory=dict)

    @property
    def n_steps(self) -> int:
        return self.readings.shape[0]


@dataclass
class SampleWindow:
    """History x, immediately-following future y, and the absolute start index."""

    x: np.ndarray  # (T_h, N, C)
    y: np.ndarray  # (T_p, N, C)
    t0: int


# ---------------------------------------------------------------------------
# File formats

def load_meta(path) -> DatasetMeta:
    """Parse a `key = value` meta file (n_nodes, channels, window_minutes,
    start_time)."""
    path = Path(path)
    values: dict[str, str] = {}
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DataFormatError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    try:
        return DatasetMeta(
            n_nodes=int(values["n_nodes"]),
            channels=int(values.get("channels", "1")),
            window_minutes=int(values.get("window_minutes", "5")),
            start_time=values.get("start_time", "2012-05-01"),
        )
    except KeyError as err:
        raise DataFormatError(f"{path}: missing required key {err}") from None
    except ValueError as err:
        raise DataFormatError(f"{path}: {err}") from None


def load_readings(path, n_nodes: int, channels: int = 1) -> np.ndarray:
    """Parse a headerless readings file: one time step per line,
    ``n_nodes * channels`` comma-separated values (channel blocks)."""
    path = Path(path)
    expected = n_nodes * channels
    rows = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            cells = line.split(",")
            if len(cells) != expected:
                raise DataFormatError(
                    f"{path}:{lineno}: expected {expected} values, found {len(cells)}"
                )
            try:
                rows.append([float(c) for c in cells])
            except ValueError:
                raise DataFormatError(
                    f"{path}:{lineno}: non-numeric cell in {line[:40]!r}..."
                ) from None
    if not rows:
        raise DataFormatError(f"{path}: empty readings file")
    flat = np.asarray(rows, dtype=np.float64)
    # channel blocks: first n_nodes columns are channel 0, and so on
    return flat.reshape(-1, channels, n_nodes).transpose(0, 2, 1)


def save_readings(path, readings: np.ndarray) -> None:
    readings = np.asarray(readings, dtype=np.float64)
    steps, n_nodes, channels = readings.shape
    flat = readings.transpose(0, 2, 1).reshape(steps, n_nodes * channels)
    np.savetxt(path, flat, fmt="%.17g", delimiter=",")


def load_dataset(readings_path, adjacency_path, meta: DatasetMeta) -> tuple[Dataset, RoadGraph]:
    graph = load_adjacency(adjacency_path)
    if graph.n_nodes != meta.n_nodes:
        raise DataFormatError(
            f"adjacency has {graph.n_nodes} nodes but meta declares {meta.n_nodes}"
        )
    readings = load_readings(readings_path, meta.n_nodes, meta.channels)
    return Dataset(readings=readings, meta=meta), graph


# ---------------------------------------------------------------------------
# Normalization

def zscore_fit(data: np.ndarray) -> tuple[float, float]:
    mean = float(np.mean(data))
    std = float(np.std(data))
    if std == 0.0:
        raise DegenerateDataError("constant series: standard deviation is zero")
    return mean, std


def zscore_apply(data: np.ndarray, stats: tuple[float, float]) -> np.ndarray:
    mean, std = stats
    return (data - mean) / std


def zscore_invert(data: np.ndarray, stats: tuple[float, float]) -> np.ndarray:
    mean, std = stats
    return data * std + mean


# ---------------------------------------------------------------------------
# Windowing and splits

def make_windows(
    readings: np.ndarray, history: int = 12, horizon: int = 12
) -> list[SampleWindow]:
    """All stride-1 windows: x covers [t0, t0+history), y the next horizon."""
    total = readings.shape[0]
    span = history + horizon
    if total < span:
        raise ValueError(f"need at least {span} steps, have {total}")
    return [
        SampleWindow(
            x=readings[t0 : t0 + history],
            y=readings[t0 + history : t0 + span],
            t0=t0,
        )
        for t0 in range(total - span + 1)
    ]


def split_boundaries(
    total_steps: int, fractions: tuple[float, float, float] = (0.7, 0.1, 0.2)
) -> dict[str, range]:
    """Contiguous raw-index ranges for train/val/test, floor-rounded."""
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ValueError(f"fractions must sum to 1, got {fractions}")
    train_end = int(fractions[0] * total_steps)
    val_end = train_end + int(fractions[1] * total_steps)
    return {
        "train": range(0, train_end),
        "val": range(train_end, val_end),
        "test": range(val_end, total_steps),
    }


def assign_windows(
    windows: list[SampleWindow], bounds: dict[str, range]
) -> dict[str, list[int]]:
    """Assign window indices to raw-index ranges.

    A window belongs to a range only when its full span (history and
    future) lies inside it, so no test window ever reads a training-time
    step and vice versa. Boundary-straddling windows are dropped.
    """
    assignment: dict[str, list[int]] = {name: [] for name in bounds}
    for idx, win in enumerate(windows):
        span = win.x.shape[0] + win.y.shape[0]
        for name, rng in bounds.items():
            if win.t0 >= rng.start and win.t0 + span <= rng.stop:
                assignment[name].append(idx)
                break
    return assignment


# ---------------------------------------------------------------------------
# Metrics

def metrics(
    pred: np.ndarray, truth: np.ndarray, mask_eps: float = 1.0
) -> tuple[float, float, float]:
    """(MAE, RMSE, MAPE%) over de-normalized values.

    MAPE averages |error/truth| only where |truth| >= mask_eps; zeros in
    flow data would otherwise blow the percentage up. When every entry is
    masked, MAPE is NaN and a RuntimeWarning says so.
    """
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if pred.shape != truth.shape:
        raise ValueError(f"metrics: shapes differ, {pred.shape} vs {truth.shape}")
    diff = pred - truth
    mae = float(np.mean(np.abs(diff)))
    rmse = float(np.sqrt(np.mean(diff * diff)))
    mask = np.abs(truth) >= mask_eps
    if not mask.any():
        warnings.warn(
            f"MAPE undefined: every |truth| is below mask_eps={mask_eps:g}; "
            "reporting it as NaN",
            RuntimeWarning,
        )
        return mae, rmse, math.nan
    mape = float(np.mean(np.abs(diff[mask] / truth[mask]))) * 100.0
    return mae, rmse, mape


def save_predictions(path, rows: list[tuple[int, int, float, float]]) -> None:
    """CSV export, one `t_abs,node,pred,truth` line per entry."""
    with open(path, "w") as fh:
        fh.write("t_abs,node,pred,truth\n")
        for t_abs, node, pred, truth in rows:
            fh.write(f"{t_abs},{node},{pred!r},{truth!r}\n")
