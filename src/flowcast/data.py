"""Dataset ingestion, normalization, windowing, splitting, and metrics."""

from __future__ import annotations

import datetime as dt
import math
import warnings
from collections.abc import Iterable
from dataclasses import dataclass, field, fields
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

SPLIT_FRACTIONS = (0.7, 0.1, 0.2)  # train / val / test shares of the raw steps
MASK_EPS = 1.0  # the smallest |truth| that MAPE divides by


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

def _key_value_lines(path, error):
    """Yield ``(lineno, key, value)`` for each ``key = value`` line of a
    text file, skipping blank and ``#`` lines. Text that is not UTF-8
    raises ``error`` naming ``path``, a line without ``=`` one naming
    ``path:line``."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise error(f"{path}: not UTF-8 text") from None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise error(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        yield lineno, key.strip(), value.strip()


def _check_finite_cells(path, table: np.ndarray, sep, error) -> None:
    """Raise ``error`` naming ``path:line`` and the text of the first
    non-finite cell of ``table``, whose rows were parsed from the non-blank
    lines of ``path`` split on ``sep``. The file is read again only then."""
    bad = ~np.isfinite(table)
    if not bad.any():
        return
    row, col = np.unravel_index(np.argmax(bad), bad.shape)
    with open(path, encoding="utf-8") as fh:
        lines = [(lineno, raw) for lineno, raw in enumerate(fh, start=1) if raw.strip()]
    lineno, raw = lines[row]
    raise error(f"{path}:{lineno}: non-finite value {raw.strip().split(sep)[col].strip()!r}")


def _meta_value(key: str, value: str):
    """A meta field from its text; a ValueError says what it must be."""
    if key == "start_time":
        try:
            dt.date.fromisoformat(value)
        except ValueError:
            raise ValueError("start_time must be an ISO date (YYYY-MM-DD)") from None
        return value
    try:
        if int(value) >= 1:
            return int(value)
    except ValueError:
        pass
    raise ValueError(f"{key} must be a positive integer")


def load_meta(path) -> DatasetMeta:
    """Parse a `key = value` meta file (n_nodes, channels, window_minutes,
    start_time). An unknown key, a count below 1 or a start time that is
    not an ISO date raises :class:`DataFormatError` naming ``path:line``."""
    path = Path(path)
    known = {f.name for f in fields(DatasetMeta)}
    values: dict = {}
    for lineno, key, value in _key_value_lines(path, DataFormatError):
        if key not in known:
            raise DataFormatError(f"{path}:{lineno}: unknown meta key '{key}'")
        try:
            values[key] = _meta_value(key, value)
        except ValueError as err:
            raise DataFormatError(f"{path}:{lineno}: {err}, got {value!r}") from None
    if "n_nodes" not in values:
        raise DataFormatError(f"{path}: missing required key 'n_nodes'")
    return DatasetMeta(**values)


def _read_table(path, sep, width: int, error) -> np.ndarray:
    """The non-blank lines of a text file of numbers as a (lines, width)
    array, each line split on ``sep`` (``None``: whitespace) into ``width``
    cells. A line of another width, a non-numeric cell or a non-finite
    value raises ``error`` naming ``path:line``, and text that is not UTF-8
    one naming ``path``."""
    rows = []
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line:
                    continue
                cells = line.split(sep)
                if len(cells) != width:
                    raise error(f"{path}:{lineno}: expected {width} values, found {len(cells)}")
                try:
                    rows.append([float(c) for c in cells])
                except ValueError:
                    for cell in map(str.strip, cells):
                        try:
                            float(cell)
                        except ValueError:
                            raise error(f"{path}:{lineno}: non-numeric value {cell!r}") from None
    except UnicodeDecodeError:
        raise error(f"{path}: not UTF-8 text") from None
    table = np.asarray(rows, dtype=np.float64).reshape(len(rows), width)
    _check_finite_cells(path, table, sep, error)
    return table


def load_readings(path, n_nodes: int, channels: int = 1) -> np.ndarray:
    """Parse a headerless readings file: one time step per line,
    ``n_nodes * channels`` comma-separated values (channel blocks).

    A malformed line or a non-finite value raises :class:`DataFormatError`
    naming ``path:line``, and text that is not UTF-8 one naming ``path``."""
    path = Path(path)
    flat = _read_table(path, ",", n_nodes * channels, DataFormatError)
    if not len(flat):
        raise DataFormatError(f"{path}: empty readings file")
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

def make_windows(readings: np.ndarray, history: int, horizon: int) -> list[SampleWindow]:
    """All stride-1 windows: x covers [t0, t0+history), y the next horizon (each >= 1)."""
    for name, steps in (("history", history), ("horizon", horizon)):
        if steps < 1:
            raise ValueError(f"{name} must be >= 1, got {steps}")
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
    total_steps: int, fractions: tuple[float, float, float] = SPLIT_FRACTIONS
) -> dict[str, range]:
    """Contiguous raw-index ranges for train/val/test, floor-rounded."""
    if len(fractions) != 3 or not all(0.0 <= f <= 1.0 for f in fractions):
        raise ValueError(f"fractions must be three values in [0, 1], got {fractions}")
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
    pred: np.ndarray, truth: np.ndarray, mask_eps: float = MASK_EPS
) -> tuple[float, float, float]:
    """(MAE, RMSE, MAPE%) over de-normalized values.

    MAPE averages |error/truth| only where |truth| >= mask_eps; zeros in
    flow data would otherwise blow the percentage up. When every entry is
    masked, MAPE is NaN and a RuntimeWarning says so. A bad ``mask_eps`` raises ValueError.
    """
    _check_mask_eps(mask_eps)
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


def _check_mask_eps(mask_eps: float, name: str = "mask_eps") -> None:
    """Reject a bound at which MAPE would count zero readings or read NaN."""
    if not (math.isfinite(mask_eps) and mask_eps > 0):
        raise ValueError(f"{name}: {mask_eps!r} is not a finite value above 0")


def save_predictions(path, rows: Iterable[tuple[int, int, int, float, float]]) -> None:
    """CSV export, one `t_abs,node,channel,pred,truth` line per entry,
    written as ``rows`` yields it."""
    with open(path, "w") as fh:
        fh.write("t_abs,node,channel,pred,truth\n")
        for t_abs, node, channel, pred, truth in rows:
            fh.write(f"{t_abs},{node},{channel},{pred!r},{truth!r}\n")
