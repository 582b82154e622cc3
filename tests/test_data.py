"""Dataset ingestion, normalization, windowing, splits, and metrics."""

import math

import numpy as np
import pytest

from flowcast.data import (
    DataFormatError,
    DatasetMeta,
    DegenerateDataError,
    assign_windows,
    load_dataset,
    load_meta,
    load_readings,
    make_windows,
    metrics,
    save_predictions,
    save_readings,
    split_boundaries,
    zscore_apply,
    zscore_fit,
    zscore_invert,
)
from flowcast.synth import make_ring_dataset, write_dataset_files


# ---------------------------------------------------------------------------
# Table-level dataset facts (England / PEMSD7)

def test_england_window_count():
    # 35040 steps of 15-minute readings, 12 in / 12 out
    assert 35040 - 24 + 1 == 35017
    assert len(make_windows(np.zeros((240, 2, 1)))) == 240 - 24 + 1


def test_england_meta_derivations():
    meta = DatasetMeta(n_nodes=249, window_minutes=15, start_time="2014-01-01")
    assert meta.slots_per_day == 96
    assert meta.slots_per_day + 7 == 103
    assert meta.start_weekday == 2  # 2014-01-01 was a Wednesday


def test_pemsd7_meta_derivations():
    meta = DatasetMeta(n_nodes=228, window_minutes=5, start_time="2012-05-01")
    assert meta.slots_per_day == 288
    assert meta.slots_per_day + 7 == 295


def test_england_train_span():
    bounds = split_boundaries(35040)
    assert len(bounds["train"]) == 24528  # floor(0.7 * 35040)


# ---------------------------------------------------------------------------
# File round trips

def test_readings_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    readings = rng.normal(size=(7, 3, 2))
    path = tmp_path / "readings.csv"
    save_readings(path, readings)
    assert np.array_equal(load_readings(path, 3, 2), readings)


def test_three_line_file_round_trip(tmp_path):
    path = tmp_path / "readings.csv"
    path.write_text("1,2\n3,4\n5,6\n")
    out = load_readings(path, 2, 1)
    assert out.shape == (3, 2, 1)
    assert out[:, :, 0].tolist() == [[1, 2], [3, 4], [5, 6]]


def test_ragged_row_reports_line(tmp_path):
    path = tmp_path / "readings.csv"
    path.write_text("1,2\n3\n")
    with pytest.raises(DataFormatError, match=":2"):
        load_readings(path, 2, 1)


def test_non_numeric_cell_reports_line(tmp_path):
    path = tmp_path / "readings.csv"
    path.write_text("1,2\n3,oops\n")
    with pytest.raises(DataFormatError, match=":2"):
        load_readings(path, 2, 1)


def test_meta_round_trip(tmp_path):
    path = tmp_path / "meta"
    path.write_text(
        "n_nodes = 4\nchannels = 1\nwindow_minutes = 15\nstart_time = 2014-01-01\n"
    )
    meta = load_meta(path)
    assert meta.n_nodes == 4 and meta.window_minutes == 15


def test_meta_missing_key(tmp_path):
    path = tmp_path / "meta"
    path.write_text("channels = 1\n")
    with pytest.raises(DataFormatError, match="n_nodes"):
        load_meta(path)


def test_load_dataset_checks_node_count(tmp_path):
    ds, graph = make_ring_dataset(n_nodes=5, steps=30)
    paths = write_dataset_files(tmp_path, ds, graph)
    bad_meta = DatasetMeta(n_nodes=6, window_minutes=ds.meta.window_minutes)
    with pytest.raises(DataFormatError, match="6"):
        load_dataset(paths["readings"], paths["adjacency"], bad_meta)


def test_synth_files_round_trip(tmp_path):
    ds, graph = make_ring_dataset(n_nodes=5, steps=40)
    paths = write_dataset_files(tmp_path, ds, graph)
    meta = load_meta(paths["meta"])
    loaded, loaded_graph = load_dataset(paths["readings"], paths["adjacency"], meta)
    assert np.array_equal(loaded.readings, ds.readings)
    assert loaded_graph.n_nodes == graph.n_nodes
    assert np.array_equal(loaded_graph.adjacency, graph.adjacency)


# ---------------------------------------------------------------------------
# Normalization

def test_zscore_round_trip():
    rng = np.random.default_rng(1)
    data = rng.normal(loc=50, scale=9, size=(40, 3, 1))
    stats = zscore_fit(data)
    assert np.max(np.abs(zscore_invert(zscore_apply(data, stats), stats) - data)) < 1e-12


def test_zscore_train_rows_standardized():
    rng = np.random.default_rng(2)
    data = rng.normal(loc=-3, scale=4, size=(500, 2, 1))
    stats = zscore_fit(data)
    normed = zscore_apply(data, stats)
    assert abs(normed.mean()) < 1e-10
    assert abs(normed.std() - 1.0) < 1e-10


def test_zscore_england_mean_maps_to_zero():
    # Table-level sanity: value equal to the fitted mean maps to exactly 0
    stats = (427.0, 382.0)
    assert zscore_apply(np.array([427.0]), stats)[0] == 0.0


def test_zscore_degenerate():
    with pytest.raises(DegenerateDataError):
        zscore_fit(np.full((10, 2, 1), 3.0))


# ---------------------------------------------------------------------------
# Windows and splits

def test_single_window_when_exact_span():
    windows = make_windows(np.zeros((24, 2, 1)), 12, 12)
    assert len(windows) == 1 and windows[0].t0 == 0


def test_window_alignment():
    steps = np.arange(40, dtype=float).reshape(40, 1, 1)
    windows = make_windows(steps, 12, 12)
    w = windows[5]
    assert w.t0 == 5
    assert w.x[-1, 0, 0] == 5 + 11
    assert w.y[0, 0, 0] == 5 + 12


def test_windows_share_steps_with_neighbors():
    windows = make_windows(np.arange(30, dtype=float).reshape(30, 1, 1), 12, 12)
    for a, b in zip(windows, windows[1:]):
        assert b.t0 == a.t0 + 1
        joint_a = np.concatenate([a.x, a.y])[1:]
        joint_b = np.concatenate([b.x, b.y])[:-1]
        assert np.array_equal(joint_a, joint_b)  # 23 shared raw steps


def test_too_short_series():
    with pytest.raises(ValueError):
        make_windows(np.zeros((20, 2, 1)), 12, 12)


def test_split_boundaries_100_steps():
    bounds = split_boundaries(100)
    assert (bounds["train"], bounds["val"], bounds["test"]) == (
        range(0, 70), range(70, 80), range(80, 100),
    )


def test_split_boundaries_require_unit_sum():
    with pytest.raises(ValueError):
        split_boundaries(100, (0.5, 0.2, 0.2))


def test_chronological_split_no_leakage():
    readings = np.zeros((200, 2, 1))
    windows = make_windows(readings, 12, 12)
    split = assign_windows(windows, split_boundaries(200))
    bounds = split_boundaries(200)
    for name in ("train", "val", "test"):
        for idx in split[name]:
            w = windows[idx]
            assert w.t0 >= bounds[name].start
            assert w.t0 + 24 <= bounds[name].stop
    test_start = bounds["test"].start
    assert all(windows[i].t0 >= test_start for i in split["test"])


def test_split_ranges_disjoint_and_ordered():
    windows = make_windows(np.zeros((300, 1, 1)), 12, 12)
    split = assign_windows(windows, split_boundaries(300))
    all_idx = split["train"] + split["val"] + split["test"]
    assert len(set(all_idx)) == len(all_idx)
    assert split["train"][-1] < split["val"][0] < split["test"][0]


def test_assign_windows_drops_straddlers():
    windows = make_windows(np.zeros((100, 1, 1)), 12, 12)
    split = assign_windows(windows, split_boundaries(100))
    assigned = sum(len(v) for v in split.values())
    assert assigned < len(windows)  # boundary windows are dropped, not shared


# ---------------------------------------------------------------------------
# Metrics

def loop_metrics(pred, truth, mask_eps):
    """Independent elementwise-loop reference."""
    abs_sum = 0.0
    sq_sum = 0.0
    pct = []
    count = 0
    for p, t in zip(pred.ravel(), truth.ravel()):
        abs_sum += abs(p - t)
        sq_sum += (p - t) ** 2
        count += 1
        if abs(t) >= mask_eps:
            pct.append(abs((p - t) / t))
    return (
        abs_sum / count,
        (sq_sum / count) ** 0.5,
        100.0 * sum(pct) / len(pct),
    )


def test_metrics_perfect_prediction():
    truth = np.arange(1.0, 7.0).reshape(2, 3)
    assert metrics(truth, truth) == (0.0, 0.0, 0.0)


def test_metrics_hand_example():
    mae, rmse, mape = metrics(np.array([2.0]), np.array([1.0]))
    assert (mae, rmse, mape) == (1.0, 1.0, 100.0)


def test_metrics_match_loop_oracle():
    rng = np.random.default_rng(3)
    pred = rng.normal(loc=10, scale=3, size=(4, 3))
    truth = rng.normal(loc=10, scale=3, size=(4, 3))
    ours = metrics(pred, truth, mask_eps=1.0)
    ref = loop_metrics(pred, truth, mask_eps=1.0)
    assert np.max(np.abs(np.array(ours) - np.array(ref))) < 1e-12


def test_metrics_rmse_at_least_mae():
    rng = np.random.default_rng(4)
    for _ in range(25):
        pred = rng.normal(size=(5, 4)) * rng.uniform(0.5, 10)
        truth = rng.normal(size=(5, 4)) * rng.uniform(0.5, 10) + 3
        mae, rmse, _ = metrics(pred, truth, mask_eps=1e-6)
        assert rmse >= mae - 1e-12


def test_metrics_masking():
    pred = np.array([1.0, 5.0])
    truth = np.array([0.0, 4.0])  # first entry masked (|truth| < 1)
    _, _, mape = metrics(pred, truth, mask_eps=1.0)
    assert mape == pytest.approx(25.0)


def test_metrics_all_masked_error():
    with pytest.warns(RuntimeWarning, match="MAPE undefined") as caught:
        mae, rmse, mape = metrics(np.ones(3), np.zeros(3), mask_eps=1.0)
    assert len(caught) == 1
    assert (mae, rmse) == (1.0, 1.0) and math.isnan(mape)


def test_metrics_shape_mismatch():
    with pytest.raises(ValueError):
        metrics(np.zeros((2, 2)), np.zeros((2, 3)))


def test_save_predictions_format(tmp_path):
    path = tmp_path / "preds.csv"
    save_predictions(path, [(100, 0, 1.5, 2.0), (100, 1, 3.25, 3.0)])
    lines = path.read_text().splitlines()
    assert lines[0] == "t_abs,node,pred,truth"
    assert lines[1] == "100,0,1.5,2.0"
    assert len(lines) == 3
