"""Command-line interface: artifacts, determinism, and exit codes."""

import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from flowcast import cli
from flowcast.attention import DegenerateAttentionError
from flowcast.checkpoint import load_arrays, save_arrays
from flowcast.cli import main
from flowcast.context import load_embeddings, node2vec_walks, save_embeddings, skipgram_train
from flowcast.data import Dataset, DatasetMeta
from flowcast.model import (
    EpochLog,
    Forecaster,
    ModelConfig,
    load_model,
    save_config,
    save_model,
)
from flowcast.optim import AdamState, GradientError
from flowcast.synth import make_ring_dataset, ring_graph, write_dataset_files

TOY_CFG = Path(__file__).resolve().parents[1] / "configs" / "toy.cfg"


@pytest.fixture
def toy_files(tmp_path):
    """Small on-disk dataset plus a fast config file."""
    dataset, graph = make_ring_dataset(n_nodes=5, steps=150, period=24, seed=1)
    paths = write_dataset_files(tmp_path / "data", dataset, graph)
    cfg = ModelConfig(
        width=8, heads=2, head_dim=4, hops=1, gru_layers=1, history=4,
        horizon=4, channels=1, slots_per_day=24, start_weekday=0, lr=3e-3,
        batch_size=16, epochs=1, seed=5,
    )
    cfg_path = tmp_path / "toy.cfg"
    save_config(cfg_path, cfg)
    return paths, cfg_path, tmp_path


def _strip_seconds(csv_text: str) -> list[str]:
    return [",".join(line.split(",")[:-1]) for line in csv_text.splitlines()]


# ---------------------------------------------------------------------------
# embed

def test_embed_writes_expected_rows(tmp_path, capsys):
    graph_path = tmp_path / "edges.csv"
    graph_path.write_text("0,1,1.0\n1,2,1.0\n2,3,1.0\n3,4,1.0\n4,0,1.0\n")
    out = tmp_path / "emb.txt"
    rc = main([
        "embed", "--graph", str(graph_path), "--out", str(out),
        "--walks", "3", "--length", "10", "--epochs", "1", "--seed", "3",
    ])
    assert rc == 0
    assert load_embeddings(out, n_nodes=5).shape == (5, 64)
    assert "5 nodes" in capsys.readouterr().out


def test_embed_same_seed_identical_files(tmp_path):
    graph_path = tmp_path / "edges.csv"
    graph_path.write_text("0,1,1.0\n1,0,1.0\n")
    outs = []
    for name in ("a.txt", "b.txt"):
        out = tmp_path / name
        rc = main([
            "embed", "--graph", str(graph_path), "--out", str(out),
            "--walks", "2", "--length", "8", "--epochs", "1", "--seed", "11",
        ])
        assert rc == 0
        outs.append(out.read_text())
    assert outs[0] == outs[1]


def test_embed_has_no_dim_flag(tmp_path):
    # train --embeddings accepts only the 64 columns embed writes
    graph_path = tmp_path / "edges.csv"
    graph_path.write_text("0,1,1.0\n1,0,1.0\n")
    with pytest.raises(SystemExit) as err:
        main(["embed", "--graph", str(graph_path), "--out", str(tmp_path / "e.txt"),
              "--dim", "32"])
    assert err.value.code == 2


def test_embed_without_flags_writes_the_embeddings_train_builds(tmp_path):
    # train without --embeddings calls the library with its defaults and cfg.seed
    graph = ring_graph(5)
    graph_path = tmp_path / "edges.csv"
    graph_path.write_text("".join(f"{i},{(i + 1) % 5},1.0\n" for i in range(5)))
    out, expected = tmp_path / "e.txt", tmp_path / "expected.txt"
    assert main(["embed", "--graph", str(graph_path), "--out", str(out)]) == 0
    walks = node2vec_walks(graph, seed=0)
    save_embeddings(expected, skipgram_train(walks, seed=0, n_nodes=5))
    assert out.read_bytes() == expected.read_bytes()


@pytest.mark.parametrize(
    "argv, defaults",
    [
        (["embed", "--graph", "g", "--out", "o"],
         dict(p=1.0, q=1.0, walks=10, length=80, window=10, negatives=5, epochs=5, seed=0)),
        (["train", "--config", "c", "--data", "d", "--graph", "g", "--out", "o"],
         dict(mask_eps=1.0)),
        (["eval", "--checkpoint", "c", "--data", "d"], dict(mask_eps=1.0, horizons="3,6,12")),
        (["bench", "--out", "o"], dict(dim=16, repeats=5, budget=64 * 1024 * 1024, seed=0)),
        (["synth", "--out", "o"], dict(nodes=8, steps=2000, period=96, noise=0.05, seed=0)),
    ],
)
def test_cli_defaults_are_the_library_defaults(argv, defaults):
    args = cli.build_parser().parse_args(argv)
    assert {name: getattr(args, name) for name in defaults} == defaults


@pytest.mark.parametrize("flag", ["--walks", "--window", "--negatives", "--epochs"])
def test_embed_rejects_a_count_below_one_before_reading(tmp_path, capsys, flag):
    # the graph file does not exist, so an error from reading it would name it
    out = tmp_path / "e.txt"
    rc = main(["embed", "--graph", str(tmp_path / "missing.csv"), "--out", str(out), flag, "0"])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {flag}: '0' is below 1\n"
    assert not out.exists()


def test_embed_missing_graph_file(tmp_path, capsys):
    missing = tmp_path / "nope.csv"
    rc = main(["embed", "--graph", str(missing), "--out", str(tmp_path / "e.txt")])
    assert rc != 0
    assert "nope.csv" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# synth

def test_synth_writes_dataset(tmp_path, capsys):
    rc = main(["synth", "--out", str(tmp_path / "ring"), "--nodes", "4",
               "--steps", "50"])
    assert rc == 0
    assert (tmp_path / "ring" / "readings.csv").exists()
    assert (tmp_path / "ring" / "adjacency.csv").exists()
    assert (tmp_path / "ring" / "readings.csv.meta").exists()


@pytest.mark.parametrize("flag", ["--nodes", "--steps", "--period"])
def test_synth_rejects_a_count_below_one_before_writing(tmp_path, capsys, flag):
    rc = main(["synth", "--out", str(tmp_path / "ring"), flag, "0"])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {flag}: '0' is below 1\n"
    assert not (tmp_path / "ring").exists()


@pytest.mark.parametrize("noise", ["nan", "inf", "-0.5"])
def test_synth_rejects_a_non_finite_or_negative_noise_before_writing(tmp_path, capsys, noise):
    rc = main(["synth", "--out", str(tmp_path / "ring"), "--noise", noise, "--steps", "50"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --noise: ") and err.count("\n") == 1
    assert not (tmp_path / "ring").exists()


# ---------------------------------------------------------------------------
# train

def test_train_writes_all_artifacts(toy_files, capsys):
    paths, cfg_path, tmp_path = toy_files
    out_dir = tmp_path / "run"
    rc = main([
        "train", "--config", str(cfg_path), "--data", str(paths["readings"]),
        "--graph", str(paths["adjacency"]), "--out", str(out_dir),
        "--mask-eps", "1e-6",
    ])
    assert rc == 0
    assert (out_dir / "model.ckpt").exists()
    metrics = (out_dir / "metrics.csv").read_text().splitlines()
    assert metrics[0] == "epoch,split,mae,rmse,mape,lr,seconds"
    assert len(metrics) >= 2

    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["command"] == "train"
    assert manifest["seed"] == 5
    assert manifest["started_at"] and manifest["ended_at"]
    assert manifest["config"]["width"] == 8

    model, state = load_model(out_dir / "model.ckpt")
    assert state is not None and state.step > 0
    assert model.norm is not None


def test_train_deterministic_metrics(toy_files):
    paths, cfg_path, tmp_path = toy_files
    csvs = []
    for name in ("run_a", "run_b"):
        out_dir = tmp_path / name
        rc = main([
            "train", "--config", str(cfg_path), "--data", str(paths["readings"]),
            "--graph", str(paths["adjacency"]), "--out", str(out_dir),
            "--mask-eps", "1e-6",
        ])
        assert rc == 0
        csvs.append((out_dir / "metrics.csv").read_text())
    # identical modulo the wall-clock seconds column
    assert _strip_seconds(csvs[0]) == _strip_seconds(csvs[1])


def test_train_set_overrides_config(toy_files):
    paths, cfg_path, tmp_path = toy_files
    out_dir = tmp_path / "run_override"
    rc = main([
        "train", "--config", str(cfg_path), "--data", str(paths["readings"]),
        "--graph", str(paths["adjacency"]), "--out", str(out_dir),
        "--mask-eps", "1e-6", "--set", "seed=9",
    ])
    assert rc == 0
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["seed"] == 9


def test_train_bad_set_value_exits_one_with_one_line(toy_files, capsys):
    paths, cfg_path, tmp_path = toy_files
    rc = main([
        "train", "--config", str(cfg_path), "--data", str(paths["readings"]),
        "--graph", str(paths["adjacency"]), "--out", str(tmp_path / "x"),
        "--set", "lr=abc",
    ])
    assert rc == 1
    assert capsys.readouterr().err == "error: --set lr: bad value 'abc'\n"


@pytest.mark.parametrize(
    "pair, message",
    [("epochs=0", "epochs must be >= 1, got 0"),
     ("lr=nan", "lr must be finite and positive, got nan")],
)
def test_train_out_of_range_set_value_exits_one_with_one_line(toy_files, capsys, pair, message):
    paths, cfg_path, tmp_path = toy_files
    rc = main([
        "train", "--config", str(cfg_path), "--data", str(paths["readings"]),
        "--graph", str(paths["adjacency"]), "--out", str(tmp_path / "x"),
        "--set", pair,
    ])
    out = capsys.readouterr()
    assert rc == 1
    assert out.err == f"error: {message}\n" and "checkpoint" not in out.out


@pytest.mark.parametrize(
    "period, message",
    [(24, "24 slots a day from weekday 0, but the config has 96 slots a day from weekday 0"),
     (100, "window of 14 min does not tile a day")],
    ids=["other-calendar", "window-does-not-tile"],
)
def test_train_refuses_a_meta_whose_time_layout_disagrees(tmp_path, capsys, period, message):
    data = tmp_path / "ring"
    assert main(["synth", "--out", str(data), "--steps", "60", "--period", str(period)]) == 0
    capsys.readouterr()
    rc = main([
        "train", "--config", str(TOY_CFG), "--data", str(data / "readings.csv"),
        "--graph", str(data / "adjacency.csv"), "--out", str(tmp_path / "run"),
        "--set", "epochs=1",
    ])
    out = capsys.readouterr()
    assert rc == 1 and not (tmp_path / "run").exists()
    assert out.err == f"error: {data / 'readings.csv.meta'}: {message}\n"


@pytest.mark.parametrize("command", ["train", "eval"])
@pytest.mark.parametrize("eps", ["nan", "inf", "-1", "0"])
def test_a_mask_eps_that_is_not_finite_and_positive_is_rejected_before_reading(
    tmp_path, capsys, command, eps
):
    # no file exists, so an error from reading one would name it instead
    missing = [str(tmp_path / name) for name in ("a.cfg", "a.csv", "a.ckpt")]
    files = {"train": ["--config", missing[0], "--graph", missing[1], "--out", missing[2]],
             "eval": ["--checkpoint", missing[2]]}[command]
    rc = main([command, "--data", missing[1], *files, "--mask-eps", eps])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: --mask-eps: {float(eps)!r} is not a finite value above 0\n"
    )


def test_eval_refuses_a_meta_whose_calendar_disagrees(toy_files, capsys):
    # the checkpoint's one-hots run 96 slots a day from a Monday; the meta's
    # 5-minute windows make 288 from a Wednesday
    paths, _, tmp_path = toy_files
    cfg = ModelConfig(
        width=8, heads=2, head_dim=4, hops=1, gru_layers=1, history=4,
        horizon=4, channels=1, slots_per_day=96, seed=0,
    )
    model = Forecaster.new(cfg, ring_graph(5), np.zeros((5, 64)))
    model.norm = (0.0, 1.0)
    ckpt = tmp_path / "toy.ckpt"
    save_model(ckpt, model)
    meta = tmp_path / "wednesday.meta"
    meta.write_text("n_nodes = 5\nwindow_minutes = 5\nstart_time = 2012-05-02\n")
    rc = main(["eval", "--checkpoint", str(ckpt), "--data", str(paths["readings"]),
               "--meta", str(meta)])
    out = capsys.readouterr()
    assert rc == 1 and out.out == ""
    assert out.err == (
        f"error: {meta}: 288 slots a day from weekday 2, but the config has 96 slots "
        "a day from weekday 0\n"
    )


def test_train_all_masked_validation_still_checkpoints(toy_files):
    # this ring's readings lie within +-0.6, below the default --mask-eps 1.0
    paths, cfg_path, tmp_path = toy_files
    out_dir = tmp_path / "run_masked"
    with pytest.warns(RuntimeWarning, match="MAPE undefined"):
        rc = main([
            "train", "--config", str(cfg_path), "--data", str(paths["readings"]),
            "--graph", str(paths["adjacency"]), "--out", str(out_dir),
        ])
    assert rc == 0
    assert (out_dir / "model.ckpt").exists()
    val = [line.split(",") for line in (out_dir / "metrics.csv").read_text().splitlines()
           if ",val," in line]
    header = (out_dir / "metrics.csv").read_text().splitlines()[0].split(",")
    assert val and all(math.isfinite(float(row[header.index("mae")])) for row in val)
    assert all(math.isnan(float(row[header.index("mape")])) for row in val)


def test_train_rejects_unknown_config_key(toy_files, capsys):
    paths, _, tmp_path = toy_files
    bad_cfg = tmp_path / "bad.cfg"
    bad_cfg.write_text("widht = 8\n")
    rc = main([
        "train", "--config", str(bad_cfg), "--data", str(paths["readings"]),
        "--graph", str(paths["adjacency"]), "--out", str(tmp_path / "x"),
    ])
    assert rc != 0
    assert "widht" in capsys.readouterr().err


@pytest.mark.parametrize(
    "error",
    [DegenerateAttentionError("attention normalizer degenerate at query row 3"),
     GradientError("non-finite gradient in parameter 'input.w'")],
)
def test_train_numeric_failure_exits_one_and_keeps_metrics(
    toy_files, monkeypatch, capsys, error
):
    paths, cfg_path, tmp_path = toy_files
    emb_path = tmp_path / "emb.txt"
    save_embeddings(emb_path, np.zeros((5, 64)))

    def failing_train(cfg, dataset, graph, node_emb, checkpoint_path=None, log_fn=None,
                      mask_eps=1.0):
        log_fn(EpochLog(0, "train", 1.0, math.nan, math.nan, cfg.lr, 0.1))
        raise error

    monkeypatch.setattr(cli, "train", failing_train)
    out_dir = tmp_path / "run_fail"
    rc = main([
        "train", "--config", str(cfg_path), "--data", str(paths["readings"]),
        "--graph", str(paths["adjacency"]), "--embeddings", str(emb_path),
        "--out", str(out_dir),
    ])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and str(error) in err
    metrics = (out_dir / "metrics.csv").read_text().splitlines()
    assert metrics[0] == "epoch,split,mae,rmse,mape,lr,seconds"
    assert metrics[1].startswith("0,train,1.000000")


def test_train_with_precomputed_embeddings(toy_files):
    paths, cfg_path, tmp_path = toy_files
    emb_path = tmp_path / "emb.txt"
    rc = main([
        "embed", "--graph", str(paths["adjacency"]), "--out", str(emb_path),
        "--walks", "2", "--length", "10", "--epochs", "1",
    ])
    assert rc == 0
    rc = main([
        "train", "--config", str(cfg_path), "--data", str(paths["readings"]),
        "--graph", str(paths["adjacency"]), "--embeddings", str(emb_path),
        "--out", str(tmp_path / "run_emb"), "--mask-eps", "1e-6",
    ])
    assert rc == 0


# ---------------------------------------------------------------------------
# eval

def test_eval_on_trained_checkpoint(toy_files, capsys):
    paths, cfg_path, tmp_path = toy_files
    out_dir = tmp_path / "run_eval"
    assert main([
        "train", "--config", str(cfg_path), "--data", str(paths["readings"]),
        "--graph", str(paths["adjacency"]), "--out", str(out_dir),
        "--mask-eps", "1e-6",
    ]) == 0
    capsys.readouterr()
    metrics_out = tmp_path / "eval.csv"
    rc = main([
        "eval", "--checkpoint", str(out_dir / "model.ckpt"),
        "--data", str(paths["readings"]), "--split", "test",
        "--horizons", "2,4", "--mask-eps", "1e-6", "--out", str(metrics_out),
    ])
    assert rc == 0
    lines = metrics_out.read_text().splitlines()
    assert lines[0] == "horizon,mae,rmse,mape"
    assert [line.split(",")[0] for line in lines[1:]] == ["2", "4", "average"]


def test_eval_predictions_come_from_the_one_predict_call(toy_files, monkeypatch):
    paths, _, tmp_path = toy_files
    cfg = ModelConfig(
        width=8, heads=2, head_dim=4, hops=1, gru_layers=1, history=4,
        horizon=4, channels=1, slots_per_day=24, seed=0,
    )
    model = Forecaster.new(cfg, ring_graph(5), np.zeros((5, 64)))
    model.norm = (10.0, 2.0)
    ckpt = tmp_path / "model.ckpt"
    save_model(ckpt, model)
    windows_per_call = []
    predict = Forecaster.predict

    def counting_predict(self, xs, t0s):
        windows_per_call.append(len(xs))
        return predict(self, xs, t0s)

    monkeypatch.setattr(Forecaster, "predict", counting_predict)
    metrics_out, preds_out = tmp_path / "eval.csv", tmp_path / "preds.csv"
    rc = main([
        "eval", "--checkpoint", str(ckpt), "--data", str(paths["readings"]),
        "--horizons", "2", "--mask-eps", "1e-6", "--out", str(metrics_out),
        "--predictions", str(preds_out),
    ])
    assert rc == 0
    assert len(windows_per_call) == 1
    lines = preds_out.read_text().splitlines()
    assert lines[0] == "t_abs,node,channel,pred,truth"
    assert len(lines) - 1 == windows_per_call[0] * cfg.horizon * 5
    # the CSV holds the predictions the metrics were computed from
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    average_mae = float(metrics_out.read_text().splitlines()[-1].split(",")[1])
    assert abs(np.mean(np.abs(rows[:, 3] - rows[:, 4])) - average_mae) <= 5e-7


def test_eval_predictions_hold_every_channel(tmp_path):
    dataset, graph = make_ring_dataset(n_nodes=5, steps=150, period=24, seed=1)
    readings = np.concatenate([dataset.readings, 3.0 * dataset.readings + 10.0], axis=-1)
    meta = DatasetMeta(n_nodes=5, channels=2, window_minutes=60, start_time="2014-01-06")
    paths = write_dataset_files(tmp_path / "data", Dataset(readings=readings, meta=meta), graph)
    cfg = ModelConfig(
        width=8, heads=2, head_dim=4, hops=1, gru_layers=1, history=4,
        horizon=4, channels=2, slots_per_day=24, seed=0,
    )
    model = Forecaster.new(cfg, graph, np.zeros((5, 64)))
    model.norm = (10.0, 2.0)
    save_model(tmp_path / "model.ckpt", model)
    metrics_out, preds_out = tmp_path / "eval.csv", tmp_path / "preds.csv"
    rc = main([
        "eval", "--checkpoint", str(tmp_path / "model.ckpt"), "--data", str(paths["readings"]),
        "--horizons", "2", "--mask-eps", "1e-6", "--out", str(metrics_out),
        "--predictions", str(preds_out),
    ])
    assert rc == 0
    lines = preds_out.read_text().splitlines()
    assert lines[0] == "t_abs,node,channel,pred,truth"
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    assert np.array_equal(np.unique(rows[:, 2]), [0.0, 1.0])
    average_mae = float(metrics_out.read_text().splitlines()[-1].split(",")[1])
    assert abs(np.mean(np.abs(rows[:, 3] - rows[:, 4])) - average_mae) <= 5e-7


def test_eval_predictions_stream_their_rows(tmp_path, monkeypatch):
    # what eval allocates after its one forecast is the metrics' arrays (about
    # 25 B a row) and the CSV writer; rows built into one list first would
    # add about 136 B a row
    dataset, graph = make_ring_dataset(n_nodes=40, steps=1500, period=24, seed=1)
    paths = write_dataset_files(tmp_path / "data", dataset, graph)
    cfg = ModelConfig(
        width=8, heads=2, head_dim=4, hops=1, gru_layers=1, history=4,
        horizon=4, channels=1, slots_per_day=24, seed=0,
    )
    model = Forecaster.new(cfg, graph, np.zeros((40, 64)))
    model.norm = (10.0, 2.0)
    save_model(tmp_path / "model.ckpt", model)
    forecast, after = cli.forecast, []

    def forecast_then_reset_peak(*args):
        out = forecast(*args)
        tracemalloc.reset_peak()
        after.append(tracemalloc.get_traced_memory()[0])
        return out

    monkeypatch.setattr(cli, "forecast", forecast_then_reset_peak)
    preds_out = tmp_path / "preds.csv"
    tracemalloc.start()
    try:
        rc = main([
            "eval", "--checkpoint", str(tmp_path / "model.ckpt"), "--data", str(paths["readings"]),
            "--horizons", "2", "--mask-eps", "1e-6", "--predictions", str(preds_out),
        ])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0
    rows = len(preds_out.read_text().splitlines()) - 1
    assert rows > 40_000
    assert peak - after[0] < 50 * rows, (rows, peak - after[0])


def test_eval_perfect_oracle_gives_zero_metrics(tmp_path, capsys):
    # test span is constant at the train-span mean; a zeroed model predicts
    # exactly that mean after de-normalization
    steps, n = 100, 4
    rng = np.random.default_rng(0)
    readings = np.empty((steps, n, 1))
    readings[:80] = rng.uniform(10, 30, (80, n, 1))
    mean = readings[:70].mean()
    readings[80:] = mean

    from flowcast.data import Dataset, DatasetMeta, zscore_fit
    from flowcast.synth import ring_graph, write_dataset_files

    meta = DatasetMeta(n_nodes=n, channels=1, window_minutes=60,
                       start_time="2014-01-06")
    dataset = Dataset(readings=readings, meta=meta)
    graph = ring_graph(n)
    paths = write_dataset_files(tmp_path / "data", dataset, graph)

    cfg = ModelConfig(
        width=8, heads=2, head_dim=4, hops=1, gru_layers=1, history=4,
        horizon=4, channels=1, slots_per_day=24, seed=0,
    )
    model = Forecaster.new(cfg, graph, np.zeros((n, 64)))
    for p in model.params.named().values():
        p.data = np.zeros_like(p.data)
    model.norm = zscore_fit(readings[:70])
    ckpt = tmp_path / "oracle.ckpt"
    save_model(ckpt, model)

    rc = main([
        "eval", "--checkpoint", str(ckpt), "--data", str(paths["readings"]),
        "--split", "test", "--horizons", "2", "--mask-eps", "1.0",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    for line in out.splitlines():
        assert "MAE 0.0000" in line and "RMSE 0.0000" in line


def test_eval_all_masked_ring_reports_mae_and_rmse(toy_files, capsys):
    # this ring's readings lie within +-0.6, below the default --mask-eps 1.0
    paths, _, tmp_path = toy_files
    cfg = ModelConfig(
        width=8, heads=2, head_dim=4, hops=1, gru_layers=1, history=4,
        horizon=4, channels=1, slots_per_day=24, seed=0,
    )
    model = Forecaster.new(cfg, ring_graph(5), np.zeros((5, 64)))
    model.norm = (0.0, 1.0)
    ckpt = tmp_path / "masked.ckpt"
    save_model(ckpt, model)
    metrics_out = tmp_path / "masked.csv"
    with pytest.warns(RuntimeWarning, match="MAPE undefined"):
        rc = main([
            "eval", "--checkpoint", str(ckpt), "--data", str(paths["readings"]),
            "--horizons", "2,4", "--out", str(metrics_out),
        ])
    assert rc == 0
    assert capsys.readouterr().err == ""
    rows = [line.split(",") for line in metrics_out.read_text().splitlines()[1:]]
    assert [row[0] for row in rows] == ["2", "4", "average"]
    for _, mae, rmse, mape in rows:
        assert float(mae) > 0 and float(rmse) > 0 and math.isnan(float(mape))


@pytest.mark.parametrize(
    "horizons, message",
    [
        ("3,x", "--horizons: 'x' is not an integer"),
        ("3,3", "--horizons: '3' is given twice"),
        ("0,3", "--horizons: '0' is below 1"),
    ],
)
def test_eval_rejects_bad_horizons_before_reading_any_file(tmp_path, capsys, horizons, message):
    # neither file exists, so an error from reading one would name it instead
    rc = main([
        "eval", "--checkpoint", str(tmp_path / "missing.ckpt"),
        "--data", str(tmp_path / "missing.csv"), "--horizons", horizons,
    ])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "damage",
    ["truncate", "adam.m.input.w", "adam.v.input.w", "node.embeddings", "norm.std"],
)
def test_eval_damaged_checkpoint_exits_one_with_one_line(toy_files, capsys, damage):
    paths, _, tmp_path = toy_files
    cfg = ModelConfig(
        width=8, heads=2, head_dim=4, hops=1, gru_layers=1, history=4,
        horizon=4, channels=1, slots_per_day=24, seed=0,
    )
    model = Forecaster.new(cfg, ring_graph(5), np.zeros((5, 64)))
    model.norm = (0.0, 1.0)
    ckpt = tmp_path / "damaged.ckpt"
    save_model(ckpt, model, AdamState.for_params(model.params.named()))
    if damage == "truncate":
        ckpt.write_bytes(ckpt.read_bytes()[:-4])  # inside the last array's data
    else:
        arrays = load_arrays(ckpt)
        del arrays[damage]
        save_arrays(ckpt, arrays)

    rc = main(["eval", "--checkpoint", str(ckpt), "--data", str(paths["readings"])])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "damaged.ckpt" in err
    if damage != "truncate":
        assert damage in err


def test_eval_node_count_mismatch(toy_files, tmp_path, capsys):
    paths, cfg_path, _ = toy_files
    other, other_graph = make_ring_dataset(n_nodes=7, steps=120, period=24)
    other_paths = write_dataset_files(tmp_path / "other", other, other_graph)
    out_dir = tmp_path / "run_mismatch"
    assert main([
        "train", "--config", str(cfg_path), "--data", str(paths["readings"]),
        "--graph", str(paths["adjacency"]), "--out", str(out_dir),
        "--mask-eps", "1e-6",
    ]) == 0
    rc = main([
        "eval", "--checkpoint", str(out_dir / "model.ckpt"),
        "--data", str(other_paths["readings"]),
    ])
    assert rc == 1
    assert capsys.readouterr().err == "error: checkpoint was trained on 5 nodes, data has 7\n"


# ---------------------------------------------------------------------------
# bench

def test_bench_writes_rows(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    rc = main(["bench", "--sizes", "64,128", "--dim", "8", "--repeats", "2",
               "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "m,variant,seconds,bytes"
    assert len(lines) == 1 + 2 * 2  # two sizes x two variants


def test_bench_budget_skips_quadratic_and_exits_zero(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    rc = main(["bench", "--sizes", "64,128", "--dim", "8", "--repeats", "2",
               "--budget", "10000", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    variants = [(line.split(",")[0], line.split(",")[1]) for line in lines[1:]]
    assert ("128", "quadratic") not in variants
    assert ("128", "linear") in variants
    assert "skip quadratic at m=128" in capsys.readouterr().out


@pytest.mark.parametrize(
    "args, message",
    [
        (["--sizes", "64,x"], "--sizes: 'x' is not an integer"),
        (["--sizes", "0"], "--sizes: '0' is below 1"),
        (["--sizes", "64,-5"], "--sizes: '-5' is below 1"),
        (["--dim", "0"], "--dim: '0' is below 1"),
        (["--repeats", "0"], "--repeats: '0' is below 1"),
        (["--repeats", "-2"], "--repeats: '-2' is below 1"),
    ],
)
def test_bench_rejects_bad_arguments_before_running(tmp_path, capsys, args, message):
    out = tmp_path / "bench.csv"
    rc = main(["bench", "--sizes", "64", *args, "--out", str(out)])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n" and captured.out == ""
    assert not out.exists()
