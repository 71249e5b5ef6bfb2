"""Single-run training, the seeded grid search, and best-config selection."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cellcast
from cellcast import (
    BinnedCellSeries,
    GridSpec,
    TrainConfig,
    grid_search,
    naive_baseline,
    prepare_dataset,
    train_once,
)
from cellcast.errors import ConfigError, UnknownCluster
from cellcast.training import (
    GridResult,
    TrainRunResult,
    config_label,
    kind_winners,
    load_results_csv,
    naive_last_value,
    save_results_csv,
    save_summary_json,
    select_best,
    predict_test_split,
    train_best_network,
    validate_grid,
    validate_train_config,
)

SPAN_START = 1_383_260_400_000
BIN = 1_800_000

FAST = TrainConfig(epochs=2, batch_size=16, runs=2, base_seed=0)


# prepare_dataset's chronological split of bumpy_series(): the first
# floor(0.8 * 144) = 115 bins train.
N_TRAIN = int(np.floor(0.8 * 3 * 48))


def bumpy_series(n_days=3, cell_id=0):
    t = np.arange(n_days * 48)
    values = 20.0 + 10.0 * np.sin(2.0 * np.pi * t / 48.0)
    return BinnedCellSeries(cell_id=cell_id, span_start=SPAN_START, values=values)


@pytest.fixture
def dataset():
    return prepare_dataset(bumpy_series())


class TestPrepareDataset:
    def test_split_and_window_counts(self, dataset):
        # 144 bins -> 115 train / 29 test, each windowed independently
        assert dataset.train.inputs.shape == (N_TRAIN - 4, 4)
        assert dataset.test.inputs.shape == (144 - N_TRAIN - 4, 4)
        values = bumpy_series().values
        np.testing.assert_allclose(dataset.scaler.inverse(dataset.train.targets), values[4:N_TRAIN])
        np.testing.assert_allclose(dataset.scaler.inverse(dataset.test.targets),
                                   values[N_TRAIN + 4:])

    def test_scaler_fit_on_train_only(self, dataset):
        assert dataset.train.targets.min() >= 0.0 and dataset.train.targets.max() <= 1.0


class TestConfigValidation:
    def test_defaults_are_valid(self):
        validate_train_config(TrainConfig())
        validate_grid(GridSpec())

    @pytest.mark.parametrize("field,value", [("epochs", 0), ("batch_size", 0), ("runs", 0)])
    def test_bad_train_config(self, field, value):
        with pytest.raises(ConfigError):
            validate_train_config(dataclasses.replace(TrainConfig(), **{field: value}))

    @pytest.mark.parametrize(
        "field,value",
        [
            ("hidden_layers", ()),
            ("units", ()),
            ("cell_kinds", ()),
            ("units", (0,)),
            ("hidden_layers", (0,)),
            ("cell_kinds", ("rnn",)),
        ],
    )
    def test_bad_grid(self, field, value):
        with pytest.raises(ConfigError):
            validate_grid(dataclasses.replace(GridSpec(), **{field: value}))

    @pytest.mark.parametrize("grid,message", [
        (GridSpec((1, 1), (2,), ("gru",)), "grid axis hidden_layers repeats 1"),
        (GridSpec((1,), (2, 3, 2), ("gru",)), "grid axis units repeats 2"),
        (GridSpec((1,), (2,), ("lstm", "LSTM")), "grid axis cell_kinds repeats 'lstm'"),
    ])
    def test_grid_search_rejects_a_repeated_axis_value(self, dataset, grid, message):
        with pytest.raises(ConfigError, match=f"^{message}$"):
            grid_search(grid, [dataset], TrainConfig(epochs=1, runs=1))

    @pytest.mark.parametrize("workers", [0, -1])
    def test_grid_search_rejects_workers_below_one(self, dataset, workers):
        with pytest.raises(ConfigError, match="workers must be >= 1"):
            grid_search(GridSpec((1,), (2,), ("gru",)), [dataset], TrainConfig(epochs=1, runs=1),
                        workers=workers)


class TestLabels:
    def test_label_format(self):
        assert config_label("lstm", 3, 1, 200) == "LSTM-3-1L-200U"
        assert config_label("gru", 12, 4, 50) == "GRU-12-4L-50U"


class TestTrainOnce:
    def test_result_shape(self, dataset):
        result = train_once("gru", 1, 4, dataset, FAST, seed=3, run=1)
        assert result.label == "GRU-0-1L-4U"
        assert len(result.loss_trace) == FAST.epochs
        assert result.rmse >= 0.0 and result.mae >= 0.0
        assert result.mae <= result.rmse + 1e-15
        assert result.seconds >= 0.0
        assert result.seed == 3 and result.run == 1

    def test_deterministic_per_seed(self, dataset):
        a = train_once("lstm", 1, 4, dataset, FAST, seed=5)
        b = train_once("lstm", 1, 4, dataset, FAST, seed=5)
        assert a.rmse == b.rmse and a.mae == b.mae
        assert a.loss_trace == b.loss_trace

    def test_seed_changes_outcome(self, dataset):
        a = train_once("lstm", 1, 4, dataset, FAST, seed=5)
        b = train_once("lstm", 1, 4, dataset, FAST, seed=6)
        assert a.rmse != b.rmse

    def test_replayed_network_scores_the_recorded_rmse(self, dataset):
        from cellcast import forward, rmse as rmse_fn

        result = train_once("gru", 1, 4, dataset, FAST, seed=7)
        net = train_best_network("gru", 1, 4, dataset, FAST, seed=7)
        preds, _ = forward(net, dataset.test.inputs)
        assert abs(rmse_fn(preds, dataset.test.targets) - result.rmse) < 1e-12


class TestNaiveBaseline:
    def test_last_value_column(self, dataset):
        np.testing.assert_array_equal(naive_last_value(dataset.test), dataset.test.inputs[:, -1])

    def test_baseline_metrics_match_direct_computation(self, dataset):
        from cellcast import mae as mae_fn, rmse as rmse_fn

        r, m = naive_baseline(dataset.test)
        preds = dataset.test.inputs[:, -1]
        assert r == rmse_fn(preds, dataset.test.targets)
        assert m == mae_fn(preds, dataset.test.targets)


class TestGridSearch:
    @pytest.fixture
    def tiny_grid_result(self, dataset):
        grid = GridSpec(hidden_layers=(1,), units=(3, 4), cell_kinds=("lstm", "gru"))
        return grid_search(grid, [dataset], FAST)

    def test_run_counting(self, tiny_grid_result):
        assert len(tiny_grid_result.runs) == 2 * 2 * FAST.runs
        labels = {r.label for r in tiny_grid_result.runs}
        assert labels == {"LSTM-0-1L-3U", "LSTM-0-1L-4U", "GRU-0-1L-3U", "GRU-0-1L-4U"}
        for label in labels:
            assert sum(r.label == label for r in tiny_grid_result.runs) == FAST.runs

    def test_results_ordered(self, tiny_grid_result):
        keys = [(r.cluster, r.cell_kind, r.hidden_layers, r.units, r.run) for r in tiny_grid_result.runs]
        assert keys == sorted(keys)

    def test_run_seeds_offset_from_base(self, tiny_grid_result):
        for r in tiny_grid_result.runs:
            assert r.seed == FAST.base_seed + r.run

    def test_mean_rmse_consistent(self, tiny_grid_result):
        for label, mean in tiny_grid_result.mean_rmse.items():
            values = [r.rmse for r in tiny_grid_result.runs if r.label == label]
            assert abs(mean - np.mean(values)) < 1e-12

    def test_best_config_recorded_per_cluster(self, tiny_grid_result):
        assert 0 in tiny_grid_result.best_config
        assert tiny_grid_result.best_config[0] in tiny_grid_result.mean_rmse

    def test_reproducible_and_worker_invariant(self, dataset):
        grid = GridSpec(hidden_layers=(1,), units=(3,), cell_kinds=("gru",))
        a = grid_search(grid, [dataset], FAST, workers=1)
        b = grid_search(grid, [dataset], FAST, workers=1)
        c = grid_search(grid, [dataset], FAST, workers=2)
        for other in (b, c):
            assert [r.rmse for r in a.runs] == [r.rmse for r in other.runs]
            assert [r.label for r in a.runs] == [r.label for r in other.runs]


def fake_result(spec):
    """GridResult from {label: [rmse values]} without training anything."""
    runs = []
    for label, values in spec.items():
        kind, cluster, layers, units = label.split("-")
        for i, v in enumerate(values):
            runs.append(TrainRunResult(
                label=label, cluster=int(cluster), cell_kind=kind.lower(),
                hidden_layers=int(layers[:-1]), units=int(units[:-1]), run=i,
                seed=i, loss_trace=(0.0,), rmse=v, mae=v, seconds=0.0,
            ))
    means = {label: float(np.mean(vals)) for label, vals in spec.items()}
    return GridResult(runs=runs, mean_rmse=means, best_config={})


class TestSelectBest:
    def test_clear_winner_by_mean(self):
        result = fake_result({
            "LSTM-0-1L-50U": [0.30, 0.31, 0.32],
            "GRU-0-1L-50U": [0.10, 0.11, 0.12],
        })
        assert select_best(result, 0)[0] == "GRU-0-1L-50U"

    def test_tie_resolved_by_median(self):
        result = fake_result({
            "LSTM-0-1L-50U": [0.1000, 0.2000, 0.3003],  # mean 0.2001, median 0.2
            "GRU-0-1L-50U": [0.1001, 0.1999, 0.3000],   # mean 0.2, median 0.1999
        })
        assert select_best(result, 0) == ["GRU-0-1L-50U", "LSTM-0-1L-50U"]

    def test_tie_resolved_by_iqr_then_size(self):
        result = fake_result({
            "LSTM-0-2L-100U": [0.19, 0.20, 0.21],
            "GRU-0-1L-100U": [0.18, 0.20, 0.22],  # same mean and median, wider IQR
        })
        assert select_best(result, 0)[0] == "LSTM-0-2L-100U"

    def test_identical_distributions_prefer_fewer_units(self):
        result = fake_result({
            "LSTM-0-1L-100U": [0.2, 0.2, 0.2],
            "LSTM-0-1L-50U": [0.2, 0.2, 0.2],
        })
        assert select_best(result, 0)[0] == "LSTM-0-1L-50U"

    def test_identical_distributions_prefer_fewer_layers(self):
        result = fake_result({
            "LSTM-0-2L-50U": [0.2, 0.2, 0.2],
            "LSTM-0-1L-50U": [0.2, 0.2, 0.2],
        })
        assert select_best(result, 0)[0] == "LSTM-0-1L-50U"

    def test_far_configs_excluded_from_tie_set(self):
        result = fake_result({
            "LSTM-0-1L-50U": [0.2, 0.2, 0.2],
            "GRU-0-1L-50U": [0.3, 0.3, 0.3],
        })
        assert select_best(result, 0) == ["LSTM-0-1L-50U"]

    def test_unknown_cluster(self):
        result = fake_result({"LSTM-0-1L-50U": [0.2]})
        with pytest.raises(UnknownCluster):
            select_best(result, 9)


class TestKindWinners:
    def test_cluster_winner_is_its_kinds_best(self):
        """GRU-0-2L-50U ties only with GRU-0-1L-50U, whose mean is the
        lowest of its kind, and beats it on median; the cluster's winner
        GRU-0-1L-50U still stands for its kind."""
        result = fake_result({
            "LSTM-0-1L-50U": [0.1, 0.1, 0.1],
            "GRU-0-1L-50U": [0.095, 0.095, 0.1112],  # mean 0.1004, median 0.095
            "GRU-0-2L-50U": [0.090, 0.090, 0.1224],  # mean 0.1008, median 0.090
        })
        assert select_best(result, 0) == ["GRU-0-1L-50U", "LSTM-0-1L-50U"]
        winners = kind_winners(result, 0)
        assert {kind: [r.label for r in runs] for kind, runs in winners.items()} == {
            "lstm": ["LSTM-0-1L-50U"] * 3, "gru": ["GRU-0-1L-50U"] * 3}

    def test_other_kind_ranked_within_itself(self):
        result = fake_result({
            "GRU-0-1L-50U": [0.1, 0.1, 0.1],
            "LSTM-0-1L-50U": [0.3, 0.3, 0.3],
            "LSTM-0-2L-50U": [0.2, 0.2, 0.2],
        })
        winners = kind_winners(result, 0)
        assert winners["lstm"][0].label == "LSTM-0-2L-50U"
        assert winners["gru"][0].label == "GRU-0-1L-50U"


class TestPredictionTable:
    def test_timestamps_and_inverse_scaling(self, dataset):
        net = train_best_network("gru", 1, 4, dataset, FAST, seed=1)
        table = predict_test_split(net, dataset.scaler, bumpy_series())
        n_test = 29 - 4
        assert len(table.timestamps) == len(table.truth) == len(table.prediction) == n_test
        first_target_bin = N_TRAIN + 4
        assert table.timestamps[0] == SPAN_START + first_target_bin * BIN
        assert table.timestamps[-1] == SPAN_START + (144 - 1) * BIN
        # truth is the raw series, prediction mapped back to raw units
        np.testing.assert_allclose(table.truth, bumpy_series().values[first_target_bin:])
        np.testing.assert_allclose(
            table.prediction, dataset.scaler.inverse(np.asarray(table.scaled_preds)), atol=1e-12
        )


class TestPersistence:
    def test_results_csv_round_trip(self, dataset, tmp_path):
        grid = GridSpec(hidden_layers=(1,), units=(3,), cell_kinds=("lstm",))
        result = grid_search(grid, [dataset], FAST)
        path = tmp_path / "results.csv"
        save_results_csv(result, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "cluster,cell,layers,units,run,seed,rmse,mae,seconds"
        assert all(line.endswith(",0") for line in lines[1:])  # timing zeroed

        loaded = load_results_csv(str(path))
        assert [r.rmse for r in loaded.runs] == [r.rmse for r in result.runs]
        assert loaded.mean_rmse.keys() == result.mean_rmse.keys()
        assert loaded.best_config == result.best_config

    def test_results_csv_can_record_timing(self, dataset, tmp_path):
        grid = GridSpec(hidden_layers=(1,), units=(3,), cell_kinds=("lstm",))
        result = grid_search(grid, [dataset], FAST)
        path = tmp_path / "timed.csv"
        save_results_csv(result, str(path), record_timing=True)
        seconds = [float(line.rsplit(",", 1)[1]) for line in path.read_text().splitlines()[1:]]
        assert any(s > 0 for s in seconds)

    def test_summary_json_structure(self, dataset, tmp_path):
        grid = GridSpec(hidden_layers=(1,), units=(3, 4), cell_kinds=("gru",))
        result = grid_search(grid, [dataset], FAST)
        path = tmp_path / "summary.json"
        save_summary_json(result, str(path))
        doc = json.loads(path.read_text())
        assert set(doc) == {"0"}
        for label, entry in doc["0"].items():
            assert set(entry) == {"mean_rmse", "median_rmse", "iqr", "best"}
        assert sum(entry["best"] for entry in doc["0"].values()) >= 1
        best_label = result.best_config[0]
        assert doc["0"][best_label]["best"] is True


def test_import_loads_no_process_pool():
    """Only grid_search with workers > 1 needs the pool machinery, so
    importing the command line must not load it."""
    src = str(Path(cellcast.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = ("import sys, cellcast.cli; print(sorted(m for m in sys.modules "
            "if m in ('concurrent.futures.process', 'multiprocessing')))")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert done.stdout.strip() == "[]"


def test_single_blas_thread_names_a_blas_it_cannot_set(monkeypatch, capsys):
    """Without a thread setter, one stderr line names the BLAS and the
    run carries on."""
    from cellcast import training

    monkeypatch.setattr(training, "_BLAS_THREAD_SETTERS", ())
    training.single_blas_thread()
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("cellcast: cannot set numpy's BLAS (")
    assert "OPENBLAS_NUM_THREADS=1" in err[0]


# --- winners kept from the grid, and the training state -------------------------

def other_series(cell_id=1):
    """A second cluster's series: bumpy_series at another phase and level."""
    t = np.arange(3 * 48)
    values = 50.0 + 20.0 * np.cos(2.0 * np.pi * t / 48.0) + (t % 5)
    return BinnedCellSeries(cell_id=cell_id, span_start=SPAN_START, values=values)


class TestKeptWinners:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_winner_models_are_the_replayed_bytes(self, dataset, tmp_path, workers):
        """Every model file the train stage writes holds the bytes that
        replaying the winner's best run with train_best_network gives."""
        from cellcast import save_model_json
        from cellcast.training import winner_network

        datasets = [dataset, prepare_dataset(other_series())]
        grid = GridSpec(hidden_layers=(1, 2), units=(3,), cell_kinds=("lstm", "gru"))
        result = grid_search(grid, datasets, FAST, workers=workers)
        for ds in datasets:
            for kind, runs in kind_winners(result, ds.cluster).items():
                best = min(runs, key=lambda r: (r.rmse, r.run))
                kept, replayed = tmp_path / "kept.json", tmp_path / "replayed.json"
                save_model_json(winner_network(result, runs), ds.scaler, str(kept))
                save_model_json(train_best_network(kind, best.hidden_layers, best.units, ds,
                                                   FAST, best.seed), ds.scaler, str(replayed))
                assert kept.read_bytes() == replayed.read_bytes()

    def test_pruning_keeps_exactly_each_kinds_tie_set(self):
        """Near-tied means by hand, streamed in task order: every config
        within TIE_THRESHOLD of its kind's lowest mean in its cluster
        keeps its best run's parameters, and no other config does."""
        from cellcast.training import TIE_THRESHOLD, _keep_winners

        t = TIE_THRESHOLD
        # (cluster, kind, units) -> the level of its runs' RMSEs. Runs 1
        # and 3 share the lowest RMSE, so the best run is run 1.
        configs = {
            (0, "lstm", 1): 0.2, (0, "lstm", 2): 0.2 + 0.9 * t, (0, "lstm", 3): 0.2 + 1.1 * t,
            (0, "lstm", 4): 0.2 - 0.5 * t,  # a later minimum drops 0.2 + 0.9t
            (0, "gru", 1): 0.3, (0, "gru", 2): 0.3 + t, (0, "gru", 3): 0.1 + 2 * t,
            (1, "lstm", 1): 0.5, (1, "lstm", 2): 0.5,
        }
        stream = []
        for (cluster, kind, units), mean in configs.items():
            rmses = [mean + 0.01, mean - 0.01, mean, mean - 0.01]
            for run, value in enumerate(rmses):
                result = TrainRunResult(
                    label=config_label(kind, cluster, 1, units), cluster=cluster, cell_kind=kind,
                    hidden_layers=1, units=units, run=run, seed=run, loss_trace=[],
                    rmse=value, mae=value, seconds=0.0)
                stream.append((result, np.array([cluster, units, run], dtype=float)))
        runs, kept = _keep_winners(iter(stream), {r.label: 4 for r, _ in stream})
        assert runs == [r for r, _ in stream]

        aggregated = GridResult(runs=runs, mean_rmse={}, best_config={})
        means = {}
        for r in runs:
            means.setdefault(r.label, []).append(r.rmse)
        aggregated.mean_rmse = {label: float(np.mean(v)) for label, v in means.items()}
        tie_set = set()
        for cluster in (0, 1):
            for kind in ("lstm", "gru"):
                kind_means = {label: m for label, m in aggregated.mean_rmse.items()
                              if label.startswith(f"{kind.upper()}-{cluster}-")}
                if kind_means:
                    low = min(kind_means.values())
                    tie_set |= {label for label, m in kind_means.items() if m <= low + t}
        assert tie_set == {"LSTM-0-1L-1U", "LSTM-0-1L-4U", "GRU-0-1L-3U",
                           "LSTM-1-1L-1U", "LSTM-1-1L-2U"}
        assert set(kept) == tie_set
        for label, params in kept.items():
            cluster, units = int(label.split("-")[1]), int(label.split("-")[3][:-1])
            assert params.tolist() == [cluster, units, 1]

    def test_interleaved_shapes_match_a_fresh_thread(self, dataset):
        """Runs of shapes A, B, A and A on another dataset, in one
        thread, give the results and parameters of each run alone in a
        fresh thread: no run leaves anything behind for the next."""
        import threading

        from cellcast.training import _run_task

        other = prepare_dataset(other_series())
        tasks = [("lstm", 1, 4, dataset, FAST, 3, 0), ("gru", 2, 3, dataset, FAST, 3, 0),
                 ("lstm", 1, 4, dataset, FAST, 5, 1), ("lstm", 1, 4, other, FAST, 5, 1)]

        def outcome(task):
            result, params = _run_task(task)
            return result.rmse, result.mae, result.loss_trace, params.tobytes()

        def fresh(task):
            box = []
            thread = threading.Thread(target=lambda: box.append(outcome(task)))
            thread.start()
            thread.join(timeout=120)
            assert not thread.is_alive()
            return box[0]

        assert [outcome(task) for task in tasks] == [fresh(task) for task in tasks]

    def test_a_handed_out_network_is_a_copy(self, dataset):
        net = train_best_network("gru", 1, 4, dataset, FAST, seed=1)
        before = net.flat.tobytes()
        train_once("gru", 1, 4, dataset, FAST, seed=2)
        assert net.flat.tobytes() == before


def test_a_split_too_short_to_window_names_the_cluster_and_split():
    from cellcast.errors import SeriesTooShort

    series = BinnedCellSeries(cell_id=3, span_start=SPAN_START, values=np.arange(12.0))
    with pytest.raises(SeriesTooShort,
                       match=r"^cluster 3: test split of 3 bins: need > 4 values, got 3$"):
        prepare_dataset(series)
