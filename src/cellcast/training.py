"""Training protocol and the seeded hyperparameter grid search.

One run = build a seeded network, train it with mini-batch ADAM (at the
constants of recurrent.py) for a fixed epoch count, on batches of
BATCH_SIZE windows that every epoch shuffles anew, and score RMSE and MAE
on the test windows.
The grid crosses cell kind, depth, and width per cluster, repeats each
configuration over `runs` seeds (base_seed + run index, so extending the
run count never reshuffles earlier results), ranks configurations by
mean RMSE, and breaks near-ties by median, dispersion, then model size.
"""

from __future__ import annotations

import csv
import ctypes
import glob
import io
import math
import os
import sys
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import jsonfile
from .errors import ConfigError, ConstantSeries, MalformedResults, SeriesTooShort, UnknownCluster
from .ingest import BIN_WIDTH_MS, BinnedCellSeries
from .prep import (
    MinMaxScaler,
    SupervisedWindows,
    fit_scaler,
    make_windows,
    split_train_test,
)
from .recurrent import (
    CELL_KINDS,
    KIND_CHOICES,
    AdamOptimizer,
    RecurrentNetwork,
    Tape,
    backward,
    build_network,
    forward,
)
from .stats import mae, quartiles, rmse

# Configurations whose mean RMSE is within this much of the cluster's
# minimum count as tied for best (means are reported to 3 decimals).
TIE_THRESHOLD = 5e-4
# Windows per training step; the last batch of an epoch holds the rest.
BATCH_SIZE = 32
# The largest grid sizes, twice the paper's deepest (4) and widest (250).
# They bound a network's memory: an 8-layer, 500-unit LSTM holds 15M
# parameters (120 MB), and training keeps a few arrays of that size.
MAX_HIDDEN_LAYERS = 8
MAX_UNITS = 500
# The most epochs and runs, twice the paper's 50 and 30; they bound a
# grid's time.
MAX_EPOCHS = 100
MAX_RUNS = 60

RESULTS_HEADER = ["cluster", "cell", "layers", "units", "run", "seed", "rmse", "mae", "seconds"]


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 50
    runs: int = 30
    base_seed: int = 0


@dataclass(frozen=True)
class GridSpec:
    hidden_layers: tuple = (1, 2, 3, 4)
    units: tuple = (50, 100, 150, 200, 250)
    cell_kinds: tuple = CELL_KINDS


@dataclass(frozen=True)
class ClusterDataset:
    """One cluster's training and test windows and the scaler fit on its
    training portion."""

    cluster: int
    train: SupervisedWindows
    test: SupervisedWindows
    scaler: MinMaxScaler


@dataclass
class TrainRunResult:
    label: str
    cluster: int
    cell_kind: str
    hidden_layers: int
    units: int
    run: int
    seed: int
    loss_trace: list[float]
    rmse: float
    mae: float
    seconds: float


@dataclass
class GridResult:
    runs: list[TrainRunResult]  # ordered by (cluster, cell, layers, units, run)
    mean_rmse: dict[str, float]  # config label -> mean over runs
    best_config: dict[int, str]  # cluster -> winning label
    # config label -> flat parameters of its best run, for the configs in
    # their kind's tie set; filled by grid_search, empty when loaded.
    kept_params: dict[str, np.ndarray] = field(default_factory=dict, repr=False)


def validate_train_config(cfg: TrainConfig) -> None:
    for name, most in (("epochs", MAX_EPOCHS), ("runs", MAX_RUNS)):
        if not 1 <= getattr(cfg, name) <= most:
            raise ConfigError(f"{name} must be in 1..{most}, got {getattr(cfg, name)}")


def validate_workers(workers: int, name: str = "workers") -> None:
    if workers < 1:
        raise ConfigError(f"{name} must be >= 1, got {workers}")


def validate_grid(grid: GridSpec) -> None:
    if not grid.hidden_layers or not grid.units or not grid.cell_kinds:
        raise ConfigError("grid axes must be non-empty")
    for axis, most in (("hidden_layers", MAX_HIDDEN_LAYERS), ("units", MAX_UNITS)):
        size = next((size for size in getattr(grid, axis) if not 1 <= size <= most), None)
        if size is not None:
            raise ConfigError(f"{axis} must be in 1..{most}, got {size}")
    # A repeated value would train its configs twice over.
    for axis in ("hidden_layers", "units", "cell_kinds"):
        repeated = [value for value, count in Counter(getattr(grid, axis)).items() if count > 1]
        if repeated:
            raise ConfigError(f"grid axis {axis} repeats {repeated[0]!r}")
    for kind in grid.cell_kinds:
        if kind not in CELL_KINDS:
            raise ConfigError(f"unknown cell kind {kind!r}, expected {KIND_CHOICES}")


def config_label(cell_kind: str, cluster: int, hidden_layers: int, units: int) -> str:
    return f"{cell_kind.upper()}-{cluster}-{hidden_layers}L-{units}U"


def prepare_dataset(series: BinnedCellSeries) -> ClusterDataset:
    """Split chronologically (split_train_test), fit the scaler on the
    training portion only, and window each split independently. A
    constant training split, or a split too short to window, raises an
    error naming the cluster (and the split)."""
    cluster = series.cell_id
    try:
        train_raw, test_raw = split_train_test(series.values)
        scaler = fit_scaler(train_raw)
    except (SeriesTooShort, ConstantSeries) as exc:
        raise type(exc)(f"cluster {cluster}: {exc}") from None
    splits = []
    for name, raw in (("training", train_raw), ("test", test_raw)):
        try:
            splits.append(make_windows(scaler.transform(raw)))
        except SeriesTooShort as exc:
            raise SeriesTooShort(f"cluster {cluster}: {name} split of {raw.size} bins: "
                                 f"{exc}") from None
    train, test = splits
    return ClusterDataset(cluster=cluster, train=train, test=test, scaler=scaler)


def _fit(cell_kind: str, hidden_layers: int, units: int,
         dataset: ClusterDataset, cfg: TrainConfig,
         seed: int) -> tuple[RecurrentNetwork, list[float]]:
    """Seeded network + training loop shared by scoring and replay. The
    loss trace records each epoch's MSE over its batches as they were
    seen (before each update). Every batch of one size reuses one tape:
    the full batches share one, a ragged last batch gets its own."""
    validate_train_config(cfg)
    net = build_network(cell_kind, hidden_layers, units, seed=[seed, 0])
    shuffle_rng = np.random.default_rng([seed, 1])
    opt = AdamOptimizer(net)
    inputs = dataset.train.inputs
    targets = dataset.train.targets
    n = targets.size

    tapes = {}  # batch size -> Tape
    trace = []
    for _ in range(cfg.epochs):
        order = shuffle_rng.permutation(n)
        sq_sum = 0.0
        for start in range(0, n, BATCH_SIZE):
            idx = order[start:start + BATCH_SIZE]
            y = targets[idx]
            tape = tapes.get(idx.size)
            if tape is None:
                tape = tapes[idx.size] = Tape(net, idx.size)
            preds, _ = forward(net, inputs[idx], tape)
            sq_sum += float(np.sum((preds - y) ** 2))
            opt.step(net, backward(net, y, tape))
        trace.append(sq_sum / n)
    return net, trace


def _score(cell_kind: str, hidden_layers: int, units: int,
           dataset: ClusterDataset, cfg: TrainConfig, seed: int,
           run: int) -> tuple[TrainRunResult, RecurrentNetwork]:
    """One seeded training run scored on the test windows, and its network."""
    t0 = time.perf_counter()
    net, trace = _fit(cell_kind, hidden_layers, units, dataset, cfg, seed)
    test_preds, _ = forward(net, dataset.test.inputs)
    result = TrainRunResult(
        label=config_label(cell_kind, dataset.cluster, hidden_layers, units),
        cluster=dataset.cluster, cell_kind=cell_kind,
        hidden_layers=hidden_layers, units=units, run=run, seed=seed,
        loss_trace=trace,
        rmse=rmse(test_preds, dataset.test.targets),
        mae=mae(test_preds, dataset.test.targets),
        seconds=time.perf_counter() - t0,
    )
    return result, net


def train_once(cell_kind: str, hidden_layers: int, units: int,
               dataset: ClusterDataset, cfg: TrainConfig, seed: int,
               run: int = 0) -> TrainRunResult:
    """One seeded training run, scored on the test windows."""
    return _score(cell_kind, hidden_layers, units, dataset, cfg, seed, run)[0]


def train_best_network(cell_kind: str, hidden_layers: int, units: int,
                       dataset: ClusterDataset, cfg: TrainConfig,
                       seed: int) -> RecurrentNetwork:
    """Re-train one run of a configuration and hand back the fitted
    network: same seed derivation, bit-identical parameters. grid_search
    keeps the parameters its callers need (GridResult.kept_params, read
    by winner_network), so the pipeline never replays a run; this is for
    a caller that holds only scores, such as a loaded results.csv."""
    return _fit(cell_kind, hidden_layers, units, dataset, cfg, seed)[0]


# What numpy's bundled OpenBLAS calls its thread setter, newest build first.
_BLAS_THREAD_SETTERS = ("scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads",
                        "openblas_set_num_threads64_", "openblas_set_num_threads")


def single_blas_thread() -> None:
    """Run numpy's BLAS on one thread in this process.

    With more threads, OpenBLAS splits a large matrix product differently
    and the trained bits depend on the machine's core count; a pool of
    workers would also oversubscribe the cores. The library is the one
    bundled in numpy.libs; when it is not found, one stderr line names
    the BLAS and nothing else changes.
    """
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in _BLAS_THREAD_SETTERS:
            setter = getattr(lib, name, None)
            if setter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                setter(1)
                return
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = "unknown"
    print(f"cellcast: cannot set numpy's BLAS ({blas}) to one thread; "
          f"set OPENBLAS_NUM_THREADS=1 for byte-identical results", file=sys.stderr)


def _run_task(args) -> tuple[TrainRunResult, np.ndarray]:
    """One grid task: its result and its trained parameters."""
    result, net = _score(*args)
    return result, net.flat


def grid_search(grid: GridSpec, datasets: list[ClusterDataset], cfg: TrainConfig,
                workers: int = 1) -> GridResult:
    """Every (cluster, cell kind, depth, width) trained cfg.runs times.

    Tasks are independent, so any worker count gives the same results;
    they stream back in task order, and collection re-imposes (cluster,
    cell, layers, units, run) order before aggregation. The result keeps
    the parameters of every config that kind_winners can pick (see
    _keep_winners), so no winner is trained again.
    """
    validate_grid(grid)
    validate_train_config(cfg)
    validate_workers(workers)
    if not datasets:
        raise ConfigError("no cluster datasets given")

    tasks = []
    for ds in sorted(datasets, key=lambda d: d.cluster):
        for kind in grid.cell_kinds:
            for hidden_layers in grid.hidden_layers:
                for units in grid.units:
                    for run in range(cfg.runs):
                        tasks.append((kind, hidden_layers, units, ds, cfg,
                                      cfg.base_seed + run, run))
    runs_per_label = Counter(config_label(kind, ds.cluster, hidden_layers, units)
                             for kind, hidden_layers, units, ds, *_ in tasks)

    # A fork pool starts all of its processes at the first submit, so it
    # gets no more than there are tasks and usable CPUs.
    workers = min(workers, len(tasks), len(os.sched_getaffinity(0)))
    if workers <= 1:
        results, kept = _keep_winners(map(_run_task, tasks), runs_per_label)
    else:
        # Imported here, so that a caller that never starts a pool does
        # not pay for loading multiprocessing.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers, initializer=single_blas_thread) as pool:
            results, kept = _keep_winners(pool.map(_run_task, tasks), runs_per_label)

    results.sort(key=lambda r: (r.cluster, r.cell_kind, r.hidden_layers, r.units, r.run))
    grid_result = _aggregate(results)
    grid_result.kept_params = kept
    return grid_result


def _keep_winners(stream, runs_per_label: dict[str, int]) -> tuple[list, dict]:
    """The results of a stream of (result, parameters) in task order, and
    label -> parameters of that config's best run (lowest RMSE, then
    lowest run index) for each config in its kind's tie set.

    A config is scored once its last run is in. Its best run's
    parameters are kept while its mean RMSE is within TIE_THRESHOLD of
    the lowest mean of its cell kind in its cluster so far; the minimum
    only falls, so what is left at the end is exactly each kind's tie
    set, which holds every config kind_winners can pick.
    """
    results = []
    runs_so_far: dict[str, list] = {}  # label -> its runs in so far
    best: dict[str, tuple] = {}  # label -> (its best run so far, that run's parameters)
    lowest: dict[tuple, float] = {}  # (cluster, kind) -> lowest mean so far
    kept: dict[str, tuple] = {}  # label -> ((cluster, kind), mean, parameters)
    for result, params in stream:
        results.append(result)
        label = result.label
        runs = runs_so_far.setdefault(label, [])
        runs.append(result)
        top = best.get(label)
        if top is None or (result.rmse, result.run) < (top[0].rmse, top[0].run):
            best[label] = top = (result, params)
        if len(runs) < runs_per_label[label]:
            continue
        del runs_so_far[label], best[label]
        # Runs in the order _aggregate averages them, for the same bits.
        mean = _mean_rmse(sorted(runs, key=lambda r: r.run))
        group = (result.cluster, result.cell_kind)
        low = lowest[group] = min(lowest.get(group, mean), mean)
        if mean <= low + TIE_THRESHOLD:
            kept[label] = (group, mean, top[1])
        for other in [other for other, (g, m, _) in kept.items()
                      if g == group and m > low + TIE_THRESHOLD]:
            del kept[other]
    return results, {label: params for label, (_, _, params) in kept.items()}


def winner_network(result: GridResult, runs: list[TrainRunResult]) -> RecurrentNetwork:
    """A copy of the network of the best of one config's runs (lowest
    RMSE, then lowest run index), as grid_search kept it for every
    config that kind_winners picks."""
    first = runs[0]
    params = result.kept_params.get(first.label)
    if params is None:
        raise KeyError(f"{first.label}: grid_search kept no parameters for it")
    net = build_network(first.cell_kind, first.hidden_layers, first.units, seed=0)
    net.flat[...] = params
    return net


# ---------------------------------------------------------------------------
# ranking: every consumer of grid results groups and scores runs here

def _by_label(runs) -> dict[str, list[TrainRunResult]]:
    """Runs grouped by config label, labels and runs in input order."""
    groups: dict[str, list[TrainRunResult]] = {}
    for r in runs:
        groups.setdefault(r.label, []).append(r)
    return groups


def _quartiles(runs: list[TrainRunResult]) -> tuple[float, float, float]:
    """First quartile, median and third quartile of one config's RMSEs."""
    return quartiles([r.rmse for r in runs])


def _mean_rmse(runs: list[TrainRunResult]) -> float:
    return float(np.mean([r.rmse for r in runs]))


def _aggregate(runs: list[TrainRunResult]) -> GridResult:
    """GridResult of runs: per-config mean RMSE and each cluster's winner."""
    mean_rmse = {label: _mean_rmse(rs) for label, rs in _by_label(runs).items()}
    result = GridResult(runs=runs, mean_rmse=mean_rmse, best_config={})
    for cluster in sorted({r.cluster for r in runs}):
        result.best_config[cluster] = select_best(result, cluster)[0]
    return result


def _cluster_configs(result: GridResult, cluster: int) -> dict[str, list[TrainRunResult]]:
    """The cluster's runs grouped by config label; UnknownCluster if none."""
    configs = _by_label(r for r in result.runs if r.cluster == cluster)
    if not configs:
        raise UnknownCluster(f"no results for cluster {cluster}")
    return configs


def _rank(configs: dict[str, list[TrainRunResult]], mean_rmse: dict[str, float]) -> list[str]:
    lowest = min(mean_rmse[label] for label in configs)
    tied = [label for label in configs if mean_rmse[label] <= lowest + TIE_THRESHOLD]

    def order_key(label: str):
        q1, median, q3 = _quartiles(configs[label])
        any_run = configs[label][0]
        return (median, q3 - q1, any_run.units, any_run.hidden_layers, label)

    return sorted(tied, key=order_key)


def select_best(result: GridResult, cluster: int) -> list[str]:
    """Labels tied for the cluster's lowest mean RMSE (within
    TIE_THRESHOLD), best first: lower median, then tighter interquartile
    range, then fewer units, then fewer layers."""
    return _rank(_cluster_configs(result, cluster), result.mean_rmse)


def kind_winners(result: GridResult, cluster: int) -> dict[str, list[TrainRunResult]]:
    """Runs of each cell kind's best config in the cluster, keyed by kind.

    The kind that holds the cluster's winner gets that winner, so the
    saved model, the compared sample and the predictions all come from
    the config summary.json marks best. Every other kind gets the head
    of its own tie set, ranked as select_best ranks the cluster.
    """
    configs = _cluster_configs(result, cluster)
    winner = _rank(configs, result.mean_rmse)[0]
    by_kind: dict[str, dict[str, list[TrainRunResult]]] = {}
    for label, runs in configs.items():
        by_kind.setdefault(runs[0].cell_kind, {})[label] = runs
    winners = {}
    for kind, kind_configs in by_kind.items():
        label = winner if winner in kind_configs else _rank(kind_configs, result.mean_rmse)[0]
        winners[kind] = kind_configs[label]
    return winners


def naive_last_value(windows: SupervisedWindows) -> np.ndarray:
    """Baseline forecast: the next bin equals the last window value."""
    return windows.inputs[:, -1].copy()


def naive_baseline(windows: SupervisedWindows) -> tuple[float, float]:
    preds = naive_last_value(windows)
    return rmse(preds, windows.targets), mae(preds, windows.targets)


@dataclass(frozen=True)
class PredictionTable:
    """Raw-scale test-span predictions ready for CSV emission."""

    timestamps: np.ndarray  # bin start, epoch ms
    truth: np.ndarray
    prediction: np.ndarray


def predict_test_split(net: RecurrentNetwork, scaler: MinMaxScaler,
                       series: BinnedCellSeries) -> PredictionTable:
    """Re-derive the test split of a cluster series as prepare_dataset
    splits it and predict each test window's target, de-normalized with
    the model's scaler."""
    train_raw, test_raw = split_train_test(series.values)
    windows = make_windows(scaler.transform(test_raw))
    preds_scaled, _ = forward(net, windows.inputs)
    abs_bins = train_raw.size + windows.origin_indices
    return PredictionTable(
        timestamps=series.span_start + abs_bins.astype(np.int64) * BIN_WIDTH_MS,
        truth=test_raw[windows.origin_indices],
        prediction=scaler.inverse(preds_scaled),
    )


# ---------------------------------------------------------------------------
# persistence

def save_results_csv(result: GridResult, path: str, record_timing: bool = False) -> None:
    """One row per run. Wall time is zeroed unless record_timing so that
    identical reruns produce byte-identical files."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RESULTS_HEADER)
        for r in result.runs:
            writer.writerow([
                r.cluster, r.cell_kind, r.hidden_layers, r.units, r.run, r.seed,
                f"{r.rmse:.17g}", f"{r.mae:.17g}",
                f"{r.seconds:.17g}" if record_timing else "0",
            ])


def load_results_csv(path: str) -> GridResult:
    """Read a results.csv written by save_results_csv.

    Raises
    ------
    MalformedResults
        The file is empty or holds no row, or a row is short, has a
        non-numeric field or a non-finite rmse, mae or seconds; the
        message names the file, the 1-based line and, for a non-finite
        score, the column. Or the grid is not whole: every config must
        hold runs 0..R-1 once each, with one R and one seed - run for the
        file; the message names the file and the config.
    """
    runs = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError:
            raise MalformedResults(f"{path}: not UTF-8 text") from None
        reader = csv.reader(io.StringIO(text, newline=""))
        if next(reader, None) is None:
            raise MalformedResults(f"{path}: empty file, expected a header line")
        for row in reader:
            where = f"{path}:{reader.line_num}"
            if len(row) < len(RESULTS_HEADER):
                raise MalformedResults(f"{where}: expected {len(RESULTS_HEADER)} fields, "
                                       f"got {len(row)}")
            try:
                cluster, cell, layers, units = int(row[0]), row[1], int(row[2]), int(row[3])
                runs.append(TrainRunResult(
                    label=config_label(cell, cluster, layers, units),
                    cluster=cluster, cell_kind=cell, hidden_layers=layers, units=units,
                    run=int(row[4]), seed=int(row[5]), loss_trace=[],
                    rmse=float(row[6]), mae=float(row[7]), seconds=float(row[8]),
                ))
            except ValueError as exc:
                raise MalformedResults(f"{where}: {exc}") from None
            for column, text in zip(RESULTS_HEADER[6:], row[6:]):
                if not math.isfinite(float(text)):
                    raise MalformedResults(f"{where}: {column} {text!r}, expected a finite number")
    if not runs:
        raise MalformedResults(f"{path}: no rows after the header")
    _check_whole(path, runs)
    return _aggregate(runs)


def _check_whole(path: str, runs: list[TrainRunResult]) -> None:
    """See load_results_csv: a file cut short or with a repeated row is
    not a grid."""
    configs = _by_label(runs)
    n_runs = max(len(rs) for rs in configs.values())
    for label, rs in configs.items():
        ids = sorted(r.run for r in rs)
        if ids != list(range(n_runs)):
            raise MalformedResults(f"{path}: {label} has runs {', '.join(map(str, ids))}, "
                                   f"expected 0..{n_runs - 1}")
    base_seed = runs[0].seed - runs[0].run
    for r in runs:
        if r.seed != base_seed + r.run:
            raise MalformedResults(f"{path}: {r.label} run {r.run} has seed {r.seed}, "
                                   f"expected {base_seed + r.run}")


def save_summary_json(result: GridResult, path: str) -> None:
    """Per-cluster config summaries; `best` marks every label in the
    cluster's tie set."""
    summary: dict[str, dict] = {}
    for cluster in sorted({r.cluster for r in result.runs}):
        configs = _cluster_configs(result, cluster)
        best = set(_rank(configs, result.mean_rmse))
        entries: dict[str, dict] = {}
        for label in sorted(configs):
            q1, median, q3 = _quartiles(configs[label])
            entries[label] = {
                "mean_rmse": result.mean_rmse[label],
                "median_rmse": median,
                "iqr": q3 - q1,
                "best": label in best,
            }
        summary[str(cluster)] = entries
    jsonfile.save(path, summary, indent=2)

