"""Command-line pipeline: synth, ingest, cluster, train, compare, predict.

Each stage reads and writes files so every step is independently
runnable and cacheable; `pipeline` chains them from one JSON config.
Progress lines go to stderr, data to files or stdout. Exit codes:
0 success, 2 validation or usage error, 1 runtime failure. All
randomness derives from a single seed.
"""

from __future__ import annotations

import argparse
import contextlib
import datetime
import inspect
import os
import re
import sys
from dataclasses import dataclass

from . import clustering, ingest, jsonfile, recurrent, stats, synth, training
from .errors import ConfigError, DomainError, MalformedBins, MalformedTruth, ValidationError


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


def parse_span(text: str, utc_offset_hours: float) -> tuple[int, int]:
    """'YYYY-MM-DD..YYYY-MM-DD' (end exclusive, local dates) to UTC ms."""
    m = re.fullmatch(r"(\d{4}-\d{2}-\d{2})\.\.(\d{4}-\d{2}-\d{2})", text.strip())
    if not m:
        raise ConfigError(f"span must look like 2013-11-01..2014-01-02, got {text!r}")
    offset_ms = round(utc_offset_hours * ingest.MS_PER_HOUR)

    def to_ms(datestr: str) -> int:
        try:
            d = datetime.date.fromisoformat(datestr)
        except ValueError as exc:
            raise ConfigError(f"span {text!r}: {datestr} is not a date ({exc})") from None
        return (d - datetime.date(1970, 1, 1)).days * ingest.MS_PER_DAY - offset_ms

    start, end = to_ms(m.group(1)), to_ms(m.group(2))
    if end <= start:
        raise ConfigError(f"span end must be after start: {text!r}")
    if start not in ingest.SPAN_STARTS:
        raise ConfigError(f"span {text!r} at UTC offset {utc_offset_hours:g} h starts more "
                          f"than a day outside 0001-01-01..9999-12-31")
    return start, end


_number = jsonfile.as_number


def _integer(value) -> int:
    """A JSON number with no fractional part: 2 and 2.0, not true or 2.5."""
    if not _number(value).is_integer():
        raise ValueError("not an integer")
    return int(value)


def finite_number(text: str) -> float:
    """A command-line number; argparse exits 2 on text, nan or inf."""
    return _number(float(text))


def _instance_of(kind: type):
    def convert(value):
        if not isinstance(value, kind):
            raise TypeError(f"not a {kind.__name__}")
        return value
    return convert


_text, _object = _instance_of(str), _instance_of(dict)


def _k(value):
    return value if value == "auto" else _integer(value)


def _path_list(value) -> list[str]:
    if not isinstance(value, list) or not value or not all(isinstance(p, str) for p in value):
        raise TypeError("not a non-empty list of paths")
    return value


def _list_of(convert):
    def convert_list(value) -> tuple:
        if not isinstance(value, list):
            raise TypeError("not a list")
        return tuple(convert(item) for item in value)
    return convert_list


_number_list, _int_list = _list_of(_number), _list_of(_integer)
# A config may spell cell kinds in any case; the library takes them in
# lower case only.
_name_list = _list_of(lambda name: _text(name).lower())


def _archetypes(value) -> list[synth.Archetype]:
    if not isinstance(value, list):
        raise TypeError("not a list")
    return [_section(raw, f"synth.archetypes[{i}]", _ARCHETYPE, synth.Archetype, id=i)
            for i, raw in enumerate(value)]


_KINDS = {_integer: "an integer", _number: "a finite number", _text: "a string",
          _object: "a JSON object", _k: "an integer or 'auto'",
          _path_list: "a non-empty list of paths", _number_list: "a list of finite numbers",
          _int_list: "a list of integers", _name_list: "a list of names",
          _archetypes: "a list of archetypes"}

# Each config section: key -> converter. A key a section leaves out takes
# the default of the dataclass the section builds.
_ARCHETYPE = {"id": _integer, "base_level": _number, "period_weights": _number_list,
              "weekend_factor": _number, "noise_sd": _number}
_SYNTH = {"archetypes": _archetypes, "cells_per_archetype": _integer, "days": _integer,
          "span_start": _integer, "start_weekday": _integer, "country_code": _integer}
_GRID = {"hidden_layers": _int_list, "units": _int_list, "cell_kinds": _name_list}
_TRAIN = {"epochs": _integer, "runs": _integer}
_CONFIG = {"out_dir": _text, "synth": _object, "input": _path_list, "span": _text,
           "utc_offset_hours": _number, "k": _k, "kmax": _integer, "grid": _object,
           "train": _object, "seed": _integer, "workers": _integer}


def _section(payload, where: str, fields: dict, target, **defaults):
    """target(**defaults, **values), where values holds each key of the
    JSON object payload through its converter in fields. An unknown key, a
    value its converter rejects, or a key target needs and payload lacks
    is a ConfigError that names where.key."""
    if not isinstance(payload, dict):
        raise ConfigError(f"{where} must be a JSON object, got {type(payload).__name__}")
    unknown = sorted(set(payload) - set(fields))
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(unknown)}")
    values = dict(defaults)
    for key, value in payload.items():
        try:
            values[key] = fields[key](value)
        except ConfigError:
            raise
        except (TypeError, ValueError, OverflowError):
            raise ConfigError(f"{where}.{key} must be {_KINDS[fields[key]]}, "
                              f"got {value!r}") from None
    for key, param in inspect.signature(target).parameters.items():
        if key in fields and key not in values and param.default is param.empty:
            raise ConfigError(f"{where}.{key} is required")
    return target(**values)


def parse_synth_spec(payload: dict, seed: int) -> synth.SynthSpec:
    """A synth spec from JSON; the seed is the caller's, never the spec's."""
    spec = _section(payload, "synth", _SYNTH, synth.SynthSpec, seed=seed)
    synth.validate_spec(spec)
    return spec


def parse_grid(payload: dict, where: str) -> training.GridSpec:
    """Grid axes from JSON; an absent axis takes the GridSpec default."""
    grid = _section(payload, where, _GRID, training.GridSpec)
    training.validate_grid(grid)
    return grid


@dataclass
class PipelineConfig:
    out_dir: str
    synth_spec: synth.SynthSpec | None
    input_paths: list[str] | None
    span: tuple[int, int]
    grid: training.GridSpec
    train: training.TrainConfig
    utc_offset_hours: float = clustering.DEFAULT_UTC_OFFSET_HOURS
    k: object = "auto"  # int or "auto"
    kmax: int = 50
    seed: int = 0
    workers: int = 1


def _pipeline_config(out_dir, synth=None, input=None, span=None, grid=None, train=None,
                     seed=PipelineConfig.seed, utc_offset_hours=PipelineConfig.utc_offset_hours,
                     **settings) -> PipelineConfig:
    """The config from its converted top-level keys. The sections are
    parsed here, since they take the one seed and the offset."""
    if (synth is None) == (input is None):
        raise ConfigError("config needs exactly one of synth or input")
    spec = None if synth is None else parse_synth_spec(synth, seed)
    if span is not None:
        span = parse_span(span, utc_offset_hours)
    elif spec is not None:
        span = (spec.span_start, spec.span_end)
    else:
        raise ConfigError("config needs a span when input paths are given")
    grid_spec = parse_grid(grid or {}, "grid")
    train_cfg = _section(train or {}, "train", _TRAIN, training.TrainConfig, base_seed=seed)
    training.validate_train_config(train_cfg)
    cfg = PipelineConfig(out_dir, spec, input, span, grid_spec, train_cfg,
                         utc_offset_hours=utc_offset_hours, seed=seed, **settings)
    clustering.validate_settings(cfg.k, cfg.kmax, "config.")
    training.validate_workers(cfg.workers, "config.workers")
    return cfg


def parse_pipeline_config(payload: dict) -> PipelineConfig:
    return _section(payload, "config", _CONFIG, _pipeline_config)


# ---------------------------------------------------------------------------
# stages: each writes its own files; the subcommands and the pipeline call them

def _ingest_stage(paths: list[str], span: tuple[int, int], out: str,
                  csv_path: str | None = None) -> ingest.BinningResult:
    for p in paths:
        if not os.path.exists(p):
            raise FileNotFoundError(f"input path does not exist: {p}")
    result = ingest.bin_series(ingest.read_cdr_paths(paths), span[0], span[1])
    _log(f"ingest: {len(result.cells)} cells, "
         f"{(span[1] - span[0]) // ingest.BIN_WIDTH_MS} bins each, "
         f"{result.dropped} records outside span dropped")
    ingest.save_bins_json(result.cells, out)
    if csv_path:
        ingest.save_bins_csv(result.cells, csv_path)
    _log(f"ingest: wrote {out}")
    return result


def _cluster_stage(cells: dict, bins_path: str, k, kmax: int, seed: int,
                   utc_offset_hours: float, truth_path: str | None,
                   out: str, curve_path: str, series_path: str, print_curve: bool = False):
    """Clusters, SSE curve (k "auto" only) and per-cluster mean series of
    the cells read from bins_path, each written to its path; returns the
    series."""
    if truth_path:
        truth = synth.load_truth(truth_path)
        missing = sorted(set(cells) - set(truth))
        if missing:
            raise MalformedTruth(f"{truth_path}: no archetype for cell {missing[0]}")
    try:
        profiles = clustering.build_profiles(cells, utc_offset_hours)
    except DomainError as exc:
        raise DomainError(f"{bins_path}: {exc}") from None
    curve = None
    if k == "auto":
        curve = clustering.elbow_scan(profiles, kmax, seed=seed)
        if print_curve:
            for entry_k, entry_sse in curve.entries:
                print(f"{entry_k},{entry_sse:.17g}")
        k = clustering.knee_point(curve)
        _log(f"cluster: elbow pick k={k} from curve over 1..{curve.entries[-1][0]}")
    model = clustering.kmeans(profiles, int(k), seed=seed)
    _log(f"cluster: k={model.k} sse={model.sse:.6g} "
         f"({model.iterations_run} lloyd iterations)")
    if truth_path:
        cell_ids = sorted(model.assignment)
        ari = clustering.adjusted_rand_index(
            [model.assignment[c] for c in cell_ids],
            [truth[c] for c in cell_ids])
        _log(f"cluster: adjusted Rand vs truth = {ari:.4f}")
    series = clustering.cluster_mean_series(model, cells)
    clustering.save_cluster_json(model, out)
    if curve is not None:
        clustering.save_sse_csv(curve, curve_path)
    ingest.save_bins_json(series, series_path)
    _log(f"cluster: wrote {out} and {series_path}")
    return series


def _winner_samples(result: training.GridResult, cluster: int) -> list[stats.MetricSample]:
    """RMSE samples of the cluster's LSTM and GRU winners, in that order."""
    winners = training.kind_winners(result, cluster)
    return [stats.MetricSample(label=winners[kind][0].label,
                               values=tuple(r.rmse for r in winners[kind]))
            for kind in ("lstm", "gru") if kind in winners]


def _train_stage(series: dict, grid: training.GridSpec, cfg: training.TrainConfig,
                 workers: int, out_dir: str, record_timing: bool = False):
    """Writes the grid's results, summary and best models to out_dir;
    returns the grid result and label -> (network, scaler) of each model."""
    datasets = [training.prepare_dataset(series[c]) for c in sorted(series)]
    result = training.grid_search(grid, datasets, cfg, workers=workers)
    training.save_results_csv(result, os.path.join(out_dir, "results.csv"),
                              record_timing=record_timing)
    training.save_summary_json(result, os.path.join(out_dir, "summary.json"))
    by_cluster = {d.cluster: d for d in datasets}
    models = {}
    for cluster in sorted(by_cluster):
        winners = training.kind_winners(result, cluster)
        for kind in grid.cell_kinds:
            runs = winners[kind]
            label = runs[0].label
            net, scaler = training.winner_network(result, runs), by_cluster[cluster].scaler
            path = os.path.join(out_dir, f"{kind}_c{cluster}.json")
            recurrent.save_model_json(net, scaler, path)
            models[label] = net, scaler
            _log(f"train: cluster {cluster} best {kind} = {label} "
                 f"(mean rmse {result.mean_rmse[label]:.6g}), model -> {path}")
    _log(f"train: wrote results to {out_dir}")
    return result, models


def _compare_stage(result: training.GridResult, clusters: list[int], out: str,
                   box_path: str | None = None) -> None:
    report = {}
    for cluster in clusters:
        samples = _winner_samples(result, cluster)
        if len(samples) < 2:
            _log(f"compare: cluster {cluster} has fewer than two cell kinds, skipped")
            continue
        report[str(cluster)] = stats.comparison_report(samples)
        _log(f"compare: cluster {cluster} p={report[str(cluster)]['p_value']:.4g} "
             f"-> {report[str(cluster)]['verdict']}")
    stats.save_comparison_json(report, out)
    if box_path:
        stats.save_box_csv([s for c in clusters for s in _winner_samples(result, c)], box_path)
    _log(f"compare: wrote {out}")


def _predict_stage(net: recurrent.RecurrentNetwork, scaler, series, out: str | None) -> None:
    """Test-span predictions of series as CSV, to out or to stdout."""
    table = training.predict_test_split(net, scaler, series)
    with (open(out, "w", encoding="utf-8", newline="") if out else
          contextlib.nullcontext(sys.stdout)) as fh:
        fh.write("timestamp,truth,prediction\n")
        for ts, truth, pred in zip(table.timestamps, table.truth, table.prediction):
            fh.write(f"{int(ts)},{truth:.17g},{pred:.17g}\n")
    if out:
        _log(f"predict: wrote {out}")


# ---------------------------------------------------------------------------
# subcommands

def cmd_synth(args) -> int:
    if args.spec:
        spec = jsonfile.load(args.spec, lambda doc: parse_synth_spec(doc, args.seed), ConfigError)
    else:
        spec = synth.well_separated_city(
            n_archetypes=args.archetypes, cells_per_archetype=args.cells,
            days=args.days, seed=args.seed, noise_sd=args.noise)
    paths, truth = synth.generate(spec, args.out)
    _log(f"synth: wrote {len(paths)} day files for {len(truth)} cells to {args.out}")
    return 0


def cmd_ingest(args) -> int:
    _ingest_stage(args.input, parse_span(args.span, args.utc_offset), args.out, args.csv)
    return 0


def cmd_cluster(args) -> int:
    try:
        k = args.k if args.k == "auto" else int(args.k)
    except ValueError:
        raise ConfigError(f"--k must be an integer or 'auto', got {args.k!r}") from None
    clustering.validate_settings(k, args.kmax, "--")
    _cluster_stage(ingest.load_bins_json(args.bins), args.bins, k, args.kmax, args.seed,
                   args.utc_offset, args.truth, args.out, args.curve,
                   args.series, print_curve=True)
    return 0


def cmd_train(args) -> int:
    training.validate_workers(args.workers, "--workers")
    series = ingest.load_bins_json(args.series)
    if not series:
        raise MalformedBins(f"{args.series}: cells: holds no series to train on")
    if args.grid == "default":
        grid = training.GridSpec()
    else:
        grid = jsonfile.load(args.grid, lambda doc: parse_grid(doc, "grid file"), ConfigError)
    cfg = training.TrainConfig(epochs=args.epochs, runs=args.runs, base_seed=args.seed)
    os.makedirs(args.out_dir, exist_ok=True)
    _train_stage(series, grid, cfg, args.workers, args.out_dir,
                 record_timing=args.record_timing)
    return 0


def _parse_cluster_range(text: str, available: list[int]) -> list[int]:
    if text == "all":
        return sorted(available)
    m = re.fullmatch(r"(\d+)\.\.(\d+)", text)
    if m:
        lo, hi = int(m.group(1)), int(m.group(2))
        clusters = [c for c in sorted(available) if lo <= c <= hi]
        if not clusters:
            raise ConfigError(f"--clusters {text} selects no cluster in the results")
        return clusters
    clusters = []
    for part in text.split(","):
        if not re.fullmatch(r"\d+", part.strip()) or int(part) not in available:
            raise ConfigError(f"--clusters: {part!r} is not a cluster in the results")
        if int(part) in clusters:
            raise ConfigError(f"--clusters: {int(part)} is repeated")
        clusters.append(int(part))
    return clusters


def cmd_compare(args) -> int:
    result = training.load_results_csv(args.results)
    clusters = _parse_cluster_range(args.clusters, sorted({r.cluster for r in result.runs}))
    _compare_stage(result, clusters, args.out, args.box)
    return 0


def cmd_predict(args) -> int:
    net, scaler = recurrent.load_model_json(args.model)
    cells = ingest.load_bins_json(args.bins)
    if args.cluster is not None:
        if args.cluster not in cells:
            raise ConfigError(f"series {args.cluster} not in {args.bins}")
        series = cells[args.cluster]
    elif len(cells) == 1:
        series = next(iter(cells.values()))
    else:
        raise ConfigError(f"{args.bins} holds {len(cells)} series; pass --cluster")
    _predict_stage(net, scaler, series, args.out)
    return 0


def cmd_pipeline(args) -> int:
    cfg = jsonfile.load(args.config, parse_pipeline_config, ConfigError)
    if args.workers is not None:
        training.validate_workers(args.workers, "--workers")
        cfg.workers = args.workers
    out = cfg.out_dir
    os.makedirs(out, exist_ok=True)

    if cfg.synth_spec is not None:
        data_dir = os.path.join(out, "data")
        # Only the files written now: data_dir may hold day files of an
        # earlier run.
        input_paths, _ = synth.generate(cfg.synth_spec, data_dir)
        _log(f"pipeline: synth wrote {len(input_paths)} day files")
        truth_path = os.path.join(data_dir, "truth.csv")
    else:
        input_paths, truth_path = cfg.input_paths, None

    bins_path = os.path.join(out, "bins.json")
    binned = _ingest_stage(input_paths, cfg.span, bins_path)
    series = _cluster_stage(binned.cells, bins_path, cfg.k, cfg.kmax, cfg.seed,
                            cfg.utc_offset_hours, truth_path, os.path.join(out, "clusters.json"),
                            os.path.join(out, "sse_curve.csv"),
                            os.path.join(out, "cluster_series.json"))
    result, models = _train_stage(series, cfg.grid, cfg.train, cfg.workers, out)
    _compare_stage(result, sorted(series), os.path.join(out, "comparison.json"))
    for cluster in sorted(series):
        net, scaler = models[result.best_config[cluster]]
        _predict_stage(net, scaler, series[cluster],
                       os.path.join(out, f"predictions_c{cluster}.csv"))
    _log(f"pipeline: done, outputs in {out}")
    return 0


# ---------------------------------------------------------------------------
# parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cellcast",
        description="Cluster mobile-traffic cells and forecast per-cluster "
                    "activity with from-scratch recurrent networks.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate synthetic CDR data")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--spec", help="synth spec JSON (overrides the preset flags)")
    preset = inspect.signature(synth.well_separated_city).parameters
    p.add_argument("--archetypes", type=int, default=preset["n_archetypes"].default)
    p.add_argument("--cells", type=int, default=preset["cells_per_archetype"].default,
                   help="cells per archetype")
    p.add_argument("--days", type=int, default=preset["days"].default)
    p.add_argument("--noise", type=finite_number, default=preset["noise_sd"].default)
    p.add_argument("--seed", type=int, default=PipelineConfig.seed)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("ingest", help="bin raw CDR files into 30-minute series")
    p.add_argument("--input", required=True, nargs="+", help="CDR files or directories")
    p.add_argument("--span", required=True, help="local date range, e.g. 2013-11-01..2014-01-02")
    p.add_argument("--utc-offset", type=finite_number, default=PipelineConfig.utc_offset_hours,
                   dest="utc_offset", help="local clock offset in hours (default %(default)s, Milan)")
    p.add_argument("--out", required=True, help="bins JSON output")
    p.add_argument("--csv", help="also write bins as CSV")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("cluster", help="cluster cells on day-period profiles")
    p.add_argument("--bins", required=True)
    p.add_argument("--k", default=PipelineConfig.k,
                   help="cluster count, or 'auto' for the elbow pick")
    p.add_argument("--kmax", type=int, default=PipelineConfig.kmax)
    p.add_argument("--seed", type=int, default=PipelineConfig.seed)
    p.add_argument("--utc-offset", type=finite_number, default=PipelineConfig.utc_offset_hours,
                   dest="utc_offset")
    p.add_argument("--truth", help="truth.csv to score the clustering against")
    p.add_argument("--out", default="clusters.json")
    p.add_argument("--curve", default="sse_curve.csv")
    p.add_argument("--series", default="cluster_series.json",
                   help="per-cluster mean series output (bins format)")
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("train", help="grid-search networks for every series of a file")
    p.add_argument("--series", required=True,
                   help="per-cluster series in the bins format, e.g. the cluster_series.json "
                        "that cluster writes; train forecasts every series in it")
    p.add_argument("--grid", default="default", help="'default' or a grid JSON file")
    p.add_argument("--runs", type=int, default=training.TrainConfig.runs)
    p.add_argument("--epochs", type=int, default=training.TrainConfig.epochs)
    p.add_argument("--seed", type=int, default=PipelineConfig.seed)
    p.add_argument("--workers", type=int, default=PipelineConfig.workers)
    p.add_argument("--record-timing", action="store_true", dest="record_timing",
                   help="write wall times into results.csv (breaks rerun byte-identity)")
    p.add_argument("--out-dir", default=".", dest="out_dir")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("compare", help="rank-test best configs per cluster")
    p.add_argument("--results", required=True, help="results.csv from train")
    p.add_argument("--clusters", default="all", help="'all', 'LO..HI', or comma list")
    p.add_argument("--out", default="comparison.json")
    p.add_argument("--box", help="also write box-plot stats CSV")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("predict", help="emit test-span predictions for one series")
    p.add_argument("--model", required=True, help="model JSON from train")
    p.add_argument("--bins", required=True, help="bins-format series file")
    p.add_argument("--cluster", type=int, help="which series to predict (if several)")
    p.add_argument("--out", help="output CSV (default stdout)")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("pipeline", help="run all stages from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--workers", type=int, default=None,
                   help="override the config's training worker count")
    p.set_defaults(func=cmd_pipeline)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    training.single_blas_thread()
    try:
        return args.func(args)
    except (ValidationError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports, not raises
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
