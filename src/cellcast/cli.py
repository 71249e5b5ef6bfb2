"""Command-line pipeline: synth, ingest, cluster, train, compare, predict.

Each stage reads and writes files so every step is independently
runnable and cacheable; `pipeline` chains them from one JSON config.
Progress lines go to stderr, data to files or stdout. Exit codes:
0 success, 2 validation or usage error, 1 runtime failure. All
randomness derives from a single seed.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import re
import sys
from dataclasses import dataclass

from . import clustering, ingest, recurrent, stats, synth, training
from .errors import ConfigError, ValidationError

MS_PER_DAY = 86_400_000


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


def parse_span(text: str, utc_offset_hours: float) -> tuple[int, int]:
    """'YYYY-MM-DD..YYYY-MM-DD' (end exclusive, local dates) to UTC ms."""
    m = re.fullmatch(r"(\d{4}-\d{2}-\d{2})\.\.(\d{4}-\d{2}-\d{2})", text.strip())
    if not m:
        raise ConfigError(f"span must look like 2013-11-01..2014-01-02, got {text!r}")
    offset_ms = round(utc_offset_hours * ingest.MS_PER_HOUR)

    def to_ms(datestr: str) -> int:
        d = datetime.date.fromisoformat(datestr)
        return (d - datetime.date(1970, 1, 1)).days * MS_PER_DAY - offset_ms

    start, end = to_ms(m.group(1)), to_ms(m.group(2))
    if end <= start:
        raise ConfigError(f"span end must be after start: {text!r}")
    return start, end


def _require_keys(payload: dict, allowed: set[str], where: str) -> None:
    if not isinstance(payload, dict):
        raise ConfigError(f"{where} must be a JSON object, got {type(payload).__name__}")
    unknown = sorted(set(payload) - allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(unknown)}")


_REQUIRED = object()


def _integer(value) -> int:
    """int(value), refusing what int() would silently truncate: a bool
    or a float with a fractional part."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError("not an integer")
    return int(value)


def _boolean(value) -> bool:
    if not isinstance(value, bool):
        raise TypeError("not a boolean")
    return value


def _path_list(value) -> list[str]:
    if not isinstance(value, list) or not value or not all(isinstance(p, str) for p in value):
        raise TypeError("not a non-empty list of paths")
    return value


def _float_list(value) -> tuple[float, ...]:
    if not isinstance(value, list):
        raise TypeError("not a list")
    return tuple(float(w) for w in value)


def _int_list(value) -> tuple[int, ...]:
    if not isinstance(value, list):
        raise TypeError("not a list")
    return tuple(_integer(w) for w in value)


def _name_list(value) -> tuple[str, ...]:
    if not isinstance(value, list):
        raise TypeError("not a list")
    return tuple(str(w).lower() for w in value)


_KINDS = {_integer: "an integer", float: "a number", _boolean: "true or false",
          _path_list: "a non-empty list of paths", _float_list: "a list of numbers",
          _int_list: "a list of integers", _name_list: "a list of names"}


def _field(payload: dict, key: str, convert, where: str, default=_REQUIRED):
    """payload[key] through convert, or default when absent; a missing
    required key or a value convert rejects is a ConfigError that names
    where.key."""
    if key not in payload:
        if default is _REQUIRED:
            raise ConfigError(f"{where}.{key} is required")
        return default
    try:
        return convert(payload[key])
    except (TypeError, ValueError):
        raise ConfigError(f"{where}.{key} must be {_KINDS[convert]}, "
                          f"got {payload[key]!r}") from None


def parse_synth_spec(payload: dict, default_seed: int) -> synth.SynthSpec:
    _require_keys(payload, {"archetypes", "cells_per_archetype", "days", "seed",
                            "span_start", "start_weekday", "country_code"}, "synth")
    if not isinstance(payload.get("archetypes"), list):
        raise ConfigError("synth needs an archetypes list")
    archetypes = []
    for i, raw in enumerate(payload["archetypes"]):
        where = f"synth.archetypes[{i}]"
        _require_keys(raw, {"id", "base_level", "period_weights",
                            "weekend_factor", "noise_sd"}, where)
        archetypes.append(synth.Archetype(
            id=_field(raw, "id", _integer, where, i),
            base_level=_field(raw, "base_level", float, where),
            period_weights=_field(raw, "period_weights", _float_list, where),
            weekend_factor=_field(raw, "weekend_factor", float, where, 1.0),
            noise_sd=_field(raw, "noise_sd", float, where, 0.0),
        ))
    spec = synth.SynthSpec(
        archetypes=archetypes,
        cells_per_archetype=_field(payload, "cells_per_archetype", _integer, "synth", 1),
        days=_field(payload, "days", _integer, "synth", 62),
        seed=_field(payload, "seed", _integer, "synth", default_seed),
        span_start=_field(payload, "span_start", _integer, "synth", synth.DEFAULT_SPAN_START),
        start_weekday=_field(payload, "start_weekday", _integer, "synth", synth.FRIDAY),
        country_code=_field(payload, "country_code", _integer, "synth", 39),
    )
    synth.validate_spec(spec)
    return spec


def parse_k(value, where: str):
    """A cluster count >= 1, or "auto" for the elbow pick."""
    if value == "auto":
        return value
    try:
        k = _integer(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{where} must be an integer or 'auto', got {value!r}") from None
    if k < 1:
        raise ConfigError(f"{where} must be >= 1 or 'auto', got {value}")
    return k


def parse_grid(payload: dict, where: str) -> training.GridSpec:
    """Grid axes from JSON; an absent axis takes the GridSpec default."""
    _require_keys(payload, {"hidden_layers", "units", "cell_kinds"}, where)
    default = training.GridSpec()
    grid = training.GridSpec(
        hidden_layers=_field(payload, "hidden_layers", _int_list, where, default.hidden_layers),
        units=_field(payload, "units", _int_list, where, default.units),
        cell_kinds=_field(payload, "cell_kinds", _name_list, where, default.cell_kinds),
    )
    training.validate_grid(grid)
    return grid


@dataclass
class PipelineConfig:
    out_dir: str
    synth_spec: synth.SynthSpec | None
    input_paths: list[str] | None
    span: tuple[int, int] | None
    utc_offset_hours: float
    k: object  # int or "auto"
    kmax: int
    restarts: int
    grid: training.GridSpec
    train: training.TrainConfig
    seed: int
    workers: int


def parse_pipeline_config(payload: dict) -> PipelineConfig:
    _require_keys(payload, {"out_dir", "synth", "input", "span", "utc_offset_hours",
                            "k", "kmax", "restarts", "grid", "train", "seed",
                            "workers"}, "config")
    if "out_dir" not in payload:
        raise ConfigError("config needs out_dir")
    seed = _field(payload, "seed", _integer, "config", 0)
    utc_offset = _field(payload, "utc_offset_hours", float, "config",
                        clustering.DEFAULT_UTC_OFFSET_HOURS)

    has_synth = "synth" in payload
    has_input = "input" in payload
    if has_synth == has_input:
        raise ConfigError("config needs exactly one of synth or input")

    synth_spec = parse_synth_spec(payload["synth"], seed) if has_synth else None
    input_paths = _field(payload, "input", _path_list, "config") if has_input else None

    span = None
    if "span" in payload:
        span = parse_span(str(payload["span"]), utc_offset)
    elif has_synth:
        span = (synth_spec.span_start, synth_spec.span_end)
    else:
        raise ConfigError("config needs a span when input paths are given")

    k = parse_k(payload.get("k", "auto"), "k")
    grid = parse_grid(payload.get("grid", {}), "grid")

    train_payload = payload.get("train", {})
    _require_keys(train_payload, {"epochs", "batch_size", "runs", "base_seed",
                                  "shuffle_each_epoch"}, "train")
    cfg = training.TrainConfig(
        epochs=_field(train_payload, "epochs", _integer, "train", 50),
        batch_size=_field(train_payload, "batch_size", _integer, "train", 32),
        runs=_field(train_payload, "runs", _integer, "train", 30),
        shuffle_each_epoch=_field(train_payload, "shuffle_each_epoch", _boolean, "train", True),
        base_seed=_field(train_payload, "base_seed", _integer, "train", seed),
    )
    training.validate_train_config(cfg)

    return PipelineConfig(
        out_dir=str(payload["out_dir"]),
        synth_spec=synth_spec,
        input_paths=input_paths,
        span=span,
        utc_offset_hours=utc_offset,
        k=k,
        kmax=_field(payload, "kmax", _integer, "config", 50),
        restarts=_field(payload, "restarts", _integer, "config", 10),
        grid=grid,
        train=cfg,
        seed=seed,
        workers=_field(payload, "workers", _integer, "config", 1),
    )


# ---------------------------------------------------------------------------
# stage helpers shared by subcommands and the pipeline

def _ingest_paths(paths: list[str], span: tuple[int, int]) -> ingest.BinningResult:
    for p in paths:
        if not os.path.exists(p):
            raise FileNotFoundError(f"input path does not exist: {p}")
    result = ingest.bin_series(ingest.read_cdr_paths(paths), span[0], span[1])
    _log(f"ingest: {len(result.cells)} cells, "
         f"{(span[1] - span[0]) // ingest.BIN_WIDTH_MS} bins each, "
         f"{result.dropped} records outside span dropped")
    return result


def _cluster_stage(cells: dict, k, kmax: int, seed: int, restarts: int,
                   utc_offset_hours: float, truth_path: str | None,
                   print_curve: bool = False):
    profiles = clustering.build_profiles(cells, utc_offset_hours)
    curve = None
    if k == "auto":
        curve = clustering.elbow_scan(profiles, kmax, seed=seed, restarts=restarts)
        if print_curve:
            for entry_k, entry_sse in curve.entries:
                print(f"{entry_k},{entry_sse:.17g}")
        k = clustering.knee_point(curve)
        _log(f"cluster: elbow pick k={k} from curve over 1..{curve.entries[-1][0]}")
    model = clustering.kmeans(profiles, int(k), seed=seed, restarts=restarts)
    _log(f"cluster: k={model.k} sse={model.sse:.6g} "
         f"({model.iterations_run} lloyd iterations)")
    if truth_path:
        truth = synth.load_truth(truth_path)
        cell_ids = sorted(model.assignment)
        ari = clustering.adjusted_rand_index(
            [model.assignment[c] for c in cell_ids],
            [truth[c] for c in cell_ids])
        _log(f"cluster: adjusted Rand vs truth = {ari:.4f}")
    series = clustering.cluster_mean_series(model, cells)
    return model, curve, series


def _best_run_seed(runs: list[training.TrainRunResult]) -> int:
    return min(runs, key=lambda r: (r.rmse, r.run)).seed


def _winner_samples(result: training.GridResult, cluster: int) -> list[stats.MetricSample]:
    """RMSE samples of the cluster's LSTM and GRU winners, in that order."""
    winners = training.kind_winners(result, cluster)
    return [stats.MetricSample(label=winners[kind][0].label,
                               values=tuple(r.rmse for r in winners[kind]))
            for kind in ("lstm", "gru") if kind in winners]


def _train_stage(series: dict, grid: training.GridSpec, cfg: training.TrainConfig,
                 workers: int, out_dir: str, record_timing: bool = False):
    datasets = [training.prepare_dataset(series[c]) for c in sorted(series)]
    result = training.grid_search(grid, datasets, cfg, workers=workers)
    training.save_results_csv(result, os.path.join(out_dir, "results.csv"),
                              record_timing=record_timing)
    training.save_summary_json(result, os.path.join(out_dir, "summary.json"))
    by_cluster = {d.cluster: d for d in datasets}
    model_paths = {}
    for cluster in sorted(by_cluster):
        winners = training.kind_winners(result, cluster)
        for kind in grid.cell_kinds:
            runs = winners[kind]
            label = runs[0].label
            net = training.train_best_network(kind, runs[0].hidden_layers, runs[0].units,
                                              by_cluster[cluster], cfg, _best_run_seed(runs))
            path = os.path.join(out_dir, f"{kind}_c{cluster}.json")
            recurrent.save_model_json(net, by_cluster[cluster].scaler, path)
            model_paths[label] = path
            _log(f"train: cluster {cluster} best {kind} = {label} "
                 f"(mean rmse {result.mean_rmse[label]:.6g}), model -> {path}")
    return result, model_paths


def _compare_stage(result: training.GridResult, clusters: list[int]) -> dict:
    report = {}
    for cluster in clusters:
        samples = _winner_samples(result, cluster)
        if len(samples) < 2:
            _log(f"compare: cluster {cluster} has fewer than two cell kinds, skipped")
            continue
        report[str(cluster)] = stats.comparison_report(samples)
        _log(f"compare: cluster {cluster} p={report[str(cluster)]['p_value']:.4g} "
             f"-> {report[str(cluster)]['verdict']}")
    return report


def _write_predictions_csv(table: training.PredictionTable, fh) -> None:
    fh.write("timestamp,truth,prediction\n")
    for ts, truth, pred in zip(table.timestamps, table.truth, table.prediction):
        fh.write(f"{int(ts)},{truth:.17g},{pred:.17g}\n")


# ---------------------------------------------------------------------------
# subcommands

def cmd_synth(args) -> int:
    if args.spec:
        with open(args.spec, "r", encoding="utf-8") as fh:
            spec = parse_synth_spec(json.load(fh), args.seed)
    else:
        spec = synth.well_separated_city(
            n_archetypes=args.archetypes, cells_per_archetype=args.cells,
            days=args.days, seed=args.seed, noise_sd=args.noise)
    paths, truth = synth.generate(spec, args.out)
    _log(f"synth: wrote {len(paths)} day files for {len(truth)} cells to {args.out}")
    return 0


def cmd_ingest(args) -> int:
    span = parse_span(args.span, args.utc_offset)
    result = _ingest_paths(args.input, span)
    ingest.save_bins_json(result.cells, args.out)
    if args.csv:
        ingest.save_bins_csv(result.cells, args.csv)
    _log(f"ingest: wrote {args.out}")
    return 0


def cmd_cluster(args) -> int:
    k = parse_k(args.k, "--k")
    cells = ingest.load_bins_json(args.bins)
    model, curve, series = _cluster_stage(
        cells, k, args.kmax, args.seed, args.restarts,
        args.utc_offset, args.truth, print_curve=True)
    clustering.save_cluster_json(model, args.out)
    if curve is not None:
        clustering.save_sse_csv(curve, args.curve)
    ingest.save_bins_json(series, args.series)
    _log(f"cluster: wrote {args.out} and {args.series}")
    return 0


def cmd_train(args) -> int:
    model = clustering.load_cluster_json(args.clusters)
    cells = ingest.load_bins_json(args.bins)
    series = clustering.cluster_mean_series(model, cells)
    if args.grid == "default":
        grid = training.GridSpec()
    else:
        with open(args.grid, "r", encoding="utf-8") as fh:
            grid = parse_grid(json.load(fh), "grid file")
    cfg = training.TrainConfig(epochs=args.epochs, batch_size=args.batch,
                               runs=args.runs, base_seed=args.seed)
    os.makedirs(args.out_dir, exist_ok=True)
    _train_stage(series, grid, cfg, args.workers, args.out_dir,
                 record_timing=args.record_timing)
    _log(f"train: wrote results to {args.out_dir}")
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
        clusters.append(int(part))
    return clusters


def cmd_compare(args) -> int:
    result = training.load_results_csv(args.results)
    available = sorted({r.cluster for r in result.runs})
    clusters = _parse_cluster_range(args.clusters, available)
    report = _compare_stage(result, clusters)
    stats.save_comparison_json(report, args.out)
    if args.box:
        samples = [s for cluster in clusters for s in _winner_samples(result, cluster)]
        stats.save_box_csv(samples, args.box)
    _log(f"compare: wrote {args.out}")
    return 0


def cmd_predict(args) -> int:
    net, scaler = recurrent.load_model_json(args.model)
    if scaler is None:
        raise ConfigError(f"model {args.model} carries no scaler; cannot de-normalize")
    cells = ingest.load_bins_json(args.bins)
    if args.cluster is not None:
        if args.cluster not in cells:
            raise ConfigError(f"series {args.cluster} not in {args.bins}")
        series = cells[args.cluster]
    elif len(cells) == 1:
        series = next(iter(cells.values()))
    else:
        raise ConfigError(f"{args.bins} holds {len(cells)} series; pass --cluster")
    table = training.predict_test_split(net, scaler, series)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            _write_predictions_csv(table, fh)
        _log(f"predict: wrote {args.out}")
    else:
        _write_predictions_csv(table, sys.stdout)
    return 0


def cmd_pipeline(args) -> int:
    with open(args.config, "r", encoding="utf-8") as fh:
        cfg = parse_pipeline_config(json.load(fh))
    if args.workers is not None:
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
        input_paths = cfg.input_paths
        truth_path = None

    binned = _ingest_paths(input_paths, cfg.span)
    ingest.save_bins_json(binned.cells, os.path.join(out, "bins.json"))

    model, curve, series = _cluster_stage(
        binned.cells, cfg.k, cfg.kmax, cfg.seed, cfg.restarts,
        cfg.utc_offset_hours, truth_path)
    clustering.save_cluster_json(model, os.path.join(out, "clusters.json"))
    if curve is not None:
        clustering.save_sse_csv(curve, os.path.join(out, "sse_curve.csv"))
    ingest.save_bins_json(series, os.path.join(out, "cluster_series.json"))

    result, model_paths = _train_stage(series, cfg.grid, cfg.train, cfg.workers, out)

    report = _compare_stage(result, sorted(series))
    stats.save_comparison_json(report, os.path.join(out, "comparison.json"))

    for cluster in sorted(series):
        net, scaler = recurrent.load_model_json(model_paths[result.best_config[cluster]])
        table = training.predict_test_split(net, scaler, series[cluster])
        with open(os.path.join(out, f"predictions_c{cluster}.csv"),
                  "w", encoding="utf-8", newline="") as fh:
            _write_predictions_csv(table, fh)
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
    p.add_argument("--archetypes", type=int, default=12)
    p.add_argument("--cells", type=int, default=50, help="cells per archetype")
    p.add_argument("--days", type=int, default=62)
    p.add_argument("--noise", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("ingest", help="bin raw CDR files into 30-minute series")
    p.add_argument("--input", required=True, nargs="+", help="CDR files or directories")
    p.add_argument("--span", required=True, help="local date range, e.g. 2013-11-01..2014-01-02")
    p.add_argument("--utc-offset", type=float, default=1.0, dest="utc_offset",
                   help="local clock offset in hours (default 1, Milan)")
    p.add_argument("--out", required=True, help="bins JSON output")
    p.add_argument("--csv", help="also write bins as CSV")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("cluster", help="cluster cells on day-period profiles")
    p.add_argument("--bins", required=True)
    p.add_argument("--k", default="auto", help="cluster count, or 'auto' for the elbow pick")
    p.add_argument("--kmax", type=int, default=50)
    p.add_argument("--restarts", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--utc-offset", type=float, default=1.0, dest="utc_offset")
    p.add_argument("--truth", help="truth.csv to score the clustering against")
    p.add_argument("--out", default="clusters.json")
    p.add_argument("--curve", default="sse_curve.csv")
    p.add_argument("--series", default="cluster_series.json",
                   help="per-cluster mean series output (bins format)")
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("train", help="grid-search networks per cluster")
    p.add_argument("--clusters", required=True, help="clusters.json")
    p.add_argument("--bins", required=True, help="bins.json the clusters came from")
    p.add_argument("--grid", default="default", help="'default' or a grid JSON file")
    p.add_argument("--runs", type=int, default=30)
    p.add_argument("--epochs", type=int, default=50)
    p.add_argument("--batch", type=int, default=32)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1)
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
