"""Command-line surface: span parsing, exit codes, and the wired pipeline."""

import base64
import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cellcast import recurrent, training
from cellcast.cli import main, parse_grid, parse_pipeline_config, parse_span, parse_synth_spec
from cellcast.errors import ConfigError
from cellcast.ingest import SPAN_STARTS, load_bins_json, save_bins_json

MS_PER_DAY = 86_400_000


class TestParseSpan:
    def test_sixty_two_day_span(self):
        start, end = parse_span("2013-11-01..2014-01-02", utc_offset_hours=1.0)
        assert start == 1_383_260_400_000
        assert end - start == 62 * MS_PER_DAY
        assert (end - start) // 1_800_000 == 2976

    def test_offset_shifts_boundaries(self):
        at_utc, _ = parse_span("2013-11-01..2013-11-02", utc_offset_hours=0.0)
        at_milan, _ = parse_span("2013-11-01..2013-11-02", utc_offset_hours=1.0)
        assert at_utc - at_milan == 3_600_000

    def test_end_exclusive_ordering(self):
        with pytest.raises(ConfigError):
            parse_span("2013-11-02..2013-11-01", utc_offset_hours=0.0)
        with pytest.raises(ConfigError):
            parse_span("2013-11-01..2013-11-01", utc_offset_hours=0.0)

    def test_start_within_a_day_of_the_named_dates(self):
        """At an offset of up to a day the span starts in ingest.SPAN_STARTS,
        the span starts a bins file may state; at any larger offset that
        leaves them, it is refused."""
        first, _ = parse_span("0001-01-01..0001-01-02", utc_offset_hours=24.0)
        last, _ = parse_span("9999-12-30..9999-12-31", utc_offset_hours=-24.0)
        assert (first, last + 1) == (SPAN_STARTS.start, SPAN_STARTS.stop - MS_PER_DAY)
        for text, offset in (("0001-01-01..0001-01-02", 24.5), ("2013-11-01..2013-11-02", 1e9)):
            with pytest.raises(ConfigError, match="more than a day outside 0001-01-01..9999-12-31"):
                parse_span(text, utc_offset_hours=offset)

    @pytest.mark.parametrize("text", ["2013-11-01", "nov..dec", "2013-11-01..", "2013/11/01..2013/11/02"])
    def test_malformed_text(self, text):
        with pytest.raises(ConfigError):
            parse_span(text, utc_offset_hours=0.0)


class TestConfigParsing:
    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            parse_pipeline_config({"out_dir": "x", "synth": {"archetypes": 1}, "bogus": 1})

    def test_unknown_synth_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_synth_spec({"archetypes": 2, "cells_per_archetype": 1, "dayz": 3}, seed=0)

    def test_synth_or_input_required(self):
        with pytest.raises(ConfigError):
            parse_pipeline_config({"out_dir": "x"})

    def test_grid_must_be_an_object(self):
        with pytest.raises(ConfigError, match="grid file must be a JSON object"):
            parse_grid([1, 2], "grid file")

    def test_input_requires_span(self):
        with pytest.raises(ConfigError, match="span"):
            parse_pipeline_config({"out_dir": "x", "input": ["data/"]})


class TestExitCodes:
    def test_help_exits_zero(self):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0

    def test_missing_input_file(self, tmp_path, capsys):
        code = main([
            "ingest", "--input", str(tmp_path / "absent.tsv"),
            "--span", "2013-11-01..2013-11-02", "--out", str(tmp_path / "bins.json"),
        ])
        assert code == 2
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "bins.json").exists()

    @pytest.mark.parametrize("span", ["2013-13-01..2013-14-01", "2013-02-30..2013-03-01"])
    def test_impossible_span_date(self, tmp_path, capsys, span):
        out = tmp_path / "bins.json"
        code = main(["ingest", "--input", str(tmp_path), "--span", span, "--out", str(out)])
        assert code == 2
        assert f"error: span {span!r}: {span[:10]} is not a date" in capsys.readouterr().err
        assert not out.exists()

    def test_k_zero_rejected(self, tmp_path, capsys):
        bins = tmp_path / "bins.json"
        bins.write_text(json.dumps(_bins_of({1: [1.0, 2.0]})))
        out = tmp_path / "clusters.json"
        code = main(["cluster", "--bins", str(bins), "--k", "0", "--out", str(out)])
        assert code == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_k_not_integer_rejected(self, tmp_path, capsys):
        bins = tmp_path / "bins.json"
        bins.write_text(json.dumps(_bins_of({1: [1.0, 2.0]})))
        code = main(["cluster", "--bins", str(bins), "--k", "three",
                     "--out", str(tmp_path / "clusters.json")])
        assert code == 2
        assert "'three'" in capsys.readouterr().err

    @pytest.mark.parametrize("bad_row,where", [
        ("0,lstm,1,4,0,0,abc,0.5,0\n", ":3: "), ("0,lstm,1,4\n", ":3: "), (None, ": empty file"),
        ("", ": no rows after the header"),
        ("0,lstm,1,4,0,0,nan,0.5,0\n", ":3: rmse 'nan', expected a finite number"),
        ("0,lstm,1,4,0,0,inf,0.5,0\n", ":3: rmse 'inf', expected a finite number"),
        ("0,lstm,1,4,0,0,0.5,-Infinity,0\n", ":3: mae '-Infinity', expected a finite number"),
        ("0,lstm,1,4,0,0,0.5,0.5,NaN\n", ":3: seconds 'NaN', expected a finite number")],
        ids=["bad_float", "short_row", "empty_file", "header_only", "nan_rmse", "inf_rmse",
             "infinite_mae", "nan_seconds"])
    def test_malformed_results_names_line(self, tmp_path, capsys, bad_row, where):
        """bad_row follows a header and one good row; "" leaves the
        header alone, None the file empty."""
        results = tmp_path / "results.csv"
        header = "cluster,cell,layers,units,run,seed,rmse,mae,seconds\n"
        results.write_text("" if bad_row is None else
                           header if bad_row == "" else
                           header + "0,gru,1,4,0,0,0.25,0.5,0\n" + bad_row)
        out = tmp_path / "comparison.json"
        code = main(["compare", "--results", str(results), "--out", str(out)])
        assert code == 2
        assert f"{results}{where}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("runs,named", [
        ("lstm 0 1 2, gru 0 2", "GRU-0-1L-4U has runs 0, 2, expected 0..2"),
        ("lstm 0 1, gru 0 0", "GRU-0-1L-4U has runs 0, 0, expected 0..1"),
        ("lstm 0 1, gru 0", "GRU-0-1L-4U has runs 0, expected 0..1"),
        ("gru 0, lstm 0 1 2", "GRU-0-1L-4U has runs 0, expected 0..2"),
        ("lstm 0 1 2/9, gru 0 1 2", "LSTM-0-1L-4U run 2 has seed 9, expected 2"),
    ], ids=["missing_run", "duplicate_row", "cut_at_row_boundary", "short_first_config",
            "seed_shift"])
    def test_results_must_hold_a_whole_grid(self, tmp_path, capsys, runs, named):
        """Every config holds runs 0..R-1 once each, seeded base + run."""
        rows = ["cluster,cell,layers,units,run,seed,rmse,mae,seconds"]
        for config in runs.split(", "):
            kind, *ids = config.split()
            for entry in ids:
                run, _, seed = entry.partition("/")
                rows.append(f"0,{kind},1,4,{run},{seed or run},0.{run}5,0.5,0")
        results = tmp_path / "results.csv"
        results.write_text("\n".join(rows) + "\n")
        out = tmp_path / "comparison.json"
        assert main(["compare", "--results", str(results), "--out", str(out)]) == 2
        assert f"{results}: {named}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("levels,code", [([0, 0, 0, 0, 1, 5], 0), ([0, 0, 0, 0, 1, 1], 2)],
                             ids=["three_distinct", "two_distinct"])
    def test_k_auto_with_dead_cells(self, tmp_path, capsys, levels, code):
        """All-zero cells share one profile; the elbow scan stops at the
        distinct count and needs three of them."""
        bins = tmp_path / "bins.json"
        bins.write_text(json.dumps(_bins_of(
            {cid: [float(level)] * 48 for cid, level in enumerate(levels, start=1)})))
        out = tmp_path / "clusters.json"
        assert main(["cluster", "--bins", str(bins), "--k", "auto", "--kmax", "5",
                     "--out", str(out), "--curve", str(tmp_path / "curve.csv"),
                     "--series", str(tmp_path / "series.json")]) == code
        captured = capsys.readouterr()
        if code == 0:
            assert [line.split(",")[0] for line in captured.out.splitlines()] == ["1", "2", "3"]
        else:
            assert "at least 3 distinct profiles, got 2" in captured.err
            assert not out.exists()

    def test_unknown_config_key_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"out_dir": str(tmp_path / "out"), "synth": {"archetypes": 1}, "wat": 1}))
        assert main(["pipeline", "--config", str(cfg)]) == 2


def _two_archetype_synth(**overrides):
    synth = {"archetypes": [
        {"id": 0, "base_level": 10.0, "period_weights": [6, 1, 1, 1, 1, 1], "noise_sd": 0.3},
        {"id": 1, "base_level": 20.0, "period_weights": [1, 1, 6, 1, 1, 1], "noise_sd": 0.3},
    ], "cells_per_archetype": 3, "days": 3}
    synth.update(overrides)
    return synth


def _small_pipeline(out_dir, synth):
    """A pipeline config on a synth spec that trains one tiny net per kind."""
    return {"out_dir": str(out_dir), "seed": 3, "k": 2, "synth": synth,
            "grid": {"hidden_layers": [1], "units": [2], "cell_kinds": ["lstm", "gru"]},
            "train": {"epochs": 1, "runs": 1}}


def _repeat(key):
    """A corruption that writes the first `key` of the document twice,
    first as "": it returns the text, since a dict holds a key once."""
    return lambda doc: json.dumps(doc).replace(f'"{key}": ', f'"{key}": "", "{key}": ', 1)


class TestSynthSpecErrors:
    """A bad synth spec exits 2 and names the offending key, from both
    the synth subcommand and the pipeline."""

    CASES = {
        "missing_base_level": (lambda s: s["archetypes"][0].pop("base_level"),
                               "synth.archetypes[0].base_level"),
        "text_base_level": (lambda s: s["archetypes"][0].update(base_level="abc"),
                            "synth.archetypes[0].base_level"),
        "text_days": (lambda s: s.update(days="x"), "synth.days"),
        "fractional_days": (lambda s: s.update(days=2.5), "synth.days"),
        "scalar_period_weights": (lambda s: s["archetypes"][0].update(period_weights=5),
                                  "synth.archetypes[0].period_weights"),
        "duplicate_id": (lambda s: s["archetypes"][1].update(id=0), "archetype id 0"),
        # The seed is the pipeline's seed or synth's --seed, never the spec's.
        "retired_seed": (lambda s: s.update(seed=5), "unknown key(s) in synth: seed"),
        # Day 0's weekday follows span_start.
        "retired_start_weekday": (lambda s: s.update(start_weekday=4),
                                  "unknown key(s) in synth: start_weekday"),
        "days_past_bound": (lambda s: s.update(days=125), "days must be in 1..124, got 125"),
        "cells_past_bound": (lambda s: s.update(cells_per_archetype=10001),
                             "cells_per_archetype must be in 1..10000 for 2 archetypes"),
        # Bins past MAX_LEVEL could overflow to inf while they are drawn.
        "base_level_past_bound": (lambda s: s["archetypes"][0].update(base_level=1e308),
                                  "archetype 0: peak level inf or noise_sd 0.3 above 1e+15"),
        "noise_sd_past_bound": (lambda s: s["archetypes"][1].update(noise_sd=1e300),
                                "archetype 1: peak level 120 or noise_sd 1e+300 above 1e+15"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("command", ["synth", "pipeline"])
    def test_exits_two_naming_key(self, tmp_path, capsys, case, command):
        mutate, named = self.CASES[case]
        spec = _two_archetype_synth()
        mutate(spec)
        out = tmp_path / "out"
        if command == "synth":
            path = tmp_path / "spec.json"
            path.write_text(json.dumps(spec))
            argv = ["synth", "--spec", str(path), "--out", str(out)]
        else:
            path = tmp_path / "config.json"
            path.write_text(json.dumps(_small_pipeline(out, spec)))
            argv = ["pipeline", "--config", str(path)]
        assert main(argv) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()


def _input_mode(paths):
    """A config edit that swaps the synth spec for `paths` as input."""
    def edit(config):
        del config["synth"]
        config.update(input=paths, span="2013-11-01..2013-11-04")
    return edit


class TestPipelineConfigErrors:
    """A config value of the wrong type exits 2 and names its key; no
    value is truncated or coerced into one of another meaning."""

    CASES = {
        "text_kmax": (lambda c: c.update(kmax="x"), "config.kmax"),
        "text_workers": (lambda c: c.update(workers="two"), "config.workers"),
        "text_utc_offset": (lambda c: c.update(utc_offset_hours="one"), "config.utc_offset_hours"),
        "text_seed": (lambda c: c.update(seed="s"), "config.seed"),
        "text_epochs": (lambda c: c["train"].update(epochs="many"), "train.epochs"),
        "text_units": (lambda c: c["grid"].update(units=["x"]), "grid.units"),
        "scalar_hidden_layers": (lambda c: c["grid"].update(hidden_layers=3), "grid.hidden_layers"),
        "retired_shuffle": (lambda c: c["train"].update(shuffle_each_epoch=True),
                            "unknown key(s) in train: shuffle_each_epoch"),
        "retired_batch_size": (lambda c: c["train"].update(batch_size=32),
                               "unknown key(s) in train: batch_size"),
        "retired_base_seed": (lambda c: c["train"].update(base_seed=3),
                              "unknown key(s) in train: base_seed"),
        "retired_restarts": (lambda c: c.update(restarts=10),
                             "unknown key(s) in config: restarts"),
        "impossible_span_date": (lambda c: c.update(span="2013-02-30..2013-03-01"),
                                 "span '2013-02-30..2013-03-01': 2013-02-30 is not a date"),
        "text_input": (_input_mode("data/"), "config.input"),
        "empty_input": (_input_mode([]), "config.input"),
        "number_in_input": (_input_mode(["data/", 3]), "config.input"),
        "fractional_epochs": (lambda c: c["train"].update(epochs=2.7), "train.epochs"),
        "epochs_past_bound": (lambda c: c["train"].update(epochs=101),
                              "config.json: epochs must be in 1..100, got 101"),
        "runs_past_bound": (lambda c: c["train"].update(runs=61),
                            "config.json: runs must be in 1..60, got 61"),
        # numpy's SeedSequence takes no negative seed.
        "negative_seed": (lambda c: c.update(seed=-1),
                          "config.json: config.seed must be an integer >= 0, got -1"),
        "empty_out_dir": (lambda c: c.update(out_dir=""),
                          "config.json: config.out_dir must be a non-empty path, got ''"),
        "bool_kmax": (lambda c: c.update(kmax=True), "config.kmax"),
        "bool_seed": (lambda c: c.update(seed=False), "config.seed"),
        "fractional_k": (lambda c: c.update(k=2.5), "k must be an integer"),
        "fractional_units": (lambda c: c["grid"].update(units=[2.7]), "grid.units"),
        "bool_hidden_layers": (lambda c: c["grid"].update(hidden_layers=[True]), "grid.hidden_layers"),
        "repeated_units": (lambda c: c["grid"].update(units=[3, 3]), "grid axis units repeats 3"),
        "repeated_cell_kind": (lambda c: c["grid"].update(cell_kinds=["lstm", "gru", "LSTM"]),
                               "grid axis cell_kinds repeats 'lstm'"),
        "repeated_key": (_repeat("epochs"), "config.json: train.epochs: repeated key"),
        "repeated_key_in_list": (_repeat("noise_sd"),
                                 "config.json: synth.archetypes[0].noise_sd: repeated key"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_exits_two_naming_key(self, tmp_path, capsys, case):
        mutate, named = self.CASES[case]
        out = tmp_path / "out"
        config = _small_pipeline(out, _two_archetype_synth())
        text = mutate(config)  # only a repeated key comes back as text
        path = tmp_path / "config.json"
        path.write_text(text if isinstance(text, str) else json.dumps(config))
        assert main(["pipeline", "--config", str(path)]) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()


def test_pipeline_synth_mode_ingests_only_its_own_files(tmp_path, capsys):
    """A rerun into an out_dir that holds an earlier run's day files bins
    exactly what a fresh run bins."""
    def run(out_dir, **synth):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(_small_pipeline(out_dir, _two_archetype_synth(**synth))))
        capsys.readouterr()
        assert main(["pipeline", "--config", str(cfg_path)]) == 0
        return capsys.readouterr().err

    start = 1_383_260_400_000
    run(tmp_path / "reused", span_start=start, days=10)
    log = run(tmp_path / "reused", span_start=start + 5 * MS_PER_DAY)
    run(tmp_path / "fresh", span_start=start + 5 * MS_PER_DAY)
    assert "0 records outside span dropped" in log
    assert ((tmp_path / "reused" / "bins.json").read_bytes()
            == (tmp_path / "fresh" / "bins.json").read_bytes())


@pytest.fixture(scope="module")
def pipeline_run(tmp_path_factory):
    """One tiny end-to-end pipeline shared by the CLI integration tests."""
    root = tmp_path_factory.mktemp("pipe")
    out_dir = root / "out"
    config = {
        "out_dir": str(out_dir),
        "seed": 11,
        "synth": {
            "archetypes": [
                {"id": 0, "base_level": 10.0, "period_weights": [6, 1, 1, 1, 1, 1], "noise_sd": 0.3},
                {"id": 1, "base_level": 20.0, "period_weights": [1, 1, 6, 1, 1, 1], "noise_sd": 0.3},
                {"id": 2, "base_level": 30.0, "period_weights": [1, 1, 1, 1, 6, 1], "noise_sd": 0.3},
            ],
            "cells_per_archetype": 4,
            "days": 14,
        },
        "k": "auto",
        "kmax": 6,
        "grid": {"hidden_layers": [1], "units": [4], "cell_kinds": ["lstm", "gru"]},
        # 14 days give each cluster 533 training windows: 16 batches of
        # 32 and a ragged last batch of 21.
        "train": {"epochs": 2, "runs": 2},
    }
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps(config))
    assert main(["pipeline", "--config", str(cfg_path)]) == 0
    return out_dir


class TestPipelineOutputs:
    def test_expected_files_exist(self, pipeline_run):
        for name in ("bins.json", "clusters.json", "cluster_series.json", "sse_curve.csv",
                     "results.csv", "summary.json", "comparison.json"):
            assert (pipeline_run / name).exists(), name

    def test_results_rows_counted(self, pipeline_run):
        with open(pipeline_run / "results.csv") as fh:
            rows = list(csv.DictReader(fh))
        # 3 clusters x 2 kinds x 1 layer x 1 unit-count x 2 runs
        assert len(rows) == 12
        assert set(r["cell"] for r in rows) == {"lstm", "gru"}

    def test_clusters_recover_archetypes(self, pipeline_run):
        doc = json.loads((pipeline_run / "clusters.json").read_text())
        assert doc["k"] == 3
        groups = {}
        for cid, cluster in doc["assignment"].items():
            groups.setdefault(cluster, set()).add(int(cid))
        # archetypes laid out as cells 1-4, 5-8, 9-12
        expected = [{1, 2, 3, 4}, {5, 6, 7, 8}, {9, 10, 11, 12}]
        assert sorted(groups.values(), key=min) == expected

    def test_comparison_report_covers_all_clusters(self, pipeline_run):
        doc = json.loads((pipeline_run / "comparison.json").read_text())
        assert set(doc) == {"0", "1", "2"}
        for entry in doc.values():
            assert entry["verdict"] in ("different", "similar")
            assert len(entry["groups"]) == 2

    def test_predict_self_consistency(self, pipeline_run, tmp_path):
        """Reapplying a saved model reproduces the RMSE the search recorded."""
        with open(pipeline_run / "results.csv") as fh:
            rows = [r for r in csv.DictReader(fh) if r["cluster"] == "0" and r["cell"] == "gru"]
        best_stored = min(float(r["rmse"]) for r in rows)

        out_csv = tmp_path / "pred.csv"
        code = main([
            "predict", "--model", str(pipeline_run / "gru_c0.json"),
            "--bins", str(pipeline_run / "cluster_series.json"),
            "--cluster", "0", "--out", str(out_csv),
        ])
        assert code == 0
        with open(out_csv) as fh:
            rows = list(csv.DictReader(fh))
        truth = np.array([float(r["truth"]) for r in rows])
        pred = np.array([float(r["prediction"]) for r in rows])
        scaler = json.loads((pipeline_run / "gru_c0.json").read_text())["scaler"]
        span = scaler["hi"] - scaler["lo"]
        recomputed = float(np.sqrt(np.mean(((pred - truth) / span) ** 2)))
        assert abs(recomputed - best_stored) < 1e-9

    def test_predict_to_stdout(self, pipeline_run, capsys):
        code = main([
            "predict", "--model", str(pipeline_run / "lstm_c1.json"),
            "--bins", str(pipeline_run / "cluster_series.json"), "--cluster", "1",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "timestamp,truth,prediction"


class TestMalformedModel:
    """A model file that does not fit its network exits 2 naming the
    file and the key."""

    @staticmethod
    def truncate_matrix(doc):
        """The last matrix, the head's weights, loses its last value."""
        blob = base64.b64decode(doc["parameters"])
        doc["parameters"] = base64.b64encode(blob[:-8]).decode("ascii")
        size = len(blob) // 8
        return f"parameters: {size - 1} values, expected {size}"

    @staticmethod
    def unknown_kind(doc):
        doc["cell_kind"] = "rnn"
        return "cell_kind: 'rnn', expected 'lstm' or 'gru'"

    @staticmethod
    def missing_key(doc):
        del doc["layers"][0]["peepholes"]
        return "layers[0].peepholes: missing"

    @staticmethod
    def nan_scaler(doc):
        doc["scaler"]["lo"] = float("nan")
        return "scaler.lo: nan, expected a finite number"

    @staticmethod
    def empty_scaler_range(doc):
        doc["scaler"]["hi"] = doc["scaler"]["lo"]
        return f"scaler.hi: {doc['scaler']['lo']!r}, expected a finite amount above scaler.lo"

    @staticmethod
    def null_scaler(doc):
        """predict de-normalizes with the file's scaler; every writer saves one."""
        doc["scaler"] = None
        return "scaler: not a JSON object"

    @staticmethod
    def infinite_parameter(doc):
        """The head's bias, the last value, becomes infinite."""
        blob = base64.b64decode(doc["parameters"])
        blob = blob[:-8] + np.array([np.inf], dtype="<f8").tobytes()
        doc["parameters"] = base64.b64encode(blob).decode("ascii")
        return "parameters: head.b holds a non-finite value"

    @staticmethod
    def format_missing(doc):
        """Model format 1 had no "format" key; it is no longer read."""
        del doc["format"]
        return "format: missing"

    @staticmethod
    def format_2(doc):
        doc["format"] = 2
        return "format: 2, expected 3"

    @pytest.mark.parametrize("corrupt", ["truncate_matrix", "unknown_kind", "missing_key",
                                         "nan_scaler", "empty_scaler_range", "null_scaler",
                                         "infinite_parameter", "format_missing", "format_2"])
    def test_predict_rejects_model(self, pipeline_run, tmp_path, capsys, corrupt):
        doc = json.loads((pipeline_run / "lstm_c0.json").read_text())
        message = getattr(self, corrupt)(doc)
        model, out = tmp_path / "m.json", tmp_path / "predictions.csv"
        model.write_text(json.dumps(doc))
        code = main(["predict", "--model", str(model), "--out", str(out),
                     "--bins", str(pipeline_run / "cluster_series.json"), "--cluster", "0"])
        assert code == 2
        assert f"{model}: {message}" in capsys.readouterr().err
        assert not out.exists()


def _bins_of(series):
    """The bins file of `series` (cell id -> values) from span start 0."""
    return {"format": 2, "span_start": 0, "bin_width_minutes": 30,
            "cells": {str(cid): _blob(values) for cid, values in series.items()}}


def _varying(n_bins):
    return [float(1 + (b % 7)) for b in range(n_bins)]


def _bins_doc(n_bins=48):
    """Four cells over one day (48 bins); cells 3 and 4 are dead (all zero)."""
    varying = _varying(n_bins)
    return _bins_of({1: varying, 2: varying[::-1], 3: [0.0] * n_bins, 4: [0.0] * n_bins})


def _blob(values):
    return base64.b64encode(np.array(values, dtype="<f8").tobytes()).decode("ascii")


class TestTruthFile:
    """A truth file that cannot score the clustering exits 2 naming the
    file and the line or the cell, before any file is written."""

    CASES = {
        "not_an_integer": ("cell_id,archetype\n1,0\n2,x\n",
                           ":3: expected a cell id and an archetype id, got '2,x'"),
        "short_row": ("cell_id,archetype\n1,0\n2\n",
                      ":3: expected a cell id and an archetype id, got '2'"),
        "empty_file": ("", ": empty file, expected a header line"),
        "repeated_cell": ("cell_id,archetype\n1,0\n1,1\n", ":3: cell 1 listed twice"),
        "missing_cell": ("cell_id,archetype\n1,0\n2,0\n3,1\n", ": no archetype for cell 4"),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_cluster_rejects_truth(self, tmp_path, capsys, case):
        text, message = self.CASES[case]
        bins, truth = tmp_path / "bins.json", tmp_path / "truth.csv"
        bins.write_text(json.dumps(_bins_doc()))
        truth.write_text(text)
        out = tmp_path / "clusters.json"
        code = main(["cluster", "--bins", str(bins), "--k", "2", "--truth", str(truth),
                     "--out", str(out), "--series", str(tmp_path / "series.json")])
        assert code == 2
        assert f"{truth}{message}" in capsys.readouterr().err
        assert not out.exists()

    def test_cluster_scores_a_whole_truth_file(self, tmp_path, capsys):
        bins, truth = tmp_path / "bins.json", tmp_path / "truth.csv"
        bins.write_text(json.dumps(_bins_doc()))
        truth.write_text("cell_id,archetype\n1,0\n2,0\n3,1\n4,1\n")
        assert main(["cluster", "--bins", str(bins), "--k", "2", "--truth", str(truth),
                     "--out", str(tmp_path / "clusters.json"),
                     "--series", str(tmp_path / "series.json")]) == 0
        assert "adjusted Rand vs truth = 1.0000" in capsys.readouterr().err


class TestMalformedArtefacts:
    """A bins or series file that cannot be read exits 2 naming the file
    and the key, in every subcommand that reads it."""

    BINS_CASES = {
        "invalid_json": (None, "not valid JSON"),
        "missing_key": (lambda d: d.pop("cells"), "cells: missing"),
        "ragged": (lambda d: d["cells"].update({"2": _blob([1.0] * 49)}),
                   "cells.2: 49 values, expected 48"),
        "non_numeric": (lambda d: d["cells"].update({"3": 5.0}), "cells.3: not base64"),
        "hourly_bins": (lambda d: d.update(bin_width_minutes=60),
                        "bin_width_minutes: 60, expected 30"),
        "blob_unknown_format": (lambda d: d.update(format=3), "format: 3, expected 2"),
        # Bins format 1, lists of numbers without a "format" key, is no longer read.
        "format_missing": (lambda d: d.pop("format"), "format: missing"),
        "format_1": (lambda d: d.update(format=1), "format: 1, expected 2"),
        "blob_not_base64": (lambda d: d["cells"].update({"2": "AAAA*AAA"}), "cells.2: not base64"),
        "blob_partial_value": (lambda d: d["cells"].update({"2": _blob([1.0])[:-4] + "AA=="}),
                               "cells.2: 7 bytes, not a whole number of float64 values"),
        "blob_short_series": (lambda d: d["cells"].update({"2": _blob([1.0] * 47)}),
                              "cells.2: 47 values, expected 48"),
        "blob_non_finite": (lambda d: d["cells"].update({"3": _blob([0.0] * 47 + [np.inf])}),
                            "cells.3: holds a non-finite value"),
        "blob_list": (lambda d: d["cells"].update({"4": [0.0] * 48}), "cells.4: not base64"),
        "repeated_cell": (_repeat("1"), "cells.1: repeated key"),
        # Past int64 (10**30) or past any date (2**62): no span parse_span gives.
        "span_start_past_int64": (lambda d: d.update(span_start=10**30),
                                  f"span_start: {10**30}, expected a UTC ms time in"),
        "span_start_past_any_date": (lambda d: d.update(span_start=2**62),
                                     f"span_start: {2**62}, expected a UTC ms time in"),
    }

    @staticmethod
    def _write(path, doc, corrupt):
        if corrupt is None:
            path.write_text(json.dumps(doc)[:-7])
        else:
            text = corrupt(doc)  # only a repeated key comes back as text
            path.write_text(text if isinstance(text, str) else json.dumps(doc))

    def _expect(self, capsys, argv, path, message):
        assert main(argv) == 2
        assert f"{path}: {message}" in capsys.readouterr().err

    def _write_bins(self, path, case):
        """The bins file of a BINS_CASES case; its message."""
        corrupt, message = self.BINS_CASES[case]
        self._write(path, _bins_doc(), corrupt)
        return message

    @pytest.mark.parametrize("case", sorted(BINS_CASES))
    def test_cluster_rejects_bins(self, tmp_path, capsys, case):
        bins = tmp_path / "bins.json"
        message = self._write_bins(bins, case)
        out = tmp_path / "clusters.json"
        self._expect(capsys, ["cluster", "--bins", str(bins), "--k", "2", "--out", str(out)],
                     bins, message)
        assert not out.exists()

    @pytest.mark.parametrize("case", sorted(BINS_CASES))
    def test_train_rejects_bins(self, tmp_path, capsys, case):
        series = tmp_path / "series.json"
        message = self._write_bins(series, case)
        self._expect(capsys, ["train", "--series", str(series),
                              "--out-dir", str(tmp_path / "train")], series, message)
        assert not (tmp_path / "train").exists()

    @pytest.mark.parametrize("case", sorted(BINS_CASES))
    def test_predict_rejects_bins(self, pipeline_run, tmp_path, capsys, case):
        bins = tmp_path / "series.json"
        message = self._write_bins(bins, case)
        self._expect(capsys, ["predict", "--model", str(pipeline_run / "lstm_c0.json"),
                              "--bins", str(bins), "--cluster", "1"], bins, message)

    def test_train_names_a_constant_cluster(self, tmp_path, capsys):
        """Fail fast: a cluster whose mean series is constant stops the
        train stage before any result is written."""
        series = tmp_path / "series.json"
        series.write_text(json.dumps(_bins_of({0: _varying(48), 1: [0.0] * 48})))
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"hidden_layers": [1], "units": [2], "cell_kinds": ["gru"]}))
        out_dir = tmp_path / "train"
        assert main(["train", "--series", str(series),
                     "--grid", str(grid), "--runs", "1", "--epochs", "1",
                     "--out-dir", str(out_dir)]) == 2
        assert "error: cluster 1: cannot scale a constant series (value 0.0)" in \
            capsys.readouterr().err
        assert not (out_dir / "results.csv").exists()


class TestSubcommandsOnPipelineOutputs:
    def test_train_with_grid_file(self, pipeline_run, tmp_path):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"hidden_layers": [1], "units": [3, 5], "cell_kinds": ["gru"]}))
        out_dir = tmp_path / "train"
        code = main(["train", "--series", str(pipeline_run / "cluster_series.json"),
                     "--grid", str(grid), "--runs", "2", "--epochs", "1", "--seed", "3",
                     "--out-dir", str(out_dir)])
        assert code == 0
        assert sorted(p.name for p in out_dir.iterdir()) == [
            "gru_c0.json", "gru_c1.json", "gru_c2.json", "results.csv", "summary.json"]
        with open(out_dir / "results.csv") as fh:
            rows = list(csv.DictReader(fh))
        # 3 clusters x 1 kind x 1 layer x 2 unit-counts x 2 runs
        assert len(rows) == 12
        assert {(r["cluster"], r["cell"], r["units"], r["run"]) for r in rows} == {
            (c, "gru", u, run) for c in "012" for u in ("3", "5") for run in "01"}
        summary = json.loads((out_dir / "summary.json").read_text())
        assert {c: set(labels) for c, labels in summary.items()} == {
            c: {f"GRU-{c}-1L-3U", f"GRU-{c}-1L-5U"} for c in "012"}

    def test_train_on_cluster_series_writes_the_pipelines_files(self, pipeline_run, tmp_path):
        """train reads the series file that cluster wrote: with the
        pipeline's grid, runs, epochs and seed it writes the pipeline's
        results, summary and models byte for byte."""
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"hidden_layers": [1], "units": [4],
                                    "cell_kinds": ["lstm", "gru"]}))
        out_dir = tmp_path / "train"
        assert main(["train", "--series", str(pipeline_run / "cluster_series.json"),
                     "--grid", str(grid), "--runs", "2", "--epochs", "2", "--seed", "11",
                     "--out-dir", str(out_dir)]) == 0
        names = sorted(p.name for p in out_dir.iterdir())
        assert names == ["gru_c0.json", "gru_c1.json", "gru_c2.json", "lstm_c0.json",
                         "lstm_c1.json", "lstm_c2.json", "results.csv", "summary.json"]
        for name in names:
            assert (out_dir / name).read_bytes() == (pipeline_run / name).read_bytes(), name

    @pytest.mark.parametrize("axes,named", [({"units": ["x"]}, "units"),
                                            ({"hidden_layers": 3}, "hidden_layers")])
    def test_train_rejects_a_bad_grid_file(self, pipeline_run, tmp_path, capsys, axes, named):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps(axes))
        code = main(["train", "--series", str(pipeline_run / "cluster_series.json"),
                     "--grid", str(grid), "--out-dir", str(tmp_path / "train")])
        assert code == 2
        assert f"grid file.{named} must be a list of integers" in capsys.readouterr().err

    @pytest.mark.parametrize("axes,message", [
        ({"hidden_layers": [1, 2, 1]}, "grid axis hidden_layers repeats 1"),
        ({"units": [3, 3]}, "grid axis units repeats 3"),
        ({"cell_kinds": ["gru", "GRU"]}, "grid axis cell_kinds repeats 'gru'"),
    ])
    def test_train_rejects_a_repeated_grid_axis_value(self, pipeline_run, tmp_path, capsys,
                                                       axes, message):
        """A repeated value would train its configs twice and write a
        results.csv that compare refuses."""
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps(axes))
        out_dir = tmp_path / "train"
        code = main(["train", "--series", str(pipeline_run / "cluster_series.json"),
                     "--grid", str(grid), "--runs", "1", "--epochs", "1",
                     "--out-dir", str(out_dir)])
        assert code == 2
        assert f"error: {grid}: {message}" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("axes,message", [
        ({"hidden_layers": [1, 10**30]}, f"hidden_layers must be in 1..8, got {10**30}"),
        ({"units": [4, 20000]}, "units must be in 1..500, got 20000"),
    ], ids=["hidden_layers", "units"])
    def test_train_refuses_a_grid_size_past_its_bound(self, pipeline_run, tmp_path, capped_cli,
                                                       axes, message):
        """A grid size past training.MAX_HIDDEN_LAYERS or MAX_UNITS exits 2
        naming its key, before any directory or network is made. Run under
        a memory cap: a network of such a size cannot be allocated."""
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps(axes))
        out_dir = tmp_path / "train"
        code, err = capped_cli(["train", "--series", pipeline_run / "cluster_series.json",
                                "--grid", grid, "--runs", "1", "--epochs", "1",
                                "--out-dir", out_dir])
        assert (code, err) == (2, f"error: {grid}: {message}\n")
        assert not out_dir.exists()

    def test_predict_checks_the_parameter_count_before_building_layers(
            self, pipeline_run, tmp_path, capped_cli):
        """A model file whose last layer states 20,000 units, with its blob
        unchanged, is refused for its parameter count; building the layers
        first would need 12 GB."""
        doc = json.loads((pipeline_run / "lstm_c0.json").read_text())
        held = len(base64.b64decode(doc["parameters"])) // 8
        doc["layers"][-1]["units"] = 20000
        # An LSTM layer: 4 gate blocks of wx and wh, 3 peepholes, 4 biases.
        stated = sum(4 * layer["units"] * (layer["input_dim"] + layer["units"])
                     + 7 * layer["units"] for layer in doc["layers"]) + 20000 + 1
        model, out = tmp_path / "m.json", tmp_path / "predictions.csv"
        model.write_text(json.dumps(doc))
        code, err = capped_cli(["predict", "--model", model, "--out", out, "--cluster", "0",
                                "--bins", pipeline_run / "cluster_series.json"])
        assert (code, err) == (2, f"error: {model}: parameters: {held} values, "
                                  f"expected {stated}\n")
        assert not out.exists()

    def test_compare_with_box(self, pipeline_run, tmp_path):
        out, box = tmp_path / "comparison.json", tmp_path / "box.csv"
        code = main(["compare", "--results", str(pipeline_run / "results.csv"),
                     "--out", str(out), "--box", str(box)])
        assert code == 0
        assert out.read_text() == (pipeline_run / "comparison.json").read_text()
        lines = box.read_text().splitlines()
        assert lines[0] == "label,median,q1,q3,lo,hi,outliers"
        assert [line.split(",")[0] for line in lines[1:]] == [
            f"{kind}-{c}-1L-4U" for c in "012" for kind in ("LSTM", "GRU")]

    @pytest.mark.parametrize("clusters,bad", [("7", "7"), ("x,y", "x"), ("7..9", "7..9"),
                                              ("0,0", "0 is repeated")])
    def test_compare_rejects_clusters_not_in_results(self, pipeline_run, tmp_path, capsys,
                                                      clusters, bad):
        out = tmp_path / "comparison.json"
        code = main(["compare", "--results", str(pipeline_run / "results.csv"),
                     "--clusters", clusters, "--out", str(out)])
        assert code == 2
        assert bad in capsys.readouterr().err
        assert not out.exists()


class TestSubcommandsStandalone:
    def test_synth_then_ingest_then_cluster(self, tmp_path, capsys):
        raw = tmp_path / "raw"
        assert main(["synth", "--archetypes", "2", "--cells", "3", "--days", "7",
                     "--noise", "0.1", "--seed", "3", "--out", str(raw)]) == 0
        bins = tmp_path / "bins.json"
        assert main(["ingest", "--input", str(raw),
                     "--span", "2013-11-01..2013-11-08", "--out", str(bins)]) == 0
        cells = load_bins_json(str(bins))
        assert len(cells) == 6
        assert all(series.n_bins == 7 * 48 for series in cells.values())

        out = tmp_path / "clusters.json"
        curve = tmp_path / "curve.csv"
        series = tmp_path / "series.json"
        assert main(["cluster", "--bins", str(bins), "--k", "auto", "--kmax", "5",
                     "--out", str(out), "--curve", str(curve),
                     "--series", str(series)]) == 0
        printed = capsys.readouterr().out.splitlines()
        assert len(printed) == 5 and printed[0].startswith("1,")  # curve echoed for the human override
        assert json.loads(out.read_text())["k"] == 2
        assert curve.read_text().splitlines()[0] == "k,sse"
        assert set(json.loads(series.read_text())["cells"]) == {"0", "1"}


def _expect_rejected(argv, capsys, named, out):
    """argv exits 2, from main or from argparse, naming `named` and leaves
    `out` unwritten."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


class TestStrictConfigTypes:
    """A config number takes a finite JSON number that is not a bool, and
    out_dir and span take strings: nothing is coerced."""

    SPEC_CASES = {
        "text_base_level": (lambda a: a.update(base_level="15"), "base_level"),
        "text_and_bool_weights": (lambda a: a.update(period_weights=["5", True, 1, 1, 1, 1]),
                                  "period_weights"),
        "text_noise_sd": (lambda a: a.update(noise_sd="0.3"), "noise_sd"),
        "nan_base_level": (lambda a: a.update(base_level=float("nan")), "base_level"),
        "infinite_noise_sd": (lambda a: a.update(noise_sd=float("inf")), "noise_sd"),
    }

    @pytest.mark.parametrize("case", sorted(SPEC_CASES))
    def test_synth_spec(self, tmp_path, capsys, case):
        mutate, key = self.SPEC_CASES[case]
        spec = {"archetypes": [{"id": 0, "base_level": 15, "period_weights": [5, 1, 1, 1, 1, 1],
                                "noise_sd": 0.3}], "days": 2}
        mutate(spec["archetypes"][0])
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        out = tmp_path / "raw"
        _expect_rejected(["synth", "--spec", str(path), "--out", str(out)], capsys,
                         f"synth.archetypes[0].{key}", out)

    CONFIG_CASES = {
        "text_utc_offset": (lambda c: c.update(utc_offset_hours="1"), "config.utc_offset_hours"),
        "infinite_utc_offset": (lambda c: c.update(utc_offset_hours=float("inf")),
                                "config.utc_offset_hours"),
        "null_out_dir": (lambda c: c.update(out_dir=None), "config.out_dir"),
        "number_span": (lambda c: c.update(span=20131101), "config.span"),
        "text_days": (lambda c: c["synth"].update(days="3"), "synth.days"),
        "text_seed": (lambda c: c.update(seed="3"), "config.seed"),
    }

    @pytest.mark.parametrize("case", sorted(CONFIG_CASES))
    def test_pipeline_config(self, tmp_path, capsys, monkeypatch, case):
        mutate, named = self.CONFIG_CASES[case]
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "out"
        config = _small_pipeline(out, _two_archetype_synth())
        mutate(config)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        _expect_rejected(["pipeline", "--config", str(path)], capsys, named, out)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


@pytest.mark.parametrize("command", ["pipeline", "synth", "train"])
def test_invalid_json_names_the_file(tmp_path, capsys, command):
    bad = tmp_path / "bad.json"
    bad.write_text('{"out_dir": "o", ')
    series = tmp_path / "series.json"
    series.write_text(json.dumps(_bins_doc()))
    out = tmp_path / "out"
    argv = {"pipeline": ["pipeline", "--config", str(bad)],
            "synth": ["synth", "--spec", str(bad), "--out", str(out)],
            "train": ["train", "--series", str(series), "--grid", str(bad),
                      "--out-dir", str(out)]}[command]
    _expect_rejected(argv, capsys, f"{bad}: not valid JSON", out)


class TestClusterSettings:
    """kmax >= 3 when k is "auto", checked before any file is written.
    The restart count is clustering.RESTARTS: a config key or flag that
    states one is refused, whatever its value."""

    @pytest.mark.parametrize("edit,named", [
        ({"restarts": 0}, "unknown key(s) in config: restarts"),
        ({"restarts": -1}, "unknown key(s) in config: restarts"),
        ({"restarts": 10}, "unknown key(s) in config: restarts"),
        ({"k": "auto", "kmax": 0}, "config.kmax"), ({"k": "auto", "kmax": 2}, "config.kmax")],
        ids=["restarts_0", "restarts_negative", "restarts_10", "kmax_0", "kmax_2"])
    def test_pipeline(self, tmp_path, capsys, edit, named):
        out = tmp_path / "out"
        config = _small_pipeline(out, _two_archetype_synth())
        config.update(edit)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        _expect_rejected(["pipeline", "--config", str(path)], capsys, named,
                         out / "bins.json")

    @pytest.mark.parametrize("flags,named", [
        (["--k", "2", "--restarts", "0"], "unrecognized arguments: --restarts 0"),
        (["--k", "auto", "--restarts", "0"], "unrecognized arguments: --restarts 0"),
        (["--k", "auto", "--restarts", "10"], "unrecognized arguments: --restarts 10"),
        (["--k", "auto", "--kmax", "2"], "--kmax")],
        ids=["k_2_restarts_0", "auto_restarts_0", "auto_restarts_10", "auto_kmax_2"])
    def test_cluster(self, tmp_path, capsys, flags, named):
        bins = tmp_path / "bins.json"
        bins.write_text(json.dumps(_bins_doc()))
        out = tmp_path / "clusters.json"
        _expect_rejected(["cluster", "--bins", str(bins), *flags, "--out", str(out),
                          "--curve", str(tmp_path / "curve.csv"),
                          "--series", str(tmp_path / "series.json")], capsys, named, out)

    def test_fixed_k_needs_no_elbow_range(self):
        config = _small_pipeline("out", _two_archetype_synth())
        config.update(k=2, kmax=1)
        assert parse_pipeline_config(config).kmax == 1


class TestWorkers:
    """workers >= 1 from the config and from the --workers flags, checked
    before any file is written."""

    @pytest.mark.parametrize("workers", [0, -1])
    def test_pipeline_config(self, tmp_path, capsys, workers):
        out = tmp_path / "out"
        config = _small_pipeline(out, _two_archetype_synth())
        config["workers"] = workers
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        _expect_rejected(["pipeline", "--config", str(path)], capsys, "config.workers", out)

    def test_pipeline_flag(self, tmp_path, capsys):
        out = tmp_path / "out"
        path = tmp_path / "config.json"
        path.write_text(json.dumps(_small_pipeline(out, _two_archetype_synth())))
        _expect_rejected(["pipeline", "--config", str(path), "--workers", "0"], capsys,
                         "--workers", out)

    def test_train_flag(self, tmp_path, capsys):
        series = tmp_path / "series.json"
        series.write_text(json.dumps(_bins_doc()))
        out = tmp_path / "out"
        _expect_rejected(["train", "--series", str(series), "--workers", "0",
                          "--out-dir", str(out)], capsys, "--workers", out)


@pytest.mark.parametrize("flag,value", [("--noise", "nan"), ("--utc-offset", "inf"),
                                        ("--utc-offset", "nan")])
def test_non_finite_flag_exits_two(tmp_path, capsys, flag, value):
    """A float flag takes a finite number, as a config number does."""
    out = tmp_path / "out"
    argv = {"--noise": ["synth", "--cells", "1", "--days", "1", "--out", str(out)],
            "--utc-offset": ["ingest", "--input", str(tmp_path),
                             "--span", "2013-11-01..2013-11-02", "--out", str(out)]}[flag]
    with pytest.raises(SystemExit) as exc:
        main([*argv, flag, value])
    assert exc.value.code == 2
    assert f"argument {flag}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag,value,message", [
    ("--days", 10**8, "days must be in 1..124, got 100000000"),
    ("--cells", 10**12, "cells_per_archetype must be in 1..1666 for 12 archetypes "
                        "(at most 20000 cells), got 1000000000000"),
], ids=["days", "cells"])
def test_synth_refuses_a_city_past_its_bound(tmp_path, capped_cli, flag, value, message):
    """A city past synth.MAX_DAYS or MAX_CELLS exits 2 naming its key,
    before its directory is made or its series allocated. Run under a
    memory cap: such a city's series cannot be allocated."""
    out = tmp_path / "city"
    code, err = capped_cli(["synth", "--out", out, flag, value])
    assert (code, err) == (2, f"error: {message}\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["synth", "cluster", "train"])
def test_negative_seed_flag_exits_two(tmp_path, capsys, command):
    """numpy's SeedSequence takes no negative seed."""
    series = tmp_path / "series.json"
    series.write_text(json.dumps(_bins_doc()))
    out = tmp_path / "out"
    argv = {"synth": ["synth", "--out", str(out)],
            "cluster": ["cluster", "--bins", str(series), "--k", "2", "--out", str(out)],
            "train": ["train", "--series", str(series), "--out-dir", str(out)]}[command]
    _expect_rejected(argv + ["--seed", "-1"], capsys, "argument --seed: invalid seed value: '-1'",
                     out)


@pytest.mark.parametrize("flag,value", [("--runs", "61"), ("--epochs", "0")])
def test_train_checks_runs_and_epochs_before_making_its_directory(tmp_path, capsys, flag, value):
    series, grid = tmp_path / "series.json", tmp_path / "grid.json"
    series.write_text(json.dumps(_bins_doc()))
    grid.write_text(json.dumps({"hidden_layers": [1], "units": [2]}))
    out = tmp_path / "out"
    _expect_rejected(["train", "--series", str(series), "--grid", str(grid), "--epochs", "1",
                      "--out-dir", str(out), flag, value], capsys, f"{flag[2:]} must be in 1..", out)


@pytest.mark.parametrize("command", ["compare", "cluster --truth"])
def test_csv_that_is_not_utf8_names_the_file(tmp_path, capsys, command):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"cell_id,archetype\n1,0\n2,\xff\n")
    bins = tmp_path / "bins.json"
    bins.write_text(json.dumps(_bins_doc()))
    out = tmp_path / "out.json"
    argv = {"compare": ["compare", "--results", str(bad), "--out", str(out)],
            "cluster --truth": ["cluster", "--bins", str(bins), "--k", "2", "--truth", str(bad),
                                "--out", str(out), "--series", str(tmp_path / "s.json")]}
    _expect_rejected(argv[command], capsys, f"{bad}: not UTF-8 text", out)


def test_cluster_names_a_bins_file_without_cells(tmp_path, capsys):
    bins = tmp_path / "bins.json"
    bins.write_text(json.dumps(_bins_of({})))
    out = tmp_path / "clusters.json"
    _expect_rejected(["cluster", "--bins", str(bins), "--k", "2", "--out", str(out)], capsys,
                     f"{bins}: no profiles to cluster", out)


def test_pipeline_stage_error_names_the_config(tmp_path, capsys):
    """An error a stage finds comes from a setting or an input that the
    config states, so the message names the config."""
    path = tmp_path / "config.json"
    config = _small_pipeline(tmp_path / "out", _two_archetype_synth())
    path.write_text(json.dumps(dict(config, k=50)))
    assert main(["pipeline", "--config", str(path)]) == 2
    assert capsys.readouterr().err.endswith(f"error: {path}: 6 distinct profiles < k=50\n")


@pytest.mark.parametrize("hours", ["1e308", "-24.5"])
@pytest.mark.parametrize("command", ["ingest", "cluster", "pipeline"])
def test_utc_offset_past_a_day_exits_two(tmp_path, capsys, command, hours):
    """1e308 hours is no millisecond offset (it overflows to inf), and
    no span start of ingest.SPAN_STARTS allows for more than a day."""
    bins, config = tmp_path / "bins.json", tmp_path / "config.json"
    bins.write_text(json.dumps(_bins_doc()))
    out = tmp_path / "out"
    config.write_text(json.dumps(dict(_small_pipeline(out, _two_archetype_synth()),
                                      utc_offset_hours=float(hours))))
    argv = {"ingest": ["ingest", "--input", str(tmp_path), "--span", "2013-11-01..2013-11-02",
                       "--out", str(out), "--utc-offset", hours],
            "cluster": ["cluster", "--bins", str(bins), "--k", "2", "--out", str(out),
                        "--utc-offset", hours],
            "pipeline": ["pipeline", "--config", str(config)]}[command]
    named = ("config.utc_offset_hours must be a number of hours in -24..24"
             if command == "pipeline" else f"argument --utc-offset: invalid utc_offset value")
    _expect_rejected(argv, capsys, named, out)


def test_train_names_a_series_file_without_series(tmp_path, capsys):
    """A series file with no series exits 2 naming the file, before the
    output directory is made."""
    series = tmp_path / "series.json"
    series.write_text(json.dumps(_bins_of({})))
    out = tmp_path / "out"
    _expect_rejected(["train", "--series", str(series), "--out-dir", str(out)], capsys,
                     f"error: {series}: cells: holds no series to train on", out)


def test_train_has_no_batch_flag(tmp_path, capsys):
    """Training steps take training.BATCH_SIZE windows; --batch is an
    unknown argument, so argparse exits 2 naming it before any file is
    written."""
    series = tmp_path / "series.json"
    series.write_text(json.dumps(_bins_doc()))
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["train", "--series", str(series), "--batch", "16", "--out-dir", str(out)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --batch 16" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag,name", [("--clusters", "clusters.json"), ("--bins", "bins.json")])
def test_train_reads_no_clusters_or_bins_file(tmp_path, capsys, flag, name):
    """train reads per-cluster series from --series alone: --clusters and
    --bins are unknown arguments, so argparse exits 2 naming them before
    any file is written. A --bins flag that took the series file would
    train one grid per cell on a per-cell bins file."""
    series, other = tmp_path / "series.json", tmp_path / name
    series.write_text(json.dumps(_bins_doc()))
    other.write_text(json.dumps(_bins_doc()))
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["train", "--series", str(series), flag, str(other), "--out-dir", str(out)])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} {other}" in capsys.readouterr().err
    assert not out.exists()


def test_pipeline_trains_the_same_bits_without_thread_pins(tmp_path):
    """The package runs BLAS on one thread: with no thread count in the
    environment, a 150-unit net trains to the bytes of a run pinned by
    OPENBLAS_NUM_THREADS=1, at 1 and at 2 workers."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")

    def run(tag, workers, pinned):
        out_dir = tmp_path / tag
        config = tmp_path / f"{tag}.json"
        config.write_text(json.dumps({
            "out_dir": str(out_dir), "seed": 3,
            "synth": {"archetypes": [{"id": 0, "base_level": 10.0,
                                      "period_weights": [6, 1, 1, 1, 1, 1], "noise_sd": 0.3}],
                      "cells_per_archetype": 4, "days": 6},
            "k": 1,
            "grid": {"hidden_layers": [2], "units": [150], "cell_kinds": ["lstm"]},
            "train": {"epochs": 1, "runs": 2},
        }))
        subprocess.run([sys.executable, "-c", "import sys; from cellcast.cli import main; "
                        "sys.exit(main())", "pipeline", "--config", str(config),
                        "--workers", str(workers)],
                       env=dict(env, OPENBLAS_NUM_THREADS="1") if pinned else env,
                       check=True, capture_output=True)
        return {name: (out_dir / name).read_bytes() for name in ("lstm_c0.json", "results.csv")}

    pinned = run("pinned", 1, pinned=True)
    assert run("serial", 1, pinned=False) == pinned
    assert run("pool", 2, pinned=False) == pinned


def test_pipeline_predicts_with_the_winners_it_trained(tmp_path, monkeypatch):
    """The pipeline predicts each cluster with the network its train stage
    saved, without reading a model file back, and writes the bytes that
    `cellcast predict` writes from that saved winner."""
    out_dir = tmp_path / "out"
    config = _small_pipeline(out_dir, _two_archetype_synth())
    config["train"]["runs"] = 2
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    loads = []
    load = recurrent.load_model_json
    monkeypatch.setattr(recurrent, "load_model_json", lambda p: loads.append(p) or load(p))
    assert main(["pipeline", "--config", str(path)]) == 0
    assert loads == []

    best = training.load_results_csv(str(out_dir / "results.csv")).best_config
    assert sorted(best) == [0, 1]
    for cluster, label in best.items():
        model = out_dir / f"{label.split('-')[0].lower()}_c{cluster}.json"
        out = tmp_path / f"predict_c{cluster}.csv"
        assert main(["predict", "--model", str(model), "--bins",
                     str(out_dir / "cluster_series.json"), "--cluster", str(cluster),
                     "--out", str(out)]) == 0
        assert out.read_bytes() == (out_dir / f"predictions_c{cluster}.csv").read_bytes()
    assert len(loads) == 2


def test_pipeline_loads_no_numpy_ma(tmp_path):
    """np.unique, np.setdiff1d, np.union1d and np.percentile load
    numpy.ma; no stage of the pipeline calls them."""
    config = _small_pipeline(str(tmp_path / "out"), _two_archetype_synth())
    config.update(k="auto", kmax=3)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    code = ("import sys; from cellcast.cli import main; code = main(['pipeline', '--config', "
            f"{str(path)!r}]); print(code, 'numpy.ma' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300, check=True)
    assert done.stdout.split() == ["0", "False"]


@pytest.mark.parametrize("k", ["1", "2", "auto"])
def test_cluster_refuses_profiles_whose_sums_overflow(tmp_path, capsys, extreme_cells, k):
    """extreme_cells holds 1.7976931348623157e308: its profiles' squared
    distances overflow, so k-means would write an infinite SSE or draw
    its seeding from NaN probabilities."""
    bins = tmp_path / "bins.json"
    save_bins_json(extreme_cells, str(bins))
    out = tmp_path / "clusters.json"
    _expect_rejected(["cluster", "--bins", str(bins), "--k", k, "--kmax", "3",
                      "--out", str(out), "--curve", str(tmp_path / "curve.csv"),
                      "--series", str(tmp_path / "series.json")], capsys,
                     f"{bins}: profiles up to 2.24712e+307 overflow the float64 sums "
                     f"of k-means over 3 cells", out)
    assert list(tmp_path.iterdir()) == [bins]


def test_train_names_the_cluster_and_split_too_short_to_window(tmp_path, capsys):
    """12 bins split into 9 training and 3 test bins, too few for one
    test window."""
    series = tmp_path / "series.json"
    series.write_text(json.dumps(_bins_of({0: _varying(12), 1: _varying(12)[::-1]})))
    out_dir = tmp_path / "train"
    assert main(["train", "--series", str(series), "--runs", "1",
                 "--epochs", "1", "--out-dir", str(out_dir)]) == 2
    assert "error: cluster 0: test split of 3 bins: need > 4 values, got 3" in \
        capsys.readouterr().err
    assert not (out_dir / "results.csv").exists()
