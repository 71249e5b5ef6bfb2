"""Run `cellcast pipeline` in this process with a span around every call
into the wrapped public functions of each module.

Usage: python3 bench/traced.py CONFIG SPANS_OUT [--workers N]

`src/` must be on PYTHONPATH; run.py starts this script. The wrappers
are installed on module attributes, so the pipeline code is unchanged.
Spans are kept in memory and written to SPANS_OUT as JSON when the
pipeline ends. Spans recorded inside pool worker processes stay in the
workers and are lost.

A span is [name, start_s, end_s, parent_index, notes]; parent -1 marks
a root. Notes are taken from arguments and results after the span has
closed, so their cost falls into the parent's self time; their total
time is kept as notes_s. wrapper_cost_s is the time one wrapper adds
to a call, timed on a no-op after the pipeline.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import sys
import time

from cellcast import cli, clustering, ingest, recurrent, stats, training


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.params: dict[str, list[int]] = {}
        self.notes_s = 0.0
        self._open: list[int] = []

    def traced(self, name: str, fn, notes=None):
        """fn wrapped to record a span per call. notes(args, kwargs,
        result) returns a dict stored with the span."""
        spans, open_ = self.spans, self._open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, open_[-1] if open_ else -1, None]
            open_.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                open_.pop()
            if notes is not None:
                t = time.perf_counter()
                span[4] = notes(args, kwargs, result)
                self.notes_s += time.perf_counter() - t
            return result

        return wrapper

    def wrap(self, owner, attr: str, name: str, notes=None) -> None:
        """Replace owner.attr by its traced version."""
        setattr(owner, attr, self.traced(name, getattr(owner, attr), notes))

    def net_kind(self, net) -> str:
        """Cell kind of a network; remembers every parameter count seen
        for that kind."""
        counts = self.params.setdefault(net.cell_kind, [])
        n = int(sum(p.size for _, p in net.parameters()))
        if n not in counts:
            counts.append(n)
        return net.cell_kind


def install(tracer: Tracer) -> None:
    wrap = tracer.wrap
    wrap(ingest, "bin_series", "ingest.bin_series",
         lambda a, kw, r: {"dropped": r.dropped, "cells": len(r.cells)})
    wrap(ingest, "save_bins_json", "ingest.save_bins_json",
         lambda a, kw, r: {"bytes": os.path.getsize(a[1])})
    wrap(clustering, "build_profiles", "clustering.build_profiles")
    wrap(clustering, "elbow_scan", "clustering.elbow_scan")
    wrap(clustering, "kmeans", "clustering.kmeans",
         lambda a, kw, r: {"k": r.k, "iterations": r.iterations_run})
    wrap(clustering, "cluster_mean_series", "clustering.cluster_mean_series")
    wrap(training, "prepare_dataset", "training.prepare_dataset",
         lambda a, kw, r: {"train_windows": int(r.train.targets.size)})
    wrap(training, "grid_search", "training.grid_search",
         lambda a, kw, r: {"task_s": [run.seconds for run in r.runs],
                           "workers": kw.get("workers", a[3] if len(a) > 3 else 1)})
    wrap(training, "train_best_network", "training.train_best_network")
    wrap(training, "predict_test_split", "training.predict_test_split")
    wrap(training, "forward", "recurrent.forward",
         lambda a, kw, r: {"kind": a[0].cell_kind})
    wrap(training, "backward", "recurrent.backward",
         lambda a, kw, r: {"kind": a[0].cell_kind})
    wrap(recurrent.AdamOptimizer, "step", "recurrent.adam_step",
         lambda a, kw, r: {"kind": tracer.net_kind(a[1])})
    wrap(recurrent, "save_model_json", "recurrent.save_model_json")
    wrap(recurrent, "load_model_json", "recurrent.load_model_json")
    wrap(stats, "comparison_report", "stats.comparison_report")


def wrapper_cost_s(calls: int = 20_000, repeats: int = 5) -> float:
    """Median time one traced call adds to the call itself, without
    notes, timed on a no-op."""
    def noop():
        return None

    costs = []
    for _ in range(repeats):
        wrapped = Tracer().traced("noop", noop)
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            wrapped()
        t2 = time.perf_counter()
        costs.append(max((t2 - t1) - (t1 - t0), 0.0) / calls)
    return statistics.median(costs)


def _drain(paths: list[str]) -> int:
    return sum(1 for _ in ingest.iter_cdr_paths(paths))


def main(argv: list[str]) -> int:
    config_path, spans_path, extra = argv[0], argv[1], argv[2:]
    with open(config_path, "r", encoding="utf-8") as fh:
        input_paths = json.load(fh)["input"]
    tracer = Tracer()
    install(tracer)
    code = tracer.traced("cli.pipeline", cli.main)(["pipeline", "--config", config_path, *extra])
    # Parse-only pass over the same files, outside the pipeline span.
    records = tracer.traced("ingest.parse", _drain)(input_paths)
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"records": records, "params": tracer.params, "notes_s": tracer.notes_s,
                   "wrapper_cost_s": wrapper_cost_s(), "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
