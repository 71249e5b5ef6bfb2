"""Per-layer metrics from the spans that traced.py writes."""

from __future__ import annotations

import numpy as np

# An in-place ADAM step reads param, grad, m and v and writes param, m
# and v: seven float64 arrays of the parameter count. This ignores
# temporaries and cache misses, so it is labelled as computed.
ADAM_ARRAYS_MOVED = 7
FLOAT64_BYTES = 8
ACCOUNTING_TOLERANCE_S = 1e-6

# The *_s metrics that split the pipeline span between them, with the
# spans each one sums. Every wrapped call that cmd_pipeline makes itself
# is in exactly one of them; the wrapped calls nested inside those are
# not. clustering.kmeans_s counts the final fit only, since the elbow
# scan's fits are already in clustering.elbow_scan_s.
PARTITION = {
    "ingest.bin_series_s": "ingest.bin_series",
    "ingest.save_bins_json_s": "ingest.save_bins_json",
    "clustering.build_profiles_s": "clustering.build_profiles",
    "clustering.elbow_scan_s": "clustering.elbow_scan",
    "clustering.kmeans_s": "clustering.kmeans",
    "clustering.cluster_mean_series_s": "clustering.cluster_mean_series",
    "prep.prepare_dataset_s": "training.prepare_dataset",
    "training.grid_search_s": "training.grid_search",
    "training.replay_s": "training.train_best_network",
    "recurrent.save_model_json_s": "recurrent.save_model_json",
    "recurrent.load_model_json_s": "recurrent.load_model_json",
    "training.predict_s": "training.predict_test_split",
    "stats.comparison_report_s": "stats.comparison_report",
}


class Trace:
    """One traced pipeline run: spans plus the counts taken beside them."""

    def __init__(self, dump: dict):
        self.records = dump["records"]
        self.params = dump["params"]
        self.notes_s = dump["notes_s"]
        self.wrapper_cost_s = dump["wrapper_cost_s"]
        self.spans = dump["spans"]

    def named(self, name: str) -> list[list]:
        return [s for s in self.spans if s[0] == name]

    def total_s(self, name: str) -> float:
        return sum(s[2] - s[1] for s in self.named(name))

    def partition_s(self) -> dict[str, float]:
        """The PARTITION metrics, each summed over its spans wherever
        they sit, except k-means fits inside the elbow scan."""
        scans = {i for i, s in enumerate(self.spans) if s[0] == "clustering.elbow_scan"}
        out = {metric: self.total_s(name) for metric, name in PARTITION.items()}
        out["clustering.kmeans_s"] = sum(s[2] - s[1] for s in self.named("clustering.kmeans")
                                         if s[3] not in scans)
        return out

    def accounting(self) -> dict:
        """cli.self_s is the pipeline span minus its direct child spans.
        The PARTITION metrics plus cli.self_s must add up to the pipeline
        span: they do not if a metric misses a direct child or also
        counts spans nested in another metric's spans."""
        index = next(i for i, s in enumerate(self.spans) if s[0] == "cli.pipeline")
        root = self.spans[index]
        total = root[2] - root[1]
        self_s = total - sum(s[2] - s[1] for s in self.spans if s[3] == index)
        layer_s = sum(self.partition_s().values())
        ok = abs(layer_s + self_s - total) <= ACCOUNTING_TOLERANCE_S and self_s >= 0.0
        return {"traced_pipeline_s": total, "layer_s": layer_s, "self_s": self_s, "ok": ok}

    def overhead_s(self) -> float:
        """Time the tracer added inside the pipeline span: one wrapper per
        span there, plus the notes taken."""
        inside = sum(1 for s in self.spans if s[3] != -1)
        return inside * self.wrapper_cost_s + self.notes_s

    def grid_spans_dropped(self) -> bool:
        """True when the grid search trained in pool workers, whose spans
        never reach this process."""
        grids = {i for i, s in enumerate(self.spans) if s[0] == "training.grid_search"}
        tasks = sum(len(self.spans[i][4]["task_s"]) for i in grids)
        inside = sum(1 for s in self.spans if s[0] == "recurrent.adam_step" and s[3] in grids)
        return tasks > 0 and inside == 0


def _ms(values: list[float]) -> dict[str, float]:
    arr = np.asarray(values) * 1000.0
    return {"p50": float(np.percentile(arr, 50)), "p95": float(np.percentile(arr, 95))}


def recurrent_metrics(trace: Trace, kinds: tuple) -> tuple[dict, dict, list[str]]:
    """recurrent.* per cell kind: (metrics, sample counts, errors).

    Forward times count training mini-batches only: a forward span
    directly followed by a backward span under the same parent. Test-set
    forwards are left out."""
    spans = trace.spans
    times: dict[tuple, list] = {}
    for i, s in enumerate(spans):
        if s[0] == "recurrent.forward":
            nxt = spans[i + 1] if i + 1 < len(spans) else None
            if nxt is None or nxt[0] != "recurrent.backward" or nxt[3] != s[3]:
                continue
        elif s[0] not in ("recurrent.backward", "recurrent.adam_step"):
            continue
        times.setdefault((s[0], s[4]["kind"]), []).append(s[2] - s[1])

    metrics, samples, errors = {}, {}, []
    for kind in kinds:
        params = trace.params.get(kind, [])
        if len(params) != 1:
            errors.append(f"expected one traced {kind} network size, got {params}")
            continue
        for part, span_name in (("forward", "recurrent.forward"),
                                ("backward", "recurrent.backward"),
                                ("adam", "recurrent.adam_step")):
            values = times.get((span_name, kind), [])
            for q, v in _ms(values).items():
                metrics[f"recurrent.{part}_ms.{kind}.{q}"] = (v, "ms")
            samples[f"recurrent.{part}_ms.{kind}"] = len(values)
        metrics[f"recurrent.steps.{kind}"] = (len(times[("recurrent.adam_step", kind)]), "count")
        metrics[f"recurrent.params.{kind}"] = (params[0], "count")
        metrics[f"recurrent.adam_bytes.{kind}"] = (
            ADAM_ARRAYS_MOVED * FLOAT64_BYTES * params[0], "B-computed")
    return metrics, samples, errors


def layer_metrics(trace: Trace, lines: int, generate_s: float) -> tuple[dict, dict]:
    """Every per-layer metric except recurrent.* (see recurrent_metrics):
    (name -> (value, unit), sample counts)."""
    acc = trace.accounting()
    kmeans = trace.named("clustering.kmeans")
    grid = trace.named("training.grid_search")
    task_s = [t for s in grid for t in s[4]["task_s"]]
    workers = max((s[4]["workers"] for s in grid), default=1)
    part = trace.partition_s()
    m = {name: (value, "s") for name, value in part.items()}
    m.update({
        "synth.generate_s": (generate_s, "s"),
        "synth.lines": (lines, "count"),
        "synth.lines_per_s": (lines / generate_s, "1/s"),
        "ingest.parse_s": (trace.total_s("ingest.parse"), "s"),
        "ingest.lines": (lines, "count"),
        "ingest.records": (trace.records, "count"),
        "ingest.dropped": (sum(s[4]["dropped"] for s in trace.named("ingest.bin_series")),
                           "count"),
        "ingest.lines_per_s": (lines / part["ingest.bin_series_s"], "1/s"),
        "ingest.bins_json_bytes": (sum(s[4]["bytes"] for s in trace.named("ingest.save_bins_json")),
                                   "B"),
        "clustering.kmeans_calls": (len(kmeans), "count"),
        "clustering.lloyd_iterations": (sum(s[4]["iterations"] for s in kmeans), "count"),
        "clustering.k": (kmeans[-1][4]["k"] if kmeans else 0, "count"),
        "prep.train_windows": (sum(s[4]["train_windows"]
                                   for s in trace.named("training.prepare_dataset")), "count"),
        "training.tasks": (len(task_s), "count"),
        "training.task_s.p50": (float(np.median(task_s)), "s"),
        "training.task_s.max": (max(task_s), "s"),
        "training.pool_efficiency": (sum(task_s) / (workers * part["training.grid_search_s"]),
                                     "ratio"),
        "stats.comparisons": (len(trace.named("stats.comparison_report")), "count"),
        "cli.traced_pipeline_s": (acc["traced_pipeline_s"], "s"),
        "cli.self_s": (acc["self_s"], "s"),
        "trace.overhead_s": (trace.overhead_s(), "s"),
    })
    samples = {"training.task_s": len(task_s), "clustering.kmeans_calls": len(kmeans)}
    return m, samples
