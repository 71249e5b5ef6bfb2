"""Benchmark of the cellcast pipeline.

Usage, from the repository root:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Set-up generates the workload's synthetic CDR files and truth.csv from
the seed with `cellcast.synth` and writes a pipeline config in "input"
mode. After an untimed warm-up, rounds of one timed set-up and one
unmodified `cellcast pipeline` process follow each other for about S
seconds and at least MIN_RUNS times. One pipeline process runs at a
time, the next starting when the previous one has exited (a closed loop
with one client). Every run's output tree is checked. A workload with
a worker pool also runs once with --workers 1, untimed, and must
produce the same bytes. Pipeline times are reported per run of the
loop, set-up time as the median set-up (see the note at the metrics).

With --trace 0 the last line of stdout is a JSON object with the
end-to-end metrics; with --trace 1 a traced pipeline run (traced.py)
follows the loop, and the object holds the per-layer metrics instead.
The line before it is a JSON report with the environment, the workload,
every run and the sample count behind each statistic.
Working files go to .bench_run/ in the repository root.
"""

import os

# One BLAS thread in this process and in every pipeline process, so pool
# workers and BLAS threads never oversubscribe the cores. Set before
# numpy is first imported.
BLAS_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_PINS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_run")

WARMUP_S = 1.0
MIN_RUNS = 3
# Whole invocation, set-up to result, stays under 180 s.
DEADLINE_S = 170.0
ENTRY = "import sys; from cellcast.cli import main; sys.exit(main())"
BASE_FILES = ("bins.json", "clusters.json", "cluster_series.json", "results.csv",
              "summary.json", "comparison.json")


@dataclass
class Run:
    """One pipeline process and what the checks found in its outputs."""

    name: str
    exit: int = -1
    wall_s: float = 0.0
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    digest: str = ""
    forecast_rmse: float = 0.0
    cluster_ari: float = 0.0
    errors: list = field(default_factory=list)


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def spawn(run: Run, argv: list, cwd: str, env: dict, deadline: float) -> None:
    """Run argv to completion in cwd and record its wall time, and the
    CPU time and peak RSS of the process and every worker it reaped."""
    os.makedirs(cwd)
    with open(os.path.join(cwd, "stderr.txt"), "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=subprocess.DEVNULL,
                                stderr=err, start_new_session=True)
        timer = threading.Timer(max(deadline - time.monotonic(), 0.0), _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        run.wall_s = time.perf_counter() - t0
    proc.returncode = run.exit = os.waitstatus_to_exitcode(status)
    run.cpu_s = usage.ru_utime + usage.ru_stime
    run.rss_mb = usage.ru_maxrss / 1024.0
    if run.exit != 0:
        with open(os.path.join(cwd, "stderr.txt"), "rb") as fh:
            tail = fh.read().decode("utf-8", "replace").strip().splitlines()[-1:]
        run.errors.append(f"exit code {run.exit}: {' '.join(tail)}")


def tree_digest(root: str) -> str:
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, root).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def check_outputs(run: Run, out_dir: str, wl, truth: dict) -> None:
    """Check one pipeline output tree and take its accuracy metrics."""
    from cellcast.clustering import adjusted_rand_index
    from workloads import CELL_KINDS

    missing = [n for n in BASE_FILES if not os.path.isfile(os.path.join(out_dir, n))]
    if missing:
        run.errors.append(f"missing {', '.join(missing)}")
        return
    with open(os.path.join(out_dir, "clusters.json"), encoding="utf-8") as fh:
        model = json.load(fh)
    with open(os.path.join(out_dir, "cluster_series.json"), encoding="utf-8") as fh:
        clusters = sorted(int(c) for c in json.load(fh)["cells"])
    with open(os.path.join(out_dir, "summary.json"), encoding="utf-8") as fh:
        summary = json.load(fh)
    with open(os.path.join(out_dir, "results.csv"), encoding="utf-8") as fh:
        rows = sum(1 for _ in fh) - 1

    if len(clusters) != model["k"]:
        run.errors.append(f"{len(clusters)} cluster series for k={model['k']}")
    per_cluster = [f"{kind}_c{c}.json" for c in clusters for kind in CELL_KINDS]
    per_cluster += [f"predictions_c{c}.csv" for c in clusters]
    missing = [n for n in per_cluster if not os.path.isfile(os.path.join(out_dir, n))]
    if missing:
        run.errors.append(f"missing {', '.join(missing)}")
    expected_rows = len(clusters) * len(CELL_KINDS) * wl.runs
    if rows != expected_rows:
        run.errors.append(f"results.csv has {rows} rows, expected {expected_rows}")
    if sorted(int(c) for c in summary) != clusters:
        run.errors.append(f"summary.json clusters {sorted(summary)} != {clusters}")
        return

    # The head of each cluster's winner tie set: its lowest mean RMSE.
    run.forecast_rmse = statistics.fmean(
        min(entry["mean_rmse"] for entry in summary[str(c)].values()) for c in clusters)
    cells = sorted(truth)
    assignment = {int(cid): c for cid, c in model["assignment"].items()}
    if sorted(assignment) != cells:
        run.errors.append("clusters.json does not assign exactly the generated cells")
        return
    run.cluster_ari = adjusted_rand_index([assignment[c] for c in cells],
                                          [truth[c] for c in cells])
    run.digest = tree_digest(out_dir)


def check_digests(runs: list) -> None:
    """Every run of one workload and seed must write the same bytes."""
    reference = next((r for r in runs if not r.errors), None)
    for r in runs:
        if reference is not None and r.digest and r.digest != reference.digest:
            r.errors.append(f"output digest differs from {reference.name}")


def environment(wl, seed: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas, "machine": platform.machine(),
            "nproc": len(os.sched_getaffinity(0)), "thread_pins": BLAS_PINS,
            "workers": wl.workers, "seed": seed}


def count_lines(data_dir: str) -> int:
    total = 0
    for name in sorted(os.listdir(data_dir)):
        if name.endswith(".tsv"):
            with open(os.path.join(data_dir, name), "rb") as fh:
                total += fh.read().count(b"\n")
    return total


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not os.path.isfile(os.path.join(SRC, "cellcast", "__init__.py")):
        print(f"error: no cellcast sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    # Imported only once the sources are known to be there.
    from cellcast import synth
    from layers import Trace, layer_metrics, recurrent_metrics
    from workloads import CELL_KINDS, WORKLOADS

    wl = WORKLOADS.get(args.workload)
    if wl is None:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    work = os.path.join(WORK, f"{wl.name}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(os.path.join(work, "tmp"))
    env = dict(os.environ, PYTHONPATH=SRC, TMPDIR=os.path.join(work, "tmp"))

    def set_up(name: str) -> tuple:
        """Generate the inputs into work/name and write the config there:
        (setup_s, generate_s, data_dir, config_path)."""
        data_dir = os.path.join(work, name, "data")
        config_path = os.path.join(work, name, "pipeline.json")
        t0 = time.perf_counter()
        spec = wl.spec(args.seed)
        synth.generate(spec, data_dir)
        t1 = time.perf_counter()
        with open(config_path, "w", encoding="utf-8") as fh:
            json.dump(wl.pipeline_config(spec, data_dir), fh, indent=2)
        return time.perf_counter() - t0, t1 - t0, data_dir, config_path

    # Untimed: on a shared 2-vCPU VM, the first second of work after an
    # idle spell ran up to 1.7x slower than what followed. The first
    # set-up writes the inputs every pipeline run reads.
    warm_start = time.perf_counter()
    _, _, data_dir, config_path = set_up("inputs")
    while time.perf_counter() - warm_start < WARMUP_S:
        set_up("warmup")
    truth = synth.load_truth(os.path.join(data_dir, "truth.csv"))

    def execute(name: str, argv: list) -> Run:
        run = Run(name=name)
        cwd = os.path.join(work, name)
        spawn(run, argv, cwd, env, deadline)
        if run.exit == 0:
            check_outputs(run, os.path.join(cwd, "out"), wl, truth)
        # Deleting outputs at once keeps their writeback out of later runs.
        shutil.rmtree(cwd)
        return run

    def traced(name: str, extra=()) -> tuple:
        spans_path = os.path.join(work, f"spans-{name}.json")
        run = execute(name, [sys.executable, os.path.join(BENCH_DIR, "traced.py"),
                             config_path, spans_path, *extra])
        if run.exit != 0:
            return run, None
        with open(spans_path, encoding="utf-8") as fh:
            return run, Trace(json.load(fh))

    pipeline_argv = [sys.executable, "-c", ENTRY, "pipeline", "--config", config_path]
    serial = ("--workers", "1")
    # Pipeline runs' worth of time the passes after the loop need: a
    # serial pass of a pool workload takes about two, a traced pass one.
    after_loop = 2 * (wl.workers > 1) + args.trace
    # Each round times one set-up, then one pipeline run, so both are
    # sampled across the whole loop and not only in its first seconds.
    runs, setup_s, generate_s = [], [], []
    loop_start = time.monotonic()
    while True:
        total, generate, _, _ = set_up("setup")
        # Deleting the copy at once keeps its writeback out of the run.
        shutil.rmtree(os.path.join(work, "setup"))
        setup_s.append(total)
        generate_s.append(generate)
        runs.append(execute(f"run{len(runs):02d}", pipeline_argv))
        typical = statistics.median(r.wall_s for r in runs) + statistics.median(setup_s)
        now = time.monotonic()
        if len(runs) >= MIN_RUNS and now - loop_start + typical > args.seconds:
            break
        if now + typical * (1 + after_loop) > deadline:
            break
    timed = list(runs)
    samples = {"setup_s": len(setup_s), "pipeline_runs": len(timed)}
    problems = []

    if args.trace == 0:
        if wl.workers > 1:
            runs.append(execute("serial", pipeline_argv + list(serial)))
        check_digests(runs)
        good = [r for r in timed if not r.errors] or timed
        # pipeline_s and pipeline_cpu_s are per run of the closed loop:
        # total over the runs divided by their count, the inverse of the
        # loop's throughput. The shared host switches between a fast and
        # a ~1.5x slower state for seconds to minutes; the median and the
        # fastest run jump between the two, the mean moves with the share
        # of time spent in each and spread least across seeds (NOTES.md).
        metrics = {
            "setup_s": (statistics.median(setup_s), "s"),
            "pipeline_s": (statistics.fmean(r.wall_s for r in timed), "s"),
            "pipeline_cpu_s": (statistics.fmean(r.cpu_s for r in timed), "s"),
            "peak_rss_mb": (statistics.median(r.rss_mb for r in timed), "MB"),
            "forecast_rmse": (good[0].forecast_rmse, "scaled"),
            "cluster_ari": (good[0].cluster_ari, "ratio"),
            "pass_ratio": (sum(not r.errors for r in runs) / len(runs), "ratio"),
        }
    else:
        run, trace = traced("traced")
        runs.append(run)
        recurrent_trace = trace
        if trace is not None and trace.grid_spans_dropped():
            # Doubles as this invocation's serial-versus-pool cross-check.
            run, recurrent_trace = traced("traced-serial", serial)
            runs.append(run)
            samples["recurrent_source"] = ("serial traced pass (--workers 1): "
                                           "spans inside pool workers are dropped")
        check_digests(runs)
        metrics = {}
        if trace is None or recurrent_trace is None:
            problems.append("a traced run failed")
        else:
            metrics, counts = layer_metrics(trace, count_lines(data_dir),
                                            statistics.median(generate_s))
            rec, rec_counts, errors = recurrent_metrics(recurrent_trace, CELL_KINDS)
            metrics.update(rec)
            samples.update(counts)
            samples.update(rec_counts)
            problems += errors
            checked = {"traced": trace, "recurrent": recurrent_trace}
            if recurrent_trace is trace:
                del checked["recurrent"]
            for name, t in checked.items():
                acc = t.accounting()
                samples[f"accounting.{name}"] = acc
                if not acc["ok"]:
                    problems.append(f"{name} trace: layer times plus cli.self_s "
                                    f"do not add up to cli.traced_pipeline_s: {acc}")

    failed = sum(bool(r.errors) for r in runs)
    report = {
        "workload": {**wl.__dict__,
                     "configs": [wl.config_name(kind) for kind in CELL_KINDS]},
        "environment": environment(wl, args.seed),
        "samples": samples,
        "setup_s": setup_s,
        "runs": [r.__dict__ for r in runs],
        "problems": problems,
    }
    with open(os.path.join(work, "report.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
    for name in os.listdir(work):
        if os.path.isdir(os.path.join(work, name)):
            shutil.rmtree(os.path.join(work, name))

    for name, (value, unit) in metrics.items():
        print(f"{wl.name} {name} = {value:.6g} {unit}")
    for r in runs:
        for e in r.errors:
            print(f"{wl.name} FAIL {r.name}: {e}")
    for p in problems:
        print(f"{wl.name} FAIL {p}")
    print(json.dumps(report, separators=(",", ":")))
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
