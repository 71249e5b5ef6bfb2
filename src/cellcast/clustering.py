"""Day-period activity profiles and seeded K-Means cell clustering.

Cells are summarized as 6-vectors of mean activity over four-hour day
periods, clustered with Lloyd's algorithm under a spread-out seeded
initialization, and the cluster count is picked from the SSE-vs-k curve
by maximum distance to the chord (a mechanical stand-in for eyeballing
the elbow).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from . import jsonfile
from .errors import (
    ConfigError,
    CurveTooShort,
    Empty,
    EmptySeries,
    InvalidK,
    LengthMismatch,
    MalformedClusters,
    MalformedFile,
    MissingSeries,
    SpanMismatch,
    TooFewPoints,
)
from .ingest import BIN_WIDTH_MS, MS_PER_HOUR, BinnedCellSeries

N_PERIODS = 6
HOURS_PER_PERIOD = 4
PERIOD_NAMES = ("LateNight", "EarlyMorning", "Morning", "Afternoon", "Evening", "Night")
DEFAULT_UTC_OFFSET_HOURS = 1.0  # Milan's local clock in the source data
DEFAULT_RESTARTS = 10


@dataclass
class ClusterModel:
    k: int
    centroids: np.ndarray  # shape (k, 6)
    assignment: dict[int, int]  # cell_id -> cluster index in [0, k)
    iterations_run: int
    sse: float
    # SSE after every assignment pass of the winning restart; monotone
    # non-increasing. Not persisted.
    sse_history: list[float] = field(default_factory=list)


@dataclass
class SseCurve:
    entries: list[tuple[int, float]]  # (k, sse), k strictly increasing


@dataclass(frozen=True)
class ProfileMatrix:
    """Day-period profiles as rows, in ``cell_ids`` order, and their count
    of distinct rows (the largest k they can be split into). Columns are
    [LateNight, EarlyMorning, Morning, Afternoon, Evening, Night], i.e.
    periods starting at local hour 0, 4, 8, 12, 16, 20."""

    cell_ids: list[int]
    points: np.ndarray
    n_distinct: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "n_distinct", np.unique(self.points, axis=0).shape[0])


def build_profiles(cells: dict[int, BinnedCellSeries],
                   utc_offset_hours: float = DEFAULT_UTC_OFFSET_HOURS) -> ProfileMatrix:
    """The mean 30-minute activity of every cell in each of the six
    four-hour day periods of its local clock, rows ordered by cell id.

    Periods are start-inclusive, end-exclusive: a bin starting 04:00
    local time counts toward EarlyMorning. Periods with no bins (series
    shorter than a day) get mean 0.
    """
    if not cells:
        raise TooFewPoints("no profiles to cluster")
    ids = sorted(cells)
    spans: dict[tuple[int, int, int], list[int]] = {}
    for row, cid in enumerate(ids):
        series = cells[cid]
        if series.n_bins == 0:
            raise EmptySeries(f"cell {series.cell_id} has no bins")
        spans.setdefault((series.span_start, series.bin_width_ms, series.n_bins), []).append(row)
    offset_ms = round(utc_offset_hours * MS_PER_HOUR)
    points = np.empty((len(ids), N_PERIODS))
    for (span_start, width, n_bins), rows in spans.items():
        starts = span_start + offset_ms + np.arange(n_bins, dtype=np.int64) * width
        periods = (starts // MS_PER_HOUR % 24 // HOURS_PER_PERIOD).astype(np.intp)
        # One bincount over (row, period) keys adds each row's bins in
        # index order, as a bincount of that row alone does.
        keys = (np.arange(len(rows))[:, None] * N_PERIODS + periods).ravel()
        values = np.concatenate([cells[ids[row]].values for row in rows])
        sums = np.bincount(keys, values, len(rows) * N_PERIODS).reshape(len(rows), N_PERIODS)
        counts = np.bincount(periods, minlength=N_PERIODS)
        points[rows] = np.divide(sums, counts, out=np.zeros_like(sums), where=counts > 0)
    return ProfileMatrix(cell_ids=ids, points=points)


def _init_centroids(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Spread-out seeding: next centroid drawn proportional to squared
    distance from the already-chosen ones."""
    n = points.shape[0]
    centroids = np.empty((k, points.shape[1]))
    centroids[0] = points[rng.integers(n)]
    d2 = ((points - centroids[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total > 0:
            idx = rng.choice(n, p=d2 / total)
        else:
            idx = rng.integers(n)
        centroids[j] = points[idx]
        d2 = np.minimum(d2, ((points - centroids[j]) ** 2).sum(axis=1))
    return centroids


class _Scratch:
    """What every assignment pass of one fit reuses: the points as
    contiguous (dims, 1, n) columns and two (k, n) distance buffers."""

    def __init__(self, points: np.ndarray, k: int):
        n = points.shape[0]
        self.columns = np.ascontiguousarray(points.T)[:, None, :]
        self.d2 = np.empty((k, n))
        self.diff = np.empty((k, n))
        self.rows = np.arange(n)


def _assign(points: np.ndarray, centroids: np.ndarray,
            scratch: _Scratch | None = None) -> tuple[np.ndarray, float]:
    # Squared distances summed one dimension at a time: the same additions
    # in the same order as summing an (n, k, dims) difference tensor over
    # its last axis, without allocating it. The sum starts from the first
    # square rather than from 0.0, which is the same number since a square
    # is never -0.0.
    if scratch is None:
        scratch = _Scratch(points, centroids.shape[0])
    d2, diff = scratch.d2, scratch.diff
    centroid_columns = np.ascontiguousarray(centroids.T)[:, :, None]
    for d, column in enumerate(scratch.columns):
        out = d2 if d == 0 else diff
        np.subtract(column, centroid_columns[d], out=out)
        np.square(out, out=out)
        if d:
            d2 += diff
    labels = np.argmin(d2, axis=0)  # ties resolve to the lowest index
    sse = float(d2[labels, scratch.rows].sum())
    return labels, sse


def _update(points: np.ndarray, labels: np.ndarray, k: int,
            centroids: np.ndarray) -> np.ndarray:
    dims = points.shape[1]
    new = centroids.copy()
    counts = np.bincount(labels, minlength=k)
    # One bincount over the (label, dim) bins of the row-major points: each
    # bin adds its points in index order, as a per-cluster mean over axis 0
    # does, so the centroids keep their bits.
    bins = (labels[:, None] * dims + np.arange(dims)).ravel()
    sums = np.bincount(bins, weights=np.ravel(points), minlength=k * dims).reshape(k, dims)
    filled = counts > 0
    new[filled] = sums[filled] / counts[filled, None]
    empty = np.flatnonzero(~filled)
    if empty.size:
        # Re-seed each emptied centroid to a point far from its own
        # centroid; taking successive farthest points keeps repairs distinct.
        d_own = ((points - new[labels]) ** 2).sum(axis=1)
        order = np.argsort(-d_own, kind="stable")
        for slot, j in enumerate(empty):
            new[j] = points[order[slot % len(order)]]
    return new


def _lloyd(points: np.ndarray, centroids: np.ndarray,
           max_iter: int) -> tuple[np.ndarray, np.ndarray, float, list[float], int]:
    k = centroids.shape[0]
    scratch = _Scratch(points, k)
    labels, sse = _assign(points, centroids, scratch)
    history = [sse]
    iterations = 0
    for _ in range(max_iter):
        iterations += 1
        centroids = _update(points, labels, k, centroids)
        new_labels, sse = _assign(points, centroids, scratch)
        history.append(sse)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
    return centroids, labels, sse, history, iterations


def validate_settings(k, k_max: int, restarts: int, prefix: str) -> None:
    """The rules for a clustering run, checked before any work: k >= 1 or
    "auto", restarts >= 1, and k_max >= 3 when k is "auto", since an elbow
    needs three points. Errors name each setting as prefix + its key."""
    if k != "auto" and k < 1:
        raise ConfigError(f"{prefix}k must be >= 1 or 'auto', got {k}")
    if restarts < 1:
        raise ConfigError(f"{prefix}restarts must be >= 1, got {restarts}")
    if k == "auto" and k_max < 3:
        raise ConfigError(f"{prefix}kmax must be >= 3 when k is 'auto', got {k_max}")


def kmeans(profiles: ProfileMatrix, k: int, seed: int = 0,
           max_iter: int = 300, restarts: int = DEFAULT_RESTARTS,
           _seedings: list[np.ndarray] | None = None) -> ClusterModel:
    """Best-of-restarts Lloyd clustering of the period profiles.

    Restart r draws from its own stream derived as [seed, r], so adding
    restarts never perturbs earlier ones, and the same restart explores
    the same initial points at every k (which keeps the SSE-vs-k curve
    well behaved). Ties on SSE go to the earliest restart.

    ``_seedings`` (private to elbow_scan) holds each restart's seeding
    drawn at a larger k; the fit takes its first k rows, which are the
    rows the restart's own stream would draw.
    """
    if k < 1:
        raise InvalidK(f"k must be >= 1, got {k}")
    validate_settings(k, k, restarts, "")
    if profiles.n_distinct < k:
        raise TooFewPoints(f"{profiles.n_distinct} distinct profiles < k={k}")
    points = profiles.points

    best = None
    for r in range(restarts):
        if _seedings is None:
            initial = _init_centroids(points, k, np.random.default_rng([seed, r]))
        else:
            initial = _seedings[r][:k]
        result = _lloyd(points, initial, max_iter)
        if best is None or result[2] < best[2]:
            best = result
    centroids, labels, sse, history, iterations = best
    assignment = dict(zip(profiles.cell_ids, labels.tolist()))
    return ClusterModel(k=k, centroids=centroids, assignment=assignment,
                        iterations_run=iterations, sse=sse, sse_history=history)


def elbow_scan(profiles: ProfileMatrix, k_max: int, seed: int = 0,
               restarts: int = DEFAULT_RESTARTS) -> SseCurve:
    """Best-of-restarts SSE for every k in 1..k_max, with k_max capped at
    the number of distinct profiles (cells with equal profiles, such as
    dead all-zero cells, cannot be split).

    Raises
    ------
    TooFewPoints
        Fewer than three distinct profiles, too few for an elbow.
    """
    if profiles.n_distinct < 3:
        raise TooFewPoints(f"an elbow scan needs at least 3 distinct profiles, "
                           f"got {profiles.n_distinct}")
    k_top = min(k_max, profiles.n_distinct)
    # Centroid j is drawn from the first j centroids and the restart's
    # stream alone, never from k, so the seeding for any k is the first k
    # rows of the seeding for k_top: draw each restart's seeding once.
    seedings = [_init_centroids(profiles.points, k_top, np.random.default_rng([seed, r]))
                for r in range(restarts)]
    entries = []
    for k in range(1, k_top + 1):
        model = kmeans(profiles, k, seed=seed, restarts=restarts, _seedings=seedings)
        entries.append((k, model.sse))
    return SseCurve(entries=entries)


def knee_point(curve: SseCurve) -> int:
    """The k at maximum perpendicular distance from the curve to the
    chord joining its endpoints, with both axes min-max scaled.

    Only interior points are candidates; ties go to the smaller k. This
    mechanizes the visual elbow pick, so callers should still surface
    the full curve for a human override.
    """
    if len(curve.entries) < 3:
        raise CurveTooShort(f"need >= 3 entries, got {len(curve.entries)}")
    ks = np.array([k for k, _ in curve.entries], dtype=np.float64)
    sses = np.array([s for _, s in curve.entries], dtype=np.float64)
    x = (ks - ks[0]) / (ks[-1] - ks[0])
    span = sses.max() - sses.min()
    y = (sses - sses.min()) / span if span > 0 else np.zeros_like(sses)
    # Perpendicular distance to the chord from (x0,y0) to (x1,y1).
    dx, dy = x[-1] - x[0], y[-1] - y[0]
    chord = np.hypot(dx, dy)
    dist = np.abs(dx * (y[0] - y) - (x[0] - x) * dy) / chord
    interior = dist[1:len(ks) - 1]
    # Smallest k within rounding noise of the max, so mathematically tied
    # distances (e.g. an exactly linear curve) resolve to the lower k.
    best_idx = 1 + int(np.flatnonzero(interior >= interior.max() - 1e-12)[0])
    return int(ks[best_idx])


def cluster_mean_series(model: ClusterModel,
                        binned: dict[int, BinnedCellSeries]) -> dict[int, BinnedCellSeries]:
    """Per-cluster mean of its member cells' binned series.

    The returned series carry the cluster index in the cell_id slot.
    """
    members: dict[int, list[int]] = {}
    for cid, cluster in model.assignment.items():
        members.setdefault(cluster, []).append(cid)

    reference = None
    for cid in model.assignment:
        if cid not in binned:
            raise MissingSeries(f"no binned series for cell {cid}")
        s = binned[cid]
        key = (s.span_start, s.bin_width_ms, s.n_bins)
        if reference is None:
            reference = key
        elif key != reference:
            raise SpanMismatch(f"cell {cid} span {key} != {reference}")

    out = {}
    for cluster in sorted(members):
        cells = members[cluster]
        total = np.zeros(reference[2])
        for cid in cells:
            total += binned[cid].values
        out[cluster] = BinnedCellSeries(
            cell_id=cluster,
            span_start=reference[0],
            values=total / len(cells),
            bin_width_ms=reference[1],
        )
    return out


def adjusted_rand_index(labels_a, labels_b) -> float:
    """Chance-corrected pair-counting agreement between two labelings.

    1.0 for identical partitions, about 0 for independent ones. Also 1.0
    when both partitions are trivial (all singletons or one block), where
    the correction's denominator vanishes.
    """
    a = list(labels_a)
    b = list(labels_b)
    if len(a) != len(b):
        raise LengthMismatch(f"{len(a)} labels vs {len(b)}")
    if not a:
        raise Empty("no labels")

    def comb2(x: float) -> float:
        return x * (x - 1) / 2.0

    contingency: dict[tuple, int] = {}
    counts_a: dict = {}
    counts_b: dict = {}
    for la, lb in zip(a, b):
        contingency[(la, lb)] = contingency.get((la, lb), 0) + 1
        counts_a[la] = counts_a.get(la, 0) + 1
        counts_b[lb] = counts_b.get(lb, 0) + 1

    sum_ij = sum(comb2(n) for n in contingency.values())
    sum_a = sum(comb2(n) for n in counts_a.values())
    sum_b = sum(comb2(n) for n in counts_b.values())
    n_pairs = comb2(len(a))
    expected = sum_a * sum_b / n_pairs if n_pairs > 0 else 0.0
    max_index = (sum_a + sum_b) / 2.0
    if max_index == expected:
        return 1.0
    return (sum_ij - expected) / (max_index - expected)


def save_cluster_json(model: ClusterModel, path: str) -> None:
    payload = {
        "k": model.k,
        "centroids": [[float(v) for v in row] for row in model.centroids],
        "assignment": {str(cid): model.assignment[cid] for cid in sorted(model.assignment)},
        "sse": float(model.sse),
    }
    jsonfile.save(path, payload, indent=2)


def _clusters_from_doc(doc: dict) -> ClusterModel:
    k = jsonfile.positive_int(doc, "k")
    centroids = jsonfile.finite_array(jsonfile.key(doc, "centroids"), "centroids", ndim=2)
    if centroids.shape != (k, N_PERIODS):
        raise MalformedFile(f"centroids: shape {centroids.shape}, expected ({k}, {N_PERIODS})")
    raw = jsonfile.mapping(doc, "assignment")
    assignment = {}
    for text in raw:
        cluster = jsonfile.integer(raw, text, "assignment.")
        if not 0 <= cluster < k:
            raise MalformedFile(f"assignment.{text}: {cluster}, expected a cluster in 0..{k - 1}")
        assignment[jsonfile.int_key(text, "assignment.")] = cluster
    return ClusterModel(k=k, centroids=centroids, assignment=assignment,
                        iterations_run=0, sse=jsonfile.number(doc, "sse"))


def load_cluster_json(path: str) -> ClusterModel:
    """Read a cluster file. One whose centroids are not k rows of six
    finite numbers, or that assigns a cell outside 0..k-1, raises
    MalformedClusters naming the file and the key."""
    return jsonfile.load(path, _clusters_from_doc, MalformedClusters)


def save_sse_csv(curve: SseCurve, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "sse"])
        for k, sse in curve.entries:
            writer.writerow([k, f"{sse:.17g}"])
