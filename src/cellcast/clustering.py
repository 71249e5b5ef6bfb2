"""Day-period activity profiles and seeded K-Means cell clustering.

Cells are summarized as 6-vectors of mean activity over four-hour day
periods, clustered with Lloyd's algorithm under a spread-out seeded
initialization, and the cluster count is picked from the SSE-vs-k curve
by maximum distance to the chord (a mechanical stand-in for eyeballing
the elbow).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from . import jsonfile
from .errors import (
    ConfigError,
    CurveTooShort,
    DomainError,
    Empty,
    EmptySeries,
    InvalidK,
    LengthMismatch,
    MalformedClusters,
    MalformedFile,
    MissingSeries,
    TooFewPoints,
)
from .ingest import BIN_WIDTH_MS, MS_PER_HOUR, BinnedCellSeries, common_span

N_PERIODS = 6
HOURS_PER_PERIOD = 4
PERIOD_NAMES = ("LateNight", "EarlyMorning", "Morning", "Afternoon", "Evening", "Night")
DEFAULT_UTC_OFFSET_HOURS = 1.0  # Milan's local clock in the source data
DEFAULT_RESTARTS = 10
PROFILE_BLOCK_BINS = 1 << 17  # bins summed per bincount; bounds its temporaries
LOCKSTEP_ELEMENTS = 1 << 19  # restarts x k x n distances per lockstep group; bounds its buffers
DISTANCE_BLOCK = 1 << 16  # distances per scratch array of a distance pass


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
    # kmeans results by (k, seed, restarts, max_iter), so that the elbow
    # scan's fit of the knee's k is not fitted again. The points are a
    # read-only copy, which keeps every stored fit valid.
    fits: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self):
        points = np.array(self.points, dtype=np.float64)
        points.flags.writeable = False
        object.__setattr__(self, "points", points)
        _check_sums_fit(points)
        object.__setattr__(self, "n_distinct", _distinct_rows(points))


def _check_sums_fit(points: np.ndarray) -> None:
    """Raise DomainError unless every sum k-means takes stays finite. A
    centroid sums at most n values of a column, and an SSE or a seeding
    total at most n squared distances, each no more than the sum of the
    squared column ranges; with finite but huge profiles these overflow,
    and the seeding's draw probabilities become NaN."""
    n = len(points)
    if not n:
        return
    with np.errstate(over="ignore", invalid="ignore"):
        ranges = points.max(axis=0) - points.min(axis=0)
        spread = n * float(np.sum(ranges * ranges))
        scale = n * float(np.abs(points).max())
    if not (math.isfinite(spread) and math.isfinite(scale)):
        raise DomainError(f"profiles up to {float(np.abs(points).max()):.6g} overflow the "
                          f"float64 sums of k-means over {n} cells")


def _distinct_rows(points: np.ndarray) -> int:
    """How many distinct rows `points` holds, counted as
    np.unique(points, axis=0) counts them, which would load numpy.ma:
    rows equal in every column are one row, and a row holding NaN is
    equal to none."""
    if not len(points):
        return 0
    rows = points[np.lexsort(points.T[::-1])]
    return 1 + int(np.count_nonzero((rows[1:] != rows[:-1]).any(axis=1)))


def build_profiles(cells: dict[int, BinnedCellSeries],
                   utc_offset_hours: float = DEFAULT_UTC_OFFSET_HOURS) -> ProfileMatrix:
    """The mean 30-minute activity of every cell in each of the six
    four-hour day periods of its local clock, rows ordered by cell id.
    The series share one span (see ingest.common_span).

    Periods are start-inclusive, end-exclusive: a bin starting 04:00
    local time counts toward EarlyMorning. Periods with no bins (series
    shorter than a day) get mean 0.
    """
    if not cells:
        raise TooFewPoints("no profiles to cluster")
    ids = sorted(cells)
    span_start, n_bins = common_span(cells)
    if n_bins == 0:
        raise EmptySeries(f"cell {cells[ids[0]].cell_id} has no bins")
    offset_ms = round(utc_offset_hours * MS_PER_HOUR)
    starts = span_start + offset_ms + np.arange(n_bins, dtype=np.int64) * BIN_WIDTH_MS
    periods = (starts // MS_PER_HOUR % 24 // HOURS_PER_PERIOD).astype(np.intp)
    counts = np.bincount(periods, minlength=N_PERIODS)
    # One bincount over the (row, period) keys of a block of rows adds
    # each row's bins in index order, as a bincount of that row alone does.
    step = min(len(ids), max(1, PROFILE_BLOCK_BINS // n_bins))
    keys = (np.arange(step)[:, None] * N_PERIODS + periods).ravel()
    points = np.empty((len(ids), N_PERIODS))
    for lo in range(0, len(ids), step):
        block = ids[lo:lo + step]
        values = np.concatenate([cells[cid].values for cid in block])
        sums = np.bincount(keys[:len(values)], values, len(block) * N_PERIODS)
        sums = sums.reshape(len(block), N_PERIODS)
        points[lo:lo + len(block)] = np.divide(sums, counts, out=np.zeros_like(sums),
                                               where=counts > 0)
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


def _distances(columns: np.ndarray, centroids: np.ndarray, out: np.ndarray,
               diff: np.ndarray) -> None:
    """Squared distances from centroids (m, dims) to the points, given as
    (dims, 1, n) columns, into the (m, n) array out, as many rows at a
    time as the scratch array diff holds.

    Summed one dimension at a time: the same additions in the same order
    as summing an (n, m, dims) difference tensor over its last axis,
    without allocating it. The sum starts from the first square rather
    than from 0.0, which is the same number since a square is never -0.0.
    """
    for lo in range(0, len(centroids), len(diff)):
        rows = out[lo:lo + len(diff)]
        scratch = diff[:len(rows)]
        centroid_columns = np.ascontiguousarray(centroids[lo:lo + len(rows)].T)[:, :, None]
        for d, column in enumerate(columns):
            target = rows if d == 0 else scratch
            np.subtract(column, centroid_columns[d], out=target)
            np.square(target, out=target)
            if d:
                rows += scratch


class _Group:
    """Lloyd's algorithm for a group of restarts in lockstep, on one
    (restarts, k, n) array of squared distances.

    The restarts still running fill the first `active` slots of every
    array; a restart that stops swaps places with the last running one.
    """

    def __init__(self, points: np.ndarray, initial: np.ndarray):
        g, k, dims = initial.shape
        n = points.shape[0]
        self.points, self.k = points, k
        self.columns = np.ascontiguousarray(points.T)[:, None, :]
        self.weights = np.tile(points.T, (1, g))  # each dim's values, once per slot
        self.slot_bins = np.arange(g)[:, None] * k
        self.rank = np.arange(k, 0, -1, dtype=np.min_scalar_type(k))[:, None]
        self.centroids = initial.copy()
        self.dist = np.empty((g, k, n))
        # Distance rows are computed a block at a time, so that the
        # scratch arrays stay within DISTANCE_BLOCK distances.
        step = max(1, min(k, DISTANCE_BLOCK // n))
        self.rows = np.empty((step, n))
        self.diff = np.empty((step, n))
        self.hits = np.empty((g, k, n), dtype=bool)
        self.scores = np.empty((g, k, n), dtype=self.rank.dtype)
        _distances(self.columns, self.centroids.reshape(g * k, dims),
                   self.dist.reshape(g * k, n), self.diff)
        self.restart = list(range(g))  # the restart in each slot
        self.active = g

    def nearest(self) -> tuple[np.ndarray, np.ndarray]:
        """Each running restart's labels (lowest index among equal minima,
        argmin's rule) and distance from each point to its centroid."""
        a, k = self.active, self.k
        dist = self.dist[:a]
        nearest = dist.min(axis=1)
        hits, scores = self.hits[:a], self.scores[:a]
        np.equal(dist, nearest[:, None, :], out=hits)
        np.multiply(hits.view(np.uint8), self.rank, out=scores)
        labels = k - scores.max(axis=1)  # in the rank's small dtype
        return labels, nearest

    def update(self, labels: np.ndarray) -> None:
        """Move each running restart's centroids to the means of their
        members, and refresh the distance rows of the centroids that moved."""
        a, k = self.active, self.k
        n, dims = self.points.shape
        old = self.centroids[:a]
        keys = (labels + self.slot_bins[:a]).ravel()
        counts = np.bincount(keys, minlength=a * k).reshape(a, k, 1)
        # One bincount per dim over the (slot, label) bins: each bin adds
        # its points in index order, as a per-cluster mean over axis 0
        # does, so the centroids keep their bits.
        sums = np.empty((a * k, dims))
        for d, weights in enumerate(self.weights):
            sums[:, d] = np.bincount(keys, weights=weights[:a * n], minlength=a * k)
        new = old.copy()
        np.divide(sums.reshape(a, k, dims), counts, out=new, where=counts > 0)
        for s in np.flatnonzero((counts == 0).any(axis=(1, 2))):
            self._repair(new[s], labels[s], np.flatnonzero(counts[s, :, 0] == 0))
        # A centroid with the same bits has the same distance row.
        moved = np.flatnonzero((new != old).any(axis=2))
        old[...] = new
        flat = new.reshape(a * k, dims)
        if moved.size == a * k:
            _distances(self.columns, flat, self.dist[:a].reshape(a * k, n), self.diff)
            return
        for lo in range(0, moved.size, len(self.rows)):
            which = moved[lo:lo + len(self.rows)]
            rows = self.rows[:which.size]
            _distances(self.columns, flat[which], rows, self.diff)
            self.dist.reshape(-1, n)[which] = rows

    def _repair(self, centroids: np.ndarray, labels: np.ndarray, empty: np.ndarray) -> None:
        # Re-seed each emptied centroid to a point far from its own
        # centroid; taking successive farthest points keeps repairs distinct.
        points = self.points
        d_own = ((points - centroids[labels]) ** 2).sum(axis=1)
        order = np.argsort(-d_own, kind="stable")
        for slot, j in enumerate(empty):
            centroids[j] = points[order[slot % len(order)]]

    def retire(self, slot: int) -> None:
        """Swap the restart in slot with the last running one and stop it."""
        last = self.active - 1
        if slot != last:
            for arr in (self.centroids, self.dist):
                arr[[slot, last]] = arr[[last, slot]]
            self.restart[slot], self.restart[last] = self.restart[last], self.restart[slot]
        self.active = last


def _lloyd_group(points: np.ndarray, initial: np.ndarray, max_iter: int) -> list[tuple]:
    """(centroids, labels, sse, sse_history, iterations) of Lloyd's
    algorithm from each of the initial centroid sets (restarts, k, dims),
    in that order. A restart stops when its labels stop changing or after
    max_iter updates, as it would on its own."""
    group = _Group(points, initial)
    labels, nearest = group.nearest()
    sse = nearest.sum(axis=1).tolist()
    histories = [[s] for s in sse]
    results = [None] * len(initial)
    iterations = 0
    while group.active:
        if iterations == max_iter:
            done = np.ones(group.active, dtype=bool)
        else:
            iterations += 1
            group.update(labels)
            new_labels, nearest = group.nearest()
            # Row sums add each restart's distances as a 1-d sum does.
            sse = nearest.sum(axis=1).tolist()
            for slot, value in enumerate(sse):
                histories[group.restart[slot]].append(value)
            done = (new_labels == labels).all(axis=1) | (iterations == max_iter)
            labels = new_labels
        for slot in np.flatnonzero(done)[::-1].tolist():
            r = group.restart[slot]
            results[r] = (group.centroids[slot].copy(), labels[slot].copy(), sse[slot],
                          histories[r], iterations)
            group.retire(slot)
            labels[slot] = labels[group.active]
            sse[slot] = sse[group.active]
        labels = labels[:group.active]
    return results


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
           _seedings: np.ndarray | None = None) -> ClusterModel:
    """Best-of-restarts Lloyd clustering of the period profiles.

    Restart r draws from its own stream derived as [seed, r], so adding
    restarts never perturbs earlier ones, and the same restart explores
    the same initial points at every k (which keeps the SSE-vs-k curve
    well behaved). Ties on SSE go to the earliest restart. Restarts run
    in lockstep, in groups of at most LOCKSTEP_ELEMENTS distances, and
    each ends as it would on its own. A fit made before on the same
    matrix with the same arguments is returned again, not refitted.

    ``_seedings`` (private to elbow_scan) holds every restart's seeding
    drawn at a larger k, as (restarts, k_top, dims); the fit takes the
    first k centroids of each, which are the ones the restart's own
    stream would draw.
    """
    if k < 1:
        raise InvalidK(f"k must be >= 1, got {k}")
    validate_settings(k, k, restarts, "")
    if profiles.n_distinct < k:
        raise TooFewPoints(f"{profiles.n_distinct} distinct profiles < k={k}")
    key = (k, seed, restarts, max_iter)
    if key not in profiles.fits:
        points = profiles.points
        if _seedings is None:
            initial = np.stack([_init_centroids(points, k, np.random.default_rng([seed, r]))
                                for r in range(restarts)])
        else:
            initial = _seedings[:, :k]
        group = max(1, min(restarts, LOCKSTEP_ELEMENTS // (k * points.shape[0])))
        best = None
        for lo in range(0, restarts, group):
            for result in _lloyd_group(points, initial[lo:lo + group], max_iter):
                if best is None or result[2] < best[2]:
                    best = result
        profiles.fits[key] = best
    centroids, labels, sse, history, iterations = profiles.fits[key]
    assignment = dict(zip(profiles.cell_ids, labels.tolist()))
    return ClusterModel(k=k, centroids=centroids.copy(), assignment=assignment,
                        iterations_run=iterations, sse=sse, sse_history=list(history))


def elbow_scan(profiles: ProfileMatrix, k_max: int, seed: int = 0,
               restarts: int = DEFAULT_RESTARTS) -> SseCurve:
    """Best-of-restarts SSE for every k in 1..k_max, with k_max capped at
    the number of distinct profiles (cells with equal profiles, such as
    dead all-zero cells, cannot be split). Each fit is kept with the
    matrix, so kmeans returns it again without refitting.

    Raises
    ------
    TooFewPoints
        Fewer than three distinct profiles, too few for an elbow.
    """
    if profiles.n_distinct < 3:
        raise TooFewPoints(f"an elbow scan needs at least 3 distinct profiles, "
                           f"got {profiles.n_distinct}")
    k_top = min(k_max, profiles.n_distinct)
    validate_settings(k_top, k_top, restarts, "")
    # Centroid j is drawn from the first j centroids and the restart's
    # stream alone, never from k, so the seeding for any k is the first k
    # rows of the seeding for k_top: draw each restart's seeding once.
    seedings = np.stack([_init_centroids(profiles.points, k_top, np.random.default_rng([seed, r]))
                         for r in range(restarts)])
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
    """Per-cluster mean of its member cells' binned series, which share
    one span (see ingest.common_span).

    The returned series carry the cluster index in the cell_id slot.
    """
    members: dict[int, list[int]] = {}
    for cid, cluster in model.assignment.items():
        members.setdefault(cluster, []).append(cid)

    for cid in model.assignment:
        if cid not in binned:
            raise MissingSeries(f"no binned series for cell {cid}")
    span_start, n_bins = common_span(binned)

    out = {}
    for cluster in sorted(members):
        cells = members[cluster]
        total = np.zeros(n_bins)
        for cid in cells:
            total += binned[cid].values
        out[cluster] = BinnedCellSeries(
            cell_id=cluster,
            span_start=span_start,
            values=total / len(cells),
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
