"""Day-period profiles, K-Means with Lloyd's algorithm, knee picking, ARI."""

import csv
import itertools
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cellcast import (
    BinnedCellSeries,
    ProfileMatrix,
    SseCurve,
    adjusted_rand_index,
    build_profiles,
    cluster_mean_series,
    clustering,
    elbow_scan,
    kmeans,
    knee_point,
)
from cellcast.clustering import load_cluster_json, save_cluster_json, save_sse_csv
from cellcast.errors import (
    CurveTooShort,
    DomainError,
    Empty,
    EmptySeries,
    InvalidK,
    LengthMismatch,
    MissingSeries,
    SpanMismatch,
    TooFewPoints,
    ValidationError,
)

SPAN_START = 1_383_260_400_000  # 2013-10-31 23:00 UTC == midnight at UTC+1
BIN = 1_800_000


def profiles_from(points):
    points = np.asarray(points, dtype=float)
    return ProfileMatrix(cell_ids=list(range(1, len(points) + 1)), points=points)


def period_profile(series, utc_offset_hours=clustering.DEFAULT_UTC_OFFSET_HOURS):
    """One series' profile row, as build_profiles computes it."""
    return SimpleNamespace(means=build_profiles({series.cell_id: series}, utc_offset_hours).points[0])


# --- brute-force oracle ----------------------------------------------------

def all_partitions(n, max_blocks):
    """Every set partition of range(n) into at most max_blocks blocks."""
    def rec(i, labels, used):
        if i == n:
            yield np.array(labels)
            return
        for b in range(min(used + 1, max_blocks)):
            labels.append(b)
            yield from rec(i + 1, labels, max(used, b + 1))
            labels.pop()
    yield from rec(0, [], 0)


def partition_sse(points, labels):
    sse = 0.0
    for b in np.unique(labels):
        members = points[labels == b]
        sse += float(((members - members.mean(axis=0)) ** 2).sum())
    return sse


@pytest.mark.parametrize("instance", range(5))
def test_kmeans_matches_exhaustive_optimum(instance):
    """With enough restarts Lloyd lands on the global SSE optimum."""
    rng = np.random.default_rng(instance)
    points = rng.normal(size=(8, 6))
    profiles = profiles_from(points)
    for k in (1, 2, 3):
        oracle = min(partition_sse(points, labels) for labels in all_partitions(8, k))
        model = kmeans(profiles, k, seed=instance, restarts=64)
        assert abs(model.sse - oracle) < 1e-9


def test_lloyd_sse_history_monotone():
    rng = np.random.default_rng(42)
    points = rng.normal(size=(30, 6))
    model = kmeans(profiles_from(points), 4, seed=0)
    assert len(model.sse_history) >= 1
    diffs = np.diff(model.sse_history)
    assert (diffs <= 1e-12).all()


# --- kmeans structural properties ------------------------------------------

def test_k_equals_one_closed_form():
    rng = np.random.default_rng(1)
    points = rng.normal(size=(12, 6))
    model = kmeans(profiles_from(points), 1, seed=0)
    mean = points.mean(axis=0)
    np.testing.assert_allclose(model.centroids[0], mean, atol=1e-12)
    assert abs(model.sse - ((points - mean) ** 2).sum()) < 1e-9


def test_separable_blobs_recovered_exactly():
    rng = np.random.default_rng(2)
    a = rng.normal(size=(10, 6)) * 0.1
    b = rng.normal(size=(10, 6)) * 0.1 + 100.0
    points = np.vstack([a, b])
    model = kmeans(profiles_from(points), 2, seed=0)
    labels = np.array([model.assignment[i + 1] for i in range(20)])
    assert len(set(labels[:10])) == 1 and len(set(labels[10:])) == 1
    assert labels[0] != labels[10]
    blob_means = {tuple(np.round(a.mean(axis=0), 9)), tuple(np.round(b.mean(axis=0), 9))}
    model_means = {tuple(np.round(c, 9)) for c in model.centroids}
    assert blob_means == model_means


def test_each_point_assigned_to_nearest_centroid():
    rng = np.random.default_rng(3)
    points = rng.normal(size=(25, 6))
    profiles = profiles_from(points)
    model = kmeans(profiles, 3, seed=0)
    for cell_id, means in zip(profiles.cell_ids, profiles.points):
        dists = np.linalg.norm(model.centroids - means, axis=1)
        own = dists[model.assignment[cell_id]]
        assert own <= dists.min() + 1e-12


def test_centroids_are_member_means():
    rng = np.random.default_rng(4)
    points = rng.normal(size=(25, 6))
    model = kmeans(profiles_from(points), 3, seed=0)
    labels = np.array([model.assignment[i + 1] for i in range(25)])
    for j in range(3):
        np.testing.assert_allclose(model.centroids[j], points[labels == j].mean(axis=0), atol=1e-12)


def test_reported_sse_consistent_with_assignment():
    rng = np.random.default_rng(5)
    points = rng.normal(size=(25, 6))
    model = kmeans(profiles_from(points), 3, seed=0)
    labels = np.array([model.assignment[i + 1] for i in range(25)])
    recomputed = ((points - model.centroids[labels]) ** 2).sum()
    assert abs(model.sse - recomputed) < 1e-9


def test_kmeans_deterministic_per_seed():
    rng = np.random.default_rng(6)
    points = rng.normal(size=(20, 6))
    m1 = kmeans(profiles_from(points), 3, seed=9)
    m2 = kmeans(profiles_from(points), 3, seed=9)
    np.testing.assert_array_equal(m1.centroids, m2.centroids)
    assert m1.assignment == m2.assignment and m1.sse == m2.sse


def test_kmeans_argument_validation():
    profiles = profiles_from(np.eye(6)[:3])
    with pytest.raises(InvalidK):
        kmeans(profiles, 0)
    with pytest.raises(TooFewPoints):
        kmeans(profiles, 4)
    with pytest.raises(TooFewPoints):
        kmeans(profiles_from(np.empty((0, 6))), 1)


# --- per-restart reference ---------------------------------------------------
#
# Lloyd's algorithm one restart at a time, as kmeans ran it before its
# restarts ran in lockstep. kmeans must return these results bit for bit.

def _assign(points, centroids):
    """Squared distances summed one dimension at a time, argmin labels and
    the 1-d sum of each point's distance to its centroid."""
    d2 = np.empty((centroids.shape[0], points.shape[0]))
    for d in range(points.shape[1]):
        diff = points[:, d] - centroids[:, d, None]
        if d == 0:
            d2[...] = diff * diff
        else:
            d2 += diff * diff
    labels = np.argmin(d2, axis=0)  # ties resolve to the lowest index
    return labels, float(d2[labels, np.arange(points.shape[0])].sum())


def _update(points, labels, k, centroids, repairs=None):
    dims = points.shape[1]
    new = centroids.copy()
    counts = np.bincount(labels, minlength=k)
    bins = (labels[:, None] * dims + np.arange(dims)).ravel()
    sums = np.bincount(bins, weights=np.ravel(points), minlength=k * dims).reshape(k, dims)
    filled = counts > 0
    new[filled] = sums[filled] / counts[filled, None]
    empty = np.flatnonzero(~filled)
    if repairs is not None:
        repairs.append(bool(empty.size))
    if empty.size:
        d_own = ((points - new[labels]) ** 2).sum(axis=1)
        order = np.argsort(-d_own, kind="stable")
        for slot, j in enumerate(empty):
            new[j] = points[order[slot % len(order)]]
    return new


def _lloyd(points, centroids, max_iter, repairs=None):
    k = centroids.shape[0]
    labels, sse = _assign(points, centroids)
    history = [sse]
    iterations = 0
    for _ in range(max_iter):
        iterations += 1
        centroids = _update(points, labels, k, centroids, repairs)
        new_labels, sse = _assign(points, centroids)
        history.append(sse)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
    return centroids, labels, sse, history, iterations


def reference_kmeans(points, k, seed=0, max_iter=300, restarts=10, repairs=None):
    """(centroids, labels, sse, sse_history, iterations) of the first best
    restart, each restart fitted on its own."""
    best = None
    for r in range(restarts):
        initial = clustering._init_centroids(points, k, np.random.default_rng([seed, r]))
        result = _lloyd(points, initial, max_iter, repairs)
        if best is None or result[2] < best[2]:
            best = result
    return best


def assert_reference_fit(model, points, k, **kwargs):
    centroids, labels, sse, history, iterations = reference_kmeans(points, k, **kwargs)
    assert model.centroids.tobytes() == centroids.tobytes()
    assert [model.assignment[c] for c in sorted(model.assignment)] == labels.tolist()
    assert model.sse == sse
    assert model.sse_history == history
    assert model.iterations_run == iterations


def _broadcast_assign(points, centroids):
    """Reference: the (n, k, dims) difference tensor summed over dims."""
    d2 = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    labels = np.argmin(d2, axis=1)
    return labels, float(d2[np.arange(points.shape[0]), labels].sum())


def _loop_update(points, labels, k, centroids):
    """Reference: one masked mean per cluster slot, same empty-slot repair."""
    new = centroids.copy()
    counts = np.bincount(labels, minlength=k)
    for j in range(k):
        if counts[j] > 0:
            new[j] = points[labels == j].mean(axis=0)
    empty = np.flatnonzero(counts == 0)
    if empty.size:
        d_own = ((points - new[labels]) ** 2).sum(axis=1)
        order = np.argsort(-d_own, kind="stable")
        for slot, j in enumerate(empty):
            new[j] = points[order[slot % len(order)]]
    return new


@pytest.mark.parametrize("trial", range(20))
def test_assign_and_update_match_reference_bits(trial):
    """The per-dimension assignment and bincount update add the same
    numbers in the same order as the reference formulas."""
    rng = np.random.default_rng(trial)
    n, k = int(rng.integers(1, 400)), int(rng.integers(1, 25))
    points = rng.lognormal(size=(n, 6)) * 10.0 ** rng.integers(-3, 4)
    centroids = rng.lognormal(size=(k, 6)) * 10.0 ** rng.integers(-3, 4)
    labels, sse = _assign(points, centroids)
    ref_labels, ref_sse = _broadcast_assign(points, centroids)
    np.testing.assert_array_equal(labels, ref_labels)
    assert sse == ref_sse
    # a labelling that leaves about half the slots empty
    sparse = rng.choice(rng.permutation(k)[:max(1, k // 2)], size=n)
    for lab in (labels, sparse):
        assert _update(points, lab, k, centroids).tobytes() == \
            _loop_update(points, lab, k, centroids).tobytes()


@st.composite
def fit_cases(draw):
    """Points on a coarse grid (duplicates and exact distance ties) or
    spread over many scales, with k up to their distinct count."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 40))
    if draw(st.booleans()):
        points = rng.integers(0, draw(st.integers(1, 3)) + 1, size=(n, 6)).astype(float)
    else:
        points = rng.lognormal(size=(n, 6)) * 10.0 ** int(rng.integers(-3, 4))
    k = draw(st.integers(1, np.unique(points, axis=0).shape[0]))
    return points, k, draw(st.integers(0, 50)), draw(st.integers(1, 12)), \
        draw(st.sampled_from([0, 1, 2, 3, 300]))


@settings(max_examples=80, deadline=None)
@given(fit_cases())
def test_lockstep_kmeans_matches_per_restart_reference(case):
    points, k, seed, restarts, max_iter = case
    model = kmeans(profiles_from(points), k, seed=seed, restarts=restarts, max_iter=max_iter)
    assert_reference_fit(model, points, k, seed=seed, restarts=restarts, max_iter=max_iter)


def test_lockstep_kmeans_repairs_empty_clusters_as_reference():
    points = np.array(_tiny_gap_points())
    repairs = []
    for seed in range(4):
        model = kmeans(profiles_from(points), 3, seed=seed, restarts=3)
        assert_reference_fit(model, points, 3, seed=seed, restarts=3, repairs=repairs)
    assert any(repairs)


@pytest.mark.parametrize("bound", [("LOCKSTEP_ELEMENTS", 3 * 4 * 50), ("DISTANCE_BLOCK", 50)],
                         ids=["restarts_in_groups", "one_row_per_pass"])
def test_lockstep_kmeans_keeps_its_bits_in_bounded_memory(monkeypatch, bound):
    """Restarts split over several lockstep groups, or distance rows
    computed one at a time, give the same fit."""
    rng = np.random.default_rng(14)
    points = rng.normal(size=(50, 6))
    monkeypatch.setattr(clustering, *bound)
    model = kmeans(profiles_from(points), 4, seed=3, restarts=7)
    assert_reference_fit(model, points, 4, seed=3, restarts=7)


def test_lockstep_kmeans_sse_sums_many_points_as_one_dim_sums():
    """Past numpy's 8,192-element reduction buffer, each restart's SSE is
    still the 1-d pairwise sum of its distances."""
    rng = np.random.default_rng(15)
    points = rng.lognormal(size=(9000, 6))
    model = kmeans(profiles_from(points), 5, seed=1, restarts=3, max_iter=4)
    assert_reference_fit(model, points, 5, seed=1, restarts=3, max_iter=4)


def test_a_stored_fit_answers_only_its_own_arguments():
    rng = np.random.default_rng(17)
    points = rng.normal(size=(40, 6))
    profiles = profiles_from(points)
    kmeans(profiles, 4, seed=1)
    for kwargs in ({"seed": 2}, {"seed": 1, "restarts": 3}, {"seed": 1, "max_iter": 1}):
        assert_reference_fit(kmeans(profiles, 4, **kwargs), points, 4, **kwargs)
    assert_reference_fit(kmeans(profiles, 5, seed=1), points, 5, seed=1)


def test_kmeans_returns_a_stored_fit_without_sharing_it(monkeypatch):
    """A second call with the same arguments on the same matrix is not
    refitted, and what it returns does not share state with the store."""
    rng = np.random.default_rng(16)
    profiles = profiles_from(rng.normal(size=(30, 6)))
    first = kmeans(profiles, 3, seed=2)
    first_bits = first.centroids.tobytes()
    first.centroids[:] = 0.0
    first.sse_history.append(-1.0)
    first.assignment[1] = 99
    monkeypatch.setattr(clustering, "_lloyd_group", None)  # any refit fails
    again = kmeans(profiles, 3, seed=2)
    assert again.centroids.tobytes() == first_bits
    assert -1.0 not in again.sse_history and again.assignment[1] != 99
    with pytest.raises(TypeError):
        kmeans(profiles, 3, seed=3)
    with pytest.raises(ValueError):
        profiles.points[0, 0] = 1.0


def test_duplicate_points_count_once_for_k_limit():
    """Five points but only three distinct locations caps k at 3."""
    pts = [[0.0] * 6, [0.0] * 6, [1.0] * 6, [1.0] * 6, [2.0] * 6]
    profiles = profiles_from(pts)
    model = kmeans(profiles, 3, seed=0)
    assert model.k == 3 and abs(model.sse) < 1e-12
    with pytest.raises(TooFewPoints):
        kmeans(profiles, 4)


# --- elbow scan and knee ----------------------------------------------------

@given(st.lists(st.lists(st.sampled_from([0.0, -0.0, 1.0, 2.0, np.nan, np.inf]),
                         min_size=3, max_size=3), min_size=1, max_size=12))
@settings(max_examples=200)
def test_distinct_rows_count_as_np_unique_counts_them(rows):
    """Rows equal in every column are one row (0.0 and -0.0 are equal),
    and a row that holds NaN equals none, as np.unique(axis=0) counts."""
    points = np.array(rows)
    assert clustering._distinct_rows(points) == np.unique(points, axis=0).shape[0]


@pytest.mark.parametrize("points", [
    [[1.7976931348623157e308] * 6, [0.0] * 6],  # a squared range overflows
    [[1e154] * 6, [0.0] * 6],  # six squared ranges overflow their sum
    [[1e308] * 6] * 2,  # a centroid's column sum overflows
    [[np.inf] * 6, [0.0] * 6],
])
def test_profiles_whose_kmeans_sums_overflow_are_refused(points):
    with pytest.raises(DomainError, match="overflow the float64 sums of k-means over 2 cells"):
        profiles_from(points)


def test_elbow_scan_covers_one_through_k_max():
    rng = np.random.default_rng(7)
    points = rng.normal(size=(15, 6))
    curve = elbow_scan(profiles_from(points), k_max=5, seed=0)
    assert [k for k, _ in curve.entries] == [1, 2, 3, 4, 5]
    sses = [s for _, s in curve.entries]
    assert all(s >= 0 for s in sses)


@pytest.mark.parametrize("fit", [lambda p: kmeans(p, 2, restarts=0),
                                 lambda p: elbow_scan(p, k_max=3, restarts=0)],
                         ids=["kmeans", "elbow_scan"])
def test_restarts_below_one_rejected(fit):
    with pytest.raises(ValidationError, match="restarts must be >= 1, got 0"):
        fit(profiles_from(np.eye(6)[:4]))


def test_elbow_scan_caps_k_max_at_distinct_profiles():
    """Dead all-zero cells share one profile: 6 cells, 3 distinct."""
    pts = [[0.0] * 6] * 4 + [[1.0] * 6, [5.0] * 6]
    curve = elbow_scan(profiles_from(pts), k_max=5, seed=0)
    assert [k for k, _ in curve.entries] == [1, 2, 3]
    assert curve.entries[-1][1] == 0.0


def test_elbow_scan_needs_three_distinct_profiles():
    pts = [[0.0] * 6] * 4 + [[1.0] * 6] * 2
    with pytest.raises(TooFewPoints, match="got 2"):
        elbow_scan(profiles_from(pts), k_max=5, seed=0)


def _tiny_gap_points():
    """Three distinct profiles, two of them so close that their squared
    distance underflows to 0: after two picks every squared distance to
    the picked centroids is 0, so the third centroid is a uniform draw at
    a picked location, and its cluster starts empty."""
    return [[0.0] * 6] * 3 + [[1e-170] + [0.0] * 5] * 2 + [[1.0] * 6] * 3


@pytest.mark.parametrize("case", ["blobs", "dead_cells", "empty_repair"])
def test_elbow_scan_fits_equal_independent_kmeans(monkeypatch, case):
    """Every fit of the scan, which takes its seedings as prefixes of one
    k_max seeding per restart, equals a kmeans call of its own on a fresh
    matrix, and the per-restart reference, bit for bit."""
    rng = np.random.default_rng(12)
    if case == "blobs":
        points = np.vstack([rng.normal(size=(10, 6)) + c for c in (0.0, 4.0, 9.0)])
        k_max, seed, restarts = 8, 5, 4
    elif case == "dead_cells":
        points = np.vstack([np.zeros((5, 6)), rng.lognormal(size=(9, 6)), np.zeros((3, 6))])
        k_max, seed, restarts = 12, 0, 3
    else:
        points = np.array(_tiny_gap_points())
        k_max, seed, restarts = 5, 2, 3
    profiles = profiles_from(points)

    fits = []
    real_kmeans = clustering.kmeans

    def recording_kmeans(*args, **kwargs):
        fits.append(real_kmeans(*args, **kwargs))
        return fits[-1]

    monkeypatch.setattr(clustering, "kmeans", recording_kmeans)
    curve = elbow_scan(profiles, k_max, seed=seed, restarts=restarts)

    n_distinct = np.unique(points, axis=0).shape[0]
    assert [m.k for m in fits] == list(range(1, min(k_max, n_distinct) + 1))
    assert curve.entries == [(m.k, m.sse) for m in fits]
    repairs = []
    for fit in fits:
        alone = real_kmeans(profiles_from(points), fit.k, seed=seed, restarts=restarts)
        assert fit.centroids.tobytes() == alone.centroids.tobytes()
        assert fit.assignment == alone.assignment
        assert fit.sse == alone.sse
        assert fit.sse_history == alone.sse_history
        assert fit.iterations_run == alone.iterations_run
        assert_reference_fit(fit, points, fit.k, seed=seed, restarts=restarts, repairs=repairs)
    if case == "empty_repair":
        assert any(repairs)


def test_elbow_scan_in_small_groups_matches_the_reference(monkeypatch):
    """With groups of two restarts every fit of the scan runs its
    restarts over several groups; the fits keep their bits."""
    rng = np.random.default_rng(18)
    points = np.vstack([rng.normal(size=(12, 6)) + c for c in (0.0, 5.0)])
    monkeypatch.setattr(clustering, "LOCKSTEP_ELEMENTS", 2 * 6 * len(points))
    profiles = profiles_from(points)
    curve = elbow_scan(profiles, 6, seed=4, restarts=5)
    for k, sse in curve.entries:
        model = kmeans(profiles, k, seed=4, restarts=5)
        assert model.sse == sse
        assert_reference_fit(model, points, k, seed=4, restarts=5)


def test_knee_on_reference_curve():
    curve = SseCurve([(1, 100.0), (2, 10.0), (3, 9.0), (4, 8.5)])
    assert knee_point(curve) == 2


def test_knee_straight_line_falls_back_to_first_interior():
    curve = SseCurve([(1, 40.0), (2, 30.0), (3, 20.0), (4, 10.0)])
    assert knee_point(curve) == 2


def test_knee_flat_curve_falls_back_to_first_interior():
    curve = SseCurve([(1, 5.0), (2, 5.0), (3, 5.0), (4, 5.0)])
    assert knee_point(curve) == 2


def test_knee_tie_takes_smaller_k():
    # symmetric curve: interior points sit at equal distance from the chord
    curve = SseCurve([(1, 2.0), (2, 1.0), (3, 1.0), (4, 0.0)])
    assert knee_point(curve) == 2


def test_knee_needs_three_points():
    with pytest.raises(CurveTooShort):
        knee_point(SseCurve([(1, 10.0), (2, 5.0)]))


def test_knee_recovers_archetype_count():
    """Three tight far-apart blobs put the knee at k = 3."""
    rng = np.random.default_rng(8)
    blobs = [rng.normal(size=(8, 6)) * 0.05 + center
             for center in (np.zeros(6), np.full(6, 10.0), np.full(6, 25.0))]
    profiles = profiles_from(np.vstack(blobs))
    curve = elbow_scan(profiles, k_max=8, seed=0)
    assert knee_point(curve) == 3


# --- day-period profiles -----------------------------------------------------

def test_profile_means_per_period():
    values = np.repeat([1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 8)
    series = BinnedCellSeries(cell_id=1, span_start=SPAN_START, values=values)
    prof = period_profile(series, utc_offset_hours=1.0)
    np.testing.assert_allclose(prof.means, [1, 2, 3, 4, 5, 6])


def test_profile_uses_local_clock():
    """The same UTC bins land in different periods under different offsets."""
    series = BinnedCellSeries(cell_id=1, span_start=SPAN_START, values=np.ones(1))
    assert np.argmax(np.bincount([0], minlength=6)) == 0  # sanity
    local = period_profile(series, utc_offset_hours=1.0)
    utc = period_profile(series, utc_offset_hours=0.0)
    assert local.means[0] == 1.0 and utc.means[0] == 0.0
    assert utc.means[5] == 1.0  # 23:00 UTC is the Night period


def test_bin_starting_at_period_boundary_counts_forward():
    """A bin starting exactly 04:00 local belongs to EarlyMorning."""
    start_0400_local = SPAN_START + 4 * 3_600_000
    series = BinnedCellSeries(cell_id=1, span_start=start_0400_local, values=np.array([7.0]))
    prof = period_profile(series, utc_offset_hours=1.0)
    np.testing.assert_allclose(prof.means, [0, 7, 0, 0, 0, 0])


def test_fractional_offset():
    start_0330_utc = SPAN_START + 4 * 3_600_000 + 1_800_000
    series = BinnedCellSeries(cell_id=1, span_start=start_0330_utc, values=np.array([7.0]))
    prof = period_profile(series, utc_offset_hours=0.5)
    assert prof.means[1] == 7.0  # 03:30 UTC + 30 min offset is 04:00 local


def test_empty_series_rejected():
    series = BinnedCellSeries(cell_id=1, span_start=SPAN_START, values=np.array([]))
    with pytest.raises(EmptySeries):
        period_profile(series)


@pytest.mark.parametrize("cell_2", [BinnedCellSeries(2, SPAN_START + 3 * BIN, np.ones(48)),
                                    BinnedCellSeries(2, SPAN_START, np.ones(5))],
                         ids=["later_start", "fewer_bins"])
def test_build_profiles_rejects_mixed_spans(cell_2):
    """A bins set has one span; a cell whose start or length differs is
    named."""
    cells = {1: BinnedCellSeries(1, SPAN_START, np.ones(48)), 2: cell_2,
             3: BinnedCellSeries(3, SPAN_START, np.ones(48))}
    with pytest.raises(SpanMismatch, match="^cell 2: .* like cell 1$"):
        build_profiles(cells, utc_offset_hours=1.0)


def test_build_profiles_bounds_its_temporaries():
    """A tenth of Milan (1,000 cells x 62 days) is summed block by block
    in bounded memory, and each row keeps the bits of its cell alone."""
    rng = np.random.default_rng(5)
    cells = {cid: BinnedCellSeries(cid, SPAN_START, rng.random(2976)) for cid in range(1, 1001)}
    tracemalloc.start()
    try:
        matrix = build_profiles(cells)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2**20
    for row, cid in enumerate(matrix.cell_ids):
        assert matrix.points[row].tobytes() == build_profiles({cid: cells[cid]}).points[0].tobytes()


def test_build_profiles_sorted_by_cell_id():
    cells = {
        5: BinnedCellSeries(5, SPAN_START, np.ones(48)),
        2: BinnedCellSeries(2, SPAN_START, np.ones(48)),
    }
    profs = build_profiles(cells)
    assert profs.cell_ids == [2, 5]


# --- cluster mean series ------------------------------------------------------

def model_with(assignment, k):
    from cellcast import ClusterModel
    return ClusterModel(k=k, centroids=np.zeros((k, 6)), assignment=assignment,
                        iterations_run=0, sse=0.0)


def test_cluster_mean_two_cells():
    binned = {
        1: BinnedCellSeries(1, SPAN_START, np.array([2.0, 4.0])),
        2: BinnedCellSeries(2, SPAN_START, np.array([4.0, 8.0])),
    }
    out = cluster_mean_series(model_with({1: 0, 2: 0}, 1), binned)
    np.testing.assert_allclose(out[0].values, [3.0, 6.0])


def test_cluster_mean_three_cells():
    binned = {
        1: BinnedCellSeries(1, SPAN_START, np.array([1.0, 1.0])),
        2: BinnedCellSeries(2, SPAN_START, np.array([2.0, 2.0])),
        3: BinnedCellSeries(3, SPAN_START, np.array([6.0, 3.0])),
    }
    out = cluster_mean_series(model_with({1: 0, 2: 0, 3: 0}, 1), binned)
    np.testing.assert_allclose(out[0].values, [3.0, 2.0])


def test_cluster_mean_conserves_mass():
    rng = np.random.default_rng(9)
    binned = {c: BinnedCellSeries(c, SPAN_START, rng.random(48)) for c in range(1, 10)}
    assignment = {c: c % 3 for c in binned}
    out = cluster_mean_series(model_with(assignment, 3), binned)
    counts = np.bincount([assignment[c] for c in binned], minlength=3)
    total = sum(s.values.sum() for s in binned.values())
    weighted = sum(out[j].values.sum() * counts[j] for j in range(3))
    assert abs(total - weighted) < 1e-9


def test_cluster_mean_missing_cell():
    binned = {1: BinnedCellSeries(1, SPAN_START, np.ones(4))}
    with pytest.raises(MissingSeries):
        cluster_mean_series(model_with({1: 0, 2: 0}, 1), binned)


def test_cluster_mean_span_mismatch():
    binned = {
        1: BinnedCellSeries(1, SPAN_START, np.ones(4)),
        2: BinnedCellSeries(2, SPAN_START + BIN, np.ones(4)),
    }
    with pytest.raises(SpanMismatch):
        cluster_mean_series(model_with({1: 0, 2: 0}, 1), binned)


# --- adjusted Rand index --------------------------------------------------------

def test_ari_perfect_and_permuted():
    a = [0, 0, 1, 1, 2, 2]
    assert adjusted_rand_index(a, a) == 1.0
    assert adjusted_rand_index(a, [5, 5, 3, 3, 9, 9]) == 1.0


def test_ari_single_cluster_both_sides():
    assert adjusted_rand_index([0, 0, 0], [1, 1, 1]) == 1.0


def test_ari_disagreement_lowers_score():
    a = [0, 0, 0, 1, 1, 1]
    b = [0, 0, 1, 1, 1, 1]
    assert adjusted_rand_index(a, b) < 1.0


def test_ari_validation():
    with pytest.raises(LengthMismatch):
        adjusted_rand_index([0, 1], [0])
    with pytest.raises(Empty):
        adjusted_rand_index([], [])


def _pair_counting_ari(a, b):
    """Reference: ARI from the four pair counts over all n(n-1)/2 pairs."""
    same_both = same_a = same_b = only_a = only_b = neither = 0
    for i, j in itertools.combinations(range(len(a)), 2):
        in_a, in_b = a[i] == a[j], b[i] == b[j]
        same_both += in_a and in_b
        only_a += in_a and not in_b
        only_b += in_b and not in_a
        neither += not in_a and not in_b
    denominator = ((neither + only_a) * (only_a + same_both)
                   + (neither + only_b) * (only_b + same_both))
    if denominator == 0:
        return 1.0
    return 2.0 * (neither * same_both - only_a * only_b) / denominator


def test_ari_matches_pair_counting_oracle():
    rng = np.random.default_rng(13)
    cases = [([0, 0, 0], [1, 1, 1]), ([0, 1, 2], [5, 6, 7]), ([0, 1], [0, 0])]
    for _ in range(40):
        n = int(rng.integers(2, 40))
        cases.append((rng.integers(0, int(rng.integers(1, 6)), size=n).tolist(),
                      rng.integers(0, int(rng.integers(1, 6)), size=n).tolist()))
    for a, b in cases:
        assert abs(adjusted_rand_index(a, b) - _pair_counting_ari(a, b)) < 1e-12


def test_ari_matches_sklearn():
    sklearn_metrics = pytest.importorskip("sklearn.metrics")
    rng = np.random.default_rng(10)
    for _ in range(25):
        n = int(rng.integers(5, 40))
        a = rng.integers(0, 4, size=n)
        b = rng.integers(0, 4, size=n)
        ours = adjusted_rand_index(a.tolist(), b.tolist())
        theirs = sklearn_metrics.adjusted_rand_score(a, b)
        assert abs(ours - theirs) < 1e-12


# --- persistence -----------------------------------------------------------------

def test_cluster_json_round_trip(tmp_path):
    rng = np.random.default_rng(11)
    points = rng.normal(size=(12, 6))
    model = kmeans(profiles_from(points), 3, seed=1)
    path = tmp_path / "clusters.json"
    save_cluster_json(model, str(path))
    loaded = load_cluster_json(str(path))
    assert loaded.k == model.k
    np.testing.assert_array_equal(loaded.centroids, model.centroids)
    assert loaded.assignment == model.assignment
    assert loaded.sse == model.sse
    text = path.read_text()
    assert text.endswith("\n") and '\n  "k"' in text  # indented document


def test_sse_csv_round_trip(tmp_path):
    curve = SseCurve([(1, 100.0), (2, 1 / 3), (3, 9.25)])
    path = tmp_path / "curve.csv"
    save_sse_csv(curve, str(path))
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    assert header == ["k", "sse"]
    assert [(int(k), float(sse)) for k, sse in rows] == curve.entries
