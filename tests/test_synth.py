"""Synthetic CDR generation: round trips, determinism, spec validation."""

import hashlib
import os
import tempfile
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cellcast import Archetype, SynthSpec, bin_series, generate, iter_cdr_paths, well_separated_city
from cellcast import synth
from cellcast.errors import InvalidSpec
from cellcast.ingest import BIN_WIDTH_MS, MS_PER_DAY, SPAN_STARTS, read_cdr_paths
from cellcast.synth import (
    BINS_PER_DAY,
    DEFAULT_SPAN_START,
    MAX_CELLS,
    MAX_DAYS,
    MAX_PARTS,
    bin_values_for_cell,
    cell_layout,
    load_truth,
    stream_draws,
)


def roundtrip(spec, out_dir):
    paths, truth = generate(spec, str(out_dir))
    result = bin_series(read_cdr_paths(paths), spec.span_start, spec.span_end)
    return result, truth


def test_constant_archetype_round_trip(flat_spec, tmp_path):
    """A noiseless constant cell comes back as all 2.0 after ingest."""
    result, _ = roundtrip(flat_spec, tmp_path)
    series = result.cells[1]
    assert series.n_bins == 2 * BINS_PER_DAY
    np.testing.assert_allclose(series.values, 2.0, rtol=0, atol=1e-9)
    assert result.dropped == 0


def test_round_trip_matches_bin_oracle(small_city_spec, tmp_path):
    """Ingested bins equal the generator's own series to summing precision."""
    result, truth = roundtrip(small_city_spec, tmp_path)
    arch_by_id = {a.id: a for a in small_city_spec.archetypes}
    assert set(result.cells) == set(truth)
    for cid, arch_id in truth.items():
        expected = bin_values_for_cell(small_city_spec, arch_by_id[arch_id], cid)
        np.testing.assert_allclose(result.cells[cid].values, expected, rtol=0, atol=1e-9)


def test_generation_is_byte_deterministic(small_city_spec, tmp_path):
    paths_a, _ = generate(small_city_spec, str(tmp_path / "a"))
    paths_b, _ = generate(small_city_spec, str(tmp_path / "b"))
    assert len(paths_a) == small_city_spec.days
    for pa, pb in zip(paths_a, paths_b):
        assert open(pa, "rb").read() == open(pb, "rb").read()


def test_different_seed_changes_output(small_city_spec, tmp_path):
    import dataclasses

    other = dataclasses.replace(small_city_spec, seed=small_city_spec.seed + 1)
    paths_a, _ = generate(small_city_spec, str(tmp_path / "a"))
    paths_b, _ = generate(other, str(tmp_path / "b"))
    assert open(paths_a[0], "rb").read() != open(paths_b[0], "rb").read()


def test_weekend_factor_scales_weekend_days():
    """Day zero is a Friday by default, so days 1 and 2 are the weekend."""
    arch = Archetype(id=0, base_level=4.0, period_weights=(1.0,) * 6, weekend_factor=0.5)
    spec = SynthSpec(archetypes=[arch], days=7, seed=0)
    values = bin_values_for_cell(spec, arch, 1).reshape(7, BINS_PER_DAY)
    np.testing.assert_allclose(values[[0, 3, 4, 5, 6]], 4.0)
    np.testing.assert_allclose(values[[1, 2]], 2.0)


@pytest.mark.parametrize("span_start, weekend", [
    (DEFAULT_SPAN_START + 3 * MS_PER_DAY, [5, 6]),  # Monday 2013-11-04
    (DEFAULT_SPAN_START - BIN_WIDTH_MS, [2, 3]),  # Thursday 23:30 local
    # 0000-12-31, a Sunday, and 10000-01-01, a Saturday, at 01:00 local:
    # the ends of ingest.SPAN_STARTS.
    (SPAN_STARTS.start, [0, 6]),
    (SPAN_STARTS.stop - 1, [0, 1]),
], ids=["monday", "thursday", "first_start", "last_start"])
def test_weekend_follows_span_start(span_start, weekend):
    """Day 0 falls on the weekday of span_start's local date at UTC+1."""
    arch = Archetype(id=0, base_level=4.0, period_weights=(1.0,) * 6, weekend_factor=0.5)
    spec = SynthSpec(archetypes=[arch], days=7, seed=0, span_start=span_start)
    values = bin_values_for_cell(spec, arch, 1).reshape(7, BINS_PER_DAY)
    expected = np.where(np.isin(np.arange(7), weekend), 2.0, 4.0)
    np.testing.assert_allclose(values, np.repeat(expected[:, None], BINS_PER_DAY, axis=1))


def test_weekday_is_no_setting(flat_spec):
    with pytest.raises(TypeError, match="start_weekday"):
        SynthSpec(archetypes=flat_spec.archetypes, start_weekday=0)


def test_noiseless_weekdays_repeat_exactly():
    arch = Archetype(id=0, base_level=3.0, period_weights=(1, 2, 3, 4, 5, 6))
    spec = SynthSpec(archetypes=[arch], days=14, seed=5,
                     span_start=DEFAULT_SPAN_START + 3 * MS_PER_DAY)
    values = bin_values_for_cell(spec, arch, 1).reshape(14, BINS_PER_DAY)
    np.testing.assert_array_equal(values[7], values[0])
    np.testing.assert_array_equal(values[8], values[1])


def test_period_weights_shape_day():
    """Each weight paints an 8-bin block of the day."""
    arch = Archetype(id=0, base_level=2.0, period_weights=(1, 0, 3, 0, 0, 1))
    spec = SynthSpec(archetypes=[arch], days=1, seed=0)
    values = bin_values_for_cell(spec, arch, 1)
    expected = 2.0 * np.repeat([1, 0, 3, 0, 0, 1], 8)
    np.testing.assert_allclose(values, expected)


def test_noise_clamped_at_zero():
    arch = Archetype(id=0, base_level=0.01, period_weights=(1.0,) * 6, noise_sd=5.0)
    spec = SynthSpec(archetypes=[arch], days=4, seed=2)
    values = bin_values_for_cell(spec, arch, 1)
    assert values.min() == 0.0  # heavy noise must clip, not go negative
    assert values.max() > 0.0


def test_per_bin_record_split(flat_spec, tmp_path):
    """Each bin is split into 1-4 records whose activities sum to the bin."""
    paths, _ = generate(flat_spec, str(tmp_path))
    per_bin = {}
    for rec in iter_cdr_paths(paths):
        b = (rec.timestamp - flat_spec.span_start) // 1_800_000
        per_bin.setdefault(b, []).append(rec.internet_activity)
    counts = {len(v) for v in per_bin.values()}
    assert counts <= {1, 2, 3, 4} and len(counts) > 1
    for parts in per_bin.values():
        assert abs(sum(parts) - 2.0) < 1e-9


def test_truth_file_round_trip(small_city_spec, tmp_path):
    _, truth = generate(small_city_spec, str(tmp_path))
    assert truth == cell_layout(small_city_spec)
    assert load_truth(str(tmp_path / "truth.csv")) == truth


def test_cell_ids_start_at_one_in_archetype_order(small_city_spec):
    layout = cell_layout(small_city_spec)
    assert sorted(layout) == list(range(1, 7))
    assert [layout[c] for c in sorted(layout)] == [0, 0, 1, 1, 2, 2]


def test_well_separated_city_profiles_are_far_apart():
    spec = well_separated_city(n_archetypes=12, cells_per_archetype=1, days=1)
    assert len(spec.archetypes) == 12
    profiles = np.array([
        a.base_level * np.asarray(a.period_weights) for a in spec.archetypes
    ])
    dists = np.linalg.norm(profiles[:, None, :] - profiles[None, :, :], axis=2)
    off_diag = dists[~np.eye(12, dtype=bool)]
    assert off_diag.min() > 10 * 0.5  # far apart relative to the default noise


@pytest.mark.parametrize(
    "bad",
    [
        dict(archetypes=[]),
        dict(cells_per_archetype=0),
        dict(days=0),
        dict(days=MAX_DAYS + 1),
        dict(span_start=1),
        # Starts a bins file could not state (ingest.SPAN_STARTS).
        dict(span_start=SPAN_STARTS.start - BIN_WIDTH_MS),
        dict(span_start=2**42 * BIN_WIDTH_MS),
        dict(cells_per_archetype=MAX_CELLS + 1),
    ],
)
def test_invalid_spec_rejected(bad, flat_spec):
    import dataclasses

    spec = dataclasses.replace(flat_spec, **bad)
    with pytest.raises(InvalidSpec):
        generate(spec, "/tmp/unused")


@pytest.mark.parametrize(
    "arch",
    [
        Archetype(id=0, base_level=-1.0, period_weights=(1.0,) * 6),
        Archetype(id=0, base_level=1.0, period_weights=(1.0,) * 5),
        Archetype(id=0, base_level=1.0, period_weights=(0.0,) * 6),
        Archetype(id=0, base_level=1.0, period_weights=(1, 1, 1, 1, 1, -1)),
        Archetype(id=0, base_level=1.0, period_weights=(1.0,) * 6, noise_sd=-0.1),
        Archetype(id=0, base_level=1.0, period_weights=(1.0,) * 6, weekend_factor=0.0),
    ],
)
def test_invalid_archetype_rejected(arch):
    with pytest.raises(InvalidSpec):
        generate(SynthSpec(archetypes=[arch]), "/tmp/unused")


def test_duplicate_archetype_id_rejected():
    archs = [Archetype(id=3, base_level=1.0, period_weights=(1.0,) * 6),
             Archetype(id=3, base_level=9.0, period_weights=(2.0,) * 6)]
    with pytest.raises(InvalidSpec, match="archetype id 3"):
        generate(SynthSpec(archetypes=archs), "/tmp/unused")


# SHA-256 of every file generate writes, recorded with the per-record
# generator that preceded the block-wise one.
GOLDEN = {
    "well_separated": (
        lambda: well_separated_city(3, 4, days=3, seed=5),
        {"cdr-day-000.tsv": "dbfdb9f9d4781211f8962c8e68b591cc6db3668df573ccc24f1fce2af747695a",
         "cdr-day-001.tsv": "90d6f22bc0986f7d9355d25564edb40efb9a8c8d659e84f4bec78484d1842f16",
         "cdr-day-002.tsv": "ae664de0bf0c7d5ba579759b1dce6abd3e89033655d1f36bf288cb554a4172c8",
         "truth.csv": "ca4e45d05a5b70c74f1234043ab27e605b550708ac6ee82928ba7f3b1a7275ed"}),
    # Days 1 and 2 are a weekend, the first archetype's noise clamps many
    # bins to zero, and the span starts 37 bins late.
    "weekend_clamped": (
        lambda: SynthSpec(
            archetypes=[
                Archetype(id=7, base_level=1.0, period_weights=(1.0, 0.5, 2.0, 0.0, 3.0, 1.0),
                          weekend_factor=1.7, noise_sd=3.0),
                Archetype(id=2, base_level=10.0, period_weights=(0.2, 1.0, 1.0, 4.0, 0.0, 2.5),
                          weekend_factor=0.4, noise_sd=0.5)],
            cells_per_archetype=2, days=4, seed=11,
            span_start=DEFAULT_SPAN_START + 37 * BIN_WIDTH_MS, country_code=44),
        {"cdr-day-000.tsv": "f5dd618c4d9fd8c188cec0efdb613ed123454056f6e8f6e8a83e3535ce9d1205",
         "cdr-day-001.tsv": "b5d42f3767637c2af935c037c96c214995294d6f33b46175c28b19563eb7cb9d",
         "cdr-day-002.tsv": "4cc7706dc874cb38ed29217f9bce123641ceec787d026b2972ca3a68fd4af329",
         "cdr-day-003.tsv": "63201643a14cdeff25c8058c82ce9af6b63126f9ab99b98b408833bea1c114a6",
         "truth.csv": "3db4a275c0b241f34f556fe2931a9e457af00391f132657715cbc3e9fbb8b929"}),
    "one_cell_one_day": (
        lambda: SynthSpec(archetypes=[Archetype(id=3, base_level=3.0,
                                                period_weights=(1, 2, 3, 4, 5, 6), noise_sd=1.0)],
                          days=1, seed=9),
        {"cdr-day-000.tsv": "af208a48707341611e408b50f029143148160b1b133d98ce0b95b60d4e5e9fad",
         "truth.csv": "74ab741778555609dbfa7f045c0bb7840b2a347144d09bdfb874cdb7b409fff3"}),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_generated_files_match_golden_hashes(name, tmp_path):
    make_spec, expected = GOLDEN[name]
    generate(make_spec(), str(tmp_path))
    written = {f: hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()
               for f in os.listdir(tmp_path)}
    assert written == expected


def test_padded_row_sums_equal_weights_sum():
    """generate sums each bin's weights as one zero-padded row of a
    block; that must equal weights.sum() bit for bit for every part count."""
    rng = np.random.default_rng(0)
    draws = [rng.random(n) for n in rng.integers(1, MAX_PARTS + 1, size=4000)]
    assert {len(w) for w in draws} == set(range(1, MAX_PARTS + 1))
    padded = np.zeros((len(draws), MAX_PARTS))
    for row, w in zip(padded, draws):
        row[:len(w)] = w
    expected = np.array([w.sum() for w in draws])
    np.testing.assert_array_equal(padded.sum(axis=1).view(np.int64), expected.view(np.int64))


archetype_strategy = st.builds(
    lambda level, weights, weekend, noise: (level, tuple(weights), weekend, noise),
    st.floats(min_value=0.0, max_value=100.0),
    st.lists(st.floats(min_value=0.0, max_value=5.0), min_size=6, max_size=6).filter(
        lambda ws: any(w > 0 for w in ws)),
    st.floats(min_value=0.05, max_value=2.0),
    st.floats(min_value=0.0, max_value=10.0),
)


@given(
    archs=st.lists(archetype_strategy, min_size=1, max_size=3),
    cells=st.integers(min_value=1, max_value=2),
    days=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    # Up to a week late, so that day 0 falls on any weekday.
    start_bin=st.integers(min_value=0, max_value=7 * BINS_PER_DAY - 1),
    country_code=st.integers(min_value=1, max_value=999),
)
@settings(max_examples=40, deadline=None)
def test_small_spec_round_trip(archs, cells, days, seed, start_bin, country_code):
    """Any small spec: ingest gives back the oracle's bins, and each bin
    is 1-4 records with sorted timestamps inside the bin."""
    spec = SynthSpec(
        archetypes=[Archetype(id=i, base_level=level, period_weights=weights,
                              weekend_factor=weekend, noise_sd=noise)
                    for i, (level, weights, weekend, noise) in enumerate(archs)],
        cells_per_archetype=cells, days=days, seed=seed,
        span_start=DEFAULT_SPAN_START + start_bin * BIN_WIDTH_MS, country_code=country_code)
    with tempfile.TemporaryDirectory() as out_dir:
        paths, truth = generate(spec, out_dir)
        result = bin_series(read_cdr_paths(paths), spec.span_start, spec.span_end)
        tables = list(read_cdr_paths(paths))
        countries = {line.split("\t")[2] for p in paths for line in open(p, encoding="utf-8")}

    assert countries == {str(country_code)}
    assert result.dropped == 0 and set(result.cells) == set(truth)
    for cid, arch_id in truth.items():
        expected = bin_values_for_cell(spec, spec.archetypes[arch_id], cid)
        np.testing.assert_allclose(result.cells[cid].values, expected, rtol=1e-12, atol=1e-12)

    for day, table in enumerate(tables):
        day_start = spec.span_start + day * BINS_PER_DAY * BIN_WIDTH_MS
        assert list(np.unique(table["cell_id"])) == sorted(truth)
        assert np.all(np.diff(table["cell_id"]) >= 0)
        for cid in truth:
            stamps = table["timestamp"][table["cell_id"] == cid]
            assert np.all(np.diff(stamps) >= 0)
            bins = (stamps - day_start) // BIN_WIDTH_MS
            counts = np.bincount(bins, minlength=BINS_PER_DAY)
            assert len(counts) == BINS_PER_DAY
            assert counts.min() >= 1 and counts.max() <= MAX_PARTS


def reference_draws(seed, day, cell_ids):
    """stream_draws by one Generator per stream and three calls per bin."""
    shape = (len(cell_ids), BINS_PER_DAY, MAX_PARTS)
    counts = np.zeros(shape[:2], dtype=np.int64)
    weights = np.zeros(shape)
    offsets = np.full(shape, BIN_WIDTH_MS, dtype=np.int64)
    for row, cell_id in enumerate(cell_ids):
        rng = np.random.default_rng([seed, cell_id, day, 1])
        for b in range(BINS_PER_DAY):
            n = int(rng.integers(1, MAX_PARTS + 1))
            counts[row, b] = n
            weights[row, b, :n] = rng.random(n)
            offsets[row, b, :n] = np.sort(rng.integers(0, BIN_WIDTH_MS, size=n))
    return counts, weights, offsets


def assert_same_draws(bulk, reference):
    counts, weights, offsets = bulk
    np.testing.assert_array_equal(counts, reference[0])
    np.testing.assert_array_equal(weights.view(np.int64), reference[1].view(np.int64))
    np.testing.assert_array_equal(offsets, reference[2])


@given(seed=st.integers(min_value=0, max_value=2**64 - 1),
       day=st.integers(min_value=0, max_value=400),
       cell_ids=st.lists(st.integers(min_value=1, max_value=10**7), min_size=1, max_size=12),
       first_words=st.sampled_from([1, 7, 64, synth.WORDS_PER_STREAM]))
@settings(max_examples=40, deadline=None)
def test_stream_draws_replay_generator_calls(seed, day, cell_ids, first_words):
    """The bulk replay equals the per-bin Generator calls for any group,
    also when the words first drawn run out and are extended."""
    with mock.patch.object(synth, "WORDS_PER_STREAM", first_words):
        bulk = stream_draws(seed, day, cell_ids)
    assert_same_draws(bulk, reference_draws(seed, day, cell_ids))


def test_stream_draws_replay_lemire_redraws():
    """Cell 40 redraws an offset in bin 5, where four candidates are too
    few, and cell 377 redraws one within four candidates (seed 0, day 0).
    Without the rejection step their draws would differ."""
    cell_ids = [40, 377]
    reference = reference_draws(0, 0, cell_ids)
    assert_same_draws(stream_draws(0, 0, cell_ids), reference)
    for row, cell_id in enumerate(cell_ids):
        with mock.patch.object(synth, "OFFSET_THRESHOLD", 0):
            _, _, offsets = stream_draws(0, 0, [cell_id])
        assert not np.array_equal(offsets[0], reference[2][row])


def test_generate_memory_is_bounded(tmp_path):
    """The benchmark's frontend-city spec generates within the 3.0 MB
    peak that the per-bin generator needed."""
    spec = well_separated_city(12, 80, days=2, seed=1, noise_sd=5.0)
    tracemalloc.start()
    try:
        generate(spec, str(tmp_path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.0e6
