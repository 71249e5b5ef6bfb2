"""Seeded synthetic CDR generator.

Produces a small city of cells whose daily activity follows known
archetypes (day-period weights, optional weekend modulation, Gaussian
noise clamped at zero), emitted in the exact TSV format the ingest
module consumes, plus a ground-truth cell-to-archetype table for
validating the clustering stage.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass

import numpy as np

from .errors import InvalidSpec
from .ingest import BIN_WIDTH_MS

BINS_PER_DAY = 48
BINS_PER_PERIOD = 8
MAX_PARTS = 4  # records per cell bin
CELLS_PER_BLOCK = 32  # cells formatted per write; bounds the text held in memory

# 2013-11-01 00:00 in a UTC+1 local clock; day zero is a Friday.
DEFAULT_SPAN_START = 1_383_260_400_000
FRIDAY = 4


@dataclass(frozen=True)
class Archetype:
    """One behavior class: relative activity per day period."""

    id: int
    base_level: float
    period_weights: tuple[float, float, float, float, float, float]
    weekend_factor: float = 1.0
    noise_sd: float = 0.0


@dataclass
class SynthSpec:
    archetypes: list[Archetype]
    cells_per_archetype: int = 1
    days: int = 62
    seed: int = 0
    span_start: int = DEFAULT_SPAN_START
    start_weekday: int = FRIDAY  # Monday == 0
    country_code: int = 39

    @property
    def span_end(self) -> int:
        return self.span_start + self.days * BINS_PER_DAY * BIN_WIDTH_MS


def validate_spec(spec: SynthSpec) -> None:
    if not spec.archetypes:
        raise InvalidSpec("need at least one archetype")
    if spec.cells_per_archetype < 1:
        raise InvalidSpec("cells_per_archetype must be >= 1")
    if spec.days < 1:
        raise InvalidSpec("days must be >= 1")
    if not 0 <= spec.start_weekday <= 6:
        raise InvalidSpec("start_weekday must be in 0..6")
    if spec.span_start % BIN_WIDTH_MS:
        raise InvalidSpec("span_start must be 30-minute aligned")
    seen = set()
    for arch in spec.archetypes:
        if arch.id in seen:
            raise InvalidSpec(f"archetype id {arch.id} appears more than once")
        seen.add(arch.id)
        if len(arch.period_weights) != 6:
            raise InvalidSpec(f"archetype {arch.id}: need 6 period weights")
        if arch.base_level < 0 or arch.noise_sd < 0:
            raise InvalidSpec(f"archetype {arch.id}: negative base level or noise")
        if any(w < 0 for w in arch.period_weights):
            raise InvalidSpec(f"archetype {arch.id}: negative period weight")
        if not any(w > 0 for w in arch.period_weights):
            raise InvalidSpec(f"archetype {arch.id}: all period weights zero")
        if not 0 < arch.weekend_factor <= 2:
            raise InvalidSpec(f"archetype {arch.id}: weekend_factor outside (0, 2]")


def cell_layout(spec: SynthSpec) -> dict[int, int]:
    """Ground-truth map cell_id -> archetype id; ids run 1..n in archetype order."""
    truth = {}
    cid = 1
    for arch in spec.archetypes:
        for _ in range(spec.cells_per_archetype):
            truth[cid] = arch.id
            cid += 1
    return truth


def bin_values_for_cell(spec: SynthSpec, arch: Archetype, cell_id: int) -> np.ndarray:
    """Bin series for one cell, deterministic in (seed, cell_id).

    This is exactly the series generate() splits into CDR records, so it
    doubles as the oracle for the ingest round-trip.
    """
    values = np.empty(spec.days * BINS_PER_DAY)
    weights = np.asarray(arch.period_weights, dtype=np.float64)
    day_shape = arch.base_level * np.repeat(weights, BINS_PER_PERIOD)
    for day in range(spec.days):
        rng = np.random.default_rng([spec.seed, cell_id, day])
        weekday = (spec.start_weekday + day) % 7
        level = day_shape * arch.weekend_factor if weekday >= 5 else day_shape
        noise = rng.normal(0.0, arch.noise_sd, size=BINS_PER_DAY)
        values[day * BINS_PER_DAY:(day + 1) * BINS_PER_DAY] = np.maximum(0.0, level + noise)
    return values


def generate(spec: SynthSpec, out_dir: str) -> tuple[list[str], dict[int, int]]:
    """Write per-day CDR files plus truth.csv; return (paths, truth map).

    Each cell bin is emitted as 1-4 records whose activities sum to the
    bin value, with timestamps inside the bin, so ingest's summing and
    conservation behavior is exercised. Identical specs produce
    byte-identical files.
    """
    validate_spec(spec)
    os.makedirs(out_dir, exist_ok=True)
    truth = cell_layout(spec)
    arch_by_id = {a.id: a for a in spec.archetypes}
    cell_ids = sorted(truth)
    series = np.stack([bin_values_for_cell(spec, arch_by_id[truth[cid]], cid)
                       for cid in cell_ids])

    paths = []
    for day in range(spec.days):
        path = os.path.join(out_dir, f"cdr-day-{day:03d}.tsv")
        paths.append(path)
        day_values = series[:, day * BINS_PER_DAY:(day + 1) * BINS_PER_DAY]
        with open(path, "w", encoding="utf-8") as fh:
            for lo in range(0, len(cell_ids), CELLS_PER_BLOCK):
                hi = lo + CELLS_PER_BLOCK
                fh.write(_block_text(spec, day, cell_ids[lo:hi], day_values[lo:hi]))

    truth_path = os.path.join(out_dir, "truth.csv")
    with open(truth_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["cell_id", "archetype"])
        for cell_id in cell_ids:
            writer.writerow([cell_id, truth[cell_id]])

    return paths, truth


def _block_text(spec: SynthSpec, day: int, cell_ids: list[int], values: np.ndarray) -> str:
    """CDR lines of one day for a block of cells, in file order.

    `values` holds the block's bin values for the day, one row per cell.
    Each (cell, day) stream draws, bin by bin, a part count n in 1..4, n
    weights and n offsets inside the bin. A bin's activities are
    value * weight / sum in draw order; its timestamps are the offsets in
    ascending order.
    """
    counts, weights, offsets = [], [], []
    for cell_id in cell_ids:
        # Separate stream from the noise draws in bin_values_for_cell.
        rng = np.random.default_rng([spec.seed, cell_id, day, 1])
        integers, random = rng.integers, rng.random
        for _ in range(BINS_PER_DAY):
            n = int(integers(1, MAX_PARTS + 1))
            counts.append(n)
            weights.append(random(n))
            offsets.append(integers(0, BIN_WIDTH_MS, size=n))
    counts = np.array(counts)
    used = np.arange(MAX_PARTS) < counts[:, None]
    # A zero-padded row sums left to right, bit for bit as weights.sum()
    # does for up to four values (np.add.reduceat does not).
    w = np.zeros(used.shape)
    w[used] = np.concatenate(weights)
    parts = values.reshape(-1, 1) * w / w.sum(axis=1, keepdims=True)
    # Padding sorts after every offset, since offsets are below BIN_WIDTH_MS.
    off = np.full(used.shape, BIN_WIDTH_MS, dtype=np.int64)
    off[used] = np.concatenate(offsets)
    off.sort(axis=1)
    day_start = spec.span_start + day * BINS_PER_DAY * BIN_WIDTH_MS
    bin_starts = day_start + np.arange(BINS_PER_DAY, dtype=np.int64) * BIN_WIDTH_MS
    stamps = np.tile(bin_starts, len(cell_ids))[:, None] + off
    cells = np.repeat(np.repeat(cell_ids, BINS_PER_DAY), counts)

    n_records = len(cells)
    fields = [None] * (3 * n_records)
    fields[0::3] = cells.tolist()
    fields[1::3] = stamps[used].tolist()
    fields[2::3] = parts[used].tolist()
    line = f"%d\t%d\t{spec.country_code}\t\t\t\t\t%.17g\n"
    return (line * n_records) % tuple(fields)


def load_truth(path: str) -> dict[int, int]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        return {int(row[0]): int(row[1]) for row in reader}


def well_separated_city(n_archetypes: int = 12, cells_per_archetype: int = 50,
                        days: int = 62, seed: int = 0,
                        noise_sd: float = 0.5) -> SynthSpec:
    """A city whose archetype profiles are pairwise far apart relative to
    noise AND nearly equidistant from each other.

    Archetypes 0-5 are busy in one day period each, 6-11 quiet in one
    period each, all at a shared base level, which places the 12 profile
    vectors at the vertices of a cross-polytope around the flat profile.
    Squared pairwise distances then differ by at most a factor 2, so the
    SSE-vs-k curve descends close to linearly until the true archetype
    count and goes flat there, giving the sharpest possible elbow. A
    hierarchy of separations (say, base levels growing with the id)
    would instead bow the curve and smear the elbow leftward.
    """
    if not 1 <= n_archetypes <= 12:
        raise InvalidSpec("well_separated_city supports 1..12 archetypes")
    swing = 0.8
    archetypes = []
    for i in range(n_archetypes):
        weights = [1.0] * 6
        if i < 6:
            weights[i] += swing
        else:
            weights[i - 6] -= swing
        archetypes.append(Archetype(
            id=i,
            base_level=50.0,
            period_weights=tuple(weights),
            noise_sd=noise_sd,
        ))
    return SynthSpec(archetypes=archetypes, cells_per_archetype=cells_per_archetype,
                     days=days, seed=seed)
