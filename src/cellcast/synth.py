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

from .clustering import HOURS_PER_PERIOD, N_PERIODS
from .errors import InvalidSpec, MalformedTruth
from .ingest import BIN_WIDTH_MS, MS_PER_DAY, MS_PER_HOUR, SPAN_STARTS

BINS_PER_DAY = MS_PER_DAY // BIN_WIDTH_MS  # 48
BINS_PER_PERIOD = HOURS_PER_PERIOD * MS_PER_HOUR // BIN_WIDTH_MS  # 8, one clustering period
MAX_PARTS = 4  # records per cell bin
CELLS_PER_BLOCK = 32  # cells formatted per write; bounds the text held in memory
STREAMS_PER_GROUP = 4 * CELLS_PER_BLOCK  # streams drawn in lockstep, whole blocks; bounds memory
WORDS_PER_STREAM = 256  # raw words first drawn per stream; one day takes about 204
# Lemire's bound rejects a half whose m mod 2**32 falls below this.
OFFSET_THRESHOLD = 2**32 % BIN_WIDTH_MS

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
    if spec.span_start not in SPAN_STARTS:
        raise InvalidSpec(f"span_start must be in {SPAN_STARTS.start}..{SPAN_STARTS.stop - 1}, "
                          f"got {spec.span_start}")
    seen = set()
    for arch in spec.archetypes:
        if arch.id in seen:
            raise InvalidSpec(f"archetype id {arch.id} appears more than once")
        seen.add(arch.id)
        if len(arch.period_weights) != N_PERIODS:
            raise InvalidSpec(f"archetype {arch.id}: need {N_PERIODS} period weights")
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
                row = lo % STREAMS_PER_GROUP
                if row == 0:
                    draws = stream_draws(spec.seed, day, cell_ids[lo:lo + STREAMS_PER_GROUP])
                hi = lo + CELLS_PER_BLOCK
                fh.write(_block_text(spec, day, cell_ids[lo:hi], day_values[lo:hi],
                                     *(d[row:row + CELLS_PER_BLOCK] for d in draws)))

    truth_path = os.path.join(out_dir, "truth.csv")
    with open(truth_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["cell_id", "archetype"])
        for cell_id in cell_ids:
            writer.writerow([cell_id, truth[cell_id]])

    return paths, truth


class _WordStreams:
    """The raw 64-bit words of a group of PCG64 streams, one row per
    stream, drawn in bulk and extended when a read runs past the end."""

    def __init__(self, seeds: list) -> None:
        self.gens = [np.random.PCG64(seed) for seed in seeds]
        self._set(self._draw(WORDS_PER_STREAM))

    def _draw(self, n_words: int) -> np.ndarray:
        words = np.empty((len(self.gens), n_words), dtype="<u8")
        for row, gen in zip(words, self.gens):
            row[:] = gen.random_raw(n_words)
        return words

    def _set(self, words: np.ndarray) -> None:
        self.words = words
        # Half 2i is the low half of word i and half 2i + 1 its high half.
        self.halves = words.view("<u4")
        self.row_start = np.arange(len(words))[:, None] * words.shape[1]

    def _reserve(self, n_words: int) -> None:
        short = n_words - self.words.shape[1]
        if short > 0:
            # At least 32 more words, so that a stream extends rarely.
            more = self._draw(max(short, WORDS_PER_STREAM // 8))
            self._set(np.concatenate([self.words, more], axis=1))

    def words_at(self, index: np.ndarray) -> np.ndarray:
        """Word index[g, j] of stream g."""
        self._reserve(int(index.max()) + 1)
        return self.words.take(self.row_start + index)

    def halves_at(self, index: np.ndarray) -> np.ndarray:
        """32-bit half index[g, j] of stream g."""
        self._reserve(int(index.max()) // 2 + 1)
        return self.halves.take(2 * self.row_start + index)


def stream_draws(seed: int, day: int, cell_ids: list[int]):
    """Part counts, weights and offsets of every bin of the (cell, day)
    streams of `cell_ids`, as (counts, weights, offsets) of shapes
    (cells, BINS_PER_DAY) and (cells, BINS_PER_DAY, MAX_PARTS).

    Stream (seed, cell, day) is what `np.random.default_rng([seed, cell,
    day, 1])` returns, bin by bin, for `n = integers(1, MAX_PARTS + 1)`,
    `random(n)` and `integers(0, BIN_WIDTH_MS, size=n)`. Those calls are
    replayed here on the stream's raw PCG64 words, for all streams in
    lockstep, by numpy's rules:

    - `integers` takes 32-bit halves, the low half of a fresh word first;
      the unused high half is kept for the next `integers` call, and
      `random` never touches it.
    - A half x bounded to [0, r) is m >> 32 with m = x * r, drawn again
      while m mod 2**32 < 2**32 mod r (Lemire's multiply-and-reject).
    - `random` takes a whole word w as (w >> 11) * 2**-53.

    Weights are in draw order and zero-padded past the part count;
    offsets are in ascending order and padded with BIN_WIDTH_MS.
    """
    streams = _WordStreams([[seed, cell_id, day, 1] for cell_id in cell_ids])
    n_streams = len(cell_ids)
    slots = np.arange(MAX_PARTS)
    counts = np.empty((n_streams, BINS_PER_DAY), dtype=np.int8)
    weights = np.zeros((n_streams, BINS_PER_DAY, MAX_PARTS))
    offsets = np.full((n_streams, BINS_PER_DAY, MAX_PARTS), BIN_WIDTH_MS, dtype=np.int32)
    # Index of each stream's next half; when it is odd, that half is the
    # kept high half of a word whose low half was already used.
    half = np.zeros((n_streams, 1), dtype=np.int64)
    for b in range(BINS_PER_DAY):
        # 2**32 % MAX_PARTS == 0, so the part count never redraws.
        n = 1 + (streams.halves_at(half) * np.uint64(MAX_PARTS) >> np.uint64(32)).astype(np.int64)
        half += 1
        kept = half & 1
        word = (half + 1) >> 1  # the next fresh word
        used = slots < n
        counts[:, b] = n[:, 0]
        w = streams.words_at(word + slots) >> np.uint64(11)
        weights[:, b] = np.where(used, w * 2.0**-53, 0.0)
        word += n

        # Offsets: the kept half, if any, then the halves of fresh words.
        # Each round takes MAX_PARTS more candidates, until every stream
        # has n accepted ones.
        width = MAX_PARTS
        while True:
            candidates = 2 * word - kept + np.arange(width)
            candidates[:, :1] = np.where(kept == 1, half, candidates[:, :1])
            m = streams.halves_at(candidates) * np.uint64(BIN_WIDTH_MS)
            accepted = (m & np.uint64(0xFFFF_FFFF)) >= np.uint64(OFFSET_THRESHOLD)
            rank = np.cumsum(accepted, axis=1)
            if (rank[:, -1:] >= n).all():
                break
            width += MAX_PARTS
        # The first n accepted candidates are the bin's offsets.
        drawn = np.where(accepted & (rank <= n), m >> np.uint64(32), BIN_WIDTH_MS)
        drawn.sort(axis=1)
        offsets[:, b] = drawn[:, :MAX_PARTS]
        used_up = (rank < n).sum(axis=1, keepdims=True) + 1
        half = 2 * word - kept + used_up
    return counts, weights, offsets


def _block_text(spec: SynthSpec, day: int, cell_ids: list[int], values: np.ndarray,
                counts: np.ndarray, weights: np.ndarray, offsets: np.ndarray) -> str:
    """CDR lines of one day for a block of cells, in file order.

    `values` holds the block's bin values for the day, one row per cell,
    and the other arrays the block's rows of `stream_draws`. A bin's
    activities are value * weight / sum in draw order; its timestamps are
    its offsets, ascending.
    """
    counts = counts.ravel()
    used = np.arange(MAX_PARTS) < counts[:, None]
    # A zero-padded row sums left to right, bit for bit as weights.sum()
    # does for up to four values (np.add.reduceat does not).
    w = weights.reshape(-1, MAX_PARTS)
    parts = values.reshape(-1, 1) * w / w.sum(axis=1, keepdims=True)
    day_start = spec.span_start + day * BINS_PER_DAY * BIN_WIDTH_MS
    bin_starts = day_start + np.arange(BINS_PER_DAY, dtype=np.int64) * BIN_WIDTH_MS
    stamps = np.tile(bin_starts, len(cell_ids))[:, None] + offsets.reshape(-1, MAX_PARTS)
    cells = np.repeat(np.repeat(cell_ids, BINS_PER_DAY), counts)

    n_records = len(cells)
    fields = [None] * (3 * n_records)
    fields[0::3] = cells.tolist()
    fields[1::3] = stamps[used].tolist()
    fields[2::3] = parts[used].tolist()
    line = f"%d\t%d\t{spec.country_code}\t\t\t\t\t%.17g\n"
    return (line * n_records) % tuple(fields)


def load_truth(path: str) -> dict[int, int]:
    """truth.csv as cell id -> archetype id. A file without a header line,
    or with a row that is not two integers or repeats a cell, raises
    MalformedTruth naming the file and the 1-based line."""
    truth = {}
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) is None:
            raise MalformedTruth(f"{path}: empty file, expected a header line")
        for row in reader:
            where = f"{path}:{reader.line_num}"
            try:
                cell, archetype = map(int, row)
            except ValueError:  # not two fields, or one is not an integer
                raise MalformedTruth(f"{where}: expected a cell id and an archetype id, "
                                     f"got {','.join(row)!r}") from None
            if cell in truth:
                raise MalformedTruth(f"{where}: cell {cell} listed twice")
            truth[cell] = archetype
    return truth


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
