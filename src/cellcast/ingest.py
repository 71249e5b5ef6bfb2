"""CDR log parsing and 30-minute binning.

Raw activity logs are tab-separated text, one record per line, in the
fixed 8-column layout of the Telecom Italia Milan files: square_id,
time, country, sms-in, sms-out, call-in, call-out, internet. The grid-cell
id, the epoch-millisecond timestamp and the internet activity are read
from columns 0, 1 and 7. Records are aggregated per cell into fixed
30-minute bins covering a declared span; empty bins are explicit zeros.

Each file is parsed in bulk by numpy's C text reader into a record
array; only a small converter on the activity field runs per line.
"""

from __future__ import annotations

import csv
import io
import math
import os
import warnings
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Union

import numpy as np

from . import jsonfile
from .errors import MalformedBins, MalformedFile, MalformedLine, NegativeActivity, UnalignedSpan

BIN_WIDTH_MS = 30 * 60 * 1000  # the one bin width of every series
BIN_WIDTH_MINUTES = BIN_WIDTH_MS // 60_000  # as bins files state it
MS_PER_HOUR = 3_600_000

# Zero-based columns of the cell id, the timestamp and the internet
# activity in a CDR line.
CELL_COLUMN, TIME_COLUMN, ACTIVITY_COLUMN = 0, 1, 7

# One row per record, as read_cdr_file returns them.
CDR_DTYPE = np.dtype([("cell_id", np.int64), ("timestamp", np.int64), ("activity", np.float64)])


@dataclass(frozen=True)
class CdrRecord:
    cell_id: int
    timestamp: int
    internet_activity: float


@dataclass
class BinnedCellSeries:
    """Per-cell series of 30-minute activity sums over a fixed span."""

    cell_id: int
    span_start: int
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)

    @property
    def n_bins(self) -> int:
        return len(self.values)


@dataclass
class BinningResult:
    """Binned series per cell plus the count of out-of-span records."""

    cells: dict[int, BinnedCellSeries]
    dropped: int = 0
    span_start: int = 0
    span_end: int = 0


# --- parsing --------------------------------------------------------------

def _activity(field: str) -> float:
    """loadtxt converter for the activity column. An empty field (the
    dataset's mark of an inactive channel) becomes NaN; a literal NaN is
    rejected to keep that mark unambiguous, as is any other non-number.
    Infinities are rejected after parsing."""
    if not field.strip():
        return math.nan
    try:
        value = float(field)
    except ValueError:
        raise MalformedLine(f"non-numeric activity field: {field!r:.100}") from None
    if value != value:
        raise MalformedLine(f"non-finite activity value: {field.strip()!r}")
    return value


def _load_table(source, skip: int) -> Optional[np.ndarray]:
    """The records of `source` (a path or a list of lines) as loadtxt reads
    them, as a CDR_DTYPE array without the rows whose activity is empty;
    None when loadtxt refuses the text or a record breaks a value rule.

    A path is read as ASCII, as the whole dataset is: loadtxt's integer
    parser takes some other letters for digits, and reads U+01FE followed
    by "1" as 4621. loadtxt skips empty lines.
    """
    try:
        with warnings.catch_warnings():
            # An empty file is normal here.
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            table = np.loadtxt(
                source, dtype=CDR_DTYPE, delimiter="\t", comments=None,
                usecols=(CELL_COLUMN, TIME_COLUMN, ACTIVITY_COLUMN),
                converters={ACTIVITY_COLUMN: _activity},
                skiprows=skip, ndmin=1, encoding="ascii")
    except ValueError:
        return None
    cell, activity = table["cell_id"], table["activity"]
    present = ~np.isnan(activity)
    # The value rules of _line_record over every record at once.
    if (((cell < 1) & present) | np.isinf(activity) | (activity < 0)).any():
        return None
    return table if present.all() else table[present]


def _int64(field: str, name: str) -> int:
    """An integer field as loadtxt reads int64: an optional sign and ASCII
    digits with whitespace around, inside the int64 range. Leading zeros
    aside, at most 19 digits reach int(), which refuses very long text."""
    text = field.strip()
    digits = text[1:] if text[:1] in ("+", "-") else text
    if digits.isascii() and digits.isdigit() and len(digits.lstrip("0")) <= 19:
        if -2**63 <= int(text) < 2**63:
            return int(text)
    raise MalformedLine(f"non-numeric or non-integer {name}: {field!r:.100}")


def _line_record(line: str) -> tuple[int, int, float]:
    """The record of one non-blank CDR line, read by the rules that
    _load_table reads it with and then held to the value rules; raises
    the first rule the line breaks, without its location.

    A line may end in one line break (\\n, \\r\\n or \\r) and hold no other.
    Fields are read in turn (cell id, timestamp, activity), and one that
    is missing when its turn comes makes a short line. Unless the
    activity is empty (NaN), the cell id must be >= 1 and the activity
    finite and >= 0. A field is quoted cut at 100 characters, so that a
    garbage line cannot flood the message.
    """
    body = line.removesuffix("\n").removesuffix("\r")
    if "\n" in body or "\r" in body:
        raise MalformedLine("line holds a line break")
    fields = body.split("\t")
    try:
        cell_id = _int64(fields[CELL_COLUMN], "cell id")
        timestamp = _int64(fields[TIME_COLUMN], "timestamp")
        activity = _activity(fields[ACTIVITY_COLUMN])
    except IndexError:
        raise MalformedLine(f"expected at least {ACTIVITY_COLUMN + 1} columns, "
                            f"got {len(fields)}") from None
    if activity == activity:
        if cell_id < 1:
            raise MalformedLine(f"cell id must be >= 1, got {cell_id}")
        if math.isinf(activity):
            raise MalformedLine(f"non-finite activity value: {activity}")
        if activity < 0:
            raise NegativeActivity(f"activity {activity} < 0")
    return cell_id, timestamp, activity


def _lines(path: str) -> list[str]:
    """The lines of a file as UTF-8 text, split at universal newlines as
    loadtxt splits them."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise MalformedLine(f"{path}:{line}: not UTF-8 text") from None
    return io.StringIO(text, newline=None).readlines()


def _parse(path: str, skip: int) -> np.ndarray:
    """The records of one CDR file as a CDR_DTYPE array, in line order.
    An error names the file and the 1-based line that breaks a rule."""
    table = _load_table(path, skip)
    if table is not None:
        return table
    lines = _lines(path)
    for number in range(skip, len(lines)):
        if lines[number].strip():
            try:
                _line_record(lines[number])
            except (MalformedLine, NegativeActivity) as exc:
                raise type(exc)(f"{path}:{number + 1}: {exc}") from None
    # Every line keeps the rules, so loadtxt refused text that is not
    # ASCII, or whitespace-only lines, which are blank here but rows to
    # loadtxt. Read the checked lines, those emptied, which keeps every
    # line number.
    table = _load_table(["\n" if line.isspace() else line for line in lines], skip)
    if table is None:
        raise MalformedLine(f"{path}: loadtxt refuses lines that keep every line rule")
    return table


def read_cdr_file(path: str) -> np.ndarray:
    """The records of one log file as a CDR_DTYPE array, in line order.

    A first line whose first field is not a number is a header and is
    skipped. Blank lines and lines with an empty activity field (the
    dataset convention for an inactive channel) hold no record.

    Raises
    ------
    MalformedLine
        A line lacks a mandatory column, has a non-numeric or
        non-integer cell id or timestamp, a cell id below 1, or a
        non-numeric or non-finite activity, or is not UTF-8 text. The
        message names the file and the 1-based line.
    NegativeActivity
        An activity field parses below zero; the message names the line.
    """
    with open(path, "rb") as fh:
        first_field = fh.readline().split(b"\t", 1)[0]
    try:
        float(first_field)
        skip = 0
    except ValueError:
        skip = 1
    return _parse(path, skip)


def parse_cdr_line(line: str) -> Optional[CdrRecord]:
    """Parse one tab-separated CDR line by the rules files are read by.

    Returns None (skip) when the line is blank or its internet-activity
    field is empty, the dataset convention for an inactive channel.

    Raises
    ------
    MalformedLine
        A mandatory column is absent or non-numeric, or the line holds a
        line break before its end.
    NegativeActivity
        The activity field parses below zero.
    """
    if not line.strip():
        return None
    try:
        record = CdrRecord(*_line_record(line))
    except (MalformedLine, NegativeActivity) as exc:
        raise type(exc)(f"<line>: {exc}") from None
    return None if math.isnan(record.internet_activity) else record


CDR_EXTENSIONS = (".tsv", ".txt", ".dat")


def read_cdr_paths(paths: Iterable[str]) -> Iterator[np.ndarray]:
    """One record array per file, each read when the next is requested.

    Files are taken in the order given and directories in sorted name
    order. Directory listings keep only CDR-looking extensions (.tsv,
    .txt, .dat) so sidecar files such as truth.csv are not swept up;
    name any other file explicitly to read it.
    """
    for path in paths:
        if os.path.isdir(path):
            for name in sorted(os.listdir(path)):
                sub = os.path.join(path, name)
                if os.path.isfile(sub) and name.lower().endswith(CDR_EXTENSIONS):
                    yield read_cdr_file(sub)
        else:
            yield read_cdr_file(path)


def _records(table: np.ndarray) -> Iterator[CdrRecord]:
    for cell_id, timestamp, activity in table.tolist():
        yield CdrRecord(cell_id, timestamp, activity)


def iter_cdr_file(path: str) -> Iterator[CdrRecord]:
    """Yield the records of one log file (see read_cdr_file)."""
    yield from _records(read_cdr_file(path))


def iter_cdr_paths(paths: Iterable[str]) -> Iterator[CdrRecord]:
    """Yield records from files or directories, taken as read_cdr_paths
    takes them."""
    for table in read_cdr_paths(paths):
        yield from _records(table)


# --- binning --------------------------------------------------------------

def _record_arrays(records: Iterable[Union[CdrRecord, np.ndarray]]) -> Iterator[np.ndarray]:
    """Record arrays pass through; loose CdrRecords become one more array."""
    loose = []
    for item in records:
        if isinstance(item, CdrRecord):
            loose.append((item.cell_id, item.timestamp, item.internet_activity))
        else:
            yield item
    if loose:
        yield np.array(loose, dtype=CDR_DTYPE)


def _bin_sums(table: np.ndarray, span_start: int,
              span_end: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Cell ids, bin indices and activity sums of every (cell, bin) that
    the in-span records of `table` touch, plus the out-of-span count.

    Each bin is summed over its values in ascending order, so the sums
    do not depend on the order of the records in `table`.
    """
    timestamp = table["timestamp"]
    inside = (timestamp >= span_start) & (timestamp < span_end)
    dropped = int(inside.size - np.count_nonzero(inside))
    if dropped:
        table = table[inside]
    bins = (table["timestamp"] - span_start) // BIN_WIDTH_MS
    order = np.lexsort((table["activity"], bins, table["cell_id"]))
    cell, bins, value = table["cell_id"][order], bins[order], table["activity"][order]
    first = np.ones(cell.size, dtype=bool)
    first[1:] = (cell[1:] != cell[:-1]) | (bins[1:] != bins[:-1])
    starts = np.flatnonzero(first)
    return cell[starts], bins[starts], np.add.reduceat(value, starts), dropped


def bin_series(records: Iterable[Union[CdrRecord, np.ndarray]], span_start: int,
               span_end: int) -> BinningResult:
    """Aggregate records into per-cell 30-minute activity sums.

    `records` yields record arrays (read_cdr_paths gives one per file),
    CdrRecords, or both; the CdrRecords count as one more array. Bin b
    of a cell holds the sum of activity over its records with
    span_start + b*30min <= timestamp < span_start + (b+1)*30min.
    Records outside [span_start, span_end) are dropped and counted, not
    treated as errors.

    Within one array each bin is summed in ascending order of value, so
    its bits depend only on which records the array holds, never on
    their order. The per-array sums are then added to the cell series
    in array order, which cannot change a bin whose records lie in at
    most two arrays (per-day files keep every bin in one). Memory is one
    array plus cells x bins floats, twice those floats while an array
    brings cells not seen before.

    Raises
    ------
    UnalignedSpan
        Span boundaries are not 30-minute aligned or start >= end.
    """
    if span_start % BIN_WIDTH_MS or span_end % BIN_WIDTH_MS:
        raise UnalignedSpan("span boundaries must be whole multiples of 30 minutes")
    if span_start >= span_end:
        raise UnalignedSpan("span_start must precede span_end")
    n_bins = (span_end - span_start) // BIN_WIDTH_MS

    ids = np.empty(0, dtype=np.int64)  # sorted; row i of totals is cell ids[i]
    totals = np.zeros((0, n_bins))
    dropped = 0
    for table in _record_arrays(records):
        cells, bins, sums, out = _bin_sums(table, span_start, span_end)
        dropped += out
        new = np.setdiff1d(cells, ids)
        if new.size:
            grown_ids = np.union1d(ids, new)
            grown = np.zeros((grown_ids.size, n_bins))
            grown[np.searchsorted(grown_ids, ids)] = totals
            ids, totals = grown_ids, grown
        totals[np.searchsorted(ids, cells), bins] += sums

    cells = {cid: BinnedCellSeries(cid, span_start, totals[row])
             for row, cid in enumerate(ids.tolist())}
    return BinningResult(cells=cells, dropped=dropped, span_start=span_start, span_end=span_end)


# --- persistence ----------------------------------------------------------

BINS_FORMAT = 2


def save_bins_json(cells: dict[int, BinnedCellSeries], path: str) -> None:
    """Write `{format, span_start, bin_width_minutes, cells: {id: blob}}`,
    each blob the base64 of the series' little-endian float64 bytes."""
    span_start = next(iter(cells.values())).span_start if cells else 0
    doc = {
        "format": BINS_FORMAT,
        "span_start": span_start,
        "bin_width_minutes": BIN_WIDTH_MINUTES,
        "cells": {str(cid): jsonfile.to_blob(cells[cid].values) for cid in sorted(cells)},
    }
    jsonfile.save(path, doc)


def _bins_from_doc(doc: dict) -> dict[int, BinnedCellSeries]:
    version = doc.get("format", 1)
    if version not in (1, BINS_FORMAT):
        raise MalformedFile(f"format: {version!r}, expected 1 or {BINS_FORMAT}")
    span_start = jsonfile.integer(doc, "span_start")
    minutes = jsonfile.integer(doc, "bin_width_minutes")
    if minutes != BIN_WIDTH_MINUTES:
        raise MalformedFile(f"bin_width_minutes: {minutes}, expected {BIN_WIDTH_MINUTES}")
    raw_cells = jsonfile.mapping(doc, "cells")
    cells = {}
    n_bins = None
    for text, raw in raw_cells.items():
        name = f"cells.{text}"
        if version == 1:
            values = jsonfile.finite_array(raw, name, ndim=1)
        else:
            values = jsonfile.from_blob(raw, name)
            if not np.isfinite(values).all():
                raise MalformedFile(f"{name}: holds a non-finite value")
        if n_bins is None:
            n_bins = values.size
        elif values.size != n_bins:
            raise MalformedFile(f"{name}: {values.size} values, expected {n_bins} "
                                f"like the first cell")
        cid = jsonfile.int_key(text, "cells.")
        cells[cid] = BinnedCellSeries(cid, span_start, values)
    return cells


def load_bins_json(path: str) -> dict[int, BinnedCellSeries]:
    """Read a bins file of format 1 (each series a list of numbers) or 2
    (each series a base64 blob). One that does not hold equal-length
    series of finite numbers in 30-minute bins raises MalformedBins
    naming the file and the key."""
    return jsonfile.load(path, _bins_from_doc, MalformedBins)


def save_bins_csv(cells: dict[int, BinnedCellSeries], path: str) -> None:
    """Write rows `cell_id,bin_index,value` with 17-significant-digit floats."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["cell_id", "bin_index", "value"])
        for cid in sorted(cells):
            for b, v in enumerate(cells[cid].values):
                writer.writerow([cid, b, format(v, ".17g")])
