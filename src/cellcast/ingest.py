"""CDR log parsing and 30-minute binning.

Raw activity logs are tab-separated text, one record per line, with the
grid-cell id, an epoch-millisecond timestamp and an internet-activity
magnitude in configurable columns (defaults match the common 8-column
telecom layout: square_id, time, country, sms-in, sms-out, call-in,
call-out, internet). Records are aggregated per cell into fixed
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

BIN_WIDTH_MS = 30 * 60 * 1000
BIN_WIDTH_MINUTES = 30
MS_PER_HOUR = 3_600_000

# One row per record, as read_cdr_file returns them.
CDR_DTYPE = np.dtype([("cell_id", np.int64), ("timestamp", np.int64), ("activity", np.float64)])


@dataclass(frozen=True)
class ColumnMap:
    """Zero-based indices of the mandatory columns in a CDR line."""

    cell_id: int = 0
    timestamp: int = 1
    internet: int = 7


DEFAULT_COLUMNS = ColumnMap()


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
    bin_width_ms: int = BIN_WIDTH_MS

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)

    @property
    def n_bins(self) -> int:
        return len(self.values)

    def bin_start(self, index: int) -> int:
        return self.span_start + index * self.bin_width_ms


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


def _load_table(source, columns: ColumnMap, skip: int) -> np.ndarray:
    """All data rows of `source` (a path or a list of lines) as a CDR_DTYPE
    array; rows with an empty activity field hold NaN there. loadtxt skips
    empty lines and raises ValueError on the first row it cannot read."""
    with warnings.catch_warnings():
        # An empty file is normal here.
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        return np.loadtxt(
            source, dtype=CDR_DTYPE, delimiter="\t", comments=None,
            usecols=(columns.cell_id, columns.timestamp, columns.internet),
            converters={columns.internet: _activity},
            skiprows=skip, ndmin=1, encoding="utf-8")


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


def _line_record(line: str, columns: ColumnMap) -> tuple[int, int, float]:
    """The record of one non-blank CDR line, read by the rules that
    _load_table reads it with and then held to the value rules; raises
    the first rule the line breaks, without its location.

    Fields are read in turn (cell id, timestamp, activity), and one that
    is missing when its turn comes makes a short line. Unless the
    activity is empty (NaN), the cell id must be >= 1 and the activity
    finite and >= 0. A field is quoted cut at 100 characters, so that a
    garbage line cannot flood the message.
    """
    fields = line.rstrip("\r\n").split("\t")
    try:
        cell_id = _int64(fields[columns.cell_id], "cell id")
        timestamp = _int64(fields[columns.timestamp], "timestamp")
        activity = _activity(fields[columns.internet])
    except IndexError:
        needed = max(columns.cell_id, columns.timestamp, columns.internet) + 1
        raise MalformedLine(f"expected at least {needed} columns, got {len(fields)}") from None
    if activity == activity:
        if cell_id < 1:
            raise MalformedLine(f"cell id must be >= 1, got {cell_id}")
        if math.isinf(activity):
            raise MalformedLine(f"non-finite activity value: {activity}")
        if activity < 0:
            raise NegativeActivity(f"activity {activity} < 0")
    return cell_id, timestamp, activity


def _lines(source) -> list[str]:
    """`source` as a list of lines; a path is read as loadtxt reads it,
    as UTF-8 with universal newlines."""
    if not isinstance(source, str):
        return list(source)
    with open(source, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise MalformedLine(f"{source}:{line}: not UTF-8 text") from None
    return io.StringIO(text, newline=None).readlines()


def _parse(source, name: str, skip: int, columns: ColumnMap) -> np.ndarray:
    """The records of one CDR text as a CDR_DTYPE array, in line order.
    An error names `name` and the 1-based line that breaks a rule."""
    try:
        table = _load_table(source, columns, skip)
    except ValueError as exc:
        failure = str(exc)
    else:
        cell, activity = table["cell_id"], table["activity"]
        present = ~np.isnan(activity)
        # The value rules of _line_record over every record at once.
        if not (((cell < 1) & present) | np.isinf(activity) | (activity < 0)).any():
            return table if present.all() else table[present]
        failure = "a record breaks a value rule"
    lines = _lines(source)
    for number in range(skip, len(lines)):
        if lines[number].strip():
            try:
                _line_record(lines[number], columns)
            except (MalformedLine, NegativeActivity) as exc:
                raise type(exc)(f"{name}:{number + 1}: {exc}") from None
    if any(line.isspace() and line != "\n" for line in lines):
        # Whitespace-only lines are blank here but rows to loadtxt: read
        # again with them emptied, which keeps every line number.
        return _parse(["\n" if line.isspace() else line for line in lines], name, skip, columns)
    raise MalformedLine(f"{name}: {failure}")


def read_cdr_file(path: str, columns: ColumnMap = DEFAULT_COLUMNS) -> np.ndarray:
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
    return _parse(path, path, skip, columns)


def parse_cdr_line(line: str, columns: ColumnMap = DEFAULT_COLUMNS) -> Optional[CdrRecord]:
    """Parse one tab-separated CDR line with the same reader as files.

    Returns None (skip) when the line is blank or its internet-activity
    field is empty, the dataset convention for an inactive channel.

    Raises
    ------
    MalformedLine
        A mandatory column is absent or non-numeric.
    NegativeActivity
        The activity field parses below zero.
    """
    table = _parse([line], "<line>", 0, columns)
    if not table.size:
        return None
    return CdrRecord(*table[0].tolist())


CDR_EXTENSIONS = (".tsv", ".txt", ".dat")


def read_cdr_paths(paths: Iterable[str], columns: ColumnMap = DEFAULT_COLUMNS) -> Iterator[np.ndarray]:
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
                    yield read_cdr_file(sub, columns)
        else:
            yield read_cdr_file(path, columns)


def _records(table: np.ndarray) -> Iterator[CdrRecord]:
    for cell_id, timestamp, activity in table.tolist():
        yield CdrRecord(cell_id, timestamp, activity)


def iter_cdr_file(path: str, columns: ColumnMap = DEFAULT_COLUMNS) -> Iterator[CdrRecord]:
    """Yield the records of one log file (see read_cdr_file)."""
    yield from _records(read_cdr_file(path, columns))


def iter_cdr_paths(paths: Iterable[str], columns: ColumnMap = DEFAULT_COLUMNS) -> Iterator[CdrRecord]:
    """Yield records from files or directories, taken as read_cdr_paths
    takes them."""
    for table in read_cdr_paths(paths, columns):
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


def merge_binned(a: dict[int, BinnedCellSeries], b: dict[int, BinnedCellSeries]) -> dict[int, BinnedCellSeries]:
    """Merge two partial bin maps by element-wise addition (associative)."""
    merged = {cid: BinnedCellSeries(cid, s.span_start, s.values.copy(), s.bin_width_ms) for cid, s in a.items()}
    for cid, series in b.items():
        if cid in merged:
            base = merged[cid]
            if base.span_start != series.span_start or base.n_bins != series.n_bins:
                raise UnalignedSpan("cannot merge bin maps over different spans")
            base.values = base.values + series.values
        else:
            merged[cid] = BinnedCellSeries(cid, series.span_start, series.values.copy(), series.bin_width_ms)
    return merged


# --- persistence ----------------------------------------------------------

def save_bins_json(cells: dict[int, BinnedCellSeries], path: str) -> None:
    """Write `{span_start, bin_width_minutes, cells: {id: [values]}}`."""
    if not cells:
        doc = {"span_start": 0, "bin_width_minutes": BIN_WIDTH_MINUTES, "cells": {}}
    else:
        any_series = next(iter(cells.values()))
        doc = {
            "span_start": any_series.span_start,
            "bin_width_minutes": any_series.bin_width_ms // 60000,
            "cells": {str(cid): cells[cid].values.tolist() for cid in sorted(cells)},
        }
    jsonfile.save(path, doc)


def _bins_from_doc(doc: dict) -> dict[int, BinnedCellSeries]:
    span_start = jsonfile.integer(doc, "span_start")
    width = jsonfile.positive_int(doc, "bin_width_minutes") * 60000
    raw_cells = jsonfile.mapping(doc, "cells")
    cells = {}
    n_bins = None
    for text, vals in raw_cells.items():
        values = jsonfile.finite_array(vals, f"cells.{text}", ndim=1)
        if n_bins is None:
            n_bins = values.size
        elif values.size != n_bins:
            raise MalformedFile(f"cells.{text}: {values.size} values, expected {n_bins} "
                                f"like the first cell")
        cid = jsonfile.int_key(text, "cells.")
        cells[cid] = BinnedCellSeries(cid, span_start, values, width)
    return cells


def load_bins_json(path: str) -> dict[int, BinnedCellSeries]:
    """Read a bins file. One that does not hold equal-length series of
    finite numbers raises MalformedBins naming the file and the key."""
    return jsonfile.load(path, _bins_from_doc, MalformedBins)


def save_bins_csv(cells: dict[int, BinnedCellSeries], path: str) -> None:
    """Write rows `cell_id,bin_index,value` with 17-significant-digit floats."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["cell_id", "bin_index", "value"])
        for cid in sorted(cells):
            for b, v in enumerate(cells[cid].values):
                writer.writerow([cid, b, format(v, ".17g")])
