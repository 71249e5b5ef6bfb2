"""CDR log parsing and 30-minute binning.

Raw activity logs are tab-separated text, one record per line, in the
fixed 8-column layout of the Telecom Italia Milan files: square_id,
time, country, sms-in, sms-out, call-in, call-out, internet. The grid-cell
id, the epoch-millisecond timestamp and the internet activity are read
from columns 0, 1 and 7. Records are aggregated per cell into fixed
30-minute bins covering a declared span; empty bins are explicit zeros.

Each file is parsed in bulk by numpy's C text reader into a record
array, with its own float parser on the activity field. A file with an
empty activity field, which that parser refuses, is read with a small
converter on the field instead, so that one runs per line; a scan of
the file's bytes picks the reader before either runs. A file that the
reader refuses, or whose values break a rule, is walked line by line:
the walk names the first bad line, or its records are the table. Each
file's records are then ordered by one argsort of a packed key and
summed per bin by one reduceat. All series of a bins set share one
span (common_span).
"""

from __future__ import annotations

import csv
import math
import os
import re
import warnings
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Union

import numpy as np

from . import jsonfile
from .errors import (MalformedBins, MalformedFile, MalformedLine, NegativeActivity, SpanMismatch,
                     UnalignedSpan)

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
    try:
        value = float(field)
    except ValueError:
        if not field.strip():
            return math.nan
        raise MalformedLine(f"non-numeric activity field: {field!r:.100}") from None
    if value != value:
        raise MalformedLine(f"non-finite activity value: {field.strip()!r}")
    return value


def _load_table(path: str, skip: int, fast: bool = False) -> Optional[np.ndarray]:
    """The records of the CDR file at `path` as loadtxt reads them, as a
    CDR_DTYPE array without the rows whose activity is empty; None when a
    record breaks a value rule. Raises ValueError when loadtxt refuses
    the text.

    With `fast`, loadtxt's own float parser reads the activity column in
    place of the _activity converter. It gives float()'s bits, but it
    refuses an empty field, takes no underscores, reads a literal NaN
    (which then breaks a value rule) and skips the whitespace bytes
    0x1c-0x1f around a number, which float() refuses: see _fast_parse_fits.

    The file is read as ASCII, as the whole dataset is: loadtxt's integer
    parser takes some other letters for digits, and reads U+01FE followed
    by "1" as 4621. loadtxt skips empty lines.
    """
    with warnings.catch_warnings():
        # An empty file is normal here.
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        table = np.loadtxt(
            path, dtype=CDR_DTYPE, delimiter="\t", comments=None,
            usecols=(CELL_COLUMN, TIME_COLUMN, ACTIVITY_COLUMN),
            converters=None if fast else {ACTIVITY_COLUMN: _activity},
            skiprows=skip, ndmin=1, encoding="ascii")
    cell, activity = table["cell_id"], table["activity"]
    present = ~np.isnan(activity)
    # The value rules of _line_record over every record at once.
    if (((cell < 1) & present) | np.isinf(activity) | (activity < 0)).any():
        return None
    if present.all():
        return table
    return None if fast else table[present]


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
    _load_table reads a file with and then held to the value rules;
    raises the first rule the line breaks, without its location.

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
    """The lines of a file as UTF-8 text, without their line breaks, split
    at universal newlines (\\n, \\r\\n and \\r) as loadtxt splits them."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise MalformedLine(f"{path}:{line}: not UTF-8 text") from None
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


def _walk(path: str, skip: int) -> np.ndarray:
    """The records of one CDR file as _line_record reads its lines, past
    the first `skip`, as a CDR_DTYPE array in line order. Blank lines and
    records with an empty activity hold none. An error names the file and
    the 1-based line that breaks a rule."""
    lines = _lines(path)

    def records():
        for number in range(skip, len(lines)):
            if lines[number].strip():
                try:
                    record = _line_record(lines[number])
                except (MalformedLine, NegativeActivity) as exc:
                    raise type(exc)(f"{path}:{number + 1}: {exc}") from None
                if record[2] == record[2]:
                    yield record

    # fromiter fills the array as the records come, so that no list holds
    # a Python tuple for each.
    return np.fromiter(records(), dtype=CDR_DTYPE)


def _parse(path: str, skip: int, fast: bool) -> np.ndarray:
    """The records of one CDR file as a CDR_DTYPE array, in line order.
    An error names the file and the 1-based line that breaks a rule.

    With `fast`, loadtxt's float parser reads the file in place of the
    converter (see _fast_parse_fits for when it can). A file that loadtxt
    refuses, or reads a broken value rule in, is walked line by line."""
    try:
        table = _load_table(path, skip, fast)
    except ValueError:
        table = None
    return _walk(path, skip) if table is None else table


# Bytes that loadtxt's float parser skips around a number as whitespace
# and float() refuses.
_C_ONLY_SPACE = (b"\x1c", b"\x1d", b"\x1e", b"\x1f")

# A last field that is empty or whitespace-only, up to its line break.
_BLANK_LAST_FIELD = re.compile(rb"\t[ \v\f]*(?:[\r\n]|\Z)")


def _blank_last_field(chunk: bytes) -> bool:
    """Whether `chunk`, whole lines of a file, holds a line whose last
    field is empty or whitespace-only. The regex stops at every tab, so
    numpy first looks for a tab or a space before a line break, and the
    regex reads only a chunk that holds one."""
    if chunk[-1:] not in (b"\t", b" "):
        text = np.frombuffer(chunk, dtype=np.uint8)
        blank = (text[:-1] == 9) | (text[:-1] == 32)
        blank &= (text[1:] >= 10) & (text[1:] <= 13)
        if not blank.any():
            return False
    return _BLANK_LAST_FIELD.search(chunk) is not None


def _fast_parse_fits(fh, first_record: bytes) -> bool:
    """Whether loadtxt's float parser can read the rest of the open binary
    file `fh`, whose first record line is `first_record`: not when a
    line's last field, the activity of an 8-column line, is empty or
    whitespace-only, which the parser refuses, nor when the file holds a
    byte of _C_ONLY_SPACE. Such a file goes to the converter at once, so
    that it pays for no failed parse. The file is read in chunks of
    whole lines."""
    chunk = first_record
    while chunk:
        if any(byte in chunk for byte in _C_ONLY_SPACE) or _blank_last_field(chunk):
            return False
        chunk = fh.read(1 << 16)
        chunk += fh.readline()
    return True


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
        first = fh.readline()
        try:
            float(first.split(b"\t", 1)[0])
            skip = 0
        except ValueError:
            skip = 1
            first = fh.readline()
        fast = _fast_parse_fits(fh, first)
    return _parse(path, skip, fast)


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
    the in-span records of `table` touch, ordered by cell and bin, plus
    the out-of-span count.

    Each bin is summed over its values in ascending order, so the sums
    do not depend on the order of the records in `table`. The records
    are put in that order by one argsort of an int64 key that packs
    (cell, bin) above each value's rank among the values; equal values
    may take either order, since swapping them cannot change a sum's
    bits. A key that would not fit in 63 bits falls back to lexsort.
    """
    timestamp = table["timestamp"]
    inside = (timestamp >= span_start) & (timestamp < span_end)
    dropped = int(inside.size - np.count_nonzero(inside))
    if dropped:
        table = table[inside]
    cell, value = table["cell_id"], table["activity"]
    bins = (table["timestamp"] - span_start) // BIN_WIDTH_MS
    n_bins = (span_end - span_start) // BIN_WIDTH_MS
    if not cell.size:
        return cell, bins, value, dropped
    low = int(cell.min())
    rank_bits = (cell.size - 1).bit_length()
    if ((int(cell.max()) - low + 1) * n_bins - 1).bit_length() + rank_bits <= 63:
        rank = np.empty(cell.size, dtype=np.int64)
        rank[np.argsort(value)] = np.arange(cell.size)
        key = (cell - low) * n_bins + bins
        key <<= rank_bits
        key |= rank
        order = np.argsort(key)
        # Groups read back from the sorted key: gathering the cell and bin
        # columns instead raised frontend-city's peak RSS by 1.7 MB.
        group = key[order] >> rank_bits
        first = np.ones(cell.size, dtype=bool)
        np.not_equal(group[1:], group[:-1], out=first[1:])
        starts = np.flatnonzero(first)
        cells, bins = np.divmod(group[starts], n_bins)
        cells += low
    else:
        order = np.lexsort((value, bins, cell))
        cell, bins = cell[order], bins[order]
        first = np.ones(cell.size, dtype=bool)
        first[1:] = (cell[1:] != cell[:-1]) | (bins[1:] != bins[:-1])
        starts = np.flatnonzero(first)
        cells, bins = cell[starts], bins[starts]
    return cells, bins, np.add.reduceat(value[order], starts), dropped


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
        # cells is sorted, so its distinct ids start its runs; np.setdiff1d
        # and np.union1d would give the same ids, but load numpy.ma.
        first = np.ones(cells.size, dtype=bool)
        np.not_equal(cells[1:], cells[:-1], out=first[1:])
        seen = cells[first]
        where = np.searchsorted(ids, seen)
        known = where < ids.size
        known[known] = ids[where[known]] == seen[known]
        new = seen[~known]
        if new.size:
            grown_ids = np.sort(np.concatenate((ids, new)))
            grown = np.zeros((grown_ids.size, n_bins))
            grown[np.searchsorted(grown_ids, ids)] = totals
            ids, totals = grown_ids, grown
        totals[np.searchsorted(ids, cells), bins] += sums

    cells = {cid: BinnedCellSeries(cid, span_start, totals[row])
             for row, cid in enumerate(ids.tolist())}
    return BinningResult(cells=cells, dropped=dropped, span_start=span_start, span_end=span_end)


# --- persistence ----------------------------------------------------------

BINS_FORMAT = 2


def common_span(cells: dict[int, BinnedCellSeries]) -> tuple[int, int]:
    """The span start and the bin count that every series of `cells`
    shares, (0, 0) when there is none. A bins set has one span: a series
    that differs from the first raises SpanMismatch naming its cell."""
    span = None
    for cid, series in cells.items():
        if span is None:
            span, first = (series.span_start, series.n_bins), cid
        elif (series.span_start, series.n_bins) != span:
            raise SpanMismatch(f"cell {cid}: {series.n_bins} bins from {series.span_start}, "
                               f"expected {span[1]} bins from {span[0]} like cell {first}")
    return span or (0, 0)


def save_bins_json(cells: dict[int, BinnedCellSeries], path: str) -> None:
    """Write `{format, span_start, bin_width_minutes, cells: {id: blob}}`,
    each blob the base64 of the series' little-endian float64 bytes.
    Series that do not share one span raise SpanMismatch (see
    common_span), and nothing is written."""
    span_start, _ = common_span(cells)
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
