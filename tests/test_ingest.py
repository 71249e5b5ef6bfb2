"""Parsing and 30-minute binning of raw activity logs."""

import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cellcast import (
    bin_series,
    iter_cdr_paths,
    load_bins_json,
    read_cdr_file,
    read_cdr_paths,
    save_bins_csv,
    save_bins_json,
)
from cellcast import ingest
from cellcast.errors import (MalformedBins, MalformedLine, NegativeActivity, SpanMismatch,
                             UnalignedSpan)

SPAN_START = 1_383_260_400_000
BIN = 30 * 60 * 1000

CANONICAL = "42\t1383260400000\t39\t\t\t\t\t5.25"
RECORD = (42, 1383260400000, 5.25)  # CANONICAL's (cell id, timestamp, activity)


def records_of(tmp_path, text):
    """The records read_cdr_file reads from a file holding `text`, as
    (cell id, timestamp, activity) tuples."""
    path = tmp_path / "cdr.tsv"
    path.write_bytes(text.encode())
    return read_cdr_file(str(path)).tolist()


def line_error(tmp_path, bad, error):
    """What read_cdr_file says of a file whose line 2, after CANONICAL,
    is `bad`: it raises exactly `error`, naming the file and line 2."""
    path = tmp_path / "cdr.tsv"
    path.write_bytes((CANONICAL + "\n" + bad + "\n").encode())
    with pytest.raises(error) as exc:
        read_cdr_file(str(path))
    assert type(exc.value) is error
    assert str(exc.value).startswith(f"{path}:2: ")
    return str(exc.value).removeprefix(f"{path}:2: ")


def cdr_table(*records):
    """A CDR_DTYPE record array of (cell id, timestamp, activity) tuples."""
    return np.array(list(records), dtype=ingest.CDR_DTYPE)


class TestParseLine:
    """Each rule of one line, on a small file read by read_cdr_file."""

    def test_canonical_line(self, tmp_path):
        assert records_of(tmp_path, CANONICAL) == [RECORD]

    def test_trailing_newline_ignored(self, tmp_path):
        assert records_of(tmp_path, CANONICAL + "\r\n") == [RECORD]

    def test_blank_line_skipped(self, tmp_path):
        assert records_of(tmp_path, CANONICAL + "\n\n   \n" + CANONICAL) == [RECORD] * 2

    def test_empty_activity_field_skipped(self, tmp_path):
        """An empty internet column means no activity on that channel."""
        text = CANONICAL + "\n42\t1383260400000\t39\t1.0\t\t\t\t\n"
        assert records_of(tmp_path, text) == [RECORD]

    def test_too_few_columns(self, tmp_path):
        assert line_error(tmp_path, "42\t1383260400000\t39", MalformedLine) == \
            "expected at least 8 columns, got 3"

    def test_non_numeric_id(self, tmp_path):
        assert line_error(tmp_path, "abc\t1383260400000\t39\t\t\t\t\t5.25", MalformedLine) == \
            "non-numeric or non-integer cell id: 'abc'"

    def test_non_numeric_activity(self, tmp_path):
        assert line_error(tmp_path, "42\t1383260400000\t39\t\t\t\t\tx", MalformedLine) == \
            "non-numeric activity field: 'x'"

    def test_non_finite_activity(self, tmp_path):
        assert line_error(tmp_path, "42\t1383260400000\t39\t\t\t\t\tnan", MalformedLine) == \
            "non-finite activity value: 'nan'"
        assert line_error(tmp_path, "42\t1383260400000\t39\t\t\t\t\tinf", MalformedLine) == \
            "non-finite activity value: inf"

    def test_negative_activity(self, tmp_path):
        assert line_error(tmp_path, "42\t1383260400000\t39\t\t\t\t\t-0.5", NegativeActivity) == \
            "activity -0.5 < 0"

    def test_cell_id_below_one(self, tmp_path):
        assert line_error(tmp_path, "0\t1383260400000\t39\t\t\t\t\t5.25", MalformedLine) == \
            "cell id must be >= 1, got 0"

    @pytest.mark.parametrize("line", ["42\r\t1383260400000\t39\t\t\t\t\t5.25",
                                      CANONICAL + "\n\n", CANONICAL + "\n\r"])
    def test_line_break_inside_line(self, tmp_path, line):
        """Every line break ends a line, a lone \\r too: one inside a
        record leaves a short line, one after it a blank line."""
        if line.startswith(CANONICAL):
            assert records_of(tmp_path, line) == [RECORD]
        else:
            assert line_error(tmp_path, line, MalformedLine) == \
                "expected at least 8 columns, got 1"


class TestFileIteration:
    def test_header_line_skipped(self, tmp_path):
        text = "square_id\ttime\tcountry\ta\tb\tc\td\tinternet\n" + CANONICAL + "\n"
        assert records_of(tmp_path, text) == [RECORD]

    @pytest.mark.parametrize("lead,blank_lines", [
        ("", 0), ("\n", 1), ("  \t\n", 1), ("\n \n", 2), ("\r\n\t\r\n", 2), ("\r\x0c\r", 2),
    ], ids=["none", "empty", "whitespace", "two", "two_crlf", "two_cr"])
    def test_header_after_leading_blank_lines(self, tmp_path, lead, blank_lines):
        """The first line that is not blank is the one tested for a
        header; an error still names the file's own line."""
        body = HEADER + "\n" + CANONICAL + "\n"
        assert records_of(tmp_path, lead + body) == records_of(tmp_path, body) == [RECORD]
        path = tmp_path / "cdr.tsv"
        path.write_bytes((lead + body + "x\n").encode())
        with pytest.raises(MalformedLine) as exc:
            read_cdr_file(str(path))
        assert str(exc.value) == \
            f"{path}:{blank_lines + 3}: non-numeric or non-integer cell id: 'x'"

    def test_headerless_file_fully_read(self, tmp_path):
        assert records_of(tmp_path, CANONICAL + "\n" + CANONICAL + "\n") == [RECORD] * 2

    def test_directory_reads_sorted_and_filters_sidecars(self, tmp_path):
        """Directory listings only take CDR-looking extensions, in name order."""
        (tmp_path / "b.tsv").write_text("2\t1383260400000\t39\t\t\t\t\t1\n")
        (tmp_path / "a.tsv").write_text("1\t1383260400000\t39\t\t\t\t\t1\n")
        (tmp_path / "truth.csv").write_text("cell_id,archetype\n1,0\n")
        ids = [r.cell_id for r in iter_cdr_paths([str(tmp_path)])]
        assert ids == [1, 2]

    def test_explicit_file_always_read(self, tmp_path):
        path = tmp_path / "oddname.log"
        path.write_text(CANONICAL + "\n")
        assert len(list(iter_cdr_paths([str(path)]))) == 1


class TestFileLayouts:
    """Text layouts a bulk column reader could treat differently from a
    line-by-line one."""

    @pytest.mark.parametrize("text,count", [
        (CANONICAL + "\r\n" + CANONICAL + "\r\n", 2),
        (" 42 \t 1383260400000 \t39\t\t\t\t\t 5.25 \n", 1),
        (CANONICAL + "\textra\t7\n", 1),
        (CANONICAL + "\n\n" + CANONICAL + "\n", 2),
        (CANONICAL + "\n   \n\t\t\n" + CANONICAL, 2),
        ("square_id\ttime\tcountry\ta\tb\tc\td\tinternet\n", 0),
        ("", 0),
        ("42\t1383260400000\t\u01fe\t\t\t\t\t5.25\n", 1),
    ], ids=["crlf", "spaces_around_fields", "extra_columns", "blank_line_mid_file",
            "whitespace_only_lines", "header_only", "no_lines", "non_ascii_unread_column"])
    def test_layout_reads_as_line_parser(self, tmp_path, text, count):
        assert records_of(tmp_path, text) == [RECORD] * count


class TestErrorLocations:
    """Every ingest error names the file and the 1-based line."""

    @pytest.mark.parametrize("bad,error,detail", [
        ("42\t1383260400000\t39", MalformedLine, "expected at least 8 columns, got 3"),
        ("42\t13832604x0000\t39\t\t\t\t\t5.25", MalformedLine, "timestamp: '13832604x0000'"),
        ("42\t1383260400000\t39\t\t\t\t\t-0.5", NegativeActivity, "activity -0.5 < 0"),
        ("0\t1383260400000\t39\t\t\t\t\t5.25", MalformedLine, "cell id must be >= 1"),
        ("42\t1383260400000\t39\t\t\t\t\tnan", MalformedLine, "non-finite activity value"),
        ("42\t1383260400000\t39\t\t\t\t\tinf", MalformedLine, "non-finite activity value"),
        ("42\t1383260400000\t39\t\t\t\t\tx", MalformedLine, "non-numeric activity field: 'x'"),
        ("42\t1383260400000\t39\t\t\t\t\t5\udcff", MalformedLine, "not UTF-8 text"),
    ], ids=["short_line", "non_numeric_timestamp", "negative", "cell_id_zero", "nan", "inf",
            "non_numeric_activity", "not_utf8"])
    def test_bad_line_deep_in_file(self, tmp_path, bad, error, detail):
        # header, 500 records, a blank line, 300 records, then the bad line 803
        lines = ["square_id\ttime\tcountry\ta\tb\tc\td\tinternet"]
        lines += [CANONICAL] * 500 + [""] + [CANONICAL] * 300 + [bad] + [CANONICAL] * 5
        path = tmp_path / "day.tsv"
        # surrogateescape writes the lone surrogate of the not_utf8 case as byte 0xff
        path.write_bytes(("\n".join(lines) + "\n").encode("utf-8", "surrogateescape"))
        with pytest.raises(error) as exc:
            bin_series(read_cdr_paths([str(path)]), SPAN_START, SPAN_START + BIN)
        assert str(exc.value).startswith(f"{path}:803: ")
        assert detail in str(exc.value)

    @pytest.mark.parametrize("end", ["\r", "\r\n"], ids=["cr", "crlf"])
    def test_not_utf8_names_its_line_at_every_line_break(self, tmp_path, end):
        """\r and \r\n each end one line, as _lines splits them (\n:
        test_bad_line_deep_in_file)."""
        lines = [CANONICAL, CANONICAL, CANONICAL.replace("5.25", "5\udcff")]
        path = tmp_path / "cr_only.tsv"
        path.write_bytes((end.join(lines) + end).encode("utf-8", "surrogateescape"))
        with pytest.raises(MalformedLine) as exc:
            ingest.read_cdr_file(str(path))
        assert str(exc.value) == f"{path}:3: not UTF-8 text"

    @pytest.mark.parametrize("cell", ["\u01fe1", "\u0761"])
    def test_non_ascii_cell_id_named(self, tmp_path, cell):
        """loadtxt alone reads these cell ids as 4621 and 1841."""
        path = tmp_path / "day.tsv"
        path.write_text(CANONICAL + "\n" + CANONICAL.replace("42", cell, 1) + "\n",
                        encoding="utf-8")
        with pytest.raises(MalformedLine) as exc:
            ingest.read_cdr_file(str(path))
        assert str(exc.value) == f"{path}:2: non-numeric or non-integer cell id: {cell!r}"

    def test_first_bad_line_reported(self, tmp_path):
        """A value error on line 2 precedes a short line 3."""
        path = tmp_path / "day.tsv"
        path.write_text(CANONICAL + "\n" + CANONICAL.replace("5.25", "-1") + "\n42\t1\n")
        with pytest.raises(NegativeActivity, match=f"^{path}:2: "):
            read_cdr_file(str(path))


class TestBinning:
    def test_boundary_placement(self):
        """First ms of a bin belongs to it, first ms of the next does not."""
        table = cdr_table((1, SPAN_START, 1.0), (1, SPAN_START + BIN - 1, 2.0),
                          (1, SPAN_START + BIN, 4.0))
        result = bin_series([table], SPAN_START, SPAN_START + 2 * BIN)
        np.testing.assert_allclose(result.cells[1].values, [3.0, 4.0])
        assert result.dropped == 0

    def test_out_of_span_records_dropped_and_counted(self):
        table = cdr_table((1, SPAN_START - 1, 9.0), (1, SPAN_START, 1.0),
                          (1, SPAN_START + 2 * BIN, 9.0))
        result = bin_series([table], SPAN_START, SPAN_START + 2 * BIN)
        assert result.dropped == 2
        np.testing.assert_allclose(result.cells[1].values, [1.0, 0.0])

    def test_empty_bins_are_explicit_zeros(self):
        result = bin_series([cdr_table((5, SPAN_START, 1.5))], SPAN_START, SPAN_START + 4 * BIN)
        series = result.cells[5]
        assert series.n_bins == 4
        np.testing.assert_array_equal(series.values[1:], 0.0)

    def test_sixty_two_day_span_gives_2976_bins(self):
        end = SPAN_START + 62 * 48 * BIN
        result = bin_series([cdr_table((1, SPAN_START, 1.0))], SPAN_START, end)
        assert result.cells[1].n_bins == 2976

    def test_unaligned_span_rejected(self):
        with pytest.raises(UnalignedSpan):
            bin_series([], SPAN_START + 1, SPAN_START + BIN + 1)
        with pytest.raises(UnalignedSpan):
            bin_series([], SPAN_START, SPAN_START)

    def test_mass_conservation_many_small_records(self):
        """Compensated accumulation keeps the total at fsum precision."""
        rng = np.random.default_rng(11)
        parts = rng.random(20_000) * 1e-3
        offsets = rng.integers(0, 48 * BIN, size=parts.size)
        table = cdr_table(*[(1, SPAN_START + int(o), float(p)) for o, p in zip(offsets, parts)])
        result = bin_series([table], SPAN_START, SPAN_START + 48 * BIN)
        total = math.fsum(result.cells[1].values)
        assert abs(total - math.fsum(parts)) < 1e-9

    def test_record_and_file_order_do_not_change_bits(self, tmp_path):
        """Bin sums are taken in a canonical order: shuffling the records
        of each file and reversing the file order gives the same bits,
        here with bins shared by two files."""
        rng = np.random.default_rng(5)
        files = []
        for first_bin in (0, 4, 8):  # file f covers bins first_bin .. first_bin + 7
            n = 1200
            files.append(list(zip(
                rng.integers(1, 4, size=n).tolist(),
                (SPAN_START + first_bin * BIN + rng.integers(0, 8 * BIN, size=n)).tolist(),
                rng.lognormal(0.0, 2.0, size=n).tolist())))

        def write(name, records):
            path = tmp_path / name
            path.write_text("".join(f"{c}\t{t}\t39\t\t\t\t\t{v!r}\n" for c, t, v in records))
            return str(path)

        end = SPAN_START + 16 * BIN
        paths = [write(f"in-{i}.tsv", recs) for i, recs in enumerate(files)]
        reference = bin_series(read_cdr_paths(paths), SPAN_START, end).cells
        for trial in range(3):
            shuffled = [write(f"t{trial}-{i}.tsv", [recs[j] for j in rng.permutation(len(recs))])
                        for i, recs in enumerate(files)]
            cells = bin_series(read_cdr_paths(shuffled[::-1]), SPAN_START, end).cells
            assert sorted(cells) == sorted(reference)
            for cid in reference:
                assert cells[cid].values.tobytes() == reference[cid].values.tobytes()

        table = cdr_table(*files[0])
        one_pass = bin_series([table], SPAN_START, end).cells
        reordered = bin_series([table[::-1]], SPAN_START, end).cells
        for cid in one_pass:
            assert reordered[cid].values.tobytes() == one_pass[cid].values.tobytes()


class TestPersistence:
    def test_json_round_trip_exact(self, tmp_path):
        table = cdr_table((1, SPAN_START, 0.1), (2, SPAN_START + BIN, 1 / 3))
        cells = bin_series([table], SPAN_START, SPAN_START + 2 * BIN).cells
        path = tmp_path / "bins.json"
        save_bins_json(cells, str(path))
        loaded = load_bins_json(str(path))
        assert set(loaded) == {1, 2}
        for cid in cells:
            assert loaded[cid].span_start == SPAN_START
            np.testing.assert_array_equal(loaded[cid].values, cells[cid].values)

    def test_format2_round_trip_keeps_every_bit(self, tmp_path, extreme_cells):
        cells = extreme_cells
        cells[3].values[5] = -0.0
        path = tmp_path / "bins.json"
        save_bins_json(cells, str(path))
        doc = json.loads(path.read_text())
        assert doc["format"] == 2 and list(doc["cells"]) == ["3", "11", "40"]
        assert doc["bin_width_minutes"] == 30
        loaded = load_bins_json(str(path))
        for cid in cells:
            assert loaded[cid].values.tobytes() == cells[cid].values.tobytes()
            assert loaded[cid].values.flags.writeable
            assert loaded[cid].span_start == cells[cid].span_start

    @pytest.mark.parametrize("cell_3", [ingest.BinnedCellSeries(3, SPAN_START + BIN, np.ones(4)),
                                        ingest.BinnedCellSeries(3, SPAN_START, np.ones(5))],
                             ids=["later_start", "more_bins"])
    def test_bins_writer_refuses_mixed_spans(self, tmp_path, cell_3):
        """One span_start is written for every cell and the loader wants
        equal lengths, so a set without one span is refused, naming the
        cell, before anything is written."""
        cells = {1: ingest.BinnedCellSeries(1, SPAN_START, np.ones(4)), 3: cell_3,
                 2: ingest.BinnedCellSeries(2, SPAN_START, np.ones(4))}
        path = tmp_path / "bins.json"
        with pytest.raises(SpanMismatch, match="^cell 3: .* like cell 1$"):
            save_bins_json(cells, str(path))
        assert not path.exists()

    @pytest.mark.parametrize("key", ["01", " 1", "+1", "1_0"])
    def test_bins_loader_refuses_a_key_that_is_not_a_canonical_id(self, tmp_path, key):
        """int() reads each of these keys as cell 1 or 10, so {"1": a, "01": b}
        would load as one cell 1 holding b; only str(int)'s spelling is read."""
        cells = {1: ingest.BinnedCellSeries(1, SPAN_START, np.ones(4))}
        path = tmp_path / "bins.json"
        save_bins_json(cells, str(path))
        doc = json.loads(path.read_text())
        doc["cells"][key] = doc["cells"]["1"]
        path.write_text(json.dumps(doc))
        with pytest.raises(MalformedBins) as exc:
            load_bins_json(str(path))
        assert str(exc.value) == f"{path}: cells.{key}: key is not an integer id in canonical form"

    def test_json_file_ends_with_newline(self, tmp_path):
        path = tmp_path / "bins.json"
        save_bins_json({}, str(path))
        assert path.read_bytes().endswith(b"\n")

    def test_csv_rows_sorted_and_reparse_exactly(self, tmp_path):
        table = cdr_table((2, SPAN_START, math.pi), (1, SPAN_START + BIN, math.e))
        cells = bin_series([table], SPAN_START, SPAN_START + 2 * BIN).cells
        path = tmp_path / "bins.csv"
        save_bins_csv(cells, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "cell_id,bin_index,value"
        # every bin of every cell appears, cells in id order, zeros explicit
        assert [ln.rsplit(",", 1)[0] for ln in lines[1:]] == ["1,0", "1,1", "2,0", "2,1"]
        # 17 significant digits round-trip float64 exactly
        assert float(lines[2].split(",")[2]) == math.e
        assert float(lines[3].split(",")[2]) == math.pi


# --- one statement of the line rules -----------------------------------------

INTEGER_FIELDS = ["+42", "-42", "0042", "-0", "4_2", "٤٢", "４", "Ǿ1", "ݡ", " 42 ", "\x0c42　",
                  "9223372036854775807", "-9223372036854775808", "9223372036854775808",
                  "-9223372036854775809", "1.0", "1e3", "", "   ", "x"]
ACTIVITY_FIELDS = ["0", "-0.0", "-0.5", "nan", "-nan", "inf", "-inf", "1e400", "-1e400", "4_2",
                   "٤", " 3.5 ", "", "   ", "　", "x", "x" * 120]
HEADER = "square_id\ttime\tcountry\ta\tb\tc\td\tinternet"

# Mostly canonical fields, so that a bad one sits at any depth of a file.
_field = st.one_of(st.sampled_from(["42", "1383260400000", "5.25", "39", ""]),
                   st.sampled_from(INTEGER_FIELDS + ACTIVITY_FIELDS))
_row = st.integers(min_value=0, max_value=10).flatmap(
    lambda n: st.lists(_field, min_size=n, max_size=n).map("\t".join))
_canonical = st.just(CANONICAL)
_blank = st.sampled_from(["", "   ", "\t\t", "\x0c", "　"])
_file = st.tuples(st.booleans(), st.lists(st.one_of(_canonical, _row, _blank), max_size=8),
                  st.sampled_from(["\n", "\r\n"]))


class TestLineRules:
    """read_cdr_file reads a file in bulk, and _line_record states the rules
    of one line. They must agree: the file fails exactly when a line breaks
    a rule, naming the first such line, and otherwise holds the records of
    its lines."""

    @given(_file)
    @settings(max_examples=300, deadline=None)
    def test_file_reads_as_its_lines(self, tmp_path_factory, drawn):
        header, rows, newline = drawn
        lines = [HEADER] * header + rows
        path = tmp_path_factory.getbasetemp() / "line_rules.tsv"
        path.write_bytes("".join(line + newline for line in lines).encode())
        # The header rule of read_cdr_file: past the leading blank lines,
        # a first field that is no number.
        skip = 0
        while skip < len(lines) and not lines[skip].encode().strip():
            skip += 1
        try:
            float(lines[skip].encode().split(b"\t", 1)[0] if skip < len(lines) else b"0")
        except ValueError:
            skip += 1
        records, failure = [], None
        for number, line in enumerate(lines[skip:], skip + 1):
            if not line.strip():
                continue
            try:
                record = ingest._line_record(line)
            except (MalformedLine, NegativeActivity) as exc:
                failure = type(exc), f"{path}:{number}: {exc}"
                break
            if not math.isnan(record[2]):
                records.append(record)
        if failure is None:
            table = ingest.read_cdr_file(str(path))
            assert table.tobytes() == np.array(records, dtype=ingest.CDR_DTYPE).tobytes()
        else:
            with pytest.raises(failure[0]) as exc:
                ingest.read_cdr_file(str(path))
            assert type(exc.value) is failure[0]
            assert str(exc.value) == failure[1]


# --- the fast parse ------------------------------------------------------------

# Activity fields on both sides of every difference between loadtxt's float
# parser and the _activity converter: empty and whitespace-only fields, a
# literal NaN, infinities, an underscore, and the bytes 0x1c-0x1f that only
# the parser skips as whitespace.
FAST_ACTIVITY = ["5.25", "0", "-0.0", "1e-3", " 7 ", "", "   ", "nan", "inf", "-inf", "1_0",
                 "\x1c2.5", "2.5\x1f", "\x1d", "-1", "x"]


def _read_outcome(read, path):
    """What a reader makes of a file: its table's bytes, or the error."""
    try:
        return read(path).tobytes()
    except (MalformedLine, NegativeActivity) as exc:
        return type(exc), str(exc)


class TestFastParse:
    """read_cdr_file reads a file with loadtxt's own float parser when it
    can; whatever the file holds, the result is the converter path's."""

    @staticmethod
    def _write(path, header, rows):
        lines = [HEADER] * header + [f"{cell}\t{1383260400000 + cell}\t39\t\t\t\t\t{activity}"
                                     for cell, activity in rows]
        path.write_text("".join(line + "\n" for line in lines))
        return str(path)

    @given(st.booleans(), st.lists(st.tuples(st.integers(0, 3), st.sampled_from(FAST_ACTIVITY)),
                                   max_size=12))
    @settings(max_examples=300, deadline=None)
    def test_fast_parse_reads_as_the_converter(self, tmp_path_factory, header, rows):
        path = self._write(tmp_path_factory.getbasetemp() / "fast.tsv", header, rows)
        assert _read_outcome(ingest.read_cdr_file, path) == \
            _read_outcome(lambda p: ingest._parse(p, int(header), fast=False), path)

    @pytest.mark.parametrize("activity,fast,converter", [
        ("0.1", "table", "table"), ("", "refused", "table"), ("   ", "refused", "table"),
        ("1_0", "refused", "table"), ("nan", "rule", "refused"), ("inf", "rule", "rule"),
        ("\x1c2.5", "table", "refused"),
    ])
    def test_where_the_parsers_part(self, tmp_path, activity, fast, converter):
        """Each parser's outcome on a file: a table, a refusal (ValueError)
        or a broken value rule (None). Where both read a table it is the
        same; the last case is what the byte scan keeps from the parser."""
        path = self._write(tmp_path / "f.tsv", False, [(1, "5.25"), (2, "0.1"), (3, activity)])

        def load(use_fast):
            try:
                table = ingest._load_table(path, 0, fast=use_fast)
            except ValueError:
                return "refused", None
            return ("rule", None) if table is None else ("table", table.tobytes())

        (fast_got, fast_bytes), (converter_got, converter_bytes) = load(True), load(False)
        assert (fast_got, converter_got) == (fast, converter)
        if fast == converter == "table":
            assert fast_bytes == converter_bytes

    # A record line of the given activity field, and its line break.
    LINE = "1\t1383260400000\t39\t\t\t\t\t{}{}"
    # Enough lines to put the last one in the scan's second chunk.
    MANY = 70_000 // len(LINE.format("5.25", "\n")) + 1

    @pytest.mark.parametrize("fields,end,fast", [
        (["5.25", "0.5"], "\n", True),
        (["5.25", ""], "\n", False),  # an empty field late
        (["", "5.25"], "\n", False),  # an empty field first
        (["5.25", "  "], "\n", False),  # a whitespace-only field
        (["5.25", "\x0b\x0c"], "\n", False),
        (["5.25", ""], "\r\n", False),
        (["5.25", " "], "\r\n", False),
        (["5.25", ""], "", False),  # at the end of the file, no line break
        (["5.25", "0.5 "], "\n", True),  # a space after a number is no empty field
        (["5.25", "0.5 "], "\r\n", True),
        (["5.25", "2.5\x1f"], "\n", False),  # a byte float() refuses
        (["5.25"] * MANY + [""], "\n", False),  # an empty field past the first chunk
        (["5.25"] * MANY + [" "], "\n", False),
    ])
    def test_no_file_pays_for_a_failed_parse(self, tmp_path, monkeypatch, fields, end, fast):
        """A file goes to the parser that reads it at the first attempt."""
        loadtxt, seen = np.loadtxt, []

        def counted(*args, **kwargs):
            seen.append(kwargs["converters"] is None)
            return loadtxt(*args, **kwargs)

        path = tmp_path / "f.tsv"
        text = HEADER + "\n" + "".join(self.LINE.format(f, end) for f in fields[:-1])
        path.write_bytes((text + self.LINE.format(fields[-1], end)).encode())
        monkeypatch.setattr(np, "loadtxt", counted)
        outcome = _read_outcome(ingest.read_cdr_file, str(path))
        monkeypatch.undo()
        assert outcome == _read_outcome(lambda p: ingest._parse(p, 1, fast=False), str(path))
        assert seen == [fast]

    def test_an_underscore_takes_the_line_walk(self, tmp_path, monkeypatch):
        """float() takes "1_0" and loadtxt's parser does not, and the scan
        does not look for it: the fast parse fails, and the line walk
        finds every line good and gives the table."""
        loadtxt, seen = np.loadtxt, []

        def counted(*args, **kwargs):
            seen.append(kwargs["converters"] is None)
            return loadtxt(*args, **kwargs)

        path = self._write(tmp_path / "f.tsv", True, [(1, "5.25"), (2, "1_0")])
        monkeypatch.setattr(np, "loadtxt", counted)
        table = ingest.read_cdr_file(path)
        monkeypatch.undo()
        assert table["activity"].tolist() == [5.25, 10.0]
        assert seen == [True]


# --- the line walk ---------------------------------------------------------------

# Lines that keep every line rule but that loadtxt's reading of the file
# refuses: whitespace-only lines (rows to loadtxt), text that is not ASCII,
# an underscore in a number, and an empty activity that is not a line's
# last field. Each activity field reads the same through float().
_odd_activity = st.sampled_from(["5.25", "0", "-0.0", "1e-3", " 7 ", "1_0", "", "   "])
_odd_record = st.builds(
    lambda cell, activity, country, extra: (f"{cell}\t{1383260400000 + cell}\t{country}"
                                            f"\t\t\t\t\t{activity}" + "\t9" * extra),
    st.integers(1, 99), _odd_activity, st.sampled_from(["39", "\u01fe", "é"]),
    st.integers(0, 2))
_odd_file = st.tuples(st.booleans(),
                      st.lists(st.one_of(_odd_record, _blank), min_size=1, max_size=12),
                      st.sampled_from(["\n", "\r\n"]))


def converter_reading(path, skip):
    """The table that loadtxt's converter path reads from the lines of a
    file, each whitespace-only line emptied: the table that the line walk
    must give for a file whose lines all keep the rules."""
    with open(path, encoding="utf-8") as fh:
        lines = ["\n" if line.isspace() else line for line in fh]
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        table = np.loadtxt(lines, dtype=ingest.CDR_DTYPE, delimiter="\t", comments=None,
                           usecols=(ingest.CELL_COLUMN, ingest.TIME_COLUMN,
                                    ingest.ACTIVITY_COLUMN),
                           converters={ingest.ACTIVITY_COLUMN: ingest._activity},
                           skiprows=skip, ndmin=1)
    return table[~np.isnan(table["activity"])]


class TestLineWalk:
    @given(_odd_file)
    @settings(max_examples=300, deadline=None)
    def test_walk_reads_as_the_converter(self, tmp_path_factory, drawn):
        """A file whose lines keep every rule reads to the converter's
        table bytes, whether or not loadtxt reads the file itself."""
        header, rows, newline = drawn
        path = tmp_path_factory.getbasetemp() / "odd.tsv"
        path.write_bytes("".join(line + newline
                                 for line in [HEADER] * header + rows).encode("utf-8"))
        expected = converter_reading(path, int(header)).tobytes()
        assert ingest.read_cdr_file(str(path)).tobytes() == expected
        assert ingest._walk(str(path), int(header)).tobytes() == expected


# --- the packed-key bin sums ---------------------------------------------------

def lexsort_bin_sums(table, span_start, span_end):
    """_bin_sums with one lexsort on three keys, the way it was first
    written: the reference for the packed key."""
    timestamp = table["timestamp"]
    inside = (timestamp >= span_start) & (timestamp < span_end)
    dropped = int(inside.size - np.count_nonzero(inside))
    table = table[inside]
    bins = (table["timestamp"] - span_start) // BIN
    order = np.lexsort((table["activity"], bins, table["cell_id"]))
    cell, bins, value = table["cell_id"][order], bins[order], table["activity"][order]
    first = np.ones(cell.size, dtype=bool)
    first[1:] = (cell[1:] != cell[:-1]) | (bins[1:] != bins[:-1])
    starts = np.flatnonzero(first)
    sums = np.add.reduceat(value, starts) if starts.size else value
    return cell[starts], bins[starts], sums, dropped


_VALUES = st.one_of(st.sampled_from([0.0, -0.0, 1.0, 0.1, 3.0, 5e-324, 1e300]),
                    st.floats(min_value=0.0, max_value=1e9))


@st.composite
def _binnable(draw):
    """A record table over a few bins, its records in drawn order. A few
    cells and bins make groups of 8 and more records, where reduceat adds
    pairwise; cell ids up to 2**62 make keys that do not fit 63 bits."""
    top = draw(st.sampled_from([40, 2**62]))
    cells = draw(st.lists(st.integers(1, top), min_size=1, max_size=3))
    n_bins = draw(st.integers(1, 4))
    records = draw(st.lists(st.tuples(st.sampled_from(cells),
                                      st.integers(-BIN, (n_bins + 1) * BIN - 1), _VALUES),
                            max_size=80))
    table = np.array([(c, SPAN_START + t, v) for c, t, v in records], dtype=ingest.CDR_DTYPE)
    order = draw(st.permutations(range(len(records))))
    return table, table[list(order)], n_bins


class TestPackedBinSums:
    @given(_binnable())
    @settings(max_examples=400, deadline=None)
    def test_packed_key_sums_as_the_lexsort(self, drawn):
        table, shuffled, n_bins = drawn
        end = SPAN_START + n_bins * BIN
        got = ingest._bin_sums(shuffled, SPAN_START, end)
        want = lexsort_bin_sums(table, SPAN_START, end)
        assert [a.tobytes() for a in got[:3]] == [a.tobytes() for a in want[:3]]
        assert got[3] == want[3]

    @pytest.mark.parametrize("cells,lexsorts", [((7, 9), 0), ((1, 2**62), 1)])
    def test_lexsort_only_where_the_key_does_not_fit(self, monkeypatch, cells, lexsorts):
        rng = np.random.default_rng(3)
        table = np.array([(cells[i % 2], SPAN_START + int(t), float(v)) for i, (t, v) in
                          enumerate(zip(rng.integers(0, 2 * BIN, 40), rng.random(40)))],
                         dtype=ingest.CDR_DTYPE)
        lexsort, seen = np.lexsort, []
        monkeypatch.setattr(np, "lexsort", lambda keys: seen.append(1) or lexsort(keys))
        got = ingest._bin_sums(table, SPAN_START, SPAN_START + 2 * BIN)
        monkeypatch.undo()
        want = lexsort_bin_sums(table, SPAN_START, SPAN_START + 2 * BIN)
        assert [a.tobytes() for a in got[:3]] == [a.tobytes() for a in want[:3]]
        assert len(seen) == lexsorts
