"""Parsing and 30-minute binning of raw activity logs."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cellcast import (
    CdrRecord,
    ColumnMap,
    bin_series,
    iter_cdr_file,
    iter_cdr_paths,
    load_bins_json,
    merge_binned,
    parse_cdr_line,
    read_cdr_paths,
    save_bins_csv,
    save_bins_json,
)
from cellcast import ingest
from cellcast.errors import MalformedLine, NegativeActivity, UnalignedSpan

SPAN_START = 1_383_260_400_000
BIN = 30 * 60 * 1000

CANONICAL = "42\t1383260400000\t39\t\t\t\t\t5.25"


class TestParseLine:
    def test_canonical_line(self):
        rec = parse_cdr_line(CANONICAL)
        assert rec == CdrRecord(42, 1383260400000, 5.25)

    def test_trailing_newline_ignored(self):
        assert parse_cdr_line(CANONICAL + "\r\n") == parse_cdr_line(CANONICAL)

    def test_blank_line_skipped(self):
        assert parse_cdr_line("") is None
        assert parse_cdr_line("   \n") is None

    def test_empty_activity_field_skipped(self):
        """An empty internet column means no activity on that channel."""
        assert parse_cdr_line("42\t1383260400000\t39\t1.0\t\t\t\t") is None

    def test_too_few_columns(self):
        with pytest.raises(MalformedLine):
            parse_cdr_line("42\t1383260400000\t39")

    def test_non_numeric_id(self):
        with pytest.raises(MalformedLine):
            parse_cdr_line("abc\t1383260400000\t39\t\t\t\t\t5.25")

    def test_non_numeric_activity(self):
        with pytest.raises(MalformedLine):
            parse_cdr_line("42\t1383260400000\t39\t\t\t\t\tx")

    def test_non_finite_activity(self):
        with pytest.raises(MalformedLine):
            parse_cdr_line("42\t1383260400000\t39\t\t\t\t\tnan")
        with pytest.raises(MalformedLine):
            parse_cdr_line("42\t1383260400000\t39\t\t\t\t\tinf")

    def test_negative_activity(self):
        with pytest.raises(NegativeActivity):
            parse_cdr_line("42\t1383260400000\t39\t\t\t\t\t-0.5")

    def test_cell_id_below_one(self):
        with pytest.raises(MalformedLine):
            parse_cdr_line("0\t1383260400000\t39\t\t\t\t\t5.25")

    def test_custom_column_map(self):
        rec = parse_cdr_line("7.5\t3\t1383260400000", ColumnMap(cell_id=1, timestamp=2, internet=0))
        assert rec == CdrRecord(3, 1383260400000, 7.5)


class TestFileIteration:
    def test_header_line_skipped(self, tmp_path):
        path = tmp_path / "with_header.tsv"
        path.write_text("square_id\ttime\tcountry\ta\tb\tc\td\tinternet\n" + CANONICAL + "\n")
        assert [r.cell_id for r in iter_cdr_file(str(path))] == [42]

    def test_headerless_file_fully_read(self, tmp_path):
        path = tmp_path / "plain.tsv"
        path.write_text(CANONICAL + "\n" + CANONICAL + "\n")
        assert len(list(iter_cdr_file(str(path)))) == 2

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

    RECORD = CdrRecord(42, 1383260400000, 5.25)

    @pytest.mark.parametrize("text,count", [
        (CANONICAL + "\r\n" + CANONICAL + "\r\n", 2),
        (" 42 \t 1383260400000 \t39\t\t\t\t\t 5.25 \n", 1),
        (CANONICAL + "\textra\t7\n", 1),
        (CANONICAL + "\n\n" + CANONICAL + "\n", 2),
        (CANONICAL + "\n   \n\t\t\n" + CANONICAL, 2),
        ("square_id\ttime\tcountry\ta\tb\tc\td\tinternet\n", 0),
        ("", 0),
    ], ids=["crlf", "spaces_around_fields", "extra_columns", "blank_line_mid_file",
            "whitespace_only_lines", "header_only", "no_lines"])
    def test_layout_reads_as_line_parser(self, tmp_path, text, count):
        path = tmp_path / "cdr.tsv"
        path.write_bytes(text.encode())
        assert list(iter_cdr_file(str(path))) == [self.RECORD] * count


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

    def test_first_bad_line_reported(self, tmp_path):
        """A value error on line 2 precedes a short line 3."""
        path = tmp_path / "day.tsv"
        path.write_text(CANONICAL + "\n" + CANONICAL.replace("5.25", "-1") + "\n42\t1\n")
        with pytest.raises(NegativeActivity, match=f"^{path}:2: "):
            list(iter_cdr_file(str(path)))


class TestBinning:
    def test_boundary_placement(self):
        """First ms of a bin belongs to it, first ms of the next does not."""
        records = [
            CdrRecord(1, SPAN_START, 1.0),
            CdrRecord(1, SPAN_START + BIN - 1, 2.0),
            CdrRecord(1, SPAN_START + BIN, 4.0),
        ]
        result = bin_series(records, SPAN_START, SPAN_START + 2 * BIN)
        np.testing.assert_allclose(result.cells[1].values, [3.0, 4.0])
        assert result.dropped == 0

    def test_out_of_span_records_dropped_and_counted(self):
        records = [
            CdrRecord(1, SPAN_START - 1, 9.0),
            CdrRecord(1, SPAN_START, 1.0),
            CdrRecord(1, SPAN_START + 2 * BIN, 9.0),
        ]
        result = bin_series(records, SPAN_START, SPAN_START + 2 * BIN)
        assert result.dropped == 2
        np.testing.assert_allclose(result.cells[1].values, [1.0, 0.0])

    def test_empty_bins_are_explicit_zeros(self):
        result = bin_series([CdrRecord(5, SPAN_START, 1.5)], SPAN_START, SPAN_START + 4 * BIN)
        series = result.cells[5]
        assert series.n_bins == 4
        np.testing.assert_array_equal(series.values[1:], 0.0)

    def test_sixty_two_day_span_gives_2976_bins(self):
        end = SPAN_START + 62 * 48 * BIN
        result = bin_series([CdrRecord(1, SPAN_START, 1.0)], SPAN_START, end)
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
        records = [CdrRecord(1, SPAN_START + int(o), float(p)) for o, p in zip(offsets, parts)]
        result = bin_series(records, SPAN_START, SPAN_START + 48 * BIN)
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

        records = [CdrRecord(c, t, v) for c, t, v in files[0]]
        one_pass = bin_series(records, SPAN_START, end).cells
        reordered = bin_series(records[::-1], SPAN_START, end).cells
        for cid in one_pass:
            assert reordered[cid].values.tobytes() == one_pass[cid].values.tobytes()

    def test_bin_start_helper(self):
        result = bin_series([CdrRecord(1, SPAN_START, 1.0)], SPAN_START, SPAN_START + 2 * BIN)
        assert result.cells[1].bin_start(1) == SPAN_START + BIN


class TestMerge:
    def test_merge_adds_elementwise(self):
        a = bin_series([CdrRecord(1, SPAN_START, 1.0)], SPAN_START, SPAN_START + BIN).cells
        b = bin_series(
            [CdrRecord(1, SPAN_START, 2.0), CdrRecord(2, SPAN_START, 5.0)],
            SPAN_START,
            SPAN_START + BIN,
        ).cells
        merged = merge_binned(a, b)
        np.testing.assert_allclose(merged[1].values, [3.0])
        np.testing.assert_allclose(merged[2].values, [5.0])

    def test_merge_leaves_inputs_untouched(self):
        a = bin_series([CdrRecord(1, SPAN_START, 1.0)], SPAN_START, SPAN_START + BIN).cells
        b = bin_series([CdrRecord(1, SPAN_START, 2.0)], SPAN_START, SPAN_START + BIN).cells
        merge_binned(a, b)
        np.testing.assert_allclose(a[1].values, [1.0])
        np.testing.assert_allclose(b[1].values, [2.0])

    def test_merge_rejects_mismatched_spans(self):
        a = bin_series([CdrRecord(1, SPAN_START, 1.0)], SPAN_START, SPAN_START + BIN).cells
        b = bin_series([CdrRecord(1, SPAN_START + BIN, 1.0)], SPAN_START + BIN, SPAN_START + 2 * BIN).cells
        with pytest.raises(UnalignedSpan):
            merge_binned(a, b)

    def test_split_files_merge_to_single_pass(self):
        """Binning record halves separately then merging equals one pass."""
        rng = np.random.default_rng(3)
        records = [
            CdrRecord(int(rng.integers(1, 4)), SPAN_START + int(rng.integers(0, 8 * BIN)), float(rng.random()))
            for _ in range(200)
        ]
        end = SPAN_START + 8 * BIN
        whole = bin_series(records, SPAN_START, end).cells
        merged = merge_binned(
            bin_series(records[:100], SPAN_START, end).cells,
            bin_series(records[100:], SPAN_START, end).cells,
        )
        assert set(merged) == set(whole)
        for cid in whole:
            np.testing.assert_allclose(merged[cid].values, whole[cid].values, rtol=0, atol=1e-12)


class TestPersistence:
    def test_json_round_trip_exact(self, tmp_path):
        cells = bin_series(
            [CdrRecord(1, SPAN_START, 0.1), CdrRecord(2, SPAN_START + BIN, 1 / 3)],
            SPAN_START,
            SPAN_START + 2 * BIN,
        ).cells
        path = tmp_path / "bins.json"
        save_bins_json(cells, str(path))
        loaded = load_bins_json(str(path))
        assert set(loaded) == {1, 2}
        for cid in cells:
            assert loaded[cid].span_start == SPAN_START
            assert loaded[cid].bin_width_ms == BIN
            np.testing.assert_array_equal(loaded[cid].values, cells[cid].values)

    def test_json_file_ends_with_newline(self, tmp_path):
        path = tmp_path / "bins.json"
        save_bins_json({}, str(path))
        assert path.read_bytes().endswith(b"\n")

    def test_csv_rows_sorted_and_reparse_exactly(self, tmp_path):
        cells = bin_series(
            [CdrRecord(2, SPAN_START, math.pi), CdrRecord(1, SPAN_START + BIN, math.e)],
            SPAN_START,
            SPAN_START + 2 * BIN,
        ).cells
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

INTEGER_FIELDS = ["+42", "-42", "0042", "-0", "4_2", "٤٢", "４", " 42 ", "\x0c42　",
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
        # The header rule of read_cdr_file: a first field that is no number.
        try:
            float(lines[0].encode().split(b"\t", 1)[0] if lines else b"0")
            skip = 0
        except ValueError:
            skip = 1
        records, failure = [], None
        for number, line in enumerate(lines[skip:], skip + 1):
            if not line.strip():
                continue
            try:
                record = ingest._line_record(line, ColumnMap())
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
