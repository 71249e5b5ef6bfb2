"""Parse raw CDR lines and aggregate them into 30-minute bins.

Every record either lands in the bin its timestamp belongs to or is
counted as dropped for falling outside the requested span. Each file is
read in bulk into a record array, and each bin is summed in ascending
order of value, so shuffling the lines of a file never changes the bits.
"""

import tempfile

from cellcast import Archetype, SynthSpec, bin_series, generate, parse_cdr_line, read_cdr_paths

# A CDR line carries cell id, a millisecond timestamp, a country code,
# and activity columns of which we read the last (internet traffic).
line = "17\t1383260400000\t39\t\t\t\t\t3.75"
record = parse_cdr_line(line)
print(f"parsed: cell={record.cell_id} timestamp={record.timestamp} "
      f"activity={record.internet_activity}")

# A blank activity column means the cell saw no internet traffic there.
no_activity = parse_cdr_line("17\t1383260400000\t39\t\t\t\t\t")
print(f"blank activity parses to: {no_activity!r}")

spec = SynthSpec(
    archetypes=[Archetype(id=0, base_level=8.0, period_weights=(1, 2, 3, 3, 2, 1), noise_sd=0.3)],
    cells_per_archetype=2,
    days=2,
    seed=5,
)
span_start = spec.span_start
span_end = span_start + spec.days * 48 * 30 * 60 * 1000

with tempfile.TemporaryDirectory() as out:
    generate(spec, out)
    result = bin_series(read_cdr_paths([out]), span_start, span_end)

print(f"\nbinned {len(result.cells)} cells, {result.dropped} records dropped")
for cell_id, series in sorted(result.cells.items()):
    head = ", ".join(f"{v:.2f}" for v in series.values[:6])
    print(f"  cell {cell_id}: {series.values.size} bins, first six sums [{head}]")

total = sum(float(s.values.sum()) for s in result.cells.values())
print(f"\ntotal activity across all bins: {total:.6f}")
print("Reordering the lines of a file reproduces every bin bit for bit;")
print("splitting the records across more files can move the last bits.")
