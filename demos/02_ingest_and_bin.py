"""Parse raw CDR lines and aggregate them into 30-minute bins.

Every record either lands in the bin its timestamp belongs to or is
counted as dropped for falling outside the requested span. Each file is
read in bulk into a record array, and each bin is summed in ascending
order of value, so shuffling the lines of a file never changes the bits.
"""

import os
import tempfile

from cellcast import Archetype, SynthSpec, bin_series, generate, read_cdr_file, read_cdr_paths

# A CDR line carries cell id, a millisecond timestamp, a country code,
# and activity columns of which we read the last (internet traffic).
# A blank activity column means the cell saw no internet traffic there,
# so the second line holds no record.
lines = ["17\t1383260400000\t39\t\t\t\t\t3.75", "17\t1383260400000\t39\t\t\t\t\t"]
with tempfile.TemporaryDirectory() as out:
    path = os.path.join(out, "two_lines.tsv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    table = read_cdr_file(path)
print(f"read {len(table)} record from {len(lines)} lines:")
for cell_id, timestamp, activity in table.tolist():
    print(f"  cell={cell_id} timestamp={timestamp} activity={activity}")

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
