"""Cluster cells by their day-period rhythm and pick k from the elbow.

Each cell is reduced to a 6-value profile, its mean activity over the
four-hour slices of a local day. K-Means with restarts groups the
profiles, and the knee of the SSE-versus-k curve proposes how many
behaviour groups the city actually has.
"""

import numpy as np

from cellcast import (
    BinnedCellSeries,
    adjusted_rand_index,
    build_profiles,
    elbow_scan,
    kmeans,
    knee_point,
    well_separated_city,
)
from cellcast.synth import bin_values_for_cell

spec = well_separated_city(n_archetypes=5, cells_per_archetype=8, days=3, seed=1)
series = {}
truth = []
cell_id = 0
for a_idx, arch in enumerate(spec.archetypes):
    for _ in range(spec.cells_per_archetype):
        cell_id += 1
        values = bin_values_for_cell(spec, arch, cell_id)
        series[cell_id] = BinnedCellSeries(cell_id=cell_id, span_start=spec.span_start,
                                           values=values)
        truth.append(a_idx)

profiles = build_profiles(series)
print(f"built {len(profiles.cell_ids)} profiles; cell 1 day-period means:")
print("  " + ", ".join(f"{m:.1f}" for m in profiles.points[0]))

curve = elbow_scan(profiles, k_max=10, seed=0)
print("\nSSE by k:")
for k, sse in curve.entries:
    bar = "#" * max(1, int(40 * sse / curve.entries[0][1]))
    print(f"  k={k:2d} sse={sse:12.1f} {bar}")

k = knee_point(curve)
print(f"\nknee picks k={k} (the city was built from {len(spec.archetypes)} archetypes)")

model = kmeans(profiles, k=k, seed=0)
predicted = [model.assignment[c] for c in sorted(series)]
ari = adjusted_rand_index(truth, predicted)
print(f"k-means at k={k}: sse={model.sse:.3f} after {model.iterations_run} "
      f"Lloyd iterations, adjusted Rand vs truth = {ari:.3f}")

sizes = np.bincount(predicted, minlength=model.k)
print("cluster sizes:", ", ".join(str(int(s)) for s in sizes))
