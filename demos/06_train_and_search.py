"""Run a small seeded grid search and read the results.

Every (configuration, run) pair trains from its own deterministic seed,
so the whole table reproduces bit for bit. The winner per cluster is the
configuration with the lowest mean test RMSE, with ties broken toward
the smaller network.
"""

import numpy as np

from cellcast import (
    BinnedCellSeries,
    GridSpec,
    TrainConfig,
    grid_search,
    naive_baseline,
    prepare_dataset,
    select_best,
)

SPAN_START = 1_383_260_400_000

t = np.arange(8 * 48)
values = 35.0 + 12.0 * np.sin(2.0 * np.pi * t / 48) + 4.0 * np.cos(2.0 * np.pi * t / 24)
dataset = prepare_dataset(BinnedCellSeries(cell_id=0, span_start=SPAN_START, values=values))
print(f"cluster 0: {dataset.train.targets.size} train windows, "
      f"{dataset.test.targets.size} test windows")

grid = GridSpec(hidden_layers=(1,), units=(4, 8), cell_kinds=("lstm", "gru"))
cfg = TrainConfig(epochs=100, runs=3, base_seed=0)
result = grid_search(grid, [dataset], cfg)

print(f"\n{len(result.runs)} runs finished; mean test RMSE per configuration:")
for label in sorted(result.mean_rmse, key=result.mean_rmse.get):
    runs = [r.rmse for r in result.runs if r.label == label]
    spread = max(runs) - min(runs)
    print(f"  {label}: mean {result.mean_rmse[label]:.4f} "
          f"(spread over {len(runs)} seeds {spread:.4f})")

best = result.best_config[0]
tie_set = select_best(result, 0)
print(f"\nwinner: {best}" + (f" (tied with {', '.join(tie_set[1:])})" if len(tie_set) > 1 else ""))

naive_rmse, naive_mae = naive_baseline(dataset.test)
verdict = "beats" if result.mean_rmse[best] < naive_rmse else "does not yet beat"
print(f"naive last-value baseline: rmse {naive_rmse:.4f}, mae {naive_mae:.4f}")
print(f"the winner {verdict} the baseline at this training budget")

trace = next(r for r in result.runs if r.label == best).loss_trace
print("\nwinner's first-run loss by epoch (every 10th):")
for epoch, loss in enumerate(trace):
    if epoch % 10 == 0 or epoch == len(trace) - 1:
        print(f"  epoch {epoch:2d}: {loss:.5f} " + "#" * max(1, int(50 * loss / trace[0])))
