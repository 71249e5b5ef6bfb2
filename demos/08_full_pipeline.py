"""Drive the whole pipeline through the command-line entry point.

One config file takes synthetic CDR logs through binning, clustering
with an automatic k, a seeded grid search, and the rank-test comparison,
leaving every artifact in the output directory. Running it twice with
the same seed reproduces every file byte for byte.
"""

import json
import tempfile
from pathlib import Path

from cellcast.cli import main

with tempfile.TemporaryDirectory() as tmp:
    out_dir = Path(tmp) / "run"
    config = {
        "out_dir": str(out_dir),
        "seed": 7,
        "synth": {
            "archetypes": [
                {"id": 0, "base_level": 15.0, "period_weights": [5, 1, 1, 1, 1, 1], "noise_sd": 0.3},
                {"id": 1, "base_level": 25.0, "period_weights": [1, 1, 5, 1, 1, 1], "noise_sd": 0.3},
            ],
            "cells_per_archetype": 3,
            "days": 10,
        },
        "k": "auto",
        "kmax": 5,
        "grid": {"hidden_layers": [1], "units": [6], "cell_kinds": ["lstm", "gru"]},
        "train": {"epochs": 4, "runs": 2},
    }
    config_path = Path(tmp) / "pipeline.json"
    config_path.write_text(json.dumps(config, indent=2))

    print("running: cellcast pipeline --config pipeline.json\n")
    rc = main(["pipeline", "--config", str(config_path)])
    print(f"\nexit code {rc}; artifacts written:")
    for path in sorted(out_dir.rglob("*")):
        if path.is_file():
            print(f"  {path.relative_to(out_dir)} ({path.stat().st_size} bytes)")

    summary = json.loads((out_dir / "summary.json").read_text())
    print("\nper-cluster winners from summary.json:")
    for cluster, configs in summary.items():
        best = [label for label, row in configs.items() if row["best"]]
        print(f"  cluster {cluster}: {', '.join(best)}")

    comparison = json.loads((out_dir / "comparison.json").read_text())
    for cluster, report in comparison.items():
        print(f"  cluster {cluster} rank test: p = {report['p_value']:.4f} "
              f"-> {report['verdict']}")
