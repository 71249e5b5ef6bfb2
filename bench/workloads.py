"""The benchmark's workloads.

Each workload is a synthetic city, generated from the benchmark's seed
with `cellcast.synth`, plus the pipeline config that runs on it. The
config reaches the pipeline in "input" mode, the way operator data
does, so the pipeline never sees the seed. The pipeline's own seed is
fixed; only the city changes with --seed.

Every workload has exactly one grid config per cell kind, so the
per-layer `recurrent.*` metrics are keyed by cell kind and carry the
same names on every workload.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass

from cellcast import synth

NOISE_SD = 5.0
UTC_OFFSET_HOURS = 1.0
PIPELINE_SEED = 0
MS_PER_DAY = 86_400_000
# Only the workload whose k is "auto" runs the elbow scan up to KMAX.
KMAX = 20
CELL_KINDS = ("lstm", "gru")


@dataclass(frozen=True)
class Workload:
    name: str
    archetypes: int
    cells_per_archetype: int
    days: int
    k: object  # int or "auto"
    hidden_layers: int
    units: int
    epochs: int
    runs: int
    workers: int

    def spec(self, seed: int) -> synth.SynthSpec:
        return synth.well_separated_city(
            n_archetypes=self.archetypes, cells_per_archetype=self.cells_per_archetype,
            days=self.days, seed=seed, noise_sd=NOISE_SD)

    def config_name(self, kind: str) -> str:
        return f"{kind}-{self.hidden_layers}L-{self.units}U"

    def pipeline_config(self, spec: synth.SynthSpec, data_dir: str) -> dict:
        """Config for `cellcast pipeline`; outputs go to ./out of the
        process's working directory."""
        offset_ms = round(UTC_OFFSET_HOURS * 3_600_000)
        first = datetime.date(1970, 1, 1) + datetime.timedelta(
            days=(spec.span_start + offset_ms) // MS_PER_DAY)
        last = first + datetime.timedelta(days=spec.days)
        return {
            "out_dir": "out",
            "input": [data_dir],
            "span": f"{first.isoformat()}..{last.isoformat()}",
            "utc_offset_hours": UTC_OFFSET_HOURS,
            "seed": PIPELINE_SEED,
            "k": self.k,
            "kmax": KMAX,
            "grid": {"hidden_layers": [self.hidden_layers], "units": [self.units],
                     "cell_kinds": list(CELL_KINDS)},
            "train": {"epochs": self.epochs, "runs": self.runs},
            "workers": self.workers,
        }


# Why each workload was chosen is in NOTES.md and BENCHMARK.json.
# grid-deep is not in BENCHMARK.json: its run times spread past the
# bounds on the shared host. It stays runnable for the 4L-250U layer
# profile that NOTES.md compares with the ROADMAP baseline.
WORKLOADS = {w.name: w for w in (
    Workload(
        name="frontend-city",
        archetypes=12, cells_per_archetype=80, days=2, k="auto",
        hidden_layers=1, units=4, epochs=1, runs=2, workers=1),
    Workload(
        name="grid-deep",
        archetypes=1, cells_per_archetype=48, days=6, k=1,
        hidden_layers=4, units=250, epochs=1, runs=2, workers=1),
    Workload(
        name="grid-small-pool",
        archetypes=2, cells_per_archetype=50, days=10, k=2,
        hidden_layers=1, units=50, epochs=2, runs=20, workers=2),
)}
