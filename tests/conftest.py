"""Shared fixtures: small synthetic city specs, a noiseless periodic
series, and a CLI runner with a memory cap."""

import os
import resource
import subprocess
import sys

import numpy as np
import pytest

import cellcast
from cellcast import Archetype, BinnedCellSeries, SynthSpec

BIN_WIDTH_MS = 30 * 60 * 1000
BINS_PER_DAY = 48
SPAN_START = 1_383_260_400_000  # 2013-11-01 00:00 at UTC+1


def periodic_series(days=62, cell_id=0, span_start=SPAN_START):
    """Noiseless series with one smooth bump per day, values in [10, 30]."""
    t = np.arange(days * BINS_PER_DAY)
    values = 20.0 + 10.0 * np.sin(2.0 * np.pi * t / BINS_PER_DAY)
    return BinnedCellSeries(cell_id=cell_id, span_start=span_start, values=values)


@pytest.fixture
def extreme_cells():
    """Cells 11, 3 and 40, 12 bins each, whose values span twenty decades;
    cell 11 starts with 0.0, 1/3, the smallest subnormal and the largest
    float64."""
    rng = np.random.default_rng(2024)
    values = rng.lognormal(size=(3, 12)) * 10.0 ** rng.integers(-5, 6, size=(3, 1))
    values[0, :4] = [0.0, 1 / 3, 5e-324, 1.7976931348623157e308]
    return {cid: BinnedCellSeries(cid, SPAN_START, row) for cid, row in zip((11, 3, 40), values)}


@pytest.fixture
def flat_spec():
    """One constant archetype, one cell, two days, no noise."""
    arch = Archetype(id=0, base_level=2.0, period_weights=(1.0,) * 6)
    return SynthSpec(archetypes=[arch], cells_per_archetype=1, days=2, seed=123)


@pytest.fixture
def small_city_spec():
    """Three well separated archetypes, two cells each, four days."""
    archs = []
    for i in range(3):
        weights = [1.0] * 6
        weights[2 * i] = 6.0
        archs.append(
            Archetype(
                id=i,
                base_level=10.0 * (i + 1),
                period_weights=tuple(weights),
                noise_sd=0.25,
            )
        )
    return SynthSpec(archetypes=archs, cells_per_archetype=2, days=4, seed=7)


@pytest.fixture
def daily_series():
    return periodic_series(days=62)


CLI_MEMORY_CAP = 1 << 30  # bytes of address space: room for numpy and a small run


def run_capped_cli(argv, limit=CLI_MEMORY_CAP):
    """(exit code, stderr) of cellcast.cli.main(argv), run in a child
    process whose address space RLIMIT_AS caps at `limit` bytes, so that
    a run that allocates without bound fails there and not in the test
    runner."""
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    src = os.path.dirname(os.path.dirname(cellcast.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from cellcast.cli import main; sys.exit(main(sys.argv[1:]))",
         *map(str, argv)],
        env=env, preexec_fn=cap, capture_output=True, text=True, timeout=300)
    return proc.returncode, proc.stderr


@pytest.fixture
def capped_cli():
    """run_capped_cli, for tests that feed the CLI sizes that could
    exhaust memory."""
    return run_capped_cli
