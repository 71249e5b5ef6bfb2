"""Supervised-learning prep for one cluster series.

The protocol is fixed: a chronological split of the first TRAIN_FRACTION
of the values for training, min-max scaling fit on the training portion
only, and sliding windows of the previous WINDOW bins predicting the
next. Kept as pure functions over plain arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConstantSeries, SeriesTooShort

# Bins a forecaster reads to predict the next one.
WINDOW = 4
# Share of a series, from its start, that training sees; the rest is the test split.
TRAIN_FRACTION = 0.8


@dataclass(frozen=True)
class MinMaxScaler:
    """Affine map sending [lo, hi] to [0, 1]; values outside the fit
    range map outside [0, 1] without clipping."""

    lo: float
    hi: float

    def transform(self, values: np.ndarray) -> np.ndarray:
        return (np.asarray(values, dtype=np.float64) - self.lo) / (self.hi - self.lo)

    def inverse(self, scaled: np.ndarray) -> np.ndarray:
        return np.asarray(scaled, dtype=np.float64) * (self.hi - self.lo) + self.lo


@dataclass(frozen=True)
class SupervisedWindows:
    """Sliding-window samples in chronological order.

    origin_indices[i] is the index of targets[i] in the source series,
    so inputs[i] = series[origin-WINDOW .. origin) and targets[i] = series[origin].
    """

    inputs: np.ndarray  # shape (n_samples, WINDOW)
    targets: np.ndarray  # shape (n_samples,)
    origin_indices: np.ndarray  # shape (n_samples,), dtype int


def split_train_test(series: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First floor(TRAIN_FRACTION*n) values for training, the rest for testing."""
    series = np.asarray(series, dtype=np.float64)
    if series.size < 2:
        raise SeriesTooShort(f"need >= 2 values to split, got {series.size}")
    cut = int(np.floor(TRAIN_FRACTION * series.size))
    return series[:cut].copy(), series[cut:].copy()


def fit_scaler(train_series: np.ndarray) -> MinMaxScaler:
    train_series = np.asarray(train_series, dtype=np.float64)
    lo = float(train_series.min())
    hi = float(train_series.max())
    if hi <= lo:
        raise ConstantSeries(f"cannot scale a constant series (value {lo})")
    return MinMaxScaler(lo=lo, hi=hi)


def make_windows(series: np.ndarray) -> SupervisedWindows:
    """One sample per target index t in [WINDOW, n): the preceding
    WINDOW values predict series[t]."""
    series = np.asarray(series, dtype=np.float64)
    n = series.size
    if n <= WINDOW:
        raise SeriesTooShort(f"need > {WINDOW} values, got {n}")
    origins = np.arange(WINDOW, n)
    # The last view ends at the last value, which no sample reads as input.
    inputs = sliding_window_view(series, WINDOW)[:-1].copy()
    return SupervisedWindows(inputs=inputs, targets=series[origins].copy(),
                             origin_indices=origins)
