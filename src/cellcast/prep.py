"""Supervised-learning prep for one cluster series.

Chronological 80/20 split, min-max scaling fit on the training portion
only, and sliding windows of the previous four bins predicting the next.
Kept as pure functions over plain arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConstantSeries, SeriesTooShort

WINDOW = 4


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
    so inputs[i] = series[origin-4 .. origin) and targets[i] = series[origin].
    """

    inputs: np.ndarray  # shape (n_samples, 4)
    targets: np.ndarray  # shape (n_samples,)
    origin_indices: np.ndarray  # shape (n_samples,), dtype int
    window: int = WINDOW


def split_train_test(series: np.ndarray, ratio: float = 0.8) -> tuple[np.ndarray, np.ndarray]:
    """First floor(ratio*n) values for training, the rest for testing."""
    series = np.asarray(series, dtype=np.float64)
    if series.size < 2:
        raise SeriesTooShort(f"need >= 2 values to split, got {series.size}")
    if not 0 < ratio < 1:
        raise ValueError(f"ratio must be in (0, 1), got {ratio}")
    cut = int(np.floor(ratio * series.size))
    return series[:cut].copy(), series[cut:].copy()


def fit_scaler(train_series: np.ndarray) -> MinMaxScaler:
    train_series = np.asarray(train_series, dtype=np.float64)
    lo = float(train_series.min())
    hi = float(train_series.max())
    if hi <= lo:
        raise ConstantSeries(f"cannot scale a constant series (value {lo})")
    return MinMaxScaler(lo=lo, hi=hi)


def make_windows(series: np.ndarray, window: int = WINDOW) -> SupervisedWindows:
    """One sample per target index t in [window, n): the preceding
    `window` values predict series[t]."""
    series = np.asarray(series, dtype=np.float64)
    n = series.size
    if n <= window:
        raise SeriesTooShort(f"need > {window} values, got {n}")
    origins = np.arange(window, n)
    inputs = np.stack([series[t - window:t] for t in origins])
    return SupervisedWindows(inputs=inputs, targets=series[origins].copy(),
                             origin_indices=origins, window=window)
