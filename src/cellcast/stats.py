"""Evaluation metrics and the rank-based model comparison.

RMSE and MAE score predictions; the Kruskal-Wallis test decides whether
per-run RMSE samples from competing configurations come from the same
distribution (verdict threshold p < 0.05); box-plot summary statistics
back the dispersion analysis.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from . import jsonfile
from .errors import DomainError, Empty, EmptyGroup, LengthMismatch, TooFewGroups

SIGNIFICANCE = 0.05


@dataclass(frozen=True)
class MetricSample:
    """Per-run metric values for one labeled configuration."""

    label: str
    values: tuple


@dataclass(frozen=True)
class KruskalWallisResult:
    H: float
    df: int
    p_value: float
    tie_corrected: bool

    @property
    def verdict(self) -> str:
        return "different" if self.p_value < SIGNIFICANCE else "similar"


@dataclass(frozen=True)
class BoxStats:
    median: float
    q1: float
    q3: float
    iqr: float
    whisker_low: float
    whisker_high: float
    outliers: tuple


def _paired(f, y) -> tuple[np.ndarray, np.ndarray]:
    f = np.asarray(f, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if f.shape != y.shape:
        raise LengthMismatch(f"predictions {f.shape} vs truths {y.shape}")
    if f.size == 0:
        raise Empty("nothing to score")
    return f, y


def rmse(f, y) -> float:
    f, y = _paired(f, y)
    return float(np.sqrt(np.mean((f - y) ** 2)))


def mae(f, y) -> float:
    f, y = _paired(f, y)
    return float(np.mean(np.abs(f - y)))


def _tie_groups(pooled: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sorted distinct values of `pooled` and how often each occurs,
    as np.unique(pooled, return_counts=True) gives them (every NaN is
    one value), without loading numpy.ma as np.unique does."""
    ordered = np.sort(pooled)
    starts = np.ones(ordered.size, dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=starts[1:])
    nan = np.isnan(ordered)
    starts[1:] &= ~(nan[1:] & nan[:-1])
    where = np.flatnonzero(starts)
    return ordered[where], np.diff(where, append=ordered.size)


def average_ranks(pooled: np.ndarray) -> np.ndarray:
    """Ranks 1..N with ties sharing the average of the ranks they span."""
    values, counts = _tie_groups(pooled)
    # A group of t equal values ending at rank c spans ranks c-t+1..c.
    return (np.cumsum(counts) - (counts - 1) / 2.0)[np.searchsorted(values, pooled)]


def kruskal_wallis(samples: list[MetricSample]) -> KruskalWallisResult:
    """Rank test of whether the groups share a distribution.

    H = 12/(N(N+1)) * sum(R_i^2 / n_i) - 3(N+1) on average ranks, divided
    by the tie correction 1 - sum(t^3 - t)/(N^3 - N) when ties exist.
    When every pooled value is identical the correction divides by zero;
    that degenerate case is defined as H = 0, p = 1 (no evidence of any
    difference). The p-value uses the chi-square approximation with
    df = groups - 1.
    """
    if len(samples) < 2:
        raise TooFewGroups(f"need >= 2 groups, got {len(samples)}")
    groups = []
    for s in samples:
        values = np.asarray(s.values, dtype=np.float64)
        if values.size == 0:
            raise EmptyGroup(f"group {s.label!r} is empty")
        groups.append(values)

    pooled = np.concatenate(groups)
    n_total = pooled.size
    df = len(groups) - 1

    ranks = average_ranks(pooled)
    _, tie_counts = _tie_groups(pooled)
    has_ties = bool(np.any(tie_counts > 1))

    if np.all(pooled == pooled[0]):
        return KruskalWallisResult(H=0.0, df=df, p_value=1.0, tie_corrected=True)

    h = 0.0
    start = 0
    for g in groups:
        r_sum = ranks[start:start + g.size].sum()
        h += r_sum * r_sum / g.size
        start += g.size
    h = 12.0 / (n_total * (n_total + 1)) * h - 3.0 * (n_total + 1)

    if has_ties:
        correction = 1.0 - float(((tie_counts ** 3 - tie_counts).sum())) / (n_total ** 3 - n_total)
        h /= correction

    return KruskalWallisResult(H=h, df=df, p_value=chi_square_upper_tail(h, df),
                               tie_corrected=has_ties)


def chi_square_upper_tail(x: float, df: int) -> float:
    """P(X >= x) for a chi-square variable, the regularized upper
    incomplete gamma Q(df/2, x/2), in closed form for integer df.

    With y = x/2, even df sums exp(-y) y^j / j! over j < df/2; odd df
    adds exp(-y) y^(j-1/2) / Gamma(j+1/2) for j = 1..(df-1)/2 to
    erfc(sqrt(y)). Each term is taken in log space, so a large x or df
    underflows to 0 instead of overflowing to inf or NaN.
    """
    if x < 0:
        raise DomainError(f"chi-square statistic must be >= 0, got {x}")
    if df < 1:
        raise DomainError(f"df must be >= 1, got {df}")
    if x == 0:
        return 1.0
    if x == math.inf:
        return 0.0
    y = x / 2.0
    log_y = math.log(y)
    if df % 2 == 0:
        return math.fsum(math.exp(j * log_y - y - math.lgamma(j + 1))
                         for j in range(df // 2))
    return math.fsum([math.erfc(math.sqrt(y))]
                     + [math.exp((j - 0.5) * log_y - y - math.lgamma(j + 0.5))
                        for j in range(1, (df + 1) // 2)])


def quartiles(values) -> tuple[float, float, float]:
    """First quartile, median and third quartile of a non-empty sample,
    the bits np.percentile(values, [25, 50, 75]) gives: linear
    interpolation between order statistics, NaN when the sample holds
    one. np.percentile would load numpy.ma through np.unique; this takes
    its steps without that call, down to the partition that orders
    0.0 and -0.0."""
    ordered = np.array(values, dtype=np.float64)
    n = ordered.size
    bounds = []  # (lower, upper, gamma) per quartile, as numpy finds them
    for q in (0.25, 0.5, 0.75):
        index = (n - 1) * q  # exact: q is a power-of-two fraction
        lower = -1 if index >= n - 1 else math.floor(index)
        bounds.append((lower, -1 if lower == -1 else lower + 1, index - lower))
    ordered.partition(sorted({0, -1}.union(*((lo, hi) for lo, hi, _ in bounds))))
    if np.isnan(ordered[-1]):
        return (float(ordered[-1]),) * 3
    out = []
    for lower, upper, gamma in bounds:
        a, b = ordered[lower], ordered[upper]
        diff = b - a
        out.append(float(b - diff * (1.0 - gamma) if gamma >= 0.5 else a + diff * gamma))
    return out[0], out[1], out[2]


def box_stats(values) -> BoxStats:
    """Quartiles by linear interpolation, whiskers at the most extreme
    points within 1.5 IQR of the quartiles, the rest flagged outliers."""
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise Empty("no values")
    q1, median, q3 = quartiles(values)
    iqr = q3 - q1
    lo_fence = q1 - 1.5 * iqr
    hi_fence = q3 + 1.5 * iqr
    inside = values[(values >= lo_fence) & (values <= hi_fence)]
    outliers = np.sort(values[(values < lo_fence) | (values > hi_fence)])
    return BoxStats(median=median, q1=q1, q3=q3, iqr=iqr,
                    whisker_low=float(inside.min()), whisker_high=float(inside.max()),
                    outliers=tuple(float(v) for v in outliers))


def comparison_report(samples: list[MetricSample]) -> dict:
    """Kruskal-Wallis verdict over the labeled samples, JSON-ready."""
    result = kruskal_wallis(samples)
    return {
        "groups": [s.label for s in samples],
        "H": result.H,
        "df": result.df,
        "p_value": result.p_value,
        "verdict": result.verdict,
    }


def save_comparison_json(report: dict, path: str) -> None:
    jsonfile.save(path, report, indent=2)


def save_box_csv(samples: list[MetricSample], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["label", "median", "q1", "q3", "lo", "hi", "outliers"])
        for s in samples:
            b = box_stats(np.asarray(s.values))
            writer.writerow([
                s.label,
                f"{b.median:.17g}", f"{b.q1:.17g}", f"{b.q3:.17g}",
                f"{b.whisker_low:.17g}", f"{b.whisker_high:.17g}",
                ";".join(f"{v:.17g}" for v in b.outliers),
            ])
