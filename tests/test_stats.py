"""Metrics, Kruskal-Wallis rank statistics, chi-square tail, box summaries."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cellcast
from cellcast import (
    MetricSample,
    box_stats,
    chi_square_upper_tail,
    kruskal_wallis,
    mae,
    mse_loss,
    rmse,
)
from cellcast.errors import DomainError, Empty, EmptyGroup, LengthMismatch, TooFewGroups
from cellcast.stats import average_ranks, comparison_report, save_box_csv, save_comparison_json

finite_lists = st.lists(
    st.floats(min_value=-100, max_value=100), min_size=1, max_size=40
)


class TestMetrics:
    def test_exact_fit_is_zero(self):
        assert rmse([1.0, 2.0], [1.0, 2.0]) == 0.0
        assert mae([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_hand_values(self):
        assert abs(rmse([0.0, 1.0], [1.0, 1.0]) - math.sqrt(0.5)) < 1e-12
        assert abs(mae([0.0, 1.0], [1.0, 1.0]) - 0.5) < 1e-12

    def test_rmse_squares_to_mse(self):
        rng = np.random.default_rng(0)
        f, y = rng.random(50), rng.random(50)
        assert abs(rmse(f, y) ** 2 - mse_loss(f, y)) < 1e-12 * mse_loss(f, y)

    @given(finite_lists, st.floats(min_value=0.1, max_value=10), st.floats(min_value=-5, max_value=5))
    @settings(max_examples=50)
    def test_scale_equivariance(self, values, a, c):
        f = np.array(values)
        y = f[::-1].copy()
        af, ay = a * f + c, a * y + c
        assert abs(rmse(af, ay) - a * rmse(f, y)) < 1e-9 * (1 + a)
        assert abs(mae(af, ay) - a * mae(f, y)) < 1e-9 * (1 + a)

    def test_mae_never_exceeds_rmse(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            f, y = rng.random(30), rng.random(30)
            assert mae(f, y) <= rmse(f, y) + 1e-15

    def test_validation(self):
        with pytest.raises(LengthMismatch):
            rmse([1.0], [1.0, 2.0])
        with pytest.raises(Empty):
            mae([], [])


class TestRanks:
    def test_distinct_values(self):
        np.testing.assert_array_equal(average_ranks(np.array([30.0, 10.0, 20.0])), [3, 1, 2])

    def test_ties_share_average_rank(self):
        np.testing.assert_array_equal(
            average_ranks(np.array([1.0, 2.0, 2.0, 3.0])), [1, 2.5, 2.5, 4]
        )

    @given(st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=60))
    @settings(max_examples=60)
    def test_rank_sum_identity(self, values):
        ranks = average_ranks(np.array(values, dtype=float))
        n = len(values)
        assert abs(ranks.sum() - n * (n + 1) / 2) < 1e-9

    @given(st.lists(st.sampled_from([-2.5, -0.0, 0.0, 1.0, 1.5, 3.0, 1e300]), min_size=1,
                    max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_matches_scipy_rankdata(self, values):
        scipy_stats = pytest.importorskip("scipy.stats")
        pooled = np.array(values)
        assert average_ranks(pooled).tobytes() == scipy_stats.rankdata(pooled).tobytes()


class TestKruskalWallis:
    def test_reference_two_groups(self):
        result = kruskal_wallis([MetricSample("a", (1, 2, 3)), MetricSample("b", (4, 5, 6))])
        assert abs(result.H - 27 / 7) < 1e-9
        assert result.df == 1
        assert abs(result.p_value - 0.0495) < 1e-4
        assert not result.tie_corrected
        assert result.verdict == "different"

    def test_three_singletons(self):
        result = kruskal_wallis([MetricSample(l, (v,)) for l, v in zip("abc", (1.0, 2.0, 3.0))])
        assert abs(result.H - 2.0) < 1e-12
        assert result.df == 2
        assert abs(result.p_value - math.exp(-1)) < 1e-10
        assert result.verdict == "similar"

    def test_identical_groups_score_zero(self):
        result = kruskal_wallis([MetricSample("a", (1, 2, 3)), MetricSample("b", (1, 2, 3))])
        assert abs(result.H) < 1e-12
        assert result.p_value > 0.999
        assert result.tie_corrected

    def test_all_values_identical(self):
        """Tie correction would divide by zero; defined as no evidence at all."""
        result = kruskal_wallis([MetricSample("a", (5.0, 5.0)), MetricSample("b", (5.0, 5.0))])
        assert result.H == 0.0 and result.p_value == 1.0

    def test_validation(self):
        with pytest.raises(TooFewGroups):
            kruskal_wallis([MetricSample("a", (1, 2))])
        with pytest.raises(EmptyGroup):
            kruskal_wallis([MetricSample("a", (1, 2)), MetricSample("b", ())])

    @pytest.mark.parametrize("transform", [lambda x: 2 * x + 1, lambda x: x ** 3])
    def test_invariant_under_monotone_transforms(self, transform):
        rng = np.random.default_rng(2)
        groups = [MetricSample(str(i), tuple(rng.normal(loc=i, size=12))) for i in range(3)]
        mapped = [MetricSample(s.label, tuple(transform(v) for v in s.values)) for s in groups]
        a, b = kruskal_wallis(groups), kruskal_wallis(mapped)
        assert abs(a.H - b.H) < 1e-12 and a.p_value == b.p_value

    def test_matches_scipy(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng(3)
        for trial in range(15):
            k = int(rng.integers(2, 5))
            # integer-valued floats so ties occur regularly
            groups = [rng.integers(0, 6, size=int(rng.integers(3, 12))).astype(float) for _ in range(k)]
            if all(np.ptp(np.concatenate(groups)) == 0 for _ in [0]):
                continue
            ours = kruskal_wallis([MetricSample(str(i), tuple(g)) for i, g in enumerate(groups)])
            theirs = scipy_stats.kruskal(*groups)
            assert abs(ours.H - theirs.statistic) < 1e-9
            assert abs(ours.p_value - theirs.pvalue) < 1e-9


class TestChiSquareTail:
    def test_at_zero(self):
        for df in (1, 2, 7):
            assert chi_square_upper_tail(0.0, df) == 1.0

    def test_df2_closed_form(self):
        assert abs(chi_square_upper_tail(2.0, 2) - math.exp(-1)) < 1e-10
        for x in (0.5, 1.0, 5.0, 20.0):
            assert abs(chi_square_upper_tail(x, 2) - math.exp(-x / 2)) < 1e-10

    def test_df1_critical_value(self):
        assert abs(chi_square_upper_tail(3.8415, 1) - 0.05) < 1e-4

    def test_against_quadrature(self):
        """Independent oracle: numerically integrate the density itself."""
        integrate = pytest.importorskip("scipy.integrate")

        def density(t, df):
            return t ** (df / 2 - 1) * math.exp(-t / 2) / (2 ** (df / 2) * math.gamma(df / 2))

        for df in (1, 2, 3, 5, 10):
            for x in (0.5, 2.0, 7.5, 20.0):
                lower, _ = integrate.quad(density, 0, x, args=(df,), limit=200)
                assert abs(chi_square_upper_tail(x, df) - (1.0 - lower)) < 1e-9

    def test_matches_gammaincc(self):
        """The closed forms against scipy's regularized upper incomplete
        gamma, out to x where the tail underflows."""
        special = pytest.importorskip("scipy.special")
        for df in range(1, 31):
            for x in (0.0, 1e-12, 0.5, 3.84, 20.0, 200.0, 2000.0):
                ours = chi_square_upper_tail(x, df)
                theirs = float(special.gammaincc(df / 2.0, x / 2.0))
                assert math.isfinite(ours), (df, x)
                assert (abs(ours - theirs) <= 1e-12 * theirs
                        or abs(ours - theirs) <= 1e-300), (df, x, ours, theirs)

    def test_large_arguments_stay_finite(self):
        for df in (1, 2, 999, 1000):
            for x in (1e4, 1e300, math.inf):
                assert chi_square_upper_tail(x, df) == 0.0

    def test_strictly_decreasing_in_x(self):
        xs = np.linspace(0.0, 30.0, 40)
        for df in (1, 4, 9):
            tails = [chi_square_upper_tail(float(x), df) for x in xs]
            assert all(a > b for a, b in zip(tails, tails[1:]))

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            chi_square_upper_tail(-0.1, 2)
        with pytest.raises(DomainError):
            chi_square_upper_tail(1.0, 0)


class TestBoxStats:
    def test_five_point_hand_values(self):
        b = box_stats([1.0, 2.0, 3.0, 4.0, 5.0])
        assert (b.median, b.q1, b.q3, b.iqr) == (3.0, 2.0, 4.0, 2.0)
        assert (b.whisker_low, b.whisker_high) == (1.0, 5.0)
        assert b.outliers == ()

    def test_constant_sample(self):
        b = box_stats([7.0] * 9)
        assert b.median == b.q1 == b.q3 == b.whisker_low == b.whisker_high == 7.0
        assert b.outliers == ()

    def test_outlier_flagged(self):
        b = box_stats([1.0, 2.0, 3.0, 4.0, 100.0])
        assert b.outliers == (100.0,)
        assert b.whisker_high == 4.0  # most extreme point inside the fence

    def test_permutation_invariant(self):
        rng = np.random.default_rng(4)
        values = np.concatenate([rng.random(20), [50.0, -50.0]])
        b1 = box_stats(values)
        b2 = box_stats(rng.permutation(values))
        assert b1 == b2

    @given(st.lists(st.floats(min_value=-1e3, max_value=1e3), min_size=1, max_size=50))
    @settings(max_examples=60)
    def test_quartile_ordering(self, values):
        b = box_stats(values)
        assert b.q1 <= b.median <= b.q3
        assert b.whisker_low >= b.q1 - 1.5 * b.iqr - 1e-9
        assert b.whisker_high <= b.q3 + 1.5 * b.iqr + 1e-9

    def test_empty_rejected(self):
        with pytest.raises(Empty):
            box_stats([])


class TestReports:
    def test_comparison_report_shape(self):
        report = comparison_report(
            [MetricSample("LSTM-0-1L-8U", (1, 2, 3)), MetricSample("GRU-0-1L-8U", (4, 5, 6))]
        )
        assert set(report) == {"groups", "H", "df", "p_value", "verdict"}
        assert report["groups"] == ["LSTM-0-1L-8U", "GRU-0-1L-8U"]
        assert report["verdict"] in ("different", "similar")

    def test_comparison_json_written(self, tmp_path):
        report = comparison_report([MetricSample("a", (1, 2, 3)), MetricSample("b", (4, 5, 6))])
        path = tmp_path / "comparison.json"
        save_comparison_json(report, str(path))
        import json

        assert json.loads(path.read_text()) == report
        assert path.read_text().endswith("\n")

    def test_box_csv_layout(self, tmp_path):
        samples = [MetricSample("cfg", (1.0, 2.0, 3.0, 4.0, 100.0))]
        path = tmp_path / "box.csv"
        save_box_csv(samples, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "label,median,q1,q3,lo,hi,outliers"
        fields = lines[1].split(",")
        assert fields[0] == "cfg" and fields[6] == "100"


def test_import_loads_no_scipy():
    """scipy is a test oracle only: importing the package and its command
    line must not pull it in."""
    src = str(Path(cellcast.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = ("import sys, cellcast, cellcast.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert done.stdout.strip() == "[]"
