"""Chronological splitting, min-max scaling, sliding windows."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cellcast import fit_scaler, make_windows, split_train_test
from cellcast.errors import ConstantSeries, SeriesTooShort
from cellcast.prep import TRAIN_FRACTION


class TestSplit:
    @pytest.mark.parametrize(
        "n,fraction,train,test",
        [(10, 0.8, 8, 2), (2976, 0.8, 2380, 596), (2, 0.8, 1, 1)],
    )
    def test_floor_split_sizes(self, n, fraction, train, test):
        assert TRAIN_FRACTION == fraction
        a, b = split_train_test(np.arange(n, dtype=float))
        assert (len(a), len(b)) == (train, test)

    def test_split_is_chronological(self):
        a, b = split_train_test(np.arange(10.0))
        np.testing.assert_array_equal(a, np.arange(8.0))
        np.testing.assert_array_equal(b, [8.0, 9.0])

    def test_split_returns_copies(self):
        series = np.arange(10.0)
        a, _ = split_train_test(series)
        a[0] = -1
        assert series[0] == 0.0

    def test_split_validation(self):
        with pytest.raises(SeriesTooShort):
            split_train_test(np.array([1.0]))

    @given(st.integers(min_value=2, max_value=5000))
    def test_split_partitions_without_loss(self, n):
        a, b = split_train_test(np.arange(float(n)))
        assert len(a) + len(b) == n and len(a) >= 1 and len(b) >= 1


class TestScaler:
    def test_fit_bounds(self):
        scaler = fit_scaler(np.array([2.0, 4.0, 6.0]))
        assert (scaler.lo, scaler.hi) == (2.0, 6.0)
        np.testing.assert_allclose(scaler.transform(np.array([2.0, 4.0, 6.0])), [0.0, 0.5, 1.0])

    def test_out_of_range_values_not_clipped(self):
        scaler = fit_scaler(np.array([2.0, 6.0]))
        assert scaler.transform(np.array([8.0]))[0] == 1.5
        assert scaler.transform(np.array([0.0]))[0] == -0.5

    def test_round_trip(self):
        scaler = fit_scaler(np.array([3.0, 11.0]))
        values = np.linspace(-5, 20, 101)
        np.testing.assert_allclose(scaler.inverse(scaler.transform(values)), values, atol=1e-12)

    def test_constant_series_rejected(self):
        with pytest.raises(ConstantSeries):
            fit_scaler(np.full(10, 7.0))

    def test_fit_on_train_only_leaves_test_unbounded(self):
        """Scaling is fit before seeing the test split, so test values
        may land outside [0, 1]; that is the correct, leak-free behavior."""
        series = np.concatenate([np.linspace(0, 10, 80), np.linspace(10, 25, 20)])
        train, test = split_train_test(series)
        scaler = fit_scaler(train)
        assert scaler.transform(test).max() > 1.0

    @given(
        st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=2, max_size=50).filter(
            lambda v: max(v) > min(v)
        )
    )
    def test_transform_maps_fit_range_to_unit(self, values):
        scaler = fit_scaler(np.array(values))
        out = scaler.transform(np.array(values))
        assert abs(out.min() - 0.0) < 1e-9 and abs(out.max() - 1.0) < 1e-9


class TestWindows:
    def test_reference_example(self):
        w = make_windows(np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0]))
        np.testing.assert_array_equal(w.inputs, [[1, 2, 3, 4], [2, 3, 4, 5]])
        np.testing.assert_array_equal(w.targets, [5.0, 6.0])
        np.testing.assert_array_equal(w.origin_indices, [4, 5])

    def test_sample_count_is_length_minus_window(self):
        for n in (5, 48, 596, 2380):
            w = make_windows(np.arange(float(n)))
            assert len(w.targets) == n - 4

    def test_too_short_series(self):
        with pytest.raises(SeriesTooShort):
            make_windows(np.arange(4.0))

    @given(st.integers(min_value=5, max_value=3000), st.integers(min_value=0, max_value=2**32 - 1))
    def test_matches_a_slice_per_target(self, n, seed):
        series = np.random.default_rng(seed).random(n)
        w = make_windows(series)
        expected = np.array([series[t - 4:t] for t in range(4, n)])
        assert w.inputs.flags.c_contiguous
        np.testing.assert_array_equal(w.inputs, expected)
        np.testing.assert_array_equal(w.targets, series[4:])
        np.testing.assert_array_equal(w.origin_indices, np.arange(4, n))

    def test_windows_after_split_do_not_cross_the_cut(self):
        """Each split is windowed independently; no sample mixes them."""
        series = np.arange(30.0)
        train, test = split_train_test(series)
        wt = make_windows(test)
        # the first test sample draws only on test values
        np.testing.assert_array_equal(wt.inputs[0], test[:4])

