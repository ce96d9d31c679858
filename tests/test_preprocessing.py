"""Split protocol, standardization, and differencing."""

from __future__ import annotations

import math

import numpy as np
import pytest

from tsadkit import (
    SplitSpec,
    difference,
    fit_standardizer,
    seasonal_difference,
    split,
    standardize,
)
from tsadkit.errors import (
    ConstantSeries,
    InvalidPeriod,
    NonFiniteValues,
    PeriodTooLong,
    SeriesTooShort,
    TsadError,
)

from conftest import series


class TestSplit:
    def test_length_100(self):
        train, test = split(series(np.arange(100.0)))
        assert (train.values.size, test.values.size) == (30, 70)

    def test_length_10(self):
        train, test = split(series(np.arange(10.0)))
        assert (train.values.size, test.values.size) == (3, 7)

    def test_too_short(self):
        with pytest.raises(SeriesTooShort):
            split(series(np.arange(5.0)))

    def test_empty_train_is_a_clear_error(self):
        with pytest.raises(SeriesTooShort, match=r"train_ratio 0\.05 .* n=10"):
            split(series(np.arange(10.0)), SplitSpec(train_ratio=0.05))

    @pytest.mark.parametrize("n", [10, 11, 33, 100, 997, 1421])
    def test_partition_identity(self, n):
        whole = series(np.arange(float(n)))
        train, test = split(whole)
        assert train.values.size + test.values.size == n
        assert np.array_equal(np.concatenate((train.values, test.values)), whole.values)
        assert np.array_equal(test.values, whole.segment(math.floor(0.3 * n), n).values)

    def test_labels_carried(self):
        labels = np.zeros(100, dtype=np.int64)
        labels[[5, 29, 30, 50]] = 1
        train, test = split(series(np.arange(100.0), labels=labels))
        assert np.flatnonzero(train.labels).tolist() == [5, 29]
        assert np.flatnonzero(test.labels).tolist() == [0, 20]

    def test_spec_validation(self):
        for ratio in (0.0, 1.0, -0.1, float("nan")):
            with pytest.raises(ValueError):
                SplitSpec(train_ratio=ratio)


class TestStandardize:
    def test_hand_example(self):
        params = fit_standardizer(series([1.0, 3.0]))
        assert params.mu == 2.0
        assert params.sigma == 1.0
        out = standardize(series([1.0, 3.0, 5.0]), params)
        assert out.values.tolist() == [-1.0, 1.0, 3.0]

    def test_self_application_is_zero_mean_unit_std(self):
        rng = np.random.default_rng(7)
        train = series(rng.standard_normal(500) * 3.7 + 11.0)
        out = standardize(train, fit_standardizer(train))
        assert abs(out.values.mean()) < 1e-12
        assert abs(out.values.std() - 1.0) < 1e-12

    def test_constant_train(self):
        with pytest.raises(ConstantSeries):
            fit_standardizer(series([4.0, 4.0, 4.0]))

    def test_overflowing_variance_is_a_toolkit_error(self):
        values = np.random.default_rng(0).normal(size=300) * 1e307
        with np.errstate(over="ignore"), pytest.raises(NonFiniteValues, match="must be finite"):
            fit_standardizer(series(values))
        assert issubclass(NonFiniteValues, TsadError)

    def test_no_test_leakage(self):
        train = series([1.0, 2.0, 3.0, 4.0])
        a = fit_standardizer(train)
        # fitting sees only the train segment, so any test values are moot
        b = fit_standardizer(series([1.0, 2.0, 3.0, 4.0]))
        assert (a.mu, a.sigma) == (b.mu, b.sigma)

    def test_population_variance(self):
        params = fit_standardizer(series([1.0, 2.0, 3.0]))
        assert params.sigma == pytest.approx(np.sqrt(2.0 / 3.0), abs=1e-15)

    def test_labels_preserved(self):
        train = series([1.0, 3.0], labels=[0, 1])
        out = standardize(train, fit_standardizer(train))
        assert out.labels.tolist() == [0, 1]


class TestDifference:
    def test_first_differences(self):
        assert difference(series([1, 2, 4, 7]), 1).values.tolist() == [1.0, 2.0, 3.0]

    def test_second_differences(self):
        assert difference(series([1, 2, 4, 7]), 2).values.tolist() == [1.0, 1.0]

    def test_linear_trend_becomes_constant(self):
        a, b = 0.37, -4.0
        out = difference(series(a * np.arange(50.0) + b), 1)
        assert np.allclose(out.values, a, atol=1e-12)

    def test_labels_inherit_right_endpoint(self):
        out = difference(series([1, 2, 3, 4], labels=[0, 1, 0, 0]), 1)
        assert out.labels.tolist() == [1, 0, 0]

    def test_order_zero_is_identity(self):
        out = difference(series([5, 6, 7]), 0)
        assert out.values.tolist() == [5.0, 6.0, 7.0]

    def test_too_short(self):
        with pytest.raises(SeriesTooShort):
            difference(series([1.0]), 1)

    def test_overflowing_differences_are_a_toolkit_error(self):
        values = np.tile([1.5e308, -1.5e308], 10)
        with np.errstate(over="ignore"), pytest.raises(NonFiniteValues, match="non-finite"):
            difference(series(values), 1)

    @pytest.mark.parametrize("d", [1, 2])
    def test_cumsum_reconstruction(self, d):
        rng = np.random.default_rng(d)
        values = rng.standard_normal(40)
        out = difference(series(values), d)
        rebuilt = out.values
        for level in range(d, 0, -1):
            # the d leading values that differencing consumed seed the cumsum
            head = np.diff(values, level - 1)[0] if level > 1 else values[0]
            rebuilt = np.concatenate(([head], rebuilt)).cumsum()
        assert np.allclose(rebuilt, values, atol=1e-9)


class TestSeasonalDifference:
    def test_exact_periodicity_cancels(self):
        out = seasonal_difference(series([1, 2, 1, 2, 1, 2]), 2)
        assert out.values.tolist() == [0.0, 0.0, 0.0, 0.0]

    def test_sine_plus_trend(self):
        n = 25
        slope = 0.013
        t = np.arange(200.0)
        values = np.sin(2 * np.pi * t / n) + slope * t
        out = seasonal_difference(series(values), n)
        assert np.allclose(out.values, n * slope, atol=1e-9)

    def test_invalid_period(self):
        with pytest.raises(InvalidPeriod):
            seasonal_difference(series([1, 2, 3]), 0)

    def test_period_too_long(self):
        with pytest.raises(PeriodTooLong):
            seasonal_difference(series([1, 2, 3]), 3)

    def test_length_shrinks_by_period(self):
        out = seasonal_difference(series(np.arange(10.0)), 3)
        assert out.values.size == 7


class TestSeriesCopies:
    @pytest.mark.parametrize(
        "transform, dropped",
        [
            (lambda s: s.segment(3, 17), None),
            (lambda s: standardize(s, fit_standardizer(s)), 0),
            (lambda s: difference(s, 2), 2),
            (lambda s: seasonal_difference(s, 4), 4),
        ],
    )
    def test_id_period_hint_and_labels_carried(self, transform, dropped):
        rng = np.random.default_rng(8)
        labels = (rng.random(20) < 0.3).astype(int)
        source = series(rng.standard_normal(20), labels=labels, series_id="s7", period_hint=4)
        out = transform(source)
        assert out.series_id == "s7"
        assert out.period_hint == 4
        expected = labels[3:17] if dropped is None else labels[dropped:]
        assert out.labels.tolist() == expected.tolist()
        assert len(out) == expected.size
