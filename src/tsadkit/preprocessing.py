"""Chronological splitting, standardization and differencing.

All transforms are fitted on training data only and then applied unchanged
to later segments, preserving the causal ordering of a time series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import TimeSeries
from .errors import ConstantSeries, InvalidPeriod, NonFiniteValues, PeriodTooLong, SeriesTooShort

__all__ = [
    "SplitSpec",
    "StandardizeParams",
    "split",
    "fit_standardizer",
    "standardize",
    "difference",
    "seasonal_difference",
]


@dataclass(frozen=True)
class SplitSpec:
    """Chronological train/test ratio.

    The leading ``train_ratio`` share of the series is the train segment and
    everything after it the test segment: ``head = floor(train_ratio * n)``
    points train and ``n - head`` test.
    """

    train_ratio: float = 0.3

    def __post_init__(self):
        if not (0.0 < self.train_ratio < 1.0):
            raise ValueError("train_ratio must lie in (0, 1)")


def split(series: TimeSeries, spec: SplitSpec = SplitSpec()) -> tuple[TimeSeries, TimeSeries]:
    """Cut a series into contiguous (train, test) segments at its head."""
    n = len(series)
    if n < 10:
        raise SeriesTooShort(f"splitting requires at least 10 observations, got {n}")
    head = math.floor(spec.train_ratio * n)
    if head < 1:
        raise SeriesTooShort(
            f"train_ratio {spec.train_ratio} leaves no training observations from n={n}"
        )
    return series.segment(0, head), series.segment(head, n)


@dataclass(frozen=True)
class StandardizeParams:
    """Mean and population standard deviation of the fitting segment."""

    mu: float
    sigma: float

    def __post_init__(self):
        if not (np.isfinite(self.mu) and np.isfinite(self.sigma)):
            raise NonFiniteValues("standardization parameters must be finite")
        if self.sigma <= 0.0:
            raise ConstantSeries("standard deviation must be positive")


def fit_standardizer(train: TimeSeries) -> StandardizeParams:
    """Estimate (mu, sigma) on the training segment; sigma uses 1/n variance."""
    values = train.values
    mu = float(values.mean())
    sigma = float(values.std())
    if sigma == 0.0:
        raise ConstantSeries(f"series {train.series_id!r} is constant on the training segment")
    return StandardizeParams(mu=mu, sigma=sigma)


def standardize(series: TimeSeries, params: StandardizeParams) -> TimeSeries:
    """Apply (x - mu) / sigma elementwise; labels and id are unchanged."""
    return replace(series, values=(series.values - params.mu) / params.sigma)


def difference(series: TimeSeries, order: int = 1) -> TimeSeries:
    """First-difference the series ``order`` times.

    Each pass maps X to Y_t = X_t - X_{t-1}.  A differenced point inherits
    the label of its right endpoint, so an anomalous jump stays labeled at
    the timestamp where it appears.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    if order == 0:
        return series
    if len(series) <= order:
        raise SeriesTooShort(f"cannot difference {len(series)} points {order} times")
    values = series.values
    for _ in range(order):
        values = np.diff(values)
    labels = None if series.labels is None else series.labels[order:]
    return replace(series, values=values, labels=labels)


def seasonal_difference(series: TimeSeries, period: int) -> TimeSeries:
    """Subtract the observation one season back: Y_t = X_t - X_{t-period}."""
    if period < 1:
        raise InvalidPeriod(f"period must be >= 1, got {period}")
    n = len(series)
    if n <= period:
        raise PeriodTooLong(f"period {period} leaves no observations from n={n}")
    values = series.values[period:] - series.values[:-period]
    labels = None if series.labels is None else series.labels[period:]
    return replace(series, values=values, labels=labels)
