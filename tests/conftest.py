"""Shared helpers for the test suite."""

from __future__ import annotations

import numpy as np

from tsadkit import TimeSeries, WindowFrame


def series(values, labels=None, series_id="t", period_hint=None) -> TimeSeries:
    return TimeSeries(
        values=np.asarray(values, dtype=np.float64),
        labels=None if labels is None else np.asarray(labels, dtype=np.int64),
        series_id=series_id,
        period_hint=period_hint,
    )


def raw_frame(windows: np.ndarray) -> WindowFrame:
    """Wrap a bare window matrix; targets are placeholders."""
    windows = np.asarray(windows, dtype=np.float64)
    return WindowFrame(windows=windows, targets=np.zeros(windows.shape[0]))
