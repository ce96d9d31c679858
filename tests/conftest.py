"""Shared helpers for the test suite."""

from __future__ import annotations

import tracemalloc

import numpy as np

from tsadkit import RunConfig, SynthSpec, TimeSeries, generate_synthetic
from tsadkit.bench import _preprocess


def series(values, labels=None, series_id="t", period_hint=None) -> TimeSeries:
    return TimeSeries(
        values=np.asarray(values, dtype=np.float64),
        labels=None if labels is None else np.asarray(labels, dtype=np.int64),
        series_id=series_id,
        period_hint=period_hint,
    )


def raw_frame(windows) -> np.ndarray:
    """A window matrix, one window per row, as the window builders return it."""
    return np.asarray(windows, dtype=np.float64)


def long_synth(length: int = 40_000) -> tuple[TimeSeries, TimeSeries]:
    """(train, test) of a SYNTH-like series (sine_seasonal, period 25,
    seed 4) cut as a default run cuts it: at 40,000 points, 12,000 train
    and 28,000 test points."""
    spec = SynthSpec(length=length, base="sine_seasonal", anomaly_rate=0.02, seed=4, season_period=25)
    return _preprocess(RunConfig(datasets=("SYNTH",), detectors=("es",)), generate_synthetic(spec))


def traced_peak(build):
    """Result of ``build()`` and the peak bytes traced while it ran."""
    tracemalloc.start()
    try:
        out = build()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak


def bytes_dict_duplicates(reference: np.ndarray, block: np.ndarray) -> tuple:
    """LOF's duplicate rule as a dict keyed on each window's bytes, -0.0
    folded into 0.0 by ``+ 0.0``: (block row, first equal reference row)
    pairs.  Frozen here as the oracle for the sorted row index."""
    first_row: dict = {}
    for i, row in enumerate(reference + 0.0):
        first_row.setdefault(row.tobytes(), i)
    hits = [
        (r, i)
        for r, row in enumerate(block + 0.0)
        if (i := first_row.get(row.tobytes())) is not None
    ]
    return np.array(hits, dtype=np.intp).reshape(-1, 2).T
