"""Univariate time-series anomaly detection toolkit.

Fourteen detectors behind one scoring contract (higher score means more
anomalous), plus dataset loading, preprocessing, evaluation metrics and a
benchmark runner with a CLI.
"""

from __future__ import annotations

from .bench import RunConfig, emit_reports, run_benchmark, smoke_series
from .core import (
    DetectorConfig,
    ScoreSeries,
    TimeSeries,
    frame,
    subsequences,
    with_lookback,
)
from .data import (
    DATASET_IDS,
    SynthSpec,
    generate_synthetic,
    load_manifest,
    load_nab_csv,
    load_yahoo_csv,
    synthetic_base,
    write_series_csv,
)
from .detectors import DETECTOR_NAMES, REGISTRY, catalog_lines, get_detector
from .errors import TsadError
from .evaluation import (
    ResultRow,
    RocCurve,
    best_f1,
    naive_mse,
    nmm,
    roc_auc,
    timed_run,
)
from .preprocessing import (
    SplitSpec,
    StandardizeParams,
    difference,
    fit_standardizer,
    seasonal_difference,
    split,
    standardize,
)

__version__ = "0.1.0"

__all__ = [
    "DATASET_IDS",
    "DETECTOR_NAMES",
    "REGISTRY",
    "DetectorConfig",
    "ResultRow",
    "RocCurve",
    "RunConfig",
    "ScoreSeries",
    "SplitSpec",
    "StandardizeParams",
    "SynthSpec",
    "TimeSeries",
    "TsadError",
    "best_f1",
    "catalog_lines",
    "difference",
    "emit_reports",
    "fit_standardizer",
    "frame",
    "generate_synthetic",
    "get_detector",
    "load_manifest",
    "load_nab_csv",
    "load_yahoo_csv",
    "naive_mse",
    "nmm",
    "roc_auc",
    "run_benchmark",
    "seasonal_difference",
    "smoke_series",
    "split",
    "standardize",
    "subsequences",
    "synthetic_base",
    "timed_run",
    "with_lookback",
    "write_series_csv",
]
