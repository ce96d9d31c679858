"""Benchmark orchestration: detector x dataset matrices and report files.

The runner applies the same protocol to every (series, detector) pair:
chronological split, standardization fitted on the train segment, optional
differencing, then :func:`~tsadkit.evaluation.timed_run`, which gives the
pair's results.csv row.  Failures and test segments whose labels hold one
class become status rows instead of aborting the batch.  Rows are produced
sequentially in one thread so the recorded timings are honest.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from collections import Counter
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .core import DetectorConfig, TimeSeries
from .data import (
    DATASET_IDS,
    SynthSpec,
    generate_synthetic,
    load_manifest,
    load_nab_csv,
    load_yahoo_csv,
)
from .detectors import get_detector
from .errors import InvalidSpec, NonFiniteValues, PeriodTooLong, TsadError
from .evaluation import ResultRow, RocCurve, timed_run
from .preprocessing import (
    SplitSpec,
    difference,
    fit_standardizer,
    seasonal_difference,
    split,
    standardize,
)

__all__ = ["RunConfig", "ResultRow", "smoke_series", "run_benchmark", "emit_reports"]

# Desk-scale built-in dataset: five seasonal series with point anomalies.
_SMOKE_SPECS = tuple(
    SynthSpec(
        length=1500, base="sine_seasonal", anomaly_rate=0.01, anomaly_kind="point",
        seed=seed, season_period=period,
    )
    for seed, period in ((101, 50), (102, 40), (103, 60), (104, 50), (105, 45))
)


@dataclass(frozen=True)
class RunConfig:
    """Everything one benchmark invocation needs, resolvable offline."""

    datasets: tuple
    detectors: tuple
    standardize: bool = True
    detrend: bool = False
    deseasonalize: bool = False
    period: Optional[int] = None
    split: SplitSpec = field(default_factory=SplitSpec)
    seed: int = 0
    output_dir: Path = Path("bench-out")
    data_dir: Optional[Path] = None

    def __post_init__(self):
        object.__setattr__(self, "datasets", tuple(self.datasets))
        object.__setattr__(self, "detectors", tuple(self.detectors))
        if not self.detectors:
            raise InvalidSpec("at least one detector is required")
        repeated = _repeats(self.detectors)
        if repeated:
            raise InvalidSpec(f"detectors occur more than once in the run: {repeated}")
        if self.period is not None and self.period < 1:
            raise InvalidSpec(f"period must be >= 1, got {self.period}")
        object.__setattr__(self, "output_dir", Path(self.output_dir))
        if self.data_dir is not None:
            object.__setattr__(self, "data_dir", Path(self.data_dir))


def _repeats(names) -> list[str]:
    """The names that occur more than once, sorted."""
    return sorted(name for name, count in Counter(names).items() if count > 1)


def smoke_series() -> list[TimeSeries]:
    """The built-in synthetic series every detector must handle end to end."""
    return [generate_synthetic(spec) for spec in _SMOKE_SPECS]


def _resolve_dataset(entry: str, data_dir: Optional[Path]) -> tuple[str, list[TimeSeries]]:
    if entry == "SYNTH":
        return "SYNTH", smoke_series()
    if entry in DATASET_IDS:
        if data_dir is None:
            raise InvalidSpec(
                f"dataset {entry} needs a data directory (flag --data-dir or TSAD_DATA_DIR)"
            )
        root = Path(data_dir) / entry
        if entry == "NYCT":
            series = load_nab_csv(root / "nyc_taxi.csv", root / "combined_windows.json")
            # Half-hourly sampling: one day spans 48 observations.
            return entry, [replace(series, period_hint=48)]
        manifest_path = root / "manifest.txt"
        if manifest_path.exists():
            paths = [path for _, path in load_manifest(manifest_path)]
        else:
            paths = sorted(root.glob("*.csv"))
        if not paths:
            raise InvalidSpec(f"no series files found under {root}")
        return entry, [load_yahoo_csv(path) for path in paths]
    # Anything else is a manifest path whose stem names the dataset.
    path = Path(entry)
    dataset_id = path.stem.upper()
    if dataset_id not in DATASET_IDS:
        raise InvalidSpec(f"unknown dataset_id {dataset_id!r}; expected one of {DATASET_IDS}")
    return dataset_id, [load_yahoo_csv(p) for _, p in load_manifest(path)]


def _pair_seed(base_seed: int, series_id: str, detector: str) -> int:
    digest = hashlib.blake2b(
        f"{base_seed}:{series_id}:{detector}".encode(), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big")


def _preprocess(config: RunConfig, series: TimeSeries) -> tuple[TimeSeries, TimeSeries]:
    """Split, standardize on train statistics, optionally difference.

    Standardization and differencing act on the whole series, so the train
    tail stays contiguous with the test; the cut then moves left by the
    points differencing dropped, and the test segment keeps every point.
    A value whose square overflows (|x| above ~1.34e154) fails the series
    before any of that: variances, distances and squared errors of such
    values are inf.
    """
    train, test = split(series, config.split)
    peak = float(np.abs(series.values).max())
    if peak * peak == math.inf:
        raise NonFiniteValues(
            f"series {series.series_id!r} holds a value of magnitude {peak!r}, whose square overflows"
        )
    if config.standardize:
        series = standardize(series, fit_standardizer(train))
    if config.deseasonalize:
        period = series.period_hint if config.period is None else config.period
        if period is None:
            raise InvalidSpec(
                f"series {series.series_id!r} has no period hint; pass an explicit period"
            )
        series = seasonal_difference(series, period)
    if config.detrend:
        series = difference(series, 1)
    cut = len(series) - len(test)
    if cut < 1:
        raise PeriodTooLong(f"differencing leaves no train observations from head={len(train)}")
    return series.segment(0, cut), series.segment(cut, len(series))


def run_benchmark(config: RunConfig) -> tuple[list[ResultRow], dict, dict]:
    """Run the full matrix; returns rows, the summary and the ROC curves.

    Deterministic apart from timings: every (series, detector) pair gets its
    own seed derived from the run seed, the series id and the detector name.
    Every dataset is loaded before any detector runs; a series id that
    occurs twice in the run raises InvalidSpec, because the curves and the
    ROC files are keyed by series id.
    """
    for name in config.detectors:
        get_detector(name)  # unknown names fail before any work happens
    datasets = [_resolve_dataset(str(entry), config.data_dir) for entry in config.datasets]
    repeated = _repeats(series.series_id for _, series_list in datasets for series in series_list)
    if repeated:
        raise InvalidSpec(f"series ids occur more than once in the run: {repeated}")

    rows: list[ResultRow] = []
    curves: dict[tuple[str, str], RocCurve] = {}
    for dataset_id, series_list in datasets:
        for series in series_list:
            rows.extend(_run_series(config, dataset_id, series, curves))
    return rows, _summarize(rows), curves


def _run_series(
    config: RunConfig,
    dataset_id: str,
    series: TimeSeries,
    curves: dict[tuple[str, str], RocCurve],
) -> list[ResultRow]:
    # A series that cannot be prepared gives every detector the same failed
    # row without running it.
    try:
        train, test = _preprocess(config, series)
    except TsadError as exc:
        reason = f"{type(exc).__name__}: {exc}"
        return [
            ResultRow(
                dataset_id, series.series_id, name, None, None, None, 0.0, 0.0, "failed", reason
            )
            for name in config.detectors
        ]
    rows = []
    for name in config.detectors:
        cfg = DetectorConfig(name=name, seed=_pair_seed(config.seed, series.series_id, name))
        row, curve = timed_run(get_detector(name), cfg, train, test)
        if curve is not None:
            curves[(series.series_id, name)] = curve
        rows.append(replace(row, dataset_id=dataset_id))
    return rows


def _summarize(rows: Sequence[ResultRow]) -> dict:
    """Per-dataset per-detector means plus the timing table (total, per-series)."""
    matrix: dict = {}
    for row in rows:
        cell = matrix.setdefault(row.dataset_id, {}).setdefault(
            row.detector,
            {"aucs": [], "total_seconds": 0.0, "n_ok": 0, "n_excluded": 0, "n_failed": 0},
        )
        cell["total_seconds"] += row.train_seconds + row.inference_seconds
        cell[f"n_{row.status}"] += 1
        if row.status == "ok":
            cell["aucs"].append(row.auc)
    summary: dict = {"datasets": {}, "n_rows": len(rows), "n_ok": 0}
    for dataset_id, detectors in matrix.items():
        summary["datasets"][dataset_id] = {}
        for name, cell in detectors.items():
            n_ok = cell["n_ok"]
            summary["n_ok"] += n_ok
            summary["datasets"][dataset_id][name] = {
                "mean_auc": (sum(cell["aucs"]) / n_ok) if n_ok else None,
                "total_seconds": cell["total_seconds"],
                "per_series_mean_seconds": (cell["total_seconds"] / n_ok) if n_ok else None,
                "n_ok": n_ok,
                "n_excluded": cell["n_excluded"],
                "n_failed": cell["n_failed"],
            }
    return summary


def _cell(value) -> str:
    """A results.csv cell: empty for a missing metric, repr for a float."""
    if value is None:
        return ""
    return repr(float(value)) if isinstance(value, float) else value


def _run_reprs(rates: np.ndarray) -> list[str]:
    """``repr`` of each rate, formatted once per run of equal rates.

    A ROC curve's rates only rise along it, and each vertex repeats the fpr
    or the tpr of the one before, so runs are long.  Runs end where the
    bits change, so -0.0 and 0.0 keep their own strings."""
    bits = rates.view(np.int64)
    starts = np.flatnonzero(np.concatenate(([True], bits[1:] != bits[:-1])))
    texts = np.array([repr(rate) for rate in rates[starts].tolist()], dtype=object)
    return np.repeat(texts, np.diff(np.append(starts, rates.size))).tolist()


def emit_reports(rows: Sequence[ResultRow], output_dir, summary: dict, curves: dict) -> None:
    """Write results.csv, summary.json and one ROC file per ok row.

    The results.csv columns are ``ResultRow``'s fields.  Floats are
    serialized with repr, so re-parsing them recovers the exact values.
    Any other ``*.csv`` file directly under ``roc/``, left by an earlier run
    into the same directory, is deleted.
    """
    output_dir = Path(output_dir)
    output_dir.mkdir(parents=True, exist_ok=True)
    columns = [column.name for column in fields(ResultRow)]
    with (output_dir / "results.csv").open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows([_cell(getattr(row, name)) for name in columns] for row in rows)
    with (output_dir / "summary.json").open("w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    roc_dir = output_dir / "roc"
    roc_dir.mkdir(exist_ok=True)
    written = set()
    for (series_id, detector), curve in curves.items():
        # The thresholds fall along the curve, all distinct: one repr each.
        columns = (_run_reprs(curve.fpr), _run_reprs(curve.tpr), map(repr, curve.thresholds.tolist()))
        text = "fpr,tpr,threshold\r\n" + "\r\n".join(map(",".join, zip(*columns))) + "\r\n"
        path = roc_dir / f"{series_id}_{detector}.csv"
        with path.open("w", newline="", encoding="utf-8") as fh:
            fh.write(text)
        written.add(path.name)
    for stale in roc_dir.glob("*.csv"):
        if stale.name not in written and stale.is_file():
            stale.unlink()
