"""Benchmark orchestration: detector x dataset matrices and report files.

The runner applies the same protocol to every (series, detector) pair:
chronological split, standardization fitted on the train segment, optional
differencing, then a timed fit+score+evaluate.  Failures and test segments
whose labels hold one class become status rows instead of aborting the
batch.  Rows are produced sequentially in one thread so the recorded
timings are honest.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Optional, Sequence

from .core import DetectorConfig, TimeSeries
from .data import (
    DATASET_IDS,
    SynthSpec,
    generate_synthetic,
    load_manifest,
    load_nab_csv,
    load_yahoo_csv,
)
from .detectors import DETECTOR_NAMES, get_detector
from .errors import InvalidSpec, PeriodTooLong, TsadError
from .evaluation import RocCurve, TimedRun, timed_run
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
_SMOKE_SPECS = (
    SynthSpec(length=1500, base="sine_seasonal", anomaly_rate=0.01, anomaly_kind="point", seed=101, season_period=50),
    SynthSpec(length=1500, base="sine_seasonal", anomaly_rate=0.01, anomaly_kind="point", seed=102, season_period=40),
    SynthSpec(length=1500, base="sine_seasonal", anomaly_rate=0.01, anomaly_kind="point", seed=103, season_period=60),
    SynthSpec(length=1500, base="sine_seasonal", anomaly_rate=0.01, anomaly_kind="point", seed=104, season_period=50),
    SynthSpec(length=1500, base="sine_seasonal", anomaly_rate=0.01, anomaly_kind="point", seed=105, season_period=45),
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
        if not self.detectors:
            raise InvalidSpec("at least one detector is required")
        object.__setattr__(self, "datasets", tuple(self.datasets))
        object.__setattr__(self, "detectors", tuple(self.detectors))
        object.__setattr__(self, "output_dir", Path(self.output_dir))
        if self.data_dir is not None:
            object.__setattr__(self, "data_dir", Path(self.data_dir))


@dataclass(frozen=True)
class ResultRow:
    """One line of results.csv; metrics are None unless status is ok."""

    dataset_id: str
    series_id: str
    detector: str
    auc: Optional[float]
    best_f1: Optional[float]
    nmm: Optional[float]
    train_seconds: float
    inference_seconds: float
    status: str
    failure_reason: str = ""


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
            manifest = load_manifest(manifest_path, entry)
            paths = [path for _, path in manifest.series]
        else:
            paths = sorted(root.glob("*.csv"))
        if not paths:
            raise InvalidSpec(f"no series files found under {root}")
        return entry, [load_yahoo_csv(path) for path in paths]
    # Anything else is a manifest path whose stem names the dataset.
    path = Path(entry)
    dataset_id = path.stem.upper()
    manifest = load_manifest(path, dataset_id)
    return dataset_id, [load_yahoo_csv(p) for _, p in manifest.series]


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
    """
    train, test = split(series, config.split)
    if config.standardize:
        series = standardize(series, fit_standardizer(train))
    if config.deseasonalize:
        period = config.period or series.period_hint
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
    """
    for name in config.detectors:
        get_detector(name)  # unknown names fail before any work happens

    rows: list[ResultRow] = []
    curves: dict[tuple[str, str], RocCurve] = {}
    for entry in config.datasets:
        dataset_id, series_list = _resolve_dataset(str(entry), config.data_dir)
        for series in series_list:
            rows.extend(_run_series(config, dataset_id, series, curves))
    return rows, _summarize(rows), curves


def _run_series(
    config: RunConfig,
    dataset_id: str,
    series: TimeSeries,
    curves: dict[tuple[str, str], RocCurve],
) -> list[ResultRow]:
    # A series that cannot be prepared, or whose test labels hold one class,
    # gives every detector the same status row without running it.
    skip: Optional[TimedRun] = None
    try:
        train, test = _preprocess(config, series)
        if test.labels is None or int(test.labels.sum()) in (0, len(test)):
            skip = TimedRun(0.0, 0.0, failure="test segment holds one label class", excluded=True)
    except TsadError as exc:
        skip = TimedRun(0.0, 0.0, failure=f"{type(exc).__name__}: {exc}")

    rows = []
    for name in config.detectors:
        if skip is None:
            cfg = DetectorConfig(name=name, seed=_pair_seed(config.seed, series.series_id, name))
            run = timed_run(get_detector(name), cfg, train, test)
            if run.ok:
                curves[(series.series_id, name)] = run.curve
        else:
            run = skip
        rows.append(
            ResultRow(
                dataset_id=dataset_id,
                series_id=series.series_id,
                detector=name,
                auc=run.auc,
                best_f1=run.best_f1,
                nmm=run.nmm,
                train_seconds=run.train_seconds,
                inference_seconds=run.inference_seconds,
                status=run.status,
                failure_reason=run.failure,
            )
        )
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


def emit_reports(rows: Sequence[ResultRow], output_dir, summary: dict, curves: dict) -> None:
    """Write results.csv, summary.json and one ROC file per ok row.

    The results.csv columns are ``ResultRow``'s fields.  Floats are
    serialized with repr, so re-parsing them recovers the exact values.
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
    for (series_id, detector), curve in curves.items():
        points = zip(curve.fpr.tolist(), curve.tpr.tolist(), curve.thresholds.tolist())
        text = "fpr,tpr,threshold\r\n" + "".join(f"{a!r},{b!r},{t!r}\r\n" for a, b, t in points)
        with (roc_dir / f"{series_id}_{detector}.csv").open("w", newline="", encoding="utf-8") as fh:
            fh.write(text)
