"""Workload table and the seeded input generator.

A workload is one detector x series matrix, run exactly as ``tsadkit run``
runs it.  The taxi workloads need input files; they are generated here from
the workload seed, in the two formats the program reads: Yahoo-style CSVs
behind a manifest (``<data>/UD1/manifest.txt``) and a NAB CSV with a
label-window JSON (``<data>/NYCT/``).  Generation happens during set-up,
outside every timed region.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np

ALL_DETECTORS = (
    "ar", "ma", "arima", "ses", "es", "pci",
    "kmeans", "dbscan", "lof", "iforest", "ocsvm", "gbt",
    "mlp", "autoencoder",
)
FAMILY = {
    **{name: "statistical" for name in ALL_DETECTORS[:6]},
    **{name: "ml" for name in ALL_DETECTORS[6:12]},
    **{name: "neural" for name in ALL_DETECTORS[12:]},
}

# NYC-taxi shape: 215 days of half-hourly counts.
TAXI_POINTS = 10_320
TOY_TAXI_POINTS = 2_880
SLOTS_PER_DAY = 48
# The program's default split keeps the leading 30 % for fitting; labels must
# fall after it or the pair would be tagged excluded.
TRAIN_RATIO = 0.3
_START = datetime(2014, 7, 1)


@dataclass(frozen=True)
class Workload:
    name: str
    datasets: tuple
    detectors: tuple
    series_ids: tuple


def workload(name: str, toy: bool) -> Workload:
    """The matrix for ``name``; ``toy`` shrinks it for the self-tests."""
    if name == "synth-zoo":
        # The toy version drops gbt, which alone takes ~90 % of the full run.
        detectors = tuple(d for d in ALL_DETECTORS if d != "gbt") if toy else ALL_DETECTORS
        series = tuple(f"synth-sine_seasonal-point-{seed}" for seed in range(101, 106))
        return Workload(name, ("SYNTH",), detectors, series)
    if name == "taxi-fast":
        # dbscan is left out: its default eps raises NoCorePoints on this shape.
        series = tuple(f"taxi_{i:02d}" for i in range(2 if toy else 4))
        return Workload(name, ("UD1",), ("ar", "ma", "ses", "pci", "kmeans", "iforest"), series)
    if name == "taxi-window":
        return Workload(name, ("NYCT",), ("lof", "ocsvm", "mlp", "autoencoder", "arima", "es"), ("nyc_taxi",))
    raise ValueError(f"unknown workload {name!r}")


WORKLOAD_NAMES = ("synth-zoo", "taxi-fast", "taxi-window")


def taxi_series(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray, list]:
    """Half-hourly passenger counts with daily and weekly seasonality.

    Returns integer-valued counts, point labels and the six labeled windows
    as inclusive ``(start, end)`` indices, all inside the test segment.
    Each window holds one injected disturbance (a drop, a surge, erratic
    counts or a flattened day pattern) over its middle 80-100 %, the way NAB
    labels a window around a known event.
    """
    t = np.arange(n)
    slot = t % SLOTS_PER_DAY
    day = t // SLOTS_PER_DAY
    phase = rng.uniform(-2.0, 2.0)

    def profile(s):
        angle = 2.0 * np.pi * (s - phase) / SLOTS_PER_DAY
        # Trough before dawn, a morning shoulder and an evening peak.
        return 1.0 - 0.55 * np.cos(angle - 0.55) - 0.18 * np.cos(2.0 * angle - 1.1)

    weekly = np.array([0.93, 0.97, 1.0, 1.04, 1.1, 1.08, 0.96]) * rng.uniform(0.97, 1.03, 7)
    level = rng.uniform(12_000.0, 16_000.0)
    trend = 1.0 + 0.06 * np.sin(2.0 * np.pi * t / n + rng.uniform(0.0, 2.0 * np.pi))
    noise = np.empty(n)
    noise[0] = 0.0
    shocks = rng.normal(0.0, 0.02, n)
    for i in range(1, n):
        noise[i] = 0.6 * noise[i - 1] + shocks[i]
    clean_factor = weekly[day % 7] * trend * (1.0 + noise)
    values = level * profile(slot) * clean_factor

    test_start = math.floor(TRAIN_RATIO * n)
    n_windows = 6
    slot_len = (n - test_start) // n_windows
    window_len = max(SLOTS_PER_DAY, min(4 * SLOTS_PER_DAY, slot_len // 2))
    windows = []
    for k in range(n_windows):
        lo = test_start + k * slot_len
        start = lo + int(rng.integers(slot_len // 8, slot_len - window_len - slot_len // 8))
        end = start + window_len
        mid = start + window_len // 2
        half = int(rng.integers(window_len * 4 // 10, window_len // 2))
        a, b = mid - half, mid + half
        kind = k % 4
        if kind == 0:
            values[a:b] *= rng.uniform(0.4, 0.5)
        elif kind == 1:
            values[a:b] *= rng.uniform(1.7, 1.9)
        elif kind == 2:
            values[a:b] *= 1.0 + rng.normal(0.0, 0.25, b - a)
        else:
            values[a:b] = level * clean_factor[a:b] * float(profile(slot[a:b]).mean())
        windows.append((start, end))
    counts = np.maximum(np.rint(values), 1.0)

    labels = np.zeros(n, dtype=np.int64)
    for start, end in windows:
        labels[start : end + 1] = 1
    if labels[test_start:].sum() == 0:
        raise RuntimeError("generated series has no anomalous label in its test segment")
    return counts, labels, windows


def write_inputs(spec: Workload, data_dir: Path, seed: int, toy: bool) -> None:
    """Write the files ``spec`` reads under ``data_dir``; SYNTH needs none."""
    n = TOY_TAXI_POINTS if toy else TAXI_POINTS
    streams = np.random.SeedSequence([seed, WORKLOAD_NAMES.index(spec.name)]).spawn(len(spec.series_ids))
    if spec.datasets == ("UD1",):
        root = data_dir / "UD1"
        root.mkdir(parents=True)
        names = []
        for series_id, stream in zip(spec.series_ids, streams):
            counts, labels, _ = taxi_series(np.random.default_rng(stream), n)
            name = f"{series_id}.csv"
            lines = ["timestamp,value,is_anomaly"]
            lines += [f"{t + 1},{int(v)},{int(y)}" for t, (v, y) in enumerate(zip(counts, labels))]
            (root / name).write_text("\n".join(lines) + "\n", encoding="utf-8")
            names.append(name)
        (root / "manifest.txt").write_text("\n".join(names) + "\n", encoding="utf-8")
    elif spec.datasets == ("NYCT",):
        root = data_dir / "NYCT"
        root.mkdir(parents=True)
        counts, _, windows = taxi_series(np.random.default_rng(streams[0]), n)
        stamps = [_START + timedelta(minutes=30 * t) for t in range(n)]
        lines = ["timestamp,value"]
        lines += [f"{stamp:%Y-%m-%d %H:%M:%S},{int(v)}" for stamp, v in zip(stamps, counts)]
        (root / "nyc_taxi.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        pairs = ",\n".join(
            f'    ["{stamps[a]:%Y-%m-%d %H:%M:%S}.000000", "{stamps[b]:%Y-%m-%d %H:%M:%S}.000000"]'
            for a, b in windows
        )
        (root / "combined_windows.json").write_text(
            '{\n  "realKnownCause/nyc_taxi.csv": [\n' + pairs + "\n  ]\n}\n", encoding="utf-8"
        )
