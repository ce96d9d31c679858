"""Dataset loading and synthetic series generation.

Real benchmark data comes as CSV files (web-traffic style single series and
the half-hourly taxi passenger count).  The synthetic generator produces
desk-scale series with a known carrier signal and exactly known injected
anomalies, so properties of the pipeline can be tested without any files.
"""

from __future__ import annotations

import csv
import json
import math
import operator
from dataclasses import dataclass
from datetime import datetime
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .core import TimeSeries
from .errors import (
    InvalidSpec,
    LabelFileMissingEntry,
    MissingColumn,
    ParseError,
)

__all__ = [
    "DATASET_IDS",
    "SynthSpec",
    "load_yahoo_csv",
    "load_nab_csv",
    "write_series_csv",
    "load_manifest",
    "synthetic_base",
    "generate_synthetic",
]

DATASET_IDS = ("UD1", "UD2", "UD3", "UD4", "NYCT", "SYNTH")

_VALUE_COLUMN = "value"
_LABEL_COLUMNS = ("is_anomaly", "anomaly")
_CHANGEPOINT_COLUMN = "changepoint"
# Data rows parsed per numpy call: enough to amortize the call, few enough
# that a chunk's tokens stay small beside the series they become.
_CHUNK_ROWS = 512


@dataclass(frozen=True)
class SynthSpec:
    """Recipe for one synthetic series: carrier signal plus injected anomalies."""

    length: int
    base: str = "ar_process"
    anomaly_rate: float = 0.02
    anomaly_kind: str = "point"
    seed: int = 0
    ar_coeffs: Optional[Sequence[float]] = None
    season_period: Optional[int] = None

    def __post_init__(self):
        if self.base not in ("ar_process", "sine_seasonal", "trend_plus_noise"):
            raise InvalidSpec(f"unknown base signal {self.base!r}")
        if self.anomaly_kind not in ("point", "collective", "changepoint"):
            raise InvalidSpec(f"unknown anomaly kind {self.anomaly_kind!r}")
        if self.length < 2:
            raise InvalidSpec("length must be >= 2")
        if not (0.0 < self.anomaly_rate < 1.0):
            raise InvalidSpec("anomaly_rate must lie in (0, 1)")
        if self.anomaly_rate * self.length < 1.0:
            raise InvalidSpec(
                f"anomaly_rate*length = {self.anomaly_rate * self.length:.3g} < 1; "
                "the series would contain no anomaly"
            )
        if not (0 <= int(self.seed) < 2**64):
            raise InvalidSpec("seed must fit in an unsigned 64-bit integer")
        if self.ar_coeffs is not None:
            coeffs = tuple(float(c) for c in self.ar_coeffs)
            if len(coeffs) == 0:
                raise InvalidSpec("ar_coeffs must be non-empty when given")
            if not _is_stationary(coeffs):
                raise InvalidSpec(f"ar_coeffs {coeffs} define a non-stationary process")
            object.__setattr__(self, "ar_coeffs", coeffs)
        if self.season_period is not None and self.season_period < 2:
            raise InvalidSpec("season_period must be >= 2")


def _is_stationary(coeffs: tuple[float, ...]) -> bool:
    """All roots of 1 - a1 z - ... - ap z^p must lie outside the unit circle."""
    # np.roots wants highest degree first: [-ap, ..., -a1, 1].
    poly = np.concatenate((-np.asarray(coeffs, dtype=np.float64)[::-1], [1.0]))
    roots = np.roots(poly)
    return bool(roots.size == 0 or np.min(np.abs(roots)) > 1.0)


def load_yahoo_csv(path) -> TimeSeries:
    """Load one web-traffic style CSV: a value column plus a binary label column.

    Accepts either (timestamp, value, is_anomaly) or
    (timestamps, value, anomaly[, changepoint]); when a changepoint column is
    present its flags are OR-ed into the labels, keeping a single binary
    channel.  Values and flags are parsed one chunk of rows at a time
    (see ``_parse_chunk``).
    """
    path = Path(path)
    # zip stops at the last column read: the changepoint flags may be absent.
    parsers = (_VALUES, _FLAGS, _FLAGS)
    chunks = [_parse_chunk(path, chunk, parsers) for chunk in _csv_chunks(path, _yahoo_columns)]
    values, labels, *changepoints = (np.concatenate(column) for column in zip(*chunks))
    for flags in changepoints:
        labels |= flags
    return TimeSeries(values=values, labels=labels, series_id=path.stem)


def _yahoo_columns(header: list[str]) -> list[str]:
    """The value column, the first label column present (``is_anomaly`` when
    none is) and the changepoint column when present."""
    label = next((c for c in _LABEL_COLUMNS if c in header), _LABEL_COLUMNS[0])
    changepoint = [_CHANGEPOINT_COLUMN] if _CHANGEPOINT_COLUMN in header else []
    return [_VALUE_COLUMN, label, *changepoint]


def _csv_chunks(path: Path, columns):
    """``(line_nos, tokens)`` per chunk of up to _CHUNK_ROWS non-blank data
    rows of a CSV file: the chunk's line numbers, and per named column a
    tuple of its fields in those rows.

    ``columns(header)`` names the two or more fields to read, given the
    header with its names stripped; a name the header lacks raises
    MissingColumn before any row is read.  Raises ParseError for an empty
    file, for a row whose field count differs from the header's, and for a
    header without data rows.  The file is streamed, and the rows before a
    row of the wrong field count are handed out before that row's error is
    raised, so a caller that parses each chunk as it comes reports an
    earlier row's parse error first, as a row-by-row reader does.
    """
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise ParseError(path, 1, "file is empty") from None
        indexes = []
        for name in columns(header):
            if name not in header:
                raise MissingColumn(name)
            indexes.append(header.index(name))
        fields = operator.itemgetter(*indexes)
        line_nos, rows, chunks = [], [], 0
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                if rows:
                    yield line_nos, tuple(zip(*rows))
                raise ParseError(path, line_no, f"expected {len(header)} fields, got {len(row)}")
            line_nos.append(line_no)
            rows.append(fields(row))
            if len(rows) == _CHUNK_ROWS:
                yield line_nos, tuple(zip(*rows))
                line_nos, rows, chunks = [], [], chunks + 1
        if rows:
            yield line_nos, tuple(zip(*rows))
        elif not chunks:
            raise ParseError(path, 2, "file contains a header but no data rows")


def _parse_chunk(path: Path, chunk, parsers) -> list:
    """Each column of a ``_csv_chunks`` chunk through its parser pair
    ``(whole, row)``.

    ``whole(tokens)`` parses a whole column in one call and raises
    ValueError if any token is bad.  Only then are the chunk's tokens walked
    with ``row(path, line_no, token)``, rows in file order and each row's
    fields in column order, to raise the ParseError of the first bad token:
    the error a row-by-row reader raises.
    """
    line_nos, columns = chunk
    try:
        return [whole(tokens) for (whole, _), tokens in zip(parsers, columns)]
    except ValueError:
        pass
    for line_no, fields in zip(line_nos, zip(*columns)):
        for (_, row), token in zip(parsers, fields):
            row(path, line_no, token)
    raise AssertionError(f"{path}: a column parser refused tokens that its row parser accepts")


def _floats(tokens) -> np.ndarray:
    """Tokens as float64, each parsed as ``float`` parses it (numpy calls
    it); ValueError unless every one parses to a finite value."""
    values = np.array(tokens, dtype=np.float64)
    if not np.isfinite(values).all():
        raise ValueError("non-finite value")
    return values


def _parse_float(path: Path, line_no: int, token: str) -> float:
    try:
        value = float(token)
    except ValueError:
        raise ParseError(path, line_no, f"cannot parse {token!r} as a number") from None
    if not math.isfinite(value):
        raise ParseError(path, line_no, f"non-finite value {token!r}")
    return value


def _flags(tokens) -> np.ndarray:
    """Tokens parsed as 0/1 flags, as int64; ValueError unless every one
    parses to 0 or 1."""
    flags = np.array(tokens, dtype=np.float64)
    if not ((flags == 0.0) | (flags == 1.0)).all():
        raise ValueError("label other than 0 or 1")
    return flags.astype(np.int64)


def _parse_flag(path: Path, line_no: int, token: str) -> None:
    if _parse_float(path, line_no, token) not in (0.0, 1.0):
        raise ParseError(path, line_no, f"label must be 0 or 1, got {token!r}")


def load_nab_csv(data_path, label_windows_path) -> TimeSeries:
    """Load a (timestamp, value) CSV and label it from a window file.

    The window file is JSON mapping a relative series path to a list of
    [start, end] ISO-8601 timestamp pairs; a point is anomalous iff its
    timestamp falls inside any window (bounds inclusive).
    """
    data_path = Path(data_path)
    chunks = [
        _parse_chunk(data_path, chunk, (_STAMPS, _VALUES))
        for chunk in _csv_chunks(data_path, lambda _: ["timestamp", _VALUE_COLUMN])
    ]
    stamps, values = (np.concatenate(column) for column in zip(*chunks))

    windows = _label_windows_for(data_path, Path(label_windows_path))
    labels = np.zeros(len(values), dtype=np.int64)
    for start, end in windows:
        labels[(stamps >= start) & (stamps <= end)] = 1
    return TimeSeries(values=values, labels=labels, series_id=data_path.stem)


def _stamps(tokens) -> np.ndarray:
    """Tokens parsed as ISO-8601 timestamps, as an object array."""
    return np.array([datetime.fromisoformat(token.strip()) for token in tokens], dtype=object)


def _parse_stamp(path: Path, line_no: int, token: str) -> datetime:
    try:
        return datetime.fromisoformat(token.strip())
    except ValueError:
        raise ParseError(path, line_no, f"cannot parse timestamp {token!r}") from None


# (whole column, one token) parser pairs for _parse_chunk.
_VALUES = (_floats, _parse_float)
_FLAGS = (_flags, _parse_flag)
_STAMPS = (_stamps, _parse_stamp)


def _label_windows_for(data_path: Path, label_path: Path) -> list[tuple[datetime, datetime]]:
    with label_path.open(encoding="utf-8") as fh:
        try:
            mapping = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(label_path, exc.lineno, exc.msg) from None
    key = _match_window_key(data_path, mapping)
    if key is None:
        raise LabelFileMissingEntry(
            f"no label windows for {data_path.name!r} in {label_path}"
        )
    windows = []
    for pair in mapping[key]:
        if len(pair) != 2:
            raise ParseError(label_path, 0, f"window {pair!r} is not a [start, end] pair")
        start = _parse_stamp(label_path, 0, pair[0])
        end = _parse_stamp(label_path, 0, pair[1])
        if end < start:
            raise ParseError(label_path, 0, f"window {pair!r} ends before it starts")
        windows.append((start, end))
    return windows


def _match_window_key(data_path: Path, mapping: dict) -> Optional[str]:
    """Match by exact key, then path suffix, then bare file name.

    Label files key windows by repository-relative paths; the data file may
    live anywhere, so the file name is the last-resort join column.
    """
    posix = data_path.as_posix()
    if posix in mapping:
        return posix
    for key in mapping:
        norm = key.replace("\\", "/")
        if posix.endswith("/" + norm) or posix == norm:
            return key
    for key in mapping:
        norm = key.replace("\\", "/")
        if norm.rsplit("/", 1)[-1] == data_path.name:
            return key
    return None


def write_series_csv(series: TimeSeries, path) -> None:
    """Serialize as (timestamp, value, is_anomaly) with round-trippable floats."""
    path = Path(path)
    labels = (
        series.labels
        if series.labels is not None
        else np.zeros(len(series), dtype=np.int64)
    )
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["timestamp", "value", "is_anomaly"])
        for i, (value, label) in enumerate(zip(series.values, labels), start=1):
            writer.writerow([i, repr(float(value)), int(label)])


def load_manifest(path) -> list[tuple[str, Path]]:
    """Read a manifest: one series path per line, '#' lines and blanks ignored.

    Returns ``(series_id, path)`` pairs in file order.  Relative paths
    resolve against the manifest's own directory; each series id is the
    file stem.
    """
    path = Path(path)
    entries: list[tuple[str, Path]] = []
    with path.open(encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            series_path = Path(line)
            if not series_path.is_absolute():
                series_path = path.parent / series_path
            entries.append((series_path.stem, series_path))
    return entries


def _season(spec: SynthSpec) -> Optional[int]:
    """The sine carrier's period, 50 unless the spec gives one; None for other bases."""
    if spec.base != "sine_seasonal":
        return None
    return spec.season_period if spec.season_period is not None else 50


def synthetic_base(spec: SynthSpec) -> np.ndarray:
    """Anomaly-free carrier signal for ``spec``; same stream the generator uses."""
    rng = np.random.default_rng(np.random.SeedSequence(spec.seed).spawn(2)[0])
    n = spec.length
    if spec.base == "ar_process":
        coeffs = np.asarray(spec.ar_coeffs if spec.ar_coeffs is not None else (0.6,))
        p = coeffs.size
        burn = 100
        noise = rng.standard_normal(n + burn)
        out = np.zeros(n + burn)
        for t in range(p, n + burn):
            out[t] = coeffs @ out[t - p : t][::-1] + noise[t]
        return out[burn:]
    if spec.base == "sine_seasonal":
        period = _season(spec)
        t = np.arange(n)
        # Noise kept small so windows one period apart stay close in L2,
        # which density detectors with default radii rely on.
        return np.sin(2.0 * np.pi * t / period) + 0.02 * rng.standard_normal(n)
    # trend_plus_noise
    t = np.arange(n)
    return 0.01 * t + 0.2 * rng.standard_normal(n)


def generate_synthetic(spec: SynthSpec) -> TimeSeries:
    """Build the carrier signal and inject exactly the labeled anomalies.

    Point anomalies displace single observations at least 6 sample standard
    deviations from the clean value there; collective anomalies shift one
    contiguous run; a changepoint shifts the mean from the change onward by
    at least 3 standard deviations and labels a trailing window of the
    change.  Deterministic for a given spec.
    """
    inject_rng = np.random.default_rng(np.random.SeedSequence(spec.seed).spawn(2)[1])
    values = synthetic_base(spec).copy()
    n = spec.length
    labels = np.zeros(n, dtype=np.int64)
    sd = float(values.std())
    if sd == 0.0:
        sd = 1.0
    k = max(1, round(spec.anomaly_rate * n))

    if spec.anomaly_kind == "point":
        idx = np.sort(inject_rng.choice(n, size=k, replace=False))
        signs = inject_rng.choice((-1.0, 1.0), size=k)
        magnitudes = sd * (6.0 + inject_rng.uniform(0.0, 2.0, size=k))
        values[idx] += signs * magnitudes
        labels[idx] = 1
    elif spec.anomaly_kind == "collective":
        k = min(k, n - 1)
        start = int(inject_rng.integers(0, n - k + 1))
        sign = float(inject_rng.choice((-1.0, 1.0)))
        values[start : start + k] += sign * 4.0 * sd
        labels[start : start + k] = 1
    else:  # changepoint: permanent mean shift, trailing window labeled
        lo, hi = n // 4, max(n // 4 + 1, (3 * n) // 4)
        change = int(inject_rng.integers(lo, hi))
        sign = float(inject_rng.choice((-1.0, 1.0)))
        shift = sign * sd * (3.0 + inject_rng.uniform(0.0, 1.0))
        values[change:] += shift
        labels[change : min(n, change + k)] = 1

    return TimeSeries(
        values=values,
        labels=labels,
        series_id=f"synth-{spec.base}-{spec.anomaly_kind}-{spec.seed}",
        period_hint=_season(spec),
    )
