"""Core domain types and the detector contract.

A detector is any object with ``fit(train, cfg) -> model`` and
``score(model, cfg, train, test) -> scores``: the model is whatever the
detector's fit returns, and the scores are a 1-D float array with one
score per test point.  ``evaluation.timed_run`` wraps them in the one
:class:`ScoreSeries` of a run, which rejects non-finite or
multi-dimensional scores.  A detector that needs a lookback reads it from
the train values just before the test (:func:`with_lookback`).  Scores
follow one orientation everywhere: higher means more anomalous.
Detectors whose natural output inverts (e.g. one-class SVM decision
values) negate internally.

Two window layouts exist, both read-only strided views of the series
values with one window per row (no copy; a consumer that hands windows to
BLAS copies one row block at a time):

* :func:`frame` returns ``(windows, targets)``, each window paired with the
  observation that follows it (forecasting layout: ``windows[i] =
  values[t-w : t]``, target ``values[t]``).
* :func:`subsequences` returns the window matrix alone; each window's last
  element *is* the scored observation (shape layout used by the
  clustering/density detectors, which assign a window's score to its final
  timestamp).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Mapping, Optional

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidHyperparameter,
    NonFiniteScores,
    NonFiniteValues,
    SeriesTooShort,
    UnknownHyperparameter,
)

__all__ = [
    "TimeSeries",
    "ScoreSeries",
    "DetectorConfig",
    "Derived",
    "parse_bool",
    "resolve",
    "frame",
    "subsequences",
    "with_lookback",
]


def _as_float_array(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise DimensionMismatch(f"{name} must be one-dimensional, got shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class TimeSeries:
    """Equidistant real-valued observations with optional binary anomaly labels.

    Observations are indexed by position only; no timestamp column is kept.
    """

    values: np.ndarray
    labels: Optional[np.ndarray] = None
    series_id: str = ""
    period_hint: Optional[int] = None

    def __post_init__(self):
        values = _as_float_array(self.values, "values")
        if values.size == 0:
            raise SeriesTooShort("a time series must contain at least one observation")
        if not np.all(np.isfinite(values)):
            raise NonFiniteValues(f"series {self.series_id!r} contains non-finite values")
        object.__setattr__(self, "values", values)
        if self.labels is not None:
            labels = np.asarray(self.labels, dtype=np.int64)
            if labels.shape != values.shape:
                raise DimensionMismatch(
                    f"labels length {labels.size} != values length {values.size}"
                )
            if not np.all((labels == 0) | (labels == 1)):
                raise ValueError("labels must be 0 or 1")
            object.__setattr__(self, "labels", labels)
        if self.period_hint is not None and self.period_hint < 1:
            raise ValueError("period_hint must be a positive integer")

    def __len__(self) -> int:
        return int(self.values.size)

    def segment(self, start: int, stop: int) -> "TimeSeries":
        """Contiguous sub-series [start:stop), labels carried through."""
        labels = None if self.labels is None else self.labels[start:stop]
        return replace(self, values=self.values[start:stop], labels=labels)

    @property
    def anomaly_count(self) -> int:
        return 0 if self.labels is None else int(self.labels.sum())


@dataclass(frozen=True)
class ScoreSeries:
    """One anomaly score per test point, in order; higher means more anomalous."""

    scores: np.ndarray

    def __post_init__(self):
        scores = _as_float_array(self.scores, "scores")
        if not np.all(np.isfinite(scores)):
            raise NonFiniteScores("scores contain non-finite values")
        object.__setattr__(self, "scores", scores)

    def __len__(self) -> int:
        return int(self.scores.size)


@dataclass(frozen=True)
class DetectorConfig:
    """Name, window width, hyperparameters and RNG seed.

    Each detector declares the keys it takes, with their defaults, in one
    ``params`` table; at fit time :func:`resolve` fills in missing keys,
    converts given values to their default's type and rejects unknown keys.
    """

    name: str
    window_width: int = 30
    hyperparameters: Mapping[str, object] = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self):
        if self.window_width < 1:
            raise ValueError("window_width must be >= 1")
        if not (0 <= int(self.seed) < 2**64):
            raise ValueError("seed must fit in an unsigned 64-bit integer")
        object.__setattr__(self, "hyperparameters", dict(self.hyperparameters))


class Derived(str):
    """A table default the detector works out at fit time; the text says how.

    ``kind`` is the type a given value is converted to.
    """

    def __new__(cls, text: str, kind: type = str):
        derived = super().__new__(cls, text)
        derived.kind = kind
        return derived


_TRUE = {"1", "true", "yes", "on"}
_FALSE = {"0", "false", "no", "off"}


def parse_bool(raw) -> bool:
    """A bool, or one of the spellings 1/true/yes/on and 0/false/no/off."""
    lowered = str(raw).lower()
    if lowered in _TRUE:
        return True
    if lowered in _FALSE:
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


def _parse_int(raw) -> int:
    """An integral number or integer string; a bool or a fraction is an error."""
    if isinstance(raw, (bool, np.bool_)):
        raise TypeError(f"expected an integer, got {raw!r}")
    value = int(raw)
    if not isinstance(raw, str) and value != raw:
        raise ValueError(f"expected an integer, got {raw!r}")
    return value


def resolve(cfg: DetectorConfig, params: Mapping[str, object]) -> dict:
    """Every hyperparameter in a detector's ``params`` table, for ``cfg``.

    A missing key gets its default, or None when the default is
    :class:`Derived`.  A given value is converted to its default's type
    (int, float or bool, parsed strictly; a tuple element-wise to int), or
    to a Derived default's ``kind``.  An int is never truncated: 2.0 and
    "3" convert, 2.7 and True do not.
    """
    unknown = set(cfg.hyperparameters) - set(params)
    if unknown:
        raise UnknownHyperparameter(
            f"{cfg.name}: unknown hyperparameter keys {sorted(unknown)}; "
            f"allowed: {sorted(params)}"
        )
    resolved = {key: None if isinstance(d, Derived) else d for key, d in params.items()}
    for key, value in cfg.hyperparameters.items():
        default = params[key]
        kind = default.kind if isinstance(default, Derived) else type(default)
        try:
            if kind is tuple:
                resolved[key] = tuple(_parse_int(v) for v in value)
            else:
                convert = {bool: parse_bool, int: _parse_int}.get(kind, kind)
                resolved[key] = convert(value)
        except (TypeError, ValueError, OverflowError) as exc:
            raise InvalidHyperparameter(
                f"{cfg.name}: {key}={value!r} is not a valid {kind.__name__}"
            ) from exc
    return resolved


def frame(series: TimeSeries, width: int) -> tuple[np.ndarray, np.ndarray]:
    """Sliding windows paired with the observation immediately after each.

    Returns ``(windows, targets)``: window i is row i of the ``(n - width,
    width)`` matrix, ``values[i : i + width]``, and its target is
    ``values[i + width]``: the :func:`subsequences` matrix without its last
    row, so it is a read-only strided view of the values, not a copy.
    """
    n = len(series)
    if n <= width:
        raise SeriesTooShort(f"need more than width={width} observations, got {n}")
    return subsequences(series, width)[:-1], series.values[width:]


def subsequences(series: TimeSeries, width: int) -> np.ndarray:
    """Plain sliding subsequences as an ``(n - width + 1, width)`` matrix.

    Row i is ``values[i : i + width]``, so a score computed from the window
    can be assigned to the window's final timestamp.  The matrix is a
    read-only strided view of the values, not a copy.
    """
    if width < 1:
        raise ValueError("width must be >= 1")
    values = series.values
    n = values.size
    if n < width:
        raise SeriesTooShort(f"need at least width={width} observations, got {n}")
    return np.lib.stride_tricks.sliding_window_view(values, width)


def with_lookback(train: TimeSeries, test: TimeSeries, k: int) -> TimeSeries:
    """The last ``k`` train values followed by the test values.

    Test point i sits at position k + i, so a detector that reads the k
    values before each point it scores can score every test point.  Labels
    are dropped: scoring never reads them.
    """
    if len(train) < k:
        raise SeriesTooShort(f"a lookback of {k} needs {k} train observations, got {len(train)}")
    values = np.concatenate((train.values[len(train) - k :], test.values))
    return replace(test, values=values, labels=None)
