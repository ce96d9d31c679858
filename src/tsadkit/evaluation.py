"""Ranking metrics (ROC/AUC, best F-score, NMM) and timed detector runs.

A detector's ``score(model, cfg, train, test)`` returns a plain float
array; :func:`timed_run` wraps it in the run's one :class:`ScoreSeries`,
which the metrics take, and returns the pair's :class:`ResultRow`.  Every
detector scores every test point, so the metrics take the test labels as
they are, one per score.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import DetectorConfig, ScoreSeries, TimeSeries
from .errors import DegenerateLabels, DimensionMismatch, NaiveZero, NonFiniteValues, TsadError

__all__ = [
    "ResultRow",
    "RocCurve",
    "roc_auc",
    "best_f1",
    "naive_mse",
    "nmm",
    "timed_run",
]


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


@dataclass(frozen=True)
class RocCurve:
    """Vertices of a threshold sweep, from (fpr, tpr) = (0,0) to (1,1).

    ``fpr[i]`` and ``tpr[i]`` are the rates of the cut ``thresholds[i]``,
    the three columns of the curve's ROC file; the initial point uses +inf
    (nothing predicted positive).  Cuts that fall inside a straight run of
    the sweep are left out: they lie on the segment between the vertices
    around them, so the curve and its area are the same.
    """

    fpr: np.ndarray
    tpr: np.ndarray
    thresholds: np.ndarray

    def __post_init__(self):
        if self.fpr.ndim != 1 or not self.fpr.shape == self.tpr.shape == self.thresholds.shape:
            raise ValueError("fpr, tpr and thresholds must be 1-D and of one length")
        for rates in (self.fpr, self.tpr):
            if np.any(rates < -1e-12) or np.any(rates > 1.0 + 1e-12):
                raise ValueError("fpr/tpr must lie in [0, 1]")
            if np.any(np.diff(rates) < -1e-12):
                raise ValueError("fpr and tpr must be non-decreasing along the sweep")


def _check_labels(labels: np.ndarray) -> tuple[int, int]:
    positives = int(labels.sum())
    negatives = int(labels.size - positives)
    if positives == 0 or negatives == 0:
        raise DegenerateLabels(
            f"need both classes among the labels, got {positives} positives "
            f"and {negatives} negatives"
        )
    return positives, negatives


def _sweep(values: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cuts ``score >= u`` for every unique score ``u``, highest first.

    One descending sort and one cumulative sum give each cut's value, true
    positives and predicted positives (Fawcett 2006, Alg. 1-2).  Each run
    of equal sorted scores is one cut; ``!=`` finds the runs, so -0.0 and
    0.0 share one, as they compare equal.  The sort is numpy's default
    (SIMD) argsort, which may order a run's members any way: a run's counts
    do not depend on that order, and its value is taken from its largest
    index, the member a stable sort puts last, so a run holding both zeros
    gives the sign the stable sort gave.
    """
    if labels.shape != values.shape:
        raise DimensionMismatch(f"{labels.size} labels for {values.size} scores")
    order = np.argsort(-values)
    sorted_scores = values[order]
    starts = np.flatnonzero(np.concatenate(([True], sorted_scores[1:] != sorted_scores[:-1])))
    ends = np.append(starts[1:], values.size) - 1
    tp = np.cumsum(labels[order])[ends]
    return values[np.maximum.reduceat(order, starts)], tp, ends + 1


def roc_auc(scores: ScoreSeries, labels) -> tuple[RocCurve, float]:
    """ROC over the cuts ``score >= u``, one per unique score; trapezoid area.

    Tied scores step tp and fp simultaneously, which makes the area equal to
    the Mann-Whitney statistic with half credit for ties.  The area is taken
    over every cut; the curve keeps only the vertices, the cuts where the
    step in and the step out are not parallel (Fawcett 2006).
    """
    labels = np.asarray(labels, dtype=np.int64)
    positives, negatives = _check_labels(labels)
    cuts, tp, n_pred = _sweep(scores.scores, labels)
    fp = np.concatenate(([0], n_pred - tp))
    tp = np.concatenate(([0], tp))
    tpr = tp / positives
    fpr = fp / negatives
    # Rounding can put a perfect separation one ulp above 1.
    auc = min(float(np.trapezoid(tpr, fpr)), 1.0)
    # Exact on the integer counts: the cross product of consecutive steps.
    dtp, dfp = np.diff(tp), np.diff(fp)
    keep = np.ones(tp.size, dtype=bool)
    keep[1:-1] = dfp[:-1] * dtp[1:] != dtp[:-1] * dfp[1:]
    thresholds = np.concatenate(([np.inf], cuts))
    curve = RocCurve(fpr=fpr[keep], tpr=tpr[keep], thresholds=thresholds[keep])
    return curve, auc


def best_f1(scores: ScoreSeries, labels) -> float:
    """Maximum F-score over the cuts ``score >= u``, one per unique score."""
    labels = np.asarray(labels, dtype=np.int64)
    positives = int(labels.sum())
    if positives == 0:
        raise DegenerateLabels("need at least one positive label for the F-score")
    _, tp, n_pred = _sweep(scores.scores, labels)
    precision = tp / n_pred
    recall = tp / positives
    f1 = np.divide(
        2.0 * precision * recall, precision + recall, out=np.zeros_like(precision), where=tp > 0
    )
    return float(f1.max())


def naive_mse(series: TimeSeries) -> float:
    """MSE of the last-value forecast x̂_t = x_{t-1} over t = 1 .. n-1."""
    if len(series) < 2:
        raise NaiveZero("no index has a predecessor to forecast from")
    return float(np.mean(np.diff(series.values) ** 2))


def nmm(model_mse: float, naive: float) -> float:
    """Ratio of model MSE to naive last-value MSE; < 1 beats persistence."""
    if not naive > 0.0:
        raise NaiveZero(f"naive MSE must be positive, got {naive}")
    if not np.isfinite(naive):
        raise NonFiniteValues(f"naive MSE is {naive}; NMM undefined")
    return float(model_mse) / float(naive)


def timed_run(
    detector, cfg: DetectorConfig, train: TimeSeries, test: TimeSeries
) -> tuple[ResultRow, Optional[RocCurve]]:
    """Fit and score under monotonic wall-clock timers, then evaluate.

    Returns the pair's results.csv row, its ``dataset_id`` left empty, and
    its ROC curve, None unless the row is ok.  Test labels that hold one
    class, or none, make an excluded row before the fit, with zero timings.
    Detector and metric errors make a failed row instead of aborting the
    caller's batch; its timings cover the stages reached.  A detector must
    give one finite score per test point, as a 1-D array.  The run makes no
    internal concurrency; callers wanting meaningful timings must not run
    anything else in parallel.
    """

    def row(status, seconds=(0.0, 0.0), metrics=(None, None, None), reason=""):
        return ResultRow("", test.series_id, cfg.name, *metrics, *seconds, status, reason)

    if test.labels is None or int(test.labels.sum()) in (0, len(test)):
        return row("excluded", reason="test segment holds one label class"), None
    fit_end = score_end = None
    start = time.perf_counter()
    try:
        model = detector.fit(train, cfg)
        fit_end = time.perf_counter()
        raw = detector.score(model, cfg, train, test)
        score_end = time.perf_counter()
        scores = ScoreSeries(raw)
        if len(scores) != len(test):
            raise DimensionMismatch(f"{len(scores)} scores for {len(test)} test points")
        curve, auc = roc_auc(scores, test.labels)
        f1 = best_f1(scores, test.labels)
        # Finite scores above ~1e154 square to inf: nmm is then inf, an ok row.
        with np.errstate(over="ignore"):
            model_mse = float(np.mean(scores.scores**2))
        ratio = nmm(model_mse, naive_mse(test))
    except TsadError as exc:
        stop = time.perf_counter()
        fit_end = stop if fit_end is None else fit_end
        score_end = stop if score_end is None else score_end
        seconds = (fit_end - start, score_end - fit_end)
        return row("failed", seconds, reason=f"{type(exc).__name__}: {exc}"), None
    return row("ok", (fit_end - start, score_end - fit_end), (auc, f1, ratio)), curve
