"""ROC/AUC, F-score, NMM, and the timed evaluation wrapper."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

from tsadkit import (
    DetectorConfig,
    ResultRow,
    ScoreSeries,
    best_f1,
    naive_mse,
    nmm,
    roc_auc,
    timed_run,
)
from tsadkit.errors import (
    DegenerateLabels,
    DimensionMismatch,
    NaiveZero,
    NonFiniteValues,
    SeriesTooShort,
)

from conftest import series


def scored(values) -> ScoreSeries:
    values = np.asarray(values, dtype=np.float64)
    return ScoreSeries(values)


def mann_whitney_auc(scores, labels) -> float:
    """Pair-counting AUC with half credit for ties; the independent oracle."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = 0.0
    for p in pos:
        wins += np.sum(p > neg) + 0.5 * np.sum(p == neg)
    return wins / (pos.size * neg.size)


def brute_force_f1(scores, labels) -> float:
    """Best F of ``scores >= u`` over every unique ``u``; the independent oracle."""
    best = -1.0
    for cut in np.unique(scores):
        predicted = scores >= cut
        tp = int(np.sum(predicted & (labels == 1)))
        precision = tp / int(predicted.sum())
        recall = tp / int(labels.sum())
        f1 = 0.0 if tp == 0 else 2.0 * precision * recall / (precision + recall)
        best = max(best, f1)
    return best


def full_sweep(scores, labels) -> tuple[list[int], list[int], list[float]]:
    """(fp, tp) counts and threshold of every cut ``scores >= u``, highest first.

    The unthinned curve, one point per unique score after the (0, 0, inf)
    start, counted cut by cut; the frozen oracle for the thinned ROC curve.
    """
    fp, tp, thresholds = [0], [0], [np.inf]
    for cut in np.unique(scores)[::-1]:
        predicted = scores >= cut
        tp.append(int(np.sum(predicted & (labels == 1))))
        fp.append(int(predicted.sum()) - tp[-1])
        thresholds.append(float(cut))
    return fp, tp, thresholds


def collinear(fp, tp, before: int, at: int, after: int) -> bool:
    """Integer cross product: does point ``at`` lie on the line through the other two?"""
    return (fp[at] - fp[before]) * (tp[after] - tp[before]) == (tp[at] - tp[before]) * (
        fp[after] - fp[before]
    )


def ulp_neighbours(start: float, count: int) -> np.ndarray:
    """``count`` consecutive doubles upwards from ``start``."""
    grid = [start]
    for _ in range(count - 1):
        grid.append(np.nextafter(grid[-1], np.inf))
    return np.array(grid)


def score_families(rng, n):
    """Seeded score vectors: distinct, tied, three-valued, constant, adjacent doubles."""
    yield rng.standard_normal(n)
    yield np.round(rng.standard_normal(n), 1)
    yield rng.integers(0, 3, n).astype(np.float64)
    yield np.full(n, rng.standard_normal())
    yield ulp_neighbours(float(rng.standard_normal()), 6)[rng.integers(0, 6, n)]
    distinct = rng.standard_normal(n)
    yield np.where(rng.random(n) < 0.5, distinct, np.nextafter(distinct, np.inf))


def _separated(positives: int, negatives: int) -> tuple[np.ndarray, np.ndarray]:
    """Distinct scores that rank every positive above every negative; the
    positives sit at shuffled positions."""
    labels = np.zeros(positives + negatives, dtype=np.int64)
    labels[np.random.default_rng(positives).permutation(labels.size)[:positives]] = 1
    scores = np.empty(labels.size)
    scores[labels == 0] = np.arange(negatives)
    scores[labels == 1] = negatives + np.arange(positives)
    return scores, labels


class TestRocAuc:
    def test_perfect(self):
        _, auc = roc_auc(scored([1, 2, 3, 4]), [0, 0, 1, 1])
        assert auc == 1.0

    def test_inverted(self):
        _, auc = roc_auc(scored([1, 2, 3, 4]), [1, 1, 0, 0])
        assert auc == 0.0

    @pytest.mark.parametrize("positives, negatives", [(187, 207), (188, 209)])
    def test_a_perfect_separation_is_exactly_one(self, positives, negatives):
        # Summed over every fpr step, the trapezoids round one ulp above 1.
        scores, labels = _separated(positives, negatives)
        _, auc = roc_auc(scored(scores), labels)
        assert auc == 1.0

    def test_random_scores_near_half(self):
        rng = np.random.default_rng(0)
        scores = rng.random(10_000)
        labels = (rng.random(10_000) < 0.01).astype(int)
        _, auc = roc_auc(scored(scores), labels)
        assert 0.45 <= auc <= 0.55

    def test_matches_pair_counting(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            n = int(rng.integers(10, 400))
            scores = np.round(rng.standard_normal(n), 1)  # force ties
            labels = (rng.random(n) < 0.3).astype(int)
            if labels.sum() in (0, n):
                continue
            _, auc = roc_auc(scored(scores), labels)
            assert auc == pytest.approx(mann_whitney_auc(scores, labels), abs=1e-12)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(2)
        scores = rng.standard_normal(300)
        labels = (rng.random(300) < 0.2).astype(int)
        _, auc = roc_auc(scored(scores), labels)
        for transform in (np.exp, np.tanh, lambda s: 3 * s - 7):
            _, other = roc_auc(scored(transform(scores)), labels)
            assert other == pytest.approx(auc, abs=1e-12)

    def test_curve_shape(self):
        rng = np.random.default_rng(3)
        scores = np.round(rng.standard_normal(100), 1)
        labels = (rng.random(100) < 0.3).astype(int)
        curve, _ = roc_auc(scored(scores), labels)
        assert (curve.fpr[0], curve.tpr[0]) == (0.0, 0.0)
        assert (curve.fpr[-1], curve.tpr[-1]) == (1.0, 1.0)
        assert np.all(np.diff(curve.fpr) >= 0)
        assert np.all(np.diff(curve.tpr) >= 0)
        assert curve.thresholds[0] == np.inf

    def test_curve_keeps_only_vertices(self):
        curve, auc = roc_auc(scored([1, 2, 3, 4]), [0, 0, 1, 1])
        assert curve.fpr.tolist() == [0.0, 0.0, 1.0]
        assert curve.tpr.tolist() == [0.0, 1.0, 1.0]
        assert curve.thresholds.tolist() == [np.inf, 3.0, 1.0]
        assert auc == 1.0

    def test_thinned_curve_drops_exactly_the_collinear_cuts(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            n = int(rng.integers(2, 150))
            for scores in score_families(rng, n):
                labels = (rng.random(n) < rng.uniform(0.05, 0.6)).astype(int)
                labels[rng.integers(n)] = 1
                if labels.sum() == n:
                    continue
                curve, auc = roc_auc(scored(scores), labels)
                fp, tp, thresholds = full_sweep(scores, labels)
                last = len(fp) - 1
                kept = [0] + [i for i in range(1, last) if not collinear(fp, tp, i - 1, i, i + 1)]
                kept.append(last)
                negatives, positives = n - int(labels.sum()), int(labels.sum())
                expected = [[fp[i] / negatives, tp[i] / positives] for i in kept]
                assert np.column_stack((curve.fpr, curve.tpr)).tolist() == expected
                assert curve.thresholds.tolist() == [thresholds[i] for i in kept]
                # Every dropped cut lies on the segment between its kept neighbours.
                for before, after in zip(kept, kept[1:]):
                    for i in range(before + 1, after):
                        assert collinear(fp, tp, before, i, after)
                        assert fp[before] <= fp[i] <= fp[after]
                        assert tp[before] <= tp[i] <= tp[after]
                fpr, tpr = curve.fpr.tolist(), curve.tpr.tolist()
                area = math.fsum(
                    (fpr[i] - fpr[i - 1]) * (tpr[i] + tpr[i - 1]) / 2.0 for i in range(1, len(fpr))
                )
                assert area == pytest.approx(auc, abs=1e-12)
                assert auc == pytest.approx(mann_whitney_auc(scores, labels), abs=1e-12)

    def test_degenerate_labels(self):
        with pytest.raises(DegenerateLabels):
            roc_auc(scored([1, 2, 3]), [1, 1, 1])
        with pytest.raises(DegenerateLabels):
            roc_auc(scored([1, 2, 3]), [0, 0, 0])


class TestBestF1:
    def test_perfect(self):
        assert best_f1(scored([1, 2, 3, 4]), [0, 0, 1, 1]) == 1.0

    def test_all_equal_scores(self):
        n, p = 200, 0.01
        labels = np.zeros(n, dtype=int)
        labels[: int(n * p)] = 1
        f1 = best_f1(scored(np.ones(n)), labels)
        assert f1 == pytest.approx(2 * p / (p + 1), abs=1e-12)

    def test_single_positive_on_top(self):
        assert best_f1(scored([0.1, 0.2, 5.0]), [0, 0, 1]) == 1.0

    def test_beats_any_fixed_threshold(self):
        rng = np.random.default_rng(4)
        scores = rng.standard_normal(250)
        labels = (rng.random(250) < 0.15).astype(int)
        best = best_f1(scored(scores), labels)
        for delta in rng.standard_normal(25):
            pred = scores > delta
            tp = int(np.sum(pred & (labels == 1)))
            if tp == 0 or pred.sum() == 0:
                continue
            precision = tp / pred.sum()
            recall = tp / labels.sum()
            assert best >= 2 * precision * recall / (precision + recall) - 1e-12

    def test_degenerate(self):
        with pytest.raises(DegenerateLabels):
            best_f1(scored([1.0, 2.0]), [0, 0])

    def test_both_metrics_need_one_label_per_score(self):
        for metric in (roc_auc, best_f1):
            with pytest.raises(DimensionMismatch, match="3 labels for 4 scores"):
                metric(scored([1.0, 2.0, 3.0, 4.0]), [0, 1, 0])

    def test_matches_brute_force_over_every_cut(self):
        rng = np.random.default_rng(5)
        for _ in range(60):
            n = int(rng.integers(2, 150))
            for scores in score_families(rng, n):
                labels = (rng.random(n) < rng.uniform(0.02, 0.6)).astype(int)
                labels[rng.integers(n)] = 1
                f1 = best_f1(scored(scores), labels)
                assert isinstance(f1, float)
                assert f1 == brute_force_f1(scores, labels)

    def test_adjacent_doubles_keep_the_upper_cut(self):
        # The cut ``score >= 1.0000000000000004`` must be found although no
        # double lies strictly between it and the score below.
        low, high = ulp_neighbours(1.0000000000000002, 2)
        assert high == 1.0000000000000004
        assert best_f1(scored([low, high]), [0, 1]) == 1.0

    @pytest.mark.parametrize(
        "scores, labels",
        [
            ([1e308, 1.7e308], [0, 1]),  # near the largest double
            ([-1.7e308, -1e308], [0, 1]),  # ... and the most negative
            ([1e17, 3e17, 2e17], [1, 0, 1]),  # predict-all wins; 1.0 is below one ulp
            ([-1e17, 1.0, 2.0], [1, 0, 1]),  # ... with a negative lowest score
        ],
    )
    def test_threshold_reproduces_the_cut(self, scores, labels):
        # Extreme scales: the best F of the sweep equals the brute-force one.
        f1 = best_f1(scored(scores), labels)
        assert f1 == brute_force_f1(np.asarray(scores), np.asarray(labels))

    def test_lowest_cut_wins_ties(self):
        # Cuts at 4 and at 1 both give F = 2/3.
        assert best_f1(scored([4.0, 3.0, 2.0, 1.0, 0.0]), [1, 0, 0, 1, 0]) == 2.0 / 3.0
        # Here the tie includes the predict-everything cut.
        assert best_f1(scored([3.0, 2.0, 1.0, 0.0]), [1, 0, 0, 1]) == 2.0 / 3.0


class TestNmm:
    def test_equal_mses(self):
        assert nmm(1.0, 1.0) == 1.0

    def test_half(self):
        assert nmm(0.5, 1.0) == 0.5

    def test_naive_zero(self):
        with pytest.raises(NaiveZero):
            nmm(0.5, 0.0)

    def test_naive_not_finite(self):
        with pytest.raises(NonFiniteValues):
            nmm(np.inf, np.inf)
        assert nmm(np.inf, 1.0) == np.inf

    def test_naive_mse_definition(self):
        s = series([1.0, 2.0, 4.0, 4.0])
        # persistence forecast errors: 1, 2, 0 over indices 1..3
        assert naive_mse(s) == pytest.approx((1 + 4 + 0) / 3)

    def test_naive_mse_needs_two_points(self):
        with pytest.raises(NaiveZero):
            naive_mse(series([1.0]))

    def test_constant_series_breaks_the_ratio(self):
        flat = naive_mse(series([3.0, 3.0, 3.0]))
        assert flat == 0.0
        with pytest.raises(NaiveZero):
            nmm(0.5, flat)


class _SpyDetector:
    """Deterministic stand-in: scores are |x|, fit is a no-op."""

    name = "spy"

    def fit(self, train, cfg):
        return None

    def score(self, model, cfg, train, test):
        return np.abs(test.values)


class _HugeDetector(_SpyDetector):
    """Finite scores whose squares overflow: |x| * 1e200."""

    name = "huge"

    def score(self, model, cfg, train, test):
        return np.abs(test.values) * 1e200


class _ShortDetector(_SpyDetector):
    """Skips the first test point, as a detector without a lookback would."""

    name = "short"

    def score(self, model, cfg, train, test):
        return np.abs(test.values[1:])


class _GivenDetector(_SpyDetector):
    """Returns the scores it was built with, whatever the test."""

    name = "given"

    def __init__(self, scores):
        self.scores = scores

    def score(self, model, cfg, train, test):
        return self.scores


class _FailingDetector:
    name = "broken"

    def fit(self, train, cfg):
        raise SeriesTooShort("synthetic failure for the report path")

    def score(self, model, cfg, train, test):  # pragma: no cover - fit always raises
        raise AssertionError


class _RefusingDetector(_SpyDetector):
    """Fails any test that fits it."""

    name = "refusing"

    def fit(self, train, cfg):
        raise AssertionError("fit was called")


class TestTimedRun:
    def _data(self):
        rng = np.random.default_rng(5)
        train = series(rng.standard_normal(50))
        values = rng.standard_normal(100)
        labels = np.zeros(100, dtype=int)
        spikes = [10, 40, 77]
        values[spikes] = 9.0
        labels[spikes] = 1
        return train, series(values, labels=labels)

    def test_timers_and_metrics(self):
        train, test = self._data()
        run, _ = timed_run(_SpyDetector(), DetectorConfig(name="spy"), train, test)
        assert run.status == "ok"
        assert run.train_seconds >= 0 and run.inference_seconds >= 0
        assert run.auc == 1.0

    def test_the_row_names_its_pair_and_leaves_the_dataset_to_the_caller(self):
        train, test = self._data()
        run, curve = timed_run(_SpyDetector(), DetectorConfig(name="spy"), train, test)
        assert (run.dataset_id, run.series_id, run.detector) == ("", "t", "spy")
        assert run.failure_reason == ""
        expected, _ = roc_auc(ScoreSeries(np.abs(test.values)), test.labels)
        assert np.array_equal(curve.fpr, expected.fpr)
        assert np.array_equal(curve.tpr, expected.tpr)
        assert np.array_equal(curve.thresholds, expected.thresholds)

    def test_deterministic_metrics(self):
        train, test = self._data()
        a, _ = timed_run(_SpyDetector(), DetectorConfig(name="spy"), train, test)
        b, _ = timed_run(_SpyDetector(), DetectorConfig(name="spy"), train, test)
        assert a.auc == b.auc
        assert a.best_f1 == b.best_f1
        assert a.nmm == b.nmm

    def test_overflowing_model_mse_is_an_ok_row_without_warnings(self):
        train, test = self._data()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            run, _ = timed_run(_HugeDetector(), DetectorConfig(name="huge"), train, test)
        assert run.status == "ok", run.failure_reason
        assert run.nmm == np.inf
        assert run.auc == 1.0

    @pytest.mark.parametrize("positives, negatives", [(187, 207), (188, 209)])
    def test_a_perfect_separation_is_an_ok_row(self, positives, negatives):
        scores, labels = _separated(positives, negatives)
        train, _ = self._data()
        test = series(scores, labels=labels)
        run, _ = timed_run(_GivenDetector(scores), DetectorConfig(name="given"), train, test)
        assert run.status == "ok", run.failure_reason
        assert run.auc == 1.0

    def test_failure_becomes_report(self):
        train, test = self._data()
        out, curve = timed_run(_FailingDetector(), DetectorConfig(name="broken"), train, test)
        assert out.status == "failed"
        assert "SeriesTooShort" in out.failure_reason
        assert curve is None

    def test_a_score_count_other_than_the_test_length_fails_the_run(self):
        train, test = self._data()
        out, curve = timed_run(_ShortDetector(), DetectorConfig(name="short"), train, test)
        assert out.status == "failed"
        assert out.failure_reason == "DimensionMismatch: 99 scores for 100 test points"
        assert curve is None

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_scores_fail_the_run(self, bad):
        train, test = self._data()
        scores = np.abs(test.values)
        scores[3] = bad
        out, curve = timed_run(_GivenDetector(scores), DetectorConfig(name="given"), train, test)
        assert out.status == "failed"
        assert out.failure_reason == "NonFiniteScores: scores contain non-finite values"
        assert curve is None

    def test_a_score_column_fails_the_run(self):
        train, test = self._data()
        column = np.abs(test.values)[:, None]
        out, curve = timed_run(_GivenDetector(column), DetectorConfig(name="given"), train, test)
        assert out.status == "failed"
        reason = "DimensionMismatch: scores must be one-dimensional, got shape (100, 1)"
        assert out.failure_reason == reason
        assert curve is None

    @pytest.mark.parametrize(
        "labels", [np.zeros(60, dtype=int), np.ones(60, dtype=int), None],
        ids=["no-positive", "all-positive", "unlabelled"],
    )
    def test_one_label_class_is_excluded_before_the_fit(self, labels):
        rng = np.random.default_rng(6)
        train = series(rng.standard_normal(50))
        test = series(rng.standard_normal(60), labels=labels)
        out, curve = timed_run(_RefusingDetector(), DetectorConfig(name="refusing"), train, test)
        assert out == ResultRow(
            "", "t", "refusing", None, None, None, 0.0, 0.0,
            "excluded", "test segment holds one label class",
        )
        assert curve is None
