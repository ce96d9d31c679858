"""Core types: sliding windows, score containers, thresholding."""

from __future__ import annotations

import numpy as np
import pytest

from tsadkit import (
    DETECTOR_NAMES,
    DetectorConfig,
    ScoreSeries,
    Threshold,
    TimeSeries,
    WindowFrame,
    binarize,
    frame,
    get_detector,
    subsequences,
)
from tsadkit.errors import NonFiniteScores, SeriesTooShort, TsadError, UnknownHyperparameter

from conftest import series


class TestTimeSeries:
    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            series([1.0, np.nan, 2.0])

    def test_rejects_inf(self):
        with pytest.raises(ValueError):
            series([1.0, np.inf])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            series([])

    def test_label_length_must_match(self):
        with pytest.raises(ValueError):
            series([1.0, 2.0], labels=[0])

    def test_labels_must_be_binary(self):
        with pytest.raises(ValueError):
            series([1.0, 2.0], labels=[0, 2])

    def test_anomaly_count(self):
        assert series([1, 2, 3], labels=[0, 1, 1]).anomaly_count == 2

    def test_segment_slices_labels(self):
        s = series([1, 2, 3, 4], labels=[0, 1, 0, 1]).segment(1, 3)
        assert s.values.tolist() == [2.0, 3.0]
        assert s.labels.tolist() == [1, 0]


class TestFrame:
    def test_enumeration_example(self):
        wf = frame(series([1, 2, 3, 4]), width=2)
        assert wf.windows.tolist() == [[1.0, 2.0], [2.0, 3.0]]
        assert wf.targets.tolist() == [3.0, 4.0]
        assert wf.target_indices.tolist() == [2, 3]

    @pytest.mark.parametrize("n,expect", [(1420, 1390), (1421, 1391)])
    def test_window_count_at_benchmark_scale(self, n, expect):
        wf = frame(series(np.arange(n, dtype=float)), width=30)
        assert wf.windows.shape[0] == expect
        # counting-loop oracle: every index with a full preceding window
        count = sum(1 for t in range(n) if t - 30 >= 0)
        assert wf.windows.shape[0] == count

    def test_too_short(self):
        with pytest.raises(SeriesTooShort):
            frame(series([5, 5]), width=2)

    def test_stride(self):
        wf = frame(series(np.arange(10, dtype=float)), width=3, stride=2)
        assert wf.target_indices.tolist() == [3, 5, 7, 9]
        assert wf.windows[1].tolist() == [2.0, 3.0, 4.0]

    def test_round_trip_suffix(self):
        rng = np.random.default_rng(0)
        values = rng.standard_normal(57)
        wf = frame(series(values), width=5)
        rebuilt = np.concatenate((wf.windows[0], wf.targets))
        assert np.array_equal(rebuilt, values)

    def test_window_precedes_target(self):
        values = np.arange(40, dtype=float)
        wf = frame(series(values), width=7)
        for i in range(wf.windows.shape[0]):
            t = wf.target_indices[i]
            assert np.array_equal(wf.windows[i], values[t - 7 : t])
            assert wf.targets[i] == values[t]


class TestSubsequences:
    def test_window_ends_at_target(self):
        values = np.arange(20, dtype=float)
        wf = subsequences(series(values), width=4)
        assert wf.target_indices[0] == 3
        for i in range(wf.windows.shape[0]):
            t = wf.target_indices[i]
            assert np.array_equal(wf.windows[i], values[t - 3 : t + 1])

    def test_count(self):
        wf = subsequences(series(np.arange(10, dtype=float)), width=4)
        assert wf.windows.shape[0] == 7

    def test_too_short(self):
        with pytest.raises(SeriesTooShort):
            subsequences(series([1.0, 2.0]), width=3)


class TestWindowFrameValidation:
    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            WindowFrame(
                windows=np.zeros((3, 2)),
                targets=np.zeros(2),
                target_indices=np.arange(2, 5),
                width=2,
                stride=1,
            )

    def test_indices_must_increase(self):
        with pytest.raises(ValueError):
            WindowFrame(
                windows=np.zeros((2, 2)),
                targets=np.zeros(2),
                target_indices=np.array([3, 3]),
                width=2,
                stride=1,
            )


class TestBinarize:
    def test_strict_boundary(self):
        out = binarize(
            ScoreSeries(scores=np.array([0.1, 0.9, 0.5]), indices=np.arange(3), detector_name="x"),
            Threshold(delta=0.5),
        )
        assert out.tolist() == [0, 1, 0]

    def test_all_below(self):
        out = binarize(
            ScoreSeries(scores=np.array([-1.0, -2.0]), indices=np.arange(2), detector_name="x"),
            Threshold(delta=0.0),
        )
        assert out.tolist() == [0, 0]

    def test_all_above(self):
        out = binarize(
            ScoreSeries(scores=np.array([3.0, 3.0, 3.0]), indices=np.arange(3), detector_name="x"),
            Threshold(delta=2.999),
        )
        assert out.tolist() == [1, 1, 1]

    def test_monotone_in_delta(self):
        rng = np.random.default_rng(1)
        sc = ScoreSeries(scores=rng.standard_normal(64), indices=np.arange(64), detector_name="x")
        previous = binarize(sc, Threshold(delta=-10.0))
        for delta in np.linspace(-10, 10, 41):
            current = binarize(sc, Threshold(delta=float(delta)))
            assert np.all(current <= previous)
            previous = current


class TestScoreSeries:
    def test_indices_strictly_increasing(self):
        with pytest.raises(ValueError):
            ScoreSeries(scores=np.zeros(2), indices=np.array([5, 5]), detector_name="x")

    def test_scores_finite(self):
        with pytest.raises(ValueError):
            ScoreSeries(scores=np.array([np.nan]), indices=np.array([0]), detector_name="x")

    def test_non_finite_scores_are_a_toolkit_error(self):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(NonFiniteScores, match="x: scores contain non-finite"):
                ScoreSeries(scores=np.array([0.0, bad]), indices=np.array([0, 1]), detector_name="x")
        assert issubclass(NonFiniteScores, TsadError)


class TestDetectorConfig:
    def test_fingerprint_stable(self):
        a = DetectorConfig(name="ar", hyperparameters={"p": 2}, seed=9)
        b = DetectorConfig(name="ar", hyperparameters={"p": 2}, seed=9)
        assert a.fingerprint() == b.fingerprint()

    def test_fingerprint_sensitive(self):
        a = DetectorConfig(name="ar", hyperparameters={"p": 2}, seed=9)
        b = DetectorConfig(name="ar", hyperparameters={"p": 3}, seed=9)
        c = DetectorConfig(name="ar", hyperparameters={"p": 2}, seed=10)
        assert a.fingerprint() != b.fingerprint()
        assert a.fingerprint() != c.fingerprint()

    def test_window_width_positive(self):
        with pytest.raises(ValueError):
            DetectorConfig(name="ar", window_width=0)

    def test_param_lookup(self):
        cfg = DetectorConfig(name="ar", hyperparameters={"p": 4})
        assert cfg.param("p", 1) == 4
        assert cfg.param("q", 7) == 7

    @pytest.mark.parametrize("name", DETECTOR_NAMES)
    def test_every_detector_rejects_unknown_keys(self, name):
        cfg = DetectorConfig(name=name, hyperparameters={"bogus": 1})
        train = series(np.sin(np.arange(200) / 5.0))
        with pytest.raises(UnknownHyperparameter, match=rf"{name}: unknown hyperparameter keys \['bogus'\]"):
            get_detector(name).fit(train, cfg)
        assert issubclass(UnknownHyperparameter, TsadError)
