"""Core types: sliding windows, score containers, the detector contract."""

from __future__ import annotations

import importlib
import pkgutil

import numpy as np
import pytest

import tsadkit
from tsadkit import (
    DETECTOR_NAMES,
    DetectorConfig,
    RunConfig,
    ScoreSeries,
    TimeSeries,
    frame,
    get_detector,
    smoke_series,
    subsequences,
    timed_run,
    with_lookback,
)
from tsadkit.bench import _preprocess
from tsadkit.core import Derived, resolve
from tsadkit.errors import (
    InvalidHyperparameter,
    NonFiniteScores,
    SeriesTooShort,
    TsadError,
    UnknownHyperparameter,
)

from conftest import series


def test_every_exported_name_resolves():
    # A name left in an export list after its definition is deleted breaks
    # ``from tsadkit import *`` and misleads readers of the list.
    modules = [tsadkit] + [
        importlib.import_module(info.name)
        for info in pkgutil.walk_packages(tsadkit.__path__, "tsadkit.")
    ]
    exported = [(module, name) for module in modules for name in getattr(module, "__all__", ())]
    assert len({module for module, _ in exported}) >= 10
    missing = [f"{module.__name__}.{name}" for module, name in exported if not hasattr(module, name)]
    assert not missing


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
        windows, targets = frame(series([1, 2, 3, 4]), width=2)
        assert windows.tolist() == [[1.0, 2.0], [2.0, 3.0]]
        assert targets.tolist() == [3.0, 4.0]

    @pytest.mark.parametrize("n,expect", [(1420, 1390), (1421, 1391)])
    def test_window_count_at_benchmark_scale(self, n, expect):
        windows, targets = frame(series(np.arange(n, dtype=float)), width=30)
        assert windows.shape == (expect, 30) and targets.shape == (expect,)
        # counting-loop oracle: every index with a full preceding window
        count = sum(1 for t in range(n) if t - 30 >= 0)
        assert windows.shape[0] == count

    def test_too_short(self):
        with pytest.raises(SeriesTooShort):
            frame(series([5, 5]), width=2)

    def test_round_trip_suffix(self):
        rng = np.random.default_rng(0)
        values = rng.standard_normal(57)
        windows, targets = frame(series(values), width=5)
        rebuilt = np.concatenate((windows[0], targets))
        assert np.array_equal(rebuilt, values)

    def test_window_precedes_target(self):
        values = np.arange(40, dtype=float)
        windows, targets = frame(series(values), width=7)
        assert windows.shape[0] == targets.size == values.size - 7
        for i in range(targets.size):
            assert np.array_equal(windows[i], values[i : i + 7])
            assert targets[i] == values[i + 7]


class TestSubsequences:
    def test_window_ends_at_target(self):
        values = np.arange(20, dtype=float)
        windows = subsequences(series(values), width=4)
        assert np.array_equal(windows[:, -1], values[3:])
        for i in range(windows.shape[0]):
            assert np.array_equal(windows[i], values[i : i + 4])

    def test_count(self):
        windows = subsequences(series(np.arange(10, dtype=float)), width=4)
        assert windows.shape == (7, 4)

    def test_too_short(self):
        with pytest.raises(SeriesTooShort):
            subsequences(series([1.0, 2.0]), width=3)


class TestWithLookback:
    def test_train_tail_precedes_the_test(self):
        train, test = series([1.0, 2.0, 3.0]), series([4.0, 5.0], labels=[0, 1])
        joined = with_lookback(train, test, 2)
        assert joined.values.tolist() == [2.0, 3.0, 4.0, 5.0]
        assert joined.labels is None
        assert with_lookback(train, test, 0).values.tolist() == [4.0, 5.0]
        assert with_lookback(train, test, 3).values.tolist() == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_train_shorter_than_the_lookback(self):
        with pytest.raises(SeriesTooShort, match="a lookback of 4 needs 4 train observations"):
            with_lookback(series([1.0, 2.0, 3.0]), series([4.0]), 4)


class TestScoreSeries:
    def test_scores_finite(self):
        with pytest.raises(ValueError):
            ScoreSeries(np.array([np.nan]))

    def test_non_finite_scores_are_a_toolkit_error(self):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(NonFiniteScores, match="scores contain non-finite"):
                ScoreSeries(np.array([0.0, bad]))
        assert issubclass(NonFiniteScores, TsadError)


def short_noisy_sine():
    """120 training and 80 labelled test points every detector can fit."""
    rng = np.random.default_rng(0)
    values = np.sin(np.arange(200) / 4.0) + 0.1 * rng.standard_normal(200)
    labels = np.zeros(80, dtype=np.int64)
    labels[40] = 1
    return series(values[:120]), series(values[120:], labels=labels)


class TestDetectorConfig:
    def test_window_width_positive(self):
        with pytest.raises(ValueError):
            DetectorConfig(name="ar", window_width=0)

    def test_resolve_fills_and_converts(self):
        params = {
            "k": 4,
            "rate": 0.1,
            "flag": False,
            "dims": (8, 4),
            "given": Derived("at fit time"),
            "missing": Derived("at fit time"),
        }
        cfg = DetectorConfig(
            name="x", hyperparameters={"k": "7", "rate": 1, "flag": 1, "dims": [4.0, 2], "given": "2"}
        )
        resolved = resolve(cfg, params)
        assert resolved == {
            "k": 7, "rate": 1.0, "flag": True, "dims": (4, 2), "given": "2", "missing": None
        }
        assert [type(resolved[key]) for key in ("k", "rate", "flag")] == [int, float, bool]
        assert resolve(DetectorConfig(name="x"), params)["k"] == 4
        with pytest.raises(InvalidHyperparameter, match=r"x: k='four' is not a valid int"):
            resolve(DetectorConfig(name="x", hyperparameters={"k": "four"}), params)
        assert issubclass(UnknownHyperparameter, InvalidHyperparameter)

    def test_derived_values_and_booleans_are_converted_strictly(self):
        params = {"p": Derived("at fit time", int), "flag": False}
        assert str(params["p"]) == "at fit time"
        resolved = resolve(DetectorConfig(name="x", hyperparameters={"p": "7"}), params)
        assert resolved == {"p": 7, "flag": False}
        for given, expected in (("false", False), ("ON", True), (True, True), (False, False)):
            cfg = DetectorConfig(name="x", hyperparameters={"flag": given})
            assert resolve(cfg, params)["flag"] is expected
        for bad in ({"p": "seven"}, {"flag": "maybe"}, {"flag": 2}, {"flag": None}):
            with pytest.raises(InvalidHyperparameter, match="is not a valid (int|bool)"):
                resolve(DetectorConfig(name="x", hyperparameters=bad), params)

    @pytest.mark.parametrize(
        "name, given, typed",
        [
            ("ar", {"p": "2"}, {"p": 2}),
            ("ma", {"q": "3"}, {"q": 3}),
            ("es", {"period": "10"}, {"period": 10}),
            ("ocsvm", {"rbf_gamma": "0.5"}, {"rbf_gamma": 0.5}),
            ("pci", {"k": "5"}, {"k": 5}),
            ("pci", {"k": 5, "pci_alpha": "97"}, {"k": 5, "pci_alpha": 97.0}),
        ],
    )
    def test_given_strings_run_like_typed_values(self, name, given, typed):
        detector = get_detector(name)
        train, test = short_noisy_sine()
        scores = []
        for hyperparameters in (given, typed):
            cfg = DetectorConfig(name=name, window_width=8, hyperparameters=hyperparameters)
            scores.append(detector.score(detector.fit(train, cfg), cfg, train, test))
        np.testing.assert_array_equal(scores[0], scores[1])

    @pytest.mark.parametrize("name", DETECTOR_NAMES)
    def test_table_defaults_are_the_defaults_in_use(self, name):
        detector = get_detector(name)
        explicit = {k: v for k, v in detector.params.items() if not isinstance(v, Derived)}
        train, test = short_noisy_sine()
        # The autoencoder's 16-unit bottleneck needs windows wider than 16.
        width = 20 if name == "autoencoder" else 8
        scores = []
        for hyperparameters in ({}, explicit):
            cfg = DetectorConfig(name=name, window_width=width, hyperparameters=hyperparameters)
            scores.append(detector.score(detector.fit(train, cfg), cfg, train, test))
        np.testing.assert_array_equal(scores[0], scores[1])

    @pytest.mark.parametrize(
        "name, hyperparameters, reason",
        [
            ("kmeans", {"k": 0}, "InvalidHyperparameter: k-means needs k >= 1 centroids, got k=0"),
            ("kmeans", {"k": "four"}, "InvalidHyperparameter: kmeans: k='four' is not a valid int"),
            ("pci", {"k": 0}, "InvalidHyperparameter: k must be >= 1, got 0"),
            ("pci", {"k": -3}, "InvalidHyperparameter: k must be >= 1, got -3"),
            ("pci", {"pci_alpha": 40}, "InvalidHyperparameter: alpha must lie in (50, 100), got 40.0"),
            ("ses", {"alpha": 2.0}, "InvalidHyperparameter: alpha must lie in [0, 1], got 2.0"),
            ("ses", {"alpha": -0.5}, "InvalidHyperparameter: alpha must lie in [0, 1], got -0.5"),
            ("es", {"alpha": 1.5}, "InvalidHyperparameter: alpha must lie in [0, 1], got 1.5"),
            ("es", {"beta": -0.1}, "InvalidHyperparameter: beta must lie in [0, 1], got -0.1"),
            ("es", {"period": 6, "gamma": 2.0}, "InvalidHyperparameter: gamma must lie in [0, 1], got 2.0"),
            (
                "es",
                {"period": 6, "alpha": 1.5, "beta": -0.1, "gamma": 2.0},
                "InvalidHyperparameter: alpha must lie in [0, 1], got 1.5",
            ),
            ("iforest", {"n_trees": 0}, "InvalidHyperparameter: need n_trees >= 1 built trees"),
            ("ocsvm", {"nu": 2.0}, "InvalidHyperparameter: nu must lie in (0, 1], got 2.0"),
            ("ocsvm", {"rbf_gamma": -1.0}, "InvalidHyperparameter: rbf_gamma must be positive, got -1.0"),
            ("ocsvm", {"rbf_gamma": "nan"}, "InvalidHyperparameter: rbf_gamma must be positive, got nan"),
            ("dbscan", {"epsilon": 0.0}, "InvalidHyperparameter: epsilon must be positive and finite, got 0.0"),
            ("arima", {"d": 3}, "InvalidOrder: d must be 0, 1 or 2, got 3"),
            (
                "gbt",
                {"max_depth": 0},
                "InvalidHyperparameter: learning_rate must be positive, max_depth >= 1 and n_estimators >= 0",
            ),
            ("mlp", {"epochs": 0}, "InvalidHyperparameter: epochs must be >= 1, got 0"),
            ("mlp", {"learning_rate": "nan"}, "InvalidHyperparameter: learning_rate must be positive"),
            ("ar", {"p": "two"}, "InvalidHyperparameter: ar: p='two' is not a valid int"),
            ("ma", {"q": [3]}, "InvalidHyperparameter: ma: q=[3] is not a valid int"),
            ("ocsvm", {"rbf_gamma": "abc"}, "InvalidHyperparameter: ocsvm: rbf_gamma='abc' is not a valid float"),
            ("es", {"period": "x"}, "InvalidHyperparameter: es: period='x' is not a valid int"),
            ("pci", {"pci_alpha": "maybe"}, "InvalidHyperparameter: pci: pci_alpha='maybe' is not a valid float"),
            ("kmeans", {"k": 2.7}, "InvalidHyperparameter: kmeans: k=2.7 is not a valid int"),
            ("ar", {"p": 2.9}, "InvalidHyperparameter: ar: p=2.9 is not a valid int"),
            ("iforest", {"n_trees": True}, "InvalidHyperparameter: iforest: n_trees=True is not a valid int"),
        ],
    )
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_bad_values_become_failed_reports(self, name, hyperparameters, reason):
        # Every value is rejected before the detector computes anything, so
        # no numpy warning is raised on the way to the failed row.
        train, test = short_noisy_sine()
        cfg = DetectorConfig(name=name, window_width=8, hyperparameters=hyperparameters)
        run = timed_run(get_detector(name), cfg, train, test)
        assert run.failure == reason

    @pytest.mark.parametrize(
        "name, key, value, derived",
        [
            ("ma", "q", 4, lambda state: state.q),
            ("arima", "d", 2, lambda state: state.d),
            ("es", "period", 6, lambda state: state.season_period),
            ("kmeans", "k", 3, lambda state: state.k),
            ("iforest", "n_trees", 7, lambda state: state.n_trees),
            ("gbt", "n_estimators", 9, lambda state: len(state.trees)),
        ],
    )
    def test_fitted_state_holds_the_requested_value(self, name, key, value, derived):
        # A drifting walk, so that differencing twice still leaves an ARMA fit.
        walk = np.cumsum(0.5 + np.random.default_rng(1).normal(0.0, 1.0, 400))
        cfg = DetectorConfig(name=name, window_width=10, hyperparameters={key: value})
        assert derived(get_detector(name).fit(series(walk), cfg)) == value

    @pytest.mark.parametrize("name", DETECTOR_NAMES)
    def test_every_detector_rejects_unknown_keys(self, name):
        cfg = DetectorConfig(name=name, hyperparameters={"bogus": 1})
        train = series(np.sin(np.arange(200) / 5.0))
        with pytest.raises(UnknownHyperparameter, match=rf"{name}: unknown hyperparameter keys \['bogus'\]"):
            get_detector(name).fit(train, cfg)
        assert issubclass(UnknownHyperparameter, TsadError)


@pytest.fixture(scope="module")
def synth_segments():
    """The first SYNTH series split and standardized as a default run does."""
    return _preprocess(RunConfig(datasets=("SYNTH",), detectors=("ar",)), smoke_series()[0])


class TestEveryDetectorScoresEveryTestPoint:
    @pytest.mark.parametrize("name", DETECTOR_NAMES)
    def test_one_finite_score_per_test_point(self, name, synth_segments):
        train, test = synth_segments
        detector = get_detector(name)
        cfg = DetectorConfig(name=name)
        scores = detector.score(detector.fit(train, cfg), cfg, train, test)
        assert type(scores) is np.ndarray
        assert scores.dtype == np.float64
        assert scores.shape == (len(test),) == (1050,)
        assert np.all(np.isfinite(scores))
