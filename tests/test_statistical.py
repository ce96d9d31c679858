"""Forecasting detectors: AR, MA, ARMA/ARIMA, smoothing family, PCI."""

from __future__ import annotations

import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tsadkit import (
    DetectorConfig,
    RunConfig,
    get_detector,
    naive_mse,
    nmm,
    run_benchmark,
    smoke_series,
    with_lookback,
)
from tsadkit.bench import _preprocess
from tsadkit.detectors import statistical
from tsadkit.detectors.statistical import (
    ArFit,
    ArimaFit,
    MaFit,
    PciDetector,
    PciFit,
    SmoothingFit,
    ar_fit,
    ar_score,
    arima_fit,
    arima_score,
    arma_fit,
    holt_fit,
    holtwinters_fit,
    invertible_ma,
    lag_cap,
    ma_fit,
    ma_score,
    pci_fit,
    pci_score,
    ses_fit,
    smoothing_score,
    student_t_ppf,
    _student_t_cdf,
)
from tsadkit.errors import (
    InvalidHyperparameter,
    InvalidOrder,
    InvalidPeriod,
    NonFiniteValues,
    OrderTooLarge,
    PeriodTooLong,
    SeriesTooShort,
    SingularDesign,
    UnknownHyperparameter,
)

from conftest import long_synth, series, traced_peak


def ar1(n, coeff=0.5, sigma=1.0, seed=0, intercept=0.0):
    rng = np.random.default_rng(seed)
    x = np.zeros(n + 100)
    noise = rng.normal(0.0, sigma, n + 100)
    for t in range(1, n + 100):
        x[t] = intercept + coeff * x[t - 1] + noise[t]
    return series(x[100:])


def in_a_fresh_process(code: str, seconds: float = 30.0) -> str:
    """What ``code`` prints, run in a fresh interpreter that is killed after
    ``seconds``: a computation that never returns fails the test instead of
    stalling the suite."""
    env = {**os.environ, "PYTHONPATH": str(Path(statistical.__file__).parents[2])}
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=seconds, env=env,
        check=True,
    )
    return done.stdout


class UnreadTrain:
    """A train whose values fail the test if a fit reads them."""

    @property
    def values(self):
        raise AssertionError("the fit read the train")


class TestLagCap:
    def test_values(self):
        assert lag_cap(100) == 12
        assert lag_cap(2000) == 25
        assert lag_cap(10) == 6
        assert lag_cap(50) == 10

    def test_monotone(self):
        caps = [lag_cap(n) for n in range(10, 5000, 37)]
        assert all(b >= a for a, b in zip(caps, caps[1:]))


class TestAr:
    def test_hand_example(self):
        fit = ArFit(coefficients=np.array([1.0]), intercept=0.0, residual_sigma=0.0)
        out = ar_score(fit, series([2.0, 2.0, 2.0, 9.0]))
        # One score for each point after the first p.
        assert np.array_equal(out, [0.0, 0.0, 7.0])

    def test_noiseless_recovery(self):
        x = np.zeros(200)
        x[0] = 1.0
        for t in range(1, 200):
            x[t] = 0.5 * x[t - 1] + 0.1
        fit = ar_fit(series(x), p=1)
        assert abs(fit.coefficients[0] - 0.5) < 1e-9
        assert abs(fit.intercept - 0.1) < 1e-9
        assert fit.residual_sigma < 1e-9

    def test_ar2_recovery(self):
        rng = np.random.default_rng(42)
        x = np.zeros(2100)
        noise = rng.normal(0.0, 1.0, 2100)
        for t in range(2, 2100):
            x[t] = 0.5 * x[t - 1] - 0.3 * x[t - 2] + noise[t]
        fit = ar_fit(series(x[100:]), p=2)
        assert abs(fit.coefficients[0] - 0.5) < 0.05
        assert abs(fit.coefficients[1] + 0.3) < 0.05

    def test_residuals_centered(self):
        train = ar1(500, seed=3)
        fit = ar_fit(train, p=2)
        x = train.values
        lagged = np.column_stack([x[2 - i - 1 : len(x) - i - 1] for i in range(2)])
        residuals = x[2:] - (lagged @ fit.coefficients + fit.intercept)
        # The intercept column makes residuals orthogonal to constants.
        assert abs(residuals.mean()) < 1e-10

    def test_constant_is_singular(self):
        with pytest.raises(SingularDesign):
            ar_fit(series(np.full(50, 2.0)), p=1)

    def test_order_above_cap(self):
        with pytest.raises(OrderTooLarge):
            ar_fit(ar1(100), p=13)

    def test_too_short(self):
        with pytest.raises(SeriesTooShort):
            ar_fit(ar1(20), p=8)

    def test_invalid_order(self):
        with pytest.raises(InvalidOrder):
            ar_fit(ar1(100), p=0)

    def test_default_order_respects_cap(self):
        fit = ar_fit(ar1(100))
        assert 1 <= fit.p <= lag_cap(100)

    def test_short_test_gives_empty_scores(self):
        # p values leave no point to score; the adapter prepends the last p
        # train values, so even a three-point test gets three scores.
        train = ar1(200)
        fit = ar_fit(train, p=3)
        assert ar_score(fit, series([1.0, 2.0, 3.0])).size == 0
        cfg = DetectorConfig(name="ar", hyperparameters={"p": 3})
        detector = get_detector("ar")
        assert len(detector.score(detector.fit(train, cfg), cfg, train, series([1.0, 2.0, 3.0]))) == 3

    def test_spike_has_top_score(self):
        train = ar1(400, seed=7)
        test_values = ar1(300, seed=8).values.copy()
        test_values[137] += 10.0
        fit = ar_fit(train, p=2)
        out = ar_score(fit, with_lookback(train, series(test_values), 2))
        assert len(out) == 300
        assert np.argmax(out) == 137

    def test_fit_validation(self):
        with pytest.raises(ValueError):
            ArFit(coefficients=np.array([np.nan]), intercept=0.0, residual_sigma=1.0)
        with pytest.raises(ValueError):
            ArFit(coefficients=np.array([0.5]), intercept=0.0, residual_sigma=-1.0)


class TestMa:
    def test_recursion_hand_example(self):
        fit = MaFit(coefficients=np.array([0.5]), mu=0.0)
        out = ma_score(fit, series([1.0, 0.0]))
        # e_0 = 1 - 0 = 1; e_1 = 0 - 0.5 * 1 = -0.5.
        assert np.allclose(out, [1.0, 0.5], atol=1e-15)

    def test_zero_coefficients_reduce_to_mean_distance(self):
        fit = MaFit(coefficients=np.array([0.0]), mu=2.5)
        out = ma_score(fit, series([7.0, 7.0, 7.0, 7.0]))
        assert np.array_equal(out, np.full(4, 4.5))

    def test_white_noise_coefficient_is_small(self):
        rng = np.random.default_rng(11)
        n = 2000
        fit = ma_fit(series(rng.normal(0.0, 1.0, n)), q=1)
        assert abs(fit.coefficients[0]) <= 2.0 / math.sqrt(n)

    def test_ma1_recovery(self):
        rng = np.random.default_rng(5)
        eps = rng.normal(0.0, 1.0, 5001)
        x = eps[1:] + 0.6 * eps[:-1]
        fit = ma_fit(series(x), q=1)
        assert abs(fit.coefficients[0] - 0.6) < 0.1
        assert abs(fit.mu) < 0.1

    def test_invalid_order(self):
        with pytest.raises(InvalidOrder):
            ma_fit(ar1(100), q=0)

    def test_too_few_rows(self):
        with pytest.raises(OrderTooLarge):
            ma_fit(ar1(24), q=9)

    def test_spike_has_top_score(self):
        rng = np.random.default_rng(13)
        eps = rng.normal(0.0, 1.0, 1001)
        x = eps[1:] + 0.6 * eps[:-1]
        fit = ma_fit(series(x[:700]), q=1)
        test_values = x[700:].copy()
        test_values[50] += 10.0
        out = ma_score(fit, series(test_values))
        assert np.argmax(out) == 50

    def test_fit_validation(self):
        with pytest.raises(ValueError):
            MaFit(coefficients=np.array([np.inf]), mu=0.0)


def ma_acf(coefficients) -> np.ndarray:
    """Autocorrelations of x_t = e_t + sum_j b_j e_{t-j} at lags 0..q."""
    c = np.concatenate(([1.0], coefficients))
    return np.correlate(c, c, "full")[c.size - 1 :] / (c @ c)


def random_non_invertible_ma(rng) -> np.ndarray:
    """Real coefficients from random real and conjugate-pair roots, at least one inside |z| < 1.

    Moduli stay 5 % away from the unit circle, so reflected fits decay fast.
    """
    moduli = rng.uniform(0.3, 2.0, int(rng.integers(1, 6)))
    moduli = np.where(np.abs(moduli - 1.0) < 0.05, moduli + 0.1, moduli)
    moduli[0] = rng.uniform(0.3, 0.95)
    roots = []
    for modulus in moduli:
        if rng.random() < 0.5:
            roots.append(modulus * rng.choice((-1.0, 1.0)))
        else:
            root = modulus * np.exp(1j * rng.uniform(0.1, np.pi - 0.1))
            roots.extend((root, np.conj(root)))
    poly = np.polynomial.polynomial.polyfromroots(roots).real
    return poly[1:] / poly[0]


class TestInvertibleMa:
    def test_invertible_coefficients_are_returned_unchanged(self):
        for coefficients in ([0.6], [0.5, -0.2], [0.0, 0.0], [1.0], [0.0, 1.0]):
            b = np.array(coefficients)
            assert invertible_ma(b) is b  # unit roots stay: they are their own reflection

    def test_hand_example(self):
        # 1 + 2.5z + z^2 = (1 + 2z)(1 + 0.5z); the root -1/2 becomes -2.
        np.testing.assert_allclose(invertible_ma(np.array([2.5, 1.0])), [1.0, 0.25], rtol=1e-14)
        # A trailing zero coefficient is kept.
        np.testing.assert_allclose(invertible_ma(np.array([2.0, 0.0])), [0.5, 0.0], rtol=1e-14)

    def test_reflection_keeps_autocorrelations(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            raw = random_non_invertible_ma(rng)
            reflected = invertible_ma(raw)
            assert reflected.shape == raw.shape
            roots = np.polynomial.polynomial.polyroots(np.concatenate(([1.0], reflected)))
            assert np.abs(roots).min() > 1.0
            np.testing.assert_allclose(ma_acf(reflected), ma_acf(raw), atol=1e-9)

    def test_reflected_fit_scores_stay_bounded(self):
        # The innovations are a linear filter of x - mu with impulse response
        # psi, so |e_t| <= sum |psi_j| * max |x - mu|; psi must decay.
        rng = np.random.default_rng(31)
        n, mu = 3000, 0.5
        impulse = np.full(n, mu)
        impulse[0] += 1.0
        for _ in range(30):
            b = invertible_ma(random_non_invertible_ma(rng))
            fit = MaFit(coefficients=b, mu=mu)
            psi = ma_score(fit, series(impulse))
            assert psi[-500:].max() < 1e-9
            values = mu + rng.standard_normal(n) * rng.uniform(0.1, 100.0)
            values[rng.integers(n, size=5)] += 50.0
            scores = ma_score(fit, series(values))
            assert np.all(np.isfinite(scores))
            assert scores.max() <= psi.sum() * np.abs(values - mu).max() * (1.0 + 1e-9)

    def test_synth_auc_recovers_where_roots_were_reflected(self, monkeypatch):
        reflected = []

        def spy(coefficients):
            out = invertible_ma(coefficients)
            reflected.append(out is not coefficients)
            return out

        monkeypatch.setattr(statistical, "invertible_ma", spy)
        rows, _, _ = run_benchmark(RunConfig(datasets=("SYNTH",), detectors=("ma",), seed=0))
        assert [row.series_id[-3:] for row in rows] == ["101", "102", "103", "104", "105"]
        # Series 103 (min |root| 1.006) keeps its least-squares fit bit for bit.
        assert reflected == [True, True, False, True, True]
        for row in rows:
            assert row.status == "ok" and row.auc >= 0.99, (row.series_id, row.auc)


class TestArma:
    def test_pure_ar_matches_least_squares(self):
        train = ar1(600, seed=21)
        direct = ar_fit(train, p=2)
        mixed = arma_fit(train, p=2, q=0)
        assert np.allclose(mixed.ar, direct.coefficients, atol=1e-6)
        assert abs(mixed.intercept - direct.intercept) < 1e-6

    def test_arma11_recovery(self):
        rng = np.random.default_rng(9)
        n = 4000
        eps = rng.normal(0.0, 1.0, n + 101)
        x = np.zeros(n + 100)
        for t in range(1, n + 100):
            x[t] = 0.6 * x[t - 1] + eps[t] + 0.3 * eps[t - 1]
        fit = arma_fit(series(x[100:]), p=1, q=1)
        assert abs(fit.ar[0] - 0.6) < 0.1
        assert abs(fit.ma[0] - 0.3) < 0.1

    def test_invalid_orders(self):
        with pytest.raises(InvalidOrder):
            arma_fit(ar1(100), p=0, q=0)
        with pytest.raises(SeriesTooShort):
            arma_fit(ar1(10), p=2, q=2)

    def test_fit_validation(self):
        with pytest.raises(ValueError):
            ArimaFit(ar=np.array([0.5]), ma=np.array([np.nan]), intercept=0.0, converged=True)


class TestArima:
    def test_differencing_recovers_drift(self):
        rng = np.random.default_rng(17)
        steps = 0.5 + rng.normal(0.0, 1.0, 400)
        walk = np.cumsum(steps)
        fit = arima_fit(series(walk), p=1, d=1, q=1)
        assert fit.d == 1

    def test_auto_d_picks_one_for_drift(self):
        rng = np.random.default_rng(17)
        walk = np.cumsum(0.5 + rng.normal(0.0, 1.0, 400))
        assert arima_fit(series(walk), p=1, d=None, q=1).d == 1

    def test_auto_d_picks_zero_when_stationary(self):
        assert arima_fit(ar1(400, seed=19), p=1, d=None, q=1).d == 0

    def test_invalid_d(self):
        for d in (-1, 3):
            with pytest.raises(InvalidOrder, match=f"d must be 0, 1 or 2, got {d}"):
                arima_fit(ar1(400), p=1, d=d, q=1)
        fit = ArimaFit(ar=np.array([0.5]), ma=np.empty(0), intercept=0.0, converged=True, d=2)
        assert fit.d == 2

    def test_score_hand_example(self):
        fit = ArimaFit(ar=np.array([0.0]), ma=np.empty(0), intercept=0.5, converged=True, d=1)
        out = arima_score(fit, series([9.5, 10.0, 10.5, 11.0, 11.6]))
        # Differenced: [0.5, 0.5, 0.5, 0.6]; forecasts are 0.5.  The first
        # d + p = 2 values are the lookback, so the last three are scored.
        assert np.allclose(out, [0.0, 0.0, 0.1], atol=1e-12)

    def test_level_shift_scores_high(self):
        rng = np.random.default_rng(23)
        walk = np.cumsum(0.2 + rng.normal(0.0, 0.5, 900))
        train = series(walk[:600])
        fit = arima_fit(train, p=1, d=1, q=1)
        test_values = walk[600:].copy()
        test_values[100:] += 8.0
        out = arima_score(fit, with_lookback(train, series(test_values), 2))
        assert len(out) == 300
        assert np.argmax(out) == 100


class TestSmoothing:
    def test_ses_constant_scores_zero(self):
        fit = ses_fit(series([5.0, 5.0, 5.0, 5.0]))
        out = smoothing_score(fit, series([5.0, 5.0, 5.0]))
        assert np.array_equal(out, np.zeros(3))

    def test_ses_alpha_one_is_naive_forecast(self):
        train = ar1(50, seed=31)
        test = ar1(60, seed=32)
        fit = ses_fit(train, alpha=1.0)
        assert fit.level == train.values[-1]
        out = smoothing_score(fit, test)
        expected = np.abs(np.diff(np.concatenate((train.values[-1:], test.values))))
        assert np.array_equal(out, expected)

    def test_ses_alpha_grid_bounds(self):
        fit = ses_fit(ar1(200, seed=33))
        assert 0.01 <= fit.alpha <= 0.99

    def test_holt_tracks_linear_trend(self):
        t = np.arange(60, dtype=np.float64)
        fit = holt_fit(series(2.0 + 0.5 * t))
        assert abs(fit.trend - 0.5) < 1e-9
        out = smoothing_score(fit, series(2.0 + 0.5 * (60 + np.arange(20))))
        assert np.max(out) < 1e-9

    def test_too_short(self):
        with pytest.raises(SeriesTooShort):
            ses_fit(series([1.0]))
        with pytest.raises(SeriesTooShort):
            holt_fit(series([1.0, 2.0]))

    def test_holtwinters_beats_ses_on_square_wave(self):
        pattern = np.tile([0.0, 0.0, 4.0, 4.0], 20)
        rng = np.random.default_rng(37)
        values = pattern + rng.normal(0.0, 0.01, pattern.size)
        train = series(values)
        hw = holtwinters_fit(train, period=4)
        flat = ses_fit(train)
        assert hw.train_sse < flat.train_sse

    def test_holtwinters_scores_follow_season(self):
        pattern = np.tile([0.0, 0.0, 4.0, 4.0], 30)
        fit = holtwinters_fit(series(pattern[:80]), period=4)
        out = smoothing_score(fit, series(pattern[80:]))
        assert np.mean(out) < 0.5

    def test_holtwinters_period_validation(self):
        with pytest.raises(InvalidPeriod):
            holtwinters_fit(ar1(100), period=1)
        with pytest.raises(PeriodTooLong):
            holtwinters_fit(ar1(30), period=20)

    def test_period_too_long_is_a_too_short_series(self):
        assert issubclass(PeriodTooLong, SeriesTooShort)

    def test_seasonal_ring_rotates_without_trend(self):
        fit = SmoothingFit(
            alpha=0.5,
            gamma=0.0,
            level=0.0,
            season=(1.0, -1.0),
        )
        out = smoothing_score(fit, series([1.0, -1.0, 1.0, -1.0]))
        # gamma = 0 freezes the season; the level chases the de-seasoned residue.
        assert out[0] == 0.0
        assert np.max(out) < 1.0

    @pytest.mark.parametrize(
        "fit, weights, message",
        [
            (ses_fit, {"alpha": 1.5}, "alpha must lie in [0, 1], got 1.5"),
            (ses_fit, {"alpha": float("nan")}, "alpha must lie in [0, 1], got nan"),
            (holt_fit, {"alpha": -0.1}, "alpha must lie in [0, 1], got -0.1"),
            (holt_fit, {"alpha": 0.5, "beta": 2.0}, "beta must lie in [0, 1], got 2.0"),
            (holtwinters_fit, {"period": 4, "gamma": 1.5}, "gamma must lie in [0, 1], got 1.5"),
            (holtwinters_fit, {"period": 1, "beta": -2.0, "gamma": 1.5}, "beta must lie in [0, 1], got -2.0"),
            (
                holtwinters_fit,
                {"period": 4, "alpha": 3.0, "beta": -2.0, "gamma": 1.5},
                "alpha must lie in [0, 1], got 3.0",
            ),
        ],
    )
    def test_fit_validation(self, fit, weights, message):
        # A given weight is rejected before the fit reads the train, so
        # before any grid sweep, and before the period is checked.
        with pytest.raises(InvalidHyperparameter, match=re.escape(message)):
            fit(UnreadTrain(), **weights)


# PCI's default alpha, read from the detector's table (the fit calls it alpha).
PCI_ALPHA = PciDetector.params["pci_alpha"]


class TestPci:
    def test_constant_scores_zero(self):
        train = series(np.full(100, 3.0))
        out = pci_score(pci_fit(train, k=5, alpha=PCI_ALPHA), series(np.full(80, 3.0)))
        assert np.max(out) == 0.0

    @pytest.mark.parametrize(
        "params, message",
        [
            ({"alpha": 40.0}, "alpha must lie in (50, 100), got 40.0"),
            ({"alpha": 100.0}, "alpha must lie in (50, 100), got 100.0"),
            ({"alpha": float("nan")}, "alpha must lie in (50, 100), got nan"),
            ({"k": 0}, "k must be >= 1, got 0"),
            ({"k": -3}, "k must be >= 1, got -3"),
        ],
    )
    def test_alpha_range_enforced(self, monkeypatch, params, message):
        def no_forecast(*args):
            raise AssertionError("the predictor ran")

        monkeypatch.setattr(statistical, "_pci_predict", no_forecast)
        with pytest.raises(InvalidHyperparameter, match=re.escape(message)):
            pci_fit(ar1(200), **{"k": PciDetector.params["k"], "alpha": PCI_ALPHA, **params})

    def test_overflowing_residual_spread(self):
        huge = np.tile([1.5e308, -1.5e308, 1.5e308, 1.5e308], 30)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonFiniteValues, match="residual_s must be finite"):
                pci_fit(series(huge), k=5, alpha=PCI_ALPHA)

    def test_hand_formula(self):
        fit = PciFit(k=1, alpha=95.0, residual_s=1.0)
        out = pci_score(fit, series([1.0, 2.0, 3.0, 4.0, 5.0]))
        # Weighted forecast (0.5 x_{t-2} + x_{t-1}) / 1.5 leaves residual 4/3
        # everywhere on a unit-slope line; dof = 2k - 1 = 1.
        half_width = 6.313751514800932 * math.sqrt(1.5)
        # One score for each point after the first 2k.
        assert len(out) == 3
        assert np.allclose(out, (4.0 / 3.0) / half_width, atol=1e-9)

    def test_spike_has_top_score(self):
        train = ar1(300, seed=41)
        test_values = ar1(260, seed=42).values.copy()
        test_values[140] += 12.0
        out = pci_score(pci_fit(train, k=10, alpha=PCI_ALPHA), with_lookback(train, series(test_values), 20))
        assert len(out) == 260
        assert np.argmax(out) == 140

    def test_one_lag_and_a_tail_quantile_give_an_ok_row(self):
        # k = 1 gives one degree of freedom, whose 99.99999 % quantile
        # (about 3.2e6) lies above 2**19, where floats are more than 1e-10 apart.
        code = (
            "import numpy as np\n"
            "from tsadkit import DetectorConfig, TimeSeries, get_detector, timed_run\n"
            "rng = np.random.default_rng(3)\n"
            "labels = np.zeros(200, dtype=np.int64)\n"
            "labels[120] = 1\n"
            "values = rng.standard_normal(300)\n"
            "values[220] += 8.0\n"
            "train = TimeSeries(values[:100], series_id='t')\n"
            "test = TimeSeries(values[100:], labels=labels, series_id='t')\n"
            "cfg = DetectorConfig(name='pci', hyperparameters={'k': 1, 'pci_alpha': 99.99999})\n"
            "row, _ = timed_run(get_detector('pci'), cfg, train, test)\n"
            "print(row.status, row.failure_reason)\n"
        )
        assert in_a_fresh_process(code).split() == ["ok"]

    def test_too_short(self):
        with pytest.raises(SeriesTooShort):
            pci_fit(series(np.arange(10.0)), k=5, alpha=PCI_ALPHA)
        with pytest.raises(SeriesTooShort):
            pci_score(PciFit(k=5, alpha=PCI_ALPHA, residual_s=1.0), series(np.arange(10.0)))


class TestStudentT:
    # Reference values computed once with scipy.stats.t; scipy is not a
    # runtime dependency; the implementation sums the closed-form series.
    PPF_CASES = [
        (0.985, 59, 2.223840178563741),
        (0.985, 19, 2.345647533562372),
        (0.975, 9, 2.2621571628540993),
        (0.95, 1, 6.313751514800932),
        (0.6, 5, 0.2671808657039658),
        (0.985, 2, 5.642778353482552),
        (0.75, 30, 0.6827556933212925),
        (0.9, 100, 1.2900747613398769),
    ]
    CDF_CASES = [
        (2.0, 59, 0.9749447935058778),
        (1.5, 19, 0.9249757346288643),
        (-1.0, 9, 0.17171819806895677),
        (0.0, 5, 0.5),
        (3.5, 2, 0.9635863249727653),
    ]

    @pytest.mark.parametrize("p,dof,expected", PPF_CASES)
    def test_ppf(self, p, dof, expected):
        assert abs(student_t_ppf(p, dof) - expected) < 5e-10

    @pytest.mark.parametrize("t,dof,expected", CDF_CASES)
    def test_cdf(self, t, dof, expected):
        assert abs(_student_t_cdf(t, dof) - expected) < 1e-12

    def test_default_pci_quantile_is_pinned(self):
        # k = 30 gives dof 59; PCI reports depend on this value bit for bit.
        assert student_t_ppf(0.985, 59) == 2.223840178543469

    def test_symmetry(self):
        assert student_t_ppf(0.3, 7) == -student_t_ppf(0.7, 7)
        assert student_t_ppf(0.5, 7) == 0.0

    def test_round_trip(self):
        for p in (0.6, 0.9, 0.985):
            for dof in (1, 5, 59):
                assert abs(_student_t_cdf(student_t_ppf(p, dof), dof) - p) < 1e-9

    @staticmethod
    def one_dof_quantile(p: float) -> float:
        code = f"from tsadkit.detectors.statistical import student_t_ppf; print(student_t_ppf({p!r}, 1))"
        return float(in_a_fresh_process(code))

    def test_one_dof_quantile_above_2_to_the_19(self):
        # Floats there lie more than 1e-10 apart, so the bracket cannot
        # narrow to 1e-10; it stops when no float lies between its ends.
        p = 0.9999999
        assert self.one_dof_quantile(p) == pytest.approx(math.tan(math.pi * (p - 0.5)), rel=1e-6)

    def test_one_dof_quantile_above_1e12(self):
        # About 3.2e12: the bracket doubles past 1e12 and still ends.
        assert 1e12 < self.one_dof_quantile(1 - 1e-13) < math.inf

    def test_domain(self):
        with pytest.raises(ValueError):
            student_t_ppf(0.0, 5)
        with pytest.raises(ValueError):
            student_t_ppf(0.5, 0)


class TestAdapters:
    def test_ar_adapter_round_trip(self):
        detector = get_detector("ar")
        cfg = DetectorConfig(name="ar", hyperparameters={"p": 2})
        train = ar1(300, seed=51)
        out = detector.score(detector.fit(train, cfg), cfg, train, ar1(100, seed=52))
        assert out.size == 100

    def test_unknown_key_rejected(self):
        detector = get_detector("ar")
        cfg = DetectorConfig(name="ar", hyperparameters={"order": 2})
        with pytest.raises(ValueError, match="order"):
            detector.fit(ar1(300), cfg)

    def test_ma_order_defaults_to_window_width(self):
        detector = get_detector("ma")
        cfg = DetectorConfig(name="ma", window_width=3)
        assert detector.fit(ar1(400, seed=53), cfg).q == 3

    def test_es_uses_period_hint(self):
        detector = get_detector("es")
        pattern = np.tile([0.0, 0.0, 4.0, 4.0], 30)
        fit = detector.fit(series(pattern, period_hint=4), DetectorConfig(name="es"))
        assert fit.season_period == 4

    def test_es_without_period_is_trend_only(self):
        detector = get_detector("es")
        fit = detector.fit(ar1(120, seed=54), DetectorConfig(name="es"))
        assert fit.gamma is None
        assert fit.beta is not None

    def test_pci_two_sided_key(self):
        # A two-sided forecast reads k points after the one it scores, so it
        # could not score the last k test points: the key is refused.
        detector = get_detector("pci")
        train = ar1(300, seed=55)
        cfg = DetectorConfig(name="pci", hyperparameters={"k": 5, "two_sided": True})
        with pytest.raises(UnknownHyperparameter, match="two_sided"):
            detector.fit(train, cfg)
        cfg = DetectorConfig(name="pci", hyperparameters={"k": 5})
        assert len(detector.score(detector.fit(train, cfg), cfg, train, ar1(100, seed=56))) == 100


class TestModelQuality:
    def test_ar_nmm_below_one(self):
        train = ar1(600, seed=61)
        test = ar1(400, seed=62)
        fit = ar_fit(train, p=2)
        out = ar_score(fit, with_lookback(train, test, 2))
        ratio = nmm(float(np.mean(out**2)), naive_mse(test))
        assert ratio < 1.0

    def test_scores_shift_invariant(self):
        train = ar1(400, seed=63)
        test = ar1(200, seed=64)
        fit = ar_fit(train, p=2)
        shifted_fit = ar_fit(series(train.values + 100.0), p=2)
        base = ar_score(fit, test)
        moved = ar_score(shifted_fit, series(test.values + 100.0))
        assert np.allclose(base, moved, atol=1e-6)


# ---------------------------------------------------------------------------
# Frozen oracles: the numpy-scalar recursions the Python-float and
# preallocated-buffer rewrites replaced.  Every output must match them bit
# for bit.


def reference_css_residuals(values, theta, p, q):
    c = theta[0]
    ar = theta[1 : 1 + p]
    ma = theta[1 + p :]
    n = values.size
    eps = np.zeros(n)
    for t in range(p, n):
        pred = c
        for i in range(p):
            pred += ar[i] * values[t - 1 - i]
        for j in range(q):
            if t - 1 - j >= p:
                pred += ma[j] * eps[t - 1 - j]
        eps[t] = values[t] - pred
    return eps


def reference_css_jacobian(values, theta, p, q, eps):
    ma = theta[1 + p :]
    n = values.size
    k = theta.size
    jac = np.zeros((n, k))
    for t in range(p, n):
        row = jac[t]
        row[0] = -1.0
        for i in range(p):
            row[1 + i] = -values[t - 1 - i]
        for j in range(q):
            if t - 1 - j >= p:
                row[1 + p + j] = -eps[t - 1 - j]
                row -= ma[j] * jac[t - 1 - j]
    return jac


def reference_ses_fit(train, alpha=None):
    values = train.values
    if values.size < 2:
        raise SeriesTooShort("smoothing needs at least 2 observations")
    alphas = statistical._GRID if alpha is None else np.asarray([alpha], dtype=np.float64)
    levels = np.full(alphas.size, values[0])
    sse = np.zeros(alphas.size)
    for t in range(1, values.size):
        err = values[t] - levels
        sse += err * err
        levels = alphas * values[t] + (1.0 - alphas) * levels
    best = int(np.argmin(sse))
    return SmoothingFit(alpha=float(alphas[best]), level=float(levels[best]), train_sse=float(sse[best]))


def reference_holt_fit(train, alpha=None, beta=None):
    values = train.values
    if values.size < 3:
        raise SeriesTooShort("trend smoothing needs at least 3 observations")
    a_axis = statistical._GRID if alpha is None else np.asarray([alpha], dtype=np.float64)
    b_axis = statistical._GRID if beta is None else np.asarray([beta], dtype=np.float64)
    alphas = np.repeat(a_axis, b_axis.size)
    betas = np.tile(b_axis, a_axis.size)
    levels = np.full(alphas.size, values[0])
    trends = np.full(alphas.size, values[1] - values[0])
    sse = np.zeros(alphas.size)
    for t in range(1, values.size):
        forecast = levels + trends
        err = values[t] - forecast
        sse += err * err
        new_levels = alphas * values[t] + (1.0 - alphas) * forecast
        trends = betas * (new_levels - levels) + (1.0 - betas) * trends
        levels = new_levels
    best = int(np.argmin(sse))
    return SmoothingFit(
        alpha=float(alphas[best]),
        beta=float(betas[best]),
        level=float(levels[best]),
        trend=float(trends[best]),
        train_sse=float(sse[best]),
    )


def reference_hw_sweep(values, period, alphas, betas, gammas):
    n = values.size
    k = alphas.size
    level0 = float(values[:period].mean())
    trend0 = float((values[period : 2 * period].mean() - level0) / period)
    levels = np.full(k, level0)
    trends = np.full(k, trend0)
    seasons = np.empty((n, k))
    seasons[:period] = (values[:period] - level0)[:, None]
    sse = np.zeros(k)
    for t in range(period, n):
        x = values[t]
        season_prev = seasons[t - period]
        forecast = levels + trends + season_prev
        err = x - forecast
        sse += err * err
        new_levels = alphas * x + (1.0 - alphas) * (levels + trends)
        trends = betas * (new_levels - levels) + (1.0 - betas) * trends
        seasons[t] = gammas * (x - new_levels) + (1.0 - gammas) * season_prev
        levels = new_levels
    return sse, levels, trends, seasons[n - period : n]


def frozen_holtwinters_fit(train, period, alpha=None, beta=None, gamma=None):
    """``holtwinters_fit`` with its final one-combination sweep, which
    recomputes a column the last grid sweep already holds."""
    values = train.values
    grid, sweep = statistical._GRID, statistical._hw_sweep
    current = {
        "alpha": 0.5 if alpha is None else alpha,
        "beta": 0.5 if beta is None else beta,
        "gamma": 0.5 if gamma is None else gamma,
    }
    free = [name for name, fixed in (("alpha", alpha), ("beta", beta), ("gamma", gamma)) if fixed is None]
    for _ in range(3 if free else 0):
        for name in free:
            axes = {
                key: (grid if key == name else np.full(grid.size, current[key]))
                for key in ("alpha", "beta", "gamma")
            }
            sse, _, _, _ = sweep(values, period, axes["alpha"], axes["beta"], axes["gamma"])
            current[name] = float(grid[int(np.argmin(sse))])
    one = np.asarray([1.0])
    sse, levels, trends, season_tail = sweep(
        values, period, one * current["alpha"], one * current["beta"], one * current["gamma"]
    )
    return SmoothingFit(
        alpha=current["alpha"],
        beta=current["beta"],
        gamma=current["gamma"],
        level=float(levels[0]),
        trend=float(trends[0]),
        season=tuple(season_tail[:, 0]),
        train_sse=float(sse[0]),
    )


def reference_smoothing_score(fit, test):
    values = test.values
    n = values.size
    scores = np.empty(n)
    level = fit.level
    trend = fit.trend if fit.beta is not None else 0.0
    seasonal = fit.gamma is not None
    ring = list(fit.season) if seasonal else []
    for t in range(n):
        x = values[t]
        season_prev = ring[0] if seasonal else 0.0
        forecast = level + trend + season_prev
        scores[t] = abs(x - forecast)
        new_level = fit.alpha * x + (1.0 - fit.alpha) * (level + trend)
        if fit.beta is not None:
            trend = fit.beta * (new_level - level) + (1.0 - fit.beta) * trend
        if seasonal:
            ring.append(fit.gamma * (x - new_level) + (1.0 - fit.gamma) * season_prev)
            ring.pop(0)
        level = new_level
    return scores


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def smoothing_bits(fit: SmoothingFit) -> bytes:
    fields = (fit.alpha, fit.beta, fit.gamma, fit.level, fit.trend, fit.train_sse)
    season = () if fit.season is None else fit.season
    return np.array([np.nan if v is None else v for v in fields + tuple(season)]).tobytes()


def arima_bits(fit: ArimaFit) -> bytes:
    return b"|".join(
        (fit.ar.tobytes(), fit.ma.tobytes(), np.float64(fit.intercept).tobytes(),
         bytes([fit.converged]), bytes([fit.d]))
    )


def outcome(fn, *args, **kwargs):
    """A call's result, or the type of the exception it raised."""
    try:
        with np.errstate(all="ignore"):
            return fn(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        return type(exc)


def drifting_walk(n, seed, drift=0.5):
    rng = np.random.default_rng(seed)
    return np.cumsum(drift + rng.normal(0.0, 1.0, n))


def seasonal_series(n, period, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    t = np.arange(n)
    return scale * (5.0 * np.sin(2 * np.pi * t / period) + 0.01 * t + rng.normal(0.0, 0.5, n))


ORDERS = [(1, 2), (0, 2), (1, 3), (2, 1), (2, 0), (0, 1)]


def use_reference_css(monkeypatch):
    """Route the program's CSS calls, which take no q, to the oracles."""

    def residuals(values, theta, p):
        return reference_css_residuals(values, theta, p, theta.size - 1 - p)

    def jacobian(values, theta, p, eps):
        return reference_css_jacobian(values, theta, p, theta.size - 1 - p, eps)

    monkeypatch.setattr(statistical, "_css_residuals", residuals)
    monkeypatch.setattr(statistical, "_css_jacobian", jacobian)


class TestCssOracle:
    @pytest.mark.parametrize("p, q", ORDERS)
    def test_residuals_and_jacobian_match_bit_for_bit(self, p, q):
        rng = np.random.default_rng(10 * p + q)
        values = ar1(300, seed=70 + p + q).values
        for _ in range(3):
            theta = rng.normal(0.0, 0.4, 1 + p + q)
            eps = statistical._css_residuals(values, theta, p)
            assert same_bits(eps, reference_css_residuals(values, theta, p, q))
            jac = statistical._css_jacobian(values, theta, p, eps)
            expected = reference_css_jacobian(values, theta, p, q, eps)
            assert same_bits(jac, expected)
            assert jac.flags.c_contiguous

    @pytest.mark.parametrize("p, q", ORDERS)
    def test_extreme_scale_recursions_match(self, p, q):
        # Residuals that overflow to inf and nan keep the oracle's bits too.
        values = ar1(300, seed=95).values * 1e200
        theta = np.random.default_rng(p + q).normal(0.0, 3.0, 1 + p + q)
        theta[0] = 1e200
        with np.errstate(all="ignore"):
            eps = statistical._css_residuals(values, theta, p)
            expected = reference_css_residuals(values, theta, p, q)
            assert same_bits(eps, expected)
            jac = statistical._css_jacobian(values, theta, p, eps)
            assert same_bits(jac, reference_css_jacobian(values, theta, p, q, expected))

    def test_jacobian_keeps_the_known_ma_defect(self):
        # Column 1+p+j for j >= 1 is off against central differences; the
        # fix is a deliberate output change of its own (ROADMAP item 1).
        values = ar1(200, seed=75).values
        theta = np.array([0.1, 0.5, 0.3, 0.2])
        eps = statistical._css_residuals(values, theta, 1)
        jac = statistical._css_jacobian(values, theta, 1, eps)
        h = 1e-6
        numeric = []
        for c in range(theta.size):
            step = np.zeros(theta.size)
            step[c] = h
            up = statistical._css_residuals(values, theta + step, 1)
            down = statistical._css_residuals(values, theta - step, 1)
            numeric.append((up - down) / (2 * h))
        numeric = np.array(numeric).T
        assert np.allclose(jac[:, :3], numeric[:, :3], atol=1e-6)
        assert not np.allclose(jac[:, 3], numeric[:, 3], atol=1e-3)

    @pytest.mark.parametrize("d", [0, 1, 2])
    def test_arima_fit_and_score_match_end_to_end(self, d, monkeypatch):
        values = ar1(500, seed=80).values if d == 0 else drifting_walk(500, seed=80 + d)
        train, test = series(values[:350]), series(values[350:])
        fit = arima_fit(train, p=1, d=d, q=2)
        scores = arima_score(fit, with_lookback(train, test, d + 1))
        use_reference_css(monkeypatch)
        expected = arima_fit(train, p=1, d=d, q=2)
        assert arima_bits(fit) == arima_bits(expected)
        expected_scores = arima_score(expected, with_lookback(train, test, d + 1))
        assert same_bits(scores, expected_scores)

    @pytest.mark.parametrize("p, q", ORDERS)
    def test_arma_fit_matches_for_every_order(self, p, q, monkeypatch):
        train = ar1(300, seed=90 + 3 * p + q)
        fit = outcome(arma_fit, train, p, q)
        use_reference_css(monkeypatch)
        expected = outcome(arma_fit, train, p, q)
        assert isinstance(fit, ArimaFit) and isinstance(expected, ArimaFit)
        assert same_bits(fit.ar, expected.ar) and same_bits(fit.ma, expected.ma)
        assert (fit.intercept, fit.converged) == (expected.intercept, expected.converged)

    def test_extreme_scale_gives_the_oracle_outcome(self, monkeypatch):
        train = series(ar1(300, seed=95).values * 1e200)
        fit = outcome(arima_fit, train, 1, 0, 2)
        use_reference_css(monkeypatch)
        expected = outcome(arima_fit, train, 1, 0, 2)
        if isinstance(expected, type):
            assert fit is expected
        else:
            assert arima_bits(fit) == arima_bits(expected)


class TestSmoothingOracle:
    @pytest.mark.parametrize("alpha", [None, 0.3, 1.0])
    def test_ses_matches(self, alpha):
        train, test = ar1(400, seed=101), ar1(100, seed=102)
        fit = ses_fit(train, alpha)
        expected = reference_ses_fit(train, alpha)
        assert smoothing_bits(fit) == smoothing_bits(expected)
        assert same_bits(smoothing_score(fit, test), reference_smoothing_score(fit, test))

    @pytest.mark.parametrize("alpha, beta", [(None, None), (0.4, 0.2), (None, 0.2)])
    @pytest.mark.parametrize("scale", [1.0, 1e200])
    def test_holt_fit_matches(self, alpha, beta, scale):
        train = series(drifting_walk(300, seed=108, drift=0.2) * scale)
        fit = outcome(holt_fit, train, alpha, beta)
        expected = outcome(reference_holt_fit, train, alpha, beta)
        assert isinstance(expected, SmoothingFit)
        assert smoothing_bits(fit) == smoothing_bits(expected)

    @pytest.mark.parametrize("alpha, beta", [(None, None), (0.4, 0.2)])
    def test_holt_scores_match(self, alpha, beta):
        values = drifting_walk(120, seed=103, drift=0.2)
        train, test = series(values[:90]), series(values[90:])
        fit = holt_fit(train, alpha, beta)
        assert same_bits(smoothing_score(fit, test), reference_smoothing_score(fit, test))

    @pytest.mark.parametrize(
        "fixed",
        [{}, {"alpha": 0.3}, {"beta": 0.1, "gamma": 0.6}, {"alpha": 0.3, "beta": 0.1, "gamma": 0.6}],
    )
    @pytest.mark.parametrize("n", [96, 300])  # 96 = 2 * period
    def test_holtwinters_matches(self, fixed, n, monkeypatch):
        values = seasonal_series(n + 48, 48, seed=104)
        train, test = series(values[:n]), series(values[n:])
        fit = holtwinters_fit(train, 48, **fixed)
        monkeypatch.setattr(statistical, "_hw_sweep", reference_hw_sweep)
        expected = holtwinters_fit(train, 48, **fixed)
        assert smoothing_bits(fit) == smoothing_bits(expected)
        assert same_bits(smoothing_score(fit, test), reference_smoothing_score(fit, test))

    @pytest.mark.parametrize(
        "fixed",
        [{}, {"beta": 0.1, "gamma": 0.6}, {"alpha": 0.3, "beta": 0.1, "gamma": 0.6}],
        ids=["all-free", "two-fixed", "all-fixed"],
    )
    @pytest.mark.parametrize("n, scale", [(96, 1.0), (1000, 1.0), (300, 1e200)])
    def test_holtwinters_takes_the_last_sweeps_column(self, fixed, n, scale):
        # The fit's state comes from the last grid sweep's argmin column
        # when any parameter is free, not from one more sweep.
        train = series(seasonal_series(n, 48, seed=107, scale=scale))
        fit = outcome(holtwinters_fit, train, 48, **fixed)
        expected = outcome(frozen_holtwinters_fit, train, 48, **fixed)
        assert isinstance(expected, SmoothingFit)
        assert smoothing_bits(fit) == smoothing_bits(expected)

    def test_holtwinters_skips_the_sweeps_the_descent_repeats(self, monkeypatch):
        # On the first SYNTH series the descent comes back to four of its
        # nine (parameter, other two weights) keys; the fit is unchanged.
        train, _ = _preprocess(RunConfig(datasets=("SYNTH",), detectors=("es",)), smoke_series()[0])
        calls, sweep = [], statistical._hw_sweep

        def counted(*args):
            calls.append(args)
            return sweep(*args)

        monkeypatch.setattr(statistical, "_hw_sweep", counted)
        fit = holtwinters_fit(train, 50)
        assert len(calls) == 5
        assert smoothing_bits(fit) == smoothing_bits(frozen_holtwinters_fit(train, 50))

    def test_one_combination_sweep_keeps_the_sequential_sse(self):
        # The final k = 1 sweep, whose sse is the fit's train_sse.
        values = seasonal_series(2000, 48, seed=105)
        one = np.asarray([0.5])
        sse, levels, trends, season = statistical._hw_sweep(values, 48, one * 0.3, one * 0.1, one * 0.6)
        expected = reference_hw_sweep(values, 48, one * 0.3, one * 0.1, one * 0.6)
        for got, want in zip((sse, levels, trends, season), expected):
            assert same_bits(got, want)

    def test_extreme_scale_gives_the_oracle_outcome(self, monkeypatch):
        train = series(seasonal_series(200, 10, seed=106, scale=1e200))
        fits = [outcome(ses_fit, train), outcome(holtwinters_fit, train, 10)]
        monkeypatch.setattr(statistical, "_hw_sweep", reference_hw_sweep)
        expected = [outcome(reference_ses_fit, train), outcome(holtwinters_fit, train, 10)]
        for fit, want in zip(fits, expected):
            if isinstance(want, type):
                assert fit is want
            else:
                assert smoothing_bits(fit) == smoothing_bits(want)


class TestSmoothingPeak:
    """The Holt-Winters sweep keeps one period of seasons per combination,
    so an es fit's traced peak does not grow with the train length."""

    def test_es_fit_peak_does_not_grow_with_train_length(self):
        detector = get_detector("es")
        cfg = DetectorConfig(name="es")
        peaks = []
        for length in (5_000, 40_000):  # 1,500 and 12,000 train points
            train, _ = long_synth(length)
            _, peak = traced_peak(lambda: detector.fit(train, cfg))
            peaks.append(peak)
        # A season matrix of one row per train point would hold 12,000 x 99
        # floats, 9 MiB.
        assert max(peaks) <= 2**20, peaks
        assert peaks[1] <= peaks[0] + 4096, peaks
