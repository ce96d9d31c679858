"""Forecast-then-residual detectors: AR, MA, ARMA/ARIMA, smoothing, PCI.

Every detector here forecasts one step ahead over the test segment using
true past values and scores each point by its absolute forecast error.
AR, ARIMA and PCI forecast the first test points from the train values
just before the test; MA and the smoothing family carry their state over.
Fitting is self-contained: least squares for AR, two-stage regression for
MA, conditional-sum-of-squares Gauss-Newton for ARMA, grid search for the
smoothing family, and an inverse-distance predictor with a Student-t band
for PCI.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from ..core import (
    Derived,
    DetectorConfig,
    TimeSeries,
    frame,
    resolve,
    with_lookback,
)
from ..errors import (
    InvalidHyperparameter,
    InvalidOrder,
    InvalidPeriod,
    NonFiniteValues,
    OrderTooLarge,
    PeriodTooLong,
    SeriesTooShort,
    SingularDesign,
)
from ..preprocessing import difference

__all__ = [
    "ArFit",
    "MaFit",
    "ArimaFit",
    "SmoothingFit",
    "PciFit",
    "lag_cap",
    "ar_fit",
    "ar_score",
    "invertible_ma",
    "ma_fit",
    "ma_score",
    "arma_fit",
    "arima_fit",
    "arima_score",
    "ses_fit",
    "holt_fit",
    "holtwinters_fit",
    "smoothing_score",
    "pci_fit",
    "pci_score",
    "student_t_ppf",
]

_GRID = np.arange(1, 100) / 100.0  # 0.01 .. 0.99


def lag_cap(n_train: int) -> int:
    """Maximal autoregressive order for a training set of n observations."""
    return math.floor(12.0 * (n_train / 100.0) ** 0.25)


# ---------------------------------------------------------------------------
# AR


@dataclass(frozen=True)
class ArFit:
    """Autoregression x_t = c + sum_i a_i x_{t-i} + e_t."""

    coefficients: np.ndarray
    intercept: float
    residual_sigma: float

    def __post_init__(self):
        if not (np.all(np.isfinite(self.coefficients)) and math.isfinite(self.intercept)):
            raise ValueError("AR parameters must be finite")
        if not math.isfinite(self.residual_sigma) or self.residual_sigma < 0.0:
            raise ValueError("residual_sigma must be finite and non-negative")

    @property
    def p(self) -> int:
        return int(self.coefficients.size)


def _lag_matrix(values: np.ndarray, p: int) -> np.ndarray:
    """Row t-p holds (x_{t-1}, ..., x_{t-p}) for t = p .. n-1; p = 0 gives
    n rows of no columns."""
    windows = np.lib.stride_tricks.sliding_window_view(values, p)[:-1]
    return windows[:, ::-1]


def _ar_residuals(values: np.ndarray, fit: ArFit) -> np.ndarray:
    """x_t minus its AR forecast from the p values before it, for t >= p."""
    return values[fit.p :] - (_lag_matrix(values, fit.p) @ fit.coefficients + fit.intercept)


def ar_fit(train: TimeSeries, p: Optional[int] = None) -> ArFit:
    """Conditional least squares: minimize sum over t>=p of (x_t - c - a.x_lags)^2.

    When p is omitted it defaults to the lag cap, clamped so at least three
    observations per parameter remain.
    """
    values = train.values
    n = values.size
    cap = lag_cap(n)
    if p is None:
        p = max(1, min(cap, n // 3))
    if p < 1:
        raise InvalidOrder(f"p must be >= 1, got {p}")
    if p > cap:
        raise OrderTooLarge(f"p={p} exceeds the lag cap {cap} for n={n}")
    if n < 3 * p:
        raise SeriesTooShort(f"AR({p}) needs at least {3 * p} observations, got {n}")

    design = np.column_stack((_lag_matrix(values, p), np.ones(n - p)))
    target = values[p:]
    theta, _, rank, _ = np.linalg.lstsq(design, target, rcond=None)
    if rank < p + 1:
        raise SingularDesign(f"AR design matrix is rank-deficient (rank {rank} < {p + 1})")
    residuals = target - design @ theta
    return ArFit(
        coefficients=theta[:p],
        intercept=float(theta[p]),
        residual_sigma=float(np.sqrt(np.mean(residuals**2))),
    )


def ar_score(fit: ArFit, series: TimeSeries) -> np.ndarray:
    """One-step-ahead absolute forecast errors of every point after the
    first p, rolling over true past values."""
    return np.abs(_ar_residuals(series.values, fit))


# ---------------------------------------------------------------------------
# MA


@dataclass(frozen=True)
class MaFit:
    """Moving average x_t = mu + sum_j b_j e_{t-j} + e_t."""

    coefficients: np.ndarray
    mu: float

    def __post_init__(self):
        if not (np.all(np.isfinite(self.coefficients)) and math.isfinite(self.mu)):
            raise ValueError("MA parameters must be finite")

    @property
    def q(self) -> int:
        return int(self.coefficients.size)


def invertible_ma(coefficients: np.ndarray) -> np.ndarray:
    """Coefficients b with no root of 1 + b_1 z + ... + b_q z^q inside the unit circle.

    Returned unchanged (the same array) when no root lies inside the unit
    circle.  Otherwise each root r with |r| < 1 is reflected to 1/conj(r) and
    the real coefficients are rebuilt from the roots; this keeps the model's
    autocorrelations (Brockwell & Davis 2016, sec. 3.1) and makes the
    innovation recursion in ``ma_score`` decay instead of grow geometrically.
    A root with |r| = 1 is its own reflection and stays where it is: the
    recursion then neither decays nor grows geometrically along it.
    """
    roots = np.polynomial.polynomial.polyroots(np.concatenate(([1.0], coefficients)))
    inside = np.abs(roots) < 1.0
    if not inside.any():
        return coefficients
    roots[inside] = 1.0 / np.conj(roots[inside])
    rebuilt = np.polynomial.polynomial.polyfromroots(roots).real
    rebuilt = rebuilt[1:] / rebuilt[0]
    return np.concatenate((rebuilt, np.zeros(coefficients.size - rebuilt.size)))


def ma_fit(train: TimeSeries, q: int) -> MaFit:
    """Two-stage estimation: long-AR residuals, then OLS on their lags.

    Stage one fits an AR of lag-cap order to proxy the innovations; stage
    two regresses x_t - mu on the q lagged residual estimates.  The
    estimate is then made invertible (``invertible_ma``).
    """
    values = train.values
    n = values.size
    if q < 1:
        raise InvalidOrder(f"q must be >= 1, got {q}")
    long_order = max(1, min(lag_cap(n), n // 3))
    rows = n - long_order - q
    if rows < 2 * q:
        raise OrderTooLarge(
            f"MA({q}) with long AR order {long_order} leaves {rows} rows from n={n}; "
            f"need at least {2 * q}"
        )
    eps = _ar_residuals(values, ar_fit(train, long_order))
    mu = float(values.mean())
    # Row t holds (eps_{t-1}, ..., eps_{t-q}) for targets x_t, t >= long_order+q.
    design = _lag_matrix(eps, q)
    target = values[long_order + q :] - mu
    coeffs, _, rank, _ = np.linalg.lstsq(design, target, rcond=None)
    if rank < q:
        raise SingularDesign(f"MA design matrix is rank-deficient (rank {rank} < {q})")
    return MaFit(coefficients=invertible_ma(coeffs), mu=mu)


def ma_score(fit: MaFit, test: TimeSeries) -> np.ndarray:
    """Run the innovation recursion forward: e_t = x_t - mu - b.e_lags."""
    values = test.values
    n = values.size
    q = fit.q
    b = fit.coefficients
    eps = np.zeros(n + q)  # leading q zeros stand in for pre-test innovations
    scores = np.empty(n)
    for t in range(n):
        pred = fit.mu + b @ eps[t : t + q][::-1]
        eps[t + q] = values[t] - pred
        scores[t] = abs(eps[t + q])
    return scores


# ---------------------------------------------------------------------------
# ARMA / ARIMA


@dataclass(frozen=True)
class ArimaFit:
    """Mixed model x_t = c + sum a_i x_{t-i} + sum b_j e_{t-j} + e_t, fitted
    after d rounds of differencing (d = 0 for a plain ARMA fit)."""

    ar: np.ndarray
    ma: np.ndarray
    intercept: float
    converged: bool
    d: int = 0

    def __post_init__(self):
        finite = np.all(np.isfinite(self.ar)) and np.all(np.isfinite(self.ma))
        if not (finite and math.isfinite(self.intercept)):
            raise ValueError("ARMA parameters must be finite")

    @property
    def p(self) -> int:
        return int(self.ar.size)

    @property
    def q(self) -> int:
        return int(self.ma.size)


def _css_residuals(values: np.ndarray, theta: np.ndarray, p: int) -> np.ndarray:
    """Innovations e_t for t in [p, n), zero-initialized before that.

    ``theta`` is (c, a_1 .. a_p, b_1 .. b_q).  The recursion runs on Python
    floats, which index far faster than numpy scalars; each prediction adds
    c, then the AR terms, then the MA terms.
    """
    x = values.tolist()
    c = float(theta[0])
    ar = list(enumerate(theta[1 : 1 + p].tolist(), start=1))  # (lag, coefficient)
    ma = list(enumerate(theta[1 + p :].tolist(), start=1))
    eps = [0.0] * len(x)
    for t in range(p, len(x)):
        pred = c
        for i, a in ar:
            pred += a * x[t - i]
        for j, b in ma:
            if t - j < p:  # innovations before p are zero
                break
            pred += b * eps[t - j]
        eps[t] = x[t] - pred
    return np.array(eps)


def _css_jacobian(values: np.ndarray, theta: np.ndarray, p: int, eps: np.ndarray) -> np.ndarray:
    """d eps_t / d theta via the same recursion, rows zero for t < p.

    Each column is a scalar filter on Python floats: start from the direct
    term (-1 for c, -x_{t-i} for the AR coefficient at lag i), then for
    each MA lag j = 1..q subtract b_j times the column's value at t-j.  The
    column of b_j is *set* to -e_{t-j} at lag j, which discards what lags
    j' < j already subtracted from it.  That reproduces, on purpose and to
    the last bit, the derivative this fit has always used: the columns for
    MA lags j >= 2, which exist when q >= 2, are wrong.  Correcting them
    changes the fitted models and is a change of its own (ROADMAP item
    1), not part of a speed-up.
    """
    x = values.tolist()
    e = eps.tolist()
    ma = list(enumerate(theta[1 + p :].tolist(), start=1))  # (lag, coefficient)
    n = len(x)
    jac = np.zeros((n, theta.size))
    for c in range(theta.size):
        col = [0.0] * n
        for t in range(p, n):
            if c == 0:
                v = -1.0
            elif c <= p:
                v = -x[t - c]
            else:
                v = 0.0
            for j, b in ma:
                if t - j < p:
                    break
                if c == p + j:
                    v = -e[t - j]
                v -= b * col[t - j]
            col[t] = v
        jac[:, c] = col
    return jac


def arma_fit(train: TimeSeries, p: int, q: int) -> ArimaFit:
    """Conditional sum of squares minimized by damped Gauss-Newton.

    Initialized from a two-stage regression on long-AR residuals; stops when
    the improvement falls below 1e-8 or after 500 iterations, in which case
    the best iterate is returned flagged not converged.  The record's d is 0.
    """
    if p < 0 or q < 0 or p + q < 1:
        raise InvalidOrder(f"need p, q >= 0 and p+q >= 1, got p={p}, q={q}")
    values = train.values
    n = values.size
    if n < 3 * (p + q) + 2:
        raise SeriesTooShort(f"ARMA({p},{q}) needs at least {3 * (p + q) + 2} points, got {n}")

    theta = _hannan_rissanen_init(values, p, q)
    eps = _css_residuals(values, theta, p)
    sse = float(eps @ eps)
    lam = 1e-3
    converged = False
    for _ in range(500):
        jac = _css_jacobian(values, theta, p, eps)
        grad = jac.T @ eps
        hess = jac.T @ jac
        accepted = False
        for _ in range(15):
            try:
                delta = np.linalg.solve(hess + lam * np.eye(theta.size), -grad)
            except np.linalg.LinAlgError:
                raise SingularDesign("ARMA normal equations are singular") from None
            candidate = theta + delta
            eps_new = _css_residuals(values, candidate, p)
            sse_new = float(eps_new @ eps_new)
            if math.isfinite(sse_new) and sse_new < sse:
                accepted = True
                break
            lam *= 10.0
        if not accepted:
            converged = True  # no damped step improves: at a local minimum
            break
        improvement = sse - sse_new
        theta, eps, sse = candidate, eps_new, sse_new
        lam = max(lam / 10.0, 1e-12)
        if improvement < 1e-8:
            converged = True
            break
    return ArimaFit(
        ar=theta[1 : 1 + p],
        ma=theta[1 + p :],
        intercept=float(theta[0]),
        converged=converged,
    )


def _hannan_rissanen_init(values: np.ndarray, p: int, q: int) -> np.ndarray:
    n = values.size
    long_order = max(p, q, min(lag_cap(n), max(1, n // 4)))
    if n < 3 * long_order:
        long_order = max(1, n // 3)
    series = TimeSeries(values=values, series_id="_init")
    eps = np.zeros(n)
    eps[long_order:] = _ar_residuals(values, ar_fit(series, long_order))
    start = long_order + max(p, q)
    # Rows t = start .. n-1 of the intercept, the p value lags and the q
    # innovation lags.
    design = np.column_stack(
        (np.ones(n - start), _lag_matrix(values, p)[start - p :], _lag_matrix(eps, q)[start - q :])
    )
    theta, _, rank, _ = np.linalg.lstsq(design, values[start:], rcond=None)
    if rank < design.shape[1]:
        raise SingularDesign("ARMA initialization design is rank-deficient")
    return theta


def arima_fit(train: TimeSeries, p: int, d: Optional[int], q: int) -> ArimaFit:
    """Difference d times, then fit ARMA(p, q) on what remains.

    When d is None, a cheap trend test picks 1 if a least-squares line over
    the train rises by more than two residual standard deviations end to
    end, else 0.
    """
    if d is None:
        d = _trend_order(train.values)
    if d not in (0, 1, 2):
        raise InvalidOrder(f"d must be 0, 1 or 2, got {d}")
    if len(train) < 3 * (p + q) + d + 2:
        raise SeriesTooShort(
            f"ARIMA({p},{d},{q}) needs at least {3 * (p + q) + d + 2} points, got {len(train)}"
        )
    return replace(arma_fit(difference(train, d), p, q), d=d)


def _trend_order(values: np.ndarray) -> int:
    n = values.size
    design = np.column_stack((np.arange(n, dtype=np.float64), np.ones(n)))
    theta = np.linalg.lstsq(design, values, rcond=None)[0]
    sigma = float(np.sqrt(np.mean((values - design @ theta) ** 2)))
    return 1 if abs(theta[0]) * n > 2.0 * sigma else 0


def arima_score(fit: ArimaFit, series: TimeSeries) -> np.ndarray:
    """Difference d times, then the one-step residuals of every point after
    the first d + p; innovations before those points are zero."""
    theta = np.concatenate(([fit.intercept], fit.ar, fit.ma))
    eps = _css_residuals(difference(series, fit.d).values, theta, fit.p)
    return np.abs(eps[fit.p :])


# ---------------------------------------------------------------------------
# Exponential smoothing family


@dataclass(frozen=True)
class SmoothingFit:
    """Level/trend/season recursion state after the training sweep.

    beta None means no trend component (simple smoothing); gamma None means
    no seasonal component.  ``season`` holds the last season_period seasonal
    values, oldest first.
    """

    alpha: float
    beta: Optional[float] = None
    gamma: Optional[float] = None
    level: float = 0.0
    trend: float = 0.0
    season: Optional[tuple] = None
    train_sse: float = 0.0

    @property
    def season_period(self) -> Optional[int]:
        return None if self.season is None else len(self.season)


def _check_weights(**weights: Optional[float]) -> None:
    """Reject a given smoothing weight outside [0, 1]; None is grid-searched."""
    for name, value in weights.items():
        if value is not None and not (0.0 <= value <= 1.0):
            raise InvalidHyperparameter(f"{name} must lie in [0, 1], got {value}")


def ses_fit(train: TimeSeries, alpha: Optional[float] = None) -> SmoothingFit:
    """Simple exponential smoothing; alpha grid-searched on one-step SSE."""
    _check_weights(alpha=alpha)
    values = train.values
    if values.size < 2:
        raise SeriesTooShort("smoothing needs at least 2 observations")
    alphas = _GRID if alpha is None else np.asarray([alpha], dtype=np.float64)
    keep = 1.0 - alphas
    levels = np.full(alphas.size, values[0])
    carried, err, sse = np.empty(alphas.size), np.empty(alphas.size), np.zeros(alphas.size)
    for x in values[1:].tolist():
        np.subtract(x, levels, out=err)
        err *= err
        sse += err
        # Interpolation form: alpha == 1 reproduces the observation exactly.
        np.multiply(keep, levels, out=carried)
        np.multiply(alphas, x, out=levels)
        levels += carried
    best = int(np.argmin(sse))
    return SmoothingFit(alpha=float(alphas[best]), level=float(levels[best]), train_sse=float(sse[best]))


def holt_fit(
    train: TimeSeries, alpha: Optional[float] = None, beta: Optional[float] = None
) -> SmoothingFit:
    """Level+trend smoothing; (alpha, beta) grid-searched on one-step SSE."""
    _check_weights(alpha=alpha, beta=beta)
    values = train.values
    if values.size < 3:
        raise SeriesTooShort("trend smoothing needs at least 3 observations")
    a_axis = _GRID if alpha is None else np.asarray([alpha], dtype=np.float64)
    b_axis = _GRID if beta is None else np.asarray([beta], dtype=np.float64)
    alphas = np.repeat(a_axis, b_axis.size)
    betas = np.tile(b_axis, a_axis.size)
    k = alphas.size
    keep_a, keep_b = 1.0 - alphas, 1.0 - betas
    levels, new_levels = np.full(k, values[0]), np.empty(k)
    trends = np.full(k, values[1] - values[0])
    forecast, work, sse = np.empty(k), np.empty(k), np.zeros(k)
    for x in values[1:]:
        np.add(levels, trends, out=forecast)
        np.subtract(x, forecast, out=work)
        work *= work
        sse += work
        np.multiply(alphas, x, out=new_levels)
        forecast *= keep_a
        new_levels += forecast
        np.subtract(new_levels, levels, out=work)
        work *= betas
        trends *= keep_b
        trends += work
        levels, new_levels = new_levels, levels
    best = int(np.argmin(sse))
    return SmoothingFit(
        alpha=float(alphas[best]),
        beta=float(betas[best]),
        level=float(levels[best]),
        trend=float(trends[best]),
        train_sse=float(sse[best]),
    )


def _hw_sweep(
    values: np.ndarray, period: int, alphas: np.ndarray, betas: np.ndarray, gammas: np.ndarray
):
    """Vectorized seasonal recursion over a combo axis; returns sse and states.

    Each step writes into preallocated buffers of one value per combination.
    Only one period of seasons is kept: row ``t % period`` of the ring holds
    the season of step t - period until step t reads it and overwrites it.
    The returned tail is the ring rolled into time order, oldest first.  The
    values are read one scalar at a time, not as a list, so the sweep holds
    O(period * combinations) whatever the series length.
    """
    n = values.size
    k = alphas.size
    level0 = float(values[:period].mean())
    trend0 = float((values[period : 2 * period].mean() - level0) / period)
    keep_a, keep_b, keep_g = 1.0 - alphas, 1.0 - betas, 1.0 - gammas
    levels, new_levels = np.full(k, level0), np.empty(k)
    trends = np.full(k, trend0)
    base, work, sse = np.empty(k), np.empty(k), np.zeros(k)  # base = level + trend
    seasons = np.empty((period, k))
    seasons[:] = (values[:period] - level0)[:, None]
    for t, x in enumerate(values[period:], start=period):
        season = seasons[t % period]
        np.add(levels, trends, out=base)
        np.add(base, season, out=work)  # the one-step forecast
        np.subtract(x, work, out=work)
        work *= work
        sse += work
        np.multiply(alphas, x, out=new_levels)
        base *= keep_a
        new_levels += base
        np.subtract(new_levels, levels, out=work)
        work *= betas
        trends *= keep_b
        trends += work
        np.subtract(x, new_levels, out=work)
        work *= gammas
        np.multiply(keep_g, season, out=season)
        season += work
        levels, new_levels = new_levels, levels
    return sse, levels, trends, np.roll(seasons, -(n % period), axis=0)


def holtwinters_fit(
    train: TimeSeries,
    period: int,
    alpha: Optional[float] = None,
    beta: Optional[float] = None,
    gamma: Optional[float] = None,
) -> SmoothingFit:
    """Additive level+trend+season smoothing tuned by coordinate grid descent.

    Each free parameter is swept over {0.01, ..., 0.99} with the others
    fixed, cycling three rounds; the full cartesian grid would cost 99^3
    recursions for the same axis resolution.  A sweep is fully determined
    by its parameter and the other two weights, so one the descent comes
    back to is not run again: its argmin column and that column's state
    are kept under that key.
    """
    _check_weights(alpha=alpha, beta=beta, gamma=gamma)
    if period < 2:
        raise InvalidPeriod(f"period must be >= 2, got {period}")
    values = train.values
    if values.size < 2 * period:
        raise PeriodTooLong(
            f"need at least 2*period = {2 * period} observations, got {values.size}"
        )
    current = {
        "alpha": 0.5 if alpha is None else alpha,
        "beta": 0.5 if beta is None else beta,
        "gamma": 0.5 if gamma is None else gamma,
    }
    free = [name for name, fixed in (("alpha", alpha), ("beta", beta), ("gamma", gamma)) if fixed is None]

    def argmin_state(*axes):
        """The sweep's argmin column and its (level, trend, season, sse)."""
        sse, levels, trends, season_tail = _hw_sweep(values, period, *axes)
        best = int(np.argmin(sse))
        return best, (float(levels[best]), float(trends[best]), tuple(season_tail[:, best]), float(sse[best]))

    if free:
        sweeps: dict = {}
        for _ in range(3):
            for name in free:
                key = (name, *(current[other] for other in ("alpha", "beta", "gamma") if other != name))
                if key not in sweeps:
                    sweeps[key] = argmin_state(*(
                        _GRID if other == name else np.full(_GRID.size, current[other])
                        for other in ("alpha", "beta", "gamma")
                    ))
                best, state = sweeps[key]
                current[name] = float(_GRID[best])
        # The last key's argmin column ran the final combination, so its
        # state is the fit's.
    else:
        one = np.asarray([1.0])
        _, state = argmin_state(one * current["alpha"], one * current["beta"], one * current["gamma"])
    level, trend, season, sse = state
    return SmoothingFit(
        alpha=current["alpha"],
        beta=current["beta"],
        gamma=current["gamma"],
        level=level,
        trend=trend,
        season=season,
        train_sse=sse,
    )


def smoothing_score(fit: SmoothingFit, test: TimeSeries) -> np.ndarray:
    """Absolute one-step errors with the smoothing state rolled through test."""
    values = test.values
    scores = []
    level = fit.level
    trend = fit.trend if fit.beta is not None else 0.0
    seasonal = fit.gamma is not None
    ring = list(fit.season) if seasonal else []
    for x in values.tolist():
        season_prev = ring[0] if seasonal else 0.0
        forecast = level + trend + season_prev
        scores.append(abs(x - forecast))
        new_level = fit.alpha * x + (1.0 - fit.alpha) * (level + trend)
        if fit.beta is not None:
            trend = fit.beta * (new_level - level) + (1.0 - fit.beta) * trend
        if seasonal:
            ring.append(fit.gamma * (x - new_level) + (1.0 - fit.gamma) * season_prev)
            ring.pop(0)
        level = new_level
    return np.array(scores, dtype=np.float64)


# ---------------------------------------------------------------------------
# PCI


@dataclass(frozen=True)
class PciFit:
    """Inverse-distance forecast band: half-width t_{alpha,2k-1} * s * sqrt(1+1/(2k))."""

    k: int
    alpha: float
    residual_s: float


def _pci_predict(series: TimeSeries, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Weighted forecasts of every point after the first 2k, each from the 2k
    values before it (weight 1/j for lag j), and those points."""
    windows, targets = frame(series, 2 * k)
    weights = 1.0 / np.arange(2 * k, 0, -1)
    return windows @ weights / weights.sum(), targets


def pci_fit(train: TimeSeries, k: int, alpha: float) -> PciFit:
    """Estimate the predictor's residual spread on the training series."""
    if k < 1:
        raise InvalidHyperparameter(f"k must be >= 1, got {k}")
    if not (50.0 < alpha < 100.0):
        raise InvalidHyperparameter(f"alpha must lie in (50, 100), got {alpha}")
    predictions, targets = _pci_predict(train, k)
    residual_s = float((targets - predictions).std())
    if not math.isfinite(residual_s):
        raise NonFiniteValues(f"residual_s must be finite, got {residual_s}")
    return PciFit(k=k, alpha=alpha, residual_s=residual_s)


def pci_score(fit: PciFit, series: TimeSeries) -> np.ndarray:
    """|residual| / interval half-width of every point after the first 2k;
    score > 1 means outside the band."""
    predictions, targets = _pci_predict(series, fit.k)
    t_quantile = student_t_ppf(fit.alpha / 100.0, 2 * fit.k - 1)
    half_width = t_quantile * max(fit.residual_s, 1e-12) * math.sqrt(1.0 + 1.0 / (2 * fit.k))
    return np.abs(targets - predictions) / half_width


# ---------------------------------------------------------------------------
# Student-t quantile (no lookup tables)


def _student_t_cdf(t: float, dof: int) -> float:
    """P(T <= t) for an integer dof, from the finite series in
    theta = atan(t / sqrt(dof)) (Abramowitz & Stegun 26.7.3-26.7.4)."""
    theta = math.atan(t / math.sqrt(dof))
    cos2 = math.cos(theta) ** 2
    odd = dof % 2
    total, term = 0.0, math.cos(theta) if odd else 1.0
    for j in range(1, dof // 2 + 1):
        total += term
        term *= cos2 * (2 * j - 1 + odd) / (2 * j + odd)
    a = math.sin(theta) * total
    if odd:
        a = 2.0 / math.pi * (theta + a)
    return 0.5 + 0.5 * a  # a = P(|T| <= |t|), signed like t


def student_t_ppf(p: float, dof: int) -> float:
    """Quantile of Student's t via bisection on the closed-form CDF.

    Bisection runs until the bracket is narrower than 1e-10, or until no
    float lies between its ends (above 2**19 their spacing exceeds 1e-10).
    """
    if dof < 1:
        raise ValueError(f"degrees of freedom must be >= 1, got {dof}")
    if not (0.0 < p < 1.0):
        raise ValueError(f"p must lie in (0, 1), got {p}")
    if p == 0.5:
        return 0.0
    if p < 0.5:
        return -student_t_ppf(1.0 - p, dof)
    lo, hi = 0.0, 1.0
    while _student_t_cdf(hi, dof) < p:
        hi *= 2.0  # the CDF is 1.0 at inf, so the doubling ends
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if _student_t_cdf(mid, dof) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# Detector adapters (uniform fit/score contract)


class ArDetector:
    """Autoregression: one-step least-squares forecast from the last p values."""

    name = "ar"
    family = "statistical"
    params = {"p": Derived("lag cap floor(12*(n_train/100)^(1/4))", int)}

    def fit(self, train: TimeSeries, cfg: DetectorConfig) -> ArFit:
        return ar_fit(train, resolve(cfg, self.params)["p"])

    def score(self, model, cfg: DetectorConfig, train: TimeSeries, test: TimeSeries) -> np.ndarray:
        return ar_score(model, with_lookback(train, test, model.p))


class MaDetector:
    """Moving average: innovations regressed on the last q estimated innovations."""

    name = "ma"
    family = "statistical"
    params = {"q": Derived("window width w", int)}

    def fit(self, train: TimeSeries, cfg: DetectorConfig) -> MaFit:
        q = resolve(cfg, self.params)["q"]
        return ma_fit(train, cfg.window_width if q is None else q)

    def score(self, model, cfg: DetectorConfig, train: TimeSeries, test: TimeSeries) -> np.ndarray:
        return ma_score(model, test)


class ArimaDetector:
    """ARIMA(p, d, q): ARMA fit by conditional least squares after d differences."""

    name = "arima"
    family = "statistical"
    params = {"p": 1, "d": Derived("1 if trend detected else 0", int), "q": 2}

    def fit(self, train: TimeSeries, cfg: DetectorConfig) -> ArimaFit:
        p = resolve(cfg, self.params)
        return arima_fit(train, p["p"], p["d"], p["q"])

    def score(self, model, cfg: DetectorConfig, train: TimeSeries, test: TimeSeries) -> np.ndarray:
        return arima_score(model, with_lookback(train, test, model.d + model.p))


class SesDetector:
    """Simple exponential smoothing; alpha grid-searched unless fixed."""

    name = "ses"
    family = "statistical"
    params = {"alpha": Derived("grid search over {0.01..0.99}", float)}

    def fit(self, train: TimeSeries, cfg: DetectorConfig) -> SmoothingFit:
        return ses_fit(train, resolve(cfg, self.params)["alpha"])

    def score(self, model, cfg: DetectorConfig, train: TimeSeries, test: TimeSeries) -> np.ndarray:
        return smoothing_score(model, test)


class EsDetector:
    """Seasonal (or, without a period, trend-only) exponential smoothing."""

    name = "es"
    family = "statistical"
    params = {
        "alpha": Derived("grid search", float),
        "beta": Derived("grid search", float),
        "gamma": Derived("grid search (seasonal only)", float),
        "period": Derived("series period hint; trend-only smoothing when absent", int),
    }

    def fit(self, train: TimeSeries, cfg: DetectorConfig) -> SmoothingFit:
        p = resolve(cfg, self.params)
        period = train.period_hint if p["period"] is None else p["period"]
        if period is None:
            return holt_fit(train, p["alpha"], p["beta"])
        return holtwinters_fit(train, period, p["alpha"], p["beta"], p["gamma"])

    def score(self, model, cfg: DetectorConfig, train: TimeSeries, test: TimeSeries) -> np.ndarray:
        return smoothing_score(model, test)


class PciDetector:
    """Inverse-distance forecast with a Student-t confidence band."""

    name = "pci"
    family = "statistical"
    params = {"k": 30, "pci_alpha": 98.5}

    def fit(self, train: TimeSeries, cfg: DetectorConfig) -> PciFit:
        p = resolve(cfg, self.params)
        return pci_fit(train, p["k"], p["pci_alpha"])

    def score(self, model, cfg: DetectorConfig, train: TimeSeries, test: TimeSeries) -> np.ndarray:
        return pci_score(model, with_lookback(train, test, 2 * model.k))
