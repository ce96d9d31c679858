"""Release gate: nine end-to-end checks, one test per check.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line per
check; with ``-s`` each check also prints an ``ACCEPTANCE n:`` summary line.
Every check carries a wall-clock budget asserted alongside the numbers, so a
correct-but-pathologically-slow implementation fails the gate too.

Check 7 exercises the real datasets and skips (never fails) when
``TSAD_DATA_DIR`` does not point at an installed copy.
"""

from __future__ import annotations

import csv
import os
import time
from pathlib import Path

import numpy as np
import pytest

from tsadkit import DetectorConfig, get_detector, timed_run
from tsadkit.bench import RunConfig, emit_reports, run_benchmark
from tsadkit.core import ScoreSeries, TimeSeries
from tsadkit.data import SynthSpec, generate_synthetic, synthetic_base
from tsadkit.detectors.ml import lof_score
from tsadkit.detectors.neural import dense_net, net_forward, net_gradients
from tsadkit.detectors.statistical import ar_fit, ma_fit
from tsadkit.evaluation import naive_mse, nmm, roc_auc
from tsadkit.preprocessing import fit_standardizer, split, standardize


# ---------------------------------------------------------------------------
# 1. The ROC sweep must equal the rank statistic, ties included.


def _rank_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """P(random positive outscores random negative), half credit for ties."""
    pos = scores[labels == 1][:, None]
    neg = scores[labels == 0][None, :]
    wins = (pos > neg).sum() + 0.5 * (pos == neg).sum()
    return float(wins / (pos.size * neg.size))


def test_criterion_01_auc_equals_rank_statistic():
    rng = np.random.default_rng(20260815)
    t0 = time.perf_counter()
    worst = 0.0
    for trial in range(200):
        n = int(rng.integers(2, 1001))
        n_pos = int(rng.integers(1, n))
        labels = np.zeros(n, dtype=np.int64)
        labels[rng.permutation(n)[:n_pos]] = 1
        kind = trial % 4
        if kind == 0:
            scores = rng.standard_normal(n)
        elif kind == 1:
            scores = rng.integers(0, 4, size=n).astype(np.float64)  # heavy ties
        elif kind == 2:
            scores = np.full(n, float(rng.standard_normal()))  # all tied
        else:
            scores = np.round(rng.standard_normal(n), 1)  # clustered ties
        series = ScoreSeries(scores)
        _, auc = roc_auc(series, labels)
        worst = max(worst, abs(auc - _rank_auc(scores, labels)))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-12, f"max |sweep AUC - rank AUC| = {worst:.3e}"
    assert elapsed < 5.0, f"took {elapsed:.2f}s, budget 5s"
    print(
        f"ACCEPTANCE 1: PASS - sweep AUC matches the rank statistic to "
        f"{worst:.2e} over 200 label sets in {elapsed:.2f}s"
    )


# ---------------------------------------------------------------------------
# 2. The cached-structure LOF must reproduce the quadratic textbook version.


def _union_lof(reference: np.ndarray, query: np.ndarray, k: int) -> float:
    """LOF of the query against reference + query, built from scratch each call."""
    data = np.vstack((reference, query[None, :]))
    d = np.sqrt(((data[:, None, :] - data[None, :, :]) ** 2).sum(axis=2))
    np.fill_diagonal(d, np.inf)
    # Duplicate points give zero k-distances; floor them like the detector does.
    kdist = np.maximum(np.sort(d, axis=1)[:, k - 1], 1e-12)

    def lrd(i: int) -> float:
        neigh = np.nonzero(d[i] <= kdist[i])[0]
        reach = np.maximum(kdist[neigh], d[i, neigh])
        return neigh.size / float(reach.sum())

    q = data.shape[0] - 1
    neighbours = np.nonzero(d[q] <= kdist[q])[0]
    return float(np.mean([lrd(int(j)) for j in neighbours]) / lrd(q))


def test_criterion_02_lof_matches_quadratic_reference():
    rng = np.random.default_rng(7)
    t0 = time.perf_counter()
    width, k = 8, 10
    worst = 0.0
    for _ in range(50):
        dense = rng.normal(0.0, 1.0, size=(25, width))
        sparse = rng.normal(6.0, 3.0, size=(15, width))
        reference = np.vstack((dense, sparse))
        queries = (
            rng.normal(0.0, 1.0, size=width),  # inlier
            rng.normal(0.0, 30.0, size=width) + 50.0,  # far outlier
            reference[int(rng.integers(40))].copy(),  # exact duplicate
        )
        for query in queries:
            got = lof_score(reference, query, k=k)
            want = _union_lof(reference, np.asarray(query), k)
            worst = max(worst, abs(got - want))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-9, f"max |fast LOF - naive LOF| = {worst:.3e}"
    assert elapsed < 10.0, f"took {elapsed:.2f}s, budget 10s"
    print(
        f"ACCEPTANCE 2: PASS - LOF matches the quadratic reference to "
        f"{worst:.2e} over 150 queries in {elapsed:.2f}s"
    )


# ---------------------------------------------------------------------------
# 3. Backprop gradients must match central differences on every layer.


def _kink_margin(net, batch: np.ndarray) -> float:
    """Smallest |pre-activation| over the relu layers for this batch."""
    out = batch
    margin = np.inf
    for layer in net.layers:
        z = out @ layer.weights + layer.bias
        if layer.activation == "relu":
            margin = min(margin, float(np.abs(z).min()))
        out = np.maximum(z, 0.0) if layer.activation == "relu" else z
    return margin


def test_criterion_03_backprop_matches_central_differences():
    rng = np.random.default_rng(99)
    t0 = time.perf_counter()
    h = 1e-5
    worst = 0.0
    for _ in range(20):
        depth = int(rng.integers(1, 4))
        dims = (
            [int(rng.integers(2, 7))]
            + [int(rng.integers(2, 9)) for _ in range(depth)]
            + [int(rng.integers(1, 4))]
        )
        activations = [str(rng.choice(("relu", "linear"))) for _ in range(depth)] + ["linear"]
        net = dense_net(dims, activations, seed=int(rng.integers(2**32)))
        # Zero-initialized biases put dead batch rows exactly on relu kinks,
        # where the loss is not differentiable and central differences see the
        # half-slope.  Randomize the biases and insist on a kink margin wide
        # enough that no +-h probe can cross zero.
        for layer in net.layers:
            layer.bias += rng.uniform(-0.5, 0.5, size=layer.bias.shape)
        for _ in range(50):
            batch = rng.standard_normal((8, dims[0]))
            if _kink_margin(net, batch) > 1e-3:
                break
        else:
            raise AssertionError("no batch cleared the relu kink margin")
        targets = rng.standard_normal((8, dims[-1]))

        def batch_loss() -> float:
            out = np.vstack([net_forward(net, row) for row in batch])
            return float(np.mean((out - targets) ** 2))

        _, grads = net_gradients(net, batch, targets)
        for layer, (grad_w, grad_b) in zip(net.layers, grads):
            for param, grad in ((layer.weights, grad_w), (layer.bias, grad_b)):
                flat = param.reshape(-1)
                grad_flat = np.asarray(grad).reshape(-1)
                for j in range(flat.size):
                    keep = flat[j]
                    flat[j] = keep + h
                    up = batch_loss()
                    flat[j] = keep - h
                    down = batch_loss()
                    flat[j] = keep
                    numeric = (up - down) / (2.0 * h)
                    analytic = grad_flat[j]
                    rel = abs(analytic - numeric) / max(abs(analytic) + abs(numeric), 1e-8)
                    worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    assert worst < 1e-4, f"max relative gradient error = {worst:.3e}"
    assert elapsed < 30.0, f"took {elapsed:.2f}s, budget 30s"
    print(
        f"ACCEPTANCE 3: PASS - gradients match central differences to "
        f"{worst:.2e} over 20 architectures in {elapsed:.2f}s"
    )


# ---------------------------------------------------------------------------
# 4. Estimators must recover known generating parameters.


def test_criterion_04_parameter_recovery():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1001)
    n, burn = 2000, 200
    noise = rng.standard_normal(n + burn)
    x = np.zeros(n + burn)
    for t in range(2, n + burn):
        x[t] = 0.5 * x[t - 1] - 0.3 * x[t - 2] + noise[t]
    ar = ar_fit(TimeSeries(values=x[burn:]), p=2)
    assert abs(ar.coefficients[0] - 0.5) <= 0.05, f"a1 = {ar.coefficients[0]:.4f}"
    assert abs(ar.coefficients[1] + 0.3) <= 0.05, f"a2 = {ar.coefficients[1]:.4f}"

    rng = np.random.default_rng(1002)
    eps = rng.standard_normal(5001)
    y = eps[1:] + 0.6 * eps[:-1]
    ma = ma_fit(TimeSeries(values=y), q=1)
    assert abs(ma.coefficients[0] - 0.6) <= 0.1, f"b1 = {ma.coefficients[0]:.4f}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"took {elapsed:.2f}s, budget 10s"
    print(
        f"ACCEPTANCE 4: PASS - AR(2) -> ({ar.coefficients[0]:+.3f}, "
        f"{ar.coefficients[1]:+.3f}), MA(1) -> {ma.coefficients[0]:+.3f} "
        f"in {elapsed:.2f}s"
    )


# ---------------------------------------------------------------------------
# 5. Forecasting models must beat the last-value forecast on their own class.


def _own_class_nmm(detector_name: str, spec: SynthSpec, period_hint=None) -> float:
    series = TimeSeries(
        values=synthetic_base(spec),
        series_id=f"own-{detector_name}",
        period_hint=period_hint,
    )
    train, test = split(series)
    params = fit_standardizer(train)
    train = standardize(train, params)
    test = standardize(test, params)
    detector = get_detector(detector_name)
    cfg = DetectorConfig(name=detector_name, window_width=8)
    scores = detector.score(detector.fit(train, cfg), cfg, train, test)
    return nmm(float(np.mean(scores**2)), naive_mse(test))


def test_criterion_05_models_beat_persistence_on_their_own_class():
    t0 = time.perf_counter()
    ar_ratio = _own_class_nmm(
        "ar", SynthSpec(length=1500, base="ar_process", anomaly_rate=0.01, seed=7)
    )
    hw_ratio = _own_class_nmm(
        "es",
        SynthSpec(length=1500, base="sine_seasonal", anomaly_rate=0.01, seed=8),
        period_hint=50,
    )
    assert ar_ratio < 1.0, f"AR own-class NMM = {ar_ratio:.4f}"
    assert hw_ratio < 1.0, f"seasonal smoothing own-class NMM = {hw_ratio:.4f}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"took {elapsed:.2f}s, budget 30s"
    print(
        f"ACCEPTANCE 5: PASS - own-class NMM: ar={ar_ratio:.3f}, "
        f"es={hw_ratio:.3f} in {elapsed:.2f}s"
    )


# ---------------------------------------------------------------------------
# 6. Every detector must separate large point anomalies on seeded series.


_DETECTOR_MATRIX = {
    "ar": (8, {}),
    "ma": (8, {}),
    "arima": (8, {}),
    "ses": (8, {}),
    "es": (8, {}),
    "pci": (8, {}),
    "kmeans": (8, {}),
    "dbscan": (8, {"epsilon": 1.5}),
    "lof": (8, {}),
    "iforest": (2, {"n_trees": 100}),
    "ocsvm": (8, {}),
    "gbt": (8, {}),
    "mlp": (8, {}),
    "autoencoder": (8, {"hidden_dims": (32, 6), "epochs": 30}),
}


def test_criterion_06_every_detector_separates_point_anomalies():
    t0 = time.perf_counter()
    minima = {name: 1.0 for name in _DETECTOR_MATRIX}
    for seed in range(1, 21):
        series = generate_synthetic(
            SynthSpec(
                length=1500,
                base="ar_process",
                anomaly_rate=0.01,
                anomaly_kind="point",
                seed=seed,
            )
        )
        train, test = split(series)
        params = fit_standardizer(train)
        train = standardize(train, params)
        test = standardize(test, params)
        for name, (width, hyper) in _DETECTOR_MATRIX.items():
            cfg = DetectorConfig(
                name=name, window_width=width, hyperparameters=hyper, seed=seed * 7 + 1
            )
            run, _ = timed_run(get_detector(name), cfg, train, test)
            assert run.status == "ok", f"{name} failed on seed {seed}: {run.failure_reason}"
            minima[name] = min(minima[name], run.auc)
    for name, worst_auc in minima.items():
        if name == "kmeans":
            assert worst_auc > 0.6, f"kmeans worst AUC {worst_auc:.4f} <= 0.6"
        else:
            assert worst_auc >= 0.9, f"{name} worst AUC {worst_auc:.4f} < 0.9"
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0, f"took {elapsed:.2f}s, budget 300s"
    summary = ", ".join(f"{name}={auc:.3f}" for name, auc in sorted(minima.items()))
    print(f"ACCEPTANCE 6: PASS - worst-case AUC over 20 series: {summary} in {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 7. Real datasets, when installed, must reproduce the reference results.


def test_criterion_07_real_datasets():
    data_dir = os.environ.get("TSAD_DATA_DIR")
    root = Path(data_dir) if data_dir else None
    has_ud1 = has_nyct = False
    if root is not None:
        ud1 = root / "UD1"
        has_ud1 = ud1.is_dir() and (
            (ud1 / "manifest.txt").exists() or any(ud1.glob("*.csv"))
        )
        nyct = root / "NYCT"
        has_nyct = (nyct / "nyc_taxi.csv").exists() and (
            nyct / "combined_windows.json"
        ).exists()
    if not (has_ud1 or has_nyct):
        print(
            "ACCEPTANCE 7: SKIP - point TSAD_DATA_DIR at a directory with "
            "UD1/ and NYCT/ to enable the real-data check"
        )
        pytest.skip("real datasets not installed (TSAD_DATA_DIR)")

    t0 = time.perf_counter()
    notes = []
    if has_ud1:
        _, summary, _ = run_benchmark(
            RunConfig(datasets=("UD1",), detectors=("ar", "ma"), seed=0, data_dir=root)
        )
        cell = summary["datasets"]["UD1"]
        ar_auc, ma_auc = cell["ar"]["mean_auc"], cell["ma"]["mean_auc"]
        assert ar_auc is not None and abs(ar_auc - 0.911394) <= 0.05, f"ar mean AUC {ar_auc}"
        assert ma_auc is not None and abs(ma_auc - 0.868123) <= 0.05, f"ma mean AUC {ma_auc}"
        notes.append(f"UD1 ar={ar_auc:.4f} ma={ma_auc:.4f}")
    if has_nyct:
        forecasting = ("ar", "ma", "arima", "ses", "es", "pci")
        windowed = ("kmeans", "dbscan", "lof", "iforest", "ocsvm", "gbt", "mlp", "autoencoder")
        _, summary, _ = run_benchmark(
            RunConfig(
                datasets=("NYCT",), detectors=forecasting + windowed, seed=0, data_dir=root
            )
        )
        cell = summary["datasets"]["NYCT"]
        for name in forecasting:
            auc = cell[name]["mean_auc"]
            assert auc is not None and auc < 0.65, f"{name} mean AUC {auc} not < 0.65"
        windowed_aucs = [
            cell[name]["mean_auc"] for name in windowed if cell[name]["mean_auc"] is not None
        ]
        assert windowed_aucs, "no windowed detector produced a score on NYCT"
        best = max(windowed_aucs)
        assert best > 0.75, f"best windowed mean AUC {best:.4f} not > 0.75"
        notes.append(f"NYCT forecasting<0.65, best windowed={best:.4f}")
    elapsed = time.perf_counter() - t0
    print(f"ACCEPTANCE 7: PASS - {'; '.join(notes)} in {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 8. The linear-model detectors must be at least 10x faster than the MLP.


def test_criterion_08_statistical_detectors_lap_the_mlp():
    t0 = time.perf_counter()
    _, summary, _ = run_benchmark(
        RunConfig(datasets=("SYNTH",), detectors=("ar", "ma", "mlp"), seed=0)
    )
    cell = summary["datasets"]["SYNTH"]
    for name in ("ar", "ma", "mlp"):
        assert cell[name]["n_ok"] == 5 and cell[name]["n_failed"] == 0
    ar_cost = cell["ar"]["per_series_mean_seconds"]
    ma_cost = cell["ma"]["per_series_mean_seconds"]
    mlp_cost = cell["mlp"]["per_series_mean_seconds"]
    assert mlp_cost >= 10.0 * ar_cost, f"mlp/ar = {mlp_cost / ar_cost:.1f}x < 10x"
    assert mlp_cost >= 10.0 * ma_cost, f"mlp/ma = {mlp_cost / ma_cost:.1f}x < 10x"
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0, f"took {elapsed:.2f}s, budget 600s"
    print(
        f"ACCEPTANCE 8: PASS - per-series seconds ar={ar_cost:.5f}, "
        f"ma={ma_cost:.5f}, mlp={mlp_cost:.5f} "
        f"({mlp_cost / ar_cost:.0f}x, {mlp_cost / ma_cost:.0f}x) in {elapsed:.2f}s"
    )


# ---------------------------------------------------------------------------
# 9. Two runs with one seed must emit identical metrics and ROC files.


def test_criterion_09_benchmark_runs_are_reproducible(tmp_path):
    t0 = time.perf_counter()

    def run_once(out_dir: Path) -> None:
        config = RunConfig(
            datasets=("SYNTH",),
            detectors=("ar", "kmeans", "iforest"),
            seed=11,
            output_dir=out_dir,
        )
        rows, summary, curves = run_benchmark(config)
        emit_reports(rows, out_dir, summary, curves)

    first, second = tmp_path / "first", tmp_path / "second"
    run_once(first)
    run_once(second)

    def stable_rows(path: Path) -> list:
        with path.open(newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        drop = (rows[0].index("train_seconds"), rows[0].index("inference_seconds"))
        return [[cell for i, cell in enumerate(row) if i not in drop] for row in rows]

    assert stable_rows(first / "results.csv") == stable_rows(second / "results.csv")

    first_roc = sorted((first / "roc").glob("*.csv"))
    second_roc = sorted((second / "roc").glob("*.csv"))
    assert first_roc, "expected ROC files for ok rows"
    assert [p.name for p in first_roc] == [p.name for p in second_roc]
    for a, b in zip(first_roc, second_roc):
        assert a.read_bytes() == b.read_bytes(), f"{a.name} differs between runs"
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"took {elapsed:.2f}s, budget 120s"
    print(
        f"ACCEPTANCE 9: PASS - identical metric rows and {len(first_roc)} "
        f"byte-identical ROC files across reruns in {elapsed:.2f}s"
    )
