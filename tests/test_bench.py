"""Benchmark runner, report files and the command line front end."""

from __future__ import annotations

import csv
import json
import re
from dataclasses import fields, replace

import numpy as np
import pytest

from tsadkit import (
    DETECTOR_NAMES,
    ResultRow,
    RocCurve,
    RunConfig,
    catalog_lines,
    emit_reports,
    get_detector,
    run_benchmark,
    smoke_series,
    write_series_csv,
)
from tsadkit import bench, errors
from tsadkit.bench import _pair_seed, _preprocess
from tsadkit.cli import main, parse_kv_file
from tsadkit.detectors import REGISTRY, ml
from tsadkit.errors import InvalidSpec, TsadError, UnknownDetector

from conftest import series


def quick_config(**overrides) -> RunConfig:
    base = dict(datasets=("SYNTH",), detectors=("ar", "iforest"), seed=3)
    base.update(overrides)
    return RunConfig(**base)


def write_manifest(tmp_path, series_list):
    # Custom manifest paths let a known dataset live anywhere on disk; the
    # file stem must still name one of the catalog ids.
    lines = []
    for i, s in enumerate(series_list):
        path = tmp_path / f"series_{i}.csv"
        write_series_csv(s, path)
        lines.append(path.name)
    manifest = tmp_path / "ud1.txt"
    manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return manifest


def labelled_series(n=120, anomaly_at=100, seed=0):
    rng = np.random.default_rng(seed)
    values = rng.normal(0.0, 1.0, n)
    labels = np.zeros(n, dtype=np.int64)
    if anomaly_at is not None:
        values[anomaly_at] += 12.0
        labels[anomaly_at] = 1
    return series(values, labels=labels)


class TestRunBenchmark:
    def test_smoke_matrix_all_ok(self):
        rows, summary, curves = run_benchmark(
            RunConfig(datasets=("SYNTH",), detectors=("ar", "kmeans", "iforest"))
        )
        assert len(rows) == 15
        assert all(row.status == "ok" for row in rows)
        assert summary["n_rows"] == 15
        assert summary["n_ok"] == 15
        assert len(curves) == 15

    def test_excluded_series(self, tmp_path):
        manifest = write_manifest(
            tmp_path,
            [labelled_series(anomaly_at=100, seed=1), labelled_series(anomaly_at=5, seed=2)],
        )
        rows, summary, _ = run_benchmark(quick_config(datasets=(str(manifest),)))
        by_series = {}
        for row in rows:
            by_series.setdefault(row.series_id, set()).add(row.status)
        assert by_series["series_0"] == {"ok"}
        # The only anomaly lands in the training segment, so the test split
        # carries no positive label.
        assert by_series["series_1"] == {"excluded"}
        cell = summary["datasets"]["UD1"]["ar"]
        assert cell["n_ok"] == 1
        assert cell["n_excluded"] == 1

    def test_all_anomalous_test_segment_is_excluded(self, tmp_path):
        # Every test label is 1 (head = 0.3 * 120 = 36): one class, so no
        # detector runs, as when no test label is 1.
        only_anomalies = labelled_series(anomaly_at=None, seed=4)
        labels = np.zeros(120, dtype=np.int64)
        labels[36:] = 1
        manifest = write_manifest(tmp_path, [replace(only_anomalies, labels=labels)])
        rows, summary, curves = run_benchmark(quick_config(datasets=(str(manifest),)))
        assert [(row.status, row.failure_reason) for row in rows] == [
            ("excluded", "test segment holds one label class")
        ] * 2
        assert (rows[0].train_seconds, rows[0].inference_seconds) == (0.0, 0.0)
        assert summary["datasets"]["UD1"]["ar"]["n_excluded"] == 1
        assert curves == {}

    def test_a_huge_series_fails_without_aborting_the_batch(self, tmp_path):
        # Unstandardized values near +-1.5e308: window ranges, distances and
        # sums overflow.  Each detector fails that series with a typed
        # reason, and the healthy series keeps the rows it gets alone.
        healthy = labelled_series(seed=1)
        base = labelled_series(seed=2)
        huge = replace(base, values=np.clip(base.values, -1.5, 1.5) * 1e308)
        (tmp_path / "both").mkdir()
        (tmp_path / "alone").mkdir()
        config = quick_config(detectors=DETECTOR_NAMES, standardize=False)

        def outcome(rows):
            return [(r.detector, r.status, r.auc, r.best_f1, r.nmm, r.failure_reason) for r in rows]

        with np.errstate(over="ignore", invalid="ignore"):
            rows, _, _ = run_benchmark(
                replace(config, datasets=(str(write_manifest(tmp_path / "both", [healthy, huge])),))
            )
            alone, _, _ = run_benchmark(
                replace(config, datasets=(str(write_manifest(tmp_path / "alone", [healthy])),))
            )
        assert len(rows) == 2 * len(DETECTOR_NAMES)
        assert outcome(rows[: len(DETECTOR_NAMES)]) == outcome(alone)
        failed = rows[len(DETECTOR_NAMES) :]
        for row in failed:
            assert row.status == "failed"
            assert issubclass(getattr(errors, row.failure_reason.split(":")[0]), TsadError)
        iforest = next(row for row in failed if row.detector == "iforest")
        assert iforest.failure_reason.startswith("NonFiniteValues: window values span")

    def test_a_rising_kmeans_inertia_fails_without_aborting_the_batch(self, tmp_path):
        # Unstandardized values near 1e7: window distances are rounding
        # noise, so a k-means round raises the inertia.  ar fails the same
        # series, its lag design singular.  Every row is still written.
        healthy = labelled_series(seed=1)
        base = labelled_series(n=400, anomaly_at=380, seed=2)
        offset = replace(base, values=base.values + 1e7)
        manifest = write_manifest(tmp_path, [healthy, offset])
        config = quick_config(
            datasets=(str(manifest),), detectors=("ar", "kmeans"), standardize=False
        )
        rows, summary, curves = run_benchmark(config)
        emit_reports(rows, tmp_path / "out", summary, curves)
        assert [(r.series_id, r.detector, r.status) for r in rows] == [
            ("series_0", "ar", "ok"),
            ("series_0", "kmeans", "ok"),
            ("series_1", "ar", "failed"),
            ("series_1", "kmeans", "failed"),
        ]
        assert rows[2].failure_reason.startswith("SingularDesign:")
        assert rows[3].failure_reason.startswith("NumericalDivergence: k-means inertia rose from")
        assert len((tmp_path / "out" / "results.csv").read_text().splitlines()) == 5

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_kmeans_seeding_overflow_fails_without_aborting_the_batch(self, tmp_path):
        # Unstandardized noise near 1e153: each seeding distance is finite,
        # their sum overflows.  kmeans fails that series with a typed
        # reason, and the batch goes on to write every row.
        rng = np.random.default_rng(0)
        labels = np.zeros(600, dtype=np.int64)
        labels[450] = 1
        huge = series(rng.standard_normal(600) * 1e153, labels=labels)
        manifest = write_manifest(tmp_path, [labelled_series(seed=1), huge])
        config = quick_config(
            datasets=(str(manifest),), detectors=("ar", "kmeans"), standardize=False
        )
        rows, summary, curves = run_benchmark(config)
        emit_reports(rows, tmp_path / "out", summary, curves)
        assert [(r.series_id, r.detector, r.status) for r in rows] == [
            ("series_0", "ar", "ok"),
            ("series_0", "kmeans", "ok"),
            ("series_1", "ar", "failed"),
            ("series_1", "kmeans", "failed"),
        ]
        assert rows[3].failure_reason == "NonFiniteValues: k-means seeding distances overflow"
        assert len((tmp_path / "out" / "results.csv").read_text().splitlines()) == 5

    def test_detrend_keeps_the_first_test_point(self, tmp_path):
        # The only anomaly is the first test point (head = 0.3 * 200 = 60).
        # The whole series is differenced before the cut, so the train tail
        # differences the first test point and its label stays.
        s = labelled_series(n=200, anomaly_at=60)
        config = quick_config(datasets=(str(write_manifest(tmp_path, [s])),), detectors=("ses",))
        for detrend in (False, True):
            train, test = _preprocess(replace(config, detrend=detrend), s)
            assert (len(train), len(test)) == (60 - detrend, 140)
            assert np.array_equal(test.labels, s.labels[60:])
            rows, _, curves = run_benchmark(replace(config, detrend=detrend))
            assert [row.status for row in rows] == ["ok"]
            assert set(curves) == {("series_0", "ses")}

    def test_an_anomaly_at_the_first_test_point_is_scored_by_every_detector(
        self, tmp_path, monkeypatch
    ):
        # The only anomaly is the first test point (head = 0.3 * 200 = 60).
        # ar, kmeans and iforest read their lookback from the train tail, so
        # they score it like ses does.  A detector that scores fewer points
        # than the test holds is at fault itself.
        class EmptyDetector:
            name = "empty"
            family = "ml"

            def fit(self, train, cfg):
                return None

            def score(self, model, cfg, train, test):
                return np.empty(0)

        monkeypatch.setitem(REGISTRY, "empty", EmptyDetector())
        manifest = write_manifest(tmp_path, [labelled_series(n=200, anomaly_at=60)])
        detectors = ("ses", "ar", "kmeans", "iforest", "empty")
        rows, summary, curves = run_benchmark(
            quick_config(datasets=(str(manifest),), detectors=detectors)
        )
        assert [row.status for row in rows] == ["ok", "ok", "ok", "ok", "failed"]
        # One positive among 140 test points: the AUC is the share of the
        # 139 negatives scored below it.  The spike also lies in the windows
        # that end at the next 29 test points, so a window detector ranks
        # the first of them among 30: an AUC near 1 - 29/139 = 0.79.
        assert [row.auc > 0.75 for row in rows[:4]] == [True] * 4
        assert rows[4].failure_reason == "DimensionMismatch: 0 scores for 140 test points"
        assert set(curves) == {("series_0", name) for name in detectors[:4]}
        cells = summary["datasets"]["UD1"]
        assert [cells[name]["n_excluded"] for name in detectors] == [0] * 5
        assert [cells[name]["n_failed"] for name in detectors] == [0, 0, 0, 0, 1]

    def test_preprocess_failure_marks_all_detectors(self, tmp_path):
        short = series(np.arange(9.0))
        manifest = write_manifest(tmp_path, [short])
        rows, _, _ = run_benchmark(quick_config(datasets=(str(manifest),)))
        assert len(rows) == 2
        assert all(row.status == "failed" for row in rows)
        assert all("SeriesTooShort" in row.failure_reason for row in rows)

    def test_non_finite_scores_fail_only_their_pairs(self, monkeypatch):
        class NanDetector:
            name = "nan"
            family = "ml"
            keys = frozenset()
            defaults = {}

            def fit(self, train, cfg):
                return None

            def score(self, model, cfg, train, test):
                return np.full(len(test), np.nan)

        monkeypatch.setitem(REGISTRY, "nan", NanDetector())
        rows, summary, curves = run_benchmark(quick_config(detectors=("ar", "nan")))
        assert [row.detector for row in rows] == ["ar", "nan"] * 5
        for row in rows:
            if row.detector == "ar":
                assert row.status == "ok"
            else:
                assert row.status == "failed"
                assert row.failure_reason == "NonFiniteScores: scores contain non-finite values"
        assert summary["n_ok"] == 5
        assert len(curves) == 5

    def test_overflowing_series_fails_only_its_rows(self, tmp_path):
        # Finite values whose variance overflows: standardization cannot
        # proceed, and that must not abort the normal series after it.
        huge = labelled_series(n=300, anomaly_at=250, seed=5)
        huge = series(huge.values * 1e307, labels=huge.labels)
        manifest = write_manifest(tmp_path, [huge, labelled_series(n=300, anomaly_at=250)])
        with np.errstate(over="ignore"):
            rows, summary, _ = run_benchmark(
                quick_config(datasets=(str(manifest),), detectors=("ar", "kmeans"))
            )
        first, second = rows[:2], rows[2:]
        assert [row.status for row in first] == ["failed", "failed"]
        assert all(row.failure_reason.startswith("NonFiniteValues:") for row in first)
        assert [row.status for row in second] == ["ok", "ok"]
        assert summary["n_ok"] == 2

    def test_finite_spike_that_overflows_both_mses_fails_its_rows(self, tmp_path):
        # 1e160 squared overflows the naive MSE as well as the model's, so
        # NMM is undefined: each pair must become a failed row.
        rng = np.random.default_rng(8)
        values = np.sin(np.arange(1500) / 10.0) + 0.1 * rng.standard_normal(1500)
        labels = np.zeros(1500, dtype=np.int64)
        values[1200], labels[1200] = 1e160, 1
        manifest = write_manifest(tmp_path, [series(values, labels=labels)])
        detectors = ("ar", "ma", "arima", "ses", "es", "pci", "mlp")
        with np.errstate(over="ignore"):
            rows, summary, _ = run_benchmark(
                quick_config(datasets=(str(manifest),), detectors=detectors)
            )
        assert [row.status for row in rows] == ["failed"] * len(detectors)
        assert all(row.failure_reason.startswith("NonFiniteValues:") for row in rows)
        assert summary["n_ok"] == 0

    def test_extreme_scale_series_gives_rows_for_every_detector(self, tmp_path):
        # Finite values near 1e200, not standardized: distances and residual
        # spreads overflow, and each pair must end as a row, never abort.
        rng = np.random.default_rng(11)
        values = rng.standard_normal(600) * 1e200
        labels = np.zeros(600, dtype=np.int64)
        labels[450] = 1
        manifest = write_manifest(tmp_path, [series(values, labels=labels)])
        with np.errstate(all="ignore"):
            rows, _, _ = run_benchmark(
                quick_config(
                    datasets=(str(manifest),), detectors=DETECTOR_NAMES, standardize=False
                )
            )
        assert [row.detector for row in rows] == list(DETECTOR_NAMES)
        assert {row.status for row in rows} <= {"ok", "failed"}

    def test_oversized_distance_matrices_fail_their_rows(self, monkeypatch):
        # Every distance matrix these detectors build on SYNTH (>= 300 train
        # windows) is past a 10,000-entry cap.
        monkeypatch.setattr(ml, "_MAX_PAIRWISE_ENTRIES", 10_000)
        rows, _, _ = run_benchmark(quick_config(detectors=("lof", "dbscan", "ocsvm")))
        assert len(rows) == 15
        for row in rows:
            assert row.status == "failed", (row.series_id, row.detector)
            assert row.failure_reason.startswith("DistanceMatrixTooLarge:"), row.failure_reason

    def test_unknown_detector_fails_fast(self):
        with pytest.raises(UnknownDetector) as info:
            run_benchmark(quick_config(detectors=("nope",)))
        assert "ar" in str(info.value)

    def test_deseasonalize_uses_period_hint(self):
        rows, _, _ = run_benchmark(quick_config(detectors=("ar",), deseasonalize=True))
        assert all(row.status == "ok" for row in rows)

    def test_deseasonalize_without_any_period_fails(self, tmp_path):
        manifest = write_manifest(tmp_path, [labelled_series(seed=3)])
        rows, _, _ = run_benchmark(
            quick_config(datasets=(str(manifest),), detectors=("ar",), deseasonalize=True)
        )
        assert rows[0].status == "failed"
        assert "InvalidSpec" in rows[0].failure_reason

    def test_real_dataset_requires_data_dir(self):
        with pytest.raises(InvalidSpec, match="data directory"):
            run_benchmark(quick_config(datasets=("UD1",), data_dir=None))

    def test_config_validation(self):
        with pytest.raises(InvalidSpec):
            RunConfig(datasets=("SYNTH",), detectors=())

    def test_a_repeated_detector_is_refused(self):
        # Each repeat would add a second row per series under one name and
        # overwrite that pair's ROC file.
        message = "detectors occur more than once in the run: ['ar', 'ma']"
        with pytest.raises(InvalidSpec, match=re.escape(message)):
            RunConfig(datasets=("SYNTH",), detectors=("ma", "ar", "iforest", "ar", "ma"))


class TestPairSeeds:
    def test_deterministic(self):
        assert _pair_seed(3, "s1", "ar") == _pair_seed(3, "s1", "ar")

    def test_sensitive_to_every_part(self):
        base = _pair_seed(3, "s1", "ar")
        assert _pair_seed(4, "s1", "ar") != base
        assert _pair_seed(3, "s2", "ar") != base
        assert _pair_seed(3, "s1", "ma") != base

    def test_fits_unsigned_64(self):
        value = _pair_seed(0, "x", "y")
        assert 0 <= value < 2**64


@pytest.fixture(scope="module")
def completed(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench")
    config = quick_config(output_dir=out)
    rows, summary, curves = run_benchmark(config)
    emit_reports(rows, out, summary, curves)
    return rows, summary, out


class TestReports:
    def test_results_csv_round_trips(self, completed):
        rows, _, out = completed
        with (out / "results.csv").open(encoding="utf-8") as fh:
            parsed = list(csv.DictReader(fh))
        assert len(parsed) == len(rows)
        for row, record in zip(rows, parsed):
            assert record["dataset_id"] == row.dataset_id
            assert record["detector"] == row.detector
            assert float(record["auc"]) == row.auc
            assert float(record["nmm"]) == row.nmm
            assert record["status"] == "ok"

    def test_results_csv_round_trips_non_ok_rows(self, tmp_path, monkeypatch):
        class BrokenDetector:
            name = "broken"
            family = "ml"

            def fit(self, train, cfg):
                raise TsadError('bad fit, "quoted" part')

            def score(self, model, cfg, train, test):  # pragma: no cover - fit always raises
                raise AssertionError

        monkeypatch.setitem(REGISTRY, "broken", BrokenDetector())
        manifest = write_manifest(
            tmp_path,
            [labelled_series(anomaly_at=100, seed=1), labelled_series(anomaly_at=5, seed=2)],
        )
        rows, summary, curves = run_benchmark(
            quick_config(datasets=(str(manifest),), detectors=("ar", "broken"))
        )
        assert [row.status for row in rows] == ["ok", "failed", "excluded", "excluded"]
        out = tmp_path / "out"
        emit_reports(rows, out, summary, curves)
        with (out / "results.csv").open(newline="", encoding="utf-8") as fh:
            assert next(csv.reader(fh)) == [column.name for column in fields(ResultRow)]
            fh.seek(0)
            parsed = list(csv.DictReader(fh))

        excluded = parsed[2]
        assert [excluded[k] for k in ("auc", "best_f1", "nmm")] == ["", "", ""]
        assert excluded["train_seconds"] == excluded["inference_seconds"] == "0.0"
        assert parsed[1]["failure_reason"] == 'TsadError: bad fit, "quoted" part'

        numeric = {"auc", "best_f1", "nmm", "train_seconds", "inference_seconds"}

        def parse(record):
            return ResultRow(
                **{k: (float(v) if v else None) if k in numeric else v for k, v in record.items()}
            )

        assert [parse(record) for record in parsed] == rows

    def test_roc_file_bytes(self, tmp_path):
        curve = RocCurve(
            fpr=np.array([0.0, 1.0 / 3.0, 1.0 / 3.0, 1.0]),
            tpr=np.array([0.0, 0.0, 1.0, 1.0]),
            thresholds=np.array([np.inf, 2.5, 1e-300, -3.0]),
        )
        emit_reports([], tmp_path, {}, {("s1", "ar"): curve})
        assert (tmp_path / "roc" / "s1_ar.csv").read_bytes() == (
            b"fpr,tpr,threshold\r\n"
            b"0.0,0.0,inf\r\n"
            b"0.3333333333333333,0.0,2.5\r\n"
            b"0.3333333333333333,1.0,1e-300\r\n"
            b"1.0,1.0,-3.0\r\n"
        )

    def test_summary_layout(self, completed):
        _, summary, out = completed
        loaded = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        assert loaded == json.loads(json.dumps(summary))
        cell = loaded["datasets"]["SYNTH"]["ar"]
        assert set(cell) == {
            "mean_auc",
            "total_seconds",
            "per_series_mean_seconds",
            "n_ok",
            "n_excluded",
            "n_failed",
        }
        assert cell["n_ok"] == 5
        assert 0.0 <= cell["mean_auc"] <= 1.0

    def test_roc_files(self, completed):
        rows, _, out = completed
        files = sorted((out / "roc").glob("*.csv"))
        assert len(files) == len(rows)
        with files[0].open(encoding="utf-8") as fh:
            reader = csv.reader(fh)
            assert next(reader) == ["fpr", "tpr", "threshold"]
            first = next(reader)
        assert float(first[0]) == 0.0
        assert float(first[1]) == 0.0
        assert float(first[2]) == float("inf")

    def test_reruns_are_byte_identical_apart_from_timings(self, tmp_path):
        outputs = []
        for name in ("a", "b"):
            out = tmp_path / name
            config = quick_config(output_dir=out, seed=11)
            rows, summary, curves = run_benchmark(config)
            emit_reports(rows, out, summary, curves)
            outputs.append(out)

        def stripped(path):
            with (path / "results.csv").open(encoding="utf-8") as fh:
                return [
                    [v for k, v in record.items() if not k.endswith("_seconds")]
                    for record in csv.DictReader(fh)
                ]

        assert stripped(outputs[0]) == stripped(outputs[1])
        for roc in sorted((outputs[0] / "roc").glob("*.csv")):
            twin = outputs[1] / "roc" / roc.name
            assert roc.read_bytes() == twin.read_bytes()

    def test_a_rerun_into_the_same_directory_leaves_one_roc_file_per_ok_row(self, tmp_path):
        out = tmp_path / "out"
        for detectors in (("ar", "iforest"), ("ar",)):
            rows, summary, curves = run_benchmark(quick_config(detectors=detectors))
            emit_reports(rows, out, summary, curves)
        # Only the run's own *.csv files directly under roc/ are kept.
        (out / "roc" / "notes.txt").write_text("kept", encoding="utf-8")
        (out / "roc" / "sub.csv").mkdir()
        (out / "roc" / "stale_ar.csv").write_text("stale", encoding="utf-8")
        emit_reports(rows, out, summary, curves)
        ok = sorted(f"{row.series_id}_{row.detector}.csv" for row in rows if row.status == "ok")
        assert len(ok) == 5
        assert sorted(path.name for path in (out / "roc").glob("*.csv") if path.is_file()) == ok
        assert (out / "roc" / "notes.txt").exists() and (out / "roc" / "sub.csv").is_dir()


class TestCatalog:
    def test_all_detectors_listed(self):
        text = "\n".join(catalog_lines())
        for name in DETECTOR_NAMES:
            assert f"{name} [" in text
        assert "lag cap" in text

    def test_catalog_entries(self):
        entries = {}
        for line in catalog_lines():
            if not line.startswith("  "):
                entries[line.split()[0]] = entry = []
            entry.append(line)
        assert entries["ar"] == [
            "ar [statistical]",
            "  Autoregression: one-step least-squares forecast from the last p values.",
            "  p = lag cap floor(12*(n_train/100)^(1/4))",
        ]
        assert entries["ma"] == [
            "ma [statistical]",
            "  Moving average: innovations regressed on the last q estimated innovations.",
            "  q = window width w",
        ]
        assert entries["arima"] == [
            "arima [statistical]",
            "  ARIMA(p, d, q): ARMA fit by conditional least squares after d differences.",
            "  d = 1 if trend detected else 0",
            "  p = 1",
            "  q = 2",
        ]
        assert entries["es"] == [
            "es [statistical]",
            "  Seasonal (or, without a period, trend-only) exponential smoothing.",
            "  alpha = grid search",
            "  beta = grid search",
            "  gamma = grid search (seasonal only)",
            "  period = series period hint; trend-only smoothing when absent",
        ]
        assert entries["ocsvm"] == [
            "ocsvm [ml]",
            "  nu-one-class SVM with an RBF kernel over sliding windows.",
            "  nu = 0.7",
            "  rbf_gamma = 1/w",
        ]
        assert entries["mlp"] == [
            "mlp [neural]",
            "  Window-to-next-value forecaster: relu hidden layers, one linear output.",
            "  batch_size = 32",
            "  epochs = 50",
            "  hidden_dims = (100, 50)",
            "  learning_rate = 0.001",
        ]

    def test_unknown_detector_lists_the_valid_names(self):
        with pytest.raises(UnknownDetector) as info:
            get_detector("zzz")
        message = str(info.value)
        assert "zzz" in message
        assert "autoencoder" in message


class TestCli:
    def test_default_run(self, tmp_path, capsys):
        out = tmp_path / "reports"
        code = main(["run", "--out", str(out), "--seed", "1"])
        assert code == 0
        assert capsys.readouterr().out.strip() == f"15 rows (15 ok) -> {out}"
        assert (out / "results.csv").exists()
        assert (out / "summary.json").exists()

    def test_zero_ok_rows_exit_one(self, tmp_path, capsys):
        manifest = write_manifest(tmp_path, [labelled_series(anomaly_at=None, seed=4)])
        out = tmp_path / "reports"
        code = main(
            ["run", "--dataset", str(manifest), "--detector", "ar", "--out", str(out)]
        )
        assert code == 1
        assert "(0 ok)" in capsys.readouterr().out

    def test_list(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        for name in DETECTOR_NAMES:
            assert name in output

    def test_generate_synth(self, tmp_path, capsys):
        spec = tmp_path / "spec.txt"
        spec.write_text(
            "length = 400\nbase = sine_seasonal  # smooth\nanomaly_rate = 0.01\nseed = 9\n",
            encoding="utf-8",
        )
        out = tmp_path / "series.csv"
        assert main(["generate-synth", "--spec", str(spec), "--out", str(out)]) == 0
        assert "400 points" in capsys.readouterr().out
        assert out.exists()

    def test_config_file_merging(self, tmp_path, monkeypatch):
        monkeypatch.delenv("TSAD_DATA_DIR", raising=False)
        config = tmp_path / "bench.cfg"
        config.write_text(
            "datasets = SYNTH\n"
            "detectors = ar, ses\n"
            "seed = 7\n"
            "train_ratio = 0.4\n"
            "standardize = false\n",
            encoding="utf-8",
        )
        from tsadkit.cli import build_parser, config_from_sources

        args = build_parser().parse_args(
            ["run", "--config", str(config), "--detector", "pci"]
        )
        merged = config_from_sources(args)
        assert merged.detectors == ("pci",)  # the flag wins
        assert merged.seed == 7
        assert merged.standardize is False
        assert merged.split.train_ratio == 0.4

    def test_validation_share_is_an_unknown_key(self, tmp_path, capsys):
        config = tmp_path / "bench.cfg"
        config.write_text("detectors = ar\nvalidation_of_train = 0.0\n", encoding="utf-8")
        code = main(["run", "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert "unknown keys validation_of_train;" in err
        accepted = err.split("accepted keys: ", 1)[1]
        assert "train_ratio" in accepted and "validation_of_train" not in accepted
        assert not (tmp_path / "o").exists()

    def test_unknown_config_key_is_a_clean_error(self, tmp_path, capsys):
        config = tmp_path / "bench.cfg"
        config.write_text("detector = lof\nseed = 2\n", encoding="utf-8")
        code = main(["run", "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert str(config) in err
        assert "unknown keys detector;" in err
        assert "accepted keys: datasets, detectors," in err
        assert not (tmp_path / "o").exists()

    def test_unknown_spec_key_is_a_clean_error(self, tmp_path, capsys):
        spec = tmp_path / "spec.txt"
        spec.write_text("length = 400\nlenght = 9\n", encoding="utf-8")
        out = tmp_path / "series.csv"
        assert main(["generate-synth", "--spec", str(spec), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "unknown keys lenght;" in err
        assert "season_period" in err
        assert not out.exists()

    def test_unknown_config_key_raises_invalid_spec(self, tmp_path):
        from tsadkit.cli import build_parser, config_from_sources

        config = tmp_path / "bench.cfg"
        config.write_text("seed = 1\nout = x\nrepeats = 2\n", encoding="utf-8")
        args = build_parser().parse_args(["run", "--config", str(config)])
        with pytest.raises(InvalidSpec, match="unknown keys out, repeats;"):
            config_from_sources(args)

    def test_bad_config_value_names_its_key(self, tmp_path, capsys):
        config = tmp_path / "bench.cfg"
        config.write_text("standardize = maybe\n", encoding="utf-8")
        assert main(["run", "--config", str(config)]) == 2
        assert "standardize: expected a boolean, got 'maybe'" in capsys.readouterr().err

    def test_data_dir_env_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TSAD_DATA_DIR", str(tmp_path))
        from tsadkit.cli import build_parser, config_from_sources

        args = build_parser().parse_args(["run"])
        assert config_from_sources(args).data_dir == tmp_path

    def test_a_series_id_in_two_datasets_is_refused_before_any_run(
        self, tmp_path, monkeypatch, capsys
    ):
        # Both datasets hold series "s"; its second curve would overwrite the
        # first in the curves and in roc/s_ar.csv.
        for entry in ("UD1", "UD2"):
            (tmp_path / entry).mkdir()
            write_series_csv(labelled_series(seed=len(entry)), tmp_path / entry / "s.csv")
        runs = []
        monkeypatch.setattr(bench, "timed_run", lambda *args: runs.append(args))
        out = tmp_path / "o"
        code = main(
            ["run", "--dataset", "UD1", "--dataset", "UD2", "--data-dir", str(tmp_path),
             "--detector", "ar", "--out", str(out)]
        )
        assert code == 2
        assert "series ids occur more than once in the run: ['s']" in capsys.readouterr().err
        assert runs == [] and not out.exists()

    def test_a_repeated_detector_is_refused_before_any_output(self, tmp_path, capsys):
        out = tmp_path / "o"
        code = main(["run", "--detector", "ar", "--detector", "ar", "--out", str(out)])
        assert code == 2
        assert "detectors occur more than once in the run: ['ar']" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_data_dir_is_a_clean_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("TSAD_DATA_DIR", raising=False)
        code = main(["run", "--dataset", "UD1", "--out", str(tmp_path / "o")])
        assert code == 2
        assert "data directory" in capsys.readouterr().err

    def test_kv_parsing(self, tmp_path):
        path = tmp_path / "f.cfg"
        path.write_text("# comment\n\na = 1\nb = x # y\n", encoding="utf-8")
        assert parse_kv_file(path) == {"a": "1", "b": "x"}
        path.write_text("broken line\n", encoding="utf-8")
        with pytest.raises(ValueError, match="key=value"):
            parse_kv_file(path)
