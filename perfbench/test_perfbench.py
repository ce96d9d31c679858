"""Self-tests of the benchmark at toy size.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from check import failed_pairs, fingerprint, read_pairs  # noqa: E402
from run import END_TO_END, PER_LAYER, program_env, run_matrix  # noqa: E402
from workloads import WORKLOAD_NAMES, Workload  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
# Self times that partition the traced wall together with bench.self_s; the
# family totals end in ".s" and sum these, so they are left out.
LAYER_TIMES = [name for name in PER_LAYER if name.endswith("_s") and name not in ("bench.self_s", "trace.overhead_s")]


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def result_line(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_metric_tables_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == PER_LAYER
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOAD_NAMES)


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_workload_completes_and_prints_every_end_to_end_metric(name):
    out = result_line(bench("--workload", name, "--seed", "3", "--seconds", "1", "--trace", "0", "--toy"))
    assert out["correct"] and out["failed"] == 0 and out["attempted"] > 0
    assert {key: metric["unit"] for key, metric in out["metrics"].items()} == END_TO_END
    assert all(metric["value"] > 0 for metric in out["metrics"].values())


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_traced_self_times_cover_the_traced_wall(name):
    out = result_line(bench("--workload", name, "--seed", "3", "--seconds", "1", "--trace", "1", "--toy"))
    assert out["correct"]
    assert {key: metric["unit"] for key, metric in out["metrics"].items()} == PER_LAYER
    values = {key: metric["value"] for key, metric in out["metrics"].items()}
    covered = sum(values[key] for key in LAYER_TIMES)
    assert covered >= 0.95 * (covered + values["bench.self_s"])
    assert values["bench.pairs"] > 0 and values["evaluation.scored_points"] > 0


def test_check_trips_on_a_tampered_roc_file(tmp_path):
    from tsadkit.bench import RunConfig, emit_reports, run_benchmark

    rows, summary, curves = run_benchmark(RunConfig(datasets=("SYNTH",), detectors=("ar", "pci")))
    emit_reports(rows, tmp_path, summary, curves)
    pairs = read_pairs(tmp_path)
    expected = {key: "ok" for key in pairs}
    reference = {key: pair["digest"] for key, pair in pairs.items()}
    assert failed_pairs(pairs, expected, reference) == {}

    roc = tmp_path / "roc" / f"{rows[0].series_id}_ar.csv"
    header, *points = roc.read_text(encoding="utf-8").splitlines()
    halved = [f"{fpr},{float(tpr) / 2!r},{threshold}" for fpr, tpr, threshold in (p.split(",") for p in points)]
    roc.write_text("\n".join([header, *halved]) + "\n", encoding="utf-8")
    tampered = read_pairs(tmp_path)
    assert list(failed_pairs(tampered, expected, None)) == [(rows[0].series_id, "ar")]
    assert fingerprint(tampered) != fingerprint(pairs)


def test_fingerprint_matches_what_tsadkit_run_writes(tmp_path):
    spec = Workload("synth-zoo", ("SYNTH",), ("ar", "iforest"), ())
    env = program_env(1)
    result = run_matrix(0, False, spec, tmp_path, 0, env)
    assert result["error"] is None
    cli_out = tmp_path / "cli"
    subprocess.run(
        [sys.executable, "-m", "tsadkit.cli", "run", "--dataset", "SYNTH", "--detector", "ar",
         "--detector", "iforest", "--seed", "0", "--out", str(cli_out)],
        env=env, check=True, capture_output=True, timeout=300,
    )
    assert fingerprint(read_pairs(result["output_dir"])) == fingerprint(read_pairs(cli_out))


def test_an_exception_escaping_run_benchmark_is_reported_not_raised(tmp_path):
    spec = Workload("synth-zoo", ("SYNTH",), ("no-such-detector",), ())
    result = run_matrix(0, False, spec, tmp_path, 0, program_env(1))
    assert "UnknownDetector" in result["error"]


def test_exits_nonzero_without_a_result_when_the_program_is_absent(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "taxi-fast", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
