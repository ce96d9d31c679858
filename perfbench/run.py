"""Seeded benchmark of ``tsadkit run``, end to end and layer by layer.

Usage, from the repository root:

    python3 perfbench/run.py --workload taxi-fast --seed 0 --seconds 30 --trace 0

One caller runs one detector x series matrix at a time, each in a fresh
process, exactly as ``tsadkit run`` does (``run_benchmark`` then
``emit_reports``, ``RunConfig`` defaults, one BLAS thread).  Set-up writes
the workload's input files from ``--seed`` and times a fresh interpreter's
import; then matrices run back to back while another one still fits in
``--seconds`` (at least one).  Every matrix's reports go through the output
check in ``check.py``.

Each measured process is pinned to one CPU, where a speed probe samples a
fixed kernel over the same interval (``probe.py``).  ``wall_s``, ``cpu_s``
and ``setup_s`` are scaled by it to seconds at nominal CPU speed, since the
speed of a shared box drifts far more between runs than a change worth
catching; the unscaled matrix times and the scales are printed too.
Per-layer times are unscaled, except ``trace.overhead_s``, a difference of
two matrices' ``wall_s``.

Before the last line the command prints the machine block, the fingerprint
of the set's reports, the unscaled matrix times with their scales and the
check summary with ``failed_share``.  The last line is one JSON object:
``correct``, ``attempted`` and ``failed`` count (series, detector) pairs,
and ``metrics`` holds the end-to-end metrics from untraced matrices
(``--trace 0``) or the per-layer metrics from traced ones (``--trace 1``,
alternating with untraced matrices to give ``trace.overhead_s``).  Values
are medians over the matrices of the run.
``failed_share`` never enters ``metrics``: it is 0 on a healthy commit, so
``ok_share`` (its complement) carries it there.

Self-tests: ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from check import failed_pairs, fingerprint, read_pairs  # noqa: E402
from tracing import layer_metrics  # noqa: E402
from workloads import ALL_DETECTORS, FAMILY, WORKLOAD_NAMES, workload, write_inputs  # noqa: E402

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "mean_auc": "score",
    "mean_best_f1": "score",
    "ok_share": "share",
}
PER_LAYER = {
    **{
        f"detectors.{FAMILY[name]}.{name}.{stage}_s": "s"
        for name in ALL_DETECTORS
        for stage in ("fit", "score")
    },
    **{f"detectors.{family}.s": "s" for family in ("statistical", "ml", "neural")},
    "evaluation.best_f1_s": "s",
    "evaluation.roc_auc_s": "s",
    "evaluation.nmm_s": "s",
    "evaluation.scored_points": "count",
    "evaluation.unique_scores": "count",
    "data.load_s": "s",
    "data.points": "count",
    "preprocessing.prepare_s": "s",
    "bench.emit_reports_s": "s",
    "bench.roc_rows": "count",
    "bench.report_bytes": "bytes",
    "bench.self_s": "s",
    "bench.pairs": "count",
    "trace.overhead_s": "s",
}

SETUP_REPEATS = 7
MATRIX_TIMEOUT_S = 170


def machine_block(threads: int, matrix_result: dict) -> dict:
    cpu_model = None
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        for line in cpuinfo.read_text(encoding="utf-8", errors="replace").splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": matrix_result.get("numpy"),
        "blas": {**(matrix_result.get("blas") or {}), "threads": threads},
        "git_commit": git_commit(ROOT),
    }


def git_commit(root: Path):
    """HEAD read from the checkout's own .git; None outside a git checkout."""
    git = root / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    if (git / name).is_file():
        return (git / name).read_text(encoding="utf-8").strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def program_env(threads: int) -> dict:
    """Environment for every process that runs tsadkit: sources on the path, BLAS threads capped."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    return env


def setup_seconds(env: dict) -> float:
    """Median import time of tsadkit and its registry in fresh interpreters.

    Each interpreter is pinned to one CPU and its time scaled by the speed
    probe, as the matrices are.  The first interpreter is not counted: it
    may write the bytecode cache, which every later CLI call finds in place.
    """
    times = []
    for _ in range(SETUP_REPEATS + 1):
        out = subprocess.run(
            [sys.executable, str(HERE / "setup_time.py")], env=env, cwd=ROOT,
            capture_output=True, text=True, check=True, timeout=60, preexec_fn=pin_to_one_cpu,
        )
        result = json.loads(out.stdout)
        times.append(result["import_s"] * result["scale"])
    return statistics.median(times[1:])


def pin_to_one_cpu():
    """Keep a measured process and its speed probe on the same CPU (see probe.py)."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def run_matrix(index: int, traced: bool, spec, work: Path, seed: int, env: dict) -> dict:
    """One matrix in a fresh process; returns its result with ``error`` set on failure."""
    matrix_spec = {
        "datasets": list(spec.datasets),
        "detectors": list(spec.detectors),
        "seed": seed,
        "data_dir": str(work / "data"),
        "output_dir": str(work / f"out-{index}"),
        "trace": traced,
        "result_path": str(work / f"result-{index}.json"),
    }
    spec_path = work / f"spec-{index}.json"
    spec_path.write_text(json.dumps(matrix_spec), encoding="utf-8")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "matrix.py"), str(spec_path)],
            env=env, cwd=ROOT, timeout=MATRIX_TIMEOUT_S, preexec_fn=pin_to_one_cpu,
        )
        returncode = proc.returncode
    except subprocess.TimeoutExpired:
        returncode = None
    result_path = Path(matrix_spec["result_path"])
    if returncode == 0 and result_path.is_file():
        result = json.loads(result_path.read_text(encoding="utf-8"))
    else:
        result = {"error": f"matrix process ended with {returncode or 'a timeout'}"}
    result["traced"] = traced
    result["output_dir"] = Path(matrix_spec["output_dir"])
    return result


def report_counts(output_dir: Path) -> dict:
    roc_rows = 0
    for path in (output_dir / "roc").glob("*.csv"):
        with path.open("rb") as fh:
            roc_rows += sum(1 for _ in fh) - 1
    report_bytes = sum(path.stat().st_size for path in output_dir.rglob("*") if path.is_file())
    return {"bench.roc_rows": roc_rows, "bench.report_bytes": report_bytes}


def check_matrix(index, result, expected, first_digests):
    """Output-check one matrix; returns its pairs and the failures, reported on stderr."""
    output_dir = result["output_dir"]
    pairs = read_pairs(output_dir) if (output_dir / "results.csv").is_file() else {}
    if result["error"] is not None:
        print(f"matrix {index}: {result['error']}", file=sys.stderr)
        failures = {key: "exception escaped run_benchmark" for key in expected}
    else:
        failures = failed_pairs(pairs, expected, first_digests)
    for (series_id, name), reason in sorted(failures.items()):
        print(f"matrix {index}: {series_id} x {name} failed the check: {reason}", file=sys.stderr)
    return pairs, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--toy", action="store_true", help="shrink the workload (self-tests)")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "tsadkit" / "__init__.py").is_file():
        print(f"error: no tsadkit sources under {src}", file=sys.stderr)
        return 2
    # One BLAS thread: the matrix runs pinned to one CPU with its speed probe,
    # and a two-thread BLAS call on a shared box waits for its slower thread.
    threads = 1
    env = program_env(threads)

    spec = workload(args.workload, args.toy)
    work = ROOT / ".bench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    (work / "data").mkdir(parents=True)
    write_inputs(spec, work / "data", args.seed, args.toy)
    setup_s = None if args.trace else setup_seconds(env)

    expected = {(series_id, name): "ok" for series_id in spec.series_ids for name in spec.detectors}
    matrices, first_digests, prints, failed = [], None, set(), 0
    started, longest = time.perf_counter(), 0.0
    for index, traced in enumerate(itertools.cycle((False, True)) if args.trace else itertools.repeat(False)):
        minimum_done = len(matrices) >= (2 if args.trace else 1)
        if minimum_done and time.perf_counter() - started + longest > args.seconds:
            break
        t0 = time.perf_counter()
        result = run_matrix(index, traced, spec, work, args.seed, env)
        longest = max(longest, time.perf_counter() - t0)

        pairs, failures = check_matrix(index, result, expected, first_digests)
        failed += len(failures)
        if first_digests is None and result["error"] is None:
            first_digests = {key: pair["digest"] for key, pair in pairs.items()}
        if pairs:
            prints.add(fingerprint(pairs))
        rows = [pair["row"] for pair in pairs.values() if pair["row"]["status"] == "ok"]
        result["mean_auc"] = statistics.fmean(float(r["auc"]) for r in rows) if rows else 0.0
        result["mean_best_f1"] = statistics.fmean(float(r["best_f1"]) for r in rows) if rows else 0.0
        if traced and result["error"] is None:
            result["layers"] = {
                **layer_metrics(result["spans"], result["counts"]),
                **report_counts(result["output_dir"]),
                "bench.pairs": len(expected),
            }
            if result["untraced_calls"]:
                print(f"not traced (absent from tsadkit): {result['untraced_calls']}", file=sys.stderr)
        if index > 0:
            shutil.rmtree(result["output_dir"], ignore_errors=True)
        matrices.append(result)

    attempted = len(expected) * len(matrices)
    print("machine: " + json.dumps(machine_block(threads, matrices[0])))
    print("fingerprint: " + (" ".join(sorted(prints)) or "none"))
    print("matrix wall_s unscaled: " + " ".join(f"{m['wall_s']:.3f}" for m in matrices if "wall_s" in m))
    print("matrix speed_scale: " + " ".join(f"{m['speed_scale']:.3f}" for m in matrices if "wall_s" in m))
    print(f"check: {attempted} pairs attempted, {failed} failed, failed_share={failed / attempted!r}")

    timed = [m for m in matrices if "wall_s" in m]
    plain = [m for m in timed if not m["traced"]]
    if args.trace:
        traced = [m for m in timed if "layers" in m]
        metrics = {
            name: statistics.median(m["layers"][name] for m in traced) if traced else 0.0
            for name in PER_LAYER if name != "trace.overhead_s"
        }
        # Scaled like wall_s: the two matrices may run at different speeds.
        metrics["trace.overhead_s"] = (
            statistics.median(m["wall_s"] * m["speed_scale"] for m in traced)
            - statistics.median(m["wall_s"] * m["speed_scale"] for m in plain)
            if traced and plain else 0.0
        )
        units = PER_LAYER
    else:
        metrics = {
            name: statistics.median(m[name] for m in plain) if plain else 0.0
            for name in ("peak_rss_mib", "mean_auc", "mean_best_f1")
        }
        for name in ("wall_s", "cpu_s"):
            metrics[name] = statistics.median(m[name] * m["speed_scale"] for m in plain) if plain else 0.0
        metrics["setup_s"] = setup_s
        metrics["ok_share"] = (attempted - failed) / attempted
        units = END_TO_END
    print(json.dumps({
        "correct": failed == 0 and len(prints) == 1,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
