"""Run one benchmark matrix in a fresh process and write its measurements.

Usage: ``python3 matrix.py <spec.json>``.  The spec names the datasets,
detectors, seed, data and output directories, whether to trace, and where
to write the result JSON.  The timed region is exactly what ``tsadkit run``
does: ``run_benchmark`` followed by ``emit_reports`` with ``RunConfig``
defaults.  An exception escaping that region is recorded, not raised, so
the caller can count the matrix as failed.

The caller pins this process to one CPU.  A speed probe on a background
thread samples a fixed kernel on that CPU throughout the timed region; the
result's ``speed_scale`` turns its seconds into seconds at nominal speed
(see ``probe.py``).
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path

from probe import SpeedProbe
from tracing import Tracer


def run(spec: dict) -> dict:
    import numpy as np
    from tsadkit import bench, evaluation
    from tsadkit.detectors import REGISTRY

    config = bench.RunConfig(
        datasets=tuple(spec["datasets"]),
        detectors=tuple(spec["detectors"]),
        seed=spec["seed"],
        output_dir=Path(spec["output_dir"]),
        data_dir=Path(spec["data_dir"]),
    )
    run_benchmark, emit_reports = bench.run_benchmark, bench.emit_reports
    tracer = Tracer() if spec["trace"] else None
    if tracer is not None:
        tracer.install(bench, evaluation, REGISTRY)
        emit_reports = tracer.wrap("bench.emit_reports", emit_reports)

    def matrix():
        rows, summary, curves = run_benchmark(config)
        emit_reports(rows, config.output_dir, summary, curves)

    if tracer is not None:
        matrix = tracer.wrap("bench", matrix)

    error = None
    with SpeedProbe() as probe:
        cpu0, wall0 = time.process_time(), time.perf_counter()
        try:
            matrix()
        except Exception:
            error = traceback.format_exc()
        wall_s = time.perf_counter() - wall0
        cpu_s = time.process_time() - cpu0

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except TypeError:  # numpy < 1.25 only prints its build configuration
        blas = {}
    return {
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "speed_scale": probe.scale,
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "error": error,
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "spans": tracer.spans if tracer else None,
        "counts": tracer.counts if tracer else None,
        "untraced_calls": tracer.missing if tracer else None,
    }


if __name__ == "__main__":
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    result = run(spec)
    Path(spec["result_path"]).write_text(json.dumps(result), encoding="utf-8")
