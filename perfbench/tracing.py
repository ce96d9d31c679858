"""Outside-in tracing: spans around the program's public callables.

The tracer replaces module attributes and registry-instance methods with
timing wrappers; the program's source is untouched.  Spans are kept in
memory as ``[name, start, end, parent]`` and written out when the matrix
ends.  Per-layer metrics are self times: a span's duration minus the time
its direct children cover.
"""

from __future__ import annotations

import functools
import time

import numpy as np

from workloads import ALL_DETECTORS, FAMILY

DATA_CALLS = ("generate_synthetic", "load_manifest", "load_yahoo_csv", "load_nab_csv")
PREPARE_CALLS = ("split", "fit_standardizer", "standardize")
METRIC_CALLS = ("roc_auc", "best_f1", "naive_mse", "nmm")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self.missing: list[str] = []
        self._stack: list[int] = []

    def wrap(self, name, fn, counter=None):
        """``counter(args, result)`` returns counts to add up, outside the span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, self._stack[-1] if self._stack else -1])
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[index][2] = time.perf_counter()
            if counter is not None:
                for key, value in counter(args, result).items():
                    self.counts[key] = self.counts.get(key, 0) + value
            return result

        return traced

    def patch(self, owner, attr, name, counter=None):
        """Wrap ``owner.attr`` in place; a name the program lacks is recorded, not fatal."""
        if not hasattr(owner, attr):
            self.missing.append(name)
            return
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), counter))

    def install(self, bench, evaluation, registry):
        def point_count(_args, series):
            return {"data.points": len(series)}

        def score_counts(args, _result):
            values = args[0].scores
            return {"evaluation.scored_points": int(values.size),
                    "evaluation.unique_scores": int(np.unique(values).size)}

        for attr in DATA_CALLS:
            self.patch(bench, attr, f"data.{attr}", None if attr == "load_manifest" else point_count)
        for attr in PREPARE_CALLS:
            self.patch(bench, attr, f"preprocessing.{attr}")
        self.patch(bench, "timed_run", "evaluation.timed_run")

        for attr in METRIC_CALLS:
            self.patch(evaluation, attr, f"evaluation.{attr}", score_counts if attr == "best_f1" else None)
        for detector in registry.values():
            prefix = f"detectors.{detector.family}.{detector.name}"
            self.patch(detector, "fit", f"{prefix}.fit")
            self.patch(detector, "score", f"{prefix}.score")


def self_times(spans) -> list[float]:
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(spans, counts) -> dict[str, float]:
    """Per-layer seconds and counts of one traced matrix.

    The root span is named ``bench``; ``bench.self_s`` is its wall time minus
    every layer's self time, which leaves the runner's own work and the
    bookkeeping inside ``timed_run``.
    """
    own = self_times(spans)
    by_name: dict[str, float] = {}
    for (name, *_), seconds in zip(spans, own):
        by_name[name] = by_name.get(name, 0.0) + seconds
    wall = sum(end - start for name, start, end, _ in spans if name == "bench")

    layers: dict[str, float] = {}
    for detector in ALL_DETECTORS:
        for stage in ("fit", "score"):
            name = f"detectors.{FAMILY[detector]}.{detector}.{stage}"
            layers[f"{name}_s"] = by_name.get(name, 0.0)
    layers["evaluation.roc_auc_s"] = by_name.get("evaluation.roc_auc", 0.0)
    layers["evaluation.best_f1_s"] = by_name.get("evaluation.best_f1", 0.0)
    layers["evaluation.nmm_s"] = by_name.get("evaluation.naive_mse", 0.0) + by_name.get("evaluation.nmm", 0.0)
    layers["data.load_s"] = sum(by_name.get(f"data.{attr}", 0.0) for attr in DATA_CALLS)
    layers["preprocessing.prepare_s"] = sum(by_name.get(f"preprocessing.{attr}", 0.0) for attr in PREPARE_CALLS)
    layers["bench.emit_reports_s"] = by_name.get("bench.emit_reports", 0.0)

    out = dict(layers)
    for family in ("statistical", "ml", "neural"):
        out[f"detectors.{family}.s"] = sum(
            seconds for key, seconds in layers.items() if key.startswith(f"detectors.{family}.")
        )
    out["bench.self_s"] = wall - sum(layers.values())
    for key in ("evaluation.scored_points", "evaluation.unique_scores", "data.points"):
        out[key] = counts.get(key, 0)
    return out
