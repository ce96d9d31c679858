"""Command line front end.

Three subcommands: `run` executes a benchmark matrix and writes report
files, `list` prints the detector catalog, and `generate-synth` renders a
synthetic series spec to CSV.  Real datasets are looked up under the
directory given by --data-dir or the TSAD_DATA_DIR environment variable.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import Optional, Sequence

from .bench import RunConfig, emit_reports, run_benchmark
from .core import parse_bool
from .data import SynthSpec, generate_synthetic, write_series_csv
from .detectors import catalog_lines
from .errors import InvalidSpec, TsadError
from .preprocessing import SplitSpec

__all__ = ["main", "parse_kv_file", "config_from_sources"]


def parse_kv_file(path: Path) -> dict:
    """Parse a flat key=value file; # starts a comment, blank lines skipped."""
    values: dict = {}
    for lineno, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return values


def _split_list(raw: str) -> list[str]:
    return [item.strip() for item in raw.split(",") if item.strip()]


# One converter per accepted key.  Only keys a file gives become keyword
# arguments, so RunConfig, SplitSpec and SynthSpec hold the only defaults.
_RUN_KEYS = {
    "datasets": _split_list,
    "detectors": _split_list,
    "standardize": parse_bool,
    "detrend": parse_bool,
    "deseasonalize": parse_bool,
    "period": int,
    "seed": int,
    "output_dir": str,
    "data_dir": str,
    "train_ratio": float,
}
_SYNTH_KEYS = {
    "length": int,
    "base": str,
    "anomaly_rate": float,
    "anomaly_kind": str,
    "seed": int,
    "ar_coeffs": lambda raw: tuple(float(v) for v in _split_list(raw)),
    "season_period": int,
}


def _read_kv_file(path: Path, converters: dict) -> dict:
    """Parse a key=value file and convert each value; unknown keys are an error."""
    values = parse_kv_file(path)
    unknown = sorted(set(values) - set(converters))
    if unknown:
        raise InvalidSpec(
            f"{path}: unknown keys {', '.join(unknown)}; accepted keys: {', '.join(converters)}"
        )
    converted = {}
    for key, raw in values.items():
        try:
            converted[key] = converters[key](raw)
        except ValueError as exc:
            raise ValueError(f"{path}: {key}: {exc}") from exc
    return converted


def config_from_sources(args: argparse.Namespace) -> RunConfig:
    """Merge the config file (if any) with CLI flags; flags win."""
    kwargs = {} if args.config is None else _read_kv_file(Path(args.config), _RUN_KEYS)
    if "train_ratio" in kwargs:
        kwargs["split"] = SplitSpec(kwargs.pop("train_ratio"))
    kwargs["datasets"] = args.dataset or kwargs.get("datasets") or ["SYNTH"]
    kwargs["detectors"] = args.detector or kwargs.get("detectors") or ["ar", "kmeans", "iforest"]
    if args.no_standardize:
        kwargs["standardize"] = False
    if args.detrend:
        kwargs["detrend"] = True
    if args.deseasonalize is not None:
        kwargs.update(deseasonalize=True, period=args.deseasonalize)
    if args.seed is not None:
        kwargs["seed"] = args.seed
    if args.out:
        kwargs["output_dir"] = args.out
    data_dir = args.data_dir or kwargs.pop("data_dir", None) or os.environ.get("TSAD_DATA_DIR")
    if data_dir:
        kwargs["data_dir"] = data_dir
    return RunConfig(**kwargs)


def _cmd_run(args: argparse.Namespace) -> int:
    config = config_from_sources(args)
    rows, summary, curves = run_benchmark(config)
    emit_reports(rows, config.output_dir, summary, curves)
    n_ok = sum(1 for row in rows if row.status == "ok")
    print(f"{len(rows)} rows ({n_ok} ok) -> {config.output_dir}")
    return 0 if n_ok > 0 else 1


def _cmd_list(_args: argparse.Namespace) -> int:
    for line in catalog_lines():
        print(line)
    return 0


def _cmd_generate_synth(args: argparse.Namespace) -> int:
    kwargs = _read_kv_file(Path(args.spec), _SYNTH_KEYS)
    series = generate_synthetic(SynthSpec(**kwargs))
    out = Path(args.out) if args.out else Path(f"{series.series_id}.csv")
    write_series_csv(series, out)
    print(f"{series.values.size} points ({series.anomaly_count} anomalous) -> {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tsadkit", description="Univariate time-series anomaly detection benchmark."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a benchmark matrix and write reports")
    run_p.add_argument("--config", help="flat key=value config file")
    run_p.add_argument("--dataset", action="append", help="dataset id or manifest path (repeatable)")
    run_p.add_argument("--detector", action="append", help="detector name (repeatable)")
    run_p.add_argument("--seed", type=int, help="base seed for the run")
    run_p.add_argument("--out", help="output directory for report files")
    run_p.add_argument("--data-dir", help="root directory holding real datasets")
    run_p.add_argument(
        "--no-standardize", action="store_true", help="skip train-fitted standardization"
    )
    run_p.add_argument("--detrend", action="store_true", help="first-difference the series")
    run_p.add_argument(
        "--deseasonalize", type=int, metavar="PERIOD", help="seasonally difference at PERIOD"
    )
    run_p.set_defaults(func=_cmd_run)

    list_p = sub.add_parser("list", help="print the detector catalog")
    list_p.set_defaults(func=_cmd_list)

    synth_p = sub.add_parser("generate-synth", help="render a synthetic series spec to CSV")
    synth_p.add_argument("--spec", required=True, help="flat key=value spec file")
    synth_p.add_argument("--out", help="output CSV path")
    synth_p.set_defaults(func=_cmd_generate_synth)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (TsadError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
