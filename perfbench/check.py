"""Output check for one matrix's report directory.

A (series, detector) pair passes when its row has the expected status and,
for an ok row, its AUC equals the trapezoid area recomputed from its ROC
file to 1e-12.  Each pair also gets a digest of its row without the timing
columns plus its ROC file's bytes; the matrix fingerprint is the digest of
those in ``results.csv`` order, so it can be computed the same way for any
``tsadkit run`` output.  Usage: ``python3 check.py <report_dir>`` prints the
fingerprint.
"""

from __future__ import annotations

import csv
import hashlib
import math
import sys
from pathlib import Path

TIMING_COLUMNS = ("train_seconds", "inference_seconds")
AUC_TOLERANCE = 1e-12


def trapezoid_auc(roc_text: str) -> float:
    rows = list(csv.reader(roc_text.splitlines()))[1:]
    fpr = [float(row[0]) for row in rows]
    tpr = [float(row[1]) for row in rows]
    return math.fsum((fpr[i] - fpr[i - 1]) * (tpr[i] + tpr[i - 1]) / 2.0 for i in range(1, len(rows)))


def read_pairs(report_dir: Path) -> dict[tuple[str, str], dict]:
    """Each pair's row (without timings), ROC bytes, and digest, in file order."""
    pairs = {}
    with (report_dir / "results.csv").open(newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            key = (row["series_id"], row["detector"])
            kept = [value for column, value in row.items() if column not in TIMING_COLUMNS]
            roc_path = report_dir / "roc" / f"{key[0]}_{key[1]}.csv"
            roc = roc_path.read_bytes() if roc_path.exists() else b""
            digest = hashlib.sha256("\x1f".join(kept).encode() + b"\x1e" + roc).hexdigest()
            pairs[key] = {"row": row, "roc": roc, "digest": digest}
    return pairs


def fingerprint(pairs: dict) -> str:
    return hashlib.sha256("".join(pair["digest"] for pair in pairs.values()).encode()).hexdigest()


def failed_pairs(pairs: dict, expected: dict, first_digests: dict | None) -> dict[tuple[str, str], str]:
    """Pairs that fail the check, with the reason.

    ``expected`` maps every attempted pair to its expected status;
    ``first_digests`` holds the pair digests of the set's first matrix, if any.
    """
    failures = {}
    for key, status in expected.items():
        pair = pairs.get(key)
        if pair is None:
            failures[key] = "no row"
            continue
        row = pair["row"]
        if row["status"] != status:
            failures[key] = f"status {row['status']} != {status}: {row['failure_reason']}"
        elif status == "ok" and not pair["roc"]:
            failures[key] = "no ROC file"
        elif status == "ok" and abs(float(row["auc"]) - trapezoid_auc(pair["roc"].decode())) > AUC_TOLERANCE:
            failures[key] = "AUC differs from its ROC file's trapezoid area"
        elif first_digests is not None and first_digests.get(key) != pair["digest"]:
            failures[key] = "row or ROC file differs from the first matrix of the set"
    return failures


if __name__ == "__main__":
    print(fingerprint(read_pairs(Path(sys.argv[1]))))
