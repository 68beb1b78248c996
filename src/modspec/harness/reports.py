"""Report persistence: fixed-column CSV plus JSON pass/fail summaries."""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path


def fmt(value) -> str:
    """17-significant-digit decimal rendering for floats; strings pass through."""
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


@dataclass
class SummaryEntry:
    criterion: str
    measured: float
    threshold: float
    passed: bool

    def to_dict(self) -> dict:
        return {
            "criterion": self.criterion,
            "measured": _finite_or_none(self.measured),
            "threshold": _finite_or_none(self.threshold),
            "pass": bool(self.passed),
        }


def _finite_or_none(value: float):
    """Strict JSON has no NaN or infinity; such a value is written as null."""
    return value if math.isfinite(value) else None


def criterion(name: str, measured, threshold, ok=None) -> SummaryEntry:
    """The one pass/fail rule: measured <= threshold, or the verdict `ok` when given.

    A non-finite measurement never passes.
    """
    measured, threshold = float(measured), float(threshold)
    passed = math.isfinite(measured) and (measured <= threshold if ok is None else bool(ok))
    return SummaryEntry(name, measured, threshold, passed)


def _all_passed(entries) -> bool:
    """True when at least one criterion was checked and every one passed."""
    return bool(entries) and all(e.passed for e in entries)


@dataclass
class RunResult:
    name: str
    header: list
    rows: list
    summary: list = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    @property
    def all_pass(self) -> bool:
        return _all_passed(self.summary)

    def write(self, out_dir) -> tuple:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        csv_path = out / f"{self.name}.csv"
        json_path = out / f"{self.name}_summary.json"
        write_csv(csv_path, self.header, self.rows)
        write_summary(json_path, self.summary, self.meta)
        return csv_path, json_path


def write_csv(path, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            if len(row) != len(header):
                raise ValueError(f"row width {len(row)} != header width {len(header)}")
            w.writerow([fmt(v) for v in row])


def write_summary(path, entries, meta=None) -> None:
    doc = {
        "criteria": [e.to_dict() for e in entries],
        "all_pass": _all_passed(entries),
    }
    if meta:
        doc["meta"] = meta
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
