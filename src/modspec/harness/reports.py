"""Report persistence: a report's table is stored as columns and written as a
fixed-width CSV, rendered a column at a time and written whole, plus JSON
pass/fail summaries."""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


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


def criterion(name: str, measured, threshold) -> SummaryEntry:
    """The one pass/fail rule: measured <= threshold.

    A non-finite measurement never passes.
    """
    measured, threshold = float(measured), float(threshold)
    passed = math.isfinite(measured) and measured <= threshold
    return SummaryEntry(name, measured, threshold, passed)


def _all_passed(entries) -> bool:
    """True when at least one criterion was checked and every one passed."""
    return bool(entries) and all(e.passed for e in entries)


@dataclass
class RunResult:
    """A driver's report: the CSV table as `columns`, one sequence per `header`
    name and all of one length, plus the criteria and meta of its summary."""

    name: str
    header: list
    columns: list
    summary: list = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    @classmethod
    def from_rows(cls, name, header, rows, summary, meta) -> "RunResult":
        """The report of a table built row by row; a row of the wrong width
        raises ValueError."""
        rows, width = tuple(rows), len(header)
        wrong = set(map(len, rows)) - {width}
        if wrong:
            raise ValueError(f"row width {min(wrong)} != header width {width}")
        columns = list(zip(*rows)) if rows else [()] * width
        return cls(name, header, columns, summary, meta)

    @property
    def rows(self) -> list:
        """The table as row tuples, built on each read."""
        return list(zip(*self.columns))

    @property
    def all_pass(self) -> bool:
        return _all_passed(self.summary)

    def write(self, out_dir) -> tuple:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        csv_path = out / f"{self.name}.csv"
        json_path = out / f"{self.name}_summary.json"
        write_csv(csv_path, self.header, self.columns)
        write_summary(json_path, self.summary, self.meta)
        return csv_path, json_path


_NEEDS_QUOTES = re.compile(r'[,"\r\n]')


def _cell(value) -> str:
    """csv.writer's text for one cell: a float (numpy's float64 included) to 17
    significant digits, else str(), quoted if it holds a comma, quote or line break."""
    if isinstance(value, float):
        return "%.17g" % value
    text = str(value)
    return '"' + text.replace('"', '""') + '"' if _NEEDS_QUOTES.search(text) else text


def _column(cells) -> list:
    """Every cell's text.  A float64 array formats each distinct bit pattern once
    (0.0, -0.0 and each NaN keep their own); a sequence of exact ints or of strs
    formats each distinct value once (1 == 1.0 == True, so no mixed sequence
    shares a key); any other column, a short float list included, goes cell by cell."""
    if isinstance(cells, np.ndarray) and cells.dtype == np.float64:
        bits, index = np.unique(cells.view(np.uint64), return_inverse=True)
        text = list(map("%.17g".__mod__, bits.view(np.float64).tolist()))
        return np.array(text, dtype=object)[index].tolist()
    kinds = set(map(type, cells))
    if kinds == {int} or kinds == {str}:
        text = {v: _cell(v) for v in set(cells)}
        return list(map(text.__getitem__, cells))
    return list(map(_cell, cells))


def write_csv(path, header, columns) -> None:
    """Write `header` and `columns` (one sequence per header name, all of one
    length) as csv.writer would write their rows, in one write.  A wrong number
    of columns or a column of another length raises ValueError before `path` is
    opened or truncated."""
    columns, width = list(columns), len(header)
    if len(columns) != width:
        raise ValueError(f"{len(columns)} columns != header width {width}")
    lengths = set(map(len, columns))
    if len(lengths) > 1:
        raise ValueError(f"column lengths {sorted(lengths)} differ")
    lines = [",".join(map(_cell, header))]
    lines += map(",".join, zip(*map(_column, columns)))
    if width == 1:  # csv.writer's spelling of a lone empty cell
        lines = ['""' if line == "" else line for line in lines]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("\r\n".join(lines) + "\r\n")


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
