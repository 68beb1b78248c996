"""Report persistence: fixed-column CSV plus JSON pass/fail summaries."""

from __future__ import annotations

import itertools
import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path


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


_NEEDS_QUOTES = re.compile(r'[,"\r\n]')


def _quoted(text: str) -> str:
    """csv.writer's QUOTE_MINIMAL rendering of one cell's text."""
    return '"' + text.replace('"', '""') + '"' if _NEEDS_QUOTES.search(text) else text


def _row_format(types: tuple) -> tuple:
    """(%-template, indices of cells to render as quoted text) for a row of `types`.

    A float (numpy's float64 included) is written to 17 significant digits; an
    int or bool as str() gives it, which never needs quoting; anything else as
    its str(), quoted when csv.writer would quote it.
    """
    fields = ["%.17g" if issubclass(t, float) else "%s" for t in types]
    text = [i for i, t in enumerate(types) if not issubclass(t, (float, int))]
    return ",".join(fields) + "\r\n", text


def write_csv(path, header, rows) -> None:
    """One line per row, each rendered by a template cached on its cell types."""
    formats = {}
    with open(path, "w", newline="", encoding="utf-8") as fh:
        for row in itertools.chain([header], rows):
            if len(row) != len(header):
                raise ValueError(f"row width {len(row)} != header width {len(header)}")
            types = tuple(map(type, row))
            form = formats.get(types)
            if form is None:
                form = formats[types] = _row_format(types)
            template, text = form
            if text:
                row = list(row)
                for i in text:
                    row[i] = _quoted(str(row[i]))
                if len(row) == 1 and row[0] == "":
                    row[0] = '""'  # csv.writer's spelling of a lone empty cell
            fh.write(template % tuple(row))


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
