"""Workload definitions: inputs drawn from the seed, and the output checks.

Each workload runs one experiment driver of ``modspec.harness.experiments``.
The seed only chooses inputs; modspec receives a finished config.  The
default seed reproduces the repo's own defaults (and, for scaling_bands, the
c08 acceptance seed), and its outputs are compared with the reference
recorded in ``reference/<workload>.json``.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

DEFAULT_SEED = 0
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Share of a criterion's threshold by which its measured value may move from
# the reference: room for roundoff, far inside every pinned tolerance.
SUMMARY_SHARE = 1e-3


@dataclass(frozen=True)
class Column:
    """How one CSV column is compared with the reference."""

    rtol: float = 0.0  # 0 with atol 0: exact
    atol: float = 0.0
    below_one: bool = False  # only require 0 <= value < 1 (meaning may change)

    def agrees(self, value: float, ref: float) -> bool:
        if self.below_one:
            return 0.0 <= value < 1.0
        return abs(value - ref) <= self.atol + self.rtol * abs(ref)


EXACT = Column()


@dataclass(frozen=True)
class Workload:
    name: str
    driver: str  # function name in modspec.harness.experiments
    inputs: str  # "family" or "suite": what set-up builds before the call
    config: Callable[[int], dict]  # seed -> the config handed to the driver
    columns: dict  # CSV column -> Column; every column must be listed


def _width(seed: int) -> float:
    """Gaussian width: 1.0 at the default seed, else drawn from [0.95, 1.05]."""
    if seed == DEFAULT_SEED:
        return 1.0
    return round(random.Random(seed).uniform(0.95, 1.05), 6)


def _galilei_config(seed: int) -> dict:
    # |k| >= 6 fail at this resolution for a resolution reason (ROADMAP item 5),
    # so they are left out: a failure here means broken, not known red.
    return {
        "version": 1, "equation": "mkdv", "sign": "defocusing", "dt": 1e-3,
        "t_final": 0.03, "boosts": list(range(-5, 6)),
        "family": {"kind": "gaussian", "width": _width(seed), "amplitude": 0.3},
    }


def _conserve_config(seed: int) -> dict:
    return {
        "version": 1,
        "family": {"kind": "gaussian", "width": _width(seed), "amplitude": 0.3},
    }


C08_SEED = 11


def _scaling_config(seed: int) -> dict:
    suite_seed = C08_SEED if seed == DEFAULT_SEED else random.Random(seed).randrange(1 << 31)
    return {
        "version": 1, "ps": [[1.0, 0.0], [2.0, 0.0], [4.0, 1.0]],
        "lambdas": [0.125, 0.5, 1.0, 2.0, 8.0], "suite_size": 600, "seed": suite_seed,
    }


_ALPHA = Column(rtol=1e-8, atol=1e-12)

WORKLOADS = {
    "galilei_flow": Workload(
        "galilei_flow", "run_galilei", "family", _galilei_config,
        {"k": EXACT, "dt": EXACT, "distance": Column(rtol=1e-6, atol=1e-10)},
    ),
    "conserve_det": Workload(
        "conserve_det", "run_conservation", "family", _conserve_config,
        {"member": EXACT, "t": EXACT, "kappa": EXACT, "alpha_full": _ALPHA,
         "beta_full": _ALPHA, "alpha2": _ALPHA, "alpha4": _ALPHA, "beta2": _ALPHA,
         "hs_functional": _ALPHA,
         # ROADMAP item 3 turns this column into a certificate bound
         "spectral_radius": Column(below_one=True)},
    ),
    "scaling_bands": Workload(
        "scaling_bands", "run_scaling", "suite", _scaling_config,
        {"check": EXACT, "field": EXACT, "p": EXACT, "s": EXACT, "lam": EXACT,
         "ratio": Column(rtol=1e-9)},
    ),
}


# ---------------------------------------------------------------------------
# output checks

def _number(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None  # a label column


def parse_csv(text: str) -> tuple:
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def output_problems(csv_text: str, criteria: list) -> list:
    """Failures visible in one call's own outputs: a failed or non-finite criterion,
    or a non-finite CSV value."""
    problems = []
    for c in criteria:
        if not c["pass"]:
            problems.append(f"criterion {c['criterion']} failed: {c['measured']}")
        if not isinstance(c["measured"], (int, float)) or not math.isfinite(c["measured"]):
            problems.append(f"criterion {c['criterion']} is not finite: {c['measured']}")
    _, rows = parse_csv(csv_text)
    for i, row in enumerate(rows):
        for cell in row:
            v = _number(cell)
            if v is not None and not math.isfinite(v):
                problems.append(f"CSV row {i} holds a non-finite value {cell}")
                break
    return problems


def reference_problems(wl: Workload, csv_text: str, criteria: list, ref: dict) -> list:
    """Deviations from the recorded default-seed outputs beyond tolerance."""
    problems = []
    header, rows = parse_csv(csv_text)
    ref_header, ref_rows = parse_csv(ref["csv"])
    if header != ref_header or len(rows) != len(ref_rows):
        return [f"CSV shape {header} x {len(rows)} differs from reference "
                f"{ref_header} x {len(ref_rows)}"]
    missing = [h for h in header if h not in wl.columns]
    if missing:
        return [f"no tolerance for CSV columns {missing}"]
    for i, (row, ref_row) in enumerate(zip(rows, ref_rows)):
        for name, cell, ref_cell in zip(header, row, ref_row):
            v, r = _number(cell), _number(ref_cell)
            if v is None or r is None:
                ok = cell == ref_cell
            else:
                ok = wl.columns[name].agrees(v, r)
            if not ok:
                problems.append(f"CSV row {i} column {name}: {cell} vs reference {ref_cell}")
    names = [c["criterion"] for c in criteria]
    ref_names = [c["criterion"] for c in ref["criteria"]]
    if names != ref_names:
        problems.append(f"criteria {names} differ from reference {ref_names}")
        return problems
    for c, r in zip(criteria, ref["criteria"]):
        if c["pass"] != r["pass"]:
            problems.append(f"criterion {c['criterion']} verdict changed to {c['pass']}")
        if abs(c["measured"] - r["measured"]) > SUMMARY_SHARE * r["threshold"]:
            problems.append(f"criterion {c['criterion']} measured {c['measured']} "
                            f"vs reference {r['measured']}")
    return problems


def reference_path(wl: Workload) -> Path:
    return REFERENCE_DIR / f"{wl.name}.json"


def load_reference(wl: Workload) -> dict:
    with open(reference_path(wl), encoding="utf-8") as fh:
        return json.load(fh)
