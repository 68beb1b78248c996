"""Every row of the run table (tests/runs.py) through the CLI: its exit code, its
failing criteria, the shape of its CSV, a rerun in a fresh interpreter, and the
claims table README prints from it."""

import contextlib
import csv
import io
import json
import os
import re
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import pytest

from modspec.harness.cli import DRIVERS

import runs


def _params(rows):
    return [pytest.param(row, id=row.id, marks=[pytest.mark.slow] if row.slow else [])
            for row in rows]


@dataclass(frozen=True)
class Ran:
    exit: int
    stdout: str
    out: Path  # its reports


@pytest.fixture(scope="session")
def first_run(tmp_path_factory):
    """row -> its Ran; each row runs once per session, in this process."""
    done = {}

    def first_run(row):
        if row.id not in done:
            out = tmp_path_factory.mktemp(row.id)
            with contextlib.redirect_stdout(io.StringIO()) as stdout:
                code = runs.run(row, out)
            done[row.id] = Ran(code, stdout.getvalue(), out)
        return done[row.id]

    return first_run


def _criteria(row, ran):
    return json.loads((ran.out / f"{row.cmd}_summary.json").read_text(encoding="utf-8"))["criteria"]


@pytest.mark.parametrize("row", _params(runs.ROWS))
def test_row(row, first_run):
    ran = first_run(row)
    assert ran.exit == row.exit, f"{row.id}: exited {ran.exit}, not {row.exit}"
    if row.exit == 2:
        return  # a config error writes no report
    failing = [c["criterion"] for c in _criteria(row, ran) if not c["pass"]]
    assert failing == list(row.failing), f"{row.id}: failed {failing}, not {list(row.failing)}"
    with open(ran.out / f"{row.cmd}.csv", newline="", encoding="utf-8") as fh:
        header, *data = csv.reader(fh)
    widths = sorted({len(cells) for cells in data} - {len(header)})
    assert not widths, f"{row.id}: {row.cmd}.csv has rows of widths {widths}, its header {len(header)}"
    printed = re.findall(r"^rows: (\d+) -> ", ran.stdout, re.M)
    assert printed == [str(len(data))], \
        f"{row.id}: {row.cmd}.csv has {len(data)} data rows, its run printed rows {printed}"


@pytest.mark.parametrize("row", _params([row for row in runs.ROWS if row.same_criteria_as]))
def test_same_criteria(row, first_run):
    other = runs.BY_ID[row.same_criteria_as]
    assert _criteria(row, first_run(row)) == _criteria(other, first_run(other)), \
        f"{row.id}: its criteria differ from {other.id}'s"


@pytest.fixture(scope="session")
def reruns(request, tmp_path_factory):
    """(reports directory, row id -> exit) of this session's rerun rows, all run
    again in one fresh interpreter with warnings as errors.  It inherits this
    process's BLAS thread count (conftest.py sets one unless the caller chose)."""
    ids = [item.callspec.params["row"].id for item in request.session.items
           if getattr(item, "originalname", None) == "test_rerun_is_byte_identical"]
    out = tmp_path_factory.mktemp("rerun")
    path = [str(runs.ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = {**os.environ, "PYTHONWARNINGS": "error", "PYTHONPATH": os.pathsep.join(path)}
    proc = subprocess.run([sys.executable, runs.__file__, str(out), *ids],
                          env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return out, json.loads((out / "exits.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("row", _params([row for row in runs.ROWS if row.rerun]))
def test_rerun_is_byte_identical(row, first_run, reruns):
    out, exits = reruns
    assert exits[row.id] == row.exit, f"{row.id}: exited {exits[row.id]} on its rerun, not {row.exit}"
    for name in (f"{row.cmd}.csv", f"{row.cmd}_summary.json"):
        assert (first_run(row).out / name).read_bytes() == (out / row.id / name).read_bytes(), \
            f"{row.id}: {name} differs on a rerun"


def test_the_table_is_consistent():
    assert len(runs.BY_ID) == len(runs.ROWS), "two rows share an id"
    for row in runs.ROWS:
        assert bool(row.failing) == (row.exit == 1), f"{row.id}: only an exit 1 fails criteria"
        if row.same_criteria_as:
            other = runs.BY_ID[row.same_criteria_as]
            assert (other.cmd, other.slow) == (row.cmd, row.slow), row.id


def test_every_subcommand_has_a_row_at_its_defaults():
    assert set(runs.SUBCOMMANDS) == set(DRIVERS)
    assert {row.cmd for row in runs.ROWS if row.config == {}} == set(DRIVERS)


def test_readme_claims_table_is_the_run_tables_claims():
    readme = (runs.ROOT / "README.md").read_text(encoding="utf-8")
    table = re.search(r"<!-- claims -->\n(.*?)\n<!-- /claims -->", readme, re.S)
    assert table, "README has no <!-- claims --> block"
    assert table.group(1) == runs.claims_table()
