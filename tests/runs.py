"""The run table: every CLI run whose outcome a green Tier-1 run certifies.

Each row is one `modspec <cmd> --config <file>` run: its config over
{"version": 1}, the exit code it must end with and the criteria that must
fail, in the order its summary lists them.  tests/test_runs.py runs every row
through `cli.main`.  A `rerun` row runs a second time, as `python -m
modspec.harness.cli` in a fresh interpreter (`python tests/runs.py OUT ID...`,
which is `main` below), and must write the same reports byte for byte.  A
`slow` row runs only under `pytest -m slow`.  A row whose `same_criteria_as`
names another row must write the same criteria as that row.

A row that exits 0 or 1 checks the claims of the paper's abstract that its
subcommand measures (`SUBCOMMANDS`); a known-red row is one that must exit 1.
README's claims table is `claims_table()`.
"""

from __future__ import annotations

import contextlib
import importlib.util
import json
import runpy
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from modspec.harness.config import build_family, config_from_dict, label

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS_PY = ROOT / "perfbench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()


def _workload_config(name: str) -> dict:
    """A benchmark workload's config at its default seed."""
    return workloads.WORKLOADS[name].config(workloads.DEFAULT_SEED)


# subcommand -> (the abstract's claims its criteria check, reads (p, s), evolves)
SUBCOMMANDS = {
    "conserve": (("conservation",), False, True),
    "normequiv": (("norm equivalence",), True, True),
    "galilei": (("Galilei",), False, True),
    "scaling": (("scaling/embedding",), True, False),
    "tails": (("tails",), True, True),
    "apriori": (("global bound", "equicontinuity"), True, True),
    "weights": (("equicontinuity",), True, False),
}
CLAIMS = ("conservation", "norm equivalence", "Galilei", "scaling/embedding", "tails",
          "global bound", "equicontinuity")
# what no row checks, each with the ROADMAP item that would check it
NOT_CHECKED = (
    ("continuous dependence on data", 9),
    ("a pass on complex data: every complex-data row is red", 8),
    ("any claim at the focusing sign", 25),
    ("any claim at T > 1", 6),
    ("any claim at (p, s) beyond the pairs listed above", 4),
)


@dataclass(frozen=True)
class Row:
    id: str
    cmd: str
    config: dict  # over {"version": 1}
    exit: int = 0
    failing: tuple = ()  # criterion names, in summary order
    rerun: bool = False
    slow: bool = False
    same_criteria_as: str | None = None

    @property
    def doc(self) -> dict:
        return {"version": 1, **self.config}

    @property
    def claims(self) -> tuple:
        """A config error checks no claim."""
        return () if self.exit == 2 else SUBCOMMANDS[self.cmd][0]

    def setting(self) -> dict:
        """The signs, data kinds, (p, s) pairs and Ts the row's run checks; none
        where its subcommand reads none."""
        cfg = config_from_dict(self.doc)
        _, reads_ps, evolves = SUBCOMMANDS[self.cmd]
        if self.cmd == "scaling":
            data = "random suite"
        else:
            members = build_family(cfg.family, cfg.grid(), np.random.default_rng(cfg.seed))
            data = "complex" if any(np.any(f.values.imag) for f in members) else "real"
        return {"sign": [cfg.sign] if evolves else [], "data": [data],
                "ps": [f"({label(p)}, {label(s)})" for p, s in cfg.ps] if reads_ps else [],
                "T": [label(cfg.t_final)] if evolves else []}


def _underflow(amplitude: float) -> dict:
    return {"family": {"kind": "gaussian", "amplitude": amplitude}}


_COMPLEX = {"family": {"kind": "gaussian", "center_freq": 2.0}}
_APRIORI_ORDER = {"sign": "defocusing", "ps": [[1.0, 0.0]]}

ROWS = (
    # every subcommand at its defaults; galilei fails |k| >= 6 on this grid (ROADMAP item 3)
    Row("conserve_defaults", "conserve", {}, rerun=True),
    Row("normequiv_defaults", "normequiv", {}, rerun=True),
    Row("apriori_defaults", "apriori", {}, rerun=True),
    Row("galilei_defaults", "galilei", {}, exit=1, rerun=True, slow=True,
        failing=tuple(f"two_path_distance[k={k}]" for k in (-8, -7, -6, 6, 7, 8))),
    Row("scaling_defaults", "scaling", {}, rerun=True),
    Row("tails_defaults", "tails", {}, rerun=True, slow=True),
    Row("weights_defaults", "weights", {}, rerun=True),
    # the benchmark's configs, and the nls stepper and a short tails run
    Row("scaling_c08", "scaling", _workload_config("scaling_bands"), rerun=True),
    Row("galilei_flow", "galilei", _workload_config("galilei_flow")),
    Row("conserve_nls", "conserve", {"equation": "nls"}),
    Row("tails_floor", "tails", {"amplitudes": [0.1, 0.2], "boosts": [-2, 0, 2],
                                 "snapshots": 2, "t_final": 0.1}),
    # large data; the family clause runs at the family's own amplitude, whatever the order
    Row("apriori_large", "apriori", {"sign": "defocusing", "amplitudes": [1.0, 2.0],
                                     "ps": [[1.0, 0.0], [4.0, 1.0], [1.5, 0.5]]}, rerun=True),
    Row("apriori_order_2_0.1", "apriori", {**_APRIORI_ORDER, "amplitudes": [2.0, 0.1]}),
    Row("apriori_order_0.1_2", "apriori", {**_APRIORI_ORDER, "amplitudes": [0.1, 2.0]},
        same_criteria_as="apriori_order_2_0.1"),
    # the paper's setting, complex data: known red (ROADMAP items 8 and 3)
    Row("conserve_complex", "conserve", _COMPLEX, exit=1,
        failing=("alpha_drift[m0,kappa=0.5]", "beta_drift[m0,kappa=0.5]",
                 "alpha_drift[m0,kappa=1]", "beta_drift[m0,kappa=1]",
                 "alpha_drift[m0,kappa=2]", "beta_drift[m0,kappa=2]", "trace_imag_rel[m0]")),
    Row("normequiv_complex", "normequiv", _COMPLEX, exit=1,
        failing=("sweep_tail_fraction[p=2,s=0,unit]", "sweep_tail_fraction[p=2,s=0,built]")),
    Row("galilei_complex", "galilei", _COMPLEX, exit=1, slow=True,
        failing=tuple(f"two_path_distance[k={k}]" for k in (-8, -7, -6, -5, -4, 8))),
    # config errors
    Row("galilei_repeated_boost", "galilei", {"boosts": [1, 1, 0]}, exit=2),
    Row("conserve_huge_kappa", "conserve", {"kappas": [1e160]}, exit=2),
    Row("conserve_close_kappas", "conserve", {"kappas": [0.5, 0.5000001]}, exit=2),
    Row("conserve_zero_data", "conserve", _underflow(0.0), exit=2),
    # data whose squared spectrum underflows are refused; at 1e-150 it is normal (the
    # run is slow: its window products are subnormal)
    Row("conserve_underflow", "conserve", _underflow(1e-170), exit=2),
    Row("normequiv_underflow", "normequiv", _underflow(1e-170), exit=2),
    Row("galilei_underflow", "galilei", _underflow(1e-170), exit=2),
    Row("tails_underflow", "tails", {"amplitudes": [1e-170]}, exit=2),
    Row("conserve_subnormal", "conserve", _underflow(1e-160), exit=2),
    Row("conserve_tiny", "conserve", _underflow(1e-150), slow=True),
)
BY_ID = {row.id: row for row in ROWS}


def _argv(row: Row, out: Path) -> list:
    """The row's CLI arguments, its config file written to `out`, where its reports go."""
    out.mkdir(parents=True, exist_ok=True)
    config = out / "config.json"
    config.write_text(json.dumps(row.doc), encoding="utf-8")
    return [row.cmd, "--config", str(config), "--out", str(out)]


def run(row: Row, out: Path) -> int:
    """Run the row through `cli.main`; its exit code."""
    # imported here: `main` below runs the module as __main__, which warns (an
    # error under PYTHONWARNINGS=error) when it was imported first
    from modspec.harness.cli import main as cli_main
    return cli_main(_argv(row, out))


def claims_table() -> str:
    """README's claims table: each claim with the rows that check it, a known-red
    row marked red, and the settings its passing rows cover."""
    lines = ["| claim | rows | sign | data | (p, s) | T |", "|---|---|---|---|---|---|"]
    for claim in CLAIMS:
        rows = [row for row in ROWS if claim in row.claims]
        settings = [row.setting() for row in rows if row.exit == 0]
        cells = [", ".join(sorted({v for s in settings for v in s[key]})) or "—"
                 for key in ("sign", "data", "ps", "T")]
        ids = ", ".join(f"`{row.id}`" + (" (red)" if row.exit == 1 else "") for row in rows)
        lines.append(f"| {claim} | {ids} | " + " | ".join(cells) + " |")
    lines += [f"| {what} | not checked (ROADMAP item {item}) | | | | |"
              for what, item in NOT_CHECKED]
    return "\n".join(lines)


def main(argv) -> int:
    """Run the rows named in argv[1:] as `python -m modspec.harness.cli` would, in
    this interpreter, into argv[0]/<id>/, and write their exit codes to
    argv[0]/exits.json."""
    out, exits = Path(argv[0]), {}
    with contextlib.redirect_stdout(sys.stderr):
        for i in argv[1:]:
            sys.argv = ["modspec", *_argv(BY_ID[i], out / i)]
            try:
                runpy.run_module("modspec.harness.cli", run_name="__main__")
            except SystemExit as done:
                exits[i] = done.code
    (out / "exits.json").write_text(json.dumps(exits), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
