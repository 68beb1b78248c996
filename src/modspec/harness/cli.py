"""Command-line entry point: one subcommand per experiment driver."""

from __future__ import annotations

import argparse
import errno
import os
import sys
from pathlib import Path

from ..conserved import SeriesDivergenceError
from ..equicont import NotEquicontinuousError
from ..flows import BlowUpError
from ..grid import AliasingError
from .config import ConfigError, config_from_dict, read_config
from .reports import write_summary
from . import experiments

DRIVERS = {
    "conserve": experiments.run_conservation,
    "normequiv": experiments.run_norm_equivalence,
    "apriori": experiments.run_apriori,
    "galilei": experiments.run_galilei,
    "scaling": experiments.run_scaling,
    "tails": experiments.run_tails,
    "weights": experiments.run_weights,
}

HELP = {
    "conserve": "determinant-functional drift along a flow",
    "normequiv": "banded norm vs boosted quadratic-functional norm",
    "apriori": "global norm bounds over an amplitude sweep",
    "galilei": "boost/evolve two-path consistency",
    "scaling": "scaling-factor and embedding constants over a field suite",
    "tails": "quartic and sextic-and-up tail inequalities",
    "weights": "equicontinuity weight construction and verification",
}


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="modspec",
                                description="desk-scale experiments for the spectral toolkit")
    sub = p.add_subparsers(dest="command", required=True)
    for name in DRIVERS:
        q = sub.add_parser(name, help=HELP[name])
        q.add_argument("--config", type=Path, help="JSON config file (defaults otherwise)")
        q.add_argument("--out", type=Path, default=Path("reports"), help="output directory")
        q.add_argument("--seed", type=int, help="override config seed")
        q.add_argument("--dt", type=float, help="override config dt")
        q.add_argument("--grid", type=str, metavar="N,L", help="override grid, e.g. 1024,100.5")
    return p


def _config(args):
    """The config file (or the defaults) with the command-line overrides, validated once."""
    doc = read_config(args.config) if args.config else {"version": 1}
    if args.seed is not None:
        doc["seed"] = args.seed
    if args.dt is not None:
        doc["dt"] = args.dt
    if args.grid is not None:
        try:
            n_str, l_str = args.grid.split(",")
            doc["grid_n"], doc["grid_length"] = int(n_str), float(l_str)
        except ValueError:
            raise ConfigError(f"--grid expects N,L, got {args.grid!r}") from None
    return config_from_dict(doc)


def _unwritable(out: Path):
    """The OSError that writing reports under `out` would meet, or None; creates
    nothing.  `out` must be a writable directory, or its nearest existing
    ancestor must be one.  A write that fails anyway is caught where it happens.
    """
    path = out
    while not path.exists():
        path = path.parent
    if not path.is_dir():
        code = errno.ENOTDIR
    elif not os.access(path, os.W_OK | os.X_OK):
        code = errno.EACCES
    else:
        return None
    return OSError(code, os.strerror(code), str(path))


def _cannot_write(out: Path, exc: OSError) -> int:
    where = f" ({exc.filename})" if exc.filename and Path(exc.filename) != out else ""
    print(f"error: cannot write reports to {out}: {exc.strerror or exc}{where}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    """Exit 0 if every criterion passed, 1 if one failed, 2 on a config or usage
    error (an unwritable --out included), 3 on a numerical breakdown (recorded
    in the summary)."""
    args = _parser().parse_args(argv)
    try:
        cfg = _config(args)
        unwritable = _unwritable(args.out)
        if unwritable:
            return _cannot_write(args.out, unwritable)
        result = DRIVERS[args.command](cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SeriesDivergenceError, BlowUpError, NotEquicontinuousError, AliasingError) as exc:
        error = {"type": type(exc).__name__, "message": str(exc)}
        if isinstance(exc, BlowUpError):
            error.update(last_good_time=float(exc.last_good_time), row=int(exc.row))
        print(f"numerical breakdown: {error['type']}: {error['message']}", file=sys.stderr)
        json_path = args.out / f"{args.command}_summary.json"
        try:
            args.out.mkdir(parents=True, exist_ok=True)
            write_summary(json_path, [], {"config": cfg.to_dict(), "error": error})
        except OSError as os_exc:
            return _cannot_write(args.out, os_exc)
        print(f"summary -> {json_path}")
        return 3

    try:
        csv_path, json_path = result.write(args.out)
    except OSError as exc:
        return _cannot_write(args.out, exc)
    for e in result.summary:
        status = "PASS" if e.passed else "FAIL"
        print(f"[{status}] {e.criterion}: measured {e.measured:.6g} vs threshold {e.threshold:.6g}")
    print(f"rows: {len(result.rows)} -> {csv_path}")
    print(f"summary -> {json_path}")
    return 0 if result.all_pass else 1


if __name__ == "__main__":
    raise SystemExit(main())
