"""Command-line entry point: one subcommand per experiment driver."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from ..conserved import AliasingError, SeriesDivergenceError
from ..equicont import NotEquicontinuousError
from ..flows import BlowUpError
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


def main(argv=None) -> int:
    """Exit 0 if every criterion passed, 1 if one failed, 2 on a config or usage
    error, 3 on a numerical breakdown (recorded in the summary)."""
    args = _parser().parse_args(argv)
    try:
        cfg = _config(args)
        result = DRIVERS[args.command](cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SeriesDivergenceError, BlowUpError, NotEquicontinuousError, AliasingError) as exc:
        error = {"type": type(exc).__name__, "message": str(exc)}
        if isinstance(exc, BlowUpError):
            error["last_good_time"] = float(exc.last_good_time)
        args.out.mkdir(parents=True, exist_ok=True)
        json_path = args.out / f"{args.command}_summary.json"
        write_summary(json_path, [], {"config": cfg.to_dict(), "error": error})
        print(f"numerical breakdown: {error['type']}: {error['message']}", file=sys.stderr)
        print(f"summary -> {json_path}")
        return 3

    csv_path, json_path = result.write(args.out)
    for e in result.summary:
        status = "PASS" if e.passed else "FAIL"
        print(f"[{status}] {e.criterion}: measured {e.measured:.6g} vs threshold {e.threshold:.6g}")
    print(f"rows: {len(result.rows)} -> {csv_path}")
    print(f"summary -> {json_path}")
    return 0 if result.all_pass else 1


if __name__ == "__main__":
    raise SystemExit(main())
