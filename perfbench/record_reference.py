"""Record the default-seed outputs that later runs are compared against.

Usage (from the repository root): python3 perfbench/record_reference.py [workload ...]

Run this only at a commit whose outputs are the accepted ones, and say in
CHANGES.md why the reference moved.  Each file holds the config, the CSV text
and the criteria that one untraced driver call wrote.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile

import run
import workloads


def main(names) -> int:
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    for name in names or workloads.WORKLOADS:
        wl = workloads.WORKLOADS[name]
        config = wl.config(workloads.DEFAULT_SEED)
        scratch = tempfile.mkdtemp(prefix=".perfbench-", dir=run.ROOT)
        try:
            out = run.run_worker(wl, config, scratch, trace=False)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        if out["error"]:
            print(f"{name}: driver failed:\n{out['error']}", file=sys.stderr)
            return 1
        problems = workloads.output_problems(out["csv"], out["criteria"])
        if problems:
            print(f"{name}: outputs fail their own checks: {problems}", file=sys.stderr)
            return 1
        doc = {"workload": name, "config": config, "csv": out["csv"],
               "criteria": out["criteria"]}
        path = workloads.reference_path(wl)
        path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"{name}: {len(out['criteria'])} criteria, {out['csv_bytes']} CSV bytes -> {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
