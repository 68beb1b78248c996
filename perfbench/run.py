"""modspec benchmark: time experiment drivers end to end, trace them by layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload galilei_flow --seed 0 --seconds 42 --trace 0

Each sample is a fresh single-threaded worker process (perfbench/worker.py)
that imports modspec from ./src, builds the workload's inputs, runs one
driver call plus ``RunResult.write`` and exits, as ``modspec <cmd>`` does.
Samples repeat until --seconds is used up and medians are reported.  With
--trace 1 every other sample is traced from outside (perfbench/tracing.py)
and the per-layer metrics are reported instead of the end-to-end ones.

Every call's outputs are checked: criteria pass, values are finite, all
samples (traced or not) write identical CSVs, and at the default seed the
outputs match the recorded reference.  The last stdout line is a JSON object
with the keys correct, attempted, failed and metrics; the lines before it are
the human-readable report, provenance included.  ``--workload all`` runs every
workload in turn.
"""

from __future__ import annotations

import os

# Single-threaded BLAS and FFT in every worker; set before anything imports numpy.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import functools  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Seconds the worker's host probe takes on an unloaded reference host (2-core
# VM, numpy 2.4 with OpenBLAS).  Times are reported at that host speed: each
# sample's wall times are scaled by CAL_REF_S / (its probe time), so a host
# that slows down for minutes slows the probe alike and the figure holds.
CAL_REF_S = 0.11

MIN_SAMPLES = 3  # untraced samples, and traced ones with --trace 1
RUN_BUDGET_S = 150.0  # start no sample past this
HARD_LIMIT_S = 170.0  # kill a worker still running past this; the run then fails
MAX_PROBLEMS_SHOWN = 20


@functools.cache
def declared() -> dict:
    """The metrics BENCHMARK.json declares, by kind; a result must match them."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {kind: {m["name"]: m["unit"] for m in doc[kind]}
            for kind in ("end_to_end", "per_layer")}


def unit(name: str) -> str:
    kinds = declared()
    return kinds["end_to_end"].get(name) or kinds["per_layer"][name]


class SampleError(RuntimeError):
    """A worker that produced no measurement at all."""


def run_worker(wl: workloads.Workload, config: dict, scratch: Path, trace: bool,
               setup_only: bool = False, timeout: float = HARD_LIMIT_S) -> dict:
    spec = {"driver": wl.driver, "config": json.dumps(config), "inputs": wl.inputs,
            "trace": trace, "scratch": str(scratch), "setup_only": setup_only}
    env = dict(os.environ, PYTHONPATH=str(SRC))
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py")], input=json.dumps(spec),
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise SampleError(f"worker timed out after {exc.timeout} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SampleError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    out = json.loads(lines[-1])
    if not Path(out["modspec_file"]).resolve().is_relative_to(SRC):
        raise SampleError(f"modspec imported from {out['modspec_file']}, not from {SRC}")
    return out


def tail(values: list) -> tuple:
    """The highest percentile with at least ten samples beyond it, as (pct, value).

    With ten samples or fewer no percentile qualifies; the minimum is given."""
    xs = sorted(values)
    rank = max(1, len(xs) - 10)  # 1-based; leaves len - rank samples above it
    return 100.0 * rank / len(xs), xs[rank - 1]


def source_revision() -> dict:
    rev = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        rev = proc.stdout.strip() or None
    h = hashlib.sha256()
    for p in sorted(SRC.rglob("*.py")):
        h.update(p.relative_to(SRC).as_posix().encode())
        h.update(p.read_bytes())
    return {"git_revision": rev, "src_sha256": h.hexdigest()}


def measure(wl: workloads.Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Collect samples for one workload run and check every call's outputs."""
    config = wl.config(seed)
    reference = workloads.load_reference(wl) if seed == workloads.DEFAULT_SEED else None
    started = time.monotonic()
    scratch = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    plain, traced, problems = [], [], []
    first = None  # outputs every later call must reproduce byte for byte
    ref_problems = []  # the first call's deviations from the reference
    attempted = failed = 0
    try:
        # untimed: compiles bytecode and warms the file cache
        run_worker(wl, config, scratch, trace=False, setup_only=True)
        deadline = time.monotonic() + seconds
        durations = []
        while True:
            is_traced = trace and len(plain) > len(traced)
            t = time.monotonic()
            out = run_worker(wl, config, scratch, trace=is_traced,
                             timeout=HARD_LIMIT_S - (t - started))
            durations.append(time.monotonic() - t)
            attempted += 1
            (traced if is_traced else plain).append(out)
            if out["error"]:
                call_problems = [out["error"].strip().splitlines()[-1]]
            else:
                csv_text = out.pop("csv")
                call_problems = workloads.output_problems(csv_text, out["criteria"])
                if first is None:
                    first = out
                    if reference is not None:
                        ref_problems = workloads.reference_problems(
                            wl, csv_text, out["criteria"], reference)
                if (out["csv_sha256"], out["criteria"]) != (first["csv_sha256"],
                                                            first["criteria"]):
                    call_problems.append("outputs differ from the first call of this run"
                                         + (" (traced)" if is_traced else ""))
                else:
                    call_problems += ref_problems  # identical outputs, same verdict
            if call_problems:
                failed += 1
                problems += call_problems
            now = time.monotonic()
            enough = len(plain) >= MIN_SAMPLES and (not trace or len(traced) >= MIN_SAMPLES)
            if (enough and now + statistics.median(durations) > deadline) \
                    or now - started > RUN_BUDGET_S:
                break
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return {"config": config, "plain": plain, "traced": traced, "problems": problems,
            "attempted": attempted, "failed": failed}


def speed(sample: dict) -> float:
    """Factor that rescales a sample's wall times to the reference host speed."""
    return CAL_REF_S / statistics.fmean(sample["cal_s"])


def end_to_end(m: dict) -> dict:
    plain = m["plain"]
    return {
        "run_s": statistics.median(s["run_s"] * speed(s) for s in plain),
        "setup_s": statistics.median(s["setup_s"] * speed(s) for s in plain),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in plain),
        "pass_frac": (m["attempted"] - m["failed"]) / m["attempted"],
    }


def per_layer(m: dict) -> dict:
    traced, plain = m["traced"], m["plain"]
    out = {}
    for n in traced[0]["layers"]:
        if unit(n) in ("s", "us"):
            out[n] = statistics.median(s["layers"][n] * speed(s) for s in traced)
        else:
            out[n] = statistics.median(s["layers"][n] for s in traced)
    run_plain = statistics.median(s["run_s"] * speed(s) for s in plain)
    run_traced = statistics.median(s["run_s"] * speed(s) for s in traced)
    out["harness.csv_bytes"] = statistics.median(s.get("csv_bytes", 0) for s in plain)
    out["harness.trace_overhead_frac"] = run_traced / run_plain - 1.0
    out["harness.run_samples"] = len(plain)
    out["harness.run_tail_s"] = tail([s["run_s"] * speed(s) for s in plain])[1]
    return out


def report(wl: workloads.Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload, print the human-readable report, return the result line."""
    m = measure(wl, seed, seconds, trace)
    plain = m["plain"]
    print(f"perfbench workload={wl.name} seed={seed} seconds={seconds:g} trace={int(trace)}")
    prov = dict(plain[0]["provenance"], nproc=len(os.sched_getaffinity(0)),
                threads_env={v: os.environ[v] for v in THREAD_VARS}, **source_revision())
    print("provenance: " + json.dumps(prov, sort_keys=True))
    print("inputs: " + json.dumps(m["config"], sort_keys=True))

    e2e = end_to_end(m)
    runs = [s["run_s"] * speed(s) for s in plain]
    pct, tail_s = tail(runs)
    probe_s = statistics.median(statistics.fmean(s["cal_s"]) for s in plain)
    print(f"host probe: median {probe_s:.4g} s against {CAL_REF_S:g} s on the reference"
          " host; times below are rescaled to it."
          f" Unscaled medians: run {statistics.median(s['run_s'] for s in plain):.6g} s,"
          f" setup {statistics.median(s['setup_s'] for s in plain):.6g} s")
    print(f"  {'run_s':34s} {e2e['run_s']:.6g} s  (median of {len(runs)} untraced calls; "
          f"p{pct:.0f} {tail_s:.6g} s; min {min(runs):.6g} max {max(runs):.6g})")
    for name in ("setup_s", "peak_rss_mb", "pass_frac"):
        print(f"  {name:34s} {e2e[name]:.6g} {unit(name)}")
    fail_frac = m["failed"] / m["attempted"]
    print(f"  {'fail_frac':34s} {fail_frac:.6g} fraction  "
          f"({m['failed']} of {m['attempted']} calls failed)")
    distinct = list(dict.fromkeys(m["problems"]))
    for p in distinct[:MAX_PROBLEMS_SHOWN]:
        print(f"  FAIL: {p}")
    if len(distinct) > MAX_PROBLEMS_SHOWN:
        print(f"  ... and {len(distinct) - MAX_PROBLEMS_SHOWN} more")

    metrics = e2e
    if trace:
        metrics = per_layer(m)
        for name, value in metrics.items():
            print(f"  {name:34s} {value:.6g} {unit(name)}")
        first = m["traced"][0]
        if first["absent"]:
            print("  absent (not found in this modspec): " + ", ".join(first["absent"]))
        if first["unavailable"]:
            print("  arguments unreadable, counts partial: " + ", ".join(first["unavailable"]))
        print("  spans of one traced call (calls, inclusive s, self s), by self time:")
        spans = sorted(first["spans"].items(), key=lambda kv: -kv[1][2])
        for name, (calls, incl, self_s) in spans:
            print(f"    {name:44s} {calls:8d} {incl:10.4f} {self_s:10.4f}")
    names = declared()["per_layer" if trace else "end_to_end"]
    if sorted(metrics) != sorted(names):
        raise SampleError(f"metrics {sorted(metrics)} differ from BENCHMARK.json {sorted(names)}")
    return {
        "correct": m["failed"] == 0,
        "attempted": m["attempted"],
        "failed": m["failed"],
        "metrics": {n: {"value": v, "unit": unit(n)} for n, v in metrics.items()},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=42.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "modspec" / "__init__.py").is_file():
        print(f"error: no modspec sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        try:
            result = report(workloads.WORKLOADS[name], args.seed, args.seconds,
                            bool(args.trace))
        except (SampleError, OSError) as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
