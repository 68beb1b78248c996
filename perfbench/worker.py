"""One benchmark sample in a fresh process, as ``modspec <cmd>`` would run it.

Usage: python3 perfbench/worker.py < spec.json

The spec, read from stdin, names the driver, the config (as JSON text), what
set-up builds ("family" or "suite"), whether to trace, a scratch directory
for the report files, and whether to stop after set-up.  The last stdout line
is a JSON object with the set-up and run times, the host-probe times, peak
memory, the CSV text and criteria written, and, when traced, the per-layer
metrics and span table.
"""

import time

T0 = time.perf_counter()

import hashlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402


def provenance() -> dict:
    import ctypes

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    threads = None
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "blas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {"numpy": np.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version"), "blas_threads": threads,
            "python": sys.version.split()[0]}


def host_probe():
    """A fixed kernel shaped like modspec's work; returns a function timing it.

    Small-array FFT and elementwise steps (interpreter and numpy overhead, as
    in evolve and the norms) plus a few dense complex matmuls (BLAS, as in the
    operator build).  It runs no modspec code, so a change to modspec cannot
    move it, while a busy host slows it together with the timed call.  The
    numpy functions are bound here, before tracing wraps them.
    """
    import numpy as np

    fft, ifft, shift, ishift = np.fft.fft, np.fft.ifft, np.fft.fftshift, np.fft.ifftshift
    rng = np.random.default_rng(0)
    a = rng.standard_normal(1024) + 1j * rng.standard_normal(1024)
    m = rng.standard_normal((256, 256)) + 1j * rng.standard_normal((256, 256))

    def seconds() -> float:
        t0 = time.perf_counter()
        for _ in range(1500):
            s = shift(fft(ishift(a)))
            s = np.abs(ifft(s * a)) ** 2 * a
        for _ in range(12):
            m @ m
        return time.perf_counter() - t0

    return seconds


def peak_anon_mb() -> float:
    """Peak resident memory less the file-backed part, in MiB.

    File-backed pages (shared libraries, bytecode) count toward the peak as
    the kernel maps them around each fault, which depends on what the page
    cache holds at the time; that moved the peak by 6 MB from run to run.
    The file-backed part rarely shrinks, so subtracting its final size leaves
    the peak of the memory the program allocates.
    """
    with open("/proc/self/status", encoding="utf-8") as fh:
        kb = {line.split(":")[0]: int(line.split()[1]) for line in fh
              if line.startswith(("VmHWM:", "RssFile:"))}
    return (kb["VmHWM"] - kb["RssFile"]) / 1024.0


def main() -> None:
    spec = json.load(sys.stdin)
    out = {"setup_s": None, "run_s": None, "error": None}

    import numpy as np

    import modspec
    from modspec.harness import experiments
    from modspec.harness.config import build_family, config_from_dict, random_suite

    cfg = config_from_dict(json.loads(spec["config"]))
    grid = cfg.grid()
    rng = np.random.default_rng(cfg.seed)
    if spec["inputs"] == "suite":
        random_suite(grid, cfg.suite_size, rng)
    else:
        build_family(cfg.family, grid, rng)
    out["setup_s"] = time.perf_counter() - T0
    out["modspec_file"] = modspec.__file__
    if spec["setup_only"]:
        print(json.dumps(out))
        return
    out["provenance"] = provenance()

    probe = host_probe()
    cal_before = probe()
    tracer = None
    if spec["trace"]:
        import tracing

        tracer = tracing.Tracer().install()
    driver = getattr(experiments, spec["driver"])
    out_dir = tempfile.mkdtemp(dir=spec["scratch"])
    t1 = time.perf_counter()
    try:
        result = driver(cfg)
        csv_path, json_path = result.write(out_dir)
    except Exception:  # a failed call is a measured outcome, reported to the parent
        out["run_s"] = time.perf_counter() - t1
        out["error"] = traceback.format_exc(limit=8)
    else:
        out["run_s"] = time.perf_counter() - t1
        csv_bytes = Path(csv_path).read_bytes()
        out["csv"] = csv_bytes.decode("utf-8")
        out["csv_bytes"] = len(csv_bytes)
        out["csv_sha256"] = hashlib.sha256(csv_bytes).hexdigest()
        out["criteria"] = json.loads(Path(json_path).read_text(encoding="utf-8"))["criteria"]
    finally:
        for p in Path(out_dir).iterdir():
            p.unlink()
        Path(out_dir).rmdir()
    out["cal_s"] = [cal_before, probe()]
    if tracer is not None:
        out["layers"] = tracer.layer_metrics(spec["driver"])
        out["spans"] = tracer.spans()
        out["absent"] = tracer.absent
        out["unavailable"] = sorted(tracer.unavailable)
    out["peak_rss_mb"] = peak_anon_mb()
    print(json.dumps(out))


if __name__ == "__main__":
    main()
