"""Run one casdis benchmark workload and print its metrics.

    python3 bench/run.py --workload desk_train --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all

Run it from the repository root: the program is imported from ``src/``.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Lines before it
name the machine and print every metric with its unit.  A full record goes
to ``.bench_out/`` in the repository root.  The exit code is 0 only when
every output check passed; it is 2 when the program cannot be found.
See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time

# One BLAS thread: the program is a single Python process, and on a small
# shared machine a second thread mostly adds jitter.  Set before numpy loads.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
OUT_DIR = os.path.join(ROOT, ".bench_out")
REFERENCE = os.path.join(BENCH_DIR, "reference.json")
WORKLOAD_NAMES = ("desk_train", "long_train", "paper_scale")


def _import_program():
    """Import casdis from ``src/`` of the current directory, or exit 2."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "casdis", "__init__.py")):
        sys.stderr.write(f"no casdis sources under {src}; run from the repository root\n")
        sys.exit(2)
    sys.path.insert(0, src)
    import casdis  # noqa: F401


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads():
    """Threads the loaded OpenBLAS reports, or None where it cannot be asked."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line}
    except OSError:
        return None
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def machine(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "cpu": _cpu_model(),
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(),
        "blas_threads_requested": BLAS_THREADS,
        "seed": seed,
    }


def run_one(args) -> int:
    _import_program()
    from casbench import workloads as wl
    from casbench.tracer import PER_LAYER_UNITS

    w = wl.WORKLOADS[args.workload]
    with open(REFERENCE, encoding="utf-8") as fh:
        reference = json.load(fh)[w.name]
    os.makedirs(OUT_DIR, exist_ok=True)
    tally = wl.Tally()
    measure = wl.measure_traced if args.trace else wl.measure
    start = time.perf_counter()
    values, notes = measure(w, args.seed, args.seconds, reference, OUT_DIR, tally)
    units = PER_LAYER_UNITS if args.trace else wl.END_TO_END_UNITS
    metrics = {name: {"value": float(values[name]), "unit": units[name]} for name in units if name in values}

    info = machine(args.seed)
    print(f"workload {w.name}  seed {args.seed}  trace {args.trace}  wall {time.perf_counter() - start:.1f} s")
    print("machine " + json.dumps(info))
    for key, value in notes.items():
        if not isinstance(value, dict):
            print(f"  {key:<36} {value:.6g} {wl.NOTE_UNITS.get(key, '')}")
    for name, m in metrics.items():
        print(f"  {name:<36} {m['value']:.6g} {m['unit']}")
    for failure in tally.failures[:20]:
        print(f"  FAILED: {failure}")
    result = {"correct": tally.failed == 0, "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}
    record = dict(result, workload=w.name, trace=args.trace, seconds=args.seconds, machine=info,
                  notes=notes, failures=tally.failures)
    with open(os.path.join(OUT_DIR, f"{w.name}-trace{args.trace}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result))
    return 0 if tally.failed == 0 else 1


def run_all(args) -> int:
    """Every workload in its own process, so each peak RSS is its own."""
    code = 0
    summary = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        code = code or proc.returncode
        if proc.returncode in (0, 1) and lines:
            summary[name] = json.loads(lines[-1])
    print(json.dumps({
        "correct": code == 0 and len(summary) == len(WORKLOAD_NAMES),
        "attempted": sum(r["attempted"] for r in summary.values()),
        "failed": sum(r["failed"] for r in summary.values()),
        "metrics": {f"{w}.{k}": v for w, r in summary.items() for k, v in r["metrics"].items()},
    }))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
