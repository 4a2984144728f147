"""pimub benchmark: one workload, one seed, one run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload study_n6 --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing installed;
``--trace 1`` installs the span tracer and reports the per-layer metrics and
the tracing overhead instead.  Every metric is printed by name with its unit,
followed by the run's provenance; the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  The full
result (and, when traced, the spans) is also written under
``.perfbench-out/`` in the checkout.  See perfbench/README.md for the
workloads and what each layer metric is expected to move.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
WORK = ROOT / ".perfbench-work"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--n", type=int, help="override the workload's n (smoke tests)")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "pimub").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip()


def blas_info(np) -> dict:
    info = {"name": None, "version": None, "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=blas.get("name"), version=blas.get("version"))
    except (TypeError, KeyError):
        pass
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libs / "*openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                info["threads"] = getter()
                return info
    return info


def provenance(np, args, config: dict) -> dict:
    return {
        "git_commit": git_commit(),
        "source_sha256_16": source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(np),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "n": config["n"],
        "shots": config["shots"],
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "pimub" / "__init__.py").is_file():
        print(f"perfbench: no pimub sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]

    import numpy as np
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    config = dict(workloads.WORKLOADS[args.workload])
    if args.n is not None:
        config["n"] = args.n

    work = WORK / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    run = workloads.Run(kind=config["kind"], n=config["n"], shots=config["shots"],
                        seed=args.seed, seconds=args.seconds, trace=bool(args.trace), work=work)
    try:
        metrics = workloads.execute(run)
    except workloads.NoneCompleted as exc:
        print("perfbench: no operation completed:", *exc.args[0], sep="\n  ", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only when no other run is using it

    units = workloads.PER_LAYER_UNITS if args.trace else workloads.END_TO_END_UNITS
    failed = len(run.failed_ops)
    for problem in run.problems:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)

    result = {
        "provenance": {**provenance(np, args, config), "operations": run.operations},
        "attempted": run.attempted,
        "failed": failed,
        "error_rate": failed / run.attempted,
        "problems": run.problems,
        "samples": run.samples,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    Path(f"{stem}.json").write_text(json.dumps(result, indent=2) + "\n")
    if args.trace:
        Path(f"{stem}.spans.json").write_text(json.dumps(run.tracer.spans))

    print(f"workload {args.workload}  n={config['n']}  shots={config['shots']}  "
          f"operations={run.operations}")
    for name, entry in result["metrics"].items():
        print(f"  {name:34s} {entry['value']:.6g} {entry['unit']}")
    print(f"  {'error_rate':34s} {result['error_rate']:.6g} 1  ({failed}/{run.attempted})")
    print("provenance", json.dumps(result["provenance"], sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: entry for name, entry in result["metrics"].items()
                    if name not in workloads.PRINTED_ONLY},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
