#!/usr/bin/env python3
"""Benchmark entry point: run one workload and print its metrics as JSON.

    python3 perfbench/run.py --workload open_cif --seed 1 --seconds 28 --trace 0

Run from the repository root; the package is imported from ``src/``.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records the
environment.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1``
the per-layer metrics of a traced run.  The exit code is 0 only when every
output checked out.

BLAS and OpenMP are pinned to one thread before numpy loads and the
process is bound to one CPU, so every workload runs single-threaded in its
own process.
"""

import time

_T0 = time.perf_counter()   # set-up time counts from here

import argparse  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
# The keys of workloads.WORKLOADS, which can only be imported after the pins.
WORKLOADS = ("open_cif", "closed_qcif", "engine_mix")
PINS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=28)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="only set up, then print the reference seconds "
                         "it took")
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (SRC / "mcrefine" / "__init__.py").is_file():
        print(f"run.py: no package source at {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2

    os.environ.update(PINS)
    if hasattr(os, "sched_setaffinity"):   # one core: no migrations mid-run
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(SRC))
    import bench  # numpy loads here, after the thread pins

    if args.setup_probe:
        print(bench.timed_setup(args.workload, _T0))
        return 0
    return bench.main(args.workload, args.seed, args.seconds, args.trace,
                      started=_T0, probe_cmd=[sys.executable, str(HERE / "run.py")])


if __name__ == "__main__":
    sys.exit(main())
