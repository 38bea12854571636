#!/usr/bin/env python3
"""Memory of two source trees: a block-64 encode peak and held-frame growth.

    python3 scripts/mem_probe.py TREE_A TREE_B

TREE_A and TREE_B are checkouts of this repository.  For each tree, each
figure comes from a fresh Python process that imports the tree's own
``src/mcrefine``, with BLAS pinned to one thread:

- ``encode_peak_mb``: the peak RSS (``ru_maxrss``) of a process that runs
  ``mcrefine encode --block-size 64 --algorithms msa --qps 28`` on a
  192x192 3-frame translate synth.  The synth is written by a process of
  its own, so it does not count.
- ``held_growth_mb``: how much the resident set (``VmRSS``) grows while
  20 held CIF (352x288) frames are each used once as a reference: 21
  translate frames are held in a list, and each of frames 1 to 20 is
  predicted open loop (`predict_frame`, msa at its defaults) from the one
  before it.  One prediction of frame 1 before the first reading builds
  what the library sets up once (imports, basis, weightings), so the
  growth is what the held frames cost.

Both figures are in MB (2**20 bytes); each tree's lines are printed as
``TREE figure value``.  Linux only: the growth is read from
``/proc/self/statm``.
"""

import os
import subprocess
import sys
import tempfile
from pathlib import Path

ENCODE = """
import resource, sys
from mcrefine import cli
if cli.main(sys.argv[1:]) != 0:
    raise SystemExit("encode failed")
print("peak", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
"""

HELD = """
import os
from mcrefine.codec import EncoderConfig, predict_frame
from mcrefine.videoio import synth_sequence

def rss_mb():
    with open("/proc/self/statm") as statm:
        pages = int(statm.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2 ** 20

planes = [f.y for f in synth_sequence("translate", width=352, height=288,
                                      frames=21)]
config = EncoderConfig()
predict_frame(planes[1], planes[0], config)
before = rss_mb()
for reference, current in zip(planes, planes[1:]):
    predict_frame(current, reference, config)
print("growth", rss_mb() - before)
"""


def run(tree: Path, args: list) -> str:
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                 "MKL_NUM_THREADS"):
        env[name] = "1"
    done = subprocess.run([sys.executable, *args], env=env, check=True,
                          capture_output=True, text=True)
    return done.stdout.split()[-1]


def probe(tree: Path, scratch: Path) -> dict:
    sequence = scratch / f"{tree.name}-192.yuv"
    run(tree, ["-m", "mcrefine", "synth", "--width", "192", "--height",
               "192", "--count", "3", "--out", str(sequence)])
    peak = run(tree, ["-c", ENCODE, "encode", "--input", str(sequence),
                      "--width", "192", "--height", "192", "--block-size",
                      "64", "--algorithms", "msa", "--qps", "28",
                      "--out-csv", str(scratch / f"{tree.name}-rd.csv")])
    growth = run(tree, ["-c", HELD])
    return {"encode_peak_mb": float(peak), "held_growth_mb": float(growth)}


def main(argv: list) -> int:
    if len(argv) != 3:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    trees = [Path(arg).resolve() for arg in argv[1:]]
    for tree in trees:
        if not (tree / "src" / "mcrefine" / "__init__.py").is_file():
            print(f"no package source under {tree}", file=sys.stderr)
            return 2
    with tempfile.TemporaryDirectory() as scratch:
        for tree in trees:
            for name, value in probe(tree, Path(scratch)).items():
                print(f"{tree} {name} {value:.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
