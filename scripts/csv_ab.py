#!/usr/bin/env python3
"""Byte comparison of the CSVs that two source trees write.

    python3 scripts/csv_ab.py TREE_A TREE_B

TREE_A and TREE_B are checkouts of this repository.  For every case below
each tree writes the case's synthetic sequence (`mcrefine synth`), predicts
it open loop (`mcrefine predict`) and encodes it over the quantizer ladder
(`mcrefine encode`), every command in a fresh process that imports the
tree's own ``src``.  The script then prints, file by file, whether the two
trees wrote the same bytes: the sequence, the prediction CSV, the RD CSV
and the Bjontegaard summary (the timing report holds wall-clock times and
is not compared).  It exits 0 only when every file matches.

The cases are small translate/waves sequences (sigma 8) that together
reach block sizes 8, 16 and 64, every neighbour-availability class, and a
frame one block wide, whose blocks below the first have only a top
neighbour; every case refines blocks in both commands.  BLAS is pinned to
one thread.  Uses the standard library only.
"""

import os
import subprocess
import sys
import tempfile
from pathlib import Path

# name: (width, height, frames, block size, algorithms)
CASES = {
    "block8": (48, 32, 3, 8, "none,fsa,rba,msa"),
    "block16": (64, 48, 3, 16, "none,fsa,rba,msa"),
    "block64": (128, 128, 3, 64, "none,msa"),
    "one_block_wide": (16, 64, 3, 16, "none,rba,msa"),
}
OUTPUTS = ("in.yuv", "predict.csv", "rd.csv", "summary.txt")


def run_case(tree: Path, out: Path, case: tuple) -> None:
    """Write one case's outputs into ``out`` with ``tree``'s package."""
    width, height, frames, block, algorithms = case
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    out.mkdir(parents=True)
    seq = str(out / "in.yuv")
    common = ["--input", seq, "--width", str(width), "--height", str(height),
              "--frames", str(frames), "--block-size", str(block),
              "--algorithms", algorithms]
    for args in (["synth", "--kind", "translate", "--texture", "waves",
                  "--noise-sigma", "8", "--width", str(width),
                  "--height", str(height), "--count", str(frames),
                  "--seed", "3", "--out", seq],
                 ["predict", *common, "--out-csv", str(out / "predict.csv")],
                 ["encode", *common, "--out-csv", str(out / "rd.csv"),
                  "--summary", str(out / "summary.txt"),
                  "--timing", str(out / "timing.txt")]):
        subprocess.run([sys.executable, "-m", "mcrefine", *args], env=env,
                       check=True, stdout=subprocess.DEVNULL)


def main(argv: list) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    trees = [Path(arg).resolve() for arg in argv]
    same = True
    with tempfile.TemporaryDirectory() as tmp:
        for name, case in CASES.items():
            dirs = [Path(tmp) / side / name for side in ("a", "b")]
            for tree, out in zip(trees, dirs):
                run_case(tree, out, case)
            for output in OUTPUTS:
                a, b = ((d / output).read_bytes() for d in dirs)
                verdict = "identical" if a == b else "DIFFERENT"
                same &= a == b
                print(f"{name:15s} {output:12s} {verdict} ({len(a)} and "
                      f"{len(b)} bytes)")
    print("every file identical" if same else "files differ")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
