#!/usr/bin/env python3
"""End-to-end demo: synthesize a noisy translating sequence, compare pure-MC
against refined prediction open loop, then run the closed-loop quantizer
ladder and report Bjontegaard deltas.

Writes into --outdir: in.yuv, predict.csv, rd.csv, timing.txt, summary.txt.
"""

import argparse
import sys
from pathlib import Path

from mcrefine import cli


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--outdir", default="demo_out")
    ap.add_argument("--width", type=int, default=352)
    ap.add_argument("--height", type=int, default=288)
    ap.add_argument("--frames", type=int, default=30)
    ap.add_argument("--noise-sigma", type=float, default=8.0)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--algorithms", default="none,fsa,rba,msa")
    ap.add_argument("--qps", default="16,19,22,25,28,31,34,37,40")
    ap.add_argument("--input", help="use an existing raw 4:2:0 file instead "
                                    "of synthesizing one")
    args = ap.parse_args(argv)

    out = Path(args.outdir)
    out.mkdir(parents=True, exist_ok=True)
    seq = args.input or str(out / "in.yuv")

    if not args.input:
        rc = cli.main(["synth", "--width", str(args.width),
                       "--height", str(args.height),
                       "--count", str(args.frames),
                       "--noise-sigma", str(args.noise_sigma),
                       "--seed", str(args.seed), "--out", seq])
        if rc:
            return rc

    common = ["--input", seq, "--width", str(args.width),
              "--height", str(args.height), "--frames", str(args.frames),
              "--algorithms", args.algorithms]

    print("== open-loop prediction quality ==")
    rc = cli.main(["predict", *common, "--out-csv", str(out / "predict.csv")])
    if rc:
        return rc

    print("== closed-loop rate-distortion ladder ==")
    return cli.main(["encode", *common, "--qps", args.qps,
                     "--out-csv", str(out / "rd.csv"),
                     "--timing", str(out / "timing.txt"),
                     "--summary", str(out / "summary.txt")])


if __name__ == "__main__":
    sys.exit(main())
