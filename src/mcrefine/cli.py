"""Command-line surface: synth / predict / encode / bd.

Configuration can come from an INI file (section [run]) with individual
flags overriding file values.  Every tunable defaults to the reference
parameterisation, so `mcrefine encode --input seq.yuv --width 352
--height 288` runs the standard setup.  `RunConfig` holds the tunables as
flat keys but defines none of their defaults or range checks: it reads
them from the library types (`EncoderConfig`, `ExtrapolationParams`,
`SearchParams`) and lets those types validate.

CSV outputs are deterministic for a fixed config and seed; wall-clock
measurements are therefore kept out of them and written to a separate
plain-text timing report.
"""

from __future__ import annotations

import argparse
import configparser
import inspect
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import codec
from .bd import BDInputError, bd_metrics
from .codec import (DEFAULT_QPS, EncoderConfig, check_frame_count,
                    frame_blocks, predict_frame)
from .extrapolate import ExtrapolationParams
from .frame import psnr
from .motion import SearchParams
from .videoio import (SYNTH_OPTIONS, SequenceSource, read_frames,
                      synth_sequence, write_frames)


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    """Everything one experiment needs, validated up front."""

    input: str | None = None
    width: int = 352
    height: int = 288
    frames: int | None = None
    algorithms: tuple = ("none", "msa")
    qps: tuple = DEFAULT_QPS
    # refinement
    mu: float = EncoderConfig.mu
    rho: float = EncoderConfig.rho
    tau: float = ExtrapolationParams.tau
    n_bf: int = ExtrapolationParams.n_bf
    gamma: float = ExtrapolationParams.gamma
    # one per engine; None takes the engine's `DEFAULT_ITERATIONS` entry
    fsa_iterations: int | None = None
    rba_iterations: int | None = None
    msa_iterations: int | None = None
    # motion
    search_range: int = SearchParams.search_range
    subpel: int = SearchParams.subpel
    block_size: int = EncoderConfig.block_size
    fps: float = EncoderConfig.fps

    def validate(self):
        if not self.algorithms:
            raise ConfigError("no algorithm selected")
        if len(set(self.algorithms)) != len(self.algorithms):
            raise ConfigError("duplicate algorithm in selection")
        try:  # counts, names, ranges and geometry: the library's checks
            if self.frames is not None:
                check_frame_count(self.frames)
            for algo in self.algorithms:
                self.encoder_config(algo)
            frame_blocks(self.width, self.height, self.block_size)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        return self

    def encoder_config(self, algorithm: str) -> EncoderConfig:
        extrapolation = None
        # an unknown name reaches `EncoderConfig`, whose message lists 'none'
        if algorithm in ExtrapolationParams.DEFAULT_ITERATIONS:
            extrapolation = ExtrapolationParams(
                algorithm=algorithm,
                iterations=getattr(self, f"{algorithm}_iterations"),
                tau=self.tau, n_bf=self.n_bf, gamma=self.gamma)
        return EncoderConfig(
            refinement=algorithm, extrapolation=extrapolation,
            search=SearchParams(search_range=self.search_range,
                                subpel=self.subpel),
            mu=self.mu, rho=self.rho, qps=tuple(self.qps),
            block_size=self.block_size, fps=self.fps)


_TUPLE_FIELDS = {"algorithms": str, "qps": int}
# Scalar fields by their annotation; `from __future__` keeps them strings.
_SCALAR_TYPES = {"int": int, "int | None": int, "float": float,
                 "str | None": str}


def _parse_tuple(text: str, conv):
    return tuple(conv(part.strip()) for part in text.split(",") if part.strip())


def load_config(path: str | None, overrides: dict) -> RunConfig:
    """INI [run] section, then explicit overrides, onto the defaults."""
    cfg = RunConfig()
    if path:
        parser = configparser.ConfigParser()
        read = parser.read(path)
        if not read:
            raise ConfigError(f"cannot read config file {path}")
        if not parser.has_section("run"):
            raise ConfigError(f"{path} has no [run] section")
        known = {f.name: f for f in fields(RunConfig)}
        for key, raw in parser.items("run"):
            if key not in known:
                raise ConfigError(f"unknown config key {key!r} in {path}")
            try:
                if key in _TUPLE_FIELDS:
                    value = _parse_tuple(raw, _TUPLE_FIELDS[key])
                else:
                    value = _SCALAR_TYPES[known[key].type](raw)
            except ValueError:
                raise ConfigError(f"{path}: cannot parse {key} = {raw!r}"
                                  ) from None
            setattr(cfg, key, value)
    for key, value in overrides.items():
        if value is None:
            continue
        if key in _TUPLE_FIELDS and isinstance(value, str):
            value = _parse_tuple(value, _TUPLE_FIELDS[key])
        setattr(cfg, key, value)
    return cfg.validate()


def _probe_sequence(cfg: RunConfig) -> tuple[SequenceSource, int]:
    """The input file and the number of frames to code from it."""
    if not cfg.input:
        raise ConfigError("no input file given (--input)")
    source = SequenceSource.probe(cfg.input, cfg.width, cfg.height)
    count = source.frame_count if cfg.frames is None \
        else min(cfg.frames, source.frame_count)
    check_frame_count(count)
    return source, count


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

_HELP = {"input": "raw planar 4:2:0 input file",
         "frames": "limit the frame count",
         "subpel": "1 = integer-pel, 2 = half-pel"}


def _common_flags(sub):
    """One flag per scalar `RunConfig` field (``block_size`` becomes
    ``--block-size``); the library types check the values, not argparse."""
    sub.add_argument("--config", help="INI file with a [run] section")
    for f in fields(RunConfig):
        if f.name not in _TUPLE_FIELDS:
            sub.add_argument("--" + f.name.replace("_", "-"), dest=f.name,
                             type=_SCALAR_TYPES[f.type], help=_HELP.get(f.name))


_CONFIG_KEYS = [f.name for f in fields(RunConfig)]


def _overrides(args) -> dict:
    return {k: v for k, v in vars(args).items() if k in _CONFIG_KEYS}


def cmd_synth(args) -> int:
    """Write a synthetic sequence.  Only the options given are passed on,
    so `synth_sequence` refuses one that the kind does not use."""
    options = {"noise_sigma": args.noise_sigma, "texture": args.texture,
               "zoom_rate": args.zoom_rate}
    if args.velocity_y is not None or args.velocity_x is not None:
        vy, vx = SYNTH_OPTIONS["translate"]["velocity"]
        options["velocity"] = (
            vy if args.velocity_y is None else args.velocity_y,
            vx if args.velocity_x is None else args.velocity_x)
    frames = synth_sequence(
        args.kind, width=args.width, height=args.height, frames=args.count,
        seed=args.seed,
        **{k: v for k, v in options.items() if v is not None})
    total = write_frames(args.out, frames)
    print(f"wrote {len(frames)} frames ({total} bytes) to {args.out}")
    return 0


def cmd_predict(args) -> int:
    """Predict every frame from its predecessor with each selected algorithm
    and report the prediction PSNR per algorithm.

    Frames are read one at a time in the outer loop and each is released
    once it has served as a reference, so memory does not grow with the
    sequence length.  Rows and summaries are still algorithm-major.
    """
    cfg = load_config(args.config, _overrides(args))
    source, count = _probe_sequence(cfg)
    configs = {algo: cfg.encoder_config(algo) for algo in cfg.algorithms}
    rows = {algo: [] for algo in cfg.algorithms}
    reference = read_frames(source, range(0, 1))[0]
    for t in range(1, count):
        current = read_frames(source, range(t, t + 1))[0]
        for algo, econf in configs.items():
            fp = predict_frame(current.y, reference.y, econf)
            refined = float(np.mean([d.refined for d in fp.decisions]))
            rows[algo].append((t, psnr(current.y.data, fp.mc_predictor),
                               psnr(current.y.data, fp.predictor), refined,
                               fp.side_bits))
        reference = current
    for algo, algo_rows in rows.items():
        _, mc, pred, _, _ = zip(*algo_rows)
        print(f"{algo:5s}  prediction PSNR {np.mean(pred):7.3f} dB  "
              f"(pure MC {np.mean(mc):7.3f} dB, luma)")
    if args.out_csv:
        header = "algorithm,frame,psnr_mc_db,psnr_pred_db,refined_fraction,side_bits"
        lines = [header] + [
            f"{a},{t},{m:.6f},{p:.6f},{r:.6f},{b}"
            for a, algo_rows in rows.items() for t, m, p, r, b in algo_rows]
        Path(args.out_csv).write_text("\n".join(lines) + "\n")
        print(f"wrote {args.out_csv}")
    return 0


def _write_rd_csv(path, results):
    lines = ["algorithm,qp,qstep,rate_kbps,psnr_db,refined_fraction"]
    for algo, curve in results:
        for p in curve.points:
            lines.append(f"{algo},{p.qp:g},{p.qstep:.6f},{p.rate_kbps:.6f},"
                         f"{p.psnr_db:.6f},{p.refined_fraction:.6f}")
    Path(path).write_text("\n".join(lines) + "\n")


def cmd_encode(args) -> int:
    """Encode every selected algorithm over the quantizer ladder, write the
    RD table, and summarise each refinement against the MC-only anchor.

    RD CSV rows depend only on config and input (byte-reproducible);
    wall-clock numbers go to the separate timing report.
    """
    cfg = load_config(args.config, _overrides(args))
    source, count = _probe_sequence(cfg)
    frames = read_frames(source, range(0, count))
    curves, timing_rows = [], []
    for algo in cfg.algorithms:
        curve, per_qp = codec.encode_sequence(frames, cfg.encoder_config(algo))
        curves.append((algo, curve))
        refine_ms = [1000.0 * fs.refine_seconds
                     for _, frame_stats in per_qp for fs in frame_stats]
        timing_rows.append((algo, float(np.mean(refine_ms)),
                            float(np.sum(refine_ms)) / 1000.0))
    if args.out_csv:
        _write_rd_csv(args.out_csv, curves)

    lines = []
    anchor = dict(curves).get("none")
    if anchor is not None:
        for algo, curve in curves:
            if algo == "none":
                continue
            try:
                res = bd_metrics(anchor, curve)
                lines.append(f"{algo:5s} vs none:  BD-rate "
                             f"{res.bd_rate_percent:+7.3f} %   BD-PSNR "
                             f"{res.bd_psnr_db:+7.4f} dB")
            except BDInputError as exc:
                lines.append(f"{algo:5s} vs none:  BD unavailable ({exc})")
    if lines:
        summary = ("Bjontegaard means over the quantizer ladder "
                   "(proxy rates, luma PSNR):\n" + "\n".join(lines) + "\n")
    else:
        missing = ("'none' anchor to compare against" if anchor is None
                   else "refinement to compare with the 'none' anchor")
        summary = ("no Bjontegaard means computed: the selection has no "
                   f"{missing}\n")
    if args.summary:
        Path(args.summary).write_text(summary)
    if args.timing:
        text = ["mean refinement time per frame (wall clock, excluded from CSVs)"]
        for algo, per_frame_ms, total_s in timing_rows:
            text.append(f"{algo:5s}  {per_frame_ms:9.3f} ms/frame   "
                        f"total {total_s:8.3f} s")
        Path(args.timing).write_text("\n".join(text) + "\n")

    for algo, curve in curves:
        print(f"-- {algo}")
        for p in curve.points:
            print(f"  qp {p.qp:4.0f}  {p.rate_kbps:10.2f} kbit/s (proxy)  "
                  f"{p.psnr_db:6.2f} dB  refined {100 * p.refined_fraction:5.1f}%")
    print(summary, end="")
    return 0


def _read_curve_csv(path, algorithm=None):
    rows = Path(path).read_text().strip().splitlines()
    if not rows:
        raise ConfigError(f"{path}: empty file, no header row")
    head = rows[0].split(",")
    try:
        ridx, pidx = head.index("rate_kbps"), head.index("psnr_db")
    except ValueError as exc:
        raise ConfigError(f"{path}: missing column: {exc}") from None
    aidx = head.index("algorithm") if "algorithm" in head else None
    if algorithm and aidx is None:
        raise ConfigError(f"{path}: no algorithm column to select "
                          f"{algorithm!r} from")
    rates, psnrs = [], []
    for line, row in enumerate(rows[1:], start=2):
        parts = row.split(",")
        if len(parts) < len(head):
            raise ConfigError(f"{path}: line {line} has {len(parts)} "
                              f"fields, the header {len(head)}")
        if algorithm and parts[aidx] != algorithm:
            continue
        try:
            rate, quality = float(parts[ridx]), float(parts[pidx])
        except ValueError:
            raise ConfigError(
                f"{path}: line {line}: rate_kbps {parts[ridx]!r} and psnr_db "
                f"{parts[pidx]!r} must both be numbers") from None
        rates.append(rate)
        psnrs.append(quality)
    if not rates:
        raise ConfigError(f"{path}: no usable rows"
                          + (f" for algorithm {algorithm}" if algorithm else ""))
    return np.array(rates), np.array(psnrs)


def cmd_bd(args) -> int:
    anchor = _read_curve_csv(args.anchor, args.anchor_algorithm)
    test = _read_curve_csv(args.test, args.test_algorithm)
    try:
        result = bd_metrics(anchor, test)
    except BDInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"BD-rate {result.bd_rate_percent:+.3f} %   "
          f"BD-PSNR {result.bd_psnr_db:+.4f} dB")
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="mcrefine",
        description="Spatial refinement of motion-compensated prediction "
                    "by sparse frequency-selective extrapolation.")
    sub = ap.add_subparsers(dest="command", required=True)

    # Defaults come from `synth_sequence` and `SYNTH_OPTIONS`; the function
    # also rejects unknown kinds and textures, options the kind does not
    # use, and unreadable frame dimensions.
    synth = {k: p.default for k, p in
             inspect.signature(synth_sequence).parameters.items()}
    translate, zoom = SYNTH_OPTIONS["translate"], SYNTH_OPTIONS["zoom-texture"]
    sp = sub.add_parser("synth", help="generate a deterministic test sequence")
    sp.add_argument("--kind", default="translate")
    sp.add_argument("--width", type=int, default=synth["width"])
    sp.add_argument("--height", type=int, default=synth["height"])
    sp.add_argument("--count", type=int, default=synth["frames"],
                    help="number of frames")
    sp.add_argument("--seed", type=int, default=synth["seed"])
    sp.add_argument("--velocity-y", type=float, help=f"translate only "
                    f"(default {translate['velocity'][0]})")
    sp.add_argument("--velocity-x", type=float, help=f"translate only "
                    f"(default {translate['velocity'][1]})")
    sp.add_argument("--noise-sigma", type=float, help=f"translate only "
                    f"(default {translate['noise_sigma']})")
    sp.add_argument("--texture", help=f"translate only: waves or field "
                    f"(default {translate['texture']})")
    sp.add_argument("--zoom-rate", type=float, help=f"zoom-texture only "
                    f"(default {zoom['zoom_rate']})")
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_synth)

    pp = sub.add_parser("predict",
                        help="open-loop prediction quality per algorithm")
    _common_flags(pp)
    pp.add_argument("--algorithms", help="comma list, e.g. none,fsa,rba,msa")
    pp.add_argument("--out-csv", dest="out_csv")
    pp.set_defaults(func=cmd_predict)

    ep = sub.add_parser("encode", help="closed-loop RD run over the ladder")
    _common_flags(ep)
    ep.add_argument("--algorithms", help="comma list, default none,msa")
    ep.add_argument("--qps", help="comma list of QP values")
    ep.add_argument("--out-csv", dest="out_csv", help="RD table destination")
    ep.add_argument("--timing", help="wall-clock report destination")
    ep.add_argument("--summary", help="BD summary destination")
    ep.set_defaults(func=cmd_encode)

    bp = sub.add_parser("bd", help="Bjontegaard metrics from two RD CSVs")
    bp.add_argument("--anchor", required=True)
    bp.add_argument("--test", required=True)
    bp.add_argument("--anchor-algorithm", dest="anchor_algorithm")
    bp.add_argument("--test-algorithm", dest="test_algorithm")
    bp.set_defaults(func=cmd_bd)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
