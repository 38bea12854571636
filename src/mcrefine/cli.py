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
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import codec
from .bd import BDInputError, bd_metrics
from .codec import (DEFAULT_QPS, EncoderConfig, check_frame_count,
                    frame_blocks, predict_frame)
from .extrapolate import ExtrapolationParams
from .frame import psnr
from .motion import SearchParams
from .videoio import (SequenceSource, read_frames, synth_sequence,
                      write_frames)


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
    fsa_iterations: int = ExtrapolationParams.DEFAULT_ITERATIONS["fsa"]
    rba_iterations: int = ExtrapolationParams.DEFAULT_ITERATIONS["rba"]
    msa_iterations: int = ExtrapolationParams.DEFAULT_ITERATIONS["msa"]
    # motion
    search_range: int = SearchParams.search_range
    subpel: int = SearchParams.subpel
    block_size: int = EncoderConfig.block_size
    fps: float = EncoderConfig.fps

    def validate(self):
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
        if algorithm != "none":
            iterations = {"fsa": self.fsa_iterations,
                          "rba": self.rba_iterations,
                          "msa": self.msa_iterations}.get(algorithm)
            extrapolation = ExtrapolationParams(
                algorithm=algorithm, iterations=iterations, tau=self.tau,
                n_bf=self.n_bf, gamma=self.gamma)
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
            if key in _TUPLE_FIELDS:
                value = _parse_tuple(raw, _TUPLE_FIELDS[key])
            else:
                value = _SCALAR_TYPES[known[key].type](raw)
            setattr(cfg, key, value)
    for key, value in overrides.items():
        if value is None:
            continue
        if key in _TUPLE_FIELDS and isinstance(value, str):
            value = _parse_tuple(value, _TUPLE_FIELDS[key])
        setattr(cfg, key, value)
    return cfg.validate()


def _load_sequence(cfg: RunConfig):
    if not cfg.input:
        raise ConfigError("no input file given (--input)")
    source = SequenceSource.probe(cfg.input, cfg.width, cfg.height)
    count = source.frame_count if cfg.frames is None \
        else min(cfg.frames, source.frame_count)
    check_frame_count(count)
    return read_frames(source, range(0, count))


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
    frames = synth_sequence(
        args.kind, width=args.width or 352, height=args.height or 288,
        frames=args.count, seed=args.seed,
        velocity=(args.velocity_y, args.velocity_x),
        noise_sigma=args.noise_sigma, texture=args.texture,
        zoom_rate=args.zoom_rate)
    total = write_frames(args.out, frames)
    print(f"wrote {len(frames)} frames ({total} bytes) to {args.out}")
    return 0


def cmd_predict(args) -> int:
    cfg = load_config(args.config, _overrides(args))
    frames = _load_sequence(cfg)
    rows = []
    for algo in cfg.algorithms:
        econf = cfg.encoder_config(algo)
        mean_pred, mean_mc = [], []
        for t in range(1, len(frames)):
            fp = predict_frame(frames[t].y, frames[t - 1].y, econf)
            pred_psnr = psnr(frames[t].y.data, fp.predictor)
            mc_psnr = psnr(frames[t].y.data, fp.mc_predictor)
            refined = float(np.mean([d.refined for d in fp.decisions]))
            rows.append((algo, t, mc_psnr, pred_psnr, refined, fp.side_bits))
            mean_pred.append(pred_psnr)
            mean_mc.append(mc_psnr)
        print(f"{algo:5s}  prediction PSNR {np.mean(mean_pred):7.3f} dB  "
              f"(pure MC {np.mean(mean_mc):7.3f} dB, luma)")
    if args.out_csv:
        header = "algorithm,frame,psnr_mc_db,psnr_pred_db,refined_fraction,side_bits"
        lines = [header] + [
            f"{a},{t},{m:.6f},{p:.6f},{r:.6f},{b}" for a, t, m, p, r, b in rows]
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
    cfg = load_config(args.config, _overrides(args))
    frames = _load_sequence(cfg)
    result = run_experiment(cfg, frames=frames, rd_csv=args.out_csv,
                            timing_path=args.timing, summary_path=args.summary)
    for algo, curve in result.curves:
        print(f"-- {algo}")
        for p in curve.points:
            print(f"  qp {p.qp:4.0f}  {p.rate_kbps:10.2f} kbit/s (proxy)  "
                  f"{p.psnr_db:6.2f} dB  refined {100 * p.refined_fraction:5.1f}%")
    if result.summary_text:
        print(result.summary_text, end="")
    return 0


def _read_curve_csv(path, algorithm=None):
    rows = Path(path).read_text().strip().splitlines()
    head = rows[0].split(",")
    try:
        ridx, pidx = head.index("rate_kbps"), head.index("psnr_db")
        aidx = head.index("algorithm") if "algorithm" in head else None
    except ValueError as exc:
        raise ConfigError(f"{path}: missing column: {exc}") from None
    rates, psnrs = [], []
    for row in rows[1:]:
        parts = row.split(",")
        if aidx is not None and algorithm and parts[aidx] != algorithm:
            continue
        rates.append(float(parts[ridx]))
        psnrs.append(float(parts[pidx]))
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
# Experiment driver (library entry point used by `encode` and scripts)
# ---------------------------------------------------------------------------

@dataclass
class ExperimentResult:
    curves: list
    stats: dict
    summary_text: str
    bd_table: dict = field(default_factory=dict)


def run_experiment(cfg: RunConfig, *, frames=None, rd_csv=None,
                   timing_path=None, summary_path=None) -> ExperimentResult:
    """Encode every selected algorithm over the quantizer ladder, write the
    RD table, and summarise each refinement against the MC-only anchor.

    rd CSV rows depend only on config and input (byte-reproducible);
    wall-clock numbers go to the separate timing report.
    """
    if frames is None:
        frames = _load_sequence(cfg)
    curves, stats, timing_rows = [], {}, []
    for algo in cfg.algorithms:
        econf = cfg.encoder_config(algo)
        curve, per_qp, _ = codec.encode_sequence(frames, econf)
        curves.append((algo, curve))
        stats[algo] = per_qp
        refine_ms = [1000.0 * fs.refine_seconds
                     for _, frame_stats in per_qp for fs in frame_stats]
        timing_rows.append((algo, float(np.mean(refine_ms)),
                            float(np.sum(refine_ms)) / 1000.0))
    if rd_csv:
        _write_rd_csv(rd_csv, curves)

    bd_table = {}
    lines = []
    anchors = dict(curves)
    if "none" in anchors:
        anchor = anchors["none"]
        for algo, curve in curves:
            if algo == "none":
                continue
            try:
                res = bd_metrics(anchor, curve)
                bd_table[algo] = res
                lines.append(f"{algo:5s} vs none:  BD-rate "
                             f"{res.bd_rate_percent:+7.3f} %   BD-PSNR "
                             f"{res.bd_psnr_db:+7.4f} dB")
            except BDInputError as exc:
                lines.append(f"{algo:5s} vs none:  BD unavailable ({exc})")
    summary = ""
    if lines:
        summary = ("Bjontegaard means over the quantizer ladder "
                   "(proxy rates, luma PSNR):\n" + "\n".join(lines) + "\n")
    if summary_path and summary:
        Path(summary_path).write_text(summary)
    if timing_path:
        text = ["mean refinement time per frame (wall clock, excluded from CSVs)"]
        for algo, per_frame_ms, total_s in timing_rows:
            text.append(f"{algo:5s}  {per_frame_ms:9.3f} ms/frame   "
                        f"total {total_s:8.3f} s")
        Path(timing_path).write_text("\n".join(text) + "\n")
    return ExperimentResult(curves=curves, stats=stats, summary_text=summary,
                            bd_table=bd_table)


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="mcrefine",
        description="Spatial refinement of motion-compensated prediction "
                    "by sparse frequency-selective extrapolation.")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("synth", help="generate a deterministic test sequence")
    sp.add_argument("--kind", choices=("translate", "zoom-texture", "noise"),
                    default="translate")
    sp.add_argument("--width", type=int, default=352)
    sp.add_argument("--height", type=int, default=288)
    sp.add_argument("--count", type=int, default=30, help="number of frames")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--velocity-y", type=float, default=0.8)
    sp.add_argument("--velocity-x", type=float, default=0.3)
    sp.add_argument("--noise-sigma", type=float, default=0.0)
    sp.add_argument("--texture", choices=("waves", "field"), default="waves")
    sp.add_argument("--zoom-rate", type=float, default=0.005)
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
