"""The benchmark's workloads: seeded inputs, work units, checks and figures.

Each workload turns its seed into inputs and a fixed list of work units.
The runner repeats the units for the measured time; a unit's first output
supplies the deterministic quality figures, and every repeat must reproduce
it exactly.  `verify` checks one output and returns how many of the unit's
operations (blocks or windows) failed, plus a fingerprint of the output.

Why these three workloads (see README.md for the per-layer predictions):

open_cif     the paper's headline experiment: open-loop msa prediction of
             CIF frames.  Blocks are independent; motion search and the
             engine share the time.
closed_qcif  the closed IPPP loop over a QP ladder (none and msa) with
             decoder replay: the only workload with line-scan dependencies,
             transform coding, chroma MC and replay.
engine_mix   fsa, rba and msa on the same working areas: the engine alone,
             used three ways, with no motion search or transform work.
"""

from __future__ import annotations

import hashlib
import statistics
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from mcrefine import codec, extrapolate, motion
from mcrefine.basis import projection_context
from mcrefine.bd import bd_metrics
from mcrefine.codec import (EncoderConfig, RDCurve, assemble_window,
                            encode_pass, predict_frame, replay_trace)
from mcrefine.extrapolate import ExtrapolationParams
from mcrefine.frame import BlockRef, Plane, build_layout, psnr
from mcrefine.videoio import synth_sequence

from spans import energy_ratio

BLOCK = 16
ENGINES = ("fsa", "rba", "msa")
CLASSES = ("left_only", "no_left", "no_top_right", "full")
LADDER = (22, 28, 34, 40)   # four QPs: the fewest a BD fit accepts
TINY = (64, 48)             # 4x3 blocks: every availability class occurs
CHUNKS = 7                  # engine_mix units per engine


@dataclass
class Unit:
    key: str                # repeats of one key must give identical output
    group: str              # the runner gives every group an equal time share
    phase: str              # trace phase; "" is the workload's main phase
    ops: int                # blocks or windows the unit processes
    call: Callable[[], object]
    verify: Callable[[object], tuple[int, bytes]]


def availability_class(frame: Plane, bx: int, by: int) -> str | None:
    """Neighbour-availability class of a block; None when it has none."""
    left, _, top, top_right = build_layout(
        frame, BlockRef(bx * BLOCK, by * BLOCK, BLOCK)).availability
    if not left:
        return "no_left" if top else None
    if not top:
        return "left_only"
    return "full" if top_right else "no_top_right"


def _fingerprint(*parts) -> bytes:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(repr(part).encode())
    return h.digest()


def _block_sse(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-block sum of squared differences, shape (blocks_y, blocks_x)."""
    d = np.asarray(a, np.float64) - b
    h, w = d.shape
    return (d * d).reshape(h // BLOCK, BLOCK, w // BLOCK, BLOCK).sum(axis=(1, 3))


def _sequence(seed: int, size: tuple, frames: int, texture: str) -> list:
    w, h = size
    return synth_sequence("translate", width=w, height=h, frames=frames,
                          seed=seed, velocity=(0.8, 0.3), noise_sigma=8.0,
                          texture=texture)


def _switch_figures(attempts: dict, useful: dict) -> dict:
    total = sum(attempts.values())
    out = {"codec.switch.attempts": total,
           "codec.switch.refined_frac":
               sum(useful.values()) / total if total else 0.0}
    for c in CLASSES:
        out[f"codec.switch.refined_frac.{c}"] = \
            useful[c] / attempts[c] if attempts[c] else 0.0
    return out


class OpenCif:
    """Open-loop msa prediction of CIF frames (translate/waves, sigma 8)."""

    def __init__(self, seed: int, tiny: bool = False):
        size, count = (TINY, 3) if tiny else ((352, 288), 5)
        self.frames = _sequence(seed, size, count, "waves")
        self.config = EncoderConfig(refinement="msa")
        blocks = (size[0] // BLOCK) * (size[1] // BLOCK)
        self.units = [Unit(f"frame{t}", "predict", "", blocks,
                           partial(self._predict, t), partial(self._verify, t))
                      for t in range(1, count)]

    def _predict(self, t: int):
        return predict_frame(self.frames[t].y, self.frames[t - 1].y,
                             self.config, jobs=1)

    def _verify(self, t: int, out) -> tuple[int, bytes]:
        """A block fails if non-finite or worse than its MC predictor."""
        cur = self.frames[t].y.data
        sse_pred = _block_sse(cur, out.predictor).ravel()
        sse_mc = _block_sse(cur, out.mc_predictor).ravel()
        bad = ~np.isfinite(sse_pred) | ~(sse_pred <= sse_mc)
        for i, d in enumerate(out.decisions):
            if d.refined and not d.refined_mse < d.mc_mse:
                bad[i] = True
        decisions = [(d.mv, d.refined) for d in out.decisions]
        return int(bad.sum()), _fingerprint(out.predictor, out.mc_predictor,
                                            decisions)

    def figures(self, first: dict, times: dict) -> dict:
        sse_pred = sse_mc = 0.0
        gains = []
        attempts = dict.fromkeys(CLASSES, 0)
        useful = dict.fromkeys(CLASSES, 0)
        for t in range(1, len(self.frames)):
            out = first[f"frame{t}"]
            cur = self.frames[t].y.data
            sse_pred += _block_sse(cur, out.predictor).sum()
            sse_mc += _block_sse(cur, out.mc_predictor).sum()
            gains.append(psnr(cur, out.predictor) - psnr(cur, out.mc_predictor))
            for d in out.decisions:
                c = availability_class(self.frames[t].y, d.bx, d.by)
                if c is not None:
                    attempts[c] += 1
                    useful[c] += d.refined
        frame_s = statistics.mean(statistics.median(times[k]) for k in times)
        return {"ops_per_ref_s": 1.0 / frame_s,
                "cost_ratio": sse_pred / sse_mc,
                "open.frames_per_s": 1.0 / frame_s,
                "open.psnr_gain_db": float(np.mean(gains)),
                **_switch_figures(attempts, useful)}


class ClosedQcif:
    """Closed IPPP loop on QCIF translate/field (sigma 8): none and msa over
    a four-QP ladder, and decoder replay of every msa pass."""

    def __init__(self, seed: int, tiny: bool = False):
        size = TINY if tiny else (176, 144)
        self.frames = _sequence(seed, size, 3, "field")
        self.configs = {alg: EncoderConfig(refinement=alg, qps=LADDER)
                        for alg in ("none", "msa")}
        self.nx = size[0] // BLOCK
        self.blocks = self.nx * (size[1] // BLOCK)
        self.p_frames = len(self.frames) - 1
        ops = self.blocks * self.p_frames
        self.latest = {}
        self.units = []
        for qp, qstep in zip(LADDER, self.configs["msa"].qsteps):
            for alg in ("none", "msa"):
                self.units.append(Unit(
                    f"{alg}.qp{qp}", "ladder", "", ops,
                    partial(self._encode, alg, qp, qstep), self._verify_pass))
            self.units.append(Unit(
                f"replay.qp{qp}", "ladder", "replay", ops,
                partial(self._replay, qp), partial(self._verify_replay, qp)))

    def _encode(self, alg: str, qp: int, qstep: float):
        sink = []
        point, stats, trace = encode_pass(
            self.frames, self.configs[alg], qstep, qp, collect_trace=True,
            predictor_sink=sink)
        out = (point, stats, trace, sink)
        self.latest[f"{alg}.qp{qp}"] = out
        return out

    def _replay(self, qp: int):
        return replay_trace(self.latest[f"msa.qp{qp}"][2], self.configs["msa"])

    def _verify_pass(self, out) -> tuple[int, bytes]:
        point, stats, trace, sink = out
        failed = sum(int((~np.isfinite(_block_sse(pred, 0.0))).sum())
                     for pred in sink)
        if not np.isfinite([point.rate_kbps, point.psnr_db]).all():
            failed = self.blocks * self.p_frames
        levels = [bt.levels for blocks in trace.frames for bt in blocks]
        flags = [(bt.mv, bt.refined) for blocks in trace.frames for bt in blocks]
        return failed, _fingerprint(point, *sink, *levels, flags)

    def _intra_recon(self, trace) -> Plane:
        """The decoder's intra frame, rebuilt from the coded levels."""
        w, h = trace.dims
        flat = np.full((BLOCK, BLOCK), 128.0)
        rec = np.empty((h, w), np.uint8)
        for i, levels in enumerate(trace.intra_levels):
            by, bx = divmod(i, self.nx)
            rec[by * BLOCK:(by + 1) * BLOCK, bx * BLOCK:(bx + 1) * BLOCK] = \
                codec.decode_block(flat, levels, trace.intra_qstep)
        return Plane(rec)

    def _verify_replay(self, qp: int, out) -> tuple[int, bytes]:
        """A block fails if replay does not rebuild its predictor bit-exactly,
        or if it was coded as refined but is not better than its MC block.
        A frame whose replayed reconstruction misses the encoder's PSNR fails
        whole."""
        _, stats, trace, sink = self.latest[f"msa.qp{qp}"]
        predictors, recons = out
        if len(predictors) != len(sink):
            return self.blocks * self.p_frames, _fingerprint(*predictors)
        refs = [self._intra_recon(trace)] + recons[:-1]
        failed = 0
        for t, (dec, enc) in enumerate(zip(predictors, sink), start=1):
            if psnr(self.frames[t].y.data, recons[t - 1].data) \
                    != stats[t - 1].psnr_db:
                failed += self.blocks
                continue
            bad = _block_sse(dec, enc) != 0.0
            orig = self.frames[t].y
            for i, bt in enumerate(trace.frames[t - 1]):
                if not bt.refined:
                    continue
                by, bx = divmod(i, self.nx)
                block = BlockRef(bx * BLOCK, by * BLOCK, BLOCK)
                chosen = enc[block.y0:block.y0 + BLOCK, block.x0:block.x0 + BLOCK]
                mc = motion.compensate(refs[t - 1], block, bt.mv)
                if not _block_sse(orig.block(block), chosen).sum() \
                        < _block_sse(orig.block(block), mc).sum():
                    bad[by, bx] = True
            failed += int(bad.sum())
        return failed, _fingerprint(*predictors, *[r.data for r in recons])

    def figures(self, first: dict, times: dict) -> dict:
        curves = {alg: RDCurve(alg, tuple(sorted(
                      (first[f"{alg}.qp{qp}"][0] for qp in LADDER),
                      key=lambda p: p.rate_kbps)))
                  for alg in ("none", "msa")}
        bd = bd_metrics(curves["none"], curves["msa"]).bd_rate_percent
        attempts = dict.fromkeys(CLASSES, 0)
        useful = dict.fromkeys(CLASSES, 0)
        for qp in LADDER:
            for blocks in first[f"msa.qp{qp}"][2].frames:
                for i, bt in enumerate(blocks):
                    by, bx = divmod(i, self.nx)
                    c = availability_class(self.frames[0].y, bx, by)
                    if c is not None:
                        attempts[c] += 1
                        useful[c] += bt.refined
        encode_s = sum(statistics.median(times[k]) for k in times
                       if not k.startswith("replay"))
        replay_s = sum(statistics.median(times[k]) for k in times
                       if k.startswith("replay"))
        encoded = 2 * len(LADDER) * self.p_frames
        replayed = len(LADDER) * self.p_frames
        return {"ops_per_ref_s": encoded / (encode_s + replay_s),
                "cost_ratio": 1.0 + bd / 100.0,
                "closed.pframes_per_s": encoded / encode_s,
                "closed.bd_rate_pct": bd,
                "replay.pframes_per_s": replayed / replay_s,
                **_switch_figures(attempts, useful)}


class EngineMix:
    """fsa, rba and msa at their default budgets on the same working areas,
    cut from a QCIF translate/field frame (sigma 8): every block that has a
    decoded neighbour, so the availability classes keep frame proportions."""

    def __init__(self, seed: int, tiny: bool = False):
        size = TINY if tiny else (176, 144)
        prev, cur = (f.y for f in _sequence(seed, size, 2, "field"))
        self.windows = []   # (window, layout, context, original, mc block)
        for by in range(size[1] // BLOCK):
            for bx in range(size[0] // BLOCK):
                block = BlockRef(bx * BLOCK, by * BLOCK, BLOCK)
                layout = build_layout(cur, block)
                if layout.r_empty:
                    continue
                mv, _ = motion.estimate(cur, prev, block)
                mc = motion.compensate(prev, block, mv)
                self.windows.append((assemble_window(layout, cur.data, mc),
                                     layout, projection_context(layout),
                                     cur.block(block), mc))
        # Short units spread every engine's repeats over the whole run.
        cuts = np.linspace(0, len(self.windows), CHUNKS + 1).astype(int)
        self.units = [
            Unit(f"{e}.{i}", e, f"engine.{e}", int(hi - lo),
                 partial(self._refine, ExtrapolationParams.defaults(e),
                         self.windows[lo:hi]),
                 self._verify)
            for e in ENGINES for i, (lo, hi) in enumerate(zip(cuts, cuts[1:]))]

    @staticmethod
    def _refine(params: ExtrapolationParams, windows: list) -> list:
        return [extrapolate.run(window, layout, params, context=ctx)
                for window, layout, ctx, _, _ in windows]

    def _verify(self, results: list) -> tuple[int, bytes]:
        """A window fails if its output is non-finite or the engine ended
        with a larger weighted error than it started from."""
        failed = 0
        for r in results:
            d = r.diagnostics
            if not (np.isfinite(r.block).all() and np.isfinite(d.energy)
                    and d.energy <= d.energy0):
                failed += 1
        return failed, _fingerprint(
            *[r.block for r in results],
            [(r.diagnostics.iterations, r.diagnostics.energy,
              r.diagnostics.coefficient_count) for r in results])

    def figures(self, first: dict, times: dict) -> dict:
        n = len(self.windows)
        out = {}
        switched = 0.0
        sse_mc = sum(_block_sse(orig, mc).sum()
                     for _, _, _, orig, mc in self.windows)
        for e in ENGINES:
            keys = [f"{e}.{i}" for i in range(CHUNKS)]
            results = [r for k in keys for r in first[k]]
            out[f"engine.{e}.windows_per_s"] = \
                n / sum(statistics.median(times[k]) for k in keys)
            out[f"engine.{e}.energy_ratio"] = float(np.mean(
                [energy_ratio(r.diagnostics) for r in results]))
            switched += sum(min(_block_sse(orig, r.block).sum(),
                                _block_sse(orig, mc).sum())
                            for (_, _, _, orig, mc), r
                            in zip(self.windows, results))
        # Geometric mean: each engine's relative speed counts the same,
        # although fsa takes ten times as long per window as msa.
        out["ops_per_ref_s"] = float(np.exp(np.mean(
            [np.log(out[f"engine.{e}.windows_per_s"]) for e in ENGINES])))
        out["cost_ratio"] = switched / (len(ENGINES) * sse_mc)
        return out


WORKLOADS = {"open_cif": OpenCif, "closed_qcif": ClosedQcif,
             "engine_mix": EngineMix}


def setup(name: str) -> None:
    """Library set-up a user pays once per process: a warm-up pass of the
    workload's own units on a tiny input, which builds the basis and the
    projection contexts of every availability class."""
    warm = WORKLOADS[name](seed=0, tiny=True)
    for unit in warm.units:
        unit.call()
