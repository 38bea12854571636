"""Line-scan prediction loop, closed-loop reconstruction, and RD points.

The harness encodes IPPP: the first frame is stored through the transform
path against a flat mid-grey predictor at the finest quantizer of the
ladder, every later frame is predicted from the previous reconstruction.

Per macroblock the encoder forms the motion-compensated predictor and, when
enabled and any reconstructed neighbour exists, the spatially refined
predictor; whichever has the smaller MSE against the original is kept, and
one flag bit per macroblock is charged for the choice.  Refinement reads
only data a decoder would also have: the previous reconstructed frame (via
the displaced block) and already-reconstructed neighbour blocks of the
current frame.  `replay_trace` exercises exactly that property; it and the
encoder reach the engine through the same call, `refine_block`, one block
at a time.  Open-loop prediction (`predict_frame`) has no such dependency
and refines a frame's blocks in batches through `refine_blocks`; the
engine computes every batch member exactly as it would alone.

Rates are proxy rates: zeroth-order entropy of the quantized transform
coefficients per block, plus exp-Golomb motion bits and flag bits.  They
order operating points correctly but are not comparable to a real entropy
coder's output.  PSNR is luma-only.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
import scipy.fft

from . import extrapolate
from .basis import DEFAULT_MU, DEFAULT_RHO, check_weighting, projection_context
from .frame import (BlockRef, Frame, GeometryError, Plane, build_layout, mse,
                    psnr)
from .motion import MotionVector, SearchParams, compensate, estimate, mv_bits

# Blocks per engine call in `predict_frame`.  A chunk's engine state (about
# 0.27 MB per member at block size 16) stays in cache, and the stacked
# kernels already amortise their per-call cost at this size.
REFINE_CHUNK = 16

# Quantizer ladder mirroring ten fixed QPs from 16 to 43 in steps of 3,
# mapped through qstep = 2**((qp - 4) / 6).
DEFAULT_QPS = tuple(range(16, 44, 3))


def qp_to_qstep(qp: float) -> float:
    return float(2.0 ** ((qp - 4.0) / 6.0))


@dataclass(frozen=True)
class EncoderConfig:
    refinement: str = "msa"
    extrapolation: extrapolate.ExtrapolationParams | None = None
    search: SearchParams = field(default_factory=SearchParams)
    mu: float = DEFAULT_MU
    rho: float = DEFAULT_RHO
    qps: tuple = DEFAULT_QPS
    block_size: int = 16
    fps: float = 30.0

    def __post_init__(self):
        params = self.extrapolation
        if self.refinement == "none":
            if params is not None:
                raise ValueError("refinement 'none' takes no extrapolation "
                                 f"parameters, got {params.algorithm!r} ones")
        elif params is None:
            object.__setattr__(
                self, "extrapolation",
                extrapolate.ExtrapolationParams(algorithm=self.refinement))
        elif params.algorithm != self.refinement:
            raise ValueError(f"refinement {self.refinement!r} does not match "
                             f"the extrapolation engine {params.algorithm!r}")
        if len(self.qps) < 1 or any(b <= a for a, b in zip(self.qps, self.qps[1:])):
            raise ValueError("quantizer ladder must be strictly increasing")
        s = self.block_size
        if s < 8 or s & (s - 1):
            raise ValueError(f"block size must be a power of two >= 8 (the "
                             f"8x8 transform tiles it), got {s}")
        check_weighting(self.mu, self.rho)

    @property
    def qsteps(self) -> tuple:
        return tuple(qp_to_qstep(qp) for qp in self.qps)


@dataclass(frozen=True)
class BlockDecision:
    bx: int
    by: int
    mv: MotionVector
    sad: float
    refined: bool
    mc_mse: float
    refined_mse: float  # nan when refinement was not attempted


@dataclass(frozen=True)
class FramePrediction:
    predictor: np.ndarray      # chosen per-block predictor, float64 raster
    mc_predictor: np.ndarray   # pure motion-compensated raster
    decisions: list
    side_bits: int             # flag bits + motion bits, exactly
    refine_seconds: float


@dataclass(frozen=True)
class RDPoint:
    rate_kbps: float
    psnr_db: float
    qp: float
    qstep: float
    refined_fraction: float


@dataclass(frozen=True)
class RDCurve:
    label: str
    points: tuple

    def rates(self) -> np.ndarray:
        return np.array([p.rate_kbps for p in self.points])

    def psnrs(self) -> np.ndarray:
        return np.array([p.psnr_db for p in self.points])


# ---------------------------------------------------------------------------
# Working-area assembly and per-block prediction
# ---------------------------------------------------------------------------

def assemble_window(layout, neighbor_samples: np.ndarray,
                    mc_block: np.ndarray) -> np.ndarray:
    """Fill the 3x3-block working area: neighbours on R, the temporal
    predictor in the centre, zeros on padding (weight-excluded anyway)."""
    s = layout.block.size
    x0, y0 = layout.block.x0, layout.block.y0
    f = np.zeros((layout.m, layout.n))
    left, top_left, top, top_right = layout.availability
    src = neighbor_samples
    if top_left:
        f[:s, :s] = src[y0 - s:y0, x0 - s:x0]
    if top:
        f[:s, s:2 * s] = src[y0 - s:y0, x0:x0 + s]
    if top_right:
        f[:s, 2 * s:] = src[y0 - s:y0, x0 + s:x0 + 2 * s]
    if left:
        f[s:2 * s, :s] = src[y0:y0 + s, x0 - s:x0]
    f[s:2 * s, s:2 * s] = mc_block
    return f


def frame_blocks(width: int, height: int, size: int) -> list:
    """Every macroblock of a frame, in line-scan order.

    Raises `GeometryError` unless the block grid tiles the frame exactly.
    """
    if width % size or height % size:
        raise GeometryError(f"frame {width}x{height} is not a multiple of "
                            f"the block size {size}")
    return [BlockRef(x0=x0, y0=y0, size=size)
            for y0 in range(0, height, size) for x0 in range(0, width, size)]


def search_frame(current: Plane, reference: Plane, blocks,
                 params: SearchParams) -> list:
    """Motion pre-pass: ``(mv, sad)`` of every block against ``reference``.

    Search reads only the reference and the current originals, never the
    current frame's reconstruction, so one pass ahead of the block loop
    gives the same vectors as searching block by block inside it.
    """
    return [estimate(current, reference, block, params) for block in blocks]


def refine_block(layout, neighbor_samples: np.ndarray, mc_block: np.ndarray,
                 config: EncoderConfig) -> extrapolate.RefineResult:
    """Spatially refine one motion-compensated block.

    The one refinement call of the encoder and of `replay_trace`, so both
    build the working area and the weighting alike; it runs the engine
    loop with a batch of one.
    """
    window = assemble_window(layout, neighbor_samples, mc_block)
    context = projection_context(layout, mu=config.mu, rho=config.rho)
    return extrapolate.run(window, layout, config.extrapolation,
                           context=context)


def refine_blocks(layouts, neighbor_samples: np.ndarray, mc_blocks,
                  config: EncoderConfig) -> list:
    """Refine blocks of one neighbour-availability class as one batch.

    Every layout must share the availability of the first, so one
    projection context serves the batch.  Each result is bitwise equal to
    what `refine_block` gives for that block alone.
    """
    windows = np.empty((len(layouts), layouts[0].m, layouts[0].n))
    for window, layout, mc in zip(windows, layouts, mc_blocks):
        window[...] = assemble_window(layout, neighbor_samples, mc)
    context = projection_context(layouts[0], mu=config.mu, rho=config.rho)
    return extrapolate.run_batch(windows, layouts[0], config.extrapolation,
                                 context=context)


def _switch(block: BlockRef, motion: tuple, original: np.ndarray,
            mc: np.ndarray, refined: np.ndarray | None
            ) -> tuple[np.ndarray, BlockDecision]:
    """The per-block MSE switch: keep ``refined`` only where it beats MC.

    ``motion`` is the block's ``(mv, sad)`` from `search_frame` and
    ``refined`` is None where refinement was not attempted.  Returns the
    chosen predictor and the decision.
    """
    mv, sad = motion
    mc_err = mse(original, mc)
    refined_err = float("nan") if refined is None else mse(original, refined)
    use = refined_err < mc_err
    decision = BlockDecision(bx=block.x0 // block.size,
                             by=block.y0 // block.size, mv=mv, sad=sad,
                             refined=use, mc_mse=mc_err,
                             refined_mse=refined_err)
    return (refined if use else mc), decision


def _side_bits(decisions, n_blocks_x: int, flag_per_block: bool) -> int:
    """Motion bits (left-differential per row) plus one flag bit per block."""
    bits = len(decisions) if flag_per_block else 0
    for d in decisions:
        predictor = None
        if d.bx > 0:
            left = decisions[d.by * n_blocks_x + d.bx - 1]
            predictor = left.mv
        bits += mv_bits(d.mv, predictor)
    return bits


def predict_frame(current: Plane, reference: Plane, config: EncoderConfig, *,
                  neighbor_source: Plane | None = None,
                  jobs: int = 1) -> FramePrediction:
    """Open-loop frame prediction: refinement neighbours come from
    ``neighbor_source`` (the current originals by default), so blocks are
    independent of each other's results.

    Motion search runs first, as one `search_frame` pre-pass over every
    block, then motion compensation of every block.  The blocks that have
    a decoded neighbour are grouped by neighbour-availability class and
    refined by `refine_blocks` in chunks of `REFINE_CHUNK`, a fixed size
    that keeps a chunk's engine state in cache; the per-block MSE switch
    comes last.  Because the engine computes each batch member exactly as
    it would alone, the result equals refining block by block.  The
    closed-loop path in `encode_pass` interleaves prediction with
    reconstruction instead.
    """
    # Kept for callers that pass jobs=1; there is no parallel path.
    if jobs != 1:
        raise ValueError(f"predict_frame runs serially; jobs must be 1, "
                         f"got {jobs}")
    s = config.block_size
    blocks = frame_blocks(current.width, current.height, s)
    src = (neighbor_source if neighbor_source is not None else current).data
    motion = search_frame(current, reference, blocks, config.search)
    mc_raster = np.empty((current.height, current.width))
    for block, (mv, _) in zip(blocks, motion):
        _cut(mc_raster, block)[...] = compensate(reference, block, mv)
    predictor = np.empty_like(mc_raster)
    decisions = [None] * len(blocks)

    def switch(i: int, refined: np.ndarray | None) -> None:
        block = blocks[i]
        chosen, decisions[i] = _switch(block, motion[i], current.block(block),
                                       _cut(mc_raster, block), refined)
        _cut(predictor, block)[...] = chosen

    refine_seconds = 0.0
    if config.refinement != "none":
        classes = {}
        for i, block in enumerate(blocks):
            layout = build_layout(current, block)
            if not layout.r_empty:
                classes.setdefault(layout.availability, []).append(
                    (i, layout))
        t0 = time.perf_counter()
        for members in classes.values():
            for lo in range(0, len(members), REFINE_CHUNK):
                chunk = members[lo:lo + REFINE_CHUNK]
                for (i, _), result in zip(chunk, refine_blocks(
                        [layout for _, layout in chunk], src,
                        [_cut(mc_raster, blocks[i]) for i, _ in chunk],
                        config)):
                    switch(i, result.block)
        refine_seconds = time.perf_counter() - t0
    for i, decision in enumerate(decisions):
        if decision is None:
            switch(i, None)
    side = _side_bits(decisions, current.width // s,
                      config.refinement != "none")
    return FramePrediction(predictor=predictor, mc_predictor=mc_raster,
                           decisions=decisions, side_bits=side,
                           refine_seconds=refine_seconds)


def _cut(raster: np.ndarray, block: BlockRef) -> np.ndarray:
    """The view of ``raster`` that ``block`` covers."""
    return raster[block.y0:block.y0 + block.size,
                  block.x0:block.x0 + block.size]


# ---------------------------------------------------------------------------
# Transform path and closed-loop encoding
# ---------------------------------------------------------------------------

def _tile_8x8(block: np.ndarray) -> np.ndarray:
    """(s, s) raster -> (n_tiles, 8, 8) in row-major tile order."""
    s = block.shape[0]
    t = s // 8
    return block.reshape(t, 8, t, 8).transpose(0, 2, 1, 3).reshape(-1, 8, 8)


def _untile_8x8(tiles: np.ndarray, s: int) -> np.ndarray:
    t = s // 8
    return tiles.reshape(t, t, 8, 8).transpose(0, 2, 1, 3).reshape(s, s)


def dct_8x8(tiles: np.ndarray) -> np.ndarray:
    return scipy.fft.dctn(tiles, type=2, axes=(-2, -1), norm="ortho")


def idct_8x8(tiles: np.ndarray) -> np.ndarray:
    return scipy.fft.idctn(tiles, type=2, axes=(-2, -1), norm="ortho")


def _entropy_bits(symbols: np.ndarray) -> float:
    """Zeroth-order entropy of the symbol stream, in bits."""
    _, counts = np.unique(symbols, return_counts=True)
    if counts.size <= 1:
        return 0.0
    p = counts / symbols.size
    return float(-(counts * np.log2(p)).sum())


def reconstruct_block(original: np.ndarray, predictor: np.ndarray,
                      qstep: float) -> tuple[np.ndarray, float, np.ndarray]:
    """Transform-code the prediction residual of one block.

    residual -> 8x8 DCT-II (orthonormal) -> uniform quantization -> inverse
    -> predictor + coded residual, clamped to [0, 255] and rounded to the
    8-bit grid.  Returns (reconstructed block uint8, coefficient bits,
    quantized levels) — the levels make the path replayable.
    """
    if qstep <= 0:
        raise ValueError("qstep must be positive")
    residual = np.asarray(original, dtype=np.float64) - predictor
    coeffs = dct_8x8(_tile_8x8(residual))
    levels = np.asarray(np.rint(coeffs / qstep), dtype=np.int32)
    recon = decode_block(predictor, levels, qstep)
    return recon, _entropy_bits(levels.ravel()), levels


def decode_block(predictor: np.ndarray, levels: np.ndarray,
                 qstep: float) -> np.ndarray:
    """Decoder-side counterpart of `reconstruct_block`."""
    coded = idct_8x8(levels.astype(np.float64) * qstep)
    out = predictor + _untile_8x8(coded, predictor.shape[0])
    return np.clip(np.rint(out), 0, 255).astype(np.uint8)


@dataclass(frozen=True)
class BlockTrace:
    mv: MotionVector
    refined: bool
    levels: np.ndarray


@dataclass(frozen=True)
class EncodeTrace:
    """Everything a decoder needs to replay one encode pass."""
    qstep: float
    intra_qstep: float
    intra_levels: np.ndarray   # (n_blocks, tiles, 8, 8)
    frames: tuple              # per P-frame tuple of BlockTrace
    dims: tuple                # (width, height)
    block_size: int


@dataclass(frozen=True)
class FrameStats:
    index: int
    bits: float
    psnr_db: float
    refined_fraction: float
    refine_seconds: float


def check_frame_count(count: int) -> None:
    """Raise `ValueError` unless there is a reference and a frame to predict."""
    if count < 2:
        raise ValueError(f"need at least two frames (a reference and a "
                         f"frame to predict), got {count}")


def _sequence_blocks(frames, block_size: int) -> list:
    """The block grid of an IPPP sequence, checked before any coding."""
    check_frame_count(len(frames))
    return frame_blocks(frames[0].y.width, frames[0].y.height, block_size)


def _encode_intra(frame: Plane, qstep: float, blocks: list):
    """Store the first frame against a flat mid-grey predictor."""
    s = blocks[0].size
    recon = np.empty((frame.height, frame.width), np.uint8)
    flat = np.full((s, s), 128.0)
    bits = 0.0
    levels_all = []
    for block in blocks:
        rec, b, levels = reconstruct_block(frame.block(block), flat, qstep)
        recon[block.y0:block.y0 + s, block.x0:block.x0 + s] = rec
        bits += b
        levels_all.append(levels)
    return Plane(recon), bits, np.stack(levels_all)


def _mc_chroma(prev: Frame, decisions, block_size: int) -> tuple:
    """Carry chroma by plain MC with halved displacements (no residual)."""
    if prev.u is None or prev.v is None:
        return None, None
    cs = block_size // 2
    out = []
    for comp in (prev.u, prev.v):
        rec = np.empty((comp.height, comp.width), np.uint8)
        for d in decisions:
            blk = BlockRef(x0=d.bx * cs, y0=d.by * cs, size=cs)
            cmv = d.mv.for_chroma()
            try:
                pred = compensate(comp, blk, cmv)
            except GeometryError:  # cannot happen for halved in-range vectors
                pred = comp.block(blk).astype(np.float64)
            rec[blk.y0:blk.y0 + cs, blk.x0:blk.x0 + cs] = \
                np.clip(np.rint(pred), 0, 255).astype(np.uint8)
        out.append(Plane(rec))
    return tuple(out)


def encode_pass(frames, config: EncoderConfig, qstep: float, qp: float, *,
                intra: tuple | None = None, collect_trace: bool = False,
                predictor_sink: list | None = None):
    """One closed-loop encode of the sequence at a single quantizer step.

    Returns (RDPoint, per-frame stats, EncodeTrace | None).  Rate covers
    P-frames only (coefficient + motion + flag bits); the intra frame is
    fixed per sequence, shared by every ladder point, and excluded from both
    the rate and the PSNR mean.  When ``predictor_sink`` is a list, the
    encoder's per-frame predictor rasters are appended to it — the reference
    a decoder-side replay has to reproduce.

    Each P-frame starts with a `search_frame` pre-pass against the previous
    reconstruction; the line-scan loop then refines, switches and
    reconstructs block by block.  Fewer than two frames raise `ValueError`
    and a frame the block grid does not tile raises `GeometryError`, both
    before any block is coded.
    """
    s = config.block_size
    blocks = _sequence_blocks(frames, s)
    first = frames[0].y
    intra_qstep = min(config.qsteps)
    if intra is None:
        intra = _encode_intra(first, intra_qstep, blocks)
    recon_prev_y, _, intra_levels = intra
    prev_frame = Frame(y=recon_prev_y, u=frames[0].u, v=frames[0].v)

    nx = first.width // s
    total_bits = 0.0
    stats = []
    trace_frames = []
    for t in range(1, len(frames)):
        cur = frames[t].y
        recon_y = np.zeros((cur.height, cur.width), np.uint8)
        pred_y = np.empty((cur.height, cur.width)) \
            if predictor_sink is not None else None
        decisions = []
        block_traces = []
        frame_bits = 0.0
        refine_total = 0.0
        motion = search_frame(cur, prev_frame.y, blocks, config.search)
        for block, block_motion in zip(blocks, motion):
            mc = compensate(prev_frame.y, block, block_motion[0])
            refined = None
            if config.refinement != "none":
                layout = build_layout(cur, block)
                if not layout.r_empty:
                    t0 = time.perf_counter()
                    refined = refine_block(layout, recon_y, mc, config).block
                    refine_total += time.perf_counter() - t0
            chosen, decision = _switch(block, block_motion, cur.block(block),
                                       mc, refined)
            rec, coeff_bits, levels = reconstruct_block(
                cur.block(block), chosen, qstep)
            recon_y[block.y0:block.y0 + s, block.x0:block.x0 + s] = rec
            if pred_y is not None:
                pred_y[block.y0:block.y0 + s, block.x0:block.x0 + s] = chosen
            decisions.append(decision)
            frame_bits += coeff_bits
            if collect_trace:
                block_traces.append(BlockTrace(
                    mv=decision.mv, refined=decision.refined, levels=levels))
        frame_bits += _side_bits(decisions, nx, config.refinement != "none")
        total_bits += frame_bits
        refined_n = sum(d.refined for d in decisions)
        stats.append(FrameStats(
            index=t, bits=frame_bits,
            psnr_db=psnr(cur.data, recon_y),
            refined_fraction=refined_n / len(decisions),
            refine_seconds=refine_total))
        recon_u, recon_v = _mc_chroma(prev_frame, decisions, s) \
            if prev_frame.u is not None else (None, None)
        prev_frame = Frame(y=Plane(recon_y), u=recon_u, v=recon_v)
        if collect_trace:
            trace_frames.append(tuple(block_traces))
        if pred_y is not None:
            predictor_sink.append(pred_y)

    n_p = len(frames) - 1
    point = RDPoint(
        rate_kbps=total_bits * config.fps / n_p / 1000.0,
        psnr_db=float(np.mean([fs.psnr_db for fs in stats])),
        qp=qp, qstep=qstep,
        refined_fraction=float(np.mean([fs.refined_fraction for fs in stats])),
    )
    trace = None
    if collect_trace:
        trace = EncodeTrace(qstep=qstep, intra_qstep=intra_qstep,
                            intra_levels=intra_levels,
                            frames=tuple(trace_frames),
                            dims=(first.width, first.height), block_size=s)
    return point, stats, trace


def encode_sequence(frames, config: EncoderConfig, *,
                    collect_trace: bool = False):
    """Closed-loop encode over the whole quantizer ladder.

    Returns (RDCurve sorted by rate, per-(qp, frame) stats list, trace of the
    first ladder point or None).  Needs at least two frames (IPPP).
    """
    blocks = _sequence_blocks(frames, config.block_size)
    intra = _encode_intra(frames[0].y, min(config.qsteps), blocks)
    points = []
    all_stats = []
    trace = None
    for i, (qp, qstep) in enumerate(zip(config.qps, config.qsteps)):
        want_trace = collect_trace and i == 0
        point, stats, tr = encode_pass(frames, config, qstep, qp,
                                       intra=intra, collect_trace=want_trace)
        points.append(point)
        all_stats.append((qp, stats))
        if want_trace:
            trace = tr
    points.sort(key=lambda p: p.rate_kbps)
    label = config.refinement
    return RDCurve(label=label, points=tuple(points)), all_stats, trace


# ---------------------------------------------------------------------------
# Decoder-side replay
# ---------------------------------------------------------------------------

def replay_trace(trace: EncodeTrace, config: EncoderConfig):
    """Regenerate predictors and reconstructions from the trace alone.

    Uses only decoder-visible data: motion vectors, refinement flags and
    quantized levels.  Motion search and the RD switch are *not* re-run; the
    refinement engine is, reading reconstructed samples only.  Returns the
    list of per-frame predictor rasters and reconstructed planes.
    """
    width, height = trace.dims
    s = trace.block_size
    blocks = frame_blocks(width, height, s)
    flat = np.full((s, s), 128.0)
    recon = np.empty((height, width), np.uint8)
    for block, levels in zip(blocks, trace.intra_levels):
        recon[block.y0:block.y0 + s, block.x0:block.x0 + s] = \
            decode_block(flat, levels, trace.intra_qstep)
    prev = Plane(recon)
    predictors, recons = [], []
    for frame_trace in trace.frames:
        recon_y = np.zeros((height, width), np.uint8)
        predictor = np.empty((height, width))
        for block, bt in zip(blocks, frame_trace):
            pred = compensate(prev, block, bt.mv)
            if bt.refined:
                pred = refine_block(build_layout(prev, block), recon_y, pred,
                                    config).block
            predictor[block.y0:block.y0 + s, block.x0:block.x0 + s] = pred
            recon_y[block.y0:block.y0 + s, block.x0:block.x0 + s] = \
                decode_block(pred, bt.levels, trace.qstep)
        predictors.append(predictor)
        recons.append(Plane(recon_y))
        prev = recons[-1]
    return predictors, recons
