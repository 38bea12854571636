"""Line-scan prediction loop, closed-loop reconstruction, and RD points.

The harness encodes IPPP: the first frame is stored through the transform
path against a flat mid-grey predictor at the finest quantizer of the
ladder, every later frame is predicted from the previous reconstruction.
`encode_pass` codes one quantizer step, intra frame included, so every
pass of a ladder codes the same intra frame, and `encode_sequence` is one
`encode_pass` per step.

Per macroblock the encoder forms the motion-compensated predictor and, when
enabled and any reconstructed neighbour exists, the spatially refined
predictor; whichever has the smaller MSE against the original is kept, and
one flag bit per macroblock is charged for the choice.  Refinement reads
only data a decoder would also have: the previous reconstructed frame (via
the displaced block) and already-reconstructed neighbour blocks of the
current frame.  `replay_trace` exercises exactly that property.

Open-loop prediction, the closed loop and its replay each compensate a
whole frame in one loop, since compensation reads only the reference,
and address its blocks through the frame's block grid (`_grid`).  Every
path reaches the engine through one call, `refine_blocks`, which refines
blocks of a frame by line-scan index, in engine batches of at most
`REFINE_CHUNK` blocks of any neighbour-availability classes, and yields
for each block exactly what refining it alone would.  Each batch takes
its own weighting context (`batch_context`), which reads the cached
reference weightings in place; no frame, pass or trace holds one of its
own.  Open-loop prediction (`predict_frame`) reads no reconstruction, so
it refines every block of a frame in one call.  The closed loop and its
replay share one scheduling rule, `coding_order`: the blocks whose coding
reads nothing of their own frame's reconstruction wait on no other
block, so all of them are coded first, in one transform call, and the
blocks that wait follow by their `dependency_levels` among themselves.  A
block reads only its left, top-left, top and top-right neighbours, so
the blocks of one level need only blocks of earlier levels.  In
`encode_pass` the blocks that wait are the refinable ones: none without
refinement, so a P-frame is one transform call; with it, every block
that has a reconstructed neighbour, which gives the wavefront (block
(bx, by) on level bx + 2 by - 1 when the grid is wider than one block).
Each wave is refined and transform-coded in one call each; `_switch`
compares a stack of blocks at a time and writes the chosen ones into the
frame's predictor raster, and a frame's coefficient bits are taken in
one `_entropy_bits` call after its last wave.  In `replay_trace` the
blocks that wait are the refined ones: every other block is decoded from
its MC block and levels alone.

Transform coding takes stacks: `reconstruct_block` and `decode_block` code
any number of blocks in one transform call, each exactly as alone, and
`_entropy_bits` takes the bits of any number of blocks in one call, each
block's its own.  scipy's transforms are imported on the first
transform, not with the module.  The closed loop codes luma only.

Rates are proxy rates: zeroth-order entropy of the quantized transform
coefficients per block, plus exp-Golomb motion bits and flag bits.  They
order operating points correctly but are not comparable to a real entropy
coder's output.  PSNR is luma-only.
"""

from __future__ import annotations

import math
import time
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from . import extrapolate
from .basis import DEFAULT_MU, DEFAULT_RHO, batch_context, check_weighting
from .frame import (NEIGHBOUR_TILES, BlockRef, Frame, GeometryError, Plane,
                    build_layout, check_positive, is_integer, mse, psnr,
                    to_samples)
from .motion import MotionVector, SearchParams, compensate, estimate, mv_bits

# Blocks per engine call: `refine_blocks` cuts the blocks of every path
# (prediction, encoding and replay) into batches of at most this many.  A
# batch's engine state (about 0.27 MB per member at block size 16) stays in
# cache, and the stacked kernels already amortise their per-call cost at
# this size.
REFINE_CHUNK = 16

# Quantizer ladder mirroring ten fixed QPs from 16 to 43 in steps of 3,
# mapped through qstep = 2**((qp - 4) / 6).
DEFAULT_QPS = tuple(range(16, 44, 3))


# The largest coefficient magnitude of an 8-bit residual: the orthonormal
# 8x8 DCT-II's DC term of 64 samples of 255 is 64 * 255 / 8.
PEAK_COEFFICIENT = 8 * 255


def qp_to_qstep(qp: float) -> float:
    try:
        return float(2.0 ** ((qp - 4.0) / 6.0))
    except OverflowError:  # past 1.8e308, which `check_qstep` refuses
        return math.inf


def check_qstep(qstep: float, peak: float = PEAK_COEFFICIENT) -> None:
    """Raise `ValueError` unless ``qstep`` is finite and positive and a
    coefficient of magnitude ``peak`` quantizes to a level that fits
    int32.

    The one quantizer rule: `EncoderConfig` applies it to its ladder and
    `encode_pass` to its step at `PEAK_COEFFICIENT`, before any coding,
    `replay_trace` to a trace's two steps before any decoding, and
    `reconstruct_block` to the largest coefficient it quantizes.
    """
    check_positive("quantizer step", qstep)
    if peak / qstep > np.iinfo(np.int32).max:
        raise ValueError(f"quantizer step {qstep:g} gives a level of "
                         f"{peak / qstep:.3g}, beyond int32")


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
        if self.refinement not in extrapolate.ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.refinement!r}; "
                             f"choose from {extrapolate.ALGORITHMS}")
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
        for qstep in self.qsteps:
            check_qstep(qstep)
        # Each weighting keeps a Gram table of 128*(3s)**2 bytes: 295 KB
        # at 16, 4.7 MB at 64, 18.9 MB at 128.  The five causal patterns'
        # tables are held once, as the rows of one cached stack that every
        # engine batch reads in place, so at 128 they would hold 94.5 MB.
        # A batch of one class reads its row's weighting in place too; a
        # batch of mixed classes holds copies of its members' weighting
        # rows, 24*(3s)**2 bytes per member: 55 KB at 16, 0.9 MB at 64.
        s = self.block_size
        if not is_integer(s) or s not in (8, 16, 32, 64):
            raise ValueError(f"block size must be an integer power of two "
                             f"from 8 (8x8 transform tiles) to 64, got {s!r}")
        check_weighting(self.mu, self.rho)
        check_positive("frame rate", self.fps)

    @property
    def qsteps(self) -> tuple:
        return tuple(qp_to_qstep(qp) for qp in self.qps)


@dataclass(frozen=True)
class BlockDecision:
    bx: int
    by: int
    mv: MotionVector
    refined: bool
    mc_mse: float
    refined_mse: float  # nan when refinement was not attempted


@dataclass(frozen=True)
class FramePrediction:
    predictor: np.ndarray      # chosen per-block predictor, float64 raster
    mc_predictor: np.ndarray   # pure motion-compensated raster
    decisions: list
    side_bits: int             # flag bits + motion bits, exactly


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
    oy, ox = layout.origin
    f = np.zeros((layout.m, layout.n))
    for (ty, tx), present in zip(NEIGHBOUR_TILES, layout.availability):
        if present:
            y, x = ty * s, tx * s
            f[y:y + s, x:x + s] = \
                neighbor_samples[oy + y:oy + y + s, ox + x:ox + x + s]
    f[s:2 * s, s:2 * s] = mc_block
    return f


def frame_blocks(width: int, height: int, size: int) -> list:
    """Every macroblock of a frame, in line-scan order.

    Raises `GeometryError` unless the frame has positive dimensions and
    the block grid tiles it exactly.
    """
    if width < 1 or height < 1:
        raise GeometryError(f"frame dimensions must be positive, got "
                            f"{width}x{height}")
    if width % size or height % size:
        raise GeometryError(f"frame {width}x{height} is not a multiple of "
                            f"the block size {size}")
    return [BlockRef(x0=x0, y0=y0, size=size)
            for y0 in range(0, height, size) for x0 in range(0, width, size)]


def _shared_blocks(planes, size: int) -> list:
    """The block grid of ``planes``, a reference and the frames predicted
    from it, checked before any coding.

    Raises `ValueError` for fewer than two planes, and `GeometryError`
    unless every plane has the first one's size and `frame_blocks` tiles
    it.
    """
    check_frame_count(len(planes))
    sizes = sorted({(plane.width, plane.height) for plane in planes})
    if len(sizes) > 1:
        raise GeometryError("frame sizes differ: " + " and ".join(
            f"{width}x{height}" for width, height in sizes))
    return frame_blocks(*sizes[0], size)


def _compensate_frame(reference: Plane, blocks, vectors) -> np.ndarray:
    """The motion-compensated raster of a frame: each of ``blocks``, in
    line-scan order, displaced by its vector of ``vectors``."""
    raster = np.empty((reference.height, reference.width))
    grid = _grid(raster, blocks[0].size)
    for i, (block, mv) in enumerate(zip(blocks, vectors)):
        grid[divmod(i, grid.shape[1])] = compensate(reference, block, mv)
    return raster


def search_frame(current: Plane, reference: Plane, blocks,
                 params: SearchParams) -> list:
    """Motion pre-pass: ``(mv, sad)`` of every block against ``reference``.

    Search reads only the reference and the current originals, never the
    current frame's reconstruction, so one pass ahead of the block loop
    gives the same vectors as searching block by block inside it.
    """
    return [estimate(current, reference, block, params) for block in blocks]


def dependency_levels(nx: int, ny: int, needs) -> list:
    """The blocks ``needs`` of an ``nx`` x ``ny`` grid, by line-scan index,
    grouped by dependency depth.

    A block of ``needs`` lies one level above the deepest of its left,
    top-left, top and top-right neighbours that are also in ``needs``,
    and on level 0 when it has none; other blocks are no dependency.  So
    no block reads another of its own level, and every block is on the
    least level that lies above the blocks it needs.  Each level is in
    line-scan order.  With every block in ``needs``, block (bx, by) is on
    level bx + 2 * by whenever ``nx`` > 1: the wavefront schedule of
    HEVC's wavefront parallel processing.
    """
    depth = {}
    for i in sorted(needs):
        by, bx = divmod(i, nx)
        # the neighbours' tiles sit one row and column off the centre's
        above = [depth.get((by + ty - 1) * nx + bx + tx - 1, -1)
                 for ty, tx in NEIGHBOUR_TILES
                 if by + ty >= 1 and 0 <= bx + tx - 1 < nx]
        depth[i] = 1 + max(above, default=-1)
    levels = [[] for _ in range(1 + max(depth.values(), default=-1))]
    for i, level in depth.items():
        levels[level].append(i)
    return levels


def coding_order(nx: int, ny: int, waits) -> list:
    """The order in which the closed loop and its replay code the blocks
    of an ``nx`` x ``ny`` frame: groups of line-scan indices, each coded
    in one call after the groups before it.

    ``waits`` are the blocks whose coding reads their own frame's
    reconstruction (the refined ones).  Every other block waits on
    nothing, so the first group holds all of them (and is empty when
    every block waits); ``waits`` follow as their `dependency_levels`
    among themselves.
    """
    waits = set(waits)
    return [[i for i in range(nx * ny) if i not in waits],
            *dependency_levels(nx, ny, waits)]


def refine_blocks(indices, layouts, neighbor_samples: np.ndarray,
                  mc_grid: np.ndarray, config: EncoderConfig
                  ) -> Iterator[extrapolate.RefineResult]:
    """Spatially refine the motion-compensated blocks ``indices`` of a
    frame.

    The one refinement call of `predict_frame`, `encode_pass` and
    `replay_trace`, so all three build working areas and weightings alike.
    ``indices`` are line-scan indices into the frame's ``layouts``;
    ``mc_grid`` is the frame's (rows, columns, s, s) `_grid` of
    motion-compensated blocks.  The blocks are refined in order, in engine
    batches of at most `REFINE_CHUNK`, whatever availability classes a
    batch mixes.  Each batch is weighted by ``config``'s reference
    weightings through `batch_context`, which reads its cached stack: a
    batch of one class gets views of that class's row, and a mixed one
    copies of its members' weighting rows, with their slots into the
    cached Gram table.  Yields
    one `RefineResult` per index, in the order of ``indices``, each
    bitwise equal to what a batch of that block alone gives.

    A result holds only its own block and its diagnostics (no engine
    state: the runs are not recorded), and results come one batch at a
    time.  A batch reads its neighbour samples and MC blocks when it is
    reached, so the caller writes to neither until every result is
    taken.
    """
    for lo in range(0, len(indices), REFINE_CHUNK):
        chunk = indices[lo:lo + REFINE_CHUNK]
        part = [layouts[i] for i in chunk]
        windows = np.stack([assemble_window(
            layout, neighbor_samples, mc_grid[divmod(i, mc_grid.shape[1])])
            for i, layout in zip(chunk, part)])
        yield from extrapolate.run_batch(
            windows, part, config.extrapolation,
            context=batch_context(part, mu=config.mu, rho=config.rho))


def _switch(indices, motion, originals: np.ndarray, mc: np.ndarray,
            refined: dict, decisions: list, predictor: np.ndarray) -> None:
    """The per-block MSE switch over the blocks ``indices`` of a frame:
    keep a block's refinement only where it beats MC.

    ``originals``, ``mc`` and ``predictor`` are the frame's `_grid`s of
    original, motion-compensated and predictor blocks, and ``refined``
    maps the index of each block whose refinement was attempted to its
    refined block.  Records each block's decision in ``decisions`` and
    writes its chosen block into ``predictor``.  The blocks are switched
    a stack of at most `REFINE_CHUNK` at a time: their MC and refined
    MSEs are one `mse` call each, and the chosen blocks are written in one
    assignment.
    """
    nx = mc.shape[1]
    for lo in range(0, len(indices), REFINE_CHUNK):
        part = list(indices[lo:lo + REFINE_CHUNK])
        at = np.divmod(part, nx)
        own, chosen = originals[at], mc[at]
        mc_err = mse(own, chosen)
        refined_err = np.full(len(part), np.nan)
        use = np.zeros(len(part), bool)
        tried = [k for k, i in enumerate(part) if i in refined]
        if tried:
            blocks = np.stack([refined[part[k]] for k in tried])
            refined_err[tried] = mse(own[tried], blocks)
            use[tried] = won = refined_err[tried] < mc_err[tried]
            chosen[use] = blocks[won]
        predictor[at] = chosen
        for i, u, m, r in zip(part, use.tolist(), mc_err.tolist(),
                              refined_err.tolist()):
            by, bx = divmod(i, nx)
            decisions[i] = BlockDecision(bx=bx, by=by, mv=motion[i][0],
                                         refined=u, mc_mse=m, refined_mse=r)


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
                  jobs: int = 1) -> FramePrediction:
    """Open-loop frame prediction: refinement neighbours come from the
    current originals, so blocks are independent of each other's results.

    Motion search runs first, as one `search_frame` pre-pass over every
    block, then motion compensation of every block.  Every block that has
    a decoded neighbour is refined in one `refine_blocks` call, in engine
    batches of at most `REFINE_CHUNK` whatever availability classes they
    mix; the per-block MSE switch comes last.
    Because the engine computes each batch member exactly as it would
    alone, the result equals refining block by block.  The closed-loop
    path in `encode_pass` interleaves prediction with reconstruction
    instead.  A reference whose size differs from the current frame's
    raises `GeometryError` before any block is predicted.
    """
    # Kept for callers that pass jobs=1; there is no parallel path.
    if jobs != 1:
        raise ValueError(f"predict_frame runs serially; jobs must be 1, "
                         f"got {jobs}")
    s = config.block_size
    blocks = _shared_blocks([current, reference], s)
    motion = search_frame(current, reference, blocks, config.search)
    mc_raster = _compensate_frame(reference, blocks, [mv for mv, _ in motion])
    mc = _grid(mc_raster, s)
    refined = {}
    if config.refinement != "none":
        layouts = [build_layout(current, block) for block in blocks]
        todo = [i for i, layout in enumerate(layouts) if not layout.r_empty]
        refined = {i: result.block for i, result in zip(todo, refine_blocks(
            todo, layouts, current.data, mc, config))}
    decisions = [None] * len(blocks)
    predictor = np.empty_like(mc_raster)
    _switch(range(len(blocks)), motion, _grid(current.data, s), mc, refined,
            decisions, _grid(predictor, s))
    side = _side_bits(decisions, mc.shape[1], config.refinement != "none")
    return FramePrediction(predictor=predictor, mc_predictor=mc_raster,
                           decisions=decisions, side_bits=side)


# ---------------------------------------------------------------------------
# Transform path and closed-loop encoding
# ---------------------------------------------------------------------------

def _level_shape(s: int) -> tuple:
    """The shape of one s x s block's tiles and quantized levels: its 8x8
    tiles in row-major tile order."""
    return ((s // 8) ** 2, 8, 8)


def _tile_8x8(blocks: np.ndarray) -> np.ndarray:
    """(..., s, s) rasters -> (..., `_level_shape`) tiles."""
    *lead, s, _ = blocks.shape
    t = s // 8
    return blocks.reshape(*lead, t, 8, t, 8).swapaxes(-3, -2) \
        .reshape(*lead, *_level_shape(s))


def _untile_8x8(tiles: np.ndarray, s: int) -> np.ndarray:
    *lead, _, _, _ = tiles.shape
    t = s // 8
    return tiles.reshape(*lead, t, t, 8, 8).swapaxes(-3, -2) \
        .reshape(*lead, s, s)


def dct_8x8(tiles: np.ndarray) -> np.ndarray:
    from scipy import fft
    return fft.dctn(tiles, type=2, axes=(-2, -1), norm="ortho")


def idct_8x8(tiles: np.ndarray) -> np.ndarray:
    from scipy import fft
    return fft.idctn(tiles, type=2, axes=(-2, -1), norm="ortho")


def _entropy_bits(symbols: np.ndarray) -> float | np.ndarray:
    """Zeroth-order entropy of each symbol stream, in bits.

    ``symbols`` is (..., n), one stream per row; a single stream gives a
    float.  Each row is sorted and its runs counted, so a row's counts
    are its distinct symbols' in ascending order, as ``np.unique`` gives
    them, and its terms are summed alone with ``.sum()``.  A row of one
    symbol costs 0 bits.
    """
    symbols = np.asarray(symbols)
    rows = np.sort(symbols.reshape(-1, symbols.shape[-1]), axis=1)
    starts = np.ones(rows.shape, dtype=bool)
    np.not_equal(rows[:, 1:], rows[:, :-1], out=starts[:, 1:])
    edges = starts.reshape(-1).nonzero()[0]
    counts = np.diff(edges, append=rows.size)
    terms = counts * np.log2(counts / rows.shape[1])
    bits = np.zeros(len(rows))
    end = 0
    for row, runs in enumerate(starts.sum(axis=1).tolist()):
        end += runs
        if runs > 1:
            bits[row] = -terms[end - runs:end].sum()
    if symbols.ndim == 1:
        return float(bits[0])
    return bits.reshape(symbols.shape[:-1])


def reconstruct_block(original: np.ndarray, predictor: np.ndarray,
                      qstep: float) -> tuple[np.ndarray, np.ndarray]:
    """Transform-code the prediction residuals of one block or a stack.

    residual -> 8x8 DCT-II (orthonormal) -> uniform quantization -> inverse
    -> predictor + coded residual, clamped to [0, 255] and rounded to the
    8-bit grid.  ``original`` is (..., s, s), and ``predictor`` broadcasts
    against it; a stack is coded in one transform call, each block as it
    would be alone.  Returns (reconstructed blocks uint8, quantized levels
    (..., tiles, 8, 8)); the levels make the path replayable, and a
    block's coefficient bits are `_entropy_bits` of its levels, which the
    caller takes when it needs them.  A step or a coefficient that
    `check_qstep` refuses raises `ValueError`.
    """
    residual = np.asarray(original, dtype=np.float64) - predictor
    coeffs = dct_8x8(_tile_8x8(residual))
    check_qstep(qstep, np.abs(coeffs).max(initial=0.0))
    levels = np.asarray(np.rint(coeffs / qstep), dtype=np.int32)
    return decode_block(predictor, levels, qstep), levels


def decode_block(predictor: np.ndarray, levels: np.ndarray,
                 qstep: float) -> np.ndarray:
    """Decoder-side counterpart of `reconstruct_block`: ``levels`` is
    (..., tiles, 8, 8) and ``predictor`` broadcasts against its blocks."""
    coded = idct_8x8(levels.astype(np.float64) * qstep)
    return to_samples(predictor + _untile_8x8(coded, predictor.shape[-1]))


def _grid(raster: np.ndarray, s: int) -> np.ndarray:
    """The (rows, columns, s, s) view of ``raster`` as a grid of blocks;
    ``_grid(r, s)[by, bx]`` reads or writes blocks."""
    h, w = raster.shape
    return raster.reshape(h // s, s, w // s, s).swapaxes(1, 2)


@dataclass(frozen=True)
class BlockTrace:
    mv: MotionVector
    refined: bool
    levels: np.ndarray


# The `EncoderConfig` fields that replay reads, which a trace records.
_REPLAYED = ("block_size", "refinement", "extrapolation", "mu", "rho")


@dataclass(frozen=True)
class EncodeTrace:
    """Everything a decoder needs to replay one encode pass: its coded
    data, and the settings of the pass that replay reads."""
    qstep: float
    intra_qstep: float
    intra_levels: np.ndarray   # (n_blocks, tiles, 8, 8)
    frames: tuple              # per P-frame tuple of BlockTrace
    dims: tuple                # (width, height)
    block_size: int
    refinement: str
    extrapolation: extrapolate.ExtrapolationParams | None
    mu: float
    rho: float


@dataclass(frozen=True)
class FrameStats:
    """One coded P-frame.  ``refine_seconds`` is the wall time of the
    frame's `refine_blocks` calls, one per wave."""

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


def _intra_predictor(s: int) -> np.ndarray:
    """The predictor of every block of the intra frame: flat mid-grey."""
    return np.full((s, s), 128.0)


def _encode_intra(frame: Plane, qstep: float, blocks: list):
    """Store the first frame against `_intra_predictor`, in one transform
    call."""
    s = blocks[0].size
    recon = np.empty((frame.height, frame.width), np.uint8)
    grid = _grid(recon, s)
    rec, levels = reconstruct_block(
        _grid(frame.data, s).reshape(-1, s, s), _intra_predictor(s), qstep)
    grid[...] = rec.reshape(grid.shape)
    return Plane(recon), levels


# No path calls `_mc_chroma`: `encode_pass` carries its reconstruction as
# luma only, since no output reads a chroma plane.  It stays defined only
# because the benchmark's span tracer wraps it by name (`codec.chroma`).
def _mc_chroma(prev: Frame, decisions, block_size: int) -> tuple:
    """Carry chroma by plain MC with halved displacements (no residual).

    A halved in-range luma vector never leaves the chroma plane.  Returns
    ``(None, None)`` for a frame without chroma.
    """
    if prev.u is None or prev.v is None:
        return None, None
    blocks = frame_blocks(prev.u.width, prev.u.height, block_size // 2)
    vectors = [d.mv.for_chroma() for d in decisions]
    return tuple(Plane(to_samples(_compensate_frame(comp, blocks, vectors)))
                 for comp in (prev.u, prev.v))


def encode_pass(frames, config: EncoderConfig, qstep: float, qp: float, *,
                collect_trace: bool = False,
                predictor_sink: list | None = None):
    """One closed-loop encode of the sequence at a single quantizer step.

    Returns (RDPoint, per-frame stats, EncodeTrace | None).  Rate covers
    P-frames only (coefficient + motion + flag bits).  The pass codes the
    intra frame itself, at the finest step of ``config``'s ladder, so
    every pass of a ladder codes the same one; it is excluded from both
    the rate and the PSNR mean.  When ``predictor_sink`` is a list, the
    encoder's per-frame predictor rasters are appended to it — the
    reference a decoder-side replay has to reproduce.

    Each P-frame starts with a `search_frame` pre-pass against the previous
    reconstruction, and every block is motion compensated from it.  The
    blocks are then coded in `coding_order`, the rule replay follows: the
    blocks that read nothing of their own frame's reconstruction come
    first, as one group, and the refined blocks follow wave by wave (their
    `dependency_levels`).  Without refinement that first group is every
    block, so a P-frame is one group; with it, the group is the blocks
    with no reconstructed neighbour (`r_empty`), and each wave after it
    holds the blocks of one wavefront level.  Per group the refinable
    blocks are refined in one `refine_blocks` call, `_switch` writes each
    block's predictor into the frame's predictor raster, and the group is
    transform-coded in one `reconstruct_block` call.  After the last
    group one `_entropy_bits` call takes every block's coefficient bits,
    and they are summed in line-scan order, so the result equals coding
    block by block in line-scan order.  ``FrameStats.refine_seconds``
    times the refinement calls.  The reconstruction is carried to the
    next frame as luma only.  A quantizer step `check_qstep` refuses and
    fewer than two frames raise `ValueError`, and a frame the block grid
    does not tile or whose size differs from the first frame's raises
    `GeometryError`, all before any block is searched or coded.
    """
    check_qstep(qstep)
    s = config.block_size
    blocks = _shared_blocks([frame.y for frame in frames], s)
    first = frames[0].y
    intra_qstep = min(config.qsteps)
    prev, intra_levels = _encode_intra(first, intra_qstep, blocks)

    nx, ny = first.width // s, first.height // s
    refine = config.refinement != "none"
    waits = []
    if refine:
        layouts = [build_layout(first, block) for block in blocks]
        waits = [i for i, layout in enumerate(layouts) if not layout.r_empty]
    total_bits = 0.0
    stats = []
    trace_frames = []
    for t in range(1, len(frames)):
        cur = frames[t].y
        recon_y = np.zeros((cur.height, cur.width), np.uint8)
        pred_y = np.empty((cur.height, cur.width))
        originals, recon_grid = _grid(cur.data, s), _grid(recon_y, s)
        pred_grid = _grid(pred_y, s)
        decisions = [None] * len(blocks)
        levels = np.empty((len(blocks), *_level_shape(s)), np.int32)
        refined = {}
        refine_total = 0.0
        motion = search_frame(cur, prev, blocks, config.search)
        mc = _grid(_compensate_frame(prev, blocks, [mv for mv, _ in motion]),
                   s)

        def code(group):
            _switch(group, motion, originals, mc, refined, decisions,
                    pred_grid)
            at = np.divmod(group, nx)
            recon_grid[at], levels[group] = reconstruct_block(
                originals[at], pred_grid[at], qstep)

        # the top-left block has no neighbour, so `free` is never empty
        free, *waves = coding_order(nx, ny, waits)
        code(free)
        for wave in waves:
            t0 = time.perf_counter()
            refined.update((i, result.block) for i, result in zip(
                wave, refine_blocks(wave, layouts, recon_y, mc, config)))
            refine_total += time.perf_counter() - t0
            code(wave)
        # Added one by one in line-scan order, so the float sum does not
        # depend on the schedule.
        frame_bits = 0.0
        for bits in _entropy_bits(levels.reshape(len(blocks), -1)).tolist():
            frame_bits += bits
        frame_bits += _side_bits(decisions, nx, refine)
        total_bits += frame_bits
        refined_n = sum(d.refined for d in decisions)
        stats.append(FrameStats(
            index=t, bits=frame_bits,
            psnr_db=psnr(cur.data, recon_y),
            refined_fraction=refined_n / len(decisions),
            refine_seconds=refine_total))
        prev = Plane(recon_y)
        if collect_trace:
            trace_frames.append(tuple(
                BlockTrace(mv=d.mv, refined=d.refined, levels=block_levels)
                for d, block_levels in zip(decisions, levels)))
        if predictor_sink is not None:
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
                            dims=(first.width, first.height),
                            **{name: getattr(config, name)
                               for name in _REPLAYED})
    return point, stats, trace


def encode_sequence(frames, config: EncoderConfig):
    """Closed-loop encode over the whole quantizer ladder.

    One `encode_pass` per QP of ``config``'s ladder, each coding the same
    intra frame itself.  Returns (RDCurve sorted by rate, per-(qp, frame)
    stats list).  Needs at least two frames (IPPP); `encode_pass` gives
    the trace of one pass.
    """
    points = []
    all_stats = []
    for qp, qstep in zip(config.qps, config.qsteps):
        point, stats, _ = encode_pass(frames, config, qstep, qp)
        points.append(point)
        all_stats.append((qp, stats))
    points.sort(key=lambda p: p.rate_kbps)
    return RDCurve(label=config.refinement, points=tuple(points)), all_stats


# ---------------------------------------------------------------------------
# Decoder-side replay
# ---------------------------------------------------------------------------

def _check_trace(trace: EncodeTrace, count: int) -> None:
    """Raise `ValueError` for a quantizer step of ``trace`` that
    `check_qstep` refuses, and `GeometryError` unless the intra frame and
    every P-frame hold the levels of ``count`` blocks, the block count of
    the trace's ``dims``, each of the trace's block size."""
    check_qstep(trace.qstep)
    check_qstep(trace.intra_qstep)
    width, height = trace.dims
    tiles = _level_shape(trace.block_size)
    where = f"a {width}x{height} frame of {count} blocks of levels {tiles}"
    if np.shape(trace.intra_levels) != (count,) + tiles:
        raise GeometryError(f"the intra levels {np.shape(trace.intra_levels)}"
                            f" do not fit {where}")
    for t, frame in enumerate(trace.frames, start=1):
        shapes = {np.shape(bt.levels) for bt in frame}
        if len(frame) != count or shapes - {tiles}:
            raise GeometryError(
                f"P-frame {t} holds {len(frame)} blocks of levels "
                f"{sorted(shapes)}, which do not fit {where}")


def replay_trace(trace: EncodeTrace, config: EncoderConfig):
    """Regenerate predictors and reconstructions from the trace alone.

    Uses only decoder-visible data: motion vectors, refinement flags and
    quantized levels.  Motion search and the RD switch are *not* re-run; the
    refinement engine is, reading reconstructed samples only.  A block
    coded without refinement needs nothing but its MC block and levels, so
    every such block of a frame is decoded first, in one `decode_block`
    call.  Only refined blocks chain through the engine: they are refined
    by their depth among the frame's refined blocks (`dependency_levels`
    of those blocks), each level in one `refine_blocks` call and one
    `decode_block` call.  The intra frame is decoded in one call too.
    Returns the list of per-frame predictor rasters and reconstructed
    planes.  A ``config`` whose block size, refinement, engine parameters,
    ``mu`` or ``rho`` differ from those the pass recorded in ``trace``
    raises `ValueError` before anything is decoded, and so does a trace
    that `_check_trace` refuses.
    """
    for name in _REPLAYED:
        coded, given = getattr(trace, name), getattr(config, name)
        if coded != given:
            raise ValueError(f"the trace was coded with {name} {coded!r}, "
                             f"which a config with {name} {given!r} cannot "
                             f"replay")
    width, height = trace.dims
    s = trace.block_size
    blocks = frame_blocks(width, height, s)
    _check_trace(trace, len(blocks))
    nx, ny = width // s, height // s
    layouts = [build_layout(trace.dims, block) for block in blocks]
    recon = np.empty((height, width), np.uint8)
    grid = _grid(recon, s)
    grid[...] = decode_block(_intra_predictor(s), trace.intra_levels,
                             trace.intra_qstep).reshape(grid.shape)
    prev = Plane(recon)
    predictors, recons = [], []
    for frame_trace in trace.frames:
        recon_y = np.zeros((height, width), np.uint8)
        predictor = _compensate_frame(prev, blocks,
                                      [bt.mv for bt in frame_trace])
        pred_grid, recon_grid = _grid(predictor, s), _grid(recon_y, s)

        def decode(part):
            at = np.divmod(part, nx)
            recon_grid[at] = decode_block(
                pred_grid[at], np.stack([frame_trace[i].levels for i in part]),
                trace.qstep)

        plain, *levels = coding_order(
            nx, ny, [i for i, bt in enumerate(frame_trace) if bt.refined])
        if plain:
            decode(plain)
        for level in levels:
            pred_grid[np.divmod(level, nx)] = [r.block for r in refine_blocks(
                level, layouts, recon_y, pred_grid, config)]
            decode(level)
        predictors.append(predictor)
        recons.append(Plane(recon_y))
        prev = recons[-1]
    return predictors, recons
