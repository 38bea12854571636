"""Full-search block motion estimation and motion compensation.

Displacements are stored in sub-pel units: ``scale`` is 1 for integer-pel
search and 2 for half-pel, so a vector (dx=3, dy=-1) at scale 2 means a
displacement of (+1.5, -0.5) samples.  Half-pel samples come from bilinear
interpolation on an edge-replicated grid.  The search is exhaustive over the
clamped window at the selected resolution and minimises the sum of absolute
differences.

The search is exact integer arithmetic.  It reads the reference through
`Plane.quarter_grid`, which holds 4x every (interpolated) sample as int16:
bilinear half-pel values are multiples of 1/4, so the scaled values are
integers in [0, 1020].  A difference of two such values lies in
[-1020, 1020] and its absolute value fits int16 exactly.  Per candidate,
the |differences| are added pairwise in int16 until each partial sum covers
up to 32 samples (at most 32 * 1020 = 32640 <= 32767), and those partial
sums are added in int32 (at most 261120 for a 16x16 block).  The reported
SAD is the integer sum / 4, the same dyadic rational a float32 search
gives, so comparisons and ties are exact.

The candidate SADs of one block are computed a chunk of displacement rows
at a time (15 of the 65 rows for a 16x16 block at +/-16 half-pel) in a
per-thread scratch buffer of 512 KB that is allocated once and reused.
One ``(n_dy, s, s, n_dx)`` temporary for the whole window would be 2.2 MB;
a fresh allocation that size lands above the C allocator's mmap threshold
and is page-faulted again on every call, which costs as much as the
arithmetic, and it does not stay in the L2 cache between the passes over
it.  The displacement ``dx`` is the innermost axis, so the subtraction
streams along contiguous grid rows.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .frame import BlockRef, GeometryError, Plane


def check_subpel(subpel: int) -> None:
    """Raise `ValueError` unless ``subpel`` is 1 (integer-pel) or 2 (half-pel)."""
    if subpel not in (1, 2):
        raise ValueError(f"subpel must be 1 or 2, got {subpel}")


@dataclass(frozen=True)
class SearchParams:
    """Exhaustive-search window: +/- ``search_range`` samples, SAD metric."""

    search_range: int = 16
    subpel: int = 2  # 1 = integer-pel, 2 = half-pel

    def __post_init__(self):
        if self.search_range < 1:
            raise ValueError("search range must be >= 1")
        check_subpel(self.subpel)


@dataclass(frozen=True)
class MotionVector:
    """Block displacement in sub-pel units (dx columns, dy rows)."""

    dx: int
    dy: int
    scale: int = SearchParams.subpel  # 1 integer-pel, 2 half-pel

    def __post_init__(self):
        check_subpel(self.scale)

    @property
    def dx_samples(self) -> float:
        return self.dx / self.scale

    @property
    def dy_samples(self) -> float:
        return self.dy / self.scale

    def for_chroma(self) -> "MotionVector":
        """Displacement for half-resolution chroma, on its half-pel grid.

        A luma displacement of d samples is d/2 chroma samples, i.e. exactly
        ``dx`` chroma half-pel units at scale 1 and ``rint(dx/2)`` units at
        scale 2.
        """
        if self.scale == 1:
            return MotionVector(dx=self.dx, dy=self.dy, scale=2)
        return MotionVector(dx=int(np.rint(self.dx / 2)),
                            dy=int(np.rint(self.dy / 2)), scale=2)


def _window(plane: Plane, block: BlockRef, params: SearchParams):
    """Clamped displacement bounds keeping the block footprint in-frame."""
    s, scale = block.size, params.subpel
    r = params.search_range * scale
    dy_lo = max(-r, -scale * block.y0)
    dy_hi = min(r, scale * (plane.height - s - block.y0))
    dx_lo = max(-r, -scale * block.x0)
    dx_hi = min(r, scale * (plane.width - s - block.x0))
    return dy_lo, dy_hi, dx_lo, dx_hi


_CHUNK_BYTES = 1 << 19    # scratch per thread for one chunk of |differences|
_INT16_TERMS = 32         # 32 * 1020 <= 32767: partial sums exact in int16
_scratch = threading.local()


def _scratch_buffer(size: int) -> np.ndarray:
    buf = getattr(_scratch, "buf", None)
    if buf is None or buf.size < size:
        buf = _scratch.buf = np.empty(size, np.int16)
    return buf[:size]


def _sad_table(candidates: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Integer SAD of every candidate, a chunk of displacement rows at a time.

    ``candidates`` is an ``(n_dy, s, s, n_dx)`` int16 view, ``target`` the
    ``(s, s, 1)`` int16 block; returns the ``(n_dy, n_dx)`` int32 table.
    """
    n_dy, s, _, n_dx = candidates.shape
    n = s * s  # |differences| per candidate, a power of two
    rows = min(n_dy, max(1, _CHUNK_BYTES // (2 * n * n_dx)))
    diff = _scratch_buffer(rows * n * n_dx).reshape(rows, s, s, n_dx)
    terms = diff.reshape(rows, n, n_dx)
    sad = np.empty((n_dy, n_dx), np.int32)
    for r0 in range(0, n_dy, rows):
        k = min(rows, n_dy - r0)
        d = diff[:k]
        np.subtract(candidates[r0:r0 + k], target, out=d)
        np.abs(d, out=d)
        part, m = terms[:k], n
        while m > 1 and n // m < _INT16_TERMS:  # m partials of n // m terms
            m //= 2
            np.add(part[:, :m], part[:, m:2 * m], out=part[:, :m])
        np.add.reduce(part[:, :m], axis=1, dtype=np.int32,
                      out=sad[r0:r0 + k])
    return sad


def estimate(current: Plane, reference: Plane, block: BlockRef,
             params: SearchParams = SearchParams()
             ) -> tuple[MotionVector, float]:
    """Exhaustive SAD search for the best displacement of one block.

    Ties are broken by smallest |dx|+|dy|, then dy, then dx, so a static
    scene always yields the zero vector.  Returns the winning vector and its
    SAD.
    """
    scale = params.subpel
    grid = reference.quarter_grid(scale)
    target = 4 * current.block(block).astype(np.int16)[:, :, None]
    dy_lo, dy_hi, dx_lo, dx_hi = _window(reference, block, params)
    s = block.size
    s0, s1 = grid.strides
    # candidates[dy, i, j, dx] = grid[y + dy + scale*i, x + scale*j + dx]
    candidates = as_strided(
        grid[scale * block.y0 + dy_lo:, scale * block.x0 + dx_lo:],
        shape=(dy_hi - dy_lo + 1, s, s, dx_hi - dx_lo + 1),
        strides=(s0, scale * s0, scale * s1, s1),
    )
    sad = _sad_table(candidates, target)
    best = sad.min()
    ties = np.argwhere(sad == best)
    if ties.shape[0] == 1:
        iy, ix = ties[0]
    else:
        dy_t = ties[:, 0] + dy_lo
        dx_t = ties[:, 1] + dx_lo
        pick = np.lexsort((dx_t, dy_t, np.abs(dx_t) + np.abs(dy_t)))[0]
        iy, ix = ties[pick]
    mv = MotionVector(dx=int(ix + dx_lo), dy=int(iy + dy_lo), scale=scale)
    return mv, int(best) / 4


def compensate(reference: Plane, block: BlockRef, mv: MotionVector) -> np.ndarray:
    """Displaced block from the reference as a float raster.

    Half-pel positions are bilinear; border half-pel samples replicate the
    frame edge.  The block footprint must stay inside the frame.
    """
    s, scale = block.size, mv.scale
    y = scale * block.y0 + mv.dy
    x = scale * block.x0 + mv.dx
    limit_y = scale * (reference.height - s)
    limit_x = scale * (reference.width - s)
    if not (0 <= y <= limit_y and 0 <= x <= limit_x):
        raise GeometryError(
            f"displacement ({mv.dx}, {mv.dy})/{scale} moves block "
            f"({block.x0}, {block.y0}) outside the reference")
    grid = reference.quarter_grid(scale)
    return grid[y:y + scale * s:scale, x:x + scale * s:scale] * 0.25


# ---------------------------------------------------------------------------
# Displacement rate proxy: exponential-Golomb code lengths
# ---------------------------------------------------------------------------

def _unsigned_golomb_bits(value: int) -> int:
    # order-0 exp-Golomb: 2*floor(log2(v+1)) + 1 bits
    return 2 * (value + 1).bit_length() - 1


def signed_golomb_bits(value: int) -> int:
    """Code length of a signed exp-Golomb codeword (0 -> 1 bit)."""
    mapped = 2 * value - 1 if value > 0 else -2 * value
    return _unsigned_golomb_bits(mapped)


def mv_bits(mv: MotionVector, predictor: MotionVector | None) -> int:
    """Rate estimate for one vector, differentially coded against the left
    neighbour (zero vector at the start of a block row).  The predictor is
    converted into this vector's resolution before differencing."""
    if predictor is None:
        pdx = pdy = 0
    else:
        pdx = round(predictor.dx * mv.scale / predictor.scale)
        pdy = round(predictor.dy * mv.scale / predictor.scale)
    return signed_golomb_bits(mv.dx - pdx) + signed_golomb_bits(mv.dy - pdy)
