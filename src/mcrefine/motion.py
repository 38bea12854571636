"""Block motion estimation (exact pruned search) and motion compensation.

Displacements are stored in sub-pel units: ``scale`` is 1 for integer-pel
search and 2 for half-pel, so a vector (dx=3, dy=-1) at scale 2 means a
displacement of (+1.5, -0.5) samples.  Half-pel samples come from bilinear
interpolation on an edge-replicated grid.  The search minimises the sum of
absolute differences (SAD) over the clamped window at the selected
resolution and returns the exhaustive minimum, but scores only the
candidates that a lower bound cannot rule out.

All arithmetic is exact integer arithmetic.  The reference is read through
its quarter grid (`Plane.quarter_grid`), which holds 4x every
(interpolated) sample as int16: bilinear half-pel values are multiples of
1/4, so the scaled values are integers in [0, 1020].  A difference of two
such values lies in [-1020, 1020] and its absolute value fits int16
exactly; a candidate's SAD is their sum in int32 (at most 4096 * 1020 for
a 64x64 block).  The reported SAD is that integer / 4, the same dyadic
rational a float32 search gives, so comparisons and ties are exact.

Pruning is the successive elimination algorithm (Li & Salari, IEEE TIP
1995) at the 4x4 level of its multilevel form (Gao, Duanmu & Zou, IEEE TIP
2000).  Split the block into 4x4 sub-blocks.  The |differences| inside one
sub-block add up to at least |candidate sub-block sum - target sub-block
sum|, so the sum of those terms over the sub-blocks is a lower bound of the
candidate's SAD.  `_subblock_sums` tabulates the sub-block sum at every
grid position of the reference; the sums lie in [0, 16320], their
differences and a pair of |differences| fit int16, and a bound is summed in
int32.  One strided view of that table gives the bound of every candidate
of a block at once.

Both derived tables are kept per thread for one reference only, the one
last read: `_quarter_grid` keeps its quarter grid and `_subblock_sums`
its sub-block sums beside it.  Beside them `_search_views` keeps, for one
block size, two strided views of those tables that cover every block
position: the 4-D candidate view of the grid and the sub-block-sum view
of the table.  `estimate` slices its block's window out of both, so a
search makes no view of its own and no table is copied.  `search_frame`
searches every block of a frame against one reference and `compensate`
then reads the same one, so `estimate`, `compensate` and
`_subblock_sums` share one grid per frame, and moving to the next
reference frees the last one's tables and views; no plane keeps a grid,
however many planes a caller holds.

The zero vector and the candidate of smallest bound are scored first; their
best SAD is the threshold.  Only candidates whose bound is at most the
threshold are then scored, a chunk at a time, and the threshold falls to
the best SAD so far.  A candidate whose bound exceeds the threshold has a
SAD above the minimum.  Every candidate that ties the minimum has a bound
at most the minimum, so keeping candidates on ``<=`` rather than ``<``
scores every tie, and the tie rule picks the same vector as the exhaustive
search.  Each chunk gathers its candidates into a fresh int16 array of at
most 512 KB, where they are differenced in place; no temporary is larger.
On content that prunes weakly (uniform noise, flat areas) nearly every
candidate is gathered, which costs more than the exhaustive search.

The bound is computed a chunk of displacement rows at a time in a
per-thread scratch buffer of 512 KB that is allocated once and reused.  The
displacement ``dx`` is the innermost axis, so the subtraction streams along
contiguous table rows.  `_sad_table`, the exhaustive search that the tests
hold `estimate` to, is a plain int32 sum of |candidates - target|.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .frame import (BlockRef, GeometryError, Plane, check_count, check_inside,
                    is_integer)


def check_subpel(subpel: int) -> None:
    """Raise `ValueError` unless ``subpel`` is the integer 1 (integer-pel)
    or 2 (half-pel)."""
    if not is_integer(subpel) or subpel not in (1, 2):
        raise ValueError(f"subpel must be 1 or 2, got {subpel!r}")


@dataclass(frozen=True)
class SearchParams:
    """Search window: +/- ``search_range`` samples, SAD metric."""

    search_range: int = 16
    subpel: int = 2  # 1 = integer-pel, 2 = half-pel

    def __post_init__(self):
        check_count("search range", self.search_range)
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


_CHUNK_BYTES = 1 << 19    # one chunk of int16 |differences|
_SUB = 4                  # side of the sub-blocks of the elimination bound
_scratch = threading.local()


def _scratch_buffer(size: int) -> np.ndarray:
    buf = getattr(_scratch, "buf", None)
    if buf is None or buf.size < size:
        buf = _scratch.buf = np.empty(size, np.int16)
    return buf[:size]


def _sad_table(candidates: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Integer SAD of every candidate: the exhaustive search, the reference
    for `estimate`.

    ``candidates`` is an ``(n_dy, s, s, n_dx)`` int16 array, ``target`` the
    ``(s, s, 1)`` int16 block; their |differences| (at most 1020) fit int16
    and are summed into the ``(n_dy, n_dx)`` int32 table.
    """
    return np.abs(candidates - target).sum(axis=(1, 2), dtype=np.int32)


def _quarter_grid(reference: Plane, scale: int) -> np.ndarray:
    """``reference.quarter_grid(scale)``, kept read-only for the calls that
    follow until another reference or resolution is read."""
    kept = getattr(_scratch, "grid", None)
    if kept is not None and kept[0] is reference and kept[1] == scale:
        return kept[2]
    # free the old tables and views before building the new ones
    kept = _scratch.grid = _scratch.sums = _scratch.views = None
    grid = reference.quarter_grid(scale)
    grid.setflags(write=False)
    _scratch.grid = (reference, scale, grid)
    return grid


def _subblock_sums(reference: Plane, scale: int) -> np.ndarray:
    """Sums of 4x4 sub-blocks of the reference's quarter grid, everywhere.

    Entry ``[y, x]`` is the sum of ``quarter_grid(scale)[y + scale*i,
    x + scale*j]`` over i, j in 0..3: the samples that one sub-block of a
    block displaced to grid position (y, x) covers.  The sums lie in
    [0, 16 * 1020] = [0, 16320], so the table is int16.  It has
    ``3*scale`` fewer rows and columns than the grid (none when the grid is
    smaller) and is built from separable strided box sums of the kept
    grid (`_quarter_grid`).  The table is kept, read-only, beside that
    grid.
    """
    kept = getattr(_scratch, "sums", None)
    if kept is not None and kept[0] is reference and kept[1] == scale:
        return kept[2]
    kept = None  # a stale table goes with its grid, before the new one
    grid = _quarter_grid(reference, scale)
    h, w = (max(0, n - (_SUB - 1) * scale) for n in grid.shape)
    taps = [scale * k for k in range(1, _SUB)]
    rows = grid[:, :w].copy()
    for t in taps:
        rows += grid[:, t:t + w]
    sums = rows[:h].copy()
    for t in taps:
        sums += rows[t:t + h]
    sums.setflags(write=False)
    _scratch.sums = (reference, scale, sums)
    return sums


def _search_views(reference: Plane, scale: int, size: int) -> tuple:
    """The candidate and sub-block-sum views of every ``size`` block
    position of the reference's kept tables.

    ``candidates[y, i, j, x]`` is ``grid[y + scale*i, x + scale*j]``, the
    (i, j) sample of the candidate at grid position (y, x); ``sums[u, v,
    y, x]`` is ``table[y + 4*scale*u, x + 4*scale*v]``, the sum of that
    candidate's (u, v) sub-block (None below 4 samples, where a block has
    no sub-block).  Both are read-only views of `_quarter_grid` and
    `_subblock_sums`, kept beside them for one block size and freed with
    them.
    """
    kept = getattr(_scratch, "views", None)
    if kept is not None and kept[0] is reference and kept[1:3] == (scale,
                                                                   size):
        return kept[3:]
    kept = None  # stale views go with their tables, before the new ones
    grid = _quarter_grid(reference, scale)
    reach = scale * (size - 1)
    s0, s1 = grid.strides
    candidates = as_strided(
        grid, shape=(max(0, grid.shape[0] - reach), size, size,
                     max(0, grid.shape[1] - reach)),
        strides=(s0, scale * s0, scale * s1, s1), writeable=False)
    sums = None
    if size >= _SUB:
        table = _subblock_sums(reference, scale)
        a, step = size // _SUB, _SUB * scale
        t0, t1 = table.strides
        reach = step * (a - 1)
        sums = as_strided(
            table, shape=(a, a, max(0, table.shape[0] - reach),
                          max(0, table.shape[1] - reach)),
            strides=(step * t0, step * t1, t0, t1), writeable=False)
    _scratch.views = (reference, scale, size, candidates, sums)
    return candidates, sums


def _lower_bounds(reference: Plane, target: np.ndarray,
                  origin: tuple[int, int], window: tuple[int, int],
                  scale: int) -> np.ndarray:
    """Successive-elimination lower bound of every candidate's SAD.

    For each candidate, the sum over the block's 4x4 sub-blocks of
    |candidate sub-block sum - target sub-block sum|, read from
    `_subblock_sums`.  ``target`` is the block in quarter units,
    ``origin`` the grid position of the first candidate and ``window`` the
    ``(n_dy, n_dx)`` candidate count; returns that shape in int32.
    """
    n_dy, n_dx = window
    s = target.shape[0]
    if s < _SUB:  # no sub-block: no bound, every candidate is scored
        return np.zeros(window, np.int32)
    a = s // _SUB
    n = a * a  # sub-blocks, a power of two
    # sums[u, v, dy, dx] = table[y + dy + 4*scale*u, x + 4*scale*v + dx]
    sums = _search_views(reference, scale, s)[1][
        :, :, origin[0]:origin[0] + n_dy, origin[1]:origin[1] + n_dx]
    own = target.reshape(a, _SUB, a, _SUB).sum(axis=(1, 3), dtype=np.int16)
    rows = min(n_dy, max(1, _CHUNK_BYTES // (2 * n * n_dx)))
    bound = np.empty(window, np.int32)
    for r0 in range(0, n_dy, rows):
        k = min(rows, n_dy - r0)
        diff = _scratch_buffer(n * k * n_dx).reshape(a, a, k, n_dx)
        np.subtract(sums[:, :, r0:r0 + k], own[:, :, None, None], out=diff)
        np.abs(diff, out=diff)
        terms, m = diff.reshape(n, k, n_dx), max(1, n // 2)
        if n > 1:  # pairs of |differences| of sums: 2 * 16320 <= 32767
            np.add(terms[:m], terms[m:], out=terms[:m])
        np.add.reduce(terms[:m], axis=0, dtype=np.int32,
                      out=bound[r0:r0 + k])
    return bound


def estimate(current: Plane, reference: Plane, block: BlockRef,
             params: SearchParams = SearchParams()
             ) -> tuple[MotionVector, float]:
    """Best displacement of one block: the exhaustive SAD minimum, pruned.

    Every candidate of the clamped window first gets a lower bound of its
    SAD (`_lower_bounds`).  The zero vector and the candidate of smallest
    bound are scored exactly, and their best SAD is the first threshold.
    Then only candidates whose bound is at most the threshold are scored,
    in chunks of at most 512 KB of int16 |differences|, and the threshold
    falls to the best SAD found so far.  A candidate whose bound exceeds the
    threshold has a SAD above the minimum, so the result is the exhaustive
    one.  Every candidate whose SAD equals the minimum has a bound at most
    the minimum and is kept (``<=``, not ``<``), so all ties are scored
    and broken as before: by smallest |dx|+|dy|, then dy, then dx.  A
    static scene therefore always yields the zero vector.  Returns the
    winning vector and its SAD.  A block outside the current frame or the
    reference raises `GeometryError` before any search.
    """
    for plane in (current, reference):
        check_inside(block, plane.width, plane.height)
    scale = params.subpel
    target = 4 * current.block(block).astype(np.int16)
    dy_lo, dy_hi, dx_lo, dx_hi = _window(reference, block, params)
    s = block.size
    window = n_dy, n_dx = dy_hi - dy_lo + 1, dx_hi - dx_lo + 1
    origin = (scale * block.y0 + dy_lo, scale * block.x0 + dx_lo)
    # candidates[dy, i, j, dx] = grid[y + dy + scale*i, x + scale*j + dx]
    candidates = _search_views(reference, scale, s)[0][
        origin[0]:origin[0] + n_dy, :, :, origin[1]:origin[1] + n_dx]
    bound = _lower_bounds(reference, target, origin, window, scale).ravel()

    def score(flat: np.ndarray) -> np.ndarray:
        d = candidates[flat // n_dx, :, :, flat % n_dx]   # (k, s, s) gather
        np.subtract(d, target, out=d)
        np.abs(d, out=d)
        return np.add.reduce(d.reshape(flat.size, -1), axis=1,
                             dtype=np.int32)

    best = score(np.array([-dy_lo * n_dx - dx_lo, np.argmin(bound)])).min()
    todo = np.flatnonzero(bound <= best)
    chunk = max(1, _CHUNK_BYTES // (2 * s * s))
    scored, sads = [], []
    while todo.size:
        flat, todo = todo[:chunk], todo[chunk:]
        sad = score(flat)
        best = min(best, sad.min())
        scored.append(flat)
        sads.append(sad)
        todo = todo[bound[todo] <= best]
    scored, sads = np.concatenate(scored), np.concatenate(sads)
    ties = scored[sads == best]
    dy_t, dx_t = ties // n_dx + dy_lo, ties % n_dx + dx_lo
    pick = np.lexsort((dx_t, dy_t, np.abs(dx_t) + np.abs(dy_t)))[0]
    mv = MotionVector(dx=int(dx_t[pick]), dy=int(dy_t[pick]), scale=scale)
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
    grid = _quarter_grid(reference, scale)
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
