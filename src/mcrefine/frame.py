"""Sample rasters, macroblock geometry and distortion metrics.

Frames are processed macroblock by macroblock in line-scan order (left to
right, top to bottom).  Around the block currently being predicted, a square
working area of 3x3 macroblocks is laid out.  Neighbouring blocks that have
already been transmitted carry usable samples; the centre block holds the
preliminary temporal predictor; everything else is padding and must never
influence any result.  A `ProjectionLayout` is therefore just the block plus
the availability of its four causal neighbours; its extents, origin and
region labels are derived from those two fields.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

# Region labels inside the 3x3-macroblock working area.
REGION_PAD = 0  # not transmitted yet, or outside the frame
REGION_R = 1    # reconstructed neighbour samples
REGION_B = 2    # the block being predicted

# Tile (row, column) of the working area, in block units, that each neighbour
# of `ProjectionLayout.availability` occupies: left, top-left, top, top-right.
NEIGHBOUR_TILES = ((1, 0), (0, 0), (0, 1), (0, 2))

# The availabilities that `build_layout` gives a block with a decoded
# neighbour: left only (top row), top only (a frame one block wide), top and
# top-right (left column), all but top-right (right column) and all four.
CAUSAL_PATTERNS = ((True, False, False, False), (False, False, True, False),
                   (False, False, True, True), (True, True, True, False),
                   (True, True, True, True))


class GeometryError(ValueError):
    """Block placement inconsistent with the frame geometry."""


class SampleError(ValueError):
    """Sample values that cannot be stored as 8-bit samples."""


def is_integer(value) -> bool:
    """Whether ``value`` is an integer; a bool is not one."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def check_count(name: str, value) -> None:
    """Raise `ValueError` unless ``value`` is a positive integer."""
    if not is_integer(value) or value < 1:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")


def check_real(name: str, value, error: type = ValueError) -> None:
    """Raise ``error`` unless ``value`` is a real number; a bool is not
    one."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise error(f"{name} must be a real number, got {value!r}")


def check_positive(name: str, value, error: type = ValueError) -> None:
    """Raise ``error`` unless ``value`` is a real number (`check_real`),
    finite and positive (NaN is not)."""
    check_real(name, value, error)
    if not 0.0 < value < math.inf:
        raise error(f"{name} must be finite and positive, got {value}")


def to_samples(values) -> np.ndarray:
    """``values`` rounded to the nearest integer (halves to even) and
    clamped to [0, 255], as 8-bit samples: the one rounding of decoded
    blocks, compensated chroma and synthetic frames."""
    return np.clip(np.rint(values), 0, 255).astype(np.uint8)


class Plane:
    """Immutable 8-bit sample raster (one colour component of a frame).

    Stores samples row-major as ``uint8``; every computation promotes to
    a wider type.  A plane keeps nothing but its samples: derived rasters
    such as `quarter_grid` are computed on each call, and motion search
    keeps the quarter grid of the reference it last read
    (`motion._tables`), so a plane held for later costs no more
    than its samples.
    """

    __slots__ = ("data",)

    def __init__(self, data):
        arr = np.asarray(data)
        if arr.ndim != 2:
            raise ValueError(f"plane must be 2-D, got shape {arr.shape}")
        if arr.dtype != np.uint8:
            if not np.issubdtype(arr.dtype, np.number):
                raise ValueError(f"plane dtype {arr.dtype} is not numeric")
            if not np.isfinite(arr).all():
                raise SampleError("plane samples must be finite")
            if arr.size and (arr.min() < 0 or arr.max() > 255):
                raise SampleError("plane samples must lie in [0, 255]")
            arr = np.asarray(np.rint(arr), dtype=np.uint8)
        else:
            arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("Plane is immutable")

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]

    def block(self, ref: "BlockRef") -> np.ndarray:
        """Read-only view of the samples covered by ``ref``."""
        return self.data[ref.y0:ref.y0 + ref.size, ref.x0:ref.x0 + ref.size]

    def quarter_grid(self, subpel: int) -> np.ndarray:
        """Sample grid at ``1/subpel`` resolution in int16 quarter units.

        Every value is 4x the sample (``subpel`` 1) or 4x the bilinear
        half-pel sample (``subpel`` 2), which is an integer: two-tap
        averages become 2(a + b) and four-tap averages a + b + c + d.  The
        values lie in [0, 1020].  At ``subpel`` 2 the bottom and right
        borders are edge-replicated, so the grid has shape
        ``(2*height, 2*width)`` and every half-pel position is defined.
        A new array on every call: the plane keeps no copy.
        """
        a = self.data.astype(np.int16)
        if subpel == 1:
            return 4 * a
        a = np.pad(a, ((0, 1), (0, 1)), mode="edge")
        here, right = a[:-1, :-1], a[:-1, 1:]
        below, diagonal = a[1:, :-1], a[1:, 1:]
        grid = np.empty((2 * self.height, 2 * self.width), np.int16)
        grid[0::2, 0::2] = 4 * here
        grid[0::2, 1::2] = 2 * (here + right)
        grid[1::2, 0::2] = 2 * (here + below)
        grid[1::2, 1::2] = here + right + below + diagonal
        return grid

    def __repr__(self):
        return f"Plane({self.width}x{self.height})"


@dataclass(frozen=True)
class Frame:
    """One video frame: a luma plane plus optional 4:2:0 chroma planes."""

    y: Plane
    u: Plane | None = None
    v: Plane | None = None

    def __post_init__(self):
        for c in (self.u, self.v):
            if c is not None and (c.width != self.y.width // 2
                                  or c.height != self.y.height // 2):
                raise ValueError("chroma planes must be half the luma size")


@dataclass(frozen=True)
class BlockRef:
    """Position of one macroblock, aligned to the block grid."""

    x0: int
    y0: int
    size: int = 16

    def __post_init__(self):
        if not all(map(is_integer, (self.x0, self.y0, self.size))):
            raise GeometryError(f"block origin ({self.x0!r}, {self.y0!r}) "
                                f"and size {self.size!r} must be integers")
        if self.size < 1 or (self.size & (self.size - 1)) != 0:
            raise GeometryError(f"block size {self.size} is not a power of two")
        if self.x0 < 0 or self.y0 < 0:
            raise GeometryError(f"negative block origin ({self.x0}, {self.y0})")
        if self.x0 % self.size or self.y0 % self.size:
            raise GeometryError(
                f"block origin ({self.x0}, {self.y0}) not aligned to size {self.size}")


@dataclass(frozen=True)
class ProjectionLayout:
    """The 3x3-macroblock working area around one block.

    The area is fixed by two facts: the block, and which of its four causal
    neighbours (left, top-left, top, top-right) have been transmitted inside
    the frame.  Everything else follows from them.  ``region_map`` labels
    every sample of the area as REGION_B (the centre block), REGION_R (an
    available neighbour) or REGION_PAD.  ``origin`` is the frame coordinate
    of the area's top-left corner and may stick out of the frame;
    out-of-frame samples are always PAD.
    """

    block: BlockRef
    availability: tuple[bool, bool, bool, bool]  # left, top-left, top, top-right

    @property
    def m(self) -> int:
        return 3 * self.block.size

    @property
    def n(self) -> int:
        return 3 * self.block.size

    @property
    def origin(self) -> tuple[int, int]:
        """(y, x) of area sample [0, 0] in frame coordinates."""
        return self.block.y0 - self.block.size, self.block.x0 - self.block.size

    @property
    def region_map(self) -> np.ndarray:
        return _region_map(self.block.size, self.availability)

    @property
    def r_empty(self) -> bool:
        return not any(self.availability)

    @property
    def block_slices(self) -> tuple[slice, slice]:
        """Slices of the centre block within the working area."""
        s = self.block.size
        return slice(s, 2 * s), slice(s, 2 * s)


@lru_cache(maxsize=64)
def _region_map(size: int, availability: tuple[bool, bool, bool, bool]) -> np.ndarray:
    """Read-only region labels of a working area, shared by every layout of
    the same block size and availability."""
    reg = np.full((3 * size, 3 * size), REGION_PAD, np.uint8)
    for (ty, tx), present in zip(NEIGHBOUR_TILES, availability):
        if present:
            reg[ty * size:(ty + 1) * size, tx * size:(tx + 1) * size] = REGION_R
    reg[size:2 * size, size:2 * size] = REGION_B
    reg.setflags(write=False)
    return reg


def build_layout(frame_dims, block: BlockRef) -> ProjectionLayout:
    """Lay out the working area for ``block`` inside a frame.

    Parameters
    ----------
    frame_dims : (width, height) pair or any object with width/height
    block : BlockRef

    Only neighbours that exist inside the frame *and* precede the block in
    line-scan order become REGION_R; the four blocks at and below the current
    scan position are still untransmitted and stay PAD, as do neighbours that
    fall outside the frame.
    """
    if hasattr(frame_dims, "width"):
        width, height = frame_dims.width, frame_dims.height
    else:
        width, height = frame_dims
    check_inside(block, width, height)
    s = block.size
    left = block.x0 >= s
    top = block.y0 >= s
    return ProjectionLayout(block, (
        left,
        left and top,
        top,
        top and block.x0 + 2 * s <= width,
    ))


def check_inside(block: BlockRef, width: int, height: int) -> None:
    """Raise `GeometryError` unless ``block`` lies inside a ``width`` x
    ``height`` frame."""
    if block.x0 + block.size > width or block.y0 + block.size > height:
        raise GeometryError(f"block ({block.x0}, {block.y0}) size "
                            f"{block.size} exceeds frame {width}x{height}")


def batch_block_size(layouts) -> int:
    """The one block size of the working areas ``layouts``; `ValueError`
    for none, or for more than one size."""
    sizes = {layout.block.size for layout in layouts}
    if not sizes:
        raise ValueError("a batch needs at least one working area")
    if len(sizes) > 1:
        raise ValueError("a batch takes one block size")
    return sizes.pop()


def mse(a, b) -> float | np.ndarray:
    """Mean squared sample difference of two equally sized rasters, as a
    float; of two (k, s, s) stacks, each pair's, as an array.

    The mean is over the last two axes, so each block of a stack gets
    bitwise its own 2-D ``mse``: the one error measure of the per-block
    switch and of PSNR.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    d = a - b
    d *= d
    m = d.mean(axis=(-2, -1))
    return float(m) if m.ndim == 0 else m


def psnr(reference, test, peak: float = 255.0) -> float:
    """Peak signal-to-noise ratio in dB; identical inputs give ``inf``."""
    m = mse(reference, test)
    if m == 0.0:
        return float("inf")
    return float(10.0 * np.log10(peak * peak / m))
