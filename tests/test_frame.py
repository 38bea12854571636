import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from mcrefine.frame import (REGION_B, REGION_PAD, REGION_R, BlockRef, Frame,
                            GeometryError, Plane, SampleError, build_layout,
                            mse, psnr)


def half_pel_oracle(data):
    """Per-sample bilinear interpolation, edge replicated, written naively."""
    h, w = data.shape
    a = data.astype(np.float32)
    out = np.empty((2 * h, 2 * w), np.float32)
    for yy in range(2 * h):
        for xx in range(2 * w):
            y0, x0 = yy // 2, xx // 2
            y1, x1 = min(y0 + 1, h - 1), min(x0 + 1, w - 1)
            if yy % 2 == 0 and xx % 2 == 0:
                out[yy, xx] = a[y0, x0]
            elif yy % 2 == 0:
                out[yy, xx] = (a[y0, x0] + a[y0, x1]) / 2
            elif xx % 2 == 0:
                out[yy, xx] = (a[y0, x0] + a[y1, x0]) / 2
            else:
                out[yy, xx] = (a[y0, x0] + a[y0, x1]
                               + a[y1, x0] + a[y1, x1]) / 4
    return out


class TestPlane:
    def test_stores_uint8_readonly(self, rng):
        p = Plane(rng.integers(0, 256, size=(6, 8), dtype=np.uint8))
        assert p.data.dtype == np.uint8
        assert p.width == 8 and p.height == 6
        with pytest.raises(ValueError):
            p.data[0, 0] = 1

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            Plane(np.zeros((4, 4, 3), np.uint8))
        with pytest.raises(ValueError):
            Plane(np.full((4, 4), 300.0))
        with pytest.raises(ValueError):
            Plane(np.full((4, 4), -1.0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_samples(self, bad):
        with pytest.raises(SampleError, match="finite"):
            Plane([[bad, 1.0], [2.0, 3.0]])
        assert issubclass(SampleError, ValueError)

    def test_quarter_grid_is_four_times_the_samples(self, rng):
        data = rng.integers(0, 256, size=(7, 5), dtype=np.uint8)
        p = Plane(data)
        np.testing.assert_array_equal(p.quarter_grid(1), 4 * data.astype(int))
        np.testing.assert_array_equal(p.quarter_grid(2),
                                      4 * half_pel_oracle(data))
        assert p.quarter_grid(2).dtype == np.int16

    def test_rounds_float_input(self):
        p = Plane(np.full((2, 2), 7.6))
        assert p.data[0, 0] == 8

    def test_immutable(self, rng):
        p = Plane(rng.integers(0, 256, size=(4, 4), dtype=np.uint8))
        with pytest.raises(AttributeError):
            p.data = np.zeros((4, 4), np.uint8)

    def test_block_view(self, rng):
        data = rng.integers(0, 256, size=(32, 32), dtype=np.uint8)
        p = Plane(data)
        ref = BlockRef(16, 8, size=8)
        np.testing.assert_array_equal(p.block(ref), data[8:16, 16:24])


class TestFrame:
    def test_chroma_must_be_half_size(self, rng):
        y = Plane(rng.integers(0, 256, size=(16, 16), dtype=np.uint8))
        u = Plane(rng.integers(0, 256, size=(8, 8), dtype=np.uint8))
        Frame(y, u, u)  # fits
        bad = Plane(rng.integers(0, 256, size=(16, 16), dtype=np.uint8))
        with pytest.raises(ValueError):
            Frame(y, bad, bad)

    def test_luma_only_allowed(self, rng):
        f = Frame(Plane(rng.integers(0, 256, size=(8, 8), dtype=np.uint8)))
        assert f.u is None and f.v is None


class TestBlockRef:
    def test_alignment_enforced(self):
        BlockRef(32, 48, size=16)
        with pytest.raises(GeometryError):
            BlockRef(10, 16, size=16)
        with pytest.raises(GeometryError):
            BlockRef(-16, 0, size=16)
        with pytest.raises(GeometryError):
            BlockRef(0, 0, size=12)


def region_map_oracle(size, block, width, height):
    """Label the 3x3 working area sample by sample: a neighbour block is R
    exactly when it lies fully inside the frame and precedes the centre
    block in line-scan order."""
    m = 3 * size
    reg = np.full((m, m), REGION_PAD, np.uint8)
    oy, ox = block.y0 - size, block.x0 - size
    for by in range(3):
        for bx in range(3):
            y, x = oy + by * size, ox + bx * size
            inside = 0 <= y and 0 <= x and y + size <= height and x + size <= width
            precedes = by == 0 or (by == 1 and bx == 0)
            if by == 1 and bx == 1:
                reg[size:2 * size, size:2 * size] = REGION_B
            elif inside and precedes:
                reg[by * size:(by + 1) * size, bx * size:(bx + 1) * size] = REGION_R
    return reg


class TestLayout:
    @pytest.mark.parametrize("x0,y0,expect", [
        (0, 0, (False, False, False, False)),     # top-left corner
        (16, 0, (True, False, False, False)),     # top edge
        (0, 16, (False, False, True, True)),      # left edge
        (16, 16, (True, True, True, True)),       # interior
        (48, 16, (True, True, True, False)),      # right edge: no top-right
        (48, 32, (True, True, True, False)),
        (16, 32, (True, True, True, True)),
    ])
    def test_availability(self, x0, y0, expect):
        lay = build_layout((64, 48), BlockRef(x0, y0, size=16))
        assert lay.availability == expect

    @pytest.mark.parametrize("x0,y0", [(0, 0), (16, 0), (0, 16), (16, 16),
                                       (48, 16), (48, 32)])
    def test_region_map_against_oracle(self, x0, y0):
        block = BlockRef(x0, y0, size=16)
        lay = build_layout((64, 48), block)
        np.testing.assert_array_equal(
            lay.region_map, region_map_oracle(16, block, 64, 48))

    def test_region_partition(self):
        lay = build_layout((96, 96), BlockRef(16, 16, size=16))
        counts = np.bincount(lay.region_map.ravel(), minlength=3)
        assert counts[REGION_B] == 256
        assert counts[REGION_R] == 4 * 256
        assert counts[REGION_PAD] == 9 * 256 - 5 * 256

    def test_origin_and_slices(self):
        lay = build_layout((96, 96), BlockRef(32, 48, size=16))
        assert lay.origin == (32, 16)
        sl = lay.block_slices
        assert (sl[0].start, sl[0].stop) == (16, 32)

    def test_accepts_object_with_dims(self, rng):
        p = Plane(rng.integers(0, 256, size=(48, 64), dtype=np.uint8))
        lay = build_layout(p, BlockRef(16, 16, size=16))
        assert lay.m == lay.n == 48

    def test_block_outside_frame(self):
        with pytest.raises(GeometryError):
            build_layout((64, 48), BlockRef(64, 0, size=16))

    def test_r_empty_only_at_first_block(self):
        assert build_layout((64, 48), BlockRef(0, 0)).r_empty
        assert not build_layout((64, 48), BlockRef(16, 0)).r_empty


class TestMetrics:
    def test_mse_known_value(self):
        a = np.zeros((4, 4))
        b = np.full((4, 4), 2.0)
        assert mse(a, b) == 4.0

    def test_mse_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            mse(np.zeros((4, 4)), np.zeros((4, 5)))

    def test_psnr_of_unit_mse(self):
        a = np.zeros((16, 16))
        b = np.ones((16, 16))
        # MSE 1 against an 8-bit peak: 20*log10(255)
        assert abs(psnr(a, b) - 48.1308) < 0.01

    def test_psnr_identical_is_inf(self, rng):
        a = rng.integers(0, 256, size=(8, 8))
        assert psnr(a, a) == float("inf")

    @given(hnp.arrays(np.float64, (6, 6),
                      elements=st.floats(0, 255, allow_nan=False)),
           hnp.arrays(np.float64, (6, 6),
                      elements=st.floats(0, 255, allow_nan=False)))
    def test_mse_symmetry_nonneg(self, a, b):
        assert mse(a, b) == mse(b, a) >= 0.0

    @given(st.integers(1, 100))
    def test_psnr_monotone_in_error(self, amp):
        base = np.zeros((8, 8))
        off1 = np.full((8, 8), float(amp))
        off2 = np.full((8, 8), float(amp + 1))
        assert psnr(base, off1) > psnr(base, off2)

    def test_psnr_custom_peak(self):
        a, b = np.zeros((4, 4)), np.ones((4, 4))
        assert abs(psnr(a, b, peak=1.0) - 0.0) < 1e-12
        assert abs(psnr(a, b, peak=255.0)
                   - (psnr(a, b, peak=1.0) + 20 * math.log10(255))) < 1e-9
