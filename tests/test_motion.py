import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcrefine.codec import frame_blocks, search_frame
from mcrefine.frame import BlockRef, GeometryError, Plane
from mcrefine.motion import (MotionVector, SearchParams, compensate, estimate,
                             mv_bits, signed_golomb_bits)


def sad_oracle(current, reference, block, mv):
    """Direct SAD: float32 interpolation grid, python-side difference."""
    cur = current.as_float32()[block.y0:block.y0 + block.size,
                               block.x0:block.x0 + block.size]
    cand = compensate(reference, block, mv)
    return float(np.abs(cur.astype(np.float64) - cand).sum())


def search_oracle(current, reference, block, params):
    """Exhaustive loop over every candidate the estimator may consider,
    with the same tie rule: smallest |dx|+|dy|, then dy, then dx."""
    scale = params.subpel
    r = params.search_range * scale
    h, w = reference.height, reference.width
    best = None
    for dy in range(max(-r, -scale * block.y0),
                    min(r, scale * (h - block.size - block.y0)) + 1):
        for dx in range(max(-r, -scale * block.x0),
                        min(r, scale * (w - block.size - block.x0)) + 1):
            mv = MotionVector(dx, dy, scale=scale)
            sad = sad_oracle(current, reference, block, mv)
            key = (sad, abs(dx) + abs(dy), dy, dx)
            if best is None or key < best[0]:
                best = (key, mv, sad)
    return best[1], best[2]


class TestMotionVector:
    def test_sample_units(self):
        mv = MotionVector(3, -2, scale=2)
        assert mv.dx_samples == 1.5 and mv.dy_samples == -1.0
        mv = MotionVector(3, -2, scale=1)
        assert mv.dx_samples == 3.0 and mv.dy_samples == -2.0

    @pytest.mark.parametrize("dx,expected", [(0, 0), (1, 0), (2, 1), (3, 2),
                                             (4, 2), (5, 2), (-3, -2)])
    def test_chroma_halving(self, dx, expected):
        # half-sample luma units -> half-sample chroma units, round-to-even
        mv = MotionVector(dx, 0, scale=2).for_chroma()
        assert mv.scale == 2
        assert mv.dx == expected

    def test_chroma_from_full_pel(self):
        mv = MotionVector(3, -1, scale=1).for_chroma()
        # full-pel luma becomes half-pel chroma of the same displacement
        assert mv.scale == 2 and (mv.dx, mv.dy) == (3, -1)

    def test_scale_and_subpel_share_one_rule(self):
        with pytest.raises(ValueError) as vector:
            MotionVector(0, 0, scale=3)
        with pytest.raises(ValueError) as search:
            SearchParams(subpel=3)
        assert str(vector.value) == str(search.value) \
            == "subpel must be 1 or 2, got 3"
        assert MotionVector(0, 0).scale == SearchParams().subpel


class TestCompensate:
    def test_integer_vector_is_a_shift(self, rng):
        ref = Plane(rng.integers(0, 256, size=(48, 48), dtype=np.uint8))
        block = BlockRef(16, 16, size=16)
        got = compensate(ref, block, MotionVector(2, -3, scale=1))
        want = ref.data[13:29, 18:34].astype(np.float64)
        np.testing.assert_array_equal(got, want)

    def test_even_halfpel_equals_integer(self, rng):
        ref = Plane(rng.integers(0, 256, size=(48, 48), dtype=np.uint8))
        block = BlockRef(16, 16, size=16)
        a = compensate(ref, block, MotionVector(4, -6, scale=2))
        b = compensate(ref, block, MotionVector(2, -3, scale=1))
        np.testing.assert_array_equal(a, b)

    def test_half_position_is_average(self):
        data = np.zeros((48, 48), np.uint8)
        data[:, 17] = 100  # single bright column
        ref = Plane(data)
        block = BlockRef(16, 16, size=16)
        got = compensate(ref, block, MotionVector(1, 0, scale=2))
        # sample (y, 0) of the block sits between columns 16 and 17
        assert got[0, 0] == 50.0
        assert got[0, 1] == 50.0  # between 17 and 18

    def test_out_of_frame_raises(self, rng):
        ref = Plane(rng.integers(0, 256, size=(48, 48), dtype=np.uint8))
        block = BlockRef(0, 0, size=16)
        with pytest.raises(GeometryError):
            compensate(ref, block, MotionVector(-1, 0, scale=2))
        with pytest.raises(GeometryError):
            compensate(ref, block, MotionVector(0, 65, scale=2))


class TestEstimate:
    def test_recovers_integer_shift(self, rng):
        base = rng.integers(0, 256, size=(64, 64), dtype=np.uint8)
        ref = Plane(base)
        cur = Plane(np.roll(base, (2, -3), axis=(0, 1)))
        block = BlockRef(16, 16, size=16)
        mv, sad = estimate(cur, ref, block, SearchParams(search_range=8))
        assert (mv.dy_samples, mv.dx_samples) == (-2.0, 3.0)
        assert sad == 0.0

    def test_matches_exhaustive_oracle(self, rng):
        ref = Plane(rng.integers(0, 256, size=(40, 40), dtype=np.uint8))
        cur = Plane(rng.integers(0, 256, size=(40, 40), dtype=np.uint8))
        block = BlockRef(16, 16, size=8)
        for params in (SearchParams(search_range=3, subpel=2),
                       SearchParams(search_range=4, subpel=1)):
            mv, sad = estimate(cur, ref, block, params)
            mv_o, sad_o = search_oracle(cur, ref, block, params)
            assert sad == pytest.approx(sad_o, abs=1e-3)
            assert (mv.dx, mv.dy, mv.scale) == (mv_o.dx, mv_o.dy, mv_o.scale)

    @pytest.mark.parametrize("size", [8, 16, 32, 64])
    def test_extreme_samples_sad(self, size):
        # the largest |difference| on every sample: 65280 = 256 * 255 at 16
        ref = Plane(np.full((3 * size, 3 * size), 255, np.uint8))
        cur = Plane(np.zeros((3 * size, 3 * size), np.uint8))
        for subpel in (1, 2):
            mv, sad = estimate(cur, ref, BlockRef(size, size, size=size),
                               SearchParams(search_range=2, subpel=subpel))
            assert sad == 255.0 * size * size and type(sad) is float
            assert (mv.dx, mv.dy) == (0, 0)

    def test_tie_break_order(self):
        # a checkerboard matches its inverse at every odd shift: the four
        # shifts with |dx| + |dy| == 1 tie at SAD 0, and dy breaks the tie
        y, x = np.mgrid[0:48, 0:48]
        board = np.where((y + x) % 2, 200, 40).astype(np.uint8)
        ref, cur = Plane(board), Plane(240 - board)
        params = SearchParams(search_range=3, subpel=1)
        mv, sad = estimate(cur, ref, BlockRef(16, 16), params)
        assert (mv.dx, mv.dy, sad) == (0, -1, 0.0)
        mv_o, _ = search_oracle(cur, ref, BlockRef(16, 16), params)
        assert (mv_o.dx, mv_o.dy) == (0, -1)

    @pytest.mark.parametrize("subpel", [1, 2])
    @pytest.mark.parametrize("size", [8, 16])
    def test_frame_prepass_matches_oracle(self, rng, subpel, size):
        # 3x2 blocks in a frame smaller than the window: every block is
        # clamped, the right and bottom ones against the far edges
        width, height = 3 * size, 2 * size
        ref = Plane(rng.integers(0, 256, size=(height, width), dtype=np.uint8))
        cur = Plane(np.roll(ref.data, (1, -2), axis=(0, 1)))
        params = SearchParams(search_range=size // 4 + 1, subpel=subpel)
        blocks = frame_blocks(width, height, size)
        got = search_frame(cur, ref, blocks, params)
        for block, (mv, sad) in zip(blocks, got):
            mv_o, sad_o = search_oracle(cur, ref, block, params)
            assert (mv.dx, mv.dy, mv.scale) == (mv_o.dx, mv_o.dy, mv_o.scale)
            assert sad == sad_o

    def test_zero_bias_on_flat_plane(self):
        ref = Plane(np.full((48, 48), 77, np.uint8))
        cur = Plane(np.full((48, 48), 77, np.uint8))
        mv, sad = estimate(cur, ref, BlockRef(16, 16), SearchParams())
        assert (mv.dx, mv.dy) == (0, 0)
        assert sad == 0.0

    def test_corner_block_clamps_window(self, rng):
        ref = Plane(rng.integers(0, 256, size=(48, 48), dtype=np.uint8))
        cur = Plane(rng.integers(0, 256, size=(48, 48), dtype=np.uint8))
        for block in (BlockRef(0, 0), BlockRef(32, 32), BlockRef(32, 0)):
            mv, _ = estimate(cur, ref, block, SearchParams(search_range=16))
            # whatever was chosen must be compensable in-frame
            out = compensate(ref, block, mv)
            assert out.shape == (16, 16)

    @given(st.integers(-4, 4), st.integers(-4, 4))
    @settings(max_examples=20)
    def test_finds_planted_halfpel_shift(self, dx, dy):
        # plant a smooth pattern so half-sample interpolation is exact-ish
        y, x = np.mgrid[0:64, 0:64]
        base = (128 + 60 * np.sin(2 * np.pi * y / 32)
                * np.cos(2 * np.pi * x / 32))
        ref = Plane(base.astype(np.uint8))
        cur_grid = ref.half_pel()
        block = BlockRef(24, 24, size=8)
        # cut the current block from the shifted half-pel grid
        ys, xs = 2 * block.y0 + dy, 2 * block.x0 + dx
        cur_block = cur_grid[ys:ys + 16:2, xs:xs + 16:2]
        cur_data = np.zeros((64, 64), np.uint8)
        cur_data[block.y0:block.y0 + 8,
                 block.x0:block.x0 + 8] = np.rint(cur_block)
        cur = Plane(cur_data)
        mv, sad = estimate(cur, ref, block, SearchParams(search_range=4))
        got = compensate(ref, block, mv)
        planted = compensate(ref, block, MotionVector(dx, dy, scale=2))
        # the estimator can do no worse than the planted shift
        cur_f = cur.as_float32()[block.y0:block.y0 + 8,
                                 block.x0:block.x0 + 8].astype(np.float64)
        assert np.abs(cur_f - got).sum() <= np.abs(cur_f - planted).sum() + 1e-6


class TestBitCounts:
    @pytest.mark.parametrize("value,bits", [
        (0, 1), (1, 3), (-1, 3), (2, 5), (-2, 5), (3, 5), (-3, 5), (4, 7),
        (7, 7), (8, 9), (-8, 9),
    ])
    def test_signed_golomb_table(self, value, bits):
        assert signed_golomb_bits(value) == bits

    def test_golomb_monotone(self):
        widths = [signed_golomb_bits(v) for v in range(0, 200)]
        assert all(b <= a for a, b in zip(widths[1:], widths))  # non-decreasing

    def test_mv_bits_differential(self):
        a = MotionVector(4, -2, scale=2)
        b = MotionVector(4, -2, scale=2)
        # identical predictor -> two zero residuals -> 1 bit each
        assert mv_bits(a, b) == 2
        assert mv_bits(a, None) == signed_golomb_bits(4) + signed_golomb_bits(-2)

    def test_mv_bits_mixed_scale(self):
        full = MotionVector(2, 1, scale=1)   # = (4, 2) in half-pel units
        half = MotionVector(4, 2, scale=2)
        assert mv_bits(half, full) == 2
