import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcrefine import motion
from mcrefine.codec import frame_blocks, search_frame
from mcrefine.frame import BlockRef, GeometryError, Plane
from mcrefine.motion import (MotionVector, SearchParams, _lower_bounds,
                             _quarter_grid, _sad_table, _subblock_sums,
                             _window, compensate, estimate, mv_bits,
                             signed_golomb_bits)


def sad_oracle(current, reference, block, mv):
    """Direct SAD: float32 interpolation grid, python-side difference."""
    cur = current.block(block).astype(np.float64)
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

    @pytest.mark.parametrize("search_range", [3, 64])
    @pytest.mark.parametrize("subpel", [1, 2])
    @pytest.mark.parametrize("size", [8, 16])
    def test_chroma_vectors_of_border_blocks_stay_in_frame(
            self, rng, size, subpel, search_range):
        # Every corner of a border block's clamped search window is an
        # in-range luma vector; halved for 4:2:0 chroma it must still
        # compensate the co-located chroma block inside the chroma plane.
        luma = Plane(rng.integers(0, 256, size=(48, 64), dtype=np.uint8))
        chroma = Plane(rng.integers(0, 256, size=(24, 32), dtype=np.uint8))
        params = SearchParams(search_range=search_range, subpel=subpel)
        border = [b for b in frame_blocks(64, 48, size)
                  if b.x0 in (0, 64 - size) or b.y0 in (0, 48 - size)]
        assert len(border) == (10 if size == 16 else 24)
        for block in border:
            cblock = BlockRef(block.x0 // 2, block.y0 // 2, size // 2)
            dy_lo, dy_hi, dx_lo, dx_hi = _window(luma, block, params)
            for dy in (dy_lo, dy_hi):
                for dx in (dx_lo, dx_hi):
                    mv = MotionVector(dx, dy, scale=subpel)
                    compensate(luma, block, mv)
                    got = compensate(chroma, cblock, mv.for_chroma())
                    assert got.shape == (size // 2, size // 2)


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
        cur_grid = ref.quarter_grid(2) * np.float32(0.25)
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
        cur_f = cur.block(block).astype(np.float64)
        assert np.abs(cur_f - got).sum() <= np.abs(cur_f - planted).sum() + 1e-6


def table_oracle(current, reference, block, params):
    """The exhaustive `_sad_table` over the clamped window, on candidates
    cut by fancy indexing, with the tie rule as a plain `min` over
    (SAD, |dx|+|dy|, dy, dx).  Returns ((dx, dy, SAD), SAD table, window
    origin in grid units)."""
    scale, s = params.subpel, block.size
    dy_lo, dy_hi, dx_lo, dx_hi = _window(reference, block, params)
    dy = np.arange(dy_lo, dy_hi + 1)[:, None, None, None]
    dx = np.arange(dx_lo, dx_hi + 1)[None, None, None, :]
    i = np.arange(s)[None, :, None, None]
    j = np.arange(s)[None, None, :, None]
    grid = reference.quarter_grid(scale)
    candidates = grid[scale * (block.y0 + i) + dy, scale * (block.x0 + j) + dx]
    target = 4 * current.block(block).astype(np.int16)
    sad = _sad_table(candidates, target[:, :, None])
    _, _, y, x = min((sad[a, b], abs(y) + abs(x), y, x)
                     for a, y in enumerate(range(dy_lo, dy_hi + 1))
                     for b, x in enumerate(range(dx_lo, dx_hi + 1)))
    origin = (scale * block.y0 + dy_lo, scale * block.x0 + dx_lo)
    return (x, y, sad[y - dy_lo, x - dx_lo] / 4), sad, origin


# `estimate` as it runs and with survivors gathered four at most to a
# chunk (at blocks of 8), so that the threshold falls between many chunks.
SEARCH_PATHS = {"as is": {}, "small chunks": {"_CHUNK_BYTES": 4 * 2 * 8 * 8}}


def estimate_each_way(current, reference, block, params):
    """``(dx, dy, sad)`` of `estimate` along every search path."""
    got = {}
    for name, constants in SEARCH_PATHS.items():
        with pytest.MonkeyPatch.context() as mp:
            for attr, value in constants.items():
                mp.setattr(motion, attr, value)
            mv, sad = estimate(current, reference, block, params)
        assert mv.scale == params.subpel
        got[name] = (mv.dx, mv.dy, sad)
    return got


def content(kind, rng, shape):
    """Reference and current samples of one drawn kind."""
    if kind == "noise":      # uniform noise: the bound prunes almost nothing
        return rng.integers(0, 256, size=(2,) + shape, dtype=np.uint8)
    if kind == "flat":       # every candidate ties
        return np.broadcast_to(rng.integers(0, 256, size=(2, 1, 1),
                                            dtype=np.uint8), (2,) + shape)
    if kind == "checker":    # the inverse matches at every odd shift
        y, x = np.indices(shape)
        board = np.where((y + x) % 2, 200, 40).astype(np.uint8)
        return np.stack([board, 240 - board])
    if kind == "extreme":    # 0/255 samples: the largest |differences|
        return (255 * rng.integers(0, 2, size=(2,) + shape)).astype(np.uint8)
    # a shifted smooth pattern plus noise: the bound prunes most candidates
    y, x = np.indices((shape[0] + 8, shape[1] + 8))
    smooth = 128 + 90 * np.sin(y / 3.1 + rng.uniform(0, 6)) * np.cos(x / 2.3)
    dy, dx = rng.integers(0, 9, size=2)
    noisy = smooth + rng.normal(0, 3, size=smooth.shape)
    cur = noisy[dy:dy + shape[0], dx:dx + shape[1]]
    ref = smooth[4:4 + shape[0], 4:4 + shape[1]]
    return np.clip(np.rint(np.stack([ref, cur])), 0, 255).astype(np.uint8)


class TestPrunedSearch:
    """`estimate` scores only candidates its lower bound cannot rule out;
    it must still return the exhaustive minimum and its tie-break."""

    @given(size=st.sampled_from([8, 16, 32]), subpel=st.sampled_from([1, 2]),
           extra=st.tuples(st.integers(0, 40), st.integers(0, 40)),
           where=st.tuples(st.floats(0, 1), st.floats(0, 1)),
           search_range=st.integers(1, 10),
           kind=st.sampled_from(["noise", "flat", "checker", "extreme",
                                 "shifted"]),
           seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=80)
    def test_equals_exhaustive_minimum(self, size, subpel, extra, where,
                                       search_range, kind, seed):
        # frames up to 40 samples wider or taller than the block, the
        # block anywhere on the grid: windows clamp at every border
        shape = (size + extra[0], size + extra[1])
        ref, cur = (Plane(a) for a in content(
            kind, np.random.default_rng(seed), shape))
        block = BlockRef(size * int(where[1] * (shape[1] // size - 1) + 0.5),
                         size * int(where[0] * (shape[0] // size - 1) + 0.5),
                         size)
        params = SearchParams(search_range=search_range, subpel=subpel)
        want, sad, origin = table_oracle(cur, ref, block, params)
        bound = _lower_bounds(ref, 4 * cur.block(block).astype(np.int16),
                              origin, sad.shape, subpel)
        assert bound.shape == sad.shape and (bound <= sad).all()
        got = estimate_each_way(cur, ref, block, params)
        assert got == dict.fromkeys(SEARCH_PATHS, want)
        if sad.size <= 100:
            mv, sad_o = search_oracle(cur, ref, block, params)
            assert (mv.dx, mv.dy, sad_o) == want

    @pytest.mark.parametrize("subpel", [1, 2])
    def test_flat_plane_ties_everywhere(self, subpel):
        ref = Plane(np.full((48, 64), 90, np.uint8))
        cur = Plane(np.full((48, 64), 77, np.uint8))
        for block in (BlockRef(16, 16), BlockRef(0, 0), BlockRef(48, 32)):
            got = estimate_each_way(cur, ref, block, SearchParams(
                search_range=16, subpel=subpel))
            assert set(got.values()) == {(0, 0, 13.0 * 256)}

    def test_checkerboard_ties_break_on_dy(self):
        y, x = np.mgrid[0:48, 0:48]
        board = np.where((y + x) % 2, 200, 40).astype(np.uint8)
        got = estimate_each_way(Plane(240 - board), Plane(board),
                                BlockRef(16, 16),
                                SearchParams(search_range=3, subpel=1))
        assert set(got.values()) == {(0, -1, 0.0)}

    @pytest.mark.parametrize("size", [8, 16])
    def test_noise_is_scored_in_several_chunks(self, rng, size):
        # uniform noise: nearly every candidate survives the bound, so the
        # search works through many chunks and must stay exact
        ref, cur = (Plane(a) for a in
                    rng.integers(0, 256, size=(2, 64, 64), dtype=np.uint8))
        block = BlockRef(2 * size, size, size)
        params = SearchParams(search_range=8, subpel=2)
        want, sad, origin = table_oracle(cur, ref, block, params)
        bound = _lower_bounds(ref, 4 * cur.block(block).astype(np.int16),
                              origin, sad.shape, 2)
        survivors = np.count_nonzero(bound <= 4 * want[2])
        chunk = SEARCH_PATHS["small chunks"]["_CHUNK_BYTES"] \
            // (2 * size * size)
        assert survivors > 10 * chunk
        assert estimate_each_way(cur, ref, block, params) \
            == dict.fromkeys(SEARCH_PATHS, want)

    @pytest.mark.parametrize("size", [1, 2, 4])
    def test_blocks_without_sub_blocks_or_with_one(self, rng, size):
        # below 4 samples there is no bound and every candidate is scored;
        # at 4 the bound is a single sub-block sum
        ref, cur = (Plane(a) for a in
                    rng.integers(0, 256, size=(2, 12, 12), dtype=np.uint8))
        for subpel in (1, 2):
            params = SearchParams(search_range=2, subpel=subpel)
            block = BlockRef(4, 4, size) if size < 4 else BlockRef(4, 8, 4)
            mv, sad = search_oracle(cur, ref, block, params)
            assert set(estimate_each_way(cur, ref, block, params).values()) \
                == {(mv.dx, mv.dy, sad)}

    def test_alternating_references_of_one_shape(self):
        # the sum table of the last reference is kept; a search against
        # another plane of the same shape must not read it.  A stale table
        # of the flat plane would bound every candidate of the wave above
        # its true minimum.
        y, x = np.mgrid[0:40, 0:40]
        wave = (128 + 100 * np.sin(y / 3.0 + x / 5.0)).astype(np.uint8)
        cur = Plane(np.roll(wave, (1, 2), axis=(0, 1)))
        params = SearchParams(search_range=4, subpel=2)
        block = BlockRef(16, 16, 8)
        for ref in [Plane(np.full((40, 40), 255, np.uint8)),
                    Plane(wave)] * 2:
            mv, sad = search_oracle(cur, ref, block, params)
            got, got_sad = estimate(cur, ref, block, params)
            assert (got.dx, got.dy, got_sad) == (mv.dx, mv.dy, sad)


class TestSubblockSums:
    @pytest.mark.parametrize("subpel", [1, 2])
    def test_match_brute_force(self, rng, subpel):
        data = rng.integers(0, 256, size=(13, 11), dtype=np.uint8)
        p = Plane(data)
        grid = p.quarter_grid(subpel).astype(int)
        sums = _subblock_sums(p, subpel)
        assert sums.shape == (13 * subpel - 3 * subpel,
                              11 * subpel - 3 * subpel)
        want = np.zeros(sums.shape, int)
        for y in range(sums.shape[0]):
            for x in range(sums.shape[1]):
                want[y, x] = sum(grid[y + subpel * i, x + subpel * j]
                                 for i in range(4) for j in range(4))
        np.testing.assert_array_equal(sums, want)
        # the far corner: the last sub-block a block at the bottom-right
        # edge of the frame covers, its samples at the grid's last phase
        last = subpel * 3
        assert sums[-1, -1] == grid[-1 - last::subpel, -1 - last::subpel].sum()

    def test_kept_for_the_last_reference_readonly_int16(self):
        p = Plane(np.full((12, 20), 255, np.uint8))
        for subpel in (1, 2):
            sums = _subblock_sums(p, subpel)
            assert sums is _subblock_sums(p, subpel)
            assert sums.dtype == np.int16
            assert (sums == 16 * 1020).all()   # the largest sum, exact
            with pytest.raises(ValueError):
                sums[0, 0] = 0
        # another reference, or another resolution, gets its own table
        other = Plane(np.zeros((12, 20), np.uint8))
        assert (_subblock_sums(other, 2) == 0).all()
        assert (_subblock_sums(p, 2) == 16 * 1020).all()
        assert _subblock_sums(p, 1).shape == (9, 17)

    def test_one_grid_kept_for_the_last_reference(self, rng):
        # estimate, compensate and the sub-block sums of one reference
        # read one grid; the next reference replaces it
        p = Plane(rng.integers(0, 256, size=(12, 20), dtype=np.uint8))
        grid = _quarter_grid(p, 2)
        assert grid is _quarter_grid(p, 2)
        np.testing.assert_array_equal(grid, p.quarter_grid(2))
        with pytest.raises(ValueError):
            grid[0, 0] = 0
        sums = _subblock_sums(p, 2)
        block = BlockRef(4, 4, 4)
        mv, _ = estimate(p, p, block, SearchParams(search_range=2))
        compensate(p, block, mv)
        assert _quarter_grid(p, 2) is grid and _subblock_sums(p, 2) is sums
        other = Plane(p.data[::-1])
        assert _quarter_grid(other, 2) is not grid
        assert _quarter_grid(p, 1) is _quarter_grid(p, 1)
        assert _quarter_grid(p, 2) is not grid

    def test_plane_narrower_than_a_sub_block(self):
        assert _subblock_sums(Plane(np.zeros((3, 8), np.uint8)), 1).shape \
            == (0, 5)


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
