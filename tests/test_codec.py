import dataclasses
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcrefine import basis, codec
from mcrefine.bd import BDInputError, bd_metrics
from mcrefine.codec import (DEFAULT_QPS, BlockDecision, EncoderConfig,
                            RDCurve, RDPoint, _entropy_bits, _side_bits,
                            assemble_window, check_qstep, decode_block,
                            dct_8x8, dependency_levels, idct_8x8, encode_pass,
                            encode_sequence, predict_frame, qp_to_qstep,
                            reconstruct_block, replay_trace)
from mcrefine.extrapolate import ExtrapolationParams
from mcrefine.frame import REGION_B, REGION_PAD, REGION_R, BlockRef, \
    GeometryError, build_layout, mse, psnr
from mcrefine.motion import MotionVector, SearchParams, compensate, mv_bits
from mcrefine.videoio import synth_sequence


def dct2_oracle(tile):
    """O(N^4) orthonormal type-2 DCT, straight from the defining sum."""
    n = 8
    out = np.zeros((n, n))
    for u in range(n):
        for v in range(n):
            s = 0.0
            for y in range(n):
                for x in range(n):
                    s += tile[y, x] \
                        * math.cos(math.pi * (2 * y + 1) * u / (2 * n)) \
                        * math.cos(math.pi * (2 * x + 1) * v / (2 * n))
            au = math.sqrt((1 if u else 0.5) * 2 / n)
            av = math.sqrt((1 if v else 0.5) * 2 / n)
            out[u, v] = au * av * s
    return out


def entropy_oracle(symbols):
    values, counts = np.unique(symbols, return_counts=True)
    p = counts / counts.sum()
    h = -sum(pi * math.log2(pi) for pi in p)
    return h * len(symbols)


def tiny_sequence(frames=5, size=64, sigma=5.0, seed=9):
    return synth_sequence("translate", width=size, height=size, frames=frames,
                          seed=seed, velocity=(0.6, 0.4), noise_sigma=sigma)


def fast_config(**kw):
    kw.setdefault("refinement", "msa")
    kw.setdefault("extrapolation",
                  ExtrapolationParams(algorithm="msa", iterations=4))
    kw.setdefault("search", SearchParams(search_range=6))
    kw.setdefault("qps", (22, 28, 34, 40))
    return EncoderConfig(**kw)


class TestQuantizer:
    @pytest.mark.parametrize("qp,qstep", [(4, 1.0), (10, 2.0), (16, 4.0),
                                          (22, 8.0), (28, 16.0), (40, 64.0)])
    def test_qstep_doubles_every_six(self, qp, qstep):
        assert qp_to_qstep(qp) == pytest.approx(qstep, rel=1e-12)

    def test_default_ladder(self):
        assert DEFAULT_QPS == tuple(range(16, 44, 3))
        steps = [qp_to_qstep(q) for q in DEFAULT_QPS]
        assert all(b > a for a, b in zip(steps, steps[1:]))


class TestEncoderConfig:
    def test_defaults(self):
        cfg = EncoderConfig()
        assert cfg.refinement == "msa"
        assert cfg.extrapolation.iterations == 12
        assert cfg.qsteps == tuple(qp_to_qstep(q) for q in cfg.qps)

    def test_validation(self):
        with pytest.raises(ValueError):
            EncoderConfig(refinement="bogus")
        with pytest.raises(ValueError):
            EncoderConfig(qps=(28, 22))
        # named for what it is, not refused by the ordering check
        with pytest.raises(ValueError, match="quantizer ladder is empty"):
            EncoderConfig(qps=())
        for size in (12, 16.0, "16"):
            with pytest.raises(ValueError, match="integer power of two"):
                EncoderConfig(block_size=size)
        for rho in (1.0, 0.0):
            with pytest.raises(basis.ParameterError):
                EncoderConfig(rho=rho)
        # rho is a real number, and a bool is not one
        for rho in ("0.5", None, True):
            with pytest.raises(basis.ParameterError,
                               match="rho must be a real number"):
                EncoderConfig(rho=rho)

    CHECKS = [(check_qstep, ValueError, "quantizer step"),
              (lambda v: EncoderConfig(fps=v), ValueError, "frame rate"),
              (lambda v: EncoderConfig(mu=v), basis.ParameterError,
               "centre-block weight mu")]

    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       -float("inf"), 0.0, -1.0, -30.0])
    @pytest.mark.parametrize("check,error,message", CHECKS,
                             ids=["qstep", "fps", "mu"])
    def test_finite_and_positive(self, check, error, message, value):
        with pytest.raises(ValueError) as caught:
            check(value)
        assert type(caught.value) is error
        assert str(caught.value) == (f"{message} must be finite and "
                                     f"positive, got {value}")

    # a non-number used to raise an untyped TypeError, and a bool passed
    @pytest.mark.parametrize("value", ["30", None, True, False, [1.0]])
    @pytest.mark.parametrize("check,error,message", CHECKS,
                             ids=["qstep", "fps", "mu"])
    def test_real_and_not_bool(self, check, error, message, value):
        with pytest.raises(ValueError) as caught:
            check(value)
        assert type(caught.value) is error
        assert str(caught.value) == (f"{message} must be a real number, "
                                     f"got {value!r}")

    def test_engine_named_once(self):
        with pytest.raises(ValueError, match="does not match"):
            EncoderConfig(refinement="msa",
                          extrapolation=ExtrapolationParams(algorithm="fsa"))
        with pytest.raises(ValueError, match="takes no extrapolation"):
            EncoderConfig(refinement="none",
                          extrapolation=ExtrapolationParams())

    def test_params_cannot_be_changed_after_checks(self):
        cfg = EncoderConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.extrapolation.gamma = 5.0
        assert cfg.extrapolation.gamma == 0.5

    @pytest.mark.parametrize("size", [0, 4, 24, 40, 128, 256])
    def test_block_size_must_be_power_of_two_from_8(self, size):
        # above 64 the engine's factor table alone would take 906 MB or more
        with pytest.raises(ValueError, match="power of two"):
            EncoderConfig(block_size=size)

    def test_block_sizes_from_8_to_64_accepted(self):
        for size in (8, 16, 32, 64):
            assert EncoderConfig(block_size=size).block_size == size

    def test_none_needs_no_params(self):
        cfg = EncoderConfig(refinement="none")
        assert cfg.extrapolation is None

    def test_unknown_refinement_lists_every_choice(self):
        # 'none' is a refinement too, so the message offers it
        with pytest.raises(ValueError) as err:
            EncoderConfig(refinement="quantum")
        assert str(err.value) == ("unknown algorithm 'quantum'; choose from "
                                  "('none', 'fsa', 'rba', 'msa')")


class TestAssembleWindow:
    def test_regions_filled_correctly(self, rng):
        lay = build_layout((64, 64), BlockRef(16, 16, size=16))
        neigh = rng.normal(128, 20, size=(64, 64)).astype(np.float32)
        mc = rng.normal(128, 20, size=(16, 16))
        f = assemble_window(lay, neigh, mc)
        assert f.shape == (48, 48)
        oy, ox = lay.origin
        for y in range(48):
            for x in range(0, 48, 5):
                reg = lay.region_map[y, x]
                if reg == REGION_B:
                    want = mc[y - 16, x - 16]
                elif reg == REGION_R:
                    want = float(neigh[oy + y, ox + x])
                else:
                    want = 0.0
                assert f[y, x] == want

    def test_corner_block_window(self, rng):
        lay = build_layout((64, 64), BlockRef(0, 0, size=16))
        neigh = rng.normal(128, 20, size=(64, 64)).astype(np.float32)
        mc = np.full((16, 16), 99.0)
        f = assemble_window(lay, neigh, mc)
        assert np.all(f[lay.region_map == REGION_PAD] == 0.0)
        np.testing.assert_array_equal(f[16:32, 16:32], mc)


class TestTransform:
    def test_dct_matches_oracle(self, rng):
        tile = rng.normal(0, 50, size=(8, 8))
        np.testing.assert_allclose(dct_8x8(tile[None]), dct2_oracle(tile)[None],
                                   atol=1e-8)

    def test_roundtrip(self, rng):
        tiles = rng.normal(0, 50, size=(6, 8, 8))
        np.testing.assert_allclose(idct_8x8(dct_8x8(tiles)), tiles, atol=1e-10)

    def test_constant_maps_to_dc(self):
        got = dct_8x8(np.full((1, 8, 8), 3.0))
        assert got[0, 0, 0] == pytest.approx(24.0, rel=1e-12)  # 8 * 3
        assert np.abs(got[0].ravel()[1:]).max() < 1e-12


class TestEntropy:
    def test_matches_oracle(self, rng):
        symbols = rng.integers(-4, 5, size=200)
        assert _entropy_bits(symbols) == pytest.approx(
            entropy_oracle(symbols), rel=1e-12)

    def test_degenerate_stream_is_free(self):
        assert _entropy_bits(np.zeros(100, np.int32)) == 0.0

    def test_two_symbol_values(self):
        assert _entropy_bits(np.array([0, 0, 1, 1])) == pytest.approx(4.0)


class TestBlockCoding:
    def test_decoder_matches_encoder_recon(self, rng):
        for qstep in (1.0, 4.0, 16.0, 64.0):
            orig = rng.integers(0, 256, size=(16, 16)).astype(np.float64)
            pred = np.clip(orig + rng.normal(0, 10, size=(16, 16)), 0, 255)
            recon, levels = reconstruct_block(orig, pred, qstep)
            assert recon.dtype == np.uint8
            assert _entropy_bits(levels.reshape(-1)) >= 0.0
            assert levels.dtype == np.int32
            np.testing.assert_array_equal(
                decode_block(pred, levels, qstep), recon)

    def test_fine_quantizer_is_near_lossless(self, rng):
        orig = rng.integers(0, 256, size=(16, 16)).astype(np.float64)
        pred = np.full((16, 16), 128.0)
        recon, _ = reconstruct_block(orig, pred, qstep=0.5)
        assert mse(orig, recon) < 1.0

    @pytest.mark.parametrize("qp", [16, 43])
    def test_stack_codes_each_block_as_alone(self, qp, rng):
        # five 16x16 blocks, the last one constant against its predictor:
        # one symbol, 0 bits; and a stack sharing one flat predictor
        qstep = qp_to_qstep(qp)
        orig = rng.integers(0, 256, size=(5, 16, 16)).astype(np.float64)
        pred = np.clip(orig + rng.normal(0, 12, size=orig.shape), 0, 255)
        orig[4], pred[4] = 77.0, 77.0
        flat = np.full((16, 16), 128.0)
        for predictor, alone in ((pred, list(pred)), (flat, [flat] * 5)):
            recon, levels = reconstruct_block(orig, predictor, qstep)
            bits = _entropy_bits(levels.reshape(5, -1))
            assert bits.shape == (5,) and levels.shape == (5, 4, 8, 8)
            for i, p in enumerate(alone):
                want = reconstruct_block(orig[i], p, qstep)
                np.testing.assert_array_equal(recon[i], want[0])
                assert bits[i] == _entropy_bits(want[1].reshape(-1))
                assert math.copysign(1.0, bits[i]) == 1.0
                np.testing.assert_array_equal(levels[i], want[1])
                np.testing.assert_array_equal(
                    decode_block(p, levels[i], qstep), want[0])
            np.testing.assert_array_equal(
                decode_block(predictor, levels, qstep), recon)
            if predictor is pred:
                assert bits[4] == 0.0 and np.unique(levels[4]).size == 1

    def test_unusable_quantizer_steps_are_refused(self, rng, monkeypatch):
        # a step that is not finite and positive, or whose levels overflow
        # int32, used to code silently (NaN levels cast to int32, or wrapped)
        orig = rng.uniform(0, 255, (16, 16))
        searched = []
        monkeypatch.setattr(codec, "search_frame",
                            lambda *a: searched.append(a))
        frames = tiny_sequence(frames=2)
        for qstep in (float("nan"), float("inf"), -float("inf"), 0.0, -1.0,
                      1e-12):
            with pytest.raises(ValueError, match="quantizer step"):
                reconstruct_block(orig, np.full((16, 16), 128.0), qstep)
            with pytest.raises(ValueError, match="quantizer step"):
                encode_pass(frames, EncoderConfig(refinement="none"), qstep,
                            28)
        assert searched == []
        with pytest.raises(ValueError, match="beyond int32"):
            reconstruct_block(np.full((8, 8), 1e12), np.zeros((8, 8)), 1.0)
        for qps in ((-300, -200, -150, -120), (-120, 28), (28, 10000)):
            with pytest.raises(ValueError, match="quantizer step"):
                EncoderConfig(qps=qps)
        assert EncoderConfig(qps=(-100, 28)).qps == (-100, 28)

    def test_coarse_quantizer_costs_few_bits(self, rng):
        orig = rng.integers(0, 256, size=(16, 16)).astype(np.float64)
        pred = orig.copy()  # perfect prediction -> all-zero levels
        recon, levels = reconstruct_block(orig, pred, qstep=16.0)
        assert np.all(levels == 0)
        assert _entropy_bits(levels.reshape(-1)) == 0.0
        np.testing.assert_array_equal(recon, np.clip(np.rint(pred), 0, 255))


class TestSideBits:
    def make_decision(self, bx, mv, by=0):
        return BlockDecision(bx=bx, by=by, mv=mv, refined=False,
                             mc_mse=0.0, refined_mse=float("nan"))

    def test_flags_and_differential(self):
        mvs = [MotionVector(2, 0), MotionVector(2, 0), MotionVector(-1, 3)]
        decisions = [self.make_decision(i, mv) for i, mv in enumerate(mvs)]
        want_motion = (mv_bits(mvs[0], None) + mv_bits(mvs[1], mvs[0])
                       + mv_bits(mvs[2], mvs[1]))
        assert _side_bits(decisions, n_blocks_x=3, flag_per_block=True) \
            == want_motion + 3
        assert _side_bits(decisions, n_blocks_x=3, flag_per_block=False) \
            == want_motion

    def test_row_resets_predictor(self):
        mv = MotionVector(4, 0)
        stacked = [self.make_decision(0, mv, by=0), self.make_decision(0, mv, by=1)]
        side = [self.make_decision(0, mv), self.make_decision(1, mv)]
        two_rows = _side_bits(stacked, n_blocks_x=1, flag_per_block=False)
        one_row = _side_bits(side, n_blocks_x=2, flag_per_block=False)
        assert two_rows == 2 * mv_bits(mv, None)
        assert one_row == mv_bits(mv, None) + 2  # second one codes (0,0)


class TestPredictFrame:
    def test_refined_never_worse_per_block(self):
        frames = synth_sequence("translate", width=96, height=96, frames=3,
                                seed=0, velocity=(0.8, 0.3), noise_sigma=8.0)
        cfg = fast_config(extrapolation=ExtrapolationParams(algorithm="msa",
                                                            iterations=12))
        fp = predict_frame(frames[2].y, frames[1].y, cfg)
        assert any(d.refined for d in fp.decisions)
        for d in fp.decisions:
            if d.refined:
                assert d.refined_mse < d.mc_mse
            assert np.isfinite(d.mc_mse)

    def test_none_config_skips_refinement(self):
        frames = tiny_sequence(frames=3)
        fp = predict_frame(frames[2].y, frames[1].y,
                           EncoderConfig(refinement="none"))
        assert all(not d.refined for d in fp.decisions)
        np.testing.assert_array_equal(fp.predictor, fp.mc_predictor)

    def test_only_one_job(self):
        frames = tiny_sequence(frames=2)
        with pytest.raises(ValueError, match="jobs must be 1"):
            predict_frame(frames[1].y, frames[0].y, fast_config(), jobs=2)

    @pytest.mark.parametrize("chunk", [codec.REFINE_CHUNK, 3])
    def test_batches_equal_block_by_block(self, chunk, monkeypatch):
        # 4x3 blocks: every availability class, mixed in raster-order
        # chunks; a chunk of 3 splits the frame across four engine calls
        monkeypatch.setattr(codec, "REFINE_CHUNK", chunk)
        prev, cur = (f.y for f in synth_sequence(
            "translate", width=64, height=48, frames=2, seed=3,
            velocity=(0.6, 0.4), noise_sigma=6.0))
        cfg = fast_config(extrapolation=ExtrapolationParams(algorithm="msa",
                                                            iterations=12))
        fp = predict_frame(cur, prev, cfg)
        refined = 0
        for d in fp.decisions:
            block = BlockRef(d.bx * 16, d.by * 16, 16)
            layout = build_layout(cur, block)
            mc = compensate(prev, block, d.mv)
            got = fp.predictor[block.y0:block.y0 + 16, block.x0:block.x0 + 16]
            assert d.mc_mse == mse(cur.block(block), mc)
            if layout.r_empty:
                assert math.isnan(d.refined_mse)
                np.testing.assert_array_equal(got, mc)
                continue
            alone = next(codec.refine_blocks(
                [0], [layout], cur.data, mc[None, None], cfg)).block
            assert d.refined_mse == mse(cur.block(block), alone)
            np.testing.assert_array_equal(got, alone if d.refined else mc)
            refined += d.refined
        assert refined > 0

    def test_block_grid_covered(self):
        frames = tiny_sequence(frames=2, size=64)
        fp = predict_frame(frames[1].y, frames[0].y,
                           EncoderConfig(refinement="none"))
        assert len(fp.decisions) == 16
        assert {(d.bx, d.by) for d in fp.decisions} \
            == {(x, y) for x in range(4) for y in range(4)}


def line_scan(nx, ny, needs):
    """One block per level: the block-by-block line-scan schedule."""
    return [[i] for i in sorted(needs)]


SCHEDULES = (dependency_levels, line_scan)


def encode_on(schedule, frames, cfg, qstep, qp):
    """`encode_pass` under ``schedule``: its point, stats, trace and
    predictor rasters."""
    sink = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(codec, "dependency_levels", schedule)
        return (*encode_pass(frames, cfg, qstep, qp, collect_trace=True,
                             predictor_sink=sink), sink)


def replay_on(schedule, trace, cfg):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(codec, "dependency_levels", schedule)
        return replay_trace(trace, cfg)


def assert_same_pass(a, b):
    """Two `encode_pass` results (with traces and predictor rasters) are
    identical, apart from wall-clock timings."""
    (point_a, stats_a, trace_a, sink_a), (point_b, stats_b, trace_b, sink_b) \
        = a, b
    assert point_a == point_b
    assert [dataclasses.replace(fs, refine_seconds=0.0) for fs in stats_a] \
        == [dataclasses.replace(fs, refine_seconds=0.0) for fs in stats_b]
    for enc_a, enc_b in zip(sink_a, sink_b, strict=True):
        np.testing.assert_array_equal(enc_a, enc_b)
    for blocks_a, blocks_b in zip(trace_a.frames, trace_b.frames,
                                  strict=True):
        for bt_a, bt_b in zip(blocks_a, blocks_b, strict=True):
            assert (bt_a.mv, bt_a.refined) == (bt_b.mv, bt_b.refined)
            np.testing.assert_array_equal(bt_a.levels, bt_b.levels)


def neighbours(i, nx, ny):
    """Line-scan indices of block i's left, top-left, top and top-right
    neighbours that lie in the grid."""
    by, bx = divmod(i, nx)
    return [(by + dy) * nx + bx + dx
            for dx, dy in ((-1, 0), (-1, -1), (0, -1), (1, -1))
            if 0 <= bx + dx < nx and 0 <= by + dy < ny]


class TestWaveSchedule:
    @pytest.mark.parametrize("nx, ny", [(1, 1), (1, 4), (5, 1), (4, 4),
                                        (22, 18)])
    def test_every_block_once_after_its_neighbours(self, nx, ny):
        waves = dependency_levels(nx, ny, range(nx * ny))
        assert all(waves)
        assert sorted(i for wave in waves for i in wave) \
            == list(range(nx * ny))
        wave_of = {i: w for w, wave in enumerate(waves) for i in wave}
        for wave in waves:
            assert wave == sorted(wave)
            for i in wave:
                by, bx = divmod(i, nx)
                for dx, dy in ((-1, 0), (-1, -1), (0, -1), (1, -1)):
                    x, y = bx + dx, by + dy
                    if 0 <= x < nx and 0 <= y < ny:
                        assert wave_of[y * nx + x] < wave_of[i]

    @pytest.mark.parametrize("nx, ny", [(1, 1), (1, 5), (5, 1), (4, 4),
                                        (11, 9)])
    def test_every_block_gives_the_wavefront(self, nx, ny):
        # level bx + 2 by, in line-scan order; a one-column grid leaves
        # the odd waves empty, and empty waves are left out
        waves = [[by * nx + bx for by in range(ny) for bx in range(nx)
                  if bx + 2 * by == w] for w in range(nx + 2 * ny - 1)]
        assert dependency_levels(nx, ny, range(nx * ny)) \
            == [wave for wave in waves if wave]

    @given(grid=st.tuples(st.integers(1, 7), st.integers(1, 6)),
           data=st.data())
    @settings(max_examples=60)
    def test_subset_lies_just_above_its_needed_neighbours(self, grid, data):
        nx, ny = grid
        needs = data.draw(st.sets(st.integers(0, nx * ny - 1)))
        levels = dependency_levels(nx, ny, needs)
        assert all(levels)
        assert sorted(i for level in levels for i in level) == sorted(needs)
        level_of = {i: k for k, level in enumerate(levels) for i in level}
        for k, level in enumerate(levels):
            assert level == sorted(level)
            for i in level:
                above = [level_of[j] for j in neighbours(i, nx, ny)
                         if j in needs]
                # above every needed neighbour, and at the least such level
                assert k == 1 + max(above, default=-1)


class TestClosedLoop:
    def test_rd_points_behave(self):
        frames = tiny_sequence(frames=5, sigma=4.0)
        curve, stats = encode_sequence(frames, fast_config())
        assert isinstance(curve, RDCurve)
        rates, psnrs = curve.rates(), curve.psnrs()
        assert np.all(np.diff(rates) > 0)       # sorted by rate
        assert np.all(np.diff(psnrs) > 0)       # finer quantizer -> better
        assert all(p.rate_kbps > 0 for p in curve.points)

    def test_trace_replay_is_bit_exact(self):
        frames = tiny_sequence(frames=6, sigma=4.0)
        cfg = fast_config(qps=(28,))
        point, stats, trace = encode_pass(frames, cfg, qstep=16.0, qp=28,
                                          collect_trace=True)
        predictors, recons = replay_trace(trace, cfg)
        assert len(predictors) == len(frames) - 1
        # the decoder's reconstruction must match the encoder's closed loop:
        # per-frame PSNR against the originals agrees to the last bit
        for fs, rec in zip(stats, recons):
            assert psnr(frames[fs.index].y.data, rec.data) == fs.psnr_db
        # encoding the same input twice yields the identical trace
        _, _, trace2 = encode_pass(frames, cfg, qstep=16.0, qp=28,
                                   collect_trace=True)
        for blocks_a, blocks_b in zip(trace.frames, trace2.frames):
            for bt_a, bt_b in zip(blocks_a, blocks_b):
                assert bt_a.mv == bt_b.mv and bt_a.refined == bt_b.refined
                np.testing.assert_array_equal(bt_a.levels, bt_b.levels)

    def test_encode_pass_rejects_bad_input_up_front(self, monkeypatch):
        coded = []
        monkeypatch.setattr(codec, "reconstruct_block",
                            lambda *a: coded.append(a))
        frames = synth_sequence("translate", width=72, height=64, frames=2,
                                seed=0)
        with pytest.raises(GeometryError, match="72x64"):
            encode_pass(frames, fast_config(), qstep=16.0, qp=28)
        with pytest.raises(ValueError, match="two frames"):
            encode_pass(tiny_sequence(frames=1), fast_config(), qstep=16.0,
                        qp=28)
        assert coded == []

    def test_frames_of_another_size_are_refused_up_front(self, monkeypatch):
        searched, coded = [], []
        monkeypatch.setattr(codec, "search_frame",
                            lambda *a: searched.append(a))
        monkeypatch.setattr(codec, "reconstruct_block",
                            lambda *a: coded.append(a))
        small, large = (synth_sequence("translate", width=w, height=h,
                                       frames=1, seed=0)[0]
                        for w, h in ((64, 48), (96, 64)))
        for frames in ([small, large], [large, small], [small, small, large]):
            with pytest.raises(GeometryError, match="frame sizes differ"):
                encode_pass(frames, fast_config(), qstep=16.0, qp=28)
            with pytest.raises(GeometryError, match="frame sizes differ"):
                encode_sequence(frames, fast_config())
        for current, reference in ((small, large), (large, small)):
            with pytest.raises(GeometryError, match="frame sizes differ"):
                predict_frame(current.y, reference.y, fast_config())
        assert searched == coded == []

    def test_replay_refuses_a_config_without_refinement(self, monkeypatch):
        frames = tiny_sequence(frames=3, sigma=4.0)
        cfg = fast_config(qps=(28,))
        _, _, trace = encode_pass(frames, cfg, qstep=16.0, qp=28,
                                  collect_trace=True)
        assert any(bt.refined for blocks in trace.frames for bt in blocks)
        decoded = []
        monkeypatch.setattr(codec, "decode_block",
                            lambda *a: decoded.append(a))
        with pytest.raises(ValueError, match="refinement 'none'"):
            replay_trace(trace, EncoderConfig(refinement="none"))
        # nor one whose engine, weighting or block size differs from the
        # pass's: each would give other predictors without an error
        for name, wrong in (
                ("refinement", fast_config(refinement="rba",
                                           extrapolation=None)),
                ("extrapolation", fast_config(
                    extrapolation=ExtrapolationParams(algorithm="msa",
                                                      iterations=5))),
                ("mu", fast_config(mu=0.25)), ("rho", fast_config(rho=0.6)),
                ("block_size", fast_config(block_size=8))):
            with pytest.raises(ValueError, match=f"coded with {name} .* "
                                                 f"config with {name} "):
                replay_trace(trace, wrong)
        assert decoded == []

    @pytest.fixture(scope="class")
    def square_trace(self):
        """A 48x48 msa pass of two P-frames and its config."""
        cfg = fast_config(qps=(28,))
        _, _, trace = encode_pass(tiny_sequence(frames=3, size=48), cfg,
                                  qstep=16.0, qp=28, collect_trace=True)
        return trace, cfg

    @pytest.mark.parametrize("name", ["qstep", "intra_qstep"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -4.0, 1e-9])
    def test_replay_refuses_a_bad_quantizer_step(self, square_trace,
                                                 monkeypatch, name, value):
        # a NaN step used to decode to garbage with only a cast warning
        trace, cfg = square_trace
        decoded = []
        monkeypatch.setattr(codec, "decode_block",
                            lambda *a: decoded.append(a))
        with pytest.raises(ValueError, match="quantizer step"):
            replay_trace(dataclasses.replace(trace, **{name: value}), cfg)
        assert decoded == []

    def test_replay_refuses_dims_the_levels_do_not_fit(self, square_trace,
                                                       monkeypatch):
        # (96, 48) used to fail in a bare reshape of the intra levels
        trace, cfg = square_trace
        decoded = []
        monkeypatch.setattr(codec, "decode_block",
                            lambda *a: decoded.append(a))
        for dims, match in (((96, 48), r"intra levels \(9, 4, 8, 8\) do "
                                       r"not fit a 96x48 frame of 18 blocks"),
                            ((48, 96), "48x96 frame of 18 blocks"),
                            ((16, 16), "16x16 frame of 1 blocks"),
                            ((50, 48), "not a multiple of the block size"),
                            ((0, 48), "must be positive")):
            with pytest.raises(GeometryError, match=match):
                replay_trace(dataclasses.replace(trace, dims=dims), cfg)
        assert decoded == []

    def test_replay_refuses_frames_the_grid_does_not_fit(self, square_trace,
                                                         monkeypatch):
        trace, cfg = square_trace
        decoded = []
        monkeypatch.setattr(codec, "decode_block",
                            lambda *a: decoded.append(a))
        first, second = trace.frames
        short = (first, second[:-1])
        thin = (first, second[:4] + (dataclasses.replace(
            second[4], levels=second[4].levels[:1]),) + second[5:])
        intra = trace.intra_levels[:, :1]
        for replaced, match in (({"frames": short}, "P-frame 2 holds 8 "),
                                ({"frames": thin},
                                 r"P-frame 2 holds 9 blocks of levels "
                                 r"\[\(1, 8, 8\), \(4, 8, 8\)\]"),
                                ({"intra_levels": intra},
                                 r"intra levels \(9, 1, 8, 8\)")):
            with pytest.raises(GeometryError, match=match):
                replay_trace(dataclasses.replace(trace, **replaced), cfg)
        assert decoded == []
        monkeypatch.undo()   # the trace itself replays
        assert len(replay_trace(trace, cfg)[1]) == 2

    def test_every_engine_batch_obeys_the_cap(self, monkeypatch):
        # 64x48 in blocks of 8: waves of up to four blocks, so a cap of 2
        # cuts waves and replay levels into several engine batches, which
        # must change nothing
        frames = synth_sequence("translate", width=64, height=48, frames=3,
                                seed=9, velocity=(0.7, -0.4),
                                noise_sigma=24.0, texture="field")
        cfg = fast_config(block_size=8, qps=(28,))
        batches, run_batch = [], codec.extrapolate.run_batch

        def counted(windows, *args, **kwargs):
            batches.append(len(windows))
            return run_batch(windows, *args, **kwargs)

        monkeypatch.setattr(codec.extrapolate, "run_batch", counted)
        runs = []
        for chunk in (codec.REFINE_CHUNK, 2):
            monkeypatch.setattr(codec, "REFINE_CHUNK", chunk)
            encoded = encode_on(dependency_levels, frames, cfg, 16.0, 28)
            encode_batches = batches[:]
            batches.clear()
            replayed = replay_trace(encoded[2], cfg)
            runs.append((encoded, replayed, encode_batches, batches[:]))
            batches.clear()
        (default, replay_a, encode_a, replay_batches_a), \
            (capped, replay_b, encode_b, replay_batches_b) = runs
        assert max(encode_a) > 2 and max(replay_batches_a) > 2
        assert max(encode_b) <= 2 and max(replay_batches_b) <= 2
        assert_same_pass(default, capped)
        (predictors_a, recons_a), (predictors_b, recons_b) = replay_a, replay_b
        for a, b in zip(predictors_a, predictors_b, strict=True):
            np.testing.assert_array_equal(a, b)
        for a, b in zip(recons_a, recons_b, strict=True):
            np.testing.assert_array_equal(a.data, b.data)

    @pytest.mark.parametrize("width, height", [(0, 0), (-16, 32), (32, 0)])
    def test_frame_blocks_rejects_nonpositive_sizes(self, width, height):
        # a frame of no blocks used to pass, and a negative width too
        with pytest.raises(GeometryError, match="must be positive"):
            codec.frame_blocks(width, height, 16)

    # every engine at every block size but 64, where fsa and rba would
    # add about 3 s to the suite
    @pytest.mark.parametrize("algo, size", [
        (algo, size) for size in (8, 16, 32)
        for algo in ("fsa", "rba", "msa")] + [("msa", 64)])
    def test_replay_bit_exact_for_every_engine(self, algo, size):
        # 48x32 up to block 16, else 3x2 blocks (96x64, 192x128): the
        # right-edge blocks of every row below the first have no top-right
        # neighbour.  The encoder runs wave by wave and the replay block by
        # block in line-scan order.
        side = max(size, 16)
        frames = synth_sequence("translate", width=3 * side,
                                height=2 * side, frames=3, seed=4,
                                velocity=(0.7, 0.4), noise_sigma=6.0)
        iterations = 40 if algo == "fsa" else None
        cfg = fast_config(refinement=algo, block_size=size,
                          extrapolation=ExtrapolationParams(
                              algorithm=algo, iterations=iterations))
        refined = 0
        for qp, qstep in zip(cfg.qps, cfg.qsteps):
            sink = []
            _, stats, trace = encode_pass(frames, cfg, qstep, qp,
                                          collect_trace=True,
                                          predictor_sink=sink)
            predictors, recons = replay_on(line_scan, trace, cfg)
            for enc, dec in zip(sink, predictors):
                np.testing.assert_array_equal(enc, dec)
            for fs, rec in zip(stats, recons):
                assert psnr(frames[fs.index].y.data, rec.data) == fs.psnr_db
            refined += sum(bt.refined for blocks in trace.frames
                           for bt in blocks)
        assert refined > 0

    @given(blocks=st.tuples(st.integers(1, 5), st.integers(1, 4)),
           velocity=st.tuples(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5)),
           sigma=st.sampled_from([6.0, 24.0]), qp=st.sampled_from([22, 34]),
           seed=st.integers(0, 2 ** 16))
    @settings(max_examples=20)
    def test_replay_bit_exact_on_drawn_geometries(self, blocks, velocity,
                                                  sigma, qp, seed):
        # frames of 1-5 by 1-4 blocks of 8: single rows and columns, no
        # top-right neighbour at the right edge, search windows clamped by
        # every border, and motion searched on reconstructed references;
        # strong noise makes refinement win on some blocks.  Coding wave by
        # wave and block by block in line-scan order must agree.
        width, height = 8 * blocks[0], 8 * blocks[1]
        frames = synth_sequence("translate", width=width, height=height,
                                frames=3, seed=seed, velocity=velocity,
                                noise_sigma=sigma, texture="field")
        cfg = fast_config(block_size=8, qps=(qp,))
        passes = [encode_on(schedule, frames, cfg, cfg.qsteps[0], qp)
                  for schedule in SCHEDULES]
        assert_same_pass(*passes)
        # each schedule's trace replays bit-exactly on the other schedule
        for (_, stats, trace, sink), schedule in zip(passes, SCHEDULES[::-1]):
            predictors, recons = replay_on(schedule, trace, cfg)
            assert len(predictors) == len(sink) == 2
            for enc, dec in zip(sink, predictors):
                np.testing.assert_array_equal(enc, dec)
            for fs, rec in zip(stats, recons):
                assert psnr(frames[fs.index].y.data, rec.data) == fs.psnr_db

    @pytest.mark.parametrize("algo", ["none", "fsa", "rba", "msa"])
    def test_pass_does_not_depend_on_schedule(self, algo):
        # 48x32 blocks of 8: waves of up to 3 blocks that mix all four
        # availability classes
        frames = synth_sequence("translate", width=48, height=32, frames=3,
                                seed=5, velocity=(0.7, -0.4),
                                noise_sigma=12.0, texture="field")
        cfg = fast_config(
            refinement=algo, block_size=8, qps=(28,),
            extrapolation=None if algo == "none" else ExtrapolationParams(
                algorithm=algo, iterations=30 if algo == "fsa" else None))
        passes = [encode_on(schedule, frames, cfg, 16.0, 28)
                  for schedule in SCHEDULES]
        assert_same_pass(*passes)
        trace = passes[0][2]
        assert algo == "none" or any(bt.refined for blocks in trace.frames
                                     for bt in blocks)

    def test_one_engine_batch_per_wave(self, monkeypatch):
        # 4x4 blocks of 16: ten waves, the first of them the top-left block,
        # which has no neighbour to refine from
        frames = tiny_sequence(frames=3, sigma=4.0)
        cfg = fast_config(qps=(28,))
        members, batches, coded = [], [], []

        def counted(fn, log):
            def wrapper(*args, **kwargs):
                log.append(len(args[0]))
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(codec, "refine_blocks",
                            counted(codec.refine_blocks, members))
        monkeypatch.setattr(codec.extrapolate, "run_batch",
                            counted(codec.extrapolate.run_batch, batches))
        monkeypatch.setattr(codec, "reconstruct_block",
                            counted(codec.reconstruct_block, coded))
        _, _, trace = encode_pass(frames, cfg, qstep=16.0, qp=28,
                                  collect_trace=True)
        waves = dependency_levels(4, 4, range(16))
        assert len(waves) == 10
        assert members == batches == 2 * [len(w) for w in waves[1:]]
        # one transform call for the intra frame, then one per wave
        assert coded == [16] + 2 * [len(w) for w in waves]
        # without refinement no block waits on its frame's reconstruction:
        # one transform call per P-frame, and no engine batch
        coded.clear()
        encode_pass(frames, fast_config(refinement="none", extrapolation=None,
                                        qps=(28,)), qstep=16.0, qp=28)
        assert coded == [16, 16, 16]
        assert members == batches == 2 * [len(w) for w in waves[1:]]
        members.clear()
        batches.clear()
        replay_trace(trace, cfg)
        # replay refines by depth among each frame's refined blocks: one
        # batch per level, never more than the waves that hold them
        refined = [[i for i, bt in enumerate(blocks) if bt.refined]
                   for blocks in trace.frames]
        assert sum(map(len, refined)) > 0
        levels = [dependency_levels(4, 4, r) for r in refined]
        assert members == batches \
            == [len(level) for frame in levels for level in frame]
        for r, frame in zip(refined, levels):
            assert len(frame) <= sum(any(i in r for i in w) for w in waves)

    def test_frame_pass_and_trace_read_the_cached_tables_in_place(
            self, monkeypatch):
        # every engine batch of a frame, pass or trace reads the cached
        # Gram table in place, as `projection_context` does, so none
        # copies a table
        frames = tiny_sequence(frames=3, sigma=4.0)
        cfg = fast_config(qps=(28,))
        run_batch = codec.extrapolate.run_batch
        seen = []

        def recorded(windows, layouts, params, *, context):
            seen.append((layouts, context))
            return run_batch(windows, layouts, params, context=context)

        monkeypatch.setattr(codec.extrapolate, "run_batch", recorded)
        _, _, trace = encode_pass(frames, cfg, qstep=16.0, qp=28,
                                  collect_trace=True)
        replay_trace(trace, cfg)
        predict_frame(frames[1].y, frames[0].y, cfg)
        mixed = [len({layout.availability for layout in layouts}) > 1
                 for layouts, _ in seen]
        assert any(mixed) and not all(mixed)
        names = ("_gram_table", "w_flat", "norms", "_safe_norms")
        for layouts, context in seen:
            slots = context._slots
            assert slots is None or len(slots) == len(layouts)
            for member, layout in enumerate(layouts):
                own = basis.projection_context(layout, mu=cfg.mu, rho=cfg.rho)
                if slots is None:   # one class: views of its cached row
                    for name in names:
                        assert np.shares_memory(getattr(context, name),
                                                getattr(own, name))
                    continue
                # a mixed batch: its members' own weighting rows
                assert np.shares_memory(context._gram_table[slots[member]],
                                        own._gram_table)
                for name in names[1:]:
                    np.testing.assert_array_equal(
                        getattr(context, name)[member], getattr(own, name))

    def test_held_references_keep_no_grids(self):
        # only the last reference's quarter grid and sub-block sums are
        # kept, so predicting over held planes does not grow with their
        # number; each of these planes' grids is 128 KB
        planes = [f.y for f in tiny_sequence(frames=7, size=128, sigma=4.0)]
        cfg = fast_config(refinement="none", extrapolation=None)
        tracemalloc.start()
        try:
            predict_frame(planes[1], planes[0], cfg)
            before = tracemalloc.get_traced_memory()[0]
            for prev, cur in zip(planes[1:], planes[2:]):
                predict_frame(cur, prev, cfg)
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert grown < planes[0].quarter_grid(2).nbytes

    def test_sequence_is_one_pass_per_qp(self):
        # the equality a ladder that shares work between passes must keep
        frames = tiny_sequence(frames=3, sigma=4.0)
        cfg = fast_config()
        curve, stats = encode_sequence(frames, cfg)
        passes = [encode_pass(frames, cfg, qstep, qp)
                  for qp, qstep in zip(cfg.qps, cfg.qsteps)]

        def untimed(frame_stats):
            return [dataclasses.replace(fs, refine_seconds=0.0)
                    for fs in frame_stats]

        assert sorted(curve.points, key=lambda p: p.qp) \
            == [point for point, _, _ in passes]
        assert [(qp, untimed(frame_stats)) for qp, frame_stats in stats] \
            == [(qp, untimed(frame_stats))
                for qp, (_, frame_stats, _) in zip(cfg.qps, passes)]

    def test_pass_does_not_depend_on_the_predictor_sink(self):
        frames = tiny_sequence(frames=3, sigma=4.0)
        cfg = fast_config(qps=(28,))
        sink = []
        with_sink = encode_pass(frames, cfg, 16.0, 28, collect_trace=True,
                                predictor_sink=sink)
        without = encode_pass(frames, cfg, 16.0, 28, collect_trace=True)
        assert len(sink) == len(frames) - 1
        assert_same_pass((*with_sink, []), (*without, []))
        np.testing.assert_array_equal(with_sink[2].intra_levels,
                                      without[2].intra_levels)

    @pytest.mark.parametrize("algo, width, height, size", [
        ("none", 64, 48, 16), ("fsa", 48, 32, 8), ("rba", 48, 32, 8),
        ("msa", 64, 48, 16)])
    def test_lossless_loop_predicts_like_the_open_loop(self, algo, width,
                                                       height, size):
        # at QP -110 (qstep 1.9e-6) every frame is reconstructed exactly, so
        # the closed loop's reference and neighbours are the originals, and
        # it must predict each P-frame exactly as the open loop does
        frames = synth_sequence("translate", width=width, height=height,
                                frames=3, seed=1, noise_sigma=8.0)
        cfg = EncoderConfig(refinement=algo, block_size=size, qps=(-110,),
                            search=SearchParams(search_range=6))
        sink = []
        _, stats, trace = encode_pass(frames, cfg, cfg.qsteps[0], -110,
                                      collect_trace=True, predictor_sink=sink)
        assert [fs.psnr_db for fs in stats] == [math.inf, math.inf]
        for t, predictor, blocks in zip((1, 2), sink, trace.frames,
                                        strict=True):
            fp = predict_frame(frames[t].y, frames[t - 1].y, cfg)
            np.testing.assert_array_equal(predictor, fp.predictor)
            assert [(bt.mv, bt.refined) for bt in blocks] \
                == [(d.mv, d.refined) for d in fp.decisions]
        assert algo == "none" or any(bt.refined for blocks in trace.frames
                                     for bt in blocks)

    def test_every_pass_reports_only_p_frames(self):
        frames = tiny_sequence(frames=4, sigma=4.0)
        curve, stats = encode_sequence(frames, fast_config())
        # every ladder pass reports only P-frames
        for qp, frame_stats in stats:
            assert len(frame_stats) == len(frames) - 1

    def test_deterministic(self):
        frames = tiny_sequence(frames=4, sigma=4.0)
        cfg = fast_config()
        c1, _ = encode_sequence(frames, cfg)
        c2, _ = encode_sequence(frames, cfg)
        assert c1 == c2

    def test_refinement_improves_noisy_sequence(self):
        frames = tiny_sequence(frames=6, sigma=8.0, size=96)
        base, _ = encode_sequence(frames, fast_config(refinement="none",
                                                         extrapolation=None))
        ref, _ = encode_sequence(
            frames, fast_config(refinement="msa",
                                extrapolation=ExtrapolationParams(
                                    algorithm="msa", iterations=12)))
        res = bd_metrics(base, ref)
        assert res.bd_psnr_db > 0.0


@pytest.fixture()
def private_basis48(monkeypatch):
    """Route every context build through a private 48x48 basis, with no
    weighting of an earlier test still live."""
    private = basis._enumerate_basis(48, 48)
    monkeypatch.setattr(basis, "build_basis", lambda m, n: private)
    monkeypatch.setattr(basis, "_LIVE_WEIGHTINGS",
                        weakref.WeakValueDictionary())
    basis._weightings.cache_clear()
    yield private
    basis._weightings.cache_clear()


class TestDenseBasisOffPath:
    @pytest.mark.parametrize("algo", ["fsa", "rba", "msa"])
    def test_codec_never_builds_dense_matrix(self, algo, private_basis48):
        frames = tiny_sequence(frames=3, size=48, sigma=4.0)
        cfg = fast_config(refinement=algo, extrapolation=ExtrapolationParams(
            algorithm=algo, iterations=4), qps=(28,))
        fp = predict_frame(frames[1].y, frames[0].y, cfg)
        assert any(math.isfinite(d.refined_mse) for d in fp.decisions)
        _, _, trace = encode_pass(frames, cfg, qstep=16.0, qp=28,
                                  collect_trace=True)
        replay_trace(trace, cfg)
        assert basis._weightings.cache_info().currsize > 0
        # every run weighted on the private basis, which has no dense form
        owner = basis._weightings(cfg.block_size, cfg.mu, cfg.rho)
        assert owner.basis is private_basis48
        assert not hasattr(private_basis48, "matrix")


class TestBD:
    def curve(self, rates, psnrs):
        return (np.asarray(rates, dtype=float), np.asarray(psnrs, dtype=float))

    def test_identical_curves(self):
        a = self.curve([100, 200, 400, 800], [30, 33, 36, 39])
        res = bd_metrics(a, a)
        assert res.bd_rate_percent == pytest.approx(0.0, abs=1e-9)
        assert res.bd_psnr_db == pytest.approx(0.0, abs=1e-9)

    def test_accepts_rdcurve_objects(self):
        pts = [RDPoint(rate_kbps=r, psnr_db=p, qp=0, qstep=0.0,
                       refined_fraction=0.0)
               for r, p in [(100, 30), (200, 33), (400, 36), (800, 39)]]
        c = RDCurve(label="x", points=tuple(pts))
        res = bd_metrics(c, c)
        assert res.bd_psnr_db == pytest.approx(0.0, abs=1e-9)

    def test_vertical_shift(self):
        a = self.curve([100, 200, 400, 800], [30, 33, 36, 39])
        b = self.curve([100, 200, 400, 800], [31, 34, 37, 40])
        res = bd_metrics(a, b)
        assert res.bd_psnr_db == pytest.approx(1.0, abs=0.01)

    def test_rate_scale(self):
        rates = np.array([100.0, 200, 400, 800])
        psnrs = [30.0, 33, 36, 39]
        res = bd_metrics((rates, psnrs), (rates * 0.9, psnrs))
        assert res.bd_rate_percent == pytest.approx(-10.0, abs=0.2)

    def test_rejects_short_curves(self):
        a = self.curve([100, 200, 400], [30, 33, 36])
        with pytest.raises(BDInputError):
            bd_metrics(a, a)

    def test_rejects_nonpositive_rates(self):
        a = self.curve([0, 200, 400, 800], [30, 33, 36, 39])
        with pytest.raises(BDInputError):
            bd_metrics(a, a)

    def test_rejects_disjoint_psnr_ranges(self):
        a = self.curve([100, 200, 400, 800], [30, 31, 32, 33])
        b = self.curve([100, 200, 400, 800], [40, 41, 42, 43])
        with pytest.raises(BDInputError):
            bd_metrics(a, b)

    def test_rejects_nonfinite(self):
        a = self.curve([100, 200, 400, 800], [30, 33, float("nan"), 39])
        with pytest.raises(BDInputError):
            bd_metrics(a, a)
