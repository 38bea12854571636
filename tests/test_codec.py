import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcrefine import basis, codec
from mcrefine.bd import BDInputError, bd_metrics
from mcrefine.codec import (DEFAULT_QPS, BlockDecision, EncoderConfig,
                            RDCurve, RDPoint, _entropy_bits, _side_bits,
                            assemble_window, decode_block, dct_8x8, idct_8x8,
                            encode_pass, encode_sequence, predict_frame,
                            qp_to_qstep, reconstruct_block, replay_trace)
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
        with pytest.raises(ValueError):
            EncoderConfig(block_size=12)
        for weighting in ({"rho": 1.0}, {"rho": 0.0}, {"mu": 0.0}):
            with pytest.raises(basis.ParameterError):
                EncoderConfig(**weighting)

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
            recon, bits, levels = reconstruct_block(orig, pred, qstep)
            assert recon.dtype == np.uint8
            assert bits >= 0.0
            assert levels.dtype == np.int32
            np.testing.assert_array_equal(
                decode_block(pred, levels, qstep), recon)

    def test_fine_quantizer_is_near_lossless(self, rng):
        orig = rng.integers(0, 256, size=(16, 16)).astype(np.float64)
        pred = np.full((16, 16), 128.0)
        recon, _, _ = reconstruct_block(orig, pred, qstep=0.5)
        assert mse(orig, recon) < 1.0

    def test_coarse_quantizer_costs_few_bits(self, rng):
        orig = rng.integers(0, 256, size=(16, 16)).astype(np.float64)
        pred = orig.copy()  # perfect prediction -> all-zero levels
        recon, bits, levels = reconstruct_block(orig, pred, qstep=16.0)
        assert np.all(levels == 0)
        assert bits == 0.0
        np.testing.assert_array_equal(recon, np.clip(np.rint(pred), 0, 255))


class TestSideBits:
    def make_decision(self, bx, mv, by=0):
        return BlockDecision(bx=bx, by=by, mv=mv, sad=0.0, refined=False,
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
        # 4x3 blocks: every availability class; a chunk of 3 splits the
        # larger classes across engine calls
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
            if layout.r_empty:
                assert math.isnan(d.refined_mse)
                np.testing.assert_array_equal(got, mc)
                continue
            alone = codec.refine_block(layout, cur.data, mc, cfg).block
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

    @pytest.mark.parametrize("size", [8, 16])
    @pytest.mark.parametrize("algo", ["fsa", "rba", "msa"])
    def test_replay_bit_exact_for_every_engine(self, algo, size):
        # 48x32: the right-edge blocks of every row below the first have
        # no top-right neighbour
        frames = synth_sequence("translate", width=48, height=32, frames=3,
                                seed=4, velocity=(0.7, 0.4), noise_sigma=6.0)
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
            predictors, recons = replay_trace(trace, cfg)
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
        # strong noise makes refinement win on some blocks
        width, height = 8 * blocks[0], 8 * blocks[1]
        frames = synth_sequence("translate", width=width, height=height,
                                frames=3, seed=seed, velocity=velocity,
                                noise_sigma=sigma, texture="field")
        cfg = fast_config(block_size=8, qps=(qp,))
        sink = []
        _, stats, trace = encode_pass(frames, cfg, cfg.qsteps[0], qp,
                                      collect_trace=True,
                                      predictor_sink=sink)
        predictors, recons = replay_trace(trace, cfg)
        assert len(predictors) == len(sink) == 2
        for enc, dec in zip(sink, predictors):
            np.testing.assert_array_equal(enc, dec)
        for fs, rec in zip(stats, recons):
            assert psnr(frames[fs.index].y.data, rec.data) == fs.psnr_db

    def test_encoder_and_replay_share_refine_block(self, monkeypatch):
        frames = tiny_sequence(frames=3, sigma=4.0)
        cfg = fast_config(qps=(28,))
        calls = {"refine_block": 0, "run": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(codec, "refine_block",
                            counted("refine_block", codec.refine_block))
        monkeypatch.setattr(codec.extrapolate, "run",
                            counted("run", codec.extrapolate.run))
        _, _, trace = encode_pass(frames, cfg, qstep=16.0, qp=28,
                                  collect_trace=True)
        encoded = dict(calls)
        assert encoded["refine_block"] == encoded["run"] == 2 * 15
        replay_trace(trace, cfg)
        refined = sum(bt.refined for blocks in trace.frames for bt in blocks)
        assert refined > 0
        assert calls["refine_block"] == calls["run"] \
            == encoded["run"] + refined

    def test_intra_shared_across_ladder(self):
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
    """Route every context build through a private 48x48 basis."""
    private = basis.build_basis.__wrapped__(48, 48)
    monkeypatch.setattr(basis, "build_basis", lambda m, n: private)
    basis._cached_context.cache_clear()
    yield private
    basis._cached_context.cache_clear()


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
        assert basis._cached_context.cache_info().currsize > 0
        assert "matrix" not in private_basis48.__dict__


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
