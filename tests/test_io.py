import numpy as np
import pytest

from mcrefine.frame import Frame, Plane
from mcrefine.videoio import (FormatError, SequenceSource,
                              UnusedOptionError, frame_bytes, read_frames,
                              synth_sequence, write_frames)


def random_frames(rng, n=3, width=32, height=24):
    out = []
    for _ in range(n):
        y = rng.integers(0, 256, size=(height, width), dtype=np.uint8)
        u = rng.integers(0, 256, size=(height // 2, width // 2), dtype=np.uint8)
        v = rng.integers(0, 256, size=(height // 2, width // 2), dtype=np.uint8)
        out.append(Frame(y=Plane(y), u=Plane(u), v=Plane(v)))
    return out


class TestLayout420:
    def test_cif_frame_size(self):
        assert frame_bytes(352, 288) == 152064

    def test_odd_dimensions_rejected(self):
        with pytest.raises(FormatError):
            frame_bytes(351, 288)
        with pytest.raises(FormatError):
            frame_bytes(352, 287)

    @pytest.mark.parametrize("width, height", [(0, 0), (0, 32), (-32, 24)])
    def test_nonpositive_dimensions_rejected(self, width, height):
        with pytest.raises(FormatError, match="must be positive"):
            frame_bytes(width, height)


class TestRoundTrip:
    def test_write_then_read(self, tmp_path, rng):
        frames = random_frames(rng, n=4)
        path = tmp_path / "seq.yuv"
        written = write_frames(path, frames)
        assert written == 4 * frame_bytes(32, 24)
        src = SequenceSource.probe(path, 32, 24)
        assert src.frame_count == 4
        back = read_frames(src)
        for a, b in zip(frames, back):
            np.testing.assert_array_equal(a.y.data, b.y.data)
            np.testing.assert_array_equal(a.u.data, b.u.data)
            np.testing.assert_array_equal(a.v.data, b.v.data)

    def test_partial_read(self, tmp_path, rng):
        frames = random_frames(rng, n=5)
        path = tmp_path / "seq.yuv"
        write_frames(path, frames)
        src = SequenceSource.probe(path, 32, 24)
        back = read_frames(src, range(2, 4))
        assert len(back) == 2
        np.testing.assert_array_equal(back[0].y.data, frames[2].y.data)
        np.testing.assert_array_equal(back[1].y.data, frames[3].y.data)

    def test_luma_only_frame_rejected(self, tmp_path, rng):
        y = Plane(rng.integers(0, 256, size=(24, 32), dtype=np.uint8))
        with pytest.raises(FormatError):
            write_frames(tmp_path / "x.yuv", [Frame(y=y)])

    def test_plane_layout_is_y_u_v(self, tmp_path, rng):
        frames = random_frames(rng, n=1)
        path = tmp_path / "seq.yuv"
        write_frames(path, frames)
        raw = path.read_bytes()
        y_end = 32 * 24
        u_end = y_end + 16 * 12
        np.testing.assert_array_equal(
            np.frombuffer(raw[:y_end], np.uint8).reshape(24, 32),
            frames[0].y.data)
        np.testing.assert_array_equal(
            np.frombuffer(raw[y_end:u_end], np.uint8).reshape(12, 16),
            frames[0].u.data)
        np.testing.assert_array_equal(
            np.frombuffer(raw[u_end:], np.uint8).reshape(12, 16),
            frames[0].v.data)


class TestProbeErrors:
    def test_size_not_multiple(self, tmp_path):
        path = tmp_path / "bad.yuv"
        path.write_bytes(b"\x00" * (frame_bytes(32, 24) + 7))
        with pytest.raises(FormatError):
            SequenceSource.probe(path, 32, 24)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.yuv"
        path.write_bytes(b"")
        with pytest.raises(FormatError):
            SequenceSource.probe(path, 32, 24)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            SequenceSource.probe(tmp_path / "nope.yuv", 32, 24)

    def test_nonpositive_dimensions(self, tmp_path):
        # 0 x 0 frames hold 0 bytes, which used to end in a division by 0
        path = tmp_path / "any.yuv"
        path.write_bytes(b"\x00" * 96)
        for width, height in ((0, 0), (-8, 8)):
            with pytest.raises(FormatError, match="must be positive"):
                SequenceSource.probe(path, width, height)

    def test_range_validation(self, tmp_path, rng):
        path = tmp_path / "seq.yuv"
        write_frames(path, random_frames(rng, n=3))
        src = SequenceSource.probe(path, 32, 24)
        with pytest.raises(ValueError):
            read_frames(src, range(0, 4))
        with pytest.raises(ValueError):
            read_frames(src, range(0, 3, 2))

    def test_truncation_detected(self, tmp_path, rng):
        path = tmp_path / "seq.yuv"
        write_frames(path, random_frames(rng, n=2))
        src = SequenceSource.probe(path, 32, 24)
        # shorten the file after probing
        data = path.read_bytes()
        path.write_bytes(data[:-10])
        with pytest.raises(FormatError):
            read_frames(src)


class TestSynth:
    def test_integer_velocity_shifts_exactly(self):
        frames = synth_sequence("translate", width=64, height=48, frames=3,
                                velocity=(1.0, 2.0), texture="waves")
        # sampling at (y + t, x + 2t) moves content up-left; interior rows of
        # frame t equal frame 0 shifted by t rows / 2t columns
        f0 = frames[0].y.data
        f2 = frames[2].y.data
        np.testing.assert_array_equal(f2[:-2, :-4], f0[2:, 4:])

    def test_seed_determinism(self):
        kw = dict(width=48, height=32, frames=4, seed=7, noise_sigma=5.0)
        a = synth_sequence("translate", **kw)
        b = synth_sequence("translate", **kw)
        for fa, fb in zip(a, b):
            np.testing.assert_array_equal(fa.y.data, fb.y.data)

    def test_seed_changes_noise(self):
        a = synth_sequence("translate", width=48, height=32, frames=2,
                           seed=1, noise_sigma=5.0)
        b = synth_sequence("translate", width=48, height=32, frames=2,
                           seed=2, noise_sigma=5.0)
        assert not np.array_equal(a[1].y.data, b[1].y.data)

    def test_noise_is_fresh_per_frame(self):
        frames = synth_sequence("translate", width=48, height=32, frames=3,
                                velocity=(0.0, 0.0), noise_sigma=6.0)
        assert not np.array_equal(frames[0].y.data, frames[1].y.data)
        assert not np.array_equal(frames[1].y.data, frames[2].y.data)

    def test_zero_velocity_no_noise_is_static(self):
        frames = synth_sequence("translate", width=48, height=32, frames=3,
                                velocity=(0.0, 0.0))
        np.testing.assert_array_equal(frames[0].y.data, frames[2].y.data)

    def test_field_texture(self):
        frames = synth_sequence("translate", width=48, height=32, frames=3,
                                texture="field", seed=3)
        assert frames[0].y.data.std() > 10.0  # actual texture, not flat

    def test_noise_kind(self):
        frames = synth_sequence("noise", width=48, height=32, frames=2, seed=0)
        assert not np.array_equal(frames[0].y.data, frames[1].y.data)
        assert frames[0].y.data.min() < 20 and frames[0].y.data.max() > 235

    def test_zoom_kind(self):
        frames = synth_sequence("zoom-texture", width=64, height=48, frames=3,
                                seed=0, zoom_rate=0.01)
        assert not np.array_equal(frames[0].y.data, frames[2].y.data)
        # centre sample is the fixed point of the scaling
        assert abs(int(frames[0].y.data[23, 31])
                   - int(frames[2].y.data[23, 31])) <= 2

    def test_chroma_constant_grey(self):
        frames = synth_sequence("translate", width=48, height=32, frames=1)
        assert frames[0].u.data.shape == (16, 24)
        assert np.all(frames[0].u.data == 128)
        assert np.all(frames[0].v.data == 128)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            synth_sequence("translate", texture="plasma", frames=1)
        with pytest.raises(UnusedOptionError, match="does not use texture"):
            synth_sequence("noise", texture="waves", frames=1)
        with pytest.raises(UnusedOptionError, match="noise_sigma, velocity"):
            synth_sequence("zoom-texture", velocity=(1, 0), noise_sigma=2.0,
                           frames=1)
        with pytest.raises(ValueError):
            synth_sequence("wibble", frames=1)
        with pytest.raises(ValueError):
            synth_sequence("translate", frames=0)
        for width, height in ((0, 32), (32, -16), (33, 32), (32, 31)):
            with pytest.raises(ValueError):
                synth_sequence("translate", width=width, height=height,
                               frames=1)

    def test_output_feeds_file_roundtrip(self, tmp_path):
        frames = synth_sequence("translate", width=48, height=32, frames=2)
        path = tmp_path / "synth.yuv"
        write_frames(path, frames)
        back = read_frames(SequenceSource.probe(path, 48, 32))
        np.testing.assert_array_equal(back[1].y.data, frames[1].y.data)
