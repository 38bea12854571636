"""Raw planar 4:2:0 video ingestion and deterministic test sequences.

File layout (the only container understood here): for each frame, the full
luma plane row-major (width*height bytes), then the quarter-size U plane,
then V — 8 bits per sample, no headers, so a file holds exactly
frame_count * width * height * 3/2 bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .frame import Frame, Plane


class FormatError(ValueError):
    """File contents inconsistent with the declared geometry."""


class UnusedOptionError(ValueError):
    """A `synth_sequence` option that the chosen kind does not use."""


def frame_bytes(width: int, height: int) -> int:
    """Bytes of one 4:2:0 frame; raises `FormatError` unless both
    dimensions are positive and even."""
    if width < 1 or height < 1:
        raise FormatError(f"frame dimensions must be positive, got "
                          f"{width}x{height}")
    if width % 2 or height % 2:
        raise FormatError(f"4:2:0 needs even dimensions, got {width}x{height}")
    return width * height * 3 // 2


@dataclass(frozen=True)
class SequenceSource:
    """A raw 4:2:0 file with validated geometry."""

    path: Path
    width: int
    height: int
    frame_count: int

    @classmethod
    def probe(cls, path, width: int, height: int) -> "SequenceSource":
        path = Path(path)
        size = path.stat().st_size
        per_frame = frame_bytes(width, height)
        if size == 0 or size % per_frame:
            raise FormatError(
                f"{path}: file holds {size} bytes, expected a multiple of "
                f"{per_frame} ({width}x{height} 4:2:0 frames)")
        return cls(path=path, width=width, height=height,
                   frame_count=size // per_frame)


def read_frames(source: SequenceSource, frames: range | None = None) -> list:
    """Load frames (all by default, or a contiguous ``range``) in display
    order; a truncated file fails before any frame is returned."""
    if frames is None:
        frames = range(source.frame_count)
    if frames.step != 1:
        raise ValueError("frame range must be contiguous")
    if frames.start < 0 or frames.stop > source.frame_count:
        raise ValueError(f"frame range {frames} outside "
                         f"[0, {source.frame_count})")
    w, h = source.width, source.height
    cw, ch = w // 2, h // 2
    per_frame = frame_bytes(w, h)
    out = []
    with open(source.path, "rb") as fh:
        fh.seek(frames.start * per_frame)
        for _ in frames:
            raw = fh.read(per_frame)
            if len(raw) != per_frame:
                raise FormatError(
                    f"{source.path}: truncated frame, got {len(raw)} of "
                    f"{per_frame} bytes")
            buf = np.frombuffer(raw, dtype=np.uint8)
            y = buf[:w * h].reshape(h, w)
            u = buf[w * h:w * h + cw * ch].reshape(ch, cw)
            v = buf[w * h + cw * ch:].reshape(ch, cw)
            out.append(Frame(y=Plane(y), u=Plane(u), v=Plane(v)))
    return out


def write_frames(path, frames) -> int:
    """Write frames as raw planar 4:2:0; returns bytes written."""
    total = 0
    with open(path, "wb") as fh:
        for fr in frames:
            if fr.u is None or fr.v is None:
                raise FormatError("cannot write 4:2:0 without chroma planes")
            for plane in (fr.y, fr.u, fr.v):
                data = plane.data.tobytes()
                fh.write(data)
                total += len(data)
    return total


# ---------------------------------------------------------------------------
# Synthetic sequences
# ---------------------------------------------------------------------------

# Plaid texture: frequency pairs in cycles per 48-sample period, with
# amplitude and phase.  The periods divide three macroblock widths, which
# keeps every working-area restriction of the pattern inside the span of a
# handful of basis functions — a texture the sparse model can represent.
WAVE_COMPONENTS = (
    ((2, 1), 36.0, 0.3),
    ((5, 3), 30.0, 1.1),
    ((11, 6), 26.0, 2.2),
    ((20, 9), 20.0, 4.0),
)
_WAVE_PERIOD = 48.0


def _wave_pattern(yy: np.ndarray, xx: np.ndarray) -> np.ndarray:
    acc = np.full(np.broadcast_shapes(yy.shape, xx.shape), 128.0)
    for (a, b), amp, phase in WAVE_COMPONENTS:
        acc = acc + amp * np.cos(
            2.0 * np.pi * (a * yy + b * xx) / _WAVE_PERIOD + phase)
    return acc


class _FieldPattern:
    """Smooth random field, bilinearly sampled at arbitrary positions."""

    def __init__(self, height: int, width: int, margin: int, seed: int):
        rng = np.random.default_rng(seed)
        shape = (height + 2 * margin, width + 2 * margin)
        noise = rng.uniform(0.0, 1.0, size=shape)
        # separable binomial smoothing, a few passes
        for _ in range(6):
            noise = (np.roll(noise, 1, 0) + 2 * noise + np.roll(noise, -1, 0)) / 4
            noise = (np.roll(noise, 1, 1) + 2 * noise + np.roll(noise, -1, 1)) / 4
        lo, hi = noise.min(), noise.max()
        self.master = (noise - lo) / (hi - lo) * 220.0 + 15.0
        self.margin = margin

    def sample(self, yy: np.ndarray, xx: np.ndarray) -> np.ndarray:
        yy = yy + self.margin
        xx = xx + self.margin
        y0 = np.floor(yy).astype(np.intp)
        x0 = np.floor(xx).astype(np.intp)
        fy, fx = yy - y0, xx - x0
        m = self.master
        y0 = np.clip(y0, 0, m.shape[0] - 2)
        x0 = np.clip(x0, 0, m.shape[1] - 2)
        top = m[y0, x0] * (1 - fx) + m[y0, x0 + 1] * fx
        bot = m[y0 + 1, x0] * (1 - fx) + m[y0 + 1, x0 + 1] * fx
        return top * (1 - fy) + bot * fy


def _quantize(values: np.ndarray) -> Plane:
    return Plane(np.clip(np.rint(values), 0, 255).astype(np.uint8))


def _gray_chroma(width: int, height: int) -> Plane:
    return Plane(np.full((height // 2, width // 2), 128, np.uint8))


# The options each sequence kind takes, with their defaults.
SYNTH_OPTIONS = {
    "translate": {"velocity": (0.8, 0.3), "noise_sigma": 0.0,
                  "texture": "waves"},
    "zoom-texture": {"zoom_rate": 0.005},
    "noise": {},
}


def synth_sequence(kind: str, *, width: int = 352, height: int = 288,
                   frames: int = 30, seed: int = 0, **options) -> list:
    """Deterministic test material.

    kind "translate": a fixed textured pattern moves by ``velocity``
    (dy, dx) samples per frame; integer velocities shift exactly.  Texture
    "waves" is an analytic plaid, "field" a smooth seeded random field.
    ``noise_sigma`` > 0 adds fresh per-frame Gaussian observation noise —
    the one thing a temporal predictor cannot carry over.

    kind "zoom-texture": the field texture scaled about the frame centre by
    (1 + zoom_rate) per frame.

    kind "noise": independent uniform noise per frame (worst case).

    `SYNTH_OPTIONS` lists the options each kind takes and their defaults;
    any other option raises `UnusedOptionError` rather than being ignored.
    Chroma planes are constant mid-grey.  Output is bit-reproducible for a
    fixed (kind, geometry, seed, parameter) combination.
    """
    if kind not in SYNTH_OPTIONS:
        raise ValueError(f"unknown sequence kind {kind!r}")
    unused = sorted(set(options) - set(SYNTH_OPTIONS[kind]))
    if unused:
        raise UnusedOptionError(f"sequence kind {kind!r} does not use "
                                f"{', '.join(unused)}")
    options = {**SYNTH_OPTIONS[kind], **options}
    if frames < 1:
        raise ValueError("need at least one frame")
    frame_bytes(width, height)  # positive, even dimensions
    yy, xx = np.mgrid[0:height, 0:width].astype(np.float64)
    out = []
    chroma = _gray_chroma(width, height)

    if kind == "noise":
        rng = np.random.default_rng(seed)
        for _ in range(frames):
            y = rng.integers(0, 256, size=(height, width), dtype=np.uint8)
            out.append(Frame(y=Plane(y), u=chroma, v=chroma))
        return out

    if kind == "translate":
        vy, vx = (float(v) for v in options["velocity"])
        noise_sigma, texture = options["noise_sigma"], options["texture"]
        if texture == "waves":
            sample = _wave_pattern
        elif texture == "field":
            margin = int(np.ceil(max(abs(vy), abs(vx)) * frames)) + 2
            sample = _FieldPattern(height, width, margin, seed).sample
        else:
            raise ValueError(f"unknown texture {texture!r}")
        for t in range(frames):
            values = sample(yy + vy * t, xx + vx * t)
            if noise_sigma > 0.0:
                rng = np.random.default_rng((seed, t))
                values = values + rng.normal(0.0, noise_sigma, values.shape)
            out.append(Frame(y=_quantize(values), u=chroma, v=chroma))
        return out

    if kind == "zoom-texture":
        zoom_rate = options["zoom_rate"]
        margin = int(np.ceil(max(height, width) * abs(zoom_rate) * frames)) + 2
        field = _FieldPattern(height, width, margin, seed)
        cy, cx = (height - 1) / 2.0, (width - 1) / 2.0
        for t in range(frames):
            s = (1.0 + zoom_rate) ** t
            values = field.sample(cy + (yy - cy) * s, cx + (xx - cx) * s)
            out.append(Frame(y=_quantize(values), u=chroma, v=chroma))
        return out
