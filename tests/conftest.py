import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from mcrefine.basis import ProjectionContext, projection_context
from mcrefine.frame import BlockRef, build_layout

# FFT plans and basis construction make first calls slow; wall-clock
# deadlines would flake.
settings.register_profile(
    "suite", deadline=None,
    suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("suite")


class MatrixContext(ProjectionContext):
    """Reference projections read straight off the dense `BasisSet.matrix`.

    The test oracle for the FFT route: norms are inherited (one closed-form
    definition), while numerators, Gram entries and renderings are plain
    matrix products with the materialised basis.  Like the FFT route, it
    takes flattened rasters with any leading batch axes, and flat supports
    with their per-member sizes.
    """

    def numerators(self, residual):
        return (residual * self.w_flat) @ self.basis.matrix.T

    def gram(self, indices, sizes):
        grams = []
        for part in np.split(indices, np.cumsum(sizes)[:-1]):
            sub = self.basis.matrix[part]
            g = (sub * self.w_flat) @ sub.T
            grams.append(((g + g.T) * 0.5).ravel())
        return np.concatenate(grams)

    def render(self, indices, coefficients, sizes):
        cuts = np.cumsum(sizes)[:-1]
        return np.stack([c @ self.basis.matrix[i] for i, c in zip(
            np.split(indices, cuts), np.split(coefficients, cuts))])


def square_grams(ctx, indices):
    """``ctx.gram`` of a (..., K) support per member, as (..., K, K)
    matrices."""
    idx = np.asarray(indices, dtype=np.intp)
    k = idx.shape[-1]
    flat = ctx.gram(idx.reshape(-1), [k] * (idx.size // k))
    return flat.reshape(idx.shape + (k,))


def reference_gram(ctx, indices):
    """Gram matrices by the modulo/`np.where` formula over W = FFT2(w).

    The reference for `ProjectionContext.gram`, which must match it bit for
    bit: the same two FFT2(w) entries per product, at the difference and
    the sum of the two frequencies taken modulo (M, N), signed by the two
    members' kinds, added once and halved, with the lower position as the
    row.
    """
    b = ctx.basis
    what = np.fft.fft2(ctx.w_flat.reshape(b.m, b.n))
    # the cos-type table Re W, then the sin-type -Im W
    table = np.concatenate((what.real.ravel(), -what.imag.ravel()))
    idx = np.asarray(indices, dtype=np.intp)
    pos = np.arange(idx.shape[-1])
    row = idx[..., np.minimum.outer(pos, pos)]
    col = idx[..., np.maximum.outer(pos, pos)]
    kr, lr, sr = b.k_freq[row], b.l_freq[row], b.is_sin[row]
    kc, lc, sc = b.k_freq[col], b.l_freq[col], b.is_sin[col]
    diff = ((kr - kc) % b.m) * b.n + (lr - lc) % b.n
    total = ((kr + kc) % b.m) * b.n + (lr + lc) % b.n
    # cos*cos = (Re W[diff] + Re W[sum]) / 2, sin*sin = (Re W[diff] -
    # Re W[sum]) / 2, sin*cos = (S[sum] + S[diff]) / 2 and cos*sin =
    # (S[sum] - S[diff]) / 2, with S = -Im W and the row function first.
    same = sr == sc
    size = b.m * b.n
    first = table[np.where(same, diff, size + total)]
    second = table[np.where(same, total, size + diff)]
    return 0.5 * (first + np.where(same != sr, second, -second))


@pytest.fixture(scope="session")
def layout8():
    """Interior block of size 8: all four neighbours available, 24x24 area."""
    return build_layout((96, 96), BlockRef(48, 48, size=8))


@pytest.fixture(scope="session")
def ctx8(layout8):
    return projection_context(layout8)


@pytest.fixture(scope="session")
def ctx8_matrix(ctx8):
    b = ctx8.basis
    return MatrixContext(b, ctx8.w_flat.reshape(b.m, b.n))


@pytest.fixture(scope="session")
def layout16():
    """Interior block at the reference size: 48x48 working area."""
    return build_layout((352, 288), BlockRef(160, 144, size=16))


@pytest.fixture(scope="session")
def ctx16(layout16):
    return projection_context(layout16)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
