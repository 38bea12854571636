import copy
import weakref

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from scipy.linalg import lapack

from mcrefine.basis import ProjectionContext, projection_context
from mcrefine.extrapolate import CONVERGENCE_FRACTION, decrement_energies
from mcrefine.frame import BlockRef, build_layout

# FFT plans and basis construction make first calls slow; wall-clock
# deadlines would flake.
settings.register_profile(
    "suite", deadline=None,
    suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("suite")


_MATRICES = {}   # id(basis) -> its dense matrix, dropped with the basis


def basis_matrix(basis):
    """Dense (M*N, M*N) matrix of ``basis``, one flattened raster per row
    (C-order), built from the frequencies, not the factor tables.

    The reference the fast route is checked against, built once per basis
    and freed with it: 40.5 MB at 48 x 48, so the library never builds
    one.
    """
    key = id(basis)
    if key not in _MATRICES:
        m, n = basis.m, basis.n
        rows = np.arange(m)[:, None].astype(np.float64)
        cols = np.arange(n)[None, :].astype(np.float64)
        grid = (rows / m)[None, :, :] * basis.k_freq[:, None, None] \
            + (cols / n)[None, :, :] * basis.l_freq[:, None, None]
        phase = (2.0 * np.pi) * grid.reshape(basis.count, m * n)
        matrix = np.where(basis.is_sin[:, None], np.sin(phase), np.cos(phase))
        matrix.setflags(write=False)
        _MATRICES[key] = matrix
        weakref.finalize(basis, _MATRICES.pop, key, None)
    return _MATRICES[key]


def basis_function(basis, k):
    """Function ``k`` of ``basis`` as an (M, N) raster, from its factor
    tables: ``left[row_key[k]].T @ right[l_freq[k]]``."""
    return basis.left[basis.row_key[k]].T @ basis.right[basis.l_freq[k]]


def stack_contexts(contexts):
    """One context for a batch whose member i is weighted by
    ``contexts[i]``, single-weighting contexts of one area size: that
    context itself when every member shares it, otherwise a batch of one
    row per member, as a context built from a (B, M, N) stack of weights
    holds, with copies of each member's arrays; the contexts themselves
    are left as they are.  For the reference weightings of layouts,
    `batch_context` gives such a batch over one shared Gram table."""
    first = contexts[0]
    if all(c is first for c in contexts):
        return first
    size = (first.basis.m, first.basis.n)
    if any((c.basis.m, c.basis.n) != size for c in contexts):
        raise ValueError("stacked contexts must share one area size")
    stack = copy.copy(first)
    for name in ("w_flat", "norms", "_safe_norms", "_gram_table"):
        setattr(stack, name, np.stack([getattr(c, name) for c in contexts]))
    stack._slots = np.arange(len(contexts))
    return stack


def select_reference(row, tau, n_bf, floor=0.0):
    """Brute-force selection of one row of decrements, the reference for
    `select_batch`: the functions in order of decreasing decrement, ties
    to the lower index; of those, every one above ``tau`` times the best
    plus the best itself, the first ``n_bf`` of them; nothing when the
    best is not positive or lies below ``floor``.  Ascending indices."""
    row = [float(d) for d in row]
    order = sorted(range(len(row)), key=lambda k: (-row[k], k))
    best = row[order[0]]
    if not (best > 0.0 and best >= floor):
        return np.array([], dtype=np.intp)
    picks = [k for k in order if k == order[0] or row[k] > tau * best]
    return np.array(sorted(picks[:n_bf]), dtype=np.intp)


def reference_run(window, params, ctx):
    """A bare one-member engine: the reference for `run` and `run_batch`.

    The engines' rule written out for one window, with no batch, no live
    set and no singular-Gram handling (its windows must not need any):
    select by `select_reference` against the residual, down to a floor of
    `CONVERGENCE_FRACTION` of the initial weighted error; fsa and msa
    solve on the picks and add the damped solution, rba re-projects the
    input onto the span of every pick so far and stops when no pick is
    new.  It shares the context's numerators, Gram entries and rendering
    with the library, so only the engine's bookkeeping is under test, and
    it solves with LAPACK's ``dpotrf`` then ``dpotrs``.  Returns the
    model's rendering, its coefficients, the iterations taken and whether
    the run converged.
    """
    f = np.asarray(window, dtype=np.float64).reshape(-1)
    count = ctx.basis.count
    coefficients, rendering = np.zeros(count), np.zeros(f.size)
    floor = CONVERGENCE_FRACTION * np.dot(f * ctx.w_flat, f)
    rba = params.algorithm == "rba"
    n_bf = 1 if params.algorithm == "fsa" else params.n_bf
    span = np.array([], dtype=np.intp)
    f_num = ctx.numerators(f)
    residual = f
    for it in range(params.iterations):
        num = ctx.numerators(residual)
        picks = select_reference(decrement_energies(num, ctx), params.tau,
                                 n_bf, floor)
        if rba:
            if np.setdiff1d(picks, span).size == 0:
                return rendering, coefficients, it, True
            span = idx = np.union1d(span, picks)
            rhs = f_num[idx]
        else:
            if picks.size == 0:
                return rendering, coefficients, it, True
            idx, rhs = picks, num[picks]
        if idx.size == 1:
            solution = rhs / ctx.norms[idx]
        else:
            low, info = lapack.dpotrf(
                ctx.gram(idx, [idx.size]).reshape(idx.size, idx.size),
                lower=True)
            assert info == 0, "the reference takes no singular Gram"
            solution = lapack.dpotrs(low, rhs, lower=True)[0]
        if rba:
            coefficients = np.zeros(count)
            coefficients[idx] = solution
            rendering = ctx.render(idx, solution, [idx.size])[0]
        else:
            solution *= params.gamma
            coefficients[idx] += solution
            rendering = rendering + ctx.render(idx, solution, [idx.size])[0]
        residual = f - rendering
    return rendering, coefficients, params.iterations, False


class MatrixContext(ProjectionContext):
    """Reference projections read straight off the dense `basis_matrix`.

    The test oracle for the FFT route: norms are inherited (one closed-form
    definition), while numerators, Gram entries and renderings are plain
    matrix products with the materialised basis.  Like the FFT route, it
    takes flattened rasters with any leading batch axes, and flat supports
    with their per-member sizes.
    """

    def numerators(self, residual):
        return (residual * self.w_flat) @ basis_matrix(self.basis).T

    def gram(self, indices, sizes):
        grams = []
        for part in np.split(indices, np.cumsum(sizes)[:-1]):
            sub = basis_matrix(self.basis)[part]
            g = (sub * self.w_flat) @ sub.T
            grams.append(((g + g.T) * 0.5).ravel())
        return np.concatenate(grams)

    def render(self, indices, coefficients, sizes):
        cuts = np.cumsum(sizes)[:-1]
        return np.stack([c @ basis_matrix(self.basis)[i] for i, c in zip(
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
