"""Real Fourier basis over the working area, spatial weighting, projections.

The model space is spanned by the real-valued family derived from the 2-D
DFT on the M x N working area: for every non-redundant frequency pair (k, l)
a cosine member cos(2*pi*(k*m/M + l*n/N)) and, unless the pair is its own
conjugate image, a sine member sin(2*pi*(k*m/M + l*n/N)).  Conjugate images
(k, l) and ((-k) mod M, (-l) mod N) describe the same real subspace and are
enumerated once, so the family contains exactly M*N functions and spans the
whole real raster space.  All members are mutually orthogonal under the
uniform inner product over the area.

Projections against an arbitrary non-negative weighting are the workhorse of
the extrapolation engines.  They take one route: every weighted correlation
is read out of two FFTs,

    sum_x r[x] w[x] cos(phi_k[x]) =  Re FFT2(r*w)[k, l]
    sum_x r[x] w[x] sin(phi_k[x]) = -Im FFT2(r*w)[k, l]

and product-to-sum identities reduce weighted products of two basis
functions to lookups into W = FFT2(w).  The weighted norms are the diagonal
of that rule in closed form, (W[0, 0] +/- Re W[2k, 2l]) / 2, plus for the
cosine member and minus for the sine member.  Models are rendered from
small per-frequency factor tables, never from a dense basis matrix.

`BasisSet.matrix`, one raster per function, is built lazily on first access
and is not used by the projection route; it is the reference that tests
and analysis scripts check the fast route against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .frame import REGION_B, REGION_R, ProjectionLayout


class ParameterError(ValueError):
    """A weighting or basis parameter is outside its valid range."""


@dataclass(frozen=True)
class BasisSet:
    """The complete real basis over an M x N working area.

    Index 0 is the DC function.  ``k_freq``/``l_freq``/``is_sin`` describe
    each function's frequency pair and whether it is the sine or cosine
    member.  Function u is ``left[u].T @ right[l_freq[u]]``: ``left[u]`` is
    [cos a, -sin a] for a cosine member and [sin a, cos a] for a sine member,
    ``right[l]`` is [cos b, sin b], with a = 2*pi*k*m/M down the rows and
    b = 2*pi*l*n/N along the columns.
    """

    m: int
    n: int
    k_freq: np.ndarray
    l_freq: np.ndarray
    is_sin: np.ndarray
    left: np.ndarray    # (M*N, 2, M) row factors per function
    right: np.ndarray   # (N, 2, N) column factors per column frequency

    @property
    def count(self) -> int:
        return self.k_freq.size

    def function(self, k: int) -> np.ndarray:
        return self.left[k].T @ self.right[self.l_freq[k]]

    @cached_property
    def matrix(self) -> np.ndarray:
        """Dense (M*N, M*N) matrix, one flattened raster per row (C-order).

        The reference for tests and scripts; 40.5 MB at 48 x 48, so nothing
        on the projection route reads it.
        """
        rows = np.arange(self.m)[:, None].astype(np.float64)
        cols = np.arange(self.n)[None, :].astype(np.float64)
        grid = (rows / self.m)[None, :, :] * self.k_freq[:, None, None] \
            + (cols / self.n)[None, :, :] * self.l_freq[:, None, None]
        phase = (2.0 * np.pi) * grid.reshape(self.count, self.m * self.n)
        matrix = np.where(self.is_sin[:, None], np.sin(phase), np.cos(phase))
        matrix.setflags(write=False)
        return matrix


def _unit_phases(size: int) -> np.ndarray:
    """Table [f, x] = 2*pi*((f*x) mod size)/size: frequency f at sample x."""
    f = np.arange(size)
    return (2.0 * np.pi / size) * ((f[:, None] * f[None, :]) % size)


@lru_cache(maxsize=4)
def build_basis(m: int, n: int) -> BasisSet:
    """Enumerate the real DFT-derived basis for an ``m`` x ``n`` area.

    Frequency pairs are walked in row-major order; of each conjugate pair
    only the lexicographically smaller representative is emitted, cosine
    before sine.  Self-conjugate pairs (the sine would be identically zero)
    contribute only their cosine member.
    """
    if m < 1 or n < 1:
        raise ParameterError("basis extents must be positive")
    k_freq, l_freq, is_sin = [], [], []
    for k in range(m):
        for l in range(n):
            conj = ((-k) % m, (-l) % n)
            if conj < (k, l):
                continue  # conjugate image of an earlier pair
            k_freq.append(k)
            l_freq.append(l)
            is_sin.append(False)
            if conj != (k, l):
                k_freq.append(k)
                l_freq.append(l)
                is_sin.append(True)
    k_arr = np.asarray(k_freq, dtype=np.intp)
    l_arr = np.asarray(l_freq, dtype=np.intp)
    sin_arr = np.asarray(is_sin, dtype=bool)
    assert k_arr.size == m * n

    a = _unit_phases(m)[k_arr]
    cos_a, sin_a = np.cos(a), np.sin(a)
    left = np.where(sin_arr[:, None, None],
                    np.stack((sin_a, cos_a), axis=1),
                    np.stack((cos_a, -sin_a), axis=1))
    b = _unit_phases(n)
    right = np.stack((np.cos(b), np.sin(b)), axis=1)
    for arr in (k_arr, l_arr, sin_arr, left, right):
        arr.setflags(write=False)
    return BasisSet(m=m, n=n, k_freq=k_arr, l_freq=l_arr, is_sin=sin_arr,
                    left=left, right=right)


@dataclass(frozen=True)
class WeightMask:
    """Non-negative per-sample weighting of the working area."""

    w: np.ndarray
    mu: float
    rho: float

    @classmethod
    def uniform(cls, m: int, n: int, value: float = 1.0) -> "WeightMask":
        """Constant weighting over the whole area (padding included)."""
        w = np.full((m, n), float(value))
        w.setflags(write=False)
        return cls(w=w, mu=float(value), rho=0.5)


# Reference weighting: centre-block weight and radial decay on R.
DEFAULT_MU = 0.5
DEFAULT_RHO = 0.8


def check_weighting(mu: float, rho: float) -> None:
    """Raise `ParameterError` unless ``mu > 0`` and ``0 < rho < 1``."""
    if not 0.0 < rho < 1.0:
        raise ParameterError(f"decay factor rho must lie in (0, 1), got {rho}")
    if mu <= 0.0:
        raise ParameterError(f"centre-block weight mu must be positive, got {mu}")


def build_weight_mask(layout: ProjectionLayout, mu: float = DEFAULT_MU,
                      rho: float = DEFAULT_RHO) -> WeightMask:
    """Spatial weighting: ``mu`` on the centre block, a radial decay on R.

    Reconstructed samples are weighted ``rho ** d`` where ``d`` is the
    Euclidean distance from the centre of the working area, so neighbours far
    from the block contribute little.  Padding gets exactly zero.
    """
    check_weighting(mu, rho)
    m, n = layout.m, layout.n
    rows = np.arange(m, dtype=np.float64)[:, None] - (m - 1) / 2.0
    cols = np.arange(n, dtype=np.float64)[None, :] - (n - 1) / 2.0
    dist = np.sqrt(rows * rows + cols * cols)
    w = np.where(layout.region_map == REGION_R, rho ** dist, 0.0)
    w = np.where(layout.region_map == REGION_B, mu, w)
    w.setflags(write=False)
    return WeightMask(w=w, mu=float(mu), rho=float(rho))


def _weights_array(w) -> np.ndarray:
    return w.w if isinstance(w, WeightMask) else np.asarray(w, dtype=np.float64)


def weighted_inner(a, b, w) -> float:
    """Weighted inner product sum(a * b * w) over the working area."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    wa = _weights_array(w)
    if not (a.shape == b.shape == wa.shape):
        raise ValueError(
            f"dimension mismatch: {a.shape}, {b.shape}, weights {wa.shape}")
    return float(np.sum(a * b * wa))


def precompute_norms(basis: BasisSet, w) -> np.ndarray:
    """Weighted squared norm of every basis function under ``w``.

    Closed form: cos^2 = (1 + cos 2phi) / 2 and sin^2 = (1 - cos 2phi) / 2,
    so the norm of the (k, l) member is (W[0, 0] +/- Re W[2k, 2l]) / 2 with
    W = FFT2(w), the same product-to-sum rule as the Gram diagonal.
    Functions whose weighted norm (numerically) vanishes cannot take part in
    any projection; callers detect them via `excluded_mask`.
    """
    wa = _weights_array(w)
    if wa.shape != (basis.m, basis.n):
        raise ValueError(f"weights {wa.shape} do not match basis "
                         f"{(basis.m, basis.n)}")
    wc = np.fft.fft2(wa).real
    doubled = wc[(2 * basis.k_freq) % basis.m, (2 * basis.l_freq) % basis.n]
    norms = 0.5 * (wc[0, 0] + np.where(basis.is_sin, -doubled, doubled))
    norms.setflags(write=False)
    return norms


def excluded_mask(norms: np.ndarray) -> np.ndarray:
    """Flag basis functions whose weighted norm is numerically zero."""
    top = norms.max(initial=0.0)
    return norms <= 1e-12 * top


class ProjectionContext:
    """A basis bound to one weight mask, with fast weighted correlations.

    Numerators and Gram entries are read out of FFT tables, norms come in
    closed form from FFT2(w) (see `precompute_norms`), and models are
    rendered from the basis factor tables.  There is one route; the dense
    `BasisSet.matrix` is only the reference that tests check it against.
    """

    def __init__(self, basis: BasisSet, weights: WeightMask):
        self.basis = basis
        self.weights = weights
        wa = _weights_array(weights)
        self.w_flat = wa.ravel()
        self.norms = precompute_norms(basis, wa)
        self.excluded = excluded_mask(self.norms)
        self._safe_norms = np.where(self.excluded, 1.0, self.norms)
        what = np.fft.fft2(wa)
        self._wc = np.ascontiguousarray(what.real)   # cos-type table
        self._ws = np.ascontiguousarray(-what.imag)  # sin-type table

    # -- weighted correlations -------------------------------------------

    def numerators(self, residual: np.ndarray) -> np.ndarray:
        """sum(residual * phi_k * w) for every k at once."""
        b = self.basis
        r = residual.reshape(b.m, b.n)
        spec = np.fft.fft2(r * _weights_array(self.weights))
        return np.where(b.is_sin,
                        -spec.imag[b.k_freq, b.l_freq],
                        spec.real[b.k_freq, b.l_freq])

    def gram(self, indices: np.ndarray) -> np.ndarray:
        """Symmetric matrix of weighted products phi_a * phi_b over P."""
        b = self.basis
        idx = np.asarray(indices, dtype=np.intp)
        ka, la, sa = b.k_freq[idx], b.l_freq[idx], b.is_sin[idx]
        kd = (ka[:, None] - ka[None, :]) % b.m
        ld = (la[:, None] - la[None, :]) % b.n
        ks = (ka[:, None] + ka[None, :]) % b.m
        ls = (la[:, None] + la[None, :]) % b.n
        cd, cs = self._wc[kd, ld], self._wc[ks, ls]
        sd, ss = self._ws[kd, ld], self._ws[ks, ls]
        cos_cos = 0.5 * (cd + cs)
        sin_sin = 0.5 * (cd - cs)
        cos_sin = 0.5 * (ss - sd)   # row cosine, column sine
        sin_cos = 0.5 * (ss + sd)   # row sine, column cosine
        row_sin = sa[:, None]
        col_sin = sa[None, :]
        g = np.where(row_sin,
                     np.where(col_sin, sin_sin, sin_cos),
                     np.where(col_sin, cos_sin, cos_cos))
        # Mirror the upper triangle so the result is exactly symmetric.
        upper = np.triu(g, 1)
        return upper + upper.T + np.diag(np.diagonal(g))

    def render(self, indices: np.ndarray, coefficients: np.ndarray) -> np.ndarray:
        """Spatial raster (flattened) of sum_u c_u * phi_u."""
        b = self.basis
        idx = np.asarray(indices, dtype=np.intp)
        c = np.asarray(coefficients, dtype=np.float64)
        rows = (b.left[idx] * c[:, None, None]).reshape(-1, b.m)
        cols = b.right[b.l_freq[idx]].reshape(-1, b.n)
        return (rows.T @ cols).ravel()


@lru_cache(maxsize=64)
def _cached_context(m: int, n: int, size: int,
                    availability: tuple[bool, bool, bool, bool],
                    mu: float, rho: float) -> ProjectionContext:
    from .frame import BlockRef, ProjectionLayout, _region_map
    layout = ProjectionLayout(
        block=BlockRef(x0=size, y0=size, size=size),
        m=m, n=n,
        region_map=_region_map(size, availability),
        availability=availability,
        origin=(0, 0),
    )
    return ProjectionContext(build_basis(m, n), build_weight_mask(layout, mu, rho))


def projection_context(layout: ProjectionLayout, mu: float = DEFAULT_MU,
                       rho: float = DEFAULT_RHO) -> ProjectionContext:
    """Shared, cached context for a layout's region pattern.

    Layouts at the same frame position class (same neighbour availability and
    block size) produce identical weight masks, so contexts are cached on
    that key.  The basis itself is shared across all contexts of one size.
    """
    return _cached_context(layout.m, layout.n, layout.block.size,
                           layout.availability, float(mu), float(rho))
