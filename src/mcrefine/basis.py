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
the extrapolation engines.  A weighting is a plain read-only (M, N) float64
array; `build_weight_mask` derives the reference one from a working area's
block size and neighbour availability.  Projections take one route: every
weighted correlation is read out of two FFTs,

    sum_x r[x] w[x] cos(phi_k[x]) =  Re FFT2(r*w)[k, l]
    sum_x r[x] w[x] sin(phi_k[x]) = -Im FFT2(r*w)[k, l]

and product-to-sum identities reduce weighted products of two basis
functions to lookups into W = FFT2(w).  The weighted norms are the diagonal
of that rule in closed form, (W[0, 0] +/- Re W[2k, 2l]) / 2, plus for the
cosine member and minus for the sine member.  Models are rendered from
small per-frequency factor tables, never from a dense basis matrix.

`BasisSet.matrix`, one raster per function, is built lazily on first access
and is not used by the projection route; it is the reference that the tests
check the fast route against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
import scipy.fft

from .frame import REGION_B, REGION_R, BlockRef, ProjectionLayout


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

        The reference for the tests; 40.5 MB at 48 x 48, so nothing on the
        projection route reads it.
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


# Reference weighting: centre-block weight and radial decay on R.
DEFAULT_MU = 0.5
DEFAULT_RHO = 0.8


def check_weighting(mu: float, rho: float) -> None:
    """Raise `ParameterError` unless ``mu`` is finite and positive and
    ``0 < rho < 1``."""
    if not 0.0 < rho < 1.0:
        raise ParameterError(f"decay factor rho must lie in (0, 1), got {rho}")
    if not 0.0 < mu < math.inf:
        raise ParameterError(
            f"centre-block weight mu must be finite and positive, got {mu}")


def build_weight_mask(layout: ProjectionLayout, mu: float = DEFAULT_MU,
                      rho: float = DEFAULT_RHO) -> np.ndarray:
    """Spatial weighting: ``mu`` on the centre block, a radial decay on R.

    Reconstructed samples are weighted ``rho ** d`` where ``d`` is the
    Euclidean distance from the centre of the working area, so neighbours far
    from the block contribute little.  Padding gets exactly zero.  Returns
    a read-only float64 (M, N) array.
    """
    check_weighting(mu, rho)
    m, n = layout.m, layout.n
    rows = np.arange(m, dtype=np.float64)[:, None] - (m - 1) / 2.0
    cols = np.arange(n, dtype=np.float64)[None, :] - (n - 1) / 2.0
    dist = np.sqrt(rows * rows + cols * cols)
    w = np.where(layout.region_map == REGION_R, rho ** dist, 0.0)
    w = np.where(layout.region_map == REGION_B, mu, w)
    w.setflags(write=False)
    return w


def precompute_norms(basis: BasisSet, w: np.ndarray) -> np.ndarray:
    """Weighted squared norm of every basis function under ``w``.

    Closed form: cos^2 = (1 + cos 2phi) / 2 and sin^2 = (1 - cos 2phi) / 2,
    so the norm of the (k, l) member is (W[0, 0] +/- Re W[2k, 2l]) / 2 with
    W = FFT2(w), the same product-to-sum rule as the Gram diagonal.
    Functions whose weighted norm (numerically) vanishes cannot take part in
    any projection; callers detect them via `excluded_mask`.
    """
    if w.shape != (basis.m, basis.n):
        raise ValueError(f"weights {w.shape} do not match basis "
                         f"{(basis.m, basis.n)}")
    wc = np.fft.fft2(w).real
    doubled = wc[(2 * basis.k_freq) % basis.m, (2 * basis.l_freq) % basis.n]
    norms = 0.5 * (wc[0, 0] + np.where(basis.is_sin, -doubled, doubled))
    norms.setflags(write=False)
    return norms


def excluded_mask(norms: np.ndarray) -> np.ndarray:
    """Flag basis functions whose weighted norm is numerically zero."""
    top = norms.max(initial=0.0)
    return norms <= 1e-12 * top


def _half_spectrum_lookup(basis: BasisSet) -> tuple[np.ndarray, np.ndarray]:
    """Where each function's numerator sits in a half spectrum, and its sign.

    ``rfft2`` keeps the columns l <= N/2 of the spectrum X.  Positions index
    the float64 view of that half spectrum (real and imaginary parts
    interleaved).  A cosine member reads Re X[k, l] and a sine member
    -Im X[k, l]; a pair with l > N/2 reads its conjugate image instead,
    X[k, l] = conj X[-k, -l], which flips the sign of the imaginary part.
    """
    m, n = basis.m, basis.n
    half = n // 2 + 1
    mirrored = basis.l_freq >= half
    k = np.where(mirrored, (-basis.k_freq) % m, basis.k_freq)
    l = np.where(mirrored, (-basis.l_freq) % n, basis.l_freq)
    positions = 2 * (k * half + l) + basis.is_sin
    signs = np.where(basis.is_sin & ~mirrored, -1.0, 1.0)
    return positions, signs


@lru_cache(maxsize=128)
def _pair_positions(size: int) -> tuple[np.ndarray, np.ndarray]:
    """(min(i, j), max(i, j)) for every entry (i, j) of a size x size matrix."""
    pos = np.arange(size)
    lower, upper = np.minimum.outer(pos, pos), np.maximum.outer(pos, pos)
    lower.setflags(write=False)
    upper.setflags(write=False)
    return lower, upper


def _flat_rasters(x, basis: BasisSet) -> np.ndarray:
    """``x`` as (..., M*N) float64 rasters; accepts (..., M, N) too."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-2:] == (basis.m, basis.n):
        return x.reshape(x.shape[:-2] + (basis.m * basis.n,))
    return x


class ProjectionContext:
    """A basis bound to one (M, N) weight array, with fast weighted
    correlations.

    Numerators and Gram entries are read out of FFT tables, norms come in
    closed form from FFT2(w) (see `precompute_norms`), and models are
    rendered from the basis factor tables.  There is one route; the dense
    `BasisSet.matrix` is only the reference that tests check it against.

    `numerators`, `gram` and `render` take any leading batch axes, and a
    stacked call computes every member exactly as a call on that member
    alone would, so results never depend on what else is in the batch.
    A batch whose members need different weightings (different neighbour
    availability) is served by a `ProjectionStack` instead.
    """

    def __init__(self, basis: BasisSet, weights: np.ndarray):
        self.basis = basis
        self.weights = weights
        self.w_flat = weights.ravel()
        self.norms = precompute_norms(basis, weights)
        self.excluded = excluded_mask(self.norms)
        self._safe_norms = np.where(self.excluded, 1.0, self.norms)
        what = np.fft.fft2(weights)
        # Gram lookups: the cos-type table Re W, then the sin-type -Im W.
        self._w_table = np.concatenate((what.real.ravel(),
                                        -what.imag.ravel()))
        self._spec_pos, self._spec_sign = _half_spectrum_lookup(basis)

    # -- weighted correlations -------------------------------------------

    def numerators(self, residual) -> np.ndarray:
        """sum(residual * phi_k * w) for every k at once.

        ``residual`` holds (..., M, N) or (..., M*N) rasters; the result
        is (..., count).  One stacked real FFT serves the whole batch.
        """
        b = self.basis
        r = _flat_rasters(residual, b)
        spec = scipy.fft.rfft2((r * self.w_flat).reshape(-1, b.m, b.n))
        half = spec.view(np.float64).reshape(len(spec), -1)
        num = np.take(half, self._spec_pos, axis=1)
        num *= self._spec_sign
        return num.reshape(r.shape[:-1] + (b.count,))

    def gram(self, indices) -> np.ndarray:
        """Symmetric matrices of weighted products phi_a * phi_b over P.

        ``indices`` is (..., K); the result is (..., K, K).  Product-to-sum
        identities read every entry from the FFT2(w) table at the difference
        and the sum of the two frequencies.  Entry (i, j) is evaluated with
        the lower position as the row, so the matrix is exactly symmetric.
        """
        b = self.basis
        idx = np.asarray(indices, dtype=np.intp)
        lower, upper = _pair_positions(idx.shape[-1])
        row, col = idx[..., lower], idx[..., upper]
        kr, lr, sr = b.k_freq[row], b.l_freq[row], b.is_sin[row]
        kc, lc, sc = b.k_freq[col], b.l_freq[col], b.is_sin[col]
        diff = ((kr - kc) % b.m) * b.n + (lr - lc) % b.n
        total = ((kr + kc) % b.m) * b.n + (lr + lc) % b.n
        # cos*cos = (Re W[diff] + Re W[sum]) / 2, sin*sin = (Re W[diff] -
        # Re W[sum]) / 2, sin*cos = (S[sum] + S[diff]) / 2 and cos*sin =
        # (S[sum] - S[diff]) / 2, with S = -Im W and the row function first.
        same = sr == sc
        size = b.m * b.n
        first = self.lookup("_w_table", np.where(same, diff, size + total))
        second = self.lookup("_w_table", np.where(same, total, size + diff))
        return 0.5 * (first + np.where(same != sr, second, -second))

    def lookup(self, table: str, positions) -> np.ndarray:
        """Entries of the weighting table ``table`` (``"norms"`` or
        ``"_w_table"``) at ``positions``, whose leading axes are batch axes."""
        return getattr(self, table)[positions]

    def take(self, rows) -> "ProjectionContext":
        """The context of the batch members ``rows``: this one, since every
        member shares its weighting."""
        return self

    def render(self, indices, coefficients) -> np.ndarray:
        """Spatial rasters (flattened) of sum_u c_u * phi_u.

        ``indices`` and ``coefficients`` are (..., K); the result is
        (..., M*N), one stacked matrix product of the factor tables.
        """
        b = self.basis
        idx = np.asarray(indices, dtype=np.intp)
        c = np.asarray(coefficients, dtype=np.float64)
        lead = idx.shape[:-1]
        rows = (b.left[idx] * c[..., None, None]).reshape(lead + (-1, b.m))
        cols = b.right[b.l_freq[idx]].reshape(lead + (-1, b.n))
        return (np.swapaxes(rows, -1, -2) @ cols).reshape(lead + (b.m * b.n,))


# The arrays that depend on a context's weighting, not only on its basis.
_WEIGHTING = ("w_flat", "norms", "excluded", "_safe_norms", "_w_table")


class ProjectionStack(ProjectionContext):
    """One weighting per batch member, over one shared basis.

    Member i is weighted like ``contexts[i]``, so one batch can mix
    neighbour-availability classes of one block size.  The weighting arrays
    (`w_flat`, `norms`, `excluded`, ...) gain a leading member axis; each is
    gathered from the distinct contexts when first read, and `lookup` reads
    member i's Gram table and norms straight from its own context's.  Every
    method therefore computes member i bitwise as ``contexts[i]`` computes
    it alone.  `take` restricts the stack to some members without copying
    their tables, and hands back the plain context when those members
    share one weighting.
    """

    def __init__(self, contexts):
        distinct = list({id(c): c for c in contexts}.values())
        first = distinct[0]
        if any(c.basis is not first.basis for c in distinct):
            raise ValueError("stacked contexts must share one basis")
        self._distinct = distinct
        self.basis = first.basis
        self._spec_pos, self._spec_sign = first._spec_pos, first._spec_sign
        self._tables = {name: np.stack([getattr(c, name) for c in distinct])
                        for name in _WEIGHTING}
        slot = {id(c): i for i, c in enumerate(distinct)}
        self._slots = np.array([slot[id(c)] for c in contexts])

    def __getattr__(self, name):
        # Only reached while a weighting array has not been read yet.
        if name not in _WEIGHTING:
            raise AttributeError(name)
        value = self._tables[name][self._slots]
        setattr(self, name, value)
        return value

    def lookup(self, table: str, positions) -> np.ndarray:
        """Member i's entries of ``table`` at ``positions[i]``, one row of
        positions per member."""
        rows = self._tables[table]
        # one flat gather: offsets into the stacked rows cost less to add
        # than a second index array costs to broadcast
        offsets = self._slots * rows.shape[1]
        return rows.reshape(-1)[positions + offsets.reshape(
            offsets.shape + (1,) * (positions.ndim - 1))]

    def take(self, rows) -> ProjectionContext:
        """The context of the members ``rows`` (an index or a slice): the
        members' own context when they all share one, else a stack."""
        if isinstance(rows, slice) and rows == slice(None):
            return self
        slots = self._slots[rows]
        shared = set(slots.tolist())
        if len(shared) == 1:
            return self._distinct[shared.pop()]
        view = object.__new__(ProjectionStack)
        view.__dict__.update((key, value) for key, value
                             in self.__dict__.items() if key not in _WEIGHTING)
        view._slots = slots
        return view


def stack_contexts(contexts) -> ProjectionContext:
    """One context for a batch whose member i is weighted by
    ``contexts[i]``: that context itself when every member shares it,
    otherwise a `ProjectionStack`."""
    first = contexts[0]
    if all(c is first for c in contexts):
        return first
    return ProjectionStack(contexts)


@lru_cache(maxsize=64)
def _cached_context(size: int, availability: tuple[bool, bool, bool, bool],
                    mu: float, rho: float) -> ProjectionContext:
    layout = ProjectionLayout(BlockRef(size, size, size), availability)
    return ProjectionContext(build_basis(layout.m, layout.n),
                             build_weight_mask(layout, mu, rho))


def projection_context(layout: ProjectionLayout, mu: float = DEFAULT_MU,
                       rho: float = DEFAULT_RHO) -> ProjectionContext:
    """Shared, cached context for a layout's region pattern.

    A layout is its block plus its neighbour availability, and the weights
    depend only on the block size, the availability, ``mu`` and ``rho``, so
    contexts are cached on those four.  The basis itself is shared across
    all contexts of one size.
    """
    return _cached_context(layout.block.size, layout.availability,
                           float(mu), float(rho))
