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

and product-to-sum identities reduce the weighted product of two basis
functions to half the sum of two entries of W = FFT2(w), one at the
difference and one at the sum of their frequencies, each signed by the two
members' kinds.  Each context keeps those entries, with their signs, in one
flat table: the four quarters -S, C, S and -C, with C = Re W and S = -Im W,
each tiled to 2M x 2N so that a difference or a sum of two frequencies is
in range without a modulo.  Every basis function carries three integer
keys (`BasisSet.gram_keys`), so a Gram entry is two gathers at a row key
plus a column key.  The weighted norms are the diagonal of that rule in
closed form, (W[0, 0] +/- Re W[2k, 2l]) / 2, plus for the cosine member and
minus for the sine member.  Models are rendered from small per-frequency
factor tables, never from a dense basis matrix.

`BasisSet.matrix`, one raster per function, is built lazily on first access
and is not used by the projection route; it is the reference that the tests
check the fast route against.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

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
    def gram_keys(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(row, difference, sum) keys of every function into a Gram table.

        With p = k*2N + l a frequency's position in the 2M x 2N tile and Q
        = 4MN a quarter of the table, the row key is p + Q*sin, the
        difference key -p + M*2N + N + Q*(1 - sin) and the sum key p +
        Q*(1 + sin).  A row key plus a column key then lands in the
        quarter that the two members' kinds select (C for cos*cos at both
        frequencies and sin*sin at the difference, -C for sin*sin at the
        sum, S or -S for mixed pairs) at the difference or the sum of
        their frequencies, each in [0, 2M) x [0, 2N).
        """
        quarter = 4 * self.m * self.n
        pos = self.k_freq * (2 * self.n) + self.l_freq
        sin = self.is_sin * quarter
        keys = (pos + sin, (self.m * 2 * self.n + self.n + quarter) - pos - sin,
                pos + quarter + sin)
        for key in keys:
            key.setflags(write=False)
        return keys

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


# Every basis still held somewhere, by area size, weakly: `build_basis`
# hands out a live one again rather than building a second.
_LIVE_BASES: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def build_basis(m: int, n: int) -> BasisSet:
    """The shared basis of an ``m`` x ``n`` area.

    A basis still held somewhere (by a cached context, which keeps it as
    long as the context stays cached) is handed out again rather than
    rebuilt, so an area size never has two live bases and contexts of one
    size always stack.  Nothing else keeps a basis alive.
    """
    basis = _LIVE_BASES.get((m, n))
    if basis is None:
        basis = _LIVE_BASES[m, n] = _enumerate_basis(m, n)
    return basis


def _enumerate_basis(m: int, n: int) -> BasisSet:
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
def _pair_template(size: int) -> np.ndarray:
    """(2, size**2) positions of a size x size Gram's entries, row-major:
    entry (i, j) pairs the lower position min(i, j), its row, with the
    higher one, max(i, j)."""
    pos = np.arange(size)
    pairs = np.stack((np.minimum.outer(pos, pos).ravel(),
                      np.maximum.outer(pos, pos).ravel()))
    pairs.setflags(write=False)
    return pairs


def _gram_pairs(sizes: list) -> np.ndarray:
    """`_pair_template` of every member, shifted to its support's entries
    in the members' concatenated supports."""
    if len(sizes) == 1:
        return _pair_template(sizes[0])
    pairs = np.concatenate([_pair_template(k) for k in sizes], axis=1)
    sizes = np.asarray(sizes)
    pairs += (sizes.cumsum() - sizes).repeat(sizes * sizes)
    return pairs


def _ragged(indices, sizes):
    """Flat supports, their per-member sizes as a list, and the shape of
    the (..., K) form (None for the flat form).

    The flat form is ``indices`` (E,), member i owning the next
    ``sizes[i]`` entries; the (..., K) form gives every member K.
    """
    idx = np.asarray(indices, dtype=np.intp)
    if sizes is not None:
        return idx, list(sizes), None
    shape = idx.shape
    return idx.reshape(-1), [shape[-1]] * math.prod(shape[:-1]), shape


def gram_table(weights: np.ndarray) -> np.ndarray:
    """The signed, doubled FFT2(w) table that `ProjectionContext.gram` reads.

    Four quarters, -S, C, S and -C, with C = Re W, S = -Im W and W =
    FFT2(w), each tiled to 2M x 2N and flattened: 16*M*N float64 values,
    295 KB at a 48 x 48 area.  The negated quarters are exact negations,
    so a lookup into them equals subtracting the unsigned entry.
    """
    what = np.fft.fft2(weights)
    cos, sin = what.real, -what.imag
    table = np.tile(np.stack((-sin, cos, sin, -cos)), (1, 2, 2)).ravel()
    table.setflags(write=False)
    return table


def _flat_rasters(x, basis: BasisSet) -> np.ndarray:
    """``x`` as (..., M*N) float64 rasters; accepts (..., M, N) too."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-2:] == (basis.m, basis.n):
        return x.reshape(x.shape[:-2] + (basis.m * basis.n,))
    return x


class ProjectionContext:
    """A basis bound to one (M, N) weight array, with fast weighted
    correlations.

    Numerators are read out of one stacked real FFT and Gram entries out of
    the context's signed, doubled FFT2(w) table (`gram_table`), norms come
    in closed form from FFT2(w) (see `precompute_norms`), and models are
    rendered from the basis factor tables.  There is one route; the dense
    `BasisSet.matrix` is only the reference that tests check it against.

    `numerators` takes any leading batch axes.  `gram`, `render` and
    `lookup` take the members' supports, of any sizes, as one flat array
    plus their sizes, which is how the engine calls them; called without
    sizes they take a (..., K) support per member instead, a convenience
    for direct calls that the engine does not use.  A stacked call
    computes every member exactly as a call on that member alone would,
    so results never depend on what else is in the batch.  A batch whose
    members need different weightings (different neighbour availability)
    is served by a `ProjectionStack` instead.
    """

    def __init__(self, basis: BasisSet, weights: np.ndarray):
        self.basis = basis
        self.weights = weights
        self.w_flat = weights.ravel()
        self.norms = precompute_norms(basis, weights)
        self.excluded = excluded_mask(self.norms)
        # an excluded function's projection is num / inf = 0
        self._safe_norms = np.where(self.excluded, np.inf, self.norms)
        self._gram_table = gram_table(weights)
        self._spec_pos, self._spec_sign = _half_spectrum_lookup(basis)

    # -- weighted correlations -------------------------------------------

    def numerators(self, residual) -> np.ndarray:
        """sum(residual * phi_k * w) for every k at once.

        ``residual`` holds (..., M, N) or (..., M*N) rasters; the result
        is (..., count).  One stacked real FFT serves the whole batch: a
        real FFT along the rows, then a complex one down the columns in
        place, which gives the bits of ``scipy.fft.rfft2`` (the same
        pocketfft passes in the same order) for less call overhead.
        """
        b = self.basis
        r = _flat_rasters(residual, b)
        spec = np.fft.rfft((r * self.w_flat).reshape(-1, b.m, b.n))
        np.fft.fft(spec, axis=-2, out=spec)
        half = spec.view(np.float64).reshape(len(spec), -1)
        num = half.take(self._spec_pos, axis=1)
        num *= self._spec_sign
        return num.reshape(r.shape[:-1] + (b.count,))

    def gram(self, indices, sizes=None) -> np.ndarray:
        """Symmetric matrices of weighted products phi_a * phi_b over P.

        ``indices`` is (..., K) and the result (..., K, K); or ``indices``
        holds the members' supports one after another, member i owning
        ``sizes[i]`` of them, and the result is their K_i x K_i matrices,
        each flattened, one after another.  Product-to-sum identities make
        entry (a, b) half the sum of two signed FFT2(w) entries, at the
        difference and at the sum of the two frequencies: cos*cos =
        (C[diff] + C[sum]) / 2, sin*sin = (C[diff] - C[sum]) / 2, sin*cos
        = (S[sum] + S[diff]) / 2 and cos*sin = (S[sum] - S[diff]) / 2,
        with C = Re W, S = -Im W and the row function first.  Both are
        read from the signed table, at the row key of a plus the
        difference or sum key of b (`BasisSet.gram_keys`), with no modulo
        and no select.  Every entry is evaluated once, with the lower
        position as the row, so the matrix is exactly symmetric; all
        members' entries come from one gather per key.
        """
        idx, sizes, shape = _ragged(indices, sizes)
        lo, hi = _gram_pairs(sizes)
        _, diff, total = self.basis.gram_keys
        row = self._row_keys(idx, sizes).take(lo)
        col = idx.take(hi)
        table = self._gram_table
        g = table.take(row + diff.take(col))
        g += table.take(row + total.take(col))
        g *= 0.5
        return g if shape is None else g.reshape(shape + shape[-1:])

    def _row_keys(self, idx: np.ndarray, sizes: list) -> np.ndarray:
        """Gram row keys of the flat supports ``idx`` into `_gram_table`."""
        return self.basis.gram_keys[0].take(idx)

    def lookup(self, table: str, positions, sizes=None) -> np.ndarray:
        """Entries of the weighting table ``table`` (such as ``"norms"``) at
        ``positions``: (..., K), or flat with per-member ``sizes`` as in
        `gram`."""
        return getattr(self, table).take(positions)

    def take(self, rows) -> "ProjectionContext":
        """The context of the batch members ``rows``: this one, since every
        member shares its weighting."""
        return self

    def render(self, indices, coefficients, sizes=None) -> np.ndarray:
        """Spatial rasters (flattened) of sum_u c_u * phi_u.

        ``indices`` and ``coefficients`` are (..., K) and the result is
        (..., M*N); or they are flat with per-member ``sizes`` as in
        `gram`, and the result is (len(sizes), M*N).  Every function's
        factor rows are gathered and scaled in one call; each member is
        then one (2K, M)^T @ (2K, N) product of its own rows.
        """
        b = self.basis
        idx, sizes, shape = _ragged(indices, sizes)
        rows = b.left.take(idx, axis=0)
        rows *= np.asarray(coefficients, dtype=np.float64).reshape(-1, 1, 1)
        cols = b.right.take(b.l_freq.take(idx), axis=0)
        out = np.empty((len(sizes), b.m, b.n))
        start = 0
        for member, k in enumerate(sizes):
            end = start + k
            np.matmul(rows[start:end].reshape(-1, b.m).T,
                      cols[start:end].reshape(-1, b.n), out=out[member])
            start = end
        lead = (len(sizes),) if shape is None else shape[:-1]
        return out.reshape(lead + (b.m * b.n,))


# The arrays that depend on a context's weighting, not only on its basis,
# and that a stack gathers per member when first read.
_WEIGHTING = ("w_flat", "norms", "excluded", "_safe_norms")
# An atlas holds at most this many contexts, one per neighbour-availability
# pattern of one weighting, which bounds its memory.
_ATLAS_SLOTS = 16


class _Atlas:
    """The weighting arrays and Gram tables of the contexts stacked so far
    at one area size, one row per context, built once so that a stack of
    any of those contexts indexes rows instead of copying tables.

    Each of those contexts then reads its own arrays from its atlas row,
    which holds the same values, so a stacked context's Gram table is kept
    once, not twice.
    """

    def __init__(self, contexts):
        self.contexts = tuple(contexts)
        self.slot = {id(c): i for i, c in enumerate(self.contexts)}
        self.rows = {name: np.stack([getattr(c, name) for c in self.contexts])
                     for name in _WEIGHTING + ("_gram_table",)}
        for name, rows in self.rows.items():
            rows.setflags(write=False)
            for context, row in zip(self.contexts, rows):
                setattr(context, name, row)


_ATLASES: dict[tuple[int, int], _Atlas] = {}


def _atlas(contexts) -> _Atlas:
    """The atlas of the area size of ``contexts`` (distinct contexts of one
    basis), extended by those it lacks.  A full atlas starts over with
    ``contexts`` alone, which bounds its memory."""
    shape = (contexts[0].basis.m, contexts[0].basis.n)
    atlas = _ATLASES.get(shape)
    known = atlas.contexts if atlas is not None else ()
    missing = tuple(c for c in contexts if c not in known)
    if missing:
        if len(known) + len(missing) > _ATLAS_SLOTS:
            known, missing = (), tuple(contexts)
        atlas = _ATLASES[shape] = _Atlas(known + missing)
    return atlas


class ProjectionStack(ProjectionContext):
    """One weighting per batch member, over one shared basis.

    Member i is weighted like ``contexts[i]``, so one batch can mix
    neighbour-availability classes of one block size.  The contexts' arrays
    are rows of the atlas of their area size, stacked once and shared by
    every later stack of those contexts.  The weighting arrays (`w_flat`,
    `norms`, `excluded`, ...) gain a leading member axis, gathered from the
    atlas rows when first read.  `gram` reads the flat atlas Gram table:
    each member's slot offset is added once to its row keys, so the (K, K)
    positions cost no more than a single context's.  `lookup` reads each
    member's norms the same way.  Both therefore take exactly one support
    per member, one row of (members, K) positions or one flat run each,
    and reject any other shape.  Every method therefore computes member i
    bitwise as ``contexts[i]`` computes it alone.  `take` restricts the
    stack to some members without copying any table, and hands back the
    plain context when those members share one weighting.
    """

    def __init__(self, contexts):
        distinct = list({id(c): c for c in contexts}.values())
        first = distinct[0]
        if any(c.basis is not first.basis for c in distinct):
            raise ValueError("stacked contexts must share one basis")
        atlas = _atlas(distinct)
        self.basis = first.basis
        self._spec_pos, self._spec_sign = first._spec_pos, first._spec_sign
        self._contexts = atlas.contexts
        self._tables = atlas.rows
        self._gram_table = atlas.rows["_gram_table"].reshape(-1)
        self._bind(np.array([atlas.slot[id(c)] for c in contexts]))

    def _bind(self, slots: np.ndarray) -> None:
        """Make member i the atlas row ``slots[i]``."""
        self._slots = slots
        self._gram_offsets = slots * self._tables["_gram_table"].shape[1]

    def __getattr__(self, name):
        # Only reached while a weighting array has not been read yet.
        if name not in _WEIGHTING:
            raise AttributeError(name)
        value = self._tables[name][self._slots]
        setattr(self, name, value)
        return value

    def _row_keys(self, idx: np.ndarray, sizes: list) -> np.ndarray:
        return self.basis.gram_keys[0].take(idx) \
            + self._per_entry(self._gram_offsets, sizes)

    def _per_entry(self, offsets: np.ndarray, sizes: list) -> np.ndarray:
        """Member i's ``offsets[i]`` once for each of its ``sizes[i]``
        support entries."""
        if len(sizes) != len(offsets):
            raise ValueError(f"a stack of {len(offsets)} members takes one "
                             f"support per member, got {len(sizes)}")
        return offsets.repeat(sizes)

    def lookup(self, table: str, positions, sizes=None) -> np.ndarray:
        """Member i's entries of ``table`` at its positions: row i of
        (members, K) positions, or its ``sizes[i]`` flat ones."""
        rows = self._tables[table]
        idx, sizes, shape = _ragged(positions, sizes)
        # one flat gather: offsets into the stacked rows cost less to add
        # than a second index array costs to broadcast
        got = rows.reshape(-1).take(
            idx + self._per_entry(self._slots * rows.shape[1], sizes))
        return got if shape is None else got.reshape(shape)

    def take(self, rows) -> ProjectionContext:
        """The context of the members ``rows`` (an index or a slice): the
        members' own context when they all share one, else a stack."""
        if isinstance(rows, slice) and rows == slice(None):
            return self
        slots = self._slots[rows]
        shared = set(slots.tolist())
        if len(shared) == 1:
            return self._contexts[shared.pop()]
        view = object.__new__(ProjectionStack)
        view.__dict__.update((key, value) for key, value
                             in self.__dict__.items() if key not in _WEIGHTING)
        view._bind(slots)
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
