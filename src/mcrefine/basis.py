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
plus a column key.  The weighted norms are read off the diagonal of that
table, so a context takes one FFT2 of its weighting.  Models are rendered
from per-frequency factor tables, never from a dense basis matrix: a row
factor per row frequency and kind, a column factor per column frequency.

`BasisSet.matrix`, one raster per function, is built lazily on first access
and is not used by the projection route; it is the reference that the tests
check the fast route against.
"""

from __future__ import annotations

import copy
import math
import threading
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
    member.  Function u is ``left[row_key[u]].T @ right[l_freq[u]]``:
    ``left[k]`` is [cos a, -sin a], the row factor of a cosine member of
    row frequency k, and ``left[M + k]`` is [sin a, cos a], that of a sine
    member, so ``row_key`` is ``is_sin * M + k``; ``right[l]`` is [cos b,
    sin b], with a = 2*pi*k*m/M down the rows and b = 2*pi*l*n/N along the
    columns.
    """

    m: int
    n: int
    k_freq: np.ndarray
    l_freq: np.ndarray
    is_sin: np.ndarray
    row_key: np.ndarray  # (M*N,) each function's row in `left`
    left: np.ndarray    # (2M, 2, M) row factors per row frequency and kind
    right: np.ndarray   # (N, 2, N) column factors per column frequency

    @property
    def count(self) -> int:
        return self.k_freq.size

    def function(self, k: int) -> np.ndarray:
        return self.left[self.row_key[k]].T @ self.right[self.l_freq[k]]

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
    def spectrum_keys(self) -> tuple[np.ndarray, np.ndarray]:
        """Where each function's numerator sits in a half spectrum, and its
        sign.

        ``rfft2`` keeps the columns l <= N/2 of the spectrum X.  Positions
        index the float64 view of that half spectrum (real and imaginary
        parts interleaved).  A cosine member reads Re X[k, l] and a sine
        member -Im X[k, l]; a pair with l > N/2 reads its conjugate image
        instead, X[k, l] = conj X[-k, -l], which flips the sign of the
        imaginary part.
        """
        half = self.n // 2 + 1
        mirrored = self.l_freq >= half
        k = np.where(mirrored, (-self.k_freq) % self.m, self.k_freq)
        l = np.where(mirrored, (-self.l_freq) % self.n, self.l_freq)
        keys = (2 * (k * half + l) + self.is_sin,
                np.where(self.is_sin & ~mirrored, -1.0, 1.0))
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
    rebuilt, which only saves memory: contexts of one area size stack
    whatever basis object they hold.  Nothing else keeps a basis alive.
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

    a = _unit_phases(m)
    cos_a, sin_a = np.cos(a), np.sin(a)
    left = np.concatenate((np.stack((cos_a, -sin_a), axis=1),
                           np.stack((sin_a, cos_a), axis=1)))
    row_key = sin_arr * m + k_arr
    b = _unit_phases(n)
    right = np.stack((np.cos(b), np.sin(b)), axis=1)
    for arr in (k_arr, l_arr, sin_arr, row_key, left, right):
        arr.setflags(write=False)
    return BasisSet(m=m, n=n, k_freq=k_arr, l_freq=l_arr, is_sin=sin_arr,
                    row_key=row_key, left=left, right=right)


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


def excluded_mask(norms: np.ndarray) -> np.ndarray:
    """Flag basis functions whose weighted norm is numerically zero, in
    each weighting's row of ``norms`` on its own."""
    top = norms.max(axis=-1, keepdims=True, initial=0.0)
    return norms <= 1e-12 * top


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


def gram_table(weights: np.ndarray) -> np.ndarray:
    """The signed, doubled FFT2(w) tables that `ProjectionContext.gram`
    reads, one per (M, N) weighting of ``weights`` (..., M, N).

    Four quarters, -S, C, S and -C, with C = Re W, S = -Im W and W =
    FFT2(w), each tiled to 2M x 2N and flattened: 16*M*N float64 values,
    295 KB at a 48 x 48 area, shape ``weights.shape[:-2] + (16*M*N,)``.
    Each weighting takes its own FFT2 and its quarters are written into
    the result in place.  The negated quarters are exact negations, so a
    lookup into them equals subtracting the unsigned entry.
    """
    m, n = weights.shape[-2:]
    rows = weights.reshape(-1, m, n)
    table = np.empty((len(rows), 4, 2, m, 2, n))
    for w, quarters in zip(rows, table):
        what = np.fft.fft2(w)
        cos, sin = what.real, -what.imag
        for quarter, part in zip(quarters, (-sin, cos, sin, -cos)):
            quarter[...] = part[None, :, None, :]
    table = table.reshape(weights.shape[:-2] + (16 * m * n,))
    table.setflags(write=False)
    return table


class ProjectionContext:
    """A basis bound to weightings, with fast weighted correlations.

    Numerators are read out of one stacked real FFT at the basis's
    `BasisSet.spectrum_keys` and Gram entries out of the signed, doubled
    FFT2(w) table (`gram_table`), the one FFT2 a context takes of its
    weighting; the norms are read off that table's diagonal once, at
    construction, and models are rendered from the basis factor tables.
    There is one route; the dense `BasisSet.matrix` is only the reference
    that tests check it against.  Functions whose weighted norm
    (numerically) vanishes cannot take part in any projection
    (`excluded_mask`).

    A context built from one (M, N) weight array serves a batch of any
    size, every member weighted alike.  A batch whose members need
    different weightings (different neighbour availability) gets one
    context too: its weighting arrays (`w_flat`, `norms`, `_safe_norms`)
    and its Gram table hold one row per weighting, and ``_slots`` maps
    each member to its row.  Built from a (W, M, N) stack of weights, a
    context holds such rows and serves batches through copies with their
    ``_slots`` set.  The reference weightings of each block size, mu and
    rho are held once, as the rows of one such stack, added as patterns
    are first asked for: `projection_context` hands out a row as a
    single-weighting context of views, and `batch_context` the stack
    with a batch's slots, which can cover every block of a frame.
    `stack_contexts` stacks any other contexts, copying their rows.
    `take` gives the context of some of a stack's members: a view over
    the same Gram table, with its members' slots and their own rows of the
    weighting arrays, gathered once (``_by_member``), so that a batch
    reads them without a gather per call.

    Every method takes the engine's one batch form.  `numerators` takes
    flattened rasters, (..., M*N), with any leading batch axes.  `gram`,
    `render` and `norms_at` take the members' supports, of any sizes, as
    one flat array plus their sizes, member i owning the next ``sizes[i]``
    entries.  With several weightings, `gram` and `norms_at` take exactly
    one support per member.  A stacked call computes every member exactly
    as a call on that member alone would, so results never depend on what
    else is in the batch.
    """

    def __init__(self, basis: BasisSet, weights: np.ndarray):
        if weights.shape[-2:] != (basis.m, basis.n) or weights.ndim > 3:
            raise ValueError(f"weights {weights.shape} do not match basis "
                             f"{(basis.m, basis.n)}")
        self.basis = basis
        self.w_flat = weights.reshape(weights.shape[:-2] + (-1,))
        self._gram_table = gram_table(weights)
        # each function's diagonal Gram entry, as `gram` evaluates it
        keys, diff, total = basis.gram_keys
        self.norms = self._gram_table.take(keys + diff, axis=-1)
        self.norms += self._gram_table.take(keys + total, axis=-1)
        self.norms *= 0.5
        self.norms.setflags(write=False)
        # an excluded function's projection is num / inf = 0
        self._safe_norms = np.where(excluded_mask(self.norms), np.inf,
                                    self.norms)
        self._slots = None   # one weighting, whatever the batch size
        self._by_member = False   # weighting arrays: one row per weighting

    def per_member(self, rows: np.ndarray) -> np.ndarray:
        """``rows``, one of this context's weighting arrays, for each batch
        member: as it is with one weighting, which broadcasts over any
        batch, or in a view that holds its members' own rows; else
        gathered by member."""
        if self._slots is None or self._by_member:
            return rows
        return rows.take(self._slots, axis=0)

    def _in_rows(self, positions: np.ndarray, rows: np.ndarray, stride: int,
                 sizes) -> np.ndarray:
        """Flat support ``positions`` within one row of ``stride`` values,
        moved to each member's row of a stacked array: member i's
        ``sizes[i]`` entries shift by ``rows[i]`` times ``stride``."""
        if len(sizes) != len(rows):
            raise ValueError(f"a stack of {len(rows)} members takes "
                             f"one support per member, got {len(sizes)}")
        return positions + (rows * stride).repeat(sizes)

    def take(self, rows) -> "ProjectionContext":
        """The context of the batch members ``rows`` (an index or a
        slice): this one when every member shares its weighting, else a
        view over the same Gram table whose slots and weighting rows are
        those members' own.  A slice of a view copies nothing."""
        if self._slots is None:
            return self
        view = copy.copy(self)
        view._slots = self._slots[rows]
        by = rows if self._by_member else view._slots
        for name in ("w_flat", "norms", "_safe_norms"):
            setattr(view, name, getattr(self, name)[by])
        view._by_member = True
        return view

    # -- weighted correlations -------------------------------------------

    def numerators(self, residual: np.ndarray) -> np.ndarray:
        """sum(residual * phi_k * w) for every k at once.

        ``residual`` holds (..., M*N) float64 rasters; the result is
        (..., count).  One stacked real FFT serves the whole batch: a real
        FFT along the rows, then a complex one down the columns in place,
        which gives the bits of ``scipy.fft.rfft2`` (the same pocketfft
        passes in the same order) for less call overhead.
        """
        b = self.basis
        weighted = residual * self.per_member(self.w_flat)
        spec = np.fft.rfft(weighted.reshape(-1, b.m, b.n))
        np.fft.fft(spec, axis=-2, out=spec)
        half = spec.view(np.float64).reshape(len(spec), -1)
        positions, signs = b.spectrum_keys
        num = half.take(positions, axis=1)
        num *= signs
        return num.reshape(residual.shape[:-1] + (b.count,))

    def gram(self, indices: np.ndarray, sizes: list) -> np.ndarray:
        """Symmetric matrices of weighted products phi_a * phi_b over P.

        ``indices`` holds the members' supports one after another, member
        i owning ``sizes[i]`` of them, and the result is their K_i x K_i
        matrices, each flattened, one after another.  Product-to-sum
        identities make entry (a, b) half the sum of two signed FFT2(w)
        entries, at the difference and at the sum of the two frequencies:
        cos*cos = (C[diff] + C[sum]) / 2, sin*sin = (C[diff] - C[sum]) /
        2, sin*cos = (S[sum] + S[diff]) / 2 and cos*sin = (S[sum] -
        S[diff]) / 2, with C = Re W, S = -Im W and the row function first.
        Both are read from the signed table, at the row key of a plus the
        difference or sum key of b (`BasisSet.gram_keys`), with no modulo
        and no select; a member's row offset into the stacked tables is
        added once to its row keys.  Every entry is evaluated once, with
        the lower position as the row, so the matrix is exactly symmetric;
        all members' entries come from one gather per key.
        """
        lo, hi = _gram_pairs(sizes)
        keys, diff, total = self.basis.gram_keys
        row = keys.take(indices)
        if self._slots is not None:
            row = self._in_rows(row, self._slots,
                                self._gram_table.shape[-1], sizes)
        row = row.take(lo)
        col = indices.take(hi)
        table = self._gram_table.reshape(-1)
        g = table.take(row + diff.take(col))
        g += table.take(row + total.take(col))
        g *= 0.5
        return g

    def norms_at(self, indices: np.ndarray, sizes: list) -> np.ndarray:
        """Each member's weighted norms at its support, flat as in `gram`."""
        norms = self.norms
        if self._slots is not None:
            rows = np.arange(len(self._slots)) if self._by_member \
                else self._slots
            indices = self._in_rows(indices, rows, norms.shape[-1], sizes)
            norms = norms.reshape(-1)
        return norms.take(indices)

    def render(self, indices: np.ndarray, coefficients: np.ndarray,
               sizes: list) -> np.ndarray:
        """Spatial rasters (flattened) of sum_u c_u * phi_u, one per member.

        ``indices`` and ``coefficients`` are flat as in `gram`, and the
        result is (len(sizes), M*N).  Every function's factor rows are
        gathered and scaled in one call; each member is then one
        (2K, M)^T @ (2K, N) product of its own rows.
        """
        b = self.basis
        rows = b.left.take(b.row_key.take(indices), axis=0)
        rows *= coefficients.reshape(-1, 1, 1)
        rows = rows.reshape(-1, b.m)
        cols = b.right.take(b.l_freq.take(indices), axis=0).reshape(-1, b.n)
        out = np.empty((len(sizes), b.m, b.n))
        start = 0   # two factor rows per function
        for member, k in enumerate(sizes):
            end = start + 2 * k
            np.matmul(rows[start:end].T, cols[start:end], out=out[member])
            start = end
        return out.reshape(len(sizes), b.m * b.n)


def stack_contexts(contexts) -> ProjectionContext:
    """One context for a batch whose member i is weighted by
    ``contexts[i]``, all of one area size: that context itself when every
    member shares it, otherwise a new one whose weighting rows are copies
    of the distinct contexts' arrays, stacked once; the contexts
    themselves are left as they are.  For the reference weightings of
    layouts, `batch_context` gives the same batch without a copy."""
    first = contexts[0]
    if all(c is first for c in contexts):
        return first
    distinct = list({id(c): c for c in contexts}.values())
    size = (first.basis.m, first.basis.n)
    if any((c.basis.m, c.basis.n) != size for c in distinct):
        raise ValueError("stacked contexts must share one area size")
    row = {id(c): i for i, c in enumerate(distinct)}
    stack = copy.copy(first)
    for name in ("w_flat", "norms", "_safe_norms", "_gram_table"):
        setattr(stack, name, np.stack([getattr(c, name) for c in distinct]))
    stack._slots = np.array([row[id(c)] for c in contexts])
    return stack


class _Weightings:
    """The reference weightings of one block size, mu and rho, held once.

    Their tables are the rows of one stacked context, ``stack``: a row is
    added the first time an availability pattern is asked for, so only
    the patterns in use hold rows.  ``contexts`` maps each pattern to its
    single-weighting context, made of views of its row, and `context`
    gives a batch of several patterns the stack itself with its
    ``_slots`` set, so no table is copied.  Adding rows builds a new
    stack and points every context handed out at its row of it, so the
    old stack is freed.  Rows are only ever appended, so a stack handed
    out earlier stays valid.
    """

    def __init__(self, size: int, mu: float, rho: float):
        self.size, self.mu, self.rho = size, mu, rho
        self.stack = None
        self.contexts = {}   # availability -> its row's context
        self.rows = {}       # availability -> its row of ``stack``
        self._lock = threading.Lock()

    def _add(self, patterns) -> None:
        with self._lock:
            new = [p for p in dict.fromkeys(patterns) if p not in self.rows]
            if not new:
                return
            for p in new:
                self.rows[p] = len(self.rows)
            s = self.size
            weights = np.stack([build_weight_mask(ProjectionLayout(
                BlockRef(s, s, s), p), self.mu, self.rho) for p in self.rows])
            stack = ProjectionContext(build_basis(3 * s, 3 * s), weights)
            for p, row in self.rows.items():
                ctx = self.contexts.setdefault(p, copy.copy(stack))
                ctx.basis = stack.basis
                for name in ("w_flat", "norms", "_safe_norms", "_gram_table"):
                    setattr(ctx, name, getattr(stack, name)[row])
            self.stack = stack

    def context(self, patterns: list) -> ProjectionContext:
        """The context of a batch whose member i has availability
        ``patterns[i]``: a pattern's own context when every member shares
        it, else the stack with the members' rows as slots."""
        self._add(patterns)
        if all(p == patterns[0] for p in patterns):
            return self.contexts[patterns[0]]
        stack = copy.copy(self.stack)
        stack._slots = np.array([self.rows[p] for p in patterns])
        return stack


@lru_cache(maxsize=16)
def _weightings(size: int, mu: float, rho: float) -> _Weightings:
    return _Weightings(size, mu, rho)


def projection_context(layout: ProjectionLayout, mu: float = DEFAULT_MU,
                       rho: float = DEFAULT_RHO) -> ProjectionContext:
    """Shared, cached context for a layout's region pattern.

    A layout is its block plus its neighbour availability, and the weights
    depend only on the block size, the availability, ``mu`` and ``rho``, so
    contexts are cached on those four.  The context is a view of its
    pattern's row in the one stacked table of its block size, ``mu`` and
    ``rho`` (`batch_context` hands out that stack), and the basis is
    shared across all contexts of one size.
    """
    return _weightings(layout.block.size, float(mu),
                       float(rho)).context([layout.availability])


def batch_context(layouts, mu: float = DEFAULT_MU,
                  rho: float = DEFAULT_RHO) -> ProjectionContext:
    """One context for a batch whose member i is the working area
    ``layouts[i]``, all of one block size, each weighted by its reference
    weighting: the cached stack of their block size, ``mu`` and ``rho``
    with its ``_slots`` set (the one context of `projection_context` when
    every member shares a pattern).  Every table is read in place, from
    the rows that `projection_context` hands out too; a pattern asked for
    the first time gets its row here, all of a batch's new patterns at
    once."""
    return _weightings(layouts[0].block.size, float(mu), float(rho)).context(
        [layout.availability for layout in layouts])
