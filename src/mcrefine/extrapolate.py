"""Iterative sparse-approximation engines for spatial refinement.

Given the working-area signal f (reconstructed neighbours + the temporal
predictor in the centre), each engine builds a weighted sparse model
g = sum_k c_k * phi_k and hands back the centre block of g as the refined
predictor.  Three engines share all primitives and differ only in how many
functions they take per iteration and how they update coefficients:

fsa   one function per iteration (the largest error decrement); its damped
      projection coefficient is accumulated.
rba   several functions per iteration; the *input* f is re-projected onto
      the span of everything selected so far, replacing all coefficients
      (no damping).
msa   several functions per iteration; their joint projection against the
      running residual is solved on the selected subspace and accumulated
      with damping gamma.

The damping counteracts orthogonality deficiency: basis functions are
orthogonal over the full area but not under the weighting restricted to the
known samples, so an undamped coefficient soaks up portions of unselected
functions.  Taking only a gamma-fraction keeps the weighted error monotone
for gamma in (0, 2) and lets later iterations re-select the same function.

There is one engine loop, `run_batch`: it steps B working areas of one
block size together, and `run` is its B = 1 call.  Their neighbour
availability may differ, so each member has its own weighting: one
`ProjectionContext` weights them all, with one weighting when they all
have the same and otherwise one row per member (`batch_context`), which
the engine reads as it is.  Per iteration it takes one stacked FFT for the
numerators of every member and selects row-wise, which hands back the live
support once, in member order, as flat entries: each member's support is a
run of them, of its own size, with no sort and no grouping by size.
Size-1 systems take the closed form; every larger member's Gram matrix
comes from one ragged gather over all of them, two table reads per entry
from the signed FFT2(w) table; the solutions go into the coefficients in
one scatter; and each member's model update is rendered by one matrix
product.  Members that have converged drop out of the batch.  The loop
runs at batches of a few members in the closed loop and of one in `run`,
so its bookkeeping is kept to a fixed, small number of numpy calls per
step at any batch size: while every member is live nothing is gathered
and the state is updated in place, each member's convergence floor is
computed once per call, and the bookkeeping of members that converge or
retry runs only in an iteration where one does.  What remains above the
arithmetic was measured against a bare one-member loop, written out with
the same numerators, selection rule, Gram, render and LAPACK calls but no
validation, diagnostics or shedding: at B = 1 on engine_mix's windows it
takes 0.79 (fsa), 0.71 (rba) and 0.80 (msa) of `run`'s time per window
(one core of a 2-vCPU VM, numpy 2.4.6).  A call allocates its
state once (`new_state`): the residuals, coefficients, renderings and
span flags, one row per member, and the per-member counters.  A step
writes the residuals, coefficients, renderings and iteration counts in
place; what it computes on the way (the weighted residuals, their
spectra, the numerators, the decrements, the selection masks) is new
each step.  That keeps rba's first numerators, its input's, intact, and
it measured faster end to end than scratch held for the call, whose
buffers at 16 members (295 KB each) slowed open-loop CIF by about 2 %.
The solve, `_solve`, is the only solver and the one place a singular
Gram matrix is handled; `solve_subspace` is its one-member call.  Every
member's block, coefficients and diagnostics are bitwise independent of
the batch size and of its batch-mates: every stacked operation computes
each member exactly as it would compute it alone, and the solve never
pads a system to a size that depends on the batch.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .basis import ProjectionContext, batch_context
from .frame import (ProjectionLayout, SampleError, batch_block_size,
                    check_count, check_real)

log = logging.getLogger(__name__)

# Engines stop early once the best available decrement falls below this
# fraction of the initial weighted error.
CONVERGENCE_FRACTION = 1e-12


@dataclass(frozen=True)
class ExtrapolationParams:
    """Engine selection and its tuning knobs.

    Defaults follow the reference parameterisation: 200 iterations for fsa,
    4 for rba (up to 20 functions each), 12 for msa with threshold 0.75,
    20 functions per iteration and damping 0.5.  ``iterations=None`` takes
    the engine's entry in `DEFAULT_ITERATIONS`.
    """

    algorithm: str = "msa"
    iterations: int | None = None
    tau: float = 0.75
    n_bf: int = 20
    gamma: float = 0.5

    DEFAULT_ITERATIONS = {"fsa": 200, "rba": 4, "msa": 12}

    def __post_init__(self):
        if self.algorithm not in self.DEFAULT_ITERATIONS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}; "
                             f"choose from {tuple(self.DEFAULT_ITERATIONS)}")
        if self.iterations is None:
            object.__setattr__(self, "iterations",
                               self.DEFAULT_ITERATIONS[self.algorithm])
        check_count("iterations", self.iterations)
        check_real("tau", self.tau)
        if not 0.0 < self.tau <= 1.0:
            raise ValueError(f"tau must lie in (0, 1], got {self.tau}")
        check_count("n_bf", self.n_bf)
        check_real("gamma", self.gamma)
        if not 0.0 < self.gamma < 2.0:
            raise ValueError(f"gamma must lie in (0, 2), got {self.gamma}")

    @classmethod
    def defaults(cls, algorithm: str) -> "ExtrapolationParams":
        return cls(algorithm=algorithm)


# Every refinement a codec config names: none, then each engine.
ALGORITHMS = ("none", *ExtrapolationParams.DEFAULT_ITERATIONS)


@dataclass(frozen=True)
class SparseModel:
    """One member's final model, dense coefficients and their rendering:
    its own copies, kept only by a recorded run."""

    coefficients: np.ndarray
    rendering: np.ndarray  # flattened raster of the model

    @property
    def support(self) -> np.ndarray:
        return np.flatnonzero(self.coefficients)


@dataclass
class EngineState:
    """Mutable state of B working areas stepped together, one row each."""

    f: np.ndarray                 # (B, M*N) input signals
    residual: np.ndarray          # (B, M*N) f - g
    coefficients: np.ndarray      # (B, count) model coefficients
    rendering: np.ndarray         # (B, M*N) model rasters, kept in sync
    energy0: np.ndarray           # (B,) weighted error of the zero model
    floor: np.ndarray             # (B,) CONVERGENCE_FRACTION * energy0
    iterations: np.ndarray        # (B,) completed iterations
    converged: np.ndarray         # (B,) bool
    live: np.ndarray              # ascending rows not converged
    gram_retries: np.ndarray      # (B,) singular-Gram retries
    active: np.ndarray            # (B, count) bool: rba's selected span
    f_numerators: np.ndarray | None = None   # rba: projections of f, cached
    selections: list | None = None  # per member, (indices, coefs, energy)


@dataclass(frozen=True)
class Diagnostics:
    iterations: int
    converged: bool
    energy0: float
    energy: float
    coefficient_count: int
    gram_retries: int
    selections: list | None = None


@dataclass(frozen=True)
class RefineResult:
    block: np.ndarray             # centre-block cut of the final model
    model: SparseModel | None     # recorded runs only, else None
    diagnostics: Diagnostics


def new_state(f, ctx: ProjectionContext, record: bool = False) -> EngineState:
    """State for the signals ``f``: (B, M, N) or (B, M*N), or one signal."""
    b = ctx.basis
    f = np.asarray(f, dtype=np.float64).reshape(-1, b.m * b.n)
    batch = len(f)
    energy0 = _weighted_energies(f, ctx)
    return EngineState(
        f=f, residual=f.copy(), coefficients=np.zeros((batch, b.count)),
        rendering=np.zeros(f.shape), energy0=energy0,
        floor=CONVERGENCE_FRACTION * energy0,
        iterations=np.zeros(batch, dtype=int),
        converged=np.zeros(batch, dtype=bool), live=np.arange(batch),
        gram_retries=np.zeros(batch, dtype=int),
        active=np.zeros((batch, b.count), dtype=bool),
        selections=[[] for _ in range(batch)] if record else None)


def _weighted_energies(residuals: np.ndarray,
                       ctx: ProjectionContext) -> np.ndarray:
    """Each member's weighted squared error, one (M*N,) row each."""
    # one dot product per member, bitwise ``weighted[i] @ residuals[i]``
    return np.vecdot(residuals * ctx.w_flat, residuals)


# ---------------------------------------------------------------------------
# Projection, selection, subspace solve
# ---------------------------------------------------------------------------

def decrement_energies(num: np.ndarray, ctx: ProjectionContext) -> np.ndarray:
    """Energy drop each function would cause if taken alone, from its
    weighted correlations ``num`` with the residual: p_k^2 * norm_k with
    p_k = num_k / norm_k.  Excluded functions (zero weighted norm) get 0,
    so they can never be selected.  Leading batch axes are kept.
    """
    # projections p (0 if excluded), in place
    decr = num / ctx._safe_norms
    decr *= decr
    decr *= ctx.norms
    return decr


def select_batch(decrements: np.ndarray, tau: float, n_bf: int,
                 floor: float | np.ndarray = 0.0) -> tuple[np.ndarray, list]:
    """Row-wise `select_candidates` over (L, count) decrements.

    A row keeps every decrement above ``tau`` times its best one plus the
    best one itself.  Rows over the ``n_bf`` cap keep their ``n_bf``
    largest candidates, ties going to the lower index; only the candidates
    are sorted, never a whole row.  A row whose best decrement is not
    positive, or lies below ``floor`` (a scalar or one value per row),
    selects nothing.  Returns the picks as ascending positions into the
    flattened rows, so each row's picks are one run in index order, and
    each row's count as a list.  A cap of one needs no mask: the picks are
    the positions of the valid rows' bests.  Each row's verdict is taken
    on its best decrement as a Python number, so a batch of a few rows
    pays for no per-row arrays.
    """
    if n_bf == 1:   # the picks are the valid rows' bests
        best = decrements.argmax(axis=1)
        best += np.arange(0, decrements.size, decrements.shape[1])
        d_max = decrements.reshape(-1).take(best)
    else:
        d_max = decrements.max(axis=1)
    # each row's verdict in Python: a batch has a few rows
    floors = np.asarray(floor).tolist()
    if not isinstance(floors, list):   # one floor for every row
        floors = [floors] * len(d_max)
    invalid, short = [], []
    for row, (d, low) in enumerate(zip(d_max.tolist(), floors)):
        if not (d > 0.0 and d >= low):
            invalid.append(row)
        elif not d * tau < d:   # tau is 1, or d is subnormal
            short.append(row)
    if n_bf == 1:
        sizes = [1] * len(best)
        for row in invalid:
            sizes[row] = 0
        return np.delete(best, invalid) if invalid else best, sizes
    threshold = d_max * tau
    if invalid:   # an invalid row picks nothing
        threshold[invalid] = np.inf
    picked = decrements > threshold[:, None]
    if short:   # a best that its threshold does not leave below it
        picked[short, decrements[short].argmax(axis=1)] = True
    flat = picked.reshape(-1).nonzero()[0]
    if flat.size > n_bf:   # a row may be over the cap
        counts = picked.sum(axis=1)
        over = (counts > n_bf).nonzero()[0]
        if over.size:
            r, c = np.nonzero(picked[over])
            order = np.lexsort((c, -decrements[over[r], c], r))
            r, c = r[order], c[order]
            first = np.cumsum(counts[over]) - counts[over]
            keep = np.arange(r.size) - first[r] < n_bf
            picked[over] = False
            picked[over[r[keep]], c[keep]] = True
            flat = picked.reshape(-1).nonzero()[0]
    rows, count = decrements.shape
    if rows == 1:   # one row holds every pick
        return flat, [flat.size]
    # each row's picks end where the next row starts
    ends = flat.searchsorted(np.arange(count, decrements.size + 1, count))
    ends = ends.tolist()
    return flat, [end - start for start, end in zip([0] + ends, ends)]


def select_candidates(decrements: np.ndarray, tau: float, n_bf: int) -> np.ndarray:
    """Indices whose decrement exceeds ``tau`` times the best one.

    The set always contains the argmax, is capped at the ``n_bf`` largest
    decrements and is returned sorted by index.  Ties are broken towards the
    lower basis index so results are reproducible across platforms.  An empty
    result means no positive decrement remains (convergence).
    """
    return select_batch(np.asarray(decrements)[None], tau, n_bf)[0]


def solve_subspace(residual, indices, ctx: ProjectionContext
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Joint projection of the residual, one (M, N) or flattened raster,
    onto the selected subspace.

    Solves the weighted normal equations ``G p = b`` with G the symmetric
    Gram matrix of the selected functions and b their weighted correlations
    with the residual.  A single selected function degenerates to the plain
    projection coefficient.  This is the engine's own solve, `_solve`, for
    one member, so a singular system sheds picks as `_solve` describes and
    the returned (sorted) index array may be a subset of the input.
    """
    num = ctx.numerators(np.asarray(residual, dtype=np.float64).reshape(-1))
    idx = np.unique(np.asarray(indices, dtype=np.intp))
    # a one-member view of a batch holds (1, count) norms: one row
    decr = decrement_energies(num, ctx).reshape(1, -1)
    used, _, solution, _ = _solve(idx, [idx.size], None, num[idx], decr, ctx)
    return solution, used


def _solve(idx: np.ndarray, sizes: list, fresh: np.ndarray | None,
           rhs: np.ndarray, decr: np.ndarray, ctx: ProjectionContext
           ) -> tuple[np.ndarray, list, np.ndarray, list]:
    """Solve every member's system, one support of its own size each.

    The flat arrays hold the members' supports one after another, member
    i owning the next ``sizes[i]`` entries: ``idx`` its functions in
    ascending order, ``fresh`` the picks of this iteration (None: every
    entry) and ``rhs`` the right-hand sides there; ``decr`` holds every
    function's decrement, one row per member, read only to shed a pick,
    and ``ctx`` weights the members row by row.  Returns the supports the
    members were solved on, flat like ``idx``, and their sizes (0 for a
    member left with no solution), the solutions there, and the position
    of the member for each singular Gram met.  Without a singular Gram,
    ``idx`` and ``sizes`` come back as they are.

    A size-1 system, and only that, takes the closed form ``rhs / norm``.
    The larger ones' Gram matrices come from one ragged
    `ProjectionContext.gram` call; each member's own is then factored and
    solved alone (`_cholesky_solve`), so each member succeeds or fails on
    its own.  This is the one place a singular Gram is handled: a member
    whose Gram is not positive definite counts one retry, sheds its
    lowest-decrement fresh pick (rba's established span is never fresh)
    and is solved again alone, on its one-member view of ``ctx``, which
    sheds and counts again until its system solves.  A member whose last
    fresh pick is all that is left to shed takes no solution.
    """
    if max(sizes, default=0) < 2:
        return idx, sizes, rhs / ctx.norms_at(idx, sizes), []
    # every entry is written below: closed form, LAPACK or a retry's
    solution = np.empty(len(rhs))
    grams = ctx.gram(idx, sizes)
    single, retried, redone = [], [], {}
    start = corner = 0
    for i, k in enumerate(sizes):
        end, last = start + k, corner + k * k
        if k == 1:
            single.append(start)
        elif k > 1:
            got = _cholesky_solve(grams[corner:last].reshape(k, k),
                                  rhs[start:end])
            if got is not None:
                solution[start:end] = got
            else:
                part = slice(start, end)
                picks = (np.arange(k) if fresh is None
                         else fresh[part].nonzero()[0])
                keep = np.full(k, picks.size > 1)
                if picks.size > 1:
                    weakest = picks[np.argmin(
                        decr[i].take(idx[part][picks]))]
                    log.debug("gram singular; shedding function %d",
                              idx[start + weakest])
                    keep[weakest] = False
                used, _, got, again = _solve(
                    idx[part][keep], [int(keep.sum())],
                    None if fresh is None else fresh[part][keep],
                    rhs[part][keep], decr[i:i + 1],
                    ctx.take(slice(i, i + 1)))
                retried += [i] * (1 + len(again))
                redone[i] = used, got
        start, corner = end, last
    if single:
        solution[single] = rhs[single] / ctx.norms_at(
            idx[single], [int(k == 1) for k in sizes])
    if redone:
        ends = np.cumsum(sizes).tolist()
        parts = [redone.get(i, (idx[end - k:end], solution[end - k:end]))
                 for i, (k, end) in enumerate(zip(sizes, ends))]
        idx = np.concatenate([used for used, _ in parts])
        solution = np.concatenate([got for _, got in parts])
        sizes = [used.size for used, _ in parts]
    return idx, sizes, solution, retried


_lapack = None   # scipy.linalg.lapack, looked up on the first solve


def _cholesky_solve(gram: np.ndarray, rhs: np.ndarray):
    """Solve ``gram @ x = rhs`` with LAPACK's Cholesky solver, ``dposv``,
    on the lower triangle, the only place a system is factored; None when
    ``gram`` is not positive definite.  ``gram`` is exactly symmetric, so
    its transpose is the same matrix in Fortran order, which LAPACK
    factors in place rather than copying.  LAPACK is imported on the first
    solve, not with the module, and kept in `_lapack` for the solves that
    follow."""
    global _lapack
    if _lapack is None:
        from scipy.linalg import lapack as _lapack
    _, x, info = _lapack.dposv(gram.T, rhs, lower=True, overwrite_a=True)
    return None if info else x


# ---------------------------------------------------------------------------
# The engine loop
# ---------------------------------------------------------------------------

def step(state: EngineState, params: ExtrapolationParams,
         ctx: ProjectionContext) -> EngineState:
    """One iteration of the configured engine for every unconverged member.

    fsa and msa select against the residual, solve jointly on the selection
    and accumulate the damped solution (fsa selects one function, so it is
    msa with ``n_bf`` 1).  rba selects against the residual, then
    re-projects the *input* onto the span of every function selected so
    far and replaces all coefficients, undamped; because the span only
    grows, the weighted error cannot increase.  Its first step reuses the
    residual's numerators as those of the input, which the residual still
    equals.  Selection hands back the live support once, as flat entries
    in member order, so every member's support is a run of entries of any
    size, with no sort and no grouping by size.  `_solve` solves them all
    at once and gives back the supports solved on, with the retries to
    count.  The solutions go into the coefficients in one scatter, and
    each member's model update is rendered by one matrix product
    (`ProjectionContext.render`).  A member converges when its best
    decrement falls below its floor, `CONVERGENCE_FRACTION` of its initial
    error, when nothing new is selected, or when `_solve` leaves it no
    solution; every other live member counts one iteration.  While every
    member is live, the state and the context are read whole, with no
    gather.
    """
    live = state.live
    every = live.size == len(state.converged)
    if every:   # the state and the context are read whole
        rows, live_ctx = slice(None), ctx
    elif live.size:
        rows, live_ctx = live, ctx.take(live)
    else:
        return state
    rba = params.algorithm == "rba"
    num = live_ctx.numerators(state.residual[rows])
    if rba and state.f_numerators is None:
        state.f_numerators = num   # the first step: the residual is f
    decr = decrement_energies(num, live_ctx)
    flat, sizes = select_batch(
        decr, params.tau, 1 if params.algorithm == "fsa" else params.n_bf,
        floor=state.floor[rows])
    fresh = None
    if rba:
        flat, sizes, fresh = _grow_span(flat, state.active[rows])
        num = state.f_numerators[rows]
    count = decr.shape[1]
    idx, sizes, solution, retried = _solve(flat % count, sizes, fresh,
                                           num.take(flat), decr, live_ctx)
    if not rba:
        solution *= params.gamma
    members = live
    if retried or 0 in sizes:
        # a member left without a solution converges
        np.add.at(state.gram_retries, live[retried], 1)
        solved = np.array(sizes) > 0
        state.converged[live[~solved]] = True
        state.live = (~state.converged).nonzero()[0]
        members, sizes = live[solved], [k for k in sizes if k]
        every = members.size == len(state.converged)
        rows = slice(None) if every else members
        flat = (members * count).repeat(sizes) + idx
    elif not every:
        flat = (live * count).repeat(sizes) + idx
    # ``flat`` now holds the coefficient positions of the members that
    # take a solution, the state rows ``rows``, each of which counts one
    # iteration
    _apply(state, rows, flat, idx, solution, sizes, ctx, rba)
    if every:   # whole arrays are updated in place, without a copy
        np.add(state.iterations, 1, out=state.iterations)
    else:
        state.iterations[rows] += 1
    # The other members' residuals are recomputed unchanged, without
    # temporaries.
    np.subtract(state.f, state.rendering, out=state.residual)
    if state.selections is not None:
        energies = _weighted_energies(state.residual, ctx).tolist()
        for member, end, k in zip(members, np.cumsum(sizes), sizes):
            state.selections[member].append(
                (idx[end - k:end].copy(), solution[end - k:end].copy(),
                 energies[member]))
    return state


def _grow_span(flat: np.ndarray, active: np.ndarray):
    """rba's supports: each member's picks ``flat`` (positions into its
    (L, count) rows) not yet in its span ``active`` are fresh, and its
    support is the span plus them, or nothing when none is fresh.
    Returns the supports as flat positions, their sizes and the fresh
    flags of their entries."""
    fresh = np.zeros(active.shape, dtype=bool)
    fresh.reshape(-1)[flat] = True
    fresh &= ~active
    support = fresh | active
    support[~fresh.any(axis=1)] = False   # nothing new: no system
    flat = support.reshape(-1).nonzero()[0]
    return flat, support.sum(axis=1).tolist(), fresh.reshape(-1).take(flat)


def _apply(state: EngineState, rows, pos: np.ndarray, idx: np.ndarray,
           values: np.ndarray, sizes: list, ctx: ProjectionContext,
           rba: bool) -> None:
    """Put solutions into the models of the state rows ``rows`` (a basic
    slice for every row, or ascending rows), member j owning the next
    ``sizes[j]`` entries of ``idx`` and ``values``, at the positions
    ``pos`` of the flattened coefficients, in one scatter: rba replaces
    the whole model, fsa/msa add their damped ``values`` to it."""
    rendered = ctx.render(idx, values, sizes)
    if rba:
        state.coefficients[rows] = 0.0
        state.coefficients.reshape(-1)[pos] = values
        state.rendering[rows] = rendered
        state.active[rows] = False
        state.active.reshape(-1)[pos] = True
    else:
        state.coefficients.reshape(-1)[pos] += values
        if isinstance(rows, slice):
            np.add(state.rendering, rendered, out=state.rendering)
        else:
            state.rendering[rows] += rendered


def run_batch(windows, layouts, params: ExtrapolationParams, *,
              context: ProjectionContext | None = None,
              record: bool = False) -> list:
    """Run the configured engine on B working-area signals at once.

    ``windows`` is a (B, M, N) stack of signals and ``layouts`` their B
    working areas, all of one block size; their neighbour availability may
    differ.  ``context`` weights the batch: one weighting for every
    member, or one row per member (see `ProjectionContext`); by default
    every member takes its layout's reference weighting,
    ``batch_context(layouts)``, which a block with no decoded neighbour
    does not have.  Each signal holds reconstructed samples
    on R, the temporal predictor on the centre block and arbitrary values
    on padding; padding carries zero weight and provably never changes
    the result.  Returns one `RefineResult` per window, each bitwise equal
    to what `run` gives for that window alone.  A result holds its own
    copy of its block and its diagnostics, and nothing of the batch's
    engine state; only with ``record`` does it also keep the engine's
    internals: its selections, and its final model as copies of its
    coefficients and rendering.  The call allocates the batch's engine
    state once (`new_state`), and each iteration (`step`) updates it in
    place; the results are built from its per-member figures, converted
    to Python numbers once per call, and the loop stops as soon as no
    member is live.
    Raises `ValueError` before any work for an empty batch, mismatched
    shapes or block sizes, and `SampleError` for a non-finite sample.
    """
    layouts = list(layouts)
    size = batch_block_size(layouts)
    area = (3 * size, 3 * size)
    windows = np.asarray(windows, dtype=np.float64)
    if windows.shape != (len(layouts), *area):
        raise ValueError(f"signal shape {windows.shape} does not match "
                         f"{len(layouts)} layouts of {area}")
    if not np.isfinite(windows).all():
        raise SampleError("working-area signals must be finite")
    ctx = batch_context(layouts) if context is None else context
    state = new_state(windows, ctx, record=record)
    for _ in range(params.iterations):
        step(state, params, ctx)
        if state.live.size == 0:
            break
    blocks = state.rendering.reshape(-1, *area)[:, size:2 * size,
                                                size:2 * size]
    figures = zip(
        state.iterations.tolist(), state.converged.tolist(),
        state.energy0.tolist(),
        _weighted_energies(state.residual, ctx).tolist(),
        [int(np.count_nonzero(row)) for row in state.coefficients],
        state.gram_retries.tolist())
    if not record:
        return [RefineResult(block.copy(), None, Diagnostics(*figure))
                for block, figure in zip(blocks, figures)]
    return [RefineResult(block.copy(), SparseModel(coefficients.copy(),
                                                   rendering.copy()),
                         Diagnostics(*figure, selections))
            for block, figure, coefficients, rendering, selections in zip(
                blocks, figures, state.coefficients, state.rendering,
                state.selections)]


def run(f, layout: ProjectionLayout, params: ExtrapolationParams, *,
        context: ProjectionContext | None = None,
        record: bool = False) -> RefineResult:
    """Run the configured engine on one working-area signal: `run_batch`
    with B = 1.  Returns the centre block of the final model plus run
    diagnostics, and with ``record`` the model itself."""
    return run_batch(np.asarray(f)[None], [layout], params, context=context,
                     record=record)[0]
