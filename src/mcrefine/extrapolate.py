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
block size together.  Their neighbour availability may differ, so each
member has its own weighting: one shared `ProjectionContext` when they all
have the same, a `ProjectionStack` of per-member weightings otherwise.  Per
iteration it takes one stacked FFT for the numerators of every member and
selects row-wise.  It then extracts the live support once, as flat
entries, so each group of members with the same support size is a set of
(G, K) arrays (indices, right-hand sides, decrements and fresh flags) read
off those entries without copying a (G, count) row; entries are reordered
by support size only when the sizes differ.  Each group's Gram matrices
are built in one stacked call, two gathers per entry from the signed
FFT2(w) table, and its models are rendered in another; members that have
converged drop out of the batch.  `run` is its B = 1 call.  The solve,
`_solve_group`, is the only solver, and `solve_subspace` is its one-member
call: it factors and solves each member's Gram on its own with LAPACK's
Cholesky pair (``dpotrf``, ``dpotrs``), so a member whose Gram is singular
fails alone and sheds its weakest fresh pick, one retry at a time, until
its system is solvable or no fresh pick is left, while its batch-mates are
factored once.  Every
member's block, coefficients and diagnostics are bitwise independent of
the batch size and of its batch-mates: every stacked operation computes
each member exactly as it would compute it alone, and the solve never pads
a system to a size that depends on the batch.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

from .basis import ProjectionContext, projection_context, stack_contexts
from .frame import ProjectionLayout, SampleError

log = logging.getLogger(__name__)

# Engines stop early once the best available decrement falls below this
# fraction of the initial weighted error.
CONVERGENCE_FRACTION = 1e-12

ALGORITHMS = ("none", "fsa", "rba", "msa")


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
                             f"choose from {ALGORITHMS}")
        if self.iterations is None:
            object.__setattr__(self, "iterations",
                               self.DEFAULT_ITERATIONS[self.algorithm])
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if not 0.0 < self.tau <= 1.0:
            raise ValueError(f"tau must lie in (0, 1], got {self.tau}")
        if self.n_bf < 1:
            raise ValueError("n_bf must be >= 1")
        if not 0.0 < self.gamma < 2.0:
            raise ValueError(f"gamma must lie in (0, 2), got {self.gamma}")

    @classmethod
    def defaults(cls, algorithm: str) -> "ExtrapolationParams":
        return cls(algorithm=algorithm)


@dataclass(frozen=True)
class SparseModel:
    """One member's final model: dense coefficients and their rendering."""

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
    iterations: np.ndarray        # (B,) completed iterations
    converged: np.ndarray         # (B,) bool
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
    model: SparseModel
    diagnostics: Diagnostics


def new_state(f, ctx: ProjectionContext, record: bool = False) -> EngineState:
    """State for the signals ``f``: (B, M, N) or (B, M*N), or one signal."""
    b = ctx.basis
    f = np.asarray(f, dtype=np.float64).reshape(-1, b.m * b.n)
    batch = f.shape[0]
    return EngineState(
        f=f, residual=f.copy(), coefficients=np.zeros((batch, b.count)),
        rendering=np.zeros_like(f),
        energy0=np.array([_weighted_energy(row, w) for row, w
                          in zip(f, _member_weights(ctx, batch))]),
        iterations=np.zeros(batch, dtype=int),
        converged=np.zeros(batch, dtype=bool),
        gram_retries=np.zeros(batch, dtype=int),
        active=np.zeros((batch, b.count), dtype=bool),
        selections=[[] for _ in range(batch)] if record else None)


def _member_weights(ctx: ProjectionContext, batch: int):
    """Every member's flattened weights, indexable by member."""
    w = ctx.w_flat
    return w if w.ndim == 2 else [w] * batch


def _weighted_energy(residual_flat: np.ndarray, w_flat: np.ndarray) -> float:
    return float((residual_flat * w_flat) @ residual_flat)


# ---------------------------------------------------------------------------
# Projection, selection, subspace solve
# ---------------------------------------------------------------------------

def decrement_energies(num: np.ndarray, ctx: ProjectionContext) -> np.ndarray:
    """Energy drop each function would cause if taken alone, from its
    weighted correlations ``num`` with the residual: p_k^2 * norm_k with
    p_k = num_k / norm_k.  Excluded functions (zero weighted norm) get 0,
    so they can never be selected.  Leading batch axes are kept.
    """
    decr = num / ctx._safe_norms    # projections p (0 if excluded), in place
    decr *= decr
    decr *= ctx.norms
    return decr


def select_batch(decrements: np.ndarray, tau: float, n_bf: int,
                 floor: float | np.ndarray = 0.0) -> np.ndarray:
    """Row-wise `select_candidates` over (B, count) decrements, as a mask.

    A row keeps every decrement above ``tau`` times its best one plus the
    best one itself.  Rows over the ``n_bf`` cap keep their ``n_bf``
    largest candidates, ties going to the lower index; only the candidates
    are sorted, never a whole row.  A row whose best decrement is not
    positive, or lies below ``floor`` (a scalar or one value per row),
    selects nothing.
    """
    rows = np.arange(len(decrements))
    best = decrements.argmax(axis=1)      # the first best of each row
    d_max = decrements[rows, best]
    valid = (d_max > 0.0) & (d_max >= floor)
    if n_bf == 1:   # a cap of one keeps only the best
        picked = np.zeros(decrements.shape, dtype=bool)
        picked[rows, best] = valid
        return picked
    picked = decrements > tau * d_max[:, None]
    picked &= valid[:, None]
    picked[rows, best] = valid
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
    return picked


def select_candidates(decrements: np.ndarray, tau: float, n_bf: int) -> np.ndarray:
    """Indices whose decrement exceeds ``tau`` times the best one.

    The set always contains the argmax, is capped at the ``n_bf`` largest
    decrements and is returned sorted by index.  Ties are broken towards the
    lower basis index so results are reproducible across platforms.  An empty
    result means no positive decrement remains (convergence).
    """
    return np.flatnonzero(select_batch(np.asarray(decrements)[None], tau,
                                       n_bf)[0])


def solve_subspace(residual, indices, ctx: ProjectionContext
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Joint projection of the residual onto the selected subspace.

    Solves the weighted normal equations ``G p = b`` with G the symmetric
    Gram matrix of the selected functions and b their weighted correlations
    with the residual.  A single selected function degenerates to the plain
    projection coefficient.  Numerically singular systems shed their
    lowest-decrement member and are retried, so the returned (sorted) index
    array may be a subset of the input.  This is the engine's own solve,
    `_solve_group`, for one member.
    """
    num = ctx.numerators(np.asarray(residual, dtype=np.float64))
    idx = np.unique(np.asarray(indices, dtype=np.intp))
    decr = decrement_energies(num, ctx)
    solved = _solve_group(np.zeros(1, int), idx[None],
                          np.ones((1, idx.size), bool), num[idx][None],
                          decr[idx][None], ctx, np.zeros(1, int))
    if not solved:
        return np.empty(0), np.empty(0, dtype=np.intp)
    _, used, solution = solved[0]
    return solution[0], used[0]


def _solve_group(members: np.ndarray, idx: np.ndarray, fresh: np.ndarray,
                 rhs: np.ndarray, decr: np.ndarray, ctx: ProjectionContext,
                 retries: np.ndarray) -> list:
    """Solve the systems of members that share one support size.

    Row g of the (G, K) arrays belongs to ``members[g]``: ``idx`` holds its
    support in ascending order, ``fresh`` flags the picks of this
    iteration, and ``rhs`` and ``decr`` hold the right-hand sides and
    decrements at those functions.  Returns (members, indices, solution)
    triples with equally sized solutions.  The group's Gram matrices are
    built in one stacked call; each member's own is then factored and
    solved by LAPACK's Cholesky pair, ``dpotrf`` and ``dpotrs``, on its
    lower triangle, the only place a system is factored.  So each member
    succeeds or fails on its own: a member whose Gram is not positive
    definite sheds its lowest-decrement fresh pick (rba's established span
    is never fresh), counts one retry in ``retries[member]`` and is solved
    again alone; once no fresh pick is left it takes no solution.  ``ctx``
    weights the group's members, row by row.
    """
    if idx.shape[1] == 1:
        return [(members, idx, rhs / ctx.lookup("norms", idx))]
    solution = np.empty_like(rhs)
    failed = []
    for g, gram in enumerate(ctx.gram(idx)):
        low, info = dpotrf(gram, lower=True)
        if info:
            failed.append(g)
        else:
            solution[g] = dpotrs(low, rhs[g], lower=True)[0]
    if not failed:
        return [(members, idx, solution)]
    ok = np.ones(len(members), dtype=bool)
    ok[failed] = False
    solved = [(members[ok], idx[ok], solution[ok])] if ok.any() else []
    for g in failed:
        retries[members[g]] += 1
        picks = fresh[g].nonzero()[0]
        if picks.size == 1:
            continue
        weakest = picks[np.argmin(decr[g, picks])]
        log.debug("gram singular; shedding function %d", idx[g, weakest])
        keep = np.arange(idx.shape[1]) != weakest
        solved += _solve_group(members[g:g + 1],
                               *(a[g:g + 1, keep]
                                 for a in (idx, fresh, rhs, decr)),
                               ctx.take(slice(g, g + 1)), retries)
    return solved


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
    grows, the weighted error cannot increase.  The live support is read
    with one ``nonzero`` over the (L, count) mask; its entries, ordered by
    (support size, member, index) when the sizes differ, give each size's
    members as contiguous (G, K) arrays of indices, right-hand sides,
    decrements and fresh flags.  Members with equally large systems share
    one `_solve_group` call on those arrays, which factors each member's
    Gram on its own; a member whose Gram is singular sheds fresh picks, one
    retry each, until it solves.  A member converges when its best
    decrement falls below `CONVERGENCE_FRACTION` of its initial error, when
    nothing new is selected, or when the retries shed every fresh pick;
    every other live member counts one iteration.
    """
    live = (~state.converged).nonzero()[0]
    if live.size == 0:
        return state
    rba = params.algorithm == "rba"
    if rba and state.f_numerators is None:
        state.f_numerators = ctx.numerators(state.f)
    rows = _index(live, len(state.converged))
    live_ctx = ctx.take(rows)
    num = live_ctx.numerators(state.residual[rows])
    decr = decrement_energies(num, live_ctx)
    n_bf = 1 if params.algorithm == "fsa" else params.n_bf
    fresh = select_batch(decr, params.tau, n_bf,
                         floor=CONVERGENCE_FRACTION * state.energy0[rows])
    if rba:
        fresh &= ~state.active[rows]
        support = fresh | state.active[rows]
        support[~fresh.any(axis=1)] = False   # nothing new: no system
    else:
        support = fresh
    # The live support, once, as flat entries of the (L, count) masks.
    # When the sizes differ they are ordered by (size, member, index), so
    # that each size's group is one contiguous (G, K) block of entries.
    count = support.shape[1]
    flat = support.reshape(-1).nonzero()[0]
    sizes = support.sum(axis=1)
    group_sizes = sorted(set(sizes.tolist()) - {0})
    if len(group_sizes) > 1:
        flat = flat[sizes[flat // count].argsort(kind="stable")]
        by_size = sizes.argsort(kind="stable")
        ends = np.bincount(sizes).cumsum()
        groups = [by_size[ends[size - 1]:ends[size]] for size in group_sizes]
    else:   # one size: the entries are in order already
        groups = [sizes.nonzero()[0]] * len(group_sizes)
    col = flat % count
    rhs = (state.f_numerators[rows] if rba else num).take(flat)
    decr, fresh = decr.take(flat), fresh.take(flat)
    # A live member converges unless it takes a solution.
    state.converged[live] = True
    solved = []
    start = 0
    for size, group in zip(group_sizes, groups):
        n = len(group)
        block = slice(start, start + size * n)
        start += size * n
        group = _index(group, len(live))
        for members, idx, solution in _solve_group(
                live[group], *(a[block].reshape(n, size)
                               for a in (col, fresh, rhs, decr)),
                live_ctx.take(group), state.gram_retries):
            values = solution if rba else params.gamma * solution
            state.converged[members] = False
            _apply(state, members, idx, values, ctx, rba)
            solved.append((members, idx, values))
    state.iterations += ~state.converged
    # The other members' residuals are recomputed unchanged, without
    # temporaries.
    np.subtract(state.f, state.rendering, out=state.residual)
    if state.selections is not None:
        weights = _member_weights(ctx, len(state.f))
        for members, idx, values in solved:
            for member, used, coefs in zip(members, idx, values):
                state.selections[member].append(
                    (used.copy(), coefs.copy(),
                     _weighted_energy(state.residual[member],
                                      weights[member])))
    return state


def _index(rows: np.ndarray, total: int):
    """Ascending ``rows`` of a ``total``-row array as an index: a basic
    slice when they are all rows, which indexes without copying."""
    return slice(None) if rows.size == total else rows


def _apply(state: EngineState, members: np.ndarray, idx: np.ndarray,
           values: np.ndarray, ctx: ProjectionContext, rba: bool) -> None:
    """Put one group's solutions into the models: rba replaces the whole
    model, fsa/msa add their damped ``values`` to it."""
    flat = (members[:, None] * state.coefficients.shape[1] + idx).ravel()
    rows = _index(members, len(state.converged))
    if rba:
        state.coefficients[rows] = 0.0
        state.coefficients.reshape(-1)[flat] = values.ravel()
        state.rendering[rows] = ctx.render(idx, values)
        state.active[rows] = False
        state.active.reshape(-1)[flat] = True
    else:
        state.coefficients.reshape(-1)[flat] += values.ravel()
        state.rendering[rows] += ctx.render(idx, values)


def run_batch(windows, layouts, params: ExtrapolationParams, *,
              context: ProjectionContext | None = None,
              record: bool = False) -> list:
    """Run the configured engine on B working-area signals at once.

    ``windows`` is a (B, M, N) stack of signals and ``layouts`` their B
    working areas, all of one block size; their neighbour availability may
    differ.  ``context`` weights the batch, member by member (see
    `stack_contexts`); by default every member takes its layout's reference
    weighting, ``projection_context(layout)``.  Each signal holds
    reconstructed samples on R, the temporal predictor on the centre block
    and arbitrary values on padding; padding carries zero weight and
    provably never changes the result.  Returns one `RefineResult` per
    window, each bitwise equal to what `run` gives for that window alone.
    Raises `ValueError` before any work for an empty batch, mismatched
    shapes or block sizes, and `SampleError` for a non-finite sample.
    """
    layouts = list(layouts)
    if not layouts:
        raise ValueError("a batch needs at least one working area")
    first = layouts[0]
    windows = np.asarray(windows, dtype=np.float64)
    if windows.ndim != 3 or windows.shape[1:] != (first.m, first.n) \
            or len(windows) != len(layouts):
        raise ValueError(f"signal shape {windows.shape} does not match "
                         f"{len(layouts)} layouts of {(first.m, first.n)}")
    if any(layout.block.size != first.block.size for layout in layouts):
        raise ValueError("a batch takes one block size")
    if not np.isfinite(windows).all():
        raise SampleError("working-area signals must be finite")
    ctx = context if context is not None else stack_contexts(
        [projection_context(layout) for layout in layouts])
    state = new_state(windows, ctx, record=record)
    for _ in range(params.iterations):
        step(state, params, ctx)
        if state.converged.all():
            break
    sl = first.block_slices
    blocks = state.rendering.reshape(-1, first.m, first.n)[:, sl[0], sl[1]]
    weights = _member_weights(ctx, len(windows))
    results = []
    for i in range(len(windows)):
        diag = Diagnostics(
            iterations=int(state.iterations[i]),
            converged=bool(state.converged[i]),
            energy0=float(state.energy0[i]),
            energy=_weighted_energy(state.residual[i], weights[i]),
            coefficient_count=int(np.count_nonzero(state.coefficients[i])),
            gram_retries=int(state.gram_retries[i]),
            selections=None if state.selections is None
            else state.selections[i])
        model = SparseModel(coefficients=state.coefficients[i],
                            rendering=state.rendering[i])
        results.append(RefineResult(block=blocks[i].copy(), model=model,
                                    diagnostics=diag))
    return results


def run(f, layout: ProjectionLayout, params: ExtrapolationParams, *,
        context: ProjectionContext | None = None,
        record: bool = False) -> RefineResult:
    """Run the configured engine on one working-area signal: `run_batch`
    with B = 1.  Returns the centre block of the final model plus run
    diagnostics."""
    return run_batch(np.asarray(f)[None], [layout], params, context=context,
                     record=record)[0]
