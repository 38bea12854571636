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
iteration it takes one stacked FFT for the numerators of every member,
selects row-wise, builds the Gram matrices by table gathers, and solves and
renders each group of members with the same support size in one stacked
call; members that have converged drop out of the batch.
`run` is its B = 1 call.  That stacked Cholesky solve, `_solve_group`, is
the only solver, and `solve_subspace` is its one-member call.  If a
group's stack is singular, its members are solved again one by one, and a
member whose own Gram is singular sheds its weakest fresh pick, one retry
at a time, until its system is solvable or no fresh pick is left.  Every
member's block, coefficients and diagnostics are bitwise independent of
the batch size and of its batch-mates: every stacked operation computes
each member exactly as it would compute it alone, and the solve never pads
a system to a size that depends on the batch.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .basis import ProjectionContext, projection_context, stack_contexts
from .frame import ProjectionLayout

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
    decr = num / ctx._safe_norms    # projections p, then in place
    decr[..., ctx.excluded] = 0.0
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
    d_max = decrements.max(axis=1, initial=0.0)
    valid = (d_max > 0.0) & (d_max >= floor)
    if n_bf == 1:   # a cap of one keeps only the best
        picked = np.zeros(decrements.shape, dtype=bool)
    else:
        picked = decrements > tau * d_max[:, None]
        picked[~valid] = False
    rows = np.flatnonzero(valid)
    picked[rows, np.argmax(decrements, axis=1)[rows]] = True  # first best
    counts = np.count_nonzero(picked, axis=1)
    over = np.flatnonzero(counts > n_bf)
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


def _cholesky_solve(gram: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve stacked normal equations (..., K, K) x = (..., K) by Cholesky.

    Raises `numpy.linalg.LinAlgError` unless every matrix is positive
    definite.  Stacked calls factor and solve each system on its own, so a
    member's solution does not depend on the other systems in the stack.
    """
    low = np.linalg.cholesky(gram)
    half = np.linalg.solve(low, rhs[..., None])
    return np.linalg.solve(np.swapaxes(low, -1, -2), half)[..., 0]


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
    num = ctx.numerators(np.asarray(residual, dtype=np.float64))[None]
    picks = np.zeros(num.shape, dtype=bool)
    picks[0, np.asarray(indices, dtype=np.intp)] = True
    solved = _solve_group(np.zeros(1, int), picks, picks, num,
                          decrement_energies(num, ctx), ctx, np.zeros(1, int))
    if not solved:
        return np.empty(0), np.empty(0, dtype=np.intp)
    _, used, solution = solved[0]
    return solution[0], used[0]


def _solve_group(members: np.ndarray, support: np.ndarray, fresh: np.ndarray,
                 rhs: np.ndarray, decr: np.ndarray, ctx: ProjectionContext,
                 retries: np.ndarray) -> list:
    """Solve the systems of members that share one support size.

    ``support``/``fresh`` are the members' (G, count) masks and ``rhs`` and
    ``decr`` their (G, count) right-hand sides and decrements.  Returns
    (members, indices, solution) triples with equally sized solutions; the
    stacked Cholesky here is the only place a system is factored.  If it
    fails, a group of several members is solved again member by member.  A
    lone member sheds its lowest-decrement fresh pick (rba's established
    span is never fresh), counts one retry in ``retries[member]`` and is
    solved again; once no fresh pick is left it takes no solution.
    ``ctx`` weights the group's members, row by row.
    """
    while True:
        idx = np.nonzero(support)[1].reshape(len(members), -1)
        gathered = rhs[np.arange(len(members))[:, None], idx]
        if idx.shape[1] == 1:
            return [(members, idx, gathered / ctx.lookup("norms", idx))]
        try:
            return [(members, idx, _cholesky_solve(ctx.gram(idx), gathered))]
        except np.linalg.LinAlgError:
            pass
        if len(members) > 1:
            return [solved for i in range(len(members))
                    for solved in _solve_group(
                        members[i:i + 1], support[i:i + 1], fresh[i:i + 1],
                        rhs[i:i + 1], decr[i:i + 1], ctx.take(slice(i, i + 1)),
                        retries)]
        retries[members] += 1
        picks = np.flatnonzero(fresh[0])
        if picks.size == 1:
            return []
        weakest = picks[np.argmin(decr[0, picks])]
        log.debug("gram singular; shedding function %d", weakest)
        # copies: the masks may be views, and fsa/msa pass ``support is fresh``
        support, fresh = support.copy(), fresh.copy()
        support[0, weakest] = fresh[0, weakest] = False


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
    grows, the weighted error cannot increase.  Members with equally large
    systems share one `_solve_group` call, in which a member with a
    singular Gram sheds fresh picks, one retry each, until it solves.  A
    member converges when its best decrement falls below
    `CONVERGENCE_FRACTION` of its initial error, when nothing new is
    selected, or when the retries shed every fresh pick.
    """
    live = np.flatnonzero(~state.converged)
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
        rhs = state.f_numerators[rows]
    else:
        support, rhs = fresh, num
    sizes = np.count_nonzero(fresh, axis=1)
    if rba:
        sizes = np.where(sizes > 0, np.count_nonzero(support, axis=1), 0)
    # A live member converges unless it takes a solution.
    state.converged[live] = True
    solved = []
    for size in sorted(set(sizes.tolist()) - {0}):
        group = _index(np.flatnonzero(sizes == size), len(sizes))
        for members, idx, solution in _solve_group(
                live[group], support[group], fresh[group], rhs[group],
                decr[group], live_ctx.take(group), state.gram_retries):
            values = solution if rba else params.gamma * solution
            state.converged[members] = False
            _apply(state, members, idx, values, ctx, rba)
            solved.append((members, idx, values))
    # The other members' residuals are recomputed unchanged, without
    # temporaries.
    state.iterations[live[~state.converged[live]]] += 1
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
    """
    layouts = list(layouts)
    first = layouts[0]
    windows = np.asarray(windows, dtype=np.float64)
    if windows.ndim != 3 or windows.shape[1:] != (first.m, first.n) \
            or len(windows) != len(layouts):
        raise ValueError(f"signal shape {windows.shape} does not match "
                         f"{len(layouts)} layouts of {(first.m, first.n)}")
    if any(layout.block.size != first.block.size for layout in layouts):
        raise ValueError("a batch takes one block size")
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
