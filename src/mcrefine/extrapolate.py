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

There is one engine loop, `run_batch`: it steps B working areas that share
one `ProjectionContext` (one block size and neighbour-availability class)
together.  Per iteration it takes one stacked FFT for the numerators of
every member, selects row-wise, builds the Gram matrices by table gathers,
and solves and renders each group of members with the same support size in
one stacked call; members that have converged drop out of the batch.
`run` is its B = 1 call.  Every member's block, coefficients and
diagnostics are bitwise independent of the batch size and of its
batch-mates: every stacked operation computes each member exactly as it
would compute it alone, and the solve never pads a system to a size that
depends on the batch.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .basis import ProjectionContext, projection_context
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
        energy0=np.array([_weighted_energy(row, ctx) for row in f]),
        iterations=np.zeros(batch, dtype=int),
        converged=np.zeros(batch, dtype=bool),
        gram_retries=np.zeros(batch, dtype=int),
        active=np.zeros((batch, b.count), dtype=bool),
        selections=[[] for _ in range(batch)] if record else None)


def _weighted_energy(residual_flat: np.ndarray, ctx: ProjectionContext) -> float:
    return float((residual_flat * ctx.w_flat) @ residual_flat)


# ---------------------------------------------------------------------------
# Projection, selection, subspace solve
# ---------------------------------------------------------------------------

def project_residual(residual, ctx: ProjectionContext) -> np.ndarray:
    """Projection coefficient of the residual on every basis function.

    p_k = <r, phi_k>_w / <phi_k, phi_k>_w; excluded functions (zero weighted
    norm) get coefficient 0 so they can never be selected.  Leading batch
    axes of ``residual`` are kept.
    """
    num = ctx.numerators(residual)
    return np.where(ctx.excluded, 0.0, num / ctx._safe_norms)


def decrement_energies(p: np.ndarray, weighted_norms: np.ndarray) -> np.ndarray:
    """Energy drop each function would cause if taken alone: p_k^2 * norm_k."""
    return p * p * weighted_norms


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


def _solve_with_retry(fresh: np.ndarray, rhs_all: np.ndarray,
                      decrements: np.ndarray, ctx: ProjectionContext,
                      keep: np.ndarray | None = None
                      ) -> tuple[np.ndarray, np.ndarray, int]:
    """Solve the normal equations on ``keep`` + ``fresh`` by Cholesky; while
    the Gram matrix is singular, drop the lowest-decrement member of
    ``fresh`` and retry.  ``keep`` (rba's established support) is never
    shed.  Returns (solution, solved indices, retries); the first two are
    empty once no fresh member remains.
    """
    fresh = np.asarray(fresh, dtype=np.intp)
    retries = 0
    while fresh.size:
        support = fresh if keep is None \
            else np.union1d(keep, fresh).astype(np.intp)
        if support.size == 1:
            k = support[0]
            return rhs_all[support] / ctx.norms[k:k + 1], support, retries
        try:
            return _cholesky_solve(ctx.gram(support),
                                   rhs_all[support]), support, retries
        except np.linalg.LinAlgError:
            retries += 1
            weakest = int(np.argmin(decrements[fresh]))
            log.debug("gram singular; shedding function %d", fresh[weakest])
            fresh = np.delete(fresh, weakest)
    return np.empty(0), np.empty(0, dtype=np.intp), retries


def solve_subspace(residual, indices, ctx: ProjectionContext
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Joint projection of the residual onto the selected subspace.

    Solves the weighted normal equations ``G p = b`` with G the symmetric
    Gram matrix of the selected functions and b their weighted correlations
    with the residual.  A single selected function degenerates to the plain
    projection coefficient.  Numerically singular systems shed their
    lowest-decrement member and are retried, so the returned index array may
    be a subset of the input.
    """
    idx = np.asarray(indices, dtype=np.intp)
    num = ctx.numerators(np.asarray(residual, dtype=np.float64))
    decr = decrement_energies(num / ctx._safe_norms, ctx.norms)
    solution, used, _ = _solve_with_retry(idx, num, decr, ctx)
    return solution, used


def _solve_group(state: EngineState, members: np.ndarray,
                 support: np.ndarray, fresh: np.ndarray, rhs: np.ndarray,
                 decr: np.ndarray, ctx: ProjectionContext) -> list:
    """Solve the systems of members that share one support size.

    ``support``/``fresh`` are the members' (G, count) masks and ``rhs`` and
    ``decr`` their (G, count) right-hand sides and decrements.  Returns
    (members, indices, solution) triples with equally sized solutions.  A
    member whose Gram matrix is singular goes through `_solve_with_retry`
    alone; its retries are counted in ``state``, and it converges if no
    fresh pick survives.
    """
    idx = np.nonzero(support)[1].reshape(len(members), -1)
    gathered = rhs[np.arange(len(members))[:, None], idx]
    if idx.shape[1] == 1:
        return [(members, idx, gathered / ctx.norms[idx])]
    try:
        return [(members, idx, _cholesky_solve(ctx.gram(idx), gathered))]
    except np.linalg.LinAlgError:
        pass
    solved = []
    for i, member in enumerate(members):
        try:
            solved.append((members[i:i + 1], idx[i:i + 1], _cholesky_solve(
                ctx.gram(idx[i:i + 1]), gathered[i:i + 1])))
            continue
        except np.linalg.LinAlgError:
            pass
        # Only fresh picks are shed; rba's established span is kept.
        solution, used, retries = _solve_with_retry(
            np.flatnonzero(fresh[i]), rhs[i], decr[i], ctx,
            keep=np.flatnonzero(support[i] & ~fresh[i]))
        state.gram_retries[member] += retries
        if used.size:
            solved.append((members[i:i + 1], used[None], solution[None]))
        else:
            state.converged[member] = True
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
    grows, the weighted error cannot increase.  A member converges when its
    best decrement falls below `CONVERGENCE_FRACTION` of its initial error,
    when nothing new is selected, or when singular retries shed every
    fresh pick.
    """
    live = np.flatnonzero(~state.converged)
    if live.size == 0:
        return state
    rba = params.algorithm == "rba"
    if rba and state.f_numerators is None:
        state.f_numerators = ctx.numerators(state.f)
    rows = _index(live, len(state.converged))
    num = ctx.numerators(state.residual[rows])
    decr = num / ctx._safe_norms    # projections p, then in place
    decr[:, ctx.excluded] = 0.0      # decrement_energies: p * p * norms
    decr *= decr
    decr *= ctx.norms
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
    state.converged[live[sizes == 0]] = True
    if rba:
        sizes = np.where(sizes > 0, np.count_nonzero(support, axis=1), 0)
    solved = []
    for size in sorted(set(sizes.tolist()) - {0}):
        group = _index(np.flatnonzero(sizes == size), len(sizes))
        for members, idx, solution in _solve_group(
                state, live[group], support[group], fresh[group], rhs[group],
                decr[group], ctx):
            values = solution if rba else params.gamma * solution
            _apply(state, members, idx, values, ctx, rba)
            solved.append((members, idx, values))
    # Every live member that has not converged now took a solution.  The
    # other members' residuals are recomputed unchanged, without temporaries.
    state.iterations[live[~state.converged[live]]] += 1
    np.subtract(state.f, state.rendering, out=state.residual)
    if state.selections is not None:
        for members, idx, values in solved:
            for member, used, coefs in zip(members, idx, values):
                state.selections[member].append(
                    (used.copy(), coefs.copy(),
                     _weighted_energy(state.residual[member], ctx)))
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


def run_batch(windows, layout: ProjectionLayout, params: ExtrapolationParams,
              *, context: ProjectionContext | None = None,
              record: bool = False) -> list:
    """Run the configured engine on B working-area signals at once.

    ``windows`` is a (B, M, N) stack of signals that share ``layout``'s
    geometry and neighbour availability, so one ``context`` (by default
    ``projection_context(layout)``, the reference weighting) serves them
    all.  Each signal holds reconstructed samples on R, the temporal
    predictor on the centre block and arbitrary values on padding; padding
    carries zero weight and provably never changes the result.  Returns
    one `RefineResult` per window, each bitwise equal to what `run` gives
    for that window alone.
    """
    ctx = context if context is not None else projection_context(layout)
    windows = np.asarray(windows, dtype=np.float64)
    if windows.ndim != 3 or windows.shape[1:] != (layout.m, layout.n):
        raise ValueError(f"signal shape {windows.shape[1:]} does not match "
                         f"layout {(layout.m, layout.n)}")
    state = new_state(windows, ctx, record=record)
    for _ in range(params.iterations):
        step(state, params, ctx)
        if state.converged.all():
            break
    sl = layout.block_slices
    blocks = state.rendering.reshape(-1, layout.m, layout.n)[:, sl[0], sl[1]]
    results = []
    for i in range(len(windows)):
        diag = Diagnostics(
            iterations=int(state.iterations[i]),
            converged=bool(state.converged[i]),
            energy0=float(state.energy0[i]),
            energy=_weighted_energy(state.residual[i], ctx),
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
    f = np.asarray(f, dtype=np.float64)
    if f.shape != (layout.m, layout.n):
        raise ValueError(f"signal shape {f.shape} does not match layout "
                         f"{(layout.m, layout.n)}")
    return run_batch(f[None], layout, params, context=context,
                     record=record)[0]
