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
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

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


@dataclass
class SparseModel:
    """Accumulating model: dense coefficient vector + spatial rendering."""

    coefficients: np.ndarray
    rendering: np.ndarray  # flattened raster, kept in sync

    @classmethod
    def empty(cls, ctx: ProjectionContext) -> "SparseModel":
        b = ctx.basis
        return cls(coefficients=np.zeros(b.count),
                   rendering=np.zeros(b.m * b.n))

    @property
    def support(self) -> np.ndarray:
        return np.flatnonzero(self.coefficients)

    def add(self, indices: np.ndarray, deltas: np.ndarray,
            ctx: ProjectionContext) -> np.ndarray:
        """Accumulate coefficient deltas; returns the rendering update."""
        self.coefficients[indices] += deltas
        update = ctx.render(indices, deltas)
        self.rendering += update
        return update

    def replace(self, indices: np.ndarray, values: np.ndarray,
                ctx: ProjectionContext) -> None:
        """Reset the model to exactly the given support and coefficients."""
        self.coefficients[:] = 0.0
        self.coefficients[indices] = values
        self.rendering = ctx.render(indices, values)


@dataclass
class EngineState:
    """Mutable per-block state shared by the step functions."""

    f: np.ndarray                 # flattened input signal over the area
    residual: np.ndarray          # flattened f - g
    model: SparseModel
    energy0: float                # weighted error of the zero model
    energy: float
    iteration: int = 0
    converged: bool = False
    gram_retries: int = 0
    active: np.ndarray = field(default_factory=lambda: np.empty(0, np.intp))
    f_numerators: np.ndarray | None = None       # rba: projections of f, cached
    selections: list | None = None   # optional (indices, coefs, energy) record


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


def new_state(f: np.ndarray, ctx: ProjectionContext,
              record: bool = False) -> EngineState:
    b = ctx.basis
    f_flat = np.asarray(f, dtype=np.float64).reshape(b.m * b.n).copy()
    e0 = _weighted_energy(f_flat, ctx)
    return EngineState(f=f_flat, residual=f_flat.copy(),
                       model=SparseModel.empty(ctx),
                       energy0=e0, energy=e0,
                       selections=[] if record else None)


def _weighted_energy(residual_flat: np.ndarray, ctx: ProjectionContext) -> float:
    return float((residual_flat * ctx.w_flat) @ residual_flat)


# ---------------------------------------------------------------------------
# Projection, selection, subspace solve
# ---------------------------------------------------------------------------

def project_residual(residual, ctx: ProjectionContext) -> np.ndarray:
    """Projection coefficient of the residual on every basis function.

    p_k = <r, phi_k>_w / <phi_k, phi_k>_w; excluded functions (zero weighted
    norm) get coefficient 0 so they can never be selected.
    """
    num = ctx.numerators(np.asarray(residual, dtype=np.float64))
    p = num / ctx._safe_norms
    if ctx.excluded.any():
        p = np.where(ctx.excluded, 0.0, p)
    return p


def decrement_energies(p: np.ndarray, weighted_norms: np.ndarray) -> np.ndarray:
    """Energy drop each function would cause if taken alone: p_k^2 * norm_k."""
    return p * p * weighted_norms


def select_candidates(decrements: np.ndarray, tau: float, n_bf: int) -> np.ndarray:
    """Indices whose decrement exceeds ``tau`` times the best one.

    The set always contains the argmax, is capped at the ``n_bf`` largest
    decrements and is returned sorted by index.  Ties are broken towards the
    lower basis index so results are reproducible across platforms.  An empty
    result means no positive decrement remains (convergence).
    """
    d_max = decrements.max(initial=0.0)
    if d_max <= 0.0:
        return np.empty(0, dtype=np.intp)
    best = int(np.argmax(decrements))  # first occurrence = lowest index
    chosen = np.flatnonzero(decrements > tau * d_max)
    if best not in chosen:             # tau = 1 keeps only the argmax
        chosen = np.union1d(chosen, [best])
    if chosen.size > n_bf:
        order = np.lexsort((chosen, -decrements[chosen]))
        chosen = np.sort(chosen[order[:n_bf]])
    return chosen.astype(np.intp)


def _solve_with_retry(fresh: np.ndarray, rhs_all: np.ndarray,
                      decrements: np.ndarray, ctx: ProjectionContext,
                      state: EngineState | None,
                      keep: np.ndarray | None = None
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Solve the normal equations on ``keep`` + ``fresh`` by Cholesky; while
    the Gram matrix is singular, drop the lowest-decrement member of
    ``fresh`` and retry.  ``keep`` (rba's established support) is never
    shed.  Returns (solution, solved indices); both empty once no fresh
    member remains.
    """
    fresh = np.asarray(fresh, dtype=np.intp)
    while fresh.size:
        support = fresh if keep is None \
            else np.union1d(keep, fresh).astype(np.intp)
        if support.size == 1:
            k = support[0]
            return rhs_all[support] / ctx.norms[k:k + 1], support
        try:
            cho = scipy.linalg.cho_factor(ctx.gram(support), lower=True,
                                          check_finite=False)
            return scipy.linalg.cho_solve(cho, rhs_all[support],
                                          check_finite=False), support
        except np.linalg.LinAlgError:
            if state is not None:
                state.gram_retries += 1
            weakest = int(np.argmin(decrements[fresh]))
            log.debug("gram singular; shedding function %d", fresh[weakest])
            fresh = np.delete(fresh, weakest)
    return np.empty(0), np.empty(0, dtype=np.intp)


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
    p = num / ctx._safe_norms
    decr = decrement_energies(p, ctx.norms)
    return _solve_with_retry(idx, num, decr, ctx, None)


# ---------------------------------------------------------------------------
# Engine steps
# ---------------------------------------------------------------------------

def _greedy_step(state: EngineState, params: ExtrapolationParams,
                 ctx: ProjectionContext, n_bf: int) -> EngineState:
    """Shared body of the fsa/msa iteration (they differ only in n_bf)."""
    if state.converged:
        return state
    num = ctx.numerators(state.residual)
    p = np.where(ctx.excluded, 0.0, num / ctx._safe_norms)
    decr = decrement_energies(p, ctx.norms)
    if decr.max(initial=0.0) < CONVERGENCE_FRACTION * state.energy0:
        state.converged = True
        return state
    chosen = select_candidates(decr, params.tau, n_bf)
    if chosen.size == 0:
        state.converged = True
        return state
    solution, used = _solve_with_retry(chosen, num, decr, ctx, state)
    if used.size == 0:
        state.converged = True
        return state
    state.model.add(used, params.gamma * solution, ctx)
    state.residual = state.f - state.model.rendering
    state.energy = _weighted_energy(state.residual, ctx)
    state.iteration += 1
    if state.selections is not None:
        state.selections.append((used.copy(), params.gamma * solution,
                                 state.energy))
    return state


def msa_step(state: EngineState, params: ExtrapolationParams,
             ctx: ProjectionContext) -> EngineState:
    """One multiple-selection iteration: threshold selection, subspace solve,
    damped accumulation."""
    return _greedy_step(state, params, ctx, params.n_bf)


def fsa_step(state: EngineState, params: ExtrapolationParams,
             ctx: ProjectionContext) -> EngineState:
    """One single-selection iteration; identical to msa_step with n_bf=1."""
    return _greedy_step(state, params, ctx, 1)


def rba_step(state: EngineState, params: ExtrapolationParams,
             ctx: ProjectionContext) -> EngineState:
    """One relaxed iteration: select against the residual, then re-project
    the *input* onto the span of every function selected so far.

    All coefficients are replaced by the new joint projection; no damping is
    applied.  Because the span only grows, the weighted error cannot
    increase.
    """
    if state.converged:
        return state
    if state.f_numerators is None:
        state.f_numerators = ctx.numerators(state.f)
    num = ctx.numerators(state.residual)
    p = np.where(ctx.excluded, 0.0, num / ctx._safe_norms)
    decr = decrement_energies(p, ctx.norms)
    if decr.max(initial=0.0) < CONVERGENCE_FRACTION * state.energy0:
        state.converged = True
        return state
    chosen = select_candidates(decr, params.tau, params.n_bf)
    fresh = np.setdiff1d(chosen, state.active)
    if fresh.size == 0:
        state.converged = True
        return state
    # Singularity handling sheds only the newly picked functions; the
    # established support solved fine last iteration and is kept.
    solution, support = _solve_with_retry(fresh, state.f_numerators, decr,
                                          ctx, state, keep=state.active)
    if support.size == 0:
        state.converged = True
        return state
    state.model.replace(support, solution, ctx)
    state.active = support
    state.residual = state.f - state.model.rendering
    state.energy = _weighted_energy(state.residual, ctx)
    state.iteration += 1
    if state.selections is not None:
        state.selections.append((support.copy(), solution.copy(),
                                 state.energy))
    return state


_STEPS = {"fsa": fsa_step, "rba": rba_step, "msa": msa_step}


def run(f, layout: ProjectionLayout, params: ExtrapolationParams, *,
        context: ProjectionContext | None = None,
        record: bool = False) -> RefineResult:
    """Run the configured engine on one working-area signal.

    ``f`` holds reconstructed samples on R, the temporal predictor on the
    centre block and arbitrary values on padding; padding carries zero weight
    and provably never changes the result.  ``context`` defaults to
    ``projection_context(layout)``, the reference weighting.  Returns the
    centre block of the final model plus run diagnostics.
    """
    ctx = context if context is not None else projection_context(layout)
    f = np.asarray(f, dtype=np.float64)
    if f.shape != (layout.m, layout.n):
        raise ValueError(f"signal shape {f.shape} does not match layout "
                         f"{(layout.m, layout.n)}")
    state = new_state(f, ctx, record=record)
    step = _STEPS[params.algorithm]
    for _ in range(params.iterations):
        step(state, params, ctx)
        if state.converged:
            break
    sl = layout.block_slices
    block = state.model.rendering.reshape(layout.m, layout.n)[sl[0], sl[1]].copy()
    diag = Diagnostics(
        iterations=state.iteration,
        converged=state.converged,
        energy0=state.energy0,
        energy=state.energy,
        coefficient_count=int(np.count_nonzero(state.model.coefficients)),
        gram_retries=state.gram_retries,
        selections=state.selections,
    )
    return RefineResult(block=block, model=state.model, diagnostics=diag)
