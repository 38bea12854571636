import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import MatrixContext
from mcrefine.basis import WeightMask, build_basis
from mcrefine.extrapolate import (ExtrapolationParams, SparseModel, new_state,
                                  decrement_energies, fsa_step, msa_step,
                                  project_residual, rba_step, run,
                                  select_candidates, solve_subspace)
from mcrefine.frame import BlockRef, build_layout


# ---------------------------------------------------------------------------
# Oracle: dense Gaussian elimination with partial pivoting, written from
# scratch (no numpy.linalg) so the production solver has an independent
# reference.
# ---------------------------------------------------------------------------

def gauss_solve_oracle(a, b):
    a = [list(map(float, row)) for row in np.asarray(a)]
    b = list(map(float, np.asarray(b)))
    n = len(b)
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(a[r][col]))
        if abs(a[piv][col]) < 1e-300:
            raise ZeroDivisionError("singular")
        a[col], a[piv] = a[piv], a[col]
        b[col], b[piv] = b[piv], b[col]
        for r in range(col + 1, n):
            f = a[r][col] / a[col][col]
            for c in range(col, n):
                a[r][c] -= f * a[col][c]
            b[r] -= f * b[col]
    x = [0.0] * n
    for r in range(n - 1, -1, -1):
        s = b[r] - sum(a[r][c] * x[c] for c in range(r + 1, n))
        x[r] = s / a[r][r]
    return np.array(x)


def uniform_ctx(m, n):
    return MatrixContext(build_basis(m, n), WeightMask.uniform(m, n))


class TestSelectCandidates:
    def test_threshold_rule(self):
        # The documented behaviour: decrements 10, 8, 7.4, 2 with tau=0.75
        # keep only those above 0.75*10, i.e. the first two.
        decr = np.array([10.0, 8.0, 7.4, 2.0])
        np.testing.assert_array_equal(
            select_candidates(decr, tau=0.75, n_bf=20), [0, 1])

    def test_argmax_always_included(self):
        decr = np.array([1.0, 100.0, 1.0])
        got = select_candidates(decr, tau=1.0, n_bf=1)
        np.testing.assert_array_equal(got, [1])

    def test_cap_keeps_largest(self):
        decr = np.array([5.0, 9.0, 8.0, 7.0, 6.0])
        got = select_candidates(decr, tau=0.5, n_bf=3)
        np.testing.assert_array_equal(sorted(got), [1, 2, 3])

    def test_ties_resolved_by_lowest_index(self):
        decr = np.array([7.0, 7.0, 7.0, 7.0])
        got = select_candidates(decr, tau=0.5, n_bf=2)
        np.testing.assert_array_equal(sorted(got), [0, 1])

    def test_tau_one_keeps_only_argmax(self):
        decr = np.array([7.0, 7.0, 7.0])
        np.testing.assert_array_equal(
            select_candidates(decr, tau=1.0, n_bf=5), [0])

    def test_no_positive_decrement(self):
        assert select_candidates(np.zeros(4), tau=0.75, n_bf=4).size == 0

    @given(st.integers(0, 2 ** 32 - 1), st.floats(0.05, 1.0),
           st.integers(1, 10))
    @settings(max_examples=40)
    def test_selection_invariants(self, seed, tau, n_bf):
        rng = np.random.default_rng(seed)
        decr = rng.uniform(0, 5, size=30)
        got = select_candidates(decr, tau=tau, n_bf=n_bf)
        assert 1 <= got.size <= n_bf
        assert int(np.argmax(decr)) in got
        assert np.all(np.diff(got) > 0)  # ascending, no duplicates
        # every member clears the threshold (argmax trivially does)
        assert np.all(decr[got] >= tau * decr.max() - 1e-12)


class TestSolveSubspace:
    def test_matches_dense_oracle(self, ctx8, rng):
        for _ in range(10):
            size = rng.integers(2, 15)
            idx = np.sort(rng.choice(ctx8.basis.count, size=size,
                                     replace=False))
            r = rng.normal(size=ctx8.basis.m * ctx8.basis.n)
            got, used = solve_subspace(r, idx, ctx8)
            np.testing.assert_array_equal(used, idx)
            gram = ctx8.gram(idx)
            rhs = ctx8.numerators(r)[idx]
            np.testing.assert_allclose(got, gauss_solve_oracle(gram, rhs),
                                       rtol=1e-8, atol=1e-10)

    def test_single_function_is_plain_projection(self, ctx8, rng):
        r = rng.normal(size=ctx8.basis.m * ctx8.basis.n)
        k = 7
        got, used = solve_subspace(r, np.array([k]), ctx8)
        want = ctx8.numerators(r)[k] / ctx8.norms[k]
        assert got[0] == want  # bitwise: same expression as the fsa update

    def test_duplicate_function_is_shed(self, ctx8, rng):
        r = rng.normal(size=ctx8.basis.m * ctx8.basis.n)
        got, used = solve_subspace(r, np.array([3, 3]), ctx8)
        assert used.size < 2


class SingularWith:
    """Wraps a context; its Gram matrix is singular whenever ``bad`` is in
    the requested support (that function's row and column are zeroed)."""

    def __init__(self, ctx, bad):
        self._ctx, self.bad = ctx, bad

    def __getattr__(self, name):
        return getattr(self._ctx, name)

    def gram(self, indices):
        g = self._ctx.gram(indices)
        hit = np.asarray(indices) == self.bad
        g[hit, :] = 0.0
        g[:, hit] = 0.0
        return g


class TestSingularRetry:
    def test_rba_sheds_only_fresh_functions(self, layout8, ctx8, rng):
        f = rng.normal(0, 10, size=(layout8.m, layout8.n))
        params = ExtrapolationParams(algorithm="rba", iterations=4, tau=0.1,
                                     n_bf=5)
        state = new_state(f.reshape(-1), ctx8)
        rba_step(state, params, ctx8)
        active = state.active.copy()
        assert active.size > 1
        decr = decrement_energies(project_residual(state.residual, ctx8),
                                  ctx8.norms)
        fresh = np.setdiff1d(select_candidates(decr, params.tau, params.n_bf),
                             active)
        assert fresh.size > 1
        # the weakest fresh pick is the one the retry sheds first; the
        # established support has near-zero decrements, so a retry that
        # shed across the whole support would drop it instead
        bad = fresh[np.argmin(decr[fresh])]
        assert decr[active].max() < decr[bad]
        rba_step(state, params, SingularWith(ctx8, bad))
        assert state.gram_retries == 1
        np.testing.assert_array_equal(
            state.active, np.union1d(active, np.setdiff1d(fresh, [bad])))

    def test_greedy_sheds_weakest(self, ctx8, rng):
        r = rng.normal(size=ctx8.basis.m * ctx8.basis.n)
        decr = decrement_energies(project_residual(r, ctx8), ctx8.norms)
        idx = np.argsort(decr)[-4:]
        bad = idx[np.argmin(decr[idx])]
        got, used = solve_subspace(r, np.sort(idx), SingularWith(ctx8, bad))
        np.testing.assert_array_equal(used, np.setdiff1d(idx, [bad]))
        want, _ = solve_subspace(r, used, ctx8)
        np.testing.assert_array_equal(got, want)


class TestParams:
    def test_defaults_per_algorithm(self):
        assert ExtrapolationParams.defaults("fsa").iterations == 200
        assert ExtrapolationParams.defaults("rba").iterations == 4
        p = ExtrapolationParams.defaults("msa")
        assert (p.iterations, p.tau, p.n_bf, p.gamma) == (12, 0.75, 20, 0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            ExtrapolationParams(algorithm="nope")
        with pytest.raises(ValueError):
            ExtrapolationParams(tau=0.0)
        with pytest.raises(ValueError):
            ExtrapolationParams(gamma=2.0)
        with pytest.raises(ValueError):
            ExtrapolationParams(iterations=0)
        with pytest.raises(ValueError):
            ExtrapolationParams(n_bf=0)


class TestEngines:
    def test_exact_recovery_small(self):
        ctx = uniform_ctx(12, 12)
        lay = build_layout((12 * 4, 12 * 4), BlockRef(4, 4, size=4))
        rng = np.random.default_rng(5)
        idx = rng.choice(ctx.basis.count, size=3, replace=False)
        truth = np.zeros(ctx.basis.count)
        truth[idx] = rng.uniform(0.5, 2.0, size=3)
        f = (truth @ ctx.basis.matrix).reshape(12, 12)
        res = run(f, lay, ExtrapolationParams(algorithm="msa", iterations=5,
                                              gamma=1.0), context=ctx)
        np.testing.assert_allclose(res.model.coefficients, truth, atol=1e-6)
        assert res.diagnostics.converged

    @pytest.mark.parametrize("algo", ["fsa", "rba", "msa"])
    def test_energy_monotone(self, layout8, ctx8, algo, rng):
        f = rng.normal(128, 40, size=(layout8.m, layout8.n))
        params = ExtrapolationParams.defaults(algo)
        res = run(f, layout8, params, context=ctx8, record=True)
        d = res.diagnostics
        energies = [d.energy0] + [s[2] for s in d.selections]
        for prev, cur in zip(energies, energies[1:]):
            assert cur <= prev + 1e-9 * d.energy0

    @pytest.mark.parametrize("algo", ["fsa", "rba", "msa"])
    def test_padding_never_matters(self, algo, rng):
        # corner block: only PAD around most of B
        lay = build_layout((64, 64), BlockRef(16, 0, size=16))
        f1 = rng.normal(128, 30, size=(lay.m, lay.n))
        f2 = f1.copy()
        pad = lay.region_map == 0
        assert pad.any()
        f2[pad] = rng.normal(0, 1000, size=int(pad.sum()))
        params = ExtrapolationParams.defaults(algo)
        r1 = run(f1, lay, params)
        r2 = run(f2, lay, params)
        np.testing.assert_array_equal(r1.block, r2.block)
        np.testing.assert_array_equal(r1.model.coefficients,
                                      r2.model.coefficients)

    def test_msa_with_nbf1_equals_fsa(self, layout8, ctx8, rng):
        for _ in range(5):
            f = rng.normal(128, 40, size=(layout8.m, layout8.n))
            fsa = run(f, layout8, ExtrapolationParams(
                algorithm="fsa", iterations=20), context=ctx8, record=True)
            msa = run(f, layout8, ExtrapolationParams(
                algorithm="msa", iterations=20, n_bf=1), context=ctx8,
                record=True)
            np.testing.assert_array_equal(fsa.model.coefficients,
                                          msa.model.coefficients)
            for (i1, c1, e1), (i2, c2, e2) in zip(
                    fsa.diagnostics.selections, msa.diagnostics.selections):
                np.testing.assert_array_equal(i1, i2)
                np.testing.assert_array_equal(c1, c2)
                assert e1 == e2

    def test_rba_support_grows(self, layout8, ctx8, rng):
        f = rng.normal(128, 40, size=(layout8.m, layout8.n))
        res = run(f, layout8, ExtrapolationParams.defaults("rba"),
                  context=ctx8, record=True)
        supports = [set(s[0].tolist()) for s in res.diagnostics.selections]
        for a, b in zip(supports, supports[1:]):
            assert a <= b
        assert len(supports[-1]) <= 80  # 4 iterations x at most 20 each

    def test_msa_support_cap(self, layout8, ctx8, rng):
        f = rng.normal(128, 40, size=(layout8.m, layout8.n))
        res = run(f, layout8, ExtrapolationParams.defaults("msa"),
                  context=ctx8, record=True)
        for sel, _, _ in res.diagnostics.selections:
            assert len(sel) <= 20

    def test_convergence_on_exact_signal(self, ctx8, layout8):
        # a signal that IS one basis function converges immediately
        f = ctx8.basis.function(4).copy()
        res = run(f, layout8, ExtrapolationParams(algorithm="msa",
                                                  iterations=12, gamma=1.0),
                  context=ctx8)
        assert res.diagnostics.converged
        assert res.diagnostics.iterations <= 2
        assert res.diagnostics.energy <= 1e-12 * res.diagnostics.energy0

    def test_deterministic_across_calls(self, layout8, rng):
        f = rng.normal(128, 40, size=(layout8.m, layout8.n))
        params = ExtrapolationParams.defaults("msa")
        a = run(f, layout8, params)
        b = run(f, layout8, params)
        np.testing.assert_array_equal(a.block, b.block)

    def test_fft_and_matrix_modes_agree(self, layout8, ctx8, ctx8_matrix,
                                        rng):
        f = rng.normal(128, 40, size=(layout8.m, layout8.n))
        params = ExtrapolationParams.defaults("msa")
        a = run(f, layout8, params, context=ctx8)
        b = run(f, layout8, params, context=ctx8_matrix)
        # identical selections, near-identical numerics
        np.testing.assert_allclose(a.model.coefficients, b.model.coefficients,
                                   rtol=1e-6, atol=1e-9)
        np.testing.assert_allclose(a.block, b.block, rtol=1e-6, atol=1e-8)

    def test_shape_validation(self, layout8):
        with pytest.raises(ValueError, match="shape"):
            run(np.zeros((10, 10)), layout8,
                ExtrapolationParams.defaults("msa"))

    def test_block_cut_is_centre(self, layout8, ctx8, rng):
        f = rng.normal(128, 40, size=(layout8.m, layout8.n))
        res = run(f, layout8, ExtrapolationParams.defaults("msa"),
                  context=ctx8)
        full = res.model.rendering.reshape(layout8.m, layout8.n)
        np.testing.assert_array_equal(res.block, full[8:16, 8:16])

    def test_run_on_isolated_block(self):
        # no neighbours at all: engines model the centre block alone
        lay = build_layout((48, 48), BlockRef(0, 0, size=16))
        assert lay.r_empty
        rng = np.random.default_rng(3)
        f = rng.normal(128, 30, size=(lay.m, lay.n))
        res = run(f, lay, ExtrapolationParams.defaults("msa"))
        assert np.isfinite(res.block).all()
        assert res.diagnostics.energy <= res.diagnostics.energy0


class TestStepFunctions:
    def test_fsa_step_selects_single(self, layout8, ctx8, rng):
        f = rng.normal(0, 10, size=(layout8.m, layout8.n))
        state = new_state(f.reshape(-1), ctx8, record=True)
        fsa_step(state, ExtrapolationParams.defaults("fsa"), ctx8)
        assert state.iteration == 1
        assert state.selections[0][0].size == 1

    def test_decrement_formula(self, ctx8, rng):
        # decrement of function k equals p_k^2 * weighted norm
        r = rng.normal(size=ctx8.basis.m * ctx8.basis.n)
        num = ctx8.numerators(r)
        p = num / ctx8.norms
        d = decrement_energies(p, ctx8.norms)
        k = 13
        assert d[k] == pytest.approx(p[k] ** 2 * ctx8.norms[k], rel=1e-12)
        # and subtracting p_k*phi_k really lowers the energy by ~d[k]
        w = ctx8.w_flat
        e0 = float((r * w) @ r)
        r2 = r - p[k] * ctx8.basis.matrix[k]
        e1 = float((r2 * w) @ r2)
        assert e0 - e1 == pytest.approx(d[k], rel=1e-9)

    def test_rba_replaces_not_accumulates(self, layout8, ctx8, rng):
        f = rng.normal(0, 10, size=(layout8.m, layout8.n))
        state = new_state(f.reshape(-1), ctx8, record=True)
        params = ExtrapolationParams(algorithm="rba", iterations=4, n_bf=3)
        rba_step(state, params, ctx8)
        rba_step(state, params, ctx8)
        support, coefs, _ = state.selections[-1]
        # the model holds exactly the last re-projection
        np.testing.assert_array_equal(np.flatnonzero(state.model.coefficients),
                                      support)
        np.testing.assert_array_equal(state.model.coefficients[support], coefs)

    def test_msa_step_accumulates(self, layout8, ctx8, rng):
        f = rng.normal(0, 10, size=(layout8.m, layout8.n))
        state = new_state(f.reshape(-1), ctx8, record=True)
        params = ExtrapolationParams.defaults("msa")
        msa_step(state, params, ctx8)
        c_after_1 = state.model.coefficients.copy()
        msa_step(state, params, ctx8)
        sel2 = set(state.selections[1][0].tolist())
        unchanged = [k for k in np.flatnonzero(c_after_1) if k not in sel2]
        np.testing.assert_array_equal(state.model.coefficients[unchanged],
                                      c_after_1[unchanged])

    def test_sparse_model_bookkeeping(self, ctx8):
        m = SparseModel.empty(ctx8)
        assert m.support.size == 0
        m.add(np.array([2, 5]), np.array([1.0, -2.0]), ctx8)
        np.testing.assert_array_equal(m.support, [2, 5])
        want = ctx8.basis.matrix[2] - 2.0 * ctx8.basis.matrix[5]
        np.testing.assert_allclose(m.rendering, want, atol=1e-12)
        m.replace(np.array([1]), np.array([3.0]), ctx8)
        np.testing.assert_array_equal(m.support, [1])
        np.testing.assert_allclose(m.rendering, 3.0 * ctx8.basis.matrix[1],
                                   atol=1e-12)
