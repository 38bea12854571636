import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import lapack

from conftest import (MatrixContext, basis_function, basis_matrix,
                      reference_run,
                      select_reference, stack_contexts)
from mcrefine import extrapolate
from mcrefine.basis import (ProjectionContext, batch_context, build_basis,
                            build_weight_mask, projection_context)
from mcrefine.extrapolate import (ExtrapolationParams, decrement_energies,
                                  new_state, run, run_batch, select_batch,
                                  select_candidates, solve_subspace, step)
from mcrefine.frame import BlockRef, SampleError, build_layout


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
    return MatrixContext(build_basis(m, n), np.ones((m, n)))


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

    @given(st.integers(0, 2 ** 32 - 1),
           st.just(1.0) | st.floats(0.05, 1.0), st.integers(1, 10))
    @settings(max_examples=40)
    def test_selection_invariants(self, seed, tau, n_bf):
        rng = np.random.default_rng(seed)
        decr = rng.uniform(0, 5, size=30)
        got = select_candidates(decr, tau=tau, n_bf=n_bf)
        np.testing.assert_array_equal(got, select_reference(decr, tau, n_bf))
        assert 1 <= got.size <= n_bf
        assert int(np.argmax(decr)) in got
        assert np.all(np.diff(got) > 0)  # ascending, no duplicates
        # every member clears the threshold (argmax trivially does)
        assert np.all(decr[got] >= tau * decr.max() - 1e-12)

    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 6), st.integers(1, 6),
           st.sampled_from([1.0, 0.75, 0.6, 0.2]))
    @settings(max_examples=60)
    def test_batch_rows_match_single_rows(self, seed, n_bf, rows, tau):
        rng = np.random.default_rng(seed)
        # coarse values make ties at the cap and at tau * max common
        decr = rng.integers(0, 6, size=(rows, 25)).astype(float)
        decr[rng.random(rows) < 0.3] = 0.0
        decr[0] = 0.0
        floor = rng.uniform(0, 6, size=rows)
        flat, sizes = select_batch(decr, tau, n_bf, floor=floor)
        assert len(sizes) == rows and sum(sizes) == flat.size
        got = np.split(flat, np.cumsum(sizes)[:-1])
        for i, (row, lowest, picks) in enumerate(zip(decr, floor, got)):
            want = select_reference(row, tau, n_bf, lowest)
            np.testing.assert_array_equal(picks, i * 25 + want)

    @pytest.mark.parametrize("n_bf", [1, 2, 3, 20])
    def test_ties_at_the_cap_go_to_the_lower_index(self, n_bf):
        # six rows: equal values straddling the cap, all zero, one
        # positive value, and a row whose only candidate is below the floor
        decr = np.zeros((6, 8))
        decr[0, [1, 3, 4, 6]] = 2.0
        decr[1, [0, 2, 5, 7]] = [1.0, 3.0, 3.0, 3.0]
        decr[3, 5] = 1e-300
        decr[4, [2, 3]] = 0.5
        decr[5] = 4.0
        floor = np.array([0.0, 0.0, 0.0, 0.0, 1.0, 0.0])
        flat, sizes = select_batch(decr, 0.75, n_bf, floor=floor)
        want = [select_reference(row, 0.75, n_bf, lowest)
                for row, lowest in zip(decr, floor)]
        assert sizes == [w.size for w in want]
        np.testing.assert_array_equal(
            flat, np.concatenate([8 * i + w for i, w in enumerate(want)]))
        assert sizes[2] == sizes[4] == 0 and sizes[3] == 1
        np.testing.assert_array_equal(want[0], [1, 3, 4, 6][:n_bf])
        np.testing.assert_array_equal(want[5], np.arange(min(n_bf, 8)))


class TestSolveSubspace:
    def test_matches_dense_oracle(self, ctx8, rng):
        for _ in range(10):
            size = rng.integers(2, 15)
            idx = np.sort(rng.choice(ctx8.basis.count, size=size,
                                     replace=False))
            r = rng.normal(size=ctx8.basis.m * ctx8.basis.n)
            got, used = solve_subspace(r, idx, ctx8)
            np.testing.assert_array_equal(used, idx)
            gram = ctx8.gram(idx, [size]).reshape(size, size)
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

    @pytest.mark.parametrize("support", [[1, 2, 3], [7], [3, 3],
                                         [0, 5, 9, 40, 41]])
    def test_one_member_view_of_a_mixed_batch(self, layout8, rng, support):
        # a view of one member of a mixed batch holds its weightings as
        # (1, count) rows, and solves as the member's own context does
        left_only = build_layout((96, 96), BlockRef(48, 0, size=8))
        view = batch_context([layout8, left_only]).take(slice(0, 1))
        r = rng.normal(size=(24, 24))
        got, used = solve_subspace(r, support, view)
        want, want_used = solve_subspace(r, support,
                                         projection_context(layout8))
        np.testing.assert_array_equal(used, want_used)
        assert got.tobytes() == want.tobytes()


class SingularWith:
    """Wraps a context; its Gram matrix is singular whenever ``bad`` is in
    the requested support (that function's row and column are zeroed).
    Takes flat supports with their sizes, as the engine passes them, and
    counts its `gram` calls in ``calls``."""

    def __init__(self, ctx, bad):
        self._ctx, self.bad, self.calls = ctx, bad, 0

    def __getattr__(self, name):
        return getattr(self._ctx, name)

    def gram(self, indices, sizes):
        self.calls += 1
        g = self._ctx.gram(indices, sizes)
        keep = ~np.isin(indices, self.bad)
        # each member's flattened K x K matrix in turn
        return g * np.concatenate(
            [np.outer(k, k).ravel()
             for k in np.split(keep, np.cumsum(sizes)[:-1])])

    def take(self, rows):
        sub = self._ctx.take(rows)
        return self if sub is self._ctx else SingularWith(sub, self.bad)


class TestSingularRetry:
    @pytest.mark.parametrize("shed", [1, 2, 3])
    def test_lone_member_sheds_weakest_until_solvable(self, layout16, ctx16,
                                                       shed):
        # four equally weighted functions, which one msa iteration selects;
        # the ``shed`` weakest make the Gram singular, so the retries shed
        # exactly those, weakest first, one retry each
        support = TestBatchIndependence.SUPPORTS[2]
        window = ctx16.render(support, np.full(4, 30.0), [4]).reshape(48, 48)
        decr = decrement_energies(ctx16.numerators(window.ravel()), ctx16)
        bad = support[np.argsort(decr[support], kind="stable")[:shed]]
        once = ExtrapolationParams(algorithm="msa", iterations=1)
        stub = SingularWith(ctx16, bad)
        got = run(window, layout16, once, context=stub, record=True)
        np.testing.assert_array_equal(got.diagnostics.selections[0][0],
                                      np.setdiff1d(support, bad))
        assert got.diagnostics.gram_retries == shed
        # each support tried (4, 3, ... functions) is factored once; a lone
        # survivor needs no Gram
        assert stub.calls == min(shed + 1, 3)

    def test_rba_sheds_only_fresh_functions(self, layout8, ctx8, rng):
        f = rng.normal(0, 10, size=(1, layout8.m, layout8.n))
        params = ExtrapolationParams(algorithm="rba", iterations=4, tau=0.1,
                                     n_bf=5)
        state = new_state(f, ctx8)
        step(state, params, ctx8)
        active = np.flatnonzero(state.active[0])
        assert active.size > 1
        decr = decrement_energies(ctx8.numerators(state.residual[0]), ctx8)
        fresh = np.setdiff1d(select_candidates(decr, params.tau, params.n_bf),
                             active)
        assert fresh.size > 1
        # the weakest fresh pick is the one the retry sheds first; the
        # established support has near-zero decrements, so a retry that
        # shed across the whole support would drop it instead
        bad = fresh[np.argmin(decr[fresh])]
        assert decr[active].max() < decr[bad]
        step(state, params, SingularWith(ctx8, bad))
        assert state.gram_retries[0] == 1
        np.testing.assert_array_equal(
            np.flatnonzero(state.active[0]),
            np.union1d(active, np.setdiff1d(fresh, [bad])))

    def test_greedy_sheds_weakest(self, ctx8, rng):
        r = rng.normal(size=ctx8.basis.m * ctx8.basis.n)
        decr = decrement_energies(ctx8.numerators(r), ctx8)
        idx = np.argsort(decr)[-4:]
        bad = idx[np.argmin(decr[idx])]
        got, used = solve_subspace(r, np.sort(idx), SingularWith(ctx8, bad))
        np.testing.assert_array_equal(used, np.setdiff1d(idx, [bad]))
        want, _ = solve_subspace(r, used, ctx8)
        np.testing.assert_array_equal(got, want)


class SingularOnSupport:
    """Wraps a context; the Gram matrix of exactly the index set ``support``
    is singular (the row and column of ``bad`` are zeroed), wherever that
    system sits in a batch."""

    def __init__(self, ctx, support, bad):
        self._ctx, self.support, self.bad = ctx, support, bad

    def __getattr__(self, name):
        return getattr(self._ctx, name)

    def gram(self, indices, sizes):
        g = self._ctx.gram(indices, sizes)
        idx = np.asarray(indices)
        keep = self.support != self.bad
        # zero the singular member's flattened matrix in place
        k = self.support.size
        start = corner = 0
        for size in sizes:
            if size == k and np.array_equal(idx[start:start + k],
                                            self.support):
                g[corner:corner + k * k] *= np.outer(keep, keep).ravel()
            start, corner = start + size, corner + size * size
        return g

    def take(self, rows):
        return self


def plaid_windows(rng, count, size):
    """Windows with a few equally strong plane waves plus noise, so the
    first msa iteration selects several functions."""
    yy, xx = np.mgrid[0:size, 0:size] / size
    out = []
    for _ in range(count):
        w = np.zeros((size, size))
        for _ in range(4):
            a, b = rng.integers(1, 12, size=2)
            w += 20.0 * np.cos(2 * np.pi * (a * yy + b * xx)
                               + rng.uniform(0, 2 * np.pi))
        out.append(w + rng.normal(0, 4.0, size=(size, size)))
    return np.stack(out)


def assert_same_run(a, b):
    """Bitwise equality of two engine results, diagnostics included."""
    np.testing.assert_array_equal(a.block, b.block)
    np.testing.assert_array_equal(a.model.coefficients, b.model.coefficients)
    np.testing.assert_array_equal(a.model.rendering, b.model.rendering)
    da, db = a.diagnostics, b.diagnostics
    assert (da.iterations, da.converged, da.energy0, da.energy,
            da.coefficient_count, da.gram_retries) \
        == (db.iterations, db.converged, db.energy0, db.energy,
            db.coefficient_count, db.gram_retries)
    assert len(da.selections) == len(db.selections)
    for (ia, ca, ea), (ib, cb, eb) in zip(da.selections, db.selections):
        np.testing.assert_array_equal(ia, ib)
        np.testing.assert_array_equal(ca, cb)
        assert ea == eb


# One layout per availability class (and padding pattern), per block size.
BATCH_LAYOUTS = {size: [build_layout((6 * size, 4 * size),
                                     BlockRef(bx * size, by * size, size))
                        for bx, by in ((2, 2), (0, 2), (2, 0), (5, 2))]
                 for size in (8, 16)}


class TestBatchIndependence:
    """A member's result must not depend on batch size, order or mates,
    nor on its mates' neighbour-availability classes."""

    @given(seed=st.integers(0, 2 ** 32 - 1),
           algo=st.sampled_from(["fsa", "rba", "msa"]),
           size=st.sampled_from([8, 16]), batch=st.integers(1, 7),
           singular=st.booleans())
    @settings(max_examples=60)
    def test_members_equal_single_runs(self, seed, algo, size, batch,
                                       singular):
        rng = np.random.default_rng(seed)
        # every member draws its own availability class
        layouts = [BATCH_LAYOUTS[size][w] for w in rng.integers(0, 4, batch)]
        contexts = [projection_context(layout) for layout in layouts]
        windows = plaid_windows(rng, batch, 3 * size)
        # members that converge at once or early: the zero signal, and one
        # basis function
        kinds = rng.integers(0, 4, size=batch)
        windows[kinds == 0] = 0.0
        windows[kinds == 1] = basis_function(
            contexts[0].basis, int(rng.integers(1, contexts[0].basis.count)))
        bad = None
        if singular:
            # each window names one of its four strongest functions, and
            # any Gram that holds a named function is singular, so rba/msa
            # members retry and shed
            top = np.stack([np.argsort(decrement_energies(
                ctx.numerators(w.ravel()), ctx))[-4:]
                for w, ctx in zip(windows, contexts)])
            bad = top[np.arange(batch), rng.integers(0, 4, size=batch)]

        def weighting(members):
            # None: run_batch stacks each layout's reference weighting
            if bad is None:
                return None
            return SingularWith(stack_contexts([contexts[m] for m in members]),
                                bad)

        params = ExtrapolationParams(
            algorithm=algo, iterations=30 if algo == "fsa" else None)
        alone = [run(w, layouts[m], params, context=weighting([m]),
                     record=True) for m, w in enumerate(windows)]
        order = rng.permutation(batch)
        cuts = np.sort(rng.choice(np.arange(1, batch), size=int(
            rng.integers(0, batch)), replace=False)) if batch > 1 else []
        for chunk in np.split(order, cuts):
            got = run_batch(windows[chunk], [layouts[m] for m in chunk],
                            params, context=weighting(chunk), record=True)
            assert len(got) == len(chunk)
            for member, result in zip(chunk, got):
                assert_same_run(result, alone[member])

    # Each window is four basis functions, which every msa iteration
    # selects exactly: five systems of one size, stacked in one solve.
    SUPPORTS = np.array([[150, 260, 370, 480], [120, 230, 340, 450],
                         [100, 205, 310, 415], [130, 245, 355, 465],
                         [110, 215, 325, 435]])

    def four_function_windows(self, ctx):
        return np.stack([ctx.render(s, np.full(4, 30.0), [4]).reshape(48, 48)
                         for s in self.SUPPORTS])

    def test_equal_sizes_solve_together(self, layout16, ctx16):
        windows = self.four_function_windows(ctx16)
        msa = ExtrapolationParams.defaults("msa")
        got = run_batch(windows, [layout16] * 5, msa, context=ctx16,
                        record=True)
        for window, result, support in zip(windows, got, self.SUPPORTS):
            assert all(np.array_equal(sel, support)
                       for sel, _, _ in result.diagnostics.selections)
            assert_same_run(result, run(window, layout16, msa, context=ctx16,
                                        record=True))

    def test_singular_member_retries_alone(self, layout16, ctx16,
                                           monkeypatch):
        supports = self.SUPPORTS
        windows = self.four_function_windows(ctx16)
        support = supports[2]
        decr = decrement_energies(ctx16.numerators(windows[2].ravel()),
                                  ctx16)
        bad = support[np.argmin(decr[support])]
        stub = SingularOnSupport(ctx16, support, bad)
        factored = []
        factor = lapack.dposv

        def dposv(gram, rhs, **kwargs):
            factored.append(np.array(gram))
            return factor(gram, rhs, **kwargs)

        # one iteration: exactly one retry, only for that member, which
        # sheds its weakest pick; every batch-mate is factored once
        once = ExtrapolationParams(algorithm="msa", iterations=1)
        with monkeypatch.context() as patch:
            patch.setattr(lapack, "dposv", dposv)
            got = run_batch(windows, [layout16] * 5, once, context=stub,
                            record=True)
        assert [r.diagnostics.gram_retries for r in got] == [0, 0, 1, 0, 0]
        for i in (0, 1, 3, 4):
            mate = ctx16.gram(supports[i], [4]).reshape(4, 4)
            assert sum(np.array_equal(g, mate) for g in factored) == 1
        assert len(factored) == 6   # five members, then the shed retry
        for i, (r, s) in enumerate(zip(got, supports)):
            want = np.setdiff1d(s, [bad]) if i == 2 else s
            np.testing.assert_array_equal(r.diagnostics.selections[0][0],
                                          want)
        # every iteration that picks the singular set again retries again;
        # the member matches its own B = 1 run and its mates are untouched
        msa = ExtrapolationParams.defaults("msa")
        got = run_batch(windows, [layout16] * 5, msa, context=stub,
                        record=True)
        assert_same_run(got[2], run(windows[2], layout16, msa, context=stub,
                                    record=True))
        for i in (0, 1, 3, 4):
            assert got[i].diagnostics.gram_retries == 0
            assert_same_run(got[i], run(windows[i], layout16, msa,
                                        context=ctx16, record=True))

    def test_rba_member_out_of_fresh_picks_converges_alone(self, layout16,
                                                           ctx16):
        # tau 1 takes one function per iteration, so rba's second step
        # adds one fresh pick to a span of one; when that pick makes the
        # Gram singular, nothing is left to shed and no solution is left
        windows = self.four_function_windows(ctx16)[:2]
        rba = ExtrapolationParams(algorithm="rba", tau=1.0)
        plain = run(windows[0], layout16, rba, context=ctx16, record=True)
        (first, _, _), (second, _, _) = plain.diagnostics.selections[:2]
        bad = np.setdiff1d(second, first)
        assert first.size == bad.size == 1
        stub = SingularWith(ctx16, bad)
        state = new_state(windows, ctx16)
        step(state, rba, stub)
        coefficients, active = state.coefficients.copy(), state.active.copy()
        step(state, rba, stub)
        assert state.converged.tolist() == [True, False]
        assert state.gram_retries.tolist() == [1, 0]
        assert state.iterations.tolist() == [1, 2]
        np.testing.assert_array_equal(state.coefficients[0], coefficients[0])
        np.testing.assert_array_equal(state.active[0], active[0])
        np.testing.assert_array_equal(np.flatnonzero(active[0]), first)
        # the stuck member and its regular mate each match their B = 1 run
        got = run_batch(windows, [layout16] * 2, rba, context=stub,
                        record=True)
        assert [r.diagnostics.gram_retries for r in got] == [1, 0]
        for window, result in zip(windows, got):
            assert_same_run(result, run(window, layout16, rba, context=stub,
                                        record=True))

    def test_shape_validation(self, layout8, layout16):
        msa = ExtrapolationParams.defaults("msa")
        with pytest.raises(ValueError, match="shape"):
            run_batch(np.zeros((2, 10, 10)), [layout8] * 2, msa)
        with pytest.raises(ValueError, match="2 layouts"):
            run_batch(np.zeros((3, 24, 24)), [layout8] * 2, msa)
        with pytest.raises(ValueError, match="one block size"):
            run_batch(np.zeros((2, 24, 24)), [layout8, layout16], msa)

    # a non-finite sample on R, on the centre block and on padding
    @pytest.mark.parametrize("where, value", [((0, 0), np.nan),
                                              ((12, 12), np.inf),
                                              ((20, 20), -np.inf)])
    def test_rejects_bad_input_before_any_work(self, layout8, monkeypatch,
                                               where, value):
        # an empty batch used to fail on ``layouts[0]``, and a non-finite
        # sample used to give a zero block marked converged
        def no_work(*args, **kwargs):
            raise AssertionError("the engine started")

        monkeypatch.setattr(extrapolate, "new_state", no_work)
        monkeypatch.setattr(extrapolate, "batch_context", no_work)
        msa = ExtrapolationParams.defaults("msa")
        with pytest.raises(ValueError, match="at least one"):
            run_batch(np.zeros((0, 24, 24)), [], msa)
        windows = np.zeros((3, 24, 24))
        windows[1][where] = value
        with pytest.raises(SampleError, match="finite"):
            run_batch(windows, [layout8] * 3, msa)
        with pytest.raises(SampleError, match="finite"):
            run(windows[1], layout8, msa)

    @pytest.mark.parametrize("algo", ["fsa", "rba", "msa"])
    def test_no_numpy_factorisation(self, algo, monkeypatch):
        # every system is factored and solved by LAPACK's Cholesky solver
        # alone: a mixed-class batch completes with numpy's general solve
        # and its Cholesky out of reach
        def refused(*args, **kwargs):
            raise AssertionError("numpy.linalg called")

        monkeypatch.setattr(np.linalg, "solve", refused)
        monkeypatch.setattr(np.linalg, "cholesky", refused)
        rng = np.random.default_rng(12)
        layouts = [BATCH_LAYOUTS[16][i] for i in (0, 1, 2, 3, 0)]
        params = ExtrapolationParams(
            algorithm=algo, iterations=30 if algo == "fsa" else None)
        got = run_batch(plaid_windows(rng, 5, 48), layouts, params,
                        record=True)
        assert all(r.diagnostics.iterations > 0 for r in got)
        joint = [used.size > 1 for r in got
                 for used, _, _ in r.diagnostics.selections]
        assert any(joint) == (algo != "fsa")

    def test_results_keep_only_their_own_block(self, rng):
        # an unrecorded result pins nothing of its batch's engine state,
        # and a recorded member's model is its own
        windows = plaid_windows(rng, 4, 24)
        params = ExtrapolationParams.defaults("msa")
        plain = run_batch(windows, BATCH_LAYOUTS[8], params)
        for result in plain:
            assert result.model is None
            assert result.block.flags.owndata
        recorded = run_batch(windows, BATCH_LAYOUTS[8], params, record=True)
        arrays = [a for r in recorded
                  for a in (r.block, r.model.coefficients, r.model.rendering)]
        for i, a in enumerate(arrays):
            assert not any(np.shares_memory(a, b) for b in arrays[i + 1:])
        for a, b in zip(plain, recorded):
            np.testing.assert_array_equal(a.block, b.block)


class TestReferenceEngine:
    @pytest.mark.parametrize("algo", ["fsa", "rba", "msa"])
    def test_run_and_batch_match_the_bare_engine(self, algo):
        # the bare one-member engine shares no bookkeeping with the
        # library's loop: every member of a mixed-class B = 4 batch, and
        # each window alone, must match it bit for bit; the black window
        # converges on its first step beside live batch-mates
        rng = np.random.default_rng(29)
        layouts = BATCH_LAYOUTS[8]
        windows = plaid_windows(rng, len(layouts), 24)
        windows[2] = 0.0
        params = ExtrapolationParams.defaults(algo)
        batch = run_batch(windows, layouts, params, record=True)
        for window, layout, got in zip(windows, layouts, batch):
            rendering, coefficients, iterations, converged = reference_run(
                window, params, projection_context(layout))
            alone = run(window, layout, params, record=True)
            for result in (got, alone):
                d = result.diagnostics
                assert d.gram_retries == 0
                assert type(d.coefficient_count) is int
                assert (d.iterations, d.converged) == (iterations, converged)
                np.testing.assert_array_equal(result.model.coefficients,
                                              coefficients)
                np.testing.assert_array_equal(result.model.rendering,
                                              rendering)
                np.testing.assert_array_equal(
                    result.block,
                    rendering.reshape(24, 24)[layout.block_slices])
        assert batch[2].diagnostics.converged
        assert batch[2].diagnostics.iterations == 0


class TestCallBuffers:
    @pytest.mark.parametrize("algo", ["fsa", "rba", "msa"])
    @pytest.mark.parametrize("size", [8, 16])
    def test_back_to_back_calls_share_nothing(self, algo, size,
                                              monkeypatch):
        # every call's buffers are its own: its results equal the same
        # call run alone, and no result shares memory with another result
        # or with any later call's engine state; rba's first-step
        # numerators, which it keeps for its input, are never overwritten
        # by a later step
        states = []
        new_state = extrapolate.new_state

        def keep(*args, **kwargs):
            states.append(new_state(*args, **kwargs))
            return states[-1]

        monkeypatch.setattr(extrapolate, "new_state", keep)
        rng = np.random.default_rng(size)
        params = ExtrapolationParams(
            algorithm=algo, iterations=30 if algo == "fsa" else None)
        calls, inputs = [], []
        for batch in (1, 3, 16):
            layouts = [BATCH_LAYOUTS[size][i % 4] for i in range(batch)]
            windows = plaid_windows(rng, batch, 3 * size)
            calls.append((windows, layouts))
            inputs.append(batch_context(layouts).numerators(
                windows.reshape(batch, -1)).copy())
        got = [run_batch(w, layouts, params, record=True)
               for w, layouts in calls]
        kept = states[:]
        for (windows, layouts), results in zip(calls, got):
            alone = run_batch(windows, layouts, params, record=True)
            for a, b in zip(results, alone):
                assert_same_run(a, b)
        arrays = [(i, a) for i, results in enumerate(got) for r in results
                  for a in (r.block, r.model.coefficients, r.model.rendering)]
        for j, (i, a) in enumerate(arrays):
            assert not any(np.shares_memory(a, b) for _, b in arrays[j + 1:])
            assert not any(np.shares_memory(a, buffer) for state in kept[i:]
                           for buffer in (state.residual, state.rendering,
                                          state.coefficients))
        if algo == "rba":
            for state, want in zip(kept, inputs):
                np.testing.assert_array_equal(state.f_numerators, want)
                assert not np.shares_memory(state.f_numerators,
                                            state.residual)


class TestNumeratorCalls:
    @pytest.mark.parametrize("algo", ["fsa", "rba", "msa"])
    def test_one_call_per_iteration(self, algo, monkeypatch):
        # every step with a live member reads the numerators once, in one
        # stacked call: one per iteration, plus the step that finds a
        # member converged; rba's first step reuses them for its input
        calls = []
        numerators = ProjectionContext.numerators

        def spy(self, residual):
            calls.append(len(residual))
            return numerators(self, residual)

        monkeypatch.setattr(ProjectionContext, "numerators", spy)
        rng = np.random.default_rng(21)
        layouts = BATCH_LAYOUTS[16]
        windows = plaid_windows(rng, len(layouts), 48)
        windows[3] = 0.0   # converges on its first step
        params = ExtrapolationParams(
            algorithm=algo, iterations=30 if algo == "fsa" else None)
        steps = []
        for window, layout in zip(windows, layouts):
            calls.clear()
            d = run(window, layout, params).diagnostics
            steps.append(d.iterations + d.converged)
            assert calls == [1] * steps[-1]
        calls.clear()
        run_batch(windows, layouts, params)
        assert len(calls) == max(steps)


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
        # a non-number used to raise an untyped TypeError, and a bool passed
        for value in ("0.5", None, True):
            for name in ("tau", "gamma"):
                with pytest.raises(ValueError, match=f"{name} must be a "
                                                     "real number"):
                    ExtrapolationParams(**{name: value})
        for count in (0, 2.5, True, "3"):
            for name in ("iterations", "n_bf"):
                with pytest.raises(ValueError, match=f"{name} must be a "
                                                     "positive integer"):
                    ExtrapolationParams(**{name: count})

    def test_unknown_engine_lists_only_engines(self):
        # 'none' is a codec setting, not an engine, so it is not offered
        with pytest.raises(ValueError) as err:
            ExtrapolationParams(algorithm="none")
        assert str(err.value) == ("unknown algorithm 'none'; choose from "
                                  "('fsa', 'rba', 'msa')")


class TestEngines:
    def test_exact_recovery_small(self):
        ctx = uniform_ctx(12, 12)
        lay = build_layout((12 * 4, 12 * 4), BlockRef(4, 4, size=4))
        rng = np.random.default_rng(5)
        idx = rng.choice(ctx.basis.count, size=3, replace=False)
        truth = np.zeros(ctx.basis.count)
        truth[idx] = rng.uniform(0.5, 2.0, size=3)
        f = (truth @ basis_matrix(ctx.basis)).reshape(12, 12)
        res = run(f, lay, ExtrapolationParams(algorithm="msa", iterations=5,
                                              gamma=1.0), context=ctx,
                  record=True)
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
        r1 = run(f1, lay, params, record=True)
        r2 = run(f2, lay, params, record=True)
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
        f = basis_function(ctx8.basis, 4).copy()
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
        a = run(f, layout8, params, context=ctx8, record=True)
        b = run(f, layout8, params, context=ctx8_matrix, record=True)
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
                  context=ctx8, record=True)
        full = res.model.rendering.reshape(layout8.m, layout8.n)
        np.testing.assert_array_equal(res.block, full[8:16, 8:16])

    def test_run_on_isolated_block(self):
        # no neighbours at all: engines model the centre block alone
        lay = build_layout((48, 48), BlockRef(0, 0, size=16))
        assert lay.r_empty
        rng = np.random.default_rng(3)
        f = rng.normal(128, 30, size=(lay.m, lay.n))
        ctx = ProjectionContext(build_basis(lay.m, lay.n),
                                build_weight_mask(lay))
        res = run(f, lay, ExtrapolationParams.defaults("msa"), context=ctx)
        assert np.isfinite(res.block).all()
        assert res.diagnostics.energy <= res.diagnostics.energy0


class TestStepFunctions:
    def test_fsa_step_selects_single(self, layout8, ctx8, rng):
        f = rng.normal(0, 10, size=(1, layout8.m, layout8.n))
        state = new_state(f, ctx8, record=True)
        step(state, ExtrapolationParams.defaults("fsa"), ctx8)
        assert state.iterations[0] == 1
        assert state.selections[0][0][0].size == 1

    def test_decrement_formula(self, ctx8, rng):
        # decrement of function k equals p_k^2 * weighted norm
        r = rng.normal(size=ctx8.basis.m * ctx8.basis.n)
        num = ctx8.numerators(r)
        p = num / ctx8.norms
        d = decrement_energies(num, ctx8)
        k = 13
        assert d[k] == pytest.approx(p[k] ** 2 * ctx8.norms[k], rel=1e-12)
        # and subtracting p_k*phi_k really lowers the energy by ~d[k]
        w = ctx8.w_flat
        e0 = float((r * w) @ r)
        r2 = r - p[k] * basis_matrix(ctx8.basis)[k]
        e1 = float((r2 * w) @ r2)
        assert e0 - e1 == pytest.approx(d[k], rel=1e-9)

    def test_rba_replaces_not_accumulates(self, layout8, ctx8, rng):
        f = rng.normal(0, 10, size=(1, layout8.m, layout8.n))
        state = new_state(f, ctx8, record=True)
        params = ExtrapolationParams(algorithm="rba", iterations=4, n_bf=3)
        step(state, params, ctx8)
        step(state, params, ctx8)
        support, coefs, _ = state.selections[0][-1]
        # the model holds exactly the last re-projection
        np.testing.assert_array_equal(np.flatnonzero(state.coefficients[0]),
                                      support)
        np.testing.assert_array_equal(state.coefficients[0][support], coefs)

    def test_msa_step_accumulates(self, layout8, ctx8, rng):
        f = rng.normal(0, 10, size=(1, layout8.m, layout8.n))
        state = new_state(f, ctx8, record=True)
        params = ExtrapolationParams.defaults("msa")
        step(state, params, ctx8)
        c_after_1 = state.coefficients[0].copy()
        step(state, params, ctx8)
        sel2 = set(state.selections[0][1][0].tolist())
        unchanged = [k for k in np.flatnonzero(c_after_1) if k not in sel2]
        np.testing.assert_array_equal(state.coefficients[0][unchanged],
                                      c_after_1[unchanged])

    def test_sparse_model_bookkeeping(self, layout8, ctx8, rng):
        # the batched coefficients and renderings stay in sync per member
        f = rng.normal(0, 10, size=(3, layout8.m, layout8.n))
        for params in (ExtrapolationParams.defaults("msa"),
                       ExtrapolationParams(algorithm="rba", n_bf=3)):
            state = new_state(f, ctx8)
            for _ in range(3):
                step(state, params, ctx8)
            want = state.coefficients @ basis_matrix(ctx8.basis)
            np.testing.assert_allclose(state.rendering, want, atol=1e-12)
            np.testing.assert_array_equal(
                state.residual, state.f - state.rendering)
        res = run(f[0], layout8, ExtrapolationParams.defaults("msa"),
                  context=ctx8, record=True)
        np.testing.assert_array_equal(res.model.support,
                                      np.flatnonzero(res.model.coefficients))
