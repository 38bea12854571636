import math
import tracemalloc

import numpy as np
import pytest
import scipy.fft

from conftest import MatrixContext, reference_gram, square_grams
from mcrefine import basis as basis_module
from mcrefine.basis import (DEFAULT_MU, DEFAULT_RHO, ParameterError,
                            ProjectionContext, _enumerate_basis, _unit_phases,
                            batch_context, build_basis, build_weight_mask,
                            excluded_mask, projection_context, stack_contexts)
from mcrefine.frame import (REGION_B, REGION_PAD, REGION_R, BlockRef,
                            ProjectionLayout, build_layout)


# ---------------------------------------------------------------------------
# Oracles: everything below is written with plain Python loops so the
# vectorized/FFT implementations are checked against an independent route.
# ---------------------------------------------------------------------------

def basis_value_oracle(m, n, k, l, is_sin, y, x):
    phase = 2.0 * math.pi * (k * y / m + l * x / n)
    return math.sin(phase) if is_sin else math.cos(phase)


def weighted_inner_oracle(a, b, w):
    total = 0.0
    for y in range(a.shape[0]):
        for x in range(a.shape[1]):
            total += a[y, x] * b[y, x] * w[y, x]
    return total


def weight_oracle(layout, mu, rho):
    m, n = layout.m, layout.n
    w = np.zeros((m, n))
    cy, cx = (m - 1) / 2.0, (n - 1) / 2.0
    for y in range(m):
        for x in range(n):
            r = layout.region_map[y, x]
            if r == REGION_B:
                w[y, x] = mu
            elif r == REGION_R:
                w[y, x] = rho ** math.sqrt((y - cy) ** 2 + (x - cx) ** 2)
    return w


class TestBuildBasis:
    def test_counts_and_dc(self):
        b = build_basis(8, 8)
        assert b.count == 64
        assert b.matrix.shape == (64, 64)
        # DC first: k=l=0 cosine, identically one
        assert b.k_freq[0] == b.l_freq[0] == 0 and not b.is_sin[0]
        np.testing.assert_allclose(b.matrix[0], 1.0)

    def test_sin_cos_split(self):
        # Self-conjugate frequency pairs carry no sine member.  For even
        # extents there are four such pairs.
        b = build_basis(8, 8)
        assert int(np.sum(b.is_sin)) == (64 - 4) // 2
        b = build_basis(6, 4)
        assert b.count == 24
        assert int(np.sum(b.is_sin)) == (24 - 4) // 2

    def test_values_match_pointwise_formula(self):
        b = build_basis(6, 4)
        for idx in (0, 1, 5, 11, 17, 23):
            fn = b.function(idx)
            for y in (0, 2, 5):
                for x in (0, 1, 3):
                    want = basis_value_oracle(6, 4, int(b.k_freq[idx]),
                                              int(b.l_freq[idx]),
                                              bool(b.is_sin[idx]), y, x)
                    assert fn[y, x] == pytest.approx(want, abs=1e-12)

    def test_orthogonal_under_uniform_weight(self):
        b = build_basis(8, 8)
        g = b.matrix @ b.matrix.T
        off = g - np.diag(np.diag(g))
        assert np.abs(off).max() < 1e-9 * np.diag(g).max()
        assert np.diag(g).min() > 0  # spans the full raster space

    def test_no_conjugate_duplicates(self):
        b = build_basis(8, 8)
        seen = set()
        for i in range(b.count):
            key = (int(b.k_freq[i]), int(b.l_freq[i]), bool(b.is_sin[i]))
            assert key not in seen
            seen.add(key)
            conj = ((-key[0]) % 8, (-key[1]) % 8)
            if conj != (key[0], key[1]):
                assert (conj[0], conj[1], key[2]) not in seen

    def test_cached(self):
        assert build_basis(8, 8) is build_basis(8, 8)

    @pytest.mark.parametrize("size", [24, 48])
    def test_left_factors_equal_the_stacked_expression(self, size):
        b = _enumerate_basis(size, size)
        assert b.left.shape == (2 * size, 2, size)
        # the reference: every function's row factors as a select over two
        # stacked full-size tables of the gathered phases
        a = _unit_phases(size)[b.k_freq]
        cos_a, sin_a = np.cos(a), np.sin(a)
        want = np.where(b.is_sin[:, None, None],
                        np.stack((sin_a, cos_a), axis=1),
                        np.stack((cos_a, -sin_a), axis=1))
        _bitwise_equal(b.left.take(b.row_key, axis=0), want)

    def test_left_factors_need_no_full_size_temporary(self):
        # a (M*N, 2, M) table of row factors per function would take
        # 14.2 MB at 96 x 96; the build stays well under it
        tracemalloc.start()
        try:
            b = _enumerate_basis(96, 96)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.2 * b.count * b.left[0].nbytes

    def test_rejects_empty(self):
        with pytest.raises(ParameterError):
            build_basis(0, 8)


class TestWeightMask:
    def test_matches_oracle(self, layout8):
        wm = build_weight_mask(layout8, mu=0.5, rho=0.8)
        np.testing.assert_allclose(wm, weight_oracle(layout8, 0.5, 0.8),
                                   atol=1e-15)

    def test_pad_is_exactly_zero(self):
        lay = build_layout((64, 48), BlockRef(0, 0, size=16))
        wm = build_weight_mask(lay)
        assert np.all(wm[lay.region_map == REGION_PAD] == 0.0)
        assert np.all(wm[lay.region_map == REGION_B] == 0.5)

    def test_far_corner_weight(self, layout16):
        # Sample (0,0) of a fully available 48x48 area lies 23.5*sqrt(2)
        # samples from the centre:  0.8**33.234... ~ 6.0e-4.
        wm = build_weight_mask(layout16, mu=0.5, rho=0.8)
        want = 0.8 ** math.sqrt(2 * 23.5 ** 2)
        assert wm[0, 0] == pytest.approx(want, rel=1e-9)
        assert want == pytest.approx(6.0e-4, rel=0.02)

    def test_decay_monotone_towards_corner(self, layout16):
        wm = build_weight_mask(layout16)
        top_row = wm[0, :24]
        assert np.all(np.diff(top_row) >= 0)  # approaching centre column

    def test_parameter_validation(self, layout8):
        with pytest.raises(ParameterError):
            build_weight_mask(layout8, rho=1.0)
        with pytest.raises(ParameterError):
            build_weight_mask(layout8, rho=0.0)
        with pytest.raises(ParameterError):
            build_weight_mask(layout8, mu=0.0)


class TestNorms:
    def test_norms_match_inner(self, layout8):
        wm = build_weight_mask(layout8)
        b = build_basis(layout8.m, layout8.n)
        norms = ProjectionContext(b, wm).norms
        for k in (0, 3, 17, b.count - 1):
            want = weighted_inner_oracle(b.function(k), b.function(k), wm)
            assert norms[k] == pytest.approx(want, rel=1e-12)

    def test_excluded_mask(self):
        norms = np.array([1.0, 0.5, 1e-15, 0.0])
        np.testing.assert_array_equal(excluded_mask(norms),
                                      [False, False, True, True])

    def test_norm_positive_under_uniform(self):
        b = build_basis(8, 8)
        norms = ProjectionContext(b, np.ones((8, 8))).norms
        assert np.all(norms > 0)
        assert not excluded_mask(norms).any()


class TestProjectionContextModes:
    """The FFT route must reproduce the dense-matrix oracle."""

    def test_numerators_match_oracle(self, ctx8, ctx8_matrix, rng):
        b = ctx8.basis
        r = rng.normal(size=(b.m, b.n))
        fast = ctx8.numerators(r.ravel())
        ref = ctx8_matrix.numerators(r.ravel())
        np.testing.assert_allclose(fast, ref, rtol=1e-9, atol=1e-9)
        w = ctx8.w_flat.reshape(b.m, b.n)
        for k in (0, 1, 40, 111):
            want = weighted_inner_oracle(r, b.function(k), w)
            assert ref[k] == pytest.approx(want, rel=1e-10, abs=1e-10)

    def test_numerators_keep_the_rfft2_bits(self, ctx16, rng):
        # the row pass and the in-place column pass give scipy's rfft2 bits
        r = rng.normal(size=(3, 48, 48))
        w = ctx16.w_flat.reshape(48, 48)
        half = scipy.fft.rfft2(r * w).view(np.float64)
        positions, signs = ctx16.basis.spectrum_keys
        want = half.reshape(3, -1)[:, positions] * signs
        np.testing.assert_array_equal(ctx16.numerators(r.reshape(3, -1)),
                                      want)

    def test_gram_matches_oracle(self, ctx8, ctx8_matrix, rng):
        idx = np.sort(rng.choice(ctx8.basis.count, size=12, replace=False))
        g_fast = square_grams(ctx8, idx)
        g_ref = square_grams(ctx8_matrix, idx)
        np.testing.assert_allclose(g_fast, g_ref, rtol=1e-9, atol=1e-9)
        w = ctx8.w_flat.reshape(ctx8.basis.m, ctx8.basis.n)
        for a in range(0, 12, 5):
            for b_ in range(0, 12, 7):
                want = weighted_inner_oracle(ctx8.basis.function(idx[a]),
                                             ctx8.basis.function(idx[b_]), w)
                assert g_ref[a, b_] == pytest.approx(want, rel=1e-9, abs=1e-9)

    def test_gram_exactly_symmetric(self, ctx8, ctx8_matrix, rng):
        idx = rng.choice(ctx8.basis.count, size=20, replace=False)
        for ctx in (ctx8, ctx8_matrix):
            g = square_grams(ctx, idx)
            np.testing.assert_array_equal(g, g.T)

    def test_norms_shared_between_modes(self, ctx8, ctx8_matrix):
        np.testing.assert_array_equal(ctx8.norms, ctx8_matrix.norms)

    def test_render(self, ctx8, rng):
        idx = np.array([0, 5, 9])
        coefs = rng.normal(size=3)
        want = sum(c * ctx8.basis.matrix[i] for c, i in zip(coefs, idx))
        np.testing.assert_allclose(ctx8.render(idx, coefs, [3])[0], want,
                                   atol=1e-12)

    def test_context_cached_per_pattern(self, layout8):
        a = projection_context(layout8)
        b = projection_context(layout8)
        assert a is b
        c = projection_context(layout8, rho=0.7)
        assert c is not a

    def test_same_pattern_shares_context(self):
        # different frame positions, same availability pattern
        l1 = build_layout((96, 96), BlockRef(16, 16, size=8))
        l2 = build_layout((96, 96), BlockRef(72, 80, size=8))
        assert l1.availability == l2.availability
        assert projection_context(l1) is projection_context(l2)


def _self_conjugate(b):
    """Indices of cosine members whose frequency pair is its own image."""
    return np.flatnonzero((2 * b.k_freq % b.m == 0) & (2 * b.l_freq % b.n == 0))


@pytest.fixture(scope="module")
def oracle48(layout16):
    """Oracle on a private 48x48 basis, so its dense matrix is freed with
    the module instead of pinning the shared cached basis."""
    return MatrixContext(_enumerate_basis(48, 48),
                         build_weight_mask(layout16))


class TestProjectionStack:
    """Member i of a stack is projected bitwise like its own context."""

    @pytest.fixture()
    def contexts(self):
        # left-only, no-left, full, full, no-top-right: a wave-like mix
        return [projection_context(build_layout((48, 32), BlockRef(x, y, 8)))
                for x, y in ((8, 0), (0, 8), (8, 8), (16, 8), (40, 8))]

    def test_one_weighting_is_not_stacked(self, ctx8):
        assert stack_contexts([ctx8] * 3) is ctx8
        assert ctx8.take(np.array([0, 2])) is ctx8

    def test_members_match_their_contexts(self, contexts, rng):
        stack = stack_contexts(contexts)
        r = rng.normal(size=(len(contexts), 24 * 24))
        idx = np.sort(rng.choice(24 * 24, size=(len(contexts), 6)), axis=1)
        # members 2 and 3 share one weighting
        for view, rows in ((stack, range(5)),
                           (stack.take(np.array([3, 2])), [3, 2]),
                           (stack.take(np.array([3, 0])).take(
                               slice(1, 2)), [0]),
                           (stack.take(np.array([4, 1, 2])), [4, 1, 2]),
                           (stack.take(np.array([3, 4, 0])).take(
                               slice(1, 3)), [4, 0])):
            rows = list(rows)
            num = view.numerators(r[rows])
            gram = square_grams(view, idx[rows])
            norms = view.norms_at(idx[rows].ravel(),
                                  [6] * len(rows)).reshape(-1, 6)
            safe = view.per_member(view._safe_norms)
            w_flat = view.per_member(view.w_flat)
            for j, i in enumerate(rows):
                ctx = contexts[i]
                np.testing.assert_array_equal(num[j], ctx.numerators(r[i]))
                np.testing.assert_array_equal(gram[j],
                                              square_grams(ctx, idx[i]))
                np.testing.assert_array_equal(norms[j], ctx.norms[idx[i]])
                np.testing.assert_array_equal(safe[j], ctx._safe_norms)
                np.testing.assert_array_equal(w_flat[j], ctx.w_flat)

    def test_views_share_the_table_and_slices_copy_nothing(self, contexts):
        stack = stack_contexts(contexts)
        view = stack.take(np.array([4, 1, 2]))
        part = view.take(slice(1, 3))
        assert view._gram_table is part._gram_table is stack._gram_table
        for name in ("w_flat", "norms", "_safe_norms"):
            assert np.shares_memory(getattr(part, name), getattr(view, name))
        np.testing.assert_array_equal(part.w_flat,
                                      stack.per_member(stack.w_flat)[1:3])

    def test_stacking_leaves_the_contexts_untouched(self, rng):
        # cached contexts that no other test stacks keep their own arrays,
        # values and all
        contexts = [projection_context(build_layout(
            (48, 32), BlockRef(x, y, 8)), rho=0.67)
            for x, y in ((8, 0), (0, 8), (8, 8), (16, 8), (40, 8))]
        names = ("w_flat", "norms", "_safe_norms", "_gram_table")
        held = [{name: getattr(c, name) for name in names} for c in contexts]
        values = [{name: a.copy() for name, a in h.items()} for h in held]
        stack = stack_contexts(contexts)
        idx = np.sort(rng.choice(24 * 24, size=(len(contexts), 6)), axis=1)
        square_grams(stack, idx)
        stack.take(np.array([4, 1])).numerators(rng.normal(size=(2, 576)))
        for ctx, arrays, copies in zip(contexts, held, values):
            for name in names:
                assert getattr(ctx, name) is arrays[name]
                np.testing.assert_array_equal(arrays[name], copies[name])

    def test_one_support_per_member(self, contexts, rng):
        stack = stack_contexts(contexts)
        idx = np.sort(rng.choice(24 * 24, size=(len(contexts), 6)), axis=1)
        for wrong in (idx[:3], idx[None].repeat(2, axis=0)):
            with pytest.raises(ValueError, match="one support per member"):
                square_grams(stack, wrong)
            with pytest.raises(ValueError, match="one support per member"):
                stack.norms_at(wrong.ravel(), [6] * (wrong.size // 6))
        with pytest.raises(ValueError, match="one support per member"):
            stack.gram(idx.ravel(), [6] * (len(contexts) + 1))

    def test_contexts_stack_after_their_basis_left_the_cache(self, rng):
        # five area sizes in one process: a context of the first size
        # built after the other four must share the basis that the first
        # cached context holds
        def context(size, availability):
            # a weighting no other test caches, so both contexts are new
            return projection_context(ProjectionLayout(
                BlockRef(size, size, size), availability), rho=0.61)

        first = context(2, (True, False, False, False))
        for size in (1, 4, 8, 16):
            context(size, (True, True, True, True))
        later = context(2, (True, True, True, False))
        assert later.basis is first.basis
        stack = stack_contexts([first, later])
        idx = np.sort(rng.choice(36, size=(2, 5), replace=False), axis=1)
        gram = square_grams(stack, idx)
        for j, ctx in enumerate((first, later)):
            _bitwise_equal(gram[j], reference_gram(ctx, idx[j]))

    def test_one_size_whatever_basis_object(self, ctx16, rng):
        # a private basis of the cached context's size stacks with it
        own = ProjectionContext(_enumerate_basis(48, 48), build_weight_mask(
            build_layout((352, 288), BlockRef(0, 144, 16))))
        members = [own, ctx16, own]
        stack = stack_contexts(members)
        r = rng.normal(size=(3, 48 * 48))
        idx = np.sort(rng.choice(48 * 48, size=(3, 7)), axis=1)
        num, gram = stack.numerators(r), square_grams(stack, idx)
        for j, ctx in enumerate(members):
            _bitwise_equal(num[j], ctx.numerators(r[j]))
            _bitwise_equal(gram[j], square_grams(ctx, idx[j]))

    def test_one_basis(self, ctx8, ctx16):
        with pytest.raises(ValueError, match="one area size"):
            stack_contexts([ctx8, ctx16])


def _bitwise_equal(a, b):
    assert a.shape == b.shape
    np.testing.assert_array_equal(a.view(np.int64), b.view(np.int64))


# All sixteen (left, top-left, top, top-right) patterns, from no neighbour
# at all through every pattern without a top-right neighbour to the full set.
PATTERNS = [tuple(bool(bits >> i & 1) for i in range(4)) for bits in range(16)]


def _pattern_context(size, availability, rho=DEFAULT_RHO):
    """An uncached context, so block-32 tables are freed with the test."""
    layout = ProjectionLayout(BlockRef(size, size, size), availability)
    return ProjectionContext(build_basis(layout.m, layout.n),
                             build_weight_mask(layout, rho=rho))


class TestWeightingRows:
    """Each block size, mu and rho holds its weightings once, as the rows
    of one stack, added as patterns are first asked for."""

    NAMES = ("w_flat", "norms", "_safe_norms", "_gram_table")

    def test_rows_are_added_on_first_use_and_read_in_place(self):
        rho = 0.63   # a weighting no other test caches
        layouts = [ProjectionLayout(BlockRef(8, 8, 8), p)
                   for p in PATTERNS[1:5]]
        first = projection_context(layouts[0], rho=rho)
        held = basis_module._weightings(8, DEFAULT_MU, rho)
        assert held.stack._gram_table.shape[0] == 1
        batch = [layouts[2], layouts[0], layouts[1], layouts[2]]
        stack = batch_context(batch, rho=rho)
        assert held.stack._gram_table.shape[0] == 3
        assert batch_context(batch, rho=rho)._gram_table \
            is stack._gram_table
        # the first context now reads its row of the grown stack
        assert projection_context(layouts[0], rho=rho) is first
        for layout, slot in zip(batch, stack._slots):
            own = projection_context(layout, rho=rho)
            fresh = _pattern_context(8, layout.availability, rho=rho)
            assert own._slots is None
            for name in self.NAMES:
                assert np.shares_memory(getattr(stack, name)[slot],
                                        getattr(own, name))
                _bitwise_equal(getattr(own, name), getattr(fresh, name))
        # one pattern needs no slots, and a new pattern gets its own row
        assert batch_context(layouts[:1] * 3, rho=rho) is first
        projection_context(layouts[3], rho=rho)
        assert held.stack._gram_table.shape[0] == 4
        for name in self.NAMES:
            assert np.shares_memory(getattr(first, name),
                                    getattr(held.stack, name))


class TestGramTable:
    """The signed, doubled table route equals the modulo reference bitwise."""

    @pytest.mark.parametrize("size", [8, 16, 32])
    def test_every_pattern(self, size, rng):
        for availability in PATTERNS:
            ctx = _pattern_context(size, availability)
            count = ctx.basis.count
            for k in (1, 2, 3, 7, 20, 33, 80):
                # unsorted, with repeats and an explicit duplicate
                idx = rng.integers(0, count, size=k)
                idx[-1] = idx[0]
                _bitwise_equal(square_grams(ctx, idx),
                               reference_gram(ctx, idx))
            # leading batch axes, and the extreme frequencies
            idx = rng.integers(0, count, size=(2, 3, 9))
            idx[0, 0, :4] = (0, count - 1, count - 2, 1)
            _bitwise_equal(square_grams(ctx, idx), reference_gram(ctx, idx))

    @pytest.mark.parametrize("size", [8, 16])
    def test_norms_are_the_gram_diagonal(self, size):
        for availability in PATTERNS:
            ctx = _pattern_context(size, availability)
            every = np.arange(ctx.basis.count)[:, None]
            _bitwise_equal(ctx.norms, square_grams(ctx, every).reshape(-1))

    def test_every_size_up_to_80(self, ctx16, rng):
        for k in range(1, 81):
            idx = np.sort(rng.choice(ctx16.basis.count, size=(2, k)), axis=1)
            _bitwise_equal(square_grams(ctx16, idx),
                           reference_gram(ctx16, idx))

    def test_mixed_stack_members_equal_their_contexts(self, rng):
        contexts = [projection_context(build_layout((64, 48), BlockRef(
            x, y, 16))) for x, y in ((16, 0), (0, 16), (16, 16), (48, 16),
                                     (32, 16), (0, 32))]
        stack = stack_contexts(contexts)
        for k in (2, 5, 20, 80):
            idx = np.sort(rng.integers(0, stack.basis.count,
                                       size=(len(contexts), k)), axis=1)
            idx[:, -1] = idx[:, 0]
            for view, rows in ((stack, range(len(contexts))),
                               (stack.take(np.array([5, 0, 3])), [5, 0, 3])):
                rows = list(rows)
                gram = square_grams(view, idx[rows])
                for j, i in enumerate(rows):
                    _bitwise_equal(gram[j], reference_gram(contexts[i], idx[i]))
                    _bitwise_equal(gram[j], square_grams(contexts[i], idx[i]))


class TestFactoredRoute:
    """Closed-form norms and factored rendering against the dense oracle."""

    @pytest.mark.parametrize("area", [24, 48])
    def test_norms_match_dense_oracle(self, area, oracle48):
        if area == 48:
            basis, wm = oracle48.basis, oracle48.w_flat.reshape(48, 48)
        else:  # left-edge block: a region pattern with padding
            basis = _enumerate_basis(24, 24)
            wm = build_weight_mask(
                build_layout((96, 96), BlockRef(0, 48, size=8)))
        dense = (basis.matrix * basis.matrix) @ wm.ravel()
        ctx = ProjectionContext(basis, wm)
        np.testing.assert_allclose(ctx.norms, dense, rtol=1e-12, atol=0)
        gram = square_grams(ctx, np.arange(64))
        np.testing.assert_allclose(np.diagonal(gram), dense[:64],
                                   rtol=1e-12, atol=0)

    @pytest.mark.parametrize("count", [1, 20, 80])
    def test_render_matches_dense_oracle(self, count, oracle48, ctx8,
                                         ctx8_matrix, rng):
        fast48 = ProjectionContext(oracle48.basis,
                                   oracle48.w_flat.reshape(48, 48))
        for fast, oracle in ((ctx8, ctx8_matrix), (fast48, oracle48)):
            b = fast.basis
            conj = _self_conjugate(b)
            others = np.setdiff1d(np.arange(b.count), conj)
            idx = np.concatenate([conj[-1:], rng.choice(
                others, size=count - 1, replace=False)])
            if count > 1:
                assert b.is_sin[idx].any() and not b.is_sin[idx].all()
            coefs = rng.normal(size=count)
            np.testing.assert_allclose(fast.render(idx, coefs, [count]),
                                       oracle.render(idx, coefs, [count]),
                                       rtol=0, atol=1e-12 * count)

    def test_block32_context_without_dense_matrix(self):
        # 96x96 area: the dense matrix would be 9216^2 doubles (~650 MB).
        layout = build_layout((160, 160), BlockRef(64, 64, size=32))
        ctx = projection_context(layout)
        b = ctx.basis
        assert (b.m, b.n, b.count) == (96, 96, 96 * 96)
        assert np.all(ctx.norms > 0)
        idx = np.array([0, 1, 2, 9215])
        coefs = np.array([1.0, 0.5, -0.25, 2.0])
        got = ctx.render(idx, coefs, [4]).reshape(96, 96)
        y, x = np.mgrid[0:96, 0:96] / 96.0
        want = np.zeros((96, 96))
        for i, c in zip(idx, coefs):
            phase = 2.0 * np.pi * (b.k_freq[i] * y + b.l_freq[i] * x)
            want += c * (np.sin(phase) if b.is_sin[i] else np.cos(phase))
        np.testing.assert_allclose(got, want, atol=1e-12)
        assert "matrix" not in b.__dict__
