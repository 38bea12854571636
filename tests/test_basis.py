import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import MatrixContext
from mcrefine.basis import (ParameterError, ProjectionContext, WeightMask,
                            build_basis, build_weight_mask, excluded_mask,
                            precompute_norms, projection_context,
                            weighted_inner)
from mcrefine.frame import REGION_B, REGION_PAD, REGION_R, BlockRef, build_layout


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

    def test_rejects_empty(self):
        with pytest.raises(ParameterError):
            build_basis(0, 8)


class TestWeightMask:
    def test_matches_oracle(self, layout8):
        wm = build_weight_mask(layout8, mu=0.5, rho=0.8)
        np.testing.assert_allclose(wm.w, weight_oracle(layout8, 0.5, 0.8),
                                   atol=1e-15)

    def test_pad_is_exactly_zero(self):
        lay = build_layout((64, 48), BlockRef(0, 0, size=16))
        wm = build_weight_mask(lay)
        assert np.all(wm.w[lay.region_map == REGION_PAD] == 0.0)
        assert np.all(wm.w[lay.region_map == REGION_B] == 0.5)

    def test_far_corner_weight(self, layout16):
        # Sample (0,0) of a fully available 48x48 area lies 23.5*sqrt(2)
        # samples from the centre:  0.8**33.234... ~ 6.0e-4.
        wm = build_weight_mask(layout16, mu=0.5, rho=0.8)
        want = 0.8 ** math.sqrt(2 * 23.5 ** 2)
        assert wm.w[0, 0] == pytest.approx(want, rel=1e-9)
        assert want == pytest.approx(6.0e-4, rel=0.02)

    def test_decay_monotone_towards_corner(self, layout16):
        wm = build_weight_mask(layout16)
        top_row = wm.w[0, :24]
        assert np.all(np.diff(top_row) >= 0)  # approaching centre column

    def test_parameter_validation(self, layout8):
        with pytest.raises(ParameterError):
            build_weight_mask(layout8, rho=1.0)
        with pytest.raises(ParameterError):
            build_weight_mask(layout8, rho=0.0)
        with pytest.raises(ParameterError):
            build_weight_mask(layout8, mu=0.0)

    def test_uniform(self):
        wm = WeightMask.uniform(6, 4, value=2.0)
        assert wm.w.shape == (6, 4)
        assert np.all(wm.w == 2.0)


class TestWeightedInner:
    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=20)
    def test_matches_two_loop_oracle(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(5, 7))
        b = rng.normal(size=(5, 7))
        w = rng.uniform(0, 2, size=(5, 7))
        assert weighted_inner(a, b, w) == pytest.approx(
            weighted_inner_oracle(a, b, w), rel=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            weighted_inner(np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((3, 2)))


class TestNorms:
    def test_norms_match_inner(self, layout8):
        wm = build_weight_mask(layout8)
        b = build_basis(layout8.m, layout8.n)
        norms = precompute_norms(b, wm)
        for k in (0, 3, 17, b.count - 1):
            want = weighted_inner(b.function(k), b.function(k), wm.w)
            assert norms[k] == pytest.approx(want, rel=1e-12)

    def test_excluded_mask(self):
        norms = np.array([1.0, 0.5, 1e-15, 0.0])
        np.testing.assert_array_equal(excluded_mask(norms),
                                      [False, False, True, True])

    def test_norm_positive_under_uniform(self):
        b = build_basis(8, 8)
        norms = precompute_norms(b, WeightMask.uniform(8, 8))
        assert np.all(norms > 0)
        assert not excluded_mask(norms).any()


class TestProjectionContextModes:
    """The FFT route must reproduce the dense-matrix oracle."""

    def test_numerators_match_oracle(self, ctx8, ctx8_matrix, rng):
        b = ctx8.basis
        r = rng.normal(size=(b.m, b.n))
        fast = ctx8.numerators(r)
        ref = ctx8_matrix.numerators(r)
        np.testing.assert_allclose(fast, ref, rtol=1e-9, atol=1e-9)
        w = ctx8.w_flat.reshape(b.m, b.n)
        for k in (0, 1, 40, 111):
            want = weighted_inner_oracle(r, b.function(k), w)
            assert ref[k] == pytest.approx(want, rel=1e-10, abs=1e-10)

    def test_gram_matches_oracle(self, ctx8, ctx8_matrix, rng):
        idx = np.sort(rng.choice(ctx8.basis.count, size=12, replace=False))
        g_fast = ctx8.gram(idx)
        g_ref = ctx8_matrix.gram(idx)
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
            g = ctx.gram(idx)
            np.testing.assert_array_equal(g, g.T)

    def test_norms_shared_between_modes(self, ctx8, ctx8_matrix):
        np.testing.assert_array_equal(ctx8.norms, ctx8_matrix.norms)

    def test_render(self, ctx8, rng):
        idx = np.array([0, 5, 9])
        coefs = rng.normal(size=3)
        want = sum(c * ctx8.basis.matrix[i] for c, i in zip(coefs, idx))
        np.testing.assert_allclose(ctx8.render(idx, coefs), want, atol=1e-12)

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
    return MatrixContext(build_basis.__wrapped__(48, 48),
                         build_weight_mask(layout16))


class TestFactoredRoute:
    """Closed-form norms and factored rendering against the dense oracle."""

    @pytest.mark.parametrize("area", [24, 48])
    def test_norms_match_dense_oracle(self, area, oracle48):
        if area == 48:
            basis, wm = oracle48.basis, oracle48.weights
        else:  # left-edge block: a region pattern with padding
            basis = build_basis.__wrapped__(24, 24)
            wm = build_weight_mask(
                build_layout((96, 96), BlockRef(0, 48, size=8)))
        dense = (basis.matrix * basis.matrix) @ wm.w.ravel()
        np.testing.assert_allclose(precompute_norms(basis, wm), dense,
                                   rtol=1e-12, atol=0)
        gram = ProjectionContext(basis, wm).gram(np.arange(64))
        np.testing.assert_allclose(np.diagonal(gram), dense[:64],
                                   rtol=1e-12, atol=0)

    @pytest.mark.parametrize("count", [1, 20, 80])
    def test_render_matches_dense_oracle(self, count, oracle48, ctx8,
                                         ctx8_matrix, rng):
        fast48 = ProjectionContext(oracle48.basis, oracle48.weights)
        for fast, oracle in ((ctx8, ctx8_matrix), (fast48, oracle48)):
            b = fast.basis
            conj = _self_conjugate(b)
            others = np.setdiff1d(np.arange(b.count), conj)
            idx = np.concatenate([conj[-1:], rng.choice(
                others, size=count - 1, replace=False)])
            if count > 1:
                assert b.is_sin[idx].any() and not b.is_sin[idx].all()
            coefs = rng.normal(size=count)
            np.testing.assert_allclose(fast.render(idx, coefs),
                                       oracle.render(idx, coefs),
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
        got = ctx.render(idx, coefs).reshape(96, 96)
        y, x = np.mgrid[0:96, 0:96] / 96.0
        want = np.zeros((96, 96))
        for i, c in zip(idx, coefs):
            phase = 2.0 * np.pi * (b.k_freq[i] * y + b.l_freq[i] * x)
            want += c * (np.sin(phase) if b.is_sin[i] else np.cos(phase))
        np.testing.assert_allclose(got, want, atol=1e-12)
        assert "matrix" not in b.__dict__
