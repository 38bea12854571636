"""End-to-end acceptance checks for the refinement library.

Each test prints one PASS/FAIL line (visible even under captured output) so a
full run doubles as a checklist of the core behavioural guarantees: solver
correctness, algorithm-family relationships, monotone convergence, recovery,
selection-order pathology, prediction gain, BD arithmetic, relative speed,
decoder consistency and bit-reproducibility.
"""

import statistics
import time

import numpy as np
import pytest

from mcrefine import cli
from mcrefine.bd import bd_metrics
from mcrefine.basis import (ProjectionContext, build_basis, excluded_mask,
                            projection_context)
from mcrefine.codec import EncoderConfig, encode_pass, predict_frame, \
    replay_trace
from mcrefine.extrapolate import ExtrapolationParams, run, solve_subspace
from mcrefine.frame import BlockRef, build_layout, psnr
from mcrefine.videoio import synth_sequence

AREA = 48  # 3x3 macroblocks at the default block size


def _emit(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"CRITERION {num:2d} {'PASS' if ok else 'FAIL'}  {detail}",
              flush=True)


def gauss_solve(gram, rhs):
    """Dense Gaussian elimination with partial pivoting, hand-rolled so it
    shares nothing with the production solver."""
    a = [[float(v) for v in row] for row in gram]
    b = [float(v) for v in rhs]
    size = len(b)
    for i in range(size):
        piv = max(range(i, size), key=lambda r: abs(a[r][i]))
        if a[piv][i] == 0.0:
            raise ZeroDivisionError("singular system")
        a[i], a[piv] = a[piv], a[i]
        b[i], b[piv] = b[piv], b[i]
        for r in range(i + 1, size):
            factor = a[r][i] / a[i][i]
            for c in range(i, size):
                a[r][c] -= factor * a[i][c]
            b[r] -= factor * b[i]
    x = [0.0] * size
    for i in range(size - 1, -1, -1):
        acc = sum(a[i][c] * x[c] for c in range(i + 1, size))
        x[i] = (b[i] - acc) / a[i][i]
    return np.array(x)


@pytest.fixture(scope="module")
def interior_ctx():
    layout = build_layout((160, 160), BlockRef(64, 64))
    return layout, projection_context(layout)


def working_windows(count, seed):
    """Noisy single-plaid windows: textured content with a random spectrum."""
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:AREA, 0:AREA].astype(np.float64)
    out = []
    for _ in range(count):
        a, b = rng.integers(0, 7, size=2)
        amp = rng.uniform(10.0, 40.0)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        sigma = rng.uniform(2.0, 20.0)
        w = 128.0 + amp * np.cos(2.0 * np.pi * (a * yy + b * xx) / AREA + phase)
        out.append(w + rng.normal(0.0, sigma, size=(AREA, AREA)))
    return out


def test_criterion_01(capsys, interior_ctx):
    """Subspace solver agrees with an independent dense-elimination solver."""
    _, ctx_int = interior_ctx
    edge_top = build_layout((160, 160), BlockRef(64, 0))     # left only
    edge_left = build_layout((160, 160), BlockRef(0, 64))    # top neighbours
    contexts = [ctx_int, projection_context(edge_top),
                projection_context(edge_left)]
    rng = np.random.default_rng(42)
    t0 = time.perf_counter()
    worst = 0.0
    for trial in range(500):
        ctx = contexts[trial % len(contexts)]
        pool = np.flatnonzero(~excluded_mask(ctx.norms))
        k = int(rng.integers(1, 21))
        support = np.sort(rng.choice(pool, size=k, replace=False))
        residual = rng.normal(0.0, 30.0, size=(AREA, AREA))
        solution, used = solve_subspace(residual, support, ctx)
        assert np.array_equal(used, support), "solver shed a regular system"
        num = ctx.numerators(residual.ravel())
        expect = gauss_solve(ctx.gram(support, [k]).reshape(k, k),
                             num[support]) \
            if k > 1 else np.array([num[support[0]]
                                    / ctx.norms[support[0]]])
        scale = max(np.abs(expect).max(), 1e-30)
        worst = max(worst, np.abs(solution - expect).max() / scale)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 60.0
    _emit(capsys, 1, ok, f"max rel deviation {worst:.2e} over 500 systems "
                         f"(<=1e-8) in {elapsed:.1f}s (<60s)")
    assert worst <= 1e-8
    assert elapsed < 60.0


def test_criterion_02(capsys, interior_ctx):
    """Multi-selection engine capped at one function per iteration retraces
    the single-selection engine."""
    layout, ctx = interior_ctx
    msa = ExtrapolationParams(algorithm="msa", iterations=50, n_bf=1)
    fsa = ExtrapolationParams(algorithm="fsa", iterations=50)
    t0 = time.perf_counter()
    worst = 0.0
    for window in working_windows(100, seed=7):
        a = run(window, layout, msa, context=ctx, record=True)
        b = run(window, layout, fsa, context=ctx, record=True)
        sel_a, sel_b = a.diagnostics.selections, b.diagnostics.selections
        assert len(sel_a) == len(sel_b)
        for (ia, ca, ea), (ib, cb, eb) in zip(sel_a, sel_b):
            assert np.array_equal(ia, ib), "selection order diverged"
            worst = max(worst, np.abs(ca - cb).max(), abs(ea - eb))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 120.0
    _emit(capsys, 2, ok, f"100 blocks x 50 iterations, max trace deviation "
                         f"{worst:.1e} (<=1e-9) in {elapsed:.1f}s (<120s)")
    assert worst <= 1e-9
    assert elapsed < 120.0


def test_criterion_03(capsys, interior_ctx):
    """Weighted error never increases, for any engine at its defaults."""
    layout, ctx = interior_ctx
    windows = working_windows(100, seed=11)
    violations = 0
    checked = 0
    for algorithm in ("fsa", "rba", "msa"):
        params = ExtrapolationParams.defaults(algorithm)
        for window in windows:
            result = run(window, layout, params, context=ctx, record=True)
            prev = result.diagnostics.energy0
            slack = 1e-9 * result.diagnostics.energy0
            for _, _, energy in result.diagnostics.selections:
                checked += 1
                if energy > prev + slack:
                    violations += 1
                prev = energy
    ok = violations == 0
    _emit(capsys, 3, ok, f"{checked} iteration steps across 3 engines x 100 "
                         f"blocks, {violations} energy increases")
    assert violations == 0


def test_criterion_04(capsys):
    """Signals spanned by a few basis functions are recovered exactly under
    uniform weighting with undamped estimation."""
    basis = build_basis(AREA, AREA)
    ctx = ProjectionContext(basis, np.ones((AREA, AREA)))
    layout = build_layout((160, 160), BlockRef(64, 64))
    params = ExtrapolationParams(algorithm="msa", iterations=5, gamma=1.0)
    rng = np.random.default_rng(23)
    worst = 0.0
    for _ in range(50):
        k = int(rng.integers(1, 6))
        support = rng.choice(basis.count, size=k, replace=False)
        coefs = rng.uniform(0.5, 2.0, size=k) * rng.choice([-1.0, 1.0], size=k)
        signal = ctx.render(support, coefs, [k]).reshape(AREA, AREA)
        result = run(signal, layout, params, context=ctx, record=True)
        truth = np.zeros(basis.count)
        truth[support] = coefs
        worst = max(worst, np.abs(result.model.coefficients - truth).max())
    ok = worst <= 1e-6
    _emit(capsys, 4, ok, f"50 sparse signals (<=5 functions), max coefficient "
                         f"error {worst:.2e} (<=1e-6) within 5 iterations")
    assert worst <= 1e-6


def test_criterion_05(capsys, interior_ctx):
    """Constructed three-component instance: joint re-projection onto an
    incomplete support overshoots both selected coefficients and ends up with
    a larger coefficient error than plain sequential selection."""
    layout, ctx = interior_ctx
    support = np.array([48, 0, 144])       # two collinear frequencies + DC
    coefs = np.array([2.0, -0.5, 0.2])
    signal = ctx.render(support, coefs, [3]).reshape(AREA, AREA)
    truth = np.zeros(ctx.basis.count)
    truth[support] = coefs

    rba = run(signal, layout,
              ExtrapolationParams(algorithm="rba", iterations=2, n_bf=1),
              context=ctx, record=True)
    first_pick = rba.diagnostics.selections[0][0]
    assert np.array_equal(first_pick, [48]), "unexpected first selection"
    assert np.array_equal(rba.model.support, [48, 144]), \
        "unexpected final support"
    c1_hat = rba.model.coefficients[48]
    c3_hat = rba.model.coefficients[144]

    fsa = run(signal, layout,
              ExtrapolationParams(algorithm="fsa", iterations=2, gamma=1.0),
              context=ctx, record=True)
    err_fsa = float(np.linalg.norm(fsa.model.coefficients - truth))
    err_rba = float(np.linalg.norm(rba.model.coefficients - truth))

    ok = c1_hat > coefs[0] and c3_hat > coefs[2] and err_fsa < err_rba
    _emit(capsys, 5, ok,
          f"re-projection overshoots: c1 {c1_hat:.4f}>2.0, c3 {c3_hat:.4f}"
          f">0.2; coefficient error {err_fsa:.4f} (sequential) < "
          f"{err_rba:.4f} (re-projection)")
    assert c1_hat > coefs[0]
    assert c3_hat > coefs[2]
    assert err_fsa < err_rba


def test_criterion_06(capsys):
    """Refinement lifts open-loop prediction quality on noisy translating
    texture, and the per-block switch never makes any block worse."""
    frames = synth_sequence("translate", width=352, height=288, frames=30,
                            seed=0, velocity=(0.8, 0.3), noise_sigma=8.0,
                            texture="waves")
    config = EncoderConfig(refinement="msa")
    pred_db, mc_db = [], []
    degraded = 0
    refined_blocks = 0
    for t in range(1, len(frames)):
        fp = predict_frame(frames[t].y, frames[t - 1].y, config)
        pred_db.append(psnr(frames[t].y.data, fp.predictor))
        mc_db.append(psnr(frames[t].y.data, fp.mc_predictor))
        for d in fp.decisions:
            if d.refined:
                refined_blocks += 1
                if d.refined_mse > d.mc_mse:
                    degraded += 1
    gain = float(np.mean(pred_db) - np.mean(mc_db))
    ok = gain >= 0.1 and degraded == 0 and refined_blocks > 0
    _emit(capsys, 6, ok,
          f"CIF 30 frames: refined {np.mean(pred_db):.3f} dB vs MC "
          f"{np.mean(mc_db):.3f} dB (gain {gain:+.3f} >= 0.1), "
          f"{refined_blocks} refined blocks, {degraded} degraded")
    assert gain >= 0.1
    assert degraded == 0
    assert refined_blocks > 0


def test_criterion_07(capsys):
    """Bjontegaard calculator sanity on synthetic curves."""
    rates = np.array([100.0, 200.0, 400.0, 800.0])
    psnrs = np.array([30.0, 33.0, 36.0, 39.0])
    same = bd_metrics((rates, psnrs), (rates, psnrs))
    lifted = bd_metrics((rates, psnrs), (rates, psnrs + 1.0))
    cheaper = bd_metrics((rates, psnrs), (rates * 0.9, psnrs))
    ok = (abs(same.bd_rate_percent) < 1e-9 and abs(same.bd_psnr_db) < 1e-9
          and abs(lifted.bd_psnr_db - 1.0) <= 0.01
          and abs(cheaper.bd_rate_percent - (-10.0)) <= 0.2)
    _emit(capsys, 7, ok,
          f"identical -> ({same.bd_rate_percent:.2e}%, {same.bd_psnr_db:.2e} "
          f"dB); +1 dB -> {lifted.bd_psnr_db:+.4f} dB; x0.9 rate -> "
          f"{cheaper.bd_rate_percent:+.3f}%")
    assert abs(same.bd_rate_percent) < 1e-9
    assert abs(same.bd_psnr_db) < 1e-9
    assert lifted.bd_psnr_db == pytest.approx(1.0, abs=0.01)
    assert cheaper.bd_rate_percent == pytest.approx(-10.0, abs=0.2)


def test_criterion_08(capsys, interior_ctx):
    """Per-iteration subspace selection is far cheaper than single selection
    and in the same league as cumulative re-projection."""
    layout, ctx = interior_ctx
    windows = working_windows(100, seed=31)

    def seconds(algorithm):
        params = ExtrapolationParams.defaults(algorithm)
        t0 = time.perf_counter()
        for window in windows:
            run(window, layout, params, context=ctx)
        return time.perf_counter() - t0

    # rba and msa take a few tenths of a second each, so one slow spell of
    # a shared machine could move their ratio across a bound: they
    # alternate over five repeats and are compared by their medians.  fsa,
    # about ten times slower than msa, is timed once.
    repeats = {"rba": [], "msa": []}
    for _ in range(5):
        for algorithm, spent in repeats.items():
            spent.append(seconds(algorithm))
    times = {algorithm: statistics.median(spent)
             for algorithm, spent in repeats.items()}
    times["fsa"] = seconds("fsa")
    fsa_ratio = times["fsa"] / times["msa"]
    rba_ratio = times["rba"] / times["msa"]
    ok = fsa_ratio >= 5.0 and 1.0 / 3.0 <= rba_ratio <= 3.0
    _emit(capsys, 8, ok,
          f"100 blocks: fsa {times['fsa']:.2f}s, rba {times['rba']:.2f}s, "
          f"msa {times['msa']:.2f}s; fsa/msa {fsa_ratio:.1f}x (>=5), rba/msa "
          f"{rba_ratio:.2f}x (within 3x)")
    assert fsa_ratio >= 5.0
    assert 1.0 / 3.0 <= rba_ratio <= 3.0


def test_criterion_09(capsys):
    """A decoder replaying the closed loop from coded data alone rebuilds
    every predictor bit-exactly."""
    frames = synth_sequence("translate", width=96, height=96, frames=30,
                            seed=0, velocity=(0.8, 0.3), noise_sigma=8.0,
                            texture="waves")
    config = EncoderConfig(refinement="msa", qps=(28,))
    encoder_predictors = []
    _, _, trace = encode_pass(frames, config, qstep=16.0, qp=28,
                              collect_trace=True,
                              predictor_sink=encoder_predictors)
    decoded_predictors, _ = replay_trace(trace, config)
    assert len(decoded_predictors) == len(encoder_predictors) == 29
    mismatched = 0
    for enc, dec in zip(encoder_predictors, decoded_predictors):
        if not np.array_equal(enc, dec):
            mismatched += 1
    refined = sum(bt.refined for blocks in trace.frames for bt in blocks)
    ok = mismatched == 0
    _emit(capsys, 9, ok,
          f"30-frame closed loop (96x96, {refined} refined blocks): "
          f"{mismatched} of 29 predictor rasters differ after replay")
    assert mismatched == 0


def test_criterion_10(capsys, tmp_path):
    """Identical config and seed give byte-identical CSV outputs."""
    seq = tmp_path / "in.yuv"
    assert cli.main(["synth", "--width", "64", "--height", "64", "--count",
                     "6", "--noise-sigma", "8", "--seed", "0",
                     "--out", str(seq)]) == 0
    base = ["--input", str(seq), "--width", "64", "--height", "64",
            "--search-range", "8", "--msa-iterations", "6"]
    outs = []
    for tag in ("a", "b"):
        rd = tmp_path / f"rd_{tag}.csv"
        pr = tmp_path / f"pred_{tag}.csv"
        assert cli.main(["encode", *base, "--qps", "22,28,34,40",
                         "--algorithms", "none,msa",
                         "--out-csv", str(rd)]) == 0
        assert cli.main(["predict", *base, "--algorithms", "none,msa",
                         "--out-csv", str(pr)]) == 0
        outs.append((rd.read_bytes(), pr.read_bytes()))
    rd_same = outs[0][0] == outs[1][0]
    pr_same = outs[0][1] == outs[1][1]
    ok = rd_same and pr_same
    _emit(capsys, 10, ok,
          f"repeat runs byte-identical: rate-distortion CSV {rd_same}, "
          f"prediction CSV {pr_same} "
          f"({len(outs[0][0])} and {len(outs[0][1])} bytes)")
    assert rd_same
    assert pr_same
