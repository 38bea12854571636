"""Self-tests of the benchmark on tiny inputs: python3 -m pytest -q perfbench"""

import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import bench  # noqa: E402
from spans import TARGETS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NAMES = tuple(WORKLOADS)


def _originals():
    return [owner.__dict__[attr] for owner, attr, _ in TARGETS]


def test_wrappers_restore_every_attribute():
    before = _originals()
    tracer = Tracer()
    with pytest.raises(ZeroDivisionError):
        with tracer:
            assert all(a is not b for a, b in zip(_originals(), before))
            1 / 0
    assert all(a is b for a, b in zip(_originals(), before))


@pytest.mark.parametrize("name", NAMES)
def test_traced_and_untraced_outputs_identical(name):
    work = WORKLOADS[name](seed=5, tiny=True)
    untraced, traced = bench.Tally(), bench.Tally()
    bench.measure(work, 0.0, untraced)
    bench.traced_pass(work, traced, Tracer())
    assert untraced.failed == traced.failed == 0
    assert untraced.fingerprints == traced.fingerprints


@pytest.mark.parametrize("name", NAMES)
def test_spans_account_for_the_traced_wall_time(name):
    work = WORKLOADS[name](seed=5, tiny=True)
    tracer = Tracer()
    bench.traced_pass(work, bench.Tally(), tracer)
    for ps in tracer.phases.values():
        own = sum(s.self_time for s in ps.spans.values())
        other = bench.layer_figures(ps)["codec.other_s"]
        assert own + other == pytest.approx(ps.wall, rel=1e-9, abs=1e-12)
        assert other >= 0.0
    if name == "closed_qcif":
        spans = tracer.phases[""].spans
        transform, decode = spans["codec.transform"], spans["codec.decode"]
        assert transform.self_time < transform.busy - 0.5 * decode.busy
        assert tracer.phases["replay"].spans.get("motion.estimate") is None
    if name == "engine_mix":
        assert all(ps.spans.get("motion.estimate") is None
                   for ps in tracer.phases.values())


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("trace", (False, True))
def test_every_metric_is_emitted(name, trace):
    result = bench.run(name, 2, 0, trace, started=time.perf_counter(),
                       probes=0, tiny=True)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] > 0
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    listed = spec["per_layer" if trace else "end_to_end"]
    expected = {m["name"]: m["unit"] for m in listed}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert set(expected) == set(bench.PER_LAYER if trace else bench.END_TO_END)


def test_speedometer_samples_and_restores_the_signal_handler():
    import signal
    from speed import REFERENCE_S, WINDOW_S, Speedometer
    before = signal.getsignal(signal.SIGALRM)
    meter = Speedometer()
    with meter:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.35:
            pass
        t1 = time.perf_counter()
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(meter.kernels) >= 3
    assert meter.spent == pytest.approx(sum(s for _, s in meter.kernels))
    inside = [s for t, s in meter.kernels if t0 - WINDOW_S <= t <= t1 + WINDOW_S]
    assert meter.scale(t0, t1) == REFERENCE_S / statistics.median(inside)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "open_cif",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""


def test_cli_lists_every_workload():
    import run
    assert run.WORKLOADS == NAMES
