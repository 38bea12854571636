"""Measurement loop, traced run and report of the benchmark.

Untraced run (``trace=0``): the workload's units repeat until the measured
time is spent, every group of units getting an equal share.  A reference
kernel sampled while the units run (`speed.Speedometer`) turns each
repeat's wall time into reference seconds, and a unit's time is the median
of its repeats.  Set-up is timed the same way, in this process and in
`SETUP_PROBES` fresh processes, and the median is reported.

Traced run (``trace=1``): half the time goes to untraced repeats, which give
the workload's rates and the reference for the tracing overhead; then every
unit runs once more with the wrappers of `spans` installed.  Counts therefore
come from exactly one pass over the units and repeat between runs.  Span
times include the reference kernel's samples (about 3 % of the time).
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import subprocess
import time
import traceback
from collections import defaultdict
from contextlib import nullcontext

import numpy as np
import scipy

from spans import PhaseStats, SpanStat, Tracer
from speed import Speedometer
from workloads import CLASSES, ENGINES, WORKLOADS, setup

SETUP_PROBES = 4

END_TO_END = ("setup_s", "peak_rss_mb", "ops_per_ref_s", "cost_ratio")

# Per-layer metrics over the whole measured run.
WHOLE = (
    "motion.estimate.calls", "motion.estimate.busy_s",
    "motion.estimate.us_per_call", "motion.share",
    "motion.compensate.calls", "motion.compensate.busy_s",
    "frame.build_layout.busy_s", "codec.window.busy_s",
    "basis.numerators.calls", "basis.numerators.busy_s",
    "basis.numerators.us_per_call",
    "basis.gram.calls", "basis.gram.busy_s", "basis.gram.mean_size",
    "basis.render.calls", "basis.render.busy_s",
    "extrapolate.run.calls", "extrapolate.run.busy_s",
    "extrapolate.run.ms_per_call", "extrapolate.run.self_s",
    "extrapolate.select.busy_s",
    "extrapolate.iters_per_call", "extrapolate.converged_frac",
    "extrapolate.support_mean", "extrapolate.gram_retries",
    "extrapolate.energy_ratio",
    "codec.transform.calls", "codec.transform.busy_s",
    "codec.decode.calls", "codec.decode.busy_s", "codec.chroma.busy_s",
    "codec.other_s",
)
# Per-phase subsets, reported with the phase name as prefix.
REPLAY = (
    "motion.estimate.calls", "motion.compensate.calls",
    "motion.compensate.busy_s", "frame.build_layout.busy_s",
    "codec.window.busy_s", "basis.numerators.calls",
    "basis.numerators.busy_s", "basis.gram.busy_s", "basis.render.busy_s",
    "extrapolate.run.calls", "extrapolate.run.busy_s",
    "extrapolate.run.self_s", "codec.decode.calls", "codec.decode.busy_s",
    "codec.other_s",
)
ENGINE = (
    "basis.numerators.calls", "basis.numerators.busy_s",
    "basis.numerators.us_per_call",
    "basis.gram.calls", "basis.gram.busy_s", "basis.gram.mean_size",
    "basis.render.calls", "basis.render.busy_s",
    "extrapolate.run.calls", "extrapolate.run.busy_s",
    "extrapolate.run.ms_per_call", "extrapolate.run.self_s",
    "extrapolate.select.busy_s", "extrapolate.iters_per_call",
    "extrapolate.converged_frac", "extrapolate.support_mean",
    "extrapolate.gram_retries",
)
PHASES = (("replay", REPLAY),) + tuple((f"engine.{e}", ENGINE) for e in ENGINES)
# Set-up layers (counted over set-up and the measured run), workload
# figures (zero on workloads that do not produce them) and run bookkeeping.
OTHER = (
    "basis.build_basis_s", "basis.context.builds", "basis.context.build_s",
    "codec.switch.attempts", "codec.switch.refined_frac",
    *(f"codec.switch.refined_frac.{c}" for c in CLASSES),
    "open.frames_per_s", "open.psnr_gain_db",
    "closed.pframes_per_s", "closed.bd_rate_pct", "replay.pframes_per_s",
    *(f"engine.{e}.windows_per_s" for e in ENGINES),
    *(f"engine.{e}.energy_ratio" for e in ENGINES),
    "videoio.synth_s", "trace.overhead_pct",
)
PER_LAYER = WHOLE + tuple(f"{p}.{n}" for p, names in PHASES for n in names) \
    + OTHER


def unit_of(name: str) -> str:
    if name == "ops_per_ref_s":
        return "1/s"
    for suffix, unit in (("peak_rss_mb", "MB"), ("frames_per_s", "frames/s"),
                         ("windows_per_s", "windows/s"), ("_pct", "%"),
                         ("_db", "dB"), ("us_per_call", "us"),
                         ("ms_per_call", "ms"), ("_s", "s")):
        if name.endswith(suffix):
            return unit
    if name.endswith(("calls", "builds", "attempts", "gram_retries",
                      "mean_size", "iters_per_call", "support_mean")):
        return "count"
    return "ratio"


# ---------------------------------------------------------------------------
# Running units
# ---------------------------------------------------------------------------

class Tally:
    """Operation counts, timings and the first output of every unit."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.speed = Speedometer()
        self.timed = []   # (key, start, end, seconds) of every repeat
        self.first = {}
        self.fingerprints = {}

    def run(self, unit, tracer: Tracer | None = None) -> float:
        """Run one unit, timed, then check its output; returns its wall
        seconds.  The recorded time leaves out the speedometer's samples,
        so call it with ``speed`` entered."""
        with tracer if tracer is not None else nullcontext():
            sampled = self.speed.spent
            t0 = time.perf_counter()
            try:
                out = unit.call()
            except Exception:
                traceback.print_exc()
                out = None
            t1 = time.perf_counter()
        seconds = t1 - t0 - (self.speed.spent - sampled)
        self.attempted += unit.ops
        if out is None:
            self.failed += unit.ops
            return t1 - t0
        failed, fingerprint = unit.verify(out)
        if self.fingerprints.setdefault(unit.key, fingerprint) != fingerprint:
            failed = unit.ops   # a repeat did not reproduce the first output
        self.failed += failed
        self.first.setdefault(unit.key, out)
        self.timed.append((unit.key, t0, t1, seconds))
        return t1 - t0

    def times(self, start: int = 0) -> dict:
        """Reference seconds of the repeats from the ``start``-th on, by
        unit key."""
        out = defaultdict(list)
        for key, t0, t1, seconds in self.timed[start:]:
            out[key].append(seconds * self.speed.scale(t0, t1))
        return out


def measure(workload, budget: float, tally: Tally) -> None:
    """Repeat the units until ``budget`` seconds have passed and every unit
    has run; the next unit comes from the group with the least time so far,
    and units of one group run in their listed order."""
    groups = defaultdict(list)
    for unit in workload.units:
        groups[unit.group].append(unit)
    spent = dict.fromkeys(groups, 0.0)
    turns = dict.fromkeys(groups, 0)
    pending = {unit.key for unit in workload.units}
    start = time.perf_counter()
    with tally.speed:
        while pending or time.perf_counter() - start < budget:
            group = min(spent, key=spent.get)
            units = groups[group]
            unit = units[turns[group] % len(units)]
            turns[group] += 1
            spent[group] += tally.run(unit)
            pending.discard(unit.key)


def traced_pass(workload, tally: Tally, tracer: Tracer) -> float:
    """Run every unit once under the tracer; returns the traced time of the
    pass in reference seconds."""
    start = len(tally.timed)
    with tally.speed:
        for unit in workload.units:
            tracer.phase = unit.phase
            tracer.phases[unit.phase].wall += tally.run(unit, tracer)
    return sum(t for times in tally.times(start).values() for t in times)


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------

def merge(phases) -> PhaseStats:
    out = PhaseStats()
    for ps in phases:
        for name, s in ps.spans.items():
            t = out.spans[name]
            t.calls += s.calls
            t.busy += s.busy
            t.self_time += s.self_time
        for key, value in ps.counts.items():
            out.counts[key] += value
        out.top_level += ps.top_level
        out.wall += ps.wall
    return out


def _per(total: float, count: float) -> float:
    return total / count if count else 0.0


def layer_figures(ps: PhaseStats) -> dict:
    """Every span-derived per-layer figure of one phase (or a merge)."""
    def span(name):
        return ps.spans.get(name) or SpanStat()

    f = {}
    for name in ("motion.estimate", "motion.compensate", "basis.numerators",
                 "basis.gram", "basis.render", "extrapolate.run",
                 "codec.transform", "codec.decode"):
        f[f"{name}.calls"] = span(name).calls
    for name in ("motion.estimate", "motion.compensate", "frame.build_layout",
                 "codec.window", "basis.numerators", "basis.gram",
                 "basis.render", "extrapolate.run", "extrapolate.select",
                 "codec.transform", "codec.decode", "codec.chroma"):
        f[f"{name}.busy_s"] = span(name).busy
    est, num, run = (span(n) for n in
                     ("motion.estimate", "basis.numerators", "extrapolate.run"))
    c = ps.counts
    f.update({
        "motion.estimate.us_per_call": _per(1e6 * est.busy, est.calls),
        "motion.share": _per(est.busy, ps.wall),
        "basis.numerators.us_per_call": _per(1e6 * num.busy, num.calls),
        "basis.gram.mean_size": _per(c["gram.size"], span("basis.gram").calls),
        "extrapolate.run.ms_per_call": _per(1e3 * run.busy, run.calls),
        "extrapolate.run.self_s": run.self_time,
        "extrapolate.iters_per_call": _per(c["run.iterations"], run.calls),
        "extrapolate.converged_frac": _per(c["run.converged"], run.calls),
        "extrapolate.support_mean": _per(c["run.support"], run.calls),
        "extrapolate.gram_retries": c["run.gram_retries"],
        "extrapolate.energy_ratio": _per(c["run.energy_ratio"], run.calls),
        "codec.other_s": ps.wall - ps.top_level,
    })
    return f


def per_layer(tracer: Tracer, figures: dict, synth_s: float,
              overhead_pct: float) -> dict:
    measured = [ps for phase, ps in tracer.phases.items() if phase != "setup"]
    whole = layer_figures(merge(measured))
    out = {name: whole[name] for name in WHOLE}
    for phase, names in PHASES:
        f = layer_figures(tracer.phases.get(phase) or PhaseStats())
        out.update({f"{phase}.{name}": f[name] for name in names})
    everything = merge(tracer.phases.values())
    builds = everything.spans.get("basis.context") or SpanStat()
    out["basis.build_basis_s"] = (everything.spans.get("basis.build_basis")
                                  or SpanStat()).busy
    out["basis.context.builds"] = builds.calls
    out["basis.context.build_s"] = builds.busy
    for name in OTHER:
        out.setdefault(name, figures.get(name, 0.0))
    out["videoio.synth_s"] = synth_s
    out["trace.overhead_pct"] = overhead_pct
    return out


def environment() -> dict:
    threads = None
    try:
        with open("/proc/self/status") as fh:
            threads = next(int(line.split()[1]) for line in fh
                           if line.startswith("Threads:"))
    except (OSError, StopIteration):
        pass
    return {"pins": {k: os.environ.get(k) for k in sorted(os.environ)
                     if k.endswith(("_NUM_THREADS", "_MAXIMUM_THREADS"))},
            "process_threads": threads, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__}


def timed_setup(workload: str, started: float) -> float:
    """Set up; returns the time since ``started`` in reference seconds, from
    the speed sampled while the workload warms up."""
    meter = Speedometer()
    with meter:
        setup(workload)
        end = time.perf_counter()
        seconds = end - started - meter.spent
    return seconds * meter.scale(started, end)


def _probe_setup(cmd: list, workload: str) -> float:
    done = subprocess.run(cmd + ["--setup-probe", "--workload", workload],
                          capture_output=True, text=True, timeout=120,
                          check=True)
    return float(done.stdout.strip().splitlines()[-1])


def run(workload: str, seed: int, seconds: float, trace: bool, *,
        started: float, probe_cmd: list | None = None,
        probes: int = SETUP_PROBES, tiny: bool = False) -> dict:
    """Set up, generate the inputs, measure, and return the result object."""
    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.phase = "setup"
    with tracer if tracer is not None else nullcontext():
        setups = [timed_setup(workload, started)]
    if not trace:
        setups += [_probe_setup(probe_cmd, workload) for _ in range(probes)]

    t0 = time.perf_counter()
    work = WORKLOADS[workload](seed, tiny=tiny)
    synth_s = time.perf_counter() - t0

    tally = Tally()
    measure(work, seconds / 2 if trace else seconds, tally)
    times = tally.times()
    figures = work.figures(tally.first, times)
    if trace:
        reference = sum(statistics.median(times[u.key]) for u in work.units)
        traced = traced_pass(work, tally, tracer)
        metrics = per_layer(tracer, figures, synth_s,
                            100.0 * (traced - reference) / reference)
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ops_per_ref_s": figures["ops_per_ref_s"],
            "cost_ratio": figures["cost_ratio"],
        }
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {name: {"value": float(value), "unit": unit_of(name)}
                        for name, value in metrics.items()}}


def main(workload: str, seed: int, seconds: int, trace: int, *,
         started: float, probe_cmd: list) -> int:
    result = run(workload, seed, seconds, bool(trace), started=started,
                 probe_cmd=probe_cmd)
    print("env " + json.dumps(environment(), sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1
