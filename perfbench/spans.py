"""Span tracer that wraps mcrefine functions at their module attributes.

No package file is edited: `Tracer.install` replaces the attributes listed
in TARGETS with timing wrappers and `Tracer.uninstall` puts the original
objects back.  The package looks these names up at call time (codec calls
`estimate`, `extrapolate.run`, `ctx.numerators`, ...), so every call made
while the wrappers are installed is recorded.

Spans nest through a stack: a span's self time is its duration minus the
time of the spans it encloses, and time not covered by any top-level span
is the caller's own loop overhead.  Statistics are kept per phase (the
workload names its phases), in memory, and read out when the run ends.
"""

from __future__ import annotations

import time
from collections import defaultdict

from mcrefine import basis, codec, extrapolate

# (owner, attribute, layer name).  Class attributes are wrapped with plain
# functions, which bind to the instance like the originals.
TARGETS = (
    (codec, "estimate", "motion.estimate"),
    (codec, "compensate", "motion.compensate"),
    (codec, "build_layout", "frame.build_layout"),
    (codec, "assemble_window", "codec.window"),
    (codec, "reconstruct_block", "codec.transform"),
    (codec, "decode_block", "codec.decode"),
    (codec, "_mc_chroma", "codec.chroma"),
    (extrapolate, "run", "extrapolate.run"),
    (extrapolate, "select_candidates", "extrapolate.select"),
    (basis, "build_basis", "basis.build_basis"),
    (basis.ProjectionContext, "__init__", "basis.context"),
    (basis.ProjectionContext, "numerators", "basis.numerators"),
    (basis.ProjectionContext, "gram", "basis.gram"),
    (basis.ProjectionContext, "render", "basis.render"),
)


class SpanStat:
    __slots__ = ("calls", "busy", "self_time")

    def __init__(self):
        self.calls = 0
        self.busy = 0.0
        self.self_time = 0.0


class PhaseStats:
    """Everything recorded while one phase was current."""

    def __init__(self):
        self.spans = defaultdict(SpanStat)
        self.top_level = 0.0   # summed duration of spans with no parent
        self.wall = 0.0        # summed wall time of the traced work units
        self.counts = defaultdict(float)  # values read from call results


def energy_ratio(diagnostics) -> float:
    """Final over initial weighted error of one engine run."""
    d = diagnostics
    return d.energy / d.energy0 if d.energy0 > 0.0 else 0.0


def _observe(tracer: "Tracer", name: str, result) -> None:
    """Record what a call returned, where the layer reports it."""
    if name == "basis.gram":
        tracer.count("gram.size", len(result))
    elif name == "extrapolate.run":
        d = result.diagnostics
        tracer.count("run.iterations", d.iterations)
        tracer.count("run.converged", d.converged)
        tracer.count("run.support", d.coefficient_count)
        tracer.count("run.gram_retries", d.gram_retries)
        tracer.count("run.energy_ratio", energy_ratio(d))


class Tracer:
    def __init__(self):
        self.phases = defaultdict(PhaseStats)
        self.phase = ""
        self._stack = []        # [start, child time] per open span
        self._originals = []    # (owner, attribute, original object)

    def count(self, key: str, value) -> None:
        self.phases[self.phase].counts[key] += value

    def _wrap(self, name: str, fn):
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - frame[0]
                stack.pop()
                stats = self.phases[self.phase]
                span = stats.spans[name]
                span.calls += 1
                span.busy += duration
                span.self_time += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                else:
                    stats.top_level += duration
            _observe(self, name, result)
            return result

        return traced

    def install(self) -> None:
        if self._originals:
            raise RuntimeError("tracer already installed")
        for owner, attr, name in TARGETS:
            original = owner.__dict__[attr]
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False
