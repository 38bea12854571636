#!/usr/bin/env python3
"""Interleaved in-process A/B of the refinement engine of two source trees.

    python3 scripts/engine_ab.py TREE_A TREE_B [ROUNDS]

TREE_A and TREE_B are checkouts of this repository.  Each tree's
``src/mcrefine`` is imported under its own name (``mcrefine_a``,
``mcrefine_b``), so both run side by side in one process and see the same
machine at the same moments.  Every round times both trees, alternating
which goes first, and takes each timing as the best (least) of 3 repeats
in a row, so that one slow spell on a shared machine does not set a
round's figure.  It prints:

- per engine (fsa, rba, msa) and batch size B (1, 4, 16), each tree's
  median milliseconds per window and the time ratio B/A, as the median and
  quartiles over the rounds, on the working areas of perfbench's
  engine_mix (QCIF translate/field, sigma 8, seed 0: every block with a
  decoded neighbour, in raster order, cut into batches of B);
- at B = 1, each tree's microseconds per iteration per engine: its
  median milliseconds per window over the mean of its runs'
  ``diagnostics.iterations``, so a per-step figure comes with every A/B;
- at B = 1, the geometric mean of the three engines' B/A ratios per round,
  as the median and quartiles over the rounds: engine_mix runs every
  window alone and its ``ops_per_ref_s`` is the geometric mean of the
  engines' windows per second, so it moves by the inverse of this figure;
- criterion 8's fsa/msa and rba/msa (``tests/test_acceptance.py``: 100
  noisy plaid windows on an interior block, each engine's time the best
  of 3 repeats) for each tree, per round, then as the median and
  quartiles over the rounds;
- whether every engine output hash of B equals A's: blocks, coefficients,
  renderings and diagnostics with recorded selections, for every engine
  and batch size above;
- the same hashes for shed-path runs, which reach the engine's
  singular-Gram and convergence bookkeeping: every third window is black
  (all zero, so it converges in its first iteration beside live
  batch-mates), and each batch's own `batch_context` is wrapped in
  `RefusingContext`, which makes singular every Gram that holds one of a window's strongest
  functions, so the engine sheds picks, retries and (rba) gives up;
- per tree and engine, the total singular-Gram retries and early
  convergences of the runs hashed at each batch size, so that a reader
  sees whether the hashes reached the engine's shed path at all;
- per round, each tree's process CPU time over wall time, summed over
  every timed repeat of the round (``time.process_time`` beside
  ``time.perf_counter``), flagging a round where either ratio is below
  `LOADED`, and at the end the number of flagged rounds.  A ratio below 1
  shows time-slicing on the process's own core: another process ran there
  while a timing's wall clock went on.  It does not show contention from
  the other core (shared caches and memory bandwidth), which slows the
  process without taking its core away.

BLAS is pinned to one thread; ROUNDS defaults to 7.
"""

import os

for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

import hashlib  # noqa: E402
import importlib.util  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ENGINES = ("fsa", "rba", "msa")
BATCHES = (1, 4, 16)
BLOCK = 16
STRONGEST = 3   # functions per window whose Gram systems are refused
REPEATS = 3     # timings per round of each tree, engine and B; the least counts
LOADED = 0.95   # a round's CPU/wall ratio below this flags outside load


def load_tree(root: Path, name: str):
    """Import ``root/src/mcrefine`` as the package ``name``."""
    pkg = root / "src" / "mcrefine"
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    if spec is None:
        raise SystemExit(f"engine_ab.py: no package source at {pkg}")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def mix_windows(mc):
    """engine_mix's working areas at seed 0: (windows, layouts)."""
    frames = mc.synth_sequence("translate", width=176, height=144, frames=2,
                               seed=0, velocity=(0.8, 0.3), noise_sigma=8.0,
                               texture="field")
    prev, cur = (f.y for f in frames)
    windows, layouts = [], []
    for by in range(144 // BLOCK):
        for bx in range(176 // BLOCK):
            block = mc.BlockRef(bx * BLOCK, by * BLOCK, BLOCK)
            layout = mc.build_layout(cur, block)
            if layout.r_empty:
                continue
            mv, _ = mc.estimate(cur, prev, block)
            windows.append(mc.codec.assemble_window(
                layout, cur.data, mc.compensate(prev, block, mv)))
            layouts.append(layout)
    return np.stack(windows), layouts


def criterion8_windows(count=100, seed=31, area=48):
    """The noisy single-plaid windows of criterion 8."""
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:area, 0:area].astype(np.float64)
    out = []
    for _ in range(count):
        a, b = rng.integers(0, 7, size=2)
        amp = rng.uniform(10.0, 40.0)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        sigma = rng.uniform(2.0, 20.0)
        w = 128.0 + amp * np.cos(2.0 * np.pi * (a * yy + b * xx) / area
                                 + phase)
        out.append(w + rng.normal(0.0, sigma, size=(area, area)))
    return out


class RefusingContext:
    """A projection context whose Gram matrices are singular wherever a
    member's system holds one of that member's ``strong`` functions (one
    row of function indices per member): their rows and columns are
    zeroed, so the Cholesky factorisation fails."""

    def __init__(self, ctx, strong: np.ndarray):
        self._ctx, self._strong = ctx, strong

    def __getattr__(self, name):
        return getattr(self._ctx, name)

    def take(self, rows):
        return RefusingContext(self._ctx.take(rows), self._strong[rows])

    def gram(self, indices, sizes):
        g = self._ctx.gram(indices, sizes)
        start = corner = 0
        for strong, k in zip(self._strong, sizes):
            keep = ~np.isin(indices[start:start + k], strong)
            if not keep.all():
                g[corner:corner + k * k] *= np.outer(keep, keep).ravel()
            start, corner = start + k, corner + k * k
        return g


class Tree:
    def __init__(self, root: Path, name: str):
        self.mc = load_tree(root, name)
        self.windows, self.layouts = mix_windows(self.mc)
        interior = self.mc.build_layout((160, 160), self.mc.BlockRef(64, 64))
        self.interior = interior, self.mc.projection_context(interior)
        self.c8 = criterion8_windows()
        self.shed_windows = self.windows.copy()
        self.shed_windows[::3] = 0.0
        self.strong = np.stack([self.strongest(w, layout) for w, layout
                                in zip(self.shed_windows, self.layouts)])

    def strongest(self, window, layout) -> np.ndarray:
        """The functions of the largest first decrements of ``window``."""
        ctx = self.mc.projection_context(layout)
        decr = self.mc.extrapolate.decrement_energies(
            ctx.numerators(window.reshape(-1)), ctx)
        return np.argsort(-decr, kind="stable")[:STRONGEST]

    def refine(self, engine: str, batch: int, record: bool = False,
               shed: bool = False) -> list:
        """The engine's runs on the windows in batches of ``batch``; with
        ``shed``, on the shed-path windows through `RefusingContext`."""
        params = self.mc.ExtrapolationParams.defaults(engine)
        windows = self.shed_windows if shed else self.windows
        out = []
        for lo in range(0, len(windows), batch):
            part = slice(lo, lo + batch)
            context = None
            if shed:
                context = RefusingContext(self.mc.basis.batch_context(
                    self.layouts[part]), self.strong[part])
            out += self.mc.run_batch(windows[part], self.layouts[part],
                                     params, context=context, record=record)
        return out

    def criterion8(self, engine: str) -> None:
        params = self.mc.ExtrapolationParams.defaults(engine)
        layout, ctx = self.interior
        for window in self.c8:
            self.mc.run(window, layout, params, context=ctx)

    def digest(self, engine: str, batch: int,
               shed: bool = False) -> tuple[str, int, int]:
        """Hash of every output of the runs, their total singular-Gram
        retries and how many of them converged early."""
        h = hashlib.sha256()
        retries = converged = 0
        for r in self.refine(engine, batch, record=True, shed=shed):
            d = r.diagnostics
            for part in (r.block, r.model.coefficients, r.model.rendering):
                h.update(np.ascontiguousarray(part).tobytes())
            h.update(repr((d.iterations, d.converged, d.energy0, d.energy,
                           d.coefficient_count, d.gram_retries)).encode())
            retries += d.gram_retries
            converged += d.converged
            for used, values, energy in d.selections:
                h.update(used.astype(np.int64).tobytes())
                h.update(values.tobytes())
                h.update(repr(energy).encode())
        return h.hexdigest(), retries, converged


def timed(call, clock: list) -> float:
    """The wall time of ``call``; adds its process CPU time and its wall
    time to ``clock``, a [cpu, wall] pair."""
    c0, t0 = time.process_time(), time.perf_counter()
    call()
    wall = time.perf_counter() - t0
    clock[0] += time.process_time() - c0
    clock[1] += wall
    return wall


def best(call, clock: list) -> float:
    """The least wall time of `REPEATS` calls of ``call`` in a row."""
    return min(timed(call, clock) for _ in range(REPEATS))


def ms(seconds: list, windows: int) -> float:
    """Median milliseconds per window of runs over ``windows`` windows."""
    return 1e3 * statistics.median(seconds) / windows


def quartiles(values) -> tuple:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return median, q1, q3


def main(argv) -> int:
    if len(argv) not in (2, 3):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    rounds = int(argv[2]) if len(argv) == 3 else 7
    if rounds < 2:
        print("engine_ab.py: ROUNDS must be at least 2", file=sys.stderr)
        return 2
    trees = [Tree(Path(argv[0]).resolve(), "mcrefine_a"),
             Tree(Path(argv[1]).resolve(), "mcrefine_b")]
    for tree in trees:   # warm-up: bases, contexts, FFT plans
        for engine in ENGINES:
            tree.refine(engine, 16)

    cases = [(e, b, shed) for shed in (False, True) for e in ENGINES
             for b in BATCHES]
    digests = [{case: t.digest(*case) for case in cases} for t in trees]
    iterations = [{e: statistics.fmean(r.diagnostics.iterations
                                       for r in t.refine(e, 1))
                   for e in ENGINES} for t in trees]
    spent = [{(e, b): [] for e in ENGINES for b in BATCHES} for _ in trees]
    c8 = [[], []]
    loaded = 0
    for r in range(rounds):
        order = trees if r % 2 == 0 else trees[::-1]
        clocks = [[0.0, 0.0], [0.0, 0.0]]
        for e in ENGINES:
            for b in BATCHES:
                for t in order:
                    i = trees.index(t)
                    spent[i][e, b].append(
                        best(lambda t=t: t.refine(e, b), clocks[i]))
        for t in order:
            i = trees.index(t)
            seconds = {e: best(lambda t=t: t.criterion8(e), clocks[i])
                       for e in ENGINES}
            c8[i].append((seconds["fsa"] / seconds["msa"],
                          seconds["rba"] / seconds["msa"]))
        cpu = [c / w for c, w in clocks]
        flag = min(cpu) < LOADED
        loaded += flag
        print(f"round {r + 1}/{rounds}: criterion 8 fsa/msa, rba/msa  "
              f"A {c8[0][-1][0]:.2f} {c8[0][-1][1]:.3f}  "
              f"B {c8[1][-1][0]:.2f} {c8[1][-1][1]:.3f};  CPU/wall "
              f"A {cpu[0]:.3f} B {cpu[1]:.3f}"
              + (f"  LOADED (below {LOADED})" if flag else ""), flush=True)

    windows = len(trees[0].windows)
    ratios = {case: [b / a for a, b in zip(spent[0][case], spent[1][case])]
              for case in spent[0]}
    print(f"\nengine_mix windows ({windows}) over {rounds} rounds: "
          "ms per window A, B (medians); time B/A median [q1, q3]")
    for e in ENGINES:
        cells = [f"B={b}: {ms(spent[0][e, b], windows):.3f}, "
                 f"{ms(spent[1][e, b], windows):.3f}; "
                 f"{m:.3f} [{q1:.3f}, {q3:.3f}]"
                 for b in BATCHES for m, q1, q3 in [quartiles(ratios[e, b])]]
        print(f"  {e}  " + "   ".join(cells))
    for label, tree_spent, tree_iterations in zip("AB", spent, iterations):
        print(f"B=1 us per iteration {label}: " + "   ".join(
            f"{e} {1e3 * ms(tree_spent[e, 1], windows) / tree_iterations[e]:.1f}"
            f" ({tree_iterations[e]:.2f} iterations)" for e in ENGINES))
    geo = [statistics.geometric_mean(r) for r in
           zip(*(ratios[e, 1] for e in ENGINES))]
    print("B=1 geometric mean of fsa, rba, msa time B/A: "
          "{:.3f} [{:.3f}, {:.3f}]".format(*quartiles(geo)))
    print(f"rounds with a CPU/wall ratio below {LOADED}: "
          f"{loaded} of {rounds}")
    for label, runs in zip("AB", c8):
        fsa = [f for f, _ in runs]
        rba = [r for _, r in runs]
        print(f"criterion 8 {label}: fsa/msa "
              "{:.2f} [{:.2f}, {:.2f}]".format(*quartiles(fsa))
              + f" (min {min(fsa):.2f}), rba/msa "
              "{:.3f} [{:.3f}, {:.3f}]".format(*quartiles(rba))
              + f" (min {min(rba):.3f}); median [q1, q3]")
    for shed, runs_of in ((False, "runs"), (True, "shed-path runs")):
        print(f"{runs_of} hashed: singular-Gram retries / early "
              "convergences at " + ", ".join(f"B={b}" for b in BATCHES))
        for label, runs in zip("AB", digests):
            print(f"  {label}  " + "   ".join(
                f"{e} " + " ".join(f"{runs[e, b, shed][1]}/"
                                   f"{runs[e, b, shed][2]}" for b in BATCHES)
                for e in ENGINES))
    mismatched = [f"{e}@B={b}{' shed' if shed else ''}"
                  for e, b, shed in cases
                  if digests[0][e, b, shed] != digests[1][e, b, shed]]
    print("engine outputs: " + ("every hash matches" if not mismatched
                                else "MISMATCH " + ", ".join(mismatched)))
    return 1 if mismatched else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
