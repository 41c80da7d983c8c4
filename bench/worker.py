"""One benchmark workload in a fresh process.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1 [--setup-only]

The process imports sixnodal from the checkout's ``src``, builds the
workload's fixed inputs (the set-up), prints the monotonic clock reading at
which set-up ended, and, unless ``--setup-only``, runs whole passes over the
input list as a closed loop with one client: one operation at a time, each
output checked outside the timed region.  The last line of stdout is one JSON
object.  ``run.py`` starts this script; it is not meant to be run by hand.

The inputs are fixed lists so that every run does identical work; ``--seed``
fixes the order of each pass and the random points the checks use.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

import checks  # noqa: E402  (the benchmark's own modules, beside this file)
import tracer  # noqa: E402


def import_sixnodal(module: str):
    """Import sixnodal.<module> from this checkout's src, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    mod = importlib.import_module(f"sixnodal.{module}")
    if not Path(mod.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"sixnodal was imported from {mod.__file__}, not from {SRC}")
    return mod


def child_env() -> dict:
    """Environment for program subprocesses: this checkout's src first, and
    no SIXNODAL_* settings that would change the default precision or trace."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("SIXNODAL_")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


# ---------------------------------------------------------------------------
# workloads: setup() returns the input list of one pass; run(item) is one
# operation; check(item, out) raises checks.CheckFailed on a wrong output


class Instances:
    """make_instance + criterion-07 line checks + projection from node 6."""

    SEEDS = tuple(range(1, 9))

    def setup(self):
        self.detgeo = import_sixnodal("detgeo")
        return list(self.SEEDS)

    def run(self, seed):
        detgeo = self.detgeo
        inst = detgeo.make_instance(seed)
        rng = random.Random(seed)
        params = (("fromV", node_free_direction(inst, rng)),
                  ("fromVdual", node_free_direction(inst, rng)),
                  ("fromS", detgeo.sample_surface_point(inst, rng)))
        lines = []
        for kind, param in params:
            line = detgeo.special_line(inst, kind, param)
            lines.append((kind, param, line, detgeo.classify_line(inst, line)))
        return {"inst": inst, "lines": lines, "proj": detgeo.project_from_node(inst, 6)}

    def check(self, item, out, seed):
        checks.check_instance_op(out, random.Random(f"{seed}:{item}:check"))


def node_free_direction(inst, rng):
    """A direction of V off every node's kernel and image (criterion 07)."""
    while True:
        v = tuple(Fraction(rng.randrange(-9, 10)) for _ in range(3))
        if all(x == 0 for x in v):
            continue
        if any(sum(a * b for a, b in zip(n.w, v)) == 0 for n in inst.nodes):
            continue
        if any(sum(a * b for a, b in zip(n.v, v)) == 0 for n in inst.nodes):
            continue
        return v


class Lines:
    """sample_smooth_point + lines_through_point at fixed points (criterion 09)."""

    SEEDS = (1, 2, 3)
    POINTS = 3

    def setup(self):
        self.detgeo = import_sixnodal("detgeo")
        self.insts = {s: self.detgeo.make_instance(s) for s in self.SEEDS}
        items = []
        for s in self.SEEDS:
            rng = random.Random(s + 500)        # the point stream of criterion 09
            for k in range(self.POINTS):
                items.append((s, k, rng.getstate()))
                self.detgeo.sample_smooth_point(self.insts[s], rng)
        return items

    def run(self, item):
        s, _k, state = item
        inst = self.insts[s]
        rng = random.Random()
        rng.setstate(state)
        y = self.detgeo.sample_smooth_point(inst, rng)
        res = self.detgeo.lines_through_point(inst.cubic_y, y, prec=256, inst=inst)
        return {"inst": inst, "y": y, "res": res}

    def check(self, item, out, seed):
        checks.check_lines_op(out)


class Fourfold:
    """sample_line + involution_check + scroll incidence (criterion 11)."""

    SEEDS = (1, 2)
    LINE_SEEDS = (1, 2, 3)

    def setup(self):
        detgeo = import_sixnodal("detgeo")
        self.ff = import_sixnodal("fourfold")
        self.fours = {s: self.ff.extend_to_fourfold(detgeo.make_instance(s), seed=1,
                                                    spot_checks=40)
                      for s in self.SEEDS}
        rng = random.Random(4)                  # the scroll points of criterion 11
        items = []
        for s in self.SEEDS:
            for line_seed in self.LINE_SEEDS:
                v = tuple(rng.randrange(-5, 6) for _ in range(3))
                items.append((s, line_seed, v if any(v) else (1, 1, 0)))
        return items

    def run(self, item):
        s, line_seed, v = item
        four, ff = self.fours[s], self.ff
        m = ff.sample_line(four, seed=line_seed)
        ok, first, second = ff.involution_check(four, m, tol=1e-30)
        si = ff.scroll_incidence_invariance(four, m, v)
        return {"four": four, "m": m, "first": first, "second": second,
                "ok": ok, "invariant": si.invariant}

    def check(self, item, out, seed):
        checks.check_fourfold_op(out)


class Reproduce:
    """`sixnodal reproduce --all --seed S --json` as a fresh process."""

    SEEDS = (1, 2, 3)

    def __init__(self):
        self.seen: dict = {}
        self.trace_files: list[Path] = []
        self.traced = False

    def setup(self):
        import_sixnodal("cli")      # the fresh-interpreter import each command pays
        return list(self.SEEDS)

    def run(self, seed):
        args = ["reproduce", "--all", "--seed", str(seed), "--json"]
        if self.traced:
            trace_file = OUT / f"child-{os.getpid()}-{len(self.trace_files)}.json"
            self.trace_files.append(trace_file)
            cmd = [sys.executable, str(BENCH / "child.py"), str(trace_file), *args]
        else:
            cmd = [sys.executable, "-m", "sixnodal.cli", *args]
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=120)
        return {"seed": seed, "returncode": proc.returncode, "stdout": proc.stdout,
                "stderr": proc.stderr}

    def check(self, item, out, seed):
        checks.check_reproduce_op(out, self.seen)


WORKLOADS = {"instances": Instances, "lines": Lines, "fourfold": Fourfold,
             "reproduce": Reproduce}


# ---------------------------------------------------------------------------
# the measuring loop


class Runner:
    def __init__(self, workload, seed: int):
        self.wl = workload
        self.seed = seed
        self.latencies: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.check_failures: list[str] = []

    def passes(self, items, seconds: float, min_passes: int):
        """At least `min_passes` whole passes, then more while the next one
        (taken to last as long as the one before) ends within `seconds`.
        Returns the operation time of each pass."""
        durations = []
        t0 = time.monotonic()
        last = 0.0
        while len(durations) < min_passes or time.monotonic() - t0 + last <= seconds:
            started = time.monotonic()
            spent = 0.0
            for item in items:
                self.attempted += 1
                t = time.perf_counter()
                try:
                    out = self.wl.run(item)
                except Exception as exc:    # a failed operation is counted, not fatal
                    self.failed += 1
                    self.errors.append(f"{item!r:.80}: {type(exc).__name__}: {exc}")
                    continue
                dt = time.perf_counter() - t
                spent += dt
                self.latencies.append(dt)
                try:
                    self.wl.check(item, out, self.seed)
                except checks.CheckFailed as exc:
                    self.check_failures.append(f"{item!r:.80}: {exc}")
            durations.append(spent)
            last = time.monotonic() - started
        return durations


def traced_phase(wl, runner, items, seconds):
    """Install the wrappers, set up again and run passes under them.

    Returns the passes' operation times, the layer numbers of one set-up
    plus one pass, and the set-up and pass tables they come from."""
    if isinstance(wl, Reproduce):
        wl.traced = True        # each child wraps the functions inside itself
        durations = runner.passes(items, seconds, 1)
        child = [json.loads(f.read_text()) for f in wl.trace_files if f.exists()]
        for f in wl.trace_files:
            f.unlink(missing_ok=True)
        setup = tracer.merge([])
        passes = tracer.merge([c["trace"] for c in child])
        import_s = statistics.median([c["import_s"] for c in child] or [0.0])
    else:
        tr = tracer.Tracer()
        tracer.install(tr)
        wl.setup()              # rebuilds the same inputs, now traced
        setup = tr.summary()
        tr.reset()
        durations = runner.passes(items, seconds, 1)
        passes = tr.summary()
        import_s = 0.0
    layers = tracer.merge([setup, passes], [1, 1 / len(durations)])   # set-up + one pass
    layers["cli.import_s"] = import_s
    return durations, layers, {"setup": setup, "passes": passes}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    wl = WORKLOADS[args.workload]()
    items = wl.setup()
    ready = time.monotonic()
    result = {"ready": ready}
    if not args.setup_only:
        random.Random(f"{args.seed}:{args.workload}:order").shuffle(items)
        runner = Runner(wl, args.seed)
        if args.trace:
            OUT.mkdir(exist_ok=True)
            untraced = runner.passes(items, args.seconds / 2, 1)
            traced, layers, detail = traced_phase(wl, runner, items, args.seconds / 2)
            result["trace"] = {"untraced_pass_s": statistics.mean(untraced),
                               "traced_pass_s": statistics.mean(traced),
                               "layers": layers, "detail": detail}
        else:
            runner.passes(items, args.seconds, 2)
        who = resource.RUSAGE_CHILDREN if isinstance(wl, Reproduce) else resource.RUSAGE_SELF
        result.update(attempted=runner.attempted, failed=runner.failed,
                      errors=runner.errors, check_failures=runner.check_failures,
                      latencies=runner.latencies,
                      peak_rss_mb=resource.getrusage(who).ru_maxrss / 1024)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
