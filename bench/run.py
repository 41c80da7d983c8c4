#!/usr/bin/env python3
"""sixnodal benchmark: four workloads, end to end and layer by layer.

    python3 bench/run.py --workload instances|lines|fourfold|reproduce|all \\
        --seed N --seconds S --trace 0|1
    python3 bench/run.py --write-spec      # rewrite BENCHMARK.json from SPEC

Each workload runs in its own fresh worker process (``worker.py``).  With
``--trace 0`` the command prints the end-to-end metrics, with ``--trace 1``
the per-layer metrics of a traced run plus the tracing overhead.  Every line
before the last is ``name value unit``; the last line of stdout is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``
(for ``--workload all``, one such object per workload under its name).  The
full result, with the errors of any failed operation or check, is also
written to ``bench/out/``.  Standard library only; see README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))

import tracer  # noqa: E402

RUN_SECONDS = 20

WORKLOADS = [
    {"name": "instances",
     "why": "exact kernel only: make_instance, the criterion-07 lines and projection "
            "from a node; root-layer changes should not move it"},
    {"name": "lines",
     "why": "six lines through fixed smooth points: the root layer where the "
            "rational-root probe sometimes hits (P and P-dual lines are rational)"},
    {"name": "fourfold",
     "why": "fourfold lines and iota: the root layer on P^5 eliminants with no "
            "rational root, so the probe is pure waste"},
    {"name": "reproduce",
     "why": "the command users run, as a fresh process: the only workload covering "
            "cli, lattice, surf27, segre3, schubert and import cost"},
]

END_TO_END = [
    {"name": "throughput_ops_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "latency_p50_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MiB", "better": "lower", "bound": 0.1},
]

# set-ups per run besides the measuring worker's own; setup_s is their median
SETUP_REPEATS = {"instances": 4, "lines": 2, "fourfold": 2, "reproduce": 4}

# a whole run (set-ups, passes, checks) is killed after this many seconds
RUN_TIMEOUT = 170


def per_layer_spec() -> list[dict]:
    out = []
    for name, _module, _path in tracer.TARGETS:
        out += [{"name": f"{name}.calls", "unit": "count", "better": "lower"},
                {"name": f"{name}.s", "unit": "s", "better": "lower"},
                {"name": f"{name}.self_s", "unit": "s", "better": "lower"}]
    out += [{"name": name, "unit": "count", "better": "higher"} for name in tracer.COUNTERS]
    out += [{"name": name, "unit": "bits", "better": "higher"} for name in tracer.MARGINS]
    out += [{"name": "cli.import_s", "unit": "s", "better": "lower"},
            {"name": "trace.untraced_pass_s", "unit": "s", "better": "lower"},
            {"name": "trace.traced_pass_s", "unit": "s", "better": "lower"},
            {"name": "trace.overhead_pct", "unit": "%", "better": "lower"}]
    return out


SPEC = {
    "command": ["python3", "bench/run.py"],
    "paths": ["bench"],
    "run_seconds": RUN_SECONDS,
    "workloads": WORKLOADS,
    "end_to_end": END_TO_END,
    "per_layer": per_layer_spec(),
}


class BenchError(Exception):
    pass


def start_worker(workload: str, seed: int, seconds: float, trace: int,
                 setup_only: bool, deadline: float) -> tuple[dict, float]:
    """Run worker.py to its end; returns its result and the clock at its start."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{workload} worker did not finish in time") from None
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"{workload} worker exited {proc.returncode}:\n{err[-2000:]}")
    return json.loads(out.strip().splitlines()[-1]), t0


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.monotonic() + RUN_TIMEOUT
    setups = []
    for _ in range(0 if trace else SETUP_REPEATS[workload]):
        res, t0 = start_worker(workload, seed, seconds, trace, True, deadline)
        setups.append(res["ready"] - t0)
    res, t0 = start_worker(workload, seed, seconds, trace, False, deadline)
    setups.append(res["ready"] - t0)

    lat = res["latencies"]
    if trace:
        layers = res["trace"]["layers"]
        metrics = {}
        for name, _module, _path in tracer.TARGETS:
            row = layers["functions"].get(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            metrics[f"{name}.calls"] = row["calls"]
            metrics[f"{name}.s"] = row["s"]
            metrics[f"{name}.self_s"] = row["self_s"]
        metrics.update(layers["counts"])
        # a margin reads 0 when the function was not called on this workload
        metrics.update({name: layers["margins"].get(name, 0.0) for name in tracer.MARGINS})
        metrics["cli.import_s"] = layers["cli.import_s"]
        u, t = res["trace"]["untraced_pass_s"], res["trace"]["traced_pass_s"]
        metrics.update({"trace.untraced_pass_s": u, "trace.traced_pass_s": t,
                        "trace.overhead_pct": 100 * (t - u) / u})
        units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    else:
        metrics = {"throughput_ops_s": len(lat) / sum(lat) if lat else 0.0,
                   "latency_p50_s": statistics.median(lat) if lat else 0.0,
                   "setup_s": statistics.median(setups),
                   "peak_rss_mb": res["peak_rss_mb"]}
        units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    result = {"correct": not res["check_failures"],
              "attempted": res["attempted"], "failed": res["failed"],
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    OUT.mkdir(exist_ok=True)
    detail = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "setups_s": setups, "latencies_s": lat, "errors": res["errors"],
              "check_failures": res["check_failures"],
              "layer_detail": res.get("trace", {}).get("detail"), **result}
    (OUT / f"{workload}-seed{seed}-trace{trace}.json").write_text(json.dumps(detail, indent=1))
    return result


def main() -> int:
    names = [w["name"] for w in WORKLOADS]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=names + ["all"], default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-spec", action="store_true",
                    help="write BENCHMARK.json from this file's SPEC and exit")
    args = ap.parse_args()

    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(SPEC, indent=2) + "\n")
        return 0
    if not (ROOT / "src" / "sixnodal" / "__init__.py").is_file():
        print(f"error: no sixnodal sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    results = {}
    for name in (names if args.workload == "all" else [args.workload]):
        try:
            results[name] = run_workload(name, args.seed, args.seconds, args.trace)
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        r = results[name]
        print(f"{name}: attempted {r['attempted']}, failed {r['failed']}, "
              f"correct {str(r['correct']).lower()}")
        for metric, m in r["metrics"].items():
            print(f"  {metric} {m['value']:.6g} {m['unit']}")
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
