#!/usr/bin/env python3
"""Generate a batch of verified determinantal instances and a summary table.

Usage: python scripts/instance_atlas.py [--count 20] [--out instances/]
"""

import argparse
import json
import pathlib
import time

from sixnodal.detgeo import make_instance
from sixnodal.poly import gradient, macaulay_nonzero


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--count", type=int, default=20)
    ap.add_argument("--out", default="instances")
    args = ap.parse_args()
    outdir = pathlib.Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    rows = []
    for seed in range(1, args.count + 1):
        t0 = time.time()
        inst = make_instance(seed)
        smooth = macaulay_nonzero(gradient(inst.cubic_s))
        path = outdir / f"instance_seed{seed}.json"
        path.write_text(json.dumps(inst.to_json(), sort_keys=True, indent=2))
        rows.append((seed, len(inst.cubic_y.terms), len(inst.cubic_s.terms),
                     smooth, time.time() - t0))
        print(f"seed {seed:3d}: |Y-cubic| = {rows[-1][1]:3d} terms, "
              f"|S-cubic| = {rows[-1][2]:3d} terms, smooth-S cert: "
              f"{'yes' if rows[-1][3] else 'NO'}  ({rows[-1][4]:.2f}s)")
    (outdir / "summary.json").write_text(json.dumps(
        [{"seed": s, "y_terms": a, "s_terms": b, "smooth_s": c, "seconds": round(t, 3)}
         for s, a, b, c, t in rows], indent=2))
    print(f"summary -> {outdir / 'summary.json'}")


if __name__ == "__main__":
    main()
