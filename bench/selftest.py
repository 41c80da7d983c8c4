#!/usr/bin/env python3
"""Fast self-test of the benchmark's output checks.

    python3 bench/selftest.py

Runs one operation of each workload through its checks, then shows that each
check rejects a corrupted output: a perturbed or duplicated line, a swapped
node, a retagged line, a flipped ``pass`` and so on.  Prints one line per
case and exits 0 only if every real output is accepted and every corrupted
one is rejected by the check it targets.  Takes about ten seconds.
"""

from __future__ import annotations

import dataclasses
import json
import random
import sys

import mpmath

import checks
import worker


def bend(v):
    """v with every entry moved by a different relative amount near 1e-20,
    so the line leaves the hypersurface in a generic direction."""
    with mpmath.workprec(checks.CHECK_PREC):
        return tuple(x * (1 + mpmath.mpf("1e-20") * (k + 1) * (-1) ** k)
                     for k, x in enumerate(v))


def corrupt_cases():
    """(workload, case, check expected to reject, thunk) for every corruption."""
    cases = []

    wl = worker.Instances()
    wl.setup()
    out = wl.run(1)
    wl.check(1, out, 1)
    inst = out["inst"]
    rng = random.Random(0)
    n0, n1 = inst.nodes[0], inst.nodes[1]
    swapped = dataclasses.replace(inst, nodes=(dataclasses.replace(n0, coords=n1.coords),
                                               dataclasses.replace(n1, coords=n0.coords),
                                               *inst.nodes[2:]))
    bumped = [list(r) for r in n0.matrix]
    bumped[0][0] += 1
    bumped[1][1] += 1
    rank2 = dataclasses.replace(inst, nodes=(dataclasses.replace(n0, matrix=tuple(
        map(tuple, bumped))), *inst.nodes[1:]))
    terms = dict(inst.cubic_y.terms)
    e = next(iter(terms))
    terms[e] += 1
    wrong_cubic = dataclasses.replace(inst, cubic_y=type(inst.cubic_y)(5, terms))
    # a smooth point of the cubic in place of a node: on the cubic, not singular
    smooth = out["lines"][0][2].p0
    not_node = dataclasses.replace(inst, nodes=(dataclasses.replace(n0, coords=smooth),
                                                *inst.nodes[1:]))
    kind, param, line, tag = out["lines"][2]
    moved = dataclasses.replace(line, p1=tuple(x + (i == 0) for i, x in enumerate(line.p1)))
    lines_moved = out["lines"][:2] + [(kind, param, moved, tag)]
    (k0, p0, l0, t0), (k1, p1, l1, t1) = out["lines"][:2]
    lines_swapped = [(k0, p1, l0, t0), (k1, p0, l1, t1), out["lines"][2]]
    lines_retagged = [(k0, p0, l0, "Pdual")] + out["lines"][1:]
    proj = out["proj"]
    proj_moved = dataclasses.replace(proj, images=((1, 2, 3, 4),) + proj.images[1:])
    cases += [
        ("instances", "swapped node", "node_rank1", lambda: checks.check_node_rank1(swapped)),
        ("instances", "rank-2 node matrix", "node_rank1",
         lambda: checks.check_node_rank1(rank2)),
        ("instances", "perturbed cubic", "cubic_is_det",
         lambda: checks.check_cubic_is_det(wrong_cubic, rng)),
        ("instances", "smooth point as node", "node_double_point",
         lambda: checks.check_node_double_point(not_node, rng)),
        ("instances", "perturbed special line", "special_line_on_cubic",
         lambda: checks.check_special_lines(inst, lines_moved)),
        ("instances", "swapped line parameters", "special_line_family",
         lambda: checks.check_special_lines(inst, lines_swapped)),
        ("instances", "retagged line", "special_line_family",
         lambda: checks.check_special_lines(inst, lines_retagged)),
        ("instances", "moved node image", "projection",
         lambda: checks.check_projection(proj_moved)),
    ]

    wl = worker.Lines()
    item = wl.setup()[0]
    lout = wl.run(item)
    wl.check(item, lout, 1)
    res = lout["res"]
    numeric = next(i for i, (ln, _) in enumerate(res.lines) if not ln.exact)
    ln, tg = res.lines[numeric]
    bent = dataclasses.replace(ln, p1=bend(ln.p1))
    s_idx = [i for i, (_, t) in enumerate(res.lines) if t == "Scomponent"]
    dup = list(res.lines)
    dup[s_idx[1]] = dup[s_idx[0]]
    retag = list(res.lines)
    retag[s_idx[0]] = (retag[s_idx[0]][0], "P")

    def with_lines(lines):
        return {**lout, "res": dataclasses.replace(res, lines=tuple(lines))}

    cases += [
        ("lines", "dropped line", "six_lines",
         lambda: checks.check_lines_op(with_lines(res.lines[1:]))),
        ("lines", "duplicated line", "six_lines", lambda: checks.check_lines_op(with_lines(dup))),
        ("lines", "retagged line", "tag_split", lambda: checks.check_lines_op(with_lines(retag))),
        ("lines", "perturbed line", "line_on_cubic",
         lambda: checks.check_lines_op(with_lines(
             res.lines[:numeric] + ((bent, tg),) + res.lines[numeric + 1:]))),
    ]

    wl = worker.Fourfold()
    item = wl.setup()[0]
    fout = wl.run(item)
    wl.check(item, fout, 1)
    m = fout["m"]
    m_bent = dataclasses.replace(m, p1=bend(m.p1))
    cases += [
        ("fourfold", "perturbed line", "on_fourfold",
         lambda: checks.check_fourfold_op({**fout, "m": m_bent})),
        ("fourfold", "iota applied once", "involution",
         lambda: checks.check_fourfold_op({**fout, "second": fout["first"]})),
        ("fourfold", "flipped verdict", "verdicts",
         lambda: checks.check_fourfold_op({**fout, "ok": False})),
    ]

    wl = worker.Reproduce()
    wl.setup()
    rout = wl.run(2)
    wl.check(2, rout, 1)
    report = json.loads(rout["stdout"])
    report["checks"][-1]["pass"] = False
    flipped = json.dumps(report, indent=2, sort_keys=True)
    cases += [
        ("reproduce", "exit status 1", "exit_status",
         lambda: checks.check_reproduce_op({**rout, "returncode": 1}, {})),
        ("reproduce", "truncated stdout", "json",
         lambda: checks.check_reproduce_op({**rout, "stdout": rout["stdout"][:-2]}, {})),
        ("reproduce", "flipped pass", "all_checks_pass",
         lambda: checks.check_reproduce_op({**rout, "stdout": flipped}, {})),
        ("reproduce", "changed repeat", "deterministic",
         lambda: checks.check_reproduce_op(rout, {2: rout["stdout"] + " "})),
    ]
    return cases


def main() -> int:
    bad = 0
    for workload, case, expected, thunk in corrupt_cases():
        try:
            thunk()
            verdict = "NOT REJECTED"
        except checks.CheckFailed as exc:
            verdict = "rejected" if exc.check == expected else f"rejected by {exc.check}"
        ok = verdict == "rejected"
        bad += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {workload}: {case} -> {verdict} ({expected})")
    print("selftest", "passed" if not bad else f"FAILED ({bad} cases)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
