"""Output checks for the benchmark workloads.

Every check is computed apart from the program (its own evaluators,
determinants and Pluecker comparison, in ``Fraction`` or mpmath) or tests a
property the method must have.  None compares against a stored copy of an
earlier output.  A failed check raises ``CheckFailed`` naming the check.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from fractions import Fraction

import mpmath

# tolerances of the acceptance suite at 256 bits
LINE_TOL = mpmath.mpf("1e-40")
INVOLUTION_TOL = mpmath.mpf("1e-30")
CHECK_PREC = 320


class CheckFailed(Exception):
    def __init__(self, check: str, detail: str):
        super().__init__(f"{check}: {detail}")
        self.check = check


def require(ok: bool, check: str, detail: str) -> None:
    if not ok:
        raise CheckFailed(check, detail)


# ---------------------------------------------------------------------------
# arithmetic of the benchmark's own


def combine(coords, basis):
    """sum_k coords[k] * basis[k] for 3x3 matrices."""
    return [[sum(c * b[i][j] for c, b in zip(coords, basis)) for j in range(3)]
            for i in range(3)]


def det3(m):
    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))


def evaluate(terms, point):
    """Value of sum_e c_e x^e; exact on Fractions, numeric on mpmath values."""
    numeric = any(isinstance(x, (mpmath.mpf, mpmath.mpc)) for x in point)
    total = 0
    for e, c in terms.items():
        v = to_mp(c) if numeric else c
        for x, k in zip(point, e):
            if k:
                v *= x ** k
        total += v
    return total


def max_abs(v):
    return max(abs(x) for x in v)


def plucker(p0, p1):
    n = len(p0)
    return [p0[i] * p1[j] - p0[j] * p1[i] for i in range(n) for j in range(i + 1, n)]


def to_mp(x):
    if isinstance(x, Fraction):
        return mpmath.mpf(x.numerator) / x.denominator
    return mpmath.mpmathify(x)


def normalized_plucker(p0, p1):
    pl = plucker([to_mp(x) for x in p0], [to_mp(x) for x in p1])
    lead = max(pl, key=abs)
    return [x / lead for x in pl]


def minors3_relative(rows):
    """Largest 3x3 minor of a 3 x n matrix relative to its row norms."""
    n = len(rows[0])
    scale = max_abs(rows[0]) * max_abs(rows[1]) * max_abs(rows[2])
    worst = 0
    for a in range(n):
        for b in range(a + 1, n):
            for c in range(b + 1, n):
                worst = max(worst, abs(det3([[r[a], r[b], r[c]] for r in rows])))
    return worst / scale


def points_on_line(p0, p1):
    """Four distinct points of the line span(p0, p1): a binary cubic form
    that vanishes at all four vanishes on the whole line."""
    return [tuple(p0), tuple(p1)] + [tuple(a + t * b for a, b in zip(p0, p1))
                                     for t in (1, -2)]


def random_rational(rng, n):
    return tuple(Fraction(rng.randrange(-50, 51), rng.randrange(1, 8)) for _ in range(n))


# ---------------------------------------------------------------------------
# instances


def check_instance_op(out, rng: random.Random) -> None:
    """out: dict with inst, lines [(kind, param, line, tag)] and proj."""
    inst = out["inst"]
    check_node_rank1(inst)
    check_cubic_is_det(inst, rng)
    check_node_double_point(inst, rng)
    check_special_lines(inst, out["lines"])
    check_projection(out["proj"])


def check_node_rank1(inst) -> None:
    """Every node matrix is M(coords) and has all 2x2 minors zero."""
    for k, node in enumerate(inst.nodes):
        m = [list(r) for r in node.matrix]
        minors = [m[i][a] * m[j][b] - m[i][b] * m[j][a]
                  for i in range(3) for j in range(i + 1, 3)
                  for a in range(3) for b in range(a + 1, 3)]
        require(all(x == 0 for x in minors) and any(x != 0 for r in m for x in r),
                "node_rank1", f"node {k + 1} is not a rank-1 matrix")
        require(combine(node.coords, inst.lam_perp.basis) == m,
                "node_rank1", f"node {k + 1} matrix is not M(coords)")


def check_cubic_is_det(inst, rng: random.Random) -> None:
    """cubic_y(y) / det(M(y)) is one nonzero constant at random rational y."""
    ratio = None
    checked = 0
    while checked < 4:
        y = random_rational(rng, 5)
        d = det3(combine(y, inst.lam_perp.basis))
        if d == 0:
            continue
        r = evaluate(inst.cubic_y.terms, y) / d
        require(r != 0 and (ratio is None or r == ratio), "cubic_is_det",
                f"cubic_y / det(M(y)) is {r}, expected the constant {ratio}")
        ratio = r
        checked += 1


def check_node_double_point(inst, rng: random.Random) -> None:
    """det(M(c) + t M(u)) has no t^0 or t^1 term at each node c, random u."""
    perp = inst.lam_perp.basis
    for k, node in enumerate(inst.nodes):
        mc = combine(node.coords, perp)
        mu = combine(random_rational(rng, 5), perp)
        p = {t: det3([[mc[i][j] + t * mu[i][j] for j in range(3)] for i in range(3)])
             for t in (0, 1, -1, 2, -2)}
        linear = (8 * (p[1] - p[-1]) - (p[2] - p[-2])) / 12
        require(p[0] == 0 and linear == 0 and any(p[t] != 0 for t in (1, -1, 2, -2)),
                "node_double_point",
                f"det(M(c) + t M(u)) at node {k + 1} has terms "
                f"t^0 = {p[0]}, t^1 = {linear}")


def check_special_lines(inst, lines) -> None:
    """Each special line lies on the cubic, has its family's defining
    property and carries its family's tag."""
    perp = inst.lam_perp.basis
    expected = {"fromV": "P", "fromVdual": "Pdual", "fromS": "Scomponent"}
    for kind, param, line, tag in lines:
        require(line.exact, "special_line_on_cubic", f"{kind} line is not exact")
        for pt in points_on_line(line.p0, line.p1):
            require(evaluate(inst.cubic_y.terms, pt) == 0, "special_line_on_cubic",
                    f"cubic does not vanish on the {kind} line")
        spans = [combine(line.p0, perp), combine(line.p1, perp)]
        if kind == "fromV":
            fam = all(sum(m[i][j] * param[j] for j in range(3)) == 0
                      for m in spans for i in range(3))
        elif kind == "fromVdual":
            fam = all(sum(param[i] * m[i][j] for i in range(3)) == 0
                      for m in spans for j in range(3))
        else:
            s = combine(param, inst.lam.basis)
            fam = all(sum(s[i][a] * m[a][b] * s[b][j] for a in range(3) for b in range(3)) == 0
                      for m in spans for i in range(3) for j in range(3))
        require(fam, "special_line_family", f"{kind} line fails its defining property")
        require(tag == expected[kind], "special_line_family",
                f"{kind} line classified as {tag}")


def check_projection(proj) -> None:
    """The projection's verdicts hold and the node images lie on A2 = A3 = 0."""
    require(proj.quadric_rank == 4 and all(proj.images_on_curve)
            and all(proj.images_singular) and proj.rulings_ok and proj.hyperplanes_ok,
            "projection", "a genericity verdict of the node projection is false")
    for img in proj.images:
        pt = tuple(Fraction(x) for x in img)
        require(evaluate(proj.quadric.terms, pt) == 0 and evaluate(proj.cubic.terms, pt) == 0,
                "projection", f"node image {img} is off the base curve")


# ---------------------------------------------------------------------------
# lines through a point


def check_lines_op(out) -> None:
    """out: dict with inst, y and res (a LinesThroughPoint)."""
    inst, y, res = out["inst"], out["y"], out["res"]
    lines = res.lines
    require(len(lines) == 6, "six_lines", f"{len(lines)} lines through y")
    tags = Counter(t for _, t in lines)
    require(tags == Counter({"P": 1, "Pdual": 1, "Scomponent": 4}), "tag_split",
            f"tag split {dict(tags)}")
    require(res.residual_max < 1e-40, "line_on_cubic",
            f"reported residual {res.residual_max}")
    perp = inst.lam_perp.basis
    with mpmath.workprec(CHECK_PREC):
        perp_num = [[[to_mp(x) for x in r] for r in b] for b in perp]
        y_num = [to_mp(x) for x in y]
        pls = []
        for line, tag in lines:
            if line.exact:
                require(all(det3(combine(pt, perp)) == 0
                            for pt in points_on_line(line.p0, line.p1)),
                        "line_on_cubic", f"exact {tag} line is off the cubic")
                require(minors3_relative([list(line.p0), list(line.p1), list(y)]) == 0,
                        "line_on_cubic", f"exact {tag} line misses y")
            else:
                p0 = [x / max_abs(line.p0) for x in line.p0]
                p1 = [x / max_abs(line.p1) for x in line.p1]
                for pt in points_on_line(p0, p1):
                    scale = sum(abs(c) * max_abs([x for r in b for x in r])
                                for c, b in zip(pt, perp_num)) ** 3
                    resid = abs(det3(combine(pt, perp_num))) / scale
                    require(resid < LINE_TOL, "line_on_cubic",
                            f"{tag} line: det residual {mpmath.nstr(resid, 5)}")
                require(minors3_relative([p0, p1, y_num]) < LINE_TOL, "line_on_cubic",
                        f"{tag} line misses y")
            pls.append(normalized_plucker(line.p0, line.p1))
        for i in range(6):
            for j in range(i + 1, 6):
                require(max_abs([a - b for a, b in zip(pls[i], pls[j])]) > 1e-10,
                        "six_lines", f"lines {i} and {j} coincide")


# ---------------------------------------------------------------------------
# fourfold involution


def partials(terms, nvars):
    """The terms of dF/dx_i for each i."""
    out = []
    for i in range(nvars):
        d = {}
        for e, c in terms.items():
            if e[i]:
                d[e[:i] + (e[i] - 1,) + e[i + 1:]] = c * e[i]
        out.append(d)
    return out


def _off_fourfold(terms, grad_terms, p0, p1):
    """Largest |F(z)| / (|grad F(z)| |z|) over four points z of the line: to
    first order, the relative distance of z from the hypersurface."""
    p0 = [x / max_abs(p0) for x in p0]
    p1 = [x / max_abs(p1) for x in p1]
    worst = 0
    for pt in points_on_line(p0, p1):
        grad = max_abs([evaluate(g, pt) for g in grad_terms])
        worst = max(worst, abs(evaluate(terms, pt)) / (grad * max_abs(pt)))
    return worst


def check_fourfold_op(out) -> None:
    """out: dict with four, m, first, second (IotaResults), ok, invariant."""
    four, m = out["four"], out["m"]
    terms = four.cubic.terms
    with mpmath.workprec(CHECK_PREC):
        grad_terms = partials(terms, 6)
        for name, line in (("m", m), ("iota(m)", out["first"].line)):
            resid = _off_fourfold(terms, grad_terms, line.p0, line.p1)
            require(resid < INVOLUTION_TOL, "on_fourfold",
                    f"{name} is off the fourfold (residual {mpmath.nstr(resid, 5)})")
        a = normalized_plucker(out["second"].line.p0, out["second"].line.p1)
        b = normalized_plucker(m.p0, m.p1)
        gap = max_abs([x - y for x, y in zip(a, b)])
        require(gap < INVOLUTION_TOL, "involution",
                f"iota(iota(m)) differs from m by {mpmath.nstr(gap, 5)}")
    require(out["ok"] and out["invariant"], "verdicts",
            "involution_check or scroll incidence invariance reported false")


# ---------------------------------------------------------------------------
# reproduce


def check_reproduce_op(out, seen: dict) -> None:
    """out: dict with seed, returncode, stdout; seen maps seed -> stdout."""
    require(out["returncode"] == 0, "exit_status", f"exit status {out['returncode']}")
    try:
        report = json.loads(out["stdout"])
    except json.JSONDecodeError as exc:
        raise CheckFailed("json", f"stdout is not JSON ({exc})") from None
    checks = report.get("checks") if isinstance(report, dict) else None
    require(bool(checks) and report.get("seed") == out["seed"], "json",
            "report has no checks or the wrong seed")
    failed = [c.get("name") for c in checks if c.get("pass") is not True]
    require(not failed, "all_checks_pass", f"failed checks: {failed}")
    first = seen.setdefault(out["seed"], out["stdout"])
    require(first == out["stdout"], "deterministic",
            f"seed {out['seed']} gave different stdout on a repeat")
