"""Command-line entry point: seeded, JSON-friendly access to every module.

Subcommands: lattice {orbit,chamber,represent,transfer,svg},
instance {new,check,lines,project}, surf27 enumerate,
segre {identity,jmap}, fourfold {extend,iota}, schubert deg-fano,
reproduce.  Exit codes: 0 pass, 1 check failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

from . import __version__, lattice, schubert, segre3, surf27
from . import detgeo, fourfold as ff
from ._numeric import check_tolerance, default_precision
from ._qlinalg import rank


@dataclass
class RunReport:
    command: str
    seed: int
    precision: int
    checks: list = field(default_factory=list)
    data: dict = field(default_factory=dict)
    artifacts: list = field(default_factory=list)

    def check(self, name: str, passed: bool, **details):
        entry = {"name": name, "pass": bool(passed)}
        if details:
            entry.update(details)
        self.checks.append(entry)
        return passed

    @property
    def all_pass(self) -> bool:
        return all(c["pass"] for c in self.checks)

    def to_json(self) -> dict:
        return {
            "command": self.command,
            "seed": self.seed,
            "precision": self.precision,
            "version": __version__,
            "checks": self.checks,
            "data": self.data,
            "artifacts": self.artifacts,
        }


def _emit(report: RunReport, args) -> int:
    if getattr(args, "json", False):
        print(json.dumps(report.to_json(), sort_keys=True, indent=2))
    else:
        for c in report.checks:
            status = "PASS" if c["pass"] else "FAIL"
            extra = {k: v for k, v in c.items() if k not in ("name", "pass")}
            print(f"[{status}] {c['name']}" + (f"  {extra}" if extra else ""))
        for k, v in report.data.items():
            print(f"{k}: {v}")
        for a in report.artifacts:
            print(f"wrote {a}")
    return 0 if report.all_pass else 1


# ---------------------------------------------------------------------------
# lattice subcommands


def cmd_lattice_orbit(args) -> int:
    report = RunReport("lattice orbit", args.seed, args.precision)
    classes = lattice.orbit_classes(args.kind, args.count)
    g = lattice.g_class()
    report.data["classes"] = [[int(v.x), int(v.y)] for v in classes]
    report.data["g_pairings"] = [int(lattice.eval_form(v, g)) for v in classes]
    if args.kind in ("rho", "rho_dual"):
        report.check("squares are -10", all(lattice.square(v) == -10 for v in classes))
        report.check("divisibility 2", all(lattice.divisibility(v) == 2 for v in classes))
    return _emit(report, args)


def cmd_lattice_chamber(args) -> int:
    report = RunReport("lattice chamber", args.seed, args.precision)
    v = lattice.LatticeClass(args.x, args.y)
    loc = lattice.chamber_locate(v)
    report.data["class"] = [args.x, args.y]
    report.data["chamber"] = list(loc.indices)
    report.data["word"] = list(loc.word)
    report.data["coords"] = [str(c) for c in loc.coords]
    report.check("located", True)
    return _emit(report, args)


def cmd_lattice_represent(args) -> int:
    report = RunReport("lattice represent", args.seed, args.precision)
    res = lattice.represents(args.n)
    report.data["status"] = res.status
    if res.is_witness():
        report.data["witness"] = [int(res.witness.x), int(res.witness.y)]
        report.data["square"] = int(lattice.square(res.witness))
        report.check("witness squares to n", report.data["square"] == args.n)
    else:
        report.data["certificate"] = res.certificate
        report.check("certificate of non-representation", bool(res.certificate))
    return _emit(report, args)


def cmd_lattice_transfer(args) -> int:
    report = RunReport("lattice transfer", args.seed, args.precision)
    entries = json.loads(args.gram)
    res = lattice.transfer_K_to_J(entries)
    report.data["gram"] = [list(r) for r in res.gram.entries]
    report.data["determinant"] = res.gram.determinant()
    report.data["tau_isotropic"] = res.tau_isotropic
    k_det = entries[0][0] * entries[1][1] - entries[0][1] * entries[1][0]
    report.check("determinant is -2 det(K)", res.gram.determinant() == -2 * k_det)
    return _emit(report, args)


def cone_svg(k: int) -> str:
    """Standalone SVG of the chamber fan in the (x, y) coordinate plane.

    Draws the wall rays s_j for j in [-k, k] (that is, the alpha classes and
    their duals out to index k+1 on the dual side), so 2k chambers appear:
    k = 1 shows the two nef cones of the starting model and its first flop.
    """
    size = 640              # width and height in pixels
    cx = cy = size / 2
    radius = size * 0.44

    def ray_xy(cls):
        x, y = float(cls.x), float(cls.y)
        n = math.hypot(x, y)
        return (x / n, y / n)

    def to_svg(p):
        return (cx + radius * p[0], cy - radius * p[1])

    rays = [lattice.chamber_ray(j) for j in range(-k, k + 1)]
    labels = [f"a{1 - j}v" if j <= 0 else f"a{j}" for j in range(-k, k + 1)]
    pts = [ray_xy(r) for r in rays]
    iso = []
    for gen in lattice.isotropic_generators():
        x = float(gen.x.a) + float(gen.x.b) * math.sqrt(6)
        y = float(gen.y.a) + float(gen.y.b) * math.sqrt(6)
        n = math.hypot(x, y)
        iso.append((x / n, y / n))

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" '
             f'height="{size}" viewBox="0 0 {size} {size}">',
             f'<rect width="{size}" height="{size}" fill="white"/>']
    # alternately shaded chambers (wedges between consecutive rays)
    for i in range(len(pts) - 1):
        a, b = to_svg(pts[i]), to_svg(pts[i + 1])
        model = i - k            # chamber between rays s_model and s_model+1
        fill = "#c8d8f0" if model % 2 == 0 else "#eef3fa"
        parts.append(f'<path d="M {cx} {cy} L {a[0]:.2f} {a[1]:.2f} '
                     f'L {b[0]:.2f} {b[1]:.2f} Z" fill="{fill}" stroke="none"/>')
        mid = ((pts[i][0] + pts[i + 1][0]) / 2, (pts[i][1] + pts[i + 1][1]) / 2)
        mn = math.hypot(*mid)
        if mn > 1e-9:
            lx, ly = to_svg((mid[0] / mn * 0.75, mid[1] / mn * 0.75))
            parts.append(f'<text x="{lx:.1f}" y="{ly:.1f}" font-size="12" '
                         f'text-anchor="middle" fill="#333">C{model}</text>')
    for p, lbl in zip(pts, labels):
        a = to_svg(p)
        parts.append(f'<line x1="{cx}" y1="{cy}" x2="{a[0]:.2f}" y2="{a[1]:.2f}" '
                     'stroke="#1f4e9c" stroke-width="2"/>')
        t = to_svg((p[0] * 1.06, p[1] * 1.06))
        parts.append(f'<text x="{t[0]:.1f}" y="{t[1]:.1f}" font-size="12" '
                     f'text-anchor="middle" fill="#1f4e9c">{lbl}</text>')
    for p in iso:
        a = to_svg(p)
        parts.append(f'<line x1="{cx}" y1="{cy}" x2="{a[0]:.2f}" y2="{a[1]:.2f}" '
                     'stroke="#888" stroke-width="1.5" stroke-dasharray="6 4"/>')
    parts.append(f'<circle cx="{cx}" cy="{cy}" r="3" fill="#000"/>')
    parts.append('</svg>')
    return "\n".join(parts)


def cmd_lattice_svg(args) -> int:
    report = RunReport("lattice svg", args.seed, args.precision)
    svg = cone_svg(args.range)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(svg)
    report.artifacts.append(args.out)
    rays = [lattice.chamber_ray(j) for j in range(-args.range, args.range + 1)]
    angles = [math.atan2(int(r.y), int(r.x)) for r in rays]
    report.check("rays sweep monotonically between the isotropic directions",
                 all(angles[i] > angles[i + 1] for i in range(len(angles) - 1)))
    report.data["chambers_drawn"] = 2 * args.range
    return _emit(report, args)


# ---------------------------------------------------------------------------
# instance subcommands


def cmd_instance_new(args) -> int:
    report = RunReport("instance new", args.seed, args.precision)
    inst = detgeo.make_instance(args.seed)
    payload = json.dumps(inst.to_json(), sort_keys=True, indent=2)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload)
        report.artifacts.append(args.out)
    else:
        report.data["instance"] = inst.to_json()
    report.check("instance built", True)
    return _emit(report, args)


def _load_instance(path: str) -> detgeo.DeterminantalInstance:
    with open(path, encoding="utf-8") as fh:
        return detgeo.DeterminantalInstance.from_json(json.load(fh))


def cmd_instance_check(args) -> int:
    report = RunReport("instance check", args.seed, args.precision)
    inst = _load_instance(args.instance)
    run_instance_checks(inst, report, slice_certificate=True)
    return _emit(report, args)


def run_instance_checks(inst, report: RunReport, slice_certificate: bool = False):
    from .poly import gradient, macaulay_nonzero
    report.check("dimensions 4 + 5",
                 inst.lam.dim == 4 and inst.lam_perp.dim == 5)
    ortho = all(detgeo.trace_pair(a, b) == 0
                for a in inst.lam.basis for b in inst.lam_perp.basis)
    report.check("lambda orthogonal to perp", ortho)
    report.check("six rank-1 nodes",
                 all(rank(n.matrix) == 1 for n in inst.nodes))
    report.check("linear general position",
                 detgeo.linear_general_position([n.coords for n in inst.nodes]))
    grads = gradient(inst.cubic_y)
    report.check("nodes singular on the cubic",
                 all(all(g.evaluate(n.coords) == 0 for g in grads)
                     for n in inst.nodes))
    report.check("ordinary double points",
                 all(detgeo.is_odp(inst.cubic_y, n.coords) for n in inst.nodes))
    report.check("surface smoothness certificate",
                 macaulay_nonzero(gradient(inst.cubic_s)))
    if slice_certificate:
        report.check("finite singular locus (slice certificate)",
                     detgeo.certify_finite_singular_locus(inst))
    return report


def cmd_instance_lines(args) -> int:
    report = RunReport("instance lines", args.seed, args.precision)
    inst = _load_instance(args.instance)
    rng = random.Random(args.point_seed)
    y = detgeo.sample_smooth_point(inst, rng)
    res = detgeo.lines_through_point(inst.cubic_y, y, prec=args.precision,
                                     inst=inst)
    tags = Counter(t for _, t in res.lines if t)
    report.data["point"] = [str(c) for c in y]
    report.data["tags"] = dict(tags)
    report.data["multiplicities"] = list(res.multiplicities)
    report.data["residual_max"] = res.residual_max
    report.check("six lines", len(res.lines) == 6)
    report.check("family split 1+1+4",
                 tags.get("P") == 1 and tags.get("Pdual") == 1
                 and tags.get("Scomponent") == 4)
    return _emit(report, args)


def cmd_instance_project(args) -> int:
    report = RunReport("instance project", args.seed, args.precision)
    inst = _load_instance(args.instance)
    proj = detgeo.project_from_node(inst, args.node)
    report.data["images"] = [[str(x) for x in img] for img in proj.images]
    report.check("tangent cone rank 4", proj.quadric_rank == 4)
    report.check("images on the curve", all(proj.images_on_curve))
    report.check("images singular on the curve", all(proj.images_singular))
    report.check("no two images on a ruling", proj.rulings_ok)
    report.check("no four images on a hyperplane", proj.hyperplanes_ok)
    return _emit(report, args)


# ---------------------------------------------------------------------------
# surf27, segre, schubert, fourfold subcommands


def cmd_surf27_enumerate(args) -> int:
    report = RunReport("surf27 enumerate", args.seed, args.precision)
    lines = surf27.line_classes()
    sextuples = surf27.disjoint_sextuples(lines)
    doubles = surf27.double_sixes()
    report.data["line_classes"] = len(lines)
    report.data["disjoint_sextuples"] = len(sextuples)
    report.data["double_sixes"] = len(doubles)
    if args.format == "json" or args.json:
        index = {c: i for i, c in enumerate(lines)}
        report.data["classes"] = [[c.d, list(c.m)] for c in lines]
        report.data["sextuples"] = sorted(sorted(index[c] for c in s)
                                          for s in sextuples)
        report.data["double_six_pairs"] = sorted(
            sorted(sorted(index[c] for c in half) for half in pair)
            for pair in doubles)
    report.check("27 line classes", len(lines) == 27)
    report.check("72 sextuples", len(sextuples) == 72)
    report.check("36 double sixes", len(doubles) == 36)
    return _emit(report, args)


def cmd_segre_identity(args) -> int:
    report = RunReport("segre identity", args.seed, args.precision)
    forms, holds = segre3.segre_forms(args.variant)
    report.data["variant"] = args.variant
    report.data["relation_holds"] = holds
    report.data["double_at_standard_points"] = all(
        segre3.double_at_points(f, segre3.STANDARD_POINTS) for f in forms)
    report.check("expansion performed", True)
    return _emit(report, args)


def cmd_segre_jmap(args) -> int:
    report = RunReport("segre jmap", args.seed, args.precision)
    inst = _load_instance(args.instance)
    rng = random.Random(args.seed)
    agreements = []
    for _ in range(args.samples):
        s = detgeo.sample_surface_point(inst, rng)
        agreements.append(segre3.jmap_agree(inst, s))
    report.data["samples"] = len(agreements)
    report.check("projections agree at every sample", all(agreements))
    return _emit(report, args)


def cmd_schubert_degfano(args) -> int:
    report = RunReport("schubert deg-fano", args.seed, args.precision)
    trace = schubert.deg_fano_trace(args.ambient)
    report.data.update(trace)
    expected = 27 if args.ambient == 4 else 45
    report.check(f"integral equals {expected}", trace["integral"] == expected)
    if args.ambient == 5:
        report.check("45 = 9 + 27 + 9", 9 + 27 + 9 == trace["integral"])
    return _emit(report, args)


def cmd_fourfold_extend(args) -> int:
    report = RunReport("fourfold extend", args.seed, args.precision)
    inst = _load_instance(args.instance)
    four = ff.extend_to_fourfold(inst, seed=args.seed)
    report.data["quadric_terms"] = len(four.quadric.terms)
    node_vals = [str(four.quadric.evaluate(n.coords + (Fraction(0),)))
                 for n in inst.nodes]
    report.data["quadric_at_nodes"] = node_vals
    report.check("nodes of the section are smooth on the fourfold",
                 all(v != "0" for v in node_vals))
    return _emit(report, args)


def cmd_fourfold_iota(args) -> int:
    report = RunReport("fourfold iota", args.seed, args.precision)
    inst = _load_instance(args.instance)
    four = ff.extend_to_fourfold(inst, seed=args.seed)
    m = ff.sample_line(four, seed=args.line_seed, prec=args.precision)
    res = ff.iota(four, m)
    report.data["factor_residual"] = res.factor_residual
    report.check("plane restriction factors",
                 res.factor_residual < check_tolerance(args.precision, 1e-30))
    if args.check_involution:
        ok, _, _ = ff.involution_check(four, m)
        report.check("iota is an involution", ok)
    if args.check_scroll:
        v = tuple(Fraction(x) for x in args.check_scroll.split(","))
        si = ff.scroll_incidence_invariance(four, m, v)
        report.check("scroll incidence invariant", si.invariant,
                     before=si.meets_before, after=si.meets_after)
    return _emit(report, args)


# ---------------------------------------------------------------------------
# reproduce


def cmd_reproduce(args) -> int:
    report = RunReport("reproduce", args.seed, args.precision)
    g = lattice.g_class()

    rhos = lattice.orbit_classes("rho", 3)
    alphas = lattice.orbit_classes("alpha", 2)
    report.check("rho table", [int(lattice.eval_form(v, g)) for v in rhos] == [6, 18, 78]
                 and (int(rhos[2].x), int(rhos[2].y)) == (29, -16))
    report.check("alpha table", [int(lattice.eval_form(v, g)) for v in alphas] == [24, 48]
                 and (int(alphas[1].x), int(alphas[1].y)) == (17, -9))
    report.check("R3 maps alpha1 to alpha2",
                 lattice.R3.apply(lattice.LatticeClass(7, -3)).coords()
                 == alphas[1].coords())
    r50 = lattice.orbit_classes("rho", 50)
    rd50 = lattice.orbit_classes("rho_dual", 50)
    report.check("R1 swaps the two rho families",
                 all(lattice.R1.apply(a).coords() == b.coords()
                     for a, b in zip(r50, rd50)))
    report.check("non-representation of -2 and 0",
                 lattice.represents(-2).status == "none"
                 and lattice.represents(0).status == "none")
    w = lattice.represents(-10)
    report.check("witness for -10", w.is_witness()
                 and lattice.square(w.witness) == -10
                 and lattice.divisibility(w.witness) == 2)
    tr = lattice.transfer_K_to_J(lattice.K12)
    report.check("transfer of the scroll lattice",
                 tr.gram.entries == ((6, 6), (6, 2))
                 and tr.gram.determinant() == -24)

    report.check("27 lines on a cubic surface",
                 schubert.deg_fano_trace(4)["integral"] == 27)
    report.check("degree 45 Fano surface",
                 schubert.deg_fano_trace(5)["integral"] == 45)

    lines27 = surf27.line_classes()
    report.check("27/72/36 combinatorics",
                 len(lines27) == 27
                 and len(surf27.disjoint_sextuples(lines27)) == 72
                 and len(surf27.double_sixes()) == 36)

    _forms_c, holds_c = segre3.segre_forms("cyclic")
    _forms_p, holds_p = segre3.segre_forms("printed")
    report.check("exactly one variant satisfies the relation",
                 holds_c != holds_p)

    inst = detgeo.make_instance(args.seed)
    run_instance_checks(inst, report)

    rng = random.Random(f"{args.seed}:reproduce")
    for kind, param in (("fromV", (2, 3, -1)), ("fromVdual", (1, -2, 4)),
                        ("fromS", detgeo.sample_surface_point(inst, rng))):
        line = detgeo.special_line(inst, kind, param)
        tag = detgeo.classify_line(inst, line)
        expected = {"fromV": "P", "fromVdual": "Pdual", "fromS": "Scomponent"}[kind]
        report.check(f"{kind} line classifies as {expected}", tag == expected)

    proj = detgeo.project_from_node(inst, 6)
    report.check("projection from the sixth node",
                 proj.quadric_rank == 4 and all(proj.images_on_curve)
                 and all(proj.images_singular) and proj.rulings_ok
                 and proj.hyperplanes_ok)

    splits = []
    for _ in range(2):
        y = detgeo.sample_smooth_point(inst, rng)
        res = detgeo.lines_through_point(inst.cubic_y, y, prec=args.precision,
                                         inst=inst)
        tags = Counter(t for _, t in res.lines if t)
        splits.append(len(res.lines) == 6 and tags.get("P") == 1
                      and tags.get("Pdual") == 1 and tags.get("Scomponent") == 4
                      and res.residual_max < check_tolerance(args.precision, 1e-40))
    report.check("six lines with split 1+1+4", all(splits))

    agree = [segre3.jmap_agree(inst, detgeo.sample_surface_point(inst, rng))
             for _ in range(2)]
    report.check("hexahedral projections agree", all(agree))

    four = ff.extend_to_fourfold(inst, seed=args.seed)
    m = ff.sample_line(four, seed=1, prec=args.precision)
    ok, _, _ = ff.involution_check(four, m)
    report.check("iota is an involution", ok)
    si = ff.scroll_incidence_invariance(four, m, (2, 3, -1))
    report.check("scroll incidence invariant under iota", si.invariant)

    report.data["cone_svg_chars"] = len(cone_svg(2))
    return _emit(report, args)


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sixnodal",
        description="exact toolkit for six-nodal determinantal cubics and "
                    "rank-2 chamber walks")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=1)
        p.add_argument("--precision", type=int, default=None,
                       help="working precision in bits (default: "
                            "SIXNODAL_PRECISION, or 256)")
        p.add_argument("--json", action="store_true")

    lat = sub.add_parser("lattice").add_subparsers(dest="sub", required=True)
    p = lat.add_parser("orbit")
    p.add_argument("--kind", choices=("rho", "rho_dual", "alpha", "alpha_dual"),
                   default="rho")
    p.add_argument("--count", type=int, default=3)
    common(p)
    p.set_defaults(func=cmd_lattice_orbit)
    p = lat.add_parser("chamber")
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--y", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_lattice_chamber)
    p = lat.add_parser("represent")
    p.add_argument("--n", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_lattice_represent)
    p = lat.add_parser("transfer")
    p.add_argument("--gram", default="[[3,3],[3,7]]",
                   help="2x2 integer matrix as JSON")
    common(p)
    p.set_defaults(func=cmd_lattice_transfer)
    p = lat.add_parser("svg")
    p.add_argument("--range", type=int, default=2)
    p.add_argument("--out", default="cones.svg")
    common(p)
    p.set_defaults(func=cmd_lattice_svg)

    ins = sub.add_parser("instance").add_subparsers(dest="sub", required=True)
    p = ins.add_parser("new")
    p.add_argument("--out", default=None)
    common(p)
    p.set_defaults(func=cmd_instance_new)
    p = ins.add_parser("check")
    p.add_argument("instance")
    common(p)
    p.set_defaults(func=cmd_instance_check)
    p = ins.add_parser("lines")
    p.add_argument("--instance", required=True)
    p.add_argument("--seed-point", "--point-seed", dest="point_seed",
                   type=int, default=1)
    common(p)
    p.set_defaults(func=cmd_instance_lines)
    p = ins.add_parser("project")
    p.add_argument("--instance", required=True)
    p.add_argument("--node", type=int, default=6)
    common(p)
    p.set_defaults(func=cmd_instance_project)

    p = sub.add_parser("surf27").add_subparsers(dest="sub", required=True) \
        .add_parser("enumerate")
    p.add_argument("--format", choices=("short", "json"), default="short")
    common(p)
    p.set_defaults(func=cmd_surf27_enumerate)

    seg = sub.add_parser("segre").add_subparsers(dest="sub", required=True)
    p = seg.add_parser("identity")
    p.add_argument("--variant", choices=("printed", "cyclic"), default="cyclic")
    common(p)
    p.set_defaults(func=cmd_segre_identity)
    p = seg.add_parser("jmap")
    p.add_argument("--instance", required=True)
    p.add_argument("--samples", type=int, default=5)
    common(p)
    p.set_defaults(func=cmd_segre_jmap)

    p = sub.add_parser("fourfold").add_subparsers(dest="sub", required=True)
    q = p.add_parser("extend")
    q.add_argument("--instance", required=True)
    common(q)
    q.set_defaults(func=cmd_fourfold_extend)
    q = p.add_parser("iota")
    q.add_argument("--instance", required=True)
    q.add_argument("--line-seed", type=int, default=1)
    q.add_argument("--check-involution", action="store_true")
    q.add_argument("--check-scroll", default=None,
                   help="comma-separated coordinates of a point of P(V)")
    common(q)
    q.set_defaults(func=cmd_fourfold_iota)

    p = sub.add_parser("schubert").add_subparsers(dest="sub", required=True) \
        .add_parser("deg-fano")
    p.add_argument("--ambient", type=int, choices=(4, 5), default=5)
    common(p)
    p.set_defaults(func=cmd_schubert_degfano)

    p = sub.add_parser("reproduce")
    p.add_argument("--all", action="store_true")
    common(p)
    p.set_defaults(func=cmd_reproduce)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if args.precision is None:
            args.precision = default_precision()
        code = args.func(args)
        sys.stdout.flush()      # a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:
        # the reader closed stdout (`| head`): point it at devnull, as the
        # Python docs on SIGPIPE advise, so the flush at exit cannot raise
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if args.json:
            command = " ".join(filter(None, (args.command, getattr(args, "sub", None))))
            print(json.dumps({"command": command, "seed": args.seed,
                              "precision": args.precision, "error": str(exc)},
                             sort_keys=True, indent=2))
        return 1


if __name__ == "__main__":
    sys.exit(main())
