"""Acceptance suite: every criterion at its stated tolerance, one line each.

Run with `pytest tests/test_acceptance.py -s` to see the PASS/FAIL lines, or
through `sixnodal reproduce --all` for the CLI flavour of the same checks.
"""

import json
import random
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction

import pytest

from sixnodal import lattice, schubert, segre3, surf27
from sixnodal import detgeo, fourfold as ff
from sixnodal._qlinalg import rank
from sixnodal.poly import gradient, macaulay_resultant

SEEDS = list(range(1, 21))


def _report(number, name, elapsed, limit=None):
    budget = f" [{elapsed:.2f}s" + (f" < {limit}s]" if limit else "]")
    print(f"\nACCEPTANCE {number:02d} PASS: {name}{budget}")
    if limit is not None:
        assert elapsed < limit, f"criterion {number} exceeded {limit}s"


@pytest.fixture(scope="module")
def instances():
    return {seed: detgeo.make_instance(seed) for seed in SEEDS}


@pytest.fixture(scope="module")
def four(instances):
    return ff.extend_to_fourfold(instances[1], seed=1)


def test_criterion_01_lattice_tables():
    t0 = time.time()
    g = lattice.g_class()
    rhos = lattice.orbit_classes("rho", 50)
    duals = lattice.orbit_classes("rho_dual", 50)
    alphas = lattice.orbit_classes("alpha", 2)
    assert [int(lattice.eval_form(v, g)) for v in rhos[:3]] == [6, 18, 78]
    assert rhos[2].coords() == (29, -16)
    assert [int(lattice.eval_form(v, g)) for v in alphas] == [24, 48]
    assert alphas[1].coords() == (17, -9)
    assert lattice.R3.apply(lattice.LatticeClass(7, -3)).coords() == (17, -9)
    for i in range(50):
        assert lattice.R1.apply(rhos[i]).coords() == duals[i].coords()
    _report(1, "lattice orbit tables reproduced exactly", time.time() - t0, 1)


def test_criterion_02_non_representation():
    t0 = time.time()
    res2 = lattice.represents(-2)
    assert res2.status == "none" and res2.certificate
    res0 = lattice.represents(0)
    assert res0.status == "none" and res0.certificate
    res10 = lattice.represents(-10)
    assert res10.is_witness()
    assert lattice.square(res10.witness) == -10
    assert lattice.divisibility(res10.witness) == 2
    _report(2, "certificates for -2 and 0, witness for -10", time.time() - t0, 1)


def test_criterion_03_transfer():
    t0 = time.time()
    res = lattice.transfer_K_to_J(((3, 3), (3, 7)))
    assert res.gram.entries == ((6, 6), (6, 2))
    assert res.gram.determinant() == -24
    rng = random.Random(1)
    done = 0
    while done < 100:
        a, t = rng.randrange(-25, 26), rng.randrange(-25, 26)
        det_k = 3 * t - a * a
        if det_k == 0:
            continue
        out = lattice.transfer_K_to_J(((3, a), (a, t)))
        assert out.gram.determinant() == -2 * det_k
        done += 1
    _report(3, "lattice transfer and determinant identity on 100 random K",
            time.time() - t0, 1)


def test_criterion_04_schubert():
    t0 = time.time()
    assert schubert.deg_fano_trace(4)["integral"] == 27
    assert schubert.deg_fano_trace(5)["integral"] == 45
    assert 45 == 9 + 27 + 9
    _report(4, "Schubert integrals 27 and 45 with 9+27+9 consistency",
            time.time() - t0, 1)


def test_criterion_05_surface_combinatorics():
    t0 = time.time()
    lines = surf27.line_classes()
    assert len(lines) == 27
    assert len(surf27.disjoint_sextuples(lines)) == 72
    assert len(surf27.double_sixes()) == 36
    inv = surf27.double_six_involution(tuple(surf27.E))
    assert inv.is_isometry() and inv.order_two()
    assert inv.apply(surf27.K_CLASS) == surf27.K_CLASS
    _report(5, "27 lines, 72 sextuples, 36 double-sixes, order-2 involution",
            time.time() - t0, 10)


def test_criterion_06_segre_identity():
    t0 = time.time()
    forms_c, holds_c = segre3.segre_forms("cyclic")
    forms_p, holds_p = segre3.segre_forms("printed")
    assert holds_c != holds_p          # exactly one variant satisfies it
    valid = forms_c if holds_c else forms_p
    assert all(segre3.double_at_points(f, segre3.STANDARD_POINTS) for f in valid)
    _report(6, "exactly one variant of the five cubics satisfies the relation",
            time.time() - t0, 5)


def test_criterion_07_instance_pipeline(instances):
    t0 = time.time()
    worst = 0.0
    for seed, inst in instances.items():
        t_inst = time.time()
        assert all(rank(n.matrix) == 1 for n in inst.nodes)
        assert all(isinstance(x, Fraction)
                   for n in inst.nodes for x in detgeo.flatten(n.matrix))
        assert detgeo.linear_general_position([n.coords for n in inst.nodes])
        for n in inst.nodes:
            assert detgeo.is_odp(inst.cubic_y, n.coords)
        assert macaulay_resultant(gradient(inst.cubic_s)) != 0
        rng = random.Random(seed)
        for kind, param in (
                ("fromV", _node_free_direction(inst, rng)),
                ("fromVdual", _node_free_direction(inst, rng)),
                ("fromS", detgeo.sample_surface_point(inst, rng))):
            line = detgeo.special_line(inst, kind, param)
            from sixnodal.poly import restrict_to_subspace
            assert restrict_to_subspace(inst.cubic_y, [line.p0, line.p1]).is_zero()
            expected = {"fromV": "P", "fromVdual": "Pdual",
                        "fromS": "Scomponent"}[kind]
            assert detgeo.classify_line(inst, line) == expected
        worst = max(worst, time.time() - t_inst)
    assert worst < 60
    _report(7, f"instance pipeline on seeds 1-20 (worst {worst:.2f}s/instance)",
            time.time() - t0)


def _node_free_direction(inst, rng):
    while True:
        v = tuple(Fraction(rng.randrange(-9, 10)) for _ in range(3))
        if all(x == 0 for x in v):
            continue
        if any(sum(a * b for a, b in zip(n.w, v)) == 0 for n in inst.nodes):
            continue
        if any(sum(a * b for a, b in zip(n.v, v)) == 0 for n in inst.nodes):
            continue
        return v


def test_criterion_08_projection_from_each_node(instances):
    t0 = time.time()
    inst = instances[1]
    for i in range(1, 7):
        t_node = time.time()
        proj = detgeo.project_from_node(inst, i)
        assert proj.quadric_rank == 4
        assert all(proj.images_on_curve)
        assert all(proj.images_singular)
        assert proj.rulings_ok and proj.hyperplanes_ok
        assert time.time() - t_node < 30
    _report(8, "projection from every node with all genericity checks",
            time.time() - t0)


def test_criterion_09_six_lines_per_point(instances):
    t0 = time.time()
    for seed, inst in instances.items():
        rng = random.Random(seed + 500)
        for _ in range(5):
            y = detgeo.sample_smooth_point(inst, rng)
            res = detgeo.lines_through_point(inst.cubic_y, y, prec=256,
                                             inst=inst)
            tags = Counter(t for _, t in res.lines if t)
            assert len(res.lines) == 6, (seed, res.multiplicities)
            assert tags["P"] == 1 and tags["Pdual"] == 1 \
                and tags["Scomponent"] == 4, (seed, dict(tags))
            assert res.residual_max < 1e-40
            # P and P-dual lines are rational, so they must come back exact
            assert all(line.exact for line, t in res.lines
                       if t in ("P", "Pdual")), seed
    _report(9, "six lines with split 1+1+4 at 5 points per instance",
            time.time() - t0)


def test_criterion_10_jmap(instances):
    t0 = time.time()
    for seed, inst in instances.items():
        rng = random.Random(seed + 900)
        for _ in range(5):
            s = detgeo.sample_surface_point(inst, rng)
            assert segre3.jmap_agree(inst, s)
    _report(10, "hexahedral projections agree at 5 points per instance",
            time.time() - t0)


def test_criterion_11_involution_and_scroll(four):
    t0 = time.time()
    lines = [ff.sample_line(four, seed=s) for s in range(1, 11)]
    for m in lines:
        ok, first, second = ff.involution_check(four, m, tol=1e-30)
        assert ok
    rng = random.Random(4)
    for trial, m in enumerate(lines):
        v = tuple(Fraction(rng.randrange(-5, 6)) for _ in range(3))
        if all(x == 0 for x in v):
            v = (1, 1, 0)
        si = ff.scroll_incidence_invariance(four, m, v)
        assert si.invariant
    planted = ff.sample_line_through_scroll(four, (2, 3, -1), seed=5)
    si = ff.scroll_incidence_invariance(four, planted, (2, 3, -1))
    assert si.meets_before and si.meets_after and si.invariant
    _report(11, "iota is an involution; scroll incidence invariant",
            time.time() - t0)


def test_criterion_12_reproduce_determinism():
    t0 = time.time()
    cmd = [sys.executable, "-m", "sixnodal.cli", "reproduce", "--all",
           "--seed", "1", "--json"]
    out1 = subprocess.run(cmd, capture_output=True, text=True)
    out2 = subprocess.run(cmd, capture_output=True, text=True)
    assert out1.returncode == 0 and out2.returncode == 0
    assert out1.stdout == out2.stdout
    report = json.loads(out1.stdout)
    assert all(c["pass"] for c in report["checks"])
    _report(12, "reproduce --all --seed 1 is byte-identical and green",
            time.time() - t0)
