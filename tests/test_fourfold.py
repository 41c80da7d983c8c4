import random
from fractions import Fraction

import mpmath
import pytest

from sixnodal.detgeo import ruling_of_scroll, scroll_data
from sixnodal.fourfold import (CubicFourfold, FourfoldError, extend_to_fourfold,
                               involution_check, iota, lines_close,
                               sample_line, sample_line_through_scroll,
                               scroll_incidence_invariance)
from sixnodal.poly import MPoly, _int_terms, gradient


def _restriction_coeffs(f: MPoly, base, direc):
    """Coefficients of f(base + t*direc) as a polynomial in t, by compose:
    the reference for the integer line restriction of the spot check."""
    subs = [MPoly(1, {(0,): Fraction(b), (1,): Fraction(d)}) for b, d in zip(base, direc)]
    u = f.compose(subs)
    out = [Fraction(0)] * (f.degree() + 1)
    for e, c in u.terms.items():
        out[e[0]] = c
    return out


@pytest.fixture(scope="module")
def four(inst1):
    return extend_to_fourfold(inst1, seed=1, spot_checks=40)


def test_restriction_is_the_threefold(four, inst1):
    rest = MPoly(5, {e[:5]: c for e, c in four.cubic.terms.items() if e[5] == 0})
    assert rest == inst1.cubic_y


def test_nodes_are_smooth_on_fourfold(four, inst1):
    # the only surviving gradient entry at a node is the quadric value
    grads = gradient(four.cubic)
    for n in inst1.nodes:
        p6 = n.coords + (Fraction(0),)
        vals = [g.evaluate(p6) for g in grads]
        assert vals[:5] == [0] * 5
        assert vals[5] == four.quadric.evaluate(p6) != 0


def test_planted_bad_quadric_triggers_resample(inst1):
    # find a seed whose FIRST sampled quadric vanishes at a node, then check
    # the builder resamples past it and still returns a clean extension
    from sixnodal.fourfold import _random_quadric
    bad_seed = None
    for seed in range(1, 4000):
        rng = random.Random(f"{seed}:fourfold")
        quad = _random_quadric(rng, 9)
        if any(quad.evaluate(n.coords + (Fraction(0),)) == 0
               for n in inst1.nodes):
            bad_seed = seed
            break
    assert bad_seed is not None, "no adversarial seed in range"
    f = extend_to_fourfold(inst1, seed=bad_seed, spot_checks=0)
    assert all(f.quadric.evaluate(n.coords + (Fraction(0),)) != 0
               for n in inst1.nodes)


@pytest.mark.parametrize("inst_seed", [1, 2, 3])
def test_line_restriction_matches_compose(inst_seed):
    from sixnodal.detgeo import make_instance
    from sixnodal.fourfold import _line_restriction
    cubic = extend_to_fourfold(make_instance(inst_seed), seed=1, spot_checks=0).cubic
    forms = [(cubic, 3)] + [(g, 2) for g in gradient(cubic)]
    rng = random.Random(inst_seed)
    for _ in range(50):
        base = [rng.randrange(-9, 10) for _ in range(6)]
        direc = [rng.randrange(-9, 10) for _ in range(6)]
        for f, deg in forms:
            terms, den = _int_terms(f)
            want = [c * den for c in _restriction_coeffs(f, base, direc)]
            assert _line_restriction(terms, deg, base, direc) == want


def test_spot_check_fires_above_its_tolerance(inst1, monkeypatch):
    # with a tolerance of 2^64 every sampled point looks singular, so the
    # first check raises, and with no check the same fourfold is built
    monkeypatch.setattr("sixnodal.fourfold._numeric.default_tolerance",
                        lambda prec: mpmath.mpf(2) ** 64)
    with pytest.raises(FourfoldError, match="spot check"):
        extend_to_fourfold(inst1, seed=1, spot_checks=1)
    extend_to_fourfold(inst1, seed=1, spot_checks=0)


def test_bad_restriction_rejected(inst1):
    wrong = MPoly.var(6, 0) ** 3
    with pytest.raises(FourfoldError):
        CubicFourfold(wrong, MPoly.zero(6), inst1, 0)


def test_sample_line_off_hyperplane(four):
    m = sample_line(four, seed=1)
    with mpmath.workprec(300):
        # the line leaves the hyperplane and lies on the fourfold
        assert abs(m.p1[5]) > mpmath.mpf(2) ** -40 * max(abs(x) for x in m.p1)
        resid = _line_residual(four.cubic, m)
        assert resid < mpmath.mpf(10) ** -40


def _line_residual(cubic, line):
    # max scaled coefficient of the cubic restricted to the line
    coeffs = {}
    for e, c in cubic.terms.items():
        idx = [i for i in range(6) for _ in range(e[i])]
        cc = mpmath.mpf(c.numerator) / c.denominator
        for pattern in range(8):
            pts = [line.p0 if (pattern >> k) & 1 else line.p1 for k in range(3)]
            key = bin(pattern).count("1")
            val = cc * pts[0][idx[0]] * pts[1][idx[1]] * pts[2][idx[2]]
            coeffs[key] = coeffs.get(key, mpmath.mpc(0)) + val
    scale = max(abs(mpmath.mpf(c.numerator) / c.denominator)
                for c in cubic.terms.values())
    norm = max(max(abs(x) for x in line.p0), max(abs(x) for x in line.p1)) ** 3
    return max(abs(v) for v in coeffs.values()) / (scale * norm)


def test_iota_factorization_residual(four):
    m = sample_line(four, seed=2)
    res = iota(four, m)
    assert res.factor_residual < 1e-30


def test_iota_involution_ten_lines(four):
    for seed in range(1, 11):
        m = sample_line(four, seed=seed)
        ok, first, second = involution_check(four, m)
        assert ok, f"iota^2 != id for line seed {seed}"
        assert first.factor_residual < 1e-30
        assert second.factor_residual < 1e-30


def test_iota_image_meets_dual_line(four):
    m = sample_line(four, seed=3)
    res = iota(four, m)
    # the image line is coplanar with the dual line by construction: it meets
    # the base plane spanned by y and the dual point
    from sixnodal._numeric import rank_numeric
    rows = [list(res.line.p0), list(res.line.p1), list(res.base_point),
            list(res.dual_line_point)]
    assert rank_numeric(rows, 256) <= 3


def test_iota_rejects_hyperplane_lines(four, inst1):
    from sixnodal.detgeo import ProjLine, special_line
    line5 = special_line(inst1, "fromV", (2, 3, -1))
    import mpmath as mp
    with mp.workprec(300):
        p0 = tuple(mp.mpc(int(x)) for x in line5.p0) + (mp.mpc(0),)
        p1 = tuple(mp.mpc(int(x)) for x in line5.p1) + (mp.mpc(0),)
    m = ProjLine(p0, p1, exact=False, prec=256)
    with pytest.raises(FourfoldError):
        iota(four, m)


@pytest.mark.parametrize("prec", [128, 256])
def test_iota_invariant_under_rescaled_base_point(four, prec):
    from sixnodal.detgeo import ProjLine
    m = sample_line(four, seed=2)
    with mpmath.workprec(prec + 64):
        p0 = tuple(x * mpmath.mpf(10) ** 22 for x in m.p0)
    scaled = ProjLine(p0, m.p1, exact=False, prec=m.prec)
    assert lines_close(iota(four, scaled, prec).line, iota(four, m, prec).line, prec)


def test_scroll_invariance_random_pairs(four):
    rng = random.Random(19)
    for trial in range(10):
        v = tuple(Fraction(rng.randrange(-5, 6)) for _ in range(3))
        if all(x == 0 for x in v):
            v = (1, 0, 0)
        m = sample_line(four, seed=100 + trial)
        si = scroll_incidence_invariance(four, m, v)
        assert si.invariant
        assert not si.meets_before      # generic pairs miss the scroll


def test_scroll_invariance_planted_incidence(four):
    v = (2, 3, -1)
    m = sample_line_through_scroll(four, v, seed=5)
    si = scroll_incidence_invariance(four, m, v)
    assert si.meets_before and si.meets_after
    assert si.invariant
    assert si.margin_before < 1e-40 and si.margin_after < 1e-40


def test_scroll_invariance_reuses_given_image(four):
    v = (2, 3, -1)
    lines = [sample_line(four, seed=s) for s in (1, 2, 3)]
    lines.append(sample_line_through_scroll(four, v, seed=5))
    for m in lines:
        _, first, _ = involution_check(four, m)
        given = scroll_incidence_invariance(four, m, v, image=first.line)
        assert given == scroll_incidence_invariance(four, m, v)
    assert given.meets_before and given.meets_after


@pytest.mark.parametrize("prec", [128, 256])
def test_scroll_margin_matches_per_quadric_evaluation(four, prec):
    # one fixed-point pass over the three quadrics gives the margin that
    # MPoly.evaluate gives quadric by quadric, to the bit
    from sixnodal import _numeric
    from sixnodal.fourfold import _hyperplane_point, _meets_scroll
    v = (2, 3, -1)
    quadrics = scroll_data(four.inst, v).quadrics_v
    lines = [sample_line(four, seed=s, prec=prec) for s in (1, 2)]
    lines.append(sample_line_through_scroll(four, v, seed=5, prec=prec))
    for m in lines:
        with mpmath.workprec(prec + 32):
            y5 = _hyperplane_point(m, prec)[2][:5]
            ref = max(abs(q.evaluate(y5)) / _numeric.to_mpc(max(map(abs, q.terms.values()))).real
                      for q in quadrics)
        assert repr(_meets_scroll(four, m, quadrics, prec)[1]) == repr(float(ref))


@pytest.mark.parametrize("prec", [128, 256])
def test_plane_restriction_matches_exact(four, inst1, prec):
    # plane through three rational points of the fourfold: a node of the
    # hyperplane section (smooth on the fourfold), then twice the third point
    # of a tangent line at the last point (the other two intersections sit
    # at the point of tangency); the last one leaves the hyperplane x5 = 0
    from sixnodal._numeric import default_tolerance, to_mpc
    from sixnodal.fourfold import _plane_restriction
    from sixnodal.poly import restrict_to_subspace
    grads = gradient(four.cubic)
    rng = random.Random(7)
    pts = [tuple(inst1.nodes[0].coords) + (Fraction(0),)]
    while len(pts) < 3:
        base = pts[-1]
        grad = [g.evaluate(base) for g in grads]
        k = max(range(6), key=lambda i: abs(grad[i]))
        d = [Fraction(rng.randrange(-5, 6)) for _ in range(6)]
        d[k] -= sum(a * b for a, b in zip(grad, d)) / grad[k]
        c = _restriction_coeffs(four.cubic, base, d)
        if c[2] == 0 or c[3] == 0:
            continue
        t = -c[2] / c[3]
        pts.append(tuple(a + t * b for a, b in zip(base, d)))
    assert all(four.cubic.evaluate(q) == 0 for q in pts) and pts[2][5] != 0
    exact = restrict_to_subspace(four.cubic, pts)
    with mpmath.workprec(prec + 32):
        basis3 = [tuple(to_mpc(x, prec) for x in q) for q in pts]
        coeffs = _plane_restriction(four.cubic, basis3, prec)
        cmax = max(abs(to_mpc(c, prec)) for c in exact.terms.values())
        assert set(exact.terms) <= set(coeffs)
        for e, c in coeffs.items():
            err = abs(c - to_mpc(exact.coefficient(e), prec))
            assert err <= default_tolerance(prec) * cmax, e


def test_iota_same_on_equal_fourfolds(four, inst1):
    # iota reads nothing but the exact forms of the fourfold, so two equal
    # fourfolds built apart give equal results
    other = extend_to_fourfold(inst1, seed=1, spot_checks=0)
    assert other == four and repr(other) == repr(four)
    assert other != extend_to_fourfold(inst1, seed=2, spot_checks=0)
    for seed in (1, 2, 3):
        m = sample_line(four, seed=seed)
        assert iota(other, m) == iota(four, m)


def test_lines_close_detects_difference(four):
    m1 = sample_line(four, seed=1)
    m2 = sample_line(four, seed=2)
    assert lines_close(m1, m1, 256)
    assert not lines_close(m1, m2, 256)


def test_planted_line_appears_among_candidates(inst1):
    """Engineer the extension quadric so the fourfold contains a chosen
    rational line off the hyperplane; the direction solver must find it."""
    from sixnodal._qlinalg import mat, rank, solve, vec
    from sixnodal.detgeo import (direction_candidates, hessian_matrix,
                                 sample_smooth_point)
    rng = random.Random(71)
    y5 = sample_smooth_point(inst1, rng)
    y = tuple(y5) + (Fraction(0),)
    d = tuple(Fraction(rng.randrange(-5, 6)) for _ in range(5)) + (Fraction(1),)

    grads = [g.evaluate(y5) for g in gradient(inst1.cubic_y)]
    c1 = sum(g * dd for g, dd in zip(grads, d[:5]))
    h = hessian_matrix(inst1.cubic_y, y5)
    c2 = sum(h[i][j] * d[i] * d[j] for i in range(5) for j in range(5)) / 2
    c3 = inst1.cubic_y.evaluate(d[:5])

    monomials = [(i, j) for i in range(6) for j in range(i, 6)]

    def mono_eval(ij, p):
        i, j = ij
        return p[i] * p[j]

    def mono_polar(ij, p, q):
        i, j = ij
        return 2 * p[i] * q[i] if i == j else p[i] * q[j] + p[j] * q[i]

    rows = [[d[5] * mono_eval(ij, y) for ij in monomials],
            [d[5] * mono_polar(ij, y, d) for ij in monomials],
            [d[5] * mono_eval(ij, d) for ij in monomials]]
    coeffs = solve(mat(rows), vec((-c1, -c2, -c3)))
    assert coeffs is not None
    terms = {}
    for (i, j), c in zip(monomials, coeffs):
        if c:
            e = [0] * 6
            e[i] += 1
            e[j] += 1
            terms[tuple(e)] = c
    quad = MPoly(6, terms)
    cubic6 = MPoly(6, {e + (0,): c for e, c in inst1.cubic_y.terms.items()}) \
        + MPoly.var(6, 5) * quad
    four_planted = CubicFourfold(cubic6, quad, inst1, 0)

    # the planted line lies on the fourfold exactly
    assert all(c == 0 for c in _restriction_coeffs(cubic6, y, d))

    # a random chart generically misses one chosen member of the line family,
    # so cut through the planted direction and require it among the solutions
    cands, _elim, _mults = direction_candidates(cubic6, y, prec=256,
                                                _cut_through=d)
    hits = 0
    for cand, exact in cands:
        if exact and rank(mat([list(y), list(d), list(cand)])) == 2:
            hits += 1
    assert hits == 1
