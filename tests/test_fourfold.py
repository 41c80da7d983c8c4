import random
from fractions import Fraction

import mpmath
import pytest

from sixnodal.detgeo import ProjLine, ruling_of_scroll, scroll_data
from sixnodal.fourfold import (CubicFourfold, FourfoldError, extend_to_fourfold,
                               involution_check, iota, lines_close,
                               sample_line, sample_line_through_scroll,
                               scroll_incidence_invariance)
from sixnodal.poly import MPoly, gradient


def _restriction_coeffs(f: MPoly, base, direc):
    """Coefficients of f(base + t*direc) as a polynomial in t, by compose."""
    subs = [MPoly(1, {(0,): Fraction(b), (1,): Fraction(d)}) for b, d in zip(base, direc)]
    u = f.compose(subs)
    out = [Fraction(0)] * (f.degree() + 1)
    for e, c in u.terms.items():
        out[e[0]] = c
    return out


@pytest.fixture(scope="module")
def four(inst1):
    return extend_to_fourfold(inst1, seed=1)


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
    f = extend_to_fourfold(inst1, seed=bad_seed)
    assert all(f.quadric.evaluate(n.coords + (Fraction(0),)) != 0
               for n in inst1.nodes)


# the seed-1 extension quadric, upper triangle by rows: row i holds the
# coefficients of x_i x_j for j >= i
_QUADRIC_SEED1 = [[8, -7, 4, -7, -1, -6], [-7, -1, -6, -1, 5], [-2, -4, 5, -6],
                  [2, -5, -8], [9, -3], [0]]


@pytest.mark.parametrize("inst_seed", [1, 2])
def test_spot_checks_keyword_is_inert(inst_seed):
    # the benchmark's fourfold workload still passes spot_checks=40; the
    # keyword must keep being accepted, and change nothing, until that call
    # drops it
    from sixnodal.detgeo import make_instance
    inst = make_instance(inst_seed)
    four = extend_to_fourfold(inst, seed=1)
    assert extend_to_fourfold(inst, seed=1, spot_checks=40) == four
    want = {}
    for i, row in enumerate(_QUADRIC_SEED1):
        for j, c in enumerate(row, start=i):
            if c:
                e = [0] * 6
                e[i] += 1
                e[j] += 1
                want[tuple(e)] = Fraction(c)
    assert four.quadric.terms == want


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


def _first_candidate_off_hyperplane(four, seed, prec):
    """Reference for sample_line that shares no code with detgeo._lift_roots:
    with sample_line's base points and chart seeds, every root of the
    eliminant from detgeo._eliminant_roots, given the rational roots of the
    core that the probe finds, is lifted to (s, t, -B/A) on the chart, exactly for a rational
    root, and the first direction with |d5| > 2^-16 |d| is returned as a
    numeric line, with the attempt and the root index that gave it.  It is
    also the candidate of direction_candidates at that index."""
    from sixnodal import _numeric
    from sixnodal._qlinalg import Layout, mat_vec, transpose
    from sixnodal.detgeo import (_binary_form_parts, _eliminant_roots, direction_candidates,
                                 direction_chart, sample_smooth_point)
    from sixnodal.poly import _int_terms, _rational_roots_of
    rng = random.Random(f"{four.seed}:{seed}:line")
    for attempt in range(32):
        y = tuple(sample_smooth_point(four.inst, rng)) + (Fraction(0),)
        chart, _q, _c, elim, (a_form, b_form) = direction_chart(
            four.cubic, y, f"{seed}:{attempt}")
        ab_terms = [_int_terms(a_form), _int_terms(b_form)]
        to_ambient = Layout([transpose(chart)])
        with mpmath.workprec(prec + 32):
            probed = _rational_roots_of(_binary_form_parts(elim)[2])
            for index, (st, _mult) in enumerate(_eliminant_roots(elim, prec, probed)):
                if isinstance(st[0], Fraction):
                    d3 = st + (-b_form.evaluate(st) / a_form.evaluate(st),)
                    d = tuple(_numeric.to_mpc(x, prec) for x in mat_vec(to_ambient[0], d3))
                else:
                    a_val, b_val = _numeric.evaluate_fixed(ab_terms, st, prec + 32)
                    d = tuple(_numeric.linear_values(to_ambient, st + (-b_val / a_val,),
                                                     prec)[0])
                if abs(d[5]) > max(abs(x) for x in d) * mpmath.mpf(2) ** -16:
                    cand, exact = direction_candidates(four.cubic, y, prec=prec,
                                                       chart_seed=f"{seed}:{attempt}")[0][index]
                    assert repr(d) == repr(tuple(_numeric.to_mpc(x, prec) if exact else x
                                                 for x in cand))
                    line = ProjLine(tuple(_numeric.to_mpc(x, prec) for x in y), d,
                                    exact=False, prec=prec)
                    return line, attempt, index
    raise AssertionError("no candidate off the hyperplane")


@pytest.mark.parametrize("inst_seed", range(1, 9))
def test_sample_line_matches_the_first_candidate_off_the_hyperplane(inst_seed):
    # the lazily lifted, probe-free sample_line returns the very line of the
    # first root off the hyperplane, in the order of direction_candidates,
    # repr for repr: the cores of these eliminants have no rational root
    from sixnodal.detgeo import make_instance
    four = extend_to_fourfold(make_instance(inst_seed), seed=1)
    for prec in (64, 256):
        for line_seed in (1, 2, 3):
            want = _first_candidate_off_hyperplane(four, line_seed, prec)[0]
            got = sample_line(four, seed=line_seed, prec=prec)
            assert (repr(got.p0), repr(got.p1)) == (repr(want.p0), repr(want.p1))
            assert got.prec == prec and not got.exact


def test_sample_line_runs_no_rational_root_probe(four, monkeypatch):
    from sixnodal import detgeo, poly

    def no_probe(*args):
        raise AssertionError("the rational-root probe ran")

    for module, name in ((poly, "_rational_roots_of_squarefree"), (poly, "_rational_roots_of"),
                         (detgeo, "_rational_roots_of")):
        monkeypatch.setattr(module, name, no_probe)
    for line_seed in (1, 2, 3):
        m = sample_line(four, seed=line_seed)
        with mpmath.workprec(300):
            assert _line_residual(four.cubic, m) < mpmath.mpf(10) ** -40


def test_sample_line_lifts_roots_only_until_one_leaves_the_hyperplane(four, monkeypatch):
    # each lift-residual check is one numeric lift; sample_line stops at the
    # root it returns, where direction_candidates lifts all six roots
    from sixnodal import detgeo
    calls = []
    real = detgeo._lift_residual

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(detgeo, "_lift_residual", counting)
    for line_seed in (1, 2, 3):
        _want, attempt, index = _first_candidate_off_hyperplane(four, line_seed, 256)
        assert attempt == 0
        calls.clear()
        sample_line(four, seed=line_seed)
        assert 1 <= len(calls) <= index + 1


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
    m = sample_line(four, seed=2, prec=prec)
    with mpmath.workprec(prec + 64):
        p0 = tuple(x * mpmath.mpf(10) ** 22 for x in m.p0)
    scaled = ProjLine(p0, m.p1, exact=False, prec=m.prec)
    assert lines_close(iota(four, scaled).line, iota(four, m).line, prec)


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


def _scroll_test_lines(four, v):
    return [sample_line(four, seed=s) for s in (1, 2, 3)] + \
        [sample_line_through_scroll(four, v, seed=5)]


def test_scroll_invariance_same_with_and_without_involution_check(four):
    # the same four lines sampled twice: one copy of each goes through
    # involution_check first, so its iota is remembered, the other not
    v = (2, 3, -1)
    for m, fresh in zip(_scroll_test_lines(four, v), _scroll_test_lines(four, v)):
        assert m == fresh and m is not fresh
        involution_check(four, m)
        after_check = scroll_incidence_invariance(four, m, v)
        assert after_check == scroll_incidence_invariance(four, fresh, v)
    assert after_check.meets_before and after_check.meets_after


def _count_plane_restrictions(monkeypatch):
    from sixnodal import fourfold
    calls = []
    real = fourfold._plane_restriction

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(fourfold, "_plane_restriction", counting)
    return calls


def test_involution_and_scroll_check_run_iota_twice(four, monkeypatch):
    # involution_check computes iota(m) and iota(iota(m)); the scroll
    # incidence test then reads iota(m) from m and takes the image's
    # hyperplane point without a third iota
    calls = _count_plane_restrictions(monkeypatch)
    for seed in (1, 2):
        m = sample_line(four, seed=seed)
        calls.clear()
        ok, first, _ = involution_check(four, m)
        assert ok and len(calls) == 2
        scroll_incidence_invariance(four, m, (2, 3, -1))
        assert len(calls) == 2
        assert iota(four, m) is first


def test_iota_memo_is_per_fourfold_object(four, inst1, monkeypatch):
    # a line remembers iota on the fourfold object it was computed on; an
    # equal fourfold built apart computes afresh and gets an equal result
    other = extend_to_fourfold(inst1, seed=1)
    assert other == four and other is not four
    calls = _count_plane_restrictions(monkeypatch)
    m = sample_line(four, seed=1)
    on_other = iota(other, m)
    assert len(calls) == 1
    on_four = iota(four, m)
    assert len(calls) == 2 and on_four == on_other and on_four is not on_other
    assert iota(four, m) is on_four and len(calls) == 2
    assert iota(other, m) == on_other and len(calls) == 3


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
            y = _hyperplane_point(m, prec)[2]
            ref = max(abs(q.evaluate(y[:5])) / _numeric.to_mpc(max(map(abs, q.terms.values()))).real
                      for q in quadrics)
        assert repr(_meets_scroll(y, quadrics, prec)[1]) == repr(float(ref))


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
    other = extend_to_fourfold(inst1, seed=1)
    assert other == four and repr(other) == repr(four)
    assert other != extend_to_fourfold(inst1, seed=2)
    for seed in (1, 2, 3):
        m = sample_line(four, seed=seed)
        assert iota(other, m) == iota(four, m)


def test_lines_close_detects_difference(four):
    m1 = sample_line(four, seed=1)
    m2 = sample_line(four, seed=2)
    assert lines_close(m1, m1, 256)
    assert not lines_close(m1, m2, 256)


def test_lines_close_normalizes_ties_at_one_coordinate():
    # two lines 2^-200 apart whose two largest Pluecker entries tie in
    # modulus are close; lines far away, or 0 where the first is largest,
    # are not
    prec = 288
    with mpmath.workprec(prec + 32):
        eps = mpmath.mpf(2) ** -200
        e1 = tuple(mpmath.mpc(int(i == 1)) for i in range(6))

        def line(*p0):
            return ProjLine(tuple(mpmath.mpc(x) for x in p0), e1, exact=False, prec=prec)

        a = line(1 + eps, 0, 1, 0, 0, 0)
        assert lines_close(a, line(1, 0, 1 + eps, 0, 0, 0), prec)
        assert lines_close(line(1, 0, 1 + eps, 0, 0, 0), a, prec)
        assert not lines_close(a, line(1, 0, 2, 0, 0, 0), prec)
        assert not lines_close(a, line(0, 0, 1, 0, 0, 0), prec)


def _reference_gap(l1, l2, prec):
    # max_i |a_i/a_k - b_i/b_k| in mpc at prec + 96 bits, k the first
    # coordinate where |a_i| is largest
    with mpmath.workprec(prec + 96):
        a, b = l1._wedge(), l2._wedge()
        k = max(range(len(a)), key=lambda i: abs(a[i]))
        if abs(b[k]) == 0:
            return mpmath.inf
        return max(abs(x / a[k] - y / b[k]) for x, y in zip(a, b))


@pytest.mark.parametrize("prec", [64, 128, 256, 512])
def test_lines_close_agrees_with_mpc_reference(four, prec):
    # sampled lines with one spanning coordinate moved by 2^-k (and by small
    # multiples of tol) relative to the largest: the fixed-point verdict is
    # the one of the mpc reference wherever that gap is clear of the tolerance
    from sixnodal._numeric import check_tolerance
    tol = check_tolerance(prec, 1e-30)
    verdicts = set()
    for seed in (1, 2):
        m = sample_line(four, seed=seed, prec=prec)
        with mpmath.workprec(prec + 96):
            size = max(abs(x) for x in m.p0)
            steps = [mpmath.mpf(2) ** -k for k in range(2, prec + 48, max(1, prec // 32))]
            steps += [mpmath.mpf(tol) * r for r in (0.25, 0.4, 3, 5)]
            moved = []
            for n, step in enumerate(steps):
                p0 = list(m.p0)
                p0[n % 6] += step * size * mpmath.mpc(1, (-1) ** n)
                moved.append(ProjLine(tuple(p0), m.p1, exact=False, prec=prec))
        for other in moved:
            for l1, l2 in ((m, other), (other, m)):
                gap = _reference_gap(l1, l2, prec)
                if tol / 2 <= gap <= 2 * tol:
                    continue
                want = bool(gap < tol)
                assert lines_close(l1, l2, prec, tol) == want, (float(gap), tol)
                verdicts.add(want)
    assert verdicts == {True, False}


def test_iota_builds_the_threefold_gradient_once(inst1, monkeypatch):
    # the integer partials of the threefold cubic are built on the first
    # iota call of a fourfold and read by the later ones
    from sixnodal import fourfold
    four = extend_to_fourfold(inst1, seed=1)
    m = sample_line(four, seed=1)
    calls = []
    monkeypatch.setattr(fourfold, "gradient", lambda f: calls.append(f) or gradient(f))
    first = iota(four, m)
    assert iota(four, m) == first and iota(four, first.line).line is not None
    assert calls == [inst1.cubic_y]


def test_planted_line_appears_among_candidates(inst1):
    """Engineer the extension quadric so the fourfold contains a chosen
    rational line off the hyperplane; the direction solver must find it."""
    from sixnodal._qlinalg import rank, solve, vec
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
    coeffs = solve(rows, vec((-c1, -c2, -c3)))
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
        if exact and rank([list(y), list(d), list(cand)]) == 2:
            hits += 1
    assert hits == 1
