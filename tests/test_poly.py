import ast
import pathlib
import random
from fractions import Fraction
from itertools import combinations_with_replacement
from math import gcd, isqrt

import mpmath
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from sixnodal import poly
from sixnodal._qlinalg import rank
from sixnodal.poly import (ComplexMP, MPoly, PolyError, UPoly, divide_exact,
                           gradient, irreducibility_prime, macaulay_nonzero,
                           macaulay_resultant, poly_det, restrict_to_subspace,
                           resultant_bivariate, roots)


def zero3():
    return MPoly.zero(3)


def random_poly(rng, nvars=3, deg=2, terms=4):
    out = MPoly.zero(nvars)
    for _ in range(terms):
        e = tuple(rng.randrange(0, deg + 1) for _ in range(nvars))
        out = out + MPoly(nvars, {e: Fraction(rng.randrange(-6, 7))})
    return out


def random_homogeneous(rng, nvars, deg):
    out = MPoly.zero(nvars)
    for combo in combinations_with_replacement(range(nvars), deg):
        e = [0] * nvars
        for i in combo:
            e[i] += 1
        c = rng.randrange(-5, 6)
        if c:
            out = out + MPoly(nvars, {tuple(e): Fraction(c)})
    return out


coeffs = st.integers(min_value=-9, max_value=9)


@st.composite
def mpolys(draw, nvars=3):
    n_terms = draw(st.integers(min_value=0, max_value=4))
    terms = {}
    for _ in range(n_terms):
        e = tuple(draw(st.integers(min_value=0, max_value=2)) for _ in range(nvars))
        terms[e] = Fraction(draw(coeffs))
    return MPoly(nvars, terms)


@given(mpolys(), mpolys(), mpolys())
@settings(max_examples=60, deadline=None)
def test_ring_axioms(f, g, h):
    assert (f + g) + h == f + (g + h)
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert f * g == g * f


def test_det_trivia():
    one = MPoly.const(3, 1)
    zero = MPoly.zero(3)
    x = MPoly.variables(3)
    assert poly_det([[one, zero, zero], [zero, one, zero], [zero, zero, one]]) == one
    assert poly_det([[x[0], zero, zero], [zero, x[1], zero], [zero, zero, x[2]]]) \
        == x[0] * x[1] * x[2]
    with pytest.raises(PolyError):
        poly_det([[one, zero]])


def test_det_multiplicative():
    rng = random.Random(3)
    for n in (2, 3):
        a = [[MPoly.const(1, rng.randrange(-5, 6)) for _ in range(n)] for _ in range(n)]
        b = [[MPoly.const(1, rng.randrange(-5, 6)) for _ in range(n)] for _ in range(n)]
        ab = [[sum((a[i][k] * b[k][j] for k in range(n)), MPoly.zero(1))
               for j in range(n)] for i in range(n)]
        assert poly_det(ab) == poly_det(a) * poly_det(b)


def test_scroll_matrix_determinant_vanishes_on_rank1_locus():
    # rows (x0,x1,x2), (x2,x3,x4), (y0,y1,y2) with generic linear last row:
    # substituting the rank-1 parametrization kills the determinant
    rng = random.Random(11)
    x = MPoly.variables(5)
    last = [MPoly.linear_form([Fraction(rng.randrange(-4, 5)) for _ in range(5)])
            for _ in range(3)]
    det = poly_det([[x[0], x[1], x[2]], [x[2], x[3], x[4]], last])
    # (u, v, w) -> (u^2, uv, uw, vw, w^2)
    u, v, w = MPoly.variables(3)
    param = [u * u, u * v, u * w, v * w, w * w]
    assert det.compose(param).is_zero()


def test_gradient_and_euler():
    x = MPoly.variables(3)
    f = x[0] * x[1] * x[2]
    assert gradient(f) == [x[1] * x[2], x[0] * x[2], x[0] * x[1]]
    rng = random.Random(5)
    cubic = random_homogeneous(rng, 4, 3)
    euler = sum((MPoly.var(4, i) * cubic.partial(i) for i in range(4)),
                MPoly.zero(4))
    assert euler == cubic * 3


def test_resultant_linear_forms():
    # res_x(x - a, x - b) is proportional to a - b; here a = y, b = 2y
    f = MPoly.var(2, 0) - MPoly.var(2, 1)
    g = MPoly.var(2, 0) - MPoly.var(2, 1) * 2
    r = resultant_bivariate(f, g, 0)
    assert r.degree() == 1 and r.coeffs[1] != 0


def test_resultant_self_is_zero():
    f = MPoly.var(2, 0) ** 3 - MPoly.var(2, 0) * MPoly.var(2, 1) + MPoly.const(2, 1)
    assert resultant_bivariate(f, f, 0).is_zero()


def test_resultant_common_root():
    # f = (x - y)(x - 2y), g = (x - y)(x - 3y) share the root x = y
    x, y = MPoly.variables(2)
    f = (x - y) * (x - 2 * y)
    g = (x - y) * (x - 3 * y)
    assert resultant_bivariate(f, g, 0).is_zero()


@pytest.mark.parametrize("df,dg", [(2, 3), (3, 3)])
def test_binary_resultant_matches_resultant_bivariate(df, dg):
    # both run the one Sylvester builder; with x1 = 1 in the coefficients the
    # ternary resultant is the bivariate one, since the x2^d coefficients are
    # nonzero constants and the degrees in x2 survive
    from sixnodal.detgeo import binary_resultant
    rng = random.Random(10 * df + dg)
    checked = 0
    while checked < 3:
        f = random_homogeneous(rng, 3, df)
        g = random_homogeneous(rng, 3, dg)
        if f.coefficient((0, 0, df)) == 0 or g.coefficient((0, 0, dg)) == 0:
            continue
        res = binary_resultant(f, g, 2)
        assert res.degree() == df * dg
        dense = [Fraction(0)] * (df * dg + 1)
        for (e0, _e1), c in res.terms.items():
            dense[e0] += c

        def dehomogenize(p):
            return MPoly(2, {(e[0], e[2]): c for e, c in p.terms.items()})

        assert resultant_bivariate(dehomogenize(f), dehomogenize(g), 1) \
            == UPoly(dense)
        checked += 1


def test_binary_resultant_rejects_double_constants():
    from sixnodal.detgeo import DetGeoError, binary_resultant
    x = MPoly.variables(3)
    with pytest.raises(DetGeoError):
        binary_resultant(x[0] ** 2 + x[1] ** 2, x[0] * x[1], 2)


def test_macaulay_coordinate_squares():
    forms = [MPoly.var(4, i) ** 2 for i in range(4)]
    assert macaulay_resultant(forms) == 1
    assert macaulay_nonzero(forms)


def test_macaulay_fermat_smooth():
    fermat = sum((MPoly.var(4, i) ** 3 for i in range(4)), MPoly.zero(4))
    val = macaulay_resultant(gradient(fermat))
    assert val == 3 ** 32  # each partial carries a factor 3; Res is octic in each
    assert macaulay_nonzero(gradient(fermat))


def test_macaulay_cayley_singular():
    x = MPoly.variables(4)
    cayley = x[0] * x[1] * x[2] + x[0] * x[1] * x[3] + x[0] * x[2] * x[3] \
        + x[1] * x[2] * x[3]
    parts = gradient(cayley)
    node = (1, 0, 0, 0)
    assert cayley.evaluate(node) == 0
    assert all(p.evaluate(node) == 0 for p in parts)
    assert macaulay_resultant(parts) == 0
    assert not macaulay_nonzero(parts)


def test_macaulay_matches_smoothness_spotchecks():
    rng = random.Random(19)
    smooth, singular = 0, 0
    for trial in range(25):
        if trial < 20:
            f = random_homogeneous(rng, 4, 3)
            if f.is_zero():
                continue
        else:
            # plant a node at the last coordinate point: x3*q + c with q, c
            # forms in the first three coordinates
            q = random_homogeneous(rng, 3, 2)
            c = random_homogeneous(rng, 3, 3)
            if q.is_zero():
                continue
            lift_q = MPoly(4, {e + (0,): v for e, v in q.terms.items()})
            lift_c = MPoly(4, {e + (0,): v for e, v in c.terms.items()})
            f = MPoly.var(4, 3) * lift_q + lift_c
        verdict = macaulay_nonzero(gradient(f))
        try:
            val = macaulay_resultant(gradient(f))
        except PolyError:
            continue
        assert verdict == (val != 0)
        sing_found = _has_singular_point(f, rng)
        if val != 0:
            smooth += 1
            assert not sing_found
        else:
            singular += 1
            if trial >= 20:
                # the planted point really is singular
                assert all(g.evaluate((0, 0, 0, 1)) == 0 for g in gradient(f))
    assert smooth >= 10 and singular >= 5


def test_macaulay_rational_coefficients():
    x = MPoly.variables(4)
    scales = [Fraction(1, 2), Fraction(3, 5), Fraction(1), Fraction(-1, 7)]
    forms = [x[i] ** 2 * c for i, c in enumerate(scales)]
    # Res is homogeneous of degree 2^3 = 8 in the coefficients of each form
    expected = Fraction(1)
    for c in scales:
        expected *= c ** 8
    assert macaulay_resultant(forms) == expected

    rng = random.Random(23)
    for _ in range(4):
        f = random_homogeneous(rng, 4, 3)
        q = Fraction(rng.choice([3, 7, 11]), rng.choice([2, 5, 13]))
        # each of the four partials is scaled by q, so Res scales by q^32
        assert macaulay_resultant(gradient(f * q)) \
            == q ** 32 * macaulay_resultant(gradient(f))


def _macaulay_corpus():
    x = MPoly.variables(4)
    corpus = [[x[i] ** 2 for i in range(4)],
              gradient(sum((x[i] ** 3 for i in range(4)), MPoly.zero(4))),
              gradient(x[0] * x[1] * x[2] + x[0] * x[1] * x[3]
                       + x[0] * x[2] * x[3] + x[1] * x[2] * x[3]),
              [x[i] ** 2 * Fraction(1, i + 2) for i in range(4)]]
    rng = random.Random(19)
    for _ in range(12):
        f = random_homogeneous(rng, 4, 3) * Fraction(rng.randrange(1, 9), 3)
        if not f.is_zero():
            corpus.append(gradient(f))
    # rational multiples of a cubic plus a third of another
    rng = random.Random(23)
    for _ in range(4):
        q = Fraction(rng.choice([3, 7, 11]), rng.choice([2, 5, 13]))
        g = random_homogeneous(rng, 4, 3) * q \
            + random_homogeneous(rng, 4, 3) * Fraction(1, 3)
        if not g.is_zero():
            corpus.append(gradient(g))
    return corpus


def test_macaulay_verdict_exact_fallback(monkeypatch):
    corpus = _macaulay_corpus()
    # no corpus case raises: the rank verdict has nothing to retry
    verdicts = [macaulay_nonzero(forms) for forms in corpus]
    assert verdicts == [macaulay_resultant(forms) != 0 for forms in corpus]
    assert True in verdicts and False in verdicts
    exact_calls = []
    real_rank = poly.rank

    def counting_rank(m):
        r = real_rank(m)
        exact_calls.append((len(m), len(m[0]), r))
        return r

    # mod 3 the Fermat partials 3x^2 vanish, and so do many other residues:
    # the verdicts must come from the exact rank and agree
    monkeypatch.setattr(poly, "_MACAULAY_PRIME", 3)
    monkeypatch.setattr(poly, "rank", counting_rank)
    assert [macaulay_nonzero(forms) for forms in corpus] == verdicts
    # a deficit mod 3 that the exact rank overturns: the 80 x 56 matrix of
    # the Fermat partials has full column rank over Q
    assert (80, 56, 56) in exact_calls


def test_macaulay_verdict_skips_exact_rank(monkeypatch, inst1):
    def no_exact(m):
        raise AssertionError("exact arithmetic ran")

    monkeypatch.setattr(poly, "rank", no_exact)
    monkeypatch.setattr(poly, "int_det_bareiss", no_exact)
    assert macaulay_nonzero(gradient(inst1.cubic_s))


def test_macaulay_nonzero_zero_form_is_false():
    x = MPoly.variables(4)
    # a cone over a smooth plane cubic: its vertex (0, 0, 0, 1) is singular
    # and its x3-partial is the zero form
    cone = gradient(x[0] ** 3 + x[1] ** 3 + x[2] ** 3)
    assert cone[3].is_zero()
    assert not macaulay_nonzero(cone)
    with pytest.raises(PolyError):
        macaulay_resultant(cone)
    assert not macaulay_nonzero([x[0] ** 2, x[1] ** 2, x[2] ** 2, MPoly.zero(4)])
    assert not macaulay_nonzero([MPoly.zero(4)] * 4)
    # a nonzero constant never vanishes, whatever the other forms are
    assert macaulay_nonzero([MPoly.const(4, 5), MPoly.zero(4), x[1], x[2]])


def test_macaulay_nonzero_ternary():
    y = MPoly.variables(3)
    fermat = gradient(y[0] ** 3 + y[1] ** 3 + y[2] ** 3)
    assert macaulay_nonzero(fermat)
    assert macaulay_resultant(fermat) != 0
    # the nodal cubic y^2 z = x^3 + x^2 z, singular at (0, 0, 1)
    nodal = y[1] ** 2 * y[2] - y[0] ** 3 - y[0] ** 2 * y[2]
    parts = gradient(nodal)
    assert all(p.evaluate((0, 0, 1)) == 0 for p in parts)
    assert not macaulay_nonzero(parts)
    assert macaulay_resultant(parts) == 0


def _has_singular_point(f, rng, tries=200):
    parts = gradient(f)
    for _ in range(tries):
        p = tuple(Fraction(rng.randrange(-3, 4)) for _ in range(4))
        if all(x == 0 for x in p):
            continue
        if f.evaluate(p) == 0 and all(g.evaluate(p) == 0 for g in parts):
            return True
    return False


def test_roots_sqrt6():
    rs = roots(UPoly([-6, 0, 1]), 256)
    assert len(rs) == 2
    with mpmath.workprec(320):
        for r, mult in rs:
            assert mult == 1
            z = r.to_mpc()
            err = abs(abs(z.real) - mpmath.sqrt(6))
            assert err < mpmath.mpf(10) ** -50
            assert abs(z.imag) < mpmath.mpf(10) ** -50


def test_roots_exact_cube():
    p = UPoly([-1, 2])
    rs = roots(p * p * p, 128)
    assert rs == [(Fraction(1, 2), 3)]


def _product(factors):
    out = UPoly.const(1)
    for f in factors:
        out = out * f
    return out


def _root_cases():
    """(p, its rational roots, or None where only the divisor rule is
    checked): random small polynomials, then cases aimed at the modular
    rational-root finder."""
    rng = random.Random(23)
    for _ in range(10):
        coeffs = [Fraction(rng.randrange(-9, 10)) for _ in range(rng.randrange(3, 7))]
        if not coeffs[-1]:
            coeffs[-1] = Fraction(1)
        yield UPoly(coeffs), None
    # roots of 300+ bits in numerator and denominator, times x^3 - 2
    rng = random.Random(31)
    big = [Fraction(rng.getrandbits(320) | (1 << 320), rng.getrandbits(320) | (1 << 320) | 1)
           * rng.choice((-1, 1)) for _ in range(3)]
    assert all(r.numerator.bit_length() >= 300 and r.denominator.bit_length() >= 300 for r in big)
    yield _product([UPoly([-r, 1]) for r in big] + [UPoly([-2, 0, 0, 1])]), big
    # a root mod every prime, but no rational root
    yield _product([UPoly([-2, 0, 1]), UPoly([-3, 0, 1]), UPoly([-6, 0, 1])]), []
    # a root mod 10007 that reconstructs to -33/2, which is no root; the
    # count of 0 roots mod 10009 rules it out first
    yield UPoly([47, -17, -39, 3]), []
    # roots mod each of the first four usable primes, and a root mod the one
    # with the fewest reconstructs to -36, which is no root
    yield UPoly([54, 2, 41, 5]), []
    # a leading coefficient divisible by the first primes the finder walks
    lead = 10007 * 10009 * 10037 * 10039
    yield (_product([UPoly([-3, lead]), UPoly([5, 2 * lead]), UPoly([1, 1, 1])]),
           [Fraction(3, lead), Fraction(-5, 2 * lead)])


def test_roots_multiplicity_sum_and_rational_divisors():
    from math import lcm
    for p, expected in _root_cases():
        if p.degree() < 1:
            continue
        rs = roots(p, 128)
        assert sum(m for _, m in rs) == p.degree()
        rational = sorted(r for r, _ in rs if isinstance(r, Fraction))
        if expected is not None:
            assert rational == sorted(expected)
        # integer-cleared coefficients: a root a/b in lowest terms must have
        # b | leading and a | (lowest nonzero coefficient)
        den = lcm(*[c.denominator for c in p.coeffs])
        ints = [int(c * den) for c in p.coeffs]
        lead = ints[-1]
        trail = next(c for c in ints if c != 0)
        for r in rational:
            assert p(r) == 0
            if r != 0:
                assert lead % r.denominator == 0
                assert trail % r.numerator == 0


def _single_prime_rational_roots(ints):
    # the rational-root probe before root counts: lift every root mod the
    # first usable prime, reconstruct, check exactly
    prime = poly._squarefree_prime(ints)
    nbound, dbound = abs(ints[0]), abs(ints[-1])
    deriv = [i * c for i, c in enumerate(ints)][1:]
    out = []
    for r in sorted(poly._split_linear(poly._linear_part_mod(ints, prime), prime)):
        m = prime
        while m <= 2 * nbound * dbound:
            m *= m
            r = (r - poly._eval_mod(ints, r, m)
                 * pow(poly._eval_mod(deriv, r, m), -1, m)) % m
        cand = poly._fraction_from_residue(r, m, nbound, dbound)
        if cand is not None and UPoly(ints)(Fraction(*cand)) == 0:
            out.append(Fraction(*cand))
    return sorted(out)


def _recording_reconstruction(monkeypatch):
    calls = []
    real = poly._fraction_from_residue

    def recording(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(poly, "_fraction_from_residue", recording)
    return calls


def test_rational_probe_lifts_when_every_prime_has_roots(monkeypatch):
    # one of 2, 3, 6 is a square mod every prime, so each count is positive
    ints = poly._primitive_int_coeffs(
        _product([UPoly([-2, 0, 1]), UPoly([-3, 0, 1]), UPoly([-6, 0, 1])]))
    calls = _recording_reconstruction(monkeypatch)
    assert poly._int_rational_roots(ints) == []
    assert calls


def test_rational_probe_finds_roots_beside_an_irreducible_cubic():
    # x^3 - 2 is irreducible over Q and has a root mod 10007 (10007 = 2 mod 3)
    cubic = [-2, 0, 0, 1]
    assert len(poly._linear_part_mod(cubic, 10007)) == 2
    ints = poly._primitive_int_coeffs(
        _product([UPoly([-3, 7]), UPoly([5, 1]), UPoly(cubic)]))
    got = poly._int_rational_roots(ints)
    assert sorted(Fraction(a, b) for a, b in got) == [-5, Fraction(3, 7)]


def test_rational_probe_rules_out_roots_without_lifting(monkeypatch, inst1):
    # x^2 + 1 has no root mod 10007 = 3 mod 4; the core of the first chart
    # eliminant of sample_line(four, seed=2) has 2 roots mod 10007 and 10009,
    # none mod 10037 (sample_line itself sends it to Aberth with no probe)
    eliminant = poly._primitive_int_coeffs(UPoly(_fourfold_eliminant(inst1, line_seed=2)))
    assert [len(poly._linear_part_mod(eliminant, q)) - 1
            for q in (10007, 10009, 10037)] == [2, 2, 0]

    def no_lifting(*args):
        raise AssertionError("a root was lifted")

    monkeypatch.setattr(poly, "_fraction_from_residue", no_lifting)
    for ints in ([1, 0, 1], eliminant):
        assert poly._int_rational_roots(ints) == []


def test_linear_rational_root_skips_the_probe(monkeypatch):
    def no_probe(ints):
        raise AssertionError("a linear polynomial went to the probe")

    monkeypatch.setattr(poly, "_int_rational_roots", no_probe)
    c0, c1 = 3 ** 190 + 7, -(2 ** 300 + 1)
    root = Fraction(-c0, c1)
    for p, expected in ((UPoly([c0, c1]), [root]), (UPoly([0, c0, c1]), [0, root])):
        assert poly._rational_roots_of_squarefree(p) == sorted(expected)


def test_rational_probe_matches_single_prime_reference():
    rng = random.Random(59)
    checked = 0
    while checked < 200:
        roots_planted = {Fraction(rng.randrange(-30, 31), rng.randrange(1, 8))
                         for _ in range(rng.randrange(0, 4))} - {0}
        factors = [UPoly([-r, 1]) for r in roots_planted]
        for _ in range(rng.randrange(0 if factors else 1, 3)):
            # x^2 + bx + c with a discriminant that is no square: no rational root
            b, c = rng.randrange(-20, 21), rng.randrange(-40, 41)
            disc = b * b - 4 * c
            if c and (disc < 0 or int(disc ** 0.5 + 0.5) ** 2 != disc):
                factors.append(UPoly([c, b, 1]))
        p = _product(factors)
        if p.degree() < 1 or p.gcd(p.derivative()).degree() > 0:
            continue
        ints = poly._primitive_int_coeffs(p)
        got = sorted(Fraction(a, b) for a, b in poly._int_rational_roots(ints))
        assert got == _single_prime_rational_roots(ints) == sorted(roots_planted), ints
        checked += 1


@st.composite
def planted_polynomials(draw):
    """(primitive integer coefficients, planted rational roots): up to three
    rational roots of 1 to 400 numerator bits and 1 to 120 denominator bits,
    times irreducible factors that have roots mod many primes (spurious
    roots mod q), some with large coefficients."""
    roots = set()
    for _ in range(draw(st.integers(0, 3))):
        a = draw(st.integers(1, 2 ** draw(st.integers(1, 400))))
        b = draw(st.integers(1, 2 ** draw(st.integers(1, 120))))
        roots.add(Fraction(draw(st.sampled_from([-1, 1])) * a, b))
    factors = [UPoly([-r.numerator, r.denominator]) for r in roots]
    factors += draw(st.lists(st.sampled_from(
        [(-2, 0, 1), (-3, 0, 1), (-6, 0, 1), (-2, 0, 0, 1), (-5, 1, 0, 1),
         (1, 0, -10, 0, 1)]), max_size=2, unique=True))
    for _ in range(draw(st.integers(0, 1))):
        # x^2 + b x + c with b, c of up to 300 bits and no square discriminant
        b = draw(st.integers(-2 ** 300, 2 ** 300))
        c = draw(st.integers(1, 2 ** 300))
        if b * b - 4 * c < 0 or isqrt(b * b - 4 * c) ** 2 != b * b - 4 * c:
            factors.append((c, b, 1))
    p = _product([f if isinstance(f, UPoly) else UPoly(list(f)) for f in factors])
    assume(p.degree() >= 2 and p.gcd(p.derivative()).degree() == 0)
    return poly._primitive_int_coeffs(p), sorted(roots)


@given(planted_polynomials())
@settings(max_examples=150, deadline=None)
def test_early_terminating_probe_matches_full_lift(case):
    # early termination changes when a root is found, never what is returned:
    # each root once, in lowest terms with b > 0, as the full lift finds them
    ints, planted = case
    got = poly._int_rational_roots(ints)
    assert all(b > 0 and gcd(a, b) == 1 for a, b in got)
    assert sorted(Fraction(a, b) for a, b in got) == _single_prime_rational_roots(ints) == planted


@pytest.mark.parametrize("seed", range(1, 11))
def test_early_terminating_probe_on_criterion09_eliminants(seed):
    # the eliminant cores of the three criterion-09 points of each seed
    from sixnodal.detgeo import (_binary_form_parts, direction_chart, make_instance,
                                 sample_smooth_point)
    inst = make_instance(seed)
    rng = random.Random(seed + 500)
    for _ in range(3):
        y = sample_smooth_point(inst, rng)
        core = _binary_form_parts(direction_chart(inst.cubic_y, y)[3])[2]
        ints = poly._primitive_int_coeffs(core)
        got = sorted(Fraction(a, b) for a, b in poly._int_rational_roots(ints))
        assert got and got == _single_prime_rational_roots(ints)


def test_residue_root_rejects_reconstructions_that_are_no_root():
    # x^3 - 2 times a root of 190/140 bits: the residue of the cube root of 2
    # mod 10007 reconstructs to fractions within the bounds at intermediate
    # moduli, and only the exact check turns them down
    big = Fraction(3 ** 120 + 1, 5 ** 60 + 2)
    ints = poly._primitive_int_coeffs(
        _product([UPoly([-2, 0, 0, 1]), UPoly([-big.numerator, big.denominator])]))
    q = 10007
    deriv = [i * c for i, c in enumerate(ints)][1:]
    (r,) = [r for r in poly._split_linear(poly._linear_part_mod(ints, q), q)
            if (r * big.denominator - big.numerator) % q]
    offered, m = 0, q
    while m <= 2 * abs(ints[0]) * abs(ints[-1]):
        m *= m
        r = (r - poly._eval_mod(ints, r, m) * pow(poly._eval_mod(deriv, r, m), -1, m)) % m
        half = isqrt(m // 2)
        cand = poly._fraction_from_residue(r, m, half, half)
        offered += bool(cand and abs(cand[0]) <= abs(ints[0]) and cand[1] <= abs(ints[-1]))
        assert poly._residue_root(ints, r, m, q, half, half) is None
    assert offered >= 2
    assert poly._int_rational_roots(ints) == [(big.numerator, big.denominator)]


def test_residue_root_needs_a_unit_denominator():
    # r = 3/5 mod q^3 but not mod q^4: at m = q^4 the balanced reconstruction
    # is (3q, 5q), which passes the homogenized exact check, yet 3q/5q is not
    # r mod m; only a/b with q not dividing b is taken, so a/b = r mod m
    q = 10007
    m = q ** 4
    ints = poly._primitive_int_coeffs(
        _product([UPoly([-3, 5]), UPoly([7 * q ** 3 + 1, 0, 11 * q ** 3 + 2])]))
    genuine = 3 * pow(5, -1, m) % m
    shifted = (genuine + q ** 3) % m
    half = isqrt(m // 2)
    assert poly._fraction_from_residue(shifted, m, half, half) == (3 * q, 5 * q)
    assert poly._residue_root(ints, genuine, m, q, half, half) == (3, 5)
    assert poly._residue_root(ints, shifted, m, q, half, half) is None


def test_squarefree_fast_path_matches_exact_yun(monkeypatch):
    from sixnodal import poly
    rng = random.Random(47)
    cases = []
    for _ in range(12):
        factors = [UPoly([Fraction(rng.randrange(-9, 10), rng.randrange(1, 4))
                          for _ in range(rng.randrange(2, 4))] + [rng.randrange(1, 5)])
                   for _ in range(rng.randrange(1, 4))]
        powers = [rng.randrange(1, 4) for _ in factors]
        cases.append(_product([_product([f] * k) for f, k in zip(factors, powers)]))
    fast = [(p.squarefree_decomposition(), p.is_squarefree()) for p in cases]
    monkeypatch.setattr(poly, "_squarefree_prime", lambda ints, tries=None: None)
    exact = [(p.squarefree_decomposition(), p.is_squarefree()) for p in cases]
    assert fast == exact
    assert any(len(d) > 1 or d[0][1] > 1 for d, _ in exact)
    assert any(sq for _, sq in exact)
    for p, (dec, sq) in zip(cases, exact):
        assert _product([_product([q] * k) for q, k in dec]) == p.monic()
        assert sq == all(k == 1 for _, k in dec)


def _no_root_mod(ints, q):
    return all(sum(c * pow(x, i, q) for i, c in enumerate(ints)) % q
               for x in range(q))


@pytest.mark.parametrize("coeffs", [[-2, 0, 0, 0, 1], [1, 1, 0, 0, 1]],
                         ids=["x^4-2", "x^4+x+1"])
def test_irreducibility_prime_certifies(coeffs):
    q = irreducibility_prime(UPoly(coeffs))
    assert q is not None and q >= 10007
    assert all(q % k for k in range(2, int(q ** 0.5) + 1))
    assert _no_root_mod(coeffs, q)


def test_irreducibility_prime_certifies_seed1_lines_quartic(inst1):
    # the irrational part of the eliminant at the first criterion-09 point
    from sixnodal.detgeo import _binary_form_parts, direction_chart, sample_smooth_point
    y = sample_smooth_point(inst1, random.Random(501))
    core = _binary_form_parts(direction_chart(inst1.cubic_y, y)[3])[2]
    ints = poly._primitive_int_coeffs(core)
    for r in poly._rational_roots_of_squarefree(core):
        ints = poly._deflate(ints, r)
    quartic = UPoly(ints)
    assert quartic.degree() == 4
    assert irreducibility_prime(quartic) is not None


@pytest.mark.parametrize("g", [
    _product([UPoly([-2, 0, 1]), UPoly([-3, 0, 1])]),
    _product([UPoly([-1, 1]), UPoly([-2, 0, 0, 1])]),
    _product([UPoly([1, 0, 1]), UPoly([1, 0, 1]), UPoly([-2, 0, 0, 1])]),
    # irreducible over Q, but it factors mod every prime
    UPoly([1, 0, 0, 0, 1]),
], ids=["(x^2-2)(x^2-3)", "(x-1)(x^3-2)", "not_squarefree", "x^4+1"])
def test_irreducibility_prime_gives_up(g, monkeypatch):
    tried = []
    real_next_prime = poly._next_prime

    def counting_next_prime(n):
        tried.append(n)
        return real_next_prime(n)

    monkeypatch.setattr(poly, "_next_prime", counting_next_prime)
    assert irreducibility_prime(g) is None
    assert len(tried) == poly._IRREDUCIBLE_TRIES


def test_irreducibility_prime_skips_prime_dividing_leading_coefficient():
    # mod 10007 this is x^3 + x + 1, which has no root there and so would
    # pass the factor test at the wrong degree
    assert _no_root_mod([1, 1, 0, 1], 10007)
    q = irreducibility_prime(UPoly([1, 1, 0, 1, 10007]))
    assert q is not None and q > 10007


def _ref_rank_mod(rows, prime):
    """Dense Gaussian elimination over GF(prime)."""
    m = [[x % prime for x in row] for row in rows]
    rank = 0
    for c in range(len(m[0]) if m else 0):
        pivot = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = pow(m[rank][c], -1, prime)
        for i in range(rank + 1, len(m)):
            f = m[i][c] * inv % prime
            m[i] = [(x - f * y) % prime for x, y in zip(m[i], m[rank])]
        rank += 1
    return rank


def _rank_mod_cases(monkeypatch):
    rng = random.Random(67)
    cases = []
    for n in range(1, 9):        # random, a third of the entries zero
        cases.append([[rng.choice((0, rng.randrange(-50, 51))) for _ in range(n)]
                      for _ in range(n)])
    for rows, cols in ((7, 3), (3, 7), (12, 5)):   # tall and wide
        cases.append([[rng.randrange(-9, 10) for _ in range(cols)]
                      for _ in range(rows)])
    for n in (3, 5):             # 300-bit entries
        cases.append([[rng.getrandbits(300) - (1 << 299) for _ in range(n)]
                      for _ in range(n)])
    # deficient: a repeated row, a zero column, a zero row, a row sum,
    # and full rank over Q but not mod 10007 or mod 3
    cases.append([[1, 2, 3], [4, 5, 6], [1, 2, 3]])
    cases.append([[0, 1, 2], [0, 3, 4], [0, 5, 7]])
    cases.append([[1, 2], [0, 0], [3, 4]])
    cases.append([[1, 2, 3, 4], [5, 6, 7, 8], [6, 8, 10, 12], [1, 0, 0, 1]])
    cases.append([[10007, 0], [0, 1]])
    cases.append([[3, 6], [1, 5]])
    # pivot swaps: zero diagonals, anti-diagonal, a pivot that vanishes late
    cases.append([[0, 1], [1, 0]])
    cases.append([[int(i + j == 4) * (i + 2) for j in range(5)] for i in range(5)])
    cases.append([[1, 1, 1], [1, 1, 2], [1, 2, 2]])
    # the Macaulay matrices of the seed-1 instance and its slice certificate
    seen = []
    real_rank_mod = poly._rank_mod

    def recording_rank_mod(rows, prime):
        seen.append([list(r) for r in rows])
        return real_rank_mod(rows, prime)

    monkeypatch.setattr(poly, "_rank_mod", recording_rank_mod)
    from sixnodal.detgeo import certify_finite_singular_locus, make_instance
    certify_finite_singular_locus(make_instance(1))
    monkeypatch.undo()
    assert seen and all((len(m), len(m[0])) == (80, 56) for m in seen)
    return cases + seen


def test_rank_mod_matches_reference_rank(monkeypatch):
    from sixnodal._qlinalg import rank
    deficient = full = 0
    for rows in _rank_mod_cases(monkeypatch):
        for prime in (3, 10007, poly._MACAULAY_PRIME):
            assert poly._rank_mod(rows, prime) == _ref_rank_mod(rows, prime), \
                (rows, prime)
        # no case is unlucky at the verdict's prime: its rank is the one over Q
        r = rank(rows)
        assert poly._rank_mod(rows, poly._MACAULAY_PRIME) == r
        full += r == len(rows[0])
        deficient += r < min(len(rows), len(rows[0]))
    assert full >= 10 and deficient >= 4
    assert poly._rank_mod([[10007, 0], [0, 1]], 10007) == 1
    assert poly._rank_mod([[3, 6], [1, 5]], 3) == 1


def test_rank_mod_slot_width_holds_on_dense_near_prime_entries():
    # entries in [p - 50, p): after the first pivot the residues spread over
    # [0, p), so every later reduction adds up to p^2 to a slot, and a row
    # takes up to n - 1 of them; a slot of 2 bits(p) bits would carry into
    # the next column, which shows on the deficient matrices
    p = poly._MACAULAY_PRIME
    rng = random.Random(29)
    cases = []
    for n in (40, 56, 64):
        for _ in range(2):
            cases.append([[p - rng.randrange(1, 51) for _ in range(n)] for _ in range(n)])
        for drop in (1, 2, 5):
            m = [[p - rng.randrange(1, 51) for _ in range(n)] for _ in range(n - drop)]
            # copies and sums of earlier rows, placed last and in the middle
            extra = [list(m[rng.randrange(n - drop)]) for _ in range(drop - 1)]
            extra.append([a + b for a, b in zip(m[0], m[-1])])
            m[n // 2:n // 2] = extra[:1]
            cases.append(m + extra[1:])
    cases.append([[p - rng.randrange(1, 51) for _ in range(56)] for _ in range(80)])
    deficient = 0
    for rows in cases:
        expected = _ref_rank_mod(rows, p)
        assert poly._rank_mod(rows, p) == expected, (len(rows), len(rows[0]))
        deficient += expected < min(len(rows), len(rows[0]))
    assert len(cases) == 16 and deficient == 9


def _jet_reference(f: MPoly, xs):
    """Value, gradient and Hessian of f at xs from MPoly.partial."""
    grad = gradient(f)
    return [f.evaluate(xs), [g.evaluate(xs) for g in grad],
            [[g.partial(j).evaluate(xs) for j in range(f.nvars)] for g in grad]]


def test_int_jet_matches_partials():
    # dense and sparse polynomials of degree 0-4, with squares, cubes and
    # fourth powers, at points with zero, negative and large coordinates
    rng = random.Random(31)
    polys = [random_poly(rng, nvars, deg, terms) for nvars in (1, 3, 5)
             for deg, terms in ((0, 1), (2, 5), (4, 9))]
    polys += [random_homogeneous(rng, 4, 3), random_homogeneous(rng, 5, 4),
              MPoly.zero(3), MPoly.variables(2)[0] ** 4]
    for f in polys:
        terms, den = poly._int_terms(f)
        for xs in ([0] * f.nvars, [rng.randrange(-9, 10) for _ in range(f.nvars)],
                   [rng.getrandbits(80) - (1 << 79) for _ in range(f.nvars)]):
            value, grad, hess = _jet_reference(f, xs)
            jet = poly._int_jet(terms, xs)
            assert jet == [value * den, [g * den for g in grad],
                           [[h * den for h in row] for row in hess]]
            assert poly._int_jet(terms, xs, 1) == jet[:2]


def test_int_terms_cache_matches_fresh_clearing():
    # every way an MPoly is built leaves the cache empty; the first call
    # fills it with what clearing the terms gives, in term order, and later
    # calls return that same pair
    x = MPoly.variables(3)
    f = MPoly(3, {(1, 0, 0): Fraction(1, 2), (0, 2, 1): Fraction(-3, 7),
                  (0, 0, 0): Fraction(5)})
    g = MPoly._wrap(3, {(2, 0, 0): Fraction(5, 6), (0, 1, 0): Fraction(-1, 4)})
    assert f._ints is None and g._ints is None
    poly._int_terms(f)
    poly._int_terms(g)                  # operands with their caches filled
    built = [MPoly.zero(3), MPoly.const(3, Fraction(2, 9)), x[1],
             MPoly.linear_form([Fraction(1, 3), 0, Fraction(-2, 5)]),
             MPoly.from_json(f.to_json()), f + g, f - g, -f, f * g, f * Fraction(3, 4),
             g ** 3, f.partial(0), f.compose([g, x[2] * Fraction(1, 8), f]),
             restrict_to_subspace(f, [(1, Fraction(1, 2), 0), (0, 1, Fraction(2, 3))]),
             (f * g).content_normalized(), f.coefficients_in(1)[0]]
    for p in built:
        assert p._ints is None
    for p in [f, g] + built:
        cached = poly._int_terms(p)
        ints, den = poly.clear_denominators(p.terms.values())
        assert cached == (dict(zip(p.terms, ints)), den)
        assert list(cached[0]) == list(p.terms)
        assert poly._int_terms(p) is cached
    assert poly._int_terms(f) == (dict(zip(f.terms, (7, -6, 70))), 14)


def test_complexmp_precision_floor():
    with pytest.raises(PolyError):
        ComplexMP(mpmath.mpf(1), mpmath.mpf(0), 32)


def test_aberth_nonconvergence_reports_partial():
    from sixnodal.poly import RootFindingError, aberth_roots
    coeffs = [Fraction(x) for x in (-6, 0, 0, 0, 1)]
    with pytest.raises(RootFindingError) as excinfo:
        aberth_roots(coeffs, 256, max_iter=1)
    assert len(excinfo.value.partial) == 4


def test_resultant_rejects_double_constants():
    f = MPoly.const(2, 3)
    with pytest.raises(PolyError):
        resultant_bivariate(f, f, 0)


def test_restrict_to_subspace_leaves_no_cyclic_garbage():
    # compose's memoized product closure must not outlive the call in a
    # reference cycle
    import gc
    x = [MPoly.var(3, i) for i in range(3)]
    f = x[0] ** 3 + x[1] * x[2] * x[0] * 5 - x[2] ** 2 * x[1] * Fraction(2, 7)
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        restrict_to_subspace(f, [(1, Fraction(1, 2), 0), (0, 1, Fraction(2, 3))])
        assert gc.collect() == 0
    finally:
        if was_enabled:
            gc.enable()


def test_restrict_to_subspace():
    x = MPoly.variables(3)
    r = restrict_to_subspace(x[0], [(0, 1, 0), (0, 0, 1)])
    assert r.is_zero()
    with pytest.raises(PolyError):
        restrict_to_subspace(x[0], [(1, 0, 0), (2, 0, 0)])


@st.composite
def forms_and_bases(draw):
    """A polynomial with the monomials of one to three degrees in 0-4, in
    k..4 variables with Fraction coefficients, and k = 1-4 Fraction basis
    vectors, each over its own denominator."""
    k = draw(st.integers(min_value=1, max_value=4))
    n = draw(st.integers(min_value=max(k, 2), max_value=4))
    degrees = draw(st.sets(st.integers(min_value=0, max_value=4), min_size=1, max_size=3))
    terms = {}
    for deg in sorted(degrees):
        for combo in combinations_with_replacement(range(n), deg):
            e = tuple(combo.count(i) for i in range(n))
            terms[e] = Fraction(draw(coeffs), draw(st.integers(min_value=1, max_value=4)))
    dens = draw(st.lists(st.integers(min_value=1, max_value=12), min_size=k, max_size=k,
                         unique=True))
    basis = [[Fraction(draw(st.integers(min_value=-5, max_value=5)), d) for _ in range(n)]
             for d in dens]
    return MPoly(n, terms), basis


@given(forms_and_bases())
@example((MPoly(3, {(2, 0, 0): Fraction(1), (0, 1, 1): Fraction(-3, 2),
                    (0, 0, 0): Fraction(5, 7), (1, 0, 0): Fraction(2, 3)}),
          [[Fraction(1, 2), Fraction(0), Fraction(1, 3)],
           [Fraction(0), Fraction(2, 5), Fraction(1)]]))
@settings(max_examples=150, deadline=None)
def test_restrict_to_subspace_matches_fraction_reference(case):
    # the integer compose against Fraction products of the linear forms,
    # constant and mixed-degree terms included: equal terms in equal order
    f, basis = case
    assume(rank(basis) == len(basis))
    k = len(basis)
    forms = [MPoly.linear_form([basis[i][j] for i in range(k)]) for j in range(f.nvars)]
    assert _same_terms(restrict_to_subspace(f, basis), _ref_compose_terms(f, forms))


def test_restrict_line_on_cubic_vanishes(inst1):
    from sixnodal.detgeo import special_line
    line = special_line(inst1, "fromV", (1, 2, 3))
    assert restrict_to_subspace(inst1.cubic_y, [line.p0, line.p1]).is_zero()


def test_divide_exact():
    x = MPoly.variables(2)
    f = (x[0] + x[1]) * (x[0] - 2 * x[1])
    assert divide_exact(f, x[0] + x[1]) == x[0] - 2 * x[1]
    with pytest.raises(PolyError):
        divide_exact(f, x[0] + 3 * x[1])


def test_json_roundtrip():
    rng = random.Random(2)
    f = random_poly(rng)
    assert MPoly.from_json(f.to_json()) == f
    data = f.to_json()
    assert all(isinstance(c, str) and "/" in c for _, c in data["terms"])


def test_package_has_one_root_finder():
    # the package finds roots with aberth_roots only: no module names
    # mpmath's polyroots, by attribute, bare name or import
    package = pathlib.Path(poly.__file__).parent
    for path in sorted(package.glob("*.py")):
        names = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.alias):
                names.add(node.name)
        assert "polyroots" not in names, path.name


def _calls_and_loops(func):
    """The names func calls, and whether it loops over a
    squarefree_decomposition() call."""
    calls, loops = set(), False
    for node in ast.walk(func):
        if isinstance(node, ast.Call):
            f = node.func
            calls.add(f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None))
        if isinstance(node, (ast.For, ast.comprehension)) and isinstance(node.iter, ast.Call) \
                and getattr(node.iter.func, "attr", None) == "squarefree_decomposition":
            loops = True
    return calls, loops


def test_one_path_from_squarefree_factors_to_aberth():
    # every eliminant takes its roots from one stream: one function hands a
    # factor to Aberth with the residual check, one function loops over a
    # squarefree decomposition and feeds Aberth, and fourfold imports
    # neither the split of a binary form nor the hand-off
    package = pathlib.Path(poly.__file__).parent
    hand_off, feeding = [], []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                calls, loops = _calls_and_loops(func)
                if "_checked_aberth_roots" in calls:
                    hand_off.append(func.name)
                if loops and calls & {"aberth_roots", "_checked_aberth_roots"}:
                    feeding.append(func.name)
        if path.name == "fourfold.py":
            imported = {a.name for node in ast.walk(tree)
                        if isinstance(node, ast.ImportFrom) for a in node.names}
            assert not imported & {"_binary_form_parts", "_checked_aberth_roots"}
    assert hand_off == ["_root_stream"]
    assert feeding == ["_root_stream"]


@pytest.mark.parametrize("prec", [64, 256])
def test_root_stream_with_no_exact_root_matches_roots(prec):
    # sample_line's case, which its eliminants never reach: no exact root
    # given, on (3x - 2)^2 (x^2 - 3)^2 (x^3 - 2), with a rational root in a
    # repeated factor.  Every root comes numeric, with the multiplicity of
    # its factor, within 2^-prec of the root poly.roots gives
    p = _product([UPoly([-2, 3]), UPoly([-2, 3]), UPoly([-3, 0, 1]), UPoly([-3, 0, 1]),
                  UPoly([-2, 0, 0, 1])])
    got = list(poly._root_stream(p, prec, ()))
    want = roots(p, prec)
    assert all(isinstance(z, mpmath.mpc) for z, _ in got)
    assert sorted(m for _, m in got) == [1, 1, 1, 2, 2, 2]
    assert sorted(m for _, m in want) == [1, 1, 1, 2, 2, 2]
    with mpmath.workprec(prec + 64):
        ref = [(mpmath.mpf(r.numerator) / r.denominator if isinstance(r, Fraction)
                else r.to_mpc(), m) for r, m in want]
        for z, m in got:
            (match,) = [(w, k) for w, k in ref if abs(z - w) <= 2 ** -prec * max(1, abs(w))]
            assert match[1] == m
    # a given root comes back exact, first in its factor; one that is no
    # root, or one given twice, raises before any root is given back
    given = list(poly._root_stream(p, prec, [Fraction(2, 3)]))
    assert given[3] == (Fraction(2, 3), 2)
    assert [type(z) for z, _ in given].count(Fraction) == 1
    for exact in ([Fraction(1, 2)], [Fraction(2, 3), Fraction(2, 3)], [Fraction(3)]):
        with pytest.raises(PolyError, match="not a root"):
            next(poly._root_stream(p, prec, exact))


def _fourfold_eliminant(inst, line_seed=1):
    # the degree-6 core of the eliminant of the first chart sample_line draws
    # on the seed-1 fourfold (base point and chart as in sample_line(four,
    # line_seed)): a probe input here, though sample_line runs no probe on it
    from sixnodal.detgeo import _binary_form_parts, direction_chart, sample_smooth_point
    from sixnodal.fourfold import extend_to_fourfold
    four = extend_to_fourfold(inst, seed=1)
    y = tuple(sample_smooth_point(inst, random.Random(f"1:{line_seed}:line"))) + (Fraction(0),)
    core = _binary_form_parts(direction_chart(four.cubic, y, f"{line_seed}:0")[3])[2]
    assert core.degree() == 6
    return list(core.coeffs)


@pytest.mark.parametrize("prec", [64, 128, 256, 512])
@pytest.mark.parametrize("case, float_start", [
    ("ratio_overflow", False), ("cluster", None), ("fourfold_eliminant", True),
    ("cube_root_huge", False), ("three_huge_roots", False), ("tiny_lead", False),
    ("huge_and_tiny_roots", False), ("float_stall", True)])
def test_aberth_matches_polyroots(case, float_start, prec, inst1, monkeypatch):
    # the last four start from the Newton polygon: their roots are far from
    # the circle of radius 1 + max|c_i/c_d| that the other fallback would use
    if case == "ratio_overflow":        # x^2 - 2^1100: c_0/c_2 overflows float
        coeffs = [Fraction(-(2 ** 1100)), Fraction(0), Fraction(1)]
    elif case == "cube_root_huge":      # x^3 - 2^3000
        coeffs = [Fraction(-(2 ** 3000)), Fraction(0), Fraction(0), Fraction(1)]
    elif case == "three_huge_roots":    # (x - 2^1100)(x - 2^1101)(x + 2^1100)
        coeffs = list((UPoly([-(2 ** 1100), 1]) * UPoly([-(2 ** 1101), 1])
                       * UPoly([2 ** 1100, 1])).coeffs)
    elif case == "tiny_lead":           # 2^-1030 x^3 + x^2 - 3
        coeffs = [Fraction(-3), Fraction(0), Fraction(1), Fraction(1, 2 ** 1030)]
    elif case == "huge_and_tiny_roots":  # x^3 - 2^1100 x - 1
        coeffs = [Fraction(-1), Fraction(-(2 ** 1100)), Fraction(0), Fraction(1)]
    elif case == "cluster":             # roots 1 and 1 + 2^-60, which float cannot separate
        eps = Fraction(1, 2 ** 60)
        coeffs = list((UPoly([-1, 1]) * UPoly([-1 - eps, 1]) * UPoly([2, 1])).coeffs)
    elif case == "float_stall":         # float corrections cycle near 1e-13
        coeffs = _fourfold_eliminant(inst1, line_seed=2)
    else:
        coeffs = _fourfold_eliminant(inst1)
    starts = []
    real_start = poly._float_start
    float_sweeps = []
    real_sweep = poly._aberth_sweep

    def recording_start(*args):
        starts.append(real_start(*args))
        return starts[-1]

    def recording_sweep(cs, dcs, zs):
        if isinstance(zs[0], complex):
            float_sweeps.append(zs)
        return real_sweep(cs, dcs, zs)

    monkeypatch.setattr(poly, "_float_start", recording_start)
    monkeypatch.setattr(poly, "_aberth_sweep", recording_sweep)
    got = poly.aberth_roots(coeffs, prec)
    assert len(starts) == 1
    if float_start is not None:
        assert (starts[0] is not None) == float_start
    if case == "float_stall":           # it used to run all 400 float sweeps
        assert len(float_sweeps) <= 64
    # where every root has modulus 2^s, the reference solves for y = x / 2^s:
    # from the unit circle, polyroots does not converge in 400 steps on
    # x^2 - 2^1100 at 64 and 512 bits or on x^3 - 2^3000 at 512 bits
    s = {"ratio_overflow": 550, "cube_root_huge": 1000}.get(case, 0)
    with mpmath.workprec(prec + 64):
        ref = mpmath.polyroots([mpmath.ldexp(mpmath.mpf(c.numerator) / c.denominator, s * k)
                                for k, c in reversed(list(enumerate(coeffs)))],
                               maxsteps=400, extraprec=prec + 64,
                               cleanup=False)  # keeps the root near -2^-1100
        ref = [mpmath.ldexp(r.real, s) + 1j * mpmath.ldexp(r.imag, s) for r in ref]
        assert len(got) == len(ref) == len(coeffs) - 1
        unmatched = list(got)
        for r in ref:
            z = min(unmatched, key=lambda w: abs(w - r))
            assert abs(z - r) <= mpmath.mpf(2) ** -prec * abs(r), (case, r)
            unmatched.remove(z)


# ---------------------------------------------------------------------------
# integer products against term-by-term Fraction arithmetic


def _ref_mul_terms(a: dict, b: dict) -> dict:
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            s = out.get(e, Fraction(0)) + c1 * c2
            if s == 0:
                out.pop(e, None)
            else:
                out[e] = s
    return out


def _ref_pow_terms(a: dict, k: int, n: int) -> dict:
    # square and multiply, as MPoly.__pow__
    out, base = {(0,) * n: Fraction(1)}, a
    while k:
        if k & 1:
            out = _ref_mul_terms(out, base)
        base = _ref_mul_terms(base, base)
        k >>= 1
    return out


def _ref_compose_terms(f: MPoly, subs) -> dict:
    n_out = subs[0].nvars
    out = {}
    for e, c in f.terms.items():
        term = {(0,) * n_out: c}
        for i, k in enumerate(e):
            if k:
                term = _ref_mul_terms(term, _ref_pow_terms(subs[i].terms, k, n_out))
        for e2, c2 in term.items():
            s = out.get(e2, Fraction(0)) + c2
            if s == 0:
                out.pop(e2, None)
            else:
                out[e2] = s
    return out


def _rational_poly(rng, nvars, deg, terms, bits=8):
    out = {}
    for _ in range(terms):
        e = tuple(rng.randrange(0, deg + 1) for _ in range(nvars))
        out[e] = Fraction(rng.randrange(-2 ** bits, 2 ** bits), rng.randrange(1, 2 ** bits))
    return MPoly(nvars, out)


def _same_terms(p: MPoly, terms: dict) -> bool:
    # equal coefficients in the same order: numeric evaluation sums in it
    return list(p.terms.items()) == list(terms.items()) \
        and all(isinstance(c, Fraction) for c in p.terms.values())


@pytest.mark.parametrize("seed", range(12))
def test_mul_matches_fraction_reference(seed):
    rng = random.Random(seed)
    bits = 300 if seed % 3 == 0 else 8
    f = _rational_poly(rng, 3, 3, rng.randrange(0, 8), bits)
    g = _rational_poly(rng, 3, 3, rng.randrange(0, 8), bits)
    assert _same_terms(f * g, _ref_mul_terms(f.terms, g.terms))
    assert _same_terms(f * 3, {e: 3 * c for e, c in f.terms.items()})


def test_mul_cancellation_order():
    # x*y cancels on the way and comes back: its place in the term order is
    # where it reappears, as with Fraction sums
    x, y, z = MPoly.variables(3)
    f = x + y + z
    g = x - y + Fraction(1, 3) * z
    h = Fraction(2, 5) * x * y - z
    for a, b in ((f, g), (f * g, h), ((x + y) * (x - y), x + y)):
        assert _same_terms(a * b, _ref_mul_terms(a.terms, b.terms))
    assert (x + y) * (x - y) == x * x - y * y


@pytest.mark.parametrize("seed", range(8))
def test_compose_matches_fraction_reference(seed):
    rng = random.Random(100 + seed)
    f = _rational_poly(rng, 3, 3, rng.randrange(1, 8))
    subs = [_rational_poly(rng, 2, 2, rng.randrange(0, 4), 300 if seed % 2 else 8)
            for _ in range(3)]
    assert _same_terms(f.compose(subs), _ref_compose_terms(f, subs))
    lin = [MPoly.linear_form([Fraction(rng.randrange(-9, 10), rng.randrange(1, 9))
                              for _ in range(4)]) for _ in range(3)]
    assert _same_terms(f.compose(lin), _ref_compose_terms(f, lin))


def _ref_add_terms(a: dict, b: dict) -> dict:
    # as MPoly.__add__: a's order, then b's new terms where they appear
    out = dict(a)
    for e, c in b.items():
        s = out.get(e, Fraction(0)) + c
        if s == 0:
            out.pop(e, None)
        else:
            out[e] = s
    return out


def _ref_det_terms(m, nvars: int) -> dict:
    # column-subset expansion on Fraction term dicts: the minor on the top
    # rows for each set of used columns
    states = {frozenset(): {(0,) * nvars: Fraction(1)}}
    for i, row in enumerate(m):
        new_states: dict = {}
        for used, val in states.items():
            if not val:
                continue
            for j, entry in enumerate(row):
                if j in used or entry.is_zero():
                    continue
                term = _ref_mul_terms(val, entry.terms)
                if (i + sum(k < j for k in used)) % 2:
                    term = {e: -c for e, c in term.items()}
                key = used | {j}
                new_states[key] = _ref_add_terms(new_states.get(key, {}), term)
        states = new_states
    return states.get(frozenset(range(len(m))), {})


@pytest.mark.parametrize("seed", range(10))
def test_poly_det_matches_fraction_reference(seed):
    rng = random.Random(300 + seed)
    n = 1 + seed % 5
    # mixed denominators, with about a fifth of the entries zero
    m = [[_rational_poly(rng, 2, 2, rng.randrange(1, 4) * (rng.random() > 0.2),
                         8 if seed % 2 else 60)
          for _ in range(n)] for _ in range(n)]
    cases = [m]
    if n > 1:
        zero_row = [row[:] for row in m]
        zero_row[rng.randrange(n)] = [MPoly.zero(2)] * n
        # the last row is a rational combination of the others
        weights = [Fraction(rng.randrange(-9, 10), rng.randrange(1, 9)) for _ in m[:-1]]
        singular = m[:-1] + [[sum((w * row[j] for w, row in zip(weights, m)), MPoly.zero(2))
                              for j in range(n)]]
        cases += [zero_row, singular]
    for case in cases:
        assert _same_terms(poly_det(case), _ref_det_terms(case, 2)), (seed, case)
    if n > 1:
        assert poly_det(cases[1]).is_zero()
        assert poly_det(cases[2]).is_zero()


def test_evaluate_rational_point_matches_fraction_sum():
    rng = random.Random(7)
    for _ in range(6):
        f = _rational_poly(rng, 3, 3, 6, 40)
        pt = (Fraction(rng.randrange(-50, 50), rng.randrange(1, 50)), rng.randrange(-9, 10),
              Fraction(rng.randrange(-50, 50), rng.randrange(1, 50)))
        want = sum((c * pt[0] ** e[0] * pt[1] ** e[1] * pt[2] ** e[2]
                    for e, c in f.terms.items()), Fraction(0))
        got = f.evaluate(pt)
        assert isinstance(got, Fraction) and got == want
    assert MPoly.zero(2).evaluate((1, 2)) == 0
