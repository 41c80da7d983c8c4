"""The Gaussian-integer fixed-point kernel of the numeric path.

References: exact Fractions for the conversions, mpc arithmetic at
2 prec + 64 bits for the evaluator, and the mpc Gauss-Jordan elimination
below for kernel_numeric.
"""

import random
from fractions import Fraction

import mpmath
import pytest

from sixnodal._numeric import (_GUARD_BITS, default_tolerance, from_fixed,
                               kernel_numeric, linear_values, rank_numeric,
                               to_fixed, to_mpc)
from sixnodal._qlinalg import Layout
from sixnodal.poly import MPoly

PRECISIONS = [96, 128, 256, 512]


def exact(x) -> Fraction:
    """An int, Fraction or mpf as an exact Fraction."""
    if isinstance(x, mpmath.mpf):
        sign, man, exp, _bc = x._mpf_
        return Fraction(-man if sign else man) * Fraction(2) ** exp
    return Fraction(x)


def exact_parts(x):
    if isinstance(x, mpmath.mpc):
        return exact(x.real), exact(x.imag)
    return exact(x), Fraction(0)


def random_scalar(rng, bits, scale):
    """A Fraction, an mpf or an mpc of modulus about 2**scale."""
    kind = rng.randrange(3)
    with mpmath.workprec(bits):
        if kind == 0:
            return Fraction(rng.randrange(-10**6, 10**6), rng.randrange(1, 10**6)) \
                * Fraction(2) ** scale
        if kind == 1:
            return mpmath.ldexp(mpmath.mpf(rng.uniform(-1, 1)) + mpmath.rand(), scale)
        return mpmath.mpc(mpmath.ldexp(mpmath.rand() - 0.5, scale),
                          mpmath.ldexp(mpmath.rand() - 0.5, scale))


# ---------------------------------------------------------------------------
# conversions


@pytest.mark.parametrize("prec", PRECISIONS)
def test_to_fixed_is_within_half_a_unit(prec):
    # at the largest scale the shift is negative
    rng = random.Random(prec)
    bits = prec + 32
    for scale in (-300, -40, 0, 40, 300, 700):
        values = [random_scalar(rng, 2 * bits, scale + rng.randrange(-8, 9))
                  for _ in range(12)]
        values[3] = 0
        pairs, shift = to_fixed(values, bits)
        assert shift < 0 if scale == 700 else scale > 40 or shift > 0
        for x, (re, im) in zip(values, pairs):
            want_re, want_im = exact_parts(x)
            assert abs(want_re * Fraction(2) ** shift - re) <= Fraction(1, 2)
            assert abs(want_im * Fraction(2) ** shift - im) <= Fraction(1, 2)
        top = max(max(abs(re), abs(im)) for re, im in pairs)
        assert bits + _GUARD_BITS - 1 <= top.bit_length() <= bits + _GUARD_BITS + 1


def test_to_fixed_of_zeros():
    assert to_fixed([0, Fraction(0), mpmath.mpf(0), mpmath.mpc(0)], 128) == ([(0, 0)] * 4, 0)
    assert to_fixed([], 128) == ([], 0)
    with pytest.raises(ValueError):
        to_fixed([mpmath.inf], 128)


@pytest.mark.parametrize("prec", PRECISIONS)
def test_from_fixed_rounds_once(prec):
    rng = random.Random(prec + 1)
    bits = prec + 32
    for _ in range(40):
        re = rng.randrange(-2 ** 900, 2 ** 900)
        im = rng.randrange(-2 ** 900, 2 ** 900) if rng.randrange(4) else 0
        exp = rng.randrange(-1200, 300)
        den = rng.randrange(1, 10 ** 30)
        got = from_fixed(re, im, exp, bits, den)
        for part, num in ((got.real, re), (got.imag, im)):
            want = Fraction(num, den) * Fraction(2) ** exp
            assert abs(exact(part) - want) <= abs(want) * Fraction(1, 2 ** bits)


@pytest.mark.parametrize("den_kind", ["power_of_two", "odd", "general"])
def test_from_fixed_is_bit_identical_to_from_rational(den_kind):
    # mpmath's correctly rounded division is the reference; a quotient of
    # bits + 4 bits leaves about one case in sixteen on a halfway point once
    # the remainder is dropped, so a missing sticky bit shows
    rng = random.Random(den_kind)
    for k in range(2000):
        bits = rng.randrange(96, 545)
        num = rng.getrandbits(rng.randrange(1, 701)) * rng.choice((1, -1)) if k % 40 else 0
        if den_kind == "power_of_two":
            den = 1 << rng.randrange(0, 700)
        elif den_kind == "odd":
            den = rng.getrandbits(rng.randrange(1, 700)) | 1
        else:
            den = rng.randrange(1, 2 << rng.randrange(0, 700))
        exp = rng.randrange(-300, 300)
        got = from_fixed(num, -num, exp, bits, den)._mpc_
        n, d = (num << exp, den) if exp >= 0 else (num, den << -exp)
        want = mpmath.libmp.from_rational(n, d, bits, mpmath.libmp.round_nearest)
        assert got == (want, mpmath.libmp.mpf_neg(want)), (num, exp, den, bits)


# ---------------------------------------------------------------------------
# the evaluator behind MPoly.evaluate


def random_form(rng, nvars, degrees):
    terms = {}
    for _ in range(10):
        d = rng.choice(degrees)
        e = [0] * nvars
        for _ in range(d):
            e[rng.randrange(nvars)] += 1
        terms[tuple(e)] = Fraction(rng.randrange(-10**12, 10**12), rng.randrange(1, 10**9))
    return MPoly(nvars, terms)


def evaluation_points(rng, bits, nvars):
    """Points mixing Fraction, mpf and mpc entries at scales 2^-300 to 2^300,
    one with a zero coordinate, a real-only one and the zero vector."""
    points = []
    for scale in (-300, -64, 0, 64, 300):
        pt = [random_scalar(rng, bits, scale + rng.randrange(-4, 5)) for _ in range(nvars)]
        pt[0] = to_mpc(pt[0]) if not isinstance(pt[0], mpmath.mpc) else pt[0]
        points.append(pt)
    with_zero = list(points[2])
    with_zero[1] = mpmath.mpc(0)
    with mpmath.workprec(bits):
        real = [mpmath.mpf(rng.uniform(-3, 3)) for _ in range(nvars)]
    return points + [with_zero, real, [mpmath.mpc(0)] * nvars]


@pytest.mark.parametrize("prec", PRECISIONS)
def test_evaluate_matches_high_precision(prec):
    # one rounding at prec + 32 bits after an exact sum: the error is half an
    # ulp of the value plus the rounding of the point to fixed point, which
    # the guard bits keep far below an ulp of the size S of the terms
    rng = random.Random(3 * prec)
    bits = prec + 32
    forms = [random_form(rng, 4, [d]) for d in (1, 2, 3) for _ in range(3)]
    forms.append(random_form(rng, 4, [0, 1, 2, 3]))
    for f in forms:
        for pt in evaluation_points(rng, 2 * bits, 4):
            with mpmath.workprec(bits):
                got = f.evaluate(pt)
            assert isinstance(got, mpmath.mpc)
            with mpmath.workprec(2 * prec + 64):
                xs = [to_mpc(x) for x in pt]
                ref = mpmath.mpc(0)
                size = mpmath.mpf(0)
                xmax = max(abs(x) for x in xs)
                for e, c in f.terms.items():
                    term = to_mpc(c)
                    for x, k in zip(xs, e):
                        term *= x ** k
                    ref += term
                    size += abs(to_mpc(c)) * xmax ** sum(e)
                err = abs(got - ref)
                assert err <= mpmath.mpf(2) ** -prec * size
                assert err <= mpmath.mpf(2) ** -bits * abs(ref) \
                    + mpmath.mpf(2) ** -(bits + 4) * size


def test_evaluate_zero_form_and_rational_point():
    pt = (mpmath.mpc(1, 2), Fraction(1, 3))
    assert MPoly.zero(2).evaluate(pt) == 0
    f = MPoly(2, {(1, 1): Fraction(3, 7), (0, 0): 2})
    assert f.evaluate((Fraction(1, 3), 2)) == Fraction(2) + Fraction(2, 7)


@pytest.mark.parametrize("prec", [128, 256])
def test_linear_values_match_high_precision(prec):
    # a 2 x 3 matrix of linear forms in 4 variables with mixed denominators
    # (ints, small and large Fractions, a zero list), at Fraction, real mpf,
    # complex mpc and mixed points and at the zero point: the same bounds as
    # the evaluator
    rng = random.Random(5 * prec)
    bits = prec + 32
    rows = [[[Fraction(rng.randrange(-10**12, 10**12), rng.randrange(1, 10**9))
              for _ in range(4)] for _ in range(3)] for _ in range(2)]
    rows[0][1] = [3, Fraction(-7, 3), 0, Fraction(1, 10**30)]
    rows[1][2] = [0, 0, 0, 0]
    with mpmath.workprec(2 * bits):
        points = [[Fraction(rng.randrange(-99, 100), rng.randrange(1, 99)) for _ in range(4)],
                  [mpmath.mpc(mpmath.rand() - 0.5, mpmath.rand() - 0.5) for _ in range(4)]]
    points += evaluation_points(rng, 2 * bits, 4)
    for pt in points:
        got = linear_values(Layout(rows), pt, prec)
        assert [len(r) for r in got] == [3, 3]
        for row, got_row in zip(rows, got):
            for coeffs, value in zip(row, got_row):
                assert isinstance(value, mpmath.mpc)
                with mpmath.workprec(2 * prec + 64):
                    xs = [to_mpc(x) for x in pt]
                    ref = sum((to_mpc(c) * x for c, x in zip(coeffs, xs)), mpmath.mpc(0))
                    size = sum(abs(to_mpc(c)) for c in coeffs) * max(abs(x) for x in xs)
                    err = abs(value - ref)
                    assert err <= mpmath.mpf(2) ** -prec * size
                    assert err <= mpmath.mpf(2) ** -bits * abs(ref) \
                        + mpmath.mpf(2) ** -(bits + 4) * size
    assert linear_values(Layout(rows), [0] * 4, prec) == [[0] * 3] * 2


# ---------------------------------------------------------------------------
# kernel_numeric


def kernel_mpc(rows, prec):
    """Reference: Gauss-Jordan with full pivoting on mpc entries."""
    rtol = default_tolerance(prec)
    with mpmath.workprec(prec + 32):
        m = [[to_mpc(x) for x in r] for r in rows]
        nrows = len(m)
        ncols = len(m[0]) if nrows else 0
        scale = max((abs(x) for r in m for x in r), default=mpmath.mpf(0))
        if scale == 0:
            return [tuple(mpmath.mpc(int(j == i)) for j in range(ncols)) for i in range(ncols)]
        col_perm = list(range(ncols))
        pivots = 0
        for _ in range(min(nrows, ncols)):
            best, best_val = None, rtol * scale
            for i in range(pivots, nrows):
                for j in range(pivots, ncols):
                    if abs(m[i][j]) > best_val:
                        best_val, best = abs(m[i][j]), (i, j)
            if best is None:
                break
            bi, bj = best
            m[pivots], m[bi] = m[bi], m[pivots]
            for r in m:
                r[pivots], r[bj] = r[bj], r[pivots]
            col_perm[pivots], col_perm[bj] = col_perm[bj], col_perm[pivots]
            pv = m[pivots][pivots]
            for i in range(nrows):
                if i != pivots and m[i][pivots] != 0:
                    f = m[i][pivots] / pv
                    for j in range(pivots, ncols):
                        m[i][j] -= f * m[pivots][j]
            pivots += 1
        basis = []
        for free in range(pivots, ncols):
            v = [mpmath.mpc(0)] * ncols
            v[free] = mpmath.mpc(1)
            for i in range(pivots):
                v[i] = -m[i][free] / m[i][i]
            out = [mpmath.mpc(0)] * ncols
            for pos, orig in enumerate(col_perm):
                out[orig] = v[pos]
            basis.append(tuple(out))
        return basis


def assert_same_kernel(rows, prec):
    got = kernel_numeric(rows, prec)
    want = kernel_mpc(rows, prec)
    assert len(got) == len(want)
    with mpmath.workprec(prec + 32):
        for a, b in zip(got, want):
            assert all(isinstance(x, mpmath.mpc) for x in a)
            assert max(abs(x - y) for x, y in zip(a, b)) \
                <= mpmath.mpf(2) ** -prec * max(abs(y) for y in b)
    return got


def random_rows(rng, nrows, ncols, rank, prec):
    """nrows x ncols mpc matrix of the given rank (up to rounding)."""
    with mpmath.workprec(prec + 32):
        def entry():
            return mpmath.mpc(rng.uniform(-1, 1), rng.uniform(-1, 1)) * 10 ** rng.randrange(-3, 4)
        base = [[entry() for _ in range(ncols)] for _ in range(rank)]
        rows = [list(r) for r in base]
        while len(rows) < nrows:
            coeffs = [entry() for _ in range(rank)]
            rows.append([sum(c * r[j] for c, r in zip(coeffs, base)) for j in range(ncols)])
        rng.shuffle(rows)
        return rows


@pytest.mark.parametrize("prec", PRECISIONS)
def test_kernel_matches_mpc_elimination(prec):
    # the shapes iota eliminates: phi^T (3x3, rank 2), the dual-line
    # conditions (3x5), the plane rank check (3x6) and the residual factor
    # (1x3); the sixnodal kernels in detgeo are 2x3 and 3x3
    rng = random.Random(prec + 7)
    for nrows, ncols, rank in [(3, 3, 2), (3, 5, 3), (3, 6, 3), (3, 6, 2), (1, 3, 1),
                               (2, 3, 2), (3, 3, 3)]:
        for _ in range(4):
            rows = random_rows(rng, nrows, ncols, rank, prec)
            got = assert_same_kernel(rows, prec)
            assert len(got) == ncols - rank
            assert rank_numeric(rows, prec) == rank


def test_kernel_of_zero_matrix_is_mpc_identity():
    got = kernel_numeric([[0, 0, 0], [mpmath.mpc(0), Fraction(0), mpmath.mpf(0)]], 128)
    assert got == [tuple(mpmath.mpc(int(i == j)) for j in range(3)) for i in range(3)]
    assert all(isinstance(x, mpmath.mpc) for v in got for x in v)
    assert kernel_numeric([], 128) == []


@pytest.mark.parametrize("prec", PRECISIONS)
@pytest.mark.parametrize("factor", [Fraction(1, 2), Fraction(2)])
def test_kernel_pivot_at_the_threshold(prec, factor):
    # the second pivot is factor * rtol * scale, rtol = default_tolerance:
    # below the threshold it counts as zero, above it is a pivot
    rtol = default_tolerance(prec)
    small = to_mpc(exact(rtol) * factor * 16).real    # scale is 16
    for entry in (mpmath.mpc(small, 0), mpmath.mpc(0, -small)):
        # the first pivot, 16, clears the first row; the second pivot
        # is then the small entry or nothing
        rows = [[8, 1, 3, Fraction(1, 2)], [0, entry, 0, 0], [16, 2, 6, 1]]
        got = assert_same_kernel(rows, prec)
        assert len(got) == (2 if factor > 1 else 3)
