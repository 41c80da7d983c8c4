"""The integer kernel of _qlinalg against plain Fraction Gauss-Jordan."""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from sixnodal._qlinalg import (_int_rref, clear_denominators, det, inverse,
                               mat_vec, nullspace, primitive_int_vector, rank,
                               rref, solve)
from sixnodal.detgeo import ProjLine, mat3_image_basis


# ---------------------------------------------------------------------------
# reference: Gauss-Jordan and Gaussian elimination on Fractions


def ref_rref(a):
    m = [[Fraction(x) for x in row] for row in a]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return tuple(tuple(row) for row in m), pivots


def ref_det(a):
    n = len(a)
    m = [[Fraction(x) for x in row] for row in a]
    out = Fraction(1)
    for c in range(n):
        pivot = next((i for i in range(c, n) if m[i][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            out = -out
        pv = m[c][c]
        out *= pv
        for i in range(c + 1, n):
            f = m[i][c] / pv
            m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return out


def ref_nullspace(a):
    cols = len(a[0])
    r, pivots = ref_rref(a)
    basis = []
    for f in (c for c in range(cols) if c not in pivots):
        v = [Fraction(0)] * cols
        v[f] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -r[i][f]
        basis.append(tuple(v))
    return basis


# ---------------------------------------------------------------------------
# seeded test matrices


def _entry(rng, kind):
    if kind == "int":
        return rng.randrange(-9, 10)
    if kind == "big":               # 300-bit denominators
        return Fraction(rng.randrange(-2 ** 300, 2 ** 300), rng.randrange(1, 2 ** 300))
    if kind == "mixed":
        return rng.randrange(-9, 10) if rng.random() < 0.5 \
            else Fraction(rng.randrange(-9, 10), rng.randrange(1, 10))
    return Fraction(rng.randrange(-9, 10), rng.randrange(1, 10))


def _random(rng, rows, cols, kind="small"):
    return tuple(tuple(_entry(rng, kind) for _ in range(cols)) for _ in range(rows))


def _product(a, b):
    return tuple(tuple(sum(Fraction(x) * y for x, y in zip(row, col)) for col in zip(*b))
                 for row in a)


def _case(name):
    rng = random.Random(name)
    if name == "empty":
        return ()
    if name == "all_zero":
        return ((0, 0, 0, 0),) * 3
    if name == "zero_rows":
        a = list(_random(rng, 5, 4))
        a[1] = a[3] = (Fraction(0),) * 4
        return tuple(a)
    if name == "rank_deficient":        # 5x5 of rank 3
        return _product(_random(rng, 5, 3), _random(rng, 3, 5))
    if name == "rank_deficient_wide":   # 3x6 of rank 2
        return _product(_random(rng, 3, 2), _random(rng, 2, 6))
    if name == "mixed":
        return _random(rng, 4, 4, "mixed")
    if name == "negative_pivots":
        a = [list(row) for row in _random(rng, 4, 4)]
        for i in range(4):
            a[i][i] = -abs(a[i][i]) - 1
        return tuple(tuple(row) for row in a)
    if name == "big_denominators":
        return _random(rng, 4, 4, "big")
    if name == "big_rank_deficient":
        return _product(_random(rng, 4, 2, "big"), _random(rng, 2, 5, "big"))
    if name == "tall":
        return _random(rng, 6, 3)
    if name == "wide":
        return _random(rng, 3, 7, "mixed")
    rows, cols = rng.randrange(1, 8), rng.randrange(1, 8)
    return _random(rng, rows, cols, rng.choice(["int", "small", "mixed"]))


CASES = ["empty", "all_zero", "zero_rows", "rank_deficient", "rank_deficient_wide",
         "mixed", "negative_pivots", "big_denominators", "big_rank_deficient",
         "tall", "wide"] + [f"random{k}" for k in range(12)]


def _all_fractions(m):
    return all(isinstance(x, Fraction) for row in m for x in row)


@pytest.mark.parametrize("name", CASES)
def test_rref_rank_nullspace_match_fraction_gauss_jordan(name):
    a = _case(name)
    r, pivots = rref(a)
    ref_r, ref_pivots = ref_rref(a)
    assert (r, pivots) == (ref_r, ref_pivots)
    assert _all_fractions(r)
    assert rank(a) == len(ref_pivots)
    if a:
        kernel = nullspace(a)
        assert kernel == ref_nullspace(a)
        assert _all_fractions(kernel)
        for v in kernel:
            assert all(x == 0 for x in mat_vec(a, v))
    else:
        with pytest.raises(ValueError):
            nullspace(a)


def test_nullspace_of_no_rows_raises():
    # one zero row: the kernel is the whole plane; no row: the column count
    # is unknown, so there is no basis to return
    assert nullspace(((0, 0),)) == [(1, 0), (0, 1)]
    with pytest.raises(ValueError):
        nullspace(())


@pytest.mark.parametrize("name", CASES)
def test_integer_rows_stay_primitive(name):
    # the content division keeps every integer row coprime
    m, pivots = _int_rref(_case(name))
    for i, row in enumerate(m):
        assert gcd(*row) == (1 if i < len(pivots) else 0), (name, i)


@pytest.mark.parametrize("name", CASES)
def test_solve_matches_reference(name):
    a = _case(name)
    rng = random.Random(f"{name}:rhs")
    cols = len(a[0]) if a else 0
    x0 = [Fraction(rng.randrange(-5, 6), rng.randrange(1, 5)) for _ in range(cols)]
    b = tuple(sum(Fraction(v) * w for v, w in zip(row, x0)) for row in a)
    x = solve(a, b)
    ref_r, ref_pivots = ref_rref(tuple(tuple(row) + (bi,) for row, bi in zip(a, b)))
    want = [Fraction(0)] * cols
    for i, p in enumerate(ref_pivots):
        want[p] = ref_r[i][cols]
    assert x == tuple(want)
    assert all(isinstance(v, Fraction) for v in x)
    assert mat_vec(a, x) == b


@pytest.mark.parametrize("name", ["all_zero", "zero_rows", "rank_deficient",
                                  "rank_deficient_wide", "big_rank_deficient",
                                  "tall"])
def test_solve_inconsistent_is_none(name):
    a = _case(name)
    # a right-hand side off the column space: a left-kernel vector y of a
    # has y.b != 0 for b = y
    left = ref_nullspace(tuple(zip(*a)))
    assert left
    assert solve(a, left[0]) is None


@pytest.mark.parametrize("name", CASES)
def test_det_and_inverse_match_reference(name):
    a = _case(name)
    if a and len(a) != len(a[0]):
        return
    d = det(a)
    assert isinstance(d, Fraction)
    assert d == (ref_det(a) if a else 1)
    if d == 0:
        with pytest.raises(ValueError):
            inverse(a)
        return
    n = len(a)
    inv = inverse(a)
    ref_r, _ = ref_rref(tuple(tuple(a[i]) + tuple(Fraction(int(i == j)) for j in range(n))
                              for i in range(n)))
    assert inv == tuple(tuple(row[n:]) for row in ref_r)
    assert _all_fractions(inv)
    assert _product(a, inv) == tuple(tuple(Fraction(int(i == j)) for j in range(n))
                                     for i in range(n))


def test_clear_denominators_and_primitive_vector():
    ints, den = clear_denominators([Fraction(1, 6), 2, Fraction(-3, 4)])
    assert (ints, den) == ([2, 24, -9], 12)
    assert clear_denominators([]) == ([], 1)
    assert primitive_int_vector((Fraction(-2, 3), Fraction(4, 9), 0)) == (3, -2, 0)
    assert primitive_int_vector((0, 0)) == (0, 0)


# ---------------------------------------------------------------------------
# rows as given: ints, Fractions or both, never floats


@st.composite
def _int_matrix_three_ways(draw):
    """A small square integer matrix as int rows, as Fraction rows and as
    rows that mix the two, with an integer right-hand side."""
    n = draw(st.integers(1, 4))
    ints = [[draw(st.integers(-5, 5)) for _ in range(n)] for _ in range(n)]
    mask = [[draw(st.booleans()) for _ in range(n)] for _ in range(n)]
    b = [draw(st.integers(-5, 5)) for _ in range(n)]
    fracs = [[Fraction(x) for x in row] for row in ints]
    mixed = [[Fraction(x) if f else x for x, f in zip(row, frow)]
             for row, frow in zip(ints, mask)]
    return ints, fracs, mixed, b


def _results(a, b):
    out = [rank(a), nullspace(a), rref(a), solve(a, b), det(a)]
    try:
        out.append(inverse(a))
    except ValueError:
        out.append(None)
    return out


@settings(max_examples=80, deadline=None)
@given(_int_matrix_three_ways())
def test_int_fraction_and_mixed_rows_agree(case):
    ints, fracs, mixed, b = case
    want = _results(fracs, [Fraction(x) for x in b])
    assert _results(ints, b) == want
    assert _results(mixed, b) == want
    rank_, kernel, (r, _), x, d, inv = _results(ints, b)
    assert rank_ == len(ref_rref(fracs)[1]) and kernel == ref_nullspace(fracs)
    assert d == ref_det(fracs) and isinstance(d, Fraction)
    assert _all_fractions(kernel) and _all_fractions(r)
    assert x is None or _all_fractions([x])
    assert (inv is None) == (d == 0) and (inv is None or _all_fractions(inv))


def _greedy_image_basis(m):
    """Reference: the columns of m, left to right, that raise the rank of
    the columns kept before them."""
    out = []
    for j in range(len(m[0])):
        c = tuple(row[j] for row in m)
        if len(ref_rref(out + [c])[1]) > len(out):
            out.append(c)
    return out


@pytest.mark.parametrize("target", [0, 1, 2, 3])
def test_image_basis_is_the_greedy_column_choice(target):
    rng = random.Random(target)
    seen = 0
    while seen < 25:
        # a 3xk times kx3 integer product, with zero columns now and then
        left = [[rng.randrange(-4, 5) for _ in range(target)] for _ in range(3)]
        right = [[rng.randrange(-4, 5) * (rng.random() < 0.8) for _ in range(3)]
                 for _ in range(target)]
        m = tuple(tuple(sum(left[i][k] * right[k][j] for k in range(target))
                        for j in range(3)) for i in range(3))
        if len(ref_rref(m)[1]) != target:
            continue
        seen += 1
        basis = mat3_image_basis(m)
        assert basis == _greedy_image_basis(m)
        assert len(basis) == target


def test_float_entries_are_refused():
    # a float is a binary fraction, not the decimal it was typed as: every
    # exact entry point refuses it instead of reading Fraction(0.1)
    for a in ([[0.1, 1], [2, 3]], [[Fraction(1, 3), 2], [1, 0.5]]):
        for call in (rank, nullspace, rref, det, inverse, lambda a: solve(a, [1, 2])):
            with pytest.raises(TypeError):
                call(a)
    with pytest.raises(TypeError):
        solve([[1, 0], [0, 1]], [0.5, 1])
    with pytest.raises(TypeError):
        clear_denominators([1, 2.0])
    with pytest.raises(TypeError):
        ProjLine((1, 0, 0), (0, 1, 0)).contains_point((0.5, 0, 0))
