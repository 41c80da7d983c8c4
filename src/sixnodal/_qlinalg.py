"""Exact linear algebra over the rationals.

A matrix is a sequence of rows, a vector a sequence of entries, each entry an
int or a Fraction, taken as given: rank, rref, nullspace, solve, inverse and
det clear each row to integers themselves, so a caller never converts its
entries first, and their results are Fractions.  A float is refused
(TypeError), never read as the binary fraction it stores.  Everything here
is small (dimension <= 10ish) and on the hot path of the geometry modules.
The eliminations run on Python ints: each row is scaled once to integers
over the lcm of its denominators, rref is fraction-free Gauss-Jordan, and
det is integer Bareiss, so a Fraction is built only for each entry of the
result.  vec and Q convert once, for values that are stored or divided.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import gcd, lcm
from operator import mul

Vec = tuple  # of ints or Fractions; results hold Fractions
Mat = tuple  # tuple[Vec, ...]


def Q(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def vec(entries) -> Vec:
    return tuple(Q(x) for x in entries)


def identity(n: int) -> Mat:
    return tuple(tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n))


def transpose(a: Mat) -> Mat:
    return tuple(zip(*a)) if a else ()


def mat_mul(a: Mat, b: Mat) -> Mat:
    bt = transpose(b)
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


def mat_vec(a: Mat, v: Vec) -> Vec:
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def dot(u: Vec, v: Vec):
    return sum(x * y for x, y in zip(u, v))


def is_zero_vec(u: Vec) -> bool:
    return all(x == 0 for x in u)


def clear_denominators(values) -> tuple[list[int], int]:
    """(ints, den): den is the lcm of the denominators of the rational
    values (ints or Fractions), and ints[i] = values[i] * den.  Any other
    entry, a float among them, is a TypeError."""
    try:
        den = lcm(*(x.denominator for x in values))
    except AttributeError:
        raise TypeError("exact entries must be ints or Fractions") from None
    return [x.numerator * (den // x.denominator) for x in values], den


class Layout(tuple):
    """A matrix of exact linear forms: rows of coefficient lists, as given,
    with the coefficients cleared once to `ints`, one integer row per entry
    in row-major order, over the common denominator `den`; `width` entries
    per row.  Entry (i, j) at x is sum_k ints[i * width + j][k] x_k / den."""

    def __new__(cls, coeff_rows):
        self = super().__new__(cls, coeff_rows)
        entries = [coeffs for row in self for coeffs in row]
        ints, self.den = clear_denominators([c for coeffs in entries for c in coeffs])
        it = iter(ints)
        self.ints = [[next(it) for _ in coeffs] for coeffs in entries]
        self.width = len(self[0]) if self else 0
        return self

    def int_values(self, v) -> tuple[list[list[int]], int]:
        """(rows, den): the values of the forms at an exact vector v are
        rows[i][j] / den, the integer dot products of `ints` with v cleared
        of denominators."""
        vs, dv = clear_denominators(v)
        flat = [sum(map(mul, row, vs)) for row in self.ints]
        w = self.width
        return [flat[i:i + w] for i in range(0, len(flat), w)], self.den * dv


@cache
def _unit_exponents(n: int) -> tuple:
    """The exponent tuples of x_0, ..., x_(n-1) in n variables."""
    return tuple(tuple(int(i == k) for i in range(n)) for k in range(n))


def linear_terms(coeffs) -> dict:
    """The term dict {unit exponent: c} of the linear form sum_k coeffs[k]
    x_k, with its zero coefficients left out."""
    return {e: c for e, c in zip(_unit_exponents(len(coeffs)), coeffs) if c}


def primitive(ints: list[int]) -> list[int]:
    """An integer vector divided by the gcd of its entries (zero stays zero)."""
    g = gcd(*ints)
    return [x // g for x in ints] if g > 1 else ints


def _int_rref(a: Mat) -> tuple[list[list[int]], list[int]]:
    """Fraction-free Gauss-Jordan on the rows of a scaled to integers.

    Every row is kept primitive: each update row_i <- (pv/g) row_i -
    (f/g) row_r, with g = gcd(pv, f), is divided by its content.  Returns the
    integer rows, the first len(pivots) of them nonzero multiples of the
    reduced rows, the rest zero, and the pivot column indices.
    """
    m = [primitive(clear_denominators(row)[0]) for row in a]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        row_r = m[r]
        pv = row_r[c]
        for i in range(rows):
            f = m[i][c]
            if i != r and f:
                g = gcd(pv, f)
                p, q = pv // g, f // g
                m[i] = primitive([p * x - q * y for x, y in zip(m[i], row_r)])
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def rref(a: Mat) -> tuple[Mat, list[int]]:
    """Reduced row echelon form and the pivot column indices.

    The integer rows of _int_rref, each pivot row divided by its pivot once.
    The reduced form is unique, so this is the Fraction Gauss-Jordan result.
    """
    m, pivots = _int_rref(a)
    zero = Fraction(0)
    out = tuple(tuple(Fraction(x, m[i][c]) if x else zero for x in m[i])
                for i, c in enumerate(pivots))
    cols = len(m[0]) if m else 0
    return out + ((zero,) * cols,) * (len(m) - len(pivots)), pivots


def rank(a: Mat) -> int:
    return len(_int_rref(a)[1])


def nullspace(a: Mat) -> list[Vec]:
    """Basis of the right kernel; free variables set to 1 in turn.  With no
    rows the kernel is the whole space, of unknown dimension: ValueError."""
    if not a:
        raise ValueError("nullspace of a matrix with no rows")
    cols = len(a[0])
    r, pivots = rref(a)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * cols
        v[f] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -r[i][f]
        basis.append(tuple(v))
    return basis


def solve(a: Mat, b: Vec) -> Vec | None:
    """One solution of a x = b, or None if inconsistent."""
    rows = len(a)
    cols = len(a[0]) if rows else 0
    aug = [[*a[i], b[i]] for i in range(rows)]
    r, pivots = rref(aug)
    if cols in pivots:
        return None
    x = [Fraction(0)] * cols
    for i, p in enumerate(pivots):
        x[p] = r[i][cols]
    return tuple(x)


def det(a: Mat) -> Fraction:
    """Integer Bareiss on the rows scaled to integers, divided by the
    product of the row denominators."""
    rows, den = [], 1
    for row in a:
        ints, d = clear_denominators(row)
        rows.append(ints)
        den *= d
    return Fraction(int_det_bareiss(rows), den)


def inverse(a: Mat) -> Mat:
    n = len(a)
    aug = [[*a[i], *(int(i == j) for j in range(n))] for i in range(n)]
    r, pivots = rref(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix not invertible")
    return tuple(tuple(row[n:]) for row in r)


def int_det_bareiss(a: list[list[int]]) -> int:
    """Fraction-free determinant of an integer matrix (Bareiss)."""
    n = len(a)
    if n == 0:
        return 1
    m = [row[:] for row in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if pivot is None:
                return 0
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        pkk = m[k][k]
        for i in range(k + 1, n):
            mik = m[i][k]
            row_i = m[i]
            row_k = m[k]
            for j in range(k + 1, n):
                row_i[j] = (pkk * row_i[j] - mik * row_k[j]) // prev
            row_i[k] = 0
        prev = pkk
    return sign * m[n - 1][n - 1]


def projectively_equal(u: Vec, v: Vec) -> bool:
    """u ~ v as points of projective space (exact scalars)."""
    if len(u) != len(v):
        return False
    return all(u[i] * v[j] == u[j] * v[i] for i in range(len(u)) for j in range(i + 1, len(u))) \
        and not is_zero_vec(u) and not is_zero_vec(v)


def primitive_int_vector(v: Vec) -> tuple[int, ...]:
    """Scale a rational vector to coprime integers with a sign convention."""
    ints = primitive(clear_denominators(v)[0])
    lead = next((x for x in ints if x != 0), 0)
    if lead < 0:
        ints = [-x for x in ints]
    return tuple(ints)
