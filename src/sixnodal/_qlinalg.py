"""Exact linear algebra over the rationals.

Vectors are tuples of Fraction, matrices are tuples of row tuples.  Everything
here is small (dimension <= 10ish) and on the hot path of the geometry
modules, so the routines favour plain Gaussian elimination over anything
clever.  Integer matrices destined for big determinants go through the
fraction-free Bareiss routine instead.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

Vec = tuple  # tuple[Fraction, ...]
Mat = tuple  # tuple[Vec, ...]


def Q(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def vec(entries) -> Vec:
    return tuple(Q(x) for x in entries)


def mat(rows) -> Mat:
    m = tuple(vec(r) for r in rows)
    if m and any(len(r) != len(m[0]) for r in m):
        raise ValueError("ragged matrix")
    return m


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


def rref(a: Mat) -> tuple[Mat, list[int]]:
    """Reduced row echelon form and the pivot column indices."""
    m = [list(row) for row in a]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots: list[int] = []
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


def rank(a: Mat) -> int:
    return len(rref(a)[1])


def nullspace(a: Mat) -> list[Vec]:
    """Basis of the right kernel; free variables set to 1 in turn."""
    if not a:
        return []
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
    aug = mat(tuple(tuple(a[i]) + (b[i],) for i in range(rows)))
    r, pivots = rref(aug)
    if cols in pivots:
        return None
    x = [Fraction(0)] * cols
    for i, p in enumerate(pivots):
        x[p] = r[i][cols]
    return tuple(x)


def det(a: Mat) -> Fraction:
    n = len(a)
    if n == 0:
        return Fraction(1)
    m = [list(row) for row in a]
    sign = 1
    out = Fraction(1)
    for c in range(n):
        pivot = next((i for i in range(c, n) if m[i][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            sign = -sign
        pv = m[c][c]
        out *= pv
        for i in range(c + 1, n):
            if m[i][c] != 0:
                f = m[i][c] / pv
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return sign * out


def inverse(a: Mat) -> Mat:
    n = len(a)
    aug = mat(tuple(tuple(a[i]) + tuple(identity(n)[i]) for i in range(n)))
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
    lcm = 1
    for x in v:
        d = Q(x).denominator
        lcm = lcm * d // gcd(lcm, d)
    ints = [int(Q(x) * lcm) for x in v]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    if g:
        ints = [x // g for x in ints]
    lead = next((x for x in ints if x != 0), 0)
    if lead < 0:
        ints = [-x for x in ints]
    return tuple(ints)
