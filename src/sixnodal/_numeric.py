"""Multiprecision numeric helpers (mpmath scalars, small dense problems).

The exact modules do all identity-level work; these routines only handle the
numeric path at a working precision of prec + 32 bits.  Where exact
coefficients meet numeric coordinates, they run on Python integers:
`to_fixed` reads int, Fraction, mpf or mpc entries exactly as Gaussian
integers over one shared power of two, sums and products of these are exact,
and `from_fixed` rounds each result once to an mpc.  Exact forms are
evaluated this way (`evaluate_fixed`, behind `MPoly.evaluate` and the
u-slices of the line lift), exact matrices meet numeric vectors this way
(`linear_values`: the chart map of the line lift, the lam and lam_perp
matrices of `iota` and of the sigma test, and there also the exact phi(y),
so sigma phi(y) comes from one rounding per entry), and `kernel_numeric`
eliminates this way, rounding each entry once per row update.  The
multiprecision Aberth sweeps of `poly.aberth_roots` and the residual
certificate of `poly.roots` run in the same Gaussian-integer fixed point.
Products of numeric values run on mpc scalars: the quadratic formula of the
line lift and the products of numeric matrices in sigma phi sigma.
"""

from __future__ import annotations

import os
from fractions import Fraction

import mpmath
from mpmath.libmp import from_man_exp, round_nearest

from ._qlinalg import clear_denominators, linear_terms

# bits kept beyond the working precision by the fixed-point vectors
_GUARD_BITS = 8


def default_precision() -> int:
    """The working precision when none is given: SIXNODAL_PRECISION, or 256."""
    raw = os.environ.get("SIXNODAL_PRECISION", "256")
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"SIXNODAL_PRECISION is not an integer: {raw!r}") from None


def to_mpc(x, prec: int | None = None):
    """Convert to mpc at `prec`+32 bits, or at the ambient precision when
    prec is None (so calls inside a workprec block inherit it)."""
    with mpmath.workprec(prec + 32 if prec is not None else mpmath.mp.prec):
        if isinstance(x, Fraction):
            return mpmath.mpc(x.numerator) / x.denominator
        return mpmath.mpc(x)


def default_tolerance(prec: int):
    return mpmath.mpf(2) ** (-(prec // 2))


def check_tolerance(prec: int, at_256: float) -> float:
    """Tolerance of a check at prec bits, given its value at 256 bits: the
    same power of the working precision, at_256 ** (prec / 256)."""
    return at_256 ** (prec / 256)


# ---------------------------------------------------------------------------
# Gaussian-integer fixed point


def _ratio(x) -> tuple[int, int]:
    """A real int, Fraction, float or mpf exactly as (num, den).  An mpf is
    read from its (sign, mantissa, exponent, bitcount) tuple, as mpf.man_exp
    drops the sign."""
    if isinstance(x, mpmath.mpf):
        x = x._mpf_
    if not isinstance(x, tuple):
        x = Fraction(x)
        return x.numerator, x.denominator
    sign, man, exp, _bc = x
    if exp and not man:
        raise ValueError("infinite or undefined mpf")
    man = -man if sign else man
    return (man << exp, 1) if exp >= 0 else (man, 1 << -exp)


def to_fixed(values, bits: int) -> tuple[list[tuple[int, int]], int]:
    """(pairs, shift): values[k] is (re + i im) * 2**-shift for the pair
    (re, im) = pairs[k], to half a unit.  The shift is shared, may be
    negative, and puts the largest part near 2**(bits + _GUARD_BITS)."""
    parts = [tuple(map(_ratio, x._mpc_)) if isinstance(x, mpmath.mpc) else (_ratio(x), (0, 1))
             for x in values]
    top = max((n.bit_length() - d.bit_length() for pair in parts for n, d in pair if n),
              default=None)
    if top is None:
        return [(0, 0)] * len(parts), 0
    shift = bits + _GUARD_BITS - top

    def scaled(n, d):       # n / d * 2**shift, rounded to the nearest integer
        n, d = (n << shift, d) if shift >= 0 else (n, d << -shift)
        return (2 * n + d) // (2 * d)

    return [(scaled(*re), scaled(*im)) for re, im in parts], shift


def _round_ratio(num: int, exp: int, den: int, bits: int):
    """num * 2**exp / den, den > 0, rounded to nearest at bits as an mpf
    tuple: a quotient of at least bits + 3 bits, its last bit set for a
    nonzero remainder, rounds as the exact ratio does."""
    if den & (den - 1) == 0:
        return from_man_exp(num, exp + 1 - den.bit_length(), bits, round_nearest)
    shift = max(0, bits + 4 + den.bit_length() - abs(num).bit_length())
    q, r = divmod(abs(num) << shift, den)
    q |= bool(r)
    return from_man_exp(-q if num < 0 else q, exp - shift, bits, round_nearest)


def from_fixed(re: int, im: int, exp: int, bits: int, den: int = 1):
    """(re + i im) * 2**exp / den as an mpc, each part rounded once to bits."""
    return mpmath.mp.make_mpc((_round_ratio(re, exp, den, bits),
                               _round_ratio(im, exp, den, bits)))


def evaluate_fixed(forms, point, bits: int) -> list:
    """Values at a numeric point of forms given as (terms, den), the sum of
    terms[e] x^e over den with integer terms[e]: the point goes to fixed
    point once, each value is summed exactly (a term of degree d carries
    2^(-shift d), aligned by exact shifts on the least of these) and rounded
    once per part to an mpc at bits bits."""
    xs, shift = to_fixed(point, bits)
    out = []
    for terms, den in forms:
        low = min((-shift * sum(e) for e in terms), default=0)
        re = im = 0
        for e, c in terms.items():
            tr, ti = c, 0
            for (x, y), k in zip(xs, e):
                for _ in range(k):
                    tr, ti = tr * x - ti * y, tr * y + ti * x
            align = -shift * sum(e) - low
            re, im = re + (tr << align), im + (ti << align)
        out.append(from_fixed(re, im, low, bits, den))
    return out


def linear_values(coeff_rows, point, prec: int) -> list[list]:
    """Matrix of the values at a numeric point of the linear forms with the
    given exact coefficient lists, through the fixed-point evaluator: entry
    (i, j) is sum_k coeff_rows[i][j][k] point[k], rounded once."""
    n = len(point)
    ints, den = clear_denominators([c for row in coeff_rows for coeffs in row
                                    for c in coeffs])
    vals = evaluate_fixed([(linear_terms(ints[i:i + n]), den)
                           for i in range(0, len(ints), n)], point, prec + 32)
    width = len(coeff_rows[0])
    return [vals[i:i + width] for i in range(0, len(vals), width)]


def kernel_numeric(rows, prec: int, rtol=None):
    """Right kernel basis of a small matrix of numeric or rational entries,
    as vectors of mpc entries.

    Gauss-Jordan elimination with full pivoting on the fixed-point matrix at
    prec + 32 bits.  Pivots of squared modulus at most (rtol * scale)^2,
    scale the largest entry modulus, count as zero; both sides are compared
    exactly.  A row update rounds each entry once to the fixed-point unit,
    and a kernel entry is an exact quotient of two entries rounded once.
    """
    bits = prec + 32
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    flat, _shift = to_fixed([x for r in rows for x in r], bits)
    m = [flat[i * ncols:(i + 1) * ncols] for i in range(nrows)]
    limit = Fraction(*_ratio(rtol if rtol is not None else default_tolerance(prec))) ** 2 \
        * max((a * a + b * b for a, b in flat), default=0)
    zero, one = mpmath.mpc(0), mpmath.mpc(1)
    col_perm = list(range(ncols))
    pivots = 0
    while pivots < min(nrows, ncols):
        # the first entry of largest modulus, as in a strict row-major scan
        bi, bj = max(((i, j) for i in range(pivots, nrows) for j in range(pivots, ncols)),
                     key=lambda ij: m[ij[0]][ij[1]][0] ** 2 + m[ij[0]][ij[1]][1] ** 2)
        vr, vi = m[bi][bj]
        if vr * vr + vi * vi <= limit:
            break
        m[pivots], m[bi] = m[bi], m[pivots]
        for r in m:
            r[pivots], r[bj] = r[bj], r[pivots]
        col_perm[pivots], col_perm[bj] = col_perm[bj], col_perm[pivots]
        prow, d2 = m[pivots], 2 * (vr * vr + vi * vi)
        for row in m:
            ar, ai = row[pivots]
            if row is prow or not (ar or ai):
                continue
            # row -= (a / pivot) prow, where a / pivot = (fr + i fi) / |pivot|^2
            fr, fi = ar * vr + ai * vi, ai * vr - ar * vi
            for j in range(pivots + 1, ncols):
                (xr, xi), (yr, yi) = prow[j], row[j]
                row[j] = (yr - (2 * (fr * xr - fi * xi) + d2 // 2) // d2,
                          yi - (2 * (fr * xi + fi * xr) + d2 // 2) // d2)
            row[pivots] = (0, 0)
        pivots += 1
    basis = []
    for free in range(pivots, ncols):
        v = [zero] * ncols
        v[col_perm[free]] = one
        for i in range(pivots):
            # -m[i][free] / m[i][i]: the fixed-point scales cancel
            (fr, fi), (dr, di) = m[i][free], m[i][i]
            v[col_perm[i]] = from_fixed(-(fr * dr + fi * di), fr * di - fi * dr, 0,
                                        bits, dr * dr + di * di)
        basis.append(tuple(v))
    return basis


def rank_numeric(rows, prec: int, rtol=None) -> int:
    ncols = len(rows[0]) if rows else 0
    return ncols - len(kernel_numeric(rows, prec, rtol))
