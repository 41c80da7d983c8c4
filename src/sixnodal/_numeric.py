"""Multiprecision numeric helpers: one Gaussian-integer fixed point.

The exact modules do all identity-level work; these routines only handle the
numeric path at a working precision of prec + 32 bits.  Its one currency is
`Fixed`: Gaussian integers over one shared power of two, entry k being
(re + i im) * 2**-shift for (re, im) = pairs[k].  `to_fixed` reads int,
Fraction, mpf or mpc entries exactly and rounds them once to the unit that
puts the largest part near 2**(bits + _GUARD_BITS); a Fixed it passes
through by an integer shift alone.  Sums and products are exact integer
arithmetic, and a result is rounded once to such a unit:

- `evaluate_fixed` evaluates exact forms at a point (the scroll quadrics,
  the gradient of iota; `exact_values` gives the unrounded sums, for the
  line lift's A and B and its residual in `detgeo._lift_roots`);
- `linear_values` applies the exact linear forms of a `_qlinalg.Layout`,
  cleared of denominators once, by integer dot products (the lam and
  lam_perp matrices of `iota` and of the sigma test);
- `mat_mul` multiplies numeric matrices (sigma phi sigma);
- `kernel_numeric` eliminates, rounding each entry once per row update.

Each takes Fixed values, or exact ones, and returns Fixed values; a
numeric matrix is a list of rows, each a Fixed.  Tolerances are decided
exactly, on squared moduli (`norm2`, `at_most`).  The Aberth sweeps of
`poly.aberth_roots` return their roots as a Fixed too, and
`poly._checked_aberth_roots` certifies each by Horner on integers.
An mpc is made only where a value leaves this layer: the spanning points
of a numeric `detgeo.ProjLine` (`Fixed.to_mpc`, `from_fixed`: each part
rounded once), a reported float residual or margin (`sqrt_ratio`), and the
`ComplexMP` roots of `poly.roots`.
"""

from __future__ import annotations

import os
from fractions import Fraction
from itertools import chain
from math import isqrt, ldexp
from operator import mul
from typing import NamedTuple

import mpmath
from mpmath.libmp import from_man_exp, from_rational, fzero, round_nearest

from ._qlinalg import Layout

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
    prec is None (so calls inside a workprec block inherit it).  An mpc
    whose mantissas already fit comes back as it is: rounding it again would
    change nothing.  A Fraction whose numerator fits is rounded once, as
    its exact numerator over its denominator would be."""
    bits = prec + 32 if prec is not None else mpmath.mp.prec
    if isinstance(x, mpmath.mpc):
        re, im = x._mpc_
        if re[3] <= bits and im[3] <= bits:
            return x
    elif isinstance(x, Fraction) and x.numerator.bit_length() <= bits:
        return mpmath.mp.make_mpc((from_rational(x.numerator, x.denominator, bits,
                                                 round_nearest), fzero))
    with mpmath.workprec(bits):
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


class Fixed(NamedTuple):
    """A numeric vector: entry k is (re + i im) * 2**-shift for the pair
    (re, im) = pairs[k]."""

    pairs: list
    shift: int

    def to_mpc(self, bits: int) -> tuple:
        """The entries as mpc values, each part rounded once to bits."""
        return tuple(from_fixed(re, im, -self.shift, bits) for re, im in self.pairs)


def _ratio(x) -> tuple[int, int]:
    """A real int, Fraction, float or mpf exactly as (num, den).  An mpf is
    read from its (sign, mantissa, exponent, bitcount) tuple, as mpf.man_exp
    drops the sign."""
    if isinstance(x, (int, Fraction)):
        return x.numerator, x.denominator
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


def over(num: int, exp: int, den: int) -> tuple[int, int]:
    """num * 2**exp / den as (num, den)."""
    return (num << exp, den) if exp >= 0 else (num, den << -exp)


def from_ratios(parts, bits: int) -> Fixed:
    """The Fixed of exact complex values given as ((num, den), (num, den))
    pairs of real and imaginary parts, to half a unit, the largest part near
    2**(bits + _GUARD_BITS)."""
    top = max((n.bit_length() - d.bit_length() for pair in parts for n, d in pair if n),
              default=None)
    if top is None:
        return Fixed([(0, 0)] * len(parts), 0)
    shift = bits + _GUARD_BITS - top
    # n / d * 2**shift, rounded to the nearest integer, as (2 n' + d') // 2 d'
    if shift >= 0:
        return Fixed([(((nr << shift) * 2 + dr) // (2 * dr), ((ni << shift) * 2 + di) // (2 * di))
                      for (nr, dr), (ni, di) in parts], shift)
    return Fixed([((2 * nr + (dr << -shift)) // (dr << 1 - shift),
                   (2 * ni + (di << -shift)) // (di << 1 - shift))
                  for (nr, dr), (ni, di) in parts], shift)


def to_fixed(values, bits: int) -> Fixed:
    """values[k] as (re + i im) * 2**-shift for the pair (re, im) = pairs[k],
    to half a unit.  The shift is shared, may be negative, and puts the
    largest part near 2**(bits + _GUARD_BITS).  A Fixed is passed through
    by an integer shift of its pairs alone, to what its exact values give."""
    if isinstance(values, Fixed):
        top = max(map(abs, chain.from_iterable(values.pairs)), default=0).bit_length()
        if not top:
            return Fixed([(0, 0)] * len(values.pairs), 0)
        k = bits + _GUARD_BITS + 1 - top
        if k == 0:
            return values
        if k > 0:
            return Fixed([(re << k, im << k) for re, im in values.pairs], values.shift + k)
        half = 1 << (-k - 1)
        return Fixed([((re + half) >> -k, (im + half) >> -k) for re, im in values.pairs],
                     values.shift + k)
    return from_ratios([tuple(map(_ratio, x._mpc_)) if isinstance(x, mpmath.mpc)
                        else (_ratio(x), (0, 1)) for x in values], bits)


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


def sqrt_ratio(num: int, den: int) -> float:
    """sqrt(num / den) as a float, for num >= 0 and den > 0: an integer
    square root of about 64 bits times an exact power of two.  For a
    residual or a margin that is reported, compared on squares before."""
    if not num:
        return 0.0
    k = max(0, (den.bit_length() - num.bit_length()) // 2 + 64)
    return ldexp(isqrt((num << 2 * k) // den), -k)


def at_most(a: int, b: int, exp: int) -> bool:
    """Whether a <= b * 2**exp, exactly."""
    return a <= b << exp if exp >= 0 else a << -exp <= b


def norm2(rows, bits: int) -> tuple[int, int]:
    """(n, e): the largest squared modulus of the entries of a matrix given
    as rows (as `_aligned` reads them) is n * 2**-e, to a unit."""
    pairs, shift = _aligned(rows, bits)
    return max((re * re + im * im for row in pairs for re, im in row), default=0), 2 * shift


def _aligned(rows, bits: int) -> tuple[list[list[tuple[int, int]]], int]:
    """The entries of a matrix, given as rows that are each a Fixed or a
    list of int, Fraction, mpf or mpc entries, as rows of pairs over one
    shared power of two 2**-shift, the largest part near
    2**(bits + _GUARD_BITS): a list row goes to fixed point on its own, the
    rows are brought to the finest of their units by exact shifts, and the
    whole is rounded once."""
    if not any(isinstance(r, Fixed) for r in rows):
        flat = to_fixed([x for r in rows for x in r], bits)
        widths = [len(r) for r in rows]
    else:
        fixed = [r if isinstance(r, Fixed) else to_fixed(r, bits) for r in rows]
        top = max(f.shift for f in fixed)
        flat = to_fixed(Fixed([(re << (top - f.shift), im << (top - f.shift))
                               if f.shift != top else (re, im)
                               for f in fixed for re, im in f.pairs], top), bits)
        widths = [len(f.pairs) for f in fixed]
    out, at = [], 0
    for w in widths:
        out.append(flat.pairs[at:at + w])
        at += w
    return out, flat.shift


def exact_values(forms, point: Fixed) -> list[tuple[int, int, int, int]]:
    """The values of forms given as (terms, den), the sum of terms[e] x^e
    over den with integer terms[e], at a Fixed point, exactly: (re, im, exp,
    den) for (re + i im) * 2**exp / den.  A term of degree d carries
    2^(-shift d); the sum is aligned by exact shifts on the least of these."""
    xs, shift = point
    # the powers x_k^j, j up to the largest exponent of any term
    top = max((k for terms, _den in forms for e in terms for k in e), default=0)
    powers = []
    for x, y in xs:
        row = [(1, 0), (x, y)]
        while len(row) <= top:
            a, b = row[-1]
            row.append((a * x - b * y, a * y + b * x))
        powers.append(row)
    out = []
    for terms, den in forms:
        low = min((-shift * sum(e) for e in terms), default=0)
        re = im = 0
        for e, c in terms.items():
            tr, ti = c, 0
            for row, k in zip(powers, e):
                if k:
                    a, b = row[k]
                    tr, ti = tr * a - ti * b, tr * b + ti * a
            align = -shift * sum(e) - low
            re, im = re + (tr << align), im + (ti << align)
        out.append((re, im, low, den))
    return out


def evaluate_fixed(forms, point, bits: int) -> Fixed:
    """Values at a numeric point of forms given as (terms, den), as for
    exact_values: the point goes to fixed point at bits once, each value is
    summed exactly, and the values are rounded once together."""
    return from_ratios([(over(re, exp, den), over(im, exp, den))
                        for re, im, exp, den in exact_values(forms, to_fixed(point, bits))],
                       bits)


def evaluate_mpc(form, point, bits: int):
    """The value at a numeric point of one form given as (terms, den), as an
    mpc with each part rounded once to bits: for MPoly.evaluate, whose
    value leaves the fixed point."""
    ((re, im, exp, den),) = exact_values([form], to_fixed(point, bits))
    return from_fixed(re, im, exp, bits, den)


def linear_values(layout: Layout, point, prec: int) -> list[Fixed]:
    """Matrix of the values at a numeric point of the exact linear forms of
    a _qlinalg.Layout, as one Fixed per row at prec + 32 bits: the point goes
    to fixed point once, entry (i, j) is the exact integer dot product of its
    row of layout.ints with it over layout.den, and the entries are rounded
    once together, to one shared unit."""
    bits = prec + 32
    xs, shift = to_fixed(point, bits)
    res, ims = [x for x, _ in xs], [y for _, y in xs]
    vals = from_ratios([(over(sum(map(mul, row, res)), -shift, layout.den),
                         over(sum(map(mul, row, ims)), -shift, layout.den))
                        for row in layout.ints], bits)
    width = layout.width
    return [Fixed(vals.pairs[i:i + width], vals.shift)
            for i in range(0, len(vals.pairs), width)]


def mat_mul(a, b, prec: int) -> list[Fixed]:
    """The product a b of numeric matrices given as rows (each a Fixed or a
    list of entries), one Fixed per row at prec + 32 bits: every entry an
    exact sum of Gaussian-integer products, rounded once per row."""
    bits = prec + 32
    cols, sb = _aligned(b, bits)
    cols = list(zip(*cols))
    out = []
    for row in a:
        xs, sa = to_fixed(row, bits)
        out.append(to_fixed(Fixed(
            [(sum(xr * yr - xi * yi for (xr, xi), (yr, yi) in zip(xs, col)),
              sum(xr * yi + xi * yr for (xr, xi), (yr, yi) in zip(xs, col)))
             for col in cols], sa + sb), bits))
    return out


def kernel_numeric(rows, prec: int) -> list[Fixed]:
    """Right kernel basis of a small matrix of numeric or rational entries,
    given as rows (each a Fixed or a list of entries), as Fixed vectors.

    Gauss-Jordan elimination with full pivoting on the fixed-point matrix at
    prec + 32 bits (`_aligned`).  Pivots of squared modulus at most
    (tol * scale)^2, with tol = default_tolerance(prec) and scale the largest
    entry modulus, count as zero; both sides are compared exactly.  A row
    update rounds each entry once to the fixed-point unit, and a kernel
    vector is the exact quotients of its entries by their pivots, rounded
    once together at prec + 32 bits.
    """
    bits = prec + 32
    m, _shift = _aligned(rows, bits)
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    # |pivot|^2 <= tol^2 scale^2 as |pivot|^2 2^(2 (prec // 2)) <= scale^2
    lift = 2 * (prec // 2)
    limit = max((a * a + b * b for r in m for a, b in r), default=0)
    col_perm = list(range(ncols))
    pivots = 0
    while pivots < min(nrows, ncols):
        # the first entry of largest modulus, as in a strict row-major scan
        top, bi, bj = -1, 0, 0
        for i in range(pivots, nrows):
            row = m[i]
            for j in range(pivots, ncols):
                a, b = row[j]
                if a * a + b * b > top:
                    top, bi, bj = a * a + b * b, i, j
        if top << lift <= limit:
            break
        vr, vi = m[bi][bj]
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
        parts = [((0, 1), (0, 1))] * ncols
        parts[col_perm[free]] = ((1, 1), (0, 1))
        for i in range(pivots):
            # -m[i][free] / m[i][i]: the fixed-point scales cancel
            (fr, fi), (dr, di) = m[i][free], m[i][i]
            d2 = dr * dr + di * di
            parts[col_perm[i]] = ((-(fr * dr + fi * di), d2), (fr * di - fi * dr, d2))
        basis.append(from_ratios(parts, bits))
    return basis


def rank_numeric(rows, prec: int) -> int:
    ncols = len(rows[0].pairs if isinstance(rows[0], Fixed) else rows[0]) if rows else 0
    return ncols - len(kernel_numeric(rows, prec))
