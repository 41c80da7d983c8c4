"""Multiprecision numeric helpers (mpmath scalars, small dense problems).

The exact modules do all identity-level work; these routines only handle the
numeric path: kernels and ranks with explicit thresholds, and comparisons at
a working precision.
"""

from __future__ import annotations

import os
from fractions import Fraction

import mpmath

DEFAULT_PRECISION = int(os.environ.get("SIXNODAL_PRECISION", "256"))


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


def kernel_numeric(rows, prec: int, rtol=None):
    """Right kernel basis of a small matrix of mpc entries.

    Gaussian elimination with full pivoting; pivots below rtol * scale are
    treated as zero.  Returns a list of kernel vectors.
    """
    rtol = rtol if rtol is not None else default_tolerance(prec)
    with mpmath.workprec(prec + 32):
        m = [list(r) for r in rows]
        nrows = len(m)
        ncols = len(m[0]) if nrows else 0
        scale = max((abs(x) for r in m for x in r), default=mpmath.mpf(0))
        if scale == 0:
            return [tuple(1 if j == i else 0 for j in range(ncols)) for i in range(ncols)]
        col_perm = list(range(ncols))
        pivots = 0
        for step in range(min(nrows, ncols)):
            best = None
            best_val = rtol * scale
            for i in range(pivots, nrows):
                for j in range(pivots, ncols):
                    a = abs(m[i][j])
                    if a > best_val:
                        best_val = a
                        best = (i, j)
            if best is None:
                break
            bi, bj = best
            m[pivots], m[bi] = m[bi], m[pivots]
            if bj != pivots:
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


def rank_numeric(rows, prec: int, rtol=None) -> int:
    ncols = len(rows[0]) if rows else 0
    return ncols - len(kernel_numeric(rows, prec, rtol))

