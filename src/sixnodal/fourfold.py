"""Birational involution on the lines of a cubic fourfold through a nodal
hyperplane section.

The fourfold extends the threefold cubic by a seeded random quadric times
the new coordinate.  A line not inside the hyperplane meets the threefold
in one smooth point; the plane it spans with the unique dual-family line
through that point cuts the fourfold in three lines, and swapping the first
and third is the involution.  Fourfold-level computation runs on the
numeric path at an explicit working precision of prec + 32 bits.  Where
exact forms meet numeric points (the gradient test, phi and the dual-line
conditions by `_numeric.linear_values`, the plane restriction, the scroll
quadrics, the line lift behind `sample_line`) and in the small kernels, it
runs in the Gaussian-integer fixed point of `_numeric`: exact integer sums,
rounded once per value.  `lines_close` compares exact Gaussian-integer
Pluecker vectors there too.  Products of numeric values run on mpc scalars.
A line remembers its image under iota on the fourfold object it was computed
on, so the scroll incidence test after an `involution_check` reads iota(m)
from m rather than computing it a third time.
`sample_line` returns a numeric line, so it asks the root stream of its
chart eliminant (`detgeo._eliminant_roots`, the one path from a squarefree
decomposition to Aberth) for no exact root: no rational-root probe runs, and
the roots are lifted only until one leaves the hyperplane.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import mpmath

from . import _numeric
from ._qlinalg import is_zero_vec, primitive_int_vector
from .detgeo import (DEFAULT_ENTRY_RANGE, DetGeoError, DeterminantalInstance,
                     ProjLine, _eliminant_roots, _lift_roots, direction_chart,
                     ruling_of_scroll, sample_smooth_point, scroll_data)
from .poly import MPoly, _int_jet, _int_terms, gradient


class FourfoldError(ValueError):
    pass


# multiples of default_tolerance(prec) in the numeric checks of iota:
# near-zero guard; absorbs the cancellation in forming y = m cap {x5 = 0}
# from two points of m, and in the gradient evaluated at y
_NEAR_ZERO_SLACK = 1e6
# residual bound of the plane factoring and scroll incidence; absorbs the
# error of the numeric kernels (cokernel, dual line, residual factor) before it
_KERNEL_CHAIN_SLACK = 1e8
# scroll-incidence bound at 256 bits, scaled like the other checks: a fixed
# multiple of default_tolerance(prec) is 0.023 at 64 bits, above the margin
# of a line that misses the scroll
_SCROLL_TOL_AT_256 = 2.0 ** -128 * _KERNEL_CHAIN_SLACK


@dataclass(frozen=True)
class CubicFourfold:
    cubic: MPoly              # six variables; restriction to x5=0 is the threefold
    quadric: MPoly            # the extension quadric
    inst: DeterminantalInstance
    seed: int

    def __post_init__(self):
        rest = MPoly(5, {e[:5]: c for e, c in self.cubic.terms.items() if e[5] == 0})
        if rest != self.inst.cubic_y:
            raise FourfoldError("restriction to the hyperplane is not the threefold")

    @cached_property
    def _threefold_gradient(self) -> list:
        """The integer terms of the partials of the threefold cubic, built on
        first use for the smoothness check of iota."""
        return [_int_terms(g) for g in gradient(self.inst.cubic_y)]


def lines_close(l1: ProjLine, l2: ProjLine, prec: int,
                tol: float = 1e-30) -> bool:
    """Coordinatewise comparison of the Pluecker vectors a of l1 and b of l2,
    both divided by their entry at the first coordinate k where a is largest
    in modulus, so that two lines whose largest entries tie cannot be
    normalized at different coordinates.  A second vector that is 0 there is
    far away.

    Runs on the Gaussian-integer fixed point of `_numeric`: the spanning
    points go to fixed point at prec + 32 bits, the wedges are exact, and
    max_i |a_i/a_k - b_i/b_k| < tol is decided exactly as
    |a_i b_k - b_i a_k|^2 < tol^2 |a_k|^2 |b_k|^2."""
    a, b = _fixed_wedge(l1, prec), _fixed_wedge(l2, prec)
    norms = [x * x + y * y for x, y in a]
    k = max(range(len(a)), key=norms.__getitem__)
    (ar, ai), (br, bi) = a[k], b[k]
    a2, b2 = norms[k], br * br + bi * bi
    if a2 == 0:
        raise DetGeoError("degenerate line")
    if b2 == 0:
        return False
    tn, td = Fraction(tol).as_integer_ratio()
    bound = tn * tn * a2 * b2
    for (xr, xi), (yr, yi) in zip(a, b):
        # x b_k - y a_k
        dr = xr * br - xi * bi - yr * ar + yi * ai
        di = xr * bi + xi * br - yr * ai - yi * ar
        if (dr * dr + di * di) * td * td >= bound:
            return False
    return True


def _fixed_wedge(line: ProjLine, prec: int) -> list:
    """The Pluecker vector of a line as exact Gaussian integers, from its
    spanning points in fixed point at prec + 32 bits (up to a positive power
    of two, which the comparison of `lines_close` cancels)."""
    p, _ = _numeric.to_fixed(line.p0, prec + 32)
    q, _ = _numeric.to_fixed(line.p1, prec + 32)
    out = []
    for i in range(len(p)):
        for j in range(i + 1, len(p)):
            # p_i q_j - p_j q_i
            (a, b), (c, d), (e, f), (g, h) = p[i], q[j], p[j], q[i]
            out.append((a * c - b * d - e * g + f * h, a * d + b * c - e * h - f * g))
    return out


# ---------------------------------------------------------------------------
# building fourfolds


def extend_to_fourfold(inst: DeterminantalInstance, seed: int = 1, *,
                       spot_checks: int | None = None) -> CubicFourfold:
    """X = F + x5 * Q, F the threefold cubic and Q a seeded random quadric.

    Sing(Y), Y = {F = 0}, is exactly the six nodes.  The gradient of det on
    lam_perp at M is B -> tr(adj(M) B), so M is singular iff adj(M) lies in
    lam.  At rank 1, adj(M) = 0: the points of P(lam_perp) on the Segre
    variety of rank-1 matrices, of degree 6, and the six distinct nodes
    leave no room for another (refined Bezout).  At rank 2, adj(M) would be a rank-1 element of lam, a singular point of S,
    which the Macaulay certificate of `make_instance` excludes.  On
    {x5 = 0}, grad X = (grad F, Q); Q is resampled until it avoids the six
    nodes (exact check), so Sing(X) misses the hyperplane {x5 = 0} and,
    as a positive-dimensional set meets every hyperplane, is finite.
    Random lines miss a finite set, so no numeric spot check is run.

    `spot_checks` is accepted and ignored: the `fourfold` workload of the
    benchmark (`bench/worker.py`) still passes it, and it goes once that
    call drops it.
    """
    rng = random.Random(f"{seed}:fourfold")
    y_cubic6 = MPoly(6, {e + (0,): c for e, c in inst.cubic_y.terms.items()})
    x5 = MPoly.var(6, 5)
    for _ in range(64):
        quad = _random_quadric(rng, DEFAULT_ENTRY_RANGE)
        if any(quad.evaluate(tuple(n.coords) + (0,)) == 0 for n in inst.nodes):
            continue
        return CubicFourfold(y_cubic6 + x5 * quad, quad, inst, seed)
    raise FourfoldError("no usable extension quadric found")


def _random_quadric(rng, entry_range) -> MPoly:
    terms = {}
    for i in range(6):
        for j in range(i, 6):
            c = rng.randrange(-entry_range, entry_range + 1)
            if c:
                e = [0] * 6
                e[i] += 1
                e[j] += 1
                terms[tuple(e)] = Fraction(c)
    return MPoly(6, terms)


# ---------------------------------------------------------------------------
# sampling lines


def sample_line(four: CubicFourfold, seed: int = 1, prec: int = 256,
                base_point=None) -> ProjLine:
    """A line on the fourfold through a smooth rational point of the
    hyperplane section, not contained in the hyperplane: the first direction
    through the point with |d5| > 2^-16 |d|.

    The line comes back numeric whatever its direction, so exact roots buy
    nothing: detgeo._eliminant_roots is given no exact root, so no
    rational-root probe runs and every root of the core comes from Aberth,
    one squarefree factor at a time; detgeo._lift_roots lifts them one at a
    time, up to the first direction off the hyperplane.  Where the core has
    no rational root, direction_candidates hands Aberth the same squarefree
    factors, so the line is its first off the hyperplane, to the bit; where
    it has one, that root comes numeric and maybe at another place in the
    order, so another valid line may be returned.
    """
    rng = random.Random(f"{four.seed}:{seed}:line")
    for attempt in range(32):
        y5 = base_point if base_point is not None else \
            sample_smooth_point(four.inst, rng)
        y = tuple(y5) + (Fraction(0),)
        chart_data = direction_chart(four.cubic, y, f"{seed}:{attempt}")
        roots = _eliminant_roots(chart_data[3], prec, ())
        for d, exact, _resid in _lift_roots(chart_data, roots, prec):
            with mpmath.workprec(prec + 32):
                d_num = tuple(_numeric.to_mpc(x, prec) if exact else x for x in d)
                dnorm = max(abs(x) for x in d_num)
                if abs(d_num[5]) > dnorm * mpmath.mpf(2) ** (-16):
                    y_num = tuple(_numeric.to_mpc(x, prec) for x in y)
                    return ProjLine(y_num, d_num, exact=False, prec=prec)
        if base_point is not None:
            raise FourfoldError("all lines through the base point lie in the hyperplane")
    raise FourfoldError("no line found off the hyperplane")


# ---------------------------------------------------------------------------
# the involution


@dataclass(frozen=True)
class IotaResult:
    line: ProjLine
    base_point: tuple          # y = m cap {x5 = 0}
    dual_line_point: tuple     # second spanning point of the dual-family line
    factor_residual: float     # relative size of the forbidden coefficients


def _hyperplane_point(line: ProjLine, prec):
    """(p0, p1, y): the spanning points of the line as mpc vectors and its
    point y = p1[5] p0 - p0[5] p1 on {x5 = 0}, scaled to largest modulus 1.
    Runs at the ambient precision, prec + 32 bits in its callers."""
    p0 = tuple(_numeric.to_mpc(x, prec) for x in line.p0)
    p1 = tuple(_numeric.to_mpc(x, prec) for x in line.p1)
    # y is bilinear in (p0, p1), so its size is judged against both norms
    scale = max(abs(x) for x in p0) * max(abs(x) for x in p1)
    y = tuple(p1[5] * a - p0[5] * b for a, b in zip(p0, p1))
    ynorm = max(abs(x) for x in y)
    if ynorm <= _numeric.default_tolerance(prec) * scale * _NEAR_ZERO_SLACK:
        raise FourfoldError("line lies in the hyperplane section")
    return p0, p1, tuple(x / ynorm for x in y)


def iota(four: CubicFourfold, m: ProjLine) -> IotaResult:
    """Residual line of the plane spanned by m and the dual-family line
    through its hyperplane-section point.

    The plane restriction factors as t * u * L; the seven coefficients not
    divisible by t*u must vanish, their relative size is reported, and the
    residual line is {L = 0}.  It works at the line's own precision m.prec
    (256 bits for an exact m), and the residual line carries it too.

    The result is remembered on m, as ProjLine caches its Pluecker vector,
    together with the fourfold it was computed on: a later call on the same
    line object and the same fourfold object returns it, any other call
    computes afresh.  The memo lives as long as the line.
    """
    memo = getattr(m, "_iota", None)
    if memo is not None and memo[0] is four:
        return memo[1]
    result = _iota(four, m)
    object.__setattr__(m, "_iota", (four, result))
    return result


def _iota(four: CubicFourfold, m: ProjLine) -> IotaResult:
    prec = m.prec or 256
    with mpmath.workprec(prec + 32):
        tol = _numeric.default_tolerance(prec)
        p0, p1, y = _hyperplane_point(m, prec)

        # smoothness of the threefold at y and the unique dual-family line
        y5 = y[:5]
        cubic_y = four.inst.cubic_y
        grads = _numeric.evaluate_fixed(four._threefold_gradient, y5, prec + 32)
        gscale = _numeric.to_mpc(max(map(abs, cubic_y.terms.values()))).real
        if max(abs(x) for x in grads) <= tol * gscale * _NEAR_ZERO_SLACK:
            raise FourfoldError("hyperplane point is singular on the threefold")
        perp = four.inst.lam_perp
        phi_t = _numeric.linear_values(perp.forms_t, y5, prec)
        coker = _numeric.kernel_numeric(phi_t, prec)
        if len(coker) != 1:
            raise FourfoldError("hyperplane point has no unique dual line")
        vdual = coker[0]

        # the dual line: y-coordinates with phi^T vdual = 0
        cond = _numeric.linear_values(perp.image_t, vdual, prec)
        kern = _numeric.kernel_numeric(cond, prec)
        if len(kern) != 2:
            raise FourfoldError("dual-family line is degenerate")
        # spanning point of the dual line independent from y
        b_pt = _independent_point(kern, y5, prec)
        b6 = tuple(b_pt) + (mpmath.mpc(0),)

        a6 = p0 if abs(p0[5]) >= abs(p1[5]) else p1
        if _numeric.rank_numeric([list(y), list(a6), list(b6)], prec) != 3:
            raise FourfoldError("plane through m and the dual line is degenerate")

        coeffs = _plane_restriction(four.cubic, (y, a6, b6), prec)
        # of t u L: the coefficients of s t u, t^2 u and t u^2 are those of L
        allowed = ((1, 1, 1), (0, 2, 1), (0, 1, 2))
        cmax = max(abs(c) for c in coeffs.values())
        bad = max((abs(c) for e, c in coeffs.items() if e not in allowed),
                  default=mpmath.mpf(0))
        if cmax == 0 or bad > tol * cmax * _KERNEL_CHAIN_SLACK:
            raise FourfoldError("plane restriction does not factor (residual "
                                f"{mpmath.nstr(bad / max(cmax, 1), 6)})")
        kern_l = _numeric.kernel_numeric([[coeffs.get(e, mpmath.mpc(0)) for e in allowed]],
                                         prec)
        if len(kern_l) != 2:
            raise FourfoldError("residual factor is not a line")
        pts = [tuple(k[0] * y[j] + k[1] * a6[j] + k[2] * b6[j] for j in range(6))
               for k in kern_l]
        out = ProjLine(pts[0], pts[1], exact=False, prec=prec)
        return IotaResult(out, y, b6, float(bad / cmax))


def _independent_point(kernel_pair, y5, prec):
    """Point of the numeric plane span(kernel_pair) least aligned with y5: the
    least squared cosine |<c, y5>|^2 / (|c|^2 |y5|^2), compared exactly on
    fixed-point vectors, where the shifts cancel."""
    with mpmath.workprec(prec + 32):
        cands = (*kernel_pair, tuple(a + b for a, b in zip(*kernel_pair)))
    ys, _ = _numeric.to_fixed(y5, prec + 32)
    y2 = sum(a * a + b * b for a, b in ys)

    def cosine2(cand):
        cs, _ = _numeric.to_fixed(cand, prec + 32)
        re = sum(a * c + b * d for (a, b), (c, d) in zip(cs, ys))
        im = sum(b * c - a * d for (a, b), (c, d) in zip(cs, ys))
        return Fraction(re * re + im * im, sum(a * a + b * b for a, b in cs) * y2)

    return min(cands, key=cosine2)


def _plane_exponent(*idx):
    key = [0, 0, 0]
    for i in idx:
        key[i] += 1
    return tuple(key)


# quadratic monomials s_m s_n (m <= n) in the plane coordinates, each with the
# exponents of s_m s_n s_p for p = 0, 1, 2
_PLANE_QUADRATIC = [(m, n, [_plane_exponent(m, n, p) for p in range(3)])
                    for m in range(3) for n in range(m, 3)]


def _plane_restriction(cubic: MPoly, basis3, prec):
    """Coefficients of a cubic restricted to span(basis3) in plane
    coordinates.

    The cubic, in integers over one denominator, is the sum over i <= j of
    x_i x_j L_ij.  Each L_ij is restricted once and multiplied by the
    quadratic l_i l_j, where l_i = (basis3[0][i], basis3[1][i],
    basis3[2][i]) is the restriction of x_i.  The basis vectors are
    fixed-point vectors with shifts s_m, so the coefficient of s^a t^b u^c is
    an exact sum over 2^(a s_0 + b s_1 + c s_2), rounded once.
    """
    ints, den = _int_terms(cubic)
    linear: dict = {}
    for e, c in ints.items():
        i, j, k = [v for v in range(cubic.nvars) for _ in range(e[v])]
        linear.setdefault((i, j), []).append((k, c))
    fixed = [_numeric.to_fixed(b, prec + 32) for b in basis3]
    pts = [f[0] for f in fixed]
    out: dict = {}
    for (i, j), terms in linear.items():
        form = [(sum(c * pts[m][k][0] for k, c in terms),
                 sum(c * pts[m][k][1] for k, c in terms)) for m in range(3)]
        for m, n, keys in _PLANE_QUADRATIC:
            (a, b), (c, d) = pts[m][i], pts[n][j]
            qr, qi = a * c - b * d, a * d + b * c
            if m != n:
                (a, b), (c, d) = pts[n][i], pts[m][j]
                qr, qi = qr + a * c - b * d, qi + a * d + b * c
            for key, (lr, li) in zip(keys, form):
                re, im = out.get(key, (0, 0))
                out[key] = (re + qr * lr - qi * li, im + qr * li + qi * lr)
    return {key: _numeric.from_fixed(re, im,
                                     -sum(k * f[1] for k, f in zip(key, fixed)),
                                     prec + 32, den)
            for key, (re, im) in out.items()}


def involution_check(four: CubicFourfold, m: ProjLine, tol: float | None = None):
    """Apply iota twice and compare with the input line, at the line's own
    precision prec = m.prec (256 bits for an exact m) and by default within
    check_tolerance(prec, 1e-30).  iota(m) stays remembered on m and
    iota(iota(m)) on the image, so a later iota or scroll incidence test of
    m reads them."""
    prec = m.prec or 256
    if tol is None:
        tol = _numeric.check_tolerance(prec, 1e-30)
    first = iota(four, m)
    second = iota(four, first.line)
    return lines_close(second.line, m, prec, tol), first, second


# ---------------------------------------------------------------------------
# scroll incidence


@dataclass(frozen=True)
class ScrollIncidence:
    meets_before: bool
    meets_after: bool
    margin_before: float
    margin_after: float

    @property
    def invariant(self) -> bool:
        return self.meets_before == self.meets_after


def _meets_scroll(y, quadrics, prec):
    """Incidence of a fourfold line with a scroll inside the hyperplane,
    given the line's unique hyperplane point y (of `_hyperplane_point`): y
    must satisfy the three quadrics, relative to their coefficient scales.
    The quadrics are evaluated in one fixed-point pass at the ambient
    precision, prec + 32 bits."""
    with mpmath.workprec(prec + 32):
        tol = _numeric.check_tolerance(prec, _SCROLL_TOL_AT_256)
        values = _numeric.evaluate_fixed([_int_terms(q) for q in quadrics], y[:5],
                                         mpmath.mp.prec)
        margin = mpmath.mpf(0)
        for q, value in zip(quadrics, values):
            qscale = _numeric.to_mpc(max(map(abs, q.terms.values()))).real
            margin = max(margin, abs(value) / qscale)
        return bool(margin <= tol), float(margin)


def scroll_incidence_invariance(four: CubicFourfold, m: ProjLine, v) -> ScrollIncidence:
    """Does iota preserve incidence with the scroll of v?  Both incidences
    are tested at the line's own precision m.prec (256 bits for an exact m).
    The hyperplane point of m is the base point of iota(m), which m
    remembers after an `involution_check`; that of the image comes from
    `_hyperplane_point` alone, as its own iota is not needed."""
    prec = m.prec or 256
    sd = scroll_data(four.inst, v)
    first = iota(four, m)
    before, margin_b = _meets_scroll(first.base_point, sd.quadrics_v, prec)
    with mpmath.workprec(prec + 32):
        y_after = _hyperplane_point(first.line, prec)[2]
    after, margin_a = _meets_scroll(y_after, sd.quadrics_v, prec)
    return ScrollIncidence(before, after, margin_b, margin_a)


def sample_line_through_scroll(four: CubicFourfold, v, seed: int = 1,
                               prec: int = 256) -> ProjLine:
    """A fourfold line through a smooth rational point of the scroll of v
    (planted incidence for the invariance tests)."""
    rng = random.Random(f"{four.seed}:{seed}:scrollpt")
    inst = four.inst
    for attempt in range(64):
        ruling = ruling_of_scroll(inst, v, index=rng.randrange(1 << 30))
        s, t = rng.randrange(1, 9), rng.randrange(1, 9)
        z = ruling.point_at(Fraction(s), Fraction(t))
        if is_zero_vec(z):
            continue
        z = primitive_int_vector(z)
        if not any(_int_jet(_int_terms(inst.cubic_y)[0], z, 1)[1]):
            continue
        try:
            return sample_line(four, seed=attempt + 137 * seed, prec=prec, base_point=z)
        except (FourfoldError, DetGeoError):
            continue
    raise FourfoldError("no line through the scroll found")
