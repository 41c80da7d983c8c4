"""Exact multivariate polynomial kernel over arbitrary-precision rationals.

Sparse exponent-map representation, graded-lex normalization for printing.
Carries the determinant/Jacobian/resultant machinery plus a multiprecision
complex root finder (rational roots are extracted exactly by a modular
method, the rest go through an Aberth-style simultaneous iteration, started
in double precision and finished in Gaussian-integer fixed point).
"""

from __future__ import annotations

import cmath
import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, inf, isqrt, lcm, prod
from operator import add

import mpmath

from . import _numeric
from ._qlinalg import (Q, clear_denominators, det, int_det_bareiss, linear_terms,
                       primitive, rank)


class PolyError(ValueError):
    pass


class MacaulayInconclusive(PolyError):
    """Raised when every attempted Macaulay minor is degenerate."""


def _grlex_key(e):
    return (sum(e), tuple(-x for x in e))


def _int_terms(p: "MPoly") -> tuple[dict, int]:
    """p's terms as integer numerators over one common denominator, cleared
    once per MPoly (instances are immutable) and shared: read-only."""
    if p._ints is None:
        ints, den = clear_denominators(p.terms.values())
        p._ints = dict(zip(p.terms, ints)), den
    return p._ints


def _int_value(terms: dict, xs, dx: int = 1) -> int:
    """dx^deg times the value at the rational point xs/dx of an integer term
    dict of degree deg: the sum of c x^e dx^(deg - |e|), in integers."""
    deg = max(map(sum, terms), default=0)
    total = 0
    for e, c in terms.items():
        for x, k in zip(xs, e):
            if k:
                c *= x if k == 1 else x ** k
        total += c if dx == 1 else c * dx ** (deg - sum(e))
    return total


def _int_jet(terms: dict, xs, order: int = 2) -> list:
    """[value, gradient] and, at order 2, the Hessian at the integer point xs
    of an integer term dict, in integers.  A term c x^e is c times the
    product of its factors x_i, one per unit of e_i; dropping the factor at
    one position adds to a partial, and dropping two adds to the Hessian at
    both orders of the pair (twice on the diagonal for a square)."""
    n = len(xs)
    value, grad = 0, [0] * n
    hess = [[0] * n for _ in range(n)]
    for e, c in terms.items():
        idx = [i for i, k in enumerate(e) for _ in range(k)]
        vals = [xs[i] for i in idx]
        value += c * prod(vals)
        for p, i in enumerate(idx):
            rest = vals[:p] + vals[p + 1:]
            grad[i] += c * prod(rest)
            if order < 2:
                continue
            for q in range(p + 1, len(idx)):
                h = c * prod(rest[:q - 1] + rest[q:])
                hess[i][idx[q]] += h
                hess[idx[q]][i] += h
    return [value, grad, hess][:order + 1]


def _int_product(a: dict, b: dict) -> dict:
    """Product of two integer term dicts.  A coefficient that cancels to
    zero is dropped and re-inserted if it reappears, as Fraction sums did,
    so the term order is that of the Fraction product."""
    out: dict = {}
    for e1, x in a.items():
        for e2, y in b.items():
            e = tuple(map(add, e1, e2))
            s = out.get(e, 0) + x * y
            if s:
                out[e] = s
            else:
                del out[e]
    return out


def _int_power(terms: dict, k: int, nvars: int) -> dict:
    """terms**k for an integer term dict, by binary powering as
    MPoly.__pow__ does, so the terms come in the order of its products."""
    result = {(0,) * nvars: 1}
    while k:
        if k & 1:
            result = _int_product(result, terms)
        k >>= 1
        if k:
            terms = _int_product(terms, terms)
    return result


def _int_accumulate(acc: dict, terms: dict, scale: int = 1) -> None:
    """acc += scale * terms on integer term dicts, in place, with a
    coefficient that cancels to zero dropped as in _int_product."""
    for e, x in terms.items():
        s = acc.get(e, 0) + scale * x
        if s:
            acc[e] = s
        else:
            del acc[e]


class MPoly:
    """Multivariate polynomial with exact rational coefficients.

    Terms live in a dict mapping exponent tuples to nonzero Fractions.
    Instances are treated as immutable; all arithmetic returns new objects.
    """

    __slots__ = ("nvars", "terms", "_ints")

    def __init__(self, nvars: int, terms=None):
        self.nvars = nvars
        self._ints = None       # _int_terms, cleared on first use
        clean = {}
        if terms:
            for e, c in terms.items():
                c = Q(c)
                if c != 0:
                    if len(e) != nvars:
                        raise PolyError("exponent arity mismatch")
                    clean[tuple(e)] = c
        self.terms = clean

    # -- constructors ------------------------------------------------------
    @classmethod
    def _wrap(cls, nvars: int, terms: dict) -> "MPoly":
        """Adopt terms that are already nonzero Fractions on exponent tuples
        of the right arity, without __init__'s copy and checks."""
        out = object.__new__(cls)
        out.nvars = nvars
        out.terms = terms
        out._ints = None
        return out

    @classmethod
    def zero(cls, nvars: int) -> "MPoly":
        return cls(nvars, {})

    @classmethod
    def const(cls, nvars: int, c) -> "MPoly":
        return cls(nvars, {(0,) * nvars: Q(c)})

    @classmethod
    def var(cls, nvars: int, i: int) -> "MPoly":
        e = [0] * nvars
        e[i] = 1
        return cls(nvars, {tuple(e): Fraction(1)})

    @classmethod
    def variables(cls, nvars: int) -> list["MPoly"]:
        return [cls.var(nvars, i) for i in range(nvars)]

    @classmethod
    def linear_form(cls, coeffs) -> "MPoly":
        return cls(len(coeffs), linear_terms(coeffs))

    # -- ring operations ---------------------------------------------------
    def _coerce(self, other):
        if isinstance(other, MPoly):
            if other.nvars != self.nvars:
                raise PolyError("variable count mismatch")
            return other
        return MPoly.const(self.nvars, other)

    def __add__(self, other):
        other = self._coerce(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, Fraction(0)) + c
            if s == 0:
                out.pop(e, None)
            else:
                out[e] = s
        return MPoly._wrap(self.nvars, out)

    __radd__ = __add__

    def __neg__(self):
        return MPoly._wrap(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        if not isinstance(other, MPoly):
            c = Q(other)
            if c == 0:
                return MPoly.zero(self.nvars)
            return MPoly._wrap(self.nvars, {e: c * v for e, v in self.terms.items()})
        other = self._coerce(other)
        a, da = _int_terms(self)
        b, db = _int_terms(other)
        den = da * db
        return MPoly._wrap(self.nvars, {e: Fraction(s, den)
                                        for e, s in _int_product(a, b).items()})

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise PolyError("negative power")
        terms, den = _int_terms(self)
        return MPoly._wrap(self.nvars, {e: Fraction(x, den ** k) for e, x
                                        in _int_power(terms, k, self.nvars).items()})

    def __eq__(self, other):
        if isinstance(other, MPoly):
            return self.nvars == other.nvars and self.terms == other.terms
        return self.terms == self._coerce(other).terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        return max((sum(e) for e in self.terms), default=-1)

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def coefficient(self, e) -> Fraction:
        return self.terms.get(tuple(e), Fraction(0))

    def partial(self, i: int) -> "MPoly":
        out = {}
        for e, c in self.terms.items():
            if e[i] > 0:
                e2 = list(e)
                e2[i] -= 1
                out[tuple(e2)] = c * e[i]
        return MPoly._wrap(self.nvars, out)

    def evaluate(self, point):
        """Evaluate at a point of int, Fraction, mpf or mpc entries.

        At a rational point the value is an exact Fraction, summed on
        integers by `_int_value`.  At any other point the integer coefficients
        meet the point in Gaussian-integer fixed point
        (`_numeric.evaluate_mpc`), and the value is an mpc rounded once at
        the ambient mpmath precision.
        """
        if len(point) != self.nvars:
            raise PolyError("point arity mismatch")
        if all(isinstance(x, (int, Fraction)) for x in point):
            xs, dx = clear_denominators(point)
            terms, den = _int_terms(self)
            return Fraction(_int_value(terms, xs, dx), den * dx ** max(self.degree(), 0))
        return _numeric.evaluate_mpc(_int_terms(self), point, mpmath.mp.prec)

    def compose(self, substitutions: list["MPoly"]) -> "MPoly":
        """Substitute substitutions[i] for variable i.

        Runs on integers.  The product for a monomial x^e of self is that of
        its prefix monomial (e with its last nonzero exponent e_i zeroed),
        memoized by exponent, times substitutions[i]**e_i, memoized per
        variable; so the terms come in the order of the Fraction products.
        Only prefixes are kept, as each monomial of self is met once.  The
        terms are summed over the lcm of their denominators and divided once.
        """
        if len(substitutions) != self.nvars:
            raise PolyError("substitution arity mismatch")
        n_out = substitutions[0].nvars if substitutions else 0
        if any(s.nvars != n_out for s in substitutions):
            raise PolyError("substitutions disagree on variable count")
        cleared = [_int_terms(s) for s in substitutions]
        # powers[i][k]: substitutions[i]**k as (integer terms, denominator)
        powers: list[dict[int, tuple]] = [dict() for _ in range(self.nvars)]
        prefixes: dict = {}

        def product(e):
            """prod_i substitutions[i]**e_i as (integer terms, denominator)."""
            i = max(i for i, k in enumerate(e) if k)
            if e[i] not in powers[i]:
                sub, d = cleared[i]
                powers[i][e[i]] = (_int_power(sub, e[i], n_out), d ** e[i])
            terms, den = powers[i][e[i]]
            head = e[:i] + (0,) * (len(e) - i)
            if any(head):
                if head not in prefixes:
                    prefixes[head] = product(head)
                head_terms, head_den = prefixes[head]
                terms, den = _int_product(head_terms, terms), head_den * den
            return terms, den

        # c * product(e) has denominator c.den * den; every term is summed as
        # an integer over the lcm of these
        parts = []
        for e, c in self.terms.items():
            terms, den = product(e) if any(e) else ({(0,) * n_out: 1}, 1)
            parts.append((c.numerator, c.denominator * den, terms))
        # product reaches itself through its closure cell: clearing the cell
        # frees it, powers and prefixes here rather than in the cyclic collector
        del product
        common = lcm(*(den for _, den, _ in parts))
        out: dict = {}
        for num, den, terms in parts:
            _int_accumulate(out, terms, num * (common // den))
        return MPoly._wrap(n_out, {e: Fraction(s, common) for e, s in out.items()})

    def coefficients_in(self, i: int) -> dict[int, "MPoly"]:
        """Split into coefficients of powers of variable i (variable i removed
        from the exponent, arity preserved)."""
        out: dict[int, dict] = {}
        for e, c in self.terms.items():
            k = e[i]
            e2 = list(e)
            e2[i] = 0
            out.setdefault(k, {})[tuple(e2)] = c
        return {k: MPoly(self.nvars, t) for k, t in out.items()}

    def content_normalized(self) -> "MPoly":
        """Scale so coefficients are coprime integers, leading (grlex) > 0."""
        if not self.terms:
            return self
        ints, _ = clear_denominators(self.terms.values())
        g = gcd(*ints)
        if self.terms[min(self.terms, key=_grlex_key)] < 0:
            g = -g
        return MPoly._wrap(self.nvars, {e: Fraction(x // g)
                                        for e, x in zip(self.terms, ints)})

    # -- serialization and printing ---------------------------------------
    def to_json(self) -> dict:
        terms = sorted(self.terms.items(), key=lambda t: _grlex_key(t[0]))
        return {
            "vars": self.nvars,
            "terms": [[list(e), f"{c.numerator}/{c.denominator}"] for e, c in terms],
        }

    @classmethod
    def from_json(cls, data: dict) -> "MPoly":
        terms = {tuple(e): Fraction(c) for e, c in data["terms"]}
        return cls(data["vars"], terms)

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for e, c in sorted(self.terms.items(), key=lambda t: _grlex_key(t[0])):
            mono = "*".join(
                f"x{i}" if k == 1 else f"x{i}^{k}" for i, k in enumerate(e) if k
            )
            if mono:
                bits.append(f"{c}*{mono}" if c != 1 else mono)
            else:
                bits.append(str(c))
        return " + ".join(bits)


def gradient(f: MPoly) -> list[MPoly]:
    """Partial derivatives in variable order."""
    return [f.partial(i) for i in range(f.nvars)]


def divide_exact(f: MPoly, g: MPoly) -> MPoly:
    """Exact quotient f/g; raises PolyError if g does not divide f."""
    if g.is_zero():
        raise PolyError("division by zero polynomial")
    g = f._coerce(g)
    quotient = MPoly.zero(f.nvars)
    rem = f
    g_lead = min(g.terms, key=_grlex_key)
    g_lc = g.terms[g_lead]
    while not rem.is_zero():
        r_lead = min(rem.terms, key=_grlex_key)
        diff = tuple(a - b for a, b in zip(r_lead, g_lead))
        if any(d < 0 for d in diff):
            raise PolyError("not an exact division")
        t = MPoly(f.nvars, {diff: rem.terms[r_lead] / g_lc})
        quotient = quotient + t
        rem = rem - t * g
    return quotient


def poly_det(m: list[list[MPoly]]) -> MPoly:
    """Exact determinant of a square matrix of polynomials.

    Each row is scaled once to integer term dicts over the lcm of its
    denominators, `_int_poly_det` expands the integer matrix, and the
    product of the row denominators divides the result once, at the end.
    """
    n = len(m)
    if n == 0:
        raise PolyError("empty matrix")
    if any(len(row) != n for row in m):
        raise PolyError("matrix not square")
    nv = m[0][0].nvars
    if any(entry.nvars != nv for row in m for entry in row):
        raise PolyError("entries disagree on variable count")
    scale = 1
    rows = []
    for row in m:
        parts = [_int_terms(entry) for entry in row]
        den = lcm(*(d for _, d in parts))
        scale *= den
        rows.append([{e: x * (den // d) for e, x in terms.items()} for terms, d in parts])
    full = _int_poly_det(rows, nv)
    return MPoly._wrap(nv, {e: Fraction(x, scale) for e, x in full.items()})


def _int_poly_det(rows: list[list[dict]], nv: int) -> dict:
    """Determinant of a square matrix of integer term dicts in nv variables.

    Expansion over column subsets (O(n 2^n) ring products), which beats both
    cofactor recursion and Bareiss for polynomial entries at these sizes:
    the minors on the top rows are integer term dicts keyed by the bitmask
    of their columns.
    """
    states = {0: {(0,) * nv: 1}}
    for i, row in enumerate(rows):
        new_states: dict = {}
        for used, val in states.items():
            if not val:
                continue
            for j, entry in enumerate(row):
                bit = 1 << j
                if used & bit or not entry:
                    continue
                sign = -1 if (i + (used & (bit - 1)).bit_count()) % 2 else 1
                _int_accumulate(new_states.setdefault(used | bit, {}),
                                _int_product(val, entry), sign)
        states = new_states
    return states.get((1 << len(rows)) - 1, {})


def restrict_to_subspace(f: MPoly, basis) -> MPoly:
    """Compose f with the linear parametrization x = sum_i s_i basis[i], on
    integers through MPoly.compose."""
    basis = list(basis)
    if not basis:
        raise PolyError("empty basis")
    if any(len(b) != f.nvars for b in basis):
        raise PolyError("basis vectors have wrong length")
    if rank(basis) != len(basis):
        raise PolyError("basis not linearly independent")
    k = len(basis)
    subs = [MPoly.linear_form([basis[i][j] for i in range(k)]) for j in range(f.nvars)]
    return f.compose(subs)


# ---------------------------------------------------------------------------
# dense univariate layer


class UPoly:
    """Dense univariate polynomial over the rationals, coeffs[i] ~ x^i."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = [Q(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def zero(cls):
        return cls([])

    @classmethod
    def const(cls, c):
        return cls([c])

    @classmethod
    def x(cls):
        return cls([0, 1])

    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self) -> Fraction:
        if self.is_zero():
            raise PolyError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __eq__(self, other):
        return isinstance(other, UPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        n = max(len(a), len(b))
        return UPoly([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)])

    def __neg__(self):
        return UPoly([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, UPoly):
            return UPoly([Q(other) * c for c in self.coeffs])
        if self.is_zero() or other.is_zero():
            return UPoly.zero()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return UPoly(out)

    __rmul__ = __mul__

    def __call__(self, x):
        total = 0
        for c in reversed(self.coeffs):
            total = total * x + c
        return total

    def derivative(self) -> "UPoly":
        return UPoly([i * c for i, c in enumerate(self.coeffs)][1:])

    def divmod(self, other: "UPoly") -> tuple["UPoly", "UPoly"]:
        if other.is_zero():
            raise PolyError("division by zero")
        q = [Fraction(0)] * max(0, len(self.coeffs) - len(other.coeffs) + 1)
        rem = list(self.coeffs)
        d = other.degree()
        lc = other.leading()
        while len(rem) - 1 >= d:
            k = len(rem) - 1 - d
            f = rem[-1] / lc
            q[k] = f
            for i, c in enumerate(other.coeffs):
                rem[k + i] -= f * c
            rem.pop()
        return UPoly(q), UPoly(rem)

    def monic(self) -> "UPoly":
        if self.is_zero():
            return self
        lc = self.leading()
        return UPoly([c / lc for c in self.coeffs])

    def gcd(self, other: "UPoly") -> "UPoly":
        a, b = self, other
        while not b.is_zero():
            a, b = b, a.divmod(b)[1]
        return a.monic() if not a.is_zero() else a

    def is_squarefree(self) -> bool:
        """gcd(f, f') = 1: certified mod one prime when it can be, otherwise
        decided by exact Euclid over Q."""
        if self.degree() < 1:
            return True
        return (_squarefree_prime(_primitive_int_coeffs(self), 1) is not None
                or self.gcd(self.derivative()).degree() == 0)

    def squarefree_decomposition(self) -> list[tuple["UPoly", int]]:
        """[(q_k, k)] with self ~ prod q_k^k, q_k squarefree and monic.

        A squarefree certificate mod one prime returns [(self.monic(), 1)] at
        once; exact Yun over Q runs only when that test fails.
        """
        if self.degree() < 1:
            return []
        f = self.monic()
        if _squarefree_prime(_primitive_int_coeffs(f), 1) is not None:
            return [(f, 1)]
        d = f.derivative()
        a = f.gcd(d)
        out = []
        b = f.divmod(a)[0]
        c = d.divmod(a)[0]
        k = 1
        while b.degree() >= 1:
            z = c - b.derivative()
            g = b.gcd(z) if not z.is_zero() else b
            if g.degree() >= 1:
                out.append((g.monic(), k))
                b = b.divmod(g)[0]
                c = z.divmod(g)[0] if not z.is_zero() else c
            else:
                c = z
            if z.is_zero():
                break
            k += 1
        if b.degree() >= 1:
            out.append((b.monic(), k))
        return out

    def __repr__(self):
        if self.is_zero():
            return "0"
        bits = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            bits.append(f"{c}" if i == 0 else (f"{c}*t^{i}" if i > 1 else f"{c}*t"))
        return " + ".join(bits)


def sylvester_resultant(f_coeffs: list[MPoly], g_coeffs: list[MPoly]) -> MPoly:
    """Resultant of two polynomials in one eliminated variable, given by
    their coefficient lists (entry k multiplies the k-th power): the
    determinant of the Sylvester matrix, expanded by poly_det."""
    m = len(f_coeffs) - 1
    n = len(g_coeffs) - 1
    if m < 0 or n < 0:
        raise PolyError("zero polynomial in resultant")
    if m == 0 and n == 0:
        raise PolyError("both inputs constant in the eliminated variable")
    zero = MPoly.zero(f_coeffs[0].nvars)
    rows = []
    for coeffs, shifts in ((f_coeffs, n), (g_coeffs, m)):
        for i in range(shifts):
            row = [zero] * (m + n)
            for k, c in enumerate(reversed(coeffs)):
                row[i + k] = c
            rows.append(row)
    return poly_det(rows)


def resultant_bivariate(f: MPoly, g: MPoly, eliminate: int) -> UPoly:
    """Sylvester resultant of two bivariate polynomials, eliminating the given
    variable; the output is univariate in the other one (sylvester_resultant
    on the coefficients_in parts)."""
    if f.nvars != 2 or g.nvars != 2:
        raise PolyError("resultant_bivariate expects two variables")
    keep = 1 - eliminate

    def coeff_list(p: MPoly) -> list[MPoly]:
        split = p.coefficients_in(eliminate)
        return [split.get(k, MPoly.zero(2)) for k in range(max(split, default=-1) + 1)]

    res = sylvester_resultant(coeff_list(f), coeff_list(g))
    dense = [Fraction(0)] * (res.degree() + 1)
    for e, c in res.terms.items():
        dense[e[keep]] = c
    return UPoly(dense)


# ---------------------------------------------------------------------------
# Macaulay resultant


def _monomials_of_degree(nvars: int, d: int):
    for bars in itertools.combinations(range(d + nvars - 1), nvars - 1):
        e = []
        prev = -1
        for b in bars:
            e.append(b - prev - 1)
            prev = b
        e.append(d + nvars - 2 - prev)
        yield tuple(e)


def macaulay_matrix(forms: list[MPoly], degree: int):
    """The degree-`degree` monomials as column indices, and the integer rows
    x^s f of the Macaulay matrix, for each form f and each |s| = degree -
    deg f, with f scaled once to integer coefficients."""
    n = forms[0].nvars
    cols = {m: i for i, m in enumerate(_monomials_of_degree(n, degree))}
    rows = []
    for f in forms:
        terms = _int_terms(f)[0].items()
        for s in _monomials_of_degree(n, degree - f.degree()):
            row = [0] * len(cols)
            for e, c in terms:
                row[cols[tuple(map(add, e, s))]] = c
            rows.append(row)
    return cols, rows


def _check_square_system(forms: list[MPoly]) -> None:
    if len(forms) < 2:
        raise PolyError("need at least two forms")
    if any(f.nvars != len(forms) or not f.is_homogeneous() for f in forms):
        raise PolyError("need n+1 homogeneous forms in n+1 variables")


def macaulay_resultant(forms: list[MPoly]) -> Fraction:
    """Classical Macaulay resultant of n+1 homogeneous forms in n+1 variables.

    Computed as D/D' with D the determinant of the square Macaulay matrix at
    the critical degree and D' the minor on non-reduced monomials.  Both
    are taken by integer Bareiss on the rows of macaulay_matrix, and the
    denominators cleared from the forms are divided out again.  This is the
    only Macaulay path that retries: a degenerate minor triggers retries
    under shuffled variable orders, then under seeded generic linear changes
    of coordinates (which rescale the resultant by a nonzero factor, so the
    zero/nonzero verdict survives); if every attempt degenerates a
    MacaulayInconclusive is raised.  Nonzero output certifies the forms have
    no common projective zero.
    """
    _check_square_system(forms)
    if any(f.is_zero() for f in forms):
        raise PolyError("forms must be nonzero")
    degs = [f.degree() for f in forms]
    for attempt in _macaulay_attempts(forms):
        big, sub, scale = _macaulay_matrices(attempt, degs)
        dp = int_det_bareiss(sub)
        if dp:
            return Fraction(int_det_bareiss(big), dp * scale)
    raise MacaulayInconclusive("degenerate Macaulay minor under all variable orders")


def macaulay_nonzero(forms: list[MPoly]) -> bool:
    """Whether n homogeneous forms in n variables have no common projective
    zero over the algebraic closure (a nonzero resultant): full column rank
    of macaulay_matrix at D = sum(d_i - 1) + 1.

    The monomial values of a common zero lie in the kernel.  Conversely,
    forms with no common zero are a complete intersection whose quotient has
    Hilbert series prod(1 - t^d_i) / (1 - t)^n, of degree D - 1, so the rows
    span every monomial of degree D.  The rank mod _MACAULAY_PRIME is at
    most the rank over Q, so a full one proves True; only a deficit mod p
    runs the exact rank, so every False is exact.  No minor can degenerate,
    so nothing is retried.  A zero form adds nothing to D, and the other
    forms, fewer than n, share a zero: the verdict is False.
    """
    _check_square_system(forms)
    degree = sum(f.degree() - 1 for f in forms if not f.is_zero()) + 1
    cols, rows = macaulay_matrix(forms, degree)
    return _rank_mod(rows, _MACAULAY_PRIME) == len(cols) or rank(rows) == len(cols)


# attempts per stage: variable permutations, then generic substitutions
_MACAULAY_RETRIES = 4


def _macaulay_attempts(forms: list[MPoly]):
    """The forms under each variable order, then each seeded substitution,
    that macaulay_resultant tries in turn."""
    n = len(forms)
    rng = random.Random(20231114)
    perm = list(range(n))
    for _ in range(_MACAULAY_RETRIES):
        yield [_permute_vars(f, perm) for f in forms]
        perm = list(range(n))
        rng.shuffle(perm)
    # fully symmetric inputs defeat permutations; a generic substitution does not
    for _ in range(_MACAULAY_RETRIES):
        g = [[Fraction(rng.randrange(-5, 6)) for _ in range(n)] for _ in range(n)]
        if det(g) == 0:
            continue
        subs = [MPoly.linear_form(row) for row in g]
        yield [f.compose(subs) for f in forms]


def _permute_vars(f: MPoly, perm: list[int]) -> MPoly:
    return MPoly(f.nvars, {tuple(e[perm[i]] for i in range(f.nvars)): c
                           for e, c in f.terms.items()})


def _macaulay_matrices(forms: list[MPoly], degs: list[int]):
    """Square integer Macaulay matrix, its minor on the non-reduced
    monomials, and the factor prod den_i^(rows_i(big) - rows_i(sub)) by
    which clearing the denominators of form i (lcm den_i) scales
    det(big)/det(sub).  The row of a monomial m is the row x^s f_i of
    macaulay_matrix with x^s x_i^d_i = m and i the first index with
    m_i >= d_i, placed at the column index of m."""
    n = len(forms)
    t = sum(d - 1 for d in degs) + 1
    cols, rows = macaulay_matrix(forms, t)
    dens = [_int_terms(f)[1] for f in forms]
    shifts = [(i, s) for i, d in enumerate(degs) for s in _monomials_of_degree(n, t - d)]
    big: list = [None] * len(cols)
    non_reduced = []
    scale = 1
    for (i, s), row in zip(shifts, rows):
        if any(s[j] >= degs[j] for j in range(i)):
            continue
        mono = cols[s[:i] + (s[i] + degs[i],) + s[i + 1:]]
        big[mono] = row
        if any(s[j] >= degs[j] for j in range(i + 1, n)):
            non_reduced.append(mono)
        else:
            scale *= dens[i]
    sub = [[big[i][j] for j in non_reduced] for i in non_reduced]
    return big, sub, scale


# the largest prime below 2^30, so a residue is one digit of a Python int; the
# verdict is exact for any prime, a large one makes an unlucky deficit rare
_MACAULAY_PRIME = 2 ** 30 - 35


def _rank_mod(rows: list[list[int]], prime: int) -> int:
    """Rank mod a prime, on rows packed into Python ints (delayed modular
    reduction, after Dumas, Giorgi and Pernet, ACM TOMS 35(3), 2008).

    A row holds one residue per slot of w = 2 bits(p) + bits(ncols) + 1 bits,
    the column it is at in the lowest slot.  Against a monic pivot keyed by
    that column, r = (r + (p - x) pivot) >> w clears it; each such step adds
    less than p^2 to a slot and a row takes fewer than ncols of them, so no
    slot carries into the next.  A row whose lowest slot is new is reduced
    slot by slot and made monic; stops once the rank is the column count."""
    ncols = len(rows[0]) if rows else 0
    w = 2 * prime.bit_length() + ncols.bit_length() + 1
    mask = (1 << w) - 1
    pivots: dict[int, int] = {}
    for row in rows:
        if len(pivots) == ncols:
            break
        r = col = 0                 # col: the column of the lowest slot
        for j, x in enumerate(row):
            x %= prime
            if x:
                if not r:
                    col = j
                r |= x << (w * (j - col))
        while r:
            x = (r & mask) % prime
            if x:
                pivot = pivots.get(col)
                if pivot is None:
                    inv = pow(x, -1, prime)
                    monic = shift = 0
                    while r:
                        monic |= (r & mask) * inv % prime << shift
                        r >>= w
                        shift += w
                    pivots[col] = monic
                    break
                r += (prime - x) * pivot
            r >>= w
            col += 1
    return len(pivots)


# ---------------------------------------------------------------------------
# modular layer: dense polynomials over GF(p) as coefficient lists, low
# degree first, with no trailing zeros


_FIRST_PRIME = 10007


def _next_prime(n: int) -> int:
    n += 1
    while any(n % k == 0 for k in range(2, int(n ** 0.5) + 1)):
        n += 1
    return n


def _primitive_int_coeffs(p: UPoly) -> list[int]:
    """Coprime integer coefficients of a nonzero rational multiple of p."""
    return primitive(clear_denominators(p.coeffs)[0])


def _pm_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _pm_sub(a, b, prime: int) -> list[int]:
    n = max(len(a), len(b))
    return _pm_trim([((a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)) % prime
                     for i in range(n)])


def _pm_divmod(a, b, prime: int) -> tuple[list[int], list[int]]:
    r = list(a)
    db = len(b) - 1
    inv = 1 if b[-1] == 1 else pow(b[-1], -1, prime)
    q = [0] * max(0, len(r) - db)
    while len(r) - 1 >= db:
        c = r[-1] * inv % prime
        k = len(r) - 1 - db
        q[k] = c
        if c:
            for i, bc in enumerate(b):
                r[k + i] = (r[k + i] - c * bc) % prime
        r.pop()
    return _pm_trim(q), _pm_trim(r)


def _pm_gcd(a, b, prime: int) -> list[int]:
    """Monic gcd over GF(prime)."""
    while b:
        a, b = b, _pm_divmod(a, b, prime)[1]
    if not a:
        return a
    inv = pow(a[-1], -1, prime)
    return [c * inv % prime for c in a]


def _pm_mulmod(a, b, f, prime: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _pm_divmod(_pm_trim([c % prime for c in out]), f, prime)[1]


def _pm_powmod(base, e: int, f, prime: int) -> list[int]:
    """base^e mod f over GF(prime), deg f >= 1."""
    result = [1]
    base = _pm_divmod(base, f, prime)[1]
    while e:
        if e & 1:
            result = _pm_mulmod(result, base, f, prime)
        e >>= 1
        if e:
            base = _pm_mulmod(base, base, f, prime)
    return result


def _squarefree_mod(ints: list[int], prime: int) -> bool:
    """ints mod prime is squarefree; prime must not divide the leading
    coefficient and must exceed the degree."""
    f = _pm_trim([c % prime for c in ints])
    df = _pm_trim([i * c % prime for i, c in enumerate(f)][1:])
    return len(_pm_gcd(f, df, prime)) == 1


def _squarefree_prime(ints: list[int], tries: int | None = None) -> int | None:
    """The first prime p >= 10007 not dividing the leading coefficient with
    ints squarefree mod p, which certifies ints squarefree over Q (its
    discriminant is then a unit mod p).  Gives up with None after `tries`
    such primes fail; walks on forever when tries is None, which ends only
    for squarefree input (finitely many primes divide lc * disc)."""
    prime = _FIRST_PRIME
    while tries is None or tries > 0:
        if ints[-1] % prime:
            if _squarefree_mod(ints, prime):
                return prime
            if tries is not None:
                tries -= 1
        prime = _next_prime(prime)
    return None


# primes tried by irreducibility_prime before it gives up; by Chebotarev an
# irreducible quartic with Galois group S4 or D4 stays irreducible mod a
# quarter of all primes (its 4-cycles), so 16 tries miss about 1 % of them
_IRREDUCIBLE_TRIES = 16


def irreducibility_prime(g: UPoly) -> int | None:
    """A prime q certifying g (degree k >= 2) irreducible over Q, or None.

    Tries the first 16 primes from 10007 up.  q certifies g when it does not
    divide the leading coefficient, g is squarefree mod q, and gcd(g,
    x^(q^d) - x) = 1 mod q for every d <= k/2, so that g has no factor of
    degree <= k/2 mod q.  Then g is irreducible mod q at full degree, hence
    irreducible over Q (Gauss's lemma).  None is no verdict: some irreducible
    polynomials, such as x^4 + 1, factor mod every prime.
    """
    if g.degree() < 2:
        raise PolyError("degree must be >= 2")
    ints = _primitive_int_coeffs(g)
    prime = _FIRST_PRIME
    for _ in range(_IRREDUCIBLE_TRIES):
        if ints[-1] % prime and _squarefree_mod(ints, prime):
            inv = pow(ints[-1], -1, prime)
            f = [c * inv % prime for c in ints]
            h = [0, 1]
            for _d in range(g.degree() // 2):
                h = _pm_powmod(h, prime, f, prime)      # x^(q^d) mod f
                if len(_pm_gcd(f, _pm_sub(h, [0, 1], prime), prime)) > 1:
                    break
            else:
                return prime
        prime = _next_prime(prime)
    return None


def _split_linear(g, prime: int) -> list[int]:
    """Roots of a monic g over GF(prime) that is a product of distinct
    linear factors, by equal-degree splitting with gcd((x+a)^((p-1)/2) - 1, g)
    for a = 0, 1, 2, ... (Cantor-Zassenhaus)."""
    if len(g) <= 1:
        return []
    if len(g) == 2:
        return [-g[0] % prime]
    for a in range(prime):
        h = _pm_powmod([a, 1], (prime - 1) // 2, g, prime)
        d = _pm_gcd(g, _pm_sub(h, [1], prime), prime)
        if 1 < len(d) < len(g):
            return (_split_linear(d, prime)
                    + _split_linear(_pm_divmod(g, d, prime)[0], prime))
    raise PolyError("no splitting shift found")


def _linear_part_mod(ints: list[int], prime: int) -> list[int]:
    """gcd(f, x^p - x) over GF(prime) for f = ints made monic, ints
    squarefree mod prime: the product of x - r over the roots r of f mod
    prime, so its degree counts them."""
    inv = pow(ints[-1], -1, prime)
    f = [c * inv % prime for c in ints]
    xp = _pm_powmod([0, 1], prime, f, prime)
    return _pm_gcd(f, _pm_sub(xp, [0, 1], prime), prime)


def _eval_mod(ints: list[int], x: int, m: int) -> int:
    total = 0
    for c in reversed(ints):
        total = (total * x + c) % m
    return total


def _fraction_from_residue(r: int, m: int, nbound: int, dbound: int):
    """(a, b) with a = r b mod m, |a| <= nbound and 0 < b <= dbound, by the
    half extended Euclid on (m, r); unique when 2 nbound dbound < m (Wang)."""
    r0, r1, t0, t1 = m, r, 0, 1
    while r1 > nbound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if t1 == 0 or abs(t1) > dbound:
        return None
    return (r1, t1) if t1 > 0 else (-r1, -t1)


# primes at which _int_rational_roots counts the roots mod q before it lifts
# any: one count of 0 ends the search, and more primes pay a count per call
# even when rational roots exist
_COUNT_PRIMES = 4


def _residue_root(ints: list[int], r: int, m: int, prime: int, nbound: int,
                  dbound: int):
    """The rational root a/b of ints with a = r b mod m, |a| <= nbound and
    0 < b <= dbound, or None.  The reconstruction (unique when 2 nbound
    dbound <= m) is taken only within |a| <= |c_0| and b <= |c_d|, as every
    rational root is, with q not dividing b, so that b is a unit mod m and
    a/b = r mod m, and when the homogenized sum of c_i a^i b^(d-i)
    (_int_value) vanishes exactly."""
    cand = _fraction_from_residue(r, m, nbound, dbound)
    if (cand is None or abs(cand[0]) > abs(ints[0]) or cand[1] > abs(ints[-1])
            or cand[1] % prime == 0
            or _int_value({(i,): c for i, c in enumerate(ints)}, cand[:1], cand[1])):
        return None
    return cand


def _int_rational_roots(ints: list[int]) -> list[tuple[int, int]]:
    """(a, b) with b > 0 for every rational root a/b of a squarefree integer
    polynomial with nonzero constant term.

    A rational root a/b has b | c_d, so it reduces to a simple root mod every
    prime q >= 10007 that does not divide c_d and keeps the polynomial
    squarefree; the roots mod any one such q contain all rational roots.  The
    roots mod q are counted, as the degree of gcd(f, x^q - x) mod q, at up to
    _COUNT_PRIMES such primes: a count of 0 proves that there is no rational
    root.  Otherwise the roots mod the prime with the fewest are Hensel-lifted
    by Newton steps that square the modulus m.  While m <= 2 |c_0| |c_d|, a
    balanced reconstruction, |a|, b <= sqrt(m/2), that _residue_root checks
    exactly ends the lifting, so a root of h bits stops near m = 2^(2h + 1)
    (early termination, von zur Gathen and Gerhard, Modern Computer Algebra,
    ch. 15).  A residue that gives no root there is lifted on past that
    bound and reconstructed with |a| <= |c_0| and 0 < b <= |c_d|.  Either
    way the result is that of the full lift.
    """
    prime = _squarefree_prime(ints, 8)
    if prime is None:
        u = UPoly(ints)
        if u.gcd(u.derivative()).degree() > 0:
            raise PolyError("polynomial is not squarefree")
        prime = _squarefree_prime(ints)
    fewest = None
    for count in range(_COUNT_PRIMES):
        if count:
            prime = _next_prime(prime)
            while not (ints[-1] % prime and _squarefree_mod(ints, prime)):
                prime = _next_prime(prime)
        g = _linear_part_mod(ints, prime)
        if len(g) == 1:
            return []
        if fewest is None or len(g) < len(fewest[1]):
            fewest = (prime, g)
    prime, g = fewest
    nbound, dbound = abs(ints[0]), abs(ints[-1])
    deriv = [i * c for i, c in enumerate(ints)][1:]
    out = []
    for r in sorted(_split_linear(g, prime)):
        m, cand = prime, None
        while cand is None and m <= 2 * nbound * dbound:
            # Newton step: a simple root mod m lifts to one mod m^2
            m *= m
            r = (r - _eval_mod(ints, r, m) * pow(_eval_mod(deriv, r, m), -1, m)) % m
            if m <= 2 * nbound * dbound:    # past it, the full bounds below
                cand = _residue_root(ints, r, m, prime, isqrt(m // 2), isqrt(m // 2))
        if cand is None:
            cand = _residue_root(ints, r, m, prime, nbound, dbound)
        if cand is not None:
            out.append(cand)
    return out


# ---------------------------------------------------------------------------
# root finding


@dataclass(frozen=True)
class ComplexMP:
    """Multiprecision complex scalar tagged with its working precision."""

    real: mpmath.mpf
    imag: mpmath.mpf
    prec: int

    def __post_init__(self):
        if self.prec < 64:
            raise PolyError("precision below 64 bits")

    @classmethod
    def from_mpc(cls, z, prec: int) -> "ComplexMP":
        with mpmath.workprec(prec + 64):
            return cls(mpmath.mpf(z.real), mpmath.mpf(z.imag), prec)

    def to_mpc(self):
        # constructors round to the ambient precision, so lift it first
        with mpmath.workprec(max(self.prec + 64, mpmath.mp.prec)):
            return mpmath.mpc(self.real, self.imag)

    def __repr__(self):
        return f"ComplexMP({self.real}, {self.imag}; {self.prec} bits)"


class RootFindingError(PolyError):
    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial or []


def _newton_polygon_start(cs):
    """Start points on circles from the Newton polygon of |c_i| (Bini 1996).

    For each edge of the upper convex hull of (i, log2|c_i|), from i = a to
    i = b, b - a points go on the circle of radius (|c_a|/|c_b|)^(1/(b-a)),
    the geometric mean of that many root moduli.  A zero c_0 puts its points
    on the innermost circle.
    """
    deg = len(cs) - 1
    hull: list = []
    for i, c in enumerate(cs):
        if c == 0:
            continue
        pt = (i, mpmath.log(abs(c), 2))
        while len(hull) >= 2 and ((hull[-1][1] - hull[-2][1]) * (i - hull[-2][0])
                                  <= (pt[1] - hull[-2][1]) * (hull[-1][0] - hull[-2][0])):
            hull.pop()
        hull.append(pt)
    first = hull[0][0]
    if len(hull) == 1:                  # c x^deg: one circle of radius 1
        hull.insert(0, (0, hull[0][1]))
    turn = 2j * mpmath.pi
    roots = []
    for (a, la), (b, lb) in zip(hull, hull[1:]):
        radius = mpmath.mpf(2) ** ((la - lb) / (b - a))
        lo = 0 if a == first else a
        roots += [radius * mpmath.exp(turn * (mpmath.mpf(k) / (b - lo) + mpmath.mpf(lo) / deg
                                              + mpmath.mpf(1) / 7))
                  for k in range(b - lo)]
    return roots


def _horner(cs, z):
    total = cs[-1]
    for c in reversed(cs[:-1]):
        total = total * z + c
    return total


def _aberth_sweep(cs, dcs, roots):
    """One Gauss-Seidel Aberth sweep in Python complex, updating roots in
    place; returns the largest correction relative to max(1, |root|)."""
    moved = 0
    for i, z in enumerate(roots):
        dv = _horner(dcs, z)
        if dv == 0:
            roots[i] = z + 1 / 1024
            moved = 1
            continue
        w = _horner(cs, z) / dv
        s = 0
        for j, zj in enumerate(roots):
            if j != i:
                s += 1 / (z - zj)
        denom = 1 - w * s
        corr = w / denom if denom != 0 else w
        roots[i] = z - corr
        moved = max(moved, abs(corr) / max(1, abs(roots[i])))
    return moved


# relative correction at which the double-precision phase hands over
_FLOAT_TARGET = 2.0 ** -45
# below this relative correction, a sweep that moves the roots no less than
# the sweep before has reached the rounding floor of double precision, which
# lies above _FLOAT_TARGET on many polynomials: the phase hands over there
_FLOAT_STALL = 2.0 ** -30


def _float_start(cs, circle, max_iter):
    """Aberth sweeps in hardware complex on the monic coefficients cs/cs[-1]
    from the start circle, until the largest correction is below 2^-45, or
    below 2^-30 and no smaller than that of the sweep before; None when
    float cannot carry them (a ratio or a start overflows, a value is not
    finite, or two approximations coincide)."""
    mono = [complex(c / cs[-1]) for c in cs]
    zs = [complex(z) for z in circle]
    if not all(cmath.isfinite(x) for x in mono + zs):
        return None
    dmono = [k * mono[k] for k in range(1, len(mono))]
    try:
        before = inf
        for _ in range(max_iter):
            moved = _aberth_sweep(mono, dmono, zs)
            if moved < _FLOAT_TARGET or _FLOAT_STALL > moved >= before:
                break
            before = moved
    except (ZeroDivisionError, OverflowError):
        return None
    if not all(cmath.isfinite(z) for z in zs) or len(set(zs)) < len(zs):
        return None
    return zs


def _horner_fixed(cs, zr, zi, unit):
    """p(z) for integer coefficients cs, low degree first, at the Gaussian
    integer z = (zr + i zi) 2^-unit, in the same fixed point: each product is
    floored to the unit."""
    tr, ti = cs[-1] << unit, 0
    for c in reversed(cs[:-1]):
        tr, ti = ((tr * zr - ti * zi) >> unit) + (c << unit), (tr * zi + ti * zr) >> unit
    return tr, ti


def _fixed_sweep(cs, dcs, zs, unit, target):
    """One Gauss-Seidel Aberth sweep on Gaussian integers at unit 2^-unit,
    updating zs in place: each root moves by p/(p' - p s), s = sum_j 1/(z -
    z_j), with every complex quotient an integer floor division.  Returns
    whether no root moved by 2^-target relative to max(1, |root|)."""
    one, two_units = 1 << unit, 2 * unit
    still = True
    for i, (zr, zi) in enumerate(zs):
        dr, di = _horner_fixed(dcs, zr, zi, unit)
        if not (dr or di):
            zs[i] = (zr + (one >> 10), zi)
            still = False
            continue
        pr, pi = _horner_fixed(cs, zr, zi, unit)
        sr = si = 0
        for j, (xr, xi) in enumerate(zs):
            if j != i:
                ar, ai = zr - xr, zi - xi
                norm = ar * ar + ai * ai
                sr += (ar << two_units) // norm
                si -= (ai << two_units) // norm
        qr = dr - ((pr * sr - pi * si) >> unit)
        qi = di - ((pr * si + pi * sr) >> unit)
        if not (qr or qi):
            qr, qi = dr, di
        norm = qr * qr + qi * qi
        cr = ((pr * qr + pi * qi) << unit) // norm
        ci = ((pi * qr - pr * qi) << unit) // norm
        zr, zi = zr - cr, zi - ci
        zs[i] = (zr, zi)
        if still and (cr * cr + ci * ci) << (2 * target) >= max(one * one, zr * zr + zi * zi):
            still = False
    return still


def aberth_roots(coeffs, prec: int, max_iter: int = 400):
    """Simultaneous (Aberth-style) iteration for all roots of a squarefree
    polynomial given by exact rational coefficients, low degree first.

    The iteration starts in double precision: up to max_iter Gauss-Seidel
    sweeps from the start circle, until no root moves by 2^-45 relative, or
    the phase stalls at the rounding floor (the largest move is below 2^-30
    and no smaller than in the sweep before).  When double precision cannot
    carry the polynomial, the start is instead the circles given by the
    Newton polygon of the coefficient moduli.  It is finished by up to
    max_iter sweeps on Gaussian integers at one unit 2^-F, with Horner on the
    integer coefficients, which stop once no root moves by 2^-(prec+16)
    relative.  F = prec + 64 plus a bound on log2 max(1, max|z|) and on
    log2 max(1, 1/min|z|) over the start, so that neither the largest values
    nor the relative precision of the smallest roots fall outside the unit.
    The roots come back as Gaussian integers at that unit, one Fixed: root k
    is (re + i im) 2^-F for (re, im) = pairs[k].
    """
    deg = len(coeffs) - 1
    ints = primitive(clear_denominators(coeffs)[0])
    with mpmath.workprec(prec + 64):
        cs = [mpmath.mpf(c) for c in ints]
        # the Cauchy radius in hardware complex: a radius beyond its range
        # makes the circle not finite, and _float_start gives up
        r = float(1 + max(abs(c) for c in cs[:-1]) / abs(cs[-1]))
        circle = [r * cmath.exp(2j * cmath.pi * (k / deg + 1 / (2 * deg) + 1 / 7))
                  for k in range(deg)]
        start = _float_start(cs, circle, max_iter)
        if start is None:
            start = _newton_polygon_start(cs)
    parts = [(_numeric._ratio(z.real), _numeric._ratio(z.imag)) for z in start]
    # per root, e with 2^(e-1) <= max(|re|, |im|) < 2^(e+1), so |z| < 2^(e+2)
    mags = [max(n.bit_length() - d.bit_length() for n, d in pair if n)
            for pair in parts if pair[0][0] or pair[1][0]]
    unit = prec + 64 + max(0, max(mags, default=0) + 2) + max(0, 1 - min(mags, default=1))
    zs = [tuple(((n << unit) * 2 + d) // (2 * d) for n, d in pair) for pair in parts]
    dcs = [k * ints[k] for k in range(1, deg + 1)]
    for _ in range(max_iter):
        if _fixed_sweep(ints, dcs, zs, unit, prec + 16):
            return _numeric.Fixed(zs, unit)
    raise RootFindingError("Aberth iteration did not converge",
                           partial=_complexmp_roots(_numeric.Fixed(zs, unit), prec))


def _complexmp_roots(zs, prec: int) -> list:
    """The roots of a Fixed as ComplexMP values, each part rounded once to
    prec + 64 bits."""
    return [ComplexMP.from_mpc(z, prec) for z in zs.to_mpc(prec + 64)]


def _rational_roots_of_squarefree(p: UPoly) -> list[Fraction]:
    """The rational roots of a squarefree p, exactly, in increasing order.

    The root 0 is read off the constant term, and what is left of degree 1
    has its root -c_0/c_1 read off, with no probe.  A rest of higher degree
    goes, with its denominators cleared to c_0..c_d, to the modular method
    of _int_rational_roots (Loos 1983): root counts mod up to four primes,
    Hensel lifting with early exit, and an exact check of every root.
    """
    found = []
    if p.coeffs and p.coeffs[0] == 0:
        found.append(Fraction(0))
        p = UPoly(p.coeffs[1:])
    if p.degree() == 1:
        found.append(-p.coeffs[0] / p.coeffs[1])
    elif p.degree() > 1:
        found += [Fraction(a, b) for a, b in _int_rational_roots(_primitive_int_coeffs(p))]
    return sorted(found)


def _rational_roots_of(u: UPoly) -> list[Fraction]:
    """The rational roots of u, each once: those of each squarefree factor,
    in the order of u.squarefree_decomposition(), each factor's increasing."""
    return [r for q, _m in u.squarefree_decomposition() for r in _rational_roots_of_squarefree(q)]


def _deflate(ints: list[int], r: Fraction) -> list[int] | None:
    """Integer coefficients, low degree first, divided by b x - a for the
    root r = a/b, by synthetic division from the top; None when r is no root.

    b x - a is primitive, so by Gauss's lemma the quotient by an exact root
    is integral, and a division that is not exact, or a remainder that is
    not 0, shows that r is not a root."""
    a, b = r.numerator, r.denominator
    quot, carry = [], 0
    for c in reversed(ints[1:]):
        q, rem = divmod(c + carry, b)
        if rem:
            return None
        quot.append(q)
        carry = a * q
    return None if ints[0] + carry else quot[::-1]


def _checked_aberth_roots(p: UPoly, rest: list[int], prec: int) -> list:
    """The roots of a squarefree factor of p, given by its integer
    coefficients rest, by aberth_roots, each a Fixed scalar at its unit,
    with its residual on p checked: |p(z)| by _horner_fixed on the integer
    coefficients of p at that unit, against 2^(-prec/2) relative to the
    coefficient magnitude, max(1, max|c|) max(1, |z|)^deg, compared exactly
    on squares (RootFindingError above it)."""
    zs = aberth_roots(rest, prec)
    unit = zs.shift
    ints, den = clear_denominators(p.coeffs)
    deg = p.degree()
    one2 = 1 << 2 * unit
    # |p(z)| = |h| / (den 2^unit) for h = _horner_fixed(ints, z), and the
    # bound is 2^-(prec // 2) max(den, max|int|) / den max(1, |z|)^deg:
    # squared, and both sides times den^2 2^(2 unit (deg + 1) + 2 (prec // 2))
    # (at |z| <= 1 the factor max(1, |z|)^deg is 1 and one2^deg cancels)
    scale2 = max(den, max(map(abs, ints))) ** 2 * one2
    for zr, zi in zs.pairs:
        hr, hi = _horner_fixed(ints, zr, zi, unit)
        z2 = zr * zr + zi * zi
        h2 = (hr * hr + hi * hi) << 2 * (prec // 2)
        if (h2 > scale2 if z2 <= one2 else h2 * one2 ** deg > scale2 * z2 ** deg):
            resid = _numeric.sqrt_ratio(hr * hr + hi * hi, den * den * one2)
            raise RootFindingError(f"residual {resid:.8g} above tolerance",
                                   partial=_complexmp_roots(zs, prec))
    return [_numeric.Fixed([z], unit) for z in zs.pairs]


def _root_stream(p: UPoly, prec: int, exact):
    """(root, multiplicity) pairs of p, one squarefree factor at a time, each
    only when the roots before it are used up: the Fractions of exact that
    are roots of the factor, as given, each divided out by _deflate, then
    the roots of what is left by _checked_aberth_roots, as Fixed scalars.  A
    Fraction of exact that divides no factor, or one given twice, raises
    PolyError first.  This is the one path from a squarefree decomposition
    to Aberth."""
    left, factors = list(exact), []
    for q, mult in p.squarefree_decomposition():
        ints, mine = _primitive_int_coeffs(q), []
        for r in list(left):
            quot = _deflate(ints, r)
            if quot is not None:
                ints = quot
                mine.append(r)
                left.remove(r)
        factors.append((mine, ints, mult))
    if left:
        raise PolyError(f"{left[0]} is not a root, or given twice")
    for mine, rest, mult in factors:
        yield from ((r, mult) for r in mine)
        if len(rest) > 1:
            yield from ((z, mult) for z in _checked_aberth_roots(p, rest, prec))


def roots(p: UPoly, prec: int = 256):
    """All complex roots with multiplicities, from _root_stream: the rational
    ones as exact Fractions, given it by the modular method of
    _rational_roots_of (root counts mod up to four primes, where a count of
    0 proves there is none, else Hensel lifting with early exit), the rest
    as ComplexMP values from the Aberth iteration, each with its residual on
    p checked.
    """
    if p.degree() < 1:
        raise PolyError("degree must be >= 1")
    if prec < 64:
        raise PolyError("precision below 64 bits")
    out = [(r if isinstance(r, Fraction) else _complexmp_roots(r, prec)[0], m)
           for r, m in _root_stream(p, prec, _rational_roots_of(p))]
    total = sum(m for _, m in out)
    if total != p.degree():
        raise RootFindingError(f"found multiplicity total {total}, expected {p.degree()}",
                               partial=out)
    return out
