"""Determinantal geometry of cubic surfaces and threefolds.

A 4-dimensional subspace of End(V) (dim V = 3) and its trace-pairing
orthogonal complement cut the rank-<=2 locus in a cubic surface S and a
cubic threefold Y with six rank-1 nodes.  This module generates exact
instances from a seed, certifies the six-node structure, builds the three
line families, the cubic scrolls, the twisted-quartic incidences, and the
projection from a node.
"""

from __future__ import annotations

import itertools
import random
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from operator import mul

import mpmath

from . import _numeric
from ._qlinalg import (Q, Layout, _int_rref, clear_denominators, det as qdet, identity,
                       inverse, is_zero_vec, linear_terms, mat_mul, mat_vec, nullspace,
                       primitive_int_vector, projectively_equal, rank, rref,
                       solve, transpose, vec)
from .poly import (MPoly, UPoly, _deflate, _int_accumulate, _int_jet, _int_poly_det,
                   _int_product, _int_terms, _monomials_of_degree, _primitive_int_coeffs,
                   _rational_roots_of, _root_stream, gradient, irreducibility_prime,
                   macaulay_matrix, macaulay_nonzero, poly_det, restrict_to_subspace,
                   sylvester_resultant)


class DetGeoError(ValueError):
    pass


class DegenerateInstance(DetGeoError):
    """Sampled data failed a genericity check; caller should resample."""


# ---------------------------------------------------------------------------
# End(V) plumbing


def flatten(m) -> tuple:
    return tuple(m[i][j] for i in range(3) for j in range(3))


def unflatten(v) -> tuple:
    return tuple(tuple(v[3 * i + j] for j in range(3)) for i in range(3))


def _int_mul3(a, b) -> list[int]:
    """Product of two flattened 3x3 integer matrices."""
    return [a[3 * i] * b[j] + a[3 * i + 1] * b[3 + j] + a[3 * i + 2] * b[6 + j]
            for i in range(3) for j in range(3)]


def _int_adj3(a) -> list[int]:
    """Adjugate of a flattened 3x3 integer matrix: entry (i, j) is the
    cofactor of a[j][i], written with cyclic indices."""
    def at(r, c):
        return a[3 * (r % 3) + c % 3]
    return [at(j + 1, i + 1) * at(j + 2, i + 2) - at(j + 1, i + 2) * at(j + 2, i + 1)
            for i in range(3) for j in range(3)]


def _values(layout: Layout, v) -> list:
    """Matrix of the values at an exact vector v of the exact linear forms of
    a layout, one Fraction per entry of Layout.int_values."""
    rows, den = layout.int_values(v)
    return [[Fraction(x, den) for x in row] for row in rows]


def rank1(v, w):
    """The matrix v w^T: image spanned by v, kernel the hyperplane w.x = 0."""
    v, w = vec(v), vec(w)
    return tuple(tuple(v[i] * w[j] for j in range(3)) for i in range(3))


def trace_pair(a, b) -> Fraction:
    return sum(Q(a[i][j]) * Q(b[j][i]) for i in range(3) for j in range(3))


def mat3(m):
    return tuple(tuple(Q(x) for x in row) for row in m)


def mat3_image_basis(m) -> list:
    """The columns of m at the pivots of its rref, which are the first
    columns that raise the rank: a basis of the image."""
    return [tuple(row[j] for row in m) for j in rref(m)[1]]


def annihilator(vectors) -> list:
    """Covectors (as dot-pairing vectors) killing the span."""
    if not vectors:
        return [tuple(row) for row in identity(3)]
    return nullspace(vectors)


@dataclass(frozen=True)
class EndoSubspace:
    """Subspace of End(V) given by an independent basis B_0..B_{n-1} of 3x3
    matrices.

    ints holds the flattened B_k as integers over the common denominator
    den.  The linear maps read off the basis tensor B_k[i][j] are kept as
    coefficient layouts (_qlinalg.Layout, applied by _values or
    _numeric.linear_values), each built on first use with its integer rows
    cleared once: forms[i][j] = [B_k[i][j]]_k, the generic element
    sum_k c_k B_k, and forms_t its transpose, as forms in c; image[i][k] =
    B_k[i], the rows of c -> B(c) u, and image_t[i][k] = [B_k[r][i]]_r, those
    of c -> B(c)^T u, as forms in u.
    """

    basis: tuple

    def __post_init__(self):
        b = tuple(mat3(m) for m in self.basis)
        object.__setattr__(self, "basis", b)
        flat = [flatten(m) for m in b]
        if flat and rank(flat) != len(flat):
            raise DetGeoError("basis is not linearly independent")
        ints, den = clear_denominators([x for f in flat for x in f])
        object.__setattr__(self, "ints", [ints[9 * k:9 * k + 9] for k in range(len(b))])
        object.__setattr__(self, "den", den)

    @cached_property
    def forms(self) -> Layout:
        return Layout([[[m[i][j] for m in self.basis] for j in range(3)] for i in range(3)])

    @cached_property
    def forms_t(self) -> Layout:
        return Layout([[[m[j][i] for m in self.basis] for j in range(3)] for i in range(3)])

    @cached_property
    def image(self) -> Layout:
        return Layout([[m[i] for m in self.basis] for i in range(3)])

    @cached_property
    def image_t(self) -> Layout:
        return Layout([[[row[i] for row in m] for m in self.basis] for i in range(3)])

    @property
    def dim(self) -> int:
        return len(self.basis)

    def element(self, coords):
        cs, dc = clear_denominators(coords)
        terms = list(zip(cs, self.ints))
        den = dc * self.den
        return unflatten([Fraction(sum(c * m[p] for c, m in terms), den)
                          for p in range(9)])

    def coordinates_of(self, m):
        """Coordinates of a matrix in this basis, or None if outside."""
        return solve([[b[i][j] for b in self.basis] for i in range(3) for j in range(3)],
                     flatten(m))

    def contains(self, m) -> bool:
        return self.coordinates_of(m) is not None


def trace_perp(s: EndoSubspace) -> EndoSubspace:
    """Orthogonal complement under (A,B) = tr(AB); dimensions sum to 9."""
    if s.dim == 0:
        return EndoSubspace(tuple(unflatten(row) for row in identity(9)))
    rows = [flatten(transpose(b)) for b in s.basis]  # tr(XB) = flat(B^T).flat(X)
    kernel = nullspace(rows)
    return EndoSubspace(tuple(unflatten(v) for v in kernel))


def maps_into(m, domain_vectors, image_vectors) -> bool:
    """Does m send span(domain_vectors) into span(image_vectors)?"""
    img = list(image_vectors)
    base_rank = rank(img)
    for d in domain_vectors:
        out = mat_vec(m, d)
        if not img:
            if not is_zero_vec(out):
                return False
        elif rank(img + [out]) > base_rank:
            return False
    return True


def tangent_sigma2_contains(a, m) -> bool:
    """True iff m maps ker(a) into im(a), for a of rank exactly 2."""
    if rank(a) != 2:
        raise DetGeoError("tangent space test requires a rank-2 matrix")
    return maps_into(m, nullspace(a), mat3_image_basis(a))


def tangent_sigma1_contains(b, m) -> bool:
    """Tangent space of the rank-1 locus at b: m(ker b) inside im(b)."""
    if rank(b) != 1:
        raise DetGeoError("rank-1 point expected")
    return maps_into(m, nullspace(b), mat3_image_basis(b))


def determinant_on_subspace(space: EndoSubspace) -> MPoly:
    """det of the generic element sum_i x_i basis_i, as a cubic MPoly."""
    return poly_det([[MPoly.linear_form([m[i][j] for m in space.basis]) for j in range(3)]
                     for i in range(3)])


# ---------------------------------------------------------------------------
# binary forms, slices and the common zeros of ternary forms


def _coeffs_in_var(f: MPoly, elim: int) -> list[MPoly]:
    """Coefficients of powers of one variable of a ternary form, rewritten as
    binary forms in the kept variables."""
    keep = [i for i in range(3) if i != elim]
    split: dict[int, dict] = {}
    for e, c in f.terms.items():
        split.setdefault(e[elim], {})[(e[keep[0]], e[keep[1]])] = c
    deg = max(split, default=-1)
    return [MPoly(2, split.get(k, {})) for k in range(deg + 1)]


def binary_resultant(f: MPoly, g: MPoly, elim: int) -> MPoly:
    """Sylvester resultant of two ternary forms w.r.t. one variable; the
    output is a binary form in the kept variables (poly.sylvester_resultant
    on the coefficient lists from _coeffs_in_var)."""
    fc = _coeffs_in_var(f, elim)
    gc = _coeffs_in_var(g, elim)
    if len(fc) < 2 and len(gc) < 2:
        raise DetGeoError("both forms constant in the eliminated variable")
    return sylvester_resultant(fc, gc)


def _binary_form_parts(f: MPoly):
    """Binary form -> (mult of root (0:1), mult of root (1:0), UPoly core)."""
    if f.is_zero():
        raise DetGeoError("zero binary form")
    d = f.degree()
    a = min(e[0] for e in f.terms)
    b = max(e[0] for e in f.terms)
    dense = [Fraction(0)] * (b - a + 1)
    for (eu, _ev), c in f.terms.items():
        dense[eu - a] += c
    return a, d - b, UPoly(dense)


def _slice_lifts(forms, a, b) -> list[Fraction]:
    """Rational t with every ternary form vanishing at (a, b, t): the rational
    roots of the gcd of the nonzero slices, each checked exactly.  The slice
    of a form has the values at (a, b) of its _coeffs_in_var binary forms as
    coefficients."""
    slices = [u for u in (UPoly([g.evaluate((a, b)) for g in _coeffs_in_var(m, 2)])
                          for m in forms)
              if not u.is_zero()]
    if not slices:
        return []
    g = slices[0]
    for u in slices[1:]:
        g = g.gcd(u)
    if g.degree() < 1:
        return []
    return [t for t in _rational_roots_of(g) if all(u(t) == 0 for u in slices)]


# Degree cap of the Macaulay null-space solve.  Up to six points of P^2 (the
# degree of the rank-1 locus) impose independent conditions on forms of
# degree >= 5, so the nullity of a finite zero set settles well below it; a
# nullity still growing at the cap belongs to a positive-dimensional one.
_MACAULAY_MAX_DEGREE = 10

# (a, b) of the forms h = x0 + a x1 + b x2 tried in turn; no three are
# collinear, so one common zero rules out at most two of them.
_SHADOW_CHARTS = ((0, 0), (1, 0), (1, 2), (2, -3), (-3, 5))


def _macaulay_null(forms, degree):
    """The degree-`degree` monomials of P^2 as column indices, and a basis of
    the right kernel of the Macaulay matrix, whose rows are the x^s f with
    |s| = degree - deg f."""
    cols, rows = macaulay_matrix(forms, degree)
    return cols, nullspace(rows)


def _rational_common_zeros(forms) -> list:
    """The rational common zeros in P^2 of ternary forms, each once, by the
    Macaulay null space (Stetter, Numerical Polynomial Algebra, 2004;
    Dreesen, Batselier and De Moor).

    The vector of monomial values (m(p))_m of any common zero p over the
    algebraic closure lies in the kernel of the Macaulay matrix at every
    degree, so a kernel of dimension 0 proves that there is no common zero.
    That is the only case that returns [].  Otherwise the degree rises until
    the nullity k repeats; DetGeoError is raised if it is still growing past
    _MACAULAY_MAX_DEGREE (the zero set is not finite).  On the kernel rows of
    the monomials h m and x1 m, m of one degree less, the first h = x0 + a x1
    + b x2 of _SHADOW_CHARTS whose rows have rank k (so no zero has h = 0)
    gives a k x k rational matrix whose eigenvalues are the ratios x1/h at
    the zeros.  Each rational root of its characteristic polynomial is lifted
    by _slice_lifts in the coordinates (h, x1, x2).  Every point is checked
    exactly on every form before it is returned, so each is an exact common
    zero.  DetGeoError is also raised when no common zero is rational.
    """
    forms = [f for f in forms if not f.is_zero()]
    if not forms:
        raise DetGeoError("no nonzero form: every point is a common zero")
    degree = max(f.degree() for f in forms)
    cols, null = _macaulay_null(forms, degree)
    while null:
        k = len(null)
        degree += 1
        if degree > _MACAULAY_MAX_DEGREE:
            raise DetGeoError("the common zeros of the forms are not finite")
        cols, null = _macaulay_null(forms, degree)
        if len(null) == k:
            break
    if not null:
        return []
    shifts = [[[z[cols[tuple(e + (i == j) for i, e in enumerate(m))]] for z in null]
               for m in _monomials_of_degree(3, degree - 1)] for j in range(3)]
    for a, b in _SHADOW_CHARTS:
        rows_h = [[z0 + a * z1 + b * z2 for z0, z1, z2 in zip(*r)] for r in zip(*shifts)]
        pivots = rref(transpose(rows_h))[1]
        if len(pivots) == k:
            break
    else:
        raise DetGeoError("no chart h = x0 + a x1 + b x2 gives kernel rows of rank k")
    ratio = mat_mul(inverse([rows_h[i] for i in pivots]), [shifts[1][i] for i in pivots])
    lam = MPoly.var(1, 0)
    char = poly_det([[lam * int(i == j) - ratio[i][j] for j in range(k)] for i in range(k)])
    y = MPoly.variables(3)
    moved = [f.compose([y[0] - a * y[1] - b * y[2], y[1], y[2]]) for f in forms]
    out = []
    for r in _rational_roots_of(UPoly([char.coefficient((d,)) for d in range(k + 1)])):
        for t in _slice_lifts(moved, 1, r):
            p = vec((1 - a * r - b * t, r, t))
            if any(f.evaluate(p) != 0 for f in forms):
                raise DetGeoError("lifted point is not a common zero (unexpected)")
            out.append(p)
    if not out:
        raise DetGeoError("the forms have common zeros, but none is rational")
    return out


# ---------------------------------------------------------------------------
# the rank-1 locus of a 5-dimensional span and the residual sixth point


def rank1_system_rows(perp: EndoSubspace) -> list[list[MPoly]]:
    """Rows (A_j v) of the condition system w^T A_j v = 0, linear in v: the
    rows of each A_j are the coefficient lists of its forms."""
    return [[MPoly.linear_form(row) for row in a] for a in perp.basis]


def rank1_system_minors(perp: EndoSubspace) -> list[MPoly]:
    """3x3 minors of the stacked system; cubics in v cutting the rank-1
    directions of the orthogonal complement of `perp`.

    For perp = lam_perp they are the dual Pluecker coordinates of the fromV
    line of v: that line is the kernel of the 3x5 system
    sum_j y_j (A_j v) = 0, the transpose of the stacked rows, whose entries
    are linear in v.  By Cramer duality its Pluecker vector is (up to index
    complementation and sign) the vector of maximal minors, each a
    homogeneous cubic in v.  This grounds the degree-9 count for the
    component swept by these lines: a degree-3 map of a plane has image of
    degree 3^2.
    """
    rows = rank1_system_rows(perp)
    return [poly_det([rows[t] for t in triple])
            for triple in itertools.combinations(range(len(rows)), 3)]


def _split_rank1(b):
    """(v, w) with b = v w^T exactly: v the column of the first nonzero
    entry of b, w its row divided by that entry."""
    i, j = next((i, j) for i in range(3) for j in range(3) if b[i][j] != 0)
    return (tuple(b[r][j] for r in range(3)),
            tuple(b[i][c] / b[i][j] for c in range(3)))


def residual_rank1_point(five_matrices):
    """The sixth rank-1 point of the span of five rank-1 matrices.

    With b_k = v_k w_k^T, sum_k c_k b_k = V diag(c) W^T has rank <= 1 with
    every c_k != 0 exactly when x_k = 1/c_k solves
    sum_k x_k alpha_k beta_k = 0 for all alpha in ker V and beta in ker W,
    the Gale transforms of the five v's and of the five w's.  So the sixth
    point comes from the kernel of one 4x5 rational matrix.  It is returned
    as the primitive integer matrix whose first nonzero entry is positive,
    and checked exactly.
    """
    bs = [mat3(b) for b in five_matrices]
    if len(bs) != 5 or any(rank(b) != 1 for b in bs):
        raise DetGeoError("expected five rank-1 matrices")
    if rank([flatten(b) for b in bs]) != 5:
        raise DegenerateInstance("five matrices do not span a 5-dimensional space")
    space = EndoSubspace(tuple(bs))
    vs, ws = zip(*(_split_rank1(b) for b in bs))
    gale_v = nullspace(transpose(vs))
    gale_w = nullspace(transpose(ws))
    if len(gale_v) != 2 or len(gale_w) != 2:
        raise DegenerateInstance("image or cokernel directions do not span V")
    rows = [[alpha[k] * beta[k] for k in range(5)]
            for alpha in gale_v for beta in gale_w]
    kern = nullspace(rows)
    if len(kern) != 1 or any(x == 0 for x in kern[0]):
        raise DegenerateInstance("no unique residual point off the coordinate hyperplanes")
    p6 = space.element([1 / x for x in kern[0]])
    p6 = mat3(unflatten(primitive_int_vector(flatten(p6))))
    if rank(p6) != 1:
        raise DegenerateInstance("residual point is not rank 1")
    if not space.contains(p6):
        raise DegenerateInstance("residual point escaped the span")
    if any(projectively_equal(flatten(p6), flatten(b)) for b in bs):
        raise DegenerateInstance("residual point coincides with an input")
    return p6


def find_rank1_in_span(space: EndoSubspace):
    """Rational rank-1 elements v w^T of P(space), one for each rational
    common zero v of the cubic minors of the rank-1 system (see
    _rational_common_zeros), with w the first kernel vector of the stacked
    (A_j v), A_j the basis of the perp; when that kernel is a pencil, every
    w in it will do.  [] proves that P(space) misses the rank-1 locus;
    DetGeoError when the v's are not finite or none is rational."""
    perp = trace_perp(space)
    return [rank1(v, nullspace(transpose(_values(perp.image, v)))[0])
            for v in _rational_common_zeros(rank1_system_minors(perp))]


# ---------------------------------------------------------------------------
# duality witnesses


@dataclass(frozen=True)
class DualityWitness:
    status: str                    # "witness" | "clean"
    case: str
    primal_point: tuple | None = None
    dual_point: tuple | None = None
    dual_direction: tuple | None = None
    dual_case: str | None = None
    certificate: str | None = None


def _condition_apply(u, i):
    """Condition matrix C with <C, M> = (M u)_i."""
    return tuple(tuple(u[j] if r == i else 0 for j in range(3)) for r in range(3))


def _condition_bilinear(covector, u):
    """Condition matrix C with <C, M> = covector^T M u."""
    return tuple(tuple(covector[i] * u[j] for j in range(3)) for i in range(3))


def _solve_in_space(space: EndoSubspace, conditions):
    # each row is scaled by its own denominator, the columns by a common one
    rows = []
    for cond in conditions:
        cf, _ = clear_denominators(flatten(cond))
        rows.append([sum(map(mul, cf, m)) for m in space.ints])
    return [space.element(s) for s in nullspace(rows)]


def linalg_duality_witness(lam: EndoSubspace, case: str, witness=None) -> DualityWitness:
    """Transfer a degeneracy of a 4-plane in End(V) to its trace-perp.

    case 'meetsSigma1': a rank-1 element of lam (supplied, or the first one
    find_rank1_in_span returns) produces B in the perp with the perp tangent
    to the rank-2 locus at B (B of rank 2) or tangent to the rank-1 locus (B
    of rank 1).

    case 'tangentSigma2': a supplied smooth rank-2 tangency point A0 yields
    the annihilator B0 (rank 1, in the perp) plus an independent B1 in the
    perp meeting the tangent space of the rank-1 locus at B0.

    With no witness supplied, status 'clean' always carries a certificate:
    the Macaulay kernel of the rank-1 minors is zero, which proves that
    P(lam) misses the rank-1 locus (a generic lam).  DetGeoError is raised
    when that locus is not finite in its v's or has no rational point.
    """
    if lam.dim != 4:
        raise DetGeoError("duality statement is about 4-dimensional subspaces")
    perp = trace_perp(lam)

    if case == "meetsSigma1":
        if witness is None:
            found = find_rank1_in_span(lam)
            if not found:
                return DualityWitness("clean", case, certificate=(
                    "the Macaulay matrix of the rank-1 minors has a zero "
                    "kernel: P(lam) misses the rank-1 locus"))
            a0 = found[0]
        else:
            a0 = mat3(witness)
            if rank(a0) != 1 or not lam.contains(a0):
                raise DetGeoError("witness must be a rank-1 element of the subspace")
        img = mat3_image_basis(a0)            # 1-dim
        kern = nullspace(a0)                  # 2-dim
        ker_cut = annihilator(kern)           # 1 covector
        conditions = [_condition_apply(img[0], i) for i in range(3)]
        conditions += [_condition_bilinear(c, k) for c in ker_cut for k in kern]
        sols = _solve_in_space(perp, conditions)
        if not sols:
            raise DetGeoError("dual witness system has no solution (unexpected)")
        b = sols[0]
        if rank(b) == 2:
            ok = all(tangent_sigma2_contains(b, m) for m in perp.basis)
            return DualityWitness(
                "witness", case, primal_point=a0, dual_point=b,
                dual_case="perp tangent to the rank-2 locus at a smooth point"
                if ok else "rank-2 element without tangency (unexpected)")
        extra = _second_sigma1_direction(perp, b)
        return DualityWitness("witness", case, primal_point=a0, dual_point=b,
                              dual_direction=extra,
                              dual_case="perp tangent to the rank-1 locus")

    if case == "tangentSigma2":
        if witness is None:
            raise DetGeoError("tangentSigma2 requires the tangency point")
        a0 = mat3(witness)
        if rank(a0) != 2 or not lam.contains(a0):
            raise DetGeoError("witness must be a rank-2 element of the subspace")
        if not all(tangent_sigma2_contains(a0, m) for m in lam.basis):
            raise DetGeoError("subspace is not tangent to the rank-2 locus there")
        kern = nullspace(a0)[0]
        img = mat3_image_basis(a0)
        img_cov = annihilator(img)[0]
        b0 = rank1(kern, img_cov)             # ker B0 = im A0, im B0 = ker A0
        if not perp.contains(b0):
            raise DetGeoError("annihilator matrix missing from the perp (unexpected)")
        ker_cut = annihilator([kern])         # covectors vanishing on ker A0
        conditions = [_condition_bilinear(c, u) for u in img for c in ker_cut]
        conditions += [_condition_bilinear(img_cov, kern)]
        sols = _solve_in_space(perp, conditions)
        b1 = next((s for s in sols
                   if not projectively_equal(flatten(s), flatten(b0))), None)
        if b1 is None:
            raise DetGeoError("no independent B1 found (unexpected)")
        assert tangent_sigma1_contains(b0, b1)
        return DualityWitness("witness", case, primal_point=a0, dual_point=b0,
                              dual_direction=b1,
                              dual_case="perp tangent to the rank-1 locus at B0")

    raise DetGeoError(f"unknown case {case!r}")


def _second_sigma1_direction(perp: EndoSubspace, b):
    kern = nullspace(b)
    img_cov = annihilator(mat3_image_basis(b))
    conditions = [_condition_bilinear(c, k) for c in img_cov for k in kern]
    for cand in _solve_in_space(perp, conditions):
        if not projectively_equal(flatten(cand), flatten(b)):
            return cand
    return None


# ---------------------------------------------------------------------------
# projective lines


@dataclass(frozen=True)
class ProjLine:
    """2-dimensional subspace of a coordinate space with cached Pluecker
    coordinates; spanning vectors exact (Fraction) or numeric (mpc), the
    numeric ones at working precision prec.  An exact line also keeps them
    cleared to integer reduced echelon rows, as (pivot column, row) pairs."""

    p0: tuple
    p1: tuple
    exact: bool = True
    prec: int = 0

    def __post_init__(self):
        if len(self.p0) != len(self.p1):
            raise DetGeoError("spanning vectors of different lengths")
        if self.exact:
            object.__setattr__(self, "p0", vec(self.p0))
            object.__setattr__(self, "p1", vec(self.p1))
            rows, pivots = _int_rref([self.p0, self.p1])
            if len(pivots) != 2:
                raise DetGeoError("spanning vectors are dependent")
            object.__setattr__(self, "_echelon", tuple(zip(pivots, rows)))
        object.__setattr__(self, "_plucker", None)

    @property
    def n(self) -> int:
        return len(self.p0)

    def _wedge(self) -> tuple:
        p, q = self.p0, self.p1
        return tuple(p[i] * q[j] - p[j] * q[i]
                     for i in range(self.n) for j in range(i + 1, self.n))

    def plucker(self) -> tuple:
        if self._plucker is None:
            object.__setattr__(self, "_plucker", self._wedge())
        return self._plucker

    def plucker_normalized(self) -> tuple:
        """The Pluecker vector divided by its entry of largest modulus,
        computed afresh at the ambient precision rather than read from the
        cache, which may hold numeric values of another precision."""
        pl = self._wedge()
        lead = max(pl, key=abs)
        if abs(lead) == 0:
            raise DetGeoError("degenerate line")
        return tuple(x / lead for x in pl)

    def contains_point(self, pt) -> bool:
        if not self.exact:
            raise DetGeoError("exact containment needs the exact path")
        v = clear_denominators(pt)[0]
        for c, row in self._echelon:
            v = [row[c] * x - v[c] * y for x, y in zip(v, row)]
        return not any(v)

    def same_line(self, other: "ProjLine") -> bool:
        """The same pivots, and the echelon rows equal up to scale."""
        if not (self.exact and other.exact):
            raise DetGeoError("use numeric comparison for numeric lines")
        return all(c == d and [x * s[d] for x in r] == [y * r[c] for y in s]
                   for (c, r), (d, s) in zip(self._echelon, other._echelon))

    def point_at(self, s, t):
        return tuple(s * a + t * b for a, b in zip(self.p0, self.p1))

    def to_json(self):
        if not self.exact:
            raise DetGeoError("only exact lines serialize")
        return {"p0": [str(x) for x in self.p0], "p1": [str(x) for x in self.p1]}


def lines_meet(l1: ProjLine, l2: ProjLine) -> bool:
    """Two distinct exact lines meet iff their joint span has rank 3."""
    return rank([l1.p0, l1.p1, l2.p0, l2.p1]) <= 3


# ---------------------------------------------------------------------------
# instances


@dataclass(frozen=True)
class NodeData:
    matrix: tuple          # rank-1 element of the perp
    coords: tuple          # coordinates in the lambda-perp basis (length 5)
    v: tuple               # image generator: the point q_i of P(V)
    w: tuple               # cokernel functional: the point q_i-dual of P(V-dual)


@dataclass(frozen=True)
class DeterminantalInstance:
    seed: int
    lam: EndoSubspace             # dim 4
    lam_perp: EndoSubspace        # dim 5
    cubic_y: MPoly                # det on P(lam_perp), 5 variables
    cubic_s: MPoly                # det on P(lam), 4 variables
    nodes: tuple                  # six NodeData

    @property
    def q_points(self):
        return tuple(n.v for n in self.nodes)

    @property
    def q_dual_points(self):
        return tuple(n.w for n in self.nodes)

    def phi(self, ycoords):
        """End(V) representative of a point of P(lam_perp)."""
        return self.lam_perp.element(ycoords)

    def sigma(self, xcoords):
        """End(V) representative of a point of P(lam)."""
        return self.lam.element(xcoords)

    # -- serialization -----------------------------------------------------
    def to_json(self) -> dict:
        def m2j(m):
            return [[str(x) for x in row] for row in m]
        return {
            "seed": self.seed,
            "lambda_basis": [m2j(b) for b in self.lam.basis],
            "lambda_perp_basis": [m2j(b) for b in self.lam_perp.basis],
            "cubic_y": self.cubic_y.to_json(),
            "cubic_s": self.cubic_s.to_json(),
            "nodes": [{"matrix": m2j(n.matrix),
                       "coords": [str(x) for x in n.coords],
                       "v": [str(x) for x in n.v],
                       "w": [str(x) for x in n.w]} for n in self.nodes],
        }

    @classmethod
    def from_json(cls, data: dict) -> "DeterminantalInstance":
        def j2m(m):
            return tuple(tuple(Fraction(x) for x in row) for row in m)
        nodes = tuple(NodeData(j2m(n["matrix"]),
                               tuple(Fraction(x) for x in n["coords"]),
                               tuple(Fraction(x) for x in n["v"]),
                               tuple(Fraction(x) for x in n["w"]))
                      for n in data["nodes"])
        return cls(seed=data["seed"],
                   lam=EndoSubspace(tuple(j2m(b) for b in data["lambda_basis"])),
                   lam_perp=EndoSubspace(tuple(j2m(b) for b in data["lambda_perp_basis"])),
                   cubic_y=MPoly.from_json(data["cubic_y"]),
                   cubic_s=MPoly.from_json(data["cubic_s"]),
                   nodes=nodes)


def linear_general_position(points) -> bool:
    """Six points of P^4: every 5-subset must have full rank 5."""
    if len(points) != 6:
        raise DetGeoError("need exactly six points")
    for drop in range(6):
        sub = [points[i] for i in range(6) if i != drop]
        if rank(sub) != 5:
            return False
    return True


def is_odp(f: MPoly, p) -> bool:
    """Ordinary double point test for a cubic hypersurface.

    On integers, at p cleared of denominators: f(p) = 0 (else
    DetGeoError), the gradient vanishes and the Hessian H has rank n - 1.
    Moving p to the last coordinate point writes f = x_n^2 A1 + x_n A2 + A3,
    and p is an ODP iff A1 = 0 and the quadratic form A2 is nondegenerate.
    A1 = 0 is the gradient; then H p = 2 grad f(p) = 0, and H is congruent
    to the Gram matrix of A2 with a zero row and column added.
    """
    if f.degree() != 3 or not f.is_homogeneous():
        raise DetGeoError("is_odp needs a homogeneous cubic")
    value, grad, hess = _int_jet(_int_terms(f)[0], clear_denominators(p)[0])
    if value:
        raise DetGeoError("point is not on the hypersurface")
    return not any(grad) and rank(hess) == f.nvars - 1


def _split_at_vertex(f: MPoly, p):
    """Move p to the last coordinate vertex and split f by powers of x_n.

    Returns the new basis (p last, the other columns standard unit vectors)
    and {k: A_k} with f(sum_j x_j cols[j]) = sum_k x_n^k A_k, each nonzero
    A_k a polynomial in x_0..x_{n-1}.
    """
    n = f.nvars
    pivot = next(i for i in range(n) if p[i] != 0)
    cols = [tuple(identity(n)[i]) for i in range(n) if i != pivot] + [vec(p)]
    subs = [MPoly.linear_form([cols[k][j] for k in range(n)]) for j in range(n)]
    by_last: dict[int, dict] = {}
    for e, c in f.compose(subs).terms.items():
        by_last.setdefault(e[n - 1], {})[e[:n - 1]] = c
    return cols, {k: MPoly(n - 1, terms) for k, terms in by_last.items()}


def hessian_matrix(f: MPoly, p):
    n = f.nvars
    parts = gradient(f)
    return tuple(tuple(parts[i].partial(j).evaluate(p) for j in range(n))
                 for i in range(n))


DEFAULT_ENTRY_RANGE = 9
RETRY_CAP = 32


def make_instance(seed: int) -> DeterminantalInstance:
    """Deterministic instance from a seed.

    Five random rank-1 matrices with small integer entries span a hyperplane
    of End(V)-perp; the sixth rank-1 point is recovered exactly; the basis is
    rescaled so the six nodes sit at the standard simplex plus (1,1,1,1,1).
    Every structural claim is verified before returning: rank-1 nodes, linear
    general position, an ordinary double point at each node, smoothness of
    the surface side by Macaulay certificate.
    """
    rng = random.Random(seed)
    failures = []
    for _ in range(RETRY_CAP):
        try:
            return _build_instance(seed, rng)
        except DegenerateInstance as exc:
            failures.append(str(exc))
    raise DetGeoError(f"no instance after {RETRY_CAP} attempts: {failures[-3:]}")


def _random_rank1(rng):
    r = DEFAULT_ENTRY_RANGE
    while True:
        v = tuple(Fraction(rng.randrange(-r, r + 1)) for _ in range(3))
        w = tuple(Fraction(rng.randrange(-r, r + 1)) for _ in range(3))
        if not is_zero_vec(v) and not is_zero_vec(w):
            return v, w


def _build_instance(seed, rng) -> DeterminantalInstance:
    vs, ws, bs = [], [], []
    for _ in range(5):
        v, w = _random_rank1(rng)
        vs.append(v)
        ws.append(w)
        bs.append(rank1(v, w))
    if rank([flatten(b) for b in bs]) != 5:
        raise DegenerateInstance("five samples are linearly dependent")
    for i in range(5):
        for j in range(i + 1, 5):
            if projectively_equal(vs[i], vs[j]) or projectively_equal(ws[i], ws[j]):
                raise DegenerateInstance("repeated image or cokernel direction")

    p6 = residual_rank1_point(bs)
    span = EndoSubspace(tuple(bs))
    c6 = span.coordinates_of(p6)
    if c6 is None or any(x == 0 for x in c6):
        raise DegenerateInstance("nodes not in linear general position")
    # normalize the basis so p6 = (1,1,1,1,1)
    basis = tuple(tuple(tuple(c6[k] * bs[k][i][j] for j in range(3)) for i in range(3))
                  for k in range(5))
    lam_perp = EndoSubspace(basis)
    lam = trace_perp(lam_perp)
    if lam.dim != 4:
        raise DegenerateInstance("perp has unexpected dimension")

    cubic_y = determinant_on_subspace(lam_perp)
    if cubic_y.is_zero():
        raise DegenerateInstance("determinant vanishes on the whole hyperplane")
    cubic_s = determinant_on_subspace(lam)
    if cubic_s.is_zero():
        raise DegenerateInstance("determinant vanishes on the 4-plane side")
    cubic_y = cubic_y.content_normalized()
    cubic_s = cubic_s.content_normalized()

    node_coords = [tuple(identity(5)[i]) for i in range(5)] + [vec((1, 1, 1, 1, 1))]
    node_mats = [lam_perp.element(c) for c in node_coords]
    nodes = []
    for m, c in zip(node_mats, node_coords):
        if rank(m) != 1:
            raise DegenerateInstance("node is not rank 1")
        v = mat3_image_basis(m)[0]
        w_cov = annihilator(nullspace(m))
        if len(w_cov) != 1:
            raise DegenerateInstance("node kernel is not a hyperplane")
        nodes.append(NodeData(m, c, primitive_int_vector(v),
                              primitive_int_vector(w_cov[0])))

    if not linear_general_position(node_coords):
        raise DegenerateInstance("nodes not in linear general position")
    for c in node_coords:
        if not is_odp(cubic_y, c):
            raise DegenerateInstance("node is not an ordinary double point")

    if not macaulay_nonzero(gradient(cubic_s)):
        raise DegenerateInstance("surface side is singular")

    return DeterminantalInstance(seed=seed, lam=lam, lam_perp=lam_perp,
                                 cubic_y=cubic_y, cubic_s=cubic_s,
                                 nodes=tuple(nodes))


def certify_finite_singular_locus(inst: DeterminantalInstance) -> bool:
    """Smooth random hyperplane slice of the threefold (Macaulay certificate
    on the slice's quadric partials) proves dim Sing <= 0: a positive-
    dimensional singular locus would meet every hyperplane."""
    rng = random.Random(inst.seed + 104729)
    for _ in range(8):
        normal = [Fraction(rng.randrange(-9, 10)) for _ in range(5)]
        basis = nullspace([normal])
        if len(basis) != 4:
            continue
        sliced = restrict_to_subspace(inst.cubic_y, basis)
        if sliced.is_zero():
            continue
        if macaulay_nonzero(gradient(sliced)):
            return True
    raise DetGeoError("no smooth certifying slice found")


# ---------------------------------------------------------------------------
# the three line families


def special_line(inst: DeterminantalInstance, kind: str, param) -> ProjLine:
    """Line on the threefold from one of the three constructions.

    fromV [v]: matrices killing v.  fromVdual [v-dual]: matrices whose image
    lies in the kernel of the functional.  fromS [sigma]: matrices phi with
    sigma phi sigma = 0 (sigma of rank 2 in lam, given by its coordinates or
    the matrix itself).
    """
    kernel = nullspace(_line_rows(inst, kind, param))
    if len(kernel) != 2:
        raise DetGeoError(f"{kind} parameter is degenerate (solution dimension "
                          f"{len(kernel) - 1} != 1)")
    line = ProjLine(kernel[0], kernel[1])
    if not restrict_to_subspace(inst.cubic_y, [line.p0, line.p1]).is_zero():
        raise DetGeoError("constructed line does not lie on the threefold")
    return line


def _line_rows(inst: DeterminantalInstance, kind: str, param) -> list:
    """Integer rows of the linear conditions on the lam_perp coordinates
    whose kernel is the special_line of that kind and parameter, each a
    positive multiple of the exact condition, which leaves the kernel."""
    space = inst.lam_perp
    if kind == "fromV":
        return space.image.int_values(param)[0]
    if kind == "fromVdual":
        return space.image_t.int_values(param)[0]
    if kind == "fromS":
        sigma = _sigma_matrix(inst, param)
        if rank(sigma) != 2:
            raise DetGeoError("fromS parameter must have rank 2")
        sig, _ = clear_denominators(flatten(sigma))
        prods = [_int_mul3(sig, _int_mul3(m, sig)) for m in space.ints]
        return [[p[q] for p in prods] for q in range(9)]
    raise DetGeoError(f"unknown line kind {kind!r}")


def _sigma_matrix(inst, param):
    if len(param) == 4 and not hasattr(param[0], "__len__"):
        return inst.lam.element(param)
    m = mat3(param)
    if not inst.lam.contains(m):
        raise DetGeoError("sigma is not in the 4-plane")
    return m


def _special_tag(inst, d, kv, kw) -> str | None:
    """"P" or "Pdual" for the line through a point x and a direction d, or
    None, where kv and kw span the kernel and cokernel of phi(x).  Off the
    nodes phi(x) has rank 2, so kv is one vector, and phi(x) and phi(d)
    have a common kernel vector exactly when phi(d) kv = 0: the integer
    rows of the fromV line of kv vanish at d.  Likewise a common cokernel
    functional is kw, with kw^T phi(d) = 0 on the rows of the fromVdual
    line of kw."""
    ds = clear_denominators(d)[0]
    for kind, k, tag in (("fromV", kv, "P"), ("fromVdual", kw, "Pdual")):
        if len(k) == 1 and not any(sum(map(mul, row, ds))
                                   for row in _line_rows(inst, kind, k[0])):
            return tag
    return None


def classify_line(inst: DeterminantalInstance, line: ProjLine) -> str:
    """Family tag of an exact line on the threefold.

    singular-locus: passes through a node.  P: common kernel vector.
    Pdual: common cokernel functional; with no node on the line, both are
    read off the kernel and cokernel of phi(p0) by _special_tag.
    Scomponent: a rank-2 sigma in lam with sigma phi sigma vanishing along
    the line, found by _sigma_test on the exact backend.
    """
    if not line.exact:
        raise DetGeoError("classification is exact-path only")
    if not restrict_to_subspace(inst.cubic_y, [line.p0, line.p1]).is_zero():
        raise DetGeoError("line is not on the threefold")
    for node in inst.nodes:
        if line.contains_point(node.coords):
            return "singular-locus"
    phi_y = inst.phi(line.p0)
    tag = _special_tag(inst, line.p1, nullspace(phi_y), nullspace(transpose(phi_y)))
    if tag is not None:
        return tag
    if _sigma_test(_EXACT, inst, phi_y, line.p1):
        return "Scomponent"
    raise DetGeoError("line does not belong to any family (unexpected)")


@dataclass(frozen=True)
class _Backend:
    """The arithmetic of the sigma test: kernel(rows), a kernel basis of a
    matrix; values(forms, v), the matrix of the exact linear forms with the
    coefficient lists forms[i][j] at the vector v; negligible(x, scale),
    whether x counts as zero against scale."""

    kernel: Callable
    values: Callable
    negligible: Callable


_EXACT = _Backend(nullspace, _values, lambda x, scale: x == 0)

# multiple of default_tolerance(prec) in the numeric sigma phi sigma = 0
# check; absorbs the nine-term sums per entry and the error sigma inherits
# from its chain of numeric kernels
_SIGMA_SLACK = 64


def _numeric_backend(prec: int) -> _Backend:
    """Kernels and exact-times-numeric values at prec + 32 bits, through the
    fixed-point layer of _numeric; the sigma test runs on it inside
    mpmath.workprec(prec + 32)."""
    tol = _numeric.default_tolerance(prec) * _SIGMA_SLACK
    return _Backend(lambda rows: _numeric.kernel_numeric(rows, prec),
                    lambda forms, v: _numeric.linear_values(forms, v, prec),
                    lambda x, scale: abs(x) <= tol * scale)


def _sigma_test(backend: _Backend, inst, phi_y, d) -> bool:
    """Whether the line through y and d, where phi_y = phi(y) is exact and d
    is exact or numeric to suit the backend, carries a rank-2 sigma in lam
    with sigma phi sigma = 0 along it.

    ker sigma must be the meet u0 of the images of phi(y) and phi(d), and
    im sigma the preimage plane of u0 under phi(y); both conditions are
    linear in the lam coordinates of sigma.  Every solution of rank 2 is
    tried on sigma phi(y) sigma and sigma phi(d) sigma.  A shared preimage
    plane need not be checked: with ker sigma = span(u0),
    sigma phi(d) sigma = 0 puts im sigma, the preimage plane of phi(y),
    inside that of phi(d).
    """
    kernel, values = backend.kernel, backend.values
    lam = inst.lam
    # the row c phi_y, linear in c, cleared once for every row it is applied to
    row_times_phi_y = Layout([[[phi_y[i][j] for i in range(3)] for j in range(3)]])
    phi_d = values(inst.lam_perp.forms, d)
    ann_y, ann_d = (kernel(transpose(phi)) for phi in (phi_y, phi_d))
    if len(ann_y) != 1 or len(ann_d) != 1:
        return False
    meet = kernel([ann_y[0], ann_d[0]])
    if len(meet) != 1:
        return False
    u0 = meet[0]
    pre = kernel([values(row_times_phi_y, c)[0] for c in kernel([u0])])
    if len(pre) != 2:
        return False
    # sigma u0 = 0, and a sigma = 0 for the covector a of the preimage plane
    conditions = values(lam.image, u0) + values(lam.image_t, kernel(pre)[0])
    pnorm_y, pnorm_d = (max(abs(x) for row in phi for x in row) for phi in (phi_y, phi_d))
    for s in kernel(conditions):
        sigma = values(lam.forms, s)
        if len(kernel(sigma)) != 1:
            continue
        snorm2 = max(abs(x) for row in sigma for x in row) ** 2
        # sigma phi(y) from the exact phi(y), sigma phi(d) from the values
        products = ((snorm2 * pnorm_y, [values(row_times_phi_y, row)[0] for row in sigma]),
                    (snorm2 * pnorm_d, mat_mul(sigma, phi_d)))
        if all(backend.negligible(x, scale) for scale, sp in products
               for row in mat_mul(sp, sigma) for x in row):
            return True
    return False


# ---------------------------------------------------------------------------
# scrolls and twisted quartics


@dataclass(frozen=True)
class ScrollData:
    v: tuple
    vdual: tuple
    quadrics_v: tuple        # three quadrics cutting T_v in P(lam_perp)
    quadrics_vdual: tuple    # three quadrics cutting T_vdual
    union_quadric: MPoly     # the shared minor: T_v union T_vdual = Y cap {Q=0}
    adapted_basis: tuple     # columns of the basis change g


def scroll_data(inst: DeterminantalInstance, v, vdual=None) -> ScrollData:
    """Quadrics cutting the scroll T_v = {y : v in im(y)} and its dual mate.

    Basis adapted so v is the first basis vector and the chosen functional
    annihilates the other two; T_v is then cut by the 2x2 minors of the
    bottom two rows, T_vdual by the minors of the right two columns, and the
    union quadric is the shared lower-right minor.  The generic element of
    lam_perp in the adapted basis g is built on integers: with g cleared to
    an integer matrix G and B_k = ints[k] / den, g^-1 B_k g =
    adj(G) ints[k] G / (det G den), so its entries are integer linear forms
    over det G den, and the minors are integer products divided once.  The
    identity det = (first row) . (bottom-row minors) is checked exactly,
    against the integer determinant of the entries.
    """
    v = vec(v)
    if is_zero_vec(v):
        raise DetGeoError("v must be nonzero")
    if vdual is None:
        vdual = v                      # w^T v = |v|^2 != 0 over Q
    vdual = vec(vdual)
    pairing = sum(a * b for a, b in zip(vdual, v))
    if pairing == 0:
        raise DetGeoError("functional vanishes on v; no adapted basis")
    others = nullspace([vdual])
    if len(others) != 2:
        raise DetGeoError("degenerate functional")
    columns = (v, others[0], others[1])
    big_g = clear_denominators(flatten(transpose(columns)))[0]
    adj = _int_adj3(big_g)
    det_g = sum(big_g[j] * adj[3 * j] for j in range(3))
    perp = inst.lam_perp
    conj = [_int_mul3(_int_mul3(adj, b), big_g) for b in perp.ints]
    entries = [[linear_terms([m[3 * i + j] for m in conj]) for j in range(3)]
               for i in range(3)]
    scale = det_g * perp.den

    def minor(r1, r2, c1, c2):
        out = _int_product(entries[r1][c1], entries[r2][c2])
        _int_accumulate(out, _int_product(entries[r1][c2], entries[r2][c1]), -1)
        return out

    keys_v = ((1, 2, 1, 2), (1, 2, 0, 2), (1, 2, 0, 1))
    minors = {key: minor(*key) for key in keys_v + ((0, 2, 1, 2), (0, 1, 1, 2))}
    cofactor: dict = {}
    for j, (key, sign) in enumerate(zip(keys_v, (1, -1, 1))):
        _int_accumulate(cofactor, _int_product(entries[0][j], minors[key]), sign)
    if _int_poly_det(entries, perp.dim) != cofactor:
        raise DetGeoError("row-expansion identity failed (internal error)")

    def quadric(key):
        return MPoly._wrap(perp.dim, {e: Fraction(x, scale * scale)
                                      for e, x in minors[key].items()})

    quads_v = tuple(quadric(key) for key in keys_v)
    quads_vd = (quads_v[0], quadric((0, 2, 1, 2)), quadric((0, 1, 1, 2)))
    return ScrollData(tuple(v), tuple(vdual), quads_v, quads_vd, quads_v[0],
                      tuple(tuple(col) for col in columns))


def ruling_of_scroll(inst, v, index: int) -> ProjLine:
    """A ruling of T_v: the fromVdual-line of a functional vanishing on v,
    drawn from random.Random(index)."""
    others = nullspace([v])
    rng = random.Random(index)
    for _ in range(16):
        c0 = rng.randrange(-5, 6)
        c1 = rng.randrange(-5, 6)
        w = tuple(c0 * a + c1 * b for a, b in zip(others[0], others[1]))
        if is_zero_vec(w):
            continue
        try:
            return special_line(inst, "fromVdual", w)
        except DetGeoError:
            continue
    raise DetGeoError("no ruling found (degenerate scroll)")


@dataclass(frozen=True)
class TwistedQuarticReport:
    sigma: tuple
    v: tuple                  # beta(s) = ker sigma
    vdual: tuple              # beta-dual(s): annihilator of im sigma
    node_on_both_scrolls: tuple
    node_on_line: tuple
    line: ProjLine


def twisted_quartic_check(inst: DeterminantalInstance, sigma_param) -> TwistedQuarticReport:
    """Nodes against the two scrolls of a surface point.

    Every node must satisfy all six scroll quadrics (rank-1 matrices have all
    2x2 minors zero) and avoid the line of s; a node on the line flags the
    degenerate boundary and raises.
    """
    sigma = _sigma_matrix(inst, sigma_param)
    if rank(sigma) != 2:
        raise DetGeoError("sigma must have rank 2 (smooth surface point)")
    v = nullspace(sigma)[0]
    w = annihilator(mat3_image_basis(sigma))[0]
    if sum(a * b for a, b in zip(w, v)) == 0:
        raise DetGeoError("kernel of sigma lies in its image (degenerate s)")
    sd = scroll_data(inst, v, w)
    line = special_line(inst, "fromS", sigma)
    on_scrolls = []
    on_line = []
    for node in inst.nodes:
        vals = [q.evaluate(node.coords) for q in sd.quadrics_v + sd.quadrics_vdual]
        on_scrolls.append(all(x == 0 for x in vals))
        on_line.append(line.contains_point(node.coords))
    if any(on_line):
        raise DetGeoError("a node lies on the line of s (degenerate s)")
    return TwistedQuarticReport(sigma, tuple(v), tuple(w), tuple(on_scrolls),
                                tuple(on_line), line)


# ---------------------------------------------------------------------------
# projection from a node


@dataclass(frozen=True)
class NodeProjection:
    node_index: int
    quadric: MPoly            # A2, the projectivized tangent cone (4 vars)
    cubic: MPoly              # A3 (4 vars)
    images: tuple             # the five images of the other nodes in P^3
    quadric_rank: int
    images_on_curve: tuple
    images_singular: tuple
    rulings_ok: bool          # no two images on a common ruling of {A2=0}
    hyperplanes_ok: bool      # no four images on a hyperplane


def project_from_node(inst: DeterminantalInstance, i: int) -> NodeProjection:
    """Project the threefold from node i (1-based).

    Moving the node to the last coordinate point writes the cubic as
    x4 A2 + A3; the base locus {A2 = A3 = 0} is the curve of lines through
    the node and the other five nodes land on it as its singular points.
    All the genericity checks of the five image points are performed.
    """
    if not 1 <= i <= 6:
        raise DetGeoError("node index out of range")
    cols, parts = _split_at_vertex(inst.cubic_y, inst.nodes[i - 1].coords)
    t_inv = inverse(transpose(cols))            # columns are the new basis
    if 3 in parts or 2 in parts:
        raise DetGeoError("node is not an ordinary double point (unexpected)")
    a2 = parts.get(1, MPoly.zero(4))
    a3 = parts.get(0, MPoly.zero(4))

    images = []
    for j, node in enumerate(inst.nodes):
        if j == i - 1:
            continue
        moved = mat_vec(t_inv, node.coords)
        img = tuple(moved[:4])
        if is_zero_vec(img):
            raise DetGeoError("node image undefined (coincident nodes)")
        images.append(primitive_int_vector(img))

    # on integers, over the denominators of A2 and A3: their values and
    # gradients at each image, and A2's Hessian, its Gram matrix H; the
    # gradient of A2 at n is H n, so it also gives the polar pairings
    t2, t3 = _int_terms(a2)[0], _int_terms(a3)[0]
    jets = [(_int_jet(t2, n), _int_jet(t3, n, 1)) for n in images]
    quadric_rank = rank(jets[0][0][2])
    on_curve = tuple(j2[0] == 0 and j3[0] == 0 for j2, j3 in jets)
    singular = tuple(rank([j2[1], j3[1]]) <= 1 for j2, j3 in jets)
    rulings_ok = all(sum(map(mul, images[a], jets[b][0][1]))
                     for a, b in itertools.combinations(range(5), 2))
    hyperplanes_ok = True
    for quad in itertools.combinations(range(5), 4):
        if rank([images[q] for q in quad]) != 4:
            hyperplanes_ok = False

    distinct = all(not projectively_equal(images[a], images[b])
                   for a in range(5) for b in range(a + 1, 5))
    if not distinct:
        raise DetGeoError("node images are not distinct")
    return NodeProjection(i, a2, a3, tuple(images), quadric_rank,
                          on_curve, singular, rulings_ok, hyperplanes_ok)


# ---------------------------------------------------------------------------
# lines through a point


@dataclass(frozen=True)
class LinesThroughPoint:
    lines: tuple              # (ProjLine, tag-or-None) pairs
    eliminant: MPoly          # degree-6 binary form
    multiplicities: tuple     # multiplicity profile of the eliminant roots
    residual_max: float


def direction_chart(f: MPoly, y, chart_seed: int = 0, _cut_through=None):
    """Chart data for the lines on a cubic through a smooth point.

    For a cubic form f and a direction d, f(r y + d) = r^3 f(y) +
    r^2 grad f(y).d + r q2(d) + f(d), with q2 half the Hessian form at y.
    A line through y in direction d lies on f when the gradient pairing,
    q2 and f all vanish at d.  The gradient condition plus (nvars - 4)
    seeded hyperplanes (the first one not through y, to kill the
    translation freedom along y) cut the directions to a P^2, and f is
    restricted once to span(y, chart): its r^1 and r^0 parts are the conic
    q2 and the cubic f on the chart.  Returns (chart_basis,
    restricted_conic, restricted_cubic, degree-6 eliminant, (A, B)), with
    A u + B the first subresultant of the conic and the cubic in u
    (_subresultant), which also gives the eliminant.  A chart is retried
    when A vanishes at a root, that is when A and B have a common zero
    (poly.macaulay_nonzero): two lines collide in it, and -B/A lifts
    neither.  A double root where A does not vanish is a double line
    through y, the same in every chart.

    In ambients above P^4 the extra hyperplanes select finitely many members
    of the positive-dimensional family of lines; pass a direction in
    `_cut_through` to force them through one chosen line (testing hook).
    """
    n = f.nvars
    if f.degree() != 3 or not f.is_homogeneous():
        raise DetGeoError("direction_chart needs a homogeneous cubic")
    y = vec(y)
    # the value and gradient at y cleared of denominators: a positive
    # multiple of grad f(y), which leaves the chart (a unique rref) alone
    value, grad = _int_jet(_int_terms(f)[0], clear_denominators(y)[0], 1)
    if value:
        raise DetGeoError("point is not on the cubic")
    if not any(grad):
        raise DetGeoError("point is singular on the cubic")
    if n < 5:
        raise DetGeoError("need at least an ambient P^4")

    rng = random.Random(f"{chart_seed}:5077:{n}")
    for _ in range(64):
        h_first = [Fraction(rng.randrange(-9, 10)) for _ in range(n)]
        hy = sum(a * b for a, b in zip(h_first, y))
        if hy == 0:
            continue
        cuts = [grad, h_first]
        if _cut_through is None:
            cuts += [[Fraction(rng.randrange(-9, 10)) for _ in range(n)]
                     for _ in range(n - 5)]
        else:
            # normalize the target representative into the h_first chart,
            # then draw the extra cuts through it
            hd = sum(a * b for a, b in zip(h_first, _cut_through))
            d_star = tuple(Q(a) - hd * Q(b) / hy
                           for a, b in zip(_cut_through, y))
            pivot = next(i for i in range(n) if d_star[i] != 0)
            for _ in range(n - 5):
                r = [Fraction(rng.randrange(-9, 10)) for _ in range(n)]
                rd = sum(a * b for a, b in zip(r, d_star))
                r[pivot] -= rd / d_star[pivot]
                cuts.append(r)
        chart = nullspace(cuts)
        if len(chart) != 3:
            continue
        # y is off the chart, as h_first . y != 0: the span has rank 4
        parts: tuple = ({}, {})
        for e, c in restrict_to_subspace(f, [y, *chart]).terms.items():
            if e[0] < 2:
                parts[e[0]][e[1:]] = c
        c_chart, q_chart = (MPoly._wrap(3, t) for t in parts)
        if q_chart.coefficient((0, 0, 2)) == 0 or c_chart.coefficient((0, 0, 3)) == 0:
            continue
        elim, lift = _subresultant(q_chart, c_chart)
        if not macaulay_nonzero(list(lift)):    # also when elim is zero
            continue
        return chart, q_chart, c_chart, elim.content_normalized(), lift
    raise DetGeoError("no usable direction chart found")


def _subresultant(q_chart: MPoly, c_chart: MPoly):
    """(eliminant, (A, B)) of the chart conic q = q2 u^2 + q1 u + q0 and
    cubic c = c3 u^3 + ... + c0, with q2 and c3 nonzero constants.  Their
    first subresultant in u is A u + B (Collins, J. ACM 14, 1967), with
    A = det[[q2, q1, q0], [0, q2, q1], [c3, c2, c1]] and
    B = det[[q2, q1, 0], [0, q2, q0], [c3, c2, c0]], binary forms of degrees
    2 and 3 in (s, t).  It is q2^2 times c mod q, so over a root (s : t) of
    Res_u(q, c) where A does not vanish, u = -B/A is the one common zero of
    q and c.  The eliminant is returned as Res_u(q, A u + B) = q2^2
    Res_u(q, c) = q2 B^2 - q1 A B + q0 A^2; where A vanishes it is q2 B^2,
    so A vanishes at one of its roots exactly when A and B share a zero."""
    q0, q1, q2 = _coeffs_in_var(q_chart, 2)
    c0, c1, c2, c3 = _coeffs_in_var(c_chart, 2)
    zero = MPoly.zero(2)
    a = poly_det([[q2, q1, q0], [zero, q2, q1], [c3, c2, c1]])
    b = poly_det([[q2, q1, zero], [zero, q2, q0], [c3, c2, c0]])
    return poly_det([[q2, q1, q0], [a, b, zero], [zero, a, b]]), (a, b)


def direction_candidates(f: MPoly, y, prec: int = 256, chart_seed: int = 0,
                         _cut_through=None):
    """Direction vectors of the lines on f through y, exact when rational.

    Returns (candidates, eliminant, multiplicities): each candidate is
    (direction, exact_flag) with the direction in ambient coordinates, one
    per root of _eliminant_roots, given the rational roots of the core that
    the modular probe finds, each lifted by _lift_roots as in
    lines_through_point.  fourfold.sample_line does not come here.
    """
    chart_data = direction_chart(f, y, chart_seed, _cut_through)
    core = _binary_form_parts(chart_data[3])[2]
    root_list = list(_eliminant_roots(chart_data[3], prec, _rational_roots_of(core)))
    return ([(d, exact) for d, exact, _ in _lift_roots(chart_data, root_list, prec)],
            chart_data[3], tuple(m for _, m in root_list))


def _eliminant_roots(elim: MPoly, prec: int, rational):
    """Projective roots of the binary eliminant with multiplicities, each
    only when the next is asked for: (0:1) and (1:0) split off, then those
    of its core from poly._root_stream, factor by factor.  rational holds
    the core's roots that come back exact, as given; the rest of each
    squarefree factor comes from Aberth, checked on the core, as mpc
    values.  Which roots are exact is the caller's data: the P and P-dual
    roots or the probe's roots (lines_through_point), the probe's roots
    (direction_candidates), or none (fourfold.sample_line)."""
    a0, inf_mult, core = _binary_form_parts(elim)
    if a0 > 0:
        yield (Fraction(0), Fraction(1)), a0
    if inf_mult > 0:
        yield (Fraction(1), Fraction(0)), inf_mult
    for r, m in _root_stream(core, prec, rational):
        yield ((r, Fraction(1)) if isinstance(r, Fraction) else (r, 1)), m


def _split_rational(core: UPoly, rational) -> bool:
    """Whether one certificate proves that rational holds every rational
    root of the core, each simple, and that the other roots are one Galois
    orbit over Q: the r are distinct, each divides the primitive integer
    core exactly (poly._deflate), and the quotient has degree >= 2 and an
    irreducibility certificate (poly.irreducibility_prime)."""
    if len(set(rational)) != len(rational):
        return False
    ints = _primitive_int_coeffs(core)
    for r in rational:
        ints = _deflate(ints, r)
        if ints is None:
            return False
    return len(ints) >= 3 and irreducibility_prime(UPoly(ints)) is not None


def _lift_roots(chart_data, roots, prec):
    """Lift the roots of the eliminant, ((s, t), multiplicity) pairs as from
    _eliminant_roots, to their directions, in order and each only when the
    next is asked for, yielding (direction in ambient coordinates,
    exact_flag, residual).

    chart_data is what direction_chart returns, whose (A, B) has A nonzero
    at every root (s : t), so (s, t, -B/A) is the one common zero of the
    conic and the cubic over it.  A rational root lifts exactly, by
    MPoly.evaluate, with residual 0.  An irrational one lifts at prec + 32
    bits by one _numeric.evaluate_fixed call on the integer terms of A and
    B, and its residual on the conic and on the cubic, relative to their
    coefficient scales, must be within default_tolerance(prec), else
    DetGeoError.
    """
    chart, q_chart, c_chart, _elim, (a_form, b_form) = chart_data
    ab_terms = [_int_terms(a_form), _int_terms(b_form)]
    qc_terms = [_int_terms(q_chart), _int_terms(c_chart)]
    # ambient coordinate j of a chart direction d3 is sum_k d3[k] chart[k][j]
    to_ambient = Layout([transpose(chart)])
    with mpmath.workprec(prec + 32):
        tol = _numeric.default_tolerance(prec)
        scales = [_numeric.to_mpc(max(map(abs, f.terms.values()), default=1)).real
                  for f in (q_chart, c_chart)]
    for st, _mult in roots:
        if isinstance(st[0], Fraction):
            d3 = st + (-b_form.evaluate(st) / a_form.evaluate(st),)
            yield mat_vec(to_ambient[0], d3), True, 0
            continue
        with mpmath.workprec(prec + 32):
            a_val, b_val = _numeric.evaluate_fixed(ab_terms, st, prec + 32)
            d3 = st + (-b_val / a_val,)
            resid = _lift_residual(qc_terms, scales, d3)
            if resid > tol:
                raise DetGeoError(f"lift residual {mpmath.nstr(resid, 8)} above tolerance")
            d = tuple(_numeric.linear_values(to_ambient, d3, prec)[0])
        yield d, False, resid


def _lift_residual(forms, scales, d3):
    """Residual of a numeric lift d3 on the conic and the cubic of the chart,
    given as their _int_terms, relative to scales, their largest coefficient
    moduli, at the ambient precision."""
    dnorm = max(1, max(abs(x) for x in d3))
    value_q, value_c = _numeric.evaluate_fixed(forms, d3, mpmath.mp.prec)
    scale_q, scale_c = scales
    return max(abs(value_q) / (scale_q * dnorm ** 2),
               abs(value_c) / (scale_c * dnorm ** 3))


def _special_roots(inst, chart, kv, kw) -> list | None:
    """The chart roots s/t of the P line and the P-dual line through y,
    where kv and kw are the kernel and cokernel of phi(y), or None.

    The P line is the fromV line of kv, {z : phi(z) kv = 0}, the P-dual line
    the fromVdual line of kw, and both pass through y.  Each meets the span
    of the chart, which lies in the tangent hyperplane of y and misses y, in
    one direction chart^T (s, t, u): the kernel of the rows of its
    special_line times chart^T.  None when a kernel has another dimension
    or t = 0; the roots are checked by _split_rational."""
    if len(kv) != 1 or len(kw) != 1:
        return None
    # row . chart^T, up to a positive scale per row, which leaves the kernel
    on_chart = Layout([chart])
    out = []
    for kind, param in (("fromV", kv[0]), ("fromVdual", kw[0])):
        kernel = nullspace([on_chart.int_values(row)[0][0]
                            for row in _line_rows(inst, kind, param)])
        if len(kernel) != 1 or kernel[0][1] == 0:
            return None
        out.append(kernel[0][0] / kernel[0][1])
    return sorted(out)


def lines_through_point(f: MPoly, y, prec: int = 256, inst=None) -> LinesThroughPoint:
    """All lines on the cubic f through a smooth point y (ambient P^4).

    Each root (s : t) of the eliminant lifts to one direction, (s, t, -B/A)
    on the chart of direction_chart.  Rational roots give exact lines, so
    the rational P and P-dual lines always come back exact; the rest come
    back numeric at the working precision, each with its residual checked
    against 2^(-prec/2) (a larger one raises DetGeoError).  The directions
    are those of direction_candidates.

    The roots come from _eliminant_roots, given the core's rational roots.
    With an instance attached, these come from phi(y): the P and P-dual
    lines through y give two chart roots (_special_roots), and the core of
    the eliminant divided by their linear factors, with the remainder 0 as
    the exact check, has an irreducibility certificate mod a prime
    (_split_rational).  That certificate proves there is no other rational
    root, so only the irrational rest goes to Aberth.  Without an instance,
    or when any of this fails (a kernel of another dimension, a root that
    does not divide exactly, t = 0, coinciding roots, a rest of degree < 2,
    no certificate), the modular probe finds the rational roots of the core
    (poly._rational_roots_of).

    With an instance attached every line gets a family tag.  An exact line
    with direction d is P when phi(d) kills the kernel vector of phi(y),
    P-dual when the cokernel functional of phi(y) kills phi(d)
    (_special_tag, as in classify_line), and else takes classify_line's
    tag.  Numeric lines come only from irrational eliminant roots, so they
    are never P or P-dual; they are Scomponent when _sigma_test, the test
    of classify_line, passes on the numeric backend at the working
    precision.

    The sigma test runs once per Galois orbit when it can.  y, lam,
    lam_perp and phi are rational, so the sigma conditions on a direction
    are polynomial over Q, and conjugate lines share the verdict.  With the
    certificate above, the numeric lines, one per root of the irreducible
    rest, are one orbit: the first is tested and its tag goes to all.  On
    the fallback every numeric line is tested on its own.
    """
    if f.nvars != 5:
        raise DetGeoError("lines_through_point expects an ambient P^4")
    y = vec(y)
    chart_data = direction_chart(f, y)
    core = _binary_form_parts(chart_data[3])[2]
    rational = None
    if inst is not None:
        phi_y = inst.phi(y)
        kv = nullspace(phi_y)
        kw = nullspace(transpose(phi_y))
        rational = _special_roots(inst, chart_data[0], kv, kw)
    certified = rational is not None and _split_rational(core, rational)
    root_list = list(_eliminant_roots(chart_data[3], prec,
                                      rational if certified else _rational_roots_of(core)))
    lifts = list(_lift_roots(chart_data, root_list, prec))

    numeric = _numeric_backend(prec)
    y_num = tuple(_numeric.to_mpc(x, prec) for x in y)
    found = []
    orbit_tag = None
    for d, exact, _ in lifts:
        tag = None
        if exact:
            line = ProjLine(y, d)
            if inst is not None:
                tag = _special_tag(inst, line.p1, kv, kw) or classify_line(inst, line)
        else:
            line = ProjLine(y_num, d, exact=False, prec=prec)
            if inst is not None:
                tag = orbit_tag
                if tag is None:
                    with mpmath.workprec(prec + 32):
                        tag = ("Scomponent" if _sigma_test(numeric, inst, phi_y, d)
                               else "unclassified")
                    if certified:
                        orbit_tag = tag
        found.append((line, tag))
    return LinesThroughPoint(tuple(found), chart_data[3], tuple(m for _, m in root_list),
                             float(max((resid for _, _, resid in lifts), default=0)))


# ---------------------------------------------------------------------------
# rational point sampling


def sample_smooth_point(inst: DeterminantalInstance, rng) -> tuple:
    """Rational smooth point of the threefold: a random point on a fromV line.

    Points whose unique P- or P-dual line meets a node sit on the gluing
    locus of the line families (the six-line count degenerates there), so
    those samples are rejected.
    """
    for _ in range(128):
        v = tuple(Fraction(rng.randrange(-9, 10)) for _ in range(3))
        if is_zero_vec(v):
            continue
        # a fromV line meets node i iff v lies in ker(p_i), i.e. w_i . v = 0
        if any(sum(map(mul, n.w, v)) == 0 for n in inst.nodes):
            continue
        try:
            line = special_line(inst, "fromV", v)
        except DetGeoError:
            continue
        s, t = rng.randrange(1, 7), rng.randrange(1, 7)
        y = line.point_at(Fraction(s), Fraction(t))
        if is_zero_vec(y):
            continue
        y = primitive_int_vector(y)
        if any(projectively_equal(y, n.coords) for n in inst.nodes):
            continue
        if not any(_int_jet(_int_terms(inst.cubic_y)[0], y, 1)[1]):
            continue
        phi = inst.phi(y)
        if rank(phi) != 2:
            continue
        # the dual line through y meets node i iff coker(phi) kills v_i
        coker = nullspace(transpose(phi))
        if len(coker) != 1:
            continue
        if any(sum(map(mul, coker[0], n.v)) == 0 for n in inst.nodes):
            continue
        return vec(y)
    raise DetGeoError("no smooth sample point found")


def s_circ_ok(inst: DeterminantalInstance, sigma) -> bool:
    """The surface-point predicate used for the hexahedral comparison:
    sigma of rank 2, kernel direction distinct from every q_i and off the 15
    lines joining pairs of them."""
    if rank(sigma) != 2:
        return False
    b = nullspace(sigma)[0]
    for node in inst.nodes:
        if projectively_equal(b, node.v):
            return False
    for i in range(6):
        for j in range(i + 1, 6):
            if qdet([inst.nodes[i].v, inst.nodes[j].v, b]) == 0:
                return False
    return True


def sample_surface_point(inst: DeterminantalInstance, rng) -> tuple:
    """Rational point of the cubic surface via a chord through two lines.

    Points on the exceptional lines are rational; the third intersection of
    the chord through one point on each of two such lines is again rational
    and generically lies off all 27 lines.  Only points that pass s_circ_ok
    are returned, as coordinates in the lam basis.
    """
    for _ in range(96):
        i, j = rng.sample(range(6), 2)
        e_i = _line_in_lambda(inst, i)
        e_j = _line_in_lambda(inst, j)
        if e_i is None or e_j is None:
            continue
        c1 = _random_on(e_i, rng)
        c2 = _random_on(e_j, rng)
        tvar = MPoly.variables(1)[0]
        sig = [[MPoly.const(1, c1[a][b]) + tvar * c2[a][b] for b in range(3)]
               for a in range(3)]
        detp = poly_det(sig)
        c_lin = detp.coefficient((1,))
        c_quad = detp.coefficient((2,))
        if c_quad == 0 or c_lin == 0:
            continue
        sigma = tuple(tuple(-c_quad * c1[a][b] + c_lin * c2[a][b] for b in range(3))
                      for a in range(3))
        if rank(sigma) != 2:
            continue
        coords = inst.lam.coordinates_of(sigma)
        if coords is None:
            continue
        coords = primitive_int_vector(coords)
        if not s_circ_ok(inst, inst.lam.element(coords)):
            continue
        return vec(coords)
    raise DetGeoError("no surface sample point found")


def _line_in_lambda(inst, i: int):
    """The exceptional line E_i in lam: sigma with sigma v_i = 0."""
    kern = nullspace(_values(inst.lam.image, inst.nodes[i].v))
    if len(kern) != 2:
        return None
    return (inst.lam.element(kern[0]), inst.lam.element(kern[1]))


def _random_on(pair, rng):
    a, b = pair
    for _ in range(16):
        s, t = rng.randrange(-5, 6), rng.randrange(-5, 6)
        m = tuple(tuple(s * a[i][j] + t * b[i][j] for j in range(3)) for i in range(3))
        if rank(m) == 2:
            return m
    return tuple(tuple(a[i][j] + b[i][j] for j in range(3)) for i in range(3))
