import functools
import itertools
import json
import random
import types
from collections import Counter
from fractions import Fraction
from operator import mul

import mpmath
import pytest

from sixnodal import detgeo
from sixnodal._numeric import default_tolerance
from sixnodal._qlinalg import (identity, inverse, mat_mul, mat_vec, nullspace,
                               primitive_int_vector, projectively_equal, rank,
                               transpose, vec)
from sixnodal.detgeo import (DegenerateInstance, DetGeoError,
                             DeterminantalInstance, EndoSubspace, ProjLine,
                             annihilator, classify_line, direction_candidates,
                             flatten, hessian_matrix, is_odp,
                             linalg_duality_witness, linear_general_position,
                             lines_meet, lines_through_point, make_instance,
                             mat3_image_basis, project_from_node, rank1,
                             residual_rank1_point, ruling_of_scroll, sample_smooth_point,
                             sample_surface_point, scroll_data, special_line,
                             tangent_sigma2_contains, trace_pair, trace_perp,
                             twisted_quartic_check, unflatten)
from sixnodal.poly import MPoly, UPoly, gradient, macaulay_resultant


# ---------------------------------------------------------------------------
# trace pairing and tangent spaces


def test_trace_perp_dimensions(inst1):
    assert inst1.lam.dim == 4
    assert inst1.lam_perp.dim == 5
    assert all(trace_pair(a, b) == 0
               for a in inst1.lam.basis for b in inst1.lam_perp.basis)


def test_trace_perp_involution(inst1):
    back = trace_perp(trace_perp(inst1.lam))
    assert back.dim == 4
    assert all(back.contains(b) for b in inst1.lam.basis)


def test_trace_perp_full_space():
    units = []
    for r in range(3):
        for c in range(3):
            units.append(tuple(tuple(Fraction(1 if (i, j) == (r, c) else 0)
                                     for j in range(3)) for i in range(3)))
    full = EndoSubspace(tuple(units))
    assert full.dim == 9
    zero = trace_perp(full)
    assert zero.dim == 0
    assert zero.contains(units[0]) is False and zero.contains(unflatten((0,) * 9))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_endo_subspace_layouts_are_the_explicit_products(seed):
    # each coefficient layout applied to a vector against the explicit
    # B(c) = sum_k c_k B_k, then the same layouts on mpc copies at 128 bits
    from sixnodal._numeric import linear_values, to_mpc
    inst = make_instance(seed)
    rng = random.Random(seed + 31)

    def rational(n):
        return tuple(Fraction(rng.randrange(-50, 51), rng.randrange(1, 20))
                     for _ in range(n))

    def mv(m, v):
        return tuple(sum(x * y for x, y in zip(row, v)) for row in m)

    for space in (inst.lam, inst.lam_perp):
        c, u, w = rational(space.dim), rational(3), rational(3)
        b_c = tuple(tuple(sum(ck * b[i][j] for ck, b in zip(c, space.basis))
                          for j in range(3)) for i in range(3))
        b_t = tuple(zip(*b_c))
        cases = [(space.forms, c), (space.forms_t, c), (space.image, u), (space.image_t, w)]
        forms, forms_t, image, image_t = (detgeo._values(lay, v) for lay, v in cases)
        assert space.element(c) == b_c
        assert tuple(map(tuple, forms)) == b_c and tuple(map(tuple, forms_t)) == b_t
        # the image rows times c are B(c) u, the image_t rows B(c)^T w
        assert mv(image, c) == mv(b_c, u) and mv(image_t, c) == mv(b_t, w)
        # relative to sum_k |coefficient_k v_k|, the size of the exact sum
        with mpmath.workprec(160):
            for layout, v in cases:
                num = [row.to_mpc(160)
                       for row in linear_values(layout, [to_mpc(x, 128) for x in v], 128)]
                for coeff_row, exact, approx in zip(layout, detgeo._values(layout, v), num):
                    for coeffs, x, y in zip(coeff_row, exact, approx):
                        scale = to_mpc(sum(abs(a * b) for a, b in zip(coeffs, v))).real
                        assert abs(y - to_mpc(x)) <= mpmath.mpf(2) ** -128 * scale


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_endo_subspace_layouts_are_cleared_once(seed, monkeypatch):
    # the four layouts are built on first use only, once each, and give
    # bit-identical numeric values to the term-dict evaluator on the
    # cleared coefficients, and the Fraction sums exactly
    from sixnodal import _qlinalg
    from sixnodal._numeric import Fixed, evaluate_fixed, linear_values
    from sixnodal._qlinalg import clear_denominators, linear_terms
    names = ("forms", "forms_t", "image", "image_t")
    inst = make_instance(seed)
    for space in (inst.lam, inst.lam_perp):
        assert not any(name in vars(space) for name in names)
    built = []
    real = _qlinalg.Layout.__new__

    def counting(cls, rows):
        built.append(rows)
        return real(cls, rows)

    monkeypatch.setattr(_qlinalg.Layout, "__new__", counting)

    def reference(layout, point, prec):
        n = len(point)
        ints, den = clear_denominators([c for row in layout for coeffs in row for c in coeffs])
        vals = evaluate_fixed([(linear_terms(ints[i:i + n]), den)
                               for i in range(0, len(ints), n)], point, prec + 32)
        width = len(layout[0])
        return [Fixed(vals.pairs[i:i + width], vals.shift)
                for i in range(0, len(vals.pairs), width)]

    rng = random.Random(seed + 77)
    for space in (inst.lam, inst.lam_perp):
        for name in names:
            layout = getattr(space, name)
            assert getattr(space, name) is layout
            n = len(layout[0][0])
            exact = tuple(Fraction(rng.randrange(-99, 100), rng.randrange(1, 50))
                          for _ in range(n))
            assert detgeo._values(layout, exact) == [
                [sum(Fraction(c) * x for c, x in zip(coeffs, exact)) for coeffs in row]
                for row in layout]
            for prec in (64, 128, 256):
                with mpmath.workprec(2 * prec):
                    point = [mpmath.mpc(mpmath.rand() - 0.5, mpmath.rand() - 0.5)
                             for _ in range(n)]
                assert linear_values(layout, point, prec) == reference(layout, point, prec)
    assert len(built) == 8


def test_tangent_sigma2_contains():
    a = ((1, 0, 0), (0, 1, 0), (0, 0, 0))
    assert tangent_sigma2_contains(a, a)            # a kills its own kernel
    e33 = ((0, 0, 0), (0, 0, 0), (0, 0, 1))
    assert not tangent_sigma2_contains(a, e33)
    with pytest.raises(DetGeoError):
        tangent_sigma2_contains(((1, 0, 0), (0, 0, 0), (0, 0, 0)), a)


def test_annihilator_matrix_is_orthogonal_to_tangent_space():
    # B0 with ker B0 = im A0 and im B0 = ker A0 pairs to zero with T_A0
    a0 = ((1, 0, 0), (0, 1, 0), (0, 0, 0))
    b0 = rank1((0, 0, 1), (0, 0, 1))
    rng = random.Random(4)
    for _ in range(20):
        m = tuple(tuple(Fraction(rng.randrange(-5, 6)) for _ in range(3))
                  for _ in range(3))
        if tangent_sigma2_contains(a0, m):
            assert trace_pair(b0, m) == 0


# ---------------------------------------------------------------------------
# duality witnesses


def _subspace_containing(mats, rng, dim=4):
    """Grow the span of mats to `dim` with random matrices."""
    basis = [tuple(tuple(Fraction(x) for x in row) for row in m) for m in mats]
    while len(basis) < dim:
        cand = tuple(tuple(Fraction(rng.randrange(-4, 5)) for _ in range(3))
                     for _ in range(3))
        try:
            EndoSubspace(tuple(basis + [cand]))
        except DetGeoError:
            continue
        basis.append(cand)
    return EndoSubspace(tuple(basis))


def test_duality_witness_rank1_member():
    rng = random.Random(12)
    planted = rank1((1, 2, -1), (3, 0, 1))
    lam = _subspace_containing([planted], rng)
    report = linalg_duality_witness(lam, "meetsSigma1")
    assert report.status == "witness"
    assert rank(report.primal_point) == 1
    b = report.dual_point
    perp = trace_perp(lam)
    assert perp.contains(b)
    if rank(b) == 2:
        assert all(tangent_sigma2_contains(b, m) for m in perp.basis)
    else:
        assert report.dual_direction is not None


def test_duality_witness_tangent_case():
    rng = random.Random(21)
    a0 = ((1, 0, 0), (0, 1, 0), (0, 0, 0))
    # tangency: random matrices inside T_{A0}Sigma2 = {M : M e3 in span(e1,e2)}
    mats = [a0]
    while len(mats) < 4:
        m = [[Fraction(rng.randrange(-4, 5)) for _ in range(3)] for _ in range(3)]
        m[2][2] = Fraction(0)
        m[0][2], m[1][2] = m[0][2], m[1][2]
        m[2][2] = Fraction(0)
        m = (tuple(m[0]), tuple(m[1]), (m[2][0], m[2][1], Fraction(0)))
        # M(ker a0) = M e3 must lie in im a0 = span(e1, e2): entry (2,2) = 0 and
        # also rows... e3 image is the last column: require m[2][2] = 0
        try:
            EndoSubspace(tuple(mats + [m]))
        except DetGeoError:
            continue
        if tangent_sigma2_contains(a0, m):
            mats.append(m)
    lam = EndoSubspace(tuple(mats))
    report = linalg_duality_witness(lam, "tangentSigma2", witness=a0)
    assert report.status == "witness"
    b0, b1 = report.dual_point, report.dual_direction
    assert rank(b0) == 1
    perp = trace_perp(lam)
    assert perp.contains(b0) and perp.contains(b1)
    # b1 is tangent to the rank-1 locus at b0
    from sixnodal.detgeo import tangent_sigma1_contains
    assert tangent_sigma1_contains(b0, b1)


def test_duality_witness_generic_clean():
    rng = random.Random(33)
    lam = _subspace_containing([], rng)
    report = linalg_duality_witness(lam, "meetsSigma1")
    assert report.status == "clean"
    assert report.certificate is not None          # Macaulay certificate found


def _zeros_of_span(planted, seed):
    """Rational common zeros of the rank-1 minors of a 4-plane grown from the
    planted v w^T, as primitive integer vectors in the order returned."""
    lam = _subspace_containing([rank1(v, w) for v, w in planted], random.Random(seed))
    zeros = detgeo._rational_common_zeros(detgeo.rank1_system_minors(trace_perp(lam)))
    return [primitive_int_vector(p) for p in zeros]


@pytest.mark.parametrize("planted", [
    # (0, 1, 2) lies on the first chart's h = x0
    [((0, 1, 2), (1, -1, 3)), ((1, 1, 1), (2, 0, -1))],
    # (1, 2, 3) and (1, 2, -1) share x1/x0 = 2
    [((1, 2, 3), (1, 0, 2)), ((1, 2, -1), (3, -2, 1)), ((2, -1, 1), (0, 1, 1))],
    # a non-reduced zero: two planted matrices share their image (1, -1, 2)
    [((1, -1, 2), (1, 2, 0)), ((1, -1, 2), (0, 1, -3)), ((3, 1, 1), (1, 1, 1))],
], ids=["x0_zero", "same_ratio", "common_image"])
def test_rational_common_zeros_recovers_planted_points(planted):
    zeros = _zeros_of_span(planted, 7)
    assert len(zeros) == len(set(zeros))
    assert set(zeros) == {primitive_int_vector(v) for v, _ in planted}


def test_rational_common_zeros_empty_pencil_and_irrational():
    lam = _subspace_containing([], random.Random(33))
    assert detgeo._rational_common_zeros(detgeo.rank1_system_minors(trace_perp(lam))) == []
    # common w: every (s v1 + t v2) w^T lies in the span, a line of v's
    with pytest.raises(DetGeoError, match="not finite"):
        _zeros_of_span([((1, 0, 2), (1, 1, -1)), ((0, 1, -1), (1, 1, -1))], 5)
    # (+-sqrt 2, 1, 0) with x1/x0 irrational, and (+-sqrt 2, 0, 1) with x1/x0 = 0
    x = MPoly.variables(3)
    for forms in ([x[0] ** 2 - 2 * x[1] ** 2, x[2]], [x[0] ** 2 - 2 * x[2] ** 2, x[1]]):
        with pytest.raises(DetGeoError, match="none is rational"):
            detgeo._rational_common_zeros(forms)


def _compose_slice(f, a, b):
    """f(a, b, u) by composing the ternary form with constants: the reference
    for the slice in _slice_lifts, which evaluates the _coeffs_in_var binary
    forms of f at (a, b)."""
    u = f.compose([MPoly.const(1, a), MPoly.const(1, b), MPoly.var(1, 0)])
    dense = [Fraction(0)] * (u.degree() + 1 if not u.is_zero() else 0)
    for e, c in u.terms.items():
        dense[e[0]] += c
    return UPoly(dense)


def _reference_slice_lifts(forms, a, b):
    slices = [u for u in (_compose_slice(f, a, b) for f in forms) if not u.is_zero()]
    if not slices:
        return []
    g = slices[0]
    for u in slices[1:]:
        g = g.gcd(u)
    if g.degree() < 1:
        return []
    return [t for t in detgeo._rational_roots_of(g) if all(u(t) == 0 for u in slices)]


@pytest.mark.parametrize("seed", range(6))
def test_slice_lifts_match_compose_slices(seed):
    # random ternary forms through planted lines u = p x0 + q x1, among them
    # one whose leading u-coefficient vanishes at (a, b) and one whose slice
    # at (a, b) is zero
    rng = random.Random(900 + seed)
    x = MPoly.variables(3)

    def rnd(lo=-9):
        return Fraction(rng.randint(lo, 9), rng.randint(1, 5))

    def form(degree, binary=False):
        """A random form of the degree, in x0 and x1 only when binary."""
        f = MPoly.zero(3)
        for i in range(degree + 1):
            for j in range(degree + 1 - i):
                if not binary or i + j == degree:
                    f = f + rnd() * x[0] ** i * x[1] ** j * x[2] ** (degree - i - j)
        return f

    a, b = rnd(1), rnd()
    (p1, q1), (p2, q2) = (rnd(), rnd()), (rnd(), rnd())
    line1, line2 = x[2] - p1 * x[0] - q1 * x[1], x[2] - p2 * x[0] - q2 * x[1]
    t1, t2 = p1 * a + q1 * b, p2 * a + q2 * b
    through_ab = b * x[0] - a * x[1]
    # u-degree 2 with leading coefficient through_ab
    low = through_ab * x[2] ** 2 + form(2, True) * x[2] + form(3, True)
    cases = [
        ((line1 * form(2),), t1),
        ((line1 * line2 * form(1), line1 * form(2)), t1),
        ((line1 * low,), t1),
        ((line1 * low, line1 * line2 * form(2)), t1),
        ((through_ab * form(2), line2 * form(1)), t2),
        ((through_ab * form(2),), None),
    ]
    for forms, planted in cases:
        got = detgeo._slice_lifts(forms, a, b)
        assert got == _reference_slice_lifts(forms, a, b)
        assert planted in got if planted is not None else got == []


def _planted_corpus_span(t):
    """1 + t % 4 planted v w^T with entries in [-4, 4]: one coordinate of each
    v zeroed when t % 3 == 0, v2 on the x0:x1 ratio of v1 when t % 5 == 0,
    v2 = v1 when t % 7 == 0; the span grown to dimension 4."""
    rng = random.Random(5000 + t)
    vs, ws = [], []
    for _ in range(1 + t % 4):
        v, w = [0] * 3, [0] * 3
        while not any(v) or not any(w):
            v = [rng.randrange(-4, 5) for _ in range(3)]
            w = [rng.randrange(-4, 5) for _ in range(3)]
        if t % 3 == 0:
            v[rng.randrange(3)] = 0
            v[0] += not any(v)
        vs.append(v)
        ws.append(w)
    if len(vs) > 1 and t % 5 == 0:
        s = rng.choice([2, -1, 3])
        vs[1] = [s * vs[0][0], s * vs[0][1], rng.randrange(-4, 5)]
        vs[1][2] += not any(vs[1])
    if len(vs) > 1 and t % 7 == 0:
        vs[1] = list(vs[0])
    return _subspace_containing([rank1(v, w) for v, w in zip(vs, ws)], rng), vs


def _v_locus_meets_line(lam, p, q):
    """Whether the rank-1 minors have a common zero on the line p + s q, over
    the algebraic closure: the gcd of their restrictions has a root."""
    s = MPoly.var(1, 0)
    line = [MPoly.const(1, p[i]) + q[i] * s for i in range(3)]
    g = UPoly([])
    for minor in detgeo.rank1_system_minors(trace_perp(lam)):
        u = minor.compose(line)
        g = g.gcd(UPoly([u.coefficient((d,)) for d in range(u.degree() + 1)]))
    return g.degree() >= 1


def test_duality_witness_planted_corpus():
    # 'clean' only with a proof; a rank-1 witness otherwise, or DetGeoError
    # exactly where the v's of the rank-1 locus form a curve (which meets
    # every line, while these finite loci miss the line used)
    raised = []
    for t in range(60):
        lam, vs = _planted_corpus_span(t)
        try:
            found = detgeo.find_rank1_in_span(lam)
        except DetGeoError:
            raised.append(t)
            with pytest.raises(DetGeoError):
                linalg_duality_witness(lam, "meetsSigma1")
            assert _v_locus_meets_line(lam, (1, 2, -3), (2, -1, 5)), t
            continue
        assert not _v_locus_meets_line(lam, (1, 2, -3), (2, -1, 5)), t
        images = {primitive_int_vector(mat3_image_basis(p)[0]) for p in found}
        assert images == {primitive_int_vector(v) for v in vs}, t
        assert all(rank(p) == 1 and lam.contains(p) for p in found), t
        report = linalg_duality_witness(lam, "meetsSigma1")
        assert report.status == "witness" and report.primal_point == found[0], t
    assert raised == [15, 27]


# ---------------------------------------------------------------------------
# residual sixth point


def test_residual_recovers_planted_point():
    rng = random.Random(2)
    p6 = five = None
    for _ in range(20):
        vs = [tuple(Fraction(rng.randrange(-5, 6)) for _ in range(3)) for _ in range(5)]
        ws = [tuple(Fraction(rng.randrange(-5, 6)) for _ in range(3)) for _ in range(5)]
        mats = [rank1(v, w) for v, w in zip(vs, ws)]
        if any(all(x == 0 for x in flatten(m)) for m in mats):
            continue
        if rank([flatten(m) for m in mats]) != 5:
            continue
        try:
            p6 = residual_rank1_point(mats)
            five = mats
            break
        except DegenerateInstance:
            continue
    assert p6 is not None
    assert rank(p6) == 1
    span = EndoSubspace(tuple(five))
    assert span.contains(p6)
    perp = trace_perp(span)
    v6 = mat3_image_basis(p6)[0]
    w6 = annihilator(nullspace(p6))[0]
    # all four 3x3 minors of the stacked system vanish at the recovered point
    from sixnodal.detgeo import rank1_system_minors
    for minor in rank1_system_minors(perp):
        assert minor.evaluate(v6) == 0
    assert all(trace_pair(a, rank1(v6, w6)) == 0 for a in perp.basis)


@pytest.mark.parametrize("dropped", range(6))
def test_residual_engineered_roundtrip(inst1, dropped):
    # drop one node of a verified instance and recover it from the other five
    mats = [n.matrix for n in inst1.nodes]
    recovered = residual_rank1_point(mats[:dropped] + mats[dropped + 1:])
    assert projectively_equal(flatten(recovered), flatten(mats[dropped]))


def test_seed4_first_draw_yields_sixth_node():
    # the first draw of seed 4 is accepted: its sixth node is rank 1 and in
    # the span of the other five
    from sixnodal import detgeo
    inst = detgeo._build_instance(4, random.Random(4))
    p6 = inst.nodes[5].matrix
    assert rank(p6) == 1
    assert EndoSubspace(tuple(n.matrix for n in inst.nodes[:5])).contains(p6)


def test_residual_common_kernel_degenerates():
    rng = random.Random(9)
    # five rank-1 matrices whose w's are coplanar: every matrix kills the
    # common kernel vector, so the rank-1 locus of the span is infinite
    w1, w2 = (1, 2, 3), (0, 1, -1)
    mats = []
    while len(mats) < 5:
        a, b = rng.randrange(-4, 5), rng.randrange(-4, 5)
        w = tuple(a * x + b * y for x, y in zip(w1, w2))
        v = tuple(Fraction(rng.randrange(-5, 6)) for _ in range(3))
        if all(x == 0 for x in w) or all(x == 0 for x in v):
            continue
        mats.append(rank1(v, w))
    with pytest.raises((DegenerateInstance, DetGeoError)):
        residual_rank1_point(mats)


def test_make_instance_survives_adversarial_start(monkeypatch):
    """Force the first draw to produce two proportional rank-1 matrices; the
    degeneracy detector must reject it and the retry must return a clean
    instance."""
    import sixnodal.detgeo as dg

    class Rigged(random.Random):
        def __init__(self, seed):
            super().__init__(seed)
            # two identical (v, w) samples, guaranteed proportional
            self.script = [1, 2, 3, 4, 5, 6] * 2

        def randrange(self, *a, **k):
            if self.script:
                return self.script.pop(0)
            return super().randrange(*a, **k)

    monkeypatch.setattr(dg.random, "Random", Rigged)
    inst = dg.make_instance(12345)
    assert linear_general_position([n.coords for n in inst.nodes])
    assert all(is_odp(inst.cubic_y, n.coords) for n in inst.nodes)


def test_residual_batch_rational(inst1):
    rng = random.Random(77)
    successes = 0
    for trial in range(12):
        vs = [tuple(Fraction(rng.randrange(-9, 10)) for _ in range(3)) for _ in range(5)]
        ws = [tuple(Fraction(rng.randrange(-9, 10)) for _ in range(3)) for _ in range(5)]
        if any(all(x == 0 for x in v) for v in vs + ws):
            continue
        mats = [rank1(v, w) for v, w in zip(vs, ws)]
        if rank([flatten(m) for m in mats]) != 5:
            continue
        try:
            p6 = residual_rank1_point(mats)
        except DegenerateInstance:
            continue
        assert rank(p6) == 1
        assert all(isinstance(x, Fraction) for x in flatten(p6))
        successes += 1
    assert successes >= 8


# ---------------------------------------------------------------------------
# ordinary double points


def test_is_odp_examples():
    x = MPoly.variables(5)
    cone = x[4] * (x[0] ** 2 + x[1] ** 2 + x[2] ** 2 + x[3] ** 2) + x[0] ** 3
    p = (0, 0, 0, 0, 1)
    assert is_odp(cone, p)
    degenerate = x[4] * (x[0] ** 2 + x[1] ** 2) + x[3] ** 3
    assert not is_odp(degenerate, p)
    with pytest.raises(DetGeoError):
        is_odp(cone, (1, 0, 0, 0, 0))          # not on the hypersurface


def test_is_odp_matches_hessian_oracle(inst1):
    # independent oracle: gradient zero and projective Hessian of rank 4
    for node in inst1.nodes:
        p = node.coords
        assert all(g.evaluate(p) == 0 for g in gradient(inst1.cubic_y))
        h = hessian_matrix(inst1.cubic_y, p)
        assert rank(h) == 4
        assert is_odp(inst1.cubic_y, p)


@functools.cache
def _instance(seed):
    return make_instance(seed)


def _ref_gram_matrix(q: MPoly) -> list:
    """Symmetric H with q(x) = x^T H x / 2, for a quadratic form q, in
    Fractions."""
    m = q.nvars
    h = [[Fraction(0)] * m for _ in range(m)]
    for e, c in q.terms.items():
        i, j = [i for i in range(m) for _ in range(e[i])]
        h[i][j] += c
        h[j][i] += c
    return h


def _ref_is_odp(f: MPoly, p) -> bool:
    """The compose-based test: with p moved to the last vertex, f = x_n^2 A1
    + x_n A2 + A3, and p is an ODP iff A1 = 0 and A2 is nondegenerate."""
    _cols, parts = detgeo._split_at_vertex(f, vec(p))
    assert 3 not in parts                   # p is on f
    if 2 in parts:
        return False
    a2 = parts.get(1, MPoly.zero(f.nvars - 1))
    return rank(_ref_gram_matrix(a2)) == a2.nvars


def test_is_odp_matches_compose_reference():
    # the six nodes of seeds 1-20, 20 smooth points, cones whose tangent
    # cone has corank 2 and 1, a smooth point of Hessian rank n - 1, and two
    # cones moved by a rational change of coordinates so that the vertex has
    # denominators
    x = MPoly.variables(5)
    cone = x[4] * (x[0] ** 2 + x[1] ** 2 + x[2] ** 2 + x[3] ** 2) + x[0] ** 3
    degenerate = x[4] * (x[0] ** 2 + x[1] ** 2) + x[3] ** 3
    corank1 = x[4] * (x[0] ** 2 + x[1] ** 2 + x[2] ** 2) + x[3] ** 3
    # smooth at the vertex, with a Hessian of rank n - 1 there all the same
    parabolic = x[0] * x[4] ** 2 + x[4] * (x[1] ** 2 + x[2] ** 2) + x[3] ** 3
    change = [[Fraction(1, 2), 1, 0, 0, -1], [0, 1, Fraction(2, 3), 0, 0],
              [1, 0, 1, Fraction(-1, 5), 0], [0, 0, 0, 1, Fraction(1, 7)],
              [1, 1, 1, 1, 1]]
    moved_vertex = mat_vec(inverse(change), vec((0, 0, 0, 0, 1)))
    subs = [MPoly.linear_form(row) for row in change]
    cases = [(cone, (0, 0, 0, 0, 1), True), (degenerate, (0, 0, 0, 0, 1), False),
             (corank1, (0, 0, 0, 0, 1), False), (parabolic, (0, 0, 0, 0, 1), False),
             (cone.compose(subs), moved_vertex, True),
             (degenerate.compose(subs), moved_vertex, False)]
    for seed in range(1, 21):
        inst = _instance(seed)
        cases += [(inst.cubic_y, n.coords, True) for n in inst.nodes]
        if seed <= 10:
            rng = random.Random(seed + 800)
            cases += [(inst.cubic_y, sample_smooth_point(inst, rng), False)
                      for _ in range(2)]
    assert len(cases) == 6 + 120 + 20
    assert any(isinstance(c, Fraction) and c.denominator > 1 for c in moved_vertex)
    for f, p, expected in cases:
        assert _ref_is_odp(f, p) is expected
        assert is_odp(f, p) is expected


def test_is_odp_rejects_points_off_the_cubic_and_other_forms():
    x = MPoly.variables(5)
    vertex = (0, 0, 0, 0, 1)
    off = (1, Fraction(1, 2), Fraction(-1, 3), 2, 0)
    assert _instance(1).cubic_y.evaluate(off) != 0
    with pytest.raises(DetGeoError, match="not on the hypersurface"):
        is_odp(_instance(1).cubic_y, off)
    quadric_cone = x[0] ** 2 + x[1] ** 2 + x[2] ** 2 + x[3] ** 2
    quartic = x[4] ** 2 * quadric_cone + x[0] ** 4
    mixed = x[4] * quadric_cone + x[0] ** 2
    for f in (quadric_cone, quartic, mixed):
        with pytest.raises(DetGeoError, match="homogeneous cubic"):
            is_odp(f, vertex)


def test_linear_general_position():
    simplex = [tuple(identity(5)[i]) for i in range(5)]
    assert linear_general_position(simplex + [(1, 1, 1, 1, 1)])
    assert not linear_general_position(simplex + [simplex[0]])
    hyper = simplex[:4] + [(1, 1, 1, 1, 0), (1, 2, 3, 4, 0)]
    assert not linear_general_position(hyper)


# ---------------------------------------------------------------------------
# instances


def test_make_instance_seed1_matches_golden(inst1, golden_instance):
    assert inst1.to_json() == golden_instance.to_json()
    assert inst1.cubic_y == golden_instance.cubic_y


def test_instance_invariants(inst1):
    assert inst1.cubic_y == _det_on(inst1.lam_perp)
    assert linear_general_position([n.coords for n in inst1.nodes])
    for n in inst1.nodes:
        assert rank(n.matrix) == 1
        assert inst1.lam_perp.contains(n.matrix)
        assert is_odp(inst1.cubic_y, n.coords)
    assert macaulay_resultant(gradient(inst1.cubic_s)) != 0


def _det_on(space):
    from sixnodal.detgeo import determinant_on_subspace
    return determinant_on_subspace(space).content_normalized()


def test_instance_gradient_vanishes_at_rank1_points(inst1):
    # dual formulation of the determinantal singularity
    for n in inst1.nodes:
        for g in gradient(inst1.cubic_y):
            assert g.evaluate(n.coords) == 0


def test_instance_finite_singular_locus_certificate(inst1):
    from sixnodal.detgeo import certify_finite_singular_locus
    assert certify_finite_singular_locus(inst1)


def test_instance_determinism_and_json_roundtrip():
    a = make_instance(3)
    b = make_instance(3)
    assert a.to_json() == b.to_json()
    c = DeterminantalInstance.from_json(json.loads(json.dumps(a.to_json())))
    assert c.cubic_y == a.cubic_y and c.cubic_s == a.cubic_s


# ---------------------------------------------------------------------------
# the three line families


def test_special_lines_all_kinds(inst1):
    rng = random.Random(5)
    lv = special_line(inst1, "fromV", (2, 3, -1))
    assert classify_line(inst1, lv) == "P"
    lvd = special_line(inst1, "fromVdual", (1, -2, 4))
    assert classify_line(inst1, lvd) == "Pdual"
    s = sample_surface_point(inst1, rng)
    ls = special_line(inst1, "fromS", s)
    assert classify_line(inst1, ls) == "Scomponent"


def test_classify_roundtrip_50_per_kind(inst1):
    rng = random.Random(6)
    done_v = done_vd = 0
    while min(done_v, done_vd) < 50:
        v = tuple(Fraction(rng.randrange(-9, 10)) for _ in range(3))
        if all(x == 0 for x in v):
            continue
        if done_v < 50 and all(sum(a * b for a, b in zip(n.w, v)) != 0
                               for n in inst1.nodes):
            line = special_line(inst1, "fromV", v)
            assert classify_line(inst1, line) == "P"
            done_v += 1
        if done_vd < 50 and all(sum(a * b for a, b in zip(n.v, v)) != 0
                                for n in inst1.nodes):
            lined = special_line(inst1, "fromVdual", v)
            assert classify_line(inst1, lined) == "Pdual"
            done_vd += 1
    for _ in range(50):
        s = sample_surface_point(inst1, rng)
        assert classify_line(inst1, special_line(inst1, "fromS", s)) == "Scomponent"


def test_line_through_node_tag(inst1):
    kv = nullspace(inst1.nodes[0].matrix)[0]
    line = special_line(inst1, "fromV", kv)
    assert line.contains_point(inst1.nodes[0].coords)
    assert classify_line(inst1, line) == "singular-locus"


def test_special_line_plucker_cubic_in_v(inst1):
    """The symbolic Pluecker coordinates of the fromV line are homogeneous
    cubics in v (grounding the degree-9 component count), and they evaluate
    to the actual line's Pluecker vector up to complementary-index duality."""
    from sixnodal.detgeo import rank1_system_minors
    import itertools
    cubics = rank1_system_minors(inst1.lam_perp)
    assert len(cubics) == 10
    for c in cubics:
        assert c.is_homogeneous() and c.degree() == 3
    pairs = list(itertools.combinations(range(5), 2))
    triples = list(itertools.combinations(range(5), 3))
    rng = random.Random(14)
    checked = 0
    while checked < 2:
        v = tuple(Fraction(rng.randrange(1, 9)) for _ in range(3))
        if any(sum(a * b for a, b in zip(n.w, v)) == 0 for n in inst1.nodes):
            continue
        line = special_line(inst1, "fromV", v)
        pl = dict(zip(pairs, line.plucker()))
        minors = {t: c.evaluate(v) for t, c in zip(triples, cubics)}
        # duality: p_{ij} proportional to +- minor of the complementary triple
        ratios = set()
        for ij in pairs:
            comp = tuple(sorted(set(range(5)) - set(ij)))
            sign = _perm_sign(ij + comp)
            m = sign * minors[comp]
            ratios.add((pl[ij], m))
        # a single proportionality constant works for all ten coordinates
        base = next(((a, b) for a, b in ratios if b != 0), None)
        assert base is not None
        for a, b in ratios:
            assert a * base[1] == b * base[0]
        checked += 1


def _perm_sign(perm):
    sign = 1
    perm = list(perm)
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def test_degree_budget_9_27_9():
    # the component degrees against the Fano-surface degree
    assert 9 + 27 + 9 == 45


def test_projline_validation():
    with pytest.raises(DetGeoError):
        ProjLine((1, 0, 0, 0, 0), (2, 0, 0, 0, 0))


def test_projline_containment_and_equality_against_rank():
    # the echelon rows cleared once when the line is built answer as exact
    # rank does, whatever the scale, sign and order of the spanning pair
    rng = random.Random(5)

    def rand(n):
        return [Fraction(rng.randrange(-3, 4), rng.randrange(1, 4)) for _ in range(n)]

    for _ in range(200):
        p0, p1, pt = rand(4), rand(4), rand(4)
        if rank([p0, p1]) != 2:
            continue
        line = ProjLine(p0, p1)
        assert line.contains_point(pt) == (rank([p0, p1, pt]) == 2)
        (a, b), (c, d) = rand(2), rand(2)
        if a * d != b * c:
            other = ProjLine(line.point_at(a, b), line.point_at(c, d))
            assert line.same_line(other) and other.same_line(line)
            assert line.contains_point(other.point_at(1, -5))
        if rank([p0, p1, pt]) == 3:
            assert not line.same_line(ProjLine(p0, pt))


def test_projline_plucker_relations(inst1):
    # the three-term relations p_ij p_kl - p_ik p_jl + p_il p_jk = 0
    import itertools
    line = special_line(inst1, "fromV", (2, 3, -1))
    pl = dict(zip(itertools.combinations(range(5), 2), line.plucker()))

    def p(i, j):
        return pl[(i, j)] if i < j else -pl[(j, i)]

    for i, j, k, l in itertools.combinations(range(5), 4):
        assert p(i, j) * p(k, l) - p(i, k) * p(j, l) + p(i, l) * p(j, k) == 0
    assert line.plucker() is line.plucker()     # cached


# ---------------------------------------------------------------------------
# scrolls and twisted quartics


def test_scroll_data_and_samples(inst1):
    v = (2, 3, -1)
    sd = scroll_data(inst1, v)
    assert all(q.degree() == 2 for q in sd.quadrics_v + sd.quadrics_vdual)
    assert sd.union_quadric in sd.quadrics_v and sd.union_quadric in sd.quadrics_vdual
    # 25 sample points per scroll: 5 rulings x 5 points
    for idx in range(5):
        ruling = ruling_of_scroll(inst1, v, index=idx)
        for t in range(5):
            pt = ruling.point_at(Fraction(1), Fraction(t - 2))
            if all(x == 0 for x in pt):
                continue
            assert all(q.evaluate(pt) == 0 for q in sd.quadrics_v)
            assert sd.union_quadric.evaluate(pt) == 0
            assert inst1.cubic_y.evaluate(pt) == 0


def test_scroll_dual_samples(inst1):
    v = (2, 3, -1)
    sd = scroll_data(inst1, v)           # vdual defaults to v itself
    others = nullspace([[Fraction(x) for x in sd.vdual]])
    rng = random.Random(3)
    count = 0
    for _ in range(10):
        c0, c1 = rng.randrange(-4, 5), rng.randrange(-4, 5)
        u = tuple(c0 * a + c1 * b for a, b in zip(others[0], others[1]))
        if all(x == 0 for x in u):
            continue
        try:
            line = special_line(inst1, "fromV", u)
        except DetGeoError:
            continue
        for t in range(5):
            pt = line.point_at(Fraction(1), Fraction(t))
            assert all(q.evaluate(pt) == 0 for q in sd.quadrics_vdual)
            assert sd.union_quadric.evaluate(pt) == 0
        count += 1
        if count >= 5:
            break
    assert count >= 5


def test_ruling_lies_in_scroll(inst1):
    # a fromVdual line with vdual(v) = 0 is a ruling of T_v
    v = (2, 3, -1)
    sd = scroll_data(inst1, v)
    ruling = ruling_of_scroll(inst1, v, index=0)
    for t in range(4):
        pt = ruling.point_at(Fraction(1), Fraction(t))
        assert all(q.evaluate(pt) == 0 for q in sd.quadrics_v)


def _reference_scroll_quadrics(inst, v, vdual):
    """The scroll quadrics on Fractions: g^-1 B_k g by mat_mul, the entries
    as MPoly linear forms and the minors by MPoly arithmetic."""
    others = nullspace([list(vdual)])
    g = transpose([list(v), list(others[0]), list(others[1])])
    adapted = [mat_mul(mat_mul(inverse(g), b), g) for b in inst.lam_perp.basis]
    entries = [[MPoly.linear_form([m[i][j] for m in adapted]) for j in range(3)]
               for i in range(3)]

    def minor(r1, r2, c1, c2):
        return entries[r1][c1] * entries[r2][c2] - entries[r1][c2] * entries[r2][c1]

    quads_v = (minor(1, 2, 1, 2), minor(1, 2, 0, 2), minor(1, 2, 0, 1))
    quads_vd = (minor(1, 2, 1, 2), minor(0, 2, 1, 2), minor(0, 1, 1, 2))
    return quads_v, quads_vd, minor(1, 2, 1, 2), tuple(tuple(c) for c in transpose(g))


def test_scroll_data_matches_fraction_reference():
    # seeds 1-20: v = (2, 3, -1) with vdual = v, a v with a zero entry and a
    # vdual != v, and a seeded v with a seeded vdual
    for seed in range(1, 21):
        inst = make_instance(seed)
        rng = random.Random(seed)
        seeded = tuple(rng.randrange(-5, 6) or 1 for _ in range(3))
        for v, vdual in (((2, 3, -1), None), ((0, 1, 5), (1, -2, 3)),
                         (seeded, (1, 1, 1) if sum(seeded) else (1, 0, 0))):
            sd = scroll_data(inst, v, vdual)
            fv = tuple(Fraction(x) for x in v)
            fd = fv if vdual is None else tuple(Fraction(x) for x in vdual)
            assert sd.vdual == fd
            assert (sd.quadrics_v, sd.quadrics_vdual, sd.union_quadric,
                    sd.adapted_basis) == _reference_scroll_quadrics(inst, fv, fd)


def test_scroll_data_row_expansion_is_checked(inst1, monkeypatch):
    # a determinant that disagrees with the row expansion is an internal error
    monkeypatch.setattr(detgeo, "_int_poly_det", lambda rows, nv: {})
    with pytest.raises(DetGeoError, match="row-expansion"):
        scroll_data(inst1, (2, 3, -1))


def test_scroll_degree_budget():
    # [T] + [T-dual] = 2 h^2 matches deg(Y cap Q) = 2 * 3
    assert 3 + 3 == 2 * 3


def test_twisted_quartic_incidences(inst1):
    rng = random.Random(23)
    s = sample_surface_point(inst1, rng)
    rep = twisted_quartic_check(inst1, s)
    assert all(rep.node_on_both_scrolls)
    assert not any(rep.node_on_line)


def test_twisted_quartic_section_meets_rulings(inst1):
    rng = random.Random(29)
    s = sample_surface_point(inst1, rng)
    rep = twisted_quartic_check(inst1, s)
    # the line of s meets every sampled ruling of the scroll of beta(s) once
    for idx in range(5):
        ruling = ruling_of_scroll(inst1, rep.v, index=idx)
        assert lines_meet(rep.line, ruling)


def test_twisted_quartic_degenerate_on_exceptional_line(inst1):
    # sigma on the line E_1 has ker sigma = im p_1; its line contains the node
    from sixnodal.detgeo import _line_in_lambda
    pair = _line_in_lambda(inst1, 0)
    sigma = pair[0]
    if rank(sigma) != 2:
        sigma = tuple(tuple(a + b for a, b in zip(r1, r2))
                      for r1, r2 in zip(pair[0], pair[1]))
    with pytest.raises(DetGeoError):
        twisted_quartic_check(inst1, sigma)


# ---------------------------------------------------------------------------
# projection from a node


@pytest.mark.parametrize("node_index", [1, 2, 3, 4, 5, 6])
def test_projection_from_every_node(inst1, node_index):
    proj = project_from_node(inst1, node_index)
    assert proj.quadric_rank == 4
    assert all(proj.images_on_curve)
    assert all(proj.images_singular)
    assert proj.rulings_ok
    assert proj.hyperplanes_ok
    assert len(proj.images) == 5


def test_projection_jacobian_oracle(inst1):
    proj = project_from_node(inst1, 6)
    for n in proj.images:
        ja = [g.evaluate(n) for g in gradient(proj.quadric)]
        jb = [g.evaluate(n) for g in gradient(proj.cubic)]
        assert rank([ja, jb]) <= 1


def _ref_projection_checks(proj):
    """quadric_rank, images_on_curve, images_singular and rulings_ok from
    the Fraction Gram matrix and MPoly gradients of A2 and A3."""
    h = _ref_gram_matrix(proj.quadric)
    grads = [gradient(proj.quadric), gradient(proj.cubic)]
    on_curve = tuple(proj.quadric.evaluate(n) == 0 and proj.cubic.evaluate(n) == 0
                     for n in proj.images)
    singular = tuple(rank([[g.evaluate(n) for g in gs] for gs in grads]) <= 1
                     for n in proj.images)
    rulings_ok = all(sum(h[x][y] * a[x] * b[y] for x in range(4) for y in range(4)) != 0
                     for a, b in itertools.combinations(proj.images, 2))
    return rank(h), on_curve, singular, rulings_ok


def test_projection_checks_match_fraction_reference():
    for seed in range(1, 21):
        for i in range(1, 7):
            proj = project_from_node(_instance(seed), i)
            assert (proj.quadric_rank, proj.images_on_curve, proj.images_singular,
                    proj.rulings_ok) == _ref_projection_checks(proj)


def test_projection_finds_a_planted_isotropic_pair():
    # node 6 at the last vertex, so the images are the first four coordinates
    # of nodes 1-5.  A2's Gram matrix has rows over the denominators 3, 15,
    # 5 and 7, and images 4 and 5, the last pair, are h-isotropic:
    # a . H b = 1 - 1 = 0, while clearing each row over its own denominator
    # gives 3 - 15.  Every other pair pairs to nonzero.
    x = MPoly.variables(5)
    gram = [[1, Fraction(1, 3), 0, 0], [Fraction(1, 3), Fraction(1, 5), 0, 0],
            [0, 0, Fraction(2, 5), 0], [0, 0, 0, Fraction(4, 7)]]
    a2 = sum((x[i] * x[j] * (gram[i][j] if i != j else gram[i][i] / 2)
              for i in range(4) for j in range(i, 4)), MPoly.zero(5))
    cubic = x[4] * a2 + x[0] ** 3 + x[1] * x[2] * x[3]
    points = [(1, 1, 1, 1), (1, 0, 1, 1), (2, 0, 1, -1), (1, -3, 1, 2), (1, 0, 0, 0)]

    def planted(points):
        nodes = [types.SimpleNamespace(coords=vec(p + (0,))) for p in points]
        nodes.append(types.SimpleNamespace(coords=vec((0, 0, 0, 0, 1))))
        return project_from_node(types.SimpleNamespace(cubic_y=cubic, nodes=nodes), 6)

    proj = planted(points)
    assert proj.images == tuple(points)
    h = _ref_gram_matrix(proj.quadric)
    assert [(a, b) for a, b in itertools.combinations(range(5), 2)
            if sum(h[u][v] * points[a][u] * points[b][v]
                   for u in range(4) for v in range(4)) == 0] == [(3, 4)]
    assert h == [[Fraction(v) for v in row] for row in gram]
    assert not proj.rulings_ok
    assert _ref_projection_checks(proj)[3] is False
    # with the last image moved to (1, 0, 0, 1), no pair is isotropic
    fixed = planted(points[:4] + [(1, 0, 0, 1)])
    assert fixed.rulings_ok and _ref_projection_checks(fixed)[3] is True
    assert proj.quadric_rank == fixed.quadric_rank == 4


# ---------------------------------------------------------------------------
# lines through a point


def test_lines_through_point_split(inst1):
    rng = random.Random(41)
    for _ in range(5):
        y = sample_smooth_point(inst1, rng)
        res = lines_through_point(inst1.cubic_y, y, prec=256, inst=inst1)
        tags = Counter(t for _, t in res.lines if t)
        assert len(res.lines) == 6
        assert tags["P"] == 1 and tags["Pdual"] == 1 and tags["Scomponent"] == 4
        assert res.residual_max < 1e-40
        assert res.eliminant.degree() == 6
        assert sum(res.multiplicities) == 6


def test_simple_root_keeps_one_lift_at_64_bits():
    # second criterion-09 point of seed 4: at 64 bits both roots of the conic
    # over one irrational root were once within the residual bound, but a
    # simple root of the eliminant has one common zero of the conic and the
    # cubic, and -B/A gives just that one
    inst, (_, y) = _criterion09_points(4, count=2)
    res = lines_through_point(inst.cubic_y, y, prec=64, inst=inst)
    tags = Counter(t for _, t in res.lines)
    assert res.multiplicities == (1,) * 6
    assert len(res.lines) == 6
    assert tags["P"] == 1 and tags["Pdual"] == 1 and tags["Scomponent"] == 4
    assert res.residual_max <= default_tolerance(64)


@pytest.mark.parametrize("prec", [128, 256])
def test_residual_max_counts_only_kept_lines(inst1, prec):
    # first point of criterion 09 for seed 1; the quadratic formula on the
    # conic once gave lifts here that the residual bound rejected at 128
    # bits.  The subresultant lift gives one lift per root and rejects none:
    # residual_max is the largest residual of the lines returned
    y = sample_smooth_point(inst1, random.Random(501))
    res = lines_through_point(inst1.cubic_y, y, prec=prec, inst=inst1)
    assert len(res.lines) == 6
    assert res.residual_max <= default_tolerance(prec)


def _form_value(f, point):
    """Value of a Fraction MPoly at a numeric point, term by term in mpc at
    the ambient precision."""
    from sixnodal._numeric import to_mpc
    return sum(to_mpc(c) * mpmath.fprod(x ** k for x, k in zip(point, e))
               for e, c in f.terms.items())


@pytest.mark.parametrize("prec", [128, 256])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_lift_residual_matches_fraction_evaluation(seed, prec):
    # first three criterion-09 points: the residual of each numeric lift
    # (s, t, -B/A), a Fixed with u rounded to the unit of (s, t), from the
    # exact integer sums of the residual, agrees with an mpc evaluation of
    # the Fraction forms at that point at 2 prec + 64 bits, and every lift is
    # within the tolerance
    from sixnodal._numeric import Fixed, to_mpc
    from sixnodal.detgeo import (_binary_form_parts, _eliminant_roots, _lift_residual,
                                 _rational_roots_of, direction_chart)
    from sixnodal.poly import _int_terms

    def reference(f, d3, power):
        scale = max(abs(to_mpc(c)) for c in f.terms.values())
        return abs(_form_value(f, d3)) / (scale * max(1, max(abs(x) for x in d3)) ** power)

    inst = make_instance(seed)
    rng = random.Random(seed + 500)
    tol = default_tolerance(prec)
    for _ in range(3):
        y = sample_smooth_point(inst, rng)
        _chart, q_chart, c_chart, elim, (a_form, b_form) = direction_chart(inst.cubic_y, y)
        forms = [_int_terms(q_chart), _int_terms(c_chart)]
        scales = [max(map(abs, terms.values())) for terms, _den in forms]
        lifted = 0
        probed = _rational_roots_of(_binary_form_parts(elim)[2])
        for st, _mult in _eliminant_roots(elim, prec, probed):
            if not isinstance(st, Fixed):
                continue
            with mpmath.workprec(4 * prec):
                s, t = st.to_mpc(4 * prec)
                u = -_form_value(b_form, (s, t)) / _form_value(a_form, (s, t))
                u_pair = tuple(int(mpmath.nint(mpmath.ldexp(x, st.shift)))
                               for x in (u.real, u.imag))
                d3 = Fixed(st.pairs + [u_pair], st.shift)
                num, den = _lift_residual(forms, scales, d3)
                got = mpmath.sqrt(mpmath.mpf(num) / den)
                point = d3.to_mpc(4 * prec)
            with mpmath.workprec(2 * prec + 64):
                ref = max(reference(q_chart, point, 2), reference(c_chart, point, 3))
            assert abs(got - ref) <= mpmath.mpf(2) ** -prec
            assert ref <= tol
            lifted += 1
        assert lifted == 4


def test_direction_candidates_agree_with_lines_through_point(inst1):
    # first two points of criterion 09 for seed 1
    rng = random.Random(501)
    tol = default_tolerance(256)
    for _ in range(2):
        y = sample_smooth_point(inst1, rng)
        cands, elim, mults = direction_candidates(inst1.cubic_y, y, prec=256)
        res = lines_through_point(inst1.cubic_y, y, prec=256)
        assert elim == res.eliminant and mults == res.multiplicities
        assert [exact for _, exact in cands] == [l.exact for l, _ in res.lines]
        assert any(exact for _, exact in cands)
        for (d, exact), (line, _) in zip(cands, res.lines):
            if exact:
                assert all(isinstance(x, Fraction) for x in d)
                assert tuple(d) == tuple(line.p1)
            else:
                scale = max(abs(x) for x in d)
                assert max(abs(a - b) for a, b in zip(d, line.p1)) <= tol * scale


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_exact_line_tags_match_classify_line(seed):
    # first three criterion-09 points: exact lines are tagged by the kernel
    # and cokernel vectors of phi(y); classify_line and special_line are the
    # references
    inst = make_instance(seed)
    rng = random.Random(seed + 500)
    for _ in range(3):
        y = sample_smooth_point(inst, rng)
        phi = inst.phi(y)
        special = {"P": special_line(inst, "fromV", nullspace(phi)[0]),
                   "Pdual": special_line(inst, "fromVdual",
                                         nullspace(transpose(phi))[0])}
        res = lines_through_point(inst.cubic_y, y, prec=256, inst=inst)
        exact_tags = []
        for line, tag in res.lines:
            if not line.exact:
                continue
            assert tag == classify_line(inst, line)
            if tag in special:
                assert line.same_line(special[tag])
            exact_tags.append(tag)
        assert {"P", "Pdual"} <= set(exact_tags)


def _criterion09_points(seed, count=3):
    inst = make_instance(seed)
    rng = random.Random(seed + 500)
    return inst, [sample_smooth_point(inst, rng) for _ in range(count)]


def _reference_chart_forms(f, y, chart):
    """The chart conic and cubic restricted one at a time: the conic from
    q2(d) = d^T H(y) d / 2 with H = hessian_matrix, each form composed with
    the chart's linear forms by MPoly.compose."""
    n = f.nvars
    hess = hessian_matrix(f, y)
    q2 = MPoly(n, {tuple(int(k == i) + int(k == j) for k in range(n)):
                   hess[i][j] if i != j else Fraction(hess[i][i]) / 2
                   for i in range(n) for j in range(i, n)})
    forms = [MPoly.linear_form([b[j] for b in chart]) for j in range(n)]
    return q2.compose(forms), f.compose(forms)


def _fourfold_charts(monkeypatch, seeds):
    """(f, y, direction_chart output) of every chart sample_line draws for
    line seeds 1-3 on the fourfolds of the given instance seeds, recorded
    through the name sample_line calls.  Each line seed draws at least one
    chart, so a recorder that misses sample_line fails here."""
    from sixnodal import fourfold
    real = detgeo.direction_chart
    out = []

    def recording(f, y, chart_seed=0, _cut_through=None):
        res = real(f, y, chart_seed, _cut_through)
        out.append((f, y, res))
        return res

    monkeypatch.setattr(fourfold, "direction_chart", recording)
    for seed in seeds:
        four = fourfold.extend_to_fourfold(make_instance(seed), seed=1)
        before = len(out)
        for line_seed in (1, 2, 3):
            fourfold.sample_line(four, seed=line_seed)
        assert len(out) - before >= 3, seed
    return out


def test_direction_chart_matches_hessian_reference(monkeypatch):
    # the r^1 and r^0 parts of the one restriction of f to span(y, chart) are
    # the conic and the cubic of the chart, restricted one at a time:
    # criterion-09 points of seeds 1-20 in chart seeds 0-2, and the charts of
    # sample_line on the fourfolds of instances 1-8
    cases = []
    for seed in range(1, 21):
        inst, points = _criterion09_points(seed)
        cases += [(inst.cubic_y, y, detgeo.direction_chart(inst.cubic_y, y, chart_seed))
                  for y in points for chart_seed in (0, 1, 2)]
    fourfold_cases = _fourfold_charts(monkeypatch, range(1, 9))
    assert len(fourfold_cases) >= 24
    for f, y, (chart, q_chart, c_chart, _elim, _lift) in cases + fourfold_cases:
        ref_q, ref_c = _reference_chart_forms(f, y, chart)
        assert q_chart == ref_q
        assert c_chart == ref_c


def test_direction_chart_needs_a_homogeneous_cubic():
    x = MPoly.variables(5)
    y = (Fraction(1), Fraction(0), Fraction(0), Fraction(0), Fraction(0))
    quadric = x[1] * x[2] + x[3] * x[4]
    not_homogeneous = x[1] ** 3 + x[2] * x[3] + x[4]
    quartic = x[1] ** 4 + x[0] ** 3 * x[2]
    for f in (quadric, not_homogeneous, quartic):
        with pytest.raises(DetGeoError, match="homogeneous cubic"):
            detgeo.direction_chart(f, y)


def _counting_s_test(monkeypatch):
    """Count the numeric sigma tests lines_through_point runs."""
    calls = []
    real = detgeo._sigma_test

    def counting(backend, inst, phi_y, d):
        if backend is not detgeo._EXACT:
            calls.append(d)
        return real(backend, inst, phi_y, d)

    monkeypatch.setattr(detgeo, "_sigma_test", counting)
    return calls


def _numeric_sigma_test(inst, y, d, prec):
    with mpmath.workprec(prec + 32):
        return detgeo._sigma_test(detgeo._numeric_backend(prec), inst, inst.phi(y), d)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_orbit_tag_matches_each_line_sigma_test(seed):
    # the verdict of the first numeric line goes to its Galois orbit; every
    # conjugate line's own sigma test must agree
    inst, points = _criterion09_points(seed)
    for y in points:
        res = lines_through_point(inst.cubic_y, y, prec=256, inst=inst)
        numeric = [(line, tag) for line, tag in res.lines if not line.exact]
        assert len(numeric) == 4
        for line, tag in numeric:
            carries = _numeric_sigma_test(inst, y, line.p1, 256)
            assert tag == ("Scomponent" if carries else "unclassified")


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_orbit_tag_runs_one_sigma_test_per_point(seed, monkeypatch):
    inst, points = _criterion09_points(seed)
    calls = _counting_s_test(monkeypatch)
    orbit = [lines_through_point(inst.cubic_y, y, prec=256, inst=inst)
             for y in points]
    assert len(calls) == len(points)
    # without a certificate every numeric line is tested, with the same tags
    del calls[:]
    monkeypatch.setattr(detgeo, "irreducibility_prime", lambda g: None)
    per_line = [lines_through_point(inst.cubic_y, y, prec=256, inst=inst)
                for y in points]
    assert len(calls) == sum(not l.exact for r in per_line for l, _ in r.lines)
    assert len(calls) == 4 * len(points)
    for a, b in zip(orbit, per_line):
        assert [(repr(l), t) for l, t in a.lines] == [(repr(l), t) for l, t in b.lines]


def test_orbit_tag_needs_one_lift_per_root(monkeypatch):
    # each root lifts to one line whatever its multiplicity: with every
    # irrational root reported twice as often, there are still four numeric
    # lines, one Galois orbit, and one sigma test for it
    inst, (y,) = _criterion09_points(1, count=1)
    calls = _counting_s_test(monkeypatch)
    real_roots = detgeo._eliminant_roots
    monkeypatch.setattr(detgeo, "_eliminant_roots", lambda *args: [
        (r, m if isinstance(r[0], Fraction) else 2 * m) for r, m in real_roots(*args)])
    res = lines_through_point(inst.cubic_y, y, prec=256, inst=inst)
    assert res.multiplicities == (1, 1, 2, 2, 2, 2)
    assert sum(not l.exact for l, _ in res.lines) == 4
    assert len(calls) == 1
    assert Counter(t for _, t in res.lines) == Counter(P=1, Pdual=1, Scomponent=4)


def _counting_probe(monkeypatch):
    """Count the calls of the modular rational-root probe."""
    from sixnodal import poly
    calls = []
    real = poly._int_rational_roots

    def counting(ints):
        calls.append(ints)
        return real(ints)

    monkeypatch.setattr(poly, "_int_rational_roots", counting)
    return calls


def _line_summary(res):
    return ([(repr(l.p0), repr(l.p1), l.exact, t) for l, t in res.lines],
            res.multiplicities, repr(res.residual_max), res.eliminant)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_rational_roots_from_phi_match_the_probe(seed, monkeypatch):
    # with an instance the P and P-dual roots come from phi(y) under one
    # irreducibility certificate, and the probe never runs; without the
    # certificate the call falls back to poly.roots and its probe, with the
    # same lines, tags and multiplicities
    inst, points = _criterion09_points(seed)
    probes = _counting_probe(monkeypatch)
    certified = [lines_through_point(inst.cubic_y, y, prec=256, inst=inst) for y in points]
    assert probes == []
    assert all(sum(l.exact for l, _ in r.lines) == 2 for r in certified)
    monkeypatch.setattr(detgeo, "irreducibility_prime", lambda g: None)
    probed = [lines_through_point(inst.cubic_y, y, prec=256, inst=inst) for y in points]
    assert len(probes) >= len(points)
    assert [_line_summary(r) for r in probed] == [_line_summary(r) for r in certified]


def test_inexact_supplied_root_falls_back(monkeypatch):
    # the P root moved by 1/997 does not divide the eliminant core: the
    # split is refused and the probe finds the roots, with the same lines
    from sixnodal._qlinalg import solve
    inst, (y,) = _criterion09_points(1, count=1)
    plain = lines_through_point(inst.cubic_y, y, prec=256, inst=inst)
    chart = detgeo.direction_chart(inst.cubic_y, y)[0]
    (d_p,) = [l.p1 for l, t in plain.lines if t == "P"]
    w = solve(transpose(chart), d_p)
    r_p = w[0] / w[1]
    real = detgeo._special_roots

    def moved(*args):
        rational = real(*args)
        assert r_p in rational
        return sorted(r + Fraction(1, 997) if r == r_p else r for r in rational)

    core = detgeo._binary_form_parts(plain.eliminant)[2]
    phi_y = inst.phi(y)
    kv, kw = nullspace(phi_y), nullspace(transpose(phi_y))
    assert detgeo._split_rational(core, real(inst, chart, kv, kw))
    assert not detgeo._split_rational(core, moved(inst, chart, kv, kw))
    monkeypatch.setattr(detgeo, "_special_roots", moved)
    probes = _counting_probe(monkeypatch)
    res = lines_through_point(inst.cubic_y, y, prec=256, inst=inst)
    assert probes
    assert _line_summary(res) == _line_summary(plain)


def _reference_lines(inst, y, prec):
    """The lines through y on the chart of lines_through_point, by another
    lift: a rational root of the eliminant through the gcd of the conic and
    cubic slices, an irrational one through the root of the conic in u,
    by the quadratic formula at 2 prec + 64 bits, at which the cubic is
    smaller.  Exact lines are tagged by classify_line, numeric ones by their
    own sigma test."""
    from sixnodal._numeric import Fixed, to_mpc
    from sixnodal.detgeo import _coeffs_in_var, _eliminant_roots, _slice_lifts
    chart, q_chart, c_chart, elim, _lift = detgeo.direction_chart(inst.cubic_y, y)
    n = len(chart[0])
    out = []
    core = detgeo._binary_form_parts(elim)[2]
    for st, mult in _eliminant_roots(elim, prec, detgeo._rational_roots_of(core)):
        if isinstance(st, Fixed):
            st = st.to_mpc(2 * prec + 64)
        if isinstance(st[0], Fraction):
            (u,) = _slice_lifts((q_chart, c_chart), *st)
            line = ProjLine(y, [sum(c * chart[k][j] for k, c in enumerate(st + (u,)))
                                for j in range(n)])
            out.append((line.p1, mult, classify_line(inst, line)))
            continue
        with mpmath.workprec(2 * prec + 64):
            q0, q1, q2 = (_form_value(g, st) for g in _coeffs_in_var(q_chart, 2))
            disc = mpmath.sqrt(q1 * q1 - 4 * q2 * q0)
            d3 = min((st + ((-q1 + sign * disc) / (2 * q2),) for sign in (1, -1)),
                     key=lambda d3: abs(_form_value(c_chart, d3)))
            d = tuple(sum(to_mpc(chart[k][j]) * d3[k] for k in range(3)) for j in range(n))
        carries = _numeric_sigma_test(inst, y, d, prec)
        out.append((d, mult, "Scomponent" if carries else "unclassified"))
    return out


@pytest.mark.slow
@pytest.mark.parametrize("prec", [64, 128, 256])
def test_subresultant_lift_matches_reference_lift(prec):
    # criterion-09 points of seeds 1-20: exact lines, tags and multiplicities
    # as the reference lift gives them, numeric lines equal to 2^-prec
    tol = mpmath.mpf(2) ** -prec
    for seed in range(1, 21):
        inst, points = _criterion09_points(seed)
        for y in points:
            res = lines_through_point(inst.cubic_y, y, prec=prec, inst=inst)
            ref = _reference_lines(inst, y, prec)
            assert res.multiplicities == tuple(m for _, m, _ in ref)
            assert [t for _, t in res.lines] == [t for _, _, t in ref]
            for (line, _), (d, _, _) in zip(res.lines, ref, strict=True):
                if line.exact:
                    assert line.p1 == d
                    continue
                with mpmath.workprec(2 * prec + 64):
                    assert max(abs(a - b) for a, b in zip(line.p1, d)) <= tol * max(map(abs, d))


@pytest.mark.parametrize("root", ["(0:1)", "(1:0)"])
def test_chart_is_retried_when_a_vanishes_at_a_root(monkeypatch, root):
    # over a root of the eliminant where A vanishes, -B/A lifts nothing:
    # direction_chart draws the next chart, and the lines come out the same.
    # The first chart's A and B are replaced by forms with a common zero at
    # (0:1) or (1:0), and its eliminant is recomputed from them
    from sixnodal.detgeo import _coeffs_in_var
    inst, (y,) = _criterion09_points(1, count=1)
    first = detgeo.direction_chart(inst.cubic_y, y)
    plain = lines_through_point(inst.cubic_y, y, prec=256, inst=inst)
    real = detgeo._subresultant
    s, t = MPoly.variables(2)
    calls = []

    def spoiled(q_chart, c_chart):
        calls.append(q_chart)
        if len(calls) > 1:
            return real(q_chart, c_chart)
        a, b = ((s * (s + 2 * t), s * (s * s - 3 * t * t)) if root == "(0:1)"
                else (t * (2 * s + t), t * (s * s + 5 * t * t)))
        q0, q1, q2 = _coeffs_in_var(q_chart, 2)
        elim = q2 * b * b - q1 * a * b + q0 * a * a
        assert elim.coefficient((0, 6) if root == "(0:1)" else (6, 0)) == 0
        return elim, (a, b)

    monkeypatch.setattr(detgeo, "_subresultant", spoiled)
    second = detgeo.direction_chart(inst.cubic_y, y)
    assert len(calls) == 2
    assert calls[0] == first[1] and second[0] != first[0]
    del calls[:]
    res = lines_through_point(inst.cubic_y, y, prec=256, inst=inst)
    assert len(calls) == 2
    assert Counter(t for _, t in res.lines) == Counter(t for _, t in plain.lines)
    exact = [l for l, _ in res.lines if l.exact]
    assert len(exact) == 2
    assert all(any(l.same_line(m) for m, _ in plain.lines if m.exact) for l in exact)
    with mpmath.workprec(256):
        for l, _ in res.lines:
            if not l.exact:
                pl = l.plucker_normalized()
                assert min(max(abs(a - b) for a, b in zip(pl, m.plucker_normalized()))
                           for m, _ in plain.lines if not m.exact) <= default_tolerance(256)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_sigma_test_backends_agree_with_classify_line(seed):
    # on exact lines of all three families, from either end, the exact sigma
    # test and the numeric one on mpc copies of the second point say True
    # exactly for the Scomponent lines
    from sixnodal._numeric import to_mpc
    inst = make_instance(seed)
    rng = random.Random(seed)

    def node_free():
        # a fromV or fromVdual line misses the nodes when v pairs to nonzero
        # with each node's v and w
        while True:
            v = tuple(rng.randrange(-9, 10) for _ in range(3))
            if all(sum(map(mul, n.v, v)) and sum(map(mul, n.w, v)) for n in inst.nodes):
                return v

    sigma = inst.lam.element(sample_surface_point(inst, rng))
    tags, cases = [], []
    for kind, param in (("fromV", node_free()), ("fromVdual", node_free()),
                        ("fromS", sigma)):
        line = special_line(inst, kind, param)
        tags.append(classify_line(inst, line))
        cases += [(y, d, tags[-1] == "Scomponent")
                  for y, d in ((line.p0, line.p1), (line.p1, line.p0))]
    assert tags == ["P", "Pdual", "Scomponent"]
    # off the fromS line (the last line) through y: the image of phi(d) meets
    # that of phi(y) in ker sigma, so sigma solves the linear conditions and
    # only sigma phi(d) sigma = 0 fails
    y = line.p0
    coker_y = nullspace(transpose(inst.phi(y)))[0]
    w = next(w for w in nullspace([list(nullspace(sigma)[0])])
             if not projectively_equal(w, coker_y))
    cases.append((y, special_line(inst, "fromVdual", w).p0, False))
    for y, d, expected in cases:
        assert detgeo._sigma_test(detgeo._EXACT, inst, inst.phi(y), d) == expected
        for prec in (64, 256):
            d_num = tuple(to_mpc(x, prec) for x in d)
            assert _numeric_sigma_test(inst, y, d_num, prec) == expected


def _criterion07_lines(seed):
    """The exact lines of criterion 07 for the seed, drawn as its test draws
    them: fromV and fromVdual lines of node-free directions, then the fromS
    line of a surface point, with the family each must carry."""
    inst = make_instance(seed)
    rng = random.Random(seed)

    def node_free():
        while True:
            v = tuple(Fraction(rng.randrange(-9, 10)) for _ in range(3))
            if any(v) and all(sum(map(mul, n.w, v)) and sum(map(mul, n.v, v))
                              for n in inst.nodes):
                return v

    params = (("fromV", node_free()), ("fromVdual", node_free()),
              ("fromS", sample_surface_point(inst, rng)))
    return inst, [(special_line(inst, kind, param), kind) for kind, param in params]


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_fixed_point_sigma_test_gives_the_exact_verdict(seed):
    # on the criterion-07 lines the numeric backend, on an mpc copy of the
    # second point at 64-512 bits, gives the exact backend's verdict; moved
    # off the S line by 2^-(prec/4) relative, the direction fails the test
    from sixnodal._numeric import to_mpc
    inst, lines = _criterion07_lines(seed)
    for line, kind in lines:
        y, d = line.p0, line.p1
        expected = detgeo._sigma_test(detgeo._EXACT, inst, inst.phi(y), d)
        assert expected == (kind == "fromS")
        scale = max(map(abs, d))
        off = next(w for w in itertools.product(range(-2, 3), repeat=5)
                   if rank([y, d, w]) == 3)
        for prec in (64, 128, 256, 512):
            assert _numeric_sigma_test(inst, y, tuple(to_mpc(x, prec) for x in d), prec) \
                == expected
            if kind == "fromS":
                eps = Fraction(1, 2 ** (prec // 4)) * scale
                moved = tuple(to_mpc(x + eps * e, prec) for x, e in zip(d, off))
                assert not _numeric_sigma_test(inst, y, moved, prec)


@pytest.mark.parametrize("prec", [64, 256])
def test_numeric_lift_and_sigma_test_make_no_mpc_arithmetic(prec, monkeypatch):
    # the numeric lifts of _lift_roots and the numeric sigma test run on
    # Gaussian integers: with every mpc operator disabled they give the
    # directions and tags they give otherwise; an mpc is only built, for the
    # returned direction
    inst, (y,) = _criterion09_points(1, count=1)
    chart_data = detgeo.direction_chart(inst.cubic_y, y)
    core = detgeo._binary_form_parts(chart_data[3])[2]
    roots = list(detgeo._eliminant_roots(chart_data[3], prec, detgeo._rational_roots_of(core)))
    numeric = [r for r in roots if not isinstance(r[0][0], Fraction)]
    assert len(numeric) == 4
    want = list(detgeo._lift_roots(chart_data, numeric, prec))
    want_tags = [_numeric_sigma_test(inst, y, d, prec) for d, _, _ in want]
    assert want_tags == [True] * 4

    def no_arithmetic(*args):
        raise AssertionError("mpc arithmetic on the fixed-point path")

    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                 "__truediv__", "__rtruediv__", "__pow__", "__abs__", "__neg__"):
        monkeypatch.setattr(mpmath.mpc, name, no_arithmetic)
    got = list(detgeo._lift_roots(chart_data, numeric, prec))
    assert [(repr(d), resid) for d, _, resid in got] == [(repr(d), resid) for d, _, resid in want]
    backend = detgeo._numeric_backend(prec)
    assert [detgeo._sigma_test(backend, inst, inst.phi(y), d) for d, _, _ in got] == want_tags


@pytest.mark.parametrize("prec", [64, 128, 256, 512])
def test_numeric_lift_matches_a_double_precision_reference(prec):
    # each numeric lift of the criterion-09 points of seeds 1-3, against
    # (s, t, -B/A) on the chart in mpc at 2 prec bits from the same root:
    # within 2^-prec relative, and its residual within the tolerance
    from sixnodal._numeric import Fixed, to_mpc
    for seed in (1, 2, 3):
        inst, points = _criterion09_points(seed)
        for y in points:
            chart_data = detgeo.direction_chart(inst.cubic_y, y)
            chart, _q, _c, elim, (a_form, b_form) = chart_data
            core = detgeo._binary_form_parts(elim)[2]
            roots = [r for r in detgeo._eliminant_roots(elim, prec,
                                                        detgeo._rational_roots_of(core))
                     if isinstance(r[0], Fixed)]
            lifts = list(detgeo._lift_roots(chart_data, roots, prec))
            assert len(lifts) == len(roots) == 4
            for (st, _mult), (d, exact, resid) in zip(roots, lifts):
                assert not exact and resid <= default_tolerance(prec)
                with mpmath.workprec(2 * prec):
                    s, t = st.to_mpc(2 * prec)
                    u = -_form_value(b_form, (s, t)) / _form_value(a_form, (s, t))
                    ref = [sum(to_mpc(chart[k][j]) * x for k, x in enumerate((s, t, u)))
                           for j in range(len(chart[0]))]
                    err = max(abs(a - b) for a, b in zip(d, ref))
                    assert err <= mpmath.mpf(2) ** -prec * max(map(abs, ref))


@pytest.mark.parametrize("prec", [64, 128, 256, 512])
@pytest.mark.parametrize("factor", [Fraction(1, 2), Fraction(2)])
def test_numeric_sigma_product_negligible_at_the_threshold(prec, factor):
    # a product counts as zero up to _SIGMA_SLACK 2^-(prec//2) times the
    # largest entry moduli max|sigma|^2 max|phi|, whatever the scales and
    # whether the rows are Fixed or exact
    from sixnodal._numeric import to_fixed, to_mpc
    negligible = detgeo._numeric_backend(prec).negligible
    sigma = [to_fixed(row, prec + 32) for row in ([3, 0, 1], [0, -1, 0], [1, 0, Fraction(1, 3)])]
    phi = [[Fraction(5, 2), 0, 0], [0, 1, 0], [0, 0, Fraction(-1, 7)]]
    bound = detgeo._SIGMA_SLACK * Fraction(1, 2 ** (prec // 2)) * 9 * Fraction(5, 2)
    for entry in (factor * bound, mpmath.mpc(0, to_mpc(factor * bound).real)):
        m = [[0, 0, 0], [0, entry, 0], [0, 0, 0]]
        assert negligible(m, sigma, phi) == (factor < 1)
        assert negligible([to_fixed(row, prec + 32) for row in m], sigma, phi) == (factor < 1)


@pytest.mark.parametrize("prec", [64, 128, 256, 512])
def test_lift_refuses_a_root_moved_off_the_eliminant(prec):
    # a root of the eliminant moved by 2^-(prec/4) relative lifts to a
    # direction whose residual on the chart conic and cubic is far above
    # default_tolerance(prec): DetGeoError, compared on squares
    from sixnodal._numeric import Fixed
    inst, (y,) = _criterion09_points(1, count=1)
    chart_data = detgeo.direction_chart(inst.cubic_y, y)
    core = detgeo._binary_form_parts(chart_data[3])[2]
    roots = [r for r in detgeo._eliminant_roots(chart_data[3], prec,
                                                detgeo._rational_roots_of(core))
             if isinstance(r[0], Fixed)]
    assert len(list(detgeo._lift_roots(chart_data, roots, prec))) == 4
    for st, mult in roots:
        (sr, si), t = st.pairs
        size = max(abs(sr), abs(si), t[0])
        moved = Fixed([(sr + (size >> (prec // 4)), si), t], st.shift)
        with pytest.raises(DetGeoError, match="lift residual"):
            list(detgeo._lift_roots(chart_data, [(moved, mult)], prec))


def test_lines_through_point_contains_planted(inst1):
    rng = random.Random(43)
    y = sample_smooth_point(inst1, rng)
    phi = inst1.phi(y)
    planted = special_line(inst1, "fromV", nullspace(phi)[0])
    res = lines_through_point(inst1.cubic_y, y, prec=256, inst=inst1)
    exact_lines = [l for l, _ in res.lines if l.exact]
    assert any(l.same_line(planted) for l in exact_lines)


def test_lines_generic_cubic_bezout():
    # a random cubic threefold through (1,0,0,0,0): six direction solutions
    # counted with multiplicity (Bezout 1*2*3)
    rng = random.Random(47)
    from itertools import combinations_with_replacement
    f = MPoly.zero(5)
    for combo in combinations_with_replacement(range(5), 3):
        if combo == (0, 0, 0):
            continue            # forces f(1,0,0,0,0) = 0
        e = [0] * 5
        for i in combo:
            e[i] += 1
        f = f + MPoly(5, {tuple(e): Fraction(rng.randrange(-5, 6))})
    y = (Fraction(1), Fraction(0), Fraction(0), Fraction(0), Fraction(0))
    assert f.evaluate(y) == 0
    cands, elim, mults = direction_candidates(f, y, prec=256)
    assert elim.degree() == 6
    assert sum(mults) == 6
    assert len(cands) >= 4      # simple roots all lift


def test_sample_smooth_point_is_smooth(inst1):
    rng = random.Random(53)
    y = sample_smooth_point(inst1, rng)
    assert inst1.cubic_y.evaluate(y) == 0
    assert any(g.evaluate(y) != 0 for g in gradient(inst1.cubic_y))
    assert rank(inst1.phi(y)) == 2


# ---------------------------------------------------------------------------
# the batch criterion


@pytest.mark.slow
@pytest.mark.parametrize("seed", list(range(2, 11)))
def test_instance_pipeline_seeds(seed):
    inst = make_instance(seed)
    assert linear_general_position([n.coords for n in inst.nodes])
    for n in inst.nodes:
        assert rank(n.matrix) == 1
        assert is_odp(inst.cubic_y, n.coords)
    assert macaulay_resultant(gradient(inst.cubic_s)) != 0
    rng = random.Random(seed * 11)
    for kind, param in (("fromV", (2, 1, -3)), ("fromVdual", (1, 4, -2)),
                        ("fromS", sample_surface_point(inst, rng))):
        line = special_line(inst, kind, param)
        expected = {"fromV": "P", "fromVdual": "Pdual",
                    "fromS": "Scomponent"}[kind]
        tag = classify_line(inst, line)
        assert tag in (expected, "singular-locus")
