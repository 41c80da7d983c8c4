import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sixnodal.detgeo import sample_surface_point
from sixnodal.segre3 import (STANDARD_POINTS, SegreError, SixTupleOnLine,
                             double_at_points, jmap_agree, jmap_tuples,
                             segre_forms, semistable_6tuple, tuple_equiv)
from sixnodal.poly import MPoly


def test_exactly_one_variant_satisfies_the_relation():
    _forms_c, holds_cyclic = segre_forms("cyclic")
    _forms_p, holds_printed = segre_forms("printed")
    assert holds_cyclic != holds_printed
    assert holds_cyclic          # the index-cycled variant is the consistent one


def test_forms_are_homogeneous_cubics():
    for variant in ("cyclic", "printed"):
        forms, _ = segre_forms(variant)
        assert len(forms) == 5
        for f in forms:
            assert f.is_homogeneous() and f.degree() == 3


def test_valid_variant_double_at_all_points():
    forms, _ = segre_forms("cyclic")
    for f in forms:
        assert double_at_points(f, STANDARD_POINTS)


def test_printed_variant_fails_doubling():
    forms, _ = segre_forms("printed")
    assert not all(double_at_points(f, STANDARD_POINTS) for f in forms)


def test_double_at_points_examples():
    forms, _ = segre_forms("cyclic")
    y0 = forms[0]
    assert double_at_points(y0, [STANDARD_POINTS[5]])   # (1,1,1,1,1)
    assert double_at_points(y0, [STANDARD_POINTS[0]])
    cube = MPoly.var(5, 0) ** 3
    assert not double_at_points(cube, [STANDARD_POINTS[0]])


def test_git_classification():
    distinct = SixTupleOnLine(((0, 1), (1, 1), (2, 1), (3, 1), (4, 1), (1, 0)))
    assert semistable_6tuple(distinct) == "stable"
    triple = SixTupleOnLine(((0, 1), (0, 2), (0, 5), (3, 1), (4, 1), (1, 0)))
    assert semistable_6tuple(triple) == "strictly_semistable"
    quad = SixTupleOnLine(((0, 1), (0, 1), (0, 1), (0, 1), (4, 1), (1, 0)))
    assert semistable_6tuple(quad) == "unstable"


def test_tuple_validation():
    with pytest.raises(SegreError):
        SixTupleOnLine(((0, 0), (1, 1), (2, 1), (3, 1), (4, 1), (1, 0)))
    with pytest.raises(SegreError):
        SixTupleOnLine(((1, 1), (2, 1)))


from hypothesis import assume

moebius_entries = st.integers(min_value=-6, max_value=6)

stable_tuples = st.lists(st.integers(min_value=-12, max_value=12),
                         unique=True, min_size=6, max_size=6).map(
    lambda xs: SixTupleOnLine(tuple((Fraction(a), Fraction(1)) for a in xs)))


@st.composite
def moebius_maps(draw):
    m = [[draw(moebius_entries) for _ in range(2)] for _ in range(2)]
    assume(m[0][0] * m[1][1] - m[0][1] * m[1][0] != 0)
    return m


@given(stable_tuples, moebius_maps())
@settings(max_examples=40, deadline=None)
def test_equiv_under_moebius(t, m):
    moved = SixTupleOnLine(tuple(
        (m[0][0] * a + m[0][1] * b, m[1][0] * a + m[1][1] * b)
        for a, b in t.points))
    assert tuple_equiv(t, moved)
    assert tuple_equiv(moved, t)


@given(stable_tuples, moebius_maps(), moebius_maps())
@settings(max_examples=25, deadline=None)
def test_equiv_is_an_equivalence(t, m1, m2):
    def push(tt, m):
        return SixTupleOnLine(tuple(
            (m[0][0] * a + m[0][1] * b, m[1][0] * a + m[1][1] * b)
            for a, b in tt.points))
    t1, t2 = push(t, m1), push(t, m2)
    assert tuple_equiv(t, t)
    assert tuple_equiv(t1, t2) and tuple_equiv(t2, t1)
    assert tuple_equiv(t, t1) and tuple_equiv(t1, t2) and tuple_equiv(t, t2)


def test_transposition_breaks_equivalence():
    t = SixTupleOnLine(((0, 1), (1, 1), (2, 1), (3, 1), (5, 1), (1, 0)))
    swapped = list(t.points)
    swapped[0], swapped[1] = swapped[1], swapped[0]
    assert not tuple_equiv(t, SixTupleOnLine(tuple(swapped)))


def test_unstable_rejected():
    quad = SixTupleOnLine(((0, 1), (0, 1), (0, 1), (0, 1), (4, 1), (1, 0)))
    with pytest.raises(SegreError):
        tuple_equiv(quad, quad)


def test_jmap_agreement_on_samples(inst1):
    rng = random.Random(31)
    for _ in range(5):
        s = sample_surface_point(inst1, rng)
        assert jmap_agree(inst1, s)


def test_jmap_excluded_center(inst1):
    # sigma whose kernel hits a marked point violates the predicate
    import sixnodal.detgeo as detgeo
    v1 = inst1.nodes[0].v
    rows = [[detgeo.mat_vec(b, detgeo.vec(v1))[k]
             for b in inst1.lam.basis] for k in range(3)]
    kern = detgeo.nullspace(rows)
    sigma_coords = kern[0]
    with pytest.raises(SegreError):
        jmap_tuples(inst1, sigma_coords)


def test_jmap_mismatched_tuples_detected(inst1):
    rng = random.Random(8)
    s1 = sample_surface_point(inst1, rng)
    s2 = sample_surface_point(inst1, rng)
    t1, _ = jmap_tuples(inst1, s1)
    t2, _ = jmap_tuples(inst1, s2)
    assert not tuple_equiv(t1, t2)
