import json
import random
from fractions import Fraction
from math import gcd, isqrt

import pytest
from hypothesis import given, settings, strategies as st

from sixnodal.lattice import (IDENTITY, J12, K12, Isometry,
                              LatticeClass, LatticeError, QuadExtScalar, R1,
                              R2, R3, chamber_locate, chamber_ray,
                              divisibility, eval_form, g_class,
                              is_isometry, isotropic_generators, nef_test,
                              orbit_classes, positive_cone_membership,
                              represents, special_discriminant, square,
                              tau_class, transfer_K_to_J, wall_class,
                              word_isometry)

G = g_class()
TAU = tau_class()
RHO1 = LatticeClass(3, -2)
RHO1D = LatticeClass(-1, 2)
ALPHA1 = LatticeClass(7, -3)
ALPHA1D = LatticeClass(1, 3)


def test_eval_form_table_values():
    assert eval_form(G, G) == 6
    assert eval_form(G, TAU) == 6
    assert eval_form(TAU, TAU) == 2
    assert eval_form(RHO1, G) == 6
    assert eval_form(ALPHA1, RHO1) == 0
    assert square(RHO1) == -10


def test_from_json_refuses_another_gram_matrix():
    with pytest.raises(LatticeError):
        LatticeClass.from_json({"x": 1, "y": 0, "gram": [[2, 0], [0, -2]]})


def test_divisibility():
    assert divisibility(RHO1) == 2         # pairings 6 and 14
    assert eval_form(RHO1, TAU) == 14
    assert divisibility(G) == 6
    assert divisibility(LatticeClass(0, 0)) == 0


def test_represents_minus10_witness():
    res = represents(-10)
    assert res.is_witness()
    assert square(res.witness) == -10
    assert divisibility(res.witness) == 2
    assert square(RHO1) == -10              # the tabulated witness also works


def test_represents_minus2_certificate():
    res = represents(-2)
    assert res.status == "none"
    assert "mod 3" in res.certificate
    # brute-force oracle over |x|, |y| <= 1000: Q = -2 needs (y+3x)^2 = 6x^2 - 1
    from math import isqrt
    for x in range(-1000, 1001):
        target = 6 * x * x - 1
        if target < 0:
            continue
        r = isqrt(target)
        for u in (r, -r):
            if u * u == target and abs(u - 3 * x) <= 1000:
                assert square(LatticeClass(x, u - 3 * x)) != -2


def test_represents_zero_certificate():
    res = represents(0)
    assert res.status == "none"
    assert "discriminant 24" in res.certificate


def test_represents_6_and_parity():
    res = represents(6)
    assert res.is_witness() and res.witness.coords() == (Fraction(1), Fraction(0))
    odd = represents(7)
    assert odd.status == "none" and "odd" in odd.certificate


def test_represents_12_and_36_certified_none():
    # 36 = 2*18 passes every certificate (18 = 0 mod 3, 2 mod 8, no prime
    # factor above 3), yet no witness exists: u^2 - 6x^2 = 18 forces 3 | u,
    # then 3 | x, and leaves a^2 - 6b^2 = 2, insoluble mod 3.  The search
    # up to Nagell's bound certifies none, naming m and the bound
    for n, m, bound in ((12, 6, 1), (36, 18, 2)):
        res = represents(n)
        assert res.status == "none" and res.witness is None
        assert f"u^2 - 6x^2 = {m} is insoluble" in res.certificate
        assert f"no x <= {bound} " in res.certificate
        assert "Nagell" in res.certificate


def test_represents_at_the_nagell_bound():
    # m = -968: the bound is sqrt(968/2) = 22 and the least solution,
    # (u, x) = (44, 22), sits on it, so a bound of 21 or 11 would answer none
    res = represents(-1936)
    assert res.is_witness() and res.witness.coords() == (-22, 22)
    assert square(res.witness) == -1936


def test_represents_66_by_the_inert_prime_11():
    # 66 = 2*33 passes both congruence filters (33 = 0 mod 3, 1 mod 8), but
    # 11 is inert in Z[sqrt 6] and divides 33 once: answered with no search
    res = represents(66)
    assert res.status == "none"
    assert "11" in res.certificate and "inert" in res.certificate


def test_inert_prime_certificate_against_brute_force():
    # every even n, |n| <= 2000, that the inert-prime certificate rules out
    # has no vector of square n with max(|x|, |y|) <= 60
    values = {6 * x * x + 12 * x * y + 2 * y * y
              for x in range(-60, 61) for y in range(-60, 61)}
    fired = [n for n in range(-2000, 2001, 2)
             if "inert" in (represents(n).certificate or "")]
    assert 66 in fired and len(fired) > 300
    assert not values.intersection(fired)


def _shell(r):
    """The vectors with max(|x|, |y|) = r: the columns x = -r and x = r by
    y, then the rows y = -r and y = r by x."""
    if r == 0:
        yield (0, 0)
        return
    for x in (-r, r):
        for y in range(-r, r + 1):
            yield (x, y)
    for y in (-r, r):
        for x in range(-r + 1, r):
            yield (x, y)


def test_brute_force_represents_oracle():
    # exhaustive small search agrees with the certificates
    values = set()
    for x in range(-40, 41):
        for y in range(-40, 41):
            values.add(int(square(LatticeClass(x, y))))
    assert -2 not in values
    assert 0 in values              # only the zero class
    assert -10 in values
    assert all(v % 2 == 0 for v in values)

    # the verdict for every even n, 0 < |n| <= 2000, against u^2 - 6x^2 = n/2
    # searched directly over 0 <= x < 3000, with u near sqrt(6x^2) by isqrt
    soluble = set()
    for x in range(3000):
        for u in range(isqrt(max(6 * x * x - 1000, 0)), isqrt(6 * x * x + 1000) + 1):
            if abs(u * u - 6 * x * x) <= 1000 and (x, u) != (0, 0):
                soluble.add(u * u - 6 * x * x)
    # the witness against the first vector of its square in shell order,
    # turned to pair nonnegatively with g
    first = {}
    for r in range(200):
        for x, y in _shell(r):
            first.setdefault(6 * x * x + 12 * x * y + 2 * y * y,
                             (x, y) if x + y >= 0 else (-x, -y))
    for n in range(-2000, 2001, 2):
        if n == 0:
            continue
        res = represents(n)
        assert res.is_witness() == (n // 2 in soluble), n
        if res.is_witness():
            assert res.witness.coords() == first[n], n
        else:
            assert res.status == "none" and res.certificate, n


def _full_pass_witness(n):
    """The witness of represents(n) by the search it replaced, or None: the
    first x >= 0 with m + 6x^2 a square, m = n/2, up to Nagell's bound, sets
    the radius r of a second pass over every |x| <= r, which takes the first
    vector of square n in shell order (columns x = -r, x = r by y, then rows
    y = -r, y = r by x), turned to pair nonnegatively with g."""
    m = n // 2
    bound = isqrt(m // 3 if m > 0 else -m // 2)

    def points(xs):
        for x in xs:
            t = m + 6 * x * x
            u = isqrt(max(t, 0))
            if u * u == t:
                yield x, u - 3 * x
                yield x, -u - 3 * x

    def key(v):
        x, y = v
        r = max(abs(x), abs(y))
        if x == -r:
            return (r, 0, y)
        if x == r:
            return (r, 1, y)
        return (r, 2 if y == -r else 3, x)

    first = next(points(range(bound + 1)), None)
    if first is None:
        return None
    r = max(map(abs, first))
    x, y = min(points(range(-r, r + 1)), key=key)
    return (x, y) if x + y >= 0 else (-x, -y)


def test_represents_witness_matches_the_full_pass():
    # the outward pass that stops once |x| passes the radius of the best
    # vector so far returns the witness of the full pass over |x| <= r, for
    # every even n with 0 < |n| <= 2000 (sign flip towards g included: g
    # pairs with (x, y) to 6(x + y) here)
    for n in range(-2000, 2001, 2):
        if n == 0 or n // 2 % 3 == 2 or n // 2 % 8 in (5, 7):
            continue
        want = _full_pass_witness(n)
        res = represents(n)
        assert (res.witness.coords() if res.is_witness() else None) == want, n


def test_represents_2e12_stops_at_the_witness_radius():
    # the smallest-x solution (0, 10^6) has radius 10^6; the witness has
    # radius 391744, where the outward pass stops
    res = represents(2 * 10 ** 12)
    assert res.witness.coords() == (268288, 391744)
    assert _full_pass_witness(2 * 10 ** 12) == (268288, 391744)


def test_named_isometries():
    assert is_isometry(((1, 2), (0, -1)))
    assert is_isometry(((1, 0), (0, 1)))
    assert not is_isometry(((2, 0), (0, 1)))
    assert R1.apply(TAU).coords() == (2, -1)
    assert R1.apply(G).coords() == (1, 0)
    assert R2.apply(G).coords() == (-1, 6)
    assert R3.apply(ALPHA1).coords() == (17, -9)
    assert word_isometry("R1R2").apply(RHO1).coords() == (29, -16)


def test_isometry_validation():
    with pytest.raises(LatticeError):
        Isometry(((2, 0), (0, 1)))


def test_reflections_are_involutions_and_r1r2_infinite():
    for r in (R1, R2, R3):
        assert (r @ r).matrix == IDENTITY.matrix
    w = word_isometry("R1R2")
    power = IDENTITY
    for _ in range(50):
        power = power @ w
        assert power.matrix != IDENTITY.matrix
    trace = w.matrix[0][0] + w.matrix[1][1]
    assert trace == 10 and trace > 2


def test_r3_is_a_word_in_r1_r2():
    assert word_isometry("R1R2R1").matrix == R3.matrix


def test_tabulated_generation_identities():
    # the class list is generated exactly as displayed: alpha1v = R1(alpha1),
    # alpha2v = R2R1(alpha1), alpha2 = R1R2(alpha1v)
    a1 = LatticeClass(7, -3)
    assert R1.apply(a1).coords() == (1, 3)                      # alpha1v
    assert word_isometry("R2R1").apply(a1).coords() == (-1, 9)  # alpha2v
    assert word_isometry("R1R2").apply(ALPHA1D).coords() == (17, -9)
    assert orbit_classes("alpha_dual", 2)[1].coords() == (-1, 9)


@given(st.text(alphabet=("1", "2", "3"), min_size=1, max_size=6))
@settings(max_examples=40, deadline=None)
def test_words_are_isometries(digits):
    word = "".join("R" + d for d in digits)
    assert is_isometry(word_isometry(word).matrix)


def test_orbit_tables():
    rhos = orbit_classes("rho", 3)
    assert [v.coords() for v in rhos] == [(3, -2), (7, -4), (29, -16)]
    assert [int(eval_form(v, G)) for v in rhos] == [6, 18, 78]
    alphas = orbit_classes("alpha", 2)
    assert [v.coords() for v in alphas] == [(7, -3), (17, -9)]
    assert [int(eval_form(v, G)) for v in alphas] == [24, 48]
    duals = orbit_classes("rho_dual", 3)
    assert [v.coords() for v in duals] == [(-1, 2), (-1, 4), (-3, 16)]


def test_orbit_rho5():
    # matrix-power oracle: apply [[11,2],[-6,-1]] to rho3
    rhos = orbit_classes("rho", 5)
    m = ((11, 2), (-6, -1))
    r3 = rhos[2]
    expect = (m[0][0] * r3.x + m[0][1] * r3.y, m[1][0] * r3.x + m[1][1] * r3.y)
    assert rhos[4].coords() == expect == (287, -158)
    assert eval_form(rhos[4], G) == 774


def test_orbit_validation():
    with pytest.raises(LatticeError):
        orbit_classes("rho", 0)
    with pytest.raises(LatticeError):
        orbit_classes("sigma", 1)


def test_rho_orbit_invariants_to_50():
    rhos = orbit_classes("rho", 50)
    duals = orbit_classes("rho_dual", 50)
    alphas = orbit_classes("alpha", 50)
    alpha_duals = orbit_classes("alpha_dual", 50)
    for i in range(50):
        assert square(rhos[i]) == -10
        assert divisibility(rhos[i]) == 2
        assert square(duals[i]) == -10
        assert divisibility(duals[i]) == 2
        assert R1.apply(rhos[i]).coords() == duals[i].coords()
        assert eval_form(alphas[i], rhos[i]) == 0
        assert eval_form(alpha_duals[i], duals[i]) == 0


def test_cone_membership():
    assert positive_cone_membership(G) == "interior_P"
    assert positive_cone_membership(-G) == "interior_negP"
    assert positive_cone_membership(RHO1) == "outside"
    b1, b2 = isotropic_generators()
    assert positive_cone_membership(b1) == "boundary_P"
    assert positive_cone_membership(b2) == "boundary_P"
    assert square(b1).is_zero() and square(b2).is_zero()
    assert positive_cone_membership(-b1) == "boundary_negP"
    with pytest.raises(LatticeError):
        positive_cone_membership(LatticeClass(0, 0))


def test_quadext_arithmetic():
    r6 = QuadExtScalar.sqrt_d()
    assert (r6 * r6).a == 6 and (r6 * r6).b == 0
    x = QuadExtScalar(Fraction(3), Fraction(-1))
    assert x.sign() > 0            # 3 - sqrt6 > 0
    y = QuadExtScalar(Fraction(2), Fraction(-1))
    assert y.sign() < 0            # 2 - sqrt6 < 0
    assert (x - x).is_zero()


def test_chamber_examples():
    loc = chamber_locate(G)
    assert loc.indices == (0,) and loc.coords == (Fraction(1, 8), Fraction(1, 8))
    loc = chamber_locate(LatticeClass(12, -5))
    assert loc.indices == (0,)
    assert loc.coords == (Fraction(1, 24), Fraction(41, 24))
    loc = chamber_locate(TAU)
    assert loc.indices == (-1,)
    assert loc.coords == (Fraction(1, 12), Fraction(1, 12))


def test_chamber_wall_reporting():
    loc = chamber_locate(ALPHA1)
    assert set(loc.indices) == {0, 1}
    loc = chamber_locate(ALPHA1D)
    assert set(loc.indices) == {-1, 0}


def test_chamber_preconditions():
    with pytest.raises(LatticeError):
        chamber_locate(RHO1)                    # outside the cone
    with pytest.raises(LatticeError):
        chamber_locate(LatticeClass(2, 0))      # imprimitive


def _random_interior(rng):
    while True:
        x, y = rng.randrange(-60, 61), rng.randrange(-60, 61)
        if gcd(abs(x), abs(y)) != 1:
            continue
        v = LatticeClass(x, y)
        if positive_cone_membership(v) == "interior_P":
            return v


def test_chamber_shift_by_flop_square():
    rng = random.Random(0)
    w = word_isometry("R1R2")
    for _ in range(60):
        v = _random_interior(rng)
        l1 = chamber_locate(v)
        l2 = chamber_locate(w.apply(v))
        if len(l1.indices) == 1:
            assert l2.k == l1.k + 2


def test_chamber_word_lands_in_fundamental_pair():
    rng = random.Random(7)
    for _ in range(60):
        v = _random_interior(rng)
        loc = chamber_locate(v)
        moved = v
        for name in loc.word:
            moved = word_isometry(name).apply(moved)
        final = chamber_locate(moved)
        assert final.indices[0] in (0, -1) or final.indices[-1] in (0, -1)
        # parity of the chamber index is a reflection invariant
        if len(loc.indices) == 1:
            assert (final.k - loc.k) % 2 == 0


def test_adjacent_chambers_share_exactly_one_ray():
    for k in range(-4, 4):
        r_shared = chamber_ray(k + 1)
        assert chamber_locate(r_shared).indices == (k, k + 1) if \
            positive_cone_membership(r_shared) == "interior_P" else True
        lo = {chamber_ray(k).coords(), chamber_ray(k + 1).coords()}
        hi = {chamber_ray(k + 1).coords(), chamber_ray(k + 2).coords()}
        assert len(lo & hi) == 1


def test_chambers_cover_interior_directions():
    rng = random.Random(3)
    for _ in range(80):
        v = _random_interior(rng)
        loc = chamber_locate(v)
        a, b = loc.coords
        assert a >= 0 and b >= 0
        k = loc.indices[0] if len(loc.indices) == 1 else loc.indices[1]
        assert v.coords() == tuple(
            a * r + b * s for r, s in zip(chamber_ray(k).coords(),
                                          chamber_ray(k + 1).coords())) or True
        # reconstruct v from the chamber chart exactly
        rk, rk1 = chamber_ray(k), chamber_ray(k + 1)
        assert (a * rk.x + b * rk1.x, a * rk.y + b * rk1.y) == v.coords()


def test_nef_chamber0():
    assert nef_test(ALPHA1, 0)
    assert nef_test(ALPHA1D, 0)
    assert nef_test(G, 0)
    assert eval_form(G, RHO1) == 6 and eval_form(G, RHO1D) == 6
    alpha2 = orbit_classes("alpha", 2)[1]
    assert not nef_test(alpha2, 0)
    assert eval_form(alpha2, RHO1) == -24


def test_nef_matches_chamber_membership():
    rng = random.Random(11)
    for _ in range(40):
        v = _random_interior(rng)
        loc = chamber_locate(v)
        for k in range(-3, 4):
            inside = k in loc.indices
            assert nef_test(v, k) == inside or (len(loc.indices) == 1
                                                and nef_test(v, k) == (k == loc.k))


def test_wall_classes_are_orthogonal_to_rays():
    for j in range(-5, 6):
        assert eval_form(chamber_ray(j), wall_class(j)) == 0
        assert square(wall_class(j)) == -10


def test_transfer_k12():
    res = transfer_K_to_J(K12)
    assert res.gram.entries == ((6, 6), (6, 2))
    assert res.gram.determinant() == -24
    assert not res.tau_isotropic


def test_transfer_closed_form_example():
    res = transfer_K_to_J(((3, 4), (4, 10)))
    assert res.gram.entries == ((6, 8), (8, 6))
    assert res.gram.determinant() == -28 == -2 * 14


def test_transfer_degenerate_flag():
    res = transfer_K_to_J(((3, 2), (2, 4)))
    assert res.tau_isotropic
    assert res.gram.entries[1][1] == 0


def test_transfer_requires_h2_cube():
    with pytest.raises(LatticeError):
        transfer_K_to_J(((4, 3), (3, 7)))


def test_transfer_determinant_identity_random():
    rng = random.Random(17)
    done = 0
    while done < 100:
        a, t = rng.randrange(-20, 21), rng.randrange(-20, 21)
        if 3 * t - a * a == 0:
            continue
        res = transfer_K_to_J(((3, a), (a, t)))
        assert res.gram.determinant() == -2 * (3 * t - a * a)
        # symbolic-splitting oracle: entries must be [[6, 2a], [2a, a^2 - t]]
        assert res.gram.entries == ((6, 2 * a), (2 * a, a * a - t))
        done += 1


def test_special_discriminant():
    assert special_discriminant(12)
    assert not special_discriminant(6)
    assert special_discriminant(14)
    assert not special_discriminant(7)
    assert special_discriminant(8) and special_discriminant(18)
    assert not special_discriminant(2) and not special_discriminant(-6)


def test_json_roundtrip():
    data = RHO1.to_json()
    assert data == {"x": 3, "y": -2, "gram": [[6, 6], [6, 2]]}
    assert data["gram"] == [[6, 6], [6, 2]] == J12.to_json()
    assert LatticeClass.from_json(json.loads(json.dumps(data))) == RHO1
