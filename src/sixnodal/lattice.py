"""Exact engine for J12, the one rank-2 lattice of the paper.

J12 has basis (g, tau) and Gram matrix [[6,6],[6,2]] (discriminant -24): its
reflection group, (-10)-class orbits, and the chamber decomposition of its
positive cone, whose boundary rays lie in Q(sqrt(6)).  Also the transfer of a
rank-2 middle-cohomology lattice with <h^2,h^2>=3 to the degree-2 side, the
one place where another Gram matrix appears.  Coordinates always live in the
ordered basis (g, tau); isometries act by left multiplication on coordinate
columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt
from typing import NamedTuple

from ._qlinalg import Q


class LatticeError(ValueError):
    pass


@dataclass(frozen=True)
class QuadExtScalar:
    """Exact scalar a + b*sqrt(6) with rational a, b."""

    a: Fraction
    b: Fraction

    @classmethod
    def of(cls, x) -> "QuadExtScalar":
        return x if isinstance(x, QuadExtScalar) else cls(Q(x), Fraction(0))

    @classmethod
    def sqrt_d(cls) -> "QuadExtScalar":
        return cls(Fraction(0), Fraction(1))

    def __add__(self, other):
        other = QuadExtScalar.of(other)
        return QuadExtScalar(self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __neg__(self):
        return QuadExtScalar(-self.a, -self.b)

    def __sub__(self, other):
        return self + (-QuadExtScalar.of(other))

    def __rsub__(self, other):
        return QuadExtScalar.of(other) - self

    def __mul__(self, other):
        other = QuadExtScalar.of(other)
        return QuadExtScalar(self.a * other.a + 6 * self.b * other.b,
                             self.a * other.b + self.b * other.a)

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def sign(self) -> int:
        """Exact sign of a + b*sqrt(6)."""
        if self.b == 0:
            return (self.a > 0) - (self.a < 0)
        if self.a == 0:
            return (self.b > 0) - (self.b < 0)
        if self.a > 0 and self.b > 0:
            return 1
        if self.a < 0 and self.b < 0:
            return -1
        # mixed signs: compare a^2 against 6 b^2
        lhs = self.a * self.a
        rhs = 6 * self.b * self.b
        if self.a > 0:  # b < 0
            return 1 if lhs > rhs else (-1 if lhs < rhs else 0)
        return -1 if lhs > rhs else (1 if lhs < rhs else 0)

    def __repr__(self):
        return f"({self.a} + {self.b}*sqrt(6))"


def _scalar(x):
    """Coerce to Fraction when possible, keep QuadExtScalar as is."""
    return x if isinstance(x, QuadExtScalar) else Q(x)


def _sign_of(x) -> int:
    if isinstance(x, QuadExtScalar):
        return x.sign()
    return (x > 0) - (x < 0)


@dataclass(frozen=True)
class GramContext:
    """2x2 symmetric nondegenerate integer Gram matrix."""

    entries: tuple[tuple[int, int], tuple[int, int]]

    def __post_init__(self):
        e = tuple(tuple(int(x) for x in row) for row in self.entries)
        object.__setattr__(self, "entries", e)
        if e[0][1] != e[1][0]:
            raise LatticeError("Gram matrix must be symmetric")
        if self.determinant() == 0:
            raise LatticeError("Gram matrix must be nondegenerate")

    def determinant(self) -> int:
        e = self.entries
        return e[0][0] * e[1][1] - e[0][1] * e[1][0]

    def to_json(self):
        return [list(r) for r in self.entries]


J12 = GramContext(((6, 6), (6, 2)))
K12 = ((3, 3), (3, 7))  # middle-cohomology side; input to transfer_K_to_J


@dataclass(frozen=True)
class LatticeClass:
    """Integer (or exact-extension) pair x*g + y*tau of J12."""

    x: object
    y: object

    def __post_init__(self):
        object.__setattr__(self, "x", _scalar(self.x))
        object.__setattr__(self, "y", _scalar(self.y))

    # -- arithmetic --------------------------------------------------------
    def __add__(self, other):
        return LatticeClass(self.x + other.x, self.y + other.y)

    def __sub__(self, other):
        return LatticeClass(self.x - other.x, self.y - other.y)

    def __neg__(self):
        return LatticeClass(-self.x, -self.y)

    def is_zero(self) -> bool:
        return _is_zero(self.x) and _is_zero(self.y)

    def is_integral(self) -> bool:
        return isinstance(self.x, Fraction) and self.x.denominator == 1 \
            and isinstance(self.y, Fraction) and self.y.denominator == 1

    def is_primitive(self) -> bool:
        return self.is_integral() and gcd(int(self.x), int(self.y)) == 1

    def coords(self):
        return (self.x, self.y)

    def to_json(self):
        if not self.is_integral():
            raise LatticeError("only integral classes serialize to JSON")
        return {"x": int(self.x), "y": int(self.y), "gram": J12.to_json()}

    @classmethod
    def from_json(cls, data) -> "LatticeClass":
        """Read a class written by to_json; its Gram matrix must be J12's."""
        if GramContext(tuple(tuple(r) for r in data["gram"])) != J12:
            raise LatticeError(f"a class of J12 has Gram matrix {J12.to_json()}, "
                               f"not {data['gram']}")
        return cls(data["x"], data["y"])

    def __repr__(self):
        return f"({self.x})g + ({self.y})tau"


def _is_zero(x) -> bool:
    return x.is_zero() if isinstance(x, QuadExtScalar) else x == 0


def g_class() -> LatticeClass:
    return LatticeClass(1, 0)


def tau_class() -> LatticeClass:
    return LatticeClass(0, 1)


def eval_form(v: LatticeClass, w: LatticeClass):
    """Bilinear pairing v^T G w with G the Gram matrix of J12."""
    e = J12.entries
    return (v.x * (e[0][0] * w.x + e[0][1] * w.y)
            + v.y * (e[1][0] * w.x + e[1][1] * w.y))


def square(v: LatticeClass):
    return eval_form(v, v)


def divisibility(v: LatticeClass) -> int:
    """gcd of the pairings with the basis; 0 exactly for the zero class."""
    a = eval_form(v, g_class())
    b = eval_form(v, tau_class())
    if not (isinstance(a, Fraction) and isinstance(b, Fraction)):
        raise LatticeError("divisibility needs an integral class")
    return gcd(int(a), int(b))


# ---------------------------------------------------------------------------
# isometries


@dataclass(frozen=True)
class Isometry:
    """2x2 integer matrix with M^T G M = G for J12's G, acting on coordinate
    columns."""

    matrix: tuple[tuple[int, int], tuple[int, int]]
    name: str | None = None

    def __post_init__(self):
        m = tuple(tuple(int(x) for x in row) for row in self.matrix)
        object.__setattr__(self, "matrix", m)
        if not is_isometry(m):
            raise LatticeError(f"matrix {m} is not an isometry of {J12.entries}")

    def apply(self, v: LatticeClass) -> LatticeClass:
        m = self.matrix
        return LatticeClass(m[0][0] * v.x + m[0][1] * v.y,
                            m[1][0] * v.x + m[1][1] * v.y)

    def __matmul__(self, other: "Isometry") -> "Isometry":
        a, b = self.matrix, other.matrix
        prod = tuple(tuple(sum(a[i][k] * b[k][j] for k in range(2)) for j in range(2))
                     for i in range(2))
        name = None
        if self.name and other.name:
            name = self.name + other.name
        return Isometry(prod, name)

    def __repr__(self):
        return f"Isometry({self.name or self.matrix})"


def is_isometry(m) -> bool:
    """True iff m^T G m = G for the Gram matrix G of J12."""
    g = J12.entries
    mt_g_m = [[sum(m[k][i] * g[k][l] * m[l][j] for k in range(2) for l in range(2))
               for j in range(2)] for i in range(2)]
    return all(mt_g_m[i][j] == g[i][j] for i in range(2) for j in range(2))


# columns are the images of g and tau
R1 = Isometry(((1, 2), (0, -1)), "R1")
R2 = Isometry(((-1, 0), (6, 1)), "R2")
R3 = Isometry(((11, 20), (-6, -11)), "R3")
IDENTITY = Isometry(((1, 0), (0, 1)), "I")

_NAMED = {"R1": R1, "R2": R2, "R3": R3, "I": IDENTITY}


def word_isometry(word: str) -> Isometry:
    """Compose named reflections, e.g. 'R1R2' or 'R1R2R1'."""
    out = IDENTITY
    i = 0
    while i < len(word):
        if word[i] == "I":
            i += 1
            continue
        tag = word[i:i + 2]
        if tag not in _NAMED:
            raise LatticeError(f"unknown isometry name at {word[i:]!r}")
        out = out @ _NAMED[tag]
        i += 2
    return out


# ---------------------------------------------------------------------------
# orbits of the reflection group on the named class families

_ORBIT_SEEDS = {
    # first two entries from the tables, then the two-step recursion
    "rho": (((3, -2), (7, -4)), "R1R2"),
    "rho_dual": (((-1, 2), (-1, 4)), "R2R1"),
    "alpha": (((7, -3), (17, -9)), "R1R2"),
    "alpha_dual": (((1, 3), (-1, 9)), "R2R1"),
}


def orbit_classes(kind: str, count: int) -> list[LatticeClass]:
    """First `count` entries of the recursive class sequence of the given kind."""
    if kind not in _ORBIT_SEEDS:
        raise LatticeError(f"unknown orbit kind {kind!r}")
    if count < 1:
        raise LatticeError("count must be >= 1")
    seeds, word = _ORBIT_SEEDS[kind]
    step = word_isometry(word)
    out = [LatticeClass(x, y) for x, y in seeds]
    while len(out) < count:
        out.append(step.apply(out[-2]))
    return out[:count]


# ---------------------------------------------------------------------------
# positive cone and chambers


def positive_cone_membership(v: LatticeClass) -> str:
    """Classify v against the component P of the positive cone containing g.

    Boundary membership is decided exactly in Q(sqrt(6)); classes may carry
    QuadExtScalar coordinates for that purpose.  The zero class is rejected.
    """
    if v.is_zero():
        raise LatticeError("zero class has no cone position")
    q = square(v)
    s = _sign_of(q)
    pg = _sign_of(eval_form(v, g_class()))
    if s > 0:
        return "interior_P" if pg > 0 else "interior_negP"
    if s == 0:
        return "boundary_P" if pg > 0 else "boundary_negP"
    return "outside"


def isotropic_generators() -> tuple[LatticeClass, LatticeClass]:
    """The two boundary rays of P: g - (3 - sqrt6) tau and (3 + sqrt6) tau - g."""
    r6 = QuadExtScalar.sqrt_d()
    one = QuadExtScalar.of(1)
    three = QuadExtScalar.of(3)
    return (LatticeClass(one, -(three - r6)),
            LatticeClass(-one, three + r6))


def chamber_ray(j: int) -> LatticeClass:
    """Wall ray s_j: alpha_j for j >= 1, alpha^v_{1-j} for j <= 0."""
    if j >= 1:
        return orbit_classes("alpha", j)[j - 1]
    return orbit_classes("alpha_dual", 1 - j)[-j]


def wall_class(j: int) -> LatticeClass:
    """(-10)-class orthogonal to chamber_ray(j): rho_j or rho^v_{1-j}."""
    if j >= 1:
        return orbit_classes("rho", j)[j - 1]
    return orbit_classes("rho_dual", 1 - j)[-j]


def _coords_in_rays(v: LatticeClass, r1: LatticeClass, r2: LatticeClass):
    """Solve v = a r1 + b r2 over Q (rays are an integral basis here)."""
    det = r1.x * r2.y - r2.x * r1.y
    if det == 0:
        raise LatticeError("degenerate ray pair")
    a = (v.x * r2.y - r2.x * v.y) / det
    b = (r1.x * v.y - v.x * r1.y) / det
    return a, b


class ChamberLocation(NamedTuple):
    k: int                     # chamber index (lower one when on a wall)
    indices: tuple[int, ...]   # one chamber, or both adjacent ones on a wall
    word: tuple[str, ...]      # reflections mapping v into chamber 0 (even k) or -1 (odd)
    coords: tuple[Fraction, Fraction]  # coordinates in (s_k, s_{k+1})


# bound on the chamber walk of chamber_locate, whose class can come from the
# command line
CHAMBER_WALK_LIMIT = 4096


def chamber_locate(v: LatticeClass) -> ChamberLocation:
    """Locate a primitive interior class in the chamber fan.

    Chamber k is Cone(s_k, s_{k+1}) with s_1 = alpha_1, s_0 = alpha_1^v.
    Walls report both adjacent indices.  The reflection word (applied left to
    right) moves v into chamber 0 when k is even; parity of the index is
    preserved by the reflection group, so odd chambers walk to chamber -1.
    """
    if positive_cone_membership(v) != "interior_P":
        raise LatticeError("class not in the interior of P")
    if not v.is_primitive():
        raise LatticeError("class must be primitive and integral")

    a, b = _coords_in_rays(v, chamber_ray(0), chamber_ray(1))
    if a < 0:
        candidates = range(1, CHAMBER_WALK_LIMIT)
    elif b < 0:
        candidates = range(-1, -CHAMBER_WALK_LIMIT, -1)
    else:
        candidates = [0]
    k = None
    coords = (a, b)
    for kk in candidates:
        a, b = _coords_in_rays(v, chamber_ray(kk), chamber_ray(kk + 1))
        if a >= 0 and b >= 0:
            k = kk
            coords = (a, b)
            break
    if k is None:
        raise LatticeError(f"chamber walk exceeded {CHAMBER_WALK_LIMIT} chambers")

    if a == 0:      # v on the ray s_{k+1}: wall between k and k+1
        indices = (k, k + 1)
    elif b == 0:    # v on the ray s_k: wall between k-1 and k
        indices = (k - 1, k)
        k = k - 1
    else:
        indices = (k,)

    word: list[str] = []
    kk = indices[0] if len(indices) == 1 else indices[1]
    while kk not in (0, -1):
        if kk > 0:
            word.append("R1")   # chamber j -> -j
            kk = -kk
        else:
            word.append("R2")   # chamber j -> -2-j
            kk = -2 - kk
    return ChamberLocation(indices[0], indices, tuple(word), coords)


def nef_test(v: LatticeClass, k: int = 0) -> bool:
    """Dual-cone test: v is nef for the model of chamber k iff it pairs
    nonnegatively with the two inward wall classes of that chamber."""
    s_lo, s_hi = chamber_ray(k), chamber_ray(k + 1)
    t_lo, t_hi = wall_class(k), wall_class(k + 1)
    n_lo = t_lo if _sign_of(eval_form(s_hi, t_lo)) > 0 else -t_lo
    n_hi = t_hi if _sign_of(eval_form(s_lo, t_hi)) > 0 else -t_hi
    return _sign_of(eval_form(v, n_lo)) >= 0 and _sign_of(eval_form(v, n_hi)) >= 0


# ---------------------------------------------------------------------------
# representation problem


@dataclass(frozen=True)
class RepresentResult:
    status: str                      # "witness" | "none"
    witness: LatticeClass | None = None
    certificate: str | None = None

    def is_witness(self):
        return self.status == "witness"


def represents(n: int) -> RepresentResult:
    """Witness v with Q(v) = n, or a certificate that none exists.

    Q(x,y) = 2(u^2 - 6x^2) with u = y + 3x, so n is represented iff
    u^2 - 6x^2 = m = n/2 is soluble.  Certificates: parity, n = 0 (6 is not
    a square), congruences mod 3 and 8, and a prime p > 3 with (6/p) = -1,
    inert in Z[sqrt 6], dividing m to an odd power (_inert_prime).  Else a
    search decides: by Nagell's bound (1951) for the unit 5 + 2 sqrt 6, each
    class of solutions has one with 0 <= x <= sqrt(m/3) if m > 0, sqrt(|m|/2)
    if m < 0.  Time grows as sqrt |n|: 0.16 s for a none at |n| = 2*10^12,
    an hour near 10^21 (CPython 3.11, 2-vCPU VM).  The witness is the first
    vector of square n in shell order, turned to pair nonnegatively with g.
    """
    if n % 2 != 0:
        return RepresentResult("none", None,
                               f"Q(x,y) = 2((y+3x)^2 - 6x^2) is even; {n} is odd")
    if n == 0:
        return RepresentResult(
            "none", None,
            "only the zero class: (y+3x)^2 = 6x^2 forces x = 0 since the "
            "discriminant 24 of 3x^2+6xy+y^2 is not a square")
    m = n // 2
    if m % 3 == 2:
        return RepresentResult(
            "none", None,
            f"u^2 - 6x^2 = {m} is insoluble: u^2 = {m % 3} (mod 3) has no solution")
    if m % 8 in (5, 7):
        return RepresentResult(
            "none", None,
            f"u^2 - 6x^2 = {m} is insoluble mod 8 (value {m % 8} not attained)")
    p = _inert_prime(m)
    if p is not None:
        return RepresentResult(
            "none", None,
            f"u^2 - 6x^2 = {m} is insoluble: {p} is inert in Z[sqrt 6] ((6/{p}) = -1) "
            f"and divides {m} to an odd power, but every norm to an even one")

    bound = isqrt(m // 3 if m > 0 else -m // 2)
    first = next(_pell_points(m, range(bound + 1)), None)
    if first is None:
        return RepresentResult(
            "none", None,
            f"u^2 - 6x^2 = {m} is insoluble: no x <= {bound} makes {m} + 6x^2 a "
            f"square, and by Nagell's bound every class of solutions has one there")
    r = max(map(abs, first))      # the first vector in shell order is no further out
    v = LatticeClass(*min(_pell_points(m, range(-r, r + 1)), key=_shell_key))
    if _sign_of(eval_form(v, g_class())) < 0:
        v = -v
    return RepresentResult("witness", v)


def _pell_points(m: int, xs):
    """Each (x, y) with x in xs and Q(x, y) = 2m: u = y + 3x squares to m + 6x^2."""
    for x in xs:
        t = m + 6 * x * x
        u = isqrt(max(t, 0))
        if u * u == t:
            yield x, u - 3 * x
            yield x, -u - 3 * x


def _shell_key(v) -> tuple:
    """Shells max(|x|, |y|) = r outward; in shell r, the columns x = -r and
    x = r by y, then the rows y = -r and y = r by x."""
    x, y = v
    r = max(abs(x), abs(y))
    if x == -r:
        return (r, 0, y)
    if x == r:
        return (r, 1, y)
    return (r, 2 if y == -r else 3, x)


# trial divisors of n/2 in represents: a larger prime factor is left unread
_TRIAL_DIVISION_BOUND = 10_000


def _inert_prime(m: int) -> int | None:
    """A prime p > 3 with (6/p) = -1 (Euler's criterion) dividing m to an
    odd power, by trial division by 2, 3, ..., _TRIAL_DIVISION_BOUND; the
    cofactor left is tested too when the division proved it prime."""
    r, p = abs(m), 2
    while p * p <= r and p <= _TRIAL_DIVISION_BOUND:
        k = 0
        while r % p == 0:
            r, k = r // p, k + 1
        if k % 2 and p > 3 and pow(6, (p - 1) // 2, p) == p - 1:
            return p
        p += 1
    if r > 3 and p * p > r and pow(6, (r - 1) // 2, r) == r - 1:
        return r
    return None


# ---------------------------------------------------------------------------
# Abel-Jacobi style lattice transfer


class TransferResult(NamedTuple):
    gram: GramContext
    tau_isotropic: bool   # degenerate flag: (tau,tau) = 0


def transfer_K_to_J(k_entries) -> TransferResult:
    """Transfer [[3,a],[a,t]] to [[6,2a],[2a,a^2-t]].

    Derivation: split T = (a/3)h^2 + z with z orthogonal to h^2, push through
    (g,g) = 2<h^2,h^2> = 6 and (alpha z1, alpha z2) = -<z1,z2> with g
    orthogonal to the image of (h^2)-perp.  The determinant comes out as
    -2 det(K).
    """
    k = tuple(tuple(int(x) for x in row) for row in k_entries)
    if k[0][1] != k[1][0]:
        raise LatticeError("K must be symmetric")
    if k[0][0] != 3:
        raise LatticeError("transfer requires <h^2,h^2> = 3")
    a, t = k[0][1], k[1][1]
    det_k = 3 * t - a * a
    if det_k == 0:
        raise LatticeError("degenerate input lattice")
    gram = GramContext(((6, 2 * a), (2 * a, a * a - t)))
    assert gram.determinant() == -2 * det_k
    return TransferResult(gram, a * a - t == 0)


def special_discriminant(d: int) -> bool:
    """True iff d = 0 or 2 (mod 6) and d > 6."""
    return d > 6 and d % 6 in (0, 2)
