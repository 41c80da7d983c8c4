"""Combinatorics of the cubic-surface Picard lattice.

Basis L, E1..E6 with L^2 = 1, Ei^2 = -1 and distinct basis classes
orthogonal (the off-diagonal sign follows the standard convention; the
printed one would make the form degenerate).  Enumerates the 27 line
classes, the 72 disjoint sextuples, the 36 double-sixes, and realizes the
double-six involution as an explicit lattice automorphism.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from ._qlinalg import inverse, mat_mul, transpose


class Surf27Error(ValueError):
    pass


@dataclass(frozen=True)
class PicClass:
    """d*L + sum m_i E_i with pairing d d' - sum m_i m_i'."""

    d: int
    m: tuple[int, int, int, int, int, int]

    def __post_init__(self):
        object.__setattr__(self, "m", tuple(int(x) for x in self.m))
        if len(self.m) != 6:
            raise Surf27Error("need six exceptional coordinates")

    def dot(self, other: "PicClass") -> int:
        return self.d * other.d - sum(a * b for a, b in zip(self.m, other.m))

    def vector(self) -> tuple[int, ...]:
        return (self.d,) + self.m

    @classmethod
    def from_vector(cls, v) -> "PicClass":
        return cls(int(v[0]), tuple(int(x) for x in v[1:]))

    def __repr__(self):
        bits = []
        if self.d:
            bits.append(f"{self.d}L" if self.d != 1 else "L")
        for i, c in enumerate(self.m):
            if c:
                bits.append(f"{'+' if c > 0 else '-'}{'' if abs(c) == 1 else abs(c)}E{i+1}")
        return "".join(bits) or "0"


K_CLASS = PicClass(-3, (1, 1, 1, 1, 1, 1))

E = [PicClass(0, tuple(1 if j == i else 0 for j in range(6))) for i in range(6)]
L = PicClass(1, (0,) * 6)


@lru_cache(maxsize=1)
def _line_classes_cached() -> tuple[PicClass, ...]:
    out = []
    for d in range(3):
        for m in itertools.product(range(-2, 3), repeat=5):
            m6 = 1 - 3 * d - sum(m)          # solves C.K = -1
            if abs(m6) <= 2 and d * d - sum(x * x for x in m) - m6 * m6 == -1:
                out.append(PicClass(d, m + (m6,)))
    return tuple(out)


def line_classes() -> list[PicClass]:
    """All classes with C.C = -1 and C.K = -1.

    Brute force over a box that provably contains them: the two conditions
    give 3d + sum(m) = 1 and d^2 - sum(m^2) = -1, and Cauchy-Schwarz then
    pins d to {0,1,2} and |m_i| <= 2.  The first condition fixes m_6 from
    d and m_1..m_5.
    """
    return list(_line_classes_cached())


@lru_cache(maxsize=1)
def _intersections_cached() -> dict[PicClass, tuple[int, ...]]:
    """Each line class with its intersection numbers with the 27, in the
    order of line_classes."""
    lines = _line_classes_cached()
    return {a: tuple(a.dot(b) for b in lines) for a in lines}


def _mask(values, target) -> int:
    """Bitmask of the positions k with values[k] == target."""
    return sum(1 << k for k, x in enumerate(values) if x == target)


def disjoint_sextuples(lines=None) -> list[tuple[PicClass, ...]]:
    """Unordered sextuples of pairwise-disjoint (C.C' = 0) line classes, in
    lexicographic order of their indices: a search on bitmasks of the lines
    disjoint from each one."""
    if lines is None:
        lines, rows = _line_classes_cached(), _intersections_cached().values()
    else:
        lines = list(lines)
        rows = [[a.dot(b) for b in lines] for a in lines]
    disjoint = [_mask(row, 0) for row in rows]
    out: list[tuple[PicClass, ...]] = []

    def extend(candidates: int, chosen: tuple):
        if len(chosen) == 6:
            out.append(tuple(lines[i] for i in chosen))
            return
        while candidates:
            low = candidates & -candidates
            candidates ^= low
            i = low.bit_length() - 1
            # candidates now holds only indices above i
            extend(candidates & disjoint[i], chosen + (i,))

    extend((1 << len(lines)) - 1, ())
    return out


def partner_sextuple(sextuple) -> tuple[PicClass, ...]:
    """The unique partner: C_i' meets C_j exactly when i != j.  C_i' is the
    one line in the intersection of the masks of the lines disjoint from C_i
    and of those meeting each other C_j once."""
    lines, table = _line_classes_cached(), _intersections_cached()
    rows = [table.get(c) or tuple(c.dot(b) for b in lines) for c in sextuple]
    meets = [_mask(row, 1) for row in rows]
    partners = []
    for i, row in enumerate(rows):
        mask = _mask(row, 0)
        for j, m in enumerate(meets):
            if j != i:
                mask &= m
        if mask.bit_count() != 1:
            raise Surf27Error("input is not a disjoint sextuple")
        partners.append(lines[mask.bit_length() - 1])
    return tuple(partners)


def double_sixes() -> list[frozenset]:
    """The 36 ways of pairing the 72 sextuples by the involution."""
    seen = set()
    out = []
    for s in disjoint_sextuples():
        key = frozenset(s)
        if key in seen:
            continue
        p = frozenset(partner_sextuple(s))
        seen.add(key)
        seen.add(p)
        out.append(frozenset((key, p)))
    return out


@dataclass(frozen=True)
class PicAutomorphism:
    """Integer matrix acting on (L, E1..E6) coordinate columns."""

    matrix: tuple

    def apply(self, c: PicClass) -> PicClass:
        v = c.vector()
        image = tuple(sum(self.matrix[i][j] * v[j] for j in range(7)) for i in range(7))
        return PicClass.from_vector(image)

    def is_isometry(self) -> bool:
        gram = tuple(tuple(0 if i != j else 1 if i == 0 else -1 for j in range(7))
                     for i in range(7))
        m = self.matrix
        return mat_mul(mat_mul(transpose(m), gram), m) == gram

    def order_two(self) -> bool:
        sq = mat_mul(self.matrix, self.matrix)
        return all(sq[i][j] == (1 if i == j else 0) for i in range(7) for j in range(7))


def double_six_involution(sextuple) -> PicAutomorphism:
    """Lattice automorphism exchanging a disjoint sextuple with its partner.

    Determined by C_i -> C_i', K -> K: the seven classes K, C_1..C_6 span a
    finite-index sublattice, so the matrix is solved over Q and then checked
    to be integral.
    """
    partner = partner_sextuple(sextuple)
    basis = [K_CLASS.vector()] + [c.vector() for c in sextuple]
    images = [K_CLASS.vector()] + [c.vector() for c in partner]
    # columns are the basis classes: solve M * basis^T = images^T
    m = mat_mul(transpose(images), inverse(transpose(basis)))
    rows = []
    for row in m:
        ints = []
        for x in row:
            if x.denominator != 1:
                raise Surf27Error("involution matrix is not integral")
            ints.append(int(x))
        rows.append(tuple(ints))
    out = PicAutomorphism(tuple(rows))
    if not (out.is_isometry() and out.order_two()):
        raise Surf27Error("constructed map is not an order-2 isometry")
    return out
