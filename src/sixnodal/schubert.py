"""Minimal Schubert calculus on G(2,n), n <= 6.

Cycles are integer combinations of two-row partitions (a >= b >= 0) inside
the 2 x (n-2) box.  The product rule is the two-row Littlewood-Richardson
rule (strip rule after factoring out the determinant class), truncated to
the box.  Enough to integrate c4(Sym^3 S*) and reproduce 27 and 45.
"""

from __future__ import annotations

from dataclasses import dataclass, field


class SchubertError(ValueError):
    pass


@dataclass(frozen=True)
class SchubertCycle:
    """Formal integer combination of partitions in the 2 x (n-2) box."""

    n: int
    terms: tuple = field(default=())  # sorted tuple of ((a, b), coeff)

    def __post_init__(self):
        box = self.n - 2
        clean = {}
        for (a, b), c in dict(self.terms).items():
            if not (a >= b >= 0):
                raise SchubertError(f"bad partition {(a, b)}")
            if a > box:
                raise SchubertError(f"partition {(a, b)} exceeds the box of G(2,{self.n})")
            if c:
                clean[(a, b)] = clean.get((a, b), 0) + int(c)
        object.__setattr__(self, "terms",
                           tuple(sorted((p, c) for p, c in clean.items() if c)))

    @classmethod
    def sigma(cls, n: int, a: int, b: int = 0) -> "SchubertCycle":
        return cls(n, (((a, b), 1),))

    @classmethod
    def zero(cls, n: int) -> "SchubertCycle":
        return cls(n, ())

    def as_dict(self) -> dict:
        return dict(self.terms)

    def _same(self, other):
        if self.n != other.n:
            raise SchubertError("ambient Grassmannian mismatch")

    def __add__(self, other):
        self._same(other)
        out = self.as_dict()
        for p, c in other.terms:
            out[p] = out.get(p, 0) + c
        return SchubertCycle(self.n, tuple(out.items()))

    def __neg__(self):
        return SchubertCycle(self.n, tuple((p, -c) for p, c in self.terms))

    def __sub__(self, other):
        return self + (-other)

    def __rmul__(self, k: int):
        return SchubertCycle(self.n, tuple((p, k * c) for p, c in self.terms))

    def is_homogeneous(self) -> bool:
        degs = {a + b for (a, b), _ in self.terms}
        return len(degs) <= 1

    def degree(self) -> int:
        degs = {a + b for (a, b), _ in self.terms}
        if len(degs) > 1:
            raise SchubertError("inhomogeneous cycle")
        return degs.pop() if degs else -1

    def __repr__(self):
        if not self.terms:
            return "0"
        return " + ".join(f"{c}*s{a}{b}" if c != 1 else f"s{a}{b}"
                          for (a, b), c in self.terms)


def _mul_partitions(p, q, box: int) -> dict:
    """(a,b)*(c,d) by the two-row strip rule, truncated to the box."""
    a, b = p
    c, d = q
    base = b + d
    out: dict = {}
    for k in range(min(a - b, c - d) + 1):
        e = (a - b) + (c - d) - k + base
        f = k + base
        if e <= box:
            out[(e, f)] = out.get((e, f), 0) + 1
    return out


def multiply(c1: SchubertCycle, c2: SchubertCycle) -> SchubertCycle:
    c1._same(c2)
    box = c1.n - 2
    out: dict = {}
    for p, cp in c1.terms:
        for q, cq in c2.terms:
            for r, m in _mul_partitions(p, q, box).items():
                out[r] = out.get(r, 0) + cp * cq * m
    return SchubertCycle(c1.n, tuple(out.items()))


def chern_sym3(n: int) -> SchubertCycle:
    """c4 of Sym^3 of the dual tautological bundle: 9 s11 (2 s1^2 + s11).

    Splitting the roots as a, b gives 3a * 3b * (2a+b)(a+2b)
    = 9 c2 (2 c1^2 + c2) with c1 = sigma_1, c2 = sigma_{1,1}.
    """
    s1 = SchubertCycle.sigma(n, 1)
    s11 = SchubertCycle.sigma(n, 1, 1)
    inner = 2 * multiply(s1, s1) + s11
    return 9 * multiply(s11, inner)


def integrate(c: SchubertCycle) -> int:
    """Coefficient of the point class; requires top homogeneous degree."""
    box = c.n - 2
    if c.terms and (not c.is_homogeneous() or c.degree() != 2 * box):
        raise SchubertError("cycle is not of top degree")
    return c.as_dict().get((box, box), 0)


def deg_fano_trace(n: int) -> dict:
    """Expanded computation behind the 27 / 45 intersection numbers."""
    c4 = chern_sym3(n)
    if n == 4:
        total = integrate(c4)
    else:
        s1 = SchubertCycle.sigma(n, 1)
        total = integrate(multiply(multiply(c4, s1), s1))
    return {"ambient": n, "c4_sym3": repr(c4), "integral": total}
