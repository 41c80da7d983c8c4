"""The degree-3 hypersurface swept by twisted quartics through six points.

Carries the five explicit cubics double at the six standard points of P^4,
the cubic relation between them (checked by full expansion, for both the
printed and the index-cycled variant of the fourth form), GIT stability of
six points on a line, exact Moebius comparison of ordered six-tuples, and
the two projections that must agree for a surface point off the lines.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._qlinalg import Q, nullspace
from .detgeo import (DeterminantalInstance, annihilator, mat3, mat3_image_basis,
                     s_circ_ok)
from .poly import MPoly, gradient


class SegreError(ValueError):
    pass


STANDARD_POINTS = (
    (1, 0, 0, 0, 0),
    (0, 1, 0, 0, 0),
    (0, 0, 1, 0, 0),
    (0, 0, 0, 1, 0),
    (0, 0, 0, 0, 1),
    (1, 1, 1, 1, 1),
)


def _factor(i, j):
    return MPoly.var(5, i) - MPoly.var(5, j)


def segre_forms(variant: str = "cyclic"):
    """The five cubics double at the six standard points, and whether the
    five-term cubic relation holds identically for this variant.

    The two variants differ only in the last factor of the fourth form:
    'printed' uses (x4 - x1), 'cyclic' the index-cycling (x4 - x0).
    """
    if variant not in ("printed", "cyclic"):
        raise SegreError(f"unknown variant {variant!r}")
    y0 = _factor(3, 4) * MPoly.var(5, 0) * _factor(1, 2)
    y1 = _factor(4, 0) * MPoly.var(5, 1) * _factor(2, 3)
    y2 = _factor(0, 1) * MPoly.var(5, 2) * _factor(3, 4)
    y3 = _factor(1, 2) * MPoly.var(5, 3) * (_factor(4, 1) if variant == "printed"
                                            else _factor(4, 0))
    y4 = _factor(2, 3) * MPoly.var(5, 4) * _factor(0, 1)
    ys = [y0, y1, y2, y3, y4]
    total = MPoly.zero(5)
    for j in range(5):
        total = total + ys[j] * ys[(j + 1) % 5] * ys[(j + 2) % 5]
    return ys, total.is_zero()


def double_at_points(f: MPoly, points) -> bool:
    """True iff f and its full gradient vanish at each point."""
    grads = gradient(f)
    for p in points:
        p = tuple(Q(x) for x in p)
        if f.evaluate(p) != 0:
            return False
        if any(g.evaluate(p) != 0 for g in grads):
            return False
    return True


# ---------------------------------------------------------------------------
# six points on a line


@dataclass(frozen=True)
class SixTupleOnLine:
    """Ordered six points of P^1 as exact homogeneous pairs."""

    points: tuple

    def __post_init__(self):
        pts = tuple((Q(a), Q(b)) for a, b in self.points)
        if len(pts) != 6:
            raise SegreError("need exactly six points")
        if any(a == 0 and b == 0 for a, b in pts):
            raise SegreError("(0,0) is not a point of P^1")
        object.__setattr__(self, "points", pts)

    def multiplicities(self) -> list[int]:
        groups: list[list[int]] = []
        for i, p in enumerate(self.points):
            for g in groups:
                q = self.points[g[0]]
                if p[0] * q[1] == p[1] * q[0]:
                    g.append(i)
                    break
            else:
                groups.append([i])
        return sorted((len(g) for g in groups), reverse=True)


def semistable_6tuple(t: SixTupleOnLine) -> str:
    """Symmetric-linearization threshold: maximum point multiplicity mu,
    stable iff mu < 3, strictly semistable iff mu = 3, unstable above."""
    mu = t.multiplicities()[0]
    if mu < 3:
        return "stable"
    if mu == 3:
        return "strictly_semistable"
    return "unstable"


def _moebius_to_standard(p, q, r):
    """Exact map sending p -> (0:1), q -> (1:1), r -> (1:0).

    Returns the 2x2 matrix: z goes to (L_p(z) L_r(q) : L_r(z) L_p(q)) with
    L_w the linear form vanishing at w.
    """
    def lform(w):
        return (w[1], -w[0])

    lp, lr = lform(p), lform(r)
    def ev(l, z):
        return l[0] * z[0] + l[1] * z[1]
    cp = ev(lr, q)
    cr = ev(lp, q)
    if cp == 0 or cr == 0:
        raise SegreError("reference points are not pairwise distinct")
    return ((cp * lp[0], cp * lp[1]), (cr * lr[0], cr * lr[1]))


def _apply2(m, z):
    return (m[0][0] * z[0] + m[0][1] * z[1], m[1][0] * z[0] + m[1][1] * z[1])


def _proj_eq(a, b) -> bool:
    return a[0] * b[1] == a[1] * b[0]


def tuple_equiv(t1: SixTupleOnLine, t2: SixTupleOnLine) -> bool:
    """Ordered tuples compared modulo the Moebius action.

    Both tuples must be at worst strictly semistable; stable pairs are
    normalized exactly through a reference triple, strictly semistable ones
    are compared only by their multiplicity partition (recorded limitation).
    """
    s1, s2 = semistable_6tuple(t1), semistable_6tuple(t2)
    if "unstable" in (s1, s2):
        raise SegreError("unstable tuples are not comparable")
    if s1 != s2:
        return False
    if s1 != "stable":
        return t1.multiplicities() == t2.multiplicities()
    triple = _first_distinct_triple(t1)
    if triple is None:
        raise SegreError("insufficient distinct points for normalization")
    i, j, k = triple
    if not _pairwise_distinct(t2.points[i], t2.points[j], t2.points[k]):
        return False   # coincidence patterns differ, so not equivalent
    m1 = _moebius_to_standard(t1.points[i], t1.points[j], t1.points[k])
    m2 = _moebius_to_standard(t2.points[i], t2.points[j], t2.points[k])
    for a, b in zip(t1.points, t2.points):
        if not _proj_eq(_apply2(m1, a), _apply2(m2, b)):
            return False
    return True


def _pairwise_distinct(*pts) -> bool:
    return all(not _proj_eq(pts[i], pts[j])
               for i in range(len(pts)) for j in range(i + 1, len(pts)))


def _first_distinct_triple(t: SixTupleOnLine):
    for i in range(6):
        for j in range(i + 1, 6):
            for k in range(j + 1, 6):
                if _pairwise_distinct(t.points[i], t.points[j], t.points[k]):
                    return (i, j, k)
    return None


# ---------------------------------------------------------------------------
# the two projections of a determinantal surface point


def project_tuple_from(center, points) -> SixTupleOnLine:
    """Project six points of P^2 from a center point onto a P^1 of lines."""
    center = tuple(Q(x) for x in center)
    chart = nullspace([center])
    if len(chart) != 2:
        raise SegreError("degenerate projection center")
    imgs = []
    for p in points:
        img = (sum(chart[0][i] * Q(p[i]) for i in range(3)),
               sum(chart[1][i] * Q(p[i]) for i in range(3)))
        if img[0] == 0 and img[1] == 0:
            raise SegreError("a marked point coincides with the center")
        imgs.append(img)
    return SixTupleOnLine(tuple(imgs))


def jmap_tuples(inst: DeterminantalInstance, sigma_param):
    """The two ordered six-tuples attached to a surface point: the images of
    the q_i under projection from the kernel direction, and of the dual
    points under projection from the image annihilator."""
    sigma = inst.sigma(sigma_param) if len(sigma_param) == 4 and \
        not hasattr(sigma_param[0], "__len__") else mat3(sigma_param)
    if not s_circ_ok(inst, sigma):
        raise SegreError("point violates the off-the-lines conditions")
    b = nullspace(sigma)[0]
    w = annihilator(mat3_image_basis(sigma))[0]
    t = project_tuple_from(b, inst.q_points)
    t_dual = project_tuple_from(w, inst.q_dual_points)
    return t, t_dual


def jmap_agree(inst: DeterminantalInstance, sigma_param) -> bool:
    """Do the two projections define the same moduli point?"""
    t, t_dual = jmap_tuples(inst, sigma_param)
    return tuple_equiv(t, t_dual)
