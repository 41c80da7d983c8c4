"""Timing wrappers around sixnodal's layer functions, for the traced run.

The wrappers are installed from outside the program.  Every module and class
of the ``sixnodal`` package that binds a listed function gets the wrapper, so
calls made through ``from .poly import roots`` are timed as well as calls
through ``poly.roots``.  Spans are kept in memory (name, start, end, parent);
a span's self time is its duration minus the part covered by its direct
child spans, and inclusive time counts only the outermost span of a name, so
recursion is not counted twice.
"""

from __future__ import annotations

import functools
import importlib
import math
import pkgutil
import sys
from array import array
from fractions import Fraction
from time import perf_counter

# (metric prefix, module, attribute path); the README maps each to the
# end-to-end metric and workload it should move
TARGETS = [
    # exact kernel
    ("poly.macaulay_resultant", "poly", "macaulay_resultant"),
    ("poly.poly_det", "poly", "poly_det"),
    ("poly.resultant_bivariate", "poly", "resultant_bivariate"),
    ("poly.MPoly.compose", "poly", "MPoly.compose"),
    ("poly.MPoly.mul", "poly", "MPoly.__mul__"),
    ("qlinalg.int_det_bareiss", "_qlinalg", "int_det_bareiss"),
    ("detgeo.binary_resultant", "detgeo", "binary_resultant"),
    # root layer
    ("poly.roots", "poly", "roots"),
    ("poly.aberth_roots", "poly", "aberth_roots"),
    ("poly.UPoly.squarefree_decomposition", "poly", "UPoly.squarefree_decomposition"),
    # geometry
    ("detgeo.make_instance", "detgeo", "make_instance"),
    ("detgeo.residual_rank1_point", "detgeo", "residual_rank1_point"),
    ("detgeo.special_line", "detgeo", "special_line"),
    ("detgeo.classify_line", "detgeo", "classify_line"),
    ("detgeo.project_from_node", "detgeo", "project_from_node"),
    ("detgeo.is_odp", "detgeo", "is_odp"),
    ("detgeo.direction_chart", "detgeo", "direction_chart"),
    ("detgeo.lines_through_point", "detgeo", "lines_through_point"),
    ("detgeo.direction_candidates", "detgeo", "direction_candidates"),
    ("fourfold.extend_to_fourfold", "fourfold", "extend_to_fourfold"),
    ("fourfold.sample_line", "fourfold", "sample_line"),
    ("fourfold.iota", "fourfold", "iota"),
    ("fourfold.involution_check", "fourfold", "involution_check"),
    ("fourfold.scroll_incidence_invariance", "fourfold", "scroll_incidence_invariance"),
    # the rest of `reproduce`
    ("lattice.represents", "lattice", "represents"),
    ("lattice.orbit_classes", "lattice", "orbit_classes"),
    ("surf27.disjoint_sextuples", "surf27", "disjoint_sextuples"),
    ("surf27.double_sixes", "surf27", "double_sixes"),
    ("segre3.segre_forms", "segre3", "segre_forms"),
    ("segre3.jmap_agree", "segre3", "jmap_agree"),
    ("schubert.deg_fano_trace", "schubert", "deg_fano_trace"),
    ("cli.cmd_reproduce", "cli", "cmd_reproduce"),
]

# counters and margins recorded where the work happens
COUNTERS = ("poly.roots.rational_roots", "detgeo.lines_through_point.exact_lines")
MARGINS = ("detgeo.lines_through_point.margin_bits", "fourfold.iota.margin_bits")


def _count_rational_roots(tracer, out):
    tracer.counts["poly.roots.rational_roots"] += sum(
        isinstance(r, Fraction) for r, _ in out)


def _lines_through_point(tracer, out):
    tracer.counts["detgeo.lines_through_point.exact_lines"] += sum(
        line.exact for line, _ in out.lines)
    if out.residual_max > 0:
        tracer.margin("detgeo.lines_through_point.margin_bits",
                      math.log2(1e-40 / out.residual_max))


def _iota(tracer, out):
    if out.factor_residual > 0:
        tracer.margin("fourfold.iota.margin_bits", math.log2(1e-30 / out.factor_residual))


POST = {"poly.roots": _count_rational_roots,
        "detgeo.lines_through_point": _lines_through_point,
        "fourfold.iota": _iota}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_of = array("i")
        self.parent = array("i")
        self.outermost = array("b")
        self.start = array("d")
        self.end = array("d")
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.margins: dict[str, float] = {}
        self._stack: list[int] = []
        self._active: list[int] = []

    def margin(self, name: str, bits: float) -> None:
        self.margins[name] = min(bits, self.margins.get(name, math.inf))

    def wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        self._active.append(0)
        post = POST.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_of.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.outermost.append(self._active[nid] == 0)
            self.end.append(0.0)
            self._stack.append(idx)
            self._active[nid] += 1
            self.start.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                self._active[nid] -= 1
                self._stack.pop()
            if post is not None:
                post(self, out)
            return out

        return traced

    def reset(self) -> None:
        """Drop the spans and counts recorded so far, keep the wrappers."""
        for a in (self.name_of, self.parent, self.outermost, self.start, self.end):
            del a[:]
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.margins = {}

    def summary(self) -> dict:
        """Per name: calls, inclusive seconds and self seconds."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            if self.parent[i] >= 0:
                child[self.parent[i]] += self.end[i] - self.start[i]
        out = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in self.names}
        for i in range(n):
            row = out[self.names[self.name_of[i]]]
            dur = self.end[i] - self.start[i]
            row["calls"] += 1
            row["self_s"] += dur - child[i]
            if self.outermost[i]:
                row["s"] += dur
        return {"functions": out, "counts": dict(self.counts),
                "margins": dict(self.margins), "spans": n}


def install(tracer: Tracer) -> None:
    """Wrap every TARGETS function wherever the sixnodal package binds it."""
    package = importlib.import_module("sixnodal")
    modules = [importlib.import_module(f"sixnodal.{m.name}")
               for m in pkgutil.iter_modules(package.__path__)]
    classes = {id(v): v for m in modules for v in vars(m).values()
               if isinstance(v, type) and v.__module__.startswith("sixnodal.")}
    for name, modname, path in TARGETS:
        owner = sys.modules[f"sixnodal.{modname}"]
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        orig = vars(owner)[attr]        # KeyError if the program renamed it
        wrapped = tracer.wrap(name, orig)
        for ns in [*modules, *classes.values()]:
            for key, value in list(vars(ns).items()):
                if value is orig:
                    setattr(ns, key, wrapped)


def merge(summaries: list[dict], weights=None) -> dict:
    """Weighted sum of calls, seconds and counts (weight 1 by default), and
    the smallest margin."""
    out = {"functions": {}, "counts": dict.fromkeys(COUNTERS, 0), "margins": {}, "spans": 0}
    for s, w in zip(summaries, weights or [1] * len(summaries)):
        for name, row in s["functions"].items():
            acc = out["functions"].setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            for k in acc:
                acc[k] += w * row[k]
        for k, v in s["counts"].items():
            out["counts"][k] += w * v
        for k, v in s["margins"].items():
            out["margins"][k] = min(v, out["margins"].get(k, math.inf))
        out["spans"] += s["spans"]
    return out
