"""Truncated augmented cosimplicial diagrams of categories.

An ``AugCosimplicial3`` is three levels of categories with face and
degeneracy functors, an optional augmentation, and the six constraint
isomorphisms relating composites of faces:

    sigma01 : del1∘d0 => del0∘d0        n0 : s0∘d0 => Id
    sigma02 : del2∘d0 => del0∘d1        n1 : s0∘d1 => Id
    sigma12 : del2∘d1 => del1∘d1        theta : d1∘d => d0∘d   (augmented)

Face indexing follows the usual cosimplicial convention: the face with
index i forgets coordinate i, so d0 is change of base along the projection
that omits coordinate 0 (the second projection) and d1 along the one that
omits coordinate 1 (the first projection); del_i likewise for triples.

``basic_fibration`` realizes the diagram of a finite-set function
p: E -> B: slices over B, E, E×_B E and E×_B E×_B E with change of base
along p, the projections and the diagonal; every constraint is the
canonical comparison of iterated chosen pullbacks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .finset import FinFunction, FinSetObj, mediating_map, pullback
from .fincat import Category, Functor, IdentityFunctor, NatIso
from .slices import (ChangeOfBase, IdentityCartFunctor, SliceCategory,
                     comparison_iso)


@dataclass
class CoherenceFailure:
    equation: str
    witness: object
    lhs: object = None
    rhs: object = None

    def __str__(self):
        at = f" at {self.witness}" if self.witness is not None else ""
        detail = f": {self.lhs} ≠ {self.rhs}" if self.lhs is not None else ""
        return f"{self.equation}{at}{detail}"


@dataclass
class CoherenceReport:
    failures: list[CoherenceFailure] = field(default_factory=list)

    def __bool__(self):
        return not self.failures

    def is_empty(self):
        return not self.failures

    def add(self, equation, witness, lhs=None, rhs=None):
        self.failures.append(CoherenceFailure(equation, witness, lhs, rhs))

    def __str__(self):
        if not self.failures:
            return "coherent"
        return "\n".join(str(f) for f in self.failures)


@dataclass
class AugCosimplicial3:
    """Three cosimplicial levels, optionally augmented by c0 --d--> c1."""

    c1: Category
    c2: Category
    c3: Category
    d0: Functor  # c1 -> c2
    d1: Functor  # c1 -> c2
    s0: Functor  # c2 -> c1
    del0: Functor  # c2 -> c3
    del1: Functor
    del2: Functor
    sigma01: NatIso
    sigma02: NatIso
    sigma12: NatIso
    n0: NatIso
    n1: NatIso
    c0: Optional[Category] = None
    d: Optional[Functor] = None  # c0 -> c1
    theta: Optional[NatIso] = None  # d1∘d => d0∘d

    @property
    def augmented(self) -> bool:
        return self.c0 is not None

    def constraint_types(self):
        """Each constraint with the composites it must relate."""
        out = [
            ("sigma01", self.sigma01, self.d0.then(self.del1), self.d0.then(self.del0), self.c1),
            ("sigma02", self.sigma02, self.d0.then(self.del2), self.d1.then(self.del0), self.c1),
            ("sigma12", self.sigma12, self.d1.then(self.del2), self.d1.then(self.del1), self.c1),
            ("n0", self.n0, self.d0.then(self.s0), IdentityFunctor(self.c1), self.c1),
            ("n1", self.n1, self.d1.then(self.s0), IdentityFunctor(self.c1), self.c1),
        ]
        if self.augmented:
            out.append(("theta", self.theta, self.d.then(self.d1), self.d.then(self.d0), self.c0))
        return out


def validate_coherence(diagram: AugCosimplicial3, bound: Optional[int] = None) -> CoherenceReport:
    """Check constraint typing, naturality, invertibility, and (when augmented)
    the two presentation equations, on every enumerated object.

    Slices are infinite, so the verdict is relative to the enumeration bound;
    the report is a regression harness, the universal-property argument is
    the global guarantee.
    """
    report = CoherenceReport()

    for name, cell, src_f, dst_f, index_cat in diagram.constraint_types():
        target_cat = cell.source.dst
        for x in index_cat.objects(bound):
            comp = cell.at(x)
            want_src = src_f.obj(x)
            want_dst = dst_f.obj(x)
            if comp.src != want_src:
                report.add(f"{name}: wrong source", x, comp.src, want_src)
                continue
            if comp.dst != want_dst:
                report.add(f"{name}: wrong target", x, comp.dst, want_dst)
                continue
            inv = cell.inv_at(x)
            if target_cat.compose(inv, comp) != target_cat.identity(comp.src) or \
               target_cat.compose(comp, inv) != target_cat.identity(inv.src):
                report.add(f"{name}: not invertible", x)
        # naturality over every enumerated morphism
        objs = index_cat.objects(bound)
        for x in objs:
            for y in objs:
                for m in index_cat.hom(x, y):
                    lhs = target_cat.compose(cell.at(y), src_f.mor(m))
                    rhs = target_cat.compose(dst_f.mor(m), cell.at(x))
                    if lhs != rhs:
                        report.add(f"{name}: naturality", m)

    if report.failures:
        return report

    if diagram.augmented:
        c3 = diagram.c3
        c1 = diagram.c1
        for b0 in diagram.c0.objects(bound):
            w = diagram.d.obj(b0)
            th = diagram.theta.at(b0)
            # associativity: sigma01_W ∘ del1(theta) ∘ sigma12_W
            #              = del0(theta) ∘ sigma02_W ∘ del2(theta)
            lhs = c3.compose(diagram.sigma01.at(w),
                             c3.compose(diagram.del1.mor(th), diagram.sigma12.at(w)))
            rhs = c3.compose(diagram.del0.mor(th),
                             c3.compose(diagram.sigma02.at(w), diagram.del2.mor(th)))
            if lhs != rhs:
                report.add("presentation associativity", b0, lhs, rhs)
            # identity: n0_W ∘ s0(theta) = n1_W
            lhs2 = c1.compose(diagram.n0.at(w), diagram.s0.mor(th))
            rhs2 = diagram.n1.at(w)
            if lhs2 != rhs2:
                report.add("presentation identity", b0, lhs2, rhs2)

    return report


@dataclass
class BasicFibration(AugCosimplicial3):
    """The cosimplicial diagram of slices of a function p: E -> B."""

    p: FinFunction = None
    e2: FinSetObj = None
    e3: FinSetObj = None
    proj_omit0: FinFunction = None  # E2 -> E, second coordinate
    proj_omit1: FinFunction = None  # E2 -> E, first coordinate
    diagonal: FinFunction = None    # E -> E2
    tproj_omit0: FinFunction = None  # E3 -> E2
    tproj_omit1: FinFunction = None
    tproj_omit2: FinFunction = None


def basic_fibration(p: FinFunction, bound: int = 4) -> BasicFibration:
    """Build the slice diagram of p with its canonical constraint cells.

    Each call builds a fresh diagram; nothing is kept across calls.
    """
    e, b = p.dom, p.cod
    pb2 = pullback(p, p)
    e2 = pb2.obj
    q1, q0 = pb2.pr1, pb2.pr2  # pr1 keeps coordinate 0 (omits 1), pr2 omits 0
    to_b = q1.then(p)
    pb3 = pullback(to_b, p)
    e3 = pb3.obj
    r2 = pb3.pr1  # drops the last coordinate
    r0 = mediating_map(pb2, pb3.pr1.then(q0), pb3.pr2)  # drops coordinate 0
    r1 = mediating_map(pb2, pb3.pr1.then(q1), pb3.pr2)  # drops coordinate 1
    diag = mediating_map(pb2, FinFunction.identity(e), FinFunction.identity(e))

    c0 = SliceCategory(b, bound)
    c1 = SliceCategory(e, bound)
    c2 = SliceCategory(e2, bound)
    c3 = SliceCategory(e3, bound)

    d = ChangeOfBase(p, c0, c1)
    d0 = ChangeOfBase(q0, c1, c2)
    d1 = ChangeOfBase(q1, c1, c2)
    s0 = ChangeOfBase(diag, c2, c1)
    del0 = ChangeOfBase(r0, c2, c3)
    del1 = ChangeOfBase(r1, c2, c3)
    del2 = ChangeOfBase(r2, c2, c3)

    return BasicFibration(
        c1=c1, c2=c2, c3=c3,
        d0=d0, d1=d1, s0=s0, del0=del0, del1=del1, del2=del2,
        sigma01=comparison_iso(d0.then(del1), d0.then(del0), "sigma01"),
        sigma02=comparison_iso(d0.then(del2), d1.then(del0), "sigma02"),
        sigma12=comparison_iso(d1.then(del2), d1.then(del1), "sigma12"),
        n0=comparison_iso(d0.then(s0), IdentityCartFunctor(c1), "n0"),
        n1=comparison_iso(d1.then(s0), IdentityCartFunctor(c1), "n1"),
        c0=c0, d=d,
        theta=comparison_iso(d.then(d1), d.then(d0), "theta"),
        p=p, e2=e2, e3=e3,
        proj_omit0=q0, proj_omit1=q1, diagonal=diag,
        tproj_omit0=r0, tproj_omit1=r1, tproj_omit2=r2)
