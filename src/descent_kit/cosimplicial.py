"""The truncated augmented cosimplicial diagram of slices of a map.

A ``BasicFibration`` is the diagram of a finite-set function p: E -> B
and nothing else: the augmentation c0 --d--> c1, three cosimplicial levels
with face and degeneracy functors, and the six constraint cells relating
composites of faces:

    sigma01 : del1∘d0 => del0∘d0        n0 : s0∘d0 => Id
    sigma02 : del2∘d0 => del0∘d1        n1 : s0∘d1 => Id
    sigma12 : del2∘d1 => del1∘d1        theta : d1∘d => d0∘d

Each map of finite sets lives in exactly one functor, as its ``u``.
Each cell is a plain ``NatTrans``; that it is a natural isomorphism of
the composites the faces give it, ``validate_coherence`` checks with the
one natural-isomorphism check, ``fincat.iso_failures``.  Every composite
of faces tracks tops, so naturality is decided by legs: a cell whose
components keep each element's top and base point is natural, with no
square checked, and the squares on generators run only for a cell whose
legs fail somewhere, to report where.

Face indexing follows the usual cosimplicial convention: the face with
index i forgets coordinate i, so d0 is change of base along the projection
that omits coordinate 0 (the second projection) and d1 along the one that
omits coordinate 1 (the first projection); del_i likewise for triples.

This module owns the descent-datum equations.  A pair (W, rho) of a
level-1 object and an isomorphism rho: d1(W) -> d0(W) is a descent datum
when

    identity:       n0_W ∘ s0(rho) = n1_W
    associativity:  sigma01_W ∘ del1(rho) ∘ sigma12_W
                       = del0(rho) ∘ sigma02_W ∘ del2(rho)

(``is_descent_datum``).  The two presentation equations of the
augmentation say that theta_B0 is a datum on d(B0) for every level-0
object B0, so ``validate_coherence`` checks them by that same function.

``basic_fibration`` realizes the diagram of p: slices over B, E, E×_B E
and E×_B E×_B E with change of base along p, the projections and the
diagonal; every constraint is the canonical comparison of iterated chosen
pullbacks.  The six cells are stated once, as the list ``_cells`` reads
off the faces: ``basic_fibration`` builds each cell from it, and
``constraint_types`` recomputes it from the current faces for the gate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .finset import FinFunction, FinSetError, mediating_map, pullback
from .fincat import MISTYPED, CategoryError, NatTrans, iso_failures
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

    def is_empty(self):
        return not self.failures

    def add(self, equation, witness, lhs=None, rhs=None):
        self.failures.append(CoherenceFailure(equation, witness, lhs, rhs))

    def __str__(self):
        if not self.failures:
            return "coherent"
        return "\n".join(str(f) for f in self.failures)


@dataclass
class BasicFibration:
    """The cosimplicial diagram of slices of a function p: E -> B,
    augmented by c0 = C/B --d = p*--> c1 = C/E.  p is d.u; c2 and c3 lie
    over E2 = E×_B E and E3 = E×_B E×_B E; d_i and del_i pull back along
    the projections omitting coordinate i, s0 along the diagonal E -> E2."""

    c0: SliceCategory
    c1: SliceCategory
    c2: SliceCategory
    c3: SliceCategory
    d: ChangeOfBase   # c0 -> c1
    d0: ChangeOfBase  # c1 -> c2
    d1: ChangeOfBase  # c1 -> c2
    s0: ChangeOfBase  # c2 -> c1
    del0: ChangeOfBase  # c2 -> c3
    del1: ChangeOfBase
    del2: ChangeOfBase
    sigma01: NatTrans
    sigma02: NatTrans
    sigma12: NatTrans
    n0: NatTrans
    n1: NatTrans
    theta: NatTrans  # d1∘d => d0∘d

    def constraint_types(self):
        """Each constraint with the composites it must relate, read off the
        current faces (``_cells``), so a cell built for other faces shows."""
        return [(name, getattr(self, name), src, dst)
                for name, src, dst in _cells(
                    self.c1, self.d, self.d0, self.d1, self.s0,
                    self.del0, self.del1, self.del2)]


def _cells(c1, d, d0, d1, s0, del0, del1, del2) -> list[tuple]:
    """The six constraint cells, each as (name, source composite, target
    composite), read off the faces: the one list that ``basic_fibration``
    builds the cells from and the gate types them by.  A cell is indexed
    by its source composite's source, c1 or, for theta, c0."""
    return [
        ("sigma01", d0.then(del1), d0.then(del0)),
        ("sigma02", d0.then(del2), d1.then(del0)),
        ("sigma12", d1.then(del2), d1.then(del1)),
        ("n0", d0.then(s0), IdentityCartFunctor(c1)),
        ("n1", d1.then(s0), IdentityCartFunctor(c1)),
        ("theta", d.then(d1), d.then(d0)),
    ]


def is_descent_datum(diagram: BasicFibration, w: FinFunction,
                     rho) -> tuple[bool, Optional[str]]:
    """Decide the two datum equations, each as two paths of morphisms with
    equal composites (``Category.commutes``, pointwise on slices).

    The identity equation is checked first; the failing one is named.
    The cocycle is stated without inverses, as in the module docstring.
    The faces of rho are followed as views (``CartFunctor.image``), never
    built: rho commutes over E×_B E, as its constructor checked.
    """
    c1, c3 = diagram.c1, diagram.c3
    if rho.src != diagram.d1.obj(w) or rho.dst != diagram.d0.obj(w):
        raise CategoryError(f"rho has wrong type: {rho.src} -> {rho.dst}")

    if not c1.commutes([diagram.s0.image(rho), diagram.n0.at(w)], [diagram.n1.at(w)]):
        return False, "identity"
    if not c3.commutes(
            [diagram.sigma12.at(w), diagram.del1.image(rho), diagram.sigma01.at(w)],
            [diagram.del2.image(rho), diagram.sigma02.at(w), diagram.del0.image(rho)]):
        return False, "associativity"
    return True, None


def validate_coherence(diagram: BasicFibration, bound: Optional[int] = None) -> CoherenceReport:
    """Check each constraint cell for a natural isomorphism between the
    composites the current faces give it, then the two presentation
    equations of the augmentation.

    A cell is first asked for the base it is indexed over: one indexed
    over a base other than the one the current faces index it by, as
    theta in the place of a cell indexed by c1, is reported as "<cell>:
    wrong index" with the two bases as lhs and rhs, before any component
    is built, and ends the check.  Bases are compared, not categories, so
    a cell of another fibration of an equal map is checked as any other.
    Then the cell is checked by ``fincat.iso_failures``, as
    ``NatTrans.check_iso`` is: typing and invertibility on every
    enumerated object, then naturality, by legs on every enumerated object
    (the faces track tops) and, only where legs fail, by squares on the
    generators of its index category, each failing one reported.  Each
    failure is reported as "<cell>: <what>" at its object or generator, a
    mistyped component with the ends it has and should have as lhs and
    rhs, and one whose triangle its constructor refuses as "does not
    commute", not raised.  A cell with such a component ends the check at
    once.

    Once the constraints pass, ``is_descent_datum`` on (d B0, theta_B0)
    checks the presentation equations: the first that fails is recorded
    per B0, as "presentation identity" or "presentation associativity".

    Slices are infinite, so the verdict is relative to the enumeration bound;
    the report is a regression harness, the universal-property argument is
    the global guarantee.
    """
    report = CoherenceReport()
    for name, cell, src_f, dst_f in diagram.constraint_types():
        if cell.source.src.base != src_f.src.base:
            report.add(f"{name}: wrong index", None, cell.source.src.base, src_f.src.base)
            return report
        failures = iso_failures(src_f, dst_f, cell.at, bound)
        for what, where, found, wanted in failures:
            report.add(f"{name}: {what}", where, found, wanted)
        if any(what in MISTYPED for what, *_ in failures):
            return report

    if report.failures:
        return report

    for b0 in diagram.c0.objects(bound):
        ok, which = is_descent_datum(diagram, diagram.d.obj(b0), diagram.theta.at(b0))
        if not ok:
            report.add(f"presentation {which}", b0)

    return report


def basic_fibration(p: FinFunction, bound: int = 4) -> BasicFibration:
    """Build the slice diagram of p with its canonical constraint cells.

    Each call builds a fresh diagram, keeping nothing; a p that is no
    ``FinFunction`` raises ``FinSetError``.
    """
    if not isinstance(p, FinFunction):
        raise FinSetError(f"p must be a FinFunction, not {p!r}")
    pb2 = pullback(p, p)
    q1, q0 = pb2.pr1, pb2.pr2  # pr1 keeps coordinate 0 (omits 1), pr2 omits 0
    pb3 = pullback(q1.then(p), p)
    r2 = pb3.pr1  # drops the last coordinate
    r0 = mediating_map(pb2, pb3.pr1.then(q0), pb3.pr2)  # drops coordinate 0
    r1 = mediating_map(pb2, pb3.pr1.then(q1), pb3.pr2)  # drops coordinate 1
    diag = mediating_map(pb2, FinFunction.identity(p.dom), FinFunction.identity(p.dom))

    c0 = SliceCategory(p.cod, bound)
    c1 = SliceCategory(p.dom, bound)
    c2 = SliceCategory(pb2.obj, bound)
    c3 = SliceCategory(pb3.obj, bound)

    d = ChangeOfBase(p, c0, c1)
    d0 = ChangeOfBase(q0, c1, c2)
    d1 = ChangeOfBase(q1, c1, c2)
    s0 = ChangeOfBase(diag, c2, c1)
    del0 = ChangeOfBase(r0, c2, c3)
    del1 = ChangeOfBase(r1, c2, c3)
    del2 = ChangeOfBase(r2, c2, c3)

    cells = {name: comparison_iso(src, dst, name)
             for name, src, dst in _cells(c1, d, d0, d1, s0, del0, del1, del2)}
    return BasicFibration(
        c0=c0, c1=c1, c2=c2, c3=c3,
        d=d, d0=d0, d1=d1, s0=s0, del0=del0, del1=del1, del2=del2, **cells)
