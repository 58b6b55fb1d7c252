"""Targeted corruptions for mutation testing.

Each function produces a structurally well-typed but mathematically wrong
variant of a construction.  The test suite runs the corrupted object
through the relevant checker and demands the corruption is caught; a
silent pass would mean a check has gone soft.
"""

from __future__ import annotations

import dataclasses

from .fincat import NatIso, NatTrans
from .finset import FinFunction
from .cosimplicial import AugCosimplicial3, BasicFibration
from .descent import (DescCategory, DescentDatum, DescMor, canonicalize_datum,
                      is_descent_datum)
from .monadic import Monad
from .slices import Adjunction, SliceMor, SliceObj, slice_isos


def _fiber_twist(obj: SliceObj) -> FinFunction:
    """Reverse each fiber of a slice object; nontrivial on fibers of size >= 2."""
    by_fiber: dict = {}
    for e in obj.carrier.elements:
        by_fiber.setdefault(obj.to_base(e), []).append(e)
    table = {}
    for fiber in by_fiber.values():
        for a, b in zip(fiber, reversed(fiber)):
            table[a] = b
    return FinFunction.of(obj.carrier, obj.carrier, table)


def invert_theta(fib: BasicFibration) -> BasicFibration:
    """Twist theta by the fiber-reversing deck transformation.

    Typechecks as d1∘d => d0∘d but breaks the presentation equations (and
    naturality) as soon as some fiber has two elements.
    """
    good = fib.theta

    def component(x):
        c = good.at(x)
        twist = _fiber_twist(c.dst)
        return SliceMor(c.src, c.dst, c.fn.then(twist))

    def inverse(x):
        c = component(x)
        return SliceMor(c.dst, c.src, c.fn.inverse())

    bad = NatIso(good.source, good.target, component, inverse, name="theta (twisted)")
    return dataclasses.replace(fib, theta=bad)


def swap_face_convention(fib: BasicFibration) -> BasicFibration:
    """Swap the two level-1 faces while keeping the constraint cells.

    The constraints were built for the omit-i convention, so their sources
    and targets no longer match the diagram's composites.
    """
    return dataclasses.replace(fib, d0=fib.d1, d1=fib.d0)


class _WithoutCocycle(DescCategory):
    def objects(self, bound=None):
        bound = self.default_bound if bound is None else bound
        out = []
        for w in self.diagram.c1.objects(bound):
            for rho in slice_isos(self.diagram.d1.obj(w), self.diagram.d0.obj(w)):
                # is_descent_datum tests the identity equation first
                _, failed = is_descent_datum(self.diagram, w, rho)
                if failed == "identity":
                    continue
                datum = DescentDatum(w, rho)
                rep, _ = canonicalize_datum(self.diagram, datum)
                if rep == datum:
                    out.append(datum)
        return out


def descent_category_without_cocycle(fib: AugCosimplicial3, bound: int) -> DescCategory:
    """Enumerate 'descent data' filtered by the identity equation only."""
    return _WithoutCocycle(fib, bound)


class _WithoutHomCondition(DescCategory):
    def hom(self, x, y):
        return [DescMor(x, y, m) for m in self.diagram.c1.hom(x.w, y.w)]


def descent_category_without_hom_condition(fib: AugCosimplicial3, bound: int) -> DescCategory:
    """Descent category whose morphisms are not required to commute with rho."""
    return _WithoutHomCondition(fib, bound)


def broken_mu(monad: Monad) -> Monad:
    """Twist the multiplication fiberwise; breaks the monad laws."""
    good = monad.mu

    def component(x):
        c = good.at(x)
        return SliceMor(c.src, c.dst, c.fn.then(_fiber_twist(c.dst)))

    return Monad(monad.t, monad.eta,
                 NatTrans(good.source, good.target, component, name="mu (twisted)"))


def broken_counit(adj: Adjunction) -> Adjunction:
    """Twist the counit fiberwise; breaks a triangle identity."""
    good = adj.counit

    def component(x):
        c = good.at(x)
        return SliceMor(c.src, c.dst, c.fn.then(_fiber_twist(c.dst)))

    return Adjunction(adj.left, adj.right, adj.unit,
                      NatTrans(good.source, good.target, component, name="ε (twisted)"))
