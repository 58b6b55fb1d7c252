"""Targeted corruptions for mutation testing.

Each function produces a structurally well-typed but mathematically wrong
variant of a construction.  The test suite runs the corrupted object
through the relevant checker and demands the corruption is caught; a
silent pass would mean a check has gone soft.
"""

from __future__ import annotations

from .fincat import NatTrans
from .finset import FinFunction
from .cosimplicial import BasicFibration
from .descent import DescCategory, DescentDatum, DescMor
from .monadic import Monad
from .slices import Adjunction, SliceMor


def _fiber_twist(obj: FinFunction) -> FinFunction:
    """Reverse each fiber of a slice object; nontrivial on fibers of size >= 2."""
    table = {a: b for fiber in obj.fibers().values() for a, b in zip(fiber, reversed(fiber))}
    return FinFunction.of(obj.dom, obj.dom, table)


def _twisted(cell: NatTrans, name: str) -> NatTrans:
    """The cell with each component followed by the fiber twist of its target."""

    def component(x):
        c = cell.at(x)
        return SliceMor(c.src, c.dst, c.fn.then(_fiber_twist(c.dst)))

    return NatTrans(cell.source, cell.target, component, name=name)


def invert_theta(fib: BasicFibration) -> BasicFibration:
    """Twist theta by the fiber-reversing deck transformation.

    Typechecks as d1∘d => d0∘d but breaks the presentation equations (and
    naturality) as soon as some fiber has two elements.
    """
    return fib._replace(theta=_twisted(fib.theta, "theta (twisted)"))


def swap_face_convention(fib: BasicFibration) -> BasicFibration:
    """Swap the two level-1 faces while keeping the constraint cells.

    The constraints were built for the omit-i convention, so their sources
    and targets no longer match the diagram's composites.
    """
    return fib._replace(d0=fib.d1, d1=fib.d0)


class _WithoutCocycle(DescCategory):
    def _objects(self):
        out = []
        for datum in super()._objects():
            out.append(datum)
            rho = datum.rho
            over = next((points for (e0, e1), points in rho.src.fibers().items()
                         if e0 != e1 and len(points) >= 2), None)
            if over is not None:
                table = dict(rho.fn.mapping)
                table.update(zip(over, reversed(rho.values(over))))
                fn = FinFunction.of(rho.src.dom, rho.dst.dom, table)
                out.append(DescentDatum(datum.w, SliceMor(rho.src, rho.dst, fn)))
        return out


def descent_category_without_cocycle(fib: BasicFibration, bound: int) -> DescCategory:
    """Desc(p) with, after each datum, its rho reversed over the first point
    (e0, e1) of E×_B E, e0 != e1, with two or more points above it: the
    identity equation, read over the diagonal, holds; the cocycle fails."""
    return _WithoutCocycle(fib, bound)


class _WithoutHomCondition(DescCategory):
    def _hom(self, x, y):
        return [DescMor(x, y, m) for m in self.diagram.c1.hom(x.w, y.w)]


def descent_category_without_hom_condition(fib: BasicFibration, bound: int) -> DescCategory:
    """Descent category whose morphisms are not required to commute with rho."""
    return _WithoutHomCondition(fib, bound)


def broken_mu(monad: Monad) -> Monad:
    """Twist the multiplication fiberwise; breaks the monad laws."""
    return Monad(monad.t, monad.eta, _twisted(monad.mu, "mu (twisted)"))


def broken_counit(adj: Adjunction) -> Adjunction:
    """Twist the counit fiberwise; breaks a triangle identity."""
    return Adjunction(adj.left, adj.right, adj.unit, _twisted(adj.counit, "ε (twisted)"))
