"""Pseudopullbacks of (enumerable) categories, and the decision "is this
square a pseudopullback".

Objects of the pseudopullback of F: C -> E <- D : G are triples
(c, d, phi) with phi an explicit isomorphism F c -> G d; morphisms are
pairs (u, v) making the evident square commute.  A square is a
pseudopullback exactly when its canonical comparison into the constructed
one is an equivalence (within the bound).
"""

from __future__ import annotations

from dataclasses import dataclass

from .fincat import (EQUIVALENCE, Category, CategoryError, ComputableCategory,
                     EquivalenceReport, Functor, NatTrans, is_equivalence)


@dataclass(frozen=True)
class WedgeObj:
    """(c, d, phi: F c -> G d); phi is stored, not an equivalence class."""

    c: object
    d: object
    phi: object

    def __repr__(self):
        return f"({self.c!r}, {self.d!r}, {self.phi!r})"


@dataclass(frozen=True)
class WedgeMor:
    src: WedgeObj
    dst: WedgeObj
    u: object  # morphism c -> c'
    v: object  # morphism d -> d'


class PseudoPullbackCategory(ComputableCategory):
    """The pseudopullback of a cospan F: C -> E <- D : G."""

    def __init__(self, f: Functor, g: Functor, bound: int = 3):
        if f.dst != g.dst:
            raise CategoryError("cospan functors must share a codomain")
        super().__init__(bound)
        self.f = f
        self.g = g

    def _objects(self, bound):
        e = self.f.dst
        return [WedgeObj(c, d, phi) for c in self.f.src.objects(bound)
                for d in self.g.src.objects(bound)
                for phi in e.hom(self.f.obj(c), self.g.obj(d)) if e.is_isomorphism(phi)]

    def _hom(self, x: WedgeObj, y: WedgeObj):
        e = self.f.dst
        out = []
        for u in self.f.src.hom(x.c, y.c):
            for v in self.g.src.hom(x.d, y.d):
                # G(v) ∘ phi = phi' ∘ F(u)
                if e.commutes([x.phi, self.g.image(v)], [self.f.image(u), y.phi]):
                    out.append(WedgeMor(x, y, u, v))
        return out

    def identity(self, x: WedgeObj):
        return WedgeMor(x, x, self.f.src.identity(x.c), self.g.src.identity(x.d))

    def compose(self, g2: WedgeMor, f2: WedgeMor):
        if f2.dst != g2.src:
            raise CategoryError("non-composable wedge morphisms")
        return WedgeMor(f2.src, g2.dst,
                        self.f.src.compose(g2.u, f2.u),
                        self.g.src.compose(g2.v, f2.v))

    def proj1(self) -> Functor:
        return Functor(self, self.f.src, lambda x: x.c, lambda m: m.u, name="pr1")

    def proj2(self) -> Functor:
        return Functor(self, self.g.src, lambda x: x.d, lambda m: m.v, name="pr2")

    def filler(self) -> NatTrans:
        """The canonical invertible cell F∘pr1 => G∘pr2 with component phi
        at (c, d, phi)."""
        return NatTrans(self.proj1().then(self.f), self.proj2().then(self.g),
                        lambda x: x.phi, name="filler")


@dataclass
class PsSquare:
    """A candidate pseudopullback square.

        corner --p1--> C
          |            |
          p2           f      filler: f∘p1 => g∘p2, invertible
          v            v
          D ----g----> E
    """

    corner: Category
    p1: Functor  # corner -> C
    p2: Functor  # corner -> D
    f: Functor   # C -> E
    g: Functor   # D -> E
    filler: NatTrans


def is_pseudopullback_square(square: PsSquare, bound: int = 3) -> tuple[bool, EquivalenceReport]:
    """Equivalence of the canonical comparison corner -> the pseudopullback
    of f and g, with the failing check as witness."""
    malformed = square.filler.check_iso(bound)
    if malformed:
        raise CategoryError("malformed square: " + "; ".join(malformed))

    def on_obj(a):
        return WedgeObj(square.p1.obj(a), square.p2.obj(a), square.filler.at(a))

    def on_mor(m):
        return WedgeMor(on_obj(m.src), on_obj(m.dst),
                        square.p1.mor(m), square.p2.mor(m))

    comparison = Functor(square.corner, PseudoPullbackCategory(square.f, square.g, bound),
                         on_obj, on_mor, name="corner comparison")
    report = is_equivalence(comparison, bound)
    return report.level == EQUIVALENCE, report
