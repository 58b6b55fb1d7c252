"""Pseudopullback and comma constructions for (enumerable) categories,
and the decision "is this square a pseudopullback".

Objects of the pseudopullback of F: C -> E <- D : G are triples
(c, d, phi) with phi an explicit isomorphism F c -> G d; morphisms are
pairs (u, v) making the evident square commute.  The comma category is the
same shape with phi an arbitrary morphism.  A square is a pseudopullback
exactly when its canonical comparison into the constructed one is an
equivalence (within the bound).
"""

from __future__ import annotations

from dataclasses import dataclass

from .fincat import (Category, CategoryError, ComputableCategory,
                     EquivalenceReport, Functor, NatIso, NatTrans,
                     all_isomorphisms, is_equivalence, two_sided_inverse)


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


class CommaCategory(ComputableCategory):
    """Comma construction F ↓ G; the filler cell need not be invertible."""

    def __init__(self, f: Functor, g: Functor, bound: int = 3):
        if f.dst != g.dst:
            raise CategoryError("cospan functors must share a codomain")
        self.f = f
        self.g = g
        self.default_bound = bound
        self._objects_cache: dict = {}
        self._hom_cache: dict = {}

    def _connectors(self, fc, gd):
        return self.f.dst.hom(fc, gd)

    def objects(self, bound=None):
        bound = self.default_bound if bound is None else bound
        if bound not in self._objects_cache:
            out = []
            for c in self.f.src.objects(bound):
                fc = self.f.obj(c)
                for d in self.g.src.objects(bound):
                    gd = self.g.obj(d)
                    for phi in self._connectors(fc, gd):
                        out.append(WedgeObj(c, d, phi))
            self._objects_cache[bound] = out
        return list(self._objects_cache[bound])

    def hom(self, x: WedgeObj, y: WedgeObj):
        ck = (x, y)
        if ck not in self._hom_cache:
            e = self.f.dst
            out = []
            for u in self.f.src.hom(x.c, y.c):
                fu = self.f.mor(u)
                left = e.compose(y.phi, fu)  # phi' ∘ F(u)
                for v in self.g.src.hom(x.d, y.d):
                    if e.compose(self.g.mor(v), x.phi) == left:
                        out.append(WedgeMor(x, y, u, v))
            self._hom_cache[ck] = out
        return self._hom_cache[ck]

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
        """The canonical cell F∘pr1 => G∘pr2 with component phi at (c,d,phi)."""
        return NatTrans(self.proj1().then(self.f), self.proj2().then(self.g),
                        lambda x: x.phi, name="filler")


class PseudoPullbackCategory(CommaCategory):
    """The pseudopullback: comma objects whose connector is invertible."""

    def _connectors(self, fc, gd):
        return [f for (f, _) in all_isomorphisms(self.f.dst, fc, gd)]

    def filler(self) -> NatIso:
        e = self.f.dst

        def inverse(x):
            g = two_sided_inverse(e, x.phi, e.hom(x.phi.dst, x.phi.src))
            if g is None:
                raise CategoryError(f"filler at {x} is not invertible")
            return g

        return NatIso(self.proj1().then(self.f), self.proj2().then(self.g),
                      lambda x: x.phi, inverse, name="filler")


def pseudopullback(f: Functor, g: Functor, bound: int = 3) -> PseudoPullbackCategory:
    return PseudoPullbackCategory(f, g, bound)


def comma(f: Functor, g: Functor, bound: int = 3) -> CommaCategory:
    return CommaCategory(f, g, bound)


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
    filler: NatIso


def square_comparison(square: PsSquare, bound: int = 3) -> Functor:
    """The canonical functor corner -> pseudopullback(f, g)."""
    pp = pseudopullback(square.f, square.g, bound)

    def on_obj(a):
        return WedgeObj(square.p1.obj(a), square.p2.obj(a), square.filler.at(a))

    def on_mor(m):
        return WedgeMor(on_obj(m.src), on_obj(m.dst),
                        square.p1.mor(m), square.p2.mor(m))

    return Functor(square.corner, pp, on_obj, on_mor, name="corner comparison")


def is_pseudopullback_square(square: PsSquare, bound: int = 3) -> tuple[bool, EquivalenceReport]:
    """Equivalence of the canonical comparison, with the failing check as witness."""
    naturality = square.filler.check_naturality(bound)
    if naturality:
        raise CategoryError("malformed square: " + "; ".join(naturality))
    comparison = square_comparison(square, bound)
    report = is_equivalence(comparison, bound)
    return report.level == "Equivalence", report


def check_universal_property(f: Functor, g: Functor, bound: int = 2) -> list[str]:
    """Bounded universal-property audit of the constructed pseudopullback.

    Cones from the terminal shape correspond to objects, cones from the
    arrow shape to morphisms; both correspondences must be bijective.
    """
    pp = pseudopullback(f, g, bound)
    report = []
    e = f.dst

    point_cones = [(c, d, phi)
                   for c in f.src.objects(bound)
                   for d in g.src.objects(bound)
                   for (phi, _) in all_isomorphisms(e, f.obj(c), g.obj(d))]
    objs = pp.objects(bound)
    if len(point_cones) != len(objs):
        report.append(f"terminal-shape cones: {len(point_cones)} vs objects {len(objs)}")

    arrow_cones = 0
    for x in objs:
        for y in objs:
            for u in f.src.hom(x.c, y.c):
                for v in g.src.hom(x.d, y.d):
                    if e.compose(g.mor(v), x.phi) == e.compose(y.phi, f.mor(u)):
                        arrow_cones += 1
    n_mors = sum(len(pp.hom(x, y)) for x in objs for y in objs)
    if arrow_cones != n_mors:
        report.append(f"arrow-shape cones: {arrow_cones} vs morphisms {n_mors}")
    return report
