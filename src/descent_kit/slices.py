"""Slice categories over the finite-sets backend and change of base.

A slice object over B is a function X -> B; a morphism is a commuting
triangle.  Change of base along p: E -> B is pullback along p, with the
chosen pullbacks of finset; each functor caches its values so repeated
applications return identical (not merely isomorphic) results.

Every functor built here tracks a "top" projection F(X) -> X.  Two
composites of such functors whose underlying base maps agree are pullbacks
of the same cospan, so their values are canonically isomorphic by matching
elements on (top, base); ``comparison_iso`` packages that matching as a
natural isomorphism.  These comparisons are exactly the constraint cells of
the cosimplicial diagram of a morphism.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from .finset import (FinFunction, FinSetObj, FinSetError, all_functions,
                     canonical_set, mediating_map, pullback)
from .fincat import (CategoryError, ComputableCategory, Functor,
                     IdentityFunctor, NatIso, NatTrans)


@dataclass(frozen=True)
class SliceObj:
    """An object of C/B: a carrier with its structure map to the base."""

    to_base: FinFunction

    @property
    def carrier(self) -> FinSetObj:
        return self.to_base.dom

    @property
    def base(self) -> FinSetObj:
        return self.to_base.cod

    def __repr__(self):
        return f"⟨{self.to_base!r}⟩"


@dataclass(frozen=True)
class SliceMor:
    """A commuting triangle between slice objects."""

    src: SliceObj
    dst: SliceObj
    fn: FinFunction

    def __post_init__(self):
        if self.fn.dom != self.src.carrier or self.fn.cod != self.dst.carrier:
            raise CategoryError(f"{self.fn!r} does not run between the carriers "
                                f"of {self.src!r} and {self.dst!r}")

    def __repr__(self):
        return f"{self.fn!r}:{self.src!r}→{self.dst!r}"


class SliceCategory(ComputableCategory):
    """C/B for the finite-sets backend, enumerated up to carrier size."""

    def __init__(self, base: FinSetObj, bound: int = 4):
        self.base = base
        self.default_bound = bound
        self._hom_cache: dict = {}
        self._obj_cache: dict = {}

    def obj(self, to_base: FinFunction) -> SliceObj:
        if to_base.cod != self.base:
            raise CategoryError(f"not a slice object over {self.base}")
        return SliceObj(to_base)

    def objects(self, bound: Optional[int] = None) -> list[SliceObj]:
        """Canonical objects: one per fiber-size vector with total <= bound.

        The object with fibers (n_b) has carrier labels (b, i), i < n_b.
        """
        bound = self.default_bound if bound is None else bound
        if bound in self._obj_cache:
            return list(self._obj_cache[bound])
        out = []
        base_elems = self.base.elements
        for vec in _vectors(len(base_elems), bound):
            mapping = tuple(((b, i), b) for b, n in zip(base_elems, vec) for i in range(n))
            carrier = FinSetObj(tuple(lbl for lbl, _ in mapping))
            out.append(SliceObj(FinFunction(carrier, self.base, mapping)))
        self._obj_cache[bound] = out
        return list(out)

    def hom(self, x: SliceObj, y: SliceObj) -> list[SliceMor]:
        ck = (x, y)
        if ck in self._hom_cache:
            return self._hom_cache[ck]
        cands = []
        for e in x.carrier.elements:
            b = x.to_base(e)
            fits = [d for d in y.carrier.elements if y.to_base(d) == b]
            if not fits:
                self._hom_cache[ck] = []
                return []
            cands.append(fits)
        out = []
        for choice in itertools.product(*cands):
            fn = FinFunction(x.carrier, y.carrier, tuple(zip(x.carrier.elements, choice)))
            out.append(SliceMor(x, y, fn))
        self._hom_cache[ck] = out
        return out

    def identity(self, x: SliceObj) -> SliceMor:
        return SliceMor(x, x, FinFunction.identity(x.carrier))

    def compose(self, g: SliceMor, f: SliceMor) -> SliceMor:
        if f.dst != g.src:
            raise CategoryError("non-composable slice morphisms")
        return SliceMor(f.src, g.dst, f.fn.then(g.fn))


def _vectors(k: int, total: int):
    """All k-vectors of naturals with sum <= total, lexicographically."""
    if k == 0:
        yield ()
        return
    for head in range(total + 1):
        for tail in _vectors(k - 1, total - head):
            yield (head,) + tail


class CartFunctor(Functor):
    """A functor between slice categories carrying a top projection.

    top(x): F(x).carrier -> x.carrier identifies where each element of the
    value came from; together with the structure map of F(x) it pins every
    element of a (composite of) chosen pullback(s).
    """

    def top(self, x: SliceObj) -> FinFunction:
        raise NotImplementedError

    def then(self, other: Functor) -> Functor:
        if isinstance(other, CartFunctor):
            return ComposedCartFunctor(self, other)
        return super().then(other)


class ComposedCartFunctor(CartFunctor):
    def __init__(self, first: CartFunctor, second: CartFunctor):
        Functor.__init__(self, first.src, second.dst,
                         lambda x: second.obj(first.obj(x)),
                         lambda m: second.mor(first.mor(m)),
                         name=f"{second.name}∘{first.name}")
        self.first = first
        self.second = second

    def top(self, x: SliceObj) -> FinFunction:
        return self.second.top(self.first.obj(x)).then(self.first.top(x))


class IdentityCartFunctor(CartFunctor):
    def __init__(self, cat: SliceCategory):
        Functor.__init__(self, cat, cat, lambda x: x, lambda m: m, name="Id")

    def top(self, x: SliceObj) -> FinFunction:
        return FinFunction.identity(x.carrier)


class ChangeOfBase(CartFunctor):
    """Pullback along u: A -> B, as a functor C/B -> C/A."""

    def __init__(self, u: FinFunction, src: SliceCategory, dst: SliceCategory):
        if src.base != u.cod or dst.base != u.dom:
            raise CategoryError("change of base must go from C/cod(u) to C/dom(u)")
        self.u = u
        self._pullbacks: dict = {}
        Functor.__init__(self, src, dst, self._apply_obj, self._apply_mor,
                         name=f"({u!r})*")

    def _apply_obj(self, x: SliceObj) -> SliceObj:
        pb = pullback(x.to_base, self.u)
        self._pullbacks[x] = pb
        return SliceObj(pb.pr2)

    def top(self, x: SliceObj) -> FinFunction:
        self.obj(x)
        return self._pullbacks[x].pr1

    def _apply_mor(self, m: SliceMor) -> SliceMor:
        fx, fy = self.obj(m.src), self.obj(m.dst)
        q1 = self.top(m.src).then(m.fn)
        fn = mediating_map(self._pullbacks[m.dst], q1, fx.to_base)
        return SliceMor(fx, fy, fn)


class SigmaAlong(CartFunctor):
    """Post-composition with u: A -> B, as a functor C/A -> C/B."""

    def __init__(self, u: FinFunction, src: SliceCategory, dst: SliceCategory):
        if src.base != u.dom or dst.base != u.cod:
            raise CategoryError("sigma must go from C/dom(u) to C/cod(u)")
        self.u = u
        Functor.__init__(self, src, dst,
                         lambda x: SliceObj(x.to_base.then(u)),
                         lambda m: SliceMor(self.obj(m.src), self.obj(m.dst), m.fn),
                         name=f"Σ({u!r})")

    def top(self, x: SliceObj) -> FinFunction:
        return FinFunction.identity(x.carrier)


def slice_isos(x: SliceObj, y: SliceObj):
    """All isomorphisms x -> y over the base: fiberwise bijections."""
    by_fiber_x: dict = {}
    for e in x.carrier.elements:
        by_fiber_x.setdefault(x.to_base(e), []).append(e)
    by_fiber_y: dict = {}
    for e in y.carrier.elements:
        by_fiber_y.setdefault(y.to_base(e), []).append(e)
    if set(by_fiber_x) != set(by_fiber_y):
        return
    keys = sorted(by_fiber_x)
    if any(len(by_fiber_x[k]) != len(by_fiber_y[k]) for k in keys):
        return
    per_fiber = [[list(zip(by_fiber_x[k], perm))
                  for perm in itertools.permutations(by_fiber_y[k])]
                 for k in keys]
    for combo in itertools.product(*per_fiber):
        table = dict(p for fiber in combo for p in fiber)
        yield SliceMor(x, y, FinFunction.of(x.carrier, y.carrier, table))


def match_by_legs(src: FinSetObj, src_legs, dst: FinSetObj, dst_legs) -> FinFunction:
    """The unique map src -> dst commuting with the given (jointly monic) legs."""
    keyed = {}
    for e in dst.elements:
        k = tuple(leg(e) for leg in dst_legs)
        if k in keyed:
            raise FinSetError(f"legs do not pin down {dst}: {k} hit twice")
        keyed[k] = e
    try:
        assignment = {e: keyed[tuple(leg(e) for leg in src_legs)] for e in src.elements}
    except KeyError as exc:
        raise FinSetError(f"no match for leg value {exc} in {dst}") from exc
    return FinFunction.of(src, dst, assignment)


def comparison_iso(f: CartFunctor, g: CartFunctor, name: str = "") -> NatIso:
    """Canonical natural isomorphism F => G between composites of
    change-of-base functors whose underlying base maps agree.

    The component at x matches elements of F(x) and G(x) on (top, base).
    """

    def component(x: SliceObj) -> SliceMor:
        fx, gx = f.obj(x), g.obj(x)
        fn = match_by_legs(fx.carrier, [f.top(x), fx.to_base],
                           gx.carrier, [g.top(x), gx.to_base])
        if not fn.is_bijective():
            raise FinSetError(f"comparison {name} not invertible at {x}")
        return SliceMor(fx, gx, fn)

    def inverse(x: SliceObj) -> SliceMor:
        c = component(x)
        return SliceMor(c.dst, c.src, c.fn.inverse())

    return NatIso(f, g, component, inverse, name=name)


@dataclass
class Adjunction:
    """A strict adjunction left ⊣ right presented by unit and counit."""

    left: Functor
    right: Functor
    unit: NatTrans    # Id => right∘left, on the source of left
    counit: NatTrans  # left∘right => Id, on the source of right

    def check_triangles(self, bound: Optional[int] = None) -> list[str]:
        report = []
        a, b = self.left.src, self.right.src
        for x in a.objects(bound):
            lx = self.left.obj(x)
            lhs = b.compose(self.counit.at(lx), self.left.mor(self.unit.at(x)))
            if lhs != b.identity(lx):
                report.append(f"triangle (εL)(Lη) fails at {x}")
        for y in b.objects(bound):
            ry = self.right.obj(y)
            lhs = a.compose(self.right.mor(self.counit.at(y)), self.unit.at(ry))
            if lhs != a.identity(ry):
                report.append(f"triangle (Rε)(ηR) fails at {y}")
        return report

    def hom_bijection_counts(self, bound: Optional[int] = None) -> list[str]:
        """Check |hom(L w, x)| = |hom(w, R x)| on enumerated objects."""
        report = []
        a, b = self.left.src, self.right.src
        for w in a.objects(bound):
            for x in b.objects(bound):
                n_left = len(b.hom(self.left.obj(w), x))
                n_right = len(a.hom(w, self.right.obj(x)))
                if n_left != n_right:
                    report.append(f"hom counts differ at ({w},{x}): {n_left} vs {n_right}")
        return report


def sigma_pullback_adjunction(p: FinFunction, slice_e: SliceCategory,
                              slice_b: SliceCategory) -> Adjunction:
    """The adjunction Σ_p ⊣ p* between C/E and C/B."""
    left = SigmaAlong(p, slice_e, slice_b)
    right = ChangeOfBase(p, slice_b, slice_e)

    def unit_at(w: SliceObj) -> SliceMor:
        lw = left.obj(w)
        rlw = right.obj(lw)
        fn = mediating_map(pullback(lw.to_base, p), FinFunction.identity(w.carrier), w.to_base)
        return SliceMor(w, rlw, fn)

    def counit_at(x: SliceObj) -> SliceMor:
        rx = right.obj(x)
        lrx = left.obj(rx)
        return SliceMor(lrx, x, right.top(x))

    unit = NatTrans(IdentityFunctor(slice_e), left.then(right), unit_at, name="η")
    counit = NatTrans(right.then(left), IdentityFunctor(slice_b), counit_at, name="ε")
    return Adjunction(left, right, unit, counit)


class FinSetCategory(ComputableCategory):
    """The category of finite sets, enumerated by canonical sets of size <= bound."""

    def __init__(self, bound: int = 3, prefix: str = "e"):
        self.default_bound = bound
        self.prefix = prefix

    def objects(self, bound: Optional[int] = None) -> list[FinSetObj]:
        bound = self.default_bound if bound is None else bound
        return [canonical_set(n, self.prefix) for n in range(bound + 1)]

    def hom(self, x: FinSetObj, y: FinSetObj) -> list[FinFunction]:
        return list(all_functions(x, y))

    def identity(self, x: FinSetObj) -> FinFunction:
        return FinFunction.identity(x)

    def compose(self, g: FinFunction, f: FinFunction) -> FinFunction:
        return f.then(g)
