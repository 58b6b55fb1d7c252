"""Slice categories over the finite-sets backend and change of base.

An object of C/B is its structure map: a ``FinFunction`` X -> B, whose
domain X is the carrier.  A morphism is a commuting triangle, a
``SliceMor``, whose one constructor checks that it commutes, so
nothing downstream asks again; every builder goes through it, those
whose triangles commute by construction included.  It stores its
hash at construction and compares as ``FinFunction`` does, since the
memos of functors and transformations hash them on every lookup; like
``FinFunction`` it is a plain slotted class whose constructor writes
its slots, immutable by contract and not enforced at run time.  The
canonical objects of C/B are listed by fiber-size vector, and
``objects_constant_on`` lists only those whose fiber sizes are equal
over each of given blocks of base points, by the same vector-to-object
rule and in the same order.  Change of base along p: E -> B is pullback
along p, with the chosen pullbacks of finset; each functor caches its
values so repeated applications return identical (not merely isomorphic)
results.  A slice category holds the bound on the carrier sizes of the
objects it enumerates, fixed and checked where it is built.  A functor
has one rule on the elements of the image of a
morphism m, its lift (``CartFunctor._lift``): w goes to the element whose
top is m(top w), over the base point of w.  ``mor(m)`` tabulates the rule
(``CartFunctor.lift``) into one checked function, and caches it;
``image(m)`` is a ``SliceImage``, the ends of the image and the same rule,
followed where a path is only compared, never built and never stored.  A
hom-set of C/B is a ``HomSet``: counted off the fibers of its target and
built on first read.  The enumerated C/B also lists generators
(transpositions, merges and inclusions of fibers) whose composites give
every morphism, so naturality squares, where they run, are checked on
them alone.

``SliceCategory.commutes`` decides whether two paths of triangles have
equal composites pointwise: each element of the common source is pushed
through every step of each path by ``finset.follow``, a triangle by its
table and a view by its rule, so a square or a law is checked without
building a composite function, a triangle or a functor's image.

Every functor built here reads the top of each element of F(X), the
element of X it came from, as a plain value (``CartFunctor.legs``).  By
default a functor keeps the carrier, as Σ and the identity do: an
element is its own top.  Change of base reads the top off the pair
(top, base) that an element of a chosen pullback is, with no projection
table built, and a composite reads it through its second factor, then
its first.  By the universal property an element of a chosen pullback
is fixed by its top and its base point, which is how the coherence gate
decides naturality (``fincat.iso_failures``), and ``CartFunctor._lift``
computes it from those two legs, with no search: change of base pairs
them, a composite lifts through its first factor over the base points
pushed down its second's base map (``_down``) and then through its
second, and a functor that keeps the carrier returns the tops.  No lift
checks what it returns; every built map ends in a checked constructor.
That is the one way the library builds a map into a chosen pullback from
legs: ``CartFunctor.lift`` tabulates the lifted elements with the checked
constructor, whose codomain check is the check that each exists, for
F(m) itself, the unit of Σ_u ⊣ u*, gluing (``descent.descend``),
``monadic`` and the comparisons below; the triangle built from it checks
that each lies over its base point.  Two composites of such functors
whose base maps agree are pullbacks of one cospan, and ``comparison_iso``
sends each element of F(x) to the element of G(x) lifted from its own
legs, checking that the component is a bijection
(``SliceCategory.is_isomorphism``'s test).  These comparisons are the
constraint cells of the cosimplicial diagram of a morphism.
``match_by_legs`` matches two tables of leg values; no library code
calls it: it is the tests' reference for the lifted maps.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import NamedTuple

from .finset import FinFunction, FinSetObj, FinSetError, follow, pullback
from .fincat import (CategoryError, ComputableCategory, ComposedFunctor,
                     Functor, HomSet, IdentityFunctor, NatTrans, NotCommuting,
                     checked_bound, path_ends)


class SliceMor:
    """A commuting triangle x -> y between objects of C/B, each its map to
    the base: fn runs between their domains.  fn alone does not fix y,
    whose structure map the triangle keeps.  The constructor raises
    ``CategoryError`` unless fn runs between the carriers, and its
    subclass ``NotCommuting`` unless x and y lie over one base and
    y ∘ fn = x, read off the tables in carrier order.  Immutable by
    contract: its slots are written once, by the constructor."""

    __slots__ = ("src", "dst", "fn", "_hash")

    def __init__(self, src: FinFunction, dst: FinFunction, fn: FinFunction):
        self.src = src
        self.dst = dst
        self.fn = fn
        if fn.dom != src.dom or fn.cod != dst.dom:
            raise CategoryError(f"{fn!r} does not run between the carriers "
                                f"of {src!r} and {dst!r}")
        if src.cod != dst.cod:
            raise NotCommuting(f"{self!r} spans two bases, {src.cod} and {dst.cod}")
        if dst.values(fn.values(fn.dom.elements)) != src.values(src.dom.elements):
            raise NotCommuting(f"{self!r} does not commute over the base")
        self._hash = hash((src, dst, fn))

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self._hash == other._hash and self.fn == other.fn
                and self.src == other.src and self.dst == other.dst)

    def __repr__(self):
        return f"{self.fn!r}:{self.src!r}→{self.dst!r}"

    def values(self, elements) -> list:
        """The images of elements under fn, read off its table."""
        return self.fn.values(elements)


class SliceImage:
    """F(m) for a ``CartFunctor`` F, followed and never built.

    src and dst are F(m.src) and F(m.dst), so a path types through a view
    as through a triangle.  ``values`` lifts (``CartFunctor._lift``) m
    applied to the legs of the given elements over their base points, the
    rule that builds F(m); m commutes, as its constructor checked, so each
    image lies in the carrier of dst.  Views are made where they are
    followed and not stored.
    """

    __slots__ = ("src", "dst", "_functor", "_m")

    def __init__(self, functor: "CartFunctor", m):
        self.src = functor.obj(m.src)
        self.dst = functor.obj(m.dst)
        self._functor = functor
        self._m = m

    def __repr__(self):
        return f"{self._functor.name}({self._m!r})"

    def values(self, elements) -> list:
        functor, m = self._functor, self._m
        return functor._lift(m.dst, m.values(functor.legs(m.src, elements)),
                             self.src.values(elements))


class SliceCategory(ComputableCategory):
    """C/B for the finite-sets backend: an object is a ``FinFunction`` with
    codomain base, enumerated up to bound, the size of its domain, which
    is checked here (``fincat.checked_bound``)."""

    def __init__(self, base: FinSetObj, bound: int):
        super().__init__()
        self.base = base
        self.bound = checked_bound(bound)

    def _objects(self) -> list[FinFunction]:
        """Canonical objects: one per fiber-size vector with total <= bound,
        the vectors in lexicographic order (``objects_constant_on`` with no
        blocks)."""
        return list(self.objects_constant_on(()))

    def objects_constant_on(self, blocks):
        """The canonical objects within the category's bound whose fiber
        sizes are equal over the points of each of blocks, disjoint
        nonempty lists of base points, in the order of ``objects`` and one
        at a time.  A block that is empty, holds a point outside the base
        or meets an earlier block raises ``FinSetError``.

        Only those objects are built: a fiber-size vector is chosen entry by
        entry in base order, and the entry of a point that is not the first
        of its block copies the first's, whose choice is charged for the
        whole block.  A vector is fixed by its free entries, so choosing
        them in increasing order keeps the lexicographic order of
        ``objects``, with nothing sorted.  The object with fibers (n_b) has
        carrier labels (b, i), i < n_b.
        """
        base = self.base
        position = {b: i for i, b in enumerate(base.elements)}
        ties = list(range(len(position)))
        costs = [1] * len(ties)
        claimed: set = set()
        for block in blocks:
            if not base.includes(block):
                raise FinSetError(f"block {block!r} is not drawn from the base {base}")
            at = [position[b] for b in block]
            if not at or not claimed.isdisjoint(at) or len(set(at)) < len(at):
                raise FinSetError(f"blocks must be disjoint and nonempty: {block!r}")
            claimed.update(at)
            first = min(at)
            for i in at:
                ties[i] = first
            costs[first] = len(at)
        for vec in _vectors(self.bound, ties, costs):
            labels = tuple([(b, i) for b, n in zip(base.elements, vec) for i in range(n)])
            yield FinFunction(FinSetObj(labels), base, tuple(zip(labels, [b for b, _ in labels])))

    def generators(self) -> list[SliceMor]:
        """Three kinds of morphism between the canonical objects, by source
        in object order and, for each source, fiber by fiber:

        - the adjacent transposition (b, i) <-> (b, i+1) inside a fiber;
        - the merge of the last two points of a fiber;
        - the inclusion into the object with one more point over b, when
          that object is within the bound.

        Every enumerated morphism f: x -> y is a composite of these.  Fiber
        by fiber, f is a permutation, then merges onto its image, then
        inclusions, then a permutation; doing the merges of every fiber
        before any inclusion, no intermediate object is larger than x or y.
        Built on each call: no caller asks twice.
        """
        bound = self.bound
        base_elems = self.base.elements
        k = len(base_elems)
        by_vec = dict(zip(_vectors(bound, range(k), [1] * k), self.objects()))
        out = []
        for vec, x in by_vec.items():
            room = sum(vec) < bound
            for k, (b, n) in enumerate(zip(base_elems, vec)):
                for i in range(n - 1):
                    out.append(_relabel(x, x, {(b, i): (b, i + 1), (b, i + 1): (b, i)}))
                if n >= 2:
                    merged = by_vec[vec[:k] + (n - 1,) + vec[k + 1:]]
                    out.append(_relabel(x, merged, {(b, n - 1): (b, n - 2)}))
                if room:
                    grown = by_vec[vec[:k] + (n + 1,) + vec[k + 1:]]
                    out.append(_relabel(x, grown, {}))
        return out

    def _hom(self, x: FinFunction, y: FinFunction) -> HomSet:
        """Each element of x to a point of y's fiber over its base point:
        the product over b of |y_b|^|x_b| triangles.  A base point of x
        that y misses gives the empty hom-set before any fiber is listed.
        ``_slice_members`` builds the members, each a commuting triangle,
        so ``in`` compares with them."""
        if not y.hits(b for _, b in x.mapping):
            return HomSet(0, list)
        fits = y.fibers()
        cands = [fits[b] for _, b in x.mapping]
        return HomSet(math.prod(map(len, cands)),
                      functools.partial(_slice_members, x, y, cands))

    def identity(self, x: FinFunction) -> SliceMor:
        return SliceMor(x, x, FinFunction.identity(x.dom))

    def compose(self, g: SliceMor, f: SliceMor) -> SliceMor:
        if f.dst != g.src:
            raise CategoryError("non-composable slice morphisms")
        return SliceMor(f.src, g.dst, f.fn.then(g.fn))

    def commutes(self, lhs: list, rhs: list) -> bool:
        """Pointwise: the paths share their endpoints and send each element
        of the source to the same element, following every step with
        ``finset.follow``, a triangle by its table and a ``SliceImage`` by
        its rule; neither composite is built."""
        ends = path_ends(lhs, "slice morphisms")
        if path_ends(rhs, "slice morphisms") != ends:
            return False
        elements = ends[0].dom.elements
        return follow(lhs, elements) == follow(rhs, elements)

    def is_isomorphism(self, m: SliceMor) -> bool:
        """A triangle is invertible exactly when its map is a bijection.
        A triangle over a base other than this category's is no morphism
        of it and raises ``CategoryError``; its constructor saw both ends
        lie over one base, so one end is compared."""
        if m.src.cod != self.base:
            raise CategoryError(f"{m!r} lies over {m.src.cod}, not over {self.base}")
        return m.fn.is_bijective()


def _slice_members(x: FinFunction, y: FinFunction, cands: list) -> list[SliceMor]:
    """hom(x, y) in C/B: each element of x, in carrier order, to each of
    its candidates, the points of y's fiber over its base point."""
    elements = x.dom.elements
    return [SliceMor(x, y, FinFunction(x.dom, y.dom, tuple(zip(elements, choice))))
            for choice in itertools.product(*cands)]


def _relabel(x: FinFunction, y: FinFunction, moved: dict) -> SliceMor:
    """The map x -> y sending each label to itself, or where moved says."""
    return SliceMor(x, y, FinFunction(x.dom, y.dom, tuple(
        (e, moved.get(e, e)) for e in x.dom.elements)))


def _vectors(room: int, ties, costs, head: tuple = ()):
    """The vectors of naturals that extend head, lexicographically: entry i
    copies entry ties[i] where ties[i] < i, and is otherwise free and costs
    costs[i] per unit out of room."""
    i = len(head)
    if i == len(ties):
        yield head
    elif ties[i] < i:
        yield from _vectors(room, ties, costs, head + (head[ties[i]],))
    else:
        for n in range(room // costs[i] + 1):
            yield from _vectors(room - n * costs[i], ties, costs, head + (n,))


class CartFunctor(Functor):
    """A functor between slice categories whose elements have legs.

    The top of an element of F(x) is the element of x it came from;
    together with its base point it pins every element of a (composite
    of) chosen pullback(s).  ``legs(x, elements)`` reads the tops of given
    elements of F(x), or of all of them, as plain values.

    The hooks are ``legs``, ``_lift`` and ``_down``.  ``_lift`` finds the
    elements of F(x) from their two legs, and ``_down`` pushes points of
    the target base down the base map.  ``lift`` tabulates ``_lift`` as a
    checked map into F(x); F(m) is built by lifting (``_on_mor``), and
    ``image(m)`` is F(m) as a ``SliceImage``, which follows the same lift,
    for a path that is only compared.  All default to a functor that keeps
    the carrier over its base: an element is its own top, F(m) has m's
    values and the base map is the identity.

    The contract every override keeps: an element of F(x) is fixed by its
    top and its base point, and F(m) sends an element to the one whose top
    is the image under m of its top, over the same base point.  So a
    transformation between two such functors whose components keep tops
    and base points is natural (``fincat.iso_failures``).
    """

    def legs(self, x: FinFunction, elements=None) -> list:
        """The top in x of each of elements of obj(x), or of every element
        of obj(x) by default: here the elements themselves."""
        if elements is None:
            return list(self.obj(x).dom.elements)
        return elements

    def _lift(self, x: FinFunction, tops: list, bases: list) -> list:
        """The elements of obj(x) with the given tops, elements of the
        carrier of x, over the given points of the target base, one for
        each pair: here the tops themselves.  No lift checks what it
        returns.  The map the caller builds refuses an element outside
        obj(x) by its codomain check (``lift``), and
        the triangle built from it refuses one over another base point, as
        a top here may be, by its commute check (``SliceMor``).  A view
        (``SliceImage``) follows only a triangle that commutes, whose lifts
        are elements."""
        return tops

    def lift(self, x: FinFunction, carrier: FinSetObj, tops: list, bases: list) -> FinFunction:
        """The checked map from carrier into obj(x) sending the i-th element
        to the element lifted (``_lift``) from the i-th of tops and bases:
        its codomain check is the check that each such element exists."""
        return FinFunction(carrier, self.obj(x).dom, tuple(zip(
            carrier.elements, self._lift(x, tops, bases))))

    def _down(self, bases: list) -> list:
        """The image of each of bases, points of the target base, under the
        base map into the source base."""
        return bases

    def _on_mor(self, m: SliceMor) -> SliceMor:
        """The map into obj(m.dst) lifted from legs: each element of
        obj(m.src) to the one whose top is the image under m of its top,
        over the same base point.  m commutes, so each such element exists
        and the triangle commutes; the constructors of the map and of the
        triangle check both."""
        fx = self.obj(m.src)
        fn = self.lift(m.dst, fx.dom, m.values(self.legs(m.src)), fx.values(fx.dom.elements))
        return SliceMor(fx, self.obj(m.dst), fn)

    def image(self, m) -> SliceImage:
        return SliceImage(self, m)

    def then(self, other: Functor) -> Functor:
        if isinstance(other, CartFunctor):
            return ComposedCartFunctor(self, other)
        return super().then(other)


class ComposedCartFunctor(ComposedFunctor, CartFunctor):
    def legs(self, x: FinFunction, elements=None) -> list:
        first = self.first
        return first.legs(x, self.second.legs(first.obj(x), elements))

    def _lift(self, x: FinFunction, tops: list, bases: list) -> list:
        """Through first over the bases pushed down second's base map, then
        through second: an element of second(first(x)) has for top the
        element of first(x) with the same top and the pushed-down base."""
        first, second = self.first, self.second
        middle = first._lift(x, tops, second._down(bases))
        return second._lift(first.obj(x), middle, bases)

    def _down(self, bases: list) -> list:
        return self.first._down(self.second._down(bases))


class IdentityCartFunctor(IdentityFunctor, CartFunctor):
    """The identity of a slice category: each element is its own top."""


class ChangeOfBase(CartFunctor):
    """Pullback along u: A -> B, as a functor C/B -> C/A."""

    def __init__(self, u: FinFunction, src: SliceCategory, dst: SliceCategory):
        if src.base != u.cod or dst.base != u.dom:
            raise CategoryError("change of base must go from C/cod(u) to C/dom(u)")
        super().__init__(src, dst, name=f"({u!r})*")
        self.u = u

    def _on_obj(self, x: FinFunction) -> FinFunction:
        return pullback(x, self.u).pr2

    def legs(self, x: FinFunction, elements=None) -> list:
        """The top of each pair (top, base), read off the pair with no pr1
        table built; an element outside the carrier raises ``FinSetError``.
        Handed the carrier's own elements, as ``FinFunction.values`` is, it
        tests no membership."""
        carrier = self.obj(x).dom
        if elements is None:
            elements = carrier.elements
        elif elements is not carrier.elements and not carrier.includes(elements):
            w = next(w for w in elements if w not in carrier)
            raise FinSetError(f"{w!r} is not in the domain {carrier}")
        return [w[0] for w in elements]

    def _lift(self, x: FinFunction, tops: list, bases: list) -> list:
        """The pairs (top, base), unchecked: an element of the chosen
        pullback is the pair of its legs, if it is one at all."""
        return list(zip(tops, bases))

    def _down(self, bases: list) -> list:
        return self.u.values(bases)


class SigmaAlong(CartFunctor):
    """Post-composition with u: A -> B, as a functor C/A -> C/B."""

    def __init__(self, u: FinFunction, src: SliceCategory, dst: SliceCategory):
        if src.base != u.dom or dst.base != u.cod:
            raise CategoryError("sigma must go from C/dom(u) to C/cod(u)")
        super().__init__(src, dst, name=f"Σ({u!r})")
        self.u = u

    def _on_obj(self, x: FinFunction) -> FinFunction:
        return x.then(self.u)

    def _down(self, bases: list) -> list:
        raise CategoryError(f"{self.name} has no base map from {self.dst.base} "
                            f"to {self.src.base}")


def slice_isos(x: FinFunction, y: FinFunction):
    """All isomorphisms x -> y over the base: fiberwise bijections, fiber
    by fiber in the carrier order of x (``FinFunction.fibers``)."""
    by_fiber_x, by_fiber_y = x.fibers(), y.fibers()
    if by_fiber_x.keys() != by_fiber_y.keys():
        return
    if any(len(es) != len(by_fiber_y[b]) for b, es in by_fiber_x.items()):
        return
    per_fiber = [[list(zip(es, perm)) for perm in itertools.permutations(by_fiber_y[b])]
                 for b, es in by_fiber_x.items()]
    for combo in itertools.product(*per_fiber):
        table = dict(p for fiber in combo for p in fiber)
        yield SliceMor(x, y, FinFunction.of(x.dom, y.dom, table))


def _leg_values(carrier: FinSetObj, legs: list[list[FinFunction]]):
    """(e, the values of the legs at e) for each e of carrier; a leg is a
    path of functions, followed pointwise (``finset.follow``)."""
    columns = [follow(leg, carrier.elements) for leg in legs]
    return zip(carrier.elements, zip(*columns))


def match_by_legs(src: FinSetObj, src_legs, dst: FinSetObj, dst_legs) -> FinFunction:
    """The bijection src -> dst commuting with the given legs, each a path
    of functions out of its carrier (see ``_leg_values``).  Raises
    ``FinSetError`` when there is none: a value of dst's legs hit twice, a
    value of src's legs with no match, or a matching that is not one to
    one and onto.  No library code calls it: it is the tests' reference
    for the maps that ``CartFunctor.lift`` builds."""
    keyed = {}
    for e, k in _leg_values(dst, dst_legs):
        if k in keyed:
            raise FinSetError(f"legs do not pin down {dst}: {k} hit twice")
        keyed[k] = e
    try:
        assignment = {e: keyed[k] for e, k in _leg_values(src, src_legs)}
    except KeyError as exc:
        raise FinSetError(f"no match for leg value {exc} in {dst}") from exc
    fn = FinFunction.of(src, dst, assignment)
    if not fn.is_bijective():
        raise FinSetError(f"legs match {src} with {dst} but not one to one")
    return fn


def comparison_iso(f: CartFunctor, g: CartFunctor, name: str = "") -> NatTrans:
    """Canonical natural isomorphism F => G between composites of
    change-of-base functors whose underlying base maps agree.

    The component at x sends each element of F(x) to the element of G(x)
    with the same legs: its top in x (``F.legs``) and its base point, read
    off F(x).  ``G._lift`` computes that element from the legs; nothing is
    searched.  The map is tabulated by ``G.lift``, whose codomain check is
    the check that G(x) has an element with those legs, and it is a
    bijection exactly when F(x) and G(x) have as many elements and the
    map is injective.  Where base maps disagree, or a check
    fails, building it raises ``FinSetError``, or ``NotCommuting`` from
    the triangle's constructor where F(x) and G(x) lie over two bases or
    an image lies over another base point, as a top does under a G that
    keeps the carrier.  That is the only test of components outside
    the gate's enumeration, and of all of them in gluing.
    """

    def component(x: FinFunction) -> SliceMor:
        fx, gx = f.obj(x), g.obj(x)
        fn = g.lift(x, fx.dom, f.legs(x), fx.values(fx.dom.elements))
        if len(fx.dom) != len(gx.dom) or not fn.is_injective():
            raise FinSetError(f"{name or 'comparison'} at {x!r}: {fn!r} is not a bijection")
        return SliceMor(fx, gx, fn)

    return NatTrans(f, g, component, name=name)


class Adjunction(NamedTuple):
    """A strict adjunction left ⊣ right presented by unit and counit."""

    left: Functor
    right: Functor
    unit: NatTrans    # Id => right∘left, on the source of left
    counit: NatTrans  # left∘right => Id, on the source of right

    def check_triangles(self) -> list[str]:
        report = []
        a, b = self.left.src, self.right.src
        for x in a.objects():
            lx = self.left.obj(x)
            if not b.commutes([self.left.image(self.unit.at(x)), self.counit.at(lx)],
                              [b.identity(lx)]):
                report.append(f"triangle (εL)(Lη) fails at {x}")
        for y in b.objects():
            ry = self.right.obj(y)
            if not a.commutes([self.unit.at(ry), self.right.image(self.counit.at(y))],
                              [a.identity(ry)]):
                report.append(f"triangle (Rε)(ηR) fails at {y}")
        return report


def sigma_pullback_adjunction(right: ChangeOfBase) -> Adjunction:
    """The adjunction Σ_u ⊣ u* on the given change of base u*: C/B -> C/A.

    right is used as is, sharing its memo with every other reader.  The
    unit lifts v to the element of u*(Σ_u w) with top v over w(v); the
    counit sends each element of u*(x) to its top (``right.legs``).
    """
    left = SigmaAlong(right.u, right.dst, right.src)

    def unit_at(w: FinFunction) -> SliceMor:
        elements = w.dom.elements
        lw = left.obj(w)
        return SliceMor(w, right.obj(lw), right.lift(lw, w.dom, elements, w.values(elements)))

    def counit_at(x: FinFunction) -> SliceMor:
        rx = right.obj(x)
        return SliceMor(left.obj(rx), x, FinFunction(rx.dom, x.dom, tuple(zip(
            rx.dom.elements, right.legs(x)))))

    unit = NatTrans(IdentityFunctor(right.dst), left.then(right), unit_at, name="η")
    counit = NatTrans(right.then(left), IdentityFunctor(right.src), counit_at, name="ε")
    return Adjunction(left, right, unit, counit)
