"""Slice categories over the finite-sets backend and change of base.

An object of C/B is its structure map: a ``FinFunction`` X -> B, whose
domain X is the carrier.  A morphism is a commuting triangle, a
``SliceMor``; it stores its hash at construction and compares as
``FinFunction`` does, since the memos of functors and transformations
hash them on every lookup.  The canonical objects of C/B are listed by
fiber-size vector, and ``objects_constant_on`` lists only those whose
fiber sizes are equal over each of given blocks of base points, by the
same vector-to-object rule and in the same order.  Change of base along p: E -> B is pullback
along p, with the chosen pullbacks of finset; each functor caches its
values so repeated applications return identical (not merely isomorphic)
results.  A
morphism m has its image two ways, by one per-element rule,
w |-> (m(top w), base w) (``ChangeOfBase._values``).  ``mor(m)`` builds
the mediating map into the chosen pullback by that rule, one checked
function whose codomain check is the check that the triangle commutes,
and caches it.  ``image(m)`` is a ``SliceImage``: the ends of the image
and the rule, followed where a path is only compared, never built and
never stored, with the same codomain check on every value it gives.  A
hom-set of C/B is a ``HomSet``: counted off the fibers of its target and
built on first read; membership is the category's own check, that the
triangle commutes, which its members are built to pass.
The enumerated C/B also lists generators (transpositions, merges and
inclusions of fibers) whose composites give every morphism, so
naturality is checked on them alone.

``SliceCategory.commutes`` decides whether two paths of triangles have
equal composites pointwise: each element of the common source is pushed
through every step of each path by ``finset.follow``, a triangle by its
table and a view by its rule, so a square or a law is checked without
building a composite function, a triangle or a functor's image.

Every functor built here tracks a "top" projection F(X) -> X, as the path
of maps it composes (``CartFunctor.tops``).  By default a functor keeps
the carrier, as Σ and the identity do: its top path is empty and F(m)
has the values of m; change of base overrides both.  Its top is read off
the pair (top, base) that an element of a chosen pullback is
(``finset.FirstProjection``), so a path that follows it builds no
projection table; ``ChangeOfBase.top`` builds one for a reader that
needs the function itself.  Two composites of such
functors whose underlying base maps agree are pullbacks of the same
cospan, so their values are canonically isomorphic: by the universal
property, an element of G(x) is fixed by its top in x and its base
point, so each element of F(x) goes to the element of G(x) with its own
top and base.  ``CartFunctor._lift`` computes that element from the two
legs, with no search: change of base pairs them, a composite lifts
through its first factor over the base points pushed down its second's
base map (``_down``) and then through its second, and a functor that
keeps the carrier returns the tops once its object is checked to send
them to the base points.  ``comparison_iso`` builds each component from
the lifted elements with the checked constructor, whose codomain check
is the check that an element with those legs exists, and checks that
the component is a bijection, which is what
``SliceCategory.is_isomorphism`` tests.  These comparisons are exactly
the constraint cells of the cosimplicial diagram of a morphism.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Optional

from .finset import (FinFunction, FinSetObj, FinSetError, FirstProjection,
                     Pullback, all_functions, canonical_set, follow,
                     mediating_map, pullback)
from .fincat import (CategoryError, ComputableCategory, ComposedFunctor,
                     Functor, HomSet, IdentityFunctor, NatTrans, path_ends)


@dataclass(frozen=True, slots=True)
class SliceMor:
    """A commuting triangle x -> y between objects of C/B, each its map to
    the base: fn runs between their domains.  fn alone does not fix y,
    whose structure map the triangle keeps."""

    src: FinFunction
    dst: FinFunction
    fn: FinFunction

    _hash: int = field(init=False, repr=False, compare=False, hash=False)

    def __post_init__(self):
        if self.fn.dom != self.src.dom or self.fn.cod != self.dst.dom:
            raise CategoryError(f"{self.fn!r} does not run between the carriers "
                                f"of {self.src!r} and {self.dst!r}")
        object.__setattr__(self, "_hash", hash((self.src, self.dst, self.fn)))

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
    as through a triangle.  ``values`` reads images off m by the rule of F
    on morphisms (``CartFunctor._values``) and keeps the codomain check of
    the built F(m): a value outside the carrier of dst raises
    ``FinSetError``, so a triangle that does not commute is never compared.
    For a composite F the one check covers every factor: an element of a
    chosen pullback pairs an element of the carrier pulled back with a
    point of the new base.  Views are made where they are followed and not
    stored.
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
        out = self._functor._values(self._m.values, elements)
        carrier = self.dst.dom
        if not carrier.includes(out):
            y = next(y for y in out if y not in carrier)
            raise FinSetError(f"image {y!r} of {self!r} not in {carrier}: "
                              f"the triangle does not commute")
        return out


class SliceCategory(ComputableCategory):
    """C/B for the finite-sets backend: an object is a ``FinFunction`` with
    codomain base, enumerated up to the size of its domain."""

    def __init__(self, base: FinSetObj, bound: int = 4):
        super().__init__(bound)
        self.base = base
        self._generators_memo: dict = {}

    def _objects(self, bound: int) -> list[FinFunction]:
        """Canonical objects: one per fiber-size vector with total <= bound,
        the vectors in lexicographic order (``objects_constant_on`` with no
        blocks)."""
        return list(self.objects_constant_on((), bound))

    def objects_constant_on(self, blocks, bound: Optional[int] = None):
        """The canonical objects within bound whose fiber sizes are equal
        over the points of each of blocks, disjoint nonempty lists of base
        points, in the order of ``objects`` and one at a time.  A block
        that is empty, holds a point outside the base or meets an earlier
        block raises ``FinSetError``.

        Only those objects are built: a fiber-size vector is chosen entry by
        entry in base order, and the entry of a point that is not the first
        of its block copies the first's, whose choice is charged for the
        whole block.  A vector is fixed by its free entries, so choosing
        them in increasing order keeps the lexicographic order of
        ``objects``, with nothing sorted.  The object with fibers (n_b) has
        carrier labels (b, i), i < n_b.
        """
        bound = self._bound(bound)
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
        for vec in _vectors(bound, ties, costs):
            labels = tuple([(b, i) for b, n in zip(base.elements, vec) for i in range(n)])
            yield FinFunction(FinSetObj(labels), base, tuple(zip(labels, [b for b, _ in labels])))

    def generators(self, bound: Optional[int] = None) -> list[SliceMor]:
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
        Memoized per bound, as ``objects`` is.
        """
        bound = self.default_bound if bound is None else bound
        out = self._generators_memo.get(bound)
        if out is None:
            out = self._generators_memo[bound] = self._generators(bound)
        return out

    def _generators(self, bound: int) -> list[SliceMor]:
        base_elems = self.base.elements
        k = len(base_elems)
        by_vec = dict(zip(_vectors(bound, range(k), [1] * k), self.objects(bound)))
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
        """A commuting triangle is invertible exactly when its map is a
        bijection.  A triangle across two bases, or one that does not
        commute, is no morphism and raises ``CategoryError``: ``SliceMor``
        checks only that fn runs between the carriers."""
        if m.src.cod != m.dst.cod:
            raise CategoryError(f"{m!r} spans two bases, {m.src.cod} and {m.dst.cod}")
        if not _commutes_over_base(m):
            raise CategoryError(f"{m!r} does not commute over the base")
        return m.fn.is_bijective()


def _slice_members(x: FinFunction, y: FinFunction, cands: list) -> list[SliceMor]:
    """hom(x, y) in C/B: each element of x, in carrier order, to each of
    its candidates, the points of y's fiber over its base point."""
    return [SliceMor(x, y, FinFunction(x.dom, y.dom, tuple(zip(x.dom.elements, choice))))
            for choice in itertools.product(*cands)]


def _commutes_over_base(m: SliceMor) -> bool:
    return follow([m.fn, m.dst], m.src.dom.elements) == [b for _, b in m.src.mapping]


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
    """A functor between slice categories carrying a top projection.

    The top projection F(x).dom -> x.dom identifies where each
    element of the value came from; together with the structure map of
    F(x) it pins every element of a (composite of) chosen pullback(s).
    ``tops(x)`` gives it as the path of maps it composes, in the order they
    apply, so that it is followed, not built.

    ``image(m)`` is F(m) as a ``SliceImage``, for a path that is only
    followed; ``_values`` is the rule on morphisms that it follows, and
    that ``ChangeOfBase.mor`` builds from.  ``_lift`` finds the elements
    of F(x) from their two legs, and ``_down`` pushes points of the target
    base down the base map.  All default to a functor that keeps the
    carrier over its base: the top path is empty, F(m) has m's values, an
    element is its top and the base map is the identity.
    """

    def tops(self, x: FinFunction) -> list:
        return []

    def _lift(self, x: FinFunction, tops: list, bases: list) -> list:
        """The elements of obj(x) with the given tops, elements of the
        carrier of x, over the given points of the target base, one for
        each pair: here the tops themselves, once obj(x) is checked to send
        each to its base point; a pair it does not fit raises
        ``FinSetError``.  An override may return elements outside obj(x),
        which the caller's checked constructor refuses."""
        if self.obj(x).values(tops) != bases:
            raise FinSetError(f"{self.name}({x!r}) does not send the tops to their base points")
        return tops

    def _down(self, bases: list) -> list:
        """The image of each of bases, points of the target base, under the
        base map into the source base."""
        return bases

    def image(self, m) -> SliceImage:
        return SliceImage(self, m)

    def _values(self, of_m, elements) -> list:
        """The images under F(m) of elements of F(m.src), not yet checked,
        read off of_m, which gives the images under m of elements of
        m.src (``SliceMor.values``)."""
        return of_m(elements)

    def then(self, other: Functor) -> Functor:
        if isinstance(other, CartFunctor):
            return ComposedCartFunctor(self, other)
        return super().then(other)


class ComposedCartFunctor(ComposedFunctor, CartFunctor):
    def tops(self, x: FinFunction) -> list:
        return self.second.tops(self.first.obj(x)) + self.first.tops(x)

    def _values(self, of_m, elements) -> list:
        return self.second._values(functools.partial(self.first._values, of_m), elements)

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
    """The identity of a slice category, with the default (empty) tops."""


class ChangeOfBase(CartFunctor):
    """Pullback along u: A -> B, as a functor C/B -> C/A."""

    def __init__(self, u: FinFunction, src: SliceCategory, dst: SliceCategory):
        if src.base != u.cod or dst.base != u.dom:
            raise CategoryError("change of base must go from C/cod(u) to C/dom(u)")
        super().__init__(src, dst, name=f"({u!r})*")
        self.u = u
        self._pullbacks: dict = {}

    def _on_obj(self, x: FinFunction) -> FinFunction:
        pb = pullback(x, self.u)
        self._pullbacks[x] = pb
        return pb.pr2

    def pullback_of(self, x: FinFunction) -> Pullback:
        """The chosen pullback of x and u; obj(x) is its pr2."""
        try:
            return self._pullbacks[x]
        except KeyError:
            self.obj(x)
            return self._pullbacks[x]

    def top(self, x: FinFunction) -> FinFunction:
        """The top projection obj(x) -> x, built: the pullback's pr1."""
        return self.pullback_of(x).pr1

    def tops(self, x: FinFunction) -> list:
        """The top projection as a path that is only followed: an element
        of the chosen pullback is the pair (top, base), so its top is read
        off the pair and no pr1 table is built; an element outside the
        carrier raises ``FinSetError``."""
        return [FirstProjection(self.pullback_of(x).obj)]

    def _values(self, of_m, elements) -> list:
        """w |-> (m(top w), base w): an element of the chosen pullback is
        the pair of its two legs."""
        tops = of_m([w[0] for w in elements])
        return [(v, w[1]) for v, w in zip(tops, elements)]

    def _lift(self, x: FinFunction, tops: list, bases: list) -> list:
        """The pairs (top, base), unchecked: an element of the chosen
        pullback is the pair of its legs, if it is one at all."""
        return list(zip(tops, bases))

    def _down(self, bases: list) -> list:
        return self.u.values(bases)

    def _on_mor(self, m: SliceMor) -> SliceMor:
        """The mediating map into the pullback of m.dst, built by the rule
        of ``_values`` in one checked function: its codomain check is the
        check that m commutes over the base."""
        fx, fy = self.obj(m.src), self.obj(m.dst)
        elements = fx.dom.elements
        fn = FinFunction(fx.dom, fy.dom, tuple(zip(elements, self._values(m.values, elements))))
        return SliceMor(fx, fy, fn)


class SigmaAlong(CartFunctor):
    """Post-composition with u: A -> B, as a functor C/A -> C/B."""

    def __init__(self, u: FinFunction, src: SliceCategory, dst: SliceCategory):
        if src.base != u.dom or dst.base != u.cod:
            raise CategoryError("sigma must go from C/dom(u) to C/cod(u)")
        super().__init__(src, dst, name=f"Σ({u!r})")
        self.u = u

    def _on_obj(self, x: FinFunction) -> FinFunction:
        return x.then(self.u)

    def _on_mor(self, m: SliceMor) -> SliceMor:
        return SliceMor(self.obj(m.src), self.obj(m.dst), m.fn)

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
    one and onto.  Callers take its result as an isomorphism unchecked."""
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
    with the same legs: its top in x, following F's tops, and its base
    point, read off F(x).  ``G._lift`` computes that element from the legs;
    nothing is searched.  The component is built with the checked
    constructor, whose codomain check is the check that G(x) has an
    element with those legs, and it is a bijection exactly when F(x) and
    G(x) have as many elements and the images are distinct.  Where base
    maps disagree, or a check fails, building it raises ``FinSetError``.
    That is the only test of components outside the gate's enumeration,
    and of all of them in gluing.
    """

    def component(x: FinFunction) -> SliceMor:
        fx, gx = f.obj(x), g.obj(x)
        elements = fx.dom.elements
        images = g._lift(x, follow(f.tops(x), elements), fx.values(elements))
        fn = FinFunction(fx.dom, gx.dom, tuple(zip(elements, images)))
        if len(elements) != len(gx.dom) or len(set(images)) < len(images):
            raise FinSetError(f"{name or 'comparison'} at {x!r}: {fn!r} is not a bijection")
        return SliceMor(fx, gx, fn)

    return NatTrans(f, g, component, name=name)


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
            if not b.commutes([self.left.image(self.unit.at(x)), self.counit.at(lx)],
                              [b.identity(lx)]):
                report.append(f"triangle (εL)(Lη) fails at {x}")
        for y in b.objects(bound):
            ry = self.right.obj(y)
            if not a.commutes([self.unit.at(ry), self.right.image(self.counit.at(y))],
                              [a.identity(ry)]):
                report.append(f"triangle (Rε)(ηR) fails at {y}")
        return report


def sigma_pullback_adjunction(right: ChangeOfBase) -> Adjunction:
    """The adjunction Σ_u ⊣ u* on the given change of base u*: C/B -> C/A.

    right is used as is, so the adjunction shares its pullbacks and memo
    with every other reader of that functor.
    """
    left = SigmaAlong(right.u, right.dst, right.src)

    def unit_at(w: FinFunction) -> SliceMor:
        lw = left.obj(w)
        rlw = right.obj(lw)
        fn = mediating_map(right.pullback_of(lw), FinFunction.identity(w.dom), w)
        return SliceMor(w, rlw, fn)

    def counit_at(x: FinFunction) -> SliceMor:
        rx = right.obj(x)
        lrx = left.obj(rx)
        return SliceMor(lrx, x, right.top(x))

    unit = NatTrans(IdentityFunctor(right.dst), left.then(right), unit_at, name="η")
    counit = NatTrans(right.then(left), IdentityFunctor(right.src), counit_at, name="ε")
    return Adjunction(left, right, unit, counit)


class FinSetCategory(ComputableCategory):
    """The category of finite sets, enumerated by canonical sets of size <= bound."""

    def __init__(self, bound: int = 3, prefix: str = "e"):
        super().__init__(bound)
        self.prefix = prefix

    def _objects(self, bound: int) -> list[FinSetObj]:
        return [canonical_set(n, self.prefix) for n in range(bound + 1)]

    def _hom(self, x: FinSetObj, y: FinSetObj) -> list[FinFunction]:
        return list(all_functions(x, y))

    def identity(self, x: FinSetObj) -> FinFunction:
        return FinFunction.identity(x)

    def compose(self, g: FinFunction, f: FinFunction) -> FinFunction:
        return f.then(g)
