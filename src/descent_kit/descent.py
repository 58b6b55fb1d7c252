"""Descent data, the descent category, the comparison functor and the
descent classifier.

A descent datum on the basic fibration of p: E -> B is a pair (W, rho)
of a level-1 object and an isomorphism rho: d1(W) -> d0(W) satisfying
the identity and associativity equations that ``cosimplicial`` states
and checks (``is_descent_datum``, imported here).  A morphism
(W, rho) -> (X, rho') is m: W -> X with d0(m) ∘ rho = rho' ∘ d1(m),
checked by ``is_descent_morphism``: the comparison functor and
``descend`` use that one check.  A datum (``DescentDatum``) and a
morphism (``DescMor``) are plain slotted values, as ``SliceMor`` is: each
hashes once, at construction, since every memo of ``DescCategory`` is
keyed by them, and each is immutable by contract, not enforced at run
time.  The results of ``descend`` and ``classify`` are named tuples.

Over finite sets a datum is an action of the kernel-pair groupoid Eq(p),
a functor Eq(p) -> FinSet (the Galois theorem).  Within a fiber of p
every two points of E are joined by exactly one arrow of Eq(p), so a
level-1 object w: W -> E carries a datum exactly when its fiber sizes are
constant along each fiber of p, and then every datum on w is conjugate to
every other under a relabelling of W.  ``enumerate_descent_data``
therefore builds only those canonical w, walking the fiber-size vectors
constant on the fibers of p (``SliceCategory.objects_constant_on``), and
one datum on each; it tries no candidate rho.  It keeps the one that
matches the i-th point over e0 with the i-th point over e1, which on a
canonical carrier is the conjugate least in the element order of d0(w)
(``canonicalize_datum`` walks Aut(w) for that conjugate of any datum;
only the tests call it, as the reference for this choice).

``moves`` lists a datum as the groupoid acts: rho carries v, seen over a
level-2 point t, to v2, each read off the pairs of rho's table.  A
morphism is fixed by where it sends the first element of each orbit of
these moves, so a hom-set of ``DescCategory`` is a product of per-orbit
choices: a ``HomSet`` counted as the product of the choice counts and
built on first read in the carrier order of the brute equivariance
filter, never comparing labels.  ``DescCategory`` tabulates each datum's
moves once, beside its hom memo, and every hom-set reads the tables of
its two ends; ``descend`` glues along the same moves.  Membership is
decided by the category's own check, ``is_descent_morphism``, where a
morphism is made (``comparison``, ``descend``); no hom-set is asked.

A ``DescCategory`` holds the one input of every descent decision: the
diagram, the enumeration bound, checked where it is built, and an
optional carrier predicate.  ``comparison`` reads the diagram and the
predicate from it, and ``classify`` builds it once.
``descend`` glues a datum to an object over B (the constructive inverse
of the comparison functor), and ``classify`` decides the almost / plain /
effective descent ladder with auditable witnesses.  Essential
surjectivity is always decided by gluing, never by blind search over C/B.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Callable, NamedTuple, Optional

from .errors import TheoremViolation
from .fincat import (EQUIVALENCE, FAITHFUL_ONLY, FULLY_FAITHFUL_ONLY,
                     NOT_FAITHFUL, CategoryError, ComputableCategory, Decision,
                     EquivalenceReport, FullSubcategory, Functor, HomSet,
                     checked_bound, is_equivalence)
from .finset import FinFunction, FinSetError, FinSetObj, quotient
from .cosimplicial import (BasicFibration, basic_fibration, is_descent_datum,
                           validate_coherence)
from .slices import SliceMor, slice_isos


class DescentDatum:
    """A level-1 object with a gluing isomorphism between its two pullbacks.
    It stores its hash and compares as ``SliceMor`` does: every memo of
    ``DescCategory`` and of the comparison functor is keyed by data.
    Immutable by contract: its slots are written once, by the constructor."""

    __slots__ = ("w", "rho", "_hash")

    def __init__(self, w: FinFunction, rho: SliceMor):  # rho: d1(w) -> d0(w)
        self.w = w
        self.rho = rho
        self._hash = hash((w, rho))

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._hash == other._hash and self.rho == other.rho and self.w == other.w

    @property
    def key(self):
        # read only by perfbench/child.py, which compares glued data by it
        return (self.w, self.rho)

    def __repr__(self):
        return f"Datum({self.w!r}, {self.rho.fn!r})"


class DescMor:
    """An equivariant m between two data; hashed and compared as
    ``DescentDatum`` is, and immutable by the same contract."""

    __slots__ = ("src", "dst", "m", "_hash")

    def __init__(self, src: DescentDatum, dst: DescentDatum, m: SliceMor):
        self.src = src
        self.dst = dst
        self.m = m
        self._hash = hash((src, dst, m))

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self._hash == other._hash and self.m == other.m
                and self.src == other.src and self.dst == other.dst)

    def __repr__(self):
        return f"{self.m.fn!r}:{self.src!r}→{self.dst!r}"


def is_descent_morphism(diagram: BasicFibration, x: DescentDatum,
                        y: DescentDatum, m: SliceMor) -> bool:
    """Whether m: x.w -> y.w is equivariant: d0(m) ∘ x.rho = y.rho ∘ d1(m)."""
    return diagram.c2.commutes([x.rho, diagram.d0.image(m)], [diagram.d1.image(m), y.rho])


def moves(datum: DescentDatum) -> list[tuple]:
    """How rho moves elements: (top1(u), base(u), top0(rho(u))) for each u
    in d1(w), in carrier order.

    A move (v, t, v2) says rho carries v, seen over the level-2 point t,
    to v2.  An element of a chosen pullback is the pair (top, base), so
    both tops are read off the pairs of rho's table.  The orbits of
    ``DescCategory._hom`` and the classes that ``descend`` glues are both
    read off these triples.
    """
    return [(v, t, u2[0]) for (v, t), u2 in datum.rho.fn.mapping]


def enumerate_descent_data(diagram: BasicFibration, bound: Optional[int] = None,
                           carrier_pred: Optional[Callable[[FinSetObj], bool]] = None
                           ) -> list[DescentDatum]:
    """One descent datum per isomorphism class, with level-1 carrier within
    bound, the level-1 category's own by default, in the order of the
    canonical level-1 objects.

    A canonical w: W -> E carries a datum exactly when its fiber sizes are
    constant along each fiber of p, and then all data on w are conjugate
    under relabellings of W (see the module docstring), so each such w
    gives one datum and no candidate rho is tried.  Only those carriers
    are built: ``SliceCategory.objects_constant_on`` walks the fiber-size
    vectors constant on the fibers of p, in the order of ``objects``.  The
    datum kept is ``_index_datum``: over each point (e0, e1) of E×_B E,
    rho sends the i-th point of w over e0 to the i-th point over e1, in
    carrier order.  On a canonical carrier this is the conjugate least in
    the element order of d0(w), the one ``canonicalize_datum`` picks.  Each
    datum is still checked by ``is_descent_datum``; one that fails means
    the diagram is not the basic fibration it claims to be, and raises
    ``TheoremViolation`` rather than dropping the object.
    """
    out = []
    blocks = diagram.d.u.fibers().values()
    for w in diagram.c1.objects_constant_on(blocks, bound):
        if carrier_pred is not None and not carrier_pred(w.dom):
            continue
        rho = _index_datum(diagram, w)
        ok, which = is_descent_datum(diagram, w, rho)
        if not ok:
            raise TheoremViolation(f"the index-matching datum on {w!r} fails "
                                   f"the {which} equation")
        out.append(DescentDatum(w, rho))
    return out


def _index_datum(diagram: BasicFibration, w: FinFunction) -> SliceMor:
    """rho: d1(w) -> d0(w) matching the i-th point of w over e0 with the
    i-th point over e1 at each (e0, e1), the points of each fiber of w in
    carrier order (``FinFunction.fibers``).  w's fiber sizes must be
    constant along each fiber of p, as ``enumerate_descent_data`` chooses
    them, so that every point has its match.

    An element of d0(w) or d1(w) is the pair (v, t) of its top v in W and
    the level-2 point t it lies over, so both are read off the pairs.
    """
    index = {v: i for points in w.fibers().values() for i, v in enumerate(points)}
    d1w, d0w = diagram.d1.obj(w), diagram.d0.obj(w)
    target = {(u[1], index[u[0]]): u for u in d0w.dom.elements}
    fn = FinFunction(d1w.dom, d0w.dom, tuple(
        (u, target[u[1], index[u[0]]]) for u in d1w.dom.elements))
    return SliceMor(d1w, d0w, fn)


def canonicalize_datum(diagram: BasicFibration,
                       datum: DescentDatum) -> tuple[DescentDatum, DescMor]:
    """The least conjugate under carrier relabellings, with the
    relabelling as the connecting isomorphism datum -> conjugate.

    An automorphism g of the carrier transports rho to the conjugate
    d0(g) ∘ rho ∘ d1(g)⁻¹, and g is then a descent morphism from the datum
    to the conjugate.  Every conjugate shares w and the source and target
    of rho, so they are ordered by the positions of rho's images in d0(w),
    never by label; the datum and its isomorphism are built once, for the
    least.  Only the tests call it.
    """
    c2 = diagram.c2
    position = {u: i for i, u in enumerate(datum.rho.dst.dom.elements)}
    best_key = best_rho = best_g = None
    for g in slice_isos(datum.w, datum.w):
        d0g = diagram.d0.mor(g)
        d1g = diagram.d1.mor(g)
        inv = SliceMor(d1g.dst, d1g.src, d1g.fn.inverse())
        rho = c2.compose(d0g, c2.compose(datum.rho, inv))
        key = [position[u] for _, u in rho.fn.mapping]
        if best_key is None or key < best_key:
            best_key, best_rho, best_g = key, rho, g
    best = DescentDatum(datum.w, best_rho)
    return best, DescMor(datum, best, best_g)


class _MoveTable(NamedTuple):
    """What ``DescCategory._hom`` reads of one datum, from one ``moves``."""

    out: dict       # v -> the moves (t, v2) out of v, in carrier order
    step: dict      # (v, t) -> v2
    position: dict  # v -> its position in the carrier of w


class DescCategory(ComputableCategory):
    """The descent data of a basic fibration with level-1 carrier within
    the bound, checked here (``fincat.checked_bound``), and only those
    whose carrier passes carrier_pred if given.  Beside the hom memo it
    keeps each datum's move table (``_table``)."""

    def __init__(self, diagram: BasicFibration, bound: int = 4,
                 carrier_pred: Optional[Callable[[FinSetObj], bool]] = None):
        super().__init__()
        self.diagram = diagram
        self.bound = checked_bound(bound)
        self.carrier_pred = carrier_pred
        self._tables: dict = {}

    def _objects(self):
        return enumerate_descent_data(self.diagram, self.bound,
                                      carrier_pred=self.carrier_pred)

    def _table(self, x: DescentDatum) -> _MoveTable:
        """x's moves tabulated once, however many hom-sets read them.  A
        datum of another fibration, whose w lies over another E or whose
        rho does not run from d1(w) to d0(w), raises ``CategoryError``."""
        table = self._tables.get(x)
        if table is None:
            fib, w = self.diagram, x.w
            if (w.cod != fib.c1.base or x.rho.src != fib.d1.obj(w)
                    or x.rho.dst != fib.d0.obj(w)):
                raise CategoryError(f"{x!r} is no descent datum of this fibration")
            out: dict = {}
            step = {}
            for v, t, v2 in moves(x):
                out.setdefault(v, []).append((t, v2))
                step[v, t] = v2
            position = {v: i for i, v in enumerate(x.w.dom.elements)}
            table = self._tables[x] = _MoveTable(out, step, position)
        return table

    def _hom(self, x, y) -> HomSet:
        """Morphisms by orbit: a product of choices, one per rho-orbit of x.w.

        An equivariant m is fixed by where it sends the first element of
        each orbit of x's moves, since m(v2) = step_y(m(v), t) for every
        move (v, t, v2) of x.  Each candidate in y's fiber is propagated
        along the orbit, checking every move out of every element reached;
        the candidates that survive are the orbit's choices.  Every move
        can be undone by a chain of moves (rho is a fiberwise bijection and
        each element has its diagonal move), so an orbit reached from its
        first element is its whole connected component.  Same answers as
        the brute filter of every equivariant slice morphism.  The moves
        out of x, the steps of y and x's carrier positions are read off the
        two move tables, each built once per datum, and y's fibers off
        ``FinFunction.fibers``, which caches them.

        The hom-set is counted, not built: its size is the product of the
        orbits' choice counts.  Membership is decided by the category's
        own check, ``is_descent_morphism``, where a morphism is made, and
        ``in`` compares with the built members.  The members are assembled
        by ``_hom_members`` on first read, in the brute filter's order, by
        the carrier positions of the images, element by element: orbits are
        met in the carrier order of their first elements, so every element
        before the first of an orbit lies in an earlier orbit, and two
        morphisms first differ at the first element of the first orbit
        where their choices differ.  Each orbit's choices come in the
        carrier order of y, in which that element's image is tried, so
        ``itertools.product`` yields the maps in order.
        """
        tx, ty = self._table(x), self._table(y)
        out_x, position = tx.out, tx.position
        step, fiber_y = ty.step, y.w.fibers()

        def follow(first, cand) -> Optional[dict]:
            assign = {first: cand}
            queue = [first]
            while queue:
                v = queue.pop()
                for t, v2 in out_x[v]:
                    forced = step[(assign[v], t)]
                    if v2 not in assign:
                        assign[v2] = forced
                        queue.append(v2)
                    elif assign[v2] != forced:
                        return None
            return assign

        orbits = []
        reached: set = set()
        for first, b in x.w.mapping:
            if first in reached:
                continue
            choices = [a for c in fiber_y.get(b, ())
                       if (a := follow(first, c)) is not None]
            if not choices:
                return HomSet(0, list)
            reached.update(choices[0])
            orbits.append([[(position[v], img) for v, img in a.items()] for a in choices])
        return HomSet(math.prod(map(len, orbits)),
                      functools.partial(_hom_members, x, y, orbits))

    def identity(self, x: DescentDatum) -> DescMor:
        return DescMor(x, x, self.diagram.c1.identity(x.w))

    def is_isomorphism(self, f: DescMor) -> bool:
        """Whether f's underlying slice morphism m is: the forgetful functor
        to C/E reflects isomorphisms.  Applying d0 and d1 to m⁻¹ turns
        d0(m) ∘ rho = rho' ∘ d1(m) into d0(m⁻¹) ∘ rho' = rho ∘ d1(m⁻¹), so
        the inverse of an equivariant bijection is equivariant, and no
        inverse is searched for."""
        return self.diagram.c1.is_isomorphism(f.m)

    def compose(self, g: DescMor, f: DescMor) -> DescMor:
        if f.dst != g.src:
            raise CategoryError("non-composable descent morphisms")
        return DescMor(f.src, g.dst, self.diagram.c1.compose(g.m, f.m))


def _hom_members(x: DescentDatum, y: DescentDatum, orbits: list) -> list[DescMor]:
    """hom(x, y) in Desc(p), one morphism per combination of the orbits'
    choices (see ``DescCategory._hom``), each a list of (carrier position,
    image) pairs, each image over its element's base point."""
    wx, wy = x.w, y.w
    elements = wx.dom.elements
    out = []
    for combo in itertools.product(*orbits):
        images = [None] * len(elements)
        for choice in combo:
            for i, img in choice:
                images[i] = img
        fn = FinFunction(wx.dom, wy.dom, tuple(zip(elements, images)))
        out.append(DescMor(x, y, SliceMor(wx, wy, fn)))
    return out


class _Comparison(Functor):
    """B0 |-> (d(B0), theta_B0); a morphism goes to its image under d."""

    def _on_obj(self, b0):
        fib = self.dst.diagram
        return DescentDatum(fib.d.obj(b0), fib.theta.at(b0))

    def _on_mor(self, f):
        fib = self.dst.diagram
        mor = DescMor(self.obj(f.src), self.obj(f.dst), fib.d.mor(f))
        if not is_descent_morphism(fib, mor.src, mor.dst, mor.m):
            raise TheoremViolation(f"comparison image breaks equivariance at {f}")
        return mor


def comparison(desc: DescCategory) -> Functor:
    """The comparison functor level-0 -> desc: B0 |-> (d(B0), theta_B0).

    Reads everything from desc: the diagram, gated at the bound its
    levels were built at, and its carrier predicate, which restricts the
    domain to the full subcategory of level-0 objects whose carriers pass
    it.  The codomain is Desc(p): a predicate not closed under p* may see
    Phi send a passing object to a datum that fails it, and the predicate
    only filters the data essential surjectivity must reach.  Refuses to
    build over an incoherent diagram.  Post-composing with the forgetful
    functor gives back the augmentation on the nose.
    """
    fib, pred = desc.diagram, desc.carrier_pred
    rep = validate_coherence(fib)
    if not rep.is_empty():
        raise CategoryError(f"incoherent diagram: {rep}")
    dom = fib.c0
    if pred is not None:
        dom = FullSubcategory(fib.c0, lambda x: pred(x.dom), name="restricted base")
    return _Comparison(dom, desc, name="Phi")


class DescendResult(NamedTuple):
    glued: FinFunction              # object of C/B
    iso: DescMor                    # comparison(glued) -> datum, in Desc
    partial: bool                   # p not surjective: glued lives over im(p)


def descend(fib: BasicFibration, datum: DescentDatum) -> DescendResult:
    """Glue a descent datum to an object over the base.

    A value that is no ``DescentDatum`` raises ``CategoryError``, as does a
    datum failing either equation, which is named.  The carrier is the
    quotient of the datum's total set by the relation rho induces between
    fibers over related points; the returned isomorphism exhibits
    comparison(glued) ≅ datum and is verified before being returned.
    """
    if not isinstance(datum, DescentDatum):
        raise CategoryError(f"descend takes a DescentDatum, not {datum!r}")
    ok, which = is_descent_datum(fib, datum.w, datum.rho)
    if not ok:
        raise CategoryError(f"invalid descent datum: {which} equation fails")
    p = fib.d.u
    w = datum.w
    pairs = [(v, v2) for v, _, v2 in moves(datum)]
    q, proj = quotient(w.dom, pairs)

    glued = FinFunction.of(q, p.cod, lambda cls: p(w(cls)))

    # the canonical iso comparison(glued) -> datum inverts v |-> (class of
    # v, w(v)), lifted from its legs: the lift refuses a class over two base
    # points, the inverse a class that misses a fiber or meets one twice
    pg = fib.d.obj(glued)
    elements = w.dom.elements
    try:
        fn = fib.d.lift(glued, w.dom, proj.values(elements), w.values(elements)).inverse()
    except FinSetError as exc:
        raise TheoremViolation(f"datum {datum} does not glue: {exc}") from exc
    iso = DescMor(DescentDatum(pg, fib.theta.at(glued)), datum, SliceMor(pg, w, fn))
    if not is_descent_morphism(fib, iso.src, iso.dst, iso.m):
        raise TheoremViolation(f"gluing comparison for {datum} is not equivariant")
    return DescendResult(glued, iso, partial=not p.is_surjective())


EFFECTIVE = "Effective"
DESCENT = "Descent"
ALMOST = "Almost"
NOT_ALMOST = "NotAlmost"

_EXIT_CODES = {EFFECTIVE: 0, DESCENT: 3, ALMOST: 4, NOT_ALMOST: 5}


class ClassifyResult(NamedTuple):
    verdict: str
    report: EquivalenceReport
    fib: BasicFibration
    desc: DescCategory
    phi: Functor

    @property
    def exit_code(self) -> int:
        return _EXIT_CODES[self.verdict]


def classify(p: FinFunction, bound: int = 4,
             carrier_pred: Optional[Callable[[FinSetObj], bool]] = None) -> ClassifyResult:
    """Place p on the ladder NotAlmost < Almost < Descent < Effective.

    carrier_pred restricts the domain of Phi to the level-0 objects whose
    carriers satisfy the (isomorphism-closed) predicate.  Phi's codomain is
    Desc(p), so faithful and full are decided on its hom-sets even where a
    predicate not closed under p* sees Phi leave it.  The predicate only
    filters the data essential surjectivity must reach: each datum whose
    carrier passes must glue to an object that passes too.
    """
    fib = basic_fibration(p, bound)
    desc = DescCategory(fib, bound, carrier_pred=carrier_pred)
    phi = comparison(desc)

    def ess() -> Decision:
        for datum in desc.objects():
            try:
                res = descend(fib, datum)
            except TheoremViolation as exc:
                raise TheoremViolation(f"datum failed to glue for {p!r}: {exc}")
            if carrier_pred is not None and not carrier_pred(res.glued.dom):
                return Decision(False, datum, True)
        return Decision(True, None, True)

    report = is_equivalence(phi, ess_surj=ess)
    verdict = {
        EQUIVALENCE: EFFECTIVE,
        FULLY_FAITHFUL_ONLY: DESCENT,
        FAITHFUL_ONLY: ALMOST,
        NOT_FAITHFUL: NOT_ALMOST,
    }[report.level]
    return ClassifyResult(verdict, report, fib, desc, phi)
