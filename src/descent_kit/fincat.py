"""Finite and boundedly-enumerable categories, functors, transformations.

Two flavours of category share one protocol: table-backed ``FinCategory``
(explicit objects, morphisms and composition table) and subclasses of
``ComputableCategory`` (objects enumerated once, hom-sets computed on
demand).  A ``ComputableCategory`` subclass writes only the enumerations
``_objects()`` and ``_hom(x, y)``; the base class memoizes the first once
and the second once per pair.  Objects and morphisms are values: they
are compared and hashed as themselves, component by component.

A bound is fixed where a category is built.  A category that truncates
by carrier size (``slices.SliceCategory``) holds its bound, checked there
by ``checked_bound``; one built from other categories (the descent
category of a diagram of slices, the Eilenberg-Moore category of a monad,
a pseudopullback) enumerates over theirs.  Enumerations and decisions
take no bound: each reads the categories it is handed.

A hom-set is a sequence of morphisms in enumeration order.  A table
category lists it; a computable category whose hom-sets have a closed-form
size hands out a ``HomSet``, which knows its length and builds its members
once, on first read, so a decision that only counts builds none.  The
Eilenberg-Moore category of ``monadic`` lists its hom-sets: a filter by
the algebra law has no closed-form count to hand a ``HomSet``.  A
hom-set is counted or built, never asked whether it holds a morphism:
membership is decided by the category's own check where a morphism is
made, and ``in`` compares with the built members.

Functors (``obj``, ``mor``) and transformations (``at``) memoize their
callables per key, so a value is built once and handed out identically
ever after.  A memo hit costs one dictionary lookup, hence one hash of
the key; a miss calls the callable once and stores what it returns, falsy
values such as the empty set included.  A ``Functor`` subclass writes
``_on_obj`` / ``_on_mor`` as methods, the way a ``ComputableCategory``
subclass writes ``_objects`` / ``_hom``, so no functor holds a reference
to itself and each is freed as soon as it is dropped.  Every functor
memoizes except two that only forward: ``ComposedFunctor`` hands out what
its factors memoize, and ``IdentityFunctor`` hands back its argument.

Every square and law is decided by ``Category.commutes(lhs, rhs)``: two
paths of composable morphisms, each listed in the order its arrows apply,
have equal composites.  By default it composes both paths and compares;
a slice category decides it pointwise, pushing each element of the source
through the maps of both paths, so no composite is built just to be
compared.  A functor's image that is only compared is asked for as
``Functor.image``, which is ``mor`` by default; the functors of ``slices``
hand out a view that is followed, so no image is built just to be compared
either.  Invertibility is decided in one place, ``Category.is_isomorphism``:
a search for a two-sided inverse by default, which table categories need,
and a direct test where a category overrides it; ``find_isomorphism``
filters one hom-set with it.  A transformation is invertible when each
component is, checked, never supplied.  It is natural when its squares
commute on the generators of the enumerated source
(``Category.generators``), since functors preserve composition;
``naturality_failures`` is the one loop that decides it.  ``iso_failures``
is the one natural-isomorphism check: ``NatTrans.check_iso`` formats its
failures and the coherence gate of ``cosimplicial`` reports them.  Where
both functors track legs (``Functor.legs``: an element of F(x) is fixed by
its legs and its base point, and F(m) applies m to the legs), a
transformation whose every component keeps legs is natural by that
universal property, and ``iso_failures`` checks no square; where a
component does not, or a functor tracks none, the squares run.

Decision procedures (faithful / full / essentially surjective / equivalence)
always return a witness with a negative answer, and flag results obtained on
a truncated enumeration as "within bound".
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from typing import Any, Callable, NamedTuple, Optional


class CategoryError(ValueError):
    pass


class NotCommuting(CategoryError):
    """A morphism refused where it is built because its diagram does not
    commute, as a slice triangle's constructor refuses one."""


class TableMor(NamedTuple):
    """Morphism of a table-backed category."""

    name: str
    src: str
    dst: str


class Category:
    """Minimal protocol: enumerable objects, computable hom-sets, composition."""

    bounded = False  # True when objects() is a truncated enumeration

    def objects(self) -> list:
        raise NotImplementedError

    def hom(self, x, y) -> Sequence:
        raise NotImplementedError

    def identity(self, x):
        raise NotImplementedError

    def compose(self, g, f):
        """compose(g, f) means "f then g"; defined only when cod(f) = dom(g)."""
        raise NotImplementedError

    def commutes(self, lhs, rhs) -> bool:
        """Whether two nonempty paths of composable morphisms, each listed in
        the order its arrows apply, have equal composites.  Raises
        ``CategoryError`` where ``compose`` does: on neighbours that do not
        compose, in either path.  Paths with different endpoints give False.

        The default composes each path and compares; a category that can
        decide equality of composites without building them overrides it.
        """
        return _composite(self, lhs) == _composite(self, rhs)

    def is_isomorphism(self, m) -> bool:
        """Whether m has a two-sided inverse, by search of hom(cod m, dom m);
        a category that decides it without a search overrides this."""
        id_src, id_dst = [self.identity(m.src)], [self.identity(m.dst)]
        return any(self.commutes([m, g], id_src) and self.commutes([g, m], id_dst)
                   for g in self.hom(m.dst, m.src))

    def generators(self) -> list:
        """Morphisms of the enumeration whose composites give every one of
        its morphisms.  By default every enumerated morphism, in x, y, hom
        order; a subclass that knows a smaller generating set returns it."""
        objs = self.objects()
        return [f for x in objs for y in objs for f in self.hom(x, y)]


def _composite(cat: Category, path):
    out = path[0]
    for m in path[1:]:
        out = cat.compose(m, out)
    return out


def path_ends(path, what: str) -> tuple:
    """(source, target) of a nonempty path of morphisms listed in the order
    they apply; raises ``CategoryError("non-composable <what>")`` at the
    first neighbours that do not compose, as ``compose`` does."""
    for f, g in zip(path, path[1:]):
        if f.dst != g.src:
            raise CategoryError(f"non-composable {what}")
    return path[0].src, path[-1].dst


class FinCategory(Category):
    """Explicit finite category backed by a composition table."""

    def __init__(self, objects, morphisms, identities, table):
        """morphisms: iterable of (name, dom, cod); identities: obj -> name;
        table: (g_name, f_name) -> name for composable nonidentity-or-not pairs.
        Pairs involving identities may be omitted; they are filled in."""
        self._objects = list(objects)
        self._mors = {name: TableMor(name, d, c) for name, d, c in morphisms}
        self._identity = dict(identities)
        self._table = {}
        for (g, f), h in table.items():
            self._table[(g, f)] = h
        for name, m in self._mors.items():
            if m.src in self._identity:
                self._table.setdefault((name, self._identity[m.src]), name)
            if m.dst in self._identity:
                self._table.setdefault((self._identity[m.dst], name), name)

    def objects(self):
        return list(self._objects)

    def morphisms(self):
        return [self._mors[n] for n in self._mors]

    def mor(self, name: str) -> TableMor:
        try:
            return self._mors[name]
        except KeyError:
            raise CategoryError(f"unknown morphism {name!r}") from None

    def hom(self, x, y):
        return [m for m in self._mors.values() if m.src == x and m.dst == y]

    def identity(self, x):
        try:
            name = self._identity[x]
        except KeyError:
            raise CategoryError(f"missing identity for object {x!r}") from None
        return self.mor(name)

    def compose(self, g, f):
        if f.dst != g.src:
            raise CategoryError(f"non-composable pair ({g.name}, {f.name})")
        try:
            return self._mors[self._table[(g.name, f.name)]]
        except KeyError:
            raise CategoryError(f"composition table missing ({g.name}, {f.name})")


class HomSet(Sequence):
    """A hom-set that is counted before it is built.

    Its length is given in closed form.  Iteration and indexing call build
    once, on first read, and keep the members it returns, in the
    enumeration order of the category; a build that disagrees with the
    count raises ``CategoryError``.  ``in`` is ``Sequence``'s: it compares
    with the built members, so membership is decided by the category's own
    check, the one its members were built with.  build is a module-level
    function bound with ``functools.partial`` to what it reads, never to
    the category: a hom-set is memoized by its category, and a reference
    back would make every memo a cycle that only the cyclic collector
    frees.
    """

    __slots__ = ("_size", "_build", "_members")

    def __init__(self, size: int, build: Callable[[], list]):
        self._size = size
        self._build = build
        self._members = None

    def __len__(self) -> int:
        return self._size

    def __getitem__(self, i):
        return self._built()[i]

    def __iter__(self):
        return iter(self._built())

    def _built(self) -> list:
        members = self._members
        if members is None:
            members = self._build()
            if len(members) != self._size:
                raise CategoryError(f"hom-set built {len(members)} members, "
                                    f"counted {self._size}")
            self._members, self._build = members, None
        return members


def checked_bound(bound) -> int:
    """bound, checked where a category that truncates by carrier size is
    built.  A bound that is not an integer raises ``CategoryError``, and so
    does a negative one: every enumeration would be empty, and each answer
    drawn from it vacuous."""
    try:
        negative = operator.index(bound) < 0
    except TypeError:
        raise CategoryError(
            f"enumeration bound must be an integer, not {bound!r}") from None
    if negative:
        raise CategoryError(f"negative enumeration bound {bound}")
    return bound


class ComputableCategory(Category):
    """Category whose objects are enumerated once.

    ``objects`` memoizes ``_objects()`` and hands out a copy; ``hom``
    memoizes ``_hom(x, y)``, a list or a ``HomSet``, and hands out the
    memoized hom-set.  A subclass that truncates by carrier size holds its
    bound, fixed and checked (``checked_bound``) where it is built.
    """

    bounded = True

    def __init__(self):
        self._objects_memo: Optional[list] = None
        self._hom_memo: dict = {}

    def objects(self):
        out = self._objects_memo
        if out is None:
            out = self._objects_memo = self._objects()
        return list(out)

    def hom(self, x, y):
        key = (x, y)
        out = self._hom_memo.get(key)
        if out is None:
            out = self._hom_memo[key] = self._hom(x, y)
        return out

    def _objects(self) -> list:
        raise NotImplementedError

    def _hom(self, x, y) -> Sequence:
        raise NotImplementedError


def validate_category(cat: Category) -> list[str]:
    """Check all category laws on the (enumerated) fragment of cat.

    Returns a list of violations; each names the offending pair or triple.
    Violations are data, not errors.
    """
    report: list[str] = []
    objs = cat.objects()
    mors = []
    for x in objs:
        for y in objs:
            mors.extend(cat.hom(x, y))

    for x in objs:
        try:
            i = cat.identity(x)
        except CategoryError:
            report.append(f"missing identity for object {x}")
            continue
        if i.src != x or i.dst != x:
            report.append(f"identity of {x} is not an endomorphism: {i}")

    if isinstance(cat, FinCategory):
        mors = cat.morphisms()
        for (g, f), h in cat._table.items():
            gm, fm, hm = cat._mors.get(g), cat._mors.get(f), cat._mors.get(h)
            if gm is None or fm is None or hm is None:
                report.append(f"compose({g},{f})={h} mentions unknown morphism")
                continue
            if fm.dst != gm.src:
                report.append(f"compose defined on non-composable pair ({g},{f})")
            elif (hm.src, hm.dst) != (fm.src, gm.dst):
                report.append(f"compose({g},{f})={h} has wrong endpoints")
        for g in mors:
            for f in mors:
                if f.dst == g.src and (g.name, f.name) not in cat._table:
                    report.append(f"compose undefined on composable pair ({g.name},{f.name})")

    def comp(g, f):
        try:
            return cat.compose(g, f)
        except Exception as exc:  # surfaced as a violation below
            report.append(f"compose failed on composable pair ({g},{f}): {exc}")
            return None

    for m in mors:
        try:
            i_dom, i_cod = cat.identity(m.src), cat.identity(m.dst)
        except CategoryError:  # reported above as a missing identity
            continue
        left = comp(i_cod, m)
        right = comp(m, i_dom)
        if left is not None and left != m:
            report.append(f"left unit law fails: id∘{m} = {left}")
        if right is not None and right != m:
            report.append(f"right unit law fails: {m}∘id = {right}")

    for f in mors:
        for g in mors:
            if g.src != f.dst:
                continue
            gf = comp(g, f)
            if gf is None:
                continue
            for h in mors:
                if h.src != g.dst:
                    continue
                hg = comp(h, g)
                if hg is None:
                    continue
                lhs = comp(h, gf)
                rhs = comp(hg, f)
                if lhs != rhs:
                    report.append(f"associativity fails on ({h},{g},{f}): {lhs} vs {rhs}")
    return report


class Functor:
    """A functor given by object/morphism callables (or tables).

    A subclass may omit the callables and write ``_on_obj`` / ``_on_mor``
    as methods instead.
    """

    def __init__(self, src: Category, dst: Category, on_obj: Optional[Callable] = None,
                 on_mor: Optional[Callable] = None, name: str = ""):
        self.src = src
        self.dst = dst
        if on_obj is not None:
            self._on_obj = on_obj
        if on_mor is not None:
            self._on_mor = on_mor
        self.name = name
        self._obj_cache: dict = {}
        self._mor_cache: dict = {}

    def _on_obj(self, x):
        raise NotImplementedError

    def _on_mor(self, m):
        raise NotImplementedError

    def obj(self, x):
        try:
            return self._obj_cache[x]
        except KeyError:
            out = self._obj_cache[x] = self._on_obj(x)
            return out

    def mor(self, m):
        try:
            return self._mor_cache[m]
        except KeyError:
            out = self._mor_cache[m] = self._on_mor(m)
            return out

    def image(self, m):
        """F(m) for a path that is only compared (``Category.commutes``):
        by default the built ``mor(m)``; a functor that can follow F(m)
        without building it returns a view with src, dst and values."""
        return self.mor(m)

    def legs(self, x, elements=None) -> Optional[list]:
        """The legs of the given elements of obj(x), or of every element:
        with its base point, an element's legs fix it.  None here, for a
        functor that tracks none.  A functor that returns legs promises
        that F(m) sends each element to the one whose legs are m applied to
        its legs, over the same base point; ``iso_failures`` decides
        naturality by them."""
        return None

    def then(self, other: "Functor") -> "Functor":
        """Diagrammatic composite: apply self first, then other."""
        if self.dst != other.src:
            raise CategoryError("non-composable functors")
        return ComposedFunctor(self, other)

    def check(self) -> list[str]:
        """Functor laws on the enumerated fragment of the source."""
        report = []
        objs = self.src.objects()
        for x in objs:
            ix = self.src.identity(x)
            if not self.dst.commutes([self.image(ix)], [self.dst.identity(self.obj(x))]):
                report.append(f"identity not preserved at {x}")
        for x in objs:
            for y in objs:
                for f in self.src.hom(x, y):
                    fm = self.image(f)
                    if fm.src != self.obj(x) or fm.dst != self.obj(y):
                        report.append(f"dom/cod not preserved at {f}")
                for z in objs:
                    for f in self.src.hom(x, y):
                        for g in self.src.hom(y, z):
                            if not self.dst.commutes([self.image(self.src.compose(g, f))],
                                                     [self.image(f), self.image(g)]):
                                report.append(f"composition not preserved on ({g},{f})")
        return report


class ComposedFunctor(Functor):
    """first, then second; it stores nothing, its factors memoize."""

    def __init__(self, first: Functor, second: Functor):
        super().__init__(first.src, second.dst, name=f"{second.name}∘{first.name}")
        self.first = first
        self.second = second

    def obj(self, x):
        return self.second.obj(self.first.obj(x))

    def mor(self, m):
        return self.second.mor(self.first.mor(m))


class IdentityFunctor(Functor):
    def __init__(self, cat: Category):
        super().__init__(cat, cat, name="Id")

    def obj(self, x):
        return x

    def mor(self, m):
        return m

    def image(self, m):
        """m itself, ahead of ``CartFunctor.image`` in ``IdentityCartFunctor``."""
        return m


class TableFunctor(Functor):
    """Functor between table-backed categories given by explicit dictionaries."""

    def __init__(self, src: FinCategory, dst: FinCategory, obj_map: dict, mor_map: dict,
                 name: str = ""):
        super().__init__(src, dst, name=name)
        self.obj_map = dict(obj_map)
        self.mor_map = dict(mor_map)

    def _on_obj(self, x):
        try:
            return self.obj_map[x]
        except KeyError:
            raise CategoryError(f"functor {self.name!r} has no image for object {x!r}") from None

    def _on_mor(self, m):
        try:
            name = self.mor_map[m.name]
        except KeyError:
            raise CategoryError(
                f"functor {self.name!r} has no image for morphism {m.name!r}") from None
        return self.dst.mor(name)


def naturality_failures(source: Functor, target: Functor, at: Callable) -> list:
    """The generators f: x -> y of the enumerated source category at which
    at(y) ∘ source(f) ≠ target(f) ∘ at(x), in the order of ``generators``.

    Squares on generators decide naturality: both functors preserve
    identities and composition, so when the squares of f and g commute,
    so does the square of g ∘ f, and every enumerated morphism is a
    composite of generators through objects of the enumeration.  A failing
    transformation is reported at the generators only.  Each square is only
    compared, so source(f) and target(f) are asked for as ``image``s: a
    change of base follows them pointwise and builds neither.
    """
    cat = source.dst
    return [f for f in source.src.generators()
            if not cat.commutes([source.image(f), at(f.dst)], [at(f.src), target.image(f)])]


MISTYPED = ("does not commute", "wrong source", "wrong target")


def iso_failures(source: Functor, target: Functor, at: Callable) -> list[tuple]:
    """Why at is no natural isomorphism source => target on the enumerated
    source, as (what, where, found, wanted) tuples.  Each object x gives at
    most one: "does not commute" where at(x) raises ``NotCommuting``, as
    a triangle's constructor does; "wrong source" or "wrong target", with
    found and wanted the ends; else "not invertible".  Then "naturality"
    at each failing generator (``naturality_failures``), unless one is in
    ``MISTYPED``, since the squares of such a component do not compose.

    Where both functors track legs (``Functor.legs``), each component, a
    morphism and so one that keeps base points, is asked to keep legs
    too: the target's legs of its images must be the source's legs of the
    elements of source(x).  If every one
    does, at is natural with no square checked.  For f: x -> y the two
    paths around the square of f send an element z of source(x) to
    elements of target(y) over the base point of z, both with f applied
    to the legs of z as legs, and an element is fixed by its legs and its
    base point.  Otherwise, or where
    either functor tracks none, the squares run, so a transformation that
    fails is reported at its failing generators, as ever.
    """
    cat = source.dst
    out = []
    by_legs = True
    for x in source.src.objects():
        try:
            c = at(x)
        except NotCommuting:
            out.append(("does not commute", x, None, None))
            continue
        want_src, want_dst = source.obj(x), target.obj(x)
        if c.src != want_src:
            out.append(("wrong source", x, c.src, want_src))
        elif c.dst != want_dst:
            out.append(("wrong target", x, c.dst, want_dst))
        else:
            if not cat.is_isomorphism(c):
                out.append(("not invertible", x, None, None))
            legs = source.legs(x) if by_legs else None
            by_legs = legs is not None and target.legs(
                x, c.values(c.src.dom.elements)) == legs
    if any(what in MISTYPED for what, *_ in out):
        return out
    if not by_legs:
        out += [("naturality", f, None, None)
                for f in naturality_failures(source, target, at)]
    return out


class NatTrans:
    """Natural transformation between parallel functors, component by component."""

    def __init__(self, source: Functor, target: Functor, component: Callable, name: str = ""):
        if source.src != target.src:
            raise CategoryError("transformation needs parallel functors")
        self.source = source
        self.target = target
        self._component = component
        self.name = name
        self._cache: dict = {}

    def at(self, x):
        try:
            return self._cache[x]
        except KeyError:
            out = self._cache[x] = self._component(x)
            return out

    def check_iso(self) -> list[str]:
        """The failures of ``iso_failures``, one line each; empty exactly
        when the transformation is a natural isomorphism on the enumerated
        source, whose inverse components then form one too."""
        return [f"{self.name}: {what} at {where}"
                + (f": {found} ≠ {wanted}" if found is not None else "")
                for what, where, found, wanted in
                iso_failures(self.source, self.target, self.at)]


class Decision(NamedTuple):
    """Outcome of a yes/no check with an auditable witness on failure."""

    ok: bool
    witness: Any = None
    within_bound: bool = False

    def __bool__(self):
        return self.ok


def is_faithful(functor: Functor) -> Decision:
    """Injectivity of the morphism map on every enumerated hom-set."""
    src = functor.src
    truncated = src.bounded
    objs = src.objects()
    for x in objs:
        for y in objs:
            seen = {}
            for f in src.hom(x, y):
                img = functor.mor(f)
                if img in seen and seen[img] != f:
                    return Decision(False, (seen[img], f), truncated)
                seen[img] = f
    return Decision(True, None, truncated)


def is_full(functor: Functor) -> Decision:
    """Surjectivity of the morphism map onto hom(F x, F y) for enumerated
    x, y.  The witness is (x, y, missed): the first pair, in enumeration
    order, whose target has a member that no image of hom(x, y) hits, and
    the first such member.  The pair is part of the witness because missed
    alone does not show the miss: another pair with the same images may
    hit it."""
    src, dst = functor.src, functor.dst
    truncated = src.bounded or dst.bounded
    objs = src.objects()
    for x in objs:
        for y in objs:
            hit = {functor.mor(f) for f in src.hom(x, y)}
            target = dst.hom(functor.obj(x), functor.obj(y))
            missed = next((g for g in target if g not in hit), None)
            if missed is not None:
                return Decision(False, (x, y, missed), truncated)
    return Decision(True, None, truncated)


def find_isomorphism(cat: Category, x, y):
    """The first f in hom(x, y), in enumeration order, that
    ``cat.is_isomorphism`` accepts, or None."""
    return next((f for f in cat.hom(x, y) if cat.is_isomorphism(f)), None)


def is_essentially_surjective(functor: Functor) -> Decision:
    src, dst = functor.src, functor.dst
    truncated = src.bounded or dst.bounded
    images = [functor.obj(x) for x in src.objects()]
    for y in dst.objects():
        if all(find_isomorphism(dst, img, y) is None for img in images):
            return Decision(False, y, truncated)
    return Decision(True, None, truncated)


EQUIVALENCE = "Equivalence"
FULLY_FAITHFUL_ONLY = "FullyFaithfulOnly"
FAITHFUL_ONLY = "FaithfulOnly"
NOT_FAITHFUL = "None"


class EquivalenceReport(NamedTuple):
    level: str
    faithful: Decision
    full: Decision
    essentially_surjective: Optional[Decision]  # None: not decided

    @property
    def within_bound(self):
        return any(d.within_bound for d in
                   (self.faithful, self.full, self.essentially_surjective)
                   if d is not None)


def is_equivalence(functor: Functor, *,
                   ess_surj: Optional[Callable[[], Decision]] = None) -> EquivalenceReport:
    """Classify a functor as equivalence / fully faithful / faithful / none.

    ess_surj, when given, replaces the blind search for essential surjectivity
    (used by descent's constructive check).  Essential surjectivity is not
    decided, and reported as None, when the functor is not faithful.
    """
    faith = is_faithful(functor)
    full = is_full(functor)
    if not faith:
        return EquivalenceReport(NOT_FAITHFUL, faith, full, None)
    surj = ess_surj() if ess_surj is not None else is_essentially_surjective(functor)
    if full and surj:
        return EquivalenceReport(EQUIVALENCE, faith, full, surj)
    if full:
        return EquivalenceReport(FULLY_FAITHFUL_ONLY, faith, full, surj)
    return EquivalenceReport(FAITHFUL_ONLY, faith, full, surj)


class FullSubcategory(Category):
    """Full subcategory on the objects satisfying a predicate."""

    def __init__(self, ambient: Category, keep: Callable[[Any], bool], name: str = ""):
        self.ambient = ambient
        self.keep = keep
        self.name = name
        self.bounded = ambient.bounded

    def objects(self):
        return [x for x in self.ambient.objects() if self.keep(x)]

    def hom(self, x, y):
        return self.ambient.hom(x, y)

    def identity(self, x):
        return self.ambient.identity(x)

    def compose(self, g, f):
        return self.ambient.compose(g, f)

    def inclusion(self) -> Functor:
        return Functor(self, self.ambient, lambda x: x, lambda m: m, name=f"incl {self.name}")
