"""Finite sets with chosen limits and colimits.

Sets are duplicate-free tuples of labels; a label is any hashable value.
The library never compares two labels, so they may mix ints and strings.
All constructions (pullback, quotient, coproduct) choose a canonical
result, so iterated constructions compose up to canonical isomorphism,
never on the nose.  An element of a chosen pullback is the
Python tuple ``(x, y)`` of its two components, so iterated pullbacks nest
tuples and a witness prints as Python's own repr of them.  A ``Pullback``
builds its second projection, the object of a slice that change of base
hands out, and builds its first only when read; a reader that only needs
the first component of some pairs reads it off the pairs themselves
(``slices.ChangeOfBase.legs``).  Every fiberwise algorithm groups a map
by its image with ``FinFunction.fibers``, which groups each function
once, on first call, and hands the grouping out read-only, each fiber a
tuple, so no caller can grow it: a pullback along a fixed map reads the
same grouping on every call.

Every ``FinFunction`` is built by its one constructor, which checks it:
composites and mediating maps included, since a codomain check is what
makes ``mediating_map`` a commutation check.  Change of base in
``slices`` builds its mediating maps into a chosen pullback directly from
the two legs, with that same one constructor and so the same check.  A
check that only compares composites or images builds none: ``follow``
reads values off the tables of the factors, and an image that is only
followed checks none: it follows a triangle, checked where it is built
(``slices.SliceMor``).  The checks are set operations: a
``FinSetObj`` keeps its elements as a frozenset, so membership costs one
hash.  Both classes take their hash once, at construction, because every
memo of the library hashes its keys through them: an object of a slice
category in ``slices`` is a ``FinFunction`` itself.  A ``FinSetObj``
takes it from its frozenset, which has hashed every element already; a
``FinFunction`` from its tuple of pairs.  Equality tries identity first,
then the stored hashes, and compares fields only when those agree.  Both
classes are slotted, so the stored hash and set cost no per-instance
dictionary.  Both take tuples only: a list or a string where a tuple
belongs raises ``FinSetError``.  ``FinFunction.values`` handed the domain
itself, in order, reads the table with no hash taken, and ``follow``
hands its first step the elements it is given.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Hashable, Iterable, NamedTuple


class FinSetError(ValueError):
    """Raised on malformed finite-set data (duplicate labels, non-total maps...)."""


@dataclass(frozen=True, slots=True)
class FinSetObj:
    """A finite set: a duplicate-free tuple of element labels."""

    elements: tuple[Hashable, ...]

    _members: frozenset = field(init=False, repr=False, compare=False, hash=False)
    _hash: int = field(init=False, repr=False, compare=False, hash=False)

    def __post_init__(self):
        if not isinstance(self.elements, tuple):
            raise FinSetError(f"elements must be a tuple of labels, not {self.elements!r}")
        try:
            members = frozenset(self.elements)
        except TypeError:
            raise FinSetError(f"elements must be hashable labels: {self.elements!r}") from None
        if len(members) != len(self.elements):
            raise FinSetError(f"duplicate labels in {self.elements}")
        object.__setattr__(self, "_members", members)
        object.__setattr__(self, "_hash", hash(members))

    def __contains__(self, label: Hashable) -> bool:
        """Whether label is an element, at one hash; an unhashable label
        lies in no set."""
        try:
            return label in self._members
        except TypeError:
            return False

    def includes(self, labels: Iterable[Hashable]) -> bool:
        """Whether every one of labels is an element, at one hash each; an
        unhashable label lies in no set."""
        try:
            return self._members.issuperset(labels)
        except TypeError:
            return False

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._hash == other._hash and self.elements == other.elements

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __repr__(self):
        return "{" + ",".join(map(str, self.elements)) + "}"


EMPTY = FinSetObj(())


@dataclass(frozen=True, slots=True)
class FinFunction:
    """A total function between finite sets, given by an explicit mapping."""

    dom: FinSetObj
    cod: FinSetObj
    mapping: tuple[tuple[Hashable, Hashable], ...]  # ordered as dom.elements

    _table: dict = field(init=False, repr=False, compare=False, hash=False)
    _hash: int = field(init=False, repr=False, compare=False, hash=False)
    _fibers: object = field(init=False, repr=False, compare=False, hash=False)

    def __post_init__(self):
        # the one constructor: every function, composites included, is
        # checked here, with set operations rather than scans of the tuples
        try:
            table = dict(self.mapping)
        except (TypeError, ValueError):
            raise FinSetError(f"mapping must be (element, image) pairs: {self.mapping!r}") from None
        if len(table) != len(self.mapping) or tuple(table) != self.dom.elements:
            raise FinSetError("mapping must list every domain element once, in order")
        if not self.cod.includes(table.values()):
            x, y = next((x, y) for x, y in self.mapping if y not in self.cod.elements)
            raise FinSetError(f"image {y!r} of {x!r} not in codomain {self.cod}")
        try:
            mapping_hash = hash(self.mapping)
        except TypeError:  # a list where a tuple belongs
            raise FinSetError(f"mapping must be a tuple of (element, image) tuples: "
                              f"{self.mapping!r}") from None
        object.__setattr__(self, "_table", table)
        object.__setattr__(self, "_hash", mapping_hash)
        object.__setattr__(self, "_fibers", None)

    @staticmethod
    def of(dom: FinSetObj, cod: FinSetObj, assignment) -> "FinFunction":
        """Build from a mapping (a dict) or a callable on labels."""
        if isinstance(assignment, Mapping):
            try:
                images = [assignment[x] for x in dom.elements]
            except KeyError as exc:
                raise FinSetError(f"the assignment gives no image of {exc.args[0]!r}") from None
            return FinFunction(dom, cod, tuple(zip(dom.elements, images)))
        if not callable(assignment):
            raise FinSetError(f"an assignment is a mapping or a callable, not {assignment!r}")
        images = [assignment(x) for x in dom.elements]
        return FinFunction(dom, cod, tuple(zip(dom.elements, images)))

    @staticmethod
    def identity(s: FinSetObj) -> "FinFunction":
        return FinFunction(s, s, tuple(zip(s.elements, s.elements)))

    def __call__(self, x: Hashable) -> Hashable:
        try:
            return self._table[x]
        except (KeyError, TypeError):  # TypeError: an unhashable label
            raise FinSetError(f"{x!r} is not in the domain {self.dom}") from None

    def values(self, elements: Iterable[Hashable]) -> list:
        """The image of each of elements, read off the table; one outside
        the domain, an unhashable one included, raises ``FinSetError``.
        Handed the domain's own elements, it reads the table in order,
        taking no hash."""
        table = self._table
        if elements is self.dom.elements:
            return list(table.values())
        try:
            return [table[x] for x in elements]
        except KeyError as exc:
            raise FinSetError(f"{exc.args[0]!r} is not in the domain {self.dom}") from None
        except TypeError:
            raise FinSetError(f"an unhashable label is not in the domain {self.dom}") from None

    def __hash__(self):
        # equal functions have equal mappings, so the hash of the tuple of
        # pairs, taken once at construction, serves every memo lookup
        return self._hash

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self._hash == other._hash and self.mapping == other.mapping
                and self.dom == other.dom and self.cod == other.cod)

    # dom/cod aliases so a FinFunction can act as a morphism of FinSetCategory
    @property
    def src(self) -> FinSetObj:
        return self.dom

    @property
    def dst(self) -> FinSetObj:
        return self.cod

    def then(self, other: "FinFunction") -> "FinFunction":
        """Diagrammatic composition: self first, then other."""
        if self.cod != other.dom:
            raise FinSetError("non-composable functions")
        table = other._table
        return FinFunction(self.dom, other.cod, tuple(zip(
            self.dom.elements, [table[y] for y in self._table.values()])))

    @property
    def key(self):
        # read only by perfbench/child.py, as the digest of each input map
        return (self.dom.elements, self.cod.elements, self.mapping)

    def fibers(self) -> Mapping:
        """Each point of the codomain that is hit, with the tuple of the
        elements over it in domain order; the points come in the order of
        their first element.  Grouped on the first call and kept: every
        call hands out the same read-only mapping."""
        fibers = self._fibers
        if fibers is None:
            out: dict = {}
            for x, y in self.mapping:
                out.setdefault(y, []).append(x)
            fibers = MappingProxyType({y: tuple(xs) for y, xs in out.items()})
            object.__setattr__(self, "_fibers", fibers)
        return fibers

    def is_injective(self) -> bool:
        vals = [y for _, y in self.mapping]
        return len(set(vals)) == len(vals)

    def hits(self, points: Iterable[Hashable]) -> bool:
        """Whether every one of points is the image of some element."""
        return set(self._table.values()).issuperset(points)

    def is_surjective(self) -> bool:
        return self.cod._members.issubset(self._table.values())

    def is_bijective(self) -> bool:
        return self.is_injective() and self.is_surjective()

    def inverse(self) -> "FinFunction":
        if not self.is_bijective():
            raise FinSetError("not invertible")
        inv = {y: x for x, y in self.mapping}
        return FinFunction.of(self.cod, self.dom, inv)

    def __repr__(self):
        body = " ".join(f"{x}:{y}" for x, y in self.mapping)
        return f"[{body}]"


def follow(path: Iterable[FinFunction], elements: Iterable[Hashable]) -> list:
    """The value at each of elements of the composite of path, its functions
    listed in the order they apply, read off their tables: the composite
    itself is never built.  An empty path is the identity.  A value outside
    the domain of the next function raises ``FinSetError``.  The first step
    is handed elements as given, so a domain's own elements are read in
    order with no hash taken."""
    values = elements
    for fn in path:
        values = fn.values(values)
    return list(values) if values is elements else values


class Pullback:
    """A chosen pullback of f: X -> Z <- Y : g: its carrier obj, a set of
    pairs (x, y), and the projection pr2 to Y.  The projection pr1 to X is
    built on first read, with the checked constructor, and kept; a reader
    that only needs the first components reads them off the pairs."""

    __slots__ = ("obj", "pr2", "_factor1", "_pr1")

    def __init__(self, obj: FinSetObj, pr2: FinFunction, factor1: FinSetObj):
        self.obj = obj
        self.pr2 = pr2
        self._factor1 = factor1  # X, the codomain of pr1
        self._pr1 = None

    @property
    def pr1(self) -> FinFunction:
        pr1 = self._pr1
        if pr1 is None:
            pairs = self.obj.elements
            pr1 = self._pr1 = FinFunction(self.obj, self._factor1,
                                          tuple(zip(pairs, [t[0] for t in pairs])))
        return pr1


def pullback(f: FinFunction, g: FinFunction) -> Pullback:
    """Chosen pullback of a cospan f: X -> Z <- Y : g.

    The carrier is the set of tuples (x, y) with f(x) = g(y), ordered
    lexicographically in the (dom(f), dom(g)) element orders.  It is joined
    by fiber: each x is paired with the fiber of g over f(x), read off
    ``g.fibers()``, in dom(g) order.  Only pr2 is built here.
    """
    if f.cod != g.cod:
        raise FinSetError(f"codomain mismatch: {f.cod} vs {g.cod}")
    fiber_of = g.fibers()
    pairs = tuple([(x, y) for x, z in f.mapping for y in fiber_of.get(z, ())])
    obj = FinSetObj(pairs)
    return Pullback(obj, FinFunction(obj, g.dom, tuple(zip(pairs, [t[1] for t in pairs]))),
                    f.dom)


def mediating_map(pb: Pullback, q1: FinFunction, q2: FinFunction) -> FinFunction:
    """The unique map w |-> (q1(w), q2(w)) into the chosen pullback pb of a
    cospan f, g, induced by a cone (q1, q2) over it.

    The cone commutes, f(q1(w)) = g(q2(w)) for every w, exactly when each
    (q1(w), q2(w)) is an element of pb.obj, so the codomain check of the
    result is the commutation check.
    """
    if q1.dom != q2.dom:
        raise FinSetError("cone legs must share a domain")
    if q1.cod != pb._factor1 or q2.cod != pb.pr2.cod:
        raise FinSetError("cone legs must land in the factors of the pullback")
    elements = q1.dom.elements
    return FinFunction(q1.dom, pb.obj, tuple(zip(
        elements, zip(q1.values(elements), q2.values(elements)))))


def quotient(x: FinSetObj, pairs: Iterable[tuple[Hashable, Hashable]]) -> tuple[FinSetObj, FinFunction]:
    """Quotient by the equivalence relation generated by pairs.

    Class labels are the smallest member label (in element order of x).
    """
    parent = {e: e for e in x.elements}

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for pair in pairs:
        try:
            a, b = pair
        except (TypeError, ValueError):
            raise FinSetError(f"{pair!r} is not a pair of labels") from None
        if not x.includes((a, b)):  # an unhashable label included
            raise FinSetError(f"pair ({a!r},{b!r}) not drawn from {x}")
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra
    # each class is labelled by its earliest member in x's order; walking x
    # meets the classes in the order of those members, so q needs no sort
    label_of_root: dict[Hashable, Hashable] = {}
    for e in x.elements:
        label_of_root.setdefault(find(e), e)
    q = FinSetObj(tuple(label_of_root.values()))
    proj = FinFunction.of(x, q, lambda e: label_of_root[find(e)])
    return q, proj


class Coproduct(NamedTuple):
    obj: FinSetObj
    in1: FinFunction
    in2: FinFunction


def coproduct(x: FinSetObj, y: FinSetObj) -> Coproduct:
    lx = tuple(("0", e) for e in x.elements)
    ly = tuple(("1", e) for e in y.elements)
    obj = FinSetObj(lx + ly)
    in1 = FinFunction(x, obj, tuple(zip(x.elements, lx)))
    in2 = FinFunction(y, obj, tuple(zip(y.elements, ly)))
    return Coproduct(obj, in1, in2)


def all_functions(x: FinSetObj, y: FinSetObj):
    """Every function x -> y, in deterministic (product) order."""
    if len(x) == 0:
        yield FinFunction(x, y, ())
        return
    for images in itertools.product(y.elements, repeat=len(x)):
        yield FinFunction(x, y, tuple(zip(x.elements, images)))


def canonical_set(n: int, prefix: str = "e") -> FinSetObj:
    return FinSetObj(tuple(f"{prefix}{i}" for i in range(n)))
