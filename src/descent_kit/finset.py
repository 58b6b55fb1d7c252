"""Finite sets with chosen limits and colimits.

Sets are duplicate-free tuples of labels; a label is any hashable value.
All constructions (pullback, product, equalizer, quotient, ...) choose a
canonical result, so iterated constructions compose up to canonical
isomorphism, never on the nose.  An element of a chosen pullback is the
Python tuple ``(x, y)`` of its two components, so iterated pullbacks nest
tuples and a witness prints as Python's own repr of them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Hashable, Iterable, NamedTuple


class FinSetError(ValueError):
    """Raised on malformed finite-set data (duplicate labels, non-total maps...)."""


@dataclass(frozen=True)
class FinSetObj:
    """A finite set: a duplicate-free tuple of element labels."""

    elements: tuple[Hashable, ...]

    def __post_init__(self):
        if len(set(self.elements)) != len(self.elements):
            raise FinSetError(f"duplicate labels in {self.elements}")

    @staticmethod
    def of(labels: Iterable[Hashable]) -> "FinSetObj":
        return FinSetObj(tuple(labels))

    def __contains__(self, label: Hashable) -> bool:
        return label in self.elements

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    @property
    def key(self) -> tuple[Hashable, ...]:
        return self.elements

    def __repr__(self):
        return "{" + ",".join(map(str, self.elements)) + "}"


EMPTY = FinSetObj(())


@dataclass(frozen=True)
class FinFunction:
    """A total function between finite sets, given by an explicit mapping."""

    dom: FinSetObj
    cod: FinSetObj
    mapping: tuple[tuple[Hashable, Hashable], ...]  # ordered as dom.elements

    _table: dict = field(init=False, repr=False, compare=False, hash=False)

    def __post_init__(self):
        table = dict(self.mapping)
        if tuple(x for x, _ in self.mapping) != self.dom.elements:
            raise FinSetError("mapping must list every domain element once, in order")
        for x, y in self.mapping:
            if y not in self.cod:
                raise FinSetError(f"image {y!r} of {x!r} not in codomain {self.cod}")
        object.__setattr__(self, "_table", table)

    @staticmethod
    def of(dom: FinSetObj, cod: FinSetObj, assignment) -> "FinFunction":
        """Build from a dict or a callable on labels."""
        get = assignment.__getitem__ if hasattr(assignment, "__getitem__") else assignment
        return FinFunction(dom, cod, tuple((x, get(x)) for x in dom.elements))

    @staticmethod
    def identity(s: FinSetObj) -> "FinFunction":
        return FinFunction(s, s, tuple((x, x) for x in s.elements))

    def __call__(self, x: Hashable) -> Hashable:
        return self._table[x]

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
        return FinFunction(self.dom, other.cod,
                           tuple((x, other._table[y]) for x, y in self.mapping))

    def after(self, other: "FinFunction") -> "FinFunction":
        return other.then(self)

    @property
    def key(self):
        return (self.dom.key, self.cod.key, self.mapping)

    def image(self) -> FinSetObj:
        seen = []
        for _, y in self.mapping:
            if y not in seen:
                seen.append(y)
        return FinSetObj(tuple(l for l in self.cod.elements if l in seen))

    def is_injective(self) -> bool:
        vals = [y for _, y in self.mapping]
        return len(set(vals)) == len(vals)

    def is_surjective(self) -> bool:
        return set(y for _, y in self.mapping) == set(self.cod.elements)

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


def compose(g: FinFunction, f: FinFunction) -> FinFunction:
    """compose(g, f) = f then g."""
    return f.then(g)


class Pullback(NamedTuple):
    obj: FinSetObj
    pr1: FinFunction
    pr2: FinFunction


def pullback(f: FinFunction, g: FinFunction) -> Pullback:
    """Chosen pullback of a cospan f: X -> Z <- Y : g.

    The carrier is the set of tuples (x, y) with f(x) = g(y), ordered
    lexicographically in the (dom(f), dom(g)) element orders.
    """
    if f.cod != g.cod:
        raise FinSetError(f"codomain mismatch: {f.cod} vs {g.cod}")
    pairs = tuple((x, y) for x in f.dom.elements for y in g.dom.elements if f(x) == g(y))
    obj = FinSetObj(pairs)
    pr1 = FinFunction(obj, f.dom, tuple((t, t[0]) for t in pairs))
    pr2 = FinFunction(obj, g.dom, tuple((t, t[1]) for t in pairs))
    return Pullback(obj, pr1, pr2)


def mediating_map(f: FinFunction, g: FinFunction, q1: FinFunction, q2: FinFunction) -> FinFunction:
    """The unique map into pullback(f, g) induced by a commuting cone (q1, q2)."""
    if q1.dom != q2.dom:
        raise FinSetError("cone legs must share a domain")
    if q1.then(f).mapping != q2.then(g).mapping:
        raise FinSetError("cone does not commute over the cospan")
    pb = pullback(f, g)
    return FinFunction.of(q1.dom, pb.obj, lambda w: (q1(w), q2(w)))


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

    for a, b in pairs:
        if a not in parent or b not in parent:
            raise FinSetError(f"pair ({a!r},{b!r}) not drawn from {x}")
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra
    classes: dict[Hashable, list[Hashable]] = {}
    for e in x.elements:
        classes.setdefault(find(e), []).append(e)
    # pick the earliest member (in x's order) as the class label
    label_of_root = {root: members[0] for root, members in classes.items()}
    q = FinSetObj(tuple(sorted(label_of_root.values(), key=x.elements.index)))
    proj = FinFunction.of(x, q, lambda e: label_of_root[find(e)])
    return q, proj


class Product(NamedTuple):
    obj: FinSetObj
    pr1: FinFunction
    pr2: FinFunction


def product(x: FinSetObj, y: FinSetObj) -> Product:
    one = FinSetObj(("*",))
    f = FinFunction.of(x, one, lambda _: "*")
    g = FinFunction.of(y, one, lambda _: "*")
    pb = pullback(f, g)
    return Product(pb.obj, pb.pr1, pb.pr2)


class Equalizer(NamedTuple):
    obj: FinSetObj
    incl: FinFunction


def equalizer(f: FinFunction, g: FinFunction) -> Equalizer:
    if f.dom != g.dom or f.cod != g.cod:
        raise FinSetError("equalizer needs a parallel pair")
    kept = tuple(e for e in f.dom.elements if f(e) == g(e))
    obj = FinSetObj(kept)
    return Equalizer(obj, FinFunction.of(obj, f.dom, lambda e: e))


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
