"""Finite and boundedly-enumerable categories, functors, transformations.

Two flavours of category share one protocol: table-backed ``FinCategory``
(explicit objects, morphisms and composition table) and subclasses of
``ComputableCategory`` (objects enumerated up to a carrier-size bound,
hom-sets computed on demand).  Objects and morphisms are values: they are
compared and hashed as themselves, component by component.

Decision procedures (faithful / full / essentially surjective / equivalence)
always return a witness with a negative answer, and flag results obtained on
a truncated enumeration as "within bound".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional


class CategoryError(ValueError):
    pass


@dataclass(frozen=True)
class TableMor:
    """Morphism of a table-backed category."""

    name: str
    src: str
    dst: str


class Category:
    """Minimal protocol: enumerable objects, computable hom-sets, composition."""

    bounded = False  # True when objects() is a truncated enumeration

    def objects(self, bound: Optional[int] = None) -> list:
        raise NotImplementedError

    def hom(self, x, y) -> list:
        raise NotImplementedError

    def identity(self, x):
        raise NotImplementedError

    def compose(self, g, f):
        """compose(g, f) means "f then g"; defined only when cod(f) = dom(g)."""
        raise NotImplementedError


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

    def objects(self, bound=None):
        return list(self._objects)

    def morphisms(self):
        return [self._mors[n] for n in self._mors]

    def mor(self, name: str) -> TableMor:
        return self._mors[name]

    def hom(self, x, y):
        return [m for m in self._mors.values() if m.src == x and m.dst == y]

    def identity(self, x):
        return self._mors[self._identity[x]]

    def compose(self, g, f):
        if f.dst != g.src:
            raise CategoryError(f"non-composable pair ({g.name}, {f.name})")
        try:
            return self._mors[self._table[(g.name, f.name)]]
        except KeyError:
            raise CategoryError(f"composition table missing ({g.name}, {f.name})")

    def validate(self) -> list[str]:
        return validate_category(self)


class ComputableCategory(Category):
    """Category whose objects are enumerated up to a size bound."""

    bounded = True
    default_bound: int = 4

    def objects(self, bound=None):
        raise NotImplementedError


def validate_category(cat: Category, bound: Optional[int] = None) -> list[str]:
    """Check all category laws on the (enumerated) fragment of cat.

    Returns a list of violations; each names the offending pair or triple.
    Violations are data, not errors.
    """
    report: list[str] = []
    objs = cat.objects(bound)
    mors = []
    for x in objs:
        for y in objs:
            mors.extend(cat.hom(x, y))

    if isinstance(cat, FinCategory):
        mors = cat.morphisms()
        for x in objs:
            try:
                i = cat.identity(x)
                if i.src != x or i.dst != x:
                    report.append(f"identity of {x} is not an endomorphism: {i}")
            except KeyError:
                report.append(f"missing identity for object {x}")
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
        i_dom, i_cod = cat.identity(m.src), cat.identity(m.dst)
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
    """A functor given by object/morphism callables (or tables)."""

    def __init__(self, src: Category, dst: Category, on_obj: Callable, on_mor: Callable,
                 name: str = ""):
        self.src = src
        self.dst = dst
        self._on_obj = on_obj
        self._on_mor = on_mor
        self.name = name
        self._obj_cache: dict = {}
        self._mor_cache: dict = {}

    def obj(self, x):
        if x not in self._obj_cache:
            self._obj_cache[x] = self._on_obj(x)
        return self._obj_cache[x]

    def mor(self, m):
        if m not in self._mor_cache:
            self._mor_cache[m] = self._on_mor(m)
        return self._mor_cache[m]

    def then(self, other: "Functor") -> "Functor":
        """Diagrammatic composite: apply self first, then other."""
        if self.dst != other.src:
            raise CategoryError("non-composable functors")
        return ComposedFunctor(self, other)

    def check(self, bound: Optional[int] = None) -> list[str]:
        """Functor laws on the enumerated fragment of the source."""
        report = []
        objs = self.src.objects(bound)
        for x in objs:
            ix = self.src.identity(x)
            if self.mor(ix) != self.dst.identity(self.obj(x)):
                report.append(f"identity not preserved at {x}")
        for x in objs:
            for y in objs:
                for f in self.src.hom(x, y):
                    fm = self.mor(f)
                    if fm.src != self.obj(x) or fm.dst != self.obj(y):
                        report.append(f"dom/cod not preserved at {f}")
                for z in objs:
                    for f in self.src.hom(x, y):
                        for g in self.src.hom(y, z):
                            lhs = self.mor(self.src.compose(g, f))
                            rhs = self.dst.compose(self.mor(g), self.mor(f))
                            if lhs != rhs:
                                report.append(f"composition not preserved on ({g},{f})")
        return report


class ComposedFunctor(Functor):
    def __init__(self, first: Functor, second: Functor):
        super().__init__(first.src, second.dst,
                         lambda x: second.obj(first.obj(x)),
                         lambda m: second.mor(first.mor(m)),
                         name=f"{second.name}∘{first.name}")
        self.first = first
        self.second = second


class IdentityFunctor(Functor):
    def __init__(self, cat: Category):
        super().__init__(cat, cat, lambda x: x, lambda m: m, name="Id")


class TableFunctor(Functor):
    """Functor between table-backed categories given by explicit dictionaries."""

    def __init__(self, src: FinCategory, dst: FinCategory, obj_map: dict, mor_map: dict,
                 name: str = ""):
        self.obj_map = dict(obj_map)
        self.mor_map = dict(mor_map)
        super().__init__(src, dst,
                         lambda x: self.obj_map[x],
                         lambda m: dst.mor(self.mor_map[m.name]),
                         name=name)


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
        if x not in self._cache:
            self._cache[x] = self._component(x)
        return self._cache[x]

    def check_endpoints(self, x) -> list[str]:
        c = self.at(x)
        report = []
        if c.src != self.source.obj(x):
            report.append(f"{self.name}: component at {x} has wrong domain")
        if c.dst != self.target.obj(x):
            report.append(f"{self.name}: component at {x} has wrong codomain")
        return report

    def check_naturality(self, bound: Optional[int] = None) -> list[str]:
        report = []
        src_cat = self.source.src
        cat = self.source.dst
        objs = src_cat.objects(bound)
        for x in objs:
            report.extend(self.check_endpoints(x))
        if report:
            return report
        for x in objs:
            for y in objs:
                for f in src_cat.hom(x, y):
                    lhs = cat.compose(self.at(y), self.source.mor(f))
                    rhs = cat.compose(self.target.mor(f), self.at(x))
                    if lhs != rhs:
                        report.append(f"{self.name}: naturality fails at {f}")
        return report


class NatIso(NatTrans):
    def __init__(self, source, target, component, inverse_component, name=""):
        super().__init__(source, target, component, name=name)
        self._inv_component = inverse_component
        self._inv_cache: dict = {}

    def inv_at(self, x):
        if x not in self._inv_cache:
            self._inv_cache[x] = self._inv_component(x)
        return self._inv_cache[x]

    def inverse(self) -> "NatIso":
        return NatIso(self.target, self.source, self._inv_component, self._component,
                      name=f"{self.name}⁻¹")

    def check_iso(self, bound: Optional[int] = None) -> list[str]:
        report = self.check_naturality(bound)
        report.extend(self.inverse().check_naturality(bound))
        cat = self.source.dst
        for x in self.source.src.objects(bound):
            f, g = self.at(x), self.inv_at(x)
            if cat.compose(g, f) != cat.identity(f.src) or cat.compose(f, g) != cat.identity(g.src):
                report.append(f"{self.name}: component at {x} is not invertible")
        return report


@dataclass
class Decision:
    """Outcome of a yes/no check with an auditable witness on failure."""

    ok: bool
    witness: Any = None
    within_bound: bool = False

    def __bool__(self):
        return self.ok


def is_faithful(functor: Functor, bound: Optional[int] = None) -> Decision:
    """Injectivity of the morphism map on every enumerated hom-set."""
    src = functor.src
    truncated = src.bounded
    for x in src.objects(bound):
        for y in src.objects(bound):
            seen = {}
            for f in src.hom(x, y):
                img = functor.mor(f)
                if img in seen and seen[img] != f:
                    return Decision(False, (seen[img], f), truncated)
                seen[img] = f
    return Decision(True, None, truncated)


def is_full(functor: Functor, bound: Optional[int] = None) -> Decision:
    """Surjectivity of the morphism map onto hom(F x, F y) for enumerated x, y."""
    src, dst = functor.src, functor.dst
    truncated = src.bounded or dst.bounded
    for x in src.objects(bound):
        for y in src.objects(bound):
            hit = {functor.mor(f) for f in src.hom(x, y)}
            for g in dst.hom(functor.obj(x), functor.obj(y)):
                if g not in hit:
                    return Decision(False, g, truncated)
    return Decision(True, None, truncated)


def two_sided_inverse(cat: Category, f, backward):
    """The first g in backward (a listing of hom(cod f, dom f)) with
    g∘f = id and f∘g = id, or None."""
    id_src, id_dst = cat.identity(f.src), cat.identity(f.dst)
    for g in backward:
        if cat.compose(g, f) == id_src and cat.compose(f, g) == id_dst:
            return g
    return None


def find_isomorphism(cat: Category, x, y):
    """First (in canonical enumeration order) two-sided inverse pair, or None."""
    backward = cat.hom(y, x)
    for f in cat.hom(x, y):
        g = two_sided_inverse(cat, f, backward)
        if g is not None:
            return (f, g)
    return None


def all_isomorphisms(cat: Category, x, y):
    backward = cat.hom(y, x)
    pairs = ((f, two_sided_inverse(cat, f, backward)) for f in cat.hom(x, y))
    return [(f, g) for f, g in pairs if g is not None]


def is_isomorphism(cat: Category, m) -> bool:
    return two_sided_inverse(cat, m, cat.hom(m.dst, m.src)) is not None


def is_essentially_surjective(functor: Functor, bound: Optional[int] = None) -> Decision:
    src, dst = functor.src, functor.dst
    truncated = src.bounded or dst.bounded
    images = [functor.obj(x) for x in src.objects(bound)]
    for y in dst.objects(bound):
        if not any(find_isomorphism(dst, img, y) for img in images):
            return Decision(False, y, truncated)
    return Decision(True, None, truncated)


EQUIVALENCE = "Equivalence"
FULLY_FAITHFUL_ONLY = "FullyFaithfulOnly"
FAITHFUL_ONLY = "FaithfulOnly"
NOT_FAITHFUL = "None"


@dataclass
class EquivalenceReport:
    level: str
    faithful: Decision
    full: Decision
    essentially_surjective: Optional[Decision]  # None: not decided

    @property
    def within_bound(self):
        return any(d.within_bound for d in
                   (self.faithful, self.full, self.essentially_surjective)
                   if d is not None)


def is_equivalence(functor: Functor, bound: Optional[int] = None,
                   ess_surj: Optional[Callable[[], Decision]] = None) -> EquivalenceReport:
    """Classify a functor as equivalence / fully faithful / faithful / none.

    ess_surj, when given, replaces the blind search for essential surjectivity
    (used by descent's constructive check).  Essential surjectivity is not
    decided, and reported as None, when the functor is not faithful.
    """
    faith = is_faithful(functor, bound)
    full = is_full(functor, bound)
    if not faith:
        return EquivalenceReport(NOT_FAITHFUL, faith, full, None)
    surj = ess_surj() if ess_surj is not None else is_essentially_surjective(functor, bound)
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

    def objects(self, bound=None):
        return [x for x in self.ambient.objects(bound) if self.keep(x)]

    def hom(self, x, y):
        return self.ambient.hom(x, y)

    def identity(self, x):
        return self.ambient.identity(x)

    def compose(self, g, f):
        return self.ambient.compose(g, f)

    def inclusion(self) -> Functor:
        return Functor(self, self.ambient, lambda x: x, lambda m: m, name=f"incl {self.name}")


def chain_category(n: int) -> FinCategory:
    """The linear order 0 -> 1 -> ... -> n-1 as a table category."""
    objs = [str(i) for i in range(n)]
    mors = []
    table = {}
    for i in range(n):
        for j in range(i, n):
            mors.append((f"m{i}{j}", str(i), str(j)))
    for i in range(n):
        for j in range(i, n):
            for k in range(j, n):
                table[(f"m{j}{k}", f"m{i}{j}")] = f"m{i}{k}"
    idents = {str(i): f"m{i}{i}" for i in range(n)}
    return FinCategory(objs, mors, idents, table)


def discrete_category(labels) -> FinCategory:
    labels = list(labels)
    return FinCategory(labels, [(f"id_{x}", x, x) for x in labels],
                       {x: f"id_{x}" for x in labels}, {})


def parallel_pair_category() -> FinCategory:
    """Two objects with two parallel nonidentity arrows."""
    return FinCategory(
        ["0", "1"],
        [("id0", "0", "0"), ("id1", "1", "1"), ("f", "0", "1"), ("g", "0", "1")],
        {"0": "id0", "1": "id1"},
        {})
