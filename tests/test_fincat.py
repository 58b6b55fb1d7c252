import collections
import itertools
from dataclasses import dataclass

import pytest

from descent_kit.fincat import (EQUIVALENCE, FAITHFUL_ONLY, Category, CategoryError,
                                ComputableCategory,
                                FinCategory, FullSubcategory, Functor, HomSet, IdentityFunctor,
                                NatTrans, TableFunctor, find_isomorphism,
                                is_equivalence, is_essentially_surjective,
                                is_faithful, is_full, iso_failures,
                                validate_category)
from descent_kit.finset import EMPTY, FinSetObj

from conftest import (FinSetCategory, canonical_set, chain_category, discrete_category,
                      parallel_pair_category)


def brute_force_laws(cat):
    """Independent statement of the category laws, for cross-checking."""
    bad = []
    mors = cat.morphisms()
    for m in mors:
        if cat.compose(cat.identity(m.dst), m) != m or cat.compose(m, cat.identity(m.src)) != m:
            bad.append(("unit", m))
    for f, g, h in itertools.product(mors, repeat=3):
        if f.dst == g.src and g.dst == h.src:
            if cat.compose(h, cat.compose(g, f)) != cat.compose(cat.compose(h, g), f):
                bad.append(("assoc", (h, g, f)))
    return bad


def test_terminal_category_validates():
    assert validate_category(chain_category(1)) == []


def test_three_chain_validates_and_agrees_with_oracle():
    cat = chain_category(3)
    assert validate_category(cat) == []
    assert brute_force_laws(cat) == []


def test_compose_on_non_composable_pair_reported():
    cat = FinCategory(
        ["x", "y"],
        [("idx", "x", "x"), ("idy", "y", "y"), ("f", "x", "y"), ("g", "x", "y")],
        {"x": "idx", "y": "idy"},
        {("f", "f"): "g"})
    assert any("non-composable" in v for v in validate_category(cat))


def test_missing_identity_reported_not_raised():
    # f: a -> b has no identity at its codomain, so its unit laws cannot be
    # stated; the checker reports the gap instead of failing on it
    cat = FinCategory(["a", "b"], [("ia", "a", "a"), ("f", "a", "b")], {"a": "ia"}, {})
    assert validate_category(cat) == ["missing identity for object b"]


def test_corrupting_any_table_entry_detected():
    good = chain_category(3)
    names = list(good._mors)
    for key, val in list(good._table.items()):
        for other in names:
            if other == val:
                continue
            broken = chain_category(3)
            broken._table[key] = other
            assert validate_category(broken) != [], (key, other)
            break


def test_faithful_identity():
    cat = chain_category(2)
    assert is_faithful(IdentityFunctor(cat)).ok


def test_collapse_functor_not_faithful_with_witness():
    src = parallel_pair_category()
    dst = chain_category(1)
    collapse = TableFunctor(src, dst, {"0": "0", "1": "0"},
                            {"id0": "m00", "id1": "m00", "f": "m00", "g": "m00"})
    d = is_faithful(collapse)
    assert not d.ok
    assert {m.name for m in d.witness} == {"f", "g"}


def test_full_identity_and_non_full_inclusion():
    cat = chain_category(2)
    assert is_full(IdentityFunctor(cat)).ok
    disc = discrete_category(["0", "1"])
    incl = TableFunctor(disc, cat, {"0": "0", "1": "1"},
                        {"id_0": "m00", "id_1": "m11"})
    d = is_full(incl)
    # the pair ("0", "1") has no morphism in the discrete category
    assert not d.ok and d.witness == ("0", "1", cat.mor("m01"))


def test_essentially_surjective_and_missing_class():
    cat = chain_category(2)
    assert is_essentially_surjective(IdentityFunctor(cat)).ok
    sub = FullSubcategory(cat, lambda x: x == "0")
    d = is_essentially_surjective(sub.inclusion())
    assert not d.ok and d.witness == "1"


def test_find_isomorphism_reflexive():
    cat = chain_category(2)
    assert find_isomorphism(cat, "0", "0") == cat.identity("0")


def test_find_isomorphism_two_element_sets_canonical():
    cat = FinSetCategory(bound=2)
    x = canonical_set(2)
    y = canonical_set(2, "f")
    f = find_isomorphism(cat, x, y)
    # first bijection in product enumeration order: order-preserving one
    assert f is not None and f.mapping == (("e0", "f0"), ("e1", "f1"))
    assert cat.is_isomorphism(f) and cat.is_isomorphism(f.inverse())


def test_find_isomorphism_size_mismatch_none():
    cat = FinSetCategory(bound=2)
    assert find_isomorphism(cat, canonical_set(1), canonical_set(2)) is None


def test_find_isomorphism_symmetric():
    cat = FinSetCategory(bound=2)
    for x in cat.objects():
        for y in cat.objects():
            assert (find_isomorphism(cat, x, y) is None) == (find_isomorphism(cat, y, x) is None)


def test_is_equivalence_ladder():
    cat = chain_category(2)
    assert is_equivalence(IdentityFunctor(cat)).level == EQUIVALENCE
    disc = discrete_category(["0", "1"])
    incl = TableFunctor(disc, cat, {"0": "0", "1": "1"},
                        {"id_0": "m00", "id_1": "m11"})
    assert is_equivalence(incl).level == FAITHFUL_ONLY


def _table_library():
    return [chain_category(1), chain_category(2), chain_category(3),
            discrete_category(["a", "b"]), parallel_pair_category()]


def _functor_library():
    out = []
    for cat in _table_library():
        out.append(IdentityFunctor(cat))
    cat2 = chain_category(2)
    disc = discrete_category(["a", "b"])
    out.append(TableFunctor(disc, cat2, {"a": "0", "b": "1"},
                            {"id_a": "m00", "id_b": "m11"}))
    pp = parallel_pair_category()
    out.append(TableFunctor(pp, chain_category(1), {"0": "0", "1": "0"},
                            {"id0": "m00", "id1": "m00", "f": "m00", "g": "m00"}))
    out.append(TableFunctor(pp, cat2, {"0": "0", "1": "1"},
                            {"id0": "m00", "id1": "m11", "f": "m01", "g": "m01"}))
    return out


def test_decision_ops_agree_with_brute_force_definitions():
    for functor in _functor_library():
        src, dst = functor.src, functor.dst
        # faithful: injective on each hom-set
        expect_faithful = all(
            len({functor.mor(f) for f in src.hom(x, y)}) == len(src.hom(x, y))
            for x in src.objects() for y in src.objects())
        assert is_faithful(functor).ok == expect_faithful
        # full: image hits every morphism between image objects
        expect_full = all(
            set(dst.hom(functor.obj(x), functor.obj(y)))
            <= {functor.mor(f) for f in src.hom(x, y)}
            for x in src.objects() for y in src.objects())
        assert is_full(functor).ok == expect_full
        expect_ess = all(
            any(find_isomorphism(dst, functor.obj(x), y) is not None for x in src.objects())
            for y in dst.objects())
        assert is_essentially_surjective(functor).ok == expect_ess


def test_functor_composition_associative_and_unital():
    cat = chain_category(3)
    f = IdentityFunctor(cat)
    g = Functor(cat, cat, lambda x: x, lambda m: m)
    h = Functor(cat, cat, lambda x: "0" if x == "1" else x,
                lambda m: cat.mor(m.name.replace("1", "0")))
    for x in cat.objects():
        assert f.then(g).then(h).obj(x) == f.then(g.then(h)).obj(x)
        assert f.then(g).obj(x) == g.obj(x)
    for m in cat.morphisms():
        assert f.then(g).then(h).mor(m) == f.then(g.then(h)).mor(m)


def test_nattrans_naturality_checked():
    cat = parallel_pair_category()
    ident = IdentityFunctor(cat)
    assert NatTrans(ident, ident, lambda x: cat.identity(x)).check_iso() == []

    # swap the two parallel arrows: a functor with no transformation from Id;
    # every component is an identity, so only the squares of f and g fail
    swap = Functor(cat, cat, lambda x: x,
                   lambda m: cat.mor({"f": "g", "g": "f"}.get(m.name, m.name)))
    bad = NatTrans(ident, swap, lambda x: cat.identity(x), name="bad")
    assert bad.check_iso() == [f"bad: naturality at {cat.mor(n)}" for n in ("f", "g")]


def test_natiso_requires_two_sided_inverse():
    cat = chain_category(2)
    ident = IdentityFunctor(cat)
    iso = NatTrans(ident, ident, lambda x: cat.identity(x))
    assert iso.check_iso() == []


def test_check_iso_searches_for_inverses():
    # 0 -> 1 between the two constant functors is natural but not invertible
    cat = chain_category(2)
    const = {x: Functor(cat, cat, lambda _, x=x: x, lambda _, x=x: cat.identity(x))
             for x in cat.objects()}
    arrow = NatTrans(const["0"], const["1"], lambda _: cat.mor("m01"), name="arrow")
    assert iso_failures(arrow.source, arrow.target, arrow.at) == [
        ("not invertible", x, None, None) for x in cat.objects()]
    assert arrow.check_iso() == [f"arrow: not invertible at {x}" for x in cat.objects()]


@dataclass(frozen=True)
class Arrow:
    """A morphism that is only a value: no name, nothing beyond its ends."""

    src: str
    dst: str


class OneArrow(Category):
    """The terminal category, with its one arrow as a plain value."""

    def objects(self):
        return ["*"]

    def hom(self, x, y):
        return [Arrow(x, y)]

    def identity(self, x):
        return Arrow(x, x)

    def compose(self, g, f):
        return Arrow(f.src, g.dst)


def test_identity_on_plain_value_arrows_is_equivalence():
    report = is_equivalence(IdentityFunctor(OneArrow()))
    assert report.level == EQUIVALENCE, report


class CountedEnumeration(ComputableCategory):
    """Enumerations of the given objects that count their calls; every
    hom-set is empty."""

    def __init__(self, calls, listed):
        super().__init__()
        self.calls = calls
        self.listed = listed

    def _objects(self):
        self.calls["objects", self.listed] += 1
        return list(self.listed)

    def _hom(self, x, y):
        self.calls["hom", (x, y)] += 1
        return []


def test_each_memo_calls_its_callable_once_per_key_and_returns_the_same_object():
    cat = chain_category(2)
    objs, mors = cat.objects(), cat.morphisms()
    # every other value is EMPTY, whose length is 0: a memo that tested the
    # truth of a cached value would call its callable again
    values = {k: EMPTY if i % 2 == 0 else FinSetObj((i,)) for i, k in enumerate(objs + mors)}
    calls = collections.Counter()

    def counted(tag):
        def build(x):
            calls[tag, x] += 1
            return values[x]
        return build

    functor = Functor(cat, cat, counted("obj"), counted("mor"))
    iso = NatTrans(IdentityFunctor(cat), IdentityFunctor(cat), counted("at"))
    computed, empty = CountedEnumeration(calls, ("x", "y")), CountedEnumeration(calls, ())
    for _ in range(3):
        for memo, keys in [(functor.obj, objs), (functor.mor, mors),
                           (iso.at, objs)]:
            for k in keys:
                assert memo(k) is values[k]
        assert empty.objects() == [] and computed.objects() == ["x", "y"]
        hom = computed.hom("x", "y")
        assert hom == [] and computed.hom("x", "y") is hom
    assert len(calls) == 2 * len(objs) + len(mors) + 3
    assert set(calls.values()) == {1}


def test_commutes_composes_both_paths_by_default():
    c = chain_category(3)
    m = c.mor
    assert c.commutes([m("m01"), m("m12")], [m("m02")])
    assert c.commutes([m("m00"), m("m01"), m("m12")], [m("m01"), m("m12"), m("m22")])
    assert c.commutes([m("m11")], [m("m11")])
    assert not c.commutes([m("m01"), m("m12")], [m("m01")])  # different targets
    assert not c.commutes([m("m12")], [m("m02")])  # different sources
    with pytest.raises(CategoryError, match=r"non-composable pair \(m01, m01\)"):
        c.commutes([m("m02")], [m("m01"), m("m01")])
    pair = parallel_pair_category()
    assert not pair.commutes([pair.mor("f")], [pair.mor("g")])


def test_hom_set_counts_before_it_builds_and_decides_from_its_members():
    """A ``HomSet`` answers ``len`` without building, builds once on first
    read, answers ``in`` from the members it built, and refuses a build
    that disagrees with its count."""
    builds = []

    def build():
        builds.append(1)
        return ["f", "g"]

    hom = HomSet(2, build)
    assert len(hom) == 2 and builds == []
    assert "g" in hom and "h" not in hom and builds == [1]
    assert list(hom) == ["f", "g"] and hom[1] == "g" and hom[-1] == "g"
    assert list(hom) == ["f", "g"] and "f" in hom and builds == [1]
    miscounted = HomSet(3, build)
    assert len(miscounted) == 3 and builds == [1]
    with pytest.raises(CategoryError, match="built 2 members, counted 3"):
        list(miscounted)
    with pytest.raises(CategoryError, match="built 2 members, counted 3"):
        "f" in miscounted
