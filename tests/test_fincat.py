import itertools
from dataclasses import dataclass

from descent_kit.fincat import (EQUIVALENCE, FAITHFUL_ONLY, Category, FinCategory,
                                FullSubcategory, Functor, IdentityFunctor,
                                NatIso, NatTrans, TableFunctor, chain_category,
                                discrete_category, find_isomorphism,
                                is_equivalence, is_essentially_surjective,
                                is_faithful, is_full, parallel_pair_category,
                                validate_category)
from descent_kit.finset import FinFunction, canonical_set
from descent_kit.slices import FinSetCategory


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
    assert not d.ok and d.witness.name == "m01"


def test_essentially_surjective_and_missing_class():
    cat = chain_category(2)
    assert is_essentially_surjective(IdentityFunctor(cat)).ok
    sub = FullSubcategory(cat, lambda x: x == "0")
    d = is_essentially_surjective(sub.inclusion())
    assert not d.ok and d.witness == "1"


def test_find_isomorphism_reflexive():
    cat = chain_category(2)
    f, g = find_isomorphism(cat, "0", "0")
    assert f == g == cat.identity("0")


def test_find_isomorphism_two_element_sets_canonical():
    cat = FinSetCategory(bound=2)
    x = canonical_set(2)
    y = canonical_set(2, "f")
    res = find_isomorphism(cat, x, y)
    assert res is not None
    f, g = res
    # first bijection in product enumeration order: order-preserving one
    assert f.mapping == (("e0", "f0"), ("e1", "f1"))
    assert g == f.inverse()


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
            any(find_isomorphism(dst, functor.obj(x), y) for x in src.objects())
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
    assert NatTrans(ident, ident, lambda x: cat.identity(x)).check_naturality() == []

    # swap the two parallel arrows: a functor with no transformation from Id
    swap = Functor(cat, cat, lambda x: x,
                   lambda m: cat.mor({"f": "g", "g": "f"}.get(m.name, m.name)))
    bad = NatTrans(ident, swap, lambda x: cat.identity(x))
    assert any("naturality" in v for v in bad.check_naturality())


def test_natiso_requires_two_sided_inverse():
    cat = chain_category(2)
    ident = IdentityFunctor(cat)
    iso = NatIso(ident, ident, lambda x: cat.identity(x), lambda x: cat.identity(x))
    assert iso.check_iso() == []


@dataclass(frozen=True)
class Arrow:
    """A morphism that is only a value: no name, nothing beyond its ends."""

    src: str
    dst: str


class OneArrow(Category):
    """The terminal category, with its one arrow as a plain value."""

    def objects(self, bound=None):
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
