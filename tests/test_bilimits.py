import math

import pytest

from descent_kit.bilimits import (PseudoPullbackCategory, PsSquare, WedgeObj,
                                  is_pseudopullback_square)
from descent_kit.fincat import (FullSubcategory, Functor, IdentityFunctor,
                                NatTrans, validate_category)

from conftest import FinSetCategory, canonical_set, chain_category


def constant_functor(src, dst, obj):
    return Functor(src, dst, lambda _: obj, lambda m: dst.identity(obj), name="const")


def test_pseudopullback_along_identity_is_graph():
    c = chain_category(2)
    square = PsSquare(corner=c, p1=IdentityFunctor(c), p2=IdentityFunctor(c),
                      f=IdentityFunctor(c), g=IdentityFunctor(c),
                      filler=NatTrans(IdentityFunctor(c), IdentityFunctor(c),
                                      lambda x: c.identity(x)))
    ok, report = is_pseudopullback_square(square)
    assert ok, report


def test_pseudopullback_of_two_points_is_iso_category():
    sets = FinSetCategory(bound=2)
    pt = chain_category(1)
    two_a = canonical_set(2, "a")
    two_b = canonical_set(2, "b")
    f = constant_functor(pt, sets, two_a)
    g = constant_functor(pt, sets, two_b)
    pp = PseudoPullbackCategory(f, g)
    objs = pp.objects()
    assert len(objs) == 2  # the two bijections a≅b
    for x in objs:
        for y in objs:
            homs = pp.hom(x, y)
            assert len(homs) == (1 if x == y else 0)


def test_pseudopullback_category_laws():
    sets = FinSetCategory(bound=1)
    pp = PseudoPullbackCategory(IdentityFunctor(sets), IdentityFunctor(sets))
    assert validate_category(pp) == []


def test_pseudopullback_filler_is_invertible():
    sets = FinSetCategory(bound=1)
    pp = PseudoPullbackCategory(IdentityFunctor(sets), IdentityFunctor(sets))
    assert pp.filler().check_iso() == []


@pytest.mark.parametrize("bound, n_objects, n_morphisms", [(1, 2, 3), (2, 4, 27), (3, 10, 1233)])
def test_pseudopullback_of_identities_counts(bound, n_objects, n_morphisms):
    # objects are the bijections c -> d of sets of equal size n <= bound,
    # n! of them per size; a morphism (u, v) is fixed by u: c -> c', since
    # v = phi' ∘ u ∘ phi⁻¹, so each hom-set has |c'|^|c| elements
    sizes = [n for n in range(bound + 1) for _ in range(math.factorial(n))]
    assert len(sizes) == n_objects
    assert sum(m ** n for n in sizes for m in sizes) == n_morphisms
    sets = FinSetCategory(bound=bound)
    pp = PseudoPullbackCategory(IdentityFunctor(sets), IdentityFunctor(sets))
    objs = pp.objects()
    assert sorted(len(x.c) for x in objs) == sizes
    assert all(len(x.c) == len(x.d) and x.phi.is_bijective() for x in objs)
    assert sum(len(pp.hom(x, y)) for x in objs for y in objs) == n_morphisms


def test_constructed_pseudopullback_is_its_own_square():
    sets = FinSetCategory(bound=2)
    disc = FullSubcategory(sets, lambda x: len(x) <= 1, name="small")
    f = disc.inclusion()
    g = IdentityFunctor(sets)
    pp = PseudoPullbackCategory(f, g)
    square = PsSquare(corner=pp, p1=pp.proj1(), p2=pp.proj2(), f=f, g=g,
                      filler=pp.filler())
    ok, report = is_pseudopullback_square(square)
    assert ok, report.level


def test_full_subcategory_of_pseudopullback_missing_class_fails():
    sets = FinSetCategory(bound=2)
    f = IdentityFunctor(sets)
    pp = PseudoPullbackCategory(f, f)
    # drop the whole iso-class of 2-element corners
    sub = FullSubcategory(pp, lambda x: len(x.c) != 2, name="missing class")
    square = PsSquare(corner=sub, p1=sub.inclusion().then(pp.proj1()),
                      p2=sub.inclusion().then(pp.proj2()), f=f, g=f,
                      filler=NatTrans(
                          sub.inclusion().then(pp.proj1()).then(f),
                          sub.inclusion().then(pp.proj2()).then(f),
                          lambda x: x.phi))
    ok, report = is_pseudopullback_square(square)
    assert not ok
    assert not report.essentially_surjective.ok
    missing = report.essentially_surjective.witness
    assert len(missing.c) == 2


def test_pseudopullback_symmetric_up_to_equivalence():
    sets = FinSetCategory(bound=2)
    disc = FullSubcategory(sets, lambda x: len(x) != 1, name="no singletons")
    f = disc.inclusion()
    g = IdentityFunctor(sets)
    left = PseudoPullbackCategory(f, g)
    right = PseudoPullbackCategory(g, f)
    swap = Functor(left, right,
                   lambda x: WedgeObj(x.d, x.c, x.phi.inverse()),
                   lambda m: type(m)(WedgeObj(m.src.d, m.src.c, m.src.phi.inverse()),
                                     WedgeObj(m.dst.d, m.dst.c, m.dst.phi.inverse()),
                                     m.v, m.u),
                   name="swap")
    from descent_kit.fincat import is_equivalence
    assert is_equivalence(swap).level == "Equivalence"


def test_fully_faithful_leg_gives_fully_faithful_projection():
    from descent_kit.fincat import is_faithful, is_full
    sets = FinSetCategory(bound=2)
    sub = FullSubcategory(sets, lambda x: len(x) >= 1, name="nonempty")
    g = sub.inclusion()  # fully faithful
    f = IdentityFunctor(sets)
    pp = PseudoPullbackCategory(f, g)
    pr1 = pp.proj1()
    assert is_faithful(pr1).ok and is_full(pr1).ok
