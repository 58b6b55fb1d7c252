import pytest

from descent_kit.fincat import (CategoryError, IdentityFunctor, is_faithful,
                             validate_category)
from descent_kit.finset import (EMPTY, FinFunction, FinSetObj, all_functions,
                                canonical_set)
from descent_kit.slices import (ChangeOfBase, IdentityCartFunctor,
                                SigmaAlong, SliceCategory, SliceMor,
                                comparison_iso, sigma_pullback_adjunction)


def slice_over(labels, bound=3):
    return SliceCategory(FinSetObj(tuple(labels)), bound)


def test_slice_over_empty_base():
    cat = slice_over([])
    objs = cat.objects(3)
    assert len(objs) == 1 and len(objs[0].carrier) == 0


def test_slice_over_point_enumerates_sizes():
    cat = slice_over(["*"], bound=2)
    assert [len(o.carrier) for o in cat.objects()] == [0, 1, 2]


def test_slice_two_point_base_bound_one():
    cat = slice_over(["x", "y"], bound=1)
    objs = cat.objects()
    fibers = sorted(tuple(sum(1 for e in o.carrier if o.to_base(e) == b) for b in "xy")
                    for o in objs)
    assert fibers == [(0, 0), (0, 1), (1, 0)]


def test_slice_category_laws_within_bound():
    cat = slice_over(["x", "y"], bound=2)
    assert validate_category(cat, 2) == []


def test_hom_is_fiberwise():
    cat = slice_over(["x", "y"], bound=3)
    objs = set(cat.objects())
    two_over_x = next(o for o in cat.objects()
                      if len(o.carrier) == 2 and all(o.to_base(e) == "x" for e in o.carrier))
    one_each = next(o for o in cat.objects()
                    if len(o.carrier) == 2 and {o.to_base(e) for e in o.carrier} == {"x", "y"})
    assert len(cat.hom(two_over_x, one_each)) == 1
    assert len(cat.hom(one_each, two_over_x)) == 0


def test_change_of_base_along_identity_is_isomorphic_not_equal():
    b = FinSetObj(("x", "y"))
    cb, ce = SliceCategory(b), SliceCategory(b)
    f = ChangeOfBase(FinFunction.identity(b), cb, ce)
    x = cb.objects(2)[3]
    fx = f.obj(x)
    assert fx != x  # relabelled pairs
    iso = comparison_iso(f, IdentityCartFunctor(cb))
    assert iso.check_iso(2) == []


def test_change_of_base_product_case():
    e, b = FinSetObj(("a", "b")), FinSetObj(("*",))
    p = FinFunction.of(e, b, lambda _: "*")
    f = ChangeOfBase(p, SliceCategory(b), SliceCategory(e))
    x = SliceCategory(b).objects(2)[2]  # two points over *
    fx = f.obj(x)
    assert len(fx.carrier) == 4
    fibers = {c: sum(1 for t in fx.carrier if fx.to_base(t) == c) for c in "ab"}
    assert fibers == {"a": 2, "b": 2}


def test_change_of_base_empty_fiber():
    e, b = FinSetObj(("e",)), FinSetObj(("x", "y"))
    p = FinFunction.of(e, b, {"e": "x"})
    f = ChangeOfBase(p, SliceCategory(b), SliceCategory(e))
    point_over_y = SliceObj_over(b, {"q": "y"})
    assert len(f.obj(point_over_y).carrier) == 0


def SliceObj_over(base, mapping):
    from descent_kit.slices import SliceObj
    carrier = FinSetObj(tuple(mapping))
    return SliceObj(FinFunction.of(carrier, base, mapping))


def test_change_of_base_caches_identical_results():
    e, b = FinSetObj(("a", "b")), FinSetObj(("*",))
    p = FinFunction.of(e, b, lambda _: "*")
    f = ChangeOfBase(p, SliceCategory(b), SliceCategory(e))
    x = SliceCategory(b).objects(2)[1]
    assert f.obj(x) is f.obj(x)


def test_change_of_base_functor_laws():
    e, b = FinSetObj(("a", "b", "c")), FinSetObj(("x", "y"))
    p = FinFunction.of(e, b, {"a": "x", "b": "x", "c": "y"})
    f = ChangeOfBase(p, SliceCategory(b, 2), SliceCategory(e, 2))
    assert f.check(2) == []


def test_sigma_postcomposes():
    e, b = FinSetObj(("a", "b")), FinSetObj(("*",))
    p = FinFunction.of(e, b, lambda _: "*")
    ce, cb = SliceCategory(e), SliceCategory(b)
    sig = SigmaAlong(p, ce, cb)
    w = SliceObj_over(e, {"u": "a", "v": "b"})
    sw = sig.obj(w)
    assert sw.carrier == w.carrier and sw.base == b
    empty = SliceObj_over(e, {})
    assert len(sig.obj(empty).carrier) == 0


def test_pullback_functor_not_faithful_over_missed_point():
    e, b = FinSetObj(("e",)), FinSetObj(("x", "y"))
    p = FinFunction.of(e, b, {"e": "x"})
    f = ChangeOfBase(p, SliceCategory(b, 2), SliceCategory(e, 2))
    d = is_faithful(f, 2)
    assert not d.ok
    m1, m2 = d.witness
    assert m1.fn != m2.fn and m1.src == m2.src and m1.dst == m2.dst
    assert f.mor(m1) == f.mor(m2)


def test_adjunction_unit_embeds_fiberwise():
    e, b = FinSetObj(("a", "b")), FinSetObj(("*",))
    p = FinFunction.of(e, b, lambda _: "*")
    adj = sigma_pullback_adjunction(p, SliceCategory(e), SliceCategory(b))
    w = SliceObj_over(e, {"u": "a", "v": "b"})
    eta = adj.unit.at(w)
    assert eta.fn("u") == ("u", "a")
    assert eta.fn("v") == ("v", "b")


def test_adjunction_counit_is_projection():
    e, b = FinSetObj(("a", "b")), FinSetObj(("*",))
    p = FinFunction.of(e, b, lambda _: "*")
    adj = sigma_pullback_adjunction(p, SliceCategory(e), SliceCategory(b))
    x = SliceObj_over(b, {"u": "*", "v": "*"})
    eps = adj.counit.at(x)
    for t in eps.src.carrier:
        assert eps.fn(t) == t[0]


def _all_functions_between(esize, bsize):
    e, b = canonical_set(esize, "e"), canonical_set(bsize, "b")
    return [FinFunction(e, b, tuple(zip(e.elements, images)))
            for images in _images(e, b)]


def _images(e, b):
    import itertools
    if len(e) == 0:
        return [()]
    return itertools.product(b.elements, repeat=len(e))


def test_triangle_identities_small_sweep():
    for esize in range(3):
        for bsize in range(1, 3):
            for p in _all_functions_between(esize, bsize):
                adj = sigma_pullback_adjunction(p, SliceCategory(p.dom, 3),
                                                SliceCategory(p.cod, 3))
                assert adj.check_triangles(3) == [], p


def test_hom_bijection_counts_spot():
    e, b = FinSetObj(("a", "b", "c")), FinSetObj(("x", "y"))
    p = FinFunction.of(e, b, {"a": "x", "b": "y", "c": "y"})
    adj = sigma_pullback_adjunction(p, SliceCategory(e, 2), SliceCategory(b, 2))
    assert adj.hom_bijection_counts(2) == []


def test_comparison_iso_between_composite_and_single_pullback():
    # pulling back along u then v agrees with pulling back along v;u
    b = FinSetObj(("x", "y"))
    a = FinSetObj(("p", "q", "r"))
    c = FinSetObj(("s", "t"))
    u = FinFunction.of(a, b, {"p": "x", "q": "x", "r": "y"})
    v = FinFunction.of(c, a, {"s": "q", "t": "r"})
    cb, ca, cc = SliceCategory(b, 2), SliceCategory(a, 2), SliceCategory(c, 2)
    two_step = ChangeOfBase(u, cb, ca).then(ChangeOfBase(v, ca, cc))
    one_step = ChangeOfBase(v.then(u), cb, cc)
    iso = comparison_iso(two_step, one_step)
    assert iso.check_iso(2) == []


def test_slice_mor_between_wrong_carriers_is_rejected():
    one, two = slice_over(["*"], bound=2).objects()[1:]
    with pytest.raises(CategoryError):
        SliceMor(one, two, FinFunction.identity(one.carrier))
