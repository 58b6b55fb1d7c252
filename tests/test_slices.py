import functools

import pytest
from hypothesis import given, strategies as st

from descent_kit.fincat import (Category, CategoryError, is_faithful,
                                validate_category)
from descent_kit.finset import (FinFunction, FinSetError, FinSetObj, follow,
                                mediating_map, pullback)
from descent_kit.slices import (ChangeOfBase, IdentityCartFunctor,
                                SigmaAlong, SliceCategory, SliceMor,
                                comparison_iso, match_by_legs,
                                sigma_pullback_adjunction)

from conftest import canonical_set


def slice_over(labels, bound=3):
    return SliceCategory(FinSetObj(tuple(labels)), bound)


def test_slice_over_empty_base():
    cat = slice_over([])
    objs = cat.objects()
    assert len(objs) == 1 and len(objs[0].dom) == 0


def test_slice_over_point_enumerates_sizes():
    cat = slice_over(["*"], bound=2)
    assert [len(o.dom) for o in cat.objects()] == [0, 1, 2]


def test_slice_two_point_base_bound_one():
    cat = slice_over(["x", "y"], bound=1)
    objs = cat.objects()
    fibers = sorted(tuple(sum(1 for e in o.dom if o(e) == b) for b in "xy")
                    for o in objs)
    assert fibers == [(0, 0), (0, 1), (1, 0)]


def test_slice_category_laws_within_bound():
    cat = slice_over(["x", "y"], bound=2)
    assert validate_category(cat) == []


def test_hom_is_fiberwise():
    cat = slice_over(["x", "y"], bound=3)
    objs = set(cat.objects())
    two_over_x = next(o for o in cat.objects()
                      if len(o.dom) == 2 and all(o(e) == "x" for e in o.dom))
    one_each = next(o for o in cat.objects()
                    if len(o.dom) == 2 and {o(e) for e in o.dom} == {"x", "y"})
    assert len(cat.hom(two_over_x, one_each)) == 1
    assert len(cat.hom(one_each, two_over_x)) == 0


def test_change_of_base_along_identity_is_isomorphic_not_equal():
    b = FinSetObj(("x", "y"))
    cb, ce = SliceCategory(b, 2), SliceCategory(b, 2)
    f = ChangeOfBase(FinFunction.identity(b), cb, ce)
    x = cb.objects()[3]
    fx = f.obj(x)
    assert fx != x  # relabelled pairs
    iso = comparison_iso(f, IdentityCartFunctor(cb))
    assert iso.check_iso() == []


def test_change_of_base_product_case():
    e, b = FinSetObj(("a", "b")), FinSetObj(("*",))
    p = FinFunction.of(e, b, lambda _: "*")
    cb = SliceCategory(b, 2)
    f = ChangeOfBase(p, cb, SliceCategory(e, 2))
    x = cb.objects()[2]  # two points over *
    fx = f.obj(x)
    assert len(fx.dom) == 4
    fibers = {c: sum(1 for t in fx.dom if fx(t) == c) for c in "ab"}
    assert fibers == {"a": 2, "b": 2}


def test_change_of_base_empty_fiber():
    e, b = FinSetObj(("e",)), FinSetObj(("x", "y"))
    p = FinFunction.of(e, b, {"e": "x"})
    f = ChangeOfBase(p, SliceCategory(b, 4), SliceCategory(e, 4))
    point_over_y = map_over(b, {"q": "y"})
    assert len(f.obj(point_over_y).dom) == 0


def map_over(base, mapping):
    carrier = FinSetObj(tuple(mapping))
    return FinFunction.of(carrier, base, mapping)


def test_change_of_base_hands_out_its_values():
    # an object of C/B is its map: change of base hands out the chosen
    # pullback's own projection, and sigma the composite map
    e, b = FinSetObj(("a", "b", "c")), FinSetObj(("x", "y"))
    p = FinFunction.of(e, b, {"a": "x", "b": "x", "c": "y"})
    cb, ce = SliceCategory(b, 2), SliceCategory(e, 2)
    cob, sig = ChangeOfBase(p, cb, ce), SigmaAlong(p, ce, cb)
    objs = cb.objects()
    assert len(objs) == 6
    assert all(isinstance(x, FinFunction) and x.cod == b for x in objs)
    for x in objs:
        assert cob.obj(x) == pullback(x, p).pr2 and cob.obj(x) is cob.obj(x)
    for w in ce.objects():
        assert sig.obj(w) == w.then(p)


def test_change_of_base_builds_one_function_per_object(monkeypatch):
    # obj(x) is the chosen pullback's pr2; its pr1 is left unbuilt, and
    # legs reads the tops off the pairs
    e, b = FinSetObj(("a", "b", "c")), FinSetObj(("x", "y"))
    p = FinFunction.of(e, b, {"a": "x", "b": "x", "c": "y"})
    cb = SliceCategory(b, 3)
    cob = ChangeOfBase(p, cb, SliceCategory(e, 3))
    objs = cb.objects()
    built = []
    check = FinFunction.__post_init__

    def counting(self):
        built.append(self)
        check(self)

    monkeypatch.setattr(FinFunction, "__post_init__", counting)
    images = [cob.obj(x) for x in objs]
    assert built == images and len(images) == len(objs) == 10
    for x, fx in zip(objs, images):
        tops = [t[0] for t in fx.dom.elements]
        assert cob.legs(x) == tops
        assert cob.legs(x, list(reversed(fx.dom.elements))) == tops[::-1]
    assert len(built) == len(objs)
    for x, fx in zip(objs, images):
        assert cob.legs(x) == pullback(x, p).pr1.values(fx.dom.elements)


def test_top_view_refuses_an_element_outside_the_carrier():
    e, b = FinSetObj(("a", "b")), FinSetObj(("*",))
    p = FinFunction.of(e, b, lambda _: "*")
    cob = ChangeOfBase(p, SliceCategory(b, 2), SliceCategory(e, 2))
    x = cob.src.objects()[1]
    with pytest.raises(FinSetError, match="not in the domain"):
        cob.legs(x, [(("*", 0), "a"), ("a", "stranger")])
    with pytest.raises(FinSetError, match="not in the domain"):
        cob.legs(x, [["unhashable"]])


def test_change_of_base_caches_identical_results():
    e, b = FinSetObj(("a", "b")), FinSetObj(("*",))
    p = FinFunction.of(e, b, lambda _: "*")
    cb = SliceCategory(b, 2)
    f = ChangeOfBase(p, cb, SliceCategory(e, 2))
    x = cb.objects()[1]
    assert f.obj(x) is f.obj(x)


def test_change_of_base_functor_laws():
    e, b = FinSetObj(("a", "b", "c")), FinSetObj(("x", "y"))
    p = FinFunction.of(e, b, {"a": "x", "b": "x", "c": "y"})
    f = ChangeOfBase(p, SliceCategory(b, 2), SliceCategory(e, 2))
    assert f.check() == []


def test_sigma_postcomposes():
    e, b = FinSetObj(("a", "b")), FinSetObj(("*",))
    p = FinFunction.of(e, b, lambda _: "*")
    ce, cb = SliceCategory(e, 4), SliceCategory(b, 4)
    sig = SigmaAlong(p, ce, cb)
    w = map_over(e, {"u": "a", "v": "b"})
    sw = sig.obj(w)
    assert sw.dom == w.dom and sw.cod == b
    empty = map_over(e, {})
    assert len(sig.obj(empty).dom) == 0


def test_pullback_functor_not_faithful_over_missed_point():
    e, b = FinSetObj(("e",)), FinSetObj(("x", "y"))
    p = FinFunction.of(e, b, {"e": "x"})
    f = ChangeOfBase(p, SliceCategory(b, 2), SliceCategory(e, 2))
    d = is_faithful(f)
    assert not d.ok
    m1, m2 = d.witness
    assert m1.fn != m2.fn and m1.src == m2.src and m1.dst == m2.dst
    assert f.mor(m1) == f.mor(m2)


def test_adjunction_unit_embeds_fiberwise():
    e, b = FinSetObj(("a", "b")), FinSetObj(("*",))
    p = FinFunction.of(e, b, lambda _: "*")
    adj = sigma_pullback_adjunction(ChangeOfBase(p, SliceCategory(b, 4), SliceCategory(e, 4)))
    w = map_over(e, {"u": "a", "v": "b"})
    eta = adj.unit.at(w)
    assert eta.fn("u") == ("u", "a")
    assert eta.fn("v") == ("v", "b")


def test_adjunction_counit_is_projection():
    e, b = FinSetObj(("a", "b")), FinSetObj(("*",))
    p = FinFunction.of(e, b, lambda _: "*")
    adj = sigma_pullback_adjunction(ChangeOfBase(p, SliceCategory(b, 4), SliceCategory(e, 4)))
    x = map_over(b, {"u": "*", "v": "*"})
    eps = adj.counit.at(x)
    for t in eps.src.dom:
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
                adj = sigma_pullback_adjunction(ChangeOfBase(
                    p, SliceCategory(p.cod, 3), SliceCategory(p.dom, 3)))
                assert adj.check_triangles() == [], p


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
    assert iso.check_iso() == []


def test_comparison_lifts_through_sigma_first_but_not_second():
    # Σ_p keeps the carrier, so it lifts as the first factor of p*Σ_p;
    # as the second factor of Σ_p p* it has no base map from B back to E
    # to push the base points down, and says so
    e, b = FinSetObj(("a", "b", "c")), FinSetObj(("x", "y"))
    p = FinFunction.of(e, b, {"a": "x", "b": "x", "c": "y"})
    cb, ce = SliceCategory(b, 2), SliceCategory(e, 2)
    cob, sig = ChangeOfBase(p, cb, ce), SigmaAlong(p, ce, cb)
    monad = sig.then(cob)
    x = ce.objects()[-1]
    assert comparison_iso(monad, monad).at(x).fn == FinFunction.identity(monad.obj(x).dom)
    with pytest.raises(CategoryError, match="no base map"):
        comparison_iso(IdentityCartFunctor(cb), cob.then(sig)).at(cb.objects()[-1])


def test_slice_mor_between_wrong_carriers_is_rejected():
    one, two = slice_over(["*"], bound=2).objects()[1:]
    with pytest.raises(CategoryError):
        SliceMor(one, two, FinFunction.identity(one.dom))


def test_change_of_base_on_morphisms_is_the_mediating_map(small_maps):
    # every morphism of C/B at bound 2, over the base of every map
    # m -> n (m <= 3, 1 <= n <= 2): the direct build agrees with the
    # mediating map of the composite leg and the base leg
    checked = 0
    for u in small_maps():
        cb = SliceCategory(u.cod, 2)
        cob = ChangeOfBase(u, cb, SliceCategory(u.dom, 2))
        for x in cb.objects():
            for y in cb.objects():
                for m in cb.hom(x, y):
                    pb = pullback(m.src, u)
                    expected = mediating_map(pullback(m.dst, u), pb.pr1.then(m.fn), pb.pr2)
                    assert cob.mor(m).fn == expected, (u, m)
                    checked += 1
    assert checked > 0


def test_change_of_base_rejects_a_morphism_that_does_not_commute():
    b = FinSetObj(("x", "y"))
    u = FinFunction.of(FinSetObj(("a", "b")), b, {"a": "x", "b": "y"})
    cob = ChangeOfBase(u, SliceCategory(b, 2), SliceCategory(u.dom, 2))
    over_x, over_y = map_over(b, {"p": "x"}), map_over(b, {"q": "y"})
    # the carriers fit, but p over x lands on q over y: the triangle is
    # refused where it is built, so neither mor nor the view is handed it
    with pytest.raises(CategoryError, match="does not commute"):
        SliceMor(over_x, over_y, FinFunction.of(over_x.dom, over_y.dom, {"p": "q"}))
    # the same map onto a point over x commutes; the view follows it to
    # the values of the built image
    over_x_too = map_over(b, {"q": "x"})
    m = SliceMor(over_x, over_x_too, FinFunction.of(over_x.dom, over_x_too.dom, {"p": "q"}))
    view, built = cob.image(m), cob.mor(m)
    elements = view.src.dom.elements
    assert view.values(elements) == built.values(elements) == [("q", "a")]


def test_sigma_rejects_a_morphism_that_does_not_commute():
    # Σ_u keeps the carrier, so Σ_u(m) and its view have m's values, which
    # lie in the carrier of Σ_u(m.dst) whether or not m commutes; so m is
    # refused where it is built, before Σ or its view can be handed it
    a, b = FinSetObj(("a", "b")), FinSetObj(("x", "y"))
    u = FinFunction.of(a, b, {"a": "x", "b": "y"})
    sig = SigmaAlong(u, SliceCategory(a, 2), SliceCategory(b, 2))
    over_a, over_b = map_over(a, {"p": "a"}), map_over(a, {"q": "b"})
    with pytest.raises(CategoryError, match="does not commute"):
        SliceMor(over_a, over_b, FinFunction.of(over_a.dom, over_b.dom, {"p": "q"}))
    # the same map between two objects over one point of A commutes
    over_a_too = map_over(a, {"q": "a"})
    fn = FinFunction.of(over_a.dom, over_a_too.dom, {"p": "q"})
    assert sig.mor(SliceMor(over_a, over_a_too, fn)).fn == fn


def test_is_isomorphism_rejects_a_triangle_that_does_not_commute():
    # a bijection between the carriers that moves p over x to q over y is
    # no triangle: it is refused where it is built, never decided
    b = FinSetObj(("x", "y"))
    over_x, over_y = map_over(b, {"p": "x"}), map_over(b, {"q": "y"})
    fn = FinFunction.of(over_x.dom, over_y.dom, {"p": "q"})
    assert fn.is_bijective()
    with pytest.raises(CategoryError, match="does not commute"):
        SliceMor(over_x, over_y, fn)
    # the same carriers over one point of the base do commute
    over_x_too = map_over(b, {"q": "x"})
    fn = FinFunction.of(over_x.dom, over_x_too.dom, {"p": "q"})
    assert SliceCategory(b, 2).is_isomorphism(SliceMor(over_x, over_x_too, fn))


def _legs(labels, values):
    """A leg out of the set of labels: the map sending each to its value."""
    dom = FinSetObj(tuple(labels))
    return FinFunction.of(dom, FinSetObj(("1", "2", "3")), dict(zip(labels, values)))


def test_match_by_legs_is_the_bijection_commuting_with_the_legs():
    f, g = _legs("ab", "21"), _legs("xy", "12")
    fn = match_by_legs(f.dom, [[f]], g.dom, [[g]])
    assert fn.mapping == (("a", "y"), ("b", "x")) and fn.is_bijective()
    assert follow([fn, g], f.dom.elements) == follow([f], f.dom.elements)


@pytest.mark.parametrize("src, dst, match", [
    (_legs("ab", "12"), _legs("xyz", "112"), "hit twice"),
    (_legs("ab", "13"), _legs("xy", "12"), "no match"),
    # the legs are injective, but y is matched with nothing
    (_legs("a", "1"), _legs("xy", "12"), "not one to one"),
    (_legs("ab", "11"), _legs("x", "1"), "not one to one"),
], ids=["dst-key-hit-twice", "src-key-unmatched", "not-onto", "not-injective"])
def test_match_by_legs_returns_a_bijection_or_raises(src, dst, match):
    with pytest.raises(FinSetError, match=match):
        match_by_legs(src.dom, [[src]], dst.dom, [[dst]])


def test_is_isomorphism_rejects_a_triangle_across_two_bases():
    # a triangle across two bases is refused where it is built; one over
    # a single base is refused by the slice over any other base
    over_x = map_over(FinSetObj(("x", "y")), {"p": "x"})
    over_z = map_over(FinSetObj(("x", "z")), {"q": "z"})
    with pytest.raises(CategoryError, match="spans two bases"):
        SliceMor(over_x, over_z, FinFunction.of(over_x.dom, over_z.dom, {"p": "q"}))
    over_z_too = map_over(over_z.cod, {"r": "z"})
    m = SliceMor(over_z, over_z_too, FinFunction.of(over_z.dom, over_z_too.dom, {"q": "r"}))
    assert SliceCategory(over_z.cod, 2).is_isomorphism(m)
    with pytest.raises(CategoryError, match="not over"):
        SliceCategory(over_x.cod, 2).is_isomorphism(m)


def _kind(g):
    size_change = len(g.dst.dom) - len(g.src.dom)
    return {0: "transposition", -1: "merge", 1: "inclusion"}[size_change]


def _composites(cat, gens):
    """Every composite of gens (identities included), found by following
    generators out of each morphism reached so far."""
    out_of: dict = {}
    for g in gens:
        out_of.setdefault(g.src, []).append(g)
    reached = {cat.identity(x) for x in cat.objects()}
    todo = list(reached)
    while todo:
        f = todo.pop()
        for g in out_of.get(f.dst, ()):
            h = cat.compose(g, f)
            if h not in reached:
                reached.add(h)
                todo.append(h)
    return reached


@pytest.mark.parametrize("base", [[], ["x"], ["x", "y"]])
def test_generators_compose_to_every_hom_set(base):
    cat = slice_over(base)
    objs = cat.objects()
    every = {f for x in objs for y in objs for f in cat.hom(x, y)}
    gens = cat.generators()
    assert set(gens) <= every and len(set(gens)) == len(gens)
    assert _composites(cat, gens) == every
    if base:
        # each kind is needed: without it some hom-set is not reached
        for kind in ("transposition", "merge", "inclusion"):
            kept = [g for g in gens if _kind(g) != kind]
            assert len(kept) < len(gens), kind
            assert _composites(cat, kept) < every, kind


def test_generators_of_a_two_point_fiber():
    cat = slice_over(["x"], bound=2)
    labels = [(_kind(g), len(g.src.dom), [y for _, y in g.fn.mapping])
              for g in cat.generators()]
    assert labels == [
        ("inclusion", 0, []),
        ("inclusion", 1, [("x", 0)]),
        ("transposition", 2, [("x", 1), ("x", 0)]),
        ("merge", 2, [("x", 0), ("x", 0)]),
    ]


@functools.cache
def _enumerated_slice(n_base):
    """C/B over n_base points at bound 3, its generators followed by every
    enumerated morphism, and those morphisms by source."""
    cat = slice_over(["x", "y"][:n_base])
    objs = cat.objects()
    mors = cat.generators() + [f for x in objs for y in objs for f in cat.hom(x, y)]
    out_of: dict = {}
    for f in mors:
        out_of.setdefault(f.src, []).append(f)
    return cat, mors, out_of


@st.composite
def slice_paths(draw):
    """(cat, lhs, rhs): composable paths of length 1-3 in C/B, |B| <= 2,
    bound 3.  rhs is lhs's composite, or a path from lhs's source that ends
    at lhs's target when a last arrow can get there, or any path at all."""
    cat, mors, out_of = _enumerated_slice(draw(st.integers(1, 2)))

    def walk(first):
        path = [first]
        for _ in range(draw(st.integers(0, 2))):
            path.append(draw(st.sampled_from(out_of[path[-1].dst])))
        return path

    lhs = walk(draw(st.sampled_from(mors)))
    kind = draw(st.sampled_from(["composite", "parallel", "any"]))
    if kind == "composite":
        rhs = [functools.reduce(lambda f, g: cat.compose(g, f), lhs)]
    elif kind == "parallel":
        rhs = walk(draw(st.sampled_from(out_of[lhs[0].src])))
        last = cat.hom(rhs[-1].src, lhs[-1].dst)
        if last:
            rhs[-1] = draw(st.sampled_from(last))
    else:
        rhs = walk(draw(st.sampled_from(mors)))
    return cat, lhs, rhs


@given(slice_paths())
def test_slice_commutes_agrees_with_composing_both_paths(case):
    cat, lhs, rhs = case
    want = Category.commutes(cat, lhs, rhs)
    assert cat.commutes(lhs, rhs) == want
    assert cat.commutes(rhs, lhs) == want


@given(slice_paths(), st.data())
def test_slice_commutes_raises_where_compose_does(case, data):
    cat, lhs, rhs = case
    _, mors, _ = _enumerated_slice(len(cat.base))
    cut = data.draw(st.integers(1, len(lhs)))
    stray = data.draw(st.sampled_from([f for f in mors if f.src != lhs[cut - 1].dst]))
    broken = lhs[:cut] + [stray] + lhs[cut:]
    args = (broken, rhs) if data.draw(st.booleans()) else (rhs, broken)
    with pytest.raises(CategoryError) as composing:
        Category.commutes(cat, *args)
    with pytest.raises(CategoryError) as pointwise:
        cat.commutes(*args)
    assert str(pointwise.value) == str(composing.value) == "non-composable slice morphisms"
