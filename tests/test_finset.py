import itertools

import pytest
from hypothesis import given, strategies as st

from descent_kit.finset import (FinFunction, FinSetError, FinSetObj,
                                all_functions, canonical_set, coproduct,
                                follow, mediating_map, pullback, quotient)


labels = st.text(st.characters(codec="ascii", min_codepoint=33), min_size=1, max_size=6)


@st.composite
def cospans(draw):
    """f: X -> Z <- Y : g with labels that include \\ ( ) and ,."""
    z = draw(st.lists(labels, min_size=1, max_size=3, unique=True))

    def leg():
        dom = draw(st.lists(labels, max_size=4, unique=True))
        return FinFunction(FinSetObj(tuple(dom)), FinSetObj(tuple(z)),
                           tuple((e, draw(st.sampled_from(z))) for e in dom))

    return leg(), leg()


@given(cospans())
def test_pullback_carrier_is_matching_tuples(cospan):
    f, g = cospan
    pb = pullback(f, g)
    assert pb.obj.elements == tuple((x, y) for x in f.dom for y in g.dom if f(x) == g(y))
    assert all(pb.pr1(t) == t[0] and pb.pr2(t) == t[1] for t in pb.obj)


@given(cospans())
def test_pullback_builds_pr1_on_first_read_and_keeps_it(cospan):
    f, g = cospan
    pb = pullback(f, g)
    eager = FinFunction(pb.obj, f.dom, tuple((t, t[0]) for t in pb.obj))
    first = pb.pr1
    assert first == eager and pb.pr1 is first


@given(cospans())
def test_fibers_index_the_image_in_order_of_first_preimage(cospan):
    f, _ = cospan
    fibers = f.fibers()
    assert set(fibers) == {f(x) for x in f.dom}
    assert list(fibers) == [f(x) for i, x in enumerate(f.dom)
                            if f(x) not in [f(e) for e in f.dom.elements[:i]]]
    # each list is the preimage of its point in domain order, and the points
    # are the whole image, so the lists partition the domain
    assert all(xs == [x for x in f.dom if f(x) == y] for y, xs in fibers.items())


@given(st.lists(labels, max_size=4, unique=True),
       st.lists(labels, min_size=1, max_size=3, unique=True), st.data())
def test_functions_from_the_same_data_are_equal_and_hash_equal(dom, cod, data):
    images = [data.draw(st.sampled_from(cod)) for _ in dom]
    f = FinFunction(FinSetObj(tuple(dom)), FinSetObj(tuple(cod)), tuple(zip(dom, images)))
    g = FinFunction(FinSetObj(tuple(list(dom))), FinSetObj(tuple(list(cod))),
                    tuple((x, y) for x, y in zip(dom, images)))
    assert f == g and hash(f) == hash(g)
    wider = FinSetObj(tuple(cod) + (data.draw(labels.filter(lambda x: x not in cod)),))
    assert f != FinFunction(f.dom, wider, f.mapping)


def test_repr_tells_apart_pairs_with_commas():
    one, other = ("a,b", "c"), ("a", "b,c")
    both = repr(FinSetObj((one, other)))
    assert str(one) != str(other) and str(one) in both and str(other) in both
    assert repr(FinSetObj((one,))) != repr(FinSetObj((other,)))


def test_duplicate_labels_rejected():
    with pytest.raises(FinSetError):
        FinSetObj(("a", "a"))


def test_function_totality_checked():
    x, y = FinSetObj(("a", "b")), FinSetObj(("c",))
    with pytest.raises(FinSetError):
        FinFunction(x, y, (("a", "c"),))
    with pytest.raises(FinSetError):
        FinFunction(x, y, (("a", "z"), ("b", "c")))


AB, CD = FinSetObj(("a", "b")), FinSetObj(("c", "d"))


@pytest.mark.parametrize("build, message", [
    (lambda: FinSetObj(("a", "b", "a")), "duplicate labels"),
    (lambda: FinFunction(AB, CD, (("a", "c"),)), "every domain element once"),
    (lambda: FinFunction(AB, CD, (("a", "c"), ("b", "d"), ("a", "c"))),
     "every domain element once"),
    (lambda: FinFunction(AB, CD, (("b", "d"), ("a", "c"))), "every domain element once"),
    (lambda: FinFunction(AB, CD, (("a", "c"), ("b", "d"), ("x", "c"))),
     "every domain element once"),
    (lambda: FinFunction(AB, CD, (("a", "c"), ("b", "z"))), "image 'z' of 'b'"),
    (lambda: FinFunction(AB, CD, (("a", ["c"]), ("b", "d"))), r"image \['c'\] of 'a'"),
    (lambda: FinFunction.of(AB, CD, {"a": "c"}), "no image of 'b'"),
], ids=["duplicate-labels", "missing-domain-element", "repeated-pair", "out-of-order",
        "extra-element", "image-outside-codomain", "unhashable-image", "partial-dict"])
def test_malformed_input_raises_finset_error(build, message):
    with pytest.raises(FinSetError, match=message):
        build()


@given(cospans())
def test_derived_functions_equal_and_hash_equal_direct_ones(cospan):
    f, g = cospan

    def direct(dom, cod, pairs):
        """Built from fresh tuples, sharing no object with the derived one."""
        return FinFunction(FinSetObj(tuple(list(dom))), FinSetObj(tuple(list(cod))),
                           tuple(pairs))

    pb = pullback(f, g)
    carrier = [(x, y) for x in f.dom for y in g.dom if f(x) == g(y)]
    diagonal = direct(carrier, f.cod, ((t, f(t[0])) for t in carrier))
    derived_and_direct = [
        (pb.pr1, direct(carrier, f.dom, ((t, t[0]) for t in carrier))),
        (pb.pr2, direct(carrier, g.dom, ((t, t[1]) for t in carrier))),
        (pb.pr1.then(f), diagonal),
        (pb.pr2.then(g), diagonal),
        (FinFunction.identity(f.dom), direct(f.dom, f.dom, ((x, x) for x in f.dom))),
        (mediating_map(pb, pb.pr1, pb.pr2), direct(carrier, carrier, ((t, t) for t in carrier))),
        (FinFunction.of(f.dom, f.cod, dict(f.mapping)), direct(f.dom, f.cod, f.mapping)),
    ]
    for derived, built in derived_and_direct:
        assert derived == built and hash(derived) == hash(built)
        assert derived.dom == built.dom and hash(derived.dom) == hash(built.dom)


def test_image_and_quotient_keep_element_order():
    f = FinFunction.of(FinSetObj(("p", "q", "r", "s")), FinSetObj(("c", "b", "a", "z")),
                       {"p": "a", "q": "c", "r": "a", "s": "b"})
    assert list(f.fibers()) == ["a", "c", "b"]
    q, proj = quotient(FinSetObj(("d", "c", "b", "a")), [("a", "c"), ("b", "d")])
    assert q.elements == ("d", "c")
    assert [proj(e) for e in "dcba"] == ["d", "c", "d", "c"]


def test_pullback_over_point_is_product():
    ab = FinSetObj(("a", "b"))
    pt = FinSetObj(("*",))
    f = FinFunction.of(ab, pt, lambda _: "*")
    p = pullback(f, f)
    assert len(p.obj) == 4
    assert p.obj.elements == tuple((x, y) for x in "ab" for y in "ab")


def test_pullback_along_identity_is_bijective_projection():
    xy = FinSetObj(("x", "y"))
    ab = FinSetObj(("a", "b", "c"))
    g = FinFunction.of(ab, xy, {"a": "x", "b": "y", "c": "x"})
    p = pullback(FinFunction.identity(xy), g)
    assert p.pr2.is_bijective()


def test_pullback_enumerated_oracle():
    # oracle: pairs (x, y) with f(x) = g(y), filtered directly
    xs, ys, zs = FinSetObj(("a", "b")), FinSetObj(("c",)), FinSetObj(("x", "y"))
    f = FinFunction.of(xs, zs, {"a": "x", "b": "y"})
    g = FinFunction.of(ys, zs, {"c": "x"})
    expect = [(x, y) for x in xs for y in ys if f(x) == g(y)]
    assert expect == [("a", "c")]
    p = pullback(f, g)
    assert p.obj.elements == (("a", "c"),)


def test_pullback_codomain_mismatch():
    f = FinFunction.identity(FinSetObj(("a",)))
    g = FinFunction.identity(FinSetObj(("b",)))
    with pytest.raises(FinSetError):
        pullback(f, g)


def test_mediating_of_own_projections_is_identity():
    xs, zs = FinSetObj(("a", "b")), FinSetObj(("x",))
    f = FinFunction.of(xs, zs, lambda _: "x")
    p = pullback(f, f)
    u = mediating_map(pullback(f, f), p.pr1, p.pr2)
    assert u == FinFunction.identity(p.obj)


def test_mediating_diagonal():
    xs = FinSetObj(("a", "b"))
    zs = FinSetObj(("x",))
    f = FinFunction.of(xs, zs, lambda _: "x")
    u = mediating_map(pullback(f, f), FinFunction.identity(xs), FinFunction.identity(xs))
    assert all(u(e) == (e, e) for e in xs)


def test_mediating_from_singleton_is_pair_selection():
    w = FinSetObj(("w",))
    xs, zs = FinSetObj(("a", "b")), FinSetObj(("x", "y"))
    f = FinFunction.of(xs, zs, {"a": "x", "b": "y"})
    q1 = FinFunction.of(w, xs, {"w": "b"})
    q2 = FinFunction.of(w, xs, {"w": "b"})
    u = mediating_map(pullback(f, f), q1, q2)
    assert u("w") == ("b", "b")


def test_mediating_rejects_non_commuting_cone():
    xs, zs = FinSetObj(("a", "b")), FinSetObj(("x", "y"))
    f = FinFunction.of(xs, zs, {"a": "x", "b": "y"})
    w = FinSetObj(("w",))
    q1 = FinFunction.of(w, xs, {"w": "a"})
    q2 = FinFunction.of(w, xs, {"w": "b"})
    with pytest.raises(FinSetError):
        mediating_map(pullback(f, f), q1, q2)
    # a leg into the apex of the cospan, not into a factor of the pullback
    q3 = FinFunction.of(w, zs, {"w": "y"})
    with pytest.raises(FinSetError, match="factors"):
        mediating_map(pullback(f, f), q1, q3)


def test_mediating_uniqueness_exhaustive():
    # on small cospans, exactly one map satisfies the projection equations
    xs, zs = FinSetObj(("a", "b")), FinSetObj(("x",))
    f = FinFunction.of(xs, zs, lambda _: "x")
    p = pullback(f, f)
    w = FinSetObj(("w0", "w1"))
    q1 = FinFunction.of(w, xs, {"w0": "a", "w1": "b"})
    q2 = FinFunction.of(w, xs, {"w0": "b", "w1": "b"})
    u = mediating_map(pullback(f, f), q1, q2)
    solutions = [h for h in all_functions(w, p.obj)
                 if h.then(p.pr1) == q1 and h.then(p.pr2) == q2]
    assert solutions == [u]


def test_quotient_no_pairs_is_identity_like():
    x = FinSetObj(("a", "b"))
    q, proj = quotient(x, [])
    assert q == x and proj == FinFunction.identity(x)


def test_quotient_single_pair():
    x = FinSetObj(("a", "b"))
    q, proj = quotient(x, [("a", "b")])
    assert q.elements == ("a",)
    assert proj("a") == proj("b") == "a"


def test_quotient_transitive_closure():
    x = FinSetObj(("a", "b", "c"))
    q, proj = quotient(x, [("a", "b"), ("b", "c")])
    assert len(q) == 1


def test_quotient_kernel_pair_recovers_relation():
    x = FinSetObj(("a", "b", "c", "d"))
    pairs = [("a", "c"), ("c", "d")]
    q, proj = quotient(x, pairs)
    kernel = {(u, v) for u in x for v in x if proj(u) == proj(v)}
    # closure of pairs plus diagonal
    expect = {(u, v) for u in ("a", "c", "d") for v in ("a", "c", "d")} | {(e, e) for e in x}
    assert kernel == expect


def test_coproduct_disjoint_and_jointly_surjective():
    x, y = FinSetObj(("a",)), FinSetObj(("a", "b"))
    c = coproduct(x, y)
    assert len(c.obj) == 3
    assert set(c.in1(e) for e in x).isdisjoint(set(c.in2(e) for e in y))


def _small_sets():
    return [canonical_set(n) for n in range(4)]


def test_pullback_of_epi_is_epi_exhaustive():
    for z in _small_sets():
        for x in _small_sets():
            for y in _small_sets():
                for f in all_functions(x, z):
                    if not f.is_surjective():
                        continue
                    for g in all_functions(y, z):
                        p = pullback(f, g)
                        assert p.pr2.is_surjective(), (f, g)


def test_pullback_swap_symmetry():
    x, y, z = canonical_set(2, "x"), canonical_set(3, "y"), canonical_set(2, "z")
    for f in itertools.islice(all_functions(x, z), 4):
        for g in itertools.islice(all_functions(y, z), 8):
            p, q = pullback(f, g), pullback(g, f)
            swap = {(a, b): (b, a)
                    for a in x for b in y if f(a) == g(b)}
            fn = FinFunction.of(p.obj, q.obj, swap)
            assert fn.is_bijective()
            assert fn.then(q.pr1) == p.pr2 and fn.then(q.pr2) == p.pr1


def test_follow_reads_the_composite_without_building_it():
    x, y, z = canonical_set(2, "x"), canonical_set(3, "y"), canonical_set(2, "z")
    for f in all_functions(x, y):
        for g in all_functions(y, z):
            assert follow([f, g], x.elements) == [f.then(g)(e) for e in x]
            back = tuple(reversed(x.elements))
            assert (follow([f, g, FinFunction.identity(z)], back)
                    == [f.then(g)(e) for e in back])
    assert follow([], y.elements) == list(y.elements)
    f = next(all_functions(x, y))
    with pytest.raises(FinSetError, match="not in the domain"):
        follow([f, f], x.elements)  # f's values lie in y, outside f's domain x
