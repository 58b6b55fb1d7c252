import collections
import itertools
import re

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from descent_kit import finset
from descent_kit.cosimplicial import basic_fibration
from descent_kit.errors import TheoremViolation
from descent_kit.descent import (ALMOST, DESCENT, EFFECTIVE, NOT_ALMOST,
                                 DescCategory, DescentDatum, DescMor,
                                 _index_datum, canonicalize_datum, classify,
                                 comparison, descend, enumerate_descent_data,
                                 is_descent_datum, is_descent_morphism)
from descent_kit.fincat import (EQUIVALENCE, FAITHFUL_ONLY, CategoryError, Functor,
                                HomSet, find_isomorphism, is_equivalence, is_full,
                                validate_category)
from descent_kit.finset import FinFunction, FinSetObj
from descent_kit.slices import SliceCategory, SliceMor, slice_isos

from conftest import all_functions


def fn(dom, cod, mapping):
    return FinFunction.of(FinSetObj(tuple(dom)), FinSetObj(tuple(cod)), mapping)


def two_to_one():
    return fn("ab", "*", lambda _: "*")


def oracle_data_for_two_to_one(fib, n):
    """Independent enumeration for p: {a,b} -> {*}: W with fibers of size n
    over each point, rho given by four bijections between fibers, equations
    evaluated elementwise with no functor machinery."""
    w = next(o for o in fib.c1.objects()
             if sorted(sum(1 for e in o.dom if o(e) == b) for b in "ab")
             == [n, n])
    fibers = {b: [e for e in w.dom if w(e) == b] for b in "ab"}
    count = 0
    for g in _all_fiberwise_bijections(fibers):
        # identity equation: rho over (e, e) fixes each element
        if any(g[(b, b)][e] != e for b in "ab" for e in fibers[b]):
            continue
        # cocycle elementwise: g[(e1,e2)] ∘ g[(e0,e1)] = g[(e0,e2)]
        ok = True
        for e0 in "ab":
            for e1 in "ab":
                for e2 in "ab":
                    for e in fibers[e0]:
                        if g[(e1, e2)][g[(e0, e1)][e]] != g[(e0, e2)][e]:
                            ok = False
        if ok:
            count += 1
    return count


def _all_fiberwise_bijections(fibers):
    keys = [(a, b) for a in "ab" for b in "ab"]
    pools = []
    for (a, b) in keys:
        perms = [dict(zip(fibers[a], perm))
                 for perm in itertools.permutations(fibers[b])]
        pools.append(perms)
    for combo in itertools.product(*pools):
        yield dict(zip(keys, combo))


def test_datum_counts_match_independent_oracle(raw_descent_data):
    p = two_to_one()
    fib = basic_fibration(p, 4)
    for n, expected in [(0, 1), (1, 1), (2, 2)]:
        assert oracle_data_for_two_to_one(fib, n) == expected
    raw = raw_descent_data(fib)
    by_size = {}
    for d in raw:
        by_size[len(d.w.dom)] = by_size.get(len(d.w.dom), 0) + 1
    assert by_size == {0: 1, 2: 1, 4: 2}
    deduped = enumerate_descent_data(fib)
    assert len(deduped) == 3  # the two size-4 data are conjugate relabellings


def test_theta_gives_descent_data():
    p = two_to_one()
    fib = basic_fibration(p, 3)
    for b0 in fib.c0.objects():
        w = fib.d.obj(b0)
        ok, which = is_descent_datum(fib, w, fib.theta.at(b0))
        assert ok, which


def test_identity_fibration_only_canonical_rho_passes(raw_descent_data):
    p = FinFunction.identity(FinSetObj(("x",)))
    fib = basic_fibration(p, 3)
    data = raw_descent_data(fib)
    # one datum per carrier size: rho is forced up to the equations
    sizes = sorted(len(d.w.dom) for d in data)
    assert sizes == [0, 1, 2, 3]
    # and any twisted alternative fails the identity equation
    w2 = next(o for o in fib.c1.objects() if len(o.dom) == 2)
    d1w, d0w = fib.d1.obj(w2), fib.d0.obj(w2)
    isos = list(slice_isos(d1w, d0w))
    passing = [r for r in isos if is_descent_datum(fib, w2, r)[0]]
    assert len(isos) == 2 and len(passing) == 1


def test_singleton_fiber_datum_forced():
    p = two_to_one()
    fib = basic_fibration(p, 2)
    data = [d for d in enumerate_descent_data(fib) if len(d.w.dom) == 2]
    assert len(data) == 1
    ok, _ = is_descent_datum(fib, data[0].w, data[0].rho)
    assert ok


def test_empty_domain_descent_category_is_terminal_like():
    p = fn("", "x", {})
    fib = basic_fibration(p, 3)
    desc = DescCategory(fib)
    objs = desc.objects()
    assert len(objs) == 1 and len(objs[0].w.dom) == 0
    assert len(desc.hom(objs[0], objs[0])) == 1


def test_desc_category_passes_validate_category():
    for p in [two_to_one(), fn("abc", "xy", {"a": "x", "b": "y", "c": "y"})]:
        fib = basic_fibration(p, 3)
        desc = DescCategory(fib)
        assert validate_category(desc) == []


def _vectors_within(fiber_sizes, room):
    """How many vectors (n_c) have sum of fiber_sizes[c] * n_c <= room."""
    if not fiber_sizes:
        return 1
    size, rest = fiber_sizes[0], fiber_sizes[1:]
    return sum(_vectors_within(rest, room - size * n) for n in range(room // size + 1))


def test_descent_data_count_matches_objects_over_the_image(small_maps):
    # Galois: Desc(p) is C/im(p), so its objects up to isomorphism with
    # level-1 carrier within b are the fiber-size vectors (n_c) over im(p)
    # whose pullback, of size sum |p^-1(c)| n_c, is within b
    for p in small_maps():
        fiber_sizes = list(collections.Counter(c for _, c in p.mapping).values())
        for bound in range(1, 5):
            desc = DescCategory(basic_fibration(p, bound))
            assert len(desc.objects()) == _vectors_within(fiber_sizes, bound), (p, bound)


def test_desc_homs_fast_path_agrees_with_generic_filter(small_maps, brute_desc_hom):
    from descent_kit.mutations import descent_category_without_cocycle
    cases = [DescCategory(basic_fibration(p, 3)) for p in small_maps()]
    # the cocycle mutant's objects include a 4-point non-datum
    cases.append(descent_category_without_cocycle(basic_fibration(two_to_one(), 4)))
    for desc in cases:
        objs = desc.objects()
        for x in objs:
            for y in objs:
                assert list(desc.hom(x, y)) == brute_desc_hom(desc, x, y), (x, y)


def test_enumeration_matches_the_brute_reference_on_small_maps(brute_descent_data,
                                                              small_maps):
    for p in small_maps():
        for bound in range(5):
            fib = basic_fibration(p, bound)
            assert enumerate_descent_data(fib) == brute_descent_data(fib), (p, bound)


def test_enumeration_builds_only_the_carriers_that_carry_a_datum(small_maps):
    """Over the 19 maps at bounds 0-5, with and without the even predicate,
    Desc(p) lists the data of the route that lists every canonical object
    of C/E: those whose fiber sizes are constant on each fiber of p, each
    with its index-matching rho, in the same order; and it finds them
    without enumerating C/E."""

    def even(carrier):
        return len(carrier) % 2 == 0

    listed = 0
    for p in small_maps():
        blocks = list(p.fibers().values())
        for bound in range(6):
            for pred in (None, even):
                fib = basic_fibration(p, bound)
                data = DescCategory(fib, carrier_pred=pred).objects()
                assert fib.c1._objects_memo is None, (p, bound)
                want = [DescentDatum(w, _index_datum(fib, w)) for w in fib.c1.objects()
                        if (pred is None or pred(w.dom))
                        and all(len({len(w.fibers().get(e, ())) for e in block}) == 1
                                for block in blocks)]
                assert data == want, (p, bound, pred)
                listed += len(data)
    assert listed == 732


def test_hom_counts_tabulate_each_datum_once(monkeypatch):
    # glue's 3to2_21 at bound 5: 12 data and 6238 morphisms over 144 pairs,
    # each datum's moves listed once, in the order the pairs first meet it
    from descent_kit import descent
    desc = DescCategory(basic_fibration(fn("abc", "xy", {"a": "x", "b": "x", "c": "y"}), 5))
    data = desc.objects()
    listed = []
    moves = descent.moves

    def counting(datum):
        listed.append(datum)
        return moves(datum)

    monkeypatch.setattr(descent, "moves", counting)
    assert sum(len(desc.hom(x, y)) for x in data for y in data) == 6238
    assert listed == data and len(data) == 12


def test_hom_refuses_a_datum_of_another_fibration():
    # Q lies over the same E as P, but E×_B E differs, so rho runs between
    # other pullbacks; R lies over another E.  Each is refused once, where
    # its moves are tabulated, rather than read as if it were P's
    p = fn("ab", "x", lambda _: "x")
    q = fn("ab", "xy", {"a": "x", "b": "y"})
    r = fn("ac", "x", lambda _: "x")
    dp = DescCategory(basic_fibration(p, 2))
    P = dp.objects()
    Q = DescCategory(basic_fibration(q, 2)).objects()
    R = DescCategory(basic_fibration(r, 2)).objects()
    for call in (lambda: dp.hom(P[1], Q[-1]), lambda: dp.hom(Q[-1], P[1]),
                 lambda: dp.hom(P[1], R[1]), lambda: dp.hom(R[1], P[1]),
                 lambda: find_isomorphism(dp, P[1], R[1])):
        with pytest.raises(CategoryError, match="no descent datum of this fibration"):
            call()
    assert len(dp.hom(P[1], P[1])) == 1


def test_is_isomorphism_refuses_a_morphism_of_another_fibration():
    """Desc(p) decides invertibility through C/E, which refuses a triangle
    over another base: a descent morphism of a fibration over another E
    raises there, as its moves do in ``_table``, and is decided by its
    own category."""
    p, r = fn("ab", "x", lambda _: "x"), fn("ac", "x", lambda _: "x")
    dp, dr = DescCategory(basic_fibration(p, 2)), DescCategory(basic_fibration(r, 2))
    datum = dr.objects()[1]
    with pytest.raises(CategoryError, match="not over"):
        dp.is_isomorphism(dr.identity(datum))
    assert dr.is_isomorphism(dr.identity(datum))


def test_classify_follows_no_top_table(monkeypatch):
    # the comparison cells and gluing read tops off the pairs of each
    # chosen pullback, so no change of base builds its first projection:
    # pr1 is built only for E×_B E and E×_B E×_B E, which basic_fibration
    # projects
    p = fn("abc", "xy", {"a": "x", "b": "x", "c": "y"})
    built = []
    pr1 = finset.Pullback.pr1

    def watched(pb):
        if pb._pr1 is None:
            built.append(pb.obj)
        return pr1.fget(pb)

    monkeypatch.setattr(finset.Pullback, "pr1", property(watched))
    res = classify(p, 2)
    assert res.verdict == EFFECTIVE
    assert built == [res.fib.c2.base, res.fib.c3.base]


@st.composite
def relabelled_maps(draw):
    """A map with at most three points over at most three, relabelled and
    reordered as the benchmark's inputs are: random labels, the fibers
    dealt to shuffled base points, E listed in shuffled order."""
    sizes = draw(st.lists(st.integers(0, 3), min_size=1, max_size=3)
                 .filter(lambda s: sum(s) <= 3))
    n = len(sizes) + sum(sizes)
    labels = draw(st.lists(st.text("abxy01", min_size=1, max_size=3),
                           min_size=n, max_size=n, unique=True))
    base, points = labels[:len(sizes)], iter(labels[len(sizes):])
    pairs = draw(st.permutations([(next(points), b) for b, k in zip(base, sizes)
                                  for _ in range(k)]))
    base = draw(st.permutations(base))
    return FinFunction(FinSetObj(tuple(e for e, _ in pairs)), FinSetObj(tuple(base)),
                       tuple(pairs))


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(p=relabelled_maps(), bound=st.integers(0, 3),
       sizes=st.none() | st.sets(st.integers(0, 3)))
def test_enumeration_and_homs_match_the_brute_reference_on_relabelled_maps(
        brute_descent_data, brute_desc_hom, p, bound, sizes):
    pred = None if sizes is None else (lambda c: len(c) in sizes)
    fib = basic_fibration(p, bound)
    desc = DescCategory(fib, carrier_pred=pred)
    assert desc.objects() == brute_descent_data(fib, pred)
    for x in desc.objects():
        for y in desc.objects():
            assert list(desc.hom(x, y)) == brute_desc_hom(desc, x, y)


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(p=relabelled_maps(), bound=st.integers(0, 2))
def test_image_follows_the_built_mor_on_relabelled_maps(image_mismatches, p, bound):
    assert image_mismatches(basic_fibration(p, bound))[0] == []


def test_enumeration_raises_on_a_datum_the_diagram_breaks():
    # twisting n0 breaks the identity equation for every w with a fiber of
    # two points; the enumeration names that w instead of dropping it
    from descent_kit.mutations import _twisted
    def broken(bound):
        fib = basic_fibration(FinFunction.identity(FinSetObj(("x",))), bound)
        return fib._replace(n0=_twisted(fib.n0, "n0 (twisted)"))

    assert len(enumerate_descent_data(broken(1))) == 2  # invisible on singletons
    fib = broken(2)
    two = fib.c1.objects()[2]
    with pytest.raises(TheoremViolation,
                       match=re.escape(f"datum on {two!r} fails the identity equation")):
        enumerate_descent_data(fib)
    with pytest.raises(TheoremViolation, match="identity equation"):
        DescCategory(fib).objects()


def test_desc_category_reads_its_diagrams_bound():
    # Desc(p) is enumerated at the bound the diagram's levels were built
    # at; the bound it still accepts must be that one, another is refused
    fib = basic_fibration(FinFunction.identity(FinSetObj(("x",))), 2)
    assert DescCategory(fib, 2).objects() == DescCategory(fib).objects()
    with pytest.raises(CategoryError, match="enumerated at bound 2, not 3"):
        DescCategory(fib, 3)


def test_identity_descends_effectively_at_its_diagrams_bound():
    # at the diagram's own bound every datum glues to an object of level
    # 0; a datum on 3 points, past that bound, would be reached by none
    p = FinFunction.identity(FinSetObj(("x",)))
    report = is_equivalence(comparison(DescCategory(basic_fibration(p, 2))))
    assert report.level == EQUIVALENCE
    assert classify(p, 2).verdict == EFFECTIVE


@pytest.mark.parametrize("labels", [("b", "a"), (1, "a")], ids=["unsorted", "unorderable"])
def test_desc_homs_follow_the_carrier_order_of_a_hand_made_datum(labels, brute_desc_hom):
    # hom-sets come out in the carrier order of the target, as the brute
    # filter lists them: labels out of sorted order, or that Python cannot
    # order at all, are never compared
    fib = basic_fibration(FinFunction.identity(FinSetObj(("x",))), 2)
    w = fn(labels, "x", lambda _: "x")
    rho = next(r for r in slice_isos(fib.d1.obj(w), fib.d0.obj(w))
               if is_descent_datum(fib, w, r)[0])
    desc = DescCategory(fib)
    point = next(d for d in desc.objects() if len(d.w.dom) == 1)
    datum = DescentDatum(w, rho)
    generic = brute_desc_hom(desc, point, datum)
    assert [m.m.fn(("x", 0)) for m in generic] == list(labels)
    assert list(desc.hom(point, datum)) == generic


def test_desc_hom_counts_match_glued_homs(small_maps):
    # Galois: descend is an equivalence onto its image, so each hom-set of
    # Desc counts the maps over B between the glued objects
    pairs = 0
    for p in small_maps():
        fib = basic_fibration(p, 3)
        desc = DescCategory(fib)
        data = desc.objects()
        glued = {d: descend(fib, d).glued for d in data}
        for x in data:
            for y in data:
                assert len(desc.hom(x, y)) == len(fib.c0.hom(glued[x], glued[y])), (p, x, y)
                pairs += 1
    assert pairs == 490


def test_hom_sets_are_counted_listed_and_decided_as_the_brute_references(
        small_maps, brute_slice_hom, brute_desc_hom):
    """On the 19 maps at bounds 1-3, and on 2 -> 1 at bound 4, every
    hom-set of Desc(p) and of C/E is a ``HomSet`` whose count, taken
    before any member is built, is the length of its list; it lists its
    members in the order of the brute reference (``brute_desc_hom``,
    ``brute_slice_hom``); and its ``in`` agrees with the brute filter on
    every function between the carriers: a commuting triangle for C/E, and
    one that is also equivariant for Desc(p), so every slice morphism of
    c1.hom(x.w, y.w) is decided; a function whose triangle does not commute
    is refused by ``SliceMor`` where it is built.  Below bound 4 every triangle between
    enumerated data is equivariant; 2 -> 1 at bound 4 has some that are
    not."""
    counted = {"desc": 0, "slice": 0}
    decided = {"desc": collections.Counter(), "slice": collections.Counter()}
    cases = [(p, bound) for p in small_maps() for bound in (1, 2, 3)]
    for p, bound in cases + [(two_to_one(), 4)]:
        fib = basic_fibration(p, bound)
        desc, c1 = DescCategory(fib), fib.c1
        pairs = [("desc", desc, x, y, x.w, y.w)
                 for x in desc.objects() for y in desc.objects()]
        pairs += [("slice", c1, x, y, x, y)
                  for x in c1.objects() for y in c1.objects()]
        for kind, cat, x, y, wx, wy in pairs:
            hom = cat.hom(x, y)
            assert isinstance(hom, HomSet)
            size = len(hom)
            members = list(hom)
            assert size == len(members) == len(hom), (p, bound, x, y)
            if kind == "desc":
                assert members == brute_desc_hom(desc, x, y), (p, bound, x, y)
            else:
                assert members == brute_slice_hom(x, y), (p, bound, x, y)
            counted[kind] += size
            for f in all_functions(wx.dom, wy.dom):
                triangle = want = all(wy(f(e)) == wx(e) for e in wx.dom)
                if not triangle:  # refused where it is built, so in no hom-set
                    with pytest.raises(CategoryError, match="does not commute"):
                        SliceMor(wx, wy, f)
                    decided[kind][triangle, want] += 1
                    continue
                m = SliceMor(wx, wy, f)
                if kind == "desc":
                    assert m not in hom  # a triangle is no descent morphism
                    want = triangle and is_descent_morphism(fib, x, y, m)
                    m = DescMor(x, y, m)
                assert (m in hom) == want, (p, bound, m)
                decided[kind][triangle, want] += 1
    assert counted == {"desc": 1205, "slice": 6866}
    # (commutes over E, member)
    assert decided == {"desc": {(False, False): 2508, (True, False): 14, (True, True): 1205},
                       "slice": {(False, False): 46641, (True, True): 6866}}


def test_is_full_splits_the_small_maps_and_names_an_unhit_witness(small_maps):
    """``is_full`` on Phi of every map at bounds 1-3, with and without the
    even predicate: 74 full and 40 not, each witness (x, y, missed) a pair
    of enumerated objects and a member of hom(Phi x, Phi y) that no image
    of hom(x, y) hits; and on the comparison onto the mutant that drops the
    hom condition, whose extra morphisms no image hits, the first of them."""
    from descent_kit.mutations import descent_category_without_hom_condition

    def even(carrier):
        return len(carrier) % 2 == 0

    def unhit(phi, witness):
        x, y, missed = witness
        objs = phi.src.objects()
        return (x in objs and y in objs
                and missed in phi.dst.hom(phi.obj(x), phi.obj(y))
                and all(phi.mor(f) != missed for f in phi.src.hom(x, y)))

    outcomes = collections.Counter()
    for p in small_maps():
        for bound in (1, 2, 3):
            for pred in (None, even):
                phi = classify(p, bound, carrier_pred=pred).phi
                got = is_full(phi)
                assert got.within_bound, (p, bound, pred)
                assert got.ok or unhit(phi, got.witness), (p, bound, pred)
                outcomes[got.ok] += 1
    assert outcomes == {True: 74, False: 40}
    mutant = descent_category_without_hom_condition(basic_fibration(two_to_one(), 2))
    phi = comparison(mutant)
    got = is_full(phi)
    assert not got.ok and unhit(phi, got.witness)
    # the map that sends the point over a to copy 0 and the point over b to
    # copy 1, which rho does not respect
    _, _, witness = got.witness
    assert (len(witness.src.w.dom), len(witness.dst.w.dom)) == (2, 4)
    assert witness.m.values(witness.src.w.dom.elements) == [(("*", 0), "a"), (("*", 1), "b")]
    assert not is_descent_morphism(mutant.diagram, witness.src, witness.dst, witness.m)


def test_comparison_factorization_strict():
    p = two_to_one()
    fib = basic_fibration(p, 3)
    desc = DescCategory(fib)
    phi = comparison(desc)
    # the forgetful functor Desc(p) -> C/E, (w, rho) |-> w
    u = Functor(desc, fib.c1, lambda d: d.w, lambda m: m.m, name="U")
    objs = fib.c0.objects()
    for x in objs:
        assert u.obj(phi.obj(x)) == fib.d.obj(x)
    for x in objs:
        for y in objs:
            for f in fib.c0.hom(x, y):
                assert u.mor(phi.mor(f)) == fib.d.mor(f)


def test_comparison_refuses_incoherent_diagram():
    from descent_kit.mutations import invert_theta
    fib = basic_fibration(two_to_one(), 3)
    broken = invert_theta(fib)
    with pytest.raises(ValueError, match="incoherent"):
        comparison(DescCategory(broken))


def test_descend_singleton_fibers_glues_to_point():
    p = two_to_one()
    fib = basic_fibration(p, 2)
    datum = next(d for d in enumerate_descent_data(fib) if len(d.w.dom) == 2)
    res = descend(fib, datum)
    assert len(res.glued.dom) == 1 and not res.partial


def test_descend_identity_forgets_rho():
    p = FinFunction.identity(FinSetObj(("x", "y")))
    fib = basic_fibration(p, 3)
    for datum in enumerate_descent_data(fib):
        res = descend(fib, datum)
        assert len(res.glued.dom) == len(datum.w.dom)


def test_descend_swap_datum_has_two_orbits(raw_descent_data):
    p = two_to_one()
    fib = basic_fibration(p, 4)
    swap_data = [d for d in raw_descent_data(fib)
                 if len(d.w.dom) == 4]
    sizes = sorted(len(descend(fib, d).glued.dom) for d in swap_data)
    assert sizes == [2, 2]


def test_descend_round_trip_iso_verified():
    p = fn("abc", "xy", {"a": "x", "b": "x", "c": "y"})
    fib = basic_fibration(p, 4)
    for datum in enumerate_descent_data(fib):
        res = descend(fib, datum)
        assert res.iso.m.fn.is_bijective()
        assert res.iso.dst == datum


def test_classify_identity_effective():
    p = FinFunction.identity(FinSetObj(("x", "y")))
    assert classify(p, 3).verdict == EFFECTIVE


def test_classify_surjection_effective():
    assert classify(two_to_one(), 4).verdict == EFFECTIVE


def test_classify_non_surjection_not_almost_with_witness():
    p = fn("e", "xy", {"e": "x"})
    res = classify(p, 3)
    assert res.verdict == NOT_ALMOST
    m1, m2 = res.report.faithful.witness
    # witnesses are distinct parallel morphisms with the same image
    assert m1 != m2
    assert m1.src == m2.src and m1.dst == m2.dst
    assert res.phi.mor(m1) == res.phi.mor(m2)


def test_classify_empty_domain_not_almost():
    p = fn("", "x", {})
    assert classify(p, 3).verdict == NOT_ALMOST


def test_canonicalize_datum_is_isomorphism_in_desc(raw_descent_data):
    p = two_to_one()
    fib = basic_fibration(p, 4)
    for datum in raw_descent_data(fib):
        rep, iso = canonicalize_datum(fib, datum)
        assert iso.src == datum and iso.dst == rep
        assert is_descent_morphism(fib, iso.src, iso.dst, iso.m)
        assert iso.m.fn.is_bijective()


def test_desc_is_isomorphism_agrees_with_the_inverse_search(two_sided_inverse, small_maps):
    """Desc(p) decides invertibility on the underlying slice morphism; the
    reference searches the reverse hom-set for a two-sided inverse."""
    mismatches, compared, isos = [], 0, 0
    for p in small_maps():
        for bound in (1, 2, 3):
            desc = DescCategory(basic_fibration(p, bound))
            objs = desc.objects()
            for f in (f for x in objs for y in objs for f in desc.hom(x, y)):
                decided = desc.is_isomorphism(f)
                if decided != (two_sided_inverse(desc, f) is not None):
                    mismatches.append((p, bound, f))
                compared += 1
                isos += decided
    assert mismatches == []
    assert (compared, isos) == (1194, 265)


def test_comparison_image_must_be_equivariant():
    # twisting theta is invisible on fibers of size 1, so the gate at bound 1
    # passes; the comparison still refuses the image of an inclusion 1 -> 2,
    # taken from C/B at bound 2
    from descent_kit.mutations import invert_theta
    broken = invert_theta(basic_fibration(two_to_one(), 1))
    phi = comparison(DescCategory(broken))
    wider = SliceCategory(broken.c0.base, 2)
    one, two = wider.objects()[1:]
    inclusion = wider.hom(one, two)[0]
    with pytest.raises(TheoremViolation, match="equivariance"):
        phi.mor(inclusion)


def test_classify_even_carriers_is_descent_not_effective():
    res = classify(two_to_one(), 3, carrier_pred=lambda c: len(c) % 2 == 0)
    assert res.verdict == DESCENT and res.exit_code == 3
    datum = res.report.essentially_surjective.witness
    assert len(datum.w.dom) == 2
    # it glues to a single point, which the even subcategory does not hold
    assert len(descend(res.fib, datum).glued.dom) == 1


def test_classify_singletons_over_a_non_surjection_is_almost():
    # among one-point sets, Phi sends the point over y to the empty datum
    # (which itself fails the predicate), and that datum has a map into the
    # datum of the point over x that no map over B gives: Phi is not full
    res = classify(fn("e", "xy", {"e": "x"}), 2, carrier_pred=lambda c: len(c) == 1)
    assert res.verdict == ALMOST and res.exit_code == 4
    assert not res.report.full.ok
    x, y, missed = res.report.full.witness
    assert (res.phi.obj(x), res.phi.obj(y)) == (missed.src, missed.dst)
    assert len(missed.src.w.dom) == 0 and len(missed.dst.w.dom) == 1


def test_full_witness_names_the_pair_that_misses():
    # Phi sends both objects over {b0} within bound 1 to the empty datum;
    # the identity of that datum is hit at (∅, ∅) and missed at (the point
    # over b0, ∅), which have no map between them
    res = classify(fn("", ("b0",), {}), 1)
    assert res.verdict == ALMOST and res.exit_code == 4
    empty, point = res.phi.src.objects()
    x, y, missed = res.report.full.witness
    assert (x, y) == (point, empty)
    assert missed == res.desc.identity(res.phi.obj(empty))


def test_classify_even_carriers_over_a_predicate_not_closed_under_pullback():
    # Phi's codomain is Desc(p): a two-point object (one point over each of
    # x, y) goes to a three-point datum, which fails the predicate; the
    # predicate only filters the data essential surjectivity must reach
    res = classify(fn("abc", "xy", {"a": "x", "b": "x", "c": "y"}), 2,
                   carrier_pred=lambda c: len(c) % 2 == 0)
    assert res.verdict == DESCENT and res.exit_code == 3
    two = next(x for x in res.phi.src.objects()
               if sorted(x(e) for e in x.dom) == ["x", "y"])
    assert len(res.phi.obj(two).w.dom) == 3


def test_descent_category_without_cocycle_admits_a_non_datum():
    from descent_kit.mutations import descent_category_without_cocycle, invert_theta
    fib = basic_fibration(two_to_one(), 4)
    real = set(DescCategory(fib).objects())
    corrupt = descent_category_without_cocycle(fib).objects()
    assert len(real) == 3 and len(corrupt) == 4
    (extra,) = [d for d in corrupt if d not in real]
    assert len(extra.w.dom) == 4
    assert is_descent_datum(fib, extra.w, extra.rho) == (False, "associativity")
    with pytest.raises(CategoryError, match="associativity"):
        descend(fib, extra)
    # the datum check leaves theta alone; descend's own equivariance check
    # catches a twisted theta on the four-point datum
    (four,) = [d for d in real if len(d.w.dom) == 4]
    with pytest.raises(TheoremViolation, match="not equivariant"):
        descend(invert_theta(fib), four)


def test_not_faithful_leaves_essential_surjectivity_undecided():
    res = classify(fn("e", "xy", {"e": "x"}), 3)
    assert res.verdict == NOT_ALMOST
    assert res.report.essentially_surjective is None
    assert res.report.within_bound


def test_almost_rung_witness_names_its_data():
    # a descent category that drops the hom condition has morphisms Phi
    # misses; the comparison onto it is caught as faithful only
    from descent_kit.mutations import descent_category_without_hom_condition
    desc = descent_category_without_hom_condition(basic_fibration(two_to_one(), 2))
    report = is_equivalence(comparison(desc))
    assert report.level == FAITHFUL_ONLY and not report.full.ok
    _, _, witness = report.full.witness
    assert repr(witness.src) in repr(witness) and repr(witness.dst) in repr(witness)


def test_classify_takes_labels_of_mixed_type():
    # the enumerations of classify never compare labels, so labels Python
    # cannot order (ints beside strings) get verdicts, effective iff surjective
    cases = [(fn((1, "a"), "x", lambda _: "x"), EFFECTIVE),
             (fn((1, "a", 2), ("x", 0), {1: "x", "a": 0, 2: "x"}), EFFECTIVE),
             (fn((1,), ("x", 0), {1: "x"}), NOT_ALMOST)]
    for p, expected in cases:
        for bound in (2, 3):
            verdict = classify(p, bound).verdict
            assert verdict == expected, (p, bound)
            assert (verdict == EFFECTIVE) == p.is_surjective()


def test_classify_sweep_effective_iff_surjective(small_maps):
    # labels built from the characters a string pair codec would escape
    for p in small_maps(("\\", "(,)", ",\\("), ("(", "),")):
        res = classify(p, 2)
        assert (res.verdict == EFFECTIVE) == p.is_surjective(), (p, res.verdict)
        # a surjection exits 0 (Effective), every other map 5 (NotAlmost)
        assert res.exit_code == (0 if p.is_surjective() else 5), (p, res.verdict)
