import collections
import itertools

import pytest

from descent_kit.cosimplicial import basic_fibration
from descent_kit.errors import TheoremViolation
from descent_kit.descent import enumerate_descent_data
from descent_kit.fincat import (EQUIVALENCE, FULLY_FAITHFUL_ONLY, Category, CategoryError,
                                IdentityFunctor, find_isomorphism, validate_category)
from descent_kit.finset import FinFunction, FinSetObj
from descent_kit.monadic import (Algebra, EMCategory, EMComparison, Monad,
                                 algebra_to_datum, benabou_roubaud,
                                 chosen_pullback_bc_square, datum_to_algebra,
                                 induced_monad, is_beck_chevalley, mate,
                                 pullback_square_bc)
from descent_kit.slices import SliceMor, sigma_pullback_adjunction


def fn(dom, cod, mapping):
    return FinFunction.of(FinSetObj(tuple(dom)), FinSetObj(tuple(cod)), mapping)


def two_to_one():
    return fn("ab", "*", lambda _: "*")


def adjunction_for(p, bound=3):
    fib = basic_fibration(p, bound)
    return fib, sigma_pullback_adjunction(fib.d)


def test_identity_adjunction_induces_identity_like_monad():
    p = FinFunction.identity(FinSetObj(("x", "y")))
    fib, adj = adjunction_for(p, 2)
    monad = induced_monad(adj)
    assert monad.check() == []
    for w in fib.c1.objects():
        assert len(monad.t.obj(w).dom) == len(w.dom)


def test_two_to_one_monad_refibers_product():
    p = two_to_one()
    fib, adj = adjunction_for(p)
    monad = induced_monad(adj)
    w = next(o for o in fib.c1.objects()
             if sorted(o(e) for e in o.dom) == ["a", "b"])
    tw = monad.t.obj(w)
    # fiber over each point of E is all of W
    for e in "ab":
        assert sum(1 for t in tw.dom if tw(t) == e) == len(w.dom)


def oracle_algebras(monad, x):
    """Independent filter over every structure map, stated from scratch."""
    cat = monad.base
    tx = monad.t.obj(x)
    found = []
    for a in cat.hom(tx, x):
        unit_ok = cat.compose(a, monad.eta.at(x)) == cat.identity(x)
        assoc_ok = cat.compose(a, monad.mu.at(x)) == cat.compose(a, monad.t.mor(a))
        if unit_ok and assoc_ok:
            found.append(a)
    return found


def test_em_enumeration_matches_oracle_and_descent_data(raw_descent_data):
    p = two_to_one()
    fib, adj = adjunction_for(p)
    monad = induced_monad(adj)
    em = EMCategory(monad)
    for x in fib.c1.objects():
        got = [alg for alg in em.objects() if alg.x == x]
        assert len(got) == len(oracle_algebras(monad, x))
    # bijective correspondence with descent data on each carrier
    raw = raw_descent_data(fib)
    assert len(em.objects()) == len(raw)


def test_em_category_is_a_category():
    p = two_to_one()
    _, adj = adjunction_for(p, 2)
    em = EMCategory(induced_monad(adj))
    assert validate_category(em) == []


def test_object_without_algebra_absent():
    p = two_to_one()
    fib, adj = adjunction_for(p)
    em = EMCategory(induced_monad(adj))
    lopsided = {alg.x for alg in em.objects()}
    w = next(o for o in fib.c1.objects()
             if [o(e) for e in o.dom] == ["a"])
    assert w not in lopsided


def test_em_comparison_identity_p_equivalence():
    from descent_kit.fincat import is_equivalence
    p = FinFunction.identity(FinSetObj(("x",)))
    _, adj = adjunction_for(p, 2)
    k = EMComparison(adj, EMCategory(induced_monad(adj)))
    assert is_equivalence(k).level == "Equivalence"


def test_em_comparison_two_to_one_equivalence_within_bound():
    from descent_kit.fincat import is_faithful, is_full
    p = two_to_one()
    _, adj = adjunction_for(p)
    monad = induced_monad(adj)
    em = EMCategory(monad)
    k = EMComparison(adj, em)
    assert is_faithful(k).ok and is_full(k).ok
    # p* is monadic here: every bounded algebra is hit up to iso
    images = [k.obj(x) for x in adj.right.src.objects()]
    for alg in em.objects():
        assert any(find_isomorphism(em, img, alg) is not None for img in images)


def test_em_is_isomorphism_agrees_with_the_inverse_search(small_maps):
    """EM(T_p) decides invertibility on the underlying map; the default
    ``Category.is_isomorphism`` searches hom(y, x) for a two-sided inverse.
    They agree on every EM morphism over the 19 maps at bound 2."""
    compared = isos = 0
    for p in small_maps():
        _, adj = adjunction_for(p, 2)
        em = EMCategory(induced_monad(adj))
        algs = em.objects()
        for f in (f for x in algs for y in algs for f in em.hom(x, y)):
            decided = em.is_isomorphism(f)
            assert decided == Category.is_isomorphism(em, f), (p, f)
            compared += 1
            isos += decided
    assert (compared, isos) == (179, 69)


def test_em_equivalence_searches_no_inverse(monkeypatch):
    """Essential surjectivity onto EM(T_p) tests isomorphisms on the
    underlying maps, so deciding K an equivalence composes no path of
    algebra morphisms."""
    from descent_kit.fincat import is_equivalence
    _, adj = adjunction_for(fn("abc", "xy", {"a": "x", "b": "x", "c": "y"}), 3)
    em = EMCategory(induced_monad(adj))
    calls = []
    commutes = EMCategory.commutes
    monkeypatch.setattr(EMCategory, "commutes",
                        lambda self, lhs, rhs: calls.append(1) or commutes(self, lhs, rhs))
    assert is_equivalence(EMComparison(adj, em)).level == EQUIVALENCE
    assert calls == []


def test_mate_of_identity_square_is_identity():
    p = FinFunction.identity(FinSetObj(("x", "y")))
    sq = pullback_square_bc(p, p, p, p, bound=2)
    m = mate(sq)
    cat = sq.f_a.dst
    for x in sq.f_b.src.objects():
        comp = m.at(x)
        assert comp.fn.is_bijective()
        # identity square: the mate relabels pairs without moving elements
        src_tops = sorted(top for top, _ in comp.src.dom.elements)
        dst_tops = sorted(top for top, _ in comp.dst.dom.elements)
        assert src_tops == dst_tops


def test_beck_chevalley_for_chosen_pullback_squares_spot():
    z = FinSetObj(("z0", "z1"))
    x = FinSetObj(("x0", "x1"))
    y = FinSetObj(("y0",))
    f = FinFunction.of(x, z, {"x0": "z0", "x1": "z1"})
    g = FinFunction.of(y, z, {"y0": "z0"})
    sq = chosen_pullback_bc_square(f, g, bound=2)
    assert is_beck_chevalley(sq).ok


def test_broken_square_mate_not_invertible():
    # corner deliberately empty: commutes, but is not the pullback
    z = FinSetObj(("z",))
    x = FinSetObj(("x",))
    y = FinSetObj(("y",))
    f = FinFunction.of(x, z, {"x": "z"})
    g = FinFunction.of(y, z, {"y": "z"})
    empty = FinSetObj(())
    q1 = FinFunction(empty, x, ())
    q2 = FinFunction(empty, y, ())
    sq = pullback_square_bc(f, g, q1, q2, bound=2)
    d = is_beck_chevalley(sq)
    assert not d.ok
    witness_obj, witness_mor = d.witness
    assert not witness_mor.fn.is_bijective()


def test_datum_algebra_round_trip(raw_descent_data):
    p = fn("abc", "xy", {"a": "x", "b": "y", "c": "y"})
    fib, adj = adjunction_for(p)
    monad = induced_monad(adj)
    for datum in raw_descent_data(fib):
        alg = datum_to_algebra(fib, monad, datum)
        back = algebra_to_datum(fib, monad, alg)
        assert back == datum


def test_structure_map_that_forgets_the_top_induces_no_datum():
    # over 2 -> 1, x with two points over each of a and b; a sends each
    # (v, e) of T x to the first point over e, so the induced rho sends
    # (v, (e0, e1)) to the first point over e1 whatever v is: not one to one
    fib, adj = adjunction_for(two_to_one(), 2)
    monad = induced_monad(adj)
    x = fn([(e, i) for e in "ab" for i in range(2)], "ab", lambda v: v[0])
    tx = monad.t.obj(x)
    a = SliceMor(tx, x, FinFunction.of(tx.dom, x.dom, lambda ve: (ve[1], 0)))
    with pytest.raises(TheoremViolation,
                       match="does not induce an invertible datum: .* is not a bijection"):
        algebra_to_datum(fib, monad, Algebra(x, a))


def test_structure_map_off_the_base_is_refused_before_lifting():
    # over 2 -> 1, x with one point over each of a and b; a(v, e) = v
    # sends (v, e) over e to v over x(v): no triangle over E, so it is
    # refused where it is built and no algebra of C/E is ever made of it
    fib, adj = adjunction_for(two_to_one(), 2)
    monad = induced_monad(adj)
    x = fn("ab", "ab", lambda v: v)
    tx = monad.t.obj(x)
    with pytest.raises(CategoryError, match="does not commute"):
        SliceMor(tx, x, FinFunction.of(tx.dom, x.dom, lambda ve: ve[0]))


def test_benabou_roubaud_identity():
    p = FinFunction.identity(FinSetObj(("x",)))
    res = benabou_roubaud(p, 2)
    assert res.equivalence and res.factorizations_agree


def test_benabou_roubaud_two_to_one():
    res = benabou_roubaud(two_to_one(), 3)
    assert res.equivalence and res.factorizations_agree
    assert len(res.desc.objects()) == len(res.em.objects()) == 2


def test_benabou_roubaud_monad_is_built_on_the_fibrations_own_pullback():
    # T_p = p*Σ_p uses the augmentation d itself, so Phi, T_p and K share
    # one p* and its memo
    res = benabou_roubaud(two_to_one(), 2)
    assert res.monad.t.second is res.desc.diagram.d


def test_benabou_roubaud_three_to_two():
    p = fn("abc", "xy", {"a": "x", "b": "x", "c": "y"})
    res = benabou_roubaud(p, 3)
    assert res.equivalence and res.factorizations_agree


def test_benabou_roubaud_non_surjective_still_equivalence():
    # Desc(p) only sees the image of p; the comparison with algebras is
    # unaffected by the missed points
    p = fn("e", "xy", {"e": "x"})
    res = benabou_roubaud(p, 2)
    assert res.equivalence


def test_benabou_roubaud_takes_labels_of_mixed_type():
    # no code of the library compares labels, so ints beside strings get
    # the equivalence, as in test_classify_takes_labels_of_mixed_type
    cases = [fn((1, "a"), "x", lambda _: "x"),
             fn((1, "a", 2), ("x", 0), {1: "x", "a": 0, 2: "x"}),
             fn((1,), ("x", 0), {1: "x"})]
    for p in cases:
        for bound in (2, 3):
            res = benabou_roubaud(p, bound)
            assert res.equivalence and res.factorizations_agree, (p, bound)


def test_benabou_roubaud_names_the_algebra_no_enumerated_datum_reaches(monkeypatch):
    # essential surjectivity connects each algebra to the enumerated datum
    # on its carrier; a Desc(p) that drops a datum leaves its algebra unreached
    from descent_kit import monadic

    class DroppingLast(monadic.DescCategory):
        def _objects(self):
            return super()._objects()[:-1]

    monkeypatch.setattr(monadic, "DescCategory", DroppingLast)
    res = benabou_roubaud(two_to_one(), 2)
    assert res.verdict == FULLY_FAITHFUL_ONLY
    dropped = enumerate_descent_data(res.desc.diagram)[-1]
    ess = res.report.essentially_surjective
    assert not ess.ok and ess.within_bound
    assert ess.witness == res.functor.obj(dropped)


def test_broken_mu_detected():
    from descent_kit.mutations import broken_mu
    p = two_to_one()
    _, adj = adjunction_for(p)
    monad = induced_monad(adj)
    assert broken_mu(monad).check() != []


def test_broken_counit_detected():
    from descent_kit.mutations import broken_counit
    p = two_to_one()
    _, adj = adjunction_for(p)
    bad = broken_counit(adj)
    assert bad.check_triangles() != []
    with pytest.raises(TheoremViolation):
        induced_monad(bad)


def test_benabou_roubaud_reports_the_equivalence_ladder():
    res = benabou_roubaud(two_to_one(), 2)
    assert res.verdict == res.report.level == EQUIVALENCE
    assert res.report.faithful and res.report.full and res.report.essentially_surjective


def test_datum_algebra_maps_need_a_top_tracking_monad():
    from descent_kit.descent import enumerate_descent_data
    fib, adj = adjunction_for(two_to_one(), 2)
    monad = induced_monad(adj)
    datum = enumerate_descent_data(fib)[-1]
    alg = datum_to_algebra(fib, monad, datum)
    plain = Monad(IdentityFunctor(fib.c1), monad.eta, monad.mu)
    with pytest.raises(CategoryError):
        datum_to_algebra(fib, plain, datum)
    with pytest.raises(CategoryError):
        algebra_to_datum(fib, plain, alg)


def test_benabou_roubaud_sweep_is_equivalence_and_round_trips(raw_descent_data, small_maps):
    # the paper's oracle on every map m -> n (m <= 3, 1 <= n <= 2), including
    # the empty, non-surjective and bijective classes; labels as in
    # test_classify_sweep_effective_iff_surjective.  T_p is idempotent (every
    # mu_x invertible) exactly when p is injective.
    idempotent = collections.Counter()
    for p in small_maps(("\\", "(,)", ",\\("), ("(", "),")):
        res = benabou_roubaud(p, 2)
        assert res.verdict == EQUIVALENCE and res.factorizations_agree, p
        fib = res.desc.diagram
        for datum in raw_descent_data(fib):
            alg = datum_to_algebra(fib, res.monad, datum)
            assert algebra_to_datum(fib, res.monad, alg) == datum, (p, datum)
        base = res.monad.base
        idem = all(base.is_isomorphism(res.monad.mu.at(x)) for x in base.objects())
        assert idem == p.is_injective(), p
        idempotent[idem] += 1
    assert idempotent == {True: 7, False: 12}


def test_benabou_roubaud_connects_each_algebra_by_the_first_isomorphism(
        two_sided_inverse, small_maps):
    """``find_isomorphism(desc, rep, datum)``, which ``benabou_roubaud``
    maps for each algebra, is the first morphism of hom(rep, datum) that
    has a two-sided inverse, found by the reference search."""
    transported = 0
    for p in small_maps():
        for bound in (2, 3):
            res = benabou_roubaud(p, bound)
            desc, fib = res.desc, res.desc.diagram
            enumerated = {d.w: d for d in desc.objects()}
            for alg in res.em.objects():
                datum = algebra_to_datum(fib, res.monad, alg)
                rep = enumerated[alg.x]
                want = next((f for f in desc.hom(rep, datum)
                             if two_sided_inverse(desc, f) is not None), None)
                assert want is not None, (p, bound, alg)
                assert find_isomorphism(desc, rep, datum) == want, (p, bound, alg)
                transported += 1
    assert transported == 138


def test_em_commutes_forwards_to_the_base():
    """Algebra morphisms commute when their endpoints match and their maps
    commute pointwise in the base; a path breaks where ``compose`` breaks."""
    _, adj = adjunction_for(fn("abc", "xy", {"a": "x", "b": "x", "c": "y"}), 2)
    em = EMCategory(induced_monad(adj))
    algs = em.objects()
    mors = [f for x in algs for y in algs for f in em.hom(x, y)]
    outcomes = set()
    for f, g, h in itertools.product(mors, repeat=3):
        for lhs, rhs in (([f, g], [h]), ([f], [h])):
            if f.dst != g.src and len(lhs) == 2:
                with pytest.raises(CategoryError, match="non-composable algebra morphisms"):
                    em.commutes(lhs, rhs)
                continue
            want = Category.commutes(em, lhs, rhs)
            assert em.commutes(lhs, rhs) == want
            outcomes.add(want)
    assert outcomes == {True, False}
    # two structures on one carrier: their identities share the underlying map
    x, a = next((x, a) for x in algs for a in em.monad.base.hom(x.a.src, x.x) if a != x.a)
    y = Algebra(x.x, a)
    id_x, id_y = em.identity(x), em.identity(y)
    assert em.monad.base.commutes([id_x.m], [id_y.m])
    assert not em.commutes([id_x], [id_y])


def test_algebras_on_one_carrier_print_apart():
    # over 2 -> 1 at bound 4 two of the four algebras share a carrier; each
    # prints its structure map's table, so all four print apart
    algs = benabou_roubaud(two_to_one(), 4).em.objects()
    assert len(algs) == 4 and len({alg.x for alg in algs}) == 3
    assert len({repr(alg) for alg in algs}) == 4
