import itertools

import pytest

from descent_kit.cosimplicial import basic_fibration
from descent_kit.errors import TheoremViolation
from descent_kit.fincat import (EQUIVALENCE, CategoryError, IdentityFunctor,
                             validate_category)
from descent_kit.finset import (FinFunction, FinSetObj, all_functions,
                                canonical_set, pullback)
from descent_kit.monadic import (Algebra, BCSquare, EMCategory, Monad,
                                 algebra_laws_hold, algebra_to_datum,
                                 benabou_roubaud, chosen_pullback_bc_square,
                                 datum_to_algebra, em_comparison,
                                 induced_monad, is_beck_chevalley, mate,
                                 pullback_square_bc)
from descent_kit.slices import (SliceCategory, SliceMor, SliceObj,
                                sigma_pullback_adjunction)


def fn(dom, cod, mapping):
    return FinFunction.of(FinSetObj(tuple(dom)), FinSetObj(tuple(cod)), mapping)


def two_to_one():
    return fn("ab", "*", lambda _: "*")


def adjunction_for(p, bound=3):
    fib = basic_fibration(p, bound)
    return fib, sigma_pullback_adjunction(p, fib.c1, fib.c0)


def test_identity_adjunction_induces_identity_like_monad():
    p = FinFunction.identity(FinSetObj(("x", "y")))
    fib, adj = adjunction_for(p)
    monad = induced_monad(adj, 2)
    assert monad.check(2) == []
    for w in fib.c1.objects(2):
        assert len(monad.t.obj(w).carrier) == len(w.carrier)


def test_two_to_one_monad_refibers_product():
    p = two_to_one()
    fib, adj = adjunction_for(p)
    monad = induced_monad(adj, 3)
    w = next(o for o in fib.c1.objects(2)
             if sorted(o.to_base(e) for e in o.carrier) == ["a", "b"])
    tw = monad.t.obj(w)
    # fiber over each point of E is all of W
    for e in "ab":
        assert sum(1 for t in tw.carrier if tw.to_base(t) == e) == len(w.carrier)


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


def test_em_enumeration_matches_oracle_and_descent_data():
    p = two_to_one()
    fib, adj = adjunction_for(p)
    monad = induced_monad(adj, 3)
    em = EMCategory(monad, 3)
    for x in fib.c1.objects(3):
        got = [alg for alg in em.objects(3) if alg.x == x]
        assert len(got) == len(oracle_algebras(monad, x))
    # bijective correspondence with descent data on each carrier
    from descent_kit.descent import enumerate_descent_data
    raw = enumerate_descent_data(fib, 3, dedupe=False)
    assert len(em.objects(3)) == len(raw)


def test_em_category_is_a_category():
    p = two_to_one()
    _, adj = adjunction_for(p)
    em = EMCategory(induced_monad(adj, 2), 2)
    assert validate_category(em, 2) == []


def test_object_without_algebra_absent():
    p = two_to_one()
    fib, adj = adjunction_for(p)
    em = EMCategory(induced_monad(adj, 3), 3)
    lopsided = {alg.x for alg in em.objects(3)}
    w = next(o for o in fib.c1.objects(3)
             if [o.to_base(e) for e in o.carrier] == ["a"])
    assert w not in lopsided


def test_em_comparison_identity_p_equivalence():
    from descent_kit.fincat import is_equivalence
    p = FinFunction.identity(FinSetObj(("x",)))
    _, adj = adjunction_for(p)
    k = em_comparison(adj, bound=2)
    assert is_equivalence(k, 2).level == "Equivalence"


def test_em_comparison_two_to_one_equivalence_within_bound():
    from descent_kit.fincat import is_faithful, is_full
    p = two_to_one()
    _, adj = adjunction_for(p)
    monad = induced_monad(adj, 3)
    em = EMCategory(monad, 3)
    k = em_comparison(adj, em, 3)
    assert is_faithful(k, 3).ok and is_full(k, 3).ok
    # p* is monadic here: every bounded algebra is hit up to iso
    from descent_kit.fincat import find_isomorphism
    images = [k.obj(x) for x in adj.right.src.objects(2)]
    for alg in em.objects(2):
        assert any(find_isomorphism(em, img, alg) for img in images)


def test_mate_of_identity_square_is_identity():
    p = FinFunction.identity(FinSetObj(("x", "y")))
    sq = pullback_square_bc(p, p, p, p, bound=2)
    m = mate(sq)
    cat = sq.f_a.dst
    for x in sq.f_b.src.objects(2):
        comp = m.at(x)
        assert comp.fn.is_bijective()
        # identity square: the mate relabels pairs without moving elements
        src_tops = sorted(top for top, _ in comp.src.carrier.elements)
        dst_tops = sorted(top for top, _ in comp.dst.carrier.elements)
        assert src_tops == dst_tops


def test_beck_chevalley_for_chosen_pullback_squares_spot():
    z = FinSetObj(("z0", "z1"))
    x = FinSetObj(("x0", "x1"))
    y = FinSetObj(("y0",))
    f = FinFunction.of(x, z, {"x0": "z0", "x1": "z1"})
    g = FinFunction.of(y, z, {"y0": "z0"})
    sq = chosen_pullback_bc_square(f, g, bound=2)
    assert is_beck_chevalley(sq, 2).ok


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
    d = is_beck_chevalley(sq, 2)
    assert not d.ok
    witness_obj, witness_mor = d.witness
    assert not witness_mor.fn.is_bijective()


def test_datum_algebra_round_trip():
    p = fn("abc", "xy", {"a": "x", "b": "y", "c": "y"})
    fib, adj = adjunction_for(p)
    monad = induced_monad(adj, 3)
    from descent_kit.descent import enumerate_descent_data
    for datum in enumerate_descent_data(fib, 3, dedupe=False):
        alg = datum_to_algebra(fib, monad, datum)
        back = algebra_to_datum(fib, monad, alg)
        assert back == datum


def test_benabou_roubaud_identity():
    p = FinFunction.identity(FinSetObj(("x",)))
    res = benabou_roubaud(p, 2)
    assert res.equivalence and res.factorizations_agree


def test_benabou_roubaud_two_to_one():
    res = benabou_roubaud(two_to_one(), 3)
    assert res.equivalence and res.factorizations_agree
    assert len(res.desc.objects(3)) == len(res.em.objects(3)) == 2


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


def test_broken_mu_detected():
    from descent_kit.mutations import broken_mu
    p = two_to_one()
    _, adj = adjunction_for(p)
    monad = induced_monad(adj, 3)
    assert broken_mu(monad).check(3) != []


def test_broken_counit_detected():
    from descent_kit.mutations import broken_counit
    p = two_to_one()
    _, adj = adjunction_for(p)
    bad = broken_counit(adj)
    assert bad.check_triangles(3) != []
    with pytest.raises(TheoremViolation):
        induced_monad(bad, 3)


def test_benabou_roubaud_reports_the_equivalence_ladder():
    res = benabou_roubaud(two_to_one(), 2)
    assert res.verdict == res.report.level == EQUIVALENCE
    assert res.report.faithful and res.report.full and res.report.essentially_surjective


def test_datum_algebra_maps_need_a_top_tracking_monad():
    from descent_kit.descent import enumerate_descent_data
    fib, adj = adjunction_for(two_to_one(), 2)
    monad = induced_monad(adj, 2)
    datum = enumerate_descent_data(fib, 2)[-1]
    alg = datum_to_algebra(fib, monad, datum)
    plain = Monad(IdentityFunctor(fib.c1), monad.eta, monad.mu)
    with pytest.raises(CategoryError):
        datum_to_algebra(fib, plain, datum)
    with pytest.raises(CategoryError):
        algebra_to_datum(fib, plain, alg)
