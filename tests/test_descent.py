import itertools

import pytest

from descent_kit.cosimplicial import basic_fibration, validate_coherence
from descent_kit.errors import TheoremViolation
from descent_kit.descent import (ALMOST, DESCENT, EFFECTIVE, NOT_ALMOST,
                                 DescCategory, DescentDatum,
                                 canonicalize_datum, classify, comparison,
                                 descend, enumerate_descent_data,
                                 is_descent_datum)
from descent_kit.fincat import CategoryError, validate_category
from descent_kit.finset import (FinFunction, FinSetObj, all_functions,
                                canonical_set)
from descent_kit.slices import SliceMor, SliceObj


def fn(dom, cod, mapping):
    return FinFunction.of(FinSetObj(tuple(dom)), FinSetObj(tuple(cod)), mapping)


def two_to_one():
    return fn("ab", "*", lambda _: "*")


def oracle_data_for_two_to_one(fib, n):
    """Independent enumeration for p: {a,b} -> {*}: W with fibers of size n
    over each point, rho given by four bijections between fibers, equations
    evaluated elementwise with no functor machinery."""
    w = next(o for o in fib.c1.objects(2 * n)
             if sorted(sum(1 for e in o.carrier if o.to_base(e) == b) for b in "ab")
             == [n, n])
    fibers = {b: [e for e in w.carrier if w.to_base(e) == b] for b in "ab"}
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


def test_datum_counts_match_independent_oracle():
    p = two_to_one()
    fib = basic_fibration(p, 4)
    for n, expected in [(0, 1), (1, 1), (2, 2)]:
        assert oracle_data_for_two_to_one(fib, n) == expected
    raw = enumerate_descent_data(fib, 4, dedupe=False)
    by_size = {}
    for d in raw:
        by_size[len(d.w.carrier)] = by_size.get(len(d.w.carrier), 0) + 1
    assert by_size == {0: 1, 2: 1, 4: 2}
    deduped = enumerate_descent_data(fib, 4, dedupe=True)
    assert len(deduped) == 3  # the two size-4 data are conjugate relabellings


def test_theta_gives_descent_data():
    p = two_to_one()
    fib = basic_fibration(p, 3)
    for b0 in fib.c0.objects(3):
        w = fib.d.obj(b0)
        ok, which = is_descent_datum(fib, w, fib.theta.at(b0))
        assert ok, which


def test_identity_fibration_only_canonical_rho_passes():
    p = FinFunction.identity(FinSetObj(("x",)))
    fib = basic_fibration(p, 3)
    data = enumerate_descent_data(fib, 3, dedupe=False)
    # one datum per carrier size: rho is forced up to the equations
    sizes = sorted(len(d.w.carrier) for d in data)
    assert sizes == [0, 1, 2, 3]
    # and any twisted alternative fails the identity equation
    w2 = next(o for o in fib.c1.objects(3) if len(o.carrier) == 2)
    d1w, d0w = fib.d1.obj(w2), fib.d0.obj(w2)
    from descent_kit.slices import slice_isos
    isos = list(slice_isos(d1w, d0w))
    passing = [r for r in isos if is_descent_datum(fib, w2, r)[0]]
    assert len(isos) == 2 and len(passing) == 1


def test_singleton_fiber_datum_forced():
    p = two_to_one()
    fib = basic_fibration(p, 2)
    data = [d for d in enumerate_descent_data(fib, 2) if len(d.w.carrier) == 2]
    assert len(data) == 1
    ok, _ = is_descent_datum(fib, data[0].w, data[0].rho)
    assert ok


def test_empty_domain_descent_category_is_terminal_like():
    p = fn("", "x", {})
    fib = basic_fibration(p, 3)
    desc = DescCategory(fib, 3)
    objs = desc.objects()
    assert len(objs) == 1 and len(objs[0].w.carrier) == 0
    assert len(desc.hom(objs[0], objs[0])) == 1


def test_desc_category_passes_validate_category():
    for p in [two_to_one(), fn("abc", "xy", {"a": "x", "b": "y", "c": "y"})]:
        fib = basic_fibration(p, 3)
        desc = DescCategory(fib, 3)
        assert validate_category(desc, 3) == []


def test_desc_homs_fast_path_agrees_with_generic_filter():
    p = fn("abc", "xy", {"a": "x", "b": "y", "c": "y"})
    fib = basic_fibration(p, 3)
    desc = DescCategory(fib, 3)
    objs = desc.objects()
    for x in objs:
        for y in objs:
            fast = set(desc._hom_fibration(x, y))
            slow = set(desc._hom_generic(x, y))
            assert fast == slow, (x, y)


def test_comparison_factorization_strict():
    p = two_to_one()
    fib = basic_fibration(p, 3)
    desc = DescCategory(fib, 3)
    phi = comparison(fib, 3, desc=desc)
    u = desc.forgetful()
    for x in fib.c0.objects(3):
        assert u.obj(phi.obj(x)) == fib.d.obj(x)
    for x in fib.c0.objects(2):
        for y in fib.c0.objects(2):
            for f in fib.c0.hom(x, y):
                assert u.mor(phi.mor(f)) == fib.d.mor(f)


def test_comparison_refuses_incoherent_diagram():
    from descent_kit.mutations import invert_theta
    fib = basic_fibration(two_to_one(), 3)
    broken = invert_theta(fib)
    with pytest.raises(ValueError, match="incoherent"):
        comparison(broken, 3)


def test_descend_singleton_fibers_glues_to_point():
    p = two_to_one()
    fib = basic_fibration(p, 2)
    datum = next(d for d in enumerate_descent_data(fib, 2) if len(d.w.carrier) == 2)
    res = descend(fib, datum)
    assert len(res.glued.carrier) == 1 and not res.partial


def test_descend_identity_forgets_rho():
    p = FinFunction.identity(FinSetObj(("x", "y")))
    fib = basic_fibration(p, 3)
    for datum in enumerate_descent_data(fib, 3):
        res = descend(fib, datum)
        assert len(res.glued.carrier) == len(datum.w.carrier)


def test_descend_swap_datum_has_two_orbits():
    p = two_to_one()
    fib = basic_fibration(p, 4)
    swap_data = [d for d in enumerate_descent_data(fib, 4, dedupe=False)
                 if len(d.w.carrier) == 4]
    sizes = sorted(len(descend(fib, d).glued.carrier) for d in swap_data)
    assert sizes == [2, 2]


def test_descend_round_trip_iso_verified():
    p = fn("abc", "xy", {"a": "x", "b": "x", "c": "y"})
    fib = basic_fibration(p, 4)
    for datum in enumerate_descent_data(fib, 4):
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


def test_canonicalize_datum_is_isomorphism_in_desc():
    p = two_to_one()
    fib = basic_fibration(p, 4)
    desc = DescCategory(fib, 4)
    for datum in enumerate_descent_data(fib, 4, dedupe=False):
        rep, iso = canonicalize_datum(fib, datum)
        assert iso.src == datum and iso.dst == rep
        assert desc._equivariant(iso.src, iso.dst, iso.m)
        assert iso.m.fn.is_bijective()


def test_comparison_image_must_be_equivariant():
    # twisting theta is invisible on fibers of size 1, so the gate at bound 1
    # passes; the comparison still refuses the image of an inclusion 1 -> 2
    from descent_kit.mutations import invert_theta
    broken = invert_theta(basic_fibration(two_to_one(), 2))
    phi = comparison(broken, 1)
    one, two = broken.c0.objects(2)[1:]
    inclusion = broken.c0.hom(one, two)[0]
    with pytest.raises(TheoremViolation, match="equivariance"):
        phi.mor(inclusion)


def test_classify_even_carriers_is_descent_not_effective():
    res = classify(two_to_one(), 3, carrier_pred=lambda c: len(c) % 2 == 0)
    assert res.verdict == DESCENT and res.exit_code == 3
    datum = res.report.essentially_surjective.witness
    assert len(datum.w.carrier) == 2
    # it glues to a single point, which the even subcategory does not hold
    assert len(descend(res.fib, datum).glued.carrier) == 1


def test_classify_without_hom_condition_is_almost():
    from descent_kit.mutations import descent_category_without_hom_condition
    p = two_to_one()
    desc = descent_category_without_hom_condition(basic_fibration(p, 2), 2)
    res = classify(p, 2, desc=desc)
    assert res.verdict == ALMOST and res.exit_code == 4
    assert not res.report.full.ok and res.report.full.witness is not None


def test_descent_category_without_cocycle_admits_a_non_datum():
    from descent_kit.mutations import descent_category_without_cocycle
    fib = basic_fibration(two_to_one(), 4)
    real = set(DescCategory(fib, 4).objects())
    corrupt = descent_category_without_cocycle(fib, 4).objects()
    assert len(real) == 3 and len(corrupt) == 4
    (extra,) = [d for d in corrupt if d not in real]
    assert len(extra.w.carrier) == 4
    assert is_descent_datum(fib, extra.w, extra.rho) == (False, "associativity")
    with pytest.raises(TheoremViolation):
        descend(fib, extra, check=False)


def test_not_faithful_leaves_essential_surjectivity_undecided():
    res = classify(fn("e", "xy", {"e": "x"}), 3)
    assert res.verdict == NOT_ALMOST
    assert res.report.essentially_surjective is None
    assert res.report.within_bound


def test_classify_rejects_desc_over_another_map():
    p, other = two_to_one(), fn("e", "xy", {"e": "x"})
    desc = DescCategory(basic_fibration(other, 2), 2)
    with pytest.raises(CategoryError) as exc:
        classify(p, 2, desc=desc)
    assert repr(p) in str(exc.value) and repr(other) in str(exc.value)


def test_almost_rung_witness_names_its_data():
    from descent_kit.mutations import descent_category_without_hom_condition
    p = two_to_one()
    desc = descent_category_without_hom_condition(basic_fibration(p, 2), 2)
    witness = classify(p, 2, desc=desc).report.full.witness
    assert repr(witness.src) in repr(witness) and repr(witness.dst) in repr(witness)


def test_classify_sweep_effective_iff_surjective():
    # labels built from the characters a string pair codec would escape
    e_labels, b_labels = ("\\", "(,)", ",\\("), ("(", "),")
    for m in range(4):
        for n in range(1, 3):
            e, b = FinSetObj(e_labels[:m]), FinSetObj(b_labels[:n])
            for p in all_functions(e, b):
                verdict = classify(p, 2).verdict
                assert (verdict == EFFECTIVE) == p.is_surjective(), (p, verdict)
