import collections
import dataclasses

import pytest

from descent_kit import cosimplicial
from descent_kit.cosimplicial import basic_fibration, validate_coherence
from descent_kit.fincat import CategoryError, Functor, NatTrans
from descent_kit.finset import (FinFunction, FinSetError, FinSetObj, canonical_set,
                                all_functions)
from descent_kit.mutations import invert_theta, swap_face_convention
from descent_kit.slices import (ChangeOfBase, IdentityCartFunctor, SliceCategory, SliceMor,
                                comparison_iso, match_by_legs)


def fn(dom, cod, mapping):
    return FinFunction.of(FinSetObj(tuple(dom)), FinSetObj(tuple(cod)), mapping)


def test_identity_fibration_levels_relabel():
    p = FinFunction.identity(FinSetObj(("x", "y")))
    fib = basic_fibration(p, 2)
    # all projections are bijections, so every level has the same object count
    assert len(fib.c2.base) == 2 and len(fib.c3.base) == 2
    assert validate_coherence(fib, 2).is_empty()


def test_two_to_one_fibration_shapes():
    p = fn("ab", "*", lambda _: "*")
    fib = basic_fibration(p, 2)
    assert len(fib.c2.base) == 4
    assert len(fib.c3.base) == 8
    # the degeneracy pulls back along the 2-element diagonal
    assert fib.s0.u.dom.elements == p.dom.elements
    assert fib.s0.u.is_injective()


def test_empty_domain_fibration():
    p = fn("", "x", {})
    fib = basic_fibration(p, 2)
    assert len(fib.c2.base) == 0 and len(fib.c3.base) == 0
    assert validate_coherence(fib, 2).is_empty()


def test_face_projections_follow_omit_convention():
    p = fn("ab", "*", lambda _: "*")
    fib = basic_fibration(p, 3)
    for t in fib.c2.base.elements:
        e0, e1 = t
        assert fib.d0.u(t) == e1  # omitting coordinate 0 keeps the second
        assert fib.d1.u(t) == e0
    for t in fib.c3.base.elements:
        pair, e2 = t
        e0, e1 = pair
        assert fib.del2.u(t) == pair
        r0 = fib.del0.u(t)
        assert r0 == (e1, e2)
        r1 = fib.del1.u(t)
        assert r1 == (e0, e2)


def test_basic_fibration_coherence_small_sweep():
    # must hold by universal-property reasoning; the run is the verification
    for esize in range(0, 3):
        for bsize in range(1, 3):
            e, b = canonical_set(esize, "e"), canonical_set(bsize, "b")
            for p in all_functions(e, b):
                fib = basic_fibration(p, 3)
                rep = validate_coherence(fib, 2)
                assert rep.is_empty(), (p, str(rep))


def test_theta_inverse_is_natural():
    p = fn("ab", "*", lambda _: "*")
    fib = basic_fibration(p, 2)
    assert fib.theta.check_iso(2) == []


def test_tampered_theta_detected():
    # twist theta by a fiber swap: typechecks, breaks the presentation equations
    p = fn("ab", "*", lambda _: "*")
    fib = basic_fibration(p, 3)
    from descent_kit.mutations import invert_theta
    broken = invert_theta(fib)
    rep = validate_coherence(broken, 3)
    assert not rep.is_empty()
    assert any("presentation" in f.equation or "naturality" in f.equation
               for f in rep.failures)


def test_gate_on_twisted_theta_over_small_maps(small_maps):
    # at bound 1 no fiber has two elements to swap; at bound 2 only theta's
    # naturality breaks, reported at the generators whose squares fail
    assert len(small_maps()) == 19
    for bound, want in [(1, {}), (2, {"theta: naturality": 25})]:
        seen = collections.Counter(
            f.equation for p in small_maps()
            for f in validate_coherence(invert_theta(basic_fibration(p, bound)), bound).failures)
        assert dict(seen) == want, bound


def test_gate_builds_no_composite(monkeypatch, small_maps):
    """The gate decides every square and equation pointwise: with slice and
    function composition and functor images (``Functor.mor``) refused, it
    gives the same reports on the 19 maps, plain and with theta twisted,
    and raises the same error on the same mis-typed diagrams of
    ``swap_face_convention``."""

    def diagrams():
        out = []
        for p in small_maps():
            fib = basic_fibration(p, 2)
            twisted = invert_theta(fib)
            for b0 in fib.c0.objects(2):
                twisted.theta.at(b0)  # the mutant's cell is data, built with then
            out += [fib, twisted, swap_face_convention(fib)]
        return out

    def outcome(diagram):
        try:
            return [str(f) for f in validate_coherence(diagram, 2).failures]
        except CategoryError as exc:
            return f"raises {exc}"

    def refuse(*args):
        raise AssertionError("a composite was built")

    want = [outcome(d) for d in diagrams()]
    built = diagrams()
    monkeypatch.setattr(SliceCategory, "compose", refuse)
    monkeypatch.setattr(FinFunction, "then", refuse)
    monkeypatch.setattr(Functor, "mor", refuse)
    assert [outcome(d) for d in built] == want
    raising = [i for i, o in enumerate(want) if isinstance(o, str)]
    assert len(raising) == 12 and all(i % 3 == 2 for i in raising)
    assert {want[i] for i in raising} == {"raises non-composable slice morphisms"}


def test_image_follows_the_built_mor_on_every_functor(image_mismatches, small_maps):
    # the view of each face, composite and T = p*Σ_p gives the values of
    # the built mediating map, on the 19 maps at bound 2
    total = 0
    for p in small_maps():
        bad, compared = image_mismatches(basic_fibration(p, 2), 2)
        assert bad == [], p
        total += compared
    assert total > 0


def _matched(f, g, x):
    """The reference component of the comparison f => g at x: the elements
    of f(x) and g(x) matched on their (top, base) legs."""
    fx, gx = f.obj(x), g.obj(x)
    return match_by_legs(fx.dom, [f.tops(x), [fx]], gx.dom, [g.tops(x), [gx]])


def test_lifted_cells_equal_the_leg_matching_reference(small_maps):
    """Each of the six cells, at every object of its index category and
    at every d(B0), where the presentation equations read the level-1
    cells, lifts each element along its legs to the component that
    matching the legs gives, on the 19 maps at bounds 1 to 3."""
    checked = 0
    for bound in (1, 2, 3):
        for p in small_maps():
            fib = basic_fibration(p, bound)
            glued = [fib.d.obj(b0) for b0 in fib.c0.objects(bound)]
            for name, cell, src_f, dst_f, index_cat in fib.constraint_types():
                at = index_cat.objects(bound) + (glued if index_cat is fib.c1 else [])
                for x in at:
                    assert cell.at(x).fn == _matched(src_f, dst_f, x), (p, name, x)
                    checked += 1
    assert checked > 0


def test_comparison_between_disagreeing_base_maps_raises(small_maps):
    """d0 and d1 pull back along the two projections of E×_B E, which
    differ on a non-injective p: an element (t, (e', e)) of d0(x) has no
    match in d1(x) when e' != e, so the comparison raises exactly at the
    objects whose carrier meets a fiber of p with two points, and is a
    bijection elsewhere."""
    raised = 0
    for p in small_maps():
        if p.is_injective():
            continue
        fib = basic_fibration(p, 2)
        iso = comparison_iso(fib.d0, fib.d1)
        shared = {e for fiber in p.fibers().values() if len(fiber) > 1 for e in fiber}
        for x in fib.c1.objects(2):
            if shared.isdisjoint(e for _, e in x.mapping):
                assert iso.at(x).fn.is_bijective(), (p, x)
            else:
                with pytest.raises(FinSetError, match="not in codomain"):
                    iso.at(x)
                raised += 1
    assert raised > 0


def test_carrier_keeping_end_refuses_tops_off_their_bases():
    """Pulling back along a transposition u of E is not the identity: an
    element (t, a) of u*(x) lies over a, but its top lies over u(a), so
    the identity, which keeps the carrier, has no element with those legs
    wherever u moves a point of the carrier's image."""
    e = FinSetObj(("e0", "e1", "e2"))
    swap = FinFunction.of(e, e, {"e0": "e1", "e1": "e0", "e2": "e2"})
    c1 = SliceCategory(e, 2)
    iso = comparison_iso(ChangeOfBase(swap, c1, c1), IdentityCartFunctor(c1))
    for x in c1.objects():
        if {b for _, b in x.mapping} <= {"e2"}:
            assert iso.at(x).fn.is_bijective(), x
        else:
            with pytest.raises(FinSetError, match="does not send the tops"):
                iso.at(x)


def test_faces_and_their_composites_preserve_composition(small_map):
    # deciding naturality on generators needs both functors of each square
    # to preserve identities and composition
    fib = basic_fibration(small_map, 2)
    functors = [fib.d] + [f for _, _, src_f, dst_f, _ in fib.constraint_types()
                          for f in (src_f, dst_f)]
    assert len(functors) == 13
    for functor in functors:
        assert functor.check(2) == [], functor.name


def _every_square(source, target, at, bound=None):
    """The naturality loop over every enumerated morphism, as reference."""
    index, cat = source.src, source.dst
    objs = index.objects(bound)
    return [f for x in objs for y in objs for f in index.hom(x, y)
            if cat.compose(at(y), source.mor(f)) != cat.compose(target.mor(f), at(x))]


def _gate(p, mutate, bound):
    """(equation -> witnesses) of the gate's report, or the exception it raises."""
    try:
        report = validate_coherence(mutate(basic_fibration(p, bound)), bound)
    except Exception as exc:
        return type(exc), str(exc)
    out: dict = {}
    for failure in report.failures:
        out.setdefault(failure.equation, []).append(failure.witness)
    return out


def test_gate_on_generators_agrees_with_every_square(monkeypatch, small_maps):
    mutations = [lambda fib: fib, invert_theta, swap_face_convention]
    cases = [(p, mutate, bound) for p in small_maps() for mutate in mutations
             for bound in (1, 2, 3)]
    assert len(cases) == 171
    on_generators = [_gate(*case) for case in cases]
    monkeypatch.setattr(cosimplicial, "naturality_failures", _every_square)
    on_every_square = [_gate(*case) for case in cases]
    raised = 0
    for case, got, want in zip(cases, on_generators, on_every_square):
        if isinstance(want, tuple):
            raised += 1
            assert got == want, case
            continue
        assert isinstance(got, dict) and got.keys() == want.keys(), case
        for equation, witnesses in got.items():
            if equation.endswith(": naturality"):
                assert set(witnesses) <= set(want[equation]), (case, equation)
            else:
                assert witnesses == want[equation], (case, equation)
    assert raised == 36


def test_gate_reports_non_invertible_cell():
    # n0 with each fiber collapsed onto its first point: well typed, and a
    # bijection exactly where every fiber has at most one point
    fib = basic_fibration(fn("ab", "*", lambda _: "*"), 2)
    good = fib.n0

    def collapsed(x):
        c = good.at(x)
        first = {}
        for e in c.dst.dom.elements:
            first.setdefault(c.dst(e), e)
        return SliceMor(c.src, c.dst, FinFunction.of(
            c.src.dom, c.dst.dom, lambda u: first[c.dst(c.fn(u))]))

    broken = dataclasses.replace(fib, n0=NatTrans(good.source, good.target, collapsed))
    rep = validate_coherence(broken, 2)
    flagged = [f.witness for f in rep.failures if f.equation == "n0: not invertible"]
    assert flagged == [x for x in fib.c1.objects(2) if not x.is_injective()]
    assert flagged


def test_gate_reports_non_commuting_cell():
    # n0 with each component sent onto the first point of its target: well
    # typed, over the base exactly where the target lies over one point of
    # E, and a bijection only where it has at most one point
    fib = basic_fibration(fn("ab", "*", lambda _: "*"), 2)
    good = fib.n0

    def constant(x):
        c = good.at(x)
        return SliceMor(c.src, c.dst, FinFunction.of(
            c.src.dom, c.dst.dom, lambda u: c.dst.dom.elements[0]))

    broken = dataclasses.replace(fib, n0=NatTrans(good.source, good.target, constant))
    rep = validate_coherence(broken, 2)
    at = collections.defaultdict(list)
    for f in rep.failures:
        at[f.equation].append(f.witness)
    over = {x: {e for _, e in x.mapping} for x in fib.c1.objects(2)}
    assert at["n0: does not commute"] == [x for x, es in over.items() if len(es) > 1]
    assert at["n0: not invertible"] == [x for x, es in over.items()
                                        if len(es) == 1 and len(x.dom) > 1]
    assert at["n0: does not commute"] and at["n0: not invertible"]
