import collections

import pytest

from descent_kit import fincat
from descent_kit.cosimplicial import basic_fibration, validate_coherence
from descent_kit.descent import descend, moves
from descent_kit.fincat import CategoryError, Functor, NatTrans, NotCommuting
from descent_kit.finset import (FinFunction, FinSetError, FinSetObj, follow,
                                mediating_map, pullback, quotient)
from descent_kit.monadic import algebra_to_datum, datum_to_algebra, induced_monad
from descent_kit.mutations import invert_theta, swap_face_convention
from descent_kit.slices import (ChangeOfBase, ComposedCartFunctor, IdentityCartFunctor,
                                SigmaAlong, SliceCategory, SliceMor, comparison_iso,
                                match_by_legs, sigma_pullback_adjunction)

from conftest import all_functions, canonical_set


def fn(dom, cod, mapping):
    return FinFunction.of(FinSetObj(tuple(dom)), FinSetObj(tuple(cod)), mapping)


def test_identity_fibration_levels_relabel():
    p = FinFunction.identity(FinSetObj(("x", "y")))
    fib = basic_fibration(p, 2)
    # all projections are bijections, so every level has the same object count
    assert len(fib.c2.base) == 2 and len(fib.c3.base) == 2
    assert validate_coherence(fib).is_empty()
    # the bound is fixed where the diagram is built: the gate takes that
    # one and refuses another
    assert validate_coherence(fib, 2).is_empty()
    with pytest.raises(CategoryError, match="enumerated at bound 2, not 3"):
        validate_coherence(fib, 3)


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
    assert validate_coherence(fib).is_empty()


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
                fib = basic_fibration(p, 2)
                rep = validate_coherence(fib)
                assert rep.is_empty(), (p, str(rep))


def test_theta_inverse_is_natural():
    p = fn("ab", "*", lambda _: "*")
    fib = basic_fibration(p, 2)
    assert fib.theta.check_iso() == []


def test_tampered_theta_detected():
    # twist theta by a fiber swap: typechecks, breaks the presentation equations
    p = fn("ab", "*", lambda _: "*")
    fib = basic_fibration(p, 3)
    from descent_kit.mutations import invert_theta
    broken = invert_theta(fib)
    rep = validate_coherence(broken)
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
            for f in validate_coherence(invert_theta(basic_fibration(p, bound))).failures)
        assert dict(seen) == want, bound


def test_gate_builds_no_composite(monkeypatch, small_maps):
    """The gate decides every square and equation pointwise: with slice and
    function composition and functor images (``Functor.mor``) refused, it
    gives the same reports on the 19 maps, plain, with theta twisted and
    with the faces swapped.  It raises on none, and reports the mis-typed
    cells of ``swap_face_convention`` on each non-injective map."""

    def diagrams():
        out = []
        for p in small_maps():
            fib = basic_fibration(p, 2)
            twisted = invert_theta(fib)
            for b0 in fib.c0.objects():
                twisted.theta.at(b0)  # the mutant's cell is data, built with then
            out += [fib, twisted, swap_face_convention(fib)]
        return out

    def outcome(diagram):
        try:
            return [str(f) for f in validate_coherence(diagram).failures]
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
    assert [o for o in want if isinstance(o, str)] == []
    swapped = [want[3 * i + 2] for i, p in enumerate(small_maps()) if not p.is_injective()]
    assert len(swapped) == 12
    for failures in swapped:
        assert failures and all(": wrong source at " in f or ": wrong target at " in f
                                for f in failures), failures


def test_image_follows_the_built_mor_on_every_functor(image_mismatches, small_maps):
    # the view of each face, composite and T = p*Σ_p gives the values of
    # the built mediating map, on the 19 maps at bound 2
    total = 0
    for p in small_maps():
        bad, compared = image_mismatches(basic_fibration(p, 2))
        assert bad == [], p
        total += compared
    assert total > 0


def _pr1_chain(functor, x):
    """The top projection of functor at x as a path of built tables, in
    the order they apply: a change of base along u is the pr1 of the
    chosen pullback of x along u, a composite is its second factor's path
    then its first's, and a functor that keeps the carrier has none."""
    if isinstance(functor, ChangeOfBase):
        return [pullback(x, functor.u).pr1]
    if isinstance(functor, ComposedCartFunctor):
        return _pr1_chain(functor.second, functor.first.obj(x)) + _pr1_chain(functor.first, x)
    return []


def test_legs_follow_the_pr1_chain(cart_functors, small_maps):
    """Every functor that tracks tops reads the tops its chain of pr1
    tables gives: of every element of obj(x), and of the images of F(m)
    for each generator m: x -> y, which are m applied to the tops of
    obj(x); on the 19 maps at bounds 1 to 3."""
    checked = 0
    for bound in (1, 2, 3):
        for p in small_maps():
            for functor in cart_functors(basic_fibration(p, bound)):
                cat = functor.src
                for x in cat.objects():
                    chain = _pr1_chain(functor, x)
                    assert functor.legs(x) == follow(chain, functor.obj(x).dom.elements), (
                        p, functor.name, x)
                for m in cat.generators():
                    c = functor.mor(m)
                    images = c.values(c.src.dom.elements)
                    legs = functor.legs(m.dst, images)
                    assert legs == follow(_pr1_chain(functor, m.dst), images), (
                        p, functor.name, m)
                    assert legs == m.values(functor.legs(m.src)), (p, functor.name, m)
                    checked += 1
    assert checked > 0


def _matched(f, g, x):
    """The reference component of the comparison f => g at x: the elements
    of f(x) and g(x) matched on their (top, base) legs."""
    fx, gx = f.obj(x), g.obj(x)
    return match_by_legs(fx.dom, [_pr1_chain(f, x), [fx]], gx.dom, [_pr1_chain(g, x), [gx]])


def test_lifted_cells_equal_the_leg_matching_reference(small_maps):
    """Each of the six cells, at every object of its index category and
    at every d(B0), where the presentation equations read the level-1
    cells, lifts each element along its legs to the component that
    matching the legs gives, on the 19 maps at bounds 1 to 3."""
    checked = 0
    for bound in (1, 2, 3):
        for p in small_maps():
            fib = basic_fibration(p, bound)
            glued = [fib.d.obj(b0) for b0 in fib.c0.objects()]
            for name, cell, src_f, dst_f in fib.constraint_types():
                at = src_f.src.objects() + (glued if src_f.src is fib.c1 else [])
                for x in at:
                    assert cell.at(x).fn == _matched(src_f, dst_f, x), (p, name, x)
                    checked += 1
    assert checked > 0


def test_lifted_maps_equal_the_leg_matching_reference(raw_descent_data, small_maps):
    """Every other canonical map the library lifts along its legs
    (``CartFunctor.lift``) equals its reference, on the 19 maps at bounds
    1 to 3: gluing's iso and both directions between data and algebras
    equal what matching the legs gives, the unit of Σ_p ⊣ p* equals the
    mediating map into the chosen pullback, and the counit its pr1."""
    checked = collections.Counter()
    for bound in (1, 2, 3):
        for p in small_maps():
            fib = basic_fibration(p, bound)
            adj = sigma_pullback_adjunction(fib.d)
            for w in fib.c1.objects():
                pb = pullback(w.then(p), p)
                assert adj.unit.at(w).fn == mediating_map(
                    pb, FinFunction.identity(w.dom), w), (p, w)
                checked["unit"] += 1
            for x in fib.c0.objects():
                assert adj.counit.at(x).fn == pullback(x, p).pr1, (p, x)
                checked["counit"] += 1
            monad = induced_monad(adj)
            t = monad.t
            for datum in raw_descent_data(fib):
                w = datum.w
                _, proj = quotient(w.dom, [(v, v2) for v, _, v2 in moves(datum)])
                res = descend(fib, datum)
                pg = res.iso.m.src
                assert res.iso.m.fn == match_by_legs(
                    pg.dom, [_pr1_chain(fib.d, res.glued), [pg]], w.dom, [[proj], [w]]), (p, datum)
                tw, d1w, d0w = t.obj(w), fib.d1.obj(w), fib.d0.obj(w)
                to_d1 = match_by_legs(tw.dom, [_pr1_chain(t, w), [tw]],
                                      d1w.dom, [_pr1_chain(fib.d1, w), [d1w, fib.d0.u]])
                alg = datum_to_algebra(fib, monad, datum)
                assert alg.a.fn == to_d1.then(datum.rho.fn).then(
                    pullback(w, fib.d0.u).pr1), (p, datum)
                rho = algebra_to_datum(fib, monad, alg).rho
                assert rho.fn == match_by_legs(
                    d1w.dom, [[to_d1.inverse(), alg.a.fn], [d1w]],
                    d0w.dom, [_pr1_chain(fib.d0, w), [d0w]]), (p, datum)
                checked["datum"] += 1
    assert min(checked.values()) > 0, checked


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
        for x in fib.c1.objects():
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
    wherever u moves a point of the carrier's image.  Its lift returns the
    tops unchecked, and the component's triangle refuses them as not
    commuting over the base, which the check reports at those objects."""
    e = FinSetObj(("e0", "e1", "e2"))
    swap = FinFunction.of(e, e, {"e0": "e1", "e1": "e0", "e2": "e2"})
    c1 = SliceCategory(e, 2)
    iso = comparison_iso(ChangeOfBase(swap, c1, c1), IdentityCartFunctor(c1), "swap")
    moved = []
    for x in c1.objects():
        if {b for _, b in x.mapping} <= {"e2"}:
            assert iso.at(x).fn.is_bijective(), x
        else:
            with pytest.raises(NotCommuting, match="does not commute over the base"):
                iso.at(x)
            moved.append(x)
    assert moved and iso.check_iso() == [f"swap: does not commute at {x}" for x in moved]


def test_faces_and_their_composites_preserve_composition(small_map):
    # deciding naturality on generators needs both functors of each square
    # to preserve identities and composition
    fib = basic_fibration(small_map, 2)
    functors = [fib.d] + [f for _, _, src_f, dst_f in fib.constraint_types()
                          for f in (src_f, dst_f)]
    assert len(functors) == 13
    for functor in functors:
        assert functor.check() == [], functor.name


def _every_square(source, target, at):
    """The naturality loop over every enumerated morphism, as reference."""
    index, cat = source.src, source.dst
    objs = index.objects()
    return [f for x in objs for y in objs for f in index.hom(x, y)
            if cat.compose(at(y), source.mor(f)) != cat.compose(target.mor(f), at(x))]


def _gate(p, mutate, bound):
    """(equation -> witnesses) of the gate's report, or the exception it raises."""
    try:
        report = validate_coherence(mutate(basic_fibration(p, bound)))
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
    monkeypatch.setattr(fincat, "naturality_failures", _every_square)
    on_every_square = [_gate(*case) for case in cases]
    raised = fewer = 0
    for case, got, want in zip(cases, on_generators, on_every_square):
        if isinstance(want, tuple):
            raised += 1
            assert got == want, case
            continue
        assert isinstance(got, dict) and got.keys() == want.keys(), case
        for equation, witnesses in got.items():
            if equation.endswith(": naturality"):
                assert set(witnesses) <= set(want[equation]), (case, equation)
                fewer += len(witnesses) < len(want[equation])
            else:
                assert witnesses == want[equation], (case, equation)
    assert raised == 0
    # the reference took effect: some failing square is no generator's
    assert fewer > 0


def _keeps_legs(c, src_f, dst_f, x):
    """Whether the component c: src_f(x) -> dst_f(x) keeps base points, and
    tops as the two chains of pr1 tables give them."""
    elements = c.src.dom.elements
    return follow([c, c.dst], elements) == follow([c.src], elements) and (
        follow([c, *_pr1_chain(dst_f, x)], elements) == follow(_pr1_chain(src_f, x), elements))


def test_cells_whose_legs_hold_have_no_failing_square(small_maps):
    """The theorem the gate decides naturality by: a cell between functors
    that track tops, each of whose components keeps base points and tops,
    is natural.  Over every well-typed cell of the gate's 171 cases,
    ``naturality_failures``, called directly, finds no failing square
    where the legs hold; where they fail the gate runs the squares."""
    held = failed = 0
    for p in small_maps():
        for mutate in (lambda fib: fib, invert_theta, swap_face_convention):
            for bound in (1, 2, 3):
                fib = mutate(basic_fibration(p, bound))
                for name, cell, src_f, dst_f in fib.constraint_types():
                    objs = src_f.src.objects()
                    if any((cell.at(x).src, cell.at(x).dst) != (src_f.obj(x), dst_f.obj(x))
                           for x in objs):
                        continue
                    if all(_keeps_legs(cell.at(x), src_f, dst_f, x) for x in objs):
                        held += 1
                        assert fincat.naturality_failures(src_f, dst_f, cell.at) == [], (
                            p, name, bound)
                    else:
                        failed += 1
    assert (held, failed) == (848, 34)


def test_gate_checks_squares_only_where_legs_fail(monkeypatch, small_maps):
    """Plain diagrams pass the gate, and theta ``check_iso``, with no
    square checked; with theta twisted, only theta's squares are."""
    real, seen = fincat.naturality_failures, []

    def counted(source, target, at):
        seen.append(at)
        return real(source, target, at)

    monkeypatch.setattr(fincat, "naturality_failures", counted)
    twisted_calls = 0
    for p in small_maps():
        for bound in (1, 2, 3):
            fib = basic_fibration(p, bound)
            assert validate_coherence(fib).is_empty()
            assert fib.theta.check_iso() == []
            assert seen == [], (p, bound)
            twisted = invert_theta(fib)
            validate_coherence(twisted)
            assert all(at == twisted.theta.at for at in seen), (p, bound)
            twisted_calls += len(seen)
            seen.clear()
    assert twisted_calls > 0


def test_component_over_the_wrong_base_is_reported_not_raised():
    """n0 with each component's target moved over another base: building
    such a triangle raises "spans two bases", so ``NatTrans.check_iso``
    and the gate report at every object that it does not commute, and
    the gate stops at that cell."""
    fib = basic_fibration(fn("ab", "*", lambda _: "*"), 2)
    good, elsewhere = fib.n0, FinSetObj(("z",))

    def moved(x):
        c = good.at(x)
        return SliceMor(c.src, FinFunction.of(c.dst.dom, elsewhere, lambda _: "z"), c.fn)

    cell = NatTrans(good.source, good.target, moved, name="n0")
    objs = fib.c1.objects()
    with pytest.raises(CategoryError, match="spans two bases"):
        cell.at(objs[1])
    assert cell.check_iso() == [f"n0: does not commute at {x}" for x in objs]
    report = validate_coherence(fib._replace(n0=cell))
    assert [(f.equation, f.witness, f.lhs, f.rhs) for f in report.failures] == [
        ("n0: does not commute", x, None, None) for x in objs]


def test_comparison_between_two_bases_is_refused_as_not_commuting():
    """Change of base along u: {0} -> {x,y} and along u': {0,1} -> {x,y},
    which extends u: over an x with no point over y, F(x) and G(x) have
    one carrier over two bases, so the component's triangle is refused as
    spanning two bases and reported as not commuting; over a point of y,
    G(x) is larger and the component is no bijection."""
    u, wide = fn("0", "xy", {"0": "x"}), fn("01", "xy", {"0": "x", "1": "y"})

    def comparison(bound):
        cb = SliceCategory(u.cod, bound)
        return cb, comparison_iso(ChangeOfBase(u, cb, SliceCategory(u.dom, bound)),
                                  ChangeOfBase(wide, cb, SliceCategory(wide.dom, bound)), "n")

    assert comparison(0)[1].check_iso() == ["n: does not commute at []"]
    cb, iso = comparison(2)
    for x in cb.objects():
        over_y = "y" in x.values(x.dom.elements)
        with pytest.raises(FinSetError if over_y else NotCommuting,
                           match="not a bijection" if over_y else "spans two bases"):
            iso.at(x)


def test_a_cell_indexed_by_the_other_level_is_reported_not_raised(small_maps):
    """Every single-cell substitution over the 19 maps at bound 2: theta,
    indexed over B, in the place of a cell indexed over E, or the reverse,
    is reported as a wrong index before any component is built; every other
    substitution is checked as usual.  Nothing raises, and an empty report
    means the cell in place has the components of the one it replaced."""
    counts = collections.Counter()
    for p in small_maps():
        fib = basic_fibration(p, 2)
        types = fib.constraint_types()
        for name, good, src_f, _ in types:
            for other, cell, *_ in types:
                if other == name:
                    continue
                report = validate_coherence(fib._replace(**{name: cell}))
                whats = tuple(sorted({f.equation.split(": ", 1)[1] for f in report.failures}))
                counts[whats] += 1
                if whats == ("wrong index",):
                    [failure] = report.failures
                    assert (failure.lhs, failure.rhs) == (cell.source.src.base, src_f.src.base)
                if not whats:
                    assert all(cell.at(x) == good.at(x) for x in src_f.src.objects())
    assert counts == {("wrong index",): 190, ("wrong source",): 276, (): 104}


def test_the_view_of_sigma_after_a_change_of_base_has_no_base_map():
    """The view of u*;Σ_u follows the lift, which pushes base points down Σ's
    base map, and Σ has none; F(m) itself is built through the factors'
    own images."""
    p = fn("abc", "xy", {"a": "x", "b": "x", "c": "y"})
    adj = sigma_pullback_adjunction(ChangeOfBase(p, SliceCategory(p.cod, 2),
                                                 SliceCategory(p.dom, 2)))
    functor = adj.right.then(adj.left)
    m = next(m for m in adj.right.src.generators() if len(m.src.dom))
    built = functor.mor(m)
    assert (built.src, built.dst) == (functor.obj(m.src), functor.obj(m.dst))
    view = functor.image(m)
    with pytest.raises(CategoryError, match="has no base map"):
        view.values(view.src.dom.elements)


def test_a_component_that_cannot_be_built_raises_its_own_error():
    """Only a triangle its constructor refuses is reported as not
    commuting: a comparison into Σ_p after p* lifts through Σ_p, which has
    no base map to push base points down, and that error escapes the check
    under its own name."""
    p = fn("abc", "xy", {"a": "x", "b": "x", "c": "y"})
    cb, ce = SliceCategory(p.cod, 2), SliceCategory(p.dom, 2)
    cob, sig = ChangeOfBase(p, cb, ce), SigmaAlong(p, ce, cb)
    iso = comparison_iso(IdentityCartFunctor(cb), cob.then(sig))
    with pytest.raises(CategoryError, match="has no base map") as raised:
        iso.check_iso()
    assert not isinstance(raised.value, NotCommuting)


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

    broken = fib._replace(n0=NatTrans(good.source, good.target, collapsed))
    rep = validate_coherence(broken)
    flagged = [f.witness for f in rep.failures if f.equation == "n0: not invertible"]
    assert flagged == [x for x in fib.c1.objects() if not x.is_injective()]
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

    broken = fib._replace(n0=NatTrans(good.source, good.target, constant))
    rep = validate_coherence(broken)
    at = collections.defaultdict(list)
    for f in rep.failures:
        at[f.equation].append(f.witness)
    over = {x: {e for _, e in x.mapping} for x in fib.c1.objects()}
    assert at["n0: does not commute"] == [x for x, es in over.items() if len(es) > 1]
    assert at["n0: not invertible"] == [x for x, es in over.items()
                                        if len(es) == 1 and len(x.dom) > 1]
    assert at["n0: does not commute"] and at["n0: not invertible"]
