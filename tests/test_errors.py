"""Bad input gets a typed library error: CategoryError or FinSetError, both
ValueErrors, never a bare ValueError or a stray KeyError.  An entry point
given a value of the wrong Python type says so: ``basic_fibration``, and
with it ``classify`` and ``benabou_roubaud``, on a p that is no
``FinFunction``, and ``descend`` on a datum that is no ``DescentDatum``.
Values of the wrong Python type handed to internal constructors are out of
scope.  Well-typed values with wrong contents (a triangle that does not
commute or spans two bases, a map into the wrong base, a datum of another
fibration, a cell with the wrong source) raise one of the two errors or
give a failing report, and never a wrong answer
(``test_wrong_contents_raise_or_fail_and_never_answer_wrong``).

Labels that Python cannot order are not bad input: no code of the library
compares labels, and ``tests/test_descent.py`` and ``tests/test_monadic.py``
check ``classify`` and ``benabou_roubaud`` on such maps."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from descent_kit.bilimits import PsSquare, is_pseudopullback_square
from descent_kit.cosimplicial import CoherenceReport, basic_fibration, validate_coherence
from descent_kit.descent import (DescCategory, DescentDatum, classify, comparison,
                                 descend, is_descent_datum)
from descent_kit.fincat import (CategoryError, Functor, IdentityFunctor, NatTrans,
                                TableFunctor)
from descent_kit.finset import FinFunction, FinSetError, FinSetObj, quotient
from descent_kit.monadic import (EMCategory, benabou_roubaud, induced_monad,
                                 pullback_square_bc)
from descent_kit.mutations import invert_theta
from descent_kit.slices import (ChangeOfBase, SliceCategory, SliceMor,
                                sigma_pullback_adjunction, slice_isos)

from conftest import all_functions, chain_category


def fn(dom, cod, mapping):
    return FinFunction.of(FinSetObj(tuple(dom)), FinSetObj(tuple(cod)), mapping)


def fibration():
    return basic_fibration(fn("ab", "*", lambda _: "*"), 2)


def rho_of_wrong_type():
    fib = fibration()
    w = fib.c1.objects()[1]
    is_descent_datum(fib, w, fib.c2.identity(fib.d0.obj(w)))


def non_composable_descent_morphisms():
    desc = DescCategory(fibration())
    x, y = desc.objects()[:2]
    desc.compose(desc.identity(x), desc.identity(y))


def comparison_over_incoherent_diagram():
    comparison(DescCategory(invert_theta(fibration())))


def descend_invalid_datum():
    # over a point, swapping a two-element carrier breaks the identity equation
    fib = basic_fibration(FinFunction.identity(FinSetObj(("x",))), 2)
    w, rho = next((w, rho) for w in fib.c1.objects()
                  for rho in slice_isos(fib.d1.obj(w), fib.d0.obj(w))
                  if not is_descent_datum(fib, w, rho)[0])
    descend(fib, DescentDatum(w, rho))


def classify_a_mapping_that_is_no_finfunction():
    classify({"a": "x"}, 2)


def benabou_roubaud_of_a_tuple():
    benabou_roubaud(("a", "x"), 2)


def descend_a_carrier_that_is_no_datum():
    fib = fibration()
    descend(fib, fib.c1.objects()[1])


def non_composable_algebra_morphisms():
    fib = fibration()
    adj = sigma_pullback_adjunction(fib.d)
    em = EMCategory(induced_monad(adj))
    x, y = em.objects()[:2]
    em.compose(em.identity(x), em.identity(y))


def non_commuting_bc_square():
    p1 = fn("ab", "xy", {"a": "x", "b": "y"})
    q = FinFunction.identity(p1.dom)
    swap = fn("ab", "ab", {"a": "b", "b": "a"})
    pullback_square_bc(p1, p1, q, swap, 1)


def call_outside_domain():
    FinFunction.identity(FinSetObj(("a",)))("z")


def call_on_an_unhashable_label():
    FinFunction.identity(FinSetObj(("a",)))(["a"])


def values_of_an_unhashable_label():
    FinFunction.identity(FinSetObj(("a",))).values(["a", ["a"]])


def identity_of_unknown_object():
    chain_category(2).identity("2")


def unknown_table_morphism():
    chain_category(2).mor("m10")


def table_functor_missing_a_morphism():
    c = chain_category(2)
    TableFunctor(c, c, {"0": "0", "1": "1"}, {"m00": "m00"}, name="F").check()


def table_functor_missing_an_object():
    c = chain_category(2)
    TableFunctor(c, c, {"0": "0"}, {"m00": "m00", "m01": "m01", "m11": "m11"},
                 name="F").check()


def pseudopullback_square_with_non_invertible_filler():
    # the cell m01: 0 -> 1 of the chain 0 -> 1, seen from the point
    pt, c = chain_category(1), chain_category(2)

    def const(obj):
        return Functor(pt, c, lambda _: obj, lambda _: c.identity(obj))

    zero, one = const("0"), const("1")
    square = PsSquare(corner=pt, p1=zero, p2=one, f=IdentityFunctor(c), g=IdentityFunctor(c),
                      filler=NatTrans(zero, one, lambda _: c.mor("m01")))
    is_pseudopullback_square(square)


def classify_at_a_negative_bound():
    # every enumeration would be empty: a non-surjection would read Effective
    classify(fn("e", "xy", {"e": "x"}), -1)


def benabou_roubaud_at_a_negative_bound():
    benabou_roubaud(fn("ab", "*", lambda _: "*"), -1)


def validate_coherence_at_a_negative_bound():
    validate_coherence(fibration(), -1)


def classify_with_a_predicate_that_is_no_callable():
    # refused where Desc(p) is built, before any datum is enumerated
    classify(fn("ab", "*", lambda _: "*"), 2, carrier_pred="x")


def desc_category_of_no_diagram():
    DescCategory("fib")


def validate_coherence_of_no_diagram():
    validate_coherence("x")


def descend_over_no_diagram():
    descend("fib", DescCategory(fibration()).objects()[1])


def comparison_of_no_desc_category():
    comparison("x")


def classify_at_no_bound():
    classify(fn("ab", "*", lambda _: "*"), None)


def classify_at_a_fractional_bound():
    classify(fn("ab", "*", lambda _: "*"), 2.5)


def classify_at_a_string_bound():
    classify(fn("ab", "*", lambda _: "*"), "2")


def objects_at_a_float_bound_after_its_integer():
    # 2.0 == 2 and they hash alike, but a bound is an integer: a slice
    # category at 2.0 is refused where it is built, even beside one at 2
    base = FinSetObj(("x",))
    SliceCategory(base, 2).objects()
    SliceCategory(base, 2.0)


def generators_at_a_float_bound_after_its_integer():
    # likewise a descent category, over a diagram built at 2
    fib = fibration()
    DescCategory(fib).generators()
    DescCategory(fib, 2.0)


def set_with_an_unhashable_label():
    FinSetObj(([1],))


def function_with_a_malformed_pair():
    FinFunction(FinSetObj(("a",)), FinSetObj(("x",)), (("a",),))


def function_of_a_number():
    FinFunction.of(FinSetObj(("a",)), FinSetObj(("x",)), 5)


def set_of_a_list():
    FinSetObj(["a"])


def set_of_a_string():
    # "ab" is hashable and iterable, but not the set ("a", "b")
    FinSetObj("ab")


def function_with_a_list_mapping():
    FinFunction(FinSetObj(("a",)), FinSetObj(("x",)), [("a", "x")])


def function_with_a_list_pair():
    FinFunction(FinSetObj(("a",)), FinSetObj(("x",)), (["a", "x"],))


def function_of_a_list():
    FinFunction.of(FinSetObj(("a",)), FinSetObj(("x",)), ["x"])


def quotient_by_a_pair_with_an_unhashable_label():
    quotient(FinSetObj(("a",)), [(["a"], "a")])


def quotient_by_a_pair_that_is_no_pair():
    quotient(FinSetObj(("x",)), [("x",)])


def blocks(*blocks):
    list(SliceCategory(FinSetObj(("a", "b")), 2).objects_constant_on(blocks))


def block_with_a_point_off_the_base():
    blocks(["a", "z"])


def empty_block():
    blocks([])


def overlapping_blocks():
    blocks(["a", "b"], ["b"])


@pytest.mark.parametrize("bad, error, match", [
    (rho_of_wrong_type, CategoryError, "wrong type"),
    (non_composable_descent_morphisms, CategoryError, "non-composable"),
    (comparison_over_incoherent_diagram, CategoryError, "incoherent"),
    (descend_invalid_datum, CategoryError, "invalid descent datum"),
    (classify_a_mapping_that_is_no_finfunction, FinSetError,
     r"p must be a FinFunction, not \{'a': 'x'\}"),
    (benabou_roubaud_of_a_tuple, FinSetError, r"p must be a FinFunction, not \('a', 'x'\)"),
    (descend_a_carrier_that_is_no_datum, CategoryError, "descend takes a DescentDatum, not "),
    (non_composable_algebra_morphisms, CategoryError, "non-composable"),
    (non_commuting_bc_square, CategoryError, "does not commute"),
    (call_outside_domain, FinSetError, "not in the domain"),
    (call_on_an_unhashable_label, FinSetError, r"\['a'\] is not in the domain"),
    (values_of_an_unhashable_label, FinSetError, "unhashable label is not in the domain"),
    (identity_of_unknown_object, CategoryError, "missing identity for object '2'"),
    (unknown_table_morphism, CategoryError, "unknown morphism 'm10'"),
    (table_functor_missing_a_morphism, CategoryError,
     "functor 'F' has no image for morphism 'm11'"),
    (table_functor_missing_an_object, CategoryError,
     "functor 'F' has no image for object '1'"),
    (pseudopullback_square_with_non_invertible_filler, CategoryError,
     "malformed square: .*not invertible"),
    (classify_at_a_negative_bound, CategoryError, "negative enumeration bound -1"),
    (benabou_roubaud_at_a_negative_bound, CategoryError, "negative enumeration bound -1"),
    (validate_coherence_at_a_negative_bound, CategoryError, "negative enumeration bound -1"),
    (classify_with_a_predicate_that_is_no_callable, CategoryError,
     "carrier_pred must be callable, not 'x'"),
    (desc_category_of_no_diagram, CategoryError, "expected a BasicFibration, not 'fib'"),
    (validate_coherence_of_no_diagram, CategoryError, "expected a BasicFibration, not 'x'"),
    (descend_over_no_diagram, CategoryError, "expected a BasicFibration, not 'fib'"),
    (comparison_of_no_desc_category, CategoryError, "comparison takes a DescCategory, not 'x'"),
    (classify_at_no_bound, CategoryError, "bound must be an integer, not None"),
    (classify_at_a_fractional_bound, CategoryError, "bound must be an integer, not 2.5"),
    (classify_at_a_string_bound, CategoryError, "bound must be an integer, not '2'"),
    (objects_at_a_float_bound_after_its_integer, CategoryError,
     "bound must be an integer, not 2.0"),
    (generators_at_a_float_bound_after_its_integer, CategoryError,
     "bound must be an integer, not 2.0"),
    (set_with_an_unhashable_label, FinSetError, "must be hashable"),
    (function_with_a_malformed_pair, FinSetError, r"\(element, image\) pairs"),
    (function_of_a_number, FinSetError, "a mapping or a callable, not 5"),
    (set_of_a_list, FinSetError, r"must be a tuple of labels, not \['a'\]"),
    (set_of_a_string, FinSetError, "must be a tuple of labels, not 'ab'"),
    (function_with_a_list_mapping, FinSetError, r"must be a tuple of \(element, image\) tuples"),
    (function_with_a_list_pair, FinSetError, r"must be a tuple of \(element, image\) tuples"),
    (function_of_a_list, FinSetError, r"a mapping or a callable, not \['x'\]"),
    (quotient_by_a_pair_with_an_unhashable_label, FinSetError,
     r"pair \(\['a'\],'a'\) not drawn from"),
    (quotient_by_a_pair_that_is_no_pair, FinSetError, r"\('x',\) is not a pair"),
    (block_with_a_point_off_the_base, FinSetError, "not drawn from the base"),
    (empty_block, FinSetError, "disjoint and nonempty"),
    (overlapping_blocks, FinSetError, "disjoint and nonempty"),
], ids=lambda case: getattr(case, "__name__", None))
def test_bad_input_raises_a_typed_error(bad, error, match):
    with pytest.raises(error, match=match):
        bad()


def test_an_unhashable_label_lies_in_no_set():
    carrier = FinSetObj(("a",))
    assert ["a"] not in carrier and not carrier.includes([["a"]])


# the 19 maps m -> n, m <= 3, 1 <= n <= 2; maps with one E and one kernel
# pair but different bases share every level above c0
MAPS = [p for m in range(4) for n in (1, 2)
        for p in all_functions(FinSetObj(tuple(f"e{i}" for i in range(m))),
                               FinSetObj(tuple(f"b{i}" for i in range(n))))]
CELLS = ("sigma01", "sigma02", "sigma12", "n0", "n1", "theta")


def _outcome(call):
    """What call returns, or the typed error it raises; any other
    exception escapes and fails the test."""
    try:
        return call()
    except (FinSetError, CategoryError) as exc:
        return exc


def _shifted(cell, objs):
    """cell with each component moved to the next object of objs: a
    component with the wrong source wherever neighbours differ."""
    step = {x: objs[(i + 1) % len(objs)] for i, x in enumerate(objs)}
    return NatTrans(cell.source, cell.target, lambda x: cell.at(step.get(x, x)))


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(p=st.sampled_from(MAPS), q=st.sampled_from(MAPS), data=st.data())
def test_wrong_contents_raise_or_fail_and_never_answer_wrong(is_triangle, p, q, data):
    """The public constructors and decisions, given well-typed values with
    wrong contents, raise ``FinSetError`` or ``CategoryError`` or give a
    failing report; whatever they return is checked against the test's
    own answer."""
    fp, fq = basic_fibration(p, 2), basic_fibration(q, 2)

    # a triangle between any two objects over B or E, of p or of q
    objs = fp.c0.objects() + fp.c1.objects() + fq.c1.objects()
    x, y = data.draw(st.sampled_from(objs)), data.draw(st.sampled_from(objs))
    fns = list(all_functions(x.dom, y.dom))
    if fns:
        f = data.draw(st.sampled_from(fns))
        m = _outcome(lambda: SliceMor(x, y, f))
        assert isinstance(m, SliceMor if is_triangle(x, y, f) else CategoryError), (x, y, f)
        if isinstance(m, SliceMor):
            bijective = len(x.dom) == len(y.dom) == len(set(f.values(x.dom.elements)))
            for cat in (fp.c0, fp.c1):
                decided = _outcome(lambda: cat.is_isomorphism(m))
                assert decided == bijective if cat.base == x.cod else (
                    isinstance(decided, CategoryError)), (cat.base, m)

    # a map into the wrong base: an object over B where one over E belongs
    over_b = data.draw(st.sampled_from(fp.c0.objects()))
    assert isinstance(_outcome(lambda: fp.d0.obj(over_b)), FinSetError)
    assert isinstance(_outcome(lambda: ChangeOfBase(p, fp.c1, fp.c0)), CategoryError)

    # a datum of q handed to the decisions of p: refused, unless p and q
    # share E and its kernel pair, when the answers are q's own
    dq = DescCategory(fq)
    datum = data.draw(st.sampled_from(dq.objects()))
    dp = DescCategory(fp)
    shared = fp.c1.base == fq.c1.base and fp.c2.base == fq.c2.base
    ok = _outcome(lambda: is_descent_datum(fp, datum.w, datum.rho))
    glued = _outcome(lambda: descend(fp, datum))
    homs = _outcome(lambda: len(dp.hom(datum, datum)))
    if shared:
        assert ok == (True, None)
        assert glued.glued.cod == p.cod and glued.iso.dst == datum
        assert glued.iso.m.fn.is_bijective()
        assert homs == len(dq.hom(datum, datum))
    else:
        assert all(isinstance(out, (FinSetError, CategoryError)) for out in (ok, glued, homs))

    # a cell with the wrong source: another cell of p, the same cell of q,
    # or the cell with its components shifted; the gate reports, raising
    # nothing, and passes only where the cell in place has the components
    # of the one it replaced
    name = data.draw(st.sampled_from(CELLS))
    src_f = next(src for cell, _, src, _ in fp.constraint_types() if cell == name)
    objs = src_f.src.objects()
    good = getattr(fp, name)
    cell = data.draw(st.sampled_from(
        [getattr(fp, other) for other in CELLS if other != name]
        + [getattr(fq, name), _shifted(good, objs)]))
    report = validate_coherence(fp._replace(**{name: cell}))
    assert isinstance(report, CoherenceReport)
    if report.is_empty():
        assert all(cell.at(x) == good.at(x) for x in objs), (name, p, q)
