"""Bad input gets a typed library error: CategoryError or FinSetError, both
ValueErrors, never a bare ValueError or a stray KeyError."""

import dataclasses

import pytest

from descent_kit.cosimplicial import basic_fibration
from descent_kit.descent import (DescCategory, DescentDatum, comparison, descend,
                                 is_descent_datum)
from descent_kit.fincat import CategoryError
from descent_kit.finset import FinFunction, FinSetError, FinSetObj
from descent_kit.monadic import EMCategory, induced_monad, pullback_square_bc
from descent_kit.mutations import invert_theta
from descent_kit.slices import sigma_pullback_adjunction, slice_isos


def fn(dom, cod, mapping):
    return FinFunction.of(FinSetObj(tuple(dom)), FinSetObj(tuple(cod)), mapping)


def fibration():
    return basic_fibration(fn("ab", "*", lambda _: "*"), 2)


def rho_of_wrong_type():
    fib = fibration()
    w = fib.c1.objects()[1]
    is_descent_datum(fib, w, fib.c2.identity(fib.d0.obj(w)))


def non_composable_descent_morphisms():
    desc = DescCategory(fibration(), 2)
    x, y = desc.objects()[:2]
    desc.compose(desc.identity(x), desc.identity(y))


def comparison_without_augmentation():
    comparison(dataclasses.replace(fibration(), c0=None), 2)


def comparison_over_incoherent_diagram():
    comparison(invert_theta(fibration()), 2)


def descend_invalid_datum():
    # over a point, swapping a two-element carrier breaks the identity equation
    fib = basic_fibration(FinFunction.identity(FinSetObj(("x",))), 2)
    w, rho = next((w, rho) for w in fib.c1.objects()
                  for rho in slice_isos(fib.d1.obj(w), fib.d0.obj(w))
                  if not is_descent_datum(fib, w, rho)[0])
    descend(fib, DescentDatum(w, rho))


def non_composable_algebra_morphisms():
    fib = fibration()
    adj = sigma_pullback_adjunction(fib.p, fib.c1, fib.c0)
    em = EMCategory(induced_monad(adj, 2), 2)
    x, y = em.objects()[:2]
    em.compose(em.identity(x), em.identity(y))


def non_commuting_bc_square():
    p1 = fn("ab", "xy", {"a": "x", "b": "y"})
    q = FinFunction.identity(p1.dom)
    swap = fn("ab", "ab", {"a": "b", "b": "a"})
    pullback_square_bc(p1, p1, q, swap, 1)


def call_outside_domain():
    FinFunction.identity(FinSetObj(("a",)))("z")


@pytest.mark.parametrize("bad, error, match", [
    (rho_of_wrong_type, CategoryError, "wrong type"),
    (non_composable_descent_morphisms, CategoryError, "non-composable"),
    (comparison_without_augmentation, CategoryError, "augmented"),
    (comparison_over_incoherent_diagram, CategoryError, "incoherent"),
    (descend_invalid_datum, CategoryError, "invalid descent datum"),
    (non_composable_algebra_morphisms, CategoryError, "non-composable"),
    (non_commuting_bc_square, CategoryError, "does not commute"),
    (call_outside_domain, FinSetError, "not in the domain"),
], ids=lambda case: getattr(case, "__name__", None))
def test_bad_input_raises_a_typed_error(bad, error, match):
    with pytest.raises(error, match=match):
        bad()
