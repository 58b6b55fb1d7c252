import pytest

from descent_kit.descent import (DescentDatum, DescMor, canonicalize_datum,
                                 is_descent_datum, is_descent_morphism)
from descent_kit.finset import FinSetObj, all_functions
from descent_kit.slices import (IdentityCartFunctor, SliceMor,
                                sigma_pullback_adjunction, slice_isos)


def _small_maps(e_labels=("e0", "e1", "e2"), b_labels=("b0", "b1")):
    """The 19 maps m -> n with m <= 3 and 1 <= n <= 2, on the first m of
    e_labels and the first n of b_labels, by m, then n, then in the order
    of ``all_functions``."""
    return [p for m in range(4) for n in range(1, 3)
            for p in all_functions(FinSetObj(tuple(e_labels[:m])),
                                   FinSetObj(tuple(b_labels[:n])))]


SMALL_MAPS = _small_maps()


@pytest.fixture
def small_maps():
    """The 19 maps; called with two label tuples, the same maps on those."""
    return _small_maps


def pytest_generate_tests(metafunc):
    """A test that takes ``small_map`` runs once on each of the 19 maps."""
    if "small_map" in metafunc.fixturenames:
        metafunc.parametrize("small_map", SMALL_MAPS, ids=repr)


def _raw_descent_data(fib, bound):
    """Every descent datum with level-1 carrier within bound, one per
    (w, rho): conjugate relabellings are all kept, unlike
    ``enumerate_descent_data``."""
    return [DescentDatum(w, rho) for w in fib.c1.objects(bound)
            for rho in slice_isos(fib.d1.obj(w), fib.d0.obj(w))
            if is_descent_datum(fib, w, rho)[0]]


def _brute_descent_data(fib, bound, carrier_pred=None):
    """The reference for ``enumerate_descent_data``: of every datum
    (``_raw_descent_data``) whose carrier passes carrier_pred, the ones
    that are their own least conjugate (``canonicalize_datum``)."""
    return [d for d in _raw_descent_data(fib, bound)
            if (carrier_pred is None or carrier_pred(d.w.dom))
            and canonicalize_datum(fib, d)[0] == d]


@pytest.fixture
def raw_descent_data():
    return _raw_descent_data


@pytest.fixture
def brute_descent_data():
    return _brute_descent_data


def _two_sided_inverse(cat, f):
    """The reference for ``Category.is_isomorphism`` and
    ``find_isomorphism``: the first g in hom(cod f, dom f) whose built
    composites with f are both identities, or None."""
    return next((g for g in cat.hom(f.dst, f.src)
                 if cat.compose(g, f) == cat.identity(f.src)
                 and cat.compose(f, g) == cat.identity(f.dst)), None)


@pytest.fixture
def two_sided_inverse():
    return _two_sided_inverse


def _is_triangle(src, dst, fn):
    """The tests' own check that fn: src -> dst is a commuting triangle,
    read off the three tables: fn runs from the carrier of src into that
    of dst, both lie over one base, and dst(fn(e)) = src(e) for every e."""
    over, lands, table = dict(src.mapping), dict(dst.mapping), dict(fn.mapping)
    return (src.cod == dst.cod and tuple(table) == src.dom.elements
            and set(table.values()) <= lands.keys()
            and all(lands[table[e]] == b for e, b in over.items()))


@pytest.fixture
def is_triangle():
    return _is_triangle


def _brute_slice_hom(x, y):
    """The reference for hom-sets of a slice category: every function
    between the carriers of x and y, in the order of ``all_functions``,
    whose triangle commutes (``_is_triangle``)."""
    return [SliceMor(x, y, f) for f in all_functions(x.dom, y.dom) if _is_triangle(x, y, f)]


@pytest.fixture
def brute_slice_hom():
    return _brute_slice_hom


def _brute_desc_hom(desc, x, y):
    """The reference for hom-sets of a descent category: every triangle
    between the carriers of x and y (``_brute_slice_hom``), in its order,
    that is equivariant."""
    return [DescMor(x, y, m) for m in _brute_slice_hom(x.w, y.w)
            if is_descent_morphism(desc.diagram, x, y, m)]


@pytest.fixture
def brute_desc_hom():
    return _brute_desc_hom


def _cart_functors(fib):
    """Every functor of the basic fibration fib that tracks tops: the
    faces d, d0, d1, s0 and del0-2, the six level-3 composites, s0∘d0,
    s0∘d1, d∘d0, d∘d1, the monad T = p*Σ_p with its Σ_p, and the identity."""
    adj = sigma_pullback_adjunction(fib.d)
    faces = [fib.d, fib.d0, fib.d1, fib.s0, fib.del0, fib.del1, fib.del2]
    level3 = [face.then(face3) for face in (fib.d0, fib.d1)
              for face3 in (fib.del0, fib.del1, fib.del2)]
    return faces + level3 + [
        fib.d0.then(fib.s0), fib.d1.then(fib.s0), fib.d.then(fib.d0),
        fib.d.then(fib.d1), adj.left, adj.left.then(adj.right),
        IdentityCartFunctor(fib.c1)]


@pytest.fixture
def cart_functors():
    return _cart_functors


def _image_mismatches(fib, bound):
    """(functor name, morphism) wherever ``image`` differs from the built
    ``mor`` on a functor of ``_cart_functors``, over every generator and
    every hom member between enumerated objects of its source; and how
    many morphisms were compared."""
    bad, compared = [], 0
    for functor in _cart_functors(fib):
        cat = functor.src
        objs = cat.objects(bound)
        for m in cat.generators(bound) + [m for x in objs for y in objs
                                          for m in cat.hom(x, y)]:
            view, built = functor.image(m), functor.mor(m)
            if ((view.src, view.dst) != (built.src, built.dst)
                    or view.values(view.src.dom.elements)
                    != [y for _, y in built.fn.mapping]):
                bad.append((functor.name, m))
            compared += 1
    return bad, compared


@pytest.fixture
def image_mismatches():
    return _image_mismatches
