import pytest

from descent_kit.descent import DescentDatum, canonicalize_datum, is_descent_datum
from descent_kit.slices import slice_isos


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
