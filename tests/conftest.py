import pytest

from descent_kit.descent import DescentDatum, is_descent_datum
from descent_kit.slices import slice_isos


def _raw_descent_data(fib, bound):
    """Every descent datum with level-1 carrier within bound, one per
    (w, rho): conjugate relabellings are all kept, unlike
    ``enumerate_descent_data``."""
    return [DescentDatum(w, rho) for w in fib.c1.objects(bound)
            for rho in slice_isos(fib.d1.obj(w), fib.d0.obj(w))
            if is_descent_datum(fib, w, rho)[0]]


@pytest.fixture
def raw_descent_data():
    return _raw_descent_data
