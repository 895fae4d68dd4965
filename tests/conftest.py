import pytest


def _associative_by_sweep(products):
    """Reference for ``assoc``: the cubic sweep of (a x b) x c = a x (b x c).

    ``products`` is a fusion table's integer rows; every one of the n^3
    triples is compared as a multiset, and the first failure ends the sweep.
    """
    n = len(products)
    for ia in range(n):
        for ib in range(n):
            for ic in range(n):
                left = {}
                for t in products[ia][ib]:
                    for c in products[t][ic]:
                        left[c] = left.get(c, 0) + 1
                right = {}
                for t in products[ib][ic]:
                    for c in products[ia][t]:
                        right[c] = right.get(c, 0) + 1
                if left != right:
                    return False
    return True


@pytest.fixture
def associative_by_sweep():
    return _associative_by_sweep
