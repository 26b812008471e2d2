"""Line bundle cohomology against monomial counting and subset enumeration.

oracles.count_monomials enumerates degree-d monomials in n+1 variables one
by one, so it shares no code with the binomial formulas under test.
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monadcert.cohomology import (
    LineBundleSum,
    exterior_power,
    h_line,
    h_pn,
    h_sum,
)
from monadcert.oracles import check_bott, check_serre_kunneth
from monadcert.space import ProductSpace


def test_h_pn_matches_monomial_count():
    check_bott(n_max=4, d_max=10)


def test_h_pn_rejects_bad_input():
    with pytest.raises(ValueError):
        h_pn(0, 1, 0)
    with pytest.raises(ValueError):
        h_pn(2, 1, -1)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 6), d=st.integers(-15, 15), i=st.integers(0, 6))
def test_h_pn_serre_duality(n, d, i):
    if i <= n:
        assert h_pn(n, d, i) == h_pn(n, -d - n - 1, n - i)
    else:
        assert h_pn(n, d, i) == 0


def test_h_line_frozen_values():
    x = ProductSpace((1, 3))
    assert h_line(x, (0, 0), 0) == 1
    assert h_line(x, (1, 1), 0) == 8  # 2 * 4
    # top cohomology needs both factors at their own top degree
    assert h_line(x, (-2, -4), 4) == 1
    assert h_line(x, (-2, -4), 3) == 0
    assert h_line(x, (-2, -2), 1) == 0  # P^3 factor has no cohomology at -2
    cube = ProductSpace((1, 1, 1))
    assert h_line(cube, (-2, -2, -2), 3) == 1  # canonical bundle


def test_h_line_kunneth_product_law():
    # summing h^p over all p must factor through the product of the factors
    check_serre_kunneth(seed=11, draws=300, n_max=4, d_max=8, factor_max=4, deg_max=8)


def test_line_bundle_sum_canonical_form():
    g = LineBundleSum([((1, 1), 1), ((0, 0), 2), ((1, 1), 2)])
    assert g.summands == (((0, 0), 2), ((1, 1), 3))
    assert g.rank == 5
    assert g.degrees() == [(0, 0), (0, 0), (1, 1), (1, 1), (1, 1)]
    assert g.c1() == (3, 3)
    assert str(g) == "O(0,0)^2 + O(1,1)^3"
    assert str(LineBundleSum([((-1, -1), 1)])) == "O(-1,-1)"


def test_line_bundle_sum_rejects_bad_input():
    with pytest.raises(ValueError):
        LineBundleSum([((1, 1), 0)])
    with pytest.raises(ValueError):
        LineBundleSum([((1, 1), 1), ((1,), 1)])


def test_line_bundle_sum_twist_dual():
    g = LineBundleSum([((1, -2), 1), ((0, 0), 2)])
    assert g.twist((1, 1)).summands == (((1, 1), 2), ((2, -1), 1))
    assert g.dual().summands == (((-1, 2), 1), ((0, 0), 2))
    assert g.dual().dual() == g


def test_empty_sum():
    e = LineBundleSum([])
    assert e.rank == 0
    assert str(e) == "0"
    assert e.c1(3) == (0, 0, 0)
    with pytest.raises(ValueError):
        e.c1()


def test_h_sum_weights_multiplicities():
    x = ProductSpace((1,))
    g = LineBundleSum([((1,), 2)])
    assert h_sum(x, g, 0) == 4
    assert h_sum(x, g, 1) == 0


def test_exterior_power_frozen():
    g = LineBundleSum([((2,), 3)])
    assert exterior_power(g, 2) == LineBundleSum([((4,), 3)])
    assert exterior_power(g, 0) == LineBundleSum([((0,), 1)])
    assert exterior_power(g, 3) == LineBundleSum([((6,), 1)])
    assert exterior_power(g, 4).rank == 0
    with pytest.raises(ValueError):
        exterior_power(g, -1)


def brute_exterior(g, q):
    degs = g.degrees()
    l = len(degs[0])
    pairs = {}
    for subset in itertools.combinations(range(len(degs)), q):
        t = tuple(sum(degs[i][j] for i in subset) for j in range(l))
        pairs[t] = pairs.get(t, 0) + 1
    return LineBundleSum(list(pairs.items()))


def test_exterior_power_matches_subset_enumeration():
    rng = random.Random(5)
    for _ in range(60):
        l = rng.randint(1, 2)
        n_summands = rng.randint(1, 3)
        g = LineBundleSum(
            [
                (tuple(rng.randint(-2, 2) for _ in range(l)), rng.randint(1, 3))
                for _ in range(n_summands)
            ]
        )
        for q in range(1, g.rank + 1):
            assert exterior_power(g, q) == brute_exterior(g, q)


def test_exterior_power_rank_is_binomial():
    import math

    g = LineBundleSum([((0, 0), 5), ((1, -1), 3)])
    for q in range(0, 9):
        assert exterior_power(g, q).rank == math.comb(8, q)
