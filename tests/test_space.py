"""Intersection arithmetic on products of projective spaces.

The closed-form degree is checked against oracles.intersection_number,
which is in turn checked against brute_intersection: it expands the
product of linear divisor classes by distributing one Picard generator to
every class and summing over all distinct distributions.  Slow but
obviously correct, and independent of the truncated-ring expansion.
"""

import itertools
import random
from fractions import Fraction

import pytest

from monadcert.oracles import intersection_number
from monadcert.space import (
    ProductSpace,
    check_polarization,
    degree,
    dimension_blocks,
    normalize,
    slope,
    vadd,
    vneg,
    vscale,
    vsub,
)


def brute_intersection(factors, classes):
    # The point class needs h_i exactly n_i times; enumerate which class
    # contributes which generator and multiply the matching coefficients.
    slots = []
    for i, n in enumerate(factors):
        slots.extend([i] * n)
    total = 0
    for perm in set(itertools.permutations(slots)):
        term = 1
        for cls, i in zip(classes, perm):
            term *= cls[i]
        total += term
    return total


def test_vector_helpers():
    assert vadd((1, 2), (3, -1)) == (4, 1)
    assert vsub((1, 2), (3, -1)) == (-2, 3)
    assert vneg((1, -2)) == (-1, 2)
    assert vscale(3, (1, -2)) == (3, -6)
    with pytest.raises(ValueError):
        vadd((1,), (1, 2))
    with pytest.raises(ValueError):
        vsub((1,), (1, 2))


def test_space_basics():
    x = ProductSpace((1, 3))
    assert x.picard_rank == 2
    assert x.dim == 4
    assert str(x) == "P^1 x P^3"
    assert x.groups == (("f0", (0,)), ("f1", (1,)))
    assert x.check_degree([2, -1]) == (2, -1)
    with pytest.raises(ValueError):
        x.check_degree((1, 2, 3))


def test_space_rejects_bad_factors():
    with pytest.raises(ValueError):
        ProductSpace(())
    with pytest.raises(ValueError):
        ProductSpace((1, 0))
    with pytest.raises(ValueError):
        ProductSpace((-2,))


def test_custom_groups():
    x = ProductSpace((1, 1, 3), groups=(("lines", (0, 1)), ("big", (2,))))
    assert x.group_sums((2, 3, -1)) == (("lines", 5), ("big", -1))
    # groups must partition the factor indices exactly
    with pytest.raises(ValueError):
        ProductSpace((1, 1), groups=(("a", (0,)),))
    with pytest.raises(ValueError):
        ProductSpace((1, 1), groups=(("a", (0, 0, 1)),))
    with pytest.raises(ValueError):
        ProductSpace((1, 1), groups=(("", (0, 1)),))
    # an empty group's sum is always 0, which would leave no twist in the family
    with pytest.raises(ValueError, match="group 'h' has no factor indices"):
        ProductSpace((1, 1), groups=(("g", (0, 1)), ("h", ())))


def test_dimension_blocks():
    assert dimension_blocks((1, 3)) == (("P1", (0,)), ("P3", (1,)))
    assert dimension_blocks((3, 1, 1)) == (("P1", (1, 2)), ("P3", (0,)))
    assert dimension_blocks((5,)) == (("P5", (0,)),)


def test_polarization_check():
    x = ProductSpace((1, 1))
    assert check_polarization(x, (2, 1)) == (2, 1)
    with pytest.raises(ValueError):
        check_polarization(x, (1, 0))
    with pytest.raises(ValueError):
        check_polarization(x, (1, -1))


def test_intersection_frozen_values():
    x = ProductSpace((1, 1))
    assert intersection_number(x, [(1, 1), (1, 1)]) == 2
    assert intersection_number(x, [(-4, -4), (1, 1)]) == -8
    y = ProductSpace((1, 3))
    # L^4 on P^1 x P^3 is the multinomial 4!/(1! 3!)
    assert intersection_number(y, [(1, 1)] * 4) == 4
    assert intersection_number(y, [(0, 1)] * 4) == 0


def test_intersection_wrong_count():
    y = ProductSpace((1, 3))
    with pytest.raises(ValueError):
        intersection_number(y, [(1, 1)] * 3)


def test_intersection_matches_bruteforce():
    rng = random.Random(2026)
    cases = 0
    while cases < 120:
        l = rng.randint(1, 3)
        factors = tuple(rng.randint(1, 3) for _ in range(l))
        if sum(factors) > 6:
            continue
        x = ProductSpace(factors)
        classes = [tuple(rng.randint(-3, 3) for _ in range(l)) for _ in range(x.dim)]
        assert intersection_number(x, classes) == brute_intersection(factors, classes)
        cases += 1


def test_degree_frozen_values():
    assert degree(ProductSpace((1, 3)), (1, 1), (-1, -1)) == -4
    assert degree(ProductSpace((1, 1)), (1, 1), (-4, -4)) == -8
    x6 = ProductSpace((1,) * 6)
    assert degree(x6, (1,) * 6, (1,) * 6) == 6 * 120  # 6 * 5!


def test_degree_matches_intersection_number():
    # the closed form against the general truncated-ring expansion
    rng = random.Random(1984)
    for _ in range(300):
        l = rng.randint(1, 4)
        x = ProductSpace(tuple(rng.randint(1, 4) for _ in range(l)))
        L = tuple(rng.randint(1, 4) for _ in range(l))
        c1 = tuple(rng.randint(-6, 6) for _ in range(l))
        assert degree(x, L, c1) == intersection_number(x, [c1] + [L] * (x.dim - 1))


def test_slope():
    assert slope(-8, 3) == Fraction(-8, 3)
    assert slope(4, 2) == 2
    with pytest.raises(ValueError):
        slope(1, 0)


def test_normalize_frozen():
    x = ProductSpace((1, 3))
    assert normalize(x, (1, 1), (3, 0), 1) == (3, (0, 0))
    assert normalize(x, (1, 1), (-1, -1), 7) == (0, (-1, -1))
    assert normalize(ProductSpace((1, 1)), (1, 1), (-4, -4), 3) == (-2, (2, -4))
    # both ends of the window 1 - d*rank <= deg <= 0, reached from inside and
    # from just outside; d = 1 under (1, 1) and d = 3 under (2, 3)
    x = ProductSpace((1, 1))
    assert normalize(x, (1, 1), (0, 0), 3) == (0, (0, 0))
    assert normalize(x, (1, 1), (-2, 0), 3) == (0, (-2, 0))
    assert normalize(x, (1, 1), (1, 0), 3) == (1, (-2, 0))
    assert normalize(x, (1, 1), (-3, 0), 3) == (-1, (0, 0))
    assert normalize(x, (2, 3), (0, 0), 2) == (0, (0, 0))
    assert normalize(x, (2, 3), (-1, -1), 2) == (0, (-1, -1))
    assert normalize(x, (2, 3), (0, 1), 2) == (1, (-2, 1))
    assert degree(x, (2, 3), (-1, -1)) == 1 - 3 * 2
    assert degree(x, (2, 3), (-2, 1)) == -4


def test_normalize_window_unique():
    # the normalizing twist is the unique one landing in the degree window
    rng = random.Random(7)
    for _ in range(60):
        l = rng.randint(1, 3)
        factors = tuple(rng.randint(1, 2) for _ in range(l))
        x = ProductSpace(factors)
        L = tuple(rng.randint(1, 2) for _ in range(l))
        c1 = tuple(rng.randint(-6, 6) for _ in range(l))
        rank = rng.randint(1, 5)
        k_e, c_norm = normalize(x, L, c1, rank)
        e1 = (1,) + (0,) * (l - 1)
        d = degree(x, L, e1)
        hits = []
        for k in range(k_e - 12, k_e + 13):
            cand = vsub(c1, vscale(rank * k, e1))
            nd = degree(x, L, cand)
            if 1 - d * rank <= nd <= 0:
                hits.append((k, cand))
        assert hits == [(k_e, c_norm)]


def test_normalize_rejects_bad_input():
    x = ProductSpace((1, 1))
    with pytest.raises(ValueError):
        normalize(x, (0, 1), (1, 1), 2)
    with pytest.raises(ValueError):
        normalize(x, (1, 1), (1, 1), 0)
