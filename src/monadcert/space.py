"""Products of projective spaces: Picard lattice, degrees, slopes.

The ambient variety is X = P^{n_1} x ... x P^{n_l}.  Divisor classes and line
bundle labels are integer vectors of length l ("multidegrees"), one entry per
factor.  All arithmetic is exact: big integers for degrees, fractions for
slopes.  Nothing here ever touches a float.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

MultiDegree = tuple[int, ...]


def vadd(a: Sequence[int], b: Sequence[int]) -> MultiDegree:
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    return tuple(x + y for x, y in zip(a, b))


def vsub(a: Sequence[int], b: Sequence[int]) -> MultiDegree:
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    return tuple(x - y for x, y in zip(a, b))


def vneg(a: Sequence[int]) -> MultiDegree:
    return tuple(-x for x in a)


def vscale(c: int, a: Sequence[int]) -> MultiDegree:
    return tuple(c * x for x in a)


@dataclass(frozen=True)
class ProductSpace:
    """X = prod P^{n_i} with an explicit partition of the factors into named groups.

    The grouping feeds the twist-constraint machinery: some certificates bound
    twists group by group, others in total.  Default is one group per factor.
    """

    factors: tuple[int, ...]
    groups: tuple[tuple[str, tuple[int, ...]], ...]

    def __init__(self, factors: Iterable[int], groups=None):
        factors = tuple(int(n) for n in factors)
        if not factors:
            raise ValueError("a product space needs at least one factor")
        if any(n < 1 for n in factors):
            raise ValueError(f"factor dimensions must be >= 1, got {factors}")
        if groups is None:
            groups = tuple((f"f{i}", (i,)) for i in range(len(factors)))
        else:
            groups = tuple((name, tuple(idx)) for name, idx in groups)
            seen: list[int] = []
            for name, idx in groups:
                if not name:
                    raise ValueError("group names must be nonempty")
                if not idx:
                    # its sum is always 0, so no twist has every group sum < 0
                    raise ValueError(f"group {name!r} has no factor indices")
                seen.extend(idx)
            if sorted(seen) != list(range(len(factors))):
                raise ValueError(
                    f"groups {groups} do not partition factor indices 0..{len(factors) - 1}"
                )
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "groups", groups)

    @property
    def picard_rank(self) -> int:
        return len(self.factors)

    @property
    def dim(self) -> int:
        return sum(self.factors)

    def check_degree(self, d: Sequence[int]) -> MultiDegree:
        d = tuple(int(x) for x in d)
        if len(d) != self.picard_rank:
            raise ValueError(
                f"multidegree {d} has length {len(d)}, expected {self.picard_rank}"
            )
        return d

    def group_sums(self, d: Sequence[int]) -> tuple[tuple[str, int], ...]:
        """Per-group component sums of a multidegree, in group order."""
        d = self.check_degree(d)
        return tuple((name, sum(d[i] for i in idx)) for name, idx in self.groups)

    def __str__(self) -> str:
        return " x ".join(f"P^{n}" for n in self.factors)


def dimension_blocks(factors: Sequence[int]) -> tuple[tuple[str, tuple[int, ...]], ...]:
    """Group factor indices by equal dimension, named P1, P3, ... in ascending order."""
    by_dim: dict[int, list[int]] = {}
    for i, n in enumerate(factors):
        by_dim.setdefault(n, []).append(i)
    return tuple((f"P{n}", tuple(by_dim[n])) for n in sorted(by_dim))


def check_polarization(X: ProductSpace, L: Sequence[int]) -> MultiDegree:
    """Validate an ample class: every component >= 1."""
    L = X.check_degree(L)
    if any(c < 1 for c in L):
        raise ValueError(f"polarization {L} is not ample (component < 1)")
    return L


def degree(X: ProductSpace, L: Sequence[int], c1: Sequence[int]) -> int:
    """Degree of a class with respect to a polarization: c1 . L^(dim-1).

    Closed form of oracles.intersection_number(X, [c1] + [L] * (dim - 1)):
    only h_i * prod_j h_j^(n_j - delta_ij) reaches the point class, so
    deg = sum_i c1_i * multinomial(dim - 1; n - e_i) * prod_j L_j^(n_j - delta_ij).
    """
    L = check_polarization(X, L)
    c1 = X.check_degree(c1)
    total = 0
    for i, ci in enumerate(c1):
        if ci == 0:
            continue
        multinomial = math.factorial(X.dim - 1)
        power = 1
        for j, (n, lj) in enumerate(zip(X.factors, L)):
            e = n - 1 if j == i else n
            multinomial //= math.factorial(e)
            power *= lj**e
        total += ci * multinomial * power
    return total


def slope(deg: int, rank: int) -> Fraction:
    """deg/rank in lowest terms."""
    if rank < 1:
        raise ValueError(f"rank must be >= 1, got {rank}")
    return Fraction(deg, rank)


def normalizing_twist(X: ProductSpace, L: Sequence[int], deg: int, rank: int) -> int:
    """k_E = ceil(deg / (rank * d)) for a class of degree `deg` and rank `rank`.

    d is the degree of (1,0,...,0).  Twisting by -k_E * (1,0,...,0) moves
    the degree to deg - rank*k_E*d, which is checked to lie in the window
    1 - d*rank <= deg <= 0.
    """
    if rank < 1:
        raise ValueError(f"rank must be >= 1, got {rank}")
    e1 = (1,) + (0,) * (X.picard_rank - 1)
    d = degree(X, L, e1)
    if d <= 0:
        raise ValueError(f"degree of {e1} under {L} is {d}, expected positive")
    k_e = math.ceil(slope(deg, rank) / d)
    # degree is linear in c1; the window check guards the ceiling convention
    nd = deg - rank * k_e * d
    if not (1 - d * rank <= nd <= 0):
        raise AssertionError(f"normalized degree {nd} outside window, k_E={k_e}")
    return k_e


def normalize(
    X: ProductSpace, L: Sequence[int], c1: Sequence[int], rank: int
) -> tuple[int, MultiDegree]:
    """Normalizing twist along the first factor.

    Returns (k_E, c1 - rank*k_E*(1,0,...,0)) with k_E = ceil(slope / d) and
    d the degree of (1,0,...,0).  The twisted class has degree in the window
    1 - d*rank <= deg <= 0.
    """
    k_e = normalizing_twist(X, L, degree(X, L, c1), rank)
    e1 = (1,) + (0,) * (X.picard_rank - 1)
    return k_e, vsub(X.check_degree(c1), vscale(rank * k_e, e1))
