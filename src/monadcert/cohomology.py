"""Exact cohomology of direct sums of line bundles on a product of projective spaces.

Single-factor dimensions come from the classical formula on P^n; product
spaces combine factors by the Kunneth sum over compositions of the total
cohomological degree.  Everything returns exact big integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .space import MultiDegree, ProductSpace, vadd, vneg, vscale


def _factor_table(n: int, d: int) -> dict[int, int]:
    """The nonzero dimensions i -> dim H^i(P^n, O(d)), in at most one degree.

    h^0 counts degree-d monomials in n+1 variables; h^n is its dual count at
    degree -d-n-1; everything strictly between vanishes.
    """
    if d >= 0:
        return {0: math.comb(n + d, n)}
    if d <= -n - 1:
        return {n: math.comb(-d - 1, n)}
    return {}


def h_pn(n: int, d: int, i: int) -> int:
    """dim H^i(P^n, O(d))."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if i < 0:
        raise ValueError(f"i must be >= 0, got {i}")
    return _factor_table(n, d).get(i, 0)


def h_line(X: ProductSpace, D: Sequence[int], p: int) -> int:
    """dim H^p(X, O(D)) by the Kunneth sum over compositions p = q_1 + ... + q_l."""
    D = X.check_degree(D)
    table: dict[int, int] = {0: 1}
    for n, d in zip(X.factors, D):
        fac = _factor_table(n, d)
        if not fac:
            return 0  # a cohomology-free factor kills every composition
        table = {
            q0 + q: v0 * v for q0, v0 in table.items() for q, v in fac.items()
        }
    return table.get(p, 0)


@dataclass(frozen=True)
class LineBundleSum:
    """Formal direct sum of line bundles, as (degree, multiplicity) pairs.

    Canonical form: degrees lexicographically sorted, duplicates merged,
    multiplicities positive.  The empty sum (rank 0) is allowed.
    """

    summands: tuple[tuple[MultiDegree, int], ...]

    def __init__(self, summands: Iterable[tuple[Sequence[int], int]]):
        merged: dict[MultiDegree, int] = {}
        length = None
        for deg, mult in summands:
            deg = tuple(int(x) for x in deg)
            mult = int(mult)
            if length is None:
                length = len(deg)
            elif len(deg) != length:
                raise ValueError(f"mixed degree lengths: {len(deg)} vs {length}")
            if mult < 1:
                raise ValueError(f"multiplicity must be >= 1, got {mult}")
            merged[deg] = merged.get(deg, 0) + mult
        object.__setattr__(
            self, "summands", tuple(sorted(merged.items()))
        )

    @property
    def rank(self) -> int:
        return sum(m for _, m in self.summands)

    def degrees(self) -> list[MultiDegree]:
        """Summand degrees expanded with multiplicity (rank entries)."""
        out: list[MultiDegree] = []
        for d, m in self.summands:
            out.extend([d] * m)
        return out

    def c1(self, length: int | None = None) -> MultiDegree:
        if not self.summands:
            if length is None:
                raise ValueError("c1 of an empty sum needs an explicit length")
            return (0,) * length
        total = (0,) * len(self.summands[0][0])
        for d, m in self.summands:
            total = vadd(total, vscale(m, d))
        return total

    def twist(self, B: Sequence[int]) -> "LineBundleSum":
        B = tuple(int(x) for x in B)
        return LineBundleSum([(vadd(d, B), m) for d, m in self.summands])

    def dual(self) -> "LineBundleSum":
        return LineBundleSum([(vneg(d), m) for d, m in self.summands])

    def __str__(self) -> str:
        if not self.summands:
            return "0"
        parts = []
        for d, m in self.summands:
            label = "O(" + ",".join(str(x) for x in d) + ")"
            parts.append(label if m == 1 else f"{label}^{m}")
        return " + ".join(parts)


def h_sum(X: ProductSpace, G: LineBundleSum, p: int) -> int:
    """dim H^p of a direct sum: multiplicity-weighted sum of line-bundle values."""
    return sum(m * h_line(X, d, p) for d, m in G.summands)


def exterior_power(G: LineBundleSum, q: int) -> LineBundleSum:
    """Exterior power of a sum of line bundles.

    A q-element multisubset choosing e_i copies from the i-th summand
    contributes O(sum e_i d_i) with multiplicity prod C(m_i, e_i).
    q > rank gives the empty sum.
    """
    if q < 0:
        raise ValueError(f"q must be >= 0, got {q}")
    if not G.summands:
        if q == 0:
            raise ValueError("exterior power of an empty sum has no degree length")
        return LineBundleSum([])
    length = len(G.summands[0][0])
    zero = (0,) * length
    # states: (number chosen, accumulated degree) -> count of subsets
    states: dict[tuple[int, MultiDegree], int] = {(0, zero): 1}
    for d, m in G.summands:
        nxt: dict[tuple[int, MultiDegree], int] = {}
        for (c, acc), cnt in states.items():
            for e in range(0, min(m, q - c) + 1):
                key = (c + e, vadd(acc, vscale(e, d)))
                nxt[key] = nxt.get(key, 0) + cnt * math.comb(m, e)
        states = nxt
    pairs = [(acc, cnt) for (c, acc), cnt in states.items() if c == q and cnt]
    return LineBundleSum(pairs)
