"""Sparse multi-homogeneous polynomials and matrices of forms, with rank tooling.

Variables live in per-factor blocks over a product of projective spaces.
Matrices carry per-row/per-column multidegree labels; nonzero entries of a
well-labeled matrix have multidegree row_label - col_label.  Rank support is
twofold, mirroring how such matrices are argued about: an exact check of
triangular witnesses (symbolic, pointwise-sound) and randomized evaluation
over a large prime field, where each point's rank is read off the matrix's
long side, evaluated vector by vector, until it reaches the short side.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from itertools import chain, compress, repeat, zip_longest
from operator import add, lshift, mul, sub
from typing import Iterable, Iterator, Mapping, Sequence

from .space import MultiDegree

Monomial = tuple[int, ...]

DEFAULT_PRIME = 2147483629  # largest prime below 2^31 - 16; fits 31-bit-safe arithmetic
DEFAULT_TRIALS = 20
MAX_TRIALS = 1000
"""Most sample points one rank check takes; every point is stored in the report."""

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_BOUND = 3317044064679887385961981
"""psi_13: the least strong pseudoprime to every base in _MR_BASES."""


@functools.lru_cache(maxsize=16)
def is_probable_prime(n: int) -> bool:
    """Miller-Rabin to the bases 2..41, deterministic for n < PRIME_BOUND.

    Cached, since a `verify` checks its one prime before the build and again
    in the rank evidence of each map.
    """
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class CoordinateRing:
    """Coordinate ring of prod P^{n_i}: one block of n_i+1 variables per factor."""

    def __init__(self, factors: Sequence[int], letters: Sequence[str] | None = None):
        self.factors = tuple(int(n) for n in factors)
        if not self.factors or any(n < 1 for n in self.factors):
            raise ValueError(f"factor dimensions must be >= 1, got {self.factors}")
        if letters is None:
            letters = tuple(f"a{i + 1}_" for i in range(len(self.factors)))
        letters = tuple(letters)
        if len(letters) != len(self.factors):
            raise ValueError("one letter prefix per factor required")
        self.letters = letters
        offsets = []
        off = 0
        for n in self.factors:
            offsets.append(off)
            off += n + 1
        self.offsets = tuple(offsets)
        self.nvars = off
        names: list[str] = []
        var_factor: list[int] = []
        for i, n in enumerate(self.factors):
            for j in range(n + 1):
                names.append(f"{letters[i]}{j}")
                var_factor.append(i)
        self.var_names = tuple(names)
        self.var_factor = tuple(var_factor)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CoordinateRing)
            and self.factors == other.factors
            and self.letters == other.letters
        )

    def __hash__(self) -> int:
        return hash((self.factors, self.letters))

    def var_index(self, factor: int, j: int) -> int:
        if not 0 <= factor < len(self.factors):
            raise ValueError(f"no factor {factor}")
        if not 0 <= j <= self.factors[factor]:
            raise ValueError(f"factor {factor} has no coordinate {j}")
        return self.offsets[factor] + j

    def unit_monomial(self, picks: Iterable[tuple[int, int]]) -> Monomial:
        """Monomial choosing one coordinate per listed (factor, index) pair."""
        exps = [0] * self.nvars
        for factor, j in picks:
            exps[self.var_index(factor, j)] += 1
        return tuple(exps)

    def variable(self, factor: int, j: int) -> "SparsePoly":
        exps = [0] * self.nvars
        exps[self.var_index(factor, j)] = 1
        return SparsePoly(self, {tuple(exps): 1})

    def zero(self) -> "SparsePoly":
        return SparsePoly(self, {})

    def one(self) -> "SparsePoly":
        return SparsePoly(self, {(0,) * self.nvars: 1})

    def multidegree(self, mono: Monomial) -> MultiDegree:
        out = []
        for i, n in enumerate(self.factors):
            off = self.offsets[i]
            out.append(sum(mono[off : off + n + 1]))
        return tuple(out)

    def monomial_str(self, mono: Monomial) -> str:
        parts = []
        for i, e in enumerate(mono):
            if e == 1:
                parts.append(self.var_names[i])
            elif e > 1:
                parts.append(f"{self.var_names[i]}^{e}")
        return "*".join(parts) if parts else "1"


def _eval_monomial(mono: Monomial, point: Sequence[int], p: int) -> int:
    v = 1
    for x, e in zip(point, mono):
        if e:
            v = v * (x if e == 1 else pow(x, e, p)) % p
    return v


class SparsePoly:
    """Polynomial as a map monomial -> nonzero integer coefficient."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: CoordinateRing, terms: Mapping[Monomial, int]):
        self.ring = ring
        self.terms = {m: c for m, c in terms.items() if c}  # never store zeros

    def is_zero(self) -> bool:
        return not self.terms

    def multidegree(self) -> MultiDegree | None:
        """Common multidegree of all monomials; None for the zero polynomial."""
        if not self.terms:
            return None
        degs = {self.ring.multidegree(m) for m in self.terms}
        if len(degs) > 1:
            raise ValueError(f"not multi-homogeneous: degrees {sorted(degs)}")
        return degs.pop()

    def _check(self, other: "SparsePoly") -> None:
        if self.ring != other.ring:
            raise ValueError("polynomials from different rings")

    def __add__(self, other: "SparsePoly") -> "SparsePoly":
        self._check(other)
        terms = dict(self.terms)
        for m, c in other.terms.items():
            terms[m] = terms.get(m, 0) + c
        return SparsePoly(self.ring, terms)

    def __neg__(self) -> "SparsePoly":
        return SparsePoly(self.ring, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "SparsePoly") -> "SparsePoly":
        return self + (-other)

    def __mul__(self, other):
        """The product by an int, or by a polynomial as the packed product of two 1 x 1 matrices."""
        if isinstance(other, int):
            return SparsePoly(self.ring, {m: c * other for m, c in self.terms.items()})
        self._check(other)
        label = [(0,) * len(self.ring.factors)]
        a, b = (MonadMatrix(self.ring, [[p]], label, label) for p in (self, other))
        return mat_mul(a, b).entries[0][0]

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "SparsePoly":
        if e < 0:
            raise ValueError("negative power")
        if len(self.terms) == 1:
            (mono, coeff), = self.terms.items()
            return SparsePoly(self.ring, {tuple(e * x for x in mono): coeff ** e})
        out = self.ring.one()
        for _ in range(e):
            out = out * self
        return out

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SparsePoly)
            and self.ring == other.ring
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.ring, tuple(sorted(self.terms.items()))))

    def eval_mod(self, point: Sequence[int], p: int) -> int:
        total = 0
        for mono, coeff in self.terms.items():
            total += coeff * _eval_monomial(mono, point, p)
        return total % p

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for mono, coeff in sorted(self.terms.items()):
            ms = self.ring.monomial_str(mono)
            if coeff == 1 and ms != "1":
                bits.append(ms)
            elif coeff == -1 and ms != "1":
                bits.append(f"-{ms}")
            elif ms == "1":
                bits.append(str(coeff))
            else:
                bits.append(f"{coeff}*{ms}")
        out = " + ".join(bits)
        return out.replace("+ -", "- ")

    __repr__ = __str__


def _int_labels(labels: Iterable[Sequence[int]], length: int) -> tuple[MultiDegree, ...]:
    """Each label as a tuple of `length` ints; equal labels are converted and checked once.

    Builders pass one degree tuple many times over, so labels are grouped by
    value before any is converted.
    """
    keys = tuple(map(tuple, labels))  # a label that is a tuple is kept as it is
    converted = {key: tuple(map(int, key)) for key in dict.fromkeys(keys)}
    for label in converted.values():
        if len(label) != length:
            raise ValueError(f"label {label} has wrong length, expected {length}")
    return tuple(map(converted.__getitem__, keys))


class MonadMatrix:
    """Matrix of forms with declared row/column multidegree labels.

    Convention: rows index the target summands, columns the source summands,
    so a nonzero entry at (r, c) should have multidegree
    row_labels[r] - col_labels[c].
    """

    def __init__(
        self,
        ring: CoordinateRing,
        entries: Sequence[Sequence[SparsePoly]],
        row_labels: Sequence[Sequence[int]],
        col_labels: Sequence[Sequence[int]],
    ):
        self.ring = ring
        self.entries = tuple(map(tuple, entries))
        l = len(ring.factors)
        self.row_labels = _int_labels(row_labels, l)
        self.col_labels = _int_labels(col_labels, l)
        if len(self.entries) != len(self.row_labels):
            raise ValueError("one label per row required")
        if not {len(self.col_labels)}.issuperset(map(len, self.entries)):
            raise ValueError("ragged rows / label count mismatch")
        for e in chain.from_iterable(self.entries):
            if e.ring is not ring and e.ring != ring:
                raise ValueError("entry from a different ring")

    @property
    def nrows(self) -> int:
        return len(self.entries)

    @property
    def ncols(self) -> int:
        return len(self.col_labels)

    def entry(self, r: int, c: int) -> SparsePoly:
        return self.entries[r][c]

    def is_zero(self) -> bool:
        return all(e.is_zero() for row in self.entries for e in row)

    def degree_mismatches(self) -> tuple[tuple[int, int, MultiDegree, MultiDegree], ...]:
        """Nonzero entries with a monomial whose multidegree is not row - col label.

        Each is reported with the multidegree of its first such monomial, so
        an inhomogeneous entry is reported whatever the order of its terms.
        Labels are a few shared values, so each distinct row - col
        difference is taken once; when there is only one and every distinct
        monomial has it, no entry is read.  The multidegrees of all distinct
        monomials are taken at once: the exponent columns of each factor's
        variables are added elementwise.
        """
        ring = self.ring
        monos = list(_monomials(self))
        columns = list(zip_longest(*monos, fillvalue=0))  # one exponent column per variable
        zero = [0] * len(monos)
        per_factor = [
            functools.reduce(lambda x, y: list(map(add, x, y)), columns[off : off + n + 1], zero)
            for off, n in zip(ring.offsets, ring.factors)
        ]
        degree_of = dict(zip(monos, zip(*per_factor)))
        distinct: dict[MultiDegree, int] = {}
        col_class = [distinct.setdefault(cl, len(distinct)) for cl in self.col_labels]
        expected_all = {tuple(map(sub, rl, cl)) for rl in set(self.row_labels) for cl in distinct}
        if len(expected_all) == 1 and expected_all.issuperset(degree_of.values()):
            return ()  # every cell expects the one degree every monomial has
        differences: dict[MultiDegree, list[MultiDegree]] = {}
        bad = []
        for r, (rl, row) in enumerate(zip(self.row_labels, self.entries)):
            expected_at = differences.get(rl)
            if expected_at is None:
                expected_at = differences[rl] = [tuple(map(sub, rl, cl)) for cl in distinct]
            for c, e in enumerate(row):
                if not e.terms:
                    continue
                expected = expected_at[col_class[c]]
                for mono in e.terms:
                    if degree_of[mono] != expected:
                        bad.append((r, c, degree_of[mono], expected))
                        break
        return tuple(bad)

    @functools.cached_property
    def degree_consistent(self) -> bool:
        """Whether `degree_mismatches` is empty, taken once per matrix.

        A matrix is not changed after it is made, so the `build` and `report`
        documents of one spec share the check.
        """
        return not self.degree_mismatches()


def _monomials(m: MonadMatrix) -> set[Monomial]:
    """The distinct monomials of the entries of `m`."""
    return set().union(*[e.terms for row in m.entries for e in row])


def mat_mul(m1: MonadMatrix, m2: MonadMatrix) -> MonadMatrix:
    """Exact symbolic product; inner dimensions and inner labels must agree.

    Each distinct monomial is packed once into an int: one field per
    variable, (2 * (high - low)).bit_length() bits wide for the greatest
    exponent high and the least low <= 0, holding the exponent minus low.
    No field of a sum of two packed monomials carries into the next, so a
    product of monomials is one addition, and since (e - low) << s ==
    (e << s) + (-low << s), packing is one shifted sum plus a constant,
    for negative and wide exponents alike.  Each row of m2 is flattened
    once, and every term of m1 in the matching column runs over it.  A
    monomial not nvars long is a ValueError.
    """
    if m1.ring != m2.ring:
        raise ValueError("matrices over different rings")
    if m1.ncols != m2.nrows:
        raise ValueError(f"inner dimension mismatch: {m1.ncols} vs {m2.nrows}")
    if m1.col_labels != m2.row_labels:
        raise ValueError("inner labels mismatch")
    ring, ncols = m1.ring, m2.ncols
    monos = _monomials(m1) | _monomials(m2)
    if not {ring.nvars}.issuperset(map(len, monos)):
        raise ValueError(f"a monomial is not {ring.nvars} exponents long")
    exponents = {0, *chain.from_iterable(monos)}
    low, high = min(exponents), max(exponents)
    width = (2 * (high - low)).bit_length()
    shifts = [i * width for i in range(ring.nvars)]
    offset, mask, low2 = sum(-low << s for s in shifts), (1 << width) - 1, 2 * low
    packed = {m: sum(map(lshift, m, shifts)) + offset for m in monos}
    # each row of m2 as one (column, packed monomial, coefficient) triple per term
    right = [
        [(c, packed[mono], coeff) for c, e in enumerate(row) for mono, coeff in e.terms.items()]
        for row in m2.entries
    ]
    out = []
    for row in m1.entries:
        cells = [{} for _ in range(ncols)]
        for entry, b_row in zip(row, right):
            for mono_a, c1 in entry.terms.items():
                k1 = packed[mono_a]
                for c, k2, c2 in b_row:
                    terms = cells[c]
                    k = k1 + k2
                    terms[k] = terms.get(k, 0) + c1 * c2
        out.append([
            SparsePoly(ring, {tuple([(k >> s & mask) + low2 for s in shifts]): c
                              for k, c in terms.items() if c})
            for terms in cells
        ])
    return MonadMatrix(ring, out, m1.row_labels, m2.col_labels)


# ---------------------------------------------------------------------------
# randomized rank evidence

def _long_side(
    m: MonadMatrix, coords: Sequence[Sequence[int]], p: int
) -> Iterator[Iterator[Sequence[int]]]:
    """The matrix at a list of points mod p, as a lazy stream of its long side.

    `coords` holds, for each variable, its coordinate at every point.  For
    each row when the matrix has more rows than columns, else for each
    column, yields the line's vector at every point, in point order.  A
    line is evaluated only when the stream reaches it, at all points at
    once, and its zero entries are not evaluated.  The nonzero exponents of
    each distinct monomial are listed once.
    """
    count = len(coords[0])
    ones, zeros = [1] * count, [0] * count
    powers: dict[Monomial, list[tuple[Sequence[int], int]]] = {}
    rows = m.entries
    lines = rows if m.nrows > m.ncols else ([row[c] for row in rows] for c in range(m.ncols))
    for line in lines:
        columns = []
        for entry in line:
            total = None
            for mono, coeff in entry.terms.items():
                factors = powers.get(mono)
                if factors is None:
                    factors = powers[mono] = [(coords[i], e) for i, e in enumerate(mono) if e]
                values = ones
                for i, (xs, e) in enumerate(factors, 1):
                    if e != 1:
                        xs = map(pow, xs, repeat(e), repeat(p))
                    values = map(mul, values, xs)
                    if i % 8 == 0:  # keep the products a few words long
                        values = [v % p for v in values]
                if total is None:
                    total = [coeff * v % p for v in values]
                else:
                    total = [(t + coeff * v) % p for t, v in zip(total, values)]
            columns.append(zeros if total is None else total)
        yield zip(*columns)


def _rank_of_streams(
    lines: Iterable[Iterable[Sequence[int]]], count: int, limit: int, p: int
) -> list[int]:
    """Rank mod p of each of `count` streams of vectors of residues in [0, p), read in lockstep.

    `lines` yields the next vector of every stream at once.  Each stream has
    an online echelon basis: each basis vector is nonzero at its pivot, its
    first nonzero place, and 0 at the pivots of the vectors found before
    it.  A new vector v is reduced by each basis vector b in the order they
    were found, v <- b[pivot] * v - v[pivot] * b, which clears every pivot
    without a modular inverse and keeps the span, and joins the basis if
    anything is left; a stream whose basis holds `limit` vectors takes no
    more.  Lines are read until every basis is that full, so with `limit` =
    min(rows, columns) a matrix of full rank at every point stops the
    stream early; one that is rank deficient at some point is read to the
    end.
    """
    bases: list[list[tuple[int, Sequence[int]]]] = [[] for _ in range(count)]
    lines = iter(lines)
    short = count if limit > 0 else 0  # the streams whose basis is not yet full
    while short:
        line = next(lines, None)
        if line is None:
            break
        for basis, v in zip(bases, line):
            if len(basis) == limit:
                continue
            for pivot, b in basis:
                f = v[pivot]
                if f:
                    c = b[pivot]
                    v = [(c * x - f * y) % p for x, y in zip(v, b)]
            if any(v):
                basis.append((next(i for i, x in enumerate(v) if x), v))
                if len(basis) == limit:
                    short -= 1
    return [len(basis) for basis in bases]


@dataclass(frozen=True)
class RankEvidence:
    max_rank_seen: int
    trials: int
    prime: int
    seed: int
    ranks: tuple[int, ...]
    points: tuple[tuple[tuple[int, ...], ...], ...]  # trial -> factor -> coords


def check_rank_parameters(prime: int, trials: int) -> None:
    """Raise ValueError unless `prime` is a prime in [2^20, PRIME_BOUND).

    Also unless `trials` lies in [1, MAX_TRIALS]; `rank_at_random_points` takes no others.
    """
    if prime >= PRIME_BOUND:
        raise ValueError(
            f"prime {prime} is not below {PRIME_BOUND}, the bound under which primality is decided"
        )
    if not is_probable_prime(prime):
        raise ValueError(f"{prime} is not prime")
    if prime < 2 ** 20:
        raise ValueError(f"prime {prime} too small, need >= 2^20")
    if not 1 <= trials <= MAX_TRIALS:
        raise ValueError(f"trials must be between 1 and {MAX_TRIALS}, got {trials}")


@functools.lru_cache(maxsize=2)
def _sample_points(
    factors: tuple[int, ...], prime: int, trials: int, seed: int
) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """`trials` points drawn from Random(seed), one coordinate tuple per factor.

    Cached, since both maps of a monad are checked at the same points.
    """
    rng = random.Random(seed)
    points = []
    for _ in range(trials):
        factor_tuples = []
        for n in factors:
            for _attempt in range(64):
                tup = tuple(map(rng.randrange, repeat(prime, n + 1)))
                if any(tup):
                    break
            else:
                raise RuntimeError("degenerate point generation")
            factor_tuples.append(tup)
        points.append(tuple(factor_tuples))
    return tuple(points)


def rank_at_random_points(
    m: MonadMatrix,
    prime: int = DEFAULT_PRIME,
    trials: int = DEFAULT_TRIALS,
    seed: int = 0,
) -> RankEvidence:
    """Max rank of the matrix evaluated at random points, exactly mod prime.

    Each factor's coordinate tuple is sampled with the all-zero tuple
    rejected, so every sample is a genuine point of the product space.
    The long side is read line by line, each line evaluated at all points
    at once, and ranked at each point as a stream that stops once the rank
    reaches the short side at every point; the rank does not depend on the
    order the vectors are taken in.  The points depend only on the factors,
    prime, trials and seed, so both maps of a monad are ranked at the same
    ones.
    """
    check_rank_parameters(prime, trials)
    points = _sample_points(m.ring.factors, prime, trials, seed)
    # each variable's coordinate at every point, the variables in ring order
    coords = [xs for factor in zip(*points) for xs in zip(*factor)]
    ranks = _rank_of_streams(_long_side(m, coords, prime), trials, min(m.nrows, m.ncols), prime)
    return RankEvidence(
        max_rank_seen=max(ranks),
        trials=trials,
        prime=prime,
        seed=seed,
        ranks=tuple(ranks),
        points=points,
    )


# ---------------------------------------------------------------------------
# triangular witnesses

@dataclass(frozen=True)
class WitnessSymbol:
    """A named monomial usable on a witness diagonal.

    Symbols come in ordered families that should have the covering property
    that at every point of the space at least one family member is nonzero
    (all coordinates of one factor, or all Segre coordinates); `common_zero`
    decides it.
    """

    name: str
    monomial: Monomial


COMMON_ZERO_STEPS = 1_000_000
"""Most monomial checks `common_zero` makes before it gives up.  Deciding
whether a monomial family has a common zero is NP-complete (on (P^1)^n the
monomial x_{a,i} x_{b,j} x_{c,h} rules out one clause of a 3-SAT formula),
so the search is bounded.  The largest built family within the build
budget, the 4096 Segre monomials of (P^1)^12, takes 4097 checks."""


class CommonZeroUndecided(Exception):
    """`common_zero` used up COMMON_ZERO_STEPS without deciding."""


def common_zero(ring: CoordinateRing, monomials: Sequence[Monomial]) -> tuple[int, ...] | None:
    """A point of the space where every monomial vanishes, or None if there is none.

    Only the points with one live coordinate per factor (set to 1, the rest
    0) need trying: at any common zero, keep one live coordinate per factor
    and zero the others, and every monomial still vanishes.  A monomial
    vanishes at such a point unless each coordinate it uses is live, so it
    is reduced to the live coordinate it needs in each factor it uses, or
    dropped when it uses two coordinates of one factor.  The search chooses
    the live coordinate factor by factor, tries only the first coordinate of
    a factor no remaining monomial constrains, and stops on a branch as soon
    as some monomial needs nothing of the factors still to choose, or as
    soon as the monomials that pin a coordinate in every factor still to
    choose pin every choice there is: then each completion makes one of
    them nonzero.  Both stops cut only branches without a common zero, so
    the first one found is the same as without them.  Returns the live
    coordinate's index in each factor.

    The worst case is exponential in the number of factors, so the search
    raises CommonZeroUndecided after COMMON_ZERO_STEPS monomial checks.
    """
    count = len(ring.factors)
    # grid[f]: the choices of a live coordinate in each of the factors f..
    grid = [math.prod(n + 1 for n in ring.factors[f:]) for f in range(count)]
    var_factor = ring.var_factor
    needs = []  # (last factor pinned, the pinned variable or None in each factor)
    for mono in monomials:
        pins: list[int | None] = [None] * count
        last = -1
        for var in compress(range(len(mono)), mono):
            last = var_factor[var]
            if pins[last] is None:
                pins[last] = var
            elif pins[last] != var:
                break
        else:
            needs.append((last, tuple(pins)))
    steps = 0

    def search(factor: int, live: tuple[int, ...], alive: list) -> tuple[int, ...] | None:
        nonlocal steps
        steps += 1 + len(alive)
        if steps > COMMON_ZERO_STEPS:
            raise CommonZeroUndecided(f"no decision within {COMMON_ZERO_STEPS} search steps")
        if not alive:
            return live + (0,) * (count - factor)
        if any(last < factor for last, _ in alive):
            return None
        if len(alive) >= grid[factor]:
            # every choice for the remaining factors is what some alive monomial pins
            tails = {pins[factor:] for _, pins in alive}
            if sum(None not in tail for tail in tails) == grid[factor]:
                return None
        constrained = any(pins[factor] is not None for _, pins in alive)
        for j in range(ring.factors[factor] + 1 if constrained else 1):
            var = ring.offsets[factor] + j
            rest = [n for n in alive if n[1][factor] in (None, var)]
            found = search(factor + 1, live + (j,), rest)
            if found is not None:
                return found
        return None

    return search(0, (), needs)


@dataclass(frozen=True)
class TriangularWitness:
    """A k x k submatrix triangular at every point of the certified locus.

    rows/cols are listed in diagonal order.  Diagonal entries are pure powers
    of `symbol`; entries below the diagonal are identically zero or pure
    powers of family symbols strictly earlier than `symbol` (the `guards`).
    At any point where the guards vanish and the symbol does not, the
    determinant is a unit times a power of the symbol, so rank >= k there.
    `strict` means no guards were needed: rank >= k wherever symbol != 0.
    """

    symbol: str
    rows: tuple[int, ...]
    cols: tuple[int, ...]
    strict: bool
    guards: tuple[str, ...]


def _is_multiple(mono: Monomial, base: Monomial) -> bool:
    """Whether mono == e * base for an integer e >= 2."""
    e = next((x // b for x, b in zip(mono, base) if b), 0)
    return e >= 2 and mono == tuple([e * b for b in base])


def triangular_witness(
    m: MonadMatrix,
    witness: TriangularWitness,
    k: int,
    symbol: WitnessSymbol,
    earlier: Mapping[str, Monomial],
) -> TriangularWitness | None:
    """`witness` if it is a guarded-triangular k x k submatrix for `symbol`, else None.

    `earlier` maps the names of the family symbols before `symbol` to their
    monomials; every guard must be one of them.  The check makes O(k^2)
    entry lookups: k distinct rows and columns in range, each diagonal entry
    a pure power c * symbol^e (c != 0, e >= 1), each entry below the
    diagonal zero or a pure power of a listed guard, and `strict` exactly
    when no guard is listed.  A constant base has no pure power.
    """
    entries = m.entries
    nrows, ncols = len(entries), len(m.col_labels)
    if k < 1 or k > nrows or k > ncols:
        raise ValueError(f"target rank {k} out of range for {nrows}x{ncols}")
    rows, cols, names = witness.rows, witness.cols, witness.guards
    base = symbol.monomial
    if (
        witness.symbol != symbol.name
        or witness.strict == bool(names)
        or len(rows) != k
        or len(cols) != k
        or len(set(rows)) != k
        or not any(base)
    ):
        return None
    guards = list(map(earlier.get, names))
    if None in guards:
        return None
    if not all(map(any, guards)):
        guards = [guard for guard in guards if any(guard)]  # a constant guards nothing
    below = ()  # the columns of the diagonal entries so far
    for r, d in zip(rows, cols):
        if not (0 <= r < nrows and 0 <= d < ncols) or d in below:
            return None
        row = entries[r]
        terms = row[d].terms
        if len(terms) != 1:
            return None
        (mono,) = terms
        if mono is not base and mono != base and not _is_multiple(mono, base):
            return None
        for c in below:
            terms = row[c].terms
            if not terms:
                continue
            if len(terms) != 1:
                return None
            (mono,) = terms
            if mono in guards:
                continue
            for guard in guards:
                if _is_multiple(mono, guard):
                    break
            else:
                return None
        below += (d,)
    return witness
