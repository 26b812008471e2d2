"""Reference implementations, and the suites that check the program against them.

Each question has one reference, which computes by enumeration or by a
different route from the code it checks and shares no code with it:
monomials are counted one by one, copy vectors and twists are listed
exhaustively, intersection numbers expand the truncated polynomial ring,
the first violated subset sum is found in the listed exterior power, ranks
come from Gauss-Jordan on matrices evaluated entry by entry, common zeros
are sought at every point over F_2 and the first one in order among the
points with one live coordinate per factor, triangular witnesses are
searched for over the whole matrix and checked entry by entry as pure
powers, products of matrices add exponent tuples, degree mismatches are
found entry by entry, and a document's text is written by the json
module's encoder.
`selftest` runs SUITES; the tests call the same oracles and check functions
with their own seeds and ranges.  A check function raises AssertionError on
the first disagreement.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from fractions import Fraction
from functools import partial
from typing import Iterator, Sequence

from .certify import TwistMode, vanishing_all_twists
from .cli import to_jsonable
from .cohomology import LineBundleSum, exterior_power, h_line, h_pn, h_sum
from .monad import MonadSpec, build_section3, build_section4, nu, verify_monad
from .polyring import (
    DEFAULT_PRIME,
    CoordinateRing,
    Monomial,
    MonadMatrix,
    RankEvidence,
    SparsePoly,
    TriangularWitness,
    WitnessSymbol,
    common_zero,
    mat_mul,
    rank_at_random_points,
    triangular_witness,
)
from .space import MultiDegree, ProductSpace, dimension_blocks, vneg


def count_monomials(nvars: int, d: int) -> int:
    """Number of degree-d monomials in nvars variables, listed one by one."""
    if d < 0:
        return 0
    return sum(1 for _ in itertools.combinations_with_replacement(range(nvars), d))


def copy_vectors(limit: int, max_len: int | None = None) -> Iterator[tuple[int, ...]]:
    """Every copy vector (last entry positive) with prod (2i+2)^{c_i} <= limit.

    Entry i counts factors P^{2i+1}, so the product is prod (n+1) over the
    factors.  With max_len, only vectors of at most max_len entries.
    """
    stack = [((), 1)]
    while stack:
        prefix, product = stack.pop()
        if prefix:
            yield prefix
        pos = len(prefix)
        while max_len is None or pos < max_len:
            radix = 2 * pos + 2
            ext = product * radix
            if ext > limit:
                break
            vec = prefix + (0,) * (pos - len(prefix)) + (1,)
            while ext <= limit:
                stack.append((vec, ext))
                vec = vec[:-1] + (vec[-1] + 1,)
                ext *= radix
            pos += 1


def intersection_number(X: ProductSpace, classes: Sequence[Sequence[int]]) -> int:
    """Intersection number of dim(X) divisor classes.

    Expands the product of the linear forms sum_i c_i h_i in the ring
    Z[h_1..h_l] / (h_i^{n_i+1}) and returns the coefficient of the point class
    prod h_i^{n_i}.  The reference for the closed form space.degree.
    """
    if len(classes) != X.dim:
        raise ValueError(f"need exactly {X.dim} classes, got {len(classes)}")
    classes = [X.check_degree(c) for c in classes]
    l = X.picard_rank
    poly: dict[MultiDegree, int] = {(0,) * l: 1}
    for cls in classes:
        nxt: dict[MultiDegree, int] = {}
        for expo, coeff in poly.items():
            for i, ci in enumerate(cls):
                if ci == 0:
                    continue
                e = expo[i] + 1
                if e > X.factors[i]:
                    continue  # h_i^{n_i+1} = 0
                key = expo[:i] + (e,) + expo[i + 1 :]
                nxt[key] = nxt.get(key, 0) + coeff * ci
        poly = {k: v for k, v in nxt.items() if v}
    return poly.get(tuple(X.factors), 0)


def vanishing_by_enumeration(
    x: ProductSpace,
    middle: LineBundleSum,
    q: int,
    constraint: TwistMode,
    box: int = 5,
) -> tuple[bool, MultiDegree | None]:
    """Brute-force oracle: try every twist in [-box, box]^l against every q-subset.

    Exhaustive over the full family only when box covers all candidate
    twists -t_S (true for small summand degrees); used for cross-checks.
    Capped at middle rank 16 to keep subset enumeration honest but bounded.
    """
    if middle.rank > 16:
        raise ValueError("enumeration oracle capped at middle rank 16")
    if not 1 <= q <= middle.rank - 1:
        raise ValueError(f"q must lie in 1..{middle.rank - 1}, got {q}")
    l = x.picard_rank
    degs = middle.degrees()
    sums = sorted({
        tuple(sum(degs[i][j] for i in subset) for j in range(l))
        for subset in itertools.combinations(range(len(degs)), q)
    })
    if constraint is TwistMode.TOTAL_NEGATIVE:
        bounded = [range(l)]
    else:
        bounded = [idx for _, idx in x.groups]
    for b in itertools.product(range(-box, box + 1), repeat=l):
        if any(sum(b[i] for i in idx) >= 0 for idx in bounded):
            continue
        for t_s in sums:
            if all(bb + tt >= 0 for bb, tt in zip(b, t_s)):
                return False, b
    return True, None


def first_violated(
    x: ProductSpace, middle: LineBundleSum, q: int, constraint: TwistMode
) -> MultiDegree | None:
    """The lexicographically first violated subset sum t_S of q-subsets of middle, or None.

    Scans the summands of exterior_power(middle, q), which come sorted, for
    the first t_S with every constrained sum (the total, or one per group)
    >= 1.  The reference for the witnesses of the certificates' DP.
    """
    for t_s, _ in exterior_power(middle, q).summands:
        if constraint is TwistMode.TOTAL_NEGATIVE:
            sums = [sum(t_s)]
        else:
            sums = [s for _, s in x.group_sums(t_s)]
        if min(sums) >= 1:
            return t_s
    return None


def rank_by_gauss_jordan(rows: list[list[int]], p: int) -> int:
    """Rank mod p by Gauss-Jordan elimination over the rows as given.

    The reference for polyring's online echelon rank of a vector stream.
    """
    rows = [r[:] for r in rows]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    rank = 0
    col = 0
    while rank < nrows and col < ncols:
        pivot = None
        for r in range(rank, nrows):
            if rows[r][col] % p:
                pivot = r
                break
        if pivot is None:
            col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], p - 2, p)
        rows[rank] = [x * inv % p for x in rows[rank]]
        for r in range(nrows):
            if r != rank and rows[r][col] % p:
                f = rows[r][col]
                rows[r] = [(x - f * y) % p for x, y in zip(rows[r], rows[rank])]
        rank += 1
        col += 1
    return rank


def rank_evidence_by_entries(m: MonadMatrix, prime: int, trials: int, seed: int) -> RankEvidence:
    """`rank_at_random_points` recomputed entry by entry.

    Draws the points by the same rule (per factor, a coordinate tuple with
    the all-zero tuple redrawn), evaluates every entry with
    SparsePoly.eval_mod in the stored orientation and ranks it by
    Gauss-Jordan.
    """
    rng = random.Random(seed)
    ranks, points = [], []
    for _ in range(trials):
        point = []
        for n in m.ring.factors:
            coords = (0,)
            while not any(coords):
                coords = tuple(rng.randrange(prime) for _ in range(n + 1))
            point.append(coords)
        flat = [x for coords in point for x in coords]
        rows = [[e.eval_mod(flat, prime) for e in row] for row in m.entries]
        ranks.append(rank_by_gauss_jordan(rows, prime))
        points.append(tuple(point))
    return RankEvidence(
        max_rank_seen=max(ranks),
        trials=trials,
        prime=prime,
        seed=seed,
        ranks=tuple(ranks),
        points=tuple(points),
    )


def has_common_zero_by_points(ring: CoordinateRing, monomials: Sequence[Monomial]) -> bool:
    """Whether every monomial vanishes at one point, trying every point over F_2.

    A monomial's value is zero exactly when one of its coordinates is, and
    every pattern of zero coordinates that leaves one coordinate per factor
    live is a point over F_2, so this enumeration misses no common zero.
    The reference for polyring.common_zero.
    """
    per_factor = [
        [t for t in itertools.product((0, 1), repeat=n + 1) if any(t)] for n in ring.factors
    ]
    for point in itertools.product(*per_factor):
        flat = [x for t in point for x in t]
        if all(math.prod(x**e for x, e in zip(flat, mono)) == 0 for mono in monomials):
            return True
    return False


def first_common_zero_by_points(
    ring: CoordinateRing, monomials: Sequence[Monomial]
) -> tuple[int, ...] | None:
    """The first common zero with one live coordinate per factor, or None.

    Tries the points in lexicographic order of their live coordinates' indices,
    with each live coordinate 1 and the rest 0, where a monomial vanishes
    exactly when it uses a coordinate that is 0.  The reference for which
    zero polyring.common_zero returns.
    """
    used = [{var for var, e in enumerate(mono) if e} for mono in monomials]
    for live in itertools.product(*(range(n + 1) for n in ring.factors)):
        ones = {off + j for off, j in zip(ring.offsets, live)}
        if all(u - ones for u in used):
            return live
    return None


def mat_mul_by_tuples(m1: MonadMatrix, m2: MonadMatrix) -> MonadMatrix:
    """The product of two matrices of forms, adding exponent tuples term by term.

    Labels and shapes are taken as given.  The reference for polyring.mat_mul.
    """
    ring = m1.ring
    out = []
    for row in m1.entries:
        out_row = []
        for c in range(m2.ncols):
            terms: dict[Monomial, int] = {}
            for a, b_row in zip(row, m2.entries):
                for mono_a, c1 in a.terms.items():
                    for mono_b, c2 in b_row[c].terms.items():
                        mono = tuple(x + y for x, y in zip(mono_a, mono_b))
                        terms[mono] = terms.get(mono, 0) + c1 * c2
            out_row.append(SparsePoly(ring, terms))
        out.append(out_row)
    return MonadMatrix(ring, out, m1.row_labels, m2.col_labels)


def witness_check_by_powers(
    m: MonadMatrix,
    witness: TriangularWitness,
    k: int,
    symbol: WitnessSymbol,
    earlier: dict[str, Monomial],
) -> TriangularWitness | None:
    """`polyring.triangular_witness`, deciding each entry with `pure_power_exponent`.

    Every diagonal entry must be a pure power of the symbol, every entry
    below it zero or a pure power of some listed guard, each guard one of
    `earlier`, the rows and columns k distinct indices in range, and
    `strict` exactly when no guard is listed.
    """
    if k < 1 or k > min(m.nrows, m.ncols):
        raise ValueError(f"target rank {k} out of range for {m.nrows}x{m.ncols}")
    rows, cols = witness.rows, witness.cols
    guards = [earlier.get(name) for name in witness.guards]
    if (
        witness.symbol != symbol.name
        or witness.strict != (not guards)
        or None in guards
        or not (
            len(rows) == len(set(rows)) == k == len(cols) == len(set(cols))
            and 0 <= min(rows) and max(rows) < m.nrows
            and 0 <= min(cols) and max(cols) < m.ncols
        )
    ):
        return None
    base = symbol.monomial
    for i, r in enumerate(rows):
        row = m.entries[r]
        if pure_power_exponent(row[cols[i]], base) is None:
            return None
        for c in cols[:i]:
            if row[c].terms and all(pure_power_exponent(row[c], g) is None for g in guards):
                return None
    return witness


def pure_power_exponent(poly: SparsePoly, base: Monomial) -> int | None:
    """e >= 1 with poly == c * base^e for a nonzero integer c, or None."""
    if len(poly.terms) != 1:
        return None
    mono = next(iter(poly.terms))
    i0 = next((i for i, b in enumerate(base) if b), None)
    if i0 is None:
        return None
    e, rem = divmod(mono[i0], base[i0])
    if rem or e < 1 or mono != tuple(e * b for b in base):
        return None
    return e


def degree_mismatches_by_entries(m: MonadMatrix) -> tuple[tuple[int, int, MultiDegree, MultiDegree], ...]:
    """`MonadMatrix.degree_mismatches` recomputed entry by entry.

    Takes every nonzero entry in row-major order, its row label minus its
    column label afresh, and each monomial's multidegree by adding every
    exponent into the factor its variable belongs to.
    """
    bad = []
    for r, row in enumerate(m.entries):
        for c, entry in enumerate(row):
            expected = tuple(a - b for a, b in zip(m.row_labels[r], m.col_labels[c]))
            for mono in entry.terms:
                degree = [0] * len(m.ring.factors)
                for var, e in enumerate(mono):
                    degree[m.ring.var_factor[var]] += e
                if tuple(degree) != expected:
                    bad.append((r, c, tuple(degree), expected))
                    break
    return tuple(bad)


def witness_by_scan(
    m: MonadMatrix, symbol: WitnessSymbol, k: int, family: Sequence[WitnessSymbol]
) -> TriangularWitness | None:
    """The first k x k guarded-triangular submatrix with `symbol` on its diagonal.

    Backtracks over every entry that is a pure power of `symbol`, in
    row-major order; an entry below the diagonal must be zero or a pure
    power of a family symbol before `symbol`, the earliest of which is
    recorded as a guard.  The reference for the witnesses the builders lay
    out and `polyring.triangular_witness` checks.
    """
    names = [s.name for s in family]
    earlier = family[: names.index(symbol.name)]

    def guard_of(poly):
        if poly.is_zero():
            return True, None
        for s in earlier:
            if pure_power_exponent(poly, s.monomial) is not None:
                return True, s.name
        return False, None

    positions = [
        (r, c)
        for r in range(m.nrows)
        for c in range(m.ncols)
        if pure_power_exponent(m.entries[r][c], symbol.monomial) is not None
    ]
    chosen, guards = [], []

    def extend(start):
        if len(chosen) == k:
            return True
        for i in range(start, len(positions)):
            r, c = positions[i]
            if any(r == ra or c == ca for ra, ca in chosen):
                continue
            new_guards = []
            for _, ca in chosen:
                good, g = guard_of(m.entries[r][ca])
                if not good:
                    break
                if g is not None:
                    new_guards.append(g)
            else:
                chosen.append((r, c))
                guards.extend(new_guards)
                if extend(i + 1):
                    return True
                chosen.pop()
                del guards[len(guards) - len(new_guards):]
        return False

    if len(positions) < k or not extend(0):
        return None
    dedup = tuple(sorted(set(guards), key=names.index))
    return TriangularWitness(
        symbol.name, tuple(r for r, _ in chosen), tuple(c for _, c in chosen), not dedup, dedup
    )


def document_bytes_by_json(doc) -> bytes:
    """A document's bytes by the json module: the whole JSON tree first, then `indent=2`.

    The tree comes from `cli.to_jsonable`, so the type rules are shared with
    `cli.json_bytes`; what this checks is the writing.
    """
    return (json.dumps(to_jsonable(doc), indent=2, ensure_ascii=True) + "\n").encode("utf-8")


# ---------------------------------------------------------------------------
# check functions

def check_bott(n_max: int, d_max: int) -> None:
    """h_pn against monomial counts on P^n, n <= n_max, |d| <= d_max, every i <= n+1."""
    for n in range(1, n_max + 1):
        for d in range(-d_max, d_max + 1):
            for i in range(0, n + 2):
                if i == 0:
                    want = count_monomials(n + 1, d)
                elif i == n:
                    want = count_monomials(n + 1, -d - n - 1)
                else:
                    want = 0
                got = h_pn(n, d, i)
                assert got == want, f"h_pn({n},{d},{i}) = {got}, counted {want}"


def check_serre_kunneth(
    seed: int, draws: int, n_max: int, d_max: int, factor_max: int, deg_max: int
) -> None:
    """Serre duality on P^n, then the Kunneth total law on up to three factors."""
    rng = random.Random(seed)
    for _ in range(draws):
        n = rng.randint(1, n_max)
        d = rng.randint(-d_max, d_max)
        i = rng.randint(0, n)
        assert h_pn(n, d, i) == h_pn(n, -d - n - 1, n - i), f"serre fails at {n} {d} {i}"
    for _ in range(draws):
        factors = tuple(rng.randint(1, factor_max) for _ in range(rng.randint(1, 3)))
        space = ProductSpace(factors)
        deg = tuple(rng.randint(-deg_max, deg_max) for _ in factors)
        total = sum(h_line(space, deg, p) for p in range(space.dim + 1))
        prod = 1
        for n, d in zip(factors, deg):
            prod *= sum(h_pn(n, d, q) for q in range(n + 1))
        assert total == prod, f"kunneth total law fails at {factors} {deg}"


def check_exterior_rank(seed: int, draws: int, deg_max: int) -> None:
    """rank Lambda^q G = C(rank G, q) for random sums G and every q <= rank + 1."""
    rng = random.Random(seed)
    for _ in range(draws):
        l = rng.randint(1, 3)
        summands = [
            (tuple(rng.randint(-deg_max, deg_max) for _ in range(l)), rng.randint(1, 3))
            for _ in range(rng.randint(1, 3))
        ]
        g = LineBundleSum(summands)
        for q in range(0, g.rank + 2):
            assert exterior_power(g, q).rank == math.comb(g.rank, q), f"{summands} q={q}"


def random_groups(rng: random.Random, l: int) -> tuple | None:
    """None (one group per factor) or a random partition of l factors into named groups."""
    if l == 1 or rng.random() < 0.4:
        return None
    order = list(range(l))
    rng.shuffle(order)
    cuts = sorted(rng.sample(range(1, l), rng.randint(0, l - 1)))
    return tuple(
        (f"g{i}", tuple(order[a:b]))
        for i, (a, b) in enumerate(zip([0] + cuts, cuts + [l]))
    )


def check_vanishing(seed: int, draws: int, dim_max: int, mult_max: int) -> tuple[int, int]:
    """The vanishing DP against box enumeration for every q and both modes;
    returns the number of (q, mode) decisions checked and of spaces drawn
    with a group of several factors.

    A failing q must have the first violated subset sum t_S as its witness
    profile and -t_S as a witness twist that lies in the family and gives a
    global section; a passing q has no witness.  Spaces have one to three
    factors of dimension up to dim_max, grouped one group per factor, by
    dimension or at random, and middles one to four summands of multiplicity
    up to mult_max.  Summand degrees stay in {-1, 0, 1} and q <= 5 so that
    the default box holds every candidate twist and the enumeration is
    exhaustive.
    """
    rng = random.Random(seed)
    decisions = grouped = 0
    for _ in range(draws):
        l = rng.randint(1, 3)
        factors = tuple(rng.randint(1, dim_max) for _ in range(l))
        how = rng.randrange(3)
        groups = dimension_blocks(factors) if how == 1 else random_groups(rng, l) if how else None
        space = ProductSpace(factors, groups)
        grouped += any(len(idx) > 1 for _, idx in space.groups)
        summands = [
            (tuple(rng.choice((-1, 0, 1)) for _ in range(l)), rng.randint(1, mult_max))
            for _ in range(rng.randint(1, 4))
        ]
        middle = LineBundleSum(summands)
        for q, mode in itertools.product(range(1, min(middle.rank, 6)), TwistMode):
            fast = vanishing_all_twists(space, middle, q, mode)
            slow_pass, _ = vanishing_by_enumeration(space, middle, q, mode)
            where = f"{space.groups} {summands} q={q} {mode}"
            assert fast.passed == slow_pass, f"disagreement at {where}"
            t_s = first_violated(space, middle, q, mode)
            assert fast.witness_profile == t_s, (
                f"witness {fast.witness_profile} is not the first violated sum {t_s} at {where}"
            )
            decisions += 1
            if fast.passed:
                assert fast.witness_twist is None, f"a passing q has a witness at {where}"
                continue
            b = fast.witness_twist
            if mode is TwistMode.TOTAL_NEGATIVE:
                in_family = sum(b) < 0
            else:
                in_family = all(s < 0 for _, s in space.group_sums(b))
            lam = exterior_power(middle, q).twist(b)
            assert b == vneg(t_s) and in_family and h_sum(space, lam, 0) >= 1, (
                f"unsound witness {b} at {where}"
            )
    return decisions, grouped


def check_nu(limit: int) -> None:
    """nu against the half-product form in exact rationals, on every copy vector <= limit."""
    seen = 0
    for copies in copy_vectors(limit):
        half = Fraction(1, 2)
        for i, c in enumerate(copies):
            half *= Fraction(2 * i + 2) ** c
        assert nu(copies) == half - 1, f"nu({copies})"
        seen += 1
    assert seen > 10


def check_common_zero(seed: int, draws: int) -> None:
    """common_zero against every point over F_2, and its zero against the first
    one, on random small monomial families.

    A monomial uses no coordinate of a factor in a third of the draws, one
    in a half and two in a sixth, so families with and without a common
    zero both occur (about 3 to 2 in 3000 draws).
    """
    rng = random.Random(seed)
    for _ in range(draws):
        ring = CoordinateRing(tuple(rng.randint(1, 2) for _ in range(rng.randint(1, 3))))
        family = []
        for _ in range(rng.randint(0, 6)):
            exps = [0] * ring.nvars
            for n, off in zip(ring.factors, ring.offsets):
                for _ in range(rng.choice((0, 0, 1, 1, 1, 2))):
                    exps[off + rng.randint(0, n)] += 1
            family.append(tuple(exps))
        zero = common_zero(ring, family)
        want = has_common_zero_by_points(ring, family)
        assert (zero is not None) == want, f"disagreement on {ring.factors} {family}"
        first = first_common_zero_by_points(ring, family)
        assert zero == first, f"{ring.factors} {family}: {zero} is not the first zero {first}"


def check_rank_evidence(seed: int, draws: int, trials: int) -> None:
    """rank_at_random_points against rank_evidence_by_entries on random
    rank-deficient matrices of forms, up to 6 x 6, 0 x n and n x 0 included.

    Entries are sums of up to three terms from four bidegree-(1, 1)
    monomials, so they share monomials.  Each matrix is made rank-deficient
    by one or two of: a repeated row, a row that is the sum of two others,
    a zero row, a zero column.
    """
    rng = random.Random(seed)
    ring = CoordinateRing((1, 2))
    pool = [ring.unit_monomial(((0, i), (1, j))) for i in range(2) for j in range(3)]
    deficient = 0
    for _ in range(draws):
        nrows, ncols = rng.randint(0, 6), rng.randint(0, 6)
        monos = rng.sample(pool, 4)
        rows = [[ring.zero()] * ncols for _ in range(nrows)]
        for row in rows:
            for c in range(ncols):
                terms = {rng.choice(monos): rng.randint(-3, 3) for _ in range(rng.randint(0, 3))}
                row[c] = SparsePoly(ring, terms)
        for _ in range(rng.randint(1, 2) if nrows and ncols else 0):
            i, a, b = (rng.randrange(nrows) for _ in range(3))
            how = rng.choice(("repeat", "sum", "zero-row", "zero-column"))
            if how == "repeat":
                rows[i] = list(rows[a])
            elif how == "sum":
                rows[i] = [x + y for x, y in zip(rows[a], rows[b])]
            elif how == "zero-row":
                rows[i] = [ring.zero()] * ncols
            else:
                c = rng.randrange(ncols)
                for row in rows:
                    row[c] = ring.zero()
        m = MonadMatrix(ring, rows, [(1, 1)] * nrows, [(0, 0)] * ncols)
        prime, point_seed = rng.choice((1048583, DEFAULT_PRIME)), rng.randrange(1000)
        got = rank_at_random_points(m, prime, trials, point_seed)
        want = rank_evidence_by_entries(m, prime, trials, point_seed)
        assert got == want, f"{nrows}x{ncols} {rows}: ranks {got.ranks} != {want.ranks}"
        deficient += got.max_rank_seen < min(nrows, ncols)
    assert deficient, "no rank-deficient matrix drawn"


def check_degree_mismatches(seed: int, draws: int) -> None:
    """MonadMatrix.degree_mismatches against degree_mismatches_by_entries on
    random matrices of forms up to 5 x 5, 0 x n and n x 0 included.

    Each side's labels are drawn from one to three values, so differences
    repeat, and some are negative.  An entry is a sum of zero to three
    monomials, each of the degree its labels ask or, in a fifth of the
    draws, of that degree plus one in one factor, so homogeneous,
    wrong-degree and inhomogeneous entries all occur.  A third of the
    matrices get a zero row or column.
    """
    rng = random.Random(seed)
    mismatched = 0
    for _ in range(draws):
        ring = CoordinateRing(tuple(rng.randint(1, 2) for _ in range(rng.randint(1, 3))))
        l = len(ring.factors)
        row_pool = [tuple(rng.randint(0, 2) for _ in range(l)) for _ in range(rng.randint(1, 3))]
        col_pool = [tuple(rng.randint(-1, 1) for _ in range(l)) for _ in range(rng.randint(1, 3))]
        row_labels = [rng.choice(row_pool) for _ in range(rng.randint(0, 5))]
        col_labels = [rng.choice(col_pool) for _ in range(rng.randint(0, 5))]
        rows = []
        for rl in row_labels:
            row = []
            for cl in col_labels:
                terms = {}
                for _ in range(rng.randint(0, 3)):
                    degree = [a - b for a, b in zip(rl, cl)]
                    if rng.random() < 0.2:
                        degree[rng.randrange(l)] += 1
                    if min(degree) >= 0:
                        exps = [0] * ring.nvars
                        for off, n, d in zip(ring.offsets, ring.factors, degree):
                            for _ in range(d):
                                exps[off + rng.randint(0, n)] += 1
                        terms[tuple(exps)] = rng.choice((-2, -1, 1, 3))
                row.append(SparsePoly(ring, terms))
            rows.append(row)
        if rows and col_labels and rng.random() < 1 / 3:
            if rng.random() < 0.5:
                rows[rng.randrange(len(rows))] = [ring.zero()] * len(col_labels)
            else:
                c = rng.randrange(len(col_labels))
                for row in rows:
                    row[c] = ring.zero()
        m = MonadMatrix(ring, rows, row_labels, col_labels)
        got, want = m.degree_mismatches(), degree_mismatches_by_entries(m)
        assert got == want, f"{row_labels} x {col_labels} {rows}: {got} != {want}"
        mismatched += bool(got)
    assert mismatched, "no degree mismatch drawn"


def check_mat_mul(seed: int, draws: int) -> None:
    """mat_mul against mat_mul_by_tuples on random matrices of forms up to 4 x 4 x 4.

    Coefficients are nonzero and may be negative, a fifth of the entries
    are zero and the inner dimension may be 0.  Exponents lie in 0..3, in a
    quarter of the draws in 100..300 (sums past 255 need a wider field),
    and in a tenth from 2^63 on (sums past a machine word) or in -2..2 (a
    negative exponent offsets every field).  Half the draws repeat a
    column of the left factor against a negated row of the right one, so
    terms cancel.
    """
    rng = random.Random(seed)
    wide = extreme = cancelled = 0
    for _ in range(draws):
        ring = CoordinateRing(tuple(rng.randint(1, 2) for _ in range(rng.randint(1, 3))))
        roll = rng.random()
        low, high = (0, 3) if roll < 0.65 else (100, 300) if roll < 0.9 else (
            (2**63, 2**63 + 2) if roll < 0.95 else (-2, 2)
        )
        wide += 0.65 <= roll < 0.9
        extreme += roll >= 0.9

        def poly():
            if rng.random() < 0.2:
                return ring.zero()
            return SparsePoly(ring, {
                tuple(rng.randint(low, high) for _ in range(ring.nvars)): rng.choice((-3, -1, 1, 2))
                for _ in range(rng.randint(1, 3))
            })

        n, inner, c = rng.randint(1, 4), rng.randint(0, 4), rng.randint(1, 4)
        a_rows = [[poly() for _ in range(inner)] for _ in range(n)]
        b_rows = [[poly() for _ in range(c)] for _ in range(inner)]
        if inner >= 2 and rng.random() < 0.5:
            for row in a_rows:
                row[1] = row[0]
            b_rows[1] = [-x for x in b_rows[0]]
        zero = (0,) * len(ring.factors)
        a = MonadMatrix(ring, a_rows, [zero] * n, [zero] * inner)
        b = MonadMatrix(ring, b_rows, [zero] * inner, [zero] * c)
        got, want = mat_mul(a, b), mat_mul_by_tuples(a, b)
        assert got.entries == want.entries, f"{a_rows} x {b_rows}: {got.entries} != {want.entries}"
        assert (got.row_labels, got.col_labels) == (want.row_labels, want.col_labels)
        cancelled += inner >= 2 and any(e.is_zero() for row in got.entries for e in row)
    assert wide and extreme and cancelled, "a kind of product was not drawn"


def check_triangular_witness(seed: int, draws: int) -> None:
    """triangular_witness against witness_check_by_powers on random witnesses.

    Matrices up to 4 x 4 over P^1 x P^1 hold zeros, constants, multi-term
    entries and pure powers of a random family, whose symbols include a
    zero monomial and powers of one another.  Half the witnesses are
    staircases laid into the matrix, with powers of their guards below the
    diagonal; the rest pick rows and columns at random, some repeated or out
    of range.  Guards are drawn from the earlier symbols, later ones and
    unknown names, `strict` is sometimes wrong, and k is sometimes out of
    range, when both must raise the same error.  Last, a repeated row and a
    repeated column are tried on a matrix where they meet every other
    condition.
    """
    rng = random.Random(seed)
    ring = CoordinateRing((1, 1))
    units = [ring.unit_monomial([pick]) for pick in ((0, 0), (0, 1), (1, 0), (1, 1))]
    pool = units + [(0,) * ring.nvars, (2, 0, 0, 0), (1, 0, 1, 0), (2, 0, 2, 0), (0, 1, 0, 1)]
    power = lambda mono, e: tuple(e * x for x in mono)
    accepted = refused = raised = 0
    for _ in range(draws):
        monos = rng.sample(pool, rng.randint(1, 5))
        family = tuple(WitnessSymbol(f"s{i}", mono) for i, mono in enumerate(monos))
        t = rng.randrange(len(family))
        symbol, earlier = family[t], {s.name: s.monomial for s in family[:t]}
        nrows, ncols = rng.randint(1, 4), rng.randint(1, 4)

        def entry(mono=None):
            coeff = rng.choice((-2, -1, 1, 3))
            roll = rng.random()
            if mono is not None:
                return SparsePoly(ring, {power(mono, rng.randint(1, 3)): coeff})
            if roll < 0.3:
                return ring.zero()
            if roll < 0.4:
                return coeff * ring.one()
            if roll < 0.5:
                return SparsePoly(ring, {rng.choice(pool): coeff, rng.choice(pool): 1})
            return entry(rng.choice(pool))

        entries = [[entry() for _ in range(ncols)] for _ in range(nrows)]
        k = rng.randint(1, min(nrows, ncols))
        guards = tuple(rng.sample(list(earlier), rng.randint(0, len(earlier))))
        if rng.random() < 0.5:
            rows, cols = rng.sample(range(nrows), k), rng.sample(range(ncols), k)
            for i, r in enumerate(rows):
                entries[r][cols[i]] = entry(symbol.monomial)
                for c in cols[:i]:
                    guard = rng.choice(guards) if guards and rng.random() < 0.7 else None
                    entries[r][c] = ring.zero() if guard is None else entry(earlier[guard])
        else:
            rows = [rng.randint(-1, nrows) for _ in range(k)]
            cols = [rng.randint(-1, ncols) for _ in range(k)]
        if rng.random() < 0.2:
            guards += (rng.choice([s.name for s in family[t:]] + ["unknown"]),)
        strict = (not guards) != (rng.random() < 0.1)
        name = symbol.name if rng.random() < 0.95 else "other"
        w = TriangularWitness(name, tuple(rows), tuple(cols), strict, guards)
        m = MonadMatrix(ring, entries, [(0, 0)] * nrows, [(0, 0)] * ncols)
        if rng.random() < 0.1:
            k = rng.choice((0, min(nrows, ncols) + 1))
        outcomes = []
        for check in (triangular_witness, witness_check_by_powers):
            try:
                outcomes.append(check(m, w, k, symbol, earlier))
            except ValueError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1], f"{entries} {w} k={k}: {outcomes}"
        accepted += outcomes[0] is w
        refused += outcomes[0] is None
        raised += isinstance(outcomes[0], str)
    assert accepted and refused and raised, (accepted, refused, raised)
    # a repeated row or column meets every other condition when each cell is
    # a power of the symbol and the symbol a power of its guard
    guard, symbol = units[0], WitnessSymbol("s", power(units[0], 2))
    m = MonadMatrix(ring, [[entry(symbol.monomial) for _ in range(3)] for _ in range(3)],
                    [(0, 0)] * 3, [(0, 0)] * 3)
    for rows, cols in (((0, 1, 2), (2, 0, 1)), ((0, 1, 0), (0, 1, 2)), ((2, 0, 1), (1, 1, 0))):
        w = TriangularWitness("s", rows, cols, False, ("g",))
        want = w if len(set(rows)) == len(set(cols)) == 3 else None
        for check in (triangular_witness, witness_check_by_powers):
            assert check(m, w, 3, symbol, {"g": guard}) is want, (check.__name__, w)


def check_common_zero_prune(seed: int, draws: int) -> None:
    """common_zero against first_common_zero_by_points on full-support families less one pin tuple.

    A family has a monomial for every choice of one coordinate in each
    factor, some raised to a power, less one choice: that choice is then
    its only common zero.  Half the families also get one to three
    monomials that use fewer factors, which may rule the zero out.  The
    search must find that zero, or none, within its budget.
    """
    rng = random.Random(seed)
    zeros = 0
    for _ in range(draws):
        ring = CoordinateRing(tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 4))))
        family = []
        for choice in itertools.product(*(range(n + 1) for n in ring.factors)):
            exps = [0] * ring.nvars
            for off, j in zip(ring.offsets, choice):
                exps[off + j] = rng.choice((1, 1, 1, 2))
            family.append(tuple(exps))
        del family[rng.randrange(len(family))]
        for _ in range(rng.choice((0, 0, 1, 3))):
            exps = [0] * ring.nvars
            for off, n in zip(ring.offsets, ring.factors):
                if rng.random() < 0.5:
                    exps[off + rng.randint(0, n)] = 1
            family.append(tuple(exps))
        rng.shuffle(family)
        got, want = common_zero(ring, family), first_common_zero_by_points(ring, family)
        assert got == want, f"{ring.factors} {family}: {got} != {want}"
        zeros += got is not None
    assert zeros, "no family with a common zero drawn"


def check_shared_points(seeds: Sequence[int], trials: int) -> None:
    """Both maps of small built monads against rank_evidence_by_entries, seed by seed.

    The rank evidence of f and of g must be drawn at the same points, and
    each must equal the reference's, points and ranks included.
    """
    specs = (
        build_section3(ProductSpace((1, 1)), 2),
        build_section3(ProductSpace((1, 3)), 1),
        build_section4(1, 1, 1, 1, 2, 1, 1),
    )
    for seed in seeds:
        for spec in specs:
            f = rank_at_random_points(spec.map_f, DEFAULT_PRIME, trials, seed)
            g = rank_at_random_points(spec.map_g, DEFAULT_PRIME, trials, seed)
            assert f.points == g.points, f"{spec.instance_id} seed {seed}: f and g points differ"
            for m, got in ((spec.map_f, f), (spec.map_g, g)):
                want = rank_evidence_by_entries(m, DEFAULT_PRIME, trials, seed)
                assert got == want, f"{spec.instance_id} seed {seed}: {got.ranks} != {want.ranks}"


def check_built_witnesses(spec: MonadSpec) -> None:
    """Each witness a builder lays out is the one the reference scan finds.

    Every symbol of every family has exactly one listed witness per map of
    nonzero rank, and no other witness is listed.
    """
    listed = {(name, w.symbol): w for name, w in spec.witnesses}
    assert len(listed) == len(spec.witnesses), f"{spec.instance_id}: a witness listed twice"
    seen = set()
    for name, matrix, k in (("f", spec.map_f, spec.term_a.rank), ("g", spec.map_g, spec.term_c.rank)):
        for _, family in spec.witness_families:
            for symbol in family:
                want = witness_by_scan(matrix, symbol, k, family)
                got = listed.get((name, symbol.name))
                assert got == want, f"{spec.instance_id} {name} {symbol.name}: {got} != {want}"
                seen.add((name, symbol.name))
    assert seen == set(listed), f"{spec.instance_id}: witnesses for no family symbol"


def check_monads() -> None:
    """The smallest instance of each built family verifies as a monad, with
    the witnesses the reference scan finds."""
    for spec in build_section3(ProductSpace((1, 1)), 1), build_section4(1, 1, 1, 1, 1, 1, 1):
        assert verify_monad(spec).valid, spec.instance_id
        check_built_witnesses(spec)


SUITES = (
    ("bott-vs-monomial-count", partial(check_bott, n_max=3, d_max=8)),
    (
        "serre-kunneth",
        partial(
            check_serre_kunneth,
            seed=15485863, draws=200, n_max=4, d_max=12, factor_max=3, deg_max=6,
        ),
    ),
    ("exterior-rank", partial(check_exterior_rank, seed=32452843, draws=60, deg_max=2)),
    (
        "vanishing-dp-vs-enumeration",
        partial(check_vanishing, seed=49979687, draws=30, dim_max=3, mult_max=2),
    ),
    ("nu-half-product", partial(check_nu, limit=512)),
    ("common-zero-vs-points", partial(check_common_zero, seed=86028121, draws=300)),
    ("monad-validity", check_monads),
    ("rank-evidence-vs-entries", partial(check_rank_evidence, seed=67867967, draws=40, trials=2)),
    ("degree-mismatches-vs-entries", partial(check_degree_mismatches, seed=15485867, draws=200)),
    ("mat-mul-vs-tuples", partial(check_mat_mul, seed=32452867, draws=100)),
    ("witness-check-vs-powers", partial(check_triangular_witness, seed=49979693, draws=400)),
    ("common-zero-prune-vs-points", partial(check_common_zero_prune, seed=67867979, draws=60)),
    ("rank-points-shared", partial(check_shared_points, seeds=(0, 86028157), trials=3)),
)
