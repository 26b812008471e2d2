"""Sparse multigraded polynomials, matrices, and rank evidence."""

import dataclasses
import math
import random

import pytest

from monadcert import oracles, polyring
from monadcert.cohomology import LineBundleSum
from monadcert.monad import (
    build_section3,
    build_section4,
    copies_to_factors,
    custom_monad,
    verify_monad,
)
from monadcert.polyring import (
    COMMON_ZERO_STEPS,
    DEFAULT_PRIME,
    DEFAULT_TRIALS,
    MAX_TRIALS,
    PRIME_BOUND,
    CommonZeroUndecided,
    CoordinateRing,
    MonadMatrix,
    RankEvidence,
    SparsePoly,
    TriangularWitness,
    WitnessSymbol,
    _long_side,
    _rank_of_streams,
    common_zero,
    is_probable_prime,
    mat_mul,
    rank_at_random_points,
    triangular_witness,
)
from monadcert.space import ProductSpace


def trial_division_prime(n):
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def test_primality_matches_trial_division():
    for n in range(0, 4000):
        assert is_probable_prime(n) == trial_division_prime(n), n


def test_strong_pseudoprimes_below_and_at_the_bound():
    # psi_12, a strong pseudoprime to the bases 2..37, is caught by base 41
    psi12 = 399165290221 * 798330580441
    assert psi12 == 318665857834031151167461 < PRIME_BOUND
    assert not is_probable_prime(psi12)
    # psi_13 passes every base up to 41, so it is where the test stops being exact
    assert 1287836182261 * 2575672364521 == PRIME_BOUND
    assert is_probable_prime(PRIME_BOUND)


def test_default_prime_is_prime():
    assert trial_division_prime(DEFAULT_PRIME)
    assert DEFAULT_PRIME > 2 ** 30


# ---------------------------------------------------------------------------
# rings and polynomials


def test_ring_naming_and_offsets():
    r = CoordinateRing((1, 3))
    assert r.var_names == ("a1_0", "a1_1", "a2_0", "a2_1", "a2_2", "a2_3")
    assert r.nvars == 6
    assert r.var_index(1, 3) == 5
    with pytest.raises(ValueError):
        r.var_index(2, 0)
    with pytest.raises(ValueError):
        r.var_index(0, 2)

    s = CoordinateRing((1, 1), letters=("u", "v"))
    assert s.var_names == ("u0", "u1", "v0", "v1")
    assert r != s
    assert CoordinateRing((1, 3)) == r
    assert hash(CoordinateRing((1, 3))) == hash(r)


def test_monomials():
    r = CoordinateRing((1, 1), letters=("u", "v"))
    m = r.unit_monomial([(0, 1), (1, 0)])
    assert m == (0, 1, 1, 0)
    assert r.multidegree(m) == (1, 1)
    assert r.monomial_str(m) == "u1*v0"
    assert r.monomial_str((2, 0, 0, 1)) == "u0^2*v1"
    assert r.monomial_str((0, 0, 0, 0)) == "1"


def test_poly_basic_algebra():
    r = CoordinateRing((1,))
    x0, x1 = r.variable(0, 0), r.variable(0, 1)
    p = x0 + x1
    q = x0 - x1
    assert str(p * q) == "-a1_1^2 + a1_0^2"
    assert (p + q) == 2 * x0
    assert (x0 - x0).is_zero()
    assert p ** 3 == p * p * p
    assert p ** 0 == r.one()
    assert str(x0 * -1 + x1) == "a1_1 - a1_0"


def test_poly_multidegree():
    r = CoordinateRing((1, 1))
    x, y = r.variable(0, 0), r.variable(1, 1)
    assert (x * y).multidegree() == (1, 1)
    assert (x * x).multidegree() == (2, 0)
    assert r.zero().multidegree() is None
    with pytest.raises(ValueError):
        (x + y).multidegree()  # inhomogeneous


def random_poly(rng, ring, max_terms=4):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        mono = tuple(rng.randint(0, 2) for _ in range(ring.nvars))
        terms[mono] = rng.randint(-5, 5)
    return SparsePoly(ring, terms)


def eval_direct(poly, point, p):
    # term-by-term substitution, no Horner tricks
    total = 0
    for mono, coeff in poly.terms.items():
        v = coeff
        for x, e in zip(point, mono):
            v *= pow(x, e, p)
        total += v
    return total % p


def test_poly_ring_identities_random():
    rng = random.Random(99)
    r = CoordinateRing((1, 2))
    p = 10007
    for _ in range(80):
        f = random_poly(rng, r)
        g = random_poly(rng, r)
        h = random_poly(rng, r)
        assert f * (g + h) == f * g + f * h
        assert f + g == g + f
        assert f - f == r.zero()
        point = [rng.randrange(p) for _ in range(r.nvars)]
        assert (f * g).eval_mod(point, p) == (
            eval_direct(f, point, p) * eval_direct(g, point, p)
        ) % p
        assert (f + g).eval_mod(point, p) == (
            eval_direct(f, point, p) + eval_direct(g, point, p)
        ) % p


def test_power_matches_repeated_multiplication():
    rng = random.Random(8333)
    r = CoordinateRing((1, 2))
    single = 0
    for _ in range(120):
        f = random_poly(rng, r, max_terms=rng.choice((1, 1, 3)))
        single += len(f.terms) == 1
        e = rng.randint(0, 6)
        want = r.one()
        for _ in range(e):
            want = want * f
        assert f ** e == want, (f, e)
    assert single >= 30
    x0 = r.variable(0, 0)
    assert (-2 * x0) ** 3 == SparsePoly(r, {(3, 0, 0, 0, 0): -8})
    assert (x0 ** 8333).terms == {(8333, 0, 0, 0, 0): 1}


def test_poly_rejects_mixed_rings():
    a = CoordinateRing((1,))
    b = CoordinateRing((2,))
    with pytest.raises(ValueError):
        a.variable(0, 0) + b.variable(0, 0)


# ---------------------------------------------------------------------------
# matrices


def _ring2():
    return CoordinateRing((1, 1), letters=("u", "v"))


def test_matrix_validation():
    r = _ring2()
    u0 = r.variable(0, 0)
    with pytest.raises(ValueError):
        MonadMatrix(r, [[u0]], [(0, 0), (0, 0)], [(0, 0)])  # extra row label
    with pytest.raises(ValueError):
        MonadMatrix(r, [[u0, u0]], [(0, 0)], [(0, 0)])  # ragged
    with pytest.raises(ValueError):
        MonadMatrix(r, [[u0]], [(0,)], [(0, 0)])  # label length
    other = CoordinateRing((1, 1))
    with pytest.raises(ValueError):
        MonadMatrix(r, [[other.variable(0, 0)]], [(1, 0)], [(0, 0)])


def test_matrix_labels_become_int_tuples():
    # labels given as lists, as one shared tuple, or with non-int entries all
    # come out as tuples of exact ints, and every one is length-checked
    r = _ring2()
    shared = (1, 0)
    m = MonadMatrix(r, [[r.zero()]] * 4, [[1, 0], shared, shared, [True, 0.0]], [("2", 1)])
    assert m.row_labels == ((1, 0),) * 4 and m.col_labels == ((2, 1),)
    for lab in m.row_labels + m.col_labels:
        assert type(lab) is tuple and all(type(x) is int for x in lab)
    for rows, cols in (([shared, [1, 0, 0]], [shared]), ([shared, shared], [[0]])):
        with pytest.raises(ValueError, match="wrong length"):
            MonadMatrix(r, [[r.zero()]] * 2, rows, cols)


def test_degree_consistency():
    r = _ring2()
    u0 = r.variable(0, 0)
    v0 = r.variable(1, 0)
    good = MonadMatrix(r, [[u0, v0]], [(0, 0)], [(-1, 0), (0, -1)])
    assert good.degree_consistent
    assert good.degree_mismatches() == ()
    bad = MonadMatrix(r, [[u0, u0]], [(0, 0)], [(-1, 0), (0, -1)])
    assert not bad.degree_consistent
    assert bad.degree_mismatches() == ((0, 1, (1, 0), (0, 1)),)
    # one label difference for every cell: a monomial of another degree is still found
    one = MonadMatrix(r, [[u0, u0], [u0, v0]], [(1, 0)] * 2, [(0, 0)] * 2)
    assert one.degree_mismatches() == ((1, 1, (0, 1), (1, 0)),)
    assert MonadMatrix(r, [[u0, u0], [u0, u0]], [(1, 0)] * 2, [(0, 0)] * 2).degree_consistent
    # zero entries never count as mismatches
    z = MonadMatrix(r, [[r.zero(), r.zero()]], [(0, 0)], [(-1, 0), (5, 5)])
    assert z.degree_consistent
    # an inhomogeneous entry is reported whatever the order of its terms
    for terms in ({(1, 0, 0, 0): 1, (2, 0, 0, 0): 1}, {(2, 0, 0, 0): 1, (1, 0, 0, 0): 1}):
        mixed = MonadMatrix(r, [[SparsePoly(r, terms)]], [(1, 0)], [(0, 0)])
        assert mixed.degree_mismatches() == ((0, 0, (2, 0), (1, 0)),)


def test_degree_mismatches_match_entrywise_reference():
    # repeated and negative label differences, inhomogeneous and wrong-degree
    # entries, zero rows and columns, empty shapes
    oracles.check_degree_mismatches(seed=1299709, draws=2000)


def test_mat_mul_hand_example():
    r = _ring2()
    u0, u1 = r.variable(0, 0), r.variable(0, 1)
    v0 = r.variable(1, 0)
    a = MonadMatrix(r, [[u0, u1]], [(1, 0)], [(0, 0), (0, 0)])
    b = MonadMatrix(r, [[u1 * v0], [-1 * (u0 * v0)]], [(0, 0), (0, 0)], [(-1, -1)])
    prod = mat_mul(a, b)
    assert prod.nrows == 1 and prod.ncols == 1
    assert prod.entry(0, 0).is_zero()  # u0*u1*v0 - u1*u0*v0
    assert prod.row_labels == ((1, 0),)
    assert prod.col_labels == ((-1, -1),)


def test_mat_mul_rejects_mismatches():
    r = _ring2()
    u0 = r.variable(0, 0)
    a = MonadMatrix(r, [[u0]], [(1, 0)], [(0, 0)])
    b = MonadMatrix(r, [[u0, u0]], [(0, 0)], [(-1, 0), (-1, 0)])
    c = MonadMatrix(r, [[u0]], [(5, 5)], [(0, 0)])
    mat_mul(a, b)  # fine: inner labels agree
    with pytest.raises(ValueError):
        mat_mul(b, a)  # inner dimension 2 vs 1
    with pytest.raises(ValueError):
        mat_mul(a, c)  # inner labels differ
    other = CoordinateRing((1, 1))
    d = MonadMatrix(other, [[other.variable(0, 0)]], [(0, 0)], [(-1, 0)])
    with pytest.raises(ValueError):
        mat_mul(a, d)


# ---------------------------------------------------------------------------
# rank evidence


def test_rank_of_constant_matrices():
    r = _ring2()
    one = r.one()
    zero = r.zero()
    ident = MonadMatrix(
        r,
        [[one, zero], [zero, one]],
        [(0, 0), (0, 0)],
        [(0, 0), (0, 0)],
    )
    ev = rank_at_random_points(ident, trials=5, seed=1)
    assert ev.max_rank_seen == 2
    assert ev.ranks == (2,) * 5
    assert len(ev.points) == 5

    z = MonadMatrix(r, [[zero, zero]], [(0, 0)], [(0, 0), (0, 0)])
    assert rank_at_random_points(z, trials=3).max_rank_seen == 0


def test_rank_of_rank_one_product():
    # [u0*v0  u0*v1; u1*v0  u1*v1] factors through a line, rank 1 everywhere
    r = _ring2()
    u = [r.variable(0, j) for j in range(2)]
    v = [r.variable(1, j) for j in range(2)]
    m = MonadMatrix(
        r,
        [[u[i] * v[j] for j in range(2)] for i in range(2)],
        [(1, 1), (1, 1)],
        [(0, 0), (0, 0)],
    )
    ev = rank_at_random_points(m, trials=8, seed=3)
    assert ev.max_rank_seen == 1
    assert all(rk == 1 for rk in ev.ranks)


def test_rank_determinism_and_validation():
    r = _ring2()
    m = MonadMatrix(r, [[r.variable(0, 0)]], [(1, 0)], [(0, 0)])
    a = rank_at_random_points(m, trials=4, seed=7)
    b = rank_at_random_points(m, trials=4, seed=7)
    assert a == b
    with pytest.raises(ValueError):
        rank_at_random_points(m, prime=2 ** 19 - 1)  # too small
    with pytest.raises(ValueError):
        rank_at_random_points(m, prime=2 ** 21)  # not prime
    with pytest.raises(ValueError):
        rank_at_random_points(m, trials=0)
    with pytest.raises(ValueError, match=f"between 1 and {MAX_TRIALS}"):
        rank_at_random_points(m, trials=MAX_TRIALS + 1)
    assert rank_at_random_points(m, prime=1048583, trials=MAX_TRIALS).trials == MAX_TRIALS
    for composite in (318665857834031151167461, PRIME_BOUND):
        with pytest.raises(ValueError):
            rank_at_random_points(m, prime=composite)


# ---------------------------------------------------------------------------
# triangular witnesses: found by the reference scan, checked by the program


def _witness_setup():
    r = CoordinateRing((1,), letters=("x",))
    x0, x1 = r.variable(0, 0), r.variable(0, 1)
    s0 = WitnessSymbol("x0", r.unit_monomial([(0, 0)]))
    s1 = WitnessSymbol("x1", r.unit_monomial([(0, 1)]))
    return r, x0, x1, (s0, s1)


def _earlier(symbol, family):
    # the names before `symbol` in its family, each with its first monomial
    earlier = {}
    for s in family[: [t.name for t in family].index(symbol.name)]:
        earlier.setdefault(s.name, s.monomial)
    return earlier


def _check(m, w, k, symbol, family):
    return triangular_witness(m, w, k, symbol, _earlier(symbol, family))


def test_strict_witness_found():
    r, x0, x1, fam = _witness_setup()
    lab = [(0,)] * 2
    m = MonadMatrix(r, [[x0, x1], [r.zero(), x0]], lab, lab)
    w = oracles.witness_by_scan(m, fam[0], 2, fam)
    assert w == TriangularWitness("x0", (0, 1), (0, 1), True, ())
    assert _check(m, w, 2, fam[0], fam) is w


def test_guarded_witness():
    r, x0, x1, fam = _witness_setup()
    lab = [(0,)] * 2
    # diagonal in x1, below-diagonal entry is a pure x0 power: x0 is earlier
    # in the family, so it vanishes on the locus the x1 witness certifies
    m = MonadMatrix(r, [[x1, r.zero()], [x0 * x0, x1]], lab, lab)
    w = oracles.witness_by_scan(m, fam[1], 2, fam)
    assert w == TriangularWitness("x1", (0, 1), (0, 1), False, ("x0",))
    assert _check(m, w, 2, fam[1], fam) is w
    # the guard must come before the symbol, and without it the cell is unguarded
    assert triangular_witness(m, w, 2, fam[1], {}) is None
    bare = dataclasses.replace(w, strict=True, guards=())
    assert _check(m, bare, 2, fam[1], fam) is None
    # the same matrix has no witness for the first symbol
    assert oracles.witness_by_scan(m, fam[0], 2, fam) is None


def test_witness_rejects_later_symbol_below_diagonal():
    r, x0, x1, fam = _witness_setup()
    lab = [(0,)] * 2
    # below-diagonal x1 power cannot guard an x0 witness: x1 need not vanish
    m = MonadMatrix(r, [[x0, r.zero()], [x1, x0]], lab, lab)
    assert oracles.witness_by_scan(m, fam[0], 2, fam) is None
    for guards in ((), ("x1",)):
        w = TriangularWitness("x0", (0, 1), (0, 1), not guards, guards)
        assert _check(m, w, 2, fam[0], fam) is None


def test_witness_validation():
    r, x0, x1, fam = _witness_setup()
    m = MonadMatrix(r, [[x0]], [(0,)], [(0,)])
    w = TriangularWitness("x0", (0,), (0,), True, ())
    assert _check(m, w, 1, fam[0], fam) is w
    with pytest.raises(ValueError):
        _check(m, w, 0, fam[0], fam)
    with pytest.raises(ValueError):
        _check(m, w, 2, fam[0], fam)  # k exceeds matrix size
    # a witness for another symbol, or one whose symbol is not on the diagonal
    stranger = WitnessSymbol("zz", (1, 0))
    assert triangular_witness(m, w, 1, stranger, {}) is None
    assert _check(m, dataclasses.replace(w, symbol="x1"), 1, fam[1], fam) is None


def test_witness_on_band_matrix():
    # the shape that actually occurs: coordinates marching down a band
    r = CoordinateRing((1,), letters=("x",))
    x = [r.variable(0, j) for j in range(2)]
    fam = tuple(
        WitnessSymbol(f"x{j}", r.unit_monomial([(0, j)])) for j in range(2)
    )
    lab3 = [(0,)] * 3
    lab2 = [(1,)] * 2
    band = MonadMatrix(
        r,
        [[x[0], x[1], r.zero()], [r.zero(), x[0], x[1]]],
        lab2,
        lab3,
    )
    w0 = oracles.witness_by_scan(band, fam[0], 2, fam)
    assert w0 == TriangularWitness("x0", (0, 1), (0, 1), True, ())
    w1 = oracles.witness_by_scan(band, fam[1], 2, fam)
    assert w1 == TriangularWitness("x1", (0, 1), (1, 2), False, ("x0",))
    assert _check(band, w0, 2, fam[0], fam) is w0
    assert _check(band, w1, 2, fam[1], fam) is w1


def _random_witness_case(rng):
    ring = CoordinateRing((1, 1), letters=("x", "y"))
    x0, x1, y0, y1 = (ring.unit_monomial([pick]) for pick in
                      ((0, 0), (0, 1), (1, 0), (1, 1)))
    mul = lambda a, b: tuple(i + j for i, j in zip(a, b))
    power = lambda a, e: tuple(e * i for i in a)
    # non-primitive members (x0^2, x0^3) and chains of powers of one base
    pool = [x0, x1, y0, y1, power(x0, 2), power(x0, 3), mul(x0, y0),
            power(mul(x0, y1), 2), mul(x1, y1)]
    family = tuple(WitnessSymbol(f"s{i}", mono)
                   for i, mono in enumerate(rng.sample(pool, rng.randint(2, 6))))
    nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)

    def entry():
        kind = rng.random()
        coeff = rng.choice((-3, -2, -1, 1, 2, 5))
        if kind < 0.2:
            return ring.zero()
        if kind < 0.25:
            return coeff * ring.one()
        if kind < 0.85:
            mono = power(rng.choice(family).monomial, rng.randint(1, 3))
            return SparsePoly(ring, {mono: coeff})
        if kind < 0.93:
            return SparsePoly(ring, {rng.choice(pool): coeff, rng.choice(pool): 1})
        mono = tuple(rng.randint(0, 3) for _ in range(ring.nvars))
        return SparsePoly(ring, {mono: coeff})

    entries = [[entry() for _ in range(ncols)] for _ in range(nrows)]
    m = MonadMatrix(ring, entries, [(0, 0)] * nrows, [(0, 0)] * ncols)
    # late symbols have earlier ones to guard with; the rest meet later powers
    symbol = family[-1] if rng.random() < 0.4 else rng.choice(family)
    k = rng.randint(1 if rng.random() < 0.2 else min(2, nrows, ncols), min(nrows, ncols))
    return m, symbol, k, family


def _mutations(m, w, k, symbol, family, rng):
    """Witnesses that differ from `w` in one way the checker must refuse."""
    names = [s.name for s in family]
    later = names[names.index(symbol.name):]  # the symbol itself included
    for name in (rng.choice(later), "unknown"):
        yield dataclasses.replace(w, strict=False, guards=w.guards + (name,))
    yield dataclasses.replace(w, strict=not w.strict)
    # move one diagonal cell to a column, outside the witness, that holds no
    # power of the symbol
    i = rng.randrange(k)
    off = [c for c in range(m.ncols) if c not in w.cols
           and oracles.pure_power_exponent(m.entries[w.rows[i]][c], symbol.monomial) is None]
    if off:
        yield dataclasses.replace(w, cols=w.cols[:i] + (rng.choice(off),) + w.cols[i + 1:])
    for field, size in (("rows", m.nrows), ("cols", m.ncols)):
        cells = getattr(w, field)
        for bad in (-1, size):
            yield dataclasses.replace(w, **{field: cells[:i] + (bad,) + cells[i + 1:]})
        if k >= 2:
            j = rng.choice([j for j in range(k) if j != i])
            yield dataclasses.replace(w, **{field: cells[:j] + (cells[i],) + cells[j + 1:]})
    yield dataclasses.replace(w, rows=w.rows[:-1], cols=w.cols[:-1])


def test_checker_accepts_reference_witnesses_and_rejects_mutations():
    rng = random.Random(2718)
    found = guarded = refused = dropped_needed = mutants = 0
    for _ in range(600):
        m, symbol, k, family = _random_witness_case(rng)
        want = oracles.witness_by_scan(m, symbol, k, family)
        if want is None:
            candidates = sum(oracles.pure_power_exponent(e, symbol.monomial) is not None
                             for row in m.entries for e in row)
            refused += candidates >= k  # some entry under the diagonal had no guard
            continue
        assert want.symbol == symbol.name
        assert _check(m, want, k, symbol, family) is want
        found += 1
        guarded += not want.strict
        for bad in _mutations(m, want, k, symbol, family, rng):
            assert _check(m, bad, k, symbol, family) is None, (want, bad)
            mutants += 1
        # the wrong k, for a witness of k cells
        for other in (k - 1, k + 1):
            if 1 <= other <= min(m.nrows, m.ncols):
                assert _check(m, want, other, symbol, family) is None
        # a dropped guard is refused exactly when some cell under the diagonal
        # is a power of no guard left
        earlier = {s.name: s.monomial for s in family}
        for g in want.guards:
            rest = tuple(x for x in want.guards if x != g)
            needed = any(
                not m.entries[r][c].is_zero() and all(
                    oracles.pure_power_exponent(m.entries[r][c], earlier[x]) is None for x in rest
                )
                for i, r in enumerate(want.rows) for c in want.cols[:i]
            )
            dropped = dataclasses.replace(want, strict=not rest, guards=rest)
            assert (_check(m, dropped, k, symbol, family) is None) == needed
            dropped_needed += needed
    # the draws exercise strict and guarded witnesses and refused searches
    assert found - guarded >= 100 and guarded >= 50 and refused >= 50
    assert dropped_needed >= 50 and mutants >= 1000


def test_witness_guard_is_earliest_matching_symbol():
    r = CoordinateRing((1,), letters=("x",))
    x0 = r.unit_monomial([(0, 0)])
    x1 = r.unit_monomial([(0, 1)])
    fam = (
        WitnessSymbol("x0", x0),
        WitnessSymbol("x0^2", (2, 0)),
        WitnessSymbol("x1", x1),
    )
    lab = [(0,)] * 2
    # x0^4 below the x1 diagonal is a power of both x0 and x0^2
    m = MonadMatrix(
        r,
        [[r.variable(0, 1), r.zero()], [SparsePoly(r, {(4, 0): -2}), 3 * r.variable(0, 1)]],
        lab,
        lab,
    )
    w = oracles.witness_by_scan(m, fam[2], 2, fam)
    assert w.guards == ("x0",) and not w.strict
    # either earlier symbol guards that cell
    assert _check(m, w, 2, fam[2], fam) is w
    assert _check(m, dataclasses.replace(w, guards=("x0^2",)), 2, fam[2], fam) is not None
    # x0^3 is a power of x0 but not of x0^2
    m3 = MonadMatrix(r, [[SparsePoly(r, {(3, 0): 1})]], [(0,)], [(0,)])
    assert oracles.witness_by_scan(m3, fam[0], 1, fam) is not None
    assert oracles.witness_by_scan(m3, fam[1], 1, fam) is None
    w3 = TriangularWitness("x0^2", (0,), (0,), True, ())
    assert _check(m3, w3, 1, fam[1], fam) is None


def test_matrix_eval_matches_entrywise_eval():
    rng = random.Random(31)
    ring = CoordinateRing((1, 2))
    p = DEFAULT_PRIME
    # tall, wide and square shapes, and the empty ones
    shapes = [(rng.randint(1, 4), rng.randint(1, 4)) for _ in range(60)] + [(0, 2), (2, 0)]
    for nrows, ncols in shapes:
        # a small monomial pool so that entries share monomials
        entries = [[random_poly(rng, ring) for _ in range(ncols)] for _ in range(nrows)]
        m = MonadMatrix(ring, entries, [(0, 0)] * nrows, [(0, 0)] * ncols)
        points = [[rng.randrange(p) for _ in range(ring.nvars)] for _ in range(rng.randint(1, 3))]
        coords = [list(xs) for xs in zip(*points)]
        got = [[list(v) for v in line] for line in _long_side(m, coords, p)]
        # the long side: rows when the matrix is tall, else columns
        if nrows > ncols:
            lines = entries
        else:
            lines = [[row[c] for row in entries] for c in range(ncols)]
        if min(nrows, ncols) == 0:
            assert all(line == [] for line in got) and len(got) == len(lines)
            continue
        for evaluate in (lambda e, point: e.eval_mod(point, p), lambda e, point: eval_direct(e, point, p)):
            assert got == [[[evaluate(e, x) for e in line] for x in points] for line in lines]


# ---------------------------------------------------------------------------
# rank evidence, composite and witness setup against the references


def _random_residues(rng, nrows, ncols, p, rank=None):
    # rank=None: independent entries; otherwise a product of nrows x rank and
    # rank x ncols factors, so the rank is at most `rank`
    if rank is None:
        return [[rng.randrange(p) for _ in range(ncols)] for _ in range(nrows)]
    left = [[rng.randrange(p) for _ in range(rank)] for _ in range(nrows)]
    right = [[rng.randrange(p) for _ in range(ncols)] for _ in range(rank)]
    return [[sum(a * b for a, b in zip(row, col)) % p for col in zip(*right)] for row in left]


def test_forward_elimination_matches_gauss_jordan():
    rng = random.Random(4242)
    primes = (3, 1048573, 1048583, DEFAULT_PRIME, 2 ** 31 - 1)
    shapes = [(1, 1), (1, 7), (7, 1), (3, 9), (9, 3), (6, 6), (2, 40), (40, 2)]
    ranks = set()
    for p in primes:
        assert is_probable_prime(p)
        for nrows, ncols in shapes:
            cases = [
                _random_residues(rng, nrows, ncols, p),
                [[0] * ncols for _ in range(nrows)],
                _random_residues(rng, nrows, ncols, p, rank=1),
                _random_residues(rng, nrows, ncols, p, rank=max(1, min(nrows, ncols) - 1)),
            ]
            # a sparse case: mostly zeros, so that pivots must be searched for
            cases.append([[x if rng.random() < 0.2 else 0 for x in row] for row in cases[0]])
            limit = min(nrows, ncols)
            for rows in cases:
                want = oracles.rank_by_gauss_jordan(rows, p)
                transposed = [list(col) for col in zip(*rows)]
                assert _rank_of_streams(([v] for v in rows), 1, limit, p) == [want], (p, rows)
                assert _rank_of_streams(([v] for v in transposed), 1, limit, p) == [want]
                ranks.add((limit, want))
                # the stream is read only until the rank reaches the limit
                for vectors in rows, transposed:
                    read = next(
                        (j for j in range(len(vectors) + 1)
                         if oracles.rank_by_gauss_jordan(vectors[:j], p) == limit),
                        len(vectors),
                    )
                    stream = iter(vectors)
                    _rank_of_streams(([v] for v in stream), 1, limit, p)
                    assert len(list(stream)) == len(vectors) - read
            # several streams in lockstep: each is ranked as it would be alone,
            # and the lines are read until the slowest one is full
            streams = [cases[0], cases[2], cases[3]]
            lines = list(zip(*streams))
            read = max(
                next(
                    (j for j in range(nrows + 1)
                     if oracles.rank_by_gauss_jordan(vectors[:j], p) == limit),
                    nrows,
                )
                for vectors in streams
            )
            source = iter(lines)
            got = _rank_of_streams(source, len(streams), limit, p)
            assert got == [oracles.rank_by_gauss_jordan(rows, p) for rows in streams]
            assert len(list(source)) == nrows - read
    assert _rank_of_streams([], 0, 0, DEFAULT_PRIME) == []
    assert _rank_of_streams([], 2, 1, DEFAULT_PRIME) == [0, 0]
    # full, deficient and zero ranks all occur
    assert {(3, 3), (3, 2), (3, 1), (3, 0)} <= ranks


SECTION3_MAPS = [(copies, k) for copies in ((2,), (1, 1), (1, 0, 1), (2, 1)) for k in (1, 2, 3)]
SECTION3_MAPS += [((6,), 3), ((7,), 3), ((8,), 3), ((0, 3), 1), ((3, 0, 1), 3)]
SECTION4_MAPS = [
    (n, m, l, a, b, g, k)
    for (n, m, l) in ((1, 1, 1), (2, 1, 1), (2, 2, 1))
    for a in (1, 2) for b in (1, 2) for g in (1, 2)
    for k in (1, 2)
]
SECTION4_MAPS += [(4, 4, 4, 1, 2, 3, 2), (3, 3, 3, 1, 2, 3, 2)]


def _grid_and_ladder_specs():
    for copies, k in SECTION3_MAPS:
        yield build_section3(ProductSpace(copies_to_factors(copies)), k)
    for params in SECTION4_MAPS:
        yield build_section4(*params)


def test_rank_evidence_matches_entrywise_reference():
    tall = wide = 0
    for spec in _grid_and_ladder_specs():
        for m in (spec.map_f, spec.map_g):
            tall += m.nrows > m.ncols
            wide += m.nrows < m.ncols
            got = rank_at_random_points(m)
            assert got == oracles.rank_evidence_by_entries(
                m, DEFAULT_PRIME, DEFAULT_TRIALS, 0
            ), spec.instance_id
    assert tall and wide
    # another seed and the first prime above 2^20, on a few maps
    for spec in build_section3(ProductSpace((1, 3)), 2), build_section4(2, 1, 1, 1, 2, 1, 2):
        for m in (spec.map_f, spec.map_g):
            assert rank_at_random_points(m, prime=1048583, trials=7, seed=11) == (
                oracles.rank_evidence_by_entries(m, 1048583, 7, 11)
            )


def _lines_read(m, prime, trials, seed):
    # how many long-side lines the rank evidence reads at those points
    points = polyring._sample_points(m.ring.factors, prime, trials, seed)
    coords = [xs for factor in zip(*points) for xs in zip(*factor)]
    lines = _long_side(m, coords, prime)
    _rank_of_streams(lines, trials, min(m.nrows, m.ncols), prime)
    return max(m.nrows, m.ncols) - sum(1 for _ in lines)


def test_rank_evidence_on_powers_sums_zero_and_empty_maps():
    # the section4 grid, whose entries include powers >= 2 of the coordinates
    powers = 0
    for params in SECTION4_MAPS[:24:3]:
        spec = build_section4(*params)
        for m in (spec.map_f, spec.map_g):
            monos = [mono for row in m.entries for e in row for mono in e.terms]
            powers += any(max(mono) >= 2 for mono in monos)
            assert rank_at_random_points(m, trials=5, seed=3) == (
                oracles.rank_evidence_by_entries(m, DEFAULT_PRIME, 5, 3)
            )
    assert powers
    # entries of several terms, large and negative coefficients, and
    # monomials in up to 12 variables with exponents up to 4
    rng = random.Random(2024)
    ring = CoordinateRing((1,) * 6)
    label = (0,) * 6
    for _ in range(40):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 5)
        entries = [
            [
                SparsePoly(ring, {
                    tuple(rng.choice((0, 1, 2, 3, 4)) for _ in range(ring.nvars)):
                        rng.choice((-1, 1, 2, -(2 ** 40), DEFAULT_PRIME + 3))
                    for _ in range(rng.randint(0, 4))
                })
                for _ in range(ncols)
            ]
            for _ in range(nrows)
        ]
        m = MonadMatrix(ring, entries, [label] * nrows, [label] * ncols)
        trials, seed = rng.randint(1, 6), rng.randrange(100)
        assert rank_at_random_points(m, trials=trials, seed=seed) == (
            oracles.rank_evidence_by_entries(m, DEFAULT_PRIME, trials, seed)
        )
    # a zero map is read to the end; a map of full rank stops at its short side
    for nrows, ncols in ((3, 5), (5, 3), (1, 4)):
        zero = MonadMatrix(ring, [[ring.zero()] * ncols] * nrows, [label] * nrows, [label] * ncols)
        assert rank_at_random_points(zero, trials=4).ranks == (0,) * 4
        assert rank_at_random_points(zero, trials=4) == oracles.rank_evidence_by_entries(
            zero, DEFAULT_PRIME, 4, 0
        )
        assert _lines_read(zero, DEFAULT_PRIME, 4, 0) == max(nrows, ncols)
        x = [ring.variable(f, j) for f in range(6) for j in range(2)]
        full = MonadMatrix(
            ring,
            [[x[r] if r == c else ring.zero() for c in range(ncols)] for r in range(nrows)],
            [label] * nrows,
            [label] * ncols,
        )
        assert _lines_read(full, DEFAULT_PRIME, 4, 0) == min(nrows, ncols)
    # 0 x n and n x 0: rank 0 at every point, nothing read
    for nrows, ncols in ((0, 3), (3, 0), (0, 0)):
        empty = MonadMatrix(ring, [[]] * nrows if not ncols else [], [label] * nrows, [label] * ncols)
        got = rank_at_random_points(empty, trials=3, seed=9)
        assert got.ranks == (0, 0, 0) and got.max_rank_seen == 0
        assert got == oracles.rank_evidence_by_entries(empty, DEFAULT_PRIME, 3, 9)
        assert _lines_read(empty, DEFAULT_PRIME, 3, 9) == 0


def test_mat_mul_multi_term_cancelling_and_unpacked():
    r = _ring2()
    u0, u1 = r.variable(0, 0), r.variable(0, 1)
    v0, v1 = r.variable(1, 0), r.variable(1, 1)
    # multi-term entries: (u0 + 2 u1)(u0 - u1) + v0 (3 v1)
    a = MonadMatrix(r, [[u0 + u1 * 2, v0]], [(2, 0)], [(1, 0), (1, -1)])
    b = MonadMatrix(r, [[u0 - u1], [v1 * 3]], [(1, 0), (1, -1)], [(0, 0)])
    (got,), = mat_mul(a, b).entries
    assert got == u0 * u0 + u0 * u1 - u1 * u1 * 2 + v0 * v1 * 3
    assert got.terms == {(2, 0, 0, 0): 1, (1, 1, 0, 0): 1, (0, 2, 0, 0): -2, (0, 0, 1, 1): 3}
    # a product that cancels: u0 * v0 - v0 * u0, and a cell whose terms cancel in part
    a = MonadMatrix(r, [[u0, v0]], [(1, 1)], [(0, 1), (1, 0)])
    b = MonadMatrix(r, [[v0, v0 + u1], [-u0, -u0]], [(0, 1), (1, 0)], [(0, 0), (0, 0)])
    prod = mat_mul(a, b)
    assert prod.entries[0][0].is_zero() and prod.entries[0][0].terms == {}
    assert prod.entries[0][1] == u0 * u1
    # a negative exponent: every field is offset by the least exponent
    inv = SparsePoly(r, {(-1, 0, 0, 0): 5, (0, 0, 1, 0): 1})
    a = MonadMatrix(r, [[inv, u1]], [(0, 0)], [(0, 0), (0, 0)])
    b = MonadMatrix(r, [[u0 + v1], [inv * -1]], [(0, 0), (0, 0)], [(0, 0)])
    (got,), = mat_mul(a, b).entries
    want = {(0, 0, 0, 0): 5, (-1, 0, 0, 1): 5, (1, 0, 1, 0): 1, (0, 0, 1, 1): 1,
            (-1, 1, 0, 0): -5, (0, 1, 1, 0): -1}
    assert got.terms == want
    assert mat_mul(a, b).entries == oracles.mat_mul_by_tuples(a, b).entries


def test_rank_evidence_matches_entrywise_reference_when_deficient():
    # repeated, summed and zero rows, zero columns, shared monomials, empty shapes
    oracles.check_rank_evidence(seed=8675309, draws=300, trials=3)


def test_mat_mul_matches_sum_of_products():
    rng = random.Random(5150)
    ring = CoordinateRing((1, 2))
    cancelled = 0
    for _ in range(60):
        n, inner, c = rng.randint(1, 4), rng.randint(0, 4), rng.randint(1, 4)
        a_rows = [[random_poly(rng, ring) for _ in range(inner)] for _ in range(n)]
        b_rows = [[random_poly(rng, ring) for _ in range(c)] for _ in range(inner)]
        if inner >= 2 and rng.random() < 0.5:
            # a[r][1] * b[1][c] cancels a[r][0] * b[0][c], so zero terms must drop
            for row in a_rows:
                row[1] = row[0]
            b_rows[1] = [-x for x in b_rows[0]]
        a = MonadMatrix(ring, a_rows, [(0, 0)] * n, [(0, 0)] * inner)
        b = MonadMatrix(ring, b_rows, [(0, 0)] * inner, [(0, 0)] * c)
        prod, want = mat_mul(a, b), oracles.mat_mul_by_tuples(a, b)
        assert (prod.nrows, prod.ncols) == (n, c)
        assert prod.entries == want.entries
        for row in prod.entries:
            assert all(0 not in entry.terms.values() for entry in row)
            cancelled += inner > 0 and sum(entry.is_zero() for entry in row)
    assert cancelled >= 10
    # the section3 composite cancels term by term
    spec = build_section3(ProductSpace((1, 1, 1)), 2)
    assert mat_mul(spec.map_g, spec.map_f).is_zero()


def test_mat_mul_matches_tuple_reference():
    # negative coefficients, zero entries, exponent sums past 255 and past 2^64
    oracles.check_mat_mul(seed=8088, draws=400)


def test_mat_mul_exponent_sums_no_field_holds():
    ring = CoordinateRing((1,))
    cases = [
        (128, 128),  # a sum of 256 carries out of a byte
        (2 ** 63, 2 ** 63),  # a sum of 2^64 is past any machine word
        (-1, 3),  # a negative exponent
    ]
    for e1, e2 in cases:
        a = MonadMatrix(ring, [[SparsePoly(ring, {(e1, 1): -2})]], [(0,)], [(0,)])
        b = MonadMatrix(ring, [[SparsePoly(ring, {(e2, 0): 3, (0, e2): 1})]], [(0,)], [(0,)])
        prod = mat_mul(a, b)
        assert prod.entries[0][0].terms == {(e1 + e2, 1): -6, (e1, 1 + e2): -2}
        assert prod.entries == oracles.mat_mul_by_tuples(a, b).entries


def test_mat_mul_mixes_negative_and_huge_exponents():
    # one product whose operands hold negative exponents and exponents past 2^64
    ring = CoordinateRing((1, 2))
    huge = 2 ** 64 + 5
    a = MonadMatrix(ring, [
        [SparsePoly(ring, {(-3, huge, 0, 1, 0): 2, (0, 0, 0, 0, 1): -1}), ring.zero()],
        [SparsePoly(ring, {(huge, -1, 2, 0, 0): 1}), SparsePoly(ring, {(1, 1, 1, 1, 1): 3})],
    ], [(0, 0)] * 2, [(0, 0)] * 2)
    b = MonadMatrix(ring, [
        [SparsePoly(ring, {(3, -huge, 0, 0, 0): 1, (-huge, 0, 0, 0, 7): -4})],
        [SparsePoly(ring, {(0, 0, -2, huge, huge): 5})],
    ], [(0, 0)] * 2, [(0, 0)])
    prod = mat_mul(a, b)
    assert prod.entries == oracles.mat_mul_by_tuples(a, b).entries
    assert prod.entries[0][0].terms == {
        (0, 0, 0, 1, 0): 2, (-3 - huge, huge, 0, 1, 7): -8,
        (3, -huge, 0, 0, 1): -1, (-huge, 0, 0, 0, 8): 4,
    }
    assert prod.entries[1][0].terms == {
        (huge + 3, -1 - huge, 2, 0, 0): 1, (0, -1, 2, 0, 7): -4,
        (1, 1, -1, huge + 1, huge + 1): 15,
    }


def test_short_monomial_is_refused():
    # a monomial not nvars long is a ValueError, never cut to fit
    ring = CoordinateRing((1, 1))
    short = SparsePoly(ring, {(1, 0, 1): 1})
    whole = SparsePoly(ring, {(0, 1, 0, 1): 2})
    labels = [(0, 0)]
    with pytest.raises(ValueError):
        mat_mul(MonadMatrix(ring, [[short]], labels, labels),
                MonadMatrix(ring, [[whole]], labels, labels))
    with pytest.raises(ValueError):
        mat_mul(MonadMatrix(ring, [[whole]], labels, labels),
                MonadMatrix(ring, [[short]], labels, labels))
    with pytest.raises(ValueError):
        short * whole
    with pytest.raises(ValueError):
        whole * short


def test_witness_check_matches_power_reference():
    # guards, constant symbols and entries, repeated and out-of-range cells, wrong strict
    oracles.check_triangular_witness(seed=1618, draws=2000)


def test_common_zero_prune_matches_first_point(monkeypatch):
    oracles.check_common_zero_prune(seed=1414, draws=200)
    # the whole Segre family of (P^1)^12, the largest within the build
    # budget, is ruled out at the root: 1 + 4096 checks
    spec = build_section3(ProductSpace((1,) * 12), 1)
    (_, segre), = spec.witness_families
    monos = [s.monomial for s in segre]
    monkeypatch.setattr(polyring, "COMMON_ZERO_STEPS", 4097)
    assert common_zero(spec.ring, monos) is None
    monkeypatch.setattr(polyring, "COMMON_ZERO_STEPS", 4096)
    with pytest.raises(CommonZeroUndecided):
        common_zero(spec.ring, monos)


def test_rank_evidence_points_shared_by_both_maps():
    oracles.check_shared_points(seeds=(5, 17), trials=4)


def test_built_witnesses_match_reference_scan():
    # the acceptance grid and the benchmark ladder of both families
    for spec in _grid_and_ladder_specs():
        oracles.check_built_witnesses(spec)


def test_common_zero_matches_points_over_f2():
    oracles.check_common_zero(seed=2718, draws=3000)


def test_common_zero_of_built_families():
    # every built family covers; without one Segre symbol, the Segre family
    # vanishes exactly at that symbol's coordinate point
    for spec in (build_section3(ProductSpace((1, 1, 3)), 1), build_section4(2, 1, 3, 1, 1, 1, 1)):
        for _, family in spec.witness_families:
            assert common_zero(spec.ring, [s.monomial for s in family]) is None
    spec = build_section3(ProductSpace((1, 1, 3)), 1)
    (_, segre), = spec.witness_families
    for t, symbol in enumerate(segre):
        rest = [s.monomial for s in segre[:t] + segre[t + 1 :]]
        live = common_zero(spec.ring, rest)
        assert live is not None
        assert spec.ring.unit_monomial(enumerate(live)) == symbol.monomial
    # a constant covers everything; the empty family vanishes everywhere
    ring = CoordinateRing((1, 2))
    assert common_zero(ring, [(0,) * ring.nvars]) is None
    assert common_zero(ring, []) == (0, 0)


def _branching_family(n):
    """On (P^1)^n: both coordinates of the last factor, and each coordinate of
    every other factor times the last factor's first.  No common zero, but the
    search branches on every factor before the last one rules it out."""
    ring = CoordinateRing((1,) * n)
    last = n - 1
    family = [ring.unit_monomial([(last, 0)]), ring.unit_monomial([(last, 1)])]
    for i in range(last):
        family += [ring.unit_monomial([(i, j), (last, 0)]) for j in (0, 1)]
    return ring, family


def test_common_zero_search_is_bounded():
    # 15 factors take 589791 of the 1000000 steps, 16 would take 1245149
    assert COMMON_ZERO_STEPS == 1_000_000
    assert common_zero(*_branching_family(15)) is None
    ring, family = _branching_family(16)
    with pytest.raises(CommonZeroUndecided):
        common_zero(ring, family)
    # verify leaves an undecided family out instead of searching on
    symbols = tuple(WitnessSymbol(f"s{t}", m) for t, m in enumerate(family))
    spec = custom_monad(
        "branching",
        ProductSpace((1,) * 16),
        LineBundleSum([]),
        LineBundleSum([((0,) * 16, 1)]),
        LineBundleSum([]),
        witness_families=(("branching", symbols),),
    )
    assert verify_monad(spec, trials=1).notes == (
        "witness family 'branching' not used: no common zero of its symbols "
        "found or ruled out within 1000000 search steps",
    )
