"""Explicit monad builders on products of projective spaces, plus validity reports.

A monad here is a three-term complex A --f--> M --g--> C of direct sums of
line bundles with g*f = 0, f everywhere injective, g everywhere surjective.
Both built families are one construction: k shifted copies of ladder
blocks, laid out by `_ladder_maps`, whose blocks cancel in pairs in g*f and
whose entries each head a triangular rank witness, laid out by
`_staircases`.
`section3` takes two blocks of Segre coordinates over a product of
odd-dimensional factors (trivial middle term); `section4` takes two blocks
of coordinate powers for each factor pair of (P^n)^2 x (P^m)^2 x (P^l)^2.
A builder computes the three terms from the block shapes at once and lays
out the maps and the witnesses only when they are first read: the
stability and simplicity certificates read the terms alone.
`verify_monad` checks the defining conditions exactly: symbolic composite,
the spec's triangular rank witnesses covering a pointwise-nonvanishing
symbol family, and randomized finite-field rank evidence.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from .cohomology import LineBundleSum
from .polyring import (
    DEFAULT_PRIME,
    DEFAULT_TRIALS,
    COMMON_ZERO_STEPS,
    CommonZeroUndecided,
    CoordinateRing,
    MonadMatrix,
    Monomial,
    RankEvidence,
    SparsePoly,
    TriangularWitness,
    WitnessSymbol,
    common_zero,
    mat_mul,
    rank_at_random_points,
    triangular_witness,
)
from .space import MultiDegree, ProductSpace, dimension_blocks

WitnessFamily = tuple[str, tuple[WitnessSymbol, ...]]
Maps = tuple[MonadMatrix, MonadMatrix]
Witnesses = tuple[tuple[WitnessFamily, ...], tuple[tuple[str, TriangularWitness], ...]]


BUILD_BUDGET = 200_000
"""Largest cost of a section3 or section4 build: the cells of f and g
together times the degree of their entries, plus the distinct monomials
the builder makes times the ring's variable count (every monomial is a
dense exponent tuple that wide).  The builders check it before they
allocate anything of that size, so every command that builds an instance
refuses the same requests."""


def _segre_count(factors: Iterable[int]) -> int:
    """prod(n + 1) over `factors`, refused as soon as it passes BUILD_BUDGET."""
    count = 1
    for n in factors:
        count *= n + 1
        if count > BUILD_BUDGET:
            raise ValueError(
                f"more than {BUILD_BUDGET} Segre coordinates, over the build budget"
            )
    return count


def _check_budget(cells: int, degree: int, monomials: int, nvars: int) -> None:
    cost = cells * degree + monomials * nvars
    if cost > BUILD_BUDGET:
        raise ValueError(
            f"{cells} cells of degree {degree} and {monomials} monomials in "
            f"{nvars} variables cost {cost}, over the build budget of {BUILD_BUDGET}"
        )


def check_custom_budget(factors: Sequence[int], terms: Sequence[LineBundleSum]) -> None:
    """Refuse a custom spec over BUILD_BUDGET before its ring or maps exist: it
    costs the cells of f and g, its term ranks times the factor count (the
    label width), and the ring's variable count."""
    ra, rm, rc = (term.rank for term in terms)
    nvars = sum(n + 1 for n in factors)
    cost = rm * (ra + rc) + (ra + rm + rc) * len(factors) + nvars
    if cost > BUILD_BUDGET:
        raise ValueError(
            f"term ranks {ra}, {rm}, {rc} over {len(factors)} factors in {nvars} "
            f"variables cost {cost}, over the build budget of {BUILD_BUDGET}"
        )


def nu(copies: Sequence[int]) -> int:
    """Band count for a product with copies[i] factors of dimension 2i+1.

    Equals prod(n_i + 1) // 2 - 1 over all factors.  Zero entries are
    allowed; a vector naming no factor at all is rejected.
    """
    copies = tuple(int(c) for c in copies)
    if any(c < 0 for c in copies):
        raise ValueError(f"negative copy count in {copies}")
    total = 1
    for i, c in enumerate(copies):
        total *= (2 * i + 2) ** c
    if total % 2:
        raise ValueError("at least one factor is required")
    return total // 2 - 1


def copies_to_factors(copies: Sequence[int]) -> tuple[int, ...]:
    """Expand a copy vector into the ascending tuple of factor dimensions.

    A vector with more than BUILD_BUDGET Segre coordinates is refused before
    it is expanded: no section3 monad on its product fits the budget.
    """
    copies = tuple(int(c) for c in copies)
    if any(c < 0 for c in copies):
        raise ValueError(f"negative copy count in {copies}")
    _segre_count(2 * i + 1 for i, c in enumerate(copies) for _ in range(c))
    return tuple(2 * i + 1 for i, c in enumerate(copies) for _ in range(c))


def floystad_check(a: int, b: int, c: int, n: int) -> tuple[bool, bool]:
    """Existence conditions (cond1, cond2) for a linear monad with term ranks (a, b, c).

    Condition 1: b >= a + c and b >= 2c + n - 1.
    Condition 2: b >= a + c + n.
    """
    if min(a, b, c) < 0 or n < 1:
        raise ValueError("ranks must be >= 0 and the dimension >= 1")
    return b >= a + c and b >= 2 * c + n - 1, b >= a + c + n


# ---------------------------------------------------------------------------
# monad specs

@dataclass(frozen=True)
class MonadSpec:
    """A concrete monad instance: terms, maps, and verification metadata.

    The terms and parameters are fixed at construction; the maps and the
    rank witnesses are derived values.  `make_maps` is called the first
    time map_f or map_g is read, `make_witnesses` the first time
    witness_families or witnesses is, and each result is kept, so a command
    that reads only the terms lays out neither.

    map_f: A -> M and map_g: M -> C are stored rows = target summands,
    columns = source summands, so the composite is always mat_mul(g, f).
    Their shapes and row/column labels must equal the terms' ranks and
    expanded degree lists, which is checked when the maps are made.
    witness_families are the ordered symbol families for rank witnesses,
    and witnesses the ("f" or "g", witness) pairs that `verify_monad`
    checks for the family symbols they name.  stability_certificates holds
    the certificates computed for this spec, so they live no longer than it.
    """

    family: str
    space: ProductSpace
    ring: CoordinateRing
    term_a: LineBundleSum
    term_m: LineBundleSum
    term_c: LineBundleSum
    params: tuple[tuple[str, object], ...]
    default_polarization: MultiDegree
    default_constraint: str  # "per-group-negative" | "total-negative"
    make_maps: Callable[[], Maps] = field(repr=False, compare=False)
    make_witnesses: Callable[[], Witnesses] = field(repr=False, compare=False)
    notes: tuple[str, ...] = ()

    def __post_init__(self):
        ra, rm, rc = self.term_a.rank, self.term_m.rank, self.term_c.rank
        if rm < ra + rc:
            raise ValueError(f"middle rank {rm} below {ra} + {rc}")
        l = self.space.picard_rank
        if len(self.default_polarization) != l:
            raise ValueError("polarization length mismatch")

    @functools.cached_property
    def _maps(self) -> Maps:
        map_f, map_g = self.make_maps()
        ra, rm, rc = self.term_a.rank, self.term_m.rank, self.term_c.rank
        if (map_f.nrows, map_f.ncols) != (rm, ra):
            raise ValueError("map_f shape does not match term ranks")
        if (map_g.nrows, map_g.ncols) != (rc, rm):
            raise ValueError("map_g shape does not match term ranks")
        deg_a = tuple(self.term_a.degrees())
        deg_m = tuple(self.term_m.degrees())
        deg_c = tuple(self.term_c.degrees())
        if map_f.row_labels != deg_m or map_f.col_labels != deg_a:
            raise ValueError("map_f labels do not match term degrees")
        if map_g.row_labels != deg_c or map_g.col_labels != deg_m:
            raise ValueError("map_g labels do not match term degrees")
        return map_f, map_g

    @property
    def map_f(self) -> MonadMatrix:
        return self._maps[0]

    @property
    def map_g(self) -> MonadMatrix:
        return self._maps[1]

    @functools.cached_property
    def _witnesses(self) -> Witnesses:
        return self.make_witnesses()

    @property
    def witness_families(self) -> tuple[WitnessFamily, ...]:
        return self._witnesses[0]

    @property
    def witnesses(self) -> tuple[tuple[str, TriangularWitness], ...]:
        return self._witnesses[1]

    @functools.cached_property
    def stability_certificates(self) -> dict:
        """The stability certificates of this spec by (polarization, constraint), as computed.

        Filled by their one caller, `cli._stability_result`, so the
        simplicity and stability documents of one spec share a certificate.
        """
        return {}

    @property
    def instance_id(self) -> str:
        bits = [self.family]
        for name, value in self.params:
            if isinstance(value, tuple):
                bits.append(f"{name}{'x'.join(str(v) for v in value)}")
            elif name == "name":
                bits.append(str(value))
            else:
                bits.append(f"{name}{value}")
        return "-".join(bits)


def _ladder_maps(
    ring: CoordinateRing,
    k: int,
    deg_a: MultiDegree,
    deg_c: MultiDegree,
    blocks: Sequence[tuple[MultiDegree, Sequence[SparsePoly], Sequence[SparsePoly]]],
) -> Maps:
    """The maps f, g of k shifted copies of ladder blocks.

    A block (deg, e_0..e_t, h_0..h_t) takes t+k middle summands of degree
    `deg`.  Row j of g carries e_0..e_t from the block's column j; column
    j of f carries h_t..h_0 down from the block's row j.  Entry (i, j) of
    g*f then sums e_s * h_{t-s+j-i} over each block, so a block (e, h)
    followed by one with entry products -h_s * e_r, such as (h, -e) or
    (-h, e), cancels in g*f for every k.
    """
    pad = [ring.zero()] * (k - 1)
    g_rows = [[] for _ in range(k)]
    f_cols = [[] for _ in range(k)]
    labels = []
    for deg, e, h in blocks:
        for j in range(k):
            g_rows[j] += [*pad[:j], *e, *pad[j:]]
            f_cols[j] += [*pad[:j], *h[::-1], *pad[j:]]
        labels += [deg] * (len(e) - 1 + k)
    map_g = MonadMatrix(ring, g_rows, [deg_c] * k, labels)
    map_f = MonadMatrix(ring, zip(*f_cols), labels, [deg_a] * k)
    return map_f, map_g


def _staircases(
    k: int, blocks: Sequence[tuple[tuple[str, ...], tuple[str, ...]]]
) -> tuple[tuple[str, TriangularWitness], ...]:
    """The rank witnesses of the maps `_ladder_maps` lays out from the same blocks.

    Index arithmetic only: a block is given by the names of the witness
    symbols its entries e_0..e_t and h_0..h_t are powers of.  With `off`
    the block's first middle summand, e_s heads the staircase of g on rows
    0..k-1 and columns off+s.., h_s the one of f on rows off+t-s.. and
    columns 0..k-1; below the diagonal sit the block's entries s-k+1..s-1
    and zeros, so those names are the guards.
    """
    witnesses = []
    diagonal = tuple(range(k))
    off = 0
    for e_names, h_names in blocks:
        t = len(e_names) - 1
        window = tuple(range(off, off + t + k))  # the block's middle summands
        for s in range(t + 1):
            low = s - k + 1 if s >= k else 0
            g_cols, f_rows = window[s : s + k], window[t - s : t - s + k]
            witnesses += (
                ("g", TriangularWitness(e_names[s], diagonal, g_cols, low == s, e_names[low:s])),
                ("f", TriangularWitness(h_names[s], f_rows, diagonal, low == s, h_names[low:s])),
            )
        off += t + k
    return tuple(witnesses)


def build_section3(space: ProductSpace, k: int) -> MonadSpec:
    """Band-ladder monad O(-1,..,-1)^k -> O^{2nu+2k} -> O(1,..,1)^k.

    Requires a product of at least two odd-dimensional factors.  The 2nu+2
    Segre coordinates z_t (one coordinate per factor, mixed-radix order) are
    split as x_t = z_t and y_t = z_{nu+1+t}; the two ladder blocks are
    (x, -y) and (y, x), so each x_a*y_b term in g*f meets its mirror.
    Each block takes nu+k middle summands, so M = O^{2nu+2k} is known from
    the factor dimensions; the Segre monomials, the maps and the witnesses
    are made on first read.

    The returned space groups its factors by dimension; those groups are the
    twist family the stability certificate quantifies over for this family.
    """
    factors = space.factors
    if len(factors) < 2:
        raise ValueError("a product of at least two factors is required")
    if any(n % 2 == 0 for n in factors):
        raise ValueError(f"all factor dimensions must be odd, got {factors}")
    if k < 1:
        raise ValueError("k must be >= 1")
    segre_count = _segre_count(factors)
    _check_budget(
        2 * k * (segre_count - 2 + 2 * k), len(factors), segre_count, sum(n + 1 for n in factors)
    )
    space = ProductSpace(factors, groups=dimension_blocks(factors))
    l = len(factors)
    ring = CoordinateRing(factors)
    half = segre_count // 2
    x_names = tuple(f"x{t}" for t in range(half))
    y_names = tuple(f"y{t}" for t in range(half))
    ones, zeros, neg_ones = (1,) * l, (0,) * l, (-1,) * l

    @functools.cache
    def symbols() -> tuple[WitnessSymbol, ...]:
        # mixed-radix order: the first factor most significant, the last
        # fastest; a Segre monomial is one unit exponent block per factor,
        # each laid at the factor's offset, which is the end of the one before
        monomials = [()]
        for n in factors:
            units = [(0,) * j + (1,) + (0,) * (n - j) for j in range(n + 1)]
            monomials = [mono + unit for mono in monomials for unit in units]
        return tuple(map(WitnessSymbol, x_names + y_names, monomials))

    def maps() -> Maps:
        segre = [SparsePoly(ring, {s.monomial: 1}) for s in symbols()]
        x, y = segre[:half], segre[half:]
        return _ladder_maps(ring, k, neg_ones, ones, [(zeros, x, [-p for p in y]), (zeros, y, x)])

    def witnesses() -> Witnesses:
        return (("segre", symbols()),), _staircases(k, [(x_names, y_names), (y_names, x_names)])

    return MonadSpec(
        family="section3",
        space=space,
        ring=ring,
        term_a=LineBundleSum([(neg_ones, k)]),
        term_m=LineBundleSum([(zeros, segre_count - 2 + 2 * k)]),
        term_c=LineBundleSum([(ones, k)]),
        params=(("dims", factors), ("k", k)),
        default_polarization=ones,
        default_constraint="per-group-negative",
        make_maps=maps,
        make_witnesses=witnesses,
        notes=(
            "middle coordinates are Segre monomials, mixed-radix order with the first factor most significant",
        ),
    )


def build_section4(
    n: int, m: int, l: int, alpha: int, beta: int, gamma: int, k: int
) -> MonadSpec:
    """Coordinate-power ladder monad on (P^n)^2 x (P^m)^2 x (P^l)^2.

    Factors carry coordinates u, v (dimension n), w, x (m), y, z (l).  Each
    factor pair with power p (alpha, beta, gamma) gives two ladder blocks,
    (u^p, v^p) and (v^p, -u^p) for the first pair; a block's middle summands
    have degree -p on its own factor (the one of its g entries) and 0
    elsewhere.  The block of factor f takes factors[f] + k middle summands,
    so M is known from the parameters; the coordinate powers, the maps and
    the witnesses are made on first read.

    Matrix entries are powers of single coordinates, so an entry's own
    multidegree lives in one factor while the block labels record the term
    degrees; per-entry degree consistency therefore fails by design here and
    is reported, not asserted.
    """
    if min(n, m, l, alpha, beta, gamma, k) < 1:
        raise ValueError("all parameters must be >= 1")
    # the coordinate powers and the witness families: two monomials per variable
    nvars = 2 * (n + m + l) + 6
    _check_budget(2 * k * (nvars - 6 + 6 * k), max(alpha, beta, gamma), 2 * nvars, nvars)
    factors = (n, n, m, m, l, l)
    letters = ("u", "v", "w", "x", "y", "z")
    space = ProductSpace(factors, groups=tuple((c, (i,)) for i, c in enumerate(letters)))
    ring = CoordinateRing(factors, letters=letters)
    c_deg = (alpha, alpha, beta, beta, gamma, gamma)
    a_deg = tuple(-d for d in c_deg)
    # the block of factor f: its g entries are powers of f's coordinates
    # and its f entries of its pair's, f ^ 1
    block_deg = [tuple(a_deg[f] if j == f else 0 for j in range(6)) for f in range(6)]
    names = [tuple(f"{c}{s}" for s in range(d + 1)) for c, d in zip(letters, factors)]

    def maps() -> Maps:
        powers = [
            [ring.variable(f, s) ** c_deg[f] for s in range(factors[f] + 1)] for f in range(6)
        ]
        # the second block of a pair negates its f entries, so the pair cancels in g*f
        blocks = [
            (block_deg[f], powers[f], [-p for p in powers[f ^ 1]] if f % 2 else powers[f ^ 1])
            for f in range(6)
        ]
        return _ladder_maps(ring, k, a_deg, c_deg, blocks)

    def witnesses() -> Witnesses:
        families = tuple(
            (c, tuple(
                WitnessSymbol(name=name, monomial=ring.unit_monomial([(i, s)]))
                for s, name in enumerate(names[i])
            ))
            for i, c in enumerate(letters)
        )
        return families, _staircases(k, [(names[f], names[f ^ 1]) for f in range(6)])

    return MonadSpec(
        family="section4",
        space=space,
        ring=ring,
        term_a=LineBundleSum([(a_deg, k)]),
        term_m=LineBundleSum([(block_deg[f], factors[f] + k) for f in range(6)]),
        term_c=LineBundleSum([(c_deg, k)]),
        params=(
            ("n", n), ("m", m), ("l", l),
            ("alpha", alpha), ("beta", beta), ("gamma", gamma), ("k", k),
        ),
        default_polarization=c_deg,
        default_constraint="total-negative",
        make_maps=maps,
        make_witnesses=witnesses,
        notes=(
            "entry_reading: coordinate-powers",
            "entry multidegrees live in a single factor; labels record summand degrees, so per-entry degree consistency fails by design",
        ),
    )


def zero_map(ring: CoordinateRing, target: LineBundleSum, source: LineBundleSum) -> MonadMatrix:
    """The zero map source -> target over `ring`, labelled with the terms' degrees."""
    row = [ring.zero()] * source.rank
    return MonadMatrix(ring, [row] * target.rank, target.degrees(), source.degrees())


def custom_monad(
    name: str,
    space: ProductSpace,
    term_a: LineBundleSum,
    term_m: LineBundleSum,
    term_c: LineBundleSum,
    map_f: MonadMatrix | None = None,
    map_g: MonadMatrix | None = None,
    polarization: MultiDegree | None = None,
    constraint: str = "per-group-negative",
    notes: tuple[str, ...] = (),
    witness_families: Sequence[WitnessFamily] = (),
    witnesses: Sequence[tuple[str, TriangularWitness]] = (),
) -> MonadSpec:
    """Wrap explicit terms, and optional matrices and rank witnesses, as a MonadSpec.

    Omitted maps default to zero matrices of the right shape; such a spec
    supports display and certificate arithmetic but will not verify.
    `witness_families` and `witnesses` are what `verify_monad` certifies
    the maps' rank with (see MonadSpec); `oracles.witness_by_scan` finds a
    witness by a whole-matrix search.  The maps are checked against the
    terms here, not on first read, so a spec whose labels do not match is
    refused at construction.  Specs over BUILD_BUDGET are refused.
    """
    slug = re.sub(r"[^a-z0-9]+", "-", name.lower()).strip("-")
    if not slug:
        raise ValueError("name must contain at least one alphanumeric character")
    check_custom_budget(space.factors, (term_a, term_m, term_c))
    ring = map_f.ring if map_f is not None else (
        map_g.ring if map_g is not None else CoordinateRing(space.factors)
    )
    if map_f is None:
        map_f = zero_map(ring, term_m, term_a)
    if map_g is None:
        map_g = zero_map(ring, term_c, term_m)
    if polarization is None:
        polarization = (1,) * space.picard_rank
    maps = (map_f, map_g)
    listed = (tuple(witness_families), tuple(witnesses))
    spec = MonadSpec(
        family="custom",
        space=space,
        ring=ring,
        term_a=term_a,
        term_m=term_m,
        term_c=term_c,
        params=(("name", slug),),
        default_polarization=tuple(polarization),
        default_constraint=constraint,
        make_maps=lambda: maps,
        make_witnesses=lambda: listed,
        notes=notes,
    )
    spec._maps  # the first read checks the maps against the terms
    return spec


# ---------------------------------------------------------------------------
# verification

@dataclass(frozen=True)
class FamilyCover:
    family: str
    witnesses: tuple[TriangularWitness, ...]
    missing: tuple[str, ...]
    complete: bool


@dataclass(frozen=True)
class MapEvidence:
    name: str
    rows: int
    cols: int
    required_rank: int
    degree_consistent: bool
    families: tuple[FamilyCover, ...]
    covering_family: str | None
    cover_complete: bool
    rank: RankEvidence
    rank_matches: bool


@dataclass(frozen=True)
class MonadReport:
    instance_id: str
    composite_zero: bool
    map_f: MapEvidence
    map_g: MapEvidence
    valid: bool
    notes: tuple[str, ...]


def _map_evidence(
    matrix: MonadMatrix,
    name: str,
    required_rank: int,
    families: Sequence[WitnessFamily],
    listed: dict[tuple[str, str], TriangularWitness],
    prime: int,
    trials: int,
    seed: int,
) -> MapEvidence:
    covers = []
    if required_rank > 0:
        for fam_name, symbols in families:
            witnesses = []
            missing = []
            earlier: dict[str, Monomial] = {}
            for sym in symbols:
                w = listed.get((name, sym.name))
                if w is not None and triangular_witness(matrix, w, required_rank, sym, earlier):
                    witnesses.append(w)
                else:
                    missing.append(sym.name)
                earlier.setdefault(sym.name, sym.monomial)
            covers.append(
                FamilyCover(fam_name, tuple(witnesses), tuple(missing), not missing)
            )
    covering = next((c.family for c in covers if c.complete), None)
    evidence = rank_at_random_points(matrix, prime=prime, trials=trials, seed=seed)
    return MapEvidence(
        name=name,
        rows=matrix.nrows,
        cols=matrix.ncols,
        required_rank=required_rank,
        degree_consistent=matrix.degree_consistent,
        families=tuple(covers),
        covering_family=covering,
        cover_complete=(required_rank == 0) or covering is not None,
        rank=evidence,
        rank_matches=evidence.max_rank_seen == required_rank,
    )


def verify_monad(
    spec: MonadSpec,
    prime: int = DEFAULT_PRIME,
    trials: int = DEFAULT_TRIALS,
    seed: int = 0,
) -> MonadReport:
    """Check the monad conditions exactly and assemble the evidence.

    Composite vanishing is symbolic.  Maximal rank everywhere is certified
    per map when some ordered witness family is fully covered, each of its
    symbols by a witness in `spec.witnesses` that `triangular_witness`
    accepts: at any point of the space the first nonvanishing family
    symbol's witness is triangular with unit diagonal there.  A family
    whose symbols all vanish at some point cannot cover; it is left out,
    with a note naming the point, and so is a family the bounded
    common-zero search cannot decide.  Randomized evaluation corroborates
    at `trials` sample points; failures are reported, never raised.
    """
    composite = mat_mul(spec.map_g, spec.map_f)
    listed = {(map_name, w.symbol): w for map_name, w in spec.witnesses}
    families = []
    notes = list(spec.notes)
    for family in spec.witness_families:
        try:
            zero = common_zero(spec.ring, [s.monomial for s in family[1]])
        except CommonZeroUndecided:
            notes.append(
                f"witness family {family[0]!r} not used: no common zero of its symbols "
                f"found or ruled out within {COMMON_ZERO_STEPS} search steps"
            )
            continue
        if zero is None:
            families.append(family)
        else:
            point = " x ".join(
                "[" + ":".join("1" if j == live else "0" for j in range(n + 1)) + "]"
                for n, live in zip(spec.ring.factors, zero)
            )
            notes.append(f"witness family {family[0]!r} not used: every symbol vanishes at {point}")
    ev_f = _map_evidence(spec.map_f, "f", spec.term_a.rank, families, listed, prime, trials, seed)
    ev_g = _map_evidence(spec.map_g, "g", spec.term_c.rank, families, listed, prime, trials, seed)
    valid = (
        composite.is_zero()
        and ev_f.cover_complete
        and ev_g.cover_complete
        and ev_f.rank_matches
        and ev_g.rank_matches
    )
    return MonadReport(
        instance_id=spec.instance_id,
        composite_zero=composite.is_zero(),
        map_f=ev_f,
        map_g=ev_g,
        valid=valid,
        notes=tuple(notes),
    )


@dataclass(frozen=True)
class DisplaySummary:
    """Ranks and first Chern classes of T = ker g, E = ker g / im f, Q = coker f."""

    rank_t: int
    c1_t: MultiDegree
    rank_e: int
    c1_e: MultiDegree
    rank_q: int
    c1_q: MultiDegree


def display_summary(spec: MonadSpec) -> DisplaySummary:
    """Whitney-sum arithmetic over the two short exact sequences of the display."""
    l = spec.space.picard_rank
    ra, rm, rc = spec.term_a.rank, spec.term_m.rank, spec.term_c.rank
    rank_t = rm - rc
    rank_e = rm - ra - rc
    rank_q = rm - ra
    if min(rank_t, rank_e, rank_q) < 0:
        raise ValueError(f"negative derived rank from ranks ({ra}, {rm}, {rc})")
    c1_a = spec.term_a.c1(l)
    c1_m = spec.term_m.c1(l)
    c1_c = spec.term_c.c1(l)
    c1_t = tuple(pm - pc for pm, pc in zip(c1_m, c1_c))
    c1_e = tuple(pt - pa for pt, pa in zip(c1_t, c1_a))
    c1_q = tuple(pm - pa for pm, pa in zip(c1_m, c1_a))
    return DisplaySummary(rank_t, c1_t, rank_e, c1_e, rank_q, c1_q)
