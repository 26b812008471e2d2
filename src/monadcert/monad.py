"""Explicit monad builders on products of projective spaces, plus validity reports.

A monad here is a three-term complex A --f--> M --g--> C of direct sums of
line bundles with g*f = 0, f everywhere injective, g everywhere surjective.
Two families are built: `section3` (band ladders of Segre coordinates over a
product of odd-dimensional factors, trivial middle term) and `section4`
(paired coordinate-power ladders on a product of three squared factors).
`verify_monad` checks the defining conditions exactly: symbolic composite,
triangular rank witnesses covering a pointwise-nonvanishing symbol family,
and randomized finite-field rank evidence.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Sequence

from .cohomology import LineBundleSum
from .polyring import (
    DEFAULT_PRIME,
    DEFAULT_TRIALS,
    CoordinateRing,
    MonadMatrix,
    RankEvidence,
    SparsePoly,
    TriangularWitness,
    WitnessSymbol,
    mat_mul,
    rank_at_random_points,
    triangular_witness,
)
from .space import MultiDegree, ProductSpace, dimension_blocks

WitnessFamily = tuple[str, tuple[WitnessSymbol, ...]]


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
    """Expand a copy vector into the ascending tuple of factor dimensions."""
    copies = tuple(int(c) for c in copies)
    if any(c < 0 for c in copies):
        raise ValueError(f"negative copy count in {copies}")
    dims = []
    for i, c in enumerate(copies):
        dims.extend([2 * i + 1] * c)
    return tuple(dims)


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

    map_f: A -> M and map_g: M -> C are stored rows = target summands,
    columns = source summands, so the composite is always mat_mul(g, f).
    Row/column labels must equal the corresponding term's expanded degree
    lists.  witness_families are the ordered symbol families used for rank
    witnesses; each family must be pointwise nonvanishing on the space.
    """

    family: str
    space: ProductSpace
    ring: CoordinateRing
    term_a: LineBundleSum
    term_m: LineBundleSum
    term_c: LineBundleSum
    map_f: MonadMatrix
    map_g: MonadMatrix
    params: tuple[tuple[str, object], ...]
    witness_families: tuple[WitnessFamily, ...]
    default_polarization: MultiDegree
    default_constraint: str  # "per-group-negative" | "total-negative"
    notes: tuple[str, ...] = ()

    def __post_init__(self):
        ra, rm, rc = self.term_a.rank, self.term_m.rank, self.term_c.rank
        if rm < ra + rc:
            raise ValueError(f"middle rank {rm} below {ra} + {rc}")
        if (self.map_f.nrows, self.map_f.ncols) != (rm, ra):
            raise ValueError("map_f shape does not match term ranks")
        if (self.map_g.nrows, self.map_g.ncols) != (rc, rm):
            raise ValueError("map_g shape does not match term ranks")
        deg_a = tuple(self.term_a.degrees())
        deg_m = tuple(self.term_m.degrees())
        deg_c = tuple(self.term_c.degrees())
        if self.map_f.row_labels != deg_m or self.map_f.col_labels != deg_a:
            raise ValueError("map_f labels do not match term degrees")
        if self.map_g.row_labels != deg_c or self.map_g.col_labels != deg_m:
            raise ValueError("map_g labels do not match term degrees")
        l = self.space.picard_rank
        if len(self.default_polarization) != l:
            raise ValueError("polarization length mismatch")

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


def build_section3(space: ProductSpace, k: int) -> MonadSpec:
    """Band-ladder monad O(-1,..,-1)^k -> O^{2nu+2k} -> O(1,..,1)^k.

    Requires a product of at least two odd-dimensional factors.  The 2nu+2
    Segre coordinates z_t (one coordinate per factor, mixed-radix order) are
    split as x_t = z_t and y_t = z_{nu+1+t}.  Row i of the right map g
    carries x_0..x_nu ascending from column i of the x-block and y_0..y_nu
    ascending from column i of the y-block.  Column j of the left map f
    carries -y_nu..-y_0 down from row j and x_nu..x_0 down from row nu+k+j:
    the reversed ladders pair each x_a*y_b term in g*f against its mirror,
    so the composite cancels identically for every k.

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
    space = ProductSpace(factors, groups=dimension_blocks(factors))
    l = len(factors)
    ring = CoordinateRing(factors)
    # mixed-radix order: the first factor most significant, the last fastest
    coords = list(itertools.product(*(range(n + 1) for n in factors)))
    v = len(coords) // 2 - 1
    width = v + k  # columns per ladder block
    rank_m = 2 * v + 2 * k

    segre = [SparsePoly(ring, {ring.unit_monomial(enumerate(c)): 1}) for c in coords]
    x = segre[: v + 1]
    y = segre[v + 1 :]
    zero = ring.zero()

    ones = (1,) * l
    zeros = (0,) * l
    neg_ones = (-1,) * l

    g_rows = []
    for i in range(k):
        row = [zero] * rank_m
        for s in range(v + 1):
            row[s + i] = x[s]
            row[width + s + i] = y[s]
        g_rows.append(row)
    map_g = MonadMatrix(ring, g_rows, [ones] * k, [zeros] * rank_m)

    f_rows = [[zero] * k for _ in range(rank_m)]
    for j in range(k):
        for s in range(v + 1):
            f_rows[j + v - s][j] = -y[s]
            f_rows[width + j + v - s][j] = x[s]
    map_f = MonadMatrix(ring, f_rows, [zeros] * rank_m, [neg_ones] * k)

    symbols = tuple(
        WitnessSymbol(
            name=(f"x{t}" if t <= v else f"y{t - v - 1}"),
            monomial=next(iter(segre[t].terms)),
        )
        for t in range(2 * v + 2)
    )

    return MonadSpec(
        family="section3",
        space=space,
        ring=ring,
        term_a=LineBundleSum([(neg_ones, k)]),
        term_m=LineBundleSum([(zeros, rank_m)]),
        term_c=LineBundleSum([(ones, k)]),
        map_f=map_f,
        map_g=map_g,
        params=(("dims", factors), ("k", k)),
        witness_families=(("segre", symbols),),
        default_polarization=ones,
        default_constraint="per-group-negative",
        notes=(
            "middle coordinates are Segre monomials, mixed-radix order with the first factor most significant",
        ),
    )


def build_section4(
    n: int, m: int, l: int, alpha: int, beta: int, gamma: int, k: int
) -> MonadSpec:
    """Coordinate-power ladder monad on (P^n)^2 x (P^m)^2 x (P^l)^2.

    Factors carry coordinates u, v (dimension n), w, x (m), y, z (l).  The
    middle term has six blocks U, V, W, X, Y, Z of sizes n+k, n+k, m+k, m+k,
    l+k, l+k with summand degrees -alpha (resp. -beta, -gamma) on the block's
    own factor and 0 elsewhere.  Row j of g carries the block's own
    coordinates to the power alpha/beta/gamma, ascending from column j of
    each block; column j of f carries the partner factor's coordinates
    descending (+v, -u, +x, -w, +z, -y), so the composite cancels in pairs.

    Matrix entries are powers of single coordinates, so an entry's own
    multidegree lives in one factor while the block labels record the term
    degrees; per-entry degree consistency therefore fails by design here and
    is reported, not asserted.
    """
    if min(n, m, l, alpha, beta, gamma, k) < 1:
        raise ValueError("all parameters must be >= 1")
    factors = (n, n, m, m, l, l)
    letters = ("u", "v", "w", "x", "y", "z")
    space = ProductSpace(factors, groups=tuple((c, (i,)) for i, c in enumerate(letters)))
    ring = CoordinateRing(factors, letters=letters)
    zero = ring.zero()

    # per block: (own factor, partner factor, dimension, power, sign of f entry)
    blocks = (
        (0, 1, n, alpha, 1),
        (1, 0, n, alpha, -1),
        (2, 3, m, beta, 1),
        (3, 2, m, beta, -1),
        (4, 5, l, gamma, 1),
        (5, 4, l, gamma, -1),
    )
    m_summands = []
    offsets = []
    off = 0
    for own, _, dim, power, _ in blocks:
        deg = [0] * 6
        deg[own] = -power
        m_summands.append((tuple(deg), dim + k))
        offsets.append(off)
        off += dim + k
    rank_m = off

    a_deg = (-alpha, -alpha, -beta, -beta, -gamma, -gamma)
    c_deg = (alpha, alpha, beta, beta, gamma, gamma)

    g_rows = [[zero] * rank_m for _ in range(k)]
    f_rows = [[zero] * k for _ in range(rank_m)]
    for (own, partner, dim, power, sign), off in zip(blocks, offsets):
        for j in range(k):
            for s in range(dim + 1):
                g_rows[j][off + s + j] = ring.variable(own, s) ** power
                f_rows[off + j + dim - s][j] = sign * (ring.variable(partner, s) ** power)

    term_a = LineBundleSum([(a_deg, k)])
    term_m = LineBundleSum(m_summands)
    term_c = LineBundleSum([(c_deg, k)])
    map_g = MonadMatrix(ring, g_rows, [c_deg] * k, term_m.degrees())
    map_f = MonadMatrix(ring, f_rows, term_m.degrees(), [a_deg] * k)

    families = tuple(
        (
            c,
            tuple(
                WitnessSymbol(name=f"{c}{s}", monomial=ring.unit_monomial([(i, s)]))
                for s in range(factors[i] + 1)
            ),
        )
        for i, c in enumerate(letters)
    )

    return MonadSpec(
        family="section4",
        space=space,
        ring=ring,
        term_a=term_a,
        term_m=term_m,
        term_c=term_c,
        map_f=map_f,
        map_g=map_g,
        params=(
            ("n", n), ("m", m), ("l", l),
            ("alpha", alpha), ("beta", beta), ("gamma", gamma), ("k", k),
        ),
        witness_families=families,
        default_polarization=c_deg,
        default_constraint="total-negative",
        notes=(
            "entry_reading: coordinate-powers",
            "entry multidegrees live in a single factor; labels record summand degrees, so per-entry degree consistency fails by design",
        ),
    )


def zero_map(ring: CoordinateRing, target: LineBundleSum, source: LineBundleSum) -> MonadMatrix:
    """The zero map source -> target over `ring`, labelled with the terms' degrees."""
    zero = ring.zero()
    return MonadMatrix(
        ring, [[zero] * source.rank for _ in range(target.rank)], target.degrees(), source.degrees()
    )


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
    witness_families: tuple[WitnessFamily, ...] = (),
    notes: tuple[str, ...] = (),
) -> MonadSpec:
    """Wrap explicit terms (and optional matrices) as a MonadSpec.

    Omitted maps default to zero matrices of the right shape; such a spec
    supports display and certificate arithmetic but will not verify.
    """
    slug = re.sub(r"[^a-z0-9]+", "-", name.lower()).strip("-")
    if not slug:
        raise ValueError("name must contain at least one alphanumeric character")
    ring = map_f.ring if map_f is not None else (
        map_g.ring if map_g is not None else CoordinateRing(space.factors)
    )
    if map_f is None:
        map_f = zero_map(ring, term_m, term_a)
    if map_g is None:
        map_g = zero_map(ring, term_c, term_m)
    if polarization is None:
        polarization = (1,) * space.picard_rank
    return MonadSpec(
        family="custom",
        space=space,
        ring=ring,
        term_a=term_a,
        term_m=term_m,
        term_c=term_c,
        map_f=map_f,
        map_g=map_g,
        params=(("name", slug),),
        witness_families=witness_families,
        default_polarization=tuple(polarization),
        default_constraint=constraint,
        notes=notes,
    )


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
    families: tuple[WitnessFamily, ...],
    prime: int,
    trials: int,
    seed: int,
) -> MapEvidence:
    covers = []
    if required_rank > 0:
        for fam_name, symbols in families:
            witnesses = []
            missing = []
            for sym in symbols:
                w = triangular_witness(matrix, sym, required_rank, symbols)
                if w is None:
                    missing.append(sym.name)
                else:
                    witnesses.append(w)
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
    per map when some ordered witness family is fully covered: at any point
    of the space the first nonvanishing family symbol's witness is
    triangular with unit diagonal there.  Randomized evaluation corroborates
    at `trials` sample points; failures are reported, never raised.
    """
    composite = mat_mul(spec.map_g, spec.map_f)
    ev_f = _map_evidence(
        spec.map_f, "f", spec.term_a.rank, spec.witness_families, prime, trials, seed
    )
    ev_g = _map_evidence(
        spec.map_g, "g", spec.term_c.rank, spec.witness_families, prime, trials, seed
    )
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
        notes=spec.notes,
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
