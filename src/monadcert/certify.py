"""Stability and simplicity certificates for monad kernel and cohomology bundles.

Stability follows the twisted-exterior-power route: h^0 of Lambda^q T twisted
by B injects into h^0 of the twisted exterior power of the middle term, which
is a sum of line bundles, so exact vanishing over a constrained twist family
reduces to a sign condition on subset-sums of middle degrees: q fails iff
some q-subset has every constrained sum (the total, or one per group) >= 1.
One DP over the summand degrees, with states (subset size, constrained sums
of the subset), decides and witnesses every q at once.  It drops a state as
soon as some sum cannot reach 1 even with every remaining positive
contribution taken in full, which is the most the remaining summands can
add, so the pruning is exact.  Each state keeps the lexicographically least
full subset sum t_S reaching it, so the least one over the surviving states
at size q is the witness for q: the lexicographically first violated t_S.
Simplicity chases dimensions through the dual kernel sequence.  Certificates
only ever claim what was actually checked; any gap degrades the verdict,
never the other way around.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

from .cohomology import LineBundleSum, h_sum
from .monad import MonadSpec, display_summary
from .space import (
    MultiDegree,
    ProductSpace,
    check_polarization,
    degree,
    normalizing_twist,
    slope,
    vneg,
)


class TwistMode(enum.Enum):
    """Constraint defining the twist family a certificate quantifies over.

    PER_GROUP_NEGATIVE: every group's component sum is < 0 (group partition
    taken from the space).  TOTAL_NEGATIVE: the total component sum is < 0.
    """

    PER_GROUP_NEGATIVE = "per-group-negative"
    TOTAL_NEGATIVE = "total-negative"


@dataclass(frozen=True)
class QResult:
    """Verdict for one exterior power q, with the witness when it fails."""

    q: int
    passed: bool
    witness_twist: MultiDegree | None
    witness_profile: MultiDegree | None


def _per_q(
    x: ProductSpace, middle: LineBundleSum, q_max: int, constraint: TwistMode
) -> tuple[QResult, ...]:
    """The verdict and witness of every q in 1..q_max, from one DP.

    One step per summand degree, over states (count, constrained sums); each
    state keeps the lexicographically least full sum t_S of a subset reaching
    it.  Every completion adds the same vector to all subsets of a state, and
    lexicographic order is invariant under translation, so keeping the least
    is exact.  A state is dropped as soon as one of its sums stays below 1
    even if every later summand with a positive entry there is taken in
    full; that headroom is the most the rest can add, so no violating subset
    is ever dropped.  After the last summand the headroom is zero, so every
    surviving state is violated.
    """
    # the factor indices of each sum the twist family bounds
    if constraint is TwistMode.TOTAL_NEGATIVE:
        bounded = (range(x.picard_rank),)
    else:
        bounded = tuple(idx for _, idx in x.groups)
    steps = [
        (deg, mult, tuple(sum([deg[i] for i in idx]) for idx in bounded))
        for deg, mult in middle.summands
    ]
    width = len(bounded)
    # headroom[i]: the largest amount summands i.. can add to each sum
    headroom = [(0,) * width]
    for _, mult, p in reversed(steps):
        headroom.append(tuple(h + mult * max(v, 0) for h, v in zip(headroom[-1], p)))
    headroom.reverse()
    states = {(0, (0,) * width): (0,) * x.picard_rank}
    for (deg, mult, p), room in zip(steps, headroom[1:]):
        nxt: dict[tuple[int, tuple[int, ...]], MultiDegree] = {}
        for (c, sums), t_s in states.items():
            for e in range(0, min(mult, q_max - c) + 1):
                if e:
                    sums = tuple(s + v for s, v in zip(sums, p))
                if all(s + r >= 1 for s, r in zip(sums, room)):
                    key = (c + e, sums)
                    full = tuple(t + e * d for t, d in zip(t_s, deg))
                    least = nxt.get(key)
                    if least is None or full < least:
                        nxt[key] = full
        states = nxt
        if not states:
            break
    witness: dict[int, MultiDegree] = {}
    for (c, _), t_s in states.items():
        if c not in witness or t_s < witness[c]:
            witness[c] = t_s
    return tuple(
        QResult(q, False, vneg(witness[q]), witness[q]) if q in witness
        else QResult(q, True, None, None)
        for q in range(1, q_max + 1)
    )


def vanishing_all_twists(
    x: ProductSpace,
    middle: LineBundleSum,
    q: int,
    constraint: TwistMode,
) -> QResult:
    """Decide h^0(Lambda^q(middle)(B)) = 0 for every twist B in the family.

    The exterior power of a sum of line bundles splits into one line bundle
    per q-subset, with degree the subset-sum t_S; a global section exists for
    some admissible B iff B + t_S >= 0 componentwise for some subset.  The
    componentwise-minimal candidate B = -t_S decides each subset exactly, so
    the check is exhaustive over the (infinite) twist family: q fails iff
    some q-subset has every constrained sum of t_S (the total, or one per
    group) >= 1.

    That is decided without listing the subset sums, by the DP of _per_q
    run up to q.  On failure the witness is the lexicographically least
    violated t_S, the least full sum kept by a surviving state at count q,
    returned with the twist B = -t_S.
    """
    if not 1 <= q <= middle.rank - 1:
        raise ValueError(f"q must lie in 1..{middle.rank - 1}, got {q}")
    for deg, _ in middle.summands:
        x.check_degree(deg)
    return _per_q(x, middle, q, constraint)[-1]


# ---------------------------------------------------------------------------
# stability

@dataclass(frozen=True)
class StabilityCertificate:
    """Record of the twisted-exterior-power vanishing run for T = ker g.

    verdict: "stable" (every q passed and deg_t < 0), "fails" (some q has a
    witness twist), or "unsupported" (deg_t >= 0: the trivial-normalization
    argument does not apply and no verdict is claimed).
    """

    instance_id: str
    polarization: MultiDegree
    constraint: str
    groups: tuple[tuple[str, tuple[int, ...]], ...]
    rank_t: int
    c1_t: MultiDegree
    degree_t: int
    slope_t: Fraction
    k_e: int
    per_q: tuple[QResult, ...]
    verdict: str
    twist_family: str


def _twist_family_text(x: ProductSpace, constraint: TwistMode) -> str:
    if constraint is TwistMode.TOTAL_NEGATIVE:
        return "all twists B with total degree sum < 0"
    names = ", ".join(name for name, _ in x.groups)
    return f"all twists B with each group sum < 0 over groups ({names})"


def stability_certificate(
    spec: MonadSpec,
    polarization: MultiDegree | None = None,
    constraint: TwistMode | None = None,
) -> StabilityCertificate:
    """Certify slope stability of the kernel bundle over a constrained twist family.

    Checks h^0((Lambda^q T)(B)) = 0 for all q in 1..rank(T)-1 and all B in
    the family, via the injection into the twisted exterior power of the
    middle term.  The certificate names the family checked; it never claims
    vanishing for twists outside it.
    """
    x = spec.space
    if polarization is None:
        polarization = spec.default_polarization
    polarization = tuple(polarization)
    if constraint is None:
        constraint = TwistMode(spec.default_constraint)
    check_polarization(x, polarization)
    summary = display_summary(spec)
    rank_t, c1_t = summary.rank_t, summary.c1_t
    if rank_t < 1:
        raise ValueError("kernel rank must be >= 1")
    deg_t = degree(x, polarization, c1_t)
    slope_t = slope(deg_t, rank_t)
    k_e = normalizing_twist(x, polarization, deg_t, rank_t)
    base = dict(
        instance_id=spec.instance_id,
        polarization=polarization,
        constraint=constraint.value,
        groups=x.groups,
        rank_t=rank_t,
        c1_t=c1_t,
        degree_t=deg_t,
        slope_t=slope_t,
        k_e=k_e,
        twist_family=_twist_family_text(x, constraint),
    )
    if deg_t >= 0:
        return StabilityCertificate(per_q=(), verdict="unsupported", **base)
    per_q = _per_q(x, spec.term_m, rank_t - 1, constraint)
    verdict = "stable" if all(r.passed for r in per_q) else "fails"
    return StabilityCertificate(per_q=per_q, verdict=verdict, **base)


# ---------------------------------------------------------------------------
# simplicity

@dataclass(frozen=True)
class LesStep:
    """One squeeze 0 -> A -> M -> T -> 0: h^p(T) = 0 forced by the neighbors."""

    p: int
    h_middle: int
    h_first_next: int
    forced: bool


def les_vanish(
    x: ProductSpace, first: LineBundleSum, middle: LineBundleSum, p: int
) -> LesStep:
    """Forced vanishing of h^p(third) in 0 -> first -> middle -> third -> 0.

    Exactness gives h^p(third) = 0 whenever h^p(middle) = 0 and
    h^{p+1}(first) = 0; anything else leaves the third term undetermined
    from these two values alone.
    """
    h_m = h_sum(x, middle, p)
    h_a = h_sum(x, first, p + 1)
    return LesStep(p=p, h_middle=h_m, h_first_next=h_a, forced=(h_m == 0 and h_a == 0))


@dataclass(frozen=True)
class SimplicityCertificate:
    """Record of the endomorphism-count chase for the cohomology bundle E.

    Premise: a stable kernel is simple, so h^0(T tensor T^*) = 1.  The two
    recorded steps force h^0 and h^1 of the twisted dual kernel to vanish;
    together they pin h^0(E tensor E^*) between 1 and 1.  verdict "simple"
    iff both steps are forced; any gap yields "inconclusive".
    """

    instance_id: str
    twist: MultiDegree
    premise: str
    steps: tuple[LesStep, ...]
    chain: str
    verdict: str
    h0_endo: int | None


def simplicity_certificate(
    spec: MonadSpec, stability: StabilityCertificate
) -> SimplicityCertificate:
    """Conclude h^0(E tensor E^*) = 1 from a stable kernel, or report the gap.

    Uses the dual kernel sequence 0 -> C^dual -> M^dual -> T^dual -> 0
    twisted by the negative of the right term's summand degree, and demands
    forced vanishing of h^0 and h^1 of the twisted T^dual.
    """
    if stability.instance_id != spec.instance_id:
        raise ValueError(
            f"stability certificate is for {stability.instance_id}, not {spec.instance_id}"
        )
    if stability.verdict != "stable":
        raise ValueError("simplicity requires a stable kernel certificate")
    degs = {d for d, _ in spec.term_c.summands}
    if len(degs) != 1:
        raise ValueError("right term must have a single summand degree")
    twist = vneg(degs.pop())
    x = spec.space
    first = spec.term_c.dual().twist(twist)
    middle = spec.term_m.dual().twist(twist)
    steps = (les_vanish(x, first, middle, 0), les_vanish(x, first, middle, 1))
    concluded = all(step.forced for step in steps)
    return SimplicityCertificate(
        instance_id=spec.instance_id,
        twist=twist,
        premise="h0(T.T*) = 1: a stable bundle is simple",
        steps=steps,
        chain="1 <= h0(T.T*) <= h0(E.E*) <= h0(E.T*) <= 1",
        verdict="simple" if concluded else "inconclusive",
        h0_endo=1 if concluded else None,
    )
