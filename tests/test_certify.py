"""Stability and simplicity certificates.

The vanishing decision is cross-checked by oracles.check_vanishing against
oracles.vanishing_by_enumeration, which tries every twist in a box against
every explicit subset, and its witnesses against oracles.first_violated.
"""

import math
import random
from fractions import Fraction

import pytest

from monadcert.certify import (
    TwistMode,
    les_vanish,
    simplicity_certificate,
    stability_certificate,
    vanishing_all_twists,
)
from monadcert.cohomology import LineBundleSum, exterior_power, h_sum
from monadcert.monad import build_section3, build_section4, custom_monad
from monadcert.oracles import (
    check_vanishing,
    first_violated,
    random_groups,
    vanishing_by_enumeration,
)
from monadcert.space import ProductSpace, vneg


def counterexample_spec():
    return custom_monad(
        "O11 counterexample",
        ProductSpace((1, 1)),
        LineBundleSum([((-1, -1), 1)]),
        LineBundleSum([((1, 1), 1), ((-2, -2), 2), ((0, 0), 1)]),
        LineBundleSum([((1, 1), 1)]),
    )


def gap_spec():
    return custom_monad(
        "simplicity gap",
        ProductSpace((1, 1)),
        LineBundleSum([((-1, -1), 1)]),
        LineBundleSum([((-3, -3), 1), ((0, 0), 5)]),
        LineBundleSum([((1, 1), 1)]),
    )


# ---------------------------------------------------------------------------
# vanishing decision


def test_twist_modes():
    assert TwistMode("per-group-negative") is TwistMode.PER_GROUP_NEGATIVE
    assert TwistMode("total-negative") is TwistMode.TOTAL_NEGATIVE


def test_vanishing_micro_cases():
    x = ProductSpace((1, 1))
    neutral = LineBundleSum([((0, 0), 3)])
    res = vanishing_all_twists(x, neutral, 1, TwistMode.PER_GROUP_NEGATIVE)
    assert res.passed

    spiked = LineBundleSum([((1, 1), 1), ((0, 0), 2)])
    res = vanishing_all_twists(x, spiked, 1, TwistMode.PER_GROUP_NEGATIVE)
    assert not res.passed
    assert res.witness_twist == (-1, -1)
    assert res.witness_profile == (1, 1)

    # total mode admits lopsided twists that the per-group family forbids
    tilted = LineBundleSum([((2, -1), 1), ((0, 0), 2)])
    per_group = vanishing_all_twists(x, tilted, 1, TwistMode.PER_GROUP_NEGATIVE)
    total = vanishing_all_twists(x, tilted, 1, TwistMode.TOTAL_NEGATIVE)
    assert per_group.passed
    assert not total.passed


def test_vanishing_witness_has_a_section():
    # any reported witness must produce an actual global section
    x = ProductSpace((1, 1))
    spiked = LineBundleSum([((1, 1), 1), ((0, 0), 2)])
    res = vanishing_all_twists(x, spiked, 1, TwistMode.PER_GROUP_NEGATIVE)
    lam = exterior_power(spiked, res.q).twist(res.witness_twist)
    assert h_sum(x, lam, 0) >= 1


def test_vanishing_profile_counts():
    # the subset-sum profiles are the summands of the exterior power
    x = ProductSpace((1, 3))
    middle = LineBundleSum([((0, 0), 8)])
    res = vanishing_all_twists(x, middle, 3, TwistMode.PER_GROUP_NEGATIVE)
    assert res.passed
    profiles = exterior_power(middle, 3).summands
    assert sum(count for _, count in profiles) == math.comb(8, 3)
    assert profiles[0][0] == (0, 0)


def test_vanishing_input_validation():
    x = ProductSpace((1, 1))
    g = LineBundleSum([((0, 0), 3)])
    with pytest.raises(ValueError):
        vanishing_all_twists(x, g, 0, TwistMode.PER_GROUP_NEGATIVE)
    with pytest.raises(ValueError):
        vanishing_all_twists(x, g, 3, TwistMode.PER_GROUP_NEGATIVE)
    with pytest.raises(ValueError):
        vanishing_all_twists(
            x, LineBundleSum([((0, 0, 0), 3)]), 1, TwistMode.PER_GROUP_NEGATIVE
        )
    big = LineBundleSum([((0, 0), 17)])
    with pytest.raises(ValueError):
        vanishing_by_enumeration(x, big, 1, TwistMode.PER_GROUP_NEGATIVE)


def test_vanishing_matches_enumeration():
    # dimensions 1..2 under every grouping, at least 450 (q, mode) decisions
    decisions, grouped = check_vanishing(seed=424, draws=85, dim_max=2, mult_max=2)
    assert decisions >= 450 and grouped >= 20


def test_stability_certificate_matches_per_q_decision():
    # the all-q DP of the certificate against the exterior-power scan, per q
    rng = random.Random(515)
    verdicts = []
    for _ in range(60):
        l = rng.randint(1, 3)
        x = ProductSpace(tuple(rng.randint(1, 3) for _ in range(l)), random_groups(rng, l))
        middle = LineBundleSum(
            [
                (tuple(rng.randint(-3, 2) for _ in range(l)), rng.randint(1, 3))
                for _ in range(rng.randint(1, 4))
            ]
        )
        if middle.rank < 3:
            continue
        spec = custom_monad(
            "random middle",
            x,
            LineBundleSum([((-3,) * l, 1)]),
            middle,
            LineBundleSum([((2,) * l, 1)]),
        )
        for mode in TwistMode:
            cert = stability_certificate(spec, polarization=(1,) * l, constraint=mode)
            verdicts.append(cert.verdict)
            if cert.verdict == "unsupported":
                continue
            assert [r.q for r in cert.per_q] == list(range(1, cert.rank_t))
            for r in cert.per_q:
                t_s = first_violated(x, spec.term_m, r.q, mode)
                assert r.passed == (t_s is None)
                assert r.witness_profile == t_s
                assert r.witness_twist == (None if t_s is None else vneg(t_s))
            assert cert.verdict == ("stable" if all(r.passed for r in cert.per_q) else "fails")
    assert verdicts.count("stable") >= 10 and verdicts.count("fails") >= 10


# ---------------------------------------------------------------------------
# stability


def test_stability_frozen_section3():
    s = build_section3(ProductSpace((1, 3)), 1)
    cert = stability_certificate(s)
    assert cert.instance_id == "section3-dims1x3-k1"
    assert cert.verdict == "stable"
    assert cert.rank_t == 7
    assert cert.c1_t == (-1, -1)
    assert cert.degree_t == -4
    assert cert.slope_t == Fraction(-4, 7)
    assert cert.k_e == 0
    assert cert.constraint == "per-group-negative"
    assert [q.q for q in cert.per_q] == [1, 2, 3, 4, 5, 6]
    assert all(q.passed for q in cert.per_q)
    assert cert.twist_family == (
        "all twists B with each group sum < 0 over groups (P1, P3)"
    )


def test_stability_frozen_section4():
    s = build_section4(1, 1, 1, 1, 1, 1, 1)
    cert = stability_certificate(s)
    assert cert.verdict == "stable"
    assert cert.rank_t == 11
    assert cert.c1_t == (-3,) * 6
    assert cert.degree_t == -2160
    assert cert.k_e == -1


def test_stability_large_section4_rung():
    s = build_section4(5, 5, 5, 1, 2, 3, 3)
    for mode in TwistMode:
        cert = stability_certificate(s, constraint=mode)
        assert cert.verdict == "stable"
        assert cert.rank_t == 45
        assert len(cert.per_q) == 44
        assert all(q.passed for q in cert.per_q)


def test_stability_counterexample_fails_with_witness():
    spec = counterexample_spec()
    cert = stability_certificate(spec, polarization=(1, 1))
    assert cert.verdict == "fails"
    assert cert.rank_t == 3
    assert cert.c1_t == (-4, -4)
    assert cert.degree_t == -8
    assert cert.slope_t == Fraction(-8, 3)
    assert cert.k_e == -2
    failed = [q for q in cert.per_q if not q.passed]
    assert [q.q for q in failed] == [1, 2]
    assert failed[0].witness_twist == (-1, -1)
    assert failed[0].witness_profile == (1, 1)
    # the witness twist is checkable: it really has a section
    lam = exterior_power(spec.term_m, 1).twist((-1, -1))
    assert h_sum(spec.space, lam, 0) == 1


def test_stability_unsupported_when_degree_nonnegative():
    spec = custom_monad(
        "positive kernel",
        ProductSpace((1, 1)),
        LineBundleSum([((-1, -1), 1)]),
        LineBundleSum([((1, 1), 2), ((0, 0), 2)]),
        LineBundleSum([((0, 0), 1)]),
    )
    cert = stability_certificate(spec, polarization=(1, 1))
    assert cert.verdict == "unsupported"
    assert cert.degree_t > 0
    assert cert.per_q == ()


def test_stability_constraint_override():
    s = build_section3(ProductSpace((1, 3)), 1)
    cert = stability_certificate(s, constraint=TwistMode.TOTAL_NEGATIVE)
    assert cert.constraint == "total-negative"
    assert cert.twist_family == "all twists B with total degree sum < 0"
    assert cert.verdict == "stable"


def test_stability_rejects_bad_polarization():
    s = build_section3(ProductSpace((1, 3)), 1)
    with pytest.raises(ValueError):
        stability_certificate(s, polarization=(1, 0))


# ---------------------------------------------------------------------------
# simplicity


def test_les_vanish_micro():
    x = ProductSpace((1, 1))
    first = LineBundleSum([((-1, -1), 1)])  # no cohomology at all
    middle = LineBundleSum([((-1, 0), 2)])
    step = les_vanish(x, first, middle, 0)
    assert step.forced
    assert step.h_middle == 0 and step.h_first_next == 0

    blocking = LineBundleSum([((-2, 0), 1)])  # h^1 = 1 on P^1 x P^1
    step = les_vanish(x, blocking, middle, 0)
    assert not step.forced
    assert step.h_first_next == 1


def test_simplicity_frozen_section3():
    s = build_section3(ProductSpace((1, 3)), 1)
    cert = simplicity_certificate(s, stability_certificate(s))
    assert cert.verdict == "simple"
    assert cert.h0_endo == 1
    assert cert.twist == (-1, -1)
    assert cert.chain == "1 <= h0(T.T*) <= h0(E.E*) <= h0(E.T*) <= 1"
    assert [(st.p, st.h_middle, st.h_first_next, st.forced) for st in cert.steps] == [
        (0, 0, 0, True),
        (1, 0, 0, True),
    ]


def test_simplicity_frozen_section4():
    s = build_section4(1, 1, 1, 1, 1, 1, 1)
    cert = simplicity_certificate(s, stability_certificate(s))
    assert cert.verdict == "simple"
    assert cert.twist == (-1,) * 6


def test_simplicity_honest_gap_on_surface():
    # on a two-dimensional product the h^1 step is genuinely not forced
    s = build_section3(ProductSpace((1, 1)), 1)
    cert = simplicity_certificate(s, stability_certificate(s))
    assert cert.verdict == "inconclusive"
    assert cert.h0_endo is None
    assert [(st.p, st.h_middle, st.h_first_next, st.forced) for st in cert.steps] == [
        (0, 0, 0, True),
        (1, 0, 1, False),
    ]


def test_simplicity_gap_instance():
    spec = gap_spec()
    stab = stability_certificate(spec, polarization=(1, 1))
    assert stab.verdict == "stable"
    cert = simplicity_certificate(spec, stab)
    assert cert.verdict == "inconclusive"
    assert [(st.p, st.h_middle, st.h_first_next, st.forced) for st in cert.steps] == [
        (0, 9, 0, False),
        (1, 0, 1, False),
    ]


def test_simplicity_requires_matching_stable_certificate():
    s = build_section3(ProductSpace((1, 3)), 1)
    other = build_section3(ProductSpace((1, 1)), 1)
    stab = stability_certificate(s)
    with pytest.raises(ValueError):
        simplicity_certificate(other, stab)

    spec = counterexample_spec()
    failing = stability_certificate(spec, polarization=(1, 1))
    with pytest.raises(ValueError):
        simplicity_certificate(spec, failing)


def test_simplicity_requires_single_right_degree():
    spec = custom_monad(
        "mixed right term",
        ProductSpace((1, 1)),
        LineBundleSum([((-1, -1), 1)]),
        LineBundleSum([((-2, -2), 4), ((0, 0), 4)]),
        LineBundleSum([((1, 1), 1), ((2, 2), 1)]),
    )
    stab = stability_certificate(spec, polarization=(1, 1))
    assert stab.verdict == "stable"  # every summand of M is nonpositive
    with pytest.raises(ValueError):
        simplicity_certificate(spec, stab)
