"""Monad builders: ladder matrices, composite vanishing, verification.

The k=1 band matrices are frozen entry by entry; everything larger is
covered by the structural invariants (symbolic composite zero, witness
cover, Whitney-sum rank arithmetic).
"""

import itertools
import random

import pytest

from monadcert.cohomology import LineBundleSum
from monadcert.monad import (
    MonadSpec,
    build_section3,
    build_section4,
    copies_to_factors,
    custom_monad,
    display_summary,
    floystad_check,
    nu,
    verify_monad,
)
from monadcert.polyring import mat_mul
from monadcert.space import ProductSpace


# ---------------------------------------------------------------------------
# band count


def test_nu_values():
    # independent reference: half the product of the (n_i + 1), minus one
    for copies in [(1,), (2,), (3,), (1, 1), (2, 1), (1, 0, 1), (0, 2)]:
        prod = 1
        for f in copies_to_factors(copies):
            prod *= f + 1
        assert nu(copies) == prod // 2 - 1
    assert nu((1,)) == 0
    assert nu((1, 1)) == 3
    assert nu((1, 0, 1)) == 5
    with pytest.raises(ValueError):
        nu(())  # empty product has odd total 1
    with pytest.raises(ValueError):
        nu((0, 0))
    with pytest.raises(ValueError):
        nu((-1, 1))


def test_copies_to_factors():
    assert copies_to_factors((2, 1)) == (1, 1, 3)
    assert copies_to_factors((0, 2)) == (3, 3)
    assert copies_to_factors((0, 0, 1)) == (5,)
    assert copies_to_factors(()) == ()
    with pytest.raises(ValueError):
        copies_to_factors((1, -1))


# ---------------------------------------------------------------------------
# existence conditions


def test_floystad_check_against_inline_conditions():
    for a, b, c, n in itertools.product(range(0, 6), range(0, 14), range(0, 6), range(1, 7)):
        cond1 = b >= a + c and b >= 2 * c + n - 1
        cond2 = b >= a + c + n
        assert floystad_check(a, b, c, n) == (cond1, cond2), (a, b, c, n)


def test_floystad_check_rejects_bad_input():
    with pytest.raises(ValueError):
        floystad_check(-1, 0, 0, 1)
    with pytest.raises(ValueError):
        floystad_check(0, 0, 0, 0)


# ---------------------------------------------------------------------------
# band-matrix builder


def test_build_section3_frozen_k1():
    s = build_section3(ProductSpace((1, 3)), 1)
    assert s.instance_id == "section3-dims1x3-k1"
    assert s.params == (("dims", (1, 3)), ("k", 1))
    assert str(s.term_a) == "O(-1,-1)"
    assert str(s.term_m) == "O(0,0)^8"
    assert str(s.term_c) == "O(1,1)"
    assert [str(s.map_g.entry(0, c)) for c in range(8)] == [
        "a1_0*a2_0",
        "a1_0*a2_1",
        "a1_0*a2_2",
        "a1_0*a2_3",
        "a1_1*a2_0",
        "a1_1*a2_1",
        "a1_1*a2_2",
        "a1_1*a2_3",
    ]
    assert [str(s.map_f.entry(r, 0)) for r in range(8)] == [
        "-a1_1*a2_3",
        "-a1_1*a2_2",
        "-a1_1*a2_1",
        "-a1_1*a2_0",
        "a1_0*a2_3",
        "a1_0*a2_2",
        "a1_0*a2_1",
        "a1_0*a2_0",
    ]
    assert s.space.groups == (("P1", (0,)), ("P3", (1,)))
    assert s.default_polarization == (1, 1)
    assert s.default_constraint == "per-group-negative"
    fams = dict(s.witness_families)
    assert tuple(w.name for w in fams["segre"]) == (
        "x0", "x1", "x2", "x3", "y0", "y1", "y2", "y3",
    )


def test_build_section3_composite_zero():
    for factors, k in [((1, 1), 1), ((1, 1), 3), ((1, 3), 2), ((1, 1, 3), 1), ((1, 5), 2)]:
        s = build_section3(ProductSpace(factors), k)
        assert mat_mul(s.map_g, s.map_f).is_zero(), (factors, k)
        assert s.map_g.degree_consistent
        assert s.map_f.degree_consistent


def test_build_section3_shapes():
    s = build_section3(ProductSpace((1, 1)), 2)
    v = nu((2,))  # 1
    assert s.term_m.rank == 2 * v + 2 * 2
    assert s.map_g.nrows == 2 and s.map_g.ncols == s.term_m.rank
    assert s.map_f.nrows == s.term_m.rank and s.map_f.ncols == 2


def test_build_section3_rejects_bad_input():
    with pytest.raises(ValueError):
        build_section3(ProductSpace((3,)), 1)  # single factor
    with pytest.raises(ValueError):
        build_section3(ProductSpace((1, 2)), 1)  # even-dimensional factor
    with pytest.raises(ValueError):
        build_section3(ProductSpace((1, 1)), 0)


def test_build_section4_frozen_k1():
    s = build_section4(1, 1, 1, 1, 1, 1, 1)
    assert s.instance_id == "section4-n1-m1-l1-alpha1-beta1-gamma1-k1"
    assert str(s.term_a) == "O(-1,-1,-1,-1,-1,-1)"
    assert str(s.term_c) == "O(1,1,1,1,1,1)"
    assert s.term_m.rank == 12
    assert [str(s.map_g.entry(0, c)) for c in range(12)] == [
        "u0", "u1", "v0", "v1", "w0", "w1", "x0", "x1", "y0", "y1", "z0", "z1",
    ]
    assert [str(s.map_f.entry(r, 0)) for r in range(12)] == [
        "v1", "v0", "-u1", "-u0", "x1", "x0", "-w1", "-w0", "z1", "z0", "-y1", "-y0",
    ]
    assert "entry_reading: coordinate-powers" in s.notes
    names = [n for n, _ in s.witness_families]
    assert names == ["u", "v", "w", "x", "y", "z"]


def test_build_section4_powers_and_composite():
    s = build_section4(1, 2, 1, 2, 1, 3, 2)
    assert str(s.map_g.entry(0, 0)) == "u0^2"  # alpha = 2
    assert mat_mul(s.map_g, s.map_f).is_zero()
    # per-entry degrees cannot match the summand labels here; recorded, not hidden
    assert not s.map_g.degree_consistent
    s2 = build_section4(2, 1, 1, 1, 1, 1, 1)
    assert mat_mul(s2.map_g, s2.map_f).is_zero()
    assert s2.term_m.rank == 2 * (2 + 1) + 2 * (1 + 1) + 2 * (1 + 1)


def test_build_section4_rejects_bad_input():
    with pytest.raises(ValueError):
        build_section4(0, 1, 1, 1, 1, 1, 1)
    with pytest.raises(ValueError):
        build_section4(1, 1, 1, 1, 1, 1, 0)


# ---------------------------------------------------------------------------
# display arithmetic


def test_display_summary_section3():
    for factors, k in [((1, 3), 1), ((1, 1), 2), ((1, 1, 3), 3)]:
        s = build_section3(ProductSpace(factors), k)
        d = display_summary(s)
        # rank bookkeeping straight from the two exact sequences
        assert d.rank_t == s.term_m.rank - s.term_c.rank
        assert d.rank_e == d.rank_t - s.term_a.rank
        assert d.rank_q == s.term_m.rank - s.term_a.rank
        assert d.c1_t == tuple(-k for _ in factors)
        assert d.c1_e == tuple(0 for _ in factors)


def test_display_summary_section4_frozen():
    s = build_section4(1, 1, 1, 1, 1, 1, 1)
    d = display_summary(s)
    assert d.rank_t == 11
    assert d.c1_t == (-3,) * 6
    assert d.rank_e == 10
    assert d.rank_e == 2 * (1 + 1 + 1 + 2 * 1)
    assert d.c1_e == (-2,) * 6
    assert d.rank_q == 11
    assert d.c1_q == (-1,) * 6


def test_display_summary_rejects_negative_rank():
    x = ProductSpace((1, 1))
    with pytest.raises(ValueError):
        custom_monad(
            "too small",
            x,
            LineBundleSum([((-1, -1), 3)]),
            LineBundleSum([((0, 0), 2)]),
            LineBundleSum([((1, 1), 1)]),
        )


# ---------------------------------------------------------------------------
# verification


def test_verify_section3():
    s = build_section3(ProductSpace((1, 3)), 2)
    rep = verify_monad(s, trials=6)
    assert rep.valid
    assert rep.composite_zero
    assert rep.instance_id == s.instance_id
    for ev in (rep.map_f, rep.map_g):
        assert ev.cover_complete
        assert ev.covering_family == "segre"
        assert ev.rank_matches
        assert ev.rank.max_rank_seen == ev.required_rank
    assert rep.map_g.required_rank == 2
    assert rep.map_f.required_rank == 2


def test_verify_section4():
    s = build_section4(1, 1, 1, 2, 1, 1, 1)
    rep = verify_monad(s, trials=5)
    assert rep.valid
    assert rep.map_f.covering_family == "u"
    assert not rep.map_f.degree_consistent


def test_verify_zero_maps_fail_rank():
    x = ProductSpace((1, 1))
    base = build_section3(x, 1)
    hollow = custom_monad("hollow", x, base.term_a, base.term_m, base.term_c)
    rep = verify_monad(hollow, trials=3)
    # zero maps compose to zero but cannot reach the required ranks
    assert rep.composite_zero
    assert not rep.map_g.rank_matches
    assert not rep.valid


def test_verify_flags_broken_composite():
    from monadcert.polyring import CoordinateRing, MonadMatrix

    r = CoordinateRing((1,))
    x0, x1 = r.variable(0, 0), r.variable(0, 1)
    g = MonadMatrix(r, [[x0, x1]], [(1,)], [(0,), (0,)])
    f = MonadMatrix(r, [[x1], [x0]], [(0,), (0,)], [(-1,)])  # same-sign pairing
    spec = custom_monad(
        "no cancel",
        ProductSpace((1,)),
        LineBundleSum([((-1,), 1)]),
        LineBundleSum([((0,), 2)]),
        LineBundleSum([((1,), 1)]),
        map_f=f,
        map_g=g,
    )
    rep = verify_monad(spec, trials=3)
    assert not rep.composite_zero  # g.f = 2*x0*x1
    assert not rep.valid


def test_custom_monad_ids_and_defaults():
    x = ProductSpace((1, 1))
    spec = custom_monad(
        "O11 counterexample",
        x,
        LineBundleSum([((-1, -1), 1)]),
        LineBundleSum([((1, 1), 1), ((-2, -2), 2), ((0, 0), 1)]),
        LineBundleSum([((1, 1), 1)]),
    )
    assert spec.instance_id == "custom-o11-counterexample"
    assert spec.family == "custom"
    assert spec.map_f.is_zero() and spec.map_g.is_zero()
    assert spec.default_polarization == (1, 1)
    assert spec.default_constraint == "per-group-negative"


def test_monad_spec_rejects_mismatched_labels():
    s = build_section3(ProductSpace((1, 1)), 1)
    wrong_c = LineBundleSum([((2, 2), 1)])
    with pytest.raises(ValueError):
        MonadSpec(
            family=s.family,
            space=s.space,
            ring=s.ring,
            term_a=s.term_a,
            term_m=s.term_m,
            term_c=wrong_c,
            map_f=s.map_f,
            map_g=s.map_g,
            params=s.params,
            witness_families=s.witness_families,
            default_polarization=s.default_polarization,
            default_constraint=s.default_constraint,
        )
