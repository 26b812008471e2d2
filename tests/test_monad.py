"""Monad builders: ladder matrices, composite vanishing, verification.

The k=1 band matrices are frozen entry by entry, and one k=2 instance of
each family by its entries and labels; everything larger is covered by the
structural invariants (symbolic composite zero, witness cover, Whitney-sum
rank arithmetic).
"""

import dataclasses
import hashlib
import itertools
import json
import random

import pytest

from monadcert.cohomology import LineBundleSum
from monadcert.monad import (
    BUILD_BUDGET,
    build_section3,
    build_section4,
    copies_to_factors,
    custom_monad,
    display_summary,
    floystad_check,
    nu,
    verify_monad,
)
from monadcert.polyring import (
    CoordinateRing,
    MonadMatrix,
    TriangularWitness,
    WitnessSymbol,
    mat_mul,
)
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


def _layout(matrix):
    """Entries as strings and both label lists: everything a builder lays out."""
    return (
        [[str(e) for e in row] for row in matrix.entries],
        [list(lab) for lab in matrix.row_labels],
        [list(lab) for lab in matrix.col_labels],
    )


def test_build_section3_frozen_k2():
    s = build_section3(ProductSpace((1, 1)), 2)
    x0, x1, y0, y1 = "a1_0*a2_0", "a1_0*a2_1", "a1_1*a2_0", "a1_1*a2_1"
    zeros = [[0, 0]] * 6
    assert _layout(s.map_g) == (
        [[x0, x1, "0", y0, y1, "0"], ["0", x0, x1, "0", y0, y1]],
        [[1, 1]] * 2,
        zeros,
    )
    assert _layout(s.map_f) == (
        [
            ["-" + y1, "0"], ["-" + y0, "-" + y1], ["0", "-" + y0],
            [x1, "0"], [x0, x1], ["0", x0],
        ],
        zeros,
        [[-1, -1]] * 2,
    )


def test_build_section4_frozen_k2():
    # 18 x 2 and 2 x 18 maps, pinned by the SHA-256 of their canonical JSON
    s = build_section4(1, 1, 1, 1, 1, 1, 2)
    digests = [
        hashlib.sha256(json.dumps(_layout(m)).encode()).hexdigest()
        for m in (s.map_g, s.map_f)
    ]
    assert digests == [
        "2d79a187d969bea692b61fccb93ebd993bdd2fea0995b32a9d8defc01e4bef2e",
        "573dbf0ca0db9c8b485eab0f32d68c59f016ccd10120a284351d70f23395e000",
    ]
    assert [str(e) for e in s.map_f.entries[4]] == ["-u0", "-u1"]


def test_build_section3_composite_zero():
    for factors, k in [((1, 1), 1), ((1, 1), 3), ((1, 3), 2), ((1, 1, 3), 1), ((1, 5), 2)]:
        s = build_section3(ProductSpace(factors), k)
        assert mat_mul(s.map_g, s.map_f).is_zero(), (factors, k)
        assert s.map_g.degree_consistent
        assert s.map_f.degree_consistent


def test_term_m_is_the_ladder_row_labels_on_the_grid():
    # the builders compute M from the block shapes, before any map exists
    specs = [
        build_section3(ProductSpace(factors), k)
        for factors in [(1, 1), (1, 3), (1, 1, 3), (1, 5)]
        for k in (1, 2, 3)
    ]
    specs += [
        build_section4(n, m, l, a, b, g, k)
        for (n, m, l) in [(1, 1, 1), (2, 1, 1), (2, 2, 1)]
        for a, b, g in itertools.product((1, 2), repeat=3)
        for k in (1, 2)
    ]
    for s in specs:
        map_f, map_g = s.make_maps()
        assert tuple(s.term_m.degrees()) == map_f.row_labels == map_g.col_labels, s.instance_id


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


def test_build_budget_edge():
    # (P^1)^2 with k bands: 2k(2 + 2k) cells of degree 2, plus 4 monomials in 4 variables
    assert 8 * 157 * 158 + 16 <= BUILD_BUDGET < 8 * 158 * 159 + 16
    assert build_section3(ProductSpace((1, 1)), 157).map_g.ncols == 316
    with pytest.raises(ValueError, match="over the build budget"):
        build_section3(ProductSpace((1, 1)), 158)
    # section4 with n = m = l = k = 1: 24 cells of degree max(alpha, beta, gamma),
    # plus 24 monomials in 12 variables
    assert 24 * 8321 + 288 <= BUILD_BUDGET < 24 * 8322 + 288
    assert str(build_section4(1, 1, 1, 1, 8321, 1, 1).map_g.entry(0, 4)) == "w0^8321"
    with pytest.raises(ValueError, match="over the build budget"):
        build_section4(1, 1, 1, 1, 1, 8322, 1)
    # along a factor dimension every monomial widens with the ring: P^1 x P^N with
    # k = 1 costs 4(2N + 2) for its cells plus (2N + 2)(N + 3) for its Segre monomials
    assert 2 * 312 * 318 <= BUILD_BUDGET < 2 * 314 * 320
    assert build_section3(ProductSpace((1, 311)), 1).map_f.nrows == 624
    with pytest.raises(ValueError, match="over the build budget"):
        build_section3(ProductSpace((1, 313)), 1)
    # section4 with n = N, k = 1 has v = 2N + 10 variables, 2v cells of degree 1
    # and 2v monomials
    assert 2 * 314 * 315 <= BUILD_BUDGET < 2 * 316 * 317
    assert build_section4(152, 1, 1, 1, 1, 1, 1).term_m.rank == 314
    with pytest.raises(ValueError, match="over the build budget"):
        build_section4(153, 1, 1, 1, 1, 1, 1)
    # the largest products the budget is meant to admit
    assert build_section3(ProductSpace((1,) * 10), 8).map_f.nrows == 1038
    assert build_section4(5, 5, 5, 1, 2, 3, 3).term_m.rank == 48
    # a copy vector is refused before it is expanded: 2^11 * 10^2 Segre coordinates
    assert len(copies_to_factors((17,))) == 17
    with pytest.raises(ValueError, match="over the build budget"):
        copies_to_factors((11, 0, 0, 0, 2))


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


def test_verify_refuses_family_with_common_zero():
    # f = x0: O(-1) -> O vanishes at [0:1]; a family holding only x0 must not cover it
    r = CoordinateRing((1,))
    f = MonadMatrix(r, [[r.variable(0, 0)]], [(0,)], [(-1,)])
    g = MonadMatrix(r, [], [], [(0,)])

    def spec_with(families):
        return custom_monad(
            "x0 only",
            ProductSpace((1,)),
            LineBundleSum([((-1,), 1)]),
            LineBundleSum([((0,), 1)]),
            LineBundleSum([]),
            map_f=f,
            map_g=g,
            witness_families=families,
            witnesses=(("f", TriangularWitness("x0", (0,), (0,), True, ())),),
        )

    rep = verify_monad(spec_with((("x0only", (WitnessSymbol("x0", (1, 0)),)),)), trials=3)
    assert rep.map_f.rank_matches  # random points miss the zero of x0
    assert rep.map_f.covering_family is None
    assert rep.map_f.families == ()
    assert not rep.valid
    assert rep.notes == ("witness family 'x0only' not used: every symbol vanishes at [0:1]",)
    # with x1 added the family covers, and the same map still needs x1's witness
    both = spec_with((("x", (WitnessSymbol("x0", (1, 0)), WitnessSymbol("x1", (0, 1)))),))
    rep = verify_monad(both, trials=3)
    assert rep.notes == () and rep.map_f.families[0].missing == ("x1",)
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


def test_custom_monad_refuses_over_budget():
    # cells of f and g, term ranks times factor count, and ring variables
    space = ProductSpace((1,))
    a, c = LineBundleSum([((-1,), 1)]), LineBundleSum([])
    fits = (BUILD_BUDGET - 2 - 1) // 2  # middle rank: cells + ranks + variables
    spec = custom_monad("edge", space, a, LineBundleSum([((0,), fits)]), c)
    assert spec.map_f.nrows == fits and spec.map_f.is_zero()
    with pytest.raises(ValueError, match="over the build budget"):
        custom_monad("over", space, a, LineBundleSum([((0,), fits + 1)]), c)
    with pytest.raises(ValueError, match="over the build budget"):
        custom_monad("wide", ProductSpace((BUILD_BUDGET,)), c, c, c)


def test_verify_checks_listed_witnesses():
    spec = build_section3(ProductSpace((1, 1)), 2)
    assert verify_monad(spec, trials=3).valid
    # a witness moved one column over no longer has its symbol on the diagonal
    (i,) = [i for i, (name, w) in enumerate(spec.witnesses) if (name, w.symbol) == ("g", "x1")]
    name, w = spec.witnesses[i]
    moved = dataclasses.replace(w, cols=tuple(c + 1 for c in w.cols))

    def spec_with(witnesses):
        return custom_monad(
            "listed witnesses",
            spec.space,
            spec.term_a,
            spec.term_m,
            spec.term_c,
            map_f=spec.map_f,
            map_g=spec.map_g,
            witness_families=spec.witness_families,
            witnesses=witnesses,
        )

    assert verify_monad(spec_with(spec.witnesses), trials=3).valid
    tampered = spec_with(spec.witnesses[:i] + ((name, moved),) + spec.witnesses[i + 1 :])
    rep = verify_monad(tampered, trials=3)
    assert rep.map_g.families[0].missing == ("x1",) and not rep.map_g.cover_complete
    assert rep.map_f.cover_complete and not rep.valid
    # without its witnesses the same monad is not certified
    rep = verify_monad(spec_with(()), trials=3)
    assert rep.map_f.families[0].complete is False and not rep.valid


def test_monad_spec_rejects_mismatched_labels():
    s = build_section3(ProductSpace((1, 1)), 1)
    wrong_c = LineBundleSum([((2, 2), 1)])
    # a built spec checks its maps when they are first read
    lazy = dataclasses.replace(s, term_c=wrong_c)
    with pytest.raises(ValueError, match="map_g labels"):
        lazy.map_f
    # a custom spec checks the maps it is given at construction
    with pytest.raises(ValueError, match="map_g labels"):
        custom_monad(
            "wrong c", s.space, s.term_a, s.term_m, wrong_c, map_f=s.map_f, map_g=s.map_g
        )
