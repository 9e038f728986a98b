import itertools
from collections import Counter
from fractions import Fraction

import pytest

from fitlen.bounds import (VIOLATION, check_all, cover_bound, ell_step_bound,
                           enumerate_covers, is_cover, lambda_inequality_holds,
                           lambda_sweep_ok, make_cover, product_bound,
                           quadratic_bound, top_two_bound, triple_bound,
                           two_factor_bound, weight)
from fitlen.construct import build, parse_expr
from fitlen.errors import UsageError
from fitlen.hall import hall_profile
from fitlen.series import fitting_length


# -- cover machinery ---------------------------------------------------------

def test_triangle_is_a_cover():
    ok, degenerate = is_cover([(2, 3), (3, 5), (5, 2)], (2, 3, 5))
    assert ok and not degenerate


def test_two_prime_unique_degenerate_cover():
    ok, degenerate = is_cover([(2,), (3,), (2, 3)], (2, 3))
    assert ok and degenerate
    covers = enumerate_covers((2, 3), 3)
    assert len(covers) == 1
    assert covers[0].degenerate
    assert covers[0].members == ((2,), (2, 3), (3,))


def test_too_few_members_is_not_a_cover():
    ok, _ = is_cover([(2, 3), (3, 5)], (2, 3, 5))
    assert not ok


def test_duplicates_collapse():
    ok, _ = is_cover([(2, 3), (2, 3), (3, 5)], (2, 3, 5))
    assert not ok
    with pytest.raises(UsageError):
        make_cover([(2, 3), (2, 3), (3, 5)], (2, 3, 5))


def test_member_outside_ground_rejected():
    with pytest.raises(UsageError):
        is_cover([(2, 7), (3, 5), (5, 2)], (2, 3, 5))


def _nondegenerate_covers(ground, t):
    return [c for c in enumerate_covers(ground, t) if not c.degenerate]


def test_unique_nondegenerate_triangle():
    covers = _nondegenerate_covers((2, 3, 5), 3)
    assert [c.members for c in covers] == [((2, 3), (2, 5), (3, 5))]


def test_full_size_cover_members_have_size_w_minus_one():
    for w, ground in ((3, (2, 3, 5)), (4, (2, 3, 5, 7))):
        covers = _nondegenerate_covers(ground, w)
        assert covers
        for cover in covers:
            if len(cover.members) == w:
                assert all(len(m) == w - 1 for m in cover.members)


def test_no_nondegenerate_cover_beyond_w():
    assert _nondegenerate_covers((2, 3, 5), 4) == []


def test_cover_family_invariants():
    # missing-prime uniqueness, the size inequality, and the order cap,
    # on every enumerable cover over three ground sets
    for ground in [(2, 3), (2, 3, 5), (2, 3, 5, 7)]:
        w = len(ground)
        for t in range(3, w + 2):
            for cover in enumerate_covers(ground, t):
                missing = {p: 0 for p in ground}
                for member in cover.members:
                    for p in ground:
                        if p not in member:
                            missing[p] += 1
                assert all(count <= 1 for count in missing.values()), cover
                assert sum(len(m) for m in cover.members) >= (t - 1) * w, cover
                if not cover.degenerate:
                    assert t <= w, cover
                for a, b in itertools.combinations(cover.members, 2):
                    assert tuple(sorted(set(a) | set(b))) == cover.ground


def test_every_enumerated_family_is_a_cover():
    for t in (3, 4):
        for cover in enumerate_covers((2, 3, 5, 7), t):
            ok, degenerate = is_cover(cover.members, cover.ground)
            assert ok and degenerate == cover.degenerate


def test_weight_sums_member_values():
    cover = make_cover([(2, 3), (3, 5), (5, 2)], (2, 3, 5))
    values = {(2, 3): 2, (3, 5): 2, (2, 5): 2}

    def h(sigma):  # a fixed profile, read like hall_profile
        return values[tuple(sorted(sigma))]

    assert weight(cover, h) == 6


# -- bound formulas -----------------------------------------------------------

def test_cover_bound_values():
    assert cover_bound(6, 3) == 4          # triangle at theta = 6
    assert cover_bound(3, 3) == 1          # nilpotent: theta = t
    assert cover_bound(9, 4) == Fraction(7, 2)
    with pytest.raises(UsageError):
        cover_bound(5, 2)


def test_triple_bound_values():
    assert triple_bound(2, 2, 2) == 4
    assert triple_bound(3, 3, 3) == 7      # sigma = tau = upsilon = pi form


def test_top_two_bound_values():
    assert top_two_bound([1, 1, 1, 1]) == 1
    assert top_two_bound([3, 5, 2, 4]) == 8
    with pytest.raises(UsageError):
        top_two_bound([2, 2, 2])


def test_ell_step_bound_values():
    assert ell_step_bound(1, 3) == 1
    assert ell_step_bound(2, 3) == 4       # 3*frak2 - 2 at w = 3
    assert ell_step_bound(3, 4) == 5
    with pytest.raises(UsageError):
        ell_step_bound(2, 2)


def test_quadratic_bound_values():
    assert quadratic_bound(1, 3) == 1
    assert quadratic_bound(2, 3) == 4
    assert quadratic_bound(4, 3) == 10
    with pytest.raises(UsageError):
        quadratic_bound(2, 2)


def test_product_bound_values():
    assert product_bound(2, 0) == 2        # r = 0 collapses to s
    assert product_bound(2, 2) == 6


def test_two_factor_bound_values():
    assert two_factor_bound(1, 1, 1) == 5


def test_lambda_inequality_sweep():
    assert lambda_sweep_ok()
    assert lambda_inequality_holds(4, 4)   # equality case: 12 = 12


# -- aggregate reports ---------------------------------------------------------

def test_check_all_trivial_like_group(catalog):
    report = check_all(catalog["c8"])      # single prime: nothing applicable
    assert report.h_actual == 1
    assert report.overall_pass
    assert not [e for e in report.entries if e.status == VIOLATION]


def test_check_all_catalog_sweep(catalog):
    for name, cg in catalog.items():
        report = check_all(cg)
        assert report.overall_pass, (name, report.violations)


def test_check_all_nilpotent_cover_bound_is_one(catalog):
    report = check_all(catalog["c6"])
    covers = [e for e in report.entries if e.name == "cover-weight"]
    assert covers and all(e.value >= 1 for e in covers)
    triangle = [e for e in covers if "theta=3" in e.inputs]
    assert all(e.value == 1 for e in triangle)


def test_check_all_example_values(catalog):
    report = check_all(catalog["ex32a"])
    assert report.h_actual == 3
    triangle = [e for e in report.entries
                if e.name == "cover-weight"
                and e.inputs.startswith("t=3 {2,3 | 2,5 | 3,5}")]
    assert len(triangle) == 1
    assert triangle[0].value == 4  # theta - 2 at ell = 1
    assert triangle[0].slack == 1


def test_check_all_direct_variant_bound_attained(catalog):
    report = check_all(catalog["ex32b"])
    assert report.h_actual == 2
    triangle = [e for e in report.entries
                if e.name == "cover-weight"
                and e.inputs.startswith("t=3 {2,3 | 2,5 | 3,5}")]
    assert triangle[0].value == 2 and triangle[0].slack == 0


def test_triple_sweep_exhaustive_small_w(catalog):
    # every triple of three DISTINCT subsets with all pairwise unions
    # equal to the prime set (that is, every 3-cover) satisfies the
    # three-term bound; triples with repeated members are not covers
    # and the bound is not claimed for them (e.g. (pi, pi, empty)
    # passes the union test yet gives 2h-2 < h at h = 1)
    for name in ("d30", "d120", "d90", "ex32b", "d210", "d840"):
        cg = catalog[name]
        primes = cg.primes
        subsets = [c for size in range(len(primes) + 1)
                   for c in itertools.combinations(primes, size)]
        h = hall_profile(cg, primes)
        checked = 0
        for trio in itertools.combinations(subsets, 3):
            ok, _ = is_cover(trio, primes)
            if not ok:
                continue
            bound = triple_bound(*(hall_profile(cg, s) for s in trio))
            assert h <= bound, (name, trio)
            checked += 1
        assert checked > 0, name
        # the repeated-member identity case holds whenever G is nontrivial
        assert h <= triple_bound(h, h, h)


def test_top_two_on_w4_groups(catalog):
    for name in ("d210", "d840", "w4big"):
        cg = catalog[name]
        values = [hall_profile(cg, tuple(q for q in cg.primes if q != p))
                  for p in cg.primes]
        h = fitting_length(cg.group)
        assert h <= top_two_bound(values), name


def test_report_not_applicable_distinct_from_fail(catalog):
    report = check_all(catalog["c6"])  # w = 2: no top-two, no size-step
    statuses = {e.name: e.status for e in report.entries}
    assert statuses["top-two"] == "n/a"
    assert statuses["size-step"] == "n/a"
    assert report.overall_pass


def test_check_all_w6_evaluates_every_cover():
    # at six primes every prime subset is profiled, so no cover whose
    # members include a middle-sized subset is left out
    cg = build(parse_expr(
        "D(C(2,1),D(C(3,1),D(C(5,1),D(C(7,1),D(C(11,1),C(13,1))))))"))
    report = check_all(cg)
    covers = [e for e in report.entries if e.name == "cover-weight"]
    assert len(covers) == sum(len(enumerate_covers(cg.primes, t))
                              for t in range(3, 8)) == 1325
    assert all(e.status == "pass" for e in covers)
    assert report.overall_pass


@pytest.mark.parametrize("text,sizes", [
    # w = 4: every nonempty prime set is a cover member or a split half,
    # and no bound reads the empty set
    ("W(W(C(2,1),C(3,1)),W(C(5,1),C(7,1)))", {1: 4, 2: 6, 3: 4, 4: 1}),
    # w = 7, beyond cover enumeration: pairs, complements and G itself
    ("D(W(C(2,1),C(3,1)),D(W(C(5,1),C(7,1)),"
     "D(W(C(11,1),C(2,1)),D(C(13,1),C(17,1)))))", {2: 21, 6: 7, 7: 1}),
], ids=["w4", "w7"])
def test_check_all_profiles_only_the_prime_sets_it_reads(text, sizes):
    cg = build(parse_expr(text))
    check_all(cg)
    assert Counter(len(key) for key in cg._h_cache) == sizes
