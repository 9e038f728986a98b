import itertools

import pytest

from fitlen.construct import ConstructedGroup, build, parse_expr
from fitlen.errors import SylowSystemError, UsageError
from fitlen.group import p_part
from fitlen.hall import (frak_h, hall_complement, hall_profile, hall_subgroup,
                         verify_sylow_system)
from fitlen.perms import Permutation, compose_arrays, invert_array
from fitlen.series import fitting_length


@pytest.fixture(scope="module")
def ex32a():
    return build(parse_expr("W(C(2,1),W(C(3,1),C(5,1)))"))


def test_sigma_covering_all_primes_returns_group(ex32a):
    assert hall_subgroup(ex32a, (2, 3, 5)) is ex32a.group
    assert hall_subgroup(ex32a, (2, 3, 5, 7)) is ex32a.group


def test_sigma_disjoint_is_trivial(ex32a):
    assert hall_subgroup(ex32a, (11,)).order == 1
    assert hall_subgroup(ex32a, ()).order == 1


def test_hall_orders_are_sigma_parts(catalog):
    for name, cg in catalog.items():
        factored = cg.group.factored_order
        for size in range(1, cg.num_primes + 1):
            for sigma in itertools.combinations(cg.primes, size):
                assert hall_subgroup(cg, sigma).order == \
                    p_part(factored, sigma), (name, sigma)


def test_complementary_orders_multiply(catalog):
    for name, cg in catalog.items():
        for size in range(cg.num_primes + 1):
            for sigma in itertools.combinations(cg.primes, size):
                tau = tuple(p for p in cg.primes if p not in sigma)
                assert hall_subgroup(cg, sigma).order * \
                    hall_subgroup(cg, tau).order == cg.order, (name, sigma)


def test_specific_hall_order(ex32a):
    assert hall_subgroup(ex32a, (2, 3)).order == 2 ** 15 * 3 ** 5


def test_complement_convention(ex32a):
    assert hall_complement(ex32a, 7) is ex32a.group  # absent prime: whole group
    assert hall_complement(ex32a, 2).order == 3 ** 5 * 5


def test_profile_singletons_are_one(catalog):
    for name, cg in catalog.items():
        singles = [(p,) for p in cg.primes]
        profile = hall_profile(cg, singles)
        for p in cg.primes:
            assert profile.h((p,)) == 1, (name, p)


def test_profile_empty_and_full(ex32a):
    profile = hall_profile(ex32a, [(), (2, 3, 5)])
    assert profile.h(()) == 0
    assert profile.h((2, 3, 5)) == fitting_length(ex32a.group) == 3


def test_profile_example_values(ex32a):
    profile = hall_profile(ex32a, [(3, 5), (2, 5), (2, 3)])
    assert profile.h((3, 5)) == 2
    assert profile.h((2, 5)) == 2
    assert profile.h((2, 3)) == 2


def test_profile_missing_entry_raises(ex32a):
    from fitlen.errors import ProfileMissingError
    profile = hall_profile(ex32a, [(2, 3)])
    with pytest.raises(ProfileMissingError):
        profile.h((2, 5))


def test_profile_cache_shared(ex32a):
    a = hall_profile(ex32a, [(2, 3)])
    b = hall_profile(ex32a, [(2, 3)])
    assert a.h((2, 3)) == b.h((2, 3))
    assert (2, 3) in ex32a._h_cache


def test_frak_values(ex32a):
    assert frak_h(ex32a, 0) == 0
    assert frak_h(ex32a, 1) == 1
    assert frak_h(ex32a, 2) == 2
    assert frak_h(ex32a, 3) == 3  # equals h(G) at full size
    with pytest.raises(UsageError):
        frak_h(ex32a, 4)
    with pytest.raises(UsageError):
        frak_h(ex32a, -1)


def test_frak_monotone_on_catalog(catalog):
    # not claimed in general; surfaced here as exploratory instrumentation,
    # and a failure would be a finding to report rather than suppress
    for name, cg in catalog.items():
        values = [frak_h(cg, size) for size in range(cg.num_primes + 1)]
        assert values == sorted(values), (name, values)


def test_verify_sylow_system_passes_catalog(catalog):
    for name, cg in catalog.items():
        report = verify_sylow_system(cg)
        assert report.ok, name


def test_verify_nilpotent_group_passes(catalog):
    report = verify_sylow_system(catalog["c6"])
    assert report.ok
    assert all(c.expected == c.actual for c in report.prime_checks)


def test_verify_reports_expected_triple():
    cg = build(parse_expr("W(C(2,1),C(3,1))"))
    report = verify_sylow_system(cg)
    orders = {c.primes: c.actual for c in report.prime_checks}
    joins = {c.primes: c.actual for c in report.pair_checks}
    assert orders == {(2,): 8, (3,): 3}
    assert joins == {(2, 3): 24}


def _corrupt_by_conjugation(cg):
    """Deterministic search for a conjugate of one Sylow member that
    breaks pairwise permutability; returns (corrupted system, broken pair)."""
    from fitlen.chain import build_chain
    gens = [g.images for g in cg.group.generators]
    words = list(gens)
    for a, b in itertools.product(gens, gens):
        words.append(compose_arrays(a, b))
    factored = cg.group.factored_order
    for p, q in itertools.combinations(cg.primes, 2):
        expected = p_part(factored, (p, q))
        for x in words:
            x_inv = invert_array(x)
            conj = [Permutation(compose_arrays(compose_arrays(x_inv, g.images), x))
                    for g in cg.system[q]]
            arrays = [g.images for g in cg.system[p]]
            arrays += [g.images for g in conj]
            chain, _ = build_chain(cg.degree, arrays)
            if chain.order() != expected:
                system = dict(cg.system)
                system[q] = tuple(conj)
                return system, (p, q)
    raise AssertionError("no permutability-breaking conjugate found")


def test_corrupted_system_fails_verification():
    # three-prime wreath tower whose Sylow subgroups are not all normal;
    # a conjugate of one member found by deterministic search breaks a
    # pairwise join, and only the exact verification may notice
    cg = build(parse_expr("W(C(5,1),W(C(2,1),C(3,1)))"))
    bad_system, _ = _corrupt_by_conjugation(cg)
    corrupted = ConstructedGroup(cg.group, cg.expr, bad_system)
    report = verify_sylow_system(corrupted)
    assert not report.ok
    assert all(c.ok for c in report.prime_checks)  # conjugates keep orders
    assert any(not c.ok for c in report.pair_checks)


def test_hall_chain_mismatch_raises_system_error():
    cg = build(parse_expr("W(C(5,1),W(C(2,1),C(3,1)))"))
    bad_system, pair = _corrupt_by_conjugation(cg)
    corrupted = ConstructedGroup(cg.group, cg.expr, bad_system)
    with pytest.raises(SylowSystemError):
        hall_subgroup(corrupted, pair)
