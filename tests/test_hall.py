import itertools

import pytest

from fitlen.chain import build_chain
from fitlen.construct import (ConstructedGroup, build, expr_order, hall_chain,
                              parse_expr)
from fitlen.errors import SylowSystemError, UsageError
from fitlen.group import p_part
from fitlen.hall import (frak_h, hall_complement, hall_profile, hall_subgroup,
                         verify_sylow_system)
from fitlen.perms import compose_arrays, invert_array, parse_cycles
from fitlen.series import fitting_length, lower_nilpotent_series

from test_chain import _assert_schreier_complete


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


def test_profile_reads_unlisted_sets_on_demand():
    cg = build(parse_expr("W(C(2,1),W(C(3,1),C(5,1)))"))
    profile = hall_profile(cg, [(2, 3)])
    assert list(cg._h_cache) == [(2, 3)]
    assert profile.h((5, 2, 7)) == 2
    assert list(cg._h_cache) == [(2, 3), (2, 5)]


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
    for cg in catalog.values():
        verify_sylow_system(cg)


def test_verify_nilpotent_group_passes(catalog):
    report = verify_sylow_system(catalog["c6"])
    assert all(c.expected == c.actual for c in report.prime_checks)


def test_verify_reports_expected_triple():
    cg = build(parse_expr("W(C(2,1),C(3,1))"))
    report = verify_sylow_system(cg)
    orders = {c.primes: c.actual for c in report.prime_checks}
    joins = {c.primes: c.actual for c in report.pair_checks}
    assert orders == {(2,): 8, (3,): 3}
    assert joins == {(2, 3): 24}


def assert_hall_chains_certified(cg, name=None):
    """Every Hall chain is Schreier-complete, and its order is the
    sigma-part of the order the expression gives."""
    for size in range(1, cg.num_primes + 1):
        for sigma in itertools.combinations(cg.primes, size):
            chain, _ = hall_chain(cg, sigma)
            _assert_schreier_complete(chain)
            rest, part = expr_order(cg.expr), 1
            for p in sigma:
                while rest % p == 0:
                    rest, part = rest // p, part * p
            assert chain.order() == part, (name, sigma)


def test_hall_chains_certified_on_catalog(catalog):
    for name, cg in catalog.items():
        assert_hall_chains_certified(cg, name)


def test_hall_subgroup_with_miswired_embedding_raises(monkeypatch):
    # every base generator embedded in block 0: G keeps its list, since
    # the top is transitive, but the Sylow 2-list generates only C2
    from fitlen import construct

    embed = construct._embed
    monkeypatch.setattr(construct, "_embed",
                        lambda arr, block, m, total: embed(arr, 0, m, total))
    cg = build(parse_expr("W(C(2,1),C(3,1))"))
    assert cg.order == 24
    with pytest.raises(SylowSystemError, match="has order 2, not 8"):
        hall_subgroup(cg, (2,))


def test_hall_list_outside_the_group_raises():
    # (1 3)(2 4) swaps two blocks, which C3 on top cannot: the list still
    # generates a group of order 8, so only the membership check sees it
    cg = build(parse_expr("W(C(2,1),C(3,1))"))
    outside = parse_cycles("(1 3)(2 4)", 6).images

    def hall_generators(sigma):
        gens = cg.hall_generators(sigma)
        return gens[:-1] + [outside] if sigma == (2,) else gens

    bad = ConstructedGroup(cg.group, cg.expr, hall_generators)
    assert build_chain(6, hall_generators((2,)))[0].order() == 8
    with pytest.raises(SylowSystemError, match="generator 2 lies outside"):
        hall_subgroup(bad, (2,))


def test_conjugated_sylow_seeds_give_the_same_residual():
    # the seeded residual needs one Sylow subgroup per prime, not a Sylow
    # system: replace one member by a conjugate that no longer permutes
    # with another, and the lower nilpotent series stays the same
    cg = build(parse_expr("W(C(5,1),W(C(2,1),C(3,1)))"))
    seeds = {p: [g.images for g in gens] for p, gens in cg.system.items()}
    factored = cg.group.factored_order
    words = [g.images for g in cg.group.generators]
    words += [compose_arrays(a, b) for a, b in itertools.product(words, words)]
    for (p, q), x in itertools.product(
            itertools.combinations(cg.primes, 2), words):
        x_inv = invert_array(x)
        conj = [compose_arrays(compose_arrays(x_inv, g), x) for g in seeds[q]]
        if build_chain(cg.degree, seeds[p] + conj)[0].order() != \
                p_part(factored, (p, q)):
            break
    else:
        raise AssertionError("no permutability-breaking conjugate found")
    unseeded = lower_nilpotent_series(cg.group)
    seeded = lower_nilpotent_series(cg.group,
                                    system_gens={**seeds, q: conj})
    assert [T.order for T in seeded.terms] == \
        [T.order for T in unseeded.terms]
    assert all(unseeded.terms[1].contains(g)
               for g in seeded.terms[1].generators)
