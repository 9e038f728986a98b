import gc
import itertools
import re
import weakref

import pytest

from fitlen.bounds import check_all
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
        for p in cg.primes:
            assert hall_profile(cg, (p,)) == 1, (name, p)


def test_profile_empty_and_full(ex32a):
    assert hall_profile(ex32a, ()) == 0
    assert hall_profile(ex32a, (2, 3, 5)) == fitting_length(ex32a.group) == 3


def test_profile_example_values(ex32a):
    assert hall_profile(ex32a, (3, 5)) == 2
    assert hall_profile(ex32a, (2, 5)) == 2
    assert hall_profile(ex32a, (2, 3)) == 2


def test_profile_reads_unlisted_sets_on_demand(monkeypatch):
    cg = build(parse_expr("W(C(2,1),W(C(3,1),C(5,1)))"))
    assert hall_profile(cg, (2, 3)) == 2
    assert list(cg._h_cache) == [(2, 3)]
    assert hall_profile(cg, (5, 2, 7)) == 2
    assert list(cg._h_cache) == [(2, 3), (2, 5)]

    # the value of a prime set does not depend on the order of reads
    w4 = "W(W(C(2,1),C(3,1)),W(C(5,1),C(7,1)))"
    forward, backward = build(parse_expr(w4)), build(parse_expr(w4))
    sigmas = [sigma for size in range(1, 5)
              for sigma in itertools.combinations(forward.primes, size)]
    assert len(sigmas) == 15
    for sigma in sigmas:
        hall_profile(forward, sigma)
    for sigma in reversed(sigmas):
        hall_profile(backward, sigma)
    assert forward._h_cache == backward._h_cache
    assert len(forward._h_cache) == 15

    # a permuted or repeated sigma, or one with primes outside pi(G),
    # reads the cached entry and computes nothing
    def no_compute(*args, **kwargs):
        raise AssertionError("cached prime set evaluated again")

    monkeypatch.setattr("fitlen.hall.fitting_length", no_compute)
    for sigma in sigmas:
        want = forward._h_cache[sigma]
        for variant in (sigma[::-1], sigma + sigma, sigma + (11, 13)):
            assert hall_profile(forward, variant) == want, variant
    assert len(forward._h_cache) == 15


def test_profile_cache_shared(ex32a):
    a = hall_profile(ex32a, (2, 3))
    assert ex32a._h_cache[(2, 3)] == a
    assert hall_profile(ex32a, (3, 2)) == a
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
    cg = catalog["c6"]
    orders = verify_sylow_system(cg)
    assert all(orders[(p,)] == p_part(cg.group.factored_order, (p,))
               for p in cg.primes)


def test_verify_reports_expected_triple():
    cg = build(parse_expr("W(C(2,1),C(3,1))"))
    report = verify_sylow_system(cg)
    orders = {s: order for s, order in report.items() if len(s) == 1}
    joins = {s: order for s, order in report.items() if len(s) == 2}
    assert orders == {(2,): 8, (3,): 3}
    assert joins == {(2, 3): 24}
    assert list(report) == [(2,), (3,), (2, 3)]


def assert_hall_chains_certified(cg, name=None):
    """Every Hall chain is Schreier-complete, and its order is the
    sigma-part of the order the expression gives and the order that
    hall_subgroup reads from its proof record."""
    for size in range(1, cg.num_primes + 1):
        for sigma in itertools.combinations(cg.primes, size):
            recorded = hall_subgroup(cg, sigma).order
            chain, _ = hall_chain(cg, sigma)
            _assert_schreier_complete(chain)
            rest, part = expr_order(cg.expr), 1
            for p in sigma:
                while rest % p == 0:
                    rest, part = rest // p, part * p
            assert chain.order() == part == recorded, (name, sigma)


def test_hall_chains_certified_on_catalog(catalog):
    for name, cg in catalog.items():
        assert_hall_chains_certified(cg, name)


def test_check_proves_each_hall_subgroup_once_and_keeps_no_chain(
        monkeypatch):
    # check-wide-w4's group: check_all reads all 15 prime sets, and each
    # of the 14 proper ones is proved by one chain that dies after it
    from fitlen import construct, group

    cg = build(parse_expr("W(W(C(2,1),C(3,1)),W(C(5,1),C(7,1)))"))
    chains = []

    def counted(degree, arrays):
        chain, kept = build_chain(degree, arrays)
        chains.append(weakref.ref(chain))
        return chain, kept

    def refused(degree, arrays):
        raise AssertionError("PermGroup.chain built during check_all")

    monkeypatch.setattr(construct, "build_chain", counted)
    monkeypatch.setattr(group, "build_chain", refused)
    assert check_all(cg).overall_pass
    proper = [sigma for size in (1, 2, 3)
              for sigma in itertools.combinations(cg.primes, size)]
    assert len(chains) == len(proper) == 14
    assert sorted(cg._hall_records) == sorted(proper)
    assert all(hall_subgroup(cg, sigma)._chain is None for sigma in proper)
    gc.collect()
    assert [ref() for ref in chains] == [None] * 14


def test_hall_subgroup_with_miswired_embedding_raises(monkeypatch):
    # every base generator embedded in block 0: G keeps its list, since
    # the top is transitive, but the Sylow 2-list generates only C2.
    # The expression has no direct product, so _shift only embeds.
    from fitlen import construct

    shift = construct._shift
    monkeypatch.setattr(construct, "_shift",
                        lambda arr, offset, total: shift(arr, 0, total))
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


def test_sylow_list_outside_the_hall_subgroup_raises():
    # a conjugate of the Hall {2,3}-list lies in G and has the {2,3}-part
    # of |G| as its order, so only the sift of the Sylow 2-list into its
    # chain sees that it is not the subgroup the seeds came from; the
    # {2,3}-subgroup must not be normal, so it is the top, not the base
    cg = build(parse_expr("W(C(5,1),W(C(2,1),C(3,1)))"))
    pair, sylow = cg.hall_generators((2, 3)), cg.hall_generators((2,))
    words = [g.images for g in cg.group.generators]
    words += [compose_arrays(a, b) for a, b in itertools.product(words, words)]
    for x in words:
        x_inv = invert_array(x)
        conj = [compose_arrays(compose_arrays(x_inv, g), x) for g in pair]
        chain, _ = build_chain(cg.degree, conj)
        if any(chain.sift(g)[0] is not None for g in sylow):
            break
    else:
        raise AssertionError("no conjugate of the {2,3}-list misses P_2")
    assert chain.order() == p_part(cg.group.factored_order, (2, 3))
    assert all(cg.group.chain.contains_array(g) for g in conj)

    def hall_generators(sigma):
        return conj if sigma == (2, 3) else cg.hall_generators(sigma)

    bad = ConstructedGroup(cg.group, cg.expr, hall_generators)
    with pytest.raises(SylowSystemError, match=re.escape(
            "a Sylow 2-generator lies outside the Hall {2,3}-subgroup")):
        hall_profile(bad, (2, 3))


def test_conjugated_sylow_seeds_give_the_same_residual():
    # the seeded residual needs one Sylow subgroup per prime, not a Sylow
    # system: replace one member by a conjugate that no longer permutes
    # with another, and the lower nilpotent series stays the same
    cg = build(parse_expr("W(C(5,1),W(C(2,1),C(3,1)))"))
    seeds = {p: hall_chain(cg, (p,))[1] for p in cg.primes}
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
