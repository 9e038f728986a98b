"""Series computations against hand-enumerable oracle values.

Expected orders and lengths here were frozen from brute-force element
enumeration (closure of generators, explicit commutator sets) on the
tiny groups involved; see test_oracle for the systematic sweeps.
"""

import numpy as np
import pytest

from fitlen import series
from fitlen.construct import build, hall_chain, parse_expr
from fitlen.errors import ContainmentError, NotSolubleError
from fitlen.group import PermGroup
from fitlen.perms import Permutation, parse_cycles
from fitlen.series import (commutator_subgroup, derived_length, derived_series,
                           fitting_length, is_nilpotent, lower_central_series,
                           lower_nilpotent_series, nilpotent_residual,
                           normal_closure)


def _sym(n):
    cycle = "(%s)" % " ".join(str(i) for i in range(1, n + 1))
    return PermGroup(n, [parse_cycles("(1 2)", n), parse_cycles(cycle, n)])


@pytest.fixture(scope="module")
def s3():
    return _sym(3)


@pytest.fixture(scope="module")
def s4():
    return _sym(4)


@pytest.fixture(scope="module")
def c6():
    return PermGroup(5, [parse_cycles("(1 2)(3 4 5)", 5)])


def test_normal_closure_of_generators_is_whole_group(s4):
    assert normal_closure(s4, list(s4.generators)).order == 24


def test_normal_closure_three_cycle_in_s4(s4):
    # oracle: the even permutations, 12 elements
    assert normal_closure(s4, [parse_cycles("(1 2 3)", 4)]).order == 12


def test_normal_closure_of_central_element():
    G = PermGroup(5, [parse_cycles("(1 2)", 5), parse_cycles("(3 4 5)", 5)])
    closed = normal_closure(G, [parse_cycles("(1 2)", 5)])
    assert closed.order == 2


def test_normal_closure_rejects_outsiders(s3):
    with pytest.raises(ContainmentError) as err:
        normal_closure(PermGroup(3, [parse_cycles("(1 2 3)", 3)]),
                       [parse_cycles("(1 2)", 3)])
    assert "(1 2)" in str(err.value)


def test_commutator_subgroup_values(s3, s4):
    assert commutator_subgroup(s3, s3, s3).order == 3
    assert commutator_subgroup(s4, s4, s4).order == 12
    abelian = PermGroup(5, [parse_cycles("(1 2)(3 4 5)", 5)])
    assert commutator_subgroup(abelian, abelian, abelian).order == 1
    trivial = PermGroup.trivial(3)
    assert commutator_subgroup(s3, trivial, s3).order == 1


def test_commutator_containment_check(s3):
    K = PermGroup(3, [parse_cycles("(1 2 3)", 3)])
    with pytest.raises(ContainmentError):
        commutator_subgroup(s3, s3, K)


def test_derived_lengths(s3, s4, c6):
    assert derived_length(c6) == 1
    assert derived_length(s3) == 2
    assert derived_length(s4) == 3
    assert derived_length(PermGroup.trivial(2)) == 0


def test_derived_series_terms(s4):
    series = derived_series(s4)
    assert [t.order for t in series.terms] == [24, 12, 4, 1]


def test_nilpotent_residual_values(s3, s4):
    assert nilpotent_residual(s3).order == 3
    assert nilpotent_residual(s4).order == 12
    p_group = PermGroup(4, [parse_cycles("(1 2)", 4), parse_cycles("(3 4)", 4)])
    assert nilpotent_residual(p_group).order == 1


def test_lower_central_series_terms(s4):
    series = lower_central_series(s4)
    assert [t.order for t in series.terms] == [24, 12]
    assert series.terms[-1].order == nilpotent_residual(s4).order


def test_is_nilpotent(s3, c6):
    assert is_nilpotent(c6)
    assert not is_nilpotent(s3)
    prod = PermGroup(7, [parse_cycles("(1 2)(3 4)", 7), parse_cycles("(5 6 7)", 7)])
    assert is_nilpotent(prod)


def test_fitting_lengths(s3, s4, c6):
    assert fitting_length(c6) == 1
    assert fitting_length(s3) == 2
    assert fitting_length(s4) == 3
    assert fitting_length(PermGroup.trivial(3)) == 0


def test_lower_nilpotent_series_terms(s4):
    series = lower_nilpotent_series(s4)
    assert [t.order for t in series.terms] == [24, 12, 4, 1]


def test_series_strictly_descending(s4):
    for series in (derived_series(s4), lower_nilpotent_series(s4)):
        orders = [t.order for t in series.terms]
        assert orders == sorted(orders, reverse=True)
        assert len(set(orders)) == len(orders)


def test_not_soluble_raises():
    a5 = PermGroup(5, [parse_cycles("(1 2 3)", 5), parse_cycles("(3 4 5)", 5)])
    with pytest.raises(NotSolubleError):
        derived_length(a5)
    with pytest.raises(NotSolubleError):
        fitting_length(a5)


def test_lower_central_series_of_sylow_2_subgroups():
    # IT(C(2,1),k) is a Sylow 2-subgroup of Sym(2^k), of nilpotency class
    # 2^(k-1) (Kaloujnine 1948), so its lower central series has
    # 2^(k-1) + 1 terms; k = 2 is the dihedral group of order 8
    for k in range(2, 7):
        G = build(parse_expr("IT(C(2,1),%d)" % k)).group
        assert len(lower_central_series(G).terms) == 2 ** (k - 1) + 1, k
        assert is_nilpotent(G), k


def test_system_seeded_residual_matches_generic(catalog):
    for name in ("c6", "w32", "w23", "d120", "ex32b", "d840"):
        cg = catalog[name]
        sysg = {p: hall_chain(cg, (p,))[1] for p in cg.primes}
        assert fitting_length(cg.group) == fitting_length(
            cg.group, system_gens=sysg), name


def test_h_at_most_derived_length(catalog):
    for name, cg in catalog.items():
        if cg.order > 10 ** 7:
            continue
        assert fitting_length(cg.group) <= derived_length(cg.group), name


def test_normal_closure_matches_element_closure_random():
    # independent oracle: conjugate the seed set by all elements, then
    # close under multiplication, entirely at the element level
    import random

    from conftest import brute_force_elements

    rng = random.Random(17)
    for _ in range(10):
        degree = rng.randrange(3, 7)
        gens = []
        for _ in range(2):
            imgs = list(range(degree))
            rng.shuffle(imgs)
            gens.append(Permutation(imgs))
        G = PermGroup(degree, gens)
        elements = [list(e) for e in brute_force_elements(
            [list(g.images) for g in gens])]
        seed = Permutation(rng.choice(elements))
        conj = set()
        for e in elements:
            inv = [0] * degree
            for i, v in enumerate(e):
                inv[v] = i
            conj.add(tuple(e[seed.images[inv[i]]] for i in range(degree)))
        oracle_order = len(brute_force_elements([list(c) for c in conj]))
        assert normal_closure(G, [seed]).order == oracle_order


def test_h_of_direct_product_is_max(catalog):
    from fitlen.construct import Direct, build
    pairs = [("w23", "c6"), ("w32", "c8"), ("d120", "w32"), ("d90", "ea9")]
    for left, right in pairs:
        a, b = catalog[left], catalog[right]
        prod = build(Direct(a.expr, b.expr))
        assert fitting_length(prod.group) == max(
            fitting_length(a.group), fitting_length(b.group)), (left, right)



def _redundant(T):
    return len(T.generators) - len(T.reduced().generators)


def _hall_subgroups(cg):
    from itertools import combinations

    from fitlen.hall import hall_subgroup

    for size in range(1, cg.num_primes + 1):
        for sigma in combinations(cg.primes, size):
            yield sigma, hall_subgroup(cg, sigma)


@pytest.mark.parametrize("name", ["ex32a", "ex33"])
def test_series_generator_lists_are_irredundant(catalog, name):
    # the series use generator lists as given, so a redundant list costs
    # conjugation work that generator slimming used to remove
    cg = catalog[name]
    for sigma, H in _hall_subgroups(cg):
        assert _redundant(H) == 0, sigma
        system = {p: hall_chain(cg, (p,))[1] for p in sigma}
        for series in (derived_series(H),
                       lower_nilpotent_series(H),
                       lower_nilpotent_series(H, system_gens=system)):
            for i, T in enumerate(series.terms[1:], 1):
                assert _redundant(T) == 0, (sigma, series.kind, i)


def test_hall_lists_of_a_four_prime_group_are_irredundant():
    from fitlen.construct import build, hall_chain, parse_expr

    cg = build(parse_expr("W(W(C(2,1),C(3,1)),W(C(5,1),C(7,1)))"))
    for sigma, H in _hall_subgroups(cg):
        assert _redundant(H) == 0, sigma


# -- lengths through transitive constituents ---------------------------------

def test_length_is_the_max_over_differing_constituents():
    # h(W(C2,C3)) = 2 and h(IT(W(C2,C3),2)) = 4; the deeper tower sits on
    # either side, so the max cannot come from the first constituent alone
    shallow, deep = "W(C(2,1),C(3,1))", "IT(W(C(2,1),C(3,1)),2)"
    for text in ("D(%s,%s)" % (shallow, deep), "D(%s,%s)" % (deep, shallow)):
        G = build(parse_expr(text)).group
        assert fitting_length(G) == lower_nilpotent_series(G).length == 4
        assert derived_length(G) == derived_series(G).length == 4
    # two constituents of the same degree: C3 on {1,2,3}, S3 on {4,5,6}
    G = PermGroup(6, [parse_cycles("(1 2 3)", 6), parse_cycles("(4 5 6)", 6),
                      parse_cycles("(4 5)", 6)])
    assert fitting_length(G) == derived_length(G) == 2


def test_identical_constituents_are_measured_once(monkeypatch):
    # X has h = 2 and d = 3; D(X, X) has two constituents equal to X, so
    # it takes the same steps, at the same degrees, as X alone
    steps = []
    for name in ("_derived_step", "_residual_step"):
        def counted(k, gens, seeds, _step=getattr(series, name)):
            steps.append(k)
            return _step(k, gens, seeds)
        monkeypatch.setattr(series, name, counted)
    X = build(parse_expr("W(W(C(2,1),C(2,1)),C(3,1))")).group
    XX = build(parse_expr("D(W(W(C(2,1),C(2,1)),C(3,1)),"
                          "W(W(C(2,1),C(2,1)),C(3,1)))")).group
    lengths = (fitting_length(X), derived_length(X))
    single = list(steps)
    steps.clear()
    assert (fitting_length(XX), derived_length(XX)) == lengths == (2, 3)
    assert steps == single


def test_intransitive_hall_subgroup():
    # the {5,7} Hall subgroup of W(W(C2,C3),W(C5,C7)) acts on six orbits
    # of 35 points, one per point of a base block, all identical
    from fitlen.hall import hall_subgroup

    cg = build(parse_expr("W(W(C(2,1),C(3,1)),W(C(5,1),C(7,1)))"))
    H = hall_subgroup(cg, (5, 7))
    arrays = series._gen_arrays(H)
    assert [o.size for o in series._orbits(np.array(arrays))] == [35] * 6
    assert [k for k, _, _ in series._constituents(
        H.degree, arrays, None)] == [35]
    seeds = {p: series._gen_arrays(hall_subgroup(cg, (p,))) for p in (5, 7)}
    assert fitting_length(H, seeds) == fitting_length(H) == 2
    assert lower_nilpotent_series(H, seeds).length == 2
    assert derived_length(H) == derived_series(H).length == 2


def test_not_soluble_beside_soluble_constituent_raises():
    # C2 on {1,2} and A5 on {3..7}, in both orders of the points
    for c2, a5 in ((["(1 2)"], ["(3 4 5)", "(5 6 7)"]),
                   (["(6 7)"], ["(1 2 3)", "(3 4 5)"])):
        G = PermGroup(7, [parse_cycles(c, 7) for c in c2 + a5])
        with pytest.raises(NotSolubleError):
            fitting_length(G)
        with pytest.raises(NotSolubleError):
            derived_length(G)


def _restricted_order(group, orbit):
    pos = np.empty(group.degree, dtype=np.intp)
    pos[orbit] = np.arange(orbit.size)
    return PermGroup.from_arrays(orbit.size, [
        pos[g[orbit]] for g in series._gen_arrays(group)]).order


def test_step_on_one_orbit_matches_the_full_closure():
    # N = <seeds>^K is built at degree |B| on the orbit B of point 0; the
    # full-degree closure's orbits must be the classes found without it,
    # and its restriction to B must have N^B's order.  First the seeded
    # residual of the check-wide-w4 group (7 orbits of 30), then the
    # derived step of that N^B (5 orbits of 6)
    from fitlen.hall import hall_subgroup

    cg = build(parse_expr("W(W(C(2,1),C(3,1)),W(C(5,1),C(7,1)))"))
    gens = series._gen_arrays(cg.group)
    sylow = {p: series._gen_arrays(hall_subgroup(cg, (p,)))
             for p in cg.primes}
    k, seeds = cg.degree, series._system_residual_seeds(sylow)
    for sizes in ([30] * 7, [6] * 5):
        full, _ = series._closure(k, seeds, gens)
        orbits = series._orbits(np.array(series._gen_arrays(full)))
        assert [o.size for o in orbits] == sizes
        label = series._classes(k, seeds, gens)
        assert all((label[o] == o[0]).all() for o in orbits)
        N = series._on_orbit(k, gens, seeds)
        assert N.degree == orbits[0].size and orbits[0][0] == 0
        assert N.order == _restricted_order(full, orbits[0])
        k, gens = N.degree, series._gen_arrays(N)
        seeds = list(series._commutators(gens, gens))
