import itertools

import tracemalloc

import pytest
from conftest import brute_force_elements

from fitlen.construct import build, hall_chain, parse_expr
from fitlen.errors import NotSolubleError, OracleScaleError
from fitlen.group import PermGroup, factorize, p_part
from fitlen.hall import hall_derived_length
from fitlen.oracle import (_bfs_closure, _inv, _mul,
                           check_nilpotent_triple_product,
                           check_trifactorization, core_sigma, element_order,
                           enumerate_group, fitting_length_upper,
                           fitting_subgroup, hall_subgroup_search,
                           is_nilpotent_tiny, product_set, product_set_order,
                           quotient_by, subgroup_closure,
                           core_containment_holds)
from fitlen.perms import Permutation, parse_cycles
from fitlen.series import derived_length, fitting_length


def _tiny(*texts, degree):
    return enumerate_group(PermGroup(degree,
                                     [parse_cycles(t, degree) for t in texts]))


@pytest.fixture(scope="module")
def s4():
    return _tiny("(1 2)", "(1 2 3 4)", degree=4)


@pytest.fixture(scope="module")
def s3():
    return _tiny("(1 2)", "(1 2 3)", degree=3)


def test_enumeration_counts(s4):
    assert _tiny("(1 2 3)", degree=3).order == 3
    assert s4.order == 24
    assert enumerate_group(PermGroup.trivial(3)).order == 1


def test_enumeration_cap():
    with pytest.raises(OracleScaleError):
        enumerate_group(PermGroup(8, [parse_cycles("(1 2)", 8),
                                      parse_cycles("(1 2 3 4 5 6 7 8)", 8)]),
                        cap=1000)


def test_cores(s4, s3):
    assert core_sigma(s4, (2,)).order == 4       # the double transpositions
    assert core_sigma(s3, (3,)).order == 3
    assert core_sigma(s3, (2,)).order == 1
    assert core_sigma(s4, (2, 3)).order == 24
    c8 = _tiny("(1 2 3 4 5 6 7 8)", degree=8)
    assert core_sigma(c8, (2,)).order == 8       # whole p-group


def test_core_is_normal_and_contains_every_normal_sigma_subgroup(s4, s3):
    # exhaustive cross-check on order <= 200 groups: every normal
    # subgroup that is a sigma-group sits inside the computed core
    for T in (s4, s3, _tiny("(1 2)(3 4 5)", degree=5)):
        for sigma in ((2,), (3,), (2, 3)):
            core = core_sigma(T, sigma)
            core_set = set(core.elements)
            # normality: closed under conjugation by generators
            for g in T.gens:
                from fitlen.oracle import _inv, _mul
                gi = _inv(g)
                for e in core.elements:
                    assert _mul(_mul(gi, e), g) in core_set
            # contains every normal sigma-subgroup found by scanning
            # single-element normal closures
            from fitlen.oracle import _bfs_closure
            for x in T.elements:
                closure = _bfs_closure(T.degree, [x], T.order + 1)
                ncl = _bfs_closure(
                    T.degree,
                    [e for cls in T.conjugacy_classes() if x in cls
                     for e in cls], T.order + 1)
                if len(ncl) == 1 or set(factorize(len(ncl))) <= set(sigma):
                    assert set(ncl) <= core_set
                del closure


def test_fitting_subgroup_values(s4, s3):
    assert fitting_subgroup(s4).order == 4
    assert fitting_subgroup(s3).order == 3
    c6 = _tiny("(1 2)(3 4 5)", degree=5)
    assert fitting_subgroup(c6).order == 6
    assert is_nilpotent_tiny(c6)
    assert not is_nilpotent_tiny(s3)


def test_fitting_product_identity(oracle_catalog):
    # F(G) has exactly the order of the product of the p-cores
    for name, cg in oracle_catalog.items():
        T = enumerate_group(cg.group)
        F = fitting_subgroup(T)
        prod = 1
        for p in T.primes():
            prod *= core_sigma(T, (p,)).order
        assert F.order == prod, name


def test_quotient_and_upper_lengths(s4, s3):
    assert fitting_length_upper(s4) == 3
    assert fitting_length_upper(s3) == 2
    q = quotient_by(s4, fitting_subgroup(s4))
    assert q.order == 6
    nilpotent = _tiny("(1 2)", "(3 4 5)", degree=5)
    assert fitting_length_upper(nilpotent) == 1


def test_upper_length_rejects_insoluble():
    a5 = _tiny("(1 2 3)", "(3 4 5)", degree=5)
    with pytest.raises(NotSolubleError):
        fitting_length_upper(a5)


def test_upper_equals_lower_on_oracle_catalog(oracle_catalog):
    for name, cg in oracle_catalog.items():
        T = enumerate_group(cg.group)
        assert fitting_length_upper(T) == fitting_length(cg.group), name


def test_hall_search(s4, s3):
    assert hall_subgroup_search(s4, (2,)).order == 8
    assert hall_subgroup_search(s4, (3,)).order == 3
    assert hall_subgroup_search(s3, (2,)).order == 2
    assert hall_subgroup_search(s4, (2, 3)).order == 24
    assert hall_subgroup_search(s4, (5,)).order == 1


def test_hall_search_matches_sigma_parts(oracle_catalog):
    for name, cg in oracle_catalog.items():
        T = enumerate_group(cg.group)
        factored = factorize(T.order)
        for size in range(1, len(T.primes()) + 1):
            for sigma in itertools.combinations(T.primes(), size):
                H = hall_subgroup_search(T, sigma)
                assert H.order == p_part(factored, sigma), (name, sigma)


def _brute_derived_length(T):
    """Derived length of T from its brute-force derived series.

    Each term D' is <[x, y] : x in D, y in gens(D)>.  That subgroup is
    normal in D because [x, y]^g = [xg, y][g, y]^-1, a product of two of
    its generators, and every element of D commutes with every generator
    of D modulo it, so D/D' is abelian and D' is the commutator subgroup.
    Generators are kept only when they enlarge the closure, so the lists
    stay short down the series.
    """
    length, D = 0, T
    while D.order > 1:
        gens = []
        N = subgroup_closure(D, gens)
        for x in D.elements:
            for y in D.gens:
                c = _mul(_mul(_inv(x), _inv(y)), _mul(x, y))
                if c not in N:
                    gens.append(c)
                    N = subgroup_closure(D, gens)
        assert N.order < D.order, "the derived series stalls: not soluble"
        length, D = length + 1, N
    return length


def test_derived_length_matches_brute_force_series(oracle_catalog):
    # the groups' own derived lengths, and every d(B) of a proper Hall
    # subgroup B that the two-factor bound entries use
    for name, cg in oracle_catalog.items():
        T = enumerate_group(cg.group)
        assert derived_length(cg.group) == _brute_derived_length(T), name
        for size in range(1, len(T.primes())):
            for sigma in itertools.combinations(T.primes(), size):
                H = hall_subgroup_search(T, sigma)
                assert hall_derived_length(cg, sigma) == \
                    _brute_derived_length(H), (name, sigma)


def test_core_containment_examples(s4):
    assert core_containment_holds(s4, (2, 3), 2, 3)
    W = _tiny("(1 2)", "(1 3 5)(2 4 6)", degree=6)  # C2 wr C3
    assert core_containment_holds(W, (2, 3), 3, 2)
    nilpotent = _tiny("(1 2)", "(3 4 5)", degree=5)
    assert core_containment_holds(nilpotent, (2, 3), 2, 3)


def test_core_containment_exhaustive_sweep(oracle_catalog):
    # for every oracle-scale catalog group, every sigma with at least
    # two primes, and every ordered pair p != q inside sigma
    for name, cg in oracle_catalog.items():
        T = enumerate_group(cg.group)
        primes = T.primes()
        for size in range(2, len(primes) + 1):
            for sigma in itertools.combinations(primes, size):
                for p, q in itertools.permutations(sigma, 2):
                    assert core_containment_holds(T, sigma, p, q), \
                        (name, sigma, p, q)


def test_product_set_orders(s3):
    H = subgroup_closure(s3, [tuple(parse_cycles("(1 2)", 3).images)])
    K = subgroup_closure(s3, [tuple(parse_cycles("(1 2 3)", 3).images)])
    assert product_set_order(H, K) == 6
    assert product_set_order(H, H) == 2
    trivial = subgroup_closure(s3, [])
    assert product_set_order(trivial, K) == 3


def test_product_set_of_a_group_near_the_oracle_cap():
    # |G| * |G| = 9604^2 pairs, but each coset of G is formed once
    T = enumerate_group(build(parse_expr("W(C(7,1),C(2,2))")).group)
    assert T.order == 9604
    assert product_set_order(T, T) == 9604


def test_product_order_formula_sampled(oracle_catalog):
    # |HK| * |H meet K| == |H| * |K| on subgroup pairs from the systems
    for name, cg in oracle_catalog.items():
        if cg.num_primes < 2 or cg.order > 400:
            continue
        T = enumerate_group(cg.group)
        subs = [subgroup_closure(T, [tuple(int(i) for i in a)
                                     for a in hall_chain(cg, (p,))[1]])
                for p in cg.primes]
        for H, K in itertools.combinations(subs, 2):
            hk = product_set_order(H, K)
            meet = len(set(H.elements) & set(K.elements))
            assert hk * meet == H.order * K.order, name


def test_product_set_matches_every_pair(oracle_catalog):
    # one coset per hK must give the set of all |H||K| products, also
    # when the left factor is no subgroup
    for name, cg in oracle_catalog.items():
        if cg.num_primes < 2 or cg.order > 400:
            continue
        T = enumerate_group(cg.group)
        subs = [subgroup_closure(T, [tuple(int(i) for i in a)
                                     for a in hall_chain(cg, (p,))[1]])
                for p in cg.primes] + [T]
        lefts = [S.elements for S in subs] + [T.elements[::3]]
        for left in lefts:
            for K in subs:
                every = {_mul(h, k) for h in left for k in K.elements}
                assert product_set(left, K.elements) == every, name


def test_trifactorization_s3_instance(s3):
    H = [tuple(parse_cycles("(1 2)", 3).images)]
    K = [tuple(parse_cycles("(1 2 3)", 3).images)]
    L = [tuple(parse_cycles("(1 3)", 3).images)]
    report = check_trifactorization(s3, H, K, L)
    # |LH| = 4 < 6: the factorization hypothesis fails and the harness
    # must say so rather than evaluate the inequality
    assert report.product_orders == (6, 6, 4)
    assert not report.hypothesis_met
    assert report.h_values is None


def test_trifactorization_whole_group(s3):
    report = check_trifactorization(s3, s3.gens, s3.gens, s3.gens)
    assert report.hypothesis_met
    assert report.h_values == (2, 2, 2, 2)
    assert report.bound_value == 4 and report.inequality_holds


def test_trifactorization_nilpotent_keeps_kegel(s3):
    c6 = _tiny("(1 2)(3 4 5)", degree=5)
    two = [tuple(parse_cycles("(1 2)", 5).images)]
    three = [tuple(parse_cycles("(3 4 5)", 5).images)]
    report = check_trifactorization(c6, two, three, c6.gens)
    assert report.hypothesis_met and report.all_nilpotent
    assert report.kegel_confirmed is True


def test_triple_product_on_wreath():
    W = _tiny("(1 2)", "(3 4)", "(5 6)", "(1 3 5)(2 4 6)", degree=6)
    base = [tuple(parse_cycles(t, 6).images) for t in ("(1 2)", "(3 4)", "(5 6)")]
    top = [tuple(parse_cycles("(1 3 5)(2 4 6)", 6).images)]
    report = check_nilpotent_triple_product(W, base, top, [W.identity()])
    assert report.hypothesis_met
    assert report.pair_h == (2, 1, 1)
    assert report.h_g == 2
    assert report.inequality_holds  # 2 <= 2+1+1-2


def test_triple_product_hypothesis_unmet(s3):
    H = [tuple(parse_cycles("(1 2)", 3).images)]
    report = check_nilpotent_triple_product(s3, H, H, H)
    assert not report.hypothesis_met  # product is too small


def _repeated_product_order(a):
    ident = tuple(range(len(a)))
    n, x = 1, a
    while x != ident:
        x = _mul(x, a)
        n += 1
    return n


def test_element_order_matches_repeated_products(oracle_catalog):
    for name, cg in oracle_catalog.items():
        T = enumerate_group(cg.group)
        for x in T.elements:
            assert element_order(x) == _repeated_product_order(x), (name, x)


def test_closure_matches_brute_force_on_padded_generator_lists(oracle_catalog):
    # duplicates, the identity and members the others already generate
    # must change neither the element set nor leave a repeated element
    for name, cg in oracle_catalog.items():
        gens = [tuple(int(i) for i in g.images) for g in cg.group.generators]
        ident = tuple(range(cg.degree))
        padded = ([ident] + gens + gens[::-1] + [ident]
                  + [_mul(a, b) for a, b in zip(gens, gens[1:])]
                  + [_mul(gens[0], gens[0])])
        elems = _bfs_closure(cg.degree, padded, cg.order + 1)
        assert elems[0] == ident, name
        assert len(elems) == len(set(elems)) == cg.order, name
        assert set(elems) == brute_force_elements(padded), name


def test_degree_one_groups_end_to_end():
    # itemgetter with one index returns a scalar, not a tuple
    T = enumerate_group(PermGroup.trivial(1))
    assert T.order == 1 and T.elements == [(0,)]
    assert core_sigma(T, (2,)).order == 1
    assert fitting_length_upper(T) == 0
    U = enumerate_group(PermGroup(1, [Permutation.identity(1)]))
    assert U.gens == [(0,)] and U.order == 1
    assert U.conjugacy_classes() == [[(0,)]]
    assert core_sigma(U, (3,)).elements == [(0,)]
    assert fitting_length_upper(U) == 0
    assert _mul((0,), (0,)) == (0,)
    assert product_set(U.elements, U.elements) == {(0,)}


def test_fitting_length_upper_memory_on_abelian_anchor():
    # an abelian group of order 1680 has 1680 conjugacy classes; keeping
    # every class's normal closure as an element list peaked near 78 MB
    cg = build(parse_expr("D(C(2,2),D(D(C(7,1),C(2,2)),D(C(3,1),C(5,1))))"))
    T = enumerate_group(cg.group)
    assert T.order == 1680
    tracemalloc.start()
    try:
        h = fitting_length_upper(T)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert h == 1
    assert peak < 16 * 2 ** 20, peak
