import random

import pytest

from fitlen.chain import certified_chain
from fitlen.construct import (ConstructedGroup, Cyclic, Direct, ElemAbelian,
                              Iterated, Wreath, build, cyclic, direct_product,
                              elem_abelian, expr_degree, expr_order,
                              expr_to_text, iterated, parse_expr,
                              wreath_product)
from fitlen.errors import DegreeBudgetError, SylowSystemError, UsageError
from fitlen.group import PermGroup
from fitlen.perms import parse_cycles
from fitlen.series import fitting_length, is_nilpotent


def test_cyclic_leaf():
    g = cyclic(3, 2)
    assert g.degree == 9 and g.order == 9 and g.primes == (3,)
    assert fitting_length(g.group) == 1


def test_elem_abelian_leaf():
    g = elem_abelian(3, 2)
    assert g.degree == 6 and g.order == 9
    # every nontrivial element has order 3
    for gen in g.group.generators:
        assert gen.order() == 3


def test_direct_product_basics():
    g = direct_product(cyclic(2), cyclic(3))
    assert g.order == 6 and g.degree == 5 and g.primes == (2, 3)
    assert is_nilpotent(g.group)  # C6 is cyclic


def test_direct_product_with_trivial():
    from fitlen.construct import trivial_constructed
    a = cyclic(5)
    padded = direct_product(a, trivial_constructed())
    assert padded.order == a.order


def test_wreath_natural_formula():
    g = wreath_product(cyclic(2), cyclic(3))
    assert g.degree == 6 and g.order == 24


def test_wreath_regular_formula():
    g = wreath_product(cyclic(2), cyclic(2), action="regular")
    assert g.degree == 4 and g.order == 8
    assert is_nilpotent(g.group)


def test_wreath_sylow_orders():
    g = wreath_product(cyclic(2), cyclic(3))
    from fitlen.construct import hall_chain
    assert hall_chain(g, (2,))[0].order() == 8
    assert hall_chain(g, (3,))[0].order() == 3
    assert hall_chain(g, (2, 3))[0].order() == 24


def test_iterated():
    h = cyclic(2)
    assert iterated(h, 1) is h
    assert iterated(h, 2).order == 8
    g = iterated(cyclic(2), 3)
    assert g.order == 8 ** 2 * 2 == 128 and g.degree == 8
    with pytest.raises(UsageError):
        iterated(h, 0)


def test_build_matches_formulas():
    expr = Wreath(Cyclic(2, 1), Wreath(Cyclic(3, 1), Cyclic(5, 1)))
    g = build(expr)
    assert g.degree == 30
    assert g.order == 2 ** 15 * 3 ** 5 * 5
    assert g.primes == (2, 3, 5)
    assert expr_order(expr) == g.order
    assert expr_degree(expr) == g.degree


def test_build_iterated_once_is_same_group():
    expr = Iterated(Wreath(Cyclic(3, 1), Cyclic(5, 1)), 1)
    g = build(expr)
    assert g.order == 3 ** 5 * 5 and g.degree == 15


def test_order_formula_random_expressions():
    # |A wr B| = |A|^d |B| and |A x B| = |A||B| on randomly shaped trees
    rng = random.Random(20240801)
    leaves = [Cyclic(2, 1), Cyclic(3, 1), Cyclic(2, 2), ElemAbelian(3, 2),
              Cyclic(5, 1)]
    built = 0
    while built < 10:
        a, b = rng.choice(leaves), rng.choice(leaves)
        kind = rng.randrange(3)
        if kind == 0:
            expr = Direct(a, b)
        elif kind == 1:
            expr = Wreath(a, b, "natural")
        else:
            expr = Wreath(a, b, "regular")
        if expr_degree(expr) > 4096:
            continue
        g = build(expr)
        assert g.order == expr_order(expr), expr
        assert g.degree == expr_degree(expr), expr
        built += 1


def test_degree_budget_error_reports_required_degree():
    expr = Wreath(Cyclic(2, 1), Cyclic(7, 4))  # needs degree 2 * 2401
    import dataclasses
    from fitlen.config import DEFAULT_LIMITS
    with pytest.raises(DegreeBudgetError) as err:
        build(expr, limits=dataclasses.replace(DEFAULT_LIMITS, max_degree=512))
    assert err.value.required_degree == 4802


def test_regular_overflow_suggests_natural():
    expr = Wreath(Cyclic(2, 1), Wreath(Cyclic(3, 1), Cyclic(5, 1)), "regular")
    import dataclasses
    from fitlen.config import DEFAULT_LIMITS
    with pytest.raises(DegreeBudgetError) as err:
        build(expr, limits=dataclasses.replace(DEFAULT_LIMITS, max_degree=1024))
    assert "natural" in str(err.value)


def test_wreath_block_layout_contract():
    # coordinate i of the base occupies points [i*m, (i+1)*m)
    g = wreath_product(cyclic(2), cyclic(3))
    base_gen = g.group.generators[0]
    assert str(base_gen) == "(1 2)"  # block 0 is points {0, 1}
    top_gen = g.group.generators[-1]
    assert top_gen(0) == 2 and top_gen(2) == 4 and top_gen(4) == 0


def test_intransitive_top_still_full_base():
    g = build(Wreath(Cyclic(2, 1), Direct(Cyclic(3, 1), Cyclic(5, 1))))
    assert g.order == 2 ** 8 * 15


def test_build_deterministic():
    expr = parse_expr("W(C(2,1),W(C(3,1),C(5,1)))")
    a = build(expr)
    b = build(expr)
    assert [str(g) for g in a.group.generators] == \
           [str(g) for g in b.group.generators]
    assert a.group.chain.base() == b.group.chain.base()


# -- expression text -----------------------------------------------------

def test_parse_round_trip():
    for text in ["C(2,1)", "EA(3,2)", "D(C(2,1),C(3,1))",
                 "W(C(2,1),W(C(3,1),C(5,1)))", "WR(C(2,1),C(2,1))",
                 "IT(W(C(3,1),C(5,1)),2)"]:
        assert expr_to_text(parse_expr(text)) == text


def test_parse_whitespace():
    assert parse_expr(" W( C(2,1) , C(3,1) ) ") == Wreath(
        Cyclic(2, 1), Cyclic(3, 1), "natural")


@pytest.mark.parametrize("bad,pos_hint", [
    ("W(C(2,1)", "position"),
    ("X(2,1)", "position 0"),
    ("C(4,1)", "prime"),
    ("C(2,0)", "exponent"),
    ("IT(C(2,1),0)", "l >= 1"),
    ("W(C(2,1),C(3,1)) trailing", "trailing"),
    ("", "position 0"),
])
def test_parse_errors_carry_position_or_reason(bad, pos_hint):
    with pytest.raises(UsageError) as err:
        parse_expr(bad)
    assert pos_hint in str(err.value)


def test_sylow_system_propagation_verified_on_catalog(catalog):
    from fitlen.group import p_part
    from fitlen.construct import hall_chain
    for name, cg in catalog.items():
        factored = cg.group.factored_order
        for p in cg.primes:
            assert hall_chain(cg, (p,))[0].order() == p_part(factored, (p,)), name


S4_GENS = ["(1 2 3 4)", "(1 2)"]
S4_PCGS = [(2, "(1 2)(3 4)"), (2, "(1 3)(2 4)"), (3, "(1 2 3)"), (2, "(1 2)")]

# Each pcgs is wrong for its group: S4 and S6 from their usual generators
# tagged as soluble groups of order 12 and 72, a valid pcgs of S4 with one
# redundant element appended, and the pcgs of W(C(2,1),C(3,1)) whose top
# element is lifted with block size 1 instead of 2.
BAD_PCGS = {
    "s4-tagged-12": (S4_GENS, 4, [(4, "(1 2 3 4)"), (3, "(1 2)")]),
    "s6-tagged-72": (["(1 2 3 4 5 6)", "(1 2)"], 6,
                     [(8, "(1 2 3 4 5 6)"), (9, "(1 2)")]),
    "s4-redundant": (S4_GENS, 4, S4_PCGS + [(2, "(1 4)(2 3)")]),
    "w23-top-block-size-1": (None, 6,
                             [(2, "(1 2)"), (2, "(3 4)"), (2, "(5 6)"),
                              (3, "(1 2 3)")]),
}


def _pcgs(degree, tagged):
    return tuple((q, parse_cycles(text, degree)) for q, text in tagged)


def test_valid_pcgs_of_s4_certifies():
    from test_chain import _assert_schreier_complete

    pcgs = _pcgs(4, S4_PCGS)
    group = PermGroup(4, [parse_cycles(t, 4) for t in S4_GENS])
    cg = ConstructedGroup(group, None, pcgs)
    assert cg.order == 24 and cg.system[2] == tuple(g for q, g in pcgs if q == 2)
    chain = certified_chain(4, [(q, g.images) for q, g in pcgs])
    assert chain.order() == 24
    _assert_schreier_complete(chain)


@pytest.mark.parametrize("name", sorted(BAD_PCGS))
def test_wrong_pcgs_raises(name):
    gens, degree, tagged = BAD_PCGS[name]
    if gens is None:
        group = build(parse_expr("W(C(2,1),C(3,1))")).group
    else:
        group = PermGroup(degree, [parse_cycles(t, degree) for t in gens])
    pcgs = _pcgs(degree, tagged)
    # the sequence is checked against the group on creation, and the
    # certificate rejects it without knowing the group at all
    with pytest.raises(SylowSystemError):
        ConstructedGroup(group, None, pcgs)
    with pytest.raises(SylowSystemError):
        certified_chain(degree, [(q, g.images) for q, g in pcgs])

