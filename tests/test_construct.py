import random

import pytest

from fitlen.construct import (ConstructedGroup, Cyclic, Direct, ElemAbelian,
                              Iterated, Wreath, build, expr_degree, expr_order,
                              expr_to_text, parse_expr)
from fitlen.errors import DegreeBudgetError, SylowSystemError, UsageError
from fitlen.group import PermGroup
from fitlen.perms import parse_cycles
from fitlen.series import fitting_length, is_nilpotent


def test_cyclic_leaf():
    g = build(Cyclic(3, 2))
    assert g.degree == 9 and g.order == 9 and g.primes == (3,)
    assert fitting_length(g.group) == 1


def test_elem_abelian_leaf():
    g = build(ElemAbelian(3, 2))
    assert g.degree == 6 and g.order == 9
    # every nontrivial element has order 3
    for gen in g.group.generators:
        assert gen.order() == 3


def test_direct_product_basics():
    g = build(Direct(Cyclic(2), Cyclic(3)))
    assert g.order == 6 and g.degree == 5 and g.primes == (2, 3)
    assert is_nilpotent(g.group)  # C6 is cyclic


def test_wreath_natural_formula():
    g = build(Wreath(Cyclic(2), Cyclic(3)))
    assert g.degree == 6 and g.order == 24


def test_wreath_regular_formula():
    g = build(Wreath(Cyclic(2), Cyclic(2), "regular"))
    assert g.degree == 4 and g.order == 8
    assert is_nilpotent(g.group)


def test_wreath_sylow_orders():
    g = build(Wreath(Cyclic(2), Cyclic(3)))
    from fitlen.construct import hall_chain
    assert hall_chain(g, (2,))[0].order() == 8
    assert hall_chain(g, (3,))[0].order() == 3
    assert hall_chain(g, (2, 3))[0].order() == 24


def test_iterated():
    h = build(Cyclic(2))
    once = build(Iterated(Cyclic(2), 1))
    assert once.expr == h.expr
    assert once.group.generators == h.group.generators
    assert build(Iterated(Cyclic(2), 2)).order == 8
    g = build(Iterated(Cyclic(2), 3))
    assert g.order == 8 ** 2 * 2 == 128 and g.degree == 8
    with pytest.raises(UsageError):
        build(Iterated(Cyclic(2), 0))


def test_unknown_default_action_raises():
    with pytest.raises(UsageError, match="unknown wreath action"):
        build(Iterated(Cyclic(2), 2), default_action="sideways")


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
    with pytest.raises(DegreeBudgetError) as err:
        build(expr, max_degree=512)
    assert err.value.required_degree == 4802


def test_regular_overflow_suggests_natural():
    expr = Wreath(Cyclic(2, 1), Wreath(Cyclic(3, 1), Cyclic(5, 1)), "regular")
    with pytest.raises(DegreeBudgetError) as err:
        build(expr, max_degree=1024)
    assert "natural" in str(err.value)


def test_wreath_block_layout_contract():
    # coordinate i of the base occupies points [i*m, (i+1)*m)
    g = build(Wreath(Cyclic(2), Cyclic(3)))
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
    ("WC(2,1)", "position 0: expected one of C, EA, D, W, WR, IT"),
    ("C(2\u00b2,1)", "position 3: expected ','"),  # a superscript two
    ("C(\u00b2,1)", "position 2: expected an integer"),
    ("C(4,1)", "prime"),
    ("C(3825123056546413051,1)", "prime"),  # strong pseudoprime to 2..23
    ("EA(18446744073709551629,1)", "2^64"),  # the first prime past 2^64
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


# Each group is larger than its expression says: S4 and S6 from their
# usual generators, labelled with expressions of order 12 and 72.
WRONG_EXPRESSIONS = {
    "s4-tagged-12": (["(1 2 3 4)", "(1 2)"], 4, "D(C(2,2),C(3,1))"),
    "s6-tagged-72": (["(1 2 3 4 5 6)", "(1 2)"], 6, "D(C(2,3),EA(3,2))"),
}


@pytest.mark.parametrize("name", sorted(WRONG_EXPRESSIONS))
def test_order_differing_from_expression_raises(name):
    gens, degree, text = WRONG_EXPRESSIONS[name]
    group = PermGroup(degree, [parse_cycles(t, degree) for t in gens])
    with pytest.raises(SylowSystemError, match="the expression gives"):
        ConstructedGroup(group, parse_expr(text), lambda sigma: [])


def test_exponent_tower_order_raises_quickly():
    # the expression of test_cli's tower test: its exact order is an
    # exponent tower, which expr_order and expr_degree refuse to evaluate
    import time

    expr = parse_expr(
        "W(C(2,1),WR(C(2,1),WR(C(2,1),WR(C(2,1),WR(C(2,1),C(7,1))))))")
    for size in (expr_order, expr_degree):
        start = time.monotonic()
        with pytest.raises(UsageError, match="too large"):
            size(expr)
        assert time.monotonic() - start < 1.0


@pytest.mark.parametrize("text", [
    "W(W(C(2,1),C(3,1)),W(C(5,1),C(7,1)))",
    "D(C(2,1),IT(W(C(3,1),C(5,1)),2))",
    "W(C(2,1),WR(C(3,1),C(2,1)))",
])
def test_build_makes_one_chain(monkeypatch, text):
    # subexpressions are records, not groups: only the result gets a
    # chain, and with it the one order check
    from fitlen import group

    calls = []
    build_chain = group.build_chain

    def counted(*args, **kwargs):
        calls.append(args[0])
        return build_chain(*args, **kwargs)

    monkeypatch.setattr(group, "build_chain", counted)
    cg = build(parse_expr(text))
    assert calls == [cg.degree]
