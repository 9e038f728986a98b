"""Property test: the chain route against the brute-force oracle.

Random expressions are drawn over seven small leaves with D, W and WR,
and kept when the group has order at most 2000 and degree at most 64.
Order and degree are computed here, independently of fitlen, so the
filter never asks fitlen to evaluate an oversized expression.  WR is
drawn only over a leaf top, which keeps every exponent small;
`expr_order` and `expr_degree` raise UsageError on an exponent tower.
Every Hall chain of every drawn group is also checked to be
Schreier-complete with the order the expression gives, and the seeded
route the CLI takes, `hall_profile(cg, sigma)`, is checked against the
oracle's Fitting length of a Hall subgroup found by search, for every
nonempty prime set.
"""

import itertools

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from fitlen.construct import build, expr_order, parse_expr  # noqa: E402
from fitlen.hall import hall_profile  # noqa: E402
from fitlen.oracle import (enumerate_group, fitting_length_upper,  # noqa: E402
                           hall_subgroup_search)
from fitlen.series import fitting_length  # noqa: E402

from test_hall import assert_hall_chains_certified  # noqa: E402

MAX_ORDER, MAX_DEGREE = 2000, 64

# (text, order, degree)
LEAVES = [("C(2,1)", 2, 2), ("C(3,1)", 3, 3), ("C(5,1)", 5, 5),
          ("C(7,1)", 7, 7), ("C(2,2)", 4, 4), ("EA(2,2)", 4, 4),
          ("EA(3,2)", 9, 6)]


def _node(op, base, top):
    text = "%s(%s,%s)" % (op, base[0], top[0])
    if op == "D":
        return text, base[1] * top[1], base[2] + top[2]
    points = top[1] if op == "WR" else top[2]
    return text, base[1] ** points * top[1], base[2] * points


leaves = st.sampled_from(LEAVES)


def _extend(children):
    return (st.tuples(st.sampled_from("DW"), children, children)
            | st.tuples(st.just("WR"), children, leaves)).map(
                lambda t: _node(*t))


small_exprs = st.recursive(leaves, _extend, max_leaves=4).filter(
    lambda e: e[1] <= MAX_ORDER and e[2] <= MAX_DEGREE)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(small_exprs)
def test_chain_route_matches_oracle(entry):
    text, order, degree = entry
    expr = parse_expr(text)
    cg = build(expr)
    assert cg.degree == degree
    assert cg.order == expr_order(expr) == order
    T = enumerate_group(cg.group)
    assert T.order == order
    assert fitting_length(cg.group) == fitting_length_upper(T)
    sigmas = [sigma for size in range(1, len(cg.primes) + 1)
              for sigma in itertools.combinations(cg.primes, size)]
    for sigma in sigmas:
        assert hall_profile(cg, sigma) == fitting_length_upper(
            hall_subgroup_search(T, sigma)), (text, sigma)
    assert_hall_chains_certified(cg, text)
