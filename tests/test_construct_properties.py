"""Property tests: the expression parser and printer are inverse, and
the saturating size recursion is exact below its saturation value.

Trees are drawn from C and EA leaves over small primes and D, W, WR and
IT nodes.  The canonical text of a tree parses back to the same tree,
whitespace between tokens does not change the parse, every proper
prefix of the text is rejected with the position where the input ran
out or went wrong, and a text with one token deleted or two adjacent
tokens swapped either parses or is rejected no earlier than the first
token that differs.  parse_expr computes no sizes, so deep trees are safe.
"""

import re

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from fitlen.construct import (NATURAL, REGULAR, Cyclic, Direct,  # noqa: E402
                              ElemAbelian, Iterated, Wreath, _size,
                              expr_degree, expr_order, expr_to_text,
                              parse_expr)
from fitlen.errors import UsageError  # noqa: E402

TOKEN = re.compile(r"[A-Z]+|\d+|[(),]")
POSITION = re.compile(r"parse error at position (\d+)")

primes = st.sampled_from([2, 3, 5, 7])
exponents = st.integers(1, 3)
leaves = (st.builds(Cyclic, primes, exponents)
          | st.builds(ElemAbelian, primes, exponents))
exprs = st.recursive(
    leaves,
    lambda children: (
        st.builds(Direct, children, children)
        | st.builds(Wreath, children, children,
                    st.sampled_from([NATURAL, REGULAR]))
        | st.builds(Iterated, children, st.integers(1, 3))),
    max_leaves=12)

SETTINGS = settings(derandomize=True, database=None, max_examples=200,
                    deadline=None)


@SETTINGS
@given(exprs)
def test_canonical_text_parses_back(expr):
    assert parse_expr(expr_to_text(expr)) == expr


@SETTINGS
@given(exprs, st.data())
def test_whitespace_between_tokens_is_ignored(expr, data):
    text = expr_to_text(expr)
    tokens = TOKEN.findall(text)
    assert "".join(tokens) == text
    gaps = data.draw(st.lists(st.text(" \t\n", max_size=3),
                              min_size=len(tokens) + 1,
                              max_size=len(tokens) + 1))
    spaced = "".join(gap + token for gap, token in zip(gaps, tokens))
    assert parse_expr(spaced + gaps[-1]) == expr


@SETTINGS
@given(exprs)
def test_every_proper_prefix_is_a_positioned_parse_error(expr):
    text = expr_to_text(expr)
    for end in range(len(text)):
        with pytest.raises(UsageError) as info:
            parse_expr(text[:end])
        found = POSITION.match(str(info.value))
        assert found, (text[:end], str(info.value))
        assert int(found.group(1)) <= end


@settings(SETTINGS, max_examples=300)
@given(exprs, st.data())
def test_token_deletion_or_swap_errors_at_or_after_the_change(expr, data):
    tokens = TOKEN.findall(expr_to_text(expr))
    i = data.draw(st.integers(0, len(tokens) - 1))
    mutated = list(tokens)
    if i + 1 < len(tokens) and data.draw(st.booleans()):
        mutated[i], mutated[i + 1] = mutated[i + 1], mutated[i]
    else:
        del mutated[i]
    text = "".join(mutated)
    try:
        parse_expr(text)
    except UsageError as err:
        found = POSITION.match(str(err))
        if found:
            # tokens glue (deleting the "(" of "W(C(" leaves "WC"), so
            # the first difference is found between token lists
            glued = TOKEN.findall(text)
            same = 0
            while (same < min(len(glued), len(tokens))
                   and glued[same] == tokens[same]):
                same += 1
            start = len("".join(glued[:same]))
            assert start <= int(found.group(1)) <= len(text), (text, str(err))


# -- the saturating size recursion ---------------------------------------------

# draws whose exact order passes this are skipped: towers cannot be
# evaluated exactly, and _size's saturation is what keeps them cheap
EXACT_LIMIT_BITS = 4096


class _TooLarge(Exception):
    pass


def _formula_size(expr, action):
    """(degree, order) from the textbook formulas, exact, in plain ints.

    IT(x, l) is unfolded into l - 1 left-associated wreath products
    with the default action, then each node is evaluated directly.
    """
    def power(a, e):
        # a >= 2, so a ** e has more than (bit_length - 1) * e bits
        if (a.bit_length() - 1) * e > EXACT_LIMIT_BITS:
            raise _TooLarge
        return a ** e

    def size(e):
        if isinstance(e, Cyclic):
            n = power(e.p, e.k)
            return n, n
        if isinstance(e, ElemAbelian):
            return e.k * e.p, power(e.p, e.k)
        if isinstance(e, Direct):
            (ld, lo), (rd, ro) = size(e.left), size(e.right)
            return ld + rd, lo * ro
        if isinstance(e, Wreath):
            (bd, bo), (td, to) = size(e.base), size(e.top)
            points = to if e.action == REGULAR else td
            return bd * points, power(bo, points) * to
        unfolded = e.expr
        for _ in range(e.times - 1):
            unfolded = Wreath(unfolded, e.expr, action)
        return size(unfolded)

    degree, order = size(expr)
    if order.bit_length() > EXACT_LIMIT_BITS:
        raise _TooLarge
    return degree, order


@SETTINGS
@given(exprs, st.sampled_from([NATURAL, REGULAR]))
def test_size_is_exact_below_the_saturation_value(expr, action):
    try:
        degree, order = _formula_size(expr, action)
    except _TooLarge:
        return
    assert expr_degree(expr, action) == degree
    assert expr_order(expr, action) == order
    for ceiling in (10, 1000, 1 << 64):
        over = ceiling + 1
        assert _size(expr, action, over) == (min(degree, over),
                                             min(order, over))
