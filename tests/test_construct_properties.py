"""Property test: the expression parser and printer are inverse.

Trees are drawn from C and EA leaves over small primes and D, W, WR and
IT nodes.  The canonical text of a tree parses back to the same tree,
whitespace between tokens does not change the parse, and every proper
prefix of the text is rejected with the position where the input ran
out or went wrong.  parse_expr computes no sizes, so deep trees are safe.
"""

import re

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from fitlen.construct import (NATURAL, REGULAR, Cyclic, Direct,  # noqa: E402
                              ElemAbelian, Iterated, Wreath, expr_to_text,
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
